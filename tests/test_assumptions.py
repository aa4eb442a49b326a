"""Tests for the assumption checkers and the theorem landscape they map."""

import functools
import itertools

import numpy as np
import pytest

from spdag.assumptions import (
    MAX_WITNESSES,
    AssumptionReport,
    Witness,
    check_adjacency_faithfulness,
    check_lambda_strong_smr,
    check_markov,
    check_orientation_faithfulness,
    check_p_minimality,
    check_restricted_faithfulness,
    check_sgs_minimality,
    check_smr,
    check_triangle_faithfulness,
    d_separation_set,
)
from spdag.exceptions import CapacityError
from spdag.graph import Dag, markov_equivalent, pattern_of, skeleton
from spdag.oracle import (
    dsep_backend,
    explicit_backend,
    iter_triples,
    partial_correlation,
)
from spdag.baselines import sgs_skeleton
from spdag.sem import covariance_of
from spdag.sp import build_dag_for_permutation, sp_search

from corpus import (
    CHAIN3,
    CHAIN4,
    CHAIN4_DSEPS,
    FOUR_CYCLE,
    edge_cancellation_backend,
    edge_cancellation_sem,
    marginal_cancellation_backend,
    missed_independence_backend,
    random_dag_pool,
    random_sem_pool,
)
from reference import all_dags_brute, d_separation_set_brute, pattern_by_triples

THM4B_DAG = Dag(4, [(0, 3), (0, 2), (3, 1), (3, 2), (1, 2)])


def perturbed_backends(seed, count, p=4, flips=2):
    """d-separation sets of random DAGs with a few triples toggled."""
    rng = np.random.default_rng(seed)
    triples = list(iter_triples(p))
    out = []
    for g in random_dag_pool(seed, count, p_values=(p,)):
        base = set(d_separation_set(g))
        for _ in range(flips):
            j, k, s = triples[rng.integers(len(triples))]
            t = (j, k, s)
            base.symmetric_difference_update({t})
        out.append((g, explicit_backend(p, base)))
    return out


class TestReportShape:
    def test_invariants(self):
        with pytest.raises(ValueError):
            AssumptionReport(witnesses=(), total_violations=1)
        with pytest.raises(ValueError):
            AssumptionReport(witnesses=(Witness((0, 1), "x"),) * 2, total_violations=1)
        assert AssumptionReport(witnesses=(), total_violations=0).holds
        assert not AssumptionReport(witnesses=(Witness((0, 1), "x"),), total_violations=3).holds

    def test_witnesses_truncate_at_cap(self):
        # complete graph against an everything-independent backend: every
        # edge violates adjacency-faithfulness under every subset
        g = Dag(6, [(j, k) for j in range(6) for k in range(j + 1, 6)])
        ci = explicit_backend(6, list(iter_triples(6)))
        rep = check_adjacency_faithfulness(g, ci)
        assert not rep.holds
        assert len(rep.witnesses) == MAX_WITNESSES
        assert rep.total_violations == 15 * 16


class TestMarkov:
    def test_graph_against_its_own_separations(self):
        for g in random_dag_pool(301, 15, p_values=(3, 4, 5)):
            assert check_markov(g, dsep_backend(g)).holds

    def test_empty_graph_against_an_edge(self):
        ci = dsep_backend(Dag(2, [(0, 1)]))
        rep = check_markov(Dag(2), ci)
        assert not rep.holds
        assert rep.witnesses[0].subject == (0, 1, frozenset())

    def test_cancellation_does_not_violate_markov(self):
        # extra independences are a faithfulness problem, never a Markov one
        assert check_markov(FOUR_CYCLE, edge_cancellation_backend()).holds
        assert check_markov(FOUR_CYCLE, marginal_cancellation_backend()).holds

    def test_missing_independence_violates_markov(self):
        rep = check_markov(CHAIN4, missed_independence_backend())
        assert not rep.holds
        assert rep.witnesses[0].subject == (0, 3, frozenset({1, 2}))

    def test_capacity(self):
        with pytest.raises(CapacityError):
            check_markov(Dag(10), explicit_backend(10, []))


# a sparse graph at the search's cap, with a triangle 0-1-2, the
# unshielded colliders 2 -> 3 <- 4 and 4 -> 8 <- 7, and a chain between
SPARSE9 = Dag(9, [(0, 1), (0, 2), (1, 2), (2, 3), (4, 3), (3, 5), (5, 6), (6, 7), (4, 8), (7, 8)])


@pytest.mark.parametrize("check", [
    check_markov,
    check_adjacency_faithfulness,
    check_orientation_faithfulness,
    check_restricted_faithfulness,
    check_triangle_faithfulness,
    check_sgs_minimality,
])
def test_triple_scans_hold_on_a_faithful_oracle_at_the_search_cap(check):
    assert check(SPARSE9, dsep_backend(SPARSE9)).holds


class TestFaithfulnessFamily:
    def test_separation_oracle_satisfies_all(self):
        for g in random_dag_pool(302, 10, p_values=(3, 4)):
            ci = dsep_backend(g)
            assert check_adjacency_faithfulness(g, ci).holds
            assert check_orientation_faithfulness(g, ci).holds
            assert check_restricted_faithfulness(g, ci).holds
            assert check_triangle_faithfulness(g, ci).holds

    def test_edge_cancellation_breaks_adjacency(self):
        rep = check_adjacency_faithfulness(FOUR_CYCLE, edge_cancellation_backend())
        assert not rep.holds
        assert rep.witnesses[0].subject == (0, 1, frozenset({3}))
        assert check_orientation_faithfulness(
            FOUR_CYCLE, edge_cancellation_backend()
        ).holds

    def test_marginal_cancellation_breaks_adjacency(self):
        rep = check_adjacency_faithfulness(FOUR_CYCLE, marginal_cancellation_backend())
        assert not rep.holds
        assert (0, 3, frozenset()) in {w.subject for w in rep.witnesses}

    def test_missed_independence_keeps_restricted(self):
        # the hidden dependence sits on a pair that is neither an edge nor
        # an unshielded-triple span, so the restricted scan cannot see it
        ci = missed_independence_backend()
        assert check_adjacency_faithfulness(CHAIN4, ci).holds
        assert check_orientation_faithfulness(CHAIN4, ci).holds
        assert check_restricted_faithfulness(CHAIN4, ci).holds

    def test_restricted_merges_witnesses(self):
        ci = explicit_backend(3, list(iter_triples(3)))
        g = Dag(3, [(0, 2), (1, 2)])
        rep = check_restricted_faithfulness(g, ci)
        assert not rep.holds
        adj = check_adjacency_faithfulness(g, ci)
        ori = check_orientation_faithfulness(g, ci)
        assert rep.total_violations == adj.total_violations + ori.total_violations


class TestTriangleFaithfulness:
    def test_triangle_free_is_vacuous(self):
        ci = marginal_cancellation_backend()  # unfaithful, but no triangles
        assert check_triangle_faithfulness(FOUR_CYCLE, ci).holds
        assert check_triangle_faithfulness(CHAIN4, missed_independence_backend()).holds

    def test_unfaithful_triangle_detected(self):
        g = Dag(3, [(0, 1), (0, 2), (1, 2)])
        ci = explicit_backend(3, [(0, 1, frozenset())])
        rep = check_triangle_faithfulness(g, ci)
        assert not rep.holds
        assert rep.witnesses[0].subject == (0, 1, frozenset())


class TestSgsMinimality:
    def test_ordering_dags_are_minimal_for_realizable_backends(self):
        # the per-ordering construction bakes minimality in, provided the
        # CI set could come from an actual distribution
        backends = [
            edge_cancellation_backend(),
            marginal_cancellation_backend(),
        ] + [dsep_backend(g) for g in random_dag_pool(318, 6, p_values=(4,))]
        for ci in backends:
            for perm in itertools.permutations(range(ci.p)):
                g = build_dag_for_permutation(perm, ci)
                assert check_sgs_minimality(g, ci).holds

    def test_type_one_error_sets_can_break_the_guarantee(self):
        # a CI set with one deleted independence is not closed under the
        # contraction axiom, and some ordering DAG fails to be Markov
        ci = missed_independence_backend()
        bad = [
            perm
            for perm in itertools.permutations(range(4))
            if not check_sgs_minimality(build_dag_for_permutation(perm, ci), ci).holds
        ]
        assert bad  # the guarantee genuinely needs distribution axioms

    def test_extra_edge_fails(self):
        g = CHAIN3
        fat = g.with_edge(0, 2)
        ci = dsep_backend(g)
        rep = check_sgs_minimality(fat, ci)
        assert not rep.holds
        assert rep.witnesses[0].subject == (0, 2)

    def test_empty_graph_vacuously_minimal(self):
        ci = explicit_backend(3, list(iter_triples(3)))
        assert check_sgs_minimality(Dag(3), ci).holds

    def test_single_deletion_matches_full_subdag_scan(self):
        # deleting one edge is enough: separations only grow under
        # deletion, so any Markov proper sub-DAG forces some one-edge
        # deletion to stay Markov
        def markov_holds(g, ci):
            return all(
                ci.is_independent(j, k, s) for j, k, s in d_separation_set(g)
            )

        for g, ci in perturbed_backends(303, 12, flips=3):
            edges = sorted(g.edges)
            any_subdag_markov = False
            for r in range(len(edges)):
                for keep in itertools.combinations(edges, r):
                    if markov_holds(Dag(g.p, keep), ci):
                        any_subdag_markov = True
                        break
                if any_subdag_markov:
                    break
            rep = check_sgs_minimality(g, ci)
            if not markov_holds(g, ci):
                assert not rep.holds
            else:
                assert rep.holds == (not any_subdag_markov)


class TestSmr:
    def test_edge_cancellation_holds(self):
        assert check_smr(FOUR_CYCLE, edge_cancellation_backend()).holds

    def test_marginal_cancellation_fails_with_rival(self):
        rep = check_smr(FOUR_CYCLE, marginal_cancellation_backend())
        assert not rep.holds
        assert rep.total_violations == 1
        rival = rep.witnesses[0].subject
        assert rival.edges == frozenset({(0, 1), (0, 2), (2, 1), (3, 2)})
        assert not markov_equivalent(rival, FOUR_CYCLE)

    def test_faithful_oracles_hold(self):
        pool = random_dag_pool(304, 40, p_values=(3, 4)) + random_dag_pool(
            305, 5, p_values=(5,)
        )
        for g in pool:
            assert check_smr(g, dsep_backend(g)).holds

    def test_capacity(self):
        with pytest.raises(CapacityError):
            check_smr(Dag(6), explicit_backend(6, []))


class TestPMinimality:
    def test_gap_to_smr_on_marginal_cancellation(self):
        # the known wedge: the same instance passes here yet fails the
        # sparsity form
        ci = marginal_cancellation_backend()
        assert check_p_minimality(FOUR_CYCLE, ci).holds
        assert not check_smr(FOUR_CYCLE, ci).holds

    def test_five_edge_graph_is_preference_minimal(self):
        ci = edge_cancellation_backend()
        assert check_markov(THM4B_DAG, ci).holds
        assert check_p_minimality(THM4B_DAG, ci).holds
        assert not markov_equivalent(THM4B_DAG, FOUR_CYCLE)
        # sparsity still rejects it: the 4-cycle class is strictly smaller
        assert not check_smr(THM4B_DAG, ci).holds

    def test_faithful_oracles_hold(self):
        for g in random_dag_pool(306, 20, p_values=(3, 4)):
            assert check_p_minimality(g, dsep_backend(g)).holds

    def test_failing_sgs_minimality_fails_here_too(self):
        # preference-minimality is the stronger of the two requirements
        found = 0
        for g, ci in perturbed_backends(307, 15, flips=1):
            markov = check_markov(g, ci).holds
            if not markov:
                continue
            if not check_sgs_minimality(g, ci).holds:
                found += 1
                assert not check_p_minimality(g, ci).holds
        for g in random_dag_pool(308, 5, p_values=(3, 4)):
            fat = None
            for j in range(g.p):
                for k in range(j + 1, g.p):
                    if not g.adjacent(j, k):
                        try:
                            fat = g.with_edge(j, k)
                        except ValueError:
                            continue
                        break
                if fat is not None:
                    break
            if fat is None:
                continue
            ci = dsep_backend(g)
            assert not check_sgs_minimality(fat, ci).holds
            assert not check_p_minimality(fat, ci).holds
            found += 1
        assert found >= 3


class TestLambdaStrongSmr:
    @staticmethod
    def correlation_extremes(sigma):
        vals = []
        p = sigma.p
        for j in range(p):
            for k in range(j + 1, p):
                rest = [v for v in range(p) if v not in (j, k)]
                for size in range(len(rest) + 1):
                    for s in itertools.combinations(rest, size):
                        vals.append(abs(partial_correlation(sigma, j, k, s)))
        vals = np.asarray(vals)
        nonzero = vals[vals > 1e-9]
        return nonzero.min(), vals.max()

    def test_small_threshold_behaves_like_exact(self):
        for sem in random_sem_pool(309, 5, p_values=(3, 4)):
            sigma = covariance_of(sem)
            lo, _ = self.correlation_extremes(sigma)
            assert check_lambda_strong_smr(sem.dag, sigma, lo / 2).holds

    def test_huge_threshold_fails(self):
        sem = random_sem_pool(310, 1, p_values=(4,))[0]
        sigma = covariance_of(sem)
        _, hi = self.correlation_extremes(sigma)
        lam = (1.0 + hi) / 2
        rep = check_lambda_strong_smr(sem.dag, sigma, lam)
        assert not rep.holds

    def test_failure_is_monotone_in_lambda(self):
        for sem in random_sem_pool(311, 3, p_values=(4,)):
            sigma = covariance_of(sem)
            lo, hi = self.correlation_extremes(sigma)
            grid = np.linspace(lo / 2, (1.0 + hi) / 2, 6)
            verdicts = [
                check_lambda_strong_smr(sem.dag, sigma, float(lam)).holds
                for lam in grid
            ]
            assert verdicts[0] and not verdicts[-1]
            seen_false = False
            for v in verdicts:
                if not v:
                    seen_false = True
                assert not (seen_false and v)


class TestTheoremLandscape:
    def test_restricted_faithfulness_implies_smr(self):
        cases = [
            (FOUR_CYCLE, edge_cancellation_backend()),
            (FOUR_CYCLE, marginal_cancellation_backend()),
            (CHAIN4, missed_independence_backend()),
        ]
        cases += [(g, dsep_backend(g)) for g in random_dag_pool(312, 20, p_values=(3, 4))]
        cases += [(g, ci) for g, ci in perturbed_backends(313, 10)]
        nonvacuous = 0
        for g, ci in cases:
            if check_markov(g, ci).holds and check_restricted_faithfulness(g, ci).holds:
                nonvacuous += 1
                assert check_smr(g, ci).holds
        assert nonvacuous >= 20

    def test_smr_implies_p_minimality(self):
        cases = [
            (FOUR_CYCLE, edge_cancellation_backend()),
            (FOUR_CYCLE, marginal_cancellation_backend()),
            (THM4B_DAG, edge_cancellation_backend()),
        ]
        cases += [(g, ci) for g, ci in perturbed_backends(314, 12, flips=2)]
        nonvacuous = 0
        for g, ci in cases:
            if check_smr(g, ci).holds:
                nonvacuous += 1
                assert check_p_minimality(g, ci).holds
        assert nonvacuous >= 3

    def test_smr_decides_search_success(self):
        # sparsity assumption holds exactly when the scan lands on the
        # single true class
        cases = [
            (FOUR_CYCLE, edge_cancellation_backend()),
            (FOUR_CYCLE, marginal_cancellation_backend()),
            (CHAIN4, missed_independence_backend()),
        ]
        cases += [(g, dsep_backend(g)) for g in random_dag_pool(315, 10, p_values=(3, 4))]
        for g, ci in cases:
            smr = check_smr(g, ci).holds
            r = sp_search(ci)
            recovered = r.unique_class and next(iter(r.classes)) == pattern_of(g)
            assert smr == recovered

    def test_single_path_cancellation_failures_are_detectable(self):
        # triangle-free truth plus one cancelled path: when the scan
        # fails it still matches the true edge count and keeps the true
        # class among its answers
        ci = marginal_cancellation_backend()
        r = sp_search(ci)
        assert not r.unique_class  # this is a failure instance
        assert r.min_edges == FOUR_CYCLE.num_edges
        assert pattern_of(FOUR_CYCLE) in r.classes

    def test_skeleton_recovery_transfers_to_search(self):
        # whenever the full-sweep skeleton matches the truth and some
        # ordering stays within the true edge budget, every minimal DAG
        # has the true skeleton
        cases = [(g, ci) for g, ci in perturbed_backends(316, 20, flips=1)]
        cases += [(g, dsep_backend(g)) for g in random_dag_pool(317, 10, p_values=(3, 4))]
        nonvacuous = 0
        for g, ci in cases:
            sgs_sk, _ = sgs_skeleton(ci)
            if sgs_sk != skeleton(g):
                continue
            r = sp_search(ci)
            if r.min_edges > g.num_edges:
                continue
            nonvacuous += 1
            for w in r.winners:
                assert skeleton(w) == skeleton(g)
        assert nonvacuous >= 10


class TestDSeparationSet:
    def test_chain_matches_frozen_list(self):
        assert d_separation_set(CHAIN4) == CHAIN4_DSEPS

    def test_cycle_matches_frozen_list(self):
        assert d_separation_set(FOUR_CYCLE) == frozenset(
            {(0, 2, frozenset({1})), (1, 3, frozenset({0, 2}))}
        )


@functools.lru_cache(maxsize=None)
def brute_dags(p):
    """Every DAG on p vertices with its separations, both found by brute force."""
    graphs = [Dag(p, edges) for edges in sorted(all_dags_brute(p), key=sorted)]
    return {g: d_separation_set_brute(g) for g in graphs}


def brute_cases(seed, count):
    """(graph, backend, independent set) on p <= 4 from hand-listed triples.

    Each checks a random DAG: even cases list its separations with up to
    two triples toggled, odd cases a random half of all triples, against
    which the DAG is mostly not Markov.
    """
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        p = 2 + i % 3
        dags = list(brute_dags(p))
        triples = [
            (j, k, frozenset(s))
            for j, k in itertools.combinations(range(p), 2)
            for n in range(p - 1)
            for s in itertools.combinations(sorted(set(range(p)) - {j, k}), n)
        ]
        g = dags[rng.integers(len(dags))]
        if i % 2 == 0:
            indep = set(brute_dags(p)[g])
            for _ in range(rng.integers(3)):
                indep ^= {triples[rng.integers(len(triples))]}
        else:
            indep = {t for t in triples if rng.random() < 0.5}
        out.append((g, explicit_backend(p, indep), frozenset(indep)))
    return out


def brute_pairs_independent(pairs, indep):
    """(a, b, S), a < b, for each listed pair and each S under which it is independent."""
    return {(j, k, s) for j, k, s in indep if (j, k) in pairs}


@pytest.fixture(scope="module")
def cases():
    return brute_cases(330, 36)


class TestAgainstBruteForceDefinitions:
    """Each checker against its definition, evaluated on brute-force DAGs and separations."""

    def test_markov_is_containment_of_separations(self, cases):
        for g, ci, indep in cases:
            missing = brute_dags(g.p)[g] - indep
            rep = check_markov(g, ci)
            assert rep.holds == (not missing)
            assert rep.total_violations == len(missing)

    def test_smr_counts_markov_rivals_outside_the_class(self, cases):
        for g, ci, indep in cases:
            seps = brute_dags(g.p)
            if not seps[g] <= indep:
                want = len(seps[g] - indep)  # g's own Markov violations come first
            else:
                want = sum(
                    1
                    for h, h_seps in seps.items()
                    if h_seps <= indep
                    and h.num_edges <= g.num_edges
                    and pattern_by_triples(h) != pattern_by_triples(g)
                )
            assert check_smr(g, ci).total_violations == want

    def test_p_minimality_counts_markov_dags_with_more_separations(self, cases):
        for g, ci, indep in cases:
            seps = brute_dags(g.p)
            if not seps[g] <= indep:
                want = len(seps[g] - indep)
            else:
                want = sum(1 for h_seps in seps.values() if h_seps <= indep and h_seps > seps[g])
            assert check_p_minimality(g, ci).total_violations == want

    def test_sgs_minimality_counts_removable_edges(self, cases):
        for g, ci, indep in cases:
            seps = brute_dags(g.p)
            if not seps[g] <= indep:
                want = len(seps[g] - indep)
            else:
                want = sum(1 for e in g.edges if seps[Dag(g.p, g.edges - {e})] <= indep)
            assert check_sgs_minimality(g, ci).total_violations == want

    def test_faithfulness_family_against_its_pairs(self, cases):
        for g, ci, indep in cases:
            edges = {(min(e), max(e)) for e in g.edges}
            # of three vertices, pairs in a triangle have all three pairs
            # adjacent; a pair spans an unshielded triple when the other two are
            spans, in_triangle = set(), set()
            for t in itertools.combinations(range(g.p), 3):
                pairs = set(itertools.combinations(t, 2))
                present = pairs & edges
                if len(present) == 3:
                    in_triangle |= pairs
                elif len(present) == 2:
                    spans |= pairs - present
            adj = check_adjacency_faithfulness(g, ci)
            tri = check_triangle_faithfulness(g, ci)
            ori = check_orientation_faithfulness(g, ci)
            adjacency_witnesses = brute_pairs_independent(edges, indep)
            assert adj.total_violations == len(adjacency_witnesses)
            assert tri.total_violations == len(brute_pairs_independent(in_triangle, indep))
            connected = brute_pairs_independent(spans, indep) - brute_dags(g.p)[g]
            assert ori.total_violations == len(connected)
            assert {w.subject for w in tri.witnesses} <= adjacency_witnesses
            restricted = check_restricted_faithfulness(g, ci)
            assert restricted.total_violations == adj.total_violations + ori.total_violations
            assert restricted.witnesses == (adj.witnesses + ori.witnesses)[:MAX_WITNESSES]
