"""Tests for the sparsest-ordering search and its Cholesky variant."""

import itertools
import math
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spdag.assumptions import check_markov
from spdag.baselines import pc_skeleton, sgs_skeleton
from spdag.exceptions import CapacityError, NumericalError
from spdag.graph import (
    CycleError,
    Dag,
    d_separated,
    enumerate_all_dags,
    pattern_of,
    skeleton,
    topological_orders,
)
from spdag.oracle import (
    CovarianceMatrix,
    PartialCorrelationBackend,
    TestConfig,
    caching_wrapper,
    dsep_backend,
    explicit_backend,
    fisher_z_backend,
    gaussian_exact_backend,
    iter_triples,
    lambda_backend,
    partial_correlation,
)
from spdag.sem import GenConfig, LinearSem, covariance_of, precision_of, random_sem, sample
from spdag.sp import (
    CHOL_TOL,
    SpResult,
    _sparsest,
    build_dag_for_permutation,
    sp_search,
    sp_search_cholesky,
)

from corpus import (
    CHAIN4,
    FOUR_CYCLE,
    edge_cancellation_backend,
    edge_cancellation_sem,
    marginal_cancellation_backend,
    missed_independence_backend,
    random_dag_pool,
    random_sem_pool,
)
from reference import (
    l0_optimal_masks,
    sparsest_by_orderings,
    log_residual_variances,
    pattern_by_triples,
    permuted_precision,
    profile_score,
    upper_cholesky,
)

# log-variance gaps at most this far apart tie in the exact score DP
L0_TIE_TOL = 1e-12


def mask_of(g):
    """The edge mask of g: bit j*p + k for each edge j -> k."""
    return sum(1 << (j * g.p + k) for j, k in g.edges)


def brute_force_scan(ci, shuffle_seed=None):
    """Reference: score every permutation directly, no pruning."""
    perms = list(itertools.permutations(range(ci.p)))
    if shuffle_seed is not None:
        np.random.default_rng(shuffle_seed).shuffle(perms)
    best, winners = None, set()
    for perm in perms:
        g = build_dag_for_permutation(perm, ci)
        if best is None or g.num_edges < best:
            best, winners = g.num_edges, {g}
        elif g.num_edges == best:
            winners.add(g)
    return SpResult(ci.p, frozenset(mask_of(g) for g in winners))


def complete_sem(p, seed):
    """A linear model on the complete DAG 0 -> 1 -> ... -> p-1 with random weights."""
    rng = np.random.default_rng(seed)
    edges = list(itertools.combinations(range(p), 2))
    weights = {e: rng.uniform(0.25, 1.0) * rng.choice((-1.0, 1.0)) for e in edges}
    return LinearSem(Dag(p, edges), weights)


def random_explicit_backends(seed, count, p=4, density=0.3):
    rng = np.random.default_rng(seed)
    triples = list(iter_triples(p))
    out = []
    for _ in range(count):
        out.append(explicit_backend(p, [t for t in triples if rng.random() < density]))
    return out


class QueryOnly:
    """Exposes only p and is_independent, so sp_search asks query by query."""

    def __init__(self, inner):
        self._inner = inner

    @property
    def p(self):
        return self._inner.p

    def is_independent(self, j, k, s=()):
        return self._inner.is_independent(j, k, s)


class TestBuildDag:
    def test_edge_cancellation_order(self):
        # placing vertex 3 second keeps five edges: the 0->1 edge is the
        # only one the cancellation removes, and it needs 3 in the prefix
        g = build_dag_for_permutation((0, 3, 1, 2), edge_cancellation_backend())
        assert g.edges == frozenset({(0, 2), (0, 3), (1, 2), (3, 1), (3, 2)})

    def test_marginal_cancellation_order(self):
        g = build_dag_for_permutation((0, 3, 2, 1), marginal_cancellation_backend())
        assert g.edges == frozenset({(0, 1), (0, 2), (2, 1), (3, 2)})

    def test_identity_on_chain(self):
        ci = dsep_backend(CHAIN4)
        g = build_dag_for_permutation((0, 1, 2, 3), ci)
        assert g == CHAIN4

    def test_consistent_orders_never_beat_the_source(self):
        # along any topological order of the source graph, the induced
        # DAG stays within the source's skeleton and edge budget
        for g_star in random_dag_pool(31, 20, p_values=(3, 4)):
            ci = dsep_backend(g_star)
            for pi in topological_orders(g_star):
                g = build_dag_for_permutation(pi, ci)
                assert g.num_edges <= g_star.num_edges
                assert skeleton(g) <= skeleton(g_star)

    def test_accepts_raw_sequences(self):
        ci = dsep_backend(CHAIN4)
        want = build_dag_for_permutation((3, 2, 1, 0), ci)
        assert build_dag_for_permutation([3, 2, 1, 0], ci) == want
        assert build_dag_for_permutation(np.array([3, 2, 1, 0]), ci) == want
        assert build_dag_for_permutation(range(3, -1, -1), ci) == want

    @pytest.mark.parametrize(
        "pi", [(0, 1, 2), (0, 1, 2, 3, 4), (0, 1, 1, 3), (0, 1, 2, 4), (-1, 0, 1, 2)],
        ids=["short", "long", "repeated", "out-of-range", "negative"],
    )
    def test_rejects_non_permutations(self, pi):
        with pytest.raises(ValueError, match="not a permutation of 0..3"):
            build_dag_for_permutation(pi, dsep_backend(CHAIN4))


def dp_classes_against_the_checked_constructor(p, route, share, seed):
    """Search a random model and check the classes the DP built; returns the result.

    The search groups winners by class during its forward walk and trusts
    them: pattern_of runs once per class and no winner goes through the
    cycle check. The checked constructor, which classes every winner's
    Dag with pattern_of, is the oracle.
    """
    rng = np.random.default_rng(seed)
    if p > 1:
        sigma = covariance_of(random_sem(GenConfig(p, share * (p - 1)), rng))
    else:
        sigma = np.eye(1)
    search = {
        "gaussian": lambda: sp_search(gaussian_exact_backend(sigma)),
        "lambda": lambda: sp_search(lambda_backend(sigma, rng.uniform(0.05, 0.4))),
        "explicit": lambda: sp_search(
            random_explicit_backends(seed, 1, p=p, density=share * 0.9)[0]),
        "cholesky": lambda: sp_search_cholesky(sigma),
    }[route]
    check = mock.Mock(side_effect=AssertionError("the search cycle-checked a winner"))
    with mock.patch("spdag.sp.pattern_of", wraps=pattern_of) as spy, \
            mock.patch("spdag.graph._reach_with", check):
        r = search()
    assert spy.call_count == len(r.classes)
    # the checked constructor also rejects cycles and unequal edge counts
    assert r.classes == SpResult(p, r.masks).classes
    return r


class TestSpSearch:
    def test_matches_brute_force_on_random_backends(self):
        for i, ci in enumerate(random_explicit_backends(71, 12)):
            want = brute_force_scan(ci, shuffle_seed=i)
            got = sp_search(ci)
            assert got == want

    @settings(max_examples=40, deadline=None, database=None, derandomize=True)
    @given(
        p=st.integers(2, 6),
        density=st.sampled_from((0.1, 0.3, 0.6, 0.9)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_brute_force_up_to_six_vertices(self, p, density, seed):
        ci = random_explicit_backends(seed, 1, p=p, density=density)[0]
        want = brute_force_scan(ci)
        got = sp_search(ci)
        assert got.min_edges == want.min_edges
        assert got.winners == want.winners

    @settings(max_examples=80, deadline=None, database=None, derandomize=True)
    @given(
        p=st.sampled_from(range(8)),
        fill=st.sampled_from(("empty", "full", "ties", 0.15, 0.5, 0.85)),
        symmetric=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_the_dp_finds_what_scanning_every_ordering_finds(self, p, fill, symmetric, seed):
        # A random table of parent sets, each entry a subset of T - {k}:
        # all empty or all full (every ordering optimal), one popcount per
        # prefix size (every ordering ties on cost), or each parent drawn
        # with a chance. A symmetric table, where j is in k's entry iff k
        # is in j's, is a set of independence answers, so it also runs
        # through sp_search on an explicit backend, which fills the table
        # by queries.
        rng = np.random.default_rng(seed)
        symmetric &= fill != "ties"
        chance = {"empty": 0.0, "full": 1.0}.get(fill, fill)
        count = rng.integers(0, np.arange(1, p + 1))  # the parents of each step from size s
        table = np.zeros(p << p, dtype=np.int64)
        for t in range(1 << p):
            members = [v for v in range(p) if t >> v & 1]
            for k in members:
                rest = [j for j in members if j != k]
                if fill == "ties":
                    chosen = rng.choice(rest, count[len(rest)], replace=False)
                else:
                    chosen = [j for j in rest if (j < k or not symmetric) and rng.random() < chance]
                for j in chosen:
                    table[t * p + k] |= 1 << int(j)
                    if symmetric:
                        table[t * p + j] |= 1 << k
        want = SpResult(p, sparsest_by_orderings(p, table))
        results = [_sparsest(p, table)]
        if symmetric:
            results.append(sp_search(explicit_backend(p, [
                (j, k, [v for v in range(p) if t >> v & 1 and v not in (j, k)])
                for t in range(1 << p) for k in range(p) for j in range(k)
                if t >> j & 1 and t >> k & 1 and not table[t * p + k] >> j & 1])))
        for got in results:
            assert got.min_edges == want.min_edges
            assert got.masks == want.masks
            assert got.classes == want.classes

    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(
        p=st.sampled_from(range(1, 8)),
        route=st.sampled_from(("gaussian", "lambda", "explicit", "cholesky")),
        share=st.sampled_from((0.25, 0.5, 1.0)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_dp_classes_match_the_checked_constructor(self, p, route, share, seed):
        dp_classes_against_the_checked_constructor(p, route, share, seed)

    # At p = 8 and 9 the edge masks pass 64 bits and collider bits reach
    # p**3. Each of these models has v-structures and few enough winners
    # for the checked constructor; in the last three, classes share a
    # skeleton, so only the collider bits of the class keys part them.
    @pytest.mark.parametrize("p, route, share, seed", [
        (8, "explicit", 0.5, 3), (8, "explicit", 0.25, 0), (8, "gaussian", 0.5, 1),
        (9, "explicit", 0.25, 2), (9, "gaussian", 0.5, 0), (9, "gaussian", 0.5, 2),
        (8, "explicit", 0.5, 21), (9, "explicit", 0.25, 12), (9, "explicit", 0.5, 15),
    ])
    def test_dp_classes_match_the_checked_constructor_at_eight_and_nine(
        self, p, route, share, seed
    ):
        r = dp_classes_against_the_checked_constructor(p, route, share, seed)
        assert any(c.v_structures for c in r.classes)

    def test_issues_each_distinct_query_once(self):
        # the prefix DP asks about every pair (j, k) given every subset of
        # the other p - 2 vertices, and about nothing else
        for p in range(2, 10):
            ci = caching_wrapper(dsep_backend(Dag(p, [(v, v + 1) for v in range(p - 1)])))
            sp_search(ci)
            assert ci.cache_size == math.comb(p, 2) * 2 ** (p - 2)
        assert ci.cache_size == 4608

    def test_asks_a_bare_backend_each_query_once(self):
        # without a cache in front, each of the C(p, 2) * 2^(p-2) queries
        # still reaches the backend once: one answer fills both ends' entries
        class Counting(QueryOnly):
            def __init__(self, inner):
                super().__init__(inner)
                self.asked = Counter()

            def is_independent(self, j, k, s=()):
                self.asked[min(j, k), max(j, k), frozenset(s)] += 1
                return super().is_independent(j, k, s)

        for p in range(2, 10):
            g = Dag(p, [(v, v + 1) for v in range(p - 1)])
            ci = Counting(dsep_backend(g))
            assert sp_search(ci).classes == {pattern_of(g)}
            assert len(ci.asked) == math.comb(p, 2) * 2 ** (p - 2)
            assert set(ci.asked.values()) == {1}

    def test_edge_cancellation_recovers_cycle_class(self):
        r = sp_search(edge_cancellation_backend())
        assert r.min_edges == 4
        assert r.unique_class
        assert r.classes == frozenset({pattern_of(FOUR_CYCLE)})
        assert len(r.winners) == 3
        assert r.permutations_scanned == 24

    def test_marginal_cancellation_splits_classes(self):
        r = sp_search(marginal_cancellation_backend())
        assert r.min_edges == 4
        assert not r.unique_class
        assert len(r.classes) == 2
        assert pattern_of(FOUR_CYCLE) in r.classes
        for g in r.winners:
            assert g.num_edges == 4

    def test_missed_independence_overshoots(self):
        # the backend hides one independence of a 3-edge chain, and no
        # ordering gets back under 4 edges
        r = sp_search(missed_independence_backend())
        assert r.min_edges == 4 > CHAIN4.num_edges

    def test_separation_oracles_recover_the_class(self):
        for g_star in random_dag_pool(902, 100, p_values=(3, 4, 5, 6)):
            r = sp_search(dsep_backend(g_star))
            assert r.min_edges == g_star.num_edges
            assert r.unique_class
            assert next(iter(r.classes)) == pattern_of(g_star)
            assert g_star in r.winners

    def test_every_induced_dag_is_markov_and_minimal(self):
        # each winner candidate G_pi satisfies: every separation it
        # encodes holds in the backend, and dropping any single edge
        # breaks that
        def is_markov(g, ci):
            for j in range(g.p):
                for k in range(j + 1, g.p):
                    for s_mask in range(1 << g.p):
                        if s_mask >> j & 1 or s_mask >> k & 1:
                            continue
                        s = [v for v in range(g.p) if s_mask >> v & 1]
                        if d_separated(g, j, k, s) and not ci.is_independent(j, k, s):
                            return False
            return True

        for g_star in random_dag_pool(903, 12, p_values=(3, 4)):
            ci = dsep_backend(g_star)
            for perm in itertools.permutations(range(g_star.p)):
                g = build_dag_for_permutation(perm, ci)
                assert is_markov(g, ci)
                for j, k in g.edges:
                    assert not is_markov(g.without_edge(j, k), ci)

    def test_capacity_error_names_the_flag(self):
        ci = explicit_backend(10, [])
        with pytest.raises(CapacityError, match=r"2\^10 = 1024 prefix sets; raise --max-p"):
            sp_search(ci)
        r = sp_search(explicit_backend(3, []), max_p=3)
        assert r.min_edges == 3  # complete graph: nothing is independent

    def test_no_cap_lifts_the_ceiling(self):
        # past MAX_P_CEILING both routes refuse before building anything
        with pytest.raises(CapacityError, match=r"p=17 exceeds the ceiling of 16 vertices"):
            sp_search(explicit_backend(17, []), max_p=17)
        with pytest.raises(CapacityError, match=r"p=17 exceeds the ceiling of 16 vertices"):
            sp_search_cholesky(np.eye(17), max_p=100)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_both_routes_recover_sparse_models_above_the_default_cap(self, seed):
        sem = random_sem(GenConfig(p=12, expected_nbhd=2.0), np.random.default_rng(seed))
        sigma = covariance_of(sem)
        by_queries = sp_search(gaussian_exact_backend(sigma), max_p=12)
        by_fill = sp_search_cholesky(sigma, max_p=12)
        assert by_queries.masks == by_fill.masks
        assert by_queries.classes == {pattern_of(sem.dag)}

    def test_result_invariants_enforced(self):
        with pytest.raises(ValueError, match="at least one winner"):
            SpResult(3, frozenset())
        with pytest.raises(ValueError, match="edge count"):
            SpResult(3, frozenset({mask_of(Dag(3, [(0, 1)])), mask_of(Dag(3, [(0, 1), (1, 2)]))}))
        with pytest.raises(CycleError):
            SpResult(2, frozenset({1 << 0 * 2 + 1 | 1 << 1 * 2 + 0}))  # 0 -> 1 -> 0
        with pytest.raises(CycleError):
            SpResult(3, frozenset({1 << 1 * 3 + 1}))  # self loop at 1
        with pytest.raises(ValueError, match="out of range"):
            SpResult(2, frozenset({1 << 4}))
        r = SpResult(3, frozenset({mask_of(Dag(3, [(0, 1)])), mask_of(Dag(3, [(1, 2)]))}))
        assert r.min_edges == 1
        assert r.winners == {Dag(3, [(0, 1)]), Dag(3, [(1, 2)])}
        assert r.classes == {pattern_of(g) for g in r.winners}
        assert r.unique_class is False
        assert r.permutations_scanned == 6
        assert r == SpResult(3, r.masks)
        # the empty graph's mask is 0 for every p
        assert SpResult(3, frozenset({0})) != SpResult(4, frozenset({0}))

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(p=st.integers(1, 7), data=st.data())
    def test_mask_patterns_match_the_reference(self, p, data):
        # Orient one random skeleton by several random orderings: the graphs
        # share an edge count, and the result's classes are the reference
        # patterns of the graphs.
        pairs = list(itertools.combinations(range(p), 2))
        chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
        orders = data.draw(st.lists(st.permutations(range(p)), min_size=1, max_size=6))
        dags = set()
        for order in orders:
            pos = {v: i for i, v in enumerate(order)}
            dags.add(Dag(p, [(j, k) if pos[j] < pos[k] else (k, j) for j, k in chosen]))
        for g in dags:
            assert pattern_of(g) == pattern_by_triples(g)
        r = SpResult(p, frozenset(mask_of(g) for g in dags))
        assert r.classes == {pattern_by_triples(g) for g in dags}
        assert r.winners == dags
        for w in r.winners:  # built from masks, unchecked: same adjacency as checked
            g = Dag(p, w.edges)
            assert all(w.parents(v) == g.parents(v) and w.children(v) == g.children(v)
                       for v in range(p))

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(
        p=st.integers(2, 4),
        share=st.sampled_from((0.34, 0.67, 1.0)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_winners_minimize_the_l0_penalized_score(self, p, share, seed):
        # The abstract's l0 claim on exact data: the winners are the DAGs
        # minimizing the profile score plus lam times the edge count. Every
        # Markov DAG scores log det sigma and every other DAG more, so any
        # lam too small to trade all edges for the smallest such gap works.
        sigma = covariance_of(random_sem(GenConfig(p, share * (p - 1)), np.random.default_rng(seed)))
        ci = gaussian_exact_backend(sigma)
        log_det = np.linalg.slogdet(sigma)[1]
        dags = list(enumerate_all_dags(p))
        gaps = [profile_score(g, sigma) - log_det for g in dags]
        markov = [check_markov(g, ci).holds for g in dags]
        assert max(abs(gap) for gap, m in zip(gaps, markov) if m) < 1e-9
        smallest = min((gap for gap, m in zip(gaps, markov) if not m), default=1.0)
        assert smallest > 1e-9
        lam = smallest / (math.comb(p, 2) + 1)
        scores = [gap + lam * g.num_edges for gap, g in zip(gaps, dags)]
        low = min(scores)
        assert sp_search(ci).masks == {mask_of(g) for g, s in zip(dags, scores) if s < low + lam / 2}

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(p=st.integers(5, 8), share=st.sampled_from((0.2, 0.4, 0.6, 0.8, 1.0)),
           seed=st.integers(0, 2**32 - 1))
    @example(p=8, share=1.0, seed=0)
    @example(p=8, share=0.8, seed=1)
    @example(p=8, share=0.6, seed=2)
    def test_winners_are_the_l0_optimum_of_the_exact_score_dp(self, p, share, seed):
        # The abstract's l0 claim past brute force: on exact data both
        # routes' winners are every DAG that the exact score DP finds
        # optimal at a vanishing penalty. The DP ties log-variance gaps
        # within L0_TIE_TOL, so each model first shows that the gaps its
        # true graph makes zero lie within it and all others above it;
        # otherwise the test would measure the tolerance, not the claim.
        # A positive gap between parent sets P within S is at least the
        # gap of adding one vertex v of S - P, which is zero exactly when
        # k and v are d-separated given P, so single vertices suffice.
        sem = random_sem(GenConfig(p, share * (p - 1)), np.random.default_rng(seed))
        sigma = covariance_of(sem)
        score = log_residual_variances(sigma)
        zero, positive = [], []
        for (k, s), own in score.items():
            for v in range(p):
                if v != k and not s >> v & 1:
                    given_s = [u for u in range(p) if s >> u & 1]
                    gap = own - score[k, s | 1 << v]
                    (zero if d_separated(sem.dag, k, v, given_s) else positive).append(gap)
        assert max(map(abs, zero), default=0.0) <= L0_TIE_TOL < min(positive)
        optimal = l0_optimal_masks(sigma, L0_TIE_TOL)
        assert sp_search(gaussian_exact_backend(sigma)).masks == optimal
        assert sp_search_cholesky(sigma).masks == optimal

    @pytest.mark.parametrize("p", range(2, 8))
    def test_complete_dag_has_every_ordering_as_a_winner(self, p):
        sigma = covariance_of(complete_sem(p, seed=p))
        for r in (sp_search(gaussian_exact_backend(sigma)), sp_search_cholesky(sigma)):
            assert len(r.masks) == math.factorial(p)
            assert r.min_edges == math.comb(p, 2)
            assert r.unique_class
            ordered = [sorted(g.edges) for g in r.ordered_winners()]
            assert ordered == sorted(sorted(g.edges) for g in r.winners)


class TestSubsetTable:
    @settings(max_examples=25, deadline=None, database=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), p=st.integers(2, 7))
    def test_rows_match_the_query_path(self, seed, p):
        # Random SPD matrices and samples in random units: the flat table of
        # parent masks, and the search reading it bare or behind a cache,
        # find the parent masks the query path finds, and so does the
        # Cholesky route.
        rng = np.random.default_rng(seed)
        units = 10.0 ** rng.uniform(-3, 3, p)
        mix = np.where(rng.random((p, p)) < 0.4, rng.standard_normal((p, p)), 0.0)
        mix += np.eye(p)
        spd = mix @ mix.T * np.outer(units, units)
        # few rows, so that sqrt(n - |S| - 3) moves with |S|
        x = rng.standard_normal((p + 4 + int(rng.integers(0, 20)), p)) @ mix.T * units
        sem = random_sem(GenConfig(p=p, expected_nbhd=min(2.0, p - 1)), rng)
        sigma = np.asarray(covariance_of(sem)) * np.outer(units, units)
        factories = (
            lambda: lambda_backend(spd, 0.2),
            lambda: fisher_z_backend(x, TestConfig(alpha=0.2)),
            lambda: gaussian_exact_backend(sigma),
        )
        for fresh in factories:
            table, ref = fresh().parent_table(), QueryOnly(fresh())
            for mask in range(1, 2**p):
                members = [v for v in range(p) if mask >> v & 1]
                for k in set(range(p)) - set(members):
                    want = sum(
                        1 << j for j in members
                        if not ref.is_independent(j, k, [v for v in members if v != j])
                    )
                    assert table[(mask | 1 << k) * p + k] == want
            want = sp_search(QueryOnly(fresh()))
            for got in (sp_search(fresh()), sp_search(caching_wrapper(fresh()))):
                assert got.min_edges == want.min_edges
                assert got.winners == want.winners
        want = sp_search(QueryOnly(gaussian_exact_backend(sigma)))
        got = sp_search_cholesky(sigma)
        assert got.min_edges == want.min_edges
        assert got.winners == want.winners

    def test_empty_prefix_and_collinear_subsets_read_alike_on_both_routes(self, monkeypatch):
        # Column 4 copies column 0 up to noise of 1e-6, so every subset
        # holding both is collinear and the moments stay positive definite,
        # as the Cholesky route needs.  Both routes hand the search one flat
        # table of parent masks: an empty prefix gives no parents and a
        # collinear subset makes the whole prefix parents.  The threshold
        # route counts each collinear query once, as the query path does.
        import spdag.sp as sp

        rng = np.random.default_rng(29)
        x = rng.standard_normal((200, 4))
        x = np.column_stack([x, x[:, 0] + 1e-6 * rng.standard_normal(200)])
        routes = []
        monkeypatch.setattr(sp, "_sparsest", lambda p, table: routes.append(table))
        be, ref = fisher_z_backend(x, TestConfig(0.01)), fisher_z_backend(x, TestConfig(0.01))
        sp_search(be)
        sp_search_cholesky(x.T @ x / len(x))
        copies = 1 | 1 << 4
        for mask in range(2**5):
            members = [v for v in range(5) if mask >> v & 1]
            for k in set(range(5)) - set(members):
                got = [table[(mask | 1 << k) * 5 + k] for table in routes]
                if not mask:
                    assert got == [0, 0]
                elif (mask | 1 << k) & copies == copies:
                    assert got == [mask, mask]
                for j in members:
                    ref.is_independent(j, k, [v for v in members if v != j])
        # every pair of each of the 8 subsets holding both copies
        assert be.collinear_warnings == ref.collinear_warnings == 1 + 3 * 3 + 3 * 6 + 10

    @settings(max_examples=25, deadline=None, database=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), p=st.integers(2, 7))
    def test_every_table_entry_matches_the_scalar_rule(self, seed, p):
        # The vectorized table against the scalar rules, entry by entry, for
        # every subset T and every k in T.  The threshold backends read few
        # rows in random units, so sqrt(n - |S| - 3) moves with |S|, and a
        # near-copy of column 0 makes collinear subsets; each backend's
        # table equals the query path's masks and records as many
        # collinear queries.  The Cholesky route's table equals the fill
        # of the reference factor of an ordering that puts T - {k} first,
        # at the default tolerance on a model's covariance and at a coarse
        # one on a dense matrix, where dividing by K_kk matters.
        rng = np.random.default_rng(seed)
        units = 10.0 ** rng.uniform(-3, 3, p)
        mix = np.where(rng.random((p, p)) < 0.4, rng.standard_normal((p, p)), 0.0) + np.eye(p)
        n = p + 4 + int(rng.integers(0, 20))
        x = rng.standard_normal((n, p)) @ mix.T
        x[:, -1] = x[:, 0] + 1e-6 * rng.standard_normal(n)
        x *= units
        moments = x.T @ x / n
        factories = (
            lambda: gaussian_exact_backend(moments),
            lambda: lambda_backend(moments, 0.2),
            lambda: fisher_z_backend(x, TestConfig(alpha=0.2)),
        )
        for fresh in factories:
            be, ref = fresh(), fresh()
            table = be.parent_table()
            for t in range(2**p):
                members = [v for v in range(p) if t >> v & 1]
                for k in members:
                    rest = [v for v in members if v != k]
                    want = sum(
                        1 << j for j in rest
                        if not ref.is_independent(j, k, [v for v in rest if v != j])
                    )
                    assert table[t * p + k] == want
            assert be.collinear_warnings == ref.collinear_warnings
        sem = random_sem(GenConfig(p=p, expected_nbhd=min(2.0, p - 1)), rng)
        sigma = np.asarray(covariance_of(sem)) * np.outer(units, units)
        spd = mix @ mix.T * np.outer(units, units)
        for cov, tol in ((sigma, CHOL_TOL), (spd, 0.2)):
            scale = np.sqrt(np.diag(cov))
            corr = cov / np.outer(scale, scale)
            with mock.patch("spdag.sp._sparsest", lambda p, table: table):
                table = sp_search_cholesky(cov, tol)
            for t in range(2**p):
                members = [v for v in range(p) if t >> v & 1]
                for k in members:
                    pi = [v for v in members if v != k] + [k]
                    pi += [v for v in range(p) if v not in pi]
                    factor = upper_cholesky(permuted_precision(corr, pi), chol_tol=tol)
                    fill = factor.nonzero_mask[:, len(members) - 1]
                    assert table[t * p + k] == sum(1 << pi[a] for a in np.flatnonzero(fill))

    def test_a_fisher_tie_is_dependent_on_both_paths(self):
        # The level equals one query's statistic, sqrt(n - |S| - 3) *
        # |atanh(rho)| for (0, 2) given {1}: the test is strict, so the
        # table and is_independent both call that pair dependent.  Where
        # the platform's np.arctanh rounds that rho lower than math.atanh,
        # the sample is picked so that a vectorized arctanh would fail.
        n = 20
        for seed in range(200):
            x = np.random.default_rng(seed).standard_normal((n, 3))
            moments = x.T @ x / n
            rho = partial_correlation(moments, 0, 2, [1])
            level = math.sqrt(n - 1 - 3) * abs(math.atanh(rho))
            if math.sqrt(n - 1 - 3) * abs(float(np.arctanh(rho))) < level:
                break
        be = PartialCorrelationBackend(moments, level, n)
        table = be.parent_table()
        assert not be.is_independent(0, 2, [1])
        assert table[0b111 * 3 + 2] >> 0 & 1 and table[0b111 * 3 + 0] >> 2 & 1
        assert be.statistic(0, 2, [1]) == level

    def test_each_subset_is_factored_once(self):
        # SP inverts every subset of two or more vertices exactly once;
        # SGS and PC on the same backend then find them all in the table
        rng = np.random.default_rng(11)
        for p in range(2, 10):
            sigma = covariance_of(random_sem(GenConfig(p=p, expected_nbhd=min(2.0, p - 1)), rng))
            be = gaussian_exact_backend(sigma)
            ci = caching_wrapper(be)
            sp_search(ci)
            assert be.subsets_factored == 2**p - p - 1
            sgs_skeleton(ci)
            pc_skeleton(caching_wrapper(be))
            assert be.subsets_factored == 2**p - p - 1
        assert be.subsets_factored == 502


class TestPermutedPrecision:
    def test_identity_is_plain_precision(self):
        sem = random_sem_pool(201, 1, p_values=(5,))[0]
        k1 = permuted_precision(covariance_of(sem), (0, 1, 2, 3, 4))
        k2 = precision_of(sem)
        assert np.allclose(k1.values, k2.values, atol=1e-12)

    def test_round_trip_through_inverse(self):
        sem = random_sem_pool(202, 1, p_values=(5,))[0]
        sig = covariance_of(sem)
        pi = (3, 0, 4, 1, 2)
        kpi = permuted_precision(sig, pi).values
        inv_order = np.argsort(pi)
        back = kpi[np.ix_(inv_order, inv_order)]
        assert np.allclose(back, permuted_precision(sig, (0, 1, 2, 3, 4)).values,
                           atol=1e-12)

    def test_two_variable_closed_forms(self):
        sig = CovarianceMatrix(np.array([[1.0, 0.5], [0.5, 1.0]]))
        kpi = permuted_precision(sig, (1, 0)).values
        assert np.allclose(kpi, np.array([[4 / 3, -2 / 3], [-2 / 3, 4 / 3]]), atol=1e-12)

        a = 0.7
        sem = LinearSem(Dag(2, [(0, 1)]), {(0, 1): a})
        sig2 = covariance_of(sem)
        k = permuted_precision(sig2, (0, 1)).values
        assert np.allclose(k, np.array([[1 + a * a, -a], [-a, 1.0]]), atol=1e-12)
        kswap = permuted_precision(sig2, (1, 0)).values
        assert np.allclose(kswap, np.array([[1.0, -a], [-a, 1 + a * a]]), atol=1e-12)

    def test_not_positive_definite(self):
        with pytest.raises(NumericalError):
            permuted_precision(np.array([[1.0, 2.0], [2.0, 1.0]]), (0, 1))


class TestUpperCholesky:
    def test_diagonal_input(self):
        f = upper_cholesky(np.diag([4.0, 9.0, 0.25]))
        assert np.allclose(f.U, np.eye(3), atol=1e-14)
        assert np.allclose(f.D, [4.0, 9.0, 0.25], atol=1e-14)
        assert f.num_nonzero == 0

    def test_recovers_sem_coefficients(self):
        # for a model whose labels are already a valid order, the factor
        # of the precision matrix is exactly I - A with D the noise
        # precisions
        for sem in random_sem_pool(203, 25):
            kap = precision_of(sem)
            f = upper_cholesky(kap)
            want_u = np.eye(sem.p) - sem.weight_matrix()
            assert np.max(np.abs(f.U - want_u)) < 1e-10
            assert np.allclose(f.D, 1.0 / np.asarray(sem.noise_vars), atol=1e-10)

    def test_chain_precision_is_tridiagonal(self):
        sem = LinearSem(CHAIN4, {(0, 1): 1.0, (1, 2): 1.0, (2, 3): 1.0})
        kap = precision_of(sem).values
        want = np.array(
            [
                [2.0, -1.0, 0.0, 0.0],
                [-1.0, 2.0, -1.0, 0.0],
                [0.0, -1.0, 2.0, -1.0],
                [0.0, 0.0, -1.0, 1.0],
            ]
        )
        assert np.allclose(kap, want, atol=1e-12)
        f = upper_cholesky(kap)
        assert np.allclose(f.U, np.eye(4) - sem.weight_matrix(), atol=1e-10)
        assert np.allclose(f.D, np.ones(4), atol=1e-10)

    def test_reconstruction_on_random_spd(self):
        rng = np.random.default_rng(204)
        for _ in range(50):
            p = int(rng.integers(2, 8))
            m = rng.standard_normal((p, p))
            k = m @ m.T + p * np.eye(p)
            f = upper_cholesky(k)
            assert np.allclose(np.diag(f.U), 1.0, atol=1e-14)
            assert np.max(np.abs(np.tril(f.U, -1))) == 0.0
            assert (f.D > 0).all()
            recon = (f.U * f.D[None, :]) @ f.U.T
            assert np.max(np.abs(recon - k)) <= 1e-8 * np.abs(k).max()

    def test_mask_respects_tolerance(self):
        sem = edge_cancellation_sem()
        f = upper_cholesky(precision_of(sem), chol_tol=1e-7)
        masked = np.abs(f.U[np.triu_indices(4, k=1)])
        kept = masked[masked > 1e-7]
        assert f.num_nonzero == kept.size
        big = upper_cholesky(precision_of(sem), chol_tol=10.0)
        assert big.num_nonzero == 0

    def test_rejects_indefinite(self):
        with pytest.raises(NumericalError):
            upper_cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_edges_for_maps_through_order(self):
        sem = LinearSem(Dag(3, [(0, 2)]), {(0, 2): 0.5})
        f = upper_cholesky(precision_of(sem))
        assert f.edges_for((0, 1, 2)) == frozenset({(0, 2)})
        assert f.edges_for((2, 1, 0)) == frozenset({(2, 0)})


class TestSpSearchCholesky:
    def test_diagonal_covariance(self):
        r = sp_search_cholesky(np.diag([1.0, 2.0, 3.0]))
        assert r.min_edges == 0
        assert r.winners == frozenset({Dag(3)})
        assert r.unique_class

    def test_agrees_with_ci_route(self):
        for sem in random_sem_pool(205, 50):
            sig = covariance_of(sem)
            a = sp_search_cholesky(sig)
            b = sp_search(gaussian_exact_backend(sig))
            assert a == b

    def test_cancellation_covariance_recovers_cycle(self):
        sig = covariance_of(edge_cancellation_sem())
        r = sp_search_cholesky(sig)
        assert r.min_edges == 4
        assert r.unique_class
        assert r.classes == frozenset({pattern_of(FOUR_CYCLE)})

    @settings(max_examples=20, deadline=None, database=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        p=st.integers(2, 6),
        nbhd=st.sampled_from((0.5, 1.0, 2.0)),
    )
    def test_fill_of_every_ordering_matches_the_reference(self, seed, p, nbhd):
        # The theorem one ordering at a time: the fill of the factor of the
        # permuted precision, mapped through pi, is the DAG pi induces, and
        # the orderings of least fill give the winners of the DP.
        sem = random_sem(GenConfig(p=p, expected_nbhd=min(nbhd, p - 1)), np.random.default_rng(seed))
        sigma = covariance_of(sem)
        ci = gaussian_exact_backend(sigma)
        by_fill = {}
        for pi in itertools.permutations(range(p)):
            g = Dag(p, upper_cholesky(permuted_precision(sigma, pi)).edges_for(pi))
            assert g == build_dag_for_permutation(pi, ci)
            by_fill.setdefault(g.num_edges, set()).add(g)
        assert sp_search_cholesky(sigma).winners == by_fill[min(by_fill)]

    @pytest.mark.parametrize("bad", [
        [[1.0, 0.5, 0.0], [0.1, 1.0, 0.3], [0.0, 0.3, 1.0]],
        [[1.0, 2.0], [2.0, 1.0]],
        [[1.0, np.nan], [np.nan, 1.0]],
    ], ids=["asymmetric", "indefinite", "nan"])
    def test_both_routes_reject_the_same_matrices(self, bad):
        with pytest.raises(ValueError) as query:
            sp_search(gaussian_exact_backend(np.array(bad)))
        with pytest.raises(ValueError) as factor:
            sp_search_cholesky(np.array(bad))
        assert type(factor.value) is type(query.value) is ValueError
        assert str(factor.value) == str(query.value)

    def test_tolerance_validation(self):
        chain = LinearSem(Dag(3, [(0, 1), (1, 2)]), {(0, 1): 0.8, (1, 2): 0.8})
        assert sp_search_cholesky(covariance_of(chain)).min_edges == 2
        for tol in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="tolerance must be positive"):
                sp_search_cholesky(covariance_of(chain), chol_tol=tol)
        # regression coefficients can exceed 1, so a large finite bound is allowed
        assert sp_search_cholesky(covariance_of(chain), chol_tol=1e6).min_edges == 0

    def test_capacity(self):
        with pytest.raises(CapacityError, match="--max-p"):
            sp_search_cholesky(np.eye(10))


class TestRobustness:
    @settings(max_examples=30, deadline=None, database=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        p=st.integers(3, 5),
        data=st.data(),
    )
    def test_rescaling_and_relabeling_leave_classes_unchanged(self, seed, p, data):
        sem = random_sem(GenConfig(p=p, expected_nbhd=2.0), np.random.default_rng(seed))
        sigma = np.asarray(covariance_of(sem))
        perm = data.draw(st.permutations(range(p)))
        exponents = data.draw(st.lists(st.floats(-4, 4), min_size=p, max_size=p))
        scale = 10.0 ** np.asarray(exponents)
        # new vertex v is old vertex perm[v], measured in other units
        moved = sigma[np.ix_(perm, perm)] * np.outer(scale, scale)
        moved = (moved + moved.T) / 2.0

        def back(result):
            return {
                pattern_of(Dag(p, [(perm[a], perm[b]) for a, b in g.edges]))
                for g in result.winners
            }

        for search in (
            lambda s: sp_search(gaussian_exact_backend(s)),
            sp_search_cholesky,
        ):
            want = search(sigma)
            got = search(moved)
            assert got.min_edges == want.min_edges
            assert back(got) == want.classes

    def test_duplicated_column_counts_as_dependent(self):
        rng = np.random.default_rng(5)
        sem = random_sem(GenConfig(p=4, expected_nbhd=1.5), rng)
        x = sample(sem, 2000, rng)
        data = np.column_stack([x, x[:, 0]])
        # population twin: column 4 copies column 0, lifted just off singular
        copy = np.vstack([np.eye(4), np.eye(4)[:1]])
        sigma = copy @ np.asarray(covariance_of(sem)) @ copy.T + 1e-12 * np.eye(5)
        CovarianceMatrix(sigma)  # accepted: positive definite, if barely

        factories = (
            lambda: fisher_z_backend(data, TestConfig(alpha=0.01)),
            lambda: gaussian_exact_backend(sigma),
            lambda: lambda_backend(sigma, 0.05),
        )
        for fresh in factories:
            be = fresh()
            r = sp_search(caching_wrapper(be))
            assert be.collinear_warnings > 0
            assert all(g.adjacent(0, 4) for g in r.winners)
            for skeleton_of in (sgs_skeleton, pc_skeleton):
                be = fresh()
                edges, _ = skeleton_of(caching_wrapper(be))
                assert be.collinear_warnings > 0
                assert (0, 4) in edges
