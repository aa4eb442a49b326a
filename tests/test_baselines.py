"""Tests for the constraint-based skeleton baselines."""

import itertools
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdag.baselines import (
    SKELETON_CAP,
    orient_v_structures,
    pc_pattern,
    pc_skeleton,
    sgs_pattern,
    sgs_skeleton,
)
from spdag.exceptions import CapacityError
from spdag.graph import Dag, pattern_of, skeleton
from spdag.oracle import (
    CiBackend,
    TestConfig,
    caching_wrapper,
    dsep_backend,
    explicit_backend,
    fisher_z_backend,
    gaussian_exact_backend,
    iter_triples,
    lambda_backend,
)
from spdag.sp import build_dag_for_permutation

from corpus import (
    CHAIN3,
    CHAIN4,
    FOUR_CYCLE,
    collinear_samples,
    edge_cancellation_backend,
    marginal_cancellation_backend,
    missed_independence_backend,
    random_dag_pool,
)
from reference import pc_skeleton_by_sets


def random_explicit_backends(seed, count, p=4, density=0.3):
    rng = np.random.default_rng(seed)
    triples = list(iter_triples(p))
    return [
        explicit_backend(p, [t for t in triples if rng.random() < density])
        for _ in range(count)
    ]


class QueryLog:
    """A backend that answers as ci does and records each query in order."""

    def __init__(self, ci):
        self.p, self._ci, self.queries = ci.p, ci, []

    def is_independent(self, j, k, s=()):
        self.queries.append((j, k, tuple(s)))
        return self._ci.is_independent(j, k, s)


class Opaque(CiBackend):
    """Answers as ci does, but hides its type, so SGS asks it query by query."""

    def __init__(self, ci):
        self._ci = ci

    @property
    def p(self):
        return self._ci.p

    def is_independent(self, j, k, s=()):
        return self._ci.is_independent(j, k, s)


class TestSgsSkeleton:
    @given(
        seed=st.integers(0, 2**32 - 1),
        p=st.integers(2, 7),
        mode=st.sampled_from([0, 1, 2]),
        rule=st.sampled_from(["fisher", "lambda", "exact"]),
        level=st.floats(0.001, 0.5),
        cached=st.booleans(),
    )
    @settings(max_examples=80, deadline=None, database=None, derandomize=True)
    def test_table_route_answers_as_asking(self, seed, p, mode, rule, level, cached):
        # Plain, exactly copied (mode 1) and near-collinear (mode 2)
        # columns: reading the subset table gives the skeleton, every
        # first separating set and the set of collinear queries that
        # asking each query in turn gives.
        x = collinear_samples(np.random.default_rng(seed), p, mode)
        sigma = x.T @ x / len(x)
        sigma += 1e-13 * np.diag(np.diag(sigma))  # positive definite despite a copy

        def make():
            if rule == "fisher":
                return fisher_z_backend(x, TestConfig(alpha=level))
            if rule == "lambda":
                return lambda_backend(sigma, level)
            return gaussian_exact_backend(sigma, zero_tol=level / 10)

        table, asked = make(), make()
        got = sgs_skeleton(caching_wrapper(table) if cached else table)
        assert got == sgs_skeleton(Opaque(asked))
        assert table._collinear == asked._collinear

    def test_table_route_answers_as_asking_on_a_copied_column_at_the_cap(self):
        # As the benchmark's collinear input: a sparse model on 11
        # variables, n = 10,000, and a copy of its first column.
        rng = np.random.default_rng(12)
        q = SKELETON_CAP - 1
        weights = np.triu(rng.uniform(0.25, 1, (q, q)) * rng.choice((-1, 1), (q, q)), 1)
        weights *= rng.random((q, q)) < 2 / (q - 1)  # about two neighbours a vertex
        x = rng.standard_normal((10_000, q)) @ np.linalg.inv(np.eye(q) - weights)
        x = np.column_stack([x, x[:, 0]])
        table, asked = (fisher_z_backend(x, TestConfig(alpha=0.01)) for _ in range(2))
        got = sgs_skeleton(caching_wrapper(table))
        assert got == sgs_skeleton(Opaque(asked))
        assert table._collinear == asked._collinear
        assert len(table._collinear) > 0 and max(map(len, got[1].values())) >= 2

    def test_chain_recovery(self):
        sk, t = sgs_skeleton(dsep_backend(CHAIN3))
        assert sk == frozenset({(0, 1), (1, 2)})
        assert t[0, 2] == frozenset({1})

    def test_cancellation_deletes_a_true_edge(self):
        # the unfaithful independence 0 _||_ 1 | {3} kills the 0-1 edge
        sk, t = sgs_skeleton(edge_cancellation_backend())
        assert sk == frozenset({(0, 3), (1, 2), (2, 3)})
        assert t[0, 1] == frozenset({3})
        assert sk != skeleton(FOUR_CYCLE)

    def test_missed_independence_keeps_the_skeleton(self):
        sk, _ = sgs_skeleton(missed_independence_backend())
        assert sk == skeleton(CHAIN4)

    def test_witness_is_smallest_then_lexicographic(self):
        for ci in random_explicit_backends(11, 10):
            _, table = sgs_skeleton(ci)
            for (j, k), s in table.items():
                assert ci.is_independent(j, k, s)
                rest = [v for v in range(ci.p) if v not in (j, k)]
                for size in range(len(s) + 1):
                    for cand in combinations(rest, size):
                        if cand == tuple(sorted(s)):
                            break
                        assert not ci.is_independent(j, k, cand)
                    else:
                        continue
                    break

    def test_capacity(self):
        with pytest.raises(CapacityError):
            sgs_skeleton(explicit_backend(13, []))


class TestPcSkeleton:
    def test_matches_sgs_under_separation_oracles(self):
        for g in random_dag_pool(12, 40, p_values=(3, 4, 5)):
            ci = dsep_backend(g)
            assert pc_skeleton(ci)[0] == sgs_skeleton(ci)[0] == skeleton(g)

    def test_fully_independent_backend(self):
        ci = explicit_backend(4, list(iter_triples(4)))
        sk, table = pc_skeleton(ci)
        assert sk == frozenset()
        # everything separated at level zero
        for (_, _), s in table.items():
            assert s == frozenset()

    def test_complete_graph_never_separates(self):
        g = Dag(4, [(j, k) for j in range(4) for k in range(j + 1, 4)])
        sk, table = pc_skeleton(dsep_backend(g))
        assert sk == skeleton(g)
        assert len(table) == 0

    def test_skeleton_contains_sgs_skeleton(self):
        # conditioning only on neighbours can only miss separations
        for ci in random_explicit_backends(13, 20):
            assert pc_skeleton(ci)[0] >= sgs_skeleton(ci)[0]

    def test_recorded_sets_witness_independence(self):
        for ci in random_explicit_backends(14, 10):
            _, table = pc_skeleton(ci)
            for (j, k), s in table.items():
                assert ci.is_independent(j, k, s)

    @given(
        seed=st.integers(0, 2**32 - 1),
        p=st.integers(0, 8),
        density=st.floats(0.0, 1.0),
        dsep=st.booleans(),
    )
    @settings(max_examples=120, deadline=None, database=None, derandomize=True)
    def test_matches_the_set_based_reference(self, seed, p, density, dsep):
        rng = np.random.default_rng(seed)
        if dsep:
            order = rng.permutation(p)
            ci = dsep_backend(Dag(p, [
                (int(order[a]), int(order[b]))
                for a, b in combinations(range(p), 2) if rng.random() < density
            ]))
        else:
            ci = explicit_backend(p, [t for t in iter_triples(p) if rng.random() < density])
        got, want = QueryLog(ci), QueryLog(ci)
        got_edges, got_sets = pc_skeleton(got)
        want_edges, want_sets = pc_skeleton_by_sets(want)
        assert got_edges == want_edges
        assert got_sets == want_sets
        assert got.queries == want.queries


class TestSepsets:
    @pytest.mark.parametrize("skeleton_of", [sgs_skeleton, pc_skeleton])
    def test_a_plain_dict_keyed_by_low_high_pairs(self, skeleton_of):
        backends = random_explicit_backends(15, 10, p=5) + [
            dsep_backend(g) for g in random_dag_pool(16, 10, p_values=(4, 5))
        ]
        for ci in backends:
            edges, sepsets = skeleton_of(ci)
            assert type(sepsets) is dict
            assert all(j < k for j, k in sepsets)
            assert all(type(s) is frozenset for s in sepsets.values())
            # every pair is either kept or has its witness, never both
            assert sepsets.keys() | edges == set(combinations(range(ci.p), 2))
            assert not sepsets.keys() & edges

    def test_pc_keys_a_pair_separated_from_its_high_end_low_high(self):
        # 0 _||_ 3 drops 0-3 at level 0, so at level 1 the pool of 0 is
        # {1, 2} and only the pool of 2 holds the witness {3}
        log = QueryLog(explicit_backend(4, [(0, 3, frozenset()), (0, 2, frozenset({3}))]))
        edges, sepsets = pc_skeleton(log)
        assert (2, 0, (3,)) in log.queries
        assert (0, 2, (3,)) not in log.queries
        assert sepsets == {(0, 3): frozenset(), (0, 2): frozenset({3})}
        assert edges == {(0, 1), (1, 2), (1, 3), (2, 3)}


class TestOrientation:
    def test_collider_marked(self):
        pat = orient_v_structures({(0, 2), (1, 2)}, {(0, 1): frozenset()})
        assert pat.v_structures == frozenset({(0, 2, 1)})

    def test_chain_not_marked(self):
        pat = orient_v_structures({(0, 1), (1, 2)}, {(0, 2): frozenset({1})})
        assert pat.v_structures == frozenset()

    def test_missing_sepset_raises(self):
        with pytest.raises(KeyError):
            orient_v_structures({(0, 2), (1, 2)}, {})

    def test_faithful_cycle_pipeline(self):
        assert sgs_pattern(dsep_backend(FOUR_CYCLE)) == pattern_of(FOUR_CYCLE)

    def test_shielded_triples_ignored(self):
        # triangle: no unshielded triple, nothing to orient, no lookup
        pat = orient_v_structures({(0, 1), (1, 2), (0, 2)}, {})
        assert pat.v_structures == frozenset()


class TestConsistency:
    def test_pipelines_recover_pattern_under_faithfulness(self):
        for g in random_dag_pool(15, 100, p_values=(3, 4, 5, 6)):
            ci = dsep_backend(g)
            want = pattern_of(g)
            assert sgs_pattern(ci) == want
            assert pc_pattern(ci) == want

    def test_sgs_skeleton_inside_every_ordering_dag(self):
        # deleting an edge only needs one separating set, while the
        # per-ordering construction needs the specific prefix set to
        # separate, so the full-sweep skeleton is always a subset
        backends = random_explicit_backends(16, 8)
        backends += [
            edge_cancellation_backend(),
            marginal_cancellation_backend(),
            missed_independence_backend(),
        ]
        for ci in backends:
            sgs_sk, _ = sgs_skeleton(ci)
            for perm in itertools.permutations(range(ci.p)):
                g = build_dag_for_permutation(perm, ci)
                assert sgs_sk <= skeleton(g)
