"""Tests for the linear Gaussian model generator and sampler."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdag.graph import Dag, d_separated
from spdag.oracle import partial_correlation
from spdag.sem import (
    GenConfig,
    LinearSem,
    covariance_of,
    precision_of,
    random_dag,
    random_sem,
    random_weights,
    sample,
)

from corpus import CHAIN3, edge_cancellation_sem, random_sem_pool


class TestGenConfig:
    def test_edge_probability(self):
        cfg = GenConfig(p=8, expected_nbhd=2.0)
        # expected degree 2 means q = 2 / (p - 1)
        assert cfg.edge_probability == pytest.approx(2.0 / 7.0)

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            GenConfig(p=1, expected_nbhd=0.5)
        with pytest.raises(ValueError):
            GenConfig(p=5, expected_nbhd=0.0)
        with pytest.raises(ValueError):
            GenConfig(p=5, expected_nbhd=4.5)


class TestLinearSem:
    def test_weight_keys_must_match_edges(self):
        g = Dag(2, [(0, 1)])
        with pytest.raises(ValueError):
            LinearSem(g, {})
        with pytest.raises(ValueError):
            LinearSem(g, {(0, 1): 0.5, (1, 0): 0.5})

    def test_weight_magnitude_range(self):
        g = Dag(2, [(0, 1)])
        with pytest.raises(ValueError):
            LinearSem(g, {(0, 1): 0.1})
        with pytest.raises(ValueError):
            LinearSem(g, {(0, 1): 1.2})
        LinearSem(g, {(0, 1): -0.25})
        LinearSem(g, {(0, 1): 1.0})

    def test_noise_defaults_to_unit(self):
        sem = LinearSem(Dag(2, [(0, 1)]), {(0, 1): 0.5})
        assert sem.noise_vars == (1.0, 1.0)
        with pytest.raises(ValueError):
            LinearSem(Dag(2, [(0, 1)]), {(0, 1): 0.5}, noise_vars=(1.0, 0.0))

    def test_weight_matrix_layout(self):
        sem = LinearSem(CHAIN3, {(0, 1): 0.5, (1, 2): -0.75})
        a = sem.weight_matrix()
        assert a[0, 1] == 0.5
        assert a[1, 2] == -0.75
        assert np.count_nonzero(a) == 2


class TestRandomGeneration:
    def test_mean_edge_count(self):
        # p=8 with expected neighbourhood 2 gives 2*8/2 = 8 expected edges.
        cfg = GenConfig(p=8, expected_nbhd=2.0)
        rng = np.random.default_rng(3)
        total = sum(len(random_dag(cfg, rng).edges) for _ in range(10_000))
        assert total / 10_000 == pytest.approx(8.0, abs=0.25)

    def test_weight_distribution(self):
        # |a| ~ U[0.25, 1] so E|a| = 0.625; signs are a fair coin.
        rng = np.random.default_rng(11)
        g = Dag(6, [(j, k) for j in range(6) for k in range(j + 1, 6)])
        mags, pos = [], 0
        for _ in range(2_000):
            sem = random_weights(g, rng)
            for w in sem.weights.values():
                mags.append(abs(w))
                pos += w > 0
        mags = np.asarray(mags)
        assert mags.min() >= 0.25 and mags.max() <= 1.0
        assert mags.mean() == pytest.approx(0.625, abs=0.01)
        assert pos / len(mags) == pytest.approx(0.5, abs=0.02)

    def test_random_sem_covariances_are_spd(self):
        for sem in random_sem_pool(401, 1000):
            sig = covariance_of(sem).values
            assert np.linalg.cholesky(sig) is not None


class TestCovariance:
    def test_chain_unit_weights(self):
        sem = LinearSem(CHAIN3, {(0, 1): 1.0, (1, 2): 1.0})
        expect = np.array([[1.0, 1.0, 1.0], [1.0, 2.0, 2.0], [1.0, 2.0, 3.0]])
        assert np.allclose(covariance_of(sem).values, expect, atol=1e-14)

    def test_single_edge_closed_form(self):
        sem = LinearSem(Dag(2, [(0, 1)]), {(0, 1): 0.5}, noise_vars=(2.0, 3.0))
        # x1 = 0.5 x0 + e1: var(x0)=2, cov=1, var(x1)=0.25*2+3
        expect = np.array([[2.0, 1.0], [1.0, 3.5]])
        assert np.allclose(covariance_of(sem).values, expect, atol=1e-14)

    def test_precision_inverts_covariance(self):
        for sem in random_sem_pool(402, 50):
            sig = covariance_of(sem).values
            kap = precision_of(sem).values
            assert np.max(np.abs(kap @ sig - np.eye(sem.p))) < 1e-10

    def test_precision_zero_pattern_moralizes(self):
        # K[j,k] != 0 exactly when j,k adjacent or share a child.
        sem = edge_cancellation_sem()
        kap = precision_of(sem).values
        g = sem.dag
        for j in range(4):
            for k in range(j + 1, 4):
                coupled = g.adjacent(j, k) or (
                    g.children(j) & g.children(k)
                )
                assert (abs(kap[j, k]) > 1e-12) == bool(coupled)

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), p=st.integers(2, 12), data=st.data())
    def test_vertex_order_does_not_matter(self, seed, p, data):
        # Same model with labels permuted: covariance and precision permute
        # with it, and precision keeps its zero pattern exactly.
        nbhd = data.draw(st.floats(0.5, p - 1), label="nbhd")
        rng = np.random.default_rng(seed)
        base = random_weights(
            random_dag(GenConfig(p, nbhd), rng), rng,
            noise_vars=rng.uniform(0.5, 2.0, p),
        )
        perm = rng.permutation(p)  # new label of old vertex i is perm[i]
        noise = np.empty(p)
        noise[perm] = base.noise_vars
        relabeled = LinearSem(
            Dag(p, [(perm[j], perm[k]) for j, k in base.dag.edges]),
            {(perm[j], perm[k]): w for (j, k), w in base.weights.items()},
            tuple(noise),
        )
        back = np.ix_(perm, perm)
        for build in (covariance_of, precision_of):
            m, m_r = build(base).values, build(relabeled).values[back]
            assert np.max(np.abs(m_r - m)) <= 1e-12 * max(1.0, np.max(np.abs(m)))
        kap, kap_r = precision_of(base).values, precision_of(relabeled).values[back]
        assert np.array_equal(kap == 0, kap_r == 0)


class TestSampling:
    def test_sample_covariance_converges(self):
        sem = edge_cancellation_sem()
        rng = np.random.default_rng(77)
        x = sample(sem, 1_000_000, rng)
        emp = (x.T @ x) / x.shape[0]
        assert np.max(np.abs(emp - covariance_of(sem).values)) < 0.01

    def test_streams_are_reproducible(self):
        sem = random_sem_pool(403, 1)[0]
        a = sample(sem, 257, np.random.default_rng(12345))
        b = sample(sem, 257, np.random.default_rng(12345))
        assert a.tobytes() == b.tobytes()

    def test_non_monotone_labelling(self):
        # Edges pointing against label order still sample correctly.
        g = Dag(3, [(2, 1), (1, 0)])
        sem = LinearSem(g, {(2, 1): 1.0, (1, 0): 1.0})
        rng = np.random.default_rng(9)
        x = sample(sem, 400_000, rng)
        emp = (x.T @ x) / x.shape[0]
        expect = covariance_of(sem).values
        assert expect[2, 2] == pytest.approx(1.0)
        assert expect[0, 0] == pytest.approx(3.0)
        assert np.max(np.abs(emp - expect)) < 0.02

    def test_rows_solve_the_structural_equations(self):
        # x (I - A) = eps row by row, for the very noise the draw used,
        # with every edge pointing against label order.
        g = Dag(4, [(3, 2), (2, 1), (3, 0), (1, 0)])
        sem = LinearSem(
            g, {(3, 2): 0.9, (2, 1): -0.7, (3, 0): 0.4, (1, 0): 1.0},
            noise_vars=(0.5, 1.0, 2.0, 1.5),
        )
        rng = np.random.default_rng(21)
        twin = copy.deepcopy(rng)
        x = sample(sem, 500, rng)
        eps = twin.standard_normal((500, 4)) * np.sqrt(sem.noise_vars)
        assert np.max(np.abs(x @ (np.eye(4) - sem.weight_matrix()) - eps)) < 1e-12

    def test_rejects_bad_count(self):
        sem = LinearSem(Dag(2, [(0, 1)]), {(0, 1): 0.5})
        with pytest.raises(ValueError):
            sample(sem, 0, np.random.default_rng(0))


class TestModelFaithfulness:
    def test_generic_weights_track_d_separation(self):
        # Random weights should (almost surely) produce partial
        # correlations that vanish exactly on d-separations.
        hits = 0
        pool = random_sem_pool(404, 60)
        for sem in pool:
            sig = covariance_of(sem).values
            g = sem.dag
            ok = True
            for j in range(g.p):
                for k in range(j + 1, g.p):
                    for s_mask in range(1 << g.p):
                        if s_mask >> j & 1 or s_mask >> k & 1:
                            continue
                        s = [v for v in range(g.p) if s_mask >> v & 1]
                        rho = partial_correlation(sig, j, k, s)
                        if d_separated(g, j, k, s):
                            ok &= abs(rho) < 1e-9
                        else:
                            ok &= abs(rho) > 1e-9
            hits += ok
        assert hits >= 58  # allow a rare near-cancellation at random weights

    def test_engineered_cancellation_is_not_generic(self):
        sem = edge_cancellation_sem()
        sig = covariance_of(sem).values
        # the vanishing partial correlation despite 0->1 being an edge
        assert abs(partial_correlation(sig, 0, 1, [3])) < 1e-12


class TestRandomSem:
    def test_respects_config(self):
        cfg = GenConfig(p=6, expected_nbhd=1.5)
        sem = random_sem(cfg, np.random.default_rng(8))
        assert sem.p == 6
        for w in sem.weights.values():
            assert 0.25 <= abs(w) <= 1.0
        assert sem.noise_vars == tuple([1.0] * 6)
