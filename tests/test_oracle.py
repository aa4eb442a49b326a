"""Independence-backend tests.

Core claims checked here:
  * partial correlations match a full-inverse dual route and hand values
  * the exact Gaussian backend reproduces d-separation on faithful models
  * engineered weight cancellations produce exactly one extra independence
  * the lambda backend is monotone in lambda and brackets the exact one
  * the Fisher-z test hits its nominal size and detects real signal
  * each backend factory answers by its documented rule on every triple
  * the caching wrapper is invisible except for the query count
  * covariance containers and CSV loaders validate their inputs
  * the CSV reader gives what the line-list reader in reference.py gives
"""

import math
import tracemalloc
import warnings
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from spdag import oracle
from spdag.baselines import sgs_skeleton
from spdag.exceptions import NumericalError
from spdag.graph import Dag, d_separated
from spdag.oracle import (
    COLLINEAR_TOL,
    CovarianceMatrix,
    TestConfig,
    caching_wrapper,
    dsep_backend,
    explicit_backend,
    fisher_z_backend,
    gaussian_exact_backend,
    iter_triples,
    lambda_backend,
    load_covariance_csv,
    load_samples_csv,
    partial_correlation,
    PartialCorrelationBackend,
    _layout,
    _standardize,
    _SubsetTable,
)
from spdag.sem import LinearSem, covariance_of, random_sem, GenConfig, sample
from spdag.sp import sp_search, sp_search_cholesky

from corpus import (
    CHAIN3,
    EDGE_CANCEL_TRIPLES,
    FOUR_CYCLE,
    MARGINAL_CANCEL_TRIPLES,
    collinear_samples,
    edge_cancellation_sem,
    marginal_cancellation_sem,
    random_sem_pool,
)
from reference import partial_corr_by_inverse, read_csv, subset_inverse


def random_spd(rng, p):
    a = rng.standard_normal((p, p))
    return a @ a.T + p * np.eye(p)


def ci_set(backend):
    return {
        (j, k, s)
        for j, k, s in iter_triples(backend.p)
        if backend.is_independent(j, k, s)
    }


class TestCovarianceMatrix:
    def test_accepts_spd(self):
        m = CovarianceMatrix([[2.0, 0.5], [0.5, 1.0]])
        assert m.p == 2
        assert np.asarray(m).shape == (2, 2)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            CovarianceMatrix([[1.0, 0.2], [0.1, 1.0]])

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="positive definite"):
            CovarianceMatrix([[1.0, 2.0], [2.0, 1.0]])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            CovarianceMatrix(np.ones((2, 3)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_every_covariance_reader_rejects_non_finite_entries(self, bad):
        # a NaN must not pass for a collinear block (which would give a
        # complete graph), and inf must fail before numpy warns
        m = np.eye(3)
        m[0, 1] = m[1, 0] = bad
        readers = (
            CovarianceMatrix,
            gaussian_exact_backend,
            lambda s: lambda_backend(s, 0.1),
            sp_search_cholesky,
        )
        for read in readers:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=r"entry \(0, 1\) is .*not a finite number"):
                    read(m)

    def test_entries_near_the_float_maximum_do_not_overflow(self):
        # the triangles are compared and averaged after halving, so a
        # finite matrix is judged on its entries, with no overflow warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = CovarianceMatrix([[1e308, 1.0], [1.0, 1e308]])
            assert np.array_equal(m.values, [[1e308, 1.0], [1.0, 1e308]])
            with pytest.raises(ValueError, match="symmetric"):
                CovarianceMatrix([[1.0, 1e308], [-1e308, 1.0]])

    def test_read_only(self):
        m = CovarianceMatrix(np.eye(2))
        with pytest.raises(ValueError):
            m.values[0, 0] = 5.0

    def test_a_checked_matrix_is_taken_as_it_is(self, monkeypatch):
        # sp learn reads a covariance CSV into a CovarianceMatrix; the
        # backends and the Cholesky route wrap it again without copying or
        # factoring it a second time
        m = CovarianceMatrix([[2.0, 0.5], [0.5, 1.0]])
        again = CovarianceMatrix(m)
        assert np.shares_memory(again.values, m.values) and not again.values.flags.writeable
        monkeypatch.setattr(np.linalg, "cholesky", None)
        gaussian_exact_backend(m), lambda_backend(m, 0.1), sp_search_cholesky(m)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TestConfig(alpha=0.0)
        with pytest.raises(ValueError):
            TestConfig(alpha=1.0)
        with pytest.raises(ValueError):
            gaussian_exact_backend(np.eye(2), zero_tol=0.0)

    @pytest.mark.parametrize("alpha", [5e-324, math.nan])
    def test_alpha_without_a_finite_level_is_rejected(self, alpha):
        # the level is -inv_cdf(alpha/2); an alpha/2 of 0 has none
        with pytest.raises(ValueError, match=f"got {alpha}"):
            TestConfig(alpha=alpha)

    @pytest.mark.parametrize("tol", [0.0, -1e-9, 1.0, 5.0, math.inf, math.nan])
    def test_zero_tol_outside_the_unit_interval_is_rejected(self, tol):
        # |partial correlation| <= 1, so a tolerance of 1 or more would
        # call every pair independent and learn the empty graph
        with pytest.raises(ValueError, match=rf"zero_tol must lie in \(0,1\), got {tol}"):
            gaussian_exact_backend(np.eye(2), zero_tol=tol)


class TestPartialCorrelation:
    def test_identity_uncorrelated(self):
        assert partial_correlation(np.eye(3), 0, 1) == 0.0

    def test_unconditional_is_plain_correlation(self):
        rng = np.random.default_rng(3)
        m = random_spd(rng, 4)
        for j in range(4):
            for k in range(j + 1, 4):
                expect = m[j, k] / math.sqrt(m[j, j] * m[k, k])
                assert partial_correlation(m, j, k) == pytest.approx(expect, abs=1e-14)

    def test_chain_middle_blocks(self):
        # Unit-weight chain 0->1->2 has the frozen covariance
        # [[1,1,1],[1,2,2],[1,2,3]]; conditioning on the middle kills
        # the endpoint correlation.
        sem = LinearSem(CHAIN3, {(0, 1): 1.0, (1, 2): 1.0})
        sig = covariance_of(sem)
        assert np.allclose(
            np.asarray(sig), [[1.0, 1.0, 1.0], [1.0, 2.0, 2.0], [1.0, 2.0, 3.0]]
        )
        assert abs(partial_correlation(sig, 0, 2, {1})) < 1e-12
        assert abs(partial_correlation(sig, 0, 2)) > 0.5

    def test_agrees_with_inverse_route(self):
        rng = np.random.default_rng(41)
        for _ in range(25):
            p = int(rng.integers(3, 7))
            m = random_spd(rng, p)
            for j, k, s in iter_triples(p):
                got = partial_correlation(m, j, k, s)
                expect = partial_corr_by_inverse(m, j, k, s)
                assert got == pytest.approx(expect, abs=1e-10)
                assert -1.0 - 1e-12 <= got <= 1.0 + 1e-12

    def test_agrees_with_residual_correlation(self):
        # Monte-Carlo route: regress the pair on the conditioning set
        # and correlate residuals.
        rng = np.random.default_rng(59)
        sem = random_sem_pool(59, 1, p_values=(5,))[0]
        x = sample(sem, 200_000, rng)
        sig = (x.T @ x) / x.shape[0]
        s = [1, 3]
        xs = x[:, s]
        beta_j, *_ = np.linalg.lstsq(xs, x[:, 0], rcond=None)
        beta_k, *_ = np.linalg.lstsq(xs, x[:, 2], rcond=None)
        res_j = x[:, 0] - xs @ beta_j
        res_k = x[:, 2] - xs @ beta_k
        # uncentered correlation, matching the second-moment convention
        expect = (res_j @ res_k) / np.sqrt((res_j @ res_j) * (res_k @ res_k))
        assert partial_correlation(sig, 0, 2, s) == pytest.approx(expect, abs=1e-10)

    def test_singular_block_reports_subset(self):
        m = np.array(
            [
                [1.0, 0.0, 0.0, 0.0],
                [0.0, 1.0, 1.0, 0.0],
                [0.0, 1.0, 1.0, 0.0],
                [0.0, 0.0, 0.0, 1.0],
            ]
        )
        with pytest.raises(NumericalError) as err:
            partial_correlation(m, 0, 3, {1, 2})
        assert err.value.subset == (1, 2)

    @settings(max_examples=30, deadline=None, database=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), p=st.integers(2, 7), mode=st.sampled_from([0, 1, 2]))
    def test_one_off_value_is_the_level_tables_to_the_bit(self, seed, p, mode):
        # A one-off call inverts only its own block, yet returns the value
        # a backend reads from its table of every subset size, bit for bit,
        # and raises exactly where that value is collinear.
        x = collinear_samples(np.random.default_rng(seed), p, mode)
        moments = x.T @ x / len(x)
        be = PartialCorrelationBackend(moments, 0.5)
        for j, k, s in iter_triples(p):
            want = be._rho(j, k, sum(1 << v for v in s))
            try:
                got = partial_correlation(moments, j, k, s)
            except NumericalError:
                assert not abs(want) < 1
            else:
                assert got.hex() == want.hex()

    def test_a_one_off_query_inverts_its_block_alone(self):
        # Given the other 14 of 16 vertices, the table of every subset
        # size would hold about 36 MB of inverses.
        sigma = random_spd(np.random.default_rng(16), 16)
        s = range(2, 16)
        tracemalloc.start()
        try:
            rho = partial_correlation(sigma, 0, 1, s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rho == pytest.approx(partial_corr_by_inverse(sigma, 0, 1, s), rel=1e-10, abs=1e-12)
        assert peak < 2**20

    def test_validation(self):
        with pytest.raises(ValueError):
            partial_correlation(np.eye(3), 0, 0)
        with pytest.raises(ValueError):
            partial_correlation(np.eye(3), 0, 1, {1})
        with pytest.raises(ValueError):
            partial_correlation(np.eye(3), 0, 5)


class TestDsepAndExplicit:
    def test_dsep_backend_matches_graph(self):
        be = dsep_backend(FOUR_CYCLE)
        assert be.p == 4
        assert be.is_independent(0, 2, {1})
        assert not be.is_independent(0, 1)
        assert ci_set(be) == {(0, 2, frozenset({1})), (1, 3, frozenset({0, 2}))}

    def test_two_chain_triviality(self):
        assert not dsep_backend(Dag(2, [(0, 1)])).is_independent(0, 1)
        assert dsep_backend(Dag(3, [(0, 1), (1, 2)])).is_independent(0, 2, {1})

    def test_explicit_membership_and_symmetry(self):
        be = explicit_backend(4, EDGE_CANCEL_TRIPLES)
        assert be.is_independent(0, 1, {3})
        assert be.is_independent(1, 0, {3})
        assert not be.is_independent(0, 1)
        assert ci_set(be) == EDGE_CANCEL_TRIPLES

    def test_explicit_validation(self):
        with pytest.raises(ValueError):
            explicit_backend(3, [(0, 0, frozenset())])
        with pytest.raises(ValueError):
            explicit_backend(3, [(0, 5, frozenset())])
        with pytest.raises(ValueError):
            explicit_backend(3, ["bad"])
        with pytest.raises(ValueError):
            explicit_backend(3, [(0, 1, frozenset({1}))])

    def test_all_backends_symmetric(self):
        rng = np.random.default_rng(61)
        sem = random_sem_pool(61, 1, p_values=(5,))[0]
        sig = covariance_of(sem)
        data = sample(sem, 500, rng)
        backends = [
            dsep_backend(sem.dag),
            gaussian_exact_backend(sig),
            lambda_backend(sig, 0.2),
            fisher_z_backend(data, TestConfig(alpha=0.01)),
        ]
        for be in backends:
            for j, k, s in iter_triples(5):
                assert be.is_independent(j, k, s) == be.is_independent(k, j, s)


class TestGaussianExact:
    def test_diagonal_all_independent(self):
        be = gaussian_exact_backend(np.diag([1.0, 2.0, 3.0]))
        assert all(be.is_independent(j, k, s) for j, k, s in iter_triples(3))

    def test_faithful_matches_dsep(self):
        # Weight draws bounded away from zero make unfaithful draws a
        # measure-zero event; demand full agreement on 100 seeded models.
        sems = random_sem_pool(20240818, 100)
        agreeing = 0
        for sem in sems:
            be = gaussian_exact_backend(covariance_of(sem))
            truth = dsep_backend(sem.dag)
            if all(
                be.is_independent(j, k, s) == truth.is_independent(j, k, s)
                for j, k, s in iter_triples(sem.p)
            ):
                agreeing += 1
        assert agreeing >= 99

    def test_edge_cancellation_ci_set(self):
        sig = covariance_of(edge_cancellation_sem())
        assert abs(partial_correlation(sig, 0, 1, {3})) < 1e-9
        assert ci_set(gaussian_exact_backend(sig)) == EDGE_CANCEL_TRIPLES

    def test_marginal_cancellation_ci_set(self):
        sig = covariance_of(marginal_cancellation_sem())
        assert abs(partial_correlation(sig, 0, 3)) < 1e-9
        assert ci_set(gaussian_exact_backend(sig)) == MARGINAL_CANCEL_TRIPLES

    def test_zero_tol_margins(self):
        # The default threshold must sit orders of magnitude clear of
        # both the numerical zeros and the true signals.
        sig = covariance_of(edge_cancellation_sem())
        zeros, signals = [], []
        for j, k, s in iter_triples(4):
            r = abs(partial_correlation(sig, j, k, s))
            (zeros if (j, k, s) in EDGE_CANCEL_TRIPLES else signals).append(r)
        assert max(zeros) < 1e-12
        assert min(signals) > 1e-6


class TestLambdaBackend:
    def test_level_validation(self):
        with pytest.raises(ValueError):
            lambda_backend(np.eye(2), 0.0)
        with pytest.raises(ValueError):
            lambda_backend(np.eye(2), 1.0)

    def test_near_one_everything_independent(self):
        sig = covariance_of(random_sem_pool(5, 1, p_values=(4,))[0])
        be = lambda_backend(sig, 1 - 1e-9)
        assert all(be.is_independent(j, k, s) for j, k, s in iter_triples(4))

    def test_small_lambda_matches_exact(self):
        sig = covariance_of(random_sem_pool(6, 1, p_values=(4,))[0])
        exact = gaussian_exact_backend(sig)
        be = lambda_backend(sig, 1e-9)
        for j, k, s in iter_triples(4):
            assert be.is_independent(j, k, s) == exact.is_independent(j, k, s)

    def test_monotone_in_lambda(self):
        sig = covariance_of(random_sem_pool(7, 1, p_values=(5,))[0])
        levels = [0.01, 0.05, 0.2, 0.5, 0.9]
        sets = [ci_set(lambda_backend(sig, lam)) for lam in levels]
        for small, large in zip(sets, sets[1:]):
            assert small <= large

    def test_half_margin_reproduces_dsep(self):
        # Faithful model: thresholding at half the smallest nonzero
        # partial correlation recovers exactly the d-separations.
        sem = LinearSem(
            FOUR_CYCLE, {(0, 1): 0.6, (0, 3): 0.7, (1, 2): -0.8, (2, 3): 0.9}
        )
        sig = covariance_of(sem)
        truth = ci_set(dsep_backend(FOUR_CYCLE))
        nonzero = [
            abs(partial_correlation(sig, j, k, s))
            for j, k, s in iter_triples(4)
            if (j, k, s) not in truth
        ]
        lam = min(nonzero) / 2
        assert ci_set(lambda_backend(sig, lam)) == truth


class TestFisherZ:
    def test_requires_enough_rows(self):
        with pytest.raises(ValueError, match="n >= p"):
            fisher_z_backend(np.zeros((6, 3)), TestConfig(alpha=0.01))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_data_names_the_data_entry(self, bad):
        # the entry of the data, not of the moment matrix built from it
        x = np.random.default_rng(84).standard_normal((50, 3))
        x[7, 2] = bad
        with pytest.raises(ValueError, match=rf"entry \(7, 2\) is {bad}, not a finite number"):
            fisher_z_backend(x, TestConfig(alpha=0.01))

    def test_statistic_formula(self):
        # The decision must be exactly: reject iff
        # sqrt(n - |S| - 3) * |atanh(rho_hat)| >= z_{1 - alpha/2}.
        rng = np.random.default_rng(83)
        x = rng.standard_normal((200, 4))
        cfg = TestConfig(alpha=0.05)
        be = fisher_z_backend(x, cfg)
        sig = (x.T @ x) / 200
        for j, k, s in iter_triples(4):
            rho = partial_correlation(sig, j, k, s)
            t = math.sqrt(200 - len(s) - 3) * abs(math.atanh(rho))
            assert be.statistic(j, k, s) == pytest.approx(t)
            assert be.is_independent(j, k, s) == (t < norm.ppf(1 - 0.05 / 2))

    @pytest.mark.parametrize("alpha", [0.001, 0.01, 0.05, 0.1, 0.2])
    def test_stacked_rule_answers_as_is_independent_at_the_level(self, alpha):
        # Hand-made inverses of every subset of p = 8 vertices set each
        # pair's |rho| to within 12 ulps of tanh(level / sqrt(n - |S| - 3)),
        # on both sides, where np.arctanh and math.atanh can round apart.
        # The stacked rule must answer every query as is_independent does,
        # both reading the same stacks.
        p, n = 8, 60
        rng = np.random.default_rng(97)
        be = fisher_z_backend(rng.standard_normal((n, p)), TestConfig(alpha=alpha))
        levels, queries = [], []
        for size in range(p + 1):
            subsets = list(combinations(range(p), size))  # the table's order
            inv = np.repeat(np.eye(size)[:, :, None], len(subsets), axis=2)
            if size >= 2:
                edge = math.tanh(be._level / math.sqrt(n - (size - 2) - 3))
                a, b = np.triu_indices(size, 1)
                steps = np.arange(a.size * len(subsets)).reshape(len(subsets), a.size).T % 25 - 12
                rho = (edge + steps * math.ulp(edge)) * rng.choice((-1, 1), steps.shape)
                inv[a, b] = inv[b, a] = -rho
            levels.append(inv)
            queries.append(subsets)
        be._table._levels = levels
        answers = []
        for size in range(2, p + 1):
            a, b = np.triu_indices(size, 1)
            ok, independent = be._decide(levels[size], a, b)
            assert ok.all()
            for (i, t), got in np.ndenumerate(independent):
                members = queries[size][t]
                j, k = members[a[i]], members[b[i]]
                rest = [v for v in members if v not in (j, k)]
                assert got == be.is_independent(j, k, rest), (j, k, rest)
                answers.append(got)
        assert 0.2 < np.mean(answers) < 0.8

    def test_perfect_correlation_dependent(self):
        rng = np.random.default_rng(89)
        col = rng.standard_normal(100)
        x = np.column_stack([col, col, rng.standard_normal(100)])
        be = fisher_z_backend(x, TestConfig(alpha=0.01))
        assert not be.is_independent(0, 1)
        assert be.collinear_warnings == 1
        assert be.statistic(0, 1) == math.inf

    def test_level_stays_finite_at_tiny_alpha(self):
        # 1 - alpha/2 rounds to 1 for alpha <= 1e-16; the level must not
        # become inf, which would call every pair independent
        rng = np.random.default_rng(7)
        x = np.cumsum(rng.standard_normal((300, 3)) * [1.0, 0.3, 0.3], axis=1)
        be = fisher_z_backend(x, TestConfig(alpha=1e-17))
        assert math.isfinite(be.statistic(0, 1))
        assert not be.is_independent(0, 1) and not be.is_independent(1, 2)
        got = sp_search(be)
        assert got.min_edges == 2
        assert got.winners == sp_search(fisher_z_backend(x, TestConfig(0.01))).winners

    def test_size_at_independent_pair(self):
        # 2000 replications at n=10000, alpha=0.01: the rejection rate
        # must land within 0.01 +/- 0.006.
        rng = np.random.default_rng(20240819)
        cfg = TestConfig(alpha=0.01)
        quantile = norm.ppf(1 - cfg.alpha / 2)
        rejections = 0
        n = 10_000
        for _ in range(2000):
            x = rng.standard_normal((n, 2))
            s00 = x[:, 0] @ x[:, 0]
            s01 = x[:, 0] @ x[:, 1]
            s11 = x[:, 1] @ x[:, 1]
            rho = s01 / math.sqrt(s00 * s11)
            t = math.sqrt(n - 3) * abs(math.atanh(rho))
            rejections += t >= quantile
        rate = rejections / 2000
        assert 0.004 <= rate <= 0.016

    def test_size_converges_with_n(self):
        # Type-I rate within 3 Monte-Carlo standard errors of alpha at
        # each sample size.
        alpha = 0.05
        reps = 1000
        band = 3 * math.sqrt(alpha * (1 - alpha) / reps)
        rng = np.random.default_rng(101)
        quantile = norm.ppf(1 - alpha / 2)
        for n in (500, 5000, 50000):
            rejections = 0
            for _ in range(reps):
                x = rng.standard_normal((n, 2))
                rho = (x[:, 0] @ x[:, 1]) / math.sqrt(
                    (x[:, 0] @ x[:, 0]) * (x[:, 1] @ x[:, 1])
                )
                rejections += math.sqrt(n - 3) * abs(math.atanh(rho)) >= quantile
            assert abs(rejections / reps - alpha) <= band, n

    def test_chain_power_and_size(self):
        # Faithful chain 0->1->2 at n=10000: the blocked query reads
        # independent at least 99% of the time, the adjacent one never.
        sem = LinearSem(CHAIN3, {(0, 1): 0.8, (1, 2): 0.8})
        rng = np.random.default_rng(107)
        cfg = TestConfig(alpha=0.001)
        hit = adjacent_dependent = 0
        for _ in range(200):
            be = fisher_z_backend(sample(sem, 10_000, rng), cfg)
            hit += be.is_independent(0, 2, {1})
            adjacent_dependent += not be.is_independent(0, 1)
        assert hit >= 198
        assert adjacent_dependent == 200


class TestFactoryRules:
    @settings(max_examples=40, deadline=None, database=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        p=st.integers(2, 5),
        tol=st.floats(1e-12, 0.5),
        lam=st.floats(0.001, 0.999),
        alpha=st.floats(0.001, 0.5),
    )
    def test_answers_follow_the_documented_rule(self, seed, p, tol, lam, alpha):
        # Reference rho from a full inverse, in arbitrary units: exact and
        # lambda call |rho| <= level independent, Fisher-z calls
        # sqrt(n - |S| - 3) * |atanh(rho)| < z_{1 - alpha/2} independent.
        rng = np.random.default_rng(seed)
        units = np.diag(10.0 ** rng.uniform(-3, 3, p))
        sigma = units @ random_spd(rng, p) @ units
        n = int(rng.integers(p + 4, 200))
        x = rng.standard_normal((n, p)) @ rng.standard_normal((p, p)) @ units

        def fisher(rho, s):
            return math.sqrt(n - len(s) - 3) * abs(math.atanh(rho))

        cases = (
            (gaussian_exact_backend(sigma, zero_tol=tol), sigma, tol, False),
            (lambda_backend(sigma, lam), sigma, lam, False),
            (fisher_z_backend(x, TestConfig(alpha=alpha)), x.T @ x / n,
             norm.ppf(1 - alpha / 2), True),
        )
        for be, moments, level, strict in cases:
            for j, k, s in iter_triples(p):
                rho = partial_corr_by_inverse(moments, j, k, s)
                t = fisher(rho, s) if strict else abs(rho)
                assert be.statistic(j, k, s) == pytest.approx(t, rel=1e-6, abs=1e-9)
                if abs(t - level) < 1e-9:
                    continue
                assert be.is_independent(j, k, s) == (t < level if strict else t <= level)
            assert be.collinear_warnings == 0


class TestCollinearRule:
    @settings(max_examples=30, deadline=None, database=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        p=st.integers(3, 6),
        exact_copy=st.booleans(),
        data=st.data(),
    )
    def test_relabeling_permutes_answers_and_keeps_the_count(self, seed, p, exact_copy, data):
        # The last column copies another, or is a combination of others
        # with coefficients of mixed sizes plus noise that puts some
        # members' conditional variances on either side of COLLINEAR_TOL.
        # Relabeled, every statistic and answer moves with its labels and
        # the collinear count stays, on the query path and the row path.
        rng = np.random.default_rng(seed)
        n = 200
        x = rng.standard_normal((n, p)) @ np.linalg.cholesky(random_spd(rng, p)).T
        if exact_copy:
            x[:, -1] = x[:, rng.integers(p - 1)]
        else:
            w = np.where(rng.random(p - 1) < 0.6, 1.0, 0.0)
            w[rng.integers(p - 1)] = 1.0
            w *= rng.choice((-1, 1), p - 1) * 10.0 ** rng.uniform(-1, 1, p - 1)
            x[:, -1] = x[:, :-1] @ w
            x[:, -1] += 10.0 ** rng.uniform(-7, -3) * x[:, -1].std() * rng.standard_normal(n)
        x *= 10.0 ** rng.uniform(-3, 3, p)
        perm = data.draw(st.permutations(range(p)))
        moved = x[:, perm]  # new vertex v is old vertex perm[v]

        def lifted(d):
            sigma = d.T @ d / n
            return lambda_backend(sigma + 1e-13 * np.diag(np.diag(sigma)), 0.1)

        def fisher(d):
            return fisher_z_backend(d, TestConfig(alpha=0.05))

        for make, level in ((fisher, norm.ppf(1 - 0.05 / 2)), (lifted, 0.1)):
            a, b = make(x), make(moved)
            for j, k, s in iter_triples(p):
                old = (perm[j], perm[k], [perm[v] for v in s])
                want, got = a.statistic(*old), b.statistic(j, k, s)
                assert not math.isnan(got)
                if want == math.inf:
                    assert got == math.inf
                else:
                    assert got == pytest.approx(want, rel=1e-6)
                same = a.is_independent(*old) == b.is_independent(j, k, s)
                assert same or abs(got - level) < 1e-6 * level
            assert a.collinear_warnings == b.collinear_warnings
            assert a.collinear_warnings > 0 or not exact_copy
            a, b = make(x), make(moved)
            sp_search(a)
            sp_search(b)
            assert a.collinear_warnings == b.collinear_warnings


    def test_count_is_the_set_of_collinear_queries(self):
        # Each pair and conditioning set is counted once, however often it
        # is asked: a repeated search leaves the count, and SP then SGS on
        # one backend counts the union of what each met alone.
        rng = np.random.default_rng(17)
        x = rng.standard_normal((500, 5))
        x[:, 4] = x[:, 1]

        def fresh():
            return fisher_z_backend(x, TestConfig(alpha=0.01))

        sp_only, sgs_only, both = fresh(), fresh(), fresh()
        sp_search(sp_only)
        sgs_skeleton(sgs_only)
        every = [q for q in iter_triples(5) if sp_only.statistic(*q) == math.inf]
        assert sp_only.collinear_warnings == len(every) > sgs_only.collinear_warnings > 0
        sp_search(both)
        sp_search(both)
        assert both.collinear_warnings == sp_only.collinear_warnings
        sgs_skeleton(both)
        assert both.collinear_warnings == len(sp_only._collinear | sgs_only._collinear)


class TestSubsetInverses:
    @pytest.mark.parametrize("p", [*range(11), 16])
    def test_each_size_is_numbered_as_combinations_lists_it(self, p):
        # SGS asks the subsets of one size in this order, so the table's
        # lowest-numbered independent subset is SGS's first separator
        members, masks, parents, row = _layout(p)
        assert len(members) == len(masks) == len(parents) == p + 1 and len(row) == 2**p
        for s in range(p + 1):
            subsets = list(combinations(range(p), s))
            assert members[s].shape == (s, len(subsets))
            assert list(map(tuple, members[s].T.tolist())) == subsets
            want = [sum(1 << v for v in c) for c in subsets]
            assert masks[s].tolist() == want and not masks[s].flags.writeable
            assert [row[m] for m in want] == list(range(len(subsets)))
            if s:
                assert parents[s].tolist() == [row[m ^ 1 << c[-1]] for m, c in zip(want, subsets)]
                assert not members[s].flags.writeable and not parents[s].flags.writeable
        assert parents[0] is None and not members[0].flags.writeable

    @settings(max_examples=40, deadline=None, database=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), p=st.integers(2, 7), mode=st.sampled_from([0, 1, 2]))
    def test_every_inverse_matches_the_reference(self, seed, p, mode):
        # Every subset's bordered inverse against a Cholesky solve of its
        # block, within a relative error that grows with the block's
        # condition number, on plain, duplicated and near-collinear
        # columns. A collinear subset is all NaN, and so is every
        # superset; every K is exactly symmetric.
        x = collinear_samples(np.random.default_rng(seed), p, mode)
        corr = _standardize(x.T @ x / len(x))
        table = _SubsetTable(corr)
        collinear = set()
        for mask in range(1, 2**p):
            members = [v for v in range(p) if mask >> v & 1]
            inv, t = table.locate(mask)
            got = inv[:, :, t]
            assert np.array_equal(got, got.T, equal_nan=True)
            if np.isnan(got).any():
                assert np.isnan(got).all()
                collinear.add(mask)
                continue
            assert not any(c & mask == c for c in collinear)
            want, margin = subset_inverse(corr, members)
            assert margin >= COLLINEAR_TOL / 10
            kappa = np.linalg.cond(corr[np.ix_(members, members)])
            assert np.abs(got - want).max() <= 1e-13 * kappa * np.abs(want).max()
        assert mode != 1 or 2**p - 1 in collinear  # an exact copy

    @settings(max_examples=40, deadline=None, database=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), p=st.integers(3, 7), mode=st.sampled_from([1, 2]))
    def test_the_collinear_verdict_matches_away_from_the_tolerance(self, seed, p, mode):
        # Where the reference's smallest conditional variance lies more
        # than a factor of 10 from COLLINEAR_TOL, both call the subset
        # collinear or both do not.
        x = collinear_samples(np.random.default_rng(seed), p, mode)
        corr = _standardize(x.T @ x / len(x))
        table = _SubsetTable(corr)
        for mask in range(3, 2**p):
            members = [v for v in range(p) if mask >> v & 1]
            _, margin = subset_inverse(corr, members)
            if COLLINEAR_TOL / 10 <= margin <= COLLINEAR_TOL * 10:
                continue
            inv, t = table.locate(mask)
            assert np.isnan(inv[:, :, t]).any() == (margin < COLLINEAR_TOL)

    def test_a_query_above_the_ceiling_inverts_its_subset_alone(self):
        # At p = 24 no index over the 2^p subsets is built: the query
        # answers from its own subset's inverse, matches the reference, and
        # allocates far less than 2^24 bytes.
        p = 24
        sigma = random_spd(np.random.default_rng(24), p)
        s = {1, 3, 5, 8, 13, 21, 22}
        want = partial_corr_by_inverse(sigma, 0, 23, s)
        tracemalloc.start()
        try:
            rho = partial_correlation(sigma, 0, 23, s)
            be = lambda_backend(sigma, abs(want) + 0.01)
            independent = be.is_independent(23, 0, s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rho == pytest.approx(want, rel=1e-10, abs=1e-12)
        assert independent and not lambda_backend(sigma, abs(want) / 2).is_independent(0, 23, s)
        assert be.subsets_factored == 1
        assert peak < 2**20

    @settings(max_examples=20, deadline=None, database=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), p=st.integers(2, 8), mode=st.sampled_from([0, 1, 2]))
    def test_one_subset_at_a_time_gives_the_bits_of_the_levels(self, seed, p, mode):
        # With the ceiling lowered below p, each subset is bordered on its
        # own along its members; every inverse, statistic, answer and the
        # collinear count are bit for bit those of the level table.
        x = collinear_samples(np.random.default_rng(seed), p, mode)
        levels = fisher_z_backend(x, TestConfig(alpha=0.2))
        with mock.patch("spdag.oracle.MAX_P_CEILING", 1):
            single = fisher_z_backend(x, TestConfig(alpha=0.2))
        for j, k, s in iter_triples(p):
            assert single.statistic(j, k, s) == levels.statistic(j, k, s)
            assert single.is_independent(j, k, s) == levels.is_independent(j, k, s)
        assert single.collinear_warnings == levels.collinear_warnings
        assert single.subsets_factored == levels.subsets_factored == 2**p - p - 1
        for mask in range(3, 2**p):
            (a, i), (b, j) = single._table.locate(mask), levels._table.locate(mask)
            assert a[:, :, i].tobytes() == b[:, :, j].tobytes()


class TestCachingWrapper:
    def test_transparent_and_counts(self):
        calls = []

        class Spy(type(dsep_backend(FOUR_CYCLE))):
            def is_independent(self, j, k, s=()):
                calls.append((j, k, frozenset(s)))
                return super().is_independent(j, k, s)

        inner = Spy(FOUR_CYCLE)
        be = caching_wrapper(inner)
        assert be.p == 4
        assert be.inner is inner
        first = [be.is_independent(j, k, s) for j, k, s in iter_triples(4)]
        n_calls = len(calls)
        again = [be.is_independent(j, k, s) for j, k, s in iter_triples(4)]
        swapped = [be.is_independent(k, j, s) for j, k, s in iter_triples(4)]
        assert first == again == swapped
        assert len(calls) == n_calls
        assert be.cache_size == n_calls

    def test_matches_every_backend(self):
        rng = np.random.default_rng(113)
        sem = random_sem_pool(113, 1, p_values=(4,))[0]
        sig = covariance_of(sem)
        for inner in (
            dsep_backend(sem.dag),
            gaussian_exact_backend(sig),
            fisher_z_backend(sample(sem, 300, rng), TestConfig(alpha=0.05)),
        ):
            wrapped = caching_wrapper(inner)
            order = list(iter_triples(4))
            rng.shuffle(order)
            for j, k, s in order * 2:
                assert wrapped.is_independent(j, k, s) == inner.is_independent(j, k, s)

    @pytest.mark.parametrize("bad", [
        (0, 4, ()),
        (-1, 1, ()),
        (0, 1, (7,)),
        (1, 1, ()),
        (0, 1, (0,)),
        (0, 1, (1, 2)),
    ])
    def test_invalid_queries_raise_through_the_cache(self, bad):
        sig = covariance_of(random_sem_pool(113, 1, p_values=(4,))[0])
        with pytest.raises(ValueError):
            d_separated(FOUR_CYCLE, *bad)
        with pytest.raises(ValueError):
            partial_correlation(sig, *bad)
        for inner in (
            dsep_backend(FOUR_CYCLE),
            explicit_backend(4, [(0, 1, (2,))]),
            gaussian_exact_backend(sig),
        ):
            be = caching_wrapper(inner)
            with pytest.raises(ValueError):
                be.is_independent(*bad)
            # a valid query on the same pair must not let the bad one through
            be.is_independent(0, 1, ())
            be.is_independent(1, 0, (2,))
            with pytest.raises(ValueError):
                be.is_independent(*bad)
            assert be.cache_size == 2


class TestCsvLoaders:
    def test_covariance_with_and_without_header(self, tmp_path):
        path = tmp_path / "cov.csv"
        path.write_text("a, b\n1.0,0.3\n0.3,1.0\n")
        m, names = load_covariance_csv(path)
        assert m.p == 2
        assert names == ["a", "b"]
        path.write_text("1.0,0.3\n0.3,1.0\n")
        bare, names = load_covariance_csv(path)
        assert names is None
        assert np.allclose(np.asarray(bare), np.asarray(m))
        path.write_text("a,b\n1.0,0.3,0.1\n0.3,1.0,0.2\n0.1,0.2,1.0\n")
        with pytest.raises(ValueError, match="header width 2 != data width 3"):
            load_covariance_csv(path)

    def test_samples_with_header(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("u,v\n1.0,2.0\n3.0,4.0\n")
        data, names = load_samples_csv(path)
        assert names == ["u", "v"]
        assert data.shape == (2, 2)

    def test_samples_without_header(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1.0,2.0\n3.0,4.0\n")
        data, names = load_samples_csv(path)
        assert names == ["x0", "x1"]
        assert data[1, 1] == 4.0

    def test_samples_parse_exactly_and_skip_blank_lines(self, tmp_path):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((50, 3)) * 10.0 ** rng.uniform(-8, 8, (50, 3))
        lines = [",".join(f"{v:.17g}" for v in row) for row in x]
        lines[10:10] = ["", "  ", " , ,"]
        path = tmp_path / "data.csv"
        path.write_text("\n" + "a, b ,c\n" + "\n".join(lines) + "\n\n")
        data, names = load_samples_csv(path)
        assert names == ["a", "b", "c"]
        assert data.tobytes() == x.tobytes()
        path.write_text("a,b,c\n1,2\n")
        with pytest.raises(ValueError, match="header width 3 != data width 2"):
            load_samples_csv(path)

    @pytest.mark.parametrize("load", [load_covariance_csv, load_samples_csv])
    def test_ragged_rows_name_the_file(self, tmp_path, load):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b,c\n1.0,0.0,0.0\n0.0,1.0\n0.0,0.0,1.0\n")
        with pytest.raises(ValueError, match=r"ragged\.csv: .*columns changed from 3 to 2"):
            load(path)

    @pytest.mark.parametrize("load", [load_covariance_csv, load_samples_csv])
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_entries_name_row_and_column(self, tmp_path, load, bad):
        path = tmp_path / "m.csv"
        path.write_text(f"a,b\n\n1.0,0.5\n , \n0.5,{bad}\n")
        with pytest.raises(ValueError, match=rf"m\.csv: data row 2, column b holds {bad},"):
            load(path)

    @pytest.mark.parametrize("load, column", [(load_covariance_csv, "1"), (load_samples_csv, "x1")])
    def test_headerless_files_name_columns_by_their_output_label(self, tmp_path, load, column):
        # sp learn labels a headerless covariance's vertices 0, 1, ... and a
        # headerless sample's columns x0, x1, ...
        path = tmp_path / "m.csv"
        path.write_text("1.0,0.5\n0.5,nan\n")
        with pytest.raises(ValueError, match=rf"data row 2, column {column} holds nan,"):
            load(path)

    @pytest.mark.parametrize("load", [load_covariance_csv, load_samples_csv])
    def test_repeated_header_name_is_rejected(self, tmp_path, load):
        path = tmp_path / "dup.csv"
        path.write_text("a, b ,a\n1.0,0.0,0.0\n0.0,1.0,0.0\n0.0,0.0,1.0\n")
        with pytest.raises(ValueError, match=r"dup\.csv: column name 'a' is repeated"):
            load(path)

    @pytest.mark.parametrize("load", [load_covariance_csv, load_samples_csv])
    @pytest.mark.parametrize("header", ["a,b\n", ""], ids=["header", "headerless"])
    def test_byte_order_mark_is_skipped(self, tmp_path, load, header):
        # spreadsheet programs start a UTF-8 CSV with a byte-order mark
        text = header + "1.0,0.3\n0.3,1.0\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        (m, names), (m_plain, names_plain) = load(marked), load(plain)
        assert names == names_plain
        assert np.asarray(m).tobytes() == np.asarray(m_plain).tobytes()

    @pytest.mark.parametrize("load", [load_covariance_csv, load_samples_csv])
    @pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["LF", "CRLF"])
    @pytest.mark.parametrize("lead", ["", "\n"], ids=["numpy", "lines"])
    def test_a_quoted_header_name_may_hold_a_line_break(self, tmp_path, load, end, lead):
        # the header is one CSV record, read on past the break inside the
        # quotes; a blank first line sends the file down the line reader
        path = tmp_path / "m.csv"
        path.write_bytes((lead + f'a,"g{end}h"{end}1.0,0.5{end}0.5,1.0{end}').encode())
        matrix, names = load(path)
        assert names == ["a", f"g{end}h"]
        assert np.asarray(matrix).tolist() == [[1.0, 0.5], [0.5, 1.0]]
        assert read_csv(path, "sample", "x")[1:] == (names, True)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "nothing.csv"
        path.write_text("")
        with pytest.raises(ValueError):
            load_covariance_csv(path)
        with pytest.raises(ValueError):
            load_samples_csv(path)

    @pytest.mark.parametrize("load", [load_covariance_csv, load_samples_csv])
    def test_hash_is_an_ordinary_character(self, tmp_path, load):
        # "#" starts no comment: it is part of a header name, and a data
        # field holding it is not a number, named by its row and column
        path = tmp_path / "m.csv"
        path.write_text("#a,b\n1.0,0.5\n0.5,1.0\n")
        assert load(path)[1] == ["#a", "b"]
        for text, field, where in [("a,b\n#c\n", "#c", "row 0, column 1"),
                                   ("a,b\n1.0,0.5\n0.5,1.0 # note\n", "1.0 # note",
                                    "row 1, column 2")]:
            path.write_text(text)
            with warnings.catch_warnings(record=True) as caught, \
                    pytest.raises(ValueError) as err:
                warnings.simplefilter("always")
                load(path)
            assert not caught
            assert str(err.value) == (
                f"{path}: could not convert string {field!r} to float64 at {where}.")

    @pytest.mark.parametrize("load", [load_covariance_csv, load_samples_csv])
    @pytest.mark.parametrize("after", ["", "\n", "\n1.0,0.5\n0.5,1.0\n"],
                             ids=["header-only", "empty-line", "empty-line-then-rows"])
    def test_a_header_without_a_row_after_it_leaves_warnings_alone(self, tmp_path,
                                                                     monkeypatch, load, after):
        # numpy warns on a file with no data rows; the reader sends such a
        # file to the line reader rather than silence numpy, so numpy
        # always runs under the caller's warning filters
        path = tmp_path / "m.csv"
        path.write_text("a,b\n" + after.lstrip("\n"))
        want = load(path) if after.strip() else f"{path}: header but no data rows"
        path.write_text("a,b\n" + after)
        loadtxt = np.loadtxt

        def loadtxt_under_the_same_filters(*args, **kwargs):
            assert warnings.filters is filters and warnings.filters == before
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", loadtxt_under_the_same_filters)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            filters, before = warnings.filters, list(warnings.filters)
            try:
                got = load(path)
            except ValueError as err:
                got = str(err)
            assert warnings.filters is filters and warnings.filters == before
        assert not caught, [str(w.message) for w in caught]
        if isinstance(want, str):
            assert got == want
        else:
            assert got[1] == want[1] == ["a", "b"]
            assert np.asarray(got[0]).tobytes() == np.asarray(want[0]).tobytes()

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
    @pytest.mark.parametrize("bom", ["", "\ufeff"], ids=["plain", "bom"])
    @pytest.mark.parametrize("header", [True, False], ids=["header", "headerless"])
    def test_clean_files_never_become_a_list_of_lines(self, tmp_path, monkeypatch,
                                                       header, bom, end):
        # the line reader is only for files numpy rejects or warns on, and
        # an empty line is not one of them
        x = np.random.default_rng(5).standard_normal((200, 4))
        lines = [",".join(f"{v:.17g}" for v in row) for row in x]
        lines[100:100] = [""]
        path = tmp_path / "data.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(bom + end.join(["a,b,c,d"] * header + lines) + end)
        monkeypatch.setattr(oracle, "_read_csv_lines", None)
        data, names = load_samples_csv(path)
        assert data.tobytes() == x.tobytes()
        assert names == (["a", "b", "c", "d"] if header else ["x0", "x1", "x2", "x3"])


# CSV fields: numbers, numbers spread over two lines by a quote (one with a
# skipped line inside), non-finite values, non-numbers, and "#"s
NUMBERS = ["0", "1", "-2.5", "1e-3", " 3 ", '"4"', "1e308", "-0.0", "5.", '"6\n"',
           '"\n7"', '"8\n\n"']
NON_FINITE = ["nan", "inf", "-inf", "NaN", "Infinity", "1e999"]
JUNK = ["x", "", " ", '""', '"9\n,\n"', "1#2", "#", "#c", "4 # note"]
# header names: repeated, a number, quoted with the separator or a newline, with "#"
NAMES = ["a", "b", "c", " d ", "a", '"e,f"', "1", '"g\nh"', "#i", "#"]
# lines of only commas and whitespace, which the reader skips
SKIPPED = ["", " ", "\t", ",", " , ", ",,", "\x0c"]
ENDS = ["\n", "\r\n", "\r"]


@st.composite
def csv_texts(draw):
    """A small CSV text, perhaps under a header, at times spoilt: a row of
    another width, a field not a finite number, a skipped line anywhere,
    mixed line ends or none at the end, and a byte order mark."""
    p = draw(st.integers(1, 4))
    finite = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    number = st.one_of(finite, finite, finite, st.sampled_from(NUMBERS))
    rows = [[draw(number) for _ in range(p)] for _ in range(draw(st.integers(0, 5)))]
    if draw(st.booleans()):
        width = max(1, p + draw(st.sampled_from([0, 0, 0, -1, 1])))
        rows.insert(0, [draw(st.sampled_from(NAMES)) for _ in range(width)])
    if rows and draw(st.integers(0, 3)) == 0:
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(NON_FINITE + JUNK))
    if rows and draw(st.integers(0, 5)) == 0:
        row = draw(st.sampled_from(rows))
        row.append("1") if draw(st.booleans()) or len(row) == 1 else row.pop()
    lines = [",".join(row) for row in rows]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(SKIPPED)))
    ends = draw(st.lists(st.sampled_from(ENDS), min_size=1, max_size=2))
    text = "".join(line + draw(st.sampled_from(ends)) for line in lines)
    if lines and draw(st.integers(0, 3)) == 0:
        text = text.rstrip("\r\n")
    return draw(st.sampled_from(["", "\ufeff"])) + text


class TestCsvReaderAgainstLines:
    """_read_csv hands the open file to numpy and reads the lines again
    only where numpy rejects or warns; the reader that always read a list
    of lines, reference.read_csv, must agree with it on every text.

    The one rule that changed is "#": the reference passed numpy's
    default comment marker through, and "#" is now an ordinary character.
    So each text is checked against the reference on the same text with
    every "#" made a "z", a letter no text here otherwise holds, which no
    number holds either and which no reader treats specially.
    """

    @staticmethod
    def outcome(read, path):
        """The numbers' bits, the names and the header flag, or the error;
        a warning, which sp would print as more lines, fails the test."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                data, names, named = read(path, "sample", "x")
                got = data.shape, data.tobytes(), names, named
            except ValueError as err:
                got = str(err).replace(str(path), "PATH")
        assert not caught, [str(w.message) for w in caught]
        return got

    @settings(max_examples=600, deadline=None, database=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=csv_texts())
    def test_same_numbers_names_and_errors(self, tmp_path, text):
        assert "z" not in text
        path, ref_path = tmp_path / "data.csv", tmp_path / "ref.csv"
        for where, body in ((path, text), (ref_path, text.replace("#", "z"))):
            with open(where, "w", encoding="utf-8", newline="") as fh:
                fh.write(body)
        got = self.outcome(oracle._read_csv, path)
        if isinstance(got, str):
            got = got.replace("#", "z")
        else:
            got = got[:2] + ([name.replace("#", "z") for name in got[2]], got[3])
        assert got == self.outcome(read_csv, ref_path)
