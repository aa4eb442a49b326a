"""Conditional-independence query backends behind one interface.

Every learner in this package asks one kind of question: is X_j
independent of X_k given X_S. :class:`CiBackend` fixes that surface and
four interchangeable answer sources implement it:

* :func:`dsep_backend` answers from a known graph via d-separation,
* :func:`explicit_backend` answers from a hand-listed set of triples,
* :func:`gaussian_exact_backend` thresholds exact partial correlations
  of a population covariance at a numerical zero,
* :func:`lambda_backend` thresholds them at a coarse level lambda,
* :func:`fisher_z_backend` runs the z-transform test on sample data.

All backends are deterministic, symmetric in the queried pair, and
read-only after construction. :func:`caching_wrapper` memoizes any of
them on canonicalized queries.
"""

from __future__ import annotations

import csv
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.stats import norm

from .exceptions import NumericalError
from .graph import Dag, d_separated

COLLINEAR_TOL = 1e-10

__all__ = [
    "CiBackend",
    "TestConfig",
    "CovarianceMatrix",
    "DSepBackend",
    "ExplicitBackend",
    "GaussianExactBackend",
    "LambdaBackend",
    "FisherZBackend",
    "CachingBackend",
    "dsep_backend",
    "explicit_backend",
    "gaussian_exact_backend",
    "lambda_backend",
    "fisher_z_backend",
    "caching_wrapper",
    "partial_correlation",
    "iter_triples",
    "load_covariance_csv",
    "load_samples_csv",
]


@dataclass(frozen=True)
class TestConfig:
    """Knobs shared by the numerical backends.

    alpha is the test size used by the Fisher-z backend; zero_tol is the
    absolute threshold under which the exact backend calls a partial
    correlation zero.
    """

    __test__ = False  # not a pytest class despite the name

    alpha: float = 0.01
    zero_tol: float = 1e-9

    def __post_init__(self):
        if not 0 < self.alpha < 1:
            raise ValueError(f"alpha must lie in (0,1), got {self.alpha}")
        if not self.zero_tol > 0:
            raise ValueError(f"zero_tol must be positive, got {self.zero_tol}")


class CovarianceMatrix:
    """A validated symmetric positive-definite matrix.

    Construction symmetrizes within a 1e-12 relative tolerance, confirms
    positive definiteness by factorizing, and freezes the entries.
    """

    __slots__ = ("_values",)

    def __init__(self, values):
        a = np.array(values, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        scale = max(float(np.max(np.abs(a))), 1e-300)
        if float(np.max(np.abs(a - a.T))) > 1e-12 * scale:
            raise ValueError("matrix is not symmetric (relative tolerance 1e-12)")
        a = (a + a.T) / 2.0
        try:
            np.linalg.cholesky(a)
        except np.linalg.LinAlgError:
            raise ValueError("matrix is not positive definite") from None
        a.setflags(write=False)
        self._values = a

    @property
    def values(self) -> np.ndarray:
        return self._values

    @property
    def p(self) -> int:
        return self._values.shape[0]

    def __array__(self, dtype=None, copy=None):
        a = self._values
        if dtype is not None:
            a = a.astype(dtype, copy=False)
        return a.copy() if copy else a

    def __repr__(self) -> str:
        return f"CovarianceMatrix(p={self.p})"


def _as_matrix(sigma) -> np.ndarray:
    if isinstance(sigma, CovarianceMatrix):
        return sigma.values
    return np.asarray(sigma, dtype=float)


def _canonical_triple(p: int, j: int, k: int, s: Iterable[int]):
    """Validate a query and return (min, max, frozen conditioning set)."""
    j, k = int(j), int(k)
    if not (0 <= j < p and 0 <= k < p):
        raise ValueError(f"query pair ({j}, {k}) out of range for p={p}")
    if j == k:
        raise ValueError("independence queries need two distinct vertices")
    s = frozenset(int(v) for v in s)
    for v in s:
        if not 0 <= v < p:
            raise ValueError(f"conditioning vertex {v} out of range for p={p}")
    if j in s or k in s:
        raise ValueError("conditioning set must exclude the queried pair")
    return (j, k, s) if j < k else (k, j, s)


def iter_triples(p: int) -> Iterator[tuple[int, int, frozenset[int]]]:
    """All queries (j, k, S) with j < k, S by size then lexicographic order."""
    for j, k in combinations(range(p), 2):
        rest = [v for v in range(p) if v != j and v != k]
        for size in range(len(rest) + 1):
            for s in combinations(rest, size):
                yield j, k, frozenset(s)


class CiBackend(ABC):
    """Answers conditional-independence queries over vertices 0..p-1."""

    @property
    @abstractmethod
    def p(self) -> int:
        """Number of variables."""

    @abstractmethod
    def is_independent(self, j: int, k: int, s: Iterable[int] = ()) -> bool:
        """True when X_j and X_k test independent given X_s."""


class DSepBackend(CiBackend):
    """Oracle backend: independence is d-separation in a known graph."""

    def __init__(self, g: Dag):
        self._g = g

    @property
    def p(self) -> int:
        return self._g.p

    @property
    def graph(self) -> Dag:
        return self._g

    def is_independent(self, j, k, s=()):
        j, k, s = _canonical_triple(self.p, j, k, s)
        return d_separated(self._g, j, k, s)


class ExplicitBackend(CiBackend):
    """Backend defined by a hand-listed set of independent triples."""

    def __init__(self, p: int, independent_triples):
        p = int(p)
        if p < 0:
            raise ValueError("p must be nonnegative")
        canon = set()
        for triple in independent_triples:
            try:
                j, k, s = triple
            except (TypeError, ValueError):
                raise ValueError(f"malformed triple {triple!r}") from None
            canon.add(_canonical_triple(p, j, k, s))
        self._p = p
        self._triples = frozenset(canon)

    @property
    def p(self) -> int:
        return self._p

    @property
    def triples(self) -> frozenset:
        return self._triples

    def is_independent(self, j, k, s=()):
        return _canonical_triple(self._p, j, k, s) in self._triples


def partial_correlation(sigma, j: int, k: int, s: Iterable[int] = ()) -> float:
    """Partial correlation of variables j and k given the set s.

    Forms the 2x2 conditional covariance of (j, k) given s by Schur
    complement, solving against a symmetric factorization of the s-block
    rather than inverting it, then normalizes the off-diagonal entry.
    With empty s this is the plain correlation.

    Raises
    ------
    NumericalError
        When the s-block fails to factorize; the offending subset is
        attached to the exception.
    """
    m = _as_matrix(sigma)
    p = m.shape[0]
    j, k, s = _canonical_triple(p, j, k, s)
    pair = (j, k)
    if s:
        s_idx = sorted(s)
        block = m[np.ix_(s_idx, s_idx)]
        cross = m[np.ix_(pair, s_idx)]
        try:
            factor = cho_factor(block, lower=True)
        except np.linalg.LinAlgError:
            raise NumericalError(
                f"conditioning block for subset {s_idx} is not positive definite",
                subset=s_idx,
            ) from None
        cond = m[np.ix_(pair, pair)] - cross @ cho_solve(factor, cross.T)
    else:
        cond = m[np.ix_(pair, pair)]
    vjj, vkk = float(cond[0, 0]), float(cond[1, 1])
    if vjj <= 0 or vkk <= 0:
        raise NumericalError(
            f"conditional variances for pair ({j}, {k}) given {sorted(s)} "
            "are not positive",
            subset=s,
        )
    return float(cond[0, 1]) / math.sqrt(vjj * vkk)


class GaussianExactBackend(CiBackend):
    """Thresholds exact partial correlations of a population covariance."""

    def __init__(self, sigma, cfg: TestConfig | None = None, *, zero_tol=None):
        if not isinstance(sigma, CovarianceMatrix):
            sigma = CovarianceMatrix(sigma)
        if zero_tol is None:
            zero_tol = cfg.zero_tol if cfg is not None else TestConfig().zero_tol
        if not zero_tol > 0:
            raise ValueError("zero_tol must be positive")
        self._sigma = sigma
        self._zero_tol = float(zero_tol)

    @property
    def p(self) -> int:
        return self._sigma.p

    @property
    def sigma(self) -> CovarianceMatrix:
        return self._sigma

    @property
    def zero_tol(self) -> float:
        return self._zero_tol

    def is_independent(self, j, k, s=()):
        j, k, s = _canonical_triple(self.p, j, k, s)
        return abs(partial_correlation(self._sigma, j, k, s)) <= self._zero_tol


class LambdaBackend(CiBackend):
    """Calls a pair independent when its partial correlation is small.

    The level lambda is a modeling knob, not a numerical tolerance:
    every triple with |partial correlation| <= lambda is independent.
    """

    def __init__(self, sigma, lam: float):
        if not isinstance(sigma, CovarianceMatrix):
            sigma = CovarianceMatrix(sigma)
        lam = float(lam)
        if not 0 < lam < 1:
            raise ValueError(f"lambda must lie in (0,1), got {lam}")
        self._sigma = sigma
        self._lam = lam

    @property
    def p(self) -> int:
        return self._sigma.p

    @property
    def lam(self) -> float:
        return self._lam

    def is_independent(self, j, k, s=()):
        j, k, s = _canonical_triple(self.p, j, k, s)
        return abs(partial_correlation(self._sigma, j, k, s)) <= self._lam


class FisherZBackend(CiBackend):
    """Finite-sample backend: z-transform test on sample partial correlations.

    The sample covariance is the uncentered 1/n moment matrix, computed
    once and standardized to unit diagonal. A query takes one Cholesky
    factor L of the standardized block over S + [j, k]; the sample
    partial correlation is rho = L[-1,-2] / hypot(L[-1,-2], L[-1,-1]).
    The pair is independent iff sqrt(n - |S| - 3) * |atanh(rho)| stays
    below the two-sided normal quantile for the configured alpha.
    Collinear queries, where the factorization fails or a squared pivot
    (a standardized conditional variance) falls below 1e-10, count as
    dependent and bump :attr:`collinear_warnings`.
    """

    def __init__(self, data, cfg: TestConfig):
        x = np.asarray(data, dtype=float)
        if x.ndim != 2:
            raise ValueError(f"expected an n x p sample matrix, got shape {x.shape}")
        n, p = x.shape
        if n < p + 4:
            raise ValueError(
                f"need n >= p + 4 samples for the z test (got n={n}, p={p})"
            )
        self._sigma_hat = (x.T @ x) / n
        scale = np.sqrt(np.diag(self._sigma_hat))
        scale[scale == 0] = 1.0  # an all-zero column stays zero: collinear
        self._corr = self._sigma_hat / np.outer(scale, scale)
        self._n = n
        self._p = p
        self._alpha = cfg.alpha
        self._quantile = float(norm.ppf(1 - cfg.alpha / 2))
        self.collinear_warnings = 0

    @property
    def p(self) -> int:
        return self._p

    @property
    def n(self) -> int:
        return self._n

    @property
    def alpha(self) -> float:
        return self._alpha

    @property
    def sample_covariance(self) -> np.ndarray:
        return self._sigma_hat.copy()

    def _statistic(self, j, k, s) -> float:
        idx = [*sorted(s), j, k]
        try:
            low = np.linalg.cholesky(self._corr.take(idx, 0).take(idx, 1))
        except np.linalg.LinAlgError:
            return math.inf
        if not low.diagonal().min() ** 2 >= COLLINEAR_TOL:  # NaN fails too
            return math.inf
        c, d = float(low[-1, -2]), float(low[-1, -1])
        return math.sqrt(self._n - len(s) - 3) * abs(math.atanh(c / math.hypot(c, d)))

    def statistic(self, j, k, s=()) -> float:
        """The test statistic sqrt(n - |S| - 3) * |atanh(rho_hat)|.

        Returns inf for collinear queries.
        """
        return self._statistic(*_canonical_triple(self._p, j, k, s))

    def is_independent(self, j, k, s=()):
        t = self._statistic(*_canonical_triple(self._p, j, k, s))
        if t == math.inf:
            self.collinear_warnings += 1
            return False
        return t < self._quantile


class CachingBackend(CiBackend):
    """Memoizes an inner backend on canonicalized queries.

    Transparent: answers are exactly the inner backend's. Queries are
    keyed on (min(j,k), max(j,k), frozenset(s)), so the two orderings of
    a pair share one entry.
    """

    def __init__(self, inner: CiBackend):
        self._inner = inner
        self._cache: dict = {}

    @property
    def p(self) -> int:
        return self._inner.p

    @property
    def inner(self) -> CiBackend:
        return self._inner

    @property
    def cache_size(self) -> int:
        return len(self._cache)

    def is_independent(self, j, k, s=()):
        key = _canonical_triple(self._inner.p, j, k, s)
        hit = self._cache.get(key)
        if hit is None:
            hit = self._inner.is_independent(*key)
            self._cache[key] = hit
        return hit


def dsep_backend(g: Dag) -> DSepBackend:
    """Oracle backend answering by d-separation in ``g``."""
    return DSepBackend(g)


def explicit_backend(p: int, independent_triples) -> ExplicitBackend:
    """Backend answering by membership in a fixed set of triples."""
    return ExplicitBackend(p, independent_triples)


def gaussian_exact_backend(sigma, cfg: TestConfig | None = None, *, zero_tol=None):
    """Exact-zero thresholding of population partial correlations."""
    return GaussianExactBackend(sigma, cfg, zero_tol=zero_tol)


def lambda_backend(sigma, lam: float) -> LambdaBackend:
    """Coarse thresholding of population partial correlations at ``lam``."""
    return LambdaBackend(sigma, lam)


def fisher_z_backend(data, cfg: TestConfig) -> FisherZBackend:
    """Finite-sample z-transform testing backend at size ``cfg.alpha``."""
    return FisherZBackend(data, cfg)


def caching_wrapper(inner: CiBackend) -> CachingBackend:
    """Memoize ``inner``; answer-identical, one entry per canonical query."""
    return CachingBackend(inner)


def _sniff_header(first_line: str) -> bool:
    """True when the first CSV line cannot be parsed as numbers."""
    for field in first_line.strip().split(","):
        try:
            float(field)
        except ValueError:
            return True
    return False


def load_covariance_csv(path) -> CovarianceMatrix:
    """Read a p x p covariance from CSV; a non-numeric header row is skipped."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = [row for row in csv.reader(fh) if row and any(f.strip() for f in row)]
    if not rows:
        raise ValueError(f"{path}: empty covariance file")
    if _sniff_header(",".join(rows[0])):
        rows = rows[1:]
    data = np.array([[float(f) for f in row] for row in rows], dtype=float)
    return CovarianceMatrix(data)


def load_samples_csv(path) -> tuple[np.ndarray, list[str]]:
    """Read an n x p sample matrix from CSV.

    The expected layout has a header row of variable names; a purely
    numeric first row is accepted as data, in which case names default
    to x0..x{p-1}. Returns (data, names). A NaN or infinite entry is
    rejected with the 1-based data row and the column name.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = [row for row in csv.reader(fh) if row and any(f.strip() for f in row)]
    if not rows:
        raise ValueError(f"{path}: empty sample file")
    if _sniff_header(",".join(rows[0])):
        names = [f.strip() for f in rows[0]]
        rows = rows[1:]
    else:
        names = [f"x{i}" for i in range(len(rows[0]))]
    if not rows:
        raise ValueError(f"{path}: header but no data rows")
    data = np.array([[float(f) for f in row] for row in rows], dtype=float)
    if data.shape[1] != len(names):
        raise ValueError(f"{path}: header width {len(names)} != data width {data.shape[1]}")
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        r, c = bad[0]
        raise ValueError(
            f"{path}: data row {r + 1}, column {names[c]} holds {data[r, c]}, "
            "not a finite number"
        )
    return data, names
