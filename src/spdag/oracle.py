"""Conditional-independence query backends behind one interface.

Every learner in this package asks one kind of question: is X_j
independent of X_k given X_S. :class:`CiBackend` fixes that surface and
three answer sources implement it:

* :func:`dsep_backend` answers from a known graph via d-separation,
* :func:`explicit_backend` answers from a hand-listed set of triples,
* :class:`PartialCorrelationBackend` thresholds a partial correlation of
  a second-moment matrix, read from a lazily filled table that holds one
  inverse per vertex subset. Its factories fix the rule:
  :func:`gaussian_exact_backend` calls |rho| at or below a numerical
  zero independent, :func:`lambda_backend` does the same at a coarse
  level lambda, and :func:`fisher_z_backend` runs the z-transform test
  on sample data. On every rule a pair in a collinear subset counts as
  dependent and is counted in ``collinear_warnings``.

All backends are deterministic and symmetric in the queried pair.
:func:`caching_wrapper` memoizes any of them on canonicalized queries.
"""

from __future__ import annotations

import csv
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from itertools import combinations, repeat
from statistics import NormalDist
from typing import Iterable, Iterator

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .exceptions import NumericalError
from .graph import Dag, _bits, _canonical_query, _d_separated

COLLINEAR_TOL = 1e-10

__all__ = [
    "CiBackend",
    "TestConfig",
    "CovarianceMatrix",
    "DSepBackend",
    "ExplicitBackend",
    "PartialCorrelationBackend",
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
    """The test size alpha used by the Fisher-z backend."""

    __test__ = False  # not a pytest class despite the name

    alpha: float = 0.01

    def __post_init__(self):
        if not 0 < self.alpha / 2 < 0.5:
            raise ValueError(f"alpha must lie in (0,1) with alpha/2 > 0, got {self.alpha}")


class CovarianceMatrix:
    """A validated symmetric positive-definite matrix.

    Construction rejects a NaN or infinite entry, symmetrizes within a
    1e-12 relative tolerance, confirms positive definiteness by
    factorizing, and freezes the entries.
    """

    __slots__ = ("_values",)

    def __init__(self, values):
        a = np.array(values, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        _check_finite(a)
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


def _check_finite(a: np.ndarray) -> None:
    bad = np.argwhere(~np.isfinite(a))
    if bad.size:
        r, c = bad[0]
        raise ValueError(f"matrix entry ({r}, {c}) is {a[r, c]}, not a finite number")


def _as_matrix(sigma) -> np.ndarray:
    if isinstance(sigma, CovarianceMatrix):
        return sigma.values
    a = np.asarray(sigma, dtype=float)
    _check_finite(a)
    return a


def _pair_subsets(p: int, j: int, k: int) -> Iterator[tuple[int, ...]]:
    """Every conditioning set for the pair (j, k), by size then lexicographic order."""
    rest = [v for v in range(p) if v != j and v != k]
    for size in range(len(rest) + 1):
        yield from combinations(rest, size)


def iter_triples(p: int) -> Iterator[tuple[int, int, frozenset[int]]]:
    """All queries (j, k, S) with j < k, S by size then lexicographic order."""
    for j, k in combinations(range(p), 2):
        for s in _pair_subsets(p, j, k):
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
        return _d_separated(self._g, *_canonical_query(self.p, j, k, s))


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
            canon.add(_canonical_query(p, j, k, s))
        self._p = p
        self._keys = frozenset(canon)

    @property
    def p(self) -> int:
        return self._p

    def is_independent(self, j, k, s=()):
        return _canonical_query(self._p, j, k, s) in self._keys


def _standardize(moments) -> np.ndarray:
    """A second-moment matrix scaled to unit diagonal.

    An all-zero variable keeps its zero row, so every block holding it
    is collinear.
    """
    m = _as_matrix(moments)
    scale = np.sqrt(np.diag(m))
    scale[scale == 0] = 1.0
    return m / np.outer(scale, scale)


def _rank(mask: int, v: int) -> int:
    """Position of member v among the members of mask, in ascending order."""
    return (mask & ((1 << v) - 1)).bit_count()


class _SubsetTable(dict):
    """The inverse K = corr[T, T]^-1 for each vertex subset T, on first use.

    Keyed by bitmask; each subset is factored once for the table's
    lifetime. K comes from one dpotrf and one dpotrs against the
    identity, not dpotri: with OpenBLAS on more than one thread, a fresh
    process stalled in its first dpotri calls for about a second. Readers
    take K_jk from the upper triangle only, so both orders of a pair read
    one value.

    The entry is None when T is collinear: the factorization fails or
    some member's conditional variance given the rest of T, 1/K_ii,
    falls below COLLINEAR_TOL. The rule looks at every member alike, so
    it does not depend on how the variables are labeled.
    """

    def __init__(self, corr: np.ndarray):
        super().__init__()
        self._corr = corr
        self._eye = [np.eye(n) for n in range(corr.shape[0] + 1)]

    def __missing__(self, mask: int) -> np.ndarray | None:
        members = tuple(_bits(mask))
        block = self._corr.take(members, 0).take(members, 1)
        low, info = dpotrf(block.T, overwrite_a=1)  # block.T: same matrix, Fortran order
        inv = None
        if not info:
            inv, info = dpotrs(low, self._eye[len(members)])
            diag = inv.diagonal().tolist()
            if info or not all(0 < kii * COLLINEAR_TOL <= 1 for kii in diag):  # NaN fails too
                inv = None
        self[mask] = inv
        return inv

    def column(self, mask: int, k: int):
        """For T = mask + {k}: (j, K_jk, K_jj, K_kk) for each j in mask, j ascending.

        The one reader of a column: an empty mask yields nothing and
        factors nothing, and a collinear T yields NaN for every value.
        """
        if not mask:
            return ()
        t = mask | 1 << k
        inv = self[t]
        if inv is None:
            return ((j, math.nan, math.nan, math.nan) for j in _bits(mask))
        b = _rank(t, k)
        diag = inv.diagonal().tolist()
        kkk = diag.pop(b)
        col = inv[:b, b].tolist() + inv[b, b + 1 :].tolist()
        return zip(_bits(mask), col, diag, repeat(kkk))


def partial_correlation(sigma, j: int, k: int, s: Iterable[int] = ()) -> float:
    """Partial correlation of variables j and k given the set s.

    Standardizes sigma to unit diagonal and reads the value from the
    inverse K of the block over s + {j, k} as -K_jk / sqrt(K_jj K_kk),
    exactly as :class:`PartialCorrelationBackend` does. With empty s
    this is the plain correlation.

    Raises
    ------
    NumericalError
        When the block is collinear; the conditioning set is attached
        to the exception.
    """
    be = PartialCorrelationBackend(sigma, 0.0)
    j, k, s_mask = _canonical_query(be.p, j, k, s)
    rho = be._rho(j, k, s_mask)
    if not abs(rho) < 1:
        s = list(_bits(s_mask))
        raise NumericalError(f"block over {s} + ({j}, {k}) is collinear", subset=s)
    return rho


class PartialCorrelationBackend(CiBackend):
    """Thresholds the partial correlations of a second-moment matrix.

    The matrix is standardized once. Every answer about a subset T comes
    from one table entry, the inverse K = corr[T, T]^-1, filled on first
    use: the partial correlation of j and k given the rest of T is
    -K_jk / sqrt(K_jj K_kk). Without n the pair is independent iff
    |rho| <= level (the exact and lambda rules). With n it is independent
    iff sqrt(n - |S| - 3) * |atanh(rho)| < level (the Fisher-z rule,
    level being the two-sided normal quantile). On every rule a pair in
    a collinear subset, or with |rho| >= 1 from rounding, counts as
    dependent and is recorded; :attr:`collinear_warnings` counts each
    such query once, however often it is asked.
    """

    def __init__(self, moments, level: float, n: int | None = None):
        self._corr = _standardize(moments)
        self._level = float(level)
        self._n = n
        self._table = _SubsetTable(self._corr)
        self._collinear: set = set()

    @property
    def p(self) -> int:
        return self._corr.shape[0]

    @property
    def collinear_warnings(self) -> int:
        """How many distinct queries, pair and conditioning set, met a collinear subset."""
        return len(self._collinear)

    @property
    def subsets_factored(self) -> int:
        """How many vertex subsets have been inverted so far."""
        return len(self._table)

    def _rho(self, j: int, k: int, s_mask: int) -> float:
        """rho of a canonical query from its subset's entry; NaN when collinear."""
        mask = s_mask | 1 << j | 1 << k
        inv = self._table[mask]
        if inv is None:
            return math.nan
        a, b = _rank(mask, j), _rank(mask, k)
        return -inv.item(a, b) / math.sqrt(inv.item(a, a) * inv.item(b, b))

    def _rule(self, rho: float, size: int) -> float:
        """The statistic given |S| = size; inf when |rho| >= 1 or NaN."""
        if not abs(rho) < 1:
            return math.inf
        if self._n is None:
            return abs(rho)
        return math.sqrt(self._n - size - 3) * abs(math.atanh(rho))

    def _independent(self, t: float) -> bool:
        return t <= self._level if self._n is None else t < self._level

    def _statistic(self, j: int, k: int, s_mask: int) -> float:
        return self._rule(self._rho(j, k, s_mask), s_mask.bit_count())

    def statistic(self, j, k, s=()) -> float:
        """The number the rule compares with the level; inf when collinear.

        That is |rho| without n and sqrt(n - |S| - 3) * |atanh(rho)| with n.
        """
        return self._statistic(*_canonical_query(self.p, j, k, s))

    def is_independent(self, j, k, s=()):
        query = _canonical_query(self.p, j, k, s)
        t = self._statistic(*query)
        if t == math.inf:
            self._collinear.add(query)
            return False
        return self._independent(t)

    def parents(self, mask: int, k: int) -> int:
        """The j in mask that stay dependent on k given mask minus {j}, as a vertex mask.

        Reads the column of mask + {k} through the table's one column
        reader, which sp_search_cholesky shares, and answers, and records
        collinear queries, as is_independent would.
        """
        size = mask.bit_count() - 1
        found = 0
        for j, kjk, kjj, kkk in self._table.column(mask, k):
            t = self._rule(-kjk / math.sqrt(kjj * kkk), size)
            if t == math.inf:
                self._collinear.add((min(j, k), max(j, k), mask ^ 1 << j))
            if t == math.inf or not self._independent(t):
                found |= 1 << j
        return found


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
        # the inner backend validates a missed query; only answered keys
        # are stored, so every stored key is a valid query
        key = (j, k, frozenset(s)) if j < k else (k, j, frozenset(s))
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


def gaussian_exact_backend(sigma, *, zero_tol: float = 1e-9) -> PartialCorrelationBackend:
    """Exact-zero thresholding of population partial correlations.

    A partial correlation lies in [-1, 1], so a tolerance of 1 or more
    would call every pair independent.
    """
    if not 0 < zero_tol < 1:
        raise ValueError(f"zero_tol must lie in (0,1), got {zero_tol}")
    return PartialCorrelationBackend(CovarianceMatrix(sigma), zero_tol)


def lambda_backend(sigma, lam: float) -> PartialCorrelationBackend:
    """Coarse thresholding of population partial correlations at ``lam``.

    The level lambda is a modeling knob, not a numerical tolerance:
    every triple with |partial correlation| <= lambda is independent.
    """
    lam = float(lam)
    if not 0 < lam < 1:
        raise ValueError(f"lambda must lie in (0,1), got {lam}")
    return PartialCorrelationBackend(CovarianceMatrix(sigma), lam)


def fisher_z_backend(data, cfg: TestConfig) -> PartialCorrelationBackend:
    """Finite-sample z-transform test at size ``cfg.alpha``.

    The sample covariance is the uncentered 1/n moment matrix, meant for
    zero-mean data as simulated samples are and as the benchmark's
    reference decisions assume; ``sp`` centers every sample CSV first.
    """
    x = np.asarray(data, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"expected an n x p sample matrix, got shape {x.shape}")
    n, p = x.shape
    if n < p + 4:
        raise ValueError(f"need n >= p + 4 samples for the z test (got n={n}, p={p})")
    moments = (x.T @ x) / n
    # a non-finite entry always reaches the moments; only then is the data
    # scanned to name it (a scan adds a third to a sparse p = 12 PC call)
    if not np.isfinite(moments).all():
        _check_finite(x)
    # -inv_cdf(alpha/2), as 1 - alpha/2 rounds to 1 for alpha <= 1e-16
    return PartialCorrelationBackend(moments, -NormalDist().inv_cdf(cfg.alpha / 2), n)


def caching_wrapper(inner: CiBackend) -> CachingBackend:
    """Memoize ``inner``; answer-identical, one entry per canonical query."""
    return CachingBackend(inner)


def _read_csv(path, what: str, prefix: str) -> tuple[np.ndarray, list[str], bool]:
    """The numbers in a CSV file, its column names, and whether a header gave them.

    Lines holding only commas and whitespace are skipped. A first line
    with a field that does not parse as a number is a header of column
    names, no two alike; without one column i is named prefix + str(i).
    Every data row must have the header's width, and a NaN or infinite
    entry is rejected with its 1-based data row and its column name.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        lines = [line for line in fh if line.replace(",", "").strip()]
    if not lines:
        raise ValueError(f"{path}: empty {what} file")
    first = [f.strip() for f in next(csv.reader(lines[:1]))]
    try:
        for f in first:
            float(f)
        named = False
    except ValueError:
        named, lines = True, lines[1:]
    if not lines:
        raise ValueError(f"{path}: header but no data rows")
    try:
        data = np.loadtxt(lines, delimiter=",", quotechar='"', ndmin=2)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
    names = first if named else [f"{prefix}{i}" for i in range(data.shape[1])]
    if len(names) != data.shape[1]:
        raise ValueError(f"{path}: header width {len(names)} != data width {data.shape[1]}")
    repeated = [name for i, name in enumerate(names) if name in names[:i]]
    if repeated:
        raise ValueError(f"{path}: column name {repeated[0]!r} is repeated in the header")
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        r, c = bad[0]
        raise ValueError(
            f"{path}: data row {r + 1}, column {names[c]} holds {data[r, c]}, "
            "not a finite number"
        )
    return data, names, named


def load_covariance_csv(path) -> tuple[CovarianceMatrix, list[str] | None]:
    """Read a p x p covariance from CSV, by the rules of :func:`load_samples_csv`.

    Returns (matrix, names), names being None when there is no header.
    Without one, errors name column i as i, the label the search gives it.
    """
    data, names, named = _read_csv(path, "covariance", "")
    return CovarianceMatrix(data), names if named else None


def load_samples_csv(path) -> tuple[np.ndarray, list[str]]:
    """Read an n x p sample matrix from CSV.

    The expected layout has a header row of variable names; a purely
    numeric first row is accepted as data, in which case names default
    to x0..x{p-1}. Lines holding only commas and whitespace are skipped.
    Returns (data, names). A row of another width is rejected, and so is
    a NaN or infinite entry, with the 1-based data row and the column
    name.
    """
    data, names, _ = _read_csv(path, "sample", "x")
    return data, names
