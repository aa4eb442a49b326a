"""Conditional-independence query backends behind one interface.

Every learner in this package asks one kind of question: is X_j
independent of X_k given X_S. :class:`CiBackend` fixes that surface and
three answer sources implement it:

* :func:`dsep_backend` answers from a known graph via d-separation,
* :func:`explicit_backend` answers from a hand-listed set of triples,
* :class:`PartialCorrelationBackend` thresholds a partial correlation of
  a second-moment matrix, read from a table that holds one inverse per
  vertex subset, built with numpy alone by bordering a whole subset size
  at a time on first use. Its factories fix the rule:
  :func:`gaussian_exact_backend` calls |rho| at or below a numerical
  zero independent, :func:`lambda_backend` does the same at a coarse
  level lambda, and :func:`fisher_z_backend` runs the z-transform test
  on sample data. On every rule a pair in a collinear subset counts as
  dependent and is counted in ``collinear_warnings``. For the ordering
  search it builds a flat table of every step's parent mask from the
  same inverses, and for SGS every pair's first separating set, a
  subset size at a time, by the same rule and bits. The index arrays
  those read depend on p alone, so each is built once per p and shared
  read-only (``_layout``, ``_steps``, ``_upper``).

All backends are deterministic and symmetric in the queried pair.
:func:`caching_wrapper` memoizes any of them on canonicalized queries.
"""

from __future__ import annotations

import csv
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cache
from itertools import chain, combinations, dropwhile, filterfalse
from statistics import NormalDist
from typing import Iterable, Iterator

import numpy as np

from .exceptions import NumericalError
from .graph import Dag, _bits, _canonical_query, _d_separated

COLLINEAR_TOL = 1e-10
# the most vertices a search takes (the largest sp learn --max-p): its
# tables grow as 2^p, and past this they outgrow a desk machine's memory
MAX_P_CEILING = 16

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
    factorizing, and freezes the entries. A CovarianceMatrix passed in
    has been through all of that, so its frozen entries are shared as
    they are.
    """

    __slots__ = ("_values",)

    def __init__(self, values):
        if isinstance(values, CovarianceMatrix):
            self._values = values.values
            return
        a = np.array(values, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        _check_finite(a)
        scale = max(float(np.max(np.abs(a))), 1e-300)
        half = a / 2.0  # halved first, so entries near the float maximum do not overflow
        if float(np.max(np.abs(half - half.T))) > 0.5e-12 * scale:
            raise ValueError("matrix is not symmetric (relative tolerance 1e-12)")
        a = half + half.T
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


@cache
def _layout(p: int) -> tuple:
    """The subset table's index arrays for p <= MAX_P_CEILING, shared read-only.

    Subsets of one size are numbered in the order combinations lists
    them, which is the order SGS asks them. members[s][i] holds the i-th
    smallest member of each subset of size s, masks[s] each one's vertex
    mask, parents[s] the number of each one less its largest member, and
    row[mask] a subset's number within its size.
    """
    row = np.zeros(1 << p, dtype=np.intp)
    members, masks, parents = [], [], []
    for s in range(p + 1):
        count = math.comb(p, s)
        flat = np.fromiter(chain.from_iterable(combinations(range(p), s)), np.intp, count * s)
        members.append(flat.reshape(count, s).T.copy())
        masks.append((1 << members[s]).sum(0))
        row[masks[s]] = np.arange(count)
        parents.append(row[masks[s] ^ 1 << members[s][-1]] if s else None)
    for a in members + masks + parents[1:]:
        a.setflags(write=False)
    return members, masks, parents, tuple(row.tolist())


@cache
def _steps(p: int) -> tuple:
    """The parent table's and the order DP's per-size index arrays, shared read-only.

    Over _layout(p)'s numbering of the subsets T of size s and their members
    k: slots[s] = T*p + k, each step's entry in the flat table; prev[s] =
    T - {k}; weights[s] = 1 << k. ones[T] is the size of each subset. Each
    is held in the fewest bits that fit it up to the ceiling, as a p = 16
    search keeps them beside its tables.
    """
    members, masks = _layout(p)[:2]
    ones = np.empty(1 << p, dtype=np.uint8)
    for s, m in enumerate(masks):
        ones[m] = s
    slots = [(m * p + k).astype(np.int32) for m, k in zip(masks, members)]
    prev = [(m ^ 1 << k).astype(np.uint16) for m, k in zip(masks, members)]
    weights = [(1 << k).astype(np.uint16) for k in members]
    for a in [ones, *slots, *prev, *weights]:
        a.setflags(write=False)
    return slots, prev, weights, ones


@cache
def _upper(s: int) -> tuple:
    """The row and column numbers (a, b), a < b, of an s x s upper triangle, and
    the rows a*s + b and b*s + a of each pair in the stack flattened to s*s rows,
    read-only."""
    a, b = np.triu_indices(s, 1)
    pairs = a, b, a * s + b, b * s + a
    for x in pairs:
        x.setflags(write=False)
    return pairs


def _border(inv, corr: np.ndarray, rest: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The inverse over each T = R + {v} from the inverse K_R over R.

    Stacks run along the last axis: inv[:, :, t] is the t-th K_R, rest[:, t]
    its members and v[t] the new member, above them all. With b = corr[R, v],
    u = K_R b and c = corr_vv - b.u, K_T is [[K_R + u u^T / c, -u / c],
    [-u^T / c, 1 / c]]. The sums run member by member in elementwise
    operations, so a subset gets the same bits however many are stacked.
    A collinear K_T is all NaN: some member's conditional variance given
    the rest of T, 1/K_ii, is below COLLINEAR_TOL. The rule treats every
    member alike, so labels do not matter, and a NaN K_R spreads to K_T.
    The caller silences numpy's floating-point warnings, once per build.
    """
    m, n = rest.shape
    b = corr[rest, v]
    u = np.zeros((m, n))
    dot = np.zeros(n)
    for i in range(m):
        u += inv[:, i] * b[i]
    for i in range(m):
        dot += b[i] * u[i]
    c = corr[v, v] - dot
    out = np.empty((m + 1, m + 1, n))
    out[:m, :m] = inv + u[:, None] * u / c
    out[m, :m] = out[:m, m] = -u / c
    out[m, m] = 1 / c
    tol = out.diagonal() * COLLINEAR_TOL
    out[:, :, ~((0 < tol) & (tol <= 1)).all(1)] = math.nan  # NaN fails too
    return out


def _bordered(corr: np.ndarray, mask: int) -> np.ndarray:
    """The inverse over T = mask alone, a stack of one, bordered member by member.

    Each step is the level table's, so the bits are those of T's entry
    there, at a cost of |T| small steps instead of every smaller subset.
    """
    members = np.array(list(_bits(mask)))
    inv = np.ones((0, 0, 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(len(members)):
            inv = _border(inv, corr, members[:i, None], members[i : i + 1])
    return inv


def _rho_at(inv: np.ndarray, t: int, mask: int, j: int, k: int) -> float:
    """rho of j and k given the rest of T = mask, from T's inverse inv[:, :, t]."""
    a, b = _rank(mask, j), _rank(mask, k)
    return -inv.item(a, b, t) / math.sqrt(inv.item(a, a, t) * inv.item(b, b, t))


class _SubsetTable:
    """The inverse K = corr[T, T]^-1 of each vertex subset T, built by bordering.

    Up to MAX_P_CEILING vertices, the first ask for a subset of size s
    inverts every subset of that size from those of size s - 1 and keeps
    the s x s x C(p, s) stack, in _layout's combinations order. Above it
    a 2^p index would not fit, so each asked subset is bordered on its
    own, to the same bits. Every K is exactly symmetric, as a border step
    adds (u_i u_j) / c to K_ij and K_ji alike.
    """

    def __init__(self, corr: np.ndarray):
        p = corr.shape[0]
        self._corr = corr
        self._layout = _layout(p) if p <= MAX_P_CEILING else None
        self._levels = [np.ones((0, 0, 1))]  # the empty set's K, 0 x 0
        self._single: dict = {}

    def __len__(self) -> int:
        """How many subsets of two or more vertices have been inverted."""
        return sum(level.shape[2] for level in self._levels[2:]) + len(self._single)

    def _level(self, s: int) -> np.ndarray:
        """The stack of inverses of every subset of size s."""
        levels = self._levels
        if s >= len(levels):
            members, _, parents, _ = self._layout
            with np.errstate(divide="ignore", invalid="ignore"):
                for t in range(len(levels), s + 1):
                    rest, v = members[t][:-1], members[t][-1]
                    levels.append(_border(levels[-1][:, :, parents[t]], self._corr, rest, v))
        return levels[s]

    def locate(self, mask: int) -> tuple[np.ndarray, int]:
        """A stack of inverses holding T's, and T's number in it."""
        if self._layout is not None:
            return self._level(mask.bit_count()), self._layout[3][mask]
        inv = self._single.get(mask)
        if inv is None:
            inv = self._single[mask] = _bordered(self._corr, mask)
        return inv, 0

    def parent_table(self, rule) -> np.ndarray:
        """Every step's parent mask, at index T*p + k for each k in T.

        For each size s >= 2 the stack of inverses of all subsets T of
        that size, a collinear one all NaN, goes to rule(inv, members),
        members[i] holding each T's i-th smallest vertex. It returns an
        s x s stack that is true where member j stays dependent on member
        k given the rest of T, and false on the diagonal. Column k becomes
        a vertex mask through the weights 1 << member, in 16 bits, which
        every mask fits: the search caps p at MAX_P_CEILING, so the table
        keeps every size. An entry with |T| < 2 is 0. The index arrays
        come from _steps(p), built once per p, and numpy's floating-point
        warnings are silenced once.
        """
        p = self._corr.shape[0]
        members = self._layout[0]
        slots, _, weights, _ = _steps(p)
        table = np.zeros(p << p, dtype=np.uint16)
        self._level(p)  # every size at once
        with np.errstate(divide="ignore", invalid="ignore"):
            for s in range(2, p + 1):
                dependent = rule(self._levels[s], members[s])
                table[slots[s]] = np.einsum("jkt,jt->kt", dependent, weights[s])
        return table


def partial_correlation(sigma, j: int, k: int, s: Iterable[int] = ()) -> float:
    """Partial correlation of variables j and k given the set s.

    Standardizes sigma to unit diagonal and reads the value from the
    inverse K of the block over s + {j, k} as -K_jk / sqrt(K_jj K_kk),
    exactly as :class:`PartialCorrelationBackend` does. Only that block
    is inverted, to the bits of the backend's table. With empty s this
    is the plain correlation.

    Raises
    ------
    NumericalError
        When the block is collinear; the conditioning set is attached
        to the exception.
    """
    corr = _standardize(sigma)
    j, k, s_mask = _canonical_query(corr.shape[0], j, k, s)
    mask = s_mask | 1 << j | 1 << k
    rho = _rho_at(_bordered(corr, mask), 0, mask, j, k)
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
        """How many vertex subsets of two or more have been inverted so far.

        Up to MAX_P_CEILING vertices the table inverts whole subset sizes,
        so one query given s vertices counts every subset of 2 to s + 2.
        """
        return len(self._table)

    def _rho(self, j: int, k: int, s_mask: int) -> float:
        """rho of a canonical query from its subset's entry; NaN when collinear."""
        mask = s_mask | 1 << j | 1 << k
        return _rho_at(*self._table.locate(mask), mask, j, k)

    def _rule(self, rho, size: int, atanh=math.atanh):
        """The statistic given |S| = size, of a float or, with np.arctanh, of an array."""
        if self._n is None:
            return abs(rho)
        return math.sqrt(self._n - size - 3) * abs(atanh(rho))

    def _independent(self, t):
        return t <= self._level if self._n is None else t < self._level

    def _statistic(self, j: int, k: int, s_mask: int) -> float:
        rho = self._rho(j, k, s_mask)
        return self._rule(rho, s_mask.bit_count()) if abs(rho) < 1 else math.inf  # NaN too

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

    def parent_table(self) -> np.ndarray:
        """The search's flat table of 16-bit parent masks, by the rule of is_independent."""
        return self._table.parent_table(self._dependent)

    def _dependent(self, inv, members):
        """is_independent negated, for every pair of every stacked subset.

        Collinear queries are recorded as there.
        """
        s = len(members)
        a, b, ab, ba = _upper(s)
        ok, independent = self._decide(inv)
        if not ok.all():
            self._note_collinear(members, a, b, ~ok)
        dependent = np.zeros((s * s, inv.shape[2]), bool)
        dependent[ab] = dependent[ba] = ~independent
        return dependent.reshape(inv.shape)

    def _decide(self, inv):
        """(not collinear, is_independent) for the member pairs of stacked subsets.

        Entry [i, t] answers for the i-th pair (a, b) of _upper(s) in the
        t-th subset, given its other members, by _rule and _independent.
        rho takes the scalar path's IEEE operations, so it has the same
        bits. The Fisher statistic takes np.arctanh, which may differ from
        math.atanh in the last place, so a statistic within a relative
        1e-9 of the level is taken again by _rule from the float, as the
        scalar path takes it. The caller silences numpy's warnings.
        """
        s = len(inv)
        a, b, ab, _ = _upper(s)
        flat = inv.reshape(s * s, -1)
        d = flat[:: s + 1]  # the diagonals
        rho = -flat.take(ab, 0) / np.sqrt(d.take(a, 0) * d.take(b, 0))
        ok = np.abs(rho) < 1  # NaN fails too
        t = self._rule(rho, s - 2, np.arctanh)
        if self._n is not None:
            near = np.abs(t - self._level) <= 1e-9 * self._level  # inf and NaN are not near
            if near.any():
                t[near] = [self._rule(r, s - 2) for r in rho[near].tolist()]
        return ok, ok & self._independent(t)

    def _note_collinear(self, members, a, b, where) -> None:
        """Record the queries of member pairs (a, b), a < b, where `where` holds.

        members is a level's s x C member array; a and b index its rows, and
        where has a row per pair and a column per subset.
        """
        i, t = np.nonzero(where)
        if not len(i):
            return
        j, k = members[a[i], t], members[b[i], t]
        rest = (1 << members[:, t]).sum(0) ^ 1 << j ^ 1 << k
        self._collinear.update(zip(j.tolist(), k.tolist(), rest.tolist()))

    def first_separators(self) -> dict:
        """Each pair's first separating set in SGS's order, by the rule of is_independent.

        SGS asks (j, k), j < k, given each S in V - {j, k}, smaller sets
        first and sets of one size in combinations order, and stops at the
        first independent one. The table numbers the subsets T of one size
        in that order, which T - {j, k} keeps. So every pair of a whole
        subset size |T| = |S| + 2 is decided at once, and each pair still
        open keeps its lowest-numbered independent T, until no pair is
        open. The collinear queries recorded are the ones that walk asks:
        a pair's numbered before its separator there, or all when it has
        none. Returns {(j, k): S} over the separated pairs; p may not
        exceed MAX_P_CEILING.
        """
        p = self.p
        members = _layout(p)[0]
        open_ = np.triu(np.ones((p, p), bool), 1).ravel()  # at j * p + k
        found = {}
        with np.errstate(divide="ignore", invalid="ignore"):
            for s in range(2, p + 1):
                if not open_.any():
                    break
                a, b = _upper(s)[:2]
                ok, independent = self._decide(self._table._level(s))
                pair = members[s][a] * p + members[s][b]  # a row per pair, a column per subset
                count = pair.shape[1]
                live = open_[pair]
                i, t = np.nonzero(live & independent)
                first = np.full(p * p, count)
                np.minimum.at(first, pair[i, t], t)
                asked = live & ~ok & (np.arange(count) < first[pair])
                self._note_collinear(members[s], a, b, asked)
                done = np.flatnonzero(first < count)
                for q, number in zip(done.tolist(), first[done].tolist()):
                    j, k = divmod(q, p)
                    found[j, k] = frozenset(members[s][:, number].tolist()) - {j, k}
                open_[done] = False
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


def _tabled(ci: CiBackend) -> PartialCorrelationBackend | None:
    """The partial-correlation backend ci is or caches, whose subset table a search reads."""
    inner = ci.inner if isinstance(ci, CachingBackend) else ci
    return inner if isinstance(inner, PartialCorrelationBackend) else None


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


# numpy's default "#" comment marker is turned off: "#" is an ordinary character
_LOADTXT = {"delimiter": ",", "quotechar": '"', "comments": None, "ndmin": 2}


def _blank(line: str) -> bool:
    """Whether a line holds only commas and whitespace, and so is skipped."""
    return not line.replace(",", "").strip()


def _header(lines: Iterator[str]) -> tuple[list[str], bool, list[str]]:
    """The first CSV record of lines, a quoted field going on over line
    breaks: its stripped fields, whether they are a header (one of them
    does not parse as a number), and the lines it spans, all read."""
    spans: list[str] = []
    first = [f.strip() for f in next(csv.reader(spans.append(line) or line for line in lines))]
    try:
        for f in first:
            float(f)
    except ValueError:
        return first, True, spans
    return first, False, spans


def _undecodable(path) -> str:
    """The file's first byte that is not UTF-8, by its 1-based line and its offset in
    the file (the text layer's decoder counts from its last read chunk)."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")  # a byte order mark is UTF-8 too, and counts from byte 0
    except UnicodeDecodeError as err:
        line = len((data[: err.start] + b".").splitlines())
        return f"line {line}, byte {err.start}: can't decode byte 0x{data[err.start]:02x} as UTF-8"
    return "the file changed while it was read"


def _read_csv(path, what: str, prefix: str) -> tuple[np.ndarray, list[str], bool]:
    """The numbers in a CSV file, its column names, and whether a header gave them.

    Lines holding only commas and whitespace are skipped. A first record
    with a field that does not parse as a number is a header of column
    names, no two alike, and a quoted name may hold a line break; without
    one column i is named prefix + str(i).
    "#" starts no comment: in a data row it is a field that is not a
    number. Every data row must have the header's width, and a NaN or
    infinite entry is rejected with its 1-based data row and its column
    name.

    One body reads the file at most twice. The first pass hands numpy the
    open file, which splits and converts the rows in C. Only a file numpy
    rejects, or whose first data line is blank, is read again with the
    skipped lines filtered out, and that pass's errors are the ones raised.
    """
    for filtered in (False, True):
        try:
            with open(path, "r", encoding="utf-8-sig", newline="") as fh:
                lines = dropwhile(_blank, fh)
                first, named, spans = _header(lines)
                rows = lines if named else chain(spans, lines)
                rows = filterfalse(_blank, rows) if filtered else rows
                head = next(rows, "")
                if _blank(head):  # so numpy has a row and never warns of no data
                    raise ValueError("header but no data rows")
                data = np.loadtxt(chain([head], rows), **_LOADTXT)
            break
        except StopIteration:
            if filtered:
                raise ValueError(f"{path}: empty {what} file") from None
        except (ValueError, csv.Error) as err:  # a UnicodeDecodeError is a ValueError
            if filtered:
                where = _undecodable(path) if isinstance(err, UnicodeDecodeError) else err
                raise ValueError(f"{path}: {where}") from None
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
