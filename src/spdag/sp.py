"""Sparsest-ordering search over DAGs.

Every permutation of the vertices induces a DAG: scanning the order left
to right, vertex k receives an edge from each earlier vertex j that stays
dependent on k given the rest of the prefix.  The search scores each
permutation by the edge count of that DAG and returns every DAG attaining
the minimum, grouped into equivalence classes.  Because a vertex's
parents depend only on the set of vertices before it, the minimum over
the p! orderings is found by a DP over the 2^p prefix sets, which numpy
runs one prefix size at a time, in the subset numbering the parent
table is built in.

A Gaussian-only variant applies the paper's Cholesky theorem: the DAG an
ordering induces is the nonzero pattern of the upper unitriangular
Cholesky factor of the permuted precision matrix, so the sparsest ordering
is the one with the least fill.  Column k of that factor holds the
coefficients of regressing k on the vertices before it, which depend only
on their set, so the same DP scores every ordering from one regression per
(prefix set, vertex) without issuing conditional-independence queries; for
an exact Gaussian oracle the two routes coincide.  Both give the DP one
flat table of parent sets as vertex masks, built a subset size at a
time from the stacked inverses of a per-subset table, which inverts
every subset of one size at once.

A dense model has many sparsest orderings (all p! for a complete DAG),
so winners travel as int edge masks, bit j*p + k standing for the edge
j -> k, and Dag objects are built only when asked for.  A forward walk
over the DP's optimal steps groups the winners by class as it builds
them, so the search calls pattern_of once per class; the checked
SpResult(p, masks), for masks built outside the search, calls it on
every mask's Dag instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import combinations

import numpy as np

from .exceptions import CapacityError
from .graph import Dag, EquivClassPattern, _bits, pattern_of
from .oracle import (
    MAX_P_CEILING,
    CachingBackend,
    CiBackend,
    CovarianceMatrix,
    PartialCorrelationBackend,
    _layout,
    _standardize,
    _SubsetTable,
)

PERMUTATION_CAP = 9
CHOL_TOL = 1e-7
# byte b with its bit order reversed, at index b
_BIT_REVERSED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))

__all__ = [
    "CHOL_TOL",
    "PERMUTATION_CAP",
    "SpResult",
    "build_dag_for_permutation",
    "sp_search",
    "sp_search_cholesky",
]


@dataclass(frozen=True)
class SpResult:
    """Outcome of a full scan over the permutation space.

    masks holds every minimal DAG over vertices 0..p-1 (deduplicated as
    labeled graphs) as an int edge mask, bit j*p + k standing for the
    edge j -> k; p is kept because the empty graph's mask does not show
    it.  Everything else is read off them: min_edges is their common
    edge count, classes the equivalence classes they fall into,
    permutations_scanned the size of the searched space, p!, and
    winners the same graphs as Dag objects, built on first access.
    SpResult(p, masks) checks the masks, builds each one's Dag (which
    rejects cycles) and classes it with pattern_of; the search, which
    groups its winners by class as it goes, skips all of that.
    """

    p: int
    masks: frozenset
    classes: frozenset = field(init=False, compare=False)

    def __post_init__(self):
        p, masks = self.p, frozenset(self.masks)
        if not masks:
            raise ValueError("a scan always produces at least one winner")
        counts = {m.bit_count() for m in masks}
        if len(counts) > 1:
            raise ValueError(f"winners differ in edge count: {sorted(counts)}")
        if min(masks) < 0 or max(masks) >> p * p:
            raise ValueError(f"edge mask out of range for p={p}")
        dags = (Dag(p, (divmod(b, p) for b in _bits(m))) for m in masks)
        object.__setattr__(self, "masks", masks)
        object.__setattr__(self, "classes", frozenset(map(pattern_of, dags)))

    @classmethod
    def _from_search(cls, p: int, groups) -> "SpResult":
        """A result the DP built, trusted: groups holds one set of masks per class."""
        self = cls.__new__(cls)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "masks", frozenset().union(*groups))
        classes = frozenset(pattern_of(Dag._from_mask(p, next(iter(g)))) for g in groups)
        object.__setattr__(self, "classes", classes)
        return self

    @cached_property
    def winners(self) -> frozenset:
        return frozenset(Dag._from_mask(self.p, m) for m in self.masks)

    @property
    def min_edges(self) -> int:
        return next(iter(self.masks)).bit_count()

    @property
    def unique_class(self) -> bool:
        return len(self.classes) == 1

    @property
    def permutations_scanned(self) -> int:
        return math.factorial(self.p)

    def ordered_masks(self) -> list:
        """The masks in the order of their sorted (j, k) edge lists.

        Such a list is the mask's bits in ascending order.  As every mask
        has the same edge count, the list that first holds an edge the
        other lacks sorts first: the one whose bit string, read from bit
        0 up, is the larger.  The mask's little-endian bytes, each with
        its bits reversed, compare as that bit string does.
        """
        size = (self.p * self.p + 7) // 8
        key = lambda m: m.to_bytes(size, "little").translate(_BIT_REVERSED)
        return sorted(self.masks, key=key, reverse=True)

    def ordered_winners(self) -> list:
        return [Dag._from_mask(self.p, m) for m in self.ordered_masks()]

    def ordered_classes(self) -> list:
        return sorted(self.classes, key=EquivClassPattern.sort_key)


def build_dag_for_permutation(pi, ci: CiBackend) -> Dag:
    """Construct the DAG a single vertex ordering induces.

    Scanning pi left to right, each earlier vertex j points at the
    current vertex k exactly when the backend reports dependence given
    the remaining prefix {earlier vertices} minus {j}.  All edges follow
    the order, so the result is acyclic by construction.  pi is any
    sequence; one that is not a permutation of 0..p-1 raises ValueError.
    """
    order = tuple(int(v) for v in pi)
    if sorted(order) != list(range(ci.p)):
        raise ValueError(f"not a permutation of 0..{ci.p - 1}: {order}")
    edges = []
    for b in range(1, len(order)):
        k = order[b]
        prefix = order[:b]
        for j in prefix:
            s = [v for v in prefix if v != j]
            if not ci.is_independent(j, k, s):
                edges.append((j, k))
    return Dag(len(order), edges)


def _sparsest(p: int, table) -> SpResult:
    """Subset DP over ordering prefixes, returning every minimal DAG.

    In any ordering, vertex k's parents depend only on the set of
    vertices before it, so table[T*p + k], for T that set plus k,
    scores appending k to the prefix and the minimum over all p!
    orderings is a DP over the 2^p prefix sets (the exact order DP of
    Silander and Myllymaki).  Each entry is a vertex mask, bit j for
    parent j, so a step's cost is its popcount.  The DP runs in numpy a
    prefix size at a time, over the subset table's numbering: for the
    prefixes T of size s and each member k, the step from T - {k} costs
    that prefix's best plus the step's popcount, T's best is the least
    of them, and every step attaining it ties.  Going back a size at a
    time from the full set, a tying step into an on-path prefix is kept
    and marks T - {k} on path.
    One forward walk over the kept steps, a prefix size at a time,
    builds the winners' edge masks, each extension a single OR, so a
    winner reached by many orderings is held once.  Each prefix maps
    class keys to the set of its winners with that key: the skeleton
    (each edge in both directions) and a mask with bit (a*p + b)*p + k
    for each collider a -> k <- b, a < b.  A step adds only edges into
    k, so adjacency inside the prefix and the colliders at its vertices
    never change: the step adds k's edges to the skeleton and, as
    colliders, the pairs of k's parents nonadjacent in the old one: the
    parents' pairs, as skeleton bits, less the old skeleton, so only
    real colliders are visited.  A key is a function of the mask, so
    the groups partition the winners.  Keys are built per class, not per
    winner, no winner is peeled, and pattern_of runs once per class.
    """
    members, masks = _layout(p)[:2]
    ones = np.empty(1 << p, dtype=np.intp)  # popcount, as each subset's size
    for size, m in enumerate(masks):
        ones[m] = size
    best = np.zeros(1 << p, dtype=np.intp)
    steps = [None]  # by size: each step's parents, previous prefix and tie
    for size in range(1, p + 1):
        parents = table[masks[size] * p + members[size]]
        prev = masks[size] ^ 1 << members[size]
        cost = best[prev] + ones[parents]
        best[masks[size]] = low = cost.min(0)
        steps.append((parents, prev, cost == low))
    on = np.zeros(1 << p, dtype=bool)
    on[-1] = True
    for size in range(p, 0, -1):  # back from the full set
        _, prev, tie = steps[size]
        tie &= on[masks[size]]
        on[prev[tie]] = True

    @cache  # many steps add the same parents
    def spread(found: int) -> tuple:
        """Bit j*p for each parent j, and bit a*p + b for each pair of parents a < b."""
        column = pairs = 0
        for a in _bits(found):
            column |= 1 << a * p
            pairs |= found >> a + 1 << a * p + a + 1
        return column, pairs

    level = {0: {(0, 0): {0}}}  # prefix -> class key -> the class's winners
    for size in range(1, p + 1):
        parents, _, tie = steps[size]
        t, i = np.nonzero(tie.T)  # the kept steps, prefix by prefix
        kept = zip(masks[size][t].tolist(), members[size][i, t].tolist(), parents[i, t].tolist())
        walked = {}
        for mask, k, found in kept:
            groups = walked.setdefault(mask, {})
            old = level[mask ^ 1 << k]
            if not found:  # no edge added: keys and winners carry over
                for key, group in old.items():
                    groups.setdefault(key, set()).update(group)
                continue
            column, pairs = spread(found)
            added = column << k
            both = added | found << k * p
            for (skel, coll), group in old.items():
                for pair in _bits(pairs & ~skel):  # k's parents nonadjacent before it
                    coll |= 1 << pair * p + k
                groups.setdefault((skel | both, coll), set()).update(map(added.__or__, group))
        level = walked
    return SpResult._from_search(p, level[(1 << p) - 1].values())


def _check_cap(p: int, max_p: int) -> None:
    if p > max_p:
        raise CapacityError(
            f"p={p} exceeds the cap of {max_p} vertices: the search fills a table "
            f"over all 2^{p} = {2 ** p} prefix sets; raise --max-p to allow it"
        )
    if p > MAX_P_CEILING:
        raise CapacityError(f"p={p} exceeds the ceiling of {MAX_P_CEILING} vertices")


def sp_search(ci: CiBackend, *, max_p: int = PERMUTATION_CAP) -> SpResult:
    """Search all p! orderings and keep every minimal induced DAG.

    The search is a DP over the 2^p prefix sets: appending k to the
    prefix set S costs the j in S that stay dependent on k given
    S minus {j}.  It returns every DAG that some optimal ordering
    induces.  A partial-correlation backend, bare or cached, builds the
    DP's flat table of parent masks from its per-subset table, a subset
    size at a time; any other backend fills that table through
    is_independent, asked once for each pair in each vertex set T: the
    answer sets both T*p + k and T*p + j.  p may not exceed
    MAX_P_CEILING, whatever max_p says.
    """
    p = ci.p
    _check_cap(p, max_p)
    inner = ci.inner if isinstance(ci, CachingBackend) else ci
    if isinstance(inner, PartialCorrelationBackend):
        return _sparsest(p, inner.parent_table())
    is_independent = ci.is_independent
    table = [0] * (p << p)
    for t in range(1 << p):
        for j, k in combinations(_bits(t), 2):
            if not is_independent(j, k, tuple(_bits(t ^ 1 << j ^ 1 << k))):
                table[t * p + k] |= 1 << j
                table[t * p + j] |= 1 << k
    return _sparsest(p, np.array(table, dtype=np.int64))


def sp_search_cholesky(
    sigma,
    chol_tol: float = CHOL_TOL,
    *,
    max_p: int = PERMUTATION_CAP,
) -> SpResult:
    """Gaussian-only search scoring each ordering by Cholesky fill.

    For an ordering, column k of the upper unitriangular factor of the
    permuted precision matrix holds, up to sign, the coefficients of
    regressing k on the vertices before it.  Those depend only on the
    set of earlier vertices, so the search runs the same prefix-set DP
    as sp_search, with k's parents given S being the regression
    coefficients on S above chol_tol.  They are read as -K_jk / K_kk
    from the inverse K of the correlation block over S + {k}, from the
    same kind of per-subset table the partial-correlation backend
    keeps, which builds every step's mask a subset size at a time;
    working on the correlation matrix makes the tolerance scale-free.
    A collinear block reads as NaN, which fails the comparison, so
    every coefficient counts.
    sigma is read as a CovarianceMatrix, as the query route's backends
    read it, so both routes reject the same matrices with one ValueError.
    """
    if not 0 < chol_tol < math.inf:  # NaN fails too
        raise ValueError(f"tolerance must be positive and finite, got {chol_tol}")
    sigma = CovarianceMatrix(sigma)
    p = sigma.p
    _check_cap(p, max_p)
    table = _SubsetTable(_standardize(sigma))
    fill = lambda inv, _: ~(abs(inv) / inv.diagonal().T <= chol_tol)
    return _sparsest(p, table.parent_table(fill))
