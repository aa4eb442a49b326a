"""Constraint-based skeleton search baselines.

Two classical pipelines share the CiBackend interface: an exhaustive
variant that considers every conditioning set for every pair, and a
level-wise variant that only conditions on current neighbours.  The
exhaustive one has two routes: on a partial-correlation backend it
reads every pair's first separating set from the backend's table of
subset inverses, a subset size at a time, and on any other backend it
asks each query in turn, which the table route matches.  Both pipelines
return ``(edges, sepsets)``: the undirected skeleton as pairs (j, k)
with j < k, and a plain dict from each deleted pair (j, k), j < k, to
the frozenset that first separated it.  v-structure orientation turns
the two into an equivalence class pattern.
"""

from __future__ import annotations

from itertools import combinations

from .exceptions import CapacityError
from .graph import EquivClassPattern, _bits, _colliders
from .oracle import CachingBackend, CiBackend, PartialCorrelationBackend, _pair_subsets

SKELETON_CAP = 12

__all__ = [
    "SKELETON_CAP",
    "orient_v_structures",
    "pc_pattern",
    "pc_skeleton",
    "sgs_pattern",
    "sgs_skeleton",
]


def _check_cap(p: int) -> None:
    if p > SKELETON_CAP:
        raise CapacityError(
            f"skeleton search on {p} vertices exceeds the cap of "
            f"{SKELETON_CAP}; the subset sweep is exponential in p"
        )


def sgs_skeleton(ci: CiBackend):
    """Full-sweep skeleton: delete {j,k} iff some S c V\\{j,k} separates.

    Conditioning sets are tried smallest first, ties broken
    lexicographically, and the first hit is recorded, so the witness
    table is the same on every run. A partial-correlation backend, bare
    or cached, decides every pair a subset size at a time from its table
    of subset inverses, with the same answers, sets and collinear count
    as asking it; any other backend is asked query by query.
    """
    p = ci.p
    _check_cap(p)
    inner = ci.inner if isinstance(ci, CachingBackend) else ci
    if isinstance(inner, PartialCorrelationBackend):
        sepsets = inner.first_separators()
    else:
        sepsets = {}
        for j, k in combinations(range(p), 2):
            hit = next((s for s in _pair_subsets(p, j, k) if ci.is_independent(j, k, s)), None)
            if hit is not None:
                sepsets[j, k] = frozenset(hit)
    edges = frozenset(pair for pair in combinations(range(p), 2) if pair not in sepsets)
    return edges, sepsets


def pc_skeleton(ci: CiBackend):
    """Level-wise skeleton: condition only on current neighbours.

    At level l every ordered adjacent pair (j, k) is tested against all
    size-l subsets of adj(j)\\{k}; deletion takes effect immediately.
    Levels run while some vertex has more than l neighbours, so some
    neighbourhood can still supply a set.
    """
    p = ci.p
    _check_cap(p)
    full = (1 << p) - 1
    adj = [full ^ 1 << v for v in range(p)]  # vertex masks
    sepsets = {}
    level = 0
    while any(a.bit_count() > level for a in adj):
        for j in range(p):
            # adj[j] loses only the k under test while j's pairs run
            for k in _bits(adj[j]):
                for s in combinations(_bits(adj[j] ^ 1 << k), level):
                    if ci.is_independent(j, k, s):
                        adj[j] ^= 1 << k
                        adj[k] ^= 1 << j
                        sepsets[min(j, k), max(j, k)] = frozenset(s)
                        break
        level += 1
    edges = frozenset((j, k) for j in range(p) for k in _bits(adj[j] & -(2 << j)))
    return edges, sepsets


def orient_v_structures(skeleton, sepsets: dict) -> EquivClassPattern:
    """Mark colliders on unshielded triples.

    For each path j - l - k with {j,k} non-adjacent, the triple becomes
    a v-structure exactly when l is absent from ``sepsets[j, k]``, the
    separating set of the pair with j < k.  A non-adjacent triple pair
    without a recorded set is a caller error and raises ``KeyError``.
    """
    edges = frozenset(tuple(sorted(e)) for e in skeleton)
    adj = [0] * (1 + max((k for _, k in edges), default=-1))
    for j, k in edges:
        adj[j] |= 1 << k
        adj[k] |= 1 << j
    vees = frozenset(
        (j, mid, k)
        for j, k, common in _colliders(adj, adj)
        for mid in _bits(common)
        if mid not in sepsets[j, k]
    )
    return EquivClassPattern(skeleton=edges, v_structures=vees)


def sgs_pattern(ci: CiBackend) -> EquivClassPattern:
    return orient_v_structures(*sgs_skeleton(ci))


def pc_pattern(ci: CiBackend) -> EquivClassPattern:
    return orient_v_structures(*pc_skeleton(ci))

