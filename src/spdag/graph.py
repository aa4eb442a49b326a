"""Directed acyclic graphs over vertices 0..p-1 and their separation structure.

A :class:`Dag` is immutable after construction and always acyclic; the
constructor rejects anything else. On top of it this module provides
d-separation queries, skeleton and collider extraction, Markov
equivalence via patterns, topological order enumeration, exhaustive
enumeration of all labeled DAGs on small vertex sets, and a plain text
serialization.

Vertex sets are passed around as ordinary iterables of ints. Internally
most routines work on bitmasks, which keeps the hot paths (d-separation
inside search loops) allocation free. A whole edge set is one int as
well, an edge mask with bit j*p + k for the edge j -> k: the form in
which a Dag stores its edges and the ordering search carries its winners.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Iterator, NamedTuple, Sequence

from .exceptions import CapacityError, DagTextError

__all__ = [
    "Dag",
    "CycleError",
    "EquivClassPattern",
    "DagDocument",
    "d_separated",
    "skeleton",
    "v_structures",
    "unshielded_triples",
    "triangles",
    "pattern_of",
    "markov_equivalent",
    "topological_orders",
    "enumerate_all_dags",
    "parse_dag_text",
    "format_dag_text",
    "load_dag_file",
]

ENUMERATION_CAP = 5  # 29,281 DAGs on 5 vertices, about 3.8 million on 6
# the largest p a graph file may declare; every search is capped far below it
GRAPH_TEXT_CAP = 64


class CycleError(ValueError):
    """Raised when an edge set contains a directed cycle."""


def _bits(mask: int) -> Iterator[int]:
    """Yield set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask_rows(p: int, mask: int) -> list[int]:
    """Rows of an edge mask over p vertices, where bit j*p + k is the edge j -> k.

    Row j is the bitmask of j's children; the rows of the transposed mask
    (:func:`_transpose`) are the parent bitmasks.
    """
    row = (1 << p) - 1
    return [mask >> j * p & row for j in range(p)]


@lru_cache(maxsize=None)
def _diagonals(p: int) -> tuple[tuple[int, int], ...]:
    """(d*(p-1), bits j*p + k with k - j = d) for each offset d = 1..p-1."""
    return tuple(
        (d * (p - 1), sum(1 << (j * (p + 1) + d) for j in range(p - d))) for d in range(1, p)
    )


def _transpose(p: int, mask: int) -> int:
    """The edge mask with every edge reversed: bit j*p + k moves to k*p + j.

    An edge d places above the diagonal moves d*(p-1) bits up and one d
    places below moves as far down; self-loop bits on the diagonal drop.
    """
    out = 0
    for shift, diag in _diagonals(p):
        out |= (mask & diag) << shift | mask >> shift & diag
    return out


def _colliders(child_masks: Sequence[int], adj_masks: Sequence[int]) -> tuple:
    """(j, k, common children) for each nonadjacent pair j < k that has any.

    Each common child l is a v-structure j -> l <- k; the tuple is the
    collider part of the equivalence class pattern, in a canonical order.
    """
    full = (1 << len(child_masks)) - 1
    out = []
    for j, cj in enumerate(child_masks):
        for k in _bits(full & ~adj_masks[j] & -(2 << j)):  # k > j, nonadjacent
            common = cj & child_masks[k]
            if common:
                out.append((j, k, common))
    return tuple(out)


class Dag:
    """A directed acyclic graph on vertices ``0..p-1``.

    Parameters
    ----------
    p:
        Number of vertices.
    edges:
        Iterable of ``(j, k)`` pairs, each meaning an edge j -> k.
        Duplicates collapse; a directed cycle, a self loop included,
        raises :class:`CycleError` (a ``ValueError``).

    Instances are immutable and hashable; equality is by ``(p, edges)``.
    The graph is stored as one edge mask (see :func:`_mask_rows`) with
    its child and parent rows; the edge set is derived from the mask.

    Examples
    --------
    >>> g = Dag(3, [(0, 1), (1, 2)])
    >>> sorted(g.parents(2))
    [1]
    >>> g.adjacent(0, 2)
    False
    """

    __slots__ = ("_p", "_mask", "_parent_masks", "_child_masks")

    def __init__(self, p: int, edges: Iterable[tuple[int, int]] = ()):
        p = int(p)
        if p < 0:
            raise ValueError(f"vertex count must be nonnegative, got {p}")
        mask = 0
        reach = [0] * p
        for j, k in edges:
            j, k = int(j), int(k)
            if not (0 <= j < p and 0 <= k < p):
                raise ValueError(f"edge ({j}, {k}) out of range for p={p}")
            if j == k:
                raise CycleError(f"self loop at vertex {j}")
            if reach[k] >> j & 1:
                raise CycleError(f"edge ({j}, {k}) closes a directed cycle")
            mask |= 1 << (j * p + k)
            reach = _reach_with(reach, j, k)
        self._fill(p, mask)

    def _fill(self, p: int, mask: int) -> None:
        self._p = p
        self._mask = mask
        self._child_masks = tuple(_mask_rows(p, mask))
        self._parent_masks = tuple(_mask_rows(p, _transpose(p, mask)))

    @classmethod
    def _from_mask(cls, p: int, mask: int) -> "Dag":
        """The graph of an edge mask (see :func:`_mask_rows`), trusted to be acyclic."""
        g = cls.__new__(cls)
        g._fill(p, mask)
        return g

    @property
    def p(self) -> int:
        return self._p

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset(divmod(b, self._p) for b in _bits(self._mask))

    @property
    def num_edges(self) -> int:
        return self._mask.bit_count()

    def parents(self, k: int) -> frozenset[int]:
        return frozenset(_bits(self._parent_masks[k]))

    def children(self, j: int) -> frozenset[int]:
        return frozenset(_bits(self._child_masks[j]))

    def has_edge(self, j: int, k: int) -> bool:
        return 0 <= j < self._p and 0 <= k < self._p and bool(self._child_masks[j] >> k & 1)

    def adjacent(self, j: int, k: int) -> bool:
        return self.has_edge(j, k) or self.has_edge(k, j)

    def ancestors(self, k: int) -> frozenset[int]:
        """Strict ancestors of ``k`` (``k`` itself excluded)."""
        return frozenset(_bits(_closure(self._parent_masks, 1 << k) & ~(1 << k)))

    def descendants(self, j: int) -> frozenset[int]:
        """Strict descendants of ``j``."""
        return frozenset(_bits(_closure(self._child_masks, 1 << j) & ~(1 << j)))

    def with_edge(self, j: int, k: int) -> "Dag":
        """A new graph with edge j -> k added."""
        return Dag(self._p, self.edges | {(j, k)})

    def without_edge(self, j: int, k: int) -> "Dag":
        """A new graph with edge j -> k removed; missing edges raise."""
        if not self.has_edge(j, k):
            raise ValueError(f"no edge ({j}, {k}) to remove")
        return Dag._from_mask(self._p, self._mask & ~(1 << (j * self._p + k)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dag):
            return NotImplemented
        return self._p == other._p and self._mask == other._mask

    def __hash__(self) -> int:
        return hash((self._p, self._mask))

    def __repr__(self) -> str:
        return f"Dag(p={self._p}, edges={sorted(self.edges)})"


def _closure(rows: Sequence[int], seed: int) -> int:
    """``seed`` and all it reaches along ``rows``: parent rows give ancestors."""
    mask = seed
    stack = list(_bits(seed))
    while stack:
        fresh = rows[stack.pop()] & ~mask
        mask |= fresh
        stack.extend(_bits(fresh))
    return mask


def _canonical_query(p: int, j: int, k: int, s: Iterable[int]) -> tuple[int, int, int]:
    """Validate a query (j, k, s) over vertices 0..p-1.

    Returns (min(j, k), max(j, k), s_mask), s as a bitmask.
    """
    j, k = int(j), int(k)
    if not (0 <= j < p and 0 <= k < p):
        raise ValueError(f"query pair ({j}, {k}) out of range for p={p}")
    if j == k:
        raise ValueError("queries need two distinct vertices")
    s_mask = 0
    for v in s:
        v = int(v)
        if not 0 <= v < p:
            raise ValueError(f"conditioning vertex {v} out of range for p={p}")
        s_mask |= 1 << v
    if s_mask & (1 << j | 1 << k):
        raise ValueError("conditioning set must exclude the queried pair")
    return (j, k, s_mask) if j < k else (k, j, s_mask)


def d_separated(g: Dag, j: int, k: int, s: Iterable[int] = ()) -> bool:
    """Whether ``j`` and ``k`` are d-separated by ``s`` in ``g``.

    Uses ball-passing reachability: a trail is open at a vertex arriving
    from a child unless the vertex is conditioned on, and open at a
    vertex arriving from a parent toward its children unless conditioned,
    or back up toward its parents when the vertex has a descendant in
    ``s`` (the collider rule). ``j`` and ``k`` d-connect exactly when the
    ball started at ``j`` can reach ``k``.

    Parameters
    ----------
    g:
        The graph.
    j, k:
        Distinct query vertices, neither contained in ``s``.
    s:
        Conditioning vertices.

    Returns
    -------
    bool
        True when every trail between ``j`` and ``k`` is blocked by ``s``.
    """
    return _d_separated(g, *_canonical_query(g.p, j, k, s))


def _d_separated(g: Dag, j: int, k: int, s_mask: int) -> bool:
    """d_separated on a valid query, with the conditioning set as a bitmask."""
    anc_mask = _closure(g._parent_masks, s_mask)
    parent_masks = g._parent_masks
    child_masks = g._child_masks
    target = 1 << k
    # Direction flag: True when the ball arrived from a child (moving up).
    seen_up = 1 << j
    seen_down = 0
    stack = [(j, True)]
    while stack:
        v, up = stack.pop()
        v_bit = 1 << v
        if v_bit & target:
            return False
        if up:
            if not v_bit & s_mask:
                fresh_up = parent_masks[v] & ~seen_up
                seen_up |= fresh_up
                stack.extend((u, True) for u in _bits(fresh_up))
                fresh_down = child_masks[v] & ~seen_down
                seen_down |= fresh_down
                stack.extend((u, False) for u in _bits(fresh_down))
        else:
            if not v_bit & s_mask:
                fresh_down = child_masks[v] & ~seen_down
                seen_down |= fresh_down
                stack.extend((u, False) for u in _bits(fresh_down))
            if v_bit & anc_mask:
                fresh_up = parent_masks[v] & ~seen_up
                seen_up |= fresh_up
                stack.extend((u, True) for u in _bits(fresh_up))
    return True


def skeleton(g: Dag) -> frozenset[tuple[int, int]]:
    """Undirected adjacencies of ``g`` as sorted pairs (a, b) with a < b."""
    return frozenset((j, k) if j < k else (k, j) for j, k in g.edges)


def _adjacency_masks(g: Dag) -> list[int]:
    """Bitmask of each vertex's neighbors, parents and children alike."""
    return [c | q for c, q in zip(g._child_masks, g._parent_masks)]


def v_structures(g: Dag) -> frozenset[tuple[int, int, int]]:
    """Collider triples j -> l <- k with j, k nonadjacent, as (j, l, k), j < k."""
    return frozenset(
        (j, ell, k)
        for j, k, common in _colliders(g._child_masks, _adjacency_masks(g))
        for ell in _bits(common)
    )


def unshielded_triples(g: Dag) -> frozenset[tuple[int, int, int]]:
    """Triples (j, l, k), j < k, with l adjacent to both and j, k nonadjacent.

    Orientation is ignored; every v-structure is an unshielded triple but
    not conversely. These are the colliders of the skeleton read as a
    graph in which every edge points both ways.
    """
    adj = _adjacency_masks(g)
    return frozenset((j, ell, k) for j, k, common in _colliders(adj, adj) for ell in _bits(common))


def triangles(g: Dag) -> frozenset[tuple[int, int, int]]:
    """Mutually adjacent vertex triples of the skeleton, sorted ascending."""
    adj = _adjacency_masks(g)
    return frozenset(
        (a, b, c)
        for a, na in enumerate(adj)
        for b in _bits(na & -(2 << a))
        for c in _bits(na & adj[b] & -(2 << b))
    )


@dataclass(frozen=True)
class EquivClassPattern:
    """Skeleton plus v-structures; equal patterns mean Markov equivalence."""

    skeleton: frozenset[tuple[int, int]]
    v_structures: frozenset[tuple[int, int, int]]

    def sort_key(self) -> tuple:
        """Canonical encoding used to order classes deterministically."""
        return (tuple(sorted(self.skeleton)), tuple(sorted(self.v_structures)))


def pattern_of(g: Dag) -> EquivClassPattern:
    """The Markov equivalence class pattern of ``g``."""
    return EquivClassPattern(skeleton(g), v_structures(g))


def markov_equivalent(g1: Dag, g2: Dag) -> bool:
    """Whether two graphs share skeleton and v-structures.

    Graphs over different vertex counts are not comparable and raise.
    """
    if g1.p != g2.p:
        raise ValueError(f"graphs have different vertex counts ({g1.p} vs {g2.p})")
    return pattern_of(g1) == pattern_of(g2)


def topological_orders(g: Dag) -> Iterator[tuple[int, ...]]:
    """All orderings of ``g``'s vertices that place parents before children.

    Each ordering is a tuple of vertices, emitted in lexicographic order.
    The count is factorial in the worst case (empty graph), so callers
    on large graphs should consume lazily.
    """
    p = g.p
    parent_masks = g._parent_masks
    prefix: list[int] = []

    def rec(placed_mask: int) -> Iterator[tuple[int, ...]]:
        if len(prefix) == p:
            yield tuple(prefix)
            return
        for v in range(p):
            bit = 1 << v
            if placed_mask & bit:
                continue
            if parent_masks[v] & ~placed_mask:
                continue
            prefix.append(v)
            yield from rec(placed_mask | bit)
            prefix.pop()

    return rec(0)


def _reach_with(reach: list[int], u: int, v: int) -> list[int]:
    """Reachability after adding the edge u -> v to an acyclic graph.

    reach[w] is the bitmask of vertices w reaches by a directed path; the
    edge closes a cycle exactly when reach[v] holds u, which callers rule
    out first. u and everything reaching u gain v and all that v reaches.
    """
    gained = reach[v] | 1 << v
    return [r | gained if w == u or r >> u & 1 else r for w, r in enumerate(reach)]


@lru_cache(maxsize=None)
def _dag_masks(p: int) -> tuple[int, ...]:
    """Edge masks of every labeled DAG on p vertices, in enumeration order."""
    pairs = list(combinations(range(p), 2))

    def rec(i: int, reach: list[int], mask: int) -> Iterator[int]:
        if i == len(pairs):
            yield mask
            return
        a, b = pairs[i]
        yield from rec(i + 1, reach, mask)
        for u, v in ((a, b), (b, a)):
            if not reach[v] >> u & 1:
                yield from rec(i + 1, _reach_with(reach, u, v), mask | 1 << (u * p + v))

    return tuple(rec(0, [0] * p, 0))


def enumerate_all_dags(p: int) -> Iterator[Dag]:
    """Yield every labeled DAG on ``p`` vertices, in a fixed order.

    The count grows superexponentially (25 at p=3, 543 at p=4, 29281 at
    p=5), so this refuses p beyond ENUMERATION_CAP. Enumeration order is
    deterministic: pairs are scanned lexicographically and each pair
    takes the states absent, low to high, high to low. An edge is only
    added when it closes no cycle, so each graph is built from its edge
    mask without a second acyclicity check. The masks of each p are
    listed once per process and cached.
    """
    p = int(p)
    if p < 0:
        raise ValueError("vertex count must be nonnegative")
    if p > ENUMERATION_CAP:
        raise CapacityError(
            f"enumerating all DAGs on p={p} vertices exceeds the cap "
            f"({ENUMERATION_CAP}); the count is astronomically large"
        )
    for mask in _dag_masks(p):
        yield Dag._from_mask(p, mask)


class DagDocument(NamedTuple):
    """A parsed DAG file: the graph plus the label base it was written in."""

    dag: Dag
    label_base: int


_HEADER_RE = re.compile(r"^\s*p\s*=\s*(\d+)\s*$")
_EDGE_RE = re.compile(r"^\s*(\d+)\s*->\s*(\d+)\s*$")


def parse_dag_text(text: str) -> DagDocument:
    """Parse the plain text graph format.

    The first nonblank line is ``p=<int>``; every following nonblank line
    is ``j -> k``. Whitespace around tokens is ignored. Labels may be
    0-based or 1-based; the base is inferred (a 0 label forces 0-based, a
    label equal to p forces 1-based, otherwise 0-based is assumed) and
    reported in the returned document so output can echo the input
    convention. A header above GRAPH_TEXT_CAP, out-of-range labels, self
    loops, duplicate edges and edges that close a directed cycle are
    rejected with the offending line number.
    """
    p = None
    raw_edges: list[tuple[int, int, int]] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if p is None:
            m = _HEADER_RE.match(line)
            if not m:
                raise DagTextError(
                    f"expected header 'p=<int>', got {line.strip()!r}", line_no
                )
            p = int(m.group(1))
            if p > GRAPH_TEXT_CAP:
                raise DagTextError(
                    f"p={p} exceeds the graph file cap of {GRAPH_TEXT_CAP} vertices", line_no
                )
            continue
        m = _EDGE_RE.match(line)
        if not m:
            raise DagTextError(f"expected edge 'j -> k', got {line.strip()!r}", line_no)
        raw_edges.append((int(m.group(1)), int(m.group(2)), line_no))
    if p is None:
        raise DagTextError("empty input: missing 'p=<int>' header")

    labels = {j for j, _, _ in raw_edges} | {k for _, k, _ in raw_edges}
    if 0 in labels:
        base = 0
    elif p in labels:
        base = 1
    else:
        base = 0
    lo, hi = base, base + p - 1
    reach = [0] * p
    mask = 0
    for j_raw, k_raw, line_no in raw_edges:
        if not (lo <= j_raw <= hi and lo <= k_raw <= hi):
            raise DagTextError(
                f"label out of range for p={p} ({base}-based): {j_raw} -> {k_raw}",
                line_no,
            )
        j, k = j_raw - base, k_raw - base
        if j == k:
            raise DagTextError(f"self loop at vertex {j_raw}", line_no)
        if mask >> (j * p + k) & 1:
            raise DagTextError(f"duplicate edge {j_raw} -> {k_raw}", line_no)
        if reach[k] >> j & 1:
            raise DagTextError(
                f"edge {j_raw} -> {k_raw} closes a directed cycle", line_no
            )
        mask |= 1 << (j * p + k)
        reach = _reach_with(reach, j, k)
    return DagDocument(Dag._from_mask(p, mask), base)


def format_dag_text(g: Dag, label_base: int = 0) -> str:
    """Serialize ``g`` in the text format, labels offset by ``label_base``."""
    lines = [f"p={g.p}"]
    lines.extend(f"{j + label_base} -> {k + label_base}" for j, k in sorted(g.edges))
    return "\n".join(lines) + "\n"


def load_dag_file(path) -> DagDocument:
    """Read and parse a DAG text file, UTF-8 with an optional BOM; an error names the file."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return parse_dag_text(fh.read())
    except (UnicodeDecodeError, DagTextError) as err:
        raise DagTextError(f"{path}: {err}") from None
