"""Slow, literal reference implementations used as test oracles.

Everything here favors being obviously correct over being fast: the
separation oracle enumerates every simple trail and applies the blocking
definition verbatim, graph enumeration filters raw adjacency matrices,
ordering enumeration filters raw permutations, equivalence class
patterns are read off edge tuples pair by pair, PC keeps its adjacencies
as Python sets, and the Cholesky route is checked against a factorization
of the whole permuted precision matrix, one ordering at a time. The
sparsest DAGs of a table of parent sets are found by scoring each of
the p! orderings on its own. The `sp learn` document is built whole, as
nested lists. The l0-penalized optimum is found by an exact score DP
over vertex subsets, which shares nothing with the ordering search. The CSV reader is the one that read every file as a list
of its lines, with numpy's default "#" comment marker. Production code
must agree with these on everything small enough to brute force.
"""

import csv
import math
from dataclasses import dataclass
from functools import cache
from itertools import combinations, permutations

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from spdag.exceptions import NumericalError
from spdag.graph import Dag, EquivClassPattern
from spdag.oracle import CovarianceMatrix
from spdag.sp import CHOL_TOL


def ancestral_closure(g: Dag, s) -> set:
    """``s`` together with every ancestor of a member of ``s``."""
    out = set(s)
    frontier = list(s)
    while frontier:
        v = frontier.pop()
        for u in g.parents(v):
            if u not in out:
                out.add(u)
                frontier.append(u)
    return out


def simple_trails(g: Dag, j: int, k: int):
    """All simple vertex sequences from j to k along skeleton adjacencies."""
    adj = [set() for _ in range(g.p)]
    for a, b in g.edges:
        adj[a].add(b)
        adj[b].add(a)
    path = [j]
    on_path = {j}

    def rec(v):
        if v == k:
            yield tuple(path)
            return
        for w in sorted(adj[v]):
            if w not in on_path:
                path.append(w)
                on_path.add(w)
                yield from rec(w)
                path.pop()
                on_path.discard(w)

    yield from rec(j)


def d_separated_by_trails(g: Dag, j: int, k: int, s=()) -> bool:
    """Trail-enumeration d-separation, straight from the definition.

    A trail is blocked by s when some interior vertex is either a
    collider whose ancestral closure misses s, or a noncollider lying in
    s. j and k are d-separated when every simple trail between them is
    blocked.
    """
    s = set(s)
    anc = ancestral_closure(g, s)
    for trail in simple_trails(g, j, k):
        blocked = False
        for i in range(1, len(trail) - 1):
            prev, v, nxt = trail[i - 1], trail[i], trail[i + 1]
            collider = g.has_edge(prev, v) and g.has_edge(nxt, v)
            if collider:
                if v not in anc:
                    blocked = True
                    break
            elif v in s:
                blocked = True
                break
        if not blocked:
            return False
    return True


def d_separation_set_brute(g: Dag):
    """Every (j, k, s) with j < k that d-separates, via trail enumeration."""
    out = set()
    for j, k in combinations(range(g.p), 2):
        rest = [v for v in range(g.p) if v not in (j, k)]
        for size in range(len(rest) + 1):
            for s in combinations(rest, size):
                if d_separated_by_trails(g, j, k, s):
                    out.add((j, k, frozenset(s)))
    return frozenset(out)


def pc_skeleton_by_sets(ci):
    """Level-wise PC skeleton on adjacency sets, sweeping every ordered pair.

    At level l each ordered adjacent pair (j, k) is tested against every
    size-l subset of adj(j) - {k}, sorted; a deletion takes effect at
    once. A level that finds no pair with a big enough pool ends the run.
    """
    p = ci.p
    adj = {v: set(range(p)) - {v} for v in range(p)}
    sepsets = {}
    level = 0
    while True:
        any_big_enough = False
        for j in range(p):
            for k in range(p):
                if k == j or k not in adj[j]:
                    continue
                pool = sorted(adj[j] - {k})
                if len(pool) < level:
                    continue
                any_big_enough = True
                for s in combinations(pool, level):
                    if ci.is_independent(j, k, s):
                        adj[j].discard(k)
                        adj[k].discard(j)
                        sepsets[min(j, k), max(j, k)] = frozenset(s)
                        break
        if not any_big_enough:
            break
        level += 1
    return frozenset((j, k) for j in range(p) for k in adj[j] if j < k), sepsets


def linear_extensions_brute(g: Dag):
    """All vertex orderings consistent with g, by filtering every ordering."""
    out = []
    for order in permutations(range(g.p)):
        pos = {v: i for i, v in enumerate(order)}
        if all(pos[j] < pos[k] for j, k in g.edges):
            out.append(order)
    return out


def all_dags_brute(p: int):
    """Edge sets of every labeled DAG on p vertices, by filtering matrices.

    Uses networkx for the acyclicity check so the filter shares no code
    with the production enumerator. Only sane for p <= 4.
    """
    import networkx as nx

    cells = [(j, k) for j in range(p) for k in range(p) if j != k]
    found = set()
    for bits in range(1 << len(cells)):
        edges = [cells[i] for i in range(len(cells)) if bits >> i & 1]
        dg = nx.DiGraph()
        dg.add_nodes_from(range(p))
        dg.add_edges_from(edges)
        if nx.is_directed_acyclic_graph(dg):
            found.add(frozenset(edges))
    return found


def pattern_by_triples(g: Dag) -> EquivClassPattern:
    """Skeleton and v-structures of g, read off its edge tuples.

    The skeleton sorts each edge's endpoints; a v-structure is every pair
    of parents of a vertex that is not itself an edge in either direction.
    """
    skel = frozenset((min(j, k), max(j, k)) for j, k in g.edges)
    vees = set()
    for ell in range(g.p):
        parents = sorted(j for j, k in g.edges if k == ell)
        for j, k in combinations(parents, 2):
            if (j, k) not in skel:
                vees.add((j, ell, k))
    return EquivClassPattern(skel, frozenset(vees))


def partial_corr_by_inverse(sigma, j, k, s=()):
    """Partial correlation via full inversion of the principal submatrix.

    Independent route: invert the covariance block on s + {j, k} and read
    the normalized off-diagonal of the inverse, instead of forming a
    Schur complement.
    """
    idx = sorted(set(s) | {j, k})
    sub = np.asarray(sigma, dtype=float)[np.ix_(idx, idx)]
    inv = np.linalg.inv(sub)
    a, b = idx.index(j), idx.index(k)
    return float(-inv[a, b] / np.sqrt(inv[a, a] * inv[b, b]))


def subset_inverse(corr, members):
    """The inverse of corr over members by Cholesky, and its smallest 1/K_ii.

    Returns (None, 0.0) when the block does not factor; the block is
    collinear when that smallest conditional variance, given the rest of
    the members, is below COLLINEAR_TOL.
    """
    block = np.asarray(corr, dtype=float)[np.ix_(members, members)]
    try:
        inv = cho_solve(cho_factor(block), np.eye(len(members)))
    except np.linalg.LinAlgError:
        return None, 0.0
    return inv, float(np.min(1 / np.diag(inv)))


def profile_score(g: Dag, sigma) -> float:
    """Sum over vertices k of log sigma^2(k | pa(k)), the Gaussian profile score.

    sigma^2(k | pa(k)) is the residual variance of regressing k on its
    parents in g: sigma_kk - sigma_k,pa sigma_pa,pa^-1 sigma_pa,k.  The
    sum is at least log det sigma, with equality exactly when sigma
    satisfies every conditional independence g encodes.
    """
    m = np.asarray(sigma, dtype=float)
    total = 0.0
    for k in range(g.p):
        pa = sorted(g.parents(k))
        explained = m[k, pa] @ np.linalg.solve(m[np.ix_(pa, pa)], m[pa, k]) if pa else 0.0
        total += np.log(m[k, k] - explained)
    return float(total)


def log_residual_variances(sigma) -> dict:
    """log sigma^2(k | S) for every vertex k and vertex set S not holding k,
    keyed (k, S as a bitmask): the local scores of the Gaussian profile score."""
    m = np.asarray(sigma, dtype=float)
    p = len(m)
    out = {}
    for k in range(p):
        for s in range(1 << p):
            if s >> k & 1:
                continue
            idx = [v for v in range(p) if s >> v & 1]
            explained = m[k, idx] @ np.linalg.solve(m[np.ix_(idx, idx)], m[idx, k]) if idx else 0.0
            out[k, s] = math.log(m[k, k] - explained)
    return out


def sparsest_by_orderings(p: int, table) -> set:
    """The edge masks of the sparsest DAGs any of the p! orderings induces.

    An ordering gives vertex k the parents table[T*p + k], T being k and
    the vertices before it, so its DAG has bit j*p + k for each such j.
    Every ordering is scored on its own; masks is the set of the least
    edge counts' DAGs.
    """
    best, winners = None, set()
    for order in permutations(range(p)):
        mask = prefix = 0
        for k in order:
            prefix |= 1 << k
            mask |= sum(1 << j * p + k for j in range(p) if int(table[prefix * p + k]) >> j & 1)
        count = bin(mask).count("1")
        if best is None or count < best:
            best, winners = count, set()
        if count == best:
            winners.add(mask)
    return winners


def l0_optimal_masks(sigma, tol: float) -> set:
    """Edge masks (bit j*p + k for j -> k) of every DAG that minimizes the
    l0-penalized Gaussian score, sum over k of log sigma^2(k | pa(k)) plus
    lam times the edge count, for every lam small enough to trade no edge
    for a log-variance gap above tol: the exact score DP of Silander and
    Myllymaki (2006, "A simple approach for finding the globally optimal
    Bayesian network structure").

    In any order of the vertices, k's best parents among its
    predecessors S are the smallest sets P within S whose local score
    ties S's to within tol; ties of one size are all kept. Every order
    reaches the least score sum, log det sigma, so the order DP over
    prefixes minimizes the parent count, keeps every tied step, and a
    walk back from the full set collects every optimal DAG.
    """
    p = len(np.asarray(sigma))
    score = log_residual_variances(sigma)
    by_size = sorted(range(1 << p), key=int.bit_count)
    best = {}
    for (k, s), own in score.items():
        tied = [q for q in by_size if q & ~s == 0 and score[k, q] - own <= tol]
        best[k, s] = [q for q in tied if q.bit_count() == tied[0].bit_count()]
    members = [[v for v in range(p) if u >> v & 1] for u in range(1 << p)]
    cost = {0: 0}
    for u in by_size[1:]:
        cost[u] = min(cost[u ^ 1 << k] + best[k, u ^ 1 << k][0].bit_count() for k in members[u])

    @cache
    def walk(u: int) -> frozenset:
        """Edge masks of every optimal DAG on the vertex set u."""
        if not u:
            return frozenset({0})
        out = set()
        for k in members[u]:
            rest = u ^ 1 << k
            if cost[rest] + best[k, rest][0].bit_count() == cost[u]:
                for q in best[k, rest]:
                    edges = sum(1 << (j * p + k) for j in members[q])
                    out.update(mask | edges for mask in walk(rest))
        return frozenset(out)

    return set(walk((1 << p) - 1))


@dataclass(frozen=True)
class CholeskyFactor:
    """K = U @ diag(D) @ U.T with U upper unitriangular and D positive.

    nonzero_mask flags the strict upper entries of U exceeding the
    tolerance the factorization was run with.
    """

    U: np.ndarray
    D: np.ndarray
    nonzero_mask: np.ndarray

    @property
    def num_nonzero(self) -> int:
        return int(self.nonzero_mask.sum())

    def edges_for(self, pi) -> frozenset:
        """Map masked entries (i, j), i<j, to edges pi(i) -> pi(j)."""
        order = tuple(pi)
        rows, cols = np.nonzero(self.nonzero_mask)
        return frozenset((order[a], order[b]) for a, b in zip(rows, cols))


def permuted_precision(sigma, pi) -> CovarianceMatrix:
    """Invert the covariance and permute rows and columns by pi."""
    m = np.asarray(sigma, dtype=float)
    try:
        k = cho_solve(cho_factor(m, lower=True), np.eye(m.shape[0]))
    except np.linalg.LinAlgError as err:
        raise NumericalError(f"covariance failed to factor: {err}") from None
    k = (k + k.T) / 2.0
    idx = np.asarray(pi)
    return CovarianceMatrix(k[np.ix_(idx, idx)])


def upper_cholesky(k, *, chol_tol: float = CHOL_TOL) -> CholeskyFactor:
    """Factor an SPD matrix as U @ diag(D) @ U.T, U upper unitriangular.

    Implemented by reversing row and column order, taking the standard
    lower Cholesky factor, reversing back, and scaling columns by their
    pivots.  Entries of U at or below chol_tol in magnitude are treated
    as structural zeros in nonzero_mask.
    """
    m = np.asarray(k, dtype=float)
    rev = m[::-1, ::-1]
    try:
        low = np.linalg.cholesky(rev)
    except np.linalg.LinAlgError:
        raise NumericalError("matrix is not positive definite") from None
    uprime = low[::-1, ::-1]
    piv = np.diag(uprime).copy()
    d = piv**2
    u = uprime / piv[None, :]
    recon = (u * d[None, :]) @ u.T
    scale = np.abs(m).max()
    if np.abs(recon - m).max() > 1e-8 * scale:
        raise NumericalError("factor failed to reconstruct its input")
    mask = np.triu(np.abs(u) > chol_tol, k=1)
    u = u.copy()
    u.flags.writeable = False
    d.flags.writeable = False
    mask.flags.writeable = False
    return CholeskyFactor(U=u, D=d, nonzero_mask=mask)


def learn_doc(result, label, wall_ms, collinear) -> dict:
    """The `sp learn` JSON document as nested lists, for json.dumps.

    The CLI streams the winners as text instead, and what it writes must
    equal json.dumps of this byte for byte.  Each winner is its sorted
    edge list, and the winners are in the order of those lists, sorted
    here outright.
    """
    def pairs(items):
        return [[label(v) for v in item] for item in sorted(items)]

    return {
        "min_edges": result.min_edges,
        "winners": [pairs(edges) for edges in sorted(sorted(w.edges) for w in result.winners)],
        "classes": [
            {"skeleton": pairs(c.skeleton), "v_structures": pairs(c.v_structures)}
            for c in result.ordered_classes()
        ],
        "unique_class": result.unique_class,
        "permutations_scanned": result.permutations_scanned,
        "collinear_queries": collinear,
        "wall_time_ms": round(wall_ms, 3),
    }


def read_csv(path, what: str, prefix: str) -> tuple[np.ndarray, list[str], bool]:
    """The numbers in a CSV file, its column names, and whether a header gave them.

    Lines holding only commas and whitespace are skipped. A first record
    with a field that does not parse as a number is a header of column
    names, no two alike; a quoted name may hold a line break, so the
    header takes the lines the csv module reads for that record. Without
    a header column i is named prefix + str(i). Every data row must have
    the header's width, and a NaN or infinite entry is rejected with its
    1-based data row and its column name.
    """
    blank = lambda line: not line.replace(",", "").strip()
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as err:
        raise ValueError(f"{path}: {err}") from None
    while lines and blank(lines[0]):
        del lines[0]
    if not lines:
        raise ValueError(f"{path}: empty {what} file")
    reader = csv.reader(lines)
    first = [f.strip() for f in next(reader)]
    try:
        for f in first:
            float(f)
        named = False
    except ValueError:
        named, lines = True, lines[reader.line_num:]
    lines = [line for line in lines if not blank(line)]
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
