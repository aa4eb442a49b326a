"""Answers computed apart from the program, and the checks that use them.

Nothing here imports spdag. Every check takes the program's output in a
plain form (edge lists, dicts, CSV text) and returns a list of problems;
an empty list means the output passed.
"""

from __future__ import annotations

import math
from itertools import combinations
from statistics import NormalDist

import numpy as np

# A query whose variables {j, k} u S have a correlation matrix with a
# smallest eigenvalue below this is collinear, and collinear counts as
# dependent (the rule the FisherZBackend docstring documents).
COLLINEAR_EIG = 1e-10


def bits(mask):
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def fisher_dependence(data, alpha):
    """Fisher-z decisions for every query on an n x p sample.

    Uses the uncentered 1/n moment matrix. Returns a bool array dep of
    shape (2**p, p, p): for j, k in the vertex set T, dep[T, j, k] says
    whether X_j and X_k test dependent given X_(T minus {j, k}). Each
    subset's partial correlations come from one inverse of its block.
    """
    n, p = data.shape
    moment = data.T @ data / n
    scale = np.sqrt(np.diag(moment))
    corr = moment / np.outer(scale, scale)
    z = NormalDist().inv_cdf(1 - alpha / 2)
    dep = np.ones((1 << p, p, p), dtype=bool)
    by_size = {}
    for t in range(1 << p):
        by_size.setdefault(bin(t).count("1"), []).append(t)
    for size, masks in by_size.items():
        if size < 2:
            continue
        idx = np.array([bits(t) for t in masks])
        blocks = corr[idx[:, :, None], idx[:, None, :]]
        ok = np.linalg.eigvalsh(blocks)[:, 0] > COLLINEAR_EIG
        inv = np.linalg.inv(np.where(ok[:, None, None], blocks, np.eye(size)))
        d = np.sqrt(np.einsum("mii->mi", inv))
        rho = np.clip(-inv / (d[:, :, None] * d[:, None, :]), -1.0, 1.0)
        with np.errstate(divide="ignore"):
            stat = math.sqrt(n - (size - 2) - 3) * np.abs(np.arctanh(rho))
        indep = (stat < z) & ok[:, None, None]
        dep[np.array(masks)[:, None, None], idx[:, :, None], idx[:, None, :]] = ~indep
    return dep


def sparsest(p, dep):
    """Subset DP over ordering prefixes: (min edge count, winning edge sets).

    In an ordering, vertex k's parents are the earlier j that stay
    dependent on k given the other earlier vertices, so they depend only
    on the set of earlier vertices. Winners are the DAGs of every ordering
    that attains the minimum.
    """
    full = (1 << p) - 1
    parents = {}
    for mask in range(full + 1):
        for k in range(p):
            if not mask >> k & 1:
                t = mask | 1 << k
                parents[mask, k] = tuple(j for j in bits(mask) if dep[t, j, k])
    best = [math.inf] * (full + 1)
    best[0] = 0
    for mask in range(full):
        for k in range(p):
            if not mask >> k & 1:
                nxt = mask | 1 << k
                best[nxt] = min(best[nxt], best[mask] + len(parents[mask, k]))
    togo = [math.inf] * (full + 1)
    togo[full] = 0
    for mask in range(full - 1, -1, -1):
        for k in range(p):
            if not mask >> k & 1:
                cand = len(parents[mask, k]) + togo[mask | 1 << k]
                togo[mask] = min(togo[mask], cand)
    total = best[full]
    partial = {0: {frozenset()}}
    for mask in range(full):
        here = partial.pop(mask, None)
        if here is None:
            continue
        for k in range(p):
            if mask >> k & 1:
                continue
            nxt = mask | 1 << k
            par = parents[mask, k]
            if best[mask] + len(par) + togo[nxt] != total:
                continue
            new = frozenset((j, k) for j in par)
            partial.setdefault(nxt, set()).update(e | new for e in here)
    return total, partial[full]


def pattern(edges):
    """(skeleton, v-structures) of a DAG given as (parent, child) pairs."""
    skel = frozenset((min(a, b), max(a, b)) for a, b in edges)
    parents = {}
    for a, b in edges:
        parents.setdefault(b, []).append(a)
    vees = set()
    for mid, ps in parents.items():
        for a, b in combinations(sorted(ps), 2):
            if (a, b) not in skel:
                vees.add((a, mid, b))
    return skel, frozenset(vees)


def is_acyclic(p, edges):
    indeg = [0] * p
    out = {v: [] for v in range(p)}
    for a, b in edges:
        indeg[b] += 1
        out[a].append(b)
    ready = [v for v in range(p) if indeg[v] == 0]
    seen = 0
    while ready:
        v = ready.pop()
        seen += 1
        for w in out[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
    return seen == p


def parse_learn(doc, index):
    """Map `sp learn` JSON to index form: (min_edges, winners, classes).

    winners is a list of edge frozensets and classes a list of
    (skeleton, v-structures) pairs, both in the order the program wrote.
    """
    winners = [frozenset((index(a), index(b)) for a, b in w) for w in doc["winners"]]
    classes = []
    for c in doc["classes"]:
        skel = frozenset(
            (min(index(a), index(b)), max(index(a), index(b))) for a, b in c["skeleton"]
        )
        vees = frozenset(
            (min(index(a), index(b)), index(m), max(index(a), index(b)))
            for a, m, b in c["v_structures"]
        )
        classes.append((skel, vees))
    return doc["min_edges"], winners, classes


def check_learn(p, doc, index):
    """Properties every `sp learn` answer must have, whatever the route."""
    min_edges, winners, classes = parse_learn(doc, index)
    problems = []
    if not winners:
        problems.append("no winners")
    if len(set(winners)) != len(winners):
        problems.append("duplicate winners")
    for w in winners:
        if len(w) != min_edges:
            problems.append(f"winner has {len(w)} edges, min_edges is {min_edges}")
            break
    for w in winners:
        if not is_acyclic(p, w):
            problems.append("cyclic winner")
            break
    if len(set(classes)) != len(classes):
        problems.append("duplicate classes")
    if set(classes) != {pattern(w) for w in winners}:
        problems.append("classes are not exactly the winners' patterns")
    if doc["unique_class"] != (len(classes) == 1):
        problems.append("unique_class does not match the class count")
    if doc["permutations_scanned"] != math.factorial(p):
        problems.append(f"permutations_scanned {doc['permutations_scanned']} != {p}!")
    return problems


def check_learn_sample(p, doc, index, dep):
    """`sp learn --backend fisher` against the DP over our own decisions."""
    problems = check_learn(p, doc, index)
    want_min, want_winners = sparsest(p, dep)
    min_edges, winners, _ = parse_learn(doc, index)
    if min_edges != want_min:
        problems.append(f"min_edges {min_edges}, reference {want_min}")
    elif set(winners) != want_winners:
        problems.append(
            f"{len(winners)} winners, reference has {len(want_winners)}"
        )
    return problems


def answer(doc, index):
    """What the two search routes must agree on: min_edges and the classes."""
    min_edges, _, classes = parse_learn(doc, index)
    return min_edges, frozenset(classes)


def same_answer(answer_a, answer_b):
    """Route equivalence of two `answer`s."""
    (a_min, a_classes), (b_min, b_classes) = answer_a, answer_b
    problems = []
    if a_min != b_min:
        problems.append(f"min_edges differ between routes: {a_min} vs {b_min}")
    if a_classes != b_classes:
        problems.append("classes differ between routes")
    return problems


def check_sparse(doc, index, true_edges):
    min_edges, _, _ = parse_learn(doc, index)
    if min_edges > true_edges:
        return [f"min_edges {min_edges} exceeds the {true_edges} true edges"]
    return []


def check_complete(p, doc, index):
    min_edges, winners, classes = parse_learn(doc, index)
    problems = []
    if min_edges != p * (p - 1) // 2:
        problems.append(f"complete DAG: min_edges {min_edges} != {p * (p - 1) // 2}")
    if len(winners) != math.factorial(p):
        problems.append(f"complete DAG: {len(winners)} winners != {p}!")
    if len(classes) != 1:
        problems.append(f"complete DAG: {len(classes)} classes != 1")
    return problems


def check_skeletons(p, dep, sgs_edges, sgs_sepsets, pc_edges, pc_sepsets):
    """SGS against the all-subsets table; PC separating sets; SGS within PC.

    Sepsets are dicts {(j, k): conditioning set}.
    """
    problems = []
    want = set()
    for j, k in combinations(range(p), 2):
        rest = [v for v in range(p) if v != j and v != k]
        base = 1 << j | 1 << k
        masks = [base | sum(1 << v for v in s)
                 for size in range(len(rest) + 1) for s in combinations(rest, size)]
        if dep[masks, j, k].all():
            want.add((j, k))
    if set(sgs_edges) != want:
        problems.append(
            f"SGS skeleton has {len(sgs_edges)} edges, reference {len(want)}"
        )
    for name, table in (("SGS", sgs_sepsets), ("PC", pc_sepsets)):
        for (j, k), s in table.items():
            t = 1 << j | 1 << k | sum(1 << v for v in s)
            if dep[t, j, k]:
                problems.append(f"{name} separating set {sorted(s)} for ({j}, {k}) tests dependent")
                break
    if not set(sgs_edges) <= set(pc_edges):
        problems.append("SGS skeleton is not within the PC skeleton")
    return problems


def check_grid(trials_csv, aggregate_csv, summary, cells, trials, methods):
    """Grid outputs: record count, SGS/PC ordering per trial, aggregates.

    trials_csv and aggregate_csv are lists of dict rows as csv.DictReader
    gives them.
    """
    problems = []
    want = cells * trials * len(methods)
    if len(trials_csv) != want:
        problems.append(f"{len(trials_csv)} trial records, expected {want}")
    if summary.get("record_count") != want:
        problems.append(f"summary record_count {summary.get('record_count')} != {want}")
    if summary.get("skipped"):
        problems.append(f"{len(summary['skipped'])} skipped cells or methods")
    cell_key = lambda r: (r["p"], r["n"], r["alpha"], r["nbhd"])
    by_trial = {}
    for r in trials_csv:
        by_trial.setdefault((cell_key(r), r["trial"]), {})[r["method"]] = r
    for key, rows in by_trial.items():
        if "sgs" in rows and "pc" in rows:
            sgs, pc = rows["sgs"], rows["pc"]
            if int(sgs["extra_edges"]) > int(pc["extra_edges"]):
                problems.append(f"trial {key}: SGS has more extra edges than PC")
            if int(sgs["missing_edges"]) < int(pc["missing_edges"]):
                problems.append(f"trial {key}: SGS misses fewer edges than PC")
    groups = {}
    for r in trials_csv:
        groups.setdefault(cell_key(r) + (r["method"],), []).append(r)
    expected = {}
    for key, rows in groups.items():
        total = len(rows)
        expected[key + ("recovered",)] = (
            sum(r["skeleton_recovered"] == "true" for r in rows) / total
        )
        expected[key + ("extra_edges",)] = sum(int(r["extra_edges"]) > 0 for r in rows) / total
        expected[key + ("missing_edges",)] = sum(int(r["missing_edges"]) > 0 for r in rows) / total
    got = {cell_key(r) + (r["method"], r["metric"]): float(r["value"]) for r in aggregate_csv}
    if got != expected:
        problems.append("aggregate.csv does not match proportions recomputed from trials.csv")
    return problems
