"""Brute-force checkers for the identifiability assumptions.

Each checker scans the full space its definition quantifies over (all
conditioning sets, all candidate DAGs) and returns a uniform report:
whether the assumption holds, and if not, up to MAX_WITNESSES concrete
counterexamples plus the total violation count.  The caps keep the
scans to desk scale; these functions exist to validate theory on small
instances, not to run inside experiments.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exceptions import CapacityError
from .graph import (
    Dag,
    d_separated,
    enumerate_all_dags,
    markov_equivalent,
    skeleton,
    triangles,
    unshielded_triples,
)
from .oracle import (
    CiBackend,
    CovarianceMatrix,
    _pair_subsets,
    caching_wrapper,
    iter_triples,
    lambda_backend,
)

MAX_WITNESSES = 20

__all__ = [
    "MAX_WITNESSES",
    "AssumptionReport",
    "Witness",
    "check_adjacency_faithfulness",
    "check_lambda_strong_smr",
    "check_markov",
    "check_orientation_faithfulness",
    "check_p_minimality",
    "check_restricted_faithfulness",
    "check_sgs_minimality",
    "check_smr",
    "check_triangle_faithfulness",
    "d_separation_set",
]


@dataclass(frozen=True)
class Witness:
    """One concrete counterexample: a CI triple, an edge, or a DAG."""

    subject: object
    reason: str


@dataclass(frozen=True)
class AssumptionReport:
    """Up to MAX_WITNESSES counterexamples and how many there were in all.

    The assumption holds exactly when there were none.
    """

    witnesses: tuple
    total_violations: int

    def __post_init__(self):
        object.__setattr__(self, "witnesses", tuple(self.witnesses))
        if len(self.witnesses) > MAX_WITNESSES:
            raise ValueError(f"witness list capped at {MAX_WITNESSES}")
        if self.total_violations < len(self.witnesses):
            raise ValueError("total_violations cannot undercount the witnesses")
        if self.total_violations and not self.witnesses:
            raise ValueError("a failing report carries a witness")

    @property
    def holds(self) -> bool:
        return self.total_violations == 0


def _report(violations) -> AssumptionReport:
    kept, total = [], 0
    for w in violations:
        total += 1
        if len(kept) < MAX_WITNESSES:
            kept.append(w)
    return AssumptionReport(witnesses=tuple(kept), total_violations=total)


def _guard(p: int, cap: int, what: str) -> None:
    if p > cap:
        raise CapacityError(f"{what} scans exhaustively and is capped at {cap} vertices")


def _check_match(g: Dag, ci: CiBackend) -> None:
    if g.p != ci.p:
        raise ValueError(f"graph has {g.p} vertices but backend covers {ci.p}")


def d_separation_set(g: Dag) -> frozenset:
    """All d-separated triples (j, k, S) of a graph, j < k, as a set."""
    return frozenset(t for t in iter_triples(g.p) if d_separated(g, *t))


def _markov_violations(g: Dag, ci: CiBackend):
    for j, k, s in sorted(d_separation_set(g), key=lambda t: (t[0], t[1], sorted(t[2]))):
        if not ci.is_independent(j, k, s):
            yield Witness(
                (j, k, s),
                f"{j} and {k} are separated given {sorted(s)} in the graph "
                f"but dependent in the backend",
            )


def check_markov(g: Dag, ci: CiBackend) -> AssumptionReport:
    """Every separation the graph encodes must hold in the backend."""
    _check_match(g, ci)
    _guard(g.p, 6, "the Markov check")
    return _report(_markov_violations(g, ci))


def _is_markov(g: Dag, ci: CiBackend) -> bool:
    return not any(
        d_separated(g, *t) and not ci.is_independent(*t) for t in iter_triples(g.p)
    )


def check_smr(g_star: Dag, ci: CiBackend) -> AssumptionReport:
    """No Markov DAG outside the class of g_star may match its sparsity.

    Fails either because g_star itself is not Markov, or because some
    Markov DAG with at most as many edges sits in a different
    equivalence class.
    """
    _check_match(g_star, ci)
    _guard(g_star.p, 5, "the sparsest-representation check")
    ci = caching_wrapper(ci)
    markov_problems = list(_markov_violations(g_star, ci))
    if markov_problems:
        return _report(markov_problems)

    budget = g_star.num_edges

    def rivals():
        for g in enumerate_all_dags(g_star.p):
            if g.num_edges > budget:
                continue
            if markov_equivalent(g, g_star):
                continue
            if _is_markov(g, ci):
                yield Witness(
                    g,
                    f"Markov with {g.num_edges} edges, at most the "
                    f"{budget} of the candidate, yet not equivalent to it",
                )

    return _report(rivals())


def check_adjacency_faithfulness(g: Dag, ci: CiBackend) -> AssumptionReport:
    """Adjacent vertices must stay dependent under every conditioning set."""
    _check_match(g, ci)
    _guard(g.p, 6, "the adjacency-faithfulness check")

    def violations():
        for j, k in sorted(g.edges):
            a, b = (j, k) if j < k else (k, j)
            for s in _pair_subsets(g.p, a, b):
                if ci.is_independent(a, b, s):
                    yield Witness(
                        (a, b, frozenset(s)),
                        f"{j} -> {k} is an edge yet the pair tests "
                        f"independent given {sorted(s)}",
                    )

    return _report(violations())


def check_orientation_faithfulness(g: Dag, ci: CiBackend) -> AssumptionReport:
    """Pairs spanning an unshielded triple must track d-connection."""
    _check_match(g, ci)
    _guard(g.p, 6, "the orientation-faithfulness check")
    pairs = sorted({(j, k) for j, _, k in unshielded_triples(g)})

    def violations():
        for j, k in pairs:
            for s in _pair_subsets(g.p, j, k):
                if not d_separated(g, j, k, s) and ci.is_independent(j, k, s):
                    yield Witness(
                        (j, k, frozenset(s)),
                        f"{j} and {k} span an unshielded triple and are "
                        f"connected given {sorted(s)}, yet test independent",
                    )

    return _report(violations())


def check_restricted_faithfulness(g: Dag, ci: CiBackend) -> AssumptionReport:
    """Adjacency- and orientation-faithfulness combined."""
    adj = check_adjacency_faithfulness(g, ci)
    ori = check_orientation_faithfulness(g, ci)
    kept = (adj.witnesses + ori.witnesses)[:MAX_WITNESSES]
    total = adj.total_violations + ori.total_violations
    return AssumptionReport(witnesses=kept, total_violations=total)


def check_triangle_faithfulness(g: Dag, ci: CiBackend) -> AssumptionReport:
    """Full faithfulness restricted to pairs inside skeleton triangles.

    Triangle-free graphs hold vacuously.
    """
    _check_match(g, ci)
    _guard(g.p, 6, "the triangle-faithfulness check")
    pairs = set()
    for a, b, c in triangles(g):
        pairs.update({tuple(sorted(x)) for x in ((a, b), (a, c), (b, c))})

    def violations():
        for j, k in sorted(pairs):
            for s in _pair_subsets(g.p, j, k):
                sep = d_separated(g, j, k, s)
                ind = ci.is_independent(j, k, s)
                if sep != ind:
                    side = (
                        "separated in the graph but dependent"
                        if sep
                        else "connected in the graph but independent"
                    )
                    yield Witness(
                        (j, k, frozenset(s)),
                        f"in-triangle pair {j},{k} given {sorted(s)}: {side}",
                    )

    return _report(violations())


def check_sgs_minimality(g: Dag, ci: CiBackend) -> AssumptionReport:
    """The graph is Markov and no single edge can be spared.

    Deleting an edge only ever adds separations, so a Markov proper
    sub-DAG exists exactly when some one-edge deletion stays Markov;
    the sweep over single deletions is therefore complete.
    """
    _check_match(g, ci)
    _guard(g.p, 6, "the minimality check")
    ci = caching_wrapper(ci)
    markov_problems = list(_markov_violations(g, ci))
    if markov_problems:
        return _report(markov_problems)

    def violations():
        for j, k in sorted(g.edges):
            if _is_markov(g.without_edge(j, k), ci):
                yield Witness(
                    (j, k),
                    f"dropping the edge {j} -> {k} leaves a graph that is "
                    f"still Markov to the backend",
                )

    return _report(violations())


def check_p_minimality(g: Dag, ci: CiBackend) -> AssumptionReport:
    """No Markov DAG may encode a strict superset of g's separations."""
    _check_match(g, ci)
    _guard(g.p, 5, "the preference-minimality check")
    ci = caching_wrapper(ci)
    markov_problems = list(_markov_violations(g, ci))
    if markov_problems:
        return _report(markov_problems)

    base = d_separation_set(g)
    all_triples = list(iter_triples(g.p))

    def violations():
        for cand in enumerate_all_dags(g.p):
            strict = False
            preferred = True
            for j, k, s in all_triples:
                sep = d_separated(cand, j, k, s)
                if sep:
                    if not ci.is_independent(j, k, s):
                        preferred = False  # not Markov
                        break
                    if (j, k, s) not in base:
                        strict = True
                elif (j, k, s) in base:
                    preferred = False  # lost one of g's separations
                    break
            if preferred and strict:
                yield Witness(
                    cand,
                    "Markov and encodes strictly more separations than the candidate",
                )

    return _report(violations())


def check_lambda_strong_smr(
    g: Dag, sigma: CovarianceMatrix, lam: float
) -> AssumptionReport:
    """Sparsest-representation check against the thresholded backend."""
    return check_smr(g, lambda_backend(sigma, lam))
