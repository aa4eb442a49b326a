"""Brute-force checkers for the identifiability assumptions.

Each checker scans the full space its definition quantifies over (all
conditioning sets, all candidate DAGs) and returns a uniform report:
whether the assumption holds, and if not, up to MAX_WITNESSES concrete
counterexamples plus the total violation count.  The caps keep the
scans to desk scale; these functions exist to validate theory on small
instances, not to run inside experiments. Scans over triples take the
search's cap, PERMUTATION_CAP; SMR and P-minimality list every DAG and
take ENUMERATION_CAP.

Each checker is a guard plus its definition. They share one Markov
test, which the SMR and minimality checks run first; one sweep over
pairs and conditioning sets for the faithfulness family (pairs in a
skeleton triangle are adjacent, so the triangle check is
adjacency-faithfulness over triangle edges); and the DAG enumerator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations

from .exceptions import CapacityError
from .graph import (
    ENUMERATION_CAP,
    Dag,
    _d_separated,
    d_separated,
    enumerate_all_dags,
    markov_equivalent,
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
from .sp import PERMUTATION_CAP

MAX_WITNESSES = 20

__all__ = [
    "MAX_WITNESSES",
    "ENUMERATION_CAP",
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


def _checked(g: Dag, ci: CiBackend, cap: int, what: str) -> None:
    if g.p != ci.p:
        raise ValueError(f"graph has {g.p} vertices but backend covers {ci.p}")
    if g.p > cap:
        raise CapacityError(f"{what} scans exhaustively and is capped at {cap} vertices")


def d_separation_set(g: Dag) -> frozenset:
    """All d-separated triples (j, k, S) of a graph, j < k, as a set."""
    return frozenset(t for t in iter_triples(g.p) if d_separated(g, *t))


@lru_cache(maxsize=None)
def _sorted_triples(p: int) -> tuple:
    """Every query (j, k, S, S as a bitmask), j < k, sorted by (j, k, sorted(S))."""
    triples = sorted(iter_triples(p), key=lambda t: (t[0], t[1], sorted(t[2])))
    return tuple((j, k, s, sum(1 << v for v in s)) for j, k, s in triples)


def _markov_violations(g: Dag, ci: CiBackend):
    """Each separation of g that the backend does not hold, in _sorted_triples order."""
    for j, k, s, mask in _sorted_triples(g.p):
        if _d_separated(g, j, k, mask) and not ci.is_independent(j, k, s):
            yield Witness(
                (j, k, s),
                f"{j} and {k} are separated given {sorted(s)} in the graph "
                f"but dependent in the backend",
            )


def _is_markov(g: Dag, ci: CiBackend) -> bool:
    return not any(_markov_violations(g, ci))


def _markov_first(g: Dag, ci: CiBackend, rest) -> AssumptionReport:
    """g's Markov violations if it has any, else the witnesses rest(ci) yields.

    Both scans share one cache in front of ci.
    """
    ci = caching_wrapper(ci)
    problems = list(_markov_violations(g, ci))
    return _report(problems or rest(ci))


def _independent_pairs(g: Dag, ci: CiBackend, pairs, why, connected: bool = False):
    """A witness for each pair and conditioning set under which the pair tests independent.

    Pairs are scanned in the order given, conditioning sets by size then
    lexicographically; with connected, only sets that leave the pair
    d-connected in g count. The reason is why formatted with the pair as
    given (j, k) and the sorted set (s); the subject puts the low vertex first.
    """
    for j, k in pairs:
        a, b = (j, k) if j < k else (k, j)
        for s in _pair_subsets(g.p, a, b):
            if (not connected or not d_separated(g, a, b, s)) and ci.is_independent(a, b, s):
                yield Witness((a, b, frozenset(s)), why.format(j=j, k=k, s=sorted(s)))


def check_markov(g: Dag, ci: CiBackend) -> AssumptionReport:
    """Every separation the graph encodes must hold in the backend."""
    _checked(g, ci, PERMUTATION_CAP, "the Markov check")
    return _report(_markov_violations(g, ci))


def check_smr(g_star: Dag, ci: CiBackend) -> AssumptionReport:
    """No Markov DAG outside the class of g_star may match its sparsity.

    Fails either because g_star itself is not Markov, or because some
    Markov DAG with at most as many edges sits in a different
    equivalence class.
    """
    _checked(g_star, ci, ENUMERATION_CAP, "the sparsest-representation check")
    budget = g_star.num_edges

    def rivals(ci):
        for g in enumerate_all_dags(g_star.p):
            if g.num_edges <= budget and not markov_equivalent(g, g_star) and _is_markov(g, ci):
                yield Witness(
                    g,
                    f"Markov with {g.num_edges} edges, at most the "
                    f"{budget} of the candidate, yet not equivalent to it",
                )

    return _markov_first(g_star, ci, rivals)


def _adjacency(g: Dag, ci: CiBackend):
    why = "{j} -> {k} is an edge yet the pair tests independent given {s}"
    return _independent_pairs(g, ci, sorted(g.edges), why)


def _orientation(g: Dag, ci: CiBackend):
    pairs = sorted({(j, k) for j, _, k in unshielded_triples(g)})
    why = "{j} and {k} span an unshielded triple and are connected given {s}, yet test independent"
    return _independent_pairs(g, ci, pairs, why, connected=True)


def check_adjacency_faithfulness(g: Dag, ci: CiBackend) -> AssumptionReport:
    """Adjacent vertices must stay dependent under every conditioning set."""
    _checked(g, ci, PERMUTATION_CAP, "the adjacency-faithfulness check")
    return _report(_adjacency(g, ci))


def check_orientation_faithfulness(g: Dag, ci: CiBackend) -> AssumptionReport:
    """Pairs spanning an unshielded triple must track d-connection."""
    _checked(g, ci, PERMUTATION_CAP, "the orientation-faithfulness check")
    return _report(_orientation(g, ci))


def check_restricted_faithfulness(g: Dag, ci: CiBackend) -> AssumptionReport:
    """Adjacency- and orientation-faithfulness combined."""
    _checked(g, ci, PERMUTATION_CAP, "the restricted-faithfulness check")
    return _report(chain(_adjacency(g, ci), _orientation(g, ci)))


def check_triangle_faithfulness(g: Dag, ci: CiBackend) -> AssumptionReport:
    """Faithfulness restricted to pairs inside skeleton triangles.

    Such pairs are adjacent, and adjacent vertices are never d-separated,
    so this is adjacency-faithfulness over the edges of triangles.
    Triangle-free graphs hold vacuously.
    """
    _checked(g, ci, PERMUTATION_CAP, "the triangle-faithfulness check")
    pairs = sorted({pair for t in triangles(g) for pair in combinations(t, 2)})
    why = "in-triangle pair {j},{k} given {s}: connected in the graph but independent"
    return _report(_independent_pairs(g, ci, pairs, why))


def check_sgs_minimality(g: Dag, ci: CiBackend) -> AssumptionReport:
    """The graph is Markov and no single edge can be spared.

    Deleting an edge only ever adds separations, so a Markov proper
    sub-DAG exists exactly when some one-edge deletion stays Markov;
    the sweep over single deletions is therefore complete.
    """
    _checked(g, ci, PERMUTATION_CAP, "the minimality check")

    def spare_edges(ci):
        for j, k in sorted(g.edges):
            if _is_markov(g.without_edge(j, k), ci):
                yield Witness(
                    (j, k),
                    f"dropping the edge {j} -> {k} leaves a graph that is "
                    f"still Markov to the backend",
                )

    return _markov_first(g, ci, spare_edges)


def check_p_minimality(g: Dag, ci: CiBackend) -> AssumptionReport:
    """No Markov DAG may encode a strict superset of g's separations.

    It stays enumerative: every DAG on g's vertices is a candidate, so it
    is capped at ENUMERATION_CAP.
    """
    _checked(g, ci, ENUMERATION_CAP, "the preference-minimality check")
    base = d_separation_set(g)

    def preferred(ci):
        for cand in enumerate_all_dags(g.p):
            strict = False
            for j, k, s, mask in _sorted_triples(g.p):
                if _d_separated(cand, j, k, mask):
                    if not ci.is_independent(j, k, s):
                        break  # not Markov
                    strict = strict or (j, k, s) not in base
                elif (j, k, s) in base:
                    break  # lost one of g's separations
            else:  # Markov, and keeps every separation of g
                if strict:
                    yield Witness(
                        cand,
                        "Markov and encodes strictly more separations than the candidate",
                    )

    return _markov_first(g, ci, preferred)


def check_lambda_strong_smr(
    g: Dag, sigma: CovarianceMatrix, lam: float
) -> AssumptionReport:
    """Sparsest-representation check against the thresholded backend."""
    return check_smr(g, lambda_backend(sigma, lam))
