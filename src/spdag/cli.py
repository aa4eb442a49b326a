"""Command line front end.

Four subcommands: ``learn`` runs the ordering search (or the matrix
factorization route), ``baseline`` runs a constraint-based skeleton
method, ``check`` evaluates an assumption against a candidate graph,
and ``simulate`` drives the seeded experiment grid.

Vertex labels in the output follow the input: a graph file written
1-based comes back 1-based, a sample CSV with a header row names the
columns, and bare covariance matrices fall back to 0-based indices.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from itertools import chain

import numpy as np

from . import assumptions
from .baselines import pc_pattern, sgs_pattern
from .exceptions import CapacityError, DagTextError, NumericalError
from .graph import Dag, EquivClassPattern, _bits, load_dag_file
from .oracle import (
    TestConfig,
    caching_wrapper,
    dsep_backend,
    fisher_z_backend,
    gaussian_exact_backend,
    lambda_backend,
    load_covariance_csv,
    load_samples_csv,
)
from .sp import PERMUTATION_CAP, CHOL_TOL, sp_search, sp_search_cholesky
from .harness import config_from_file, run_grid, write_outputs

BACKENDS = ("dsep", "gaussian", "fisher", "lambda", "cholesky")

ASSUMPTIONS = {
    "markov": assumptions.check_markov,
    "smr": assumptions.check_smr,
    "adjacency": assumptions.check_adjacency_faithfulness,
    "orientation": assumptions.check_orientation_faithfulness,
    "restricted": assumptions.check_restricted_faithfulness,
    "triangle": assumptions.check_triangle_faithfulness,
    "sgs-min": assumptions.check_sgs_minimality,
    "p-min": assumptions.check_p_minimality,
    "lambda-smr": assumptions.check_smr,
}


class UsageError(ValueError):
    """Bad argument combination or unreadable input."""


def _build_backend(args):
    """Resolve --backend/--input into (ci_backend_or_matrix, label_fn).

    The cholesky route, which only learn offers, returns the covariance
    itself since the search consumes the matrix, not a query interface.
    """
    kind = args.backend
    if kind == "dsep":
        doc = load_dag_file(args.input)
        base = doc.label_base
        return dsep_backend(doc.dag), lambda v: v + base

    if kind == "fisher":
        data, names = load_samples_csv(args.input)
        cols = data.T.copy()  # a row per column halves the cost of the reductions
        # centered to zeros, a constant column would become a collinear collider hub
        flat = np.flatnonzero(cols.min(axis=1) == cols.max(axis=1))
        if flat.size:
            raise UsageError(f"{args.input}: column {names[flat[0]]} is constant")
        centered = (cols - cols.mean(axis=1, keepdims=True)).T
        return fisher_z_backend(centered, TestConfig(alpha=args.alpha)), lambda v: names[v]

    sigma, names = load_covariance_csv(args.input)
    label = (lambda v: names[v]) if names else (lambda v: v)
    if kind == "gaussian":
        if args.tol is None:
            return gaussian_exact_backend(sigma), label
        return gaussian_exact_backend(sigma, zero_tol=args.tol), label
    if kind == "lambda":
        if args.lam is None:
            raise UsageError("--backend lambda requires --lambda")
        return lambda_backend(sigma, args.lam), label
    return sigma, label  # cholesky


def _edge_list(edges, label):
    return [[label(j), label(k)] for j, k in sorted(edges)]


def _pattern_json(pat: EquivClassPattern, label):
    return {
        "skeleton": [[label(j), label(k)] for j, k in sorted(pat.skeleton)],
        "v_structures": [
            [label(j), label(mid), label(k)] for j, mid, k in sorted(pat.v_structures)
        ],
    }


def _subject_json(obj, label):
    """Witness subjects hold vertex indices, index tuples, sets, or DAGs."""
    if isinstance(obj, Dag):
        return {"edges": _edge_list(obj.edges, label)}
    if isinstance(obj, (frozenset, set)):
        return sorted((_subject_json(x, label) for x in obj), key=str)
    if isinstance(obj, (tuple, list)):
        return [_subject_json(x, label) for x in obj]
    if isinstance(obj, (int, np.integer)):
        return label(int(obj))
    return str(obj)


def _write_json(doc, out, winners=None):
    """Write json.dumps(doc) and a newline to out ('-' for stdout).

    winners, if given, yields the text of doc's "winners" list, which
    doc leaves empty, in pieces; they go to out as they come, so a dense
    result's text is never held whole.
    """
    text = json.dumps(doc) + "\n"
    pieces = [text]
    if winners is not None:
        # min_edges, the one field before winners, is a number, so the
        # first "[]" is the empty winners list
        head, tail = text.split("[]", 1)
        pieces = chain([head, "["], winners, ["]", tail])
    if out == "-":
        sys.stdout.writelines(pieces)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)


def _print_summary(out, line):
    """Print the one-line summary to stdout, or to stderr when the JSON
    went there, so stdout holds one JSON document."""
    print(line, file=sys.stderr if out == "-" else sys.stdout)


class _RowTexts(dict):
    """JSON texts of vertex j's out-edges, keyed by j's children mask.

    Each edge's text ends in ", ", so a winner's rows join into its edge
    list with two characters to drop.  A text is built on first use.
    """

    def __init__(self, j, label):
        self.j, self.label = j, label

    def __missing__(self, r):
        j, label = self.j, self.label
        text = self[r] = "".join(json.dumps([label(j), label(k)]) + ", " for k in _bits(r))
        return text


def _search_json(result, label, wall_ms, collinear):
    """The learn document, its winners left empty, and their text in pieces.

    Row j of a winner's edge mask holds the children of j, so its rows'
    edges in turn are its sorted edge list.  Winners share rows, and
    each distinct row's text is built once.
    """
    p, row = result.p, (1 << result.p) - 1
    rows = [(_RowTexts(j, label), j * p) for j in range(p)]

    def winner_texts():
        sep = ""
        for m in result.ordered_masks():
            yield sep + "[" + "".join([t[m >> s & row] for t, s in rows])[:-2] + "]"
            sep = ", "

    doc = {
        "min_edges": result.min_edges,
        "winners": [],
        "classes": [_pattern_json(c, label) for c in result.ordered_classes()],
        "unique_class": result.unique_class,
        "permutations_scanned": result.permutations_scanned,
        "collinear_queries": collinear,
        "wall_time_ms": round(wall_ms, 3),
    }
    return doc, winner_texts()


def cmd_learn(args) -> int:
    built, label = _build_backend(args)
    t0 = time.perf_counter()
    if args.backend == "cholesky":
        tol = args.tol if args.tol is not None else CHOL_TOL
        result = sp_search_cholesky(built, chol_tol=tol, max_p=args.max_p)
    else:
        result = sp_search(caching_wrapper(built), max_p=args.max_p)
    wall_ms = (time.perf_counter() - t0) * 1000.0
    # only the partial-correlation backends count collinear queries
    collinear = getattr(built, "collinear_warnings", 0)
    doc, winners = _search_json(result, label, wall_ms, collinear)
    _write_json(doc, args.out, winners)
    kind = "class" if result.unique_class else "classes"
    _print_summary(
        args.out,
        f"minimum {result.min_edges} edges, {len(result.masks)} optimal "
        f"DAGs in {len(result.classes)} equivalence {kind} "
        f"({result.permutations_scanned} orderings scanned)",
    )
    return 0


def cmd_baseline(args) -> int:
    built, label = _build_backend(args)
    t0 = time.perf_counter()
    # SGS asks each query once, so only PC, which repeats them, gets a cache
    pattern = sgs_pattern(built) if args.method == "sgs" else pc_pattern(caching_wrapper(built))
    wall_ms = (time.perf_counter() - t0) * 1000.0
    doc = {
        "method": args.method,
        "min_edges": len(pattern.skeleton),
        "winners": [],
        "classes": [_pattern_json(pattern, label)],
        "unique_class": True,
        "permutations_scanned": 0,
        "collinear_queries": getattr(built, "collinear_warnings", 0),
        "wall_time_ms": round(wall_ms, 3),
    }
    _write_json(doc, args.out)
    _print_summary(
        args.out,
        f"{args.method} skeleton has {len(pattern.skeleton)} edges, "
        f"{len(pattern.v_structures)} v-structures",
    )
    return 0


def cmd_check(args) -> int:
    doc = load_dag_file(args.graph)
    label = lambda v: v + doc.label_base
    t0 = time.perf_counter()
    if args.assumption == "lambda-smr" and args.backend != "lambda":
        raise UsageError("--assumption lambda-smr requires --backend lambda")
    built, _ = _build_backend(args)
    report = ASSUMPTIONS[args.assumption](doc.dag, built)
    wall_ms = (time.perf_counter() - t0) * 1000.0
    out = {
        "assumption": args.assumption,
        "holds": report.holds,
        "total_violations": report.total_violations,
        "witnesses": [
            {"subject": _subject_json(w.subject, label), "reason": w.reason}
            for w in report.witnesses
        ],
        "wall_time_ms": round(wall_ms, 3),
    }
    _write_json(out, args.out)
    verdict = "holds" if report.holds else f"fails ({report.total_violations} violations)"
    _print_summary(args.out, f"{args.assumption}: {verdict}")
    return 0


def cmd_simulate(args) -> int:
    cfg = config_from_file(args.config)
    result = run_grid(cfg, workers=args.threads)
    paths = write_outputs(result, args.out_dir)
    print(
        f"{len(result.records)} records over {len(result.cells)} cells "
        f"({len(result.skips)} skips) -> {args.out_dir}"
    )
    for name in ("trials", "aggregate", "summary"):
        print(f"  {paths[name]}")
    if paths["figures"]:
        print(f"  {len(paths['figures'])} figure panels")
    return 0


def _add_backend_args(sub, *, with_cholesky):
    choices = BACKENDS if with_cholesky else tuple(b for b in BACKENDS if b != "cholesky")
    sub.add_argument("--backend", required=True, choices=choices)
    sub.add_argument(
        "--input",
        required=True,
        help="graph file (dsep), sample CSV (fisher), or covariance CSV",
    )
    sub.add_argument(
        "--alpha", type=float, default=0.01, help="test size for the fisher backend"
    )
    sub.add_argument(
        "--lambda",
        dest="lam",
        type=float,
        default=None,
        help="partial-correlation threshold for the lambda backend",
    )
    sub.add_argument(
        "--tol",
        type=float,
        default=None,
        help="zero tolerance (gaussian) or factor tolerance (cholesky)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sp", description=__doc__.split("\n")[0])
    subs = parser.add_subparsers(dest="command", required=True)

    learn = subs.add_parser("learn", help="search all orderings for the sparsest DAGs")
    _add_backend_args(learn, with_cholesky=True)
    learn.add_argument("--max-p", type=int, default=PERMUTATION_CAP)
    # accepted so existing scripts keep working; the search runs in one
    # process, and simulate --threads parallelizes across trials instead
    learn.add_argument("--threads", type=int, default=1, help="ignored")
    learn.add_argument("--out", required=True, help="result JSON path ('-' for stdout)")
    learn.set_defaults(func=cmd_learn)

    base = subs.add_parser("baseline", help="run a constraint-based skeleton method")
    base.add_argument("--method", required=True, choices=("sgs", "pc"))
    _add_backend_args(base, with_cholesky=False)
    base.add_argument("--out", required=True, help="result JSON path ('-' for stdout)")
    base.set_defaults(func=cmd_baseline)

    check = subs.add_parser("check", help="test an assumption for a candidate graph")
    check.add_argument(
        "--assumption",
        required=True,
        choices=tuple(ASSUMPTIONS),
    )
    check.add_argument("--graph", required=True, help="candidate DAG text file")
    _add_backend_args(check, with_cholesky=False)
    check.add_argument("--out", required=True, help="report JSON path ('-' for stdout)")
    check.set_defaults(func=cmd_check)

    sim = subs.add_parser("simulate", help="run a seeded recovery experiment grid")
    sim.add_argument("--config", required=True, help="key=value or JSON config file")
    sim.add_argument("--out-dir", required=True)
    sim.add_argument("--threads", type=int, default=1)
    sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        UsageError,
        DagTextError,
        CapacityError,
        NumericalError,
        ValueError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
