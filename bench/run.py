"""Benchmark of spdag: `sp learn`, the SGS/PC baselines and the recovery grid.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
`src/` directory. The run sets up its inputs, then repeats whole rounds
of the workload's operations until S seconds have passed, checks every
output, and prints one JSON object as its last line. With --trace 1 the
metrics are the per-layer ones of a run with spans recorded. See
README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# One thread everywhere: this is a single-threaded benchmark on a small box.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
# Fresh interpreters that time the imports again, besides this process,
# this many before the rounds and as many after: the machine's speed
# wanders in phases of several seconds, and samples far apart span more.
IMPORT_CHILDREN = 2


def import_program():
    """Import the program and the workloads; returns the wall time it took."""
    t0 = perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # noqa: F401  (imports numpy, scipy and spdag)

    return perf_counter() - t0


def child_import_s():
    """The import time measured in a fresh interpreter, which then exits."""
    code = (f"import sys; sys.path.insert(0, {str(ROOT / 'bench')!r}); "
            "import run; print(run.import_program())")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def log(msg):
    print(f"[bench] {msg}", file=sys.stderr, flush=True)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    src = ROOT / "src"
    if not (src / "spdag" / "__init__.py").is_file():
        log(f"no program source at {src}/spdag; run from the root of a checkout")
        return 2

    import_s = [import_program()]
    import workloads
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        log(f"unknown workload {args.workload!r}; pick from {', '.join(workloads.WORKLOADS)}")
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed)
    if not args.trace:
        import_s += [child_import_s() for _ in range(IMPORT_CHILDREN)]

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            wl.setup(str(work))
            setups.append(perf_counter() - t0)

        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
        rec = workloads.Recorder(log)
        start = perf_counter()
        rounds = 0
        while rounds == 0 or perf_counter() - start < args.seconds:
            rec.round = rounds
            if tracer is not None:
                tracer.round = rounds
            wl.round(rounds, str(work), rec)
            rounds += 1
        if tracer is not None:
            tracer.uninstall()
        else:
            import_s += [child_import_s() for _ in range(IMPORT_CHILDREN)]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in rec.problems[:20]:
        log(f"incorrect: {problem}")
    if not all(rec.times.values()):
        log("no operation of some kind completed; nothing to report")
        return 1
    # Median over rounds of each round's mean: a round runs the same inputs.
    calls = {f"call_{k}_rel": statistics.median(statistics.fmean(v) for v in per_round.values())
             for k, per_round in rec.times.items()}
    if tracer is None:
        metrics = {name: {"value": v, "unit": "ratio"} for name, v in calls.items()}
        setup_s = statistics.median(import_s) + statistics.median(setups)
        log(f"set-up {setup_s:.3f} s: imports {statistics.median(import_s):.3f} s (median of "
            f"{' '.join(f'{t:.3f}' for t in import_s)}), inputs and warm-up "
            f"{statistics.median(setups):.3f} s (median of {len(setups)})")
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["peak_rss_mib"] = {"value": rss, "unit": "MiB"}
    else:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in tracer.metrics(rounds).items()}
        for name, v in calls.items():
            metrics[f"traced.{name}"] = {"value": v, "unit": "ratio"}
        metrics["traced.reference_s"] = {"value": statistics.median(rec.reference_s), "unit": "s"}
        spans = ROOT / ".bench_work" / f"spans-{args.workload}-{args.seed}.json"
        tracer.dump(spans)
        log(f"{len(tracer.spans)} spans written to {spans.relative_to(ROOT)}")
    log(f"{rounds} rounds, {rec.attempted} operations, {rec.failed} failed")
    print(json.dumps({
        "correct": not rec.problems,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
