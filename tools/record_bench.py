"""Record the benchmark's end-to-end metrics for one tree in BENCH_<N>.json.

    python3 tools/record_bench.py N

Runs `bench/run.py --trace 0` on every workload that BENCHMARK.json
lists, once at each of the seeds SEEDS, for BENCHMARK.json's
run_seconds. The workloads take turns, so a slow phase of the machine
falls on all of them alike. It then writes BENCH_<N>.json at the root
of the checkout: for each workload, the runs' correctness and failure
counts and, for each end-to-end metric, its median and quartiles over
the runs; and the commit, whether src/, bench/ or tools/ differ from
it, a SHA-256 of the files git tracks there as they stand (which names
the measured tree before it is committed), the Python and numpy
versions, the CPU count and the BLAS thread setting the runs saw; and
the bytecode state, which moves setup_s by about a third: how many of
src/spdag's modules had bytecode in __pycache__ that the running Python
would load, before the first run and after the last, and the value of
PYTHONDONTWRITEBYTECODE.

It also times `sp learn` itself, each run a fresh process as a user
starts it, on population covariances it generates from SWEEP_SEED: for
p in SWEEP_P, a sparse DAG (expected neighbourhood 2) and a complete
one, on the gaussian and the cholesky route, SWEEP_RUNS runs each with
the BLAS thread variables at 1. Each row holds the process's wall time
(median and quartiles), the search's own wall_time_ms from the JSON, the
largest max RSS of the runs, and the minimum edge count and winner
count the runs printed. Exits 1, after writing the file, if a run
failed or reported a wrong output, or if an `sp learn` run failed.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import re
import statistics
import struct
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3, 4, 5)
TREE = ("src", "bench", "tools")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
LEFT_OUT = "Not recorded yet: the traced layer rows (bench/run.py --trace 1)."
SWEEP_SEED = 29
SWEEP_P = (5, 6, 7, 8, 9)
SWEEP_RUNS = 5
SWEEP_ROUTES = ("gaussian", "cholesky")
# `sp learn`'s one-line summary: minimum M edges, W optimal DAGs in ...
SUMMARY = re.compile(r"minimum (\d+) edges, (\d+) optimal DAGs")

# What the runs see: bench/run.py sets the BLAS thread variables when imported.
ENVIRONMENT = f"""
import json, os, sys
sys.path.insert(0, "bench")
import run
import numpy
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({{"numpy": numpy.__version__, "blas": f"{{blas['name']}} {{blas['version']}}",
                  "blas_threads": {{v: os.environ.get(v) for v in {BLAS_VARS!r}}}}}))
"""


def git(*args, root: Path = ROOT) -> str:
    return subprocess.run(["git", *args], cwd=root, capture_output=True, text=True,
                          check=True).stdout.strip()


def tree_sha256(root: Path = ROOT) -> str:
    """SHA-256 over the sorted paths and current bytes of the files git
    tracks under TREE; an untracked file, such as bytecode, is left out."""
    digest = hashlib.sha256()
    for name in sorted(filter(None, git("ls-files", "-z", "--", *TREE, root=root).split("\0"))):
        data = (root / name).read_bytes() if (root / name).is_file() else b""
        digest.update(b"%s\0%d\0" % (name.encode(), len(data)) + data)
    return digest.hexdigest()


def modules() -> list[Path]:
    """The sources of src/spdag that `import spdag.cli` loads: all but __main__.py."""
    return [f for f in (ROOT / "src" / "spdag").glob("*.py") if f.name != "__main__.py"]


def cached_modules() -> int:
    """How many of modules() have bytecode that this Python would load.

    A timestamp-based .pyc in __pycache__ counts when it carries this
    Python's magic number and its source's modification time and size.
    """
    count = 0
    for source in modules():
        try:
            head = Path(importlib.util.cache_from_source(str(source))).read_bytes()[:16]
        except OSError:
            continue
        st = source.stat()
        stamp = struct.pack("<4xII", int(st.st_mtime) & 0xFFFFFFFF, st.st_size & 0xFFFFFFFF)
        count += head == importlib.util.MAGIC_NUMBER + stamp
    return count


def bench_run(workload: str, seed: int, seconds: float) -> dict:
    """One untraced run's result line, or its failure as {"error": ...}."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> dict:
    """The median, the quartiles and the values themselves."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def write_covariance(path: Path, p: int, graph: str) -> None:
    """The population covariance of a linear model on a fixed DAG, as a CSV
    under a header x0..x{p-1}: a complete DAG, or a sparse one with expected
    neighbourhood 2, its vertex labels shuffled; weights of magnitude
    0.25..1 with a fair sign and unit noise variances."""
    rng = np.random.default_rng([SWEEP_SEED, p, graph == "complete"])
    upper = np.triu(np.ones((p, p), bool), 1)
    keep = upper if graph == "complete" else upper & (rng.random((p, p)) < 2 / (p - 1))
    weights = rng.uniform(0.25, 1, (p, p)) * rng.choice([-1.0, 1.0], (p, p))
    order = rng.permutation(p)
    a = np.where(keep, weights, 0.0)[order][:, order]
    b = np.linalg.inv(np.eye(p) - a)
    np.savetxt(path, b.T @ b, fmt="%.17g", delimiter=",",
               header=",".join(f"x{v}" for v in range(p)), comments="")


def learn_run(route: str, path: Path, out: Path) -> dict:
    """One `sp learn` process: its wall time, max RSS and printed summary,
    and the search's wall_time_ms read from the end of its JSON."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), **dict.fromkeys(BLAS_VARS, "1")}
    argv = [sys.executable, "-m", "spdag", "learn", "--backend", route,
            "--input", str(path), "--out", str(out)]
    with tempfile.TemporaryFile("w+") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=log, stderr=log)
        _, status, usage = os.wait4(proc.pid, 0)  # the child's own rusage
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        log.seek(0)
        text = log.read()
    found = SUMMARY.search(text)
    if proc.returncode != 0 or not found:
        return {"error": f"exit {proc.returncode}: {text.strip()[-500:]}"}
    with open(out, "rb") as fh:
        fh.seek(max(0, out.stat().st_size - 200))
        search_ms = float(re.search(rb'"wall_time_ms": ([0-9.e+-]+)', fh.read())[1])
    return {"wall_s": wall, "search_ms": search_ms, "max_rss_mib": usage.ru_maxrss / 1024,
            "min_edges": int(found[1]), "winners": int(found[2])}


def learn_sweep(ps=SWEEP_P, runs: int = SWEEP_RUNS) -> list[dict]:
    """The `sp learn` rows: each p, graph and route, over runs processes.

    The routes take turns run by run, so a slow phase of the machine falls
    on both alike.
    """
    rows = []
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        for p in ps:
            for graph in ("sparse", "complete"):
                path = work / f"{graph}-{p}.csv"
                write_covariance(path, p, graph)
                done = {route: [] for route in SWEEP_ROUTES}
                for _ in range(runs):
                    for route in SWEEP_ROUTES:
                        done[route].append(learn_run(route, path, work / "learn.json"))
                for route, results in done.items():
                    ok = [r for r in results if "error" not in r]
                    row = {"p": p, "graph": graph, "route": route, "runs": runs,
                           "errors": [r["error"] for r in results if "error" in r]}
                    if ok:
                        row.update(
                            wall_s=quartiles([r["wall_s"] for r in ok]),
                            search_ms=quartiles([r["search_ms"] for r in ok]),
                            max_rss_mib=max(r["max_rss_mib"] for r in ok),
                            min_edges=sorted({r["min_edges"] for r in ok}),
                            winners=sorted({r["winners"] for r in ok}))
                    rows.append(row)
                    print(f"sp learn p={p} {graph} {route}: {json.dumps(row)}",
                          file=sys.stderr, flush=True)
    return rows


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Correctness counts and each metric's median and quartiles over runs."""
    done = [r for r in runs if "error" not in r]
    out = {
        "runs": len(runs),
        "errors": [r["error"] for r in runs if "error" in r],
        "correct": sum(r["correct"] for r in done),
        "attempted": sum(r["attempted"] for r in done),
        "failed": sum(r["failed"] for r in done),
        "metrics": {},
    }
    for m in metrics:
        values = [r["metrics"][m["name"]]["value"] for r in done]
        if values:
            out["metrics"][m["name"]] = {"unit": m["unit"], "better": m["better"],
                                         **quartiles(values)}
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("n", type=int, help="the number in the file name BENCH_<n>.json")
    args = ap.parse_args(argv)

    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    runs = {name: [] for name in names}
    cached_before = cached_modules()
    for seed in SEEDS:
        for name in names:
            result = bench_run(name, seed, seconds)
            runs[name].append(result)
            print(f"{name} seed {seed}: {json.dumps(result)}", file=sys.stderr, flush=True)
    sweep = learn_sweep()

    env = json.loads(subprocess.run([sys.executable, "-c", ENVIRONMENT], cwd=ROOT,
                                    capture_output=True, text=True, check=True).stdout)
    doc = {
        "what": "End-to-end metrics of `bench/run.py --trace 0`, per workload, over "
                f"{len(SEEDS)} runs of {seconds:g} s at seeds {list(SEEDS)}; recorded "
                "by tools/record_bench.py.",
        "left_out": LEFT_OUT,
        "commit": git("rev-parse", "HEAD"),
        "changed_since_commit": bool(git("status", "--porcelain", "--", *TREE)),
        "tree_sha256": tree_sha256(),
        "machine": {"cpu_count": os.cpu_count(), "python": platform.python_version(), **env},
        "bytecode": {
            "modules": len(modules()),
            "cached_before": cached_before,
            "cached_after": cached_modules(),
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        },
        "workloads": {name: summarize(runs[name], spec["end_to_end"]) for name in names},
        "sp_learn": {
            "what": f"`sp learn` as a fresh process on generated population covariances "
                    f"(seed {SWEEP_SEED}), {SWEEP_RUNS} runs per row, the routes alternating; "
                    "wall_s is the process's, search_ms the JSON's wall_time_ms, and "
                    "max_rss_mib the largest of the runs' max RSS.",
            "rows": sweep,
        },
    }
    path = ROOT / f"BENCH_{args.n}.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    print(path.relative_to(ROOT))
    bad = any(s["errors"] or s["correct"] < s["runs"] or s["failed"]
              for s in doc["workloads"].values())
    return 1 if bad or any(row["errors"] for row in sweep) else 0


if __name__ == "__main__":
    sys.exit(main())
