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
PYTHONDONTWRITEBYTECODE. Exits 1, after writing the file, if a run
failed or reported a wrong output.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import statistics
import struct
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3, 4, 5)
TREE = ("src", "bench", "tools")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
LEFT_OUT = (
    "Not recorded yet: the traced layer rows (bench/run.py --trace 1) and the "
    "p = 5..9 sparse and dense `sp learn` sweep that ROADMAP item 1 asks for."
)

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
        if not values:
            continue
        q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                          if len(values) > 1 else values * 3)
        out["metrics"][m["name"]] = {"unit": m["unit"], "better": m["better"],
                                     "median": median, "q1": q1, "q3": q3,
                                     "values": values}
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
    }
    path = ROOT / f"BENCH_{args.n}.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    print(path.relative_to(ROOT))
    bad = any(s["errors"] or s["correct"] < s["runs"] or s["failed"]
              for s in doc["workloads"].values())
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
