"""Reference figures: every workload over several seeds, untraced and traced.

    python3 bench/figures.py [--seeds 1-10] [--workloads a,b]

Runs `bench/run.py` once per workload and seed with the run length from
BENCHMARK.json, then one traced run per workload (seed 1). Prints, per
workload and metric, the median over seeds and the spread (distance
between the first and third quartiles over the median), the failed share
of every run, and the tracing overhead (traced over untraced median of
each call kind). Takes about 27 s per run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACED_SEED = 1


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = ap.parse_args()
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    for workload in args.workloads.split(","):
        docs = []
        for seed in args.seeds:
            doc = run(workload, seed, seconds, 0)
            docs.append(doc)
            print(f"{workload} seed {seed}: correct={doc['correct']} "
                  f"failed={doc['failed']}/{doc['attempted']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in doc["metrics"].items()),
                  flush=True)
        shares = sorted({d["failed"] / d["attempted"] for d in docs})
        print(f"## {workload}: all correct={all(d['correct'] for d in docs)}, failed shares {shares}")
        print("| metric | median | spread | bound |")
        print("|---|---|---|---|")
        medians = {}
        for name, bound in bounds.items():
            values = [d["metrics"][name]["value"] for d in docs]
            medians[name] = statistics.median(values)
            s = f"{spread(values):.3f}" if len(values) >= 2 else "-"
            print(f"| {name} | {medians[name]:.4g} | {s} | {bound} |")
        traced = run(workload, TRACED_SEED, seconds, 1)["metrics"]
        for kind in ("a", "b"):
            over = traced[f"traced.call_{kind}_rel"]["value"] / medians[f"call_{kind}_rel"] - 1
            print(f"tracing overhead on call_{kind}_rel: {100 * over:+.1f}%")
        print(json.dumps({k: v["value"] for k, v in traced.items()}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
