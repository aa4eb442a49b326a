"""The benchmark's workloads: their inputs, their operations and checks.

Each workload runs whole rounds of a fixed list of operations of two
timed kinds, a and b (see README.md). Inputs are drawn here with numpy
alone; the program only ever sees the generated files or arrays.

Every operation is timed relative to a fixed reference workload run just
before and just after it, so that the machine's speed at that moment
cancels out.

Graph structures come from a fixed structure seed so that every seed
exercises the same shapes; the run's --seed draws the edge weights, the
noise and the samples. The collinear data sets do not depend on --seed.
"""

from __future__ import annotations

import csv
import gc
import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations
from time import perf_counter

import numpy as np
from spdag import baselines, cli, harness, oracle

import reference as ref

STRUCTURE_SEED = 1307
COLLINEAR_SEED = 366
REFERENCE_SEED = 42
ALPHA = 0.001


class OpFailed(Exception):
    """An operation of the program ended in an error."""


REFERENCE_REPEATS = 5


def reference_workload():
    """A fixed pure-Python job; returns the mean wall time of five runs.

    The job is the benchmark's own subset DP on a fixed p = 8 decision
    table (a few milliseconds), so no change to the program changes it. On
    a small shared VM the same search can take 0.65 s or 1.3 s depending
    on the moment; this job's time moves with it.
    """
    rng = np.random.default_rng(REFERENCE_SEED)
    dep = ref.fisher_dependence(draw_sample(rng, draw_weights(rng, 8, edges_for(8, 1, 0)), 2000), ALPHA)

    def run():
        t0 = perf_counter()
        for _ in range(REFERENCE_REPEATS):
            ref.sparsest(8, dep)
        return (perf_counter() - t0) / REFERENCE_REPEATS

    return run


class Recorder:
    """Counts operations and keeps the relative time of those that did not fail.

    An operation's relative time is its wall time over the mean wall time
    of the reference workload run just before and just after it. Times
    are kept per round (set `round` before each), since a round's
    operations of one kind may run on inputs of different cost.

    A check's problems make the run incorrect, except on an input with a
    known fault, where they count the operation as failed. Problems from
    `disagree` (the two search routes answering differently) also count
    the operation as failed.
    """

    def __init__(self, log=None):
        self.times = {"a": {}, "b": {}}
        self.round = 0
        self.reference_s = []
        self._reference = reference_workload()
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self._log = log
        self._seen = set()

    def _note(self, what):
        if self._log is not None and what not in self._seen:
            self._seen.add(what)
            self._log(what)

    def run(self, kind, label, call, check, *, units=1, known_fault=False, disagree=None):
        gc.collect()
        self.attempted += 1
        before = self._reference()
        t0 = perf_counter()
        try:
            out = call()
        except Exception as exc:  # any error ends this operation, not the run
            self.failed += 1
            self._note(f"failed: {label}: {type(exc).__name__}: {exc}")
            return None
        elapsed = perf_counter() - t0
        reference_s = (before + self._reference()) / 2
        problems = check(out)
        if problems and known_fault:
            self.failed += 1
            self._note(f"failed: {label}: {problems[0]}")
            return None
        if problems:
            self.problems.extend(f"{label}: {p}" for p in problems)
        mismatch = disagree(out) if disagree is not None else []
        if mismatch:
            self.failed += 1
            self._note(f"failed: {label}: {mismatch[0]}")
            return out
        if kind in self.times:
            self.times[kind].setdefault(self.round, []).append(elapsed / units / reference_s)
            self.reference_s.append(reference_s)
        return out


def fixed_dag(p, m, index):
    """m edges on p vertices, placed by the fixed structure seed."""
    rng = np.random.default_rng([STRUCTURE_SEED, p, m, index])
    pairs = list(combinations(range(p), 2))
    order = rng.permutation(p)
    chosen = rng.choice(len(pairs), size=m, replace=False)
    return sorted((int(order[pairs[c][0]]), int(order[pairs[c][1]])) for c in chosen)


def edges_for(p, nbhd, index):
    """A fixed DAG with expected neighbourhood size nbhd: p*nbhd/2 edges."""
    return fixed_dag(p, round(p * nbhd / 2), index)


def draw_weights(rng, p, edges):
    """Edge weights uniform in magnitude on [0.25, 1] with a fair sign."""
    a = np.zeros((p, p))
    for j, k in edges:
        a[j, k] = rng.uniform(0.25, 1.0) * (1.0 if rng.random() < 0.5 else -1.0)
    return a


def covariance(a):
    """Population covariance of x = x A + e with unit-variance noise."""
    b = np.linalg.inv(np.eye(a.shape[0]) - a)
    sig = b.T @ b
    return (sig + sig.T) / 2.0


def draw_sample(rng, a, n):
    return rng.standard_normal((n, a.shape[0])) @ np.linalg.inv(np.eye(a.shape[0]) - a)


def collinear_sample(p, n):
    """p - 1 variables of a fixed sparse model and a copy of the first."""
    rng = np.random.default_rng(COLLINEAR_SEED)
    a = draw_weights(rng, p - 1, edges_for(p - 1, 1, 0))
    x = draw_sample(rng, a, n)
    return np.column_stack([x, x[:, 0]])


def names(p):
    return [f"x{v}" for v in range(p)]


def index_of(label):
    return int(label[1:])


def write_csv(path, matrix):
    np.savetxt(path, matrix, fmt="%.17g", delimiter=",",
               header=",".join(names(matrix.shape[1])), comments="")


def cli_learn(backend, path, out):
    """Run `sp learn` in-process; stdout is kept out of the result line."""
    err = io.StringIO()
    argv = ["learn", "--backend", backend, "--input", path, "--out", out]
    if backend == "fisher":
        argv += ["--alpha", str(ALPHA), "--threads", "1"]
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise OpFailed(err.getvalue().strip() or f"exit code {code}")
    return out


def decisions(cache, tag, data):
    """The reference Fisher-z decisions for a data set, computed once."""
    if tag not in cache:
        cache[tag] = ref.fisher_dependence(data, ALPHA)
    return cache[tag]


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def learn_answer(path):
    return ref.answer(read_json(path), index_of)


class LearnSample:
    """`sp learn --backend fisher` on sampled CSVs at the ordering cap.

    a: models with expected neighbourhood 1; b: neighbourhood 2. The
    collinear data set fails today and is counted as failed.
    """

    def __init__(self, seed, p=9, n=10_000):
        self.seed, self.p, self.n = seed, p, n
        self._deps = {}

    def setup(self, work):
        self.inputs = []
        for kind, nbhd in (("a", 1), ("b", 2)):
            rng = np.random.default_rng([self.seed, 1, nbhd])
            a = draw_weights(rng, self.p, edges_for(self.p, nbhd, 0))
            self.inputs.append((kind, kind, draw_sample(rng, a, self.n)))
        self.inputs.append(("collinear", "collinear", collinear_sample(self.p, self.n)))
        self.paths = {}
        for kind, tag, data in self.inputs:
            self.paths[tag] = os.path.join(work, f"sample-{tag}.csv")
            write_csv(self.paths[tag], data)
        warm = os.path.join(work, "warm.csv")
        rng = np.random.default_rng([self.seed, 0])
        write_csv(warm, draw_sample(rng, draw_weights(rng, 4, [(0, 1), (1, 2)]), 200))
        cli_learn("fisher", warm, os.path.join(work, "warm.json"))

    def round(self, r, work, rec):
        out = os.path.join(work, "learn.json")
        for kind, tag, data in self.inputs:
            check = lambda path, tag=tag, data=data: ref.check_learn_sample(
                self.p, read_json(path), index_of, decisions(self._deps, tag, data))
            rec.run(kind, f"sp learn --backend fisher ({tag})",
                    lambda tag=tag: cli_learn("fisher", self.paths[tag], out),
                    check, known_fault=kind == "collinear")


class LearnPopulation:
    """Both search routes on population covariances.

    a: `sp learn --backend gaussian`; b: `sp learn --backend cholesky`, on
    the same CSVs. An nbhd of None stands for a complete DAG.
    """

    def __init__(self, seed, p, nbhds):
        self.seed, self.p, self.nbhds = seed, p, nbhds

    def setup(self, work):
        self.inputs = []
        for i, nbhd in enumerate(self.nbhds):
            rng = np.random.default_rng([self.seed, 2, self.p, i])
            if nbhd is None:
                order = np.random.default_rng([STRUCTURE_SEED, self.p, i]).permutation(self.p)
                edges = [(int(order[j]), int(order[k])) for j, k in combinations(range(self.p), 2)]
            else:
                edges = edges_for(self.p, nbhd, i)
            path = os.path.join(work, f"cov-{i}.csv")
            write_csv(path, covariance(draw_weights(rng, self.p, edges)))
            self.inputs.append((path, None if nbhd is None else len(edges)))
        warm = os.path.join(work, "warm.csv")
        write_csv(warm, covariance(draw_weights(np.random.default_rng(0), 4, [(0, 1), (1, 2)])))
        for backend in ("gaussian", "cholesky"):
            cli_learn(backend, warm, os.path.join(work, "warm.json"))

    def _check(self, path, true_edges):
        """true_edges None marks the complete DAG."""
        doc = read_json(path)
        problems = ref.check_learn(self.p, doc, index_of)
        if true_edges is None:
            problems += ref.check_complete(self.p, doc, index_of)
        else:
            problems += ref.check_sparse(doc, index_of, true_edges)
        return problems

    def round(self, r, work, rec):
        for i, (path, true_edges) in enumerate(self.inputs):
            outs = {b: os.path.join(work, f"learn-{b}.json") for b in ("gaussian", "cholesky")}
            check = lambda out: self._check(out, true_edges)
            first = rec.run("a", f"sp learn --backend gaussian (model {i})",
                            lambda: cli_learn("gaussian", path, outs["gaussian"]), check)
            # The answers are read after the Cholesky call and one at a time,
            # so that the check stays below the program's own peak memory.
            agree = None
            if first is not None:
                agree = lambda out: ref.same_answer(learn_answer(first), learn_answer(out))
            rec.run("b", f"sp learn --backend cholesky (model {i})",
                    lambda: cli_learn("cholesky", path, outs["cholesky"]), check,
                    disagree=agree)


def skeleton_backend(data):
    """A fresh, cold cache on a Fisher-z backend, as the skeletons get it."""
    return oracle.caching_wrapper(oracle.fisher_z_backend(data, oracle.TestConfig(alpha=ALPHA)))


class BaselinesWide:
    """SGS (a) and PC (b) on a cold cache at the skeleton cap."""

    NBHDS = (1, 2)

    def __init__(self, seed, p=12, n=10_000):
        self.seed, self.p, self.n = seed, p, n
        self._deps = {}

    def setup(self, work):
        self.inputs = []
        for i, nbhd in enumerate(self.NBHDS):
            rng = np.random.default_rng([self.seed, 3, i])
            a = draw_weights(rng, self.p, edges_for(self.p, nbhd, i))
            self.inputs.append((f"model {i}", draw_sample(rng, a, self.n), False))
        self.inputs.append(("collinear", collinear_sample(self.p, self.n), True))
        rng = np.random.default_rng([self.seed, 0])
        warm = draw_sample(rng, draw_weights(rng, 5, [(0, 1), (1, 2)]), 200)
        for fn in (baselines.sgs_skeleton, baselines.pc_skeleton):
            fn(skeleton_backend(warm))

    def round(self, r, work, rec):
        for tag, data, collinear in self.inputs:
            got = {}

            def keep(method, out):
                got[method] = (out[0], dict(out[1].items()))
                return []

            kinds = ("collinear", "collinear") if collinear else ("a", "b")
            rec.run(kinds[0], f"sgs_skeleton ({tag})",
                    lambda: baselines.sgs_skeleton(skeleton_backend(data)),
                    lambda out: keep("sgs", out), known_fault=collinear)
            rec.run(kinds[1], f"pc_skeleton ({tag})",
                    lambda: baselines.pc_skeleton(skeleton_backend(data)),
                    lambda out: keep("pc", out), known_fault=collinear)
            if len(got) == 2:
                problems = ref.check_skeletons(self.p, decisions(self._deps, tag, data), *got["sgs"], *got["pc"])
                if problems and collinear:
                    rec.failed += 1
                else:
                    rec.problems.extend(f"skeletons ({tag}): {x}" for x in problems)


class SimulateGrid:
    """The criterion-09 cells through run_grid (a, per trial) and write_outputs (b).

    Round r uses master seed seed * 1000 + r, so a run averages over more
    models the longer it runs.
    """

    METHODS = ("sp", "sgs", "pc")

    def __init__(self, seed, p_list=(5, 8), nbhd_list=(0.5, 1.0, 2.0), n=10_000, trials=2):
        self.seed, self.p_list, self.nbhd_list, self.n, self.trials = seed, p_list, nbhd_list, n, trials

    def config(self, master_seed, **kw):
        args = dict(p_list=self.p_list, n_list=(self.n,), alpha_list=(ALPHA,),
                    nbhd_list=self.nbhd_list, trials=self.trials,
                    master_seed=master_seed, methods=self.METHODS)
        args.update(kw)
        return harness.ExperimentConfig(**args)

    def setup(self, work):
        cfg = self.config(self.seed, p_list=(4,), nbhd_list=(1.0,), n_list=(200,), trials=1)
        harness.write_outputs(harness.run_grid(cfg, workers=1), os.path.join(work, "warm"))

    def _check(self, out_dir, cells):
        def rows(name):
            with open(os.path.join(out_dir, name), newline="", encoding="utf-8") as fh:
                return list(csv.DictReader(fh))

        return ref.check_grid(rows("trials.csv"), rows("aggregate.csv"),
                              read_json(os.path.join(out_dir, "summary.json")),
                              cells, self.trials, self.METHODS)

    def round(self, r, work, rec):
        cfg = self.config(self.seed * 1000 + r)
        cells = len(self.p_list) * len(self.nbhd_list)
        result = rec.run("a", "run_grid", lambda: harness.run_grid(cfg, workers=1),
                         lambda res: [], units=cells * self.trials)
        if result is None:
            return
        out_dir = os.path.join(work, "grid")
        rec.run("b", "write_outputs", lambda: harness.write_outputs(result, out_dir),
                lambda paths: self._check(out_dir, cells))


# Each workload at the benchmark's sizes, built from the run's seed.
WORKLOADS = {
    "learn-sample": LearnSample,
    "learn-population": lambda seed: LearnPopulation(seed, 8, (1, 2)),
    "learn-dense": lambda seed: LearnPopulation(seed, 7, (None,)),
    "baselines-wide": BaselinesWide,
    "simulate-grid": SimulateGrid,
}
