"""Seeded recovery experiments over random linear Gaussian models.

A grid of (p, n, alpha, nbhd) cells is expanded from an
ExperimentConfig; each cell runs a fixed number of independent trials.
A trial draws a random model, builds a conditional-independence backend
in the configured mode, runs each requested method, and scores the
returned skeleton against the truth.  Every random draw is keyed by
(master_seed, cell_index, trial), so results are byte-identical across
runs and worker counts.

Timings are collected but kept out of trials.csv: wall clock is the one
column that can never reproduce, so it lives in its own file.
"""

from __future__ import annotations

import csv
import json
import operator
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields
from itertools import product
from typing import NamedTuple

import numpy as np

from .baselines import SKELETON_CAP, pc_skeleton, sgs_skeleton
from .graph import skeleton
from .oracle import (
    TestConfig,
    caching_wrapper,
    dsep_backend,
    fisher_z_backend,
    gaussian_exact_backend,
)
from .sem import GenConfig, covariance_of, random_sem, sample
from .sp import PERMUTATION_CAP, sp_search

METHODS = ("sp", "sgs", "pc")
MODES = ("sample", "oracle", "gaussian-exact")
DEFAULT_ALPHAS = (0.01, 0.001, 0.0001)

__all__ = [
    "Cell",
    "DEFAULT_ALPHAS",
    "ExperimentConfig",
    "GridResult",
    "METHODS",
    "MODES",
    "SkipRecord",
    "TrialRecord",
    "aggregate_rows",
    "config_from_file",
    "config_from_json",
    "config_from_text",
    "emit_plot_data",
    "grid_cells",
    "run_grid",
    "run_trial",
    "write_outputs",
]


@dataclass(frozen=True)
class ExperimentConfig:
    p_list: tuple
    nbhd_list: tuple
    n_list: tuple = (1000,)
    alpha_list: tuple = DEFAULT_ALPHAS
    trials: int = 100
    master_seed: int = 0
    methods: tuple = METHODS
    mode: str = "sample"

    def __post_init__(self):
        for key, kind in (("p_list", int), ("n_list", int), ("alpha_list", float),
                          ("nbhd_list", float), ("methods", str)):
            object.__setattr__(self, key, _as_tuple(key, getattr(self, key), kind))
        for key in ("trials", "master_seed"):
            value = getattr(self, key)
            try:
                object.__setattr__(self, key, operator.index(value))
            except TypeError:
                raise ValueError(f"{key} must be an integer, got {value!r}") from None
        if not self.p_list or not self.nbhd_list:
            raise ValueError("the grid needs at least one p and one nbhd value")
        if self.trials < 1:
            raise ValueError(f"trial count must be positive, got {self.trials}")
        for a in self.alpha_list:
            if not 0.0 < a < 1.0:
                raise ValueError(f"test size must sit in (0, 1), got {a}")
        for b in self.nbhd_list:
            if not b > 0.0:  # NaN fails too
                raise ValueError(f"nbhd_list entries must be positive, got {b}")
        for p in self.p_list:
            if p < 2:
                raise ValueError(f"need at least two vertices, got p={p}")
        for n in self.n_list:
            if n < 1:
                raise ValueError(f"sample count must be positive, got {n}")
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}; pick from {METHODS}")
        # canonical order keeps record files stable however the config
        # spells the list
        object.__setattr__(self, "methods", tuple(m for m in METHODS if m in self.methods))
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; pick from {MODES}")


def _as_tuple(key: str, values, kind) -> tuple:
    """values as a tuple of kind; a scalar, a string or a bad member raises naming key."""
    try:
        if not isinstance(values, str):
            return tuple(kind(v) for v in values)
    except (TypeError, ValueError):
        pass
    raise ValueError(f"{key} must be a list of {kind.__name__}, got {values!r}")


class Cell(NamedTuple):
    index: int
    p: int
    n: int
    alpha: float
    nbhd: float


@dataclass(frozen=True)
class TrialRecord:
    p: int
    n: int
    alpha: float
    nbhd: float
    trial: int
    seed: int
    method: str
    extra_edges: int
    missing_edges: int
    sp_unique_class: bool | None
    wall_time_ms: float

    def __post_init__(self):
        if self.extra_edges < 0 or self.missing_edges < 0:
            raise ValueError("edge error counts cannot be negative")
        if (self.method == "sp") != (self.sp_unique_class is not None):
            raise ValueError("sp records, and only they, state class uniqueness")

    @property
    def skeleton_recovered(self) -> bool:
        """A clean skeleton, and for sp a single winning class."""
        clean = self.extra_edges == 0 and self.missing_edges == 0
        return clean and self.sp_unique_class is not False


class SkipRecord(NamedTuple):
    p: int
    n: int
    alpha: float
    nbhd: float
    method: str
    reason: str


@dataclass(frozen=True)
class GridResult:
    config: ExperimentConfig
    cells: tuple
    records: tuple
    skips: tuple


def config_from_json(doc: dict) -> ExperimentConfig:
    extra = set(doc) - {f.name for f in fields(ExperimentConfig)}
    if extra:
        raise ValueError(f"unknown config keys: {sorted(extra)}")
    return ExperimentConfig(**doc)


def config_from_text(text: str) -> ExperimentConfig:
    """Parse either a JSON object or key=value lines."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return config_from_json(json.loads(text))
    doc: dict = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {line_no}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        items = [v.strip() for v in value.split(",") if v.strip()]
        if key not in {f.name for f in fields(ExperimentConfig)}:
            raise ValueError(f"line {line_no}: unknown config key {key!r}")
        try:
            if key in ("p_list", "n_list"):
                doc[key] = [int(v) for v in items]
            elif key in ("alpha_list", "nbhd_list"):
                doc[key] = [float(v) for v in items]
            elif key in ("trials", "master_seed"):
                doc[key] = int(items[0])
            elif key == "methods":
                doc[key] = items
            else:
                doc[key] = items[0]
        except (ValueError, IndexError):
            raise ValueError(f"line {line_no}: bad value for {key}: {value.strip()!r}") from None
    return config_from_json(doc)


def config_from_file(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_text(fh.read())


def grid_cells(cfg: ExperimentConfig) -> tuple:
    """Expand the full grid; invalid cells are filtered later but still
    consume an index so seeds never depend on the filtering."""
    cells = []
    for i, (p, n, alpha, nbhd) in enumerate(
        product(cfg.p_list, cfg.n_list, cfg.alpha_list, cfg.nbhd_list)
    ):
        cells.append(Cell(i, p, n, alpha, nbhd))
    return tuple(cells)


def _cell_skip_reason(cfg: ExperimentConfig, cell: Cell) -> str | None:
    if cell.nbhd > cell.p - 1:
        return f"expected neighbourhood {cell.nbhd} exceeds p-1={cell.p - 1}"
    if cfg.mode == "sample" and cell.n < cell.p + 4:
        return f"n={cell.n} is too small for the test statistic at p={cell.p}"
    return None


def _method_skip_reason(method: str, cell: Cell) -> str | None:
    if method == "sp" and cell.p > PERMUTATION_CAP:
        return f"p={cell.p} exceeds the 2^p prefix-set search cap {PERMUTATION_CAP}"
    if method in ("sgs", "pc") and cell.p > SKELETON_CAP:
        return f"p={cell.p} exceeds the skeleton search cap {SKELETON_CAP}"
    return None


def _trial_seed(cfg: ExperimentConfig, cell: Cell, trial: int) -> np.random.SeedSequence:
    return np.random.SeedSequence((cfg.master_seed, cell.index, trial))


def run_trial(cfg: ExperimentConfig, cell: Cell, trial: int, methods=None) -> list:
    """One seeded draw-and-score pass; returns a record per method."""
    if methods is None:
        methods = cfg.methods
    ss = _trial_seed(cfg, cell, trial)
    seed_id = int(ss.generate_state(1, np.uint64)[0])
    rng = np.random.default_rng(ss)
    gen = GenConfig(p=cell.p, expected_nbhd=cell.nbhd)
    sem = random_sem(gen, rng)
    truth = skeleton(sem.dag)

    if cfg.mode == "oracle":
        backend = dsep_backend(sem.dag)
    elif cfg.mode == "gaussian-exact":
        backend = gaussian_exact_backend(covariance_of(sem))
    else:
        data = sample(sem, cell.n, rng)
        backend = fisher_z_backend(data, TestConfig(alpha=cell.alpha))
    backend = caching_wrapper(backend)

    records = []
    for method in methods:
        t0 = time.perf_counter()
        unique = None
        if method == "sp":
            res = sp_search(backend)
            # a class fixes the skeleton, so no winner Dag is built
            found = frozenset().union(*(c.skeleton for c in res.classes))
            unique = res.unique_class
        elif method == "sgs":
            found, _ = sgs_skeleton(backend)
        else:
            found, _ = pc_skeleton(backend)
        elapsed = (time.perf_counter() - t0) * 1000.0
        records.append(
            TrialRecord(
                p=cell.p,
                n=cell.n,
                alpha=cell.alpha,
                nbhd=cell.nbhd,
                trial=trial,
                seed=seed_id,
                method=method,
                extra_edges=len(found - truth),
                missing_edges=len(truth - found),
                sp_unique_class=unique,
                wall_time_ms=elapsed,
            )
        )
    return records


def run_grid(cfg: ExperimentConfig, workers: int = 1) -> GridResult:
    """Run every live (cell, trial) pair and gather the records.

    Capacity and validity problems are decided up front per cell and
    method, recorded as skips, and never abort the run.  Worker count
    affects scheduling only: trials are submitted, and their results
    read, in (cell, trial) order, and each trial lists its methods in
    METHODS order, so the records come out in (cell, trial, method)
    order either way.  No more workers start than there are trials.
    """
    if workers < 1:
        raise ValueError(f"worker count must be positive, got {workers}")
    cells = grid_cells(cfg)
    skips = []
    work = []  # (cell, live_methods)
    for cell in cells:
        cell_reason = _cell_skip_reason(cfg, cell)
        if cell_reason is not None:
            skips.append(
                SkipRecord(cell.p, cell.n, cell.alpha, cell.nbhd, "all", cell_reason)
            )
            continue
        live = []
        for method in cfg.methods:
            reason = _method_skip_reason(method, cell)
            if reason is None:
                live.append(method)
            else:
                skips.append(
                    SkipRecord(cell.p, cell.n, cell.alpha, cell.nbhd, method, reason)
                )
        if live:
            work.append((cell, tuple(live)))

    tasks = [(cfg, cell, trial, live) for cell, live in work for trial in range(cfg.trials)]
    # a fork pool starts every worker process on its first submit
    workers = min(workers, len(tasks))
    if workers <= 1:
        batches = [run_trial(*task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            batches = list(pool.map(run_trial, *zip(*tasks)))
    records = tuple(r for batch in batches for r in batch)
    return GridResult(config=cfg, cells=cells, records=records, skips=tuple(skips))


METRICS = (
    ("recovered", lambda r: r.skeleton_recovered),
    ("extra_edges", lambda r: r.extra_edges > 0),
    ("missing_edges", lambda r: r.missing_edges > 0),
)


def aggregate_rows(result: GridResult) -> list:
    """Long-format proportions: one row per cell, method, and metric."""
    buckets: dict = {}
    for r in result.records:
        buckets.setdefault((r.p, r.n, r.alpha, r.nbhd, r.method), []).append(r)
    rows = []
    rank = {m: i for i, m in enumerate(METHODS)}
    for key in sorted(buckets, key=lambda k: (k[0], k[1], k[2], k[3], rank[k[4]])):
        group = buckets[key]
        for metric, hit in METRICS:
            rows.append((*key, metric, sum(hit(r) for r in group) / len(group)))
    return rows


TRIAL_FIELDS = (
    "p",
    "n",
    "alpha",
    "nbhd",
    "trial",
    "seed",
    "method",
    "skeleton_recovered",
    "extra_edges",
    "missing_edges",
    "sp_unique_class",
)
TIMING_FIELDS = ("p", "n", "alpha", "nbhd", "trial", "method")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def write_trials_csv(result: GridResult, path) -> None:
    """Deterministic trial records; wall time deliberately excluded."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(TRIAL_FIELDS)
        for r in result.records:
            w.writerow([_fmt(getattr(r, name)) for name in TRIAL_FIELDS])


def write_timings_csv(result: GridResult, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow((*TIMING_FIELDS, "wall_time_ms"))
        for r in result.records:
            w.writerow([getattr(r, name) for name in TIMING_FIELDS] + [f"{r.wall_time_ms:.3f}"])


def write_aggregate_csv(rows, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(("p", "n", "alpha", "nbhd", "method", "metric", "value"))
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def write_summary_json(result: GridResult, rows, path) -> None:
    per_cell: dict = {}
    for p, n, alpha, nbhd, method, metric, value in rows:
        key = f"p={p} n={n} alpha={alpha} nbhd={nbhd}"
        per_cell.setdefault(key, {}).setdefault(method, {})[metric] = value
    doc = {
        "config": asdict(result.config),
        "cells": per_cell,
        "skipped": [s._asdict() for s in result.skips],
        "record_count": len(result.records),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def emit_plot_data(rows, out_dir) -> list:
    """One CSV per (p, n, alpha) panel: nbhd on x, proportions by method."""
    panels: dict = {}
    for p, n, alpha, nbhd, method, metric, value in rows:
        panels.setdefault((p, n, alpha), []).append((nbhd, method, metric, value))
    written = []
    for (p, n, alpha) in sorted(panels):
        path = os.path.join(out_dir, f"fig_{p}_{n}_{alpha}.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(("nbhd", "method", "metric", "value"))
            for row in panels[(p, n, alpha)]:
                w.writerow([_fmt(v) for v in row])
        written.append(path)
    return written


def write_outputs(result: GridResult, out_dir) -> dict:
    """Emit the full artifact set into a directory; returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "trials": os.path.join(out_dir, "trials.csv"),
        "timings": os.path.join(out_dir, "timings.csv"),
        "aggregate": os.path.join(out_dir, "aggregate.csv"),
        "summary": os.path.join(out_dir, "summary.json"),
    }
    rows = aggregate_rows(result)
    write_trials_csv(result, paths["trials"])
    write_timings_csv(result, paths["timings"])
    write_aggregate_csv(rows, paths["aggregate"])
    write_summary_json(result, rows, paths["summary"])
    paths["figures"] = emit_plot_data(rows, out_dir)
    return paths
