"""Seeded recovery experiments over random linear Gaussian models.

A grid of (p, n, alpha, nbhd) cells is expanded from an
ExperimentConfig; each cell runs a fixed number of independent trials.
A trial draws a random model, builds a conditional-independence backend
in the configured mode, runs each requested method, and scores the
returned skeleton against the truth.  Every random draw is keyed by
(master_seed, cell_index, trial), so results are byte-identical across
runs and worker counts.  A run is its config and its records: the cells,
and the skips one rule reads off each cell, follow from the config.

Timings are collected but kept out of trials.csv: wall clock is the one
column that can never reproduce, so it lives in its own file.
"""

from __future__ import annotations

import csv
import json
import operator
import os
import time
from dataclasses import MISSING, asdict, dataclass, fields
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
# each config key's type; (kind,) is a tuple of kind
_KEY_TYPES = {
    "p_list": (int,), "nbhd_list": (float,), "n_list": (int,), "alpha_list": (float,),
    "trials": int, "master_seed": int, "methods": (str,), "mode": str,
}

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
        for key, kind in _KEY_TYPES.items():
            value = getattr(self, key)
            if isinstance(kind, tuple):
                object.__setattr__(self, key, _as_tuple(key, value, kind[0]))
            elif kind is int:
                try:
                    object.__setattr__(self, key, _convert(int, value))
                except TypeError:
                    raise ValueError(f"{key} must be an integer, got {value!r}") from None
        if self.trials < 1:
            raise ValueError(f"trial count must be positive, got {self.trials}")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be non-negative, got {self.master_seed}")
        for a in self.alpha_list:
            try:
                TestConfig(alpha=a)
            except ValueError as exc:
                raise ValueError(f"alpha_list: {exc}") from None
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


def _convert(kind, value):
    """value as kind; a bool is not a value of any kind, and int takes only integers."""
    if isinstance(value, bool):
        raise TypeError(f"{value!r} is a bool")
    return operator.index(value) if kind is int else kind(value)


def _as_tuple(key: str, values, kind) -> tuple:
    """values as a nonempty tuple of kind; a scalar, a string, a bad member
    or no member at all raises naming key."""
    try:
        if not isinstance(values, str):
            out = tuple(_convert(kind, v) for v in values)
            if out:
                return out
    except (TypeError, ValueError):
        pass
    raise ValueError(f"{key} must be a nonempty list of {kind.__name__}, got {values!r}")


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
    records: tuple

    @property
    def cells(self) -> tuple:
        return grid_cells(self.config)

    @property
    def skips(self) -> tuple:
        return tuple(s for cell in self.cells for s in _skips(self.config, cell))


def config_from_json(doc: dict) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ValueError(f"a JSON config must be an object, got a {type(doc).__name__}")
    extra = set(doc) - set(_KEY_TYPES)
    if extra:
        raise ValueError(f"unknown config keys: {sorted(extra)}")
    required = (f.name for f in fields(ExperimentConfig) if f.default is MISSING)
    missing = [key for key in required if key not in doc]
    if missing:
        raise ValueError(f"missing config keys: {missing}")
    return ExperimentConfig(**doc)


def config_from_text(text: str) -> ExperimentConfig:
    """Parse either a JSON document, which must be an object, or key=value lines."""
    if text.lstrip().startswith(("{", "[")):
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
        kind = _KEY_TYPES.get(key)
        if kind is None:
            raise ValueError(f"line {line_no}: unknown config key {key!r}")
        items = [v.strip() for v in value.split(",") if v.strip()]
        try:
            if isinstance(kind, tuple):
                doc[key] = [kind[0](v) for v in items]
            else:
                (item,) = items  # a scalar key takes exactly one value
                doc[key] = kind(item)
        except ValueError:
            raise ValueError(f"line {line_no}: bad value for {key}: {value.strip()!r}") from None
    return config_from_json(doc)


def config_from_file(path) -> ExperimentConfig:
    """Read a config file, UTF-8 with an optional BOM; an error names the file."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return config_from_text(fh.read())
    except ValueError as err:  # a UnicodeDecodeError is one too
        raise ValueError(f"{path}: {err}") from None


def grid_cells(cfg: ExperimentConfig) -> tuple:
    """Expand the full grid; a skipped cell keeps its index, so seeds
    never depend on the skip rule."""
    grid = product(cfg.p_list, cfg.n_list, cfg.alpha_list, cfg.nbhd_list)
    return tuple(Cell(i, *values) for i, values in enumerate(grid))


# each method's largest p, and the search that sets it
_CAPS = {
    "sp": (PERMUTATION_CAP, "2^p prefix-set search"),
    "sgs": (SKELETON_CAP, "skeleton search"),
    "pc": (SKELETON_CAP, "skeleton search"),
}


def _skips(cfg: ExperimentConfig, cell: Cell) -> list:
    """What the grid leaves out of a cell: the whole cell (method "all"),
    or else each configured method whose cap p exceeds, in METHODS order."""
    if cell.nbhd > cell.p - 1:
        reasons = {"all": f"expected neighbourhood {cell.nbhd} exceeds p-1={cell.p - 1}"}
    elif cfg.mode == "sample" and cell.n < cell.p + 4:
        reasons = {"all": f"n={cell.n} is too small for the test statistic at p={cell.p}"}
    else:
        reasons = {m: f"p={cell.p} exceeds the {search} cap {cap}"
                   for m, (cap, search) in _CAPS.items() if m in cfg.methods and cell.p > cap}
    return [SkipRecord(*cell[1:], method, reason) for method, reason in reasons.items()]


def _trial_seed(cfg: ExperimentConfig, cell: Cell, trial: int) -> np.random.SeedSequence:
    return np.random.SeedSequence((cfg.master_seed, cell.index, trial))


def run_trial(cfg: ExperimentConfig, cell: Cell, trial: int) -> list:
    """One seeded draw-and-score pass: a record per method the cell's
    skips leave, and nothing drawn when they leave none."""
    skipped = {s.method for s in _skips(cfg, cell)}
    methods = [m for m in cfg.methods if m not in skipped and "all" not in skipped]
    if not methods:
        return []
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
    """Run every (cell, trial) pair and gather the records.

    Skips are decided per cell and method by the one rule run_trial
    reads, and never abort the run.  Worker count affects scheduling
    only: trials are submitted, and their results read, in (cell, trial)
    order, and each trial lists its methods in METHODS order, so the
    records come out in (cell, trial, method) order either way.  No more
    workers start than there are trials.
    """
    if workers < 1:
        raise ValueError(f"worker count must be positive, got {workers}")
    tasks = [(cfg, cell, trial) for cell in grid_cells(cfg) for trial in range(cfg.trials)]
    # a fork pool starts every worker process on its first submit
    workers = min(workers, len(tasks))
    if workers <= 1:
        batches = [run_trial(*task) for task in tasks]
    else:
        from concurrent.futures import ProcessPoolExecutor  # a serial run never loads it

        with ProcessPoolExecutor(max_workers=workers) as pool:
            batches = list(pool.map(run_trial, *zip(*tasks)))
    return GridResult(config=cfg, records=tuple(r for batch in batches for r in batch))


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
    if value is True:
        return "true"
    if value is False:
        return "false"
    return str(value)


def _write_csv(path, header, rows) -> None:
    """Every harness CSV: \\n line ends, true/false, an empty cell for None."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(map(_fmt, row) for row in rows)


def emit_plot_data(rows, out_dir) -> list:
    """One CSV per (p, n, alpha) panel: nbhd on x, proportions by method."""
    panels: dict = {}
    for p, n, alpha, nbhd, method, metric, value in rows:
        panels.setdefault((p, n, alpha), []).append((nbhd, method, metric, value))
    written = []
    for (p, n, alpha) in sorted(panels):
        path = os.path.join(out_dir, f"fig_{p}_{n}_{alpha}.csv")
        _write_csv(path, ("nbhd", "method", "metric", "value"), panels[(p, n, alpha)])
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
    trial = operator.attrgetter(*TRIAL_FIELDS)
    _write_csv(paths["trials"], TRIAL_FIELDS, map(trial, result.records))
    timing = operator.attrgetter(*TIMING_FIELDS)
    _write_csv(paths["timings"], (*TIMING_FIELDS, "wall_time_ms"),
               ((*timing(r), f"{r.wall_time_ms:.3f}") for r in result.records))
    _write_csv(paths["aggregate"], ("p", "n", "alpha", "nbhd", "method", "metric", "value"), rows)
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
    with open(paths["summary"], "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    paths["figures"] = emit_plot_data(rows, out_dir)
    return paths
