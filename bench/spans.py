"""Spans and counters recorded from outside the program, for the traced run.

`install` replaces, in the program's own modules, the entry points the
workloads call and the functions that `cli`, `sp` and `harness` call
with wrappers that record a span (name, start, end, parent, round).
Each backend a factory builds is wrapped in a proxy that counts and
times the queries reaching it, and each cache wrapper in one that counts
the calls reaching it; both book them on the innermost open span. Spans
stay in memory until `dump`.
"""

from __future__ import annotations

import json
import os
import statistics
from time import perf_counter


class Span:
    __slots__ = ("name", "parent", "round", "grid", "start", "end",
                 "queries", "query_s", "calls", "child_s")

    def __init__(self, name, parent, rnd, grid):
        self.name, self.parent, self.round, self.grid = name, parent, rnd, grid
        self.start = self.end = 0.0
        self.queries = self.calls = 0
        self.query_s = self.child_s = 0.0

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        """Duration less child spans and less the queries booked on it."""
        return self.duration - self.child_s - self.query_s


class CountingBackend:
    """Counts and times the queries that reach a backend."""

    def __init__(self, inner, tracer):
        self._inner, self._tracer = inner, tracer

    @property
    def p(self):
        return self._inner.p

    def is_independent(self, j, k, s=()):
        t0 = perf_counter()
        try:
            return self._inner.is_independent(j, k, s)
        finally:
            span = self._tracer.top()
            span.queries += 1
            span.query_s += perf_counter() - t0


class CountingCache:
    """Counts the calls that reach a cache wrapper."""

    def __init__(self, inner, tracer):
        self._inner, self._tracer = inner, tracer

    @property
    def p(self):
        return self._inner.p

    def is_independent(self, j, k, s=()):
        self._tracer.top().calls += 1
        return self._inner.is_independent(j, k, s)


class Tracer:
    def __init__(self):
        self.spans = []
        self.round = 0
        self._stack = []
        self._root = Span("outside", -1, 0, False)
        self._counts = {}
        self._patches = []

    def top(self):
        return self.spans[self._stack[-1]] if self._stack else self._root

    def count(self, name, value):
        key = (self.round, name)
        self._counts[key] = self._counts.get(key, 0) + value

    def wrap(self, name, fn, on_result=None):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            grid = name == "harness.run_grid" or (parent >= 0 and self.spans[parent].grid)
            span = Span(name, parent, self.round, grid)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
                if parent >= 0:
                    self.spans[parent].child_s += span.duration
            if on_result is not None:
                on_result(out)
            return out

        return traced

    def install(self):
        """Wrap the program's entry points and the functions they call, in their modules."""
        from spdag import baselines, cli, harness, oracle, sp

        def backend_factory(fn):
            return self.wrap("oracle.backend", lambda *a, **kw: CountingBackend(fn(*a, **kw), self))

        def cache_factory(fn):
            return lambda inner: CountingCache(fn(inner), self)

        def search_result(res):
            self.count("sp.winners", len(res.winners))
            self.count("sp.classes", len(res.classes))

        def cli_main(fn):
            traced = self.wrap("cli.main", fn)

            def main(argv):
                code = traced(argv)
                if code == 0 and "--out" in argv:
                    self.count("cli.out_bytes", os.path.getsize(argv[argv.index("--out") + 1]))
                return code

            return main

        plan = {
            cli: {
                "main": cli_main(cli.main),
                "load_samples_csv": self.wrap("oracle.load", cli.load_samples_csv),
                "load_covariance_csv": self.wrap("oracle.load", cli.load_covariance_csv),
                "sp_search": self.wrap("sp.search", cli.sp_search, search_result),
                "sp_search_cholesky": self.wrap("sp.cholesky", cli.sp_search_cholesky, search_result),
            },
            sp: {"pattern_of": self.wrap("graph.pattern", sp.pattern_of)},
            harness: {
                "run_grid": self.wrap("harness.run_grid", harness.run_grid),
                "write_outputs": self.wrap("harness.write", harness.write_outputs),
                "sp_search": self.wrap("sp.search", harness.sp_search, search_result),
                "sgs_skeleton": self.wrap("baselines.sgs", harness.sgs_skeleton),
                "pc_skeleton": self.wrap("baselines.pc", harness.pc_skeleton),
                "random_sem": self.wrap("sem.generate", harness.random_sem),
                "sample": self.wrap("sem.sample", harness.sample),
            },
            baselines: {
                "sgs_skeleton": self.wrap("baselines.sgs", baselines.sgs_skeleton),
                "pc_skeleton": self.wrap("baselines.pc", baselines.pc_skeleton),
            },
        }
        # The backends the workloads build: fisher directly and in cli and
        # harness, gaussian in cli.
        for mod in (oracle, cli, harness):
            plan.setdefault(mod, {})["fisher_z_backend"] = backend_factory(mod.fisher_z_backend)
            plan[mod]["caching_wrapper"] = cache_factory(mod.caching_wrapper)
        plan[cli]["gaussian_exact_backend"] = backend_factory(cli.gaussian_exact_backend)
        for mod, attrs in plan.items():
            for name, wrapper in attrs.items():
                self._patches.append((mod, name, getattr(mod, name)))
                setattr(mod, name, wrapper)

    def uninstall(self):
        for mod, name, original in reversed(self._patches):
            setattr(mod, name, original)
        self._patches.clear()

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                [[s.name, s.start, s.end, s.parent, s.round, s.queries, s.query_s, s.calls]
                 for s in self.spans],
                fh,
            )

    def metrics(self, rounds):
        """Per-layer values for one round of the workload's operations.

        Times are the median over rounds of the round's total. Counts and
        the hit ratios are those of the first round, which repeat exactly.
        """
        per = [dict.fromkeys(TIMES, 0.0) for _ in range(rounds)]
        cnt = [dict.fromkeys(COUNTS, 0) for _ in range(rounds)]
        for s in self.spans:
            t, c = per[s.round], cnt[s.round]
            t["oracle.query_s"] += s.query_s
            c["oracle.queries"] += s.queries
            c["oracle.calls"] += s.calls
            if s.name == "oracle.load":
                t["oracle.load_s"] += s.duration
            elif s.name == "oracle.backend":
                t["oracle.backend_s"] += s.duration
            elif s.name == "sp.search":
                t["sp.search_s"] += s.duration
                t["sp.self_s"] += s.self_s
            elif s.name == "sp.cholesky":
                t["sp.cholesky_s"] += s.duration
            elif s.name == "graph.pattern":
                parent = self.spans[s.parent].name if s.parent >= 0 else ""
                if parent.startswith("sp."):
                    t["graph.pattern_s"] += s.duration
                    c["graph.pattern_calls"] += 1
            elif s.name == "cli.main":
                t["cli.self_s"] += s.self_s
            elif s.name in ("baselines.sgs", "baselines.pc"):
                m = s.name.split(".")[1]
                c[f"baselines.{m}_queries"] += s.queries
                t[f"baselines.{m}_query_s"] += s.query_s
                t[f"baselines.{m}_self_s"] += s.self_s
            elif s.name == "sem.generate":
                t["sem.generate_s"] += s.duration
            elif s.name == "sem.sample":
                t["sem.sample_s"] += s.duration
            elif s.name == "harness.write":
                t["harness.write_s"] += s.duration
            if s.grid:
                if s.name == "sp.search":
                    t["harness.sp_s"] += s.duration
                elif s.name in ("baselines.sgs", "baselines.pc"):
                    t[f"harness.{s.name.split('.')[1]}_s"] += s.duration
                    c["harness.baseline_calls"] += s.calls
                    c["harness.baseline_queries"] += s.queries
        for (r, name), value in self._counts.items():
            if r < rounds:
                cnt[r][name] += value
        for t, c in zip(per, cnt):
            t["oracle.query_us"] = 1e6 * t["oracle.query_s"] / c["oracle.queries"] if c["oracle.queries"] else 0.0
        out = {name: (statistics.median(t[name] for t in per), UNITS.get(name, "s")) for name in per[0]}
        first = cnt[0]
        for name in COUNTS:
            if not name.startswith("harness.baseline_"):
                out[name] = (first[name], "bytes" if name == "cli.out_bytes" else "count")
        out["oracle.hit_ratio"] = (hit_ratio(first["oracle.calls"], first["oracle.queries"]), "ratio")
        out["harness.baseline_hit_ratio"] = (
            hit_ratio(first["harness.baseline_calls"], first["harness.baseline_queries"]), "ratio")
        return out


def hit_ratio(calls, queries):
    return 1.0 - queries / calls if calls else 0.0


TIMES = ("oracle.load_s", "oracle.backend_s", "oracle.query_s", "sp.search_s", "sp.self_s",
         "sp.cholesky_s", "graph.pattern_s", "cli.self_s", "baselines.sgs_query_s",
         "baselines.pc_query_s", "baselines.sgs_self_s", "baselines.pc_self_s",
         "sem.generate_s", "sem.sample_s", "harness.sp_s", "harness.sgs_s", "harness.pc_s",
         "harness.write_s")
COUNTS = ("oracle.calls", "oracle.queries", "sp.winners", "sp.classes", "graph.pattern_calls",
          "cli.out_bytes", "baselines.sgs_queries", "baselines.pc_queries",
          "harness.baseline_calls", "harness.baseline_queries")
UNITS = {"oracle.query_us": "us"}
