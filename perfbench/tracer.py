"""Span tracing for the traced benchmark pass.

The tracer wraps public functions and methods of the gdlog layers from the
outside (no code under src/ knows about it):

* coarse calls (Engine.__init__, Engine.run, the analysis planners) each get a
  span: name, start, end, parent span and the solve it belongs to;
* hot storage methods, called up to millions of times per solve, only update a
  per-(parent span, method) count and time aggregate, so memory stays bounded
  and the per-call cost is two clock reads and a dict update.

Spans and aggregates stay in memory until `dump` writes them out.  A span's
self time is its duration minus the time of its child spans and aggregates.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager
from time import perf_counter

from gdlog import analysis, engine, storage

# (owner, attribute, span name)
SPAN_TARGETS = (
    (analysis, "classify_rule", "analysis.plan"),
    (analysis, "choice_info", "analysis.plan"),
    (analysis, "build_dependency_graph", "analysis.plan"),
    (analysis, "plan_subprograms", "analysis.plan"),
    (engine.Engine, "__init__", "engine.load"),
    (engine.Engine, "run", "engine.run"),
)

# (owner, attribute, aggregate name); none of these methods calls another,
# so aggregates never nest and a parent's self time subtracts each once
AGGREGATE_TARGETS = (
    (storage.Relation, "insert", "storage.relation.insert"),
    (storage.Relation, "lookup", "storage.relation.lookup"),
    (storage.ThetaTable, "insert", "storage.theta.insert"),
    (storage.ThetaTable, "select_extreme", "storage.theta.select"),
    (storage.ThetaTable, "purge_conflicting", "storage.theta.purge"),
    (storage.ChosenTable, "conflicts", "storage.chosen.conflicts"),
)

AGGREGATE_NAMES = tuple(name for _, _, name in AGGREGATE_TARGETS)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [id, name, parent, solve, start, end]
        self.aggregates: dict[tuple[int | None, str], list] = {}  # -> [count, seconds]
        self.stack: list[int] = []  # open span ids
        self.solve_id: int | None = None  # root span id of the current solve, shared by its spans

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        rec = [sid, name, self.stack[-1] if self.stack else None, self.solve_id, perf_counter(), None]
        self.spans.append(rec)
        self.stack.append(sid)
        try:
            yield
        finally:
            rec[5] = perf_counter()
            self.stack.pop()

    def _wrap_span(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # a planner calling another planner stays inside the outer span
            if self.stack and self.spans[self.stack[-1]][1] == name:
                return fn(*args, **kwargs)
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def _wrap_aggregate(self, name, fn):
        aggregates, stack = self.aggregates, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                key = (stack[-1] if stack else None, name)
                rec = aggregates.get(key)
                if rec is None:
                    aggregates[key] = [1, dt]
                else:
                    rec[0] += 1
                    rec[1] += dt

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        targets = SPAN_TARGETS + AGGREGATE_TARGETS
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
        try:
            for owner, attr, name in SPAN_TARGETS:
                setattr(owner, attr, self._wrap_span(name, getattr(owner, attr)))
            for owner, attr, name in AGGREGATE_TARGETS:
                setattr(owner, attr, self._wrap_aggregate(name, getattr(owner, attr)))
            yield self
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    # -- reading the trace --------------------------------------------------

    def layer_times(self, solve_id: int) -> dict[str, float]:
        """Per-layer seconds and call counts of one traced solve."""
        spans = [s for s in self.spans if s[3] == solve_id]
        ids = {s[0] for s in spans}
        child_time: dict[int, float] = {}
        for s in spans:
            if s[2] is not None:
                child_time[s[2]] = child_time.get(s[2], 0.0) + s[5] - s[4]
        out = {f"{name}_{k}": z for name in AGGREGATE_NAMES for k, z in (("s", 0.0), ("n", 0))}
        for (parent, name), (count, secs) in self.aggregates.items():
            if parent in ids:
                child_time[parent] = child_time.get(parent, 0.0) + secs
                out[f"{name}_s"] += secs
                out[f"{name}_n"] += count

        def total(name):
            return sum(s[5] - s[4] for s in spans if s[1] == name)

        def self_time(name):
            return sum(s[5] - s[4] - child_time.get(s[0], 0.0) for s in spans if s[1] == name)

        out["analysis.plan_s"] = total("analysis.plan")
        out["engine.load_s"] = self_time("engine.load")
        out["engine.run_s"] = total("engine.run")
        out["engine.eval_self_s"] = self_time("engine.run")
        out["total_s"] = total("gdlog.run")
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(
                {
                    "spans": [
                        dict(zip(("id", "name", "parent", "solve", "start", "end"), s))
                        for s in self.spans
                    ],
                    "aggregates": [
                        {"parent": p, "name": n, "count": c, "seconds": t}
                        for (p, n), (c, t) in self.aggregates.items()
                    ],
                },
                f,
            )
