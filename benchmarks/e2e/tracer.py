"""Spans around calls into each layer, recorded by the traced pass.

The wrappers live here, not in the program: each one replaces a public
name where its caller looks it up (``repro.harness.experiments.run_suite``,
``repro.verify.campaign.allowed_outcomes``, ``O3Core.run``, ...) and
records a span — name, start, end, parent span and unit id — in memory.
Stage ticks and the lane engine's fused kernels run millions of times,
so they get accumulating timers instead of spans: the same class-level
timers ``repro profile --lanes`` uses (``repro.profiling``), keyed by
its bucket labels.  ``restore`` puts every original back.

A span's name is ``<layer>.<call>``.  A layer's self time is the sum,
over its spans, of each span's duration minus the time its child spans
cover.
"""

from __future__ import annotations

import functools
import time
from typing import Callable, Dict, List, Optional

#: layers a span name can start with (the repo's modules)
LAYERS = ("harness", "cache", "pool", "workloads", "pipeline", "lanes",
          "verify", "oracle", "witness")


class Tracer:
    """In-memory spans, timers and per-call facts for one traced pass."""

    def __init__(self):
        #: ``[name, start, end, parent index, unit]`` per span
        self.spans: List[list] = []
        self._stack: List[int] = []
        #: timer key -> ``[seconds, calls]``
        self.timers: Dict[str, list] = {}
        #: stage-tick bucket label -> ``[seconds, calls]``, from
        #: ``repro.profiling._patch_stage_classes``
        self.stage_timers: Dict[str, list] = {}
        #: instructions per trace built by ``trace_program``
        self.program_traces: Dict[str, int] = {}
        #: simulated cycles of each serial ``O3Core.run``
        self.core_runs: List[int] = []
        #: one dict per ``LaneBatch.run`` (see :meth:`_lane_batch`)
        self.batches: List[dict] = []
        #: SimStats of every in-process core (serial runs and lanes)
        self.stats: List[object] = []
        self._undo: List[tuple] = []

    # -- recording --------------------------------------------------------

    def open(self, name: str, unit=None) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, unit])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def region(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a root span (the benchmark's own call)."""
        index = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)

    def _span(self, name: str, unit: Optional[Callable] = None,
              after: Optional[Callable] = None):
        def decorate(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                index = self.open(name, unit(*args) if unit else None)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.close(index)
                if after is not None:
                    after(result)
                return result
            return traced
        return decorate

    def _timer(self, key: str):
        cell = self.timers.setdefault(key, [0.0, 0])

        def decorate(fn):
            @functools.wraps(fn)
            def timed(*args, **kwargs):
                start = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    cell[0] += time.perf_counter() - start
                    cell[1] += 1
            return timed
        return decorate

    # -- patching ---------------------------------------------------------

    def patch(self, owner, attr: str, decorate) -> None:
        """Replace ``owner.attr`` by ``decorate(original)`` until restore."""
        owned = attr in vars(owner)
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original, owned))
        setattr(owner, attr, decorate(original))

    def restore(self) -> None:
        for owner, attr, original, owned in reversed(self._undo):
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._undo.clear()

    def install(self) -> None:
        """Wrap every layer boundary the benchmark attributes time to."""
        from repro.harness import cache, experiments, parallel, resilience
        from repro.pipeline import O3Core
        from repro.pipeline.fastforward import FastForward
        from repro.pipeline.lanes import LaneBatch
        from repro.pipeline.vectorstages import VectorEngine
        from repro.profiling import _LANE_ENGINE_TARGETS, _patch_stage_classes
        from repro.verify import campaign
        from repro.workloads import suite

        def core_ran(stats):
            self.core_runs.append(stats.cycles)
            self.stats.append(stats)

        def program_traced(trace):
            self.program_traces[trace.name] = len(trace)

        fetch = self._span("workloads.fetch_trace",
                           unit=lambda name, *a: name)
        self.patch(suite, "fetch_trace", fetch)
        self.patch(parallel, "fetch_trace", fetch)
        self.patch(experiments, "build_suite",
                   self._span("workloads.build_suite"))
        self.patch(experiments, "run_suite", self._span("harness.run_suite"))
        self.patch(parallel, "cache_key", self._span("cache.key"))
        for attr in ("get_many", "put", "get_profile", "put_profile"):
            self.patch(cache.ResultCache, attr, self._span(f"cache.{attr}"))
        self.patch(resilience.ResilientPool, "run", self._span("pool.run"))
        self.patch(O3Core, "run", self._span("pipeline.core_run",
                                             after=core_ran))
        self.patch(LaneBatch, "run", self._lane_batch)
        self.patch(campaign, "generate_programs",
                   self._span("verify.generate"))
        self.patch(campaign, "verify_program",
                   self._span("verify.program",
                              unit=lambda program, *a: program.name))
        self.patch(campaign, "build_thread",
                   self._span("workloads.build_thread"))
        self.patch(campaign, "trace_program",
                   self._span("workloads.trace_program",
                              after=program_traced))
        self.patch(campaign, "allowed_outcomes",
                   self._span("oracle.allowed_outcomes"))
        for attr in ("extract_witness", "apparent_order", "compose_outcomes"):
            self.patch(campaign, attr, self._span(f"witness.{attr}"))
        # a cell's fixed costs: building its core, and quiescent-cycle
        # fast-forward spans (serial runs and lanes alike)
        self.patch(O3Core, "__init__", self._timer("core.init"))
        self.patch(FastForward, "advance", self._timer("fastforward"))
        # lane batches build their engine inside run(), so the fused
        # kernels are timed at class level, under profile_lanes' labels
        for attr, label in _LANE_ENGINE_TARGETS:
            self.patch(VectorEngine, attr, self._timer(label))
        self.stage_timers, saved = _patch_stage_classes()
        self._undo += [(cls, attr, original, True)
                       for cls, attr, original in saved]

    def _lane_batch(self, original):
        """``LaneBatch.run`` span plus occupancy and the time split."""

        def stage_s():
            return sum(cell[0] for cell in self.stage_timers.values())

        def vec_s():
            return sum(cell[0] for key, cell in self.timers.items()
                       if key.startswith("vec:"))

        @functools.wraps(original)
        def run(batch, cells, *args, **kwargs):
            stage0, vec0 = stage_s(), vec_s()
            index = self.open("lanes.batch", len(cells))
            try:
                report = original(batch, cells, *args, **kwargs)
            finally:
                self.close(index)
            start, end = self.spans[index][1:3]
            self.batches.append({
                "seconds": end - start,
                "stage_s": stage_s() - stage0,
                "vec_s": vec_s() - vec0,
                "steps": report.steps, "lane_steps": report.lane_steps,
                "cells": [(o.stats.cycles, o.elapsed)
                          for o in report.outcomes if o.stats is not None],
            })
            self.stats.extend(o.stats for o in report.outcomes
                              if o.stats is not None)
            return report
        return run

    # -- summaries --------------------------------------------------------

    def self_seconds(self) -> Dict[str, float]:
        """Self time per layer: span durations minus child spans."""
        covered = [0.0] * len(self.spans)
        for _name, start, end, parent, _unit in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out = {layer: 0.0 for layer in LAYERS}
        for index, (name, start, end, _parent, _unit) in \
                enumerate(self.spans):
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (end - start) - covered[index]
        return out

    def to_json(self, origin: float) -> dict:
        """Spans (times relative to ``origin``), self times and timers."""
        return {
            "spans": [[name, round(start - origin, 7), round(end - origin, 7),
                       parent, unit]
                      for name, start, end, parent, unit in self.spans],
            "self_s": self.self_seconds(),
            "timers": {key: {"seconds": cell[0], "calls": cell[1]}
                       for key, cell in (*self.timers.items(),
                                         *self.stage_timers.items())},
        }
