"""Performance profiling of the simulator itself (``repro profile``).

Three views of where engine time goes, all over a single kernel run:

* **Per-stage attribution** — each of the seven pipeline stage ``tick``
  callables is wrapped with a wall-clock accumulator, splitting stepped
  engine time between fetch/dispatch/issue/execute/memory/writeback/
  commit.  Time outside the ticks (driver loop, per-cycle stats,
  quiescent-cycle fast-forward) is reported as a separate residual.
* **Event-bus attribution** (``--events``) — a counting subscriber per
  event type, showing which pipeline activities dominate.  Attaching
  live subscribers disables the quiescent-cycle fast-forward, so this
  view reflects the fully stepped engine.
* **cProfile** (``--cprofile N``) — the standard function-level profile
  of the whole run, top-N rows.

With ``--lanes N > 1`` the per-stage view profiles a lane *batch*
instead (``profile_lanes``): N copies of the kernel step in lockstep
and time splits into scalar stage buckets (summed over lanes) and the
cross-lane vectorized kernel buckets of
:mod:`repro.pipeline.vectorstages`.

The profiled run is a real run: statistics are bit-identical to an
unprofiled simulation (timer wrappers do not alter behaviour).
"""

from __future__ import annotations

import cProfile
import dataclasses
import io
import pstats
import time
from typing import Dict, List, Optional

from .pipeline import O3Core, make_config
from .pipeline.events import EventType
from .pipeline.lanes import LaneBatch, LaneCell
from .pipeline.stages import (CommitStage, DispatchStage, ExecuteStage,
                              FetchStage, IssueStage, MemoryStage,
                              WritebackStage)
from .workloads import build_trace


@dataclasses.dataclass
class StageTiming:
    """Wall-clock attribution for one pipeline stage."""
    name: str
    seconds: float
    calls: int


@dataclasses.dataclass
class ProfileReport:
    """Everything ``repro profile`` measured on one kernel run."""
    kernel: str
    scale: float
    preset: str
    scheduler: str
    commit: str
    cycles: int
    instructions: int
    wall_seconds: float
    stepped_cycles: int
    stages: List[StageTiming]
    event_counts: Optional[Dict[str, int]] = None
    cprofile_text: Optional[str] = None

    @property
    def kilocycles_per_second(self) -> float:
        return self.cycles / self.wall_seconds / 1e3 if \
            self.wall_seconds > 0 else 0.0

    def format(self) -> str:
        skipped = self.cycles - self.stepped_cycles
        lines = [
            f"profile: {self.kernel} scale {self.scale:g} "
            f"({self.preset}/{self.scheduler}/{self.commit})",
            f"  {self.cycles} cycles, {self.instructions} instructions, "
            f"wall {self.wall_seconds:.3f}s "
            f"({self.kilocycles_per_second:.1f} kcycles/s)",
            f"  fast-forward: {skipped} of {self.cycles} cycles skipped "
            f"({skipped / self.cycles:.1%})" if self.cycles else
            "  fast-forward: n/a",
        ]
        stage_total = sum(stage.seconds for stage in self.stages)
        if self.stages:
            lines.append("  per-stage time (stepped cycles only):")
            width = max(len(stage.name) for stage in self.stages)
            for stage in sorted(self.stages, key=lambda t: -t.seconds):
                share = stage.seconds / self.wall_seconds \
                    if self.wall_seconds > 0 else 0.0
                lines.append(f"    {stage.name:<{width}}  "
                             f"{stage.seconds:7.3f}s  {share:5.1%}  "
                             f"({stage.calls} ticks)")
            residual = max(0.0, self.wall_seconds - stage_total)
            share = residual / self.wall_seconds \
                if self.wall_seconds > 0 else 0.0
            lines.append(f"    {'driver/ff/stats':<{width}}  "
                         f"{residual:7.3f}s  {share:5.1%}")
        if self.event_counts is not None:
            lines.append("  event counts (instrumented run, "
                         "fast-forward disabled):")
            for name, count in sorted(self.event_counts.items(),
                                      key=lambda kv: -kv[1]):
                if count:
                    lines.append(f"    {name:<16} {count}")
        if self.cprofile_text:
            lines.append("")
            lines.append(self.cprofile_text.rstrip())
        return "\n".join(lines)


@dataclasses.dataclass
class LaneProfileReport:
    """Per-stage attribution for a lane-batched run (``--lanes N``).

    Scalar buckets aggregate each stage's tick time across every lane
    (both the per-lane scalar phases of the vector engine and any
    full-fallback lanes); vectorized buckets (``vec:`` prefix) are the
    cross-lane fused kernels, which execute once per driver iteration
    for all active lanes together.
    """
    kernel: str
    scale: float
    preset: str
    scheduler: str
    commit: str
    lanes: int
    cells: int
    cycles: int
    instructions: int
    wall_seconds: float
    steps: int
    lane_steps: int
    buckets: List[StageTiming]
    cprofile_text: Optional[str] = None

    @property
    def kilocycles_per_second(self) -> float:
        """Serial-equivalent rate: simulated cycles summed across all
        cells divided by wall time."""
        return self.cycles / self.wall_seconds / 1e3 if \
            self.wall_seconds > 0 else 0.0

    @property
    def mean_active_lanes(self) -> float:
        return self.lane_steps / self.steps if self.steps else 0.0

    def format(self) -> str:
        lines = [
            f"profile: {self.kernel} scale {self.scale:g} "
            f"({self.preset}/{self.scheduler}/{self.commit}) "
            f"x{self.cells} cells on {self.lanes} lanes",
            f"  {self.cycles} simulated cycles, "
            f"{self.instructions} instructions, "
            f"wall {self.wall_seconds:.3f}s "
            f"({self.kilocycles_per_second:.1f} serial-equiv kcycles/s)",
            f"  {self.steps} driver iterations, "
            f"mean {self.mean_active_lanes:.2f} active lanes",
        ]
        populated = [b for b in self.buckets if b.calls]
        if populated:
            width = max(len(b.name) for b in populated)
            total = sum(b.seconds for b in populated)
            for title, keep in (
                    ("per-lane scalar stage time (summed over lanes):",
                     lambda b: not b.name.startswith("vec:")),
                    ("cross-lane vectorized kernels:",
                     lambda b: b.name.startswith("vec:"))):
                group = [b for b in populated if keep(b)]
                if not group:
                    continue
                lines.append(f"  {title}")
                for bucket in sorted(group, key=lambda b: -b.seconds):
                    share = bucket.seconds / self.wall_seconds \
                        if self.wall_seconds > 0 else 0.0
                    lines.append(f"    {bucket.name:<{width}}  "
                                 f"{bucket.seconds:7.3f}s  {share:5.1%}  "
                                 f"({bucket.calls} calls)")
            residual = max(0.0, self.wall_seconds - total)
            share = residual / self.wall_seconds \
                if self.wall_seconds > 0 else 0.0
            lines.append(f"    {'driver/refill/stats':<{width}}  "
                         f"{residual:7.3f}s  {share:5.1%}")
        if self.cprofile_text:
            lines.append("")
            lines.append(self.cprofile_text.rstrip())
        return "\n".join(lines)


#: (stage class, method, bucket label) — patched at class level for
#: lane profiling because LaneBatch constructs its cores internally
_LANE_STAGE_TARGETS = (
    (CommitStage, "tick", "commit"),
    (WritebackStage, "tick", "writeback"),
    (MemoryStage, "tick", "memory"),
    (ExecuteStage, "tick", "execute"),
    (IssueStage, "tick", "issue.tick"),
    (IssueStage, "tick_vec", "issue.tick_vec"),
    (DispatchStage, "tick", "dispatch"),
    (FetchStage, "tick", "fetch"),
)

#: (VectorEngine method, bucket label) — the cross-lane fused kernel
_LANE_ENGINE_TARGETS = (
    ("_select_kernel", "vec:select"),
)


def _patch_stage_classes():
    """Wrap the stage tick methods at class level with accumulators.

    Returns ``(accumulators, saved)``; the caller must restore the
    ``saved`` (class, attr, original) triples in a ``finally``.  The
    wrappers only measure — behaviour is untouched (cores prebind
    ``stage.tick`` at construction, so patching before ``batch.run``
    covers every lane core it creates).
    """
    accumulators: Dict[str, list] = {}
    saved = []
    for cls, attr, label in _LANE_STAGE_TARGETS:
        cell = accumulators.setdefault(label, [0.0, 0])
        original = getattr(cls, attr)
        saved.append((cls, attr, original))

        def timed(self, *args, _fn=original, _cell=cell):
            start = time.perf_counter()
            _fn(self, *args)
            _cell[0] += time.perf_counter() - start
            _cell[1] += 1

        setattr(cls, attr, timed)
    return accumulators, saved


def _patch_engine(engine):
    """Wrap the vector engine's fused kernels (instance level)."""
    accumulators: Dict[str, list] = {}
    for attr, label in _LANE_ENGINE_TARGETS:
        cell = accumulators.setdefault(label, [0.0, 0])
        original = getattr(engine, attr)

        def timed(*args, _fn=original, _cell=cell, **kwargs):
            start = time.perf_counter()
            result = _fn(*args, **kwargs)
            _cell[0] += time.perf_counter() - start
            _cell[1] += 1
            return result

        setattr(engine, attr, timed)
    return accumulators


def profile_lanes(kernel: str, scale: float = 1.0, preset: str = "base",
                  scheduler: str = "age", commit: str = "ioc",
                  lanes: int = 4, cprofile_top: int = 0,
                  cprofile_sort: str = "tottime",
                  max_cycles: int = 5_000_000) -> LaneProfileReport:
    """Profile ``lanes`` copies of a kernel in one lane batch.

    Per-stage time for the batch splits into scalar buckets (stage
    ticks, summed over lanes) and vectorized kernel buckets, so a slow
    lane run shows *which* phase failed to amortise.  Statistics stay
    bit-identical to unprofiled lanes.
    """
    trace = build_trace(kernel, scale)
    config = make_config(preset, scheduler=scheduler, commit=commit)
    cells = [LaneCell(i, trace, config, max_cycles)
             for i in range(lanes)]
    batch = LaneBatch(lanes, config.iq_size)

    stage_cells, saved = _patch_stage_classes()
    engine_cells = _patch_engine(batch.engine)
    profiler = cProfile.Profile() if cprofile_top else None
    try:
        start = time.perf_counter()
        if profiler is not None:
            profiler.enable()
        report = batch.run(cells)
        if profiler is not None:
            profiler.disable()
        wall = time.perf_counter() - start
    finally:
        for cls, attr, original in saved:
            setattr(cls, attr, original)

    for outcome in report.outcomes:
        if outcome.error is not None:
            raise RuntimeError(
                f"lane cell {outcome.index} failed:\n"
                f"{outcome.error_tb}") from outcome.error

    cprofile_text = None
    if profiler is not None:
        buffer = io.StringIO()
        pstats.Stats(profiler, stream=buffer) \
            .sort_stats(cprofile_sort).print_stats(cprofile_top)
        cprofile_text = buffer.getvalue()

    buckets = [StageTiming(label, cell[0], cell[1])
               for label, cell in (*stage_cells.items(),
                                   *engine_cells.items())]
    return LaneProfileReport(
        kernel=kernel, scale=scale, preset=preset,
        scheduler=scheduler, commit=commit,
        lanes=lanes, cells=len(cells),
        cycles=sum(o.stats.cycles for o in report.outcomes),
        instructions=sum(o.stats.committed for o in report.outcomes),
        wall_seconds=wall, steps=report.steps,
        lane_steps=report.lane_steps, buckets=buckets,
        cprofile_text=cprofile_text)


def _attach_stage_timers(core: O3Core):
    """Wrap each stage tick with a wall-clock accumulator.

    Returns the per-stage ``[seconds, calls]`` accumulators, ordered
    like ``core.stages``.  The wrappers only measure — behaviour and
    statistics are untouched.
    """
    accumulators = []
    wrapped = []
    for tick in core._ticks:
        cell = [0.0, 0]
        accumulators.append(cell)

        def timed_tick(cycle, _tick=tick, _cell=cell):
            start = time.perf_counter()
            _tick(cycle)
            _cell[0] += time.perf_counter() - start
            _cell[1] += 1

        wrapped.append(timed_tick)
    core._ticks = tuple(wrapped)
    return accumulators


def _count_steps(core: O3Core):
    """Count engine steps (stepped cycles) without altering them."""
    counter = [0]
    original_step = core.step

    def counting_step():
        counter[0] += 1
        original_step()

    core.step = counting_step
    return counter


def profile_run(kernel: str, scale: float = 1.0, preset: str = "base",
                scheduler: str = "age", commit: str = "ioc",
                events: bool = False, cprofile_top: int = 0,
                cprofile_sort: str = "tottime",
                max_cycles: int = 5_000_000) -> ProfileReport:
    """Run one kernel under the profiler and return the report."""
    trace = build_trace(kernel, scale)
    config = make_config(preset, scheduler=scheduler, commit=commit)

    core = O3Core(trace, config)
    event_counts = None
    if events:
        event_counts = {}
        for event_type in EventType:
            cell = event_counts.setdefault(event_type.name, [0])

            def bump(_event, _cell=cell):
                _cell[0] += 1

            core.bus.subscribe(event_type, bump)
    accumulators = _attach_stage_timers(core)
    steps = _count_steps(core)

    profiler = cProfile.Profile() if cprofile_top else None
    start = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    stats = core.run(max_cycles)
    if profiler is not None:
        profiler.disable()
    wall = time.perf_counter() - start

    cprofile_text = None
    if profiler is not None:
        buffer = io.StringIO()
        pstats.Stats(profiler, stream=buffer) \
            .sort_stats(cprofile_sort).print_stats(cprofile_top)
        cprofile_text = buffer.getvalue()

    return ProfileReport(
        kernel=kernel, scale=scale, preset=preset,
        scheduler=scheduler, commit=commit,
        cycles=stats.cycles, instructions=stats.committed,
        wall_seconds=wall, stepped_cycles=steps[0],
        stages=[StageTiming(type(stage).__name__, cell[0], cell[1])
                for stage, cell in zip(core.stages, accumulators)],
        event_counts={name: cell[0]
                      for name, cell in event_counts.items()}
        if event_counts is not None else None,
        cprofile_text=cprofile_text)
