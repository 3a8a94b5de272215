"""Lane-batched engine: step N experiment cells in lockstep.

Figure sweeps are thousands of small, homogeneous (config, workload)
cells.  :class:`LaneBatch` simulates up to ``lanes`` of them at once
over one :class:`~repro.core.LaneStack` — a struct-of-arrays arena
holding every cell's issue columns in lane-stacked NumPy arrays —
with a lockstep driver:

* every driver iteration advances each **active** lane by one unit of
  work (one ``step()``, or one fast-forward span — cells diverge in
  cycle count and fast-forward behaviour, so the active-lane set is
  the divergence mask);
* a lane whose cell finishes (or raises) **retires**: its outcome is
  recorded, its slot returns to the free list, and the next queued
  cell **refills** the slot (the new core's state re-zeroes the
  slot's columns);
* a :class:`~repro.pipeline.DeadlockError` (watchdog or cycle-budget)
  in one lane is caught per lane and never perturbs batch-mates —
  their columns live in disjoint rows of the stack.

Because each lane's stages run the *scalar* engine over views into
the stack, per-cell results are field-identical to the serial
reference by construction; the one cross-lane operation is the select
kernel (:mod:`repro.pipeline.vectorstages`), which ``REPRO_CHECK=1``
cross-checks against each lane's scalar ready set every cycle.

No sweep runs here: every harness cell runs on its own plain core.
The engine's callers are ``repro profile --lanes``
(:func:`repro.profiling.profile_lanes`), ``benchmarks/bench_speed.py
--lanes`` and the end-to-end benchmark's tracer and saturated-lane
probe; it goes once the benchmark stops timing it (ROADMAP items 2
and 3).  Each lane core builds its own empty event bus.
"""

from __future__ import annotations

import traceback
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter
from typing import List, Optional, Sequence

from ..core import LaneStack
from .config import CoreConfig
from .core import DeadlockError, O3Core
from .fastforward import FastForward
from .stats import SimStats
from .vectorstages import VectorEngine, lane_vectorizable

__all__ = ["LaneBatch", "LaneCell", "LaneOutcome", "LaneReport"]


@dataclass
class LaneCell:
    """One queued cell: an opaque caller key plus its trace/config."""

    index: object
    trace: object
    config: CoreConfig
    max_cycles: int = 5_000_000


@dataclass
class LaneOutcome:
    """Terminal state of one cell after its lane retired.

    Exactly one of ``stats`` / ``error`` describes the outcome.
    ``elapsed`` is the cell's *attributed* time: the sum of
    its own construction and step durations, measured per lane-step —
    summing outcomes recovers the batch's simulation time without the
    lanes-fold overcount a fill-to-retire wall clock would give.
    """

    index: object
    stats: Optional[SimStats] = None
    error: Optional[Exception] = None
    error_tb: str = ""
    elapsed: float = 0.0


@dataclass
class LaneReport:
    """Everything a batch run produced, plus occupancy accounting."""

    outcomes: List[LaneOutcome] = field(default_factory=list)
    #: lockstep driver iterations with at least one active lane
    steps: int = 0
    #: total lane-advances (sum of active lanes over iterations)
    lane_steps: int = 0

    def mean_active(self) -> float:
        """Mean active lanes per driver iteration (batch occupancy)."""
        return self.lane_steps / self.steps if self.steps else 0.0


class _Lane:
    """One occupied lane: slot id, cell, core, fast-forward, timing."""

    __slots__ = ("slot_id", "cell", "core", "ff", "elapsed", "vec_ok")

    def __init__(self, slot_id: int, cell: LaneCell, core: O3Core,
                 ff: Optional[FastForward], elapsed: float):
        self.slot_id = slot_id
        self.cell = cell
        self.core = core
        self.ff = ff
        self.elapsed = elapsed
        #: static eligibility for the cross-lane vectorized kernels
        self.vec_ok = lane_vectorizable(core)


class LaneBatch:
    """Lockstep executor for cells of one IQ size over one stack (the
    stack holds only the IQ-sized issue columns; every other structure
    is per-lane)."""

    def __init__(self, lanes: int, iq_size: int):
        self.lanes = max(1, lanes)
        self.iq_size = iq_size
        self.stack = LaneStack(self.lanes, iq_size)
        self.engine = VectorEngine(self.stack)

    def run(self, cells: Sequence[LaneCell]) -> LaneReport:
        """Drive every cell to a terminal outcome.

        Cells beyond the lane count queue and refill slots as lanes
        retire (mid-batch retirement).
        """
        for cell in cells:
            if cell.config.iq_size != self.iq_size:
                raise ValueError(
                    f"cell {cell.index!r} (iq={cell.config.iq_size}) is "
                    f"not compatible with this batch (iq={self.iq_size})")
        # longest-trace-first fill order shrinks the end-of-batch tail
        # where one long cell runs with the other lanes drained (the
        # sort is stable, so equal-length cells — typically the same
        # (workload, scale) target — keep their cache-friendly
        # adjacency); per-cell outcomes are order-independent
        queue = deque(sorted(cells, key=lambda c: len(c.trace),
                             reverse=True))
        report = LaneReport()
        active: List[_Lane] = []
        free = list(range(self.lanes - 1, -1, -1))

        def retire(lane: _Lane, outcome: LaneOutcome) -> None:
            lane.core = None                 # marks the lane for reaping
            free.append(lane.slot_id)
            report.outcomes.append(outcome)

        while queue or active:
            while queue and free:
                slot_id = free.pop()
                cell = queue.popleft()
                start = perf_counter()
                try:
                    core = O3Core(cell.trace, cell.config,
                                  slot=self.stack.slot(slot_id))
                    ff = FastForward(core) if core.fast_forward_enabled \
                        else None
                    lane = _Lane(slot_id, cell, core, ff,
                                 perf_counter() - start)
                except Exception as exc:
                    # a cell that cannot even build its core is an
                    # outcome like any other failure; the slot refills
                    free.append(slot_id)
                    report.outcomes.append(LaneOutcome(
                        cell.index, error=exc,
                        error_tb=traceback.format_exc(),
                        elapsed=perf_counter() - start))
                    continue
                active.append(lane)
            if not active:
                break                        # every queued cell failed
            report.steps += 1
            retired = False
            # pass 1 — per-lane terminal checks and fast-forward; a
            # lane that neither retires nor fast-forwards needs one
            # step, routed to the vectorized or scalar path
            vec: List[_Lane] = []
            scalar: List[_Lane] = []
            for lane in active:
                core = lane.core
                cell = lane.cell
                start = perf_counter()
                try:
                    if core.done():
                        core._finalize_stats()
                        lane.elapsed += perf_counter() - start
                        retire(lane, LaneOutcome(
                            cell.index, stats=core.state.stats,
                            elapsed=lane.elapsed))
                        retired = True
                        continue
                    if core.state.cycle >= cell.max_cycles:
                        raise DeadlockError(
                            f"cycle budget exhausted at "
                            f"{core.state.cycle}")
                    if lane.ff is not None and \
                            lane.ff.advance(cell.max_cycles):
                        lane.elapsed += perf_counter() - start
                        report.lane_steps += 1
                        continue
                except Exception as exc:
                    # a failing lane (deadlock, assertion, anything) is
                    # an annotated outcome; batch-mates are untouched —
                    # their state lives in disjoint rows of the stack
                    lane.elapsed += perf_counter() - start
                    retire(lane, LaneOutcome(
                        cell.index, error=exc,
                        error_tb=traceback.format_exc(),
                        elapsed=lane.elapsed))
                    retired = True
                    continue
                lane.elapsed += perf_counter() - start
                if lane.vec_ok:
                    vec.append(lane)
                else:
                    scalar.append(lane)
            # pass 2a — scalar fallback lanes step individually (non-
            # vectorizable policy or criticality)
            for lane in scalar:
                start = perf_counter()
                try:
                    lane.core.step()
                except Exception as exc:
                    lane.elapsed += perf_counter() - start
                    retire(lane, LaneOutcome(
                        lane.cell.index, error=exc,
                        error_tb=traceback.format_exc(),
                        elapsed=lane.elapsed))
                    retired = True
                    continue
                lane.elapsed += perf_counter() - start
                report.lane_steps += 1
            # pass 2b — vectorizable lanes advance together through the
            # cross-lane fused kernels (a solo lane gains nothing from
            # fusing, so it takes the scalar step)
            if len(vec) == 1:
                lane = vec[0]
                start = perf_counter()
                try:
                    lane.core.step()
                except Exception as exc:
                    lane.elapsed += perf_counter() - start
                    retire(lane, LaneOutcome(
                        lane.cell.index, error=exc,
                        error_tb=traceback.format_exc(),
                        elapsed=lane.elapsed))
                    retired = True
                else:
                    lane.elapsed += perf_counter() - start
                    report.lane_steps += 1
            elif vec:
                start = perf_counter()
                failures = self.engine.step(vec)
                share = (perf_counter() - start) / len(vec)
                # attributed time: the fused step's wall split equally
                # across participants (per-lane timing has no meaning
                # inside a cross-lane kernel)
                for lane in vec:
                    lane.elapsed += share
                for lane, exc, tb in failures:
                    retire(lane, LaneOutcome(
                        lane.cell.index, error=exc, error_tb=tb,
                        elapsed=lane.elapsed))
                    retired = True
                report.lane_steps += len(vec) - len(failures)
            if retired:
                active = [lane for lane in active if lane.core is not None]
        return report

