"""Cycle-level out-of-order core: the stage driver and its facade.

The timing model replays a dynamic trace through a superscalar OoO
pipeline (fetch → rename → dispatch → issue → execute → writeback →
commit) built around Orinoco's non-collapsible queues.  The matrix
schedulers' per-cycle answers are read from per-op state (the matrix
classes in :mod:`repro.core` remain the reference the tests compare
against and the circuit model prices):

* the IQ is a free-list (non-collapsible) structure; an entry is
  ready when its completion counter reaches zero (the wakeup matrix's
  row), and the configured :class:`~repro.scheduler.SelectPolicy`
  ranks ready entries by order key (the age matrix's order);
* the ROB is non-collapsible; an instruction may commit once its
  dispatch stamp is not younger than the oldest speculative one (the
  merged age/SPEC matrix's check), and the configured
  :class:`~repro.commit.CommitPolicy` retires instructions;
* the LQ/SQ keep the memory disambiguation matrix as per-load counts
  of unresolved older stores, for speculative load issue and early
  (pre-performed-older-stores) load commit.

The stage logic itself lives in :mod:`repro.pipeline.stages` — one
module per pipeline stage, each operating on the shared
:class:`~repro.pipeline.stages.PipelineState` and publishing
stage-boundary events on the core's
:class:`~repro.pipeline.events.EventBus`.  :class:`O3Core` owns only
construction, the per-cycle evaluation order, watchdogs, and a facade
(attribute delegation to the state) that keeps the historical
``core.window`` / ``core.retire(...)`` surface that commit policies
and tests program against.

See DESIGN.md for the substitutions relative to gem5's O3CPU.
"""

from __future__ import annotations

import weakref
from typing import Optional

from ..isa import Trace
from .config import CoreConfig
from .events import CycleEvent, EventBus, EventType, RunEndEvent
from .fastforward import FastForward
from .stages import (CommitStage, DispatchStage, ExecuteStage, FetchStage,
                     InflightOp, IssueStage, MemoryStage, PipelineState,
                     SquashUnit, WritebackStage)
from .stats import SimStats

__all__ = ["ENGINE_VERSION", "DeadlockError", "InflightOp", "O3Core",
           "simulate"]

#: Engine revision token, part of every result-cache key.  Bump it
#: whenever the timing model's *output* could change (new counters,
#: different arbitration, changed latencies) so stale cached SimStats
#: from an older engine can never satisfy a lookup.  A change that the
#: identity matrix shows to be bit-identical keeps the version: a bump
#: changes every cache key, so every cached cell is simulated again.
#: Verify checkpoints do not hold it, so their digests do not move.
ENGINE_VERSION = 6

_CYCLE = EventType.CYCLE
_RUN_END = EventType.RUN_END


class DeadlockError(RuntimeError):
    """The pipeline made no forward progress for many cycles."""


class O3Core:
    """The simulated core: construct with a trace and a configuration,
    then :meth:`run`.

    Attribute reads not found here fall through to the shared
    :class:`PipelineState` (``core.window``, ``core.stats``,
    ``core.lsq``, …), so external code keeps its historical view of
    the machine; commit-policy entry points (:meth:`retire`,
    :meth:`locally_committable`, :meth:`vb_committable`) forward to
    the commit stage.
    """

    def __init__(self, trace: Trace, config: CoreConfig,
                 bus: Optional[EventBus] = None, slot=None):
        # ``slot`` (repro.core.lanestack.LaneSlot) backs the issue
        # columns with views into a lane-stacked arena; semantics are
        # identical to the slot-free core (lane engine only)
        state = PipelineState(trace, config, bus, slot=slot)
        # bypass __setattr__-visible delegation: plain instance attrs
        self.state = state
        self.bus = state.bus

        squash = SquashUnit(state)
        memory = MemoryStage(state, squash)
        commit = CommitStage(state, squash)
        commit.core_ref = weakref.ref(self)
        self.stages = (
            commit,
            WritebackStage(state, memory, commit, squash),
            memory,
            ExecuteStage(state, memory),
        )
        execute = self.stages[3]
        self.stages += (
            IssueStage(state, execute),
            DispatchStage(state),
            FetchStage(state),
        )
        self.squash_unit = squash
        self.commit_stage = commit
        #: quiescent-cycle fast-forward (see pipeline.fastforward);
        #: per-instance so tests can force the exact path on one core
        self.fast_forward_enabled = True
        # prebound tick methods: the driver loop calls these 7 times per
        # cycle, so skip the per-call stage.tick attribute lookup
        self._ticks = tuple(stage.tick for stage in self.stages)

        # hot-path facade: commit policies and run() read these every
        # cycle, so mirror them as plain instance attributes — a direct
        # dict lookup instead of the __getattr__ fallback.  Each is a
        # stable reference (mutated in place, never rebound); any other
        # field reads through __getattr__, which keeps rebound ones
        # (cycle, mem_retry, frontend_pipe, …) current.
        self.config = state.config
        self.window = state.window
        self.commit_order = state.commit_order
        self.ready_set = state.ready_set
        # bound stage methods: skip one dispatch layer on the per-
        # candidate commit checks (the hottest calls in the model)
        self.retire = commit.retire
        self.locally_committable = commit.locally_committable
        self.vb_committable = commit.vb_committable

    def __getattr__(self, name):
        # facade: anything not defined on the driver reads through to
        # the shared pipeline state (only called on lookup misses)
        try:
            return getattr(self.__dict__["state"], name)
        except KeyError:
            raise AttributeError(name) from None

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------

    def done(self) -> bool:
        s = self.state
        fetch = s.fetch
        return (fetch.next_seq >= fetch.trace_len and not s.frontend_pipe
                and not s.dispatch_buffer and not s.window
                and not s.zombies and not s.pending_release)

    def run(self, max_cycles: int = 5_000_000) -> SimStats:
        ff = FastForward(self) if self.fast_forward_enabled else None
        while not self.done():
            if self.state.cycle >= max_cycles:
                raise DeadlockError(
                    f"cycle budget exhausted at {self.state.cycle}")
            # advance declines, changing nothing, while an op is ready
            if ff is not None and not self.ready_set \
                    and ff.advance(max_cycles):
                continue
            self.step()
        self._finalize_stats()
        return self.state.stats

    def step(self) -> None:
        s = self.state
        cycle = s.cycle
        s.fupool.begin_cycle(cycle)
        for tick in self._ticks:
            tick(cycle)
        self._tick_stats(cycle)
        s.cycle += 1
        if s.cycle - s.progress_cycle > 50_000:
            raise DeadlockError(
                f"no progress since cycle {s.progress_cycle}: "
                f"window={list(s.window.values())[:8]}")

    # ------------------------------------------------------------------
    # lane-engine phase entry points (repro.pipeline.vectorstages).
    # One lockstep cycle is the scalar step() re-ordered stage-major
    # across lanes; these two methods bundle the per-lane prefix and
    # suffix into single Python calls so the vector engine pays one
    # call per lane per phase instead of one per stage.
    # ------------------------------------------------------------------

    def vec_phase_a(self) -> None:
        """Cycle prefix: FU reset, the commit / writeback / memory /
        execute ticks and the wrong-path ready drain, in scalar
        :meth:`step` order."""
        s = self.state
        cycle = s.cycle
        s.fupool.begin_cycle(cycle)
        ticks = self._ticks
        ticks[0](cycle)
        ticks[1](cycle)
        ticks[2](cycle)
        ticks[3](cycle)
        if s.wp_ready:
            self.stages[4].drain_wp(cycle)

    def vec_phase_d(self) -> None:
        """Cycle suffix: dispatch and fetch ticks, per-cycle stats,
        cycle advance and the no-progress watchdog — the scalar
        :meth:`step` tail."""
        s = self.state
        cycle = s.cycle
        ticks = self._ticks
        ticks[5](cycle)
        ticks[6](cycle)
        self._tick_stats(cycle)
        s.cycle = cycle + 1
        if s.cycle - s.progress_cycle > 50_000:
            raise DeadlockError(
                f"no progress since cycle {s.progress_cycle}: "
                f"window={list(s.window.values())[:8]}")

    # ------------------------------------------------------------------
    # commit-policy entry points.  retire / locally_committable /
    # vb_committable are bound in __init__ (hot path); the exception
    # flush stays a real method so tests can monkeypatch it per-core.
    # ------------------------------------------------------------------

    def _exception_flush(self, op: InflightOp, cycle: int) -> None:
        self.commit_stage.exception_flush(op, cycle)

    # ------------------------------------------------------------------
    # crash diagnostics
    # ------------------------------------------------------------------

    def snapshot(self, window_ops: int = 8) -> dict:
        """JSON-able picture of the pipeline at the current cycle.

        Captured post-mortem by the crash-diagnostic path (the core
        object survives the exception that aborted :meth:`run`), so a
        crash bundle shows *where the machine was* — window head,
        occupancies, progress watermark — without any instrumentation
        cost on healthy runs.
        """
        s = self.state
        ops = []
        for seq in sorted(s.window)[:window_ops]:
            op = s.window[seq]
            dyn = op.dyn
            ops.append({
                "seq": op.seq,
                "pc": dyn.pc,
                "op_class": dyn.op_class.name,
                "issued": op.issued_at is not None,
                "completed": op.completed,
                "committed": op.committed,
            })
        return {
            "cycle": s.cycle,
            "progress_cycle": s.progress_cycle,
            "fetch_exhausted": s.fetch.exhausted(),
            "committed": s.stats.committed,
            "dispatched": s.stats.dispatched,
            "rob_occupancy": len(s.window),
            "iq_occupancy": s.iq_queue.occupancy(),
            "lq_occupancy": s.lsq.lq_occupancy(),
            "zombies": len(s.zombies),
            "frontend_pipe": len(s.frontend_pipe),
            "dispatch_buffer": len(s.dispatch_buffer),
            "window_head": ops,
        }

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------

    def _tick_stats(self, cycle: int) -> None:
        s = self.state
        stats = s.stats
        stats.cycles += 1
        # lengths and maintained counts, no accessor calls: iq_ops
        # holds exactly the IQ's live entries, lsq.lq the LQ's
        rob = len(s.window)
        iq = len(s.iq_ops)
        lq = len(s.lsq.lq)
        rf = s.rename.live_regs
        stats.rob_occupancy_sum += rob
        stats.iq_occupancy_sum += iq
        stats.lq_occupancy_sum += lq
        stats.rf_occupancy_sum += rf
        if self.bus.live[_CYCLE]:
            self.bus.publish(CycleEvent(cycle, rob, iq, lq, rf))

    def _finalize_stats(self) -> None:
        s = self.state
        s.stats.memory = s.hierarchy.stats()
        s.stats.predictor_accuracy = s.predictor.accuracy()
        if self.bus.live[_RUN_END]:
            self.bus.publish(RunEndEvent(s.cycle, s.stats.name,
                                         s.stats.memory,
                                         s.stats.predictor_accuracy))


def simulate(trace: Trace, config: CoreConfig,
             max_cycles: int = 5_000_000) -> SimStats:
    """Run ``trace`` through a core built from ``config``."""
    return O3Core(trace, config).run(max_cycles)
