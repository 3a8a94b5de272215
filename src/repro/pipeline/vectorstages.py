"""Cross-lane vectorized select for the lane-batched engine.

The lane engine (:mod:`repro.pipeline.lanes`) steps N compatible cells
in lockstep over one :class:`~repro.core.LaneStack`.
:class:`VectorEngine` re-orders one lockstep iteration **stage-major**
(every lane's commit … execute ticks, then every lane's issue, then
every lane's dispatch and fetch — legal because lane state is
disjoint) and fuses the one piece of per-cycle array work the stages
share into a single NumPy operation over the stack's lane axis:

* **select** — the stock AGE policy's oldest-entry search.  The
  oldest ready entry is the one with the lowest order key
  (:func:`~repro.scheduler.order_key`), which dispatch writes into
  the stack's ``iq_stamp`` plane.  The kernel gathers every lane's
  ready plane and key plane, masks non-ready entries to ``int64``
  max, and one ``argmin`` over the entry axis yields every lane's
  oldest ready entry; the per-lane :meth:`IssueStage.tick_vec` then
  hands it to :func:`~repro.scheduler.grant_age`, the same grant
  ``AgeSelect.select`` makes.

Wakeup and commit eligibility need no kernel: both are per-op state
(completion counters, the oldest speculative dispatch stamp) that each
lane's scalar stages keep as they tick.

Lanes that cannot take the vectorized path — a non-``AgeSelect``
policy or criticality scheduling (profiled cells never reach the lane
engine) — are stepped by the driver through the unchanged scalar
``core.step()``; mixed batches are routine.  The vector path publishes
no per-cycle ``SelectEvent``, which no lane core subscribes to: each
builds its own empty event bus.  A lane that raises mid-iteration is
excluded from the remaining phases (its state is mid-cycle, exactly as
a scalar ``step()`` abort) and returned to the driver for retirement;
batch-mates are untouched.

Under ``REPRO_CHECK=1`` the select kernel is cross-checked per cycle:
its oldest entry is compared against the lowest order key of the
lane's scalar ready set.
"""

from __future__ import annotations

import traceback
from typing import List, Sequence, Tuple

import numpy as np

from ..core import check
from ..scheduler import AgeSelect

__all__ = ["VectorEngine", "lane_vectorizable"]

_I64_MAX = np.iinfo(np.int64).max

#: index of the issue stage in O3Core.stages
_ISSUE_S = 4


def lane_vectorizable(core) -> bool:
    """Static per-lane eligibility for the vectorized kernels.

    The select kernel serves the stock :class:`AgeSelect` policy with
    criticality off (``run_suite`` never sends profiled cells to
    lanes), and the lane must be slot-backed so its issue columns live
    in the stack.
    """
    s = core.state
    return (type(s.select_policy) is AgeSelect
            and not s.config.criticality
            and s.slot is not None)


class VectorEngine:
    """Stage-major lockstep stepper with the cross-lane select kernel.

    One instance per :class:`~repro.pipeline.lanes.LaneBatch`; the
    kernel's buffers are preallocated against the stack's shape, so the
    steady state allocates nothing at the Python level.
    """

    def __init__(self, stack):
        self.stack = stack
        lanes, n = stack.lanes, stack.iq_size
        self._sl_slots = np.empty(lanes, dtype=np.intp)
        self._sl_ready = np.empty((lanes, n), dtype=bool)
        self._sl_stamps = np.empty((lanes, n), dtype=np.int64)
        self._sl_not = np.empty((lanes, n), dtype=bool)
        self._sl_oldest = np.empty(lanes, dtype=np.intp)
        self._sl_any = np.empty(lanes, dtype=bool)
        self._check = check.check_enabled()

    # ------------------------------------------------------------------
    # one lockstep iteration
    # ------------------------------------------------------------------

    def step(self, lanes: Sequence) -> List[Tuple[object, Exception, str]]:
        """Advance every lane one cycle; return the failed ones.

        ``lanes`` are driver lane records exposing ``.core`` and
        ``.slot_id``.  Surviving lanes end the call exactly one cycle
        ahead with state field-identical to a scalar ``core.step()``;
        a failed lane is excluded from the phases after its exception
        (mid-cycle state, same as a scalar abort) and reported as
        ``(lane, exception, traceback_text)``.
        """
        alive = []
        failures: List[Tuple[object, Exception, str]] = []

        # phase A per lane: FU reset + commit/writeback/memory/execute
        # ticks + wrong-path drain, bundled into one Python call
        for lane in lanes:
            try:
                lane.core.vec_phase_a()
            except Exception as exc:    # noqa: BLE001 — lane isolation
                failures.append((lane, exc, traceback.format_exc()))
            else:
                alive.append(lane)
        if not alive:
            return failures

        # cross-lane select kernel, then per-lane grant/issue; lanes
        # with an empty ready set are skipped outright (their scalar
        # tick would early-return)
        oldest, anyready = self._select_kernel(alive)
        checking = self._check
        for i, lane in enumerate(alive):
            if not anyready[i]:
                continue
            core = lane.core
            try:
                if checking:
                    self._check_select(core, int(oldest[i]))
                core.stages[_ISSUE_S].tick_vec(core.state.cycle,
                                               int(oldest[i]))
            except Exception as exc:    # noqa: BLE001 — lane isolation
                failures.append((lane, exc, traceback.format_exc()))
                alive[i] = None

        # phase D per lane: dispatch and fetch ticks + stats + cycle
        # advance + watchdog, bundled into one Python call
        for lane in alive:
            if lane is None:
                continue
            try:
                lane.core.vec_phase_d()
            except Exception as exc:    # noqa: BLE001 — lane isolation
                failures.append((lane, exc, traceback.format_exc()))
        return failures

    # ------------------------------------------------------------------
    # the fused kernel
    # ------------------------------------------------------------------

    def _select_kernel(self, alive: List) -> Tuple[np.ndarray, np.ndarray]:
        """Every lane's oldest ready entry in one ``argmin``.

        Gathers the ready and order-key planes of the given lanes,
        masks non-ready entries to ``int64`` max, and argmins over the
        entry axis.  Returns ``(oldest, anyready)``; a lane with an empty
        ready set has ``anyready`` False (and a meaningless oldest) —
        the engine skips its issue call entirely.
        """
        k = len(alive)
        stack = self.stack
        slots = self._sl_slots[:k]
        for i, lane in enumerate(alive):
            slots[i] = lane.slot_id
        ready = self._sl_ready[:k]
        np.take(stack.issue_ready, slots, axis=0, out=ready)
        anyready = self._sl_any[:k]
        np.any(ready, axis=1, out=anyready)
        stamps = self._sl_stamps[:k]
        np.take(stack.iq_stamp, slots, axis=0, out=stamps)
        notready = self._sl_not[:k]
        np.logical_not(ready, out=notready)
        np.copyto(stamps, _I64_MAX, where=notready)
        oldest = self._sl_oldest[:k]
        np.argmin(stamps, axis=1, out=oldest)
        return oldest, anyready

    # ------------------------------------------------------------------
    # REPRO_CHECK cross-checks
    # ------------------------------------------------------------------

    def _check_select(self, core, oldest: int) -> None:
        """Cross-check the select kernel against the scalar ready set:
        its ``argmin`` over the mirrored ready and key planes must name
        the lane's oldest ready op.  The reference is ranked by each
        op's own ``dispatch_stamp``, not by the key column the kernel
        reads, so a miswritten or stale key entry is caught; with
        criticality off (:func:`lane_vectorizable`) the order key is
        the dispatch stamp."""
        s = core.state
        want = min(s.ready_set, key=core.stages[_ISSUE_S]._age_of)
        if oldest != want:
            raise check.CheckError(
                f"vectorized select diverged at cycle {s.cycle}: "
                f"kernel picked {oldest}, oldest ready op is {want} "
                f"(ready={sorted(s.ready_set)})")
