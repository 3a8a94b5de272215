"""Cross-lane vectorized stage kernels for the lane-batched engine.

The lane engine (:mod:`repro.pipeline.lanes`) steps N compatible cells
in lockstep over one :class:`~repro.core.LaneStack`, but until this
module each lane still executed the whole per-cycle hot path in scalar
Python — N small NumPy calls per stage instead of one batched call, so
lanes ran *slower* than serial.  :class:`VectorEngine` re-orders one
lockstep iteration **stage-major** (every lane's commit tick, then
every lane's writeback tick, …— legal because lane state is disjoint)
and fuses the dominant per-cycle array work into single NumPy
operations over the stack's lane axis:

* **select** — the stock AGE policy's oldest-entry search.  The
  oldest ready entry is the one with the lowest order key
  (:func:`~repro.scheduler.order_key`), which dispatch writes into
  the stack's ``iq_stamp`` plane.  The kernel gathers every lane's
  ready plane and key plane, masks non-ready entries to ``int64``
  max, and one ``argmin`` over the entry axis yields every lane's
  oldest ready entry; the per-lane :meth:`IssueStage.tick_vec` then
  hands it to :func:`~repro.scheduler.grant_age`, the same grant
  ``AgeSelect.select`` makes.
* **wakeup broadcast** — issued entries' column clears and pending
  decrements, deferred by the issue stage and landed for all lanes in
  one fancy-indexed clear plus one ``reduceat`` of the gathered
  columns (flushed before dispatch can reuse a freed entry).
* **dispatch-group landing** — the per-lane wakeup/merged
  ``dispatch_group`` matrix stores, deferred by the dispatch stage
  (``defer_flush``) and landed for all lanes at once: one batched
  column clear and one batched row store per bit-plane stack, with the
  per-lane ROB valid snapshots gathered before any valid bit is set
  and the intra-group triangles patched exactly as the scalar fast
  path does.  The small per-entry counter updates (wakeup pending,
  merged SPEC/blockers) stay per-lane Python — they are O(dispatch
  width).
* **commit eligibility** — the merged matrix's lazy
  ``safe = (blockers == 0) & valid`` refresh, computed for every
  dirty lane in one batched pass before the commit ticks.

Lanes that cannot take the vectorized path — a non-``AgeSelect``
policy, criticality scheduling (profiled cells never reach the lane
engine), or a live ``SELECT`` event subscriber (the vector path skips
the per-cycle ``SelectEvent``) — are stepped by the driver through the
unchanged scalar ``core.step()``; mixed batches are routine.  A lane
that raises mid-iteration is excluded from the remaining phases (its
state is mid-cycle, exactly as a scalar ``step()`` abort) and returned
to the driver for retirement; batch-mates are untouched.

Under ``REPRO_CHECK=1`` every vectorized kernel is cross-checked per
cycle: the select kernel's oldest entry is compared against the
lowest order key of the lane's scalar ready set, and the fused
broadcast/landing stores are validated by the stack-wide counter
re-derivation (:meth:`LaneStack.verify`) after every engine step.
"""

from __future__ import annotations

import traceback
from typing import List, Sequence, Tuple

import numpy as np

from ..core import check
from ..scheduler import AgeSelect
from .core import DeadlockError
from .events import EventType

__all__ = ["VectorEngine", "lane_vectorizable"]

_SELECT = EventType.SELECT
_I64_MAX = np.iinfo(np.int64).max

#: stage indices in O3Core.stages / O3Core._ticks
_COMMIT, _WRITEBACK, _MEMORY, _EXECUTE, _ISSUE_S, _DISPATCH_S, _FETCH = \
    range(7)


def lane_vectorizable(core) -> bool:
    """Static per-lane eligibility for the vectorized kernels.

    The select kernel serves the stock :class:`AgeSelect` policy with
    criticality off (``run_suite`` never sends profiled cells to
    lanes), and the lane must be slot-backed so its issue columns live
    in the stack.  The dynamic part — no live ``SELECT`` subscriber —
    is checked per iteration by ``LaneBatch.run``.
    """
    s = core.state
    return (type(s.select_policy) is AgeSelect
            and not s.config.criticality
            and s.iq_stamp is not None)


def select_live(core) -> bool:
    """Dynamic fallback: a live SELECT subscriber needs the scalar
    tick (the vector path does not publish ``SelectEvent``)."""
    return core.bus.live[_SELECT]


class VectorEngine:
    """Stage-major lockstep stepper with cross-lane fused kernels.

    One instance per :class:`~repro.pipeline.lanes.LaneBatch`; all
    buffers are preallocated against the stack's shape (index arrays
    grow geometrically on demand, then stay — the steady state
    allocates nothing at the Python level).
    """

    def __init__(self, stack):
        self.stack = stack
        lanes, n, r = stack.lanes, stack.iq_size, stack.rob_size
        # select kernel buffers
        self._sl_slots = np.empty(lanes, dtype=np.intp)
        self._sl_ready = np.empty((lanes, n), dtype=bool)
        self._sl_stamps = np.empty((lanes, n), dtype=np.int64)
        self._sl_not = np.empty((lanes, n), dtype=bool)
        self._sl_oldest = np.empty(lanes, dtype=np.intp)
        self._sl_any = np.empty(lanes, dtype=bool)
        # commit-eligibility refresh buffers
        self._cc_slots = np.empty(lanes, dtype=np.intp)
        self._cc_blk = np.empty((lanes, r), dtype=np.intp)
        self._cc_valid = np.empty((lanes, r), dtype=bool)
        self._cc_safe = np.empty((lanes, r), dtype=bool)
        # fused wakeup broadcast (flat per-issued-entry indices)
        cap = max(8, lanes * 8)
        self._bc_lanes = np.empty(cap, dtype=np.intp)
        self._bc_entries = np.empty(cap, dtype=np.intp)
        self._bc_uslots = np.empty(lanes, dtype=np.intp)
        # fused dispatch landing (flat per-dispatched-op indices, row
        # blocks and counter values; grown if a batch's total group
        # size exceeds cap)
        self._dl_lanes = np.empty(cap, dtype=np.intp)
        self._dl_iq = np.empty(cap, dtype=np.intp)
        self._dl_rob = np.empty(cap, dtype=np.intp)
        self._dl_rows_rob = np.empty((cap, r), dtype=bool)
        self._dl_rows_wk = np.empty((cap, n), dtype=bool)
        self._dl_cnt = np.empty(cap, dtype=np.intp)
        self._dl_rdy = np.empty(cap, dtype=bool)
        self._dl_spec = np.empty(cap, dtype=bool)
        self._dl_blk = np.empty(cap, dtype=np.intp)
        self._check = check.check_enabled()

    def _grow_dl(self, need: int) -> None:
        cap = self._dl_lanes.shape[0]
        while cap < need:
            cap *= 2
        n, r = self.stack.iq_size, self.stack.rob_size
        self._dl_lanes = np.empty(cap, dtype=np.intp)
        self._dl_iq = np.empty(cap, dtype=np.intp)
        self._dl_rob = np.empty(cap, dtype=np.intp)
        self._dl_rows_rob = np.empty((cap, r), dtype=bool)
        self._dl_rows_wk = np.empty((cap, n), dtype=bool)
        self._dl_cnt = np.empty(cap, dtype=np.intp)
        self._dl_rdy = np.empty(cap, dtype=bool)
        self._dl_spec = np.empty(cap, dtype=bool)
        self._dl_blk = np.empty(cap, dtype=np.intp)

    def _grow_bc(self, need: int) -> None:
        cap = self._bc_lanes.shape[0]
        while cap < need:
            cap *= 2
        self._bc_lanes = np.empty(cap, dtype=np.intp)
        self._bc_entries = np.empty(cap, dtype=np.intp)

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
        alive = list(lanes)
        failures: List[Tuple[object, Exception, str]] = []
        dead = False

        # commit-eligibility refresh (fused _refresh for dirty lanes);
        # runs before any tick, so it sees exactly the state the first
        # can_commit() of the cycle would
        self._refresh_commit(alive)

        # phase A per lane: FU reset + commit/writeback/memory/execute
        # ticks + wrong-path drain, bundled into one Python call
        for i, lane in enumerate(alive):
            try:
                lane.core.vec_phase_a()
            except Exception as exc:    # noqa: BLE001 — lane isolation
                failures.append((lane, exc, traceback.format_exc()))
                alive[i] = None
                dead = True
        if dead:
            alive = [lane for lane in alive if lane is not None]
            dead = False
        if not alive:
            return failures

        # cross-lane select kernel, then per-lane grant/issue with
        # deferred wakeup broadcast; lanes with an empty ready set are
        # skipped outright (their scalar tick would early-return)
        oldest, anyready = self._select_kernel(alive)
        checking = self._check
        for i, lane in enumerate(alive):
            if not anyready[i]:
                continue
            core = lane.core
            stage = core.stages[_ISSUE_S]
            try:
                if checking:
                    self._check_select(core, int(oldest[i]))
                stage.defer_broadcast = True
                try:
                    stage.tick_vec(core.state.cycle, int(oldest[i]))
                finally:
                    stage.defer_broadcast = False
            except Exception as exc:    # noqa: BLE001 — lane isolation
                failures.append((lane, exc, traceback.format_exc()))
                alive[i] = None
                dead = True
        self._broadcast_kernel(alive)
        if dead:
            alive = [lane for lane in alive if lane is not None]
            dead = False
        if not alive:
            return failures

        # dispatch: per-lane tick with deferred matrix landing, then
        # the fused cross-lane landing (which validity-checks each
        # group and excludes a failing lane before any store)
        for i, lane in enumerate(alive):
            stage = lane.core.stages[_DISPATCH_S]
            stage.defer_flush = True
            try:
                stage.tick(lane.core.state.cycle)
            except Exception as exc:    # noqa: BLE001 — lane isolation
                failures.append((lane, exc, traceback.format_exc()))
                alive[i] = None
                dead = True
            finally:
                stage.defer_flush = False
        dead = self._land_groups(alive, failures) or dead
        if dead:
            alive = [lane for lane in alive if lane is not None]
            dead = False

        # phase D per lane: fetch tick + stats + cycle advance +
        # watchdog, bundled into one Python call
        for i, lane in enumerate(alive):
            try:
                lane.core.vec_phase_d()
            except Exception as exc:    # noqa: BLE001 — lane isolation
                failures.append((lane, exc, traceback.format_exc()))
                alive[i] = None
                dead = True
        if checking:
            if dead:
                alive = [lane for lane in alive if lane is not None]
            if alive:
                self.stack.verify(lane.slot_id for lane in alive)
        return failures

    # ------------------------------------------------------------------
    # fused kernels
    # ------------------------------------------------------------------

    def _refresh_commit(self, alive: List) -> None:
        """Batched ``MergedCommitMatrix._refresh`` for dirty lanes."""
        k = 0
        slots = self._cc_slots
        merged = []
        for lane in alive:
            m = lane.core.state.merged
            if m._dirty:
                slots[k] = lane.slot_id
                merged.append(m)
                k += 1
        if not k:
            return
        stack = self.stack
        idx = slots[:k]
        blk = self._cc_blk[:k]
        np.take(stack.blockers, idx, axis=0, out=blk)
        safe = self._cc_safe[:k]
        np.equal(blk, 0, out=safe)
        valid = self._cc_valid[:k]
        np.take(stack.rob_age_valid, idx, axis=0, out=valid)
        np.logical_and(safe, valid, out=safe)
        stack.safe[idx] = safe
        for m in merged:
            m._dirty = False

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

    def _broadcast_kernel(self, alive: List) -> None:
        """Fused wakeup broadcast of every lane's issued entries.

        Scalar equivalent (per lane): ``WakeupMatrix.issue(entries)``
        — valid off, pending minus the issued columns, columns
        cleared.  The column block is gathered *before* the clear,
        and per-lane segment sums reproduce the per-entry
        subtractions.  Runs before the dispatch phase, so a freed
        entry reused by this cycle's dispatch group lands on clean
        planes exactly as under the scalar interleave.
        """
        m = 0
        groups = []                 # (state, slot, start)
        for lane in alive:
            if lane is None:
                continue
            stage = lane.core.stages[_ISSUE_S]
            deferred = stage.deferred
            if not deferred:
                continue
            if m + len(deferred) > self._bc_lanes.shape[0]:
                self._grow_bc(m + len(deferred))
            start = m
            slot = lane.slot_id
            for entry in deferred:
                self._bc_lanes[m] = slot
                self._bc_entries[m] = entry
                m += 1
            groups.append((lane.core.state, slot, start))
            deferred.clear()
        if not m:
            return
        stack = self.stack
        lr = self._bc_lanes[:m]
        ef = self._bc_entries[:m]
        bits3 = stack.wakeup_bits
        cols = bits3[lr, :, ef]                      # (m, n) gather
        starts = [start for _, _, start in groups]
        seg = np.add.reduceat(cols, starts, axis=0, dtype=np.intp)
        uslots = self._bc_uslots[:len(groups)]
        for i, (_, slot, _) in enumerate(groups):
            uslots[i] = slot
        # slot ids are unique per lane, so the in-place fancy
        # subtraction is a well-defined gather-subtract-scatter
        stack.wakeup_pending[uslots] -= seg
        stack.wakeup_valid[lr, ef] = False
        bits3[lr, :, ef] = False
        for state, _, _ in groups:
            state.wakeup._dirty = True

    def _land_groups(self, alive: List, failures: List) -> bool:
        """Fused landing of every lane's deferred dispatch group.

        Scalar equivalent (per lane, in ``DispatchStage._flush_group``
        order): ``merged.dispatch_group`` (all-non-critical fast path)
        and ``wakeup.dispatch_group``.  The ROB valid-plane snapshots
        for the age rows are gathered before any valid bit is set; all
        column clears precede all row writes, so intra-group triangles
        and intra-group wakeup producer bits come out exactly as under
        the scalar stores.  Scalar ``dispatch_group``'s already-valid
        guard is preserved as one batched check over the gathered
        entries (the IQ side reads ``wakeup_valid``); an offending lane
        is failed (appended to ``failures``, ``None``-ed out of
        ``alive``) before any store lands.  Returns whether any lane
        was failed.
        """
        m = 0
        groups = []                 # (stage, state, slot, start, k)
        dead = False
        for li, lane in enumerate(alive):
            if lane is None:
                continue
            stage = lane.core.stages[_DISPATCH_S]
            g_iq = stage._g_iq
            k = len(g_iq)
            if not k:
                continue
            if k > 1 and (len(set(g_iq)) < k
                          or len(set(stage._g_rob)) < k):
                failures.append(
                    (lane, ValueError("duplicate entry in dispatch "
                                      "group"),
                     "duplicate entry in dispatch group"))
                alive[li] = None
                dead = True
                continue
            if m + k > self._dl_lanes.shape[0]:
                self._grow_dl(m + k)
            slot = lane.slot_id
            for j in range(k):
                self._dl_lanes[m + j] = slot
                self._dl_iq[m + j] = g_iq[j]
                self._dl_rob[m + j] = stage._g_rob[j]
            groups.append((stage, lane, li, m, k))
            m += k
        if not m:
            return dead
        stack = self.stack
        lr = self._dl_lanes[:m]
        iq_e = self._dl_iq[:m]
        rob_e = self._dl_rob[:m]
        # scalar dispatch_group raises before touching anything when a
        # group member's entry is still valid; one batched gather
        # checks every lane's group at once (the per-lane attribution
        # below only runs on the exceptional path)
        if (stack.wakeup_valid[lr, iq_e].any()
                or stack.rob_age_valid[lr, rob_e].any()):
            bad_iq = stack.wakeup_valid[lr, iq_e]
            bad_rob = stack.rob_age_valid[lr, rob_e]
            still = []
            for stage, lane, li, start, k in groups:
                if bad_iq[start:start + k].any() \
                        or bad_rob[start:start + k].any():
                    failures.append(
                        (lane, ValueError("dispatch group entry "
                                          "already valid"),
                         "dispatch group entry already valid"))
                    alive[li] = None
                    dead = True
                else:
                    still.append((stage, lane, li, start, k))
            if not still:
                return dead
            # re-collect the surviving groups and land them
            self._land_groups(alive, failures)
            return dead
        rows_rob = self._dl_rows_rob[:m]
        rows_wk = self._dl_rows_wk[:m]
        cnt = self._dl_cnt[:m]
        rdy = self._dl_rdy[:m]
        spec = self._dl_spec[:m]
        blk = self._dl_blk[:m]
        # valid snapshots (before any valid bit is set)
        np.take(stack.rob_age_valid, lr, axis=0, out=rows_rob)
        rows_wk[:] = False
        # per-lane small work: triangles, wakeup rows, counter values
        # into the flat buffers — all O(group width) Python; the
        # per-entry counter planes land in fused scatters below
        for stage, lane, li, start, k in groups:
            g_rob = stage._g_rob
            for i in range(k - 1):
                rows_rob[start + i + 1:start + k, g_rob[i]] = True
            for j, prods in enumerate(stage._g_prods):
                row = rows_wk[start + j]
                count = 0
                for producer in prods:
                    if not row[producer]:
                        row[producer] = True
                        count += 1
                cnt[start + j] = count
            mg = lane.core.state.merged
            n_spec = mg._n_spec
            for j, flag in enumerate(stage._g_spec):
                spec[start + j] = flag
                blk[start + j] = n_spec
                if flag:
                    n_spec += 1
            mg._n_spec = n_spec
            mg._dirty = True
            stage._g_rob.clear()
            stage._g_spec.clear()
            stage._g_iq.clear()
            stage._g_prods.clear()
        # fused stores: all column clears, then all row writes, then
        # the point planes (valid flags and the per-entry counters)
        stack.wakeup_bits[lr, :, iq_e] = False
        stack.rob_age_bits[lr, :, rob_e] = False
        stack.wakeup_bits[lr, iq_e, :] = rows_wk
        stack.rob_age_bits[lr, rob_e, :] = rows_rob
        stack.wakeup_valid[lr, iq_e] = True
        stack.rob_age_valid[lr, rob_e] = True
        stack.rob_age_critical[lr, rob_e] = False
        np.equal(cnt, 0, out=rdy)
        stack.wakeup_pending[lr, iq_e] = cnt
        stack.wakeup_ready[lr, iq_e] = rdy
        stack.spec[lr, rob_e] = spec
        stack.blockers[lr, rob_e] = blk
        return dead

    # ------------------------------------------------------------------
    # REPRO_CHECK cross-checks
    # ------------------------------------------------------------------

    def _check_select(self, core, oldest: int) -> None:
        """Cross-check the select kernel against the scalar ready set:
        its ``argmin`` over the mirrored ready and key planes must name
        the lane's lowest-key ready entry."""
        s = core.state
        want = min(s.ready_set, key=core.stages[_ISSUE_S]._priority_of)
        if oldest != want:
            raise check.CheckError(
                f"vectorized select diverged at cycle {s.cycle}: "
                f"kernel picked {oldest}, lowest order key is {want} "
                f"(ready={sorted(s.ready_set)})")
