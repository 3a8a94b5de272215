"""Issue stage: arbitrate the ready set and hand winners to execute.

The configured :class:`~repro.scheduler.SelectPolicy` sees the ready
IQ entries, the per-FU-type availability and the issue width, and
grants up to IW instructions (the paper's Figure 13/14 policies).
Granted instructions leave the IQ — their wakeup column broadcasts,
converting positional dependents to completion counters — and begin
execution.

The wakeup broadcast is batched: one column gather covers every
instruction issued this cycle (a dependent waiting on several of them
is walked once, not once per producer), and all issued columns clear
in a single fancy-indexed store.  The conversion hand-off is one-way —
this stage only *increments* completion counters; the writeback walk
(:meth:`WritebackStage.complete`) is the sole waker that decrements
them and re-checks readiness, so no dependent is ever woken twice.
"""

from __future__ import annotations

import heapq
from typing import List

import numpy as np

from ...scheduler import SelectContext, grant_age
from ..events import EventType, IssueEvent, SelectEvent
from .execute import ExecuteStage
from .state import InflightOp, PipelineState

_ISSUE = EventType.ISSUE
_SELECT = EventType.SELECT


class IssueStage:
    """Select and issue from the IQ each cycle."""

    def __init__(self, state: PipelineState, execute: ExecuteStage):
        self.s = state
        self.execute = execute
        self._issued: List[InflightOp] = []
        # prebound context accessors (iq_ops is mutated in place, never
        # rebound, so closing over it once is safe)
        iq_ops = state.iq_ops
        self._fu_of = lambda entry: iq_ops[entry].fu
        self._age_of = lambda entry: iq_ops[entry].dispatch_stamp
        self._priority_of = lambda entry: iq_ops[entry].order_key
        # cross-lane fused wakeup broadcast (repro.pipeline.
        # vectorstages): with ``defer_broadcast`` the issued entries
        # collect in ``deferred`` and the vector engine performs every
        # lane's column clears / pending decrements in one batched
        # store over the 3-D stack (before any dispatch reuses a freed
        # entry; nothing else in this lane's tick reads the wakeup
        # planes of issued entries)
        self.defer_broadcast = False
        self.deferred: List[int] = []

    def drain_wp(self, cycle: int) -> None:
        """Move due wrong-path instructions into the ready set."""
        s = self.s
        while s.wp_ready and s.wp_ready[0][0] <= cycle:
            _, seq = heapq.heappop(s.wp_ready)
            op = s.ops.get(seq)
            if op is not None and op.in_iq:
                s.ready_set.add(op.iq_entry)

    def tick(self, cycle: int) -> None:
        s = self.s
        self.drain_wp(cycle)
        ready = s.ready_set
        if not ready:
            return
        width = s.config.issue_width
        if len(ready) > width:
            s.stats.ready_excess_cycles += 1
        s.stats.iq_select_ops += 1
        bus = s.bus
        if bus.live[_SELECT]:
            bus.publish(SelectEvent(cycle, len(ready), width))
        granted = s.select_policy.select(SelectContext(
            entries=sorted(ready),
            fu_of=self._fu_of,
            age_of=self._age_of,
            priority_of=self._priority_of,
            fu_available=s.fupool.availability_vector(),
            width=width,
            rng=s.rng))
        self.issue_granted(granted, cycle)

    def tick_vec(self, cycle: int, oldest: int) -> None:
        """Issue tick for a vector-engine lane.

        The cross-lane select kernel already computed this lane's
        lowest-key ready entry (``oldest``; meaningless when the ready
        set is empty — guarded here).  The wrong-path drain ran in the
        engine's pre-pass.  Only valid for lanes passing
        :func:`~repro.pipeline.vectorstages.lane_vectorizable`.
        """
        s = self.s
        ready = s.ready_set
        if not ready:
            return
        width = s.config.issue_width
        if len(ready) > width:
            s.stats.ready_excess_cycles += 1
        s.stats.iq_select_ops += 1
        granted = grant_age(oldest, sorted(ready), self._fu_of,
                            s.fupool.availability_vector(), width, s.rng)
        self.issue_granted(granted, cycle)

    def issue_granted(self, granted: List[int], cycle: int) -> None:
        """Common tail: acquire FUs, leave the IQ, begin execution."""
        s = self.s
        issued = self._issued
        issued.clear()
        fupool = s.fupool
        iq_ops = s.iq_ops
        for entry in granted:
            op = iq_ops[entry]
            if not fupool.acquire_fu(op.fu, op.latency, op.unpipelined):
                continue        # should not happen; be safe
            issued.append(op)
        if not issued:
            return
        self._leave_iq(issued)
        bus = s.bus
        live_issue = bus.live[_ISSUE]
        operands_read = s.rename.operands_read
        begin = self.execute.begin
        stats = s.stats
        for op in issued:
            if not op.wrong_path:
                operands_read(op.rename_rec)
            op.issued_at = cycle
            stats.issued += 1
            if live_issue:
                bus.publish(IssueEvent(cycle, op))
            begin(op, cycle)
        issued.clear()

    def _leave_iq(self, issued: List[InflightOp]) -> None:
        s = self.s
        iq_ops = s.iq_ops
        bits = s.wakeup.matrix.bits
        # wakeup broadcast: clear the issued producers' columns.
        # Dependents whose rows drain switch to waiting on the value
        # itself (the completion counter models the latency-delayed
        # broadcast).  One batched column gather walks every dependent
        # of the whole issue group at once.
        entries = [op.iq_entry for op in issued]
        if len(issued) == 1:
            op = issued[0]
            for dep_entry in np.flatnonzero(bits[:, entries[0]]):
                dep = iq_ops.get(int(dep_entry))
                if dep is None:
                    continue
                dep.producers_remaining += 1
                op.dependents.append((dep, "op"))
        else:
            block = bits[:, entries]
            for dep_entry in np.flatnonzero(block.any(axis=1)):
                d = int(dep_entry)
                dep = iq_ops.get(d)
                if dep is None:
                    continue
                row = block[d]
                for j, op in enumerate(issued):
                    if row[j]:
                        dep.producers_remaining += 1
                        op.dependents.append((dep, "op"))
        free = s.iq_queue.free
        discard = s.ready_set.discard
        if self.defer_broadcast:
            # the vector engine's broadcast kernel performs the wakeup
            # column clears for every lane's issued entries in fused
            # stores
            self.deferred.extend(entries)
            for op in issued:
                entry = op.iq_entry
                free(entry)
                discard(entry)
                del iq_ops[entry]
                op.in_iq = False
                op.iq_entry = None
        else:
            s.wakeup.issue(entries)
            for op in issued:
                entry = op.iq_entry
                free(entry)
                discard(entry)
                del iq_ops[entry]
                op.in_iq = False
                op.iq_entry = None
        s.stats.wakeup_ops += len(issued)
