"""Issue stage: arbitrate the ready set and hand winners to execute.

The configured :class:`~repro.scheduler.SelectPolicy` sees the ready
IQ entries, the per-FU-type availability and the issue width, and
grants up to IW instructions (the paper's Figure 13/14 policies).
Granted instructions leave the IQ and begin execution.  Issue wakes
nobody: every dependent registered on its producers' completion
counters at dispatch, and the writeback walk
(:meth:`WritebackStage.complete`) is the sole waker that counts them
down and marks entries ready.
"""

from __future__ import annotations

import heapq
from typing import List

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
        # prebound context accessors: FU type and order key are the
        # per-entry columns' own __getitem__ (no Python-level call per
        # entry); the true dispatch order, which only IdealSelect reads,
        # comes from the op (iq_ops is mutated in place, never rebound)
        self._fu_of = state.iq_fu.__getitem__
        self._priority_of = state.iq_stamp.__getitem__
        iq_ops = state.iq_ops
        self._age_of = lambda entry: iq_ops[entry].dispatch_stamp

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
        if s.wp_ready:
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
                # select granted within the availability vector, so a
                # refused unit means the pool and select disagree
                raise RuntimeError(
                    f"cycle {cycle}: select granted IQ entry {entry} "
                    f"({op.dyn.opcode.mnemonic}) but no {op.fu.name} "
                    f"unit is free")
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
                operands_read(op)
            op.issued_at = cycle
            stats.issued += 1
            if live_issue:
                bus.publish(IssueEvent(cycle, op))
            begin(op, cycle)
        issued.clear()

    def _leave_iq(self, issued: List[InflightOp]) -> None:
        s = self.s
        iq_ops = s.iq_ops
        free = s.iq_queue.free
        discard = s.ready_set.discard
        for op in issued:
            entry = op.iq_entry
            free(entry)
            discard(entry)
            del iq_ops[entry]
            op.in_iq = False
            op.iq_entry = None
        s.stats.wakeup_ops += len(issued)
