"""Writeback stage: drain the completion heap, wake dependents.

Completion events carry an ``exec_token`` so replays and squashes can
invalidate stale in-flight completions.  Two-phase stores route their
first completion through the memory unit's address resolution; the
dependent-wakeup walk converts completion counters back into ready IQ
entries (or completes waiting stores).
"""

from __future__ import annotations

import heapq
from bisect import bisect_left

from ..events import CompleteEvent, EventType
from .commit import CommitStage
from .memory import MemoryStage
from .squash import SquashUnit
from .state import InflightOp, PipelineState

_COMPLETE = EventType.COMPLETE


class WritebackStage:
    """Completes instructions whose results arrive this cycle."""

    def __init__(self, state: PipelineState, memory: MemoryStage,
                 commit: CommitStage, squash: SquashUnit):
        self.s = state
        self.memory = memory
        self.commit = commit
        self.squash = squash

    def tick(self, cycle: int) -> None:
        s = self.s
        while s.completion_heap and s.completion_heap[0][0] <= cycle:
            _, seq, token = heapq.heappop(s.completion_heap)
            op = s.ops.get(seq)
            if op is None or op.exec_token != token or op.completed:
                continue
            if op.dyn.is_store and not op.addr_resolved:
                # two-phase store: this event is address generation
                self.memory.finish_store_addr(op, cycle)
                if not op.fault_pending and op.data_remaining == 0:
                    self.complete(op, cycle)
                continue
            self.complete(op, cycle)

    def complete(self, op: InflightOp, cycle: int) -> None:
        s = self.s
        op.completed = True
        op.completed_at = cycle
        s.progress_cycle = cycle
        if op.wrong_path:
            return
        if s.bus.live[_COMPLETE]:
            s.bus.publish(CompleteEvent(cycle, op))
        s.rename.producer_completed(op)
        dyn = op.dyn
        if not op.committed:
            # join the commit order (a replayed load completing again
            # is already in it) before anything below can disambiguate
            order = s.commit_order
            seq = op.seq
            index = bisect_left(order, seq)
            if index == len(order) or order[index] != seq:
                order.insert(index, seq)
            if not dyn.is_store and (not dyn.is_load or op.mem_nonspec):
                s.commit_ready += 1
        if dyn.is_branch:
            s.resolve_spec(op)
            s.fetch.branch_resolved(op.seq, cycle)
            if op.mispredicted:
                self.squash.squash_wrong_path(cycle)
        elif dyn.is_load:
            op.performed = True
            s.lsq.load_performed(op.seq)
            self.memory.try_disambiguate(op)
        # wake dependents.  Identity check: a squash may have killed the
        # registered instruction and a later refetch re-dispatched the
        # same seq as a fresh InflightOp; a stale entry must not wake
        # (much less double-decrement) the new incarnation.
        for dep, kind in op.dependents:
            if s.ops.get(dep.seq) is not dep:
                continue
            if kind == "data":
                dep.data_remaining -= 1
                if (dep.data_remaining == 0 and dep.addr_resolved
                        and not dep.completed and not dep.fault_pending):
                    s.schedule_completion(dep, cycle + 1)
            else:
                dep.producers_remaining -= 1
                if dep.producers_remaining == 0 and dep.in_iq:
                    s.ready_set.add(dep.iq_entry)
        if s.active_fence == op.seq:
            s.active_fence = None
        if dyn.is_store:
            for waiter in s.load_waiters.pop(op.seq, ()):
                if waiter.seq in s.ops:
                    s.mem_retry.append(waiter)
        if s.commit_policy.release_at_completion and not op.committed:
            self.commit.early_release(op)
        if op.zombie:
            self.commit.finish_zombie(op)
