"""Squash unit: flush wrong-path state and roll the machine back.

Not a pipeline stage (it has no ``tick``) but a service shared by
several: writeback squashes on branch mispredicts, the memory unit on
ordering violations, commit on precise exceptions.  Every flush
publishes a :class:`~repro.pipeline.events.SquashEvent` naming its
victims, so timeline viewers can render wrong-path work distinctly.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from operator import attrgetter

from ..events import EventType, SquashEvent
from .state import InflightOp, PipelineState

_SQUASH = EventType.SQUASH
_SEQ = attrgetter("seq")


class SquashUnit:
    """Rollback machinery for mispredicts, violations and exceptions."""

    def __init__(self, state: PipelineState):
        self.s = state

    def squash_wrong_path(self, cycle: int) -> None:
        """The stalled branch resolved: every wrong-path instruction in
        the machine is squashed."""
        s = self.s
        victims = [op for op in s.ops.values() if op.wrong_path]
        for op in victims:
            op.exec_token += 1
            if op.in_iq:
                self.leave_iq_squash(op)
            s.leave_rob(op)
            s.window.pop(op.seq, None)
            s.ops.pop(op.seq, None)
        s.wp_ready = []
        s.dispatch_buffer = deque(
            op for op in s.dispatch_buffer if not op.wrong_path)
        s.frontend_pipe = deque(
            (ready, op) for ready, op in s.frontend_pipe
            if not op.wrong_path)
        if victims and s.bus.live[_SQUASH]:
            s.bus.publish(SquashEvent(cycle, "wrong_path", tuple(victims)))

    def squash_from(self, seq: int, cycle: int, resume_after: bool = False,
                    reason: str = "mem_order") -> None:
        """Squash ``seq`` and everything younger; refetch from ``seq``
        (or from ``seq + 1`` when ``resume_after`` — exception skip)."""
        s = self.s
        self.squash_wrong_path(cycle)
        victims = [op for op in s.ops.values()
                   if op.seq >= seq and not op.committed]
        victims.sort(key=_SEQ, reverse=True)
        for op in victims:
            op.exec_token += 1          # cancel in-flight completions
            if op.in_iq:
                self.leave_iq_squash(op)
            if op.rob_entry is not None:
                s.leave_rob(op)
            s.window.pop(op.seq, None)
            s.ops.pop(op.seq, None)
            if op.completed and not op.dyn.is_store and (
                    not op.dyn.is_load or op.mem_nonspec):
                s.commit_ready -= 1
            if op.prev_writer is not None:
                arch, prev = op.prev_writer
                if s.last_writer.get(arch) == op.seq:
                    if prev is None:
                        del s.last_writer[arch]
                    else:
                        s.last_writer[arch] = prev
            if s.active_fence == op.seq:
                s.active_fence = None
        if victims:
            # parked memory ops leave with their victims, in order
            gone = set(map(_SEQ, victims))
            s.mem_retry = [r for r in s.mem_retry if r.seq not in gone]
            s.mem_wait = [r for r in s.mem_wait if r.seq not in gone]
            load_waiters = s.load_waiters
            for victim in gone.intersection(load_waiters):
                del load_waiters[victim]
            for waiters in load_waiters.values():
                waiters[:] = [w for w in waiters if w.seq not in gone]
        # every member of the commit order at or past seq is a victim
        del s.commit_order[bisect_left(s.commit_order, seq):]
        s.lsq.squash(seq)
        s.rename.squash(victims)
        # drop younger not-yet-dispatched instructions
        s.dispatch_buffer = deque(
            op for op in s.dispatch_buffer if op.seq < seq)
        s.frontend_pipe = deque(
            (ready, op) for ready, op in s.frontend_pipe if op.seq < seq)
        resume_seq = seq if resume_after else seq - 1
        s.fetch.squash_to(resume_seq, cycle)
        if s.bus.live[_SQUASH]:
            s.bus.publish(SquashEvent(cycle, reason, tuple(victims),
                                      resume_seq))

    def leave_iq_squash(self, op: InflightOp) -> None:
        s = self.s
        entry = op.iq_entry
        s.iq_queue.free(entry)
        s.ready_set.discard(entry)
        s.iq_ops.pop(entry, None)
        op.in_iq = False
        op.iq_entry = None
