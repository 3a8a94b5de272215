"""Commit stage: retirement, resource release, precise exceptions.

The configured :class:`~repro.commit.CommitPolicy` decides *which*
completed instructions retire each cycle (in order, merged-matrix out
of order, validation-buffer, …); this stage supplies the mechanisms the
policies compose: local commit legality, retirement bookkeeping,
in-order / at-completion / deferred resource release, zombie tracking
and the precise-exception flush.

Commit policies receive the :class:`~repro.pipeline.core.O3Core`
facade (read through the weak ``self.core_ref`` each tick), which
forwards ``retire`` and the legality checks back here — so existing
policies and tests keep working unchanged.
"""

from __future__ import annotations

from ..events import CommitEvent, CommitStall, EventType, MemEvent
from .squash import SquashUnit
from .state import InflightOp, PipelineState

_COMMIT = EventType.COMMIT
_MEM = EventType.MEM
_STALL = EventType.STALL


class CommitStage:
    """Retires instructions and releases their resources."""

    def __init__(self, state: PipelineState, squash: SquashUnit):
        self.s = state
        self.squash = squash
        #: weak reference to the O3Core facade, wired by the driver
        #: after construction; commit policies and the exception flush
        #: are invoked through it so monkeypatched cores keep
        #: intercepting them.  Weak so that nothing inside a core refers
        #: back to it: a finished core is freed by reference counting,
        #: not left for the cyclic garbage collector.
        self.core_ref = None

    def tick(self, cycle: int) -> None:
        s = self.s
        core = self.core_ref()
        committed = s.commit_policy.commit(core, cycle)
        if committed:
            s.progress_cycle = cycle
        elif s.window:
            s.stats.commit_stall_cycles += 1
            sampled = None
            # sample the §2.2 statistic to keep the simulator fast
            if s.stats.commit_stall_cycles % 8 == 0:
                sampled = self._account_commit_ready(weight=8)
            if s.bus.live[_STALL]:
                if sampled is not None:
                    ready_not_head, rob_full = sampled
                    s.bus.publish(CommitStall(cycle, 8, ready_not_head,
                                              rob_full))
                else:
                    s.bus.publish(CommitStall(cycle))
            head = next(iter(s.window.values()))
            if head.fault_pending:
                core._exception_flush(head, cycle)
        if s.pending_release:
            self.release_inorder()

    def _account_commit_ready(self, weight: int = 1):
        """§2.2 statistic: completed+safe instructions stuck behind the
        head during commit-stall cycles (sampled, hence ``weight``).
        Returns ``(ready_not_head, rob_full)`` when evaluated."""
        s = self.s
        order = s.commit_order
        if not order:
            return None
        # the oldest candidate other than the head has the lowest stamp
        # among them, so if any of them is safe, it is
        window = s.window
        first = 1 if order[0] == next(iter(window)) else 0
        ready_not_head = len(order) > first and \
            s.commit_safe(window[order[first]].dispatch_stamp)
        rob_full = not s.rob_queue.allocatable
        if rob_full:
            s.stats.rob_full_commit_stall_cycles += weight
        if ready_not_head:
            s.stats.stalled_commit_ready_cycles += weight
            if rob_full:
                s.stats.full_window_commit_ready_cycles += weight
        return ready_not_head, rob_full

    # -- commit legality (queried by the policies) ---------------------

    def locally_committable(self, op: InflightOp, ecl: bool,
                            ignore_global: bool = False) -> bool:
        """Local commit conditions (completion, replay, store order)."""
        s = self.s
        if op.wrong_path:
            return False
        if op.fault_pending and not ignore_global:
            return False
        dyn = op.dyn
        if dyn.is_load:
            if not (op.translated and op.mem_nonspec):
                return False
            return op.completed or ecl
        if dyn.is_store:
            if not op.completed:
                return False
            if s.lsq.oldest_store_seq() != op.seq:
                return False
            return s.lsq.can_commit_store()
        return op.completed

    def vb_committable(self, op: InflightOp, ecl: bool) -> bool:
        """Validation-Buffer retirement: non-speculative, possibly
        incomplete (post-commit execution)."""
        if op.wrong_path or op.fault_pending:
            return False
        dyn = op.dyn
        if dyn.is_branch:
            return op.completed
        if dyn.is_load or dyn.is_store:
            return self.locally_committable(op, ecl)
        return True

    # -- retirement ----------------------------------------------------

    def retire(self, op: InflightOp, cycle: int,
               zombie: bool = False) -> None:
        """Remove ``op`` from the ROB and release resources per policy."""
        s = self.s
        dyn = op.dyn
        seq = op.seq
        op.committed = True
        op.committed_at = cycle
        del s.window[seq]
        if op.completed:
            # a completed correct-path op is in the commit order
            s.commit_order.remove(seq)
            if not dyn.is_store and (not dyn.is_load or op.mem_nonspec):
                s.commit_ready -= 1
        s.leave_rob(op)
        s.stats.committed += 1
        s.progress_cycle = cycle
        early_load = dyn.is_load and not op.performed
        if early_load:
            s.stats.early_committed_loads += 1
        if zombie:
            op.zombie = True
            s.zombies[seq] = op
            s.stats.zombie_commits += 1
        if s.bus.live[_COMMIT]:
            s.bus.publish(CommitEvent(cycle, op, zombie, early_load))
        if zombie:
            return
        if s.commit_policy.defer_release_inorder:
            s.pending_release[seq] = op
        else:
            # under release_at_completion, registers / LQ entries went
            # at completion and this drains only what is left (a store
            # into the store buffer)
            self.release_resources(op)

    def release_resources(self, op: InflightOp) -> None:
        s = self.s
        if not op.resources_released:
            op.resources_released = True
            s.rename.writer_committed(op)
            if op.dyn.is_load:
                self._commit_load(op)
            elif op.dyn.is_store:
                s.lsq.commit_store(op.seq)
        self.forget(op)

    def _commit_load(self, op: InflightOp) -> None:
        """Release a committing load's LQ entry, reporting the release
        on the event bus — ``lockdown`` if a §3.3 lockdown transferred
        to the LDT, plain ``lqfree`` otherwise.  The verification
        witness keys its TSO protection window on this moment: a load
        is snoop-protected exactly while it holds its LQ entry, which
        for deferred-release policies outlasts the commit event."""
        s = self.s
        took = s.lsq.commit_load(op.seq)
        if took:
            s.stats.lockdowns += 1
        if s.bus.live[_MEM]:
            s.bus.publish(MemEvent(s.cycle, "lockdown" if took else "lqfree",
                                   op.seq))

    def forget(self, op: InflightOp) -> None:
        if op.completed:
            self.s.ops.pop(op.seq, None)

    def release_inorder(self) -> None:
        """Deferred releases for the ROB-entries-only-OoO policy."""
        s = self.s
        if not s.pending_release:
            return
        oldest_uncommitted = next(iter(s.window), None)
        for seq in sorted(s.pending_release):
            if oldest_uncommitted is not None and seq > oldest_uncommitted:
                break
            self.release_resources(s.pending_release.pop(seq))

    def early_release(self, op: InflightOp) -> None:
        """Cherry-style recycling of registers and LQ entries at
        completion time, ahead of commit.  Stores are excluded — they
        must drain into the store buffer in order, at commit."""
        s = self.s
        if op.resources_released or op.dyn.is_store:
            return
        op.resources_released = True
        s.rename.writer_committed(op)
        if op.dyn.is_load:
            # the checkpoint oracle absorbs any replay risk left
            if not op.mem_nonspec:
                s.disambiguated(op)
            self._commit_load(op)

    def finish_zombie(self, op: InflightOp) -> None:
        """A committed-incomplete (VB/ECL) instruction finished its
        post-commit execution: release what was withheld."""
        s = self.s
        s.zombies.pop(op.seq, None)
        if not op.resources_released:
            op.resources_released = True
            s.rename.writer_committed(op)
            if op.dyn.is_load:
                self._commit_load(op)
        s.ops.pop(op.seq, None)

    def exception_flush(self, op: InflightOp, cycle: int) -> None:
        """Precise exception: every older instruction has committed;
        squash the faulting instruction and everything younger, then
        resume fetch past it (the handler itself is not simulated)."""
        s = self.s
        s.stats.exceptions += 1
        self.squash.squash_from(op.seq, cycle, resume_after=True,
                                reason="exception")
        s.progress_cycle = cycle
