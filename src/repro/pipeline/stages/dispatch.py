"""Dispatch stage: claim ROB/IQ/LSQ/RF entries, build the dataflow.

Up to ``dispatch_width`` instructions per cycle leave the dispatch
buffer, allocate their structural resources, rename, and register
their dependences on their producers' completion counters.  A cycle
that cannot dispatch charges its stall to exactly one resource: the
first exhausted one — in fixed ``rob, iq, lq, sq, reg`` priority order
— blocking the oldest not-yet-dispatched instruction.  Even when
several resources are exhausted at once, only that single blocker is
accounted (no double counting).
"""

from __future__ import annotations

import heapq
from typing import List, Optional

from ...isa import DynInstr, OpClass, Opcode
from ...scheduler import order_key
from ..events import DispatchEvent, DispatchStall, EventType
from .state import InflightOp, PipelineState, wait_on

_DISPATCH = EventType.DISPATCH
_STALL = EventType.STALL


class DispatchStage:
    """Moves instructions from the frontend pipe into the window."""

    def __init__(self, state: PipelineState):
        self.s = state
        # the latency table is immutable after construction
        self._latency = state.config.latencies.get

    def tick(self, cycle: int) -> None:
        s = self.s
        while s.frontend_pipe and s.frontend_pipe[0][0] <= cycle:
            s.dispatch_buffer.append(s.frontend_pipe.popleft()[1])
        if not s.dispatch_buffer:
            return
        dispatched = 0
        while s.dispatch_buffer and dispatched < s.config.dispatch_width:
            op = s.dispatch_buffer[0]
            blocker = self._blocker(op)
            if blocker is not None:
                # charge this cycle's stall once, to the blocker alone
                stats = s.stats
                if blocker == "rob":
                    stats.stall_rob += 1
                elif blocker == "iq":
                    stats.stall_iq += 1
                elif blocker == "lq":
                    stats.stall_lq += 1
                elif blocker == "sq":
                    stats.stall_sq += 1
                else:
                    stats.stall_reg += 1
                if not dispatched:
                    stats.full_window_stall_cycles += 1
                bus = s.bus
                if bus.live[_STALL]:
                    bus.publish(DispatchStall(cycle, blocker,
                                              dispatched == 0))
                return
            s.dispatch_buffer.popleft()
            if op.wrong_path:
                self._dispatch_wrong_path(op, cycle)
            else:
                self._do_dispatch(op, cycle)
            dispatched += 1
        if dispatched:
            s.progress_cycle = cycle

    # -- stall attribution ---------------------------------------------

    def _blocker(self, op: InflightOp) -> Optional[str]:
        """First missing resource for the oldest pending instruction,
        in fixed priority order — the single charged blocker."""
        s = self.s
        if not s.rob_queue.allocatable:
            return "rob"
        if not s.iq_queue.allocatable:
            return "iq"
        if op.wrong_path:
            return None                  # wrong path: IQ/ROB only
        dyn = op.dyn
        if dyn.is_load and not s.lsq.lq_alloc.allocatable:
            return "lq"
        if dyn.is_store and not s.lsq.sq_alloc.allocatable:
            return "sq"
        dst = dyn.dst
        if dst is not None and not s.rename.freelist_of[dst].available:
            return "reg"
        return None

    # -- dispatch proper -----------------------------------------------

    def _do_dispatch(self, op: InflightOp, cycle: int) -> None:
        s = self.s
        dyn = op.dyn
        op.latency = self._latency(dyn.op_class, 1)
        op.dispatched_at = cycle
        s.dispatch_counter += 1
        op.dispatch_stamp = s.dispatch_counter
        op.rob_entry = s.rob_queue.allocate()
        op.iq_entry = s.iq_queue.allocate()
        op.in_iq = True
        s.iq_stamp[op.iq_entry] = order_key(
            op.dispatch_stamp, s.config.criticality and dyn.critical)
        s.iq_fu[op.iq_entry] = op.fu
        if dyn.is_load:
            s.lsq.allocate_load(op.seq)
        elif dyn.is_store:
            s.lsq.allocate_store(op.seq)
        s.rename.rename(op)

        # dataflow: wait on in-flight producers of the source registers.
        # Stores split their operands: address (rs1) gates issue/agen,
        # data (rs2) only gates completion — so a store can resolve its
        # address early, the key to precise disambiguation.
        if dyn.is_store:
            wait_on(op, self._live_writers(dyn.srcs[:1]), "op")
            wait_on(op, self._live_writers(dyn.srcs[1:]), "data")
        else:
            wait_on(op, self._live_writers(dyn.srcs), "op")
        # fences order memory operations
        if dyn.opcode is Opcode.FENCE:
            wait_on(op, [other for other in s.window.values()
                         if other.dyn.is_mem and not other.completed], "op")
            s.active_fence = op.seq
        elif dyn.is_mem and s.active_fence is not None:
            fence = s.ops.get(s.active_fence)
            if fence is not None and not fence.completed:
                wait_on(op, (fence,), "op")

        if dyn.dst is not None:
            op.prev_writer = (dyn.dst, s.last_writer.get(dyn.dst))
            s.last_writer[dyn.dst] = op.seq

        speculative = self._is_speculative_at_dispatch(dyn)
        if speculative:
            s.spec_stamps[op.dispatch_stamp] = None
        op.spec_resolved = not speculative
        s.stats.iq_writes += 1
        s.stats.rob_writes += 1
        s.stats.wakeup_writes += 1

        s.window[op.seq] = op
        s.ops[op.seq] = op
        s.iq_ops[op.iq_entry] = op
        if op.producers_remaining == 0:
            s.ready_set.add(op.iq_entry)
        s.stats.dispatched += 1
        bus = s.bus
        if bus.live[_DISPATCH]:
            bus.publish(DispatchEvent(cycle, op, False))

    def _dispatch_wrong_path(self, op: InflightOp, cycle: int) -> None:
        """Install a synthetic wrong-path instruction: it occupies an
        IQ and a ROB entry and competes for issue, but never renames,
        touches memory, or commits."""
        s = self.s
        op.latency = self._latency(op.dyn.op_class, 1)
        op.dispatched_at = cycle
        s.dispatch_counter += 1
        op.dispatch_stamp = s.dispatch_counter
        op.rob_entry = s.rob_queue.allocate()
        op.iq_entry = s.iq_queue.allocate()
        op.in_iq = True
        s.iq_stamp[op.iq_entry] = op.dispatch_stamp
        s.iq_fu[op.iq_entry] = op.fu
        s.window[op.seq] = op
        s.ops[op.seq] = op
        s.iq_ops[op.iq_entry] = op
        # synthetic operand wait: ready 1-3 cycles after dispatch
        heapq.heappush(s.wp_ready,
                       (cycle + 1 + (-op.seq) % 3, op.seq))
        s.stats.wrong_path_dispatched += 1
        bus = s.bus
        if bus.live[_DISPATCH]:
            bus.publish(DispatchEvent(cycle, op, True))

    def _live_writers(self, srcs) -> List[InflightOp]:
        """In-flight (not yet completed) producers of the distinct
        source registers ``srcs``."""
        last_writer = self.s.last_writer
        ops = self.s.ops
        writers = []
        for src in set(srcs):
            writer_seq = last_writer.get(src)
            if writer_seq is None:
                continue
            writer = ops.get(writer_seq)
            if writer is not None and not writer.completed:
                writers.append(writer)
        return writers

    def _is_speculative_at_dispatch(self, dyn: DynInstr) -> bool:
        if dyn.is_mem:
            return True                       # page fault / replay traps
        if dyn.op_class is OpClass.BRANCH:
            return not self.s.commit_policy.oracle_branches
        if dyn.opcode is Opcode.JALR:
            return not self.s.commit_policy.oracle_branches
        return False
