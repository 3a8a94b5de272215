"""Execute stage: functional-unit timing, load issue, memory retries.

Non-memory instructions simply schedule a completion after their FU
latency.  Loads are the interesting case: translation, store-set
gating, store-to-load forwarding, MSHR backpressure and MDM row
installation all happen here, with parked loads retried each cycle
once their blocking condition clears.
"""

from __future__ import annotations

from ...isa import OpClass
from ..events import EventType, MatrixEvent, MemEvent
from .memory import MemoryStage
from .state import InflightOp, PipelineState

_MEM = EventType.MEM
_MATRIX = EventType.MATRIX


class ExecuteStage:
    """Begins execution for issued instructions; retries parked loads."""

    def __init__(self, state: PipelineState, memory: MemoryStage):
        self.s = state
        self.memory = memory

    def tick(self, cycle: int) -> None:
        """Retry loads parked on MSHR-full / forwarding conditions."""
        s = self.s
        if not s.mem_retry:
            return
        retries, s.mem_retry = s.mem_retry, []
        for op in retries:
            if op.seq not in s.ops:
                continue                # squashed meanwhile
            # peek before burning a load port on a doomed attempt
            outcome, unresolved, match = s.lsq.load_lookup(op.seq,
                                                           op.dyn.addr)
            if unresolved and (
                    s.config.mem_dep_policy == "conservative"
                    or op.dyn.pc in s.violated_load_pcs):
                s.mem_wait.append(op)
                continue
            if outcome == "forward":
                producer = s.ops.get(match)
                if producer is not None and not producer.completed:
                    s.load_waiters.setdefault(match, []).append(op)
                    continue
            if s.fupool.acquire_fu(op.fu, op.latency, op.unpipelined):
                self.execute_load(op, cycle)
            else:
                s.mem_retry.append(op)

    def begin(self, op: InflightOp, cycle: int) -> None:
        s = self.s
        dyn = op.dyn
        cls = dyn.op_class
        if cls is OpClass.LOAD:
            self.execute_load(op, cycle)
            return
        if cls is OpClass.STORE:
            # address generation + translation; resolution effects land
            # at completion in MemoryStage.finish_store_addr
            latency = 1 + s.tlb.translate(dyn.addr, dyn.fault).latency
            s.schedule_completion(op, cycle + latency)
            return
        s.schedule_completion(op, cycle + op.latency)

    def execute_load(self, op: InflightOp, cycle: int) -> None:
        s = self.s
        dyn = op.dyn
        translation = s.tlb.translate(dyn.addr, dyn.fault)
        base_latency = 1 + translation.latency
        op.translated = True
        if translation.fault:
            op.fault_pending = True
            return                      # never completes; blocks at commit
        outcome, unresolved, match_seq = s.lsq.load_lookup(op.seq,
                                                           dyn.addr)
        if unresolved and (
                s.config.mem_dep_policy == "conservative"
                or dyn.pc in s.violated_load_pcs):
            op.translated = False       # wait for older stores to resolve
            s.mem_wait.append(op)
            return
        bus = s.bus
        if outcome == "forward":
            producer = s.ops.get(match_seq)
            if producer is not None and not producer.completed:
                # matching store's data is not ready: park until it is
                # (no port is wasted on doomed retries)
                op.translated = False
                s.load_waiters.setdefault(match_seq, []).append(op)
                return
            s.lsq.load_issue(op.seq, dyn.addr, unresolved)
            s.stats.mdm_writes += 1
            s.stats.forwarded_loads += 1
            if bus.live[_MATRIX]:
                bus.publish(MatrixEvent(cycle, "mdm", "write"))
            if bus.live[_MEM]:
                bus.publish(MemEvent(cycle, "forward", op.seq, match_seq))
            s.schedule_completion(
                op, cycle + base_latency + s.config.forward_latency)
        else:
            mem_latency = s.hierarchy.load(dyn.addr, cycle + base_latency)
            if mem_latency is None:     # MSHRs full: retry
                op.translated = False
                s.mem_retry.append(op)
                return
            if mem_latency > s.config.memory.l1_latency:
                s.pc_l1_misses[dyn.pc] = \
                    s.pc_l1_misses.get(dyn.pc, 0) + 1
            s.lsq.load_issue(op.seq, dyn.addr, unresolved)
            s.stats.mdm_writes += 1
            if bus.live[_MATRIX]:
                bus.publish(MatrixEvent(cycle, "mdm", "write"))
            s.schedule_completion(op, cycle + base_latency + mem_latency)
        self.memory.try_disambiguate(op)
