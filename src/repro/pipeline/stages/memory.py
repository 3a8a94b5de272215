"""Memory-order unit: store resolution, disambiguation, the SB drain.

Owns the interactions between the LSQ's disambiguation state (per-load
counts of unresolved older stores, kept by :mod:`repro.lsq.lsq`) and
the rest of the pipeline: store address resolution (and the
violation/replay/squash fallout), load disambiguation, oracle load
replays, and the one-per-cycle store-buffer drain through the L1 write
port.
"""

from __future__ import annotations

import heapq

from ..events import EventType, MatrixEvent, MemEvent, ReplayEvent
from .squash import SquashUnit
from .state import InflightOp, PipelineState

_MEM = EventType.MEM
_MATRIX = EventType.MATRIX
_REPLAY = EventType.REPLAY


class MemoryStage:
    """Store-buffer drain tick plus memory-ordering services."""

    def __init__(self, state: PipelineState, squash: SquashUnit):
        self.s = state
        self.squash = squash

    def tick(self, cycle: int) -> None:
        """One store per cycle leaves the SB through the L1 write port;
        misses ride the MSHRs (write-allocate) instead of serializing."""
        s = self.s
        if cycle < s.sb_busy_until or not s.lsq.store_buffer:
            return
        head = s.lsq.store_buffer[0]
        latency = s.hierarchy.store(head.addr, cycle)
        if latency is None:
            return                          # MSHRs full; retry next cycle
        s.lsq.drain_store()
        s.sb_busy_until = cycle + 1
        if s.bus.live[_MEM]:
            s.bus.publish(MemEvent(cycle, "drain", head.seq))

    # -- store resolution ----------------------------------------------

    def finish_store_addr(self, op: InflightOp, cycle: int) -> None:
        """Store address generation finished: translate and resolve."""
        s = self.s
        dyn = op.dyn
        op.translated = True
        if dyn.fault:
            op.fault_pending = True
            return
        op.addr_resolved = True
        s.stats.mdm_ops += 1
        bus = s.bus
        if bus.live[_MATRIX]:
            bus.publish(MatrixEvent(cycle, "mdm", "op"))
        violated = s.lsq.store_resolve(op.seq, dyn.addr)
        s.resolve_spec(op)
        if s.mem_wait:
            s.mem_retry.extend(w for w in s.mem_wait if w.seq in s.ops)
            s.mem_wait = []
        if violated:
            s.stats.mem_order_violations += 1
            if bus.live[_MEM]:
                bus.publish(MemEvent(cycle, "violation", op.seq))
            if s.commit_policy.oracle_branches and \
                    s.commit_policy.name.startswith("spec"):
                # Cherry oracle: no rollback cost; replay only the loads
                for seq in violated:
                    self.replay_load(s.ops[seq], cycle)
                s.stats.load_replays += len(violated)
            else:
                for seq in violated:
                    victim = s.ops.get(seq)
                    if victim is not None:
                        s.violated_load_pcs.add(victim.dyn.pc)
                self.squash.squash_from(min(violated), cycle,
                                        reason="mem_order")
        else:
            self.recheck_loads()

    def recheck_loads(self) -> None:
        """A store resolved: loads whose count of unresolved older
        stores reached zero become non-speculative.

        The scan covers the whole LQ, not just the store's bypassers:
        a resolve that found a violation skipped this recheck, so a
        load it unblocked waits for the next clean resolve."""
        s = self.s
        for entry in list(s.lsq.lq):
            load = s.lsq.lq.get(entry)
            if load is None:
                continue
            op = s.ops.get(load.seq)
            if op is not None and not op.mem_nonspec:
                self.try_disambiguate(op)

    def try_disambiguate(self, op: InflightOp) -> None:
        s = self.s
        if op.mem_nonspec or op.fault_pending or not op.translated:
            return
        if not s.lsq.has_load(op.seq):
            return
        if s.lsq.load_is_nonspeculative(op.seq):
            s.disambiguated(op)

    def replay_load(self, op: InflightOp, cycle: int) -> None:
        """Re-execute a violated load in place (oracle policies only)."""
        s = self.s
        op.exec_token += 1
        if op.completed and op.mem_nonspec:
            s.commit_ready -= 1     # until it completes again
        op.completed = False
        op.performed = False
        s.rename.producer_replayed(op)
        latency = s.hierarchy.load(op.dyn.addr, cycle)
        if latency is None:
            latency = s.config.memory.l1_latency + 2
        heapq.heappush(s.completion_heap,
                       (cycle + latency, op.seq, op.exec_token))
        if s.bus.live[_REPLAY]:
            s.bus.publish(ReplayEvent(cycle, op.seq))
