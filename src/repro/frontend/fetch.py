"""Trace-driven fetch unit.

Feeds the pipeline from the dynamic trace, modelling the front end's
control-flow behaviour: a mispredicted branch stops fetch at the branch
(the machine is fetching the wrong path); when the branch resolves in
the back end, fetch resumes after a redirect penalty.  A taken
(correctly predicted) control transfer ends the fetch group for the
cycle, modelling one-taken-branch-per-cycle fetch.
"""

from __future__ import annotations

from typing import List, Optional

from ..isa import DynInstr, Opcode, Trace
from .predictor import BranchPredictor

#: synthetic wrong-path instruction mix: mostly simple ALU work with the
#: occasional multiply, mirroring a typical integer path
_WP_OPCODES = (Opcode.ADD, Opcode.XOR, Opcode.ADDI, Opcode.SLL,
               Opcode.ADD, Opcode.MUL)


class FetchUnit:
    """Pulls instructions from the trace under prediction constraints.

    While stalled behind a mispredicted branch, the machine is really
    fetching down the wrong path; those instructions occupy IQ/ROB
    entries and compete for issue until the branch resolves.  The unit
    models this by emitting synthetic wrong-path instructions (see
    DESIGN.md) — they are what age-ordered selection protects the
    correct path from.
    """

    def __init__(self, trace: Trace, predictor: BranchPredictor,
                 width: int, redirect_penalty: int = 10,
                 model_wrong_path: bool = True):
        self.predictor = predictor
        self.width = width
        self.redirect_penalty = redirect_penalty
        self.model_wrong_path = model_wrong_path
        #: the trace's instruction list and its length, read once: the
        #: trace is never resized while a core runs it
        self._instrs = trace.instrs
        self.trace_len = len(trace.instrs)
        #: seq (trace index) of the next correct-path instruction
        self.next_seq = 0
        #: seq of the mispredicted branch fetch is stalled behind (None
        #: while fetching the correct path)
        self.stalled_on: Optional[int] = None
        #: cycle at which fetch may resume after a resolved redirect
        self._resume_at = 0
        self.stall_cycles = 0
        #: wrong-path instructions fetched: the k-th is opcode
        #: ``_WP_OPCODES[k % 6]``, and its op's seq is -k
        self.wrong_path_fetched = 0
        #: the records wrong-path groups slice, built by the first
        #: wrong-path fetch (a trace with no mispredicted branch, such
        #: as a litmus thread's, never makes one)
        self._wp_ring: Optional[List[DynInstr]] = None

    def _build_wp_ring(self) -> List[DynInstr]:
        """One record per opcode slot, shared by every wrong-path op of
        this unit and never in a trace; repeated so that a group is one
        slice."""
        slots = [DynInstr(seq=-1, pc=-1, opcode=opcode,
                          op_class=opcode.op_class, dst=None, srcs=(),
                          imm=0, addr=None, taken=False, next_pc=-1,
                          fault=False, critical=False)
                 for opcode in _WP_OPCODES]
        return slots * ((self.width + 10) // len(slots))

    def exhausted(self) -> bool:
        return self.next_seq >= self.trace_len

    def fetch(self, cycle: int) -> List[DynInstr]:
        """Fetch up to ``width`` instructions this cycle: all wrong-path
        while ``stalled_on`` is set, else trace records of which only
        the last may be mispredicted (``stalled_on`` then holds it)."""
        next_seq = self.next_seq
        end = self.trace_len
        if next_seq >= end:
            return []
        if self.stalled_on is not None:
            self.stall_cycles += 1
            if not self.model_wrong_path:
                return []
            ring = self._wp_ring
            if ring is None:
                ring = self._wp_ring = self._build_wp_ring()
            first = (self.wrong_path_fetched + 1) % len(_WP_OPCODES)
            self.wrong_path_fetched += self.width
            return ring[first:first + self.width]
        if cycle < self._resume_at:
            self.stall_cycles += 1
            return []
        budget = self.width
        group: List[DynInstr] = []
        instrs = self._instrs
        while budget > 0 and next_seq < end:
            instr = instrs[next_seq]
            group.append(instr)
            next_seq += 1
            budget -= 1
            if instr.is_branch:
                if self.predictor.predict(instr):
                    # fetching proceeds down the wrong path; no further
                    # correct-path instructions until the branch resolves
                    self.stalled_on = instr.seq
                    break
                if instr.taken:
                    break  # taken transfer ends the fetch group
        self.next_seq = next_seq
        return group

    def branch_resolved(self, seq: int, cycle: int) -> None:
        """The back end resolved branch ``seq`` at ``cycle``."""
        if self.stalled_on == seq:
            self.stalled_on = None
            self._resume_at = cycle + self.redirect_penalty

    def squash_to(self, seq: int, cycle: int) -> None:
        """Restart fetch after a non-branch squash (exception replay).

        Rewinds the trace pointer to the instruction right after ``seq``
        and charges the redirect penalty.
        """
        self.next_seq = seq + 1
        self.stalled_on = None
        self._resume_at = cycle + self.redirect_penalty
