"""Dynamic instruction trace.

The functional emulator executes a :class:`~repro.isa.program.Program`
architecturally and emits one :class:`DynInstr` record per retired
instruction.  The timing model (``repro.pipeline``) replays this trace:
it is the substitution for gem5's execution-driven front end (see
DESIGN.md) — branch outcomes and memory addresses are known, and the
pipeline charges misprediction and miss latencies against them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from .instructions import OpClass, Opcode


@dataclass
class DynInstr:
    """One dynamic (retired) instruction.

    ``is_load``/``is_store``/``is_mem``/``is_branch`` are derived from
    ``op_class`` once, at construction: the cycle loop reads them per
    op per stage, and a slot read is a fraction of a property call.
    They are not dataclass fields, so equality, ``repr`` and the trace
    file format see only the fields below.
    """

    __slots__ = ("seq", "pc", "opcode", "op_class", "dst", "srcs", "imm",
                 "addr", "taken", "next_pc", "fault", "critical",
                 "is_load", "is_store", "is_mem", "is_branch")

    seq: int                     # program-order index in the trace
    pc: int                      # static instruction index
    opcode: Opcode
    op_class: OpClass
    dst: Optional[int]           # flat architectural register id
    srcs: Tuple[int, ...]        # flat architectural register ids
    imm: int
    addr: Optional[int]          # effective byte address for memory ops
    taken: bool                  # branch/jump outcome
    next_pc: int                 # pc of the next dynamic instruction
    fault: bool                  # raises a page fault at translation
    critical: bool               # set by the criticality tagger

    def __post_init__(self) -> None:
        op_class = self.op_class
        self.is_load = op_class is OpClass.LOAD
        self.is_store = op_class is OpClass.STORE
        self.is_mem = self.is_load or self.is_store
        self.is_branch = (op_class is OpClass.BRANCH
                          or op_class is OpClass.JUMP)

    @property
    def is_cond_branch(self) -> bool:
        return self.op_class is OpClass.BRANCH

    def __repr__(self) -> str:
        extra = ""
        if self.is_mem:
            extra = f" addr={self.addr:#x}"
        elif self.is_branch:
            extra = f" taken={self.taken} next={self.next_pc}"
        return f"<DynInstr #{self.seq} pc={self.pc} {self.opcode.mnemonic}{extra}>"


class Trace:
    """A sequence of dynamic instructions plus summary statistics."""

    def __init__(self, instrs: Sequence[DynInstr], name: str = "trace"):
        self.instrs: List[DynInstr] = list(instrs)
        self.name = name

    def __len__(self) -> int:
        return len(self.instrs)

    def __iter__(self) -> Iterator[DynInstr]:
        return iter(self.instrs)

    def __getitem__(self, seq: int) -> DynInstr:
        return self.instrs[seq]

    def class_mix(self) -> dict:
        """Fraction of dynamic instructions per op class."""
        counts: dict = {}
        for instr in self.instrs:
            counts[instr.op_class] = counts.get(instr.op_class, 0) + 1
        total = max(1, len(self.instrs))
        return {cls: count / total for cls, count in counts.items()}

    def summary(self) -> str:
        mix = self.class_mix()
        parts = [f"{cls.value}={frac:.1%}" for cls, frac in
                 sorted(mix.items(), key=lambda kv: -kv[1])]
        return f"{self.name}: {len(self)} instrs ({', '.join(parts)})"
