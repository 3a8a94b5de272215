"""Instruction set definition.

A deliberately small RISC-V-flavoured ISA, rich enough to express the
workload kernels and to exercise every commit condition the paper
analyses: integer ALU ops, long-latency multiply/divide, floating-point
arithmetic (which accrues status instead of trapping, as RISC-V does),
loads/stores (the only instructions that may raise exceptions, at
address translation), branches and jumps.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Tuple

from .registers import reg_name


class OpClass(enum.Enum):
    """Execution class — selects functional unit and commit semantics."""

    INT_ALU = "int_alu"
    INT_MUL = "int_mul"
    INT_DIV = "int_div"
    FP_ADD = "fp_add"
    FP_MUL = "fp_mul"
    FP_DIV = "fp_div"
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"
    JUMP = "jump"
    SYS = "sys"

    # identity hash, computed in C.  ``Enum.__hash__`` is a
    # Python-level call (it hashes the member name), and the cycle loop
    # looks an op class up in a dict for every op.  Name hashes already
    # vary between processes unless PYTHONHASHSEED is fixed, so no
    # result may depend on the hash: nothing iterates a set of op
    # classes, and dicts iterate in insertion order
    __hash__ = object.__hash__


#: Classes that execute on the memory pipeline.
MEM_CLASSES = frozenset({OpClass.LOAD, OpClass.STORE})

#: Classes whose instructions are control transfers.
CTRL_CLASSES = frozenset({OpClass.BRANCH, OpClass.JUMP})

#: Classes that may raise an exception (paper §3.2: in RISC-V only
#: memory operations fault; FP accrues status without trapping).
FAULTING_CLASSES = frozenset({OpClass.LOAD, OpClass.STORE})


class Opcode(enum.Enum):
    # Integer ALU
    ADD = ("add", OpClass.INT_ALU)
    SUB = ("sub", OpClass.INT_ALU)
    AND = ("and", OpClass.INT_ALU)
    OR = ("or", OpClass.INT_ALU)
    XOR = ("xor", OpClass.INT_ALU)
    SLL = ("sll", OpClass.INT_ALU)
    SRL = ("srl", OpClass.INT_ALU)
    SLT = ("slt", OpClass.INT_ALU)
    ADDI = ("addi", OpClass.INT_ALU)
    ANDI = ("andi", OpClass.INT_ALU)
    ORI = ("ori", OpClass.INT_ALU)
    XORI = ("xori", OpClass.INT_ALU)
    SLTI = ("slti", OpClass.INT_ALU)
    SLLI = ("slli", OpClass.INT_ALU)
    SRLI = ("srli", OpClass.INT_ALU)
    LI = ("li", OpClass.INT_ALU)
    # Integer multiply / divide
    MUL = ("mul", OpClass.INT_MUL)
    DIV = ("div", OpClass.INT_DIV)
    REM = ("rem", OpClass.INT_DIV)
    # Floating point
    FADD = ("fadd", OpClass.FP_ADD)
    FSUB = ("fsub", OpClass.FP_ADD)
    FMUL = ("fmul", OpClass.FP_MUL)
    FDIV = ("fdiv", OpClass.FP_DIV)
    # Memory
    LD = ("ld", OpClass.LOAD)
    SD = ("sd", OpClass.STORE)
    FLD = ("fld", OpClass.LOAD)
    FSD = ("fsd", OpClass.STORE)
    # Control
    BEQ = ("beq", OpClass.BRANCH)
    BNE = ("bne", OpClass.BRANCH)
    BLT = ("blt", OpClass.BRANCH)
    BGE = ("bge", OpClass.BRANCH)
    JAL = ("jal", OpClass.JUMP)
    JALR = ("jalr", OpClass.JUMP)
    # System
    NOP = ("nop", OpClass.SYS)
    HALT = ("halt", OpClass.SYS)
    FENCE = ("fence", OpClass.SYS)

    def __init__(self, mnemonic: str, op_class: OpClass):
        self.mnemonic = mnemonic
        self.op_class = op_class


_MNEMONICS = {op.mnemonic: op for op in Opcode}


def opcode_from_mnemonic(mnemonic: str) -> Opcode:
    """Look up an :class:`Opcode` by its assembly mnemonic."""
    try:
        return _MNEMONICS[mnemonic.lower()]
    except KeyError as exc:
        raise ValueError(f"unknown mnemonic: {mnemonic!r}") from exc


@dataclass
class Instruction:
    """One static instruction.

    ``rd``/``rs1``/``rs2`` are flat register ids (see
    :mod:`repro.isa.registers`) or ``None`` when unused.  ``imm`` holds
    the immediate / displacement; ``target`` holds a branch or jump
    target expressed as a static instruction index (resolved from a
    label by the assembler / builder).  ``fault`` marks the instruction
    as raising a page fault when it translates its address — a testing
    hook used to exercise precise-exception handling.
    """

    opcode: Opcode
    rd: Optional[int] = None
    rs1: Optional[int] = None
    rs2: Optional[int] = None
    imm: int = 0
    target: Optional[int] = None
    fault: bool = False
    label: Optional[str] = None

    @property
    def op_class(self) -> OpClass:
        return self.opcode.op_class

    @property
    def is_mem(self) -> bool:
        return self.op_class in MEM_CLASSES

    @property
    def is_branch(self) -> bool:
        return self.op_class in CTRL_CLASSES

    def sources(self) -> Tuple[int, ...]:
        """Flat register ids read by this instruction."""
        srcs = []
        if self.rs1 is not None:
            srcs.append(self.rs1)
        if self.rs2 is not None:
            srcs.append(self.rs2)
        return tuple(srcs)

    def __str__(self) -> str:
        op = self.opcode
        if op in (Opcode.LD, Opcode.FLD):
            return f"{op.mnemonic} {reg_name(self.rd)}, {self.imm}({reg_name(self.rs1)})"
        if op in (Opcode.SD, Opcode.FSD):
            # store: rs2 is the value register, rs1 the base address.
            return f"{op.mnemonic} {reg_name(self.rs2)}, {self.imm}({reg_name(self.rs1)})"
        operands = []
        if self.rd is not None:
            operands.append(reg_name(self.rd))
        if self.rs1 is not None:
            operands.append(reg_name(self.rs1))
        if self.rs2 is not None:
            operands.append(reg_name(self.rs2))
        if op in (Opcode.ADDI, Opcode.ANDI, Opcode.ORI, Opcode.XORI, Opcode.SLTI,
                  Opcode.SLLI, Opcode.SRLI, Opcode.LI, Opcode.JALR):
            operands.append(str(self.imm))
        if self.target is not None:
            operands.append(f"@{self.target}")
        if operands:
            return f"{op.mnemonic} " + ", ".join(operands)
        return op.mnemonic
