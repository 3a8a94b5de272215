"""Architectural (functional) emulator.

Executes a program in program order with exact semantics, producing the
dynamic trace the timing model replays.  Also usable standalone to check
kernel correctness (register/memory state after the run).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .instructions import Instruction, OpClass, Opcode
from .program import Program
from .registers import NUM_ARCH_REGS, ZERO_REG
from .trace import DynInstr, Trace

_WORD_MASK = (1 << 64) - 1


def _to_signed(value: int) -> int:
    value &= _WORD_MASK
    return value - (1 << 64) if value >= (1 << 63) else value


class EmulatorError(Exception):
    """Raised on architecturally invalid execution (bad PC, div by zero...)."""


class Emulator:
    """Functional interpreter for :class:`Program`."""

    def __init__(self, program: Program, max_instrs: int = 1_000_000):
        program.validate()
        self.program = program
        self.max_instrs = max_instrs
        self.regs: List[float] = [0] * NUM_ARCH_REGS
        self.memory: Dict[int, float] = dict(program.data)
        self.pc = 0
        self.instr_count = 0
        self.halted = False
        # one source tuple per static instruction, shared by every
        # dynamic instance (a trace holds one record per retired op)
        self._sources = [instr.sources() for instr in program.code]

    # -- helpers -------------------------------------------------------

    def _read(self, reg: Optional[int]):
        if reg is None:
            return 0
        return 0 if reg == ZERO_REG else self.regs[reg]

    def _write(self, reg: Optional[int], value) -> None:
        if reg is None or reg == ZERO_REG:
            return
        self.regs[reg] = value

    def _mem_addr(self, instr: Instruction) -> int:
        base = self._read(instr.rs1)
        addr = (int(base) + instr.imm) & ~0x7
        if addr < 0:
            raise EmulatorError(
                f"pc {self.pc}: negative memory address {addr:#x}")
        return addr

    # -- execution ------------------------------------------------------

    def step(self) -> Optional[DynInstr]:
        """Execute one instruction; return its trace record (None if halted)."""
        if self.halted:
            return None
        if not 0 <= self.pc < len(self.program):
            raise EmulatorError(f"pc out of range: {self.pc}")
        if self.instr_count >= self.max_instrs:
            raise EmulatorError(
                f"instruction budget exhausted ({self.max_instrs}); "
                "likely an infinite loop")

        pc = self.pc
        instr = self.program[pc]
        op = instr.opcode
        cls = op.op_class
        addr: Optional[int] = None
        taken = False
        next_pc = pc + 1

        if cls is OpClass.INT_ALU:
            a = int(self._read(instr.rs1))
            b = int(self._read(instr.rs2))
            if op is Opcode.ADD:
                value = a + b
            elif op is Opcode.SUB:
                value = a - b
            elif op is Opcode.AND:
                value = a & b
            elif op is Opcode.OR:
                value = a | b
            elif op is Opcode.XOR:
                value = a ^ b
            elif op is Opcode.SLL:
                value = a << (b & 63)
            elif op is Opcode.SRL:
                value = (a & _WORD_MASK) >> (b & 63)
            elif op is Opcode.SLT:
                value = 1 if a < b else 0
            elif op is Opcode.ADDI:
                value = a + instr.imm
            elif op is Opcode.ANDI:
                value = a & instr.imm
            elif op is Opcode.ORI:
                value = a | instr.imm
            elif op is Opcode.XORI:
                value = a ^ instr.imm
            elif op is Opcode.SLTI:
                value = 1 if a < instr.imm else 0
            elif op is Opcode.SLLI:
                value = a << (instr.imm & 63)
            elif op is Opcode.SRLI:
                value = (a & _WORD_MASK) >> (instr.imm & 63)
            elif op is Opcode.LI:
                value = instr.imm
            else:  # pragma: no cover - enum is closed
                raise EmulatorError(f"unhandled ALU opcode {op}")
            self._write(instr.rd, _to_signed(value))
        elif cls is OpClass.INT_MUL:
            value = int(self._read(instr.rs1)) * int(self._read(instr.rs2))
            self._write(instr.rd, _to_signed(value))
        elif cls is OpClass.INT_DIV:
            a = int(self._read(instr.rs1))
            b = int(self._read(instr.rs2))
            if b == 0:
                # RISC-V defines division by zero (no trap): quotient -1,
                # remainder = dividend.
                value = -1 if op is Opcode.DIV else a
            else:
                quotient = abs(a) // abs(b)
                if (a < 0) != (b < 0):
                    quotient = -quotient
                value = quotient if op is Opcode.DIV else a - b * quotient
            self._write(instr.rd, _to_signed(value))
        elif cls in (OpClass.FP_ADD, OpClass.FP_MUL, OpClass.FP_DIV):
            a = float(self._read(instr.rs1))
            b = float(self._read(instr.rs2))
            if op is Opcode.FADD:
                value = a + b
            elif op is Opcode.FSUB:
                value = a - b
            elif op is Opcode.FMUL:
                value = a * b
            else:  # FDIV — accrues status on /0, does not trap (IEEE + RISC-V)
                value = a / b if b != 0.0 else float("inf")
            self._write(instr.rd, value)
        elif cls is OpClass.LOAD:
            addr = self._mem_addr(instr)
            self._write(instr.rd, self.memory.get(addr, 0))
        elif cls is OpClass.STORE:
            addr = self._mem_addr(instr)
            self.memory[addr] = self._read(instr.rs2)
        elif cls is OpClass.BRANCH:
            a = int(self._read(instr.rs1))
            b = int(self._read(instr.rs2))
            if op is Opcode.BEQ:
                taken = a == b
            elif op is Opcode.BNE:
                taken = a != b
            elif op is Opcode.BLT:
                taken = a < b
            else:  # BGE
                taken = a >= b
            if taken:
                next_pc = instr.target
        elif cls is OpClass.JUMP:
            taken = True
            self._write(instr.rd, pc + 1)
            if op is Opcode.JAL:
                next_pc = instr.target
            else:  # JALR
                next_pc = int(self._read(instr.rs1)) + instr.imm
                if not 0 <= next_pc <= len(self.program):
                    raise EmulatorError(
                        f"pc {pc}: jalr to invalid target {next_pc}")
        elif op is Opcode.HALT:
            self.halted = True
        elif op in (Opcode.NOP, Opcode.FENCE):
            pass
        else:  # pragma: no cover - enum is closed
            raise EmulatorError(f"unhandled opcode {op}")

        record = DynInstr(
            seq=self.instr_count, pc=pc, opcode=op, op_class=cls,
            dst=instr.rd if instr.rd not in (None, ZERO_REG) else None,
            srcs=self._sources[pc], imm=instr.imm, addr=addr, taken=taken,
            next_pc=next_pc, fault=instr.fault, critical=False)
        self.pc = next_pc
        self.instr_count += 1
        if self.pc >= len(self.program) and not self.halted:
            self.halted = True
        return record

    def run(self) -> Trace:
        """Execute to completion and return the dynamic trace."""
        instrs: List[DynInstr] = []
        while not self.halted:
            record = self.step()
            if record is None:
                break
            instrs.append(record)
        return Trace(instrs, name=self.program.name)


def trace_program(program: Program, max_instrs: int = 1_000_000) -> Trace:
    """Convenience wrapper: emulate ``program`` and return its trace."""
    return Emulator(program, max_instrs=max_instrs).run()
