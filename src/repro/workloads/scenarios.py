"""Generated scenario families: targets composed from other targets.

The synthetic kernels each exercise one behaviour (pointer chasing,
branchy control, FP streams); real machines run *mixtures*.  These
targets compose already-registered workloads into richer, still fully
seed-deterministic scenarios:

* :class:`InterleaveTarget` — SMT-style multi-program interleaving:
  the component streams are merged round-robin in LCG-drawn blocks,
  with per-program pc and address offsets so predictor state and
  memory disambiguation see disjoint contexts.
* :class:`DrainTarget` — syscall/interrupt-like pipeline drains: the
  component stream with ``fault=True`` flipped on periodically chosen
  memory ops, each of which the core handles as a precise exception
  (squash at ROB head, refetch past it) — the closest trace-driven
  analogue of a trap.
* :class:`PhaseTarget` — phase-switching workloads: alternating
  contiguous slices of the components, modelling programs whose
  behaviour class changes mid-run (the case that defeats
  steady-state-tuned predictors and schedulers).

Composition invariants (the timing model *requires* the first one):

1. ``DynInstr.seq`` equals the record's index in the composed trace —
   ``FetchUnit.squash_to`` and ``Trace.__getitem__`` are index-based.
2. Component pcs/next_pcs are rebased by disjoint strides so BTB and
   branch-history state never aliases across programs.
3. Component memory addresses are rebased by disjoint strides so the
   LSQ never sees cross-program dependences that the source programs
   didn't have.
4. Records are fresh ``DynInstr`` objects — component traces live in
   the shared LRU and must never be mutated through a scenario.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..isa import DynInstr, Trace
from .targets import WorkloadTarget, get_target, register_target

__all__ = ["DrainTarget", "InterleaveTarget", "PhaseTarget",
           "register_default_scenarios"]

#: pc rebase stride between interleaved programs (static pcs are small
#: instruction indices, so 2^20 keeps every program's window disjoint)
PC_STRIDE = 1 << 20
#: address rebase stride (far above every kernel's heap footprint)
ADDR_STRIDE = 1 << 32


def _lcg(seed: int) -> Iterator[int]:
    """Deterministic 31-bit stream (numerical-recipes constants)."""
    state = seed & 0x7FFFFFFF or 1
    while True:
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        yield state


def _rebased(instr: DynInstr, seq: int, program: int) -> DynInstr:
    """A fresh record at position ``seq``, shifted into program's space."""
    pc_base = program * PC_STRIDE
    addr_base = program * ADDR_STRIDE
    return DynInstr(
        seq=seq, pc=instr.pc + pc_base, opcode=instr.opcode,
        op_class=instr.op_class, dst=instr.dst, srcs=instr.srcs,
        imm=instr.imm,
        addr=None if instr.addr is None else instr.addr + addr_base,
        taken=instr.taken, next_pc=instr.next_pc + pc_base,
        fault=instr.fault, critical=False)


def _component_traces(components: Sequence[str],
                      scale: float) -> List[Trace]:
    # late import: suite owns the LRU and imports this module at load
    from .suite import fetch_trace
    return [fetch_trace(name, scale)[0] for name in components]


class ScenarioTarget(WorkloadTarget):
    """Base for composed targets; components resolve via the registry."""

    kind = "scenario"

    def __init__(self, name: str, components: Sequence[str], seed: int):
        super().__init__(name)
        self.components = tuple(components)
        self.seed = seed

    def family(self) -> str:
        raise NotImplementedError

    def _knobs(self) -> Dict[str, object]:
        """Family-specific fingerprint fields beyond seed/components."""
        return {}

    def fingerprint(self, scale: float = 1.0) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "kind": self.kind, "family": self.family(), "seed": self.seed,
            "components": [get_target(name).fingerprint(scale)
                           for name in self.components]}
        payload.update(self._knobs())
        return payload

    def provenance(self) -> str:
        return (f"scenario: {self.family()} of "
                f"{', '.join(self.components)} (seed {self.seed})")


class InterleaveTarget(ScenarioTarget):
    """SMT-style round-robin merge of component streams."""

    def __init__(self, name: str, components: Sequence[str],
                 block: Tuple[int, int] = (8, 32), seed: int = 11):
        super().__init__(name, components, seed)
        self.block = (max(1, block[0]), max(block))

    def family(self) -> str:
        return "interleave"

    def _knobs(self) -> Dict[str, object]:
        return {"block": list(self.block)}

    def build_trace(self, scale: float = 1.0) -> Trace:
        streams = _component_traces(self.components, scale)
        cursors = [0] * len(streams)
        rng = _lcg(self.seed)
        lo, hi = self.block
        merged: List[DynInstr] = []
        queue = deque(range(len(streams)))
        while queue:
            program = queue.popleft()
            take = lo + next(rng) % (hi - lo + 1)
            stream, cursor = streams[program], cursors[program]
            for instr in stream.instrs[cursor:cursor + take]:
                merged.append(_rebased(instr, len(merged), program))
            cursors[program] = cursor + take
            if cursors[program] < len(stream):
                queue.append(program)
        return Trace(merged, name=self.name)


class DrainTarget(ScenarioTarget):
    """Periodic fault injection: syscall/interrupt-like pipeline drains.

    Every roughly ``interval`` dynamic instructions (LCG-jittered so
    drains don't phase-lock with loop bodies), the next memory op has
    ``fault=True`` set: translation raises a page fault, the core
    drains to the ROB head, takes a precise-exception flush, and
    refetches past the op.
    """

    def __init__(self, name: str, component: str, interval: int = 300,
                 seed: int = 7):
        super().__init__(name, (component,), seed)
        self.interval = max(2, interval)

    def family(self) -> str:
        return "drain"

    def _knobs(self) -> Dict[str, object]:
        return {"interval": self.interval}

    def build_trace(self, scale: float = 1.0) -> Trace:
        source = _component_traces(self.components, scale)[0]
        rng = _lcg(self.seed)
        jitter = max(1, self.interval // 4)
        next_drain = self.interval + next(rng) % jitter
        armed = False
        records: List[DynInstr] = []
        for index, instr in enumerate(source):
            if index >= next_drain:
                armed = True
                next_drain = index + self.interval + next(rng) % jitter
            fault = instr.fault
            if armed and instr.is_mem and not fault:
                fault = True
                armed = False
            records.append(DynInstr(
                seq=index, pc=instr.pc, opcode=instr.opcode,
                op_class=instr.op_class, dst=instr.dst, srcs=instr.srcs,
                imm=instr.imm, addr=instr.addr, taken=instr.taken,
                next_pc=instr.next_pc, fault=fault, critical=False))
        return Trace(records, name=self.name)


class PhaseTarget(ScenarioTarget):
    """Alternating contiguous slices of the components (phase changes)."""

    def __init__(self, name: str, components: Sequence[str],
                 phase: int = 150, seed: int = 23):
        super().__init__(name, components, seed)
        self.phase = max(8, phase)

    def family(self) -> str:
        return "phase"

    def _knobs(self) -> Dict[str, object]:
        return {"phase": self.phase}

    def build_trace(self, scale: float = 1.0) -> Trace:
        streams = _component_traces(self.components, scale)
        cursors = [0] * len(streams)
        rng = _lcg(self.seed)
        jitter = max(1, self.phase // 3)
        merged: List[DynInstr] = []
        queue = deque(range(len(streams)))
        while queue:
            program = queue.popleft()
            length = self.phase + next(rng) % jitter
            stream, cursor = streams[program], cursors[program]
            for instr in stream.instrs[cursor:cursor + length]:
                merged.append(_rebased(instr, len(merged), program))
            cursors[program] = cursor + length
            if cursors[program] < len(stream):
                queue.append(program)
        return Trace(merged, name=self.name)


def register_default_scenarios() -> None:
    """Register the stock scenario families (idempotent via replace)."""
    for target in (
        InterleaveTarget("smt.gccdiv", ("gcc.mix", "x264.divint")),
        InterleaveTarget("smt.memfp", ("mcf.chase", "nab.reduce"),
                         block=(16, 48), seed=29),
        DrainTarget("sys.drain", "gcc.mix", interval=250),
        PhaseTarget("phase.flip", ("lbm.stream", "perl.branchy")),
    ):
        register_target(target, replace=True)
