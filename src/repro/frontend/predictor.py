"""Branch prediction facade used by the fetch unit.

Combines a direction predictor, a BTB, and a return address stack.
Direct branches and jumps resolve their targets at (pre-)decode, so
target misprediction is modelled only for indirect jumps (JALR), which
predict through the RAS; conditional branches mispredict on direction.
``oracle`` (perfect) and ``btfn`` (static backward-taken/forward-not-
taken) predictors bound the design space in tests and ablations.
"""

from __future__ import annotations

from functools import partial

from ..isa import DynInstr, OpClass, Opcode
from .bimodal import BimodalPredictor
from .btb import BranchTargetBuffer
from .gshare import GsharePredictor
from .ras import ReturnAddressStack
from .tage import TagePredictor

#: linking conventions: JAL/JALR writing x1 is a call, JALR reading x1
#: with no link is a return.
_LINK_REG = 1


class BranchPredictor:
    """Per-instruction predict-and-update driver over the trace.

    ``make_direction`` builds the direction predictor.  The first
    conditional branch calls it, so a core whose trace has none, such
    as a litmus thread's, never builds TAGE's tables.  ``None`` is the
    oracle, which has no tables.
    """

    def __init__(self, make_direction, btb: BranchTargetBuffer = None,
                 ras: ReturnAddressStack = None):
        self.make_direction = make_direction
        #: the direction predictor, once a conditional branch built it
        self.direction = None
        self.btb = btb if btb is not None else BranchTargetBuffer()
        self.ras = ras if ras is not None else ReturnAddressStack()
        self.lookups = 0
        self.mispredicts = 0
        self.cond_lookups = 0
        self.cond_mispredicts = 0

    def predict(self, instr: DynInstr) -> bool:
        """Predict ``instr``; returns True when MISpredicted.

        The predictor is updated in the same call (in-order update at
        fetch — exact for a trace-driven model, see DESIGN.md).
        """
        self.lookups += 1
        if instr.op_class is OpClass.BRANCH:
            self.cond_lookups += 1
            direction = self.direction
            if direction is None and self.make_direction is not None:
                direction = self.direction = self.make_direction()
            if direction is None:                # oracle
                predicted = instr.taken
            else:
                predicted = direction.predict(instr.pc)
                direction.update(instr.pc, instr.taken)
            if instr.taken:
                self.btb.insert(instr.pc, instr.next_pc)
            mispredicted = predicted != instr.taken
            if mispredicted:
                self.mispredicts += 1
                self.cond_mispredicts += 1
            return mispredicted
        # jumps
        if instr.opcode is Opcode.JAL:
            if instr.dst == _LINK_REG:
                self.ras.push(instr.pc + 1)
            return False                          # direct target, decoded
        if instr.opcode is Opcode.JALR:
            is_return = instr.dst is None and instr.srcs == (_LINK_REG,)
            if is_return:
                predicted_target = self.ras.pop()
            else:
                predicted_target = self.btb.lookup(instr.pc)
                if instr.dst == _LINK_REG:
                    self.ras.push(instr.pc + 1)
            self.btb.insert(instr.pc, instr.next_pc)
            mispredicted = predicted_target != instr.next_pc
            if mispredicted:
                self.mispredicts += 1
            return mispredicted
        return False

    def accuracy(self) -> float:
        if not self.lookups:
            return 1.0
        return 1.0 - self.mispredicts / self.lookups


class _BTFNDirection:
    """Static backward-taken / forward-not-taken direction predictor."""

    def __init__(self):
        self._last_prediction = False

    def predict(self, pc: int) -> bool:
        # Without the target we cannot see direction; the fetch unit
        # only calls this for conditional branches whose targets are in
        # the static program — BTFN here degenerates to not-taken.
        return False

    def update(self, pc: int, taken: bool) -> None:
        pass


def make_predictor(kind: str = "tage", **kwargs) -> BranchPredictor:
    """Factory: ``tage`` (default), ``gshare``, ``bimodal``, ``btfn``,
    ``oracle``."""
    kind = kind.lower()
    if kind == "tage":
        return BranchPredictor(partial(TagePredictor, **kwargs))
    if kind == "gshare":
        return BranchPredictor(partial(GsharePredictor, **kwargs))
    if kind == "bimodal":
        return BranchPredictor(partial(BimodalPredictor, **kwargs))
    if kind == "btfn":
        return BranchPredictor(_BTFNDirection)
    if kind == "oracle":
        return BranchPredictor(None)
    raise ValueError(f"unknown predictor kind: {kind!r}")
