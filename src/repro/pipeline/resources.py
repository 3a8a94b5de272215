"""Functional unit pools.

All units are fully pipelined (accept one new operation per cycle)
except dividers, which are occupied for the whole operation.

Hot-path notes: :class:`FUType` is an ``IntEnum`` (values in the
historical sort order of the old string values) so the pool and the
issue policies can keep per-type state in flat lists indexed by the
member itself — no enum hashing on the per-cycle availability and
acquire paths.
"""

from __future__ import annotations

import enum
from typing import Dict, List

from ..isa import OpClass


class FUType(enum.IntEnum):
    # values preserve the alphabetical order of the historical string
    # values ("alu" < "fpu" < "load" < "muldiv" < "store"): MultSelect
    # sorts its per-type arbitration by .value, and the arbitration
    # order is behaviour (it decides rng consumption order)
    ALU = 0
    FPU = 1
    LOAD = 2
    MULDIV = 3
    STORE = 4


_CLASS_TO_FU = {
    OpClass.INT_ALU: FUType.ALU,
    OpClass.BRANCH: FUType.ALU,
    OpClass.JUMP: FUType.ALU,
    OpClass.SYS: FUType.ALU,
    OpClass.INT_MUL: FUType.MULDIV,
    OpClass.INT_DIV: FUType.MULDIV,
    OpClass.FP_ADD: FUType.FPU,
    OpClass.FP_MUL: FUType.FPU,
    OpClass.FP_DIV: FUType.FPU,
    OpClass.LOAD: FUType.LOAD,
    OpClass.STORE: FUType.STORE,
}

#: Op classes whose unit stays busy for the whole operation.
_UNPIPELINED = {OpClass.INT_DIV, OpClass.FP_DIV}

#: op class -> ``(unit type, unpipelined)``: an op's whole issue-side
#: decode in one lookup (``InflightOp`` reads it once per op)
FU_DECODE = {cls: (fu, cls in _UNPIPELINED)
             for cls, fu in _CLASS_TO_FU.items()}

#: every unit type in value order (iterating the enum class itself
#: runs a Python-level generator)
_FU_TYPES = tuple(FUType)


def fu_type_for(op_class: OpClass) -> FUType:
    return _CLASS_TO_FU[op_class]


class FUPool:
    """Per-type unit availability within a cycle and across cycles."""

    def __init__(self, counts: Dict[FUType, int]):
        self.counts = dict(counts)
        self._counts: List[int] = [0] * len(_FU_TYPES)
        for fu, n in counts.items():
            self._counts[fu] = n
        # busy-until cycles for unpipelined units, per type
        self._busy_until: List[List[int]] = [[] for _ in _FU_TYPES]
        self._issued_this_cycle: List[int] = [0] * len(_FU_TYPES)
        self._cycle = -1
        # all-free fast path: most availability_vector() calls happen
        # before anything issued this cycle and with no divide in
        # flight, where the answer is just the configured counts.
        # Callers never mutate the returned vector (the policies copy
        # before decrementing), so one shared list serves them all.
        self._full: List[int] = list(self._counts)
        self._issued_total = 0
        self._n_busy = 0

    def begin_cycle(self, cycle: int) -> None:
        self._cycle = cycle
        issued = self._issued_this_cycle
        for fu in range(len(issued)):
            issued[fu] = 0
        self._issued_total = 0
        if self._n_busy:
            n = 0
            for busy in self._busy_until:
                # almost always empty (only in-flight divides park here)
                if busy:
                    busy[:] = [until for until in busy if until > cycle]
                    n += len(busy)
            self._n_busy = n

    def available(self, fu: FUType) -> int:
        """Units of this type that can accept an operation this cycle."""
        blocked = len(self._busy_until[fu]) + self._issued_this_cycle[fu]
        return max(0, self._counts[fu] - blocked)

    def acquire_fu(self, fu: FUType, latency: int,
                   unpipelined: bool) -> bool:
        """Claim a pre-resolved unit type; False when none free.

        A pipelined op holds its unit for this cycle only; an
        unpipelined one holds it, from this cycle on, through its busy
        entry alone, so it is counted once.
        """
        if len(self._busy_until[fu]) + self._issued_this_cycle[fu] \
                >= self._counts[fu]:
            return False
        self._issued_total += 1
        if unpipelined:
            self._busy_until[fu].append(self._cycle + latency)
            self._n_busy += 1
        else:
            self._issued_this_cycle[fu] += 1
        return True

    def acquire(self, op_class: OpClass, latency: int) -> bool:
        """Claim a unit for an op of ``op_class``; False when none free."""
        fu, unpipelined = FU_DECODE[op_class]
        return self.acquire_fu(fu, latency, unpipelined)

    def availability_vector(self) -> List[int]:
        """Per-type free-unit counts, indexed by :class:`FUType`.

        Callers must not mutate the result: the all-free fast path
        returns a shared vector (the select policies copy before
        decrementing, per their contract).
        """
        if not self._issued_total and not self._n_busy:
            return self._full
        # available() inline (a comprehension is a call before 3.12)
        vector = list(self._counts)
        issued = self._issued_this_cycle
        for fu, busy in enumerate(self._busy_until):
            vector[fu] = max(0, vector[fu] - len(busy) - issued[fu])
        return vector
