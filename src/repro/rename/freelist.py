"""Physical register free list."""

from __future__ import annotations

from typing import List, Optional


class PhysRegFreeList:
    """Pool of physical register tags."""

    def __init__(self, num_regs: int):
        if num_regs <= 0:
            raise ValueError("register file size must be positive")
        self.num_regs = num_regs
        self._free: List[int] = list(range(num_regs - 1, -1, -1))
        self._live = [False] * num_regs
        #: free registers, kept by :meth:`allocate` and :meth:`free`
        self.available = num_regs

    def allocate(self) -> Optional[int]:
        if not self.available:
            return None
        reg = self._free.pop()
        self._live[reg] = True
        self.available -= 1
        return reg

    def claim_lowest(self, count: int) -> None:
        """Allocate registers ``0 .. count - 1`` of a full list at once,
        as ``count`` calls of :meth:`allocate` would."""
        if self.available != self.num_regs or count > self.num_regs:
            raise ValueError(f"cannot claim {count} registers of a list "
                             f"with {self.available} of {self.num_regs} free")
        del self._free[self.num_regs - count:]
        self._live[:count] = [True] * count
        self.available -= count

    def free(self, reg: int) -> None:
        if not self._live[reg]:
            raise ValueError(f"physical register {reg} not live")
        self._live[reg] = False
        self._free.append(reg)
        self.available += 1

    def occupancy(self) -> int:
        return self.num_regs - self.available

    def is_live(self, reg: int) -> bool:
        return self._live[reg]
