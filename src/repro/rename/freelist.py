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
