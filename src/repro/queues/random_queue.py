"""RAND: free-list allocation into arbitrary gaps (non-collapsible)."""

from __future__ import annotations

from typing import List, Optional

from .base import QueueStructure


class RandomQueue(QueueStructure):
    """Free-list queue: any gap is allocatable, any entry freeable.

    Deployed with an age matrix this is the state-of-the-art scheduler
    organization (AMD Bulldozer, IBM POWER8) and the organization of all
    of Orinoco's non-collapsible queues.  Allocation picks the
    lowest-numbered free entry; since positions carry no ordering
    semantics, the choice is immaterial (a hardware implementation would
    use a priority encoder over the free vector).
    """

    def __init__(self, size: int):
        super().__init__(size)
        self._free: List[int] = list(range(size - 1, -1, -1))
        self._live = [False] * size

    def allocate(self) -> Optional[int]:
        if not self.allocatable:
            self.alloc_failures += 1
            return None
        entry = self._free.pop()
        self._live[entry] = True
        self.allocatable -= 1
        return entry

    def free(self, entry: int) -> None:
        if not self._live[entry]:
            raise ValueError(f"entry {entry} not live")
        self._live[entry] = False
        self._free.append(entry)
        self.allocatable += 1

    def occupancy(self) -> int:
        return self.size - len(self._free)

    def is_live(self, entry: int) -> bool:
        return self._live[entry]
