"""CIRC: head/tail circular queue with deferred gap reclamation."""

from __future__ import annotations

from typing import Optional

from .base import QueueStructure


class CircularQueue(QueueStructure):
    """Circular buffer: allocate at tail, reclaim only from the head.

    Freeing a middle entry marks it dead, but its slot is not reusable
    until the head pointer sweeps past it — the capacity inefficiency of
    Figure 1(b).  With strictly in-order removal (an in-order-commit
    ROB) it behaves as a perfect FIFO.
    """

    def __init__(self, size: int):
        super().__init__(size)
        self.head = 0
        self.tail = 0          # next slot to allocate
        self.count = 0         # slots between head and tail (incl. gaps)
        self._dead = [False] * size
        self._live = [False] * size
        #: cumulative entry-cycles lost to gaps (capacity inefficiency)
        self.gap_slots = 0

    def allocate(self) -> Optional[int]:
        if not self.allocatable:
            self.alloc_failures += 1
            return None
        entry = self.tail
        self.tail = (self.tail + 1) % self.size
        self.count += 1
        self.allocatable -= 1
        self._live[entry] = True
        self._dead[entry] = False
        return entry

    def free(self, entry: int) -> None:
        if not self._live[entry]:
            raise ValueError(f"entry {entry} not live")
        self._live[entry] = False
        self._dead[entry] = True
        self._reclaim()

    def _reclaim(self) -> None:
        while self.count and self._dead[self.head]:
            self._dead[self.head] = False
            self.head = (self.head + 1) % self.size
            self.count -= 1
            self.allocatable += 1

    def occupancy(self) -> int:
        return sum(self._live)

    def gaps(self) -> int:
        """Dead-but-unreclaimed slots between head and tail."""
        return self.count - self.occupancy()

    def tick(self) -> None:
        """Accumulate gap statistics once per cycle (optional)."""
        self.gap_slots += self.gaps()

    def is_live(self, entry: int) -> bool:
        return self._live[entry]
