"""SHIFT: collapsible queue with stable handles and shift accounting."""

from __future__ import annotations

from typing import List, Optional

from .base import QueueStructure


class CollapsibleQueue(QueueStructure):
    """Compacting queue (Alpha 21264 style, Figure 1(a)).

    Removal shifts every younger instruction down one slot so positional
    order always equals age order (position 0 = oldest).  Callers hold a
    *stable handle* (returned by :meth:`allocate`); :meth:`position`
    maps it to the current physical slot.  ``shift_ops`` counts
    entry-shifts performed — the quantity behind the compacting
    circuit's O(m·n) power cost that the circuit model (§6.3) charges
    2.1 W for at 96 entries.
    """

    def __init__(self, size: int):
        super().__init__(size)
        self._slots: List[Optional[int]] = []   # handle per position
        self._next_handle = 0
        #: cumulative number of single-entry shifts performed
        self.shift_ops = 0

    def allocate(self) -> Optional[int]:
        if not self.allocatable:
            self.alloc_failures += 1
            return None
        handle = self._next_handle
        self._next_handle += 1
        self._slots.append(handle)
        self.allocatable -= 1
        return handle

    def free(self, entry: int) -> None:
        try:
            position = self._slots.index(entry)
        except ValueError as exc:
            raise ValueError(f"handle {entry} not live") from exc
        del self._slots[position]
        self.allocatable += 1
        # every younger instruction shifts down one slot
        self.shift_ops += len(self._slots) - position

    def position(self, handle: int) -> int:
        """Current physical slot of a live handle (0 = oldest)."""
        return self._slots.index(handle)

    def handles_oldest_first(self) -> List[int]:
        """Live handles in age order — what a positional selector sees."""
        return list(self._slots)

    def occupancy(self) -> int:
        return len(self._slots)

    def is_live(self, entry: int) -> bool:
        return entry in self._slots
