"""Bimodal branch predictor: a table of 2-bit saturating counters."""

from __future__ import annotations


class BimodalPredictor:
    """PC-indexed table of 2-bit counters.

    The counters are plain ints in one flat list (0..3, taken when
    >= 2), not one object per entry: a core builds a 4,096-entry table
    per cell, so the table must cost one allocation, not thousands.
    """

    def __init__(self, entries: int = 4096):
        if entries & (entries - 1):
            raise ValueError("entries must be a power of two")
        self.entries = entries
        self.table = [2] * entries

    def _index(self, pc: int) -> int:
        return pc & (self.entries - 1)

    def predict(self, pc: int) -> bool:
        return self.table[self._index(pc)] >= 2

    def update(self, pc: int, taken: bool) -> None:
        table = self.table
        index = self._index(pc)
        if taken:
            if table[index] < 3:
                table[index] += 1
        elif table[index] > 0:
            table[index] -= 1
