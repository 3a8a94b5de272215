"""Gshare: global history XORed into the PC index."""

from __future__ import annotations

from .bimodal import BimodalPredictor


class GsharePredictor(BimodalPredictor):
    """Global-history predictor: the bimodal 2-bit counter table,
    indexed by the PC XOR the last ``history_bits`` outcomes."""

    def __init__(self, entries: int = 4096, history_bits: int = 12):
        super().__init__(entries)
        self.history_bits = history_bits
        self.history = 0

    def _index(self, pc: int) -> int:
        return (pc ^ self.history) & (self.entries - 1)

    def update(self, pc: int, taken: bool) -> None:
        super().update(pc, taken)
        self.history = ((self.history << 1) | int(taken)) \
            & ((1 << self.history_bits) - 1)
