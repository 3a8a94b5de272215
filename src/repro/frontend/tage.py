"""TAGE: TAgged GEometric-history-length branch predictor.

A faithful (if compact) TAGE in the spirit of the paper's
TAGE-SC-L-8KB configuration: a bimodal base predictor plus ``num_tables``
tagged components indexed with geometrically growing global history
lengths.  Implements provider/alternate prediction, useful counters,
allocation on misprediction, and periodic useful-bit aging.

The SC (statistical corrector) and L (loop) sidecars refine accuracy by
a few percent and are omitted; DESIGN.md records the substitution.
"""

from __future__ import annotations

from typing import List, Optional

from .bimodal import BimodalPredictor


class TagePredictor:
    """TAGE with a bimodal base and tagged geometric components.

    Each tagged component is three flat int lists indexed by entry —
    ``tags[t]``, ``counters[t]`` (3-bit, midpoint 4, taken when >= 4)
    and ``useful[t]`` (2-bit) — rather than one object per entry, so
    building the predictor allocates a handful of lists, not thousands
    of entries.
    """

    def __init__(self, num_tables: int = 6, table_entries: int = 512,
                 min_history: int = 4, max_history: int = 128,
                 tag_bits: int = 9, base_entries: int = 4096,
                 useful_reset_period: int = 256 * 1024):
        if table_entries & (table_entries - 1):
            raise ValueError("table_entries must be a power of two")
        self.base = BimodalPredictor(base_entries)
        self.num_tables = num_tables
        self.table_entries = table_entries
        self.tag_bits = tag_bits
        self.tag_mask = (1 << tag_bits) - 1
        self.useful_reset_period = useful_reset_period
        # geometric history lengths
        self.history_lengths: List[int] = []
        ratio = (max_history / min_history) ** (1 / max(1, num_tables - 1))
        length = float(min_history)
        for _ in range(num_tables):
            self.history_lengths.append(int(round(length)))
            length *= ratio
        self.tags: List[List[int]] = [
            [0] * table_entries for _ in range(num_tables)]
        self.counters: List[List[int]] = [
            [4] * table_entries for _ in range(num_tables)]
        self.useful: List[List[int]] = [
            [0] * table_entries for _ in range(num_tables)]
        self.history = 0
        self.history_bits = max_history
        self._updates = 0
        # state captured by predict() and consumed by update()
        self._provider: Optional[int] = None
        self._provider_index = 0
        self._alt_pred = False
        self._provider_pred = False

    # -- hashing -------------------------------------------------------

    def _folded_history(self, length: int, bits: int) -> int:
        history = self.history & ((1 << length) - 1)
        folded = 0
        while history:
            folded ^= history & ((1 << bits) - 1)
            history >>= bits
        return folded

    def _index(self, table: int, pc: int) -> int:
        length = self.history_lengths[table]
        bits = self.table_entries.bit_length() - 1
        return (pc ^ (pc >> bits) ^ self._folded_history(length, bits)) \
            & (self.table_entries - 1)

    def _tag(self, table: int, pc: int) -> int:
        length = self.history_lengths[table]
        return (pc ^ self._folded_history(length, self.tag_bits)
                ^ (self._folded_history(length, self.tag_bits - 1) << 1)) \
            & self.tag_mask

    # -- prediction ------------------------------------------------------

    def predict(self, pc: int) -> bool:
        self._provider = None
        self._alt_pred = self.base.predict(pc)
        prediction = self._alt_pred
        # longest matching component provides, next longest is the alt
        found_alt = False
        for table in range(self.num_tables - 1, -1, -1):
            index = self._index(table, pc)
            if self.tags[table][index] == self._tag(table, pc):
                counter = self.counters[table][index]
                if self._provider is None:
                    self._provider = table
                    self._provider_index = index
                    self._provider_pred = counter >= 4
                    prediction = self._provider_pred
                else:
                    self._alt_pred = counter >= 4
                    found_alt = True
                    break
        if self._provider is not None and not found_alt:
            self._alt_pred = self.base.predict(pc)
        return prediction

    # -- update -------------------------------------------------------------

    def update(self, pc: int, taken: bool) -> None:
        """Update with the outcome of the most recent predict(pc)."""
        mispredicted = False
        if self._provider is not None:
            index = self._provider_index
            useful = self.useful[self._provider]
            counters = self.counters[self._provider]
            mispredicted = self._provider_pred != taken
            if self._provider_pred != self._alt_pred:
                useful[index] = min(3, useful[index] + 1) \
                    if self._provider_pred == taken \
                    else max(0, useful[index] - 1)
            if taken:
                counters[index] = min(7, counters[index] + 1)
            else:
                counters[index] = max(0, counters[index] - 1)
        else:
            mispredicted = self.base.predict(pc) != taken
        self.base.update(pc, taken)

        if mispredicted:
            self._allocate(pc, taken)

        self.history = ((self.history << 1) | int(taken)) \
            & ((1 << self.history_bits) - 1)
        self._updates += 1
        if self._updates % self.useful_reset_period == 0:
            self._age_useful()

    def _allocate(self, pc: int, taken: bool) -> None:
        start = (self._provider + 1) if self._provider is not None else 0
        for table in range(start, self.num_tables):
            index = self._index(table, pc)
            if self.useful[table][index] == 0:
                self.tags[table][index] = self._tag(table, pc)
                self.counters[table][index] = 4 if taken else 3
                return
        # no victim: decay useful bits along the allocation path
        for table in range(start, self.num_tables):
            useful = self.useful[table]
            index = self._index(table, pc)
            useful[index] = max(0, useful[index] - 1)

    def _age_useful(self) -> None:
        for table, useful in enumerate(self.useful):
            self.useful[table] = [value >> 1 for value in useful]
