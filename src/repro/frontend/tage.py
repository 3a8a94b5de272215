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
        self._history_mask = (1 << max_history) - 1
        # folded history registers, one per (table, fold width), kept
        # by _push_history as TAGE hardware keeps them.  Index and tag
        # widths that coincide (512 entries, 9 tag bits) share one
        # register list
        self._index_bits = table_entries.bit_length() - 1
        folds = {width: [0] * num_tables
                 for width in (self._index_bits, tag_bits, tag_bits - 1)}
        self._index_folds = folds[self._index_bits]
        self._tag_folds = folds[tag_bits]
        self._tag1_folds = folds[tag_bits - 1]
        self._fold_registers = tuple(
            (width, (1 << width) - 1, registers,
             tuple((length - 1, length % width)
                   for length in self.history_lengths))
            for width, registers in folds.items())
        # the last _lookup: per-table index and tag, and its pc (None
        # once the history moved on)
        self._indices = [0] * num_tables
        self._tags = [0] * num_tables
        self._lookup_pc: Optional[int] = None
        self._updates = 0
        # state captured by predict() and consumed by update()
        self._provider: Optional[int] = None
        self._provider_index = 0
        self._alt_pred = False
        self._provider_pred = False

    # -- hashing -------------------------------------------------------

    def _lookup(self, pc: int) -> None:
        """Every table's ``(index, tag)`` for ``pc`` and the current
        history, into ``_indices`` and ``_tags``: one pass per branch,
        which a misprediction's allocation reuses.

        A table's index is ``pc ^ (pc >> index_bits)`` XOR the table's
        history folded to ``index_bits`` bits; its tag is ``pc`` XOR
        the history folded to ``tag_bits`` bits XOR the fold to
        ``tag_bits - 1`` bits shifted left once.
        """
        pc_hash = pc ^ (pc >> self._index_bits)
        index_mask = self.table_entries - 1
        tag_mask = self.tag_mask
        index_folds = self._index_folds
        tag_folds = self._tag_folds
        tag1_folds = self._tag1_folds
        indices = self._indices
        tags = self._tags
        for table in range(self.num_tables):
            indices[table] = (pc_hash ^ index_folds[table]) & index_mask
            tags[table] = (pc ^ tag_folds[table]
                           ^ (tag1_folds[table] << 1)) & tag_mask
        self._lookup_pc = pc

    def _push_history(self, taken: bool) -> None:
        """Shift the outcome into the global history and every folded
        register.  Folding XORs a history's ``width``-bit chunks
        together, so bit ``i`` of a table's history lands on bit
        ``i % width`` of its fold: a shift rotates the fold left by
        one, the new outcome enters at bit 0, and the bit leaving the
        table's history (bit ``length - 1`` before the shift) leaves
        from bit ``length % width``."""
        bit = 1 if taken else 0
        history = self.history
        for width, mask, folds, taps in self._fold_registers:
            top = width - 1
            for table, (out_bit, out_at) in enumerate(taps):
                fold = folds[table]
                folds[table] = ((((fold << 1) | (fold >> top)) & mask) ^ bit
                                ^ (((history >> out_bit) & 1) << out_at))
        self.history = ((history << 1) | bit) & self._history_mask
        self._lookup_pc = None

    # -- prediction ------------------------------------------------------

    def predict(self, pc: int) -> bool:
        self._provider = None
        self._alt_pred = self.base.predict(pc)
        prediction = self._alt_pred
        self._lookup(pc)
        indices = self._indices
        tags = self._tags
        # longest matching component provides, next longest is the alt
        found_alt = False
        for table in range(self.num_tables - 1, -1, -1):
            index = indices[table]
            if self.tags[table][index] == tags[table]:
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

        self._push_history(taken)
        self._updates += 1
        if self._updates % self.useful_reset_period == 0:
            self._age_useful()

    def _allocate(self, pc: int, taken: bool) -> None:
        if self._lookup_pc != pc:
            self._lookup(pc)             # update() without its predict()
        indices = self._indices
        start = (self._provider + 1) if self._provider is not None else 0
        for table in range(start, self.num_tables):
            index = indices[table]
            if self.useful[table][index] == 0:
                self.tags[table][index] = self._tags[table]
                self.counters[table][index] = 4 if taken else 3
                return
        # no victim: decay useful bits along the allocation path
        for table in range(start, self.num_tables):
            useful = self.useful[table]
            index = indices[table]
            useful[index] = max(0, useful[index] - 1)

    def _age_useful(self) -> None:
        for table, useful in enumerate(self.useful):
            self.useful[table] = [value >> 1 for value in useful]
