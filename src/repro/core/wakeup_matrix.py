"""Wakeup matrix (paper §3.4, Figure 8).

Replaces the CAM-based wakeup of a conventional IQ: register renaming
already identifies each instruction's producers, so dependencies are
recorded positionally.  Bit ``(i, j)`` means *the instruction in IQ
entry i waits for the producer in IQ entry j*.  Issuing instructions
clear their columns (several per cycle); an instruction is awake when
its row reduction-NORs to zero.

Unlike the original per-operand matrices, one matrix covers all source
operands — what the PIM implementation makes cheap (§3.4).

The pipeline answers the same question from per-op completion
counters (:func:`repro.pipeline.stages.state.wait_on`) and builds no
wakeup matrix; this class is the reference the tests hold the counters
to, and what the circuit model and the benchmark probes measure.

Hot-path notes: readiness is tracked *incrementally*.  ``_pending``
holds, for every valid entry, the number of set bits in its row (its
not-yet-issued producers); dispatch seeds it, every cleared column
decrements it, so ``is_ready`` is an O(1) counter test instead of a row
read.  The full ``ready()`` grant vector is a dirty-flagged cache
re-derived from the counters only after a column clear.  The invariant
holds against the stale bits of this non-collapsible structure because
a valid row can only hold bits in currently-valid producer columns
(issue and squash clear columns before freeing them), and the counters
of invalid rows are garbage nobody reads — dispatch reseeds them.
``REPRO_CHECK=1`` re-derives everything from the matrix and compares
(see :mod:`repro.core.check`).
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

import numpy as np

from . import check
from .bitmatrix import BitMatrix


class WakeupMatrix:
    """Positional dependence tracker over IQ entries."""

    def __init__(self, size: int):
        self.size = size
        self.matrix = BitMatrix(size, size)
        self.valid = np.zeros(size, dtype=bool)
        #: per-entry count of set row bits (valid entries only)
        self._pending = np.zeros(size, dtype=np.intp)
        #: cached grant vector, re-derived when dirty
        self._ready = np.zeros(size, dtype=bool)
        self._dirty = True
        self._mask = np.zeros(size, dtype=bool)
        self._ones = np.ones(size, dtype=bool)
        #: per-group-width row blocks, grown on demand (k is bounded by
        #: the dispatch width, so this holds a handful of buffers)
        self._group: dict = {}
        self._check = check.check_enabled()

    def dispatch(self, entry: int, producer_entries: Iterable[int]) -> None:
        """Install an instruction waiting on in-queue producers.

        ``producer_entries`` lists the IQ entries of the not-yet-issued
        producers of its source operands (empty → ready immediately).
        """
        if self.valid[entry]:
            raise ValueError(f"entry {entry} already valid")
        mask = self._mask
        mask[:] = False
        count = 0
        for producer in producer_entries:
            if not mask[producer]:
                mask[producer] = True
                count += 1
        self.matrix.set_row(entry, mask)
        self.matrix.clear_column(entry)
        self.valid[entry] = True
        self._pending[entry] = count
        # other rows are untouched (nobody holds a bit in a freed
        # column), so the cache stays coherent with a point update
        self._ready[entry] = count == 0
        if self._check:
            self._verify(f"dispatch({entry})")

    def dispatch_group(self, entries: Sequence[int],
                       producers: Sequence[Iterable[int]]) -> None:
        """Install a whole dispatch group in one cycle.

        Columns of the newcomers are cleared first, then all rows are
        written in one fancy-indexed store — so a group member waiting
        on an *earlier* member of the same group keeps its bit, exactly
        as under sequential dispatch.
        """
        k = len(entries)
        if k == 0:
            return
        if k == 1:
            self.dispatch(entries[0], producers[0])
            return
        try:
            rows = self._group[k]
        except KeyError:
            rows = self._group[k] = np.empty((k, self.size), dtype=bool)
        rows[:] = False
        for j, (entry, prods) in enumerate(zip(entries, producers)):
            if self.valid[entry]:
                raise ValueError(f"entry {entry} already valid")
            row = rows[j]
            count = 0
            for producer in prods:
                if not row[producer]:
                    row[producer] = True
                    count += 1
            self._pending[entry] = count
            self._ready[entry] = count == 0
            self.valid[entry] = True
        self.matrix.clear_columns(list(entries))
        # intra-group producer bits survive: every producer inside the
        # group is older (dispatched earlier), and its column clear
        # precedes all the row writes
        self.matrix.write_rows(list(entries), rows)
        if self._check:
            self._verify(f"dispatch_group({list(entries)})")

    def issue(self, entries: Iterable[int]) -> None:
        """Issued instructions broadcast: clear their columns, free entries."""
        entries = list(entries)
        bits = self.matrix.bits
        pending = self._pending
        for entry in entries:
            if not self.valid[entry]:
                raise ValueError(f"entry {entry} not valid")
            self.valid[entry] = False
            np.subtract(pending, bits[:, entry], out=pending)
        self.matrix.clear_columns(entries)
        self._dirty = True
        if self._check:
            self._verify(f"issue({entries})")

    def squash(self, entries: Iterable[int]) -> None:
        """Remove squashed instructions without waking dependents.

        Dependents of a squashed producer are squashed too (they are
        younger), so clearing the columns is still safe; rows of the
        squashed entries are cleared for hygiene.
        """
        entries = list(entries)
        bits = self.matrix.bits
        pending = self._pending
        for entry in entries:
            self.valid[entry] = False
            np.subtract(pending, bits[:, entry], out=pending)
            self.matrix.clear_row(entry)
            pending[entry] = 0
        self.matrix.clear_columns(entries)
        self._dirty = True
        if self._check:
            self._verify(f"squash({entries})")

    def ready(self) -> np.ndarray:
        """Grant vector of awake entries (row reduction-NOR).

        Served from the incremental cache; callers must not mutate the
        returned array.
        """
        if self._dirty:
            np.equal(self._pending, 0, out=self._ready)
            np.logical_and(self._ready, self.valid, out=self._ready)
            self._dirty = False
        if self._check:
            self._verify("ready()")
        return self._ready

    def is_ready(self, entry: int) -> bool:
        if self._check and self.valid[entry]:
            row_clear = not self.matrix.row(entry).any()
            if row_clear != (self._pending[entry] == 0):
                raise check.CheckError(
                    f"wakeup pending[{entry}]={self._pending[entry]} "
                    f"disagrees with matrix row (clear={row_clear})")
        return bool(self.valid[entry]) and self._pending[entry] == 0

    def waiting_on(self, entry: int) -> List[int]:
        """IQ entries the instruction still waits for (debug aid)."""
        return [int(idx) for idx in np.flatnonzero(self.matrix.row(entry))]

    # -- self-verification (REPRO_CHECK=1) ------------------------------

    def _verify(self, where: str) -> None:
        counts = self.matrix.bits.sum(axis=1)
        bad = np.flatnonzero(self.valid & (counts != self._pending))
        if bad.size:
            e = int(bad[0])
            raise check.CheckError(
                f"wakeup pending diverged after {where}: entry {e} "
                f"cached={int(self._pending[e])} matrix={int(counts[e])}")
        if not self._dirty:
            full = self.matrix.and_reduce_nor(self._ones) & self.valid
            if not np.array_equal(full, self._ready):
                raise check.CheckError(
                    f"wakeup ready cache diverged after {where}: "
                    f"cached={np.flatnonzero(self._ready).tolist()} "
                    f"full={np.flatnonzero(full).tolist()}")
