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
"""

from __future__ import annotations

from typing import Iterable, List

import numpy as np

from .bitmatrix import BitMatrix


class WakeupMatrix:
    """Positional dependence tracker over IQ entries."""

    def __init__(self, size: int):
        self.size = size
        self.matrix = BitMatrix(size, size)
        self.valid = np.zeros(size, dtype=bool)

    def dispatch(self, entry: int, producer_entries: Iterable[int]) -> None:
        """Install an instruction waiting on in-queue producers.

        ``producer_entries`` lists the IQ entries of the not-yet-issued
        producers of its source operands (empty → ready immediately).
        """
        if self.valid[entry]:
            raise ValueError(f"entry {entry} already valid")
        row = np.zeros(self.size, dtype=bool)
        row[list(producer_entries)] = True
        self.matrix.set_row(entry, row)
        self.matrix.clear_column(entry)
        self.valid[entry] = True

    def issue(self, entries: Iterable[int]) -> None:
        """Issued instructions broadcast: clear their columns, free entries."""
        entries = list(entries)
        for entry in entries:
            if not self.valid[entry]:
                raise ValueError(f"entry {entry} not valid")
            self.valid[entry] = False
        self.matrix.clear_columns(entries)

    def squash(self, entries: Iterable[int]) -> None:
        """Remove squashed instructions without waking dependents.

        Dependents of a squashed producer are squashed too (they are
        younger), so clearing the columns is still safe; rows of the
        squashed entries are cleared for hygiene.
        """
        entries = list(entries)
        for entry in entries:
            self.valid[entry] = False
            self.matrix.clear_row(entry)
        self.matrix.clear_columns(entries)

    def ready(self) -> np.ndarray:
        """Grant vector of awake entries: valid rows that reduction-NOR
        to zero."""
        ones = np.ones(self.size, dtype=bool)
        return self.matrix.and_reduce_nor(ones) & self.valid

    def is_ready(self, entry: int) -> bool:
        return bool(self.valid[entry]) and not self.matrix.row(entry).any()

    def waiting_on(self, entry: int) -> List[int]:
        """IQ entries the instruction still waits for (debug aid)."""
        return [int(idx) for idx in np.flatnonzero(self.matrix.row(entry))]
