"""Age matrix with the bit count encoding (paper §3.1).

Decouples the temporal ordering of instructions from their positions in
a non-collapsible queue.  ``matrix[i][j] == 1`` means *the instruction
in entry j is older than the instruction in entry i*.

* At dispatch an instruction sets its row to all ones (every valid
  instruction is older) and clears its column (nobody considers the
  newcomer older).  Freed entries need no cleanup: the next occupant's
  dispatch overwrites the stale row and column.
* ``select_oldest(request, width)`` grants up to ``width`` oldest
  requesting entries in a single parallel step: entry *i* is granted iff
  ``popcount(row_i & request) < width`` — the bit count encoding.
* ``oldest(valid)`` locates the single oldest valid entry (used for
  precise exception location), the classic AND + reduction-NOR.
* Criticality (§3.1, Figure 3): a critical instruction dispatches with
  its row set only for *critical* valid entries and its column set for
  the valid *non-critical* entries — making every critical instruction
  appear older than every non-critical one while both groups stay
  age-ordered internally.

The pipeline ranks IQ entries by per-op order keys instead
(:func:`repro.scheduler.order_key`); this class is the reference the
scheduler tests hold those keys to.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from .bitmatrix import BitMatrix


class AgeMatrix:
    """Relative-age tracker over the entries of a non-collapsible queue."""

    def __init__(self, size: int):
        self.size = size
        self.matrix = BitMatrix(size, size)
        #: VLD — valid entries.
        self.valid = np.zeros(size, dtype=bool)
        #: CRI — entries holding critical-tagged instructions.
        self.critical = np.zeros(size, dtype=bool)

    # -- allocation ----------------------------------------------------

    def dispatch(self, entry: int, critical: bool = False) -> None:
        """Install a newly dispatched instruction into ``entry``."""
        if self.valid[entry]:
            raise ValueError(f"entry {entry} already valid")
        if critical:
            # Older than all valid non-critical, younger than valid critical.
            self.matrix.set_row(entry, self.valid & self.critical)
            self.matrix.set_column(entry, self.valid & ~self.critical)
        else:
            self.matrix.set_row(entry, self.valid)
            self.matrix.clear_column(entry)
        self.valid[entry] = True
        self.critical[entry] = critical

    def dispatch_group(self, entries: List[int],
                       critical: Optional[List[bool]] = None) -> None:
        """Dispatch a superscalar group in one cycle, oldest first (§5)."""
        flags = critical if critical is not None else [False] * len(entries)
        for entry, flag in zip(entries, flags):
            self.dispatch(entry, bool(flag))

    def remove(self, entry: int) -> None:
        """Free an entry (issue from IQ / commit from ROB)."""
        if not self.valid[entry]:
            raise ValueError(f"entry {entry} not valid")
        self.valid[entry] = False
        self.critical[entry] = False

    def remove_group(self, entries: List[int]) -> None:
        for entry in entries:
            self.remove(entry)

    # -- scheduling ------------------------------------------------------

    def select_oldest(self, request: np.ndarray, width: int,
                      out: Optional[np.ndarray] = None) -> np.ndarray:
        """Grant up to ``width`` oldest requesting entries (bit count).

        ``request`` is the BID vector of requesting entries.  Returns a
        boolean grant vector (written into ``out`` when given): entry
        *i* is granted iff ``popcount(row_i & request) < width``, one
        matrix-wide AND plus one thresholded sense per row.
        """
        req = request & self.valid
        grant = self.matrix.and_popcount_below(req, width) & req
        if out is None:
            return grant
        out[:] = grant
        return out

    def select_single_oldest(self, request: np.ndarray) -> np.ndarray:
        """Classic AGE grant: only the single oldest requester wins."""
        req = request & self.valid
        return self.matrix.and_reduce_nor(req) & req

    def oldest(self, among: Optional[np.ndarray] = None) -> Optional[int]:
        """Index of the oldest entry among ``among`` (default: all valid).

        Used to locate the oldest instruction left in the ROB — the one
        whose exception / unresolved speculation blocks commit (§3.1).
        """
        mask = self.valid if among is None else (among & self.valid)
        if not mask.any():
            return None
        grant = self.matrix.and_reduce_nor(mask) & mask
        indices = np.flatnonzero(grant)
        if len(indices) != 1:
            raise RuntimeError(
                f"age matrix corrupt: {len(indices)} oldest entries")
        return int(indices[0])

    def younger_than(self, entry: int) -> np.ndarray:
        """Valid entries younger than ``entry`` (column read).

        Used to locate the instructions to squash behind a mispredicted
        branch (§3.2, precise exception handling).
        """
        return self.matrix.column(entry) & self.valid

    def older_than(self, entry: int) -> np.ndarray:
        """Valid entries older than ``entry`` (row read)."""
        return self.matrix.row(entry) & self.valid

    def age_order(self, among: Optional[np.ndarray] = None) -> List[int]:
        """All requested entries sorted oldest → youngest.

        Not a hardware operation — a test/debug oracle derived from the
        matrix by repeated single-oldest extraction.
        """
        mask = (self.valid if among is None else (among & self.valid)).copy()
        order: List[int] = []
        while mask.any():
            entry = self.oldest(mask)
            order.append(entry)
            mask[entry] = False
        return order

    def occupancy(self) -> int:
        return int(self.valid.sum())
