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

Hot-path notes: ``dispatch_group`` writes a whole dispatch group with
two fancy-indexed stores (columns, then rows) instead of 2·k scalar
writes — see the method for the proof of sequential equivalence — and
the select primitives take ``out`` buffers plus a requester-count fast
path (≤ ``width`` requesters ⇒ everyone is granted, no matrix op).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

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
        # select scratch (callers may still pass their own ``out``)
        self._req = np.empty(size, dtype=bool)
        self._counts = np.empty(size, dtype=np.intp)
        # group-dispatch scratch, sized per group width on first use
        self._group: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        self._gvalid = np.empty(size, dtype=bool)
        self._gcrit = np.empty(size, dtype=bool)
        self._gtmp = np.empty(size, dtype=bool)

    # -- allocation ----------------------------------------------------

    def dispatch(self, entry: int, critical: bool = False) -> None:
        """Install a newly dispatched instruction into ``entry``."""
        if self.valid[entry]:
            raise ValueError(f"entry {entry} already valid")
        if critical:
            # Older than all valid non-critical, younger than valid critical.
            np.logical_and(self.valid, self.critical, out=self._gtmp)
            self.matrix.set_row(entry, self._gtmp)
            np.logical_not(self.critical, out=self._gtmp)
            np.logical_and(self.valid, self._gtmp, out=self._gtmp)
            self.matrix.set_column(entry, self._gtmp)
        else:
            self.matrix.set_row(entry, self.valid)
            self.matrix.clear_column(entry)
        self.valid[entry] = True
        self.critical[entry] = critical

    def _group_scratch(self, k: int) -> Tuple[np.ndarray, np.ndarray]:
        try:
            return self._group[k]
        except KeyError:
            pair = (np.empty((k, self.size), dtype=bool),
                    np.empty((self.size, k), dtype=bool))
            self._group[k] = pair
            return pair

    def dispatch_group(self, entries: List[int],
                       critical: Optional[List[bool]] = None) -> None:
        """Dispatch several instructions in one cycle, oldest first.

        Models superscalar dispatch (§5): semantically equivalent to
        dispatching the group members sequentially, but lands in the
        matrix as one batched column write plus one batched row write.

        Equivalence: replaying the sequential interleave
        ``col_0, row_0, col_1, row_1, …`` the last writer of each cell
        is — outside the group block, the column write for group
        columns and the row write for group rows (sequential row masks
        never reach freed non-group columns, so the stale bits a scalar
        ``clear_column`` would leave match the batched column store);
        inside the k×k block, cell ``(e_j, e_i)`` with ``i < j`` takes
        row_j's mask evaluated after ``e_i`` dispatched — which is what
        the snapshotted row block holds — and with ``i > j`` takes
        col_i's value at time *i*: False unless ``e_i`` is critical and
        ``e_j`` is not.  All-non-critical groups (the common case) need
        no block patch at all: both triangles come out right from the
        two stores.
        """
        k = len(entries)
        if k == 0:
            return
        flags = critical if critical is not None else [False] * k
        if k == 1:
            self.dispatch(entries[0], bool(flags[0]))
            return
        if not any(flags):
            # all-non-critical fast path: every row is the valid
            # snapshot plus the older group members, every column is
            # clear — one broadcast, a tiny triangle patch, two stores
            valid = self.valid
            seen = set()
            for entry in entries:
                if valid[entry] or entry in seen:
                    raise ValueError(f"entry {entry} already valid")
                seen.add(entry)
            rows, _ = self._group_scratch(k)
            rows[:] = valid
            for i in range(k - 1):
                rows[i + 1:, entries[i]] = True
            self.matrix.clear_columns(entries)
            self.matrix.write_rows(entries, rows)
            valid[entries] = True
            self.critical[entries] = flags
            return
        rows, cols = self._group_scratch(k)
        v = self._gvalid
        c = self._gcrit
        np.copyto(v, self.valid)
        np.copyto(c, self.critical)
        any_crit = False
        for j, (entry, flag) in enumerate(zip(entries, flags)):
            if v[entry]:
                raise ValueError(f"entry {entry} already valid")
            if flag:
                any_crit = True
                np.logical_and(v, c, out=rows[j])
                np.logical_not(c, out=self._gtmp)
                np.logical_and(v, self._gtmp, out=cols[:, j])
            else:
                np.copyto(rows[j], v)
                cols[:, j] = False
            v[entry] = True
            c[entry] = flag
        self.matrix.write_columns(entries, cols)
        self.matrix.write_rows(entries, rows)
        if any_crit:
            # patch the upper triangle of the group block: the row
            # store put "not yet dispatched" (False) where the later
            # column write of a critical member must win
            bits = self.matrix.bits
            for j, ej in enumerate(entries):
                fj = flags[j]
                for i in range(j + 1, k):
                    if flags[i] and not fj:
                        bits[ej, entries[i]] = True
        self.valid[entries] = True
        self.critical[entries] = flags

    def remove(self, entry: int) -> None:
        """Free an entry (issue from IQ / commit from ROB)."""
        if not self.valid[entry]:
            raise ValueError(f"entry {entry} not valid")
        self.valid[entry] = False
        self.critical[entry] = False

    def remove_group(self, entries: List[int]) -> None:
        valid = self.valid
        critical = self.critical
        for entry in entries:
            if not valid[entry]:
                raise ValueError(f"entry {entry} not valid")
            valid[entry] = False
            critical[entry] = False

    # -- scheduling ------------------------------------------------------

    def select_oldest(self, request: np.ndarray, width: int,
                      out: Optional[np.ndarray] = None) -> np.ndarray:
        """Grant up to ``width`` oldest requesting entries (bit count).

        ``request`` is the BID vector of requesting entries.  Returns a
        boolean grant vector (written into ``out`` when given).  O(1):
        one matrix-wide AND plus one thresholded sense per row, all rows
        in parallel.
        """
        req = np.logical_and(request, self.valid, out=self._req)
        result = out if out is not None else np.empty(self.size, dtype=bool)
        if np.count_nonzero(req) <= width:
            # every requester sees < width older requesters (the age
            # order is strict and the diagonal is zero), so the matrix
            # sense would grant all of them — skip it
            np.copyto(result, req)
            return result
        self.matrix.and_popcount_below(req, width, out=result,
                                       counts=self._counts)
        np.logical_and(result, req, out=result)
        return result

    def select_single_oldest(self, request: np.ndarray,
                             out: Optional[np.ndarray] = None) -> np.ndarray:
        """Classic AGE grant: only the single oldest requester wins."""
        req = np.logical_and(request, self.valid, out=self._req)
        result = out if out is not None else np.empty(self.size, dtype=bool)
        self.matrix.and_reduce_nor(req, out=result)
        np.logical_and(result, req, out=result)
        return result

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
