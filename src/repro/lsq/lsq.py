"""Load/store queue unit with the memory disambiguation matrix.

The LQ is a non-collapsible (free-list) structure — Orinoco commits
loads out of order, so gaps appear anywhere.  The SQ is a FIFO: stores
always commit in program order.  Committed stores drain through a
store buffer into the cache hierarchy.

Word granularity: the ISA only performs aligned 8-byte accesses, so two
accesses conflict iff their word addresses are equal.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from ..core import LockdownMatrix, MemoryDisambiguationMatrix
from ..queues import RandomQueue


@dataclass
class LQEntry:
    seq: int
    addr: Optional[int] = None
    translated: bool = False
    performed: bool = False
    committed: bool = False


@dataclass
class SQEntry:
    seq: int
    addr: Optional[int] = None
    resolved: bool = False


@dataclass
class SBEntry:
    seq: int
    addr: int


class LSQUnit:
    """Load queue + store queue + store buffer + disambiguation matrix."""

    def __init__(self, lq_size: int, sq_size: int, sb_size: int,
                 tso: bool = False, ldt_size: int = 16):
        self.lq_size = lq_size
        self.sq_size = sq_size
        self.sb_size = sb_size
        self.lq_alloc = RandomQueue(lq_size)
        self.sq_alloc = RandomQueue(sq_size)
        self.mdm = MemoryDisambiguationMatrix(lq_size, sq_size)
        self.lq: Dict[int, LQEntry] = {}      # lq index -> entry
        self.sq: Dict[int, SQEntry] = {}      # sq index -> entry
        self._seq_to_lq: Dict[int, int] = {}
        self._seq_to_sq: Dict[int, int] = {}
        self.store_buffer: Deque[SBEntry] = deque()
        # lookup scratch: the returned masks are valid until the next
        # load_lookup call; every caller consumes (or copies, via the
        # MDM row write) its mask before looking up again
        self._unresolved = np.zeros(sq_size, dtype=bool)
        self._younger = np.zeros(sq_size, dtype=bool)
        self.tso = tso
        self.lockdown = LockdownMatrix(ldt_size, lq_size) if tso else None
        self.lockdowns_taken = 0

    # -- allocation (dispatch) ------------------------------------------

    def can_allocate_load(self) -> bool:
        return not self.lq_alloc.is_full()

    def can_allocate_store(self) -> bool:
        return not self.sq_alloc.is_full()

    def allocate_load(self, seq: int) -> Optional[int]:
        entry = self.lq_alloc.allocate()
        if entry is None:
            return None
        self.lq[entry] = LQEntry(seq)
        self._seq_to_lq[seq] = entry
        return entry

    def allocate_store(self, seq: int) -> Optional[int]:
        entry = self.sq_alloc.allocate()
        if entry is None:
            return None
        self.sq[entry] = SQEntry(seq)
        self._seq_to_sq[seq] = entry
        self.mdm.store_allocate(entry)
        return entry

    # -- load execution -----------------------------------------------------

    def load_lookup(self, seq: int, addr: int
                    ) -> Tuple[str, np.ndarray, Optional[int]]:
        """Search older stores for ``addr``.

        Returns ``(outcome, unresolved_mask, match_seq)`` where outcome
        is ``"forward"`` (youngest older address-resolved store matches;
        the caller must still wait for that store's *data*) or
        ``"memory"`` (go to cache).  ``unresolved_mask`` marks older SQ
        stores with unknown addresses — the load's MDM row if it
        speculates past them.  The returned mask is scratch, valid
        until the next ``load_lookup`` call.
        """
        unresolved = self._unresolved
        unresolved[:] = False
        best_match: Optional[SQEntry] = None
        for index, store in self.sq.items():
            if store.seq >= seq:
                continue
            if not store.resolved:
                unresolved[index] = True
            elif store.addr == addr:
                if best_match is None or store.seq > best_match.seq:
                    best_match = store
        if best_match is not None:
            # an unresolved store between the match and the load could
            # still alias; the load must stay speculative about those
            younger_unresolved = self._younger
            younger_unresolved[:] = unresolved
            for index, store in self.sq.items():
                if unresolved[index] and store.seq < best_match.seq:
                    younger_unresolved[index] = False
            return "forward", younger_unresolved, best_match.seq
        # store buffer holds only committed (older) stores; a match there
        # also forwards (data is present)
        for sb_entry in reversed(self.store_buffer):
            if sb_entry.seq < seq and sb_entry.addr == addr:
                return "forward", unresolved, sb_entry.seq
        return "memory", unresolved, None

    def load_issue(self, seq: int, addr: int,
                   unresolved_mask: np.ndarray) -> None:
        """Record the issued load's address and its MDM row."""
        entry = self._seq_to_lq[seq]
        record = self.lq[entry]
        record.addr = addr
        record.translated = True
        self.mdm.load_issue(entry, unresolved_mask)

    def load_performed(self, seq: int) -> List[int]:
        """Mark a load performed; returns lifted lockdown addresses (TSO)."""
        entry = self._seq_to_lq[seq]
        self.lq[entry].performed = True
        if self.lockdown is not None:
            return self.lockdown.load_performed(entry)
        return []

    def load_is_nonspeculative(self, seq: int) -> bool:
        entry = self._seq_to_lq[seq]
        return self.lq[entry].translated \
            and self.mdm.load_is_nonspeculative(entry)

    def has_load(self, seq: int) -> bool:
        """Whether ``seq`` still holds an LQ entry (not yet committed
        or squashed)."""
        return seq in self._seq_to_lq

    # -- store execution ----------------------------------------------------

    def store_resolve(self, seq: int, addr: int) -> List[int]:
        """Resolve a store's address; returns seqs of violated loads.

        A speculative load conflicts when it bypassed this store and
        reads the same word.
        """
        entry = self._seq_to_sq[seq]
        record = self.sq[entry]
        record.addr = addr
        record.resolved = True
        conflicts = np.zeros(self.lq_size, dtype=bool)
        for lq_index, load in self.lq.items():
            if load.addr == addr and load.seq > seq:
                conflicts[lq_index] = True
        violated = self.mdm.store_resolve(entry, conflicts)
        return [self.lq[i].seq for i in violated]

    # -- commit ----------------------------------------------------------------

    def oldest_store_seq(self) -> Optional[int]:
        """Program-order next store to commit (stores commit in order).

        Stores allocate in program order, commit from the oldest, and a
        squash removes a youngest suffix, so ``_seq_to_sq``'s insertion
        order is program order and its first key is the oldest store.
        """
        return next(iter(self._seq_to_sq), None)

    def commit_load(self, seq: int) -> bool:
        """Release the LQ entry of a committing load.

        Under TSO, committing over older non-performed loads transfers a
        lockdown to the LDT (Figure 7).  Returns True iff a lockdown was
        taken (always False outside TSO mode).
        """
        entry = self._seq_to_lq.pop(seq)
        record = self.lq.pop(entry)
        if self.lockdown is not None and not record.performed:
            raise RuntimeError(
                f"TSO: load #{seq} committing before being performed "
                "requires ECL, which TSO mode does not allow")
        took = False
        if self.lockdown is not None:
            older_nonperformed = np.zeros(self.lq_size, dtype=bool)
            for lq_index, load in self.lq.items():
                if load.seq < seq and not load.performed:
                    older_nonperformed[lq_index] = True
            if older_nonperformed.any():
                self.lockdown.lockdown(record.addr, seq, older_nonperformed)
                self.lockdowns_taken += 1
                took = True
        self.mdm.load_remove(entry)
        self.lq_alloc.free(entry)
        return took

    def can_commit_store(self) -> bool:
        return len(self.store_buffer) < self.sb_size

    def commit_store(self, seq: int) -> None:
        """Move a committing store into the store buffer."""
        entry = self._seq_to_sq.pop(seq)
        record = self.sq.pop(entry)
        if not record.resolved:
            raise RuntimeError(f"store #{seq} committing unresolved")
        self.store_buffer.append(SBEntry(seq, record.addr))
        self.mdm.store_remove(entry)
        self.sq_alloc.free(entry)

    def drain_store(self) -> Optional[SBEntry]:
        """Pop the oldest store-buffer entry for writeback."""
        return self.store_buffer.popleft() if self.store_buffer else None

    # -- squash -------------------------------------------------------------------

    def squash(self, min_seq: int) -> None:
        """Remove all LQ/SQ entries with seq >= min_seq."""
        for seq in [s for s in self._seq_to_lq if s >= min_seq]:
            entry = self._seq_to_lq.pop(seq)
            del self.lq[entry]
            self.mdm.load_remove(entry)
            self.lq_alloc.free(entry)
        for seq in [s for s in self._seq_to_sq if s >= min_seq]:
            entry = self._seq_to_sq.pop(seq)
            del self.sq[entry]
            self.mdm.store_remove(entry)
            self.sq_alloc.free(entry)

    # -- introspection -----------------------------------------------------------

    def lq_occupancy(self) -> int:
        return len(self.lq)

    def sq_occupancy(self) -> int:
        return len(self.sq)
