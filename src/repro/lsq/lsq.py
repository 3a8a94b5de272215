"""Load/store queue unit with per-op memory disambiguation.

The LQ is a non-collapsible (free-list) structure — Orinoco commits
loads out of order, so gaps appear anywhere.  The SQ is a FIFO: stores
always commit in program order.  Committed stores drain through a
store buffer into the cache hierarchy.

Paper §3.3 tracks speculative loads in two bit matrices; this unit
keeps the same state per op, so the cycle loop runs no matrix:

* the memory disambiguation matrix (Figure 6): each :class:`LQEntry`
  counts the unresolved older stores it issued past (its row), and each
  :class:`SQEntry` lists the loads that issued past it (its column).  A
  resolving store counts its live bypassers down and reports the ones
  that read its word;
* under TSO, the lockdown matrix (Figure 7): each lockdown counts the
  older loads that have not performed, registered under the LQ index
  each one waits on (the matrix's columns), and the lockdown table is a
  free-entry count.

:class:`~repro.core.MemoryDisambiguationMatrix` and
:class:`~repro.core.LockdownMatrix` stay the executable spec; the
property tests in ``tests/test_lsq.py`` hold this unit to them.

Word granularity: the ISA only performs aligned 8-byte accesses, so two
accesses conflict iff their word addresses are equal.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from ..queues import RandomQueue


@dataclass
class LQEntry:
    seq: int
    addr: Optional[int] = None
    translated: bool = False
    performed: bool = False
    #: unresolved older stores the load issued past (its MDM row)
    blockers: int = 0


@dataclass
class SQEntry:
    seq: int
    addr: Optional[int] = None
    resolved: bool = False
    #: ``(LQ index, entry)`` of each load that issued past the store
    #: while its address was unknown (its MDM column).  A load counts
    #: only while it is still the entry at that index.
    bypassers: List[Tuple[int, LQEntry]] = field(default_factory=list)


@dataclass
class SBEntry:
    seq: int
    addr: int


class _Lockdown:
    """One LDT entry: the older loads it still waits on to perform."""

    __slots__ = ("waiting",)

    def __init__(self, waiting: int):
        self.waiting = waiting


class LSQUnit:
    """Load queue + store queue + store buffer + disambiguation."""

    def __init__(self, lq_size: int, sq_size: int, sb_size: int,
                 tso: bool = False, ldt_size: int = 16):
        self.sb_size = sb_size
        self.lq_alloc = RandomQueue(lq_size)
        self.sq_alloc = RandomQueue(sq_size)
        self.lq: Dict[int, LQEntry] = {}      # lq index -> entry
        self.sq: Dict[int, SQEntry] = {}      # sq index -> entry
        self._seq_to_lq: Dict[int, int] = {}
        self._seq_to_sq: Dict[int, int] = {}
        self.store_buffer: Deque[SBEntry] = deque()
        self.tso = tso
        self.ldt_size = ldt_size
        self.ldt_free = ldt_size
        #: LQ index -> lockdowns waiting for the load there to perform
        self._ldt_waits: Dict[int, List[_Lockdown]] = {}

    # -- allocation (dispatch) ------------------------------------------

    def can_allocate_load(self) -> bool:
        return self.lq_alloc.allocatable > 0

    def can_allocate_store(self) -> bool:
        return self.sq_alloc.allocatable > 0

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
        return entry

    # -- load execution -----------------------------------------------------

    def load_lookup(self, seq: int, addr: int
                    ) -> Tuple[str, List[SQEntry], Optional[int]]:
        """Search older stores for ``addr``.

        Returns ``(outcome, unresolved, match_seq)`` where outcome is
        ``"forward"`` (youngest older address-resolved store matches;
        the caller must still wait for that store's *data*) or
        ``"memory"`` (go to cache).  ``unresolved`` lists the older SQ
        stores with unknown addresses — the load's MDM row if it
        speculates past them.
        """
        unresolved: List[SQEntry] = []
        best_match: Optional[SQEntry] = None
        for store in self.sq.values():
            if store.seq >= seq:
                continue
            if not store.resolved:
                unresolved.append(store)
            elif store.addr == addr:
                if best_match is None or store.seq > best_match.seq:
                    best_match = store
        if best_match is not None:
            # an unresolved store between the match and the load could
            # still alias; the load must stay speculative about those
            return "forward", [store for store in unresolved
                               if store.seq > best_match.seq], \
                best_match.seq
        # store buffer holds only committed (older) stores; a match there
        # also forwards (data is present)
        for sb_entry in reversed(self.store_buffer):
            if sb_entry.seq < seq and sb_entry.addr == addr:
                return "forward", unresolved, sb_entry.seq
        return "memory", unresolved, None

    def load_issue(self, seq: int, addr: int,
                   unresolved: List[SQEntry]) -> None:
        """Record the issued load's address and its MDM row: one count
        per unresolved store it passes, registered on that store."""
        index = self._seq_to_lq[seq]
        load = self.lq[index]
        load.addr = addr
        load.translated = True
        load.blockers = len(unresolved)
        for store in unresolved:
            store.bypassers.append((index, load))

    def load_performed(self, seq: int) -> None:
        """Mark a load performed.  Under TSO every lockdown waiting on
        its LQ index counts down, and frees its LDT entry at zero."""
        index = self._seq_to_lq[seq]
        self.lq[index].performed = True
        for lockdown in self._ldt_waits.pop(index, ()):
            lockdown.waiting -= 1
            if not lockdown.waiting:
                self.ldt_free += 1

    def load_is_nonspeculative(self, seq: int) -> bool:
        load = self.lq[self._seq_to_lq[seq]]
        return load.translated and not load.blockers

    def has_load(self, seq: int) -> bool:
        """Whether ``seq`` still holds an LQ entry (not yet committed
        or squashed)."""
        return seq in self._seq_to_lq

    # -- store execution ----------------------------------------------------

    def store_resolve(self, seq: int, addr: int) -> List[int]:
        """Resolve a store's address; returns seqs of violated loads.

        Every live load that issued past this store stops counting it.
        One that reads the same word conflicts; conflicts come back in
        ascending LQ-index order, as the matrix's column read gives them.
        """
        store = self.sq[self._seq_to_sq[seq]]
        store.addr = addr
        store.resolved = True
        conflicts = []
        for index, load in store.bypassers:
            if self.lq.get(index) is not load:
                continue            # committed or squashed since
            load.blockers -= 1
            if load.addr == addr:
                conflicts.append(index)
        store.bypassers.clear()
        return [self.lq[index].seq for index in sorted(conflicts)]

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
        index = self._seq_to_lq.pop(seq)
        load = self.lq.pop(index)
        took = False
        if self.tso:
            if not load.performed:
                raise RuntimeError(
                    f"TSO: load #{seq} committing before being performed "
                    "requires ECL, which TSO mode does not allow")
            older = [i for i, other in self.lq.items()
                     if other.seq < seq and not other.performed]
            if older:
                if not self.ldt_free:
                    raise RuntimeError("lockdown table full")
                self.ldt_free -= 1
                lockdown = _Lockdown(len(older))
                for i in older:
                    self._ldt_waits.setdefault(i, []).append(lockdown)
                took = True
        self.lq_alloc.free(index)
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
        self.sq_alloc.free(entry)

    def drain_store(self) -> Optional[SBEntry]:
        """Pop the oldest store-buffer entry for writeback."""
        return self.store_buffer.popleft() if self.store_buffer else None

    # -- squash -------------------------------------------------------------------

    def squash(self, min_seq: int) -> None:
        """Remove all LQ/SQ entries with seq >= min_seq.

        A squashed store's bypassers are all younger, so they go too.
        """
        for seq in [s for s in self._seq_to_lq if s >= min_seq]:
            entry = self._seq_to_lq.pop(seq)
            del self.lq[entry]
            self.lq_alloc.free(entry)
        for seq in [s for s in self._seq_to_sq if s >= min_seq]:
            entry = self._seq_to_sq.pop(seq)
            del self.sq[entry]
            self.sq_alloc.free(entry)

    # -- introspection -----------------------------------------------------------

    def lq_occupancy(self) -> int:
        return len(self.lq)

    def sq_occupancy(self) -> int:
        return len(self.sq)

    def ldt_occupancy(self) -> int:
        return self.ldt_size - self.ldt_free
