"""LSQ unit: allocation, forwarding search, disambiguation, TSO mode.

The unit keeps §3.3's two matrices as per-op counts; the last two
property tests hold those counts to the matrix classes.
"""

import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import LockdownMatrix, MemoryDisambiguationMatrix
from repro.lsq import LSQUnit


def fresh(lq=8, sq=8, sb=4, tso=False):
    return LSQUnit(lq, sq, sb, tso=tso, ldt_size=4)


class TestAllocation:
    def test_load_allocation_capacity(self):
        lsq = fresh(lq=2)
        assert lsq.allocate_load(0) is not None
        assert lsq.allocate_load(1) is not None
        assert not lsq.can_allocate_load()

    def test_store_allocation_sets_mdm_column(self):
        lsq = fresh()
        entry = lsq.allocate_store(0)
        store = lsq.sq[entry]
        assert not store.resolved and store.bypassers == []


class TestLoadLookup:
    def test_memory_when_no_stores(self):
        lsq = fresh()
        lsq.allocate_load(5)
        outcome, unresolved, match = lsq.load_lookup(5, 0x100)
        assert outcome == "memory" and match is None
        assert unresolved == []

    def test_forwards_from_youngest_older_match(self):
        lsq = fresh()
        lsq.allocate_store(1)
        lsq.allocate_store(2)
        lsq.store_resolve(1, 0x100)
        lsq.store_resolve(2, 0x100)
        lsq.allocate_load(3)
        outcome, _, match = lsq.load_lookup(3, 0x100)
        assert outcome == "forward" and match == 2

    def test_younger_store_never_forwards(self):
        lsq = fresh()
        lsq.allocate_store(9)
        lsq.store_resolve(9, 0x100)
        lsq.allocate_load(3)
        outcome, _, _ = lsq.load_lookup(3, 0x100)
        assert outcome == "memory"

    def test_unresolved_older_store_flagged(self):
        lsq = fresh()
        entry = lsq.allocate_store(1)
        lsq.allocate_load(2)
        outcome, unresolved, _ = lsq.load_lookup(2, 0x100)
        assert outcome == "memory"
        assert unresolved == [lsq.sq[entry]]

    def test_unresolved_between_match_and_load_stays_flagged(self):
        lsq = fresh()
        lsq.allocate_store(1)          # will match
        blocker = lsq.allocate_store(2)  # unresolved, younger than match
        lsq.store_resolve(1, 0x100)
        lsq.allocate_load(3)
        outcome, unresolved, match = lsq.load_lookup(3, 0x100)
        assert outcome == "forward" and match == 1
        assert unresolved == [lsq.sq[blocker]]

    def test_unresolved_older_than_match_cleared(self):
        lsq = fresh()
        lsq.allocate_store(1)          # stays unresolved (older)
        lsq.allocate_store(2)
        lsq.store_resolve(2, 0x100)    # the match supersedes store 1
        lsq.allocate_load(3)
        outcome, unresolved, match = lsq.load_lookup(3, 0x100)
        assert outcome == "forward" and match == 2
        assert unresolved == []

    def test_store_buffer_forwards(self):
        lsq = fresh()
        lsq.allocate_store(1)
        lsq.store_resolve(1, 0x200)
        lsq.commit_store(1)
        lsq.allocate_load(2)
        outcome, _, match = lsq.load_lookup(2, 0x200)
        assert outcome == "forward" and match == 1


class TestViolationDetection:
    def test_conflicting_speculative_load_reported(self):
        lsq = fresh()
        store_entry = lsq.allocate_store(1)
        lsq.allocate_load(2)
        _, unresolved, _ = lsq.load_lookup(2, 0x100)
        lsq.load_issue(2, 0x100, unresolved)
        violated = lsq.store_resolve(1, 0x100)
        assert violated == [2]

    def test_different_address_no_violation(self):
        lsq = fresh()
        lsq.allocate_store(1)
        lsq.allocate_load(2)
        _, unresolved, _ = lsq.load_lookup(2, 0x100)
        lsq.load_issue(2, 0x100, unresolved)
        assert lsq.store_resolve(1, 0x180) == []
        assert lsq.load_is_nonspeculative(2)


class TestCommit:
    def test_store_commit_order_oldest_first(self):
        lsq = fresh()
        lsq.allocate_store(3)
        lsq.allocate_store(7)
        assert lsq.oldest_store_seq() == 3

    def test_store_buffer_capacity(self):
        lsq = fresh(sb=1)
        lsq.allocate_store(1)
        lsq.store_resolve(1, 0x100)
        lsq.commit_store(1)
        assert not lsq.can_commit_store()
        lsq.drain_store()
        assert lsq.can_commit_store()

    def test_oldest_store_after_commit_squash_reallocate(self):
        lsq = fresh()
        for seq in (2, 4, 6, 8):
            lsq.allocate_store(seq)
        lsq.store_resolve(2, 0x100)
        lsq.commit_store(2)
        lsq.squash(6)                 # refetch restarts at seq 6
        assert lsq.oldest_store_seq() == 4
        lsq.allocate_store(6)
        lsq.allocate_store(7)
        lsq.store_resolve(4, 0x108)
        lsq.commit_store(4)
        assert lsq.oldest_store_seq() == 6
        lsq.squash(3)
        assert lsq.oldest_store_seq() is None

    def test_unresolved_store_cannot_commit(self):
        lsq = fresh()
        lsq.allocate_store(1)
        with pytest.raises(RuntimeError):
            lsq.commit_store(1)

    def test_load_commit_frees_entry(self):
        lsq = fresh(lq=1)
        lsq.allocate_load(1)
        lsq.load_issue(1, 0x100, [])
        lsq.commit_load(1)
        assert lsq.can_allocate_load()


class TestSquash:
    def test_removes_younger_entries(self):
        lsq = fresh()
        lsq.allocate_load(1)
        lsq.allocate_load(5)
        lsq.allocate_store(6)
        lsq.squash(5)
        assert lsq.lq_occupancy() == 1
        assert lsq.sq_occupancy() == 0
        assert 1 in lsq._seq_to_lq


class TestTSOMode:
    def test_ooo_load_commit_takes_lockdown(self):
        lsq = fresh(tso=True)
        lsq.allocate_load(1)                 # older, not performed
        lsq.allocate_load(2)
        lsq.load_issue(2, 0x200, [])
        lsq.load_performed(2)
        assert lsq.commit_load(2)            # commits past load 1
        assert lsq.ldt_occupancy() == 1

    def test_lockdown_lifts_when_older_performs(self):
        lsq = fresh(tso=True)
        lsq.allocate_load(1)
        lsq.load_issue(1, 0x100, [])
        lsq.allocate_load(2)
        lsq.load_issue(2, 0x200, [])
        lsq.load_performed(2)
        lsq.commit_load(2)
        assert lsq.ldt_occupancy() == 1
        lsq.load_performed(1)
        assert lsq.ldt_occupancy() == 0

    def test_ordered_commit_takes_no_lockdown(self):
        lsq = fresh(tso=True)
        lsq.allocate_load(1)
        lsq.load_issue(1, 0x100, [])
        lsq.load_performed(1)
        assert not lsq.commit_load(1)
        assert lsq.ldt_occupancy() == 0

    def test_unperformed_commit_rejected_under_tso(self):
        lsq = fresh(tso=True)
        lsq.allocate_load(1)
        lsq.load_issue(1, 0x100, [])
        with pytest.raises(RuntimeError):
            lsq.commit_load(1)               # ECL is not TSO-compatible


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["alloc", "alloc", "commit",
                                             "squash", "drain"]),
                          st.integers(0, 40)), max_size=60))
def test_oldest_store_is_min_over_sq(steps):
    """Property: under any program-order allocate / in-order commit /
    squash-and-refetch history, ``oldest_store_seq`` is the oldest SQ
    store by definition (the minimum seq, None when empty)."""
    lsq = fresh(sq=6, sb=3)
    next_seq = 1
    for action, pick in steps:
        if action == "alloc" and lsq.can_allocate_store():
            lsq.allocate_store(next_seq)
            next_seq += 1 + pick % 3     # stores are sparse in the trace
        elif action == "commit" and lsq.sq and lsq.can_commit_store():
            head = lsq.oldest_store_seq()
            lsq.store_resolve(head, 0x100 + 8 * pick)
            lsq.commit_store(head)
        elif action == "squash" and lsq.sq:
            seqs = sorted(store.seq for store in lsq.sq.values())
            first = seqs[pick % len(seqs)]
            lsq.squash(first)
            next_seq = first             # the refetch re-allocates it
        elif action == "drain":
            lsq.drain_store()
        want = min((store.seq for store in lsq.sq.values()), default=None)
        assert lsq.oldest_store_seq() == want


# -- the per-op counts against the §3.3 matrices ----------------------

class _MatrixLSQ:
    """The LSQ's disambiguation and TSO lockdowns as the paper's two
    matrices compute them, kept here as the reference: a
    :class:`MemoryDisambiguationMatrix` row per LQ entry (Figure 6) and
    a :class:`LockdownMatrix` row per LDT entry (Figure 7).  It keeps
    its own copy of each entry's seq, address and status, and is driven
    in lockstep with an :class:`LSQUnit` at the LQ and SQ indices the
    unit allocates."""

    def __init__(self, lq_size, sq_size, ldt_size):
        self.lq_size = lq_size
        self.sq_size = sq_size
        self.mdm = MemoryDisambiguationMatrix(lq_size, sq_size)
        self.ldt = LockdownMatrix(ldt_size, lq_size)
        self.loads = {}                 # LQ index -> SimpleNamespace
        self.stores = {}                # SQ index -> SimpleNamespace

    def allocate_load(self, index, seq):
        self.loads[index] = SimpleNamespace(
            seq=seq, addr=None, translated=False, performed=False)

    def allocate_store(self, index, seq):
        self.stores[index] = SimpleNamespace(seq=seq, addr=None)
        self.mdm.store_allocate(index)

    def issue(self, index, addr):
        """Lookup plus issue: the row marks the older unresolved stores,
        except those older than the youngest older store that matches
        ``addr`` (the load forwards from it)."""
        load = self.loads[index]
        older = {i: st for i, st in self.stores.items() if st.seq < load.seq}
        match = max((st.seq for st in older.values() if st.addr == addr),
                    default=-1)
        row = np.zeros(self.sq_size, dtype=bool)
        for i, st in older.items():
            row[i] = st.addr is None and st.seq > match
        self.mdm.load_issue(index, row)
        load.addr = addr
        load.translated = True

    def nonspeculative(self, index):
        return (self.loads[index].translated
                and self.mdm.load_is_nonspeculative(index))

    def resolve(self, index, addr):
        store = self.stores[index]
        store.addr = addr
        conflicts = np.zeros(self.lq_size, dtype=bool)
        for i, load in self.loads.items():
            conflicts[i] = load.addr == addr and load.seq > store.seq
        return [self.loads[i].seq
                for i in self.mdm.store_resolve(index, conflicts)]

    def performed(self, index):
        self.loads[index].performed = True
        self.ldt.load_performed(index)

    def commit_load(self, index, tso):
        load = self.loads.pop(index)
        older = np.zeros(self.lq_size, dtype=bool)
        for i, other in self.loads.items():
            older[i] = other.seq < load.seq and not other.performed
        took = tso and bool(older.any())
        if took:
            self.ldt.lockdown(load.addr, load.seq, older)
        self.mdm.load_remove(index)
        return took

    def commit_store(self, index):
        del self.stores[index]
        self.mdm.store_remove(index)

    def squash(self, min_seq):
        for i in [i for i, ld in self.loads.items() if ld.seq >= min_seq]:
            del self.loads[i]
            self.mdm.load_remove(i)
        for i in [i for i, st in self.stores.items() if st.seq >= min_seq]:
            del self.stores[i]
            self.mdm.store_remove(i)


ADDRS = (0x100, 0x108)
#: history steps, weighted towards the loads that TSO lockdowns need
ACTIONS = ("load", "load", "store", "issue", "issue", "resolve",
           "perform", "perform", "commit_load", "commit_load",
           "commit_store", "drain", "squash")


def _lockstep(data, tso):
    """Drive a random LSQ history through :class:`LSQUnit` and
    :class:`_MatrixLSQ` together, asserting after every step that they
    agree on every live load's non-speculative status, the violated
    list and its order, whether a commit took a lockdown, LDT
    occupancy, and the full-table raise.

    The history allocates loads and stores in program order; looks a
    load up and issues it (with or without a forwarding match, from
    the SQ or the store buffer); resolves stores, then either squashes
    from the oldest violated load or leaves the violated loads to
    replay in place, as the SPEC oracle does; performs loads, again
    after a replay too; commits loads in any order (under TSO only
    performed ones) and stores in order; drains the store buffer; and
    squashes a suffix, whose seqs the refetch re-allocates.  LQ and SQ
    indices are reused as entries free."""
    lq_size = data.draw(st.integers(2, 8), label="lq")
    sq_size = data.draw(st.integers(1, 4), label="sq")
    ldt_size = data.draw(st.integers(1, 4), label="ldt")
    lsq = LSQUnit(lq_size, sq_size, 2, tso=tso, ldt_size=ldt_size)
    ref = _MatrixLSQ(lq_size, sq_size, ldt_size)
    lq_of, sq_of = {}, {}               # seq -> index, live entries
    next_seq = 0
    for _ in range(data.draw(st.integers(1, 60), label="steps")):
        loads = {seq: lsq.lq[index] for seq, index in lq_of.items()}
        unissued = [seq for seq, ld in loads.items() if not ld.translated]
        issued = [seq for seq, ld in loads.items() if ld.translated]
        unresolved = [seq for seq, index in sq_of.items()
                      if not lsq.sq[index].resolved]
        oldest_store = min(sq_of, default=None)
        enabled = {
            "load": lsq.can_allocate_load(),
            "store": lsq.can_allocate_store(),
            "issue": unissued,
            "resolve": unresolved,
            "perform": issued,
            "commit_load": [seq for seq, ld in loads.items()
                            if ld.performed or not tso],
            "commit_store": oldest_store is not None
            and oldest_store not in unresolved and lsq.can_commit_store(),
            "drain": lsq.store_buffer,
            "squash": lq_of or sq_of,
        }
        action = data.draw(st.sampled_from(
            [name for name in ACTIONS if enabled[name]]))
        if action == "load":
            lq_of[next_seq] = index = lsq.allocate_load(next_seq)
            ref.allocate_load(index, next_seq)
            next_seq += 1
        elif action == "store":
            sq_of[next_seq] = index = lsq.allocate_store(next_seq)
            ref.allocate_store(index, next_seq)
            next_seq += 1
        elif action == "issue":
            seq = data.draw(st.sampled_from(unissued))
            addr = data.draw(st.sampled_from(ADDRS))
            _, blockers, _ = lsq.load_lookup(seq, addr)
            lsq.load_issue(seq, addr, blockers)
            ref.issue(lq_of[seq], addr)
        elif action == "resolve":
            seq = data.draw(st.sampled_from(unresolved))
            addr = data.draw(st.sampled_from(ADDRS))
            violated = lsq.store_resolve(seq, addr)
            assert violated == ref.resolve(sq_of[seq], addr)
            if violated and data.draw(st.booleans(), label="squash"):
                first = min(violated)
                lsq.squash(first)
                ref.squash(first)
                lq_of = {s: i for s, i in lq_of.items() if s < first}
                sq_of = {s: i for s, i in sq_of.items() if s < first}
                next_seq = first
        elif action == "perform":
            seq = data.draw(st.sampled_from(issued))
            lsq.load_performed(seq)
            ref.performed(lq_of[seq])
        elif action == "commit_load":
            seq = data.draw(st.sampled_from(enabled[action]))
            index = lq_of.pop(seq)
            try:
                took = lsq.commit_load(seq)
            except RuntimeError as exc:
                with pytest.raises(RuntimeError, match=re.escape(str(exc))):
                    ref.commit_load(index, tso)
                return                  # the pipeline stops on a raise
            assert took == ref.commit_load(index, tso)
        elif action == "commit_store":
            lsq.commit_store(oldest_store)
            ref.commit_store(sq_of.pop(oldest_store))
        elif action == "drain":
            lsq.drain_store()
        elif action == "squash":
            first = data.draw(st.sampled_from(sorted({*lq_of, *sq_of})))
            lsq.squash(first)
            ref.squash(first)
            lq_of = {s: i for s, i in lq_of.items() if s < first}
            sq_of = {s: i for s, i in sq_of.items() if s < first}
            next_seq = first
        for seq, index in lq_of.items():
            assert lsq.load_is_nonspeculative(seq) == \
                ref.nonspeculative(index)
        assert lsq.ldt_occupancy() == ref.ldt.active_lockdowns()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_counts_equal_disambiguation_matrix(data):
    """Property: per-load counts of unresolved older stores and
    per-store bypasser lists give the memory disambiguation matrix's
    answers (Figure 6) over random LSQ histories."""
    _lockstep(data, tso=False)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_lockdown_counts_equal_lockdown_matrix(data):
    """Property: under TSO, per-lockdown counts of older loads not yet
    performed and a free-entry count give the lockdown matrix's
    answers (Figure 7), table-full raise included, over random LSQ
    histories."""
    _lockstep(data, tso=True)
