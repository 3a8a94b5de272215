"""LSQ unit: allocation, forwarding search, disambiguation, TSO mode."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        assert lsq.mdm.store_valid[entry]


class TestLoadLookup:
    def test_memory_when_no_stores(self):
        lsq = fresh()
        lsq.allocate_load(5)
        outcome, unresolved, match = lsq.load_lookup(5, 0x100)
        assert outcome == "memory" and match is None
        assert not unresolved.any()

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
        assert unresolved[entry]

    def test_unresolved_between_match_and_load_stays_flagged(self):
        lsq = fresh()
        lsq.allocate_store(1)          # will match
        blocker = lsq.allocate_store(2)  # unresolved, younger than match
        lsq.store_resolve(1, 0x100)
        lsq.allocate_load(3)
        outcome, unresolved, match = lsq.load_lookup(3, 0x100)
        assert outcome == "forward" and match == 1
        assert unresolved[blocker]

    def test_unresolved_older_than_match_cleared(self):
        lsq = fresh()
        lsq.allocate_store(1)          # stays unresolved (older)
        lsq.allocate_store(2)
        lsq.store_resolve(2, 0x100)    # the match supersedes store 1
        lsq.allocate_load(3)
        outcome, unresolved, match = lsq.load_lookup(3, 0x100)
        assert outcome == "forward" and match == 2
        assert not unresolved.any()

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
        lsq.load_issue(1, 0x100, np.zeros(8, dtype=bool))
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
        lsq.load_issue(2, 0x200, np.zeros(8, dtype=bool))
        lsq.load_performed(2)
        lsq.commit_load(2)                   # commits past load 1
        assert lsq.lockdown.is_locked(0x200)
        assert lsq.lockdowns_taken == 1

    def test_lockdown_lifts_when_older_performs(self):
        lsq = fresh(tso=True)
        lsq.allocate_load(1)
        lsq.load_issue(1, 0x100, np.zeros(8, dtype=bool))
        lsq.allocate_load(2)
        lsq.load_issue(2, 0x200, np.zeros(8, dtype=bool))
        lsq.load_performed(2)
        lsq.commit_load(2)
        assert lsq.lockdown.is_locked(0x200)
        released = lsq.load_performed(1)
        assert released == [0x200]
        assert not lsq.lockdown.is_locked(0x200)

    def test_ordered_commit_takes_no_lockdown(self):
        lsq = fresh(tso=True)
        lsq.allocate_load(1)
        lsq.load_issue(1, 0x100, np.zeros(8, dtype=bool))
        lsq.load_performed(1)
        lsq.commit_load(1)
        assert lsq.lockdowns_taken == 0

    def test_unperformed_commit_rejected_under_tso(self):
        lsq = fresh(tso=True)
        lsq.allocate_load(1)
        lsq.load_issue(1, 0x100, np.zeros(8, dtype=bool))
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
