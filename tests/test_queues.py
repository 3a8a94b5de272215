"""Queue organizations: SHIFT / CIRC / RAND semantics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.queues import CircularQueue, CollapsibleQueue, RandomQueue


class TestRandomQueue:
    def test_allocates_until_full(self):
        q = RandomQueue(3)
        entries = [q.allocate() for _ in range(3)]
        assert sorted(entries) == [0, 1, 2]
        assert q.allocate() is None
        assert q.alloc_failures == 1

    def test_free_any_order(self):
        q = RandomQueue(3)
        entries = [q.allocate() for _ in range(3)]
        q.free(entries[1])
        assert q.allocatable == 1
        assert q.allocate() == entries[1]

    def test_double_free_rejected(self):
        q = RandomQueue(2)
        entry = q.allocate()
        q.free(entry)
        with pytest.raises(ValueError):
            q.free(entry)

    def test_occupancy_tracks(self):
        q = RandomQueue(4)
        a = q.allocate()
        q.allocate()
        q.free(a)
        assert q.occupancy() == 1
        assert q.allocatable == 3

    def test_no_capacity_loss_under_ooo_free(self):
        """RAND is capacity-efficient: any free slot is allocatable."""
        q = RandomQueue(4)
        entries = [q.allocate() for _ in range(4)]
        q.free(entries[2])
        q.free(entries[0])
        assert q.allocatable == 2


class TestCircularQueue:
    def test_fifo_when_freed_in_order(self):
        q = CircularQueue(3)
        entries = [q.allocate() for _ in range(3)]
        for entry in entries:
            q.free(entry)
        assert q.allocatable == 3

    def test_gap_blocks_capacity(self):
        """Figure 1(b): freeing a middle entry does not free its slot."""
        q = CircularQueue(3)
        entries = [q.allocate() for _ in range(3)]
        q.free(entries[1])          # middle: becomes a gap
        assert q.occupancy() == 2
        assert q.allocatable == 0          # still full!
        assert q.gaps() == 1
        q.free(entries[0])          # head: reclaims itself AND the gap
        assert q.allocatable == 2

    def test_wraparound(self):
        q = CircularQueue(3)
        for _ in range(7):
            entry = q.allocate()
            q.free(entry)
        assert q.allocatable == 3

    def test_alloc_failure_counted(self):
        q = CircularQueue(2)
        q.allocate()
        q.allocate()
        assert q.allocate() is None
        assert q.alloc_failures == 1

    def test_gap_statistics(self):
        q = CircularQueue(4)
        entries = [q.allocate() for _ in range(3)]
        q.free(entries[1])
        q.tick()
        assert q.gap_slots == 1


class TestCollapsibleQueue:
    def test_handles_stable_across_compaction(self):
        q = CollapsibleQueue(4)
        handles = [q.allocate() for _ in range(4)]
        q.free(handles[0])
        # remaining handles still resolve, now shifted down
        assert q.position(handles[1]) == 0
        assert q.position(handles[3]) == 2

    def test_shift_ops_counted(self):
        q = CollapsibleQueue(4)
        handles = [q.allocate() for _ in range(4)]
        q.free(handles[0])          # 3 entries shift
        assert q.shift_ops == 3
        q.free(handles[3])          # tail: nothing shifts
        assert q.shift_ops == 3

    def test_positional_order_is_age_order(self):
        q = CollapsibleQueue(4)
        h0 = q.allocate()
        h1 = q.allocate()
        q.free(h0)
        h2 = q.allocate()
        assert q.handles_oldest_first() == [h1, h2]

    def test_capacity_efficient(self):
        q = CollapsibleQueue(2)
        h0 = q.allocate()
        q.allocate()
        assert q.allocate() is None
        q.free(h0)
        assert q.allocate() is not None

    def test_free_unknown_handle(self):
        q = CollapsibleQueue(2)
        with pytest.raises(ValueError):
            q.free(99)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_rand_never_loses_capacity_circ_may(data):
    """Property: RAND's and SHIFT's allocatable == size - occupancy
    always; CIRC's allocatable == size - count (slots between head and
    tail, gaps included), so it is <= RAND's, with equality when frees
    arrive in FIFO order.  Each queue keeps the count itself, so this
    also holds the attribute to the queue's own state after every
    allocate and free."""
    size = data.draw(st.integers(min_value=2, max_value=12))
    rand, circ = RandomQueue(size), CircularQueue(size)
    shift = CollapsibleQueue(size)
    live = []
    for _ in range(data.draw(st.integers(min_value=1, max_value=60))):
        if live and data.draw(st.booleans()):
            idx = data.draw(st.integers(min_value=0, max_value=len(live) - 1))
            r_entry, c_entry, s_entry = live.pop(idx)
            rand.free(r_entry)
            circ.free(c_entry)
            shift.free(s_entry)
        else:
            r_entry = rand.allocate()
            c_entry = circ.allocate()
            s_entry = shift.allocate()
            # SHIFT and RAND are both capacity-efficient
            assert (r_entry is None) == (s_entry is None)
            if r_entry is None or c_entry is None:
                # CIRC may fill first due to gaps — RAND must not be the
                # one that fails if CIRC succeeded
                assert not (r_entry is None and c_entry is not None)
                if c_entry is not None:
                    circ.free(c_entry)
                if r_entry is not None:
                    rand.free(r_entry)
                    shift.free(s_entry)
            else:
                live.append((r_entry, c_entry, s_entry))
        assert rand.allocatable == size - rand.occupancy()
        assert shift.allocatable == size - shift.occupancy()
        assert circ.allocatable == size - circ.count
        assert circ.allocatable <= rand.allocatable
