"""Age matrix semantics: dispatch/remove, bit-count selection, criticality."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AgeMatrix


def mask(size, *indices):
    vec = np.zeros(size, dtype=bool)
    for idx in indices:
        vec[idx] = True
    return vec


class TestDispatchRemove:
    def test_dispatch_marks_valid(self):
        age = AgeMatrix(4)
        age.dispatch(2)
        assert age.valid[2]
        assert age.occupancy() == 1

    def test_double_dispatch_rejected(self):
        age = AgeMatrix(4)
        age.dispatch(1)
        with pytest.raises(ValueError):
            age.dispatch(1)

    def test_remove_invalid_rejected(self):
        age = AgeMatrix(4)
        with pytest.raises(ValueError):
            age.remove(0)

    def test_entry_reuse_fixes_stale_age(self):
        age = AgeMatrix(4)
        age.dispatch(0)          # oldest
        age.dispatch(1)
        age.remove(0)
        age.dispatch(0)          # entry 0 now holds the *youngest*
        assert age.age_order() == [1, 0]


class TestSelection:
    def test_single_oldest(self):
        age = AgeMatrix(8)
        for entry in (3, 5, 1):   # dispatch order = age order
            age.dispatch(entry)
        grant = age.select_single_oldest(mask(8, 3, 5, 1))
        assert list(np.flatnonzero(grant)) == [3]

    def test_single_oldest_respects_request(self):
        age = AgeMatrix(8)
        for entry in (3, 5, 1):
            age.dispatch(entry)
        grant = age.select_single_oldest(mask(8, 5, 1))
        assert list(np.flatnonzero(grant)) == [5]

    def test_bit_count_selects_width_oldest(self):
        age = AgeMatrix(8)
        for entry in (6, 2, 7, 0, 4):      # age order: 6,2,7,0,4
            age.dispatch(entry)
        grant = age.select_oldest(mask(8, 6, 2, 7, 0, 4), width=3)
        assert sorted(np.flatnonzero(grant)) == [2, 6, 7]

    def test_bit_count_with_partial_request(self):
        age = AgeMatrix(8)
        for entry in (6, 2, 7, 0, 4):
            age.dispatch(entry)
        # Only 7, 0, 4 request; two grants -> the two oldest of those.
        grant = age.select_oldest(mask(8, 7, 0, 4), width=2)
        assert sorted(np.flatnonzero(grant)) == [0, 7]

    def test_fewer_requests_than_width(self):
        age = AgeMatrix(8)
        age.dispatch(5)
        grant = age.select_oldest(mask(8, 5), width=4)
        assert list(np.flatnonzero(grant)) == [5]

    def test_empty_request(self):
        age = AgeMatrix(4)
        age.dispatch(0)
        grant = age.select_oldest(np.zeros(4, dtype=bool), width=2)
        assert not grant.any()

    def test_width_one_equals_single_oldest(self):
        age = AgeMatrix(8)
        for entry in (4, 1, 6):
            age.dispatch(entry)
        req = mask(8, 4, 1, 6)
        multi = age.select_oldest(req, width=1)
        single = age.select_single_oldest(req)
        assert (multi == single).all()


class TestOldestLocation:
    def test_oldest_overall(self):
        age = AgeMatrix(8)
        for entry in (2, 6, 0):
            age.dispatch(entry)
        assert age.oldest() == 2

    def test_oldest_among_subset(self):
        age = AgeMatrix(8)
        for entry in (2, 6, 0):
            age.dispatch(entry)
        assert age.oldest(mask(8, 6, 0)) == 6

    def test_oldest_empty_returns_none(self):
        age = AgeMatrix(4)
        assert age.oldest() is None

    def test_younger_than_column_read(self):
        age = AgeMatrix(8)
        for entry in (2, 6, 0):
            age.dispatch(entry)
        younger = age.younger_than(6)
        assert sorted(np.flatnonzero(younger)) == [0]
        assert sorted(np.flatnonzero(age.younger_than(2))) == [0, 6]

    def test_older_than_row_read(self):
        age = AgeMatrix(8)
        for entry in (2, 6, 0):
            age.dispatch(entry)
        assert sorted(np.flatnonzero(age.older_than(0))) == [2, 6]


class TestCriticality:
    def test_critical_appears_older_than_noncritical(self):
        age = AgeMatrix(8)
        age.dispatch(0, critical=False)      # older in time
        age.dispatch(1, critical=True)       # younger but critical
        grant = age.select_single_oldest(mask(8, 0, 1))
        assert list(np.flatnonzero(grant)) == [1]

    def test_criticals_ordered_among_themselves(self):
        age = AgeMatrix(8)
        age.dispatch(3, critical=True)
        age.dispatch(5, critical=True)
        assert age.age_order() == [3, 5]

    def test_noncriticals_ordered_after_criticals(self):
        age = AgeMatrix(8)
        age.dispatch(0)                      # non-critical, oldest in time
        age.dispatch(1, critical=True)
        age.dispatch(2)                      # non-critical
        age.dispatch(3, critical=True)
        assert age.age_order() == [1, 3, 0, 2]

    def test_bit_count_prioritizes_criticals_then_oldest(self):
        age = AgeMatrix(8)
        age.dispatch(0)
        age.dispatch(1)
        age.dispatch(2, critical=True)
        grant = age.select_oldest(mask(8, 0, 1, 2), width=2)
        assert sorted(np.flatnonzero(grant)) == [0, 2]

    def test_remove_clears_critical_flag(self):
        age = AgeMatrix(4)
        age.dispatch(1, critical=True)
        age.remove(1)
        age.dispatch(1)      # reused as non-critical
        assert not age.critical[1]


class TestGroupOps:
    def test_dispatch_group_order(self):
        age = AgeMatrix(8)
        age.dispatch_group([4, 2, 7])
        assert age.age_order() == [4, 2, 7]

    def test_remove_group(self):
        age = AgeMatrix(8)
        age.dispatch_group([4, 2, 7])
        age.remove_group([4, 7])
        assert age.age_order() == [2]

    def test_group_equals_sequential_noncritical(self):
        """A group dispatch must land the exact state a scalar
        dispatch loop would."""
        batched, scalar = AgeMatrix(8), AgeMatrix(8)
        batched.dispatch_group([4, 2, 7], [False, False, False])
        for entry in (4, 2, 7):
            scalar.dispatch(entry)
        assert (batched.matrix.bits == scalar.matrix.bits).all()
        assert (batched.valid == scalar.valid).all()
        assert (batched.critical == scalar.critical).all()

    def test_group_equals_sequential_critical_mix(self):
        batched, scalar = AgeMatrix(8), AgeMatrix(8)
        batched.dispatch_group([1, 5, 3], [False, True, False])
        for entry, critical in ((1, False), (5, True), (3, False)):
            scalar.dispatch(entry, critical=critical)
        assert (batched.matrix.bits == scalar.matrix.bits).all()
        assert (batched.valid == scalar.valid).all()
        assert (batched.critical == scalar.critical).all()

    def test_group_duplicate_entry_rejected(self):
        age = AgeMatrix(8)
        with pytest.raises(ValueError):
            age.dispatch_group([3, 3], [False, False])
        age.dispatch(2)
        with pytest.raises(ValueError):
            age.dispatch_group([2, 4], [False, False])


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_dispatch_group_matches_sequential(data):
    """Property: after any interleaving of group dispatches (random
    criticality) and removes, the group-dispatched matrix state is
    identical to a twin driven by scalar ``dispatch`` calls."""
    size = data.draw(st.integers(min_value=2, max_value=24))
    batched, scalar = AgeMatrix(size), AgeMatrix(size)
    for _ in range(data.draw(st.integers(min_value=1, max_value=20))):
        free = [e for e in range(size) if not batched.valid[e]]
        occupied = [e for e in range(size) if batched.valid[e]]
        if free and (not occupied or data.draw(st.booleans())):
            count = data.draw(st.integers(min_value=1,
                                          max_value=len(free)))
            entries = data.draw(st.permutations(free))[:count]
            flags = [data.draw(st.booleans()) for _ in entries]
            batched.dispatch_group(entries, flags)
            for entry, critical in zip(entries, flags):
                scalar.dispatch(entry, critical=critical)
        elif occupied:
            entry = data.draw(st.sampled_from(occupied))
            batched.remove(entry)
            scalar.remove(entry)
        assert (batched.matrix.bits == scalar.matrix.bits).all()
        assert (batched.valid == scalar.valid).all()
        assert (batched.critical == scalar.critical).all()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_bit_count_matches_oracle_order(data):
    """Property: select_oldest(req, w) == the w oldest requesters by true
    dispatch order, for random dispatch/remove interleavings."""
    size = data.draw(st.integers(min_value=2, max_value=24))
    age = AgeMatrix(size)
    dispatch_time = {}
    clock = 0
    for _ in range(data.draw(st.integers(min_value=1, max_value=60))):
        occupied = [e for e in range(size) if age.valid[e]]
        free = [e for e in range(size) if not age.valid[e]]
        if free and (not occupied or data.draw(st.booleans())):
            entry = data.draw(st.sampled_from(free))
            age.dispatch(entry)
            dispatch_time[entry] = clock
            clock += 1
        elif occupied:
            entry = data.draw(st.sampled_from(occupied))
            age.remove(entry)
            del dispatch_time[entry]

    occupied = [e for e in range(size) if age.valid[e]]
    if not occupied:
        return
    req_entries = data.draw(st.lists(st.sampled_from(occupied), unique=True))
    if not req_entries:
        return
    width = data.draw(st.integers(min_value=1, max_value=size))
    req = np.zeros(size, dtype=bool)
    req[req_entries] = True

    grant = age.select_oldest(req, width)
    oracle = sorted(req_entries, key=lambda e: dispatch_time[e])[:width]
    assert sorted(np.flatnonzero(grant)) == sorted(oracle)
