"""Branch predictors, BTB, RAS, and the trace-driven fetch unit."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontend import (BimodalPredictor, BranchTargetBuffer, FetchUnit,
                            GsharePredictor, ReturnAddressStack,
                            TagePredictor, make_predictor)
from repro.frontend.fetch import _WP_OPCODES
from repro.isa import ProgramBuilder, trace_program

# gshare with no history bits indexes by PC alone, so one PC keeps
# hitting one counter and the counter rules show through predict()
TWO_BIT_PREDICTORS = {
    "BimodalPredictor": lambda: BimodalPredictor(entries=256),
    "GsharePredictor": lambda: GsharePredictor(entries=256, history_bits=0),
}


class ReferenceTwoBit:
    """Reference model: one 2-bit saturating counter object per index,
    indexed by PC XOR a global history of ``history_bits`` outcomes."""

    def __init__(self, entries, history_bits=0):
        self.entries = entries
        self.history_bits = history_bits
        self.history = 0
        self.counters = {}

    def _index(self, pc):
        return (pc ^ self.history) % self.entries

    def predict(self, pc):
        return self.counters.get(self._index(pc), 2) >= 2

    def update(self, pc, taken):
        index = self._index(pc)
        value = self.counters.get(index, 2)
        self.counters[index] = min(3, value + 1) if taken \
            else max(0, value - 1)
        self.history = ((self.history << 1) | taken) \
            % (1 << self.history_bits)


@pytest.mark.parametrize("make", TWO_BIT_PREDICTORS.values(),
                         ids=TWO_BIT_PREDICTORS.keys())
class TestTwoBitCounters:
    def test_saturates_high_and_low(self, make):
        p = make()
        for _ in range(10):
            p.update(12, True)
        assert p.predict(12)
        p.update(12, False)
        assert p.predict(12)      # 3 -> 2: ten takens counted only to 3
        p.update(12, False)
        assert not p.predict(12)
        for _ in range(10):
            p.update(12, False)
        p.update(12, True)
        assert not p.predict(12)  # 0 -> 1: saturated at 0
        p.update(12, True)
        assert p.predict(12)

    def test_hysteresis(self, make):
        p = make()
        for _ in range(3):
            p.update(12, True)
        p.update(12, False)
        assert p.predict(12)      # still predicts taken after one miss
        for _ in range(3):
            p.update(12, False)
        p.update(12, True)
        assert not p.predict(12)  # and not-taken after one hit


@pytest.mark.parametrize("cls,history_bits", [
    (BimodalPredictor, 0), (GsharePredictor, 4), (GsharePredictor, 12)])
def test_two_bit_predictors_match_reference_model(cls, history_bits):
    rng = random.Random(history_bits)
    if cls is BimodalPredictor:
        p = cls(entries=64)
    else:
        p = cls(entries=64, history_bits=history_bits)
    ref = ReferenceTwoBit(64, history_bits)
    pcs = [rng.randrange(1 << 16) for _ in range(40)]
    for _ in range(5000):
        pc = rng.choice(pcs)
        # biased per-PC outcomes so counters walk the whole 0..3 range
        taken = rng.random() < (0.9 if pc & 1 else 0.2)
        assert p.predict(pc) == ref.predict(pc)
        p.update(pc, taken)
        ref.update(pc, taken)


class TestDirectionPredictors:
    @pytest.mark.parametrize("cls", [BimodalPredictor, GsharePredictor])
    def test_learns_constant_direction(self, cls):
        p = cls(entries=256)
        for _ in range(8):
            p.update(12, True)
        assert p.predict(12)

    def test_bimodal_power_of_two_required(self):
        with pytest.raises(ValueError):
            BimodalPredictor(entries=100)

    def test_gshare_uses_history(self):
        p = GsharePredictor(entries=1024, history_bits=4)
        # alternating pattern at one PC: gshare can learn it, bimodal not
        for _ in range(64):
            p.update(5, True)
            p.update(5, False)
        first = p.predict(5)
        p.update(5, first)
        second = p.predict(5)
        assert isinstance(first, bool) and isinstance(second, bool)

    def test_tage_learns_loop_pattern(self):
        p = TagePredictor(num_tables=4, table_entries=128)
        # loop taken 7 times then not taken, repeated
        mispredicts = 0
        for rep in range(80):
            for i in range(8):
                taken = i != 7
                if p.predict(42) != taken:
                    mispredicts += 1
                p.update(42, taken)
        # after warmup TAGE should track the period-8 pattern well
        last_round_mispredicts = 0
        for i in range(8):
            taken = i != 7
            if p.predict(42) != taken:
                last_round_mispredicts += 1
            p.update(42, taken)
        assert last_round_mispredicts <= 1

    def test_tage_geometric_history_lengths(self):
        p = TagePredictor(num_tables=5, min_history=4, max_history=64)
        lengths = p.history_lengths
        assert lengths[0] == 4 and lengths[-1] == 64
        assert all(a < b for a, b in zip(lengths, lengths[1:]))

    def test_tage_useful_aging_halves_useful_only(self):
        """Every ``useful_reset_period`` updates, all useful counters
        halve; tags and prediction counters are untouched.  A twin that
        never ages sees the same stream, so after exactly one period
        the two differ only in the halved useful values."""
        period = 512
        aging = TagePredictor(num_tables=4, table_entries=64,
                              useful_reset_period=period)
        twin = TagePredictor(num_tables=4, table_entries=64,
                             useful_reset_period=10 ** 9)
        for n in range(period):
            pc, taken = (42 if n % 3 else 17), n % 8 != 7
            for p in (aging, twin):
                p.predict(pc)
                p.update(pc, taken)
            if n == period - 2:
                assert aging.useful == twin.useful    # not aged yet
        assert any(u >= 2 for table in twin.useful for u in table)
        assert aging.useful == [[u >> 1 for u in table]
                                for table in twin.useful]
        assert aging.tags == twin.tags
        assert aging.counters == twin.counters


class ReferenceTage:
    """TAGE hashing each table's history from scratch on every lookup —
    the ``_folded_history`` / ``_index`` / ``_tag`` definition that
    :class:`TagePredictor`'s per-branch lookup and folded registers
    must reproduce.  Prediction and update are otherwise the same
    algorithm, over the same flat tables."""

    def __init__(self, num_tables=6, table_entries=512, min_history=4,
                 max_history=128, tag_bits=9, base_entries=4096,
                 useful_reset_period=256 * 1024):
        shape = TagePredictor(num_tables, table_entries, min_history,
                              max_history, tag_bits, base_entries,
                              useful_reset_period)
        self.base = BimodalPredictor(base_entries)
        self.num_tables = num_tables
        self.table_entries = table_entries
        self.tag_bits = tag_bits
        self.tag_mask = (1 << tag_bits) - 1
        self.useful_reset_period = useful_reset_period
        self.history_lengths = shape.history_lengths
        self.tags = [[0] * table_entries for _ in range(num_tables)]
        self.counters = [[4] * table_entries for _ in range(num_tables)]
        self.useful = [[0] * table_entries for _ in range(num_tables)]
        self.history = 0
        self.history_bits = max_history
        self._updates = 0
        self._provider = None
        self._provider_index = 0
        self._alt_pred = False
        self._provider_pred = False

    def _folded_history(self, length, bits):
        history = self.history & ((1 << length) - 1)
        folded = 0
        while history:
            folded ^= history & ((1 << bits) - 1)
            history >>= bits
        return folded

    def _index(self, table, pc):
        length = self.history_lengths[table]
        bits = self.table_entries.bit_length() - 1
        return (pc ^ (pc >> bits) ^ self._folded_history(length, bits)) \
            & (self.table_entries - 1)

    def _tag(self, table, pc):
        length = self.history_lengths[table]
        return (pc ^ self._folded_history(length, self.tag_bits)
                ^ (self._folded_history(length, self.tag_bits - 1) << 1)) \
            & self.tag_mask

    def predict(self, pc):
        self._provider = None
        self._alt_pred = self.base.predict(pc)
        prediction = self._alt_pred
        found_alt = False
        for table in range(self.num_tables - 1, -1, -1):
            index = self._index(table, pc)
            if self.tags[table][index] == self._tag(table, pc):
                counter = self.counters[table][index]
                if self._provider is None:
                    self._provider = table
                    self._provider_index = index
                    self._provider_pred = counter >= 4
                    prediction = self._provider_pred
                else:
                    self._alt_pred = counter >= 4
                    found_alt = True
                    break
        if self._provider is not None and not found_alt:
            self._alt_pred = self.base.predict(pc)
        return prediction

    def update(self, pc, taken):
        if self._provider is not None:
            index = self._provider_index
            useful = self.useful[self._provider]
            counters = self.counters[self._provider]
            mispredicted = self._provider_pred != taken
            if self._provider_pred != self._alt_pred:
                useful[index] = min(3, useful[index] + 1) \
                    if self._provider_pred == taken \
                    else max(0, useful[index] - 1)
            counters[index] = min(7, counters[index] + 1) if taken \
                else max(0, counters[index] - 1)
        else:
            mispredicted = self.base.predict(pc) != taken
        self.base.update(pc, taken)
        if mispredicted:
            start = (self._provider + 1) if self._provider is not None \
                else 0
            for table in range(start, self.num_tables):
                index = self._index(table, pc)
                if self.useful[table][index] == 0:
                    self.tags[table][index] = self._tag(table, pc)
                    self.counters[table][index] = 4 if taken else 3
                    break
            else:
                for table in range(start, self.num_tables):
                    index = self._index(table, pc)
                    self.useful[table][index] = \
                        max(0, self.useful[table][index] - 1)
        self.history = ((self.history << 1) | int(taken)) \
            & ((1 << self.history_bits) - 1)
        self._updates += 1
        if self._updates % self.useful_reset_period == 0:
            self.useful = [[value >> 1 for value in table]
                           for table in self.useful]


#: predictor shapes: the default (index and 9-bit tag folds coincide),
#: narrower tables (they differ), a wide tag and longer history
TAGE_SHAPES = [
    {},
    {"num_tables": 4, "table_entries": 128},
    {"num_tables": 5, "table_entries": 64, "tag_bits": 11,
     "max_history": 200, "useful_reset_period": 64},
]


@settings(max_examples=60, deadline=None)
@given(shape=st.sampled_from(TAGE_SHAPES), data=st.data())
def test_tage_lookup_matches_per_table_hashes(shape, data):
    """Property: after any branch history, one lookup gives every
    table's ``(index, tag)`` as hashing that table's history from
    scratch does, for any pc.  The history is a random full-width
    integer, shifted in oldest bit first."""
    tage, ref = TagePredictor(**shape), ReferenceTage(**shape)
    history = data.draw(st.integers(0, (1 << tage.history_bits) - 1))
    for bit in reversed(range(tage.history_bits)):
        tage._push_history(bool(history >> bit & 1))
    assert tage.history == history
    ref.history = history
    for pc in data.draw(st.lists(st.integers(0, 1 << 20), min_size=1,
                                 max_size=8)):
        tage._lookup(pc)
        assert tage._indices == [ref._index(t, pc)
                                 for t in range(ref.num_tables)]
        assert tage._tags == [ref._tag(t, pc)
                              for t in range(ref.num_tables)]


@settings(max_examples=40, deadline=None)
@given(shape=st.sampled_from(TAGE_SHAPES), data=st.data())
def test_tage_matches_reference_on_a_branch_stream(shape, data):
    """Property: a random branch stream (a few hot pcs with biased
    outcomes, so tables allocate, hit and age) gets the same prediction
    at every branch, and leaves the same tables and history, as the
    from-scratch reference."""
    tage, ref = TagePredictor(**shape), ReferenceTage(**shape)
    pcs = data.draw(st.lists(st.integers(0, 4095), min_size=1,
                             max_size=6))
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    for _ in range(data.draw(st.integers(1, 600))):
        pc = rng.choice(pcs)
        taken = rng.random() < 0.7 if pc % 2 else rng.random() < 0.2
        assert tage.predict(pc) == ref.predict(pc)
        tage.update(pc, taken)
        ref.update(pc, taken)
    assert tage.history == ref.history
    assert tage.tags == ref.tags
    assert tage.counters == ref.counters
    assert tage.useful == ref.useful


class TestBTB:
    def test_miss_then_hit(self):
        btb = BranchTargetBuffer(sets=16, ways=2)
        assert btb.lookup(100) is None
        btb.insert(100, 200)
        assert btb.lookup(100) == 200

    def test_lru_eviction_within_set(self):
        btb = BranchTargetBuffer(sets=1, ways=2)
        btb.insert(1, 10)
        btb.insert(2, 20)
        btb.lookup(1)            # 1 is now MRU
        btb.insert(3, 30)        # evicts 2
        assert btb.lookup(2) is None
        assert btb.lookup(1) == 10


class TestRAS:
    def test_push_pop(self):
        ras = ReturnAddressStack(depth=4)
        ras.push(10)
        ras.push(20)
        assert ras.pop() == 20
        assert ras.pop() == 10
        assert ras.pop() is None

    def test_overflow_drops_oldest(self):
        ras = ReturnAddressStack(depth=2)
        ras.push(1)
        ras.push(2)
        ras.push(3)
        assert ras.pop() == 3
        assert ras.pop() == 2
        assert ras.pop() is None


def _loop_trace(iters=20):
    b = ProgramBuilder("loop")
    b.li("x1", 0).li("x2", iters)
    b.label("loop")
    b.addi("x1", "x1", 1)
    b.blt("x1", "x2", "loop")
    b.halt()
    return trace_program(b.build())


class TestPredictorFacade:
    def test_oracle_never_mispredicts(self):
        trace = _loop_trace()
        predictor = make_predictor("oracle")
        for instr in trace:
            if instr.is_branch:
                assert not predictor.predict(instr)
        assert predictor.accuracy() == 1.0

    def test_tage_learns_the_loop(self):
        trace = _loop_trace(iters=50)
        predictor = make_predictor("tage")
        mispredicts = sum(predictor.predict(i) for i in trace if i.is_branch)
        assert mispredicts <= 5

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_predictor("nope")

    def test_jalr_return_predicted_by_ras(self):
        b = ProgramBuilder("call")
        b.jal("x1", "fn")
        b.halt()
        b.label("fn")
        b.jalr("x0", "x1")
        trace = trace_program(b.build())
        predictor = make_predictor("tage")
        results = [predictor.predict(i) for i in trace if i.is_branch]
        assert results == [False, False]   # call then correctly-popped return


class TestFetchUnit:
    def test_fetch_width_respected(self):
        trace = _loop_trace()
        fetch = FetchUnit(trace, make_predictor("oracle"), width=2)
        group = fetch.fetch(0)
        assert len(group) <= 2

    def test_taken_branch_ends_group(self):
        trace = _loop_trace()
        fetch = FetchUnit(trace, make_predictor("oracle"), width=8)
        seen = []
        cycle = 0
        while not fetch.exhausted() and cycle < 100:
            group = fetch.fetch(cycle)
            if group:
                seen.append(group)
            cycle += 1
        for group in seen:
            takens = [instr for instr in group
                      if instr.is_branch and instr.taken]
            if takens:
                assert group[-1] is takens[-1]

    def test_mispredict_stalls_until_resolved(self):
        trace = _loop_trace(iters=4)
        predictor = make_predictor("btfn")   # predicts not-taken: wrong
        fetch = FetchUnit(trace, predictor, width=4, redirect_penalty=3,
                          model_wrong_path=False)
        group = fetch.fetch(0)
        # the mispredicted branch ends its group, and fetch stalls on it
        branch = group[-1]
        assert branch.is_branch and fetch.stalled_on == branch.seq
        assert all(instr.seq < branch.seq for instr in group[:-1])
        assert fetch.fetch(1) == []          # stalled
        fetch.branch_resolved(branch.seq, cycle=5)
        assert fetch.stalled_on is None
        assert fetch.fetch(6) == []          # redirect penalty
        assert fetch.fetch(8) != []

    def test_wrong_path_emitted_while_stalled(self):
        trace = _loop_trace(iters=4)
        predictor = make_predictor("btfn")
        fetch = FetchUnit(trace, predictor, width=4,
                          model_wrong_path=True)
        fetch.fetch(0)                       # hits the mispredict
        assert fetch.stalled_on is not None
        wrong = fetch.fetch(1) + fetch.fetch(2)
        assert len(wrong) == 8 and fetch.wrong_path_fetched == 8
        # synthetic records, none of them the trace's: the k-th has
        # opcode _WP_OPCODES[k % 6] (its op takes seq -k)
        in_trace = {id(instr) for instr in trace}
        assert not any(id(instr) in in_trace for instr in wrong)
        assert all(instr.seq < 0 and instr.pc == -1 for instr in wrong)
        assert [instr.opcode for instr in wrong] == \
            [_WP_OPCODES[k % 6] for k in range(1, 9)]
        # one shared record per slot: k = 1..6 are six records, and
        # k = 7 and 8 reuse those of k = 1 and 2
        assert len({id(instr) for instr in wrong}) == 6
        assert wrong[6] is wrong[0] and wrong[7] is wrong[1]

    def test_squash_to_rewinds(self):
        trace = _loop_trace()
        fetch = FetchUnit(trace, make_predictor("oracle"), width=4)
        fetch.fetch(0)
        fetch.squash_to(0, cycle=10)
        group = fetch.fetch(10 + fetch.redirect_penalty)
        assert group[0].seq == 1
