"""Branch predictors, BTB, RAS, and the trace-driven fetch unit."""

import random

import pytest

from repro.frontend import (BimodalPredictor, BranchTargetBuffer, FetchUnit,
                            GsharePredictor, ReturnAddressStack,
                            TagePredictor, make_predictor)
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
            takens = [g.instr for g in group
                      if g.instr.is_branch and g.instr.taken]
            if takens:
                assert group[-1].instr is takens[-1]

    def test_mispredict_stalls_until_resolved(self):
        trace = _loop_trace(iters=4)
        predictor = make_predictor("btfn")   # predicts not-taken: wrong
        fetch = FetchUnit(trace, predictor, width=4, redirect_penalty=3,
                          model_wrong_path=False)
        group = fetch.fetch(0)
        branch = next(g for g in group if g.mispredicted)
        assert fetch.fetch(1) == []          # stalled
        fetch.branch_resolved(branch.instr.seq, cycle=5)
        assert fetch.fetch(6) == []          # redirect penalty
        assert fetch.fetch(8) != []

    def test_wrong_path_emitted_while_stalled(self):
        trace = _loop_trace(iters=4)
        predictor = make_predictor("btfn")
        fetch = FetchUnit(trace, predictor, width=4,
                          model_wrong_path=True)
        fetch.fetch(0)                       # hits the mispredict
        wrong = fetch.fetch(1)
        assert wrong and all(g.wrong_path for g in wrong)
        assert all(g.instr.seq < 0 for g in wrong)

    def test_squash_to_rewinds(self):
        trace = _loop_trace()
        fetch = FetchUnit(trace, make_predictor("oracle"), width=4)
        fetch.fetch(0)
        fetch.squash_to(0, cycle=10)
        group = fetch.fetch(10 + fetch.redirect_penalty)
        assert group[0].instr.seq == 1
