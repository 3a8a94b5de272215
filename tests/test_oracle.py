"""The packed outcome enumerations against their tuple references.

``repro.verify.oracle`` and ``repro.verify.witness.compose_outcomes``
search on ints packed by :class:`~repro.verify.oracle.OutcomeCodec`.
The ``reference_*`` functions below are the representation they
replaced: the same memoized futures DFS over the same states, with
every future a nested tuple ``((bindings...), final memory)``.  The
properties hold the packed searches equal to them, and the campaign's
composition memo to composing every combo afresh.
"""

from typing import Dict, FrozenSet, Optional, Set, Tuple

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.verify import campaign
from repro.verify.generator import (CLASSIC_SHAPES, VerifyProgram,
                                    generate_programs)
from repro.verify.oracle import OutcomeCodec, _allowed_cached, allowed_outcomes
from repro.verify.witness import AppEvent, compose_outcomes


# -- the tuple references -----------------------------------------------------

def _canonical(bindings, memory, addrs):
    return (tuple(sorted(bindings)), tuple(zip(addrs, memory)))


def reference_tso_outcomes(program: VerifyProgram) -> Set:
    """TSO: per-thread pc plus a per-thread FIFO store buffer."""
    threads = program.threads
    addrs = program.addrs
    addr_index = {a: i for i, a in enumerate(addrs)}
    n = len(threads)
    memo: Dict[Tuple, FrozenSet] = {}

    def explore(pcs, buffers, memory):
        key = (pcs, buffers, memory)
        cached = memo.get(key)
        if cached is not None:
            return cached
        futures = set()
        moved = False
        for t in range(n):
            ops = threads[t]
            buf = buffers[t]
            if pcs[t] < len(ops):
                op = ops[pcs[t]]
                if op.kind == "fence" and buf:
                    pass                     # fence waits for own drain
                else:
                    moved = True
                    pcs2 = pcs[:t] + (pcs[t] + 1,) + pcs[t + 1:]
                    if op.kind == "store":
                        buf2 = buffers[:t] + (buf + ((op.addr, op.value),),) \
                            + buffers[t + 1:]
                        for sub in explore(pcs2, buf2, memory):
                            futures.add(sub)
                    elif op.kind == "load":
                        value = None
                        for a, v in reversed(buf):
                            if a == op.addr:
                                value = v
                                break
                        if value is None:
                            value = memory[addr_index[op.addr]]
                        bind = ((t, pcs[t]), value)
                        for binds, final in explore(pcs2, buffers, memory):
                            futures.add(((bind,) + binds, final))
                    else:
                        for sub in explore(pcs2, buffers, memory):
                            futures.add(sub)
            if buf:
                moved = True
                addr, value = buf[0]
                buf2 = buffers[:t] + (buf[1:],) + buffers[t + 1:]
                i = addr_index[addr]
                mem2 = memory[:i] + (value,) + memory[i + 1:]
                for sub in explore(pcs, buf2, mem2):
                    futures.add(sub)
        if not moved:
            futures.add(((), memory))
        result = frozenset(futures)
        memo[key] = result
        return result

    finals = explore(tuple(0 for _ in range(n)),
                     tuple(() for _ in range(n)), tuple(0 for _ in addrs))
    memo.clear()
    return {_canonical(binds, mem, addrs) for binds, mem in finals}


def reference_rvwmo_outcomes(program: VerifyProgram) -> Set:
    """RVWMO: ops performed individually, ordered by fences and
    same-address po; a load forwards from the youngest po-earlier
    undone same-address store."""
    threads = program.threads
    addrs = program.addrs
    addr_index = {a: i for i, a in enumerate(addrs)}
    n = len(threads)
    memo: Dict[Tuple, FrozenSet] = {}

    def ready(t, i, done):
        ops = threads[t]
        op = ops[i]
        for j in range(i):
            prior = ops[j]
            if done >> j & 1:
                continue
            if prior.kind == "fence":
                return False
            if op.kind == "fence":
                return False
            if op.kind == "store" and prior.kind in ("store", "load") \
                    and prior.addr == op.addr:
                return False
        return True

    def forward_value(t, i, done) -> Optional[int]:
        ops = threads[t]
        addr = ops[i].addr
        for j in range(i - 1, -1, -1):
            prior = ops[j]
            if prior.kind == "store" and prior.addr == addr:
                if done >> j & 1:
                    return None
                return prior.value
        return None

    def explore(done, memory):
        key = (done, memory)
        cached = memo.get(key)
        if cached is not None:
            return cached
        futures = set()
        moved = False
        for t in range(n):
            ops = threads[t]
            mask = done[t]
            for i, op in enumerate(ops):
                if mask >> i & 1 or not ready(t, i, mask):
                    continue
                moved = True
                done2 = done[:t] + (mask | 1 << i,) + done[t + 1:]
                if op.kind == "store":
                    k = addr_index[op.addr]
                    mem2 = memory[:k] + (op.value,) + memory[k + 1:]
                    for sub in explore(done2, mem2):
                        futures.add(sub)
                elif op.kind == "load":
                    value = forward_value(t, i, mask)
                    if value is None:
                        value = memory[addr_index[op.addr]]
                    bind = ((t, i), value)
                    for binds, final in explore(done2, memory):
                        futures.add(((bind,) + binds, final))
                else:
                    for sub in explore(done2, memory):
                        futures.add(sub)
        if not moved:
            futures.add(((), memory))
        result = frozenset(futures)
        memo[key] = result
        return result

    finals = explore(tuple(0 for _ in range(n)), tuple(0 for _ in addrs))
    memo.clear()
    return {_canonical(binds, mem, addrs) for binds, mem in finals}


REFERENCES = {"tso": reference_tso_outcomes,
              "rvwmo": reference_rvwmo_outcomes}


def reference_compose_outcomes(program: VerifyProgram, sequences) -> FrozenSet:
    """Every merge of the per-thread apparent sequences."""
    addrs = program.addrs
    addr_index = {a: i for i, a in enumerate(addrs)}
    n = len(sequences)
    memo: Dict[Tuple, FrozenSet] = {}

    def explore(positions, memory):
        key = (positions, memory)
        cached = memo.get(key)
        if cached is not None:
            return cached
        futures = set()
        moved = False
        for t in range(n):
            pos = positions[t]
            if pos >= len(sequences[t]):
                continue
            moved = True
            event = sequences[t][pos]
            positions2 = positions[:t] + (pos + 1,) + positions[t + 1:]
            if event.kind == "drain":
                k = addr_index[event.addr]
                mem2 = memory[:k] + (event.value,) + memory[k + 1:]
                for sub in explore(positions2, mem2):
                    futures.add(sub)
            else:
                value = event.value
                if value is None:
                    value = memory[addr_index[event.addr]]
                bind = ((t, event.index), value)
                for binds, final in explore(positions2, memory):
                    futures.add(((bind,) + binds, final))
        if not moved:
            futures.add(((), memory))
        result = frozenset(futures)
        memo[key] = result
        return result

    finals = explore(tuple(0 for _ in range(n)), tuple(0 for _ in addrs))
    return frozenset(_canonical(binds, mem, addrs) for binds, mem in finals)


# -- the codec ----------------------------------------------------------------

class TestCodec:
    def test_decode_is_canonical(self):
        program = CLASSIC_SHAPES["mp_stress"]
        codec = OutcomeCodec(program)
        assert codec.values == (0, 1, 2)
        assert codec.loads == ((1, 0), (1, 1), (1, 2))
        packed = 0
        for key, value in (((1, 0), 0), ((1, 1), 2), ((1, 2), 1)):
            packed |= codec.index[value] << codec.load_shift[key]
        for addr, value in zip(program.addrs, (1, 2, 0)):
            packed |= codec.index[value] << codec.addr_shift[addr]
        assert codec.decode(packed) == (
            (((1, 0), 0), ((1, 1), 2), ((1, 2), 1)),
            tuple(zip(program.addrs, (1, 2, 0))))

    def test_every_store_value_has_an_index(self):
        """One table for the whole program: a load can bind a value
        stored to another address and still decode (a faulty pipeline
        reports a violation, not a ``KeyError``)."""
        program = CLASSIC_SHAPES["sb"]
        x, y = program.addrs
        # thread 0's load of y binds x's store value 1: never allowed
        bad = [[AppEvent(0, 0, "drain", x, 1),
                AppEvent(1, 1, "load", y, 1)],
               [AppEvent(0, 0, "drain", y, 2),
                AppEvent(1, 1, "load", x, None)]]
        composed = compose_outcomes(program, bad)
        assert composed == reference_compose_outcomes(program, bad)
        assert all(dict(binds)[(0, 1)] == 1 for binds, _ in composed)
        assert not composed & allowed_outcomes(program, "rvwmo")


# -- the oracle ---------------------------------------------------------------

@settings(max_examples=2, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_packed_oracle_matches_reference(seed):
    """Every program of a drawn 40-program campaign set has the same
    allowed set under both models, packed and by tuples.  A seed has no
    simpler form worth seconds of reference runs, so a failure is not
    shrunk; the message names the program and the model."""
    for program in generate_programs(seed, 40):
        for model, reference in REFERENCES.items():
            _allowed_cached.cache_clear()
            assert allowed_outcomes(program, model) == \
                reference(program), (program.name, model)


# -- composition --------------------------------------------------------------

@st.composite
def _apparent_orders(draw):
    """A generated program and, per thread, a random order of its loads
    and drains; each load binds None (read memory at its merge point)
    or the value of a po-earlier same-address store of its thread."""
    seed = draw(st.integers(0, 2 ** 32 - 1))
    index = draw(st.integers(0, 39))
    program = generate_programs(seed, index + 1)[index]
    sequences = []
    for ops in program.threads:
        events = []
        for i, op in enumerate(ops):
            if op.kind == "store":
                events.append(AppEvent(0, i, "drain", op.addr, op.value))
            elif op.kind == "load":
                sources = [None] + [prior.value for prior in ops[:i]
                                    if prior.kind == "store"
                                    and prior.addr == op.addr]
                events.append(AppEvent(0, i, "load", op.addr,
                                       draw(st.sampled_from(sources))))
        order = draw(st.permutations(events))
        sequences.append([AppEvent(k, e.index, e.kind, e.addr, e.value)
                          for k, e in enumerate(order)])
    return program, sequences


@settings(max_examples=100, deadline=None)
@given(case=_apparent_orders())
def test_packed_composition_matches_reference(case):
    program, sequences = case
    assert compose_outcomes(program, sequences) == \
        reference_compose_outcomes(program, sequences)


# -- the campaign's composition memo ------------------------------------------

def _program_order(program, t):
    """Thread ``t``'s events in program order: a drain per store, a
    load reading memory per load."""
    events = []
    for i, op in enumerate(program.threads[t]):
        if op.kind == "store":
            events.append(AppEvent(i, i, "drain", op.addr, op.value))
        elif op.kind == "load":
            events.append(AppEvent(i, i, "load", op.addr, None))
    return events


class TestCompositionMemo:
    GRID = [("rvwmo", "ioc"), ("rvwmo", "rob"), ("tso", "ioc")]

    @pytest.fixture
    def composes(self, monkeypatch):
        calls = []

        def counted(program, sequences):
            calls.append(sequences)
            return compose_outcomes(program, sequences)

        monkeypatch.setattr(campaign, "compose_outcomes", counted)
        return calls

    def test_each_distinct_composition_runs_once(self, monkeypatch,
                                                 composes):
        """Every combo's apparent order is program order here, with a
        different ``apparent`` cycle per combo: one composition serves
        all three, and the healthy verdict stands."""
        combo = iter(range(10 ** 6))

        def apparent(program, t, witness, model):
            shift = next(combo)
            return [AppEvent(e.apparent + shift, e.index, e.kind, e.addr,
                             e.value) for e in _program_order(program, t)]

        monkeypatch.setattr(campaign, "apparent_order", apparent)
        result = campaign.verify_program(CLASSIC_SHAPES["sb"],
                                         grid=self.GRID)
        assert result["combos"] == 3 and result["violations"] == []
        assert len(composes) == 1

    def test_a_bound_value_is_part_of_the_key(self, monkeypatch, composes):
        """The last combo's order differs from the others only in one
        load's bound value, which makes its outcome disallowed: it must
        be composed afresh and flagged."""
        program = CLASSIC_SHAPES["sb"]
        y = program.addrs[1]
        calls = []

        def apparent(program, t, witness, model):
            calls.append(t)
            events = _program_order(program, t)
            if len(calls) > 2 * (len(self.GRID) - 1) and t == 0:
                # thread 0's load of y binds x's store value
                events[1] = AppEvent(1, 1, "load", y, 1)
            return events

        monkeypatch.setattr(campaign, "apparent_order", apparent)
        result = campaign.verify_program(program, grid=self.GRID)
        assert [v["cell"] for v in result["violations"]] == \
            [campaign.cell_name("sb", "tso", "ioc")]
        assert len(composes) == 2

