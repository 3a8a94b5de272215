"""Issue selection policies: order-key ranking vs the IQ age matrix."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AgeMatrix
from repro.pipeline import FUType
from repro.scheduler import (AgeSelect, IdealSelect, MultSelect,
                             OrinocoSelect, RandomSelect, SelectContext,
                             make_select_policy, order_key)
from repro.scheduler.policies import shuffle


def make_ctx(entries_with_fu, dispatch_order, fu_available, width,
             critical=()):
    """entries_with_fu: dict entry -> FUType; dispatch_order: list of
    entries oldest-first."""
    stamp = {entry: i for i, entry in enumerate(dispatch_order, start=1)}
    return SelectContext(
        entries=sorted(entries_with_fu),
        fu_of=lambda e: entries_with_fu[e],
        age_of=lambda e: stamp[e],
        priority_of=lambda e: order_key(stamp[e], e in critical),
        fu_available=fu_available,
        width=width,
        rng=random.Random(1))


FULL_FU = {FUType.ALU: 3, FUType.MULDIV: 1, FUType.FPU: 2,
           FUType.LOAD: 1, FUType.STORE: 1}


class TestOrinocoSelect:
    def test_selects_width_oldest(self):
        ctx = make_ctx({e: FUType.ALU for e in (1, 2, 3)},
                       dispatch_order=[3, 1, 2],
                       fu_available=FULL_FU, width=2)
        granted = OrinocoSelect().select(ctx)
        assert sorted(granted) == [1, 3]

    def test_respects_fu_caps(self):
        ctx = make_ctx({1: FUType.MULDIV, 2: FUType.MULDIV, 3: FUType.ALU},
                       dispatch_order=[1, 2, 3],
                       fu_available=FULL_FU, width=4)
        granted = OrinocoSelect().select(ctx)
        assert 1 in granted and 3 in granted
        assert 2 not in granted          # only one MULDIV unit

    def test_clips_to_width_globally_oldest(self):
        fus = {1: FUType.ALU, 2: FUType.ALU, 3: FUType.FPU, 4: FUType.LOAD}
        ctx = make_ctx(fus, dispatch_order=[1, 2, 3, 4],
                       fu_available=FULL_FU, width=2)
        granted = OrinocoSelect().select(ctx)
        assert sorted(granted) == [1, 2]

    def test_zero_fu_type_skipped(self):
        ctx = make_ctx({1: FUType.FPU}, dispatch_order=[1],
                       fu_available={**FULL_FU, FUType.FPU: 0}, width=4)
        assert OrinocoSelect().select(ctx) == []


class TestAgeSelect:
    def test_oldest_always_granted(self):
        ctx = make_ctx({e: FUType.ALU for e in (5, 6, 7, 8)},
                       dispatch_order=[7, 5, 8, 6],
                       fu_available=FULL_FU, width=2)
        granted = AgeSelect().select(ctx)
        assert 7 in granted

    def test_oldest_skipped_when_fu_busy(self):
        ctx = make_ctx({1: FUType.MULDIV, 2: FUType.ALU},
                       dispatch_order=[1, 2],
                       fu_available={**FULL_FU, FUType.MULDIV: 0}, width=2)
        granted = AgeSelect().select(ctx)
        assert granted == [2]


class TestMultSelect:
    def test_oldest_per_type_granted(self):
        fus = {1: FUType.ALU, 2: FUType.ALU, 3: FUType.FPU, 4: FUType.FPU}
        ctx = make_ctx(fus, dispatch_order=[2, 4, 1, 3],
                       fu_available=FULL_FU, width=2)
        granted = MultSelect().select(ctx)
        assert 2 in granted and 4 in granted


class TestRandomSelect:
    def test_bounded_by_width_and_fu(self):
        fus = {e: FUType.ALU for e in range(8)}
        ctx = make_ctx(fus, dispatch_order=list(range(8)),
                       fu_available=FULL_FU, width=4)
        granted = RandomSelect().select(ctx)
        assert len(granted) == 3        # ALU cap

    def test_deterministic_with_seed(self):
        fus = {e: FUType.ALU for e in range(8)}
        results = []
        for _ in range(2):
            ctx = make_ctx(fus, dispatch_order=list(range(8)),
                           fu_available=FULL_FU, width=2)
            results.append(RandomSelect().select(ctx))
        assert results[0] == results[1]


class TestCriticality:
    def test_critical_beats_older_noncritical(self):
        ctx = make_ctx({1: FUType.ALU, 2: FUType.ALU},
                       dispatch_order=[1, 2],     # 1 older
                       fu_available={**FULL_FU, FUType.ALU: 1}, width=1,
                       critical={2})
        granted = OrinocoSelect().select(ctx)
        assert granted == [2]


class TestFactory:
    @pytest.mark.parametrize("name,cls", [
        ("rand", RandomSelect), ("age", AgeSelect), ("mult", MultSelect),
        ("orinoco", OrinocoSelect), ("cri", OrinocoSelect),
        ("ideal", IdealSelect), ("shift", IdealSelect)])
    def test_mapping(self, name, cls):
        assert isinstance(make_select_policy(name), cls)

    def test_unknown(self):
        with pytest.raises(ValueError):
            make_select_policy("fifo")


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_orinoco_equals_ideal_oracle(data):
    """Property (§3.1): the bit-count selection grants exactly what an
    oracle sorting by true age would, under any mix of FU types,
    availability, and width."""
    size = 24
    count = data.draw(st.integers(min_value=1, max_value=16))
    entries = data.draw(st.lists(
        st.integers(min_value=0, max_value=size - 1), unique=True,
        min_size=count, max_size=count))
    fus = {e: data.draw(st.sampled_from(list(FUType))) for e in entries}
    avail = {fu: data.draw(st.integers(min_value=0, max_value=3))
             for fu in FUType}
    width = data.draw(st.integers(min_value=1, max_value=8))
    order = list(entries)
    # dispatch order = a permutation drawn by shuffling deterministically
    perm = data.draw(st.permutations(order))

    def build(policy):
        index = {e: i for i, e in enumerate(perm)}
        ctx = SelectContext(entries=sorted(entries),
                            fu_of=lambda e: fus[e],
                            age_of=lambda e: index[e],
                            priority_of=lambda e: index[e],
                            fu_available=avail,
                            width=width, rng=random.Random(0))
        return policy.select(ctx)

    assert sorted(build(OrinocoSelect())) == sorted(build(IdealSelect()))


# -- reference: selection by sensing a real IQ age matrix ---------------
#
# Each policy as the hardware runs it: request the ready entries, sense
# the age matrix, read the grant vector.  The keyed policies must
# reproduce these grant lists (entries *and* order) and rng draws.

def _request(matrix, entries):
    mask = np.zeros(matrix.size, dtype=bool)
    mask[list(entries)] = True
    return mask


def _fill_greedy(ctx, granted, candidates):
    avail = list(ctx.fu_available)
    for entry in granted:
        avail[ctx.fu_of(entry)] -= 1
    for entry in candidates:
        if len(granted) >= ctx.width:
            break
        if entry in granted:
            continue
        fu = ctx.fu_of(entry)
        if avail[fu] > 0:
            granted.append(entry)
            avail[fu] -= 1
    return granted


def _by_type(ctx):
    by_type = {}
    for entry in ctx.entries:
        by_type.setdefault(ctx.fu_of(entry), []).append(entry)
    return by_type


def matrix_rand(ctx, matrix):
    candidates = list(ctx.entries)
    ctx.rng.shuffle(candidates)
    return _fill_greedy(ctx, [], candidates)


def matrix_age(ctx, matrix):
    granted = []
    oldest = matrix.select_single_oldest(_request(matrix, ctx.entries))
    if oldest.any():
        entry = int(oldest.argmax())
        if ctx.fu_available[ctx.fu_of(entry)] > 0:
            granted.append(entry)
    rest = [e for e in ctx.entries if e not in granted]
    ctx.rng.shuffle(rest)
    return _fill_greedy(ctx, granted, rest)


def matrix_mult(ctx, matrix):
    granted = []
    avail = list(ctx.fu_available)
    for fu, members in sorted(_by_type(ctx).items(),
                              key=lambda kv: kv[0].value):
        if avail[fu] <= 0 or len(granted) >= ctx.width:
            continue
        oldest = matrix.select_single_oldest(_request(matrix, members))
        if oldest.any():
            granted.append(int(oldest.argmax()))
            avail[fu] -= 1
    rest = [e for e in ctx.entries if e not in granted]
    ctx.rng.shuffle(rest)
    return _fill_greedy(ctx, granted, rest)


def matrix_orinoco(ctx, matrix):
    union = []
    for fu, members in _by_type(ctx).items():
        cap = min(ctx.fu_available[fu], ctx.width)
        if cap <= 0:
            continue
        grants = matrix.select_oldest(_request(matrix, members), cap)
        union.extend(int(i) for i in np.flatnonzero(grants))
    if len(union) <= ctx.width:
        return union
    grants = matrix.select_oldest(_request(matrix, union), ctx.width)
    return [int(i) for i in np.flatnonzero(grants)]


def matrix_ideal(ctx, matrix):
    return _fill_greedy(ctx, [], sorted(ctx.entries, key=ctx.age_of))


MATRIX_REFERENCE = {"rand": matrix_rand, "age": matrix_age,
                    "mult": matrix_mult, "orinoco": matrix_orinoco,
                    "ideal": matrix_ideal}

IQ_SIZE = 24


@st.composite
def iq_histories(draw):
    """A random IQ history over a size-24 age matrix — dispatch groups
    with random critical flags into random free entries, issues of
    random entries, squashes of the youngest — then a select request
    over the survivors.  Returns the matrix, each live entry's
    (stamp, critical) and the request."""
    matrix = AgeMatrix(IQ_SIZE)
    live = {}                       # entry -> (stamp, critical)
    stamp = 0
    for _ in range(draw(st.integers(1, 40))):
        free = [e for e in range(IQ_SIZE) if e not in live]
        action = draw(st.sampled_from(["dispatch", "dispatch", "issue",
                                       "squash"]))
        if action == "dispatch" and free:
            k = draw(st.integers(1, min(4, len(free))))
            group = draw(st.permutations(free))[:k]
            flags = [draw(st.booleans()) for _ in group]
            matrix.dispatch_group(group, flags)
            for entry, flag in zip(group, flags):
                stamp += 1
                live[entry] = (stamp, flag)
        elif action == "issue" and live:
            entry = draw(st.sampled_from(sorted(live)))
            matrix.remove(entry)
            del live[entry]
        elif action == "squash" and live:
            youngest = sorted(live, key=lambda e: live[e][0])
            for entry in youngest[-draw(st.integers(1, len(live))):]:
                matrix.remove(entry)
                del live[entry]
    if not live:
        entry = draw(st.integers(0, IQ_SIZE - 1))
        flag = draw(st.booleans())
        matrix.dispatch(entry, flag)
        live[entry] = (stamp + 1, flag)
    ready = sorted(draw(st.sets(st.sampled_from(sorted(live)),
                                min_size=1)))
    fus = {e: draw(st.sampled_from(list(FUType))) for e in ready}
    avail = [draw(st.integers(0, 3)) for _ in FUType]
    width = draw(st.integers(1, 8))
    seed = draw(st.integers(0, 2**32 - 1))
    return matrix, live, ready, fus, avail, width, seed


@settings(max_examples=150, deadline=None)
@given(iq_histories())
def test_order_key_select_matches_age_matrix(history):
    """Every policy ranking by order key grants exactly what selection
    over the age matrix grants — same entries, same order — and draws
    the same rng entropy, through any dispatch (critical or not) /
    issue / squash history of a non-collapsible IQ."""
    matrix, live, ready, fus, avail, width, seed = history

    def ctx(rng):
        return SelectContext(
            entries=ready, fu_of=lambda e: fus[e],
            age_of=lambda e: live[e][0],
            priority_of=lambda e: order_key(*live[e]),
            fu_available=avail, width=width, rng=rng)

    for name, reference in MATRIX_REFERENCE.items():
        rng_key, rng_matrix = random.Random(seed), random.Random(seed)
        got = make_select_policy(name).select(ctx(rng_key))
        want = reference(ctx(rng_matrix), matrix)
        assert got == want, (
            f"{name}: keyed {got} vs matrix {want} (ready={ready}, "
            f"live={live}, avail={avail}, width={width})")
        assert rng_key.getstate() == rng_matrix.getstate(), \
            f"{name}: rng draws diverged"


@settings(max_examples=200, deadline=None)
@given(length=st.integers(0, 64), seed=st.integers(0, 2**64 - 1),
       advance=st.lists(st.integers(1, 70), max_size=12))
def test_shuffle_draws_what_random_shuffle_draws(length, seed, advance):
    """The policies' inline shuffle is ``random.Random.shuffle``: the
    same permutation and the same generator state afterwards, from
    any starting state (``advance`` pre-draws bit counts of mixed
    width, so the shuffle does not start on a fresh seed)."""
    start = random.Random(seed)
    for bits in advance:
        start.getrandbits(bits)
    want_rng, got_rng = random.Random(), random.Random()
    want_rng.setstate(start.getstate())
    got_rng.setstate(start.getstate())
    want, got = list(range(length)), list(range(length))
    want_rng.shuffle(want)
    shuffle(got, got_rng.getrandbits)
    assert got == want
    assert got_rng.getstate() == want_rng.getstate()
