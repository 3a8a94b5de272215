"""Property tests for the cross-lane vectorized select path.

The vector engine's select kernel finds each lane's oldest ready entry
with an ``argmin`` over the order-key plane, and ``IssueStage.tick_vec``
hands that hint to :func:`~repro.scheduler.grant_age`.  The
equivalence claim is exact: for any ready set, dispatch order,
critical tags, FU assignment, FU availability and issue width, the
granted entries — including the grant *order* and the rng entropy
consumed by the tie-break shuffle — must match ``AgeSelect.select``,
and the ``argmin`` must name the single-oldest entry a real
:class:`AgeMatrix` built in the same dispatch order senses.

A directed test then pins the engine-level contract: a mixed batch
(one vectorizable AGE lane + one fallback RAND lane) produces SimStats
field-identical to serial runs of the same cells.
"""

import dataclasses
import random

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.core import AgeMatrix                          # noqa: E402
from repro.pipeline import O3Core, base_config            # noqa: E402
from repro.pipeline.lanes import LaneBatch, LaneCell     # noqa: E402
from repro.pipeline.resources import FUType               # noqa: E402
from repro.scheduler import (AgeSelect, SelectContext,    # noqa: E402
                             grant_age, order_key)
from repro.workloads import build_trace                   # noqa: E402

IQ_SIZE = 16
_I64_MAX = np.iinfo(np.int64).max


@st.composite
def select_cases(draw):
    """Random (dispatch order, critical tags, ready set, FUs,
    availability, width, seed)."""
    entries = sorted(draw(st.sets(st.integers(0, IQ_SIZE - 1),
                                  min_size=1, max_size=IQ_SIZE)))
    order = draw(st.permutations(entries))
    critical = {entry: draw(st.booleans()) for entry in entries}
    ready = sorted(draw(st.sets(st.sampled_from(entries), min_size=1)))
    fus = {entry: draw(st.sampled_from(list(FUType)))
           for entry in entries}
    avail = [draw(st.integers(0, 2)) for _ in FUType]
    width = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    return order, critical, ready, fus, avail, width, seed


def _kernel_oldest(order, critical, ready):
    """The select kernel's sense: order keys in an int64 plane,
    non-ready entries masked to int64 max, one argmin."""
    keys = np.full(IQ_SIZE, _I64_MAX, dtype=np.int64)
    for stamp, entry in enumerate(order, start=1):
        if entry in ready:
            keys[entry] = order_key(stamp, critical[entry])
    return int(np.argmin(keys))


@settings(max_examples=120, deadline=None)
@given(select_cases())
def test_stamp_argmin_grant_matches_age_select(case):
    """Vectorized select ≡ AgeSelect: grants, order, and rng state."""
    order, critical, ready, fus, avail, width, seed = case
    keys = {entry: order_key(stamp, critical[entry])
            for stamp, entry in enumerate(order, start=1)}
    oldest = _kernel_oldest(order, critical, ready)

    rng_scalar = random.Random(seed)
    rng_vec = random.Random(seed)
    ctx = SelectContext(
        entries=list(ready),
        fu_of=fus.__getitem__,
        age_of=order.index,
        priority_of=keys.__getitem__,
        fu_available=list(avail),
        width=width,
        rng=rng_scalar)
    want = AgeSelect().select(ctx)
    got = grant_age(oldest, ready, fus.__getitem__, list(avail), width,
                    rng_vec)

    assert got == want, (
        f"grants diverged: kernel {got} vs AgeSelect {want} "
        f"(ready={ready}, order={order}, avail={avail}, width={width})")
    assert rng_scalar.getstate() == rng_vec.getstate(), (
        "tie-break shuffle consumed different rng entropy")


@settings(max_examples=60, deadline=None)
@given(select_cases())
def test_stamp_argmin_is_matrix_oldest(case):
    """The key argmin picks exactly the matrix's single-oldest ready
    entry, critical insert included."""
    order, critical, ready, _fus, _avail, _width, _seed = case
    matrix = AgeMatrix(IQ_SIZE)
    for entry in order:
        matrix.dispatch(entry, critical[entry])
    request = np.zeros(IQ_SIZE, dtype=bool)
    request[ready] = True
    grant = matrix.select_single_oldest(request)
    assert _kernel_oldest(order, critical, ready) == int(grant.argmax())
    assert grant.sum() == 1


class TestMixedBatchIdentity:
    """One vectorizable lane + one scalar-fallback lane, stepped by the
    same LaneBatch, must both stay field-identical to serial."""

    def test_mixed_batch_matches_serial(self):
        trace = build_trace("gcc.mix", 0.2)
        vec_config = base_config(scheduler="age", commit="ioc")
        fallback_config = base_config(scheduler="rand", commit="ioc")
        serial = [
            O3Core(trace, vec_config).run(),
            O3Core(trace, fallback_config).run(),
        ]
        assert vec_config.iq_size == fallback_config.iq_size
        batch = LaneBatch(2, vec_config.iq_size)
        report = batch.run([
            LaneCell(0, trace, vec_config),
            LaneCell(1, trace, fallback_config),
        ])
        assert len(report.outcomes) == 2
        by_index = {out.index: out for out in report.outcomes}
        for index, reference in enumerate(serial):
            outcome = by_index[index]
            assert outcome.error is None, outcome.error_tb
            got = dataclasses.asdict(outcome.stats)
            want = dataclasses.asdict(reference)
            assert got == want, (
                f"lane {index} diverged: "
                f"{[k for k in want if got.get(k) != want[k]][:8]}")
