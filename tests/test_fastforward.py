"""Quiescent-cycle fast-forward: bit-exactness and gating.

The fast-forward path (:mod:`repro.pipeline.fastforward`) replays one
measured quiescent cycle and multiplies its statistics delta instead of
stepping the engine cycle by cycle.  These tests pin the contract: a
fast-forwarded run must be *field-identical* to the exact stepped run —
same SimStats, same frontend stall counter, same final cycle — across
scheduler and commit policies, while actually skipping work on
memory-bound traces.
"""

import dataclasses

import pytest

from repro.pipeline import O3Core, base_config
from repro.pipeline.events import CycleEvent, EventType
from repro.workloads import build_trace


def _run(trace, config, fast_forward):
    core = O3Core(trace, config)
    core.fast_forward_enabled = fast_forward
    stats = core.run()
    return core, stats


def _assert_identical(trace, config):
    core_ff, stats_ff = _run(trace, config, fast_forward=True)
    core_ex, stats_ex = _run(trace, config, fast_forward=False)
    ff = dataclasses.asdict(stats_ff)
    ex = dataclasses.asdict(stats_ex)
    diff = {k: (ff[k], ex[k]) for k in ex if ff[k] != ex[k]}
    assert not diff, f"fast-forward diverged: {diff}"
    assert core_ff.state.fetch.stall_cycles == core_ex.state.fetch.stall_cycles
    assert core_ff.state.cycle == core_ex.state.cycle
    return core_ff, core_ex


COMBOS = [
    ("mcf.chase", "age", "ioc"),
    ("mcf.chase", "orinoco", "orinoco"),
    ("mcf.chase", "mult", "vb"),
    ("lbm.stream", "orinoco", "ioc"),
    ("lbm.stream", "rand", "spec_norob"),
    ("cactu.stencil", "cri", "rob"),
    ("perl.branchy", "age", "ioc"),
]


@pytest.mark.parametrize("workload,scheduler,commit", COMBOS)
def test_fast_forward_is_bit_exact(workload, scheduler, commit):
    trace = build_trace(workload, scale=0.15)
    config = base_config(scheduler=scheduler, commit=commit)
    _assert_identical(trace, config)


def test_fast_forward_actually_skips_cycles():
    """On a pointer-chasing trace most cycles are quiescent: the
    fast-forwarded run must take far fewer engine steps than cycles."""
    trace = build_trace("mcf.chase", scale=0.15)
    config = base_config(scheduler="age", commit="ioc")
    core = O3Core(trace, config)
    core.fast_forward_enabled = True
    steps = 0
    original_step = core.step

    def counting_step():
        nonlocal steps
        steps += 1
        original_step()

    core.step = counting_step
    stats = core.run()
    assert steps < stats.cycles // 2, (
        f"expected >2x skip on mcf.chase, stepped {steps} of "
        f"{stats.cycles} cycles")


def test_instrumented_run_disables_fast_forward():
    """A per-cycle subscriber must see every cycle: live instrumentation
    makes no cycle quiescent, so no cycle may be skipped."""
    trace = build_trace("mcf.chase", scale=0.1)
    config = base_config(scheduler="age", commit="ioc")
    core = O3Core(trace, config)
    seen = []
    core.bus.subscribe(EventType.CYCLE, seen.append)
    stats = core.run()
    assert len(seen) == stats.cycles
    assert all(isinstance(event, CycleEvent) for event in seen)
    cycles = [event.cycle for event in seen]
    assert cycles == list(range(stats.cycles))
