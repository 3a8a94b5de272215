"""Steady-state allocation guard and REPRO_CHECK self-verification.

The PR 4 hot-path work preallocates every per-cycle buffer (matrix
scratch, select masks, group accumulators) so the cycle loop constructs
no new NumPy arrays in steady state.  This guard pins that property:
after a warm-up, a window of fully stepped cycles must execute without
a single call to a NumPy array *constructor* (``np.zeros`` /
``np.empty`` / ``np.ones`` / ``np.full`` / ``np.arange``).

The shim counts Python-level constructor calls, which is exactly the
contract the scratch-buffer convention establishes.  (C-level
temporaries inside ufuncs are invisible to any Python shim and are not
what the convention governs.)

Set ``REPRO_NO_PERF_GUARD=1`` to skip the guard, e.g. when bisecting
an unrelated failure on a machine where the engine is being hacked on.

Core construction is guarded too: building an :class:`O3Core` must
create fewer than ``CONSTRUCTION_OBJECT_BUDGET`` GC-tracked objects
(config-sized tables are flat int lists or lazily built containers,
never one Python object per entry), and a finished core must be freed
by reference counting alone (nothing inside a core refers back to it).
A core for a branch-free verify thread builds no direction predictor
and no wrong-path record, since the thread reads neither, and stays
within a budget of Python-level calls.

The serial windows also make no Python-level call for a fact that
never changes during an op's life: no call into ``random.py`` (select
shuffles inline), to a ``DynInstr`` or ``InflightOp`` property (class
facts and ``seq`` are slots) or to a lambda in the issue stage (select
reads per-entry columns).  They build no ``DynInstr`` either
(``__init__`` or ``__post_init__``): wrong-path ops share one record
per opcode slot, built by the core's first wrong-path fetch, and one
window fetches down the wrong path to hold that.  Nor do they make a
call whose only job is to read a count, hash an enum or re-fold a
history: none into ``enum.py`` (``OpClass`` hashes by identity), to
``Trace.__len__`` or ``__getitem__`` (fetch keeps the bound and
indexes the list), to a queue, free-list, LSQ, rename or fetch count
accessor (the counts are attributes), to ``FUPool.available``
(acquire and the availability vector compute it inline) or to TAGE's
per-table hashes (one lookup per branch over folded-history
registers).  Each window also has a budget of Python-level calls per
stepped cycle, so a hot-path regression fails tier-1 as a
deterministic count.

The verifier has a window of its own: one cold ``allowed_outcomes``
per memory model and one ``compose_outcomes`` on the seed-0 campaign's
costliest program, within a budget of Python-level calls and of
C-level ``set.add`` calls.  The searches merge futures with set unions,
so ``set.add`` runs once per terminal state, not once per future.

The second half exercises ``REPRO_CHECK=1``: a checked run must match
an unchecked one.
"""

import enum
import gc
import os
import random
import sys
import unittest.mock
import weakref

import numpy as np
import pytest

from repro.core import check
from repro.frontend import BimodalPredictor, FetchUnit, TagePredictor
from repro.isa import DynInstr, Trace, trace_program
from repro.lsq import LSQUnit
from repro.pipeline import InflightOp, O3Core, base_config, lanes, ultra_config
from repro.pipeline.events import EventBus
from repro.pipeline.lanes import LaneBatch, LaneCell, _Lane
from repro.pipeline.resources import FUPool
from repro.pipeline.stages import issue
from repro.queues import CircularQueue, CollapsibleQueue, RandomQueue
from repro.rename import PhysRegFreeList, RenameUnit
from repro.verify import oracle
from repro.verify.generator import (CLASSIC_SHAPES, build_thread,
                                    generate_programs)
from repro.verify.witness import AppEvent, compose_outcomes
from repro.workloads import build_trace

pytestmark = pytest.mark.skipif(
    os.environ.get("REPRO_NO_PERF_GUARD") == "1",
    reason="REPRO_NO_PERF_GUARD=1")

CONSTRUCTORS = ("zeros", "empty", "ones", "full", "arange")
WARMUP_STEPS = 400
GUARDED_STEPS = 200
#: GC-tracked objects one core construction may create (about 220
#: today; one object per predictor/cache/BTB entry would be ~9,500)
CONSTRUCTION_OBJECT_BUDGET = 1000
#: Python-level calls one core construction for a branch-free verify
#: thread may make.  Measured on CPython 3.11: 60, and 97 while the
#: core built its TAGE tables and six wrong-path records up front
CONSTRUCTION_CALL_BUDGET = 66


def _counting_shim(counts):
    patchers = []
    for name in CONSTRUCTORS:
        original = getattr(np, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] = counts.get(_name, 0) + 1
            return _original(*args, **kwargs)

        patchers.append(unittest.mock.patch.object(np, name, counted))
    return patchers


#: (class, method names) the cycle loop must not call: each only reads
#: a count the structure keeps, or re-hashes what one lookup computed.
#: Names a class no longer defines as a method are skipped (several are
#: attributes now)
_FORBIDDEN_METHODS = (
    (Trace, ("__len__", "__getitem__")),
    (RandomQueue, ("is_full", "allocatable", "occupancy")),
    (CircularQueue, ("is_full", "allocatable", "occupancy")),
    (CollapsibleQueue, ("is_full", "allocatable", "occupancy")),
    (PhysRegFreeList, ("available", "occupancy")),
    (LSQUnit, ("can_allocate_load", "can_allocate_store", "lq_occupancy")),
    (RenameUnit, ("can_rename", "occupancy", "available")),
    (FetchUnit, ("exhausted",)),
    (FUPool, ("available",)),
    (TagePredictor, ("_folded_history", "_index", "_tag")),
    (DynInstr, ("__init__", "__post_init__")),
)

#: Python-level calls per fully stepped cycle each guarded window may
#: make: every "call" event in the window, ``core.done()`` included,
#: over the cycles stepped.  Measured on CPython 3.11: 15.9, 16.8, 77.2,
#: 55.3 and 38.4.  The budgets leave about 10% for interpreter
#: differences (3.12 inlines comprehensions, which only lowers the
#: count).  With a wrapper record per fetched op and a fresh record per
#: wrong-path fetch the engine made 16.9, 17.8, 80.9, 57.4 and 42.9, and
#: before structure counts became attributes 30.9, 31.8, 129.2 and 91.0
#: in the first four.
CALL_BUDGETS = {
    "age-ioc": 17.5,
    "orinoco-orinoco": 18.5,
    "age-ioc-stores": 85.0,
    "age-orinoco-tso": 61.0,
    "age-ioc-wrong-path": 42.0,
}


#: the verifier window's budgets: Python-level calls, and C-level
#: ``set.add`` calls (``c_call`` events).  Measured on CPython 3.11:
#: 13,824 and 12.  With tuple futures the window made 19,113 calls and
#: 109,760 ``set.add`` calls, one per future element built
VERIFY_BUDGETS = {"calls": 15_200, "set_add": 13}


def _forbidden_call_profiler(calls, total):
    """A ``sys.setprofile`` hook counting Python-level calls the cycle
    loop must not make, keyed by what was called, and every call in
    ``total[0]``."""
    properties = {value.fget.__code__: f"{cls.__name__}.{name}"
                  for cls in (DynInstr, InflightOp)
                  for name, value in vars(cls).items()
                  if isinstance(value, property)}
    for cls, names in _FORBIDDEN_METHODS:
        for name in names:
            method = getattr(cls, name, None)
            code = getattr(method, "__code__", None)
            if code is not None:
                properties[code] = method.__qualname__
    random_file = random.__file__
    enum_file = enum.__file__
    issue_file = issue.__file__

    def profile(frame, event, arg):
        if event != "call":
            return
        total[0] += 1
        code = frame.f_code
        if code.co_filename == random_file:
            key = f"random.{code.co_name}"
        elif code.co_filename == enum_file:
            key = f"enum.{code.co_name}"
        elif code in properties:
            key = properties[code]
        elif code.co_filename == issue_file and code.co_name == "<lambda>":
            key = f"issue.py:{code.co_firstlineno} <lambda>"
        else:
            return
        calls[key] = calls.get(key, 0) + 1

    return profile


@pytest.mark.parametrize("scheduler,commit,kernel,tso,grows,budget", [
    pytest.param("age", "ioc", "mcf.chase", False, None,
                 CALL_BUDGETS["age-ioc"], id="age-ioc"),
    pytest.param("orinoco", "orinoco", "mcf.chase", False, None,
                 CALL_BUDGETS["orinoco-orinoco"], id="orinoco-orinoco"),
    # store resolves, under TSO lockdowns, and wrong-path fetch and
    # dispatch, each inside the window (``grows`` names the counter)
    pytest.param("age", "ioc", "lbm.stream", False, None,
                 CALL_BUDGETS["age-ioc-stores"], id="age-ioc-stores"),
    pytest.param("age", "orinoco", "fotonik.strided", True, "lockdowns",
                 CALL_BUDGETS["age-orinoco-tso"], id="age-orinoco-tso"),
    pytest.param("age", "ioc", "gcc.mix", False, "wrong_path_dispatched",
                 CALL_BUDGETS["age-ioc-wrong-path"],
                 id="age-ioc-wrong-path"),
])
def test_steady_state_cycles_allocate_nothing(scheduler, commit, kernel,
                                              tso, grows, budget):
    trace = build_trace(kernel, scale=0.5)
    config = base_config(scheduler=scheduler, commit=commit, tso=tso)
    core = O3Core(trace, config)
    # fully stepped cycles (no fast-forward): the guard covers the
    # exact per-cycle engine work
    for _ in range(WARMUP_STEPS):
        if core.done():
            break
        core.step()
    assert not core.done(), "trace too small to reach steady state"

    before = getattr(core.stats, grows) if grows else None
    counts, calls, total = {}, {}, [0]
    patchers = _counting_shim(counts)
    for patcher in patchers:
        patcher.start()
    stepped = 0
    previous_profiler = sys.getprofile()
    sys.setprofile(_forbidden_call_profiler(calls, total))
    try:
        for _ in range(GUARDED_STEPS):
            if core.done():
                break
            core.step()
            stepped += 1
    finally:
        sys.setprofile(previous_profiler)
        for patcher in patchers:
            patcher.stop()
    assert not counts, (
        f"steady-state cycles constructed NumPy arrays: {counts} "
        f"over {GUARDED_STEPS} cycles — a scratch buffer regressed")
    problems = []
    if calls:
        problems.append(
            f"Python-level calls for per-op facts, shuffles, counts, enum "
            f"hashes, TAGE folds or DynInstr records: {calls} over "
            f"{stepped} cycles")
    per_cycle = total[0] / stepped
    if per_cycle > budget:
        problems.append(f"{per_cycle:.1f} Python-level calls per stepped "
                        f"cycle, over the budget of {budget}")
    assert not problems, "steady-state cycles made " + "; ".join(problems)
    if grows:
        assert getattr(core.stats, grows) > before, \
            f"the guarded window did not add to {grows}"


def test_vectorized_lane_loop_allocates_nothing():
    """The cross-lane select kernel preallocates all its scratch in
    the engine constructor.  After warm-up, a window of full-batch
    engine steps must run without a single Python-level NumPy
    constructor call."""
    trace = build_trace("mcf.chase", scale=0.5)
    config = base_config(scheduler="age", commit="ioc")
    batch = LaneBatch(4, config.iq_size)
    lanes = []
    for slot_id in range(4):
        core = O3Core(trace, config, slot=batch.stack.slot(slot_id))
        lanes.append(_Lane(slot_id, LaneCell(slot_id, trace, config),
                           core, None, 0.0))
        assert lanes[-1].vec_ok
    engine = batch.engine
    for _ in range(WARMUP_STEPS):
        assert not engine.step(lanes)
    assert not any(lane.core.done() for lane in lanes), \
        "trace too small to reach steady state"

    counts = {}
    patchers = _counting_shim(counts)
    for patcher in patchers:
        patcher.start()
    try:
        for _ in range(GUARDED_STEPS):
            assert not engine.step(lanes)
    finally:
        for patcher in patchers:
            patcher.stop()
    assert not counts, (
        f"vectorized lane steps constructed NumPy arrays: {counts} "
        f"over {GUARDED_STEPS} steps — an engine scratch buffer "
        f"regressed")


def test_verifier_window_call_budget():
    """p0023 of the seed-0 campaign has its largest allowed sets (103
    outcomes under TSO, 144 under RVWMO); the composed orders are
    program order, one drain per store and one memory read per load."""
    program = generate_programs(0, 24)[23]
    sequences = []
    for ops in program.threads:
        sequences.append([
            AppEvent(i, i, "drain" if op.kind == "store" else "load",
                     op.addr, op.value)
            for i, op in enumerate(ops) if op.kind != "fence"])
    oracle._allowed_cached.cache_clear()
    counts = {"calls": 0, "set_add": 0}

    def profile(frame, event, arg):
        if event == "call":
            counts["calls"] += 1
        elif event == "c_call" and arg.__name__ == "add" \
                and type(getattr(arg, "__self__", None)) is set:
            counts["set_add"] += 1

    previous_profiler = sys.getprofile()
    sys.setprofile(profile)
    try:
        for model in oracle.MODELS:
            assert oracle.allowed_outcomes(program, model)
        assert compose_outcomes(program, sequences)
    finally:
        sys.setprofile(previous_profiler)
    over = {key: f"{counts[key]:,} > {budget:,}"
            for key, budget in VERIFY_BUDGETS.items()
            if counts[key] > budget}
    assert not over, f"the verifier window went over its budgets: {over}"


@pytest.fixture
def gc_disabled():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.mark.parametrize("make_config", [base_config, ultra_config])
def test_core_construction_allocates_few_objects(make_config, gc_disabled):
    """Deterministic count, not a timing: the growth of the GC-tracked
    object set across one ``O3Core(...)`` call."""
    trace = build_trace("gcc.mix", scale=0.05)
    config = make_config()
    O3Core(trace, config)                    # warm imports and caches
    gc.collect()
    before = len(gc.get_objects())
    core = O3Core(trace, config)  # noqa: F841 (kept alive while counting)
    created = len(gc.get_objects()) - before
    assert created < CONSTRUCTION_OBJECT_BUDGET, (
        f"O3Core construction created {created} GC-tracked objects — a "
        f"config-sized table went back to one object per entry")


def test_verify_core_builds_only_what_it_reads():
    """A verify thread has no branch, so its core must not build the
    direction predictor (TAGE's tables and bimodal base) or the
    wrong-path records: the first conditional branch and the first
    wrong-path fetch build them.  Construction also stays within a
    budget of Python-level calls."""
    trace = trace_program(build_thread(CLASSIC_SHAPES["sb"], 0)[0])
    assert not any(instr.is_branch for instr in trace)
    config = base_config(commit="orinoco")
    O3Core(trace, config)                    # warm imports
    watched = {TagePredictor.__init__.__code__: "TagePredictor",
               BimodalPredictor.__init__.__code__: "BimodalPredictor",
               DynInstr.__init__.__code__: "DynInstr",
               DynInstr.__post_init__.__code__: "DynInstr.__post_init__"}
    built, total = {}, [0]

    def profile(frame, event, arg):
        if event == "call":
            total[0] += 1
            name = watched.get(frame.f_code)
            if name is not None:
                built[name] = built.get(name, 0) + 1

    bus = EventBus()
    previous_profiler = sys.getprofile()
    sys.setprofile(profile)
    try:
        core = O3Core(trace, config, bus=bus)
    finally:
        sys.setprofile(previous_profiler)
    problems = []
    if built:
        problems.append(f"built {built}")
    if total[0] > CONSTRUCTION_CALL_BUDGET:
        problems.append(f"made {total[0]} Python-level calls, over the "
                        f"budget of {CONSTRUCTION_CALL_BUDGET}")
    assert not problems, "core construction " + "; ".join(problems)
    core.run()
    assert core.predictor.direction is None and core.fetch._wp_ring is None


def test_finished_serial_core_freed_by_refcount(gc_disabled):
    core = O3Core(build_trace("gcc.mix", scale=0.05), base_config())
    core.run()
    ref = weakref.ref(core)
    del core
    assert ref() is None, "a reference cycle keeps the finished core alive"


def test_finished_lane_cores_freed_by_refcount(gc_disabled, monkeypatch):
    refs = []

    def recording_core(*args, **kwargs):
        core = O3Core(*args, **kwargs)
        refs.append(weakref.ref(core))
        return core

    monkeypatch.setattr(lanes, "O3Core", recording_core)
    trace = build_trace("gcc.mix", scale=0.05)
    config = base_config(scheduler="age", commit="ioc")
    batch = LaneBatch(2, config.iq_size)
    report = batch.run([LaneCell(i, trace, config) for i in range(3)])
    assert len(report.outcomes) == 3 and len(refs) == 3
    assert all(outcome.error is None for outcome in report.outcomes)
    assert all(ref() is None for ref in refs), \
        "a reference cycle keeps finished lane cores alive"


class TestReproCheck:
    """REPRO_CHECK=1 leaves a run's statistics unchanged."""

    def teardown_method(self):
        check.reset()

    def test_latched_from_environment(self, monkeypatch):
        check.reset()
        monkeypatch.setenv("REPRO_CHECK", "1")
        assert check.check_enabled()
        check.reset()
        monkeypatch.setenv("REPRO_CHECK", "0")
        assert not check.check_enabled()

    @pytest.mark.parametrize("scheduler,commit", [
        ("age", "ioc"),
        ("orinoco", "orinoco"),
        ("mult", "rob"),
    ])
    def test_checked_run_matches_unchecked(self, scheduler, commit):
        """A checked run must complete without CheckError and produce
        the same statistics as the unchecked engine."""
        import dataclasses
        trace = build_trace("xalanc.hash", scale=0.3)
        config = base_config(scheduler=scheduler, commit=commit)
        check.set_enabled(False)
        baseline = O3Core(trace, config).run()
        check.set_enabled(True)
        try:
            checked = O3Core(trace, config).run()
        finally:
            check.reset()
        assert dataclasses.asdict(checked) == dataclasses.asdict(baseline)
