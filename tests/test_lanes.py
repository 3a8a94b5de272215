"""Lane-batched engine: stack storage, lockstep driver, profiler.

The contract under test: any lane width is a storage-layout/throughput
optimisation that is *field-identical* per cell to the serial engine —
including mid-batch retirement and refill and a deadlocking cell
isolated from its batch-mates.  The scalar path (``slot=None``
everywhere) must be byte-for-byte untouched.  No sweep runs on this
engine; its callers are ``repro profile --lanes`` and the benchmarks.
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import LaneStack, check
from repro.isa import ProgramBuilder, trace_program
from repro.pipeline import DeadlockError, LaneBatch, LaneCell, O3Core, \
    base_config
from repro.pipeline.vectorstages import lane_vectorizable
from repro.workloads import build_suite, build_trace

SCALE = 0.1


def fields(stats):
    return dataclasses.asdict(stats)


@pytest.fixture(scope="module")
def trace():
    return build_trace("gcc.mix", SCALE)


@pytest.fixture(scope="module")
def traces():
    return build_suite(SCALE, ["gcc.mix", "x264.divint", "mcf.chase"])


# -- the stack -------------------------------------------------------------

class TestLaneStack:
    def test_slot_views_alias_the_stack(self):
        stack = LaneStack(2, 4)
        slot = stack.slot(1)
        slot.issue_ready[2] = True
        slot.iq_stamp[3] = 7
        slot.iq_fu[0] = 3
        assert stack.issue_ready[1, 2]
        assert stack.iq_stamp[1, 3] == 7
        assert stack.iq_fu[1, 0] == 3

    def test_no_cross_lane_aliasing(self):
        stack = LaneStack(3, 4)
        slot = stack.slot(0)
        slot.issue_ready[...] = True
        slot.iq_stamp[...] = 9
        slot.iq_fu[...] = 2
        for lane in (1, 2):
            other = stack.slot(lane)
            assert not other.issue_ready.any()
            assert not other.iq_stamp.any()
            assert not other.iq_fu.any()

    def test_lane_out_of_range(self):
        stack = LaneStack(2, 4)
        with pytest.raises(IndexError):
            stack.slot(2)
        with pytest.raises(IndexError):
            stack.slot(-1)

    def test_bad_dimensions(self):
        with pytest.raises(ValueError):
            LaneStack(0, 4)
        with pytest.raises(ValueError):
            LaneStack(2, 0)


# -- slot-backed cores -----------------------------------------------------

class TestSlotBackedCore:
    def test_identical_to_owned_storage(self, trace):
        config = base_config(scheduler="orinoco", commit="orinoco")
        want = fields(O3Core(trace, config).run())
        stack = LaneStack(2, config.iq_size)
        got = fields(O3Core(trace, config, slot=stack.slot(1)).run())
        assert got == want

    def test_slot_reuse_resets_state(self, trace):
        """A retired lane's successor must see pristine planes."""
        config = base_config()
        stack = LaneStack(1, config.iq_size)
        O3Core(trace, config, slot=stack.slot(0)).run()
        other = build_trace("x264.divint", SCALE)
        want = fields(O3Core(other, config).run())
        got = fields(O3Core(other, config, slot=stack.slot(0)).run())
        assert got == want

    def test_shape_mismatch_rejected(self, trace):
        config = base_config()
        stack = LaneStack(1, config.iq_size + 1)
        with pytest.raises(ValueError, match="does not match config"):
            O3Core(trace, config, slot=stack.slot(0))

    def test_only_slot_backed_cores_vectorize(self, trace):
        """Every core holds issue columns; the cross-lane kernel also
        needs them to be views into a lane stack."""
        config = base_config(scheduler="age", commit="ioc")
        assert not lane_vectorizable(O3Core(trace, config))
        stack = LaneStack(1, config.iq_size)
        assert lane_vectorizable(O3Core(trace, config, slot=stack.slot(0)))


# -- the lockstep driver ---------------------------------------------------

class TestLaneBatch:
    def test_identity_with_refill(self, traces):
        """3 cells through 2 lanes: the third refills a retired slot;
        every cell is field-identical to its own serial run."""
        config = base_config(scheduler="orinoco", commit="orinoco")
        want = {name: fields(O3Core(t, config).run())
                for name, t in traces.items()}
        batch = LaneBatch(2, config.iq_size)
        cells = [LaneCell(name, t, config) for name, t in traces.items()]
        report = batch.run(cells)
        assert len(report.outcomes) == 3
        for outcome in report.outcomes:
            assert outcome.error is None
            assert fields(outcome.stats) == want[outcome.index]
        assert report.steps > 0
        assert 1.0 <= report.mean_active() <= 2.0

    def test_deadlock_in_one_lane_is_isolated(self, traces):
        """A cell that exhausts its budget retires with the error;
        batch-mates finish with untouched, serial-identical stats."""
        config = base_config()
        names = list(traces)
        cells = [LaneCell(name, traces[name], config) for name in names]
        cells[1].max_cycles = 1                   # guaranteed budget blow
        batch = LaneBatch(2, config.iq_size)
        report = batch.run(cells)
        by_index = {o.index: o for o in report.outcomes}
        dead = by_index[names[1]]
        assert isinstance(dead.error, DeadlockError)
        assert "budget" in str(dead.error)
        assert "DeadlockError" in dead.error_tb
        for name in (names[0], names[2]):
            outcome = by_index[name]
            assert outcome.stats is not None
            assert fields(outcome.stats) == \
                fields(O3Core(traces[name], config).run())

    def test_incompatible_cell_rejected(self, trace):
        config = base_config()
        batch = LaneBatch(2, config.iq_size + 1)
        with pytest.raises(ValueError, match="not compatible"):
            batch.run([LaneCell("a", trace, config)])

    def test_select_crosscheck_runs_under_check(self, trace, monkeypatch):
        """REPRO_CHECK=1 wires the select kernel's cross-check against
        each lane's scalar ready set into every vectorized step."""
        check.set_enabled(True)
        try:
            config = base_config()
            batch = LaneBatch(2, config.iq_size)
            calls = []
            original = batch.engine._check_select
            monkeypatch.setattr(
                batch.engine, "_check_select",
                lambda core, oldest: calls.append(oldest) or
                original(core, oldest))
            report = batch.run([LaneCell(i, trace, config)
                                for i in range(2)])
            assert all(o.error is None for o in report.outcomes)
            assert calls
        finally:
            check.reset()

    def test_select_crosscheck_catches_a_corrupt_key_column(
            self, trace, monkeypatch):
        """The REPRO_CHECK select cross-check ranks ready ops by their
        own dispatch stamps, so a key column that disagrees with the
        ops (here: one ready entry's ``iq_stamp`` overwritten before
        the kernel reads it) raises ``CheckError`` in that lane."""
        check.set_enabled(True)
        try:
            config = base_config()
            batch = LaneBatch(2, config.iq_size)
            corrupted = []
            original = batch.engine._select_kernel

            def corrupting_kernel(alive):
                if not corrupted:
                    for lane in alive:
                        s = lane.core.state
                        if len(s.ready_set) < 2:
                            continue
                        youngest = max(
                            s.ready_set,
                            key=lambda e: s.iq_ops[e].dispatch_stamp)
                        s.iq_stamp[youngest] = -1
                        corrupted.append(lane.cell.index)
                        break
                return original(alive)

            monkeypatch.setattr(batch.engine, "_select_kernel",
                                corrupting_kernel)
            report = batch.run([LaneCell(i, trace, config)
                                for i in range(2)])
            assert corrupted, "no lane ever had two ready entries"
            errors = {o.index: o.error for o in report.outcomes}
            assert isinstance(errors[corrupted[0]], check.CheckError)
            assert "vectorized select diverged" in str(errors[corrupted[0]])
        finally:
            check.reset()


# -- property test: random programs x random lane groupings ----------------

@st.composite
def tiny_programs(draw):
    """Random short loops, small enough for many lane permutations."""
    b = ProgramBuilder("lane-prop")
    b.li("x1", 0)
    b.li("x2", draw(st.integers(min_value=1, max_value=3)))
    b.li("x3", 0x1000)
    b.label("loop")
    for i in range(draw(st.integers(min_value=1, max_value=6))):
        kind = draw(st.sampled_from(["alu", "mul", "load", "store"]))
        dst = f"x{10 + (i % 6)}"
        src = f"x{10 + ((i + 2) % 6)}"
        if kind == "alu":
            b.add(dst, src, "x1")
        elif kind == "mul":
            b.mul(dst, src, "x2")
        elif kind == "load":
            b.ld(dst, "x3", draw(st.integers(0, 3)) * 8)
        else:
            b.sd(src, "x3", draw(st.integers(0, 3)) * 8)
    b.addi("x1", "x1", 1)
    b.blt("x1", "x2", "loop")
    b.halt()
    return b.build()


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(data=st.data())
def test_property_lane_batches_match_serial(data):
    """Any grouping of random tiny cells into any lane width — with
    optional mid-batch retirement (more cells than lanes) and an
    optional deadlocked lane — is field-identical to serial per cell."""
    n_cells = data.draw(st.integers(min_value=2, max_value=5),
                        label="n_cells")
    lanes = data.draw(st.integers(min_value=2, max_value=4), label="lanes")
    programs = [data.draw(tiny_programs(), label=f"program{i}")
                for i in range(n_cells)]
    commits = [data.draw(st.sampled_from(["ioc", "orinoco"]),
                         label=f"commit{i}") for i in range(n_cells)]
    dead = data.draw(
        st.one_of(st.none(), st.integers(0, n_cells - 1)), label="dead")
    config = base_config()
    cells, want = [], {}
    for i, program in enumerate(programs):
        trace = trace_program(program)
        cell_config = base_config(commit=commits[i])
        cell = LaneCell(i, trace, cell_config, max_cycles=200_000)
        if dead == i:
            cell.max_cycles = 1
        else:
            want[i] = fields(O3Core(trace, cell_config).run(200_000))
        cells.append(cell)
    batch = LaneBatch(lanes, config.iq_size)
    report = batch.run(cells)
    assert len(report.outcomes) == n_cells
    for outcome in report.outcomes:
        if outcome.index == dead:
            assert isinstance(outcome.error, DeadlockError)
        else:
            assert fields(outcome.stats) == want[outcome.index], \
                f"cell {outcome.index} diverged (lanes={lanes})"


# -- CLI surface -----------------------------------------------------------

class TestProfileLanes:
    def test_profile_lanes_flag_runs_batch(self, capsys):
        from repro.cli import main
        rc = main(["profile", "gcc.mix", "--scale", "0.05",
                   "--lanes", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "x2 cells on 2 lanes" in out
        assert "serial-equiv kcycles/s" in out

    def test_profile_lanes_rejects_events(self, capsys):
        # event subscribers instrument one core's bus; a lane batch
        # has no single bus to attach to
        from repro.cli import main
        rc = main(["profile", "gcc.mix", "--lanes", "2", "--events"])
        assert rc == 2
        assert "requires --lanes 1" in capsys.readouterr().err

    def test_profile_lanes_one_still_runs(self):
        from repro.cli import main
        assert main(["profile", "gcc.mix", "--scale", "0.02",
                     "--lanes", "1"]) == 0
