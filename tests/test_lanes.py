"""Lane-batched engine: stack storage, lockstep driver, harness wiring.

The contract under test: any lane width is a storage-layout/throughput
optimisation that is *field-identical* per cell to the serial engine —
including mid-batch retirement and refill, a deadlocking cell isolated
from its batch-mates, and the worker-pool composition.  The scalar
path (``slot=None`` everywhere) must be byte-for-byte untouched.
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.harness.parallel as parallel
from repro.core import LaneStack, check
from repro.harness import default_lanes, jobs_for, run_config, \
    run_config_with_criticality, run_suite
from repro.isa import ProgramBuilder, trace_program
from repro.pipeline import (DeadlockError, LaneBatch, LaneCell,
                            LaneDivergence, O3Core, base_config)
from repro.pipeline.config import COMMITS
from repro.pipeline.lanes import crosscheck
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
            assert outcome.error is None and not outcome.timed_out
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

    def test_cooperative_timeout(self, trace):
        config = base_config()
        batch = LaneBatch(2, config.iq_size)
        report = batch.run([LaneCell("a", trace, config)], timeout=0.0)
        (outcome,) = report.outcomes
        assert outcome.timed_out and outcome.stats is None

    def test_incompatible_cell_rejected(self, trace):
        config = base_config()
        batch = LaneBatch(2, config.iq_size + 1)
        with pytest.raises(ValueError, match="not compatible"):
            batch.run([LaneCell("a", trace, config)])

    def test_on_cell_fires_per_retirement(self, traces):
        config = base_config()
        seen = []
        batch = LaneBatch(2, config.iq_size)
        batch.run([LaneCell(n, t, config) for n, t in traces.items()],
                  on_cell=lambda o: seen.append(o.index))
        assert sorted(seen) == sorted(traces)

    def test_crosscheck_accepts_and_rejects(self, trace):
        config = base_config()
        cell = LaneCell("a", trace, config)
        stats = O3Core(trace, config).run()
        crosscheck(cell, stats)                   # identical: passes
        stats.committed += 1
        with pytest.raises(LaneDivergence, match="committed"):
            crosscheck(cell, stats)

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


# -- harness wiring --------------------------------------------------------

class TestHarnessWiring:
    def test_default_lanes_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_LANES", raising=False)
        assert default_lanes() == 1
        monkeypatch.setenv("REPRO_LANES", "6")
        assert default_lanes() == 6
        monkeypatch.setenv("REPRO_LANES", "0")
        assert default_lanes() == 1
        monkeypatch.setenv("REPRO_LANES", "junk")
        assert default_lanes() == 1

    def test_repro_check_samples_a_crosscheck(self, traces, monkeypatch):
        """REPRO_CHECK=1 pays for one serial re-run per lane batch and
        diffs it against the lane result."""
        calls = []
        original = parallel.crosscheck
        monkeypatch.setattr(parallel, "crosscheck",
                            lambda cell, stats:
                            calls.append(cell.index) or
                            original(cell, stats))
        check.set_enabled(True)
        try:
            result = run_config("chk", base_config(), traces,
                                workers=1, use_cache=False, lanes=2)
        finally:
            check.reset()
        assert calls, "no sampled cross-check ran under REPRO_CHECK=1"
        assert result.lane_batches

    def test_lane_failures_are_annotated_holes(self, traces, monkeypatch):
        """In-process lane mode keeps the worker-path failure contract:
        a deadlocked cell is a typed hole, batch-mates complete."""
        from repro.harness.resilience import CellStatus
        # force one cell to blow its budget by shrinking max_cycles on
        # the LaneCell the harness builds for it
        original_cell = parallel.LaneCell

        def tiny_first(index, trace, config, *args, **kwargs):
            cell = original_cell(index, trace, config, *args, **kwargs)
            if getattr(trace, "name", "") == "mcf.chase":
                cell.max_cycles = 1
            return cell

        monkeypatch.setattr(parallel, "LaneCell", tiny_first)
        result = run_config("iso", base_config(), traces,
                            workers=1, use_cache=False, lanes=2)
        assert result.statuses["mcf.chase"] is CellStatus.FAILED
        assert "DeadlockError" in result.failures["mcf.chase"].message
        for name in ("gcc.mix", "x264.divint"):
            assert result.statuses[name] is CellStatus.OK
            assert fields(result.stats[name]) == \
                fields(O3Core(traces[name], base_config()).run())

    def test_criticality_cells_never_lane_batch(self, traces):
        result = run_config_with_criticality(
            "cri", base_config(scheduler="cri"), traces, base_config(),
            workers=1, use_cache=False, lanes=4)
        assert result.complete()
        assert not result.lane_batches

    def test_fault_runs_never_lane_batch(self, traces, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT", "crash:no-such-cell/*")
        result = run_config("flt", base_config(), traces,
                            workers=1, use_cache=False, lanes=4)
        assert result.complete()
        assert not result.lane_batches

    def test_fig15_commit_policies_share_one_batch(self, traces):
        """The stack holds only IQ-sized columns, so Figure 15's ten
        commit policies — in-order and out-of-order ROB release alike
        — form one lane group: one batch at lanes=8, every cell equal
        to its serial run."""
        base = base_config(scheduler="age")
        jobs = []
        for commit in COMMITS:
            jobs += jobs_for(commit, base.with_policies(commit=commit),
                             traces)
        results = run_suite(jobs, workers=1, lanes=8)
        batches = {}
        for result in results.values():
            batches.update(result.lane_batches)
        assert len(batches) == 1
        for commit in COMMITS:
            config = base.with_policies(commit=commit)
            for name, trace in traces.items():
                assert fields(results[commit].stats[name]) == \
                    fields(O3Core(trace, config).run()), \
                    f"{commit}/{name} diverged from serial"

    def test_single_cell_group_skips_lane_driver_on_workers(self):
        """A group of one gains nothing from lockstep; the worker path
        routes it through the plain per-cell task."""
        groups = parallel._lane_groups(
            [parallel.Job("a", base_config(), "gcc.mix", SCALE)], [0])
        assert groups == [[0]]


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

    def test_profile_lanes_env_runs_batch(self, capsys, monkeypatch):
        from repro.cli import main
        monkeypatch.setenv("REPRO_LANES", "2")
        rc = main(["profile", "gcc.mix", "--scale", "0.05"])
        assert rc == 0
        assert "on 2 lanes" in capsys.readouterr().out

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
