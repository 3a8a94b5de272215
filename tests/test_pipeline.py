"""Pipeline integration: configs, determinism, exceptions, squashes."""

import json

import pytest

from repro.isa import ProgramBuilder, trace_program
from repro.pipeline import (CoreConfig, DeadlockError, O3Core, base_config,
                            make_config, pro_config, simulate, ultra_config)


def simple_trace(n=50):
    b = ProgramBuilder("simple")
    b.li("x1", 0).li("x2", n)
    b.label("loop")
    b.ld("x3", "x4", 0)
    b.add("x5", "x5", "x3")
    b.sd("x5", "x4", 8)
    b.addi("x1", "x1", 1)
    b.blt("x1", "x2", "loop")
    b.halt()
    return trace_program(b.build())


class TestConfigs:
    def test_table1_presets(self):
        base, pro, ultra = base_config(), pro_config(), ultra_config()
        assert (base.issue_width, base.rob_size, base.iq_size) == (4, 224, 97)
        assert (pro.issue_width, pro.rob_size, pro.iq_size) == (6, 256, 160)
        assert (ultra.issue_width, ultra.rob_size) == (8, 512)
        assert base.fu_total == 8 and pro.fu_total == 8
        assert ultra.fu_total == 11
        assert ultra.lq_size == 128 and ultra.sq_size == 72
        assert (base.rf_size, pro.rf_size, ultra.rf_size) == (180, 280, 380)

    def test_rename_scheme_follows_commit(self):
        assert base_config(commit="ioc").rename_scheme == "inorder"
        assert base_config(commit="orinoco").rename_scheme == "counter"
        assert base_config(commit="vb").rename_scheme == "counter"

    def test_ooo_rob_release(self):
        assert base_config(commit="orinoco").ooo_rob_release
        assert not base_config(commit="ioc").ooo_rob_release
        assert not base_config(commit="vb").ooo_rob_release

    def test_invalid_policies_rejected(self):
        with pytest.raises(ValueError):
            base_config(scheduler="lifo")
        with pytest.raises(ValueError):
            base_config(commit="yolo")
        with pytest.raises(ValueError):
            make_config("mega")

    def test_cri_scheduler_implies_criticality(self):
        assert base_config(scheduler="cri").criticality

    def test_with_policies_clones(self):
        config = base_config()
        clone = config.with_policies(scheduler="orinoco", commit="vb")
        assert clone.scheduler == "orinoco" and clone.commit == "vb"
        assert config.scheduler == "age"            # original untouched


class TestExecution:
    def test_all_instructions_commit(self):
        trace = simple_trace()
        stats = simulate(trace, base_config())
        assert stats.committed == len(trace)
        assert stats.dispatched >= len(trace)
        assert stats.cycles > 0

    def test_deterministic(self):
        trace = simple_trace()
        a = simulate(trace, base_config())
        b = simulate(trace, base_config())
        assert a.cycles == b.cycles
        assert a.ipc == b.ipc

    def test_seed_changes_random_policy_only(self):
        trace = simple_trace()
        r1 = simulate(trace, base_config(scheduler="rand", seed=1))
        r2 = simulate(trace, base_config(scheduler="rand", seed=2))
        # different seeds may change the schedule; both must complete
        assert r1.committed == r2.committed == len(trace)

    def test_ipc_bounded_by_width(self):
        trace = simple_trace()
        stats = simulate(trace, base_config())
        assert stats.ipc <= base_config().issue_width

    def test_occupancies_bounded(self):
        trace = simple_trace()
        from repro.pipeline import O3Core
        core = O3Core(trace, base_config())
        stats = core.run()
        assert stats.occupancy("rob") <= base_config().rob_size
        assert stats.occupancy("iq") <= base_config().iq_size

    @pytest.mark.parametrize("iq_org", ["rand", "circ"])
    @pytest.mark.parametrize("kernel,commit", [
        ("gcc.mix", "ioc"),              # wrong-path squashes
        ("sys.drain", "orinoco"),        # precise exceptions, OoO commit
    ])
    def test_stat_lengths_match_structure_occupancy(self, iq_org, kernel,
                                                    commit):
        """The per-cycle occupancy stats read ``len(iq_ops)``,
        ``len(lsq.lq)`` and ``rename.live_regs``; after every stepped
        cycle each must equal its structure's own occupancy."""
        from repro.workloads import build_trace
        core = O3Core(build_trace(kernel, 0.05),
                      base_config(commit=commit, iq_org=iq_org))
        while not core.done():
            core.step()
            assert len(core.iq_ops) == core.iq_queue.occupancy()
            assert len(core.lsq.lq) == core.lsq.lq_alloc.occupancy()
            assert core.rename.live_regs == \
                core.rename.int_freelist.occupancy() + \
                core.rename.fp_freelist.occupancy()
        # the run went through the squashes it was chosen for
        if kernel == "gcc.mix":
            assert core.stats.wrong_path_dispatched > 0
        else:
            assert core.stats.exceptions > 0

    def test_max_cycles_guard(self):
        trace = simple_trace(200)
        with pytest.raises(DeadlockError):
            simulate(trace, base_config(), max_cycles=10)


class TestPreciseExceptions:
    def _fault_trace(self):
        b = ProgramBuilder("fault")
        b.li("x1", 0x1000)
        for i in range(6):
            b.addi(f"x{10 + i}", "x1", i)
        b.ld("x2", "x1", 0, fault=True)      # page fault
        b.addi("x3", "x2", 1)
        b.addi("x4", "x3", 1)
        b.halt()
        return trace_program(b.build())

    @pytest.mark.parametrize("commit", ["ioc", "orinoco", "vb", "vb_noecl",
                                        "br", "br_noecl", "spec",
                                        "spec_norob", "ecl", "rob"])
    def test_exception_is_precise(self, commit):
        trace = self._fault_trace()
        stats = simulate(trace, base_config(commit=commit))
        assert stats.exceptions == 1
        # every instruction except the faulting one retires (the full
        # Cherry oracle absorbs the fault into its checkpoint and
        # retires the faulting instruction too)
        expected = len(trace) if commit == "spec" else len(trace) - 1
        assert stats.committed == expected

    def test_early_released_victims_squash_cleanly(self):
        """spec_norob recycles registers at completion; a younger
        completed instruction squashed by an older instruction's
        exception must not try to unwind its (irreversible) rename."""
        b = ProgramBuilder("early-release-squash")
        b.li("x5", 1)
        b.li("x1", 0x1000)
        b.ld("x2", "x1", 0, fault=True)      # faults once oldest
        # independent overwriters: they complete (and early-release
        # their prev mappings) before the flush squashes them
        for _ in range(4):
            b.addi("x5", "x5", 1)
        b.halt()
        trace = trace_program(b.build())
        stats = simulate(trace, base_config(commit="spec_norob"))
        assert stats.exceptions == 1
        assert stats.committed == len(trace) - 1

    def test_exception_in_orinoco_waits_for_older(self):
        """The faulting instruction must be the oldest in the ROB when
        the flush triggers, i.e. all older instructions committed."""
        trace = self._fault_trace()
        core = O3Core(trace, base_config(commit="orinoco"))
        flushes = []
        original = core._exception_flush
        def spy(op, cycle):
            flushes.append((op.seq, min(core.window)))
            return original(op, cycle)
        core._exception_flush = spy
        core.run()
        assert len(flushes) == 1
        seq, oldest = flushes[0]
        assert seq == oldest        # nothing older left in the window


class TestMemOrderViolations:
    def _violation_trace(self):
        """A load that must speculate past an unresolved store to the
        same address (the store's address arrives late)."""
        b = ProgramBuilder("viol")
        b.li("x1", 0x1000)
        b.li("x9", 4096 * 3).li("x8", 3)
        b.div("x2", "x9", "x8")        # slow: store address = 0x1000
        b.sd("x8", "x2", 0)            # store to 0x1000, address late
        b.ld("x3", "x1", 0)            # same address, issues earlier
        b.add("x4", "x3", "x3")
        b.halt()
        return trace_program(b.build())

    def test_violation_detected_and_recovered(self):
        trace = self._violation_trace()
        stats = simulate(trace, base_config())
        assert stats.mem_order_violations >= 1
        assert stats.committed == len(trace)

    def test_dependence_predictor_learns(self):
        """The violating PC enters the predictor; a second encounter in
        the same run must not violate again."""
        b = ProgramBuilder("viol2")
        b.li("x1", 0x1000)
        b.li("x9", 4096 * 3).li("x8", 3)
        b.li("x5", 0).li("x6", 2)
        b.label("loop")
        b.div("x2", "x9", "x8")
        b.sd("x8", "x2", 0)
        b.ld("x3", "x1", 0)
        b.add("x4", "x3", "x3")
        b.addi("x5", "x5", 1)
        b.blt("x5", "x6", "loop")
        b.halt()
        trace = trace_program(b.build())
        stats = simulate(trace, base_config())
        assert stats.mem_order_violations == 1
        assert stats.committed == len(trace)

    def test_conservative_mode_never_violates(self):
        trace = self._violation_trace()
        stats = simulate(trace, base_config(mem_dep_policy="conservative"))
        assert stats.mem_order_violations == 0
        assert stats.committed == len(trace)


class TestWrongPathModeling:
    def _mispredict_trace(self):
        b = ProgramBuilder("mp")
        b.li("x1", 0).li("x2", 40)
        b.data_block(0x1000, [(i * 2654435761 >> 13) & 1
                              for i in range(64)])
        b.li("x3", 0x1000)
        b.label("loop")
        b.andi("x4", "x1", 63)
        b.slli("x4", "x4", 3)
        b.add("x4", "x4", "x3")
        b.ld("x5", "x4", 0)
        b.beq("x5", "x0", "skip")
        b.addi("x6", "x6", 1)
        b.label("skip")
        b.addi("x1", "x1", 1)
        b.blt("x1", "x2", "loop")
        b.halt()
        return trace_program(b.build())

    def test_wrong_path_ops_dispatched_and_cleaned(self):
        trace = self._mispredict_trace()
        core = O3Core(trace, base_config())
        stats = core.run()
        if stats.branch_mispredicts:
            assert stats.wrong_path_dispatched > 0
        # at the end no wrong-path residue remains anywhere
        assert not core.window and not core.ops
        assert core.iq_queue.occupancy() == 0
        assert stats.committed == len(trace)

    def test_disabled_wrong_path(self):
        trace = self._mispredict_trace()
        stats = simulate(trace, base_config(model_wrong_path=False))
        assert stats.wrong_path_dispatched == 0
        assert stats.committed == len(trace)

    def test_snapshot_reports_each_ops_own_seq(self):
        """Wrong-path ops share their trace-less records, so a crash
        snapshot must report each op's own seq, not its record's."""
        trace = self._mispredict_trace()
        core = O3Core(trace, base_config())
        while sum(op.wrong_path for op in core.window.values()) < 3:
            assert not core.done(), "no wrong-path ops reached the window"
            core.step()
        snap = core.snapshot(window_ops=len(core.window))
        json.dumps(snap)
        seqs = [entry["seq"] for entry in snap["window_head"]]
        assert seqs == sorted(core.window)
        wrong = [op.seq for op in core.window.values() if op.wrong_path]
        assert len(set(wrong)) == len(wrong) >= 3
        assert set(wrong) <= set(seqs) and max(wrong) < 0
        assert snap["rob_occupancy"] == len(core.window)


class TestPresetsRun:
    @pytest.mark.parametrize("preset", ["base", "pro", "ultra"])
    def test_preset_completes(self, preset):
        trace = simple_trace(30)
        stats = simulate(trace, make_config(preset))
        assert stats.committed == len(trace)


class TestSquashRefetchWakeup:
    """Regression: a squash must not leave stale dependent registrations
    that wake (and double-decrement) the refetched incarnation of the
    same seq.

    The directed program interleaves same-address loads and stores with
    div-fed store data inside a short loop.  A store resolving its
    address finds speculatively-issued younger loads, squashes from the
    oldest violated load, and the refetched store re-registers its data
    dependence on the still-live div.  Before the identity check in the
    writeback wakeup walk, the stale registration from the squashed
    incarnation fired too, driving ``data_remaining`` to -1 so the
    store never completed — an IOC deadlock.
    """

    def _violating_loop(self):
        b = ProgramBuilder("squash-refetch")
        b.li("x1", 0)
        b.li("x2", 2)
        b.li("x3", 0x1000)
        b.label("loop")
        b.ld("x10", "x3", 0)
        b.sd("x14", "x3", 0)
        b.ld("x12", "x3", 0)
        b.sd("x16", "x3", 0)
        b.div("x14", "x17", "x2")
        b.add("x15", "x10", "x1")
        b.sd("x11", "x3", 0)
        b.ld("x17", "x3", 8)
        b.add("x10", "x13", "x1")
        b.div("x11", "x14", "x2")
        b.addi("x1", "x1", 1)
        b.blt("x1", "x2", "loop")
        b.halt()
        return trace_program(b.build())

    @pytest.mark.parametrize("commit", ["ioc", "orinoco", "vb", "rob"])
    def test_no_deadlock_after_violation_squash(self, commit):
        trace = self._violating_loop()
        core = O3Core(trace, base_config(commit=commit))
        stats = core.run(max_cycles=200_000)
        assert stats.committed == len(trace)
        assert stats.mem_order_violations > 0, \
            "program must actually exercise the violation squash"
        assert not core.window and not core.ops

    def test_counters_never_negative(self):
        core = O3Core(self._violating_loop(), base_config(commit="ioc"))
        while not core.done():
            core.step()
            for op in core.ops.values():
                assert op.data_remaining >= 0, \
                    f"stale wakeup double-decremented {op}"
                assert op.producers_remaining >= 0
