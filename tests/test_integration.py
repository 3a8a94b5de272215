"""Cross-module integration invariants."""

import pytest

from repro import base_config, simulate
from repro.isa import ProgramBuilder, trace_program
from repro.pipeline import O3Core
from repro.workloads import build_trace


def mixed_trace():
    b = ProgramBuilder("mixed")
    b.li("x1", 0).li("x2", 60).li("x3", 0x4000)
    b.data_block(0x100, [2.5, 3.5])
    b.fld("f1", "x0", 0x100)
    b.label("loop")
    b.ld("x4", "x3", 0)
    b.fadd("f2", "f2", "f1")
    b.mul("x5", "x4", "x4")
    b.sd("x5", "x3", 8)
    b.addi("x3", "x3", 16)
    b.addi("x1", "x1", 1)
    b.blt("x1", "x2", "loop")
    b.halt()
    return trace_program(b.build())


class TestSchedulerCommitCross:
    """Every (scheduler, commit) combination completes correctly."""

    @pytest.mark.parametrize("scheduler", ["rand", "age", "mult",
                                           "orinoco", "ideal"])
    @pytest.mark.parametrize("commit", ["ioc", "orinoco", "vb", "br",
                                        "spec"])
    def test_combination(self, scheduler, commit):
        trace = mixed_trace()
        stats = simulate(trace, base_config(scheduler=scheduler,
                                            commit=commit))
        assert stats.committed == len(trace)


class TestShiftEquivalence:
    """SHIFT (collapsible positional) selection == Orinoco bit count
    selection: the paper's point that the matrix preserves the ideal
    ordering a collapsible queue provides physically."""

    @pytest.mark.parametrize("kernel", ["gcc.mix", "leela.chains"])
    def test_same_cycle_count(self, kernel):
        trace = build_trace(kernel, scale=0.3, use_cache=False)
        shift = simulate(trace, base_config(scheduler="shift"))
        orinoco = simulate(trace, base_config(scheduler="orinoco"))
        assert shift.cycles == orinoco.cycles


class TestCleanFinalState:
    @pytest.mark.parametrize("commit", ["ioc", "orinoco", "vb", "spec",
                                        "rob", "ecl"])
    def test_no_leaks(self, commit):
        trace = mixed_trace()
        core = O3Core(trace, base_config(commit=commit))
        core.run()
        assert not core.window and not core.ops and not core.zombies
        assert core.iq_queue.occupancy() == 0
        assert core.rob_queue.occupancy() == 0
        assert core.lsq.lq_occupancy() == 0
        assert core.lsq.sq_occupancy() == 0
        assert not core.state.spec_stamps
        assert not core.iq_ops
        # every physical register beyond the architectural mappings is free
        assert core.rename.int_freelist.occupancy() == 32
        assert core.rename.fp_freelist.occupancy() == 32

    def test_no_leaks_after_exception(self):
        b = ProgramBuilder("exc")
        b.li("x1", 0x1000)
        b.ld("x2", "x1", 0, fault=True)
        b.addi("x3", "x2", 1)
        b.halt()
        trace = trace_program(b.build())
        core = O3Core(trace, base_config(commit="orinoco"))
        core.run()
        assert not core.window and not core.ops
        assert core.rename.int_freelist.occupancy() == 32

    def test_no_leaks_after_violation(self):
        b = ProgramBuilder("viol")
        b.li("x1", 0x1000)
        b.li("x9", 4096 * 3).li("x8", 3)
        b.div("x2", "x9", "x8")
        b.sd("x8", "x2", 0)
        b.ld("x3", "x1", 0)
        b.halt()
        trace = trace_program(b.build())
        core = O3Core(trace, base_config())
        stats = core.run()
        assert stats.mem_order_violations >= 1
        assert not core.window and not core.ops
        assert core.rename.int_freelist.occupancy() == 32


class TestTSOPipeline:
    def test_tso_orinoco_completes_with_lockdowns(self):
        b = ProgramBuilder("tso")
        b.li("x1", 0x100000).li("x2", 0x1000)
        b.ld("x9", "x2", 0)            # warm the fast line
        for i in range(4):
            b.ld("x3", "x1", i * 8192)   # slow loads
            b.ld("x4", "x2", 0)          # fast younger loads
            b.add("x5", "x5", "x4")
        b.halt()
        trace = trace_program(b.build())
        core = O3Core(trace, base_config(commit="orinoco", tso=True))
        stats = core.run()
        assert stats.committed == len(trace)
        assert stats.lockdowns >= 1
        assert core.lsq.ldt_occupancy() == 0            # all released


class TestPackageAPI:
    def test_version(self):
        import repro
        assert repro.__version__ == "1.0.0"

    def test_top_level_exports(self):
        import repro
        for name in ("simulate", "base_config", "O3Core", "CoreConfig"):
            assert hasattr(repro, name)
