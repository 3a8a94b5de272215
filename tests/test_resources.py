"""Functional unit pool: per-cycle issue limits, unpipelined dividers."""

import pytest

from repro.isa import OpClass, assemble, trace_program
from repro.pipeline import FUPool, FUType, O3Core, base_config, fu_type_for
from repro.pipeline.events import EventType


@pytest.fixture
def pool():
    return FUPool({FUType.ALU: 2, FUType.MULDIV: 1, FUType.FPU: 1,
                   FUType.LOAD: 1, FUType.STORE: 1})


class TestMapping:
    @pytest.mark.parametrize("cls,fu", [
        (OpClass.INT_ALU, FUType.ALU), (OpClass.BRANCH, FUType.ALU),
        (OpClass.JUMP, FUType.ALU), (OpClass.SYS, FUType.ALU),
        (OpClass.INT_MUL, FUType.MULDIV), (OpClass.INT_DIV, FUType.MULDIV),
        (OpClass.FP_ADD, FUType.FPU), (OpClass.FP_DIV, FUType.FPU),
        (OpClass.LOAD, FUType.LOAD), (OpClass.STORE, FUType.STORE)])
    def test_class_to_fu(self, cls, fu):
        assert fu_type_for(cls) is fu


class TestPerCycleLimits:
    def test_issue_width_per_type(self, pool):
        pool.begin_cycle(0)
        assert pool.acquire(OpClass.INT_ALU, 1)
        assert pool.acquire(OpClass.INT_ALU, 1)
        assert not pool.acquire(OpClass.INT_ALU, 1)   # only 2 ALUs

    def test_limits_reset_each_cycle(self, pool):
        pool.begin_cycle(0)
        pool.acquire(OpClass.INT_ALU, 1)
        pool.acquire(OpClass.INT_ALU, 1)
        pool.begin_cycle(1)
        assert pool.available(FUType.ALU) == 2

    def test_availability_vector(self, pool):
        pool.begin_cycle(0)
        pool.acquire(OpClass.LOAD, 4)
        vec = pool.availability_vector()
        assert vec[FUType.LOAD] == 0
        assert vec[FUType.ALU] == 2


class TestUnpipelined:
    def test_divider_blocks_for_latency(self, pool):
        pool.begin_cycle(0)
        assert pool.acquire(OpClass.INT_DIV, 12)
        pool.begin_cycle(5)
        assert pool.available(FUType.MULDIV) == 0     # still dividing
        assert not pool.acquire(OpClass.INT_MUL, 3)
        pool.begin_cycle(13)
        assert pool.available(FUType.MULDIV) == 1

    def test_pipelined_mul_does_not_block(self, pool):
        pool.begin_cycle(0)
        assert pool.acquire(OpClass.INT_MUL, 3)
        pool.begin_cycle(1)
        assert pool.acquire(OpClass.INT_MUL, 3)       # new op each cycle

    def test_fp_div_unpipelined(self, pool):
        pool.begin_cycle(0)
        assert pool.acquire(OpClass.FP_DIV, 12)
        pool.begin_cycle(1)
        assert not pool.acquire(OpClass.FP_ADD, 3)    # FPU busy

    def test_unpipelined_op_counted_once_in_its_issue_cycle(self):
        """A divide holds one unit through its busy entry; the other
        units of its type stay free in the same cycle."""
        pool = FUPool({FUType.ALU: 1, FUType.MULDIV: 1, FUType.FPU: 2,
                       FUType.LOAD: 1, FUType.STORE: 1})
        pool.begin_cycle(0)
        assert pool.acquire(OpClass.FP_DIV, 12)
        assert pool.available(FUType.FPU) == 1
        assert pool.availability_vector()[FUType.FPU] == 1
        assert pool.acquire(OpClass.FP_ADD, 3)
        assert pool.available(FUType.FPU) == 0
        pool.begin_cycle(1)
        assert pool.available(FUType.FPU) == 1        # divide still busy
        pool.begin_cycle(12)
        assert pool.available(FUType.FPU) == 2


def test_fadd_issues_beside_fdiv_on_two_fpus():
    """Base has two FPUs: the cycle that issues FDIV also issues one
    FADD (AGE fills the slots after the oldest in random order), and
    the other FADD follows in the next cycle."""
    trace = trace_program(assemble(
        "fdiv f1, f2, f3\nfadd f4, f5, f6\nfadd f7, f8, f9\nhalt\n"))
    config = base_config(scheduler="age", commit="ioc")
    assert config.fu_fpu == 2
    core = O3Core(trace, config)
    issued = {}
    core.bus.subscribe(EventType.ISSUE, lambda event: issued.setdefault(
        event.op.seq, event.cycle))
    core.run()
    fdiv = issued[0]
    assert sorted((issued[1], issued[2])) == [fdiv, fdiv + 1]


def test_refused_grant_raises():
    """Select grants within the availability vector, so a unit the pool
    then refuses is an engine fault, not a cycle to skip silently."""
    trace = trace_program(assemble("fadd f4, f5, f6\nhalt\n"))
    core = O3Core(trace, base_config(scheduler="age", commit="ioc"))
    core.fupool.acquire_fu = lambda fu, latency, unpipelined: False
    with pytest.raises(RuntimeError, match="unit is free"):
        core.run()
