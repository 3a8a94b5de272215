"""DynInstr class facts: derived once, on every construction path.

``is_load``/``is_store``/``is_mem``/``is_branch`` are slots set at
construction from ``op_class``, not properties, so every path that
makes a record must leave them equal to their definitions: the
emulator, the trace reader, the scenario builders, the wrong-path
records fetch shares, and copies made by ``copy`` and ``pickle``.
"""

import copy
import pickle

import pytest

from repro.frontend.fetch import _WP_OPCODES
from repro.isa import (CTRL_CLASSES, MEM_CLASSES, Emulator, OpClass,
                       ProgramBuilder, load_trace, save_trace)
from repro.pipeline import base_config
from repro.pipeline.stages import FetchStage, PipelineState
from repro.workloads import build_program, build_trace


def assert_class_facts(trace):
    assert len(trace) > 0
    for instr in trace:
        cls = instr.op_class
        assert instr.is_load is (cls is OpClass.LOAD), instr
        assert instr.is_store is (cls is OpClass.STORE), instr
        assert instr.is_mem is (cls in MEM_CLASSES), instr
        assert instr.is_branch is (cls in CTRL_CLASSES), instr
        assert instr.is_cond_branch is (cls is OpClass.BRANCH), instr


@pytest.fixture
def program():
    """One loop touching every op class."""
    b = ProgramBuilder("classes")
    b.li("x1", 3).li("x2", 0).li("x4", 64)
    b.label("loop")
    b.ld("x3", "x4", 8)
    b.sd("x3", "x4", 16)
    b.fld("f3", "x4", 24)
    b.fsd("f3", "x4", 32)
    b.fadd("f1", "f1", "f2")
    b.fmul("f4", "f1", "f2")
    b.fdiv("f5", "f4", "f2")
    b.mul("x5", "x2", "x1")
    b.div("x6", "x5", "x1")
    b.fence()
    b.nop()
    b.jal("x7", "next")
    b.label("next")
    b.addi("x2", "x2", 1)
    b.blt("x2", "x1", "loop")
    b.halt()
    return b.build()


def test_emulator_records(program):
    trace = Emulator(program).run()
    assert {instr.op_class for instr in trace} == set(OpClass)
    assert_class_facts(trace)


@pytest.mark.parametrize("name", ["gcc.mix", "mcf.chase"])
def test_emulator_shares_one_srcs_tuple_per_static_instruction(name):
    program = build_program(name, scale=0.05)
    trace = Emulator(program).run()
    assert_class_facts(trace)
    first = {}
    for instr in trace:
        assert instr.srcs == program[instr.pc].sources()
        assert first.setdefault(instr.pc, instr.srcs) is instr.srcs


def test_trace_file_round_trip(tmp_path, program):
    trace = Emulator(program).run()
    path = tmp_path / "classes.jsonl"
    save_trace(trace, path)
    loaded = load_trace(path)
    assert_class_facts(loaded)
    assert list(loaded) == list(trace)
    # equal source tuples are shared across the loaded records
    seen = {}
    for instr in loaded:
        assert seen.setdefault(instr.srcs, instr.srcs) is instr.srcs
    # the derived slots never reach the file: a second round trip
    # writes the same bytes
    again = tmp_path / "again.jsonl"
    save_trace(loaded, again)
    assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("name", ["smt.gccdiv", "phase.flip", "sys.drain"])
def test_scenario_builders(name):
    """Interleave and phase scenarios rebase component records
    (``_rebased``); the drain scenario copies them with faults set."""
    trace = build_trace(name, scale=0.05, use_cache=False)
    assert_class_facts(trace)
    if name == "sys.drain":
        assert any(instr.fault for instr in trace)


def _fetched_ops(trace, cycles=400):
    """The ops the fetch stage builds over ``cycles`` cycles with nothing
    dispatching or resolving, so fetch runs down the wrong path behind
    the first mispredicted branch for good."""
    stage = FetchStage(PipelineState(trace, base_config()))
    for cycle in range(cycles):
        stage.tick(cycle)
    return [op for _, op in stage.s.frontend_pipe]


def test_wrong_path_generator():
    """Wrong-path fetch shares one record per ``_WP_OPCODES`` slot,
    built by the first wrong-path fetch, and each op built from one has
    its own negative seq: the k-th wrong-path op fetched is seq -k with
    opcode ``_WP_OPCODES[k % 6]``."""
    trace = build_trace("gcc.mix", scale=0.05)
    ops = _fetched_ops(trace)
    wrong = [op for op in ops if op.wrong_path]
    assert len(wrong) >= 12
    assert [op.seq for op in wrong] == list(range(-1, -len(wrong) - 1, -1))
    slots = {}
    for op in wrong:
        k = -op.seq
        assert op.dyn.opcode is _WP_OPCODES[k % 6]
        assert slots.setdefault(k % 6, op.dyn) is op.dyn, op
    assert len({id(record) for record in slots.values()}) == 6
    assert_class_facts(list(slots.values()))
    # never a trace record (the criticality tagger writes those), and
    # every core builds its own, on its first wrong-path fetch
    in_trace = {id(instr) for instr in trace}
    assert not any(id(record) in in_trace for record in slots.values())
    other = {id(op.dyn) for op in _fetched_ops(trace) if op.wrong_path}
    assert not other & {id(record) for record in slots.values()}
    # the correct path ends at the one mispredicted branch
    right = [op for op in ops if not op.wrong_path]
    assert [op.seq for op in right] == list(range(len(right)))
    assert all(op.dyn is trace.instrs[op.seq] for op in right)
    assert [op.mispredicted for op in right] == \
        [False] * (len(right) - 1) + [True]


def test_copy_and_pickle_keep_the_facts(program):
    trace = Emulator(program).run()
    for instr in trace:
        for clone in (copy.copy(instr), copy.deepcopy(instr),
                      pickle.loads(pickle.dumps(instr))):
            assert clone == instr
            assert_class_facts([clone])


def test_equality_compares_only_fields(program):
    trace = Emulator(program).run()
    a = trace[0]
    b = copy.copy(a)
    b.is_load = not a.is_load
    assert a == b, "derived slots must not take part in equality"
    b.imm = a.imm + 1
    assert a != b
