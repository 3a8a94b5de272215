"""DynInstr class facts: derived once, on every construction path.

``is_load``/``is_store``/``is_mem``/``is_branch`` are slots set at
construction from ``op_class``, not properties, so every path that
makes a record must leave them equal to their definitions: the
emulator, the trace reader, the scenario builders, the wrong-path
generator, and copies made by ``copy`` and ``pickle``.
"""

import copy
import pickle

import pytest

from repro.frontend import FetchUnit, make_predictor
from repro.isa import (CTRL_CLASSES, MEM_CLASSES, Emulator, OpClass,
                       ProgramBuilder, load_trace, save_trace)
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


def test_wrong_path_generator():
    trace = build_trace("gcc.mix", scale=0.05)
    fetch = FetchUnit(trace, make_predictor("tage"), width=4)
    records = [fetch._wrong_path_instr() for _ in range(12)]
    assert_class_facts(records)


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
