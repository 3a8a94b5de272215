"""The committed bit-identity matrix still describes the engine.

``tests/data/identity_matrix.json`` holds one SimStats digest per
(configuration, target) cell, written by
``benchmarks/identity_matrix.py``.  Tier-1 recomputes one slice of it:
all ten commit policies on sys.drain, the target where they differ most
(precise exceptions, and SPEC's over-commit), and a TSO slice: every
TSO configuration on fotonik.strided, where lockdowns are taken, plus
the lbm.stream cell that overflows the lockdown table.  CI's
``identity-matrix`` job recomputes every cell.
"""

import importlib.util
import json
import pathlib

from repro.pipeline.config import COMMITS
from repro.workloads.targets import sweep_names

ROOT = pathlib.Path(__file__).resolve().parents[1]
MATRIX = ROOT / "tests" / "data" / "identity_matrix.json"


def _load_script():
    path = ROOT / "benchmarks" / "identity_matrix.py"
    spec = importlib.util.spec_from_file_location("identity_matrix", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_commit_policies_on_sys_drain_match_matrix():
    script = _load_script()
    want = json.loads(MATRIX.read_text())
    got = script.compute(targets=["sys.drain"],
                         labels=[f"base age+{commit}" for commit in COMMITS])
    assert len(got) == len(COMMITS)
    assert got == {cell: want[cell] for cell in got}


def test_tso_configurations_match_matrix():
    script = _load_script()
    want = json.loads(MATRIX.read_text())
    tso = [label for label in script.configurations()
           if label.endswith(" tso")]
    got = script.compute(targets=["fotonik.strided"], labels=tso)
    got.update(script.compute(targets=["lbm.stream"],
                              labels=["base age+orinoco tso"]))
    assert len(got) == len(tso) + 1 == 9
    assert got["base age+orinoco tso/lbm.stream"] == \
        "raises RuntimeError: lockdown table full"
    assert got == {cell: want[cell] for cell in got}


def test_matrix_covers_every_cell():
    script = _load_script()
    want = json.loads(MATRIX.read_text())
    assert sorted(want) == sorted(
        f"{label}/{name}" for label in script.configurations()
        for name in sweep_names())
