"""Smoke test of the end-to-end benchmark at the micro input size.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Runs every workload through ``run.py`` at the micro size (three targets
at scale 0.02, three verify programs), untraced and traced, and checks
that every metric BENCHMARK.json names is printed with its unit.  It
also plants failures — a worker crash, a differing or missing pinned
cell, passes that disagree — and checks they land in the ``failed``
count; checks ``compare.py``'s verdicts and the host-speed scaling; and
checks that the runner fails cleanly in a checkout without the
program's sources.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time

import pytest

import compare
import hostspeed
import run
import spec

BENCH = spec.load_benchmark()
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_follows_the_contract():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCH["workloads"]] == list(spec.WORKLOADS)
    metrics = BENCH["end_to_end"] + BENCH["per_layer"]
    names = [m["name"] for m in metrics + BENCH["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"]) for m in metrics)
    assert all(m["better"] in ("higher", "lower") for m in metrics)
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def _run(workload: str, trace: int, out) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(spec.HERE / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0", "--trace", str(trace),
         "--size", "micro", "--out", str(out)],
        capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", spec.WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace, tmp_path):
    proc = _run(workload, trace, tmp_path)
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    printed = {line.split()[1]: line.split() for line in lines[:-1]}
    section = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in section}
    for metric in section:
        _, _, value, unit = printed[metric["name"]]
        assert unit == metric["unit"]
        assert float(value) == result["metrics"][metric["name"]]["value"]
        if not trace:
            assert float(value) > 0


def test_planted_worker_crash_counts_as_failed(tmp_path):
    env = run.child_env(tmp_path)
    env["REPRO_FAULT"] = "crash:AGE/gcc.mix"
    record = tmp_path / "record.json"
    subprocess.run(
        [sys.executable, str(spec.HERE / "child.py"), "--workload",
         "figs-jobs2", "--size", "micro", "--tmp", str(tmp_path / "run"),
         "--record", str(record)],
        env=env, check=True, timeout=170)
    attempted, failed, problems = run.check([json.loads(record.read_text())])
    assert failed / attempted > 0
    assert any("fig14:AGE/gcc.mix" in problem for problem in problems)


@pytest.mark.parametrize("rob", ("b" * 64, None), ids=("differs", "missing"))
def test_planted_pin_mismatch_counts_as_failed(rob):
    pins = {"cells": {"fig15:IOC/gcc.mix": "a" * 64,
                      "fig15:ROB/gcc.mix": "c" * 64}}
    cells = {"fig15:IOC/gcc.mix": "a" * 64}
    if rob is not None:
        cells["fig15:ROB/gcc.mix"] = rob
    record = {"attempted": len(cells), "problems": [], "digest": "d",
              "cells": cells}
    attempted, failed, problems = run.check([record], pins)
    assert (attempted, failed) == (2, 1)
    assert problems == ["pin mismatch: fig15:ROB/gcc.mix"]


def test_compare_verdicts():
    base = [10.0 + 0.1 * i for i in range(10)]
    cases = {"improved": [x * 0.8 for x in base],
             "slower": [x * 1.1 for x in base],
             "regressed": [x * 1.3 for x in base],
             "unchanged": base[::-1],
             "unresolved": [x * (1.5 if i % 2 else 0.7)
                            for i, x in enumerate(base)]}
    for expected, head in cases.items():
        assert compare.verdict(base, head, 0.25, True)[0] == expected


def test_host_speed_scaling():
    ref = hostspeed.REFERENCE_SLICE_S
    samples = [(0.5, 2 * ref, 3 * ref), (1.5, 2 * ref, 3 * ref),
               (9.0, ref, 2 * ref)]
    assert hostspeed.slowdown(samples, 0.0, 2.0) == (2.0, 2)
    assert hostspeed.slowdown(samples, 3.0, 4.0) == (1.0, 0)
    sampler = hostspeed.Sampler()
    sampler.samples = samples
    assert sampler.own_seconds(0.0, 2.0) == pytest.approx(6 * ref)


def test_sampler_samples_while_work_runs():
    sampler = hostspeed.Sampler()
    sampler.start()
    try:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    finally:
        sampler.stop()
    assert len(sampler.samples) >= 3
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


def test_passes_that_disagree_count_as_failed():
    records = [{"attempted": 1, "problems": [], "digest": digest,
                "cells": {}} for digest in ("d1", "d2")]
    attempted, failed, problems = run.check(records)
    assert (attempted, failed) == (2, 1)
    assert problems[0].startswith("passes disagree")


def test_runner_fails_without_the_program_sources(tmp_path):
    shutil.copy(spec.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(spec.HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload",
         "fig15-serial", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
