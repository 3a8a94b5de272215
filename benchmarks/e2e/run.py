"""End-to-end benchmark runner: one workload, one seed, one run.

    python3 benchmarks/e2e/run.py --workload fig15-serial --seed 0 \\
        --seconds 20 --trace 0

Each timed pass runs in a fresh child process (``child.py``).  The
runner starts passes until ``--seconds`` have elapsed, and at least
``MIN_PASSES`` of them, then tops the set-up samples up to
``SETUP_SAMPLES`` with set-up-only children.  ``--trace 1`` instead runs
one untraced and one traced pass and reports the per-layer metrics of
the traced one, plus the tracing overhead between the two.

Times are scaled to a reference host speed (``hostspeed.py``): the host
is a shared VM whose speed drifts over minutes and halves in bursts, so
each child samples it while it works.  The raw times stay in the run
record.

Outputs are checked: every pass must produce the same digest, no cell
may fail, and at seed 0 every cell must match ``reference/seed0.json``.
The runner prints ``<workload> <metric> <value> <unit>`` per metric,
then, as its last line, a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  It exits 0 when the outputs are correct,
2 when they are not, and 1 (printing no result) when a child fails.
Every run is also written to ``out/runs/`` and appended to
``out/history.jsonl``.

``--repin`` regenerates the seed-0 pins from the serial paths and
refuses to write them if the lane or worker paths disagree.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import time

import spec

#: a child that takes longer than this is killed and the run fails
CHILD_TIMEOUT = 150


class ChildFailed(RuntimeError):
    pass


def child_env(tmp) -> dict:
    """A clean environment: no ambient ``REPRO_*`` settings, the
    checkout's ``src`` on the path, temporary files inside the run."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env.update(PYTHONPATH=str(spec.SRC), PYTHONHASHSEED="0", TMPDIR=str(tmp),
               REPRO_CRASH_DIR=str(tmp / "crash"),
               REPRO_VERIFY_DIR=str(tmp / "verify"))
    return env


class Runner:
    """Starts numbered children under one run directory."""

    def __init__(self, workload: str, seed: int, size: str, run_dir):
        self.workload = workload
        self.seed = seed
        self.size = size
        self.run_dir = run_dir
        self.count = 0

    def child(self, mode: str = "pass", trace: int = 0, spans=None,
              **overrides) -> dict:
        self.count += 1
        tmp = self.run_dir / f"c{self.count}"
        tmp.mkdir(parents=True)
        record = self.run_dir / f"c{self.count}.json"
        cmd = [sys.executable, str(spec.HERE / "child.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--size", self.size, "--mode", mode, "--trace", str(trace),
               "--tmp", str(tmp), "--record", str(record)]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        for key, value in overrides.items():
            cmd += [f"--{key}", str(value)]
        try:
            proc = subprocess.run(cmd, env=child_env(tmp), cwd=spec.ROOT,
                                  stdout=sys.stderr, timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            raise ChildFailed(f"{self.workload} child timed out after "
                              f"{CHILD_TIMEOUT}s") from None
        if proc.returncode != 0:
            raise ChildFailed(f"{self.workload} child exited with "
                              f"{proc.returncode}")
        return json.loads(record.read_text())


def pin_mismatches(cells: dict, pins: dict) -> list:
    """Cells whose stats differ from their pin or that have none, and
    pinned cells the pass never ran.  Failed cells (``None``) are
    already counted among the pass's problems."""
    return sorted(cell for cell in cells.keys() | pins.keys()
                  if cell not in cells
                  or cells[cell] is not None and cells[cell] != pins.get(cell))


def load_pins(workload: str, seed: int, size: str):
    """The reference cell hashes for this run, when it has any."""
    if seed != 0 or size != "full" or not spec.PINS.exists():
        return None
    return json.loads(spec.PINS.read_text())[spec.PIN_GROUP[workload]]


def check(passes: list, pins=None):
    """``(attempted, failed, problems)`` over every pass of a run."""
    attempted = sum(p["attempted"] for p in passes)
    problems = [problem for p in passes for problem in p["problems"]]
    digests = sorted({p["digest"] for p in passes})
    if len(digests) > 1:
        problems.append(f"passes disagree: digests {digests}")
    if pins is not None:
        for p in passes:
            problems += [f"pin mismatch: {cell}"
                         for cell in pin_mismatches(p["cells"], pins["cells"])]
            # a pinned cell the pass never ran was attempted all the same
            attempted += len(pins["cells"].keys() - p["cells"].keys())
    return attempted, len(problems), problems


def measure(args, runner: Runner) -> tuple:
    """Run the children; return ``(passes, set-up samples, values)``."""
    if args.trace:
        untraced = runner.child()
        traced = runner.child(trace=1,
                              spans=spec.OUT / f"spans-{args.workload}.json")
        values = dict(traced["layers"])
        values["trace.overhead_frac"] = \
            traced["pass_s"] / untraced["pass_s"] - 1.0
        return [untraced, traced], [], values
    passes = []
    start = time.perf_counter()
    last = 0.0
    while len(passes) < spec.MIN_PASSES or \
            time.perf_counter() - start + last <= args.seconds:
        began = time.perf_counter()
        passes.append(runner.child())
        last = time.perf_counter() - began
    setups = [p["setup_s"] for p in passes]
    while len(setups) < spec.SETUP_SAMPLES:
        setups.append(runner.child(mode="setup")["setup_s"])
    values = {name: statistics.median(p[name] for p in passes)
              for name in ("pass_s", "cpu_s", "peak_rss_mb")}
    values["setup_s"] = statistics.median(setups)
    return passes, setups, values


def git_sha():
    if not (spec.ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=spec.ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def repin(size: str) -> int:
    """Rewrite the seed-0 pins from the serial paths, cross-checked."""
    run_dir = spec.OUT / "tmp" / f"repin-{os.getpid()}"
    pins = {"seed": 0, "size": size}
    try:
        serial_runs = (
            ("fig15", "fig15-serial", {}, "fig15-lanes8", {}),
            ("figs14_16", "figs-jobs2", {"workers": 1}, "figs-jobs2", {}),
            ("verify", "verify-campaign", {"lanes": 1}, "verify-campaign",
             {}),
        )
        for group, workload, serial, other, alt in serial_runs:
            ref = Runner(workload, 0, size, run_dir / group).child(**serial)
            got = Runner(other, 0, size, run_dir / f"{group}-x").child(**alt)
            if ref["problems"] or ref["cells"] != got["cells"]:
                print(f"repin refused: {group}: serial and {other} "
                      f"disagree or failed: {ref['problems'][:3]}",
                      file=sys.stderr)
                return 2
            pins[group] = {"digest": ref["digest"], "cells": ref["cells"]}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    spec.PINS.parent.mkdir(parents=True, exist_ok=True)
    spec.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {spec.PINS}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=spec.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=sorted(spec.SIZES),
                        help="input size (micro is the smoke-test size)")
    parser.add_argument("--out", default=str(spec.OUT / "runs"),
                        help="directory for this run's JSON record")
    parser.add_argument("--repin", action="store_true",
                        help="regenerate reference/seed0.json")
    args = parser.parse_args(argv)
    bench = spec.load_benchmark()
    if args.repin:
        return repin(args.size)
    if args.workload is None:
        parser.error("--workload is required")

    run_dir = spec.OUT / "tmp" / f"{args.workload}-{os.getpid()}"
    runner = Runner(args.workload, args.seed, args.size, run_dir)
    try:
        passes, setups, values = measure(args, runner)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted, failed, problems = check(
        passes, load_pins(args.workload, args.seed, args.size))
    correct = not problems
    for problem in problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    section = bench["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in section}
    for name, metric in metrics.items():
        print(f"{args.workload} {name} {metric['value']!r} {metric['unit']}")
    print(f"{args.workload} digest {passes[0]['digest']}")

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "size": args.size, "seconds": args.seconds, "time": time.time(),
        "git": git_sha(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": passes[0]["numpy"],
        "correct": correct, "attempted": attempted, "failed": failed,
        "digest": passes[0]["digest"], "metrics": metrics,
        "passes": [{key: p[key] for key in (
                        "pass_s", "cpu_s", "peak_rss_mb", "setup_s",
                        "pass_raw_s", "cpu_raw_s", "setup_raw_s",
                        "slowdown", "samples", "setup_slowdown", "digest")}
                   for p in passes],
        "setup_samples": setups, "problems": problems[:20],
    }
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = f"{args.workload}-s{args.seed}-t{args.trace}-{stamp}-{os.getpid()}"
    (out / f"{name}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    with open(spec.OUT / "history.jsonl", "a") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 2


if __name__ == "__main__":
    sys.exit(main())
