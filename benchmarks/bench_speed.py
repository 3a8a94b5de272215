"""Engine speed benchmark: simulated kilocycles per second.

Unlike the other ``bench_*`` files (pytest experiments that regenerate
paper artefacts), this is a standalone script measuring how fast the
*simulator itself* runs — the number the PR 4 hot-path work optimises:

    PYTHONPATH=src python benchmarks/bench_speed.py [--quick] [--jobs N]

Each suite kernel is simulated ``--reps`` times and the fastest rep
kept (min-of-reps rejects background-load noise).  With ``--jobs N``
the same cells are also run through the harness executor
(:func:`repro.harness.run_config` — the chunked dispatcher real
experiments use) to measure true end-to-end parallel wall-clock
against the serial sweep wall, and the parallel stats are checked
bit-identical against the serial ones.  ``--gate RATIO`` turns the
comparison into a pass/fail check for CI: exit 1 if parallel wall
exceeds ``RATIO x`` serial wall (skipped, and recorded as skipped,
on single-CPU hosts where a speedup is physically unattainable) and
exit 2 if the stats diverge.  ``--lanes L`` measures the lane-batched
engine two ways: the heterogeneous sweep (same cells, workers=1,
lockstep batches of L — end-to-end occupancy included) and a
*saturated* pass (L copies of each kernel filling one batch — the
engine's full-occupancy throughput, reported per kernel as
``lane_serial_equiv_kcps`` = simulated cycles summed across lanes /
wall, with a ``lanes_vs_serial_geomean`` across kernels).
``--lane-gate R`` is the lane CI check: the saturated geomean must be
>= R — identity always enforced, the throughput check skipped on
1-CPU hosts.  Results land in ``benchmarks/out/BENCH_speed.json`` —
per-workload kilocycles/sec, geomean, suite totals, and the
serial-vs-parallel/lane comparisons — for before/after comparisons:
check out the baseline tree, run with ``--out baseline.json``, and
diff the ``summary`` blocks.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent
                       / "src"))

from repro.harness import run_config, shutdown_pools       # noqa: E402
from repro.pipeline import base_config, simulate           # noqa: E402
from repro.pipeline.lanes import LaneBatch, LaneCell       # noqa: E402
from repro.workloads import (build_suite, build_trace,     # noqa: E402
                             kernel_names)

OUT_PATH = pathlib.Path(__file__).parent / "out" / "BENCH_speed.json"
QUICK_KERNELS = ("mcf.chase", "lbm.stream", "perl.branchy",
                 "gcc.mix", "xalanc.hash")


def _run_cell(kernel: str, scale: float, scheduler: str, commit: str):
    """One simulation cell; returns (stats, seconds)."""
    trace = build_trace(kernel, scale)
    config = base_config(scheduler=scheduler, commit=commit)
    start = time.perf_counter()
    stats = simulate(trace, config)
    return stats, time.perf_counter() - start


def _serial_pass(kernels, scale, scheduler, commit, reps):
    """Per-cell min-of-reps timings plus one-sweep wall-clock.

    Returns ``(per_kernel_rows, stats_by_kernel, sweep_wall)`` where
    ``sweep_wall`` is the wall-clock of one full serial pass over the
    suite (total wall / reps) — the honest baseline the parallel pass
    has to beat.  Traces are pre-built by the caller so neither side's
    wall is dominated by first-touch trace generation.
    """
    results = {}
    stats_by_kernel = {}
    wall_start = time.perf_counter()
    for kernel in kernels:
        best = None
        for _ in range(reps):
            stats, seconds = _run_cell(kernel, scale, scheduler, commit)
            stats_by_kernel[kernel] = stats
            best = seconds if best is None else min(best, seconds)
        cycles = stats_by_kernel[kernel].cycles
        results[kernel] = {
            "cycles": cycles,
            "seconds": round(best, 4),
            "kcps": round(cycles / best / 1e3, 1) if best > 0 else 0.0,
        }
    sweep_wall = (time.perf_counter() - wall_start) / reps
    return results, stats_by_kernel, sweep_wall


def _parallel_pass(traces, scheduler, commit, jobs, chunk,
                   serial_stats, serial_wall):
    """End-to-end executor run over the same cells, vs the serial wall.

    Uses the chunked dispatcher real experiments use (worker spawn,
    batched pipe round-trips, in-worker trace rebuild + LRU), so the
    measured wall is what a user actually waits for ``--jobs N``.
    """
    config = base_config(scheduler=scheduler, commit=commit)
    start = time.perf_counter()
    result = run_config("bench", config, traces, workers=jobs,
                        use_cache=False, chunk=chunk)
    wall = time.perf_counter() - start
    shutdown_pools()
    identical = all(result.stats.get(name) == serial_stats[name]
                    for name in traces)
    total_cycles = sum(stats.cycles for stats in result.stats.values())
    return {
        "jobs": jobs,
        "chunk": chunk if chunk is not None else "factoring",
        "wall_seconds": round(wall, 4),
        "serial_wall_seconds": round(serial_wall, 4),
        "speedup": round(serial_wall / wall, 3) if wall > 0 else 0.0,
        "total_cycles": total_cycles,
        "kcps": round(total_cycles / wall / 1e3, 1) if wall > 0 else 0.0,
        "trace_cache_hits": result.trace_cache_hits(),
        "queued_seconds": round(result.queued_seconds(), 4),
        "identical": identical,
        "cpus": os.cpu_count() or 1,
    }


def _lane_pass(traces, scheduler, commit, lanes, serial_stats,
               serial_wall):
    """In-process lane-batched sweep over the same cells.

    Measures the lane-stacked engine (``repro.pipeline.lanes``): up to
    ``lanes`` compatible cells stepped in lockstep over one
    struct-of-arrays stack, single process (workers=1) so the number
    isolates the lane engine from worker parallelism.  Per-cell stats
    are checked field-identical against the serial pass — the identity
    contract matters more than the wall number and is always enforced.
    """
    config = base_config(scheduler=scheduler, commit=commit)
    start = time.perf_counter()
    result = run_config("bench-lanes", config, traces, workers=1,
                        use_cache=False, lanes=lanes)
    wall = time.perf_counter() - start
    identical = all(result.stats.get(name) == serial_stats[name]
                    for name in traces)
    total_cycles = sum(stats.cycles for stats in result.stats.values())
    speedup = serial_wall / wall if wall > 0 else 0.0
    return {
        "lanes": lanes,
        "wall_seconds": round(wall, 4),
        "serial_wall_seconds": round(serial_wall, 4),
        "speedup": round(speedup, 3),
        "total_cycles": total_cycles,
        "kcps": round(total_cycles / wall / 1e3, 1) if wall > 0 else 0.0,
        # simulated cycles summed across lanes / wall: the rate one
        # process delivers in serial-run-equivalents
        "lane_serial_equiv_kcps": round(total_cycles / wall / 1e3, 1)
        if wall > 0 else 0.0,
        "mean_active_lanes": round(result.mean_lane_occupancy(), 3),
        "batches": len(result.lane_batches),
        "trace_cache_hits": result.trace_cache_hits(),
        "identical": identical,
        "target_5x_met": speedup >= 5.0,
        "cpus": os.cpu_count() or 1,
    }


def _saturated_pass(traces, scheduler, commit, lanes, serial,
                    serial_stats):
    """Full-occupancy lane throughput: L copies of each kernel.

    The heterogeneous sweep above under-fills the batch whenever fewer
    than L cells are live (its mean occupancy is the honest end-to-end
    number), so it conflates engine speed with suite shape.  This pass
    keeps all L lanes busy on one kernel at a time and compares the
    batch wall against L serial runs of that kernel (min-of-reps
    seconds from the serial pass).  Per-kernel stats are checked
    field-identical against serial; the speedup geomean across kernels
    is the number ``--lane-gate`` enforces.
    """
    config = base_config(scheduler=scheduler, commit=commit)
    per_kernel = {}
    identical = True
    total_cycles = 0
    total_wall = 0.0
    for kernel, trace in traces.items():
        cells = [LaneCell(i, trace, config) for i in range(lanes)]
        batch = LaneBatch(lanes, config.iq_size)
        start = time.perf_counter()
        outcome = batch.run(cells)
        wall = time.perf_counter() - start
        reference = serial_stats[kernel]
        cycles = 0
        for out in outcome.outcomes:
            if out.stats is None or out.stats != reference:
                identical = False
            else:
                cycles += out.stats.cycles
        serial_equiv = lanes * serial[kernel]["seconds"]
        speedup = serial_equiv / wall if wall > 0 else 0.0
        per_kernel[kernel] = {
            "wall_seconds": round(wall, 4),
            "serial_equiv_seconds": round(serial_equiv, 4),
            "speedup": round(speedup, 3),
            "lane_serial_equiv_kcps": round(cycles / wall / 1e3, 1)
            if wall > 0 else 0.0,
            "mean_active_lanes": round(outcome.mean_active(), 3),
        }
        total_cycles += cycles
        total_wall += wall
    ratios = [row["speedup"] for row in per_kernel.values()]
    geomean = math.exp(sum(math.log(r) for r in ratios) / len(ratios)) \
        if ratios and all(r > 0 for r in ratios) else 0.0
    return {
        "lanes": lanes,
        "identical": identical,
        "wall_seconds": round(total_wall, 4),
        "lane_serial_equiv_kcps": round(total_cycles / total_wall / 1e3,
                                        1) if total_wall > 0 else 0.0,
        "lanes_vs_serial_geomean": round(geomean, 3),
        "per_kernel": per_kernel,
    }


def _apply_lane_gate(report, gate):
    """Enforce ``--lane-gate``; returns the process exit code.

    Identity divergence — in the heterogeneous sweep or the saturated
    pass — is always fatal (exit 2).  The throughput check gates the
    *saturated* lanes-vs-serial geomean (``speedup >= R``): the
    heterogeneous sweep's wall ratio depends on suite shape (a
    straggler kernel drains the batch to one live lane), so gating it
    would measure the workload mix, not the engine.  On single-CPU
    hosts the check is skipped — and recorded as skipped, with the
    measured geomean — because scheduler noise under CI load makes
    wall ratios there too unstable to fail a build on.
    """
    lane = report["lane"]
    saturated = lane.get("saturated")
    if not lane["identical"] or (saturated is not None
                                 and not saturated["identical"]):
        report["lane_gate"] = {"min_speedup": gate, "passed": False,
                               "reason": "lane stats diverged from serial"}
        print("GATE FAIL: lane-batched stats are not field-identical "
              "to serial", file=sys.stderr)
        return 2
    measured = saturated["lanes_vs_serial_geomean"] if saturated \
        else lane["speedup"]
    if lane["cpus"] <= 1:
        report["lane_gate"] = {
            "min_speedup": gate, "skipped": True,
            "measured": measured,
            "reason": f"single-CPU host (cpus={lane['cpus']}); "
                      f"throughput ratio too noisy to enforce"}
        print(f"lane gate skipped: single-CPU host (saturated geomean "
              f"{measured:.2f}x recorded, not enforced)")
        return 0
    passed = measured >= gate
    report["lane_gate"] = {"min_speedup": gate,
                           "measured": round(measured, 3),
                           "passed": passed}
    if not passed:
        print(f"GATE FAIL: saturated lanes-vs-serial geomean "
              f"{measured:.2f}x is below the {gate:g}x floor",
              file=sys.stderr)
        return 1
    print(f"lane gate ok: saturated lanes-vs-serial geomean "
          f"{measured:.2f}x >= {gate:g}x")
    return 0


def _apply_gate(report, gate):
    """Enforce ``--gate``; returns the process exit code.

    Stats divergence is always fatal (exit 2).  The wall-clock ratio
    check needs real parallelism to be winnable, so on a single-CPU
    host it is skipped — and recorded as skipped, never silently — as
    parallel-beats-serial is physically unattainable there (the CI
    runners enforcing the gate have multiple cores).
    """
    par = report["parallel"]
    if not par["identical"]:
        report["gate"] = {"ratio": gate, "passed": False,
                          "reason": "parallel stats diverged from serial"}
        print("GATE FAIL: parallel stats are not bit-identical to serial",
              file=sys.stderr)
        return 2
    if par["cpus"] <= 1:
        report["gate"] = {"ratio": gate, "skipped": True,
                          "reason": f"single-CPU host (cpus={par['cpus']}); "
                                    f"wall ratio not enforceable"}
        print(f"gate skipped: single-CPU host "
              f"(parallel {par['wall_seconds']:.2f}s vs serial "
              f"{par['serial_wall_seconds']:.2f}s recorded, not enforced)")
        return 0
    ratio = (par["wall_seconds"] / par["serial_wall_seconds"]
             if par["serial_wall_seconds"] > 0 else float("inf"))
    passed = ratio <= gate
    report["gate"] = {"ratio": gate, "measured": round(ratio, 3),
                      "passed": passed}
    if not passed:
        print(f"GATE FAIL: parallel wall {par['wall_seconds']:.2f}s is "
              f"{ratio:.2f}x serial {par['serial_wall_seconds']:.2f}s "
              f"(limit {gate:g}x)", file=sys.stderr)
        return 1
    print(f"gate ok: parallel/serial wall ratio {ratio:.2f} <= {gate:g}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="simulator speed benchmark (kilocycles/sec)")
    parser.add_argument("--quick", action="store_true",
                        help=f"subset of {len(QUICK_KERNELS)} kernels at "
                             "scale 0.25 (CI smoke)")
    parser.add_argument("--scale", type=float, default=None,
                        help="workload scale (default 1.0, quick 0.25)")
    parser.add_argument("--kernels", nargs="*", default=None,
                        help="restrict to these suite kernels")
    parser.add_argument("--scheduler", default="age")
    parser.add_argument("--commit", default="ioc")
    parser.add_argument("--reps", type=int, default=1,
                        help="serial reps per cell; fastest kept")
    parser.add_argument("--jobs", type=int, default=0, metavar="N",
                        help="also measure end-to-end wall over N "
                             "executor workers (chunked dispatch)")
    parser.add_argument("--chunk", type=int, default=None, metavar="K",
                        help="cells per dispatch chunk for --jobs "
                             "(default: factoring)")
    parser.add_argument("--gate", type=float, default=None, metavar="R",
                        help="fail if parallel wall > R x serial wall "
                             "(requires --jobs; skipped on 1-CPU hosts); "
                             "stat divergence always fails")
    parser.add_argument("--lanes", type=int, default=0, metavar="L",
                        help="also measure the lane-batched engine: the "
                             "same cells in lockstep batches of L over "
                             "struct-of-arrays state (workers=1, so the "
                             "number isolates the lane engine)")
    parser.add_argument("--lane-gate", type=float, default=None,
                        metavar="R",
                        help="fail if the saturated lanes-vs-serial "
                             "speedup geomean < R (requires --lanes; "
                             "throughput check skipped on 1-CPU hosts); "
                             "identity divergence always fails")
    parser.add_argument("--out", default=str(OUT_PATH),
                        help="output JSON path")
    args = parser.parse_args(argv)

    kernels = args.kernels or (list(QUICK_KERNELS) if args.quick
                               else kernel_names())
    scale = args.scale if args.scale is not None else \
        (0.25 if args.quick else 1.0)

    # pre-build every trace so neither pass's wall measures generation
    traces = build_suite(scale, kernels)
    serial, serial_stats, serial_wall = _serial_pass(
        kernels, scale, args.scheduler, args.commit, max(1, args.reps))
    total_cycles = sum(row["cycles"] for row in serial.values())
    total_seconds = sum(row["seconds"] for row in serial.values())
    geomean = math.exp(sum(math.log(row["kcps"])
                           for row in serial.values()) / len(serial))
    report = {
        "schema": "bench-speed/4",
        "scale": scale,
        "reps": max(1, args.reps),
        "scheduler": args.scheduler,
        "commit": args.commit,
        "serial": serial,
        "summary": {
            "total_cycles": total_cycles,
            "total_seconds": round(total_seconds, 4),
            "serial_wall_seconds": round(serial_wall, 4),
            "kcps": round(total_cycles / total_seconds / 1e3, 1)
            if total_seconds > 0 else 0.0,
            "geomean_kcps": round(geomean, 1),
        },
    }
    if args.jobs > 1:
        report["parallel"] = _parallel_pass(
            traces, args.scheduler, args.commit, args.jobs, args.chunk,
            serial_stats, serial_wall)
    if args.lanes > 1:
        report["lane"] = _lane_pass(
            traces, args.scheduler, args.commit, args.lanes,
            serial_stats, serial_wall)
        report["lane"]["saturated"] = _saturated_pass(
            traces, args.scheduler, args.commit, args.lanes,
            serial, serial_stats)

    exit_code = 0
    if args.gate is not None and "parallel" in report:
        exit_code = _apply_gate(report, args.gate)
    if args.lane_gate is not None and "lane" in report:
        exit_code = max(exit_code,
                        _apply_lane_gate(report, args.lane_gate))

    out_path = pathlib.Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(report, indent=2) + "\n")

    width = max(len(k) for k in kernels)
    print(f"engine speed ({args.scheduler}/{args.commit}, scale "
          f"{scale:g}, min of {max(1, args.reps)} reps):")
    for kernel, row in serial.items():
        print(f"  {kernel:<{width}}  {row['cycles']:>9} cycles  "
              f"{row['seconds']:>8.3f}s  {row['kcps']:>8.1f} kcps")
    summary = report["summary"]
    print(f"  {'total':<{width}}  {summary['total_cycles']:>9} cycles  "
          f"{summary['total_seconds']:>8.3f}s  {summary['kcps']:>8.1f} "
          f"kcps (geomean {summary['geomean_kcps']:.1f})")
    if "parallel" in report:
        par = report["parallel"]
        print(f"  parallel x{par['jobs']} (chunk {par['chunk']}): "
              f"{par['wall_seconds']:.3f}s wall vs "
              f"{par['serial_wall_seconds']:.3f}s serial "
              f"({par['speedup']:.2f}x, {par['kcps']:.1f} kcps, "
              f"{par['trace_cache_hits']} trace-LRU hits, "
              f"stats {'identical' if par['identical'] else 'DIVERGED'})")
    if "lane" in report:
        lane = report["lane"]
        print(f"  lanes x{lane['lanes']}: {lane['wall_seconds']:.3f}s "
              f"wall vs {lane['serial_wall_seconds']:.3f}s serial "
              f"({lane['speedup']:.2f}x, {lane['kcps']:.1f} kcps, mean "
              f"{lane['mean_active_lanes']:.2f} active lanes over "
              f"{lane['batches']} batches, stats "
              f"{'identical' if lane['identical'] else 'DIVERGED'})")
        sat = lane.get("saturated")
        if sat is not None:
            for kernel, row in sat["per_kernel"].items():
                print(f"  {kernel:<{width}}  saturated x{sat['lanes']}: "
                      f"{row['wall_seconds']:>8.3f}s  "
                      f"{row['speedup']:>5.2f}x  "
                      f"{row['lane_serial_equiv_kcps']:>8.1f} "
                      f"serial-equiv kcps")
            print(f"  saturated x{sat['lanes']}: lanes-vs-serial geomean "
                  f"{sat['lanes_vs_serial_geomean']:.2f}x "
                  f"({sat['lane_serial_equiv_kcps']:.1f} serial-equiv "
                  f"kcps, stats "
                  f"{'identical' if sat['identical'] else 'DIVERGED'})")
    print(f"wrote {out_path}")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
