"""Command-line interface: ``python -m repro <command>``.

Commands mirror the paper's evaluation artefacts:

* ``kernels``       — list every registered workload target with its
  kind (synthetic / scenario / trace-file) and provenance
* ``run``           — simulate one target (or a trace-file path) under
  one configuration
* ``trace``         — trace-file tools: ``record`` a target's trace to
  disk, ``convert`` v1 files to the current format, ``validate`` a
  file before importing it; experiment commands accept ``--trace
  PATH`` to pull recorded traces into the sweeps as targets
* ``fig14``/``fig15``/``fig16`` — regenerate the figures
* ``table1``/``table2``         — regenerate the tables
* ``stalls``        — the §2.2/§6.2 stall statistics
* ``overhead``      — the §6.3 overhead report
* ``scalability``   — the §6.4 scaling study
* ``bench``         — executor smoke run: one figure end-to-end with
  wall-clock / cache-hit accounting
* ``profile``       — profile the simulator itself on one kernel
  (per-stage time, event counts, optional cProfile), or with ``--lanes
  L`` above 1 that kernel's L copies in one lane batch
* ``replay``        — re-run a crash-diagnostic bundle from
  ``benchmarks/crash/`` and report whether the failure reproduces

Experiment commands accept ``--jobs N`` (parallel simulation workers,
default ``$REPRO_JOBS``), ``--no-cache`` (bypass the on-disk result
cache under ``benchmarks/.cache/``), ``--timeout S`` (per-cell limit
on the worker path, default ``$REPRO_CELL_TIMEOUT``; zero or less is
no limit) and ``--lanes L`` (lane-batch width: up to L compatible
cells simulated in lockstep per batch, default ``$REPRO_LANES`` or 1;
in-process only, so with more than one job every cell is its own
task; ``repro profile --events`` requires ``--lanes 1``).  ``repro
verify`` takes ``--jobs`` and ``--timeout`` but not ``--lanes``: it
runs every cell on its own core.  Unset flags resolve from the
environment in :meth:`repro.harness.RunOptions.resolve`.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .circuit import (format_scalability, format_table2, overhead_report)
from .harness import (RunOptions, fig14, fig15, fig16,
                      format_characterization, hbar_chart, stall_breakdown,
                      table1, table2_measured)
from .isa import convert_trace_file, save_trace, validate_trace_file
from .pipeline import (COMMITS, SCHEDULERS, EventRecorder, O3Core,
                       Timeline, make_config, simulate)
from .workloads import (add_trace_target, build_trace, get_target,
                        has_target, iter_targets)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload scale factor (default 1.0)")
    parser.add_argument("--kernels", nargs="*", default=None,
                        help="restrict to these suite kernels")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="parallel simulation workers "
                             "(default $REPRO_JOBS or 1)")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the on-disk result cache under "
                             "benchmarks/.cache/")
    parser.add_argument("--timeout", type=float, default=None, metavar="S",
                        help="per-cell timeout in seconds when running "
                             "with workers (default $REPRO_CELL_TIMEOUT; "
                             "zero or less is no limit; timed-out cells "
                             "are reported, not fatal)")
    parser.add_argument("--lanes", type=int, default=None, metavar="L",
                        help="lane-batch width: simulate up to L "
                             "compatible cells in lockstep over shared "
                             "struct-of-arrays state (default "
                             "$REPRO_LANES or 1 = off; results are "
                             "field-identical to serial; applies only "
                             "at --jobs 1, since with workers every "
                             "cell is its own task)")
    _add_trace_import(parser)


def _add_trace_import(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", action="append", default=None,
                        metavar="PATH", dest="import_traces",
                        help="import a recorded trace file as an extra "
                             "workload target before running (repeatable; "
                             "imported targets join default sweeps)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Orinoco (ISCA 2023) reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    kernels_parser = sub.add_parser(
        "kernels", help="list every registered workload target "
                        "(name, kind, provenance)")
    _add_trace_import(kernels_parser)

    run = sub.add_parser("run", help="simulate one kernel")
    run.add_argument("kernel", help="suite kernel name (see `kernels`)")
    run.add_argument("--preset", default="base",
                     choices=("base", "pro", "ultra"))
    run.add_argument("--scheduler", default="age", choices=SCHEDULERS)
    run.add_argument("--commit", default="ioc", choices=COMMITS)
    run.add_argument("--scale", type=float, default=1.0)
    run.add_argument("--timeline", type=int, default=0, metavar="N",
                     help="render a pipeline timeline of the first N "
                          "instructions")
    run.add_argument("--events", type=int, default=0, metavar="N",
                     help="dump the first N pipeline events plus a "
                          "per-type histogram")

    _add_common(sub.add_parser(
        "characterize", help="profile the workload suite"))

    save = sub.add_parser("save-trace",
                          help="emulate a kernel and save its trace "
                               "(alias of `trace record`)")
    save.add_argument("kernel")
    save.add_argument("path")
    save.add_argument("--scale", type=float, default=1.0)

    trace = sub.add_parser(
        "trace", help="trace-file tools: record a target's trace, "
                      "convert old files, validate before import")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    record = trace_sub.add_parser(
        "record", help="build a registered target's trace and write it "
                       "in the v2 format with provenance metadata")
    record.add_argument("target", help="workload target name "
                                       "(see `kernels`)")
    record.add_argument("path", help="output trace file (JSONL)")
    record.add_argument("--scale", type=float, default=1.0)
    convert = trace_sub.add_parser(
        "convert", help="rewrite a v1/v2 trace file in the current "
                        "format (validating every record)")
    convert.add_argument("src")
    convert.add_argument("dst")
    validate = trace_sub.add_parser(
        "validate", help="fully parse a trace file and print its "
                         "summary (version, name, count, sha256)")
    validate.add_argument("path")

    for name, help_text in (("fig14", "priority scheduling (Figure 14)"),
                            ("fig15", "out-of-order commit (Figure 15)"),
                            ("fig16", "core-size sensitivity (Figure 16)"),
                            ("stalls", "stall statistics (§2.2/§6.2)")):
        _add_common(sub.add_parser(name, help=help_text))

    sub.add_parser("table1", help="core configurations (Table 1)")
    table2_parser = sub.add_parser(
        "table2", help="matrix scheduler parameters (Table 2)")
    table2_parser.add_argument(
        "--measured", action="store_true",
        help="compute power from simulated pipeline activities")
    _add_common(table2_parser)
    sub.add_parser("overhead", help="area/power overheads (§6.3)")
    sub.add_parser("scalability", help="array scaling study (§6.4)")

    bench = sub.add_parser(
        "bench", help="executor smoke benchmark: one figure end-to-end "
                      "with wall-clock / cache accounting")
    bench.add_argument("figure", nargs="?", default="fig14",
                       choices=("fig14", "fig15", "fig16"))
    _add_common(bench)

    profile = sub.add_parser(
        "profile", help="profile the simulator itself on one kernel")
    profile.add_argument("kernel", help="suite kernel name")
    profile.add_argument("--preset", default="base",
                         choices=("base", "pro", "ultra"))
    profile.add_argument("--scheduler", default="age", choices=SCHEDULERS)
    profile.add_argument("--commit", default="ioc", choices=COMMITS)
    profile.add_argument("--scale", type=float, default=1.0)
    profile.add_argument("--events", action="store_true",
                         help="count pipeline events per type (disables "
                              "the quiescent-cycle fast-forward)")
    profile.add_argument("--cprofile", type=int, default=0, metavar="N",
                         help="also run cProfile and print the top N rows")
    profile.add_argument("--sort", default="tottime",
                         choices=("tottime", "cumulative", "ncalls"),
                         help="cProfile sort order")
    profile.add_argument("--lanes", type=int, default=None, metavar="L",
                         help="above 1, profile L copies of the kernel "
                              "in one lane batch, with per-stage time "
                              "split into scalar and vector buckets; "
                              "--events needs 1 (default $REPRO_LANES "
                              "or 1)")

    replay = sub.add_parser(
        "replay", help="re-run a crash-diagnostic bundle and report "
                       "whether the failure reproduces")
    replay.add_argument("bundle", help="path to a crash bundle JSON "
                                       "(see benchmarks/crash/)")
    replay.add_argument("--events", type=int, default=12, metavar="N",
                        help="event-tail lines to print (default 12)")

    verify = sub.add_parser(
        "verify", help="differential memory-consistency campaign: "
                       "random + litmus programs through every commit "
                       "policy, checked against an interleaving oracle")
    verify.add_argument("--programs", type=int, default=1000, metavar="N",
                        help="campaign size (default 1000)")
    verify.add_argument("--quick", action="store_true",
                        help="500-program smoke campaign")
    verify.add_argument("--seed", type=int, default=0, metavar="S",
                        help="generator seed (default 0); one seed = "
                             "byte-identical programs and checkpoint "
                             "across runs")
    verify.add_argument("--jobs", type=int, default=None, metavar="J",
                        help="worker processes (default $REPRO_JOBS or 1)")
    verify.add_argument("--timeout", type=float, default=None,
                        metavar="SEC",
                        help="per-program wall cap under --jobs "
                             "(default $REPRO_CELL_TIMEOUT; zero or less "
                             "is no limit)")
    verify.add_argument("--checkpoint", default=None, metavar="PATH",
                        help="progress JSONL (default benchmarks/verify/"
                             "campaign-s<seed>-n<count>.jsonl); an "
                             "interrupted campaign resumes from it")
    verify.add_argument("--fresh", action="store_true",
                        help="discard any existing checkpoint first")
    verify.add_argument("--no-minimise", action="store_true",
                        help="skip delta-debugging violations into "
                             "replayable bundles")
    return parser


def _register_cli_traces(args) -> None:
    """Import every ``--trace PATH`` as a trace-file workload target."""
    import pathlib
    for path in getattr(args, "import_traces", None) or ():
        target = add_trace_target(path)
        print(f"imported {pathlib.Path(path).name} as target "
              f"{target.name!r}", file=sys.stderr)


def _cmd_kernels(args) -> str:
    """Every registered target: name, kind, and where it came from."""
    lines = []
    for target in iter_targets():
        lines.append(f"{target.name:<18} {target.kind:<11} "
                     f"{target.provenance()}")
    return "\n".join(lines)


def _cmd_trace(args) -> str:
    if args.trace_command == "record":
        name = args.target
        trace = build_trace(name, args.scale)
        target = get_target(name)
        meta = {"source": name, "scale": args.scale,
                "provenance": target.provenance(),
                "fingerprint": target.fingerprint(args.scale)}
        save_trace(trace, args.path, meta=meta)
        return (f"recorded {len(trace)} instructions from {name} "
                f"(scale {args.scale}) to {args.path}")
    if args.trace_command == "convert":
        summary = convert_trace_file(args.src, args.dst)
        return (f"converted {args.src} -> {args.dst} "
                f"(v{summary['version']}, {summary['count']} records)")
    summary = validate_trace_file(args.path)
    lines = [f"{summary['path']}: OK",
             f"  format version: {summary['version']}",
             f"  name: {summary['name']}",
             f"  records: {summary['count']}",
             f"  sha256: {summary['sha256']}"]
    if summary["meta"]:
        lines.append(f"  meta: {summary['meta']}")
    return "\n".join(lines)


def _cmd_run(args) -> str:
    import pathlib
    kernel = args.kernel
    if not has_target(kernel) and pathlib.Path(kernel).is_file():
        # a trace-file path: import it on the fly and simulate that
        kernel = add_trace_target(kernel).name
    trace = build_trace(kernel, args.scale)
    config = make_config(args.preset, scheduler=args.scheduler,
                         commit=args.commit)
    core = O3Core(trace, config)
    timeline = Timeline.attach(core) if args.timeline else None
    recorder = None
    if args.events:
        recorder = core.bus.attach(EventRecorder(limit=args.events))
    stats = core.run()
    lines = [stats.summary(),
             f"  occupancy: ROB {stats.occupancy('rob'):.1f} "
             f"IQ {stats.occupancy('iq'):.1f} "
             f"LQ {stats.occupancy('lq'):.1f}",
             f"  memory: " + ", ".join(
                 f"{k}={v:.3g}" for k, v in stats.memory.items())]
    if timeline is not None:
        lines.append(timeline.render(count=args.timeline))
        lines.append(f"  out-of-order commits: "
                     f"{timeline.out_of_order_commits()}")
    if recorder is not None:
        lines.append(recorder.format())
    return "\n".join(lines)


def _exec_opts(args) -> dict:
    """The execution keywords of a command's flags, ``None`` where
    unset (:meth:`~repro.harness.RunOptions.resolve` reads the
    environment for those).

    The CLI caches by default (``--no-cache`` opts out), unlike the
    library default which requires ``$REPRO_CACHE=1``; a command
    without the flag never caches.
    """
    return {"workers": getattr(args, "jobs", None),
            "use_cache": not getattr(args, "no_cache", True),
            "timeout": getattr(args, "timeout", None),
            "lanes": getattr(args, "lanes", None)}


def _cmd_bench(args) -> str:
    """Executor smoke target: one figure end-to-end, with accounting."""
    import time
    figures = {"fig14": fig14, "fig15": fig15, "fig16": fig16}
    execution = _exec_opts(args)
    options = RunOptions.resolve(**execution)
    start = time.perf_counter()
    result = figures[args.figure](scale=args.scale, names=args.kernels,
                                  **execution)
    wall = time.perf_counter() - start
    # lane batching applies only in-process (workers <= 1)
    lanes = options.lanes if options.workers <= 1 else 1
    sim = result.sim_seconds()
    lines = [result.format(), "",
             f"executor: {result.cells()} cells, "
             f"workers={options.workers}, lanes={lanes}, "
             f"cache {'off' if options.cache is None else 'on'} "
             f"({result.cache_hits()} hits)",
             f"trace LRU: {result.trace_cache_hits()} hits, "
             f"{result.trace_cache_misses()} misses",
             f"wall-clock {wall:.2f}s; per-cell simulation time "
             f"{sim:.2f}s" + (f" ({sim / wall:.2f}x overlap)"
                              if wall > 0 else "")]
    occupancy = result.mean_lane_occupancy()
    if occupancy:
        batches = {bid for r in result.results.values()
                   for bid in r.lane_batches}
        lines.append(f"lane batches: {len(batches)}, mean "
                     f"{occupancy:.2f} active lanes/iteration")
    return "\n".join(lines)


def _cmd_stalls(args) -> str:
    data = stall_breakdown(scale=args.scale, names=args.kernels,
                           **_exec_opts(args))
    lines = []
    for label in ("IOC", "Orinoco"):
        entry = data[label]
        lines.append(f"{label}:")
        lines.append(f"  commit-stall cycles: {entry['commit_stalls']}")
        lines.append(f"  ready-but-not-head fraction: "
                     f"{entry['ready_not_head_frac']:.1%} (paper 72%)")
        lines.append(f"  during ROB-full stalls: "
                     f"{entry['fw_ready_frac']:.1%} (paper 76%)")
        lines.append(f"  dispatch stalls: ROB {entry['rob']} "
                     f"IQ {entry['iq']} LQ {entry['lq']} "
                     f"REG {entry['reg']}")
    reduction = data.get("reduction")
    if reduction:
        lines.append(f"Orinoco reduces full-window stalls by "
                     f"{reduction['full_window_stalls']:.1%}, ROB stalls "
                     f"by {reduction['rob_stalls']:.1%}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    try:
        return _dispatch(build_parser().parse_args(argv))
    except BrokenPipeError:          # e.g. `repro kernels | head`
        return 0
    except KeyboardInterrupt as exc:
        # SuiteInterrupted carries which cells finished (and were
        # flushed to the cache); a bare Ctrl-C has nothing to add
        message = str(exc)
        print(f"interrupted{': ' + message if message else ''}",
              file=sys.stderr)
        return 130


def _dispatch(args) -> int:
    command = args.command
    _register_cli_traces(args)
    if command == "kernels":
        print(_cmd_kernels(args))
    elif command == "run":
        print(_cmd_run(args))
    elif command == "trace":
        print(_cmd_trace(args))
    elif command == "characterize":
        print(format_characterization(scale=args.scale,
                                      names=args.kernels,
                                      **_exec_opts(args)))
    elif command == "save-trace":
        trace = build_trace(args.kernel, args.scale)
        target = get_target(args.kernel)
        save_trace(trace, args.path,
                   meta={"source": args.kernel, "scale": args.scale,
                         "provenance": target.provenance()})
        print(f"wrote {len(trace)} instructions to {args.path}")
    elif command == "fig14":
        result = fig14(scale=args.scale, names=args.kernels,
                       **_exec_opts(args))
        print(result.format())
        print()
        print(hbar_chart(result.summary, title="geomean speedup vs AGE"))
    elif command == "fig15":
        result = fig15(scale=args.scale, names=args.kernels,
                       **_exec_opts(args))
        print(result.format())
        print()
        print(hbar_chart(result.summary, title="geomean speedup vs IOC"))
    elif command == "fig16":
        print(fig16(scale=args.scale, names=args.kernels,
                    **_exec_opts(args)).format())
    elif command == "stalls":
        print(_cmd_stalls(args))
    elif command == "table1":
        print(table1())
    elif command == "table2":
        if args.measured:
            rows = table2_measured(scale=args.scale, names=args.kernels,
                                   **_exec_opts(args))
            print(format_table2(rows))
        else:
            print(format_table2())
    elif command == "overhead":
        print(overhead_report().format())
    elif command == "scalability":
        print(format_scalability())
    elif command == "bench":
        print(_cmd_bench(args))
    elif command == "profile":
        lanes = RunOptions.resolve(**_exec_opts(args)).lanes
        if lanes != 1:
            # lane batches get their own attribution: scalar stage
            # buckets summed over lanes plus the cross-lane fused
            # kernel buckets.  Event subscribers attach to a single
            # core's bus, so --events still needs --lanes 1.
            if args.events:
                print("error: --events requires --lanes 1 (event "
                      "subscribers instrument a single core's bus)",
                      file=sys.stderr)
                return 2
            from .profiling import profile_lanes
            report = profile_lanes(
                args.kernel, scale=args.scale, preset=args.preset,
                scheduler=args.scheduler, commit=args.commit,
                lanes=lanes, cprofile_top=args.cprofile,
                cprofile_sort=args.sort)
            print(report.format())
            return 0
        from .profiling import profile_run
        report = profile_run(
            args.kernel, scale=args.scale, preset=args.preset,
            scheduler=args.scheduler, commit=args.commit,
            events=args.events, cprofile_top=args.cprofile,
            cprofile_sort=args.sort)
        print(report.format())
    elif command == "replay":
        # exit codes: 0 = reproduced, 3 = ran but did not reproduce,
        # 2 = bundle unreadable (grep the "verdict:" line for the story)
        from .harness import load_bundle, replay_bundle
        try:
            bundle = load_bundle(args.bundle)
        except (OSError, ValueError) as exc:
            print(f"error: cannot load bundle {args.bundle}: {exc}",
                  file=sys.stderr)
            return 2
        if "verify" in bundle:
            from .verify.minimise import replay_violation
            report = replay_violation(bundle)
            print(report.format())
        else:
            report = replay_bundle(bundle)
            print(report.format(events=args.events))
        return 0 if report.reproduced else 3
    elif command == "verify":
        from .verify.campaign import run_campaign
        options = RunOptions.resolve(**_exec_opts(args))
        result = run_campaign(
            seed=args.seed, count=500 if args.quick else args.programs,
            jobs=options.workers, timeout=options.timeout,
            checkpoint=args.checkpoint,
            fresh=args.fresh, minimise=not args.no_minimise)
        print(result.format())
        return 0 if result.ok else 1
    return 0


if __name__ == "__main__":       # pragma: no cover
    sys.exit(main())
