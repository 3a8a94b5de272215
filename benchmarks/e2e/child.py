"""One benchmark child: set up a workload, then run one timed pass.

``run.py`` starts this script in a fresh interpreter for every pass and
for every set-up sample, so imports, the trace LRU, the oracle memo and
the worker pool never carry over from one pass to the next.  The child
writes one JSON record to ``--record`` and exits 0.

Set-up is everything before the timed pass: imports, building the
seeded inputs, the cache directory and (``figs-jobs2``) starting the
two pool workers.  The pass is what a user waits for: the figure
functions (``fig15``, or ``fig14`` then ``fig16``) or ``run_campaign``.
Both are timed raw and also scaled to the reference host speed that
``hostspeed.Sampler`` measures while they run.

Spawned pool workers import this file as ``__mp_main__``; everything
that does work runs under the ``__main__`` guard.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import copy  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402

import spec  # noqa: E402
from hostspeed import Sampler, slowdown  # noqa: E402


# -- seeded inputs ----------------------------------------------------------

def seeded_scenarios(seed: int, scale: float, names, tmp: pathlib.Path):
    """Register the scenario families rebuilt with seeds derived from
    ``seed``, as trace files named ``<family>@<seed>``.

    Trace files carry their content to spawned workers (path plus
    sha256), which a re-seeded in-memory target could not.  Seed 0
    keeps the stock seeds, so its traces equal the registry's.
    """
    from repro.isa.tracefile import save_trace
    from repro.workloads import add_trace_target, get_target
    registered = []
    for name in names:
        target = copy.copy(get_target(name))
        if seed:
            target.seed = random.Random(f"{name}@{seed}").randrange(1, 2**31)
        path = tmp / f"{name}@{seed}.jsonl"
        save_trace(target.build_trace(scale), path,
                   meta={"source": name, "seed": target.seed})
        registered.append(
            add_trace_target(path, name=f"{name}@{seed}", replace=True).name)
    return registered


def relabel(program, rng: random.Random):
    """An isomorphic copy of a verify program: addresses, thread order
    and store values permuted.  Verdicts and oracle cost are unchanged,
    the simulated programs are not."""
    from repro.verify.generator import MemOp, VerifyProgram
    addrs = list(program.addrs)
    moved = addrs[:]
    rng.shuffle(moved)
    addr_map = dict(zip(addrs, moved))
    threads = list(program.threads)
    rng.shuffle(threads)
    values = sorted(op.value for ops in threads for op in ops
                    if op.value is not None)
    shuffled = values[:]
    rng.shuffle(shuffled)
    value_map = dict(zip(values, shuffled))
    return VerifyProgram(
        program.name,
        tuple(tuple(MemOp(op.kind, addr_map.get(op.addr),
                          value_map.get(op.value), op.delay) for op in ops)
              for ops in threads),
        program.addrs)


def seeded_programs(seed: int, count: int):
    """The stock ``repro verify --seed 0`` programs, relabelled by
    ``seed``.  Relabelling instead of a fresh generator seed keeps the
    pass cost the same across seeds: random programs differ in cost by
    up to 3x, which no bound could absorb."""
    from repro.verify.generator import generate_programs
    programs = generate_programs(0, count)
    if not seed:
        return programs
    rng = random.Random(seed)
    return [relabel(program, rng) for program in programs]


# -- set-up -------------------------------------------------------------------

#: a pool worker's host-speed sampler (one per worker process, started
#: by the first ``_ready`` task it runs)
_WORKER_SAMPLER = None


def _ready(payload, attempt):
    """Pool task that starts the worker's sampler; it returns once the
    worker has imported everything."""
    global _WORKER_SAMPLER
    if _WORKER_SAMPLER is None:
        _WORKER_SAMPLER = Sampler()
        _WORKER_SAMPLER.start()
    return "ok", os.getpid()


def _samples(payload, attempt):
    """Pool task: ``(pid, samples)`` of the worker's sampler."""
    return "ok", (os.getpid(), _WORKER_SAMPLER.samples
                  if _WORKER_SAMPLER is not None else [])


def _on_workers(workers: int, task) -> list:
    """Run ``task`` once per pool worker (one task each while all are
    idle); the values, in no particular order."""
    from repro.harness.resilience import TaskSpec, get_pool, next_task_id
    outcomes = get_pool(workers).run(
        [TaskSpec(next_task_id(), f"bench/{i}", task, ())
         for i in range(workers)], chunk=1)
    return [outcome.value for outcome in outcomes.values()]


def set_up(workload: str, seed: int, size: str, execution: dict,
           tmp: pathlib.Path) -> dict:
    sizing = spec.SIZES[size]
    workers = execution["workers"]
    if workload == "verify-campaign":
        from repro.verify import campaign
        programs = seeded_programs(seed, sizing["programs"])
        # run_campaign generates its programs from (seed, count); hand
        # it the benchmark's inputs instead
        campaign.generate_programs = lambda _seed, _count: programs
        return {"programs": programs}
    from repro.harness import experiments  # noqa: F401 — timed import
    from repro.workloads import clear_trace_cache
    scale = sizing["scale"]
    kernels = list(sizing["kernels"])
    scenarios = seeded_scenarios(seed, scale, sizing["scenarios"], tmp)
    # building the scenarios filled the trace LRU; the pass starts cold
    clear_trace_cache()
    if workers > 1:
        os.environ["REPRO_CACHE_DIR"] = str(tmp / "cache")
        _on_workers(workers, _ready)
    return {"scale": scale, "names": kernels + scenarios}


# -- the pass -------------------------------------------------------------------

def _plain(_name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def run_pass(workload: str, seed: int, execution: dict, ctx: dict,
             tmp: pathlib.Path, region=_plain):
    """The timed work; ``region`` wraps each top-level call in a span."""
    if workload == "verify-campaign":
        from repro.verify.campaign import run_campaign
        return region("verify.campaign", run_campaign, seed,
                      len(ctx["programs"]), jobs=execution["workers"],
                      lanes=execution["lanes"],
                      checkpoint=tmp / "campaign.jsonl", fresh=True)
    from repro.harness import experiments
    workers = execution["workers"]
    return {figure: region("harness.figure", getattr(experiments, figure),
                           ctx["scale"], ctx["names"], workers=workers,
                           use_cache=workers > 1, lanes=execution["lanes"])
            for figure in execution["figures"]}


def stats_sha(stats) -> str:
    blob = json.dumps(dataclasses.asdict(stats), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def sweep_outputs(results: dict, lengths: dict):
    """Per-cell stats hashes (``None`` for a failed cell), plus the
    failures: cells that did not finish or did not retire their whole
    trace.  A faulting instruction retires as a precise exception, not
    a commit.  SPEC (no rollback cost) commits past a fault and then
    commits the refetched tail again, so its count can exceed the trace
    length."""
    cells, problems = {}, []
    for figure, experiment in results.items():
        for label, suite in experiment.results.items():
            for workload in suite.statuses:
                cell = f"{figure}:{label}/{workload}"
                stats = suite.stats.get(workload)
                cells[cell] = None
                if stats is None:
                    failure = suite.failures.get(workload)
                    problems.append(f"{cell}: " + (failure.summary() if failure
                                                   else "no stats"))
                elif stats.committed + stats.exceptions < lengths[workload]:
                    problems.append(f"{cell}: committed {stats.committed} "
                                    f"with {stats.exceptions} exceptions "
                                    f"of {lengths[workload]} instructions")
                else:
                    cells[cell] = stats_sha(stats)
    return cells, problems


def digest(cells: dict) -> str:
    text = "\n".join(f"{cell} {sha}" for cell, sha in sorted(cells.items()))
    return hashlib.sha256(text.encode()).hexdigest()


def _worker_cpu(workers: int) -> float:
    """CPU seconds used so far by the live pool workers (Linux /proc)."""
    if workers <= 1:
        return 0.0
    from repro.harness.resilience import get_pool
    total = 0.0
    for handle in get_pool(workers).handles:
        try:
            with open(f"/proc/{handle.proc.pid}/stat") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        total += (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
    return total


def _cpu(workers: int) -> float:
    return time.process_time() + _worker_cpu(workers)


# -- per-layer metrics (traced pass) ------------------------------------------

def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _p(values, q: int) -> float:
    """The q-th percentile (nearest-rank), 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1,
                       max(0, math.ceil(q / 100 * len(ordered)) - 1))]


def _model(stats) -> dict:
    ipcs = [s.committed / s.cycles for s in stats if s.cycles]
    return {
        "model.cycles": sum(s.cycles for s in stats),
        "model.committed": sum(s.committed for s in stats),
        "model.ipc_geomean": math.exp(statistics.fmean(
            math.log(v) for v in ipcs)) if ipcs else 0.0,
        "model.commit_stall_cycles": sum(s.commit_stall_cycles
                                         for s in stats),
        "model.full_window_stall_cycles": sum(s.full_window_stall_cycles
                                              for s in stats),
        "model.branch_mispredicts": sum(s.branch_mispredicts for s in stats),
        "model.mem_order_violations": sum(s.mem_order_violations
                                          for s in stats),
    }


def layer_metrics(workload: str, execution: dict, tracer, result,
                  pass_s: float, cpu_s: float, lengths: dict, warm_s,
                  tmp: pathlib.Path) -> dict:
    from tracer import LAYERS
    self_s = tracer.self_seconds()
    out = {"trace.pass_s": pass_s}
    for layer in LAYERS:
        out[f"self_share.{layer}"] = _share(self_s[layer], pass_s)
    out["workloads.build_s"] = self_s["workloads"]

    if workload == "verify-campaign":
        cells = [cell for batch in tracer.batches for cell in batch["cells"]]
        model_stats = tracer.stats
        units = result.programs
        hits = queued = cached = profiles = 0
        dispatched = []
        instrs = sum(tracer.program_traces.values())
    else:
        suites = [suite for experiment in result.values()
                  for suite in experiment.results.values()]
        done = [(suite, name) for suite in suites for name in suite.stats
                if not suite.cached[name]]
        cells = [(suite.stats[name].cycles, suite.timings[name])
                 for suite, name in done]
        model_stats = [s for suite in suites for s in suite.stats.values()]
        units = sum(len(suite.statuses) for suite in suites)
        hits = sum(suite.trace_hits[name] for suite, name in done)
        dispatched = [suite.queued[name] for suite, name in done]
        queued = sum(dispatched)
        cached = sum(suite.cache_hits() for suite in suites)
        profiles = len(list((tmp / "cache").glob("*.profile.json")))
        instrs = sum(lengths.values())
    out["workloads.trace_lru_hit_frac"] = _share(hits, len(dispatched))
    out["workloads.trace_instrs"] = instrs

    timers = tracer.timers
    stepped = tracer.stage_timers["fetch"][1]
    for label, (seconds, _calls) in tracer.stage_timers.items():
        # issue.tick and issue.tick_vec are both the issue stage
        key = f"pipeline.{label.split('.')[0]}_share"
        out[key] = out.get(key, 0.0) + _share(seconds, pass_s)
    parent_cycles = sum(tracer.core_runs) + sum(
        cycles for batch in tracer.batches for cycles, _ in batch["cells"])
    out["pipeline.core_init_share"] = _share(
        timers.get("core.init", [0.0, 0])[0], pass_s)
    out["pipeline.ff_share"] = _share(
        timers.get("fastforward", [0.0, 0])[0], pass_s)
    out["pipeline.stepped_cycles"] = stepped
    out["pipeline.ff_skip_frac"] = 1.0 - _share(stepped, parent_cycles) \
        if parent_cycles else 0.0
    out["pipeline.us_per_stepped_cycle"] = _share(
        sum(seconds for seconds, _calls in tracer.stage_timers.values()),
        stepped) * 1e6
    elapsed = [seconds for _, seconds in cells]
    out["pipeline.cells"] = len(cells)
    out["pipeline.cell_ms_p50"] = _p(elapsed, 50) * 1e3
    # every workload runs >= 50 cells, so >= 10 lie beyond p80
    out["pipeline.cell_ms_p80"] = _p(elapsed, 80) * 1e3
    out["pipeline.cell_kcps"] = _share(sum(c for c, _ in cells),
                                       sum(elapsed)) / 1e3

    batch_s = sum(batch["seconds"] for batch in tracer.batches)
    stage_s = sum(batch["stage_s"] for batch in tracer.batches)
    vec_s = sum(batch["vec_s"] for batch in tracer.batches)
    out["lanes.batches"] = len(tracer.batches)
    out["lanes.mean_active"] = _share(
        sum(batch["lane_steps"] for batch in tracer.batches),
        sum(batch["steps"] for batch in tracer.batches))
    out["lanes.scalar_stage_share"] = _share(stage_s, batch_s)
    out["lanes.vec_share"] = _share(vec_s, batch_s)
    out["lanes.loop_share"] = _share(batch_s - stage_s - vec_s, batch_s)

    out["harness.units"] = units
    out["harness.queue_share"] = _share(queued, queued + sum(elapsed))
    out["harness.overhead_frac"] = 1.0 - _share(
        sum(elapsed), pass_s * execution["workers"])
    out["harness.cpu_per_sim"] = _share(cpu_s, sum(elapsed))
    out["harness.cache_hit_frac"] = _share(cached, units)
    out["harness.warm_pass_frac"] = _share(statistics.median(warm_s),
                                           pass_s) if warm_s else 0.0
    out["harness.profile_units"] = profiles

    verify = workload == "verify-campaign"
    out["verify.programs"] = result.programs if verify else 0
    out["verify.violations"] = len(result.violations) if verify else 0
    out["verify.errors"] = len(result.errors) if verify else 0
    out.update(_model(model_stats))
    return out


# -- main -----------------------------------------------------------------------

def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--size", default="full", choices=sorted(spec.SIZES))
    parser.add_argument("--mode", default="pass", choices=("pass", "setup"))
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--tmp", type=pathlib.Path, required=True)
    parser.add_argument("--record", type=pathlib.Path, required=True)
    parser.add_argument("--spans", type=pathlib.Path)
    # the serial references --repin compares the other paths against
    parser.add_argument("--workers", type=int)
    parser.add_argument("--lanes", type=int)
    args = parser.parse_args()
    args.tmp.mkdir(parents=True, exist_ok=True)
    execution = dict(spec.EXECUTION[args.workload])
    for key in ("workers", "lanes"):
        if getattr(args, key) is not None:
            execution[key] = getattr(args, key)
    workers = execution["workers"]

    import repro
    if pathlib.Path(repro.__file__).resolve().parents[1] != spec.SRC:
        raise SystemExit(f"repro imported from {repro.__file__}, "
                         f"not from {spec.SRC}")
    from repro.harness.resilience import shutdown_pools
    sampler = Sampler()
    sampler.start()
    try:
        ctx = set_up(args.workload, args.seed, args.size, execution, args.tmp)
        setup_end = time.perf_counter()
        setup_raw_s = setup_end - START
        # set-up is too short for the timer alone to read the host speed
        sampler.burst(spec.SETUP_SPEED_SECONDS)
        slow, _ = slowdown(sampler.samples, START, time.perf_counter())
        record = {"setup_raw_s": setup_raw_s, "setup_slowdown": slow,
                  "setup_s": (setup_raw_s
                              - sampler.own_seconds(START, setup_end)) / slow}
        if args.mode == "pass":
            record.update(measure(args, execution, ctx, sampler))
    finally:
        sampler.stop()
        shutdown_pools()
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    record["peak_rss_mb"] = (self_kb + (workers if workers > 1 else 0)
                             * children_kb) / 1024
    args.record.write_text(json.dumps(record, sort_keys=True))


def measure(args, execution: dict, ctx: dict, sampler: Sampler) -> dict:
    """Time one pass and check its outputs.  ``pass_s`` and ``cpu_s``
    are scaled to the reference host speed measured during the pass by
    the processes that simulate: the pool workers if there are any, else
    this one.  The raw times are kept as ``pass_raw_s`` and
    ``cpu_raw_s``."""
    workers = execution["workers"]
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    cpu0 = _cpu(workers)
    start = time.perf_counter()
    try:
        result = run_pass(args.workload, args.seed, execution, ctx,
                          args.tmp, tracer.region if tracer else _plain)
        pass_s = time.perf_counter() - start
        cpu_s = _cpu(workers) - cpu0
    finally:
        if tracer is not None:
            tracer.restore()
    end = start + pass_s
    samples = sampler.samples
    if workers > 1:
        # one reply per worker process, even if one worker ran both tasks
        replies = dict(_on_workers(workers, _samples))
        samples = [sample for pid_samples in replies.values()
                   for sample in pid_samples]
    slow, count = slowdown(samples, start, end)
    own = sampler.own_seconds(start, end)
    record = {"pass_raw_s": pass_s, "cpu_raw_s": cpu_s,
              "pass_s": (pass_s - own) / slow, "cpu_s": (cpu_s - own) / slow,
              "slowdown": slow, "samples": count, "warm_s": []}
    import numpy
    record["numpy"] = numpy.__version__
    if args.workload == "verify-campaign":
        checkpoint = pathlib.Path(result.checkpoint).read_bytes()
        cells = {"checkpoint": hashlib.sha256(checkpoint).hexdigest()}
        problems = [f"violation {v['cell']}" for v in result.violations]
        problems += [f"error {e['cell']}: {e['error']}" for e in result.errors]
        record["attempted"] = result.programs
        lengths = {}
    else:
        from repro.workloads import build_suite
        lengths = {name: len(trace) for name, trace in
                   build_suite(ctx["scale"], ctx["names"]).items()}
        cells, problems = sweep_outputs(result, lengths)
        record["attempted"] = sum(len(suite.statuses)
                                  for experiment in result.values()
                                  for suite in experiment.results.values())
        if workers > 1:
            for _ in range(spec.WARM_PASSES):
                warm0 = time.perf_counter()
                warm = run_pass(args.workload, args.seed, execution, ctx,
                                args.tmp)
                record["warm_s"].append(time.perf_counter() - warm0)
                if sweep_outputs(warm, lengths)[0] != cells:
                    problems.append("warm pass differs from the cold pass")
    record.update(cells=cells, digest=digest(cells), problems=problems)
    if tracer is not None:
        from probes import core_probe, saturated_lane_probe
        layers = layer_metrics(args.workload, execution, tracer, result,
                               pass_s, cpu_s, lengths, record["warm_s"],
                               args.tmp)
        layers.update(core_probe())
        layers.update(saturated_lane_probe())
        record["layers"] = layers
        if args.spans is not None:
            spans = {"workload": args.workload, "seed": args.seed,
                     "pass_raw_s": pass_s, **tracer.to_json(start)}
            args.spans.write_text(json.dumps(spans))
    return record


if __name__ == "__main__":
    main()
