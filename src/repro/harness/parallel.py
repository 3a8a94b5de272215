"""Parallel experiment executor: fan simulation cells out over workers.

Every paper artefact is a grid of independent (config, workload) cells
— exactly the embarrassingly parallel shape the figures' serial loops
wasted.  :func:`run_suite` takes a flat list of :class:`Job` cells and
executes them over the fault-isolated dispatcher in
:mod:`repro.harness.resilience`, with four guarantees:

* **Determinism** — outcomes are keyed by task id and assembled in job
  order, every cell is a pure function of (config, workload name,
  scale), and cells are reconstructed identically in any process;
  parallel, serial, and cached paths return bit-identical
  :class:`~repro.pipeline.SimStats` on fault-free runs.
* **Spawn safety** — workers receive a pickled ``CoreConfig`` plus the
  *workload name, scale, and rebuild spec*
  (``WorkloadTarget.worker_spec()``), never a pickled ``Trace``: traces
  are large (megabytes of ``DynInstr``) and rebuilding from the target
  registry is both cheaper than pickling and guaranteed to reproduce
  the same instruction stream.  Registry-backed targets (synthetic
  kernels, scenario families) re-register when the worker imports
  ``repro.workloads``; trace-file targets ship ``(path, sha256)`` and
  the worker re-imports the file under a checksum guard
  (:func:`repro.workloads.ensure_target`).  The ``spawn`` start method
  is used explicitly so the executor behaves identically on every
  platform (fork would share the parent's trace cache by accident).
* **One unit per cell** — jobs sharing a cache key are one unit,
  simulated once.  A job carrying a ``profile_config`` depends on the
  plain cell of that config, whose run also returns the per-PC counts
  the tagger needs: Figure 14's AGE column is its own profile, and a
  profile no job reports runs as a profile-only unit,
  ``profile/<workload>``.  Units a dependent needs run first, then
  the rest, each dependent carrying its profile.
* **Graceful degradation** — a crashed, hung, or raising cell is an
  annotated hole in the grid, not a dead campaign: its
  :class:`SuiteResult` slot records a typed status
  (:class:`~repro.harness.resilience.CellStatus`) and a
  :class:`~repro.harness.resilience.CellFailure` (with a crash bundle
  for exceptions), healthy cells complete and are flushed to
  the cache as they finish, and Ctrl-C raises
  :class:`~repro.harness.resilience.SuiteInterrupted` naming exactly
  what finished.

One runner, :func:`~repro.harness.resilience.run_tasks`, executes
both task lists: through the pool with ``workers>1``, and in-process
otherwise, calling the same task function.  So every cell takes one
path and a failing cell is the same annotated hole at every worker
count; only pool payloads carry the ``crash``/``hang``/``explode``
faults.

How a sweep executes is one :class:`RunOptions`, resolved once per
sweep; no setting in it changes a cell's stats.

Results come back as ``{label: SuiteResult}`` with per-cell wall-clock
timings so benchmark output can report actual speedup, and an optional
:class:`~repro.harness.cache.ResultCache` short-circuits cells whose
key was already computed.
"""

from __future__ import annotations

import os
import time
import traceback
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..criticality import CriticalityTagger, clear_tags
from ..envutil import env_flag, env_float, env_int
from ..pipeline import CoreConfig, O3Core, SimStats
from ..testing import faults
from ..workloads import ensure_target, fetch_trace, get_target, has_target
from .cache import ResultCache, cache_key
from .diagnostics import build_crash_bundle, write_bundle
from .resilience import (CellFailure, CellStatus, SuiteInterrupted,
                         TaskOutcome, TaskSpec, exception_failure,
                         next_task_id, run_tasks, shutdown_pools)

__all__ = ["Job", "ProfileData", "RunOptions", "jobs_for", "run_suite",
           "shutdown_pools"]

#: pc_l1_misses, pc_mispredicts — the profile payload fed to the tagger
ProfileData = Tuple[Dict[int, int], Dict[int, int]]


@dataclass
class Job:
    """One simulation cell: a config applied to one registry workload."""

    label: str
    config: CoreConfig
    workload: str
    scale: float = 1.0
    #: when set, this is a criticality run: profile under this config,
    #: tag the critical slices, then simulate under ``config``
    profile_config: Optional[CoreConfig] = None

    @property
    def cell_id(self) -> str:
        return f"{self.label}/{self.workload}"


def jobs_for(label: str, config: CoreConfig, traces: Dict[str, object],
             profile_config: Optional[CoreConfig] = None) -> List[Job]:
    """Jobs covering ``traces`` (registered workload targets only)."""
    jobs = []
    for name, trace in traces.items():
        scale = getattr(trace, "scale", None)
        if not has_target(name) or scale is None:
            raise ValueError(
                f"trace {name!r} is not rebuildable from the workload "
                f"target registry (register it with "
                f"repro.workloads.add_trace_target to sweep it, or "
                f"simulate it once with repro.pipeline.simulate)")
        jobs.append(Job(label, config, name, scale, profile_config))
    return jobs


# -- the task function -----------------------------------------------------
# Top-level, so it pickles by reference under spawn.  A pool worker and,
# at workers <= 1, this process run the same _guarded_cell: rebuild the
# target from the payload's ``worker_spec()`` recipe
# (:func:`repro.workloads.ensure_target`; trace-file targets re-import
# their file under a sha256 guard), fetch the trace through the bounded
# in-process LRU (:func:`repro.workloads.fetch_trace` — rebuilt on a
# miss, never pickled), apply the payload's faults, simulate, and return
# ("ok", value) or ("error", failure dict with a crash bundle).  Workers
# persist across tasks and run_suite calls, and an idle worker stays
# with the workload it last ran, so successive cells reuse one trace.

def _simulate_cell(trace, config: CoreConfig,
                   profile: Optional[ProfileData] = None,
                   subscribers: Sequence = (),
                   want_profile: bool = False
                   ) -> Tuple[SimStats, float, Optional[ProfileData]]:
    """Simulate one cell (tagging first for criticality runs).

    Tagging happens *inside* the try so a crash mid-``tag`` (partial
    tags) still clears the shared in-process trace on the way out.
    ``subscribers`` are attached to the core's event bus before the
    run (fault injection).  Returns ``(stats, seconds, counts)``, where
    ``counts`` is the run's per-PC L1-miss and misprediction counts —
    the profile a dependent criticality cell tags from — when
    ``want_profile`` and ``None`` otherwise.
    """
    start = time.perf_counter()
    try:
        if profile is not None:
            tagger = CriticalityTagger()
            tagger.feed_profile(profile[0], profile[1])
            tagger.tag(trace)
        core = O3Core(trace, config)
        for subscriber in subscribers:
            core.bus.attach(subscriber)
        stats = core.run()
    finally:
        if profile is not None:
            clear_tags(trace)
    elapsed = time.perf_counter() - start
    if not want_profile:
        return stats, elapsed, None
    return stats, elapsed, (dict(core.pc_l1_misses),
                            dict(core.pc_mispredicts))


def _guarded_cell(payload, attempt: int):
    """The task function: fault hooks + failure capture.  Returns
    ``(stats, seconds, trace_was_cache_hit, counts)`` on success, with
    ``counts`` the per-PC profile when the payload asks for it."""
    (label, config, workload, scale, workload_spec, profile,
     profile_config, want_profile, faults_text) = payload
    cell_id = f"{label}/{workload}"
    specs = faults.parse_fault_specs(faults_text)
    faults.preflight(specs, cell_id, attempt)
    exploder = faults.explode_subscriber(specs, cell_id, attempt)
    subscribers = (exploder,) if exploder is not None else ()
    try:
        ensure_target(workload_spec)
        trace, trace_hit = fetch_trace(workload, scale)
        stats, elapsed, counts = _simulate_cell(
            trace, config, profile, subscribers, want_profile)
        return "ok", (stats, elapsed, trace_hit, counts)
    except Exception as exc:
        tb = traceback.format_exc()
        return "error", exception_failure(exc, tb, build_crash_bundle(
            label=label, config=config, workload=workload, scale=scale,
            profile=profile, profile_config=profile_config,
            exc=exc, tb=tb, attempt=attempt, faults_text=faults_text))


# -- the executor ----------------------------------------------------------

@dataclass
class _CellRecord:
    """Terminal state of one unit's cell, pre-assembly."""

    status: CellStatus
    stats: Optional[SimStats] = None
    elapsed: float = 0.0
    failure: Optional[CellFailure] = None
    #: seconds spent waiting for a worker (enqueue → actual dispatch)
    queued: float = 0.0
    #: did the cell's trace come from the in-process/in-worker LRU?
    trace_hit: bool = False


def _affinity(job: Job) -> tuple:
    """Run-order key: same-(workload, scale) cells adjacent."""
    return job.workload, job.scale, job.label


def _finalize_failure(failure: Optional[CellFailure]
                      ) -> Optional[CellFailure]:
    """Write a failure's in-worker bundle payload to the crash dir."""
    if failure is not None and failure.bundle_data is not None:
        try:
            failure.bundle = str(write_bundle(failure.bundle_data))
        except OSError:
            pass
        failure.bundle_data = None
    return failure


@dataclass(frozen=True)
class RunOptions:
    """How a sweep executes; no field changes a cell's stats.  Build it
    with :meth:`resolve`, the one reader of the environment variables
    behind the fields."""

    workers: int = 1                  # 1 runs every cell in-process
    cache: Optional[ResultCache] = None
    timeout: Optional[float] = None   # seconds per cell; None: no limit
    retries: int = 1                  # retries of a cell whose worker died

    @classmethod
    def resolve(cls, workers: Optional[int] = None,
                use_cache: Optional[bool] = None,
                cache: Optional[ResultCache] = None,
                timeout: Optional[float] = None,
                lanes: Optional[int] = None,
                retries: int = 1) -> "RunOptions":
        """The options of these keywords, unset ones from the
        environment: ``workers`` from ``$REPRO_JOBS`` (default 1) and
        ``timeout`` from ``$REPRO_CELL_TIMEOUT``.  A ``cache`` object
        wins over ``use_cache``, whose ``None`` reads ``$REPRO_CACHE``
        (off unless truthy).  A timeout of zero or less is no limit.

        ``lanes`` has no effect: every cell runs on its own core.  The
        keyword stays only because the end-to-end benchmark passes it
        (``benchmarks/e2e/child.py``, ``lanes=8``), and goes once the
        benchmark stops passing it (ROADMAP item 2)."""
        if workers is None:
            workers = max(1, env_int("REPRO_JOBS", 1))
        if cache is None and (env_flag("REPRO_CACHE") if use_cache is None
                              else use_cache):
            cache = ResultCache()
        if timeout is None:
            timeout = env_float("REPRO_CELL_TIMEOUT")
        return cls(workers, cache,
                   timeout if timeout and timeout > 0 else None, retries)


def run_suite(jobs: Sequence[Job], **execution) -> Dict[str, "SuiteResult"]:
    """Execute every job; return ``{label: SuiteResult}`` in job order,
    resolving ``execution``, :meth:`RunOptions.resolve`'s keywords, once.

    Jobs sharing a :func:`~repro.harness.cache.cache_key` are one unit,
    simulated once; each of them records the unit's outcome.  A
    criticality job depends on the unit of the plain cell of its
    ``profile_config``: a profile-only unit, ``profile/<workload>``,
    that no label reports, when no job has that cell.  Units run
    through :func:`~repro.harness.resilience.run_tasks` (the pool with
    ``workers>1``, else in-process; one task function and one
    completion callback either way) in two calls: first the units
    whose per-PC profile a dependent still needs, then the rest, each
    dependent carrying its profile.  Both calls run cells grouped by
    (workload, scale), so consecutive cells hit the trace LRU (on the
    pool path, a worker's: each task carries the group as its affinity
    key, and an idle worker takes the next cell of the group it last
    ran).

    The cache short-circuits units (and profiles) already on disk —
    resolved before dispatch, so a fully warm sweep never spawns a
    worker — and receives each completed cell as it finishes.  Failed
    cells come back as annotated holes in the :class:`SuiteResult`,
    never as raised exceptions; a criticality cell whose profile
    failed is a ``dependency`` hole, while a cached cell whose profile
    run failed keeps its cached stats.
    """
    from .runner import SuiteResult          # local: avoid import cycle
    options = RunOptions.resolve(**execution)
    workers, cache = options.workers, options.cache
    # the fault programme is sampled here, in the parent, and travels
    # inside task payloads: persistent pools may predate the env var,
    # and a typo'd programme must fail the suite, not silently no-op
    faults_text = os.environ.get(faults.FAULT_ENV, "")
    fault_specs = faults.parse_fault_specs(faults_text)
    payload_faults = faults.payload_faults(faults_text, workers)

    # one unit per distinct cell key, represented by its first job
    cell_keys = [cache_key(job.config, job.workload, job.scale,
                           job.profile_config) for job in jobs]
    units: Dict[str, Job] = {}
    for key, job in zip(cell_keys, jobs):
        units.setdefault(key, job)

    def flush_cell(key: str, stats: SimStats) -> None:
        if cache is None:
            return
        cache.put(key, stats)
        if fault_specs:
            faults.apply_corrupt_faults(fault_specs, units[key].cell_id,
                                        cache.path_for(key))

    # cached units short-circuit everything, including their profiles;
    # resolving them here, before any dispatch, means a fully warm
    # sweep never touches (or spawns) the worker pool at all
    records: Dict[str, _CellRecord] = {}
    if cache is not None:
        for key, stats in cache.get_many(cell_keys).items():
            records[key] = _CellRecord(CellStatus.CACHED, stats)

    # a criticality unit depends on the plain cell of its profile config
    # (Figure 14's AGE column); each such cell whose profile is not on
    # disk serves it in phase one, as a profile-only unit if no job has it
    upstream = {key: cache_key(job.profile_config, job.workload, job.scale)
                for key, job in units.items()
                if job.profile_config is not None and key not in records}
    profiles: Dict[str, ProfileData] = {}
    serving: List[str] = []
    for key, source in upstream.items():
        if source in profiles or source in serving:
            continue
        hit = cache.get_profile(source) if cache is not None else None
        if hit is not None:
            profiles[source] = hit
            continue
        serving.append(source)
        job = units[key]
        units.setdefault(source, Job("profile", job.profile_config,
                                     job.workload, job.scale))
    rest = [key for key in units if key not in records and key not in serving]
    total = sum(key in serving or key not in records for key in cell_keys)

    def ordered(keys) -> List[str]:
        # affinity scheduling; outcomes are keyed by unit and assembled
        # in job order, so run order never affects results
        return sorted(keys, key=lambda key: _affinity(units[key]))

    key_of: Dict[int, str] = {}            # task id -> unit key
    failed: Dict[str, CellFailure] = {}    # unit key -> why its run failed

    def task(key: str) -> TaskSpec:
        job = units[key]
        source = upstream.get(key)
        spec = TaskSpec(next_task_id(), job.cell_id, _guarded_cell,
                        (job.label, job.config, job.workload, job.scale,
                         get_target(job.workload).worker_spec(),
                         profiles[source] if source else None,
                         job.profile_config, key in serving,
                         payload_faults),
                        affinity=(job.workload, job.scale))
        key_of[spec.task_id] = key
        return spec

    def cell_done(spec: TaskSpec, outcome: TaskOutcome) -> None:
        key = key_of[spec.task_id]
        if outcome.status is not CellStatus.OK:
            failed[key] = _finalize_failure(outcome.failure)
            # a cached unit run again for its profile keeps its stats:
            # only its dependents see the failure
            records.setdefault(key, _CellRecord(
                outcome.status, queued=outcome.queued_s,
                failure=failed[key]))
            return
        stats, elapsed, trace_hit, counts = outcome.value
        records[key] = _CellRecord(CellStatus.OK, stats, elapsed,
                                   queued=outcome.queued_s,
                                   trace_hit=trace_hit)
        flush_cell(key, stats)
        if counts is not None:
            profiles[key] = counts
            if cache is not None:
                cache.put_profile(key, *counts)

    def run(keys: List[str]) -> None:
        specs = [task(key) for key in keys]
        outcomes = run_tasks(specs, workers, timeout=options.timeout,
                             retries=options.retries, on_complete=cell_done)
        for spec in specs:                 # backstop: no task goes missing
            if spec.task_id not in outcomes:
                cell_done(spec, TaskOutcome(CellStatus.FAILED, failure=(
                    CellFailure(kind="crash", message="no outcome recorded"))))

    try:
        run(ordered(serving))
        keys = []
        for key in ordered(rest):
            source = upstream.get(key)
            if source is None or source in profiles:
                keys.append(key)
                continue
            # the profile this cell depends on failed upstream
            failure = failed[source]
            records[key] = _CellRecord(CellStatus.FAILED, failure=CellFailure(
                kind="dependency", bundle=failure.bundle,
                message=f"profile cell {units[source].cell_id} failed: "
                        f"{failure.summary()}"))
        run(keys)
    except KeyboardInterrupt:
        done = [job.cell_id for job, key in zip(jobs, cell_keys)
                if key in records and records[key].status is CellStatus.OK]
        raise SuiteInterrupted(done, total) from None

    results: Dict[str, SuiteResult] = {}
    for key, job in zip(cell_keys, jobs):
        record = records[key]
        result = results.get(job.label)
        if result is None:
            result = results[job.label] = SuiteResult(job.label, job.config)
        result.record(job.workload, record.status, record.stats,
                      record.elapsed, failure=record.failure,
                      queued=record.queued, trace_hit=record.trace_hit)
    return results
