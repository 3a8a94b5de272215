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
* **Two-stage criticality** — jobs carrying a ``profile_config``
  express the profile→tag→run dependency: stage one runs each unique
  (profile config, workload) cell exactly once, stage two feeds that
  single profile to every dependent run (the serial path re-simulated
  the profile per output config).
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
each stage's task list: through the pool with ``workers>1``, and
in-process otherwise, calling the same task functions.  So a failing
cell is the same annotated hole at every worker count; only pool
payloads carry the ``crash``/``hang``/``explode`` faults.  Lane
batching (``lanes>1``) runs in-process only.

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

from ..core import check
from ..criticality import CriticalityTagger, clear_tags
from ..envutil import env_flag, env_int
from ..pipeline import CoreConfig, O3Core, SimStats
from ..pipeline.lanes import LaneBatch, LaneCell, crosscheck, lane_key
from ..testing import faults
from ..workloads import ensure_target, fetch_trace, get_target, has_target
from .cache import ResultCache, cache_key
from .diagnostics import build_crash_bundle, write_bundle
from .resilience import (CellFailure, CellStatus, SuiteInterrupted,
                         TaskOutcome, TaskSpec, default_cell_timeout,
                         default_chunk_size, default_max_retries,
                         exception_failure, next_task_id, run_tasks,
                         shutdown_pools, task_outcome)

__all__ = ["Job", "ProfileData", "default_lanes", "default_use_cache",
           "default_workers", "jobs_for", "run_suite", "shutdown_pools"]

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


def default_workers() -> int:
    """Worker count from ``$REPRO_JOBS`` (default 1 = in-process)."""
    return max(1, env_int("REPRO_JOBS", 1))


def default_use_cache() -> bool:
    """Cache policy from ``$REPRO_CACHE`` (off unless set truthy —
    ``false``/``off``/``no``/``0``/unset all disable)."""
    return env_flag("REPRO_CACHE", default=False)


def default_lanes() -> int:
    """Lane-batch width from ``$REPRO_LANES`` (default 1 = off)."""
    return max(1, env_int("REPRO_LANES", 1))


def _workload_spec(workload: str):
    """The picklable rebuild recipe shipped inside worker payloads."""
    return get_target(workload).worker_spec()


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
                f"repro.workloads.register_target / add_trace_target); "
                f"use the serial runner for ad-hoc traces")
        jobs.append(Job(label, config, name, scale, profile_config))
    return jobs


# -- task functions --------------------------------------------------------
# Top-level functions so they pickle by reference under spawn.  A pool
# worker and, at workers <= 1, this process run the same _guarded_*
# function: fetch the trace through the bounded in-process LRU
# (:func:`repro.workloads.fetch_trace` — rebuilt from the registry on a
# miss, never pickled), apply the payload's faults, simulate, and return
# ("ok", value) or ("error", failure dict with a crash bundle).  Each
# payload carries the target's ``worker_spec()`` rebuild recipe
# (:func:`repro.workloads.ensure_target`): built-in targets re-register
# when a worker imports repro.workloads, and trace-file targets ship
# ``(path, sha256)`` so the worker re-imports the file — verifying the
# checksum — instead of unpickling megabytes of DynInstr.  Because
# worker processes persist across chunks and run_suite calls, and the
# parent sorts cells so same-workload cells share a chunk, successive
# cells stop re-generating megabyte traces.  The _simulate_* pair takes
# the trace itself, so the runner's ad-hoc traces use it too.

def _simulate_profile(trace, config: CoreConfig) -> ProfileData:
    """Stage 1: profile run → per-PC L1-miss / misprediction counts."""
    core = O3Core(trace, config)
    core.run()
    return dict(core.pc_l1_misses), dict(core.pc_mispredicts)


def _simulate_cell(trace, config: CoreConfig,
                   profile: Optional[ProfileData] = None,
                   subscribers: Sequence = ()) -> Tuple[SimStats, float]:
    """Stage 2: simulate one cell (tagging first for criticality runs).

    Tagging happens *inside* the try so a crash mid-``tag`` (partial
    tags) still clears the shared in-process trace on the way out.
    ``subscribers`` are attached to the core's event bus before the
    run (fault injection).  Returns ``(stats, seconds)``.
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
    return stats, time.perf_counter() - start


def _guarded_profile(payload, attempt: int):
    """Task function for stage 1: fault hooks + failure capture."""
    cell_id, config, workload, scale, workload_spec, faults_text = payload
    specs = faults.parse_fault_specs(faults_text)
    faults.preflight(specs, cell_id, attempt)
    try:
        ensure_target(workload_spec)
        trace, _hit = fetch_trace(workload, scale)
        return "ok", _simulate_profile(trace, config)
    except Exception as exc:
        tb = traceback.format_exc()
        return "error", exception_failure(exc, tb, build_crash_bundle(
            label="profile", config=config, workload=workload, scale=scale,
            exc=exc, tb=tb, attempt=attempt, faults_text=faults_text))


def _guarded_cell(payload, attempt: int):
    """Task function for stage 2: fault hooks + failure capture.
    Returns ``(stats, seconds, trace_was_cache_hit)`` on success."""
    (label, config, workload, scale, workload_spec, profile,
     profile_config, faults_text) = payload
    cell_id = f"{label}/{workload}"
    specs = faults.parse_fault_specs(faults_text)
    faults.preflight(specs, cell_id, attempt)
    exploder = faults.explode_subscriber(specs, cell_id, attempt)
    subscribers = (exploder,) if exploder is not None else ()
    try:
        ensure_target(workload_spec)
        trace, trace_hit = fetch_trace(workload, scale)
        stats, elapsed = _simulate_cell(trace, config, profile, subscribers)
        return "ok", (stats, elapsed, trace_hit)
    except Exception as exc:
        tb = traceback.format_exc()
        return "error", exception_failure(exc, tb, build_crash_bundle(
            label=label, config=config, workload=workload, scale=scale,
            profile=profile, profile_config=profile_config,
            exc=exc, tb=tb, attempt=attempt, faults_text=faults_text))


# -- the executor ----------------------------------------------------------

@dataclass
class _CellRecord:
    """Terminal state of one job's cell, pre-assembly."""

    status: CellStatus
    stats: Optional[SimStats] = None
    elapsed: float = 0.0
    failure: Optional[CellFailure] = None
    #: seconds spent waiting for a worker (enqueue → actual dispatch)
    queued: float = 0.0
    #: did the cell's trace come from the in-process/in-worker LRU?
    trace_hit: bool = False
    #: (batch id, driver steps, lane steps) of the lane batch this
    #: cell ran in, if it was lane-batched
    batch: Optional[Tuple[int, int, int]] = None


def _lane_groups(jobs: Sequence[Job], indices: Sequence[int]
                 ) -> List[List[int]]:
    """Partition lane-eligible job indices into compatible groups.

    Cells sharing a :func:`~repro.pipeline.lanes.lane_key` (the IQ
    size) may share a lane stack, whatever their commit policy or queue
    organisation; within a group, cells are ordered by (workload,
    scale) so batch-mates share traces from the LRU.  Outcomes are
    keyed by job index, so grouping never affects what a cell
    computes.
    """
    groups: Dict[tuple, List[int]] = {}
    for index in indices:
        groups.setdefault(lane_key(jobs[index].config), []).append(index)
    for members in groups.values():
        members.sort(key=lambda i: (jobs[i].workload, jobs[i].scale,
                                    jobs[i].label))
    return list(groups.values())


def _run_lane_batches(jobs: Sequence[Job], indices: Sequence[int],
                      lanes: int, records: Dict[int, "_CellRecord"],
                      flush_cell, timeout: Optional[float]) -> None:
    """In-process lane path: run eligible cells through LaneBatch.

    Failures become annotated holes, as on the task path, so one
    deadlocking cell never sinks its batch-mates.  Completed cells
    flush to the cache as their lanes retire, which a task with one
    result cannot do.
    """
    do_check = check.check_enabled()
    for members in _lane_groups(jobs, indices):
        cells, hits = [], {}
        for index in members:
            job = jobs[index]
            trace, hit = fetch_trace(job.workload, job.scale)
            cells.append(LaneCell(index, trace, job.config))
            hits[index] = hit
        (iq_size,) = lane_key(jobs[members[0]].config)
        batch = LaneBatch(min(lanes, len(cells)), iq_size)
        batch_id = next_task_id()

        def cell_done(outcome, hits=hits):
            index = outcome.index
            if outcome.stats is not None:
                records[index] = _CellRecord(
                    CellStatus.OK, outcome.stats, outcome.elapsed,
                    trace_hit=hits[index])
                flush_cell(index, outcome.stats)
            elif outcome.timed_out:
                records[index] = _CellRecord(
                    CellStatus.TIMEOUT,
                    failure=CellFailure(
                        kind="timeout",
                        message=f"lane cell exceeded {timeout}s "
                                f"attributed simulation time"))
            else:
                # the same failure, crash bundle included, that
                # _guarded_cell returns for a cell that raises
                job = jobs[index]
                exc, tb = outcome.error, outcome.error_tb
                failed = task_outcome("error", exception_failure(
                    exc, tb, build_crash_bundle(
                        label=job.label, config=job.config,
                        workload=job.workload, scale=job.scale,
                        exc=exc, tb=tb)), 1)
                records[index] = _CellRecord(
                    CellStatus.FAILED,
                    failure=_finalize_failure(failed.failure))

        report = batch.run(cells, on_cell=cell_done, timeout=timeout)
        for outcome in report.outcomes:
            records[outcome.index].batch = (batch_id, report.steps,
                                            report.lane_steps)
        if do_check:
            sample = next((o for o in report.outcomes
                           if o.stats is not None), None)
            if sample is not None:
                cell = next(c for c in cells if c.index == sample.index)
                crosscheck(cell, sample.stats)


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


def _affinity_order(jobs: Sequence[Job], indices: List[int]) -> List[int]:
    """``indices`` with same-(workload, scale) cells adjacent."""
    return sorted(indices, key=lambda i: (jobs[i].workload, jobs[i].scale,
                                          jobs[i].label))


def run_suite(jobs: Sequence[Job], workers: Optional[int] = None,
              cache: Optional[ResultCache] = None,
              progress: bool = False,
              timeout: Optional[float] = None,
              retries: Optional[int] = None,
              chunk: Optional[int] = None,
              lanes: Optional[int] = None) -> Dict[str, "SuiteResult"]:
    """Execute every job; return ``{label: SuiteResult}`` in job order.

    ``workers=None`` reads ``$REPRO_JOBS``.  Each stage's tasks run
    through :func:`~repro.harness.resilience.run_tasks`: in the pool
    with ``workers>1``, otherwise in-process, with the same task
    functions either way.  ``cache``
    short-circuits cells (and profiles) already on disk — resolved in
    the parent *before* dispatch, so a fully warm sweep never spawns a
    worker — and receives each completed cell as it finishes.
    ``timeout`` (seconds; ``None`` reads ``$REPRO_CELL_TIMEOUT``)
    bounds each cell on the worker path; ``retries`` (``None`` reads
    ``$REPRO_RETRIES``) bounds crash retries.  ``chunk`` (``None``
    reads ``$REPRO_CHUNK``) fixes how many cells share one dispatch
    round-trip; 0/unset sizes chunks by factoring, so they shrink as
    the queue drains and the workers finish together.  Both paths run
    cells grouped by (workload, scale), so consecutive cells hit the
    trace LRU (a worker's, on the pool path), and a factored chunk
    never spans two such groups.  Failed cells come back as annotated
    holes in the :class:`SuiteResult`, never as raised exceptions.

    ``lanes`` (``None`` reads ``$REPRO_LANES``; 1 = off) batches
    lane-compatible cells through the lockstep engine
    (:mod:`repro.pipeline.lanes`) at ``workers<=1`` only: groups
    sharing matrix shapes run over one struct-of-arrays stack, and
    batched results are field-identical per cell.  With workers every
    cell is its own task.  Criticality cells (tagging mutates the
    shared trace) and fault-injection runs always take the per-cell
    path.
    """
    from .runner import SuiteResult          # local: avoid import cycle
    if workers is None:
        workers = default_workers()
    if timeout is None:
        timeout = default_cell_timeout()
    if retries is None:
        retries = default_max_retries()
    if chunk is None:
        chunk = default_chunk_size()
    if lanes is None:
        lanes = default_lanes()
    # the fault programme is sampled here, in the parent, and travels
    # inside task payloads: persistent pools may predate the env var,
    # and a typo'd programme must fail the suite, not silently no-op
    faults_text = os.environ.get(faults.FAULT_ENV, "")
    fault_specs = faults.parse_fault_specs(faults_text)
    payload_faults = faults.payload_faults(faults_text, workers)

    def flush_cell(index: int, stats: SimStats) -> None:
        if cache is None:
            return
        cache.put(cell_keys[index], stats)
        if fault_specs:
            faults.apply_corrupt_faults(
                fault_specs, jobs[index].cell_id,
                cache.path_for(cell_keys[index]))

    # cached cells short-circuit everything, including their profiles;
    # resolving them here, before any dispatch, means a fully warm
    # sweep never touches (or spawns) the worker pool at all
    cell_keys = [cache_key(job.config, job.workload, job.scale,
                           job.profile_config) for job in jobs]
    records: Dict[int, _CellRecord] = {}
    if cache is not None:
        hits = cache.get_many(cell_keys)
        for index, key in enumerate(cell_keys):
            if key in hits:
                records[index] = _CellRecord(CellStatus.CACHED, hits[key])

    # stage 1: one profile simulation per unique (profile, workload) cell
    profile_keys = {}                        # job index -> profile cell key
    profile_cells = {}                       # key -> (config, name, scale)
    for index, job in enumerate(jobs):
        if job.profile_config is None or index in records:
            continue
        key = cache_key(job.profile_config, job.workload, job.scale)
        profile_keys[index] = key
        profile_cells.setdefault(
            key, (job.profile_config, job.workload, job.scale))
    profiles: Dict[str, ProfileData] = {}
    profile_failures: Dict[str, CellFailure] = {}
    if cache is not None:
        for key in list(profile_cells):
            hit = cache.get_profile(key)
            if hit is not None:
                profiles[key] = hit
                del profile_cells[key]
    pending = list(profile_cells.items())
    if progress:
        for key, (config, name, scale) in pending:
            print(f"    profile[{config.scheduler}/{config.commit}]: "
                  f"{name}", flush=True)
    specs, key_of = [], {}
    # affinity: same-workload profiles share a chunk → trace LRU hits
    for key, (config, name, scale) in sorted(
            pending, key=lambda kv: (kv[1][1], kv[1][2])):
        spec = TaskSpec(next_task_id(), f"profile/{name}", _guarded_profile,
                        (f"profile/{name}", config, name, scale,
                         _workload_spec(name), payload_faults),
                        affinity=(name, scale))
        specs.append(spec)
        key_of[spec.task_id] = key

    def profile_done(spec: TaskSpec, outcome: TaskOutcome) -> None:
        key = key_of[spec.task_id]
        if outcome.status is not CellStatus.OK:
            profile_failures[key] = _finalize_failure(outcome.failure)
            return
        profiles[key] = outcome.value
        if cache is not None:
            cache.put_profile(key, *outcome.value)

    run_tasks(specs, workers, timeout=timeout, retries=retries,
              on_complete=profile_done, chunk=chunk)

    # stage 2: the remaining runs
    if progress:
        for index, job in enumerate(jobs):
            note = " (cached)" if index in records else ""
            print(f"    {job.label}: {job.workload}{note}", flush=True)
    task_indices = [index for index in range(len(jobs))
                    if index not in records]
    # lane eligibility: in-process plain cells only — criticality runs
    # mutate the shared trace (tagging) and fault programmes target the
    # per-cell task hooks, so both keep the per-cell path
    lane_set = set()
    if workers <= 1 and lanes > 1 and not fault_specs:
        lane_set = {index for index in task_indices
                    if jobs[index].profile_config is None}
    specs, index_of = [], {}
    # affinity scheduling: run same-(workload, scale) cells adjacently
    # so they share a trace-LRU entry (and, with workers, a chunk and
    # so a worker); a factored chunk ends where the key changes, so two
    # costly workloads never share one.  Outcomes are keyed by task id
    # and assembled in job order below, so run order never affects
    # results.
    for index in _affinity_order(
            jobs, [i for i in task_indices if i not in lane_set]):
        job = jobs[index]
        key = profile_keys.get(index)
        if key is not None and key not in profiles:
            # the profile this cell depends on failed upstream
            upstream = profile_failures.get(key)
            records[index] = _CellRecord(
                CellStatus.FAILED,
                failure=CellFailure(
                    kind="dependency",
                    message=(f"profile cell failed: "
                             f"{upstream.summary()}" if upstream
                             else "profile cell failed"),
                    bundle=upstream.bundle if upstream else None))
            continue
        profile = profiles[key] if key is not None else None
        spec = TaskSpec(next_task_id(), job.cell_id, _guarded_cell,
                        (job.label, job.config, job.workload,
                         job.scale, _workload_spec(job.workload),
                         profile, job.profile_config, payload_faults),
                        affinity=(job.workload, job.scale))
        specs.append(spec)
        index_of[spec.task_id] = index

    def cell_done(spec: TaskSpec, outcome: TaskOutcome) -> None:
        index = index_of[spec.task_id]
        if outcome.status is CellStatus.OK:
            stats, elapsed, trace_hit = outcome.value
            records[index] = _CellRecord(CellStatus.OK, stats, elapsed,
                                         queued=outcome.queued_s,
                                         trace_hit=trace_hit)
            flush_cell(index, stats)
        else:
            records[index] = _CellRecord(
                outcome.status,
                failure=_finalize_failure(outcome.failure),
                queued=outcome.queued_s)

    try:
        if lane_set:
            _run_lane_batches(jobs, sorted(lane_set), lanes, records,
                              flush_cell, timeout)
        run_tasks(specs, workers, timeout=timeout, retries=retries,
                  on_complete=cell_done, chunk=chunk)
    except KeyboardInterrupt:
        done = [jobs[i].cell_id for i in task_indices
                if i in records and records[i].status is CellStatus.OK]
        raise SuiteInterrupted(done, len(task_indices)) from None
    for spec in specs:                   # backstop: no task goes missing
        index = index_of[spec.task_id]
        if index not in records:
            records[index] = _CellRecord(
                CellStatus.FAILED,
                failure=CellFailure(kind="crash",
                                    message="no outcome recorded"))

    results: Dict[str, SuiteResult] = {}
    for index, job in enumerate(jobs):
        record = records[index]
        result = results.get(job.label)
        if result is None:
            result = results[job.label] = SuiteResult(job.label, job.config)
        result.record(job.workload, record.status, record.stats,
                      record.elapsed, failure=record.failure,
                      queued=record.queued, trace_hit=record.trace_hit)
        if record.batch is not None:
            # keyed by batch id so a batch spanning labels (or holding
            # many cells) counts once in occupancy aggregation
            batch_id, steps, lane_steps = record.batch
            result.lane_batches[batch_id] = (steps, lane_steps)
    return results
