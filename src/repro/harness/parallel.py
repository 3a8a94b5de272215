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
  for in-worker exceptions), healthy cells complete and are flushed to
  the cache as they finish, and Ctrl-C raises
  :class:`~repro.harness.resilience.SuiteInterrupted` naming exactly
  what finished.

The ``workers<=1`` path runs in-process with no dispatcher, no fault
injection, and seed semantics (exceptions propagate) — it is the
reference the parallel path must match bit-for-bit.

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
                         get_pool, next_task_id, shutdown_pools)

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


# -- worker protocol -------------------------------------------------------
# Top-level functions so they pickle by reference under spawn.  Workers
# import repro afresh, fetch the trace through the bounded in-process
# LRU (:func:`repro.workloads.fetch_trace` — rebuilt from the registry
# on a miss, never pickled), simulate, and return (picklable) SimStats
# plus the cell's wall-clock seconds and whether its trace was an LRU
# hit.  Each guarded payload carries the target's ``worker_spec()``
# rebuild recipe (:func:`repro.workloads.ensure_target`): built-in
# targets re-register when the worker imports repro.workloads, and
# trace-file targets ship ``(path, sha256)`` so the worker re-imports
# the file — verifying the checksum — instead of unpickling megabytes
# of DynInstr.  Because worker processes persist across chunks and
# run_suite calls, and the parent sorts cells so same-workload cells
# share a chunk, successive cells stop re-generating megabyte traces.
# The _simulate_* pair is the bare reference path (used in-process when
# workers <= 1); the _guarded_* pair wraps it for the dispatcher —
# applying injected faults and converting exceptions into failure
# dicts carrying a crash-diagnostic bundle.

def _simulate_profile(task) -> Tuple[Dict[int, int], Dict[int, int], float]:
    """Stage 1: profile run → per-PC L1-miss / misprediction counts."""
    config, workload, scale = task
    trace, _hit = fetch_trace(workload, scale)
    start = time.perf_counter()
    core = O3Core(trace, config)
    core.run()
    return (dict(core.pc_l1_misses), dict(core.pc_mispredicts),
            time.perf_counter() - start)


def _simulate_cell(task, subscribers: Sequence = ()
                   ) -> Tuple[SimStats, float, bool]:
    """Stage 2: simulate one cell (tagging first for criticality runs).

    Tagging happens *inside* the try so a crash mid-``tag`` (partial
    tags) still clears the shared in-process trace on the way out.
    ``subscribers`` are attached to the core's event bus before the
    run (fault injection; empty on the reference path).  Returns
    ``(stats, seconds, trace_was_cache_hit)``.
    """
    config, workload, scale, profile = task
    trace, trace_hit = fetch_trace(workload, scale)
    start = time.perf_counter()
    if profile is None:
        core = O3Core(trace, config)
        for subscriber in subscribers:
            core.bus.attach(subscriber)
        stats = core.run()
    else:
        tagger = CriticalityTagger()
        tagger.feed_profile(profile[0], profile[1])
        try:
            tagger.tag(trace)
            core = O3Core(trace, config)
            for subscriber in subscribers:
                core.bus.attach(subscriber)
            stats = core.run()
        finally:
            clear_tags(trace)
    return stats, time.perf_counter() - start, trace_hit


def _guarded_profile(payload, attempt: int):
    """Dispatcher wrapper for stage 1: fault hooks + failure capture."""
    cell_id, config, workload, scale, workload_spec, faults_text = payload
    specs = faults.parse_fault_specs(faults_text)
    faults.preflight(specs, cell_id, attempt)
    try:
        ensure_target(workload_spec)
        return "ok", _simulate_profile((config, workload, scale))
    except Exception as exc:
        tb = traceback.format_exc()
        bundle = build_crash_bundle(
            label="profile", config=config, workload=workload, scale=scale,
            exc=exc, tb=tb, attempt=attempt, faults_text=faults_text)
        return "error", {"kind": "exception",
                         "message": f"{type(exc).__name__}: {exc}",
                         "traceback": tb, "bundle": bundle}


def _guarded_cell(payload, attempt: int):
    """Dispatcher wrapper for stage 2: fault hooks + failure capture."""
    (label, config, workload, scale, workload_spec, profile,
     profile_config, faults_text) = payload
    cell_id = f"{label}/{workload}"
    specs = faults.parse_fault_specs(faults_text)
    faults.preflight(specs, cell_id, attempt)
    exploder = faults.explode_subscriber(specs, cell_id, attempt)
    subscribers = (exploder,) if exploder is not None else ()
    try:
        ensure_target(workload_spec)
        stats, elapsed, trace_hit = _simulate_cell(
            (config, workload, scale, profile), subscribers)
        return "ok", (stats, elapsed, trace_hit)
    except Exception as exc:
        tb = traceback.format_exc()
        bundle = build_crash_bundle(
            label=label, config=config, workload=workload, scale=scale,
            profile=profile, profile_config=profile_config,
            exc=exc, tb=tb, attempt=attempt, faults_text=faults_text)
        return "error", {"kind": "exception",
                         "message": f"{type(exc).__name__}: {exc}",
                         "traceback": tb, "bundle": bundle}


def _guarded_lane_group(payload, attempt: int):
    """Dispatcher wrapper for a lane-batched group of cells.

    One task = one :class:`~repro.pipeline.lanes.LaneBatch` run over
    lane-compatible cells.  Streams nothing mid-batch (the pool
    protocol is one result per task), so the whole group's per-cell
    outcomes come back in one value: ``{"cells": [...], "steps": n,
    "lane_steps": n}`` with one entry per payload cell, in order.
    Per-cell failures (deadlock in one lane) are embedded entries —
    batch-mates keep their results.
    """
    cells_data, lanes, timeout = payload
    try:
        key = lane_key(cells_data[0][1])
        cells, hits = [], []
        for pos, (label, config, workload, scale,
                  workload_spec) in enumerate(cells_data):
            ensure_target(workload_spec)
            trace, hit = fetch_trace(workload, scale)
            cells.append(LaneCell(pos, trace, config))
            hits.append(hit)
        batch = LaneBatch(min(lanes, len(cells)), key[0], key[1])
        report = batch.run(cells, timeout=timeout)
        if check.check_enabled():
            sample = next((o for o in report.outcomes
                           if o.stats is not None), None)
            if sample is not None:
                crosscheck(cells[sample.index], sample.stats)
        out = [None] * len(cells)
        for outcome in report.outcomes:
            pos = outcome.index
            label, config, workload, scale, _spec = cells_data[pos]
            if outcome.stats is not None:
                out[pos] = {"status": "ok", "stats": outcome.stats,
                            "elapsed": outcome.elapsed,
                            "trace_hit": hits[pos]}
            elif outcome.timed_out:
                out[pos] = {"status": "timeout",
                            "elapsed": outcome.elapsed}
            else:
                exc = outcome.error
                bundle = build_crash_bundle(
                    label=label, config=config, workload=workload,
                    scale=scale, exc=exc, tb=outcome.error_tb,
                    attempt=attempt)
                out[pos] = {"status": "error",
                            "message": f"{type(exc).__name__}: {exc}",
                            "traceback": outcome.error_tb,
                            "bundle": bundle}
        return "ok", {"cells": out, "steps": report.steps,
                      "lane_steps": report.lane_steps}
    except Exception as exc:
        # batch-level failure (trace build, stack allocation, a
        # REPRO_CHECK divergence): fails the whole group loudly
        tb = traceback.format_exc()
        return "error", {"kind": "exception",
                         "message": f"{type(exc).__name__}: {exc}",
                         "traceback": tb}


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

    Cells sharing a :func:`~repro.pipeline.lanes.lane_key` (matrix
    shapes, queue organisation, ROB release policy) may share a lane
    stack; within a group, cells are ordered by (workload, scale) so
    batch-mates share traces from the LRU.  Outcomes are keyed by job
    index, so grouping never affects what a cell computes.
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

    Mirrors the worker-path semantics (failures become annotated
    holes, completed cells flush to the cache as their lanes retire)
    rather than the serial path's propagate-exceptions contract: lane
    isolation — one deadlocking cell must not sink its batch-mates —
    is the point of the batch.
    """
    do_check = check.check_enabled()
    for members in _lane_groups(jobs, indices):
        cells, hits = [], {}
        for index in members:
            job = jobs[index]
            trace, hit = fetch_trace(job.workload, job.scale)
            cells.append(LaneCell(index, trace, job.config))
            hits[index] = hit
        key = lane_key(jobs[members[0]].config)
        batch = LaneBatch(min(lanes, len(cells)), key[0], key[1])
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
                records[index] = _CellRecord(
                    CellStatus.FAILED,
                    failure=CellFailure(
                        kind="exception",
                        message=(f"{type(outcome.error).__name__}: "
                                 f"{outcome.error}"),
                        traceback=outcome.error_tb))

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


def run_suite(jobs: Sequence[Job], workers: Optional[int] = None,
              cache: Optional[ResultCache] = None,
              progress: bool = False,
              timeout: Optional[float] = None,
              retries: Optional[int] = None,
              chunk: Optional[int] = None,
              lanes: Optional[int] = None) -> Dict[str, "SuiteResult"]:
    """Execute every job; return ``{label: SuiteResult}`` in job order.

    ``workers=None`` reads ``$REPRO_JOBS``; ``workers<=1`` runs
    in-process (the bit-identical serial reference path, where
    exceptions propagate and no faults are injected).  ``cache``
    short-circuits cells (and profiles) already on disk — resolved in
    the parent *before* dispatch, so a fully warm sweep never spawns a
    worker — and receives each completed cell as it finishes.
    ``timeout`` (seconds; ``None`` reads ``$REPRO_CELL_TIMEOUT``)
    bounds each cell on the worker path; ``retries`` (``None`` reads
    ``$REPRO_RETRIES``) bounds crash retries.  ``chunk`` (``None``
    reads ``$REPRO_CHUNK``) fixes how many cells share one dispatch
    round-trip; 0/unset sizes chunks by factoring, so they shrink as
    the queue drains and the workers finish together.  The dispatch
    order groups cells by (workload, scale) so chunk-mates hit the
    worker-side trace LRU, and a factored chunk never spans two such
    groups.  Failed cells come back as annotated holes in the
    :class:`SuiteResult`, never as raised exceptions.

    ``lanes`` (``None`` reads ``$REPRO_LANES``; 1 = off) batches
    lane-compatible cells through the lockstep engine
    (:mod:`repro.pipeline.lanes`): groups sharing matrix shapes run
    over one struct-of-arrays stack, composing with the worker pool
    (each group is one dispatch task).  ``lanes=1`` is the untouched
    reference; batched results are field-identical per cell.
    Criticality cells (tagging mutates the shared trace) and
    fault-injection runs always take the per-cell paths, and
    lane-batched failures are annotated holes even in-process —
    isolating a deadlocked lane from its batch-mates is the contract.
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
    if pending and progress:
        for key, (config, name, scale) in pending:
            print(f"    profile[{config.scheduler}/{config.commit}]: "
                  f"{name}", flush=True)
    if pending and workers <= 1:
        for key, cell in pending:
            misses, mispredicts, _elapsed = _simulate_profile(cell)
            profiles[key] = (misses, mispredicts)
            if cache is not None:
                cache.put_profile(key, misses, mispredicts)
    elif pending:
        specs, key_of = [], {}
        # affinity: same-workload profiles share a chunk → trace LRU hits
        for key, (config, name, scale) in sorted(
                pending, key=lambda kv: (kv[1][1], kv[1][2])):
            spec = TaskSpec(next_task_id(), f"profile/{name}",
                            _guarded_profile,
                            (f"profile/{name}", config, name, scale,
                             _workload_spec(name), faults_text),
                            affinity=(name, scale))
            specs.append(spec)
            key_of[spec.task_id] = key

        def profile_done(spec: TaskSpec, outcome: TaskOutcome) -> None:
            if outcome.status is not CellStatus.OK:
                profile_failures[key_of[spec.task_id]] = \
                    _finalize_failure(outcome.failure)
                return
            misses, mispredicts, _elapsed = outcome.value
            profiles[key_of[spec.task_id]] = (misses, mispredicts)
            if cache is not None:
                cache.put_profile(key_of[spec.task_id], misses, mispredicts)

        get_pool(workers).run(specs, timeout=timeout, retries=retries,
                              on_complete=profile_done, chunk=chunk)

    # stage 2: the remaining runs
    if progress:
        for index, job in enumerate(jobs):
            note = " (cached)" if index in records else ""
            print(f"    {job.label}: {job.workload}{note}", flush=True)
    task_indices = [index for index in range(len(jobs))
                    if index not in records]
    # lane eligibility: plain cells only — criticality runs mutate the
    # shared trace (tagging) and fault programmes target the per-cell
    # dispatcher hooks, so both keep the per-cell paths
    lane_set = set()
    if lanes > 1 and not fault_specs:
        lane_set = {index for index in task_indices
                    if jobs[index].profile_config is None}
    if workers <= 1:
        # in-process reference path: exceptions propagate (seed
        # semantics); Ctrl-C still reports what finished
        try:
            if lane_set:
                _run_lane_batches(jobs, sorted(lane_set), lanes,
                                  records, flush_cell, timeout)
            for index in task_indices:
                if index in lane_set:
                    continue
                job = jobs[index]
                profile = profiles[profile_keys[index]] \
                    if index in profile_keys else None
                stats, elapsed, trace_hit = _simulate_cell(
                    (job.config, job.workload, job.scale, profile))
                records[index] = _CellRecord(CellStatus.OK, stats, elapsed,
                                             trace_hit=trace_hit)
                flush_cell(index, stats)
        except KeyboardInterrupt:
            done = [jobs[i].cell_id for i in task_indices if i in records]
            raise SuiteInterrupted(done, len(task_indices)) from None
    else:
        # lane-batched groups first: each compatible group becomes one
        # dispatcher task (one LaneBatch run in one worker), sliced so
        # groups stay a small multiple of the lane count — enough queue
        # depth for retire-and-refill without starving other workers
        group_specs, members_of = [], {}
        if lane_set:
            cap = max(lanes, min(2 * lanes, 32))
            for members in _lane_groups(jobs, sorted(lane_set)):
                for start in range(0, len(members), cap):
                    part = members[start:start + cap]
                    if len(part) < 2:
                        # a lone cell gains nothing from the lane
                        # driver; send it down the per-cell path
                        lane_set.difference_update(part)
                        continue
                    spec = TaskSpec(
                        next_task_id(),
                        f"lanes[{len(part)}]/{jobs[part[0]].workload}",
                        _guarded_lane_group,
                        ([(jobs[i].label, jobs[i].config,
                           jobs[i].workload, jobs[i].scale,
                           _workload_spec(jobs[i].workload))
                          for i in part], lanes, timeout))
                    group_specs.append(spec)
                    members_of[spec.task_id] = part

        def group_done(spec: TaskSpec, outcome: TaskOutcome) -> None:
            part = members_of[spec.task_id]
            if outcome.status is not CellStatus.OK:
                # batch-level failure: every member inherits it
                for index in part:
                    records[index] = _CellRecord(
                        outcome.status,
                        failure=_finalize_failure(outcome.failure),
                        queued=outcome.queued_s)
                return
            value = outcome.value
            batch = (spec.task_id, value["steps"], value["lane_steps"])
            for pos, index in enumerate(part):
                cell = value["cells"][pos]
                if cell is None:
                    records[index] = _CellRecord(
                        CellStatus.FAILED,
                        failure=CellFailure(
                            kind="crash",
                            message="no outcome recorded for lane cell"),
                        queued=outcome.queued_s)
                elif cell["status"] == "ok":
                    records[index] = _CellRecord(
                        CellStatus.OK, cell["stats"], cell["elapsed"],
                        queued=outcome.queued_s,
                        trace_hit=cell["trace_hit"], batch=batch)
                    flush_cell(index, cell["stats"])
                elif cell["status"] == "timeout":
                    records[index] = _CellRecord(
                        CellStatus.TIMEOUT,
                        failure=CellFailure(
                            kind="timeout",
                            message=f"lane cell exceeded {timeout}s "
                                    f"attributed simulation time"),
                        queued=outcome.queued_s, batch=batch)
                else:
                    records[index] = _CellRecord(
                        CellStatus.FAILED,
                        failure=_finalize_failure(CellFailure(
                            kind="exception", message=cell["message"],
                            traceback=cell["traceback"],
                            bundle_data=cell["bundle"])),
                        queued=outcome.queued_s, batch=batch)

        if group_specs:
            # the pool timeout bounds one *task*; a lane group is up
            # to ``cap`` cells of work, so scale the bound accordingly
            # (per-cell attributed timeouts run inside the batch)
            get_pool(workers).run(
                group_specs,
                timeout=timeout * cap if timeout else None,
                retries=retries, on_complete=group_done, chunk=1)

        specs, index_of = [], {}
        # affinity scheduling: dispatch same-(workload, scale) cells
        # adjacently so they land in the same chunk (and therefore the
        # same worker), maximising the worker-side trace-LRU hit rate;
        # a factored chunk ends where the key changes, so two costly
        # workloads never share one.  Outcomes are keyed by task id
        # and assembled in job order below, so dispatch order never
        # affects results.
        ordered = sorted((i for i in task_indices if i not in lane_set),
                         key=lambda i: (jobs[i].workload, jobs[i].scale,
                                        jobs[i].label))
        for index in ordered:
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
                             profile, job.profile_config, faults_text),
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

        if specs:                        # a warm sweep spawns no workers
            get_pool(workers).run(specs, timeout=timeout, retries=retries,
                                  on_complete=cell_done, chunk=chunk)
        for spec in specs:               # backstop: no task goes missing
            index = index_of[spec.task_id]
            if index not in records:
                records[index] = _CellRecord(
                    CellStatus.FAILED,
                    failure=CellFailure(kind="crash",
                                        message="no outcome recorded"))
        for spec in group_specs:         # same backstop, lane groups
            for index in members_of[spec.task_id]:
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
        result.statuses[job.workload] = record.status
        result.timings[job.workload] = record.elapsed
        result.queued[job.workload] = record.queued
        result.cached[job.workload] = record.status is CellStatus.CACHED
        result.trace_hits[job.workload] = record.trace_hit
        if record.stats is not None:
            result.stats[job.workload] = record.stats
        if record.failure is not None:
            result.failures[job.workload] = record.failure
        if record.batch is not None:
            # keyed by batch id so a batch spanning labels (or holding
            # many cells) counts once in occupancy aggregation
            batch_id, steps, lane_steps = record.batch
            result.lane_batches[batch_id] = (steps, lane_steps)
    return results
