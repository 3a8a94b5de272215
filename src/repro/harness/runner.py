"""Experiment runner: simulate suites of (config, workload) pairs.

``run_config`` and ``run_config_with_criticality`` are one-line calls
of :func:`run_criticality_suite`, which submits through the parallel
executor (:mod:`repro.harness.parallel`), passing its execution
keywords through to ``run_suite`` unchanged.  Every trace must be a
registered workload target: a trace the registry cannot rebuild raises
``ValueError`` from :func:`~repro.harness.parallel.jobs_for`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..isa import Trace
from ..pipeline import CoreConfig, SimStats
from .parallel import jobs_for, run_suite
from .resilience import CellFailure, CellStatus


@dataclass
class SuiteResult:
    """IPC (and full stats) for one configuration across the suite.

    A cell that failed, timed out, or lost its profile dependency is
    an annotated hole: absent from ``stats`` but present in
    ``statuses`` (and ``failures``) so downstream artefacts render
    missing cells instead of crashing on ``KeyError``.
    """

    label: str
    config: CoreConfig
    stats: Dict[str, SimStats] = field(default_factory=dict)
    #: per-workload simulation wall-clock seconds, measured in-worker
    #: from actual dispatch (0.0 for cache hits) — queue wait is
    #: reported separately in ``queued`` so durations are never
    #: inflated by time spent waiting for a free worker
    timings: Dict[str, float] = field(default_factory=dict)
    #: per-workload seconds spent queued (enqueue → dispatch; 0.0
    #: in-process and for cache hits)
    queued: Dict[str, float] = field(default_factory=dict)
    #: per-workload flag: did the cell come from the result cache?
    cached: Dict[str, bool] = field(default_factory=dict)
    #: per-workload flag: was the cell's trace served from the
    #: in-process/in-worker trace LRU instead of being regenerated?
    trace_hits: Dict[str, bool] = field(default_factory=dict)
    #: per-workload terminal status (ok | failed | timeout | cached)
    statuses: Dict[str, CellStatus] = field(default_factory=dict)
    #: per-workload failure detail for non-ok cells
    failures: Dict[str, CellFailure] = field(default_factory=dict)

    def record(self, workload: str, status: CellStatus,
               stats: Optional[SimStats] = None, elapsed: float = 0.0,
               failure: Optional[CellFailure] = None, queued: float = 0.0,
               trace_hit: bool = False) -> None:
        """Record one cell's terminal state; a hole when ``stats`` is
        ``None``."""
        self.statuses[workload] = status
        self.timings[workload] = elapsed
        self.queued[workload] = queued
        self.cached[workload] = status is CellStatus.CACHED
        self.trace_hits[workload] = trace_hit
        if stats is not None:
            self.stats[workload] = stats
        if failure is not None:
            self.failures[workload] = failure

    def ipc(self, workload: str) -> float:
        try:
            return self.stats[workload].ipc
        except KeyError:
            failure = self.failures.get(workload)
            if failure is not None:
                raise KeyError(
                    f"workload {workload!r} in suite result "
                    f"{self.label!r} did not finish — "
                    f"{failure.summary()}") from None
            available = ", ".join(sorted(self.stats)) or "none"
            raise KeyError(
                f"no stats for workload {workload!r} in suite result "
                f"{self.label!r} (available: {available})") from None

    def workloads(self) -> List[str]:
        return list(self.stats)

    def missing(self) -> List[str]:
        """Workloads attempted but absent from ``stats``."""
        return [name for name in self.statuses if name not in self.stats]

    def complete(self) -> bool:
        return not self.missing()

    def failure_notes(self) -> List[str]:
        """Human-readable lines, one per missing cell."""
        notes = []
        for name in self.missing():
            failure = self.failures.get(name)
            detail = failure.summary() if failure is not None \
                else str(self.statuses[name])
            notes.append(f"{self.label}/{name}: {detail}")
        return notes

    def sim_seconds(self) -> float:
        """Total simulation wall-clock across cells (cache hits cost 0)."""
        return sum(self.timings.values())

    def queued_seconds(self) -> float:
        """Total time cells spent waiting for a worker."""
        return sum(self.queued.values())

    def cache_hits(self) -> int:
        return sum(1 for hit in self.cached.values() if hit)

    def trace_cache_hits(self) -> int:
        """Cells whose trace came from the trace LRU (not rebuilt)."""
        return sum(1 for hit in self.trace_hits.values() if hit)

    def trace_cache_misses(self) -> int:
        """Cells whose trace had to be (re)generated."""
        return sum(1 for name, hit in self.trace_hits.items()
                   if not hit and not self.cached.get(name, False))


def run_config(label: str, config: CoreConfig,
               traces: Dict[str, Trace], **execution) -> SuiteResult:
    """Simulate every trace under ``config`` (via the executor)."""
    return run_criticality_suite([(label, config)], traces, None,
                                 **execution)[label]


def run_criticality_suite(specs: Sequence[Tuple[str, CoreConfig]],
                          traces: Dict[str, Trace],
                          profile_config: Optional[CoreConfig] = None,
                          **execution) -> Dict[str, SuiteResult]:
    """Simulate every ``(label, config)`` spec on every trace.

    With a ``profile_config`` these are CRI runs: profile each workload
    under it (HPC stand-in), tag the critical slices via CCT+IBDA, then
    simulate every spec against the tagged trace.  The profile is the
    plain cell of ``profile_config``, simulated once per workload
    however many specs depend on it.  ``execution`` goes to
    ``run_suite``.
    """
    jobs = [job for label, config in specs
            for job in jobs_for(label, config, traces, profile_config)]
    results = run_suite(jobs, **execution)
    return {label: results.get(label, SuiteResult(label, config))
            for label, config in specs}


def run_config_with_criticality(label: str, config: CoreConfig,
                                traces: Dict[str, Trace],
                                profile_config: CoreConfig,
                                **execution) -> SuiteResult:
    """One CRI configuration (see :func:`run_criticality_suite`)."""
    return run_criticality_suite([(label, config)], traces, profile_config,
                                 **execution)[label]


def geomean(values: List[float]) -> float:
    if not values:
        return 1.0
    return math.exp(sum(math.log(max(v, 1e-12)) for v in values)
                    / len(values))


def speedups(result: SuiteResult, baseline: SuiteResult
             ) -> Dict[str, float]:
    """Per-workload IPC ratio vs the baseline configuration.

    Only workloads with stats on *both* sides contribute — a cell
    that failed in either suite is a hole, not a crash.
    """
    return {name: result.ipc(name) / baseline.ipc(name)
            for name in baseline.workloads()
            if name in result.stats}


def geomean_speedup(result: SuiteResult, baseline: SuiteResult) -> float:
    return geomean(list(speedups(result, baseline).values()))
