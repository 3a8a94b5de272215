"""Deterministic fault injection for the resilient experiment harness.

Large campaigns only earn trust in their degradation paths if those
paths can be exercised on demand.  ``REPRO_FAULT`` injects failures at
*named cells* so every recovery mechanism in
:mod:`repro.harness.resilience` has a regression test:

    REPRO_FAULT=<kind>:<cell-pattern>[:<param>][,<kind>:<pattern>...]

``cell-pattern`` is an ``fnmatch`` glob matched case-sensitively
against the cell id ``"<label>/<workload>"`` (a criticality profile
that no job reports runs as ``"profile/<workload>"``).  Kinds:

``crash``
    The worker process dies via ``os._exit(CRASH_EXIT_CODE)`` the
    moment it picks up a matching cell — the stand-in for a segfault
    or the OOM killer.  ``param``, when given, is the *last attempt
    number the fault fires on*: ``crash:A/x:1`` kills attempt 1 only
    (a transient fault the retry layer recovers from), while a bare
    ``crash:A/x`` kills every attempt (a hard fault).
``hang``
    The worker sleeps for ``param`` seconds (default 600) before
    simulating, so a per-cell timeout is the only way out.
``explode``
    A subscriber on the cell's event bus raises
    :class:`InjectedFault` after ``param`` commits (default 50) — a
    genuine mid-simulation exception, raised from inside
    ``O3Core.run`` with live pipeline state behind it.
``corrupt``
    Applied by the *parent* right after the cell's result is written
    to the on-disk cache: ``param`` ``"torn"`` keeps the entry valid
    JSON but flips the payload under its checksum, anything else (the
    default) truncates the file mid-token.  Exercises the cache
    quarantine path on the next run.
``lockdown``
    Checker-side sabotage for the differential verification campaign
    (:mod:`repro.verify`): the memory-ordering witness *drops* §3.3
    lockdown records for matching cells (named
    ``"verify/<program>/<model>/<policy>"``), so a TSO load-load
    reordering that the lockdown matrix really did protect looks
    unprotected to the checker and surfaces as a consistency
    violation.  Proves the campaign can detect, minimise and bundle a
    genuinely weak outcome without needing a real pipeline bug.

Faults are sampled from the environment once per ``run_suite`` call in
the parent and travel to workers inside the task payload, so a
persistent worker pool spawned before the variable was set still sees
the faults, and a run is reproducible from its recorded fault string
alone.  Only a pool worker's payload carries ``crash``, ``hang`` and
``explode`` (:func:`payload_faults`): they exist to exercise pool
recovery, and run in-process a crash would kill the caller itself.
``corrupt`` and ``lockdown`` apply at every worker count.
"""

from __future__ import annotations

import fnmatch
import json
import os
import pathlib
import time
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

#: environment variable holding the fault programme
FAULT_ENV = "REPRO_FAULT"

#: exit code used by the ``crash`` kind (distinctive in diagnostics)
CRASH_EXIT_CODE = 86

KINDS = ("crash", "hang", "explode", "corrupt", "lockdown")

#: kinds that sabotage the process running the cell
WORKER_KINDS = ("crash", "hang", "explode")

#: default sleep for ``hang`` faults, seconds
DEFAULT_HANG_SECONDS = 600.0

#: default commit count before an ``explode`` fault fires
DEFAULT_EXPLODE_COMMITS = 50


class InjectedFault(RuntimeError):
    """The exception raised by ``explode`` faults (mid-simulation)."""


@dataclass(frozen=True)
class FaultSpec:
    """One parsed ``kind:pattern[:param]`` clause."""

    kind: str
    pattern: str
    param: Optional[str] = None

    def matches(self, cell_id: str) -> bool:
        return fnmatch.fnmatchcase(cell_id, self.pattern)

    def fires(self, attempt: int) -> bool:
        """crash/explode faults can be attempt-limited: ``param`` is
        the last attempt they fire on (None = every attempt)."""
        if self.param is None:
            return True
        try:
            return attempt <= int(self.param)
        except ValueError:
            return True


def parse_fault_specs(text: Optional[str]) -> Tuple[FaultSpec, ...]:
    """Parse a ``REPRO_FAULT`` value; raises ``ValueError`` on bad
    grammar so a typo'd fault programme never silently no-ops."""
    if not text:
        return ()
    specs = []
    for clause in text.split(","):
        clause = clause.strip()
        if not clause:
            continue
        parts = clause.split(":", 2)
        if len(parts) < 2 or not parts[1]:
            raise ValueError(
                f"bad fault clause {clause!r}: expected "
                f"'<kind>:<cell-pattern>[:<param>]'")
        kind = parts[0].strip().lower()
        if kind not in KINDS:
            raise ValueError(f"unknown fault kind {kind!r} in {clause!r}; "
                             f"choose from {KINDS}")
        specs.append(FaultSpec(kind, parts[1].strip(),
                               parts[2].strip() if len(parts) == 3 else None))
    return tuple(specs)


def active_fault_specs() -> Tuple[FaultSpec, ...]:
    """The fault programme currently in the environment."""
    return parse_fault_specs(os.environ.get(FAULT_ENV, ""))


def payload_faults(text: str, workers: int) -> str:
    """The part of fault programme ``text`` that task payloads carry:
    all of it for pool workers (``workers > 1``), and without the
    :data:`WORKER_KINDS` for tasks run in the calling process."""
    if workers > 1:
        return text
    return ",".join(clause for clause in text.split(",")
                    if clause.strip() and clause.split(":", 1)[0]
                    .strip().lower() not in WORKER_KINDS)


def faults_for(specs: Sequence[FaultSpec], kind: str,
               cell_id: str) -> Tuple[FaultSpec, ...]:
    return tuple(s for s in specs if s.kind == kind and s.matches(cell_id))


# -- worker-side injection -------------------------------------------------

def preflight(specs: Sequence[FaultSpec], cell_id: str,
              attempt: int) -> None:
    """Apply crash/hang faults for ``cell_id``; called by a task
    function as it picks the cell up."""
    for spec in faults_for(specs, "crash", cell_id):
        if spec.fires(attempt):
            os._exit(CRASH_EXIT_CODE)
    for spec in faults_for(specs, "hang", cell_id):
        if spec.fires(attempt):
            try:
                seconds = float(spec.param) if spec.param else \
                    DEFAULT_HANG_SECONDS
            except ValueError:
                seconds = DEFAULT_HANG_SECONDS
            time.sleep(seconds)


class _Exploder:
    """Event-bus subscriber that raises after N committed instructions."""

    def __init__(self, cell_id: str, after: int):
        self.cell_id = cell_id
        self.remaining = max(1, after)

    def on_commit(self, event) -> None:
        self.remaining -= 1
        if self.remaining <= 0:
            raise InjectedFault(
                f"injected mid-simulation fault at {self.cell_id} "
                f"(cycle {event.cycle})")


def explode_subscriber(specs: Sequence[FaultSpec], cell_id: str,
                       attempt: int = 1) -> Optional[_Exploder]:
    """The ``explode`` subscriber for this cell, or ``None``.  Attach
    it to the core's event bus before ``run()``."""
    for spec in faults_for(specs, "explode", cell_id):
        if not spec.fires(attempt):
            continue
        try:
            after = int(spec.param) if spec.param else \
                DEFAULT_EXPLODE_COMMITS
        except ValueError:
            after = DEFAULT_EXPLODE_COMMITS
        return _Exploder(cell_id, after)
    return None


# -- parent-side injection -------------------------------------------------

def corrupt_file(path: os.PathLike, mode: Optional[str] = None) -> bool:
    """Corrupt one on-disk cache entry.  ``mode="torn"`` keeps the
    entry valid JSON but mutates the payload under its checksum
    (a torn write); anything else truncates the file mid-token."""
    path = pathlib.Path(path)
    try:
        text = path.read_text()
    except OSError:
        return False
    if mode == "torn":
        try:
            data = json.loads(text)
        except ValueError:
            return False
        if isinstance(data, dict) and isinstance(data.get("payload"), dict):
            data["payload"]["__torn__"] = 1
        else:
            return False
        path.write_text(json.dumps(data, sort_keys=True))
    else:
        path.write_text(text[:max(1, len(text) // 2)])
    return True


def apply_corrupt_faults(specs: Sequence[FaultSpec], cell_id: str,
                         path: os.PathLike) -> bool:
    """Parent-side hook: corrupt ``path`` if a corrupt fault matches."""
    for spec in faults_for(specs, "corrupt", cell_id):
        return corrupt_file(path, spec.param)
    return False
