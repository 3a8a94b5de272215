"""The differential verification campaign: programs × policies × models.

Fans every generated program (:mod:`~repro.verify.generator`) across
the full commit-policy grid under both memory models, runs each thread
on its own witnessed core, composes the per-thread apparent orders
(:mod:`~repro.verify.witness`) and flags any composed outcome outside
the oracle's allowed set (:mod:`~repro.verify.oracle`).

The unit of work is one *program* (all its combos and threads run
inside one task call) run through
:func:`~repro.harness.resilience.run_tasks`: in-process at ``jobs=1``,
and with more jobs through the
:class:`~repro.harness.resilience.ResilientPool`, so the campaign
inherits crash/hang/timeout recovery.  Completions append to a JSONL
checkpoint (flushed per line), so a campaign killed at any point —
Ctrl-C, SIGKILL, power loss — resumes by skipping every program whose
line is already present; at a clean end the file is rewritten in
canonical index order via an atomic replace, making checkpoints
byte-identical for identical ``(seed, count)`` regardless of
completion order or parallelism.

Cells are named ``verify/<program>/<model>/<policy>`` — the id space
``REPRO_FAULT`` patterns match, including the checker-side
``lockdown`` kind that makes a healthy run produce a real violation
on demand.
"""

from __future__ import annotations

import json
import os
import pathlib
import traceback
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple

from ..harness.resilience import (CellStatus, TaskSpec, exception_failure,
                                  next_task_id, run_tasks)
from ..isa import trace_program
from ..pipeline import O3Core
from ..pipeline.config import COMMITS, CoreConfig, base_config
from ..pipeline.events import EventBus
from ..pipeline.lanes import LaneBatch, LaneCell, lane_key
from ..testing import faults
from .generator import (VerifyProgram, build_thread, generate_programs,
                        program_sha)
from .oracle import MODELS, allowed_outcomes, format_outcome
from .witness import (WitnessSubscriber, apparent_order, compose_outcomes,
                      extract_witness)

__all__ = ["CHECKPOINT_VERSION", "CampaignResult", "Violation", "cell_name",
           "combos", "default_checkpoint", "run_campaign", "verify_program"]

#: checkpoint schema revision
CHECKPOINT_VERSION = 1

#: commit policies that retire loads before they perform (ECL) — they
#: raise under TSO by design, so the TSO column excludes them
ECL_POLICIES = frozenset({"vb", "br", "ecl"})

#: cycle budget per verification cell (programs are ~30 instructions)
CELL_MAX_CYCLES = 50_000

#: what composition reads of an apparent-order event (not its cycle)
_ORDER_KEY = attrgetter("index", "kind", "addr", "value")


def combos() -> List[Tuple[str, str]]:
    """The (model, commit-policy) grid: RVWMO × every policy, TSO ×
    every non-ECL policy (17 combos)."""
    grid = [("rvwmo", policy) for policy in COMMITS]
    grid += [("tso", policy) for policy in COMMITS
             if policy not in ECL_POLICIES]
    return grid


def cell_name(program: str, model: str, policy: str) -> str:
    return f"verify/{program}/{model}/{policy}"


def _combo_config(model: str, policy: str) -> CoreConfig:
    return base_config(commit=policy, tso=(model == "tso"))


# -- one program through the whole grid -------------------------------------

def verify_program(program: VerifyProgram, lanes: int = 1,
                   fault_specs: Sequence[faults.FaultSpec] = (),
                   attempt: int = 1,
                   grid: Optional[Sequence[Tuple[str, str]]] = None) -> dict:
    """Run ``program`` under every (model, policy) combo; check each
    against the model's oracle.  Returns a JSON-able result::

        {"combos": N, "violations": [...], "errors": [...]}

    Violations carry the combo, the disallowed outcomes and the raw
    per-thread witnesses; errors carry cells that failed to simulate.
    """
    grid = list(grid if grid is not None else combos())
    built = [build_thread(program, t) for t in range(len(program.threads))]
    traces = [None] * len(built)

    # (combo index, thread) -> subscriber; cells carry the same key
    subscribers: Dict[Tuple[int, int], WitnessSubscriber] = {}
    cells: List[LaneCell] = []
    for c, (model, policy) in enumerate(grid):
        cid = cell_name(program.name, model, policy)
        faults.preflight(fault_specs, cid, attempt)
        drop = any(s.fires(attempt) for s in
                   faults.faults_for(fault_specs, "lockdown", cid))
        config = _combo_config(model, policy)
        for t in range(len(program.threads)):
            if traces[t] is None:
                traces[t] = trace_program(built[t][0])
            subscriber = WitnessSubscriber(drop_lockdown=drop)
            bus = EventBus()
            bus.attach(subscriber)
            subscribers[(c, t)] = subscriber
            cells.append(LaneCell((c, t), traces[t], config,
                                  max_cycles=CELL_MAX_CYCLES, bus=bus))

    errors: List[dict] = []
    failed: set = set()

    def record_error(index, exc, tb: str = "") -> None:
        c, t = index
        model, policy = grid[c]
        failed.add(c)
        errors.append({"cell": cell_name(program.name, model, policy),
                       "thread": t, "error": f"{type(exc).__name__}: {exc}",
                       "traceback": tb})

    if lanes > 1:
        # group by structural compatibility key (the IQ size, which
        # every verify config shares — so one group in practice)
        groups: Dict[tuple, List[LaneCell]] = {}
        for cell in cells:
            groups.setdefault(lane_key(cell.config), []).append(cell)
        for (iq_size,), group in groups.items():
            batch = LaneBatch(lanes, iq_size)
            report = batch.run(group)
            for outcome in report.outcomes:
                if outcome.error is not None:
                    record_error(outcome.index, outcome.error,
                                 outcome.error_tb)
                elif outcome.timed_out:
                    record_error(outcome.index,
                                 TimeoutError("cell timed out"))
    else:
        for cell in cells:
            try:
                O3Core(cell.trace, cell.config,
                       bus=cell.bus).run(cell.max_cycles)
            except Exception as exc:
                record_error(cell.index, exc, traceback.format_exc())

    violations: List[dict] = []
    # combos often witness the same apparent orders: compose each
    # distinct set once, and ask the oracle once per model
    composed_by_orders: Dict[tuple, frozenset] = {}
    allowed_by_model: Dict[str, frozenset] = {}
    for c, (model, policy) in enumerate(grid):
        if c in failed:
            continue
        witnesses = [extract_witness(subscribers[(c, t)], program, t,
                                     built[t][1])
                     for t in range(len(program.threads))]
        sequences = [apparent_order(program, t, witnesses[t], model)
                     for t in range(len(program.threads))]
        key = tuple(tuple(map(_ORDER_KEY, events)) for events in sequences)
        composed = composed_by_orders.get(key)
        if composed is None:
            composed = composed_by_orders[key] = \
                compose_outcomes(program, sequences)
        allowed = allowed_by_model.get(model)
        if allowed is None:
            allowed = allowed_by_model[model] = \
                allowed_outcomes(program, model)
        bad = composed - allowed
        if bad:
            violations.append({
                "cell": cell_name(program.name, model, policy),
                "model": model,
                "policy": policy,
                "outcomes": sorted(format_outcome(o) for o in bad),
                "witnesses": [w.to_dict() for w in witnesses],
            })
    return {"combos": len(grid) - len(failed), "violations": violations,
            "errors": errors}


def _run_program(payload: tuple, attempt: int) -> tuple:
    """Module-level pool task: verify one program (picklable)."""
    program_dict, lanes, faults_text = payload
    try:
        specs = faults.parse_fault_specs(faults_text)
        program = VerifyProgram.from_dict(program_dict)
        result = verify_program(program, lanes=lanes, fault_specs=specs,
                                attempt=attempt)
        return "ok", result
    except Exception as exc:
        return "error", exception_failure(exc, traceback.format_exc())


# -- checkpointing -----------------------------------------------------------

def default_checkpoint(seed: int, count: int) -> pathlib.Path:
    """``$REPRO_VERIFY_DIR``, else ``<repo>/benchmarks/verify``."""
    override = os.environ.get("REPRO_VERIFY_DIR")
    if override:
        root = pathlib.Path(override)
    else:
        repo_root = pathlib.Path(__file__).resolve().parents[3]
        root = (repo_root if (repo_root / "benchmarks").is_dir()
                else pathlib.Path.cwd()) / "benchmarks" / "verify"
    return root / f"campaign-s{seed}-n{count}.jsonl"


def _checkpoint_header(seed: int, count: int) -> dict:
    return {"seed": seed, "count": count, "version": CHECKPOINT_VERSION}


def _load_checkpoint(path: pathlib.Path, seed: int,
                     count: int) -> Dict[int, dict]:
    """Completed-program entries from an existing checkpoint; an
    unreadable, mismatched or stale file simply restarts the campaign."""
    try:
        lines = path.read_text().splitlines()
    except OSError:
        return {}
    if not lines:
        return {}
    try:
        header = json.loads(lines[0])
    except ValueError:
        return {}
    if header != _checkpoint_header(seed, count):
        return {}
    completed: Dict[int, dict] = {}
    for line in lines[1:]:
        try:
            entry = json.loads(line)
        except ValueError:
            continue                 # torn tail line from a hard kill
        if isinstance(entry, dict) and "index" in entry:
            completed[entry["index"]] = entry
    return completed


# -- the campaign ------------------------------------------------------------

@dataclass
class CampaignResult:
    """Everything one ``repro verify`` invocation established."""

    seed: int
    programs: int
    combos_per_program: int
    completed: int = 0
    resumed: int = 0             # programs skipped via checkpoint
    violations: List[dict] = field(default_factory=list)
    errors: List[dict] = field(default_factory=list)
    bundles: List[str] = field(default_factory=list)
    checkpoint: Optional[str] = None

    @property
    def ok(self) -> bool:
        return not self.violations and not self.errors

    def format(self) -> str:
        lines = [f"verify: seed={self.seed} programs={self.programs} "
                 f"combos={self.combos_per_program} "
                 f"resumed={self.resumed} violations="
                 f"{len(self.violations)} errors={len(self.errors)}"]
        for violation in self.violations:
            lines.append(f"  VIOLATION {violation['cell']}: "
                         + "; ".join(violation["outcomes"]))
        for error in self.errors:
            lines.append(f"  ERROR {error['cell']}: {error['error']}")
        for bundle in self.bundles:
            lines.append(f"  bundle: {bundle}")
        if self.checkpoint:
            lines.append(f"  checkpoint: {self.checkpoint}")
        return "\n".join(lines)


def run_campaign(seed: int, count: int, jobs: int = 1, lanes: int = 1,
                 timeout: Optional[float] = None,
                 checkpoint: Optional[os.PathLike] = None,
                 fresh: bool = False, minimise: bool = True,
                 faults_text: Optional[str] = None) -> CampaignResult:
    """Run (or resume) a campaign; returns the aggregated result.

    ``checkpoint=None`` uses :func:`default_checkpoint`.  ``fresh``
    discards any existing checkpoint.  ``minimise`` shrinks each
    violating program and writes a replayable violation bundle
    (:mod:`~repro.verify.minimise`).
    """
    if faults_text is None:
        faults_text = os.environ.get(faults.FAULT_ENV, "")
    faults.parse_fault_specs(faults_text)      # fail fast on bad grammar

    programs = generate_programs(seed, count)
    path = pathlib.Path(checkpoint) if checkpoint is not None \
        else default_checkpoint(seed, count)
    path.parent.mkdir(parents=True, exist_ok=True)
    if fresh:
        path.unlink(missing_ok=True)
    completed = _load_checkpoint(path, seed, count)
    # entries must describe the same programs (sha keys the content)
    for index, entry in list(completed.items()):
        if index >= len(programs) or \
                entry.get("sha") != program_sha(programs[index]):
            completed.clear()
            break

    result = CampaignResult(seed=seed, programs=count,
                            combos_per_program=len(combos()),
                            resumed=len(completed),
                            checkpoint=str(path))

    mode = "a" if completed else "w"
    handle = path.open(mode)
    if mode == "w":
        handle.write(json.dumps(_checkpoint_header(seed, count),
                                sort_keys=True) + "\n")
        handle.flush()

    for index, entry in sorted(completed.items()):
        result.violations.extend(entry.get("violations", []))
        result.errors.extend(entry.get("errors", []))

    # crash/hang faults exercise pool recovery; run in-process they
    # would kill this caller, so only pool payloads carry them
    payload_faults = faults.payload_faults(faults_text, jobs)
    tasks, task_index = [], {}
    for i in range(len(programs)):
        if i not in completed:
            task = TaskSpec(next_task_id(), f"verify/{programs[i].name}",
                            _run_program, (programs[i].to_dict(), lanes,
                                           payload_faults))
            tasks.append(task)
            task_index[task.task_id] = i

    def on_complete(task: TaskSpec, outcome) -> None:
        i = task_index[task.task_id]
        value = outcome.value if outcome.status is CellStatus.OK else {
            "errors": [{"cell": task.cell_id, "thread": None,
                        "error": outcome.failure.summary(),
                        "traceback": ""}]}
        entry = completed[i] = {
            "index": i, "name": programs[i].name,
            "sha": program_sha(programs[i]),
            "combos": value.get("combos", 0),
            "violations": value.get("violations", []),
            "errors": value.get("errors", [])}
        handle.write(json.dumps(entry, sort_keys=True) + "\n")
        handle.flush()
        result.completed += 1
        result.violations.extend(entry["violations"])
        result.errors.extend(entry["errors"])

    try:
        run_tasks(tasks, jobs, timeout=timeout, retries=1,
                  on_complete=on_complete)
    finally:
        handle.close()

    # clean completion: rewrite the checkpoint in canonical order so the
    # file is byte-identical across runs and parallelism levels
    if len(completed) == len(programs):
        lines = [json.dumps(_checkpoint_header(seed, count), sort_keys=True)]
        lines += [json.dumps(completed[i], sort_keys=True)
                  for i in sorted(completed)]
        tmp = path.with_name(path.name + f".tmp{os.getpid()}")
        tmp.write_text("\n".join(lines) + "\n")
        tmp.replace(path)

    if minimise and result.violations:
        from .minimise import minimise_and_bundle
        by_program: Dict[str, dict] = {}
        for violation in result.violations:
            by_program.setdefault(violation["cell"].split("/")[1],
                                  violation)
        for name, violation in by_program.items():
            program = next((p for p in programs if p.name == name), None)
            if program is None:
                continue
            try:
                bundle_path = minimise_and_bundle(
                    program, violation, lanes=lanes,
                    faults_text=faults.payload_faults(faults_text, 1))
                result.bundles.append(str(bundle_path))
            except Exception as exc:
                result.errors.append({
                    "cell": violation["cell"], "thread": None,
                    "error": f"minimisation failed: "
                             f"{type(exc).__name__}: {exc}",
                    "traceback": ""})
    return result
