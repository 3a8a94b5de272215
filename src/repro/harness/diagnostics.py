"""Crash-diagnostic bundles: capture, persist, and replay failures.

When a cell dies with an in-worker exception (including
:class:`~repro.pipeline.DeadlockError`), the worker builds a *crash
bundle*: everything needed to reproduce the failure from the bundle
alone —

* the full config fingerprint (every ``CoreConfig`` field, nested
  hierarchy config and latency table included) plus the profile
  config's fingerprint for criticality cells,
* the workload name, scale, seeded generation parameters and the
  config's RNG seed,
* the exception type, message and traceback,
* a *diagnostic re-run*: the cell is executed once more with an
  :class:`~repro.pipeline.EventTail` attached, so the bundle carries
  the last-cycle pipeline snapshot (:meth:`O3Core.snapshot`) and the
  tail of the event stream leading into the failure.  The healthy
  first run pays nothing for this — instrumentation only exists on
  the re-run of an already-failed cell.

Bundles are JSON files under ``benchmarks/crash/`` (override with
``$REPRO_CRASH_DIR``), written by the *parent* so concurrent workers
never race on names.  ``repro replay <bundle>`` (or
:func:`replay_bundle`) rebuilds the config via
:func:`config_from_fingerprint`, re-simulates — profile stage
included — and reports whether the same failure reproduces.

``crash``/``hang`` faults never produce bundles (the worker dies or
is killed before it can build one); replay therefore only re-applies
``explode`` faults from the recorded fault programme.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..envutil import env_int
from ..isa import OpClass
from ..memory import HierarchyConfig
from ..pipeline import ENGINE_VERSION, CoreConfig, EventTail, O3Core
from ..testing import faults
from ..workloads import build_trace, generation_params
from .cache import config_fingerprint

#: crash-bundle schema revision
BUNDLE_FORMAT = 1

#: events kept in a bundle's tail
EVENT_TAIL = 64

#: bundles retained per crash directory (override: $REPRO_CRASH_KEEP)
CRASH_KEEP = 50

_evict_warned: set = set()          # crash dirs already warned about


def _crash_keep() -> int:
    return env_int("REPRO_CRASH_KEEP", CRASH_KEEP)


def _evict_old_bundles(root: pathlib.Path) -> None:
    """Cap the crash directory: keep the ``$REPRO_CRASH_KEEP`` newest
    ``crash-*.json`` bundles, evict the rest oldest-first.  Long
    fault-injection campaigns otherwise grow the directory without
    bound.  Warns (once per directory per process) when eviction
    starts."""
    import sys
    keep = _crash_keep()
    if keep <= 0:
        return
    bundles = sorted(root.glob("crash-*.json"),
                     key=lambda p: (p.stat().st_mtime, p.name))
    excess = bundles[:-keep] if len(bundles) > keep else []
    if excess and str(root) not in _evict_warned:
        _evict_warned.add(str(root))
        print(f"warning: {root} holds more than {keep} crash bundles; "
              f"evicting oldest (raise $REPRO_CRASH_KEEP to keep more)",
              file=sys.stderr)
    for path in excess:
        try:
            path.unlink()
        except OSError:
            pass                     # concurrent eviction: already gone


def default_crash_dir() -> pathlib.Path:
    """``$REPRO_CRASH_DIR``, else ``<repo>/benchmarks/crash``."""
    override = os.environ.get("REPRO_CRASH_DIR")
    if override:
        return pathlib.Path(override)
    repo_root = pathlib.Path(__file__).resolve().parents[3]
    if (repo_root / "benchmarks").is_dir():
        return repo_root / "benchmarks" / "crash"
    return pathlib.Path.cwd() / "benchmarks" / "crash"


def config_from_fingerprint(fingerprint: Dict[str, object]) -> CoreConfig:
    """Rebuild a :class:`CoreConfig` from its cache fingerprint
    (inverse of :func:`repro.harness.cache.config_fingerprint`)."""
    data = dict(fingerprint)
    latencies = data.get("latencies") or {}
    data["latencies"] = {OpClass[name]: value
                         for name, value in latencies.items()}
    memory = data.get("memory") or {}
    data["memory"] = HierarchyConfig(**memory)
    return CoreConfig(**data)


# -- capture ---------------------------------------------------------------

def _error_record(exc: BaseException, tb: str) -> Dict[str, str]:
    return {"type": type(exc).__name__, "message": str(exc),
            "traceback": tb}


def _instrumented_run(config: CoreConfig, workload: str, scale: float,
                      profile, cell_id: str, attempt: int,
                      fault_specs) -> Tuple[Optional[O3Core],
                                            Optional[EventTail],
                                            Optional[BaseException]]:
    """Run the cell once with an event tail attached; return the core
    (post-mortem inspectable), the tail, and the exception if any."""
    from ..criticality import CriticalityTagger, clear_tags
    trace = build_trace(workload, scale)
    core: Optional[O3Core] = None
    tail = EventTail(limit=EVENT_TAIL)
    tagged = False
    try:
        if profile is not None:
            tagger = CriticalityTagger()
            tagger.feed_profile(profile[0], profile[1])
            tagged = True
            tagger.tag(trace)
        core = O3Core(trace, config)
        core.bus.attach(tail)
        exploder = faults.explode_subscriber(fault_specs, cell_id, attempt)
        if exploder is not None:
            core.bus.attach(exploder)
        core.run()
        return core, tail, None
    except Exception as exc:
        return core, tail, exc
    finally:
        if tagged:
            clear_tags(trace)


def build_crash_bundle(*, label: str, config: CoreConfig, workload: str,
                       scale: float, exc: BaseException, tb: str,
                       profile=None,
                       profile_config: Optional[CoreConfig] = None,
                       attempt: int = 1, faults_text: str = "",
                       diagnose: bool = True) -> dict:
    """Build the bundle payload (a JSON-able dict) for one failure.

    Runs in the worker; the parent writes the file.  ``diagnose=False``
    skips the instrumented re-run (used when the first run already ran
    long enough that repeating it is unreasonable).
    """
    cell_id = f"{label}/{workload}"
    try:
        params = generation_params(workload, scale)
    except ValueError:
        params = {}
    bundle = {
        "format": BUNDLE_FORMAT,
        "cell": cell_id,
        "label": label,
        "workload": workload,
        "scale": scale,
        "params": params,
        "seed": config.seed,
        "engine": ENGINE_VERSION,
        "config": config_fingerprint(config),
        "profile_config": (config_fingerprint(profile_config)
                           if profile_config is not None else None),
        "faults": faults_text,
        "attempt": attempt,
        "error": _error_record(exc, tb),
        "diagnostic": None,
    }
    if not diagnose:
        return bundle
    try:
        fault_specs = faults.parse_fault_specs(faults_text)
        core, tail, exc2 = _instrumented_run(
            config, workload, scale, profile, cell_id, attempt, fault_specs)
        bundle["diagnostic"] = {
            "reproduced": (exc2 is not None
                           and type(exc2).__name__ == type(exc).__name__),
            "error": (_error_record(exc2, "") if exc2 is not None else None),
            "snapshot": core.snapshot() if core is not None else None,
            "events": tail.tail() if tail is not None else [],
        }
    except Exception as diag_exc:       # diagnostics must never mask
        bundle["diagnostic"] = {        # the original failure
            "reproduced": False,
            "error": {"type": type(diag_exc).__name__,
                      "message": f"diagnostic re-run failed: {diag_exc}",
                      "traceback": ""},
            "snapshot": None,
            "events": [],
        }
    return bundle


def write_bundle(bundle: dict,
                 crash_dir: Optional[os.PathLike] = None) -> pathlib.Path:
    """Persist a bundle under the crash directory; returns the path.

    The name is content-addressed (cell slug + payload hash) so
    re-running the same failing campaign overwrites rather than
    accumulates, and concurrent suites never collide.
    """
    root = pathlib.Path(crash_dir) if crash_dir is not None \
        else default_crash_dir()
    root.mkdir(parents=True, exist_ok=True)
    blob = json.dumps(bundle, sort_keys=True)
    digest = hashlib.sha256(blob.encode("utf-8")).hexdigest()[:10]
    slug = bundle.get("cell", "cell").replace("/", "-").replace(" ", "_")
    path = root / f"crash-{slug}-{digest}.json"
    tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
    tmp.write_text(json.dumps(bundle, indent=2, sort_keys=True))
    tmp.replace(path)
    _evict_old_bundles(root)
    return path


def load_bundle(path: os.PathLike) -> dict:
    data = json.loads(pathlib.Path(path).read_text())
    if not isinstance(data, dict) or "config" not in data:
        raise ValueError(f"{path}: not a crash bundle")
    return data


# -- replay ----------------------------------------------------------------

@dataclass
class ReplayReport:
    """Outcome of re-running a crash bundle's cell."""

    cell: str
    expected: Dict[str, str]
    observed: Optional[Dict[str, str]] = None
    reproduced: bool = False
    snapshot: Optional[dict] = None
    events: List[str] = field(default_factory=list)
    committed: Optional[int] = None      # set when the replay finished

    def format(self, events: int = 12) -> str:
        lines = [f"replay {self.cell}",
                 f"  expected: {self.expected['type']}: "
                 f"{self.expected['message']}"]
        if self.observed is not None:
            lines.append(f"  observed: {self.observed['type']}: "
                         f"{self.observed['message']}")
        else:
            lines.append(f"  observed: run completed "
                         f"({self.committed} committed)")
        lines.append("  verdict:  " + ("REPRODUCED" if self.reproduced
                                       else "NOT-REPRODUCED"))
        if self.snapshot is not None:
            snap = self.snapshot
            lines.append(
                f"  pipeline: cycle {snap['cycle']} "
                f"(progress {snap['progress_cycle']}), "
                f"ROB {snap['rob_occupancy']} IQ {snap['iq_occupancy']} "
                f"LQ {snap['lq_occupancy']}, "
                f"{snap['committed']} committed")
            for op in snap.get("window_head", []):
                state = ("committed" if op["committed"] else
                         "completed" if op["completed"] else
                         "issued" if op["issued"] else "waiting")
                lines.append(f"    #{op['seq']} pc={op['pc']} "
                             f"{op['op_class']:8s} {state}")
        if self.events:
            lines.append(f"  last {min(events, len(self.events))} events:")
            lines.extend(f"    {line}" for line in self.events[-events:])
        return "\n".join(lines)


def replay_bundle(path_or_bundle) -> ReplayReport:
    """Re-run a bundle's cell from its recorded fingerprints alone."""
    bundle = path_or_bundle if isinstance(path_or_bundle, dict) \
        else load_bundle(path_or_bundle)
    config = config_from_fingerprint(bundle["config"])
    workload, scale = bundle["workload"], bundle["scale"]
    cell_id = bundle.get("cell", f"?/{workload}")
    attempt = bundle.get("attempt", 1)
    fault_specs = faults.parse_fault_specs(bundle.get("faults", ""))

    profile = None
    if bundle.get("profile_config") is not None:
        profile_config = config_from_fingerprint(bundle["profile_config"])
        profiler = O3Core(build_trace(workload, scale), profile_config)
        profiler.run()
        profile = (dict(profiler.pc_l1_misses),
                   dict(profiler.pc_mispredicts))

    core, tail, exc = _instrumented_run(
        config, workload, scale, profile, cell_id, attempt, fault_specs)
    report = ReplayReport(cell=cell_id, expected=bundle["error"])
    report.snapshot = core.snapshot() if core is not None else None
    report.events = tail.tail() if tail is not None else []
    if exc is not None:
        report.observed = _error_record(exc, "")
        report.reproduced = (report.observed["type"]
                             == bundle["error"]["type"])
    else:
        report.committed = core.stats.committed if core is not None else 0
    return report
