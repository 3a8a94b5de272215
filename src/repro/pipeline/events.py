"""Instrumentation event bus: typed stage-boundary events.

Every pipeline stage reports what it did through a small set of typed
events — fetch, dispatch, issue, complete, commit, squash, replay,
stall — published on an :class:`EventBus`.  Consumers (the pipeline
timeline viewer, statistics replicas, the CLI event dump) subscribe to
the event types they care about; the stages themselves never know who
is listening.

The hot-loop contract is *pay only for what you watch*: emission sites
are guarded by ``bus.live[TYPE]``, a plain list-of-bools lookup, so a
core with no subscribers never constructs an event object.  The
``published`` counter exists so tests can assert that the
zero-subscriber fast path really publishes nothing.

The taxonomy is complete with respect to :class:`~.stats.SimStats`:
:class:`StatsSubscriber` rebuilds a field-by-field identical stats
record purely from the event stream, which is the regression test that
keeps the events honest as the model grows.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Callable, ClassVar, Deque, Dict, List, Optional, Tuple

from .stats import SimStats


class EventType(IntEnum):
    """Stage-boundary event kinds (indices into the bus's tables)."""

    FETCH = 0        # an instruction entered the frontend pipe
    DISPATCH = 1     # claimed ROB/IQ (and LQ/SQ/RF) entries
    ISSUE = 2        # left the IQ for a functional unit
    COMPLETE = 3     # produced its result / finished execution
    COMMIT = 4       # retired (possibly out of order, possibly zombie)
    SQUASH = 5       # a flush killed one or more in-flight instructions
    REPLAY = 6       # a violated load re-executed in place
    STALL = 7        # dispatch or commit made no progress this cycle
    SELECT = 8       # the issue-select logic arbitrated the ready set
    MEM = 9          # memory milestones: forwarding, order violations
    MATRIX = 10      # a matrix scheduler primitive fired (power model)
    CYCLE = 11       # per-cycle occupancy sample
    RUN_END = 12     # simulation finished; final derived statistics


@dataclass(frozen=True)
class FetchEvent:
    type: ClassVar[EventType] = EventType.FETCH
    cycle: int
    seq: int
    pc: int
    mispredicted: bool
    wrong_path: bool


@dataclass(frozen=True)
class DispatchEvent:
    type: ClassVar[EventType] = EventType.DISPATCH
    cycle: int
    op: object                       # the InflightOp; read immediately
    wrong_path: bool


@dataclass(frozen=True)
class IssueEvent:
    type: ClassVar[EventType] = EventType.ISSUE
    cycle: int
    op: object


@dataclass(frozen=True)
class CompleteEvent:
    type: ClassVar[EventType] = EventType.COMPLETE
    cycle: int
    op: object


@dataclass(frozen=True)
class CommitEvent:
    type: ClassVar[EventType] = EventType.COMMIT
    cycle: int
    op: object
    zombie: bool                     # retired before completing (VB/ECL)
    early_load: bool                 # load committed before performing


@dataclass(frozen=True)
class SquashEvent:
    type: ClassVar[EventType] = EventType.SQUASH
    cycle: int
    reason: str                      # "wrong_path" | "mem_order" | "exception"
    ops: Tuple[object, ...]          # victims, youngest first
    resume_seq: Optional[int] = None


@dataclass(frozen=True)
class ReplayEvent:
    type: ClassVar[EventType] = EventType.REPLAY
    cycle: int
    seq: int


@dataclass(frozen=True)
class DispatchStall:
    """Dispatch blocked; the stall is charged to exactly one resource —
    the first exhausted one blocking the oldest not-yet-dispatched
    instruction (``rob``/``iq``/``lq``/``sq``/``reg``)."""

    type: ClassVar[EventType] = EventType.STALL
    cycle: int
    resource: str
    first: bool                      # nothing dispatched this cycle


@dataclass(frozen=True)
class CommitStall:
    """Commit made no progress.  ``weight`` > 0 on the sampled cycles
    where the §2.2 ready-behind-head statistic was evaluated."""

    type: ClassVar[EventType] = EventType.STALL
    cycle: int
    weight: int = 0
    ready_not_head: bool = False
    rob_full: bool = False


@dataclass(frozen=True)
class SelectEvent:
    type: ClassVar[EventType] = EventType.SELECT
    cycle: int
    ready: int                       # size of the ready set
    width: int                       # issue width


@dataclass(frozen=True)
class MemEvent:
    """Memory milestones.  ``kind`` is one of:

    * ``"forward"`` — a load forwarded from an in-flight store
      (``src`` = the forwarding store's seq);
    * ``"violation"`` — a resolving store caught speculative loads;
    * ``"drain"`` — a committed store left the store buffer for the L1;
    * ``"lqfree"`` — a load released its LQ entry (the end of its
      snoop-protection window);
    * ``"lockdown"`` — the released load transferred a §3.3 lockdown to
      the LDT instead (TSO mode, older loads still unperformed).
    """

    type: ClassVar[EventType] = EventType.MEM
    cycle: int
    kind: str
    seq: int
    src: Optional[int] = None


@dataclass(frozen=True)
class MatrixEvent:
    """One matrix-scheduler primitive (feeds the circuit power model)."""

    type: ClassVar[EventType] = EventType.MATRIX
    cycle: int
    matrix: str                      # "mdm" | "rob"
    kind: str                        # "op" | "write" | "check"
    rows: int = 0


@dataclass(frozen=True)
class CycleEvent:
    type: ClassVar[EventType] = EventType.CYCLE
    cycle: int
    rob_occupancy: int
    iq_occupancy: int
    lq_occupancy: int
    rf_occupancy: int


@dataclass(frozen=True)
class RunEndEvent:
    type: ClassVar[EventType] = EventType.RUN_END
    cycle: int
    name: str
    memory: Dict[str, float] = field(default_factory=dict)
    predictor_accuracy: float = 1.0


#: ``(event type, subscriber method name)`` per type, in type order (an
#: enum's iteration and ``.name`` are Python-level calls, and every
#: verify cell builds a bus and attaches to it)
_HANDLER_NAMES = tuple((etype, f"on_{etype.name.lower()}")
                       for etype in EventType)


class EventBus:
    """Per-type subscriber lists with a zero-subscriber fast path.

    Emission sites are written ``if bus.live[TYPE]: bus.publish(...)``;
    ``live`` is a dense list of booleans indexed by :class:`EventType`,
    so an unwatched event type costs one list index and one branch.
    """

    __slots__ = ("_handlers", "live", "published")

    def __init__(self):
        self._handlers: List[List[Callable]] = [[] for _ in _HANDLER_NAMES]
        #: per-type "anyone listening?" flags (indexed by EventType)
        self.live: List[bool] = [False] * len(_HANDLER_NAMES)
        #: total events published (0 after a zero-subscriber run)
        self.published = 0

    def subscribe(self, etype: EventType, handler: Callable) -> None:
        """Register ``handler`` for ``etype``; handlers run in
        subscription order."""
        self._handlers[etype].append(handler)
        self.live[etype] = True

    def attach(self, subscriber) -> object:
        """Register an object exposing ``on_<event type>`` methods
        (e.g. ``on_commit``, ``on_squash``) for the matching types.
        Returns the subscriber, for chaining."""
        for etype, name in _HANDLER_NAMES:
            handler = getattr(subscriber, name, None)
            if handler is not None:
                self.subscribe(etype, handler)
        return subscriber

    def wants(self, etype: EventType) -> bool:
        return self.live[etype]

    def publish(self, event) -> None:
        self.published += 1
        for handler in self._handlers[event.type]:
            handler(event)


class StatsSubscriber:
    """Rebuilds :class:`SimStats` purely from the event stream.

    The live core keeps its counters inline (the zero-subscriber fast
    path must stay free), but this subscriber proves the event taxonomy
    is *complete*: attached to a run, it reproduces the core's stats
    field by field.  ``tests/test_events.py`` holds it to that.
    """

    def __init__(self):
        self.stats = SimStats()

    def on_fetch(self, ev: FetchEvent) -> None:
        if ev.mispredicted:
            self.stats.branch_mispredicts += 1

    def on_dispatch(self, ev: DispatchEvent) -> None:
        if ev.wrong_path:
            self.stats.wrong_path_dispatched += 1
            return
        self.stats.dispatched += 1
        self.stats.iq_writes += 1
        self.stats.rob_writes += 1
        self.stats.wakeup_writes += 1

    def on_issue(self, ev: IssueEvent) -> None:
        self.stats.issued += 1
        self.stats.wakeup_ops += 1

    def on_commit(self, ev: CommitEvent) -> None:
        self.stats.committed += 1
        if ev.early_load:
            self.stats.early_committed_loads += 1
        if ev.zombie:
            self.stats.zombie_commits += 1

    def on_squash(self, ev: SquashEvent) -> None:
        if ev.reason == "exception":
            self.stats.exceptions += 1

    def on_replay(self, ev: ReplayEvent) -> None:
        self.stats.load_replays += 1

    def on_stall(self, ev) -> None:
        if isinstance(ev, DispatchStall):
            setattr(self.stats, f"stall_{ev.resource}",
                    getattr(self.stats, f"stall_{ev.resource}") + 1)
            if ev.first:
                self.stats.full_window_stall_cycles += 1
            return
        self.stats.commit_stall_cycles += 1
        if ev.rob_full:
            self.stats.rob_full_commit_stall_cycles += ev.weight
        if ev.ready_not_head:
            self.stats.stalled_commit_ready_cycles += ev.weight
            if ev.rob_full:
                self.stats.full_window_commit_ready_cycles += ev.weight

    def on_select(self, ev: SelectEvent) -> None:
        self.stats.iq_select_ops += 1
        if ev.ready > ev.width:
            self.stats.ready_excess_cycles += 1

    def on_mem(self, ev: MemEvent) -> None:
        if ev.kind == "forward":
            self.stats.forwarded_loads += 1
        elif ev.kind == "violation":
            self.stats.mem_order_violations += 1
        elif ev.kind == "lockdown":
            self.stats.lockdowns += 1

    def on_matrix(self, ev: MatrixEvent) -> None:
        if ev.matrix == "mdm":
            if ev.kind == "op":
                self.stats.mdm_ops += 1
            else:
                self.stats.mdm_writes += 1
        elif ev.matrix == "rob" and ev.kind == "check":
            self.stats.rob_check_ops += 1
            self.stats.rob_check_rows += ev.rows

    def on_cycle(self, ev: CycleEvent) -> None:
        self.stats.cycles += 1
        self.stats.rob_occupancy_sum += ev.rob_occupancy
        self.stats.iq_occupancy_sum += ev.iq_occupancy
        self.stats.lq_occupancy_sum += ev.lq_occupancy
        self.stats.rf_occupancy_sum += ev.rf_occupancy

    def on_run_end(self, ev: RunEndEvent) -> None:
        self.stats.name = ev.name
        self.stats.memory = dict(ev.memory)
        self.stats.predictor_accuracy = ev.predictor_accuracy


class EventRecorder:
    """Keeps the first ``limit`` events (formatted) plus per-type
    counts; backs the CLI ``--events`` dump."""

    def __init__(self, limit: int = 200):
        self.limit = limit
        self.lines: List[str] = []
        self.counts: Dict[str, int] = {}
        self.truncated = False

    def _record(self, ev) -> None:
        name = EventType(ev.type).name
        self.counts[name] = self.counts.get(name, 0) + 1
        if ev.type is EventType.CYCLE:
            return                   # counted, but far too hot to print
        if len(self.lines) >= self.limit:
            self.truncated = True
            return
        fields = ", ".join(f"{k}={self._fmt(v)}"
                           for k, v in vars(ev).items() if k != "cycle")
        self.lines.append(f"[{ev.cycle:6d}] {name:8s} {fields}")

    @staticmethod
    def _fmt(value) -> str:
        if isinstance(value, tuple):
            return f"<{len(value)} ops>"
        return str(value)

    # one handler per type so EventBus.attach picks them all up
    on_fetch = on_dispatch = on_issue = on_complete = _record
    on_commit = on_squash = on_replay = on_stall = _record
    on_select = on_mem = on_matrix = on_cycle = on_run_end = _record

    def format(self) -> str:
        total = sum(self.counts.values())
        header = [f"event dump ({total} events"
                  + (f", first {self.limit} shown" if self.truncated
                     else "") + ")"]
        histogram = ["  " + "  ".join(
            f"{name}={count}" for name, count in sorted(self.counts.items()))]
        return "\n".join(header + histogram + self.lines)


class EventTail:
    """Ring buffer of the *last* ``limit`` events (formatted).

    The crash-diagnostic path attaches one during its instrumented
    re-run of a failing cell, so a crash bundle carries the event
    stream leading *into* the failure — :class:`EventRecorder` keeps
    the first N, which for a crash at cycle 400k is useless.  CYCLE
    events are counted but not kept (far too hot, zero diagnostic
    value).
    """

    def __init__(self, limit: int = 64):
        self.limit = limit
        self.lines: Deque[str] = deque(maxlen=limit)
        self.counts: Dict[str, int] = {}

    def _record(self, ev) -> None:
        name = EventType(ev.type).name
        self.counts[name] = self.counts.get(name, 0) + 1
        if ev.type is EventType.CYCLE:
            return
        fields = ", ".join(f"{k}={EventRecorder._fmt(v)}"
                           for k, v in vars(ev).items() if k != "cycle")
        self.lines.append(f"[{ev.cycle:6d}] {name:8s} {fields}")

    # one handler per type so EventBus.attach picks them all up
    on_fetch = on_dispatch = on_issue = on_complete = _record
    on_commit = on_squash = on_replay = on_stall = _record
    on_select = on_mem = on_matrix = on_cycle = on_run_end = _record

    def tail(self) -> List[str]:
        return list(self.lines)
