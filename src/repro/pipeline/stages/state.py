"""Shared pipeline state: the in-flight map, queues, LSQ.

:class:`PipelineState` is the single structure every stage operates on.
It owns no stage logic — only the machine's architectural and
micro-architectural containers plus the helpers every stage needs
(completion scheduling, forward-progress stamping and the
speculative-stamp bookkeeping behind commit safety).
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

# the package, not its names: repro.commit's policies import
# pipeline.events, so repro.commit may still be initialising when this
# module is; make_commit_policy is read when a core is built
from ... import commit
from ...frontend import FetchUnit, make_predictor
from ...isa import DynInstr, Trace
from ...lsq import LSQUnit
from ...memory import MemoryHierarchy, TLB
from ...queues import CircularQueue, RandomQueue
from ...rename import RenameUnit
from ...scheduler import make_select_policy
from ..config import CoreConfig
from ..events import EventBus
from ..resources import FU_DECODE, FUPool, FUType
from ..stats import SimStats


class InflightOp:
    """Pipeline state of one dynamic instruction, from fetch to retire.
    ``seq`` is its own (a wrong-path op's ``dyn`` is shared); rename
    fills the slots from ``srcs_phys`` on (never on the wrong path)."""

    __slots__ = (
        "dyn", "seq", "mispredicted", "rob_entry", "iq_entry",
        "fu", "latency", "unpipelined",
        "producers_remaining", "data_remaining", "dependents",
        "in_iq", "issued_at", "completed", "performed",
        "translated", "addr_resolved", "fault_pending", "mem_nonspec",
        "spec_resolved", "committed", "zombie", "resources_released",
        "prev_writer", "exec_token", "wrong_path", "dispatch_stamp",
        "dispatched_at", "completed_at", "committed_at",
        "srcs_phys", "phys_dst", "prev_phys", "reads_outstanding",
        "prev_released")

    def __init__(self, dyn: DynInstr, seq: int, mispredicted: bool = False,
                 wrong_path: bool = False):
        self.dyn = dyn
        self.seq = seq
        self.mispredicted = mispredicted
        self.rob_entry: Optional[int] = None
        self.iq_entry: Optional[int] = None
        self.fu, self.unpipelined = FU_DECODE[dyn.op_class]
        #: FU latency under the dispatching core's config (stamped at
        #: dispatch; default for ops built outside a pipeline)
        self.latency = 1
        self.producers_remaining = 0
        self.data_remaining = 0           # stores: value operand
        self.dependents: List[Tuple["InflightOp", str]] = []
        self.in_iq = False
        self.issued_at: Optional[int] = None
        self.completed = False
        self.performed = False            # loads: data obtained
        self.translated = False           # memory ops: address translated
        self.addr_resolved = False        # stores: address known to LSQ
        self.fault_pending = False
        self.mem_nonspec = False          # loads: disambiguated
        self.spec_resolved = False        # SPEC bit cleared in the ROB
        self.committed = False
        self.zombie = False
        self.resources_released = False
        self.prev_writer: Optional[Tuple[int, Optional[int]]] = None
        self.exec_token = 0               # invalidates stale completions
        self.wrong_path = wrong_path
        self.dispatch_stamp = 0           # true dispatch (age) order
        self.dispatched_at: Optional[int] = None
        self.completed_at: Optional[int] = None
        self.committed_at: Optional[int] = None

    def __repr__(self) -> str:
        return (f"<Op #{self.seq} {self.dyn.opcode.mnemonic} "
                f"{'C' if self.completed else ''}"
                f"{'c' if self.committed else ''}>")


def wait_on(op: InflightOp, producers, kind: str) -> None:
    """Make ``op`` wait for the completion of every one of ``producers``.

    Each producer adds one count to ``op``'s completion counter
    (``producers_remaining`` for ``kind`` ``"op"``, ``data_remaining``
    for a store's ``"data"`` operand) and lists ``op`` among its
    ``dependents``; :meth:`WritebackStage.complete` walks that list and
    counts down.  A producer still in the IQ registers exactly like an
    issued one — the counter is the row of the paper's wakeup matrix
    (§3.4), so an IQ entry is ready once its counter reaches zero.
    """
    for producer in producers:
        if kind == "data":
            op.data_remaining += 1
        else:
            op.producers_remaining += 1
        producer.dependents.append((op, kind))


class MirroredReadySet(set):
    """A ready set that mirrors membership into a lane-stack bit plane.

    The cross-lane vectorized select kernel
    (:mod:`repro.pipeline.vectorstages`) reads every lane's ready set
    as one ``(lanes, iq_size)`` boolean plane.  This wrapper keeps the
    plane exact by construction: the only mutations any stage performs
    on ``ready_set`` are ``add`` and ``discard`` (never ``clear`` /
    ``pop`` / rebinding), and both are mirrored point-wise.  All read
    paths (membership, iteration, ``len``, truthiness) are the plain
    ``set`` ones — the scalar stage code is unchanged.
    """

    __slots__ = ("plane",)

    def __init__(self, plane: np.ndarray):
        super().__init__()
        self.plane = plane
        plane[...] = False

    def add(self, entry: int) -> None:
        set.add(self, entry)
        self.plane[entry] = True

    def discard(self, entry: int) -> None:
        set.discard(self, entry)
        self.plane[entry] = False


class PipelineState:
    """Everything the stages share, constructed from a trace + config."""

    def __init__(self, trace: Trace, config: CoreConfig,
                 bus: Optional[EventBus] = None, slot=None):
        if slot is not None and slot.iq_size != config.iq_size:
            raise ValueError(
                f"lane slot shape (iq={slot.iq_size}) does not match "
                f"config (iq={config.iq_size})")
        self.trace = trace
        self.config = config
        self.bus = bus if bus is not None else EventBus()
        self.stats = SimStats(name=f"{trace.name}/{config.name}/"
                                   f"{config.scheduler}+{config.commit}")
        self.rng = random.Random(config.seed)

        self.predictor = make_predictor(config.predictor)
        self.fetch = FetchUnit(trace, self.predictor, config.fetch_width,
                               config.redirect_penalty,
                               model_wrong_path=config.model_wrong_path)
        self.rename = RenameUnit(config.rf_size, config.rename_scheme)
        self.commit_policy = commit.make_commit_policy(config.commit)
        self.select_policy = make_select_policy(config.scheduler)

        # IQ: non-collapsible free list.  Readiness is each op's
        # completion counter (producers_remaining) and relative age its
        # order key — the wakeup and age matrices' answers, held per op
        if config.iq_org == "circ":
            self.iq_queue = CircularQueue(config.iq_size)
        else:
            self.iq_queue = RandomQueue(config.iq_size)
        self.iq_ops: Dict[int, InflightOp] = {}

        # ROB: non-collapsible (or, for in-order reclamation, circular)
        # entry pool.  ``spec_stamps`` holds the dispatch stamps of the
        # in-ROB speculative ops in dispatch order (insertion order is
        # stamp order), so its first key is the oldest speculative op —
        # the merged age/SPEC matrix's commit check as one comparison
        # (see :meth:`commit_safe`)
        if config.ooo_rob_release:
            self.rob_queue = RandomQueue(config.rob_size)
        else:
            self.rob_queue = CircularQueue(config.rob_size)
        self.spec_stamps: Dict[int, None] = {}

        self.lsq = LSQUnit(config.lq_size, config.sq_size,
                           config.store_buffer_size, tso=config.tso,
                           ldt_size=config.ldt_size)
        self.hierarchy = MemoryHierarchy(config.memory)
        self.tlb = TLB()
        self.fupool = FUPool({
            FUType.ALU: config.fu_alu,
            FUType.MULDIV: config.fu_muldiv,
            FUType.FPU: config.fu_fpu,
            FUType.LOAD: config.fu_load,
            FUType.STORE: config.fu_store,
        })

        # program-order window of uncommitted ops (seq -> op)
        self.window: Dict[int, InflightOp] = {}
        # all live ops, including committed-but-incomplete zombies
        self.ops: Dict[int, InflightOp] = {}
        self.zombies: Dict[int, InflightOp] = {}
        self.pending_release: Dict[int, InflightOp] = {}
        # the commit stage's working set: seqs of the correct-path,
        # uncommitted ops that have completed (a replayed load stays
        # until it retires or is squashed), kept sorted.  Seq order is
        # dispatch-stamp order here: a squash removes every younger
        # uncommitted op before the refetch restamps them.
        # ``commit_ready`` counts the members that are locally
        # committable, stores aside (only the SQ head may commit, and
        # commit checks that each cycle)
        self.commit_order: List[int] = []
        self.commit_ready = 0

        self.frontend_pipe: Deque[Tuple[int, InflightOp]] = deque()
        self.dispatch_buffer: Deque[InflightOp] = deque()
        # per-IQ-entry issue columns, written at dispatch: the
        # occupant's order key and FU type.  Select reads them through
        # their bound ``__getitem__``, so ranking an entry makes no
        # Python-level call; freed entries keep stale values, which
        # select never reads (it sees ready entries only).  With a lane
        # slot the columns are views into the lane stack and the ready
        # set mirrors into its issue_ready plane, so the vectorized
        # select kernel reads all lanes at once
        self.slot = slot
        if slot is None:
            self.ready_set: set = set()
            self.iq_stamp = [0] * config.iq_size
            self.iq_fu = [0] * config.iq_size
        else:
            self.ready_set = MirroredReadySet(slot.issue_ready)
            self.iq_stamp = slot.iq_stamp
            self.iq_stamp[...] = 0
            self.iq_fu = slot.iq_fu
            self.iq_fu[...] = 0
        self.completion_heap: List[Tuple[int, int, int]] = []
        self.mem_retry: List[InflightOp] = []
        # loads parked on a forwarding store whose data is not ready yet
        self.load_waiters: Dict[int, List[InflightOp]] = {}
        # loads parked until some older store resolves its address
        self.mem_wait: List[InflightOp] = []
        # simple memory dependence predictor: load PCs that violated
        # before stop speculating past unresolved stores (store sets)
        self.violated_load_pcs: set = set()
        # wrong-path instructions awaiting their synthetic operands
        self.wp_ready: List[Tuple[int, int]] = []

        self.last_writer: Dict[int, int] = {}
        self.active_fence: Optional[int] = None
        self.sb_busy_until = 0

        self.cycle = 0
        self.dispatch_counter = 0
        self.progress_cycle = 0
        # per-PC profile for the criticality tagger
        self.pc_l1_misses: Dict[int, int] = {}
        self.pc_mispredicts: Dict[int, int] = {}

    # -- helpers shared by every stage ---------------------------------

    def schedule_completion(self, op: InflightOp, when: int) -> None:
        op.exec_token += 1
        heapq.heappush(self.completion_heap, (when, op.seq, op.exec_token))

    def resolve_spec(self, op: InflightOp) -> None:
        """Clear the SPEC bit of a no-longer-speculative instruction."""
        if not op.spec_resolved:
            op.spec_resolved = True
            self.spec_stamps.pop(op.dispatch_stamp, None)

    def disambiguated(self, op: InflightOp) -> None:
        """A load became non-speculative (``mem_nonspec``): clear its
        SPEC bit, and count it committable if it already completed."""
        op.mem_nonspec = True
        self.resolve_spec(op)
        if op.completed:
            self.commit_ready += 1

    def leave_rob(self, op: InflightOp) -> None:
        """Free ``op``'s ROB entry (retire or squash); a still-set SPEC
        bit leaves with it."""
        self.rob_queue.free(op.rob_entry)
        self.spec_stamps.pop(op.dispatch_stamp, None)

    def commit_safe(self, stamp: int) -> bool:
        """True when no op older than dispatch stamp ``stamp`` is still
        speculative in the ROB (§3.2: ``NOR(age_row & SPEC)``).  An op's
        own SPEC bit does not block it, hence ``<=``."""
        spec = self.spec_stamps
        return not spec or stamp <= next(iter(spec))
