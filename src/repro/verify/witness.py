"""Pipeline-side ordering witness and cross-thread outcome composition.

The pipeline is a *timing* model replaying a functional trace — it
tracks addresses, not values, and each verification thread runs on its
own :class:`~repro.pipeline.core.O3Core` (there is no shared memory
system).  So differential checking works on *orderings*:

1. A :class:`WitnessSubscriber` rides a cell's event bus and records,
   per memory op, the cycles of its observable milestones — load
   perform (writeback completion), commit, store-buffer drain — plus
   store→load forwarding sources and §3.3 lockdown transfers.

2. :func:`apparent_order` converts those raw cycles into the thread's
   *apparent global-visibility order* under the target memory model,
   applying exactly the orderings the microarchitecture is supposed to
   guarantee (and, for TSO load→load, deducing from the witness
   *whether* each reordered load pair was actually protected — by LQ
   residency or by a witnessed lockdown).  An unprotected reorder keeps
   its raw cycles and thereby shows through to the checker.

3. :func:`compose_outcomes` merges the per-thread apparent sequences
   every possible way (memoized futures DFS — apparent cycles order
   events *within* a thread; across threads any interleaving is fair),
   binding forwarded loads to their store's value and memory loads to
   the memory image at their merge point.  The result is the set of
   outcomes consistent with what the pipeline actually did.  Like the
   oracle it searches on ints packed by
   :class:`~repro.verify.oracle.OutcomeCodec`.

A run is correct iff that composed set is a **subset** of the oracle's
allowed set (:mod:`~repro.verify.oracle`); any outcome outside it is a
consistency violation.

Modeling assumptions (documented in docs/INTERNALS.md):

* Store drains never observed in-run (the core's ``done()`` does not
  wait for the store buffer) are assigned apparent cycles after every
  observed event of their thread, in program order — sound, because
  apparent cycles only order events *within* a thread.
* A fence floors every later event of its thread at the maximum
  apparent cycle seen so far (the pipeline fence orders issue, not the
  store buffer; the floor is the architectural strengthening).
* Under TSO the drain gate ``max(drain, prior drains, prior loads)``
  enforces the load→store and store→store visibility order the store
  buffer provides on real hardware.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .generator import VerifyProgram
from .oracle import Outcome, OutcomeCodec

__all__ = ["AppEvent", "ThreadWitness", "WitnessSubscriber",
           "apparent_order", "compose_outcomes", "extract_witness"]


class WitnessSubscriber:
    """Event-bus subscriber recording one cell's memory milestones.

    ``drop_lockdown`` is the checker-side fault-injection hook: when
    set, witnessed §3.3 lockdown transfers are discarded (see the
    ``lockdown`` fault kind in :mod:`repro.testing.faults`).
    """

    def __init__(self, drop_lockdown: bool = False):
        self.drop_lockdown = drop_lockdown
        self.perform: Dict[int, int] = {}      # load seq -> cycle
        self.commit: Dict[int, int] = {}       # seq -> cycle
        self.release: Dict[int, int] = {}      # load seq -> LQ-free cycle
        self.drain: Dict[int, int] = {}        # store seq -> cycle
        self.forward: Dict[int, int] = {}      # load seq -> store seq
        self.pending_forward: Dict[int, int] = {}
        self.lockdown: Set[int] = set()

    # load completion IS perform in this pipeline (the CompleteEvent is
    # published just before the performed flag is set, so the witness
    # must not gate on it); a replay wipes the record and the re-issued
    # completion re-records it, last-wins.
    def on_complete(self, ev) -> None:
        op = ev.op
        if op.wrong_path or not op.dyn.is_load:
            return
        seq = op.seq
        self.perform[seq] = ev.cycle
        if seq in self.pending_forward:
            self.forward[seq] = self.pending_forward.pop(seq)
        else:
            self.forward.pop(seq, None)

    def on_commit(self, ev) -> None:
        self.commit[ev.op.seq] = ev.cycle

    def on_mem(self, ev) -> None:
        if ev.kind == "forward":
            self.pending_forward[ev.seq] = ev.src
        elif ev.kind == "drain":
            self.drain[ev.seq] = ev.cycle
        elif ev.kind == "lqfree":
            self.release[ev.seq] = ev.cycle
        elif ev.kind == "lockdown":
            self.release[ev.seq] = ev.cycle
            if not self.drop_lockdown:
                self.lockdown.add(ev.seq)

    def on_replay(self, ev) -> None:
        self.perform.pop(ev.seq, None)
        self.forward.pop(ev.seq, None)
        self.pending_forward.pop(ev.seq, None)

    def on_squash(self, ev) -> None:
        for op in ev.ops:
            seq = op.seq
            self.perform.pop(seq, None)
            self.commit.pop(seq, None)
            self.release.pop(seq, None)
            self.forward.pop(seq, None)
            self.pending_forward.pop(seq, None)
            self.lockdown.discard(seq)


@dataclass
class ThreadWitness:
    """One thread's extracted milestone record, keyed by op index."""

    perform: Dict[int, int] = field(default_factory=dict)
    commit: Dict[int, int] = field(default_factory=dict)
    release: Dict[int, int] = field(default_factory=dict)
    drain: Dict[int, int] = field(default_factory=dict)
    forward: Dict[int, int] = field(default_factory=dict)  # op idx -> value
    lockdown: Set[int] = field(default_factory=set)

    def to_dict(self) -> dict:
        return {"perform": dict(self.perform), "commit": dict(self.commit),
                "release": dict(self.release), "drain": dict(self.drain),
                "forward": dict(self.forward),
                "lockdown": sorted(self.lockdown)}


def extract_witness(subscriber: WitnessSubscriber,
                    program: VerifyProgram, thread: int,
                    seq_map: Dict[int, int]) -> ThreadWitness:
    """Re-key a subscriber's seq-indexed records by thread op index,
    resolving forwarding sources to the forwarding store's *value*."""
    ops = program.threads[thread]
    seq_to_op = {seq: i for i, seq in seq_map.items()}
    witness = ThreadWitness()
    for i, op in enumerate(ops):
        seq = seq_map[i]
        if op.kind == "load":
            if seq in subscriber.perform:
                witness.perform[i] = subscriber.perform[seq]
            if seq in subscriber.release:
                witness.release[i] = subscriber.release[seq]
            if seq in subscriber.forward:
                src = seq_to_op.get(subscriber.forward[seq])
                if src is not None and ops[src].kind == "store":
                    witness.forward[i] = ops[src].value
            if seq in subscriber.lockdown:
                witness.lockdown.add(i)
        elif op.kind == "store":
            if seq in subscriber.drain:
                witness.drain[i] = subscriber.drain[seq]
        if seq in subscriber.commit:
            witness.commit[i] = subscriber.commit[seq]
    return witness


# -- apparent order ----------------------------------------------------------

@dataclass(frozen=True)
class AppEvent:
    """One globally-visible event in a thread's apparent order."""

    apparent: int
    index: int                   # op index within the thread
    kind: str                    # "load" | "drain"
    addr: int
    value: Optional[int]         # drain: store value; load: forwarded
    #                            # value, or None = read memory at merge


def _tso_protected(index: int, ops, witness: ThreadWitness,
                   raw_perform: Dict[int, int]) -> bool:
    """Was load ``index``'s early perform protected against every older
    load it overtook?

    For each older load that performed *after* this one: covered if it
    performed while this load still held its LQ entry (the snoop/replay
    window — its perform precedes this load's witnessed LQ release), or
    if this load took a witnessed §3.3 lockdown at release.  Unprotected
    overtakes keep their raw order and show through to the checker.
    """
    mine = raw_perform.get(index)
    release = witness.release.get(index)
    for j in range(index):
        if ops[j].kind != "load":
            continue
        other = raw_perform.get(j)
        if mine is None or other is None or other <= mine:
            continue
        covered = (release is not None and other < release) \
            or index in witness.lockdown
        if not covered:
            return False
    return True


def apparent_order(program: VerifyProgram, thread: int,
                   witness: ThreadWitness, model: str) -> List[AppEvent]:
    """The thread's apparent global-visibility sequence under ``model``."""
    ops = program.threads[thread]

    # raw cycles; stores that never drained in-run are placed after
    # every observed event of the thread, in program order
    raw_perform = dict(witness.perform)
    raw_drain = dict(witness.drain)
    observed = list(raw_perform.values()) + list(raw_drain.values()) \
        + list(witness.commit.values())
    horizon = max(observed, default=0)
    for i, op in enumerate(ops):
        if op.kind == "load" and i not in raw_perform:
            horizon += 1                       # interrupted run: be sound
            raw_perform[i] = horizon
        elif op.kind == "store" and i not in raw_drain:
            horizon += 1
            raw_drain[i] = horizon

    events: List[AppEvent] = []
    floor = 0                                  # fence floor
    max_load = 0
    max_drain = 0
    max_all = 0
    drain_app: Dict[int, int] = {}             # addr -> latest drain apparent
    tso = model == "tso"
    for i, op in enumerate(ops):
        if op.kind == "fence":
            floor = max_all
            continue
        if op.kind == "load":
            value = witness.forward.get(i)
            apparent = max(raw_perform[i], floor)
            if value is None:
                # read-own-write coherence: a memory-reading load never
                # appears before a po-earlier same-address store of its
                # own thread (replayed loads lose their forwarding
                # witness, so the raw perform alone can predate the
                # drain it semantically read from).  A load with an
                # intact forward binding stays at its early perform:
                # reading the buffered store *before* it drains is the
                # store-buffer semantics, and hoisting it past the
                # drain would let the composition pair the forwarded
                # value with merge points where it is no longer the
                # latest write — a false violation.
                apparent = max(apparent, drain_app.get(op.addr, 0))
            if tso and _tso_protected(i, ops, witness, raw_perform):
                apparent = max(apparent, max_load)
            max_load = max(max_load, apparent)
            events.append(AppEvent(apparent, i, "load", op.addr, value))
        else:
            apparent = max(raw_drain[i], max_drain, floor)
            if tso:
                apparent = max(apparent, max_load)
            max_drain = max(max_drain, apparent)
            drain_app[op.addr] = apparent
            events.append(AppEvent(apparent, i, "drain", op.addr, op.value))
        max_all = max(max_all, apparent)
    events.sort(key=lambda e: (e.apparent, e.index))
    # A forwarded load hoisted past its source store's drain (by a
    # fence floor or a TSO load->load chain) reads memory at its merge
    # point instead of keeping the stale binding: at that apparent
    # position the source's value is in memory anyway, and had a
    # remote same-address write intervened the LQ snoop would have
    # replayed the load — pinning the old value would compose
    # coherence-violating outcomes a healthy machine cannot produce.
    # (Store values are unique per address, so (addr, value)
    # identifies the source drain.)
    drained: Set[Tuple[int, Optional[int]]] = set()
    for k, e in enumerate(events):
        if e.kind == "drain":
            drained.add((e.addr, e.value))
        elif e.value is not None and (e.addr, e.value) in drained:
            events[k] = AppEvent(e.apparent, e.index, e.kind, e.addr, None)
    return events


# -- cross-thread composition ------------------------------------------------

def compose_outcomes(program: VerifyProgram,
                     sequences: Sequence[List[AppEvent]]
                     ) -> FrozenSet[Outcome]:
    """Every outcome reachable by interleaving the threads' apparent
    sequences (order within a thread fixed, any merge across threads).

    Memoized futures DFS on (per-thread positions, memory image), with
    futures and states packed by the oracle's
    :class:`~repro.verify.oracle.OutcomeCodec`; the returned outcomes
    use the oracle's canonical form, so correctness is a subset test
    against :func:`~repro.verify.oracle.allowed_outcomes`.  Each
    sequence holds every load of its thread once, as
    :func:`apparent_order` builds it.
    """
    codec = OutcomeCodec(program)
    fmask = codec.field_mask
    index = codec.index
    threads = []
    shift = codec.bits                   # positions sit above the outcome
    for t, sequence in enumerate(sequences):
        moves = []
        for event in sequence:
            at = codec.addr_shift[event.addr]
            if event.kind == "drain":
                moves.append((True, ~(fmask << at), index[event.value] << at,
                              None))
            else:
                load_shift = codec.load_shift[(t, event.index)]
                # a forwarded load binds its source's value; None reads
                # memory at the merge point
                forwarded = None if event.value is None \
                    else index[event.value] << load_shift
                moves.append((False, at, load_shift, forwarded))
        width = len(moves).bit_length()
        threads.append((shift, (1 << width) - 1, 1 << shift, len(moves),
                        moves))
        shift += width
    outcome_mask = (1 << codec.bits) - 1

    memo: Dict[int, Set[int]] = {}

    def explore(state: int) -> Set[int]:
        cached = memo.get(state)
        if cached is not None:
            return cached
        futures: Set[int] = set()
        moved = False
        for shift, mask, step, length, moves in threads:
            pos = state >> shift & mask
            if pos >= length:
                continue
            moved = True
            drain, a, b, bound = moves[pos]
            if drain:
                futures |= explore((state & a | b) + step)
            else:
                if bound is None:
                    bound = (state >> a & fmask) << b
                futures.update([f | bound for f in explore(state + step)])
        if not moved:
            futures.add(state & outcome_mask)
        memo[state] = futures
        return futures

    finals = explore(0)
    memo.clear()                     # ``explore`` refers to itself
    return frozenset(map(codec.decode, finals))
