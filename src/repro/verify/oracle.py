"""Allowed-outcome oracles for TSO and RVWMO, by exhaustive exploration.

Independent of the pipeline: each oracle is a tiny operational model of
the memory consistency architecture, explored by a memoized depth-first
search over every nondeterministic scheduling choice.  An *outcome* is
the canonical pair

    (sorted ((thread, op_index), value) load bindings,
     final memory image over the program's address pool)

— exactly the form the witness composition in
:mod:`~repro.verify.witness` produces, so a pipeline run is correct iff
its outcome is a member of the oracle set.

**TSO model** — per-thread program counter plus a per-thread FIFO store
buffer.  A step either (a) executes the next instruction of some thread
(stores enter the buffer; loads forward from the youngest same-address
entry of *their own* buffer, else read memory; fences require the own
buffer to be empty) or (b) drains the oldest entry of some thread's
buffer to memory.  This is the standard operational presentation of
x86-/RISC-V-style TSO: loads are ordered, stores are ordered, and only
the store→load pair may appear reordered (through the buffer).

**RVWMO model** — each memory operation is picked individually, in any
order consistent with the few orderings RVWMO does enforce on plain
accesses: a load or store may not proceed past a po-earlier undone
fence; a store may not drain before a po-earlier same-address store;
and a load forced to forward takes the youngest po-earlier undrained
same-address store of its own thread (RVWMO's load-value axiom), else
reads memory.  Same-address load→load pairs don't occur (generator
grammar), so CoRR needs no special case.

Both searches memoize on (per-thread progress, memory image) and return
*futures* — the set of (bindings-made-after-here, final-memory) pairs —
so shared suffixes are explored once.  Program sizes are capped by the
generator grammar (≤3 threads × ≤8 memory ops), keeping the state space
a few thousand nodes.

**Packed representation.**  An :class:`OutcomeCodec` gives every
outcome of a program one int: each load owns a bit field holding the
index of the value it bound, each address a field holding the index of
its final value, in a value table of 0 followed by every store value.
A future is the OR of its fields, so a move that binds nothing merges
its child's futures with one set union and a load move ORs its field
into each of them; no tuple is built or hashed below the root.  The
search state is an int too, with the control fields above the outcome
fields: TSO keeps each thread's program counter and count of drained
stores (its buffer is exactly its issued, not yet drained stores, in
program order), RVWMO one done bit per op.  Per-op facts the search
asks in every state — what blocks an op, where a load must forward
from — are computed once per program.
"""

from __future__ import annotations

import json
from functools import lru_cache
from typing import Dict, FrozenSet, List, Set, Tuple

from .generator import VerifyProgram

__all__ = ["MODELS", "Outcome", "OutcomeCodec", "allowed_outcomes",
           "format_outcome"]

MODELS = ("rvwmo", "tso")

#: ``(((thread, op_index), value), ...) sorted`` × ``((addr, value), ...)``
Outcome = Tuple[Tuple[Tuple[Tuple[int, int], int], ...],
                Tuple[Tuple[int, int], ...]]


def format_outcome(outcome: Outcome) -> str:
    loads, memory = outcome
    reads = " ".join(f"r{t}.{i}={v}" for (t, i), v in loads)
    mem = " ".join(f"[{a:#x}]={v}" for a, v in memory)
    return f"{reads or '(no loads)'} | {mem}".strip()


class OutcomeCodec:
    """One int per outcome of ``program``.

    The value table is 0 followed by every store value of the program.
    Store values are program-unique, so whatever value a load binds,
    forwarded or read from memory, has an index — a table per address
    would turn a faulty binding into a ``KeyError`` instead of a
    violation.  Fields are ``width`` bits wide: one per load, in
    ``(thread, op_index)`` order from bit 0, then one per address of
    ``program.addrs``; ``bits`` is their total.  Searches keep their
    own state above ``bits``.
    """

    def __init__(self, program: VerifyProgram):
        values = [0]
        for ops in program.threads:
            values.extend(op.value for op in ops if op.kind == "store")
        self.values = tuple(values)
        #: value -> its index in the table
        self.index = {value: i for i, value in enumerate(values)}
        self.width = width = max(1, (len(values) - 1).bit_length())
        self.field_mask = (1 << width) - 1
        self.loads = tuple((t, i) for t, ops in enumerate(program.threads)
                           for i, op in enumerate(ops) if op.kind == "load")
        #: ``(thread, op_index)`` -> the shift of that load's field
        self.load_shift = {key: n * width for n, key in enumerate(self.loads)}
        self.addrs = program.addrs
        base = len(self.loads) * width
        #: address -> the shift of its final-value field
        self.addr_shift = {addr: base + k * width
                           for k, addr in enumerate(program.addrs)}
        self.bits = base + len(program.addrs) * width

    def decode(self, packed: int) -> Outcome:
        """The canonical :data:`Outcome` of a packed one."""
        values, mask, width = self.values, self.field_mask, self.width
        binds = []
        for key in self.loads:
            binds.append((key, values[packed & mask]))
            packed >>= width
        memory = []
        for addr in self.addrs:
            memory.append((addr, values[packed & mask]))
            packed >>= width
        return tuple(binds), tuple(memory)


# move kinds of the search tables below
_LOAD, _STORE, _FENCE = 0, 1, 2


# -- TSO ---------------------------------------------------------------------

def _tso_futures(program: VerifyProgram, codec: OutcomeCodec) -> Set[int]:
    fmask = codec.field_mask
    index = codec.index
    shift = codec.bits
    threads = []
    for t, ops in enumerate(program.threads):
        pc_shift, width = shift, len(ops).bit_length()
        drained_shift = pc_shift + width
        shift = drained_shift + width
        # moves[pc]: the op at pc; buffered_at[pc]: stores issued
        # before pc; drains[k]: the k-th store's memory write
        moves: List[tuple] = []
        buffered_at: List[int] = []
        drains: List[Tuple[int, int]] = []
        youngest: Dict[int, Tuple[int, int]] = {}  # addr -> (rank, value)
        for i, op in enumerate(ops):
            buffered_at.append(len(drains))
            if op.kind == "store":
                at = codec.addr_shift[op.addr]
                youngest[op.addr] = (len(drains), index[op.value])
                drains.append((~(fmask << at), index[op.value] << at))
                moves.append((_STORE,))
            elif op.kind == "load":
                load_shift = codec.load_shift[(t, i)]
                rank, value = youngest.get(op.addr, (-1, 0))
                moves.append((_LOAD, codec.addr_shift[op.addr], load_shift,
                              rank, value << load_shift))
            else:
                moves.append((_FENCE,))
        buffered_at.append(len(drains))
        threads.append((pc_shift, drained_shift, (1 << width) - 1,
                        1 << pc_shift, 1 << drained_shift, len(ops),
                        moves, buffered_at, drains))
    outcome_mask = (1 << codec.bits) - 1

    memo: Dict[int, Set[int]] = {}

    def explore(state: int) -> Set[int]:
        cached = memo.get(state)
        if cached is not None:
            return cached
        futures: Set[int] = set()
        moved = False
        for (pc_shift, drained_shift, mask, pc_step, drained_step, length,
             moves, buffered_at, drains) in threads:
            pc = state >> pc_shift & mask
            drained = state >> drained_shift & mask
            buffered = buffered_at[pc] > drained
            # (a) execute this thread's next instruction
            if pc < length:
                move = moves[pc]
                kind = move[0]
                if kind == _LOAD:
                    moved = True
                    _, at, load_shift, rank, forwarded = move
                    # the youngest same-address store forwards while it
                    # is still buffered; once it drained, so did every
                    # older one (FIFO), and the load reads memory
                    bound = forwarded if rank >= drained else \
                        (state >> at & fmask) << load_shift
                    futures.update([f | bound
                                    for f in explore(state + pc_step)])
                elif kind == _STORE or not buffered:
                    moved = True             # a fence waits for own drain
                    futures |= explore(state + pc_step)
            # (b) drain the oldest entry of this thread's buffer
            if buffered:
                moved = True
                clear, write = drains[drained]
                futures |= explore((state & clear | write) + drained_step)
        if not moved:
            futures.add(state & outcome_mask)
        memo[state] = futures
        return futures

    finals = explore(0)
    # ``explore`` refers to itself, so only the cyclic collector would
    # free it and the memo it holds: drop the memo now
    memo.clear()
    return finals


# -- RVWMO -------------------------------------------------------------------

def _rvwmo_futures(program: VerifyProgram, codec: OutcomeCodec) -> Set[int]:
    fmask = codec.field_mask
    index = codec.index
    # one done bit per op above the outcome fields; per op, the done
    # bits of the po-earlier ops that must be done before it performs
    moves: List[tuple] = []
    base = codec.bits
    for t, ops in enumerate(program.threads):
        for i, op in enumerate(ops):
            # fences order both ways; a store waits for every
            # po-earlier same-address access
            blocked = 0
            for j in range(i):
                prior = ops[j]
                if prior.kind == "fence" or op.kind == "fence" or (
                        op.kind == "store" and prior.addr == op.addr):
                    blocked |= 1 << base + j
            bit = 1 << base + i
            if op.kind == "store":
                at = codec.addr_shift[op.addr]
                moves.append((bit, blocked, _STORE, ~(fmask << at),
                              index[op.value] << at, 0, 0))
            elif op.kind == "load":
                load_shift = codec.load_shift[(t, i)]
                # the youngest po-earlier same-address store forwards
                # until it is done (RVWMO's load-value axiom)
                source, forwarded = 0, 0
                for j in range(i - 1, -1, -1):
                    prior = ops[j]
                    if prior.kind == "store" and prior.addr == op.addr:
                        source = 1 << base + j
                        forwarded = index[prior.value] << load_shift
                        break
                moves.append((bit, blocked, _LOAD, codec.addr_shift[op.addr],
                              load_shift, source, forwarded))
            else:
                moves.append((bit, blocked, _FENCE, 0, 0, 0, 0))
        base += len(ops)
    outcome_mask = (1 << codec.bits) - 1

    memo: Dict[int, Set[int]] = {}

    def explore(state: int) -> Set[int]:
        cached = memo.get(state)
        if cached is not None:
            return cached
        futures: Set[int] = set()
        moved = False
        for bit, blocked, kind, a, b, source, forwarded in moves:
            if state & bit or blocked & ~state:
                continue
            moved = True
            if kind == _LOAD:
                bound = forwarded if source and not state & source else \
                    (state >> a & fmask) << b
                futures.update([f | bound for f in explore(state | bit)])
            elif kind == _STORE:
                futures |= explore((state | bit) & a | b)
            else:                            # fence: pure ordering
                futures |= explore(state | bit)
        if not moved:
            futures.add(state & outcome_mask)
        memo[state] = futures
        return futures

    finals = explore(0)
    memo.clear()                     # see _tso_futures
    return finals


# -- public API --------------------------------------------------------------

_SEARCHES = {"tso": _tso_futures, "rvwmo": _rvwmo_futures}


@lru_cache(maxsize=256)
def _allowed_cached(model: str, blob: str) -> FrozenSet[Outcome]:
    search = _SEARCHES.get(model)
    if search is None:
        raise ValueError(f"unknown memory model {model!r}; "
                         f"choose from {MODELS}")
    program = VerifyProgram.from_dict(json.loads(blob))
    codec = OutcomeCodec(program)
    return frozenset(map(codec.decode, search(program, codec)))


def allowed_outcomes(program: VerifyProgram,
                     model: str) -> FrozenSet[Outcome]:
    """Every architecturally allowed outcome of ``program`` under
    ``model`` (``"tso"`` or ``"rvwmo"``)."""
    blob = json.dumps(program.to_dict(), sort_keys=True)
    return _allowed_cached(model, blob)
