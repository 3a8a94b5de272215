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
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from .generator import MemOp, VerifyProgram

__all__ = ["MODELS", "Outcome", "allowed_outcomes", "format_outcome"]

MODELS = ("rvwmo", "tso")

#: ``(((thread, op_index), value), ...) sorted`` × ``((addr, value), ...)``
Outcome = Tuple[Tuple[Tuple[Tuple[int, int], int], ...],
                Tuple[Tuple[int, int], ...]]

Binding = Tuple[Tuple[int, int], int]
Future = Tuple[Tuple[Binding, ...], Tuple[int, ...]]


def format_outcome(outcome: Outcome) -> str:
    loads, memory = outcome
    reads = " ".join(f"r{t}.{i}={v}" for (t, i), v in loads)
    mem = " ".join(f"[{a:#x}]={v}" for a, v in memory)
    return f"{reads or '(no loads)'} | {mem}".strip()


def _canonical(bindings: Tuple[Binding, ...],
               memory: Tuple[int, ...],
               addrs: Tuple[int, ...]) -> Outcome:
    return (tuple(sorted(bindings)),
            tuple(zip(addrs, memory)))


# -- TSO ---------------------------------------------------------------------

def _tso_outcomes(program: VerifyProgram) -> Set[Outcome]:
    threads = program.threads
    addrs = program.addrs
    addr_index = {a: i for i, a in enumerate(addrs)}
    n = len(threads)
    init_mem = tuple(0 for _ in addrs)

    memo: Dict[Tuple, FrozenSet[Future]] = {}

    def explore(pcs: Tuple[int, ...],
                buffers: Tuple[Tuple[Tuple[int, int], ...], ...],
                memory: Tuple[int, ...]) -> FrozenSet[Future]:
        key = (pcs, buffers, memory)
        cached = memo.get(key)
        if cached is not None:
            return cached
        futures: Set[Future] = set()
        moved = False
        for t in range(n):
            ops = threads[t]
            buf = buffers[t]
            # (a) execute this thread's next instruction
            if pcs[t] < len(ops):
                op = ops[pcs[t]]
                if op.kind == "fence" and buf:
                    pass                     # fence waits for own drain
                else:
                    moved = True
                    pcs2 = pcs[:t] + (pcs[t] + 1,) + pcs[t + 1:]
                    if op.kind == "store":
                        buf2 = buffers[:t] + (buf + ((op.addr, op.value),),) \
                            + buffers[t + 1:]
                        for sub in explore(pcs2, buf2, memory):
                            futures.add(sub)
                    elif op.kind == "load":
                        value = None
                        for a, v in reversed(buf):
                            if a == op.addr:
                                value = v
                                break
                        if value is None:
                            value = memory[addr_index[op.addr]]
                        bind = ((t, pcs[t]), value)
                        for binds, final in explore(pcs2, buffers, memory):
                            futures.add(((bind,) + binds, final))
                    else:                    # fence, buffer empty
                        for sub in explore(pcs2, buffers, memory):
                            futures.add(sub)
            # (b) drain the oldest entry of this thread's buffer
            if buf:
                moved = True
                addr, value = buf[0]
                buf2 = buffers[:t] + (buf[1:],) + buffers[t + 1:]
                i = addr_index[addr]
                mem2 = memory[:i] + (value,) + memory[i + 1:]
                for sub in explore(pcs, buf2, mem2):
                    futures.add(sub)
        if not moved:
            futures.add(((), memory))
        result = frozenset(futures)
        memo[key] = result
        return result

    finals = explore(tuple(0 for _ in range(n)),
                     tuple(() for _ in range(n)), init_mem)
    # ``explore`` refers to itself, so only the cyclic collector would
    # free it and the memo it holds: drop the memo now
    memo.clear()
    return {_canonical(binds, mem, addrs) for binds, mem in finals}


# -- RVWMO -------------------------------------------------------------------

def _rvwmo_outcomes(program: VerifyProgram) -> Set[Outcome]:
    threads = program.threads
    addrs = program.addrs
    addr_index = {a: i for i, a in enumerate(addrs)}
    n = len(threads)
    init_mem = tuple(0 for _ in addrs)

    # done-state per thread: a bitmask over that thread's ops
    memo: Dict[Tuple, FrozenSet[Future]] = {}

    def ready(t: int, i: int, done: int) -> bool:
        """May op i of thread t perform now, given its thread's done set?"""
        ops = threads[t]
        op = ops[i]
        for j in range(i):
            prior = ops[j]
            if done >> j & 1:
                continue
            if prior.kind == "fence":
                return False                 # fence orders everything
            if op.kind == "fence":
                return False                 # ...in both directions
            if op.kind == "store" and prior.kind in ("store", "load") \
                    and prior.addr == op.addr:
                return False                 # PPO: same-addr any→W
        return True

    def forward_value(t: int, i: int, done: int) -> Optional[int]:
        """Youngest po-earlier undrained same-address store, if any."""
        ops = threads[t]
        addr = ops[i].addr
        for j in range(i - 1, -1, -1):
            prior = ops[j]
            if prior.kind == "store" and prior.addr == addr:
                if done >> j & 1:
                    return None              # already in memory
                return prior.value           # must forward (load-value axiom)
        return None

    def explore(done: Tuple[int, ...],
                memory: Tuple[int, ...]) -> FrozenSet[Future]:
        key = (done, memory)
        cached = memo.get(key)
        if cached is not None:
            return cached
        futures: Set[Future] = set()
        moved = False
        for t in range(n):
            ops = threads[t]
            mask = done[t]
            for i, op in enumerate(ops):
                if mask >> i & 1 or not ready(t, i, mask):
                    continue
                moved = True
                done2 = done[:t] + (mask | 1 << i,) + done[t + 1:]
                if op.kind == "store":
                    k = addr_index[op.addr]
                    mem2 = memory[:k] + (op.value,) + memory[k + 1:]
                    for sub in explore(done2, mem2):
                        futures.add(sub)
                elif op.kind == "load":
                    value = forward_value(t, i, mask)
                    if value is None:
                        value = memory[addr_index[op.addr]]
                    bind = ((t, i), value)
                    for binds, final in explore(done2, memory):
                        futures.add(((bind,) + binds, final))
                else:                        # fence: pure ordering
                    for sub in explore(done2, memory):
                        futures.add(sub)
        if not moved:
            futures.add(((), memory))
        result = frozenset(futures)
        memo[key] = result
        return result

    finals = explore(tuple(0 for _ in range(n)), init_mem)
    memo.clear()                     # see _tso_outcomes
    return {_canonical(binds, mem, addrs) for binds, mem in finals}


# -- public API --------------------------------------------------------------

@lru_cache(maxsize=256)
def _allowed_cached(model: str, blob: str) -> FrozenSet[Outcome]:
    import json
    program = VerifyProgram.from_dict(json.loads(blob))
    if model == "tso":
        return frozenset(_tso_outcomes(program))
    if model == "rvwmo":
        return frozenset(_rvwmo_outcomes(program))
    raise ValueError(f"unknown memory model {model!r}; choose from {MODELS}")


def allowed_outcomes(program: VerifyProgram,
                     model: str) -> FrozenSet[Outcome]:
    """Every architecturally allowed outcome of ``program`` under
    ``model`` (``"tso"`` or ``"rvwmo"``)."""
    import json
    blob = json.dumps(program.to_dict(), sort_keys=True)
    return _allowed_cached(model, blob)
