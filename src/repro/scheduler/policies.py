"""Issue selection policies (paper §2.1, §3.1, Figure 13, Figure 14).

All policies answer the same question each cycle: given the set of
ready IQ entries, the per-type functional unit availability and the
issue width IW, which instructions issue?

Relative age comes from one per-entry **order key**, stamped at
dispatch (:func:`order_key`): the dispatch stamp, shifted below every
non-critical key when criticality tags the instruction.  Ranking ready
entries by that key is exactly the order the paper's IQ age matrix
encodes (§3.1, Figure 3's critical insert included), so the policies
rank by key instead of sensing an IQ-sized matrix;
``tests/test_scheduler.py`` checks every policy's grant list and rng
draws against selection over a real :class:`~repro.core.AgeMatrix`.

* ``RandomSelect`` — RAND: no age information at all.
* ``AgeSelect`` — AGE (state of the art): the single oldest ready
  instruction is prioritized; the remaining issue slots are filled
  without regard to age.
* ``MultSelect`` — MULT: one age matrix per instruction type; the
  single oldest ready instruction *of each type* is prioritized,
  the rest filled randomly.
* ``OrinocoSelect`` — the contribution: the bit count encoding grants
  up to IW oldest ready instructions, arbitrated per execution-unit
  type under the partial ordering of Figure 13.
* ``IdealSelect`` — an oracle that sorts by true age; provably
  equivalent to ``OrinocoSelect`` (property-tested), and the selection
  a collapsible SHIFT queue would make positionally.

CRI (criticality scheduling) is not a separate selector: criticality is
encoded at dispatch into the order key (critical instructions rank as
"older"), after which ``OrinocoSelect`` or ``AgeSelect`` run
unchanged — exactly the paper's design.
"""

from __future__ import annotations

import abc
import random
from typing import Callable, Dict, List, Sequence

from ..pipeline.resources import FUType

#: Order-key offset of criticality-tagged instructions: larger than any
#: dispatch stamp, so every critical key ranks below (older than) every
#: non-critical one while each group keeps dispatch order.  Keys stay
#: within int64 (the lane engine's ``iq_stamp`` plane).
CRITICAL_SHIFT = 1 << 62


def order_key(stamp: int, critical: bool) -> int:
    """Rank of an instruction dispatched with ``stamp``: lower is older."""
    return stamp - CRITICAL_SHIFT if critical else stamp


class SelectContext:
    """What a policy may look at when selecting.

    ``entries`` are the ready IQ entry indices, in ascending order.
    ``fu_of`` maps an entry to its FU type, ``age_of`` to its dispatch
    order (oracle — only IdealSelect uses it) and ``priority_of`` to
    its order key (:func:`order_key`).
    """

    def __init__(self, entries: Sequence[int], fu_of: Callable[[int], FUType],
                 age_of: Callable[[int], int],
                 priority_of: Callable[[int], int],
                 fu_available, width: int, rng: random.Random):
        self.entries = list(entries)
        self.fu_of = fu_of
        self.age_of = age_of
        self.priority_of = priority_of
        # flat per-type list indexed by FUType (what FUPool hands over);
        # a dict (convenient in tests) is normalised here once.  The
        # policies never mutate it — they copy before decrementing — so
        # hold the reference
        if isinstance(fu_available, dict):
            vec = [0] * len(FUType)
            for fu, count in fu_available.items():
                vec[fu] = count
            fu_available = vec
        self.fu_available = fu_available
        self.width = width
        self.rng = rng


def shuffle(items: List, getrandbits: Callable[[int], int]) -> None:
    """Shuffle ``items`` in place, drawing exactly what
    ``random.Random.shuffle`` draws.

    ``getrandbits`` is the generator's bound ``getrandbits``.  This is
    CPython's algorithm (3.10–3.13): for each ``i`` from ``len - 1``
    down to 1, draw ``(i + 1).bit_length()`` bits until the value is at
    most ``i``, then swap ``items[i]`` with that position.  The draws
    are C calls; ``rng.shuffle`` makes a Python-level ``_randbelow``
    call per item.
    """
    for i in range(len(items) - 1, 0, -1):
        k = (i + 1).bit_length()
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
        items[i], items[j] = items[j], items[i]


def _fill_greedy(granted: List[int], candidates: Sequence[int],
                 fu_of: Callable[[int], FUType], fu_available,
                 width: int) -> List[int]:
    """Grant candidates in the given order subject to constraints."""
    avail = list(fu_available)
    for entry in granted:
        avail[fu_of(entry)] -= 1
    for entry in candidates:
        if len(granted) >= width:
            break
        if entry in granted:
            continue
        fu = fu_of(entry)
        if avail[fu] > 0:
            granted.append(entry)
            avail[fu] -= 1
    return granted


def grant_age(oldest: int, entries: Sequence[int],
              fu_of: Callable[[int], FUType], fu_available, width: int,
              rng: random.Random) -> List[int]:
    """AGE grant: ``oldest`` first if its unit is free, then the other
    ready ``entries`` (ascending) shuffled and filled greedily.

    The one AGE implementation: ``AgeSelect.select`` (what the serial
    issue tick runs) and the lane engine's vector select (which finds
    ``oldest`` with one ``argmin`` over every lane's order keys) both
    call it.
    """
    rest = list(entries)
    if fu_available[fu_of(oldest)] > 0:
        granted = [oldest]
        rest.remove(oldest)
    else:
        granted = []
    shuffle(rest, rng.getrandbits)
    return _fill_greedy(granted, rest, fu_of, fu_available, width)


class SelectPolicy(abc.ABC):
    """One issue-selection strategy."""

    name = "abstract"

    @abc.abstractmethod
    def select(self, ctx: SelectContext) -> List[int]:
        """Return the granted IQ entries (<= width, FU-feasible)."""


class RandomSelect(SelectPolicy):
    """RAND: fill issue slots in arbitrary (shuffled) order."""

    name = "rand"

    def select(self, ctx: SelectContext) -> List[int]:
        candidates = list(ctx.entries)
        shuffle(candidates, ctx.rng.getrandbits)
        return _fill_greedy([], candidates, ctx.fu_of, ctx.fu_available,
                            ctx.width)


class AgeSelect(SelectPolicy):
    """AGE: single oldest prioritized, remainder age-blind."""

    name = "age"

    def select(self, ctx: SelectContext) -> List[int]:
        if not ctx.entries:
            return []
        oldest = min(ctx.entries, key=ctx.priority_of)
        return grant_age(oldest, ctx.entries, ctx.fu_of, ctx.fu_available,
                         ctx.width, ctx.rng)


class MultSelect(SelectPolicy):
    """MULT: single oldest of each instruction type prioritized."""

    name = "mult"

    def select(self, ctx: SelectContext) -> List[int]:
        granted: List[int] = []
        avail = list(ctx.fu_available)
        by_type: Dict[FUType, List[int]] = {}
        for entry in ctx.entries:
            by_type.setdefault(ctx.fu_of(entry), []).append(entry)
        # per-type arbitration in FUType value order (the order decides
        # which type a full issue width shuts out)
        for fu in sorted(by_type):
            if avail[fu] <= 0 or len(granted) >= ctx.width:
                continue
            granted.append(min(by_type[fu], key=ctx.priority_of))
            avail[fu] -= 1
        rest = [e for e in ctx.entries if e not in granted]
        shuffle(rest, ctx.rng.getrandbits)
        return _fill_greedy(granted, rest, ctx.fu_of, ctx.fu_available,
                            ctx.width)


class OrinocoSelect(SelectPolicy):
    """Orinoco: up to IW oldest ready instructions via bit count encoding.

    Per-type arbitration under the partial ordering (Figure 13): each
    execution-unit type selects its oldest ready instructions up to its
    unit count; a final bit-count pass clips the union to the IW oldest
    overall.  Each type's grants (types in first-appearance order) and
    a clipped union come out in ascending entry order, as the matrix's
    grant vectors read.
    """

    name = "orinoco"

    def select(self, ctx: SelectContext) -> List[int]:
        union: List[int] = []
        by_type: Dict[FUType, List[int]] = {}
        for entry in ctx.entries:
            by_type.setdefault(ctx.fu_of(entry), []).append(entry)
        key = ctx.priority_of
        width = ctx.width
        for fu, members in by_type.items():
            cap = min(ctx.fu_available[fu], width)
            if cap <= 0:
                continue
            if len(members) > cap:
                members = sorted(sorted(members, key=key)[:cap])
            union.extend(members)
        if len(union) <= width:
            return union
        return sorted(sorted(union, key=key)[:width])


class IdealSelect(SelectPolicy):
    """Oracle: grant strictly oldest-first (what SHIFT sees positionally)."""

    name = "ideal"

    def select(self, ctx: SelectContext) -> List[int]:
        ordered = sorted(ctx.entries, key=ctx.age_of)
        return _fill_greedy([], ordered, ctx.fu_of, ctx.fu_available,
                            ctx.width)


_POLICIES = {
    "rand": RandomSelect,
    "age": AgeSelect,
    "mult": MultSelect,
    "orinoco": OrinocoSelect,
    "cri": OrinocoSelect,     # criticality is encoded at dispatch
    "ideal": IdealSelect,
    "shift": IdealSelect,     # a collapsible queue selects positionally
}


def make_select_policy(name: str) -> SelectPolicy:
    try:
        return _POLICIES[name.lower()]()
    except KeyError as exc:
        raise ValueError(f"unknown select policy {name!r}") from exc
