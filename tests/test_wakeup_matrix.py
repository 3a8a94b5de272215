"""Wakeup matrix: positional dependence tracking in the IQ.

The pipeline reads readiness from per-op completion counters instead
of this matrix; the last property test holds the two to the same
ready sets.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import WakeupMatrix
from repro.isa import OpClass
from repro.pipeline.stages.state import InflightOp, wait_on


class TestWakeup:
    def test_no_producers_ready_immediately(self):
        wm = WakeupMatrix(4)
        wm.dispatch(0, [])
        assert wm.is_ready(0)
        assert wm.ready()[0]

    def test_waits_for_all_producers(self):
        wm = WakeupMatrix(4)
        wm.dispatch(0, [])
        wm.dispatch(1, [])
        wm.dispatch(2, [0, 1])
        assert not wm.is_ready(2)
        wm.issue([0])
        assert not wm.is_ready(2)
        wm.issue([1])
        assert wm.is_ready(2)

    def test_multi_issue_single_cycle(self):
        wm = WakeupMatrix(4)
        wm.dispatch(0, [])
        wm.dispatch(1, [])
        wm.dispatch(2, [0, 1])
        wm.issue([0, 1])
        assert wm.is_ready(2)

    def test_issue_frees_entry(self):
        wm = WakeupMatrix(4)
        wm.dispatch(0, [])
        wm.issue([0])
        assert not wm.valid[0]
        wm.dispatch(0, [])     # reuse
        assert wm.is_ready(0)

    def test_issue_invalid_rejected(self):
        wm = WakeupMatrix(4)
        with pytest.raises(ValueError):
            wm.issue([0])

    def test_double_dispatch_rejected(self):
        wm = WakeupMatrix(4)
        wm.dispatch(0, [])
        with pytest.raises(ValueError):
            wm.dispatch(0, [])

    def test_waiting_on_lists_producers(self):
        wm = WakeupMatrix(4)
        wm.dispatch(1, [])
        wm.dispatch(3, [1])
        assert wm.waiting_on(3) == [1]
        wm.issue([1])
        assert wm.waiting_on(3) == []

    def test_squash_does_not_wake_dependents(self):
        wm = WakeupMatrix(4)
        wm.dispatch(0, [])
        wm.dispatch(1, [0])
        wm.dispatch(2, [1])
        # squash 1 and 2 together (both younger than some mispredict)
        wm.squash([1, 2])
        assert not wm.valid[1] and not wm.valid[2]
        assert wm.valid[0]
        # entries reusable afterwards
        wm.dispatch(1, [0])
        assert not wm.is_ready(1)

    def test_ready_vector_matches_is_ready(self):
        wm = WakeupMatrix(6)
        wm.dispatch(0, [])
        wm.dispatch(1, [0])
        wm.dispatch(5, [])
        ready = wm.ready()
        for entry in range(6):
            if wm.valid[entry]:
                assert ready[entry] == wm.is_ready(entry)
            else:
                assert not ready[entry]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_wakeup_matches_dependency_oracle(data):
    """Property: an instruction is ready iff all its producers issued."""
    size = data.draw(st.integers(min_value=2, max_value=16))
    wm = WakeupMatrix(size)
    producers = {}
    for _ in range(data.draw(st.integers(min_value=1, max_value=40))):
        free = [e for e in range(size) if not wm.valid[e]]
        live = [e for e in range(size) if wm.valid[e]]
        ready_live = [e for e in live if wm.is_ready(e)]
        if free and (not ready_live or data.draw(st.booleans())):
            entry = data.draw(st.sampled_from(free))
            deps = data.draw(st.lists(st.sampled_from(live), unique=True)) \
                if live else []
            wm.dispatch(entry, deps)
            producers[entry] = set(deps)
        elif ready_live:
            entry = data.draw(st.sampled_from(ready_live))
            wm.issue([entry])
            for deps in producers.values():
                deps.discard(entry)
            del producers[entry]

        for entry in range(size):
            if wm.valid[entry]:
                live_deps = {d for d in producers[entry] if wm.valid[d]}
                assert wm.is_ready(entry) == (not live_deps)


# -- the pipeline's counters-only dataflow against the matrix ----------

class _RefWakeup:
    """The pre-counter dataflow, kept here as the reference.

    A producer still in the IQ is a positional bit in a
    :class:`WakeupMatrix` row; an issued, not yet completed producer
    is a completion count.  Issuing converts the producer's column
    into counts on its dependents; completion counts them down.  An
    IQ entry is ready when its row is clear *and* its count is zero.
    Ops are keyed by identity, so a squashed op's stale registrations
    never touch a re-dispatched op with the same sequence number.
    """

    def __init__(self, size):
        self.matrix = WakeupMatrix(size)
        self.count = {}                 # op -> outstanding completions
        self.waiters = {}               # op -> dependents
        self.entry_of = {}              # op -> IQ entry while in the IQ

    def dispatch(self, op, entry, producers):
        in_iq = [p for p in producers if p in self.entry_of]
        issued = [p for p in producers if p not in self.entry_of]
        self.matrix.dispatch(entry, [self.entry_of[p] for p in in_iq])
        self.count[op] = len(issued)
        self.waiters[op] = []
        for p in issued:
            self.waiters[p].append(op)
        self.entry_of[op] = entry

    def issue(self, op):
        entry = self.entry_of.pop(op)
        column = self.matrix.matrix.bits[:, entry]
        for dep, dep_entry in self.entry_of.items():
            if column[dep_entry]:
                self.count[dep] += 1
                self.waiters[op].append(dep)
        self.matrix.issue([entry])

    def complete(self, op):
        for dep in self.waiters[op]:
            if dep in self.count:
                self.count[dep] -= 1

    def squash(self, op):
        if op in self.entry_of:
            self.matrix.squash([self.entry_of.pop(op)])
        del self.count[op]
        del self.waiters[op]

    def ready(self):
        return {entry for op, entry in self.entry_of.items()
                if self.count[op] == 0 and self.matrix.is_ready(entry)}


def _counter_ready(ops):
    """The pipeline's rule: an IQ entry is ready at a zero counter."""
    return {op.iq_entry for op in ops.values()
            if op.in_iq and op.producers_remaining == 0}


def _complete(ops, op):
    """WritebackStage.complete's dependent walk (``op`` kind)."""
    op.completed = True
    for dep, _kind in op.dependents:
        if ops.get(dep.seq) is dep:
            dep.producers_remaining -= 1


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_counters_equal_matrix_readiness(data):
    """Property: registering every live producer — still in the IQ or
    already issued — on a completion counter at dispatch
    (:func:`~repro.pipeline.stages.state.wait_on`) yields exactly the
    ready set the wakeup matrix plus counters gave, over random
    dispatch / issue / complete / squash histories (squashed sequence
    numbers are re-dispatched as fresh ops, as a refetch does)."""
    size = data.draw(st.integers(min_value=2, max_value=12), label="size")
    ref = _RefWakeup(size)
    ops = {}                            # seq -> InflightOp, dispatch order
    free = list(range(size))
    next_seq = 0
    for _ in range(data.draw(st.integers(1, 60), label="steps")):
        issued = [seq for seq, op in ops.items()
                  if not op.in_iq and not op.completed]
        ready = sorted(ref.ready())
        action = data.draw(st.sampled_from(
            ["dispatch", "dispatch", "issue", "complete", "squash"]))
        if action == "dispatch" and free:
            entry = free.pop(data.draw(st.integers(0, len(free) - 1)))
            chosen = data.draw(st.lists(st.sampled_from(sorted(ops)),
                                        unique=True, max_size=3)
                               if ops else st.just([]))
            # completed producers are not live (the rename lookup
            # drops them), exactly as DispatchStage._live_writers does
            live = [ops[s] for s in chosen if not ops[s].completed]
            op = InflightOp(SimpleNamespace(op_class=OpClass.INT_ALU),
                            next_seq)
            op.iq_entry = entry
            op.in_iq = True
            ref.dispatch(op, entry, live)
            wait_on(op, live, "op")
            ops[next_seq] = op
            next_seq += 1
        elif action == "issue" and ready:
            entry = data.draw(st.sampled_from(ready))
            op = next(o for o in ops.values() if o.iq_entry == entry)
            ref.issue(op)
            op.in_iq = False
            op.iq_entry = None
            free.append(entry)
        elif action == "complete" and issued:
            op = ops[data.draw(st.sampled_from(issued))]
            ref.complete(op)
            _complete(ops, op)
        elif action == "squash" and ops:
            first = data.draw(st.sampled_from(sorted(ops)))
            for seq in sorted((s for s in ops if s >= first),
                              reverse=True):
                op = ops.pop(seq)
                ref.squash(op)
                if op.in_iq:
                    free.append(op.iq_entry)
                    op.in_iq = False
            next_seq = first
        assert _counter_ready(ops) == ref.ready()
