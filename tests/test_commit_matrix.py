"""Commit dependency matrix — explicit vs merged (SPEC vector) designs.

The pipeline decides commit safety from dispatch stamps instead of the
merged matrix; the last property test holds the two to the same
grants.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.commit.policies import _matrix_commit
from repro.core import CommitDependencyMatrix, MergedCommitMatrix
from repro.isa import OpClass, ProgramBuilder, trace_program
from repro.pipeline import base_config
from repro.pipeline.stages.state import InflightOp, PipelineState


def mask(size, *indices):
    vec = np.zeros(size, dtype=bool)
    for idx in indices:
        vec[idx] = True
    return vec


class TestExplicitMatrix:
    def test_nonspeculative_world_commits_when_complete(self):
        cdm = CommitDependencyMatrix(4)
        cdm.dispatch(0, speculative=False)
        cdm.dispatch(1, speculative=False)
        grants = cdm.can_commit(mask(4, 0, 1))
        assert sorted(np.flatnonzero(grants)) == [0, 1]

    def test_younger_blocked_by_older_speculative(self):
        cdm = CommitDependencyMatrix(4)
        cdm.dispatch(0, speculative=True)     # e.g. a branch
        cdm.dispatch(1, speculative=False)
        grants = cdm.can_commit(mask(4, 1))   # 1 completed, 0 not
        assert not grants[1]
        # the speculative instruction itself has no older blockers
        grants = cdm.can_commit(mask(4, 0, 1))
        assert grants[0]

    def test_resolve_unblocks_younger(self):
        cdm = CommitDependencyMatrix(4)
        cdm.dispatch(0, speculative=True)
        cdm.dispatch(1, speculative=False)
        cdm.resolve(0)
        grants = cdm.can_commit(mask(4, 1))
        assert grants[1]

    def test_uncompleted_never_granted(self):
        cdm = CommitDependencyMatrix(4)
        cdm.dispatch(0, speculative=False)
        grants = cdm.can_commit(mask(4))      # nothing completed
        assert not grants.any()

    def test_remove_clears_entry(self):
        cdm = CommitDependencyMatrix(4)
        cdm.dispatch(0, speculative=True)
        cdm.remove(0)
        cdm.dispatch(1, speculative=False)
        assert cdm.can_commit(mask(4, 1))[1]

    def test_errors(self):
        cdm = CommitDependencyMatrix(4)
        with pytest.raises(ValueError):
            cdm.resolve(0)
        with pytest.raises(ValueError):
            cdm.remove(0)
        cdm.dispatch(0, speculative=False)
        with pytest.raises(ValueError):
            cdm.dispatch(0, speculative=False)


class TestMergedMatrix:
    def test_commit_past_noncompleted_older(self):
        """The key Orinoco behaviour: a younger completed instruction
        commits past an older *non-speculative but slow* instruction."""
        merged = MergedCommitMatrix(8)
        merged.dispatch(0, speculative=False)   # slow ALU op, not done
        merged.dispatch(1, speculative=False)   # done
        grants = merged.can_commit(mask(8, 1))
        assert grants[1]

    def test_blocked_by_older_speculative(self):
        merged = MergedCommitMatrix(8)
        merged.dispatch(0, speculative=True)
        merged.dispatch(1, speculative=False)
        assert not merged.can_commit(mask(8, 1))[1]
        merged.resolve(0)
        assert merged.can_commit(mask(8, 1))[1]

    def test_own_spec_bit_does_not_block_self(self):
        merged = MergedCommitMatrix(8)
        merged.dispatch(0, speculative=True)
        # A completed-but-still-flagged instruction: its own bit is not in
        # its row, so it can commit once *it* is completed & resolved.
        merged.resolve(0)
        assert merged.can_commit(mask(8, 0))[0]

    def test_select_commit_oldest_first(self):
        merged = MergedCommitMatrix(8)
        for entry in (3, 1, 6, 2):
            merged.dispatch(entry, speculative=False)
        grants = merged.select_commit(mask(8, 3, 1, 6, 2), width=2)
        assert sorted(np.flatnonzero(grants)) == [1, 3]

    def test_select_commit_empty(self):
        merged = MergedCommitMatrix(4)
        merged.dispatch(0, speculative=True)
        grants = merged.select_commit(mask(4), width=2)
        assert not grants.any()

    def test_oldest_blocker_location(self):
        merged = MergedCommitMatrix(8)
        merged.dispatch(5, speculative=True)
        merged.dispatch(2, speculative=False)
        assert merged.oldest_blocker() == 5

    def test_squash_set_is_younger_entries(self):
        merged = MergedCommitMatrix(8)
        for entry in (4, 0, 7):
            merged.dispatch(entry, speculative=False)
        squash = merged.squash_set(0)
        assert sorted(np.flatnonzero(squash)) == [7]

    def test_remove_frees_entry_for_reuse(self):
        merged = MergedCommitMatrix(4)
        merged.dispatch(0, speculative=True)
        merged.remove(0)
        merged.dispatch(0, speculative=False)
        assert merged.can_commit(mask(4, 0))[0]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_merged_equals_explicit(data):
    """Property (§3.2): the merged age-matrix + SPEC design grants exactly
    the same commits as the explicit commit dependency matrix under any
    interleaving of dispatch / resolve / remove."""
    size = data.draw(st.integers(min_value=2, max_value=16))
    explicit = CommitDependencyMatrix(size)
    merged = MergedCommitMatrix(size)
    live = set()
    for _ in range(data.draw(st.integers(min_value=1, max_value=50))):
        action = data.draw(st.sampled_from(["dispatch", "resolve", "remove"]))
        if action == "dispatch":
            free = [e for e in range(size) if e not in live]
            if not free:
                continue
            entry = data.draw(st.sampled_from(free))
            spec = data.draw(st.booleans())
            explicit.dispatch(entry, spec)
            merged.dispatch(entry, spec)
            live.add(entry)
        elif action == "resolve" and live:
            entry = data.draw(st.sampled_from(sorted(live)))
            explicit.resolve(entry)
            merged.resolve(entry)
        elif action == "remove" and live:
            # Only remove instructions that could legally leave: committed
            # (safe) ones. For the equivalence we allow any removal — both
            # structures must agree regardless.
            entry = data.draw(st.sampled_from(sorted(live)))
            explicit.remove(entry)
            merged.remove(entry)
            live.discard(entry)

        completed_entries = data.draw(
            st.lists(st.sampled_from(range(size)), unique=True))
        completed = np.zeros(size, dtype=bool)
        completed[completed_entries] = True
        assert (explicit.can_commit(completed)
                == merged.can_commit(completed)).all()


# -- the pipeline's keyed commit rule against the merged matrix ---------

def grant_commits(safe, candidates, width):
    """Reference grant from dispatch stamps, by filtering and sorting
    instead of walking: the candidates ``safe`` admits, the ``width``
    lowest stamps of them, in ascending ROB-entry order."""
    granted = [op for op in candidates if safe(op.dispatch_stamp)]
    if len(granted) > width:
        granted.sort(key=lambda op: op.dispatch_stamp)
        del granted[width:]
    granted.sort(key=lambda op: op.rob_entry)
    return granted


@pytest.fixture(scope="module")
def tiny_trace():
    b = ProgramBuilder("commit-prop")
    b.halt()
    return trace_program(b.build())


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_keyed_commit_equals_merged_matrix(tiny_trace, data):
    """Property: the pipeline's commit rule — an op is safe when its
    dispatch stamp is not younger than the oldest speculative stamp
    still in the ROB (:meth:`PipelineState.commit_safe`), and the
    width-limited grant walk of :func:`~repro.commit.policies.
    _matrix_commit` retires the lowest stamps in ROB-entry order —
    grants exactly what the merged age/SPEC matrix's ``can_commit``
    and ``select_commit`` grant, over random dispatch (random SPEC
    flag) / resolve / retire / squash histories.  The stamp
    bookkeeping runs through the pipeline's own ``resolve_spec`` and
    ``leave_rob``; every completed candidate is locally committable
    here, so the walk's grants are the matrix's."""
    size = data.draw(st.integers(min_value=2, max_value=16), label="size")
    width = data.draw(st.integers(min_value=1, max_value=5), label="width")
    state = PipelineState(tiny_trace, base_config(
        rob_size=size, commit="orinoco", commit_width=width))
    retired = []
    core = SimpleNamespace(
        state=state, locally_committable=lambda op, ecl: True,
        retire=lambda op, cycle: retired.append(op))
    merged = MergedCommitMatrix(size)
    live = {}                           # stamp -> InflightOp
    stamp = 0
    for _ in range(data.draw(st.integers(1, 60), label="steps")):
        action = data.draw(st.sampled_from(
            ["dispatch", "dispatch", "resolve", "retire", "squash"]))
        if action == "dispatch" and len(live) < size:
            stamp += 1
            spec = data.draw(st.booleans())
            op = InflightOp(SimpleNamespace(op_class=OpClass.INT_ALU),
                            stamp)
            op.dispatch_stamp = stamp
            op.rob_entry = state.rob_queue.allocate()
            # DispatchStage._do_dispatch's SPEC bookkeeping
            if spec:
                state.spec_stamps[stamp] = None
            op.spec_resolved = not spec
            merged.dispatch(op.rob_entry, spec)
            live[stamp] = op
        elif action == "resolve" and live:
            op = live[data.draw(st.sampled_from(sorted(live)))]
            state.resolve_spec(op)
            merged.resolve(op.rob_entry)
        elif action == "retire" and live:
            op = live.pop(data.draw(st.sampled_from(sorted(live))))
            state.leave_rob(op)
            merged.remove(op.rob_entry)
        elif action == "squash" and live:
            first = data.draw(st.sampled_from(sorted(live)))
            for victim in sorted((s for s in live if s >= first),
                                 reverse=True):
                op = live.pop(victim)
                state.leave_rob(op)
                merged.remove(op.rob_entry)

        done = data.draw(st.lists(st.sampled_from(sorted(live)),
                                  unique=True) if live else st.just([]))
        candidates = [live[s] for s in done]
        completed = mask(size, *(op.rob_entry for op in candidates))
        want = set(np.flatnonzero(merged.can_commit(completed)))
        assert {op.rob_entry for op in candidates
                if state.commit_safe(op.dispatch_stamp)} == want
        grants = [int(e) for e in
                  np.flatnonzero(merged.select_commit(completed, width))]
        assert [op.rob_entry for op in grant_commits(
            state.commit_safe, candidates, width)] == grants
        # the production walk over the same candidates, in stamp order
        state.window.clear()
        state.window.update((s, live[s]) for s in sorted(live))
        state.commit_order[:] = sorted(done)
        state.commit_ready = len(done)
        del retired[:]
        assert _matrix_commit(core, 0) == len(grants)
        assert [op.rob_entry for op in retired] == grants
