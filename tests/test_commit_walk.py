"""Differential property: the event-driven commit walk against the scan.

The commit stage keeps its candidates in stamp order
(``PipelineState.commit_order``) and counts the locally committable
ones (``commit_ready``) at the events that change them; Orinoco/ROB
commit walk that order from the oldest candidate and SPEC walks it too.
The scan they replaced re-checked every candidate each cycle, and it is
kept here as the reference: a second core steps in lockstep with the
first, its commit decided by the scan over the candidate set recomputed
from op state alone.  Before every commit tick the order, the count and
``ready_not_head`` must match the scan's; after it, both cores must have
granted the same instructions in the same retire order and charged the
same matrix check.
"""

import dataclasses
from collections import Counter
from functools import lru_cache

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.commit.policies import CherryCommit, OrinocoCommit, RobOnlyCommit
from repro.isa import ProgramBuilder, trace_program
from repro.memory import HierarchyConfig
from repro.pipeline import O3Core, base_config
from repro.workloads.targets import get_target

from .test_commit_matrix import grant_commits
from .test_pipeline_property import small_programs

POLICIES = ("orinoco", "rob", "spec")


# -- the reference: the per-cycle scan ------------------------------------

def scan_members(core):
    """The scan's candidate set, from op state: every correct-path op
    in the window that has completed at least once."""
    return [seq for seq, op in core.window.items()
            if op.completed_at is not None and not op.wrong_path]


def scan_matrix_commit(core, cycle):
    """Orinoco/ROB commit as a scan: check every candidate, grant the
    CW lowest safe stamps, retire in ROB-entry order."""
    members = scan_members(core)
    if not members:
        return 0
    depth = core.config.commit_depth
    horizon = None
    if depth is not None and len(core.window) > depth:
        for index, seq in enumerate(core.window):
            if index == depth - 1:
                horizon = seq
                break
    candidates = []
    for seq in members:
        if horizon is not None and seq > horizon:
            continue
        op = core.window[seq]
        if core.locally_committable(op, ecl=False):
            candidates.append(op)
    if not candidates:
        return 0
    core.stats.rob_check_ops += 1
    core.stats.rob_check_rows += len(candidates)
    granted = grant_commits(core.state.commit_safe, candidates,
                            core.config.commit_width)
    for op in granted:
        core.retire(op, cycle)
    return len(granted)


def scan_spec_commit(core, cycle):
    """SPEC commit as a scan over the sorted candidate set."""
    committed = 0
    for seq in sorted(scan_members(core)):
        if committed >= core.config.commit_width:
            break
        op = core.window[seq]
        if core.locally_committable(op, ecl=False, ignore_global=True):
            core.retire(op, cycle)
            committed += 1
    return committed


def scan_ready_not_head(core):
    """The §2.2 sample as a scan: is any candidate other than the
    head safe?  None when there are no candidates."""
    members = scan_members(core)
    if not members:
        return None
    head = next(iter(core.window))
    return any(seq != head and
               core.state.commit_safe(core.window[seq].dispatch_stamp)
               for seq in members)


def scan_ready_count(core):
    """Locally committable candidates, stores aside."""
    return sum(1 for seq in scan_members(core)
               if not core.window[seq].dyn.is_store
               and core.locally_committable(core.window[seq], False))


class ScanOrinoco(OrinocoCommit):
    def commit(self, core, cycle):
        return scan_matrix_commit(core, cycle)


class ScanRob(RobOnlyCommit):
    def commit(self, core, cycle):
        return scan_matrix_commit(core, cycle)


class ScanSpec(CherryCommit):
    def commit(self, core, cycle):
        return scan_spec_commit(core, cycle)


SCAN_POLICIES = {"orinoco": ScanOrinoco, "rob": ScanRob, "spec": ScanSpec}


# -- lockstep stepping ------------------------------------------------------

def _record_retires(core):
    log = []
    retire = core.retire

    def recording(op, cycle, zombie=False):
        log.append(op.seq)
        retire(op, cycle, zombie)

    core.retire = recording
    return log


def _record_replays(core, events):
    """Count replays of loads that had already completed."""
    memory = core.stages[2]             # the MemoryStage
    replay = memory.replay_load

    def recording(op, cycle):
        if op.completed:
            events["replay_after_complete"] += 1
        replay(op, cycle)

    memory.replay_load = recording


def run_lockstep(trace, config, max_cycles=200_000):
    """Step the walk core and the scan core together, comparing each
    commit tick; returns a tally of the events the run went through."""
    walk, scan = O3Core(trace, config), O3Core(trace, config)
    scan.state.commit_policy = SCAN_POLICIES[config.commit]()
    walk_log, scan_log = _record_retires(walk), _record_retires(scan)
    events = Counter()
    _record_replays(walk, events)
    ws, ss = walk.state, scan.state
    while not walk.done():
        assert ws.cycle < max_cycles, "no progress"
        assert ws.commit_order == sorted(scan_members(scan))
        assert ws.commit_ready == scan_ready_count(scan)
        sampled = walk.commit_stage._account_commit_ready(weight=0)
        assert (sampled and sampled[0]) == scan_ready_not_head(scan)
        store = walk.window.get(walk.lsq.oldest_store_seq())
        if store is not None and store.completed \
                and not walk.lsq.can_commit_store():
            events["store_buffer_full"] += 1
        walk.step()
        scan.step()
        assert walk_log == scan_log
        assert (ws.stats.rob_check_ops, ws.stats.rob_check_rows) == \
            (ss.stats.rob_check_ops, ss.stats.rob_check_rows)
        del walk_log[:], scan_log[:]
    assert scan.done()
    assert dataclasses.asdict(ws.stats) == dataclasses.asdict(ss.stats)
    stats = ws.stats
    if config.commit != "spec":
        events["mem_order_squash"] += stats.mem_order_violations
    events["spec_replay"] += stats.load_replays
    events["exception_flush"] += stats.exceptions
    events["wrong_path_squash"] += stats.wrong_path_dispatched
    return events


# -- the properties ---------------------------------------------------------

@lru_cache(maxsize=None)
def target_trace(name):
    return get_target(name).build_trace(0.05)


#: registry targets alongside the generated programs: a faulting one
#: (sys.drain), a memory-order violating one (sjeng.listupd) and a
#: store stream that fills the store buffer when MSHRs are scarce
#: (lbm.stream)
TARGETS = ("sys.drain", "sjeng.listupd", "lbm.stream")


@st.composite
def core_configs(draw, policy):
    depth = draw(st.one_of(st.none(), st.integers(1, 40)))
    return base_config(
        commit=policy,
        rob_size=draw(st.integers(16, 128)),
        commit_width=draw(st.integers(1, 8)),
        commit_depth=depth,
        store_buffer_size=draw(st.integers(1, 6)),
        memory=HierarchyConfig(mshrs=draw(st.sampled_from((1, 2, 32)))))


@st.composite
def cases(draw):
    policy = draw(st.sampled_from(POLICIES))
    workload = draw(st.one_of(st.sampled_from(TARGETS),
                              small_programs().map(trace_program)))
    return workload, draw(core_configs(policy))


def replayed_after_complete_program():
    """A load that completes before an older store to its address
    resolves: the store's address waits on a chain of divides, the
    load's base register is ready, so the load speculates past the
    store, completes, and is replayed when the store resolves."""
    b = ProgramBuilder("replay-after-complete")
    b.li("x3", 0x1000)
    b.li("x4", 1)
    b.add("x5", "x3", "x0")
    for _ in range(30):
        b.div("x5", "x5", "x4")         # 0x1000, after the load's miss
    b.sd("x4", "x5", 0)
    b.ld("x7", "x3", 0)
    b.add("x8", "x7", "x7")
    b.halt()
    return trace_program(b.build())


def test_walk_equals_scan():
    """Property: over generated programs and the registry slice, under
    random ROB size, commit width, commit depth, store buffer size and
    MSHR count, the walk's count, grants (and their order) and
    ``ready_not_head`` equal the scan's at every commit tick — across
    runs that exercise memory-order squashes, exception flushes,
    wrong-path squashes, SPEC replays (one of a load that had already
    completed) and store-buffer-full cycles."""
    seen = Counter()

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    @given(case=cases())
    @example(case=("sjeng.listupd", base_config(
        commit="orinoco", rob_size=48, store_buffer_size=1)))
    @example(case=("sjeng.listupd", base_config(
        commit="spec", rob_size=48, commit_depth=12)))
    @example(case=("sys.drain", base_config(
        commit="rob", rob_size=32, commit_width=2, store_buffer_size=1)))
    @example(case=("sys.drain", base_config(commit="spec")))
    @example(case=(replayed_after_complete_program(),
                   base_config(commit="spec")))
    @example(case=("lbm.stream", base_config(
        commit="orinoco", rob_size=64, store_buffer_size=1,
        memory=HierarchyConfig(mshrs=1))))
    def check(case):
        workload, config = case
        trace = target_trace(workload) if isinstance(workload, str) \
            else workload
        seen.update(run_lockstep(trace, config))

    check()
    for event in ("mem_order_squash", "exception_flush",
                  "wrong_path_squash", "spec_replay",
                  "replay_after_complete", "store_buffer_full"):
        assert seen[event], f"no example exercised {event}"


def test_recompleted_load_enters_order_once():
    """Directed: under SPEC a completed load is replayed by an older
    store's late address; completing again must not add it to the
    commit order a second time (the lockstep check compares the order
    with the candidate set every cycle)."""
    events = run_lockstep(replayed_after_complete_program(),
                          base_config(commit="spec"))
    assert events["replay_after_complete"] >= 1
