"""Commit policies (paper §2.2, §3.2, Figure 15).

Each policy decides, per cycle, which ROB-resident instructions retire.
They differ in three dimensions: the order of ROB reclamation
(in-order / skip-branches / fully out-of-order), which of the Bell &
Lipasti commit conditions they relax, and when non-ROB resources
(registers, LQ entries) are released.

| name       | models                 | ROB release | relaxations          |
|------------|------------------------|-------------|----------------------|
| ioc        | baseline               | in order    | none                 |
| orinoco    | this paper             | OoO (matrix)| order only (non-spec)|
| vb         | Validation Buffer [49] | in order    | completion (+ECL)    |
| vb_noecl   | VB, loads must perform | in order    | completion           |
| br         | NOREBA [27] bound      | skip branches| branch cond (+ECL)  |
| br_noecl   | NOREBA, loads perform  | skip branches| branch cond         |
| spec       | Cherry [50] bound      | OoO         | all (oracle)         |
| spec_norob | Cherry, ROB reserved   | in order    | all but ROB          |
| ecl        | DeSC [28]              | in order    | load completion      |
| rob        | ROB-entries-only OoO   | OoO (matrix)| order; regs/LQ inorder|

A policy only *selects*; the core's ``retire`` applies the release
semantics using the policy's attribute flags.
"""

from __future__ import annotations

import abc
from itertools import islice
from operator import attrgetter

from ..pipeline.events import EventType, MatrixEvent

_MATRIX = EventType.MATRIX
_rob_entry = attrgetter("rob_entry")


class CommitPolicy(abc.ABC):
    """One commit strategy."""

    name = "abstract"
    #: loads may commit once safe, before being performed (ECL)
    ecl = False
    #: non-memory, non-branch instructions may retire before completing
    allow_incomplete = False
    #: registers / LQ entries released as soon as execution completes
    release_at_completion = False
    #: registers / LQ releases deferred to the in-order commit point
    defer_release_inorder = False
    #: branch outcomes treated as oracle-known (never block commit)
    oracle_branches = False

    @abc.abstractmethod
    def commit(self, core, cycle: int) -> int:
        """Retire instructions; return how many committed."""

    # -- shared helpers ---------------------------------------------------

    def _inorder_walk(self, core, cycle: int, committable) -> int:
        committed = 0
        window = core.window
        width = core.config.commit_width
        # retiring the head re-exposes the next instruction as the new
        # head, so the walk peeks the head each iteration instead of
        # snapshotting the (possibly huge) window into a list
        while committed < width:
            op = next(iter(window.values()), None)
            if op is None or not committable(op):
                break
            core.retire(op, cycle, zombie=not op.completed)
            committed += 1
        return committed


def _matrix_commit(core, cycle: int) -> int:
    """Shared Orinoco-style commit (§3.2): grant up to CW of the oldest
    locally committable candidates that no older speculative
    instruction blocks, and retire them in ROB-entry order.

    The merged matrix's check is charged with the number of locally
    committable candidates, read from the maintained count
    (``commit_ready``, plus the SQ head store when it may commit).  The
    grant is the bit-count select: a walk of the stamp-ordered
    candidates that stops at the first stamp past the oldest
    speculative one, or after CW grants."""
    s = core.state
    order = s.commit_order
    if not order:
        return 0
    window = s.window
    committable = core.locally_committable
    depth = s.config.commit_depth
    if depth is not None and len(window) > depth:
        # limited commit depth: only the `depth` oldest window entries
        # are visible (the contrast to Orinoco's unlimited window,
        # §6.2), so at most `depth` candidates are counted
        horizon = next(islice(window, depth - 1, None))
        rows = 0
        for seq in order:
            if seq > horizon:
                break
            rows += committable(window[seq], False)
    else:
        horizon = None
        store = window.get(s.lsq.oldest_store_seq())
        rows = s.commit_ready + (
            store is not None and committable(store, False))
    if not rows:
        return 0
    s.stats.rob_check_ops += 1
    s.stats.rob_check_rows += rows
    bus = s.bus
    if bus.live[_MATRIX]:
        bus.publish(MatrixEvent(cycle, "rob", "check", rows))
    spec = s.spec_stamps
    oldest_spec = next(iter(spec)) if spec else None
    width = s.config.commit_width
    granted = []
    for seq in order:
        if horizon is not None and seq > horizon:
            break
        op = window[seq]
        if oldest_spec is not None and op.dispatch_stamp > oldest_spec:
            break
        if committable(op, False):
            granted.append(op)
            if len(granted) == width:
                break
    granted.sort(key=_rob_entry)
    retire = core.retire
    for op in granted:
        retire(op, cycle)
    return len(granted)


class InOrderCommit(CommitPolicy):
    """IOC: the head commits when complete; everything else waits."""

    name = "ioc"

    def commit(self, core, cycle: int) -> int:
        # open-coded _inorder_walk: this is the stock policy the speed
        # benches run, so skip the per-tick closure allocation and call
        # the legality check positionally
        committed = 0
        window = core.window
        width = core.config.commit_width
        committable = core.locally_committable
        retire = core.retire
        while committed < width:
            op = next(iter(window.values()), None)
            if op is None or not committable(op, False):
                break
            retire(op, cycle, zombie=not op.completed)
            committed += 1
        return committed


class OrinocoCommit(CommitPolicy):
    """Unordered commit, the merged age/SPEC matrix's rule (§3.2).

    Completed instructions anywhere in the non-collapsible ROB commit
    once no older instruction can raise misspeculation or an exception
    (dispatch stamp not younger than the oldest speculative one); up to
    CW oldest eligible commit per cycle.
    """

    name = "orinoco"

    def commit(self, core, cycle: int) -> int:
        return _matrix_commit(core, cycle)


class ValidationBufferCommit(CommitPolicy):
    """VB: instructions leave the ROB in order once non-speculative,
    without waiting for completion (post-commit execution)."""

    name = "vb"
    ecl = True
    allow_incomplete = True

    def commit(self, core, cycle: int) -> int:
        return self._inorder_walk(
            core, cycle,
            lambda op: core.vb_committable(op, ecl=self.ecl))


class ValidationBufferNoEclCommit(ValidationBufferCommit):
    """VB under a stronger consistency model: loads must perform."""

    name = "vb_noecl"
    ecl = False


class NorebaCommit(CommitPolicy):
    """BR: upper bound of relaxing the branch condition (NOREBA).

    The in-order scan skips unresolved branches (oracle-correct path),
    so younger completed instructions commit past them; any other
    incomplete instruction still blocks."""

    name = "br"
    ecl = True
    oracle_branches = True

    def commit(self, core, cycle: int) -> int:
        committed = 0
        for op in list(core.window.values()):
            if committed >= core.config.commit_width:
                break
            if op.dyn.is_branch and not op.completed:
                continue           # skip: branch condition is oracle
            if not core.locally_committable(op, ecl=self.ecl):
                break
            core.retire(op, cycle, zombie=not op.completed)
            committed += 1
        return committed


class NorebaNoEclCommit(NorebaCommit):
    """BR without early commit of loads."""

    name = "br_noecl"
    ecl = False


class CherryCommit(CommitPolicy):
    """SPEC: oracle speculative commit without rollback cost — any
    completed instruction may retire, all resources released."""

    name = "spec"
    oracle_branches = True

    def commit(self, core, cycle: int) -> int:
        # walk the stamp-ordered candidates; retiring one removes it
        # from the order in place, so the index then already names the
        # next candidate
        committed = 0
        order = core.commit_order
        index = 0
        while index < len(order) and committed < core.config.commit_width:
            op = core.window[order[index]]
            if core.locally_committable(op, ecl=False, ignore_global=True):
                core.retire(op, cycle)
                committed += 1
            else:
                index += 1
        return committed


class CherryNoRobCommit(CommitPolicy):
    """SPEC w/o ROB: Cherry proper — registers and LQ entries recycle at
    completion, but ROB entries are reserved until the in-order point."""

    name = "spec_norob"
    oracle_branches = True
    release_at_completion = True

    def commit(self, core, cycle: int) -> int:
        return self._inorder_walk(
            core, cycle,
            lambda op: core.locally_committable(op, ecl=False,
                                                ignore_global=True))


class DescCommit(CommitPolicy):
    """ECL: DeSC-style early commit of non-performed loads (weak
    consistency only); otherwise in-order."""

    name = "ecl"
    ecl = True

    def commit(self, core, cycle: int) -> int:
        return self._inorder_walk(
            core, cycle,
            lambda op: core.locally_committable(op, ecl=True))


class RobOnlyCommit(CommitPolicy):
    """ROB: entries reclaim out of order like Orinoco, but registers and
    LQ entries release only at the in-order point — isolates the value
    of unordered ROB reclamation."""

    name = "rob"
    defer_release_inorder = True

    def commit(self, core, cycle: int) -> int:
        return _matrix_commit(core, cycle)


_POLICIES = {
    policy.name: policy for policy in (
        InOrderCommit, OrinocoCommit, ValidationBufferCommit,
        ValidationBufferNoEclCommit, NorebaCommit, NorebaNoEclCommit,
        CherryCommit, CherryNoRobCommit, DescCommit, RobOnlyCommit)
}


def make_commit_policy(name: str) -> CommitPolicy:
    try:
        return _POLICIES[name.lower()]()
    except KeyError as exc:
        raise ValueError(f"unknown commit policy {name!r}") from exc
