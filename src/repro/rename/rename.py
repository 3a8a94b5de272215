"""Register renaming with two reclamation schemes.

``inorder`` — the conventional scheme: when the instruction that
*overwrites* architectural register r commits, the previous physical
mapping of r is freed.  Safe because in-order commit guarantees every
older reader has committed.

``counter`` — the paper's counter-based scheme (§5, after Validation
Buffer): out-of-order commit can retire the overwriter while older
readers are still in flight, so each physical register carries a
consumer count (incremented at rename, decremented when the consumer
reads its operands) plus producer-completion and overwriter-committed
flags; the register frees only when all three conditions hold.  The
Register Status Table (RST) is exactly this per-physical-register
state, held as one column (a flat list indexed by physical register)
per field rather than one object per register.
"""

from __future__ import annotations

from operator import attrgetter
from typing import List, Optional

from ..isa import FP_BASE, NUM_ARCH_REGS, NUM_INT_REGS
from .freelist import PhysRegFreeList

_SEQ = attrgetter("seq")


class RenameUnit:
    """Architectural → physical mapping plus reclamation policy.

    The register file is split per class, as in the modelled Skylake
    core: ``num_phys_regs`` *integer* physical registers and the same
    number of floating-point ones.  Flat physical ids place the FP file
    at ``num_phys_regs + idx``.

    The RST is six columns indexed by flat physical id.  A register's
    row means something only while ``live[phys]`` (allocated: from
    rename, or construction for the initial mappings, until reclaimed);
    allocation rewrites the whole row:

    * ``consumers`` — renamed readers that have not read it yet;
    * ``producer_done`` — the producer wrote back;
    * ``overwriter_committed`` — the next writer of its architectural
      register committed;
    * ``architectural`` — still the live architectural mapping (not
      yet overwritten);
    * ``producer_seq`` — seq of the producing instruction.
      Producer-side events are ignored unless they come from the
      current owner, because an oracle load replay can write back after
      its register was reclaimed (overwriter committed, readers
      drained) and even re-allocated to a younger instruction.

    A register is reclaimed at the event that makes its last freeing
    condition true: a consumer count reaching zero, the producer
    completing after the overwriter committed, or the overwriter
    committing.  ``live_regs`` counts the live registers of both files.
    """

    def __init__(self, num_phys_regs: int, scheme: str = "inorder"):
        if scheme not in ("inorder", "counter"):
            raise ValueError(f"unknown reclamation scheme: {scheme!r}")
        if num_phys_regs <= NUM_INT_REGS:
            raise ValueError(
                f"need more than {NUM_INT_REGS} physical registers per file")
        self.scheme = scheme
        self.num_phys_regs = num_phys_regs
        self.int_freelist = PhysRegFreeList(num_phys_regs)
        self.fp_freelist = PhysRegFreeList(num_phys_regs)
        #: architectural register -> the free list its renames draw on
        self.freelist_of = ([self.int_freelist] * FP_BASE
                            + [self.fp_freelist] * (NUM_ARCH_REGS - FP_BASE))
        # the initial mappings: integer arch reg r is phys r, FP arch
        # reg FP_BASE + k is phys num_phys_regs + k (each file's lowest
        # registers, claimed in its pop order), each row live,
        # architectural and its producer done
        fp_regs = NUM_ARCH_REGS - FP_BASE
        self.int_freelist.claim_lowest(FP_BASE)
        self.fp_freelist.claim_lowest(fp_regs)
        self.rat: List[int] = list(range(FP_BASE)) + list(
            range(num_phys_regs, num_phys_regs + fp_regs))
        total = 2 * num_phys_regs
        self.live = [False] * total
        self.live[:FP_BASE] = [True] * FP_BASE
        self.live[num_phys_regs:num_phys_regs + fp_regs] = [True] * fp_regs
        self.consumers = [0] * total
        self.producer_done = self.live[:]
        self.overwriter_committed = [False] * total
        self.architectural = self.live[:]
        self.producer_seq = [-1] * total
        self.live_regs = NUM_ARCH_REGS
        self.freed = 0

    def _allocate(self, arch_reg: int, seq: int) -> Optional[int]:
        """Claim a register of ``arch_reg``'s file and write its RST
        row: live, architectural, no consumers, producer ``seq``
        pending.  None when the file is exhausted."""
        if arch_reg >= FP_BASE:
            phys = self.fp_freelist.allocate()
            if phys is not None:
                phys += self.num_phys_regs
        else:
            phys = self.int_freelist.allocate()
        if phys is None:
            return None
        self.live[phys] = True
        self.consumers[phys] = 0
        self.producer_done[phys] = False
        self.overwriter_committed[phys] = False
        self.architectural[phys] = True
        self.producer_seq[phys] = seq
        self.live_regs += 1
        return phys

    def _reclaim(self, phys: int) -> None:
        """Return ``phys`` to its file's free list."""
        self.live[phys] = False
        self.live_regs -= 1
        if phys >= self.num_phys_regs:
            self.fp_freelist.free(phys - self.num_phys_regs)
        else:
            self.int_freelist.free(phys)

    # -- rename ---------------------------------------------------------

    def can_rename(self, dst_reg: Optional[int]) -> bool:
        return dst_reg is None or self.freelist_of[dst_reg].available > 0

    def rename(self, op) -> None:
        """Map ``op``'s sources through the RAT and claim a destination
        register, into the op's slots ``srcs_phys``, ``phys_dst``,
        ``prev_phys``, ``reads_outstanding`` (sources not yet read) and
        ``prev_released`` (``prev_phys`` reclaimed: no undo)."""
        dyn = op.dyn
        rat = self.rat
        srcs_phys = tuple(map(rat.__getitem__, dyn.srcs))
        consumers = self.consumers
        for phys in srcs_phys:
            consumers[phys] += 1
        dst = dyn.dst
        if dst is None:
            op.phys_dst = op.prev_phys = None
        else:
            phys_dst = self._allocate(dst, op.seq)
            if phys_dst is None:
                for phys in srcs_phys:
                    consumers[phys] -= 1
                raise RuntimeError("rename called without a free register")
            prev_phys = rat[dst]
            self.architectural[prev_phys] = False
            rat[dst] = phys_dst
            op.phys_dst = phys_dst
            op.prev_phys = prev_phys
        op.srcs_phys = srcs_phys
        op.reads_outstanding = True
        op.prev_released = False

    # -- lifetime events ---------------------------------------------------

    def operands_read(self, op) -> None:
        """The instruction read its sources (issue) — decrement counts."""
        if not op.reads_outstanding:
            raise RuntimeError(f"operands of #{op.seq} read twice")
        op.reads_outstanding = False
        consumers = self.consumers
        for phys in op.srcs_phys:
            count = consumers[phys] - 1
            consumers[phys] = count
            if count:
                if count < 0:
                    raise RuntimeError(f"consumer underflow on p{phys}")
                continue
            if (self.overwriter_committed[phys]
                    and self.producer_done[phys]
                    and not self.architectural[phys] and self.live[phys]):
                self._reclaim(phys)
                self.freed += 1

    def producer_completed(self, op) -> None:
        """The producing instruction wrote back its value."""
        phys = op.phys_dst
        if phys is None or not self.live[phys] \
                or self.producer_seq[phys] != op.seq:
            # already reclaimed (oracle replay writing back late)
            return
        self.producer_done[phys] = True
        if (self.overwriter_committed[phys] and not self.consumers[phys]
                and not self.architectural[phys]):
            self._reclaim(phys)
            self.freed += 1

    def producer_replayed(self, op) -> None:
        """The producer was re-executed in place (oracle load replay):
        its result is in flight again, so the destination must not be
        reclaimed until the replay writes back."""
        phys = op.phys_dst
        if phys is not None and self.live[phys] \
                and self.producer_seq[phys] == op.seq:
            self.producer_done[phys] = False

    def writer_committed(self, op) -> None:
        """The instruction committed; reclaim per the active scheme."""
        prev = op.prev_phys
        if prev is None:
            return
        op.prev_released = True
        self.overwriter_committed[prev] = True
        if self.scheme == "inorder":
            # in-order commit: every older reader has committed
            self.consumers[prev] = 0
            self.producer_done[prev] = True
        if (self.producer_done[prev] and not self.consumers[prev]
                and not self.architectural[prev] and self.live[prev]):
            self._reclaim(prev)
            self.freed += 1

    # -- squash ----------------------------------------------------------------

    def squash(self, ops) -> None:
        """Undo renames, youngest first (ops may be any order)."""
        live = self.live
        consumers = self.consumers
        for op in sorted(ops, key=_SEQ, reverse=True):
            if op.reads_outstanding:
                for phys in op.srcs_phys:
                    if live[phys]:
                        consumers[phys] -= 1
            phys_dst = op.phys_dst
            if phys_dst is None:
                continue
            arch_dst = op.dyn.dst
            if op.prev_released:
                # Cherry-style early release already reclaimed
                # prev_phys (possibly re-allocated by now): the rename
                # is irreversible.  Keep phys_dst as the architectural
                # mapping so the refetched stream renames against it.
                if live[phys_dst] and self.rat[arch_dst] == phys_dst:
                    self.architectural[phys_dst] = True
                    self.overwriter_committed[phys_dst] = False
                continue
            prev = op.prev_phys
            self.rat[arch_dst] = prev
            self.architectural[prev] = True
            self.overwriter_committed[prev] = False
            self._reclaim(phys_dst)
