"""Register renaming: RAT, split register files, RST reclamation."""

from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa import (NUM_ARCH_REGS, DynInstr, OpClass, Opcode, fp_reg,
                       is_fp)
from repro.rename import PhysRegFreeList, RenameUnit


def make_instr(seq, dst=None, srcs=()):
    return DynInstr(seq=seq, pc=seq, opcode=Opcode.ADD,
                    op_class=OpClass.INT_ALU, dst=dst, srcs=tuple(srcs),
                    imm=0, addr=None, taken=False, next_pc=seq + 1,
                    fault=False, critical=False)


class Op:
    """Stand-in for the pipeline's op: its seq, its trace record, and
    the rename slots :meth:`RenameUnit.rename` writes."""

    __slots__ = ("seq", "dyn", "srcs_phys", "phys_dst", "prev_phys",
                 "reads_outstanding", "prev_released")

    def __init__(self, instr):
        self.seq = instr.seq
        self.dyn = instr


def renamed(unit, seq, dst=None, srcs=()):
    """Rename a fresh op of ``make_instr(seq, dst, srcs)`` and return it."""
    op = Op(make_instr(seq, dst=dst, srcs=srcs))
    unit.rename(op)
    return op


class TestFreeList:
    def test_allocate_free_cycle(self):
        fl = PhysRegFreeList(4)
        regs = [fl.allocate() for _ in range(4)]
        assert fl.allocate() is None
        fl.free(regs[2])
        assert fl.allocate() == regs[2]

    def test_double_free(self):
        fl = PhysRegFreeList(2)
        reg = fl.allocate()
        fl.free(reg)
        with pytest.raises(ValueError):
            fl.free(reg)


class TestRenameBasics:
    def test_initial_mappings_consume_arch_regs(self):
        r = RenameUnit(100, "inorder")
        assert r.int_freelist.occupancy() == 32
        assert r.fp_freelist.occupancy() == 32

    def test_sources_map_through_rat(self):
        r = RenameUnit(100, "inorder")
        w = renamed(r, 0, dst=5)
        c = renamed(r, 1, srcs=(5,))
        assert c.srcs_phys == (w.phys_dst,)

    def test_split_files(self):
        r = RenameUnit(100, "inorder")
        rec_int = renamed(r, 0, dst=3)
        rec_fp = renamed(r, 1, dst=fp_reg(3))
        assert rec_int.phys_dst < 100
        assert rec_fp.phys_dst >= 100

    def test_can_rename_per_class(self):
        r = RenameUnit(33, "inorder")   # 1 spare int, 1 spare fp
        assert r.can_rename(5)
        renamed(r, 0, dst=5)
        assert not r.can_rename(6)
        assert r.can_rename(fp_reg(0))   # fp pool untouched
        assert r.can_rename(None)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            RenameUnit(32)
        with pytest.raises(ValueError):
            RenameUnit(100, "bogus")


class TestInOrderReclamation:
    def test_prev_mapping_freed_at_overwriter_commit(self):
        r = RenameUnit(100, "inorder")
        first = renamed(r, 0, dst=7)
        second = renamed(r, 1, dst=7)
        before = r.int_freelist.available
        r.writer_committed(second)
        assert r.int_freelist.available == before + 1

    def test_architectural_mapping_never_freed(self):
        r = RenameUnit(100, "inorder")
        rec = renamed(r, 0, dst=7)
        r.writer_committed(rec)      # frees the *previous* mapping only
        assert r.int_freelist.is_live(rec.phys_dst)


class TestCounterReclamation:
    def test_waits_for_consumers(self):
        r = RenameUnit(100, "counter")
        writer = renamed(r, 0, dst=7)
        r.producer_completed(writer)
        reader = renamed(r, 1, srcs=(7,))
        overwriter = renamed(r, 2, dst=7)
        before = r.int_freelist.available
        r.writer_committed(overwriter)   # reader hasn't read yet
        assert r.int_freelist.available == before
        r.operands_read(reader)
        assert r.int_freelist.available == before + 1

    def test_waits_for_producer_completion(self):
        r = RenameUnit(100, "counter")
        writer = renamed(r, 0, dst=7)
        overwriter = renamed(r, 1, dst=7)
        before = r.int_freelist.available
        r.writer_committed(overwriter)
        assert r.int_freelist.available == before   # value not produced
        r.producer_completed(writer)
        assert r.int_freelist.available == before + 1

    def test_double_read_rejected(self):
        r = RenameUnit(100, "counter")
        renamed(r, 0, dst=7)
        reader = renamed(r, 1, srcs=(7,))
        r.operands_read(reader)
        with pytest.raises(RuntimeError):
            r.operands_read(reader)


class TestSquash:
    def test_rat_restored(self):
        r = RenameUnit(100, "counter")
        keep = renamed(r, 0, dst=7)
        victim1 = renamed(r, 1, dst=7)
        victim2 = renamed(r, 2, dst=7)
        r.squash([victim1, victim2])
        assert r.rat[7] == keep.phys_dst

    def test_squashed_registers_returned(self):
        r = RenameUnit(100, "counter")
        before = r.int_freelist.available
        victims = [renamed(r, i, dst=i % 5) for i in range(5)]
        r.squash(victims)
        assert r.int_freelist.available == before

    def test_consumer_counts_undone(self):
        r = RenameUnit(100, "counter")
        writer = renamed(r, 0, dst=7)
        r.producer_completed(writer)
        reader = renamed(r, 1, srcs=(7,))      # unread consumer
        overwriter = renamed(r, 2, dst=7)
        r.squash([reader, overwriter])
        rec3 = renamed(r, 3, dst=7)
        before = r.int_freelist.available
        r.writer_committed(rec3)
        # writer's register frees: the squashed reader's count was undone
        assert r.int_freelist.available == before + 1


# -- the RST columns against the dict-of-entries reference ---------------

@dataclass
class RenameRecord:
    """The reference unit's per-instruction rename outcome: the record
    the rename used to return, kept beside each op."""

    seq: int
    arch_dst: object
    phys_dst: object
    prev_phys: object
    srcs_phys: tuple
    reads_outstanding: bool = True
    released: bool = False


def rename_slots(op):
    """``op``'s rename outcome in the reference record's field order."""
    return (op.seq, op.dyn.dst, op.phys_dst, op.prev_phys, op.srcs_phys,
            op.reads_outstanding, op.prev_released)


def record_fields(record):
    return (record.seq, record.arch_dst, record.phys_dst, record.prev_phys,
            record.srcs_phys, record.reads_outstanding, record.released)


@dataclass
class RSTEntry:
    """One register's status: the reference RST's row object."""

    consumers: int = 0
    producer_done: bool = False
    overwriter_committed: bool = False
    architectural: bool = True
    producer_seq: int = -1


class ReferenceRenameUnit:
    """The RST as a dict of :class:`RSTEntry`, one per live register,
    checking every freeing condition after every event that touches a
    register — the representation :class:`RenameUnit` replaced."""

    def __init__(self, num_phys_regs, scheme="inorder"):
        self.scheme = scheme
        self.num_phys_regs = num_phys_regs
        self.int_freelist = PhysRegFreeList(num_phys_regs)
        self.fp_freelist = PhysRegFreeList(num_phys_regs)
        self.rst = {}
        self.rat = []
        for arch in range(NUM_ARCH_REGS):
            phys = self._allocate(arch)
            self.rat.append(phys)
            self.rst[phys] = RSTEntry(producer_done=True)
        self.freed = 0

    def _allocate(self, arch_reg):
        if is_fp(arch_reg):
            phys = self.fp_freelist.allocate()
            return None if phys is None else self.num_phys_regs + phys
        return self.int_freelist.allocate()

    def _free_phys(self, phys):
        if phys >= self.num_phys_regs:
            self.fp_freelist.free(phys - self.num_phys_regs)
        else:
            self.int_freelist.free(phys)

    def can_rename(self, dst_reg):
        if dst_reg is None:
            return True
        pool = self.fp_freelist if is_fp(dst_reg) else self.int_freelist
        return pool.available > 0

    def rename(self, instr):
        srcs_phys = tuple(self.rat[src] for src in instr.srcs)
        for phys in srcs_phys:
            self.rst[phys].consumers += 1
        phys_dst = None
        prev_phys = None
        if instr.dst is not None:
            phys_dst = self._allocate(instr.dst)
            prev_phys = self.rat[instr.dst]
            self.rst[prev_phys].architectural = False
            self.rat[instr.dst] = phys_dst
            self.rst[phys_dst] = RSTEntry(producer_seq=instr.seq)
        return RenameRecord(instr.seq, instr.dst, phys_dst, prev_phys,
                            srcs_phys)

    def operands_read(self, record):
        record.reads_outstanding = False
        for phys in record.srcs_phys:
            entry = self.rst[phys]
            entry.consumers -= 1
            assert entry.consumers >= 0
            self._maybe_free(phys)

    def producer_completed(self, record):
        if record.phys_dst is None:
            return
        entry = self.rst.get(record.phys_dst)
        if entry is None or entry.producer_seq != record.seq:
            return
        entry.producer_done = True
        self._maybe_free(record.phys_dst)

    def producer_replayed(self, record):
        if record.phys_dst is None:
            return
        entry = self.rst.get(record.phys_dst)
        if entry is not None and entry.producer_seq == record.seq:
            entry.producer_done = False

    def writer_committed(self, record):
        if record.phys_dst is None or record.prev_phys is None:
            return
        record.released = True
        prev = self.rst[record.prev_phys]
        prev.overwriter_committed = True
        if self.scheme == "inorder":
            prev.consumers = 0
            prev.producer_done = True
        self._maybe_free(record.prev_phys)

    def _maybe_free(self, phys):
        entry = self.rst.get(phys)
        if entry is None or entry.architectural:
            return
        if (entry.overwriter_committed and entry.producer_done
                and entry.consumers == 0):
            del self.rst[phys]
            self._free_phys(phys)
            self.freed += 1

    def squash(self, records):
        for record in sorted(records, key=lambda r: r.seq, reverse=True):
            if record.reads_outstanding:
                for phys in record.srcs_phys:
                    if phys in self.rst:
                        self.rst[phys].consumers -= 1
            if record.phys_dst is None:
                continue
            if record.released:
                entry = self.rst.get(record.phys_dst)
                if (entry is not None
                        and self.rat[record.arch_dst] == record.phys_dst):
                    entry.architectural = True
                    entry.overwriter_committed = False
                continue
            self.rat[record.arch_dst] = record.prev_phys
            self.rst[record.prev_phys].architectural = True
            self.rst[record.prev_phys].overwriter_committed = False
            del self.rst[record.phys_dst]
            self._free_phys(record.phys_dst)


def _assert_same_state(ref, unit):
    assert unit.rat == ref.rat
    for name in ("int_freelist", "fp_freelist"):
        mine, theirs = getattr(unit, name), getattr(ref, name)
        assert mine._free == theirs._free, name   # allocation order too
        assert mine.available == theirs.available, name
    assert unit.freed == ref.freed
    live = {phys for phys, flag in enumerate(unit.live) if flag}
    assert live == set(ref.rst)
    assert unit.live_regs == len(live)
    for phys, entry in ref.rst.items():
        assert (unit.consumers[phys], unit.producer_done[phys],
                unit.overwriter_committed[phys], unit.architectural[phys],
                unit.producer_seq[phys]) == \
            (entry.consumers, entry.producer_done,
             entry.overwriter_committed, entry.architectural,
             entry.producer_seq), f"p{phys}"


#: few architectural registers, so renames overwrite each other often
_REGS = st.sampled_from([1, 2, fp_reg(0)])
#: action weights: renames keep registers flowing; completions are
#: rarer than reads and commits, so registers whose overwriter committed
#: often still wait for their producer (the case the RST exists for)
_ACTIONS = st.sampled_from(["rename"] * 4 + ["read", "commit"] * 2
                           + ["complete", "replay", "squash"])


@settings(max_examples=150, deadline=None)
@given(scheme=st.sampled_from(["inorder", "counter"]), data=st.data())
def test_rst_columns_match_the_dict_reference(scheme, data):
    """Property: over random legal histories of rename, operands read,
    producer completed, producer replayed, writer committed and squash,
    the column RST and the dict-of-entries reference agree after every
    step: the RAT, both free lists, ``freed``, the live set, every
    live register's status, and each op's rename slots against the
    reference's record of it.

    Legality follows the pipeline: an op reads its operands once,
    completes only after reading them, replays only after completing,
    and is squashed with everything younger unless it committed.  Under
    ``inorder`` ops commit in program order once complete; under
    ``counter`` any op may commit (a validation-buffer zombie commits
    before it executes), the youngest half the time, or release early
    and still be squashed, though never after its own destination was
    reclaimed under it.  A squash rewinds the seq counter, so a
    refetched op reuses the seq of its squashed incarnation."""
    num_phys = NUM_ARCH_REGS // 2 + data.draw(st.integers(1, 6))
    ref = ReferenceRenameUnit(num_phys, scheme)
    unit = RenameUnit(num_phys, scheme)
    ops = []                  # (seq, ref record, unit op, state dict)
    next_seq = 0
    for _ in range(data.draw(st.integers(1, 80))):
        live_ops = [op for op in ops if not op[3]["squashed"]]
        action = data.draw(_ACTIONS)
        if action == "rename":
            dst = data.draw(st.one_of(st.none(), _REGS))
            srcs = tuple(data.draw(st.lists(_REGS, max_size=2)))
            assert unit.can_rename(dst) == ref.can_rename(dst)
            if not ref.can_rename(dst):
                continue
            instr = make_instr(next_seq, dst=dst, srcs=srcs)
            ref_rec, rec = ref.rename(instr), Op(instr)
            unit.rename(rec)
            assert rename_slots(rec) == record_fields(ref_rec)
            ops.append((next_seq, ref_rec, rec,
                        {"squashed": False, "read": False,
                         "completed": False, "committed": False}))
            next_seq += 1
        elif action == "read":
            pending = [op for op in live_ops if not op[3]["read"]]
            if not pending:
                continue
            op = data.draw(st.sampled_from(pending))
            op[3]["read"] = True
            ref.operands_read(op[1])
            unit.operands_read(op[2])
        elif action == "complete":
            ready = [op for op in live_ops if op[3]["read"]]
            if not ready:
                continue
            op = data.draw(st.sampled_from(ready))
            op[3]["completed"] = True
            ref.producer_completed(op[1])
            unit.producer_completed(op[2])
        elif action == "replay":
            done = [op for op in live_ops
                    if op[3]["completed"] and not op[3]["committed"]]
            if not done:
                continue
            op = data.draw(st.sampled_from(done))
            op[3]["completed"] = False
            ref.producer_replayed(op[1])
            unit.producer_replayed(op[2])
        elif action == "commit":
            waiting = [op for op in live_ops if not op[3]["committed"]]
            if scheme == "inorder":
                waiting = waiting[:1]
                if not waiting or not waiting[0][3]["completed"]:
                    continue
            if not waiting:
                continue
            op = waiting[-1] if data.draw(st.booleans()) \
                else data.draw(st.sampled_from(waiting))
            if op[2].prev_released:
                continue            # released early; commit frees nothing
            # under counter, an early release leaves the op squashable
            early = scheme == "counter" and data.draw(st.booleans())
            op[3]["committed"] = not early
            ref.writer_committed(op[1])
            unit.writer_committed(op[2])
        else:
            # squash from a point past every committed op (commit
            # never runs ahead of an older op that can still squash)
            low = 1 + max((op[0] for op in live_ops if op[3]["committed"]),
                          default=-1)
            if low > next_seq:
                continue
            point = data.draw(st.integers(low, next_seq))
            victims = [op for op in live_ops if op[0] >= point]
            if any(not op[1].released and op[1].phys_dst is not None
                   and ref.rst.get(op[1].phys_dst, RSTEntry()).producer_seq
                   != op[0] for op in victims):
                # an early release reclaimed a victim's destination:
                # neither side can undo that rename
                continue
            for op in victims:
                op[3]["squashed"] = True
            order = data.draw(st.permutations(victims))
            ref.squash([op[1] for op in order])
            unit.squash([op[2] for op in order])
            next_seq = point
        _assert_same_state(ref, unit)
        for op in ops:
            assert rename_slots(op[2]) == record_fields(op[1]), op[0]
