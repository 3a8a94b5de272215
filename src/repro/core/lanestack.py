"""Lane-stacked struct-of-arrays storage for the matrix schedulers.

The lane-batched engine (:mod:`repro.pipeline.lanes`) steps N
independent (config, workload) cells in lockstep.  Each cell's matrix
state — the wakeup matrix and the merged ROB age/SPEC matrix — would
normally live in per-core ``np.zeros`` blocks scattered across the
heap.  :class:`LaneStack` instead allocates one 3-D array per plane
with a leading **lane axis**::

    wakeup_bits   : (lanes, iq_size, iq_size)   bool
    wakeup_pending: (lanes, iq_size)            intp
    rob_age_bits  : (lanes, rob_size, rob_size) bool
    ...

and hands each lane a :class:`LaneSlot` of 2-D/1-D *views* into those
stacks.  The matrix classes accept the views through their ``storage``
parameter and operate on them exactly as they would on owned arrays —
so per-cell semantics (and therefore ``SimStats``) are identical to
the scalar engine by construction, while cross-lane operations
(occupancy sampling, the batched ``REPRO_CHECK`` re-derivation in
:meth:`LaneStack.verify`) become single vectorised NumPy calls over
the lane axis.

Slot reuse protocol: when a lane retires its cell, the next occupant's
matrix constructors re-zero every *state* plane of the slot (``bits``,
``valid``, ``critical``, ``pending``, ``ready``, ``spec``,
``blockers``, ``safe``, ``rob_scratch``); the ``and_plane`` scratch
planes carry no state and are never cleared (matching the owned
``np.empty`` allocation of the scalar path).
"""

from __future__ import annotations

from typing import Iterable, List

import numpy as np

from . import check

__all__ = ["BitPlanes", "AgePlanes", "WakeupPlanes", "MergedPlanes",
           "LaneSlot", "LaneStack"]


class BitPlanes:
    """Views backing one :class:`~repro.core.BitMatrix`."""

    __slots__ = ("bits", "and_plane")

    def __init__(self, bits: np.ndarray, and_plane: np.ndarray):
        self.bits = bits
        self.and_plane = and_plane


class AgePlanes:
    """Views backing one :class:`~repro.core.AgeMatrix`."""

    __slots__ = ("bit", "valid", "critical")

    def __init__(self, bit: BitPlanes, valid: np.ndarray,
                 critical: np.ndarray):
        self.bit = bit
        self.valid = valid
        self.critical = critical


class WakeupPlanes:
    """Views backing one :class:`~repro.core.WakeupMatrix`."""

    __slots__ = ("bit", "valid", "pending", "ready")

    def __init__(self, bit: BitPlanes, valid: np.ndarray,
                 pending: np.ndarray, ready: np.ndarray):
        self.bit = bit
        self.valid = valid
        self.pending = pending
        self.ready = ready


class MergedPlanes:
    """Views backing one :class:`~repro.core.MergedCommitMatrix`."""

    __slots__ = ("age", "spec", "blockers", "safe")

    def __init__(self, age: AgePlanes, spec: np.ndarray,
                 blockers: np.ndarray, safe: np.ndarray):
        self.age = age
        self.spec = spec
        self.blockers = blockers
        self.safe = safe


class LaneSlot:
    """One lane's worth of views into a :class:`LaneStack`."""

    __slots__ = ("lane", "iq_size", "rob_size", "wakeup", "merged",
                 "rob_scratch", "issue_ready", "iq_stamp", "iq_fu")

    def __init__(self, lane: int, iq_size: int, rob_size: int,
                 wakeup: WakeupPlanes, merged: MergedPlanes,
                 rob_scratch: np.ndarray, issue_ready: np.ndarray,
                 iq_stamp: np.ndarray, iq_fu: np.ndarray):
        self.lane = lane
        self.iq_size = iq_size
        self.rob_size = rob_size
        self.wakeup = wakeup
        self.merged = merged
        self.rob_scratch = rob_scratch
        self.issue_ready = issue_ready
        self.iq_stamp = iq_stamp
        self.iq_fu = iq_fu


class LaneStack:
    """3-D lane-stacked matrix state for up to ``lanes`` cells.

    All cells sharing a stack must agree on ``iq_size`` and
    ``rob_size`` (the harness groups by :func:`~repro.pipeline.lanes.
    lane_key`, which also pins queue organisation and ROB release
    policy so batch-mates exercise the same structures).
    """

    def __init__(self, lanes: int, iq_size: int, rob_size: int):
        if lanes < 1:
            raise ValueError("lane count must be positive")
        if iq_size <= 0 or rob_size <= 0:
            raise ValueError("matrix dimensions must be positive")
        self.lanes = lanes
        self.iq_size = iq_size
        self.rob_size = rob_size
        shape_iq = (lanes, iq_size, iq_size)
        shape_rob = (lanes, rob_size, rob_size)
        # wakeup matrix planes
        self.wakeup_bits = np.zeros(shape_iq, dtype=bool)
        self.wakeup_and = np.empty(shape_iq, dtype=bool)
        self.wakeup_valid = np.zeros((lanes, iq_size), dtype=bool)
        self.wakeup_pending = np.zeros((lanes, iq_size), dtype=np.intp)
        self.wakeup_ready = np.zeros((lanes, iq_size), dtype=bool)
        # merged ROB age/SPEC planes
        self.rob_age_bits = np.zeros(shape_rob, dtype=bool)
        self.rob_age_and = np.empty(shape_rob, dtype=bool)
        self.rob_age_valid = np.zeros((lanes, rob_size), dtype=bool)
        self.rob_age_critical = np.zeros((lanes, rob_size), dtype=bool)
        self.spec = np.zeros((lanes, rob_size), dtype=bool)
        self.blockers = np.zeros((lanes, rob_size), dtype=np.intp)
        self.safe = np.zeros((lanes, rob_size), dtype=bool)
        # per-lane ROB-sized bool scratch (PipelineState.rob_scratch)
        self.rob_scratch = np.zeros((lanes, rob_size), dtype=bool)
        # issue-stage struct-of-arrays columns (repro.pipeline.
        # vectorstages): the per-op Python state the vectorized select
        # kernel needs, promoted to lane-axis planes.  ``issue_ready``
        # mirrors each lane's ``PipelineState.ready_set`` bit-for-bit
        # (maintained by the MirroredReadySet wrapper); ``iq_stamp`` /
        # ``iq_fu`` hold the occupant's order key (repro.scheduler.
        # order_key) and FU code, written at dispatch.  Freed entries
        # keep stale keys — the kernels mask with ``issue_ready``,
        # which only covers live ready entries, so stale values are
        # never read.
        self.issue_ready = np.zeros((lanes, iq_size), dtype=bool)
        self.iq_stamp = np.zeros((lanes, iq_size), dtype=np.int64)
        self.iq_fu = np.zeros((lanes, iq_size), dtype=np.int8)

    def slot(self, lane: int) -> LaneSlot:
        """Views for one lane, ready to back a ``PipelineState``."""
        if not 0 <= lane < self.lanes:
            raise IndexError(f"lane {lane} out of range 0..{self.lanes - 1}")
        wakeup = WakeupPlanes(
            BitPlanes(self.wakeup_bits[lane], self.wakeup_and[lane]),
            self.wakeup_valid[lane], self.wakeup_pending[lane],
            self.wakeup_ready[lane])
        merged = MergedPlanes(
            AgePlanes(
                BitPlanes(self.rob_age_bits[lane], self.rob_age_and[lane]),
                self.rob_age_valid[lane], self.rob_age_critical[lane]),
            self.spec[lane], self.blockers[lane], self.safe[lane])
        return LaneSlot(lane, self.iq_size, self.rob_size, wakeup,
                        merged, self.rob_scratch[lane],
                        self.issue_ready[lane], self.iq_stamp[lane],
                        self.iq_fu[lane])

    # -- batched cross-lane operations ---------------------------------

    def iq_occupancy(self) -> np.ndarray:
        """Valid-IQ-entry count per lane: one reduction over the stack."""
        return np.count_nonzero(self.wakeup_valid, axis=1)

    def rob_occupancy(self) -> np.ndarray:
        """Valid-ROB-entry count per lane."""
        return np.count_nonzero(self.rob_age_valid, axis=1)

    def verify(self, lanes: Iterable[int]) -> None:
        """Batched ``REPRO_CHECK`` re-derivation across active lanes.

        Re-derives the wakeup pending counters and the merged blocker
        counters from the stacked bit planes for *all* given lanes in
        a handful of vectorised operations, and compares them against
        the incremental caches — the cross-lane analogue of the
        per-operation ``_verify`` hooks on the scalar matrices.
        Counters of invalid rows are garbage by contract and excluded.
        """
        idx: List[int] = list(lanes)
        if not idx:
            return
        counts = self.wakeup_bits[idx].sum(axis=2)
        bad = self.wakeup_valid[idx] & (counts != self.wakeup_pending[idx])
        if bad.any():
            lane, entry = (int(v[0]) for v in np.nonzero(bad))
            raise check.CheckError(
                f"lane-stack wakeup pending diverged: lane {idx[lane]} "
                f"entry {entry} cached="
                f"{int(self.wakeup_pending[idx[lane], entry])} "
                f"matrix={int(counts[lane, entry])}")
        blockers = (self.rob_age_bits[idx]
                    & self.spec[idx][:, None, :]).sum(axis=2)
        bad = self.rob_age_valid[idx] & (blockers != self.blockers[idx])
        if bad.any():
            lane, entry = (int(v[0]) for v in np.nonzero(bad))
            raise check.CheckError(
                f"lane-stack merged blockers diverged: lane {idx[lane]} "
                f"entry {entry} cached="
                f"{int(self.blockers[idx[lane], entry])} "
                f"matrix={int(blockers[lane, entry])}")

    def __repr__(self) -> str:
        return (f"<LaneStack lanes={self.lanes} iq={self.iq_size} "
                f"rob={self.rob_size}>")
