"""Lane-stacked struct-of-arrays issue columns for the lane engine.

The lane-batched engine (:mod:`repro.pipeline.lanes`) steps N
independent (config, workload) cells in lockstep.  The cross-lane
select kernel (:mod:`repro.pipeline.vectorstages`) needs every lane's
IQ state as one array, so :class:`LaneStack` allocates each issue
column once with a leading **lane axis**::

    issue_ready: (lanes, iq_size) bool    # mirrors PipelineState.ready_set
    iq_stamp   : (lanes, iq_size) int64   # occupant's order key
    iq_fu      : (lanes, iq_size) int8    # occupant's FU code

and hands each lane a :class:`LaneSlot` of 1-D *views* into those
stacks, which its :class:`~repro.pipeline.stages.PipelineState` writes
in place.  Everything else a core holds is per-lane Python state, so
per-cell semantics (and therefore ``SimStats``) are identical to the
serial engine by construction.

Slot reuse protocol: when a lane retires its cell, the next occupant's
``PipelineState`` re-zeroes the slot's columns.
"""

from __future__ import annotations

import numpy as np

__all__ = ["LaneSlot", "LaneStack"]


class LaneSlot:
    """One lane's worth of views into a :class:`LaneStack`."""

    __slots__ = ("lane", "iq_size", "issue_ready", "iq_stamp", "iq_fu")

    def __init__(self, lane: int, iq_size: int, issue_ready: np.ndarray,
                 iq_stamp: np.ndarray, iq_fu: np.ndarray):
        self.lane = lane
        self.iq_size = iq_size
        self.issue_ready = issue_ready
        self.iq_stamp = iq_stamp
        self.iq_fu = iq_fu


class LaneStack:
    """Lane-stacked issue columns for up to ``lanes`` cells.

    All cells sharing a stack must agree on ``iq_size`` (the harness
    groups by :func:`~repro.pipeline.lanes.lane_key`).
    """

    def __init__(self, lanes: int, iq_size: int):
        if lanes < 1:
            raise ValueError("lane count must be positive")
        if iq_size <= 0:
            raise ValueError("IQ size must be positive")
        self.lanes = lanes
        self.iq_size = iq_size
        # ``issue_ready`` mirrors each lane's ``PipelineState.ready_set``
        # bit-for-bit (maintained by the MirroredReadySet wrapper);
        # ``iq_stamp`` / ``iq_fu`` hold the occupant's order key
        # (repro.scheduler.order_key) and FU code, written at dispatch.
        # Freed entries keep stale keys — the kernels mask with
        # ``issue_ready``, which only covers live ready entries, so
        # stale values are never read.
        self.issue_ready = np.zeros((lanes, iq_size), dtype=bool)
        self.iq_stamp = np.zeros((lanes, iq_size), dtype=np.int64)
        self.iq_fu = np.zeros((lanes, iq_size), dtype=np.int8)

    def slot(self, lane: int) -> LaneSlot:
        """Views for one lane, ready to back a ``PipelineState``."""
        if not 0 <= lane < self.lanes:
            raise IndexError(f"lane {lane} out of range 0..{self.lanes - 1}")
        return LaneSlot(lane, self.iq_size, self.issue_ready[lane],
                        self.iq_stamp[lane], self.iq_fu[lane])

    def __repr__(self) -> str:
        return f"<LaneStack lanes={self.lanes} iq={self.iq_size}>"
