"""Frontend stage: build fetched ops and feed them to the frontend pipe.

The heavy lifting (branch prediction, redirect penalties, wrong-path
synthesis) lives in :class:`~repro.frontend.FetchUnit`; this stage
applies fetch-queue backpressure, builds each fetched instruction's
:class:`~repro.pipeline.stages.InflightOp` (its one record until it
retires or is squashed), stamps the ``frontend_depth`` delay, and
publishes one :class:`~repro.pipeline.events.FetchEvent` per fetched
instruction.
"""

from __future__ import annotations

from ..events import EventType, FetchEvent
from .state import InflightOp, PipelineState

_FETCH = EventType.FETCH


class FetchStage:
    """Feeds the dispatch buffer through the frontend pipe."""

    def __init__(self, state: PipelineState):
        self.s = state

    def tick(self, cycle: int) -> None:
        s = self.s
        if len(s.dispatch_buffer) >= 2 * s.config.dispatch_width:
            return                       # fetch-queue backpressure
        fetch = s.fetch
        wrong_path = fetch.stalled_on is not None
        group = fetch.fetch(cycle)
        # wrong-path ops take the next negative seqs (-k for the k-th
        # fetched); a correct-path group's one mispredicted branch is
        # its last record, the one fetch now stalls on
        seq = len(group) - fetch.wrong_path_fetched
        stalled_on = fetch.stalled_on
        ready = cycle + s.config.frontend_depth
        bus = s.bus
        for dyn in group:
            seq = seq - 1 if wrong_path else dyn.seq
            mispredicted = seq == stalled_on
            if mispredicted:
                s.stats.branch_mispredicts += 1
                s.pc_mispredicts[dyn.pc] = s.pc_mispredicts.get(dyn.pc, 0) + 1
            if bus.live[_FETCH]:
                bus.publish(FetchEvent(cycle, seq, dyn.pc, mispredicted,
                                       wrong_path))
            s.frontend_pipe.append(
                (ready, InflightOp(dyn, seq, mispredicted, wrong_path)))
            s.progress_cycle = cycle
