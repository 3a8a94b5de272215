"""Quiescent-cycle fast-forward: skip stretches of pure stall time.

Long memory stalls dominate the cycle count of the modelled workloads:
the window is full, nothing is ready, and the machine burns hundreds of
identical cycles waiting for a cache miss to come back.  Each of those
cycles does no *work* — every stage either returns immediately or
increments the same stall/occupancy counters — so the simulator can
account for them in bulk without ticking the stages.

The mechanism is replay-and-verify, not a parallel model of the
pipeline:

1. A cheap :meth:`~FastForward._quiescent` predicate recognises a
   candidate cycle: nothing ready or retrying, the store buffer empty,
   fetch frozen (trace exhausted, backpressured, or waiting out a
   redirect), dispatch blocked, and no timed event (completion,
   frontend pipe, wrong-path wakeup) due at or before this cycle.
2. One normal cycle is stepped to *settle* any one-shot leftovers
   (e.g. a deferred in-order release draining).  If it made forward
   progress the attempt is abandoned — the step was real work.
3. A second normal cycle is stepped and its exact
   :class:`~repro.pipeline.stats.SimStats` delta is *measured*.  If
   any counter outside the known per-stall-cycle set moved, the
   attempt is abandoned.  Execution is therefore never wrong — at
   worst the fast path declines and the simulation proceeds
   cycle by cycle.
4. The measured delta is multiplied onto the remaining skip span
   ``k``, chosen so the skip never crosses the next timed event, the
   deadlock watchdog horizon, or the cycle budget — the cycles being
   skipped are provably identical to the measured one.

The one non-linear per-cycle effect is the sampled §2.2 commit-stall
statistic (every 8th stall cycle evaluates ``_account_commit_ready``
with weight 8).  The skip reproduces it analytically: the machine
state those samples would inspect is frozen, so the number of sample
points crossed in ``k`` cycles is computed in closed form and a single
weighted evaluation stands in for all of them.

Bit-exactness is enforced by ``tests/test_fastforward.py`` (field
identical stats with the feature on and off across policies) and by
the golden end-to-end snapshots.  ``REPRO_NO_FASTFORWARD=1`` disables
the feature; instrumented runs (any subscriber on per-cycle event
types) disable it automatically so event streams stay complete.
"""

from __future__ import annotations

import dataclasses

from ..envutil import env_flag
from .events import EventType
from .stats import SimStats

_CYCLE = EventType.CYCLE
_STALL = EventType.STALL
_MATRIX = EventType.MATRIX

#: counters a quiescent cycle may bump by the same amount every cycle;
#: their measured one-cycle delta is multiplied by the skip span
_SCALED = frozenset((
    "cycles",
    "commit_stall_cycles",
    "rob_check_ops", "rob_check_rows",
    "stall_rob", "stall_iq", "stall_lq", "stall_sq", "stall_reg",
    "full_window_stall_cycles",
    "rob_occupancy_sum", "iq_occupancy_sum",
    "lq_occupancy_sum", "rf_occupancy_sum",
))

#: counters fed only by the every-8th-stall-cycle sample; never scaled,
#: reproduced analytically instead
_SAMPLED = frozenset((
    "rob_full_commit_stall_cycles",
    "stalled_commit_ready_cycles",
    "full_window_commit_ready_cycles",
))

#: every integer counter of SimStats — the delta audit walks all of
#: them, so a counter added later makes the fast path decline (exact
#: stepping) instead of being scaled or dropped silently
_TRACKED = tuple(
    f.name for f in dataclasses.fields(SimStats)
    if f.name not in ("name", "memory", "predictor_accuracy"))


def enabled_by_env() -> bool:
    return not env_flag("REPRO_NO_FASTFORWARD", default=False)


class FastForward:
    """Per-core fast-forward engine driven from :meth:`O3Core.run`."""

    #: minimum whole-span worth attempting (two replay cycles are spent
    #: on settle+measure, so tiny spans are cheaper to just step)
    MIN_SPAN = 8

    def __init__(self, core):
        self.core = core
        self.s = core.state
        self._dispatch = core.stages[5]
        #: suppress retries for a while after a measured-delta bail so
        #: a misbehaving region cannot thrash settle/measure replays
        self._cooldown = 0

    # -- recognition ----------------------------------------------------

    def _quiescent(self, cycle: int) -> bool:
        s = self.s
        if s.ready_set or s.mem_retry or s.lsq.store_buffer:
            return False
        if s.frontend_pipe and s.frontend_pipe[0][0] <= cycle:
            return False
        if s.wp_ready and s.wp_ready[0][0] <= cycle:
            return False
        if s.completion_heap and s.completion_heap[0][0] <= cycle:
            return False
        fetch = s.fetch
        if not (fetch.next_seq >= fetch.trace_len
                or len(s.dispatch_buffer) >= 2 * s.config.dispatch_width
                or (fetch.stalled_on is None and cycle < fetch._resume_at)
                or (fetch.stalled_on is not None
                    and not fetch.model_wrong_path)):
            return False
        if s.dispatch_buffer and \
                self._dispatch._blocker(s.dispatch_buffer[0]) is None:
            return False
        live = s.bus.live
        if live[_CYCLE] or live[_STALL] or live[_MATRIX]:
            return False
        return True

    def _next_wake(self, cycle: int, max_cycles: int) -> int:
        """First cycle at which the frozen state can change (or a
        watchdog / budget boundary the exact path must hit itself)."""
        s = self.s
        wake = min(s.progress_cycle + 50_000, max_cycles)
        if s.completion_heap:
            wake = min(wake, s.completion_heap[0][0])
        if s.frontend_pipe:
            wake = min(wake, s.frontend_pipe[0][0])
        if s.wp_ready:
            wake = min(wake, s.wp_ready[0][0])
        fetch = s.fetch
        if fetch.next_seq < fetch.trace_len and fetch.stalled_on is None \
                and fetch._resume_at > cycle:
            wake = min(wake, fetch._resume_at)
        return wake

    # -- the skip -------------------------------------------------------

    def advance(self, max_cycles: int) -> bool:
        """Try to fast-forward from the current cycle.

        Returns True when it stepped the core at least once (the run
        loop just continues); False when the cycle is not quiescent and
        the caller should step normally.  Never steps past anything the
        exact path would have reacted to.  :meth:`O3Core.run` asks only
        while the ready set is empty (the predicate's first test).
        """
        core = self.core
        s = self.s
        c = s.cycle
        if c < self._cooldown or not self._quiescent(c):
            return False
        wake = self._next_wake(c, max_cycles)
        if wake - c < self.MIN_SPAN:
            # too short to amortise the settle+measure replay — and the
            # state is frozen until ``wake`` anyway, so there is nothing
            # to re-evaluate before then: branchy workloads hit this on
            # nearly every short stall, and without the back-off the
            # predicate + wake scan would run on every one of those
            # cycles for no possible gain
            self._cooldown = wake
            return False

        # settle: flush one-shot leftovers (deferred releases, FU busy
        # expiry) under the exact model
        core.step()
        if s.progress_cycle >= c or core.done() \
                or not self._quiescent(s.cycle):
            return True

        # measure one representative cycle
        snap = {name: getattr(s.stats, name) for name in _TRACKED}
        fetch_stall0 = s.fetch.stall_cycles
        c1 = s.cycle
        core.step()
        if s.progress_cycle >= c1 or core.done() \
                or not self._quiescent(s.cycle):
            return True
        stats = s.stats
        delta = {}
        for name, before in snap.items():
            d = getattr(stats, name) - before
            if d:
                delta[name] = d
        for name in delta:
            if name not in _SCALED and name not in _SAMPLED:
                # something outside the stall-cycle signature moved:
                # decline (and back off) rather than approximate
                self._cooldown = s.cycle + 256
                return True

        k = wake - s.cycle
        if k <= 0:
            return True
        for name, d in delta.items():
            if name in _SCALED:
                setattr(stats, name, getattr(stats, name) + d * k)
        fetch_delta = s.fetch.stall_cycles - fetch_stall0
        if fetch_delta:
            s.fetch.stall_cycles += fetch_delta * k
        if delta.get("commit_stall_cycles"):
            # the sampled §2.2 statistic: cycles whose stall count hits
            # a multiple of 8 evaluate _account_commit_ready(weight=8)
            # on state that is frozen for the whole span — n crossings
            # collapse into one weight-8n evaluation
            base = stats.commit_stall_cycles - k
            crossings = (base + k) // 8 - base // 8
            if crossings:
                core.commit_stage._account_commit_ready(
                    weight=8 * crossings)
        s.cycle += k
        return True
