"""Instrumentation event bus: ordering, fast path, taxonomy completeness.

Three contracts:

* subscribers run in subscription order, and ``EventBus.attach`` wires
  every ``on_<type>`` method of an observer object;
* a core with no subscribers publishes nothing at all (the hot loop's
  zero-cost contract);
* the event taxonomy is complete — :class:`StatsSubscriber`, fed only
  events, reproduces the core's own ``SimStats`` field by field.
"""

import dataclasses

import pytest

from repro.isa import ProgramBuilder, trace_program
from repro.pipeline import (EventBus, EventRecorder, EventType, O3Core,
                            StatsSubscriber, base_config)
from repro.pipeline.events import CommitEvent, DispatchStall, FetchEvent
from repro.workloads import build_trace


def small_trace(name="gcc.mix", scale=0.1):
    return build_trace(name, scale)


class TestEventBus:
    def test_subscribers_run_in_subscription_order(self):
        bus = EventBus()
        calls = []
        bus.subscribe(EventType.FETCH, lambda ev: calls.append("first"))
        bus.subscribe(EventType.FETCH, lambda ev: calls.append("second"))
        bus.subscribe(EventType.FETCH, lambda ev: calls.append("third"))
        bus.publish(FetchEvent(0, 0, 0, False, False))
        assert calls == ["first", "second", "third"]

    def test_live_flags_track_subscriptions(self):
        bus = EventBus()
        assert not any(bus.live)
        bus.subscribe(EventType.COMMIT, lambda ev: None)
        assert bus.live[EventType.COMMIT]
        assert bus.wants(EventType.COMMIT)
        assert not bus.live[EventType.FETCH]

    def test_attach_binds_on_methods(self):
        bus = EventBus()
        seen = []

        class Observer:
            def on_commit(self, ev):
                seen.append(ev)

        bus.attach(Observer())
        assert bus.live[EventType.COMMIT]
        assert not bus.live[EventType.FETCH]
        event = CommitEvent(3, None, False, False)
        bus.publish(event)
        assert seen == [event]

    def test_published_counts_every_event(self):
        bus = EventBus()
        bus.subscribe(EventType.FETCH, lambda ev: None)
        for _ in range(5):
            bus.publish(FetchEvent(0, 0, 0, False, False))
        assert bus.published == 5


class TestZeroSubscriberFastPath:
    def test_unwatched_core_publishes_nothing(self):
        core = O3Core(small_trace(), base_config(scheduler="orinoco",
                                                 commit="orinoco"))
        core.run()
        assert core.bus.published == 0

    def test_attaching_does_not_change_results(self):
        trace = small_trace()
        config = base_config(scheduler="orinoco", commit="orinoco")
        plain = O3Core(trace, config).run()
        watched_core = O3Core(trace, config)
        watched_core.bus.attach(EventRecorder(limit=50))
        watched = watched_core.run()
        assert dataclasses.asdict(plain) == dataclasses.asdict(watched)
        assert watched_core.bus.published > 0


class TestStatsSubscriber:
    """The event taxonomy must be complete: a stats replica built only
    from events matches the core's inline counters field by field."""

    KERNELS = ["gcc.mix", "perl.branchy"]

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("commit,scheduler", [
        ("ioc", "age"), ("orinoco", "orinoco")])
    def test_replica_matches_core_stats(self, kernel, commit, scheduler):
        trace = small_trace(kernel, scale=0.1)
        core = O3Core(trace, base_config(scheduler=scheduler,
                                         commit=commit))
        replica = core.bus.attach(StatsSubscriber())
        stats = core.run()
        got = dataclasses.asdict(replica.stats)
        want = dataclasses.asdict(stats)
        assert got == want, {
            k: (want[k], got[k]) for k in want if got[k] != want[k]}

    def test_replica_matches_under_tso(self):
        # early load commits take §3.3 lockdowns
        trace = small_trace("fotonik.strided", scale=0.05)
        core = O3Core(trace, base_config(commit="orinoco", tso=True))
        replica = core.bus.attach(StatsSubscriber())
        stats = core.run()
        assert stats.lockdowns > 0
        assert dataclasses.asdict(replica.stats) == \
            dataclasses.asdict(stats)

    def test_replica_matches_with_zombie_commits(self):
        # VB retires incomplete instructions (zombies + early loads)
        trace = small_trace("gcc.mix", scale=0.1)
        core = O3Core(trace, base_config(commit="vb"))
        replica = core.bus.attach(StatsSubscriber())
        stats = core.run()
        assert dataclasses.asdict(replica.stats) == \
            dataclasses.asdict(stats)


class TestEventRecorder:
    def test_dump_format_and_truncation(self):
        core = O3Core(small_trace(), base_config())
        recorder = core.bus.attach(EventRecorder(limit=10))
        core.run()
        text = recorder.format()
        assert "event dump" in text and "FETCH" in text
        assert len(recorder.lines) == 10 and recorder.truncated
        # CYCLE events are counted but never printed
        assert recorder.counts["CYCLE"] == core.stats.cycles
        assert not any("CYCLE" in line for line in recorder.lines)


class TestDispatchStallSingleAttribution:
    """A blocked dispatch cycle charges exactly one resource — the
    first exhausted one in rob/iq/lq/sq/reg priority order — even when
    several are exhausted at once."""

    def _congested_core(self):
        # long div chain backs everything up: with a tiny ROB and IQ
        # both fill, plus LQ pressure from the loads
        b = ProgramBuilder("congest")
        b.li("x1", 100).li("x2", 7)
        prev = "x1"
        for i in range(6):
            reg = f"x{10 + i}"
            b.div(reg, prev, "x2")
            prev = reg
        for i in range(24):
            b.ld(f"x{8 + i % 4}", "x3", 8 * i)
            b.addi("x4", prev, i)
        b.halt()
        config = base_config(rob_size=8, iq_size=8, lq_size=4)
        return O3Core(trace_program(b.build()), config)

    def test_one_stall_event_per_blocked_cycle(self):
        core = self._congested_core()
        stalls_by_cycle = {}
        core.bus.subscribe(
            EventType.STALL,
            lambda ev: stalls_by_cycle.setdefault(ev.cycle, []).append(ev))
        stats = core.run()
        dispatch_stalls = {
            cycle: [e for e in evs if isinstance(e, DispatchStall)]
            for cycle, evs in stalls_by_cycle.items()}
        assert any(dispatch_stalls.values())
        for cycle, evs in dispatch_stalls.items():
            assert len(evs) <= 1, \
                f"cycle {cycle} charged {len(evs)} blockers: {evs}"
        # the counters add up to exactly the number of blocked cycles
        total = (stats.stall_rob + stats.stall_iq + stats.stall_lq
                 + stats.stall_sq + stats.stall_reg)
        assert total == sum(
            1 for evs in dispatch_stalls.values() if evs)

    def test_multiple_exhausted_resources_charge_highest_priority(self):
        core = self._congested_core()
        charged = []
        core.bus.subscribe(
            EventType.STALL,
            lambda ev: charged.append(ev) if isinstance(ev, DispatchStall)
            else None)
        core.run()
        # the priority rule: whenever the ROB was full, the charge
        # names the ROB regardless of what else was exhausted
        assert any(ev.resource == "rob" for ev in charged)
        for ev in charged:
            assert ev.resource in ("rob", "iq", "lq", "sq", "reg")
