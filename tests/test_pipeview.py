"""Pipeline timeline viewer."""

import pytest

from repro.isa import ProgramBuilder, trace_program
from repro.pipeline import O3Core, Timeline, base_config
from repro.workloads import build_trace


def run_with_timeline(commit="orinoco", max_entries=10_000):
    b = ProgramBuilder("t")
    b.li("x1", 100).li("x2", 7)
    b.div("x3", "x1", "x2")          # slow head
    for i in range(5):
        b.addi(f"x{10 + i}", "x1", i)
    b.halt()
    core = O3Core(trace_program(b.build()), base_config(commit=commit))
    timeline = Timeline.attach(core, max_entries=max_entries)
    core.run()
    return timeline


class TestTimeline:
    def test_records_every_committed_instruction(self):
        timeline = run_with_timeline()
        assert len(timeline.entries) == 9

    def test_stage_ordering_per_instruction(self):
        timeline = run_with_timeline()
        for entry in timeline.entries:
            assert entry.dispatched <= entry.issued
            assert entry.issued < entry.completed
            assert entry.completed <= entry.committed

    def test_ooo_commit_visible(self):
        orinoco = run_with_timeline("orinoco")
        ioc = run_with_timeline("ioc")
        assert orinoco.out_of_order_commits() > 0
        assert ioc.out_of_order_commits() == 0

    def test_render_contains_marks(self):
        timeline = run_with_timeline()
        text = timeline.render()
        for mark in "DICR":
            assert mark in text
        assert "div" in text

    def test_render_empty(self):
        assert Timeline().render() == "(empty timeline)"

    def test_truncation(self):
        timeline = run_with_timeline(max_entries=3)
        assert timeline.truncated
        assert len(timeline.entries) == 3
        assert "truncated" in timeline.render()

    def test_commit_latency(self):
        timeline = run_with_timeline()
        latency = timeline.commit_latency(2)      # the divide
        assert latency is not None and latency > 10
        assert timeline.commit_latency(999) is None

    def test_render_window_selection(self):
        timeline = run_with_timeline()
        text = timeline.render(first=3, count=2)
        assert "#    3" in text and "#    5" not in text


class TestSquashedRendering:
    """Squashed (wrong-path) work arrives via squash events and renders
    dimmed: lowercase marks, an ``x`` at the squash, a ``~`` tag."""

    def run_with_squashes(self):
        b = ProgramBuilder("squashy")
        b.li("x1", 0).li("x2", 12).li("x3", 64)
        b.label("loop")
        b.ld("x4", "x3", 0)
        b.add("x5", "x4", "x1")
        b.addi("x1", "x1", 1)
        b.blt("x1", "x2", "loop")       # mispredicts at loop exit
        b.halt()
        core = O3Core(trace_program(b.build()),
                      base_config(commit="orinoco"))
        timeline = Timeline.attach(core)
        core.run()
        return core, timeline

    def test_squashed_ops_recorded_with_distinct_mark(self):
        core, timeline = self.run_with_squashes()
        assert core.stats.branch_mispredicts > 0
        squashed = timeline.squashed_entries()
        assert squashed, "mispredicted run must record squashed entries"
        for entry in squashed:
            assert entry.squashed and entry.squashed_at is not None
            assert entry.committed is None or entry.squashed

    def test_squashed_rows_render_dimmed(self):
        _, timeline = self.run_with_squashes()
        text = timeline.render(count=200)
        dimmed = [line for line in text.splitlines() if "~" in line]
        assert dimmed, "squashed rows must carry the dim tag"
        assert any("x" in line for line in dimmed)
        # dimmed rows never use the bright commit mark
        for line in dimmed:
            assert "R" not in line.split("|", 1)[-1]

    def test_wrong_path_ops_carry_their_dispatch_mark(self):
        """Wrong-path ops are dispatched like any other: every one that
        issued shows a dispatch cycle no later than its issue cycle."""
        core = O3Core(build_trace("gcc.mix", scale=0.05), base_config())
        timeline = Timeline.attach(core)
        core.run()
        issued = [e for e in timeline.squashed_entries()
                  if e.seq < 0 and e.issued is not None]
        assert issued, "the run must issue wrong-path ops"
        assert all(e.dispatched is not None and e.dispatched <= e.issued
                   for e in issued)

    def test_committed_rows_unaffected(self):
        _, timeline = self.run_with_squashes()
        committed = [e for e in timeline.entries if not e.squashed]
        assert committed
        assert all(e.committed is not None for e in committed)
