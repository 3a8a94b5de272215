"""Parallel executor + result cache: determinism, dedup, leak safety.

The non-negotiable invariant: serial, ``workers=1``, ``workers=4``,
and cache-hit paths all produce bit-identical ``SimStats``.  Relative
IPC comparisons between scheduler/commit policies only hold if a
cell's result never depends on how (or how many times) it was run.
"""

import dataclasses
import json
import pathlib

import pytest

import repro.harness.parallel as parallel
from repro.criticality import CriticalityTagger, clear_tags
from repro.harness import (CellStatus, Job, ResultCache, SuiteResult,
                           cache_key, jobs_for, run_config,
                           run_config_with_criticality,
                           run_criticality_suite, run_suite)
from repro.isa import Trace
from repro.pipeline import O3Core, base_config, ultra_config
from repro.workloads import (build_suite, build_trace, clear_trace_cache,
                             generation_params, trace_cache_stats)

WORKLOADS = ["gcc.mix", "x264.divint", "perl.branchy"]
SCALE = 0.25
CONFIGS = [
    ("age+ioc", base_config(scheduler="age", commit="ioc")),
    ("orinoco", base_config(scheduler="orinoco", commit="orinoco")),
]
MULT_CONFIG = base_config(scheduler="mult", commit="ioc")
#: commit paths the golden pins above leave out: deferred in-order
#: release, the §6.2 limited commit depth, non-speculative branches at
#: dispatch, and a 512-entry ROB with commit width 8
COMMIT_PATH_CONFIGS = [
    ("age+rob", base_config(scheduler="age", commit="rob")),
    ("orinoco depth=32", base_config(scheduler="orinoco", commit="orinoco",
                                     commit_depth=32)),
    ("age+spec", base_config(scheduler="age", commit="spec")),
    ("ultra orinoco", ultra_config(scheduler="orinoco", commit="orinoco")),
]
#: Figure 14's criticality configurations (profiled under base AGE)
CRI_CONFIGS = [
    ("CRI w/ AGE", base_config(scheduler="age", criticality=True)),
    ("CRI w/ Orinoco", base_config(scheduler="cri")),
]


def fields(stats):
    return dataclasses.asdict(stats)


@pytest.fixture(scope="module")
def traces():
    return build_suite(SCALE, WORKLOADS)


@pytest.fixture(scope="module")
def serial_reference(traces):
    """The seed path: a plain in-process loop, no executor, no cache."""
    return {label: {name: O3Core(trace, config).run()
                    for name, trace in traces.items()}
            for label, config in CONFIGS}


GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "golden_simstats.json"


class TestDeterminism:
    def test_matches_prerefactor_golden(self, serial_reference):
        """Refactor guard: the staged core must reproduce, field by
        field, the SimStats captured from the pre-refactor monolith
        (tests/data/golden_simstats.json).  Combined with the
        workers/cache tests below — which compare those paths against
        the same serial reference — this pins all three execution paths
        to the golden record.
        """
        golden = json.loads(GOLDEN_PATH.read_text())
        for label, _ in CONFIGS:
            for name in WORKLOADS:
                got = fields(serial_reference[label][name])
                assert got == golden[label][name], \
                    f"{label}/{name} diverged from the pre-refactor golden"

    def test_mult_and_cri_match_golden(self, traces):
        """The remaining Figure 14 policies, pinned the same way: MULT
        serially, and both CRI configurations through fig14's
        profile → tag → run flow (criticality reaches selection only
        through the order key, so these pins guard its critical
        shift)."""
        golden = json.loads(GOLDEN_PATH.read_text())
        got = {"mult+ioc": {
            name: O3Core(trace, MULT_CONFIG).run()
            for name, trace in traces.items()}}
        results = run_criticality_suite(CRI_CONFIGS, traces,
                                        base_config(), use_cache=False)
        for label, _ in CRI_CONFIGS:
            got[label] = results[label].stats
        for label, stats in got.items():
            for name in WORKLOADS:
                assert fields(stats[name]) == golden[label][name], \
                    f"{label}/{name} diverged from the golden"

    def test_commit_paths_match_golden(self, traces):
        """The commit rule's remaining paths, pinned the same way:
        ROB-only release, Orinoco with commit depth 32, SPEC commit and
        ultra Orinoco+Orinoco."""
        golden = json.loads(GOLDEN_PATH.read_text())
        for label, config in COMMIT_PATH_CONFIGS:
            for name in WORKLOADS:
                got = fields(O3Core(traces[name], config).run())
                assert got == golden[label][name], \
                    f"{label}/{name} diverged from the golden"

    @pytest.mark.parametrize("workers", [1, 4])
    def test_workers_bit_identical_to_serial(self, traces,
                                             serial_reference, workers):
        for label, config in CONFIGS:
            result = run_config(label, config, traces,
                                workers=workers, use_cache=False)
            for name in WORKLOADS:
                assert fields(result.stats[name]) == \
                    fields(serial_reference[label][name]), \
                    f"{label}/{name} diverged at workers={workers}"

    @pytest.mark.parametrize("chunk", [1, 4, None],
                             ids=["chunk1", "chunk4", "auto"])
    def test_chunked_dispatch_bit_identical_to_serial(self, traces,
                                                      serial_reference,
                                                      chunk):
        """Batched dispatch is a transport optimisation: any chunk
        size (fixed or factored) must be invisible in the stats."""
        for label, config in CONFIGS:
            result = run_config(label, config, traces, workers=2,
                                use_cache=False, chunk=chunk)
            for name in WORKLOADS:
                assert fields(result.stats[name]) == \
                    fields(serial_reference[label][name]), \
                    f"{label}/{name} diverged at chunk={chunk}"

    @pytest.mark.parametrize("lanes", [1, 4, 8])
    def test_lane_batched_identical_to_serial(self, traces,
                                              serial_reference, lanes):
        """The lane-stacked engine is a storage-layout optimisation:
        any lane width (1 = the untouched reference path) must be
        invisible in the stats, against the same golden-pinned serial
        reference as the workers/chunk/cache paths."""
        for label, config in CONFIGS:
            result = run_config(label, config, traces, workers=1,
                                use_cache=False, lanes=lanes)
            for name in WORKLOADS:
                assert fields(result.stats[name]) == \
                    fields(serial_reference[label][name]), \
                    f"{label}/{name} diverged at lanes={lanes}"
            if lanes > 1:
                assert result.lane_batches, \
                    "lane path not exercised despite lanes > 1"
                assert result.mean_lane_occupancy() > 1.0

    def test_workers_ignore_lanes(self, traces, serial_reference):
        """Lane batching is in-process only: with workers every cell is
        its own task, so ``lanes=2`` runs no lane batch and the stats
        stay field-identical."""
        for label, config in CONFIGS:
            result = run_config(label, config, traces, workers=2,
                                use_cache=False, lanes=2)
            for name in WORKLOADS:
                assert fields(result.stats[name]) == \
                    fields(serial_reference[label][name]), \
                    f"{label}/{name} diverged at workers=2, lanes=2"
            assert not result.lane_batches

    def test_cache_hits_bit_identical(self, traces, serial_reference,
                                      tmp_path):
        cache = ResultCache(tmp_path)
        for label, config in CONFIGS:
            first = run_config(label, config, traces, workers=2,
                               cache=cache)
            assert not any(first.cached.values())
            second = run_config(label, config, traces, workers=2,
                                cache=cache)
            assert all(second.cached.values())
            for name in WORKLOADS:
                assert fields(second.stats[name]) == \
                    fields(serial_reference[label][name]), \
                    f"{label}/{name} diverged through the cache"

    def test_criticality_bit_identical_to_serial(self, traces):
        profile_config = base_config()
        config = base_config(scheduler="cri")
        reference = {}
        for name, trace in traces.items():       # the seed CRI path
            profiler = O3Core(trace, profile_config)
            profiler.run()
            tagger = CriticalityTagger()
            tagger.feed_profile(profiler.pc_l1_misses,
                                profiler.pc_mispredicts)
            tagger.tag(trace)
            try:
                reference[name] = O3Core(trace, config).run()
            finally:
                clear_tags(trace)
        result = run_config_with_criticality(
            "cri", config, traces, profile_config, workers=4,
            use_cache=False)
        for name in WORKLOADS:
            assert fields(result.stats[name]) == fields(reference[name])


class TestExecutor:
    def test_run_suite_groups_labels_and_times_cells(self, traces):
        jobs = (jobs_for("A", CONFIGS[0][1], traces)
                + jobs_for("B", CONFIGS[1][1], traces))
        results = run_suite(jobs, workers=2)
        assert list(results) == ["A", "B"]
        for result in results.values():
            assert set(result.stats) == set(WORKLOADS)
            assert set(result.timings) == set(WORKLOADS)
            assert all(t >= 0.0 for t in result.timings.values())

    def test_affinity_chunking_hits_worker_trace_lru(self, traces):
        """Same-workload cells across configs are sorted adjacent and
        share a dispatch chunk, so at most one trace build per
        (workload, worker) — every other cell is a trace-LRU hit."""
        jobs = (jobs_for("A", CONFIGS[0][1], traces)
                + jobs_for("B", CONFIGS[1][1], traces))
        results = run_suite(jobs, workers=2, chunk=2)
        hits = sum(result.trace_cache_hits()
                   for result in results.values())
        assert hits >= len(WORKLOADS), \
            f"expected >= {len(WORKLOADS)} trace-LRU hits, got {hits}"

    def test_in_process_path_builds_each_trace_once(self, monkeypatch):
        """``workers=1`` runs cells grouped by (workload, scale): with a
        two-entry trace LRU, three targets under two labels build each
        trace once, where job order would build all six.  Results still
        come back in job order."""
        monkeypatch.setenv("REPRO_TRACE_CACHE", "2")
        clear_trace_cache()
        jobs = [Job(label, config, name, 0.05)
                for label, config in CONFIGS for name in WORKLOADS]
        results = run_suite(jobs, workers=1, cache=None, lanes=1)
        assert trace_cache_stats()["misses"] == len(WORKLOADS)
        assert list(results) == [label for label, _ in CONFIGS]
        for result in results.values():
            assert list(result.stats) == WORKLOADS

    def test_worker_path_reports_queueing(self, traces):
        label, config = CONFIGS[0]
        result = run_config(label, config, traces, workers=2,
                            use_cache=False)
        assert set(result.queued) == set(WORKLOADS)
        assert all(q >= 0.0 for q in result.queued.values())
        assert result.queued_seconds() >= 0.0
        # timings measure simulation only — dispatch-measured, so each
        # cell's elapsed must stay below the whole suite's wall and
        # never absorb its own queue wait
        assert all(result.timings[name] >= 0.0 for name in WORKLOADS)

    def test_serial_path_reports_zero_queueing(self, traces):
        label, config = CONFIGS[0]
        result = run_config(label, config, traces, workers=1,
                            use_cache=False)
        assert result.queued_seconds() == 0.0

    def test_cached_cells_report_zero_time(self, traces, tmp_path):
        cache = ResultCache(tmp_path)
        label, config = CONFIGS[0]
        run_config(label, config, traces, workers=1, cache=cache)
        again = run_config(label, config, traces, workers=1, cache=cache)
        assert again.cache_hits() == len(WORKLOADS)
        assert again.sim_seconds() == 0.0

    def test_profile_shared_across_dependent_configs(self, traces,
                                                     monkeypatch):
        original = parallel._simulate_profile
        calls = []

        def counting(trace, config):
            calls.append(trace.name)
            return original(trace, config)

        monkeypatch.setattr(parallel, "_simulate_profile", counting)
        specs = [("cri/orinoco", base_config(scheduler="cri")),
                 ("cri/age", base_config(scheduler="age",
                                         criticality=True))]
        results = run_criticality_suite(specs, traces, base_config(),
                                        workers=1, use_cache=False)
        # one profile per workload feeds both dependent configs
        assert len(calls) == len(WORKLOADS)
        assert set(results) == {"cri/orinoco", "cri/age"}

    def test_tag_crash_does_not_leak_tags(self, traces, monkeypatch):
        def exploding_tag(self, trace):
            for count, instr in enumerate(trace):
                if count >= 10:
                    raise RuntimeError("tagger died mid-tag")
                instr.critical = True

        monkeypatch.setattr(CriticalityTagger, "tag", exploding_tag)
        result = run_config_with_criticality(
            "cri", base_config(scheduler="cri"), traces,
            base_config(), workers=1, use_cache=False)
        for name in WORKLOADS:
            assert result.statuses[name] is CellStatus.FAILED
            assert "tagger died mid-tag" in result.failures[name].message
        for trace in traces.values():
            assert not any(instr.critical for instr in trace)

    @pytest.mark.parametrize("lanes", [1, 2])
    def test_failing_cell_is_the_same_hole_at_any_worker_count(
            self, traces, serial_reference, lanes):
        """A cell that raises in its task function (here at core
        construction) is an annotated hole with a crash bundle, whether
        it ran in-process, in a lane batch (``lanes=2`` at one worker)
        or in a worker, and its healthy neighbour is unaffected."""
        label, config = CONFIGS[0]
        jobs = [Job("bad", base_config(lq_size=0), "gcc.mix", SCALE),
                Job(label, config, "gcc.mix", SCALE)]
        holes = []
        for workers in (1, 2):
            results = run_suite(jobs, workers=workers, cache=None,
                                lanes=lanes)
            assert results["bad"].statuses["gcc.mix"] is CellStatus.FAILED
            failure = results["bad"].failures["gcc.mix"]
            assert failure.kind == "exception"
            assert failure.bundle is not None
            assert pathlib.Path(failure.bundle).is_file()
            holes.append(failure.message)
            assert results[label].statuses["gcc.mix"] is CellStatus.OK
            assert fields(results[label].stats["gcc.mix"]) == \
                fields(serial_reference[label]["gcc.mix"])
        assert holes[0] == holes[1] == \
            "ValueError: queue size must be positive"

    def test_adhoc_traces_fall_back_to_serial(self):
        registry_trace = build_trace("gcc.mix", SCALE)
        adhoc = Trace(registry_trace.instrs, name="custom")
        result = run_config("x", base_config(), {"custom": adhoc},
                            workers=4, use_cache=False)
        assert result.stats["custom"].committed > 0
        assert result.cached == {"custom": False}

    def test_jobs_for_rejects_non_registry_traces(self):
        adhoc = Trace([], name="custom")
        with pytest.raises(ValueError, match="not rebuildable"):
            jobs_for("x", base_config(), {"custom": adhoc})


class TestCacheKey:
    def test_stable_across_calls(self):
        assert cache_key(base_config(), "gcc.mix", 0.5) == \
            cache_key(base_config(), "gcc.mix", 0.5)

    def test_config_field_busts_key(self):
        assert cache_key(base_config(), "gcc.mix", 0.5) != \
            cache_key(base_config(rob_size=128), "gcc.mix", 0.5)

    def test_policy_busts_key(self):
        assert cache_key(base_config(scheduler="age"), "gcc.mix", 0.5) != \
            cache_key(base_config(scheduler="orinoco"), "gcc.mix", 0.5)

    def test_scale_busts_key(self):
        # REPRO_SCALE feeds straight into the generation parameters
        assert cache_key(base_config(), "gcc.mix", 0.5) != \
            cache_key(base_config(), "gcc.mix", 0.6)
        assert generation_params("gcc.mix", 0.5) != \
            generation_params("gcc.mix", 0.6)

    def test_workload_busts_key(self):
        assert cache_key(base_config(), "gcc.mix", 0.5) != \
            cache_key(base_config(), "mcf.chase", 0.5)

    def test_profile_config_busts_key(self):
        plain = cache_key(base_config(scheduler="cri"), "gcc.mix", 0.5)
        with_profile = cache_key(base_config(scheduler="cri"), "gcc.mix",
                                 0.5, profile_config=base_config())
        assert plain != with_profile


class TestCacheStore:
    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key(base_config(), "gcc.mix", 0.5)
        (tmp_path / f"{key}.json").write_text("{not json")
        assert cache.get(key) is None

    def test_profile_roundtrip_restores_int_pcs(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put_profile("k", {12: 3, 40: 1}, {7: 2})
        misses, mispredicts = cache.get_profile("k")
        assert misses == {12: 3, 40: 1}
        assert mispredicts == {7: 2}


class TestSuiteResult:
    def test_missing_workload_raises_named_keyerror(self):
        result = SuiteResult("fig14/AGE", base_config())
        with pytest.raises(KeyError) as excinfo:
            result.ipc("lbm.stream")
        message = str(excinfo.value)
        assert "lbm.stream" in message and "fig14/AGE" in message
