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

from repro.criticality import CriticalityTagger, clear_tags
from repro.harness import (CellStatus, Job, ResultCache, SuiteResult,
                           cache_key, fig14, fig15, jobs_for, run_config,
                           run_config_with_criticality,
                           run_criticality_suite, run_suite)
from repro.harness.resilience import (ResilientPool, TaskSpec, get_pool,
                                      next_task_id, shutdown_pools)
from repro.isa import Trace, save_trace
from repro.pipeline import (COMMITS, LaneBatch, O3Core, base_config,
                            simulate, ultra_config)
from repro.workloads import (add_trace_target, build_suite, build_trace,
                             clear_trace_cache, generation_params,
                             trace_cache_stats, unregister_target)

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


def _simulate_cell(payload, attempt):
    """Pool task: the stats of one cell as a field dict."""
    config, name = payload
    return "ok", fields(simulate(build_trace(name, SCALE), config))


@pytest.fixture
def cores_built(monkeypatch):
    """The config of every ``O3Core`` built during the test, in order."""
    built = []
    original = O3Core.__init__

    def counting(self, trace, config, *args, **kwargs):
        built.append(config)
        original(self, trace, config, *args, **kwargs)

    monkeypatch.setattr(O3Core, "__init__", counting)
    return built


@pytest.fixture
def lane_batches(monkeypatch):
    """The arguments of every ``LaneBatch`` built during the test."""
    built = []
    original = LaneBatch.__init__

    def spy(self, *args, **kwargs):
        built.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(LaneBatch, "__init__", spy)
    return built


@pytest.fixture(scope="module")
def traces():
    return build_suite(SCALE, WORKLOADS)


@pytest.fixture(scope="module")
def small_traces():
    """Three short targets for the sweeps that run many cells each."""
    return build_suite(0.1, ["gcc.mix", "x264.divint", "mcf.chase"])


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

    @pytest.mark.parametrize("workers", [1, 2, 4])
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
    def test_chunked_dispatch_bit_identical_to_serial(self,
                                                      serial_reference,
                                                      chunk):
        """``ResilientPool.run`` accepts ``chunk=`` and ignores it,
        because the end-to-end benchmark calls it with ``chunk=1``: a
        two-worker pool given this chunk size returns every cell
        field-identical to the serial reference.  The three cases
        differ only in the ignored value, deliberately."""
        cells = [(label, config, name) for label, config in CONFIGS
                 for name in WORKLOADS]
        tasks = [TaskSpec(next_task_id(), f"{label}/{name}", _simulate_cell,
                          (config, name))
                 for label, config, name in cells]
        outcomes = get_pool(2).run(tasks, chunk=chunk)
        for task, (label, _, name) in zip(tasks, cells):
            outcome = outcomes[task.task_id]
            assert outcome.status is CellStatus.OK, outcome.failure
            assert outcome.value == fields(serial_reference[label][name]), \
                f"{label}/{name} diverged at chunk={chunk}"

    @pytest.mark.parametrize("lanes", [1, 4, 8])
    def test_lane_batched_identical_to_serial(self, traces,
                                              serial_reference,
                                              lane_batches, lanes):
        """``lanes=`` is accepted and ignored, because the end-to-end
        benchmark passes it: in-process, any lane width builds no lane
        batch and every cell is field-identical to the golden-pinned
        serial reference."""
        for label, config in CONFIGS:
            result = run_config(label, config, traces, workers=1,
                                use_cache=False, lanes=lanes)
            for name in WORKLOADS:
                assert fields(result.stats[name]) == \
                    fields(serial_reference[label][name]), \
                    f"{label}/{name} diverged at lanes={lanes}"
        assert not lane_batches, f"lanes={lanes} built a lane batch"

    def test_workers_ignore_lanes(self, traces, serial_reference,
                                  lane_batches):
        """With workers every cell is its own task too: ``run_suite``
        at two workers and ``lanes=8`` builds no lane batch and the
        stats stay field-identical."""
        jobs = [job for label, config in CONFIGS
                for job in jobs_for(label, config, traces)]
        results = run_suite(jobs, workers=2, use_cache=False, lanes=8)
        for label, _ in CONFIGS:
            for name in WORKLOADS:
                assert fields(results[label].stats[name]) == \
                    fields(serial_reference[label][name]), \
                    f"{label}/{name} diverged at workers=2, lanes=8"
        assert not lane_batches, "run_suite(lanes=8) built a lane batch"

    def test_lanes_keyword_has_no_effect(self, lane_batches):
        """An experiment passes ``lanes=`` through untouched:
        ``fig15(lanes=8)`` builds no lane batch and every cell is
        field-identical to ``lanes=1``."""
        laned = fig15(0.05, WORKLOADS[:2], workers=1, use_cache=False,
                      lanes=8)
        plain = fig15(0.05, WORKLOADS[:2], workers=1, use_cache=False,
                      lanes=1)
        assert not lane_batches, "fig15(lanes=8) built a lane batch"
        assert laned.cells() == plain.cells() == 10 * 2
        for label, result in plain.results.items():
            for name, stats in result.stats.items():
                assert fields(laned.results[label].stats[name]) == \
                    fields(stats), f"fig15 {label}/{name} diverged"

    def test_fig15_commit_policies_in_one_sweep_match_simulate(
            self, small_traces):
        """Figure 15's ten commit policies, in-order and out-of-order
        ROB release alike, in one in-process sweep: every cell equals
        its own ``simulate``."""
        base = base_config(scheduler="age")
        jobs = [job for commit in COMMITS
                for job in jobs_for(commit, base.with_policies(commit=commit),
                                    small_traces)]
        results = run_suite(jobs, workers=1, use_cache=False)
        assert list(results) == list(COMMITS) and len(COMMITS) == 10
        for commit in COMMITS:
            config = base.with_policies(commit=commit)
            for name, trace in small_traces.items():
                assert fields(results[commit].stats[name]) == \
                    fields(simulate(trace, config)), \
                    f"{commit}/{name} diverged from its own simulate"

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

    def test_affinity_chunking_hits_worker_trace_lru(self, traces,
                                                     monkeypatch):
        """Every pool task carries its cell's ``(workload, scale)`` as
        its affinity key, and an idle worker takes the next cell of the
        key it last ran.  On fresh workers the cells run grouped as
        gcc.mix, perl.branchy, x264.divint: the first worker takes both
        gcc.mix cells, the second starts on perl.branchy, and the first
        worker to free up after that takes both x264.divint cells, so
        the second cell of each short workload is a trace-LRU hit.  The
        long perl.branchy pair may split: a worker that runs out of
        other work takes the cell the other worker's key still has."""
        shutdown_pools()                 # fresh workers, empty LRUs
        sent = []
        run = ResilientPool.run

        def recording(self, tasks, **kwargs):
            sent.extend(tasks)
            return run(self, tasks, **kwargs)

        monkeypatch.setattr(ResilientPool, "run", recording)
        jobs = (jobs_for("A", CONFIGS[0][1], traces)
                + jobs_for("B", CONFIGS[1][1], traces))
        results = run_suite(jobs, workers=2)
        assert sorted(task.cell_id for task in sent) == \
            sorted(job.cell_id for job in jobs)
        for task in sent:
            assert task.affinity == (task.cell_id.split("/")[1], SCALE)
        for name in ("gcc.mix", "x264.divint"):
            assert not results["A"].trace_hits[name], name
            assert results["B"].trace_hits[name], \
                f"B/{name} rebuilt the trace A/{name} built"

    def test_in_process_path_builds_each_trace_once(self, monkeypatch):
        """``workers=1`` runs cells grouped by (workload, scale): with a
        two-entry trace LRU, three targets under two labels build each
        trace once, where job order would build all six.  Results still
        come back in job order."""
        monkeypatch.setenv("REPRO_TRACE_CACHE", "2")
        clear_trace_cache()
        jobs = [Job(label, config, name, 0.05)
                for label, config in CONFIGS for name in WORKLOADS]
        results = run_suite(jobs, workers=1, cache=None)
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

    def test_fig14_builds_one_core_per_cell(self, cores_built):
        """Figure 14 profiles under its AGE column's config, so the AGE
        cells are the CRI columns' profiles: one core per cell."""
        result = fig14(SCALE, WORKLOADS[:2], workers=1, use_cache=False)
        assert result.cells() == 5 * 2
        assert len(cores_built) == result.cells()

    def test_profile_only_unit_shared_across_dependent_configs(
            self, traces, cores_built):
        results = run_criticality_suite(CRI_CONFIGS, traces, base_config(),
                                        workers=1, use_cache=False)
        assert set(results) == {label for label, _ in CRI_CONFIGS}
        # one profile-only core per workload feeds both dependent configs
        assert len(cores_built) == 3 * len(WORKLOADS)
        assert cores_built[:len(WORKLOADS)] == [base_config()] * len(WORKLOADS)

    def test_warm_stats_without_profiles_rerun_each_profile_once(
            self, traces, tmp_path, cores_built):
        """The cache holds the AGE cells but no profile: each AGE unit
        runs once more, for its profile, before the CRI cells."""
        cache = ResultCache(tmp_path)
        age = base_config()
        warm = run_config("AGE", age, traces, workers=1, cache=cache)
        assert not list(tmp_path.glob("*.profile.json"))
        del cores_built[:]
        jobs = jobs_for("AGE", age, traces)
        for label, config in CRI_CONFIGS:
            jobs += jobs_for(label, config, traces, age)
        results = run_suite(jobs, workers=1, cache=cache)
        assert cores_built[:len(WORKLOADS)] == [age] * len(WORKLOADS)
        assert len(cores_built) == 3 * len(WORKLOADS)
        assert len(list(tmp_path.glob("*.profile.json"))) == len(WORKLOADS)
        for name in WORKLOADS:
            assert fields(results["AGE"].stats[name]) == \
                fields(warm.stats[name])
        for label, _ in CRI_CONFIGS:
            assert results[label].complete()

    def test_failed_profile_fails_its_dependents_at_any_worker_count(
            self, traces):
        """A profile config that fails at construction and is also a
        reported job: the job is an ``exception`` hole with a bundle,
        and both CRI jobs are ``dependency`` holes that name it."""
        bad = base_config(lq_size=0)
        jobs = [Job("bad", bad, "gcc.mix", SCALE)]
        jobs += [Job(label, config, "gcc.mix", SCALE, bad)
                 for label, config in CRI_CONFIGS]
        holes = []
        for workers in (1, 2):
            results = run_suite(jobs, workers=workers, cache=None)
            assert results["bad"].statuses["gcc.mix"] is CellStatus.FAILED
            failure = results["bad"].failures["gcc.mix"]
            assert failure.kind == "exception"
            assert pathlib.Path(failure.bundle).is_file()
            for label, _ in CRI_CONFIGS:
                assert results[label].statuses["gcc.mix"] is \
                    CellStatus.FAILED
                dependent = results[label].failures["gcc.mix"]
                assert dependent.kind == "dependency"
                assert dependent.message == \
                    f"profile cell bad/gcc.mix failed: {failure.summary()}"
                assert dependent.bundle == failure.bundle
            holes.append(failure.message)
        assert holes[0] == holes[1] == \
            "ValueError: queue size must be positive"

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

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failing_cell_is_the_same_hole_at_any_worker_count(
            self, traces, serial_reference, workers):
        """A cell that raises in its task function (here at core
        construction) is the same annotated hole with a crash bundle,
        whether it ran in-process or in a worker, and its healthy
        neighbour is unaffected."""
        label, config = CONFIGS[0]
        jobs = [Job("bad", base_config(lq_size=0), "gcc.mix", SCALE),
                Job(label, config, "gcc.mix", SCALE)]
        results = run_suite(jobs, workers=workers, cache=None)
        assert results["bad"].statuses["gcc.mix"] is CellStatus.FAILED
        failure = results["bad"].failures["gcc.mix"]
        assert failure.kind == "exception"
        assert failure.bundle is not None
        assert pathlib.Path(failure.bundle).is_file()
        assert failure.message == "ValueError: queue size must be positive"
        assert results[label].statuses["gcc.mix"] is CellStatus.OK
        assert fields(results[label].stats["gcc.mix"]) == \
            fields(serial_reference[label]["gcc.mix"])

    def test_mid_run_failure_is_an_isolated_hole(self, small_traces,
                                                 monkeypatch):
        """A cell that raises partway through its run (here a cycle
        budget of 1 on mcf.chase) is a ``FAILED`` hole naming the error
        when it runs in-process, and the cells around it equal their
        own serial runs."""
        original = O3Core.run

        def budget_of_one_on_mcf(self, max_cycles=5_000_000):
            if self.state.trace.name == "mcf.chase":
                max_cycles = 1
            return original(self, max_cycles)

        monkeypatch.setattr(O3Core, "run", budget_of_one_on_mcf)
        result = run_config("iso", base_config(), small_traces, workers=1,
                            use_cache=False)
        monkeypatch.undo()
        assert result.statuses["mcf.chase"] is CellStatus.FAILED
        failure = result.failures["mcf.chase"]
        assert failure.kind == "exception"
        assert failure.message == \
            "DeadlockError: cycle budget exhausted at 1"
        for name in ("gcc.mix", "x264.divint"):
            assert result.statuses[name] is CellStatus.OK
            assert fields(result.stats[name]) == \
                fields(simulate(small_traces[name], base_config()))

    def test_adhoc_traces_fall_back_to_serial(self, traces, cores_built):
        """A trace the registry cannot rebuild has no sweep path:
        ``run_config`` raises the ``ValueError`` of :func:`jobs_for`
        before any core is built, naming ``simulate`` as the serial
        fallback, and that fallback gives the stats of the executor's
        cell of the same instructions."""
        adhoc = Trace(build_trace("gcc.mix", SCALE).instrs, name="custom")
        with pytest.raises(ValueError, match="not rebuildable") as info:
            run_config("x", base_config(), {"custom": adhoc}, workers=4,
                       use_cache=False)
        assert "repro.pipeline.simulate" in str(info.value)
        assert cores_built == []
        stats = simulate(adhoc, base_config())
        executor = run_config("x", base_config(),
                              {"gcc.mix": traces["gcc.mix"]}, workers=1,
                              use_cache=False)
        assert stats.committed > 0
        assert fields(stats) == fields(dataclasses.replace(
            executor.stats["gcc.mix"], name=stats.name))

    def test_adhoc_criticality_matches_the_executor(self, traces,
                                                    cores_built, tmp_path):
        """``run_config_with_criticality`` rejects an ad-hoc trace
        before any core is built, naming ``add_trace_target``; once the
        trace is recorded and registered that way, its criticality cell
        profiles, tags and runs to the stats of the executor's cell of
        the same instructions."""
        adhoc = Trace(build_trace("gcc.mix", SCALE).instrs, name="custom")
        cri_label, cri = CRI_CONFIGS[1]
        with pytest.raises(ValueError, match="not rebuildable") as info:
            run_config_with_criticality(
                cri_label, cri, {"custom": adhoc}, base_config(),
                workers=1, use_cache=False)
        assert "repro.workloads.add_trace_target" in str(info.value)
        assert cores_built == []
        path = tmp_path / "custom.jsonl"
        save_trace(adhoc, path)
        add_trace_target(path, name="custom")
        try:
            result = run_config_with_criticality(
                cri_label, cri, {"custom": build_trace("custom", SCALE)},
                base_config(), workers=1, use_cache=False)
        finally:
            unregister_target("custom")
        assert cores_built == [base_config(), cri]
        executor = run_config_with_criticality(
            cri_label, cri, {"gcc.mix": traces["gcc.mix"]}, base_config(),
            workers=1, use_cache=False)
        stats = result.stats["custom"]         # named after its trace
        assert fields(stats) == fields(dataclasses.replace(
            executor.stats["gcc.mix"], name=stats.name))

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
