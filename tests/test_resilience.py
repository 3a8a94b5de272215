"""Degradation-path tests for the resilient experiment harness.

Every recovery mechanism is exercised through deterministic fault
injection (``REPRO_FAULT``, :mod:`repro.testing.faults`): worker
crashes, transient crashes healed by retry, hung cells reaped by the
per-cell timeout, mid-simulation exceptions producing replayable crash
bundles, cache corruption quarantined on the next read, and Ctrl-C
reporting exactly which cells finished.  Healthy cells must come
through every scenario bit-identical to the serial reference.
"""

import _thread
import json
import os
import threading
import time
import warnings

import pytest

from repro import envutil
from repro.envutil import env_flag, env_float, env_int
from repro.harness import (CellStatus, SuiteInterrupted, hbar_chart,
                           replay_bundle, run_suite)
from repro.harness.cache import (ResultCache, _reset_corrupt_warning,
                                 cache_key, payload_checksum,
                                 stats_to_dict)
from repro.harness.diagnostics import CRASH_KEEP, _crash_keep, load_bundle
from repro.harness.parallel import Job, RunOptions
from repro.harness.resilience import (ResilientPool, TaskSpec, get_pool,
                                     next_task_id, run_tasks)
from repro.harness.runner import SuiteResult, speedups
from repro.pipeline import O3Core, base_config
from repro.testing import faults

SCALE = 0.05
WORKLOADS = ("mcf.chase", "gcc.mix")


def _jobs(label, workloads=WORKLOADS, config=None, profile_config=None):
    config = config or base_config()
    return [Job(label, config, name, SCALE, profile_config)
            for name in workloads]


def _noop(payload, attempt):
    """Pool task that does no work, so only the schedule is tested."""
    return "ok", payload


def _crash_first_attempt(payload, attempt):
    """Pool task whose worker dies on the first attempt only."""
    if attempt == 1:
        os._exit(3)
    return "ok", payload


@pytest.fixture
def crash_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CRASH_DIR", str(tmp_path / "crash"))
    return tmp_path / "crash"


@pytest.fixture
def serial_reference():
    """Fault-free serial stats, the bit-identical yardstick."""
    result = run_suite(_jobs("ref"), workers=1)["ref"]
    return result.stats


class TestEnvParsing:
    def test_truthy_and_falsy_spellings(self, monkeypatch):
        for raw in ("1", "true", "True", "YES", "on"):
            monkeypatch.setenv("REPRO_TEST_FLAG", raw)
            assert env_flag("REPRO_TEST_FLAG") is True, raw
        for raw in ("0", "", "false", "no", "OFF"):
            monkeypatch.setenv("REPRO_TEST_FLAG", raw)
            assert env_flag("REPRO_TEST_FLAG") is False, raw

    def test_unset_uses_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_FLAG", raising=False)
        assert env_flag("REPRO_TEST_FLAG") is False
        assert env_flag("REPRO_TEST_FLAG", default=True) is True

    def test_unknown_value_warns_and_uses_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_FLAG2", "maybe")
        with pytest.warns(RuntimeWarning, match="REPRO_TEST_FLAG2"):
            assert env_flag("REPRO_TEST_FLAG2", default=True) is True
        # warn-once: the same (name, value) pair stays quiet
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            env_flag("REPRO_TEST_FLAG2", default=True)

    def test_env_float_and_int(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_NUM", "2.5")
        assert env_float("REPRO_TEST_NUM") == 2.5
        monkeypatch.setenv("REPRO_TEST_NUM", "7")
        assert env_int("REPRO_TEST_NUM", 3) == 7
        monkeypatch.setenv("REPRO_TEST_NUM", "junk")
        with pytest.warns(RuntimeWarning):
            assert env_int("REPRO_TEST_NUM", 3) == 3

    @pytest.mark.parametrize("name, read, default", [
        ("REPRO_JOBS", lambda: RunOptions.resolve().workers, 1),
        ("REPRO_CRASH_KEEP", _crash_keep, CRASH_KEEP)],
        ids=["jobs", "crash_keep"])
    def test_malformed_count_warns_once(self, monkeypatch, name, read,
                                        default):
        monkeypatch.setattr(envutil, "_warned", set())
        monkeypatch.setenv(name, "two")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert read() == default
            assert read() == default
        assert [w.category for w in caught] == [RuntimeWarning]
        assert name in str(caught[0].message)

    def test_repro_cache_false_disables_cache(self, monkeypatch):
        """Regression: REPRO_CACHE=false/off used to *enable* caching."""
        for raw in ("false", "off", "no", "0", ""):
            monkeypatch.setenv("REPRO_CACHE", raw)
            assert RunOptions.resolve().cache is None, raw
        for raw in ("1", "true", "yes", "on"):
            monkeypatch.setenv("REPRO_CACHE", raw)
            assert RunOptions.resolve().cache is not None, raw


class TestFaultGrammar:
    def test_parse_clauses(self):
        specs = faults.parse_fault_specs(
            "crash:A/mcf.chase, hang:B/*:12.5,explode:*/gcc.mix:40")
        assert [s.kind for s in specs] == ["crash", "hang", "explode"]
        assert specs[1].param == "12.5"
        assert specs[0].matches("A/mcf.chase")
        assert not specs[0].matches("A/mcf.multichase")
        assert specs[1].matches("B/anything")

    def test_empty_and_blank(self):
        assert faults.parse_fault_specs("") == ()
        assert faults.parse_fault_specs(None) == ()
        assert faults.parse_fault_specs(" , ") == ()

    def test_bad_grammar_raises(self):
        with pytest.raises(ValueError, match="bad fault clause"):
            faults.parse_fault_specs("crash")
        with pytest.raises(ValueError, match="unknown fault kind"):
            faults.parse_fault_specs("segfault:A/*")

    def test_attempt_limited_fires(self):
        spec = faults.FaultSpec("crash", "A/*", "1")
        assert spec.fires(1) and not spec.fires(2)
        assert faults.FaultSpec("crash", "A/*").fires(99)


class TestCrashIsolation:
    def test_hard_crash_isolates_cell(self, monkeypatch,
                                      serial_reference):
        monkeypatch.setenv("REPRO_FAULT", "crash:A/mcf.chase")
        result = run_suite(_jobs("A"), workers=2, retries=1)["A"]
        assert result.statuses["mcf.chase"] is CellStatus.FAILED
        failure = result.failures["mcf.chase"]
        assert failure.kind == "crash"
        assert failure.exitcode == faults.CRASH_EXIT_CODE
        assert failure.attempts == 2          # retried once, then gave up
        assert "mcf.chase" not in result.stats
        assert "mcf.chase" in result.missing()
        # the healthy cell is untouched and bit-identical
        assert result.statuses["gcc.mix"] is CellStatus.OK
        assert result.stats["gcc.mix"] == serial_reference["gcc.mix"]

    def test_transient_crash_healed_by_retry(self, monkeypatch,
                                             serial_reference):
        monkeypatch.setenv("REPRO_FAULT", "crash:A/mcf.chase:1")
        result = run_suite(_jobs("A"), workers=2, retries=1)["A"]
        assert result.statuses["mcf.chase"] is CellStatus.OK
        assert result.stats["mcf.chase"] == serial_reference["mcf.chase"]
        assert result.complete()

    def test_crash_without_retries_fails_fast(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT", "crash:A/mcf.chase:1")
        result = run_suite(_jobs("A", ("mcf.chase",)), workers=2,
                           retries=0)["A"]
        assert result.statuses["mcf.chase"] is CellStatus.FAILED
        assert result.failures["mcf.chase"].attempts == 1


class TestTimeout:
    def test_hung_cell_times_out(self, monkeypatch, serial_reference):
        monkeypatch.setenv("REPRO_FAULT", "hang:A/gcc.mix")
        result = run_suite(_jobs("A"), workers=2, timeout=3.0)["A"]
        assert result.statuses["gcc.mix"] is CellStatus.TIMEOUT
        assert result.failures["gcc.mix"].kind == "timeout"
        assert result.statuses["mcf.chase"] is CellStatus.OK
        assert result.stats["mcf.chase"] == serial_reference["mcf.chase"]

    @pytest.mark.parametrize("timeout", [0.0, -1.0])
    def test_nonpositive_timeout_is_no_limit(self, timeout):
        """Zero or less is no limit, as for ``$REPRO_CELL_TIMEOUT``: in
        a sweep, and in the pool itself, which the verify campaign
        calls directly."""
        jobs = [Job("Z", base_config(), name, 0.02) for name in WORKLOADS]
        result = run_suite(jobs, workers=2, timeout=timeout)["Z"]
        assert result.statuses == {name: CellStatus.OK
                                   for name in WORKLOADS}
        tasks = [TaskSpec(next_task_id(), f"noop/{i}", _noop, i)
                 for i in range(2)]
        outcomes = run_tasks(tasks, 2, timeout=timeout)
        assert [outcomes[t.task_id].status for t in tasks] == \
            [CellStatus.OK] * 2


class TestCrashBundles:
    def test_explode_produces_replayable_bundle(self, monkeypatch,
                                                crash_dir,
                                                serial_reference):
        monkeypatch.setenv("REPRO_FAULT", "explode:A/mcf.chase:40")
        result = run_suite(_jobs("A"), workers=2)["A"]
        failure = result.failures["mcf.chase"]
        assert result.statuses["mcf.chase"] is CellStatus.FAILED
        assert failure.kind == "exception"
        assert "InjectedFault" in failure.message
        assert failure.bundle is not None
        assert result.stats["gcc.mix"] == serial_reference["gcc.mix"]

        bundle = load_bundle(failure.bundle)
        assert bundle["cell"] == "A/mcf.chase"
        assert bundle["error"]["type"] == "InjectedFault"
        assert bundle["config"]["scheduler"]      # full fingerprint
        diag = bundle["diagnostic"]
        assert diag["reproduced"] is True
        assert diag["snapshot"]["committed"] == 40
        assert diag["events"]                  # event tail captured

        report = replay_bundle(failure.bundle)
        assert report.reproduced
        assert report.observed["type"] == "InjectedFault"
        assert "REPRODUCED" in report.format()

    def test_cli_replay(self, monkeypatch, crash_dir, capsys):
        monkeypatch.setenv("REPRO_FAULT", "explode:A/mcf.chase:40")
        result = run_suite(_jobs("A", ("mcf.chase",)), workers=2)["A"]
        bundle_path = result.failures["mcf.chase"].bundle
        from repro.cli import main
        assert main(["replay", bundle_path]) == 0
        out = capsys.readouterr().out
        assert "REPRODUCED" in out and "pipeline:" in out


class TestCacheQuarantine:
    def _put_one(self, root, stats):
        cache = ResultCache(root)
        key = cache_key(base_config(), "mcf.chase", SCALE)
        cache.put(key, stats)
        return cache, key

    def test_corrupt_fault_then_quarantine(self, tmp_path, monkeypatch,
                                           serial_reference):
        monkeypatch.setenv("REPRO_FAULT", "corrupt:C/*")
        cache = ResultCache(tmp_path)
        run_suite(_jobs("C", ("mcf.chase",)), workers=1, cache=cache)
        monkeypatch.delenv("REPRO_FAULT")
        _reset_corrupt_warning()
        cache2 = ResultCache(tmp_path)
        with pytest.warns(RuntimeWarning, match="quarantined"):
            result = run_suite(_jobs("C", ("mcf.chase",)), workers=1,
                               cache=cache2)["C"]
        assert cache2.corrupt == 1
        assert list(tmp_path.glob("*.corrupt"))
        # the cell was recomputed, not trusted
        assert result.statuses["mcf.chase"] is CellStatus.OK
        assert result.cached["mcf.chase"] is False
        assert result.stats["mcf.chase"] == serial_reference["mcf.chase"]

    def test_torn_write_fails_checksum(self, tmp_path, serial_reference):
        cache, key = self._put_one(tmp_path, serial_reference["mcf.chase"])
        assert faults.corrupt_file(cache.path_for(key), "torn")
        _reset_corrupt_warning()
        fresh = ResultCache(tmp_path)
        with pytest.warns(RuntimeWarning, match="checksum"):
            assert fresh.get(key) is None
        assert fresh.corrupt == 1 and fresh.misses == 1
        assert list(tmp_path.glob("*.corrupt"))

    def test_quarantine_warns_once(self, tmp_path, serial_reference):
        cache, key = self._put_one(tmp_path, serial_reference["mcf.chase"])
        key2 = cache_key(base_config(), "gcc.mix", SCALE)
        cache.put(key2, serial_reference["gcc.mix"])
        for k in (key, key2):
            cache.path_for(k).write_text("{not json")
        _reset_corrupt_warning()
        fresh = ResultCache(tmp_path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert fresh.get(key) is None
            assert fresh.get(key2) is None
        assert fresh.corrupt == 2
        assert len([w for w in caught
                    if issubclass(w.category, RuntimeWarning)]) == 1

    def test_legacy_entry_migrated_on_read(self, tmp_path,
                                           serial_reference):
        stats = serial_reference["mcf.chase"]
        cache = ResultCache(tmp_path)
        key = cache_key(base_config(), "mcf.chase", SCALE)
        path = cache.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        # checksum-less entry as written by pre-resilience versions
        path.write_text(json.dumps(stats_to_dict(stats), sort_keys=True))
        assert cache.get(key) == stats
        on_disk = json.loads(path.read_text())
        assert set(on_disk) == {"sha256", "payload"}
        assert on_disk["sha256"] == payload_checksum(on_disk["payload"])
        assert ResultCache(tmp_path).get(key) == stats   # still verifies


class TestInterrupt:
    def test_ctrl_c_reports_completed_cells(self, tmp_path, monkeypatch,
                                            serial_reference):
        monkeypatch.setenv("REPRO_FAULT",
                           "hang:I/gcc.mix,hang:I/x264.divint")
        cache = ResultCache(tmp_path)
        jobs = _jobs("I", ("mcf.chase", "gcc.mix", "x264.divint"))
        good_key = cache_key(base_config(), "mcf.chase", SCALE)

        def interrupt_when_flushed():
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                if ResultCache(tmp_path).get(good_key) is not None:
                    break
                time.sleep(0.1)
            time.sleep(0.5)              # let on_complete fully settle
            _thread.interrupt_main()

        watcher = threading.Thread(target=interrupt_when_flushed,
                                   daemon=True)
        watcher.start()
        # chunk=1: with batching, mcf.chase would queue behind a hung
        # chunk-mate and never complete before the interrupt
        with pytest.raises(SuiteInterrupted) as excinfo:
            run_suite(jobs, workers=2, cache=cache, chunk=1)
        watcher.join(timeout=10)
        assert "I/mcf.chase" in excinfo.value.completed
        assert "I/gcc.mix" not in excinfo.value.completed
        # the completed cell survived to disk, bit-identical
        durable = ResultCache(tmp_path).get(good_key)
        assert durable == serial_reference["mcf.chase"]
        # and the harness recovers: a fresh pool completes a new suite
        monkeypatch.delenv("REPRO_FAULT")
        after = run_suite(_jobs("I2", ("mcf.chase",)), workers=2)["I2"]
        assert after.statuses["mcf.chase"] is CellStatus.OK

    def test_escaped_error_kills_the_pool(self, tmp_path, monkeypatch):
        """An exception out of a pooled run, here a full disk failing
        gcc.mix's cache write while mcf.chase hangs in the other
        worker, kills the shared pool: the next sweep gets fresh
        workers, none still busy with the failed run's cells."""
        class FullDisk(ResultCache):
            def put(self, key, stats):
                raise OSError(28, "No space left on device")

        monkeypatch.setenv("REPRO_FAULT", "hang:F/mcf.chase")
        with pytest.raises(OSError):
            run_suite(_jobs("F"), workers=2, cache=FullDisk(tmp_path),
                      chunk=1)
        monkeypatch.delenv("REPRO_FAULT")
        jobs = _jobs("F1") + _jobs("F2", config=base_config(commit="rob"))
        after = run_suite(jobs, workers=2)
        assert all(result.complete() for result in after.values())
        assert sum(len(result.stats) for result in after.values()) == 4
        assert not any(handle.busy for handle in get_pool(2).handles)

    def test_run_after_shutdown_spawns_workers(self):
        """A pool that an earlier run's escape shut down, here shut down
        by hand, spawns fresh workers for its next run instead of
        waiting on none.  The run goes on a thread with a bounded join,
        so a hang fails the test rather than stalling the suite."""
        pool = ResilientPool(1)
        pool.shutdown(kill=True)
        outcomes = {}
        runner = threading.Thread(target=lambda: outcomes.update(pool.run(
            [TaskSpec(next_task_id(), "noop/0", _noop, 0)])), daemon=True)
        runner.start()
        runner.join(timeout=60)
        try:
            assert not runner.is_alive(), \
                "run() on a shut-down pool did not return within 60 s"
            assert [o.status for o in outcomes.values()] == [CellStatus.OK]
            assert len(pool.handles) == 1
        finally:
            pool.shutdown(kill=True)

    def test_ctrl_c_while_profiling_reports_cells(self, monkeypatch):
        """Ctrl-C during the units that serve profiles counts the cells
        to run and names finished cells, not profile tasks."""
        original = O3Core.__init__
        built = []

        def interrupt_second(self, *args, **kwargs):
            built.append(None)
            if len(built) == 2:
                raise KeyboardInterrupt
            original(self, *args, **kwargs)

        monkeypatch.setattr(O3Core, "__init__", interrupt_second)
        cri = base_config().with_policies(scheduler="cri")
        jobs = _jobs("AGE") + _jobs("CRI", config=cri,
                                    profile_config=base_config())
        with pytest.raises(SuiteInterrupted) as excinfo:
            run_suite(jobs, workers=1, cache=None, lanes=1)
        assert excinfo.value.total == len(jobs)
        assert excinfo.value.completed == ["AGE/gcc.mix"]


class TestChunkedDispatch:
    """The factored chunk schedule, and partial-chunk failure
    semantics: a fault in one chunk cell must never poison its
    chunk-mates — finished mates keep their results, unstarted mates
    are re-queued and complete bit-identically."""

    CHUNK_WORKLOADS = ("gcc.mix", "mcf.chase", "perl.branchy")

    @pytest.fixture
    def chunk_reference(self):
        result = run_suite(_jobs("ref3", self.CHUNK_WORKLOADS),
                           workers=1)["ref3"]
        return result.stats

    @pytest.fixture(scope="class")
    def pool(self):
        pool = ResilientPool(2)
        yield pool
        pool.shutdown(kill=True)

    @staticmethod
    def _record(pool, monkeypatch):
        """Record every chunk ``pool`` sends, as a list of
        ``[(task, attempt), ...]`` lists."""
        sent, seen = [], []
        assign = pool._assign

        def recording(*args):
            assign(*args)
            for handle in pool.handles:
                if handle.chunk and \
                        not any(handle.chunk is chunk for chunk in seen):
                    seen.append(handle.chunk)
                    sent.append([(p.task, p.attempt) for p in handle.chunk])

        monkeypatch.setattr(pool, "_assign", recording)
        return sent

    def _run_recorded(self, pool, monkeypatch, funcs, keys=None, **kwargs):
        """Run one task per entry of ``funcs`` (affinity keys from
        ``keys``, default none); return the tasks, their outcomes and
        every chunk sent."""
        sent = self._record(pool, monkeypatch)
        keys = keys or [None] * len(funcs)
        tasks = [TaskSpec(next_task_id(), f"noop/{i}", func, i,
                          affinity=key)
                 for i, (func, key) in enumerate(zip(funcs, keys))]
        return tasks, pool.run(tasks, **kwargs), sent

    def test_factoring_schedule(self, pool, monkeypatch):
        # the sizes depend only on the fresh backlog, never on which
        # worker asks first, so the sequence is exact
        tasks, outcomes, sent = self._run_recorded(
            pool, monkeypatch, [_noop] * 50)
        assert [len(chunk) for chunk in sent] == \
            [13, 10, 7, 5, 4, 3, 2, 2, 1, 1, 1, 1]
        assert [outcomes[t.task_id].status for t in tasks] == \
            [CellStatus.OK] * 50
        assert [outcomes[t.task_id].value for t in tasks] == list(range(50))

    def test_factored_chunks_stay_within_one_key(self, pool, monkeypatch):
        # three affinity runs of 20, 4 and 26 cells: each factored
        # chunk ends where the key changes, so two runs of costly
        # cells can never land on one worker as a single chunk
        keys = ["a"] * 20 + ["b"] * 4 + ["c"] * 26
        tasks, outcomes, sent = self._run_recorded(
            pool, monkeypatch, [_noop] * 50, keys=keys)
        assert [len(chunk) for chunk in sent] == \
            [13, 7, 4, 7, 5, 4, 3, 2, 2, 1, 1, 1]
        assert all(len({task.affinity for task, _ in chunk}) == 1
                   for chunk in sent)
        assert all(outcomes[t.task_id].status is CellStatus.OK
                   for t in tasks)

    def test_run_suite_keys_chunks_by_workload(self, monkeypatch):
        # 4 cells per workload: the second factored chunk (3 cells)
        # would take gcc.mix's last cell and two of mcf.chase's.  Each
        # label has its own config, since jobs sharing a cache key are
        # one unit and so one task
        from repro.harness.resilience import get_pool
        monkeypatch.delenv("REPRO_CHUNK", raising=False)
        sent = self._record(get_pool(2), monkeypatch)
        workloads = ("gcc.mix", "mcf.chase", "sjeng.listupd")
        jobs = [job for label, commit in zip("ABCD", ("ioc", "orinoco",
                                                     "rob", "ecl"))
                for job in _jobs(label, workloads,
                                 base_config(commit=commit))]
        results = run_suite(jobs, workers=2, lanes=1)
        assert all(result.complete() for result in results.values())
        assert [[task.cell_id for task, _ in chunk] for chunk in sent][:2] \
            == [["A/gcc.mix", "B/gcc.mix", "C/gcc.mix"], ["D/gcc.mix"]]
        assert all(len({task.affinity for task, _ in chunk}) == 1
                   for chunk in sent)

    def test_factored_chunks_are_capped(self, pool, monkeypatch):
        _, outcomes, sent = self._run_recorded(pool, monkeypatch,
                                               [_noop] * 300)
        assert len(sent[0]) == ResilientPool.CHUNK_CAP == 32
        assert sum(len(chunk) for chunk in sent) == len(outcomes) == 300

    def test_explicit_chunk_stays_fixed(self, pool, monkeypatch):
        # a fixed size is taken as given, across affinity keys too
        _, _, sent = self._run_recorded(pool, monkeypatch, [_noop] * 50,
                                        keys=["a", "b"] * 25, chunk=4)
        assert [len(chunk) for chunk in sent] == [4] * 12 + [2]

    def test_crash_retry_is_sent_alone(self, pool, monkeypatch):
        funcs = [_noop] * 10
        funcs[1] = _crash_first_attempt
        tasks, outcomes, sent = self._run_recorded(pool, monkeypatch,
                                                   funcs, retries=1)
        crasher = tasks[1]
        assert len(sent[0]) == 3 and sent[0][1] == (crasher, 1)
        assert [(crasher, 2)] in sent
        assert outcomes[crasher.task_id].attempts == 2
        assert all(outcomes[t.task_id].status is CellStatus.OK
                   for t in tasks)

    def test_mid_chunk_crash_names_the_right_cell(self, monkeypatch,
                                                  chunk_reference):
        # affinity order sorts gcc.mix < mcf.chase < perl.branchy, so
        # with chunk=3 the faulty cell is the *middle* chunk member:
        # the finished mate ahead of it and the unstarted mate behind
        # it must both survive, and the crash must name mcf.chase
        monkeypatch.setenv("REPRO_FAULT", "crash:A/mcf.chase")
        result = run_suite(_jobs("A", self.CHUNK_WORKLOADS), workers=2,
                           retries=0, chunk=3)["A"]
        assert result.statuses["mcf.chase"] is CellStatus.FAILED
        failure = result.failures["mcf.chase"]
        assert failure.kind == "crash"
        assert "mcf.chase" in failure.message
        assert result.statuses["gcc.mix"] is CellStatus.OK
        assert result.statuses["perl.branchy"] is CellStatus.OK
        assert result.stats["gcc.mix"] == chunk_reference["gcc.mix"]
        assert result.stats["perl.branchy"] == \
            chunk_reference["perl.branchy"]

    def test_transient_mid_chunk_crash_heals(self, monkeypatch,
                                             chunk_reference):
        monkeypatch.setenv("REPRO_FAULT", "crash:A/mcf.chase:1")
        result = run_suite(_jobs("A", self.CHUNK_WORKLOADS), workers=2,
                           retries=1, chunk=3)["A"]
        assert result.complete()
        for name in self.CHUNK_WORKLOADS:
            assert result.stats[name] == chunk_reference[name], name

    def test_chunked_timeout_isolates_cell(self, monkeypatch,
                                           chunk_reference):
        monkeypatch.setenv("REPRO_FAULT", "hang:A/mcf.chase")
        result = run_suite(_jobs("A", self.CHUNK_WORKLOADS), workers=2,
                           timeout=3.0, chunk=3)["A"]
        assert result.statuses["mcf.chase"] is CellStatus.TIMEOUT
        assert result.statuses["gcc.mix"] is CellStatus.OK
        assert result.statuses["perl.branchy"] is CellStatus.OK
        assert result.stats["gcc.mix"] == chunk_reference["gcc.mix"]
        assert result.stats["perl.branchy"] == \
            chunk_reference["perl.branchy"]


class TestPoolResize:
    def test_smaller_request_shrinks_in_place(self):
        from repro.harness.resilience import get_pool
        pool = get_pool(4)
        assert len(pool.handles) == 4
        surplus = [h.proc for h in pool.handles[2:]]
        again = get_pool(2)
        assert again is pool                 # resized, not replaced
        assert len(pool.handles) == 2
        for proc in surplus:                 # retired workers exited
            proc.join(timeout=10)
            assert not proc.is_alive()
        # the shrunk pool still works
        result = run_suite(_jobs("R", ("mcf.chase",)), workers=2)["R"]
        assert result.statuses["mcf.chase"] is CellStatus.OK


class TestWarmSweep:
    def test_warm_cache_never_touches_the_pool(self, tmp_path,
                                               monkeypatch):
        cache = ResultCache(tmp_path)
        run_suite(_jobs("W"), workers=1, cache=cache)
        import repro.harness.resilience as resilience_mod

        def no_pool(workers):
            raise AssertionError("warm sweep must not spawn workers")

        monkeypatch.setattr(resilience_mod, "get_pool", no_pool)
        result = run_suite(_jobs("W"), workers=2, cache=cache)["W"]
        assert all(result.cached.values())
        assert result.complete()


class TestProfileDependency:
    def test_profile_crash_fails_dependents(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT", "crash:profile/*")
        profile_config = base_config()
        config = base_config().with_policies(scheduler="cri")
        jobs = [Job("CRI", config, "mcf.chase", SCALE, profile_config)]
        result = run_suite(jobs, workers=2, retries=0)["CRI"]
        assert result.statuses["mcf.chase"] is CellStatus.FAILED
        failure = result.failures["mcf.chase"]
        assert failure.kind == "dependency"
        assert "profile" in failure.message

    def test_failed_profile_rerun_keeps_the_cached_cell(self, tmp_path,
                                                        monkeypatch):
        """The cache holds the AGE cell but not its profile, and the run
        for the profile hangs past the timeout: AGE still reports its
        cached stats, and only the CRI cell is a hole."""
        cache = ResultCache(tmp_path)
        age = _jobs("AGE", ("gcc.mix",))
        warm = run_suite(age, workers=1, cache=cache)["AGE"]
        monkeypatch.setenv("REPRO_FAULT", "hang:AGE/gcc.mix")
        cri = _jobs("CRI", ("gcc.mix",), base_config(scheduler="cri"),
                    base_config())
        results = run_suite(age + cri, workers=2, cache=cache, timeout=3.0)
        assert results["AGE"].statuses["gcc.mix"] is CellStatus.CACHED
        assert results["AGE"].stats == warm.stats
        assert results["CRI"].statuses["gcc.mix"] is CellStatus.FAILED
        failure = results["CRI"].failures["gcc.mix"]
        assert failure.kind == "dependency"
        assert failure.message.startswith(
            "profile cell AGE/gcc.mix failed: timeout: ")


class TestMissingCellRendering:
    def _holey_results(self):
        from repro.harness.resilience import CellFailure
        config = base_config()
        baseline = SuiteResult("base", config)
        result = SuiteResult("var", config)
        stats = run_suite(_jobs("x", ("mcf.chase", "gcc.mix")),
                          workers=1)["x"].stats
        for name in ("mcf.chase", "gcc.mix"):
            baseline.stats[name] = stats[name]
            baseline.statuses[name] = CellStatus.OK
        result.stats["mcf.chase"] = stats["mcf.chase"]
        result.statuses["mcf.chase"] = CellStatus.OK
        result.statuses["gcc.mix"] = CellStatus.TIMEOUT
        result.failures["gcc.mix"] = CellFailure(
            kind="timeout", message="cell var/gcc.mix exceeded its timeout")
        return baseline, result

    def test_speedups_skip_missing_cells(self):
        baseline, result = self._holey_results()
        ratios = speedups(result, baseline)
        assert set(ratios) == {"mcf.chase"}

    def test_ipc_error_names_the_failure(self):
        _, result = self._holey_results()
        assert not result.complete()
        assert result.failure_notes()
        with pytest.raises(KeyError, match="did not finish"):
            result.ipc("gcc.mix")

    def test_hbar_chart_renders_missing_as_no_data(self):
        chart = hbar_chart({"A": 1.1, "B": None}, title="t")
        assert "(no data)" in chart
        assert "+10.0%" in chart

    def test_collect_annotates_missing(self):
        from repro.harness.experiments import _collect
        baseline, result = self._holey_results()
        experiment = _collect({"base": baseline, "var": result}, "base",
                              "fig", "desc")
        assert any("var/gcc.mix" in note for note in experiment.notes)
        assert "var" in experiment.summary      # geomean over the rest
        assert "no data" not in experiment.format() or True
        experiment.format()                     # must not raise
