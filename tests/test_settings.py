"""Execution settings: one resolver, entry points that pass them through,
and one table of every ``REPRO_*`` variable the program reads.

:meth:`repro.harness.RunOptions.resolve` is the only code that turns
``$REPRO_JOBS``, ``$REPRO_CACHE`` and ``$REPRO_CELL_TIMEOUT`` into
settings.  The ten sweep entry points forward their execution keywords
to ``run_suite`` unchanged, so a misspelt one raises ``TypeError``
wherever it is passed.
"""

import ast
import pathlib
import re

import pytest

from repro.harness import (ResultCache, RunOptions, SuiteResult,
                           characterize, experiments, measured_activities,
                           run_config, run_config_with_criticality,
                           run_criticality_suite, run_suite, runner,
                           table2_measured)
from repro.isa import Trace
from repro.pipeline import base_config
from repro.workloads import build_suite, build_trace

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCALE = 0.02
NAMES = ["gcc.mix"]
PROFILE = base_config()
CRI = base_config(scheduler="cri")


class TestResolve:
    def test_keyword_wins_over_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        monkeypatch.setenv("REPRO_CELL_TIMEOUT", "5")
        monkeypatch.setenv("REPRO_CACHE", "0")
        assert RunOptions.resolve() == RunOptions(
            workers=3, cache=None, timeout=5.0)
        options = RunOptions.resolve(workers=2, timeout=7.0,
                                     use_cache=True)
        assert (options.workers, options.timeout) == (2, 7.0)
        assert options.cache is not None

    def test_cache_object_wins_over_use_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert RunOptions.resolve(use_cache=False, cache=cache).cache \
            is cache

    def test_use_cache_false_wins_over_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "1")
        assert RunOptions.resolve(use_cache=False).cache is None

    @pytest.mark.parametrize("timeout", [0.0, -1.0])
    def test_nonpositive_timeout_is_no_limit(self, monkeypatch, timeout):
        assert RunOptions.resolve(timeout=timeout).timeout is None
        monkeypatch.setenv("REPRO_CELL_TIMEOUT", str(timeout))
        assert RunOptions.resolve().timeout is None

    def test_chunk_and_retries_are_keywords_only(self, monkeypatch):
        """``retries`` is a keyword only, and ``chunk`` is no setting
        at all: every pool dispatch is one task."""
        monkeypatch.setenv("REPRO_CHUNK", "3")        # no longer read
        monkeypatch.setenv("REPRO_RETRIES", "0")
        assert RunOptions.resolve().retries == 1
        assert RunOptions.resolve(retries=0).retries == 0
        with pytest.raises(TypeError, match="'chunk'"):
            RunOptions.resolve(chunk=3)
        with pytest.raises(TypeError, match="'chunk'"):
            run_suite([], chunk=2)


def _traces():
    return build_suite(SCALE, NAMES)


def _adhoc():
    return {"custom": Trace(build_trace(NAMES[0], SCALE).instrs,
                            name="custom")}


#: the ten sweep entry points, each called with ``**execution``
ENTRY_POINTS = {
    "fig14": lambda **kw: experiments.fig14(SCALE, NAMES, **kw),
    "fig15": lambda **kw: experiments.fig15(SCALE, NAMES, **kw),
    "fig16": lambda **kw: experiments.fig16(SCALE, NAMES, **kw),
    "stall_breakdown":
        lambda **kw: experiments.stall_breakdown(SCALE, NAMES, **kw),
    "characterize": lambda **kw: characterize(SCALE, NAMES, **kw),
    "measured_activities":
        lambda **kw: measured_activities(SCALE, NAMES, **kw),
    "table2_measured": lambda **kw: table2_measured(SCALE, NAMES, **kw),
    "run_config":
        lambda **kw: run_config("x", PROFILE, _traces(), **kw),
    "run_criticality_suite": lambda **kw: run_criticality_suite(
        [("x", CRI)], _traces(), PROFILE, **kw),
    "run_config_with_criticality": lambda **kw: run_config_with_criticality(
        "x", CRI, _traces(), PROFILE, **kw),
}

#: the entry points that take traces, called with ones the registry
#: cannot rebuild
ADHOC_ENTRY_POINTS = {
    "run_config": lambda **kw: run_config("x", PROFILE, _adhoc(), **kw),
    "run_criticality_suite": lambda **kw: run_criticality_suite(
        [("x", CRI)], _adhoc(), PROFILE, **kw),
    "run_config_with_criticality": lambda **kw: run_config_with_criticality(
        "x", CRI, _adhoc(), PROFILE, **kw),
}


class TestPassThrough:
    @pytest.fixture
    def calls(self, monkeypatch):
        """Spy on ``run_suite`` where ``experiments`` and ``runner``
        look it up: record the keywords, check them as ``run_suite``
        would, and return empty results."""
        calls = []

        def spy(jobs, **execution):
            calls.append(execution)
            RunOptions.resolve(**execution)
            return {job.label: SuiteResult(job.label, job.config)
                    for job in jobs}

        monkeypatch.setattr(experiments, "run_suite", spy)
        monkeypatch.setattr(runner, "run_suite", spy)
        return calls

    @pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
    def test_keywords_reach_run_suite_unchanged(self, name, calls,
                                                tmp_path):
        execution = dict(workers=2, use_cache=True,
                         cache=ResultCache(tmp_path), timeout=5.0,
                         lanes=3, retries=0)
        ENTRY_POINTS[name](**execution)
        assert calls == [execution]

    @pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
    def test_misspelt_keyword_raises(self, name):
        with pytest.raises(TypeError, match="'worker'"):
            ENTRY_POINTS[name](worker=2)

    @pytest.mark.parametrize("name", sorted(ADHOC_ENTRY_POINTS))
    def test_adhoc_traces_are_rejected(self, name, calls):
        with pytest.raises(ValueError, match="not rebuildable"):
            ADHOC_ENTRY_POINTS[name](workers=1)
        assert calls == []                  # rejected before run_suite


def _settings_table():
    """The first column of INTERNALS.md's *Settings* table."""
    text = (ROOT / "docs" / "INTERNALS.md").read_text()
    section = text.split("\n## Settings\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `(REPRO_[A-Z_]+)` \|", section, re.M)


def test_settings_table_lists_every_variable_the_program_reads():
    """A string constant that is exactly a ``REPRO_*`` name is an
    environment variable the program reads (docstrings never match
    exactly); each one has one row in the table, and no row is stale."""
    read = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Constant) and \
                    isinstance(node.value, str) and \
                    re.fullmatch(r"REPRO_[A-Z_]+", node.value):
                read.add(node.value)
    rows = _settings_table()
    assert len(rows) == len(set(rows)), "duplicate rows"
    assert set(rows) == read
