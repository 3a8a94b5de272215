"""The differential memory-consistency verification campaign.

Covers the :mod:`repro.verify` subsystem end to end: deterministic
program generation, the healthy pipeline passing the oracle across
every commit policy, checkpointed resume after an interrupted
campaign, the planted-fault pipeline (detect -> minimise -> replayable
bundle -> regression snippet), crash-directory capping, and the
``repro replay`` exit-code contract.
"""

import json
import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

from repro.cli import main
from repro.harness import load_bundle
from repro.testing.faults import parse_fault_specs
from repro.verify import campaign
from repro.verify.campaign import (cell_name, combos, default_checkpoint,
                                   run_campaign, verify_program)
from repro.verify.generator import (CLASSIC_SHAPES, MemOp, VerifyProgram,
                                    generate_programs, program_sha)
from repro.verify.minimise import (minimise_and_bundle, minimise_violation,
                                   replay_violation)
from repro.verify.oracle import allowed_outcomes

SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")


@pytest.fixture
def crash_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CRASH_DIR", str(tmp_path / "crash"))
    return tmp_path / "crash"


@pytest.fixture
def verify_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_VERIFY_DIR", str(tmp_path / "verify"))
    return tmp_path / "verify"


# -- generator determinism (satellite: seeded reproducibility) --------------

class TestGeneratorDeterminism:
    def test_same_seed_byte_identical(self):
        a = generate_programs(42, 30)
        b = generate_programs(42, 30)
        assert [p.to_dict() for p in a] == [p.to_dict() for p in b]
        assert [program_sha(p) for p in a] == [program_sha(p) for p in b]
        blob_a = json.dumps([p.to_dict() for p in a], sort_keys=True)
        blob_b = json.dumps([p.to_dict() for p in b], sort_keys=True)
        assert blob_a.encode() == blob_b.encode()

    def test_different_seeds_differ(self):
        a = generate_programs(1, 30)
        b = generate_programs(2, 30)
        assert [p.to_dict() for p in a] != [p.to_dict() for p in b]

    def test_classics_lead_every_campaign(self):
        programs = generate_programs(7, 20)
        names = [p.name for p in programs[:len(CLASSIC_SHAPES)]]
        assert names == list(CLASSIC_SHAPES)

    def test_prefix_stability(self):
        """A larger campaign extends a smaller one, never reshuffles."""
        small = generate_programs(5, 15)
        large = generate_programs(5, 25)
        assert [p.to_dict() for p in small] == \
            [p.to_dict() for p in large[:15]]

    def test_roundtrip_through_dict(self):
        for program in generate_programs(9, 12):
            clone = VerifyProgram.from_dict(program.to_dict())
            assert clone == program
            assert program_sha(clone) == program_sha(program)


# -- the grid ---------------------------------------------------------------

class TestGrid:
    def test_seventeen_combos(self):
        grid = combos()
        assert len(grid) == 17
        assert ("rvwmo", "orinoco") in grid
        assert ("tso", "orinoco") in grid
        # ECL-family policies are not defined under TSO
        for policy in ("vb", "br", "ecl"):
            assert ("tso", policy) not in grid

    def test_healthy_classics_pass_everywhere(self):
        for name in ("sb", "mp", "mp_stress"):
            result = verify_program(CLASSIC_SHAPES[name])
            assert result["combos"] == 17
            assert result["violations"] == [], name
            assert result["errors"] == [], name

    def test_lane_path_matches_serial(self, tmp_path, crash_dir):
        """The campaign has one path: ``run_campaign`` still accepts
        ``lanes=`` and ignores it, so both runs write the same
        checkpoint, byte for byte."""
        written = []
        for lanes in (4, 1):
            path = tmp_path / f"lanes{lanes}.jsonl"
            result = run_campaign(seed=7, count=12, jobs=1, lanes=lanes,
                                  checkpoint=path, fresh=True)
            assert result.ok and result.completed == 12
            written.append(path.read_bytes())
        assert written[0] == written[1]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_cell_errors_carry_their_traceback(self, monkeypatch, threads):
        """Every thread of every combo fails on its own core, and each
        failure is reported with its cell, thread and traceback."""
        monkeypatch.setattr(campaign, "CELL_MAX_CYCLES", 1)
        sb = CLASSIC_SHAPES["sb"]
        program = VerifyProgram(sb.name, sb.threads[:threads], sb.addrs)
        result = verify_program(program)
        assert result["combos"] == 0
        assert sorted((e["cell"], e["thread"]) for e in result["errors"]) \
            == sorted((cell_name(sb.name, model, policy), t)
                      for model, policy in combos() for t in range(threads))
        for error in result["errors"]:
            assert error["error"].startswith("DeadlockError")
            assert "DeadlockError" in error["traceback"]


# -- checkpointed campaigns -------------------------------------------------

class TestCampaignCheckpoint:
    def test_clean_run_then_full_resume(self, verify_dir, crash_dir):
        first = run_campaign(seed=7, count=6, jobs=1)
        assert first.ok and first.completed == 6 and first.resumed == 0
        second = run_campaign(seed=7, count=6, jobs=1)
        assert second.ok and second.resumed == 6 and second.completed == 0

    def test_checkpoint_is_canonical_and_seed_keyed(self, verify_dir,
                                                    crash_dir):
        run_campaign(seed=7, count=6, jobs=1)
        path = default_checkpoint(7, 6)
        assert path.exists() and "s7-n6" in path.name
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        assert header == {"seed": 7, "count": 6, "version": 1}
        entries = [json.loads(line) for line in lines[1:]]
        assert [e["index"] for e in entries] == list(range(6))
        programs = generate_programs(7, 6)
        for e in entries:
            assert e["sha"] == program_sha(programs[e["index"]])
        # byte-identical across a fresh re-run (seeded determinism)
        blob = path.read_bytes()
        run_campaign(seed=7, count=6, jobs=1, fresh=True)
        assert path.read_bytes() == blob

    def test_truncated_checkpoint_resumes_without_rerun(self, verify_dir,
                                                        crash_dir):
        run_campaign(seed=7, count=6, jobs=1)
        path = default_checkpoint(7, 6)
        lines = path.read_text().splitlines()
        # keep header + 3 entries, and plant a marker violation in one
        # completed entry: if the resume re-ran the program, the marker
        # would be recomputed away
        marked = json.loads(lines[2])
        marker = {"cell": "verify/marker", "model": "tso",
                  "policy": "ioc", "outcomes": ["planted"],
                  "witnesses": []}
        marked["violations"] = [marker]
        lines[2] = json.dumps(marked, sort_keys=True)
        path.write_text("\n".join(lines[:4]) + "\n")
        result = run_campaign(seed=7, count=6, jobs=1, minimise=False)
        assert result.resumed == 3
        assert result.completed == 3
        assert any(v.get("cell") == "verify/marker"
                   for v in result.violations)

    def test_stale_checkpoint_discarded_on_seed_change(self, verify_dir,
                                                       crash_dir,
                                                       tmp_path):
        ckpt = tmp_path / "ckpt.jsonl"
        run_campaign(seed=7, count=6, jobs=1, checkpoint=ckpt)
        result = run_campaign(seed=8, count=6, jobs=1, checkpoint=ckpt)
        assert result.resumed == 0 and result.completed == 6

    def test_sigkill_mid_campaign_then_resume(self, tmp_path):
        """The acceptance path: SIGKILL a running campaign, resume it,
        and the finished programs are not re-run."""
        ckpt = tmp_path / "kill.jsonl"
        env = dict(os.environ, PYTHONPATH=SRC,
                   REPRO_VERIFY_DIR=str(tmp_path),
                   REPRO_CRASH_DIR=str(tmp_path / "crash"))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "verify",
             "--programs", "40", "--seed", "7", "--jobs", "1",
             "--checkpoint", str(ckpt)],
            env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        try:
            deadline = time.time() + 120
            while time.time() < deadline:
                if ckpt.exists() and \
                        len(ckpt.read_text().splitlines()) >= 4:
                    break
                time.sleep(0.2)
            else:
                pytest.fail("campaign produced no checkpoint entries")
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait()
        done_before = len(ckpt.read_text().splitlines()) - 1
        assert done_before >= 3
        result = run_campaign(seed=7, count=40, jobs=1, checkpoint=ckpt,
                              minimise=False)
        # a torn final line may drop one entry; every fully-recorded
        # program must be resumed, not re-run
        assert result.resumed >= done_before - 1
        assert result.resumed + result.completed == 40
        assert result.ok

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_crash_faults_fire_only_in_pool_workers(self, tmp_path, jobs):
        """``crash`` exists to exercise pool recovery: at ``--jobs 1``
        the campaign runs its programs in-process and must finish
        clean instead of dying with the fault's exit status; with
        workers each crashed program is an error entry.  Runs in a
        subprocess because a fault that fires in-process kills the
        interpreter."""
        ckpt = tmp_path / "crash.jsonl"
        env = dict(os.environ, PYTHONPATH=SRC, REPRO_FAULT="crash:verify/*",
                   REPRO_VERIFY_DIR=str(tmp_path),
                   REPRO_CRASH_DIR=str(tmp_path / "crash"))
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "verify", "--programs", "2",
             "--seed", "7", "--jobs", str(jobs), "--checkpoint", str(ckpt),
             "--no-minimise"],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == (0 if jobs == 1 else 1), proc.stderr
        entries = [json.loads(line)
                   for line in ckpt.read_text().splitlines()[1:]]
        errors = [error for entry in entries for error in entry["errors"]]
        if jobs == 1:
            assert "errors=0" in proc.stdout
            assert len(entries) == 2 and not errors
        else:
            assert "errors=2" in proc.stdout
            assert all("exitcode 86" in error["error"] for error in errors)


# -- planted fault: detect -> minimise -> bundle -> replay ------------------

PLANT = "lockdown:verify/mp_stress/tso/*"


class TestPlantedViolation:
    @pytest.fixture(scope="class")
    def campaign(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("plant")
        # restores the session's directories afterwards (conftest's)
        with pytest.MonkeyPatch.context() as patch:
            patch.setenv("REPRO_CRASH_DIR", str(tmp / "crash"))
            patch.setenv("REPRO_VERIFY_DIR", str(tmp / "verify"))
            return run_campaign(seed=7, count=9, jobs=1, faults_text=PLANT)

    def test_campaign_catches_planted_violation(self, campaign):
        assert campaign.violations
        cells = {v["cell"] for v in campaign.violations}
        assert cells <= {cell_name("mp_stress", "tso", p)
                         for _, p in combos()}
        # healthy models/policies stay clean
        assert all("/tso/" in c for c in cells)

    def test_bundle_written_and_replayable(self, campaign):
        assert campaign.bundles, "minimiser produced no bundle"
        bundle = load_bundle(campaign.bundles[0])
        assert bundle["verify"]["model"] == "tso"
        assert bundle["faults"] == PLANT
        assert "def test_verify_regression_" in \
            bundle["verify"]["regression"]
        minimised = VerifyProgram.from_dict(
            bundle["verify"]["minimised"])
        original = CLASSIC_SHAPES["mp_stress"]
        assert minimised.name == original.name
        assert sum(map(len, minimised.threads)) <= \
            sum(map(len, original.threads))
        report = replay_violation(bundle)
        assert report.reproduced
        assert "REPRODUCED" in report.format()

    def test_cli_replay_exit_codes(self, campaign, tmp_path, capsys):
        bundle_path = campaign.bundles[0]
        assert main(["replay", bundle_path]) == 0
        out = capsys.readouterr().out
        assert "verdict:  REPRODUCED" in out
        # strip the fault programme -> healthy pipeline -> code 3
        healthy = load_bundle(bundle_path)
        healthy["faults"] = ""
        healed = tmp_path / "healed.json"
        healed.write_text(json.dumps(healthy))
        assert main(["replay", str(healed)]) == 3
        assert "verdict:  NOT-REPRODUCED" in capsys.readouterr().out
        # unreadable bundle -> code 2
        assert main(["replay", str(tmp_path / "missing.json")]) == 2
        garbage = tmp_path / "garbage.json"
        garbage.write_text("{\"not\": \"a bundle\"}")
        assert main(["replay", str(garbage)]) == 2

    def test_minimised_program_still_fails(self, crash_dir):
        specs = parse_fault_specs(PLANT)
        program = CLASSIC_SHAPES["mp_stress"]
        result = verify_program(program, fault_specs=specs)
        violation = result["violations"][0]
        minimised, probes = minimise_violation(
            program, violation["model"], violation["policy"],
            fault_specs=specs)
        assert probes >= 1
        assert minimised.name == program.name
        check = verify_program(
            minimised, fault_specs=specs,
            grid=[(violation["model"], violation["policy"])])
        assert check["violations"]


# -- crash-directory cap (satellite) ----------------------------------------

class TestCrashDirCap:
    def test_oldest_bundles_evicted(self, tmp_path, monkeypatch, capsys):
        from repro.harness import diagnostics
        monkeypatch.setenv("REPRO_CRASH_KEEP", "5")
        monkeypatch.setattr(diagnostics, "_evict_warned", set())
        root = tmp_path / "crash"
        paths = []
        for i in range(8):
            bundle = {"config": {}, "cell": f"cell-{i}", "n": i}
            path = diagnostics.write_bundle(bundle, crash_dir=root)
            os.utime(path, (i, i))      # deterministic mtime order
            paths.append(path)
        survivors = sorted(p.name for p in root.glob("crash-*.json"))
        assert len(survivors) == 5
        assert sorted(p.name for p in paths[-5:]) == survivors
        assert "evicting oldest" in capsys.readouterr().err

    def test_warns_once_per_directory(self, tmp_path, monkeypatch,
                                      capsys):
        from repro.harness import diagnostics
        monkeypatch.setenv("REPRO_CRASH_KEEP", "2")
        monkeypatch.setattr(diagnostics, "_evict_warned", set())
        root = tmp_path / "crash"
        for i in range(6):
            path = diagnostics.write_bundle(
                {"config": {}, "cell": f"c{i}"}, crash_dir=root)
            os.utime(path, (i, i))
        err = capsys.readouterr().err
        assert err.count("evicting oldest") == 1

    def test_cap_disabled_for_nonpositive_keep(self, tmp_path,
                                               monkeypatch):
        from repro.harness import diagnostics
        monkeypatch.setenv("REPRO_CRASH_KEEP", "0")
        root = tmp_path / "crash"
        for i in range(4):
            diagnostics.write_bundle({"config": {}, "cell": f"c{i}"},
                                     crash_dir=root)
        assert len(list(root.glob("crash-*.json"))) == 4


# -- CLI seed plumbing (satellite) ------------------------------------------

class TestCliSeedPlumbing:
    def test_seed_flag_names_checkpoint(self, tmp_path, monkeypatch,
                                        capsys):
        monkeypatch.setenv("REPRO_VERIFY_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_CRASH_DIR", str(tmp_path / "crash"))
        assert main(["verify", "--programs", "2", "--seed", "9",
                     "--jobs", "1"]) == 0
        assert "seed=9" in capsys.readouterr().out
        assert (tmp_path / "campaign-s9-n2.jsonl").exists()

    def test_campaigns_byte_identical_across_runs(self, tmp_path,
                                                  monkeypatch, capsys):
        monkeypatch.setenv("REPRO_VERIFY_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_CRASH_DIR", str(tmp_path / "crash"))
        assert main(["verify", "--programs", "3", "--seed", "4",
                     "--jobs", "1"]) == 0
        path = tmp_path / "campaign-s4-n3.jsonl"
        blob = path.read_bytes()
        assert main(["verify", "--programs", "3", "--seed", "4",
                     "--jobs", "1", "--fresh"]) == 0
        assert path.read_bytes() == blob
        capsys.readouterr()
