"""Command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "gcc.mix"])
        assert args.preset == "base" and args.commit == "ioc"

    def test_bad_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "gcc.mix",
                                       "--commit", "bogus"])


class TestCommands:
    def test_kernels(self, capsys):
        assert main(["kernels"]) == 0
        out = capsys.readouterr().out
        assert "mcf.chase" in out and "xalanc.hash" in out

    def test_run(self, capsys):
        assert main(["run", "gcc.mix", "--scale", "0.3",
                     "--commit", "orinoco"]) == 0
        out = capsys.readouterr().out
        assert "IPC" in out and "occupancy" in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        assert "224" in capsys.readouterr().out

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "Age Matrix (IQ)" in out and "(paper)" in out

    def test_overhead(self, capsys):
        assert main(["overhead"]) == 0
        assert "area overhead" in capsys.readouterr().out

    def test_scalability(self, capsys):
        assert main(["scalability"]) == 0
        assert "512x512" in capsys.readouterr().out

    def test_fig14_small(self, capsys):
        assert main(["fig14", "--scale", "0.2",
                     "--kernels", "gcc.mix"]) == 0
        out = capsys.readouterr().out
        assert "Figure 14" in out and "Orinoco" in out

    def test_stalls_small(self, capsys):
        assert main(["stalls", "--scale", "0.2",
                     "--kernels", "xalanc.hash"]) == 0
        out = capsys.readouterr().out
        assert "ready-but-not-head" in out


class TestNewCommands:
    def test_run_with_timeline(self, capsys):
        assert main(["run", "gcc.mix", "--scale", "0.2",
                     "--commit", "orinoco", "--timeline", "8"]) == 0
        out = capsys.readouterr().out
        assert "D=dispatch" in out and "out-of-order commits" in out

    def test_characterize(self, capsys):
        assert main(["characterize", "--scale", "0.2",
                     "--kernels", "gcc.mix"]) == 0
        assert "Workload characterization" in capsys.readouterr().out

    def test_save_trace(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        assert main(["save-trace", "gcc.mix", str(path),
                     "--scale", "0.2"]) == 0
        assert path.exists()
        from repro.isa import load_trace
        assert len(load_trace(path)) > 100

    def test_fig15_includes_bars(self, capsys):
        assert main(["fig15", "--scale", "0.2",
                     "--kernels", "x264.divint"]) == 0
        out = capsys.readouterr().out
        assert "geomean speedup vs IOC" in out and "|" in out


class TestTraceCommands:
    """``repro trace record/convert/validate`` and target listing."""

    def test_kernels_lists_kinds_and_provenance(self, capsys):
        assert main(["kernels"]) == 0
        out = capsys.readouterr().out
        assert "synthetic" in out and "scenario" in out
        assert "smt.gccdiv" in out and "sys.drain" in out
        assert "kernels.gcc_mix" in out

    def test_record_validate_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "rec.jsonl"
        assert main(["trace", "record", "gcc.mix", str(path),
                     "--scale", "0.2"]) == 0
        assert "recorded" in capsys.readouterr().out
        assert main(["trace", "validate", str(path)]) == 0
        out = capsys.readouterr().out
        assert "OK" in out and "sha256" in out and "gcc.mix" in out

    def test_convert_v1(self, tmp_path, capsys):
        import json as jsonlib

        from repro.isa import load_trace, read_header, save_trace
        from repro.workloads import build_trace
        src, dst = tmp_path / "v1.jsonl", tmp_path / "v2.jsonl"
        trace = build_trace("x264.divint", 0.2)
        save_trace(trace, src)
        # rewrite the header as v1 (drop meta)
        lines = src.read_text().splitlines()
        header = jsonlib.loads(lines[0])
        header["version"] = 1
        del header["meta"]
        lines[0] = jsonlib.dumps(header)
        src.write_text("\n".join(lines) + "\n")
        assert main(["trace", "convert", str(src), str(dst)]) == 0
        assert "converted" in capsys.readouterr().out
        assert read_header(dst)["version"] == 2
        assert len(load_trace(dst)) == len(trace)

    def test_validate_rejects_corruption(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        assert main(["trace", "record", "x264.divint", str(path),
                     "--scale", "0.2"]) == 0
        capsys.readouterr()
        lines = path.read_text().splitlines()
        lines[3] = lines[3].replace(lines[3][1:lines[3].index(",")],
                                    '"oops"', 1)
        path.write_text("\n".join(lines) + "\n")
        from repro.isa import validate_trace_file
        with pytest.raises(ValueError, match="line 4"):
            validate_trace_file(path)

    def test_run_accepts_trace_path(self, tmp_path, capsys):
        from repro.workloads import unregister_target
        path = tmp_path / "run.jsonl"
        assert main(["trace", "record", "gcc.mix", str(path),
                     "--scale", "0.2"]) == 0
        capsys.readouterr()
        try:
            assert main(["run", str(path), "--commit", "orinoco"]) == 0
            assert "IPC" in capsys.readouterr().out
        finally:
            unregister_target("trace:gcc.mix")

    def test_experiment_accepts_trace_import(self, tmp_path, capsys):
        from repro.workloads import unregister_target
        path = tmp_path / "sweep.jsonl"
        assert main(["trace", "record", "gcc.mix", str(path),
                     "--scale", "0.15"]) == 0
        capsys.readouterr()
        try:
            assert main(["fig14", "--scale", "0.15", "--no-cache",
                         "--trace", str(path),
                         "--kernels", "trace:gcc.mix"]) == 0
            out = capsys.readouterr().out
            assert "Figure 14" in out and "trace:gcc.mix" in out
        finally:
            unregister_target("trace:gcc.mix")


class TestExecutorFlags:
    def test_jobs_and_no_cache_parsed(self):
        args = build_parser().parse_args(
            ["fig14", "--jobs", "3", "--no-cache"])
        assert args.jobs == 3 and args.no_cache

    def test_jobs_default_is_env_driven(self):
        args = build_parser().parse_args(["fig15"])
        assert args.jobs is None and not args.no_cache

    def test_bench_parser(self):
        args = build_parser().parse_args(
            ["bench", "fig15", "--jobs", "2", "--no-cache"])
        assert args.figure == "fig15"
        assert args.jobs == 2 and args.no_cache

    def test_bench_smoke_under_executor(self, capsys):
        assert main(["bench", "fig14", "--scale", "0.15",
                     "--kernels", "gcc.mix", "--jobs", "2",
                     "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "Figure 14" in out
        assert "executor:" in out and "workers=2" in out
        assert "wall-clock" in out

    def test_bench_reports_the_lanes_that_applied(self, capsys):
        """Lanes batch only in-process: with workers the executor line
        says ``lanes=1`` whatever ``--lanes`` asked for."""
        assert main(["bench", "fig15", "--scale", "0.05",
                     "--kernels", "gcc.mix", "--jobs", "2", "--lanes", "4",
                     "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "workers=2, lanes=1," in out
        assert "lane batches" not in out
