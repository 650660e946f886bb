"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestList:
    def test_lists_suite_and_micro(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("Apache", "DB2 OLTP", "em3d", "pointer-chase"):
            assert name in out


class TestRun:
    def test_run_workload(self, capsys):
        code = main(
            ["run", "ocean", "--warmup", "200", "--measure", "400", "--cpus", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "aggregate IPC" in out
        assert "incoherence" in out  # reunion default

    def test_run_nonredundant(self, capsys):
        code = main(
            [
                "run", "ocean", "--mode", "nonredundant",
                "--warmup", "150", "--measure", "300", "--cpus", "2",
            ]
        )
        assert code == 0
        assert "incoherence" not in capsys.readouterr().out

    def test_run_micro_workload(self, capsys):
        code = main(
            [
                "run", "pointer-chase", "--mode", "nonredundant",
                "--warmup", "150", "--measure", "300", "--cpus", "2",
            ]
        )
        assert code == 0

    def test_unknown_workload(self, capsys):
        assert main(["run", "nope", "--cpus", "2"]) == 2
        assert "unknown workload" in capsys.readouterr().err


class TestAsm:
    def test_assemble_and_run(self, tmp_path, capsys):
        source = tmp_path / "prog.s"
        source.write_text(
            """
            movi r1, 6
            movi r2, 7
            mul r3, r1, r2
            halt
            """
        )
        assert main(["asm", str(source)]) == 0
        out = capsys.readouterr().out
        assert "r3" in out and "42" in out
        assert "recoveries=0" in out

    def test_asm_nonredundant(self, tmp_path, capsys):
        source = tmp_path / "prog.s"
        source.write_text("movi r1, 5\nhalt")
        assert main(["asm", str(source), "--mode", "nonredundant"]) == 0
        assert "recoveries" not in capsys.readouterr().out


class TestReproduce:
    def test_unknown_experiment(self, capsys):
        assert main(["reproduce", "--only", "bogus"]) == 2

    def test_sc_experiment_runs(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SCALE", "quick")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        # Patch a tiny scale through the environment is not possible;
        # run the cheapest experiment instead.
        code = main(["reproduce", "--only", "sc"])
        assert code == 0
        captured = capsys.readouterr()
        assert "Sequential Consistency" in captured.out
        assert "run manifest" in captured.err

    def test_scale_flag_overrides_env_and_cache_warms(
        self, capsys, monkeypatch, tmp_path
    ):
        # An invalid REPRO_SCALE proves --scale wins over the environment.
        monkeypatch.setenv("REPRO_SCALE", "bogus")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        code = main(["reproduce", "--only", "sc", "--scale", "quick", "--jobs", "2"])
        assert code == 0
        first = capsys.readouterr()
        assert "cache hits : 0 (0%)" in first.err
        # Second invocation (fresh Runner, same cache dir): all hits,
        # zero simulations, byte-identical artifact output.
        code = main(["reproduce", "--only", "sc", "--scale", "quick", "--jobs", "2"])
        assert code == 0
        second = capsys.readouterr()
        assert "(100%)" in second.err
        assert "executed   : 0" in second.err
        assert second.out == first.out

    def test_no_cache_flag_skips_persistence(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SCALE", "quick")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.chdir(tmp_path)
        code = main(["reproduce", "--only", "sc", "--no-cache"])
        assert code == 0
        assert not (tmp_path / "cache").exists()


class TestTrace:
    """``repro trace``: telemetry-armed replay of one sample."""

    ARGS = [
        "trace", "pointer-chase", "--phantom", "null", "--cpus", "1",
        "--warmup", "1000", "--measure", "3000",
    ]

    @pytest.fixture(autouse=True)
    def _mirror_eligible(self, monkeypatch):
        # The taxonomy below includes mirror windows, which only a
        # full-policy pair under replay execution emits — pin both so
        # the REPRO_PROTECTION=little-mute and REPRO_EXEC=dual CI legs
        # don't retarget it.
        monkeypatch.delenv("REPRO_PROTECTION", raising=False)
        monkeypatch.delenv("REPRO_EXEC", raising=False)

    def test_emits_the_event_taxonomy(self, capsys, monkeypatch, tmp_path):
        import json

        monkeypatch.chdir(tmp_path)
        assert main([*self.ARGS, "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "telemetry level=events" in out
        assert "fresh run" in out

        jsonl = (tmp_path / "TRACE_pointer-chase.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in jsonl]
        kinds = {record["kind"] for record in records}
        # The acceptance taxonomy: comparisons, recoveries, mirror windows.
        assert "fingerprint.compare" in kinds
        assert any(kind.startswith("recovery.") for kind in kinds)
        assert any(kind.startswith("mirror.") for kind in kinds)
        assert records[-1]["kind"] == "summary"

        trace = json.loads((tmp_path / "TRACE_pointer-chase.trace.json").read_text())
        names = {event["name"] for event in trace["traceEvents"]}
        assert "process_name" in names
        assert "recovery" in names  # paired start->resume duration slices

    def test_second_run_verifies_against_the_cache(
        self, capsys, monkeypatch, tmp_path
    ):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert main(self.ARGS) == 0
        assert "fresh run" in capsys.readouterr().out
        assert main(self.ARGS) == 0
        assert "cache-verified" in capsys.readouterr().out

    def test_custom_stem_and_level(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        code = main(
            [*self.ARGS, "--no-cache", "--level", "full", "--out", "deep"]
        )
        assert code == 0
        assert "level=full" in capsys.readouterr().out
        assert (tmp_path / "deep.jsonl").exists()
        assert (tmp_path / "deep.trace.json").exists()

    def test_unknown_workload(self, capsys):
        assert main(["trace", "nope"]) == 2
        assert "unknown workload" in capsys.readouterr().err


class TestCampaign:
    """``repro campaign``: statistical fault injection with resume."""

    ARGS = [
        "campaign", "compute-kernel", "--injections", "8",
        "--commits", "120", "--jobs", "1",
    ]

    def test_reports_the_taxonomy_and_resumes_identically(
        self, capsys, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        report = tmp_path / "campaign.json"
        assert main([*self.ARGS, "--report", str(report)]) == 0
        first = capsys.readouterr()
        assert "Fault-injection campaign" in first.out
        assert "coverage" in first.out and "aliasing" in first.out
        assert "executed   : 8" in first.err
        first_report = report.read_bytes()

        # Resume: zero simulations, byte-identical reports.
        assert main([*self.ARGS, "--resume", "--report", str(report)]) == 0
        second = capsys.readouterr()
        assert "executed   : 0" in second.err
        assert "(100%)" in second.err
        assert second.out == first.out
        assert report.read_bytes() == first_report

    def test_unknown_workload(self, capsys):
        assert main(["campaign", "nope"]) == 2
        assert "unknown workload" in capsys.readouterr().err


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])
