"""Tests for the command-line interface."""

import os

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

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--interval", "0", "fingerprint interval must be >= 1"),
            ("--latency", "-1", "comparison latency cannot be negative"),
            ("--pairs", "0", "at least one logical processor"),
        ],
    )
    def test_out_of_range_number_is_a_usage_error(self, capsys, flag, value, message):
        assert main(["campaign", "compute-kernel", flag, value]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    def test_width_without_polynomial_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["campaign", "compute-kernel", "--bits", "20"])
        assert exit_info.value.code == 2
        assert "invalid choice: 20" in capsys.readouterr().err


class TestCache:
    """``repro cache``: stats, gc and verify over both stores of a root."""

    @pytest.fixture
    def root(self, tmp_path):
        """A cache root holding one sample record and one campaign record."""
        from repro.campaign.plan import plan_campaign
        from repro.campaign.resume import OutcomeCache, campaign_root
        from repro.exec.cache import ResultCache
        from repro.exec.jobs import SampleJob
        from repro.sim.config import DEFAULT_CONFIG
        from repro.sim.sampling import Sample
        from tests.campaign.test_report_resume import WINDOW, _outcome

        job = SampleJob(
            config=DEFAULT_CONFIG, workload_name="ocean", seed=0, warmup=80, measure=160
        )
        sample = Sample(
            cycles=160, user_instructions=300, recoveries=1, tlb_misses=2,
            sync_requests=3, serializing=4,
        )
        ResultCache(tmp_path).put(job, sample)
        campaign_job = plan_campaign("compute-kernel", 1, **WINDOW)[0]
        OutcomeCache(campaign_root(tmp_path)).put(campaign_job, _outcome())
        return tmp_path

    def cache(self, root, *args):
        return main(["cache", "--root", str(root), *args])

    def test_stats_counts_both_stores(self, root, capsys):
        assert self.cache(root, "stats") == 0
        out = capsys.readouterr().out
        assert "samples\n  entries : 1\n" in out
        assert "campaign\n  entries : 1\n" in out

    def test_gc_older_than_zero_removes_every_record(self, root, capsys):
        # Back-date the records, so a coarse file-system clock cannot
        # stamp them at the cutoff itself.
        for path in root.rglob("*.json"):
            os.utime(path, (path.stat().st_atime - 60, path.stat().st_mtime - 60))
        assert self.cache(root, "gc", "--older-than", "0") == 0
        out = capsys.readouterr().out
        assert "samples: removed 1 record(s)" in out
        assert "campaign: removed 1 record(s)" in out
        assert self.cache(root, "stats") == 0
        assert capsys.readouterr().out.count("entries : 0") == 2

    def test_verify_quarantines_a_corrupt_record(self, root, capsys):
        (record,) = root.glob("??/*.json")
        record.write_text("{ not json")
        assert self.cache(root, "verify") == 1
        out = capsys.readouterr().out
        assert f"samples: 0 record(s) OK, 1 quarantined:\n  {record.stem}\n" in out
        assert "campaign: 1 record(s) OK\n" in out
        assert (root / "quarantine" / record.name).read_text() == "{ not json"
        assert not record.exists()

    @pytest.mark.parametrize(
        "age, message",
        [
            ("5x", "--older-than wants a duration like 3600, 30m, 12h, 7d; got '5x'"),
            ("-1", "--older-than must be non-negative"),
        ],
    )
    def test_bad_age_is_a_usage_error(self, root, age, message, capsys):
        assert self.cache(root, "gc", f"--older-than={age}") == 2
        captured = capsys.readouterr()
        assert captured.err == message + "\n"
        assert captured.out == ""
        assert len(list(root.rglob("*.json"))) == 2  # nothing collected


#: Invalid command lines, each with its one-line error.  MISSING and BAD
#: stand for a missing source file and one with an unknown mnemonic.
BAD_INPUT = {
    "run em3d --cpus 0": "at least one logical processor",
    "run em3d --interval 0": "fingerprint interval must be >= 1",
    "run em3d --latency -3": "comparison latency cannot be negative",
    "run em3d --protection bogus": "bad protection spec 'bogus'",
    "trace em3d --protection bogus --no-cache": "bad protection spec 'bogus'",
    "asm MISSING": "No such file or directory",
    "asm BAD": "unknown mnemonic 'frobnicate'",
}


class TestBadInput:
    @pytest.mark.parametrize("command, message", BAD_INPUT.items(), ids=list(BAD_INPUT))
    def test_is_a_usage_error(self, command, message, tmp_path, capsys):
        bad = tmp_path / "bad.s"
        bad.write_text("movi r1, 1\nfrobnicate r1\nhalt\n")
        paths = {"MISSING": str(tmp_path / "missing.s"), "BAD": str(bad)}
        assert main([paths.get(arg, arg) for arg in command.split()]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert err.count("\n") == 1 and "Traceback" not in err, err


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_bench_is_not_a_command(self, capsys):
        # bench/run.py is the repository's one benchmark.
        with pytest.raises(SystemExit) as exit_info:
            main(["bench"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err
