"""Bench report serialization, regression checks, kernel comparison."""

import pytest

from repro.exec.benchreport import (
    BENCH_SCHEMA,
    BenchReport,
    KernelComparison,
    PhaseResult,
    check_regression,
    run_bench,
    run_kernel_comparison,
    run_retire_gate_micro,
)
from repro.harness import QUICK


def make_report(cps=5000.0, identical=True) -> BenchReport:
    return BenchReport(
        date="2026-08-06",
        scale="quick",
        jobs=2,
        phases=[
            PhaseResult(
                name="fig5", wall_s=10.0, cycles=50_000, samples=11,
                cycles_per_s=cps,
            )
        ],
        kernel_comparison=[
            KernelComparison(
                name="mem-chase/reunion",
                naive_wall_s=1.0,
                event_wall_s=0.2,
                speedup=5.0,
                cycles=3_700,
                identical=identical,
            )
        ],
    )


class TestSerialization:
    def test_round_trip(self):
        report = make_report()
        assert BenchReport.from_dict(report.to_dict()) == report

    def test_write_and_load(self, tmp_path):
        report = make_report()
        path = report.write(str(tmp_path))
        assert path.endswith("BENCH_2026-08-06.json")
        assert BenchReport.load(path) == report

    def test_schema_stamped(self):
        assert make_report().to_dict()["schema"] == BENCH_SCHEMA

    def test_render_mentions_phases_and_kernels(self):
        text = make_report().render()
        assert "fig5" in text
        assert "mem-chase/reunion" in text
        assert "5.00x" in text


class TestRegressionCheck:
    def test_equal_reports_pass(self):
        assert check_regression(make_report(), make_report()) == []

    def test_small_slowdown_tolerated(self):
        current = make_report(cps=2000.0)  # 2.5x slower: within 3x
        assert check_regression(current, make_report(cps=5000.0)) == []

    def test_large_slowdown_fails(self):
        current = make_report(cps=1000.0)  # 5x slower than baseline
        problems = check_regression(current, make_report(cps=5000.0))
        assert len(problems) == 1
        assert "fig5" in problems[0]

    def test_phase_missing_from_baseline_ignored(self):
        baseline = make_report()
        baseline.phases = []
        assert check_regression(make_report(cps=1.0), baseline) == []

    def test_kernel_disagreement_always_fails(self):
        current = make_report(identical=False)
        problems = check_regression(current, make_report())
        assert any("different Stats" in p for p in problems)


class TestRunBench:
    def test_unknown_phase_rejected(self):
        with pytest.raises(ValueError):
            run_bench(scale_name="quick", only=["fig99"])

    def test_kernel_comparison_bit_identical(self):
        comparisons = run_kernel_comparison(QUICK)
        assert comparisons  # at least one memory-bound artifact
        assert all(c.identical for c in comparisons)
        assert all(c.naive_wall_s > 0 and c.event_wall_s > 0 for c in comparisons)
        # The tentpole claim: cycle skipping wins on at least one
        # memory-latency-dominated artifact.
        assert max(c.speedup for c in comparisons) >= 2.0

    def test_retire_gate_micro_retires_every_offer(self):
        # The micro raises if an offered instruction never retires.
        micro = run_retire_gate_micro(cycles=200)
        assert [m.name for m in micro] == ["immediate", "strict-check"]
        for m in micro:
            assert m.ops > 0 and m.ops_per_s > 0, m.name
