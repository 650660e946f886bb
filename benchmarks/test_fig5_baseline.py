"""Benchmark: regenerate Figure 5 (baseline Strict and Reunion performance).

Run with ``pytest benchmarks/test_fig5_baseline.py``.
Prints the per-workload normalized-IPC table and asserts the paper's
shape: Strict >= Reunion, both close to 1.0, commercial penalties at
least as large as scientific for Strict.
"""

from repro.harness.fig5 import run_fig5


def test_fig5(runner):
    result = run_fig5(runner=runner)
    print()
    print(result.render())

    for name, _category, strict, reunion in result.rows:
        assert 0.4 < reunion <= strict * 1.05, f"{name}: Reunion should not beat Strict"
        assert strict <= 1.08, f"{name}: Strict cannot beat non-redundant by much"

    # Strict stays close to non-redundant; Reunion pays the relaxed-
    # input-replication overhead on top.
    assert result.commercial_average(2) > 0.80
    assert result.scientific_average(2) > 0.90
    assert result.commercial_average(3) > 0.70
    # Scientific workloads lose less than commercial under Strict, as in
    # the paper (serializing instructions dominate commercial).
    assert result.scientific_average(2) >= result.commercial_average(2) - 0.02
