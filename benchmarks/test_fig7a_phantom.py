"""Benchmark: Figure 7(a) — performance by phantom request strength.

Shape criteria: global phantom requests perform close to the Figure 5
Reunion result; shared and null suffer from recovery costs, with null at
or below shared everywhere.
"""

from repro.harness.fig7 import run_fig7a


def test_fig7a(runner):
    result = run_fig7a(runner=runner)
    print()
    print(result.render())

    for name, _category, global_ipc, shared_ipc, null_ipc in result.rows:
        # Tolerance note: scaled-down scientific kernels are L2-resident,
        # so their shared-phantom replies are usually coherent and shared
        # can tie global within noise (the paper's giant working sets
        # keep them well apart).
        assert global_ipc >= shared_ipc - 0.06, f"{name}: global must win"
        assert shared_ipc >= null_ipc - 0.05, f"{name}: shared >= null"
        assert global_ipc > 0.6, f"{name}: global phantom implausibly slow"

    # Null phantom is a severe penalty somewhere (the paper: severe
    # impact for all workloads; we require it on the suite average).
    avg_global = sum(r[2] for r in result.rows) / len(result.rows)
    avg_null = sum(r[4] for r in result.rows) / len(result.rows)
    assert avg_null < avg_global - 0.10
