"""Ablation: ROB capacity vs check-stage occupancy (Section 5.2).

Scientific workloads saturate the reorder buffer: instructions waiting
in check occupy ROB entries, reducing memory-level parallelism.  The
paper notes larger speculation windows eliminate this bottleneck (but
not serializing stalls).  This bench sweeps the RUU size under Strict at
a long comparison latency and checks the occupancy effect shrinks.
"""

import dataclasses

from repro.harness.report import render_series
from repro.sim.config import Mode
from repro.workloads import by_name

ROB_SIZES = (32, 64, 128)


def test_rob_occupancy(runner, scale):
    workload = by_name("em3d")  # memory-parallel scientific workload

    def sweep():
        points = []
        for rob in ROB_SIZES:
            config = dataclasses.replace(
                scale.config,
                core=dataclasses.replace(scale.config.core, rob_size=rob),
            )
            strict = config.with_redundancy(mode=Mode.STRICT, comparison_latency=40)
            points.append(runner.normalized_ipc(strict, workload))
        return points

    points = sweep()
    print()
    print(
        render_series(
            "Ablation — Strict @ 40-cycle latency vs RUU size (em3d)",
            "RUU entries",
            list(ROB_SIZES),
            {"normalized IPC": points},
            "Larger windows absorb check-stage occupancy (Section 5.2): the "
            "penalty shrinks as the RUU grows.",
        )
    )
    # The biggest window is at least as good as the smallest.
    assert points[-1] >= points[0] - 0.03, points
