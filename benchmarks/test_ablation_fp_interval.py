"""Ablation: fingerprint interval length (Section 4.3).

The paper reports that intervals between 1 and 50 instructions perform
indistinguishably, because useful computation continues to the end of
the interval *and the 256-entry RUU absorbs the extra occupancy*.  The
second condition matters: on a small ROB, a 50-instruction interval eats
most of the speculation window.  This bench therefore sweeps the
interval at the paper's RUU size and asserts the spread stays small.
"""

import dataclasses

from repro.harness.report import render_series
from repro.sim.config import Mode
from repro.workloads import by_name

INTERVALS = (1, 4, 16, 50)


def test_fingerprint_interval(runner, scale):
    workload = by_name("DB2 OLTP")
    # The paper's claim is conditioned on its 256-entry RUU and 64-entry
    # store buffer; the scaled defaults are too small to absorb
    # 50-instruction intervals (stores wait in the buffer until checked).
    big_rob = dataclasses.replace(
        scale.config,
        core=dataclasses.replace(
            scale.config.core, rob_size=256, store_buffer_size=64
        ),
    )

    def sweep():
        points = []
        for interval in INTERVALS:
            config = big_rob.with_redundancy(
                mode=Mode.REUNION,
                comparison_latency=10,
                fingerprint_interval=interval,
            )
            points.append(runner.normalized_ipc(config, workload))
        return points

    points = sweep()
    print()
    print(
        render_series(
            "Ablation — fingerprint interval (DB2 OLTP, latency 10)",
            "interval",
            list(INTERVALS),
            {"normalized IPC": points},
            "Paper: performance difference between intervals of 1 and 50 "
            "instructions is insignificant.",
        )
    )
    spread = max(points) - min(points)
    # Paper: "insignificant" difference between intervals 1 and 50.  At
    # quick scale a single short window carries a few points of noise.
    assert spread < 0.18, f"interval sweep spread {spread:.3f} too large: {points}"
