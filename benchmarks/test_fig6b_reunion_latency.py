"""Benchmark: Figure 6(b) — Reunion sensitivity to comparison latency.

Shape criteria: unlike Strict, Reunion already pays a penalty at zero
latency (loose vocal/mute coupling plus mute contention at the shared
cache — the cost of relaxed input replication), and the curve declines
toward the Strict trend as the comparison latency dominates.
"""

from repro.harness.fig6 import run_fig6
from repro.sim.config import Mode


def test_fig6b(runner):
    result = run_fig6(Mode.REUNION, runner=runner)
    print()
    print(result.render())

    strict = run_fig6(Mode.STRICT, runner=runner)  # cached samples: cheap

    zero_latency_penalties = []
    for category, points in result.series.items():
        zero_latency_penalties.append(1.0 - points[0])
        for earlier, later in zip(points, points[1:]):
            assert later <= earlier + 0.05, f"{category}: {points}"
        # Reunion never beats the Strict oracle by more than noise.
        for r, s in zip(points, strict.series[category]):
            assert r <= s + 0.05, f"{category}: Reunion {r:.3f} > Strict {s:.3f}"

    # The relaxed-input-replication cost exists: some class pays a real
    # penalty at zero comparison latency (paper: 5-6% on average).
    assert max(zero_latency_penalties) > 0.01
