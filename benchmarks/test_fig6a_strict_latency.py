"""Benchmark: Figure 6(a) — Strict sensitivity to comparison latency.

Shape criteria: essentially no penalty at zero latency; normalized IPC
decreases (weakly) monotonically as the latency grows to 40 cycles.
"""

from repro.harness.fig6 import run_fig6
from repro.sim.config import Mode


def test_fig6a(runner):
    result = run_fig6(Mode.STRICT, runner=runner)
    print()
    print(result.render())

    for category, points in result.series.items():
        assert points[0] > 0.93, f"{category}: Strict at 0 cycles ~ non-redundant"
        assert points[-1] < points[0] + 0.02, f"{category}: no gain from latency"
        # Weak monotone decrease (small sampling noise tolerated).
        for earlier, later in zip(points, points[1:]):
            assert later <= earlier + 0.04, f"{category}: {points}"
        assert points[-1] >= 0.5, f"{category}: 40-cycle penalty implausibly large"
