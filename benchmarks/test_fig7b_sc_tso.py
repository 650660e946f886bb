"""Benchmark: Section 5.5 — store serialization under sequential consistency.

Shape criterion: SC places membar semantics on every store, so every
store serializes retirement; at a large comparison latency the SC curve
sits far below TSO (over 60% loss at 40 cycles in the paper).
"""

from repro.harness.fig7 import run_sc_comparison


def test_sc_vs_tso(runner):
    result = run_sc_comparison(runner=runner)
    print()
    print(result.render())

    # SC is slower than TSO at every measured latency...
    for tso, sc in zip(result.tso, result.sc):
        assert sc < tso + 0.02, (tso, sc)
    # ...and the 40-cycle point shows a deep penalty.
    assert result.sc[-1] < result.tso[-1] - 0.10
    assert result.sc[-1] < 0.75
