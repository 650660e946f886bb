"""Ablation: output-comparison bandwidth by scheme (Section 2.4).

Shape criteria from the paper's survey: dependence-chain comparison
saves roughly twenty percent over direct comparison; fingerprinting cuts
bandwidth by orders of magnitude.
"""

from repro.core.bandwidth import BandwidthMeter
from repro.harness.report import render_table
from repro.sim.cmp import CMPSystem
from repro.sim.config import Mode
from repro.workloads import by_name


def test_comparison_bandwidth(scale):
    workload = by_name("DB2 OLTP")

    def measure():
        out = {}
        for interval in (1, 50):
            config = scale.config.with_redundancy(
                mode=Mode.REUNION, comparison_latency=10, fingerprint_interval=interval
            )
            system = CMPSystem(
                config, workload.programs(config.n_logical, 0),
                workload.itlb_schedules(config.n_logical, 0),
            )
            meter = BandwidthMeter(
                fingerprint_bits=config.redundancy.fingerprint_bits,
                fingerprint_interval=interval,
            )
            meter.attach(system.vocal_cores[0])
            system.run(scale.warmup + scale.measure)
            out[interval] = meter
        return out

    meters = measure()
    meter = meters[1]
    print()
    print(
        render_table(
            "Ablation — comparison bandwidth per retired instruction (DB2 OLTP)",
            ["Scheme", "bits/instr"],
            [
                ["direct (all results)", f"{meter.direct_bits_per_instr:.1f}"],
                ["dependence-chain ends", f"{meter.chain_bits_per_instr:.1f}"],
                ["fingerprint, interval 1", f"{meters[1].fingerprint_bits_per_instr:.1f}"],
                ["fingerprint, interval 50", f"{meters[50].fingerprint_bits_per_instr:.2f}"],
            ],
            "Paper: chain comparison saves ~20%; fingerprints cut bandwidth "
            "by orders of magnitude.",
        )
    )
    assert meter.instructions > 1000
    # Chain-ending comparison is a genuine but modest saving.
    assert meter.chain_bits_per_instr < meter.direct_bits_per_instr
    assert meter.chain_bits_per_instr > 0.4 * meter.direct_bits_per_instr
    # Fingerprinting is orders of magnitude below direct comparison.
    assert meters[1].fingerprint_bits_per_instr < meter.direct_bits_per_instr / 2
    assert meters[50].fingerprint_bits_per_instr < meter.direct_bits_per_instr / 100
