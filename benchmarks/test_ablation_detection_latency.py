"""Ablation (extension): soft-error detection latency vs fingerprint interval.

Fingerprinting's guarantee (Smolens et al. [21], which Reunion builds
on) is *bounded* detection latency: an upset is exposed no later than
the comparison of the fingerprint interval it falls in, plus the
comparison latency.  This bench injects periodic upsets at several
fingerprint intervals and checks that (a) every upset is detected, and
(b) mean detection latency grows with the interval but stays within a
small multiple of interval + comparison latency.
"""

from repro.core.faults import FaultInjector, detection_latencies
from repro.harness.report import render_table
from repro.isa import assemble
from repro.sim.cmp import CMPSystem
from repro.sim.config import Mode
from repro.sim.options import SimOptions

WORKLOAD = """
    movi r1, 200
    movi r2, 0
    movi r3, 0x400
loop:
    add r2, r2, r1
    store r2, [r3]
    load r4, [r3]
    xor r5, r4, r2
    addi r3, r3, 8
    addi r1, r1, -1
    bne r1, r0, loop
    halt
"""

INTERVALS = (1, 8, 32)
COMPARISON_LATENCY = 10


def _measure(fp_interval: int, scale) -> tuple[int, int, float]:
    config = scale.config.replace(n_logical=1).with_redundancy(
        mode=Mode.REUNION,
        comparison_latency=COMPARISON_LATENCY,
        fingerprint_interval=fp_interval,
    )
    # Events-armed so each upset is correlated with *its own* interval's
    # comparison, never with the first recovery that happens along.
    system = CMPSystem(
        config, [assemble(WORKLOAD)], options=SimOptions(trace="events")
    )
    injector = FaultInjector(interval=150, seed=11)
    injector.attach(system.cores[1])  # the mute
    system.run_until_idle(max_cycles=2_000_000)
    assert not system.failed
    latencies = detection_latencies(
        injector.records, events=system.obs.log.snapshot()
    )
    mean = sum(latencies) / len(latencies) if latencies else 0.0
    return len(injector.records), len(latencies), mean


def test_detection_latency(scale):
    def campaign():
        return {interval: _measure(interval, scale) for interval in INTERVALS}

    results = campaign()
    print()
    print(
        render_table(
            "Extension — detection latency vs fingerprint interval (mute upsets)",
            ["FP interval", "Upsets", "Detected", "Mean latency (cycles)"],
            [
                [interval, injected, detected, f"{mean:.1f}"]
                for interval, (injected, detected, mean) in results.items()
            ],
            "Detection latency is bounded by the fingerprint interval plus "
            "the comparison latency (plus pipeline drain).",
        )
    )
    for interval, (injected, detected, mean) in results.items():
        assert injected >= 2
        assert detected == injected, f"undetected upsets at interval {interval}"
        # Bound: interval fill time + comparison + generous pipeline slack.
        assert mean <= 8 * (interval + COMPARISON_LATENCY) + 60

    # Latency grows (weakly) with the interval.
    means = [results[i][2] for i in INTERVALS]
    assert means[-1] >= means[0] - 5
