"""Ablation (extension): external-interrupt cost under redundant execution.

Section 4.3: interrupts are replicated to both cores and serviced at a
fingerprint-interval boundary chosen by the vocal.  Each delivery costs
a pipeline flush plus a serializing handler on *both* cores, so the cost
per interrupt grows with the comparison latency — another instance of
the serializing-event tax that Figure 7(b) shows for TLB handlers.
"""

from repro.harness.report import render_series
from repro.sim.cmp import CMPSystem
from repro.sim.config import Mode
from repro.workloads import by_name

LATENCIES = (0, 20, 40)
INTERRUPT_PERIOD = 400  # cycles between deliveries


def _throughput(latency: int, interrupts: bool, scale) -> float:
    workload = by_name("Zeus")
    config = scale.config.replace(n_logical=2).with_redundancy(
        mode=Mode.REUNION, comparison_latency=latency
    )
    system = CMPSystem(
        config, workload.programs(2, 0), workload.itlb_schedules(2, 0)
    )
    system.run(scale.warmup)
    start = system.user_instructions()
    for cycle in range(scale.measure):
        if interrupts and cycle % INTERRUPT_PERIOD == 0:
            system.post_interrupt(0)
        system.step()
    return (system.user_instructions() - start) / scale.measure


def test_interrupt_cost(scale):
    def sweep():
        quiet, noisy = [], []
        for latency in LATENCIES:
            quiet.append(_throughput(latency, interrupts=False, scale=scale))
            noisy.append(_throughput(latency, interrupts=True, scale=scale))
        return quiet, noisy

    quiet, noisy = sweep()
    relative = [n / q if q else 0.0 for q, n in zip(quiet, noisy)]
    print()
    print(
        render_series(
            f"Extension — IPC with an interrupt every {INTERRUPT_PERIOD} cycles "
            "(Zeus, Reunion)",
            "latency",
            list(LATENCIES),
            {"no interrupts (IPC)": quiet, "with interrupts (IPC)": noisy,
             "relative": relative},
            "Interrupt delivery costs a flush plus a serializing handler on "
            "both cores; the tax grows with the comparison latency.",
        )
    )
    # Interrupts always cost something, and never break the machine.
    for q, n in zip(quiet, noisy):
        assert 0 < n <= q * 1.05
    # The interrupt tax at a 40-cycle latency exceeds the zero-latency tax.
    assert relative[-1] <= relative[0] + 0.05