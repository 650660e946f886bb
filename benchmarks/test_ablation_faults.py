"""Ablation (extension): soft-error injection campaign.

The paper injects no faults (Section 5); this extension exercises the
full detect-and-recover path: periodic single-bit upsets on vocal and
mute datapaths must all be detected by fingerprint comparison and
corrected by the re-execution protocol, leaving architectural state
identical to a golden run.
"""

from repro.core.faults import FaultInjector
from repro.harness.report import render_table
from repro.isa import assemble
from repro.isa.interpreter import run as golden_run
from repro.sim.cmp import CMPSystem
from repro.sim.config import Mode

WORKLOAD = """
    movi r1, 60
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


def _campaign(victim: str, interval: int, config) -> dict:
    system = CMPSystem(config, [assemble(WORKLOAD)])
    injector = FaultInjector(interval=interval, seed=sum(victim.encode()))
    core = system.vocal_cores[0] if victim == "vocal" else system.cores[1]
    injector.attach(core)
    system.run_until_idle(max_cycles=1_000_000)
    golden = golden_run(assemble(WORKLOAD)).registers
    corrupted = any(
        system.vocal_cores[0].arf.read(reg) != golden.read(reg) for reg in range(8)
    )
    return {
        "victim": victim,
        "injected": len(injector.records),
        "recoveries": system.recoveries(),
        "failed": system.failed,
        "state_correct": not corrupted,
    }


def test_fault_campaign(scale):
    config = scale.config.replace(n_logical=1).with_redundancy(
        mode=Mode.REUNION, comparison_latency=10
    )

    def campaign():
        return [
            _campaign("vocal", interval=60, config=config),
            _campaign("mute", interval=45, config=config),
        ]

    results = campaign()
    print()
    print(
        render_table(
            "Extension — soft-error injection campaign",
            ["Victim", "Upsets", "Recoveries", "Failed", "State correct"],
            [
                [r["victim"], r["injected"], r["recoveries"], r["failed"], r["state_correct"]]
                for r in results
            ],
            "Every injected upset is detected and recovered; final vocal "
            "state matches the golden model.",
        )
    )
    for r in results:
        assert r["injected"] >= 1
        assert r["recoveries"] >= 1
        assert not r["failed"]
        assert r["state_correct"]
