"""Tests for external-interrupt alignment (Section 4.3).

The paper: "Reunion handles external interrupts by replicating the
request to both the vocal and mute cores.  The vocal core chooses a
fingerprint interval at which to service the interrupt.  Both processors
service the interrupt after comparing and retiring the preceding
instructions."
"""

import pytest

from repro.core.faults import FaultInjector
from repro.core.pair import default_interrupt_handler
from repro.isa import assemble
from repro.isa.interpreter import run as golden_run
from repro.pipeline.flat import M_INJECTED
from repro.sim.cmp import CMPSystem
from repro.sim.config import Mode, parse_policy
from tests.core.helpers import SMALL, build

LOOP = """
    movi r1, 400
    movi r2, 0
loop:
    add r2, r2, r1
    xor r3, r3, r2
    addi r1, r1, -1
    bne r1, r0, loop
    halt
"""


class TestDefaultHandler:
    def test_handler_is_serializing_heavy(self):
        handler = default_interrupt_handler()
        serializing = sum(1 for inst in handler if inst.is_serializing)
        assert serializing >= 3  # two traps + device ack

    def test_handler_touches_only_r0(self):
        for inst in default_interrupt_handler():
            assert not inst.writes_reg


class TestReunionInterrupts:
    def test_both_cores_service_at_same_point(self):
        system = build([LOOP], mode=Mode.REUNION)
        system.run(60)
        target = system.pairs[0].post_interrupt()
        system.run_until_idle(max_cycles=500_000)

        vocal, mute = system.vocal_cores[0], system.cores[1]
        assert vocal.interrupts_serviced == 1
        assert mute.interrupts_serviced == 1
        assert target <= vocal.user_retired
        # Handler instructions ran on both cores.
        assert vocal.injected_retired == len(default_interrupt_handler())
        assert mute.injected_retired == len(default_interrupt_handler())

    def test_interrupt_does_not_perturb_results(self):
        golden = golden_run(assemble(LOOP))
        system = build([LOOP], mode=Mode.REUNION)
        system.run(50)
        system.pairs[0].post_interrupt()
        system.run_until_idle(max_cycles=500_000)
        vocal = system.vocal_cores[0]
        for reg in range(4):
            assert vocal.arf.read(reg) == golden.registers.read(reg)
        assert vocal.user_retired == golden.retired
        assert vocal.arf == system.cores[1].arf

    def test_interrupt_causes_no_recovery(self):
        system = build([LOOP], mode=Mode.REUNION)
        system.run(50)
        system.pairs[0].post_interrupt()
        system.run_until_idle(max_cycles=500_000)
        assert system.recoveries() == 0

    def test_multiple_interrupts(self):
        system = build([LOOP], mode=Mode.REUNION)
        system.run(50)
        system.pairs[0].post_interrupt()
        system.run(200)
        system.pairs[0].post_interrupt()
        system.run_until_idle(max_cycles=500_000)
        assert system.vocal_cores[0].interrupts_serviced == 2
        assert system.cores[1].interrupts_serviced == 2

    def test_empty_handler_rejected(self):
        # Fetch returns to the interrupted PC only after draining a
        # handler instruction, and the interrupt counts as serviced at
        # the last one: an empty handler would do neither.
        system = build([LOOP], mode=Mode.REUNION)
        with pytest.raises(ValueError, match="at least one instruction"):
            system.pairs[0].post_interrupt([])
        assert not system.vocal_cores[0]._interrupts
        assert not system.cores[1]._interrupts

    def test_interrupt_after_halt_never_serviced(self):
        short = "movi r1, 1\nhalt"
        system = build([short], mode=Mode.REUNION)
        system.run_until_idle(max_cycles=100_000)
        system.pairs[0].post_interrupt()
        system.run(500)
        assert system.vocal_cores[0].interrupts_serviced == 0


@pytest.mark.parametrize("mode", [Mode.NONREDUNDANT, Mode.STRICT, Mode.REUNION])
def test_system_rejects_an_empty_handler_in_every_mode(mode):
    """Only ``None`` asks for the default handler."""
    system = build([LOOP], mode=mode)
    with pytest.raises(ValueError, match="at least one instruction"):
        system.post_interrupt(0, [])
    assert not any(core._interrupts for core in system.cores)


#: A load in every iteration, so a recovery flush finds user entries in
#: check on both cores of a pair.
LOADING_LOOP = """
    movi r1, 3000
    movi r2, 0
    movi r5, 4096
loop:
    load r4, [r5]
    add r2, r2, r1
    xor r3, r3, r2
    add r2, r2, r4
    addi r1, r1, -1
    bne r1, r0, loop
    halt
"""


#: User traps squash at retirement, the loop branch mispredicts on exit.
TRAPPING_LOOP = """
    movi r1, 60
    movi r5, 4096
loop:
    load r4, [r5]
    add r2, r2, r1
    trap
    xor r3, r3, r2
    addi r1, r1, -1
    bne r1, r0, loop
    halt
"""


def _offers_owed(core) -> int:
    """What ``users_offered`` must read: user instructions retired plus
    the user entries in check."""
    in_check = (core.rob[i] for i in range(core._n_check))
    return core.user_retired + sum(
        1 for slot in in_check if not core.f_mask[slot] & M_INJECTED
    )


class TestInterruptAfterRecovery:
    def test_both_cores_service_once(self):
        """An interrupt posted once a recovery's single-step ends.

        The recovery flush drops a different number of in-check offers
        on the vocal and on its narrowed mute.  Were they still counted,
        the two cores would reach the interrupt's target at different
        stream points, and the pair would recover over and over.
        """
        config = SMALL.with_redundancy(
            mode=Mode.REUNION, fingerprint_interval=8, comparison_latency=10
        ).with_protection(parse_policy("little-mute:2"))
        system = CMPSystem(config, [assemble(LOADING_LOOP)])
        pair = system.pairs[0]
        injector = FaultInjector(target="result", seed=1)
        injector.attach(system.cores[1])
        system.run(200)
        injector.inject_once(after=5)
        while not pair.recoveries:
            system.run(1)
        for core in system.cores:
            assert core.gate.users_offered == _offers_owed(core)
        while system.cores[0].single_step:
            system.run(1)
        for core in system.cores:
            assert core.gate.users_offered == _offers_owed(core)
        pair.post_interrupt()
        system.run_until_idle(max_cycles=50_000)

        assert pair.recoveries == 1
        handler = len(default_interrupt_handler())
        for core in system.cores:
            assert core.interrupts_serviced == 1
            assert core.injected_retired == handler
        golden = golden_run(assemble(LOADING_LOOP))
        vocal = system.vocal_cores[0]
        assert vocal.user_retired == golden.retired
        assert vocal.arf.read(2) == golden.registers.read(2)

    @pytest.mark.parametrize("mode", [Mode.NONREDUNDANT, Mode.REUNION])
    def test_every_squash_gives_back_its_offers(self, mode):
        """After every cycle of traps, mispredicts and (with upsets on
        the mute) recovery flushes, each core's count is exact."""
        system = build([TRAPPING_LOOP], mode=mode, fingerprint_interval=8)
        if system.pairs:
            FaultInjector(interval=40, seed=3).attach(system.cores[1])
        while not system.idle:
            system.run(1)
            for core in system.cores:
                assert core.gate.users_offered == _offers_owed(core), system.now
        assert system.vocal_cores[0].serializing_retired == 60
        if system.pairs:
            assert system.recoveries() > 0


class TestNonRedundantInterrupts:
    def test_single_core_services(self):
        system = build([LOOP], mode=Mode.NONREDUNDANT)
        system.run(60)
        system.post_interrupt(0)
        system.run_until_idle(max_cycles=500_000)
        core = system.vocal_cores[0]
        assert core.interrupts_serviced == 1
        golden = golden_run(assemble(LOOP))
        assert core.arf.read(2) == golden.registers.read(2)

    def test_flush_with_handler_in_flight_services_it_again(self):
        """A rollback that squashes the handler re-posts the interrupt:
        the handler retires exactly once, and results are unperturbed."""
        system = build([LOOP], mode=Mode.NONREDUNDANT)
        system.run(60)
        system.post_interrupt(0)
        core = system.vocal_cores[0]
        for _ in range(2_000):
            system.run(1)
            if any(core.f_mask[slot] & M_INJECTED for slot in core.rob):
                break
        assert core.interrupts_serviced == 0
        assert any(core.f_mask[slot] & M_INJECTED for slot in core.rob)
        core.flush_for_recovery(core.next_retire_pc(), system.now, penalty=5)
        system.run_until_idle(max_cycles=500_000)
        assert core.interrupts_serviced == 1
        assert core.injected_retired == len(default_interrupt_handler())
        golden = golden_run(assemble(LOOP))
        assert core.arf.read(2) == golden.registers.read(2)
        assert core.user_retired == golden.retired
