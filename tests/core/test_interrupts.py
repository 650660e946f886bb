"""Tests for external-interrupt alignment (Section 4.3).

The paper: "Reunion handles external interrupts by replicating the
request to both the vocal and mute cores.  The vocal core chooses a
fingerprint interval at which to service the interrupt.  Both processors
service the interrupt after comparing and retiring the preceding
instructions."
"""

import pytest

from repro.core.pair import default_interrupt_handler
from repro.isa import assemble
from repro.isa.interpreter import run as golden_run
from repro.pipeline.flat import M_INJECTED
from repro.sim.config import Mode
from tests.core.helpers import build

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
