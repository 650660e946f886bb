"""Tests for dual-use reconfiguration: redundant <-> independent cores.

The paper's introduction: "Ideally, a single design can provide a
dual-use capability by supporting both redundant and non-redundant
execution."  These tests split a running Reunion pair into two
independent logical processors and re-form it, checking architectural
correctness across both transitions.
"""

import pytest

from repro.core.faults import FaultInjector
from repro.isa import assemble
from repro.isa.interpreter import run as golden_run
from repro.sim.config import Mode
from tests.core.helpers import SHARED_SMALL, build

FIRST = """
    movi r1, 300
    movi r2, 0
loop:
    add r2, r2, r1
    addi r1, r1, -1
    bne r1, r0, loop
    halt
"""

SECOND = """
    .word 0x7000 5
    movi r1, 0x7000
    load r2, [r1]
    addi r3, r2, 100
    store r3, [r1+8]
    halt
"""


class TestDecouple:
    def test_both_programs_complete_correctly(self):
        system = build([FIRST], mode=Mode.REUNION)
        system.run(100)  # pair makes some progress redundantly
        promoted = system.decouple(0, assemble(SECOND))
        system.run_until_idle(max_cycles=500_000)

        golden_first = golden_run(assemble(FIRST)).registers
        golden_second = golden_run(assemble(SECOND)).registers
        original = system.vocal_cores[0]
        assert original.arf.read(2) == golden_first.read(2)
        assert promoted.arf.read(3) == golden_second.read(3)

    def test_promoted_core_joins_coherence(self):
        # Pinned: asserts against the shared backend's directory
        # bookkeeping.  test_directory_backend.py::test_dual_use_works_
        # on_directory covers the same transition on the new backend.
        system = build([FIRST], mode=Mode.REUNION, config=SHARED_SMALL)
        system.run(100)
        promoted = system.decouple(0, assemble(SECOND))
        system.run_until_idle(max_cycles=500_000)
        # Its store is globally visible now (it is a vocal core).
        line = promoted.port.l1.lookup(0x7008 >> 6)
        assert line is not None and line.data[1] == 105
        entry = system.controller.directory.peek(0x7008 >> 6)
        assert entry is not None and entry.owner() == promoted.core_id

    def test_no_pair_left_behind(self):
        system = build([FIRST], mode=Mode.REUNION)
        system.run(100)
        system.decouple(0, assemble(SECOND))
        assert not system.pairs
        assert len(system.vocal_cores) == 2
        with pytest.raises(KeyError):
            system._pair_for(0)

    def test_user_instruction_metric_counts_both(self):
        system = build([FIRST], mode=Mode.REUNION)
        system.run(100)
        before = system.user_instructions()
        system.decouple(0, assemble(SECOND))
        system.run_until_idle(max_cycles=500_000)
        assert system.user_instructions() > before


class TestRecouple:
    def test_redundancy_resumes_and_detects_faults(self):
        system = build([FIRST], mode=Mode.REUNION)
        system.run(100)
        promoted = system.decouple(0, assemble(SECOND))
        # Let the promoted core finish its independent work.
        while not promoted.idle and system.now < 200_000:
            system.step()

        pair = system.couple(0, promoted)
        assert system.pairs == [pair]
        # Inject an upset after re-coupling: detection must work again.
        injector = FaultInjector(seed=3)
        injector.attach(promoted)  # now the mute
        injector.inject_once(after=20)
        system.run_until_idle(max_cycles=500_000)
        assert not system.failed
        assert len(injector.records) == 1
        assert pair.recoveries >= 1
        golden = golden_run(assemble(FIRST)).registers
        assert system.vocal_cores[0].arf.read(2) == golden.read(2)

    def test_recoupled_results_correct_without_faults(self):
        system = build([FIRST], mode=Mode.REUNION)
        system.run(80)
        promoted = system.decouple(0, assemble(SECOND))
        system.run(50)
        system.couple(0, promoted)
        system.run_until_idle(max_cycles=500_000)
        golden = golden_run(assemble(FIRST)).registers
        vocal = system.vocal_cores[0]
        assert vocal.arf.read(2) == golden.read(2)
        assert vocal.arf == promoted.arf  # mute agrees again

    def test_cannot_couple_vocal_with_itself(self):
        system = build([FIRST], mode=Mode.REUNION)
        system.run(50)
        with pytest.raises(ValueError):
            system.couple(0, system.vocal_cores[0])
