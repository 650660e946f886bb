"""Targeted store-to-load forwarding and memory-ordering tests."""

from repro.isa import assemble
from repro.isa.interpreter import run as golden_run
from tests.pipeline.helpers import build_core, run_to_halt


def check(source: str, watch_regs=range(8)):
    program = assemble(source)
    golden = golden_run(program)
    core, _, _ = build_core(program)
    run_to_halt(core)
    for reg in watch_regs:
        assert core.arf.read(reg) == golden.registers.read(reg), f"r{reg}"
    return core


class TestForwarding:
    def test_forward_from_newest_of_multiple_stores(self):
        check(
            """
            movi r1, 0x100
            movi r2, 1
            movi r3, 2
            movi r4, 3
            store r2, [r1]
            store r3, [r1]
            store r4, [r1]
            load r5, [r1]      ; must see 3
            halt
            """
        )

    def test_forward_skips_different_address(self):
        check(
            """
            movi r1, 0x100
            movi r2, 9
            store r2, [r1+8]   ; different word
            load r3, [r1]      ; must see memory (0), not 9
            halt
            """
        )

    def test_load_waits_for_unresolved_store_address(self):
        # The store's address depends on a load (slow); the younger load
        # must not bypass it incorrectly.
        check(
            """
            .word 0x200 0x100
            movi r1, 0x200
            load r2, [r1]      ; r2 = 0x100 (address producer)
            movi r3, 77
            store r3, [r2]     ; store to 0x100, address known late
            movi r4, 0x100
            load r5, [r4]      ; must see 77
            halt
            """
        )

    def test_forward_across_retirement_boundary(self):
        # Store retires and sits in the drain queue; the load must still
        # observe it before it reaches the cache.
        check(
            """
            movi r1, 0x300
            movi r2, 5
            store r2, [r1]
            membar
            load r3, [r1]
            halt
            """
        )

    def test_interleaved_addresses(self):
        check(
            """
            movi r1, 0x400
            movi r2, 10
            movi r3, 20
            store r2, [r1]
            store r3, [r1+8]
            load r4, [r1]       ; 10
            load r5, [r1+8]     ; 20
            store r4, [r1+16]
            load r6, [r1+16]    ; 10
            halt
            """
        )

    def test_atomic_after_store_sees_drained_value(self):
        check(
            """
            movi r1, 0x500
            movi r2, 100
            store r2, [r1]
            movi r3, 5
            atomic r4, [r1], r3   ; serializing: drains first; r4 = 100
            load r5, [r1]         ; 105
            halt
            """
        )


#: A store whose address comes from a slow load, and a younger load of
#: the same word: the younger load must wait until the store issues.
LATE_STORE_ADDRESS = """
    .word 0x200 0x100
    movi r1, 0x200
    load r2, [r1]      ; r2 = 0x100: the store's address arrives late
    movi r3, 77
    store r3, [r2]
    movi r4, 0x100
    load r5, [r4]      ; same word as the store
    halt
"""
STORE_PC, LOAD_PC = 3, 5


class TestParkedLoads:
    """The wake contract between a store and the loads parked on it."""

    @staticmethod
    def _slot(core, pc):
        return next((slot for slot in core.rob if core.f_pc[slot] == pc), None)

    @staticmethod
    def _packed(core, slot):
        return (core.f_seq[slot] << core._f_sbits) | slot

    @staticmethod
    def _finish(core, now):
        """Step on from cycle ``now`` until the core halts."""
        for now in range(now + 1, now + 2_000):
            if core.idle:
                return
            core.step(now)
        raise AssertionError("the core did not halt")

    def _run_until_parked(self, core):
        """Step until the load waits on the store; return (now, store, load)."""
        for now in range(200):
            core.step(now)
            if core._parked:
                return now, self._slot(core, STORE_PC), self._slot(core, LOAD_PC)
        raise AssertionError("the load never parked")

    def test_load_issues_in_its_stores_scan(self):
        """The cycles are those of the pipeline that rescanned blocked
        loads every cycle."""
        core, _, _ = build_core(assemble(LATE_STORE_ADDRESS))
        issued = {}
        now = 0
        while True:
            core.step(now)
            for pc in (STORE_PC, LOAD_PC):
                slot = self._slot(core, pc)
                if slot is not None and core.f_state[slot] >= 1:
                    issued.setdefault(pc, now)
            load = self._slot(core, LOAD_PC)
            if load is not None and core.f_state[load] >= 2:
                break
            now += 1
        # Woken in the scan that issued the store; forwarded the store's
        # value (memory still holds 0 there).
        assert (issued[STORE_PC], issued[LOAD_PC], now) == (63, 63, 64)
        assert core.f_res[load] == 77
        self._finish(core, now)
        assert core.arf.read(5) == 77

    def test_load_is_parked_while_the_store_waits(self):
        core, _, _ = build_core(assemble(LATE_STORE_ADDRESS))
        now, store, load = self._run_until_parked(core)
        store_ref, load_ref = self._packed(core, store), self._packed(core, load)
        assert core.f_wo[load] == store_ref
        while core.f_addr[store] is None:
            assert core._parked == {store_ref: [load_ref]}
            assert load_ref not in core.ready
            now += 1
            core.step(now)
        assert not core._parked
        assert core.f_state[load] >= 1

    def test_squashing_the_store_drops_its_parked_loads(self):
        core, _, _ = build_core(assemble(LATE_STORE_ADDRESS))
        now, store, _ = self._run_until_parked(core)
        core._flat_squash_to(core.f_seq[store])
        assert core._parked == {}
        core._redirect_fetch(STORE_PC)
        self._finish(core, now)  # refetched from the store on: still 77
        assert core.arf.read(5) == 77
