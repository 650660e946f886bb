"""Tests for the directory-based coherence backend
(repro.memory.directory) — the many-pair scaling design point."""

import dataclasses

import pytest

from repro.isa import assemble
from repro.isa.interpreter import run as golden_run
from repro.memory import Cache, LineState, MainMemory
from repro.memory.coherence import MSIState
from repro.memory.directory import DirectoryBackend
from repro.sim.cmp import CMPSystem
from repro.sim.config import (
    MANYCORE_8,
    BusConfig,
    CacheStyle,
    CoherenceStyle,
    Mode,
    PhantomStrength,
)
from repro.sim.stats import Stats
from tests.core.helpers import SMALL

DIR_BUS = BusConfig(
    snoop_latency=5,
    transfer_latency=8,
    bus_occupancy=2,
    mshrs=4,
    coherence=CoherenceStyle.DIRECTORY,
    dir_banks=2,
    link_latency=3,
)


def make_dir(n_vocal=2, n_mute=0, bus=DIR_BUS):
    stats = Stats()
    memory = MainMemory(latency=40)
    backend = DirectoryBackend(bus, memory, stats)
    l1s = []
    for core_id in range(n_vocal + n_mute):
        l1 = Cache(1024, 2, 64, name=f"l1-{core_id}")
        backend.register_l1(core_id, l1, is_mute=core_id >= n_vocal)
        l1s.append(l1)
    return backend, memory, l1s, stats


class TestDirectoryCoherence:
    def test_read_miss_from_memory_grants_exclusive(self):
        backend, memory, l1s, stats = make_dir()
        memory.load_image({0x1000: 9})
        reply = backend.vocal_read(0, 0x1000 // 64, now=0)
        assert reply.data[0] == 9
        assert l1s[0].lookup(0x1000 // 64).state == LineState.EXCLUSIVE
        # Sole reader may silently write an E line, so the home tracks M.
        entry = backend.directory.peek(0x1000 // 64)
        assert entry.state == MSIState.MODIFIED and entry.owner() == 0
        assert stats["dir.gets"] == 1 and stats["dir.memory_reads"] == 1

    def test_forward_from_owner_downgrades_and_cleans_memory(self):
        backend, memory, l1s, stats = make_dir()
        backend.vocal_write(0, 7, now=0)
        l1s[0].write_word(7 * 64, 55)
        reply = backend.vocal_read(1, 7, now=10)
        assert reply.data[0] == 55
        assert l1s[0].lookup(7).state == LineState.SHARED
        assert memory.read_word(7 * 64) == 55  # folded back on the forward
        entry = backend.directory.peek(7)
        assert entry.state == MSIState.SHARED
        assert list(entry.holders()) == [0, 1]
        assert stats["dir.forwards"] == 1

    def test_getm_invalidates_exactly_the_recorded_holders(self):
        backend, _, l1s, stats = make_dir(n_vocal=3)
        for core in range(3):
            backend.vocal_read(core, 4, now=core)
        backend.vocal_write(0, 4, now=10)
        assert l1s[0].lookup(4).state == LineState.MODIFIED
        assert l1s[1].lookup(4) is None
        assert l1s[2].lookup(4) is None
        entry = backend.directory.peek(4)
        assert entry.owner() == 0
        assert stats["dir.invals"] == 2  # cores 1 and 2, never a broadcast

    def test_upgrade_in_place_moves_no_data(self):
        backend, _, l1s, stats = make_dir()
        backend.vocal_read(0, 4, now=0)
        backend.vocal_read(1, 4, now=5)  # both now share
        backend.vocal_write(0, 4, now=10)
        assert stats["dir.upgrades"] == 1
        assert l1s[0].lookup(4).state == LineState.MODIFIED
        assert backend.directory.peek(4).owner() == 0

    def test_clean_eviction_clears_presence(self):
        """A stale presence bit would make the home forward from a cache
        that no longer holds the line — clean evicts must report in."""
        backend, _, l1s, _ = make_dir()
        backend.vocal_read(0, 4, now=0)
        line = l1s[0].invalidate(4)
        backend.vocal_evict(0, 4, line.data, line.dirty)
        assert backend.directory.peek(4) is None  # idle entry reaped
        # A later read must come from memory, not a forward.
        reply = backend.vocal_read(1, 4, now=10)
        assert reply.data is not None

    def test_dirty_eviction_writes_back(self):
        backend, memory, l1s, stats = make_dir()
        backend.vocal_write(0, 3, now=0)
        l1s[0].write_word(3 * 64, 77)
        line = l1s[0].invalidate(3)
        backend.vocal_evict(0, 3, line.data, line.dirty)
        assert memory.read_word(3 * 64) == 77
        assert stats["dir.writebacks"] == 1

    def test_stale_presence_is_a_loud_error(self):
        backend, _, l1s, _ = make_dir()
        backend.vocal_read(0, 4, now=0)
        l1s[0].invalidate(4)  # behind the directory's back
        with pytest.raises(RuntimeError, match="presence stale"):
            backend.vocal_read(1, 4, now=10)

    def test_banks_serialize_their_own_lines_only(self):
        backend, _, _, _ = make_dir()
        backend.vocal_read(0, 0, now=0)  # bank 0
        free_bank0 = backend.fabric.arbiters[0].free_at
        backend.vocal_read(1, 1, now=0)  # bank 1: independent port
        assert backend.fabric.arbiters[0].free_at == free_bank0
        assert backend.fabric.arbiters[1].free_at > 0


class TestDirectoryMuteSemantics:
    def test_phantom_peeks_recorded_holder_without_state_change(self):
        backend, _, l1s, stats = make_dir(n_vocal=1, n_mute=1)
        backend.vocal_write(0, 4, now=0)
        l1s[0].write_word(4 * 64, 31337)
        reply = backend.phantom_read(1, 4, now=5, strength=PhantomStrength.GLOBAL)
        assert reply.data[0] == 31337
        assert l1s[0].lookup(4).state == LineState.MODIFIED  # untouched
        assert backend.directory.peek(4).owner() == 0  # bitmask untouched
        assert stats["dir.phantom_snooped"] == 1

    def test_shared_strength_garbage_on_directory_miss(self):
        backend, memory, _, stats = make_dir(n_vocal=1, n_mute=1)
        memory.load_image({0x2000: 5})
        reply = backend.phantom_read(
            1, 0x2000 // 64, now=0, strength=PhantomStrength.SHARED
        )
        assert reply.data[0] != 5
        assert stats["dir.phantom_garbage"] == 1

    def test_global_strength_reads_memory(self):
        backend, memory, _, stats = make_dir(n_vocal=1, n_mute=1)
        memory.load_image({0x2000: 5})
        reply = backend.phantom_read(
            1, 0x2000 // 64, now=0, strength=PhantomStrength.GLOBAL
        )
        assert reply.data[0] == 5
        assert stats["dir.phantom_memory"] == 1

    def test_null_strength_never_touches_the_fabric(self):
        backend, _, _, stats = make_dir(n_vocal=1, n_mute=1)
        reply = backend.phantom_read(1, 9, now=42, strength=PhantomStrength.NULL)
        assert reply.done == 43
        assert all(arb.free_at == 0 for arb in backend.fabric.arbiters)
        assert stats["dir.phantom_null"] == 1

    def test_mute_fills_never_reach_the_directory(self):
        backend, _, _, _ = make_dir(n_vocal=1, n_mute=1)
        backend.phantom_read(1, 4, now=0, strength=PhantomStrength.GLOBAL)
        # The mute installed a copy, but the home must not know of it.
        assert backend.directory.peek(4) is None

    def test_mute_evict_dropped(self):
        backend, memory, _, stats = make_dir(n_vocal=1, n_mute=1)
        backend.mute_evict(1, 4)
        assert stats["dir.mute_evicts_dropped"] == 1
        assert memory.read_word(4 * 64) == 0  # Definition 5: never written

    def test_sync_request_restores_pair(self):
        backend, _, l1s, stats = make_dir(n_vocal=2, n_mute=1)
        backend.vocal_write(1, 8, now=0)
        l1s[1].write_word(8 * 64, 1)  # competing writer
        l1s[2].fill(8, [0] * 8, LineState.EXCLUSIVE)  # stale mute copy
        reply = backend.synchronizing_access(0, 2, 8, now=10)
        assert reply.data[0] == 1
        assert l1s[0].read_word(8 * 64) == 1
        assert l1s[2].read_word(8 * 64) == 1
        assert l1s[1].lookup(8) is None
        entry = backend.directory.peek(8)
        assert entry.owner() == 0  # vocal owns; the mute copy is invisible
        assert stats["dir.sync_requests"] == 1


# The system-level tests pin bus coherence explicitly so the
# REPRO_COHERENCE CI leg cannot retarget them.
DIR_SMALL = SMALL.replace(
    cache_style=CacheStyle.SNOOPY,
    bus=dataclasses.replace(SMALL.bus, coherence=CoherenceStyle.DIRECTORY),
)

LOOPY = """
    movi r1, 25
    movi r2, 0
    movi r3, 0x400
loop:
    add r2, r2, r1
    store r2, [r3]
    load r4, [r3]
    addi r3, r3, 8
    addi r1, r1, -1
    bne r1, r0, loop
    halt
"""


class TestDirectorySystems:
    @pytest.mark.parametrize("mode", [Mode.NONREDUNDANT, Mode.STRICT, Mode.REUNION])
    def test_all_modes_produce_golden_results(self, mode):
        config = DIR_SMALL.replace(n_logical=1).with_redundancy(mode=mode)
        system = CMPSystem(config, [assemble(LOOPY)])
        system.run_until_idle(max_cycles=500_000)
        golden = golden_run(assemble(LOOPY)).registers
        for reg in range(5):
            assert system.vocal_cores[0].arf.read(reg) == golden.read(reg)

    def test_reunion_race_resolves_on_directory(self):
        from tests.core.test_pair_integration import TestInputIncoherence as Race

        config = DIR_SMALL.replace(n_logical=2).with_redundancy(
            mode=Mode.REUNION, comparison_latency=10
        )
        system = CMPSystem(config, [assemble(Race.READER), assemble(Race.WRITER)])
        system.run_until_idle(max_cycles=200_000)
        assert not system.failed
        reader = system.vocal_cores[0]
        assert reader.arf.read(3) == 77  # the published payload

    def test_null_phantom_forward_progress_on_directory(self):
        config = DIR_SMALL.replace(n_logical=1).with_redundancy(
            mode=Mode.REUNION, phantom=PhantomStrength.NULL
        )
        cold = """
            .word 0x800 1
            .word 0x840 2
            movi r1, 0x800
            load r2, [r1]
            load r3, [r1+64]
            add r4, r2, r3
            halt
        """
        system = CMPSystem(config, [assemble(cold)])
        system.run_until_idle(max_cycles=200_000)
        assert not system.failed
        assert system.vocal_cores[0].arf.read(4) == 3
        assert system.recoveries() >= 1

    def test_dual_use_works_on_directory(self):
        config = DIR_SMALL.replace(n_logical=1).with_redundancy(mode=Mode.REUNION)
        system = CMPSystem(config, [assemble(LOOPY)])
        system.run(60)
        promoted = system.decouple(0, assemble("movi r5, 123\nhalt"))
        system.run_until_idle(max_cycles=200_000)
        assert promoted.arf.read(5) == 123
        golden = golden_run(assemble(LOOPY)).registers
        assert system.vocal_cores[0].arf.read(2) == golden.read(2)

    def test_manycore_preset_boots_and_retires(self):
        """The stock 8-core (4-pair) config runs real programs across
        all four pairs on the non-degenerate interconnect."""
        config = MANYCORE_8
        assert config.bus.coherence is CoherenceStyle.DIRECTORY
        system = CMPSystem(config, [assemble(LOOPY)] * config.n_logical)
        system.run_until_idle(max_cycles=500_000)
        assert not system.failed
        golden = golden_run(assemble(LOOPY)).registers
        for core in system.vocal_cores:
            assert core.arf.read(2) == golden.read(2)
