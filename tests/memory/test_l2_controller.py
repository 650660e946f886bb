"""Coherence-protocol and Reunion-semantics tests for the L2 controller.

These tests script the exact scenarios from the paper: coherent
vocal-to-vocal transfers, mute caches invisible to the directory, the
three phantom strengths, stale mute data (Figure 1's input incoherence),
and the synchronizing request restoring pair coherence.
"""

import pytest

from repro.memory import Cache, LineState, MainMemory, SharedL2Controller
from repro.sim.config import L2Config, PhantomStrength
from repro.sim.stats import Stats

L2_SMALL = L2Config(size_bytes=16 * 1024, assoc=8, banks=2, hit_latency=10, mshrs=4)


def make_system(n_vocal=2, n_mute=0):
    """A controller with n_vocal vocal L1s (ids 0..) and n_mute mute L1s."""
    stats = Stats()
    memory = MainMemory(latency=50)
    controller = SharedL2Controller(L2_SMALL, memory, stats)
    l1s = []
    for core_id in range(n_vocal + n_mute):
        l1 = Cache(1024, 2, 64, name=f"l1-{core_id}")
        controller.register_l1(core_id, l1, is_mute=core_id >= n_vocal)
        l1s.append(l1)
    return controller, memory, l1s, stats


class TestVocalCoherence:
    def test_first_read_grants_exclusive(self):
        controller, memory, l1s, _ = make_system()
        memory.load_image({0x1000: 42})
        reply = controller.vocal_read(0, 0x1000 // 64, now=0)
        assert reply.data[0] == 42
        assert l1s[0].lookup(0x1000 // 64).state == LineState.EXCLUSIVE
        # Off-chip miss: latency includes memory plus L2.
        assert reply.done >= 50

    def test_second_read_downgrades_to_shared(self):
        controller, _, l1s, _ = make_system()
        controller.vocal_read(0, 5, now=0)
        reply = controller.vocal_read(1, 5, now=10)
        assert l1s[0].lookup(5).state == LineState.SHARED
        assert l1s[1].lookup(5).state == LineState.SHARED
        # Second read is an L2 hit: cheap.
        assert reply.done - 10 <= 2 * L2_SMALL.hit_latency

    def test_write_invalidates_sharers(self):
        controller, _, l1s, stats = make_system(n_vocal=3)
        for core in range(3):
            controller.vocal_read(core, 7, now=core)
        controller.vocal_write(0, 7, now=10)
        assert l1s[0].lookup(7).state == LineState.MODIFIED
        assert l1s[1].lookup(7) is None
        assert l1s[2].lookup(7) is None
        assert stats["l2.invalidations"] == 2

    def test_dirty_data_transfers_between_vocals(self):
        controller, _, l1s, _ = make_system()
        controller.vocal_write(0, 3, now=0)
        l1s[0].write_word(3 * 64, 99)  # dirty in core 0
        reply = controller.vocal_read(1, 3, now=5)
        assert reply.data[0] == 99  # fresh value, not stale memory
        assert l1s[0].lookup(3).state == LineState.SHARED

    def test_write_pulls_dirty_copy_from_owner(self):
        controller, _, l1s, _ = make_system()
        controller.vocal_write(0, 3, now=0)
        l1s[0].write_word(3 * 64, 55)
        reply = controller.vocal_write(1, 3, now=5)
        assert reply.data[0] == 55
        assert l1s[0].lookup(3) is None

    def test_upgrade_keeps_l1_data(self):
        controller, _, l1s, _ = make_system()
        controller.vocal_read(0, 9, now=0)
        controller.vocal_read(1, 9, now=1)  # both S
        reply = controller.vocal_write(0, 9, now=5)
        assert l1s[0].lookup(9).state == LineState.MODIFIED
        assert l1s[1].lookup(9) is None
        assert reply.done - 5 <= 2 * L2_SMALL.hit_latency  # no memory trip

    def test_eviction_writes_back_and_updates_directory(self):
        controller, memory, l1s, _ = make_system()
        controller.vocal_write(0, 11, now=0)
        l1s[0].write_word(11 * 64, 77)
        line = l1s[0].invalidate(11)
        controller.vocal_evict(0, 11, line.data, line.dirty)
        # A later read by another core sees the written-back value.
        reply = controller.vocal_read(1, 11, now=100)
        assert reply.data[0] == 77

    def test_duplicate_registration_rejected(self):
        controller, _, _, _ = make_system()
        with pytest.raises(ValueError):
            controller.register_l1(0, Cache(1024, 2), is_mute=False)


class TestMuteSemantics:
    def test_phantom_read_leaves_directory_unchanged(self):
        controller, _, l1s, _ = make_system(n_vocal=1, n_mute=1)
        controller.vocal_write(0, 4, now=0)
        controller.phantom_read(1, 4, now=5, strength=PhantomStrength.GLOBAL)
        entry = controller.directory.peek(4)
        assert entry.owner() == 0
        assert list(entry.holders()) == [0]

    def test_global_phantom_reads_owner_fresh_data(self):
        controller, _, l1s, _ = make_system(n_vocal=1, n_mute=1)
        controller.vocal_write(0, 4, now=0)
        l1s[0].write_word(4 * 64, 31337)
        reply = controller.phantom_read(1, 4, now=5, strength=PhantomStrength.GLOBAL)
        assert reply.data[0] == 31337

    def test_global_phantom_goes_off_chip(self):
        controller, memory, _, stats = make_system(n_vocal=1, n_mute=1)
        memory.load_image({0x2000: 5})
        reply = controller.phantom_read(
            1, 0x2000 // 64, now=0, strength=PhantomStrength.GLOBAL
        )
        assert reply.data[0] == 5
        assert reply.done >= 50

    def test_shared_phantom_returns_garbage_on_l2_miss(self):
        controller, memory, _, stats = make_system(n_vocal=1, n_mute=1)
        memory.load_image({0x2000: 5})
        reply = controller.phantom_read(
            1, 0x2000 // 64, now=0, strength=PhantomStrength.SHARED
        )
        assert reply.data[0] != 5  # arbitrary data, not the real value
        assert stats["l2.phantom_garbage"] == 1

    def test_shared_phantom_hits_in_l2(self):
        controller, _, _, _ = make_system(n_vocal=1, n_mute=1)
        controller.vocal_read(0, 6, now=0)  # brings line into L2
        reply = controller.phantom_read(1, 6, now=5, strength=PhantomStrength.SHARED)
        assert reply.data == [0] * 8  # real (zero) data

    def test_null_phantom_always_garbage_and_fast(self):
        controller, _, _, _ = make_system(n_vocal=1, n_mute=1)
        controller.vocal_read(0, 6, now=0)
        reply = controller.phantom_read(1, 6, now=5, strength=PhantomStrength.NULL)
        assert reply.done == 6  # no L2 trip
        garbage = controller.phantom_read(1, 6, now=7, strength=PhantomStrength.NULL)
        assert reply.data == garbage.data  # deterministic garbage

    def test_mute_eviction_dropped(self):
        controller, memory, _, stats = make_system(n_vocal=1, n_mute=1)
        controller.mute_evict(1, 12)
        assert stats["l2.mute_evicts_dropped"] == 1
        assert memory.read_word(12 * 64) == 0


class TestInputIncoherence:
    """The Figure 1 scenario: an intervening store makes a mute stale."""

    def test_stale_mute_copy_after_remote_write(self):
        # Vocal pair (0) and a competing vocal (1); mute is core 2.
        controller, _, l1s, _ = make_system(n_vocal=2, n_mute=1)
        # Both vocal 0 and mute 2 read M[A] = 0.
        vocal_reply = controller.vocal_read(0, 8, now=0)
        phantom_reply = controller.phantom_read(2, 8, now=0, strength=PhantomStrength.GLOBAL)
        l1s[2].fill(8, phantom_reply.data, LineState.EXCLUSIVE)
        assert vocal_reply.data[0] == phantom_reply.data[0] == 0
        # Competing vocal 1 writes M[A] = 1.
        controller.vocal_write(1, 8, now=10)
        l1s[1].write_word(8 * 64, 1)
        # Vocal 0 was invalidated; its next read sees the new value.
        assert l1s[0].lookup(8) is None
        assert controller.vocal_read(0, 8, now=20).data[0] == 1
        # The mute still holds the stale copy: input incoherence.
        assert l1s[2].lookup(8) is not None
        assert l1s[2].read_word(8 * 64) == 0

    def test_synchronizing_request_restores_pair_coherence(self):
        controller, _, l1s, _ = make_system(n_vocal=2, n_mute=1)
        controller.vocal_read(0, 8, now=0)
        l1s[2].fill(8, [0] * 8, LineState.EXCLUSIVE)  # stale mute copy
        controller.vocal_write(1, 8, now=10)
        l1s[1].write_word(8 * 64, 1)
        reply = controller.synchronizing_access(0, 2, 8, now=20)
        # One coherent value delivered to both caches, with write permission.
        assert reply.data[0] == 1
        assert l1s[0].read_word(8 * 64) == 1
        assert l1s[2].read_word(8 * 64) == 1
        assert l1s[0].lookup(8).state == LineState.MODIFIED
        # The writer lost its copy; directory says the vocal owns it.
        assert l1s[1].lookup(8) is None
        assert controller.directory.peek(8).owner() == 0

    def test_sync_request_writes_back_vocal_dirty_data(self):
        controller, _, l1s, _ = make_system(n_vocal=1, n_mute=1)
        controller.vocal_write(0, 2, now=0)
        l1s[0].write_word(2 * 64, 123)
        reply = controller.synchronizing_access(0, 1, 2, now=10)
        assert reply.data[0] == 123  # vocal's dirty value is the coherent one

    def test_sync_latency_comparable_to_l2_hit(self):
        controller, _, l1s, _ = make_system(n_vocal=1, n_mute=1)
        controller.vocal_read(0, 2, now=0)
        reply = controller.synchronizing_access(0, 1, 2, now=10)
        assert reply.done - 10 <= 3 * L2_SMALL.hit_latency


class TestBankContention:
    def test_same_bank_requests_serialize(self):
        controller, _, _, _ = make_system()
        controller.vocal_read(0, 0, now=0)
        first_free = controller._bank_free[0]
        controller.vocal_read(1, 2, now=0)  # line 2 -> bank 0 (banks=2)
        assert controller._bank_free[0] > first_free

    def test_different_banks_independent(self):
        controller, _, _, _ = make_system()
        controller.vocal_read(0, 0, now=0)  # bank 0
        controller.vocal_read(1, 1, now=0)  # bank 1
        assert controller._bank_free[0] == controller._bank_free[1]
