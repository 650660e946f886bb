"""Tests for the per-core memory port (L1 + MSHR + TLB wiring)."""

from repro.memory import CoreMemPort, LineState, MainMemory, SharedL2Controller
from repro.sim.config import L1Config, L2Config, PhantomStrength, TLBConfig
from repro.sim.stats import Stats

L1_TINY = L1Config(size_bytes=512, assoc=2, load_to_use=2, mshrs=2)
L2_SMALL = L2Config(size_bytes=16 * 1024, assoc=8, banks=2, hit_latency=10, mshrs=4)
TLB_SMALL = TLBConfig(itlb_entries=4, dtlb_entries=8, page_bits=10)


def make_ports(n_vocal=1, n_mute=0, phantom=PhantomStrength.GLOBAL):
    stats = Stats()
    memory = MainMemory(latency=50)
    controller = SharedL2Controller(L2_SMALL, memory, stats)
    ports = []
    for core_id in range(n_vocal + n_mute):
        ports.append(
            CoreMemPort(
                core_id,
                L1_TINY,
                TLB_SMALL,
                controller,
                stats,
                is_mute=core_id >= n_vocal,
                phantom=phantom,
            )
        )
    return ports, memory, controller, stats


class TestVocalPort:
    def test_load_miss_then_hit(self):
        (port,), memory, _, stats = make_ports()
        memory.load_image({0x800: 7})
        value, done = port.load_f(0x800, now=0)
        assert value == 7 and done >= 50
        assert stats["core0.l1_load_misses"] == 1
        value, hit_done = port.load_f(0x808, now=done)
        assert hit_done == done + L1_TINY.load_to_use
        assert stats["core0.l1_load_misses"] == 1  # a hit
        assert stats["core0.l1_load_hits"] == 1

    def test_mshr_exhaustion_forces_retry(self):
        (port,), _, _, stats = make_ports()
        assert port.load_f(0 * 64, now=0) is not None
        assert port.load_f(1 * 64, now=0) is not None
        assert port.load_f(2 * 64, now=0) is None  # only 2 MSHRs
        assert stats["core0.mshr_stalls"] == 1

    def test_store_silent_when_owned(self):
        (port,), _, _, stats = make_ports()
        port.load_f(0x100, now=0)  # E state (only core)
        assert port.store_f(0x100, 5, now=10) == 11
        assert stats["core0.l1_store_hits"] == 1
        assert stats["core0.l1_store_upgrades"] == 0
        assert port.load_f(0x100, now=12)[0] == 5

    def test_store_upgrade_when_shared(self):
        ports, _, controller, stats = make_ports(n_vocal=2)
        ports[0].load_f(0x100, now=0)
        ports[1].load_f(0x100, now=0)  # both S now
        assert ports[0].store_f(0x100, 9, now=10) is not None
        assert stats["core0.l1_store_upgrades"] == 1  # upgrade transaction
        assert ports[1].l1.lookup(0x100 // 64) is None  # invalidated

    def test_rmw_acquires_write_permission(self):
        (port,), memory, _, _ = make_ports()
        memory.load_image({0x300: 40})
        access = port.rmw_read(0x300, now=0)
        assert access.value == 40
        port.rmw_write(0x300, 41)
        assert port.load_f(0x300, now=100)[0] == 41
        assert port.l1.lookup(0x300 // 64).state == LineState.MODIFIED

    def test_dtlb_interface(self):
        (port,), _, _, _ = make_ports()
        assert not port.tlbs.dtlb.lookup(0x1234)
        port.dtlb_fill(0x1234)
        assert port.tlbs.dtlb.lookup(0x1234)


class TestMutePort:
    def test_mute_load_fills_with_write_permission(self):
        ports, memory, _, _ = make_ports(n_vocal=1, n_mute=1)
        memory.load_image({0x800: 3})
        mute = ports[1]
        value, _ = mute.load_f(0x800, now=0)
        assert value == 3
        assert mute.l1.lookup(0x800 // 64).state == LineState.EXCLUSIVE

    def test_mute_store_writes_locally_only(self):
        ports, memory, controller, _ = make_ports(n_vocal=1, n_mute=1)
        mute = ports[1]
        mute.store_f(0x800, 42, now=0)
        assert mute.load_f(0x800, now=50)[0] == 42
        # Invisible to the rest of the system.
        assert memory.read_word(0x800) == 0
        assert controller.directory.peek(0x800 // 64) is None or (
            not controller.directory.peek(0x800 // 64).holds(1)
        )

    def test_mute_eviction_data_lost(self):
        ports, _, _, stats = make_ports(n_vocal=1, n_mute=1)
        mute = ports[1]
        mute.store_f(0x0, 9, now=0)
        # L1 is 512B/2-way = 4 sets; lines 0,4,8 share set 0.  Space the
        # accesses out so each miss completes (only 2 MSHRs).
        assert mute.load_f(4 * 64, now=100) is not None
        assert mute.load_f(8 * 64, now=200) is not None  # evicts dirty line 0
        assert stats["l2.mute_evicts_dropped"] >= 1
        # Reading it again gets the coherent (zero) value, not 9.
        assert mute.load_f(0x0, now=400)[0] == 0

    def test_null_phantom_garbage_values(self):
        ports, memory, _, _ = make_ports(n_vocal=1, n_mute=1, phantom=PhantomStrength.NULL)
        memory.load_image({0x800: 3})
        value, _ = ports[1].load_f(0x800, now=0)
        assert value != 3  # arbitrary data on every L1 miss

    def test_vocal_and_mute_see_same_value_without_races(self):
        ports, memory, _, _ = make_ports(n_vocal=1, n_mute=1)
        memory.load_image({0x800: 3})
        assert ports[0].load_f(0x800, now=0)[0] == ports[1].load_f(0x800, now=0)[0]
