"""Property-based coherence checking.

Random sequences of memory operations from several vocal cores (plus a
mute) run against each coherence backend — the shared controller, the
snoopy bus and the home-node directory — while a flat reference model
tracks the architecturally-correct value of every word.  Invariants:

* **vocal value coherence** — every vocal load returns exactly the
  reference value (no stale data, ever, regardless of evictions,
  ownership migration, or interleaving);
* **single-writer** — at most one vocal L1 holds a line dirty, and the
  directory names it as owner;
* **sharer accuracy** — any vocal L1 holding a line appears in the
  directory (mute caches never do).  The shared controller and the
  home-node backend keep the same :class:`~repro.memory.Directory`, so
  one check (:func:`check_directory`) covers both;
* **synchronizing requests** return the reference value to both cores.

Random traffic seldom gives a line two sharers before a third core
writes it, so each property also runs :data:`TWO_SHARERS_THEN_A_WRITE`
on every run.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.memory import CoreMemPort, LineState, MainMemory, SharedL2Controller
from repro.sim.config import L1Config, L2Config, PhantomStrength, TLBConfig
from repro.sim.stats import Stats

N_VOCAL = 3
MUTE_ID = N_VOCAL
N_LINES = 12  # line addresses 0..11 -> word addr = line * 64

L1_TINY = L1Config(size_bytes=256, assoc=2, load_to_use=1, mshrs=4)  # 4 lines!
L2_TINY = L2Config(size_bytes=2048, assoc=2, banks=2, hit_latency=3, mshrs=4)
TLB_ANY = TLBConfig(itlb_entries=4, dtlb_entries=4, page_bits=10)


def build():
    stats = Stats()
    memory = MainMemory(latency=10)
    controller = SharedL2Controller(L2_TINY, memory, stats)
    ports = [
        CoreMemPort(i, L1_TINY, TLB_ANY, controller, stats, is_mute=(i == MUTE_ID))
        for i in range(N_VOCAL + 1)
    ]
    return controller, memory, ports


operation = st.tuples(
    st.sampled_from(["load", "store", "rmw", "mute_load", "mute_store", "sync"]),
    st.integers(min_value=0, max_value=N_VOCAL - 1),  # vocal core
    st.integers(min_value=0, max_value=N_LINES - 1),  # line
    st.integers(min_value=0, max_value=7),  # word within line
    st.integers(min_value=1, max_value=1 << 32),  # store value
)


#: Core 0 and core 1 read a line, then core 2 writes it: the write must
#: invalidate both shared copies.
TWO_SHARERS_THEN_A_WRITE = [
    ("load", 0, 5, 0, 1),
    ("load", 1, 5, 0, 1),
    ("store", 2, 5, 0, 9),
]


def exclusive_holders(ports, line_addr):
    """Vocal cores whose L1 holds ``line_addr`` in M or E."""
    return [
        p.core_id
        for p in ports[:N_VOCAL]
        if (l := p.l1.lookup(line_addr)) is not None
        and l.state in (LineState.MODIFIED, LineState.EXCLUSIVE)
    ]


def check_directory(backend, ports):
    """A directory backend's entries against the vocal L1s, after every
    operation: every vocal holder is recorded, the one exclusive holder
    is the owner, and the mute is never a holder."""
    for line_addr in range(N_LINES):
        entry = backend.directory.peek(line_addr)
        for port in ports[:N_VOCAL]:
            if port.l1.lookup(line_addr) is not None:
                assert entry is not None and entry.holds(port.core_id), (
                    f"vocal {port.core_id} holds line {line_addr} unknown to directory"
                )
        exclusive = exclusive_holders(ports, line_addr)
        assert len(exclusive) <= 1, f"line {line_addr}: two exclusive holders {exclusive}"
        if exclusive:
            owner = entry.owner()
            assert owner == exclusive[0], (
                f"line {line_addr}: exclusive holder {exclusive[0]} is not owner {owner}"
            )
        assert entry is None or not entry.holds(MUTE_ID), (
            f"line {line_addr}: mute in {list(entry.holders())}"
        )


@given(ops=st.lists(operation, min_size=1, max_size=60))
@example(ops=TWO_SHARERS_THEN_A_WRITE)
@settings(max_examples=60, deadline=None)
def test_vocal_coherence_under_random_traffic(ops):
    controller, memory, ports = build()
    reference: dict[int, int] = {}
    now = 0

    for kind, core, line, word, value in ops:
        now += 30  # let MSHRs and banks drain between operations
        addr = line * 64 + word * 8
        port = ports[core]
        if kind == "load":
            access = port.load_f(addr, now)
            if access is None:  # no MSHR free: retry later
                continue
            assert access[0] == reference.get(addr, 0), (
                f"vocal load {addr:#x} saw {access[0]}, expected "
                f"{reference.get(addr, 0)}"
            )
        elif kind == "store":
            if port.store_f(addr, value, now) is None:
                continue
            reference[addr] = value
        elif kind == "rmw":
            access = port.rmw_read(addr, now)
            if access.retry:
                continue
            assert access.value == reference.get(addr, 0)
            new_value = (access.value + 1) & ((1 << 64) - 1)
            port.rmw_write(addr, new_value)
            reference[addr] = new_value
        elif kind == "mute_load":
            ports[MUTE_ID].load_f(addr, now)  # may be stale: no value check
        elif kind == "mute_store":
            ports[MUTE_ID].store_f(addr, value, now)  # invisible to others
        else:  # sync between vocal `core` and the mute
            reply = controller.synchronizing_access(core, MUTE_ID, line, now)
            assert reply.data[word] == reference.get(line * 64 + word * 8, 0)
            assert ports[core].l1.lookup(line).state == LineState.MODIFIED
            assert ports[MUTE_ID].l1.lookup(line) is not None
        check_directory(controller, ports)

    # Final sweep: every written word is still readable, coherently.
    for addr, expected in reference.items():
        now += 50
        access = ports[0].load_f(addr, now)
        if access is None:
            now += 200
            access = ports[0].load_f(addr, now)
        assert access[0] == expected


def test_install_image_writes_the_l2_copy_back_before_a_newer_l1_copy():
    """A line dirty in both the L2 array and a vocal L1 keeps the L1's
    words wherever the image does not cover them."""
    controller, memory, ports = build()
    line = 5
    assert ports[0].store_f(line * 64, 1, 30) is not None
    assert ports[1].load_f(line * 64, 60) is not None  # folds core 0's copy into L2
    assert ports[0].store_f(line * 64 + 8, 2, 90) is not None  # L1 now newer
    controller.install_image({line * 64 + 16: 7})
    assert memory.read_line(line)[:3] == [1, 2, 7]
    assert all(port.l1.lookup(line) is None for port in ports)


def build_snoopy():
    from repro.memory.snoopy import SnoopyBus
    from repro.sim.config import BusConfig

    stats = Stats()
    memory = MainMemory(latency=10)
    bus = SnoopyBus(BusConfig(snoop_latency=2, transfer_latency=3, bus_occupancy=1, mshrs=4), memory, stats)
    ports = [
        CoreMemPort(i, L1_TINY, TLB_ANY, bus, stats, is_mute=(i == MUTE_ID))
        for i in range(N_VOCAL + 1)
    ]
    return bus, memory, ports


def build_directory():
    from repro.memory.directory import DirectoryBackend
    from repro.sim.config import BusConfig, CoherenceStyle

    stats = Stats()
    memory = MainMemory(latency=10)
    backend = DirectoryBackend(
        BusConfig(
            snoop_latency=2,
            transfer_latency=3,
            bus_occupancy=1,
            mshrs=4,
            coherence=CoherenceStyle.DIRECTORY,
            dir_banks=2,
            link_latency=2,
        ),
        memory,
        stats,
    )
    ports = [
        CoreMemPort(i, L1_TINY, TLB_ANY, backend, stats, is_mute=(i == MUTE_ID))
        for i in range(N_VOCAL + 1)
    ]
    return backend, memory, ports


def check_single_writer(bus, ports):
    """Single-writer invariant from cache inspection alone (no directory)."""
    for line_addr in range(N_LINES):
        exclusive = exclusive_holders(ports, line_addr)
        assert len(exclusive) <= 1, f"line {line_addr}: {exclusive}"


def run_private_cache_traffic(build, check, ops):
    """Replay ``ops`` on a private-cache backend against the reference."""
    bus, memory, ports = build()
    reference: dict[int, int] = {}
    now = 0
    for kind, core, line, word, value in ops:
        now += 30
        addr = line * 64 + word * 8
        port = ports[core]
        if kind == "load":
            access = port.load_f(addr, now)
            if access is not None:
                assert access[0] == reference.get(addr, 0)
        elif kind == "store":
            if port.store_f(addr, value, now) is not None:
                reference[addr] = value
        elif kind == "rmw":
            access = port.rmw_read(addr, now)
            if not access.retry:
                assert access.value == reference.get(addr, 0)
                port.rmw_write(addr, access.value + 1)
                reference[addr] = access.value + 1
        elif kind == "mute_load":
            ports[MUTE_ID].load_f(addr, now)
        elif kind == "mute_store":
            ports[MUTE_ID].store_f(addr, value, now)
        else:
            reply = bus.synchronizing_access(core, MUTE_ID, line, now)
            assert reply.data[word] == reference.get(line * 64 + word * 8, 0)
        check(bus, ports)


@given(ops=st.lists(operation, min_size=1, max_size=60))
@example(ops=TWO_SHARERS_THEN_A_WRITE)
@settings(max_examples=40, deadline=None)
def test_vocal_coherence_on_snoopy_bus(ops):
    """The same linearizability property on the snoopy organization."""
    run_private_cache_traffic(build_snoopy, check_single_writer, ops)


@given(ops=st.lists(operation, min_size=1, max_size=60))
@example(ops=TWO_SHARERS_THEN_A_WRITE)
@settings(max_examples=40, deadline=None)
def test_vocal_coherence_on_directory(ops):
    """The same property on the directory MSI backend, plus its home entries."""
    run_private_cache_traffic(build_directory, check_directory, ops)


@given(ops=st.lists(operation, min_size=1, max_size=40))
@settings(max_examples=30, deadline=None)
def test_mute_traffic_never_leaks(ops):
    """Mute stores must never reach memory, the L2 array, or vocal L1s."""
    controller, memory, ports = build()
    poison = 0xBAD0BAD0BAD0BAD0 & ((1 << 64) - 1)
    now = 0
    for kind, core, line, word, value in ops:
        now += 30
        addr = line * 64 + word * 8
        if kind in ("mute_load", "mute_store"):
            ports[MUTE_ID].store_f(addr, poison, now)
        elif kind == "load":
            ports[core].load_f(addr, now)
        elif kind == "store":
            ports[core].store_f(addr, value & 0xFFFF, now)

    for line in range(N_LINES):
        l2_line = controller.cache.lookup(line)
        if l2_line is not None:
            assert poison not in l2_line.data
        assert poison not in memory.read_line(line)
        for port in ports[:N_VOCAL]:
            l1_line = port.l1.lookup(line)
            if l1_line is not None:
                assert poison not in l1_line.data
