"""Tests for the directory backend's point-to-point interconnect."""

from repro.memory import MainMemory
from repro.memory.coherence import MSIState
from repro.memory.directory import DirectoryBackend
from repro.memory.directory.interconnect import MUTE, VOCAL, Interconnect, WRRArbiter
from repro.sim.config import BusConfig, CoherenceStyle
from repro.sim.stats import Stats


class TestWRRArbiter:
    def test_idle_grant_starts_at_arrival(self):
        arb = WRRArbiter({VOCAL: 0, MUTE: 0}, occupancy=2)
        assert arb.grant(VOCAL, 10) == 10
        assert arb.free_at == 12

    def test_weight_zero_is_the_snoopy_recurrence(self):
        """With all weights 0 a grant is exactly
        ``start = max(arrival, free); free = start + occupancy`` — the
        SnoopyBus._arbitrate recurrence the equivalence proof needs."""
        arb = WRRArbiter({VOCAL: 0, MUTE: 0}, occupancy=3)
        free = 0
        for arrival in (0, 0, 1, 9, 9, 100):
            expected = max(arrival, free)
            assert arb.grant(VOCAL, arrival) == expected
            free = expected + 3
            assert arb.free_at == free
        assert arb.deferrals == 0

    def test_exhausted_credits_defer_one_slot(self):
        arb = WRRArbiter({VOCAL: 2, MUTE: 1}, occupancy=4)
        # Two credits pass back-to-back...
        assert arb.grant(VOCAL, 0) == 0
        assert arb.grant(VOCAL, 0) == 4
        # ...the third yields one occupancy slot and opens a new round.
        assert arb.grant(VOCAL, 0) == 8 + 4
        assert arb.deferrals == 1

    def test_fresh_round_refills_both_classes(self):
        arb = WRRArbiter({VOCAL: 1, MUTE: 1}, occupancy=1)
        arb.grant(VOCAL, 0)
        arb.grant(VOCAL, 0)  # deferral -> fresh round, vocal credit spent
        assert arb.deferrals == 1
        # The refilled round still has the mute credit available.
        arb.grant(MUTE, 0)
        assert arb.deferrals == 1

    def test_weighted_classes_share_bandwidth(self):
        """3:1 weights let ~3 vocal grants through per mute deferral-free
        round even under saturation."""
        arb = WRRArbiter({VOCAL: 3, MUTE: 1}, occupancy=1)
        for _ in range(3):
            arb.grant(VOCAL, 0)
        assert arb.deferrals == 0
        arb.grant(VOCAL, 0)
        assert arb.deferrals == 1


DIR_BUS = BusConfig(
    snoop_latency=5,
    transfer_latency=8,
    bus_occupancy=2,
    mshrs=4,
    coherence=CoherenceStyle.DIRECTORY,
    dir_banks=4,
    link_latency=3,
    wrr_vocal_weight=0,
    wrr_mute_weight=0,
)


class TestInterconnect:
    def test_home_bank_is_line_modulo_banks(self):
        fabric = Interconnect(DIR_BUS)
        assert [fabric.request(line, VOCAL, now=0)[0] for line in (0, 5, 7)] == [0, 1, 3]

    def test_request_pays_one_link_of_flight(self):
        fabric = Interconnect(DIR_BUS)
        bank, start = fabric.request(5, VOCAL, now=10)
        assert bank == 1
        assert start == 13  # arrival = now + link, bank idle

    def test_banks_arbitrate_independently(self):
        fabric = Interconnect(DIR_BUS)
        _, first = fabric.request(0, VOCAL, now=0)
        _, same_bank = fabric.request(4, VOCAL, now=0)  # also bank 0
        _, other_bank = fabric.request(1, VOCAL, now=0)  # bank 1
        assert same_bank == first + DIR_BUS.bus_occupancy
        assert other_bank == first  # no cross-bank serialization

    def test_respond_hops(self):
        fabric = Interconnect(DIR_BUS)
        assert fabric.respond(100) == 103  # home -> requester
        assert fabric.respond(100, forwarded=True) == 106  # via a holder

    def test_deferrals_sum_across_banks(self):
        config = BusConfig(
            coherence=CoherenceStyle.DIRECTORY,
            dir_banks=2,
            bus_occupancy=1,
            wrr_vocal_weight=1,
            wrr_mute_weight=1,
        )
        fabric = Interconnect(config)
        for _ in range(3):
            fabric.request(0, VOCAL, now=0)
            fabric.request(1, VOCAL, now=0)
        assert fabric.deferrals() == 4  # two per bank


class TestDirectoryEntry:
    def test_home_directory_materializes_and_reaps(self):
        """The backend's home directory holds an entry only while some
        core holds the line: materialized on demand, kept while a holder
        remains, reaped when the last one drops it."""
        home = DirectoryBackend(DIR_BUS, MainMemory(), Stats()).directory
        assert home.peek(7) is None
        entry = home.entry(7)
        entry.state = MSIState.SHARED
        entry.add(1)
        entry.add(2)
        assert len(home) == 1
        home.drop(7, 2)  # core 1 still holds it: kept
        assert home.peek(7) is entry
        home.drop(7, 1)
        assert home.peek(7) is None and len(home) == 0
