"""Behavioral contracts of the per-pair protection policies.

One system per policy mode, each checked against the golden interpreter:
``full`` stays bit-identical to the policy-free path, ``little-mute``
narrows only the mute's issue stage, ``interval-sampled`` skips the
Bresenham share of interval comparisons, ``unprotected`` parks the mute
entirely, and ``dynamic`` toggles under check-stage backlog.  A mixed
many-pair system on the directory backend exercises all of them side by
side (the API's reason to exist: heterogeneous protection in one CMP).
"""

import pytest

from repro.isa import assemble
from repro.isa.interpreter import run as golden_run
from repro.sim.cmp import CMPSystem
from repro.sim.config import (
    Mode,
    ProtectionPolicy,
    apply_env_coherence,
    parse_policy,
)
from repro.sim.options import SimOptions
from tests.core.helpers import SMALL

LOOPY = """
    movi r1, 40
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

COMPUTE = """
    movi r1, 60
    movi r2, 1
loop:
    mul r2, r2, r1
    addi r2, r2, 3
    addi r1, r1, -1
    bne r1, r0, loop
    halt
"""


def _build(sources, policy=None, fingerprint_interval=4, **options_kwargs):
    programs = [assemble(source) for source in sources]
    config = SMALL.replace(n_logical=len(programs)).with_redundancy(
        mode=Mode.REUNION, fingerprint_interval=fingerprint_interval
    )
    if policy is not None:
        config = config.with_protection(policy)
    options = SimOptions(**options_kwargs) if options_kwargs else None
    return CMPSystem(config, programs, options=options)


def assert_golden(system, source, logical=0):
    golden = golden_run(assemble(source))
    vocal = system.vocal_cores[logical]
    for reg in range(8):
        assert vocal.arf.read(reg) == golden.registers.read(reg), f"r{reg}"
    assert vocal.user_retired == golden.retired


class TestFullPolicyBitIdentity:
    """An explicit ``full`` policy is the absent-policy path, bit for bit."""

    @pytest.mark.parametrize("execution", ["replay", "dual"])
    def test_identical_to_policy_free_run(self, execution):
        bare = _build([LOOPY], execution=execution)
        bare_cycles = bare.run_until_idle()
        explicit = _build(
            [LOOPY],
            policy=ProtectionPolicy.full(),
            execution=execution,
        )
        explicit_cycles = explicit.run_until_idle()
        assert explicit_cycles == bare_cycles
        assert explicit.vocal_cores[0].arf == bare.vocal_cores[0].arf
        assert (
            explicit.vocal_cores[0].user_retired
            == bare.vocal_cores[0].user_retired
        )
        assert explicit.recoveries() == bare.recoveries() == 0

    def test_full_pair_still_checks_every_interval(self):
        system = _build([LOOPY], policy=ProtectionPolicy.full())
        system.run_until_idle()
        gate = system.vocal_cores[0].gate
        assert gate.intervals_closed > 0
        assert gate.intervals_unchecked == 0


class TestLittleMute:
    def test_narrows_only_the_mute_issue_stage(self):
        system = _build([COMPUTE], policy=ProtectionPolicy.little_mute(1))
        vocal, mute = system.vocal_cores[0], system.cores[1]
        assert mute.issue_width == 1
        assert vocal.issue_width == SMALL.core.width
        system.run_until_idle()
        assert not system.failed
        assert_golden(system, COMPUTE)
        # Fetch/dispatch/retire keep full width: fingerprints cover the
        # whole stream, so nothing goes unchecked and the mute retires
        # every user instruction the vocal does.
        assert mute.user_retired == vocal.user_retired
        assert vocal.gate.intervals_unchecked == 0

    def test_costs_throughput_against_full(self):
        full_cycles = _build([COMPUTE], policy=ProtectionPolicy.full()).run_until_idle()
        little_cycles = _build(
            [COMPUTE], policy=ProtectionPolicy.little_mute(1)
        ).run_until_idle()
        assert little_cycles >= full_cycles

    def test_no_spurious_recoveries(self):
        system = _build([COMPUTE], policy=ProtectionPolicy.little_mute(1))
        system.run_until_idle()
        assert system.recoveries() == 0


class TestIntervalSampled:
    def test_skips_the_bresenham_share(self):
        system = _build(
            [LOOPY], policy=ProtectionPolicy.interval_sampled(0.5)
        )
        system.run_until_idle()
        assert not system.failed
        assert_golden(system, LOOPY)
        gate = system.vocal_cores[0].gate
        assert gate.intervals_closed > 4
        # f=0.5 checks every other interval; the Bresenham schedule can
        # be off by one at the tail.
        assert abs(gate.intervals_unchecked - gate.intervals_closed / 2) <= 1

    def test_both_gates_agree_on_the_schedule(self):
        system = _build(
            [LOOPY], policy=ProtectionPolicy.interval_sampled(0.25)
        )
        system.run_until_idle()
        vocal, mute = system.vocal_cores[0], system.cores[1]
        assert vocal.gate.intervals_unchecked == mute.gate.intervals_unchecked
        assert system.recoveries() == 0


class TestUnprotected:
    def test_mute_is_parked(self):
        system = _build([LOOPY], policy=ProtectionPolicy.unprotected())
        system.run_until_idle()
        assert not system.failed
        assert_golden(system, LOOPY)
        mute = system.cores[1]
        assert mute.mirror_passive
        assert mute.user_retired == 0
        assert mute.total_retired == 0

    def test_no_interval_is_compared(self):
        system = _build([LOOPY], policy=ProtectionPolicy.unprotected())
        system.run_until_idle()
        gate = system.vocal_cores[0].gate
        assert gate.intervals_closed > 0
        assert gate.intervals_unchecked == gate.intervals_closed
        assert gate.fingerprints_compared == 0

    def test_buys_back_the_comparison_latency(self):
        full_cycles = _build([LOOPY], policy=ProtectionPolicy.full()).run_until_idle()
        bare_cycles = _build(
            [LOOPY], policy=ProtectionPolicy.unprotected()
        ).run_until_idle()
        assert bare_cycles <= full_cycles


class TestDynamic:
    def test_toggles_under_backlog(self):
        # off_threshold=1: any check-stage backlog at a comparison point
        # pauses protection for the next two intervals.
        system = _build(
            [LOOPY],
            policy=ProtectionPolicy.dynamic(1, 0, 2),
            fingerprint_interval=2,
        )
        system.run_until_idle()
        assert not system.failed
        assert_golden(system, LOOPY)
        pair = system.pairs[0]
        assert pair.protection_toggles >= 1
        gate = system.vocal_cores[0].gate
        assert 0 < gate.intervals_unchecked < gate.intervals_closed

    def test_stats_expose_the_policy_counters(self):
        system = _build(
            [LOOPY],
            policy=ProtectionPolicy.dynamic(1, 0, 2),
            fingerprint_interval=2,
        )
        system.run_until_idle()
        snapshot = system.collect_stats().snapshot()
        assert snapshot["pair0.unchecked_intervals"] > 0
        assert snapshot["pair0.protection_toggles"] >= 1


# Disjoint store regions per pair: cross-pair sharing would inject
# genuine input incoherence (and its recoveries), which is not what
# this class is probing.
MIXED_SOURCES = [COMPUTE, LOOPY.replace("0x400", "0x800"), COMPUTE, LOOPY]
MIXED_POLICIES = tuple(
    parse_policy(spec)
    for spec in ("full", "little-mute:2", "interval-sampled:0.5", "unprotected")
)


class TestMixedManycore:
    """Heterogeneous protection across pairs of one directory-backend CMP."""

    @pytest.fixture(scope="class")
    def system(self):
        config = apply_env_coherence(
            SMALL.replace(n_logical=len(MIXED_SOURCES)),
            {"REPRO_COHERENCE": "directory"},
        ).with_redundancy(mode=Mode.REUNION, fingerprint_interval=4)
        config = config.with_protection(MIXED_POLICIES)
        system = CMPSystem(
            config, [assemble(source) for source in MIXED_SOURCES]
        )
        system.run_until_idle()
        return system

    def test_every_vocal_matches_golden(self, system):
        assert not system.failed
        for logical, source in enumerate(MIXED_SOURCES):
            assert_golden(system, source, logical=logical)

    def test_each_pair_keeps_its_own_policy(self, system):
        assert [pair.policy.describe() for pair in system.pairs] == [
            "full",
            "little-mute:2",
            "interval-sampled:0.5",
            "unprotected",
        ]
        # full: everything checked
        assert system.pairs[0].vocal.gate.intervals_unchecked == 0
        # little-mute: narrowed mute, still full coverage
        assert system.pairs[1].mute.issue_width == 2
        assert system.pairs[1].vocal.gate.intervals_unchecked == 0
        # sampled: roughly half skipped
        sampled_gate = system.pairs[2].vocal.gate
        assert 0 < sampled_gate.intervals_unchecked < sampled_gate.intervals_closed
        # unprotected: parked mute, nothing compared
        assert system.pairs[3].mute.user_retired == 0
        assert system.pairs[3].vocal.gate.fingerprints_compared == 0

    def test_no_cross_pair_interference(self, system):
        assert system.recoveries() == 0
