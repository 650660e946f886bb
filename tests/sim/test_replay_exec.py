"""Equivalence of replay execution and full dual execution.

The replay fast path's contract is *bit identity*: a system built with
``execution="replay"`` must produce exactly the same statistics,
fingerprint-comparison sequence, recovery log, and architectural
register state as ``execution="dual"``.  Replay is a mirror window (see
``repro.core.mirror``): from reset until the first asymmetry trigger
the pair is a provably symmetric automaton, so only the vocal is
stepped — hashing its fingerprints exactly as dual execution would —
and the mute's state is materialized at window exit, after which the
pair permanently falls back to full dual execution.  These tests run
the same scenario under both execution modes (and both simulation
kernels) and diff everything observable.
"""

from __future__ import annotations

import pytest

from repro.core.check_stage import CheckGate
from repro.core.faults import FaultInjector
from repro.isa import assemble
from repro.sim.cmp import CMPSystem
from repro.sim.config import (
    DEFAULT_CONFIG,
    Mode,
    PhantomStrength,
    TLBMode,
    parse_policy,
)
from repro.sim.options import SimOptions
from repro.workloads.base import hashed_schedule
from repro.workloads.micro import ComputeKernel, PointerChase
from tests.core.helpers import SMALL

#: Mixed compute: dependent ALU work, stores, loads, a serializing
#: atomic, branches — every kind of update word a fingerprint hashes.
MIXED = """
    movi r1, 40
    movi r2, 0
    movi r3, 0x400
    movi r6, 0x900
loop:
    add r2, r2, r1
    store r2, [r3]
    load r4, [r3]
    atomic r5, [r6], r1
    addi r3, r3, 8
    addi r1, r1, -1
    bne r1, r0, loop
    halt
"""

#: Memory-latency dominated: a dependent load chain that misses.
CHASE = PointerChase(nodes=64, chases_per_iteration=8)

#: Pure compute: no loads, stores or serializing instructions until the
#: final halt, so the mirror window covers essentially the whole run.
COMPUTE = """
    movi r1, 300
    movi r2, 1
    movi r3, 7
loop:
    add r2, r2, r3
    add r4, r2, r1
    add r3, r3, r4
    add r5, r3, r2
    addi r1, r1, -1
    bne r1, r0, loop
    halt
"""


def _config(phantom: PhantomStrength = PhantomStrength.GLOBAL, n_logical: int = 1):
    return SMALL.replace(n_logical=n_logical).with_redundancy(
        mode=Mode.REUNION,
        comparison_latency=10,
        fingerprint_interval=8,
        phantom=phantom,
    )


def _observe(system: CMPSystem) -> dict:
    """Everything the equivalence contract covers, in one comparable dict."""
    observation = {
        "now": system.now,
        "stats": dict(system.collect_stats().snapshot()),
        "arf": [
            [core.arf.read(reg) for reg in range(8)] for core in system.cores
        ],
        "user_retired": [core.user_retired for core in system.cores],
        "cycles": [core.cycles for core in system.cores],
    }
    for index, core in enumerate(system.cores):
        gate = core.gate
        if isinstance(gate, CheckGate):
            observation[f"gate{index}.intervals_closed"] = gate.intervals_closed
            observation[f"gate{index}.fingerprints_compared"] = gate.fingerprints_compared
            observation[f"gate{index}.intervals_unchecked"] = gate.intervals_unchecked
    observation["recovery_log"] = [pair.recovery_log for pair in system.pairs]
    return observation


def _run_both(scenario) -> tuple[dict, dict, CMPSystem, CMPSystem]:
    """Run ``scenario(execution)`` under both modes; return observations."""
    dual = scenario("dual")
    replay = scenario("replay")
    return _observe(dual), _observe(replay), dual, replay


@pytest.mark.parametrize("kernel", ["naive", "event"])
class TestReplayEquivalence:
    def test_mixed_workload(self, kernel):
        def scenario(execution):
            system = CMPSystem(
                _config(),
                [assemble(MIXED)],
                options=SimOptions.from_env(kernel=kernel, execution=execution),
            )
            system.run_until_idle(max_cycles=500_000)
            return system

        dual, replay, _, replay_system = _run_both(scenario)
        assert dual == replay
        # The fast path must actually engage, or this test proves nothing:
        # the mirror window covers at least the loadless warmup prefix,
        # then the first load fetch drops the pair to dual for good.
        assert replay_system.pairs[0].mirror_cycles > 0
        assert not replay_system.pairs[0].replay_enabled

    def test_compute_bound_mirror_window(self, kernel):
        """A loadless loop: the mirror window covers nearly the whole run."""

        def scenario(execution):
            system = CMPSystem(
                _config(),
                [assemble(COMPUTE)],
                options=SimOptions.from_env(kernel=kernel, execution=execution),
            )
            system.run_until_idle(max_cycles=500_000)
            return system

        dual, replay, _, replay_system = _run_both(scenario)
        assert dual == replay
        pair = replay_system.pairs[0]
        assert not pair._mirror_active  # exited at the halt fetch
        assert pair.mirror_cycles > replay_system.now // 2

    def test_observation_mid_mirror_window(self, kernel):
        """Stats read while the window is still open must be identical."""

        def scenario(execution):
            system = CMPSystem(
                _config(),
                [assemble(COMPUTE)],
                options=SimOptions.from_env(kernel=kernel, execution=execution),
            )
            system.run(400)
            return system

        dual, replay, _, replay_system = _run_both(scenario)
        assert dual == replay
        assert replay_system.pairs[0]._mirror_active

    def test_memory_bound_windows(self, kernel):
        def scenario(execution):
            system = CMPSystem(
                _config(),
                CHASE.programs(1, seed=0),
                options=SimOptions.from_env(kernel=kernel, execution=execution),
            )
            system.run(1_500)  # warmup
            system.run(2_500)  # measure
            return system

        dual, replay, _, replay_system = _run_both(scenario)
        assert dual == replay
        # Memory-bound from the first iteration: the window exits at the
        # first load fetch, after which replay *is* dual execution — the
        # fast path costs nothing on its worst-case workload.
        assert replay_system.pairs[0].mirror_cycles > 0
        assert not replay_system.pairs[0].replay_enabled

    #: Cold loads of preloaded data with null phantom requests: the mute's
    #: non-coherent fills observe stale values (Figure 1's incoherence).
    INCOHERENT = """
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

    def test_input_incoherence_detected_identically(self, kernel):
        """No phantom requests: the mute observes incoherent load values.

        Replay must reach the same divergence decisions as the hashed
        fingerprints — same recovery count, same recovery cycles.
        """

        def scenario(execution):
            system = CMPSystem(
                _config(phantom=PhantomStrength.NULL),
                [assemble(self.INCOHERENT)],
                options=SimOptions.from_env(kernel=kernel, execution=execution),
            )
            system.run_until_idle(max_cycles=500_000)
            return system

        dual, replay, dual_system, _ = _run_both(scenario)
        assert dual == replay
        assert dual_system.recoveries() > 0

    def test_interrupt_service_identical(self, kernel):
        def scenario(execution):
            system = CMPSystem(
                _config(),
                [assemble(MIXED)],
                options=SimOptions.from_env(kernel=kernel, execution=execution),
            )
            system.run(600)
            system.post_interrupt(0)
            system.run_until_idle(max_cycles=500_000)
            return system

        dual, replay, dual_system, _ = _run_both(scenario)
        assert dual == replay
        assert dual_system.cores[0].interrupts_serviced >= 1


@pytest.mark.parametrize("kernel", ["naive", "event"])
class TestFaultInjectionUnderReplay:
    """A fault-armed pair must fall back to dual and detect the upset."""

    def test_single_upset_recovery_identical(self, kernel):
        def scenario(execution):
            system = CMPSystem(
                _config(),
                [assemble(MIXED)],
                options=SimOptions.from_env(kernel=kernel, execution=execution),
            )
            injector = FaultInjector(seed=7)
            injector.attach(system.cores[1])  # the mute
            injector.inject_once(after=40)
            system.run_until_idle(max_cycles=500_000)
            return system

        dual, replay, dual_system, replay_system = _run_both(scenario)
        assert dual == replay
        assert dual_system.recoveries() >= 1
        # Attaching the injector disabled the fast path for good.
        assert not replay_system.pairs[0].replay_enabled

    def test_periodic_upsets_identical(self, kernel):
        def scenario(execution):
            system = CMPSystem(
                _config(),
                [assemble(MIXED)],
                options=SimOptions.from_env(kernel=kernel, execution=execution),
            )
            injector = FaultInjector(interval=60, seed=3)
            injector.attach(system.cores[1])
            system.run_until_idle(max_cycles=500_000)
            return system

        dual, replay, dual_system, _ = _run_both(scenario)
        assert dual == replay
        assert dual_system.recoveries() >= 2


#: Partial policies whose mute is the vocal's automaton, so their pairs
#: mirror.  ``dynamic:1,0,2`` pauses checking at any check-stage
#: backlog, so its off-windows open inside the mirror window.
PARTIAL_POLICIES = ("interval-sampled:0.25", "interval-sampled:0.5", "dynamic:1,0,2")


def _policy_systems(spec: str, kernel: str, source: str) -> list[CMPSystem]:
    """The same one-pair system under ``spec``: dual first, then mirrored."""
    return [
        CMPSystem(
            _config().with_protection(parse_policy(spec)),
            [assemble(source)],
            options=SimOptions.from_env(kernel=kernel, execution=execution),
        )
        for execution in ("dual", "replay")
    ]


@pytest.mark.parametrize("kernel", ["naive", "event"])
@pytest.mark.parametrize("spec", PARTIAL_POLICIES)
class TestPartialPolicyMirror:
    """``interval-sampled`` and ``dynamic`` pairs mirror, bit-identical to dual.

    Both gates of a partial pair read one shared ``ProtectionState``, so
    the mirrored vocal's gate makes every skip decision the mute's would,
    and the pair runs the dynamic policy after each cleared batch.
    ``_observe``'s Stats carry ``pairN.unchecked_intervals`` and
    ``pairN.protection_toggles``.
    """

    def test_compute_window_open_until_halt(self, spec, kernel):
        dual, mirrored = _policy_systems(spec, kernel, COMPUTE)
        for system in (dual, mirrored):
            system.run_until_idle(max_cycles=500_000)
        assert _observe(dual) == _observe(mirrored)
        pair = mirrored.pairs[0]
        assert not pair._mirror_active  # exited at the halt fetch
        assert pair.mirror_cycles > mirrored.now // 2
        assert pair.vocal.gate.intervals_unchecked > 0

    def test_observation_mid_window(self, spec, kernel):
        dual, mirrored = _policy_systems(spec, kernel, COMPUTE)
        for system in (dual, mirrored):
            system.run(400)
        assert _observe(dual) == _observe(mirrored)
        pair = mirrored.pairs[0]
        assert pair._mirror_active
        assert pair.mute.gate.intervals_unchecked > 0
        if pair.policy.mode == "dynamic":
            assert pair.protection_toggles > 0

    def test_mixed_early_exit(self, spec, kernel):
        dual, mirrored = _policy_systems(spec, kernel, MIXED)
        for system in (dual, mirrored):
            system.run_until_idle(max_cycles=500_000)
        assert _observe(dual) == _observe(mirrored)
        assert mirrored.pairs[0].mirror_cycles > 0
        assert not mirrored.pairs[0].replay_enabled

    def test_interrupt_posted_mid_window(self, spec, kernel):
        dual, mirrored = _policy_systems(spec, kernel, COMPUTE)
        for system in (dual, mirrored):
            system.run(400)
        pair = mirrored.pairs[0]
        assert pair._mirror_active
        # Posting materializes a gate whose retire times include
        # skip-closed intervals.
        assert pair.vocal.gate.intervals_unchecked > 0
        for system in (dual, mirrored):
            system.post_interrupt(0)
            system.run_until_idle(max_cycles=500_000)
        assert _observe(dual) == _observe(mirrored)
        assert not pair.replay_enabled
        assert dual.cores[0].interrupts_serviced >= 1

    def test_fault_injector_attached_mid_window(self, spec, kernel):
        dual, mirrored = _policy_systems(spec, kernel, COMPUTE)
        for system in (dual, mirrored):
            system.run(400)
        assert mirrored.pairs[0]._mirror_active
        for system in (dual, mirrored):
            injector = FaultInjector(seed=7)
            injector.attach(system.cores[1])  # the mute
            injector.inject_once(after=40)
            system.run_until_idle(max_cycles=500_000)
        assert _observe(dual) == _observe(mirrored)
        assert mirrored.pairs[0].mirror_cycles >= 400
        assert not mirrored.pairs[0].replay_enabled


@pytest.mark.parametrize("kernel", ["naive", "event"])
@pytest.mark.parametrize("spec", ["full", "interval-sampled:0.5", "dynamic:6,3,8"])
def test_software_tlb_handler_ends_the_window(spec, kernel):
    """A fast-miss handler injected mid-window ends it, bit-identical to dual.

    ``ComputeKernel`` has no memory instruction, so the window stays open
    until a synthetic ITLB miss under the software TLB injects the
    handler: fetching its first instruction is the only trigger.
    """
    config = (
        _config().with_tlb(mode=TLBMode.SOFTWARE).with_protection(parse_policy(spec))
    )
    dual, mirrored = (
        CMPSystem(
            config,
            ComputeKernel().programs(1),
            [hashed_schedule(rate_per_kinstr=5.0, seed=1)],
            options=SimOptions.from_env(kernel=kernel, execution=execution),
        )
        for execution in ("dual", "replay")
    )
    for system in (dual, mirrored):
        system.run(6_000)
    assert _observe(dual) == _observe(mirrored)
    assert mirrored.pairs[0].mirror_cycles > 0
    assert mirrored.cores[0].injected_retired > 0


class TestReplayScope:
    """Window arming and exit triggers behave as specified."""

    def test_only_symmetric_pairs_arm(self):
        """A little mute (a narrower automaton) and a parked mute never arm."""
        specs = ("full", "interval-sampled:0.5", "dynamic", "little-mute:2", "unprotected")
        config = _config(n_logical=len(specs)).with_protection(
            tuple(parse_policy(spec) for spec in specs)
        )
        system = CMPSystem(
            config, [assemble(COMPUTE)] * len(specs), options=SimOptions()
        )
        assert [pair.replay_enabled for pair in system.pairs] == [
            True, True, True, False, False,
        ]
        system.run_until_idle(max_cycles=500_000)
        assert [pair.mirror_cycles > 0 for pair in system.pairs] == [
            True, True, True, False, False,
        ]

    def test_multi_pair_mirror_windows(self):
        """Every pair of a many-pair system arms — and stays identical.

        In-window a mirrored pair touches no shared structure at all, so
        skipping each mute is invisible to the other pairs under any
        coherence backend; each pair falls back to dual at its own first
        trigger.
        """
        system = CMPSystem(
            _config(n_logical=2),
            [assemble(MIXED)] * 2,
            options=SimOptions.from_env(execution="replay"),
        )
        assert all(pair.replay_enabled for pair in system.pairs)
        system.run_until_idle(max_cycles=500_000)
        assert all(pair.mirror_cycles > 0 for pair in system.pairs)
        assert all(not pair.replay_enabled for pair in system.pairs)
        reference = CMPSystem(
            _config(n_logical=2),
            [assemble(MIXED)] * 2,
            options=SimOptions.from_env(execution="dual"),
        )
        reference.run_until_idle(max_cycles=500_000)
        assert _observe(reference) == _observe(system)

    @pytest.mark.parametrize(
        "preset_name", ["MANYCORE_8", "MANYCORE_16", "MANYCORE_32"]
    )
    def test_manycore_presets_open_mirror_windows(self, preset_name):
        """Mirror windows open on every pair of the stock MANYCORE presets.

        The presets run the directory backend; the windows must still
        arm per-pair and the full system must stay bit-identical to
        dual execution.
        """
        from repro import sim as sim_presets

        preset = getattr(sim_presets, preset_name)
        programs = [assemble(COMPUTE)] * preset.n_logical
        replay = CMPSystem(
            preset, programs, options=SimOptions.from_env(execution="replay")
        )
        assert all(pair.replay_enabled for pair in replay.pairs)
        replay.run_until_idle(max_cycles=500_000)
        assert all(pair.mirror_cycles > 0 for pair in replay.pairs)
        dual = CMPSystem(
            preset, programs, options=SimOptions.from_env(execution="dual")
        )
        dual.run_until_idle(max_cycles=500_000)
        assert _observe(dual) == _observe(replay)

    def test_decouple_disables_replay(self):
        system = CMPSystem(
            _config(),
            [assemble(COMPUTE)],
            options=SimOptions.from_env(execution="replay"),
        )
        system.run(600)
        assert system.pairs[0].replay_enabled
        pair = system.pairs[0]
        system.decouple(0, assemble(COMPUTE))
        assert not pair.replay_enabled

    def test_mid_run_fault_attach_disables(self):
        system = CMPSystem(
            _config(),
            [assemble(COMPUTE)],
            options=SimOptions.from_env(execution="replay"),
        )
        system.run(400)
        assert system.pairs[0].replay_enabled
        FaultInjector(seed=1).attach(system.cores[1])
        system.run(50)
        assert not system.pairs[0].replay_enabled


class TestExecutionSelection:
    def test_env_var_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC", "dual")
        system = CMPSystem(_config(), [assemble(MIXED)])
        assert system.options.execution == "dual"
        assert not system.pairs[0].replay_enabled
        monkeypatch.setenv("REPRO_EXEC", "replay")
        system = CMPSystem(_config(), [assemble(MIXED)])
        assert system.options.execution == "replay"
        assert system.pairs[0].replay_enabled

    def test_explicit_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC", "replay")
        system = CMPSystem(
            _config(),
            [assemble(MIXED)],
            options=SimOptions.from_env(execution="dual"),
        )
        assert system.options.execution == "dual"
        assert not system.pairs[0].replay_enabled

    @pytest.mark.parametrize("execution", ["dual", "replay"])
    def test_execution_alone_picks_the_mirrored_pairs(self, execution):
        """Explicit policies do not override ``execution``.

        Under ``dual`` no pair arms, whatever its policy.  Under
        ``replay`` every pair arms except a little mute (a narrower
        automaton) and an unprotected one (a parked mute).
        """
        base = DEFAULT_CONFIG.with_redundancy(mode=Mode.REUNION).replace(n_logical=2)
        mirrors = ("full", "interval-sampled:0.5", "dynamic:1,0,2")
        configs = {"no policies": base}
        for spec in (*mirrors, "little-mute:2", "unprotected"):
            configs[spec] = base.with_protection(parse_policy(spec))
        programs = ComputeKernel().programs(2, 0)
        options = SimOptions(execution=execution)
        armed = {
            name: [
                pair.replay_enabled
                for pair in CMPSystem(config, programs, options=options).pairs
            ]
            for name, config in configs.items()
        }
        assert armed == {
            name: [execution == "replay" and name in ("no policies", *mirrors)] * 2
            for name in configs
        }

    def test_unknown_execution_rejected(self):
        with pytest.raises(ValueError):
            CMPSystem(
                _config(),
                [assemble(MIXED)],
                options=SimOptions.from_env(execution="turbo"),
            )
