"""Equivalence of the cycle-skipping kernel and the naive per-cycle loop.

The event-driven kernel's contract is *bit identity*: every statistic,
fingerprint comparison count, recovery, and architectural register value
must match the naive loop exactly, because skipped cycles are — by the
conservative ``next_event()`` contract — cycles in which no component
could have acted.  These tests run the same scenario under both kernels
and diff everything observable.
"""

from __future__ import annotations

import pytest

from repro.core.check_stage import CheckGate
from repro.core.faults import FaultInjector
from repro.core.pair import LogicalPair
from repro.isa import assemble
from repro.sim.cmp import CMPSystem
from repro.sim.config import Mode, PhantomStrength, manycore_config, parse_policy
from repro.sim.options import SimOptions
from repro.workloads.micro import PointerChase
from tests.core.helpers import SMALL

#: A mixed workload: dependent ALU work, stores, loads, a serializing
#: atomic, branches — touches every pipeline phase the horizon models.
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


def _config(mode: Mode, n_logical: int = 1):
    return SMALL.replace(n_logical=n_logical).with_redundancy(
        mode=mode,
        comparison_latency=10,
        fingerprint_interval=8,
        phantom=PhantomStrength.GLOBAL,
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
    observation["recovery_log"] = [pair.recovery_log for pair in system.pairs]
    return observation


def _run_both(scenario) -> tuple[dict, dict, CMPSystem, CMPSystem]:
    """Run ``scenario(kernel)`` under both kernels; return observations."""
    naive = scenario("naive")
    event = scenario("event")
    return _observe(naive), _observe(event), naive, event


@pytest.mark.parametrize("mode", [Mode.NONREDUNDANT, Mode.STRICT, Mode.REUNION])
class TestRunUntilIdleEquivalence:
    def test_mixed_workload(self, mode):
        def scenario(kernel):
            system = CMPSystem(
                _config(mode),
                [assemble(MIXED)],
                options=SimOptions.from_env(kernel=kernel),
            )
            system.run_until_idle(max_cycles=500_000)
            return system

        naive, event, _, _ = _run_both(scenario)
        assert naive == event

    def test_two_logical_processors(self, mode):
        def scenario(kernel):
            system = CMPSystem(
                _config(mode, n_logical=2),
                [assemble(MIXED)] * 2,
                options=SimOptions.from_env(kernel=kernel),
            )
            system.run_until_idle(max_cycles=500_000)
            return system

        naive, event, _, _ = _run_both(scenario)
        assert naive == event


@pytest.mark.parametrize("mode", [Mode.NONREDUNDANT, Mode.STRICT, Mode.REUNION])
class TestWindowedRunEquivalence:
    """``run(cycles)`` windows (the sampling methodology's shape)."""

    def test_memory_bound_windows(self, mode):
        def scenario(kernel):
            system = CMPSystem(
                _config(mode),
                CHASE.programs(1, seed=0),
                options=SimOptions.from_env(kernel=kernel),
            )
            system.run(1_500)  # warmup
            system.run(2_500)  # measure
            return system

        naive, event, _, skipping = _run_both(scenario)
        assert naive == event
        assert skipping.now == 4_000
        # The skipping kernel must actually skip on this workload, or the
        # tentpole is a no-op.
        assert skipping.steps < skipping.now

    def test_itlb_schedule(self, mode):
        def scenario(kernel):
            schedule = lambda index: index % 37 == 5  # noqa: E731 - pure
            system = CMPSystem(
                _config(mode),
                [assemble(MIXED)],
                itlb_schedules=[schedule],
                options=SimOptions.from_env(kernel=kernel),
            )
            system.run_until_idle(max_cycles=500_000)
            return system

        naive, event, _, _ = _run_both(scenario)
        assert naive == event


@pytest.mark.parametrize(
    "policy",
    # Low dynamic thresholds, so off-windows open on this light backlog.
    ["full", "little-mute:2", "interval-sampled:0.5", "dynamic:2,1,4", "unprotected"],
)
def test_memory_bound_pairs_per_policy(policy):
    """Skipped pairs and skipped cycles on a many-pair directory system.

    The pair-level schedule state (dynamic off-windows, sampled
    intervals) runs inside pairs the kernel skips, and an
    ``unprotected`` pair's parked mute must not gain the skipped cycles
    naive stepping never ticks.
    """

    def scenario(kernel):
        config = manycore_config(3).with_protection(parse_policy(policy))
        system = CMPSystem(
            config,
            PointerChase(nodes=512).programs(3, seed=0),
            options=SimOptions.from_env(kernel=kernel),
        )
        system.run(1_500)
        system.run(3_000)
        return system

    naive, event, _, skipping = _run_both(scenario)
    assert naive == event
    assert skipping.steps < skipping.now


def test_pairs_step_only_when_due(monkeypatch):
    """A pair steps when one of its cores stepped or its horizon is due."""
    pair_steps = 0
    original = LogicalPair.step

    def counted(self, now):
        nonlocal pair_steps
        pair_steps += 1
        original(self, now)

    def scenario(kernel):
        config = manycore_config(8)
        system = CMPSystem(
            config,
            PointerChase(nodes=512).programs(config.n_logical, seed=0),
            options=SimOptions.from_env(kernel=kernel),
        )
        system.run(2_000)
        return system

    naive = _observe(scenario("naive"))
    monkeypatch.setattr(LogicalPair, "step", counted)
    system = scenario("event")
    assert _observe(system) == naive
    assert system.steps < system.now
    # Stepping every pair on every stepped cycle would make it 8 here.
    assert pair_steps < 2 * system.steps


class TestFaultInjectionEquivalence:
    def test_single_upset_recovery_identical(self):
        def scenario(kernel):
            system = CMPSystem(
                _config(Mode.REUNION),
                [assemble(MIXED)],
                options=SimOptions.from_env(kernel=kernel),
            )
            injector = FaultInjector(seed=7)
            injector.attach(system.cores[1])  # the mute
            injector.inject_once(after=40)
            system.run_until_idle(max_cycles=500_000)
            system.fault_records = [  # type: ignore[attr-defined]
                (r.seq, r.pc, r.bit, r.original, r.corrupted, r.cycle)
                for r in injector.records
            ]
            return system

        naive, event, naive_system, event_system = _run_both(scenario)
        assert naive == event
        assert naive_system.fault_records == event_system.fault_records
        assert naive_system.recoveries() >= 1
        assert naive_system.stats.snapshot()["pair0.mismatch_recoveries"] >= 1

    def test_periodic_upsets_identical(self):
        def scenario(kernel):
            system = CMPSystem(
                _config(Mode.REUNION),
                [assemble(MIXED)],
                options=SimOptions.from_env(kernel=kernel),
            )
            injector = FaultInjector(interval=60, seed=3)
            injector.attach(system.cores[1])
            system.run_until_idle(max_cycles=500_000)
            return system

        naive, event, naive_system, _ = _run_both(scenario)
        assert naive == event
        assert naive_system.recoveries() >= 2


class TestTimeoutEquivalence:
    """The run_until_idle timeout must fire at the identical cycle count."""

    def test_timeout_cycle_identical(self):
        forever = assemble("loop:\njump loop\nhalt")

        def timeout_now(kernel):
            system = CMPSystem(
                _config(Mode.NONREDUNDANT),
                [forever],
                options=SimOptions.from_env(kernel=kernel),
            )
            with pytest.raises(RuntimeError):
                system.run_until_idle(max_cycles=300)
            return system.now

        assert timeout_now("naive") == timeout_now("event")

    def test_stalled_system_timeout(self):
        # A load from an uncached address followed by an infinite loop:
        # long quiet stretches where the skip clamp at max_cycles matters.
        stalls = assemble("movi r1, 0x7000\nload r2, [r1]\nloop:\njump loop\nhalt")

        def timeout_now(kernel):
            system = CMPSystem(
                _config(Mode.NONREDUNDANT),
                [stalls],
                options=SimOptions.from_env(kernel=kernel),
            )
            with pytest.raises(RuntimeError):
                system.run_until_idle(max_cycles=250)
            return system.now

        assert timeout_now("naive") == timeout_now("event")


class TestKernelSelection:
    def test_env_var_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "naive")
        system = CMPSystem(_config(Mode.NONREDUNDANT), [assemble(MIXED)])
        assert system.kernel == "naive"
        monkeypatch.setenv("REPRO_KERNEL", "event")
        system = CMPSystem(_config(Mode.NONREDUNDANT), [assemble(MIXED)])
        assert system.kernel == "event"

    def test_explicit_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "naive")
        system = CMPSystem(
            _config(Mode.NONREDUNDANT),
            [assemble(MIXED)],
            options=SimOptions.from_env(kernel="event"),
        )
        assert system.kernel == "event"

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError):
            CMPSystem(
                _config(Mode.NONREDUNDANT),
                [assemble(MIXED)],
                options=SimOptions.from_env(kernel="magic"),
            )
