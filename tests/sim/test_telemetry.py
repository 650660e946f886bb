"""The telemetry contract: observe everything, change nothing.

Two halves:

* **Bit identity** — a run with telemetry armed (any level) must produce
  exactly the same architectural results as the same run with telemetry
  off.  The sampler and emitters only ever read simulator state.
* **Strategy independence** — the *event stream itself* describes the
  simulated machine, not the simulation strategy: a run under replay
  execution and under dual execution must emit identical streams (order
  and payload), whether a fault injector closes the mirror window at
  once or the window stays open, except for the mirror-window kinds in
  :data:`~repro.obs.events.STRATEGY_KINDS`, which exist only under
  replay by definition.
"""

from __future__ import annotations

import pytest

from repro.core.faults import FaultInjector
from repro.isa import assemble
from repro.obs.events import STRATEGY_KINDS
from repro.sim.cmp import CMPSystem
from repro.sim.config import Mode, PhantomStrength, parse_policy
from repro.sim.options import SimOptions
from tests.core.helpers import SMALL

#: Mixed compute: ALU work, stores, loads, a serializing atomic,
#: branches — exercises comparison, sync requests and the check gate.
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

#: Pure compute: no loads, stores or serializing instructions until the
#: final halt, so a pair's mirror window stays open nearly all run.
COMPUTE = """
    movi r1, 150
    movi r2, 1
    movi r3, 7
loop:
    add r2, r2, r3
    add r4, r2, r1
    add r3, r3, r4
    addi r1, r1, -1
    bne r1, r0, loop
    halt
"""


def _config(
    phantom: PhantomStrength = PhantomStrength.GLOBAL, fingerprint_interval: int = 8
):
    return SMALL.replace(n_logical=1).with_redundancy(
        mode=Mode.REUNION,
        comparison_latency=10,
        fingerprint_interval=fingerprint_interval,
        phantom=phantom,
    )


def _run(options: SimOptions, phantom=PhantomStrength.GLOBAL) -> CMPSystem:
    system = CMPSystem(_config(phantom), [assemble(MIXED)], options=options)
    system.run_until_idle(max_cycles=500_000)
    return system


def _observe(system: CMPSystem) -> dict:
    return {
        "now": system.now,
        "stats": dict(system.collect_stats().snapshot()),
        "arf": [[core.arf.read(reg) for reg in range(8)] for core in system.cores],
        "recovery_log": [pair.recovery_log for pair in system.pairs],
    }


class TestBitIdentity:
    @pytest.mark.parametrize("level", ["metrics", "events", "full"])
    def test_armed_run_matches_disarmed(self, level):
        baseline = _observe(_run(SimOptions()))
        armed_system = _run(SimOptions(trace=level))
        assert _observe(armed_system) == baseline
        # The run must have actually been observed, or this proves nothing.
        assert armed_system.obs is not None
        assert armed_system.obs.metrics.rows or armed_system.obs.log.emitted

    def test_events_level_sees_the_taxonomy(self):
        system = _run(SimOptions(trace="events"))
        kinds = set(system.obs.log.counts())
        assert "fingerprint.compare" in kinds
        assert "sync.request" in kinds  # the atomic serializes every loop

    def test_full_level_adds_diagnostics(self):
        events = set(_run(SimOptions(trace="events")).obs.log.counts())
        full = set(_run(SimOptions(trace="full")).obs.log.counts())
        assert events <= full
        assert "fingerprint.close" in full - events

    def test_off_allocates_nothing(self):
        system = CMPSystem(_config(), [assemble(MIXED)], options=SimOptions())
        assert system.obs is None
        assert system.controller.obs is None
        assert all(core.obs is None for core in system.cores)
        assert all(pair.obs is None for pair in system.pairs)


def _fault_stream(execution: str, kernel: str) -> tuple[list[dict], CMPSystem]:
    system = CMPSystem(
        _config(),
        [assemble(MIXED)],
        options=SimOptions(execution=execution, kernel=kernel, trace="events"),
    )
    injector = FaultInjector(seed=7)
    injector.attach(system.cores[1])  # the mute
    injector.inject_once(after=40)
    system.run_until_idle(max_cycles=500_000)
    stream = [
        event.to_dict()
        for event in system.obs.log
        if event.kind not in STRATEGY_KINDS
    ]
    return stream, system


def _open_window_stream(
    spec: str, execution: str, kernel: str, level: str
) -> tuple[list[dict], CMPSystem]:
    """A two-pair compute run: each pair's window stays open until HALT."""
    system = CMPSystem(
        _config().replace(n_logical=2).with_protection(parse_policy(spec)),
        [assemble(COMPUTE)] * 2,
        options=SimOptions(execution=execution, kernel=kernel, trace=level),
    )
    system.run_until_idle(max_cycles=500_000)
    stream = [
        event.to_dict()
        for event in system.obs.log
        if event.kind not in STRATEGY_KINDS
    ]
    return stream, system


@pytest.mark.parametrize("kernel", ["naive", "event"])
class TestReplayDualDifferential:
    @pytest.mark.parametrize("level", ["events", "full"])
    @pytest.mark.parametrize(
        "spec", ["full", "interval-sampled:0.5", "dynamic:1,0,2"]
    )
    def test_open_window_streams_identical(self, kernel, level, spec):
        """A mirrored mute emits its closes where dual's would, in order.

        Two pairs, so the stream interleaves vocal 0, vocal 1, mute 0 and
        mute 1 within a cycle exactly as the dual core loop does.
        """
        dual_stream, _ = _open_window_stream(spec, "dual", kernel, level)
        replay_stream, replay_system = _open_window_stream(
            spec, "replay", kernel, level
        )
        assert dual_stream == replay_stream
        assert all(
            pair.mirror_cycles > replay_system.now // 2
            for pair in replay_system.pairs
        )
        if level == "full" or spec != "full":
            # Closes are full-level diagnostics; skips are events-level.
            closers = {
                record["source"]
                for record in replay_stream
                if record["kind"] in ("fingerprint.close", "fingerprint.skip")
            }
            assert {"core2", "core3"} <= closers  # the mirrored mutes

    def test_fault_injected_streams_identical(self, kernel):
        dual_stream, dual_system = _fault_stream("dual", kernel)
        replay_stream, replay_system = _fault_stream("replay", kernel)
        # Order and payload, record for record (cycle stamps included).
        assert dual_stream == replay_stream
        assert _observe(dual_system) == _observe(replay_system)

        kinds = {record["kind"] for record in dual_stream}
        assert "fault.inject" in kinds
        assert "fingerprint.mismatch" in kinds
        assert "recovery.start" in kinds
        assert "recovery.rollback" in kinds
        assert "recovery.resume" in kinds
        assert dual_system.recoveries() >= 1

    def test_mismatch_records_carry_the_divergence(self, kernel):
        stream, _ = _fault_stream("dual", kernel)
        mismatches = [r for r in stream if r["kind"] == "fingerprint.mismatch"]
        assert mismatches
        first = mismatches[0]
        assert first["cause"] in {"fingerprint", "count", "poison"}
        assert first["vocal_fp"] != first["mute_fp"] or first["cause"] != "fingerprint"


class TestRingBound:
    def test_capacity_bounds_memory_not_accounting(self):
        system = _run(SimOptions(trace="events", trace_capacity=8))
        log = system.obs.log
        assert len(log) == 8
        assert log.emitted > 8
        assert log.dropped == log.emitted - 8
        # The survivors are the newest records.
        cycles = [event.cycle for event in log]
        assert cycles == sorted(cycles)
