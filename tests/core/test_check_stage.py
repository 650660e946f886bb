"""Unit tests for the check gate and strict oracle gate."""

import pytest

from repro.core import check_stage
from repro.core.check_stage import RETIRE_TIME_SWEEP_AT, CheckGate
from repro.core.faults import FaultInjector
from repro.core.strict import StrictCheckGate
from repro.isa import Instruction, Op
from repro.pipeline.rob import DynInstr
from repro.sim.cmp import CMPSystem
from repro.sim.config import Mode, RedundancyConfig, parse_policy
from repro.sim.options import SimOptions
from repro.workloads.micro import ComputeKernel
from tests.core.helpers import SMALL


def make_entry(seq, op=Op.ADD, injected=False, result=1, serializing=False):
    if op is Op.ADD:
        inst = Instruction(op, rd=1, rs1=2, rs2=3)
    else:
        inst = Instruction(op)
    entry = DynInstr(seq, seq, inst, injected=injected)
    entry.result = result
    entry.serializing = serializing or inst.is_serializing
    return entry


class TestCheckGate:
    def test_interval_closes_at_interval_length(self):
        gate = CheckGate(RedundancyConfig(fingerprint_interval=2))
        gate.offer(make_entry(0), now=0)
        assert gate.peek_closed() is None
        gate.offer(make_entry(1), now=1)
        record = gate.peek_closed()
        assert record is not None and record.count == 2

    def test_serializing_closes_interval_early(self):
        gate = CheckGate(RedundancyConfig(fingerprint_interval=50))
        gate.offer(make_entry(0), now=0)
        gate.offer(make_entry(1, op=Op.MEMBAR, result=None), now=1)
        record = gate.peek_closed()
        assert record is not None and record.count == 2

    def test_halt_closes_interval(self):
        gate = CheckGate(RedundancyConfig(fingerprint_interval=50))
        gate.offer(make_entry(0, op=Op.HALT, result=None), now=0)
        record = gate.peek_closed()
        assert record is not None and record.has_halt

    def test_entries_wait_for_clear(self):
        gate = CheckGate(RedundancyConfig(fingerprint_interval=1))
        gate.offer(make_entry(0), now=0)
        assert gate.pop_retirable(now=100, limit=4) == []
        record = gate.pop_closed()
        gate.clear_interval(record.index, retire_time=10)
        assert gate.pop_retirable(now=9, limit=4) == []
        popped = gate.pop_retirable(now=10, limit=4)
        assert len(popped) == 1 and popped[0].seq == 0

    def test_injected_entries_transparent(self):
        gate = CheckGate(RedundancyConfig(fingerprint_interval=1, comparison_latency=10))
        user = make_entry(0)
        handler_load = make_entry(1, op=Op.NOP, injected=True, result=None)
        gate.offer(user, now=0)
        gate.offer(handler_load, now=0)
        # The injected instruction cannot retire past the unchecked user entry.
        assert gate.pop_retirable(now=100, limit=4) == []
        record = gate.pop_closed()
        assert record.count == 1  # handler not fingerprinted
        gate.clear_interval(record.index, retire_time=5)
        popped = gate.pop_retirable(now=5, limit=4)
        assert [e.seq for e in popped] == [0, 1]

    def test_injected_serializing_pays_comparison_latency(self):
        """Handler traps/MMU ops stall a full comparison latency (Sec 4.4)."""
        gate = CheckGate(RedundancyConfig(fingerprint_interval=1, comparison_latency=10))
        handler_trap = make_entry(0, op=Op.TRAP, injected=True, result=None)
        gate.offer(handler_trap, now=20)
        assert gate.pop_retirable(now=29, limit=4) == []
        assert len(gate.pop_retirable(now=30, limit=4)) == 1

    def test_single_step_closes_every_instruction(self):
        gate = CheckGate(RedundancyConfig(fingerprint_interval=50))
        gate.single_step = True
        gate.offer(make_entry(0), now=0)
        assert gate.peek_closed() is not None

    def test_timeout_close(self):
        config = RedundancyConfig(fingerprint_interval=10)
        gate = CheckGate(config)
        gate.offer(make_entry(0), now=0)
        gate.maybe_timeout_close(now=5)
        assert gate.peek_closed() is None
        gate.maybe_timeout_close(now=100)
        record = gate.peek_closed()
        assert record is not None and record.count == 1

    def test_flush_resets_everything(self):
        gate = CheckGate(RedundancyConfig(fingerprint_interval=1))
        gate.offer(make_entry(0), now=0)
        gate.flush()
        assert gate.peek_closed() is None
        assert gate.pop_retirable(now=100, limit=4) == []
        # Interval numbering restarts from zero after recovery.
        gate.offer(make_entry(1), now=5)
        assert gate.peek_closed().index == 0

    def test_squashed_entries_skipped(self):
        gate = CheckGate(RedundancyConfig(fingerprint_interval=1))
        entry = make_entry(0)
        gate.offer(entry, now=0)
        record = gate.pop_closed()
        gate.clear_interval(record.index, retire_time=0)
        entry.squashed = True
        assert gate.pop_retirable(now=10, limit=4) == []

    def test_identical_streams_produce_identical_records(self):
        config = RedundancyConfig(fingerprint_interval=3)
        gate_a, gate_b = CheckGate(config), CheckGate(config)
        for gate in (gate_a, gate_b):
            for seq in range(6):
                gate.offer(make_entry(seq, result=seq * 7), now=seq)
        while True:
            a, b = gate_a.peek_closed(), gate_b.peek_closed()
            if a is None:
                assert b is None
                break
            assert (a.fingerprint, a.count, a.index) == (b.fingerprint, b.count, b.index)
            gate_a.pop_closed()
            gate_b.pop_closed()

    def test_different_values_produce_different_fingerprints(self):
        config = RedundancyConfig(fingerprint_interval=1)
        gate_a, gate_b = CheckGate(config), CheckGate(config)
        gate_a.offer(make_entry(0, result=1), now=0)
        gate_b.offer(make_entry(0, result=2), now=0)
        assert gate_a.peek_closed().fingerprint != gate_b.peek_closed().fingerprint


class TestStrictGate:
    def test_self_clears_after_latency(self):
        gate = StrictCheckGate(RedundancyConfig(fingerprint_interval=1, comparison_latency=10))
        gate.offer(make_entry(0), now=5)
        assert gate.pop_retirable(now=14, limit=4) == []
        assert len(gate.pop_retirable(now=15, limit=4)) == 1

    def test_zero_latency_clears_immediately(self):
        gate = StrictCheckGate(RedundancyConfig(fingerprint_interval=1, comparison_latency=0))
        gate.offer(make_entry(0), now=5)
        assert len(gate.pop_retirable(now=5, limit=4)) == 1

    def test_interval_batching(self):
        gate = StrictCheckGate(RedundancyConfig(fingerprint_interval=4, comparison_latency=10))
        for seq in range(3):
            gate.offer(make_entry(seq), now=seq)
        assert gate.pop_retirable(now=50, limit=8) == []  # interval still open
        gate.offer(make_entry(3), now=3)
        assert len(gate.pop_retirable(now=13, limit=8)) == 4


def _long_run(policy: str, fault_interval: int = 0) -> tuple[dict, int, int]:
    """10k cycles of a dual one-pair compute kernel at interval length 1.

    Returns the Stats snapshot, the vocal gate's closed intervals, and
    the largest ``_retire_time`` any gate held at a 500-cycle boundary.
    """
    config = SMALL.with_redundancy(
        mode=Mode.REUNION, fingerprint_interval=1
    ).with_protection(parse_policy(policy))
    system = CMPSystem(
        config, ComputeKernel().programs(1), options=SimOptions(execution="dual")
    )
    if fault_interval:
        FaultInjector(interval=fault_interval, seed=5).attach(system.cores[1])
    peak = 0
    for _ in range(20):
        system.run(500)
        peak = max(peak, *(len(core.gate._retire_time) for core in system.cores))
    assert not system.failed
    if fault_interval:
        assert system.recoveries() >= 1  # flushes interleave with sweeps
    snapshot = dict(system.collect_stats().snapshot())
    return snapshot, system.vocal_cores[0].gate.intervals_closed, peak


@pytest.mark.parametrize("policy", ["full", "interval-sampled:0.5"])
class TestRetireTimeSweep:
    """Retire times of intervals that left the gate are swept out."""

    def test_bounded_on_a_long_run(self, policy, monkeypatch):
        swept, closed, peak = _long_run(policy)
        assert closed > 4 * RETIRE_TIME_SWEEP_AT
        # The threshold, plus retire times of intervals still in flight.
        assert peak <= RETIRE_TIME_SWEEP_AT + SMALL.core.rob_size
        monkeypatch.setattr(check_stage, "RETIRE_TIME_SWEEP_AT", 1 << 62)
        unswept, _, unswept_peak = _long_run(policy)
        assert unswept_peak > 4 * RETIRE_TIME_SWEEP_AT
        assert swept == unswept

    def test_sweeping_at_every_close_is_invisible(self, policy, monkeypatch):
        monkeypatch.setattr(check_stage, "RETIRE_TIME_SWEEP_AT", 1)
        every_close, _, peak = _long_run(policy, fault_interval=5_000)
        assert peak <= SMALL.core.rob_size
        monkeypatch.setattr(check_stage, "RETIRE_TIME_SWEEP_AT", 1 << 62)
        never, _, _ = _long_run(policy, fault_interval=5_000)
        assert every_close == never
