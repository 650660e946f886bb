"""Unit tests for the check gate and strict oracle gate.

Entries are completed instructions written into a real core's ring
slots (``tests.core.helpers.put_entry``) and offered through the flat
protocol.  Retirement runs through the core's own retire walk, so an
offered entry is also appended to the core's ROB and counted in its
in-check prefix, as the core's offer loop does.
"""

import pytest

from repro.core import check_stage
from repro.core.check_stage import CheckGate
from repro.core.faults import FaultInjector
from repro.core.strict import StrictCheckGate
from repro.isa import Instruction, Op
from repro.pipeline.flat import DynState
from repro.pipeline.gates import ImmediateGate
from repro.sim.cmp import CMPSystem
from repro.sim.config import Mode, RedundancyConfig, parse_policy
from repro.sim.options import SimOptions
from repro.workloads.micro import ComputeKernel
from tests.core.helpers import SMALL, put_entry, ring_core


@pytest.fixture
def core():
    return ring_core()


def make_entry(core, seq, op=Op.ADD, injected=False, result=1):
    """Write a completed ``op`` into ``core``'s ring; returns its slot."""
    if op is Op.ADD:
        inst = Instruction(op, rd=1, rs1=2, rs2=3)
    else:
        inst = Instruction(op)
    return put_entry(core, seq, inst, injected=injected, result=result)


def install(core, gate_class=CheckGate, **redundancy):
    """A ``gate_class`` gate sized for ``core`` and plugged into it."""
    gate = gate_class(RedundancyConfig(**redundancy), core._f_cap)
    core.gate = gate
    return gate


def offer(core, seq, now, **entry):
    """Append a completed entry to the ROB and offer it to the core's gate."""
    slot = make_entry(core, seq, **entry)
    core.rob.append(slot)
    core.f_state[slot] = DynState.IN_CHECK
    core.gate.offer_f(core, slot, now)
    core._n_check += 1
    return slot


def retire(core, now, width=4):
    """Run the core's retire walk at ``now``; returns the entries retired."""
    before = core.total_retired
    core._flat_walk(now, width)
    return core.total_retired - before


class TestCheckGate:
    def test_interval_closes_at_interval_length(self, core):
        gate = install(core, fingerprint_interval=2)
        gate.offer_f(core, make_entry(core, 0), now=0)
        assert gate.peek_closed() is None
        gate.offer_f(core, make_entry(core, 1), now=1)
        record = gate.peek_closed()
        assert record is not None and record.count == 2

    def test_serializing_closes_interval_early(self, core):
        gate = install(core, fingerprint_interval=50)
        gate.offer_f(core, make_entry(core, 0), now=0)
        gate.offer_f(core, make_entry(core, 1, op=Op.MEMBAR, result=None), now=1)
        record = gate.peek_closed()
        assert record is not None and record.count == 2

    def test_halt_closes_interval(self, core):
        gate = install(core, fingerprint_interval=50)
        gate.offer_f(core, make_entry(core, 0, op=Op.HALT, result=None), now=0)
        record = gate.peek_closed()
        assert record is not None and record.has_halt

    def test_entries_wait_for_clear(self, core):
        gate = install(core, fingerprint_interval=1)
        offer(core, 0, now=0, result=7)
        assert retire(core, now=100) == 0
        record = gate.pop_closed()
        gate.clear_interval(record.index, retire_time=10)
        assert retire(core, now=9) == 0
        assert retire(core, now=10) == 1
        assert core.arf.read(1) == 7 and not core.rob

    def test_injected_entries_transparent(self, core):
        gate = install(core, fingerprint_interval=1, comparison_latency=10)
        offer(core, 0, now=0)
        offer(core, 1, now=0, op=Op.NOP, injected=True, result=None)
        # The injected instruction cannot retire past the unchecked user entry.
        assert retire(core, now=100) == 0
        record = gate.pop_closed()
        assert record.count == 1  # handler not fingerprinted
        gate.clear_interval(record.index, retire_time=5)
        assert retire(core, now=5) == 2
        assert (core.user_retired, core.injected_retired) == (1, 1)

    def test_injected_serializing_pays_comparison_latency(self, core):
        """Handler traps/MMU ops stall a full comparison latency (Sec 4.4)."""
        install(core, fingerprint_interval=1, comparison_latency=10)
        offer(core, 0, now=20, op=Op.TRAP, injected=True, result=None)
        assert retire(core, now=29) == 0
        assert retire(core, now=30) == 1

    def test_single_step_closes_every_instruction(self, core):
        gate = install(core, fingerprint_interval=50)
        gate.single_step = True
        gate.offer_f(core, make_entry(core, 0), now=0)
        assert gate.peek_closed() is not None

    def test_timeout_close(self, core):
        gate = install(core, fingerprint_interval=10)
        gate.offer_f(core, make_entry(core, 0), now=0)
        gate.maybe_timeout_close(now=5)
        assert gate.peek_closed() is None
        gate.maybe_timeout_close(now=100)
        record = gate.peek_closed()
        assert record is not None and record.count == 1

    def test_flush_resets_everything(self, core):
        gate = install(core, fingerprint_interval=1)
        offer(core, 0, now=0)
        gate.clear_interval(gate.pop_closed().index, retire_time=3)
        core.flush_for_recovery(resume_pc=0, now=4, penalty=0)  # flushes the gate
        assert gate.peek_closed() is None
        assert retire(core, now=100) == 0 and core.check_backlog == 0
        # Interval numbering restarts from zero after recovery, and the
        # restarted interval 0 waits for its own comparison.
        offer(core, 1, now=5)
        assert gate.peek_closed().index == 0
        assert retire(core, now=100) == 0

    def test_squashed_entries_skipped(self, core):
        gate = install(core, fingerprint_interval=1)
        offer(core, 0, now=0)
        record = gate.pop_closed()
        gate.clear_interval(record.index, retire_time=0)
        core._flat_squash_to(0)
        assert retire(core, now=10) == 0
        assert core.check_backlog == 0 and core.user_retired == 0

    def test_identical_streams_produce_identical_records(self, core):
        config = RedundancyConfig(fingerprint_interval=3)
        gate_a = CheckGate(config, core._f_cap)
        gate_b = CheckGate(config, core._f_cap)
        for gate in (gate_a, gate_b):
            for seq in range(6):
                gate.offer_f(core, make_entry(core, seq, result=seq * 7), now=seq)
        while True:
            a, b = gate_a.peek_closed(), gate_b.peek_closed()
            if a is None:
                assert b is None
                break
            assert (a.fingerprint, a.count, a.index) == (b.fingerprint, b.count, b.index)
            gate_a.pop_closed()
            gate_b.pop_closed()

    def test_different_values_produce_different_fingerprints(self, core):
        config = RedundancyConfig(fingerprint_interval=1)
        gate_a = CheckGate(config, core._f_cap)
        gate_b = CheckGate(config, core._f_cap)
        gate_a.offer_f(core, make_entry(core, 0, result=1), now=0)
        gate_b.offer_f(core, make_entry(core, 0, result=2), now=0)
        assert gate_a.peek_closed().fingerprint != gate_b.peek_closed().fingerprint


class TestStrictGate:
    def test_self_clears_after_latency(self, core):
        install(core, StrictCheckGate, fingerprint_interval=1, comparison_latency=10)
        offer(core, 0, now=5)
        assert retire(core, now=14) == 0
        assert retire(core, now=15) == 1

    def test_zero_latency_clears_immediately(self, core):
        install(core, StrictCheckGate, fingerprint_interval=1, comparison_latency=0)
        offer(core, 0, now=5)
        assert retire(core, now=5) == 1

    def test_interval_batching(self, core):
        install(core, StrictCheckGate, fingerprint_interval=4, comparison_latency=10)
        for seq in range(3):
            offer(core, seq, now=seq)
        assert retire(core, now=50, width=8) == 0  # interval still open
        offer(core, 3, now=3)
        assert retire(core, now=13, width=8) == 4


@pytest.mark.parametrize(
    "gate_class", [ImmediateGate, StrictCheckGate], ids=["immediate", "strict-check"]
)
def test_every_offer_retires(core, gate_class):
    """A full-width offer stream that wraps the ring many times over:
    the retire walk retires every offered instruction, once."""
    if gate_class is ImmediateGate:
        core.gate = ImmediateGate()
    else:
        install(core, StrictCheckGate, fingerprint_interval=8, comparison_latency=10)
    seq = 0
    for now in range(200):
        for _ in range(min(4, core._f_cap - len(core.rob))):
            offer(core, seq, now)
            seq += 1
        retire(core, now)
    core.gate.close_open(200)  # the open interval's tail
    core.drain_cleared(210)
    assert seq > 10 * core._f_cap
    assert core.total_retired == seq
    assert not core.rob and core._n_check == 0


def _long_run(policy: str, fault_interval: int = 0) -> tuple[dict, int, set]:
    """10k cycles of a dual one-pair compute kernel at interval length 1.

    Returns the Stats snapshot, the vocal gate's closed intervals, and
    every retire-time list length any gate had at a 500-cycle boundary,
    in ring capacities.
    """
    config = SMALL.with_redundancy(
        mode=Mode.REUNION, fingerprint_interval=1
    ).with_protection(parse_policy(policy))
    system = CMPSystem(
        config, ComputeKernel().programs(1), options=SimOptions(execution="dual")
    )
    if fault_interval:
        FaultInjector(interval=fault_interval, seed=5).attach(system.cores[1])
    sizes = set()
    for _ in range(20):
        system.run(500)
        sizes.update(len(core.gate.retire_at) / core._f_cap for core in system.cores)
    assert not system.failed
    if fault_interval:
        assert system.recoveries() >= 1  # flushes interleave with the wrap
    snapshot = dict(system.collect_stats().snapshot())
    return snapshot, system.vocal_cores[0].gate.intervals_closed, sizes


@pytest.mark.parametrize("policy", ["full", "interval-sampled:0.5"])
class TestRetireTimeSweep:
    """Retire times live in a fixed list indexed by interval number.

    Every close resets the next interval's slot, so the list sweeps
    itself: its size, not the run's length, bounds a gate's memory.
    """

    def test_bounded_on_a_long_run(self, policy):
        _, closed, sizes = _long_run(policy)
        assert sizes == {check_stage.RETIRE_WINDOW_ROBS}
        # The list wrapped many times over.
        assert closed > 100 * check_stage.RETIRE_WINDOW_ROBS * SMALL.core.rob_size

    @pytest.mark.parametrize("fault_interval", [0, 5_000])
    def test_list_size_is_invisible(self, policy, fault_interval, monkeypatch):
        default, _, _ = _long_run(policy, fault_interval)
        monkeypatch.setattr(
            check_stage, "RETIRE_WINDOW_ROBS", 32 * check_stage.RETIRE_WINDOW_ROBS
        )
        larger, _, sizes = _long_run(policy, fault_interval)
        assert sizes == {check_stage.RETIRE_WINDOW_ROBS}
        assert larger == default
