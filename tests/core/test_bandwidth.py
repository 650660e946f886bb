"""Unit tests for comparison-bandwidth accounting (Section 2.4)."""

from types import SimpleNamespace

from repro.core.bandwidth import BandwidthMeter, ends_dependence_chain, update_bits
from repro.isa import Instruction, Op, assemble
from tests.pipeline.helpers import build_core, run_to_halt


def entry_for(inst, **fields):
    """A retired-entry record with the fields the meter reads."""
    values = dict(
        result=None, addr=None, store_value=None, actual_next=None, consumed=False
    )
    values.update(fields)
    return SimpleNamespace(inst=inst, **values)


class TestUpdateBits:
    def test_alu_result(self):
        entry = entry_for(Instruction(Op.ADD, rd=1, rs1=2, rs2=3), result=5)
        assert update_bits(entry) == 64

    def test_store_addr_and_value(self):
        entry = entry_for(
            Instruction(Op.STORE, rs1=1, rs2=2), addr=0x100, store_value=9
        )
        assert update_bits(entry) == 128

    def test_branch_target(self):
        entry = entry_for(Instruction(Op.BEQ, rs1=1, rs2=2, target=0), actual_next=3)
        assert update_bits(entry) == 64

    def test_load_counts_register_only(self):
        entry = entry_for(Instruction(Op.LOAD, rd=1, rs1=2), result=7, addr=0x100)
        assert update_bits(entry) == 64

    def test_nop_zero(self):
        assert update_bits(entry_for(Instruction(Op.NOP))) == 0


class TestChainEnds:
    def test_store_always_ends(self):
        assert ends_dependence_chain(entry_for(Instruction(Op.STORE, rs1=1, rs2=2)))

    def test_consumed_result_does_not_end(self):
        entry = entry_for(Instruction(Op.ADD, rd=1, rs1=2, rs2=3), consumed=True)
        assert not ends_dependence_chain(entry)

    def test_unconsumed_result_ends(self):
        entry = entry_for(Instruction(Op.ADD, rd=1, rs1=2, rs2=3), consumed=False)
        assert ends_dependence_chain(entry)


class TestMeterOnRealRun:
    def test_chain_comparison_saves_bandwidth(self):
        program = assemble(
            """
            movi r1, 50
            movi r2, 0
            loop:
                add r3, r1, r1      ; consumed by r4
                add r4, r3, r3      ; consumed by r2
                add r2, r2, r4      ; chain continues into next iteration
                addi r1, r1, -1
                bne r1, r0, loop
            halt
            """
        )
        core, _, _ = build_core(program)
        meter = BandwidthMeter()
        meter.attach(core)
        run_to_halt(core)
        assert meter.instructions == core.user_retired
        assert 0 < meter.chain_bits_per_instr < meter.direct_bits_per_instr
        summary = meter.summary()
        assert summary["fingerprint"] == 16.0

    def test_fingerprint_interval_scales(self):
        meter = BandwidthMeter(fingerprint_bits=16, fingerprint_interval=50)
        assert meter.fingerprint_bits_per_instr == 16 / 50
