"""Decode-table equivalence: the F_* bitmask vs the Instruction it summarizes.

The pipeline's flat ring trusts one int bitmask per static instruction
instead of chasing ``Instruction`` attributes per dynamic instance.
These tests pin the mask to the object view over every opcode and
operand shape, in both consistency modes, so the decoded hot path and
the cold paths that read ``Instruction`` predicates (fault targeting,
bandwidth metering) can never read different classifications for the
same instruction.  Injected handler instructions decode into rows past
the program's, under the same checks.
"""

from __future__ import annotations

import pytest

from repro.core.pair import default_interrupt_handler
from repro.isa.decode import (
    F_ALU,
    F_ATOMIC,
    F_BRANCH,
    F_CONTROL,
    F_HALT,
    F_IMM_FORM,
    F_JUMP,
    F_LOAD,
    F_MEM,
    F_MUL,
    F_NEEDS1,
    F_NEEDS2,
    F_SER,
    F_STORE,
    F_WINDOW_END,
    F_WRITES,
    DecodedProgram,
    decode_program,
    flags_of,
)
from repro.isa.instructions import Instruction
from repro.isa.opcodes import Op
from repro.isa.program import Program
from repro.pipeline.tlb_handler import TSB_LINES, handler_sequence


def _corpus() -> list[Instruction]:
    """Every opcode crossed with the operand shapes that matter.

    rd/rs1/rs2 each toggle between the hard-wired zero register and a
    real one — ``writes_reg`` and the operand-capture predicates all
    hinge on the zero cases.
    """
    out = []
    for op in Op:
        for rd in (0, 3):
            for rs1 in (0, 1):
                for rs2 in (0, 2):
                    out.append(
                        Instruction(op, rd=rd, rs1=rs1, rs2=rs2, imm=5, target=1)
                    )
    return out


@pytest.mark.parametrize("sc_mode", [False, True])
def test_flags_match_instruction_predicates(sc_mode: bool) -> None:
    for inst in _corpus():
        f = flags_of(inst, sc_mode)
        op = inst.op
        assert bool(f & F_ALU) == inst.is_alu, inst
        assert bool(f & F_MEM) == inst.is_mem, inst
        assert bool(f & F_LOAD) == inst.is_load, inst
        assert bool(f & F_ATOMIC) == inst.is_atomic, inst
        assert bool(f & F_BRANCH) == inst.is_branch, inst
        assert bool(f & F_CONTROL) == inst.is_control, inst
        assert bool(f & F_JUMP) == (op is Op.JUMP), inst
        assert bool(f & F_HALT) == (op is Op.HALT), inst
        assert bool(f & F_WRITES) == inst.writes_reg, inst
        assert bool(f & F_IMM_FORM) == inst.imm_form, inst
        assert bool(f & F_MUL) == (op is Op.MUL), inst
        assert bool(f & F_SER) == (
            inst.is_serializing or (sc_mode and inst.is_store)
        ), inst
        assert bool(f & F_WINDOW_END) == (
            inst.is_mem or inst.is_serializing or op is Op.HALT
        ), inst


def test_store_bit_excludes_atomics() -> None:
    """F_STORE gates store-buffer entry: plain STOREs only.

    Atomics report ``is_store`` (they write memory) but never occupy the
    store buffer — they serialize instead.  The mask must keep the two
    routes as distinct as an ``op is Op.STORE`` check.
    """
    store = flags_of(Instruction(Op.STORE, rs1=1, rs2=2), sc_mode=False)
    assert store & F_STORE
    for op in (Op.ATOMIC, Op.CAS):
        f = flags_of(Instruction(op, rd=3, rs1=1, rs2=2), sc_mode=False)
        assert f & F_ATOMIC
        assert not f & F_STORE
        assert f & F_SER  # atomics always serialize


def test_writes_requires_nonzero_rd() -> None:
    """r0 is hard-wired: an rd=0 destination must not set F_WRITES."""
    assert flags_of(Instruction(Op.ADD, rd=3, rs1=1, rs2=2), False) & F_WRITES
    assert not flags_of(Instruction(Op.ADD, rd=0, rs1=1, rs2=2), False) & F_WRITES
    # Non-writing opcodes never set it, rd notwithstanding.
    assert not flags_of(Instruction(Op.STORE, rd=0, rs1=1, rs2=2), False) & F_WRITES


@pytest.mark.parametrize("sc_mode", [False, True])
def test_sc_mode_store_serialization(sc_mode: bool) -> None:
    """Under SC every store serializes retirement (Section 5.5)."""
    store = flags_of(Instruction(Op.STORE, rs1=1, rs2=2), sc_mode)
    assert bool(store & F_SER) == sc_mode
    # Loads never serialize in either mode; MEMBAR always does.
    assert not flags_of(Instruction(Op.LOAD, rd=3, rs1=1), sc_mode) & F_SER
    assert flags_of(Instruction(Op.MEMBAR), sc_mode) & F_SER


@pytest.mark.parametrize("sc_mode", [False, True])
def test_operand_capture_predicates(sc_mode: bool) -> None:
    """F_NEEDS1/F_NEEDS2 mirror the dispatch stage's capture conditions."""
    for inst in _corpus():
        f = flags_of(inst, sc_mode)
        needs1 = inst.rs1 != 0 and (inst.is_alu or inst.is_mem or inst.is_branch)
        needs2 = inst.rs2 != 0 and (
            (inst.is_alu and not inst.imm_form)
            or inst.is_branch
            or inst.op is Op.STORE
            or inst.op is Op.ATOMIC
            or inst.op is Op.CAS
        )
        assert bool(f & F_NEEDS1) == needs1, inst
        assert bool(f & F_NEEDS2) == needs2, inst


def _program() -> Program:
    return Program(
        instructions=[
            Instruction(Op.MOVI, rd=1, imm=7),
            Instruction(Op.ADD, rd=2, rs1=1, rs2=1),
            Instruction(Op.STORE, rs1=1, rs2=2),
            Instruction(Op.HALT),
        ]
    )


def test_decoded_rows_match_per_instruction_flags() -> None:
    program = _program()
    decoded = DecodedProgram(program, sc_mode=False)
    assert decoded.n == len(program.instructions)
    for pc, inst in enumerate(program.instructions):
        assert decoded.flags[pc] == flags_of(inst, False)
        assert decoded.rs1[pc] == inst.rs1
        assert decoded.rs2[pc] == inst.rs2
        assert decoded.rd[pc] == inst.rd
        assert decoded.imm[pc] == inst.imm
        assert decoded.target[pc] == inst.target
        assert decoded.inst[pc] is inst


def test_out_of_range_row_is_halt() -> None:
    """Row ``n`` must describe the wild-PC HALT Program.fetch substitutes."""
    program = _program()
    decoded = DecodedProgram(program, sc_mode=False)
    fallback = decoded.inst[decoded.n]
    assert fallback.op is Op.HALT
    assert decoded.flags[decoded.n] & F_HALT


def test_decode_cache_is_per_program_and_mode() -> None:
    program = _program()
    a = decode_program(program, sc_mode=False)
    assert decode_program(program, sc_mode=False) is a  # cached
    b = decode_program(program, sc_mode=True)
    assert b is not a  # SC changes F_SER on the store row
    assert b.flags[2] & F_SER
    assert not a.flags[2] & F_SER
    other = _program()
    assert decode_program(other, sc_mode=False) is not a  # per-instance


@pytest.mark.parametrize("sc_mode", [False, True])
def test_injected_rows_sit_past_the_program(sc_mode: bool) -> None:
    """Handler instructions decode into memoized rows no PC can reach."""
    program = _program()
    decoded = DecodedProgram(program, sc_mode)
    handlers = [handler_sequence(page) for page in (0, 1, 7, 513, TSB_LINES + 7)]
    handlers.append(default_interrupt_handler())
    distinct = set()
    for handler in handlers:
        for inst in handler:
            row = decoded.row_of(inst)
            assert row > decoded.n, inst
            assert decoded.flags[row] == flags_of(inst, sc_mode), inst
            assert decoded.rs1[row] == inst.rs1
            assert decoded.rs2[row] == inst.rs2
            assert decoded.rd[row] == inst.rd
            assert decoded.imm[row] == inst.imm
            assert decoded.target[row] == inst.target
            assert decoded.inst[row] == inst
            distinct.add(inst)
    # Equal instructions share a row: one TRAP and one MMUOP row serve
    # every handler, and pages on one TSB line share their loads' rows.
    assert len(decoded.inst) == decoded.n + 1 + len(distinct)
    assert [decoded.row_of(inst) for inst in handler_sequence(7)] == [
        decoded.row_of(inst) for inst in handler_sequence(TSB_LINES + 7)
    ]
    # The program's own rows are untouched.
    for pc, inst in enumerate(program.instructions):
        assert decoded.inst[pc] is inst
    assert decoded.inst[decoded.n].op is Op.HALT
