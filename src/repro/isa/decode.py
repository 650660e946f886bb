"""Pre-decoded instruction tables: the structure-of-arrays front end.

The timing model decodes each static instruction millions of times.  The
:class:`~repro.isa.instructions.Instruction` flags (PR 2) removed the
enum set-membership cost, but the hot loop still chases one attribute
per predicate per dynamic instruction.  This module decodes a
:class:`~repro.isa.program.Program` *once* into flat parallel arrays —
one int bitmask plus the register/immediate/target fields per static
instruction — so fetch and dispatch index tables instead of touching
``Instruction`` objects.

The bitmask (``F_*`` bits) is the single source of truth for the
pipeline's flat ring (see ``repro.pipeline.ooo_core``).
:func:`flags_of` derives the mask from an
``Instruction``'s own precomputed flags, so a decode row can never
disagree with the object it summarizes — ``tests/isa/test_decode.py``
pins the equivalence over every opcode and field combination.

Two bits are *dynamic*, not static properties of the opcode:

* ``F_SER`` folds in the consistency model: under sequential
  consistency every store serializes retirement (Section 5.5), so the
  mask depends on ``sc_mode`` and tables are cached per mode.
* ``F_WINDOW_END`` marks the instructions whose fetch ends a mirror
  window (memory, serializing, HALT — see ``repro.core.mirror``).

Tables are cached on the (mutable) ``Program`` instance, keyed by
``sc_mode``; every core running the same program shares one table set.

Instructions the core injects (the software-TLB fast-miss handler and
the replicated interrupt handler) get rows too, appended past the
wild-PC row ``n`` on first use (:meth:`DecodedProgram.row_of`), so every
in-flight instruction carries a row and the pipeline has one front end.
"""

from __future__ import annotations

from repro.isa.instructions import Instruction
from repro.isa.opcodes import Op
from repro.isa.program import Program

# -- classification bits (stable; the pipeline tests these with `&`) --------
F_ALU = 1 << 0
F_MEM = 1 << 1
F_LOAD = 1 << 2
F_STORE = 1 << 3  # plain Op.STORE only: the store-buffer occupants.
#: Atomics (ATOMIC/CAS) also write memory (``inst.is_store`` is True for
#: them) but never enter the store buffer and always serialize — the
#: pipeline routes them through the serializing path via F_SER, so
#: F_STORE deliberately excludes them to match ``op is Op.STORE``
#: exactly.
F_ATOMIC = 1 << 4
F_BRANCH = 1 << 5  # conditional branches only
F_JUMP = 1 << 6
F_CONTROL = 1 << 7  # branch | jump | halt
F_HALT = 1 << 8
F_SER = 1 << 9  # serializing *in this consistency mode*
F_WRITES = 1 << 10
F_IMM_FORM = 1 << 11
F_MUL = 1 << 12
F_WINDOW_END = 1 << 13  # fetching this ends a mirror window
F_NEEDS1 = 1 << 14  # dispatch must capture rs1
F_NEEDS2 = 1 << 15  # dispatch must capture rs2


def flags_of(inst: Instruction, sc_mode: bool) -> int:
    """The F_* bitmask of one instruction under one consistency mode.

    Derived from the ``Instruction``'s own precomputed flags — the same
    predicates ``_dispatch_one`` historically evaluated per dynamic
    instruction — so the mask and the object view cannot diverge.
    """
    op = inst.op
    flags = 0
    if inst.is_alu:
        flags |= F_ALU
    if inst.is_mem:
        flags |= F_MEM
    if inst.is_load:
        flags |= F_LOAD
    if op is Op.STORE:
        flags |= F_STORE
    if inst.is_atomic:
        flags |= F_ATOMIC
    if inst.is_branch:
        flags |= F_BRANCH
    if op is Op.JUMP:
        flags |= F_JUMP
    if inst.is_control:
        flags |= F_CONTROL
    if op is Op.HALT:
        flags |= F_HALT
    if inst.is_serializing or (sc_mode and inst.is_store):
        flags |= F_SER
    if inst.writes_reg:
        flags |= F_WRITES
    if inst.imm_form:
        flags |= F_IMM_FORM
    if op is Op.MUL:
        flags |= F_MUL
    if inst.is_mem or inst.is_serializing or op is Op.HALT:
        flags |= F_WINDOW_END
    # Operand-capture predicates, verbatim from the dispatch stage.
    if inst.rs1 != 0 and (inst.is_alu or inst.is_mem or inst.is_branch):
        flags |= F_NEEDS1
    if inst.rs2 != 0 and (
        (inst.is_alu and not inst.imm_form)
        or inst.is_branch
        or op is Op.STORE
        or op is Op.ATOMIC
        or op is Op.CAS
    ):
        flags |= F_NEEDS2
    return flags


class DecodedProgram:
    """Flat parallel arrays over a program's static instructions.

    Row ``pc`` (for ``0 <= pc < n``) describes ``instructions[pc]``; row
    ``n`` is the out-of-range HALT that :meth:`Program.fetch` substitutes
    for wild PCs, so ``row = pc if 0 <= pc < n else n`` is branch-cheap
    and total.  Rows past ``n`` describe injected instructions
    (:meth:`row_of`); no PC maps to them.  All arrays are plain Python
    lists of ints (or ``Instruction`` references in :attr:`inst`): list
    indexing beats numpy scalar access for single-row reads, and the hot
    loop reads one row at a time.  The lists only ever grow in place, so
    references the pipeline hoists stay current.
    """

    __slots__ = (
        "n", "sc_mode", "flags", "rs1", "rs2", "rd", "imm", "target", "inst",
        "kern", "btake", "_injected",
    )

    def __init__(self, program: Program, sc_mode: bool) -> None:
        rows = list(program.instructions)
        rows.append(program.fetch(len(rows)))  # the out-of-range HALT
        self.n = len(rows) - 1
        self.sc_mode = sc_mode
        self.flags = []
        self.rs1 = []
        self.rs2 = []
        self.rd = []
        self.imm = []
        self.target = []
        self.inst = []
        self.kern = []
        self.btake = []
        self._injected: dict[Instruction, int] = {}
        self._extend(rows)

    def _extend(self, rows: list[Instruction]) -> None:
        from repro.isa.semantics import ALU_KERNELS, BRANCH_KERNELS

        sc_mode = self.sc_mode
        self.flags += [flags_of(inst, sc_mode) for inst in rows]
        self.rs1 += [inst.rs1 for inst in rows]
        self.rs2 += [inst.rs2 for inst in rows]
        self.rd += [inst.rd for inst in rows]
        self.imm += [inst.imm for inst in rows]
        self.target += [inst.target for inst in rows]
        self.inst += rows
        # Pre-bound execute kernels (see repro.isa.semantics): one
        # ``kernel(a, b)`` closure per ALU row with the immediate baked
        # in, one shared resolver per branch row; None elsewhere.
        self.kern += [
            ALU_KERNELS[inst.op](inst.imm) if inst.is_alu else None
            for inst in rows
        ]
        self.btake += [BRANCH_KERNELS.get(inst.op) for inst in rows]

    def row_of(self, inst: Instruction) -> int:
        """The row of an injected instruction, appended past ``n``.

        Memoized by value (``Instruction`` is frozen), so equal
        instructions share a row and the table stays bounded by the
        handlers' distinct instructions: TRAP, MMUOP, the interrupt
        vector loads and two TSB loads per TSB line.
        """
        row = self._injected.get(inst)
        if row is None:
            row = self._injected[inst] = len(self.inst)
            self._extend([inst])
        return row


def decode_program(program: Program, sc_mode: bool) -> DecodedProgram:
    """Return the (cached) decoded tables for ``program`` under ``sc_mode``.

    The cache lives on the ``Program`` instance itself, so all cores of
    a system — and repeated systems over the same program object — share
    one table set per consistency mode.
    """
    cache = getattr(program, "_decoded_cache", None)
    if cache is None:
        cache = {}
        program._decoded_cache = cache  # type: ignore[attr-defined]
    decoded = cache.get(sc_mode)
    if decoded is None:
        decoded = DecodedProgram(program, sc_mode)
        cache[sc_mode] = decoded
    return decoded
