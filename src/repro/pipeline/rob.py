"""Dynamic instruction records — the reorder buffer (RUU) entries.

A :class:`DynInstr` tracks one in-flight instruction from dispatch to
retirement.  Operand values are captured eagerly at dispatch when the
producer has completed, or filled in later by the producer's wake-up.
"""

from __future__ import annotations

from repro.isa.instructions import Instruction


class DynState:
    """Lifecycle states of a dynamic instruction (plain ints for speed)."""

    DISPATCHED = 0  # in ROB, waiting for operands
    ISSUED = 1  # executing
    COMPLETED = 2  # result available, waiting to enter check/retire
    IN_CHECK = 3  # offered to the retire gate (fingerprint sent)
    RETIRED = 4  # architectural state updated


class DynInstr:
    """One reorder-buffer entry."""

    __slots__ = (
        "seq",
        "pc",
        "inst",
        "injected",
        "state",
        "squashed",
        "pending",
        "val1",
        "val2",
        "dependents",
        "result",
        "addr",
        "store_value",
        "predicted_next",
        "actual_next",
        "complete_cycle",
        "fill_addr",
        "handler_resume",
        "serializing",
        "tlb_missed",
        "was_sync",
        "consumed",
        "faulted",
        "flags",
        "wait_on",
        "prev_producer",
    )

    def __init__(self, seq: int, pc: int, inst: Instruction, injected: bool = False) -> None:
        self.seq = seq
        self.pc = pc
        self.inst = inst
        self.injected = injected
        self.state = DynState.DISPATCHED
        self.squashed = False
        self.pending = 0  # unresolved source operands
        self.val1: int | None = None  # rs1 value
        self.val2: int | None = None  # rs2 value
        self.dependents: list[tuple["DynInstr", int]] = []
        self.result: int | None = None
        self.addr: int | None = None  # effective address (memory ops)
        self.store_value: int | None = None
        self.predicted_next: int | None = None
        self.actual_next: int | None = None
        self.complete_cycle: int = -1
        self.fill_addr: int | None = None  # TLB fill on handler completion
        self.handler_resume: int | None = None  # injected-sequence bookkeeping
        self.serializing = False  # dynamic (covers SC store semantics)
        self.tlb_missed = False
        self.was_sync = False  # completed via a synchronizing request
        self.consumed = False  # some younger instruction read this result
        self.faulted = False  # carries an injected upset (see core/faults.py)
        self.flags = 0  # F_* decode mask (SoA hot loop; see isa/decode.py)
        #: A load's memoized disambiguation blocker: the youngest older
        #: store whose address was unresolved at the last issue attempt.
        #: While it stays unresolved (and unsquashed) a rescan of the
        #: store entries provably returns "blocked" again — every store
        #: between it and the load had a resolved non-matching address
        #: (addresses are immutable once set) and dispatch order means no
        #: new older stores can appear — so issue retries skip the scan.
        self.wait_on: DynInstr | None = None
        #: For register writers: the rename-map entry this one displaced
        #: at dispatch (None if the register was unmapped).  Squash
        #: rollback restores it; retirement clears it so retired entries
        #: never chain-retain their predecessors.
        self.prev_producer: DynInstr | None = None

    def set_src(self, slot: int, value: int) -> None:
        """Producer wake-up: fill operand ``slot`` (1 or 2)."""
        if slot == 1:
            self.val1 = value
        else:
            self.val2 = value
        self.pending -= 1

    @property
    def ready(self) -> bool:
        return self.pending == 0 and self.state == DynState.DISPATCHED

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = "I" if self.injected else ""
        flags += "X" if self.squashed else ""
        return f"<#{self.seq}@{self.pc} {self.inst} s={self.state}{flags}>"
