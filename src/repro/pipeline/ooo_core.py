"""The out-of-order core timing model.

A simplified but value-accurate out-of-order pipeline in the style of the
paper's baseline (Section 4.1, Figure 3): in-order fetch/decode into a
register-update-unit (ROB), out-of-order issue and execution, and
in-order retirement through a pluggable *retire gate* that implements
non-redundant, strict, or Reunion checking.

Key behaviours the evaluation depends on:

* **Value accuracy** — operands and load values are real; a mute core fed
  a stale value computes and branches differently, which is how input
  incoherence becomes a detectable fingerprint mismatch.
* **Serializing instructions** (traps, membars, atomics, non-idempotent
  MMU ops; every store under SC) execute only when they are the oldest
  instruction in the machine — i.e. after all older instructions have
  been compared and retired — and no younger instruction may begin
  execution until they retire (Section 4.4).
* **Store buffering** — stores sit speculatively in the ROB, move to a
  non-speculative drain queue at retirement (after checking), and drain
  to the L1 in order; loads forward from both.
* **Software TLB misses** inject the UltraSPARC-style fast-miss handler
  into the pipeline (see :mod:`repro.pipeline.tlb_handler`).
* **Pair coordination hooks** — in Reunion mode, atomics (and loads
  during single-step re-execution) park in ``sync_request`` until the
  pair controller performs the synchronizing access.
"""

from __future__ import annotations

import heapq
from collections import deque
from operator import attrgetter
from typing import Callable

from repro.isa.decode import (
    F_ALU,
    F_BRANCH,
    F_CONTROL,
    F_HALT,
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
    decode_program,
    flags_of,
)
from repro.isa.instructions import Instruction
from repro.isa.opcodes import Op
from repro.isa.program import Program
from repro.isa.registers import WORD_MASK, RegisterFile
from repro.isa.semantics import (
    alu_result,
    atomic_result,
    branch_taken,
    effective_address,
)
from repro.memory.port import CoreMemPort
from repro.pipeline.branch_predictor import BranchPredictor
from repro.pipeline.flat import M_CONSUMED, M_INJECTED, FlatView
from repro.pipeline.gates import NEVER, ImmediateGate, RetireGate
from repro.pipeline.rob import DynInstr, DynState
from repro.pipeline.tlb_handler import handler_sequence
from repro.sim.config import Consistency, SystemConfig, TLBMode

#: Sort key for the ready list (program order); hoisted out of _do_issue.
_BY_SEQ = attrgetter("seq")

#: Serializing-or-HALT: deferred to _issue_serializing by both loops.
_F_SER_HALT = F_SER | F_HALT

# A fetched instruction waiting for dispatch is a plain 7-tuple (cheaper
# to build and copy than a slotted object at fetch-queue rates):
#   (ready_cycle, pc, inst, injected, predicted_next, fill_addr, row)
# ``row`` indexes the pre-decoded tables (see repro.isa.decode) and is
# -1 for injected instructions and for entries produced by the object
# reference loop, which does not consult the tables.


class OoOCore:
    """One physical core: frontend, ROB, execution, store buffer, retire."""

    def __init__(
        self,
        core_id: int,
        config: SystemConfig,
        program: Program,
        port: CoreMemPort,
        gate: RetireGate | None = None,
        synthetic_itlb: Callable[[int], bool] | None = None,
    ) -> None:
        self.core_id = core_id
        self.config = config
        self.core_cfg = config.core
        #: Issue-stage width.  Equals ``core_cfg.width`` except on a
        #: "little" mute checking a full vocal (a MEEK-style reduced
        #: checker; see repro.sim.config.ProtectionPolicy): per-pair
        #: protection policies narrow *issue* only, while fetch/dispatch/
        #: retire keep the configured width so fingerprints still cover
        #: every instruction.  Result-affecting — always derived from the
        #: hashed config, never from SimOptions.  Set via
        #: :meth:`set_issue_width` so the SoA hoist stays coherent.
        self.issue_width = config.core.width
        self.program = program
        self.port = port
        self.gate: RetireGate = gate if gate is not None else ImmediateGate()
        self.synthetic_itlb = synthetic_itlb
        self.sc_mode = config.consistency is Consistency.SC
        self.sw_tlb = config.tlb.mode is TLBMode.SOFTWARE

        self.arf = RegisterFile()
        for index, value in program.initial_regs.items():
            self.arf.write(index, value)

        # Frontend.
        self.pc = program.entry
        self.fetch_queue: deque[tuple] = deque()
        self.injection: deque[tuple[Instruction, int | None]] = deque()
        self._injection_resume: int | None = None
        self.predictor = BranchPredictor(self.core_cfg.branch_predictor_entries)
        self.fetch_stalled = False  # set after fetching HALT

        # Backend.
        self.rob: deque[DynInstr] = deque()
        self.rename: dict[int, DynInstr] = {}
        self.ready: list[DynInstr] = []
        self.completions: list[tuple[int, int, DynInstr]] = []  # heap
        self._store_entries: deque[DynInstr] = deque()
        self._ser_heap: list[tuple[int, DynInstr]] = []
        self._next_seq = 0

        # Store buffer: speculative stores live in the ROB; checked stores
        # wait in `drain` and leave one at a time through the L1 write port.
        self.drain: deque[tuple[int, int]] = deque()
        self.sb_count = 0
        self._drain_inflight: tuple[int, int, int] | None = None  # (addr, val, done)

        # Pair-coordination state (Reunion).
        self.pair_sync_atomics = False  # pair controller flips this on
        self.single_step = False
        self.sync_request: DynInstr | None = None
        self.resume_normal_after: DynInstr | None = None
        #: Owning LogicalPair, if any (lets the fault injector disable
        #: the replay fast path when it hooks a paired core).
        self.pair = None

        # Structure-of-arrays hot loop (REPRO_HOTLOOP=soa, the default).
        # ``use_soa_hotloop`` pre-decodes the program into flat tables
        # (repro.isa.decode) and rebinds ``step`` to ``_step_soa``; the
        # object loop stays as the bit-identical reference.
        self._soa = False
        self._decoded = None

        # Mirror window (see repro.core.mirror).  On the vocal,
        # ``mirror_watch`` arms fetch-side detection of the first
        # instruction that could end the pair-symmetric window, and
        # ``mirror_trigger`` latches that detection for the pair
        # controller.  On the mute, ``mirror_passive`` tells the system
        # loop not to step (or poll) this core at all.
        self.mirror_watch = False
        self.mirror_trigger = False
        self.mirror_passive = False

        # External interrupts: (service at user-instruction count, handler).
        # Both cores of a pair schedule the same count, so they service at
        # an identical point in the retired instruction stream (Sec. 4.3).
        self._interrupts: deque[tuple[int, list[Instruction]]] = deque()
        self.interrupts_serviced = 0

        self.halted = False
        self.stall_fetch_until = 0
        self._check_pending = 0  # offered-but-unretired prefix of the ROB
        #: The not-yet-offered suffix of the ROB (same entries, same
        #: order).  Kept separately so the per-cycle check-boundary tests
        #: in _do_retire / _issue_serializing / next_event are O(1) head
        #: peeks instead of O(depth) deque indexing.
        self._unchecked: deque[DynInstr] = deque()

        #: Per-core skip cache for the event kernel: every cycle strictly
        #: before this one is a proven no-op for this core (same contract
        #: as :meth:`next_event`, whose result it caches).  Refreshed
        #: after each real step; reset to 0 by anything that mutates core
        #: state from outside ``step`` — the pair controller (comparison
        #: clears, sync servicing, recovery, mirror exit) and the
        #: external APIs (``schedule_interrupt``, ``complete_sync``,
        #: ``drain_cleared``).  The naive kernel never reads it.
        self._skip_until = 0

        #: Optional fault-injection hook, called with each entry right
        #: after its result is computed (see repro.core.faults).
        self.fault_hook: Callable[[DynInstr], None] | None = None
        #: Optional retirement observer (see repro.core.bandwidth).
        self.retire_hook: Callable[[DynInstr], None] | None = None
        #: Optional pipeline tracer (see repro.pipeline.trace).
        self.tracer = None
        #: Armed telemetry (see repro.obs), or None.  Set by CMPSystem;
        #: the fault injector stamps its injections through this.
        self.obs = None

        # Counters (plain attributes: hot path).
        self.cycles = 0
        self.user_retired = 0
        self.total_retired = 0
        self.injected_retired = 0
        self.dtlb_misses = 0
        self.itlb_misses = 0
        self.mispredicts = 0
        self.serializing_retired = 0
        self.user_mem_retired = 0

    # ------------------------------------------------------------------
    # Per-cycle step: completions -> drain -> retire -> issue -> dispatch
    # -> fetch.
    # ------------------------------------------------------------------
    def step(self, now: int) -> None:
        self.cycles += 1
        self._do_completions(now)
        self._do_drain(now)
        self._do_retire(now)
        self._do_issue(now)
        self._do_dispatch(now)
        self._do_fetch(now)

    # ------------------------------------------------------------------
    # Flat-array hot loop (REPRO_HOTLOOP=soa, the default).
    #
    # Same pipeline, same cycle-by-cycle decisions, different data
    # layout.  The program is pre-decoded once into flat parallel tables
    # (repro.isa.decode), and ALL in-flight instruction state lives in
    # preallocated per-core column lists over a power-of-two ring of
    # ``rob_size``-bounded slots: the steady-state dispatch → issue →
    # complete → retire loop never constructs a Python object per
    # instruction.  In-flight references are packed ints
    # ``(seq << _f_sbits) | slot``; a reference is live iff
    # ``f_seq[slot] == packed >> _f_sbits`` (seqs are globally unique and
    # monotone, so a freed-and-reused slot can never false-match), and
    # packed order equals program (seq) order, so sorts and heap
    # tie-breaks are bit-identical to the object loop's.
    #
    # DynInstr-shaped views (repro.pipeline.flat.FlatView, per-slot
    # singletons) materialize lazily only on cold paths: fault-injection
    # / retire / tracer hooks, sync-request servicing, squash logging,
    # and mirror materialization.  gates.py / check_stage.py keep their
    # interfaces via the ``*_f`` flat protocol.
    #
    # The object loop above stays selectable (REPRO_HOTLOOP=object) as
    # the bit-identical reference; tests/sim/test_hotloop.py fuzzes the
    # two against each other, including the cold paths.
    # ------------------------------------------------------------------
    def use_soa_hotloop(self) -> None:
        """Switch to the flat-array loop (call before the first step).

        Binds the pre-decoded tables, allocates the flat ring, and
        rebinds ``step`` / ``next_event`` as instance attributes so
        selection costs nothing per cycle.  The ring starts empty, so
        this must run before any instruction is in flight (CMPSystem
        calls it at construction).
        """
        self._soa = True
        self._bind_decode()
        cc = self.core_cfg
        self._c_width = cc.width
        self._c_issue_width = self.issue_width
        self._c_rob_size = cc.rob_size
        self._c_sb_size = cc.store_buffer_size
        self._c_load_ports = cc.load_ports
        self._c_alu_lat = cc.alu_latency
        self._c_mul_lat = cc.mul_latency
        # Bound-method hoist: the DTLB object lives for the port's (and
        # core's) lifetime — TLB flushes clear in place, never reassign.
        self._dtlb_lookup = self.port.tlbs.dtlb.lookup
        self._init_flat()
        self.step = self._step_soa  # type: ignore[method-assign]
        self.next_event = self._next_event_flat  # type: ignore[method-assign]

    def set_issue_width(self, width: int) -> None:
        """Narrow (or restore) the issue stage — little-mute policies.

        Keeps the SoA loop's hoisted copy coherent whichever order the
        policy and :meth:`use_soa_hotloop` are applied in.
        """
        if width < 1 or width > self.core_cfg.width:
            raise ValueError(
                f"issue width must be in [1, {self.core_cfg.width}], got {width}"
            )
        self.issue_width = width
        if self._soa:
            self._c_issue_width = width

    def _init_flat(self) -> None:
        """Allocate the ring columns (plain lists, not int arrays).

        The columns deliberately stay plain Python lists rather than the
        ``array('q')``/numpy columns one might expect: ``None`` is a
        load-bearing value in the reference semantics (an unresolved
        store address means "conservatively block younger loads", an
        absent result means "do not write the ARF / fingerprint"), and
        the object loop's values are arbitrary-precision ints.  The win
        here is removing the per-instruction allocation and 28 slot
        writes, not narrowing storage.
        """
        size = self.core_cfg.rob_size
        cap = 1 << max(1, (size - 1).bit_length())  # power of two >= size
        self._f_cap = cap
        self._f_sbits = cap.bit_length() - 1
        self._f_smask = cap - 1
        #: Slot of the youngest live entry; first alloc lands on slot 0.
        #: Dispatch allocates ``(tail + 1) & mask``; squash rewinds it.
        #: Liveness is bounded by the ROB-size dispatch guard, so an
        #: allocation can never collide with a live slot.
        self._f_tail = cap - 1
        self.f_seq = [-1] * cap  # -1 = free slot
        self.f_pc = [0] * cap
        self.f_inst = [None] * cap
        self.f_state = [0] * cap  # DynState ints
        self.f_pend = [0] * cap
        self.f_v1 = [None] * cap
        self.f_v2 = [None] * cap
        self.f_res = [None] * cap
        self.f_addr = [None] * cap
        self.f_sval = [None] * cap
        self.f_pred = [None] * cap
        self.f_anext = [None] * cap
        self.f_ccyc = [-1] * cap
        self.f_fill = [None] * cap
        self.f_flags = [0] * cap  # decode F_* masks
        self.f_mask = [0] * cap  # packed booleans (repro.pipeline.flat M_*)
        self.f_wo = [-1] * cap  # wait_on: packed ref of the blocking store
        self.f_pp = [-1] * cap  # prev_producer: displaced rename packed ref
        self.f_row = [-1] * cap  # decode row (-1 for injected/cold fetches)
        #: Dependents edge lists, reused across slot generations: each
        #: edge is ``(consumer_packed << 1) | (operand - 1)``.
        self.f_deps = [[] for _ in range(cap)]
        self._f_views = [FlatView(self, s) for s in range(cap)]
        # One-shot hoist bundle: the hot methods unpack this tuple into
        # locals (a single LOAD_ATTR + UNPACK_SEQUENCE) instead of ~20
        # separate attribute loads per call — the per-call fixed cost
        # matters because a typical call touches only 1-2 instructions.
        # The column list objects are never reassigned (mirror
        # materialization copies contents in place), so the bundle stays
        # valid for the core's lifetime.
        self._f_cols = (
            self.f_seq,
            self.f_pc,
            self.f_inst,
            self.f_state,
            self.f_pend,
            self.f_v1,
            self.f_v2,
            self.f_res,
            self.f_addr,
            self.f_sval,
            self.f_pred,
            self.f_anext,
            self.f_ccyc,
            self.f_fill,
            self.f_flags,
            self.f_mask,
            self.f_wo,
            self.f_pp,
            self.f_deps,
        )
        # Flat-path containers hold slot indices (rob / _unchecked — the
        # deques only ever contain live slots) or packed refs (everything
        # else, validated lazily), not DynInstr objects.
        self.rob = deque()
        self.rename = {}
        self.ready = []
        self.completions = []
        self._store_entries = deque()
        self._ser_heap = []
        self._unchecked = deque()
        self.sync_request = None

    def _view(self, slot: int) -> FlatView:
        """The slot's singleton view, stamped with its current seq."""
        view = self._f_views[slot]
        view._q = self.f_seq[slot]
        return view

    def _bind_decode(self) -> None:
        d = decode_program(self.program, self.sc_mode)
        self._decoded = d
        # Hoist bundle for fetch/dispatch/issue (see _f_cols): rebuilt
        # whenever the program is rebound (hard_reset), so it is always
        # current.
        self._d_cols = (
            d.flags, d.rs1, d.rs2, d.rd, d.target, d.inst, d.n,
            d.kern, d.btake,
        )

    def _step_soa(self, now: int) -> None:
        self.cycles += 1
        heap = self.completions
        if heap and heap[0][0] <= now:
            self._flat_completions(now)
        if self._drain_inflight is not None or self.drain:
            self._do_drain(now)
        rob = self.rob
        if rob or self.gate.open_count:
            self._flat_retire(now)
            # _flat_issue is _flat_issue_serializing plus the ready scan;
            # skip its call (and local setup) on ready-less stall cycles.
            if self.ready:
                self._flat_issue(now)
            elif rob and self._ser_heap:
                # An empty ser-heap proves no serializing/HALT entry is
                # in flight (they are pushed at dispatch), so the head-of
                # -ROB serializing scan would be a guaranteed no-op.
                self._flat_issue_serializing(now)
        fq = self.fetch_queue
        if fq and fq[0][0] <= now:
            self._flat_dispatch(now)
        self._do_fetch_soa(now)

    def _flat_issue(self, now: int) -> None:
        """`_do_issue` + `_issue_simple` over the ring columns, fused."""
        if self._ser_heap:
            self._flat_issue_serializing(now)
            ser_limit = self._flat_oldest_ser()
        else:
            # No serializing/HALT entry in flight: skip the head-of-ROB
            # scan and the heap peek entirely.
            ser_limit = None
        ready = self.ready
        if not ready:
            return
        ready.sort()  # packed order == program (seq) order
        (
            f_seq,
            f_pc,
            f_inst,
            f_state,
            _,
            f_v1,
            f_v2,
            f_res,
            f_addr,
            _,
            _,
            f_anext,
            _,
            _,
            f_flags,
            _,
            f_wo,
            _,
            _,
        ) = self._f_cols
        smask = self._f_smask
        sbits = self._f_sbits
        issue_budget = self._c_issue_width
        load_ports = self._c_load_ports
        alu_latency = self._c_alu_lat
        mul_latency = self._c_mul_lat
        completions = self.completions
        heappush = heapq.heappush
        fault_hook = self.fault_hook
        tracer = self.tracer
        f_row = self.f_row
        _, _, _, _, d_target, _, _, d_kern, d_btake = self._d_cols
        remaining: list[int] = []
        defer = remaining.append
        for packed in ready:
            slot = packed & smask
            if f_seq[slot] != packed >> sbits or f_state[slot] != 0:
                continue  # squashed, or already issued on an earlier scan
            f = f_flags[slot]
            if (
                issue_budget == 0
                or f & _F_SER_HALT
                or (ser_limit is not None and packed >> sbits > ser_limit)
            ):
                defer(packed)
                continue
            if f & F_LOAD:
                if load_ports == 0:
                    defer(packed)
                    continue
                blocker = f_wo[slot]
                if (
                    blocker >= 0
                    and f_seq[blocker & smask] == blocker >> sbits
                    and f_addr[blocker & smask] is None
                ):
                    # Memoized disambiguation block: don't burn a load port
                    # (or the _flat_issue_load call) on a known "wait".
                    defer(packed)
                    continue
                outcome = self._flat_issue_load(slot, packed, now)
                if outcome == 2:
                    return  # TLB trap: pipeline flushed, ready list rebuilt
                if outcome == 1:
                    defer(packed)
                    continue
                load_ports -= 1
            elif f & F_STORE:
                if not self._flat_issue_store(slot, packed, now):
                    return  # TLB trap flush
            else:
                # ALU / branch / jump / nop: _issue_simple over columns.
                latency = alu_latency
                if f & F_ALU:
                    row = f_row[slot]
                    if row >= 0:
                        # Pre-bound kernel: no op dispatch, imm baked in.
                        f_res[slot] = d_kern[row](
                            f_v1[slot] or 0, f_v2[slot] or 0
                        )
                    else:  # injected/cold fetch: no decode row
                        inst = f_inst[slot]
                        f_res[slot] = alu_result(
                            inst.op, f_v1[slot] or 0, f_v2[slot] or 0, inst.imm
                        )
                    if f & F_MUL:
                        latency = mul_latency
                elif f & F_BRANCH:
                    row = f_row[slot]
                    if row >= 0:
                        f_anext[slot] = (
                            d_target[row]
                            if d_btake[row](f_v1[slot] or 0, f_v2[slot] or 0)
                            else f_pc[slot] + 1
                        )
                    else:
                        inst = f_inst[slot]
                        f_anext[slot] = (
                            inst.target
                            if branch_taken(inst.op, f_v1[slot] or 0, f_v2[slot] or 0)
                            else f_pc[slot] + 1
                        )
                elif f & F_JUMP:
                    f_anext[slot] = f_inst[slot].target
                if fault_hook is not None:
                    fault_hook(self._view(slot))
                f_state[slot] = 1  # DynState.ISSUED
                if tracer is not None:
                    tracer.issue(self._view(slot), now)
                heappush(completions, (now + latency, packed))
            issue_budget -= 1
        self.ready = remaining

    def _flat_issue_load(self, slot: int, packed: int, now: int) -> int:
        """Flat `_issue_load`: 0 = done, 1 = wait, 2 = trap."""
        f_addr = self.f_addr
        addr = f_addr[slot]
        if addr is None:
            # Operands are immutable once captured, so compute the
            # effective address once across issue retries.
            addr = effective_address(self.f_v1[slot] or 0, self.f_inst[slot].imm)
            f_addr[slot] = addr

        if self.single_step and self.pair_sync_atomics and not self.f_mask[slot] & M_INJECTED:
            # Re-execution protocol: the first load is issued by both
            # cores as a synchronizing request (Definition 11).
            if not self.drain_empty:
                return 1
            self.port.dtlb_fill(addr)
            self.f_state[slot] = 1
            self.sync_request = self._view(slot)
            return 0

        blocker = self.f_wo[slot]
        if blocker >= 0:
            smask = self._f_smask
            if (
                self.f_seq[blocker & smask] == blocker >> self._f_sbits
                and f_addr[blocker & smask] is None
            ):
                return 1  # memoized "blocked" (see f_wo)
            self.f_wo[slot] = -1

        if self._store_entries or self.drain or self._drain_inflight is not None:
            forwarded = self._flat_forward(slot, packed, addr)
        else:
            forwarded = None
        if forwarded == "blocked":
            return 1
        if isinstance(forwarded, int):
            self.f_res[slot] = forwarded
            if self.fault_hook is not None:
                # Store-to-load forwarding is unprotected datapath — one of
                # the coverage gaps of a strict LVQ that relaxed input
                # replication closes (Section 2.3).
                self.fault_hook(self._view(slot))
            self.f_state[slot] = 1
            self._flat_sched(packed, now + 1, now)
            return 0

        extra = 0
        if not self.f_mask[slot] & M_INJECTED and not self._dtlb_lookup(addr):
            self.dtlb_misses += 1
            if self.sw_tlb:
                self._flat_take_dtlb_trap(slot, now)
                return 2
            extra = self.config.tlb.hw_fill_latency
            self.port.dtlb_fill(addr)

        access = self.port.load_f(addr, now)
        if access is None:
            return 1  # no MSHR free: retry
        value, done = access
        self.f_res[slot] = value
        if self.fault_hook is not None:
            self.fault_hook(self._view(slot))
        self.f_state[slot] = 1
        self._flat_sched(packed, done + extra, now)
        return 0

    def _flat_issue_store(self, slot: int, packed: int, now: int) -> bool:
        """Flat `_issue_store` (no memory access yet)."""
        addr = effective_address(self.f_v1[slot] or 0, self.f_inst[slot].imm)
        self.f_addr[slot] = addr
        self.f_sval[slot] = self.f_v2[slot] or 0
        if not self.f_mask[slot] & M_INJECTED and not self._dtlb_lookup(addr):
            self.dtlb_misses += 1
            if self.sw_tlb:
                self._flat_take_dtlb_trap(slot, now)
                return False
            self.port.dtlb_fill(addr)
            # Hardware fill overlaps with the store's time in the buffer.
        if self.fault_hook is not None:
            # Store address/value generation is unprotected datapath too.
            self.fault_hook(self._view(slot))
        self.f_state[slot] = 1
        self._flat_sched(packed, now + 1, now)
        return True

    def _flat_forward(self, slot: int, packed: int, addr):
        """Flat `_forward_from_stores`: value, "blocked", or None."""
        f_seq = self.f_seq
        smask = self._f_smask
        sbits = self._f_sbits
        f_addr = self.f_addr
        f_sval = self.f_sval
        for sp in reversed(self._store_entries):
            ss = sp & smask
            if f_seq[ss] != sp >> sbits:
                continue  # squashed/retired (filtered at squash; defensive)
            if sp >= packed:
                continue  # younger than the load
            store_addr = f_addr[ss]
            if store_addr is None:
                self.f_wo[slot] = sp  # memoize: skip rescans until resolved
                return "blocked"
            if store_addr == addr:
                value = f_sval[ss]
                if value is None:
                    return "blocked"
                return value
        for drain_addr, drain_value in reversed(self.drain):
            if drain_addr == addr:
                return drain_value
        inflight = self._drain_inflight
        if inflight is not None and inflight[0] == addr:
            return inflight[1]
        return None

    def _flat_issue_serializing(self, now: int) -> None:
        """Flat `_issue_serializing`: head-of-ROB only (Section 4.4)."""
        rob = self.rob
        if not rob:
            return
        f_state = self.f_state
        f_pend = self.f_pend
        f_flags = self.f_flags
        unchecked = self._unchecked
        if unchecked:
            waiting = unchecked[0]
            if (
                f_flags[waiting] & _F_SER_HALT
                and f_pend[waiting] == 0
                and f_state[waiting] == 0
            ):
                self.gate.close_open(now)
        slot = rob[0]
        if f_state[slot] != 0 or f_pend[slot] != 0:
            return
        if not f_flags[slot] & _F_SER_HALT:
            return
        op = self.f_inst[slot].op
        if op in (Op.MEMBAR, Op.ATOMIC, Op.CAS) and not self.drain_empty:
            return
        if self.sc_mode and op is Op.STORE and not self.drain_empty:
            return
        packed = (self.f_seq[slot] << self._f_sbits) | slot
        if op is Op.HALT or op is Op.MEMBAR or op is Op.TRAP:
            f_state[slot] = 1
            self._flat_sched(packed, now + 1, now)
        elif op is Op.MMUOP:
            f_state[slot] = 1
            self._flat_sched(packed, now + self.core_cfg.mmuop_latency, now)
        elif op is Op.STORE:  # SC-mode serializing store
            self._flat_issue_store(slot, packed, now)
        elif op in (Op.ATOMIC, Op.CAS):
            self._flat_issue_atomic(slot, packed, now)

    def _flat_issue_atomic(self, slot: int, packed: int, now: int) -> None:
        inst = self.f_inst[slot]
        addr = effective_address(self.f_v1[slot] or 0, inst.imm)
        self.f_addr[slot] = addr
        if not self.f_mask[slot] & M_INJECTED and not self._dtlb_lookup(addr):
            self.dtlb_misses += 1
            if self.sw_tlb:
                self._flat_take_dtlb_trap(slot, now)
                return
            self.port.dtlb_fill(addr)
        if self.pair_sync_atomics:
            # Reunion: atomics are synchronizing requests, performed once
            # by the shared cache controller when both cores arrive.
            self.f_state[slot] = 1
            self.sync_request = self._view(slot)
            return
        access = self.port.rmw_read(addr, now)
        if access.retry:
            return
        rd_value, new_value = atomic_result(
            inst.op, access.value, self.f_v2[slot] or 0, inst.imm
        )
        self.f_res[slot] = rd_value
        if new_value is not None:
            self.port.rmw_write(addr, new_value)
        self.f_state[slot] = 1
        self._flat_sched(packed, access.done, now)

    def _flat_oldest_ser(self):
        """Flat `_oldest_active_serializing` over the packed-ref heap."""
        heap = self._ser_heap
        f_seq = self.f_seq
        smask = self._f_smask
        sbits = self._f_sbits
        while heap:
            packed = heap[0]
            if f_seq[packed & smask] != packed >> sbits:
                heapq.heappop(heap)  # squashed or retired: slot freed
                continue
            return packed >> sbits
        return None

    def _flat_sched(self, packed: int, cycle: int, now: int | None = None) -> None:
        if self.tracer is not None:
            self.tracer.issue(
                self._view(packed & self._f_smask), cycle if now is None else now
            )
        heapq.heappush(self.completions, (cycle, packed))

    def _flat_dispatch(self, now: int) -> None:
        """`_do_dispatch` + `_dispatch_one` + `_capture`, fused over columns.

        Allocates the next ring slot and writes the columns directly —
        the steady state constructs no per-instruction object at all.
        """
        fq = self.fetch_queue
        rob = self.rob
        width = self._c_width
        rob_size = self._c_rob_size
        sb_size = self._c_sb_size
        d_flags, d_rs1, d_rs2, d_rd, d_target, d_inst, _, _, _ = self._d_cols
        (
            f_seq,
            f_pc,
            f_inst,
            f_state,
            f_pend,
            f_v1,
            f_v2,
            f_res,
            f_addr,
            f_sval,
            f_pred,
            f_anext,
            f_ccyc,
            f_fill,
            f_flags,
            f_mask,
            f_wo,
            f_pp,
            f_deps,
        ) = self._f_cols
        smask = self._f_smask
        sbits = self._f_sbits
        rename = self.rename
        rename_get = rename.get
        arf_regs = self.arf._regs  # RegisterFile.read, inlined
        f_row = self.f_row
        ready_append = self.ready.append
        rob_append = rob.append
        unchecked_append = self._unchecked.append
        tracer = self.tracer
        single_step = self.single_step
        fq_popleft = fq.popleft
        seq = self._next_seq
        tail = self._f_tail
        dispatched = 0
        while dispatched < width and fq:
            fetched = fq[0]
            if fetched[0] > now or len(rob) >= rob_size:
                break
            row = fetched[6]
            if row < 0:
                # Injected handler instruction (or a post-injection user
                # fetch from the shared path): no decode row.  The cold
                # helper reads/writes the seq and tail attributes, so
                # sync the locals around the call.
                if fetched[2].op is Op.STORE and self.sb_count >= sb_size:
                    break
                if single_step and rob:
                    break
                fq_popleft()
                self._next_seq = seq
                self._f_tail = tail
                self._flat_dispatch_cold(fetched, now)
                seq = self._next_seq
                tail = self._f_tail
                dispatched += 1
                continue
            f = d_flags[row]
            if f & F_STORE and self.sb_count >= sb_size:
                break
            if single_step and rob:
                break  # one instruction at a time during re-execution
            fq_popleft()
            slot = tail = (tail + 1) & smask
            packed = (seq << sbits) | slot
            pc = fetched[1]
            # Slots are recycled: every column a later stage may read
            # before writing must be reset here.  Columns proven
            # write-before-read for this instruction class are skipped —
            # f_addr/f_sval are only read for memory ops (forwarding,
            # fingerprint words, fault targeting), f_wo only for loads,
            # f_fill only when M_INJECTED is set (never on this path),
            # and f_deps is cleared at completion/squash, not here.
            f_seq[slot] = seq
            f_pc[slot] = pc
            f_inst[slot] = d_inst[row]
            f_state[slot] = 0  # DynState.DISPATCHED
            f_mask[slot] = 0
            f_res[slot] = None
            f_pred[slot] = fetched[4]
            f_ccyc[slot] = -1
            f_flags[slot] = f
            f_row[slot] = row
            if f & F_MEM:
                f_addr[slot] = None
                f_sval[slot] = None
                if f & F_LOAD:
                    f_wo[slot] = -1

            # Operand capture.  (Decoded MOVI rows take the register-0
            # path — val1/val2 become 0 instead of the object loop's
            # untouched None; both are unread for MOVI, so this is
            # value-identical.)
            pending = 0
            if f & F_NEEDS1:
                reg = d_rs1[row]
                producer = rename_get(reg)
                if producer is None or f_seq[producer & smask] != producer >> sbits:
                    f_v1[slot] = arf_regs[reg]
                else:
                    ps = producer & smask
                    f_mask[ps] |= M_CONSUMED
                    result = f_res[ps]
                    if result is not None:
                        f_v1[slot] = result
                    else:
                        f_v1[slot] = None
                        pending = 1
                        f_deps[ps].append(packed << 1)
            else:
                reg = d_rs1[row]
                f_v1[slot] = arf_regs[reg]  # _regs[0] is pinned to 0
            if f & F_NEEDS2:
                reg = d_rs2[row]
                producer = rename_get(reg)
                if producer is None or f_seq[producer & smask] != producer >> sbits:
                    f_v2[slot] = arf_regs[reg]
                else:
                    ps = producer & smask
                    f_mask[ps] |= M_CONSUMED
                    result = f_res[ps]
                    if result is not None:
                        f_v2[slot] = result
                    else:
                        f_v2[slot] = None
                        pending += 1
                        f_deps[ps].append((packed << 1) | 1)
            else:
                f_v2[slot] = 0
            f_pend[slot] = pending

            if f & F_WRITES:
                rd = d_rd[row]
                prev = rename_get(rd)
                f_pp[slot] = -1 if prev is None else prev
                rename[rd] = packed
            else:
                f_pp[slot] = -1
            if f & F_STORE:
                self.sb_count += 1
                self._store_entries.append(packed)
            if f & _F_SER_HALT:
                heapq.heappush(self._ser_heap, packed)

            # Non-branch control flow resolves immediately; branches
            # carry the prediction and verify at completion.
            if not f & F_CONTROL or f & F_HALT:
                f_anext[slot] = pc + 1
            elif f & F_JUMP:
                f_anext[slot] = d_target[row]
            else:
                f_anext[slot] = None

            rob_append(slot)
            unchecked_append(slot)
            if tracer is not None:
                tracer.dispatch(self._view(slot), now)
            if pending == 0:
                ready_append(packed)
            seq += 1
            dispatched += 1
        self._next_seq = seq
        self._f_tail = tail

    def _flat_dispatch_cold(self, fetched: tuple, now: int) -> None:
        """Flat `_dispatch_one`: row-less fetches (injected handlers and
        post-injection user fetches from the shared fetch path)."""
        inst = fetched[2]
        seq = self._next_seq
        self._next_seq = seq + 1
        smask = self._f_smask
        slot = (self._f_tail + 1) & smask
        self._f_tail = slot
        packed = (seq << self._f_sbits) | slot
        self.f_seq[slot] = seq
        self.f_pc[slot] = fetched[1]
        self.f_inst[slot] = inst
        self.f_state[slot] = 0
        self.f_pend[slot] = 0
        self.f_mask[slot] = M_INJECTED if fetched[3] else 0
        self.f_v1[slot] = None
        self.f_v2[slot] = None
        self.f_res[slot] = None
        self.f_addr[slot] = None
        self.f_sval[slot] = None
        self.f_pred[slot] = fetched[4]
        self.f_anext[slot] = None
        self.f_ccyc[slot] = -1
        self.f_fill[slot] = fetched[5]
        flags = flags_of(inst, self.sc_mode)
        self.f_flags[slot] = flags
        self.f_wo[slot] = -1
        self.f_pp[slot] = -1
        self.f_row[slot] = -1
        self.f_deps[slot].clear()

        # Capture operands / subscribe to producers (object-loop
        # predicates verbatim; MOVI leaves val1/val2 None, matching it).
        op = inst.op
        pending = 0
        if op is not Op.MOVI:
            needs1 = inst.rs1 != 0 and (
                inst.is_alu or inst.is_mem or inst.is_branch
            )
            needs2 = inst.rs2 != 0 and (
                (inst.is_alu and not inst.imm_form)
                or inst.is_branch
                or op is Op.STORE
                or op is Op.ATOMIC
                or op is Op.CAS
            )
            if needs1:
                pending += self._flat_capture(slot, packed, 1, inst.rs1)
            else:
                self.f_v1[slot] = 0 if inst.rs1 == 0 else self.arf.read(inst.rs1)
            if needs2:
                pending += self._flat_capture(slot, packed, 2, inst.rs2)
            else:
                self.f_v2[slot] = 0
            self.f_pend[slot] = pending

        if inst.writes_reg:
            prev = self.rename.get(inst.rd)
            self.f_pp[slot] = -1 if prev is None else prev
            self.rename[inst.rd] = packed

        if op is Op.STORE:
            self.sb_count += 1
            self._store_entries.append(packed)
        if flags & _F_SER_HALT:
            heapq.heappush(self._ser_heap, packed)

        if not inst.is_control or op is Op.HALT:
            self.f_anext[slot] = fetched[1] + 1
        elif op is Op.JUMP:
            self.f_anext[slot] = inst.target

        self.rob.append(slot)
        self._unchecked.append(slot)
        if self.tracer is not None:
            self.tracer.dispatch(self._view(slot), now)
        if pending == 0:
            self.ready.append(packed)

    def _flat_capture(self, slot: int, packed: int, which: int, reg: int) -> int:
        """Flat `_capture`; returns the operand's pending contribution."""
        producer = self.rename.get(reg)
        smask = self._f_smask
        live = (
            producer is not None
            and self.f_seq[producer & smask] == producer >> self._f_sbits
        )
        if not live:
            value = self.arf.read(reg)
            if which == 1:
                self.f_v1[slot] = value
            else:
                self.f_v2[slot] = value
            return 0
        ps = producer & smask
        self.f_mask[ps] |= M_CONSUMED
        result = self.f_res[ps]
        if result is not None:
            if which == 1:
                self.f_v1[slot] = result
            else:
                self.f_v2[slot] = result
            return 0
        self.f_deps[ps].append((packed << 1) | (which - 1))
        return 1

    # -- flat completions / retire / squash ----------------------------
    def _flat_completions(self, now: int) -> None:
        """Flat `_do_completions` over the (cycle, packed) heap."""
        heap = self.completions
        heappop = heapq.heappop
        (
            f_seq,
            _,
            _,
            f_state,
            f_pend,
            f_v1,
            f_v2,
            f_res,
            _,
            _,
            _,
            _,
            f_ccyc,
            _,
            f_flags,
            _,
            _,
            _,
            f_deps,
        ) = self._f_cols
        smask = self._f_smask
        sbits = self._f_sbits
        ready_append = self.ready.append
        tracer = self.tracer
        while heap and heap[0][0] <= now:
            packed = heappop(heap)[1]
            slot = packed & smask
            if f_seq[slot] != packed >> sbits:
                continue  # squashed
            f_state[slot] = 2  # DynState.COMPLETED
            f_ccyc[slot] = now
            if tracer is not None:
                tracer.complete(self._view(slot), now)
            # Edges are cleared here (or at squash) rather than on slot
            # recycle in dispatch — completion is the last reader.
            edges = f_deps[slot]
            if edges:
                result = f_res[slot]
                if result is not None:
                    for edge in edges:
                        dep = edge >> 1
                        ds = dep & smask
                        if f_seq[ds] != dep >> sbits:
                            continue  # consumer squashed
                        if edge & 1:
                            f_v2[ds] = result
                        else:
                            f_v1[ds] = result
                        pending = f_pend[ds] - 1
                        f_pend[ds] = pending
                        if pending == 0 and f_state[ds] == 0:
                            ready_append(dep)
                edges.clear()
            if f_flags[slot] & F_BRANCH:
                actual_next = self.f_anext[slot]
                pc = self.f_pc[slot]
                self.predictor.update(pc, actual_next != pc + 1)
                if actual_next != self.f_pred[slot]:
                    self.mispredicts += 1
                    self._flat_squash_to((packed >> sbits) + 1)
                    self._redirect_fetch(actual_next)

    def _flat_retire(self, now: int) -> None:
        """Flat `_do_retire`: release cleared refs, offer completed ones."""
        width = self._c_width
        gate = self.gate
        released = gate.pop_retirable_f(self, now, width)
        if released:
            f_seq = self.f_seq
            smask = self._f_smask
            sbits = self._f_sbits
            for packed in released:
                if f_seq[packed & smask] != packed >> sbits:
                    continue  # squashed mid-batch (TRAP/interrupt retire)
                self._flat_retire_one(packed & smask, now)
        unchecked = self._unchecked
        if not unchecked:
            return
        f_state = self.f_state
        if f_state[unchecked[0]] != 2:
            return  # head of the unchecked region not done: nothing to offer
        offered = 0
        f_mask = self.f_mask
        gate_offer = gate.offer_f
        while unchecked and offered < width:
            slot = unchecked[0]
            if f_state[slot] != 2:
                break
            unchecked.popleft()
            f_state[slot] = 3  # DynState.IN_CHECK
            gate_offer(self, slot, now)
            offered += 1
            if (
                self._interrupts
                and not self.single_step
                and not f_mask[slot] & M_INJECTED
                and gate.users_offered >= self._interrupts[0][0]
            ):
                # Service at the in-order offer boundary: no younger
                # entry has reached the gate yet, so the squash below
                # touches only unoffered in-flight state and both cores
                # of a pair — even a heterogeneous little-mute pair with
                # a different pipeline depth — pick the identical stream
                # point (gate.users_offered is a pure function of the
                # correct-path instruction stream).
                actual_next = self.f_anext[slot]
                resume = actual_next if actual_next is not None else self.f_pc[slot] + 1
                self._flat_service_interrupt(self.f_seq[slot], resume)
                break
        self._check_pending += offered

    def _flat_retire_one(self, slot: int, now: int) -> None:
        """Flat `_retire`: architectural update for one checked slot.

        The gate releases strictly in offer order, so ``slot`` is always
        the ROB head here.  Frees the ring slot; the TRAP / interrupt /
        TLB flush paths run after the free so the ring never holds a
        retired-but-live slot.
        """
        self.rob.popleft()
        self._check_pending -= 1
        f_seq = self.f_seq
        seq = f_seq[slot]
        flags = self.f_flags[slot]
        mask = self.f_mask[slot]
        self.f_state[slot] = 4  # DynState.RETIRED
        if self.tracer is not None:
            self.tracer.retire(self._view(slot), now)
        self.total_retired += 1
        if flags & F_STORE:
            store_entries = self._store_entries
            if store_entries and store_entries[0] == (seq << self._f_sbits) | slot:
                store_entries.popleft()
            self.drain.append((self.f_addr[slot], self.f_sval[slot]))
            # sb_count is released when the drain completes.
        elif flags & F_HALT:
            self.halted = True

        if flags & F_WRITES:
            # Clear the displaced-producer link so retired slots never
            # chain-retain their predecessors.
            self.f_pp[slot] = -1
            rd = self.f_inst[slot].rd
            result = self.f_res[slot]
            if result is not None and rd != 0:
                # RegisterFile.write, inlined.
                self.arf._regs[rd] = result & WORD_MASK
            rename = self.rename
            if rename.get(rd) == (seq << self._f_sbits) | slot:
                del rename[rd]

        if mask & M_INJECTED:
            self.injected_retired += 1
            fill_addr = self.f_fill[slot]
            f_seq[slot] = -1  # free the ring slot
            if fill_addr is not None:
                self.port.dtlb_fill(fill_addr)
            return

        self.user_retired += 1
        if self.retire_hook is not None:
            self.retire_hook(self._view(slot))
        if flags & F_MEM:
            self.user_mem_retired += 1
        if flags & F_SER:
            self.serializing_retired += 1

        pc = self.f_pc[slot]
        actual_next = self.f_anext[slot]
        op = self.f_inst[slot].op
        f_seq[slot] = -1  # free the ring slot before any flush below
        if op is Op.TRAP:
            # User-level traps redirect fetch through the trap vector:
            # model as a full pipeline flush and refetch.
            self._flat_squash_to(seq + 1)
            self._redirect_fetch(pc + 1)
        elif not self.single_step:
            # External interrupts are serviced at the in-order *offer*
            # boundary (see _flat_retire's offer loop), not here: at
            # retire time younger entries have already entered the check
            # gate, and squashing them would desynchronize interval
            # contents across a heterogeneous pair.
            sched = self.synthetic_itlb
            if sched is not None:
                # hashed_schedule exposes its memoized decision table;
                # index it directly and call in only to extend it (or
                # for table-less custom schedules).
                idx = self.user_retired
                table = getattr(sched, "table", None)
                if table is not None and idx < len(table):
                    miss = table[idx]
                else:
                    miss = sched(idx)
                if miss:
                    self.itlb_misses += 1
                    resume = actual_next if actual_next is not None else pc + 1
                    self._flat_take_synthetic_tlb_miss(seq, resume, now)

    def _flat_service_interrupt(self, seq: int, resume: int) -> None:
        """Flat `_service_interrupt` (the triggering slot stays live:
        it was just offered and retires through the gate normally)."""
        _, handler = self._interrupts.popleft()
        self.interrupts_serviced += 1
        self._flat_squash_to(seq + 1)
        self.fetch_queue.clear()
        self.injection.clear()
        for inst in handler:
            self.injection.append((inst, None))
        self._injection_resume = resume
        self.fetch_stalled = False

    def _flat_take_synthetic_tlb_miss(self, seq: int, resume: int, now: int) -> None:
        """Flat `_take_synthetic_tlb_miss`."""
        if self.sw_tlb:
            self._flat_squash_to(seq + 1)
            self._inject_handler(
                page=self.user_retired, fill_addr=None, resume_pc=resume
            )
        else:
            self.stall_fetch_until = max(
                self.stall_fetch_until, now + self.config.tlb.hw_fill_latency
            )

    def _flat_take_dtlb_trap(self, slot: int, now: int) -> None:
        """Flat `_take_dtlb_trap`: flush (inclusive) and run the handler."""
        addr = self.f_addr[slot]
        page = addr >> self.config.tlb.page_bits
        pc = self.f_pc[slot]
        self._flat_squash_to(self.f_seq[slot])
        self._inject_handler(page=page, fill_addr=addr, resume_pc=pc)

    def _flat_squash_to(self, first_bad_seq: int) -> None:
        """Flat `_squash_to`: pop ROB-tail victims youngest-first.

        Freeing a victim's slot (seq -1) *is* the squash mark — every
        packed ref to it everywhere (ready list, heaps, rename, gate
        pending, deps edges) goes stale at once, and the ring tail
        rewinds so the slots are immediately reusable.
        """
        rob = self.rob
        f_seq = self.f_seq
        smask = self._f_smask
        sbits = self._f_sbits
        f_state = self.f_state
        f_flags = self.f_flags
        f_pp = self.f_pp
        unchecked = self._unchecked
        rename = self.rename
        tracer = self.tracer
        while rob and f_seq[rob[-1]] >= first_bad_seq:
            slot = rob.pop()
            self._f_tail = (slot - 1) & smask
            seq = f_seq[slot]
            if tracer is not None:
                # Stamp the view by hand: the slot is about to be freed
                # but the tracer keys its record by the victim's seq.
                view = self._f_views[slot]
                view._q = seq
                tracer.squash(view)
            if f_state[slot] == 3:  # DynState.IN_CHECK
                self._check_pending -= 1
            elif unchecked and unchecked[-1] == slot:
                unchecked.pop()
            flags = f_flags[slot]
            if flags & F_STORE and f_state[slot] != 4:
                self.sb_count -= 1
            if flags & F_WRITES:
                rd = self.f_inst[slot].rd
                if rename.get(rd) == (seq << sbits) | slot:
                    previous = f_pp[slot]
                    # A live prev ref == "not squashed and not retired".
                    if previous >= 0 and f_seq[previous & smask] == previous >> sbits:
                        rename[rd] = previous
                    else:
                        del rename[rd]
            # Hot dispatch no longer clears deps on recycle: a victim
            # that never completed must drop its subscriber edges here.
            self.f_deps[slot].clear()
            f_seq[slot] = -1  # free
        self._store_entries = deque(
            p for p in self._store_entries if f_seq[p & smask] == p >> sbits
        )
        sync_request = self.sync_request
        if sync_request is not None and f_seq[sync_request._s] != sync_request._q:
            self.sync_request = None
        self.ready = [p for p in self.ready if f_seq[p & smask] == p >> sbits]
        self.fetch_queue.clear()
        self.injection.clear()
        self._injection_resume = None
        self.fetch_stalled = False

    def _next_event_flat(self, now: int) -> int:
        """Flat `next_event`: identical horizon logic over the columns."""
        if self.ready:
            return now
        wake = NEVER
        heap = self.completions
        if heap:
            t = heap[0][0]
            if t <= now:
                return now
            wake = t
        inflight = self._drain_inflight
        if inflight is not None:
            t = inflight[2]
            if t <= now:
                return now
            if t < wake:
                wake = t
        elif self.drain:
            return now
        f_state = self.f_state
        f_pend = self.f_pend
        f_flags = self.f_flags
        unchecked = self._unchecked
        if unchecked:
            waiting = unchecked[0]
            if f_state[waiting] == 2:
                return now
            if (
                self.gate.open_count
                and f_pend[waiting] == 0
                and f_state[waiting] == 0
                and f_flags[waiting] & _F_SER_HALT
            ):
                return now
        t = self.gate.next_release_f(self, now)
        if t <= now:
            return now
        if t < wake:
            wake = t
        rob = self.rob
        if rob:
            head = rob[0]
            if (
                f_state[head] == 0
                and f_pend[head] == 0
                and f_flags[head] & _F_SER_HALT
            ):
                op = self.f_inst[head].op
                needs_drain = (
                    op is Op.MEMBAR
                    or op is Op.ATOMIC
                    or op is Op.CAS
                    or (self.sc_mode and op is Op.STORE)
                )
                if not needs_drain or self.drain_empty:
                    return now
        fetch_queue = self.fetch_queue
        if fetch_queue:
            head = fetch_queue[0]
            t = head[0]  # ready_cycle
            if t > now:
                if t < wake:
                    wake = t
            elif len(rob) < self._c_rob_size and not (self.single_step and rob):
                if not (
                    head[2].op is Op.STORE
                    and self.sb_count >= self._c_sb_size
                ):
                    return now
        if (
            not self.halted
            and not self.fetch_stalled
            and len(fetch_queue) < self.core_cfg.fetch_queue_size
        ):
            t = self.stall_fetch_until
            if t <= now:
                return now
            if t < wake:
                wake = t
        return wake

    def _do_fetch_soa(self, now: int) -> None:
        if self.halted or self.fetch_stalled or now < self.stall_fetch_until:
            return
        if self.injection:
            # Handler injection mixes injected and user fetches within
            # one cycle: take the cold shared path for the whole call.
            self._do_fetch(now)
            return
        cc = self.core_cfg
        fq = self.fetch_queue
        room = cc.fetch_queue_size - len(fq)
        if room <= 0:
            return
        width = cc.width
        if room > width:
            room = width
        d_flags, _, _, _, d_target, d_inst, d_n, _, _ = self._d_cols
        predictor = self.predictor
        p_table = predictor._table
        p_key = predictor._history & predictor._mask  # XOR pc per row below
        p_mask = predictor._mask
        mirror_watch = self.mirror_watch
        single_step = self.single_step
        append = fq.append
        ready = now + cc.frontend_latency
        pc = self.pc
        fetched = 0
        while fetched < room:
            row = pc if 0 <= pc < d_n else d_n
            f = d_flags[row]
            if mirror_watch and f & F_WINDOW_END:
                # The first memory / serializing / halt instruction ends
                # the mirror window (see _do_fetch for the full timing
                # argument).
                self.mirror_trigger = True
            if f & F_BRANCH:
                # Inlined gshare predict (predictor.update never runs
                # between fetches within one step call).
                if p_table[(pc ^ p_key) & p_mask] >= 2:
                    next_pc = d_target[row]
                else:
                    next_pc = pc + 1
                append((ready, pc, d_inst[row], False, next_pc, None, row))
                pc = next_pc
            elif f & F_CONTROL:
                append((ready, pc, d_inst[row], False, None, None, row))
                if f & F_HALT:
                    self.fetch_stalled = True
                    fetched += 1
                    break  # pc intentionally not advanced past HALT
                pc = d_target[row]  # JUMP
            else:
                append((ready, pc, d_inst[row], False, None, None, row))
                pc += 1
            fetched += 1
            if single_step:
                break
        self.pc = pc

    @property
    def idle(self) -> bool:
        """True when nothing is in flight and the core has halted."""
        return self.halted and not self.rob and not self.drain and self._drain_inflight is None

    # -- event horizon (cycle-skipping kernel) --------------------------
    def next_event(self, now: int) -> int:
        """Conservative wake-up horizon for the cycle-skipping kernel.

        Returns the earliest cycle ``>= now`` at which :meth:`step` could
        change any state (architectural, microarchitectural, or
        statistics).  ``now`` itself means "cannot skip: the very next
        step may act"; :data:`NEVER` means the core generates no further
        events on its own (it can still be woken by its pair partner,
        whose horizon is computed separately).

        The contract is *conservative*: returning a cycle earlier than
        the true next event merely costs a no-op step (under-skipping is
        safe); returning a later cycle would silently drop work
        (over-skipping is a bug).  Every ``now``-dependent branch of
        ``step()`` must therefore be reflected here:

        * the completion heap head,
        * the in-flight store drain (and any queued drain store, which
          retries — and counts MSHR-stall statistics — every cycle),
        * the retire gate's next release / interval-timeout close,
        * pending offers of completed ROB entries into the check stage,
        * the ready list (issue is attempted every cycle it is nonempty),
        * a serializing instruction at the ROB head or at the check
          boundary (Section 4.4 stalls),
        * the fetch queue head's dispatch-ready cycle, and
        * the frontend's ``stall_fetch_until``.
        """
        # Issue: a nonempty ready list is rescanned every cycle.  This is
        # the cheapest and by far the most common "busy" signal, so it is
        # tested before anything else (ordering is free: every branch
        # either returns ``now`` or only lowers ``wake``).
        if self.ready:
            return now
        wake = NEVER
        # Completions: nothing executes out of the heap before its head.
        heap = self.completions
        if heap:
            t = heap[0][0]
            if t <= now:
                return now
            wake = t
        # Store drain: an in-flight drain completes at a known cycle; a
        # queued drain store is attempted (or MSHR-retried, which counts
        # stall statistics) every single cycle.
        inflight = self._drain_inflight
        if inflight is not None:
            t = inflight[2]
            if t <= now:
                return now
            if t < wake:
                wake = t
        elif self.drain:
            return now
        unchecked = self._unchecked
        if unchecked:
            waiting = unchecked[0]
            # Completed entries are offered to the gate width-per-cycle.
            if waiting.state == DynState.COMPLETED:
                return now
            # A ready serializing instruction at the check boundary ends
            # the open fingerprint interval (gate.close_open).
            if (
                self.gate.open_count
                and waiting.pending == 0
                and waiting.state == DynState.DISPATCHED
                and (waiting.serializing or waiting.inst.op is Op.HALT)
            ):
                return now
        # Retire gate: cleared intervals, injected-serializing stalls,
        # and (for paired gates) the interval-timeout close.
        t = self.gate.next_release(now)
        if t <= now:
            return now
        if t < wake:
            wake = t
        rob = self.rob
        if rob:
            head = rob[0]
            if (
                head.state == DynState.DISPATCHED
                and head.pending == 0
                and (head.serializing or head.inst.op is Op.HALT)
            ):
                op = head.inst.op
                needs_drain = (
                    op is Op.MEMBAR
                    or op is Op.ATOMIC
                    or op is Op.CAS
                    or (self.sc_mode and op is Op.STORE)
                )
                if not needs_drain or self.drain_empty:
                    return now
                # Otherwise blocked on the drain, whose horizon is above.
        # Dispatch: the fetch-queue head becomes eligible at ready_cycle;
        # structural blocks (ROB, store buffer, single-step) are lifted
        # only by retire/drain events already accounted for.
        fetch_queue = self.fetch_queue
        if fetch_queue:
            head = fetch_queue[0]
            t = head[0]  # ready_cycle
            if t > now:
                if t < wake:
                    wake = t
            elif len(rob) < self.core_cfg.rob_size and not (self.single_step and rob):
                if not (
                    head[2].op is Op.STORE
                    and self.sb_count >= self.core_cfg.store_buffer_size
                ):
                    return now
        # Fetch: active whenever there is room and the frontend is not
        # stalled; a hardware-TLB refill stall expires at a known cycle.
        if (
            not self.halted
            and not self.fetch_stalled
            and len(fetch_queue) < self.core_cfg.fetch_queue_size
        ):
            t = self.stall_fetch_until
            if t <= now:
                return now
            if t < wake:
                wake = t
        return wake

    # -- completions ----------------------------------------------------
    def _do_completions(self, now: int) -> None:
        heap = self.completions
        if not heap or heap[0][0] > now:
            return
        # Hot path: hoist bound methods and the ready list out of the loop,
        # and inline the producer wake-up (DynInstr.set_src).
        heappop = heapq.heappop
        ready_append = self.ready.append
        completed = DynState.COMPLETED
        dispatched = DynState.DISPATCHED
        tracer = self.tracer
        while heap and heap[0][0] <= now:
            entry = heappop(heap)[2]
            if entry.squashed:
                continue
            entry.state = completed
            entry.complete_cycle = now
            if tracer is not None:
                tracer.complete(entry, now)
            result = entry.result
            if result is not None:
                for dependent, slot in entry.dependents:
                    if not dependent.squashed:
                        if slot == 1:
                            dependent.val1 = result
                        else:
                            dependent.val2 = result
                        pending = dependent.pending - 1
                        dependent.pending = pending
                        if pending == 0 and dependent.state == dispatched:
                            ready_append(dependent)
                entry.dependents = []
            if entry.inst.is_branch:
                self.predictor.update(entry.pc, entry.actual_next != entry.pc + 1)
                if entry.actual_next != entry.predicted_next:
                    self.mispredicts += 1
                    self._squash_after(entry)
                    self._redirect_fetch(entry.actual_next)

    # -- store drain ------------------------------------------------------
    def _do_drain(self, now: int) -> None:
        inflight = self._drain_inflight
        if inflight is not None:
            if now < inflight[2]:
                return
            self._drain_inflight = None
            self.sb_count -= 1
        if self.drain:
            addr, value = self.drain[0]
            done = self.port.store_f(addr, value, now)
            if done is None:
                return
            self.drain.popleft()
            self._drain_inflight = (addr, value, done)

    @property
    def drain_empty(self) -> bool:
        return not self.drain and self._drain_inflight is None

    # -- retirement -------------------------------------------------------
    def _do_retire(self, now: int) -> None:
        width = self.core_cfg.width
        # 1. Architecturally retire entries the gate has cleared.  The
        # precheck keeps the common nothing-to-release cycle free of the
        # pop's list allocation and deque churn.
        gate = self.gate
        if gate.has_retirable(now):
            for entry in gate.pop_retirable(now, width):
                if entry.squashed:
                    continue
                self._retire(entry, now)
        # 2. Offer the oldest completed-but-unchecked entries to the gate.
        unchecked = self._unchecked
        if not unchecked:
            return
        completed = DynState.COMPLETED
        if unchecked[0].state != completed:
            return  # head of the unchecked region not done: nothing to offer
        offered = 0
        in_check = DynState.IN_CHECK
        while unchecked and offered < width:
            entry = unchecked[0]
            if entry.state != completed:
                break
            unchecked.popleft()
            entry.state = in_check
            gate.offer(entry, now)
            offered += 1
            if (
                self._interrupts
                and not self.single_step
                and not entry.injected
                and gate.users_offered >= self._interrupts[0][0]
            ):
                # Service at the in-order offer boundary: no younger
                # entry has reached the gate yet, so the squash below
                # touches only unoffered in-flight state and both cores
                # of a pair — even a heterogeneous little-mute pair with
                # a different pipeline depth — pick the identical stream
                # point (gate.users_offered is a pure function of the
                # correct-path instruction stream).
                self._service_interrupt(entry)
                break
        self._check_pending += offered

    def _retire(self, entry: DynInstr, now: int) -> None:
        """Update architectural state for one checked instruction.

        The gate releases strictly in offer order, so ``entry`` is always
        the ROB head here.
        """
        self.rob.popleft()
        self._check_pending -= 1
        entry.state = DynState.RETIRED
        if self.tracer is not None:
            self.tracer.retire(entry, now)
        inst = entry.inst
        op = inst.op
        self.total_retired += 1
        if op is Op.STORE:
            store_entries = self._store_entries
            if store_entries and store_entries[0] is entry:
                store_entries.popleft()
            self.drain.append((entry.addr, entry.store_value))
            # sb_count is released when the drain completes.
        elif op is Op.HALT:
            self.halted = True

        if inst.writes_reg:
            # Clear the displaced-producer link so retired entries never
            # chain-retain their predecessors.
            entry.prev_producer = None
            if entry.result is not None:
                self.arf.write(inst.rd, entry.result)
            rename = self.rename
            if rename.get(inst.rd) is entry:
                del rename[inst.rd]

        if entry.injected:
            self.injected_retired += 1
            if entry.fill_addr is not None:
                self.port.dtlb_fill(entry.fill_addr)
            return

        self.user_retired += 1
        if self.retire_hook is not None:
            self.retire_hook(entry)
        if inst.is_mem:
            self.user_mem_retired += 1
        if entry.serializing:
            self.serializing_retired += 1

        if inst.op is Op.TRAP:
            # User-level traps redirect fetch through the trap vector:
            # model as a full pipeline flush and refetch.
            self._squash_after(entry)
            self._redirect_fetch(entry.pc + 1)
        elif not self.single_step:
            # External interrupts are serviced at the in-order *offer*
            # boundary (see _do_retire's offer loop), not here: at retire
            # time younger entries have already entered the check gate,
            # and squashing them would desynchronize interval contents
            # across a heterogeneous pair.
            if self.synthetic_itlb is not None and self.synthetic_itlb(
                self.user_retired
            ):
                self.itlb_misses += 1
                self._take_synthetic_tlb_miss(entry, now)

    # -- external interrupts ----------------------------------------------
    def schedule_interrupt(self, at_user_count: int, handler: list[Instruction]) -> None:
        """Service an interrupt after retiring ``at_user_count`` user instrs.

        The pair controller schedules the *same* count on vocal and mute,
        so both service the interrupt at an identical program point —
        the paper's fingerprint-comparison-based alignment (Section 4.3).
        """
        self._interrupts.append((at_user_count, handler))
        self._skip_until = 0

    def _service_interrupt(self, entry: DynInstr) -> None:
        """Squash past ``entry`` and inject the handler.

        ``entry`` itself stays live: it was just offered to the gate and
        retires through it normally (``_squash_after`` spares it).
        """
        _, handler = self._interrupts.popleft()
        self.interrupts_serviced += 1
        resume = entry.actual_next if entry.actual_next is not None else entry.pc + 1
        self._squash_after(entry)
        self.fetch_queue.clear()
        self.injection.clear()
        for inst in handler:
            self.injection.append((inst, None))
        self._injection_resume = resume
        self.fetch_stalled = False

    def _take_synthetic_tlb_miss(self, entry: DynInstr, now: int) -> None:
        """Instruction-fetch TLB miss charged at retirement of instr n."""
        resume = entry.actual_next if entry.actual_next is not None else entry.pc + 1
        if self.config.tlb.mode is TLBMode.SOFTWARE:
            self._squash_after(entry)
            self._inject_handler(page=self.user_retired, fill_addr=None, resume_pc=resume)
        else:
            self.stall_fetch_until = max(
                self.stall_fetch_until, now + self.config.tlb.hw_fill_latency
            )

    # -- issue ---------------------------------------------------------------
    def _do_issue(self, now: int) -> None:
        self._issue_serializing(now)

        if not self.ready:
            return
        self.ready.sort(key=_BY_SEQ)
        issue_budget = self.issue_width
        load_ports = self.core_cfg.load_ports
        ser_limit = self._oldest_active_serializing()
        remaining: list[DynInstr] = []
        # Hot path: cache the append bound method and state constant.
        defer = remaining.append
        dispatched = DynState.DISPATCHED

        for entry in self.ready:
            if entry.squashed or entry.state != dispatched:
                continue
            if issue_budget == 0:
                defer(entry)
                continue
            op = entry.inst.op
            if entry.serializing or op is Op.HALT:
                defer(entry)  # handled by _issue_serializing
                continue
            if ser_limit is not None and entry.seq > ser_limit:
                defer(entry)  # blocked behind a serializing op
                continue
            if op is Op.LOAD:
                if load_ports == 0:
                    defer(entry)
                    continue
                outcome = self._issue_load(entry, now)
                if outcome == "trap":
                    return  # pipeline flushed; ready list rebuilt
                if outcome == "wait":
                    defer(entry)
                    continue
                load_ports -= 1
            elif op is Op.STORE:
                if not self._issue_store(entry, now):
                    return  # TLB trap flush
            else:
                self._issue_simple(entry, now)
            issue_budget -= 1

        self.ready = remaining

    def _issue_simple(self, entry: DynInstr, now: int) -> None:
        """ALU ops, branches, jumps, nops: compute and schedule completion."""
        inst = entry.inst
        op = inst.op
        latency = self.core_cfg.alu_latency
        if inst.is_alu:
            entry.result = alu_result(op, entry.val1 or 0, entry.val2 or 0, inst.imm)
            if op is Op.MUL:
                latency = self.core_cfg.mul_latency
        elif inst.is_branch:
            taken = branch_taken(op, entry.val1 or 0, entry.val2 or 0)
            entry.actual_next = inst.target if taken else entry.pc + 1
        elif op is Op.JUMP:
            entry.actual_next = inst.target
        if self.fault_hook is not None:
            self.fault_hook(entry)
        entry.state = DynState.ISSUED
        self._schedule(entry, now + latency, now)

    def _issue_load(self, entry: DynInstr, now: int) -> str:
        """Try to issue a load; returns 'done', 'wait', or 'trap'."""
        if entry.addr is None:
            # Operands are immutable once captured, so compute the
            # effective address once across issue retries.
            entry.addr = effective_address(entry.val1 or 0, entry.inst.imm)

        if self.single_step and self.pair_sync_atomics and not entry.injected:
            # Re-execution protocol: the first load is issued by both
            # cores as a synchronizing request (Definition 11).
            if not self.drain_empty:
                return "wait"
            self.port.dtlb_fill(entry.addr)
            entry.state = DynState.ISSUED
            self.sync_request = entry
            return "done"

        blocker = entry.wait_on
        if blocker is not None:
            if blocker.addr is None and not blocker.squashed:
                return "wait"  # memoized "blocked" (see DynInstr.wait_on)
            entry.wait_on = None

        if self._store_entries or self.drain or self._drain_inflight is not None:
            forwarded = self._forward_from_stores(entry)
        else:
            forwarded = None
        if forwarded == "blocked":
            return "wait"
        if isinstance(forwarded, int):
            entry.result = forwarded
            if self.fault_hook is not None:
                # Store-to-load forwarding is unprotected datapath — one of
                # the coverage gaps of a strict LVQ that relaxed input
                # replication closes (Section 2.3).
                self.fault_hook(entry)
            entry.state = DynState.ISSUED
            self._schedule(entry, now + 1, now)
            return "done"

        extra = 0
        if not entry.injected and not self.port.dtlb_hit(entry.addr):
            self.dtlb_misses += 1
            if self.sw_tlb:
                self._take_dtlb_trap(entry, now)
                return "trap"
            extra = self.config.tlb.hw_fill_latency
            self.port.dtlb_fill(entry.addr)

        access = self.port.load(entry.addr, now)
        if access.retry:
            return "wait"
        entry.result = access.value
        if self.fault_hook is not None:
            self.fault_hook(entry)
        entry.state = DynState.ISSUED
        self._schedule(entry, access.done + extra, now)
        return "done"

    def _issue_store(self, entry: DynInstr, now: int) -> bool:
        """Compute a store's address and value (no memory access yet)."""
        inst = entry.inst
        entry.addr = effective_address(entry.val1 or 0, inst.imm)
        entry.store_value = entry.val2 or 0
        if not entry.injected and not self.port.dtlb_hit(entry.addr):
            self.dtlb_misses += 1
            if self.sw_tlb:
                self._take_dtlb_trap(entry, now)
                return False
            self.port.dtlb_fill(entry.addr)
            # Hardware fill overlaps with the store's time in the buffer.
        if self.fault_hook is not None:
            # Store address/value generation is unprotected datapath too:
            # an upset here corrupts the fingerprint's store-stream words
            # (the other input class besides results and branch targets).
            self.fault_hook(entry)
        entry.state = DynState.ISSUED
        self._schedule(entry, now + 1, now)
        return True

    def _forward_from_stores(self, load: DynInstr) -> int | str | None:
        """Store-to-load forwarding across ROB stores and the drain queue.

        Returns a value when forwarding succeeds, "blocked" when an older
        store is unresolved (conservative disambiguation), or None when
        the load may go to memory.
        """
        addr = load.addr
        for store in reversed(self._store_entries):
            if store.squashed:
                continue
            if store.seq >= load.seq:
                continue
            if store.state == DynState.RETIRED:
                break  # retired stores are visible via the drain queue
            if store.addr is None:
                load.wait_on = store  # memoize: skip rescans until resolved
                return "blocked"
            if store.addr == addr:
                if store.store_value is None:
                    return "blocked"
                return store.store_value
        for drain_addr, drain_value in reversed(self.drain):
            if drain_addr == addr:
                return drain_value
        inflight = self._drain_inflight
        if inflight is not None and inflight[0] == addr:
            return inflight[1]
        return None

    def _issue_serializing(self, now: int) -> None:
        """Serializing ops (and HALT) execute only at the head of the ROB.

        Being at the head means every older instruction has been compared
        and retired — requirement (1) of Section 4.4.  Requirement (2),
        that younger instructions stall, is enforced in ``_do_issue`` via
        ``_oldest_active_serializing``.
        """
        if not self.rob:
            return
        # When the next unchecked instruction is serializing and ready,
        # end the open fingerprint interval immediately so the older
        # instructions ahead of it can compare and retire (Section 4.4).
        unchecked = self._unchecked
        if unchecked:
            waiting = unchecked[0]
            if (
                (waiting.serializing or waiting.inst.op is Op.HALT)
                and waiting.pending == 0
                and waiting.state == DynState.DISPATCHED
            ):
                self.gate.close_open(now)
        entry = self.rob[0]
        if entry.state != DynState.DISPATCHED or entry.pending != 0:
            return
        inst = entry.inst
        if not (entry.serializing or inst.op is Op.HALT):
            return

        op = inst.op
        if op in (Op.MEMBAR, Op.ATOMIC, Op.CAS) and not self.drain_empty:
            return
        if self.sc_mode and op is Op.STORE and not self.drain_empty:
            return

        if op is Op.HALT or op is Op.MEMBAR or op is Op.TRAP:
            entry.state = DynState.ISSUED
            self._schedule(entry, now + 1, now)
        elif op is Op.MMUOP:
            entry.state = DynState.ISSUED
            self._schedule(entry, now + self.core_cfg.mmuop_latency, now)
        elif op is Op.STORE:  # SC-mode serializing store
            self._issue_store(entry, now)
        elif op in (Op.ATOMIC, Op.CAS):
            self._issue_atomic(entry, now)

    def _issue_atomic(self, entry: DynInstr, now: int) -> None:
        inst = entry.inst
        entry.addr = effective_address(entry.val1 or 0, inst.imm)
        if not entry.injected and not self.port.dtlb_hit(entry.addr):
            self.dtlb_misses += 1
            if self.sw_tlb:
                self._take_dtlb_trap(entry, now)
                return
            self.port.dtlb_fill(entry.addr)
        if self.pair_sync_atomics:
            # Reunion: atomics are synchronizing requests, performed once
            # by the shared cache controller when both cores arrive.
            entry.state = DynState.ISSUED
            self.sync_request = entry
            return
        access = self.port.rmw_read(entry.addr, now)
        if access.retry:
            return
        rd_value, new_value = atomic_result(inst.op, access.value, entry.val2 or 0, inst.imm)
        entry.result = rd_value
        if new_value is not None:
            self.port.rmw_write(entry.addr, new_value)
        entry.state = DynState.ISSUED
        self._schedule(entry, access.done, now)

    def complete_sync(self, entry: DynInstr, value: int, done: int) -> None:
        """Pair controller delivers a synchronizing-request reply.

        For atomics the controller has already applied the memory update;
        ``value`` is the single coherent value returned to both cores.
        """
        self._skip_until = 0
        if entry.squashed:
            self.sync_request = None
            return
        entry.result = value
        self.sync_request = None
        if self._soa:
            # `entry` is a FlatView: re-pack its ref and use the flat
            # scheduler so the completion heap stays homogeneous.
            self._flat_sched((entry._q << self._f_sbits) | entry._s, done)
        else:
            self._schedule(entry, done)

    def _oldest_active_serializing(self) -> int | None:
        """Smallest seq of an unretired serializing instruction, if any."""
        heap = self._ser_heap
        while heap:
            seq, entry = heap[0]
            if entry.squashed or entry.state == DynState.RETIRED:
                heapq.heappop(heap)
                continue
            return seq
        return None

    def _schedule(self, entry: DynInstr, cycle: int, now: int | None = None) -> None:
        if self.tracer is not None:
            self.tracer.issue(entry, cycle if now is None else now)
        heapq.heappush(self.completions, (cycle, entry.seq, entry))

    # -- TLB traps -------------------------------------------------------------
    def _take_dtlb_trap(self, entry: DynInstr, now: int) -> None:
        """Software TLB miss on a data access: flush and run the handler."""
        page = entry.addr >> self.config.tlb.page_bits
        self._squash_from(entry)
        self._inject_handler(page=page, fill_addr=entry.addr, resume_pc=entry.pc)

    def _inject_handler(self, page: int, fill_addr: int | None, resume_pc: int) -> None:
        """Queue the software fast-miss handler for injection at fetch."""
        self.fetch_queue.clear()
        self.injection.clear()
        sequence = handler_sequence(page)
        for index, inst in enumerate(sequence):
            is_last = index == len(sequence) - 1
            self.injection.append((inst, fill_addr if is_last else None))
        self._injection_resume = resume_pc
        self.fetch_stalled = False

    # -- dispatch ----------------------------------------------------------------
    def _do_dispatch(self, now: int) -> None:
        width = self.core_cfg.width
        rob_size = self.core_cfg.rob_size
        sb_size = self.core_cfg.store_buffer_size
        dispatched = 0
        while dispatched < width and self.fetch_queue:
            fetched = self.fetch_queue[0]
            if fetched[0] > now or len(self.rob) >= rob_size:
                break
            inst = fetched[2]
            if inst.op is Op.STORE and self.sb_count >= sb_size:
                break
            if self.single_step and self.rob:
                break  # one instruction at a time during re-execution
            self.fetch_queue.popleft()
            self._dispatch_one(fetched, now)
            dispatched += 1

    def _dispatch_one(self, fetched: tuple, now: int) -> None:
        inst = fetched[2]
        entry = DynInstr(self._next_seq, fetched[1], inst, injected=fetched[3])
        self._next_seq += 1
        entry.predicted_next = fetched[4]
        entry.fill_addr = fetched[5]
        entry.serializing = inst.is_serializing or (self.sc_mode and inst.op is Op.STORE)

        # Capture operands / subscribe to producers.
        op = inst.op
        if op is not Op.MOVI:
            needs1 = inst.rs1 != 0 and (
                inst.is_alu or inst.is_mem or inst.is_branch
            )
            needs2 = inst.rs2 != 0 and (
                (inst.is_alu and not inst.imm_form)
                or inst.is_branch
                or op is Op.STORE
                or op is Op.ATOMIC
                or op is Op.CAS
            )
            if needs1:
                self._capture(entry, 1, inst.rs1)
            else:
                entry.val1 = 0 if inst.rs1 == 0 else None
                if entry.val1 is None:
                    entry.val1 = self.arf.read(inst.rs1)
            if needs2:
                self._capture(entry, 2, inst.rs2)
            else:
                entry.val2 = 0

        if inst.writes_reg:
            entry.prev_producer = self.rename.get(inst.rd)
            self.rename[inst.rd] = entry

        if op is Op.STORE:
            self.sb_count += 1
            self._store_entries.append(entry)
        if entry.serializing or op is Op.HALT:
            heapq.heappush(self._ser_heap, (entry.seq, entry))

        # Non-branch control flow resolves immediately; branches carry the
        # prediction and verify at completion.
        if not inst.is_control or op is Op.HALT:
            entry.actual_next = entry.pc + 1
        elif op is Op.JUMP:
            entry.actual_next = inst.target

        self.rob.append(entry)
        self._unchecked.append(entry)
        if self.tracer is not None:
            self.tracer.dispatch(entry, now)
        if entry.pending == 0:
            self.ready.append(entry)

    def _capture(self, entry: DynInstr, slot: int, reg: int) -> None:
        producer = self.rename.get(reg)
        if producer is not None and not producer.squashed:
            producer.consumed = True
        if producer is None or producer.squashed:
            value = self.arf.read(reg)
            if slot == 1:
                entry.val1 = value
            else:
                entry.val2 = value
        elif producer.result is not None:
            if slot == 1:
                entry.val1 = producer.result
            else:
                entry.val2 = producer.result
        else:
            entry.pending += 1
            producer.dependents.append((entry, slot))

    # -- fetch ---------------------------------------------------------------------
    def _do_fetch(self, now: int) -> None:
        if self.halted or now < self.stall_fetch_until:
            return
        width = self.core_cfg.width
        cap = self.core_cfg.fetch_queue_size
        fetched = 0
        ready = now + self.core_cfg.frontend_latency
        while fetched < width and len(self.fetch_queue) < cap and not self.fetch_stalled:
            if self.injection:
                inst, fill_addr = self.injection.popleft()
                if self.mirror_watch:
                    # Injected handlers perform loads; end the window.
                    self.mirror_trigger = True
                self.fetch_queue.append(
                    (ready, self._injection_resume or 0, inst, True, None, fill_addr, -1)
                )
                if not self.injection and self._injection_resume is not None:
                    self.pc = self._injection_resume
                    self._injection_resume = None
                fetched += 1
                continue
            inst = self.program.fetch(self.pc)
            if self.mirror_watch and (
                inst.is_mem or inst.is_serializing or inst.op is Op.HALT
            ):
                # The first memory / serializing / halt instruction ends
                # the mirror window.  Fetch leads dispatch by a cycle and
                # issue by two, so the pair controller (which runs after
                # this core's step) materializes the mute strictly before
                # this instruction can touch shared state.
                self.mirror_trigger = True
            predicted_next = None
            pc = self.pc
            if inst.is_branch:
                taken = self.predictor.predict(pc)
                predicted_next = inst.target if taken else pc + 1
                self.pc = predicted_next
            elif inst.op is Op.JUMP:
                self.pc = inst.target
            elif inst.op is Op.HALT:
                self.fetch_stalled = True
            else:
                self.pc = pc + 1
            self.fetch_queue.append((ready, pc, inst, False, predicted_next, None, -1))
            fetched += 1
            if self.single_step:
                break

    # -- squash / recovery -------------------------------------------------------------
    def _squash_after(self, entry: DynInstr) -> None:
        """Squash everything younger than ``entry`` (branch/trap redirect)."""
        self._squash_to(entry.seq + 1)

    def _squash_from(self, entry: DynInstr) -> None:
        """Squash ``entry`` and everything younger (TLB trap)."""
        self._squash_to(entry.seq)

    def _squash_to(self, first_bad_seq: int) -> None:
        rob = self.rob
        while rob and rob[-1].seq >= first_bad_seq:
            victim = rob.pop()
            victim.squashed = True
            if self.tracer is not None:
                self.tracer.squash(victim)
            if victim.state == DynState.IN_CHECK:
                self._check_pending -= 1
            else:
                unchecked = self._unchecked
                if unchecked and unchecked[-1] is victim:
                    unchecked.pop()
            inst = victim.inst
            if inst.op is Op.STORE and victim.state != DynState.RETIRED:
                self.sb_count -= 1
            if inst.writes_reg and self.rename.get(inst.rd) is victim:
                previous = victim.prev_producer
                if previous is not None and not previous.squashed and previous.state != DynState.RETIRED:
                    self.rename[inst.rd] = previous
                else:
                    del self.rename[inst.rd]
        self._store_entries = deque(s for s in self._store_entries if not s.squashed)
        if self.sync_request is not None and self.sync_request.squashed:
            self.sync_request = None
        self.ready = [e for e in self.ready if not e.squashed]
        self.fetch_queue.clear()
        self.injection.clear()
        self._injection_resume = None
        self.fetch_stalled = False

    def _redirect_fetch(self, new_pc: int) -> None:
        self.pc = new_pc
        self.fetch_stalled = False

    def hard_reset(self, program: Program, now: int) -> None:
        """Reset all architectural and microarchitectural state for a new
        program — used when a core is repurposed (dual-use switching)."""
        if self.rob:
            if self._soa:
                self._flat_squash_to(self.f_seq[self.rob[0]])
            else:
                self._squash_to(self.rob[0].seq)
        self.gate.flush()
        # flush() deliberately preserves the cumulative offer count
        # (recovery re-offers must keep counting); a repurposed core
        # starts a fresh stream, so zero it here.
        self.gate.users_offered = 0
        self.completions.clear()
        self.rename.clear()
        self.ready.clear()
        self._store_entries.clear()
        self._ser_heap.clear()
        self.drain.clear()
        self._drain_inflight = None
        self.sb_count = 0
        self._check_pending = 0
        self._unchecked.clear()
        self.sync_request = None
        self.single_step = False
        self._interrupts.clear()
        self.program = program
        if self._soa:
            self._bind_decode()
        self.arf = RegisterFile()
        for index, value in program.initial_regs.items():
            self.arf.write(index, value)
        self.pc = program.entry
        self.halted = False
        self.fetch_stalled = False
        self.stall_fetch_until = max(self.stall_fetch_until, now + 1)

    # -- recovery support (called by the pair controller) ----------------------------
    def drain_cleared(self, now: int) -> None:
        """Retire every instruction the gate has already cleared.

        Used at the start of recovery so both cores' architectural state
        reflects the full compared prefix before rollback.
        """
        self._skip_until = 0
        if self._soa:
            f_seq = self.f_seq
            smask = self._f_smask
            sbits = self._f_sbits
            while True:
                cleared = self.gate.pop_retirable_f(self, now, 1 << 30)
                if not cleared:
                    return
                for packed in cleared:
                    if f_seq[packed & smask] == packed >> sbits:
                        self._flat_retire_one(packed & smask, now)
            return
        while True:
            cleared = self.gate.pop_retirable(now, 1 << 30)
            if not cleared:
                return
            for entry in cleared:
                if not entry.squashed:
                    self._retire(entry, now)

    def next_retire_pc(self) -> int:
        """PC of the oldest unretired instruction (rollback target)."""
        if self.rob:
            head = self.rob[0]
            return self.f_pc[head] if self._soa else head.pc
        if self.fetch_queue:
            return self.fetch_queue[0][1]  # pc
        return self.pc

    def flush_for_recovery(self, resume_pc: int, now: int, penalty: int) -> None:
        """Precise-exception rollback to the last safe state.

        Discards every unretired instruction and all check state; the ARF
        and non-speculative store buffer (drain queue) are untouched —
        they *are* the safe state.
        """
        if self._soa:
            self._flat_squash_to(self.f_seq[self.rob[0]] if self.rob else 0)
        elif self.rob:
            self._squash_to(self.rob[0].seq)
        else:
            self._squash_to(0)
        self.gate.flush()
        self.completions.clear()
        self._check_pending = 0
        self._unchecked.clear()
        self.pc = resume_pc
        self.fetch_stalled = False
        self.halted = False
        self.stall_fetch_until = max(self.stall_fetch_until, now + penalty)
        self.sync_request = None
