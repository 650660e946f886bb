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
from bisect import bisect_left, bisect_right
from collections import deque
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
)
from repro.isa.instructions import Instruction
from repro.isa.opcodes import Op
from repro.isa.program import Program
from repro.isa.registers import WORD_MASK, RegisterFile
from repro.isa.semantics import atomic_result, effective_address
from repro.memory.port import CoreMemPort
from repro.pipeline.branch_predictor import BranchPredictor
from repro.pipeline.flat import M_CONSUMED, M_INJECTED, FlatView
from repro.pipeline.gates import NEVER, ImmediateGate, RetireGate
from repro.pipeline.tlb_handler import handler_sequence
from repro.sim.config import Consistency, SystemConfig, TLBMode

#: Serializing-or-HALT: issued only at the ROB head, by
#: _flat_issue_serializing.
_F_SER_HALT = F_SER | F_HALT

#: The flat ring's value columns, each with the value a fresh ring holds
#: (``OoOCore._init_flat``).  ``f_deps``, one edge list per slot, is
#: allocated beside them.  Mirror materialization copies these by name.
FLAT_COLUMNS = {
    "f_seq": -1,  # -1 = free slot
    "f_pc": 0,
    "f_inst": None,
    "f_state": 0,  # DynState ints
    "f_pend": 0,
    "f_v1": None,
    "f_v2": None,
    "f_res": None,
    "f_addr": None,
    "f_sval": None,
    "f_pred": None,
    "f_anext": None,
    "f_fill": None,
    "f_flags": 0,  # decode F_* masks
    "f_mask": 0,  # packed booleans (repro.pipeline.flat M_*)
    "f_wo": -1,  # wait_on: the store a load is parked on
    "f_pp": -1,  # prev_producer: displaced rename packed ref
    "f_row": 0,  # decode row (past the program's if injected)
    # In-check clearance, stamped by the gate at offer: an interval
    # index >= 0, or a fixed retire cycle c stored as -1 - c.
    "f_chk": 0,
}

# A fetched instruction waiting for dispatch is a plain 7-tuple (cheaper
# to build and copy than a slotted object at fetch-queue rates):
#   (ready_cycle, pc, inst, injected, predicted_next, fill_addr, row)
# ``row`` indexes the pre-decoded tables (see repro.isa.decode): the PC
# for user instructions, a row past the program's for injected handler
# instructions, whose ``pc`` is the PC fetch resumes at.


class OoOCore:
    """One physical core: frontend, ROB, execution, store buffer, retire."""

    def __init__(
        self,
        core_id: int,
        config: SystemConfig,
        program: Program,
        port: CoreMemPort,
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
        #: :meth:`set_issue_width` so the hoisted copy stays coherent.
        self.issue_width = config.core.width
        self.program = program
        self.port = port
        #: Swapped for a checking gate by Strict and Reunion systems.
        self.gate: RetireGate = ImmediateGate()
        self.synthetic_itlb = synthetic_itlb
        self.sc_mode = config.consistency is Consistency.SC
        self.sw_tlb = config.tlb.mode is TLBMode.SOFTWARE

        self.arf = RegisterFile()
        for index, value in program.initial_regs.items():
            self.arf.write(index, value)

        # Frontend.
        self.pc = program.entry
        self.fetch_queue: deque[tuple] = deque()
        #: Injected handler instructions awaiting fetch: (row, fill_addr).
        self.injection: deque[tuple[int, int | None]] = deque()
        self._injection_resume: int | None = None
        self.predictor = BranchPredictor(self.core_cfg.branch_predictor_entries)
        self.fetch_stalled = False  # set after fetching HALT

        # Backend.  In-flight state lives in the flat ring (_init_flat);
        # the ROB holds ring slots, every other container packed refs.
        self.rob: deque[int] = deque()
        self.rename: dict[int, int] = {}
        self.ready: list[int] = []
        self.completions: list[tuple[int, int]] = []  # (cycle, packed) heap
        self._store_entries: deque[int] = deque()
        #: Loads parked on an older store whose address is unknown, keyed
        #: by the store's packed ref: the store's issue splices them back
        #: into the ready scan (see _flat_issue).  Every key is a live,
        #: unissued store; squash drops the lists of squashed stores.
        self._parked: dict[int, list[int]] = {}
        self._ser_heap: list[int] = []
        self._next_seq = 0

        # Store buffer: speculative stores live in the ROB; checked stores
        # wait in `drain` and leave one at a time through the L1 write port.
        self.drain: deque[tuple[int, int]] = deque()
        self.sb_count = 0
        self._drain_inflight: tuple[int, int, int] | None = None  # (addr, val, done)

        # Pair-coordination state (Reunion).
        self.pair_sync_atomics = False  # pair controller flips this on
        self.single_step = False
        self.sync_request: FlatView | None = None
        #: Owning LogicalPair, if any (lets the fault injector disable
        #: the replay fast path when it hooks a paired core).
        self.pair = None

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
        #: Interrupts whose handler is in flight, oldest first, each as
        #: (seq of the handler's last instruction, interrupt).  One counts
        #: as serviced when that instruction retires; a squash that
        #: reaches any of its handler first puts it back in _interrupts.
        self._irq_live: deque[tuple[int, tuple[int, list[Instruction]]]] = deque()
        #: Seq of the youngest live handler's last instruction, or -1.
        self._irq_end = -1
        self.interrupts_serviced = 0

        self.halted = False
        self.stall_fetch_until = 0
        #: Length of the ROB's in-check prefix (offered, not retired):
        #: ``rob[_n_check]`` is the oldest unoffered entry.
        self._n_check = 0
        #: In-check victims of a retirement-time squash that the retire
        #: walk had not reached; counted until the next walk (see
        #: check_backlog).
        self._dropped = 0

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
        self.fault_hook: Callable[[FlatView], None] | None = None
        #: Optional retirement observer (see repro.core.bandwidth).
        self.retire_hook: Callable[[FlatView], None] | None = None
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

        # The flat ring: bind the pre-decoded tables, hoist the config
        # scalars the stages read per call, and allocate the columns.
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

    # ------------------------------------------------------------------
    # Per-cycle step over the flat ring: completions -> drain -> retire
    # -> issue -> dispatch -> fetch.
    #
    # The program is pre-decoded once into flat parallel tables
    # (repro.isa.decode), and ALL in-flight instruction state lives in
    # preallocated per-core column lists over a power-of-two ring of
    # ``rob_size``-bounded slots: the steady-state dispatch → issue →
    # complete → retire loop never constructs a Python object per
    # instruction.  In-flight references are packed ints
    # ``(seq << _f_sbits) | slot``; a reference is live iff
    # ``f_seq[slot] == packed >> _f_sbits`` (seqs are globally unique and
    # monotone, so a freed-and-reused slot can never false-match), and
    # packed order equals program (seq) order, so sorts and heap
    # tie-breaks follow program order.
    #
    # Entry-shaped views (repro.pipeline.flat.FlatView, per-slot
    # singletons) materialize lazily only on cold paths: fault-injection
    # / retire / tracer hooks, sync-request servicing and squash
    # logging.  The retire gates (gates.py, check_stage.py) speak the
    # ``*_f`` protocol over the same columns.
    #
    # tests/sim/test_golden.py pins this loop's results, cold paths
    # included, as digests.
    # ------------------------------------------------------------------
    def set_issue_width(self, width: int) -> None:
        """Narrow (or restore) the issue stage — little-mute policies.

        Updates the hoisted copy the issue stage reads as well.
        """
        if width < 1 or width > self.core_cfg.width:
            raise ValueError(
                f"issue width must be in [1, {self.core_cfg.width}], got {width}"
            )
        self.issue_width = width
        self._c_issue_width = width

    def _init_flat(self) -> None:
        """Allocate the ring columns (plain lists, not int arrays).

        The columns deliberately stay plain Python lists rather than the
        ``array('q')``/numpy columns one might expect: ``None`` is a
        load-bearing value in the reference semantics (an unresolved
        store address means "conservatively block younger loads", an
        absent result means "do not write the ARF / fingerprint"), and
        values are arbitrary-precision ints.  The win here is removing
        the per-instruction allocation, not narrowing storage.
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
        for name, fresh in FLAT_COLUMNS.items():
            setattr(self, name, [fresh] * cap)
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
            self.f_fill,
            self.f_flags,
            self.f_mask,
            self.f_wo,
            self.f_pp,
            self.f_deps,
        )

    def _view(self, slot: int) -> FlatView:
        """The slot's singleton view, stamped with its current seq."""
        view = self._f_views[slot]
        view._q = self.f_seq[slot]
        return view

    def _bind_decode(self) -> None:
        d = self._decoded = decode_program(self.program, self.sc_mode)
        # Hoist bundle for fetch/dispatch/issue (see _f_cols): rebuilt
        # whenever the program is rebound (hard_reset), so it is always
        # current.
        self._d_cols = (
            d.flags, d.rs1, d.rs2, d.rd, d.target, d.inst, d.n,
            d.kern, d.btake,
        )

    def step(self, now: int) -> None:
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
        if fq and fq[0][0] <= now and len(rob) < self._c_rob_size:
            self._flat_dispatch(now)
        self._do_fetch(now)

    def _flat_issue(self, now: int) -> None:
        """Issue stage: serializing ops at the ROB head, then the ready
        list in program order (ALU ops, branches, jumps and nops inline).

        The scan stops at the first ref younger than the oldest in-flight
        serializing instruction (Section 4.4: nothing younger may issue)
        and as soon as the issue budget is spent; the unscanned tail
        stays in ``ready`` as it is.  Loads blocked behind a store with
        an unknown address are not in ``ready`` at all: they wait in
        ``_parked`` until that store issues.
        """
        sbits = self._f_sbits
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
        # The first packed ref the scan may not reach (every live ref
        # lies below ``_next_seq << sbits``).
        if ser_limit is None:
            stop = self._next_seq << sbits
        else:
            stop = (ser_limit + 1) << sbits
        (
            f_seq,
            f_pc,
            f_inst,
            f_state,
            _,
            f_v1,
            f_v2,
            f_res,
            _,
            _,
            _,
            f_anext,
            _,
            f_flags,
            _,
            _,
            _,
            _,
        ) = self._f_cols
        smask = self._f_smask
        parked = self._parked
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
            if packed >= stop:
                break
            slot = packed & smask
            if f_seq[slot] != packed >> sbits or f_state[slot] != 0:
                continue  # squashed, or already issued on an earlier scan
            f = f_flags[slot]
            if f & _F_SER_HALT:
                defer(packed)
                continue
            if f & F_LOAD:
                if load_ports == 0:
                    defer(packed)
                    continue
                outcome = self._flat_issue_load(slot, packed, now)
                if outcome:
                    if outcome == 1:
                        defer(packed)
                    elif outcome == 2:
                        return  # TLB trap: pipeline flushed, ready list rebuilt
                    continue  # 1 = retry next cycle, 3 = parked
                load_ports -= 1
            elif f & F_STORE:
                if not self._flat_issue_store(slot, packed, now):
                    return  # TLB trap flush
                if parked:
                    waiters = parked.pop(packed, None)
                    if waiters is not None:
                        # Its parked loads are all younger: splice them
                        # into the unscanned tail, in seq order, so they
                        # may still issue in this scan (the loop reads
                        # the spliced list).
                        at = bisect_right(ready, packed)
                        waiters += ready[at:]
                        waiters.sort()
                        ready[at:] = waiters
            else:
                # ALU / branch / jump / nop: _issue_simple over columns.
                latency = alu_latency
                if f & F_ALU:
                    # Pre-bound kernel: no op dispatch, imm baked in.
                    f_res[slot] = d_kern[f_row[slot]](
                        f_v1[slot] or 0, f_v2[slot] or 0
                    )
                    if f & F_MUL:
                        latency = mul_latency
                elif f & F_BRANCH:
                    row = f_row[slot]
                    f_anext[slot] = (
                        d_target[row]
                        if d_btake[row](f_v1[slot] or 0, f_v2[slot] or 0)
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
            if not issue_budget:
                stop = packed + 1
                break
        else:
            self.ready = remaining
            return
        remaining += ready[bisect_left(ready, stop):]
        self.ready = remaining

    def _flat_issue_load(self, slot: int, packed: int, now: int) -> int:
        """Try to issue a load: 0 = done, 1 = wait, 2 = trap, 3 = parked."""
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

        if self._store_entries or self.drain or self._drain_inflight is not None:
            forwarded = self._flat_forward(slot, packed, addr)
        else:
            forwarded = None
        if forwarded == "parked":
            # Wait, off the ready list, on the store _flat_forward named.
            self._parked.setdefault(self.f_wo[slot], []).append(packed)
            return 3
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
        """Compute a store's address and value (no memory access yet)."""
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
        """Store-to-load forwarding across ROB stores and the drain queue.

        Returns a value when forwarding succeeds, "parked" when an older
        store's address is still unknown (conservative disambiguation;
        that store's ref goes to ``f_wo``), "blocked" when the matching
        store has no value yet, or None when the load may go to memory.
        """
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
                self.f_wo[slot] = sp  # the parking key
                return "parked"
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
        """Serializing ops (and HALT) execute only at the head of the ROB.

        Being at the head means every older instruction has been compared
        and retired — requirement (1) of Section 4.4.  Requirement (2),
        that younger instructions stall, is enforced in ``_flat_issue``
        via ``_flat_oldest_ser``.
        """
        rob = self.rob
        if not rob:
            return
        f_state = self.f_state
        f_pend = self.f_pend
        f_flags = self.f_flags
        n_check = self._n_check
        if n_check < len(rob):
            waiting = rob[n_check]
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
            # No load is parked on it, so there is nothing to wake: the
            # serializing limit in _flat_issue holds every younger load
            # back before it could park.
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
        """Smallest seq of an unretired serializing instruction, if any."""
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
        """Dispatch stage: rename, operand capture and ROB insertion, fused.

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
            f_fill,
            f_flags,
            f_mask,
            _,
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
            # fingerprint words, fault targeting), f_wo only right after
            # _flat_forward wrote it, f_fill only when M_INJECTED is set,
            # and f_deps is cleared at completion/squash, not here.
            f_seq[slot] = seq
            f_pc[slot] = pc
            f_inst[slot] = d_inst[row]
            f_state[slot] = 0  # DynState.DISPATCHED
            if fetched[3]:  # an injected handler instruction
                f_mask[slot] = M_INJECTED
                f_fill[slot] = fetched[5]
            else:
                f_mask[slot] = 0
            f_res[slot] = None
            f_pred[slot] = fetched[4]
            f_flags[slot] = f
            f_row[slot] = row
            if f & F_MEM:
                f_addr[slot] = None
                f_sval[slot] = None

            # Operand capture.  (MOVI takes the register-0 path: f_v1 and
            # f_v2 become 0, and neither is read.)
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
            if tracer is not None:
                tracer.dispatch(self._view(slot), now)
            if pending == 0:
                ready_append(packed)
            seq += 1
            dispatched += 1
        self._next_seq = seq
        self._f_tail = tail

    # -- flat completions / retire / squash ----------------------------
    def _flat_completions(self, now: int) -> None:
        """Complete every issued ref due by ``now`` and wake its consumers."""
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
        """Retire the ROB's cleared head, then offer completed entries."""
        self._dropped = 0  # this walk discards the offers a squash dropped
        rob = self.rob
        if self._n_check:
            # _clear_at, inlined: the walk's setup is skipped on the many
            # cycles whose head is still waiting for its comparison.
            chk = self.f_chk[rob[0]]
            gate = self.gate
            at = gate.retire_at[chk & gate.retire_mask] if chk >= 0 else -1 - chk
            if at <= now:
                self._flat_walk(now, self._c_width)
        n_check = self._n_check
        n_rob = len(rob)
        f_state = self.f_state
        if n_check == n_rob or f_state[rob[n_check]] != 2:
            return  # oldest unoffered entry not done: nothing to offer
        width = self._c_width
        gate = self.gate
        gate_offer = gate.offer_f
        f_mask = self.f_mask
        interrupts = self._interrupts
        offered = 0
        while n_check < n_rob and offered < width:
            slot = rob[n_check]
            if f_state[slot] != 2:
                break
            f_state[slot] = 3  # DynState.IN_CHECK
            gate_offer(self, slot, now)
            n_check += 1
            offered += 1
            if (
                interrupts
                and not self.single_step
                and not f_mask[slot] & M_INJECTED
                and gate.users_offered >= interrupts[0][0]
            ):
                # Service at the in-order offer boundary: no younger
                # entry has reached the gate yet, so the squash below
                # touches only unoffered in-flight state and both cores
                # of a pair — even a heterogeneous little-mute pair with
                # a different pipeline depth — pick the identical stream
                # point (gate.users_offered is a pure function of the
                # correct-path instruction stream).
                self._n_check = n_check
                actual_next = self.f_anext[slot]
                resume = actual_next if actual_next is not None else self.f_pc[slot] + 1
                self._flat_service_interrupt(self.f_seq[slot], resume)
                return
        self._n_check = n_check

    def _flat_walk(self, now: int, budget: int) -> None:
        """Retire in-check ROB head entries while ``f_chk`` says they are
        cleared by ``now``, at most ``budget``, updating architectural
        state inline.  Each slot is freed before the TRAP / TLB paths
        run; their squash empties the ROB and so ends the walk.
        """
        gate = self.gate
        retire_at = gate.retire_at
        retire_mask = gate.retire_mask
        rob = self.rob
        rob_popleft = rob.popleft
        f_chk = self.f_chk
        (f_seq, f_pc, f_inst, _, _, _, _, f_res, f_addr, f_sval, _,
         f_anext, f_fill, f_flags, f_mask, _, f_pp, _) = self._f_cols
        sbits = self._f_sbits
        arf_regs = self.arf._regs  # RegisterFile.write, inlined
        rename = self.rename
        tracer = self.tracer
        retire_hook = self.retire_hook
        # External interrupts are serviced at the in-order *offer*
        # boundary (see _flat_retire), not here: at retire time younger
        # entries have already entered the check gate, and squashing
        # them would desynchronize interval contents across a
        # heterogeneous pair.  Synthetic ITLB misses are charged here,
        # except during single-step re-execution.
        sched = None if self.single_step else self.synthetic_itlb
        if sched is not None:
            # hashed_schedule exposes its memoized decision table; index
            # it directly and call in only to extend it (or for
            # table-less custom schedules).
            table = getattr(sched, "table", ())
            n_table = len(table)
        n_check = self._n_check
        stop = n_check if n_check < budget else budget
        retired = 0
        while retired < stop:
            slot = rob[0]
            chk = f_chk[slot]  # _clear_at, inlined
            if (retire_at[chk & retire_mask] if chk >= 0 else -1 - chk) > now:
                break
            rob_popleft()
            retired += 1
            seq = f_seq[slot]
            flags = f_flags[slot]
            if tracer is not None:
                tracer.retire(self._view(slot), now)
            if flags & F_STORE:
                store_entries = self._store_entries
                if store_entries and store_entries[0] == (seq << sbits) | slot:
                    store_entries.popleft()
                self.drain.append((f_addr[slot], f_sval[slot]))
                # sb_count is released when the drain completes.
            elif flags & F_HALT:
                self.halted = True
            if flags & F_WRITES:
                # Clear the displaced-producer link so retired slots never
                # chain-retain their predecessors.
                f_pp[slot] = -1
                rd = f_inst[slot].rd
                result = f_res[slot]
                if result is not None and rd != 0:
                    arf_regs[rd] = result & WORD_MASK
                if rename.get(rd) == (seq << sbits) | slot:
                    del rename[rd]
            if f_mask[slot] & M_INJECTED:
                self.injected_retired += 1
                if seq <= self._irq_end and seq == self._irq_live[0][0]:
                    self._irq_retired()
                f_seq[slot] = -1  # free the ring slot
                fill_addr = f_fill[slot]
                if fill_addr is not None:
                    self.port.dtlb_fill(fill_addr)
                continue
            self.user_retired += 1
            if retire_hook is not None:
                retire_hook(self._view(slot))
            if flags & F_MEM:
                self.user_mem_retired += 1
            f_seq[slot] = -1  # free the ring slot before any flush below
            if flags & F_SER:
                self.serializing_retired += 1
                if f_inst[slot].op is Op.TRAP:
                    # User-level traps redirect fetch through the trap
                    # vector: model as a full pipeline flush and refetch.
                    # Nothing younger issues before a serializing
                    # instruction retires, so nothing younger is in check.
                    self._flat_squash_to(seq + 1)
                    self._redirect_fetch(f_pc[slot] + 1)
                    break
            if sched is not None:
                idx = self.user_retired
                if idx < n_table:
                    miss = table[idx]
                else:
                    miss = sched(idx)
                    n_table = len(table)
                if miss:
                    self.itlb_misses += 1
                    actual_next = f_anext[slot]
                    resume = actual_next if actual_next is not None else f_pc[slot] + 1
                    self._n_check = n_check - retired
                    self._flat_take_synthetic_tlb_miss(
                        seq, resume, now, budget - retired
                    )
                    if not rob:
                        break  # the software TLB squashed everything younger
        self._n_check = min(n_check - retired, len(rob))  # a squash empties both
        self.total_retired += retired

    def _flat_service_interrupt(self, seq: int, resume: int) -> None:
        """Squash past ``seq`` and inject the interrupt handler.

        The triggering slot itself stays live: it was just offered to the
        gate and retires through it normally.  The squash empties the
        front end, so the handler's instructions take the next seqs.
        """
        interrupt = self._interrupts.popleft()
        self._flat_squash_to(seq + 1)
        handler = interrupt[1]
        self._irq_end = self._next_seq + len(handler) - 1
        self._irq_live.append((self._irq_end, interrupt))
        self._inject(handler, resume)

    def _irq_retired(self) -> None:
        """The oldest live handler's last instruction retired."""
        self._irq_live.popleft()
        if not self._irq_live:
            self._irq_end = -1
        self.interrupts_serviced += 1

    def _irq_squashed(self, first_bad_seq: int) -> None:
        """Re-post every live interrupt whose handler the squash reaches.

        Its target offer count is already reached, so the next user
        offer outside single-step services it again: after a recovery
        flush, the first offer once the pair leaves single-step.
        """
        live = self._irq_live
        while live and live[-1][0] >= first_bad_seq:
            self._interrupts.appendleft(live.pop()[1])
        self._irq_end = live[-1][0] if live else -1

    def _flat_take_synthetic_tlb_miss(self, seq, resume, now, budget) -> None:
        """Instruction-fetch TLB miss charged at retirement of instr n.

        The software TLB squashes every younger entry: an in-check victim
        past the cleared run the walk could still retire this cycle
        (``budget`` is its width left) is a dropped offer.
        """
        if self.sw_tlb:
            rob = self.rob
            run = 0
            limit = min(budget, self._n_check)
            while run < limit and self._clear_at(rob[run]) <= now:
                run += 1
            self._dropped = self._n_check - run
            self._flat_squash_to(seq + 1)
            self._inject(handler_sequence(self.user_retired), resume)
        else:
            self.stall_fetch_until = max(
                self.stall_fetch_until, now + self.config.tlb.hw_fill_latency
            )

    def _clear_at(self, slot: int) -> int:
        """When in-check ``slot`` may retire (NEVER: interval uncompared)."""
        chk = self.f_chk[slot]
        if chk < 0:
            return -1 - chk
        gate = self.gate
        return gate.retire_at[chk & gate.retire_mask]

    def _flat_take_dtlb_trap(self, slot: int, now: int) -> None:
        """Software TLB miss on a data access: flush (inclusive) and run
        the handler."""
        addr = self.f_addr[slot]
        page = addr >> self.config.tlb.page_bits
        pc = self.f_pc[slot]
        self._flat_squash_to(self.f_seq[slot])
        self._inject(handler_sequence(page), pc, fill_addr=addr)

    def _flat_squash_to(self, first_bad_seq: int) -> None:
        """Squash every entry from ``first_bad_seq`` on, youngest first.

        Freeing a victim's slot (seq -1) *is* the squash mark — every
        packed ref to it everywhere (ready list, heaps, rename, deps
        edges) goes stale at once, and the ring tail rewinds so the slots
        are immediately reusable.  The in-check prefix is clamped to what
        is left of the ROB.
        """
        if first_bad_seq <= self._irq_end:
            self._irq_squashed(first_bad_seq)
        rob = self.rob
        f_seq = self.f_seq
        smask = self._f_smask
        sbits = self._f_sbits
        f_flags = self.f_flags
        f_pp = self.f_pp
        rename = self.rename
        parked = self._parked
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
            flags = f_flags[slot]
            if flags & F_STORE:
                self.sb_count -= 1
                # The loads parked on it are younger: squashed too.
                parked.pop((seq << sbits) | slot, None)
            if flags & F_WRITES:
                rd = self.f_inst[slot].rd
                if rename.get(rd) == (seq << sbits) | slot:
                    previous = f_pp[slot]
                    # A live prev ref == "not squashed and not retired".
                    if previous >= 0 and f_seq[previous & smask] == previous >> sbits:
                        rename[rd] = previous
                    else:
                        del rename[rd]
            # Hot dispatch does not clear deps on recycle: a victim
            # that never completed must drop its subscriber edges here.
            self.f_deps[slot].clear()
            f_seq[slot] = -1  # free
        if self._n_check > len(rob):
            self._n_check = len(rob)
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
        # either returns ``now`` or only lowers ``wake``).  Parked loads
        # are not in it: only their store's issue moves them, an event
        # the rest of this horizon already covers.
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
        f_state = self.f_state
        f_pend = self.f_pend
        f_flags = self.f_flags
        rob = self.rob
        n_check = self._n_check
        if n_check < len(rob):
            waiting = rob[n_check]
            # Completed entries are offered to the gate width-per-cycle.
            if f_state[waiting] == 2:  # DynState.COMPLETED
                return now
            # A ready serializing instruction at the check boundary ends
            # the open fingerprint interval (gate.close_open).
            if (
                self.gate.open_count
                and f_pend[waiting] == 0
                and f_state[waiting] == 0
                and f_flags[waiting] & _F_SER_HALT
            ):
                return now
        # Retire gate: cleared intervals, injected-serializing stalls,
        # and (for paired gates) the interval-timeout close.
        t = self.gate.next_release_f(self, now)
        if t <= now:
            return now
        if t < wake:
            wake = t
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
            elif len(rob) < self._c_rob_size and not (self.single_step and rob):
                if not (
                    head[2].op is Op.STORE
                    and self.sb_count >= self._c_sb_size
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

    def _do_fetch(self, now: int) -> None:
        """Fetch stage: injected handler rows first, then the program.

        A pending handler drains before any user fetch, and fetch then
        resumes at the interrupted PC within the same cycle.
        """
        if self.halted or self.fetch_stalled or now < self.stall_fetch_until:
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
        mirror_watch = self.mirror_watch
        append = fq.append
        ready = now + cc.frontend_latency
        fetched = 0
        injection = self.injection
        if injection:
            if mirror_watch:
                # Injected handlers perform loads: end the window.
                self.mirror_trigger = True
            resume = self._injection_resume
            while injection and fetched < room:
                row, fill_addr = injection.popleft()
                append((ready, resume, d_inst[row], True, None, fill_addr, row))
                fetched += 1
            if injection:
                return
            self.pc = resume
            self._injection_resume = None
        predictor = self.predictor
        p_table = predictor._table
        p_key = predictor._history & predictor._mask  # XOR pc per row below
        p_mask = predictor._mask
        single_step = self.single_step
        pc = self.pc
        while fetched < room:
            row = pc if 0 <= pc < d_n else d_n
            f = d_flags[row]
            if mirror_watch and f & F_WINDOW_END:
                # The first memory / serializing / halt instruction ends
                # the mirror window.  Fetch leads dispatch by a cycle and
                # issue by two, so the pair controller (which runs after
                # this core's step) materializes the mute strictly before
                # this instruction can touch shared state.
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

    # -- external interrupts ----------------------------------------------
    def schedule_interrupt(self, at_user_count: int, handler: list[Instruction]) -> None:
        """Service an interrupt after retiring ``at_user_count`` user instrs.

        The pair controller schedules the *same* count on vocal and mute,
        so both service the interrupt at an identical program point —
        the paper's fingerprint-comparison-based alignment (Section 4.3).
        The interrupt counts as serviced when the handler's last
        instruction retires, so the handler must have one.
        """
        if not handler:
            raise ValueError("an interrupt handler needs at least one instruction")
        self._interrupts.append((at_user_count, handler))
        self._skip_until = 0

    # -- synchronizing requests -------------------------------------------
    def complete_sync(self, entry: FlatView, value: int, done: int) -> None:
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
        self._flat_sched((entry._q << self._f_sbits) | entry._s, done)

    # -- handler injection -----------------------------------------------------
    def _inject(
        self, handler: list[Instruction], resume: int, fill_addr: int | None = None
    ) -> None:
        """Queue ``handler``'s decode rows for fetch, then resume at ``resume``.

        Callers squash first, which empties the front end.  The last
        instruction carries the DTLB fill a data-miss handler performs at
        its retirement.
        """
        row_of = self._decoded.row_of
        last = len(handler) - 1
        self.injection.extend(
            (row_of(inst), fill_addr if index == last else None)
            for index, inst in enumerate(handler)
        )
        self._injection_resume = resume

    # -- squash / recovery -------------------------------------------------------------
    def _redirect_fetch(self, new_pc: int) -> None:
        self.pc = new_pc
        self.fetch_stalled = False

    def hard_reset(self, program: Program, now: int) -> None:
        """Reset all architectural and microarchitectural state for a new
        program — used when a core is repurposed (dual-use switching)."""
        # Squash even with an empty ROB: it also empties the front end,
        # whose queued rows belong to the old program's tables.
        self._flat_squash_to(self.f_seq[self.rob[0]] if self.rob else 0)
        self.gate.flush()
        # flush() deliberately preserves the cumulative offer count
        # (recovery re-offers must keep counting); a repurposed core
        # starts a fresh stream, so zero it here.
        self.gate.users_offered = 0
        self.completions.clear()
        self.rename.clear()
        self.ready.clear()
        self._store_entries.clear()
        self._parked.clear()
        self._ser_heap.clear()
        self.drain.clear()
        self._drain_inflight = None
        self.sb_count = 0
        self._n_check = 0
        self._dropped = 0
        self.sync_request = None
        self.single_step = False
        self._interrupts.clear()
        self.program = program
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
        if self._n_check:
            self._flat_walk(now, 1 << 62)
        self._dropped = 0

    @property
    def check_backlog(self) -> int:
        """Instructions buffered in check: the in-check prefix plus the
        offers the last retire walk's squash dropped (``dynamic``'s
        load signal)."""
        return self._n_check + self._dropped

    def next_retire_pc(self) -> int:
        """PC of the oldest unretired instruction (rollback target)."""
        if self.rob:
            return self.f_pc[self.rob[0]]
        if self.fetch_queue:
            return self.fetch_queue[0][1]  # pc
        return self.pc

    def flush_for_recovery(self, resume_pc: int, now: int, penalty: int) -> None:
        """Precise-exception rollback to the last safe state.

        Discards every unretired instruction and all check state; the ARF
        and non-speculative store buffer (drain queue) are untouched —
        they *are* the safe state.
        """
        self._flat_squash_to(self.f_seq[self.rob[0]] if self.rob else 0)
        self.gate.flush()
        self.completions.clear()
        self._n_check = 0
        self._dropped = 0
        self.pc = resume_pc
        self.fetch_stalled = False
        self.halted = False
        self.stall_fetch_until = max(self.stall_fetch_until, now + penalty)
        self.sync_request = None
