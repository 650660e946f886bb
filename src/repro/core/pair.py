"""The logical processor pair: vocal/mute coupling and recovery.

This module implements Section 3's execution model and Section 4.3's
microarchitecture:

* **fingerprint exchange** — when both cores have closed fingerprint
  interval *k*, the pair compares them; a match clears the interval for
  retirement one comparison latency after the *later* close (the cores
  "swap" fingerprints, so the observed latency includes any vocal/mute
  skew — the loose-coupling cost of Section 5.3);
* **synchronizing requests** — atomics always, and the first load during
  re-execution, are performed once by the shared cache controller when
  both cores have arrived, and the single coherent value is delivered to
  both (Definition 10);
* **the re-execution protocol** (Definition 11, Figure 4) — on mismatch,
  both cores roll back to safe state and single-step to the first memory
  read, issued as a synchronizing request; a second mismatch escalates to
  the vocal-to-mute ARF copy; a third is an unrecoverable failure;
* **a divergence watchdog** — input incoherence can send the mute down a
  wild path that never produces a matching interval (e.g. into a halt or
  a divergent loop); if one side's closed fingerprint waits longer than
  ``divergence_timeout`` for its partner, the pair treats it as a
  detected divergence and recovers.
"""

from __future__ import annotations

import enum

from repro.core.check_stage import CheckGate, ProtectionState
from repro.core.mirror import materialize, sync_counters
from repro.isa.instructions import Instruction
from repro.isa.opcodes import Op
from repro.isa.semantics import atomic_result
from repro.memory.l2_controller import SharedL2Controller
from repro.pipeline.gates import NEVER
from repro.pipeline.ooo_core import OoOCore
from repro.sim.config import ProtectionPolicy, SystemConfig

#: Base address of the (per-core, uncontended) interrupt vector data.
INTERRUPT_VECTOR_BASE = 0x4800_0000


def default_interrupt_handler(vector: int = 0) -> list[Instruction]:
    """A minimal external-interrupt service routine.

    Trap entry, two vector-table loads, a non-idempotent device
    acknowledge, trap exit — the serializing mix of a real handler.
    """
    base = INTERRUPT_VECTOR_BASE + (vector % 64) * 64
    return [
        Instruction(Op.TRAP),
        Instruction(Op.LOAD, rd=0, rs1=0, imm=base),
        Instruction(Op.LOAD, rd=0, rs1=0, imm=base + 8),
        Instruction(Op.MMUOP),
        Instruction(Op.TRAP),
    ]


class PairState(enum.Enum):
    NORMAL = "normal"
    WAIT_RECOVERY = "wait-recovery"  # mismatch seen; fingerprints in flight
    SINGLE_STEP = "single-step"  # re-execution protocol running


class LogicalPair:
    """One logical processor: a vocal core and a mute core."""

    def __init__(
        self,
        pair_id: int,
        vocal: OoOCore,
        mute: OoOCore,
        controller: SharedL2Controller,
        config: SystemConfig,
        policy: ProtectionPolicy | None = None,
    ) -> None:
        self.pair_id = pair_id
        self.vocal = vocal
        self.mute = mute
        self.controller = controller
        self.config = config
        self.redundancy = config.redundancy
        #: This pair's protection policy (default: the paper's ``full``).
        #: Result-affecting modes arrive via SystemConfig.pair_policies,
        #: resolved and threaded by CMPSystem.
        self.policy = policy if policy is not None else ProtectionPolicy()

        vocal.gate = CheckGate(config.redundancy)
        mute.gate = CheckGate(config.redundancy)
        vocal.gate.paired = True
        mute.gate.paired = True
        vocal.pair_sync_atomics = True
        mute.pair_sync_atomics = True
        vocal.pair = self
        mute.pair = self

        #: Shared checked-interval schedule for the partial modes
        #: (interval-sampled / unprotected / dynamic); None for the
        #: always-checked modes (full, little-mute).
        self.protection_state: ProtectionState | None = None
        self._dynamic = self.policy.mode == "dynamic"
        self._dyn_paused = False
        self.protection_toggles = 0
        mode_name = self.policy.mode
        if mode_name == "interval-sampled":
            self.protection_state = ProtectionState(self.policy.checked_fraction)
        elif mode_name == "unprotected":
            self.protection_state = ProtectionState(0.0)
        elif mode_name == "dynamic":
            self.protection_state = ProtectionState(None)
        if self.protection_state is not None:
            for gate in (vocal.gate, mute.gate):
                gate._policy_state = self.protection_state
                gate._check_all = False
        if mode_name == "unprotected":
            # Redundancy off: no fingerprint exchange (every interval is
            # unchecked via the 0.0 fraction above), no sync coupling —
            # atomics perform locally, as on a non-redundant core — and
            # the mute core is parked (never stepped; its counters stay
            # deterministically zero).  The vocal keeps its CheckGate so
            # retirement still batches by interval, modeling the
            # dual-use hardware with the exchange disabled.
            vocal.pair_sync_atomics = False
            mute.pair_sync_atomics = False
            mute.mirror_passive = True

        #: Replay fast path == mirror window (see repro.core.mirror): the
        #: mute core is not stepped at all while the pair is provably
        #: symmetric; its state is materialized from the vocal's when the
        #: window ends, after which the pair permanently falls back to
        #: dual execution.  ``replay_enabled`` is True exactly while a
        #: window is open.
        self.replay_enabled = False
        self._mirror_active = False
        #: Cycles covered by the mirror window.  Diagnostic only — dual
        #: execution reports 0, so this must never be folded into
        #: :class:`Stats`.
        self.mirror_cycles = 0

        #: Per-pair skip cache for the event kernel: every cycle strictly
        #: before this one is a proven no-op for :meth:`step` (it caches
        #: :meth:`next_event`).  Everything else the pair acts on changes
        #: only when one of its cores steps, so the kernel re-arms it (0)
        #: whenever the vocal or the mute steps; ``CMPSystem.run`` and
        #: ``run_until_idle`` reset it for external mutations between
        #: runs.  The naive kernel never reads it.
        self._skip_until = 0

        self.state = PairState.NORMAL
        self.phase = 0  # 1 or 2 while recovering
        self._recovery_at = 0
        self._recovery_escalate = False
        self._recovery_cause = ""  # what scheduled the pending recovery
        self._exit_single_step_at: int | None = None
        self.failed = False

        #: Armed telemetry (see repro.obs), or None.  Set by CMPSystem.
        self.obs = None
        self._obs_source = f"pair{pair_id}"

        # Statistics.
        self.recoveries = 0
        self.mismatch_recoveries = 0
        self.timeout_recoveries = 0
        self.phase2_recoveries = 0
        self.sync_requests = 0
        self.failures = 0
        #: (cycle, cause) per recovery — detection-latency analysis.
        self.recovery_log: list[tuple[int, str]] = []

    # -- replay fast path (mirror windows) --------------------------------
    def enable_replay(self) -> None:
        """Arm the mirror-window fast path (bit-identical to dual).

        Call before execution starts.  From reset, vocal and mute are
        bit-identical automata until the first memory / serializing /
        injected / HALT instruction enters the vocal's frontend — so the
        mute is not stepped at all; its state is materialized from the
        vocal's when the window ends (see :mod:`repro.core.mirror`), and
        the pair then permanently falls back to dual execution.

        The vocal's check gate keeps hashing fingerprints throughout the
        window, so its accumulator — copied to the mute by
        materialization — always holds exactly the CRC dual execution
        would hold, squash re-hash effects included.  Bit-identity to
        dual is therefore structural, not argued per event.

        Only armed from pristine state (the symmetry induction base)
        with no observers attached; otherwise the pair simply runs dual.
        Every pair whose mute is the same automaton as its vocal mirrors:
        ``full``, ``interval-sampled`` and ``dynamic`` (both gates read
        one shared :class:`ProtectionState`, and the vocal's gate makes
        every skip decision the mute's would).  A little mute is a
        *different* automaton (narrower issue), and an ``unprotected``
        mute is parked already.
        """
        vocal, mute = self.vocal, self.mute
        if self.replay_enabled or mute.mirror_passive:
            return
        if not (
            vocal.cycles == 0
            and mute.cycles == 0
            and not vocal.rob
            and not mute.rob
            and vocal.user_retired == 0
            and mute.user_retired == 0
            and vocal.program is mute.program
            and vocal.issue_width == mute.issue_width
            and vocal.fault_hook is None
            and mute.fault_hook is None
            and vocal.retire_hook is None
            and mute.retire_hook is None
            and vocal.tracer is None
            and mute.tracer is None
        ):
            return
        self.replay_enabled = True
        self._mirror_active = True
        vocal.mirror_watch = True
        vocal.mirror_trigger = False
        mute.mirror_passive = True
        if self.obs is not None:
            vocal.gate.echo = []
            self.obs.emit("mirror.open", vocal.cycles, self._obs_source)

    def disable_replay(self) -> None:
        """Fall back to full dual execution (fault armed, or decoupling)."""
        if self._mirror_active:
            self._exit_mirror()

    def _exit_mirror(self) -> None:
        """End the mirror window: materialize the mute, fall back to dual.

        The copied state is exactly what dual execution's mute would hold
        at this cycle boundary (the window was symmetric, and the vocal's
        gate hashed fingerprints normally throughout), so normal
        per-cycle dual stepping resumes seamlessly and every subsequent
        comparison decision is bit-equal to dual execution's.
        """
        vocal, mute = self.vocal, self.mute
        if self.obs is not None:
            self.obs.emit(
                "mirror.close",
                vocal.cycles,
                self._obs_source,
                cycles=vocal.cycles,
                user_retired=vocal.user_retired,
            )
        materialize(vocal, mute, obs=self.obs, source=self._obs_source)
        self.mirror_cycles += vocal.cycles
        self._mirror_active = False
        self.replay_enabled = False
        vocal.mirror_watch = False
        # The mute re-enters the step loop (and the vocal's gate state
        # just changed shape): both skip caches are stale.
        vocal._skip_until = 0
        mute._skip_until = 0
        vocal.mirror_trigger = False
        mute.mirror_passive = False
        vocal.gate.echo = None

    def echo_mute(self) -> None:
        """Emit, as the virtual mute, the close events its vocal buffered.

        Dual execution's mute closes each interval at the same cycle as
        its vocal, under its own source.  Called where that mute's close
        would have been emitted: at the mute's slot in the system's core
        loop, and straight after the vocal's timeout close.  Armed
        telemetry only.
        """
        echo = self.vocal.gate.echo
        if echo:
            obs = self.obs
            source = self.mute.gate.obs_source
            for kind, cycle, args in echo:
                obs.emit(kind, cycle, source, **args)
            echo.clear()

    def mirror_sync(self) -> None:
        """Refresh the mute's observable counters without ending a window."""
        if self._mirror_active:
            sync_counters(self.vocal, self.mute)

    def _mirror_must_exit(self) -> bool:
        vocal, mute = self.vocal, self.mute
        return (
            vocal.mirror_trigger
            or vocal.fault_hook is not None
            or mute.fault_hook is not None
            or vocal.retire_hook is not None
            or mute.retire_hook is not None
            or vocal.tracer is not None
            or mute.tracer is not None
            # Impossible from modeled execution in-window (a fetched HALT
            # ends the window first): an externally frozen core.
            or vocal.halted
            or mute.halted
            # Likewise: recoveries cannot arise in-window, so a non-NORMAL
            # state means one was scheduled externally.
            or self.state is not PairState.NORMAL
        )

    def _step_mirror(self, now: int) -> None:
        """Pair machinery while the mute is a virtual copy of the vocal.

        Every closed vocal interval matches the virtual mute's identical
        interval by construction, so the comparison collapses to an
        immediate clear one comparison latency after the close — exactly
        the cycle dual execution would clear it (both lockstep gates
        close interval *k* at the same cycle, so ``max`` of the two close
        cycles is the vocal's).  Recoveries, watchdog timeouts and
        synchronizing requests are impossible in-window: no memory
        instruction has even been fetched.  A ``dynamic`` pair decides
        its next off-window after each cleared batch, as :meth:`step`
        does after a comparison.
        """
        vocal = self.vocal
        vocal_gate: CheckGate = vocal.gate  # type: ignore[assignment]
        # Inlined gate.maybe_timeout_close / clear_interval: this runs
        # every stepped cycle of a mirror window, which on compute-bound
        # workloads is nearly every cycle of the simulation.
        if (
            vocal_gate._count
            and now - vocal_gate._last_offer > vocal_gate._timeout_limit
        ):
            vocal_gate._close(now)
            if self.obs is not None:
                self.echo_mute()  # the mute's own timeout close
        closed = vocal_gate._closed
        if closed:
            latency = self.redundancy.comparison_latency
            retire_time = vocal_gate._retire_time
            obs = self.obs
            compared = 0
            while closed:
                a = closed.popleft()
                retire_time[a.index] = a.close_cycle + latency
                compared += 1
                if obs is not None:
                    # The virtual mute's interval is identical by
                    # construction; emit the comparison a dual-mode pair
                    # would have performed this cycle.
                    obs.emit(
                        "fingerprint.compare",
                        now,
                        self._obs_source,
                        index=a.index,
                        vocal_fp=a.fingerprint,
                        mute_fp=a.fingerprint,
                        count=a.count,
                        matched=True,
                    )
            vocal_gate.fingerprints_compared += compared
            # Cleared intervals open the vocal's retire path at a cycle
            # its cached skip horizon could not have known about.
            vocal._skip_until = 0
            if self._dynamic:
                # The mirrored mute's gate index is stale, but it never
                # exceeds the vocal's, which the policy's max() picks.
                self._evaluate_dynamic(now)

    # ------------------------------------------------------------------
    def step(self, now: int) -> None:
        """Advance pair-level machinery; call after both cores stepped."""
        if self.failed:
            return
        if self._mirror_active:
            if not self._mirror_must_exit():
                self._step_mirror(now)
                return
            self._exit_mirror()
        vocal_gate: CheckGate = self.vocal.gate  # type: ignore[assignment]
        mute_gate: CheckGate = self.mute.gate  # type: ignore[assignment]
        # maybe_timeout_close, inlined: this runs every pair-cycle and
        # pair gates are always plain CheckGates (never Strict), so the
        # attribute test replaces two method calls.
        if vocal_gate._count and now - vocal_gate._last_offer > vocal_gate._timeout_limit:
            vocal_gate._close(now)
        if mute_gate._count and now - mute_gate._last_offer > mute_gate._timeout_limit:
            mute_gate._close(now)

        if self.state is PairState.WAIT_RECOVERY:
            if now >= self._recovery_at:
                self._begin_recovery(now)
            return

        if vocal_gate._closed and mute_gate._closed:
            self._compare_intervals(now)
            if self.state is PairState.WAIT_RECOVERY:
                if now >= self._recovery_at:
                    self._begin_recovery(now)
                return
            if self._dynamic:
                self._evaluate_dynamic(now)

        if self.vocal.sync_request is not None and self.mute.sync_request is not None:
            self._service_sync_requests(now)
        if vocal_gate._closed or mute_gate._closed:
            self._watchdog(now)

        if self._exit_single_step_at is not None and now >= self._exit_single_step_at:
            self._exit_single_step(now)

    # -- event horizon (cycle-skipping kernel) ---------------------------------
    def next_event(self, now: int) -> int:
        """Conservative wake-up horizon for the cycle-skipping kernel.

        Covers everything :meth:`step` does on its own: the
        interval-timeout closes of the paired gates, beginning a
        scheduled recovery, comparing fingerprints once both sides have
        closed an interval, servicing a synchronizing request once both
        cores have parked one, the divergence watchdog, and leaving
        single-step mode.  The kernel steps the pair only at this
        horizon or after one of its cores stepped (see ``_skip_until``),
        so nothing ``step`` does may be left to the cores' horizons.
        """
        if self.failed:
            return NEVER
        vocal_gate: CheckGate = self.vocal.gate  # type: ignore[assignment]
        wake = NEVER
        if vocal_gate._count:
            # step() force-closes a lingering partial interval one cycle
            # past the gate's timeout limit.
            wake = vocal_gate._last_offer + vocal_gate._timeout_limit + 1
        if self._mirror_active:
            # The in-window pair events are exit triggers, the vocal
            # gate's timeout close and the auto-compare of a closed vocal
            # interval; the mute is a virtual copy with no gate activity.
            if self._mirror_must_exit() or vocal_gate._closed:
                return now
            return wake if wake > now else now
        mute_gate: CheckGate = self.mute.gate  # type: ignore[assignment]
        if mute_gate._count:
            at = mute_gate._last_offer + mute_gate._timeout_limit + 1
            if at < wake:
                wake = at
        if wake <= now:
            return now
        if self.state is PairState.WAIT_RECOVERY:
            at = self._recovery_at
            if at <= now:
                return now
            return at if at < wake else wake
        a = vocal_gate.peek_closed()
        b = mute_gate.peek_closed()
        if a is not None and b is not None:
            return now  # a comparison happens on the very next step
        waiting = a if a is not None else b
        if waiting is not None:
            # One side is waiting on its partner; the watchdog fires one
            # cycle past the divergence timeout.
            at = waiting.close_cycle + self.redundancy.divergence_timeout + 1
            if at <= now:
                return now
            if at < wake:
                wake = at
        if self.vocal.sync_request is not None and self.mute.sync_request is not None:
            return now
        at = self._exit_single_step_at
        if at is not None:
            if at <= now:
                return now
            if at < wake:
                wake = at
        return wake

    # -- fingerprint comparison ------------------------------------------------
    def _compare_intervals(self, now: int) -> None:
        vocal_gate: CheckGate = self.vocal.gate  # type: ignore[assignment]
        mute_gate: CheckGate = self.mute.gate  # type: ignore[assignment]
        latency = self.redundancy.comparison_latency
        obs = self.obs
        vocal_closed = vocal_gate._closed
        mute_closed = mute_gate._closed
        vocal_retire = vocal_gate._retire_time
        mute_retire = mute_gate._retire_time
        # Both sides have a closed interval, so at least one comparison
        # happens below: the cores' cached skip horizons predate the
        # retire times being set here.
        self.vocal._skip_until = 0
        self.mute._skip_until = 0
        while vocal_closed and mute_closed:
            a = vocal_closed.popleft()
            b = mute_closed.popleft()
            ready = max(a.close_cycle, b.close_cycle) + latency
            matched = (
                a.fingerprint == b.fingerprint
                and a.count == b.count
                and a.has_halt == b.has_halt
            )
            if obs is not None:
                obs.emit(
                    "fingerprint.compare",
                    now,
                    self._obs_source,
                    index=a.index,
                    vocal_fp=a.fingerprint,
                    mute_fp=b.fingerprint,
                    count=a.count,
                    matched=matched,
                )
            if matched:
                # clear_interval on both gates, inlined.
                vocal_retire[a.index] = ready
                vocal_gate.fingerprints_compared += 1
                mute_retire[b.index] = ready
                mute_gate.fingerprints_compared += 1
                if self.state is PairState.SINGLE_STEP and (a.has_sync or a.has_halt):
                    # Recovery has made forward progress through the
                    # synchronizing access: resume normal execution.
                    self._exit_single_step_at = ready
                continue
            # Divergence detected when the fingerprints arrive.
            if obs is not None:
                if a.count != b.count or a.has_halt != b.has_halt:
                    why = "count"
                else:
                    why = "fingerprint"
                obs.emit(
                    "fingerprint.mismatch",
                    now,
                    self._obs_source,
                    index=a.index,
                    vocal_fp=a.fingerprint,
                    mute_fp=b.fingerprint,
                    vocal_count=a.count,
                    mute_count=b.count,
                    cause=why,
                )
            self._schedule_recovery(
                ready,
                escalate=self.state is PairState.SINGLE_STEP,
                cause="mismatch",
            )
            self.mismatch_recoveries += 1
            return

    def _evaluate_dynamic(self, now: int) -> None:
        """Döbel-style load-adaptive protection, decided at comparison points.

        Runs right after a mismatch-free comparison batch, NORMAL state
        only.  Load is the vocal's check-stage backlog (instructions
        buffered behind fingerprint exchange).  When it reaches
        ``off_threshold``, the next ``off_intervals`` fingerprint
        intervals — numbered from the *larger* of the two gates' next
        interval index, so neither side has closed any of them yet and
        both gates make the identical skip decision — go unchecked.
        After a window expires, the first comparison either extends the
        pause (backlog still above ``on_threshold``) or resumes checking.
        Deterministic: comparisons fire at identical cycles under both
        kernels and both hot loops, so the backlog snapshot is too.
        """
        state = self.protection_state
        vocal_gate: CheckGate = self.vocal.gate  # type: ignore[assignment]
        mute_gate: CheckGate = self.mute.gate  # type: ignore[assignment]
        index = vocal_gate._index
        if mute_gate._index > index:
            index = mute_gate._index
        if index < state.skip_until:
            return  # an off-window is still scheduled or active
        policy = self.policy
        backlog = len(vocal_gate._pending)
        if self._dyn_paused:
            if backlog > policy.on_threshold:
                # Still loaded: extend the pause with a fresh window.
                state.skip_from = index
                state.skip_until = index + policy.off_intervals
                if self.obs is not None:
                    self.obs.emit(
                        "protection.off",
                        now,
                        self._obs_source,
                        from_index=index,
                        until_index=state.skip_until,
                        backlog=backlog,
                    )
            else:
                self._dyn_paused = False
                self.protection_toggles += 1
                if self.obs is not None:
                    self.obs.emit(
                        "protection.on", now, self._obs_source, backlog=backlog
                    )
        elif backlog >= policy.off_threshold:
            self._dyn_paused = True
            self.protection_toggles += 1
            state.skip_from = index
            state.skip_until = index + policy.off_intervals
            if self.obs is not None:
                self.obs.emit(
                    "protection.off",
                    now,
                    self._obs_source,
                    from_index=index,
                    until_index=state.skip_until,
                    backlog=backlog,
                )

    def _schedule_recovery(self, at: int, escalate: bool, cause: str = "") -> None:
        self.state = PairState.WAIT_RECOVERY
        self._recovery_at = at
        self._recovery_escalate = escalate
        self._recovery_cause = cause
        self._exit_single_step_at = None

    # -- the re-execution protocol ------------------------------------------------
    def _begin_recovery(self, now: int) -> None:
        """Rollback both cores to safe state and enter single-step mode."""
        self.vocal._skip_until = 0
        self.mute._skip_until = 0
        if self._recovery_escalate and self.phase >= 2:
            # Phase two already failed: unrecoverable (fingerprint
            # aliasing let a soft error retire).  Signal failure.
            self.failed = True
            self.failures += 1
            self.vocal.halted = True
            self.mute.halted = True
            if self.obs is not None:
                self.obs.emit(
                    "recovery.failure",
                    now,
                    self._obs_source,
                    cause=self._recovery_cause,
                )
            return

        self.recoveries += 1
        self.recovery_log.append(
            (now, "phase2" if self._recovery_escalate else "phase1")
        )
        if self.obs is not None:
            self.obs.emit(
                "recovery.start",
                now,
                self._obs_source,
                phase=2 if self._recovery_escalate else 1,
                cause=self._recovery_cause,
            )
        # Retire everything already cleared by matching comparisons, so
        # both ARFs reflect the identical compared prefix.
        self.vocal.drain_cleared(now)
        self.mute.drain_cleared(now)

        resume = self.vocal.next_retire_pc()
        penalty = self.redundancy.rollback_penalty
        if self._recovery_escalate:
            # Phase two: initialize the mute ARF from the vocal
            # (Definition 9) and retry.
            self.phase = 2
            self.phase2_recoveries += 1
            self.mute.arf.copy_from(self.vocal.arf)
            penalty += self.redundancy.arf_copy_latency
        else:
            self.phase = 1

        for core in (self.vocal, self.mute):
            core.flush_for_recovery(resume, now, penalty)
            core.single_step = True
            core.gate.single_step = True  # type: ignore[attr-defined]
        if self.protection_state is not None:
            # The flushes restarted both gates' interval numbering at 0;
            # a stale dynamic off-window would alias the new numbering.
            self.protection_state.clear_window()
            self._dyn_paused = False
        if self.obs is not None:
            self.obs.emit(
                "recovery.rollback",
                now,
                self._obs_source,
                resume_pc=resume,
                penalty=penalty,
            )
        self.state = PairState.SINGLE_STEP
        self._exit_single_step_at = None

    def _exit_single_step(self, now: int) -> None:
        for core in (self.vocal, self.mute):
            core.single_step = False
            core.gate.single_step = False  # type: ignore[attr-defined]
            core._skip_until = 0
        if self.obs is not None:
            self.obs.emit(
                "recovery.resume", now, self._obs_source, phase=self.phase
            )
        self.state = PairState.NORMAL
        self.phase = 0
        self._exit_single_step_at = None

    # -- synchronizing requests ---------------------------------------------------
    def _service_sync_requests(self, now: int) -> None:
        """Perform one coherent access on behalf of both cores.

        Atomics park in ``sync_request`` whenever they reach the head of
        their core's ROB; during single-step, the first load does too.
        The access happens once, when both cores have arrived.
        """
        vocal_entry = self.vocal.sync_request
        mute_entry = self.mute.sync_request
        if vocal_entry is None or mute_entry is None:
            return
        same_operation = (
            vocal_entry.pc == mute_entry.pc
            and vocal_entry.inst is mute_entry.inst
            and vocal_entry.addr == mute_entry.addr
            and vocal_entry.val2 == mute_entry.val2
        )
        if not same_operation:
            # The cores disagree before a non-idempotent operation even
            # executes: recover now, before anything becomes visible.
            self.vocal.sync_request = None
            self.mute.sync_request = None
            self.vocal._skip_until = 0
            self.mute._skip_until = 0
            self.mismatch_recoveries += 1
            self._schedule_recovery(
                now,
                escalate=self.state is PairState.SINGLE_STEP,
                cause="sync_divergence",
            )
            return

        self.sync_requests += 1
        if self.obs is not None:
            self.obs.emit(
                "sync.request",
                now,
                self._obs_source,
                pc=vocal_entry.pc,
                addr=vocal_entry.addr,
                op=vocal_entry.inst.op.name,
            )
        addr = vocal_entry.addr
        line_shift = self.config.l1.line_bytes.bit_length() - 1
        reply = self.controller.synchronizing_access(
            self.vocal.core_id, self.mute.core_id, addr >> line_shift, now
        )
        offset = (addr >> 3) & (self.config.l1.line_bytes // 8 - 1)
        old_value = reply.data[offset]

        op = vocal_entry.inst.op
        if op in (Op.ATOMIC, Op.CAS):
            rd_value, new_value = atomic_result(
                op, old_value, vocal_entry.val2 or 0, vocal_entry.inst.imm
            )
            if new_value is not None:
                # Both L1s hold the line with write permission after the
                # synchronizing fill; the single RMW updates both.
                self.vocal.port.rmw_write(addr, new_value)
                self.mute.port.rmw_write(addr, new_value)
            value = rd_value
        else:
            value = old_value

        vocal_entry.was_sync = True
        mute_entry.was_sync = True
        self.vocal.complete_sync(vocal_entry, value, reply.done)
        self.mute.complete_sync(mute_entry, value, reply.done)

    # -- external interrupts -----------------------------------------------------
    def post_interrupt(self, handler: list[Instruction] | None = None) -> int:
        """Replicate an external interrupt to both cores (Section 4.3).

        The vocal chooses a fingerprint-interval boundary far enough out
        that neither core has retired past it; both cores service the
        interrupt after comparing and retiring the preceding
        instructions.  Returns the chosen user-instruction count.
        """
        if handler is None:
            handler = default_interrupt_handler()
        if self._mirror_active:
            # The interrupt must be scheduled on two real cores (and the
            # handler's loads end symmetry anyway).
            self._exit_mirror()
        margin = (
            self.config.core.rob_size
            + self.redundancy.fingerprint_interval
            + 2 * self.config.core.width
        )
        target = max(self.vocal.user_retired, self.mute.user_retired) + margin
        self.vocal.schedule_interrupt(target, handler)
        self.mute.schedule_interrupt(target, handler)
        if self.obs is not None:
            self.obs.emit(
                "interrupt.post",
                None,
                self._obs_source,
                target=target,
                handler_len=len(handler),
            )
        return target

    # -- watchdog --------------------------------------------------------------------
    def _watchdog(self, now: int) -> None:
        """Detect one-sided divergence (a partner that stops checking in)."""
        vocal_gate: CheckGate = self.vocal.gate  # type: ignore[assignment]
        mute_gate: CheckGate = self.mute.gate  # type: ignore[assignment]
        a = vocal_gate.peek_closed()
        b = mute_gate.peek_closed()
        timeout = self.redundancy.divergence_timeout
        waiting = a if (a is not None and b is None) else b if (b is not None and a is None) else None
        if waiting is not None and now - waiting.close_cycle > timeout:
            self.timeout_recoveries += 1
            self._schedule_recovery(
                now,
                escalate=self.state is PairState.SINGLE_STEP,
                cause="timeout",
            )

    # -- reporting ---------------------------------------------------------------------
    def collect_stats(self, stats, prefix: str = "") -> None:
        base = prefix or f"pair{self.pair_id}."
        stats.set(base + "recoveries", self.recoveries)
        stats.set(base + "mismatch_recoveries", self.mismatch_recoveries)
        stats.set(base + "timeout_recoveries", self.timeout_recoveries)
        stats.set(base + "phase2_recoveries", self.phase2_recoveries)
        stats.set(base + "sync_requests", self.sync_requests)
        stats.set(base + "failures", self.failures)
        if self.protection_state is not None:
            # Partial policies only: full/little-mute pairs report
            # nothing here, keeping their snapshots byte-identical to
            # the pre-policy ones.
            stats.set(
                base + "unchecked_intervals",
                self.vocal.gate.intervals_unchecked,
            )
            stats.set(base + "protection_toggles", self.protection_toggles)
