"""The check stage: fingerprint intervals gating retirement.

Each redundant core owns one :class:`CheckGate`, plugged into the
pipeline as its retire gate (Figure 3(b) of the paper: a *check* stage
between mis-speculation detection and architectural writeback).

Completed instructions enter the gate in program order.  User
instructions accumulate into the current *fingerprint interval*; the
interval closes when it reaches the configured length, at serializing
instructions, at HALT, or — during re-execution — after every single
instruction.  A closed interval's fingerprint is "sent" to the partner;
the pair controller (or the strict oracle) later marks the interval
cleared with a retire time, and the core's retire walk releases its
instructions from the ROB head to architectural retirement.  The gate
keeps no queue: each offered slot's interval index goes into the core's
``f_chk`` column, and the gate keeps one retire time per interval.

Injected instructions (software TLB handlers) pass through transparently:
they retire as soon as everything older has cleared, contribute nothing
to fingerprints, and never close intervals.  See
:mod:`repro.pipeline.tlb_handler` for why.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

from repro.isa.decode import (
    F_ATOMIC,
    F_CONTROL,
    F_HALT,
    F_SER,
    F_STORE,
    F_WRITES,
)
from repro.pipeline.flat import M_FAULTED, M_INJECTED, M_SYNC
from repro.pipeline.gates import NEVER
from repro.sim.config import RedundancyConfig

#: Same 64-bit update-word domain as repro.core.fingerprint.
_WORD_MASK_64 = (1 << 64) - 1

#: Instructions whose address enters the fingerprint's store stream
#: (``Instruction.is_store``: plain stores *and* atomics).
_F_STORE_STREAM = F_STORE | F_ATOMIC

#: ``CheckGate.retire_at`` holds this many ring capacities' worth of
#: intervals.  The intervals whose retire time can still be read or
#: written span at most: one ROB's worth with in-check instructions, the
#: open interval, and fewer than one ROB's worth that a retirement-time
#: squash left closed but uncompared (their instructions are gone, the
#: comparison still writes).  Indices are consecutive, so two ring
#: capacities cover them all without two live intervals sharing a slot.
RETIRE_WINDOW_ROBS = 2


class IntervalRecord(NamedTuple):
    """A closed fingerprint interval, ready for comparison.

    A NamedTuple rather than a dataclass: one is built per retired user
    instruction at the paper's interval length of 1, so
    :meth:`CheckGate._close` builds it with :data:`_new_record`, at C
    speed, where a ``__init__`` (or the NamedTuple's own ``__new__``)
    would run a Python frame.
    """

    index: int
    fingerprint: int
    count: int  # user instructions summarized
    close_cycle: int
    has_sync: bool  # contains a synchronizing-request instruction
    has_halt: bool


#: ``_new_record(IntervalRecord, fields)`` builds a record from a field
#: tuple, skipping the NamedTuple's Python-level ``__new__``.
_new_record = tuple.__new__


class ProtectionState:
    """Shared per-pair schedule of checked fingerprint intervals.

    One instance is shared by *both* gates of a partially protected pair
    (see :class:`~repro.sim.config.ProtectionPolicy`), so the vocal and
    the mute — which close interval ``k`` at different cycles — make
    identical checked/unchecked decisions from the interval index alone.

    Two mechanisms compose:

    * ``fraction`` — a static checked fraction (``interval-sampled``;
      ``0.0`` models ``unprotected``, ``None`` means "all checked" and
      is the ``dynamic`` baseline).  The decision is Bresenham-style —
      interval ``k`` is checked iff ``floor((k+1)*f) > floor(k*f)`` —
      spreading checked intervals evenly as a pure function of ``k``.
    * a skip window ``[skip_from, skip_until)`` — ``dynamic`` off
      periods scheduled by the pair controller at comparison points.

    Recovery flushes reset both gates' interval numbering to 0, so the
    pair controller clears the window then (:meth:`clear_window`) to
    keep decisions aligned with the restarted numbering.
    """

    __slots__ = ("fraction", "skip_from", "skip_until")

    def __init__(self, fraction: float | None = None) -> None:
        self.fraction = fraction
        self.skip_from = 0
        self.skip_until = 0

    def checked(self, index: int) -> bool:
        if self.skip_from <= index < self.skip_until:
            return False
        fraction = self.fraction
        if fraction is None:
            return True
        if fraction <= 0.0:
            return False
        return int((index + 1) * fraction) > int(index * fraction)

    def clear_window(self) -> None:
        self.skip_from = 0
        self.skip_until = 0


class CheckGate:
    """One core's side of the output-comparison machinery.

    ``ring_capacity`` is the core's ring size (``OoOCore._f_cap``); it
    sizes the retire-time list.
    """

    def __init__(self, config: RedundancyConfig, ring_capacity: int) -> None:
        from repro.core.fingerprint import FingerprintAccumulator

        self.config = config
        accum = FingerprintAccumulator(
            config.fingerprint_bits, config.two_stage_compression
        )
        self._accum = accum
        # The paper configs close an interval per instruction, so offer_f
        # folds once per retired user instruction: with the 16-bit wide
        # tables available, fold a lone update word inline instead of
        # paying add_words' per-call preamble.
        self._fast_lt = (
            accum._lt if (accum._lt is not None and accum.two_stage) else None
        )
        self._fast_mt = accum._mt
        #: Partial-interval timeout (see maybe_timeout_close), hoisted out
        #: of the per-cycle path — as are the interval length and the
        #: comparison latency, which offer_f would otherwise chase
        #: through two attributes per instruction.
        self._timeout_limit = max(8, config.fingerprint_interval // 2)
        self._interval_len = config.fingerprint_interval
        self._cmp_latency = config.comparison_latency
        self._closed: deque[IntervalRecord] = deque()
        self._count = 0
        self._has_sync = False
        self._has_halt = False
        self._index = 0
        self._last_offer = 0
        #: Retire time of interval ``k`` at ``retire_at[k & retire_mask]``,
        #: NEVER while it is open or uncompared: every close resets the
        #: next interval's slot, and flush resets slot 0.
        size = RETIRE_WINDOW_ROBS * ring_capacity
        self.retire_at = [NEVER] * size
        self.retire_mask = size - 1
        self.single_step = False
        #: Monotone counters for statistics.
        self.intervals_closed = 0
        self.fingerprints_compared = 0
        self.intervals_unchecked = 0
        #: User instructions offered and not squashed: the core's user
        #: instructions retired plus its user entries in check.  The
        #: core's squash takes back the user offers it drops (a recovery
        #: flush, a software-TLB squash at retirement); flush() leaves
        #: the count alone.  The cores' offer loops consult it to service
        #: external interrupts at the in-order offer boundary — a pure
        #: function of the correct-path stream, so heterogeneous pairs
        #: (e.g. a narrow little-mute) pick the same service point even
        #: though their in-flight depths differ, after a recovery too.
        self.users_offered = 0
        #: Partial-protection hooks (set by LogicalPair for
        #: interval-sampled / unprotected / dynamic policies).
        #: ``_check_all`` is the hot-path fast flag: full and little-mute
        #: gates — and every non-paired gate — pay exactly one attribute
        #: test per interval close and never consult the policy state.
        self._check_all = True
        self._policy_state: ProtectionState | None = None
        #: Armed telemetry (see repro.obs), or None.  Set by CMPSystem;
        #: interval closes are emitted only at the ``full`` level.
        self.obs = None
        self.obs_source = ""
        #: While this is a mirrored vocal's gate with telemetry armed: the
        #: ``(kind, cycle, args)`` of every close event it emitted that
        #: the virtual mute has not yet re-emitted (``LogicalPair.
        #: echo_mute``).  None otherwise.
        self.echo: list | None = None

    # -- pipeline side ------------------------------------------------------
    def offer_f(self, core, slot: int, now: int) -> None:
        """A completed instruction, oldest first, enters the check stage.

        ``slot`` is the instruction's live slot in ``core``'s flat ring.
        """
        mask = core.f_mask[slot]
        if mask & M_INJECTED:
            # Injected handler instructions are not fingerprinted (they
            # keep the vocal/mute user streams aligned) and clear at a
            # fixed cycle.  Serializing ones (traps, MMU operations) wait
            # out a comparison latency first: Section 4.4 applies to them
            # exactly as to user code.
            if core.f_flags[slot] & F_SER:
                now += self._cmp_latency
            core.f_chk[slot] = -1 - now
            return
        # Fold this instruction's architectural-update words — result,
        # store address and value, atomic address, branch target, in that
        # order — into the open interval's CRC.  Words are folded *now*,
        # so a later squash of a checked entry leaves the fingerprint
        # unchanged; CRC chaining is sequential over words, so folding
        # per offer equals hashing the interval's words at close.
        flags = core.f_flags[slot]
        if flags & F_WRITES:  # never with F_CONTROL
            word = core.f_res[slot]
        elif flags & F_CONTROL:
            word = core.f_anext[slot]
        else:
            word = None
        if flags & _F_STORE_STREAM:
            words = [] if word is None else [word]
            addr = core.f_addr[slot]
            if addr is not None:
                words.append(addr)
                store_value = core.f_sval[slot]
                if store_value is not None:
                    words.append(store_value)
                if flags & F_ATOMIC:
                    words.append(addr)
            self._accum.add_words(words)
        elif word is not None:
            lt = self._fast_lt
            if lt is None:
                self._accum.add_words((word,))
            else:
                # add_words' two-stage 16-bit lt/mt fold, inlined for the
                # one-word instructions (ALU ops, loads, control flow).
                accum = self._accum
                word &= _WORD_MASK_64
                accum._crc = lt[accum._crc] ^ self._fast_mt[
                    (word ^ (word >> 16) ^ (word >> 32) ^ (word >> 48)) & 0xFFFF
                ]
        if mask & M_FAULTED:
            obs = self.obs
            if obs is not None:
                # Anchor for detection attribution (repro.core.faults):
                # records which fingerprint interval absorbed the upset,
                # so analysis can match the injection to *its* comparison
                # instead of the first recovery that happens along.
                obs.emit(
                    "fault.absorb",
                    now,
                    self.obs_source,
                    seq=core.f_seq[slot],
                    interval=self._index,
                )
        self._count = count = self._count + 1
        self.users_offered += 1
        if mask & M_SYNC:
            self._has_sync = True
        is_halt = flags & F_HALT
        if is_halt:
            self._has_halt = True
        core.f_chk[slot] = self._index
        self._last_offer = now
        if (
            count >= self._interval_len
            or flags & F_SER
            or is_halt
            or self.single_step
        ):
            self._close(now)

    def close_open(self, now: int) -> None:
        """Serializing instruction encountered: end the interval early.

        Section 4.4 — older instructions must be able to retire before
        the serializing instruction executes, so a partial interval is
        closed and sent immediately.
        """
        if self._count:
            self._close(now)

    def maybe_timeout_close(self, now: int) -> None:
        """Close a lingering partial interval so its instructions can retire.

        With long fingerprint intervals a drained pipeline would otherwise
        strand its last few instructions in check forever.
        """
        if self._count and now - self._last_offer > self._timeout_limit:
            self._close(now)

    def _emit(self, kind: str, now: int, **args) -> None:
        """Emit one close event, buffering it for a mirrored mute's echo."""
        self.obs.emit(kind, now, self.obs_source, **args)
        if self.echo is not None:
            self.echo.append((kind, now, args))

    def _close(self, now: int) -> None:
        index = self._index
        if (
            not self._check_all
            and not self.single_step
            and not self._policy_state.checked(index)
        ):
            # Unchecked interval under a partial protection policy: no
            # hash, no exchange, no comparison latency — the batch
            # retires immediately, and a fault absorbed here escapes by
            # construction.  Single-step recovery overrides the policy:
            # the re-execution protocol needs every interval compared
            # (matched has_sync/has_halt decisions on both sides).
            self._skip_close(now)
            return
        accum = self._accum
        fingerprint = accum._crc
        self._closed.append(
            _new_record(
                IntervalRecord,
                (index, fingerprint, self._count, now, self._has_sync, self._has_halt),
            )
        )
        obs = self.obs
        if obs is not None and obs.full:
            self._emit(
                "fingerprint.close",
                now,
                index=index,
                count=self._count,
                fingerprint=fingerprint,
            )
        accum._crc = 0  # reset(), inlined
        self._count = 0
        self._has_sync = False
        self._has_halt = False
        self._index = index = index + 1
        self.retire_at[index & self.retire_mask] = NEVER
        self.intervals_closed += 1

    def _skip_close(self, now: int) -> None:
        """Close an *unchecked* interval: retire immediately, send nothing.

        The CRC its update words folded into is zeroed unsent (it is
        always 0 between closes), the interval never enters ``_closed``,
        and its instructions get ``now`` as their retire time, modeling
        fingerprint exchange switched off for this interval.  ``fingerprint.skip`` is the
        attribution anchor letting the campaign classifier mark SDCs
        that escaped through a coverage gap (rather than CRC aliasing).
        """
        self._accum._crc = 0
        index = self._index
        retire_at = self.retire_at
        retire_at[index & self.retire_mask] = now
        if self.obs is not None:
            self._emit("fingerprint.skip", now, index=index, count=self._count)
        self._count = 0
        self._has_sync = False
        self._has_halt = False
        self._index = index = index + 1
        retire_at[index & self.retire_mask] = NEVER
        self.intervals_closed += 1
        self.intervals_unchecked += 1

    def next_release_f(self, core, now: int) -> int:
        """Conservative horizon: when could this gate next release work?

        Mirrors every ``now``-dependent branch of the core's retire walk
        (``OoOCore._flat_walk``).  A closed-but-uncompared interval
        contributes nothing here — the comparison is the pair
        controller's event, reported by ``LogicalPair.next_event`` — but
        once it is compared, the head's retire time is a known future
        cycle.  Nor does the interval timeout of
        :meth:`maybe_timeout_close` count: only a pair forces that close,
        and the pair reports it and re-arms the core.  Offers a
        retirement-time squash dropped (``core._dropped``) are discarded
        by the very next walk.
        """
        if core._dropped:
            return now
        if core._n_check:
            at = core._clear_at(core.rob[0])
            if at < NEVER:
                return at if at > now else now
        return NEVER

    # -- partner side (driven by the pair controller / oracle) ----------------
    def peek_closed(self) -> IntervalRecord | None:
        """Oldest closed-but-uncompared interval, if any."""
        return self._closed[0] if self._closed else None

    def pop_closed(self) -> IntervalRecord:
        return self._closed.popleft()

    def clear_interval(self, index: int, retire_time: int) -> None:
        """Comparison matched: interval ``index`` may retire at ``retire_time``."""
        self.retire_at[index & self.retire_mask] = retire_time
        self.fingerprints_compared += 1

    @property
    def open_count(self) -> int:
        """User instructions in the currently-open interval."""
        return self._count

    def flush(self) -> None:
        """Recovery: drop all pending state and restart interval numbering."""
        self._closed.clear()
        self.retire_at[0] = NEVER
        self._accum.reset()
        self._count = 0
        self._has_sync = False
        self._has_halt = False
        self._index = 0
