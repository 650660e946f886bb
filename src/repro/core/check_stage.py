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
cleared with a retire time, and the gate releases its instructions to
architectural retirement.

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
from repro.isa.opcodes import Op
from repro.pipeline.flat import M_FAULTED, M_INJECTED, M_SYNC
from repro.pipeline.gates import NEVER
from repro.pipeline.rob import DynInstr
from repro.sim.config import RedundancyConfig

#: Same 64-bit update-word domain as repro.core.fingerprint.
_WORD_MASK_64 = (1 << 64) - 1

#: Instructions whose address enters the fingerprint's store stream
#: (``Instruction.is_store``: plain stores *and* atomics).
_F_STORE_STREAM = F_STORE | F_ATOMIC

#: ``CheckGate._retire_time`` size at which an interval close sweeps out
#: the entries no pending instruction can read again.  One entry is
#: written per closed interval, so without the sweep a gate's host
#: memory grows with run length.
RETIRE_TIME_SWEEP_AT = 4_096


class IntervalRecord(NamedTuple):
    """A closed fingerprint interval, ready for comparison.

    A NamedTuple rather than a dataclass: one is built per retired user
    instruction at the paper's interval length of 1, and tuple
    construction is C-speed where a ``__init__`` frame is not.
    """

    index: int
    fingerprint: int
    count: int  # user instructions summarized
    close_cycle: int
    serializing: bool
    has_sync: bool  # contains a synchronizing-request instruction
    has_halt: bool


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
    """One core's side of the output-comparison machinery."""

    def __init__(self, config: RedundancyConfig) -> None:
        from repro.core.fingerprint import FingerprintAccumulator

        self.config = config
        accum = FingerprintAccumulator(
            config.fingerprint_bits, config.two_stage_compression
        )
        self._accum = accum
        # The paper configs close an interval per instruction, so _close
        # runs once per retired user instruction: with the 16-bit wide
        # tables available, fold short word batches inline instead of
        # paying add_words' per-call preamble.
        self._fast_lt = (
            accum._lt if (accum._lt is not None and accum.two_stage) else None
        )
        self._fast_mt = accum._mt
        #: Partial-interval timeout (see maybe_timeout_close), hoisted out
        #: of the per-cycle path — as are the interval length and the
        #: comparison latency, which offer / pop_retirable / has_retirable
        #: would otherwise chase through two attributes per instruction.
        self._timeout_limit = max(8, config.fingerprint_interval // 2)
        self._interval_len = config.fingerprint_interval
        self._cmp_latency = config.comparison_latency
        # (entry, interval index or None for injected pass-through, offer cycle)
        # — ``entry`` is a DynInstr in object mode, a packed flat-ROB ref
        # (int) in flat mode; a gate only ever serves one loop flavour.
        self._pending: deque[tuple] = deque()
        #: Reused pop_retirable output buffer (valid until the next pop).
        self._scratch: list = []
        #: Update words of the currently-open interval, captured at offer
        #: time and hashed in one batched :meth:`FingerprintAccumulator.
        #: add_words` call when the interval closes.  CRC chaining is
        #: sequential over words, so hashing the concatenation at close is
        #: bit-identical to hashing per instruction — but pays the table/
        #: mask attribute preamble once per interval and unlocks the numpy
        #: gather path for long intervals.
        self._words: list[int] = []
        self._closed: deque[IntervalRecord] = deque()
        self._count = 0
        self._has_sync = False
        self._has_halt = False
        self._index = 0
        self._last_offer = 0
        self._retire_time: dict[int, int] = {}
        self.single_step = False
        #: True when a LogicalPair drives this gate (and therefore calls
        #: maybe_timeout_close every pair step).  The cycle-skipping
        #: kernel must only schedule timeout-close wake-ups for paired
        #: gates — a StrictCheckGate never has its timeout invoked.
        self.paired = False
        #: Monotone counters for statistics.
        self.intervals_closed = 0
        self.fingerprints_compared = 0
        self.intervals_unchecked = 0
        #: Cumulative user instructions offered, NOT reset by flush()
        #: (recovery re-offers count again, identically on both cores).
        #: The cores' offer loops consult it to service external
        #: interrupts at the in-order offer boundary — a pure function
        #: of the correct-path stream, so heterogeneous pairs (e.g. a
        #: narrow little-mute) pick the same service point even though
        #: their in-flight depths differ.
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
    def offer(self, entry: DynInstr, now: int) -> None:
        """A completed instruction, oldest first, enters the check stage."""
        if entry.injected:
            # Injected handler instructions are not fingerprinted (they
            # keep the vocal/mute user streams aligned), but serializing
            # ones still pay a full comparison-latency stall at the front
            # of the queue — see pop_retirable.
            self._pending.append((entry, None, now))
            return
        # Capture this instruction's architectural-update words (same
        # selection as FingerprintAccumulator.add_instruction) into the
        # open interval's buffer; the hash happens at _close.  Words are
        # captured *now*, so a later squash of a checked entry leaves the
        # fingerprint unchanged — exactly as the per-offer hashing did.
        inst = entry.inst
        words = self._words
        if inst.writes_reg and entry.result is not None:
            words.append(entry.result)
        if inst.is_store and entry.addr is not None:
            words.append(entry.addr)
            if entry.store_value is not None:
                words.append(entry.store_value)
        if inst.is_atomic and entry.addr is not None:
            words.append(entry.addr)
        if inst.is_control and entry.actual_next is not None:
            words.append(entry.actual_next)
        if entry.faulted:
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
                    seq=entry.seq,
                    interval=self._index,
                )
        self._count += 1
        self.users_offered += 1
        self._has_sync = self._has_sync or entry.was_sync
        is_halt = entry.inst.op is Op.HALT
        self._has_halt = self._has_halt or is_halt
        self._pending.append((entry, self._index, now))
        self._last_offer = now
        if (
            self._count >= self._interval_len
            or entry.serializing
            or is_halt
            or self.single_step
        ):
            self._close(now)

    def offer_f(self, core, slot: int, now: int) -> None:
        """Flat twin of :meth:`offer` over the core's column arrays.

        Same decisions, same word-capture order (result → store addr/value
        → atomic addr → branch target), keyed off the decode ``F_*`` mask
        and the packed booleans instead of ``Instruction`` attributes.
        """
        packed = (core.f_seq[slot] << core._f_sbits) | slot
        mask = core.f_mask[slot]
        if mask & M_INJECTED:
            self._pending.append((packed, None, now))
            return
        flags = core.f_flags[slot]
        words = self._words
        if flags & F_WRITES:
            result = core.f_res[slot]
            if result is not None:
                words.append(result)
        if flags & _F_STORE_STREAM:
            addr = core.f_addr[slot]
            if addr is not None:
                words.append(addr)
                store_value = core.f_sval[slot]
                if store_value is not None:
                    words.append(store_value)
            if flags & F_ATOMIC and addr is not None:
                words.append(addr)
        if flags & F_CONTROL:
            actual_next = core.f_anext[slot]
            if actual_next is not None:
                words.append(actual_next)
        if mask & M_FAULTED:
            obs = self.obs
            if obs is not None:
                obs.emit(
                    "fault.absorb",
                    now,
                    self.obs_source,
                    seq=packed >> core._f_sbits,
                    interval=self._index,
                )
        self._count += 1
        self.users_offered += 1
        self._has_sync = self._has_sync or bool(mask & M_SYNC)
        is_halt = flags & F_HALT
        if is_halt:
            self._has_halt = True
        self._pending.append((packed, self._index, now))
        self._last_offer = now
        if (
            self._count >= self._interval_len
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

    def _sweep_retire_time(self) -> None:
        """Drop the retire times no pending instruction can read again.

        Pending interval indices never decrease, so every key below the
        oldest one still pending (the open interval's when nothing is)
        belongs to an interval whose instructions have all left the
        gate.  Keys are closed intervals, so the live ones lie below
        ``_index``.
        """
        floor = self._index
        for _, index, _ in self._pending:
            if index is not None:
                floor = index
                break
        retire_time = self._retire_time
        self._retire_time = {
            index: retire_time[index]
            for index in range(floor, self._index)
            if index in retire_time
        }

    def _close(self, now: int) -> None:
        if len(self._retire_time) >= RETIRE_TIME_SWEEP_AT:
            self._sweep_retire_time()
        if (
            not self._check_all
            and not self.single_step
            and not self._policy_state.checked(self._index)
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
        words = self._words
        if words:
            lt = self._fast_lt
            if lt is not None and len(words) < 64:
                # Inline the accumulator's two-stage 16-bit lt/mt fold
                # (bit-identical to add_words; see fingerprint.add_word's
                # wide-table branch) — short intervals don't amortize the
                # batched path's preamble, and interval length 1 is the
                # paper default.
                crc = accum._crc
                mt = self._fast_mt
                for word in words:
                    word &= _WORD_MASK_64
                    crc = lt[crc] ^ mt[
                        (word ^ (word >> 16) ^ (word >> 32) ^ (word >> 48))
                        & 0xFFFF
                    ]
                accum._crc = crc
            else:
                accum.add_words(words)
            words.clear()
        # Positional construction: this runs once per retired user
        # instruction at the paper's interval length of 1.
        self._closed.append(
            IntervalRecord(
                self._index,
                accum._crc,
                self._count,
                now,
                False,
                self._has_sync,
                self._has_halt,
            )
        )
        obs = self.obs
        if obs is not None and obs.full:
            self._emit(
                "fingerprint.close",
                now,
                index=self._index,
                count=self._count,
                fingerprint=self._closed[-1].fingerprint,
            )
        accum._crc = 0  # reset(), inlined
        self._count = 0
        self._has_sync = False
        self._has_halt = False
        self._index += 1
        self.intervals_closed += 1

    def _skip_close(self, now: int) -> None:
        """Close an *unchecked* interval: retire immediately, hash nothing.

        The captured update words are discarded unhashed (the
        accumulator CRC is untouched — it is always 0 between closes),
        the interval never enters ``_closed``, and its instructions get
        ``now`` as their retire time, modeling fingerprint exchange
        switched off for this interval.  ``fingerprint.skip`` is the
        attribution anchor letting the campaign classifier mark SDCs
        that escaped through a coverage gap (rather than CRC aliasing).
        """
        self._words.clear()
        self._retire_time[self._index] = now
        if self.obs is not None:
            self._emit("fingerprint.skip", now, index=self._index, count=self._count)
        self._count = 0
        self._has_sync = False
        self._has_halt = False
        self._index += 1
        self.intervals_closed += 1
        self.intervals_unchecked += 1

    def pop_retirable(self, now: int, limit: int) -> list[DynInstr]:
        # ``out`` is the reused scratch buffer: valid until the next pop,
        # consumed immediately by every caller (retire loop, recovery
        # drain), never retained.
        out = self._scratch
        out.clear()
        pending = self._pending
        while pending and len(out) < limit:
            entry, index, offered = pending[0]
            if entry.squashed:
                pending.popleft()
                continue
            if index is None:
                # Injected handler instruction.  Serializing ones (the
                # handler's traps and MMU operations) must be compared
                # with the partner before younger instructions proceed —
                # Section 4.4 applies to them exactly as to user code —
                # so they wait a full comparison latency at the front.
                if entry.serializing and now < offered + self._cmp_latency:
                    break
                pending.popleft()
                out.append(entry)
                continue
            retire_at = self._retire_time.get(index)
            if retire_at is None or retire_at > now:
                break
            pending.popleft()
            out.append(entry)
        return out

    def has_retirable(self, now: int) -> bool:
        """Allocation-free precheck mirroring :meth:`pop_retirable`'s head test.

        The hot loop calls this every cycle; squashed heads count as
        "retirable" so the pop still discards them promptly.
        """
        pending = self._pending
        if not pending:
            return False
        entry, index, offered = pending[0]
        if entry.squashed:
            return True
        if index is None:
            return (
                not entry.serializing
                or now >= offered + self._cmp_latency
            )
        retire_at = self._retire_time.get(index)
        return retire_at is not None and retire_at <= now

    def pop_retirable_f(self, core, now: int, limit: int) -> list[int]:
        """Flat twin of :meth:`pop_retirable` over packed refs.

        Returned refs share the object pop's scratch-buffer lifetime and
        must be seq-re-validated by the caller (a TRAP/interrupt retire
        mid-batch squashes younger refs still in the batch).
        """
        out = self._scratch
        out.clear()
        pending = self._pending
        if not pending:
            return out
        f_seq = core.f_seq
        smask = core._f_smask
        sbits = core._f_sbits
        f_flags = core.f_flags
        while pending and len(out) < limit:
            packed, index, offered = pending[0]
            if f_seq[packed & smask] != packed >> sbits:
                pending.popleft()  # squashed after offer
                continue
            if index is None:
                # Injected handler instruction (see pop_retirable).
                if (
                    f_flags[packed & smask] & F_SER
                    and now < offered + self._cmp_latency
                ):
                    break
                pending.popleft()
                out.append(packed)
                continue
            retire_at = self._retire_time.get(index)
            if retire_at is None or retire_at > now:
                break
            pending.popleft()
            out.append(packed)
        return out

    def has_retirable_f(self, core, now: int) -> bool:
        pending = self._pending
        if not pending:
            return False
        packed, index, offered = pending[0]
        if core.f_seq[packed & core._f_smask] != packed >> core._f_sbits:
            return True  # squashed head: pop discards it
        if index is None:
            return (
                not core.f_flags[packed & core._f_smask] & F_SER
                or now >= offered + self._cmp_latency
            )
        retire_at = self._retire_time.get(index)
        return retire_at is not None and retire_at <= now

    def next_release_f(self, core, now: int) -> int:
        wake = NEVER
        pending = self._pending
        if pending:
            packed, index, offered = pending[0]
            if core.f_seq[packed & core._f_smask] != packed >> core._f_sbits:
                return now
            if index is None:
                if core.f_flags[packed & core._f_smask] & F_SER:
                    release = offered + self._cmp_latency
                    return release if release > now else now
                return now
            retire_at = self._retire_time.get(index)
            if retire_at is not None:
                return retire_at if retire_at > now else now
        if self._count and self.paired:
            timeout = self._last_offer + self._timeout_limit + 1
            if timeout <= now:
                return now
            if timeout < wake:
                wake = timeout
        return wake

    def next_release(self, now: int) -> int:
        """Conservative horizon: when could this gate next release work?

        Mirrors every ``now``-dependent branch of :meth:`pop_retirable`
        plus the interval timeout in :meth:`maybe_timeout_close`.  A
        closed-but-uncompared interval contributes nothing here — the
        comparison is the pair controller's event, reported by
        ``LogicalPair.next_event`` — but once :meth:`clear_interval` has
        run, the head's retire time is a known future cycle.
        """
        wake = NEVER
        pending = self._pending
        if pending:
            entry, index, offered = pending[0]
            if entry.squashed:
                return now
            if index is None:
                if entry.serializing:
                    release = offered + self._cmp_latency
                    return release if release > now else now
                return now
            else:
                retire_at = self._retire_time.get(index)
                if retire_at is not None:
                    return retire_at if retire_at > now else now
        if self._count and self.paired:
            # The pair controller will force-close a lingering partial
            # interval one cycle past the timeout limit.
            timeout = self._last_offer + self._timeout_limit + 1
            if timeout <= now:
                return now
            if timeout < wake:
                wake = timeout
        return wake

    # -- partner side (driven by the pair controller / oracle) ----------------
    def peek_closed(self) -> IntervalRecord | None:
        """Oldest closed-but-uncompared interval, if any."""
        return self._closed[0] if self._closed else None

    def pop_closed(self) -> IntervalRecord:
        return self._closed.popleft()

    def clear_interval(self, index: int, retire_time: int) -> None:
        """Comparison matched: interval ``index`` may retire at ``retire_time``."""
        self._retire_time[index] = retire_time
        self.fingerprints_compared += 1

    @property
    def open_count(self) -> int:
        """User instructions in the currently-open interval."""
        return self._count

    @property
    def waiting(self) -> int:
        """Instructions buffered in check (resource-occupancy metric)."""
        return len(self._pending)

    def flush(self) -> None:
        """Recovery: drop all pending state and restart interval numbering."""
        self._pending.clear()
        self._closed.clear()
        self._retire_time.clear()
        self._accum.reset()
        self._words.clear()
        self._count = 0
        self._has_sync = False
        self._has_halt = False
        self._index = 0
