"""Transient-fault (soft error) injection.

The paper's fault model (Section 2.1): single-event upsets flip bits in
the unprotected datapath between fetch and retirement; architectural
arrays are ECC-protected.  We model this by flipping a bit in one of the
value classes that flow through bypass networks into the fingerprint:

``result``
    An instruction's computed result — the classic datapath upset.
``store_addr``
    A store's effective address, corrupted after address generation
    (the store silently lands on the wrong line, and the fingerprint's
    store-address word diverges).
``branch_target``
    A control instruction's resolved next-PC — the fetch redirect and
    the fingerprint's branch-target word both see the corrupted value.

The paper's headline experiments inject no faults (input incoherence,
comparison, and recovery are the measured phenomena); this module powers
the reproduction's extension experiments: detection coverage, detection
latency, and recovery success under injected upsets (see
:mod:`repro.campaign`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.pipeline.flat import FlatView
from repro.pipeline.ooo_core import OoOCore

#: The injectable fault-site classes, one per fingerprint input stream.
TARGETS = ("result", "store_addr", "branch_target")


@dataclass
class FaultRecord:
    """One injected upset, for post-run analysis."""

    core_id: int
    seq: int
    pc: int
    bit: int
    original: int
    corrupted: int
    cycle: int = 0  # core cycle at injection (detection-latency analysis)
    target: str = "result"  # which value class was corrupted


@dataclass
class FaultInjector:
    """Flips one bit of a ``target``-class value every ``interval`` hits.

    Attach to a core with :meth:`attach`; the injector hooks the core's
    issue path.  ``interval=0`` disables periodic injection, leaving only
    :meth:`inject_once`.  ``target`` selects the fault-site class (see
    :data:`TARGETS`); only instructions eligible for that class are
    counted, so ``interval``/``after`` are measured in *eligible*
    instructions.  ``bit`` pins the flipped bit position (campaigns
    stratify by it); ``None`` draws one per injection from the seeded
    RNG.
    """

    interval: int = 0
    seed: int = 0
    target: str = "result"
    bit: int | None = None
    records: list[FaultRecord] = field(default_factory=list)
    _pending_once: int = field(default=0, repr=False)
    _count: int = field(default=0, repr=False)
    _rng: random.Random = field(default=None, repr=False)  # type: ignore[assignment]
    _core_id: int = field(default=-1, repr=False)
    _core: OoOCore = field(default=None, repr=False)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.target not in TARGETS:
            raise ValueError(f"fault target must be one of {TARGETS}, got {self.target!r}")
        if self.bit is not None and not 0 <= self.bit < 64:
            raise ValueError(f"fault bit must be in [0, 64), got {self.bit}")

    def attach(self, core: OoOCore) -> None:
        self._rng = random.Random(self.seed ^ core.core_id)
        self._core_id = core.core_id
        self._core = core
        if core.pair is not None:
            # A fault-armed pair must run full dual execution: replayed
            # values would let consumers ignore a corrupted result, so
            # the divergence the fingerprints must catch never forms.
            core.pair.disable_replay()
        core.fault_hook = self._hook

    def inject_once(self, after: int = 0) -> None:
        """Arm a single upset, ``after`` more eligible instructions from now."""
        self._pending_once = self._count + after + 1

    # -- per-target eligibility and corruption ------------------------------
    def _victim_value(self, entry: FlatView) -> int | None:
        """The value this injector's target class would corrupt, if any."""
        target = self.target
        if target == "result":
            return entry.result
        if target == "store_addr":
            if entry.inst.is_store:
                return entry.addr
            return None
        # branch_target
        if entry.inst.is_control:
            return entry.actual_next
        return None

    def _corrupt(self, entry: FlatView, corrupted: int) -> None:
        target = self.target
        if target == "result":
            entry.result = corrupted
        elif target == "store_addr":
            entry.addr = corrupted
        else:
            entry.actual_next = corrupted

    def _hook(self, entry: FlatView) -> None:
        if entry.injected:
            return
        original = self._victim_value(entry)
        if original is None:
            return
        self._count += 1
        fire = False
        if self.interval and self._count % self.interval == 0:
            fire = True
        if self._pending_once and self._count >= self._pending_once:
            fire = True
            self._pending_once = 0
        if not fire:
            return
        bit = self.bit if self.bit is not None else self._rng.randrange(64)
        corrupted = original ^ (1 << bit)
        self._corrupt(entry, corrupted)
        entry.faulted = True
        self.records.append(
            FaultRecord(
                core_id=self._core_id,
                seq=entry.seq,
                pc=entry.pc,
                bit=bit,
                original=original,
                corrupted=corrupted,
                cycle=self._core.cycles,
                target=self.target,
            )
        )
        obs = self._core.obs
        if obs is not None:
            obs.emit(
                "fault.inject",
                None,
                f"core{self._core_id}",
                seq=entry.seq,
                pc=entry.pc,
                bit=bit,
                target=self.target,
                original=original,
                corrupted=corrupted,
            )


# -- detection attribution --------------------------------------------------
@dataclass(slots=True)
class DetectionOutcome:
    """What the comparison machinery did about one injected fault."""

    record: FaultRecord
    #: The fault entered a fingerprint interval (False: squashed or
    #: still in flight when the run ended — microarchitecturally masked).
    absorbed: bool
    #: The pair's machinery caught a divergence attributable to this
    #: fault (its interval's comparison mismatched, or a watchdog /
    #: sync-divergence recovery fired while the fault was pending).
    detected: bool
    #: Detection mechanism: ``"fingerprint"`` or ``"count"`` (mismatch
    #: causes), ``"timeout"`` or ``"sync_divergence"`` (recovery
    #: causes), else None.
    cause: str | None
    #: Cycles from injection to the detection event, when detected.
    latency: int | None
    #: The faulted interval's fingerprints compared *equal*: the upset
    #: aliased through the CRC — the silent-data-corruption path.
    aliased: bool
    #: An unrelated recovery flushed the faulted interval before its
    #: comparison; re-execution wiped the corruption (masked by flush).
    flushed: bool
    #: The faulted interval closed *unchecked* under a partial
    #: protection policy (``fingerprint.skip``): the corruption escaped
    #: through a coverage gap, not through CRC aliasing.  Campaigns
    #: report these separately — an unchecked escape indicts the
    #: policy's coverage, not the fingerprint's strength.
    unchecked: bool = False


def attribute_detections(
    records: list[FaultRecord],
    events,
    pair_source: str | None = None,
) -> list[DetectionOutcome]:
    """Correlate injected faults with the pair events that caught them.

    ``events`` is an event stream (``Telemetry.log.snapshot()``) from a
    run armed at the ``events`` level.  Each fault is anchored by its
    gate's ``fault.absorb`` record — which fingerprint interval absorbed
    the corrupted entry — and then tracked to that *specific* interval's
    comparison:

    * comparison mismatched → detected (cause from the paired
      ``fingerprint.mismatch`` record: fingerprint / count);
    * comparison matched → the upset aliased through the CRC;
    * a ``recovery.start`` with cause ``mismatch`` arrived first → some
      *other* divergence was detected and the rollback flushed the
      faulted interval before it could compare (not attributed);
    * a ``recovery.start`` with cause ``timeout`` or ``sync_divergence``
      arrived while the fault was pending → attributed as a detection by
      that mechanism (a live single fault explains the divergence);
    * the interval closed with ``fingerprint.skip`` (partial protection
      policy) → ``unchecked``: the escape is a policy coverage gap, not
      CRC aliasing.

    ``pair_source`` restricts pair-event matching to one pair's records
    (``"pair0"``); None accepts any pair — correct for single-pair runs.
    """
    outcomes: list[DetectionOutcome] = []
    stream = list(events)
    for record in records:
        gate_source = f"core{record.core_id}"
        # Anchor: which interval absorbed this fault.
        absorb_pos = None
        interval = None
        for pos, event in enumerate(stream):
            if (
                event.kind == "fault.absorb"
                and event.source == gate_source
                and event.args.get("seq") == record.seq
                and event.cycle >= record.cycle
            ):
                absorb_pos = pos
                interval = event.args["interval"]
                break
        if absorb_pos is None:
            outcomes.append(
                DetectionOutcome(record, False, False, None, None, False, False)
            )
            continue

        detected = False
        cause: str | None = None
        latency: int | None = None
        aliased = False
        flushed = False
        unchecked = False
        for event in stream[absorb_pos + 1 :]:
            if (
                event.kind == "fingerprint.skip"
                and event.source == gate_source
                and event.args.get("index") == interval
            ):
                # The faulted interval closed unchecked (partial
                # protection policy): no comparison will ever arrive
                # for it.  Gate-sourced, so checked before the
                # pair-source filter below.
                unchecked = True
                break
            if pair_source is not None:
                if event.source != pair_source:
                    continue
            elif not event.source.startswith("pair"):
                continue
            kind = event.kind
            if kind == "fingerprint.compare" and event.args.get("index") == interval:
                if event.args.get("matched"):
                    aliased = True
                else:
                    detected = True
                    cause = "fingerprint"
                    latency = event.cycle - record.cycle
                break
            if kind == "fingerprint.mismatch" and event.args.get("index") == interval:
                # Paired with the compare above; refine the cause.
                detected = True
                cause = event.args.get("cause", "fingerprint")
                latency = event.cycle - record.cycle
                break
            if kind == "recovery.start":
                why = event.args.get("cause")
                if why in ("timeout", "sync_divergence"):
                    detected = True
                    cause = why
                    latency = event.cycle - record.cycle
                else:
                    flushed = True
                break
        if detected and cause == "fingerprint":
            # The compare event precedes its mismatch record in the
            # stream; look one step ahead for the refined cause.
            for event in stream[absorb_pos + 1 :]:
                if (
                    event.kind == "fingerprint.mismatch"
                    and event.args.get("index") == interval
                    and (
                        pair_source is None or event.source == pair_source
                    )
                ):
                    cause = event.args.get("cause", "fingerprint")
                    break
        outcomes.append(
            DetectionOutcome(
                record, True, detected, cause, latency, aliased, flushed, unchecked
            )
        )
    return outcomes


def detection_latencies(
    records: list[FaultRecord],
    recovery_log: list[tuple[int, str]] | None = None,
    *,
    events=None,
) -> list[int]:
    """Cycles from each injection to the event that detected *it*.

    Fingerprinting's selling point (Smolens et al. [21]) is *bounded*
    detection latency: an upset is caught no later than its fingerprint
    interval's comparison.  With ``events`` (a telemetry snapshot from a
    run armed at the ``events`` level), each fault is correlated with
    its own interval's comparison via :func:`attribute_detections`, so
    recoveries with unrelated causes are never counted.

    The legacy ``recovery_log`` path pairs each fault with the first
    recovery at or after the injection cycle.  That over-attributes —
    any unrelated recovery in the window (input incoherence, another
    fault) is charged to the injection — and is kept only for runs
    without telemetry; prefer ``events``.
    """
    if events is not None:
        return [
            outcome.latency
            for outcome in attribute_detections(records, events)
            if outcome.detected and outcome.latency is not None
        ]
    if recovery_log is None:
        raise ValueError("detection_latencies needs events= or a recovery_log")
    latencies = []
    recovery_cycles = sorted(cycle for cycle, _cause in recovery_log)
    for record in records:
        for cycle in recovery_cycles:
            if cycle >= record.cycle:
                latencies.append(cycle - record.cycle)
                break
    return latencies
