"""Run one injected sample against a golden reference and classify it.

The architectural yardstick is a *commit-stream signature*: a SHA-256
over the first ``commit_target`` user commits on the vocal core (PC,
result, store address/value, branch target — the same update classes
the fingerprint hashes).  The golden reference runs the identical
system with no injection; an injected run whose signature matches
retired the exact same architectural stream, bit for bit.

Classification (the standard fault-injection taxonomy):

=====================  ====================================================
``masked``             The upset never perturbed the architectural stream:
                       squashed in flight, overwritten, or flushed by an
                       unrelated recovery before its interval compared.
``detected_recovered`` The pair's machinery caught the divergence
                       (fingerprint/count mismatch, watchdog, or sync
                       divergence) and re-execution restored the golden
                       stream.
``detected_unrecoverable`` Detected, but the re-execution protocol
                       escalated past phase 2 — the paper's DUE outcome.
``sdc``                The corrupted stream retired architecturally
                       (signature mismatch): silent data corruption, the
                       outcome CRC aliasing makes possible.
``timeout``            The run could not produce the commit window within
                       its cycle budget (hung or wedged).
=====================  ====================================================

Detection cause and latency come from the :mod:`repro.obs` event stream
via :func:`repro.core.faults.attribute_detections` — the injection is
matched to *its own* fingerprint interval's comparison, never to the
first recovery that happens along.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.campaign.plan import InjectionSpec
from repro.core.faults import FaultInjector, attribute_detections
from repro.sim.cmp import CMPSystem
from repro.sim.config import SystemConfig
from repro.sim.options import SimOptions
from repro.sim.sampling import _generated
from repro.workloads import by_name

MASKED = "masked"
DETECTED_RECOVERED = "detected_recovered"
DETECTED_UNRECOVERABLE = "detected_unrecoverable"
SDC = "sdc"
TIMEOUT = "timeout"

#: The taxonomy, in report order.  Every injected run lands in exactly
#: one bucket.
TAXONOMY = (MASKED, DETECTED_RECOVERED, DETECTED_UNRECOVERABLE, SDC, TIMEOUT)

#: Cycles per ``system.run`` slice while polling the commit probe.
_RUN_CHUNK = 1_024


@dataclass(frozen=True)
class Outcome:
    """One classified injection (JSON-ready scalars only)."""

    classification: str
    victim: str
    target: str
    bit: int
    inject_index: int
    #: The injector actually fired (False: the eligible-instruction
    #: window ended first; the run is golden by construction → masked).
    fired: bool
    #: The faulted entry entered a fingerprint interval.
    absorbed: bool
    #: Attribution: the pair caught a divergence traceable to this fault.
    detected: bool
    #: "fingerprint" | "count" | "timeout" | "sync_divergence" | None.
    cause: str | None
    #: Injection-to-detection cycles (None when undetected).
    latency: int | None
    #: The faulted interval's fingerprints compared equal — CRC aliasing.
    aliased: bool
    #: An unrelated recovery flushed the faulted interval uncompared.
    flushed: bool
    #: The faulted interval closed unchecked under a partial protection
    #: policy — an SDC with this set escaped through the policy's
    #: coverage gap, not through CRC aliasing.
    unchecked: bool
    #: Run diagnostics.
    commits: int
    cycles: int
    recoveries: int
    signature_matched: bool


@dataclass(frozen=True)
class GoldenReference:
    """The uninjected run's signature and timing envelope."""

    signature: str
    commits: int
    cycles: int


class _CommitProbe:
    """Vocal retire hook: count user commits, hash the first ``limit``."""

    __slots__ = ("limit", "count", "_hash")

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.count = 0
        self._hash = hashlib.sha256()

    def __call__(self, entry) -> None:
        if self.count >= self.limit:
            return
        self.count += 1
        self._hash.update(
            repr(
                (
                    entry.pc,
                    entry.result,
                    entry.addr,
                    entry.store_value,
                    entry.actual_next,
                )
            ).encode()
        )

    def signature(self) -> str:
        return self._hash.hexdigest()


def _build_system(config: SystemConfig, spec: InjectionSpec, trace: str) -> CMPSystem:
    workload = by_name(spec.workload_name)
    # The golden run builds the generation; every injected run in this
    # process, or forked from it, reuses it.
    programs, schedules = _generated(workload, config.n_logical, spec.seed)
    # Dual execution always: fault-armed pairs disable the replay fast
    # path anyway, and running the golden reference in the identical
    # execution model keeps the two runs' timing envelopes comparable.
    options = SimOptions(kernel="event", execution="dual", trace=trace)
    return CMPSystem(config, programs, schedules, options=options)


def _run_to_commits(system: CMPSystem, probe: _CommitProbe, max_cycles: int) -> None:
    while (
        probe.count < probe.limit
        and not system.failed
        and system.now < max_cycles
    ):
        system.run(min(_RUN_CHUNK, max_cycles - system.now))


def golden_reference(config: SystemConfig, spec: InjectionSpec) -> GoldenReference:
    """Run the uninjected reference for ``spec``'s workload window.

    Any spec from the same plan works: the reference depends only on the
    (config, workload, seed, commit window) projection.
    """
    system = _build_system(config, spec, trace="off")
    probe = _CommitProbe(spec.commit_target)
    system.vocal_cores[0].retire_hook = probe
    _run_to_commits(system, probe, spec.max_cycles)
    if probe.count < spec.commit_target:
        raise RuntimeError(
            f"golden run reached only {probe.count}/{spec.commit_target} commits "
            f"in {spec.max_cycles} cycles; raise max_cycles or shrink the window"
        )
    return GoldenReference(
        signature=probe.signature(), commits=probe.count, cycles=system.now
    )


def classify(
    fired: bool,
    failed: bool,
    commits: int,
    commit_target: int,
    signature_matched: bool,
    detected: bool,
) -> str:
    """Pure classification kernel: exactly one taxonomy bucket.

    Precedence: an unfired injection is golden by construction; a failed
    pair is the DUE outcome regardless of how far it got; a run that
    never produced the window hung; a signature mismatch is SDC *even
    when a later recovery fired* (the corruption already retired); what
    remains is detected-and-recovered or fully masked.
    """
    if not fired:
        return MASKED
    if failed:
        return DETECTED_UNRECOVERABLE
    if commits < commit_target:
        return TIMEOUT
    if not signature_matched:
        return SDC
    if detected:
        return DETECTED_RECOVERED
    return MASKED


def run_injection(
    config: SystemConfig, spec: InjectionSpec, golden: GoldenReference
) -> Outcome:
    """Execute one injected run and classify it against ``golden``."""
    system = _build_system(config, spec, trace="events")
    pair = system.pairs[0]
    victim_core = pair.vocal if spec.victim == "vocal" else pair.mute
    injector = FaultInjector(
        interval=0,
        seed=spec.seed ^ (spec.bit << 8) ^ spec.inject_index,
        target=spec.target,
        bit=spec.bit,
    )
    injector.attach(victim_core)
    injector.inject_once(after=spec.inject_index)

    probe = _CommitProbe(spec.commit_target)
    system.vocal_cores[0].retire_hook = probe
    _run_to_commits(system, probe, spec.max_cycles)

    fired = bool(injector.records)
    detected = False
    cause = None
    latency = None
    aliased = False
    flushed = False
    absorbed = False
    unchecked = False
    if fired:
        outcome = attribute_detections(
            injector.records, system.obs.log.snapshot(), pair_source="pair0"
        )[0]
        absorbed = outcome.absorbed
        detected = outcome.detected
        cause = outcome.cause
        latency = outcome.latency
        aliased = outcome.aliased
        flushed = outcome.flushed
        unchecked = outcome.unchecked

    signature_matched = (
        probe.count >= spec.commit_target and probe.signature() == golden.signature
    )
    classification = classify(
        fired=fired,
        failed=system.failed,
        commits=probe.count,
        commit_target=spec.commit_target,
        signature_matched=signature_matched,
        detected=detected,
    )
    return Outcome(
        classification=classification,
        victim=spec.victim,
        target=spec.target,
        bit=spec.bit,
        inject_index=spec.inject_index,
        fired=fired,
        absorbed=absorbed,
        detected=detected,
        cause=cause,
        latency=latency,
        aliased=aliased,
        flushed=flushed,
        unchecked=unchecked,
        commits=probe.count,
        cycles=system.now,
        recoveries=system.recoveries(),
        signature_matched=signature_matched,
    )
