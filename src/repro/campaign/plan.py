"""Campaign planning: stratified, reproducible injection-site sampling.

A campaign is a list of :class:`InjectionJob` — each one a pure function
of its :class:`~repro.sim.config.SystemConfig` and :class:`InjectionSpec`
with a SHA-256 content-hash key, exactly like
:class:`~repro.exec.jobs.SampleJob`, so campaigns ride the existing
execution pool and persistent cache unchanged.

Sampling is stratified the way injection-campaign studies stratify
(RepTFD-style): the plan round-robins over the cross product of victim
core (vocal / mute) and fault-target class (result / store address /
branch target, restricted to classes the workload actually exercises),
and within each stratum rotates the flipped bit through the eight octets
of the 64-bit datapath while drawing the injection point from a
per-stratum seeded RNG.  Identical ``(workload, injections, seed,
config)`` inputs therefore enumerate byte-identical plans on every
machine — the property the resumable cache keys rely on.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Sequence

from repro.exec.jobs import config_payload
from repro.sim.config import (
    BusConfig,
    CacheStyle,
    CoherenceStyle,
    CoreConfig,
    L1Config,
    L2Config,
    MemoryConfig,
    Mode,
    ProtectionPolicy,
    RedundancyConfig,
    SystemConfig,
    TLBConfig,
)
from repro.sim.sampling import prepare_sample
from repro.workloads import by_name

if TYPE_CHECKING:  # pragma: no cover
    from repro.workloads.base import Workload

#: Version stamp folded into every campaign job key and cache record.
#: Bump whenever injection/classification semantics change in a way that
#: invalidates previously cached outcomes.
#: v2: BusConfig grew the CoherenceStyle/directory-interconnect fields,
#: changing every config payload.
#: v3: SystemConfig grew pair_policies (per-pair protection) and the
#: classifier grew unchecked-interval attribution, changing every
#: config payload and outcome record.
CAMPAIGN_SCHEMA_VERSION = 3

#: Default architectural window: the golden signature and every
#: classification cover the first this-many user commits.
DEFAULT_COMMIT_TARGET = 400

#: Default per-run cycle budget; a run that cannot produce the commit
#: window within it classifies as a timeout/hang.
DEFAULT_MAX_CYCLES = 120_000


@dataclass(frozen=True)
class InjectionSpec:
    """One injection site: everything one injected run depends on."""

    workload_name: str
    seed: int  # workload seed (shared with the golden reference)
    victim: str  # "vocal" | "mute"
    target: str  # see repro.core.faults.TARGETS
    bit: int  # flipped bit position, [0, 64)
    inject_index: int  # eligible instructions to skip before firing
    commit_target: int = DEFAULT_COMMIT_TARGET
    max_cycles: int = DEFAULT_MAX_CYCLES

    def __post_init__(self) -> None:
        from repro.core.faults import TARGETS

        if self.victim not in ("vocal", "mute"):
            raise ValueError(f"victim must be 'vocal' or 'mute', got {self.victim!r}")
        if self.target not in TARGETS:
            raise ValueError(f"target must be one of {TARGETS}, got {self.target!r}")
        if not 0 <= self.bit < 64:
            raise ValueError(f"bit must be in [0, 64), got {self.bit}")


@dataclass(frozen=True)
class InjectionJob:
    """One campaign sample: a pure function of ``config`` and ``spec``."""

    config: SystemConfig
    spec: InjectionSpec

    def payload(self) -> dict[str, Any]:
        """The canonical dict this job's key is the hash of."""
        return {
            "schema": CAMPAIGN_SCHEMA_VERSION,
            "kind": "injection",
            "config": config_payload(self.config),
            "spec": config_payload(self.spec),
        }

    @property
    def key(self) -> str:
        canonical = json.dumps(self.payload(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    def describe(self) -> str:
        spec = self.spec
        return (
            f"{spec.workload_name}/{spec.victim}/{spec.target}"
            f"/bit{spec.bit}@{spec.inject_index}"
        )

    def prepare(self) -> None:
        """Build what this run shares with its campaign, in this process.

        As :meth:`repro.exec.jobs.SampleJob.prepare`: the pool calls it
        before forking the run's worker.
        """
        spec = self.spec
        prepare_sample(self.config, by_name(spec.workload_name), spec.seed)


def campaign_config(
    fingerprint_bits: int = 16,
    fingerprint_interval: int = 8,
    comparison_latency: int = 10,
    coherence: str = "shared",
    n_logical: int = 1,
    policy: ProtectionPolicy | None = None,
) -> SystemConfig:
    """A Reunion system sized for thousands of short injected runs.

    Mirrors the integration-test scale (tiny caches, short watchdog) so
    one injected run costs milliseconds; the multi-instruction
    fingerprint interval matters — propagated corruption must be able to
    put several divergent words into one interval, or CRC aliasing (the
    cross-check's subject) could never be observed.

    ``coherence`` picks the memory backend (``shared`` / ``snoopy`` /
    ``directory``) and ``n_logical`` the pair count, so campaigns can
    probe fault behavior on the directory backend's many-pair systems
    (injection and classification always target pair 0).  ``policy``
    applies one :class:`~repro.sim.config.ProtectionPolicy` uniformly
    across the pairs (the frontier sweep measures coverage per policy).
    """
    if coherence not in ("shared", "snoopy", "directory"):
        raise ValueError(
            f"coherence must be 'shared', 'snoopy' or 'directory', got {coherence!r}"
        )
    if coherence == "shared":
        cache_style, bus = CacheStyle.SHARED, BusConfig()
    else:
        cache_style = CacheStyle.SNOOPY
        bus = BusConfig(coherence=CoherenceStyle(coherence))
    return SystemConfig(
        n_logical=n_logical,
        pair_policies=(policy,) * n_logical if policy is not None else None,
        core=CoreConfig(width=4, rob_size=32, store_buffer_size=8, frontend_latency=3),
        l1=L1Config(size_bytes=1024, assoc=2, load_to_use=2, mshrs=4),
        l2=L2Config(size_bytes=16 * 1024, assoc=8, banks=2, hit_latency=8, mshrs=8),
        tlb=TLBConfig(itlb_entries=8, dtlb_entries=16, page_bits=10, hw_fill_latency=10),
        memory=MemoryConfig(latency=40),
        cache_style=cache_style,
        bus=bus,
        redundancy=RedundancyConfig(
            mode=Mode.REUNION,
            fingerprint_bits=fingerprint_bits,
            fingerprint_interval=fingerprint_interval,
            comparison_latency=comparison_latency,
            divergence_timeout=2_000,
        ),
    )


def available_targets(workload: "Workload", config: SystemConfig, seed: int = 0):
    """The fault-target classes this workload's code can exercise.

    Inspects the static instruction mix of logical processor 0's
    program: a store-address fault needs a store to corrupt, a
    branch-target fault a control instruction.  Results are always
    injectable.
    """
    program = workload.programs(config.n_logical, seed)[0]
    targets = ["result"]
    if any(inst.is_store for inst in program.instructions):
        targets.append("store_addr")
    if any(inst.is_control for inst in program.instructions):
        targets.append("branch_target")
    return tuple(targets)


def plan_campaign(
    workload_name: str,
    injections: int,
    seed: int = 0,
    config: SystemConfig | None = None,
    commit_target: int = DEFAULT_COMMIT_TARGET,
    max_cycles: int = DEFAULT_MAX_CYCLES,
    victims: Sequence[str] = ("vocal", "mute"),
) -> list[InjectionJob]:
    """Enumerate ``injections`` stratified injection sites.

    Strata are the cross product of ``victims`` and the workload's
    available fault targets, filled round-robin so every stratum gets
    ``injections / len(strata)`` samples (±1).  Within a stratum the
    flipped bit rotates through the eight octets (low bits alias
    differently through arithmetic than high bits) and the injection
    point is drawn from a stratum-seeded RNG over a window early enough
    that the fault lands well inside the measured commit window.
    """
    if injections < 1:
        raise ValueError("a campaign needs at least one injection")
    if config is None:
        config = campaign_config()
    workload = by_name(workload_name)
    targets = available_targets(workload, config, seed)
    strata = [(victim, target) for victim in victims for target in targets]
    rngs = {
        stratum: random.Random(f"{seed}:{stratum[0]}:{stratum[1]}")
        for stratum in strata
    }
    draws = {stratum: 0 for stratum in strata}

    jobs: list[InjectionJob] = []
    for index in range(injections):
        victim, target = stratum = strata[index % len(strata)]
        rng = rngs[stratum]
        draw = draws[stratum]
        draws[stratum] += 1
        octet = draw % 8
        bit = octet * 8 + rng.randrange(8)
        if target == "result":
            # Nearly every instruction produces a result: an eligible-
            # instruction index up to half the commit window fires early.
            window = max(1, commit_target // 2)
        else:
            # Stores / branches are a fraction of the mix; stay shallow
            # so the fault still fires within the window.
            window = max(1, commit_target // 16)
        inject_index = rng.randrange(window)
        jobs.append(
            InjectionJob(
                config=config,
                spec=InjectionSpec(
                    workload_name=workload.name,
                    seed=seed,
                    victim=victim,
                    target=target,
                    bit=bit,
                    inject_index=inject_index,
                    commit_target=commit_target,
                    max_cycles=max_cycles,
                ),
            )
        )
    return jobs
