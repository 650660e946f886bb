"""System configuration dataclasses (the reproduction's Table 1).

Two presets are provided:

* :data:`PAPER_TABLE1` — the paper's exact CMP parameters (Table 1).
  Faithful, but a pure-Python simulation of 16 MB caches and 150K-cycle
  samples is slow; use it when fidelity matters more than wall clock.
* :data:`DEFAULT_CONFIG` — a scaled-down system that preserves the
  *ratios* driving the paper's effects (L1 much smaller than commercial
  working sets, L2 hit latency much larger than L1, memory much larger
  than L2) so the reproduced figures keep their shape at laptop scale.
"""

from __future__ import annotations

import dataclasses
import enum
import os
from dataclasses import dataclass


def _require_power_of_two(value: int, what: str) -> None:
    if value < 1 or value & (value - 1):
        raise ValueError(f"{what} must be a power of two, got {value}")


class Mode(enum.Enum):
    """Redundancy execution model of a simulated system."""

    NONREDUNDANT = "nonredundant"
    STRICT = "strict"  # oracle strict input replication (Section 5.1)
    REUNION = "reunion"


class PhantomStrength(enum.Enum):
    """Phantom request strengths from Section 4.2 of the paper."""

    NULL = "null"  # arbitrary data on any mute L1 miss
    SHARED = "shared"  # check shared L2; arbitrary data on L2 miss
    GLOBAL = "global"  # check L2, vocal L1s, and main memory


class Consistency(enum.Enum):
    """Memory consistency model (Section 5.5)."""

    TSO = "tso"  # total store order: store buffer drains in order
    SC = "sc"  # sequential consistency: every store serializes retirement


class TLBMode(enum.Enum):
    """TLB-miss handling (Section 5.5, Figure 7(b))."""

    HARDWARE = "hardware"  # hardware walker: fill latency only
    SOFTWARE = "software"  # UltraSPARC-style handler: traps + MMU ops


class CacheStyle(enum.Enum):
    """On-chip memory organization (Section 4.1).

    The paper's primary design uses a Piranha-style shared cache with a
    directory at the shared controller; it notes the execution model
    "can also be implemented at a snoopy cache interface for
    microarchitectures with private caches, such as Montecito."
    """

    SHARED = "shared"  # shared L2 + directory (the paper's main design)
    SNOOPY = "snoopy"  # private caches on a snoopy bus (Montecito-style)


class CoherenceStyle(enum.Enum):
    """How private caches are kept coherent (``CacheStyle.SNOOPY`` only).

    A shared bus snoops every transaction and stops scaling at a handful
    of cores; per-bank home-node directories over a point-to-point
    interconnect carry the 8-32-core (4-16 pair) configurations where
    input incoherence and serialization under contention become visible.
    This knob is *result-affecting* — it lives on the hashed
    :class:`SystemConfig` (via :class:`BusConfig`), never on
    :class:`~repro.sim.options.SimOptions`.
    """

    SNOOPY = "snoopy"  # one shared bus, broadcast snooping
    DIRECTORY = "directory"  # banked home-node directories, point-to-point


@dataclass(frozen=True)
class CoreConfig:
    """Out-of-order core parameters."""

    width: int = 4  # dispatch/retire width
    rob_size: int = 256  # RUU entries
    store_buffer_size: int = 64
    frontend_latency: int = 6  # fetch-to-dispatch stages (mispredict penalty)
    load_ports: int = 2
    alu_latency: int = 1
    mul_latency: int = 3
    mmuop_latency: int = 15  # non-idempotent (uncached) MMU access
    fetch_queue_size: int = 32
    branch_predictor_entries: int = 1024

    def __post_init__(self) -> None:
        if self.width < 1 or self.rob_size < self.width:
            raise ValueError("need width >= 1 and rob_size >= width")
        if self.store_buffer_size < 1:
            raise ValueError("store buffer must hold at least one store")


@dataclass(frozen=True)
class L1Config:
    """Private write-back L1 data cache parameters."""

    size_bytes: int = 64 * 1024
    assoc: int = 2
    line_bytes: int = 64
    load_to_use: int = 2
    mshrs: int = 32

    def __post_init__(self) -> None:
        if self.size_bytes % (self.assoc * self.line_bytes):
            raise ValueError("L1 size must be a multiple of assoc * line size")
        _require_power_of_two(self.line_bytes, "L1 line size")
        _require_power_of_two(
            self.size_bytes // (self.assoc * self.line_bytes), "L1 set count"
        )


@dataclass(frozen=True)
class L2Config:
    """Shared L2 cache / controller parameters."""

    size_bytes: int = 16 * 1024 * 1024
    assoc: int = 8
    line_bytes: int = 64
    banks: int = 4
    hit_latency: int = 35
    bank_occupancy: int = 4  # cycles a bank stays busy per access
    mshrs: int = 64

    def __post_init__(self) -> None:
        if self.size_bytes % (self.assoc * self.line_bytes):
            raise ValueError("L2 size must be a multiple of assoc * line size")
        if self.banks < 1:
            raise ValueError("need at least one bank")
        _require_power_of_two(self.banks, "L2 bank count")
        _require_power_of_two(self.line_bytes, "L2 line size")
        _require_power_of_two(
            self.size_bytes // (self.assoc * self.line_bytes), "L2 set count"
        )


@dataclass(frozen=True)
class BusConfig:
    """Private-cache interconnect parameters (``cache_style`` SNOOPY).

    The first four fields describe any coherence fabric: with
    ``coherence=SNOOPY`` they are literally the shared bus
    (``snoop_latency`` is the address phase + snoop response,
    ``bus_occupancy`` the cycles the single bus is held); with
    ``coherence=DIRECTORY`` the same numbers parameterize each home
    bank (``snoop_latency`` becomes the directory access, occupancy the
    bank's service slot) so the two backends are comparable — and, at
    ``dir_banks=1, link_latency=0`` and zero arbiter weights, provably
    cycle-identical (see tests/sim/test_directory_differential.py).

    Directory-only fields:

    * ``dir_banks`` — home-node banks; a line's home is
      ``line_addr % dir_banks``.
    * ``link_latency`` — per-hop point-to-point latency
      (requester→home, home→requester; forwarded replies cross
      home→owner→requester).
    * ``wrr_vocal_weight`` / ``wrr_mute_weight`` — weighted-round-robin
      credits per arbitration round at each home bank.  Weight 0 means
      the class is exempt from credit accounting (plain FCFS); that is
      also the snoopy-equivalent degenerate setting.
    """

    snoop_latency: int = 15  # address phase + snoop response
    transfer_latency: int = 25  # cache-to-cache data transfer
    bus_occupancy: int = 4  # cycles the bus is held per transaction
    mshrs: int = 16
    coherence: CoherenceStyle = CoherenceStyle.SNOOPY
    dir_banks: int = 4
    link_latency: int = 2
    wrr_vocal_weight: int = 3
    wrr_mute_weight: int = 1

    def __post_init__(self) -> None:
        if self.snoop_latency < 1 or self.transfer_latency < 1:
            raise ValueError("bus latencies must be positive")
        _require_power_of_two(self.dir_banks, "directory bank count")
        if self.link_latency < 0:
            raise ValueError("link latency cannot be negative")
        if self.wrr_vocal_weight < 0 or self.wrr_mute_weight < 0:
            raise ValueError("arbiter weights cannot be negative")


@dataclass(frozen=True)
class TLBConfig:
    """ITLB/DTLB parameters."""

    itlb_entries: int = 128
    dtlb_entries: int = 512
    assoc: int = 2
    page_bits: int = 13  # 8 KB pages
    mode: TLBMode = TLBMode.HARDWARE
    hw_fill_latency: int = 30


@dataclass(frozen=True)
class MemoryConfig:
    """Main memory parameters."""

    latency: int = 240  # 60 ns at 4 GHz

    def __post_init__(self) -> None:
        if self.latency < 1:
            raise ValueError(
                f"main-memory latency must be >= 1 cycle, got {self.latency}"
            )


@dataclass(frozen=True)
class RedundancyConfig:
    """Reunion / redundant-execution parameters (Sections 3-4)."""

    mode: Mode = Mode.NONREDUNDANT
    comparison_latency: int = 10  # one-way fingerprint latency between cores
    fingerprint_interval: int = 1  # instructions per fingerprint
    fingerprint_bits: int = 16  # CRC width
    two_stage_compression: bool = True
    phantom: PhantomStrength = PhantomStrength.GLOBAL
    arf_copy_latency: int = 64  # phase-2 vocal->mute register copy cost
    rollback_penalty: int = 8  # pipeline flush cost on recovery
    divergence_timeout: int = 10_000  # watchdog: max cycles of pair skew

    def __post_init__(self) -> None:
        if self.comparison_latency < 0:
            raise ValueError("comparison latency cannot be negative")
        if self.fingerprint_interval < 1:
            raise ValueError("fingerprint interval must be >= 1")
        if not 4 <= self.fingerprint_bits <= 64:
            raise ValueError("fingerprint width must be in [4, 64] bits")


#: Protection modes a pair can run under (see :class:`ProtectionPolicy`).
PROTECTION_MODES = (
    "full",  # the paper's symmetric vocal/mute pair, every interval checked
    "little-mute",  # reduced-issue mute checks a full vocal (MEEK-style)
    "interval-sampled",  # only a fraction of fingerprint intervals compared
    "unprotected",  # redundancy off: the mute core is parked
    "dynamic",  # redundancy toggled per pair under load (Döbel-style)
)

#: Modes that leave some intervals unchecked — a fault absorbed into one
#: of those intervals escapes detection by construction.
PARTIAL_PROTECTION_MODES = ("interval-sampled", "unprotected", "dynamic")


@dataclass(frozen=True)
class ProtectionPolicy:
    """How (and how much) one logical pair is protected.

    The paper's Reunion pairs are all-or-nothing: every retired
    instruction lands in a fingerprint interval and every interval is
    compared.  A policy generalizes that along the coverage-vs-throughput
    axis ROADMAP item 2 names:

    * ``full`` — the paper's design.
    * ``little-mute`` — a reduced checker core validates a full vocal
      (MEEK-style heterogeneous detection): the mute's *issue* stage is
      narrowed to ``mute_width`` while fetch/dispatch/retire keep the
      configured width, so fingerprints still cover every instruction.
      Full coverage, slower mute, vocal throttled by the check gate.
    * ``interval-sampled`` — only a ``checked_fraction`` of fingerprint
      intervals are hashed and exchanged; unchecked intervals retire
      without comparison latency.  Faults absorbed into unchecked
      intervals escape detection by construction.
    * ``unprotected`` — redundancy off: the mute core is parked
      (never stepped), no intervals are compared, no sync coupling.
    * ``dynamic`` — protection toggled per pair under load (Döbel-style
      resource-aware replication): when the vocal's open-interval
      backlog reaches ``off_threshold`` at a comparison point, the next
      ``off_intervals`` intervals go unchecked; checking resumes once
      the backlog drains to ``on_threshold``.

    Every field is *result-affecting* and lives in the hashed config
    (:func:`repro.exec.jobs.config_payload`).  How a pair is executed is
    not: ``SimOptions.execution="replay"`` arms the mirror fast path on
    every pair whose mute is the same automaton as its vocal (``full``,
    ``interval-sampled`` and ``dynamic``), bit-identical to ``"dual"``
    by contract.  A ``little-mute`` pair (a narrower mute) and an
    ``unprotected`` one (a parked mute) run without it.
    """

    mode: str = "full"
    mute_width: int | None = None  # little-mute: mute issue width
    checked_fraction: float | None = None  # interval-sampled: in (0, 1)
    off_threshold: int | None = None  # dynamic: backlog that disables checking
    on_threshold: int | None = None  # dynamic: backlog that re-enables it
    off_intervals: int | None = None  # dynamic: intervals per off-window

    def __post_init__(self) -> None:
        if self.mode not in PROTECTION_MODES:
            raise ValueError(
                f"protection mode must be one of {PROTECTION_MODES}, "
                f"got {self.mode!r}"
            )
        owners = {
            "mute_width": "little-mute",
            "checked_fraction": "interval-sampled",
            "off_threshold": "dynamic",
            "on_threshold": "dynamic",
            "off_intervals": "dynamic",
        }
        for name, owner in owners.items():
            if getattr(self, name) is not None and self.mode != owner:
                raise ValueError(
                    f"{name} only applies to mode {owner!r}, not {self.mode!r}"
                )
        if self.mode == "little-mute":
            if self.mute_width is None or self.mute_width < 1:
                raise ValueError(
                    f"little-mute needs mute_width >= 1, got {self.mute_width}"
                )
        elif self.mode == "interval-sampled":
            fraction = self.checked_fraction
            if fraction is None or not 0.0 < fraction < 1.0:
                raise ValueError(
                    "interval-sampled needs 0 < checked_fraction < 1 "
                    f"(use mode 'full' or 'unprotected' for the endpoints), "
                    f"got {fraction}"
                )
        elif self.mode == "dynamic":
            if self.off_threshold is None or self.off_threshold < 1:
                raise ValueError(
                    f"dynamic needs off_threshold >= 1, got {self.off_threshold}"
                )
            if self.on_threshold is None or self.on_threshold < 0:
                raise ValueError(
                    f"dynamic needs on_threshold >= 0, got {self.on_threshold}"
                )
            if self.on_threshold > self.off_threshold:
                raise ValueError(
                    "dynamic needs on_threshold <= off_threshold "
                    "(hysteresis, not oscillation), got "
                    f"{self.on_threshold} > {self.off_threshold}"
                )
            if self.off_intervals is None or self.off_intervals < 1:
                raise ValueError(
                    f"dynamic needs off_intervals >= 1, got {self.off_intervals}"
                )

    # -- factories ---------------------------------------------------

    @classmethod
    def full(cls) -> "ProtectionPolicy":
        return cls(mode="full")

    @classmethod
    def little_mute(cls, mute_width: int = 2) -> "ProtectionPolicy":
        return cls(mode="little-mute", mute_width=mute_width)

    @classmethod
    def interval_sampled(cls, checked_fraction: float = 0.5) -> "ProtectionPolicy":
        return cls(mode="interval-sampled", checked_fraction=checked_fraction)

    @classmethod
    def unprotected(cls) -> "ProtectionPolicy":
        return cls(mode="unprotected")

    @classmethod
    def dynamic(
        cls,
        off_threshold: int = 8,
        on_threshold: int = 2,
        off_intervals: int = 16,
    ) -> "ProtectionPolicy":
        return cls(
            mode="dynamic",
            off_threshold=off_threshold,
            on_threshold=on_threshold,
            off_intervals=off_intervals,
        )

    @property
    def checks_everything(self) -> bool:
        """True when every fingerprint interval is compared."""
        return self.mode not in PARTIAL_PROTECTION_MODES

    def describe(self) -> str:
        if self.mode == "little-mute":
            return f"little-mute:{self.mute_width}"
        if self.mode == "interval-sampled":
            return f"interval-sampled:{self.checked_fraction:g}"
        if self.mode == "dynamic":
            return (
                f"dynamic:{self.off_threshold},{self.on_threshold},"
                f"{self.off_intervals}"
            )
        return self.mode


def parse_policy(spec: str) -> ProtectionPolicy:
    """Parse a policy spec string (``REPRO_PROTECTION`` / ``--protection``).

    Grammar: ``mode[:params]`` —  ``full``, ``little-mute[:WIDTH]``,
    ``interval-sampled[:FRACTION]``, ``unprotected``, and
    ``dynamic[:OFF,ON,LEN]``.  Round-trips with
    :meth:`ProtectionPolicy.describe`.
    """
    text = spec.strip().lower()
    mode, _, params = text.partition(":")
    try:
        if mode == "little-mute":
            return ProtectionPolicy.little_mute(int(params) if params else 2)
        if mode == "interval-sampled":
            return ProtectionPolicy.interval_sampled(
                float(params) if params else 0.5
            )
        if mode == "dynamic":
            if params:
                off, on, length = (int(part) for part in params.split(","))
                return ProtectionPolicy.dynamic(off, on, length)
            return ProtectionPolicy.dynamic()
        if mode in ("full", "unprotected") and not params:
            return ProtectionPolicy(mode=mode)
    except ValueError as exc:
        raise ValueError(f"bad protection spec {spec!r}: {exc}") from exc
    raise ValueError(
        f"bad protection spec {spec!r}; expected mode[:params] with mode in "
        f"{PROTECTION_MODES}"
    )


@dataclass(frozen=True)
class SystemConfig:
    """Complete configuration of one simulated CMP."""

    n_logical: int = 4  # logical processors (pairs in redundant modes)
    core: CoreConfig = CoreConfig()
    l1: L1Config = L1Config()
    l2: L2Config = L2Config()
    bus: BusConfig = BusConfig()
    tlb: TLBConfig = TLBConfig()
    memory: MemoryConfig = MemoryConfig()
    redundancy: RedundancyConfig = RedundancyConfig()
    consistency: Consistency = Consistency.TSO
    cache_style: CacheStyle = CacheStyle.SHARED
    #: Per-pair protection policies, ``pair_policies[i]`` for logical
    #: pair ``i``.  ``None`` means every pair runs ``full`` (the paper's
    #: design).  REUNION-only: the other modes have no mute to police.
    pair_policies: tuple[ProtectionPolicy, ...] | None = None

    def __post_init__(self) -> None:
        if self.n_logical < 1:
            raise ValueError(
                f"a system needs at least one logical processor, got "
                f"n_logical={self.n_logical}"
            )
        if self.l1.line_bytes != self.l2.line_bytes:
            raise ValueError(
                f"L1 and L2 line sizes must match, got "
                f"{self.l1.line_bytes} vs {self.l2.line_bytes}"
            )
        if self.pair_policies is not None:
            policies = tuple(self.pair_policies)
            object.__setattr__(self, "pair_policies", policies)
            if self.redundancy.mode is not Mode.REUNION:
                raise ValueError(
                    "pair_policies require redundancy mode REUNION "
                    f"(got {self.redundancy.mode.value!r}); the other modes "
                    "have no vocal/mute pairs to protect"
                )
            if len(policies) != self.n_logical:
                raise ValueError(
                    f"need one policy per logical pair: got "
                    f"{len(policies)} policies for n_logical={self.n_logical}"
                )
            for index, policy in enumerate(policies):
                if not isinstance(policy, ProtectionPolicy):
                    raise ValueError(
                        f"pair_policies[{index}] is not a ProtectionPolicy: "
                        f"{policy!r}"
                    )
                if (
                    policy.mode == "little-mute"
                    and policy.mute_width > self.core.width
                ):
                    raise ValueError(
                        f"pair_policies[{index}]: little-mute width "
                        f"{policy.mute_width} exceeds the core width "
                        f"{self.core.width} (the 'little' core must be "
                        "no wider than the full one)"
                    )

    @property
    def n_cores(self) -> int:
        """Physical cores: redundant modes pair a vocal and a mute."""
        if self.redundancy.mode is Mode.REUNION:
            return 2 * self.n_logical
        return self.n_logical

    def with_redundancy(self, **kwargs) -> "SystemConfig":
        """Return a copy with redundancy parameters replaced."""
        return dataclasses.replace(
            self, redundancy=dataclasses.replace(self.redundancy, **kwargs)
        )

    def with_tlb(self, **kwargs) -> "SystemConfig":
        return dataclasses.replace(self, tlb=dataclasses.replace(self.tlb, **kwargs))

    def with_protection(self, policy) -> "SystemConfig":
        """Copy with ``policy`` on every pair (or a per-pair sequence)."""
        if isinstance(policy, ProtectionPolicy):
            policies = (policy,) * self.n_logical
        else:
            policies = tuple(policy)
        return dataclasses.replace(self, pair_policies=policies)

    def replace(self, **kwargs) -> "SystemConfig":
        return dataclasses.replace(self, **kwargs)


#: The paper's Table 1 parameters, verbatim.  Never env-modified.
PAPER_TABLE1 = SystemConfig()


def apply_env_coherence(
    config: SystemConfig, env: dict[str, str] | None = None
) -> SystemConfig:
    """Re-aim ``config`` at the backend named by ``REPRO_COHERENCE``.

    ``shared`` / ``snoopy`` / ``directory``; unset leaves ``config``
    untouched.  Applied to :data:`DEFAULT_CONFIG` and the test helpers'
    small config at import so one environment variable retargets the
    whole suite at another memory backend (the CI matrix leg).  The
    chosen backend lands in the *hashed* config — result caches keyed on
    :func:`repro.exec.jobs.config_payload` stay correct — which is why
    this is a config transform and not a :class:`~repro.sim.options`
    knob: coherence style changes results.
    """
    value = (env if env is not None else os.environ).get("REPRO_COHERENCE", "")
    value = value.strip().lower()
    if not value:
        return config
    if value == "shared":
        return config.replace(cache_style=CacheStyle.SHARED)
    if value in ("snoopy", "directory"):
        return config.replace(
            cache_style=CacheStyle.SNOOPY,
            bus=dataclasses.replace(config.bus, coherence=CoherenceStyle(value)),
        )
    raise ValueError(
        f"REPRO_COHERENCE must be 'shared', 'snoopy' or 'directory', got {value!r}"
    )


def resolve_pair_policies(config: SystemConfig) -> tuple[ProtectionPolicy, ...]:
    """The effective per-pair policies of ``config``.

    Explicit ``pair_policies`` win; otherwise every pair is ``full``.
    """
    if config.pair_policies is not None:
        return config.pair_policies
    return (ProtectionPolicy.full(),) * config.n_logical


def partial_protection_modes(config: SystemConfig) -> tuple[str, ...]:
    """Partial modes present in ``config``'s policies (sorted, deduped).

    Empty means every interval of every pair is checked — the regime
    where a golden commit-stream signature is a sound oracle for
    ``repro campaign``.
    """
    if config.pair_policies is None:
        return ()
    return tuple(
        sorted(
            {
                policy.mode
                for policy in config.pair_policies
                if policy.mode in PARTIAL_PROTECTION_MODES
            }
        )
    )


def apply_env_protection(
    config: SystemConfig, env: dict[str, str] | None = None
) -> SystemConfig:
    """Apply the ``REPRO_PROTECTION`` policy spec to ``config``.

    Unset (or empty) leaves ``config`` untouched, as do non-REUNION
    configs (there is no pair to protect) and configs that already pin
    explicit ``pair_policies`` (an env sweep must not silently override
    a deliberate per-pair mix).  Like :func:`apply_env_coherence` this
    is a *config* transform — the policy is result-affecting, so it
    must land in the hashed config, never on
    :class:`~repro.sim.options.SimOptions`.  The CI little-mute leg
    retargets the whole test suite through this hook.
    """
    value = (env if env is not None else os.environ).get("REPRO_PROTECTION", "")
    value = value.strip()
    if not value:
        return config
    if config.redundancy.mode is not Mode.REUNION:
        return config
    if config.pair_policies is not None:
        return config
    policy = parse_policy(value)
    if (
        policy.mode == "little-mute"
        and policy.mute_width > config.core.width
    ):
        policy = ProtectionPolicy.little_mute(config.core.width)
    return config.with_protection(policy)


#: Laptop-scale system: same shape, two orders of magnitude less state.
#: L1 4 KB and L2 128 KB keep "commercial" working sets (hundreds of KB)
#: L1-resident-hostile and partially L2-resident, as in the paper; 1 KB
#: pages let modest footprints exercise the TLBs.
DEFAULT_CONFIG = apply_env_coherence(
    SystemConfig(
        n_logical=4,
        core=CoreConfig(width=4, rob_size=64, store_buffer_size=16, frontend_latency=6),
        l1=L1Config(size_bytes=4 * 1024, assoc=2, load_to_use=2, mshrs=8),
        l2=L2Config(size_bytes=128 * 1024, assoc=8, banks=4, hit_latency=20, mshrs=16),
        tlb=TLBConfig(itlb_entries=16, dtlb_entries=32, page_bits=10, hw_fill_latency=20),
        memory=MemoryConfig(latency=100),
    )
)


def manycore_config(n_logical: int) -> SystemConfig:
    """A many-pair Reunion CMP on the directory backend.

    ``n_logical`` vocal/mute pairs (``2 * n_logical`` cores) with
    private caches kept coherent by banked home-node directories — the
    regime the snoopy bus cannot reach.  Core and cache parameters
    follow :data:`DEFAULT_CONFIG`'s laptop scale; the interconnect uses
    realistic non-degenerate numbers (8 home banks, 6-cycle links,
    3:1 vocal:mute arbitration) so contention and arbitration actually
    happen.
    """
    return SystemConfig(
        n_logical=n_logical,
        core=CoreConfig(width=4, rob_size=64, store_buffer_size=16, frontend_latency=6),
        l1=L1Config(size_bytes=4 * 1024, assoc=2, load_to_use=2, mshrs=8),
        l2=L2Config(size_bytes=128 * 1024, assoc=8, banks=4, hit_latency=20, mshrs=16),
        tlb=TLBConfig(itlb_entries=16, dtlb_entries=32, page_bits=10, hw_fill_latency=20),
        memory=MemoryConfig(latency=100),
        cache_style=CacheStyle.SNOOPY,
        bus=BusConfig(
            coherence=CoherenceStyle.DIRECTORY,
            dir_banks=8,
            link_latency=6,
            wrr_vocal_weight=3,
            wrr_mute_weight=1,
        ),
        redundancy=RedundancyConfig(
            mode=Mode.REUNION,
            comparison_latency=10,
            fingerprint_interval=8,
        ),
    )


#: Stock many-pair systems: 8/16/32 physical cores as 4/8/16 pairs.
MANYCORE_8 = manycore_config(4)
MANYCORE_16 = manycore_config(8)
MANYCORE_32 = manycore_config(16)
