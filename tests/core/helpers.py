"""Helpers for Reunion integration tests: small systems, quick builds."""

from __future__ import annotations

from repro.isa import Instruction, Program, assemble
from repro.isa.decode import flags_of
from repro.pipeline.flat import M_INJECTED
from repro.pipeline.ooo_core import OoOCore
from repro.sim.cmp import CMPSystem
from repro.sim.config import (
    CacheStyle,
    Consistency,
    CoreConfig,
    L1Config,
    L2Config,
    MemoryConfig,
    Mode,
    PhantomStrength,
    RedundancyConfig,
    SystemConfig,
    TLBConfig,
    apply_env_coherence,
    apply_env_protection,
)
from tests.pipeline.helpers import build_core

# REPRO_COHERENCE retargets the whole integration suite at another
# memory backend (the CI matrix leg); unset leaves the shared-L2 default.
SMALL = apply_env_coherence(
    SystemConfig(
        n_logical=1,
        core=CoreConfig(width=4, rob_size=32, store_buffer_size=8, frontend_latency=3),
        l1=L1Config(size_bytes=1024, assoc=2, load_to_use=2, mshrs=4),
        l2=L2Config(size_bytes=16 * 1024, assoc=8, banks=2, hit_latency=8, mshrs=8),
        tlb=TLBConfig(itlb_entries=8, dtlb_entries=16, page_bits=10, hw_fill_latency=10),
        memory=MemoryConfig(latency=40),
        redundancy=RedundancyConfig(divergence_timeout=2000),
    )
)

# For tests that probe shared-L2 controller *internals* (its directory
# bookkeeping, bank scaling): pinned regardless of REPRO_COHERENCE, the
# way test_snoopy pins SNOOPY_SMALL.  The directory backend's equivalent
# invariants live in tests/memory/test_directory_backend.py.
SHARED_SMALL = SMALL.replace(cache_style=CacheStyle.SHARED)


def build(
    sources: list[str] | list[Program],
    mode: Mode = Mode.REUNION,
    n_logical: int | None = None,
    comparison_latency: int = 10,
    phantom: PhantomStrength = PhantomStrength.GLOBAL,
    fingerprint_interval: int = 1,
    consistency: Consistency = Consistency.TSO,
    config: SystemConfig = SMALL,
) -> CMPSystem:
    programs = [
        source if isinstance(source, Program) else assemble(source)
        for source in sources
    ]
    system_config = config.replace(
        n_logical=n_logical or len(programs),
        consistency=consistency,
    ).with_redundancy(
        mode=mode,
        comparison_latency=comparison_latency,
        phantom=phantom,
        fingerprint_interval=fingerprint_interval,
    )
    # REPRO_PROTECTION retargets the suite at a uniform per-pair
    # protection policy (the CI little-mute leg).  Applied after the
    # redundancy mode is final — it is a no-op for non-REUNION modes and
    # for tests that pin explicit pair_policies.
    system_config = apply_env_protection(system_config)
    return CMPSystem(system_config, programs)


def ring_core() -> OoOCore:
    """A bare core whose flat ring unit tests write gate entries into."""
    return build_core(assemble("halt"))[0]


def put_entry(
    core: OoOCore,
    seq: int,
    inst: Instruction,
    *,
    injected: bool = False,
    result: int | None = None,
    addr: int | None = None,
    store_value: int | None = None,
    actual_next: int | None = None,
) -> int:
    """Write one completed instruction into ``core``'s ring; returns its slot.

    The slot is ``seq`` modulo the ring size; squash it with
    ``core.f_seq[slot] = -1``.
    """
    slot = seq & core._f_smask
    core.f_seq[slot] = seq
    core.f_inst[slot] = inst
    core.f_flags[slot] = flags_of(inst, core.sc_mode)
    core.f_mask[slot] = M_INJECTED if injected else 0
    core.f_res[slot] = result
    core.f_addr[slot] = addr
    core.f_sval[slot] = store_value
    core.f_anext[slot] = actual_next
    return slot
