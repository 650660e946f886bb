"""Tests for system configuration (the reproduction's Table 1)."""

import dataclasses

import pytest

from repro.sim.config import (
    DEFAULT_CONFIG,
    MANYCORE_8,
    MANYCORE_16,
    MANYCORE_32,
    PAPER_TABLE1,
    BusConfig,
    CacheStyle,
    CoherenceStyle,
    Consistency,
    CoreConfig,
    L1Config,
    L2Config,
    MemoryConfig,
    Mode,
    PhantomStrength,
    RedundancyConfig,
    SystemConfig,
    TLBMode,
    apply_env_coherence,
    manycore_config,
)


class TestPaperTable1:
    """PAPER_TABLE1 must carry the paper's exact parameters."""

    def test_processor_parameters(self):
        assert PAPER_TABLE1.n_logical == 4
        assert PAPER_TABLE1.core.width == 4
        assert PAPER_TABLE1.core.rob_size == 256
        assert PAPER_TABLE1.core.store_buffer_size == 64

    def test_l1_parameters(self):
        assert PAPER_TABLE1.l1.size_bytes == 64 * 1024
        assert PAPER_TABLE1.l1.assoc == 2
        assert PAPER_TABLE1.l1.load_to_use == 2
        assert PAPER_TABLE1.l1.line_bytes == 64
        assert PAPER_TABLE1.l1.mshrs == 32

    def test_l2_parameters(self):
        assert PAPER_TABLE1.l2.size_bytes == 16 * 1024 * 1024
        assert PAPER_TABLE1.l2.assoc == 8
        assert PAPER_TABLE1.l2.banks == 4
        assert PAPER_TABLE1.l2.hit_latency == 35
        assert PAPER_TABLE1.l2.mshrs == 64

    def test_tlb_parameters(self):
        assert PAPER_TABLE1.tlb.itlb_entries == 128
        assert PAPER_TABLE1.tlb.dtlb_entries == 512
        assert PAPER_TABLE1.tlb.assoc == 2
        assert PAPER_TABLE1.tlb.page_bits == 13  # 8K pages

    def test_memory_latency_60ns_at_4ghz(self):
        assert PAPER_TABLE1.memory.latency == 240


class TestCoreCount:
    def test_nonredundant_and_strict_use_n_logical_cores(self):
        for mode in (Mode.NONREDUNDANT, Mode.STRICT):
            config = DEFAULT_CONFIG.with_redundancy(mode=mode)
            assert config.n_cores == config.n_logical

    def test_reunion_doubles_cores(self):
        config = DEFAULT_CONFIG.with_redundancy(mode=Mode.REUNION)
        assert config.n_cores == 2 * config.n_logical


class TestValidation:
    def test_negative_comparison_latency_rejected(self):
        with pytest.raises(ValueError):
            RedundancyConfig(comparison_latency=-1)

    def test_zero_fingerprint_interval_rejected(self):
        with pytest.raises(ValueError):
            RedundancyConfig(fingerprint_interval=0)

    def test_fingerprint_width_bounds(self):
        # Widths 20 and 40 have no CRC polynomial: refused where they are
        # set, not later when a pool worker builds the system.
        for bits in (2, 20, 40, 128):
            with pytest.raises(ValueError, match="no CRC polynomial"):
                RedundancyConfig(fingerprint_bits=bits)

    def test_l1_size_must_divide(self):
        with pytest.raises(ValueError):
            L1Config(size_bytes=1000, assoc=3)

    def test_l2_needs_banks(self):
        with pytest.raises(ValueError):
            L2Config(banks=0)

    def test_core_width_and_rob(self):
        with pytest.raises(ValueError):
            CoreConfig(width=0)
        with pytest.raises(ValueError):
            CoreConfig(width=8, rob_size=4)

    def test_system_needs_a_logical_processor(self):
        with pytest.raises(ValueError, match="at least one logical"):
            SystemConfig(n_logical=0)
        with pytest.raises(ValueError, match="at least one logical"):
            SystemConfig(n_logical=-2)

    def test_line_sizes_must_match_across_levels(self):
        with pytest.raises(ValueError, match="line sizes must match"):
            SystemConfig(l1=L1Config(line_bytes=32), l2=L2Config(line_bytes=64))

    def test_memory_latency_must_be_positive(self):
        with pytest.raises(ValueError, match="latency"):
            MemoryConfig(latency=0)

    def test_l1_set_count_must_be_power_of_two(self):
        # 1536 / (2 * 64) = 12 sets: divisible, but the index function
        # needs a power of two.
        with pytest.raises(ValueError, match="power of two"):
            L1Config(size_bytes=1536, assoc=2)

    def test_l2_bank_count_must_be_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            L2Config(banks=3)

    def test_bus_directory_fields_validated(self):
        with pytest.raises(ValueError, match="power of two"):
            BusConfig(dir_banks=3)
        with pytest.raises(ValueError, match="link latency"):
            BusConfig(link_latency=-1)
        with pytest.raises(ValueError, match="weights"):
            BusConfig(wrr_vocal_weight=-1)
        with pytest.raises(ValueError, match="weights"):
            BusConfig(wrr_mute_weight=-2)


class TestCoherenceStyle:
    def test_default_bus_is_snoopy(self):
        assert BusConfig().coherence is CoherenceStyle.SNOOPY

    def test_coherence_lands_in_cache_keys(self):
        """Backend choice changes results, so it must change job keys."""
        from repro.exec.jobs import config_payload

        # Set both fields explicitly: under the REPRO_COHERENCE CI leg
        # DEFAULT_CONFIG may already carry a rewritten bus.
        snoopy = DEFAULT_CONFIG.replace(
            cache_style=CacheStyle.SNOOPY,
            bus=dataclasses.replace(
                DEFAULT_CONFIG.bus, coherence=CoherenceStyle.SNOOPY
            ),
        )
        directory = snoopy.replace(
            bus=dataclasses.replace(snoopy.bus, coherence=CoherenceStyle.DIRECTORY)
        )
        assert config_payload(snoopy) != config_payload(directory)
        assert config_payload(snoopy)["bus"]["coherence"] == "snoopy"
        assert config_payload(directory)["bus"]["coherence"] == "directory"

    def test_apply_env_unset_is_identity(self):
        assert apply_env_coherence(DEFAULT_CONFIG, {}) == DEFAULT_CONFIG

    def test_apply_env_selects_each_backend(self):
        shared = apply_env_coherence(DEFAULT_CONFIG, {"REPRO_COHERENCE": "shared"})
        assert shared.cache_style is CacheStyle.SHARED
        snoopy = apply_env_coherence(DEFAULT_CONFIG, {"REPRO_COHERENCE": "snoopy"})
        assert snoopy.cache_style is CacheStyle.SNOOPY
        assert snoopy.bus.coherence is CoherenceStyle.SNOOPY
        directory = apply_env_coherence(
            DEFAULT_CONFIG, {"REPRO_COHERENCE": "directory"}
        )
        assert directory.cache_style is CacheStyle.SNOOPY
        assert directory.bus.coherence is CoherenceStyle.DIRECTORY

    def test_apply_env_rejects_nonsense(self):
        with pytest.raises(ValueError, match="REPRO_COHERENCE"):
            apply_env_coherence(DEFAULT_CONFIG, {"REPRO_COHERENCE": "telepathy"})

    def test_paper_table1_is_never_env_modified(self):
        assert PAPER_TABLE1.cache_style is CacheStyle.SHARED


class TestManycorePresets:
    def test_core_counts(self):
        assert MANYCORE_8.n_cores == 8
        assert MANYCORE_16.n_cores == 16
        assert MANYCORE_32.n_cores == 32

    def test_presets_ride_the_directory_backend(self):
        for preset in (MANYCORE_8, MANYCORE_16, MANYCORE_32):
            assert preset.cache_style is CacheStyle.SNOOPY
            assert preset.bus.coherence is CoherenceStyle.DIRECTORY
            assert preset.redundancy.mode is Mode.REUNION

    def test_interconnect_is_not_degenerate(self):
        """The stock configs must exercise banking, links and WRR — the
        degenerate settings exist only for the equivalence suite."""
        assert MANYCORE_16.bus.dir_banks > 1
        assert MANYCORE_16.bus.link_latency > 0
        assert MANYCORE_16.bus.wrr_vocal_weight > MANYCORE_16.bus.wrr_mute_weight > 0

    def test_manycore_config_scales_pairs_only(self):
        a, b = manycore_config(2), manycore_config(16)
        assert a.replace(n_logical=16) == b


class TestDerivedConfigs:
    def test_with_redundancy_is_pure(self):
        derived = DEFAULT_CONFIG.with_redundancy(mode=Mode.REUNION, comparison_latency=40)
        assert DEFAULT_CONFIG.redundancy.mode is Mode.NONREDUNDANT
        assert derived.redundancy.comparison_latency == 40
        assert derived.l1 == DEFAULT_CONFIG.l1

    def test_with_tlb(self):
        derived = DEFAULT_CONFIG.with_tlb(mode=TLBMode.SOFTWARE)
        assert derived.tlb.mode is TLBMode.SOFTWARE
        assert DEFAULT_CONFIG.tlb.mode is TLBMode.HARDWARE

    def test_replace(self):
        derived = DEFAULT_CONFIG.replace(consistency=Consistency.SC, n_logical=2)
        assert derived.consistency is Consistency.SC
        assert derived.n_logical == 2

    def test_configs_hashable_for_cache_keys(self):
        """The harness Runner uses SystemConfig as a dict key."""
        a = DEFAULT_CONFIG.with_redundancy(mode=Mode.REUNION)
        b = DEFAULT_CONFIG.with_redundancy(mode=Mode.REUNION)
        assert a == b and hash(a) == hash(b)
        assert {a: 1}[b] == 1

    def test_enums_cover_paper_design_space(self):
        assert {p.value for p in PhantomStrength} == {"null", "shared", "global"}
        assert {m.value for m in Mode} == {"nonredundant", "strict", "reunion"}
        assert {c.value for c in Consistency} == {"tso", "sc"}

    def test_default_config_preserves_ratios(self):
        """The scaled system keeps the paper's qualitative ratios."""
        assert DEFAULT_CONFIG.l2.size_bytes >= 16 * DEFAULT_CONFIG.l1.size_bytes
        assert DEFAULT_CONFIG.l2.hit_latency >= 5 * DEFAULT_CONFIG.l1.load_to_use
        assert DEFAULT_CONFIG.memory.latency >= 3 * DEFAULT_CONFIG.l2.hit_latency
        assert DEFAULT_CONFIG.tlb.dtlb_entries >= DEFAULT_CONFIG.tlb.itlb_entries

    def test_dataclass_replace_on_core(self):
        core = dataclasses.replace(DEFAULT_CONFIG.core, rob_size=256)
        config = dataclasses.replace(DEFAULT_CONFIG, core=core)
        assert config.core.rob_size == 256
