"""Tests for statistics collection and the sampling methodology."""

import math

import pytest

import repro.sim.sampling as sampling
from repro.sim.config import DEFAULT_CONFIG, Mode
from repro.sim.sampling import Sample, matched_pair, run_sample
from repro.sim.stats import Stats
from repro.workloads import by_name


class TestStats:
    def test_inc_and_get(self):
        stats = Stats()
        stats.inc("a.b")
        stats.inc("a.b", 2)
        assert stats["a.b"] == 3
        assert stats.get("missing", 7) == 7
        assert "a.b" in stats and "missing" not in stats

    def test_prefix_iteration_and_total(self):
        stats = Stats()
        stats.inc("core0.x", 1)
        stats.inc("core1.x", 2)
        stats.inc("l2.y", 5)
        assert stats.total("core") == 3
        assert [name for name, _ in stats.items("l2.")] == ["l2.y"]

    def test_snapshot_delta(self):
        stats = Stats()
        stats.inc("a", 5)
        snap = stats.snapshot()
        stats.inc("a", 2)
        stats.inc("b", 1)
        delta = stats.delta_since(snap)
        assert delta == {"a": 2, "b": 1}

    def test_report_renders(self):
        stats = Stats()
        stats.inc("alpha", 10)
        stats.set("beta", 2.5)
        report = stats.report()
        assert "alpha" in report and "10" in report and "2.5" in report

    def test_reset(self):
        stats = Stats()
        stats.inc("x")
        stats.reset()
        assert stats["x"] == 0


def make_sample(ipc=1.0, cycles=1000, recoveries=0, tlb=0):
    return Sample(
        cycles=cycles,
        user_instructions=int(ipc * cycles),
        recoveries=recoveries,
        tlb_misses=tlb,
        sync_requests=0,
        serializing=0,
    )


class TestSampleMetrics:
    def test_ipc(self):
        assert make_sample(ipc=2.0).ipc == pytest.approx(2.0)
        assert Sample(0, 0, 0, 0, 0, 0).ipc == 0.0

    def test_rates_per_million(self):
        sample = make_sample(ipc=1.0, cycles=1_000_000, recoveries=5, tlb=2000)
        assert sample.incoherence_per_minstr == pytest.approx(5.0)
        assert sample.tlb_misses_per_minstr == pytest.approx(2000.0)

    def test_zero_instruction_rates(self):
        empty = Sample(100, 0, 1, 1, 0, 0)
        assert empty.incoherence_per_minstr == 0.0
        assert empty.tlb_misses_per_minstr == 0.0


class TestMatchedPair:
    def test_identical_samples_ratio_one(self):
        base = [make_sample(1.0), make_sample(2.0)]
        result = matched_pair(base, base)
        assert result.mean == pytest.approx(1.0)
        assert result.half_interval == pytest.approx(0.0)

    def test_consistent_slowdown(self):
        base = [make_sample(2.0), make_sample(4.0)]
        test = [make_sample(1.0), make_sample(2.0)]
        result = matched_pair(base, test)
        assert result.mean == pytest.approx(0.5)

    def test_interval_reflects_variance(self):
        base = [make_sample(1.0)] * 3
        test = [make_sample(0.8), make_sample(1.0), make_sample(1.2)]
        result = matched_pair(base, test)
        assert result.mean == pytest.approx(1.0)
        assert result.half_interval > 0

    def test_single_sample_has_nan_interval(self):
        result = matched_pair([make_sample(1.0)], [make_sample(1.1)])
        assert math.isnan(result.half_interval)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            matched_pair([make_sample()], [])

    def test_zero_base_rejected(self):
        with pytest.raises(ValueError):
            matched_pair([Sample(10, 0, 0, 0, 0, 0)], [make_sample()])

    def test_str_rendering(self):
        result = matched_pair([make_sample(1.0)] * 2, [make_sample(0.9)] * 2)
        assert "0.900" in str(result)


class TestRunSample:
    def test_measures_only_the_window(self):
        config = DEFAULT_CONFIG.with_redundancy(mode=Mode.NONREDUNDANT)
        workload = by_name("ocean")
        sample = run_sample(config, workload, warmup=300, measure=500, seed=0)
        assert sample.cycles == 500
        assert sample.user_instructions > 0

    def test_deterministic_given_seed(self):
        config = DEFAULT_CONFIG.with_redundancy(mode=Mode.NONREDUNDANT)
        workload = by_name("ocean")
        a = run_sample(config, workload, warmup=200, measure=400, seed=1)
        b = run_sample(config, workload, warmup=200, measure=400, seed=1)
        assert a == b


class TestGenerationMemo:
    def test_holds_one_generation_dropped_before_the_next_is_built(self, monkeypatch):
        memo: dict = {}
        monkeypatch.setattr(sampling, "_generation_memo", memo)
        ocean, em3d = by_name("ocean"), by_name("em3d")
        sizes_while_building = []
        build = type(em3d).programs

        def programs(self, n_logical, seed=0):
            sizes_while_building.append(len(memo))
            return build(self, n_logical, seed)

        monkeypatch.setattr(type(em3d), "programs", programs)
        first = sampling._generated(ocean, 2, 0)
        assert sampling._generated(ocean, 2, 0) is first
        for workload, seed in ((em3d, 0), (em3d, 1), (ocean, 0)):
            sampling._generated(workload, 2, seed)
            assert list(memo) == [(workload, 2, seed)]
        assert sizes_while_building == [0, 0]
