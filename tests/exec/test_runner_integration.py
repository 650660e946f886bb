"""Runner + exec subsystem: prefetch, persistent keys, plan completeness."""

import pytest

import repro.harness.runs as runs
from repro.exec.cache import ResultCache
from repro.exec.progress import RunManifest
from repro.exec.jobs import SampleJob
from repro.harness import ARTIFACTS, plan, plan_fig5, scale_by_name
from repro.harness.runs import QUICK, Runner, Scale
from repro.sim.config import DEFAULT_CONFIG, Consistency, Mode, TLBMode
from repro.workloads import by_name, suite

TINY = Scale(
    "tiny", warmup=80, measure=160, seeds=(0,), config=DEFAULT_CONFIG.replace(n_logical=2)
)
OCEAN = by_name("ocean")
NONRED = TINY.config.with_redundancy(mode=Mode.NONREDUNDANT)
REUNION = TINY.config.with_redundancy(mode=Mode.REUNION)


def fail_run_job(job):  # simulation attempted when it must not be
    raise AssertionError(f"unexpected simulation of {job.describe()}")


class TestScaleLookup:
    def test_by_name(self):
        assert scale_by_name("quick") is QUICK
        assert scale_by_name("QUICK") is QUICK

    def test_unknown(self):
        with pytest.raises(ValueError):
            scale_by_name("bogus")


class TestPersistentRunnerCache:
    def test_sample_round_trips_through_disk(self, tmp_path):
        first = Runner(TINY, cache=ResultCache(tmp_path))
        sample = first.sample(NONRED, OCEAN, 0)
        # A fresh runner (fresh process stand-in) must not re-simulate.
        second = Runner(TINY, cache=ResultCache(tmp_path))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(runs, "run_job", fail_run_job)
            assert second.sample(NONRED, OCEAN, 0) == sample
        assert second.cache.hits == 1

    def test_scales_never_collide(self, tmp_path):
        cache = ResultCache(tmp_path)
        tiny = Runner(TINY, cache=cache)
        longer = Runner(
            Scale("tiny2", warmup=80, measure=320, seeds=(0,), config=TINY.config),
            cache=cache,
        )
        a = tiny.sample(NONRED, OCEAN, 0)
        b = longer.sample(NONRED, OCEAN, 0)
        assert a.cycles == 160 and b.cycles == 320  # distinct cached entries
        assert len(cache) == 2

    def test_no_cache_runner_still_memoizes(self):
        runner = Runner(TINY)
        first = runner.sample(NONRED, OCEAN, 0)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(runs, "run_job", fail_run_job)
            assert runner.sample(NONRED, OCEAN, 0) is first


class TestPrefetch:
    def test_parallel_prefetch_is_bit_identical_to_serial(self, tmp_path):
        requests = [(NONRED, OCEAN), (REUNION, OCEAN), (REUNION, by_name("em3d"))]
        parallel = Runner(TINY, cache=ResultCache(tmp_path / "p"))
        manifest = parallel.prefetch(requests, jobs=3)
        assert manifest.executed == 3 and manifest.total == 3
        serial = Runner(TINY)
        for config, workload in requests:
            assert serial.sample(config, workload, 0) == parallel.sample(
                config, workload, 0
            )

    def test_prefetch_reports_memo_and_cache_hits(self, tmp_path):
        cache = ResultCache(tmp_path)
        runner = Runner(TINY, cache=cache)
        runner.prefetch([(NONRED, OCEAN)])
        # Same runner: served from the in-memory memo.
        again = runner.prefetch([(NONRED, OCEAN)])
        assert again.memo_hits == 1 and again.executed == 0
        assert again.hit_rate == 1.0
        # Fresh runner: served from disk.
        fresh = Runner(TINY, cache=ResultCache(tmp_path))
        manifest = fresh.prefetch([(NONRED, OCEAN)])
        assert manifest.hits == 1 and manifest.executed == 0


    def test_prefetch_runs_its_batch_grouped_by_generation(self, monkeypatch):
        """A config-major plan reaches the pool workload-major, groups in
        order of first appearance, so one generation serves a group."""
        batches = []

        def record(pool, jobs, *args, **kwargs):
            batches.append([(job.workload_name, job.seed) for job in jobs])
            return {}, RunManifest(total=len(batches[-1]))

        monkeypatch.setattr(runs.ExecutionPool, "run", record)
        em3d = by_name("em3d")
        two_seeds = Scale("two", warmup=80, measure=160, seeds=(0, 1), config=TINY.config)
        Runner(two_seeds).prefetch(
            [(config, workload) for config in (NONRED, REUNION) for workload in (em3d, OCEAN)]
        )
        names = ("em3d", "ocean")
        assert batches == [
            [(name, seed) for name in names for seed in (0, 1) for _mode in range(2)]
        ]


class TestServeProbe:
    """``bench/child.py::probe_daemon`` wraps the serve probe and fails a
    Fig 5 run unless every render calls it once and gets None."""

    def test_prefetch_probes_once_then_runs_on_the_local_pool(self, monkeypatch):
        import repro.serve.client as client

        answers = []
        probe = client.service_pool

        def service_pool(*args, **kwargs):
            pool = probe(*args, **kwargs)
            answers.append(pool is not None)
            return pool

        monkeypatch.setattr(client, "service_pool", service_pool)
        batches = []
        run = runs.ExecutionPool.run

        def local_run(pool, jobs, *args, **kwargs):
            jobs = list(jobs)
            batches.append(len(jobs))
            return run(pool, jobs, *args, **kwargs)

        monkeypatch.setattr(runs.ExecutionPool, "run", local_run)
        manifest = Runner(TINY).prefetch([(NONRED, OCEAN), (REUNION, OCEAN)])
        assert answers == [False]
        assert batches == [2]
        assert manifest.executed == 2


class TestPlanCompleteness:
    def test_plans_cover_every_sample_their_driver_needs(self):
        """After prefetching a driver's plan, rendering simulates nothing."""
        runner = Runner(TINY)
        for name, driver in ARTIFACTS.items():
            runner.prefetch(plan(driver, TINY))
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(runs, "run_job", fail_run_job)
                assert driver(runner=runner).render(), name


class TestRecordedPlans:
    """Each artifact's plan is read from its driver's requests."""

    @staticmethod
    def keys(points):
        return {
            SampleJob(config, workload.name, seed, QUICK.warmup, QUICK.measure).key
            for config, workload in points
            for seed in QUICK.seeds
        }

    def test_quick_plans_have_the_artifacts_job_counts(self):
        plans = {name: self.keys(plan(driver, QUICK)) for name, driver in ARTIFACTS.items()}
        assert {name: len(keys) for name, keys in plans.items()} == {
            "fig5": 33,
            "fig6a": 30,
            # Panel (b) also samples panel (a)'s 25 Strict points, which
            # its claims compare against.
            "fig6b": 55,
            "table3": 33,
            "fig7a": 44,
            "fig7b": 36,
            "sc": 18,
        }
        assert plans["fig6a"] < plans["fig6b"]
        assert len(set().union(*plans.values())) == 122

    def test_fig5_plan_is_workload_major_in_suite_order(self):
        configs = [
            QUICK.config.with_redundancy(mode=Mode.NONREDUNDANT),
            QUICK.config.with_redundancy(mode=Mode.STRICT, comparison_latency=10),
            QUICK.config.with_redundancy(mode=Mode.REUNION, comparison_latency=10),
        ]
        expected = [(config, workload.name) for workload in suite() for config in configs]
        assert [(c, w.name) for c, w in plan_fig5(QUICK)] == expected

    def test_each_point_is_recorded_once_in_first_request_order(self):
        def driver(runner):
            runner.normalized_ipc(REUNION, OCEAN)
            runner.mean_ipc(NONRED, OCEAN)

        two_seeds = Scale("two", warmup=80, measure=160, seeds=(0, 1), config=TINY.config)
        points = plan(driver, two_seeds)
        assert [(c, w.name) for c, w in points] == [(NONRED, "ocean"), (REUNION, "ocean")]


class TestBaselineRule:
    """normalized_ipc divides by the config's own non-redundant twin."""

    @pytest.mark.parametrize(
        "system",
        [
            TINY.config.with_tlb(mode=TLBMode.SOFTWARE),
            TINY.config.replace(consistency=Consistency.SC),
        ],
        ids=["software-tlb", "sc"],
    )
    def test_baseline_keeps_tlb_mode_and_consistency(self, system):
        config = system.with_redundancy(mode=Mode.REUNION, comparison_latency=40)
        points = plan(lambda runner: runner.normalized_ipc(config, OCEAN), TINY)
        # The scale's non-redundant redundancy (latency 10, not 40) on
        # the same machine.
        assert [c for c, _ in points] == [
            system.with_redundancy(mode=Mode.NONREDUNDANT),
            config,
        ]
