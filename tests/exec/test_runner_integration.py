"""Runner + exec subsystem: prefetch, persistent keys, plan completeness."""

import pytest

import repro.harness.runs as runs
from repro.exec.cache import ResultCache
from repro.harness import (
    plan_fig5,
    plan_fig6,
    plan_fig7a,
    plan_fig7b,
    plan_sc_comparison,
    plan_table3,
    run_fig5,
    run_fig6,
    run_fig7a,
    run_fig7b,
    run_sc_comparison,
    run_table3,
    scale_by_name,
)
from repro.harness.runs import QUICK, Runner, Scale
from repro.sim.config import DEFAULT_CONFIG, Mode
from repro.workloads import by_name

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
        plans_and_drivers = [
            (plan_fig5(TINY), lambda: run_fig5(runner=runner)),
            (
                plan_fig6(Mode.STRICT, TINY, latencies=(0, 10)),
                lambda: run_fig6(Mode.STRICT, runner=runner, latencies=(0, 10)),
            ),
            (plan_table3(TINY), lambda: run_table3(runner=runner)),
            (plan_fig7a(TINY), lambda: run_fig7a(runner=runner)),
            (
                plan_fig7b(TINY, latencies=(0, 10)),
                lambda: run_fig7b(runner=runner, latencies=(0, 10)),
            ),
            (plan_sc_comparison(TINY), lambda: run_sc_comparison(runner=runner)),
        ]
        for plan, driver in plans_and_drivers:
            runner.prefetch(plan)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(runs, "run_job", fail_run_job)
                assert driver().render()
