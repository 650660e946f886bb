"""Worker pool: determinism, crash retry, timeouts, drain, serial fallback."""

import multiprocessing
import os
import signal
import threading
import time
from pathlib import Path

import pytest

import repro.sim.sampling as sampling
from repro.exec.cache import ResultCache
from repro.exec.jobs import SampleJob, resolve_workload, run_job
from repro.exec.pool import (
    ExecutionError,
    ExecutionInterrupted,
    ExecutionPool,
    execute_jobs,
)
from repro.isa.decode import DecodedProgram
from repro.sim.config import DEFAULT_CONFIG, Mode

CONFIG = DEFAULT_CONFIG.replace(n_logical=2)
REUNION = CONFIG.with_redundancy(mode=Mode.REUNION)

JOBS = [
    SampleJob(config, name, seed, warmup=80, measure=160)
    for config in (CONFIG, REUNION)
    for name in ("ocean", "em3d")
    for seed in (0, 1)
]

#: Filesystem flag consumed by :func:`crash_once_run_job`; retry spawns a
#: fresh process, so "crash exactly once" state must live outside memory.
_CRASH_FLAG_ENV = "REPRO_TEST_CRASH_FLAG"


def crash_once_run_job(job: SampleJob):
    flag = Path(os.environ[_CRASH_FLAG_ENV])
    if flag.exists():
        flag.unlink()
        os._exit(3)
    return run_job(job)


def always_raises_run_job(job: SampleJob):
    raise ValueError("simulated model error")


def sleepy_run_job(job: SampleJob):
    time.sleep(30)


def slow_run_job(job: SampleJob):
    time.sleep(0.5)
    return run_job(job)


def signal_self_after_first_run_job(job: SampleJob):
    """Serial-path helper: SIGTERM the batch right after the first job."""
    sample = run_job(job)
    if job.seed == 0:
        os.kill(os.getpid(), signal.SIGTERM)
    return sample


class TestDeterminism:
    def test_parallel_matches_serial_bit_for_bit(self):
        serial, serial_manifest = execute_jobs(JOBS, workers=1)
        parallel, parallel_manifest = execute_jobs(JOBS, workers=4)
        assert serial == parallel  # full Sample field equality, every job
        assert serial_manifest.executed == parallel_manifest.executed == len(JOBS)

    def test_duplicate_jobs_run_once(self):
        results, manifest = execute_jobs([JOBS[0], JOBS[0], JOBS[0]], workers=2)
        assert manifest.total == 1 and manifest.executed == 1
        assert len(results) == 1


class TestCacheIntegration:
    def test_parallel_fills_cache_then_serves_hits(self, tmp_path):
        cache = ResultCache(tmp_path)
        first, manifest = execute_jobs(JOBS, workers=4, cache=cache)
        assert manifest.executed == len(JOBS) and manifest.hits == 0
        again, warm = execute_jobs(JOBS, workers=4, cache=cache)
        assert warm.hits == len(JOBS) and warm.executed == 0
        assert warm.hit_rate == 1.0
        assert again == first


class TestFailureHandling:
    def test_worker_crash_is_retried_once(self, tmp_path, monkeypatch):
        flag = tmp_path / "crash-once"
        flag.touch()
        monkeypatch.setenv(_CRASH_FLAG_ENV, str(flag))
        pool = ExecutionPool(workers=2, run_job=crash_once_run_job)
        results, manifest = pool.run(JOBS[:1])
        assert manifest.retries == 1
        assert manifest.executed == 1 and not manifest.failures
        assert results == {JOBS[0].key: run_job(JOBS[0])}

    def test_persistent_failure_raises_after_retries(self):
        pool = ExecutionPool(workers=2, retries=1, run_job=always_raises_run_job)
        with pytest.raises(ExecutionError) as excinfo:
            pool.run(JOBS[:1])
        manifest = excinfo.value.manifest
        assert manifest.retries == 1
        assert len(manifest.failures) == 1
        assert "simulated model error" in manifest.failures[0]

    def test_timeout_kills_and_reports(self):
        pool = ExecutionPool(workers=2, timeout=0.2, retries=0, run_job=sleepy_run_job)
        start = time.monotonic()
        with pytest.raises(ExecutionError) as excinfo:
            pool.run(JOBS[:1])
        assert time.monotonic() - start < 10  # killed, not awaited
        assert "timeout" in excinfo.value.failures[0]

    def test_serial_fallback_propagates_exceptions(self):
        pool = ExecutionPool(workers=1, run_job=always_raises_run_job)
        with pytest.raises(ValueError, match="simulated model error"):
            pool.run(JOBS[:1])


class TestPreparedInParent:
    """The parent builds each job's shared set-up before forking it."""

    def test_workers_inherit_programs_and_decode_tables(self, tmp_path, monkeypatch):
        # Each call appends the calling process's pid; appends from
        # forked workers land in the same file.
        log = tmp_path / "calls"

        def logged(name, original):
            def wrapper(*args, **kwargs):
                with open(log, "a") as handle:
                    handle.write(f"{name} {os.getpid()}\n")
                return original(*args, **kwargs)

            return wrapper

        workload_class = type(resolve_workload("ocean"))
        monkeypatch.setattr(sampling, "_generation_memo", {})
        monkeypatch.setattr(
            workload_class, "programs", logged("programs", workload_class.programs)
        )
        monkeypatch.setattr(
            DecodedProgram, "__init__", logged("decode", DecodedProgram.__init__)
        )
        jobs = [
            SampleJob(CONFIG.with_redundancy(mode=mode), "ocean", 0, warmup=80, measure=160)
            for mode in (Mode.NONREDUNDANT, Mode.STRICT, Mode.REUNION)
        ]
        _, manifest = execute_jobs(jobs, workers=2)
        assert manifest.executed == 3
        calls = [line.split() for line in log.read_text().splitlines()]
        parent = str(os.getpid())
        assert [pid for name, pid in calls if name == "programs"] == [parent]
        assert {pid for name, pid in calls if name == "decode"} == {parent}

    def test_a_job_whose_preparation_raises_fails_after_the_batch(self):
        bad = SampleJob(CONFIG, "no-such-workload", 0, warmup=80, measure=160)
        with pytest.raises(ExecutionError) as excinfo:
            execute_jobs([bad, JOBS[0]], workers=2)
        manifest = excinfo.value.manifest
        assert manifest.executed == 1 and manifest.retries == 1
        assert manifest.failures == [
            f"{bad.describe()}: KeyError: \"unknown workload 'no-such-workload'\""
        ]


class TestSignalDrain:
    """SIGTERM/SIGINT drain the batch instead of killing it mid-write."""

    def test_serial_drain_keeps_completed_results(self, tmp_path):
        cache = ResultCache(tmp_path)
        batch = [JOBS[0], JOBS[1], JOBS[2]]  # seeds 0, 1, 0 -> 3 unique keys
        pool = ExecutionPool(workers=1, run_job=signal_self_after_first_run_job)
        with pytest.raises(ExecutionInterrupted) as excinfo:
            pool.run(batch, cache=cache)
        assert excinfo.value.signum == signal.SIGTERM
        assert excinfo.value.remaining == 2
        assert "SIGTERM" in excinfo.value.failures[0]
        # Nothing failed: the message names the interruption alone.
        assert str(excinfo.value) == "interrupted by SIGTERM: 2 job(s) not run"
        manifest = excinfo.value.manifest
        assert manifest.executed == 1
        # The completed job's result was cached before the drain returned.
        assert cache.get(batch[0]) == run_job(batch[0])
        assert len(cache) == 1

    def test_parallel_drain_finishes_in_flight_then_stops(self, tmp_path):
        cache = ResultCache(tmp_path)
        batch = JOBS[:6]
        pool = ExecutionPool(workers=2, run_job=slow_run_job)
        timer = threading.Timer(
            0.2, lambda: os.kill(os.getpid(), signal.SIGTERM)
        )
        timer.start()
        try:
            with pytest.raises(ExecutionInterrupted) as excinfo:
                pool.run(batch, cache=cache)
        finally:
            timer.cancel()
        manifest = excinfo.value.manifest
        # The first wave (2 workers) was in flight when the signal landed:
        # it completed and flushed; nothing new launched afterwards.
        assert manifest.executed == 2
        assert excinfo.value.remaining == 4
        assert len(cache) == manifest.executed
        assert cache.get(batch[0]) == run_job(batch[0])
        # No orphaned workers: every process was joined during the drain.
        assert multiprocessing.active_children() == []

    def test_second_signal_cancels_in_flight_workers(self):
        pool = ExecutionPool(workers=2, run_job=sleepy_run_job)
        timers = [
            threading.Timer(delay, lambda: os.kill(os.getpid(), signal.SIGTERM))
            for delay in (0.2, 0.5)
        ]
        for timer in timers:
            timer.start()
        start = time.monotonic()
        try:
            with pytest.raises(ExecutionInterrupted) as excinfo:
                pool.run(JOBS[:4])
        finally:
            for timer in timers:
                timer.cancel()
        assert time.monotonic() - start < 10  # terminated, not awaited
        assert excinfo.value.remaining == 4  # nothing completed
        assert multiprocessing.active_children() == []

    def test_handlers_restored_after_batch(self):
        before = signal.getsignal(signal.SIGTERM)
        execute_jobs(JOBS[:1], workers=2)
        assert signal.getsignal(signal.SIGTERM) is before
