"""Parallel job execution across worker processes.

The pool fans a batch of keyed jobs out over ``workers`` forked
processes, one process per job (per-job isolation buys crash containment
and clean per-job timeouts for free).  Jobs are duck-typed: anything
with a content-hash ``.key``, a ``.describe()`` and a ``.prepare()``
works — :class:`~repro.exec.jobs.SampleJob` for throughput samples,
:class:`~repro.campaign.plan.InjectionJob` for fault campaigns — with a
matching ``run_job`` callable supplied at construction.  Each worker
sends its result back over a pipe; the parent owns the cache and writes
results as they arrive, so there are never concurrent cache writers.

Shared set-up: start-up is not noise at quick scale, where building a
job's programs, their decode tables and the fingerprint tables took
about 11% of a worker's time, and most of it repeats across the jobs of
one workload.  So the parent calls ``job.prepare()`` just before it
forks the job's worker: the worker inherits what the parent built and
rebuilds none of it.  The parent keeps one generation at a time (see
:data:`repro.sim.sampling._generation_memo`), since whatever its heap
holds at a fork is resident in every worker forked after it.

Failure policy: a worker that crashes (nonzero exit without a result),
raises, or exceeds the per-job timeout is retried once (configurable);
so is a job whose ``prepare()`` raises in the parent.  A job that fails
again is reported in the manifest and raises :class:`ExecutionError`
after the rest of the batch completes.

Serial fallback: with ``workers=1`` — or on platforms without the
``fork`` start method — jobs run in-process in submission order, with
semantics identical to calling :func:`~repro.exec.jobs.run_job` in a
loop (exceptions propagate immediately, no retries).  ``run_job`` builds
what ``prepare()`` would, in the same process, so nothing calls it.

Determinism: a simulation is a pure function of its job, so the result
dict is bit-identical however the batch was scheduled.

Signals: a batch interrupted by SIGTERM or SIGINT *drains* instead of
dying — no new jobs launch, in-flight workers finish and their results
are written through to the cache, worker processes are joined (never
orphaned), and :class:`ExecutionInterrupted` reports what was left
undone.  A second signal cancels the in-flight jobs too (workers are
terminated).  Handlers are installed only for the duration of the batch
and only on the main thread.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.exec.cache import ResultCache
from repro.exec.jobs import SampleJob, run_job
from repro.exec.progress import Progress, RunManifest
from repro.sim.sampling import Sample

#: Longest the parent waits for a worker's result or exit, seconds.  A
#: result or an exit wakes it at once; the bound is how often it checks
#: drain signals and per-job deadlines.
_WAIT_TIMEOUT = 0.05


class ExecutionError(RuntimeError):
    """One or more jobs failed after exhausting their retries."""

    def __init__(
        self, failures: list[str], manifest: RunManifest, message: str | None = None
    ):
        if message is None:
            message = (
                f"{len(failures)} job(s) failed: " + "; ".join(failures[:3])
                + ("; ..." if len(failures) > 3 else "")
            )
        super().__init__(message)
        self.failures = failures
        self.manifest = manifest


class ExecutionInterrupted(ExecutionError):
    """The batch was stopped by SIGTERM/SIGINT before completing.

    Raised *after* the drain: every result that completed before the
    signal has been written through to the cache, every worker process
    has been joined (no orphans), and ``manifest`` reflects what actually
    ran.  A second signal during the drain cancels in-flight jobs
    (workers are terminated) instead of waiting for them.
    """

    def __init__(self, signum: int, remaining: int, manifest: RunManifest):
        # No job failed, so the message is the interruption alone.
        reason = (
            f"interrupted by {signal.Signals(signum).name}: "
            f"{remaining} job(s) not run"
        )
        super().__init__([reason], manifest, message=reason)
        self.signum = signum
        self.remaining = remaining


class _DrainState:
    """Signal bookkeeping for one parallel batch.

    First SIGTERM/SIGINT: drain — stop launching, finish (and cache) the
    in-flight jobs.  Second: cancel — terminate in-flight workers too.
    Handlers are only installed on the main thread of the main
    interpreter (CPython restriction); elsewhere the pool runs with
    whatever disposition the host set up.
    """

    def __init__(self) -> None:
        self.signum: int | None = None
        self.cancel = False
        self._previous: dict[int, object] = {}

    def _handle(self, signum, frame) -> None:  # pragma: no cover - signal path
        if self.signum is None:
            self.signum = signum
        else:
            self.cancel = True

    def install(self) -> None:
        if threading.current_thread() is not threading.main_thread():
            return
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                self._previous[signum] = signal.signal(signum, self._handle)
            except (ValueError, OSError):  # pragma: no cover - exotic hosts
                pass

    def restore(self) -> None:
        for signum, previous in self._previous.items():
            try:
                signal.signal(signum, previous)
            except (ValueError, OSError):  # pragma: no cover
                pass
        self._previous.clear()


def _fork_context():
    """The fork multiprocessing context, or None if unsupported."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - platform dependent
        return None


def _worker_main(runner: Callable[[SampleJob], Sample], job: SampleJob, conn) -> None:
    """Child entry point: run one job, ship the sample (or error) back."""
    # The fork inherits the parent's drain handlers; a worker must die on
    # terminate() (and on a drain-cancel), not start draining itself.
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(signum, signal.SIG_DFL)
        except (ValueError, OSError):  # pragma: no cover
            pass
    try:
        sample = runner(job)
        conn.send(("ok", sample))
    except BaseException as exc:  # noqa: BLE001 - report, parent decides
        try:
            conn.send(("err", f"{type(exc).__name__}: {exc}"))
        except (BrokenPipeError, OSError):  # pragma: no cover
            pass
    finally:
        conn.close()


@dataclass
class _Running:
    job: SampleJob
    attempt: int
    process: "multiprocessing.process.BaseProcess"
    conn: object
    deadline: float | None


@dataclass
class ExecutionPool:
    """Runs job batches across ``workers`` processes with retry + timeout.

    Jobs are duck-typed (``.key`` + ``.describe()``); ``run_job`` maps a
    job to its result and must be fork-inheritable (a module-level
    function or a picklable callable built before :meth:`run`).
    """

    workers: int = 1
    timeout: float | None = None  # per-job wall-clock limit, seconds
    retries: int = 1  # extra attempts after a crash/timeout
    run_job: Callable = field(default=run_job)

    def run(
        self,
        jobs: Iterable,
        cache: ResultCache | None = None,
        progress: Progress | None = None,
    ) -> tuple[dict, RunManifest]:
        """Execute ``jobs``; return ``{job.key: result}`` plus a manifest.

        Duplicate jobs (same key) are executed once.  Cached jobs are
        served without spawning a worker; fresh results are persisted to
        ``cache`` as they complete.
        """
        start = time.monotonic()
        unique: dict[str, SampleJob] = {}
        for job in jobs:
            unique.setdefault(job.key, job)
        manifest = RunManifest(total=len(unique))

        results: dict[str, Sample] = {}
        todo: list[SampleJob] = []
        for key, job in unique.items():
            sample = cache.get(job) if cache is not None else None
            if sample is not None:
                results[key] = sample
                manifest.hits += 1
                if progress is not None:
                    progress.advance(f"hit {job.describe()}")
            else:
                todo.append(job)

        context = _fork_context()
        drain = _DrainState()
        drain.install()
        try:
            if self.workers <= 1 or context is None:
                remaining = self._run_serial(
                    todo, cache, progress, manifest, results, drain
                )
            else:
                manifest.workers = min(self.workers, len(todo)) or 1
                remaining = self._run_parallel(
                    context, todo, cache, progress, manifest, results, drain
                )
        finally:
            drain.restore()
        manifest.wall_seconds = time.monotonic() - start
        if drain.signum is not None:
            raise ExecutionInterrupted(drain.signum, remaining, manifest)
        if manifest.failures:
            raise ExecutionError(manifest.failures, manifest)
        return results, manifest

    def _run_serial(
        self,
        todo: Sequence[SampleJob],
        cache: ResultCache | None,
        progress: Progress | None,
        manifest: RunManifest,
        results: dict[str, Sample],
        drain: _DrainState,
    ) -> int:
        for index, job in enumerate(todo):
            if drain.signum is not None:
                # Everything finished so far is already in `results` (and
                # the cache); stop before starting the next simulation.
                return len(todo) - index
            sample = self.run_job(job)
            results[job.key] = sample
            manifest.executed += 1
            if cache is not None:
                cache.put(job, sample)
            if progress is not None:
                progress.advance(f"ran {job.describe()}")
        return 0

    def _run_parallel(
        self,
        context,
        todo: Sequence[SampleJob],
        cache: ResultCache | None,
        progress: Progress | None,
        manifest: RunManifest,
        results: dict[str, Sample],
        drain: _DrainState,
    ) -> int:
        pending: deque[tuple[SampleJob, int]] = deque((job, 0) for job in todo)
        running: list[_Running] = []

        def fail(job: SampleJob, attempt: int, detail: str) -> None:
            if attempt < self.retries:
                manifest.retries += 1
                pending.append((job, attempt + 1))
            else:
                manifest.failures.append(f"{job.describe()}: {detail}")
                if progress is not None:
                    progress.advance(f"FAILED {job.describe()}")

        def launch(job: SampleJob, attempt: int) -> None:
            # Build here what the worker would otherwise build for itself;
            # the fork inherits it.  A raise fails this attempt, reported
            # as a worker reports its own.
            try:
                job.prepare()
            except Exception as exc:  # noqa: BLE001 - report, then retry
                fail(job, attempt, f"{type(exc).__name__}: {exc}")
                return
            parent_conn, child_conn = context.Pipe(duplex=False)
            process = context.Process(
                target=_worker_main, args=(self.run_job, job, child_conn), daemon=True
            )
            process.start()
            child_conn.close()
            deadline = time.monotonic() + self.timeout if self.timeout else None
            running.append(_Running(job, attempt, process, parent_conn, deadline))

        def settle(slot: _Running, outcome: str, detail: str) -> None:
            slot.conn.close()
            slot.process.join()
            if outcome != "ok":
                fail(slot.job, slot.attempt, detail)

        cancelled = 0
        while pending or running:
            if drain.signum is not None and pending:
                # Draining: never launch another job; in-flight workers
                # finish (and their results flush to the cache) below.
                cancelled += len(pending)
                pending.clear()
            if drain.cancel and running:
                # Second signal: stop waiting — kill in-flight workers.
                for slot in running:
                    slot.process.terminate()
                    slot.process.join()
                    slot.conn.close()
                cancelled += len(running)
                running = []
                break
            while pending and len(running) < self.workers:
                launch(*pending.popleft())
            if running:
                multiprocessing.connection.wait(
                    [slot.conn for slot in running]
                    + [slot.process.sentinel for slot in running],
                    timeout=_WAIT_TIMEOUT,
                )
            still_running: list[_Running] = []
            for slot in running:
                if slot.conn.poll():
                    try:
                        status, payload = slot.conn.recv()
                    except (EOFError, OSError):
                        status, payload = "crash", "result pipe closed"
                    if status == "ok":
                        results[slot.job.key] = payload
                        manifest.executed += 1
                        if cache is not None:
                            cache.put(slot.job, payload)
                        if progress is not None:
                            progress.advance(f"ran {slot.job.describe()}")
                        settle(slot, "ok", "")
                    else:
                        settle(slot, "err", str(payload))
                elif not slot.process.is_alive():
                    settle(slot, "crash", f"worker exited {slot.process.exitcode}")
                elif slot.deadline is not None and time.monotonic() > slot.deadline:
                    slot.process.terminate()
                    settle(slot, "timeout", f"exceeded {self.timeout}s timeout")
                else:
                    still_running.append(slot)
            running = still_running
        return cancelled

