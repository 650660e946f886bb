"""End-to-end service tests: a real daemon subprocess, real clients.

One daemon serves the whole module (startup costs a process spawn); the
tests drive it the way production callers do — through
:class:`~repro.serve.client.ServicePool` — and audit the daemon's event
log for the dedup guarantee: overlapping submissions from concurrent
clients execute each unique job exactly once.
"""

import collections
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.campaign.plan import plan_campaign
from repro.exec.cache import ResultCache
from repro.exec.jobs import SampleJob, run_job
from repro.exec.pool import ExecutionError
from repro.serve.client import (
    ServeClient,
    ServicePool,
    ServiceUnavailable,
    service_address,
    service_pool,
)
from repro.sim.config import DEFAULT_CONFIG

CONFIG = DEFAULT_CONFIG.replace(n_logical=2)

JOBS = [
    SampleJob(CONFIG, "ocean", seed, warmup=80, measure=160) for seed in range(4)
]


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    """A live daemon on a Unix socket; yields (address, event_log_path)."""
    root = tmp_path_factory.mktemp("serve")
    socket_path = root / "serve.sock"
    event_log = root / "events.jsonl"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
    env.pop("REPRO_NO_CACHE", None)
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.serve.server",
            "--socket", str(socket_path),
            "--cache-root", str(root / "cache"),
            "--workers", "2",
            "--event-log", str(event_log),
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    client = ServeClient(str(socket_path), timeout=5)
    deadline = time.monotonic() + 30
    while True:
        try:
            if client.health().get("status") == "ok":
                break
        except (ServiceUnavailable, RuntimeError):
            pass
        if process.poll() is not None or time.monotonic() > deadline:
            process.kill()
            raise RuntimeError("daemon failed to come up")
        time.sleep(0.1)
    yield str(socket_path), event_log
    process.send_signal(signal.SIGTERM)
    try:
        process.wait(timeout=15)
    except subprocess.TimeoutExpired:
        process.kill()


def started_counts(event_log: Path) -> collections.Counter:
    counter: collections.Counter = collections.Counter()
    if event_log.exists():
        for line in event_log.read_text().splitlines():
            event = json.loads(line)
            if event["event"] == "job.started":
                counter[event["key"]] += 1
    return counter


class TestEndToEnd:
    def test_concurrent_clients_dedup_and_match_local(self, daemon, tmp_path):
        """Two clients with overlapping sweeps: every unique job runs
        exactly once, and both clients read the same samples a local
        run produces."""
        address, event_log = daemon
        batches = {"alice": JOBS[:3], "bob": JOBS[1:]}  # overlap: seeds 1, 2
        outputs: dict[str, dict] = {}
        errors: list[BaseException] = []

        def drive(name: str) -> None:
            try:
                pool = ServicePool(address, client_id=name)
                cache = ResultCache(tmp_path / name)
                results, manifest = pool.run(batches[name], cache=cache)
                outputs[name] = results
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=drive, args=(name,)) for name in batches
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        assert not errors, errors
        # Both clients decoded the overlapping jobs to identical samples,
        # and those match an in-process run bit for bit.
        for job in JOBS[1:3]:
            assert outputs["alice"][job.key] == outputs["bob"][job.key]
        for name, batch in batches.items():
            for job in batch:
                assert outputs[name][job.key] == run_job(job)
        # The dedup guarantee, from the daemon's own event log: each of
        # the 4 unique keys started exactly once.
        counts = started_counts(event_log)
        assert set(counts) == {job.key for job in JOBS}
        assert all(count == 1 for count in counts.values()), counts
        # Each client's local cache holds its own batch (write-through).
        for name, batch in batches.items():
            cache = ResultCache(tmp_path / name)
            assert all(cache.get(job) is not None for job in batch)

    def test_resubmission_is_served_without_rerunning(self, daemon):
        """Runs after the concurrent test: every job is now daemon-side
        state, so a fresh client gets pure hits — zero new starts."""
        address, event_log = daemon
        before = started_counts(event_log)
        pool = ServicePool(address, client_id="latecomer")
        results, manifest = pool.run(JOBS)  # no local cache at all
        assert set(results) == {job.key for job in JOBS}
        assert results[JOBS[0].key] == run_job(JOBS[0])
        assert started_counts(event_log) == before  # nothing re-ran

    def test_injection_without_golden_fails_cleanly(self, daemon):
        address, _ = daemon
        jobs = plan_campaign("ocean", 2, commit_target=200, max_cycles=4000)
        pool = ServicePool(address, client_id="forgetful", golden=None)
        with pytest.raises(ExecutionError, match="golden"):
            pool.run(jobs)

    def test_health_and_errors_over_http(self, daemon):
        address, _ = daemon
        client = ServeClient(address, timeout=5)
        health = client.health()
        assert health["status"] == "ok"
        assert health["workers"] == 2
        with pytest.raises(RuntimeError, match="unknown sweep"):
            client.sweep("no-such-sweep")
        with pytest.raises(RuntimeError, match="no route"):
            client.request("GET", "/nope")
        with pytest.raises(RuntimeError, match="jobs"):
            client.submit([], client_id="empty")


class TestDetection:
    def test_no_serve_wins(self, tmp_path):
        socket_path = tmp_path / "serve.sock"
        socket_path.touch()
        env = {"REPRO_NO_SERVE": "1", "REPRO_SERVE": str(socket_path)}
        assert service_address(env) is None
        assert service_pool(env=env) is None

    def test_explicit_address(self):
        assert service_address({"REPRO_SERVE": "/run/repro.sock"}) == "/run/repro.sock"
        assert service_address({"REPRO_SERVE": "localhost:8123"}) == "localhost:8123"

    def test_default_socket_only_when_present(self, tmp_path):
        env = {"REPRO_CACHE_DIR": str(tmp_path)}
        assert service_address(env) is None
        (tmp_path / "serve.sock").touch()
        assert service_address(env) == str(tmp_path / "serve.sock")

    def test_dead_socket_falls_back_to_local(self, tmp_path):
        """A socket file with no listener (killed daemon) must not trap
        clients: the health check fails and callers run locally."""
        stale = tmp_path / "serve.sock"
        stale.touch()
        assert service_pool(env={"REPRO_SERVE": str(stale)}) is None

    def test_live_daemon_detected(self, daemon):
        address, _ = daemon
        pool = service_pool(env={"REPRO_SERVE": address})
        assert pool is not None
        assert isinstance(pool, ServicePool)

    def test_unreachable_daemon_raises_service_unavailable(self, tmp_path):
        pool = ServicePool(str(tmp_path / "gone.sock"), client_id="x")
        with pytest.raises(ServiceUnavailable):
            pool.run(JOBS[:1])
