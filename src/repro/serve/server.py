"""The experiment-service daemon: asyncio HTTP front, fork-worker back.

One process owns the queue, the dedup table, and every cache write; any
number of clients talk to it over a tiny HTTP/1.1 surface (Unix socket
by default, TCP optional):

* ``POST /sweeps`` — submit a list of wire-encoded jobs (see
  :mod:`repro.serve.wire`).  Jobs the daemon already completed (this
  lifetime or in the persistent cache) are hits; the rest enter the
  fair-share queue.  Returns the sweep id.
* ``GET /sweeps/<id>`` — status counts, and the encoded results once
  every job has settled.
* ``GET /events`` — a live server-sent JSONL feed of scheduler events
  (``job.started``, ``job.finished`` with a telemetry digest when the
  daemon runs with ``--telemetry``, ``sweep.done``, ...).
* ``GET /healthz`` — liveness plus queue counters.
* ``POST /shutdown`` — drain and exit.

Execution reuses the :mod:`repro.exec.pool` worker shape: one forked
process per job, results over a pipe, the parent writing each result
through the persistent cache the moment it lands — which is what makes
``kill -TERM`` safe at any instant (satellite: graceful drain).  SIGTERM
/ SIGINT stop launches and let in-flight workers finish (their results
checkpoint); a second signal terminates them.

Telemetry is result-neutral by contract, so ``--telemetry`` arms
metrics-level tracing on sample jobs and streams
:func:`repro.obs.export.summarize` digests into the event feed without
perturbing a single cached byte.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import gc
import json
import os
import signal
import sys
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.campaign.outcome import run_injection
from repro.campaign.resume import OutcomeCache, campaign_root
from repro.exec.cache import DEFAULT_CACHE_DIR, ResultCache, cache_enabled
from repro.exec.jobs import run_job
from repro.serve.scheduler import (
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    FairShareScheduler,
    JobRecord,
    SweepRecord,
)
from repro.serve.wire import (
    WireError,
    golden_from_wire,
    job_from_wire,
    result_to_wire,
)

#: Default worker count for `repro serve`.
DEFAULT_WORKERS = 2

#: Extra attempts after a worker crash (mirrors ExecutionPool.retries).
RETRIES = 1

_MAX_BODY = 64 * 1024 * 1024


def _serve_worker_main(wire: dict, telemetry: bool, conn) -> None:
    """Forked child: decode the wire job, run it, ship the result back."""
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(signum, signal.SIG_DFL)
        except (ValueError, OSError):  # pragma: no cover
            pass
    try:
        job = job_from_wire(wire)
        kind = wire["kind"]
        summary: str | None = None
        if kind == "sample":
            if telemetry:
                from repro.exec.jobs import resolve_workload
                from repro.obs.export import summarize
                from repro.sim.options import SimOptions
                from repro.sim.sampling import run_sample_system

                options = (job.options or SimOptions()).replace(trace="metrics")
                workload = resolve_workload(job.workload_name)
                was_enabled = gc.isenabled()
                if was_enabled:
                    gc.disable()
                try:
                    result, system = run_sample_system(
                        job.config, workload, job.warmup, job.measure,
                        job.seed, options,
                    )
                finally:
                    if was_enabled:
                        gc.enable()
                if system.obs is not None:
                    summary = summarize(system.obs)
            else:
                result = run_job(job)
        else:
            golden = golden_from_wire(wire["golden"])
            result = run_injection(job.config, job.spec, golden)
        conn.send(("ok", result, summary))
    except BaseException as exc:  # noqa: BLE001 - report, parent decides
        try:
            conn.send(("err", f"{type(exc).__name__}: {exc}", None))
        except (BrokenPipeError, OSError):  # pragma: no cover
            pass
    finally:
        conn.close()


@dataclass
class _WorkerSlot:
    key: str
    process: object
    conn: object


class ServeDaemon:
    """Owns the queue, the worker slots, and the caches."""

    def __init__(
        self,
        cache_root: str | os.PathLike | None = None,
        workers: int = DEFAULT_WORKERS,
        telemetry: bool = False,
        event_log: str | os.PathLike | None = None,
    ) -> None:
        root = Path(
            cache_root
            if cache_root is not None
            else os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR)
        )
        self.cache_root = root
        self.workers = max(1, workers)
        self.telemetry = telemetry
        self.persist = cache_enabled()
        self.sample_cache = ResultCache(root)
        self.outcome_cache = OutcomeCache(campaign_root(root))
        self.jobs: dict[str, JobRecord] = {}
        self.goldens: dict[str, dict] = {}  # key -> golden wire payload
        self.sweeps: dict[str, SweepRecord] = {}
        self.scheduler = FairShareScheduler()
        self.running: dict[str, _WorkerSlot] = {}
        self.draining = False
        self.stopped = asyncio.Event()
        self._subscribers: list[asyncio.Queue] = []
        self._event_log = open(event_log, "a", buffering=1) if event_log else None
        self._context = None  # fork context, lazily imported
        self._loop: asyncio.AbstractEventLoop | None = None
        self._sweep_seq = 0

    # -- events ------------------------------------------------------------

    def emit(self, event: str, **fields) -> None:
        record = {"event": event, **fields}
        if self._event_log is not None:
            self._event_log.write(json.dumps(record, sort_keys=True) + "\n")
        for queue in list(self._subscribers):
            queue.put_nowait(record)

    # -- submission --------------------------------------------------------

    def _cache_for(self, kind: str):
        return self.sample_cache if kind == "sample" else self.outcome_cache

    def submit(self, body: dict) -> dict:
        client = str(body.get("client") or "anonymous")
        priority = int(body.get("priority") or 0)
        fresh = bool(body.get("fresh"))
        wires = body.get("jobs")
        if not isinstance(wires, list) or not wires:
            raise WireError("a sweep needs a non-empty 'jobs' list")
        self._sweep_seq += 1
        sweep_id = f"s{self._sweep_seq:04d}-{uuid.uuid4().hex[:8]}"
        keys: list[str] = []
        hits = 0
        queued = 0
        for wire in wires:
            job = job_from_wire(wire)  # raises WireError on bad payloads
            kind = wire["kind"]
            key = job.key
            keys.append(key)
            if kind == "injection" and "golden" in wire:
                self.goldens.setdefault(key, wire["golden"])
            record = self.jobs.get(key)
            if record is None:
                record = JobRecord(key=key, wire=wire, kind=kind)
                self.jobs[key] = record
                cached = None
                if self.persist and not fresh:
                    cached = self._cache_for(kind).get(job)
                if cached is not None:
                    record.status = DONE
                    record.result = cached
                    record.cached = True
                    self.emit("job.cached", key=key, kind=kind, sweep=sweep_id)
                else:
                    self.scheduler.push(client, key, priority)
                    queued += 1
                    self.emit("job.queued", key=key, kind=kind, sweep=sweep_id,
                              client=client)
            record.sweeps.add(sweep_id)
            if record.status == DONE:
                hits += 1
        sweep = SweepRecord(
            id=sweep_id, client=client, keys=keys, fresh=fresh,
            priority=priority, hits=hits,
        )
        self.sweeps[sweep_id] = sweep
        self.emit(
            "sweep.submitted", sweep=sweep_id, client=client,
            total=len(keys), hits=hits, queued=queued,
        )
        self._pump()
        self._check_sweep(sweep)
        return {
            "id": sweep_id,
            "total": len(keys),
            "hits": hits,
            "queued": queued,
            "workers": self.workers,
        }

    def sweep_status(self, sweep_id: str) -> dict:
        sweep = self.sweeps.get(sweep_id)
        if sweep is None:
            raise KeyError(sweep_id)
        counts = {QUEUED: 0, RUNNING: 0, DONE: 0, FAILED: 0}
        failures: list[str] = []
        for key in sweep.keys:
            record = self.jobs[key]
            counts[record.status] += 1
            if record.status == FAILED:
                failures.append(f"{key[:12]}: {record.error}")
        settled = counts[DONE] + counts[FAILED] == len(sweep.keys)
        status = {
            "id": sweep.id,
            "client": sweep.client,
            "status": ("failed" if failures else "done") if settled else "running",
            "total": len(sweep.keys),
            "hits": sweep.hits,
            "counts": counts,
            "failures": failures,
        }
        if settled:
            status["results"] = {
                key: {
                    "kind": self.jobs[key].kind,
                    "value": result_to_wire(self.jobs[key].kind, self.jobs[key].result),
                }
                for key in sweep.keys
                if self.jobs[key].status == DONE
            }
            status["executed"] = sum(
                1
                for key in sweep.keys
                if self.jobs[key].status == DONE and not self.jobs[key].cached
            )
        return status

    def _check_sweep(self, sweep: SweepRecord) -> None:
        statuses = [self.jobs[key].status for key in sweep.keys]
        if all(status in (DONE, FAILED) for status in statuses):
            self.emit(
                "sweep.done", sweep=sweep.id, client=sweep.client,
                total=len(sweep.keys),
                failed=sum(1 for status in statuses if status == FAILED),
            )

    # -- execution ---------------------------------------------------------

    def _fork_context(self):
        if self._context is None:
            import multiprocessing

            self._context = multiprocessing.get_context("fork")
        return self._context

    def _pump(self) -> None:
        """Launch queued jobs into free worker slots (unless draining)."""
        while not self.draining and len(self.running) < self.workers:
            picked = self.scheduler.pop()
            if picked is None:
                break
            client, key = picked
            record = self.jobs[key]
            if record.status != QUEUED:  # raced a duplicate; nothing to run
                continue
            self._launch(record, client)
        if self.draining and not self.running:
            self.stopped.set()

    def _launch(self, record: JobRecord, client: str) -> None:
        context = self._fork_context()
        wire = dict(record.wire)
        if record.kind == "injection" and "golden" not in wire:
            golden = self.goldens.get(record.key)
            if golden is None:
                record.status = FAILED
                record.error = "injection job submitted without a golden reference"
                self.emit("job.failed", key=record.key, error=record.error)
                self._settle_sweeps(record)
                return
            wire["golden"] = golden
        parent_conn, child_conn = context.Pipe(duplex=False)
        process = context.Process(
            target=_serve_worker_main,
            args=(wire, self.telemetry and record.kind == "sample", child_conn),
            daemon=True,
        )
        process.start()
        child_conn.close()
        record.status = RUNNING
        record.attempts += 1
        slot = _WorkerSlot(key=record.key, process=process, conn=parent_conn)
        self.running[record.key] = slot
        loop = self._loop or asyncio.get_event_loop()
        loop.add_reader(parent_conn.fileno(), self._on_worker_ready, slot)
        self.emit(
            "job.started", key=record.key, kind=record.kind, client=client,
            attempt=record.attempts,
        )

    def _on_worker_ready(self, slot: _WorkerSlot) -> None:
        loop = self._loop or asyncio.get_event_loop()
        loop.remove_reader(slot.conn.fileno())
        record = self.jobs[slot.key]
        try:
            status, payload, summary = slot.conn.recv()
        except (EOFError, OSError):
            status, payload, summary = "crash", "result pipe closed", None
        slot.conn.close()
        slot.process.join()
        del self.running[slot.key]
        if status == "ok":
            record.status = DONE
            record.result = payload
            if self.persist:
                self._cache_for(record.kind).put(job_from_wire(record.wire), payload)
            event = {"key": record.key, "kind": record.kind,
                     "attempt": record.attempts}
            if summary:
                event["telemetry"] = summary
            self.emit("job.finished", **event)
        elif record.attempts <= RETRIES and not self.draining:
            record.status = QUEUED
            self.scheduler.push("retry", record.key)
            self.emit("job.retry", key=record.key, error=str(payload))
        else:
            record.status = FAILED
            record.error = str(payload)
            self.emit("job.failed", key=record.key, error=record.error)
        self._settle_sweeps(record)
        self._pump()

    def _settle_sweeps(self, record: JobRecord) -> None:
        for sweep_id in record.sweeps:
            self._check_sweep(self.sweeps[sweep_id])

    # -- shutdown ----------------------------------------------------------

    def request_drain(self, signum: int | None = None) -> None:
        if not self.draining:
            self.draining = True
            self.emit(
                "daemon.drain",
                signal=signal.Signals(signum).name if signum else None,
                in_flight=len(self.running),
                queued=len(self.scheduler),
            )
            if not self.running:
                self.stopped.set()
        else:
            # Second signal: cancel in-flight work too.
            loop = self._loop or asyncio.get_event_loop()
            for slot in list(self.running.values()):
                with contextlib.suppress(OSError):
                    loop.remove_reader(slot.conn.fileno())
                slot.process.terminate()
                slot.process.join()
                slot.conn.close()
                self.jobs[slot.key].status = FAILED
                self.jobs[slot.key].error = "cancelled by shutdown"
                del self.running[slot.key]
            self.stopped.set()

    def health(self) -> dict:
        return {
            "status": "draining" if self.draining else "ok",
            "pid": os.getpid(),
            "workers": self.workers,
            "running": len(self.running),
            "queued": len(self.scheduler),
            "jobs": len(self.jobs),
            "sweeps": len(self.sweeps),
            "telemetry": self.telemetry,
        }

    # -- HTTP --------------------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            request = await reader.readline()
            if not request:
                return
            try:
                method, path, _version = request.decode().split()
            except ValueError:
                await self._respond(writer, 400, {"error": "bad request line"})
                return
            headers: dict[str, str] = {}
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode().partition(":")
                headers[name.strip().lower()] = value.strip()
            length = int(headers.get("content-length", "0") or "0")
            if length > _MAX_BODY:
                await self._respond(writer, 413, {"error": "body too large"})
                return
            body = await reader.readexactly(length) if length else b""
            await self._route(method, path, body, writer)
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass
        finally:
            with contextlib.suppress(OSError, ConnectionResetError):
                writer.close()
                await writer.wait_closed()

    async def _route(self, method: str, path: str, body: bytes,
                     writer: asyncio.StreamWriter) -> None:
        if method == "GET" and path == "/healthz":
            await self._respond(writer, 200, self.health())
        elif method == "POST" and path == "/sweeps":
            if self.draining:
                await self._respond(writer, 503, {"error": "daemon is draining"})
                return
            try:
                payload = json.loads(body.decode() or "{}")
                response = self.submit(payload)
            except (WireError, ValueError, KeyError) as exc:
                await self._respond(writer, 400, {"error": str(exc)})
                return
            await self._respond(writer, 200, response)
        elif method == "GET" and path.startswith("/sweeps/"):
            try:
                status = self.sweep_status(path[len("/sweeps/"):])
            except KeyError:
                await self._respond(writer, 404, {"error": "unknown sweep"})
                return
            await self._respond(writer, 200, status)
        elif method == "GET" and path == "/events":
            await self._stream_events(writer)
        elif method == "POST" and path == "/shutdown":
            await self._respond(writer, 200, {"status": "draining"})
            self.request_drain()
        else:
            await self._respond(writer, 404, {"error": f"no route {method} {path}"})

    async def _respond(self, writer: asyncio.StreamWriter, code: int,
                       payload: dict) -> None:
        body = json.dumps(payload, sort_keys=True).encode()
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
                  413: "Payload Too Large", 503: "Service Unavailable"}
        writer.write(
            f"HTTP/1.1 {code} {reason.get(code, 'Error')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n".encode() + body
        )
        await writer.drain()

    async def _stream_events(self, writer: asyncio.StreamWriter) -> None:
        queue: asyncio.Queue = asyncio.Queue()
        self._subscribers.append(queue)
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Connection: close\r\n\r\n"
        )
        try:
            await writer.drain()
            while not self.stopped.is_set():
                getter = asyncio.ensure_future(queue.get())
                stopper = asyncio.ensure_future(self.stopped.wait())
                done, pending = await asyncio.wait(
                    {getter, stopper}, return_when=asyncio.FIRST_COMPLETED
                )
                for task in pending:
                    task.cancel()
                if getter in done:
                    record = getter.result()
                    writer.write(json.dumps(record, sort_keys=True).encode() + b"\n")
                    await writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass
        finally:
            self._subscribers.remove(queue)

    # -- lifecycle ---------------------------------------------------------

    async def serve(self, socket_path: str | os.PathLike | None = None,
                    host: str | None = None, port: int | None = None) -> None:
        """Bind, run until drained, clean up the socket."""
        self._loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                self._loop.add_signal_handler(
                    signum, self.request_drain, signum
                )
            except (NotImplementedError, ValueError, RuntimeError):
                pass  # non-main thread (tests) or exotic platform
        if socket_path is not None:
            socket_path = Path(socket_path)
            socket_path.parent.mkdir(parents=True, exist_ok=True)
            if socket_path.exists():
                socket_path.unlink()  # stale socket from a killed daemon
            server = await asyncio.start_unix_server(self._handle, path=str(socket_path))
            address = str(socket_path)
        else:
            server = await asyncio.start_server(
                self._handle, host or "127.0.0.1", port or 0
            )
            bound = server.sockets[0].getsockname()
            address = f"{bound[0]}:{bound[1]}"
        self.address = address
        self.emit(
            "daemon.start", address=address, workers=self.workers,
            pid=os.getpid(),
        )
        try:
            async with server:
                await self.stopped.wait()
        finally:
            self.emit(
                "daemon.stop",
                completed=sum(1 for r in self.jobs.values() if r.status == DONE),
                failed=sum(1 for r in self.jobs.values() if r.status == FAILED),
            )
            if self._event_log is not None:
                self._event_log.close()
            if socket_path is not None:
                with contextlib.suppress(OSError):
                    Path(socket_path).unlink()


def main(argv: Optional[list[str]] = None) -> int:
    """``python -m repro.serve.server`` / ``repro serve`` entry point."""
    from repro.serve.client import default_socket_path

    parser = argparse.ArgumentParser(
        prog="repro serve", description="run the local experiment service"
    )
    parser.add_argument(
        "--socket", default=None,
        help="Unix socket path (default <cache root>/serve.sock)",
    )
    parser.add_argument("--host", default=None, help="bind TCP instead (host)")
    parser.add_argument("--port", type=int, default=None, help="TCP port")
    parser.add_argument(
        "--workers", type=int, default=DEFAULT_WORKERS,
        help=f"fork worker processes (default {DEFAULT_WORKERS})",
    )
    parser.add_argument(
        "--cache-root", default=None,
        help="cache root to serve from (default REPRO_CACHE_DIR or .repro-cache)",
    )
    parser.add_argument(
        "--telemetry", action="store_true",
        help="arm metrics-level tracing on sample jobs and stream "
        "per-job telemetry digests into the event feed",
    )
    parser.add_argument(
        "--event-log", default=None,
        help="also append every event as JSONL to this file",
    )
    args = parser.parse_args(argv)

    daemon = ServeDaemon(
        cache_root=args.cache_root,
        workers=args.workers,
        telemetry=args.telemetry,
        event_log=args.event_log,
    )
    if args.host or args.port:
        socket_path = None
    else:
        socket_path = args.socket or str(default_socket_path(daemon.cache_root))
    where = socket_path or f"{args.host or '127.0.0.1'}:{args.port or 0}"
    print(f"repro serve: listening on {where} "
          f"({daemon.workers} workers)",
          file=sys.stderr, flush=True)
    asyncio.run(daemon.serve(socket_path=socket_path, host=args.host, port=args.port))
    print("repro serve: drained, exiting", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
