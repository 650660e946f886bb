"""One benchmark iteration, run by ``bench/run.py`` in a fresh process.

Usage: ``python bench/child.py SPEC_JSON``.  SPEC names the workload,
seed and pool size, carries ``t0`` (the parent's ``time.monotonic()``
just before it started this process, so times count from child start)
and, for a traced iteration, where to write the trace.  The child prints
one JSON object as the last line of its standard output.

The workloads (why each exists is in bench/README.md):

* ``fig5-cold`` makes the calls ``repro reproduce --scale quick --only
  fig5 --jobs N`` makes, on the empty cache named by ``REPRO_CACHE_DIR``;
  it is timed from child start until the table is rendered;
* ``fig5-warm`` makes the same calls on a filled cache once, untimed,
  then ``RENDERS`` times more, each timed on its own;
* ``protection-mix`` and ``manycore-chase`` build one ``CMPSystem`` and
  run its warmup and measure windows in this process;
* ``import`` only imports what the others import, so ``.pyc``
  compilation happens before anything is timed.

Set-up ends at the first simulated cycle (``CMPSystem.run``), or at the
first cache get for ``fig5-warm``.

Timed work is bracketed by host-speed probes (``speed.probe``): each
chunk of an in-process run, each ``fig5-warm`` render, and each
``fig5-cold`` sample in whichever process runs it.  The result's
``pieces`` are ``(seconds, probe before, probe after)`` triples.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import multiprocessing
import resource
import sys
import time

from speed import probe

#: Published Figure 5 class averages: (model column, class) -> value.
PAPER_FIG5 = {
    ("strict", "commercial"): 0.95,
    ("strict", "scientific"): 0.98,
    ("reunion", "commercial"): 0.90,
    ("reunion", "scientific"): 0.92,
}

#: protection-mix: one policy per pair, covering every ProtectionPolicy
#: path behind ``repro frontier``.
PROTECTION_MIX_POLICIES = ("full", "interval-sampled:0.5", "little-mute:2", "dynamic")

#: Everything a child imports, for the untimed ``import`` workload.
MODULES = (
    "repro.harness",
    "repro.exec.cache",
    "repro.serve.client",
    "repro.sim.cmp",
    "repro.sim.config",
    "repro.sim.options",
    "repro.workloads.micro",
    "tracer",
)

#: Most Figure 5 samples one child records probes for (33 run per child).
MAX_JOBS = 256

#: Timed re-renders of Figure 5 in one ``fig5-warm`` child.
RENDERS = 60


class SetupMark:
    """The end of set-up: the first call of ``owner.name``.

    The time of that call goes to shared memory, so a call in a forked
    pool worker counts.
    """

    def __init__(self, owner, name: str) -> None:
        self.cell = multiprocessing.get_context("fork").RawValue("d", 0.0)
        original = getattr(owner, name)

        def marked(*args, **kwargs):
            if not self.cell.value:
                self.cell.value = time.monotonic()
            return original(*args, **kwargs)

        setattr(owner, name, marked)

    def setup_s(self, t0: float) -> float | None:
        return self.cell.value - t0 if self.cell.value else None


class JobProbes:
    """Bracket every sample an ``ExecutionPool`` runs with probes.

    The probes run in the process that runs the sample, a forked pool
    worker or this one, and the pieces go to shared memory.  Installed
    before the tracer, so traced ``run_job`` spans leave the probes out.
    """

    def __init__(self) -> None:
        from repro.exec.pool import ExecutionPool

        context = multiprocessing.get_context("fork")
        self.records = context.Array("d", 3 * MAX_JOBS)
        self.count = context.Value("i", 0)
        original = ExecutionPool.run

        def run(pool, *args, **kwargs):
            runner = pool.run_job
            pool.run_job = self.bracketed(runner)
            try:
                return original(pool, *args, **kwargs)
            finally:
                pool.run_job = runner

        ExecutionPool.run = run

    def bracketed(self, runner):
        def run_job(job):
            before = probe()
            start = time.perf_counter()
            sample = runner(job)
            seconds = time.perf_counter() - start
            after = probe()
            with self.count.get_lock():
                index = self.count.value
                self.count.value += 1
            if index < MAX_JOBS:
                self.records[3 * index : 3 * index + 3] = [seconds, before, after]
            return sample

        return run_job

    def pieces(self) -> list[list[float]]:
        count = min(self.count.value, MAX_JOBS)
        return [list(self.records[3 * i : 3 * i + 3]) for i in range(count)]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024


def probe_daemon(answers: list) -> None:
    """Record whether the serve probe found a daemon (it must not)."""
    import repro.serve.client as client

    original = client.service_pool

    def service_pool(*args, **kwargs):
        pool = original(*args, **kwargs)
        answers.append(pool is not None)
        return pool

    client.service_pool = service_pool


def render_fig5(scale, jobs: int):
    """One ``repro reproduce --only fig5``: plan, prefetch, figure, table."""
    import repro.harness as harness
    from repro.exec.cache import default_cache
    from repro.sim.options import SimOptions

    runner = harness.Runner(scale, cache=default_cache(), options=SimOptions.from_env())
    requests = harness.plan_fig5(scale)
    manifest = runner.prefetch(requests, jobs=jobs)
    result = harness.run_fig5(runner=runner)
    return runner, requests, manifest, result, result.render()


def rerender_fig5(scale, jobs: int, manifests: list, texts: list) -> list[list[float]]:
    """``RENDERS`` more renders, each timed and bracketed by probes."""
    pieces = []
    before = probe()
    for _ in range(RENDERS):
        start = time.perf_counter()
        _, _, manifest, _, text = render_fig5(scale, jobs)
        seconds = time.perf_counter() - start
        after = probe()
        pieces.append([seconds, before, after])
        before = after
        manifests.append(manifest)
        texts.append(text)
    return pieces


def run_fig5(spec: dict, job_probes: JobProbes | None) -> dict:
    import repro.harness as harness

    warm = spec["workload"] == "fig5-warm"
    answers: list[bool] = []
    probe_daemon(answers)

    scale = dataclasses.replace(harness.QUICK, seeds=(spec["seed"],))
    runner, requests, manifest, result, text = render_fig5(scale, spec["jobs"])
    done = time.monotonic()
    print(text)
    manifests, texts = [manifest], [text]
    if warm:
        pieces = rerender_fig5(scale, spec["jobs"], manifests, texts)
        wall = sum(seconds for seconds, _, _ in pieces)
    else:
        pieces = job_probes.pieces()
        wall = done - spec["t0"]

    samples = [runner.sample(config, workload, spec["seed"]) for config, workload in requests]
    measured = sum(sample.cycles for sample in samples)
    users = sum(sample.user_instructions for sample in samples)
    averages = {
        ("strict", "commercial"): result.commercial_average(2),
        ("strict", "scientific"): result.scientific_average(2),
        ("reunion", "commercial"): result.commercial_average(3),
        ("reunion", "scientific"): result.scientific_average(3),
    }
    abs_err = sum(abs(averages[key] - PAPER_FIG5[key]) for key in PAPER_FIG5) / len(PAPER_FIG5)
    expected = (len(samples), 0) if warm else (0, len(samples))
    return {
        "digest": sha256(text),
        "sample_digests": [sha256(repr(dataclasses.astuple(s))) for s in samples],
        "wall_s": wall,
        "pieces": pieces,
        "pieces_are_operations": warm,
        "sim_cycles": 0 if warm else len(samples) * (scale.warmup + scale.measure),
        "sim_ipc": users / measured,
        "fig5_paper_abs_err": abs_err,
        "checks": {
            "no daemon answered the serve probe": len(answers) == len(texts) and not any(answers),
            f"manifest hits/executed = {expected}": all(
                (m.hits, m.executed) == expected for m in manifests
            ),
            "every render printed the same table": len(set(texts)) == 1,
        },
    }


def build_system(spec: dict):
    """The in-process workloads' system, programs, windows and chunk size.

    Both windows run in chunks of equal cycles, 30 in all, each between
    two probes.  Running in chunks leaves every Stats value as it is:
    the event kernel never skips past the end of a ``run`` call.
    """
    from repro.sim.config import DEFAULT_CONFIG, Mode, manycore_config, parse_policy
    from repro.workloads.micro import ComputeKernel, PointerChase

    if spec["workload"] == "protection-mix":
        config = DEFAULT_CONFIG.with_redundancy(mode=Mode.REUNION).replace(
            pair_policies=tuple(parse_policy(p) for p in PROTECTION_MIX_POLICIES)
        )
        return config, ComputeKernel(), 2_000, 28_000, 1_000
    return manycore_config(8), PointerChase(nodes=4096), 100_000, 500_000, 20_000


def run_chunks(system, cycles: int, chunk: int, pieces: list) -> None:
    """Run ``cycles`` in chunks, each timed and bracketed by probes."""
    before = pieces[-1][2] if pieces else probe()
    for done in range(0, cycles, chunk):
        start = time.perf_counter()
        system.run(min(chunk, cycles - done))
        seconds = time.perf_counter() - start
        after = probe()
        pieces.append([seconds, before, after])
        before = after


def run_system(spec: dict) -> dict:
    from repro.sim.cmp import CMPSystem
    from repro.sim.options import SimOptions

    config, workload, warmup, measure, chunk = build_system(spec)
    programs = workload.programs(config.n_logical, spec["seed"])
    schedules = workload.itlb_schedules(config.n_logical, spec["seed"])
    system = CMPSystem(config, programs, schedules, options=SimOptions.from_env())

    pieces: list[list[float]] = []
    run_chunks(system, warmup, chunk, pieces)
    users_before = system.user_instructions()
    run_chunks(system, measure, chunk, pieces)
    users = system.user_instructions() - users_before

    snapshot = system.collect_stats().snapshot()
    return {
        "digest": sha256(json.dumps(snapshot, sort_keys=True)),
        "wall_s": sum(seconds for seconds, _, _ in pieces),
        "pieces": pieces,
        "sim_cycles": warmup + measure,
        "sim_ipc": users / measure,
        "checks": {"every simulated cycle is accounted": system.now == warmup + measure},
    }


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    workload = spec["workload"]
    trace_path = spec.get("trace_path")
    tracer = None
    if trace_path:
        from tracer import Tracer

        tracer = Tracer(epoch_ns=int(spec["t0"] * 1e9))
    started = time.monotonic_ns()
    import repro.harness  # noqa: F401  (the import every workload pays)

    fig5 = workload.startswith("fig5")
    job_probes = JobProbes() if workload == "fig5-cold" else None
    if tracer is not None:
        tracer.charge("import", "import repro.harness", time.monotonic_ns() - started)
        tracer.install()
    if workload == "import":
        for module in MODULES:
            importlib.import_module(module)
        print(json.dumps({}))
        return 0

    from repro.exec.cache import ResultCache
    from repro.sim.cmp import CMPSystem

    owner, name = (ResultCache, "get") if workload == "fig5-warm" else (CMPSystem, "run")
    mark = SetupMark(owner, name)
    result = run_fig5(spec, job_probes) if fig5 else run_system(spec)
    result["setup_s"] = mark.setup_s(spec["t0"])
    result["checks"]["set-up ended"] = result["setup_s"] is not None
    result["peak_rss_mb"] = peak_rss_mb()

    if tracer is not None:
        tracer.restore()
        if result["setup_s"] is not None:
            tracer.record_span("child setup", 0.0, result["setup_s"])
        with open(trace_path, "w") as handle:
            json.dump(
                {
                    "wall_s": time.monotonic() - spec["t0"],
                    "layers": tracer.layer_totals(),
                    "spans": tracer.spans,
                },
                handle,
            )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
