"""Shared experiment infrastructure: scales, configurations, caching, plans.

Every figure/table driver works at a chosen :class:`Scale`.  The paper
warms for 100K cycles and measures 50K per sample at Table 1 size; a
pure-Python reproduction defaults to much shorter windows on the scaled
:data:`~repro.sim.config.DEFAULT_CONFIG` system.  Set the environment
variable ``REPRO_SCALE`` to ``quick`` (default), ``standard``, or
``paper`` to trade wall-clock for fidelity.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable

from repro.exec.cache import ResultCache
from repro.exec.jobs import SampleJob, run_job
from repro.exec.pool import ExecutionPool
from repro.exec.progress import Progress, RunManifest
from repro.serve import client as serve_client
from repro.sim.config import DEFAULT_CONFIG, PAPER_TABLE1, Mode, SystemConfig
from repro.sim.options import SimOptions
from repro.sim.sampling import Sample
from repro.workloads.base import Workload


@dataclass(frozen=True)
class Scale:
    """How long to warm, how long to measure, and how many seeds."""

    name: str
    warmup: int
    measure: int
    seeds: tuple[int, ...]
    config: SystemConfig = DEFAULT_CONFIG


QUICK = Scale("quick", warmup=1200, measure=2500, seeds=(0,))
STANDARD = Scale("standard", warmup=2000, measure=6000, seeds=(0, 1))
PAPER = Scale(
    "paper", warmup=100_000, measure=50_000, seeds=(0, 1, 2), config=PAPER_TABLE1
)

_SCALES = {scale.name: scale for scale in (QUICK, STANDARD, PAPER)}


def scale_by_name(name: str) -> Scale:
    """Look a scale preset up by name (quick/standard/paper)."""
    key = name.lower()
    if key not in _SCALES:
        raise ValueError(f"scale must be one of {sorted(_SCALES)}, got {name!r}")
    return _SCALES[key]


def current_scale() -> Scale:
    """The scale selected via ``REPRO_SCALE`` (default: quick)."""
    name = os.environ.get("REPRO_SCALE", "quick")
    try:
        return scale_by_name(name)
    except ValueError:
        raise ValueError(
            f"REPRO_SCALE must be one of {sorted(_SCALES)}, got {name!r}"
        ) from None


@dataclass
class Runner:
    """Runs and memoizes samples so figures sharing a config reuse them.

    The in-memory memo key covers everything that affects a simulation
    at a fixed scale; figure drivers can therefore freely re-request the
    non-redundant baseline.  With a persistent ``cache`` attached, every
    completed sample is also stored on disk under a content-hash key
    that additionally covers the warmup/measure windows (so different
    scales never collide) and is reused across processes; see
    :mod:`repro.exec`.
    """

    scale: Scale
    cache: ResultCache | None = None
    #: Simulation options threaded into every job.  All SimOptions
    #: fields are result-neutral by contract, so the memo key and the
    #: persistent content-hash key both ignore them.
    options: SimOptions | None = None
    _cache: dict[tuple[SystemConfig, str, int], Sample] = field(default_factory=dict)

    def _job(self, config: SystemConfig, workload_name: str, seed: int) -> SampleJob:
        return SampleJob(
            config=config,
            workload_name=workload_name,
            seed=seed,
            warmup=self.scale.warmup,
            measure=self.scale.measure,
            options=self.options,
        )

    def sample(self, config: SystemConfig, workload: Workload, seed: int) -> Sample:
        key = (config, workload.name, seed)
        if key not in self._cache:
            job = self._job(config, workload.name, seed)
            sample = self.cache.get(job) if self.cache is not None else None
            if sample is None:
                sample = run_job(job)
                if self.cache is not None:
                    self.cache.put(job, sample)
            self._cache[key] = sample
        return self._cache[key]

    def samples(self, config: SystemConfig, workload: Workload) -> list[Sample]:
        return [self.sample(config, workload, seed) for seed in self.scale.seeds]

    def prefetch(
        self,
        requests: Iterable[tuple[SystemConfig, Workload]],
        jobs: int = 1,
        timeout: float | None = None,
        show_progress: bool = False,
    ) -> RunManifest:
        """Batch-execute every (config, workload) point across ``jobs`` workers.

        Expands each request over the scale's seeds, serves what it can
        from the memo and the persistent cache, fans the rest out over
        the process pool, and warms the memo with every result — after
        which the figure drivers' serial :meth:`sample` calls are pure
        lookups.  Results are bit-identical to serial execution.

        The batch runs grouped by generation — (workload, ``n_logical``,
        seed), groups in order of first appearance — so that the
        programs built for one job serve the next (see
        :data:`repro.sim.sampling._generation_memo`).
        """
        groups: dict[tuple[str, int, int], list[SampleJob]] = {}
        index: dict[str, tuple[SystemConfig, str, int]] = {}
        memo_served: set[tuple[SystemConfig, str, int]] = set()
        for config, workload in requests:
            for seed in self.scale.seeds:
                memo_key = (config, workload.name, seed)
                if memo_key in self._cache:
                    memo_served.add(memo_key)
                    continue
                job = self._job(config, workload.name, seed)
                if job.key not in index:
                    generation = (workload.name, config.n_logical, seed)
                    groups.setdefault(generation, []).append(job)
                    index[job.key] = memo_key
        batch = [job for group in groups.values() for job in group]
        # The benchmark's Fig 5 children count this probe: one call per
        # prefetch, answered None (bench/child.py::probe_daemon).
        serve_client.service_pool()
        pool = ExecutionPool(workers=jobs, timeout=timeout)
        results, manifest = pool.run(
            batch,
            cache=self.cache,
            progress=Progress(len(batch), enabled=show_progress),
        )
        for key, sample in results.items():
            self._cache[index[key]] = sample
        manifest.total += len(memo_served)
        manifest.memo_hits = len(memo_served)
        return manifest

    def mean_ipc(self, config: SystemConfig, workload: Workload) -> float:
        samples = self.samples(config, workload)
        return sum(s.ipc for s in samples) / len(samples)

    def normalized_ipc(self, config: SystemConfig, workload: Workload) -> float:
        """IPC normalized to ``config`` without redundancy, matched by seed.

        The baseline is ``config`` with the scale's non-redundant
        :class:`~repro.sim.config.RedundancyConfig`: the same core,
        caches, TLB and consistency model, with no checking.
        """
        base_config = config.replace(
            redundancy=replace(self.scale.config.redundancy, mode=Mode.NONREDUNDANT)
        )
        ratios = []
        for seed in self.scale.seeds:
            base = self.sample(base_config, workload, seed)
            test = self.sample(config, workload, seed)
            ratios.append(test.ipc / base.ipc if base.ipc else 0.0)
        return sum(ratios) / len(ratios)


#: What :class:`_Recorder` answers every request with: IPC 1, no events.
_PLACEHOLDER = Sample(
    cycles=1, user_instructions=1, recoveries=0, tlb_misses=0, sync_requests=0, serializing=0
)


@dataclass
class _Recorder(Runner):
    """A runner that notes the points a driver asks for and simulates none."""

    points: dict[tuple[SystemConfig, str], tuple[SystemConfig, Workload]] = field(
        default_factory=dict
    )

    def sample(self, config: SystemConfig, workload: Workload, seed: int) -> Sample:
        self.points.setdefault((config, workload.name), (config, workload))
        return _PLACEHOLDER


def plan(driver: Callable[..., object], scale: Scale) -> list[tuple[SystemConfig, Workload]]:
    """Every (config, workload) point ``driver`` samples at ``scale``.

    Runs ``driver(runner=...)`` once against a runner that records each
    request, in first-request order and without repeats, and answers it
    with a placeholder.  A driver's requests must not depend on the
    values it gets back (``tests/exec/test_runner_integration.py``
    checks that each registered driver's plan covers its real run).
    """
    recorder = _Recorder(scale)
    driver(runner=recorder)
    return list(recorder.points.values())


def category_average(values: dict[str, float], workloads: list[Workload], category: str) -> float:
    """Average a per-workload metric over one Figure 5 category."""
    members = [w.name for w in workloads if w.category == category]
    return sum(values[name] for name in members) / len(members)
