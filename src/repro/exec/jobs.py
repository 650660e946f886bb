"""Job descriptors: one simulation point, one stable content-hash key.

A :class:`SampleJob` pins down everything :func:`repro.sim.sampling.run_sample`
depends on — the full :class:`~repro.sim.config.SystemConfig`, the
workload (by name; workloads are deterministic in ``seed``), the seed,
and the warmup/measure windows.  Its :meth:`~SampleJob.key` is a SHA-256
over a canonical JSON rendering of all of that plus
:data:`SCHEMA_VERSION`, so the key survives process boundaries (unlike
``hash()``) and changes whenever anything that could change the result
changes.

Bump :data:`SCHEMA_VERSION` whenever simulator semantics change in a way
that invalidates previously cached samples.
"""

from __future__ import annotations

import dataclasses
import enum
import gc
import hashlib
import json
from dataclasses import dataclass
from typing import Any

from repro.sim.config import SystemConfig
from repro.sim.options import SimOptions
from repro.sim.sampling import Sample, prepare_sample, run_sample
from repro.workloads import by_name

#: Version stamp folded into every job key and cache record.  Cached
#: results from other schema versions are treated as misses.
#: v2: BusConfig grew the CoherenceStyle/directory-interconnect fields,
#: changing every config payload.
#: v3: SystemConfig grew pair_policies (per-pair protection), changing
#: every config payload.
SCHEMA_VERSION = 3


def config_payload(value: Any) -> Any:
    """Canonical JSON-ready rendering of a config tree.

    Dataclasses become sorted field dicts, enums their values; anything
    else must already be a JSON scalar.  The rendering is what gets
    hashed, so it must be deterministic across processes and platforms.
    Every field of the config tree is rendered: result-neutral knobs
    (kernel, execution strategy, telemetry) live on
    :class:`~repro.sim.options.SimOptions`, never on the config.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: config_payload(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (list, tuple)):
        return [config_payload(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"cannot canonicalize {type(value).__name__} for job key")


@dataclass(frozen=True)
class SampleJob:
    """One simulation point: a pure function of the first five fields.

    ``options`` rides along for *how* to compute the sample (kernel,
    execution strategy, telemetry) but is no part of the payload or the
    content-hash key: every :class:`SimOptions` field is result-neutral
    by contract, so a cache populated with telemetry off serves armed
    runs (and dual serves replay) without re-simulating.
    """

    config: SystemConfig
    workload_name: str
    seed: int
    warmup: int
    measure: int
    options: SimOptions | None = None

    def payload(self) -> dict[str, Any]:
        """The canonical dict this job's key is the hash of."""
        return {
            "schema": SCHEMA_VERSION,
            "config": config_payload(self.config),
            "workload": self.workload_name,
            "seed": self.seed,
            "warmup": self.warmup,
            "measure": self.measure,
        }

    @property
    def key(self) -> str:
        """Stable content hash identifying this job across processes."""
        canonical = json.dumps(self.payload(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    def describe(self) -> str:
        mode = self.config.redundancy.mode.value
        return f"{self.workload_name}/{mode}/seed{self.seed}/{self.warmup}+{self.measure}"

    def prepare(self) -> None:
        """Build what this job shares with its batch, in this process.

        The pool calls this in its parent just before forking the job's
        worker, which then inherits what it built (see
        :func:`~repro.sim.sampling.prepare_sample`).  :func:`run_job`
        builds the same for itself when nothing was prepared.
        """
        prepare_sample(self.config, by_name(self.workload_name), self.seed)


def run_job(job: SampleJob) -> Sample:
    """Execute one job in this process.  Also the worker entry point.

    Generational GC is paused for the duration of the sample: the
    simulator allocates millions of short-lived tuples and lists (fetch
    entries, completion-heap entries, interval records) whose liveness
    is acyclic (reference counting frees them promptly), so collector
    sweeps are pure overhead on the hot loop.
    """
    workload = by_name(job.workload_name)
    was_enabled = gc.isenabled()
    if was_enabled:
        gc.disable()
    try:
        return run_sample(
            job.config, workload, job.warmup, job.measure, job.seed, options=job.options
        )
    finally:
        if was_enabled:
            gc.enable()
