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
from typing import TYPE_CHECKING, Any

from repro.sim.config import SystemConfig
from repro.sim.options import SimOptions
from repro.sim.sampling import Sample, run_sample

if TYPE_CHECKING:  # pragma: no cover
    from repro.workloads.base import Workload

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


#: Resolved workload instances by lowercased name.  Workloads are
#: stateless (programs are a pure function of ``seed``), so handing every
#: job the same instance is result-neutral — and it makes the per-instance
#: program-generation memo (:mod:`repro.sim.sampling`) hit across the
#: jobs that share a workload, instead of regenerating identical programs
#: once per redundancy mode.
_RESOLVED: dict = {}


def resolve_workload(name: str) -> "Workload":
    """Find a workload by name across the Table 2 suite and the micros."""
    from repro.workloads import suite
    from repro.workloads.micro import micro_suite

    key = name.lower()
    workload = _RESOLVED.get(key)
    if workload is not None:
        return workload
    for workload in [*suite(), *micro_suite()]:
        _RESOLVED.setdefault(workload.name.lower(), workload)
    if key in _RESOLVED:
        return _RESOLVED[key]
    raise KeyError(f"unknown workload {name!r}")


def run_job(job: SampleJob) -> Sample:
    """Execute one job in this process.  Also the worker entry point.

    Generational GC is paused for the duration of the sample: the
    simulator allocates millions of short-lived tuples and lists (fetch
    entries, completion-heap entries, interval records) whose liveness
    is acyclic (reference counting frees them promptly), so collector
    sweeps are pure overhead on the hot loop.
    """
    workload = resolve_workload(job.workload_name)
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
