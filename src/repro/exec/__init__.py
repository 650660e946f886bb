"""Experiment execution engine: job descriptors, result cache, worker pool.

Every paper artifact is a sweep of independent ``(config, workload,
seed)`` simulations.  This package turns those points into first-class
:class:`~repro.exec.jobs.SampleJob` descriptors with stable content-hash
keys, caches completed :class:`~repro.sim.sampling.Sample` results on
disk (:mod:`repro.exec.cache`), and fans batches of jobs out across
worker processes (:mod:`repro.exec.pool`) with progress reporting and a
run manifest (:mod:`repro.exec.progress`).

The contract that makes all of this safe is determinism: a simulation is
a pure function of its job descriptor, so parallel execution and cache
replay are bit-identical to a serial run (verified in ``tests/exec``).
"""

from repro.exec.cache import NullCache, ResultCache, default_cache
from repro.exec.jobs import SCHEMA_VERSION, SampleJob, run_job
from repro.exec.pool import ExecutionError, ExecutionPool
from repro.exec.progress import Progress, RunManifest

__all__ = [
    "ExecutionError",
    "ExecutionPool",
    "NullCache",
    "Progress",
    "ResultCache",
    "RunManifest",
    "SCHEMA_VERSION",
    "SampleJob",
    "default_cache",
    "run_job",
]
