"""Sampling methodology: warmed measurements and matched-pair comparison.

The paper (Section 5, citing SimFlex [24]) launches many brief
measurements from checkpoints with warmed caches, runs 100K cycles of
pipeline warm-up and 50K cycles of measurement, and reports performance
changes with 95% confidence intervals using matched-pair comparison.

This module reproduces that methodology at configurable scale: each
*sample* builds a system, runs ``warmup`` cycles unmeasured, then
``measure`` cycles measured; matched pairs share the workload seed so the
base and test systems execute the same programs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.core.fingerprint import FingerprintAccumulator
from repro.isa.decode import decode_program
from repro.sim.cmp import CMPSystem
from repro.sim.config import Consistency, Mode, SystemConfig
from repro.sim.options import SimOptions

if TYPE_CHECKING:  # pragma: no cover
    from repro.workloads.base import Workload

#: The last generation built: programs and ITLB schedules for one
#: (workload, n_logical, seed), keyed by workload *identity* (Workload
#: defines no __eq__).  The contract on :meth:`Workload.programs` —
#: deterministic in ``seed`` — makes reuse result-neutral.  Programs are
#: immutable to the simulator (the per-``Program`` decode cache is
#: additive and deterministic) and ITLB schedules are pure functions of
#: the retired-instruction index, so sharing across systems cannot couple
#: their results.
#:
#: The memo hits only for jobs that share a generation and run one after
#: another in one process: a serial batch, or the pool's parent, which
#: builds each job's generation before forking its worker
#: (:func:`prepare_sample`).  A forked worker starts with nothing but the
#: parent's memo.  It holds one entry, dropped *before* the next is
#: built: after a fork the parent's heap high-water mark is the floor of
#: every later worker's resident set, so two generations alive at once
#: would raise the peak of every worker after them.  ``Runner.prefetch``
#: groups a batch by generation so that one entry is enough.
_generation_memo: dict = {}


def _generated(workload: "Workload", n_logical: int, seed: int):
    key = (workload, n_logical, seed)
    entry = _generation_memo.get(key)
    if entry is None:
        _generation_memo.clear()
        entry = (
            workload.programs(n_logical, seed),
            workload.itlb_schedules(n_logical, seed),
        )
        _generation_memo[key] = entry
    return entry


def prepare_sample(config: SystemConfig, workload: "Workload", seed: int) -> None:
    """Build in this process what a sample shares with its batch.

    That is the generation (:func:`_generated`), each program's decode
    tables for the config's consistency mode, and the fingerprint tables
    when the config has a checking gate.  A later sample or a process
    forked after this call finds them built; results never change.
    """
    programs, _schedules = _generated(workload, config.n_logical, seed)
    sc_mode = config.consistency is Consistency.SC
    for program in programs:
        decode_program(program, sc_mode)
    redundancy = config.redundancy
    if redundancy.mode is not Mode.NONREDUNDANT:
        # Construction builds (and keeps) the tables of this CRC width.
        FingerprintAccumulator(redundancy.fingerprint_bits, redundancy.two_stage_compression)


@dataclass(frozen=True)
class Sample:
    """Measurements from one warmed simulation window."""

    cycles: int
    user_instructions: int
    recoveries: int
    tlb_misses: int
    sync_requests: int
    serializing: int

    @property
    def ipc(self) -> float:
        return self.user_instructions / self.cycles if self.cycles else 0.0

    @property
    def incoherence_per_minstr(self) -> float:
        """Input-incoherence events per million retired user instructions."""
        if not self.user_instructions:
            return 0.0
        return 1e6 * self.recoveries / self.user_instructions

    @property
    def tlb_misses_per_minstr(self) -> float:
        if not self.user_instructions:
            return 0.0
        return 1e6 * self.tlb_misses / self.user_instructions


def run_sample(
    config: SystemConfig,
    workload: "Workload",
    warmup: int,
    measure: int,
    seed: int = 0,
    options: SimOptions | None = None,
) -> Sample:
    """Build a system for ``workload`` and measure one window."""
    sample, _system = run_sample_system(config, workload, warmup, measure, seed, options)
    return sample


def run_sample_system(
    config: SystemConfig,
    workload: "Workload",
    warmup: int,
    measure: int,
    seed: int = 0,
    options: SimOptions | None = None,
) -> tuple[Sample, CMPSystem]:
    """:func:`run_sample`, also returning the finished system.

    The system gives callers access to post-run diagnostics — notably
    armed telemetry (``system.obs``) for ``repro trace``.  The sample is
    bit-identical to :func:`run_sample`'s regardless of ``options``
    (kernel/execution/telemetry are all result-neutral by contract).
    """
    programs, schedules = _generated(workload, config.n_logical, seed)
    system = CMPSystem(config, programs, schedules, options=options)
    system.run(warmup)

    start_users = system.user_instructions()
    start_recoveries = system.recoveries()
    start_tlb = system.tlb_misses()
    start_sync = sum(p.sync_requests for p in system.pairs)
    start_ser = sum(c.serializing_retired for c in system.vocal_cores)

    system.run(measure)
    sample = Sample(
        cycles=measure,
        user_instructions=system.user_instructions() - start_users,
        recoveries=system.recoveries() - start_recoveries,
        tlb_misses=system.tlb_misses() - start_tlb,
        sync_requests=sum(p.sync_requests for p in system.pairs) - start_sync,
        serializing=sum(c.serializing_retired for c in system.vocal_cores) - start_ser,
    )
    return sample, system


@dataclass(frozen=True)
class MatchedPairResult:
    """Normalized performance with a confidence interval."""

    mean: float  # mean of per-seed IPC ratios (test / base)
    half_interval: float  # 95% CI half-width
    n: int

    def __str__(self) -> str:
        return f"{self.mean:.3f} ± {self.half_interval:.3f} (n={self.n})"


#: Two-sided 97.5% Student-t quantiles for small sample counts; the
#: normal value (1.96) serves beyond the table.
_T_975 = {1: 12.71, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571, 6: 2.447, 7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228}


def matched_pair(base: Sequence[Sample], test: Sequence[Sample]) -> MatchedPairResult:
    """95% CI on the mean IPC ratio across matched (same-seed) samples."""
    if len(base) != len(test) or not base:
        raise ValueError("matched-pair comparison needs equal, nonzero sample counts")
    ratios = []
    for b, t in zip(base, test):
        if b.ipc == 0:
            raise ValueError("base sample has zero IPC; widen the window")
        ratios.append(t.ipc / b.ipc)
    n = len(ratios)
    mean = sum(ratios) / n
    if n == 1:
        return MatchedPairResult(mean, float("nan"), 1)
    variance = sum((r - mean) ** 2 for r in ratios) / (n - 1)
    t_quantile = _T_975.get(n - 1, 1.96)
    half = t_quantile * math.sqrt(variance / n)
    return MatchedPairResult(mean, half, n)
