"""Performance benchmarking: the `repro bench` report.

Times every paper artifact's sample sweep at a chosen scale, reports
wall time and simulated cycles per second per phase, and runs a
naive-vs-event kernel comparison on memory-latency-dominated workloads
(where cycle skipping pays most).  The report is written as
``BENCH_<date>.json`` so the repository tracks its performance
trajectory PR over PR, and an old report can serve as a regression
baseline (see :func:`check_regression`).

Benchmark runs always bypass the persistent result cache — a timing of a
cache hit would say nothing about the simulator.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import asdict, dataclass, field
from datetime import date

from repro.sim.config import Mode

#: Bump when the JSON layout changes incompatibly.
BENCH_SCHEMA = 1

#: A committed baseline (see ``benchmarks/bench_baseline.json``) fails
#: the check when any phase's throughput drops below 1/REGRESSION_FACTOR
#: of its recorded value.  Loose on purpose: CI machines vary widely,
#: and the check should catch accidental algorithmic regressions
#: (an O(n) retire loop, a lost horizon), not scheduler noise.
REGRESSION_FACTOR = 3.0

#: Replay execution must stay within 5% of dual on every exec-comparison
#: scenario.  The mirror window is one-shot and its arm/exit costs are
#: O(1), so even where it barely engages (the memory-bound chase) replay
#: should time out at parity with dual, not below it.
REPLAY_SPEEDUP_FLOOR = 0.95

#: Telemetry's zero-cost-when-off contract has a hot side too: an
#: *armed* run may not slow the simulator by more than this factor
#: (min-of-repeats damps scheduler noise; see run_telemetry_comparison).
TELEMETRY_OVERHEAD_FACTOR = 1.10


@dataclass
class PhaseResult:
    """Wall-clock timing of one artifact's full sample sweep."""

    name: str
    wall_s: float
    cycles: int  # simulated system cycles across all samples
    samples: int
    cycles_per_s: float


@dataclass
class KernelComparison:
    """Naive vs. event kernel on one memory-bound workload."""

    name: str
    naive_wall_s: float
    event_wall_s: float
    speedup: float
    cycles: int
    identical: bool  # Stats snapshots bit-identical between kernels


@dataclass
class ExecComparison:
    """Dual vs. replay execution on one single-pair Reunion workload.

    The replay fast path — a mirror window from reset, then permanent
    dual fallback (see :mod:`repro.core.mirror`) — pays off most where
    redundant execution's cost is pure pipeline simulation, so the
    headline artifact is the compute-bound kernel, under every policy
    whose pairs mirror; the memory-bound chase bounds the overhead in
    the fast path's worst case (its window closes at the first load
    fetch, after which replay *is* dual).
    ``identical`` diffs the full Stats snapshots — the bit-identity
    contract, enforced on every bench run.
    """

    name: str
    dual_wall_s: float
    replay_wall_s: float
    speedup: float
    cycles: int
    identical: bool


@dataclass
class TelemetryComparison:
    """Telemetry off vs. armed on one Reunion workload.

    ``identical`` diffs the full Stats snapshots — the telemetry
    observe-never-mutate contract.  ``overhead`` is armed/off wall time
    (min over repeats on each side), gated by
    :data:`TELEMETRY_OVERHEAD_FACTOR` in :func:`check_regression`.
    """

    name: str
    off_wall_s: float
    armed_wall_s: float
    overhead: float
    cycles: int
    events: int  # total records emitted by the armed run
    identical: bool


@dataclass
class DirectoryScenario:
    """A many-pair Reunion run on the directory backend.

    Exercises the regime the snoopy bus cannot reach — ``pairs``
    vocal/mute pairs over banked home-node directories — end to end, and
    records the Reunion-visible outcomes (recoveries, synchronizing
    requests, phantom reads) alongside throughput so the report shows
    the backend actually carrying redundant execution, not just booting.
    """

    name: str
    pairs: int
    wall_s: float
    cycles: int
    cycles_per_s: float
    recoveries: int
    sync_requests: int
    phantom_reads: int
    #: Total mirrored cycles across all pairs (replay execution is the
    #: default even at MANYCORE scale: every pair arms a window from
    #: reset and exits it at its first load fetch).  Zero would mean the
    #: fast path silently stopped arming on many-pair systems.
    mirror_cycles: int = 0


@dataclass
class ProtectionScenario:
    """One Reunion pair under one protection policy, fixed cycle window.

    The per-pair policy API trades coverage for throughput; this
    scenario pins the throughput half of that trade on the compute-bound
    kernel, where the check stage is the bottleneck and the policies
    separate most.  ``sim_ipc`` (vocal user instructions retired per
    simulated cycle) is deterministic, so :func:`check_regression`
    asserts the structural ordering — ``unprotected`` >=
    ``interval-sampled`` >= ``full`` >= ``little-mute`` — exactly, and
    floors ``cycles_per_s`` against the baseline like any phase.
    """

    name: str  # the policy spec (ProtectionPolicy.describe())
    wall_s: float
    cycles: int  # simulated cycles in the timed window
    cycles_per_s: float
    retired: int  # vocal user instructions retired
    sim_ipc: float
    unchecked_intervals: int


@dataclass
class RetireGateMicro:
    """Throughput of the offer/retire path, gate and retire walk only.

    ``ops_per_s`` is the instruction throughput of a bare loop of
    ``offer_f`` calls and the core's ROB-head retire walk, floored
    against the baseline in :func:`check_regression` exactly like the
    phase sweeps.  Reports written before the walk replaced the gates'
    pop call also carry a ``scratch_reused`` flag; loading drops it.
    """

    name: str
    ops: int  # instructions offered and retired
    wall_s: float
    ops_per_s: float


@dataclass
class CacheBackendMicro:
    """Put/get throughput of the sharded-JSON result store.

    Measured on a throwaway store: ``puts_per_s`` covers the
    write-through path (serialize + atomic publish), ``gets_per_s`` the
    hit path (read + schema gate + decode).  Floored against the
    baseline like every other micro, so the store can't quietly become
    pathological (a fsync-per-record regression, say).  ``backend`` is
    always ``"json"``; it stays so older ``BENCH_*.json`` reports load.
    """

    backend: str
    ops: int  # records written (and then read back)
    put_wall_s: float
    get_wall_s: float
    puts_per_s: float
    gets_per_s: float


@dataclass
class BenchReport:
    """One `repro bench` run, serializable to ``BENCH_<date>.json``."""

    date: str
    scale: str
    jobs: int
    phases: list[PhaseResult] = field(default_factory=list)
    kernel_comparison: list[KernelComparison] = field(default_factory=list)
    exec_comparison: list[ExecComparison] = field(default_factory=list)
    telemetry_comparison: list[TelemetryComparison] = field(default_factory=list)
    directory_scenario: list[DirectoryScenario] = field(default_factory=list)
    protection_scenario: list[ProtectionScenario] = field(default_factory=list)
    micro: list[RetireGateMicro] = field(default_factory=list)
    cache_micro: list[CacheBackendMicro] = field(default_factory=list)
    #: Wall seconds by bench component (see repro.obs.profile.Profiler).
    profile: dict[str, float] = field(default_factory=dict)
    schema: int = BENCH_SCHEMA

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "BenchReport":
        return cls(
            date=payload["date"],
            scale=payload["scale"],
            jobs=payload.get("jobs", 1),
            phases=[PhaseResult(**p) for p in payload.get("phases", [])],
            kernel_comparison=[
                KernelComparison(**c) for c in payload.get("kernel_comparison", [])
            ],
            exec_comparison=[
                ExecComparison(**c) for c in payload.get("exec_comparison", [])
            ],
            telemetry_comparison=[
                TelemetryComparison(**c)
                for c in payload.get("telemetry_comparison", [])
            ],
            directory_scenario=[
                DirectoryScenario(**s)
                for s in payload.get("directory_scenario", [])
            ],
            protection_scenario=[
                ProtectionScenario(**s)
                for s in payload.get("protection_scenario", [])
            ],
            micro=[
                RetireGateMicro(
                    **{k: v for k, v in m.items() if k != "scratch_reused"}
                )
                for m in payload.get("micro", [])
            ],
            cache_micro=[
                CacheBackendMicro(**m) for m in payload.get("cache_micro", [])
            ],
            profile=payload.get("profile", {}),
            schema=payload.get("schema", BENCH_SCHEMA),
        )

    @classmethod
    def load(cls, path: str) -> "BenchReport":
        with open(path) as handle:
            return cls.from_dict(json.load(handle))

    def write(self, out_dir: str = ".") -> str:
        path = os.path.join(out_dir, f"BENCH_{self.date}.json")
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path

    def render(self) -> str:
        lines = [
            f"repro bench — scale={self.scale} jobs={self.jobs} ({self.date})",
            "",
            f"{'phase':<12}{'wall s':>10}{'cycles':>14}{'cycles/s':>14}",
            "-" * 50,
        ]
        for phase in self.phases:
            lines.append(
                f"{phase.name:<12}{phase.wall_s:>10.2f}{phase.cycles:>14,}"
                f"{phase.cycles_per_s:>14,.0f}"
            )
        if self.kernel_comparison:
            lines += [
                "",
                "kernel comparison (naive vs. event, per-sample wall time):",
                f"{'artifact':<28}{'naive s':>10}{'event s':>10}{'speedup':>9}{'identical':>11}",
                "-" * 68,
            ]
            for cmp_ in self.kernel_comparison:
                lines.append(
                    f"{cmp_.name:<28}{cmp_.naive_wall_s:>10.3f}{cmp_.event_wall_s:>10.3f}"
                    f"{cmp_.speedup:>8.2f}x{'yes' if cmp_.identical else 'NO':>11}"
                )
        if self.exec_comparison:
            lines += [
                "",
                "execution comparison (dual vs. replay, single Reunion pair):",
                f"{'artifact':<28}{'dual s':>10}{'replay s':>10}{'speedup':>9}{'identical':>11}",
                "-" * 68,
            ]
            for cmp_ in self.exec_comparison:
                lines.append(
                    f"{cmp_.name:<28}{cmp_.dual_wall_s:>10.3f}{cmp_.replay_wall_s:>10.3f}"
                    f"{cmp_.speedup:>8.2f}x{'yes' if cmp_.identical else 'NO':>11}"
                )
        if self.telemetry_comparison:
            lines += [
                "",
                "telemetry comparison (off vs. armed, min-of-repeats wall time):",
                f"{'artifact':<28}{'off s':>10}{'armed s':>10}{'overhead':>9}"
                f"{'events':>9}{'identical':>11}",
                "-" * 77,
            ]
            for cmp_ in self.telemetry_comparison:
                lines.append(
                    f"{cmp_.name:<28}{cmp_.off_wall_s:>10.3f}{cmp_.armed_wall_s:>10.3f}"
                    f"{cmp_.overhead:>8.2f}x{cmp_.events:>9,}"
                    f"{'yes' if cmp_.identical else 'NO':>11}"
                )
        if self.directory_scenario:
            lines += [
                "",
                "directory scenario (many-pair Reunion on home-node directories):",
                f"{'artifact':<28}{'pairs':>6}{'wall s':>10}{'cycles/s':>12}"
                f"{'recov':>7}{'sync':>7}{'phantom':>9}{'mirror':>8}",
                "-" * 79,
            ]
            for sc in self.directory_scenario:
                lines.append(
                    f"{sc.name:<28}{sc.pairs:>6}{sc.wall_s:>10.3f}"
                    f"{sc.cycles_per_s:>12,.0f}{sc.recoveries:>7}"
                    f"{sc.sync_requests:>7}{sc.phantom_reads:>9,}"
                    f"{sc.mirror_cycles:>8,}"
                )
        if self.protection_scenario:
            lines += [
                "",
                "protection scenario (policy throughput, compute-bound pair):",
                f"{'policy':<28}{'wall s':>10}{'cycles/s':>12}{'retired':>10}"
                f"{'sim IPC':>9}{'uncheck':>9}",
                "-" * 78,
            ]
            for sc in self.protection_scenario:
                lines.append(
                    f"{sc.name:<28}{sc.wall_s:>10.3f}{sc.cycles_per_s:>12,.0f}"
                    f"{sc.retired:>10,}{sc.sim_ipc:>9.3f}"
                    f"{sc.unchecked_intervals:>9,}"
                )
        if self.micro:
            lines += [
                "",
                "retire-gate micro (bare offer/retire loop, gate and walk only):",
                f"{'gate':<28}{'ops':>10}{'wall s':>10}{'ops/s':>14}",
                "-" * 62,
            ]
            for micro in self.micro:
                lines.append(
                    f"{micro.name:<28}{micro.ops:>10,}{micro.wall_s:>10.3f}"
                    f"{micro.ops_per_s:>14,.0f}"
                )
        if self.cache_micro:
            lines += [
                "",
                "cache micro (result-store put/get, throwaway root):",
                f"{'store':<28}{'ops':>10}{'put/s':>12}{'get/s':>12}",
                "-" * 62,
            ]
            for micro in self.cache_micro:
                lines.append(
                    f"{micro.backend:<28}{micro.ops:>10,}"
                    f"{micro.puts_per_s:>12,.0f}{micro.gets_per_s:>12,.0f}"
                )
        if self.profile:
            lines += ["", "profile (wall seconds by bench component):"]
            width = max(len(name) for name in self.profile)
            for name in sorted(self.profile):
                lines.append(f"  {name:<{width}}  {self.profile[name]:>9.3f}")
        return "\n".join(lines)


def _memory_bound_workloads():
    """Workloads dominated by main-memory latency: maximal skip headroom.

    The pointer chase's footprint is sized far past the default L1/L2 so
    the dependent-load chain misses all the way to memory; `em3d` is the
    paper suite's irregular-graph memory-latency workload.
    """
    from repro.workloads.micro import PointerChase
    from repro.workloads.scientific import Em3d

    return [
        ("mem-chase", PointerChase(nodes=16384)),
        ("em3d", Em3d()),
    ]


def run_kernel_comparison(scale, modes=(Mode.NONREDUNDANT, Mode.REUNION)) -> list[KernelComparison]:
    """Time identical simulations under both kernels; verify bit-identity.

    Builds each system outside the timed section (program generation and
    image install are kernel-independent fixed costs) and times only the
    ``run`` windows.  The returned comparisons double as a correctness
    check: ``identical`` diffs the full Stats snapshots.
    """
    return _compare_kernels_on(scale, _memory_bound_workloads(), modes)


def _compare_kernels_on(
    scale, workloads, modes=(Mode.NONREDUNDANT, Mode.REUNION)
) -> list[KernelComparison]:
    from repro.sim.cmp import CMPSystem
    from repro.sim.options import SimOptions

    comparisons: list[KernelComparison] = []
    seed = scale.seeds[0]
    cycles = scale.warmup + scale.measure
    for name, workload in workloads:
        for mode in modes:
            # One logical processor: a many-core system's cores
            # desynchronize, pulling the minimum horizon toward "now"
            # and measuring contention instead of memory latency.
            config = scale.config.replace(n_logical=1).with_redundancy(mode=mode)
            programs = workload.programs(config.n_logical, seed)
            schedules = workload.itlb_schedules(config.n_logical, seed)
            results = {}
            for kernel in ("naive", "event"):
                system = CMPSystem(
                    config, programs, schedules, options=SimOptions(kernel=kernel)
                )
                start = time.perf_counter()
                system.run(scale.warmup)
                system.run(scale.measure)
                wall = time.perf_counter() - start
                results[kernel] = (wall, dict(system.collect_stats().snapshot()))
            naive_wall, naive_stats = results["naive"]
            event_wall, event_stats = results["event"]
            comparisons.append(
                KernelComparison(
                    name=f"{name}/{mode.value}",
                    naive_wall_s=naive_wall,
                    event_wall_s=event_wall,
                    speedup=naive_wall / event_wall if event_wall else 0.0,
                    cycles=cycles,
                    identical=naive_stats == event_stats,
                )
            )
    return comparisons


def run_exec_comparison(
    scale, cycles: int = 120_000, compute_only: bool = False, repeats: int = 3
) -> list[ExecComparison]:
    """Time a single Reunion pair under dual and replay execution.

    The compute-bound kernel is the fast path's headline artifact (the
    mirror window covers essentially the whole run), under ``full`` (the
    ``reunion`` row) and under the partial policies whose pairs mirror
    too; the memory-bound chase bounds the fast path's overhead where it
    can barely engage.  Each row runs its policy under
    ``SimOptions(execution="dual")`` and ``execution="replay"``.  Stats
    snapshots are diffed to enforce the bit-identity contract.

    Wall times are the minimum over ``repeats`` fresh systems per side
    (the same scheduler-noise defence as the telemetry comparison): the
    memory-bound run finishes in ~0.1s, where a single timing pass can
    swing past the replay-vs-dual floor check_regression enforces.
    """
    from repro.sim.cmp import CMPSystem
    from repro.sim.config import parse_policy
    from repro.sim.options import SimOptions
    from repro.workloads.micro import ComputeKernel, PointerChase

    compute = ComputeKernel()
    rows = [
        ("compute-kernel", compute, "full"),
        ("compute-kernel", compute, "interval-sampled:0.5"),
        ("compute-kernel", compute, "dynamic"),
    ]
    if not compute_only:
        rows.append(("mem-chase", PointerChase(nodes=16384), "full"))

    comparisons: list[ExecComparison] = []
    seed = scale.seeds[0]
    base = scale.config.replace(n_logical=1).with_redundancy(mode=Mode.REUNION)
    for name, workload, spec in rows:
        programs = workload.programs(base.n_logical, seed)
        schedules = workload.itlb_schedules(base.n_logical, seed)
        config = base.with_protection(parse_policy(spec))
        results = {}
        for execution in ("dual", "replay"):
            options = SimOptions(kernel="event", execution=execution)
            wall = math.inf
            for _ in range(repeats):
                system = CMPSystem(config, programs, schedules, options=options)
                start = time.perf_counter()
                system.run(cycles)
                wall = min(wall, time.perf_counter() - start)
            results[execution] = (wall, dict(system.collect_stats().snapshot()))
        dual_wall, dual_stats = results["dual"]
        replay_wall, replay_stats = results["replay"]
        comparisons.append(
            ExecComparison(
                name=f"{name}/{'reunion' if spec == 'full' else spec}",
                dual_wall_s=dual_wall,
                replay_wall_s=replay_wall,
                speedup=dual_wall / replay_wall if replay_wall else 0.0,
                cycles=cycles,
                identical=dual_stats == replay_stats,
            )
        )
    return comparisons


def run_telemetry_comparison(
    scale, cycles: int = 60_000, repeats: int = 3
) -> list[TelemetryComparison]:
    """Time a Reunion pair with telemetry off and armed at ``events``.

    The armed run must be bit-identical (Stats diff) and nearly free:
    :func:`check_regression` fails a baseline check when overhead
    exceeds :data:`TELEMETRY_OVERHEAD_FACTOR`.  Wall times are the
    minimum over ``repeats`` fresh systems per side, which is the
    standard defence against scheduler noise on shared CI runners.
    The memory-bound chase exercises the chatty emitters (phantom
    reads, fingerprint compares after the mirror window exits); a
    16-instruction fingerprint interval keeps the event rate at the
    realistic design point rather than the interval=1 stress corner.
    """
    from repro.sim.cmp import CMPSystem
    from repro.sim.options import SimOptions
    from repro.workloads.micro import PointerChase

    workload = PointerChase(nodes=16384)
    seed = scale.seeds[0]
    config = (
        scale.config.replace(n_logical=1)
        .with_redundancy(mode=Mode.REUNION, fingerprint_interval=16)
    )
    programs = workload.programs(config.n_logical, seed)
    schedules = workload.itlb_schedules(config.n_logical, seed)

    results = {}
    for label, options in (
        ("off", SimOptions()),
        ("armed", SimOptions(trace="events")),
    ):
        best_wall = float("inf")
        stats = None
        emitted = 0
        for _ in range(repeats):
            system = CMPSystem(config, programs, schedules, options=options)
            start = time.perf_counter()
            system.run(cycles)
            wall = time.perf_counter() - start
            best_wall = min(best_wall, wall)
            stats = dict(system.collect_stats().snapshot())
            if system.obs is not None:
                emitted = system.obs.log.emitted
        results[label] = (best_wall, stats, emitted)

    off_wall, off_stats, _ = results["off"]
    armed_wall, armed_stats, events = results["armed"]
    return [
        TelemetryComparison(
            name="mem-chase/reunion",
            off_wall_s=off_wall,
            armed_wall_s=armed_wall,
            overhead=armed_wall / off_wall if off_wall else 0.0,
            cycles=cycles,
            events=events,
            identical=off_stats == armed_stats,
        )
    ]


def run_directory_scenario(
    scale, pairs_list=(4,), cycles: int = 20_000
) -> list[DirectoryScenario]:
    """Run memory-bound Reunion pairs on the directory backend, end to end.

    One :func:`~repro.sim.config.manycore_config` system per entry in
    ``pairs_list`` (4 pairs = 8 cores, 8 pairs = 16 cores), each pair
    chasing its own pointer graph so every mute miss exercises phantom
    requests and every divergence the recovery protocol, across the
    banked directories and the weighted arbiter at realistic
    (non-degenerate) interconnect numbers.
    """
    from repro.sim.cmp import CMPSystem
    from repro.sim.config import manycore_config
    from repro.sim.options import SimOptions
    from repro.workloads.micro import PointerChase

    workload = PointerChase(nodes=4096)
    seed = scale.seeds[0]
    scenarios: list[DirectoryScenario] = []
    for pairs in pairs_list:
        config = manycore_config(pairs)
        programs = workload.programs(config.n_logical, seed)
        schedules = workload.itlb_schedules(config.n_logical, seed)
        system = CMPSystem(config, programs, schedules, options=SimOptions(kernel="event"))
        start = time.perf_counter()
        system.run(cycles)
        wall = time.perf_counter() - start
        stats = dict(system.collect_stats().snapshot())
        phantoms = sum(
            value for key, value in stats.items() if key.startswith("dir.phantom_")
        )
        scenarios.append(
            DirectoryScenario(
                name=f"mem-chase/{pairs}-pair-dir",
                pairs=pairs,
                wall_s=wall,
                cycles=cycles,
                cycles_per_s=cycles / wall if wall else 0.0,
                recoveries=sum(pair.recoveries for pair in system.pairs),
                sync_requests=int(stats.get("dir.sync_requests", 0)),
                phantom_reads=phantoms,
                mirror_cycles=sum(pair.mirror_cycles for pair in system.pairs),
            )
        )
    return scenarios


#: Policies the bench scenario sweeps, fastest expected first.  The
#: structural sim-IPC ordering check_regression enforces follows from
#: what each mode pays per interval: nothing (unprotected), half the
#: exchanges (sampled), every exchange (full), every exchange plus a
#: narrowed checker (little-mute).
PROTECTION_BENCH_POLICIES = (
    "unprotected",
    "interval-sampled:0.5",
    "full",
    "little-mute:2",
)


def run_protection_scenario(
    scale, cycles: int = 12_000
) -> list[ProtectionScenario]:
    """Run one compute-bound Reunion pair per protection policy.

    Fixed simulated-cycle windows, so ``retired`` (and ``sim_ipc``) is
    a deterministic measure of each policy's throughput give-back;
    ``cycles_per_s`` times the host, floored against the baseline.
    """
    from repro.sim.cmp import CMPSystem
    from repro.sim.config import parse_policy
    from repro.sim.options import SimOptions
    from repro.workloads.micro import ComputeKernel

    workload = ComputeKernel()
    seed = scale.seeds[0]
    base = scale.config.replace(n_logical=1).with_redundancy(mode=Mode.REUNION)
    programs = workload.programs(base.n_logical, seed)
    schedules = workload.itlb_schedules(base.n_logical, seed)
    scenarios: list[ProtectionScenario] = []
    for spec in PROTECTION_BENCH_POLICIES:
        config = base.with_protection(parse_policy(spec))
        system = CMPSystem(
            config, programs, schedules, options=SimOptions(kernel="event")
        )
        start = time.perf_counter()
        system.run(cycles)
        wall = time.perf_counter() - start
        vocal = system.vocal_cores[0]
        scenarios.append(
            ProtectionScenario(
                name=spec,
                wall_s=wall,
                cycles=cycles,
                cycles_per_s=cycles / wall if wall else 0.0,
                retired=vocal.user_retired,
                sim_ipc=vocal.user_retired / cycles if cycles else 0.0,
                unchecked_intervals=vocal.gate.intervals_unchecked,
            )
        )
    return scenarios


def run_retire_gate_micro(
    cycles: int = 30_000, width: int = 4
) -> list[RetireGateMicro]:
    """Time the offer/retire path in isolation.

    Every retired instruction is offered to the gate once and retired by
    the core's ROB-head walk once, so their overhead is pure
    per-retired-instruction tax.  This micro drives the immediate gate
    (non-redundant retirement) and the strict check gate (fingerprint
    close + self-compare + comparison latency — the full check-stage data
    path without needing a partner core) over a real core's ring: each
    cycle appends up to ``width`` completed ALU instructions to the ROB,
    offers them, and walks the ROB head.  After the timed window it
    retires whatever is still in check, and raises if an offered
    instruction never retired.
    """
    from repro.core.strict import StrictCheckGate
    from repro.isa.decode import flags_of
    from repro.pipeline.gates import ImmediateGate
    from repro.sim.cmp import CMPSystem
    from repro.sim.config import DEFAULT_CONFIG, RedundancyConfig
    from repro.sim.options import SimOptions
    from repro.workloads.micro import ComputeKernel

    program = ComputeKernel().programs(1, seed=0)[0]
    core = CMPSystem(
        DEFAULT_CONFIG.replace(n_logical=1), [program], options=SimOptions()
    ).cores[0]
    # Steady-state ALU writers only: serializing/HALT entries would close
    # intervals early and measure interval churn instead of the walk.
    insts = [inst for inst in program.instructions if inst.is_alu]
    cap = core._f_cap
    for slot in range(cap):
        inst = insts[slot % len(insts)]
        core.f_inst[slot] = inst
        core.f_flags[slot] = flags_of(inst, core.sc_mode)
        core.f_res[slot] = (slot * 0x9E3779B97F4A7C15) & ((1 << 64) - 1)
    smask = core._f_smask
    rob = core.rob
    rob_append = rob.append
    f_seq = core.f_seq

    strict_config = RedundancyConfig(mode=Mode.STRICT, comparison_latency=10)
    gates = [
        ("immediate", ImmediateGate()),
        ("strict-check", StrictCheckGate(strict_config, cap)),
    ]
    results: list[RetireGateMicro] = []
    for name, gate in gates:
        core.gate = gate
        offer = gate.offer_f
        walk = core._flat_walk
        before = core.total_retired
        seq = 0
        start = time.perf_counter()
        for now in range(cycles):
            room = cap - len(rob)
            offers = width if width < room else room
            for _ in range(offers):
                slot = seq & smask
                f_seq[slot] = seq
                rob_append(slot)
                offer(core, slot, now)
                seq += 1
            core._n_check += offers
            walk(now, width)
        wall = time.perf_counter() - start
        # Untimed: close the open interval and retire everything left.
        gate.close_open(cycles)
        core.drain_cleared(cycles + strict_config.comparison_latency)
        if rob or core.total_retired - before != seq:
            raise RuntimeError(
                f"{name}: {seq} instructions offered, "
                f"{core.total_retired - before} retired"
            )
        results.append(
            RetireGateMicro(
                name=name,
                ops=seq,
                wall_s=wall,
                ops_per_s=seq / wall if wall else 0.0,
            )
        )
    return results


def run_cache_micro(records: int = 400) -> list[CacheBackendMicro]:
    """Time put/get throughput of the result store.

    Writes ``records`` distinct sample records on a throwaway root, then
    reads them all back as hits: each put pays a file create + atomic
    rename, each get a file open + parse.
    """
    import tempfile

    from repro.exec.cache import ResultCache
    from repro.exec.jobs import SampleJob
    from repro.sim.config import DEFAULT_CONFIG
    from repro.sim.sampling import Sample

    jobs = [
        SampleJob(
            config=DEFAULT_CONFIG,
            workload_name="bench-cache",
            seed=seed,
            warmup=100,
            measure=200,
        )
        for seed in range(records)
    ]
    sample = Sample(
        cycles=200,
        user_instructions=640,
        recoveries=0,
        tlb_misses=12,
        sync_requests=3,
        serializing=1,
    )
    with tempfile.TemporaryDirectory(prefix="bench-cache-") as root:
        cache = ResultCache(root)
        start = time.perf_counter()
        for job in jobs:
            cache.put(job, sample)
        put_wall = time.perf_counter() - start
        start = time.perf_counter()
        for job in jobs:
            value = cache.get(job)
            assert value == sample  # a miss here would be a broken store
        get_wall = time.perf_counter() - start
    return [
        CacheBackendMicro(
            backend="json",
            ops=records,
            put_wall_s=put_wall,
            get_wall_s=get_wall,
            puts_per_s=records / put_wall if put_wall else 0.0,
            gets_per_s=records / get_wall if get_wall else 0.0,
        )
    ]


def run_bench(
    scale_name: str = "quick",
    jobs: int = 1,
    only: list[str] | None = None,
    compare_kernels: bool = True,
    compare_exec: bool = True,
    compare_telemetry: bool = True,
    directory_scenario: bool = True,
    protection_scenario: bool = True,
    quick: bool = False,
) -> BenchReport:
    """Time every artifact's sample sweep; return the filled report.

    ``quick`` is the smoke-run mode for CI and local sanity checks: one
    phase at sharply reduced warmup/measure windows, the kernel
    comparison on the single cheapest memory-bound artifact, and the
    execution comparison on the compute-bound kernel only — finishing in
    seconds instead of minutes while still exercising every comparison's
    bit-identity check (and the baseline throughput floor for the one
    phase it shares with a full report).
    """
    import dataclasses

    from repro.harness import (
        Runner,
        plan_fig5,
        plan_fig6,
        plan_fig7a,
        plan_fig7b,
        plan_sc_comparison,
        plan_table3,
        scale_by_name,
    )

    scale = scale_by_name(scale_name)
    if quick:
        scale = dataclasses.replace(scale, warmup=300, measure=800)
    plans = {
        "fig5": lambda: plan_fig5(scale),
        "fig6a": lambda: plan_fig6(Mode.STRICT, scale),
        "fig6b": lambda: plan_fig6(Mode.REUNION, scale),
        "table3": lambda: plan_table3(scale),
        "fig7a": lambda: plan_fig7a(scale),
        "fig7b": lambda: plan_fig7b(scale),
        "sc": lambda: plan_sc_comparison(scale),
    }
    selected = only or (["fig5"] if quick else list(plans))
    unknown = [name for name in selected if name not in plans]
    if unknown:
        raise ValueError(f"unknown bench phases {unknown}; pick from {sorted(plans)}")

    from repro.obs.profile import Profiler

    profiler = Profiler()
    report = BenchReport(
        date=date.today().isoformat(), scale=scale.name, jobs=jobs
    )
    cycles_per_sample = scale.warmup + scale.measure
    for name in selected:
        requests = plans[name]()
        samples = len(requests) * len(scale.seeds)
        # A fresh uncached runner per phase: time the simulator, not the
        # cache, and don't let phases share the baseline samples.
        runner = Runner(scale, cache=None)
        start = time.perf_counter()
        with profiler.section(f"sweep.{name}"):
            runner.prefetch(requests, jobs=jobs)
        wall = time.perf_counter() - start
        cycles = samples * cycles_per_sample
        report.phases.append(
            PhaseResult(
                name=name,
                wall_s=wall,
                cycles=cycles,
                samples=samples,
                cycles_per_s=cycles / wall if wall else 0.0,
            )
        )
    if compare_kernels:
        with profiler.section("compare.kernels"):
            if quick:
                from repro.workloads.micro import PointerChase

                report.kernel_comparison = _compare_kernels_on(
                    scale, [("mem-chase", PointerChase(nodes=16384))]
                )
            else:
                report.kernel_comparison = run_kernel_comparison(scale)
    if compare_exec:
        with profiler.section("compare.exec"):
            report.exec_comparison = run_exec_comparison(
                scale,
                cycles=30_000 if quick else 120_000,
                compute_only=quick,
            )
    if compare_telemetry:
        with profiler.section("compare.telemetry"):
            report.telemetry_comparison = run_telemetry_comparison(
                scale,
                cycles=20_000 if quick else 60_000,
            )
    if directory_scenario:
        with profiler.section("directory.scenario"):
            report.directory_scenario = run_directory_scenario(
                scale,
                pairs_list=(4,) if quick else (4, 8),
                cycles=6_000 if quick else 20_000,
            )
    if protection_scenario:
        with profiler.section("protection.scenario"):
            report.protection_scenario = run_protection_scenario(
                scale, cycles=4_000 if quick else 12_000
            )
    with profiler.section("micro.retire_gate"):
        report.micro = run_retire_gate_micro(
            cycles=6_000 if quick else 30_000
        )
    with profiler.section("micro.cache"):
        report.cache_micro = run_cache_micro(
            records=100 if quick else 400
        )
    report.profile = profiler.snapshot()
    return report


def check_regression(
    current: BenchReport,
    baseline: BenchReport,
    factor: float = REGRESSION_FACTOR,
) -> list[str]:
    """Compare phase throughput against a baseline report.

    Returns a list of human-readable problems (empty = pass).  Phases
    present in only one report are ignored — the baseline is a floor for
    what both runs measured, not a schema lock.  A kernel comparison
    whose outputs were not bit-identical is always a failure.
    """
    problems: list[str] = []
    baseline_phases = {phase.name: phase for phase in baseline.phases}
    for phase in current.phases:
        base = baseline_phases.get(phase.name)
        if base is None or base.cycles_per_s <= 0:
            continue
        floor = base.cycles_per_s / factor
        if phase.cycles_per_s < floor:
            problems.append(
                f"{phase.name}: {phase.cycles_per_s:,.0f} cycles/s is >"
                f"{factor:g}x below baseline {base.cycles_per_s:,.0f}"
            )
    for cmp_ in current.kernel_comparison:
        if not cmp_.identical:
            problems.append(
                f"{cmp_.name}: naive and event kernels produced different Stats"
            )
    for cmp_ in current.exec_comparison:
        if not cmp_.identical:
            problems.append(
                f"{cmp_.name}: dual and replay execution produced different Stats"
            )
        if cmp_.speedup < REPLAY_SPEEDUP_FLOOR:
            problems.append(
                f"{cmp_.name}: replay runs at {cmp_.speedup:.2f}x dual "
                f"(floor {REPLAY_SPEEDUP_FLOOR:g}x)"
            )
    for cmp_ in current.telemetry_comparison:
        if not cmp_.identical:
            problems.append(
                f"{cmp_.name}: armed telemetry changed the Stats snapshot"
            )
        if cmp_.overhead > TELEMETRY_OVERHEAD_FACTOR:
            problems.append(
                f"{cmp_.name}: armed telemetry costs {cmp_.overhead:.2f}x "
                f"(budget {TELEMETRY_OVERHEAD_FACTOR:g}x)"
            )
    protection = {sc.name: sc for sc in current.protection_scenario}
    for weaker, stronger in (
        ("unprotected", "interval-sampled:0.5"),
        ("interval-sampled:0.5", "full"),
        ("full", "little-mute:2"),
    ):
        weak, strong = protection.get(weaker), protection.get(stronger)
        if weak is None or strong is None:
            continue
        # Deterministic simulated IPC: each strengthening of the policy
        # may only cost throughput, never gain it.
        if weak.sim_ipc < strong.sim_ipc:
            problems.append(
                f"protection: {weaker} sim IPC {weak.sim_ipc:.3f} fell below "
                f"{stronger} {strong.sim_ipc:.3f} (ordering inverted)"
            )
    baseline_protection = {sc.name: sc for sc in baseline.protection_scenario}
    for sc in current.protection_scenario:
        base = baseline_protection.get(sc.name)
        if base is None or base.cycles_per_s <= 0:
            continue
        if sc.cycles_per_s < base.cycles_per_s / factor:
            problems.append(
                f"protection/{sc.name}: {sc.cycles_per_s:,.0f} cycles/s is >"
                f"{factor:g}x below baseline {base.cycles_per_s:,.0f}"
            )
    baseline_micro = {micro.name: micro for micro in baseline.micro}
    for micro in current.micro:
        base = baseline_micro.get(micro.name)
        if base is None or base.ops_per_s <= 0:
            continue
        if micro.ops_per_s < base.ops_per_s / factor:
            problems.append(
                f"{micro.name}: retire-gate micro at {micro.ops_per_s:,.0f}"
                f" ops/s is >{factor:g}x below baseline "
                f"{base.ops_per_s:,.0f}"
            )
    baseline_cache = {micro.backend: micro for micro in baseline.cache_micro}
    for micro in current.cache_micro:
        base = baseline_cache.get(micro.backend)
        if base is None:
            continue
        for side, value, floor_src in (
            ("put", micro.puts_per_s, base.puts_per_s),
            ("get", micro.gets_per_s, base.gets_per_s),
        ):
            if floor_src <= 0:
                continue
            if value < floor_src / factor:
                problems.append(
                    f"cache/{micro.backend}: {side} at {value:,.0f} ops/s is >"
                    f"{factor:g}x below baseline {floor_src:,.0f}"
                )
    return problems


def compare_reports(old: BenchReport, new: BenchReport) -> str:
    """Render a trajectory table diffing two bench reports phase by phase.

    ``repro bench --compare OLD.json NEW.json`` — the bench history lives
    in committed ``BENCH_<date>.json`` files, and this turns two of them
    into an explicit delta instead of an eyeball diff: per-phase cycles/s
    ratio, kernel/exec speedup drift, telemetry-overhead drift, and the
    retire-gate micro.  Ratios are ``new / old`` — above 1.0 is faster.
    Sections or rows present in only one report are skipped.
    """
    lines = [
        f"bench trajectory: {old.date} (scale={old.scale}, jobs={old.jobs})"
        f" -> {new.date} (scale={new.scale}, jobs={new.jobs})",
    ]
    if old.scale != new.scale or old.jobs != new.jobs:
        lines.append(
            "WARNING: reports were taken at different scale/jobs settings;"
            " ratios are not apples to apples"
        )
    old_phases = {phase.name: phase for phase in old.phases}
    rows = [
        (phase, old_phases[phase.name])
        for phase in new.phases
        if phase.name in old_phases
    ]
    if rows:
        lines += [
            "",
            f"{'phase':<12}{'old c/s':>12}{'new c/s':>12}{'ratio':>9}"
            f"{'old wall':>10}{'new wall':>10}",
            "-" * 65,
        ]
        for phase, base in rows:
            ratio = (
                phase.cycles_per_s / base.cycles_per_s
                if base.cycles_per_s
                else 0.0
            )
            lines.append(
                f"{phase.name:<12}{base.cycles_per_s:>12,.0f}"
                f"{phase.cycles_per_s:>12,.0f}{ratio:>8.2f}x"
                f"{base.wall_s:>10.2f}{phase.wall_s:>10.2f}"
            )
    for title, old_rows, new_rows, field_name in (
        ("kernel speedup drift (event vs. naive)",
         old.kernel_comparison, new.kernel_comparison, "speedup"),
        ("execution speedup drift (replay vs. dual)",
         old.exec_comparison, new.exec_comparison, "speedup"),
        ("telemetry overhead drift (armed vs. off)",
         old.telemetry_comparison, new.telemetry_comparison, "overhead"),
    ):
        old_by_name = {c.name: c for c in old_rows}
        matched = [
            (c, old_by_name[c.name]) for c in new_rows if c.name in old_by_name
        ]
        if not matched:
            continue
        lines += [
            "",
            f"{title}:",
            f"{'artifact':<28}{'old':>9}{'new':>9}{'drift':>9}",
            "-" * 55,
        ]
        for current_cmp, old_cmp in matched:
            old_value = getattr(old_cmp, field_name)
            new_value = getattr(current_cmp, field_name)
            drift = new_value / old_value if old_value else 0.0
            lines.append(
                f"{current_cmp.name:<28}{old_value:>8.2f}x{new_value:>8.2f}x"
                f"{drift:>8.2f}x"
            )
    old_micro = {m.name: m for m in old.micro}
    matched_micro = [
        (m, old_micro[m.name]) for m in new.micro if m.name in old_micro
    ]
    if matched_micro:
        lines += [
            "",
            "retire-gate micro drift:",
            f"{'gate':<28}{'old ops/s':>13}{'new ops/s':>13}{'ratio':>9}",
            "-" * 63,
        ]
        for current_micro, base_micro in matched_micro:
            ratio = (
                current_micro.ops_per_s / base_micro.ops_per_s
                if base_micro.ops_per_s
                else 0.0
            )
            lines.append(
                f"{current_micro.name:<28}{base_micro.ops_per_s:>13,.0f}"
                f"{current_micro.ops_per_s:>13,.0f}{ratio:>8.2f}x"
            )
    return "\n".join(lines)
