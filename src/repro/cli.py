"""Command-line interface: run workloads, assemble programs, reproduce figures.

Installed as the ``repro`` console script::

    repro list                          # the workload suite
    repro run "DB2 OLTP" --mode reunion --latency 10
    repro asm program.s --mode reunion  # assemble, run to halt, dump state
    repro reproduce --only fig5 table3  # regenerate paper artifacts
    repro trace mem-chase --level events  # telemetry-armed replay of a sample
"""

from __future__ import annotations

import argparse
import sys

from repro.isa import assemble
from repro.sim.cmp import CMPSystem
from repro.sim.config import (
    CRC_POLYNOMIALS,
    DEFAULT_CONFIG,
    Consistency,
    Mode,
    PhantomStrength,
    TLBMode,
    apply_env_coherence,
    apply_env_protection,
)
from repro.sim.options import TRACE_LEVELS, SimOptions
from repro.sim.sampling import run_sample
from repro.workloads import by_name, suite
from repro.workloads.micro import micro_suite


def _config_from_args(args, n_logical: int | None = None) -> "SystemConfig":
    config = DEFAULT_CONFIG.replace(
        n_logical=n_logical if n_logical is not None else args.cpus,
        consistency=Consistency(args.consistency),
    ).with_redundancy(
        mode=Mode(args.mode),
        comparison_latency=args.latency,
        phantom=PhantomStrength(args.phantom),
        fingerprint_interval=args.interval,
    )
    if args.software_tlb:
        config = config.with_tlb(mode=TLBMode.SOFTWARE)
    if getattr(args, "coherence", None):
        # Same transform the REPRO_COHERENCE env var applies at import.
        config = apply_env_coherence(config, {"REPRO_COHERENCE": args.coherence})
    if getattr(args, "protection", None):
        config = apply_env_protection(config, {"REPRO_PROTECTION": args.protection})
    else:
        # REPRO_PROTECTION cannot act at import the way REPRO_COHERENCE
        # does (DEFAULT_CONFIG is not yet REUNION there), so the CLI
        # applies it after with_redundancy; no-op when unset.
        config = apply_env_protection(config)
    return config


def _add_system_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mode", choices=[m.value for m in Mode], default="reunion")
    parser.add_argument("--latency", type=int, default=10, help="comparison latency")
    parser.add_argument(
        "--phantom", choices=[p.value for p in PhantomStrength], default="global"
    )
    parser.add_argument("--interval", type=int, default=1, help="fingerprint interval")
    parser.add_argument(
        "--consistency", choices=[c.value for c in Consistency], default="tso"
    )
    parser.add_argument("--software-tlb", action="store_true")
    parser.add_argument("--cpus", type=int, default=4, help="logical processors")
    parser.add_argument(
        "--coherence",
        choices=["shared", "snoopy", "directory"],
        default=None,
        help="memory backend (default: REPRO_COHERENCE or the config's own)",
    )
    parser.add_argument(
        "--protection",
        default=None,
        metavar="POLICY",
        help="uniform per-pair protection policy, e.g. full, little-mute:2, "
        "interval-sampled:0.5, dynamic:8,2,16, unprotected "
        "(default: REPRO_PROTECTION or full; reunion mode only)",
    )


def _add_options_args(parser: argparse.ArgumentParser) -> None:
    """Simulation-strategy flags; unset values fall through to REPRO_* env."""
    parser.add_argument(
        "--kernel",
        choices=["event", "naive"],
        default=None,
        help="simulation kernel (default: REPRO_KERNEL or event)",
    )
    parser.add_argument(
        "--execution",
        choices=["replay", "dual"],
        default=None,
        help="mute-core execution strategy (default: REPRO_EXEC or replay)",
    )


def _options_from_args(args, **overrides) -> SimOptions:
    return SimOptions.from_env(
        kernel=getattr(args, "kernel", None),
        execution=getattr(args, "execution", None),
        **overrides,
    )


def cmd_list(_args) -> int:
    print(f"{'workload':<16}{'class':<12}")
    print("-" * 28)
    for workload in suite():
        print(f"{workload.name:<16}{workload.category:<12}")
    for workload in micro_suite():
        print(f"{workload.name:<16}{workload.category:<12}")
    return 0


def cmd_run(args) -> int:
    all_workloads = {w.name.lower(): w for w in [*suite(), *micro_suite()]}
    workload = all_workloads.get(args.workload.lower())
    if workload is None:
        try:
            workload = by_name(args.workload)
        except KeyError:
            print(f"unknown workload {args.workload!r}; try `repro list`", file=sys.stderr)
            return 2
    try:
        config = _config_from_args(args)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    options = _options_from_args(args)
    sample = run_sample(
        config, workload, args.warmup, args.measure, args.seed, options=options
    )
    print(f"workload            : {workload.name} ({workload.category})")
    print(f"mode                : {args.mode} @ {args.latency}-cycle comparison")
    print(f"cycles measured     : {sample.cycles}")
    print(f"user instructions   : {sample.user_instructions}")
    print(f"aggregate IPC       : {sample.ipc:.3f}")
    print(f"TLB misses / Minstr : {sample.tlb_misses_per_minstr:,.0f}")
    print(f"serializing instrs  : {sample.serializing}")
    if args.mode == "reunion":
        print(f"incoherence / Minstr: {sample.incoherence_per_minstr:,.1f}")
        print(f"sync requests       : {sample.sync_requests}")
    return 0


def cmd_asm(args) -> int:
    try:
        with open(args.file) as handle:
            program = assemble(handle.read(), name=args.file)
        # Pin the pair count before env protection applies, so a uniform
        # REPRO_PROTECTION policy tuple is sized for one pair, not --cpus.
        config = _config_from_args(args, n_logical=1)
    except (OSError, ValueError) as exc:  # AssemblerError is a ValueError
        print(exc, file=sys.stderr)
        return 2
    options = _options_from_args(args, max_cycles=args.max_cycles)
    system = CMPSystem(config, [program], options=options)
    tracer = None
    if args.trace:
        from repro.pipeline.trace import PipelineTracer

        tracer = PipelineTracer()
        system.vocal_cores[0].tracer = tracer
    cycles = system.run_until_idle()
    core = system.vocal_cores[0]
    print(f"halted after {cycles} cycles; {core.user_retired} instructions, "
          f"IPC {core.user_retired / cycles:.3f}")
    nonzero = {f"r{i}": core.arf.read(i) for i in range(32) if core.arf.read(i)}
    for name, value in nonzero.items():
        print(f"  {name:<4} = {value:#x} ({value})")
    if system.pairs:
        pair = system.pairs[0]
        print(f"  recoveries={pair.recoveries} sync_requests={pair.sync_requests}")
    if tracer is not None:
        print()
        print(tracer.render())
        print(f"mean dispatch-to-retire: {tracer.mean_lifetime():.1f} cycles")
    return 0


def cmd_reproduce(args) -> int:
    from repro.exec.cache import default_cache
    from repro.exec.pool import ExecutionError
    from repro.harness import (
        Runner,
        current_scale,
        plan_fig5,
        plan_fig6,
        plan_fig7a,
        plan_fig7b,
        plan_sc_comparison,
        plan_table3,
        run_fig5,
        run_fig6,
        run_fig7a,
        run_fig7b,
        run_sc_comparison,
        run_table3,
        scale_by_name,
    )

    scale = scale_by_name(args.scale) if args.scale else current_scale()
    cache = None if args.no_cache else default_cache()
    runner = Runner(scale, cache=cache, options=_options_from_args(args))
    experiments = {
        "fig5": (lambda: plan_fig5(scale), lambda: run_fig5(runner=runner)),
        "fig6a": (
            lambda: plan_fig6(Mode.STRICT, scale),
            lambda: run_fig6(Mode.STRICT, runner=runner),
        ),
        "fig6b": (
            lambda: plan_fig6(Mode.REUNION, scale),
            lambda: run_fig6(Mode.REUNION, runner=runner),
        ),
        "table3": (lambda: plan_table3(scale), lambda: run_table3(runner=runner)),
        "fig7a": (lambda: plan_fig7a(scale), lambda: run_fig7a(runner=runner)),
        "fig7b": (lambda: plan_fig7b(scale), lambda: run_fig7b(runner=runner)),
        "sc": (
            lambda: plan_sc_comparison(scale),
            lambda: run_sc_comparison(runner=runner),
        ),
    }
    selected = args.only or list(experiments)
    for name in selected:
        if name not in experiments:
            print(f"unknown experiment {name!r}", file=sys.stderr)
            return 2

    # Enumerate the full artifact set up front and fan it out across the
    # pool; the drivers then render from warm memoized samples.
    requests = []
    for name in selected:
        requests.extend(experiments[name][0]())
    try:
        manifest = runner.prefetch(
            requests, jobs=args.jobs, show_progress=sys.stderr.isatty()
        )
    except ExecutionError as exc:
        print(exc, file=sys.stderr)
        print(exc.manifest.render(), file=sys.stderr)
        return 1

    for name in selected:
        print(experiments[name][1]().render())
        print()
    print(manifest.render(), file=sys.stderr)
    return 0


def cmd_trace(args) -> int:
    """Replay one sample with telemetry armed; write JSONL + Chrome traces.

    The sample itself is the cache's business: if the equivalent
    telemetry-off job is already cached, the armed re-run must reproduce
    it bit-identically (the telemetry contract) — a mismatch is reported
    as an error.  An uncached run populates the cache as a side effect.
    """
    from repro.exec.cache import default_cache
    from repro.exec.jobs import SampleJob, resolve_workload
    from repro.obs.export import summarize, write_chrome_trace, write_jsonl
    from repro.sim.sampling import run_sample_system

    try:
        workload = resolve_workload(args.workload)
    except KeyError:
        print(f"unknown workload {args.workload!r}; try `repro list`", file=sys.stderr)
        return 2
    try:
        config = _config_from_args(args)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    options = _options_from_args(args, trace=args.level, trace_capacity=args.capacity)
    job = SampleJob(
        config=config,
        workload_name=workload.name,
        seed=args.seed,
        warmup=args.warmup,
        measure=args.measure,
        options=options,
    )
    cache = None if args.no_cache else default_cache()
    cached = cache.get(job) if cache is not None else None

    sample, system = run_sample_system(
        config, workload, args.warmup, args.measure, args.seed, options
    )
    telemetry = system.obs
    if telemetry is None:  # pragma: no cover - level choices exclude "off"
        print("telemetry did not arm (level 'off'?)", file=sys.stderr)
        return 2

    if cached is not None and cached != sample:
        print(
            "ERROR: telemetry-armed replay diverged from the cached sample "
            f"for job {job.key[:12]} — the telemetry bit-identity contract "
            "is broken",
            file=sys.stderr,
        )
        return 1
    if cache is not None and cached is None:
        cache.put(job, sample)

    stem = args.out or f"TRACE_{workload.name.replace(' ', '_')}"
    jsonl_path = f"{stem}.jsonl"
    chrome_path = f"{stem}.trace.json"
    with open(jsonl_path, "w") as handle:
        jsonl_lines = write_jsonl(telemetry, handle)
    with open(chrome_path, "w") as handle:
        chrome_events = write_chrome_trace(
            telemetry, handle, process_name=f"reunion-sim {workload.name}"
        )

    source = "cache-verified" if cached is not None else "fresh run"
    print(f"sample              : {job.describe()} ({source})")
    print(f"aggregate IPC       : {sample.ipc:.3f}")
    print(summarize(telemetry))
    print(f"wrote {jsonl_path} ({jsonl_lines} lines)")
    print(f"wrote {chrome_path} ({chrome_events} trace events)")
    return 0


def cmd_campaign(args) -> int:
    """Run a statistical fault-injection campaign (see repro.campaign).

    The coverage report (text to stdout, JSON via --report) is a pure
    function of the campaign inputs — a ``--resume`` re-run of a
    completed campaign serves every outcome from the cache and emits
    byte-identical reports.  Execution diagnostics (cache hits, workers,
    wall time) go to stderr.
    """
    from repro.campaign import plan_campaign, run_campaign
    from repro.campaign.plan import campaign_config
    from repro.campaign.report import render_report, report_payload, write_report
    from repro.exec.jobs import resolve_workload
    from repro.exec.pool import ExecutionError
    from repro.exec.progress import Progress
    from repro.sim.config import parse_policy

    try:
        workload = resolve_workload(args.workload)
    except KeyError:
        print(f"unknown workload {args.workload!r}; try `repro list`", file=sys.stderr)
        return 2
    try:
        policy = parse_policy(args.policy) if args.policy else None
        config = campaign_config(
            fingerprint_bits=args.bits,
            fingerprint_interval=args.interval,
            comparison_latency=args.latency,
            coherence=args.coherence,
            n_logical=args.pairs,
            policy=policy,
        )
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    progress = None
    if sys.stderr.isatty():  # pragma: no cover - interactive nicety
        total = len(plan_campaign(args.workload, args.injections, seed=args.seed, config=config))
        progress = Progress(total=total, stream=sys.stderr)
    try:
        result = run_campaign(
            workload.name,
            args.injections,
            seed=args.seed,
            config=config,
            commit_target=args.commits,
            max_cycles=args.max_cycles,
            workers=args.jobs,
            resume=args.resume,
            progress=progress,
            allow_partial=args.allow_partial,
        )
    except ValueError as exc:
        # Partial-policy configs are refused with directions (the plain
        # campaign report would misstate their coverage); surface the
        # message instead of a traceback.
        print(exc, file=sys.stderr)
        return 2
    except ExecutionError as exc:
        print(exc, file=sys.stderr)
        print(exc.manifest.render(), file=sys.stderr)
        return 1
    print(render_report(workload.name, args.bits, result.stats, result.crosscheck))
    if args.report:
        payload = report_payload(
            workload.name,
            args.bits,
            args.seed,
            result.stats,
            result.crosscheck,
            result.outcomes,
        )
        write_report(args.report, payload)
        print(f"wrote {args.report}", file=sys.stderr)
    print(result.manifest.render(), file=sys.stderr)
    return 0


def cmd_frontier(args) -> int:
    """Sweep protection policies for the coverage-vs-throughput frontier.

    Each (policy, workload) point pairs an IPC sample at the chosen
    scale with a fault-injection campaign under the same policy (see
    :mod:`repro.harness.frontier`).  Both sides ride their persistent
    caches, so re-runs and ``--resume`` sweeps are cheap.
    """
    from repro.exec.cache import default_cache
    from repro.exec.pool import ExecutionError
    from repro.harness import Runner, current_scale, scale_by_name
    from repro.harness.frontier import (
        DEFAULT_POLICIES,
        DEFAULT_WORKLOADS,
        run_frontier,
    )
    from repro.sim.config import parse_policy

    policies = args.policies or list(DEFAULT_POLICIES)
    try:
        for spec in policies:
            parse_policy(spec)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    scale = scale_by_name(args.scale) if args.scale else current_scale()
    cache = None if args.no_cache else default_cache()
    runner = Runner(scale, cache=cache, options=_options_from_args(args))
    try:
        result = run_frontier(
            scale=scale,
            policies=policies,
            workload_names=args.workloads or list(DEFAULT_WORKLOADS),
            injections=args.injections,
            seed=args.seed,
            jobs=args.jobs,
            runner=runner,
            resume=args.resume,
            progress_stream=sys.stderr if sys.stderr.isatty() else None,
        )
    except ExecutionError as exc:
        print(exc, file=sys.stderr)
        print(exc.manifest.render(), file=sys.stderr)
        return 1
    print(result.render())
    problems = result.check_ordering()
    for problem in problems:
        print(f"ORDERING VIOLATION: {problem}", file=sys.stderr)
    if args.report:
        result.write(args.report)
        print(f"wrote {args.report}", file=sys.stderr)
    return 1 if problems else 0


def cmd_cache(args) -> int:
    """Cache maintenance: stats, age-based gc, verify/quarantine."""
    from repro.exec.cache import (
        cache_gc,
        cache_stats,
        cache_verify,
        maintenance_stores,
    )

    stores = maintenance_stores(root=args.root)
    if args.store != "all":
        stores = [(label, cache) for label, cache in stores if label == args.store]

    if args.cache_command == "stats":
        for label, cache in stores:
            print(cache_stats(cache, label).render())
        return 0
    if args.cache_command == "gc":
        try:
            older_than = _parse_age(args.older_than)
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return 2
        for label, cache in stores:
            removed, removed_bytes = cache_gc(cache, older_than)
            print(
                f"{label}: removed {removed} record(s), {removed_bytes:,} bytes "
                f"(older than {args.older_than})"
            )
        return 0
    if args.cache_command == "verify":
        quarantined_total = 0
        for label, cache in stores:
            ok, quarantined = cache_verify(cache)
            quarantined_total += len(quarantined)
            line = f"{label}: {ok} record(s) OK"
            if quarantined:
                line += f", {len(quarantined)} quarantined:"
            print(line)
            for key in quarantined:
                print(f"  {key}")
        return 1 if quarantined_total else 0
    print(f"unknown cache command {args.cache_command!r}", file=sys.stderr)
    return 2


def _parse_age(text: str) -> float:
    """Parse `--older-than` values: seconds, or 30m / 12h / 7d / 2w."""
    text = text.strip().lower()
    units = {"s": 1, "m": 60, "h": 3600, "d": 86400, "w": 7 * 86400}
    scale = 1.0
    if text and text[-1] in units:
        scale = units[text[-1]]
        text = text[:-1]
    try:
        value = float(text)
    except ValueError:
        raise ValueError(
            f"--older-than wants a duration like 3600, 30m, 12h, 7d; got {text!r}"
        ) from None
    if value < 0:
        raise ValueError("--older-than must be non-negative")
    return value * scale


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reunion multicore-redundancy reproduction (MICRO-39, 2006)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list available workloads").set_defaults(
        func=cmd_list
    )

    run_parser = subparsers.add_parser("run", help="measure one workload")
    run_parser.add_argument("workload")
    run_parser.add_argument("--warmup", type=int, default=1500)
    run_parser.add_argument("--measure", type=int, default=3000)
    run_parser.add_argument("--seed", type=int, default=0)
    _add_system_args(run_parser)
    _add_options_args(run_parser)
    run_parser.set_defaults(func=cmd_run)

    asm_parser = subparsers.add_parser("asm", help="assemble and run a .s file")
    asm_parser.add_argument("file")
    asm_parser.add_argument("--max-cycles", type=int, default=1_000_000)
    asm_parser.add_argument("--trace", action="store_true", help="print a pipeline waterfall")
    _add_system_args(asm_parser)
    _add_options_args(asm_parser)
    asm_parser.set_defaults(func=cmd_asm)

    trace_parser = subparsers.add_parser(
        "trace",
        help="replay one sample with telemetry armed; write JSONL and "
        "Chrome trace_event files",
    )
    trace_parser.add_argument("workload")
    trace_parser.add_argument("--warmup", type=int, default=1500)
    trace_parser.add_argument("--measure", type=int, default=3000)
    trace_parser.add_argument("--seed", type=int, default=0)
    trace_parser.add_argument(
        "--level",
        choices=[level for level in TRACE_LEVELS if level != "off"],
        default="events",
        help="telemetry level (default events)",
    )
    trace_parser.add_argument(
        "--capacity",
        type=int,
        default=None,
        help="event ring-buffer capacity (default 65536)",
    )
    trace_parser.add_argument(
        "--out",
        help="output stem; writes <stem>.jsonl and <stem>.trace.json "
        "(default TRACE_<workload>)",
    )
    trace_parser.add_argument(
        "--no-cache",
        action="store_true",
        help="skip the persistent result cache (.repro-cache/)",
    )
    _add_system_args(trace_parser)
    _add_options_args(trace_parser)
    trace_parser.set_defaults(func=cmd_trace)

    repro_parser = subparsers.add_parser(
        "reproduce", help="regenerate the paper's tables and figures"
    )
    repro_parser.add_argument(
        "--only", nargs="*", help="fig5 fig6a fig6b table3 fig7a fig7b sc"
    )
    repro_parser.add_argument(
        "--scale",
        choices=["quick", "standard", "paper"],
        help="experiment scale (overrides REPRO_SCALE; default quick)",
    )
    repro_parser.add_argument(
        "--jobs", type=int, default=1, help="worker processes for the sample batch"
    )
    repro_parser.add_argument(
        "--no-cache",
        action="store_true",
        help="skip the persistent result cache (.repro-cache/)",
    )
    _add_options_args(repro_parser)
    repro_parser.set_defaults(func=cmd_reproduce)

    campaign_parser = subparsers.add_parser(
        "campaign",
        help="statistical fault-injection campaign with coverage report",
    )
    campaign_parser.add_argument("workload", help="workload name (see `repro list`)")
    campaign_parser.add_argument(
        "--injections", type=int, default=200, help="planned injection count"
    )
    campaign_parser.add_argument(
        "--seed", type=int, default=0, help="campaign sampling seed"
    )
    campaign_parser.add_argument(
        "--bits",
        type=int,
        default=16,
        choices=sorted(CRC_POLYNOMIALS),
        help="fingerprint CRC width",
    )
    campaign_parser.add_argument(
        "--interval", type=int, default=8, help="fingerprint comparison interval"
    )
    campaign_parser.add_argument(
        "--latency", type=int, default=10, help="fingerprint comparison latency"
    )
    campaign_parser.add_argument(
        "--commits",
        type=int,
        default=None,
        help="golden commit target per run (default 400)",
    )
    campaign_parser.add_argument(
        "--max-cycles",
        type=int,
        default=None,
        help="per-run cycle budget before the timeout bucket",
    )
    campaign_parser.add_argument(
        "--jobs", type=int, default=1, help="worker processes for the injection batch"
    )
    campaign_parser.add_argument(
        "--coherence",
        choices=["shared", "snoopy", "directory"],
        default="shared",
        help="memory backend for the injected systems (default shared)",
    )
    campaign_parser.add_argument(
        "--pairs",
        type=int,
        default=1,
        help="vocal/mute pairs per injected system (default 1)",
    )
    campaign_parser.add_argument(
        "--resume",
        action="store_true",
        help="serve already-completed injections from the campaign checkpoint",
    )
    campaign_parser.add_argument(
        "--report", default=None, help="also write the JSON report to this path"
    )
    campaign_parser.add_argument(
        "--policy",
        default=None,
        metavar="POLICY",
        help="uniform per-pair protection policy (e.g. little-mute:2); "
        "partial policies are refused unless --allow-partial is given",
    )
    campaign_parser.add_argument(
        "--allow-partial",
        action="store_true",
        help="permit partial protection policies (interval-sampled / "
        "unprotected / dynamic) whose coverage gaps the plain report "
        "would misattribute; prefer `repro frontier`",
    )
    campaign_parser.set_defaults(func=cmd_campaign)

    frontier_parser = subparsers.add_parser(
        "frontier",
        help="sweep protection policies: IPC vs detection coverage frontier",
    )
    frontier_parser.add_argument(
        "--scale",
        choices=["quick", "standard", "paper"],
        help="IPC sample scale (overrides REPRO_SCALE; default quick)",
    )
    frontier_parser.add_argument(
        "--policies",
        nargs="*",
        metavar="POLICY",
        help="policy specs to sweep (default: full little-mute:2 "
        "interval-sampled:0.5 dynamic:8,2,16 unprotected)",
    )
    frontier_parser.add_argument(
        "--workloads",
        nargs="*",
        help="workload names (default: compute-kernel pointer-chase)",
    )
    frontier_parser.add_argument(
        "--injections",
        type=int,
        default=48,
        help="injections per coverage point (default 48)",
    )
    frontier_parser.add_argument(
        "--seed", type=int, default=0, help="campaign sampling seed"
    )
    frontier_parser.add_argument(
        "--jobs", type=int, default=1, help="worker processes"
    )
    frontier_parser.add_argument(
        "--resume",
        action="store_true",
        help="serve completed injections from the campaign checkpoint",
    )
    frontier_parser.add_argument(
        "--report", default=None, help="also write the frontier JSON to this path"
    )
    frontier_parser.add_argument(
        "--no-cache",
        action="store_true",
        help="skip the persistent sample cache (.repro-cache/)",
    )
    _add_options_args(frontier_parser)
    frontier_parser.set_defaults(func=cmd_frontier)

    cache_parser = subparsers.add_parser(
        "cache", help="inspect and maintain the persistent result cache"
    )
    cache_parser.add_argument(
        "--root", default=None,
        help="cache root (default REPRO_CACHE_DIR or .repro-cache)",
    )
    cache_parser.add_argument(
        "--store", choices=["samples", "campaign", "all"], default="all",
        help="which store to operate on (default all)",
    )
    cache_sub = cache_parser.add_subparsers(dest="cache_command", required=True)
    cache_sub.add_parser(
        "stats", help="entry counts, bytes, schema-version mix per store"
    )
    gc_parser = cache_sub.add_parser(
        "gc", help="delete records older than a cutoff"
    )
    gc_parser.add_argument(
        "--older-than", required=True, metavar="AGE",
        help="age cutoff: seconds, or 30m / 12h / 7d / 2w",
    )
    cache_sub.add_parser(
        "verify",
        help="decode every record; quarantine corrupt ones under "
        "<root>/quarantine/ (exit 1 if any)",
    )
    cache_parser.set_defaults(func=cmd_cache)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
