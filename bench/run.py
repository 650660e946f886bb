"""The repo's benchmark: seeded workloads, each iteration a fresh process.

    python bench/run.py --seed 0                 # all four workloads, one pass each
    python bench/run.py --seed 0 --trace         # ... plus a traced run of each
    python bench/run.py --workload fig5-cold --seed 3 --seconds 15 --trace 0
    python bench/run.py --seed 0 --bless         # rewrite bench/golden.json for seed 0
    python bench/run.py --seed 0 --record A.json # append the results for compare.py

Every workload is a closed loop with one client: each child process
starts only after the previous one exited.  A pass runs a workload's
fixed number of iterations, and keeps going until ``--seconds`` have
passed.  Each end-to-end metric is the median over the iterations, or
over the renders for ``wall_s`` of ``fig5-warm`` (see bench/README.md
for the workloads, metrics and layers).  Host times are reported at the
nominal host speed: each child times fixed reference work beside its
own, and its times are scaled by the speed those probes saw
(``speed.py``); the raw times are printed beside them.

Output checks: every child's output digest must equal the golden one
for the seed (``bench/golden.json``), or, for a seed without one, the
first child's; cold, warm and traced Figure 5 tables must agree; traced
Stats must equal untraced Stats.  A mismatch counts as failed
operations and makes the command exit 1.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics of
``BENCHMARK.json``, or with ``--trace 1`` its per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from child import RENDERS
from metrics import METRIC_BY_NAME, error_rate, p75, quartiles
from speed import at_nominal, speed_factor
from tracer import LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
GOLDEN = BENCH / "golden.json"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

#: Wall-clock budget of one workload's measurement, set-up included.
RUN_BUDGET_S = 170.0
#: Pool workers of fig5-cold (``--jobs 2``), capped at the CPUs available.
FIG5_JOBS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    #: Iterations in one pass.
    runs: int
    #: Key of the output digest in golden.json.
    golden: str
    #: Operations one iteration attempts: Figure 5's 33 samples per
    #: render, or one run.
    operations: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fig5-cold", runs=3, golden="fig5", operations=33),
        Workload("fig5-warm", runs=3, golden="fig5", operations=33 * (1 + RENDERS)),
        Workload("protection-mix", runs=3, golden="protection-mix"),
        Workload("manycore-chase", runs=3, golden="manycore-chase"),
    )
}


@dataclass
class Tally:
    """Operations attempted and failed, with why each failure happened."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        self.problems.append(problem)


def child_env(cache_dir: Path) -> dict:
    """The children's environment: no ``REPRO_*`` knobs, fixed hashing,
    compiled files kept under ``bench/out``, a cache of their own."""
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_") and key != "PYTHONDONTWRITEBYTECODE"
    }
    env.update(
        PYTHONHASHSEED="0",
        PYTHONPYCACHEPREFIX=str(OUT / "pycache"),
        PYTHONPATH=str(ROOT / "src"),
        REPRO_CACHE_DIR=str(cache_dir),
    )
    return env


def spawn(spec: dict, env: dict, timeout: float) -> tuple[dict | None, str]:
    """Run one child to completion; its result, or None and why."""
    spec = {**spec, "t0": time.monotonic()}
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    finally:
        if proc.poll() is None:
            # The session holds the child's pool workers too.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.communicate()
    if proc.returncode != 0:
        tail = err.strip().splitlines()[-1:] or ["no error output"]
        return None, f"exit code {proc.returncode}: {tail[0]}"
    try:
        return json.loads(out.strip().splitlines()[-1]), ""
    except (IndexError, ValueError):
        return None, "no result line"


class Session:
    """One workload's measurement at one seed."""

    def __init__(self, workload: Workload, seed: int, golden: dict, bless: bool):
        self.workload = workload
        self.seed = seed
        self.tally = Tally()
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.workdir = OUT / "tmp" / f"{workload.name}-{os.getpid()}"
        self.reference = None if bless else golden.get(workload.golden, {}).get(str(seed))
        self.reference_samples: list[str] | None = None
        self.jobs = min(FIG5_JOBS, len(os.sched_getaffinity(0)))
        self.cache_dirs = 0

    def fresh_cache(self) -> Path:
        self.cache_dirs += 1
        return self.workdir / f"cache-{self.cache_dirs}"

    def compile_imports(self) -> None:
        """Untimed: compile every ``.pyc`` the children will load."""
        spec = {"workload": "import", "seed": self.seed, "jobs": 1}
        result, why = spawn(spec, child_env(self.fresh_cache()), self.deadline - time.monotonic())
        if result is None:
            self.tally.fail(0, f"import child: {why}")

    def child(self, name: str, cache: Path, jobs: int = 1,
              trace_path: Path | None = None) -> dict | None:
        """Run one child, check its output, and count its operations."""
        operations = self.workload.operations
        spec = {"workload": name, "seed": self.seed, "jobs": jobs}
        if trace_path is not None:
            spec["trace_path"] = str(trace_path)
        result, why = spawn(spec, child_env(cache), self.deadline - time.monotonic())
        self.tally.attempted += operations
        label = f"{name} child"
        if result is None:
            self.tally.fail(operations, f"{label}: {why}")
            return None
        failed_checks = [check for check, ok in result.get("checks", {}).items() if not ok]
        if not result.get("pieces"):
            failed_checks.append("took host-speed probes")
        if failed_checks:
            self.tally.fail(operations, f"{label}: check failed: {', '.join(failed_checks)}")
            return None
        if self.reference is None:
            self.reference = result["digest"]
        if result["digest"] != self.reference:
            self.tally.fail(
                operations,
                f"{label}: output digest {result['digest'][:12]} != {self.reference[:12]}",
            )
            return None
        samples = result.get("sample_digests")
        if samples is not None:
            if self.reference_samples is None:
                self.reference_samples = samples
            bad = sum(a != b for a, b in zip(samples, self.reference_samples))
            if bad:
                self.tally.fail(bad, f"{label}: {bad} sample digest(s) differ")
                return None
        normalise(result)
        return result


def normalise(result: dict) -> None:
    """Turn a child's host times into times at the nominal host speed.

    The speed factor weighs the probes the child took beside its timed
    pieces (see ``speed.py``); the raw times stay in ``raw_wall_s`` and
    ``raw_setup_s``.  ``operations`` gets one ``(raw, nominal)`` wall
    time per operation: each piece when the pieces are the operations
    (``fig5-warm``'s renders), else the child's whole timed part.
    """
    pieces = result.pop("pieces")
    factor = speed_factor(pieces)
    result["host_speed"] = factor
    for name in ("wall_s", "setup_s"):
        result[f"raw_{name}"] = result[name]
        result[name] *= factor
    if result.pop("pieces_are_operations", False):
        result["operations"] = [(piece[0], at_nominal(piece)) for piece in pieces]
    else:
        result["operations"] = [(result["raw_wall_s"], result["wall_s"])]


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            golden: dict, bless: bool) -> dict:
    """Run one workload; its results, metrics and checks."""
    session = Session(workload, seed, golden, bless)
    warm_cache = None
    timed = []
    try:
        session.workdir.mkdir(parents=True, exist_ok=True)
        session.compile_imports()
        if workload.name == "fig5-warm":
            warm_cache = session.fresh_cache()
            session.child("fig5-cold", warm_cache, jobs=session.jobs)
        jobs = session.jobs if workload.name == "fig5-cold" else 1
        iterations = 0
        start = time.monotonic()
        while iterations < workload.runs or time.monotonic() - start < seconds:
            if time.monotonic() > session.deadline:
                session.tally.fail(0, "ran out of time before the pass completed")
                break
            iterations += 1
            cache = warm_cache or session.fresh_cache()
            result = session.child(workload.name, cache, jobs=jobs)
            if result is not None:
                timed.append(result)
        traced = run_traced(session, warm_cache, timed) if trace else None
    finally:
        shutil.rmtree(session.workdir, ignore_errors=True)
    return {
        "workload": workload.name,
        "seed": seed,
        "jobs": session.jobs,
        "timed": timed,
        "traced": traced,
        "tally": session.tally,
        "digest": session.reference,
    }


def run_traced(session: Session, warm_cache: Path | None, timed: list[dict]) -> dict:
    """One traced iteration, plus the untraced base its overhead is against.

    fig5-cold traces at one pool worker, in process, so that its spans
    stay in one process; its base is then an untraced one-worker child.
    """
    workload = session.workload
    base = [r["wall_s"] for r in timed]
    if workload.name == "fig5-cold":
        serial = session.child("fig5-cold", session.fresh_cache(), jobs=1)
        base = [serial["wall_s"]] if serial is not None else []
    runs = OUT / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    path = runs / f"trace-{workload.name}-seed{session.seed}-{os.getpid()}.json"
    result = session.child(workload.name, warm_cache or session.fresh_cache(), trace_path=path)
    if result is None or not base:
        return {}
    with open(path) as handle:
        trace = json.load(handle)
    return layer_metrics([trace], result["wall_s"] / statistics.median(base))


def layer_metrics(traces: list[dict], overhead: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from traced children: means per child, plus ratios."""
    n = len(traces)
    metrics: dict[str, tuple[float, str]] = {}
    functions: dict[str, int] = {}
    for layer in LAYERS:
        calls = sum(t["layers"][layer]["calls"] for t in traces)
        self_s = sum(t["layers"][layer]["self_s"] for t in traces)
        share = sum(t["layers"][layer]["self_s"] / t["wall_s"] for t in traces)
        metrics[f"{layer}.calls"] = (calls / n, "count")
        metrics[f"{layer}.self_s"] = (self_s / n, "s")
        metrics[f"{layer}.share"] = (share / n, "fraction")
        for t in traces:
            for label, split in t["layers"][layer]["by_function"].items():
                functions[label] = functions.get(label, 0) + split["calls"]

    spans = [span for t in traces for span in t["spans"]]
    runs = [span for span in spans if span["name"] == "CMPSystem.run"]
    cycles = sum(span["now"] for span in runs)
    steps = sum(span["steps"] for span in runs)
    kinstr = sum(span["user_instructions"] for span in runs) / 1000
    gets = [span for span in spans if span["name"] == "ResultCache.get"]
    puts = [span for span in spans if span["name"] == "ResultCache.put"]
    offers = sum(calls for label, calls in functions.items() if label.endswith(".offer_f"))
    coherence = sum(t["layers"]["memory.coherence"]["calls"] for t in traces)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics["sim.skip_ratio"] = (ratio(cycles - steps, cycles), "fraction")
    metrics["pipeline.core_steps_per_cycle"] = (
        ratio(functions.get("OoOCore.step", 0), steps), "steps/cycle")
    metrics["core.pair.steps_per_cycle"] = (
        ratio(functions.get("LogicalPair.step", 0), steps), "steps/cycle")
    metrics["core.check.offers_per_kinstr"] = (ratio(offers, kinstr), "calls/kinstr")
    metrics["memory.coherence.calls_per_kinstr"] = (ratio(coherence, kinstr), "calls/kinstr")
    metrics["exec.cache.hit_ratio"] = (
        ratio(sum(1 for span in gets if span["hit"]), len(gets)), "fraction")
    metrics["exec.cache.get_ms"] = (
        ratio(1000 * sum(span["dur_s"] for span in gets), len(gets)), "ms")
    metrics["exec.cache.put_ms"] = (
        ratio(1000 * sum(span["dur_s"] for span in puts), len(puts)), "ms")
    metrics["trace.overhead"] = (overhead, "x")
    return metrics


def end_to_end(run: dict) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics of one workload run: medians over iterations."""
    timed = run["timed"]
    metrics: dict[str, tuple[float, str]] = {}

    def put(name: str, value: float, unit: str | None = None) -> None:
        metrics[name] = (value, unit or METRIC_BY_NAME[name].unit)

    if timed:
        walls = [nominal for r in timed for _, nominal in r["operations"]]
        put("wall_s", statistics.median(walls))
        tail = p75(walls)
        if tail is not None:
            put("wall_p75_s", tail)
        cycles = [r["sim_cycles"] / r["wall_s"] for r in timed if r["sim_cycles"]]
        if cycles:
            put("sim_cycles_per_s", statistics.median(cycles))
        put("setup_s", statistics.median(r["setup_s"] for r in timed))
        put("peak_rss_mb", statistics.median(r["peak_rss_mb"] for r in timed))
        put("sim_ipc", timed[0]["sim_ipc"])
        if "fig5_paper_abs_err" in timed[0]:
            put("fig5_paper_abs_err", timed[0]["fig5_paper_abs_err"])
    tally = run["tally"]
    put("error_rate", error_rate(tally.failed, tally.attempted)[0])
    return metrics


def host_times(run: dict) -> dict[str, float]:
    """The pass's raw medians of ``wall_s`` and ``setup_s``, and its host speed."""
    timed = run["timed"]
    if not timed:
        return {}
    return {
        "wall_s": statistics.median(raw for r in timed for raw, _ in r["operations"]),
        "setup_s": statistics.median(r["raw_setup_s"] for r in timed),
        "host_speed": statistics.median(r["host_speed"] for r in timed),
    }


def report(run: dict, metrics: dict, layers: dict | None) -> None:
    """Print one workload's metrics, by name and with units."""
    tally = run["tally"]
    n = len(run["timed"])
    jobs = f"  pool workers={run['jobs']}" if run["workload"] == "fig5-cold" else ""
    print(f"{run['workload']}  seed={run['seed']}  iterations={n}{jobs}")
    samples = {
        "wall_s": [nominal for r in run["timed"] for _, nominal in r["operations"]],
        "setup_s": [r["setup_s"] for r in run["timed"]],
    }
    host = host_times(run)
    for name, (value, unit) in metrics.items():
        extra = ""
        if samples.get(name):
            q1, _, q3 = quartiles(samples[name])
            extra = (f"  (n={len(samples[name])}, q1 {q1:.4f}, q3 {q3:.4f}; "
                     f"raw {host[name]:.4f})")
        if name == "error_rate":
            extra = f"  ({error_rate(tally.failed, tally.attempted)[1]})"
        print(f"  {name:<34} {value:>14.6g} {unit:<12}{extra}")
    if host:
        print(f"  {'host speed (nominal = 1)':<34} {host['host_speed']:>14.6g}")
    if layers:
        print("  per-layer (traced run):")
        for name, (value, unit) in layers.items():
            print(f"  {name:<34} {value:>14.6g} {unit}")
    for problem in tally.problems:
        print(f"  FAILED: {problem}", file=sys.stderr)


def summary(run: dict, metrics: dict, layers: dict | None, benchmark: dict) -> dict:
    """The result line: the metrics BENCHMARK.json names, for this mode."""
    tally = run["tally"]
    names = [m["name"] for m in benchmark["per_layer" if layers is not None else "end_to_end"]]
    source = layers if layers is not None else metrics
    chosen = {
        name: {"value": source[name][0], "unit": source[name][1]}
        for name in names
        if name in source
    }
    correct = tally.failed == 0 and not tally.problems and len(chosen) == len(names)
    return {
        "correct": correct,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed if correct else max(tally.failed, 1),
        "metrics": chosen,
    }


def record(path: Path, run: dict, metrics: dict, layers: dict | None) -> None:
    """Append one run to a results file ``compare.py`` reads."""
    data = json.loads(path.read_text()) if path.exists() else {"runs": []}
    tally = run["tally"]
    data["runs"].append(
        {
            "workload": run["workload"],
            "seed": run["seed"],
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {name: value for name, (value, _) in metrics.items()},
            "host": host_times(run),
            "layers": {name: value for name, (value, _) in (layers or {}).items()},
        }
    )
    path.write_text(json.dumps(data, indent=1) + "\n")


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all four, in turn)")
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="keep iterating until this long has been measured")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: also run traced iterations and report per-layer metrics")
    parser.add_argument("--bless", action="store_true",
                        help="rewrite the golden digests for this seed")
    parser.add_argument("--record", type=Path, help="append results to this JSON file")
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    return args


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not BENCHMARK_JSON.is_file():
        print(f"no repro source tree and BENCHMARK.json under {ROOT}: nothing to benchmark",
              file=sys.stderr)
        return 2
    benchmark = json.loads(BENCHMARK_JSON.read_text())
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    names = [args.workload] if args.workload else list(WORKLOADS)
    ok = True
    for name in names:
        run = measure(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), golden,
                      args.bless)
        metrics = end_to_end(run)
        layers = run["traced"]
        if args.trace and not layers:
            run["tally"].fail(0, "traced run produced no per-layer metrics")
        report(run, metrics, layers)
        result = summary(run, metrics, layers, benchmark)
        ok = ok and result["correct"]
        if args.record:
            record(args.record, run, metrics, layers)
        if args.bless and result["correct"]:
            golden.setdefault(WORKLOADS[name].golden, {})[str(args.seed)] = run["digest"]
            GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        print(json.dumps(result), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
