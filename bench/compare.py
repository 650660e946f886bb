"""Compare two sets of benchmark runs.

    python bench/run.py --seed 0 --record A.json      # repeat for seeds 0..9
    python bench/run.py --seed 0 --record B.json      # on the other commit
    python bench/compare.py A.json B.json

Prints one row per workload and end-to-end metric: both sides' medians
and quartiles and a verdict — better, worse, unchanged or unresolved
(the rules are in ``metrics.verdict``).  Runs pair up by seed, in
order.  Bounds come from ``BENCHMARK.json`` and, for the metrics it
does not list, from ``metrics.UNLISTED_BOUNDS``.  When both sets hold
traced runs, it also prints the change in each layer's self time.
Exits 1 if any metric got worse or an exact metric changed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from metrics import METRICS, bounds, quartiles, verdict
from tracer import LAYERS

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(path: Path) -> list[dict]:
    runs = json.loads(path.read_text())["runs"]
    for run in runs:
        # error_rate is recomputed from its base, so a rate of 0/3 and
        # one of 0/99 compare equal and the base stays visible.
        run["metrics"]["error_rate"] = run["failed"] / run["attempted"] if run["attempted"] else 0.0
    return runs


def paired(before: list[dict], after: list[dict], name: str) -> list[tuple[float, float]]:
    """(before, after) values of ``name`` for runs with the same seed, in order."""
    pairs = []
    for seed in sorted({run["seed"] for run in before}):
        a = [r["metrics"][name] for r in before if r["seed"] == seed and name in r["metrics"]]
        b = [r["metrics"][name] for r in after if r["seed"] == seed and name in r["metrics"]]
        pairs.extend(zip(a, b))
    return pairs


def base(runs: list[dict]) -> str:
    return f"{sum(r['failed'] for r in runs)}/{sum(r['attempted'] for r in runs)}"


def compare(before: list[dict], after: list[dict],
            limits: dict[str, float]) -> tuple[list[list[str]], list[str]]:
    """Table rows for every workload x metric, and every verdict given."""
    rows, verdicts = [], []
    workloads = list(dict.fromkeys(run["workload"] for run in before + after))
    for workload in workloads:
        a_runs = [r for r in before if r["workload"] == workload]
        b_runs = [r for r in after if r["workload"] == workload]
        for metric in METRICS:
            a = [r["metrics"][metric.name] for r in a_runs if metric.name in r["metrics"]]
            b = [r["metrics"][metric.name] for r in b_runs if metric.name in r["metrics"]]
            if not a or not b:
                continue
            bound = limits[metric.name]
            result = verdict(a, b, metric.better, bound, paired(a_runs, b_runs, metric.name))
            verdicts.append(result)
            qa, qb = quartiles(a), quartiles(b)
            change = (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0
            note = f" ({base(a_runs)} vs {base(b_runs)})" if metric.name == "error_rate" else ""
            rows.append(
                [
                    workload,
                    metric.name,
                    metric.unit,
                    f"{qa[1]:.6g} [{qa[0]:.4g}, {qa[2]:.4g}] n={len(a)}",
                    f"{qb[1]:.6g} [{qb[0]:.4g}, {qb[2]:.4g}] n={len(b)}",
                    f"{100 * change:+.2f}%",
                    f"{bound:g}",
                    result + note,
                ]
            )
    return rows, verdicts


def layer_rows(before: list[dict], after: list[dict]) -> list[list[str]]:
    """Median self time per layer on each side, for workloads traced on both."""
    rows = []
    workloads = list(dict.fromkeys(run["workload"] for run in before + after))
    for workload in workloads:
        a_runs = [r for r in before if r["workload"] == workload and r.get("layers")]
        b_runs = [r for r in after if r["workload"] == workload and r.get("layers")]
        if not a_runs or not b_runs:
            continue
        for layer in LAYERS:
            name = f"{layer}.self_s"
            a = statistics.median(r["layers"][name] for r in a_runs)
            b = statistics.median(r["layers"][name] for r in b_runs)
            rows.append([workload, layer, f"{a:.4f}", f"{b:.4f}", f"{b - a:+.4f}"])
    return rows


def render(header: list[str], rows: list[list[str]]) -> str:
    widths = [max(len(str(cell)) for cell in column) for column in zip(header, *rows)]
    lines = ["  ".join(str(cell).ljust(width) for cell, width in zip(row, widths)).rstrip()
             for row in [header, ["-" * w for w in widths], *rows]]
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("before", type=Path, help="results of the baseline runs")
    parser.add_argument("after", type=Path, help="results of the runs to judge")
    args = parser.parse_args(argv)
    if not BENCHMARK_JSON.is_file():
        parser.error(f"{BENCHMARK_JSON} not found: it holds the bounds")
    try:
        limits = bounds(json.loads(BENCHMARK_JSON.read_text()))
    except ValueError as error:
        parser.error(str(error))
    before, after = load_runs(args.before), load_runs(args.after)
    rows, verdicts = compare(before, after, limits)
    print(render(
        ["workload", "metric", "unit", "before: median [q1, q3]", "after: median [q1, q3]",
         "change", "bound", "verdict"],
        rows,
    ))
    layers = layer_rows(before, after)
    if layers:
        print()
        print(render(["workload", "layer", "self_s before", "self_s after", "delta"], layers))
    return 1 if {"worse", "changed"} & set(verdicts) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
