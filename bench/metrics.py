"""The benchmark's metric table and the statistics rules it reports by.

Shared by ``run.py`` (which measures), ``compare.py`` (which judges two
sets of runs) and the tests.  Standard library only.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass


@dataclass(frozen=True)
class Metric:
    """One end-to-end metric.

    ``better`` is ``"lower"`` or ``"higher"``, or None for a model output
    (``sim_ipc``) that has no good direction and must not move at all.
    """

    name: str
    unit: str
    better: str | None


#: Every end-to-end metric, in report order.  A workload reports the
#: ones that apply to it (see bench/README.md).
METRICS = (
    Metric("wall_s", "s", "lower"),
    Metric("wall_p75_s", "s", "lower"),
    Metric("sim_cycles_per_s", "cycles/s", "higher"),
    Metric("setup_s", "s", "lower"),
    Metric("peak_rss_mb", "MiB", "lower"),
    Metric("sim_ipc", "instr/cycle", None),
    Metric("fig5_paper_abs_err", "norm. IPC", "lower"),
    Metric("error_rate", "fraction", "lower"),
)
METRIC_BY_NAME = {metric.name: metric for metric in METRICS}

#: Bounds of the metrics ``BENCHMARK.json`` does not list; it holds the
#: bounds of the rest.  A bound is the share of the baseline median by
#: which a metric may worsen before it counts as a regression; 0 means
#: the value must not change at all.  ``sim_cycles_per_s`` is a
#: reciprocal of ``wall_s`` and ``wall_p75_s`` its tail, so they take the
#: bounds of the wall time they are computed from.
UNLISTED_BOUNDS = {
    "wall_p75_s": 0.20,
    "sim_cycles_per_s": 0.20,
    "sim_ipc": 0.0,
    "fig5_paper_abs_err": 0.0,
    "error_rate": 0.0,
}


def bounds(benchmark: dict) -> dict[str, float]:
    """Every end-to-end metric's bound: ``BENCHMARK.json``'s, then the table's."""
    found = {**UNLISTED_BOUNDS, **{e["name"]: e["bound"] for e in benchmark["end_to_end"]}}
    missing = [metric.name for metric in METRICS if metric.name not in found]
    if missing:
        raise ValueError(f"no bound for {', '.join(missing)}")
    return found


#: Samples ``wall_p75_s`` needs: p75 of 40 has ten samples above it.
P75_SAMPLES = 40


def p75(values) -> float | None:
    """The 75th percentile by the nearest-rank rule, or None below 40 samples."""
    ordered = sorted(values)
    if len(ordered) < P75_SAMPLES:
        return None
    return ordered[math.ceil(0.75 * len(ordered)) - 1]


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def error_rate(failed: int, attempted: int) -> tuple[float, str]:
    """Failed operations over attempted ones, with its base (``"0/99"``)."""
    return (failed / attempted if attempted else 0.0), f"{failed}/{attempted}"


#: A gain needs at least this share of wins over at least this many pairs.
WIN_SHARE = 0.9
MIN_PAIRS = 10


def verdict(before, after, better: str | None, bound: float, pairs=()) -> str:
    """Judge ``after`` against ``before``.

    The verdict is better, worse, unchanged or unresolved.  A metric
    with bound 0 is unchanged only when every value is equal; any other
    value of a metric without a direction is changed.  ``pairs`` are
    matched ``(before, after)`` runs.  A gain needs at least nine tenths
    of ten or more pairs won and a median shift larger than the spread
    between the ``before`` runs.  A metric whose spread exceeds its
    bound is unresolved, unless every ``after`` run beats every
    ``before`` run.
    """
    sign = 1 if better == "higher" else -1
    q1, base, q3 = quartiles(before)
    _, median, _ = quartiles(after)
    if bound == 0:
        if sorted(before) == sorted(after):
            return "unchanged"
        if better is None:
            return "changed"
        return "better" if sign * (median - base) > 0 else "worse"
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    if (
        len(pairs) >= MIN_PAIRS
        and wins >= WIN_SHARE * len(pairs)
        and abs(median - base) > q3 - q1
    ):
        return "better"
    if max(spread(before), spread(after)) > bound:
        if all(sign * (b - a) > 0 for a in before for b in after):
            return "better"
        return "unresolved"
    if base and -sign * (median - base) / abs(base) > bound:
        return "worse"
    return "unchanged"
