"""Unit tests of the benchmark's own rules.

Run with ``python -m pytest bench/tests -q`` (outside the tier-1 suite).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

from metrics import METRICS, UNLISTED_BOUNDS, bounds, error_rate, p75, verdict  # noqa: E402
from run import normalise  # noqa: E402
from speed import probe, speed_factor  # noqa: E402
from tracer import ROOT, Tracer  # noqa: E402


# -- percentile rule ----------------------------------------------------------


def test_forty_samples_report_p75_with_ten_beyond_it():
    values = list(range(1, 41))
    tail = p75(values)
    assert tail == 30
    assert sum(v > tail for v in values) == 10
    assert p75(range(1000)) == 749  # still p75 however many samples


@pytest.mark.parametrize("n", [1, 3, 39])
def test_too_few_samples_report_the_median_only(n):
    assert p75(range(n)) is None


# -- bounds ---------------------------------------------------------------------


def test_every_metric_has_one_bound_from_benchmark_json_or_the_table():
    benchmark = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    listed = {entry["name"] for entry in benchmark["end_to_end"]}
    assert not listed & set(UNLISTED_BOUNDS)
    assert set(bounds(benchmark)) == {metric.name for metric in METRICS}


def test_a_metric_without_a_bound_is_refused():
    with pytest.raises(ValueError, match="wall_s"):
        bounds({"end_to_end": [{"name": "setup_s", "bound": 0.1}]})


# -- self time ------------------------------------------------------------------


class FakeClock:
    """A clock the traced functions advance by hand."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now


def test_self_time_subtracts_child_layers_on_a_nested_call_tree():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def c():
        clock.now += 7

    def b():
        clock.now += 4
        c_timed()
        clock.now += 1

    def a():
        clock.now += 2
        b_timed()
        clock.now += 3
        a_again()  # same layer: covered by the outer call, not counted twice

    def a_inner():
        clock.now += 10

    c_timed = tracer.timed(c, "c", "c")
    b_timed = tracer.timed(b, "b", "b")
    a_again = tracer.timed(a_inner, "a", "a_inner")
    tracer.timed(a, "a", "a")()

    totals = tracer.layer_totals()
    assert totals["a"]["calls"] == 1
    assert totals["a"]["self_s"] == pytest.approx(15e-9)
    assert totals["b"]["self_s"] == pytest.approx(5e-9)
    assert totals["c"]["self_s"] == pytest.approx(7e-9)
    assert totals["a"]["by_parent"] == {ROOT: {"calls": 1, "self_s": pytest.approx(15e-9)}}
    assert totals["b"]["by_parent"] == {"a": {"calls": 1, "self_s": pytest.approx(5e-9)}}
    assert totals["c"]["by_parent"] == {"b": {"calls": 1, "self_s": pytest.approx(7e-9)}}
    assert tracer.stack == [[ROOT, 27]]


def test_a_raising_call_still_pops_its_frame():
    tracer = Tracer(clock=FakeClock())

    def boom():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.timed(boom, "x", "boom")()
    assert len(tracer.stack) == 1
    assert tracer.layer_totals()["x"]["calls"] == 1


# -- class-level wrapping -----------------------------------------------------


class SlottedGate:
    __slots__ = ("offered",)

    def __init__(self) -> None:
        self.offered = 0

    def offer_f(self, count: int) -> int:
        self.offered += count
        return self.offered


class SubGate(SlottedGate):
    __slots__ = ()


def test_class_level_wrapping_of_a_slots_object_and_its_restoration():
    original = SlottedGate.__dict__["offer_f"]
    gate = SlottedGate()
    with pytest.raises(AttributeError):
        gate.offer_f = None  # no instance dict: only the class can be patched

    tracer = Tracer(clock=FakeClock())
    tracer.patch(SlottedGate, "offer_f", "core.check")
    tracer.patch(SubGate, "offer_f", "core.check")  # inherited, not its own
    assert SlottedGate.__dict__["offer_f"] is not original
    assert gate.offer_f(2) == 2
    assert SubGate().offer_f(3) == 3
    totals = tracer.layer_totals()["core.check"]["by_function"]
    assert totals["SlottedGate.offer_f"]["calls"] == 1
    assert totals["SubGate.offer_f"]["calls"] == 1

    tracer.restore()
    assert SlottedGate.__dict__["offer_f"] is original
    assert "offer_f" not in SubGate.__dict__
    assert gate.offer_f(1) == 3


def test_spans_carry_their_parent_and_the_job_sample_id():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    class Job:
        key = "k"

        def describe(self) -> str:
            return "em3d/reunion/seed0"

    def run_job(job):
        clock.now += 5
        return inner()

    inner = tracer.spanned(lambda: None, "sim", "CMPSystem.run")
    tracer.spanned(run_job, None, "run_job")(Job())

    by_name = {span["name"]: span for span in tracer.spans}
    outer, child = by_name["run_job"], by_name["CMPSystem.run"]
    assert child["parent"] == outer["id"]
    assert child["sample"] == outer["sample"] == "em3d/reunion/seed0"
    assert outer["dur_s"] == pytest.approx(5e-9)


# -- host speed -----------------------------------------------------------------


def test_speed_factor_weighs_each_piece_by_its_time():
    assert speed_factor([(2.0, 1.0, 1.0)]) == pytest.approx(1.0)
    # A piece between probes that read twice nominal ran at half speed.
    assert speed_factor([(1.0, 2.0, 2.0)]) == pytest.approx(0.5)
    # Three seconds at full speed and one at half: (3 * 1 + 1 * 0.5) / 4.
    assert speed_factor([(3.0, 1.0, 1.0), (1.0, 1.0, 3.0)]) == pytest.approx(0.875)


def test_speed_factor_needs_timed_work():
    with pytest.raises(ValueError):
        speed_factor([])


def test_a_probe_reads_how_slowly_the_host_runs():
    readings = [probe() for _ in range(3)]
    assert all(reading > 0 for reading in readings)


def test_normalise_keeps_the_raw_times():
    result = {"wall_s": 4.0, "setup_s": 0.2, "pieces": [[4.0, 2.0, 2.0]]}
    normalise(result)
    assert result["host_speed"] == pytest.approx(0.5)
    assert result["wall_s"] == pytest.approx(2.0)
    assert result["setup_s"] == pytest.approx(0.1)
    assert (result["raw_wall_s"], result["raw_setup_s"]) == (4.0, 0.2)
    assert result["operations"] == [(4.0, pytest.approx(2.0))]
    assert "pieces" not in result


def test_pieces_that_are_operations_are_timed_one_by_one():
    pieces = [[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]]
    result = {"wall_s": 3.0, "setup_s": 0.3, "pieces": pieces, "pieces_are_operations": True}
    normalise(result)
    assert result["host_speed"] == pytest.approx(2 / 3)
    assert result["wall_s"] == pytest.approx(2.0)
    assert result["operations"] == [(1.0, pytest.approx(1.0)), (2.0, pytest.approx(1.0))]


# -- error rate and verdicts --------------------------------------------------


def test_error_rate_keeps_its_base():
    assert error_rate(0, 99) == (0.0, "0/99")
    assert error_rate(3, 12) == (0.25, "3/12")
    assert error_rate(0, 0) == (0.0, "0/0")


def test_a_spread_wider_than_the_bound_is_unresolved():
    before = [1.0, 1.2, 0.9, 1.15, 0.95]
    after = [1.05, 1.1, 0.92, 1.2, 1.0]
    assert verdict(before, after, "lower", 0.05) == "unresolved"


def test_a_wide_spread_is_better_only_when_every_run_beats_every_run():
    before = [1.0, 1.2, 0.9, 1.15, 0.95]
    after = [0.5, 0.6, 0.45, 0.58, 0.52]
    assert verdict(before, after, "lower", 0.05) == "better"


def test_a_gain_needs_nine_tenths_of_ten_pairs():
    before = [1.00, 1.01, 0.99, 1.00, 1.01, 1.00, 0.99, 1.00, 1.01, 1.00]
    after = [0.95, 0.96, 0.94, 0.95, 0.96, 0.95, 0.94, 0.95, 0.96, 1.02]
    pairs = list(zip(before, after))
    assert verdict(before, after, "lower", 0.05, pairs) == "better"
    assert verdict(before, after, "lower", 0.05, pairs[:9]) == "unchanged"


def test_worse_and_unchanged_against_the_bound():
    before = [1.00, 1.01, 0.99, 1.00, 1.00]
    assert verdict(before, [1.10, 1.11, 1.09, 1.10, 1.10], "lower", 0.05) == "worse"
    assert verdict(before, [1.02, 1.03, 1.01, 1.02, 1.02], "lower", 0.05) == "unchanged"
    assert verdict(before, [0.90, 0.91, 0.89, 0.90, 0.90], "higher", 0.05) == "worse"


def test_deterministic_metrics_must_not_move_at_all():
    assert verdict([4.5723, 9.2694], [9.2694, 4.5723], None, 0.0) == "unchanged"
    assert verdict([4.5723], [4.5724], None, 0.0) == "changed"
    assert verdict([4.5723], [4.5722], None, 0.0) == "changed"
    assert verdict([0.0], [0.01], "lower", 0.0) == "worse"
    assert verdict([0.01], [0.0], "lower", 0.0) == "better"


def test_compare_fails_when_simulated_ipc_moves_either_way(tmp_path, capsys):
    import compare

    def write(name: str, ipc: float) -> str:
        runs = [
            {"workload": "protection-mix", "seed": seed, "attempted": 1, "failed": 0,
             "metrics": {"wall_s": 5.0, "sim_ipc": ipc}, "layers": {}}
            for seed in range(3)
        ]
        path = tmp_path / name
        path.write_text(json.dumps({"runs": runs}))
        return str(path)

    base = write("a.json", 9.269)
    assert compare.main([base, write("same.json", 9.269)]) == 0
    assert compare.main([base, write("up.json", 9.3)]) == 1
    assert "changed" in capsys.readouterr().out
