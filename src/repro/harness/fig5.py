"""Figure 5: baseline performance of Strict and Reunion.

The paper's Figure 5 shows, per workload, the IPC of the strict-input-
replication oracle and of Reunion normalized to the non-redundant
baseline, at a 10-cycle comparison latency.  Headline numbers: Strict
loses 5% (commercial) / 2% (scientific) on average; Reunion loses 10% /
8%, of which 5-6 points come from relaxed input replication itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from repro.harness.report import failed_claims, render_table
from repro.harness.runs import Runner, Scale, current_scale, plan
from repro.sim.config import Mode
from repro.workloads import suite


@dataclass
class Fig5Result:
    """Per-workload normalized IPC for both redundant models."""

    rows: list[tuple[str, str, float, float]]  # name, category, strict, reunion
    comparison_latency: int

    def averages(self, model_index: int) -> dict[str, float]:
        """Category averages: model_index 2 = Strict, 3 = Reunion."""
        out: dict[str, float] = {}
        for category in ("Web", "OLTP", "DSS", "Scientific"):
            members = [row for row in self.rows if row[1] == category]
            out[category] = sum(row[model_index] for row in members) / len(members)
        return out

    def commercial_average(self, model_index: int) -> float:
        members = [row for row in self.rows if row[1] != "Scientific"]
        return sum(row[model_index] for row in members) / len(members)

    def scientific_average(self, model_index: int) -> float:
        members = [row for row in self.rows if row[1] == "Scientific"]
        return sum(row[model_index] for row in members) / len(members)

    def check(self) -> list[str]:
        """The paper's Figure 5 claims this result breaks, one line each.

        Strict stays close to non-redundant and Reunion pays the relaxed-
        input-replication overhead on top; scientific workloads lose less
        than commercial ones under Strict, since serializing instructions
        dominate commercial code.
        """
        claims = []
        for name, _category, strict, reunion in self.rows:
            claims += [
                (
                    0.4 < reunion <= strict * 1.05,
                    f"{name}: Reunion {reunion:.3f} must lie in (0.4, Strict "
                    f"{strict:.3f} x 1.05]",
                ),
                (strict <= 1.08, f"{name}: Strict {strict:.3f} is above 1.08"),
            ]
        strict_commercial = self.commercial_average(2)
        strict_scientific = self.scientific_average(2)
        reunion_commercial = self.commercial_average(3)
        claims += [
            (
                strict_commercial > 0.80,
                f"Strict commercial average {strict_commercial:.3f} is not above 0.80",
            ),
            (
                strict_scientific > 0.90,
                f"Strict scientific average {strict_scientific:.3f} is not above 0.90",
            ),
            (
                reunion_commercial > 0.70,
                f"Reunion commercial average {reunion_commercial:.3f} is not above 0.70",
            ),
            (
                strict_scientific >= strict_commercial - 0.02,
                f"Strict scientific average {strict_scientific:.3f} falls more than "
                f"0.02 below commercial {strict_commercial:.3f}",
            ),
        ]
        return failed_claims(claims)

    def render(self) -> str:
        note = (
            f"Strict avg: commercial {self.commercial_average(2):.3f}, "
            f"scientific {self.scientific_average(2):.3f}.  "
            f"Reunion avg: commercial {self.commercial_average(3):.3f}, "
            f"scientific {self.scientific_average(3):.3f}.\n"
            "Paper: Strict 0.95 / 0.98; Reunion 0.90 / 0.92 "
            "(10-cycle comparison latency)."
        )
        return render_table(
            f"Figure 5 — normalized IPC, comparison latency = {self.comparison_latency}",
            ["Workload", "Class", "Strict", "Reunion"],
            [list(row) for row in self.rows],
            note,
        )


def plan_fig5(scale: Scale, comparison_latency: int = 10):
    """Every (config, workload) point Figure 5 needs, for batch prefetch."""
    return plan(partial(run_fig5, comparison_latency=comparison_latency), scale)


def run_fig5(
    scale: Scale | None = None,
    comparison_latency: int = 10,
    runner: Runner | None = None,
) -> Fig5Result:
    """Regenerate Figure 5 at the chosen scale."""
    scale = scale or (runner.scale if runner else current_scale())
    runner = runner or Runner(scale)
    strict_config = scale.config.with_redundancy(
        mode=Mode.STRICT, comparison_latency=comparison_latency
    )
    reunion_config = scale.config.with_redundancy(
        mode=Mode.REUNION, comparison_latency=comparison_latency
    )
    rows = []
    for workload in suite():
        strict = runner.normalized_ipc(strict_config, workload)
        reunion = runner.normalized_ipc(reunion_config, workload)
        rows.append((workload.name, workload.category, strict, reunion))
    return Fig5Result(rows, comparison_latency)


if __name__ == "__main__":  # pragma: no cover
    print(run_fig5().render())
