"""Figure 7: phantom strengths and TLB architecture.

(a) Reunion normalized IPC per workload for the three phantom request
strengths at a 10-cycle comparison latency.  Shape: global performs
close to the Figure 5 result; shared and null suffer severely from
constant recovery; em3d's shared result approaches null because its
working set exceeds the shared cache.

(b) Average commercial performance with a hardware-managed TLB versus
the UltraSPARC III software-managed TLB (whose fast-miss handler's traps
and non-idempotent MMU operations serialize retirement), across
comparison latencies — a 28% penalty at 40 cycles in the paper.  The
companion SC experiment puts membar semantics on every store: over 60%
loss at 40 cycles.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.harness.report import failed_claims, format_values, render_series, render_table
from repro.harness.runs import Runner, Scale, current_scale
from repro.sim.config import Consistency, Mode, PhantomStrength, SystemConfig, TLBMode
from repro.workloads import by_name, suite

#: Commercial representatives for the 7(b) latency sweeps.
DEFAULT_COMMERCIAL = ["Apache", "Oracle OLTP", "DB2 DSS Q17"]
DEFAULT_LATENCIES = (0, 10, 20, 30, 40)


@dataclass
class Fig7aResult:
    rows: list[tuple[str, str, float, float, float]]
    # (workload, category, global, shared, null)

    def row(self, name: str) -> tuple[float, float, float]:
        for row in self.rows:
            if row[0] == name:
                return row[2:]
        raise KeyError(name)

    def check(self) -> list[str]:
        """The paper's Figure 7(a) claims this result breaks, one line each.

        Global beats shared, shared is at or above null, global stays
        plausible, and null is a severe penalty on the suite average.
        Scaled scientific kernels are L2-resident, so their shared-phantom
        replies are usually coherent and shared can tie global within
        noise (the paper's working sets keep them well apart).
        """
        claims = []
        for name, _category, global_ipc, shared_ipc, null_ipc in self.rows:
            claims += [
                (
                    global_ipc >= shared_ipc - 0.06,
                    f"{name}: global {global_ipc:.3f} trails shared {shared_ipc:.3f} "
                    "by over 0.06",
                ),
                (
                    shared_ipc >= null_ipc - 0.05,
                    f"{name}: shared {shared_ipc:.3f} trails null {null_ipc:.3f} by over 0.05",
                ),
                (global_ipc > 0.6, f"{name}: global {global_ipc:.3f} is not above 0.6"),
            ]
        avg_global = sum(row[2] for row in self.rows) / len(self.rows)
        avg_null = sum(row[4] for row in self.rows) / len(self.rows)
        claims.append(
            (
                avg_null < avg_global - 0.10,
                f"suite null average {avg_null:.3f} is not 0.10 below global {avg_global:.3f}",
            )
        )
        return failed_claims(claims)

    def render(self) -> str:
        return render_table(
            "Figure 7(a) — Reunion normalized IPC by phantom strength (latency 10)",
            ["Workload", "Class", "Global", "Shared", "Null"],
            [list(row) for row in self.rows],
            "Paper shape: Global >> Shared >= Null; em3d's Shared ~ Null "
            "(working set exceeds the shared cache).",
        )


def run_fig7a(
    scale: Scale | None = None,
    comparison_latency: int = 10,
    runner: Runner | None = None,
) -> Fig7aResult:
    scale = scale or (runner.scale if runner else current_scale())
    runner = runner or Runner(scale)
    rows = []
    for workload in suite():
        values = []
        for strength in (PhantomStrength.GLOBAL, PhantomStrength.SHARED, PhantomStrength.NULL):
            config = scale.config.with_redundancy(
                mode=Mode.REUNION,
                comparison_latency=comparison_latency,
                phantom=strength,
            )
            values.append(runner.normalized_ipc(config, workload))
        rows.append((workload.name, workload.category, *values))
    return Fig7aResult(rows)


@dataclass
class Fig7bResult:
    latencies: tuple[int, ...]
    hardware: list[float]
    software: list[float]

    def check(self) -> list[str]:
        """The paper's Figure 7(b) claims this result breaks, one line each.

        The software-managed TLB is never meaningfully faster, and its
        serializing handler bites at 40 cycles without fading with
        latency: the 40-cycle gap is no smaller than the smallest earlier
        one.  (At zero latency the handler's timing skew between vocal and
        mute already costs some loose coupling, so the gap need not grow
        strictly from the first point.)
        """
        gaps = [hw - sw for hw, sw in zip(self.hardware, self.software)]
        shown = f"hardware - software gaps ({format_values(gaps)})"
        return failed_claims(
            [
                (
                    all(gap > -0.03 for gap in gaps),
                    f"{shown}: software is faster by 0.03 or more",
                ),
                (gaps[-1] > 0.02, f"{shown}: no software-TLB penalty above 0.02 at 40 cycles"),
                (
                    gaps[-1] >= min(gaps[:-1], default=gaps[-1]) - 0.02,
                    f"{shown}: the 40-cycle gap is over 0.02 below the smallest earlier one",
                ),
            ]
        )

    def render(self) -> str:
        return render_series(
            "Figure 7(b) — commercial avg normalized IPC: hardware vs software TLB",
            "latency",
            list(self.latencies),
            {"Hardware TLB": self.hardware, "Software-managed TLB": self.software},
            "Paper: the software-managed TLB's serializing handler costs 28% "
            "at a 40-cycle comparison latency.",
        )


def run_fig7b(
    scale: Scale | None = None,
    latencies: tuple[int, ...] = DEFAULT_LATENCIES,
    workload_names: list[str] | None = None,
    runner: Runner | None = None,
) -> Fig7bResult:
    scale = scale or (runner.scale if runner else current_scale())
    runner = runner or Runner(scale)
    curves = {
        tlb_mode: _commercial_curve(
            runner, scale.config.with_tlb(mode=tlb_mode), latencies, workload_names
        )
        for tlb_mode in (TLBMode.HARDWARE, TLBMode.SOFTWARE)
    }
    return Fig7bResult(tuple(latencies), curves[TLBMode.HARDWARE], curves[TLBMode.SOFTWARE])


@dataclass
class SCResult:
    latencies: tuple[int, ...]
    tso: list[float]
    sc: list[float]

    def check(self) -> list[str]:
        """The paper's Section 5.5 claims this result breaks, one line each.

        SC serializes every store, so it is slower than TSO at every
        latency and deeply so at 40 cycles.
        """
        shown = f"TSO ({format_values(self.tso)}), SC ({format_values(self.sc)})"
        return failed_claims(
            [
                (
                    all(sc < tso + 0.02 for tso, sc in zip(self.tso, self.sc)),
                    f"{shown}: SC is not below TSO + 0.02 at every latency",
                ),
                (
                    self.sc[-1] < self.tso[-1] - 0.10,
                    f"{shown}: SC is not 0.10 below TSO at 40 cycles",
                ),
                (self.sc[-1] < 0.75, f"{shown}: SC at 40 cycles is not below 0.75"),
            ]
        )

    def render(self) -> str:
        return render_series(
            "Section 5.5 — Reunion under TSO vs Sequential Consistency",
            "latency",
            list(self.latencies),
            {"TSO": self.tso, "SC": self.sc},
            "Paper: SC's store serialization loses over 60% at a 40-cycle "
            "comparison latency.",
        )


def run_sc_comparison(
    scale: Scale | None = None,
    latencies: tuple[int, ...] = (10, 40),
    workload_names: list[str] | None = None,
    runner: Runner | None = None,
) -> SCResult:
    """The SC-vs-TSO store-serialization experiment from Section 5.5."""
    scale = scale or (runner.scale if runner else current_scale())
    runner = runner or Runner(scale)
    curves = {
        consistency: _commercial_curve(
            runner, scale.config.replace(consistency=consistency), latencies, workload_names
        )
        for consistency in (Consistency.TSO, Consistency.SC)
    }
    return SCResult(tuple(latencies), curves[Consistency.TSO], curves[Consistency.SC])


def _commercial_curve(
    runner: Runner,
    system: SystemConfig,
    latencies: tuple[int, ...],
    workload_names: list[str] | None,
) -> list[float]:
    """Reunion on ``system``, averaged over the commercial representatives.

    Each point is normalized against ``system`` without redundancy, so a
    TLB or consistency variant is measured against its own baseline,
    isolating the redundancy cost as the paper does.
    """
    workloads = [by_name(name) for name in workload_names or DEFAULT_COMMERCIAL]
    curve = []
    for latency in latencies:
        config = system.with_redundancy(mode=Mode.REUNION, comparison_latency=latency)
        curve.append(
            sum(runner.normalized_ipc(config, workload) for workload in workloads)
            / len(workloads)
        )
    return curve


if __name__ == "__main__":  # pragma: no cover
    print(run_fig7a().render())
    print()
    print(run_fig7b().render())
    print()
    print(run_sc_comparison().render())
