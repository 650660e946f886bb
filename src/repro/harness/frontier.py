"""The coverage-vs-throughput frontier across protection policies.

Reunion's headline experiments fix one protection posture — every pair
fully checked — and measure its cost.  The frontier sweep asks the
complementary question: what does *buying back* throughput with a
weaker :class:`~repro.sim.config.ProtectionPolicy` cost in detection
coverage?  For each (policy, workload) point it measures

* **IPC** — a normal sample at the chosen scale, on the scale's config
  with the policy applied uniformly
  (:meth:`~repro.sim.config.SystemConfig.with_protection`), riding the
  existing execution pool and persistent sample cache; and
* **coverage** — a fault-injection campaign
  (:func:`~repro.campaign.run.run_campaign` with
  ``allow_partial=True``) on the campaign-scale config with the same
  policy, reported with its Wilson interval plus the unchecked-escape
  split (SDCs that walked through a policy coverage gap vs. aliased
  through the CRC).

The two measurements deliberately use different system scales — IPC
needs the scale config the other figures use, coverage needs thousands
of short injected runs — but share the policy and workload, which is
the frontier's x/y pairing.  Both renderings are pure functions of the
inputs, so resumed sweeps reproduce them byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.campaign.plan import campaign_config
from repro.campaign.run import run_campaign
from repro.exec.progress import Progress
from repro.harness.report import render_table
from repro.harness.runs import Runner, Scale, current_scale
from repro.sim.config import Mode, ProtectionPolicy, parse_policy
from repro.workloads import by_name

#: The default sweep: the full-protection anchor, both heterogeneous
#: reductions, and both partial-coverage points.
DEFAULT_POLICIES = (
    "full",
    "little-mute:2",
    "interval-sampled:0.5",
    "dynamic:8,2,16",
    "unprotected",
)

#: One compute-bound and one memory-bound microbenchmark: the policies'
#: throughput give-back differs most across that axis.
DEFAULT_WORKLOADS = ("compute-kernel", "pointer-chase")

#: Default injections per (policy, workload) coverage point.  Modest —
#: the frontier's job is ordering policies, not tight rate estimates;
#: raise it for publication-grade intervals.
DEFAULT_INJECTIONS = 48


@dataclass(frozen=True)
class FrontierPoint:
    """One (policy, workload) point: throughput and coverage."""

    policy: str  # ProtectionPolicy.describe() spelling
    workload: str
    ipc: float
    coverage: float
    coverage_interval: tuple[float, float]
    coverage_trials: int
    sdc: int
    #: Of the SDCs, how many escaped through an unchecked interval
    #: (policy coverage gap) rather than aliasing through the CRC.
    sdc_unchecked: int
    injections: int


@dataclass(frozen=True)
class FrontierResult:
    """The full sweep, in (policy-order x workload-order)."""

    scale_name: str
    seed: int
    points: tuple[FrontierPoint, ...]

    def point(self, policy: str, workload: str) -> FrontierPoint:
        for point in self.points:
            if point.policy == policy and point.workload == workload:
                return point
        raise KeyError((policy, workload))

    def check_ordering(self) -> list[str]:
        """Coverage-monotonicity violations (empty list: frontier holds).

        Per workload, ``full`` must cover at least as much as
        ``interval-sampled``, which must cover at least as much as
        ``unprotected`` — and ``full`` must strictly dominate
        ``unprotected`` whenever any injection demanded detection.
        The comparison uses point estimates: the ordering is structural
        (unprotected has *no* detection mechanism), not statistical.
        """
        problems: list[str] = []
        for workload in dict.fromkeys(p.workload for p in self.points):
            ladder = [
                point
                for point in self.points
                if point.workload == workload
                and (
                    point.policy == "full"
                    or point.policy.startswith("interval-sampled")
                    or point.policy == "unprotected"
                )
            ]
            for higher, lower in zip(ladder, ladder[1:]):
                if higher.coverage < lower.coverage:
                    problems.append(
                        f"{workload}: {higher.policy} coverage "
                        f"{higher.coverage:.4f} < {lower.policy} "
                        f"{lower.coverage:.4f}"
                    )
            full = next((p for p in ladder if p.policy == "full"), None)
            bare = next((p for p in ladder if p.policy == "unprotected"), None)
            if (
                full is not None
                and bare is not None
                and full.coverage_trials
                and bare.coverage_trials
                and full.coverage <= bare.coverage
            ):
                problems.append(
                    f"{workload}: full coverage {full.coverage:.4f} does not "
                    f"strictly dominate unprotected {bare.coverage:.4f}"
                )
        return problems

    def render(self) -> str:
        rows = [
            [
                point.policy,
                point.workload,
                point.ipc,
                point.coverage,
                (
                    f"[{point.coverage_interval[0]:.3f}, "
                    f"{point.coverage_interval[1]:.3f}]"
                ),
                point.coverage_trials,
                f"{point.sdc_unchecked}/{point.sdc}",
            ]
            for point in self.points
        ]
        return render_table(
            f"Protection frontier — coverage vs throughput ({self.scale_name})",
            ["Policy", "Workload", "IPC", "Coverage", "Wilson 95%", "Trials",
             "SDC unchecked/total"],
            rows,
            "Coverage: detected / consequential injections (campaign scale). "
            "IPC: scale-config samples under the same policy. Unchecked SDCs "
            "escaped through policy coverage gaps, not CRC aliasing.",
        )

    def payload(self) -> dict:
        """The JSON report (deterministic; canonical key order via dump)."""
        return {
            "schema": 1,
            "kind": "frontier",
            "scale": self.scale_name,
            "seed": self.seed,
            "points": [
                {
                    "policy": point.policy,
                    "workload": point.workload,
                    "ipc": point.ipc,
                    "coverage": {
                        "rate": point.coverage,
                        "interval": list(point.coverage_interval),
                        "trials": point.coverage_trials,
                    },
                    "sdc": {"total": point.sdc, "unchecked": point.sdc_unchecked},
                    "injections": point.injections,
                }
                for point in self.points
            ],
        }

    def write(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(self.payload(), indent=2, sort_keys=True) + "\n"
        )


def _resolve_policies(specs) -> list[ProtectionPolicy]:
    return [parse_policy(spec) for spec in specs]


def run_frontier(
    scale: Scale | None = None,
    policies=DEFAULT_POLICIES,
    workload_names=DEFAULT_WORKLOADS,
    injections: int = DEFAULT_INJECTIONS,
    seed: int = 0,
    jobs: int = 1,
    runner: Runner | None = None,
    resume: bool = False,
    cache_root: str | None = None,
    progress_stream=None,
) -> FrontierResult:
    """Sweep the (policy x workload) grid; see the module docstring.

    ``runner`` supplies the IPC side (and its persistent sample cache);
    the coverage side checkpoints through the campaign cache under
    ``cache_root`` exactly like ``repro campaign`` (``resume=True``
    serves completed injections from it).
    """
    scale = scale or (runner.scale if runner else current_scale())
    runner = runner or Runner(scale)
    resolved = _resolve_policies(policies)
    workloads = [by_name(name) for name in workload_names]

    # IPC side first: one prefetch batch across the whole grid.
    reunion = scale.config.with_redundancy(mode=Mode.REUNION)
    ipc_configs = {
        policy.describe(): reunion.with_protection(policy) for policy in resolved
    }
    runner.prefetch(
        [
            (config, workload)
            for config in ipc_configs.values()
            for workload in workloads
        ],
        jobs=jobs,
        show_progress=progress_stream is not None,
    )

    points: list[FrontierPoint] = []
    for policy in resolved:
        label = policy.describe()
        for workload in workloads:
            ipc = runner.mean_ipc(ipc_configs[label], workload)
            campaign = run_campaign(
                workload.name,
                injections,
                seed=seed,
                config=campaign_config(policy=policy),
                workers=jobs,
                resume=resume,
                cache_root=cache_root,
                allow_partial=True,
                progress=(
                    Progress(total=injections, stream=progress_stream)
                    if progress_stream is not None
                    else None
                ),
            )
            stats = campaign.stats
            points.append(
                FrontierPoint(
                    policy=label,
                    workload=workload.name,
                    ipc=ipc,
                    coverage=stats.coverage,
                    coverage_interval=stats.coverage_interval,
                    coverage_trials=stats.coverage_trials,
                    sdc=stats.buckets["sdc"],
                    sdc_unchecked=stats.sdc_unchecked,
                    injections=stats.injections,
                )
            )
    return FrontierResult(
        scale_name=scale.name, seed=seed, points=tuple(points)
    )


if __name__ == "__main__":  # pragma: no cover
    print(run_frontier().render())
