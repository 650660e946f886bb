"""Campaign orchestration over the execution pool.

The parent process plans the campaign, runs the golden reference once,
then fans the injected runs out over :class:`~repro.exec.pool.
ExecutionPool` workers.  The per-job runner is a :class:`CampaignRunner`
instance holding the shared config and golden reference — fork-started
workers inherit it by memory copy, and the serial fallback calls it
directly, so both paths execute the identical closure.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.campaign.outcome import GoldenReference, Outcome, golden_reference, run_injection
from repro.campaign.plan import InjectionJob, plan_campaign
from repro.campaign.resume import campaign_cache
from repro.campaign.stats import AliasingCrossCheck, CampaignStats, crosscheck_aliasing, summarize
from repro.exec.pool import ExecutionPool
from repro.exec.progress import Progress, RunManifest
from repro.sim.config import SystemConfig, partial_protection_modes


@dataclass
class CampaignRunner:
    """The pool's ``run_job`` callable for injection jobs."""

    golden: GoldenReference

    def __call__(self, job: InjectionJob) -> Outcome:
        return run_injection(job.config, job.spec, self.golden)


@dataclass(frozen=True)
class CampaignResult:
    """Everything one campaign invocation produced."""

    jobs: list[InjectionJob]
    outcomes: list[Outcome]  # plan order
    golden: GoldenReference
    stats: CampaignStats
    crosscheck: AliasingCrossCheck
    manifest: RunManifest


def run_campaign(
    workload_name: str,
    injections: int,
    seed: int = 0,
    config: SystemConfig | None = None,
    commit_target: int | None = None,
    max_cycles: int | None = None,
    workers: int = 1,
    resume: bool = False,
    cache_root: str | None = None,
    timeout: float | None = None,
    progress: Progress | None = None,
    allow_partial: bool = False,
) -> CampaignResult:
    """Plan, execute (or resume), and summarize one campaign.

    ``allow_partial`` gates configs whose pairs run a *partial*
    protection policy (interval-sampled / unprotected / dynamic).  The
    golden signature spans every commit in the window, including commits
    from intervals such a policy never checks, so the headline coverage
    number measures the policy's coverage gap as much as the
    fingerprint's strength.  That is exactly what the frontier sweep
    wants (it passes ``allow_partial=True`` and reports the unchecked
    escapes separately) and exactly what a plain ``repro campaign``
    report would misstate — so the default refuses loudly instead of
    printing a silently wrong report.
    """
    plan_kwargs = {}
    if commit_target is not None:
        plan_kwargs["commit_target"] = commit_target
    if max_cycles is not None:
        plan_kwargs["max_cycles"] = max_cycles
    jobs = plan_campaign(
        workload_name, injections, seed=seed, config=config, **plan_kwargs
    )
    config = jobs[0].config
    partial_modes = partial_protection_modes(config)
    if partial_modes and not allow_partial:
        raise ValueError(
            "campaign config has partial protection policies "
            f"({', '.join(partial_modes)}): the golden signature covers "
            "intervals these policies never check, so the plain campaign "
            "report would blame the fingerprint for policy coverage gaps. "
            "Use `repro frontier` to measure partial-policy coverage, or "
            "pass allow_partial=True if the unchecked-escape accounting "
            "is what you want."
        )

    golden = golden_reference(config, jobs[0].spec)
    cache = campaign_cache(resume, cache_root)
    pool = ExecutionPool(
        workers=workers, timeout=timeout, run_job=CampaignRunner(golden)
    )
    results, manifest = pool.run(jobs, cache=cache, progress=progress)
    outcomes = [results[job.key] for job in jobs]

    stats = summarize(outcomes)
    crosscheck = crosscheck_aliasing(
        outcomes, config.redundancy.fingerprint_bits
    )
    return CampaignResult(
        jobs=jobs,
        outcomes=outcomes,
        golden=golden,
        stats=stats,
        crosscheck=crosscheck,
        manifest=manifest,
    )
