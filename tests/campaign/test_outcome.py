"""Outcome classification: the golden reference and the taxonomy kernel."""

import dataclasses

import pytest

from repro.campaign.outcome import (
    DETECTED_RECOVERED,
    DETECTED_UNRECOVERABLE,
    MASKED,
    SDC,
    TAXONOMY,
    TIMEOUT,
    classify,
    golden_reference,
    run_injection,
)
from repro.campaign.plan import campaign_config, plan_campaign

#: A short commit window keeps each simulated run to a few milliseconds.
WINDOW = dict(commit_target=120, max_cycles=40_000)


def _jobs(injections, bits=16, seed=0):
    return plan_campaign(
        "compute-kernel",
        injections,
        seed=seed,
        config=campaign_config(fingerprint_bits=bits),
        **WINDOW,
    )


class TestClassifyKernel:
    """The pure precedence kernel: exactly one bucket per combination."""

    def test_unfired_is_masked(self):
        assert classify(False, False, 120, 120, True, False) == MASKED

    def test_failed_pair_is_due(self):
        assert classify(True, True, 40, 120, False, True) == DETECTED_UNRECOVERABLE

    def test_short_window_is_timeout(self):
        assert classify(True, False, 80, 120, False, False) == TIMEOUT

    def test_signature_mismatch_is_sdc_even_if_detected(self):
        # Corruption that retired before a later detection still escaped.
        assert classify(True, False, 120, 120, False, True) == SDC

    def test_detected_with_matching_signature_recovered(self):
        assert classify(True, False, 120, 120, True, True) == DETECTED_RECOVERED

    def test_undetected_matching_signature_is_masked(self):
        assert classify(True, False, 120, 120, True, False) == MASKED

    def test_every_combination_lands_in_taxonomy(self):
        for fired in (False, True):
            for failed in (False, True):
                for commits in (40, 120):
                    for matched in (False, True):
                        for detected in (False, True):
                            bucket = classify(
                                fired, failed, commits, 120, matched, detected
                            )
                            assert bucket in TAXONOMY


class TestGoldenReference:
    def test_reference_is_deterministic(self):
        spec = _jobs(1)[0].spec
        config = _jobs(1)[0].config
        first = golden_reference(config, spec)
        second = golden_reference(config, spec)
        assert first == second
        assert first.commits == spec.commit_target

    def test_reference_independent_of_injection_site(self):
        jobs = _jobs(4)
        reference = golden_reference(jobs[0].config, jobs[0].spec)
        other = golden_reference(jobs[0].config, jobs[3].spec)
        assert reference.signature == other.signature

    def test_impossible_window_raises(self):
        job = _jobs(1)[0]
        starved = dataclasses.replace(job.spec, max_cycles=20)
        with pytest.raises(RuntimeError, match="golden run"):
            golden_reference(job.config, starved)


class TestRunInjection:
    def test_detected_fault_restores_golden_stream(self):
        jobs = _jobs(8)
        golden = golden_reference(jobs[0].config, jobs[0].spec)
        outcomes = [run_injection(job.config, job.spec, golden) for job in jobs]
        assert all(outcome.classification in TAXONOMY for outcome in outcomes)
        detected = [
            outcome
            for outcome in outcomes
            if outcome.classification == DETECTED_RECOVERED
        ]
        # At CRC-16 on this window nearly every upset is caught; the
        # tier-1 contract needs at least one to exercise the full path.
        assert detected
        for outcome in detected:
            assert outcome.fired and outcome.detected
            assert outcome.signature_matched
            assert outcome.recoveries >= 1
            assert outcome.cause in (
                "fingerprint", "count", "timeout", "sync_divergence",
            )
            if outcome.cause in ("fingerprint", "count"):
                assert outcome.latency is not None and outcome.latency >= 0

    def test_outcome_carries_the_site(self):
        job = _jobs(1)[0]
        golden = golden_reference(job.config, job.spec)
        outcome = run_injection(job.config, job.spec, golden)
        assert outcome.victim == job.spec.victim
        assert outcome.target == job.spec.target
        assert outcome.bit == job.spec.bit
        assert outcome.inject_index == job.spec.inject_index
