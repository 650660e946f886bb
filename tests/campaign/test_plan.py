"""Campaign planning: determinism, stratification, content-hash keys."""

from collections import Counter

import pytest

from repro.campaign.plan import (
    InjectionJob,
    InjectionSpec,
    available_targets,
    campaign_config,
    plan_campaign,
)
from repro.workloads import by_name


class TestSpecValidation:
    def test_bad_victim_rejected(self):
        with pytest.raises(ValueError, match="victim"):
            InjectionSpec("compute-kernel", 0, "bystander", "result", 0, 0)

    def test_bad_target_rejected(self):
        with pytest.raises(ValueError, match="target"):
            InjectionSpec("compute-kernel", 0, "vocal", "flags", 0, 0)

    def test_bad_bit_rejected(self):
        with pytest.raises(ValueError, match="bit"):
            InjectionSpec("compute-kernel", 0, "vocal", "result", 64, 0)


class TestPlanDeterminism:
    def test_identical_inputs_identical_keys(self):
        first = plan_campaign("compute-kernel", 24, seed=3)
        second = plan_campaign("compute-kernel", 24, seed=3)
        assert [job.key for job in first] == [job.key for job in second]
        assert [job.spec for job in first] == [job.spec for job in second]

    def test_seed_changes_every_drawn_site(self):
        first = plan_campaign("compute-kernel", 24, seed=0)
        second = plan_campaign("compute-kernel", 24, seed=1)
        assert {job.key for job in first}.isdisjoint(job.key for job in second)

    def test_key_covers_spec_and_config(self):
        job = plan_campaign("compute-kernel", 1)[0]
        other_spec = InjectionJob(
            config=job.config,
            spec=InjectionSpec(
                job.spec.workload_name,
                job.spec.seed,
                job.spec.victim,
                job.spec.target,
                bit=(job.spec.bit + 1) % 64,
                inject_index=job.spec.inject_index,
            ),
        )
        other_config = InjectionJob(
            config=campaign_config(fingerprint_bits=4), spec=job.spec
        )
        assert len({job.key, other_spec.key, other_config.key}) == 3


class TestStratification:
    def test_strata_filled_round_robin(self):
        jobs = plan_campaign("compute-kernel", 30, seed=0)
        strata = Counter((job.spec.victim, job.spec.target) for job in jobs)
        counts = strata.values()
        assert max(counts) - min(counts) <= 1
        assert {victim for victim, _ in strata} == {"vocal", "mute"}

    def test_bits_rotate_through_octets(self):
        jobs = plan_campaign("compute-kernel", 64, seed=0)
        vocal_result_bits = [
            job.spec.bit
            for job in jobs
            if job.spec.victim == "vocal" and job.spec.target == "result"
        ]
        octets = {bit // 8 for bit in vocal_result_bits}
        assert len(octets) >= len(vocal_result_bits) // 2

    def test_targets_limited_to_workload_mix(self):
        config = campaign_config()
        targets = available_targets(by_name("compute-kernel"), config)
        assert "result" in targets
        jobs = plan_campaign("compute-kernel", 12, seed=0)
        assert {job.spec.target for job in jobs} <= set(targets)

    def test_memory_workload_exposes_store_faults(self):
        config = campaign_config()
        targets = available_targets(by_name("stream"), config)
        assert "store_addr" in targets

    def test_rejects_empty_campaign(self):
        with pytest.raises(ValueError):
            plan_campaign("compute-kernel", 0)


class TestDescribe:
    def test_describe_names_the_site(self):
        job = plan_campaign("compute-kernel", 1, seed=0)[0]
        text = job.describe()
        assert "compute-kernel" in text
        assert f"bit{job.spec.bit}" in text
