"""Wire codec: jobs and results must round-trip with identical keys.

The service's dedup hinges on one invariant: a job reconstructed from
its wire rendering recomputes the submitter's content-hash key exactly.
These tests pin that for every job kind, across the awkward corners of
the config space (enums, nested dataclasses, ``pair_policies`` tuples).
Every config field travels, so the decoded config equals the submitted
one, not just its key.
"""

import dataclasses

import pytest

from repro.campaign.outcome import GoldenReference, Outcome
from repro.campaign.plan import plan_campaign
from repro.exec.jobs import SampleJob
from repro.serve.wire import (
    WireError,
    decode_dataclass,
    golden_from_wire,
    golden_to_wire,
    job_from_wire,
    job_to_wire,
    result_from_wire,
    result_to_wire,
)
from repro.sim.config import DEFAULT_CONFIG, Mode, ProtectionPolicy, SystemConfig
from repro.sim.sampling import Sample

CONFIG = DEFAULT_CONFIG.replace(n_logical=2)
REUNION = CONFIG.with_redundancy(mode=Mode.REUNION)

#: Configs spanning the corners the decoder has to get right.
CONFIGS = [
    CONFIG,
    REUNION,
    CONFIG.with_redundancy(mode=Mode.STRICT),
    # Per-pair policy mix: nested dataclasses inside an Optional tuple.
    REUNION.with_protection(
        (
            ProtectionPolicy(mode="full"),
            ProtectionPolicy(mode="little-mute", mute_width=2),
        )
    ),
    REUNION.with_protection(
        ProtectionPolicy(mode="interval-sampled", checked_fraction=0.25)
    ),
    REUNION.with_protection(
        ProtectionPolicy(
            mode="dynamic", off_threshold=48, on_threshold=16, off_intervals=4
        )
    ),
]


def _sample_job(config: SystemConfig, seed: int = 0) -> SampleJob:
    return SampleJob(config, "ocean", seed, warmup=80, measure=160)


class TestSampleJobs:
    @pytest.mark.parametrize("config", CONFIGS, ids=range(len(CONFIGS)))
    def test_round_trip_preserves_key(self, config):
        job = _sample_job(config)
        decoded = job_from_wire(job_to_wire(job))
        assert decoded.key == job.key
        assert decoded.config == job.config
        assert (decoded.workload_name, decoded.seed) == ("ocean", 0)

    def test_wire_is_the_canonical_payload(self):
        job = _sample_job(CONFIG)
        wire = job_to_wire(job)
        assert wire == {"kind": "sample", "job": job.payload()}

    def test_schema_mismatch_rejected(self):
        wire = job_to_wire(_sample_job(CONFIG))
        wire["job"]["schema"] = 9999
        with pytest.raises(WireError, match="schema"):
            job_from_wire(wire)


class TestInjectionJobs:
    def test_round_trip_preserves_key(self):
        jobs = plan_campaign("ocean", 6, seed=1, commit_target=200, max_cycles=4000)
        for job in jobs:
            decoded = job_from_wire(job_to_wire(job))
            assert decoded.key == job.key
            assert decoded.spec == job.spec
            assert decoded.config == job.config

    def test_schema_mismatch_rejected(self):
        job = plan_campaign("ocean", 1, commit_target=200, max_cycles=4000)[0]
        wire = job_to_wire(job)
        wire["job"]["schema"] = 9999
        with pytest.raises(WireError, match="schema"):
            job_from_wire(wire)


class TestMalformedWire:
    def test_unknown_kind(self):
        with pytest.raises(WireError, match="unknown job kind"):
            job_from_wire({"kind": "mystery", "job": {}})

    def test_missing_payload(self):
        with pytest.raises(WireError, match="payload"):
            job_from_wire({"kind": "sample"})

    def test_type_confusion_rejected(self):
        wire = job_to_wire(_sample_job(CONFIG))
        wire["job"]["config"]["n_logical"] = "two"
        with pytest.raises(WireError):
            job_from_wire(wire)

    def test_missing_required_field_rejected(self):
        with pytest.raises(WireError, match="missing required"):
            decode_dataclass(Outcome, {"classification": "masked"})


class TestResults:
    SAMPLE = Sample(
        cycles=160,
        user_instructions=300,
        recoveries=1,
        tlb_misses=2,
        sync_requests=3,
        serializing=4,
    )
    OUTCOME = Outcome(
        classification="masked",
        victim="vocal",
        target="dest_value",
        bit=3,
        inject_index=10,
        fired=True,
        absorbed=True,
        detected=False,
        cause=None,
        latency=None,
        aliased=False,
        flushed=False,
        unchecked=False,
        commits=500,
        cycles=2100,
        recoveries=0,
        signature_matched=True,
    )

    def test_sample_round_trip(self):
        wire = result_to_wire("sample", self.SAMPLE)
        assert result_from_wire("sample", wire) == self.SAMPLE

    def test_outcome_round_trip(self):
        wire = result_to_wire("injection", self.OUTCOME)
        assert result_from_wire("injection", wire) == self.OUTCOME

    def test_outcome_field_mismatch_rejected(self):
        wire = result_to_wire("injection", self.OUTCOME)
        del wire["latency"]
        with pytest.raises(WireError, match="field mismatch"):
            result_from_wire("injection", wire)

    def test_bad_classification_rejected(self):
        wire = result_to_wire("injection", self.OUTCOME)
        wire["classification"] = "melted"
        with pytest.raises(WireError, match="classification"):
            result_from_wire("injection", wire)

    def test_golden_round_trip(self):
        golden = GoldenReference(signature="ab" * 32, commits=500, cycles=2100)
        assert golden_from_wire(golden_to_wire(golden)) == golden
        assert dataclasses.asdict(golden) == golden_to_wire(golden)

    def test_golden_field_mismatch_rejected(self):
        with pytest.raises(WireError, match="golden"):
            golden_from_wire({"signature": "x"})
