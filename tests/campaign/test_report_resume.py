"""Reports and resume: checkpointing through the exec cache.

The tentpole contract under test: a ``--resume`` re-run of a completed
campaign replans the identical job list, serves every outcome from the
checkpoint (zero simulations), and reproduces the text and JSON reports
byte for byte.
"""

import json

import pytest

from repro.campaign.outcome import DETECTED_RECOVERED, Outcome
from repro.campaign.plan import campaign_config, plan_campaign
from repro.campaign.report import render_report, report_payload, write_report
from repro.campaign.resume import OutcomeCache, campaign_cache, campaign_root
from repro.campaign.run import run_campaign
from repro.exec.cache import FreshWriteCache, NullCache

WINDOW = dict(commit_target=120, max_cycles=40_000)


def _outcome(**overrides):
    base = dict(
        classification=DETECTED_RECOVERED,
        victim="vocal",
        target="result",
        bit=17,
        inject_index=3,
        fired=True,
        absorbed=True,
        detected=True,
        cause="fingerprint",
        latency=6,
        aliased=False,
        flushed=False,
        unchecked=False,
        commits=120,
        cycles=900,
        recoveries=1,
        signature_matched=True,
    )
    base.update(overrides)
    return Outcome(**base)


class TestOutcomeCache:
    def test_round_trip(self, tmp_path):
        cache = OutcomeCache(tmp_path)
        job = plan_campaign("compute-kernel", 1, **WINDOW)[0]
        outcome = _outcome()
        cache.put(job, outcome)
        assert OutcomeCache(tmp_path).get(job) == outcome

    def test_corrupt_record_is_a_miss(self, tmp_path):
        cache = OutcomeCache(tmp_path)
        job = plan_campaign("compute-kernel", 1, **WINDOW)[0]
        cache.put(job, _outcome())
        # Corrupt the stored classification in place.
        record_path = cache.path(job)
        record = json.loads(record_path.read_text())
        record["outcome"]["classification"] = "exploded"
        record_path.write_text(json.dumps(record))
        assert OutcomeCache(tmp_path).get(job) is None
        assert not record_path.exists()  # corrupt records are discarded

    def test_missing_field_is_a_miss(self, tmp_path):
        cache = OutcomeCache(tmp_path)
        job = plan_campaign("compute-kernel", 1, **WINDOW)[0]
        cache.put(job, _outcome())
        record_path = cache.path(job)
        record = json.loads(record_path.read_text())
        del record["outcome"]["latency"]
        record_path.write_text(json.dumps(record))
        assert OutcomeCache(tmp_path).get(job) is None
        assert not record_path.exists()

    def test_fresh_write_cache_never_reads(self, tmp_path):
        inner = OutcomeCache(tmp_path)
        job = plan_campaign("compute-kernel", 1, **WINDOW)[0]
        fresh = FreshWriteCache(inner)
        fresh.put(job, _outcome())
        # The write went through to the checkpoint...
        assert OutcomeCache(tmp_path).get(job) is not None
        # ...but the fresh run never sees it.
        assert fresh.get(job) is None
        assert fresh.misses >= 1

    def test_campaign_cache_modes(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        assert isinstance(campaign_cache(False, tmp_path), FreshWriteCache)
        assert isinstance(campaign_cache(True, tmp_path), OutcomeCache)
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        assert isinstance(campaign_cache(True, tmp_path), NullCache)

    def test_campaign_root_is_sharded_from_samples(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert campaign_root() == tmp_path / "campaign"
        assert campaign_root(tmp_path / "elsewhere") == (
            tmp_path / "elsewhere" / "campaign"
        )


class TestResumeContract:
    def test_resume_serves_everything_from_checkpoint(self, tmp_path):
        kwargs = dict(
            seed=0,
            config=campaign_config(),
            workers=1,
            cache_root=tmp_path,
            **WINDOW,
        )
        first = run_campaign("compute-kernel", 6, resume=False, **kwargs)
        assert first.manifest.executed == 6
        assert first.manifest.hits == 0

        resumed = run_campaign("compute-kernel", 6, resume=True, **kwargs)
        assert resumed.manifest.executed == 0
        assert resumed.manifest.hits + resumed.manifest.memo_hits == 6
        assert resumed.outcomes == first.outcomes

        bits = kwargs["config"].redundancy.fingerprint_bits
        assert render_report(
            "compute-kernel", bits, resumed.stats, resumed.crosscheck
        ) == render_report("compute-kernel", bits, first.stats, first.crosscheck)
        assert report_payload(
            "compute-kernel", bits, 0, resumed.stats, resumed.crosscheck,
            resumed.outcomes,
        ) == report_payload(
            "compute-kernel", bits, 0, first.stats, first.crosscheck,
            first.outcomes,
        )

    def test_fresh_rerun_reexecutes_but_checkpoints(self, tmp_path):
        kwargs = dict(
            seed=0,
            config=campaign_config(),
            workers=1,
            cache_root=tmp_path,
            **WINDOW,
        )
        run_campaign("compute-kernel", 3, resume=False, **kwargs)
        again = run_campaign("compute-kernel", 3, resume=False, **kwargs)
        # Without --resume the checkpoint exists but is never consulted.
        assert again.manifest.executed == 3
        assert again.manifest.hits == 0


class TestReports:
    def test_text_report_names_every_bucket(self):
        outcomes = [_outcome(), _outcome(bit=3, latency=2)]
        from repro.campaign.stats import crosscheck_aliasing, summarize

        stats = summarize(outcomes)
        text = render_report("compute-kernel", 16, stats, crosscheck_aliasing(outcomes, 16))
        for bucket in ("masked", "detected_recovered", "sdc", "timeout"):
            assert bucket in text
        assert "coverage" in text and "aliasing" in text

    def test_json_report_is_canonical(self, tmp_path):
        outcomes = [_outcome()]
        from repro.campaign.stats import crosscheck_aliasing, summarize

        payload = report_payload(
            "compute-kernel", 16, 0, summarize(outcomes),
            crosscheck_aliasing(outcomes, 16), outcomes,
        )
        path = tmp_path / "report.json"
        write_report(path, payload)
        write_again = tmp_path / "again.json"
        write_report(write_again, payload)
        assert path.read_bytes() == write_again.read_bytes()
        decoded = json.loads(path.read_text())
        assert decoded["schema"] == 2
        assert decoded["buckets"]["detected_recovered"] == 1
        assert len(decoded["outcomes"]) == 1
