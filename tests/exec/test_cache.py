"""Persistent result cache: round-trips, corruption recovery, env config."""

import dataclasses
import json

from repro.exec.cache import (
    DEFAULT_CACHE_DIR,
    NullCache,
    ResultCache,
    decode_sample,
    default_cache,
    encode_sample,
)
from repro.exec.jobs import SampleJob
from repro.sim.config import DEFAULT_CONFIG
from repro.sim.sampling import Sample

JOB = SampleJob(
    config=DEFAULT_CONFIG.replace(n_logical=2),
    workload_name="ocean",
    seed=0,
    warmup=80,
    measure=160,
)
SAMPLE = Sample(
    cycles=160,
    user_instructions=300,
    recoveries=1,
    tlb_misses=2,
    sync_requests=3,
    serializing=4,
)


class TestRoundTrip:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get(JOB) is None
        cache.put(JOB, SAMPLE)
        assert cache.get(JOB) == SAMPLE
        assert cache.misses == 1 and cache.hits == 1
        assert len(cache) == 1

    def test_survives_across_instances(self, tmp_path):
        ResultCache(tmp_path).put(JOB, SAMPLE)
        assert ResultCache(tmp_path).get(JOB) == SAMPLE

    def test_every_put_is_then_a_hit(self, tmp_path):
        # 100 keys over 256 shard directories: several share one.
        jobs = [dataclasses.replace(JOB, seed=seed) for seed in range(100)]
        cache = ResultCache(tmp_path)
        for job in jobs:
            cache.put(job, SAMPLE)
        assert all(cache.get(job) == SAMPLE for job in jobs)
        assert cache.hits == len(cache) == len(jobs)

    def test_sample_codec_roundtrip(self):
        assert decode_sample(encode_sample(SAMPLE)) == SAMPLE

    def test_record_is_debuggable_json(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(JOB, SAMPLE)
        record = json.loads(cache.path(JOB).read_text())
        assert record["job"]["workload"] == "ocean"
        assert record["sample"]["user_instructions"] == 300


class TestCorruptionRecovery:
    def test_corrupt_record_is_a_miss_and_removed(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(JOB, SAMPLE)
        cache.path(JOB).write_text("{ not json")
        assert cache.get(JOB) is None
        assert not cache.path(JOB).exists()
        cache.put(JOB, SAMPLE)  # fresh result takes its place
        assert cache.get(JOB) == SAMPLE

    def test_wrong_schema_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(JOB, SAMPLE)
        record = json.loads(cache.path(JOB).read_text())
        record["schema"] = -1
        cache.path(JOB).write_text(json.dumps(record))
        assert cache.get(JOB) is None

    def test_missing_sample_fields_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(JOB, SAMPLE)
        record = json.loads(cache.path(JOB).read_text())
        del record["sample"]["cycles"]
        cache.path(JOB).write_text(json.dumps(record))
        assert cache.get(JOB) is None


class TestEnvironment:
    def test_default_dir(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        monkeypatch.chdir(tmp_path)
        cache = default_cache()
        assert isinstance(cache, ResultCache)
        assert str(cache.root) == DEFAULT_CACHE_DIR

    def test_cache_dir_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        cache = default_cache()
        cache.put(JOB, SAMPLE)
        assert (tmp_path / "elsewhere").is_dir()
        assert cache.get(JOB) == SAMPLE

    def test_no_cache_opt_out(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        cache = default_cache()
        assert isinstance(cache, NullCache)
        cache.put(JOB, SAMPLE)
        assert cache.get(JOB) is None
        assert len(cache) == 0
