"""Persistent result cache: round-trips, corruption recovery, env config."""

import dataclasses
import json
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec.cache import (
    DEFAULT_CACHE_DIR,
    QUARANTINE_DIR,
    CorruptRecord,
    NullCache,
    ResultCache,
    cache_stats,
    cache_verify,
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


def _stored_record() -> bytes:
    with tempfile.TemporaryDirectory() as root:
        cache = ResultCache(root)
        cache.put(JOB, SAMPLE)
        return cache.path(JOB).read_bytes()


STORED = _stored_record()

#: JSON values that are not objects: scalars, and lists of anything.
_NON_OBJECTS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda children: st.lists(children, max_size=3),
    max_leaves=6,
)

#: Three kinds of bad record: the stored record cut short, valid JSON
#: that is not an object, and the stored record with a byte that is
#: never UTF-8 put in.
BAD_RECORDS = st.one_of(
    st.integers(0, len(STORED) - 1).map(lambda n: STORED[:n]),
    _NON_OBJECTS.map(lambda value: json.dumps(value).encode()),
    st.integers(0, len(STORED)).map(lambda i: STORED[:i] + b"\xff" + STORED[i:]),
)


def check_bad_record(root, raw: bytes, schema="unreadable") -> None:
    """``stats`` counts ``raw`` under ``schema``, ``verify`` quarantines
    it, and ``get`` misses and drops it; none of them raises, and
    ``read`` raises only :class:`CorruptRecord`."""
    cache = ResultCache(root)
    path = cache.path(JOB)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(raw)
    if schema == "unreadable":
        with pytest.raises(CorruptRecord):
            cache.read(JOB.key)
    assert cache_stats(cache).by_schema == {schema: 1}
    assert cache_verify(cache) == (0, [JOB.key])
    assert (cache.root / QUARANTINE_DIR / f"{JOB.key}.json").read_bytes() == raw
    path.write_bytes(raw)
    assert cache.get(JOB) is None
    assert not path.exists()
    assert (cache.hits, cache.misses) == (0, 1)


class TestBadRecords:
    """ROADMAP 6(c), the codec part: a bad record is a miss or goes to
    quarantine, never a crash.  A flipped digit that still decodes to a
    different value is out of reach without a per-record checksum."""

    @given(raw=BAD_RECORDS)
    @settings(max_examples=100, deadline=None)
    def test_bad_records_are_missed_and_quarantined(self, raw):
        with tempfile.TemporaryDirectory() as root:
            check_bad_record(root, raw)

    def test_every_truncation_of_a_stored_record(self, tmp_path):
        for length in range(len(STORED)):
            check_bad_record(tmp_path / str(length), STORED[:length])

    def test_a_number_past_float_range_is_a_miss(self, tmp_path):
        record = json.loads(STORED)
        text = json.dumps(record).replace('"cycles": 160', '"cycles": 1e999')
        check_bad_record(tmp_path, text.encode(), schema=record["schema"])


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
