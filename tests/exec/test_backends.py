"""Result-store storage: atomicity, maintenance, on-disk layout.

The concurrency tests race real processes, since atomic-publish claims
only mean anything across process boundaries.
"""

import dataclasses
import json
import multiprocessing
import os
import time

from repro.exec.cache import (
    QUARANTINE_DIR,
    ResultCache,
    cache_gc,
    cache_stats,
    cache_verify,
    maintenance_stores,
)
from repro.exec.jobs import SampleJob
from repro.sim.config import DEFAULT_CONFIG
from repro.sim.sampling import Sample


def _job(seed: int = 0) -> SampleJob:
    return SampleJob(
        config=DEFAULT_CONFIG.replace(n_logical=2),
        workload_name="ocean",
        seed=seed,
        warmup=80,
        measure=160,
    )


def _sample(n: int = 0) -> Sample:
    return Sample(
        cycles=160 + n,
        user_instructions=300,
        recoveries=1,
        tlb_misses=2,
        sync_requests=3,
        serializing=4,
    )


JOB = _job()
SAMPLE = _sample()


class TestSemantics:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get(JOB) is None
        cache.put(JOB, SAMPLE)
        assert cache.get(JOB) == SAMPLE
        assert len(cache) == 1

    def test_survives_across_instances(self, tmp_path):
        ResultCache(tmp_path).put(JOB, SAMPLE)
        assert ResultCache(tmp_path).get(JOB) == SAMPLE

    def test_overwrite_last_writer_wins(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(JOB, _sample(0))
        cache.put(JOB, _sample(7))
        assert cache.get(JOB) == _sample(7)
        assert len(cache) == 1

    def test_wrong_schema_is_a_miss_and_removed(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(JOB, SAMPLE)
        record = cache.read(JOB.key)
        record["schema"] = -1
        cache.write(JOB.key, record)
        assert cache.get(JOB) is None
        assert cache.read(JOB.key) is None  # dropped

    def test_corrupt_bytes_are_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(JOB, SAMPLE)
        cache.path(JOB).write_text("{ not json")
        assert cache.get(JOB) is None
        cache.put(JOB, SAMPLE)
        assert cache.get(JOB) == SAMPLE


class TestMaintenance:
    def test_stats(self, tmp_path):
        cache = ResultCache(tmp_path)
        for seed in range(3):
            cache.put(_job(seed), SAMPLE)
        stats = cache_stats(cache, "samples")
        assert stats.entries == 3
        assert stats.total_bytes > 0
        assert stats.by_schema == {cache.schema: 3}
        assert "entries : 3" in stats.render()

    def test_gc_by_age(self, tmp_path):
        cache = ResultCache(tmp_path)
        for seed in range(4):
            cache.put(_job(seed), SAMPLE)
        # Nothing is old enough yet.
        assert cache_gc(cache, older_than_s=3600) == (0, 0)
        assert len(cache) == 4
        # Everything is older than "now + an hour ago".
        removed, removed_bytes = cache_gc(
            cache, older_than_s=3600, now=time.time() + 7200
        )
        assert removed == 4 and removed_bytes > 0
        assert len(cache) == 0

    def test_verify_quarantines_corrupt_records(self, tmp_path):
        cache = ResultCache(tmp_path)
        good = [_job(seed) for seed in range(3)]
        for job in good:
            cache.put(job, SAMPLE)
        cache.path(good[0]).write_text("{ not json")
        ok, quarantined = cache_verify(cache)
        assert ok == 2
        assert quarantined == [good[0].key]
        # The corrupt record moved out of the store, raw bytes preserved.
        assert cache.read(good[0].key) is None
        parked = cache.root / QUARANTINE_DIR / f"{good[0].key}.json"
        assert parked.exists()
        assert b"not json" in parked.read_bytes()
        # Survivors still decode.
        assert cache.get(good[1]) == SAMPLE

    def test_verify_quarantines_undecodable_values(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(JOB, SAMPLE)
        record = cache.read(JOB.key)
        del record["sample"]["cycles"]
        cache.write(JOB.key, record)
        ok, quarantined = cache_verify(cache)
        assert ok == 0 and quarantined == [JOB.key]

    def test_maintenance_stores_cover_samples_and_campaign(self, tmp_path):
        stores = maintenance_stores(root=tmp_path)
        labels = [label for label, _ in stores]
        assert labels == ["samples", "campaign"]
        assert stores[1][1].root == tmp_path / "campaign"


# -- concurrent multi-process writers ---------------------------------------


def _writer(root, seed, value_tag, barrier, results):
    cache = ResultCache(root)
    job = _job(seed)
    barrier.wait()  # maximal overlap: both writers release together
    for n in range(20):
        cache.put(job, _sample(value_tag + n))
        got = cache.get(job)
        assert got is not None, "reader observed a half-written record"
    results.put((os.getpid(), job.key))


class TestConcurrentWriters:
    """Two processes racing the same key and distinct keys.

    Atomic-publish semantics: a concurrent reader never sees a torn
    record — every get during the race returns a fully-decoded sample
    (some writer's complete value), and after the dust settles the store
    holds exactly the expected record set.
    """

    def test_same_key_race(self, tmp_path):
        context = multiprocessing.get_context("fork")
        barrier = context.Barrier(2)
        results = context.Queue()
        workers = [
            context.Process(
                target=_writer, args=(tmp_path, 0, tag, barrier, results)
            )
            for tag in (0, 1000)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
            assert worker.exitcode == 0
        cache = ResultCache(tmp_path)
        # Last writer won whole-record: the surviving value is one of the
        # two final writes, not an interleaving.
        final = cache.get(_job(0))
        assert final in (_sample(19), _sample(1019))
        assert len(cache) == 1

    def test_distinct_keys_race(self, tmp_path):
        context = multiprocessing.get_context("fork")
        barrier = context.Barrier(2)
        results = context.Queue()
        workers = [
            context.Process(
                target=_writer, args=(tmp_path, seed, 0, barrier, results)
            )
            for seed in (1, 2)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
            assert worker.exitcode == 0
        cache = ResultCache(tmp_path)
        assert len(cache) == 2
        assert cache.get(_job(1)) == _sample(19)
        assert cache.get(_job(2)) == _sample(19)


class TestLegacyLayoutUnchanged:
    """The store must keep reading (and writing) the historic bytes."""

    def test_json_path_layout(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(JOB, SAMPLE)
        expected = tmp_path / JOB.key[:2] / f"{JOB.key}.json"
        assert expected.exists()
        # Byte format: json.dump(record, sort_keys=True), no indent.
        record = {
            "schema": cache.schema,
            "job": JOB.payload(),
            "sample": dataclasses.asdict(SAMPLE),
        }
        assert expected.read_text() == json.dumps(record, sort_keys=True)

    def test_pre_backend_record_reads_back(self, tmp_path):
        """A record written by hand in the legacy layout is a hit."""
        record = {
            "schema": ResultCache.schema,
            "job": JOB.payload(),
            "sample": dataclasses.asdict(SAMPLE),
        }
        path = tmp_path / JOB.key[:2] / f"{JOB.key}.json"
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps(record, sort_keys=True))
        assert ResultCache(tmp_path).get(JOB) == SAMPLE
