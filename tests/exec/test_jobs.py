"""Job descriptors: key stability and sensitivity."""

import pytest

from repro.exec.jobs import SCHEMA_VERSION, SampleJob, run_job
from repro.sim.config import DEFAULT_CONFIG, Mode
from repro.sim.options import SimOptions
from repro.workloads import by_name

CONFIG = DEFAULT_CONFIG.replace(n_logical=2)


def job(**overrides) -> SampleJob:
    fields = dict(
        config=CONFIG, workload_name="ocean", seed=0, warmup=80, measure=160
    )
    fields.update(overrides)
    return SampleJob(**fields)


class TestKey:
    def test_stable_and_hex(self):
        a, b = job(), job()
        assert a.key == b.key
        assert len(a.key) == 64
        int(a.key, 16)  # valid hex

    def test_sensitive_to_every_field(self):
        base = job().key
        assert job(seed=1).key != base
        assert job(warmup=81).key != base
        assert job(measure=161).key != base
        assert job(workload_name="em3d").key != base
        reunion = CONFIG.with_redundancy(mode=Mode.REUNION)
        assert job(config=reunion).key != base

    def test_deep_config_changes_key(self):
        deeper = CONFIG.with_redundancy(comparison_latency=40)
        assert job(config=deeper).key != job().key

    def test_schema_version_in_payload(self):
        assert job().payload()["schema"] == SCHEMA_VERSION

    def test_options_never_change_key(self):
        # Every SimOptions field is result-neutral by contract, so a
        # cache populated with telemetry off (or under the other kernel
        # or execution strategy) serves armed runs.  This also pins the
        # legacy property that pre-options cache keys stay valid: the
        # payload gains no "options" entry at all.
        base = job()
        armed = job(
            options=SimOptions(
                kernel="naive",
                execution="dual",
                trace="full",
                trace_capacity=16,
                max_cycles=777,
            )
        )
        assert armed.key == base.key
        assert "options" not in armed.payload()
        assert armed.payload() == base.payload()

    def test_describe_names_the_point(self):
        text = job().describe()
        assert "ocean" in text and "seed0" in text and "80+160" in text


class TestResolveWorkload:
    """Jobs name their workload; ``by_name`` resolves it."""

    def test_suite_and_micro(self):
        assert by_name("ocean").name == "ocean"
        assert by_name("APACHE").name == "Apache"  # case-insensitive
        assert by_name("pointer-chase").name == "pointer-chase"

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            by_name("nope")


class TestRunJob:
    def test_matches_direct_run_sample(self):
        from repro.sim.sampling import run_sample

        direct = run_sample(CONFIG, by_name("ocean"), 80, 160, seed=0)
        assert run_job(job()) == direct

    def test_telemetry_armed_job_matches_disarmed(self):
        # The bit-identity contract, observed through the job layer.
        armed = job(options=SimOptions(trace="events"))
        assert run_job(armed) == run_job(job())
