"""ProtectionPolicy schema, spec parsing, policy resolution, cache keys.

Behavioral tests (what each policy does to a running pair) live in
tests/core/test_protection_policies.py; this module covers the API
surface: the frozen policy dataclass and its validation, the
``mode[:params]`` spec grammar, per-pair policy resolution, and the
cache-key contract (policies are result-affecting and hashed; the replay
bit, ``SimOptions.execution``, is result-neutral and never hashed).
"""

import pytest

from repro.exec.jobs import SampleJob
from repro.isa import assemble
from repro.sim.cmp import CMPSystem
from repro.sim.config import (
    PAPER_TABLE1,
    Mode,
    ProtectionPolicy,
    apply_env_protection,
    parse_policy,
    resolve_pair_policies,
)
from repro.sim.options import SimOptions
from tests.core.helpers import SMALL

REUNION = SMALL.with_redundancy(mode=Mode.REUNION)


class TestPolicyValidation:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="protection mode"):
            ProtectionPolicy(mode="paranoid")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mode": "full", "mute_width": 2},
            {"mode": "full", "checked_fraction": 0.5},
            {"mode": "little-mute", "mute_width": 2, "checked_fraction": 0.5},
            {"mode": "unprotected", "off_threshold": 1},
            {"mode": "interval-sampled", "checked_fraction": 0.5, "on_threshold": 1},
        ],
    )
    def test_params_bound_to_their_mode(self, kwargs):
        with pytest.raises(ValueError, match="only applies to mode"):
            ProtectionPolicy(**kwargs)

    @pytest.mark.parametrize("width", [None, 0, -1])
    def test_little_mute_needs_positive_width(self, width):
        with pytest.raises(ValueError, match="mute_width"):
            ProtectionPolicy(mode="little-mute", mute_width=width)

    @pytest.mark.parametrize("fraction", [None, 0.0, 1.0, -0.25, 1.5])
    def test_sampled_fraction_strictly_interior(self, fraction):
        # The endpoints are spelled 'unprotected' and 'full'; a sampled
        # policy that checks nothing or everything is a config bug.
        with pytest.raises(ValueError, match="checked_fraction"):
            ProtectionPolicy(mode="interval-sampled", checked_fraction=fraction)

    @pytest.mark.parametrize(
        "off,on,length",
        [
            (0, 0, 4),  # off_threshold < 1
            (4, 5, 4),  # on > off: oscillation, not hysteresis
            (4, -1, 4),  # negative on_threshold
            (4, 2, 0),  # empty off-window
        ],
    )
    def test_dynamic_threshold_constraints(self, off, on, length):
        with pytest.raises(ValueError, match="dynamic"):
            ProtectionPolicy(
                mode="dynamic",
                off_threshold=off,
                on_threshold=on,
                off_intervals=length,
            )

    def test_dynamic_equal_thresholds_allowed(self):
        policy = ProtectionPolicy.dynamic(3, 3, 2)
        assert policy.off_threshold == policy.on_threshold == 3


class TestConfigValidation:
    def test_policies_require_reunion(self):
        with pytest.raises(ValueError, match="REUNION"):
            SMALL.with_redundancy(mode=Mode.NONREDUNDANT).with_protection(
                ProtectionPolicy.full()
            )

    def test_one_policy_per_pair(self):
        with pytest.raises(ValueError, match="one policy per logical pair"):
            REUNION.replace(n_logical=2, pair_policies=(ProtectionPolicy.full(),))

    def test_entries_must_be_policies(self):
        with pytest.raises(ValueError, match="not a ProtectionPolicy"):
            REUNION.replace(pair_policies=("full",))

    def test_little_mute_cannot_exceed_core_width(self):
        too_wide = ProtectionPolicy.little_mute(SMALL.core.width + 1)
        with pytest.raises(ValueError, match="exceeds the core width"):
            REUNION.with_protection(too_wide)

    def test_checks_everything(self):
        assert ProtectionPolicy.full().checks_everything
        assert ProtectionPolicy.little_mute(2).checks_everything
        assert not ProtectionPolicy.interval_sampled(0.5).checks_everything
        assert not ProtectionPolicy.unprotected().checks_everything
        assert not ProtectionPolicy.dynamic().checks_everything


class TestSpecGrammar:
    @pytest.mark.parametrize(
        "spec",
        [
            "full",
            "little-mute:2",
            "little-mute:1",
            "interval-sampled:0.5",
            "interval-sampled:0.25",
            "dynamic:8,2,16",
            "dynamic:3,3,1",
            "unprotected",
        ],
    )
    def test_round_trips_with_describe(self, spec):
        assert parse_policy(spec).describe() == spec

    def test_defaults_fill_omitted_params(self):
        assert parse_policy("little-mute") == ProtectionPolicy.little_mute(2)
        assert parse_policy("interval-sampled") == (
            ProtectionPolicy.interval_sampled(0.5)
        )
        assert parse_policy("dynamic") == ProtectionPolicy.dynamic()

    @pytest.mark.parametrize(
        "spec",
        [
            "",
            "bogus",
            "full:2",  # full takes no params
            "unprotected:0",
            "little-mute:0",
            "little-mute:wide",
            "interval-sampled:1.5",
            "dynamic:1",  # needs all three params
            "dynamic:4,5,4",  # on > off
        ],
    )
    def test_bad_specs_raise(self, spec):
        with pytest.raises(ValueError, match="protection"):
            parse_policy(spec)


class TestOptionsUnification:
    def test_resolution_defaults_to_full_per_pair(self):
        policies = resolve_pair_policies(REUNION.replace(n_logical=3))
        assert policies == (ProtectionPolicy.full(),) * 3

    def test_explicit_policies_win_over_execution(self):
        config = REUNION.with_protection(ProtectionPolicy.little_mute(2))
        assert resolve_pair_policies(config) == config.pair_policies
        for execution in ("dual", "replay"):
            system = CMPSystem(
                config, [assemble("halt")], options=SimOptions(execution=execution)
            )
            assert system.pair_policies == config.pair_policies


class TestEnvOverride:
    def test_unset_is_identity(self):
        assert apply_env_protection(REUNION, {}) is REUNION

    def test_spec_applies_uniformly(self):
        config = apply_env_protection(
            REUNION.replace(n_logical=2), {"REPRO_PROTECTION": "little-mute:2"}
        )
        assert config.pair_policies == (ProtectionPolicy.little_mute(2),) * 2

    def test_non_reunion_untouched(self):
        flat = SMALL.with_redundancy(mode=Mode.NONREDUNDANT)
        assert (
            apply_env_protection(flat, {"REPRO_PROTECTION": "little-mute"}) is flat
        )

    def test_explicit_policies_not_overridden(self):
        pinned = REUNION.with_protection(ProtectionPolicy.interval_sampled(0.5))
        assert (
            apply_env_protection(pinned, {"REPRO_PROTECTION": "unprotected"})
            is pinned
        )

    def test_wide_little_mute_clamped_to_core_width(self):
        config = apply_env_protection(
            REUNION, {"REPRO_PROTECTION": f"little-mute:{SMALL.core.width + 2}"}
        )
        assert config.pair_policies[0].mute_width == SMALL.core.width


def _job(config, options=None):
    return SampleJob(
        config=config, workload_name="compute-kernel", seed=0,
        warmup=100, measure=200, options=options,
    )


class TestCacheKeys:
    def test_same_policy_same_key(self):
        policy = ProtectionPolicy.interval_sampled(0.5)
        first = _job(REUNION.with_protection(policy))
        second = _job(REUNION.with_protection(ProtectionPolicy.interval_sampled(0.5)))
        assert first.key == second.key

    def test_different_policies_different_keys(self):
        keys = {
            _job(REUNION.with_protection(parse_policy(spec))).key
            for spec in (
                "full",
                "little-mute:2",
                "interval-sampled:0.5",
                "dynamic:8,2,16",
                "unprotected",
            )
        }
        assert len(keys) == 5

    def test_options_protection_never_touches_keys(self):
        # The replay bit picks between two bit-identical execution
        # strategies, so it must never fragment the sample cache.
        config = REUNION.with_protection(ProtectionPolicy.interval_sampled(0.5))
        bare = _job(config)
        dual = _job(config, options=SimOptions(execution="dual"))
        replay = _job(config, options=SimOptions(execution="replay"))
        assert bare.key == dual.key == replay.key

    def test_keys_pinned(self):
        """Two fixed jobs keep their keys; moving them needs a schema bump.

        No environment variable rewrites ``PAPER_TABLE1``, so these hold
        on every CI leg.
        """
        reunion = PAPER_TABLE1.with_redundancy(mode=Mode.REUNION)
        mixed = reunion.replace(
            pair_policies=tuple(
                parse_policy(spec)
                for spec in ("full", "interval-sampled:0.5", "little-mute:2", "dynamic")
            )
        )
        keys = [
            SampleJob(config, "compute-kernel", 0, 2000, 28000).key
            for config in (reunion, mixed)
        ]
        assert keys == [
            "35b5f949525a89f9eb2e198211cd6bada7009b33a6b4842742555d87dbb20447",
            "51c732cd2cd2581f2744ed4d418326c03ae67bce8d9690eb2c598e42d15280c0",
        ]
