"""Exact identities between configurations, as oracles.

Each identity says that a mechanism costs exactly what it claims, so two
differently built systems must agree on every statistic both define and
on the vocal cores' final register files, retire counts and cycles.
None of them needs a second implementation of anything:

* ``strict-latency-0`` — Strict's only cost is comparison latency, so
  Strict at latency 0 is the non-redundant system.  This compares the
  two retire gates, Strict's and the immediate one, against each other.
* ``unprotected`` — an unprotected pair's parked mute is invisible: the
  system equals a non-redundant one with the doubled L2 banks that
  ``CMPSystem`` gives every Reunion system.
* ``little-mute-full-width`` — a little mute at the full issue width is
  a full mute.
* ``dynamic-never-fires`` — a ``dynamic`` pair whose backlog never
  reaches its threshold is a ``full`` pair.

This test checks them on one web, one DSS and one scientific workload at
short windows; ``benchmarks/test_identities.py`` runs the same
comparison over all 11 Fig 5 workloads.  A candidate identity that does
not hold exactly is a finding, never a reason for a tolerance.
"""

from __future__ import annotations

import dataclasses
import functools

import pytest

from repro.exec.jobs import resolve_workload
from repro.harness.runs import QUICK
from repro.sim.config import Mode, SystemConfig, parse_policy
from repro.sim.sampling import run_sample_system


def _unprotected(base: SystemConfig) -> tuple[SystemConfig, SystemConfig]:
    l2 = dataclasses.replace(base.l2, banks=2 * base.l2.banks)
    return (
        base.with_redundancy(mode=Mode.REUNION).with_protection(
            parse_policy("unprotected")
        ),
        base.with_redundancy(mode=Mode.NONREDUNDANT).replace(l2=l2),
    )


#: name -> base config -> the two configs that must behave identically.
IDENTITIES = {
    "strict-latency-0": lambda base: (
        base.with_redundancy(mode=Mode.STRICT, comparison_latency=0),
        base.with_redundancy(mode=Mode.NONREDUNDANT),
    ),
    "unprotected": _unprotected,
    "little-mute-full-width": lambda base: (
        base.with_redundancy(mode=Mode.REUNION).with_protection(
            parse_policy(f"little-mute:{base.core.width}")
        ),
        base.with_redundancy(mode=Mode.REUNION),
    ),
    "dynamic-never-fires": lambda base: (
        base.with_redundancy(mode=Mode.REUNION).with_protection(
            parse_policy("dynamic:1000000,0,1")
        ),
        base.with_redundancy(mode=Mode.REUNION),
    ),
}


@functools.lru_cache(maxsize=None)
def _observe(config: SystemConfig, workload: str, warmup: int, measure: int) -> dict:
    """One seed-0 sample's statistics and vocal-core end state."""
    _, system = run_sample_system(config, resolve_workload(workload), warmup, measure)
    vocals = system.vocal_cores
    return {
        "stats": dict(system.collect_stats().snapshot()),
        "arf": [core.arf.snapshot() for core in vocals],
        "retired": [(core.user_retired, core.total_retired) for core in vocals],
        "cycles": [core.cycles for core in vocals],
    }


def assert_identity(
    identity: str, workload: str, base: SystemConfig, warmup: int, measure: int
) -> None:
    """Run both sides of ``identity`` on ``workload`` and compare them exactly."""
    left, right = (
        _observe(config, workload, warmup, measure)
        for config in IDENTITIES[identity](base)
    )
    shared = sorted(left["stats"].keys() & right["stats"].keys())
    assert shared, f"{identity} on {workload}: no statistic in common"
    differ = {
        key: (left["stats"][key], right["stats"][key])
        for key in shared
        if left["stats"][key] != right["stats"][key]
    }
    assert not differ, f"{identity} on {workload}: {differ}"
    for field in ("arf", "retired", "cycles"):
        assert left[field] == right[field], f"{identity} on {workload}: {field}"


@pytest.mark.parametrize("workload", ["Apache", "DB2 DSS Q1", "ocean"])
@pytest.mark.parametrize("identity", sorted(IDENTITIES))
def test_identity_holds(identity, workload):
    assert_identity(identity, workload, QUICK.config, warmup=400, measure=800)
