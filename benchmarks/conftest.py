"""Shared benchmark fixtures.

A single session-scoped :class:`~repro.harness.runs.Runner` memoizes
samples, so the non-redundant baseline and the Reunion/global runs are
simulated once and shared by every figure that needs them.  The runner
is additionally backed by the persistent result cache
(:mod:`repro.exec.cache`), so a repeated benchmark invocation replays
completed samples from ``.repro-cache/`` instead of re-simulating; set
``REPRO_NO_CACHE=1`` to force fresh simulation.

Scale selection: set ``REPRO_SCALE`` to ``quick`` (default), ``standard``
or ``paper`` before invoking ``pytest benchmarks/``.
"""

from __future__ import annotations

import pytest

from repro.exec.cache import default_cache
from repro.harness.runs import Runner, current_scale


@pytest.fixture(scope="session")
def scale():
    return current_scale()


@pytest.fixture(scope="session")
def runner(scale):
    return Runner(scale, cache=default_cache())
