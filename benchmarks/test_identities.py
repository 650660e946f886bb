"""Exact configuration identities over all 11 Fig 5 workloads.

The comparison is tier-1's (``tests/sim/test_identities.py``), which
checks it on three workloads at short windows; here it runs on every
Fig 5 workload at the selected scale's windows.  Two systems built
differently must agree exactly, so no tolerance applies at any scale.
"""

from __future__ import annotations

import pytest

from repro.workloads import suite
from tests.sim.test_identities import IDENTITIES, assert_identity


@pytest.mark.parametrize("workload", [workload.name for workload in suite()])
@pytest.mark.parametrize("identity", sorted(IDENTITIES))
def test_identity_holds(identity, workload, scale):
    assert_identity(identity, workload, scale.config, scale.warmup, scale.measure)
