"""Workloads: the paper's Table 2 application suite, reproduced.

Seven commercial workloads (statistically parameterized synthetic
generators) and four scientific kernels (real data structures, real
sharing patterns).  ``suite()`` returns all eleven in Figure 5's order.
"""

from repro.workloads.base import ITLBSchedule, Workload, hashed_schedule
from repro.workloads.commercial import (
    APACHE,
    COMMERCIAL_PROFILES,
    DB2_DSS_Q1,
    DB2_DSS_Q2,
    DB2_DSS_Q17,
    DB2_OLTP,
    ORACLE_OLTP,
    ZEUS,
    commercial_suite,
)
from repro.workloads.micro import micro_suite
from repro.workloads.scientific import Em3d, Moldyn, Ocean, Sparse, scientific_suite
from repro.workloads.synthetic import SyntheticWorkload, WorkloadProfile


def suite() -> list[Workload]:
    """All eleven workloads: Web, OLTP, DSS, then Scientific."""
    return [*commercial_suite(), *scientific_suite()]


#: One instance per lowercased name, Table 2 suite and micros alike.
#: Workloads are stateless (programs are a pure function of ``seed``), so
#: sharing an instance is result-neutral, and the generation memo
#: (:mod:`repro.sim.sampling`) is keyed by instance: it hits for the jobs
#: of one workload that run in turn in one process, a serial batch or the
#: pool's parent preparing its jobs.
_BY_NAME: dict[str, Workload] = {}


def by_name(name: str) -> Workload:
    """Look a workload up by name (case-insensitive): Table 2 or a micro."""
    if not _BY_NAME:
        for workload in [*suite(), *micro_suite()]:
            _BY_NAME[workload.name.lower()] = workload
    try:
        return _BY_NAME[name.lower()]
    except KeyError:
        raise KeyError(f"unknown workload {name!r}") from None


__all__ = [
    "APACHE",
    "COMMERCIAL_PROFILES",
    "DB2_DSS_Q1",
    "DB2_DSS_Q17",
    "DB2_DSS_Q2",
    "DB2_OLTP",
    "Em3d",
    "ITLBSchedule",
    "Moldyn",
    "ORACLE_OLTP",
    "Ocean",
    "Sparse",
    "SyntheticWorkload",
    "Workload",
    "WorkloadProfile",
    "ZEUS",
    "by_name",
    "commercial_suite",
    "hashed_schedule",
    "scientific_suite",
    "suite",
]
