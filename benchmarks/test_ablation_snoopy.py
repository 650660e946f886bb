"""Ablation: Reunion on a shared-cache CMP vs a snoopy-bus CMP.

Section 4.1: the execution model is implementation-agnostic — it works
at a Piranha-style shared cache controller or at a snoopy interface with
private caches (Montecito).  This bench runs the same workloads on both
organizations and checks the Reunion *overhead* (normalized to each
organization's own non-redundant baseline) is comparable: the execution
model's costs come from checking and loose coupling, not from the
coherence substrate.
"""

from repro.harness.report import render_table
from repro.sim.config import CacheStyle, Mode
from repro.workloads import by_name

WORKLOADS = ["Apache", "DB2 OLTP", "ocean"]


def test_snoopy_vs_shared(runner, scale):
    def measure():
        rows = []
        for name in WORKLOADS:
            workload = by_name(name)
            row = [name]
            for style in (CacheStyle.SHARED, CacheStyle.SNOOPY):
                reunion = scale.config.replace(cache_style=style).with_redundancy(
                    mode=Mode.REUNION, comparison_latency=10
                )
                row.append(runner.normalized_ipc(reunion, workload))
            rows.append(row)
        return rows

    rows = measure()
    print()
    print(
        render_table(
            "Ablation — Reunion overhead: shared-cache vs snoopy-bus CMP",
            ["Workload", "Shared L2", "Snoopy bus"],
            rows,
            "The execution model ports across coherence substrates "
            "(Section 4.1); overheads stay in the same band.",
        )
    )
    for name, shared_norm, snoopy_norm in rows:
        assert 0.4 < shared_norm <= 1.1, name
        assert 0.4 < snoopy_norm <= 1.1, name
        # Same ballpark on both substrates.
        assert abs(shared_norm - snoopy_norm) < 0.25, (name, shared_norm, snoopy_norm)
