"""Experiment harness: one driver per table/figure in the paper.

:data:`ARTIFACTS` names each driver.  A driver is the one definition of
its artifact: :func:`plan` reads the points it samples from a recording
run, :meth:`Runner.normalized_ipc` fixes what it normalizes against, and
its result's ``check()`` holds what the paper claims about it.

| Name     | Paper artifact | Driver |
|----------|----------------|--------|
| `fig5`   | Figure 5       | :func:`repro.harness.fig5.run_fig5` |
| `fig6a`  | Figure 6(a)    | :func:`repro.harness.fig6.run_fig6` with ``Mode.STRICT`` |
| `fig6b`  | Figure 6(b)    | :func:`repro.harness.fig6.run_fig6` with ``Mode.REUNION`` |
| `table3` | Table 3        | :func:`repro.harness.table3.run_table3` |
| `fig7a`  | Figure 7(a)    | :func:`repro.harness.fig7.run_fig7a` |
| `fig7b`  | Figure 7(b)    | :func:`repro.harness.fig7.run_fig7b` |
| `sc`     | Section 5.5 SC | :func:`repro.harness.fig7.run_sc_comparison` |
"""

from functools import partial

from repro.harness.fig5 import Fig5Result, plan_fig5, run_fig5
from repro.harness.fig6 import Fig6Result, run_fig6
from repro.harness.frontier import (
    FrontierPoint,
    FrontierResult,
    run_frontier,
)
from repro.harness.fig7 import (
    Fig7aResult,
    Fig7bResult,
    SCResult,
    run_fig7a,
    run_fig7b,
    run_sc_comparison,
)
from repro.harness.report import render_series, render_table
from repro.harness.runs import (
    PAPER,
    QUICK,
    STANDARD,
    Runner,
    Scale,
    current_scale,
    plan,
    scale_by_name,
)
from repro.harness.table3 import Table3Result, run_table3
from repro.sim.config import Mode

#: The paper's evaluation artifacts in print order, each a driver called
#: as ``driver(runner=...)``.
ARTIFACTS = {
    "fig5": run_fig5,
    "fig6a": partial(run_fig6, Mode.STRICT),
    "fig6b": partial(run_fig6, Mode.REUNION),
    "table3": run_table3,
    "fig7a": run_fig7a,
    "fig7b": run_fig7b,
    "sc": run_sc_comparison,
}

__all__ = [
    "ARTIFACTS",
    "Fig5Result",
    "Fig6Result",
    "Fig7aResult",
    "Fig7bResult",
    "FrontierPoint",
    "FrontierResult",
    "PAPER",
    "QUICK",
    "Runner",
    "STANDARD",
    "SCResult",
    "Scale",
    "Table3Result",
    "current_scale",
    "plan",
    "plan_fig5",
    "render_series",
    "render_table",
    "run_fig5",
    "run_fig6",
    "run_fig7a",
    "run_fig7b",
    "run_frontier",
    "run_sc_comparison",
    "run_table3",
    "scale_by_name",
]
