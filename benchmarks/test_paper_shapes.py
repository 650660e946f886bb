"""Benchmark: every paper artifact (Fig 5-7, Table 3, Section 5.5).

Run with ``pytest benchmarks/test_paper_shapes.py``.  Prints each
artifact's table and asserts the paper's claims about its shape, which
its result holds beside the table (``check()``; ``repro reproduce``
prints the same verdicts).
"""

import pytest

from repro.harness import ARTIFACTS


@pytest.mark.parametrize("name", list(ARTIFACTS))
def test_paper_shape(name, runner):
    result = ARTIFACTS[name](runner=runner)
    print()
    print(result.render())
    assert result.check() == []
