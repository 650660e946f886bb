#!/usr/bin/env python3
"""Regenerate every table and figure from the paper's evaluation.

One command, all results: Figure 5, Figure 6(a) and 6(b), Table 3,
Figure 7(a) and 7(b), and the Section 5.5 SC-vs-TSO experiment.

Usage::

    python examples/reproduce_paper.py                # quick scale
    REPRO_SCALE=standard python examples/reproduce_paper.py
    python examples/reproduce_paper.py --only fig5 table3
"""

import argparse
import time

from repro.harness import ARTIFACTS, Runner, current_scale


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--only",
        nargs="*",
        choices=list(ARTIFACTS),
        help="run a subset of the experiments",
    )
    args = parser.parse_args()

    scale = current_scale()
    runner = Runner(scale)
    print(
        f"Scale: {scale.name} (warmup {scale.warmup}, measure {scale.measure}, "
        f"{len(scale.seeds)} seed(s)).  Set REPRO_SCALE to change."
    )

    for name in args.only or list(ARTIFACTS):
        start = time.time()
        result = ARTIFACTS[name](runner=runner)
        print()
        print(result.render())
        print(f"[{name} took {time.time() - start:.0f}s]")


if __name__ == "__main__":
    main()
