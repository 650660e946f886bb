"""Ablation: fingerprint aliasing — one-stage vs two-stage compression.

Section 4.3: parity-tree folding before the CRC doubles the aliasing
probability, bounding it at 2^-(N-1) for an N-bit CRC.  This bench
measures empirical aliasing over random update pairs for both schemes
and checks the bound (with sampling slack).
"""

import random

from repro.core.fingerprint import fingerprint_words
from repro.harness.report import render_table

TRIALS = 60_000


def _aliasing(bits: int, two_stage: bool, rng: random.Random) -> float:
    collisions = 0
    for _ in range(TRIALS):
        a, b = rng.getrandbits(64), rng.getrandbits(64)
        if a != b and fingerprint_words([a], bits, two_stage) == fingerprint_words(
            [b], bits, two_stage
        ):
            collisions += 1
    return collisions / TRIALS


def test_fingerprint_aliasing():
    rng = random.Random(2006)

    def measure():
        rows = []
        for bits in (8, 12, 16):
            one = _aliasing(bits, two_stage=False, rng=rng)
            two = _aliasing(bits, two_stage=True, rng=rng)
            rows.append((bits, one, two, 2 ** -(bits - 1)))
        return rows

    rows = measure()
    print()
    print(
        render_table(
            "Ablation — empirical fingerprint aliasing probability",
            ["CRC bits", "one-stage", "two-stage", "bound 2^-(N-1)"],
            [
                [bits, f"{one:.2e}", f"{two:.2e}", f"{bound:.2e}"]
                for bits, one, two, bound in rows
            ],
            "Two-stage (parity trees + CRC) aliasing stays within the "
            "paper's 2^-(N-1) bound.",
        )
    )
    for bits, _one, two, bound in rows:
        # Allow generous sampling slack on rare events.
        slack = 4.0 if bits < 16 else 20.0
        assert two <= bound * slack, f"{bits}-bit two-stage aliasing above bound"
