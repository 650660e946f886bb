"""The host's speed, measured by fixed reference work beside the work.

The benchmark runs on a shared host whose neighbours' load makes the
same code run up to twice as slow from one minute to the next (see
bench/README.md, "Host speed").  So every timed piece of work is
bracketed by two *probes*: timings of fixed pure-Python work that no
change to ``src/`` can speed up or slow down.  A probe runs two parts,
an integer loop the interpreter keeps in its fastest caches and a walk
over 4 MiB of bytes that misses them, because the simulator slows by
more than the first alone and by less than the second alone.  A probe
reads 1 on an unloaded host and more on a loaded one: the geometric
mean of the two parts' times over their unloaded times.

A piece's time at nominal speed is its raw time over the mean of its
two probes; a child's speed factor is the time-weighted mean of the
inverse over its pieces.  Times at nominal speed drift far less than
raw ones.

Standard library only; nothing here depends on ``repro``.
"""

from __future__ import annotations

import math
import time

#: Iterations of the integer loop, and its time on an unloaded host (a
#: 2-vCPU Intel Xeon VM, Python 3.11): the fast end of its distribution.
LOOP_ROUNDS = 30_000
LOOP_NOMINAL_S = 0.0024
#: Steps of the memory walk, and its time on the same unloaded host.
WALK_STEPS = 8_000
WALK_NOMINAL_S = 0.0025

#: What the walk reads: 4 MiB, more than the host's per-core caches.  A
#: bytes object is not tracked by the garbage collector, and indexing
#: it yields cached small ints, so the probe allocates nothing the
#: collector sees and a bigger heap cannot slow it.
_WALKED = bytes(range(256)) * (1 << 14)


def _loop(rounds: int) -> int:
    total = 0
    for i in range(rounds):
        total += i * i & 1023
    return total


def _walk(steps: int) -> int:
    data = _WALKED
    mask = len(data) - 1
    index = total = 0
    for _ in range(steps):
        index = (index * 1103515245 + 12345 + data[index]) & mask
        total += data[index] & 15
    return total


def probe() -> float:
    """How slowly the host runs the reference work now (1 = unloaded)."""
    start = time.perf_counter()
    _loop(LOOP_ROUNDS)
    middle = time.perf_counter()
    _walk(WALK_STEPS)
    end = time.perf_counter()
    return math.sqrt((middle - start) / LOOP_NOMINAL_S * (end - middle) / WALK_NOMINAL_S)


def at_nominal(piece) -> float:
    """A ``(seconds, probe before, probe after)`` piece's time at nominal speed."""
    seconds, before, after = piece
    return seconds * 2 / (before + after)


def speed_factor(pieces) -> float:
    """Time-weighted mean over timed pieces of the speed their probes saw."""
    total = sum(seconds for seconds, _, _ in pieces)
    if total <= 0:
        raise ValueError("no timed work to weigh the probes by")
    return sum(at_nominal(piece) for piece in pieces) / total
