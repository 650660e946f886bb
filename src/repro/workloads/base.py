"""Workload interface: programs plus TLB character per logical processor."""

from __future__ import annotations

import abc
from typing import Callable

from repro.isa.program import Program

#: Pure function of retired user-instruction index -> "ITLB miss here".
ITLBSchedule = Callable[[int], bool]


class Workload(abc.ABC):
    """One application from the evaluation suite (Table 2).

    A workload supplies one program per logical processor plus an
    optional synthetic instruction-TLB miss schedule modelling the large
    instruction footprints of commercial applications (this simulator's
    toy kernels cannot reproduce instruction-side footprints natively).
    Programs must be deterministic in ``seed`` — matched-pair sampling
    relies on the base and test systems running identical code.
    """

    #: Human-readable name, e.g. "DB2 OLTP".
    name: str = "workload"
    #: Figure 5 grouping: "Web", "OLTP", "DSS", or "Scientific".
    category: str = "Uncategorized"

    @abc.abstractmethod
    def programs(self, n_logical: int, seed: int = 0) -> list[Program]:
        """Build the per-logical-processor programs."""

    def itlb_schedules(self, n_logical: int, seed: int = 0) -> list[ITLBSchedule | None]:
        """Synthetic ITLB miss schedules; default none."""
        return [None] * n_logical

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} {self.name}>"


#: Memoized decision tables keyed by (threshold, mix).  The schedule is a
#: pure function of its parameters, and every core of every run in a
#: campaign with the same (rate, seed) shares one table — the vocal and
#: mute of a pair, and repeated warmup/measure phases, hit the same
#: indices, so the 64-bit mix hash runs once per index process-wide.
_SCHED_TABLES: dict[tuple[int, int], bytearray] = {}
_SCHED_BLOCK = 4096


def hashed_schedule(rate_per_kinstr: float, seed: int) -> ITLBSchedule | None:
    """A deterministic pseudo-random schedule firing at a given rate.

    The decision is a pure hash of the retired-instruction index, so the
    vocal and mute cores of a pair trigger at identical program points —
    a requirement for keeping their retired instruction streams aligned.
    """
    if rate_per_kinstr <= 0:
        return None
    threshold = int(rate_per_kinstr / 1000.0 * (1 << 32))
    mix = 0x9E3779B97F4A7C15 ^ (seed * 0xBF58476D1CE4E5B9)
    table = _SCHED_TABLES.setdefault((threshold, mix), bytearray())

    def schedule(index: int) -> bool:
        if index >= len(table):
            # Fill forward in blocks: one bigint hash per index, ever.
            start = len(table)
            for i in range(start, index + _SCHED_BLOCK):
                h = (i * 0x94D049BB133111EB) ^ mix
                h ^= h >> 31
                h = (h * 0xD6E8FEB86659FD93) & ((1 << 64) - 1)
                table.append((h >> 32) < threshold)
        return table[index]

    # The retire stage indexes the table directly when it can (calling
    # back in only to extend it) — see OoOCore._flat_walk.
    schedule.table = table
    return schedule
