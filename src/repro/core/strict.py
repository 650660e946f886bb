"""The Strict oracle: strict input replication with ideal timing.

Section 5.1 of the paper defines *Strict* as the oracle performance model
for all strict-input-replication designs (lockstep, LVQ): it imposes no
penalty for input replication itself — the virtual partner has identical
timing — while still modelling the fundamental costs of checking:

* every fingerprint waits one comparison latency before retirement, so
  instructions occupy the ROB longer (the resource-occupancy penalty that
  hurts the paper's scientific workloads), and
* serializing instructions still stall for the full comparison latency,
  because they may not execute until all older instructions have been
  compared and retired (the penalty that dominates commercial workloads).

Implementation: a :class:`CheckGate` whose partner always produces a
matching fingerprint at exactly the same cycle, so every interval clears
as it closes: the close writes its retire time directly and sends
nothing.
"""

from __future__ import annotations

from repro.core.check_stage import CheckGate
from repro.pipeline.gates import NEVER


class StrictCheckGate(CheckGate):
    """A check gate compared against an identically-timed virtual partner."""

    def _close(self, now: int) -> None:
        # The virtual partner's fingerprint matches, generated at the
        # same cycle: retirement happens one comparison latency later.
        # Never paired, so never single-stepped or partially protected.
        index = self._index
        retire_at = self.retire_at
        mask = self.retire_mask
        retire_at[index & mask] = now + self._cmp_latency
        retire_at[(index + 1) & mask] = NEVER
        self.fingerprints_compared += 1
        accum = self._accum
        obs = self.obs
        if obs is not None and obs.full:
            self._emit(
                "fingerprint.close",
                now,
                index=index,
                count=self._count,
                fingerprint=accum._crc,
            )
        accum._crc = 0  # reset(), inlined
        self._count = 0
        self._has_sync = False
        self._has_halt = False
        self._index = index + 1
        self.intervals_closed += 1
