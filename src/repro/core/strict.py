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
as it closes.
"""

from __future__ import annotations

from repro.core.check_stage import CheckGate


class StrictCheckGate(CheckGate):
    """A check gate compared against an identically-timed virtual partner."""

    def _close(self, now: int) -> None:
        super()._close(now)
        # The virtual partner's fingerprint matches, generated at the
        # same cycle: retirement happens one comparison latency later
        # (clear_interval, inlined).
        record = self._closed.pop()
        self._retire_time[record.index] = now + self._cmp_latency
        self.fingerprints_compared += 1
