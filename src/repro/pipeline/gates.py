"""Retire gates: the policy boundary between pipeline and redundancy.

The out-of-order core hands completed instructions, in program order, to
its *retire gate*.  The gate decides when each may update architectural
state:

* :class:`ImmediateGate` — non-redundant execution: instructions retire
  the cycle after they are offered.
* ``StrictCheckGate`` (in :mod:`repro.core.strict`) — oracle strict input
  replication: fingerprints are compared against a virtual partner with
  identical timing, so only the comparison latency and the resulting
  buffering are modelled.
* ``CheckGate`` (in :mod:`repro.core.check_stage`) — real fingerprint
  exchange between the vocal and mute cores of a pair.

Keeping the gate abstract lets one pipeline implementation serve all
three execution models, which is exactly the paper's dual-use argument.
The gates read the core's flat ring directly, through the ``*_f``
methods, and hold no queue of their own: the ROB's in-check prefix is
the pending queue, and the core retires from its head.
"""

from __future__ import annotations

from typing import Protocol

from repro.pipeline.flat import M_INJECTED

#: Horizon sentinel for the cycle-skipping kernel: "no pending event".
#: Any real simulated cycle is far below this.
NEVER = 1 << 62


class RetireGate(Protocol):
    """What the core needs from a retirement-checking policy.

    The core identifies in-flight instructions by ring slot into its
    column arrays (see :mod:`repro.pipeline.flat`).  The ROB's oldest
    ``core._n_check`` entries are *in check*: offered to the gate, not
    yet retired.  At offer the gate writes each one's clearance into the
    ``f_chk`` column — an interval index ``k >= 0``, cleared once
    ``retire_at[k & retire_mask] <= now``, or a fixed cycle ``c`` stored
    as ``-1 - c`` — and the core's retire walk releases the ROB head
    while the head is cleared.
    """

    #: Retire time per interval, indexed by ``interval & retire_mask``;
    #: :data:`NEVER` while the interval is open or uncompared.
    retire_at: list[int]
    retire_mask: int

    def offer_f(self, core, slot: int, now: int) -> None:
        """The instruction in live ring slot ``slot`` (oldest, completed)
        enters the check stage; the gate stamps ``core.f_chk[slot]``."""

    def next_release_f(self, core, now: int) -> int:
        """Earliest cycle >= ``now`` at which this gate could release work.

        Conservative horizon for the cycle-skipping kernel: ``now`` means
        "may act on the very next step", :data:`NEVER` means the gate has
        no self-generated events (it can still be woken externally, e.g.
        by its pair partner's comparison).
        """

    def close_open(self, now: int) -> None:
        """A serializing instruction is waiting: end the open interval now.

        Section 4.4: "the fingerprint interval immediately ends to allow
        older instructions to retire" when a serializing instruction is
        encountered.
        """

    def flush(self) -> None:
        """Drop all pending check state (squash / recovery)."""

    @property
    def open_count(self) -> int:
        """User instructions in the currently-open fingerprint interval."""

    # Implementations also carry a ``users_offered`` attribute: the
    # *user* (non-injected) instructions offered and not squashed, that
    # is, the core's user instructions retired plus its user entries in
    # check.  The core's squash lowers it by the user offers it drops;
    # :meth:`flush` leaves it alone.  The core's offer loop consults it
    # to service external interrupts at the in-order offer boundary.


class ImmediateGate:
    """Non-redundant retirement: no checking, no added latency."""

    __slots__ = ("users_offered",)

    #: Every entry clears at its offer cycle, so the retire walk never
    #: reads an interval's retire time.
    retire_at: tuple = ()
    retire_mask = 0

    def __init__(self) -> None:
        #: User instructions offered and not squashed (interrupt offer
        #: boundary; see RetireGate).
        self.users_offered = 0

    def offer_f(self, core, slot: int, now: int) -> None:
        if not core.f_mask[slot] & M_INJECTED:
            self.users_offered += 1
        core.f_chk[slot] = -1 - now

    def close_open(self, now: int) -> None:
        pass  # no intervals without checking

    def flush(self) -> None:
        pass  # nothing is held outside the core's ROB

    def next_release_f(self, core, now: int) -> int:
        # Offered entries retire on the very next step; otherwise nothing.
        # The software TLB's squash at retirement can drop in-check
        # entries (``core._dropped``), but nothing on a core with this
        # gate reads that count: its only readers are CheckGate's horizon
        # and OoOCore.check_backlog, which only ``dynamic`` pairs call.
        return now if core._n_check else NEVER

    open_count = 0  # no fingerprint intervals without checking
