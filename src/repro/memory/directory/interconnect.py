"""Point-to-point interconnect timing: links plus per-bank WRR arbiters.

The directory backend has no broadcast medium; requests travel
requester→home over a dedicated link, and each home bank arbitrates its
single service port among requester classes with weighted round-robin.
Timing is computed analytically (no queued message objects): a request
*arrives* one link after issue, is *granted* a service slot by the
bank's arbiter, and the reply crosses one link back (two when the home
forwards through an owner or sharer cache).

The arbiter's contract matters for the snoopy-equivalence proof: a
class with weight 0 is exempt from credit accounting and degenerates to
plain FCFS — ``grant(cls, t)`` is then exactly
``start = max(t, free); free = start + occupancy``, the same recurrence
as :meth:`repro.memory.snoopy.SnoopyBus._arbitrate`.  With one bank and
zero link latency the whole interconnect is therefore cycle-identical
to the shared bus.
"""

from __future__ import annotations

from repro.sim.config import BusConfig

#: Requester classes the arbiter distinguishes.  Vocal traffic is the
#: architecturally required stream; mute (phantom) traffic is best-
#: effort, so stock configs weight it down rather than out.
VOCAL = "vocal"
MUTE = "mute"


class WRRArbiter:
    """Weighted round-robin over one home bank's service port.

    Each round gives class ``c`` ``weights[c]`` service credits.  A
    grant consumes one credit; a request arriving with its class's
    credits exhausted loses its turn — it waits out one extra occupancy
    slot (the bandwidth the competing class is entitled to) and a fresh
    round begins.  This is an analytic approximation of a slotted WRR
    schedule: it preserves the bandwidth ratio and is deterministic,
    which is all the simulation contract needs.

    Weight 0 exempts a class from credit accounting entirely (plain
    FCFS) — the degenerate setting the snoopy-equivalence tests rely on.
    """

    __slots__ = ("weights", "occupancy", "_free", "_credits", "deferrals")

    def __init__(self, weights: dict[str, int], occupancy: int) -> None:
        self.weights = dict(weights)
        self.occupancy = occupancy
        self._free = 0
        self._credits = dict(weights)
        #: Grants that lost their turn (diagnostic; feeds dir.grant obs).
        self.deferrals = 0

    def grant(self, cls: str, arrival: int) -> int:
        """Grant a service slot; returns the slot's start cycle."""
        start = arrival if arrival > self._free else self._free
        weight = self.weights.get(cls, 0)
        if weight:
            if self._credits.get(cls, 0) <= 0:
                # Out of credits this round: yield one slot to the
                # competing class, then start a fresh round.
                start += self.occupancy
                self._credits = dict(self.weights)
                self.deferrals += 1
            self._credits[cls] -= 1
        self._free = start + self.occupancy
        return start

    @property
    def free_at(self) -> int:
        return self._free


class Interconnect:
    """Bank mapping, link latency, and one arbiter per home bank."""

    __slots__ = ("n_banks", "link", "arbiters")

    def __init__(self, config: BusConfig) -> None:
        self.n_banks = config.dir_banks
        self.link = config.link_latency
        weights = {
            VOCAL: config.wrr_vocal_weight,
            MUTE: config.wrr_mute_weight,
        }
        self.arbiters = [
            WRRArbiter(weights, config.bus_occupancy) for _ in range(self.n_banks)
        ]

    def request(self, line_addr: int, cls: str, now: int) -> tuple[int, int]:
        """Deliver a request to its home bank; returns (bank, start).

        ``start`` is the cycle the home begins servicing: one link of
        flight time plus whatever the bank's arbiter imposes.
        """
        bank = line_addr % self.n_banks
        start = self.arbiters[bank].grant(cls, now + self.link)
        return bank, start

    def respond(self, done: int, forwarded: bool = False) -> int:
        """Completion cycle after the reply crosses back to the requester.

        A direct home/memory reply is one hop; a reply forwarded through
        an owner or sharer cache is two (home→holder→requester).
        """
        return done + self.link * (2 if forwarded else 1)

    def deferrals(self) -> int:
        return sum(arbiter.deferrals for arbiter in self.arbiters)
