"""Translation lookaside buffers.

The reproduction uses identity address mapping — translation never changes
an address — but TLB *timing* is modelled faithfully because Section 5.5
of the paper shows that TLB misses are a dominant source of serializing
instructions in commercial workloads:

* a **hardware-managed** TLB pays a fixed fill latency on a miss;
* a **software-managed** TLB (UltraSPARC III) vectors to a fast-miss
  handler whose instruction sequence — two traps and three non-idempotent
  MMU operations around the TSB loads — is *injected into the pipeline*,
  where each serializing instruction stalls retirement for a full
  comparison latency under redundant execution (Figure 7(b)).
"""

from __future__ import annotations

from repro.sim.config import TLBConfig


class TLB:
    """A set-associative, LRU TLB over virtual page numbers."""

    __slots__ = ("entries", "assoc", "page_bits", "n_sets", "_sets", "_stamp", "_counter")

    def __init__(self, entries: int, assoc: int, page_bits: int) -> None:
        if entries % assoc:
            raise ValueError("TLB entries must be a multiple of associativity")
        self.entries = entries
        self.assoc = assoc
        self.page_bits = page_bits
        self.n_sets = entries // assoc
        self._sets: list[dict[int, bool]] = [{} for _ in range(self.n_sets)]
        self._stamp: dict[int, int] = {}
        self._counter = 0

    def page_of(self, addr: int) -> int:
        return addr >> self.page_bits

    def _set_of(self, page: int) -> int:
        # Hashed set index: fold high page bits in so widely separated,
        # identically aligned regions do not all collide in one set (as
        # real TLBs do with hashed or near-fully-associative indexing).
        return (page ^ (page >> 7) ^ (page >> 13)) % self.n_sets

    def lookup(self, addr: int) -> bool:
        """True on hit (updates LRU); False on miss (no fill)."""
        page = self.page_of(addr)
        cache_set = self._sets[self._set_of(page)]
        if page in cache_set:
            self._counter += 1
            self._stamp[page] = self._counter
            return True
        return False

    def fill(self, addr: int) -> None:
        """Install the translation for ``addr``'s page, evicting LRU."""
        page = self.page_of(addr)
        cache_set = self._sets[self._set_of(page)]
        if page not in cache_set and len(cache_set) >= self.assoc:
            victim = min(cache_set, key=lambda p: self._stamp.get(p, 0))
            del cache_set[victim]
            self._stamp.pop(victim, None)
        cache_set[page] = True
        self._counter += 1
        self._stamp[page] = self._counter

    def flush(self) -> None:
        for cache_set in self._sets:
            cache_set.clear()
        self._stamp.clear()


class TLBPair:
    """A core's ITLB + DTLB, built from a :class:`TLBConfig`."""

    __slots__ = ("config", "itlb", "dtlb")

    def __init__(self, config: TLBConfig) -> None:
        self.config = config
        self.itlb = TLB(config.itlb_entries, config.assoc, config.page_bits)
        self.dtlb = TLB(config.dtlb_entries, config.assoc, config.page_bits)
