"""The shared L2 cache controller: the paper's primary design.

Section 4.2 of the paper places Reunion's semantics at this controller.
What every backend does alike lives in its base,
:class:`~repro.memory.coherence.MemoryBackend`; this controller adds the
shared cache's part:

* it maintains directory coherence for **vocal** L1 caches exactly as a
  non-redundant design would, in one
  :class:`~repro.memory.coherence.Directory` that **mute** caches never
  enter (their evictions are dropped by the base);
* mute read misses arrive as **phantom requests** in one of three
  strengths (null / shared / global), served from the L2 array, an
  owning vocal L1 or memory without any directory change;
* **synchronizing requests** flush a line from both private caches of a
  logical pair, obtain a coherent copy with write permission, and reply
  a single value to both cores atomically.

Timing model: coherence state transitions are applied at request time;
the returned ``done`` cycle says when data reaches the requester.  Bank
arbitration (``banks`` × ``bank_occupancy``) and L2 MSHR occupancy for
off-chip reads provide the contention that loosely-coupled vocal/mute
execution exposes (Section 5.3).
"""

from __future__ import annotations

from repro.memory.cache import Cache, LineState
from repro.memory.coherence import Directory, MemoryBackend, MSIState, Reply
from repro.memory.main_memory import MainMemory
from repro.sim.config import L2Config, PhantomStrength
from repro.sim.stats import Stats


class SharedL2Controller(MemoryBackend):
    """Banked shared L2 with directory coherence and Reunion extensions."""

    name = "l2"

    def __init__(self, config: L2Config, memory: MainMemory, stats: Stats) -> None:
        super().__init__(memory, stats, config.mshrs)
        self.config = config
        self.cache = Cache(config.size_bytes, config.assoc, config.line_bytes, name="L2")
        self.directory = Directory()
        self._bank_free = [0] * config.banks

    def _forget(self, line_addr: int) -> None:
        l2_line = self.cache.invalidate(line_addr)
        if l2_line is not None and l2_line.dirty:
            self.memory.write_line(line_addr, l2_line.data)
        self.directory.forget(line_addr)

    # -- timing helpers ------------------------------------------------------
    def _arbitrate(self, line_addr: int, now: int) -> int:
        """Claim the line's bank; returns the cycle service starts."""
        bank = line_addr % self.config.banks
        start = max(now, self._bank_free[bank])
        self._bank_free[bank] = start + self.config.bank_occupancy
        return start

    def _fill_l2(self, line_addr: int, data: list[int], dirty: bool) -> None:
        """Install a line in the L2 array, writing back any dirty victim."""
        state = LineState.MODIFIED if dirty else LineState.EXCLUSIVE
        evicted = self.cache.fill(line_addr, data, state)
        if evicted is not None and evicted.dirty:
            self.memory.write_line(evicted.line_addr, evicted.data)
            self.stats.inc("l2.memory_writebacks")

    # -- coherent data collection ---------------------------------------------
    def _collect_owner(self, entry, owner: int, line_addr: int, invalidate: bool) -> None:
        """Fold the owning vocal L1's copy into the L2 array.

        With ``invalidate`` the owner loses the line entirely; otherwise it
        is downgraded to SHARED.  Dirty data is folded into the L2 array so
        the L2 always holds the coherent value afterwards.
        """
        owner_l1 = self._l1s[owner][0]
        if invalidate:
            line = owner_l1.invalidate(line_addr)
            dirty_data = line.data if line is not None and line.dirty else None
            entry.drop(owner)
        else:
            dirty_data = owner_l1.downgrade(line_addr)
            entry.state = MSIState.SHARED
        if dirty_data is not None:
            self._fill_l2(line_addr, dirty_data, dirty=True)

    def _coherent_data(self, line_addr: int, start: int) -> tuple[list[int], int]:
        """Return the coherent value of a line (L2 hit or memory fetch).

        Assumes any owning L1 has already been collected into the L2.
        """
        line = self.cache.access(line_addr)
        if line is not None:
            return list(line.data), start + self.config.hit_latency
        data, done = self._memory_fetch(line_addr, start)
        self._fill_l2(line_addr, data, dirty=False)
        return data, done + self.config.hit_latency

    # -- vocal requests ---------------------------------------------------------
    def vocal_read(self, core_id: int, line_addr: int, now: int) -> Reply:
        """Coherent read miss from a vocal L1: grants S (or E if alone)."""
        self.stats.inc("l2.vocal_reads")
        start = self._arbitrate(line_addr, now)
        entry = self.directory.entry(line_addr)
        extra = 0
        owner = entry.owner()
        if owner is not None and owner != core_id:
            self._collect_owner(entry, owner, line_addr, invalidate=False)
            extra = self.config.hit_latency  # 3-hop owner intervention
        data, done = self._coherent_data(line_addr, start)
        entry.add(core_id)
        if entry.sharers == 1 << core_id:
            # A sole reader is granted E and tracked as the owner.
            entry.state = MSIState.MODIFIED
            state = LineState.EXCLUSIVE
        else:
            entry.state = MSIState.SHARED
            state = LineState.SHARED
        self.fill_l1(core_id, line_addr, data, state)
        return Reply(data, done + extra)

    def vocal_write(self, core_id: int, line_addr: int, now: int) -> Reply:
        """Coherent write (store drain or upgrade): grants M, invalidates others."""
        self.stats.inc("l2.vocal_writes")
        start = self._arbitrate(line_addr, now)
        entry = self.directory.entry(line_addr)
        extra = 0
        owner = entry.owner()
        if owner is not None and owner != core_id:
            self._collect_owner(entry, owner, line_addr, invalidate=True)
            extra = self.config.hit_latency
        for sharer in entry.holders():
            if sharer != core_id:
                self._l1s[sharer][0].invalidate(line_addr)
                self.stats.inc("l2.invalidations")
        requester_l1 = self._l1s[core_id][0]
        resident = requester_l1.lookup(line_addr)
        if resident is not None:
            # Upgrade in place: keep the L1's (coherent) data.
            resident.state = LineState.MODIFIED
            requester_l1.touch(line_addr)
            data = list(resident.data)
            done = start + self.config.hit_latency
        else:
            data, done = self._coherent_data(line_addr, start)
            self.fill_l1(core_id, line_addr, data, LineState.MODIFIED)
        entry.state = MSIState.MODIFIED
        entry.sharers = 1 << core_id
        return Reply(data, done + extra)

    def vocal_evict(self, core_id: int, line_addr: int, data: list[int] | None, dirty: bool) -> None:
        """A vocal L1 evicted a line: fold back data, update the directory."""
        obs = self.obs
        if obs is not None and obs.full:
            self._emit_evict(obs, core_id, line_addr, dirty)
        self.directory.drop(line_addr, core_id)
        if dirty and data is not None:
            self._fill_l2(line_addr, data, dirty=True)
            self.stats.inc("l2.vocal_writebacks")

    # -- mute requests -----------------------------------------------------------
    def phantom_read(
        self, core_id: int, line_addr: int, now: int, strength: PhantomStrength
    ) -> Reply:
        """Non-coherent read on behalf of a mute core (Definition 5).

        Never changes directory state; the reply grants write permission
        *within the mute hierarchy only*.
        """
        obs = self.obs
        if strength is PhantomStrength.NULL:
            # Trivial implementation: arbitrary data, no L2 traffic at all.
            self.stats.inc("l2.phantom_null")
            if obs is not None:
                self._emit_phantom(obs, core_id, line_addr, now, strength, "garbage")
            return Reply(self._garbage(line_addr), now + 1)

        start = self._arbitrate(line_addr, now)
        line = self.cache.lookup(line_addr)  # probe only: no LRU pollution

        if strength is PhantomStrength.SHARED:
            self.stats.inc("l2.phantom_shared")
            if line is not None:
                if obs is not None:
                    self._emit_phantom(obs, core_id, line_addr, now, strength, "l2")
                return Reply(list(line.data), start + self.config.hit_latency)
            self.stats.inc("l2.phantom_garbage")
            if obs is not None:
                self._emit_phantom(obs, core_id, line_addr, now, strength, "garbage")
            return Reply(self._garbage(line_addr), start + self.config.hit_latency)

        # GLOBAL: best-effort coherent value — L2, then an owning vocal L1,
        # then main memory.  Still changes no coherence state.
        self.stats.inc("l2.phantom_global")
        entry = self.directory.peek(line_addr)
        owner = entry.owner() if entry is not None else None
        if owner is not None:
            owner_line = self._l1s[owner][0].lookup(line_addr)
            if owner_line is not None:
                if obs is not None:
                    self._emit_phantom(obs, core_id, line_addr, now, strength, "owner_l1")
                return Reply(list(owner_line.data), start + 2 * self.config.hit_latency)
        if line is not None:
            if obs is not None:
                self._emit_phantom(obs, core_id, line_addr, now, strength, "l2")
            return Reply(list(line.data), start + self.config.hit_latency)
        data, done = self._memory_fetch(line_addr, start)
        if obs is not None:
            self._emit_phantom(obs, core_id, line_addr, now, strength, "memory")
        return Reply(data, done + self.config.hit_latency)

    # -- synchronizing requests ------------------------------------------------
    def synchronizing_access(
        self, vocal_id: int, mute_id: int, line_addr: int, now: int
    ) -> Reply:
        """Definition 10: one coherent value, delivered to both cores.

        Flushes the block from both private caches (keeping the vocal's
        copy, discarding the mute's), obtains a coherent copy with write
        permission on behalf of the pair, and installs it in both L1s.
        The pair controller calls this once, when both cores' requests
        have arrived; latency is comparable to a shared-cache hit.
        """
        self.stats.inc("l2.sync_requests")
        start = self._arbitrate(line_addr, now)
        entry = self.directory.entry(line_addr)

        # Flush the vocal's copy back (it is the coherent one if owned)...
        flushed = self._l1s[vocal_id][0].invalidate(line_addr)
        if flushed is not None and flushed.dirty:
            self._fill_l2(line_addr, flushed.data, dirty=True)
        entry.drop(vocal_id)
        # ...and discard the mute's.
        self._l1s[mute_id][0].invalidate(line_addr)

        # Coherent write transaction on behalf of the pair.
        extra = 0
        owner = entry.owner()
        if owner is not None:
            self._collect_owner(entry, owner, line_addr, invalidate=True)
            extra = self.config.hit_latency
        for sharer in entry.holders():
            self._l1s[sharer][0].invalidate(line_addr)
            self.stats.inc("l2.invalidations")
        data, done = self._coherent_data(line_addr, start)
        entry.state = MSIState.MODIFIED
        entry.sharers = 1 << vocal_id
        self.fill_l1(vocal_id, line_addr, data, LineState.MODIFIED)
        self.fill_l1(mute_id, line_addr, data, LineState.MODIFIED)
        return Reply(data, done + extra)
