"""The shared L2 cache controller, including Reunion semantics.

This controller is where the paper's Section 4.2 lives:

* it maintains directory coherence for **vocal** L1 caches exactly as a
  non-redundant design would;
* **mute** caches never appear in sharers lists, can never own a line,
  and their evictions/writebacks are silently dropped;
* mute read misses arrive as **phantom requests** in one of three
  strengths (null / shared / global);
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

from dataclasses import dataclass

from repro.isa.registers import WORD_MASK
from repro.memory.cache import Cache, LineState
from repro.memory.coherence import Directory
from repro.memory.main_memory import MainMemory
from repro.memory.mshr import MSHRFile
from repro.sim.config import L2Config, PhantomStrength
from repro.sim.stats import Stats

#: Multiplier used to derive deterministic "arbitrary data" for weak
#: phantom replies.  Knuth's 64-bit golden-ratio constant: any line address
#: maps to a garbage pattern that is, for all practical purposes, never
#: equal to real program data — matching the paper's "arbitrary value".
_GARBAGE_MULT = 0x9E3779B97F4A7C15
_GARBAGE_XOR = 0x517CC1B727220A95


@dataclass(slots=True)
class Reply:
    """Controller reply: line data plus the cycle it arrives."""

    data: list[int]
    done: int


class SharedL2Controller:
    """Banked shared L2 with directory coherence and Reunion extensions."""

    def __init__(self, config: L2Config, memory: MainMemory, stats: Stats) -> None:
        self.config = config
        self.memory = memory
        self.stats = stats
        self.cache = Cache(config.size_bytes, config.assoc, config.line_bytes, name="L2")
        self.directory = Directory()
        self.mshrs = MSHRFile(config.mshrs)
        self._bank_free = [0] * config.banks
        #: core_id -> (l1 cache, is_mute)
        self._l1s: dict[int, tuple[Cache, bool]] = {}
        #: Armed telemetry (see repro.obs), or None.  Set by CMPSystem.
        self.obs = None

    # -- registration ------------------------------------------------------
    def register_l1(self, core_id: int, l1: Cache, is_mute: bool) -> None:
        """Attach a core's private L1 so the controller can probe it."""
        if core_id in self._l1s:
            raise ValueError(f"core {core_id} already registered")
        self._l1s[core_id] = (l1, is_mute)

    def _l1(self, core_id: int) -> Cache:
        return self._l1s[core_id][0]

    def set_role(self, core_id: int, is_mute: bool) -> None:
        """Change a core's vocal/mute role (dual-use reconfiguration).

        The caller is responsible for cleaning the core's L1 first: a
        promoted mute must have invalidated its (potentially incoherent)
        contents, and a demoted vocal must have written back and left
        the directory.
        """
        l1, _ = self._l1s[core_id]
        self._l1s[core_id] = (l1, is_mute)

    def install_image(self, image: dict[int, int]) -> None:
        """Write a memory image coherently: caches and directory flushed.

        Used when a decoupled core starts a new program: any cached
        copies of the image's lines anywhere in the hierarchy are
        stale and must go.
        """
        words_per_line = self.cache.words_per_line
        for line_addr in {addr // (8 * words_per_line) for addr in image}:
            for core_id, (l1, is_mute) in self._l1s.items():
                line = l1.invalidate(line_addr)
                if line is not None and not is_mute and line.dirty:
                    self.memory.write_line(line_addr, line.data)
            l2_line = self.cache.invalidate(line_addr)
            if l2_line is not None and l2_line.dirty:
                self.memory.write_line(line_addr, l2_line.data)
            entry = self.directory.peek(line_addr)
            if entry is not None:
                entry.owner = None
                entry.sharers.clear()
                self.directory.drop_if_idle(line_addr)
        for addr, value in image.items():
            self.memory.write_word(addr, value)

    # -- timing helpers ------------------------------------------------------
    def _arbitrate(self, line_addr: int, now: int) -> int:
        """Claim the line's bank; returns the cycle service starts."""
        bank = line_addr % self.config.banks
        start = max(now, self._bank_free[bank])
        self._bank_free[bank] = start + self.config.bank_occupancy
        return start

    def _memory_fetch(self, line_addr: int, start: int) -> tuple[list[int], int]:
        """Read a line from main memory, modelling L2 MSHR pressure."""
        if not self.mshrs.available(start):
            release = self.mshrs.next_release()
            if release is not None:
                start = max(start, release)
        done = start + self.memory.latency
        self.mshrs.allocate(start, done)
        self.stats.inc("l2.memory_reads")
        return self.memory.read_line(line_addr), done

    def _fill_l2(self, line_addr: int, data: list[int], dirty: bool) -> None:
        """Install a line in the L2 array, writing back any dirty victim."""
        state = LineState.MODIFIED if dirty else LineState.EXCLUSIVE
        evicted = self.cache.fill(line_addr, data, state)
        if evicted is not None and evicted.dirty:
            self.memory.write_line(evicted.line_addr, evicted.data)
            self.stats.inc("l2.memory_writebacks")

    # -- coherent data collection ---------------------------------------------
    def _collect_owner(self, line_addr: int, invalidate: bool) -> list[int] | None:
        """Pull the freshest copy from an owning vocal L1, if any.

        With ``invalidate`` the owner loses the line entirely; otherwise it
        is downgraded to SHARED.  Dirty data is folded into the L2 array so
        the L2 always holds the coherent value afterwards.
        """
        entry = self.directory.peek(line_addr)
        if entry is None or entry.owner is None:
            return None
        owner_l1 = self._l1(entry.owner)
        if invalidate:
            line = owner_l1.invalidate(line_addr)
            data = list(line.data) if line is not None else None
            dirty = bool(line and line.dirty)
            entry.sharers.discard(entry.owner)
            entry.owner = None
        else:
            dirty_data = owner_l1.downgrade(line_addr)
            data = dirty_data
            dirty = dirty_data is not None
            if entry.owner is not None:
                entry.sharers.add(entry.owner)
            entry.owner = None
        if data is not None and dirty:
            self._fill_l2(line_addr, data, dirty=True)
        return data

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
        if entry.owner is not None and entry.owner != core_id:
            self._collect_owner(line_addr, invalidate=False)
            extra = self.config.hit_latency  # 3-hop owner intervention
        data, done = self._coherent_data(line_addr, start)
        entry.sharers.add(core_id)
        state = LineState.SHARED if len(entry.sharers) > 1 else LineState.EXCLUSIVE
        if state == LineState.EXCLUSIVE:
            entry.owner = core_id
        self._install_l1(core_id, line_addr, data, state)
        return Reply(data, done + extra)

    def vocal_write(self, core_id: int, line_addr: int, now: int) -> Reply:
        """Coherent write (store drain or upgrade): grants M, invalidates others."""
        self.stats.inc("l2.vocal_writes")
        start = self._arbitrate(line_addr, now)
        entry = self.directory.entry(line_addr)
        extra = 0
        if entry.owner is not None and entry.owner != core_id:
            self._collect_owner(line_addr, invalidate=True)
            extra = self.config.hit_latency
        for sharer in list(entry.sharers):
            if sharer != core_id:
                self._l1(sharer).invalidate(line_addr)
                self.stats.inc("l2.invalidations")
        requester_l1 = self._l1(core_id)
        resident = requester_l1.lookup(line_addr)
        if resident is not None:
            # Upgrade in place: keep the L1's (coherent) data.
            resident.state = LineState.MODIFIED
            requester_l1.touch(line_addr)
            data = list(resident.data)
            done = start + self.config.hit_latency
        else:
            data, done = self._coherent_data(line_addr, start)
            self._install_l1(core_id, line_addr, data, LineState.MODIFIED)
        entry.owner = core_id
        entry.sharers = {core_id}
        return Reply(data, done + extra)

    def vocal_evict(self, core_id: int, line_addr: int, data: list[int] | None, dirty: bool) -> None:
        """A vocal L1 evicted a line: fold back data, update the directory."""
        obs = self.obs
        if obs is not None and obs.full:
            obs.emit(
                "cache.evict",
                None,
                "l2",
                core=core_id,
                line_addr=line_addr,
                dirty=dirty,
            )
        entry = self.directory.peek(line_addr)
        if entry is not None:
            entry.sharers.discard(core_id)
            if entry.owner == core_id:
                entry.owner = None
            self.directory.drop_if_idle(line_addr)
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
        if entry is not None and entry.owner is not None:
            owner_line = self._l1(entry.owner).lookup(line_addr)
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

    @staticmethod
    def _emit_phantom(obs, core_id, line_addr, now, strength, origin) -> None:
        obs.emit(
            "phantom.read",
            now,
            "l2",
            core=core_id,
            line_addr=line_addr,
            strength=strength.value,
            origin=origin,
        )

    def mute_evict(self, core_id: int, line_addr: int) -> None:
        """Mute evictions and writebacks are ignored (Section 4.2)."""
        self.stats.inc("l2.mute_evicts_dropped")
        obs = self.obs
        if obs is not None and obs.full:
            obs.emit(
                "cache.writeback_drop", None, "l2", core=core_id, line_addr=line_addr
            )

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
        vocal_l1 = self._l1(vocal_id)
        flushed = vocal_l1.invalidate(line_addr)
        if flushed is not None and flushed.dirty:
            self._fill_l2(line_addr, flushed.data, dirty=True)
        entry.sharers.discard(vocal_id)
        if entry.owner == vocal_id:
            entry.owner = None
        # ...and discard the mute's.
        self._l1(mute_id).invalidate(line_addr)

        # Coherent write transaction on behalf of the pair.
        extra = 0
        if entry.owner is not None:
            self._collect_owner(line_addr, invalidate=True)
            extra = self.config.hit_latency
        for sharer in list(entry.sharers):
            self._l1(sharer).invalidate(line_addr)
            self.stats.inc("l2.invalidations")
        data, done = self._coherent_data(line_addr, start)
        entry.owner = vocal_id
        entry.sharers = {vocal_id}
        self._install_l1(vocal_id, line_addr, data, LineState.MODIFIED)
        self._install_l1(mute_id, line_addr, data, LineState.MODIFIED)
        return Reply(data, done + extra)

    # -- helpers -----------------------------------------------------------------
    def _install_l1(self, core_id: int, line_addr: int, data: list[int], state: int) -> None:
        """Fill a line into a core's L1, handling the eviction it causes."""
        l1, is_mute = self._l1s[core_id]
        evicted = l1.fill(line_addr, data, state)
        if evicted is None:
            return
        if is_mute:
            self.mute_evict(core_id, evicted.line_addr)
        else:
            self.vocal_evict(core_id, evicted.line_addr, evicted.data, evicted.dirty)

    def _garbage(self, line_addr: int) -> list[int]:
        """Deterministic arbitrary data for weak phantom replies."""
        base = (line_addr * _GARBAGE_MULT) & WORD_MASK
        return [
            (base ^ (index * _GARBAGE_XOR)) & WORD_MASK
            for index in range(self.cache.words_per_line)
        ]
