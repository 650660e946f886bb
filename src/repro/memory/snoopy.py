"""A snoopy-bus implementation of the Reunion memory interface.

Section 4.1 of the paper: "The Reunion execution model can also be
implemented at a snoopy cache interface for microarchitectures with
private caches, such as Montecito."  This module is that design point:
no shared cache and no directory — private caches keep each other
coherent by snooping a shared bus, and the Reunion semantics map onto
bus transactions:

* vocal reads/writes snoop every *vocal* cache (cache-to-cache transfer
  from a modified owner, invalidations on writes);
* mute caches never assert snoop responses and their write-backs never
  reach the bus (the vocal/mute semantics of Definition 2);
* phantom requests become non-coherent bus reads: ``SHARED`` strength
  snoops the peer caches only, ``GLOBAL`` falls through to memory,
  ``NULL`` never touches the bus;
* the synchronizing request is a bus-locked transaction that flushes
  the pair's copies and delivers one coherent value to both.

The class is call-compatible with
:class:`repro.memory.l2_controller.SharedL2Controller`, so ports, cores,
pairs and the CMP builder work unchanged on either organization.
"""

from __future__ import annotations

from repro.isa.registers import WORD_MASK
from repro.memory.cache import Cache, LineState
from repro.memory.coherence import GETM, GETS, MSIState, transition
from repro.memory.l2_controller import Reply, _GARBAGE_MULT, _GARBAGE_XOR
from repro.memory.main_memory import MainMemory
from repro.memory.mshr import MSHRFile
from repro.sim.config import BusConfig, PhantomStrength
from repro.sim.stats import Stats


class SnoopyBus:
    """A split-transaction snoopy bus connecting private write-back caches."""

    def __init__(self, config: BusConfig, memory: MainMemory, stats: Stats) -> None:
        self.config = config
        self.memory = memory
        self.stats = stats
        self.mshrs = MSHRFile(config.mshrs)
        self._bus_free = 0
        self._l1s: dict[int, tuple[Cache, bool]] = {}
        self._words_per_line = 8
        #: Armed telemetry (see repro.obs), or None.  Set by CMPSystem.
        self.obs = None

    # -- registration -------------------------------------------------------
    def register_l1(self, core_id: int, l1: Cache, is_mute: bool) -> None:
        if core_id in self._l1s:
            raise ValueError(f"core {core_id} already registered")
        self._l1s[core_id] = (l1, is_mute)
        self._words_per_line = l1.words_per_line

    def set_role(self, core_id: int, is_mute: bool) -> None:
        l1, _ = self._l1s[core_id]
        self._l1s[core_id] = (l1, is_mute)

    # -- bus arbitration -------------------------------------------------------
    def _arbitrate(self, now: int) -> int:
        start = max(now, self._bus_free)
        self._bus_free = start + self.config.bus_occupancy
        return start

    def _vocal_peers(self, requester: int):
        for core_id, (l1, is_mute) in self._l1s.items():
            if core_id != requester and not is_mute:
                yield core_id, l1

    def _probe_state(self, requester: int, line_addr: int) -> int:
        """Global :class:`MSIState` over the peer vocal caches.

        What the address-phase snoop responses encode on a real bus: a
        peer holding the line E/M is the owner (E counts as MODIFIED —
        see :class:`~repro.memory.coherence.MSIState`), any other copy
        means SHARED.  The resulting state indexes the protocol table
        shared with the directory backend.
        """
        state = MSIState.INVALID
        for _core_id, l1 in self._vocal_peers(requester):
            line = l1.lookup(line_addr)
            if line is None:
                continue
            if line.state in (LineState.MODIFIED, LineState.EXCLUSIVE):
                return MSIState.MODIFIED
            state = MSIState.SHARED
        return state

    def _snoop(self, requester: int, line_addr: int, invalidate: bool) -> list[int] | None:
        """Snoop peer vocal caches; returns the freshest data if any hit.

        A modified owner supplies data cache-to-cache (and writes back to
        memory, keeping memory clean — Illinois-style).  With
        ``invalidate`` every peer copy is purged.
        """
        data: list[int] | None = None
        for _core_id, l1 in self._vocal_peers(requester):
            if invalidate:
                line = l1.invalidate(line_addr)
                if line is not None:
                    if line.dirty:
                        self.memory.write_line(line_addr, line.data)
                        data = list(line.data)
                    elif data is None:
                        data = list(line.data)
            else:
                line = l1.lookup(line_addr)
                if line is None:
                    continue
                if line.dirty:
                    self.memory.write_line(line_addr, line.data)
                    data = list(line.data)
                    line.state = LineState.SHARED
                else:
                    line.state = LineState.SHARED
                    if data is None:
                        data = list(line.data)
        return data

    def _memory_fetch(self, line_addr: int, start: int) -> tuple[list[int], int]:
        if not self.mshrs.available(start):
            release = self.mshrs.next_release()
            if release is not None:
                start = max(start, release)
        done = start + self.memory.latency
        self.mshrs.allocate(start, done)
        self.stats.inc("bus.memory_reads")
        return self.memory.read_line(line_addr), done

    # -- vocal transactions -------------------------------------------------------
    def vocal_read(self, core_id: int, line_addr: int, now: int) -> Reply:
        """BusRd (GetS): the snoop responses decide owner/sharer supply."""
        self.stats.inc("bus.reads")
        start = self._arbitrate(now)
        tr = transition(self._probe_state(core_id, line_addr), GETS)
        if tr.fetch_owner or tr.forward_sharer:
            # A peer copy exists: cache-to-cache transfer (a dirty owner
            # writes back on the way — tr.writeback — inside _snoop).
            data = self._snoop(core_id, line_addr, invalidate=False)
            done = start + self.config.transfer_latency
        else:
            data, done = self._memory_fetch(line_addr, start)
            done += self.config.snoop_latency
        self._install(core_id, line_addr, data, tr.grant)
        return Reply(data, done)

    def vocal_write(self, core_id: int, line_addr: int, now: int) -> Reply:
        """BusRdX (GetM): invalidate peers, take the freshest copy, grant M."""
        self.stats.inc("bus.writes")
        start = self._arbitrate(now)
        tr = transition(self._probe_state(core_id, line_addr), GETM)
        snooped = None
        if tr.fetch_owner or tr.invalidate_sharers:
            snooped = self._snoop(core_id, line_addr, invalidate=True)
        l1, _ = self._l1s[core_id]
        resident = l1.lookup(line_addr)
        if resident is not None:
            resident.state = tr.grant
            l1.touch(line_addr)
            return Reply(list(resident.data), start + self.config.snoop_latency)
        if snooped is not None:
            data = snooped
            done = start + self.config.transfer_latency
        else:
            data, done = self._memory_fetch(line_addr, start)
            done += self.config.snoop_latency
        self._install(core_id, line_addr, data, tr.grant)
        return Reply(data, done)

    def vocal_evict(self, core_id: int, line_addr: int, data: list[int] | None, dirty: bool) -> None:
        """Write-back on eviction; clean victims vanish silently."""
        obs = self.obs
        if obs is not None and obs.full:
            obs.emit(
                "cache.evict",
                None,
                "bus",
                core=core_id,
                line_addr=line_addr,
                dirty=dirty,
            )
        if dirty and data is not None:
            self.memory.write_line(line_addr, data)
            self.stats.inc("bus.writebacks")

    # -- mute transactions ---------------------------------------------------------
    def phantom_read(
        self, core_id: int, line_addr: int, now: int, strength: PhantomStrength
    ) -> Reply:
        """Non-coherent read: snoops without asserting any bus state."""
        obs = self.obs
        if strength is PhantomStrength.NULL:
            self.stats.inc("bus.phantom_null")
            if obs is not None:
                self._emit_phantom(obs, core_id, line_addr, now, strength, "garbage")
            return Reply(self._garbage(line_addr), now + 1)
        start = self._arbitrate(now)
        # Peek peer vocal caches without changing their state.
        for _core_id, l1 in self._vocal_peers(core_id):
            line = l1.lookup(line_addr)
            if line is not None:
                self.stats.inc("bus.phantom_snooped")
                if obs is not None:
                    self._emit_phantom(obs, core_id, line_addr, now, strength, "peer_l1")
                return Reply(list(line.data), start + self.config.transfer_latency)
        if strength is PhantomStrength.SHARED:
            self.stats.inc("bus.phantom_garbage")
            if obs is not None:
                self._emit_phantom(obs, core_id, line_addr, now, strength, "garbage")
            return Reply(self._garbage(line_addr), start + self.config.snoop_latency)
        self.stats.inc("bus.phantom_memory")
        data, done = self._memory_fetch(line_addr, start)
        if obs is not None:
            self._emit_phantom(obs, core_id, line_addr, now, strength, "memory")
        return Reply(data, done + self.config.snoop_latency)

    @staticmethod
    def _emit_phantom(obs, core_id, line_addr, now, strength, origin) -> None:
        obs.emit(
            "phantom.read",
            now,
            "bus",
            core=core_id,
            line_addr=line_addr,
            strength=strength.value,
            origin=origin,
        )

    def mute_evict(self, core_id: int, line_addr: int) -> None:
        self.stats.inc("bus.mute_evicts_dropped")
        obs = self.obs
        if obs is not None and obs.full:
            obs.emit(
                "cache.writeback_drop", None, "bus", core=core_id, line_addr=line_addr
            )

    # -- synchronizing requests -------------------------------------------------------
    def synchronizing_access(
        self, vocal_id: int, mute_id: int, line_addr: int, now: int
    ) -> Reply:
        """Bus-locked coherent access delivered to both cores of a pair."""
        self.stats.inc("bus.sync_requests")
        start = self._arbitrate(now)
        vocal_l1, _ = self._l1s[vocal_id]
        flushed = vocal_l1.invalidate(line_addr)
        if flushed is not None and flushed.dirty:
            self.memory.write_line(line_addr, flushed.data)
        mute_l1, _ = self._l1s[mute_id]
        mute_l1.invalidate(line_addr)
        snooped = self._snoop(vocal_id, line_addr, invalidate=True)
        if snooped is not None:
            data = snooped
            done = start + self.config.transfer_latency
        elif flushed is not None:
            data = list(flushed.data)
            done = start + self.config.snoop_latency
        else:
            data, done = self._memory_fetch(line_addr, start)
            done += self.config.snoop_latency
        self._install(vocal_id, line_addr, data, LineState.MODIFIED)
        self._install(mute_id, line_addr, data, LineState.MODIFIED)
        return Reply(data, done)

    def install_image(self, image: dict[int, int]) -> None:
        """Coherently install a memory image (dual-use reconfiguration)."""
        words_per_line = self._words_per_line
        for line_addr in {addr // (8 * words_per_line) for addr in image}:
            for core_id, (l1, is_mute) in self._l1s.items():
                line = l1.invalidate(line_addr)
                if line is not None and not is_mute and line.dirty:
                    self.memory.write_line(line_addr, line.data)
        for addr, value in image.items():
            self.memory.write_word(addr, value)

    # -- helpers ----------------------------------------------------------------------
    def _install(self, core_id: int, line_addr: int, data: list[int], state: int) -> None:
        l1, is_mute = self._l1s[core_id]
        evicted = l1.fill(line_addr, data, state)
        if evicted is None:
            return
        if is_mute:
            self.mute_evict(core_id, evicted.line_addr)
        else:
            self.vocal_evict(core_id, evicted.line_addr, evicted.data, evicted.dirty)

    def _garbage(self, line_addr: int) -> list[int]:
        base = (line_addr * _GARBAGE_MULT) & WORD_MASK
        return [
            (base ^ (index * _GARBAGE_XOR)) & WORD_MASK
            for index in range(self._words_per_line)
        ]
