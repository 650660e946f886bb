"""The directory-based coherence backend for private caches.

Montecito-style private L1s, but instead of a broadcast bus, coherence
requests travel point-to-point to the line's home bank.  One
:class:`~repro.memory.coherence.Directory` holds the global MSI state
and sharers bitmask of every cached line, and the backend applies the
shared protocol table in :mod:`repro.memory.coherence`; the banks only
decide arbitration (:mod:`repro.memory.directory.interconnect`).  This
is what lets Reunion systems scale to many vocal/mute pairs: no snoop
broadcast, and each home bank arbitrates independently.

Reunion semantics map onto directory transactions:

* vocal reads/writes are GetS/GetM at the line's home; the directory
  forwards through the owner (fetching its dirty copy back to memory)
  or a clean sharer, and sends invalidations exactly to the recorded
  holders — never a broadcast;
* mute caches are invisible to the directory: phantom requests consult
  the home's sharers bitmask *read-only* and peek the holder caches
  without any state change, and mute write-backs are dropped at the
  interconnect (Definition 2 / Definition 5 of the paper);
* the synchronizing request collapses the pair's copies and every other
  holder to deliver one coherent value to vocal and mute.

Like the other backends it derives from
:class:`repro.memory.coherence.MemoryBackend` — ports, cores, pairs and
the CMP builder work unchanged.  The directory's bookkeeping is *exact*
(every vocal fill, eviction and invalidation flows through this class),
which is what makes the snoopy-equivalence differential suite possible:
the home always reaches the same forward/grant decision a bus snoop
would.
"""

from __future__ import annotations

from repro.memory.cache import LineState
from repro.memory.coherence import (
    GETM,
    GETS,
    Directory,
    DirectoryEntry,
    MemoryBackend,
    MSIState,
    Reply,
    transition,
)
from repro.memory.directory.interconnect import MUTE, VOCAL, Interconnect
from repro.memory.main_memory import MainMemory
from repro.sim.config import BusConfig, PhantomStrength
from repro.sim.stats import Stats


class DirectoryBackend(MemoryBackend):
    """Banked home-node MSI directories over a point-to-point fabric."""

    name = "dir"

    def __init__(self, config: BusConfig, memory: MainMemory, stats: Stats) -> None:
        super().__init__(memory, stats, config.mshrs)
        self.config = config
        self.fabric = Interconnect(config)
        self.directory = Directory()

    def _forget(self, line_addr: int) -> None:
        self.directory.forget(line_addr)

    def _arb(self, line_addr: int, cls: str, now: int) -> int:
        """Arbitrate at the line's home bank; returns the service start."""
        bank, start = self.fabric.request(line_addr, cls, now)
        obs = self.obs
        if obs is not None and obs.full:
            obs.emit(
                "dir.grant",
                None,
                "dir",
                bank=bank,
                cls=cls,
                start=start,
                line_addr=line_addr,
            )
        return start

    def _holder_data(
        self, entry: DirectoryEntry, line_addr: int, invalidate: bool
    ) -> list[int] | None:
        """Pull the line from its recorded holders (owner or sharers).

        A dirty owner copy is written back so memory stays clean; with
        ``invalidate`` every holder's copy is purged (and removed from
        the entry), otherwise an owner is downgraded to a sharer.
        Returns the freshest data, or None when the entry records no
        holders.
        """
        data: list[int] | None = None
        obs = self.obs
        emit_invals = invalidate and obs is not None and obs.full
        for core_id in list(entry.holders()):
            l1, _ = self._l1s[core_id]
            if invalidate:
                line = l1.invalidate(line_addr)
                entry.drop(core_id)
                self.stats.inc("dir.invals")
                if emit_invals:
                    obs.emit(
                        "dir.inval", None, "dir", core=core_id, line_addr=line_addr
                    )
            else:
                line = l1.lookup(line_addr)
            if line is None:
                raise RuntimeError(
                    f"directory presence stale: core {core_id} recorded for "
                    f"line {line_addr:#x} holds no copy"
                )
            if line.dirty:
                self.memory.write_line(line_addr, line.data)
                data = list(line.data)
            elif data is None:
                data = list(line.data)
            if not invalidate:
                line.state = LineState.SHARED
        return data

    # -- vocal transactions --------------------------------------------------
    def vocal_read(self, core_id: int, line_addr: int, now: int) -> Reply:
        """GetS at the line's home: forward from a holder, else memory."""
        self.stats.inc("dir.gets")
        start = self._arb(line_addr, VOCAL, now)
        entry = self.directory.entry(line_addr)
        tr = transition(entry.state, GETS)
        obs = self.obs
        if obs is not None and obs.full:
            obs.emit(
                "dir.gets",
                None,
                "dir",
                core=core_id,
                line_addr=line_addr,
                state=MSIState.NAMES[entry.state],
            )
        if tr.fetch_owner or (tr.forward_sharer and entry.sharers):
            # A holder supplies the line cache-to-cache; a dirty owner
            # copy is folded back to memory on the way (Illinois-style).
            data = self._holder_data(entry, line_addr, invalidate=False)
            self.stats.inc("dir.forwards")
            done = self.fabric.respond(start + self.config.transfer_latency, forwarded=True)
        else:
            data, done = self._memory_fetch(line_addr, start)
            done = self.fabric.respond(done + self.config.snoop_latency)
        entry.state = tr.next_state  # a sole reader is global M, granted E
        entry.add(core_id)
        self.fill_l1(core_id, line_addr, data, tr.grant)
        return Reply(data, done)

    def vocal_write(self, core_id: int, line_addr: int, now: int) -> Reply:
        """GetM at the line's home: invalidate every other holder, grant M."""
        self.stats.inc("dir.getm")
        start = self._arb(line_addr, VOCAL, now)
        entry = self.directory.entry(line_addr)
        tr = transition(entry.state, GETM)
        obs = self.obs
        if obs is not None and obs.full:
            obs.emit(
                "dir.getm",
                None,
                "dir",
                core=core_id,
                line_addr=line_addr,
                state=MSIState.NAMES[entry.state],
            )
        requester_held = entry.holds(core_id)
        if requester_held:
            entry.drop(core_id)  # keep _holder_data to the *other* holders
        captured = None
        if tr.fetch_owner or tr.invalidate_sharers:
            captured = self._holder_data(entry, line_addr, invalidate=True)
        entry.state = MSIState.MODIFIED
        entry.sharers = 1 << core_id

        l1, _ = self._l1s[core_id]
        resident = l1.lookup(line_addr)
        if resident is not None:
            # Upgrade in place: permission travels, no data transfer.
            self.stats.inc("dir.upgrades")
            resident.state = LineState.MODIFIED
            l1.touch(line_addr)
            done = self.fabric.respond(start + self.config.snoop_latency)
            return Reply(list(resident.data), done)
        if captured is not None:
            data = captured
            done = self.fabric.respond(
                start + self.config.transfer_latency, forwarded=True
            )
        else:
            data, done = self._memory_fetch(line_addr, start)
            done = self.fabric.respond(done + self.config.snoop_latency)
        self.fill_l1(core_id, line_addr, data, LineState.MODIFIED)
        return Reply(data, done)

    def vocal_evict(
        self, core_id: int, line_addr: int, data: list[int] | None, dirty: bool
    ) -> None:
        """PutM/PutS at the home: presence bit cleared, dirty data folded.

        Clean evictions matter as much as dirty ones here — a stale
        presence bit would make the home forward from a cache that no
        longer holds the line."""
        obs = self.obs
        if obs is not None and obs.full:
            self._emit_evict(obs, core_id, line_addr, dirty)
        self.directory.drop(line_addr, core_id)
        if dirty and data is not None:
            self.memory.write_line(line_addr, data)
            self.stats.inc("dir.writebacks")
            if obs is not None and obs.full:
                obs.emit(
                    "dir.writeback", None, "dir", core=core_id, line_addr=line_addr
                )

    # -- mute transactions ---------------------------------------------------
    def phantom_read(
        self, core_id: int, line_addr: int, now: int, strength: PhantomStrength
    ) -> Reply:
        """Non-coherent read: consults the home's bitmask without touching it."""
        obs = self.obs
        if strength is PhantomStrength.NULL:
            self.stats.inc("dir.phantom_null")
            if obs is not None:
                self._emit_phantom(obs, core_id, line_addr, now, strength, "garbage")
            return Reply(self._garbage(line_addr), now + 1)
        start = self._arb(line_addr, MUTE, now)
        entry = self.directory.peek(line_addr)
        if entry is not None and entry.sharers:
            # Peek the first recorded holder without any state change.
            # All clean copies are identical and a dirty copy implies a
            # sole owner, so any holder serves.
            holder = next(entry.holders())
            line = self._l1s[holder][0].lookup(line_addr)
            if line is None:
                raise RuntimeError(
                    f"directory presence stale: core {holder} recorded for "
                    f"line {line_addr:#x} holds no copy"
                )
            self.stats.inc("dir.phantom_snooped")
            if obs is not None:
                self._emit_phantom(obs, core_id, line_addr, now, strength, "peer_l1")
            done = self.fabric.respond(
                start + self.config.transfer_latency, forwarded=True
            )
            return Reply(list(line.data), done)
        if strength is PhantomStrength.SHARED:
            self.stats.inc("dir.phantom_garbage")
            if obs is not None:
                self._emit_phantom(obs, core_id, line_addr, now, strength, "garbage")
            done = self.fabric.respond(start + self.config.snoop_latency)
            return Reply(self._garbage(line_addr), done)
        self.stats.inc("dir.phantom_memory")
        data, done = self._memory_fetch(line_addr, start)
        if obs is not None:
            self._emit_phantom(obs, core_id, line_addr, now, strength, "memory")
        return Reply(data, self.fabric.respond(done + self.config.snoop_latency))

    # -- synchronizing requests ----------------------------------------------
    def synchronizing_access(
        self, vocal_id: int, mute_id: int, line_addr: int, now: int
    ) -> Reply:
        """Home-serialized coherent access delivered to both cores of a pair."""
        self.stats.inc("dir.sync_requests")
        start = self._arb(line_addr, VOCAL, now)
        entry = self.directory.entry(line_addr)
        vocal_l1, _ = self._l1s[vocal_id]
        flushed = vocal_l1.invalidate(line_addr)
        entry.drop(vocal_id)
        if flushed is not None and flushed.dirty:
            self.memory.write_line(line_addr, flushed.data)
        mute_l1, _ = self._l1s[mute_id]
        mute_l1.invalidate(line_addr)
        snooped = self._holder_data(entry, line_addr, invalidate=True)
        if snooped is not None:
            data = snooped
            done = self.fabric.respond(
                start + self.config.transfer_latency, forwarded=True
            )
        elif flushed is not None:
            data = list(flushed.data)
            done = self.fabric.respond(start + self.config.snoop_latency)
        else:
            data, done = self._memory_fetch(line_addr, start)
            done = self.fabric.respond(done + self.config.snoop_latency)
        entry.state = MSIState.MODIFIED
        entry.sharers = 1 << vocal_id
        self.fill_l1(vocal_id, line_addr, data, LineState.MODIFIED)
        self.fill_l1(mute_id, line_addr, data, LineState.MODIFIED)
        return Reply(data, done)
