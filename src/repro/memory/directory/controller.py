"""The directory-based coherence backend for private caches.

Montecito-style private L1s, but instead of a broadcast bus, coherence
requests travel point-to-point to per-bank home-node directories
(:mod:`repro.memory.directory.entry`), which hold the global MSI state
and sharers bitmask of every cached line and apply the shared protocol
table in :mod:`repro.memory.coherence`.  This is what lets Reunion
systems scale to many vocal/mute pairs: no snoop broadcast, and each
home bank arbitrates independently.

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

Call-compatible with :class:`repro.memory.l2_controller.SharedL2Controller`
and :class:`repro.memory.snoopy.SnoopyBus` — ports, cores, pairs and the
CMP builder work unchanged.  The directory's bookkeeping is *exact*
(every vocal fill, eviction and invalidation flows through this class),
which is what makes the snoopy-equivalence differential suite possible:
the home always reaches the same forward/grant decision a bus snoop
would.
"""

from __future__ import annotations

from repro.isa.registers import WORD_MASK
from repro.memory.cache import Cache, LineState
from repro.memory.coherence import GETM, GETS, MSIState, transition
from repro.memory.directory.entry import DirectoryEntry, HomeDirectory
from repro.memory.directory.interconnect import MUTE, VOCAL, Interconnect
from repro.memory.l2_controller import Reply, _GARBAGE_MULT, _GARBAGE_XOR
from repro.memory.main_memory import MainMemory
from repro.memory.mshr import MSHRFile
from repro.sim.config import BusConfig, PhantomStrength
from repro.sim.stats import Stats


class DirectoryBackend:
    """Banked home-node MSI directories over a point-to-point fabric."""

    def __init__(self, config: BusConfig, memory: MainMemory, stats: Stats) -> None:
        self.config = config
        self.memory = memory
        self.stats = stats
        self.mshrs = MSHRFile(config.mshrs)
        self.fabric = Interconnect(config)
        self.banks = [HomeDirectory(bank) for bank in range(config.dir_banks)]
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
        """Flip a core's vocal/mute role.

        Callers must hand over a clean cache: a demotion (vocal→mute)
        only after evicting every resident line through
        :meth:`vocal_evict`, a promotion only with an empty L1 — the
        directory tracks vocal caches exactly and a role flip must not
        strand stale presence bits (see CMPSystem.couple/decouple).
        """
        l1, _ = self._l1s[core_id]
        self._l1s[core_id] = (l1, is_mute)

    # -- home lookup --------------------------------------------------------
    def _entry(self, line_addr: int) -> DirectoryEntry:
        return self.banks[self.fabric.home_bank(line_addr)].entry(line_addr)

    def _drop_if_idle(self, line_addr: int) -> None:
        self.banks[self.fabric.home_bank(line_addr)].drop_if_idle(line_addr)

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

    def _memory_fetch(self, line_addr: int, start: int) -> tuple[list[int], int]:
        if not self.mshrs.available(start):
            release = self.mshrs.next_release()
            if release is not None:
                start = max(start, release)
        done = start + self.memory.latency
        self.mshrs.allocate(start, done)
        self.stats.inc("dir.memory_reads")
        return self.memory.read_line(line_addr), done

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
                    line.state = LineState.SHARED
                else:
                    line.state = LineState.SHARED
                    if data is None:
                        data = list(line.data)
        return data

    # -- vocal transactions --------------------------------------------------
    def vocal_read(self, core_id: int, line_addr: int, now: int) -> Reply:
        """GetS at the line's home: forward from a holder, else memory."""
        self.stats.inc("dir.gets")
        start = self._arb(line_addr, VOCAL, now)
        entry = self._entry(line_addr)
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
            entry.state = tr.next_state
            entry.add(core_id)
        else:
            data, done = self._memory_fetch(line_addr, start)
            done = self.fabric.respond(done + self.config.snoop_latency)
            entry.state = tr.next_state  # sole reader: global M, grant E
            entry.add(core_id)
        self._install(core_id, line_addr, data, tr.grant)
        return Reply(data, done)

    def vocal_write(self, core_id: int, line_addr: int, now: int) -> Reply:
        """GetM at the line's home: invalidate every other holder, grant M."""
        self.stats.inc("dir.getm")
        start = self._arb(line_addr, VOCAL, now)
        entry = self._entry(line_addr)
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
        self._install(core_id, line_addr, data, LineState.MODIFIED)
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
            obs.emit(
                "cache.evict",
                None,
                "dir",
                core=core_id,
                line_addr=line_addr,
                dirty=dirty,
            )
        entry = self.banks[self.fabric.home_bank(line_addr)].peek(line_addr)
        if entry is not None:
            entry.drop(core_id)
            self._drop_if_idle(line_addr)
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
        entry = self.banks[self.fabric.home_bank(line_addr)].peek(line_addr)
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

    @staticmethod
    def _emit_phantom(obs, core_id, line_addr, now, strength, origin) -> None:
        obs.emit(
            "phantom.read",
            now,
            "dir",
            core=core_id,
            line_addr=line_addr,
            strength=strength.value,
            origin=origin,
        )

    def mute_evict(self, core_id: int, line_addr: int) -> None:
        self.stats.inc("dir.mute_evicts_dropped")
        obs = self.obs
        if obs is not None and obs.full:
            obs.emit(
                "cache.writeback_drop", None, "dir", core=core_id, line_addr=line_addr
            )

    # -- synchronizing requests ----------------------------------------------
    def synchronizing_access(
        self, vocal_id: int, mute_id: int, line_addr: int, now: int
    ) -> Reply:
        """Home-serialized coherent access delivered to both cores of a pair."""
        self.stats.inc("dir.sync_requests")
        start = self._arb(line_addr, VOCAL, now)
        entry = self._entry(line_addr)
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
            entry = self.banks[self.fabric.home_bank(line_addr)].peek(line_addr)
            if entry is not None:
                entry.sharers = 0
                entry.state = MSIState.INVALID
                self._drop_if_idle(line_addr)
        for addr, value in image.items():
            self.memory.write_word(addr, value)

    # -- helpers -------------------------------------------------------------
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
