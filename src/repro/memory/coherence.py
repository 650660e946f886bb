"""What every memory backend shares: the protocol and Reunion's semantics.

Three organizations implement the Reunion memory interface:

* the Piranha-style shared L2 with an inclusive directory at the shared
  controller (:mod:`repro.memory.l2_controller`, the paper's primary
  design);
* private caches kept coherent by snooping a shared bus
  (:mod:`repro.memory.snoopy`, the Montecito design point of
  Section 4.1);
* private caches kept coherent by banked home-node directories over a
  point-to-point interconnect (:mod:`repro.memory.directory`, the
  many-pair scaling backend).

This module writes down once what they share:

* :class:`MSIState` / :data:`MSI_TRANSITIONS` — the global MSI state of
  a line and the transition table for the three coherence requests
  (GetS, GetM, PutM).  The snoopy bus derives the global state by
  probing peer caches, the home-node directory reads it off its
  :class:`DirectoryEntry`; both then apply the identical transition.
* :class:`DirectoryEntry` / :class:`Directory` — the one directory: per
  line, the global MSI state and a bitmask of the vocal holders.  The
  shared L2 and the home-node backend both keep one.
* :class:`MemoryBackend` — the base of all three backends.  It holds
  Reunion's controller-side semantics (Section 4.2): the vocal/mute
  registry of private L1s, the one L1 fill, dropped mute evictions,
  garbage data for weak phantom replies, memory reads under MSHR
  pressure, the phantom and eviction telemetry and
  :meth:`~MemoryBackend.install_image`'s sweep of every L1.  A backend
  keeps only its arbitration and timing, where its coherent data comes
  from, and its directory bookkeeping.

Mute caches are deliberately invisible everywhere here — that is the
Reunion vocal/mute semantics of Definition 2: the coherence protocol
behaves as if mute cores were absent from the system.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.registers import WORD_MASK
from repro.memory.cache import Cache, LineState
from repro.memory.main_memory import MainMemory
from repro.memory.mshr import MSHRFile
from repro.sim.stats import Stats

#: Multiplier used to derive deterministic "arbitrary data" for weak
#: phantom replies.  Knuth's 64-bit golden-ratio constant: any line address
#: maps to a garbage pattern that is, for all practical purposes, never
#: equal to real program data — matching the paper's "arbitrary value".
_GARBAGE_MULT = 0x9E3779B97F4A7C15
_GARBAGE_XOR = 0x517CC1B727220A95


@dataclass(slots=True)
class Reply:
    """Backend reply: line data plus the cycle it arrives."""

    data: list[int]
    done: int


class MSIState:
    """Global MSI state of one line, over the *vocal* caches only.

    ``MODIFIED`` means exactly one vocal cache holds the line with write
    permission.  A clean-exclusive (MESI ``E``) grantee is tracked as
    MODIFIED too: stores hit silently on E lines (see
    :meth:`repro.memory.port.CoreMemPort.store`), so the protocol must
    treat the grantee as a potential writer from the moment of the
    grant.
    """

    INVALID = 0
    SHARED = 1
    MODIFIED = 2

    NAMES = {0: "I", 1: "S", 2: "M"}


#: The three coherence requests of the protocol (Culler/Sorin naming).
GETS = "GetS"  # read miss: wants at least S
GETM = "GetM"  # write miss / upgrade: wants M
PUTM = "PutM"  # dirty eviction: gives the line back


@dataclass(frozen=True)
class Transition:
    """One row of the MSI table: resulting state plus required actions.

    Action flags are *requirements on the backend*, phrased so both a
    snoopy bus and a home-node directory can honour them:

    * ``fetch_owner`` — the current owner supplies the data
      (cache-to-cache); ``writeback`` additionally folds a dirty copy
      back (to memory on the private-cache backends, into the L2 array
      on the shared-cache one) so the backing store stays clean.
    * ``forward_sharer`` — any clean sharer may supply the data
      cache-to-cache instead of the backing store.
    * ``invalidate_sharers`` — every other copy must be purged before
      the grant.
    * ``grant`` — the :class:`~repro.memory.cache.LineState` installed
      in the requester's L1.  A sole reader is granted clean-exclusive
      (MESI ``E``), which is why ``(INVALID, GetS)`` lands the *global*
      state in MODIFIED — see :class:`MSIState`.
    """

    next_state: int
    grant: int = LineState.INVALID
    fetch_owner: bool = False
    forward_sharer: bool = False
    invalidate_sharers: bool = False
    writeback: bool = False


#: (global MSI state, request) -> :class:`Transition`.  The single
#: protocol definition every backend consults.
MSI_TRANSITIONS: dict[tuple[int, str], Transition] = {
    (MSIState.INVALID, GETS): Transition(
        next_state=MSIState.MODIFIED, grant=LineState.EXCLUSIVE
    ),
    (MSIState.SHARED, GETS): Transition(
        next_state=MSIState.SHARED, grant=LineState.SHARED, forward_sharer=True
    ),
    (MSIState.MODIFIED, GETS): Transition(
        next_state=MSIState.SHARED,
        grant=LineState.SHARED,
        fetch_owner=True,
        writeback=True,
    ),
    (MSIState.INVALID, GETM): Transition(
        next_state=MSIState.MODIFIED, grant=LineState.MODIFIED
    ),
    (MSIState.SHARED, GETM): Transition(
        next_state=MSIState.MODIFIED,
        grant=LineState.MODIFIED,
        forward_sharer=True,
        invalidate_sharers=True,
    ),
    (MSIState.MODIFIED, GETM): Transition(
        next_state=MSIState.MODIFIED,
        grant=LineState.MODIFIED,
        fetch_owner=True,
        invalidate_sharers=True,
        writeback=True,
    ),
    (MSIState.MODIFIED, PUTM): Transition(
        next_state=MSIState.INVALID, writeback=True
    ),
}


def transition(state: int, request: str) -> Transition:
    """Look up the transition for ``request`` against global ``state``."""
    try:
        return MSI_TRANSITIONS[(state, request)]
    except KeyError:
        name = MSIState.NAMES.get(state, state)
        raise ValueError(f"no MSI transition for {request} in state {name}") from None


class DirectoryEntry:
    """Global MSI state + sharers bitmask for one cache line.

    Invariants (over vocal caches only; mute caches are never tracked):

    * ``state == MODIFIED``  ⇒  exactly one bit set (the owner, which
      may hold the line clean-exclusive — stores hit E silently, so the
      grantee is a potential writer from the grant on);
    * ``state == SHARED``    ⇒  at least one bit set, all copies clean;
    * ``state == INVALID``   ⇒  ``sharers == 0``.

    The bitmask is the representation real directory controllers use,
    and O(1) for the owner extraction and membership tests the hot path
    performs.
    """

    __slots__ = ("state", "sharers")

    def __init__(self) -> None:
        self.state: int = MSIState.INVALID
        self.sharers: int = 0

    def owner(self) -> int | None:
        """The owning core id, or None when no single core owns the line.

        Valid extraction requires exactly one sharer bit; the power-of-
        two test rejects both the empty and the multi-sharer mask.
        """
        mask = self.sharers
        if self.state != MSIState.MODIFIED or mask == 0 or mask & (mask - 1):
            return None
        return mask.bit_length() - 1

    def holds(self, core_id: int) -> bool:
        return bool(self.sharers >> core_id & 1)

    def add(self, core_id: int) -> None:
        self.sharers |= 1 << core_id

    def drop(self, core_id: int) -> None:
        """Remove one holder, demoting the global state as bits empty."""
        self.sharers &= ~(1 << core_id)
        if self.sharers == 0:
            self.state = MSIState.INVALID

    def holders(self):
        """Core ids with a copy, ascending."""
        mask = self.sharers
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def is_idle(self) -> bool:
        return self.sharers == 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        name = MSIState.NAMES.get(self.state, self.state)
        return f"DirectoryEntry(state={name}, sharers={self.sharers:#b})"


class Directory:
    """Line address -> :class:`DirectoryEntry`, for the lines vocals hold.

    Entries are materialized on demand and reaped when idle, so the
    footprint tracks the lines actually cached rather than the address
    space.
    """

    __slots__ = ("_entries",)

    def __init__(self) -> None:
        self._entries: dict[int, DirectoryEntry] = {}

    def entry(self, line_addr: int) -> DirectoryEntry:
        """The line's entry, materialized idle if it has none."""
        entry = self._entries.get(line_addr)
        if entry is None:
            entry = self._entries[line_addr] = DirectoryEntry()
        return entry

    def peek(self, line_addr: int) -> DirectoryEntry | None:
        """The line's entry, or None; never materializes one."""
        return self._entries.get(line_addr)

    def drop(self, line_addr: int, core_id: int) -> None:
        """Remove one holder of the line; reap the entry once it is idle."""
        entry = self._entries.get(line_addr)
        if entry is not None:
            entry.drop(core_id)
            if entry.is_idle():
                del self._entries[line_addr]

    def forget(self, line_addr: int) -> None:
        """Reap the line's entry whatever it records."""
        self._entries.pop(line_addr, None)

    def __len__(self) -> int:
        return len(self._entries)


class MemoryBackend:
    """Reunion's controller-side semantics, shared by every backend.

    A subclass sets :attr:`name` and supplies the request API —
    ``vocal_read``, ``vocal_write``, ``vocal_evict``, ``phantom_read``
    and ``synchronizing_access`` — with its own arbitration, timing and
    coherent-data source.  Stats and telemetry records this base writes
    carry the subclass's :attr:`name`.
    """

    #: Stat prefix and telemetry source: ``l2``, ``bus`` or ``dir``.
    name = ""

    def __init__(self, memory: MainMemory, stats: Stats, mshrs: int) -> None:
        self.memory = memory
        self.stats = stats
        self.mshrs = MSHRFile(mshrs)
        #: core_id -> (l1 cache, is_mute)
        self._l1s: dict[int, tuple[Cache, bool]] = {}
        self._words_per_line = 8  # an L1's, once one registers
        #: Armed telemetry (see repro.obs), or None.  Set by CMPSystem.
        self.obs = None
        self._k_memory_reads = self.name + ".memory_reads"
        self._k_mute_drops = self.name + ".mute_evicts_dropped"

    # -- registration --------------------------------------------------------
    def register_l1(self, core_id: int, l1: Cache, is_mute: bool) -> None:
        """Attach a core's private L1 so the backend can probe it."""
        if core_id in self._l1s:
            raise ValueError(f"core {core_id} already registered")
        self._l1s[core_id] = (l1, is_mute)
        self._words_per_line = l1.words_per_line

    def set_role(self, core_id: int, is_mute: bool) -> None:
        """Change a core's vocal/mute role (dual-use reconfiguration).

        The caller hands over a clean L1: a promoted mute must have
        invalidated its (potentially incoherent) contents, and a demoted
        vocal must have evicted every resident line through
        ``vocal_evict``, so no directory keeps a stale holder (see
        ``CMPSystem.couple`` / ``decouple``).
        """
        l1, _ = self._l1s[core_id]
        self._l1s[core_id] = (l1, is_mute)

    # -- what every backend does alike -----------------------------------------
    def fill_l1(self, core_id: int, line_addr: int, data: list[int], state: int) -> None:
        """Fill a line into a core's L1; the victim goes to ``vocal_evict``
        or, from a mute L1, to :meth:`mute_evict`."""
        l1, is_mute = self._l1s[core_id]
        evicted = l1.fill(line_addr, data, state)
        if evicted is None:
            return
        if is_mute:
            self.mute_evict(core_id, evicted.line_addr)
        else:
            self.vocal_evict(core_id, evicted.line_addr, evicted.data, evicted.dirty)

    def mute_evict(self, core_id: int, line_addr: int) -> None:
        """Mute evictions and writebacks are dropped (Section 4.2)."""
        self.stats.inc(self._k_mute_drops)
        obs = self.obs
        if obs is not None and obs.full:
            obs.emit(
                "cache.writeback_drop", None, self.name, core=core_id, line_addr=line_addr
            )

    def _memory_fetch(self, line_addr: int, start: int) -> tuple[list[int], int]:
        """Read a line from main memory, modelling MSHR pressure."""
        if not self.mshrs.available(start):
            release = self.mshrs.next_release()
            if release is not None:
                start = max(start, release)
        done = start + self.memory.latency
        self.mshrs.allocate(start, done)
        self.stats.inc(self._k_memory_reads)
        return self.memory.read_line(line_addr), done

    def _garbage(self, line_addr: int) -> list[int]:
        """Deterministic arbitrary data for weak phantom replies."""
        base = (line_addr * _GARBAGE_MULT) & WORD_MASK
        return [
            (base ^ (index * _GARBAGE_XOR)) & WORD_MASK
            for index in range(self._words_per_line)
        ]

    def _emit_phantom(self, obs, core_id, line_addr, now, strength, origin) -> None:
        obs.emit(
            "phantom.read",
            now,
            self.name,
            core=core_id,
            line_addr=line_addr,
            strength=strength.value,
            origin=origin,
        )

    def _emit_evict(self, obs, core_id, line_addr, dirty) -> None:
        obs.emit(
            "cache.evict", None, self.name, core=core_id, line_addr=line_addr, dirty=dirty
        )

    def install_image(self, image: dict[int, int]) -> None:
        """Write a memory image coherently: every cached copy of it goes.

        Used when a decoupled core starts a new program: any cached
        copies of the image's lines anywhere in the hierarchy are stale.
        Dirty copies are written back first, oldest first: the backend's
        own (an L2 array line) before a vocal L1's, which is newer where
        both are dirty.  Mute copies are dropped.
        """
        words_per_line = self._words_per_line
        for line_addr in {addr // (8 * words_per_line) for addr in image}:
            self._forget(line_addr)
            for l1, is_mute in self._l1s.values():
                line = l1.invalidate(line_addr)
                if line is not None and not is_mute and line.dirty:
                    self.memory.write_line(line_addr, line.data)
        for addr, value in image.items():
            self.memory.write_word(addr, value)

    def _forget(self, line_addr: int) -> None:
        """Drop what the backend itself keeps of a line ``install_image`` replaces."""
