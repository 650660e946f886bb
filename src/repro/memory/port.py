"""Per-core memory port: private L1 data cache + TLBs + MSHRs.

The port is the pipeline's window onto the memory system.  A vocal port
speaks the ordinary coherence protocol through the memory backend; a
mute port issues phantom reads, keeps its fills invisible to the
directory, and lets its evictions be dropped — the Reunion relaxed input
replication of Definition 5.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.memory.cache import Cache, LineState
from repro.memory.coherence import MemoryBackend
from repro.memory.mshr import MSHRFile
from repro.memory.tlb import TLBPair
from repro.sim.config import L1Config, PhantomStrength, TLBConfig
from repro.sim.stats import Stats


@dataclass(slots=True)
class Access:
    """Outcome of an RMW read (:meth:`CoreMemPort.rmw_read`).

    ``retry`` means no MSHR was free: the requester must try again later
    (the port does not queue).
    """

    value: int = 0
    done: int = 0
    retry: bool = False


class CoreMemPort:
    """One core's L1 D-cache, TLBs and MSHRs, wired to the memory backend."""

    def __init__(
        self,
        core_id: int,
        l1_config: L1Config,
        tlb_config: TLBConfig,
        controller: MemoryBackend,
        stats: Stats,
        is_mute: bool = False,
        phantom: PhantomStrength = PhantomStrength.GLOBAL,
    ) -> None:
        self.core_id = core_id
        self.config = l1_config
        self.controller = controller
        self.stats = stats
        self.is_mute = is_mute
        self.phantom = phantom
        self.l1 = Cache(
            l1_config.size_bytes,
            l1_config.assoc,
            l1_config.line_bytes,
            name=f"L1d{core_id}",
        )
        self.mshrs = MSHRFile(l1_config.mshrs)
        self.tlbs = TLBPair(tlb_config)
        self._line_shift = l1_config.line_bytes.bit_length() - 1
        self._word_mask = l1_config.line_bytes // 8 - 1
        controller.register_l1(core_id, self.l1, is_mute)
        self._prefix = f"core{core_id}."
        # Stat keys interned once: load_f/store_f are hot enough that
        # the per-access string concat shows up in profiles.
        self._k_load_hits = self._prefix + "l1_load_hits"
        self._k_load_misses = self._prefix + "l1_load_misses"
        self._k_store_hits = self._prefix + "l1_store_hits"
        self._k_store_misses = self._prefix + "l1_store_misses"
        self._k_store_upgrades = self._prefix + "l1_store_upgrades"
        self._k_mshr_stalls = self._prefix + "mshr_stalls"

    # -- TLB ----------------------------------------------------------------
    def dtlb_fill(self, addr: int) -> None:
        self.tlbs.dtlb.fill(addr)

    # -- loads ----------------------------------------------------------------
    def load_f(self, addr: int, now: int) -> tuple[int, int] | None:
        """Read a word: ``(value, done)``, or ``None`` when no MSHR is
        free (the caller retries).  Misses go to the backend, coherent for
        a vocal and phantom for a mute."""
        line_addr = addr >> self._line_shift
        line = self.l1.access(line_addr)
        if line is not None:
            self.stats.inc(self._k_load_hits)
            return line.data[(addr >> 3) & self._word_mask], now + self.config.load_to_use
        if not self.mshrs.available(now):
            self.stats.inc(self._k_mshr_stalls)
            return None
        self.stats.inc(self._k_load_misses)
        if self.is_mute:
            reply = self.controller.phantom_read(self.core_id, line_addr, now, self.phantom)
            self.controller.fill_l1(self.core_id, line_addr, reply.data, LineState.EXCLUSIVE)
        else:
            reply = self.controller.vocal_read(self.core_id, line_addr, now)
        self.mshrs.allocate(now, reply.done)
        return reply.data[(addr >> 3) & self._word_mask], reply.done

    # -- stores (non-speculative drain) -----------------------------------------
    def store_f(self, addr: int, value: int, now: int) -> int | None:
        """Drain one checked store into the cache hierarchy: the drain's
        done cycle, or ``None`` when no MSHR is free."""
        line_addr = addr >> self._line_shift
        line = self.l1.access(line_addr)
        if line is not None and (
            line.state in (LineState.MODIFIED, LineState.EXCLUSIVE) or self.is_mute
        ):
            # Mute hierarchies have blanket write permission (phantom
            # replies grant it); vocal needs E/M for a silent write.
            self.l1.write_word(addr, value)
            self.stats.inc(self._k_store_hits)
            return now + 1
        if not self.mshrs.available(now):
            self.stats.inc(self._k_mshr_stalls)
            return None
        if self.is_mute:
            self.stats.inc(self._k_store_misses)
            reply = self.controller.phantom_read(self.core_id, line_addr, now, self.phantom)
            self.controller.fill_l1(self.core_id, line_addr, reply.data, LineState.EXCLUSIVE)
        else:
            if line is not None:
                self.stats.inc(self._k_store_upgrades)
            else:
                self.stats.inc(self._k_store_misses)
            reply = self.controller.vocal_write(self.core_id, line_addr, now)
        self.mshrs.allocate(now, reply.done)
        self.l1.write_word(addr, value)
        return reply.done

    # -- atomics (coherent read-modify-write, non-Reunion path) --------------------
    def rmw_read(self, addr: int, now: int) -> Access:
        """Acquire the line with write permission and return the old word.

        Used by non-redundant and strict modes; Reunion atomics instead go
        through the pair's synchronizing request.
        """
        line_addr = addr >> self._line_shift
        offset = (addr >> 3) & self._word_mask
        line = self.l1.access(line_addr)
        if line is not None and (
            line.state in (LineState.MODIFIED, LineState.EXCLUSIVE) or self.is_mute
        ):
            return Access(value=line.data[offset], done=now + self.config.load_to_use)
        if not self.mshrs.available(now):
            self.stats.inc(self._k_mshr_stalls)
            return Access(retry=True)
        if self.is_mute:
            reply = self.controller.phantom_read(self.core_id, line_addr, now, self.phantom)
            self.controller.fill_l1(self.core_id, line_addr, reply.data, LineState.EXCLUSIVE)
        else:
            reply = self.controller.vocal_write(self.core_id, line_addr, now)
        self.mshrs.allocate(now, reply.done)
        return Access(value=reply.data[offset], done=reply.done)

    def rmw_write(self, addr: int, value: int) -> None:
        """Complete an RMW: the line is resident with write permission."""
        self.l1.write_word(addr, value)
