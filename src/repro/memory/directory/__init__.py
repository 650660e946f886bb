"""Directory-based coherence backend: banked home nodes, point-to-point.

Selected by ``SystemConfig(cache_style=CacheStyle.SNOOPY,
bus=BusConfig(coherence=CoherenceStyle.DIRECTORY, ...))`` — private L1
caches like the snoopy design point, but coherence scales past a
bus-snoopable handful of cores to the 8-32-core (4-16 Reunion pair)
systems.  See docs/ARCHITECTURE.md, "Memory system backends".
"""

from repro.memory.directory.controller import DirectoryBackend
from repro.memory.directory.interconnect import Interconnect, WRRArbiter

__all__ = ["DirectoryBackend", "Interconnect", "WRRArbiter"]
