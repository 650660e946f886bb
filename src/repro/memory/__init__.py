"""Memory substrate: caches, coherence, shared L2 controller, TLBs."""

from repro.memory.cache import Cache, CacheLine, Eviction, LineState
from repro.memory.coherence import (
    Directory,
    DirectoryEntry,
    MSI_TRANSITIONS,
    MSIState,
    Reply,
    Transition,
    transition,
)
from repro.memory.directory import DirectoryBackend
from repro.memory.l2_controller import SharedL2Controller
from repro.memory.main_memory import MainMemory
from repro.memory.mshr import MSHRFile
from repro.memory.port import Access, CoreMemPort
from repro.memory.snoopy import SnoopyBus
from repro.memory.tlb import TLB, TLBPair

__all__ = [
    "Access",
    "Cache",
    "CacheLine",
    "CoreMemPort",
    "Directory",
    "DirectoryBackend",
    "DirectoryEntry",
    "Eviction",
    "LineState",
    "MSHRFile",
    "MSIState",
    "MSI_TRANSITIONS",
    "MainMemory",
    "Reply",
    "SharedL2Controller",
    "SnoopyBus",
    "TLB",
    "TLBPair",
    "Transition",
    "transition",
]
