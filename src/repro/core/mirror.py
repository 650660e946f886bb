"""Mirror windows: skip the mute core's pipeline while provably symmetric.

The replay fast path's heavy lever.  From reset until the first
*asymmetry trigger*, the vocal and mute cores of a logical pair are
bit-identical automata: both start from the same architectural state,
fetch the same program through identical frontends, and — as long as no
instruction touches the memory system — neither interacts with any
shared structure.  Every private field of the mute (ROB, rename map,
predictor, check stage, counters) is, cycle for cycle, a relabeling of
the vocal's.  Simulating the mute during such a window is therefore pure
overhead: the pair can *mirror* instead — step only the vocal, compare
its closed fingerprint intervals against themselves (the virtual mute's
are identical by construction), and materialize the mute's state by
copying the vocal's the moment the window ends.

The window closes — conservatively, before any asymmetric behaviour can
occur — when the vocal *fetches* anything that will eventually touch
shared state or behave pair-asymmetrically:

* a memory instruction (loads are where input incoherence, the only
  divergence source, can enter — and any L1/L2 access mutates shared
  controller state the dual-mode mute would also have mutated);
* a serializing instruction (atomics park synchronizing requests with
  the pair controller);
* an injected handler instruction (software TLB walks perform loads);
* ``HALT`` (so end-of-run state is fully materialized).

Fetch leads dispatch by at least one cycle and issue by two, so exiting
at the *end of the fetch cycle* is strictly earlier than the first
possible shared-state access.  Other exits: an external interrupt being
posted, a fault injector arming, a retire hook or tracer attaching, or
replay being disabled (decoupling).

Materialization is a deep, memo-ed copy of every mutable private field
of the vocal core and its check gate onto the mute, cloning live
:class:`DynInstr` objects so the two pipelines share no mutable state
afterwards.  Under the flat hot loop (``REPRO_HOTLOOP=soa``) there are
no entry objects to clone: in-flight state is plain column lists indexed
by slot/packed ints, so materialization degenerates to copying the
columns and containers verbatim — the copied refs resolve identically
against the mute's copied columns.  The differential tests in
``tests/sim/test_replay_exec.py`` diff every observable between replay
and dual mode to keep this honest.
"""

from __future__ import annotations

from repro.core.check_stage import CheckGate, IntervalRecord
from repro.pipeline.ooo_core import OoOCore
from repro.pipeline.rob import DynInstr

#: DynInstr fields copied verbatim (everything except the entry-graph
#: reference fields ``dependents``, ``wait_on`` and ``prev_producer``,
#: fixed up in a second pass — copying them verbatim would alias the
#: mute's graph into the vocal's live entries).
_ENTRY_SCALARS = tuple(
    s
    for s in DynInstr.__slots__
    if s not in ("dependents", "wait_on", "prev_producer")
)

#: OoOCore counters a mirror sync copies vocal -> mute.
MIRRORED_COUNTERS = (
    "cycles",
    "user_retired",
    "total_retired",
    "injected_retired",
    "dtlb_misses",
    "itlb_misses",
    "mispredicts",
    "serializing_retired",
    "user_mem_retired",
    "interrupts_serviced",
)


def sync_counters(vocal: OoOCore, mute: OoOCore) -> None:
    """Bring the mute's observable counters up to date mid-window.

    Cheap (a dozen attribute copies plus the ARF) — called whenever
    statistics or architectural state may be read while a mirror window
    is still open, without ending the window.
    """
    for name in MIRRORED_COUNTERS:
        setattr(mute, name, getattr(vocal, name))
    mute.arf.copy_from(vocal.arf)
    mute.pc = vocal.pc
    # ``halted`` is deliberately NOT copied: in-window both cores are
    # provably un-halted (a fetched HALT ends the window before it can
    # retire), and a *True* value can only mean an external freeze —
    # which the pair treats as an exit trigger and must preserve.
    mute_gate = mute.gate
    vocal_gate = vocal.gate
    mute_gate.intervals_closed = vocal_gate.intervals_closed
    mute_gate.fingerprints_compared = vocal_gate.fingerprints_compared
    # Nonzero in-window for interval-sampled and dynamic pairs: the
    # vocal's gate skip-closes the intervals the mute's would.
    mute_gate.intervals_unchecked = vocal_gate.intervals_unchecked
    # The interrupt offer-boundary counter: a mirrored mute advanced in
    # lockstep with the vocal, so the cumulative offer count matches.
    mute_gate.users_offered = vocal_gate.users_offered


def materialize(vocal: OoOCore, mute: OoOCore, obs=None, source: str = "") -> None:
    """End a mirror window: copy the vocal's full private state to the mute.

    After this call the mute is exactly the core a dual-execution run
    would have produced at this cycle boundary (the window was
    symmetric), and normal per-cycle stepping can resume.  The mute
    keeps its own identity: ``core_id``, memory port, gate object,
    pair backreference, and hooks are untouched.
    """
    sync_counters(vocal, mute)
    if obs is not None:
        obs.emit(
            "mirror.materialize",
            vocal.cycles,
            source,
            rob_entries=len(vocal.rob),
            fetch_queue=len(vocal.fetch_queue),
            user_retired=vocal.user_retired,
        )

    if vocal._soa:
        _materialize_flat(vocal, mute)
    else:
        _materialize_object(vocal, mute)

    # -- frontend -------------------------------------------------------
    # Fetch-queue entries are immutable tuples: a shallow copy suffices.
    mute.fetch_queue = type(vocal.fetch_queue)(vocal.fetch_queue)
    mute.injection = type(vocal.injection)(vocal.injection)
    mute._injection_resume = vocal._injection_resume
    mute.fetch_stalled = vocal.fetch_stalled
    mute.stall_fetch_until = vocal.stall_fetch_until
    mute.predictor._table = list(vocal.predictor._table)
    mute.predictor._history = vocal.predictor._history

    # -- backend scalars ------------------------------------------------
    mute._next_seq = vocal._next_seq
    mute._check_pending = vocal._check_pending
    mute.single_step = vocal.single_step
    mute.drain = type(vocal.drain)(vocal.drain)
    mute.sb_count = vocal.sb_count
    mute._drain_inflight = vocal._drain_inflight
    mute._interrupts = type(vocal._interrupts)(vocal._interrupts)


def _materialize_object(vocal: OoOCore, mute: OoOCore) -> None:
    """Object-loop materialization: deep-clone the DynInstr graph."""
    clones: dict[int, DynInstr] = {}
    worklist: list[DynInstr] = []

    def clone(entry):
        if entry is None:
            return None
        copied = clones.get(id(entry))
        if copied is None:
            copied = DynInstr.__new__(DynInstr)
            for name in _ENTRY_SCALARS:
                setattr(copied, name, getattr(entry, name))
            copied.dependents = []
            copied.wait_on = None  # placeholders until the fixup pass
            copied.prev_producer = None
            clones[id(entry)] = copied
            worklist.append(entry)
        return copied

    mute.rob = type(vocal.rob)(clone(e) for e in vocal.rob)
    mute.ready = [clone(e) for e in vocal.ready]
    mute.completions = [(t, s, clone(e)) for (t, s, e) in vocal.completions]
    mute._store_entries = type(vocal._store_entries)(
        clone(e) for e in vocal._store_entries
    )
    mute._ser_heap = [(s, clone(e)) for (s, e) in vocal._ser_heap]
    mute.rename = {reg: clone(e) for reg, e in vocal.rename.items()}
    mute.sync_request = clone(vocal.sync_request)
    mute.resume_normal_after = clone(vocal.resume_normal_after)
    mute._unchecked = type(vocal._unchecked)(
        clone(e) for e in vocal._unchecked
    )

    # Wake-up lists may reference entries reachable nowhere else (e.g.
    # squashed consumers): the worklist grows while we fix them up.
    index = 0
    while index < len(worklist):
        original = worklist[index]
        copied = clones[id(original)]
        copied.dependents = [
            (clone(dep), slot) for dep, slot in original.dependents
        ]
        copied.wait_on = clone(original.wait_on)
        copied.prev_producer = clone(original.prev_producer)
        index += 1

    # -- check stage ----------------------------------------------------
    _materialize_gate(vocal.gate, mute.gate, clone)


#: Flat-ROB columns copied verbatim on materialization (``f_deps`` needs
#: a per-slot list copy and is handled separately).
_FLAT_COLUMNS = (
    "f_seq",
    "f_pc",
    "f_inst",
    "f_state",
    "f_pend",
    "f_v1",
    "f_v2",
    "f_res",
    "f_addr",
    "f_sval",
    "f_pred",
    "f_anext",
    "f_ccyc",
    "f_fill",
    "f_flags",
    "f_mask",
    "f_wo",
    "f_pp",
    "f_row",
)


def _materialize_flat(vocal: OoOCore, mute: OoOCore) -> None:
    """Flat-loop materialization: copy columns and int-ref containers.

    Slot / packed refs carry no object identity — the verbatim-copied
    containers resolve against the mute's copied columns exactly as the
    originals do against the vocal's, so no clone pass is needed.  The
    ring geometry (capacity, shift, mask) is identical by construction:
    both cores share one config and ``use_soa_hotloop`` call site.
    Columns are copied *in place* — the hot loop's ``_f_cols`` bundle
    and the FlatView singletons alias the list objects by identity.
    """
    for name in _FLAT_COLUMNS:
        getattr(mute, name)[:] = getattr(vocal, name)
    for mute_edges, vocal_edges in zip(mute.f_deps, vocal.f_deps):
        mute_edges[:] = vocal_edges
    mute._f_tail = vocal._f_tail
    mute.rob = type(vocal.rob)(vocal.rob)
    mute.ready = list(vocal.ready)
    mute.completions = list(vocal.completions)
    mute._store_entries = type(vocal._store_entries)(vocal._store_entries)
    mute._ser_heap = list(vocal._ser_heap)
    mute.rename = dict(vocal.rename)
    mute._unchecked = type(vocal._unchecked)(vocal._unchecked)
    sync_request = vocal.sync_request
    if sync_request is None:
        mute.sync_request = None
    else:
        view = mute._f_views[sync_request._s]
        view._q = sync_request._q
        mute.sync_request = view
    # In-window the vocal provably never entered re-execution, so this
    # is always None; copied for symmetry with the object path.
    mute.resume_normal_after = vocal.resume_normal_after
    _materialize_gate(vocal.gate, mute.gate)


def _materialize_gate(
    vocal_gate: CheckGate, mute_gate: CheckGate, clone=None
) -> None:
    if clone is None:
        # Flat mode: _pending holds immutable (packed, index, offered)
        # tuples over the columns copied above.
        mute_gate._pending = type(vocal_gate._pending)(vocal_gate._pending)
    else:
        mute_gate._pending = type(vocal_gate._pending)(
            (clone(entry), index, offered)
            for entry, index, offered in vocal_gate._pending
        )
    mute_gate._closed = type(vocal_gate._closed)(
        IntervalRecord(
            index=r.index,
            fingerprint=r.fingerprint,
            count=r.count,
            close_cycle=r.close_cycle,
            serializing=r.serializing,
            has_sync=r.has_sync,
            has_halt=r.has_halt,
        )
        for r in vocal_gate._closed
    )
    mute_gate._retire_time = dict(vocal_gate._retire_time)
    mute_gate._count = vocal_gate._count
    mute_gate.users_offered = vocal_gate.users_offered
    mute_gate._has_sync = vocal_gate._has_sync
    mute_gate._has_halt = vocal_gate._has_halt
    mute_gate._index = vocal_gate._index
    mute_gate._last_offer = vocal_gate._last_offer
    mute_gate._accum._crc = vocal_gate._accum._crc
    mute_gate._words = list(vocal_gate._words)
    mute_gate.single_step = vocal_gate.single_step
