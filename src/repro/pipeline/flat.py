"""Cold-path views over the flat-array ROB.

The flat hot loop (``REPRO_HOTLOOP=soa``, see
:meth:`repro.pipeline.ooo_core.OoOCore.use_soa_hotloop`) keeps all
in-flight instruction state in preallocated per-core column lists — a
power-of-two ring of slots indexed by ``packed = (seq << sbits) | slot``
references.  The steady-state dispatch→issue→complete→retire loop never
builds a Python object per instruction; everything that still wants a
``DynInstr``-shaped entry (fault injection, bandwidth metering, pipeline
tracing, sync-request servicing, replay bookkeeping) receives a
:class:`FlatView` instead.

A view is a per-slot singleton owned by the core (``core._f_views``),
re-stamped with the slot's current ``seq`` each time the core hands it
out.  That makes views safe to pass to transient consumers — every hook
in the tree reads the entry during the call and stores nothing — while
``squashed`` stays meaningful afterwards: a view whose stamped seq no
longer matches the column is stale, which is exactly the
squashed-or-freed condition the object loop expresses via
``DynInstr.squashed`` / ``DynState.RETIRED``.

Write-through setters cover the fields cold paths mutate (fault
corruption of results/addresses/branch targets, sync-request value
delivery, the pair controller's ``was_sync`` stamp).

Alongside the columns, the flat loop hoists per-core config scalars
into ``_c_*`` attributes at ``use_soa_hotloop`` time.  Anything that
mutates one of those after construction must refresh the hoisted copy —
``OoOCore.set_issue_width`` (the little-mute protection policy's
narrowed issue stage, ``_c_issue_width``) is the one mutable example,
and it re-stamps the hoist itself so both hot loops read the same
width whichever order the policy and the loop selection are applied in.
"""

from __future__ import annotations

from repro.isa.decode import F_SER

#: Packed-boolean bits of the ``f_mask`` column (one int per slot).
M_INJECTED = 1
M_SYNC = 2  # was_sync: satisfied as a synchronizing request
M_CONSUMED = 4  # a younger dispatch captured this entry's result
M_FAULTED = 8  # the fault injector corrupted this entry


class FlatView:
    """A ``DynInstr``-shaped window onto one flat-ROB slot."""

    __slots__ = ("_c", "_s", "_q")

    def __init__(self, core, slot: int) -> None:
        self._c = core
        self._s = slot
        self._q = -1  # stamped seq; -1 never matches a live slot

    # -- identity -------------------------------------------------------
    @property
    def seq(self) -> int:
        # The stamp, not the column: a squash/retire frees the column
        # (seq -1) but consumers like the tracer still key by the old seq.
        return self._q

    @property
    def squashed(self) -> bool:
        return self._c.f_seq[self._s] != self._q

    # -- read-only columns ----------------------------------------------
    @property
    def pc(self) -> int:
        return self._c.f_pc[self._s]

    @property
    def inst(self):
        return self._c.f_inst[self._s]

    @property
    def state(self) -> int:
        return self._c.f_state[self._s]

    @property
    def pending(self) -> int:
        return self._c.f_pend[self._s]

    @property
    def val1(self):
        return self._c.f_v1[self._s]

    @property
    def val2(self):
        return self._c.f_v2[self._s]

    @property
    def predicted_next(self):
        return self._c.f_pred[self._s]

    @property
    def complete_cycle(self) -> int:
        return self._c.f_ccyc[self._s]

    @property
    def fill_addr(self):
        return self._c.f_fill[self._s]

    @property
    def flags(self) -> int:
        return self._c.f_flags[self._s]

    @property
    def serializing(self) -> bool:
        return bool(self._c.f_flags[self._s] & F_SER)

    # -- packed booleans -------------------------------------------------
    @property
    def injected(self) -> bool:
        return bool(self._c.f_mask[self._s] & M_INJECTED)

    @property
    def was_sync(self) -> bool:
        return bool(self._c.f_mask[self._s] & M_SYNC)

    @was_sync.setter
    def was_sync(self, value: bool) -> None:
        if value:
            self._c.f_mask[self._s] |= M_SYNC
        else:
            self._c.f_mask[self._s] &= ~M_SYNC

    @property
    def consumed(self) -> bool:
        return bool(self._c.f_mask[self._s] & M_CONSUMED)

    @property
    def faulted(self) -> bool:
        return bool(self._c.f_mask[self._s] & M_FAULTED)

    @faulted.setter
    def faulted(self, value: bool) -> None:
        if value:
            self._c.f_mask[self._s] |= M_FAULTED
        else:
            self._c.f_mask[self._s] &= ~M_FAULTED

    # -- mutable value columns (write-through) ---------------------------
    @property
    def result(self):
        return self._c.f_res[self._s]

    @result.setter
    def result(self, value) -> None:
        self._c.f_res[self._s] = value

    @property
    def addr(self):
        return self._c.f_addr[self._s]

    @addr.setter
    def addr(self, value) -> None:
        self._c.f_addr[self._s] = value

    @property
    def store_value(self):
        return self._c.f_sval[self._s]

    @store_value.setter
    def store_value(self, value) -> None:
        self._c.f_sval[self._s] = value

    @property
    def actual_next(self):
        return self._c.f_anext[self._s]

    @actual_next.setter
    def actual_next(self, value) -> None:
        self._c.f_anext[self._s] = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FlatView(slot={self._s}, seq={self._q}, pc={self.pc}, "
            f"state={self.state}, squashed={self.squashed})"
        )
