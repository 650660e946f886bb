"""The flat-array ROB's vocabulary, and cold-path views onto it.

The out-of-order core (:class:`repro.pipeline.ooo_core.OoOCore`) keeps
all in-flight instruction state in preallocated per-core column lists —
a power-of-two ring of slots indexed by ``packed = (seq << sbits) |
slot`` references.  The steady-state dispatch→issue→complete→retire
loop never builds a Python object per instruction; everything that
wants one entry as an object (fault injection, bandwidth metering,
pipeline tracing, sync-request servicing) receives a :class:`FlatView`
instead.

A view is a per-slot singleton owned by the core (``core._f_views``),
re-stamped with the slot's current ``seq`` each time the core hands it
out.  That makes views safe to pass to transient consumers — every hook
in the tree reads the entry during the call and stores nothing — while
``squashed`` stays meaningful afterwards: a view whose stamped seq no
longer matches the column is stale, i.e. its instruction was squashed
or retired and its slot freed.

Write-through setters cover the fields cold paths mutate (fault
corruption of results/addresses/branch targets, sync-request value
delivery, the pair controller's ``was_sync`` stamp).

Alongside the columns, the core hoists per-core config scalars into
``_c_*`` attributes at construction.  Anything that mutates one of
those afterwards must refresh the hoisted copy —
``OoOCore.set_issue_width`` (the little-mute protection policy's
narrowed issue stage, ``_c_issue_width``) is the one mutable example,
and it re-stamps the hoist itself.
"""

from __future__ import annotations


class DynState:
    """Lifecycle states of an in-flight instruction: the ``f_state`` ints."""

    DISPATCHED = 0  # in ROB, waiting for operands
    ISSUED = 1  # executing
    COMPLETED = 2  # result available, waiting to enter check/retire
    IN_CHECK = 3  # offered to the retire gate (fingerprint sent)


#: Packed-boolean bits of the ``f_mask`` column (one int per slot).
M_INJECTED = 1
M_SYNC = 2  # was_sync: satisfied as a synchronizing request
M_CONSUMED = 4  # a younger dispatch captured this entry's result
M_FAULTED = 8  # the fault injector corrupted this entry


class FlatView:
    """An entry-shaped window onto one flat-ROB slot."""

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
    def val2(self):
        return self._c.f_v2[self._s]

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
            f"squashed={self.squashed})"
        )
