"""Per-layer host-time tracing, installed from outside the simulator.

A :class:`Tracer` wraps the public calls into each layer of ``repro``
(the layer map is :data:`LAYER_CALLS`) and times them with a stack: a
layer's *self* time is the duration of its calls minus the part covered
by calls into other wrapped layers.  Per-cycle calls are aggregated per
(layer, function, calling layer) so memory stays bounded however long
the run; coarse calls (cache get/put, one sample's ``run_job``, each
``CMPSystem.run``) are also kept as individual spans with an id, a
parent and a sample id.

Nothing under ``src/`` knows about this module.  Wrappers go on at
class level and :meth:`Tracer.restore` takes them off again, except the
per-core ``step``/``next_event`` wrappers: ``OoOCore.use_soa_hotloop``
rebinds those per instance, so they are wrapped on each core right
after ``CMPSystem.__init__``.
"""

from __future__ import annotations

import importlib
import time

#: Name of the stack's bottom frame: the child's own code.
ROOT = "<child>"

#: Every layer the benchmark reports, in report order.
LAYERS = (
    "import",
    "workloads",
    "harness",
    "exec.pool",
    "exec.cache",
    "sim",
    "pipeline",
    "core.check",
    "core.pair",
    "memory.port",
    "memory.coherence",
)

_GATE_CALLS = ("offer_f", "pop_retirable_f", "next_release_f", "close_open")
_COHERENCE_CALLS = (
    "vocal_read",
    "vocal_write",
    "vocal_evict",
    "phantom_read",
    "synchronizing_access",
    "mute_evict",
    "next_event",
)

#: Class-level layer boundaries: (layer, module, class, method names).
#: A method a class only inherits is skipped: the base class's wrapper
#: covers it.  ``import`` is timed by the child itself, ``pipeline`` per
#: core instance (see :meth:`Tracer._wrap_cores`), and the workload
#: classes are found by walking ``Workload``'s subclasses.
LAYER_CALLS = (
    ("harness", "repro.harness.runs", "Runner", ("prefetch",)),
    ("harness", "repro.harness.fig5", "Fig5Result", ("render",)),
    ("exec.pool", "repro.exec.pool", "ExecutionPool", ("run",)),
    ("exec.cache", "repro.exec.cache", "ResultCache", ("get", "put")),
    ("sim", "repro.sim.cmp", "CMPSystem", ("__init__", "run")),
    ("core.check", "repro.core.check_stage", "CheckGate", _GATE_CALLS),
    ("core.check", "repro.core.strict", "StrictCheckGate", _GATE_CALLS),
    ("core.pair", "repro.core.pair", "LogicalPair", ("step", "next_event", "mirror_sync")),
    (
        "memory.port",
        "repro.memory.port",
        "CoreMemPort",
        ("load_f", "store_f", "rmw_read", "rmw_write"),
    ),
    ("memory.coherence", "repro.memory.l2_controller", "SharedL2Controller", _COHERENCE_CALLS),
    ("memory.coherence", "repro.memory.snoopy", "SnoopyBus", _COHERENCE_CALLS),
    (
        "memory.coherence",
        "repro.memory.directory.controller",
        "DirectoryBackend",
        _COHERENCE_CALLS,
    ),
)

#: Per-core pipeline calls, wrapped per instance.
PIPELINE_CALLS = ("step", "next_event")

#: Calls kept as individual spans as well as aggregated (``ExecutionPool.run``
#: and each sample's ``run_job`` too, see :meth:`Tracer._patch_pool`).
SPAN_CALLS = frozenset(
    {
        "Runner.prefetch",
        "run_fig5",
        "Fig5Result.render",
        "ResultCache.get",
        "ResultCache.put",
        "CMPSystem.run",
    }
)


def _sample_of(args) -> str | None:
    """The sample id of a job-taking call (cache get/put, run_job)."""
    for arg in args:
        if hasattr(arg, "key") and hasattr(arg, "describe"):
            return arg.describe()
    return None


def _label(owner, name: str) -> str:
    return f"{owner.__name__}.{name}" if isinstance(owner, type) else name


class Tracer:
    """Stack-based self-time accounting over wrapped layer calls."""

    def __init__(self, epoch_ns: int | None = None, clock=time.monotonic_ns) -> None:
        self.clock = clock
        #: Time zero of span start times (the child's start, by default now).
        self.epoch = clock() if epoch_ns is None else epoch_ns
        #: Open frames, bottom first: ``[layer, ns covered by children]``.
        self.stack: list[list] = [[ROOT, 0]]
        #: ``(layer, function) -> {calling layer: [calls, self ns]}``.
        self.cells: dict[tuple[str, str], dict[str, list[int]]] = {}
        #: Coarse spans, in completion order.
        self.spans: list[dict] = []
        self._open_spans: list[dict] = []
        self._next_id = 1
        self._undo: list[tuple[object, str, object, bool]] = []

    # -- wrappers -----------------------------------------------------------
    def timed(self, fn, layer: str, label: str):
        """``fn`` with its calls charged to ``layer``.

        A call made while ``layer`` is already on top of the stack (an
        override calling ``super()``, say) runs untimed: the outer call
        already covers it, and counting it again would double the calls.
        """
        stack = self.stack
        per_parent = self.cells.setdefault((layer, label), {})
        clock = self.clock

        def wrapper(*args, **kwargs):
            if stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent = stack[-1]
                parent[1] += elapsed
                cell = per_parent.get(parent[0])
                if cell is None:
                    cell = per_parent[parent[0]] = [0, 0]
                cell[0] += 1
                cell[1] += elapsed - frame[1]

        wrapper.__wrapped__ = fn
        return wrapper

    def spanned(self, fn, layer: str | None, label: str, attrs=None):
        """``fn`` recorded as one span per call (and timed, given a layer).

        ``attrs`` may supply extra span fields: ``attrs.before(args)``
        runs before the call and ``attrs.after(args, result, before)``
        after it, both outside the timed region.  They only read state,
        so they cannot change what the call did.  Fields named in
        ``attrs.rolled_up`` are also summed into the enclosing span.
        """
        inner = self.timed(fn, layer, label) if layer is not None else fn
        clock = self.clock
        open_spans = self._open_spans

        def wrapper(*args, **kwargs):
            parent = open_spans[-1] if open_spans else None
            span = {
                "id": self._next_id,
                "parent": parent["id"] if parent else None,
                "name": label,
                "layer": layer,
                "sample": _sample_of(args) or (parent["sample"] if parent else None),
            }
            self._next_id += 1
            state = attrs.before(args) if attrs is not None else None
            open_spans.append(span)
            start = clock()
            try:
                result = inner(*args, **kwargs)
            finally:
                end = clock()
                open_spans.pop()
            span["start_s"] = (start - self.epoch) / 1e9
            span["dur_s"] = (end - start) / 1e9
            if attrs is not None:
                span.update(attrs.after(args, result, state))
                if parent is not None:
                    for field in attrs.rolled_up:
                        parent[field] = parent.get(field, 0) + span[field]
            self.spans.append(span)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def record_span(self, name: str, start_s: float, dur_s: float) -> None:
        """Store a top-level span the caller timed (the child's set-up)."""
        self.spans.append(
            {
                "id": self._next_id,
                "parent": None,
                "name": name,
                "layer": None,
                "sample": None,
                "start_s": start_s,
                "dur_s": dur_s,
            }
        )
        self._next_id += 1

    def charge(self, layer: str, label: str, elapsed_ns: int) -> None:
        """Charge one call the caller timed (an import) to ``layer``."""
        per_parent = self.cells.setdefault((layer, label), {})
        cell = per_parent.setdefault(self.stack[-1][0], [0, 0])
        cell[0] += 1
        cell[1] += elapsed_ns
        self.stack[-1][1] += elapsed_ns

    # -- installation -------------------------------------------------------
    def patch(self, owner, name: str, layer: str | None, attrs=None) -> None:
        """Replace ``owner.name`` with its wrapped self, undoably.

        Works on classes with ``__slots__`` too: their instances look
        methods up on the class, which is where the wrapper goes.
        """
        had_own = name in vars(owner)
        original = vars(owner)[name] if had_own else getattr(owner, name)
        label = _label(owner, name)
        if label in SPAN_CALLS:
            wrapped = self.spanned(original, layer, label, attrs)
        else:
            wrapped = self.timed(original, layer, label)
        setattr(owner, name, wrapped)
        self._undo.append((owner, name, original, had_own))

    def restore(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._undo:
            owner, name, original, had_own = self._undo.pop()
            if had_own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)

    def install(self) -> None:
        """Wrap every layer boundary of :data:`LAYER_CALLS`."""
        import repro.harness
        import repro.workloads.micro  # noqa: F401  (defines the micro classes)
        from repro.workloads.base import Workload

        for layer, module, cls_name, names in LAYER_CALLS:
            cls = getattr(importlib.import_module(module), cls_name)
            for name in names:
                if name not in vars(cls):
                    continue
                if (cls_name, name) == ("CMPSystem", "__init__"):
                    self._patch_init(cls, layer)
                elif (cls_name, name) == ("ExecutionPool", "run"):
                    self._patch_pool(cls, layer)
                else:
                    attrs = {
                        ("CMPSystem", "run"): _RUN_ATTRS,
                        ("ResultCache", "get"): _GET_ATTRS,
                    }.get((cls_name, name))
                    self.patch(cls, name, layer, attrs)
        for cls in _subclasses(Workload):
            for name in ("programs", "itlb_schedules"):
                if name in vars(cls):
                    self.patch(cls, name, "workloads")
        self.patch(repro.harness, "run_fig5", "harness")

    def _patch_init(self, cls, layer: str) -> None:
        """Time construction, then wrap the new system's cores."""
        original = vars(cls)["__init__"]

        def init(system, *args, **kwargs):
            original(system, *args, **kwargs)
            self._wrap_cores(system)

        setattr(cls, "__init__", self.timed(init, layer, "CMPSystem.__init__"))
        self._undo.append((cls, "__init__", original, True))

    def _wrap_cores(self, system) -> None:
        for core in system.cores:
            for name in PIPELINE_CALLS:
                label = f"OoOCore.{name}"
                setattr(core, name, self.timed(getattr(core, name), "pipeline", label))

    def _patch_pool(self, cls, layer: str) -> None:
        """Time ``ExecutionPool.run``, and span each sample's ``run_job``."""
        original = vars(cls)["run"]

        def run(pool, *args, **kwargs):
            job_runner = pool.run_job
            pool.run_job = self.spanned(job_runner, None, "run_job")
            try:
                return original(pool, *args, **kwargs)
            finally:
                pool.run_job = job_runner

        setattr(cls, "run", self.spanned(run, layer, "ExecutionPool.run"))
        self._undo.append((cls, "run", original, True))

    # -- results ------------------------------------------------------------
    def layer_totals(self) -> dict[str, dict]:
        """Per layer: calls and self seconds, split by function and caller."""
        totals = {layer: _empty_total() for layer in LAYERS}
        for (layer, label), per_parent in self.cells.items():
            entry = totals.setdefault(layer, _empty_total())
            for parent, (calls, self_ns) in per_parent.items():
                for split in (
                    entry,
                    entry["by_parent"].setdefault(parent, {"calls": 0, "self_s": 0.0}),
                    entry["by_function"].setdefault(label, {"calls": 0, "self_s": 0.0}),
                ):
                    split["calls"] += calls
                    split["self_s"] += self_ns / 1e9
        return totals


def _empty_total() -> dict:
    return {"calls": 0, "self_s": 0.0, "by_parent": {}, "by_function": {}}


def _subclasses(cls) -> list[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


class _RunAttrs:
    """What one ``CMPSystem.run`` did: cycles simulated (``now``), cycles
    stepped and vocal user instructions retired.  The counts roll up
    into the enclosing span, so a sample's ``run_job`` span carries its
    own ``steps`` and ``now``, hence its skip ratio."""

    rolled_up = ("now", "steps", "user_instructions")

    @staticmethod
    def _counters(system) -> tuple[int, int, int]:
        return system.now, system.steps, system.user_instructions()

    def before(self, args):
        return self._counters(args[0])

    def after(self, args, _result, before) -> dict:
        after = self._counters(args[0])
        return dict(zip(self.rolled_up, (a - b for a, b in zip(after, before))))


class _GetAttrs:
    """Whether a cache get hit."""

    rolled_up = ()

    def before(self, _args):
        return None

    def after(self, _args, result, _before) -> dict:
        return {"hit": result is not None}


_RUN_ATTRS = _RunAttrs()
_GET_ATTRS = _GetAttrs()
