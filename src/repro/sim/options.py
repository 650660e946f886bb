"""SimOptions: the one place simulation-run knobs are resolved.

Every knob that picks how a run is simulated lives on one frozen
object with a single environment resolver, :meth:`SimOptions.from_env`,
so CLI commands, the experiment harness and tests all agree on what a
"default" run is.  :class:`~repro.sim.cmp.CMPSystem` takes one
``options=`` argument and resolves ``SimOptions.from_env()`` when it is
omitted; it has no per-knob keyword arguments.

Field semantics:

* ``kernel`` / ``execution`` select *how* the simulation is computed,
  never *what* it computes — each carries a bit-identity contract (see
  docs/ARCHITECTURE.md, "Simulation kernel" and "Execution modes")
  enforced by the differential tests of ``tests/sim/test_cycle_skip.py``
  and ``tests/sim/test_replay_exec.py`` and the pinned digests of
  ``tests/sim/test_golden.py``.
* ``execution`` is the replay bit: ``replay`` arms a mirror window on
  every Reunion pair whose mute is the same automaton as its vocal,
  ``dual`` steps every mute.  Which protection policy a pair runs is
  result-affecting, so it lives on the hashed
  :attr:`~repro.sim.config.SystemConfig.pair_policies`, never here.
* ``trace`` arms the :mod:`repro.obs` telemetry subsystem.  Telemetry
  observes and never mutates, so it is likewise contracted to leave
  results bit-identical (enforced by ``tests/sim/test_telemetry.py``).
* ``max_cycles`` bounds ``run_until_idle``.

Because every field is result-neutral by contract (the workload seed
changes results, so it is no option: it travels as its own explicit
argument, and :class:`~repro.exec.jobs.SampleJob` carries it as a
first-class field), no option enters a job's payload or content-hash key
(``tests/exec/test_jobs.py`` pins this).  A knob that changes results
belongs on the hashed config instead.

The memory-backend selector is the counter-example that proves the
rule: ``REPRO_COHERENCE`` (shared / snoopy / directory) *does* change
results, so it is resolved at config level —
:func:`repro.sim.config.apply_env_coherence` rewrites the hashed
:class:`~repro.sim.config.SystemConfig` itself — and never appears
here.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import Any, Mapping

#: Telemetry levels, weakest to strongest.  Each level includes the
#: previous one:
#:
#: * ``off``     — telemetry object not even constructed; zero cost.
#: * ``metrics`` — per-interval time series only (no event records).
#: * ``events``  — ring-buffered records of the rare, load-bearing
#:   events (fingerprint comparisons, recoveries, synchronizing and
#:   phantom requests, mirror windows, fault injections).
#: * ``full``    — adds the high-frequency diagnostics (per-interval
#:   fingerprint closes, cache evictions / dropped mute writebacks).
TRACE_LEVELS = ("off", "metrics", "events", "full")

_KERNELS = ("event", "naive")
_EXECUTIONS = ("replay", "dual")


@dataclass(frozen=True)
class SimOptions:
    """Everything about a simulation run that is not the system config.

    :class:`~repro.sim.config.SystemConfig` describes the simulated
    *machine*; ``SimOptions`` describes the *simulation* of it — which
    kernel computes it, whether the mute replays, how much telemetry to
    record, how long to run.  Frozen and hashable, so it can ride along
    in job descriptors and across process boundaries.
    """

    kernel: str = "event"
    execution: str = "replay"
    trace: str = "off"
    trace_capacity: int = 65_536  # event ring-buffer size (records)
    max_cycles: int = 1_000_000  # run_until_idle bound

    def __post_init__(self) -> None:
        if self.kernel not in _KERNELS:
            raise ValueError(
                f"unknown simulation kernel {self.kernel!r}; use 'event' or 'naive'"
            )
        if self.execution not in _EXECUTIONS:
            raise ValueError(
                f"unknown execution mode {self.execution!r}; use 'replay' or 'dual'"
            )
        if self.trace not in TRACE_LEVELS:
            raise ValueError(
                f"unknown trace level {self.trace!r}; use one of {TRACE_LEVELS}"
            )
        if self.trace_capacity < 1:
            raise ValueError("trace capacity must be >= 1")
        if self.max_cycles < 1:
            raise ValueError("max_cycles must be >= 1")

    @property
    def telemetry_armed(self) -> bool:
        return self.trace != "off"

    def replace(self, **kwargs: Any) -> "SimOptions":
        return dataclasses.replace(self, **kwargs)

    @classmethod
    def from_env(
        cls, env: Mapping[str, str] | None = None, **overrides: Any
    ) -> "SimOptions":
        """Resolve options from the environment, explicit values winning.

        The *only* place ``REPRO_KERNEL`` / ``REPRO_EXEC`` /
        ``REPRO_TRACE`` / ``REPRO_TRACE_CAPACITY`` are consulted.
        ``overrides`` mirror the dataclass fields; ``None`` values mean
        "not specified" and fall through to the environment (and from
        there to the field default), so argparse results can be passed
        straight in.
        """
        if env is None:
            env = os.environ
        # Empty strings mean "unset" (a CI matrix leg that doesn't pin a
        # knob exports the variable as "") — same convention as
        # REPRO_COHERENCE in repro.sim.config.
        values: dict[str, Any] = {
            "kernel": env.get("REPRO_KERNEL") or cls.kernel,
            "execution": env.get("REPRO_EXEC") or cls.execution,
            "trace": env.get("REPRO_TRACE") or cls.trace,
        }
        capacity = env.get("REPRO_TRACE_CAPACITY", "").strip()
        if capacity:
            values["trace_capacity"] = int(capacity)
        values.update(
            {name: value for name, value in overrides.items() if value is not None}
        )
        return cls(**values)

