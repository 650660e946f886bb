"""repro.obs — structured telemetry for simulation runs.

Reunion's correctness story lives in rare events — fingerprint
mismatches, input incoherence, synchronizing requests, re-execution
phases, mirror-window closures — that aggregate end-of-run
:class:`~repro.sim.stats.Stats` flatten away.  This package records
them, when armed, as typed event streams and per-interval time series:

* :mod:`repro.obs.events` — a bounded ring-buffered event log plus the
  :class:`Telemetry` front door components emit through;
* :mod:`repro.obs.metrics` — per-interval time series (IPC,
  serializing-request rate, fingerprint bandwidth, recovery-latency
  histogram);
* :mod:`repro.obs.export` — JSONL and Chrome ``trace_event`` emitters
  backing the ``repro trace`` CLI subcommand.

The cardinal rule is **zero cost when off**: telemetry is armed by
``SimOptions(trace=...)``, and a disarmed system holds ``obs = None``
everywhere — hot paths pay one ``is not None`` test, allocate nothing,
and stay bit-identical (enforced by ``tests/sim/test_telemetry.py``).
"""

from repro.obs.events import Event, EventLog, Telemetry
from repro.obs.metrics import MetricsRow, MetricsSampler

__all__ = [
    "Event",
    "EventLog",
    "MetricsRow",
    "MetricsSampler",
    "Telemetry",
]
