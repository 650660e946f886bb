"""The serve probe, which no daemon answers.

``bench/child.py::probe_daemon`` wraps :func:`service_pool` and fails a
Fig 5 run unless every render calls it exactly once and gets ``None``.
:meth:`repro.harness.runs.Runner.prefetch` makes that one call.
"""

from __future__ import annotations


def service_pool(**kwargs) -> None:
    """No daemon answers: the caller runs on its local pool."""
    return None
