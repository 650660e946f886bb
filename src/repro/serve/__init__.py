"""repro.serve — the serve probe, and nothing else.

Every sweep runs on the local :class:`~repro.exec.pool.ExecutionPool`
plus the result cache.  :func:`repro.serve.client.service_pool` answers
``None``: the benchmark's Fig 5 children (``bench/child.py``) wrap it
and check that each render probes it once and finds no daemon.
"""
