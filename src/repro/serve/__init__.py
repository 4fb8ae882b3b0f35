"""Solver-as-a-service: a long-lived, multi-tenant solve server.

The serving layer turns :class:`~repro.numeric.solver.SparseSolver` into
a warm, shared resource: per-pattern workers keep factorizations
resident, concurrent same-pattern solve requests coalesce into blocked
multi-RHS panels (bit-identically, via batch-invariant ``rhs_pad``
solves), and distinct patterns factor and solve concurrently, sharing
the process-global analysis cache.  See docs/SERVING.md.
"""

from repro.serve.client import InProcessClient, SocketClient
from repro.serve.metrics import (
    LatencyRecorder,
    export_serve_gauges,
    stats_to_prometheus,
)
from repro.serve.server import (
    PatternWorker,
    ServeConfig,
    SolveServer,
    run_unix_server,
    serve_unix,
)
from repro.serve.top import render_dashboard, run_top

__all__ = [
    "InProcessClient",
    "LatencyRecorder",
    "PatternWorker",
    "ServeConfig",
    "SocketClient",
    "SolveServer",
    "export_serve_gauges",
    "render_dashboard",
    "run_top",
    "run_unix_server",
    "serve_unix",
    "stats_to_prometheus",
]
