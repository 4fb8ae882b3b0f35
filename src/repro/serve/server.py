"""The long-lived, multi-tenant solve server.

``SolveServer`` is the threaded core: a table of per-pattern workers,
each owning one warm :class:`~repro.numeric.solver.SparseSolver`.
Requests against *distinct* patterns factor and solve concurrently
(distinct worker threads); requests against the *same* pattern share
one warm :class:`~repro.numeric.engine.NumericContext` and are
serialized by their worker — which is what lets it coalesce them.

Coalescing: when a worker dequeues a solve request it drains the
*contiguous* run of solve requests already queued behind it (never past
a factor / refactorize barrier, so values can never be mixed across a
refactorization), bounded by ``max_batch`` columns, and never waits for
more: the backlog that built up during the previous solve is the batch.
The batch is stacked into one blocked (n, k) panel and solved in a
single sweep — concurrent single-RHS traffic rides the multi-RHS path
that is ~29x faster than k separate solves.  Workers are built with
``SparseSolver(rhs_pad=max_batch)``, so every dense kernel runs at
batch-size-independent shapes and each response is **bit-identical** no
matter which requests happened to share its panel (docs/SERVING.md).

Live observability: every request gets a server-assigned **request id**
at submission and carries it through coalescing — a blocked panel knows
its rider ids, responses echo the id, and per-request phase spans
(``queue_wait`` → ``coalesce_wait`` → ``solve``) flow into the
telemetry sink when one is active.  The server keeps rolling-window
latency/throughput views (:class:`repro.serve.metrics.LatencyRecorder`),
a bounded top-K slow-request exemplar ring
(:class:`repro.obs.live.ExemplarRing`), per-worker live queue
depth/occupancy, and a heartbeat counter — all surfaced by the
side-effect-free :meth:`SolveServer.stats` / :meth:`SolveServer.health`
and, over the wire, by the ``stats`` / ``health`` ops
(docs/SERVING.md "Operating the server").

The asyncio front end (:func:`serve_unix` / :func:`run_unix_server`)
speaks the NDJSON protocol of :mod:`repro.serve.protocol` over a unix
socket, fanning request handling onto a thread pool so concurrent
connections (and pipelined requests on one connection) coalesce too.
In-process callers — tests, benchmarks — skip the wire entirely via
:class:`repro.serve.client.InProcessClient`.
"""

from __future__ import annotations

import itertools
import logging
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field

import numpy as np

from repro.numeric.cache import analysis_cache, pattern_digest
from repro.numeric.solver import SparseSolver
from repro.obs import telemetry
from repro.obs.live import ExemplarRing
from repro.obs.metrics import global_registry
from repro.obs.spans import Span, span
from repro.serve import protocol
from repro.serve.metrics import (
    REQUEST_PHASE,
    LatencyRecorder,
    export_serve_gauges,
    stats_to_prometheus,
)
from repro.sparse.csc import CSCMatrix

logger = logging.getLogger(__name__)


@dataclass
class ServeConfig:
    """Tuning knobs of the solve server (see docs/SERVING.md)."""

    #: Largest blocked panel (columns) one solve sweep carries.
    #: ``max_batch=1`` disables coalescing entirely.
    max_batch: int = 32
    #: Batch-invariant solve width passed to every per-pattern solver.
    #: ``None`` (default) tracks ``max_batch`` so responses are
    #: bit-identical regardless of batching; set 1 to disable padding.
    rhs_pad: int | None = None
    #: Bound on concurrently registered patterns (worker threads).
    max_patterns: int = 64
    #: Thread-pool width of the socket front end.
    io_threads: int = 8
    #: Numeric-phase worker threads of each SparseSolver.
    workers: int | None = None
    #: Trailing window (seconds) of the live SLO view reported by
    #: ``stats`` and exported as the ``serve.window.*`` gauges.
    window_s: float = 60.0
    #: Slow-request exemplars retained (top-K by end-to-end latency).
    exemplars: int = 16
    #: Liveness heartbeat period (seconds); the ``health`` op reports
    #: the beat count and the age of the last beat.
    heartbeat_s: float = 1.0

    def __post_init__(self) -> None:
        # An out-of-range knob would start a server that fails (or
        # silently clamps) every request; refuse it before anything binds.
        for name in ("max_batch", "rhs_pad", "max_patterns", "io_threads",
                     "workers", "exemplars"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"ServeConfig.{name} must be >= 1 "
                                 f"(got {value})")
        for name in ("window_s", "heartbeat_s"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"ServeConfig.{name} must be > 0 "
                                 f"(got {value})")

    def effective_rhs_pad(self) -> int:
        return self.rhs_pad if self.rhs_pad is not None else self.max_batch


def _check_finite(name: str, values: np.ndarray) -> None:
    """Reject NaN/Inf at submission: a non-finite right-hand side solves
    to an all-NaN reply, and non-finite values occupy the worker for a
    whole factorization before it fails."""
    if not np.isfinite(values).all():
        raise ValueError(f"{name} contains NaN or Inf")


@dataclass
class _Ticket:
    """One queued request; ``future`` resolves to the op's payload.

    The three timestamps are the request's span skeleton: ``t_submit``
    (enqueue), ``t_dequeue`` (its worker picked it out of the queue —
    for batch riders, the moment they were drained into the batch), and
    ``t_start`` (the factor/solve actually began, i.e. the batch was
    assembled).  :meth:`phases_ms` turns them into the breakdown
    that exemplars, telemetry spans, and the latency recorder share.
    """

    op: str                                   # "factor"|"solve"|"refactorize"
    b: np.ndarray | None = None               # solve: (n, k) panel
    vector: bool = False                      # solve: request was 1-D
    matrix: CSCMatrix | None = None           # factor
    kind: str | None = None                   # factor
    ordering: str = "amd"                     # factor
    data: np.ndarray | None = None            # refactorize
    request_id: str = ""
    t_submit: float = field(default_factory=time.perf_counter)
    t_dequeue: float | None = None
    t_start: float | None = None
    future: Future = field(default_factory=Future)

    def phases_ms(self, now: float) -> dict[str, float]:
        dequeue = self.t_dequeue if self.t_dequeue is not None \
            else self.t_submit
        start = self.t_start if self.t_start is not None else dequeue
        return {
            "queue_wait": max(0.0, dequeue - self.t_submit) * 1e3,
            "coalesce_wait": max(0.0, start - dequeue) * 1e3,
            "solve": max(0.0, now - start) * 1e3,
        }


class PatternWorker(threading.Thread):
    """One pattern's FIFO executor: a warm solver + a coalescing queue.

    Live counters (``served``/``batches``/``columns``/``last_batch_k``/
    ``last_done``) are written only by the worker thread itself and read
    lock-free by :meth:`snapshot`, so stats polling never contends with
    the solve path.
    """

    def __init__(self, pattern: str, server: "SolveServer") -> None:
        super().__init__(name=f"serve-{pattern[:12]}", daemon=True)
        self.pattern = pattern
        self.server = server
        self.config = server.config
        self.solver: SparseSolver | None = None
        self.matrix: CSCMatrix | None = None
        #: Matrix size and nonzero count, pinned at registration so
        #: ``submit_solve`` / ``submit_refactorize`` can reject
        #: wrong-length inputs before they reach (and poison) the queue.
        self.n: int | None = None
        self.nnz: int | None = None
        self._queue: deque[_Ticket] = deque()
        self._cond = threading.Condition()
        self._stopping = False
        # -- live stats (worker-thread writes, lock-free reads) -----------
        self.busy = False
        self.served = 0
        self.batches = 0
        self.columns = 0
        self.last_batch_k = 0
        self.created = time.perf_counter()
        self.last_done = self.created

    # -- producer side ------------------------------------------------------

    def submit(self, ticket: _Ticket) -> Future:
        with self._cond:
            if self._stopping:
                raise RuntimeError("server is shutting down")
            self._queue.append(ticket)
            depth = len(self._queue)
            self._cond.notify()
        self.server.note_submitted(ticket, depth)
        return ticket.future

    def stop(self) -> None:
        with self._cond:
            self._stopping = True
            self._cond.notify_all()

    # -- live stats ---------------------------------------------------------

    def queue_depth(self) -> int:
        with self._cond:
            return len(self._queue)

    def snapshot(self) -> dict:
        """Point-in-time operational view of this worker."""
        now = time.perf_counter()
        return {
            "alive": self.is_alive(),
            "busy": self.busy,
            "queue_depth": self.queue_depth(),
            "served": self.served,
            "batches": self.batches,
            "columns": self.columns,
            "last_batch_k": self.last_batch_k,
            "n": self.n,
            "idle_s": max(0.0, now - self.last_done),
            "age_s": max(0.0, now - self.created),
        }

    # -- consumer side ------------------------------------------------------

    def run(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._stopping:
                    self._cond.wait()
                if not self._queue:
                    return                      # stopped and drained
                ticket = self._queue.popleft()
            ticket.t_dequeue = time.perf_counter()
            self.busy = True
            try:
                if ticket.op == "solve":
                    self._run_solve_batch(ticket)
                elif ticket.op == "factor":
                    self._run_factor(ticket)
                elif ticket.op == "refactorize":
                    self._run_refactorize(ticket)
                else:
                    raise ValueError(f"unknown ticket op {ticket.op!r}")
            except Exception as exc:            # worker must survive
                logger.exception("serve worker %s: %s failed",
                                 self.pattern, ticket.op)
                global_registry().counter("serve.errors").inc()
                if not ticket.future.done():
                    ticket.future.set_exception(exc)
            finally:
                self.busy = False
                self.last_done = time.perf_counter()

    def _coalesce(self, first: _Ticket) -> list[_Ticket]:
        """Collect the solve batch starting at ``first``.

        Drains the *contiguous* prefix of solve requests already queued
        (a factor/refactorize request is a barrier: requests behind it
        see the new values, never the old ones) and never waits for
        more.  A queued panel that would push the batch past
        ``max_batch`` columns is left for the next batch, so the
        assembled panel never exceeds ``max_batch`` (``first`` itself
        may — an oversized single request — and :meth:`_solve_panel`
        chunks it back down).
        """
        batch = [first]
        columns = first.b.shape[1]
        max_batch = self.config.max_batch
        with self._cond:
            while (self._queue and self._queue[0].op == "solve"
                    and columns + self._queue[0].b.shape[1] <= max_batch):
                ticket = self._queue.popleft()
                ticket.t_dequeue = time.perf_counter()
                batch.append(ticket)
                columns += ticket.b.shape[1]
        return batch

    def _solve_panel(self, panel: np.ndarray) -> np.ndarray:
        """Solve one blocked panel at batch-invariant widths.

        A panel wider than the padding width (a single oversized
        request — coalescing never assembles one) is solved in
        ``rhs_pad``-wide chunks so every dense kernel still runs at the
        fixed ``(n, rhs_pad)`` shape and the bit-identity guarantee
        holds for any k.
        """
        pad = self.config.effective_rhs_pad()
        if pad > 1 and panel.shape[1] > pad:
            return np.concatenate(
                [self.solver.solve(panel[:, i:i + pad])
                 for i in range(0, panel.shape[1], pad)], axis=1)
        return self.solver.solve(panel)

    def _run_solve_batch(self, first: _Ticket) -> None:
        batch = self._coalesce(first)
        t_start = time.perf_counter()
        for ticket in batch:
            ticket.t_start = t_start
        riders = [t.request_id for t in batch]
        try:
            if self.solver is None:
                raise RuntimeError(
                    f"pattern {self.pattern!r} has no factorization yet")
            panel = (batch[0].b if len(batch) == 1
                     else np.concatenate([t.b for t in batch], axis=1))
            k = panel.shape[1]
            with span("serve.batch", detail=True, pattern=self.pattern,
                      k=k, requests=len(batch), riders=riders):
                x = self._solve_panel(panel)
        except Exception as exc:
            # A failed coalesced solve must fail *every* rider: a batch
            # peer left unresolved would hang its client in
            # Future.result() forever.  run() re-logs and counts via the
            # re-raise (first's future is already done, so its handler
            # skips it).
            for ticket in batch:
                if not ticket.future.done():
                    ticket.future.set_exception(exc)
            raise
        reg = global_registry()
        reg.counter("serve.coalesce.batches").inc()
        reg.counter("serve.coalesce.columns").inc(k)
        self.batches += 1
        self.columns += k
        self.last_batch_k = k
        self.server.note_batch(k)
        offset = 0
        for ticket in batch:
            width = ticket.b.shape[1]
            result = x[:, offset] if ticket.vector \
                else x[:, offset:offset + width]
            offset += width
            self.served += 1
            self.server.note_response(ticket, self.pattern, batch_k=k,
                                      width=width)
            ticket.future.set_result({"x": result, "batch_k": k,
                                      "request_id": ticket.request_id})

    def _run_factor(self, ticket: _Ticket) -> None:
        ticket.t_start = time.perf_counter()
        warm = self.solver is not None
        if warm:
            # Same pattern, new values: ride the warm refactorize path.
            self.solver.refactorize(ticket.matrix)
        else:
            self.matrix = ticket.matrix
            self.solver = SparseSolver(
                ticket.matrix, kind=ticket.kind,
                ordering=ticket.ordering,
                workers=self.config.workers,
                rhs_pad=self.config.effective_rhs_pad(),
            )
        self.served += 1
        self.server.note_response(ticket, self.pattern)
        ticket.future.set_result({
            "pattern": self.pattern,
            "n": int(ticket.matrix.n_rows),
            "factor_nnz": int(self.solver.symbolic.factor_nnz),
            "warm": warm,
            "request_id": ticket.request_id,
        })

    def _run_refactorize(self, ticket: _Ticket) -> None:
        ticket.t_start = time.perf_counter()
        if self.solver is None:
            raise RuntimeError(
                f"pattern {self.pattern!r} has no factorization yet")
        matrix = CSCMatrix(
            self.matrix.n_rows, self.matrix.n_cols,
            self.matrix.indptr, self.matrix.indices, ticket.data,
        )
        self.solver.refactorize(matrix)
        self.served += 1
        self.server.note_response(ticket, self.pattern)
        ticket.future.set_result({"pattern": self.pattern,
                                  "request_id": ticket.request_id})


class SolveServer:
    """Multi-tenant solve service over per-pattern workers.

    In-process entry points (used by :class:`InProcessClient` and
    tests) take and return numpy arrays directly; the protocol
    entry point :meth:`handle` speaks the NDJSON dict format.
    """

    def __init__(self, config: ServeConfig | None = None) -> None:
        self.config = config or ServeConfig()
        self.latency = LatencyRecorder()
        self.exemplars = ExemplarRing(self.config.exemplars)
        self._workers: dict[str, PatternWorker] = {}
        self._table_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._batch_columns = 0
        self._batch_count = 0
        self._batch_max = 0
        self._queue_depth_max = 0
        self._inflight = 0
        self._heartbeats = 0
        self._last_beat = time.perf_counter()
        self._request_seq = itertools.count(1)
        self._shutdown = threading.Event()
        self._started = time.perf_counter()
        self._heartbeat_thread = threading.Thread(
            target=self._heartbeat_loop, name="serve-heartbeat",
            daemon=True)
        self._heartbeat_thread.start()

    # -- liveness -----------------------------------------------------------

    def _heartbeat_loop(self) -> None:
        """Count beats while the server lives, so a poller can tell an
        idle-but-healthy server from a hung one (``health`` reports the
        beat count and the age of the last beat)."""
        period = max(0.05, self.config.heartbeat_s)
        while not self._shutdown.wait(period):
            with self._stats_lock:
                self._heartbeats += 1
                self._last_beat = time.perf_counter()

    def next_request_id(self) -> str:
        """A fresh server-unique request id (``r<n>``)."""
        return f"r{next(self._request_seq)}"

    # -- stats hooks (called by workers) ------------------------------------

    def note_batch(self, k: int) -> None:
        with self._stats_lock:
            self._batch_columns += k
            self._batch_count += 1
            self._batch_max = max(self._batch_max, k)

    def note_submitted(self, ticket: _Ticket, depth: int) -> None:
        with self._stats_lock:
            self._queue_depth_max = max(self._queue_depth_max, depth)
            self._inflight += 1
        # Every resolution path — success, solve failure, batch-peer
        # failure, worker crash — settles the future, so the inflight
        # level can never leak.
        ticket.future.add_done_callback(self._note_settled)

    def _note_settled(self, _future: Future) -> None:
        with self._stats_lock:
            self._inflight -= 1

    def note_response(self, ticket: _Ticket, pattern: str,
                      batch_k: int = 1, width: int = 1) -> None:
        """Record one completed request: phase latencies, the slow-
        request exemplar ring, and (when telemetry is on) per-request
        span events carrying the request id."""
        now = time.perf_counter()
        total_s = now - ticket.t_submit
        phases = ticket.phases_ms(now)
        self.latency.observe(REQUEST_PHASE, total_s)
        self.latency.observe("queue_wait", phases["queue_wait"] / 1e3)
        self.latency.observe("coalesce_wait",
                             phases["coalesce_wait"] / 1e3)
        self.latency.observe("solve", phases["solve"] / 1e3)
        global_registry().counter("serve.responses").inc()
        self.exemplars.offer(total_s * 1e3, {
            "request_id": ticket.request_id,
            "op": ticket.op,
            "pattern": pattern,
            "batch_k": batch_k,
            "k": width,
            "latency_ms": total_s * 1e3,
            "phases_ms": phases,
            "wall": time.time(),
        })
        sink = telemetry.current_sink()
        if sink is not None:
            attrs = {"request_id": ticket.request_id, "op": ticket.op,
                     "pattern": pattern, "batch_k": batch_k}
            sink.span(Span(name="serve.request",
                           start_s=ticket.t_submit,
                           duration_s=total_s, attrs=attrs))
            cursor = ticket.t_submit
            for phase in ("queue_wait", "coalesce_wait", "solve"):
                dur = phases[phase] / 1e3
                sink.span(Span(name=f"serve.request.{phase}",
                               start_s=cursor, duration_s=dur,
                               depth=1, attrs=attrs))
                cursor += dur

    # -- pattern table ------------------------------------------------------

    def pattern_key(self, matrix: CSCMatrix, kind: str,
                    ordering: str) -> str:
        return f"{pattern_digest(matrix)}:{kind}:{ordering}"

    def _worker(self, pattern: str) -> PatternWorker:
        with self._table_lock:
            worker = self._workers.get(pattern)
        if worker is None:
            raise KeyError(
                f"unknown pattern {pattern!r}; send a factor request "
                "first")
        return worker

    # -- in-process API (numpy in, numpy out) -------------------------------

    def submit_factor(self, matrix: CSCMatrix, kind: str | None = None,
                      ordering: str = "amd",
                      request_id: str | None = None) -> Future:
        if self._shutdown.is_set():
            raise RuntimeError("server is shutting down")
        if matrix.n_rows != matrix.n_cols:
            raise ValueError("factor requires a square matrix")
        _check_finite("matrix data", matrix.data)
        if kind is None:
            kind = "cholesky" if matrix.is_symmetric() else "lu"
        pattern = self.pattern_key(matrix, kind, ordering)
        with self._table_lock:
            worker = self._workers.get(pattern)
            if worker is None:
                if len(self._workers) >= self.config.max_patterns:
                    raise RuntimeError(
                        f"pattern table full "
                        f"({self.config.max_patterns} patterns); "
                        "shut down idle tenants or raise max_patterns")
                worker = PatternWorker(pattern, self)
                worker.n = int(matrix.n_rows)
                worker.nnz = int(matrix.nnz)
                self._workers[pattern] = worker
                worker.start()
        global_registry().counter("serve.requests.factor").inc()
        return worker.submit(_Ticket(
            op="factor", matrix=matrix, kind=kind, ordering=ordering,
            request_id=request_id or self.next_request_id()))

    def submit_solve(self, pattern: str, b: np.ndarray,
                     request_id: str | None = None) -> Future:
        worker = self._worker(pattern)
        if np.iscomplexobj(b):
            raise ValueError("b must be real; the solver factors real "
                             "matrices only")
        b = np.asarray(b, dtype=np.float64)
        vector = b.ndim == 1
        if vector:
            b = b[:, None]
        if b.ndim != 2:
            raise ValueError("b must be a vector or an (n, k) array")
        # Reject wrong-length b at submission: inside the worker the
        # mismatch would surface mid-batch, where it is hard to
        # attribute and would fail the batch's co-riders too.
        if worker.n is not None and b.shape[0] != worker.n:
            raise ValueError(
                f"b has {b.shape[0]} rows but pattern {pattern!r} is "
                f"{worker.n}x{worker.n}")
        _check_finite("b", b)
        global_registry().counter("serve.requests.solve").inc()
        return worker.submit(_Ticket(
            op="solve", b=b, vector=vector,
            request_id=request_id or self.next_request_id()))

    def submit_refactorize(self, pattern: str, data: np.ndarray,
                           request_id: str | None = None) -> Future:
        worker = self._worker(pattern)
        data = np.asarray(data, dtype=np.float64)
        # A wrong-length data vector would build a CSC whose values no
        # longer line up with its indices: reject it here, not mid-factor.
        if data.ndim != 1 or data.shape[0] != worker.nnz:
            raise ValueError(
                f"data has {data.size} values but pattern {pattern!r} has "
                f"{worker.nnz} nonzeros")
        _check_finite("data", data)
        global_registry().counter("serve.requests.refactorize").inc()
        return worker.submit(_Ticket(
            op="refactorize", data=data,
            request_id=request_id or self.next_request_id()))

    def factor(self, matrix: CSCMatrix, kind: str | None = None,
               ordering: str = "amd") -> dict:
        return self.submit_factor(matrix, kind, ordering).result()

    def solve(self, pattern: str, b: np.ndarray) -> np.ndarray:
        return self.submit_solve(pattern, b).result()["x"]

    def refactorize(self, pattern: str, data: np.ndarray) -> dict:
        return self.submit_refactorize(pattern, data).result()

    # -- stats / lifecycle --------------------------------------------------

    def queue_depth(self) -> int:
        """Current total pending requests across pattern queues."""
        with self._table_lock:
            workers = list(self._workers.values())
        return sum(w.queue_depth() for w in workers)

    def uptime_s(self) -> float:
        return max(time.perf_counter() - self._started, 1e-9)

    def health(self) -> dict:
        """Cheap liveness probe: no latency math, no gauge mutation.

        Distinguishes an idle-but-healthy server (heartbeats advance,
        workers alive, queues empty) from a hung one (stale heartbeat
        or a dead worker with a non-empty queue).
        """
        now = time.perf_counter()
        with self._stats_lock:
            heartbeats = self._heartbeats
            beat_age = now - self._last_beat
            inflight = self._inflight
        with self._table_lock:
            workers = dict(self._workers)
        worker_health = {
            pattern: {"alive": w.is_alive(),
                      "busy": w.busy,
                      "queue_depth": w.queue_depth()}
            for pattern, w in workers.items()
        }
        cache = analysis_cache()
        return {
            "ok": (not self._shutdown.is_set()
                   and all(h["alive"] or h["queue_depth"] == 0
                           for h in worker_health.values())),
            "stopping": self._shutdown.is_set(),
            "uptime_s": self.uptime_s(),
            "heartbeats": heartbeats,
            "heartbeat_age_s": max(0.0, beat_age),
            "patterns": len(workers),
            "inflight": inflight,
            "queue_depth": sum(h["queue_depth"]
                               for h in worker_health.values()),
            "workers": worker_health,
            "analysis_cache": {"size": len(cache),
                               "capacity": cache.capacity},
        }

    def stats(self, export: bool = False,
              window_s: float | None = None) -> dict:
        """Full operational snapshot: cumulative counters, the rolling
        ``window_s`` (default ``config.window_s``) SLO view, per-worker
        occupancy, and the slow-request exemplars.

        Side-effect-free by default so concurrent wire pollers never
        mutate shared gauges; the explicit collection points (shutdown,
        ``stats(export=True)``) are the only producers of the
        ``serve.*`` gauges in the global registry.
        """
        window_s = float(window_s) if window_s else self.config.window_s
        with self._stats_lock:
            batch_mean = (self._batch_columns / self._batch_count
                          if self._batch_count else 0.0)
            batch_count = self._batch_count
            batch_max = self._batch_max
            queue_depth_max = self._queue_depth_max
            inflight = self._inflight
            heartbeats = self._heartbeats
        with self._table_lock:
            workers = dict(self._workers)
        reg = global_registry()
        uptime = self.uptime_s()
        responses = reg.value("serve.responses", 0)
        window = self.latency.window_summary(window_s=window_s)
        request_window = window.get(REQUEST_PHASE, {})
        queue_depth = sum(w.queue_depth() for w in workers.values())
        stats = {
            "patterns": len(workers),
            "responses": int(responses),
            "errors": int(reg.value("serve.errors", 0)),
            "uptime_s": uptime,
            "heartbeats": heartbeats,
            "inflight": inflight,
            "coalesce": {
                "batches": batch_count,
                "batch_mean": batch_mean,
                "batch_max": batch_max,
            },
            "queue_depth": queue_depth,
            "queue_depth_max": queue_depth_max,
            "latency_ms": self.latency.summary(),
            "window_s": window_s,
            "window": {
                "latency_ms": window,
                "throughput_rps": request_window.get("rate_per_s", 0.0),
                "inflight": inflight,
                "queue_depth": queue_depth,
            },
            "workers": {pattern: w.snapshot()
                        for pattern, w in workers.items()},
            "exemplars": self.exemplars.snapshot(),
            "analysis_cache": analysis_cache().stats(),
        }
        if export:
            self.latency.export()
            self.latency.export_window(window_s=window_s)
            export_serve_gauges(throughput_rps=responses / max(uptime, 1e-9),
                                batch_mean=batch_mean or None,
                                queue_depth_max=queue_depth_max,
                                queue_depth=queue_depth,
                                uptime_s=uptime)
        return stats

    def shutdown(self, wait: bool = True) -> None:
        self._shutdown.set()
        with self._table_lock:
            workers = list(self._workers.values())
        for worker in workers:
            worker.stop()
        if wait:
            for worker in workers:
                worker.join(timeout=30.0)
            self._heartbeat_thread.join(timeout=5.0)
        self.stats(export=True)

    # -- protocol entry point -----------------------------------------------

    def handle(self, message: dict) -> dict:
        """Serve one protocol request dict; always returns a response."""
        request_id = message.get("id")
        try:
            op = protocol.validate_request(message)
            if op == "factor":
                matrix = protocol.matrix_from_wire(message["matrix"])
                result = self.submit_factor(
                    matrix, kind=message.get("kind"),
                    ordering=message.get("ordering", "amd"),
                ).result()
                return protocol.ok_response(request_id, **result)
            if op == "solve":
                result = self.submit_solve(
                    message["pattern"], message["b"]).result()
                return protocol.ok_response(
                    request_id, x=result["x"], batch_k=result["batch_k"],
                    request_id=result["request_id"])
            if op == "refactorize":
                result = self.submit_refactorize(
                    message["pattern"], message["data"]).result()
                return protocol.ok_response(request_id, **result)
            if op == "stats":
                # Read-only on the wire: never export gauges from a
                # poller (concurrent scrapers would race collection
                # points and each other).
                stats = self.stats(export=False,
                                   window_s=message.get("window_s"))
                if message.get("format") == "text":
                    return protocol.ok_response(
                        request_id,
                        text=stats_to_prometheus(stats, self.health()))
                return protocol.ok_response(request_id, stats=stats)
            if op == "health":
                return protocol.ok_response(request_id,
                                            health=self.health())
            # shutdown
            self.shutdown(wait=False)
            return protocol.ok_response(request_id, stopping=True)
        except Exception as exc:
            global_registry().counter("serve.errors").inc()
            return protocol.error_response(request_id, str(exc))


# -- asyncio socket front end -------------------------------------------------


async def serve_unix(server: SolveServer, path: str,
                     inflight: set | None = None):
    """Start the NDJSON front end on a unix socket; returns the
    asyncio server object.  Each request line becomes its own task on a
    thread pool, so pipelined requests from one connection (and requests
    from many connections) reach the coalescing queues concurrently.
    ``inflight`` (if given) holds the request tasks of every connection
    that have not yet written their reply."""
    import asyncio
    from concurrent.futures import ThreadPoolExecutor

    inflight = set() if inflight is None else inflight

    pool = ThreadPoolExecutor(max_workers=server.config.io_threads,
                              thread_name_prefix="serve-io")

    async def on_client(reader, writer):
        loop = asyncio.get_running_loop()
        write_lock = asyncio.Lock()
        pending: set = set()

        async def one(line: bytes) -> None:
            try:
                request = protocol.decode(line)
            except protocol.ProtocolError as exc:
                global_registry().counter("serve.errors").inc()
                response = protocol.error_response(exc.req_id, str(exc))
            else:
                response = await loop.run_in_executor(
                    pool, server.handle, request)
            async with write_lock:
                writer.write(protocol.encode(response))
                await writer.drain()

        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                task = asyncio.ensure_future(one(line))
                for tasks in (pending, inflight):
                    tasks.add(task)
                    task.add_done_callback(tasks.discard)
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        finally:
            writer.close()

    # NDJSON frames carry whole matrices; the default 64 KiB line limit
    # is far too small for a factor request.
    return await asyncio.start_unix_server(on_client, path=path,
                                           limit=256 * 1024 * 1024)


def run_unix_server(server: SolveServer, path: str,
                    ready: threading.Event | None = None) -> None:
    """Blocking runner: serve on ``path`` until the server shuts down.

    ``ready`` (if given) is set once the socket is listening — the
    hand-shake tests and the CLI's startup message use it.
    """
    import asyncio

    async def main() -> None:
        inflight: set = set()
        sock_server = await serve_unix(server, path, inflight)
        if ready is not None:
            ready.set()
        logger.info("serving on %s", path)
        try:
            while not server._shutdown.is_set():
                await asyncio.sleep(0.05)
        finally:
            sock_server.close()
            # The shutdown request set the flag from inside its own
            # handler: let it (and anything else in flight) write its
            # reply before asyncio.run cancels the connection tasks.
            if inflight:
                await asyncio.wait(inflight, timeout=5.0)
            await sock_server.wait_closed()

    asyncio.run(main())
