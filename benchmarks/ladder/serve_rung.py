"""The serve rung: requests through a real ``repro serve`` process.

Exactly two processes: the server (``python -m repro.cli serve``, default
flags) and this generator, which drives one pipelined connection with
one sender thread and one reader thread (:mod:`loadgen`).

Phase A is an open loop — seeded Poisson arrivals at a fixed rate,
tenants alternating — and gives ``serve_p10_ms`` (and the median and
tails as layer metrics).  Phase B writes its requests back to back: it
puts coalesced batches through the correctness gates and gives
``serve.sat_rps``.  In ``mixed`` mode
every tenth request of each tenant is a ``refactorize`` with new values,
a strict barrier in that tenant's queue.
"""

from __future__ import annotations

import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time

import numpy as np

import inputs
from loadgen import Connection, Sample
from spans import Tracer
from timing import measure, median, percentile, summarize

from repro.numeric.solver import SparseSolver
from repro.serve import protocol
from repro.serve.server import ServeConfig, SolveServer
from repro.sparse.csc import CSCMatrix

TENANTS = ("tenant_spd", "tenant_lu")
RHS_PER_TENANT = 8
REFACTORIZE_EVERY = 10

RATE = 20.0                 # req/s of phase A
PACED_REQUESTS = 300        # phase A
SATURATION_REQUESTS = 300   # phase B
# Traced pass: shorter phases leave room for the in-process server and
# the 40 req/s rung inside the same run length.
TRACED_PACED_REQUESTS = 200
KNEE_RATE, KNEE_REQUESTS = 40.0, 200
INPROC_PACED_REQUESTS = 100

READY_TIMEOUT_S = 30.0
REPLY_TIMEOUT_S = 30.0
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


class Server:
    """A ``repro serve`` child that cannot outlive the rung: private
    socket directory, readiness by polling ``health``, killed and reaped
    on every exit path, stderr kept for the failure report."""

    def __init__(self, src_dir: str) -> None:
        os.makedirs(OUT_DIR, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix="serve-", dir=OUT_DIR)
        self._stderr = open(os.path.join(self.dir, "stderr"), "w+")
        env = dict(os.environ, PYTHONPATH=src_dir)
        # cwd is the socket directory and the path relative, so the
        # address stays under the ~100-byte AF_UNIX limit wherever the
        # checkout lives.
        try:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve",
                 "--socket", "s.sock"],
                cwd=self.dir, env=env, stdout=subprocess.DEVNULL,
                stderr=self._stderr)
        except OSError:
            self._stderr.close()
            shutil.rmtree(self.dir, ignore_errors=True)
            raise
        self.socket_path = os.path.relpath(
            os.path.join(self.dir, "s.sock"))

    def connect(self) -> Connection:
        """Poll until the ``health`` op answers ok."""
        deadline = time.monotonic() + READY_TIMEOUT_S
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.proc.returncode}: "
                    f"{self.stderr_tail()}")
            try:
                conn = Connection(self.socket_path, REPLY_TIMEOUT_S)
            except OSError:
                conn = None
            if conn is not None:
                if conn.call({"op": "health"})["health"]["ok"]:
                    return conn
                conn.close()
            if time.monotonic() > deadline:
                raise RuntimeError(
                    f"server not ready after {READY_TIMEOUT_S:g}s: "
                    f"{self.stderr_tail()}")
            time.sleep(0.02)

    def stderr_tail(self) -> str:
        self._stderr.flush()
        self._stderr.seek(0)
        return self._stderr.read()[-2000:]

    def stop(self, conn: Connection | None) -> None:
        """Ask for shutdown, then make sure: terminate, kill, reap."""
        try:
            if conn is not None and self.proc.poll() is None:
                conn.call({"op": "shutdown"})
        except (OSError, RuntimeError):
            pass
        finally:
            if conn is not None:
                conn.close()
            try:
                self.proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                self.proc.terminate()
                try:
                    self.proc.wait(timeout=5.0)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
            self._stderr.close()
            shutil.rmtree(self.dir, ignore_errors=True)


class Tenant:
    """One registered pattern: its matrix versions, right-hand sides and
    the direct solutions replies are compared with."""

    def __init__(self, index: int, seed: int, n_versions: int) -> None:
        a, self.kind, _ = inputs.matrix(TENANTS[index], seed)
        gen = inputs.rng(seed, 3, index)
        self.versions = [a] + [inputs.perturbed(a, self.kind, gen)
                               for _ in range(n_versions - 1)]
        self.bs = gen.standard_normal((RHS_PER_TENANT, a.n_rows))
        self.b_lists = [b.tolist() for b in self.bs]
        # What a caller gets without the server, at the server's padding.
        direct = SparseSolver(a, self.kind,
                              rhs_pad=ServeConfig().effective_rhs_pad())
        self.direct = [direct.solve(b) for b in self.bs]
        self.pattern = ""       # set by registration

    @property
    def matrix(self) -> CSCMatrix:
        return self.versions[0]


def _plan(n_requests: int, mixed: bool, counters: list[int],
          next_version: list[int]) -> list[tuple[int, str, int]]:
    """(tenant, op, argument) per request: tenants alternate; argument is
    the right-hand-side index of a solve or the version a refactorize
    installs.  ``counters``/``next_version`` carry over between phases."""
    plan = []
    for i in range(n_requests):
        t = i % len(TENANTS)
        c = counters[t]
        counters[t] += 1
        if mixed and c % REFACTORIZE_EVERY == REFACTORIZE_EVERY - 1:
            plan.append((t, "refactorize", next_version[t]))
            next_version[t] += 1
        else:
            plan.append((t, "solve", c % RHS_PER_TENANT))
    return plan


def _messages(plan, tenants: list[Tenant]) -> list[dict]:
    out = []
    for t, op, arg in plan:
        tenant = tenants[t]
        if op == "solve":
            out.append({"op": "solve", "pattern": tenant.pattern,
                        "b": tenant.b_lists[arg]})
        else:
            out.append({"op": "refactorize", "pattern": tenant.pattern,
                        "data": tenant.versions[arg].data.tolist()})
    return out


def _check_replies(plan, samples: list[Sample], tenants: list[Tenant],
                   live: list[int], mixed: bool, gate: inputs.Gate,
                   phase: str) -> None:
    """Every reply is an attempted operation; a missing or ``ok: false``
    reply fails.  Read-only solves must equal the direct solve bit for
    bit; beside writes, a solve must satisfy some value version that was
    live between its send and its reply (the server's io threads may
    reorder a pipelined write and read).  ``live[t]`` is tenant t's
    version when the phase began."""
    refactorizes = [[s for (t, op, _), s in zip(plan, samples)
                     if op == "refactorize" and t == k]
                    for k in range(len(tenants))]
    for i, ((t, op, arg), s) in enumerate(zip(plan, samples)):
        what = f"{phase} request {i} ({op})"
        if not gate.check(s.ok, f"{what}: "
                          + ("no reply" if s.reply is None
                             else str(s.reply.get("error")))):
            continue
        if op != "solve":
            continue
        tenant = tenants[t]
        x = np.asarray(s.reply["x"], dtype=np.float64)
        if not mixed:
            gate.check(np.array_equal(x, tenant.direct[arg]),
                       f"{what}: reply differs from the direct solve")
            continue
        lo = live[t] + sum(1 for r in refactorizes[t]
                           if r.replied is not None and r.replied < s.sent)
        hi = live[t] + sum(1 for r in refactorizes[t]
                           if r.sent is not None and r.sent < s.replied)
        best = min(inputs.residual(tenant.versions[v], x, tenant.bs[arg])
                   for v in range(lo, hi + 1))
        gate.residual_max = max(gate.residual_max, best)
        gate.check(best <= 1e-8,
                   f"{what}: residual {best:.3g} against every version "
                   f"live between send and reply ({lo}..{hi})")


def _solve_latencies_ms(plan, samples: list[Sample]) -> list[float]:
    return [s.latency * 1e3 for (_, op, _), s in zip(plan, samples)
            if op == "solve" and s.ok]


def _saturation_rps(samples: list[Sample]) -> float:
    done = [s for s in samples if s.ok]
    if not done:
        return 0.0
    first_send = min(s.sent for s in samples if s.sent is not None)
    return len(done) / (max(s.replied for s in done) - first_send)


def _window_stats(conn: Connection, since: float) -> dict:
    """The server's own view of the phase that began at ``since``."""
    window = time.perf_counter() - since + 0.05
    return conn.call({"op": "stats", "window_s": window})["stats"]


def serve(mode: str, seed: int, reps, traced: bool, src_dir: str) -> dict:
    mixed = mode == "mixed"
    gate = inputs.Gate()
    n_paced = reps(TRACED_PACED_REQUESTS if traced else PACED_REQUESTS,
                   floor=8)
    n_sat = reps(SATURATION_REQUESTS, floor=8)
    n_knee = reps(KNEE_REQUESTS, floor=8) if traced else 0
    counters, next_version = [0, 0], [1, 1]
    plans, live = {}, {}
    for phase, count in (("paced", n_paced), ("sat", n_sat),
                         ("knee", n_knee)):
        live[phase] = [v - 1 for v in next_version]
        plans[phase] = _plan(count, mixed, counters, next_version)
    due = {"paced": inputs.poisson_due_times(RATE, n_paced,
                                             inputs.rng(seed, 5)),
           "sat": None,
           "knee": inputs.poisson_due_times(KNEE_RATE, n_knee,
                                            inputs.rng(seed, 6))}

    t_setup = time.perf_counter()
    tenants = [Tenant(k, seed, next_version[k])
               for k in range(len(TENANTS))]
    server = Server(src_dir)
    conn = None
    samples: dict[str, list[Sample]] = {}
    stats: dict[str, dict] = {}
    try:
        conn = server.connect()
        for tenant in tenants:
            tenant.pattern = conn.call({
                "op": "factor", "kind": tenant.kind,
                "matrix": protocol.matrix_to_wire(tenant.matrix),
            })["pattern"]
            gate.check(True, "")
        setup_s = time.perf_counter() - t_setup
        for phase in ("paced", "sat", "knee"):
            if not plans[phase]:
                continue
            since = time.perf_counter()
            samples[phase] = conn.run_phase(
                _messages(plans[phase], tenants), due[phase])
            stats[phase] = _window_stats(conn, since)
    except Exception as exc:
        raise RuntimeError(f"{exc}; server stderr: "
                           f"{server.stderr_tail()}") from exc
    finally:
        server.stop(conn)
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    for phase, got in samples.items():
        _check_replies(plans[phase], got, tenants, live[phase], mixed,
                       gate, phase)
    paced_ms = _solve_latencies_ms(plans["paced"], samples["paced"])
    out = {"setup_s": setup_s, "rss_mb": rss_mb, "e2e": {}, "layers": {},
           "spans": []}
    if not traced:
        out["e2e"]["serve_p10_ms"] = {
            "value": percentile(paced_ms, 10.0), **summarize(paced_ms)}
    else:
        out["layers"] = _layers(plans, samples, stats, paced_ms, tenants)
        out["layers"].update(
            _inproc(tenants, mixed, seed, reps, gate))
        out["spans"] = _request_spans(plans, samples)
    out["layers"]["numeric.residual_max"] = gate.residual_max
    out.update(attempted=gate.attempted, failed=gate.failed,
               reasons=gate.reasons)
    return out


def _layers(plans, samples, stats, paced_ms: list[float],
            tenants: list[Tenant]) -> dict:
    paced_p50 = median(paced_ms)
    server_ms = stats["paced"]["window"]["latency_ms"]
    parts = {p: server_ms[p]["p50_ms"]
             for p in ("queue_wait", "coalesce_wait", "solve")}
    wire_ms = paced_p50 - server_ms["request"]["p50_ms"]
    # Coalescing counters are cumulative; phase B is the difference.
    before, after = stats["paced"]["coalesce"], stats["sat"]["coalesce"]
    batches = after["batches"] - before["batches"]
    columns = (after["batches"] * after["batch_mean"]
               - before["batches"] * before["batch_mean"])
    knee_ms = _solve_latencies_ms(plans["knee"], samples["knee"])
    refactorize_ms = [s.latency * 1e3 for phase in ("paced", "knee")
                      for (_, op, _), s in zip(plans[phase], samples[phase])
                      if op == "refactorize" and s.ok]
    late_ms = [s.late * 1e3 for s in samples["paced"]
               if s.sent is not None]

    request = {"id": 1, "op": "solve", "pattern": tenants[1].pattern,
               "b": tenants[1].b_lists[0]}
    reply_frame = protocol.encode(protocol.ok_response(
        1, batch_k=1, request_id="r1", x=tenants[1].direct[0].tolist()))

    def codec(i, lap):
        with lap("encode"):
            protocol.encode(request)
        with lap("decode"):
            protocol.decode(reply_frame)

    codec_s = measure(codec, warmup=5, repeat=200)
    return {
        "serve.encode_us": median(codec_s["encode"]) * 1e6,
        "serve.decode_us": median(codec_s["decode"]) * 1e6,
        "serve.wire_ms_p50": wire_ms,
        "serve.queue_wait_ms_p50": parts["queue_wait"],
        "serve.coalesce_wait_ms_p50": parts["coalesce_wait"],
        "serve.solve_ms_p50": parts["solve"],
        "serve.p50_ms": paced_p50,
        "serve.closure_diff_ms": paced_p50 - wire_ms - sum(parts.values()),
        "serve.sat_rps": _saturation_rps(samples["sat"]),
        "serve.batches": batches,
        "serve.batch_mean": columns / batches if batches else 0.0,
        "serve.batch_max": after["batch_max"],
        "serve.queue_depth_max": stats["sat"]["queue_depth_max"],
        "serve.errors": stats["sat"]["errors"],
        "serve.refactorize_ms_p50":
            median(refactorize_ms) if refactorize_ms else 0.0,
        "serve.p95_ms": percentile(paced_ms, 95.0),
        "serve.p99_ms": percentile(paced_ms, 99.0),
        "serve.p50_ms.r40": median(knee_ms),
        "serve.p95_ms.r40": percentile(knee_ms, 95.0),
        "serve.gen_late_ms_p99": percentile(late_ms, 99.0),
    }


def _request_spans(plans, samples) -> list[dict]:
    """One span per request (due -> reply) with the generator's own
    lateness (due -> sent) as its child."""
    tr = Tracer()
    for phase, got in samples.items():
        for i, ((_, op, _), s) in enumerate(zip(plans[phase], got)):
            if s.replied is None:
                continue
            op_id = f"{phase}{i}"
            parent = tr.add(f"serve.{op}", s.due, s.replied, op=op_id)
            tr.add("serve.gen_late", s.due, s.sent, parent=parent,
                   op=op_id)
    return tr.spans


def _inproc(tenants: list[Tenant], mixed: bool, seed: int, reps,
            gate: inputs.Gate) -> dict:
    """The same schedule through ``SolveServer.submit_*`` in this
    process: what the serve path costs without the wire."""
    n_paced = reps(INPROC_PACED_REQUESTS, floor=8)
    n_sat = reps(SATURATION_REQUESTS, floor=8)
    counters = [0, 0]
    next_version = [1, 1]
    server = SolveServer(ServeConfig())
    try:
        patterns = [server.factor(t.matrix, kind=t.kind)["pattern"]
                    for t in tenants]

        def run(plan, due) -> list[Sample]:
            start = time.perf_counter()
            samples = [Sample(due=start + (due[i] if due else 0.0))
                       for i in range(len(plan))]
            futures = []
            for (t, op, arg), s in zip(plan, samples):
                wait = s.due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                s.sent = time.perf_counter()
                if op == "solve":
                    future = server.submit_solve(patterns[t],
                                                 tenants[t].bs[arg])
                else:
                    future = server.submit_refactorize(
                        patterns[t], tenants[t].versions[arg].data)

                def done(f, s=s):
                    s.replied = time.perf_counter()
                    s.reply = {"ok": f.exception() is None}

                future.add_done_callback(done)
                futures.append(future)
            for future in futures:
                future.exception(timeout=REPLY_TIMEOUT_S)
            return samples

        paced_plan = _plan(n_paced, mixed, counters, next_version)
        paced = run(paced_plan, inputs.poisson_due_times(
            RATE, n_paced, inputs.rng(seed, 5)))
        sat = run(_plan(n_sat, mixed, counters, next_version), None)
    finally:
        server.shutdown()
    for s in paced + sat:
        gate.check(s.ok, "in-process request failed")
    return {
        "serve.inproc_p50_ms":
            median(_solve_latencies_ms(paced_plan, paced)),
        "serve.inproc_sat_rps": _saturation_rps(sat),
    }
