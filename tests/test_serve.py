"""Tests for the serving layer (repro.serve) and its foundations:
batch-invariant padded solves, the analysis cache under concurrency,
protocol round trips, coalescing bit-identity, the refactorize barrier,
the socket front end, and the CLI commands."""

import sys
import threading
import time

import numpy as np
import pytest

from repro.numeric.cache import AnalysisCache
from repro.numeric.solver import SparseSolver
from repro.obs.metrics import global_registry
from repro.serve import (
    InProcessClient,
    LatencyRecorder,
    ServeConfig,
    SocketClient,
    SolveServer,
    run_unix_server,
)
from repro.serve import protocol
from repro.serve.metrics import REQUEST_PHASE
from repro.sparse import grid_laplacian_2d, random_spd, random_unsymmetric


def _rhs(matrix, seed=0, k=None):
    rng = np.random.default_rng(seed)
    shape = matrix.n_rows if k is None else (matrix.n_rows, k)
    return rng.standard_normal(shape)


# -- batch-invariant padded solves (the bit-identity foundation) ----------


class TestRhsPad:
    @pytest.mark.parametrize("kind", ["cholesky", "lu"])
    def test_batched_equals_singles_bitwise(self, kind):
        matrix = (random_spd(40, density=0.1, seed=5) if kind == "cholesky"
                  else random_unsymmetric(40, density=0.1, seed=5))
        pad = 8
        solver = SparseSolver(matrix, kind=kind, rhs_pad=pad)
        panel = _rhs(matrix, seed=1, k=pad)
        batched = solver.solve(panel)
        for j in range(pad):
            single = solver.solve(panel[:, j])
            assert np.array_equal(batched[:, j], single)

    def test_partial_batch_matches_full(self):
        matrix = grid_laplacian_2d(6, seed=2)
        solver = SparseSolver(matrix, rhs_pad=8)
        panel = _rhs(matrix, seed=3, k=8)
        full = solver.solve(panel)
        half = solver.solve(panel[:, :4])
        assert np.array_equal(full[:, :4], half)

    def test_padded_matches_unpadded_numerically(self):
        matrix = grid_laplacian_2d(6, seed=2)
        b = _rhs(matrix, seed=4)
        plain = SparseSolver(matrix).solve(b)
        padded = SparseSolver(matrix, rhs_pad=16).solve(b)
        assert padded.shape == plain.shape
        assert np.allclose(padded, plain, rtol=1e-12, atol=1e-14)
        assert SparseSolver(matrix, rhs_pad=16).residual_norm(
            matrix, padded, b) < 1e-10

    def test_wider_than_pad_passes_through(self):
        matrix = grid_laplacian_2d(5, seed=1)
        solver = SparseSolver(matrix, rhs_pad=4)
        panel = _rhs(matrix, seed=5, k=9)
        x = solver.solve(panel)
        assert x.shape == panel.shape
        assert solver.residual_norm(matrix, x[:, 0], panel[:, 0]) < 1e-10

    def test_rhs_pad_validation(self):
        matrix = grid_laplacian_2d(4, seed=0)
        with pytest.raises(ValueError, match="rhs_pad"):
            SparseSolver(matrix, rhs_pad=0)


# -- analysis cache under concurrency -------------------------------------


class TestAnalysisCacheConcurrency:
    def test_concurrent_hammering_integrity(self):
        cache = AnalysisCache(capacity=8)
        matrices = [random_spd(12 + i, density=0.3, seed=i)
                    for i in range(6)]
        n_threads, per_thread = 8, 30
        seen: list[dict] = [dict() for _ in range(n_threads)]
        errors = []

        def worker(tid):
            rng = np.random.default_rng(tid)
            try:
                for _ in range(per_thread):
                    i = int(rng.integers(len(matrices)))
                    symbolic = cache.get_or_analyze(
                        matrices[i], kind="cholesky", ordering="amd")
                    assert symbolic.n == matrices[i].n_rows
                    seen[tid][i] = symbolic
                    # The bound must hold at every instant, not only at
                    # the end.
                    assert len(cache) <= cache.capacity
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(n_threads)]
        # Switch threads often so a lost counter update would show.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        # Counter accuracy: every operation is exactly one hit or miss.
        assert cache.hits + cache.misses == n_threads * per_thread
        assert len(cache) <= cache.capacity
        stats = cache.stats()
        assert stats["hits"] == cache.hits
        assert stats["misses"] == cache.misses
        assert stats["size"] == len(cache)

    def test_hot_entries_share_one_object(self):
        # With capacity >= working set, every warm hit must return the
        # same analysis object per pattern (the whole point of the
        # cache).  Pre-warm sequentially so every call here is a hit;
        # racing cold misses are covered by
        # test_racing_misses_share_first_analysis.
        cache = AnalysisCache(capacity=16)
        matrices = [random_spd(15 + i, density=0.3, seed=100 + i)
                    for i in range(4)]
        warm = [cache.get_or_analyze(m, kind="cholesky", ordering="amd")
                for m in matrices]
        results: list[list] = [[] for _ in range(4)]

        def worker(tid):
            for i, m in enumerate(matrices):
                results[tid].append(
                    cache.get_or_analyze(m, kind="cholesky",
                                         ordering="amd"))

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for i in range(len(matrices)):
            assert all(results[t][i] is warm[i] for t in range(4))

    def test_single_thread_lru_semantics_preserved(self):
        # The cache keeps exact LRU order.
        cache = AnalysisCache(capacity=2)
        a, b, c = (random_spd(10 + i, density=0.4, seed=200 + i)
                   for i in range(3))
        sa = cache.get_or_analyze(a, kind="cholesky", ordering="amd")
        cache.get_or_analyze(b, kind="cholesky", ordering="amd")
        cache.get_or_analyze(a, kind="cholesky", ordering="amd")  # a hot
        cache.get_or_analyze(c, kind="cholesky", ordering="amd")  # evict b
        assert cache.evictions == 1
        assert cache.get_or_analyze(
            a, kind="cholesky", ordering="amd") is sa      # still cached
        before = cache.misses
        cache.get_or_analyze(b, kind="cholesky", ordering="amd")
        assert cache.misses == before + 1                  # b was evicted

    def test_racing_misses_share_first_analysis(self, monkeypatch):
        # Two callers miss on one key at once: both analyze, the first
        # insert wins, and both get that one object back.
        from repro.numeric import cache as cache_mod

        real = cache_mod.symbolic_factorize
        barrier = threading.Barrier(2)

        def analyze_after_both_missed(*args, **kwargs):
            barrier.wait(timeout=10.0)
            return real(*args, **kwargs)

        monkeypatch.setattr(cache_mod, "symbolic_factorize",
                            analyze_after_both_missed)
        cache = AnalysisCache(capacity=4)
        matrix = random_spd(14, density=0.3, seed=400)
        results = [None, None]

        def worker(tid):
            results[tid] = cache.get_or_analyze(matrix, kind="cholesky",
                                                ordering="amd")

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert not any(t.is_alive() for t in threads)
        assert results[0] is not None and results[0] is results[1]
        assert len(cache) == 1
        assert cache.misses == 2 and cache.hits == 0


# -- protocol -------------------------------------------------------------


class TestProtocol:
    def test_matrix_round_trip(self):
        matrix = grid_laplacian_2d(4, seed=0)
        again = protocol.matrix_from_wire(protocol.matrix_to_wire(matrix))
        assert np.array_equal(again.indptr, matrix.indptr)
        assert np.array_equal(again.indices, matrix.indices)
        assert np.array_equal(again.data, matrix.data)

    def test_frame_round_trip(self):
        msg = {"op": "solve", "id": 7, "pattern": "p", "b": [1.0, 2.0]}
        assert protocol.decode(protocol.encode(msg)) == msg

    @pytest.mark.parametrize("bad,match", [
        ({"op": "nope"}, "unknown op"),
        ({"op": "factor"}, "matrix"),
        ({"op": "solve", "b": [1.0]}, "pattern"),
        ({"op": "solve", "pattern": "p"}, "'b'"),
        ({"op": "refactorize", "pattern": "p"}, "data"),
    ])
    def test_validation_errors(self, bad, match):
        with pytest.raises(protocol.ProtocolError, match=match):
            protocol.validate_request(bad)

    def test_decode_rejects_garbage(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode(b"not json\n")
        with pytest.raises(protocol.ProtocolError):
            protocol.decode(b"[1, 2]\n")


# -- server core ----------------------------------------------------------


@pytest.fixture
def server():
    srv = SolveServer(ServeConfig(max_batch=8))
    yield srv
    srv.shutdown()


class TestSolveServer:
    def test_factor_solve_round_trip(self, server):
        matrix = grid_laplacian_2d(6, seed=1)
        client = InProcessClient(server)
        pattern = client.factor(matrix)
        b = _rhs(matrix, seed=1)
        x = client.solve(pattern, b)
        reference = SparseSolver(matrix, rhs_pad=8)
        assert np.array_equal(x, reference.solve(b))

    def test_coalesced_bit_identical_to_sequential(self, server):
        matrix = grid_laplacian_2d(6, seed=1)
        client = InProcessClient(server)
        pattern = client.factor(matrix)
        vectors = [_rhs(matrix, seed=10 + i) for i in range(24)]
        results = [None] * len(vectors)

        def go(i):
            results[i] = client.solve(pattern, vectors[i])

        threads = [threading.Thread(target=go, args=(i,))
                   for i in range(len(vectors))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Sequential per-request reference through a direct solver with
        # the server's padding width: every coalesced response must be
        # bit-identical, whatever batch it rode in.
        reference = SparseSolver(matrix, rhs_pad=8)
        for i, vector in enumerate(vectors):
            assert np.array_equal(results[i], reference.solve(vector))
        stats = server.stats(export=False)
        assert stats["coalesce"]["batches"] >= 1
        assert stats["coalesce"]["batch_max"] <= 8
        assert server.latency.count() == len(vectors) + 1  # + factor

    def test_refactorize_is_a_barrier(self, server):
        # Requests behind a refactorize see the new values: scaling A by
        # 2 must exactly halve the solution of the queued solve.
        matrix = grid_laplacian_2d(6, seed=2)
        client = InProcessClient(server)
        pattern = client.factor(matrix)
        b = _rhs(matrix, seed=3)
        x1 = client.solve(pattern, b)
        client.refactorize(pattern, matrix.data * 2.0)
        x2 = client.solve(pattern, b)
        assert np.allclose(x2, x1 / 2.0, rtol=1e-12)

    def test_failed_refactorize_keeps_serving_old_values(self, server):
        # A rejected refactorize returns the error and leaves the warm
        # solver on its previous values, bit for bit.
        matrix = grid_laplacian_2d(6, seed=2)
        client = InProcessClient(server)
        pattern = client.factor(matrix)
        b = _rhs(matrix, seed=3)
        before = client.solve(pattern, b)
        solver = server._workers[pattern].solver
        held = (solver._matrix, solver._factor)
        with pytest.raises(ValueError, match="non-SPD"):
            client.refactorize(pattern, -matrix.data)
        reply = server.handle({"op": "refactorize", "id": 7,
                               "pattern": pattern,
                               "data": (-matrix.data).tolist()})
        assert reply["ok"] is False and "non-SPD" in reply["error"]
        assert (solver._matrix, solver._factor) == held
        assert np.array_equal(client.solve(pattern, b), before)
        client.refactorize(pattern, matrix.data * 2.0)
        assert np.allclose(client.solve(pattern, b), before / 2.0,
                           rtol=1e-12)

    def test_warm_refactor_via_factor(self, server):
        matrix = grid_laplacian_2d(5, seed=4)
        first = server.factor(matrix)
        assert first["warm"] is False
        again = server.factor(matrix)
        assert again["warm"] is True
        assert again["pattern"] == first["pattern"]

    def test_distinct_patterns_distinct_workers(self, server):
        a = grid_laplacian_2d(5, seed=5)
        b_mat = random_spd(20, density=0.3, seed=6)
        pa = server.factor(a)["pattern"]
        pb = server.factor(b_mat)["pattern"]
        assert pa != pb
        assert server.stats(export=False)["patterns"] == 2

    def test_solve_unknown_pattern_raises(self, server):
        with pytest.raises(KeyError, match="unknown pattern"):
            server.solve("nope", np.ones(3))

    def test_multi_rhs_request(self, server):
        matrix = grid_laplacian_2d(5, seed=7)
        client = InProcessClient(server)
        pattern = client.factor(matrix)
        panel = _rhs(matrix, seed=8, k=3)
        x = client.solve(pattern, panel)
        reference = SparseSolver(matrix, rhs_pad=8)
        assert np.array_equal(x, reference.solve(panel))

    def test_multi_rhs_coalescing_capped_and_bit_identical(self, server):
        # Concurrent multi-column panels: no batch may overshoot
        # max_batch (that would solve at a width > rhs_pad and break
        # batch invariance), and every response must still match the
        # sequential per-request reference bit for bit.
        matrix = grid_laplacian_2d(6, seed=22)
        client = InProcessClient(server)
        pattern = client.factor(matrix)
        widths = [3, 4, 2, 5, 3, 4, 2, 5]
        panels = [_rhs(matrix, seed=30 + i, k=w)
                  for i, w in enumerate(widths)]
        results = [None] * len(panels)

        def go(i):
            results[i] = client.solve(pattern, panels[i])

        threads = [threading.Thread(target=go, args=(i,))
                   for i in range(len(panels))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        reference = SparseSolver(matrix, rhs_pad=8)
        for panel, result in zip(panels, results):
            assert np.array_equal(result, reference.solve(panel))
        assert server.stats(export=False)["coalesce"]["batch_max"] <= 8

    def test_oversized_panel_chunked_bit_identically(self, server):
        # A single request wider than max_batch is solved in
        # rhs_pad-wide chunks, so each column's bits still equal a
        # lone single-RHS solve — batching-independent for any k.
        matrix = grid_laplacian_2d(5, seed=23)
        client = InProcessClient(server)
        pattern = client.factor(matrix)
        panel = _rhs(matrix, seed=40, k=19)        # > max_batch = 8
        x = client.solve(pattern, panel)
        assert x.shape == panel.shape
        reference = SparseSolver(matrix, rhs_pad=8)
        for j in range(panel.shape[1]):
            assert np.array_equal(x[:, j], reference.solve(panel[:, j]))

    def test_failed_batch_fails_every_rider(self, server):
        # A solve failure mid-batch must reject every coalesced
        # ticket's future — an unresolved peer would hang its client
        # in Future.result() forever.
        from repro.serve.server import _Ticket

        matrix = grid_laplacian_2d(5, seed=24)
        pattern = server.factor(matrix)["pattern"]
        worker = server._worker(pattern)

        def boom(panel):
            raise RuntimeError("solver exploded")

        worker.solver.solve = boom
        tickets = [_Ticket(op="solve",
                           b=np.ones((matrix.n_rows, 1)), vector=True)
                   for _ in range(6)]
        # Enqueue all six under the worker's lock so they coalesce
        # into one batch when it wakes.
        with worker._cond:
            worker._queue.extend(tickets)
            worker._cond.notify()
        for ticket in tickets:
            with pytest.raises(RuntimeError, match="solver exploded"):
                ticket.future.result(timeout=10.0)

    def test_wrong_length_b_rejected_at_submission(self, server):
        matrix = grid_laplacian_2d(5, seed=25)
        pattern = server.factor(matrix)["pattern"]
        with pytest.raises(ValueError, match="rows"):
            server.submit_solve(pattern, np.ones(matrix.n_rows + 1))
        with pytest.raises(ValueError, match="rows"):
            server.submit_solve(pattern,
                                np.ones((matrix.n_rows - 1, 3)))
        # Healthy traffic is unaffected afterwards.
        x = server.solve(pattern, np.ones(matrix.n_rows))
        assert x.shape == (matrix.n_rows,)

    def test_handle_protocol_errors_are_responses(self, server):
        response = server.handle({"op": "bogus", "id": 9})
        assert response == {"id": 9, "ok": False,
                            "error": response["error"]}
        assert "unknown op" in response["error"]
        response = server.handle({"op": "solve", "id": 10,
                                  "pattern": "missing", "b": [1.0]})
        assert response["ok"] is False

    def test_handle_full_protocol_round_trip(self, server):
        matrix = grid_laplacian_2d(5, seed=9)
        fr = server.handle({"op": "factor", "id": 1,
                            "matrix": protocol.matrix_to_wire(matrix)})
        assert fr["ok"] and fr["warm"] is False
        b = _rhs(matrix, seed=11)
        sr = server.handle({"op": "solve", "id": 2,
                            "pattern": fr["pattern"],
                            "b": b.tolist()})
        assert sr["ok"] and sr["batch_k"] >= 1
        reference = SparseSolver(matrix, rhs_pad=8)
        assert np.array_equal(np.asarray(sr["x"]), reference.solve(b))
        st = server.handle({"op": "stats", "id": 3})
        assert st["ok"] and st["stats"]["patterns"] == 1

    def test_uncoalesced_config_batches_of_one(self):
        srv = SolveServer(ServeConfig(max_batch=1, rhs_pad=1))
        try:
            matrix = grid_laplacian_2d(5, seed=10)
            pattern = srv.factor(matrix)["pattern"]
            for i in range(4):
                srv.solve(pattern, _rhs(matrix, seed=i))
            stats = srv.stats(export=False)
            assert stats["coalesce"]["batch_max"] == 1
        finally:
            srv.shutdown()

    def test_stats_exports_serve_gauges(self, server):
        matrix = grid_laplacian_2d(5, seed=11)
        pattern = server.factor(matrix)["pattern"]
        server.solve(pattern, _rhs(matrix))
        server.stats(export=True)
        snapshot = global_registry().snapshot()
        assert "serve.latency.request.p50_ms" in snapshot
        assert snapshot["serve.requests.solve"] == 1


# -- socket front end -----------------------------------------------------


class TestSocketServer:
    def test_socket_round_trip_and_shutdown(self, tmp_path):
        path = str(tmp_path / "serve.sock")
        srv = SolveServer(ServeConfig(max_batch=4))
        ready = threading.Event()
        thread = threading.Thread(target=run_unix_server,
                                  args=(srv, path, ready), daemon=True)
        thread.start()
        assert ready.wait(10.0)
        matrix = grid_laplacian_2d(6, seed=12)
        b = _rhs(matrix, seed=13)
        reference = SparseSolver(matrix, rhs_pad=4)
        with SocketClient(path) as client:
            pattern = client.factor(matrix)
            x = client.solve(pattern, b)
            assert np.array_equal(x, reference.solve(b))
            panel = _rhs(matrix, seed=14, k=3)
            xs = client.solve(pattern, panel)
            assert np.array_equal(xs, reference.solve(panel))
            client.refactorize(pattern, matrix.data * 2.0)
            assert np.allclose(client.solve(pattern, b),
                               reference.solve(b) / 2.0, rtol=1e-12)
            assert client.stats()["patterns"] == 1
            with pytest.raises(RuntimeError, match="unknown pattern"):
                client.solve("missing", b)
            client.shutdown()
        thread.join(timeout=10.0)
        assert not thread.is_alive()


# -- serve metrics helpers ------------------------------------------------


class TestServeMetrics:
    def test_latency_recorder_summary_and_export(self):
        recorder = LatencyRecorder()
        for ms in (1.0, 2.0, 3.0):
            recorder.observe(REQUEST_PHASE, ms / 1e3)
        summary = recorder.summary()[REQUEST_PHASE]
        assert summary["count"] == 3
        assert summary["p50_ms"] == pytest.approx(2.0)
        recorder.export()
        snapshot = global_registry().snapshot()
        assert snapshot["serve.latency.request.p50_ms"] == \
            pytest.approx(2.0)

    def test_serve_metrics_are_watched(self):
        from repro.obs.artifact import WATCHED_METRICS
        for name in ("serve.latency.request.p95_ms",
                     "serve.throughput.rps",
                     "serve.coalesce.batch_mean"):
            assert name in WATCHED_METRICS


# -- CLI ------------------------------------------------------------------


class TestServeCli:
    def test_serve_command_clears_stale_socket(self, tmp_path, capsys):
        # A crashed run leaves its socket file behind; restarting must
        # unlink it and bind rather than die with EADDRINUSE.
        import time

        from repro.cli import main

        path = tmp_path / "serve.sock"
        path.touch()                              # stale leftover
        done = {}

        def run():
            done["code"] = main(["serve", "--socket", str(path)])

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        client = None
        deadline = time.time() + 10.0
        while time.time() < deadline:
            try:
                client = SocketClient(str(path))
                break
            except OSError:
                time.sleep(0.05)
        assert client is not None, "server never came up"
        try:
            client.shutdown()
        finally:
            client.close()
        thread.join(timeout=10.0)
        assert done.get("code") == 0

    def test_serve_rejects_bad_knob_before_binding(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "serve.sock"
        assert main(["serve", "--socket", str(path), "--workers", "0"]) == 1
        assert "error: ServeConfig.workers must be >= 1" in \
            capsys.readouterr().err
        assert not path.exists()


@pytest.mark.parametrize("field, value", [
    ("workers", 0), ("max_patterns", 0), ("max_batch", 0), ("rhs_pad", 0),
    ("exemplars", -1), ("io_threads", 0), ("window_s", 0.0),
    ("heartbeat_s", -1.0),
])
def test_serve_config_range_checks_each_field(field, value):
    # Each of these used to build a server that failed every factor,
    # served nothing, silently clamped, or raised an unrelated error.
    with pytest.raises(ValueError, match=f"ServeConfig.{field} must be"):
        ServeConfig(**{field: value})


# -- live observability (ISSUE 10) ----------------------------------------


class TestLiveObservability:
    def test_stats_default_is_side_effect_free(self, server):
        matrix = grid_laplacian_2d(6, seed=1)
        client = InProcessClient(server)
        pattern = client.factor(matrix)
        client.solve(pattern, _rhs(matrix, seed=1))
        # Polling stats must not mutate the global registry: a dashboard
        # refreshing every second would otherwise overwrite the gauges a
        # bench run exported.
        stats = client.stats()
        assert stats["responses"] == 2
        snapshot = global_registry().snapshot()
        assert "serve.latency.request.p50_ms" not in snapshot
        assert "serve.window.latency.request.p50_ms" not in snapshot
        # The explicit collection point exports everything, including
        # the windowed SLO gauges and the liveness gauges.
        server.stats(export=True)
        snapshot = global_registry().snapshot()
        for name in ("serve.latency.request.p50_ms",
                     "serve.window.latency.request.p50_ms",
                     "serve.window.throughput.rps",
                     "serve.queue.depth", "serve.uptime_s"):
            assert name in snapshot, name

    def test_stats_window_section_shape(self, server):
        matrix = grid_laplacian_2d(6, seed=2)
        client = InProcessClient(server)
        pattern = client.factor(matrix)
        for i in range(4):
            client.solve(pattern, _rhs(matrix, seed=20 + i))
        stats = client.stats(window_s=30.0)
        assert stats["window_s"] == 30.0
        window = stats["window"]
        assert window["throughput_rps"] > 0
        assert window["latency_ms"][REQUEST_PHASE]["count"] == 5
        assert set(window["latency_ms"][REQUEST_PHASE]) >= {
            "count", "rate_per_s", "p50_ms", "p95_ms", "p99_ms",
            "max_ms"}
        worker = stats["workers"][pattern]
        assert worker["alive"] and worker["served"] == 5
        assert worker["queue_depth"] == 0

    def test_health_shape_and_heartbeat_advances(self):
        import time

        srv = SolveServer(ServeConfig(heartbeat_s=0.05))
        try:
            health = srv.health()
            assert health["ok"] is True
            for key in ("uptime_s", "heartbeats", "heartbeat_age_s",
                        "patterns", "inflight", "queue_depth",
                        "workers", "analysis_cache"):
                assert key in health, key
            assert set(health["analysis_cache"]) == {"size", "capacity"}
            # A factor op consults the analysis cache, which exports its
            # totals only: no per-shard gauges.
            InProcessClient(srv).factor(grid_laplacian_2d(5, seed=6))
            assert "numeric.analysis_cache.size" in \
                global_registry().snapshot()
            assert not [name for name in global_registry().snapshot()
                        if name.startswith("numeric.analysis_cache.shard.")]
            deadline = time.time() + 5.0
            while (srv.health()["heartbeats"] < 2
                   and time.time() < deadline):
                time.sleep(0.02)
            assert srv.health()["heartbeats"] >= 2
            assert srv.health()["uptime_s"] > 0
        finally:
            srv.shutdown()
        assert srv.health()["ok"] is False

    def test_request_id_echo_and_exemplars(self, server):
        matrix = grid_laplacian_2d(6, seed=3)
        client = InProcessClient(server)
        pattern = client.factor(matrix)
        future = server.submit_solve(pattern, _rhs(matrix, seed=4),
                                     request_id="trace-me")
        result = future.result(timeout=10.0)
        assert result["request_id"] == "trace-me"
        exemplars = server.exemplars.snapshot()
        assert any(e["request_id"] == "trace-me" for e in exemplars)
        slow = exemplars[0]
        assert set(slow["phases_ms"]) == {"queue_wait", "coalesce_wait",
                                          "solve"}
        assert slow["latency_ms"] >= max(slow["phases_ms"].values())

    def test_trace_ids_cover_coalesced_batch_exactly_once(self, tmp_path):
        from collections import Counter

        from repro.obs import telemetry

        telemetry.start(tmp_path, run_id="run-serve-trace",
                        heartbeat_s=None)
        srv = SolveServer(ServeConfig(max_batch=8))
        try:
            matrix = grid_laplacian_2d(6, seed=5)
            pattern = srv.factor(matrix)["pattern"]
            futures = {}
            for i in range(16):
                rid = f"req-{i}"
                futures[rid] = srv.submit_solve(
                    pattern, _rhs(matrix, seed=30 + i), request_id=rid)
            for future in futures.values():
                future.result(timeout=30.0)
        finally:
            srv.shutdown()
            telemetry.stop(dump_registry=False)
        spans = [e for e in telemetry.read_stream(
                     tmp_path / "run-serve-trace.jsonl") if e["t"] == "span"]
        batches = [s for s in spans if s["name"] == "serve.batch"]
        assert batches, "no serve.batch spans recorded"
        seen = Counter(rid for s in batches
                       for rid in s["attrs"]["riders"])
        # Every request rode exactly one batch — none lost, none solved
        # twice — and the span knows the batch width it rode in.
        assert seen == Counter(futures.keys())
        assert all(s["attrs"]["requests"] == len(s["attrs"]["riders"])
                   for s in batches)
        request_spans = [s for s in spans if s["name"] == "serve.request"]
        assert {s["attrs"]["request_id"] for s in request_spans} >= set(
            futures)

    def test_concurrent_polling_under_traffic(self, server):
        # Dashboards poll stats/health while traffic is coalescing; the
        # lock ordering must never deadlock and snapshots must stay
        # internally consistent.  A deadlock shows up as a join timeout.
        matrix = grid_laplacian_2d(7, seed=6)
        client = InProcessClient(server)
        pattern = client.factor(matrix)
        vectors = [_rhs(matrix, seed=40 + i) for i in range(24)]
        results = [None] * len(vectors)
        stop = threading.Event()
        polls = {"stats": 0, "health": 0}
        poll_errors = []

        def poller():
            while not stop.is_set():
                try:
                    stats = server.stats(export=False)
                    health = server.health()
                except Exception as exc:  # pragma: no cover - failure
                    poll_errors.append(exc)
                    return
                polls["stats"] += 1
                polls["health"] += 1
                assert stats["responses"] >= 0
                assert health["queue_depth"] >= 0

        def go(i):
            results[i] = client.solve(pattern, vectors[i])

        pollers = [threading.Thread(target=poller) for _ in range(3)]
        workers = [threading.Thread(target=go, args=(i,))
                   for i in range(len(vectors))]
        for t in pollers + workers:
            t.start()
        for t in workers:
            t.join(timeout=30.0)
        stop.set()
        for t in pollers:
            t.join(timeout=10.0)
        assert not any(t.is_alive() for t in pollers + workers), \
            "deadlock: poller or worker never finished"
        assert not poll_errors
        assert polls["stats"] > 0
        reference = SparseSolver(matrix, rhs_pad=8)
        for i, vector in enumerate(vectors):
            assert np.array_equal(results[i], reference.solve(vector))
        assert server.stats(export=False)["responses"] == \
            len(vectors) + 1

    def test_latency_recorder_ring_is_bounded(self):
        recorder = LatencyRecorder(ring=8)
        for i in range(50):
            recorder.observe(REQUEST_PHASE, i / 1e3)
        # Lifetime count is exact even though only 8 samples are
        # retained (the unbounded-list bug this replaces).
        assert recorder.count(REQUEST_PHASE) == 50
        summary = recorder.summary()[REQUEST_PHASE]
        assert summary["count"] == 50
        assert recorder._window(REQUEST_PHASE).retained() == 8
        # Percentiles now describe the newest 8 samples (42..49 ms).
        assert summary["p50_ms"] >= 42.0
        window = recorder.window_summary(window_s=1e9)
        assert window[REQUEST_PHASE]["count"] == 8

    def test_window_summary_zero_fills_idle_phases(self):
        recorder = LatencyRecorder(ring=16)
        recorder.observe(REQUEST_PHASE, 0.001)
        window = recorder.window_summary(window_s=60.0)
        # Layout-stable: every known phase appears even when idle.
        assert window["solve"]["count"] == 0
        assert window["solve"]["p99_ms"] == 0.0

    def test_windowed_gauges_are_watched(self):
        from repro.obs.artifact import WATCHED_METRICS
        for name in ("serve.window.latency.request.p50_ms",
                     "serve.window.latency.request.p99_ms",
                     "serve.window.throughput.rps"):
            assert name in WATCHED_METRICS


class TestObservabilityProtocol:
    def test_health_op_round_trips(self, server):
        request = protocol.decode(protocol.encode({"op": "health",
                                                   "id": 3}))
        response = server.handle(request)
        assert response["ok"] and response["id"] == 3
        assert response["health"]["ok"] is True
        assert response["health"]["workers"] == {}

    def test_stats_op_options(self, server):
        response = server.handle({"op": "stats", "id": 1,
                                  "window_s": 5.0})
        assert response["stats"]["window_s"] == 5.0
        response = server.handle({"op": "stats", "id": 2,
                                  "format": "text"})
        assert response["text"].startswith("# TYPE repro_")

    @pytest.mark.parametrize("bad,match", [
        ({"op": "stats", "format": "xml"}, "format"),
        ({"op": "stats", "window_s": -1.0}, "window_s"),
        ({"op": "stats", "window_s": "soon"}, "window_s"),
    ])
    def test_stats_validation(self, bad, match):
        with pytest.raises(protocol.ProtocolError, match=match):
            protocol.validate_request(bad)

    def test_health_over_socket(self, tmp_path):
        path = str(tmp_path / "serve.sock")
        srv = SolveServer(ServeConfig(max_batch=4))
        ready = threading.Event()
        thread = threading.Thread(target=run_unix_server,
                                  args=(srv, path, ready), daemon=True)
        thread.start()
        assert ready.wait(10.0)
        matrix = grid_laplacian_2d(6, seed=7)
        with SocketClient(path) as client:
            pattern = client.factor(matrix)
            client.solve(pattern, _rhs(matrix, seed=8))
            health = client.health()
            assert health["ok"] and health["patterns"] == 1
            assert health["workers"][pattern]["alive"]
            text = client.stats(format="text")
            assert "repro_health_ok 1" in text
            assert "repro_serve_responses" in text
            stats = client.stats(window_s=10.0)
            assert stats["window_s"] == 10.0
            client.shutdown()
        thread.join(timeout=10.0)


def test_shutdown_reply_is_never_lost(tmp_path):
    """`shutdown` sets the stop flag from inside its own request; the
    front end must still write that request's reply before it leaves
    (it used to be cancelled mid-write about once in twenty runs).
    Every tenth server is slow to finish `shutdown()` after setting the
    flag, which is the losing side of that race made certain."""
    for i in range(30):
        path = str(tmp_path / f"serve{i}.sock")
        srv = SolveServer(ServeConfig(max_batch=4))
        if i % 10 == 0:
            final_stats = srv.stats

            def slow_stats(*args, _stats=final_stats, **kwargs):
                time.sleep(0.2)  # four polls of run_unix_server's loop
                return _stats(*args, **kwargs)

            srv.stats = slow_stats
        ready = threading.Event()
        thread = threading.Thread(target=run_unix_server,
                                  args=(srv, path, ready), daemon=True)
        thread.start()
        assert ready.wait(10.0)
        with SocketClient(path) as client:
            client.shutdown()  # ConnectionError if the reply was dropped
        thread.join(timeout=10.0)
        assert not thread.is_alive()


class TestObservabilityCli:
    @staticmethod
    def _boot(tmp_path):
        path = str(tmp_path / "serve.sock")
        srv = SolveServer(ServeConfig(max_batch=4))
        ready = threading.Event()
        thread = threading.Thread(target=run_unix_server,
                                  args=(srv, path, ready), daemon=True)
        thread.start()
        assert ready.wait(10.0)
        matrix = grid_laplacian_2d(6, seed=9)
        client = SocketClient(path)
        pattern = client.factor(matrix)
        for i in range(3):
            client.solve(pattern, _rhs(matrix, seed=50 + i))
        return path, client, thread

    def test_serve_stats_command(self, tmp_path, capsys):
        import json

        from repro.cli import main

        path, client, thread = self._boot(tmp_path)
        try:
            assert main(["serve-stats", "--socket", path]) == 0
            pretty = capsys.readouterr().out
            assert "window" in pretty and "lifetime" in pretty
            assert main(["serve-stats", "--socket", path,
                         "--format", "json"]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["health"]["ok"] is True
            assert payload["stats"]["responses"] == 4
            assert main(["serve-stats", "--socket", path,
                         "--format", "text"]) == 0
            assert "# TYPE repro_" in capsys.readouterr().out
        finally:
            client.shutdown()
            client.close()
            thread.join(timeout=10.0)

    def test_serve_stats_unreachable_is_an_error(self, tmp_path, capsys):
        from repro.cli import main

        code = main(["serve-stats", "--socket",
                     str(tmp_path / "nope.sock")])
        assert code == 1
        assert "cannot reach" in capsys.readouterr().err

    def test_serve_top_renders_frames(self, tmp_path, capsys):
        from repro.cli import main

        path, client, thread = self._boot(tmp_path)
        try:
            code = main(["serve-top", "--socket", path,
                         "--iterations", "2", "--interval", "0.1",
                         "--no-clear"])
            out = capsys.readouterr().out
            assert code == 0
            assert out.count("repro serve-top") == 2
            assert "pattern" in out and "slowest requests" in out
        finally:
            client.shutdown()
            client.close()
            thread.join(timeout=10.0)


# -- packed arrays on the wire --------------------------------------------


def _packed(array="<f8", shape=(2,), payload=None, **extra):
    import base64

    if payload is None:
        payload = base64.b64encode(bytes(8 * int(np.prod(shape)))).decode()
    return {"array": array, "shape": list(shape), "base64": payload,
            **extra}


#: Each malformed packed object and the words its error must contain.
MALFORMED_PACKED = [
    pytest.param(_packed(payload="not*base64"), "base64", id="bad-base64"),
    pytest.param(_packed(payload="AAAA"), "bytes", id="short-bytes"),
    pytest.param(_packed(shape=(3,), payload="A" * 44), "bytes",
                 id="long-bytes"),
    pytest.param({**_packed(), "shape": [-2]}, "non-negative",
                 id="negative-shape"),
    pytest.param({**_packed(), "shape": [2.0]}, "non-negative integers",
                 id="float-shape"),
    pytest.param({**_packed(), "shape": 2}, "list", id="scalar-shape"),
    pytest.param(_packed(array="<f4"), "dtype", id="unknown-dtype"),
    pytest.param(_packed(array=["<f8"]), "dtype", id="list-dtype"),
    pytest.param(_packed(order="F"), "exactly the keys", id="extra-key"),
    pytest.param({"array": "<f8", "shape": [0]}, "exactly the keys",
                 id="missing-key"),
]


class TestPackedCodec:
    SPECIAL = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324,
               -1.5, 1e308]

    @pytest.mark.parametrize("shape", [(9,), (9, 3), (0,), (4, 0)])
    @pytest.mark.parametrize("dtype", [np.float64, np.int64])
    def test_round_trip_is_bit_exact(self, shape, dtype):
        rng = np.random.default_rng(0)
        size = int(np.prod(shape))
        if dtype is np.float64:
            values = np.resize(np.array(self.SPECIAL), size)
            # A NaN with a payload, to show the bits are not renormalised.
            if size:
                values.view(np.uint64)[0] = 0x7FF8_0000_DEAD_BEEF
        else:
            values = rng.integers(-2**62, 2**62, size=size)
        array = values.astype(dtype).reshape(shape)
        frame = protocol.encode({"x": array})
        assert frame.endswith(b"\n") and frame.count(b"\n") == 1
        back = protocol.decode(frame)["x"]
        assert back.dtype == np.dtype(dtype) and back.shape == shape
        assert back.tobytes() == array.tobytes()

    def test_wire_object_is_exactly_the_packed_form(self):
        import base64
        import json

        array = np.arange(6.0).reshape(2, 3)
        packed = json.loads(protocol.encode({"x": array}))["x"]
        assert packed == {"array": "<f8", "shape": [2, 3],
                          "base64": base64.b64encode(
                              array.astype("<f8").tobytes()).decode()}
        # Non-contiguous views, int32 and bool pack by value.
        view = np.arange(12.0).reshape(3, 4)[:, 1]
        assert np.array_equal(
            protocol.decode(protocol.encode({"v": view}))["v"], view)
        small = np.array([3, -1], dtype=np.int32)
        back = protocol.decode(protocol.encode({"v": small}))["v"]
        assert back.dtype == np.int64 and back.tolist() == [3, -1]

    def test_decoded_arrays_are_writeable(self):
        frame = protocol.encode({"b": np.ones((4, 2)),
                                 "i": np.arange(3)})
        message = protocol.decode(frame)
        for array in (message["b"], message["i"]):
            assert array.flags.writeable
            array[0] = 7
        assert message["b"][0].tolist() == [7.0, 7.0]

    def test_lists_still_decode_as_lists(self):
        msg = {"op": "solve", "id": 7, "pattern": "p",
               "b": [1.0, 2.0], "nested": {"array_like": [1]}}
        assert protocol.decode(protocol.encode(msg)) == msg

    @pytest.mark.parametrize("bad,match", MALFORMED_PACKED)
    def test_malformed_packed_object_is_a_protocol_error(self, bad, match):
        frame = protocol.encode({"op": "solve", "id": 41, "pattern": "p",
                                 "b": bad})
        with pytest.raises(protocol.ProtocolError, match=match) as info:
            protocol.decode(frame)
        assert info.value.req_id == 41

    def test_unpackable_array_is_an_encode_error(self):
        with pytest.raises(TypeError, match="pack"):
            protocol.encode({"x": np.array(["a"])})

    def test_list_and_packed_b_give_bit_identical_replies(self, server):
        matrix = grid_laplacian_2d(6, seed=31)
        pattern = server.factor(matrix)["pattern"]
        for b in (_rhs(matrix, seed=32), _rhs(matrix, seed=33, k=3)):
            as_list = server.handle({"op": "solve", "id": 1,
                                     "pattern": pattern, "b": b.tolist()})
            as_packed = server.handle(protocol.decode(protocol.encode(
                {"op": "solve", "id": 2, "pattern": pattern, "b": b})))
            assert as_list["ok"] and as_packed["ok"]
            assert as_list["x"].shape == b.shape
            assert as_list["x"].tobytes() == as_packed["x"].tobytes()
            # ...and the reply survives its own frame bit for bit.
            wire = protocol.decode(protocol.encode(as_packed))["x"]
            assert wire.tobytes() == as_packed["x"].tobytes()

    def test_malformed_frames_over_a_live_socket(self, tmp_path):
        import socket

        path = str(tmp_path / "serve.sock")
        srv = SolveServer(ServeConfig(max_batch=4))
        ready = threading.Event()
        thread = threading.Thread(target=run_unix_server,
                                  args=(srv, path, ready), daemon=True)
        thread.start()
        assert ready.wait(10.0)
        matrix = grid_laplacian_2d(5, seed=34)
        b = _rhs(matrix, seed=35)
        reference = SparseSolver(matrix, rhs_pad=4).solve(b)
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(30.0)
        sock.connect(path)
        rfile = sock.makefile("rb")

        def call(message: dict) -> dict:
            sock.sendall(protocol.encode(message))
            return protocol.decode(rfile.readline())

        try:
            pattern = call({"op": "factor", "id": 0,
                            "matrix": protocol.matrix_to_wire(matrix)}
                           )["pattern"]
            for i, case in enumerate(MALFORMED_PACKED, start=1):
                bad, match = case.values
                reply = call({"op": "solve", "id": i, "pattern": pattern,
                              "b": bad})
                assert reply["ok"] is False and reply["id"] == i
                assert match in reply["error"], (case.id, reply)
                # The connection keeps serving, bit-exactly.
                good = call({"op": "solve", "id": 100 + i,
                             "pattern": pattern, "b": b})
                assert good["ok"] and good["id"] == 100 + i
                assert good["x"].tobytes() == reference.tobytes()
            call({"op": "shutdown", "id": 999})
        finally:
            rfile.close()
            sock.close()
        thread.join(timeout=10.0)
        assert not thread.is_alive()


# -- submission-time input checks -----------------------------------------


class TestSubmissionChecks:
    @pytest.mark.parametrize("delta", [-1, +1])
    def test_refactorize_wrong_length_rejected(self, server, delta):
        matrix = grid_laplacian_2d(5, seed=36)
        assert matrix.nnz == 105
        pattern = server.factor(matrix)["pattern"]
        data = np.resize(matrix.data, matrix.nnz + delta)
        match = f"{matrix.nnz + delta} values .* 105 nonzeros"
        with pytest.raises(ValueError, match=match):
            server.submit_refactorize(pattern, data)
        reply = server.handle({"op": "refactorize", "id": 5,
                               "pattern": pattern, "data": data.tolist()})
        assert reply["ok"] is False
        assert f"{matrix.nnz + delta} values" in reply["error"]
        assert "105 nonzeros" in reply["error"]
        # Nothing reached the worker: the solver still holds 105 values
        # and serves the original matrix.
        worker = server._workers[pattern]
        assert worker.solver._matrix.nnz == 105
        b = _rhs(matrix, seed=37)
        assert np.array_equal(server.solve(pattern, b),
                              SparseSolver(matrix, rhs_pad=8).solve(b))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_b_rejected(self, server, bad):
        matrix = grid_laplacian_2d(5, seed=38)
        pattern = server.factor(matrix)["pattern"]
        b = _rhs(matrix, seed=39)
        b[7] = bad
        with pytest.raises(ValueError, match="NaN or Inf"):
            server.submit_solve(pattern, b)
        with pytest.raises(ValueError, match="NaN or Inf"):
            server.submit_solve(pattern, np.column_stack([b, b]))
        for wire_b in (b.tolist(), b):
            reply = server.handle({"op": "solve", "id": 6,
                                   "pattern": pattern, "b": wire_b})
            assert reply["ok"] is False and "NaN or Inf" in reply["error"]
        assert np.isfinite(server.solve(pattern, np.ones(25))).all()

    def test_complex_b_rejected(self, server):
        matrix = grid_laplacian_2d(5, seed=38)
        pattern = server.factor(matrix)["pattern"]
        for b in (1j * np.ones(25), np.ones((25, 2), dtype=complex)):
            with pytest.raises(ValueError, match="must be real"):
                server.submit_solve(pattern, b)
        assert server._workers[pattern].served == 1   # the factor only

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_refactorize_data_rejected(self, server, bad):
        matrix = grid_laplacian_2d(5, seed=40)
        pattern = server.factor(matrix)["pattern"]
        data = matrix.data.copy()
        data[3] = bad
        with pytest.raises(ValueError, match="NaN or Inf"):
            server.submit_refactorize(pattern, data)
        reply = server.handle({"op": "refactorize", "id": 8,
                               "pattern": pattern, "data": data.tolist()})
        assert reply["ok"] is False and "NaN or Inf" in reply["error"]
        assert server._workers[pattern].served == 1   # the factor only

    def test_non_finite_factor_rejected(self, server):
        matrix = grid_laplacian_2d(5, seed=41)
        matrix.data[0] = np.nan
        with pytest.raises(ValueError, match="NaN or Inf"):
            server.submit_factor(matrix)
        assert server.stats(export=False)["patterns"] == 0

    @pytest.mark.parametrize("mutate,match", [
        (lambda w: w.update(indptr=w["indptr"][:-1]),
         "indptr has wrong length"),
        (lambda w: w["indices"].__setitem__(3, 99),
         "row index out of bounds in column"),
        (lambda w: w["indices"].__setitem__(
            slice(0, 2), w["indices"][1::-1].copy()),
         "row indices not strictly increasing in column 0"),
    ], ids=["short-indptr", "row-out-of-range", "unsorted-rows"])
    def test_matrix_from_wire_validates_csc(self, server, mutate, match):
        wire = protocol.matrix_to_wire(grid_laplacian_2d(5, seed=42))
        wire = {k: (v.copy() if isinstance(v, np.ndarray) else v)
                for k, v in wire.items()}
        mutate(wire)
        with pytest.raises(protocol.ProtocolError,
                           match=f"bad matrix payload: {match}"):
            protocol.matrix_from_wire(wire)
        reply = server.handle({"op": "factor", "id": 9, "matrix": wire})
        assert reply["ok"] is False
        assert reply["error"].startswith(f"bad matrix payload: {match}")
