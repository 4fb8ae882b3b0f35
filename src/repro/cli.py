"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``suite``    — list the evaluation matrices (Tables 3/4);
* ``info``     — matrix statistics + symbolic-factorization summary;
* ``solve``    — factor and solve A x = b, report the residual;
* ``simulate`` — run the Spatula cycle-level simulator and print the
  report (optionally an ASCII Gantt chart, a Chrome trace JSON, and a
  ``--metrics`` run-artifact JSON with spans + component counters);
* ``compare``  — Spatula vs the GPU/CPU baseline models on one matrix;
* ``report``   — pretty-print a run artifact, ``--diff`` two artifacts
  (exit non-zero when a watched metric regresses past ``--threshold``),
  or ``--html`` render one artifact into a self-contained HTML page;
* ``verify``   — seeded, time-budgeted differential fuzzing campaign
  (cross-configuration agreement + oracle checks; failing cases are
  shrunk to replayable JSON repros, replayed with ``--replay``;
  ``--jobs N`` fans cases out over a process pool);
* ``serve``    — long-lived multi-tenant solve server on a unix socket
  (NDJSON protocol, request coalescing into blocked multi-RHS panels;
  see docs/SERVING.md);
* ``serve-stats`` — one-shot poll of a running server's ``health`` +
  ``stats`` ops (pretty table, raw JSON, or Prometheus text for
  external scrapers);
* ``serve-top`` — live terminal dashboard over the same wire surface:
  per-worker lanes, rolling-window latency with a sparkline trend,
  slow-request exemplars (docs/SERVING.md "Operating the server");
* ``autotune`` — sweep ordering x block size x worker count for one
  matrix, record the trials into a trial store keyed by the
  matrix-family fingerprint, and print the winning config — served
  later by ``solve --ordering auto`` and ``SparseSolver(ordering=
  "auto")`` (see docs/ORDERING.md).

``solve``, ``simulate``, and ``verify`` share the runtime
observability flags: ``--telemetry-dir DIR`` records run-scoped
telemetry (one JSONL event stream, read back on exit into a Chrome
trace + ``latency.*`` percentile gauges) and
``--profile`` adds wall-clock profiling (cProfile + sampling profiler,
top-function table + flamegraph).  See docs/OBSERVABILITY.md.

Global flags (before the command): ``-v``/``-vv`` or ``--log-level`` turn
on stdlib logging from the whole stack.

Matrices are named ``suite:NAME[@SCALE]`` (e.g. ``suite:Serena``,
``suite:FullChip@0.5``), ``fuzz:FAMILY[@SEED]`` (a deterministic
fuzz-suite case, e.g. ``fuzz:spd_mesh@3``), or a MatrixMarket file path.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from pathlib import Path

import numpy as np

from repro.arch.config import SpatulaConfig
from repro.arch.sim import SpatulaSim
from repro.baselines import CPUModel, GPUModel
from repro.numeric.solver import SparseSolver
from repro.numeric.tuning import get_tuning
from repro.obs import (
    global_registry,
    MetricsRegistry,
    Profiler,
    RunArtifact,
    diff_artifacts,
    disable_tracing,
    enable_tracing,
    flamegraph_svg,
    render_artifact,
    render_diff,
    setup_logging,
    span,
    telemetry,
    verbosity_to_level,
    write_html_report,
)
from repro.obs.profile import PROFILE_MODES
from repro.ordering.autotune import BUDGETS
from repro.ordering.registry import available_orderings
from repro.sparse.csc import CSCMatrix
from repro.sparse.io import read_matrix_market
from repro.sparse.suite import cholesky_suite, get_matrix, get_spec, lu_suite
from repro.symbolic.analyze import symbolic_factorize
from repro.tasks.plan import build_plan

logger = logging.getLogger(__name__)


def load_matrix(spec: str) -> tuple[CSCMatrix, str, str]:
    """Resolve a matrix argument to (matrix, default_kind, ordering)."""
    if spec.startswith("fuzz:"):
        from repro.verify.generators import build_case

        name = spec[len("fuzz:"):]
        seed = 0
        if "@" in name:
            name, seed_str = name.split("@", 1)
            seed = int(seed_str)
        case = build_case(name, seed, max_n=96)
        return case.matrix, case.kind, "amd"
    if spec.startswith("suite:"):
        name = spec[len("suite:"):]
        scale = 1.0
        if "@" in name:
            name, scale_str = name.split("@", 1)
            scale = float(scale_str)
        entry = get_spec(name)
        kind = "cholesky" if entry.kind == "spd" else "lu"
        return get_matrix(name, scale=scale), kind, entry.ordering
    matrix = CSCMatrix.from_coo(read_matrix_market(spec))
    kind = "cholesky" if matrix.is_symmetric() else "lu"
    return matrix, kind, "amd"


def _config_from_args(args) -> SpatulaConfig:
    overrides = {}
    for field in ("n_pes", "tile", "cache_mb", "policy", "order",
                  "sn_order"):
        value = getattr(args, field.replace("-", "_"), None)
        if value is not None:
            overrides[field] = value
    return SpatulaConfig.paper(**overrides)


def _analyze(matrix: CSCMatrix, kind: str, ordering: str,
             config: SpatulaConfig | None = None):
    """Symbolic factorization with the simulator's supernode relaxation,
    plus the tile plan for ``config`` (``None`` without one)."""
    symbolic = symbolic_factorize(matrix, kind=kind, ordering=ordering,
                                  relax_small=32, relax_ratio=0.5,
                                  force_small=64)
    plan = None
    if config is not None:
        plan = build_plan(symbolic, tile=config.tile,
                          supertile=config.supertile)
    return symbolic, plan


class ObsSession:
    """Observability lifecycle of one command: the span tracer,
    ``--telemetry-dir`` and ``--profile``.

    Entering enables + resets the global tracer when the command embeds
    spans in an artifact (``trace``) or telemetry is on (:attr:`tracer`
    stays ``None`` otherwise), opens the telemetry run and starts the
    wall-clock profiler.  Leaving runs ``finish()`` and disables the
    tracer.

    ``finish()`` — idempotent; commands call it before they snapshot an
    artifact — stops profiler and telemetry, reads the run's JSONL
    stream back once, exports ``latency.*`` percentile gauges into the
    global registry (so the artifact and ``report --diff`` see
    wall-clock latency), and writes next to the stream
    ``<run>.trace.json`` (Chrome trace) and, with ``--profile``,
    ``<run>.profile.txt`` + ``<run>.flame.svg``.  With nothing asked for
    every step is a no-op.
    """

    def __init__(self, args, command: str, trace: bool = False) -> None:
        self.command = command
        self.telemetry_dir = args.telemetry_dir
        self.trace = trace or self.telemetry_dir is not None
        # only `simulate` has --trace-memory
        self.trace_memory = getattr(args, "trace_memory", False)
        self.profiler = (Profiler(mode=args.profile_mode)
                         if args.profile else None)
        self.tracer = None
        self.context = None
        self.latency = None
        self.profile_result = None
        self._done = False

    def __enter__(self) -> "ObsSession":
        if self.trace:
            self.tracer = enable_tracing(trace_memory=self.trace_memory)
            self.tracer.reset()
        if self.telemetry_dir:
            self.context = telemetry.start(
                self.telemetry_dir, parent_span_id=self.command)
        if self.profiler is not None:
            self.profiler.start()
        return self

    def __exit__(self, *exc) -> None:
        self.finish()
        if self.tracer is not None:
            disable_tracing()

    def finish(self) -> None:
        if self._done:
            return
        self._done = True
        if self.profiler is not None:
            self.profile_result = self.profiler.stop()
        if self.context is not None:
            root = Path(self.telemetry_dir)
            run_id = self.context.run_id
            telemetry.stop()
            events = telemetry.read_stream(self.context.stream_path)
            self.latency = telemetry.latency_summary(events)
            telemetry.export_latency_metrics(self.latency)
            trace_path = root / f"{run_id}.trace.json"
            telemetry.chrome_trace(events, trace_path)
            print(f"telemetry: run {run_id} -> {trace_path}")
        if self.profile_result is not None:
            if self.context is not None:
                top_path = root / f"{run_id}.profile.txt"
                with open(top_path, "w") as f:
                    f.write(self.profile_result.render_top(limit=40)
                            + "\n")
                paths = [str(top_path)]
                if self.profile_result.folded:
                    flame_path = root / f"{run_id}.flame.svg"
                    with open(flame_path, "w") as f:
                        f.write(flamegraph_svg(self.profile_result.folded))
                    paths.append(str(flame_path))
                print("profile: " + ", ".join(paths))
            else:
                print(self.profile_result.render_top(limit=20))

    def telemetry_dict(self) -> dict | None:
        """The artifact's ``telemetry`` section (``None`` when off)."""
        if self.context is None:
            return None
        return {
            "run_id": self.context.run_id,
            "dir": self.context.telemetry_dir,
            "latency_ms": self.latency,
        }

    def profile_dict(self) -> dict | None:
        """The artifact's ``profile`` section (``None`` when off)."""
        if self.profile_result is None:
            return None
        return self.profile_result.to_dict()


def cmd_suite(_args) -> int:
    print(f"{'name':<18}{'kind':<8}{'ordering':<10}domain")
    for spec in cholesky_suite() + lu_suite():
        print(f"{spec.name:<18}{spec.kind:<8}{spec.ordering:<10}"
              f"{spec.domain}")
    return 0


def cmd_info(args) -> int:
    matrix, kind, ordering = load_matrix(args.matrix)
    kind = args.kind or kind
    print(f"n = {matrix.n_rows}, nnz = {matrix.nnz} "
          f"({matrix.nnz / matrix.n_rows:.1f}/row)")
    print(f"structurally symmetric: {matrix.is_structurally_symmetric()}")
    symbolic, _ = _analyze(matrix, kind, ordering)
    sizes = symbolic.supernode_sizes()
    print(f"symbolic [{kind}, {ordering}]: nnz(L) = {symbolic.factor_nnz} "
          f"({symbolic.factor_nnz / max(1, matrix.nnz):.1f}x fill), "
          f"{symbolic.flops / 1e9:.3f} GFLOP")
    print(f"supernodes: {symbolic.n_supernodes} "
          f"(median front {int(np.median(sizes))}, max {sizes.max()})")
    return 0


def cmd_solve(args) -> int:
    with ObsSession(args, "solve", trace=bool(args.metrics)) as session:
        with span("pipeline.load_matrix"):
            matrix, kind, ordering = load_matrix(args.matrix)
        kind = args.kind or kind
        ordering = args.ordering or ordering
        solver = SparseSolver(matrix, kind=kind, ordering=ordering,
                              tune_store=args.tune_store,
                              workers=args.workers,
                              block_size=args.block_size,
                              rhs_pad=args.rhs_pad)
        if ordering == "auto":
            print(f"ordering auto -> {solver.ordering}")
        ordering = solver.ordering
        rng = np.random.default_rng(args.seed)
        if args.refine:
            shape = (matrix.n_rows, args.rhs) if args.rhs > 1 \
                else matrix.n_rows
            b = rng.standard_normal(shape)
            result = solver.solve_refined(matrix, b)
            label = f" over {args.rhs} right-hand sides" \
                if args.rhs > 1 else ""
            print(f"residual {result.residual_norm:.3e}{label} after "
                  f"{result.iterations} refinement sweep(s)")
        elif args.rhs > 1:
            b = rng.standard_normal((matrix.n_rows, args.rhs))
            x = solver.solve(b)
            worst = max(
                solver.residual_norm(matrix, x[:, j], b[:, j])
                for j in range(args.rhs)
            )
            print(f"worst residual over {args.rhs} right-hand sides "
                  f"{worst:.3e}")
        else:
            b = rng.standard_normal(matrix.n_rows)
            x = solver.solve(b)
            print(f"residual {solver.residual_norm(matrix, x, b):.3e}")
        if args.repeat > 1:
            # Warm requests over the already-analyzed pattern: each
            # iteration adds one numeric.factorize and one
            # numeric.solve sample to the wall-clock latency
            # percentiles (latency.numeric.*).
            t_rep = time.perf_counter()
            for _ in range(args.repeat - 1):
                solver.refactorize(matrix)
                solver.solve(b)
            dt = max(time.perf_counter() - t_rep, 1e-9)
            print(f"{args.repeat - 1} warm refactorize+solve "
                  f"request(s) in {dt:.3f}s "
                  f"({(args.repeat - 1) / dt:.1f} req/s)")
        print(f"factor nnz {solver.factor_nnz}")
        session.finish()
        if args.metrics:
            tuning = get_tuning()
            attribution = {"numeric": solver.factor.attribution}
            if solver.symbolic.quality is not None:
                attribution["ordering_quality"] = \
                    solver.symbolic.quality.to_dict()
            artifact = RunArtifact(
                matrix=args.matrix, kind=kind, n=matrix.n_rows,
                config={
                    "ordering": ordering,
                    # the knobs the solver actually ran with (an
                    # auto-resolved ordering may have tuned them)
                    "workers": solver.workers or tuning.workers,
                    "block_size": solver.block_size or tuning.block_size,
                    "rhs": args.rhs, "repeat": args.repeat,
                },
                report={},
                metrics=global_registry().snapshot(),
                spans=session.tracer.export(),
                attribution=attribution,
                telemetry=session.telemetry_dict(),
                profile=session.profile_dict(),
                created_at=time.strftime("%Y-%m-%dT%H:%M:%S"),
            )
            artifact.save(args.metrics)
            print(f"wrote run artifact to {args.metrics} "
                  f"({len(artifact.spans)} spans, "
                  f"{len(artifact.metrics)} metrics)")
        return 0


def cmd_simulate(args) -> int:
    with ObsSession(args, "simulate", trace=bool(args.metrics)) as session:
        with span("pipeline.load_matrix"):
            matrix, kind, ordering = load_matrix(args.matrix)
        kind = args.kind or kind
        config = _config_from_args(args)
        _, plan = _analyze(matrix, kind, ordering, config)
        executor = None
        if args.check:
            from repro.arch.functional import TileExecutor

            executor = TileExecutor(plan, matrix)
        registry = MetricsRegistry() if args.metrics else None
        # --metrics implies tracing: the artifact's attribution section
        # (cycle accounting + critical path) is derived from the trace.
        sim = SpatulaSim(plan, config, matrix_name=args.matrix,
                         executor=executor,
                         trace=bool(args.gantt or args.trace
                                    or args.metrics),
                         metrics=registry)
        report = sim.run()
        print(report.summary())
        bd = report.cycle_breakdown()
        print("cycles: " + ", ".join(f"{k} {100 * v:.1f}%"
                                     for k, v in bd.items() if v > 0.001))
        print("traffic: " + ", ".join(
            f"{k} {v / 1e6:.2f} MB"
            for k, v in report.traffic_bytes.items()))
        print(f"load imbalance {report.load_imbalance():.2f}, "
              f"peak live footprint "
              f"{report.peak_live_front_bytes / 1024:.0f} KB")
        if executor is not None:
            err = executor.verify()
            print("numeric check passed "
                  f"(max reconstruction error {err:.2e})")
        if args.gantt:
            from repro.arch.trace import render_gantt

            print(render_gantt(sim.trace, config.n_pes))
        if args.trace:
            from repro.arch.trace import export_chrome_trace

            export_chrome_trace(sim.trace, args.trace, config.freq_ghz,
                                spans=session.tracer.spans
                                if session.tracer else None)
            print(f"wrote Chrome trace to {args.trace}")
        session.finish()
        if args.metrics:
            artifact = RunArtifact.from_run(report, tracer=session.tracer,
                                            attribution=sim.attribution())
            artifact.telemetry = session.telemetry_dict()
            artifact.profile = session.profile_dict()
            artifact.save(args.metrics)
            print(f"wrote run artifact to {args.metrics} "
                  f"({len(artifact.spans)} spans, "
                  f"{len(report.metrics)} metrics, attribution)")
        return 0


def cmd_report(args) -> int:
    if args.diff:
        if len(args.files) != 2:
            raise ValueError("--diff needs exactly two artifact files")
        baseline = RunArtifact.load(args.files[0])
        new = RunArtifact.load(args.files[1])
        result = diff_artifacts(baseline, new, threshold=args.threshold)
        print(f"{baseline.matrix} [{baseline.kind}]: "
              f"{args.files[0]} -> {args.files[1]}")
        print(render_diff(result, show_unchanged=args.all))
        return 1 if result.has_regression else 0
    if args.html:
        if len(args.files) != 1:
            raise ValueError("--html renders exactly one artifact file")
        write_html_report(RunArtifact.load(args.files[0]), args.html)
        print(f"wrote HTML report to {args.html}")
        return 0
    for path in args.files:
        print(render_artifact(RunArtifact.load(path)))
    return 0


def cmd_verify(args) -> int:
    from repro.verify import (
        VerifyConfig,
        campaign_artifact,
        load_repro,
        replay_repro,
        run_verification,
    )

    if args.replay:
        repro = load_repro(args.replay)
        result = replay_repro(args.replay)
        print(f"replaying {repro.case} (n={repro.n}, kind={repro.kind}, "
              f"original axes: {', '.join(repro.axes)})")
        if result.failed:
            for m in result.mismatches:
                print(f"  MISMATCH [{m.axis}] {m.detail}")
            return 1
        print("  no mismatch: the failing case no longer reproduces")
        return 0

    with ObsSession(args, "verify") as session:
        config = VerifyConfig(
            seed=args.seed,
            budget_seconds=args.budget,
            max_cases=args.cases,
            max_n=args.max_n,
            out_dir=args.out,
            shrink=not args.no_shrink,
            jobs=args.jobs,
        )
        with span("verify.campaign"):
            summary = run_verification(config)
        print(summary.render())
        session.finish()
        if args.metrics:
            artifact = campaign_artifact(summary, config)
            artifact.telemetry = session.telemetry_dict()
            artifact.profile = session.profile_dict()
            artifact.save(args.metrics)
            print(f"wrote run artifact to {args.metrics} "
                  f"({len(artifact.metrics)} metrics)")
        return 0 if summary.ok else 1


def cmd_compare(args) -> int:
    matrix, kind, ordering = load_matrix(args.matrix)
    kind = args.kind or kind
    config = _config_from_args(args)
    symbolic, plan = _analyze(matrix, kind, ordering, config)
    report = SpatulaSim(plan, config, matrix_name=args.matrix).run()
    gpu = GPUModel().run(symbolic)
    cpu = CPUModel().run(symbolic)
    print(f"{'platform':<12}{'time':>12}{'rate':>16}{'speedup':>9}")
    print(f"{'Spatula':<12}{report.seconds * 1e6:>10.1f}us"
          f"{report.achieved_tflops:>10.2f} TFLOP/s{'1.0x':>9}")
    print(f"{'V100 GPU':<12}{gpu.seconds * 1e6:>10.1f}us"
          f"{gpu.gflops / 1e3:>10.2f} TFLOP/s"
          f"{gpu.seconds / report.seconds:>8.1f}x")
    print(f"{'Zen2 CPU':<12}{cpu.seconds * 1e6:>10.1f}us"
          f"{cpu.gflops / 1e3:>10.2f} TFLOP/s"
          f"{cpu.seconds / report.seconds:>8.1f}x")
    return 0


def cmd_serve(args) -> int:
    import threading

    from repro.serve.server import ServeConfig, SolveServer, run_unix_server

    config = ServeConfig(
        max_batch=args.max_batch,
        max_patterns=args.max_patterns,
        io_threads=args.io_threads,
        workers=args.workers,
        block_size=args.block_size,
        tune_store=args.tune_store,
    )
    server = SolveServer(config)
    ready = threading.Event()
    # A crashed previous run leaves its socket file behind and the bind
    # would fail with "address already in use"; clear it — unless a
    # live server is still listening there.
    if os.path.exists(args.socket):
        import socket as socket_mod

        probe = socket_mod.socket(socket_mod.AF_UNIX)
        try:
            probe.connect(args.socket)
        except OSError:
            try:
                os.unlink(args.socket)
            except OSError:
                pass
        else:
            print(f"error: a server is already listening on "
                  f"{args.socket}", file=sys.stderr)
            return 1
        finally:
            probe.close()
    print(f"serving on {args.socket} "
          f"(max batch {config.max_batch}, "
          f"rhs_pad {config.effective_rhs_pad()}); "
          f"send {{\"op\": \"shutdown\"}} or Ctrl-C to stop")
    try:
        run_unix_server(server, args.socket, ready=ready)
    except KeyboardInterrupt:
        server.shutdown()
    finally:
        try:
            os.unlink(args.socket)
        except OSError:
            pass
    stats = server.stats(export=False)
    print(f"served {stats['responses']} response(s) over "
          f"{stats['patterns']} pattern(s), "
          f"{stats['errors']} error(s)")
    return 0


def cmd_serve_stats(args) -> int:
    from repro.serve.client import SocketClient
    from repro.serve.metrics import REQUEST_PHASE as REQ

    try:
        client = SocketClient(args.socket, timeout=args.timeout)
    except OSError as exc:
        print(f"error: cannot reach server on {args.socket}: {exc}",
              file=sys.stderr)
        return 1
    with client:
        if args.format == "text":
            print(client.stats(window_s=args.window_s, format="text"),
                  end="")
            return 0
        health = client.health()
        stats = client.stats(window_s=args.window_s)
        if args.format == "json":
            print(json.dumps({"health": health, "stats": stats},
                             indent=2, default=str))
            return 0
        status = "ok" if health["ok"] else "DEGRADED"
        print(f"server on {args.socket}: {status}, "
              f"up {health['uptime_s']:.1f}s, "
              f"heartbeat #{health['heartbeats']} "
              f"({health['heartbeat_age_s']:.1f}s ago)")
        window = stats["window"]
        request = window["latency_ms"].get(REQ, {})
        print(f"window {stats['window_s']:g}s: "
              f"{window['throughput_rps']:.1f} req/s, "
              f"p50 {request.get('p50_ms', 0.0):.3f}ms, "
              f"p95 {request.get('p95_ms', 0.0):.3f}ms, "
              f"p99 {request.get('p99_ms', 0.0):.3f}ms; "
              f"inflight {window['inflight']}, "
              f"queued {window['queue_depth']}")
        print(f"lifetime: {stats['responses']} response(s), "
              f"{stats['errors']} error(s), "
              f"{stats['coalesce']['batches']} batch(es), "
              f"mean width {stats['coalesce']['batch_mean']:.2f}")
        for pattern, w in sorted(stats["workers"].items()):
            state = "dead" if not w["alive"] else \
                ("busy" if w["busy"] else "idle")
            print(f"  {pattern[:24]:<26}{state:<6}"
                  f"queue {w['queue_depth']:<4}"
                  f"served {w['served']:<7}"
                  f"batches {w['batches']}")
        for ex in stats["exemplars"][:args.exemplars]:
            phases = ex.get("phases_ms", {})
            print(f"  slow {ex['request_id']:<8}{ex['op']:<12}"
                  f"{ex['latency_ms']:9.3f}ms  "
                  f"(queue {phases.get('queue_wait', 0.0):.3f} / "
                  f"coalesce {phases.get('coalesce_wait', 0.0):.3f} / "
                  f"solve {phases.get('solve', 0.0):.3f})")
    return 0


def cmd_serve_top(args) -> int:
    from repro.serve.top import run_top

    return run_top(args.socket, interval_s=args.interval,
                   iterations=args.iterations, window_s=args.window_s,
                   clear=not args.no_clear)


def cmd_autotune(args) -> int:
    from repro.ordering.api import fill_reducing_ordering
    from repro.ordering.autotune import TrialStore, autotune
    from repro.ordering.quality import export_quality_gauges, score_ordering

    matrix, kind, _ = load_matrix(args.matrix)
    kind = args.kind or kind
    store = TrialStore(args.store)
    result = autotune(matrix, store, kind=kind, budget=args.budget,
                      matrix_name=args.matrix, force=args.force)
    cfg = result.config
    if result.from_cache:
        print(f"family {result.fingerprint}: warm cache hit, "
              f"sweep skipped (pass --force to re-measure)")
    else:
        print(f"family {result.fingerprint}: {len(result.trials)} trial(s) "
              f"recorded to {store.trials_path}")
        print(f"  {'ordering':<14}{'block':>6}{'workers':>8}"
              f"{'fill':>10}{'factorize':>12}")
        for t in sorted(result.trials, key=lambda t: t.factorize_s):
            print(f"  {t.ordering:<14}{t.block_size:>6}{t.workers:>8}"
                  f"{t.fill:>10}{t.factorize_s * 1e3:>10.2f}ms")
    print(f"best config: ordering={cfg.ordering} "
          f"block_size={cfg.block_size} workers={cfg.workers} "
          f"(served by `solve {args.matrix} --ordering auto "
          f"--tune-store {args.store}`)")
    if args.metrics:
        # Score the winning ordering so the artifact carries the
        # ordering.quality.* gauges for this family.
        perm = fill_reducing_ordering(matrix, cfg.ordering)
        score = score_ordering(matrix, perm, method=cfg.ordering, kind=kind)
        export_quality_gauges(score)
        artifact = RunArtifact(
            matrix=args.matrix, kind=kind, n=matrix.n_rows,
            config={"budget": args.budget,
                    "fingerprint": result.fingerprint},
            report={"best": {"ordering": cfg.ordering,
                             "block_size": cfg.block_size,
                             "workers": cfg.workers},
                    "from_cache": result.from_cache,
                    "trials": len(result.trials),
                    "quality": score.to_dict()},
            metrics=global_registry().snapshot(),
            created_at=time.strftime("%Y-%m-%dT%H:%M:%S"),
        )
        artifact.save(args.metrics)
        print(f"wrote run artifact to {args.metrics} "
              f"({len(artifact.metrics)} metrics)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Spatula (MICRO 2023) reproduction toolkit",
    )
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="increase log verbosity (-v info, -vv debug)")
    parser.add_argument("--log-level", default=None,
                        choices=["debug", "info", "warning", "error"],
                        help="explicit log level (overrides -v)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("suite", help="list evaluation matrices")

    def add_matrix_arg(p):
        p.add_argument("matrix",
                       help="suite:NAME[@SCALE], fuzz:FAMILY[@SEED], or "
                            "a MatrixMarket path")
        p.add_argument("--kind", choices=["cholesky", "lu"], default=None)

    def add_obs_args(p):
        p.add_argument("--telemetry-dir", metavar="DIR", default=None,
                       help="record run-scoped telemetry: one JSONL "
                            "event stream in DIR, read back on exit into "
                            "a Chrome trace + latency.* percentile "
                            "gauges")
        p.add_argument("--profile", action="store_true",
                       help="wall-clock profiling (cProfile + sampling "
                            "profiler); writes a top-function table and "
                            "a flamegraph next to the telemetry streams")
        p.add_argument("--profile-mode", choices=list(PROFILE_MODES),
                       default="both",
                       help="which profiler(s) --profile runs "
                            "(default: both)")

    p_info = sub.add_parser("info", help="matrix + symbolic summary")
    add_matrix_arg(p_info)

    p_solve = sub.add_parser("solve", help="factor and solve Ax=b")
    add_matrix_arg(p_solve)
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.add_argument("--ordering", default=None,
                         choices=list(available_orderings()) + ["auto"],
                         help="fill-reducing ordering (choices derive "
                              "from the registry; 'auto' resolves the "
                              "best known config for this matrix family "
                              "from --tune-store, falling back to amd; "
                              "default: the matrix's suite ordering)")
    p_solve.add_argument("--tune-store", metavar="DIR", default=None,
                         help="autotuner experience store consulted by "
                              "--ordering auto (see `repro autotune`)")
    p_solve.add_argument("--refine", action="store_true",
                         help="use iterative refinement")
    p_solve.add_argument("--workers", type=int, default=None,
                         help="threads of the numeric-phase scheduler "
                              "(a supernode runs once its children have; "
                              "bit-identical results; default: tuning)")
    p_solve.add_argument("--block-size", type=int, default=None,
                         help="dense-kernel panel width (default: tuning)")
    p_solve.add_argument("--rhs", type=int, default=1,
                         help="number of right-hand sides (solved as one "
                              "blocked panel)")
    p_solve.add_argument("--rhs-pad", type=int, default=1,
                         help="batch-invariant solve width: zero-pad "
                              "every solve to this panel width so "
                              "results are bit-identical regardless of "
                              "batching (default 1 = off; see "
                              "docs/SERVING.md)")
    p_solve.add_argument("--repeat", type=int, default=1,
                         help="warm refactorize+solve requests per solver "
                              "(adds wall-clock latency samples for the "
                              "p50/p95/p99 phase percentiles; default 1)")
    p_solve.add_argument("--metrics", metavar="FILE", default=None,
                         help="write a run-artifact JSON (numeric-engine "
                              "metrics + pipeline spans)")
    add_obs_args(p_solve)

    def add_config_args(p):
        p.add_argument("--n-pes", type=int, default=None)
        p.add_argument("--tile", type=int, default=None)
        p.add_argument("--cache-mb", type=float, default=None)
        p.add_argument("--policy",
                       choices=["intra+inter", "intra", "inter"],
                       default=None)
        p.add_argument("--order", choices=["bf", "rowmajor"], default=None)
        p.add_argument("--sn-order", choices=["postorder", "fifo"],
                       default=None)

    p_sim = sub.add_parser("simulate", help="run the cycle-level simulator")
    add_matrix_arg(p_sim)
    add_config_args(p_sim)
    p_sim.add_argument("--check", action="store_true",
                       help="execute numerics and verify the factor")
    p_sim.add_argument("--gantt", action="store_true",
                       help="print an ASCII Gantt chart")
    p_sim.add_argument("--trace", metavar="FILE", default=None,
                       help="write a Chrome trace JSON")
    p_sim.add_argument("--metrics", metavar="FILE", default=None,
                       help="write a run-artifact JSON (config + report + "
                            "metrics registry + pipeline spans)")
    p_sim.add_argument("--trace-memory", action="store_true",
                       help="capture tracemalloc peak memory per span "
                            "(implies --metrics overhead)")
    add_obs_args(p_sim)

    p_cmp = sub.add_parser("compare", help="Spatula vs GPU/CPU baselines")
    add_matrix_arg(p_cmp)
    add_config_args(p_cmp)

    p_ver = sub.add_parser(
        "verify", help="differential fuzzing campaign (cross-config + "
                       "oracle checks, shrinks failures to JSON repros)"
    )
    p_ver.add_argument("--seed", type=int, default=0,
                       help="campaign seed; the case sequence is a pure "
                            "function of it (default 0)")
    p_ver.add_argument("--budget", type=float, default=60.0,
                       help="time budget in seconds (default 60)")
    p_ver.add_argument("--cases", type=int, default=None,
                       help="hard cap on the number of cases")
    p_ver.add_argument("--max-n", type=int, default=48,
                       help="largest generated matrix dimension "
                            "(default 48)")
    p_ver.add_argument("--out", default="repros", metavar="DIR",
                       help="directory for shrunk failing-case JSONs "
                            "(default: repros/)")
    p_ver.add_argument("--no-shrink", action="store_true",
                       help="report mismatches without minimizing them")
    p_ver.add_argument("--metrics", metavar="FILE", default=None,
                       help="write a run-artifact JSON (verify.* counters)")
    p_ver.add_argument("--jobs", type=int, default=1,
                       help="process-pool workers for case execution; "
                            "each hands its verify.case span and counters "
                            "back to this process (default 1)")
    p_ver.add_argument("--replay", metavar="FILE", default=None,
                       help="re-run a shrunk failing-case JSON instead of "
                            "fuzzing")
    add_obs_args(p_ver)

    p_rep = sub.add_parser(
        "report", help="pretty-print, diff, or HTML-render run artifacts"
    )
    p_rep.add_argument("files", nargs="+",
                       help="artifact JSON file(s) from simulate --metrics")
    p_rep.add_argument("--diff", action="store_true",
                       help="compare two artifacts (baseline, new); exits "
                            "non-zero if a watched metric regresses")
    p_rep.add_argument("--threshold", type=float, default=0.05,
                       help="relative regression threshold (default 0.05)")
    p_rep.add_argument("--all", action="store_true",
                       help="with --diff, also show unchanged metrics")
    p_rep.add_argument("--html", metavar="FILE", default=None,
                       help="render one artifact into a self-contained "
                            "HTML page (attribution tree, utilization "
                            "timeline)")

    p_srv = sub.add_parser(
        "serve", help="long-lived multi-tenant solve server on a unix "
                      "socket (NDJSON protocol, request coalescing into "
                      "blocked multi-RHS panels; see docs/SERVING.md)"
    )
    p_srv.add_argument("--socket", default="repro-serve.sock",
                       metavar="PATH",
                       help="unix socket path (default: "
                            "repro-serve.sock)")
    p_srv.add_argument("--max-batch", type=int, default=32,
                       help="largest blocked panel one solve sweep "
                            "carries; 1 disables coalescing "
                            "(default 32)")
    p_srv.add_argument("--max-patterns", type=int, default=64,
                       help="bound on concurrently registered patterns "
                            "(default 64)")
    p_srv.add_argument("--io-threads", type=int, default=8,
                       help="socket front-end thread-pool width "
                            "(default 8)")
    p_srv.add_argument("--workers", type=int, default=None,
                       help="numeric-phase worker threads per solver "
                            "(default: tuning)")
    p_srv.add_argument("--block-size", type=int, default=None,
                       help="dense-kernel panel width (default: tuning)")
    p_srv.add_argument("--tune-store", metavar="DIR", default=None,
                       help="autotuner experience store: pattern "
                            "registrations with ordering='auto' resolve "
                            "their matrix family's best known config "
                            "from it (see `repro autotune`)")

    def add_poll_args(p):
        p.add_argument("--socket", default="repro-serve.sock",
                       metavar="PATH",
                       help="unix socket of the running server "
                            "(default: repro-serve.sock)")
        p.add_argument("--window-s", type=float, default=None,
                       metavar="S",
                       help="rolling-window width for the live view "
                            "(default: the server's configured window)")

    p_ss = sub.add_parser(
        "serve-stats", help="one-shot health + stats poll of a running "
                            "solve server (pretty, JSON, or Prometheus "
                            "text)"
    )
    add_poll_args(p_ss)
    p_ss.add_argument("--format", choices=["pretty", "json", "text"],
                      default="pretty",
                      help="output format; 'text' is Prometheus "
                           "exposition format for scrapers "
                           "(default: pretty)")
    p_ss.add_argument("--timeout", type=float, default=10.0,
                      help="socket timeout in seconds (default 10)")
    p_ss.add_argument("--exemplars", type=int, default=3,
                      help="slow-request exemplars to print in pretty "
                           "mode (default 3)")

    p_st = sub.add_parser(
        "serve-top", help="live terminal dashboard for a running solve "
                          "server: per-worker lanes, windowed latency "
                          "with sparkline trend, slow-request exemplars"
    )
    add_poll_args(p_st)
    p_st.add_argument("--interval", type=float, default=1.0,
                      help="poll period in seconds (default 1)")
    p_st.add_argument("--iterations", type=int, default=0,
                      help="frames to render before exiting; 0 runs "
                           "until Ctrl-C (default 0)")
    p_st.add_argument("--no-clear", action="store_true",
                      help="append frames instead of clearing the "
                           "screen (logs, tests, dumb terminals)")

    p_tune = sub.add_parser(
        "autotune", help="sweep ordering x block size x workers for one "
                         "matrix, record trials into a trial store "
                         "keyed by its family fingerprint, and print the "
                         "best config (served by `solve --ordering auto`)"
    )
    add_matrix_arg(p_tune)
    p_tune.add_argument("--budget", choices=sorted(BUDGETS),
                        default="small",
                        help="sweep-grid size (default: small)")
    p_tune.add_argument("--store", default=".repro-history", metavar="DIR",
                        help="trial store directory holding "
                             "trials.jsonl (default: .repro-history)")
    p_tune.add_argument("--force", action="store_true",
                        help="re-sweep even when the family already has "
                             "recorded trials")
    p_tune.add_argument("--metrics", metavar="FILE", default=None,
                        help="write a run-artifact JSON (best config + "
                             "ordering.quality.* gauges for the winning "
                             "ordering)")

    return parser


_COMMANDS = {
    "suite": cmd_suite,
    "info": cmd_info,
    "solve": cmd_solve,
    "simulate": cmd_simulate,
    "compare": cmd_compare,
    "report": cmd_report,
    "verify": cmd_verify,
    "serve": cmd_serve,
    "serve-stats": cmd_serve_stats,
    "serve-top": cmd_serve_top,
    "autotune": cmd_autotune,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    setup_logging(args.log_level if args.log_level is not None
                  else verbosity_to_level(args.verbose))
    try:
        return _COMMANDS[args.command](args)
    except (FileNotFoundError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Output piped into a closed consumer (e.g. `| head`): the Unix
        # convention is to exit quietly.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
