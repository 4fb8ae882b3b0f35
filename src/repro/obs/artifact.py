"""Structured run artifacts: config + report + metrics + spans as JSON.

A :class:`RunArtifact` is the machine-readable record of one pipeline run
— the thing you commit next to a benchmark result, diff across PRs, and
gate regressions on.  The JSON schema is versioned (``schema_version``);
:func:`RunArtifact.load` refuses artifacts written by an incompatible
schema rather than mis-reading them.

Diffing: :func:`diff_artifacts` compares the flattened metric spaces of
two artifacts and flags *watched* metrics (``WATCHED_METRICS``, each with
an improvement direction) that moved in the bad direction by more than a
relative threshold.  The CLI's ``repro report --diff`` exits non-zero when
any watched metric regresses.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

#: Current write schema.  v2 (2026-08) added the optional ``attribution``
#: section (cycle accounting + critical path, repro.obs.attribution);
#: v3 (2026-08) added the optional ``telemetry`` section (run id +
#: wall-clock latency percentiles, repro.obs.telemetry) and the optional
#: ``profile`` section (top-function table + folded stacks,
#: repro.obs.profile).
SCHEMA_VERSION = 3

#: Schemas :func:`RunArtifact.load` understands.  Older artifacts simply
#: lack the sections later versions added — every shared field is
#: identical, so v1/v2 load with ``attribution``/``telemetry``/``profile``
#: defaulting to ``None``.
SUPPORTED_SCHEMA_VERSIONS = (1, 2, 3)

#: Metrics ``repro report --diff`` watches, with the direction that is
#: *better*.  Spans the whole stack: simulator headline numbers, memory
#: system, the numeric engine, and the differential-verification layer.
WATCHED_METRICS: dict[str, str] = {
    "report.cycles": "lower",
    "report.achieved_tflops": "higher",
    "report.utilization": "higher",
    "report.total_dram_bytes": "lower",
    "report.load_imbalance": "lower",
    "cache.hit_rate": "higher",
    "cache.misses": "lower",
    "cache.mshr_stall_cycles": "lower",
    "noc.port.stall_cycles": "lower",
    # numeric engine (repro.numeric.engine.export_factor_metrics)
    "numeric.factor.gflops_per_s": "higher",
    "numeric.parallel.occupancy": "higher",
    "numeric.analysis_cache.hit_rate": "higher",
    # numeric-phase scheduler evidence (repro.numeric.schedule): idle
    # seconds and dispatch latency shrink when the scheduler keeps
    # workers fed; ready-queue depth is the parallelism it exposes.
    "numeric.sched.idle_s": "lower",
    "numeric.sched.dispatch_latency_ms.mean": "lower",
    "numeric.sched.ready_depth.mean": "higher",
    "numeric.sched.worker_tasks.imbalance": "lower",
    # differential verification (repro.verify)
    "verify.mismatches": "lower",
    "verify.checks": "higher",
    # wall-clock phase latency percentiles (repro.obs.telemetry): the
    # gate covers real time, not just simulated cycles.  Exported
    # by `solve --telemetry-dir [--repeat N]` runs as latency.<phase>.* gauges.
    "latency.numeric.factorize.p95_ms": "lower",
    "latency.numeric.solve.p50_ms": "lower",
    "latency.numeric.solve.p95_ms": "lower",
    "latency.numeric.solve.p99_ms": "lower",
    # warm-serving layer (repro.serve): exported only by
    # SolveServer.stats(export=True) / shutdown, so each name is one
    # series measured one way (see repro.serve.metrics).
    "serve.latency.request.p50_ms": "lower",
    "serve.latency.request.p95_ms": "lower",
    "serve.latency.request.p99_ms": "lower",
    "serve.throughput.rps": "higher",
    "serve.coalesce.batch_mean": "higher",
    # live rolling-window SLO view of the serving layer (repro.obs.live
    # + repro.serve.metrics.LatencyRecorder.window_summary): the same
    # request phase restricted to the trailing window, so the gate
    # compares live-window behaviour — what an operator would see on a
    # running server — across builds, not just lifetime cumulatives.
    "serve.window.latency.request.p50_ms": "lower",
    "serve.window.latency.request.p99_ms": "lower",
    "serve.window.throughput.rps": "higher",
    # ordering quality harness (repro.ordering.quality): structural
    # quality of the ordering a solve actually used — predicted fill,
    # symbolic FLOPs, etree critical-path length, and how uniformly
    # parallel the etree level sets are.
    "ordering.quality.fill": "lower",
    "ordering.quality.flops": "lower",
    "ordering.quality.etree_height": "lower",
    "ordering.quality.occupancy": "higher",
}


@dataclass
class RunArtifact:
    """One run's full observability record."""

    matrix: str
    kind: str
    n: int
    config: dict
    report: dict
    metrics: dict = field(default_factory=dict)
    spans: list[dict] = field(default_factory=list)
    #: Performance-attribution section (schema v2+): the dict returned by
    #: ``SpatulaSim.attribution()`` — cycle accounting, critical path, and
    #: utilization timeline — or a numeric-engine attribution view for
    #: solve artifacts.  ``None`` for runs without a trace and for every
    #: v1 artifact.
    attribution: dict | None = None
    #: Runtime-telemetry section (schema v3+): the run id, telemetry
    #: directory, process count, and per-phase wall-clock latency
    #: percentiles of the run that produced this artifact.  ``None`` for
    #: runs without ``--telemetry-dir`` and for every v1/v2 artifact.
    telemetry: dict | None = None
    #: Wall-clock profile section (schema v3+): the
    #: :class:`repro.obs.profile.ProfileResult` dict — top-function
    #: table plus folded stack samples (rendered into a flamegraph by
    #: the HTML report).  ``None`` without ``--profile``.
    profile: dict | None = None
    schema_version: int = SCHEMA_VERSION
    created_at: str = ""

    # -- construction -------------------------------------------------------

    @classmethod
    def from_run(cls, report, registry=None, tracer=None,
                 matrix: str | None = None,
                 attribution: dict | None = None) -> "RunArtifact":
        """Build an artifact from a :class:`~repro.arch.stats.SimReport`.

        Args:
            report: the simulation report.
            registry: metrics registry; defaults to ``report.metrics``.
            tracer: span tracer whose spans to embed (optional).
            matrix: label override (defaults to ``report.matrix_name``).
            attribution: attribution section to embed (the dict from
                ``SpatulaSim.attribution()``; optional).
        """
        registry = registry if registry is not None else report.metrics
        return cls(
            matrix=matrix if matrix is not None else report.matrix_name,
            kind=report.kind,
            n=report.n,
            config=asdict(report.config),
            report=report.to_dict(),
            metrics=registry.snapshot() if registry is not None else {},
            spans=[s.to_dict() for s in tracer.spans] if tracer else [],
            attribution=attribution,
            created_at=time.strftime("%Y-%m-%dT%H:%M:%S"),
        )

    # -- (de)serialization --------------------------------------------------

    def to_dict(self) -> dict:
        data = {
            "schema_version": self.schema_version,
            "created_at": self.created_at,
            "matrix": self.matrix,
            "kind": self.kind,
            "n": self.n,
            "config": self.config,
            "report": self.report,
            "metrics": self.metrics,
            "spans": self.spans,
        }
        if self.attribution is not None:
            data["attribution"] = self.attribution
        if self.telemetry is not None:
            data["telemetry"] = self.telemetry
        if self.profile is not None:
            data["profile"] = self.profile
        return data

    def save(self, path: str | Path) -> None:
        with open(path, "w") as f:
            json.dump(self.to_dict(), f, indent=1)

    @classmethod
    def load(cls, path: str | Path) -> "RunArtifact":
        """Load an artifact of any supported schema version.

        v1 artifacts (written before the attribution layer) load with
        ``attribution=None``; v1/v2 artifacts (written before the
        telemetry layer) load with ``telemetry=None``/``profile=None``.
        Every shared field is identical across versions.
        """
        with open(path) as f:
            data = json.load(f)
        version = data.get("schema_version")
        if version not in SUPPORTED_SCHEMA_VERSIONS:
            supported = ", ".join(str(v) for v in
                                  SUPPORTED_SCHEMA_VERSIONS)
            raise ValueError(
                f"{path}: artifact schema_version {version!r} is not "
                f"supported (supported versions: {supported})"
            )
        return cls(
            matrix=data["matrix"], kind=data["kind"], n=data["n"],
            config=data["config"], report=data["report"],
            metrics=data.get("metrics", {}), spans=data.get("spans", []),
            attribution=data.get("attribution"),
            telemetry=data.get("telemetry"),
            profile=data.get("profile"),
            schema_version=version, created_at=data.get("created_at", ""),
        )

    # -- flattened metric space ---------------------------------------------

    def flat_metrics(self) -> dict[str, float]:
        """Scalar view over report headlines + registry metrics."""
        flat: dict[str, float] = {}
        for key, value in self.report.items():
            if isinstance(value, (int, float)):
                flat[f"report.{key}"] = float(value)
        for name, value in self.metrics.items():
            if isinstance(value, dict):  # histogram summary
                flat[f"{name}.count"] = float(value.get("count", 0))
                flat[f"{name}.mean"] = float(value.get("mean", 0.0))
                flat[f"{name}.max"] = float(value.get("max", 0.0))
            else:
                flat[name] = float(value)
        return flat


# -- pretty printing ---------------------------------------------------------


def render_artifact(artifact: RunArtifact) -> str:
    """Human-readable summary of one artifact."""
    lines = [
        f"{artifact.matrix} [{artifact.kind}] n={artifact.n} "
        f"(schema v{artifact.schema_version}, {artifact.created_at})",
        "-- report " + "-" * 45,
    ]
    for key, value in sorted(artifact.report.items()):
        if isinstance(value, float):
            lines.append(f"  {key:<32}{value:>18.6g}")
        elif isinstance(value, int):
            lines.append(f"  {key:<32}{value:>18}")
    if artifact.spans:
        lines.append("-- spans " + "-" * 46)
        for s in sorted(artifact.spans, key=lambda d: d["start_s"]):
            mem = s.get("peak_mem_bytes")
            mem_s = f"  peak {mem / 1e6:.1f} MB" if mem is not None else ""
            lines.append(
                f"  {'  ' * s.get('depth', 0)}{s['name']:<30}"
                f"{1e3 * s['duration_s']:>10.2f} ms{mem_s}"
            )
    if artifact.attribution and "cycles" in artifact.attribution:
        from repro.obs.attribution import CriticalPath, CycleAttribution

        lines.append("-- attribution " + "-" * 40)
        lines.append(CycleAttribution.from_dict(
            artifact.attribution["cycles"]).render())
        if "critical_path" in artifact.attribution:
            lines.append(CriticalPath.from_dict(
                artifact.attribution["critical_path"]).render())
    if artifact.telemetry:
        lines.append("-- telemetry " + "-" * 42)
        lines.append(f"  run {artifact.telemetry.get('run_id', '?')}")
        for phase, st in sorted(
                artifact.telemetry.get("latency_ms", {}).items()):
            lines.append(
                f"  {phase:<26}x{st['count']:<6}"
                f"p50 {st['p50_ms']:>9.3f} ms  "
                f"p95 {st['p95_ms']:>9.3f} ms  "
                f"p99 {st['p99_ms']:>9.3f} ms"
            )
    if artifact.profile:
        from repro.obs.profile import ProfileResult

        lines.append("-- profile " + "-" * 44)
        lines.append(ProfileResult.from_dict(artifact.profile)
                     .render_top(limit=10))
    if artifact.metrics:
        lines.append("-- metrics " + "-" * 44)
        for name, value in sorted(artifact.metrics.items()):
            if isinstance(value, dict):
                lines.append(
                    f"  {name:<32} count={value.get('count', 0)} "
                    f"mean={value.get('mean', 0.0):.3g} "
                    f"max={value.get('max', 0.0):.3g}"
                )
            else:
                lines.append(f"  {name:<32}{value:>18.6g}")
    return "\n".join(lines)


# -- diffing ------------------------------------------------------------------


@dataclass
class MetricDelta:
    """One metric compared across two artifacts."""

    name: str
    before: float
    after: float
    watched: bool
    direction: str | None      # "lower" | "higher" | None
    regressed: bool
    #: a watched metric the baseline has and the new artifact lacks
    #: (``after`` is NaN); always counts as regressed
    missing: bool = False

    @property
    def rel_change(self) -> float:
        denom = abs(self.before)
        if denom == 0.0:
            return 0.0 if self.after == self.before else float("inf")
        return (self.after - self.before) / denom


@dataclass
class DiffResult:
    """Outcome of comparing two artifacts."""

    deltas: list[MetricDelta]
    threshold: float

    @property
    def regressions(self) -> list[MetricDelta]:
        return [d for d in self.deltas if d.regressed]

    @property
    def has_regression(self) -> bool:
        return bool(self.regressions)


def diff_artifacts(a: RunArtifact, b: RunArtifact,
                   threshold: float = 0.05) -> DiffResult:
    """Compare artifact ``b`` (new) against ``a`` (baseline).

    A *watched* metric regresses when it moves in its bad direction by
    more than ``threshold`` relative to the baseline value — or when the
    new artifact no longer reports it at all (a producer that stopped
    exporting must fail the gate, not slip through it).
    """
    fa, fb = a.flat_metrics(), b.flat_metrics()
    deltas: list[MetricDelta] = []
    for name in sorted(fa):
        before = fa[name]
        direction = WATCHED_METRICS.get(name)
        if name not in fb:
            if direction is not None:
                deltas.append(MetricDelta(
                    name=name, before=before, after=float("nan"),
                    watched=True, direction=direction, regressed=True,
                    missing=True,
                ))
            continue
        after = fb[name]
        regressed = False
        if direction is not None and before != after:
            denom = abs(before)
            rel = ((after - before) / denom) if denom else float("inf")
            bad = rel if direction == "lower" else -rel
            regressed = bad > threshold
        deltas.append(MetricDelta(
            name=name, before=before, after=after,
            watched=direction is not None, direction=direction,
            regressed=regressed,
        ))
    return DiffResult(deltas=deltas, threshold=threshold)


def render_diff(result: DiffResult, show_unchanged: bool = False) -> str:
    """Table of metric deltas; regressions are marked ``<< REGRESSION``,
    watched metrics the new artifact lacks ``<< MISSING``."""
    lines = [
        f"{'metric':<36}{'baseline':>14}{'new':>14}{'change':>10}",
        "-" * 74,
    ]
    for d in result.deltas:
        if d.missing:
            lines.append(f"{d.name:<36}{d.before:>14.6g}{'-':>14}"
                         f"{'':>10}  << MISSING")
            continue
        if d.before == d.after and not show_unchanged:
            continue
        change = d.rel_change
        change_s = "   inf" if change == float("inf") \
            else f"{100 * change:>+8.1f}%"
        mark = ""
        if d.regressed:
            mark = "  << REGRESSION"
        elif d.watched:
            mark = "  (watched)"
        lines.append(
            f"{d.name:<36}{d.before:>14.6g}{d.after:>14.6g}"
            f"{change_s:>10}{mark}"
        )
    n_reg = len(result.regressions)
    lines.append("-" * 74)
    lines.append(
        f"{n_reg} watched metric(s) regressed beyond "
        f"{100 * result.threshold:.0f}% or went missing"
        if n_reg else
        f"no watched metric regressed beyond {100 * result.threshold:.0f}%"
    )
    return "\n".join(lines)
