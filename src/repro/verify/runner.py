"""Seeded, time-budgeted differential-fuzzing campaigns.

:func:`run_verification` drives the whole subsystem: draw cases from the
deterministic :func:`~repro.verify.generators.case_stream`, run each
through the configuration sweep of
:mod:`repro.verify.differential`, shrink any failure to a minimal
replayable JSON repro, and account for everything in the global metrics
registry (``verify.*``) so a campaign leaves a
:class:`~repro.obs.artifact.RunArtifact` like every other pipeline run.

The campaign is deterministic given ``(seed, max_n)``; the time budget
only decides *how far* into the deterministic case sequence the run
gets, never *which* cases it sees.

With ``jobs > 1`` the (independent) cases fan out across a
``multiprocessing`` pool.  A worker hands back, with each case result,
the case's wall time, its pid and the counter increments it made; the
parent records one ``verify.case`` span per case into its own telemetry
stream and adds the counters to its registry, so the run has one stream
and one registry whatever ``jobs`` is.  Results are consumed in
submission order (``imap``), keeping the summary deterministic for a
fixed case count.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import NamedTuple

from repro.obs import Span, disable_tracing, telemetry
from repro.obs.artifact import RunArtifact
from repro.obs.metrics import Counter, MetricsRegistry, global_registry
from repro.verify.differential import CaseResult, SweepAxes, run_case
from repro.verify.generators import case_stream
from repro.verify.shrink import Repro, failure_predicate, shrink_matrix

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class VerifyConfig:
    """Campaign parameters (all deterministic knobs)."""

    seed: int = 0
    budget_seconds: float = 60.0
    max_cases: int | None = None
    max_n: int = 48
    out_dir: str = "repros"
    shrink: bool = True
    shrink_seconds: float = 20.0
    axes: SweepAxes = field(default_factory=SweepAxes)
    jobs: int = 1

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if self.max_cases is not None and self.max_cases < 1:
            raise ValueError(
                f"max_cases must be >= 1, got {self.max_cases}")


@dataclass
class VerifySummary:
    """What a campaign did and found."""

    seed: int
    cases: int = 0
    checks: int = 0
    rejected: int = 0
    failures: int = 0
    seconds: float = 0.0
    families: dict[str, int] = field(default_factory=dict)
    mismatches: list[dict] = field(default_factory=list)
    repro_paths: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def to_dict(self) -> dict:
        return {
            "seed": self.seed, "cases": self.cases, "checks": self.checks,
            "rejected": self.rejected, "failures": self.failures,
            "seconds": round(self.seconds, 3), "families": self.families,
            "mismatches": self.mismatches,
            "repro_paths": self.repro_paths,
        }

    def render(self) -> str:
        lines = [
            f"verify: {self.cases} cases, {self.checks} checks, "
            f"{self.failures} mismatching case(s), "
            f"{self.rejected} consistently-rejected, "
            f"{self.seconds:.1f}s (seed {self.seed})"
        ]
        for family in sorted(self.families):
            lines.append(f"  {family:<24}{self.families[family]:>4}")
        for m in self.mismatches:
            lines.append(f"  MISMATCH [{m['axis']}] {m['case']}: "
                         f"{m['detail']}")
        for path in self.repro_paths:
            lines.append(f"  repro written: {path}")
        return "\n".join(lines)


def _shrink_failure(result: CaseResult, config: VerifyConfig
                    ) -> Path | None:
    """Minimize a failing case and write its replayable JSON repro."""
    case = result.case
    axes = {m.axis for m in result.mismatches}
    try:
        shrunk = shrink_matrix(
            case.matrix,
            failure_predicate(case, match_axes=axes),
            max_seconds=config.shrink_seconds,
        )
    except ValueError:
        # The failure needs the full sweep (e.g. a sim-only or multi-
        # ordering mismatch the quick predicate can't see): keep the
        # original matrix as the repro rather than dropping the evidence.
        logger.warning("%s: failure did not reproduce under the quick "
                       "sweep; writing unshrunk repro", case.name)
        shrunk = case.matrix
    repro = Repro.from_failure(result, shrunk)
    safe = case.name.replace("[", "_").replace("]", "").replace(",", "_")
    path = Path(config.out_dir) / f"{safe}.json"
    repro.save(path)
    global_registry().histogram("verify.shrunk_n").observe(shrunk.n_rows)
    return path


class _CaseRun(NamedTuple):
    """One case as a worker hands it back to the accounting loop."""

    result: CaseResult
    start_s: float           # perf_counter at case start
    seconds: float
    pid: int
    counters: dict[str, float]   # counter increments the case made


def _counter_values(registry: MetricsRegistry) -> dict[str, float]:
    return {name: inst.value for name in registry.names()
            if isinstance(inst := registry.get(name), Counter)}


def _run_case_job(payload: tuple) -> _CaseRun:
    """Run one case (module-level, so it pickles into a pool worker)."""
    case, axes = payload
    before = _counter_values(global_registry())
    start = time.perf_counter()
    result = run_case(case, axes=axes)
    seconds = time.perf_counter() - start
    counters = {name: value - before.get(name, 0)
                for name, value in _counter_values(global_registry()).items()
                if value != before.get(name)}
    return _CaseRun(result, start, seconds, os.getpid(), counters)


def _detach_worker() -> None:
    """Pool initializer: a forked worker inherits the parent's telemetry
    sink and enabled tracer; drop both so the worker neither writes into
    the parent's open stream nor accumulates spans nobody reads."""
    telemetry.detach()
    disable_tracing()


def _account(run: _CaseRun, summary: VerifySummary,
             config: VerifyConfig) -> None:
    """Fold one case into the summary, the global registry and the
    telemetry stream.

    Always runs in the main process (both serial and pool paths), so the
    campaign artifact's ``verify.*`` metrics come from exactly one
    registry regardless of ``jobs``.
    """
    reg = global_registry()
    result = run.result
    case = result.case
    sink = telemetry.current_sink()
    if sink is not None:
        # perf_counter is a system-wide monotonic clock, so a worker's
        # start is on this process's time axis.
        sink.span(Span(name="verify.case", start_s=run.start_s,
                       duration_s=run.seconds,
                       attrs={"case": case.name, "family": case.family,
                              "n": case.matrix.n_rows, "pid": run.pid}))
    summary.cases += 1
    summary.checks += result.checks
    summary.families[case.family] = (
        summary.families.get(case.family, 0) + 1
    )
    reg.counter("verify.cases").inc()
    reg.counter("verify.checks").inc(result.checks)
    # recorded even when zero, so the watched metric exists in a clean
    # baseline for `report --diff` to compare against
    reg.counter("verify.mismatches").inc(len(result.mismatches))
    reg.counter(f"verify.family.{case.family}").inc()
    reg.histogram("verify.case_n").observe(case.matrix.n_rows)
    if result.outcome == "rejected":
        summary.rejected += 1
        reg.counter("verify.rejected").inc()
    if result.failed:
        summary.failures += 1
        summary.mismatches.extend(
            m.to_dict() for m in result.mismatches
        )
        logger.warning("mismatch in %s: %s", case.name,
                       result.mismatches[0].detail)
        if config.shrink:
            path = _shrink_failure(result, config)
            if path is not None:
                summary.repro_paths.append(str(path))


def _bounded_cases(config: VerifyConfig):
    stream = case_stream(config.seed, max_n=config.max_n)
    if config.max_cases is None:
        yield from stream
        return
    for i, case in enumerate(stream):
        if i >= config.max_cases:
            return
        yield case


def run_verification(config: VerifyConfig | None = None) -> VerifySummary:
    """Run one fuzzing campaign; see the module docstring."""
    config = config or VerifyConfig()
    summary = VerifySummary(seed=config.seed)
    reg = global_registry()
    start = time.monotonic()
    deadline = start + config.budget_seconds
    payloads = ((case, config.axes) for case in _bounded_cases(config))
    pool = None
    if config.jobs > 1:
        pool = multiprocessing.Pool(config.jobs, initializer=_detach_worker)
        runs = pool.imap(_run_case_job, payloads, chunksize=1)
    else:
        runs = map(_run_case_job, payloads)
    try:
        for run in runs:
            if pool is not None:
                for name, increment in run.counters.items():
                    reg.counter(name).inc(increment)
            _account(run, summary, config)
            if time.monotonic() >= deadline:
                break
    finally:
        if pool is not None:
            # After a budget break the case generator is still live and
            # close() would drain it; every result read is accounted.
            pool.terminate()
            pool.join()
    summary.seconds = time.monotonic() - start
    reg.counter("verify.seconds").inc(summary.seconds)
    return summary


def campaign_artifact(summary: VerifySummary,
                      config: VerifyConfig) -> RunArtifact:
    """Package a campaign as a standard run artifact."""
    cfg = asdict(config)
    cfg["axes"] = asdict(config.axes)
    report = summary.to_dict()
    # Mismatch details live in the repro files; keep the artifact scalar-
    # friendly for `repro report --diff`.
    report.pop("mismatches", None)
    report.pop("repro_paths", None)
    report.pop("families", None)
    return RunArtifact(
        matrix=f"fuzz(seed={summary.seed})", kind="verify",
        n=config.max_n, config=cfg, report=report,
        metrics=global_registry().snapshot(),
        created_at=time.strftime("%Y-%m-%dT%H:%M:%S"),
    )
