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
``multiprocessing`` pool.  Each worker joins the active telemetry run
through the env/initializer handshake
(:func:`repro.obs.telemetry.init_worker`), emits one ``verify.case``
span per case into its own JSONL sink, and dumps its ``verify.*``
counters at exit — so a collected timeline shows true per-process
worker lanes.  Results are consumed in submission order
(``imap``), keeping the summary deterministic for a fixed case count.
"""

from __future__ import annotations

import logging
import multiprocessing
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.obs import span, telemetry
from repro.obs.artifact import RunArtifact
from repro.obs.metrics import global_registry
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


def _account(result: CaseResult, summary: VerifySummary,
             config: VerifyConfig) -> None:
    """Fold one case result into the summary + global registry.

    Always runs in the main process (both serial and pool paths), so the
    campaign artifact's ``verify.*`` metrics come from exactly one
    registry regardless of ``jobs``.
    """
    reg = global_registry()
    case = result.case
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


def _run_case_job(payload: tuple) -> CaseResult:
    """Pool worker body: run one case under a ``verify.case`` detail span.

    Module-level so it pickles under spawn; the span goes to the
    worker's own JSONL sink (no-op when the run has no telemetry).
    """
    case, axes = payload
    with span("verify.case", detail=True, case=case.name,
              family=case.family, n=case.matrix.n_rows):
        return run_case(case, axes=axes)


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
    if config.jobs > 1:
        payloads = ((case, config.axes)
                    for case in _bounded_cases(config))
        pool = multiprocessing.Pool(
            config.jobs, initializer=telemetry.init_worker)
        drained = False
        try:
            for result in pool.imap(_run_case_job, payloads, chunksize=1):
                _account(result, summary, config)
                if time.monotonic() >= deadline:
                    break
            else:
                drained = True
        finally:
            if drained:
                # Clean shutdown: workers run their atexit hooks, which
                # dump per-worker counters into the telemetry stream.
                pool.close()
            else:
                # Budget break (or error): the input generator is still
                # live and close() would drain it — kill the pool.
                pool.terminate()
            pool.join()
    else:
        for case in _bounded_cases(config):
            if summary.cases and time.monotonic() >= deadline:
                break
            result = run_case(case, axes=config.axes)
            _account(result, summary, config)
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
