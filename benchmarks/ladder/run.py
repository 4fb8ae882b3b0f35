"""The benchmark ladder: cold solve, warm step, served request, simulate.

    python3 benchmarks/ladder/run.py                      # every workload
    python3 benchmarks/ladder/run.py --workload spd3d_read --seed 7 \\
        --seconds 50 --trace 0                            # what the driver runs
    python3 benchmarks/ladder/run.py --trace 1            # per-layer pass
    python3 benchmarks/ladder/run.py --repeat-check       # run-to-run check
    python3 benchmarks/ladder/run.py --quick              # 1 repetition

A workload is a ladder of four rungs (README.md); each rung runs in a
fresh child process with one BLAS thread.  For each workload this prints
every metric by name with its unit, then one JSON line with ``correct``,
``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time

LADDER_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(LADDER_DIR))
OUT_DIR = os.path.join(LADDER_DIR, "out")

#: workload -> its rungs, in run order.
LADDERS = {
    "spd3d_read": ("cold_spd3d", "warm_spd3d", "serve_read", "sim_spd3d"),
    "circuit_lu_mixed": ("cold_circuit_lu", "warm_circuit_lu",
                         "serve_mixed", "sim_circuit_lu"),
}

BLAS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}

#: Layer metrics that repeat exactly for a fixed seed.
EXACT_METRICS = ("ordering.fill_ratio", "ordering.flops",
                 "symbolic.n_supernodes", "symbolic.factor_nnz",
                 "tasks.n_tasks", "arch.cycles", "arch.utilization",
                 "arch.achieved_tflops")

#: One workload run must end within the driver's 180 s.
RUN_DEADLINE_S = 170.0


class RungFailed(RuntimeError):
    pass


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_rung(rung: str, seed: int, scale: float, trace: int,
             deadline: float) -> dict:
    """One rung in a fresh process group, killed whole on timeout so a
    server grandchild can never outlive it."""
    cmd = [sys.executable, os.path.join(LADDER_DIR, "rung.py"), rung,
           "--seed", str(seed), "--scale", repr(scale),
           "--trace", str(trace)]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=dict(os.environ, **BLAS_ENV),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        stdout, stderr = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RungFailed(f"{rung}: timed out") from None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0:
        raise RungFailed(f"{rung}: exit {proc.returncode}\n"
                         f"{stderr[-3000:]}")
    return json.loads(stdout.splitlines()[-1])


def run_workload(workload: str, seed: int, scale: float, trace: int
                 ) -> dict:
    """Run the workload's rungs and merge them into one result."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    rungs = {rung: run_rung(rung, seed, scale, trace, deadline)
             for rung in LADDERS[workload]}
    values: dict[str, float] = {}
    summaries: dict[str, dict] = {}
    if trace:
        for rung, result in rungs.items():
            role = rung.split("_")[0]
            for name, value in result["layers"].items():
                # the one layer metric every rung feeds
                values[name] = max(value, values.get(name, 0.0)) \
                    if name == "numeric.residual_max" else value
            values[f"setup_s.{role}"] = result["setup_s"]
            values[f"rss_mb.{role}"] = result["rss_mb"]
    else:
        values["setup_s"] = sum(r["setup_s"] for r in rungs.values())
        values["peak_rss_mb"] = max(r["rss_mb"] for r in rungs.values())
        for result in rungs.values():
            for name, summary in result["e2e"].items():
                # Gated value: the lower quartile (README, "Which
                # statistic"); the serve rung names its own (p10).
                values[name] = summary.get("value", summary["q1"])
                summaries[name] = summary
    return {
        "workload": workload,
        "values": values,
        "summaries": summaries,
        "attempted": sum(r["attempted"] for r in rungs.values()),
        "failed": sum(r["failed"] for r in rungs.values()),
        "reasons": [f"{rung}: {why}" for rung, r in rungs.items()
                    for why in r["reasons"]],
        "per_rung": {rung: (r["attempted"], r["failed"])
                     for rung, r in rungs.items()},
        "spans": {rung: r["spans"] for rung, r in rungs.items()},
        "numpy": next(iter(rungs.values()))["numpy"],
    }


def result_line(result: dict, declared: list[dict]) -> str:
    """The contract's last line; fails loudly if a declared metric was
    not measured (the declaration and the code have drifted)."""
    missing = [m["name"] for m in declared
               if m["name"] not in result["values"]]
    if missing:
        raise RungFailed(f"{result['workload']}: declared but not "
                         f"measured: {missing}")
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": result["values"][m["name"]],
                                "unit": m["unit"]} for m in declared},
    })


def print_result(result: dict, declared: list[dict]) -> None:
    print(f"\n== {result['workload']}: attempted {result['attempted']}, "
          f"failed {result['failed']}  ("
          + ", ".join(f"{rung} {a}/{f}" for rung, (a, f)
                      in result["per_rung"].items()) + ")")
    for why in result["reasons"]:
        print(f"   FAILED {why}")
    for m in declared:
        value = result["values"][m["name"]]
        line = f"  {m['name']:<32}{value:>16.6g} {m['unit']:<8}"
        summary = result["summaries"].get(m["name"], {})
        if summary:
            line += (f" median {summary['median']:.6g}  q1 "
                     f"{summary['q1']:.6g}  q3 {summary['q3']:.6g}"
                     f"  n {summary['n']}")
            if summary["tail"] is not None:
                line += f"  p{summary['tail_pct']:g} {summary['tail']:.6g}"
        print(line)
    v = result["values"]
    if "serve.p50_ms" in v:
        parts = ("serve.wire_ms_p50", "serve.queue_wait_ms_p50",
                 "serve.coalesce_wait_ms_p50", "serve.solve_ms_p50")
        print("  serve closure: " + " + ".join(f"{v[p]:.3f}" for p in parts)
              + f" = {sum(v[p] for p in parts):.3f} ms beside "
              f"serve.p50_ms {v['serve.p50_ms']:.3f} ms, "
              f"difference {v['serve.closure_diff_ms']:.3f} ms")


def environment(numpy_version: str) -> str:
    try:
        sha = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        sha = ""
    return (f"git {sha or 'n/a'}, nproc {os.cpu_count()}, BLAS threads "
            f"{BLAS_ENV['OMP_NUM_THREADS']} (OMP/OPENBLAS/MKL), Python "
            f"{platform.python_version()}, NumPy {numpy_version}")


def repeat_check(first: list[dict], second: list[dict], spec: dict,
                 trace: int) -> bool:
    """Two runs of the same tree must agree: end-to-end medians within
    each metric's bound, exact counts exactly."""
    stable = True
    print(f"\n{'workload':<18}{'metric':<26}{'first':>14}{'second':>14}"
          f"{'ratio':>8}{'bound':>7}")
    for a, b in zip(first, second):
        if trace:
            metrics = [(m, 0.0) for m in spec["per_layer"]
                       if m["name"] in EXACT_METRICS]
        else:
            metrics = [(m, m["bound"]) for m in spec["end_to_end"]]
        for m, bound in metrics:
            x, y = a["values"][m["name"]], b["values"][m["name"]]
            ratio = max(x, y) / min(x, y) if min(x, y) > 0 else 1.0
            ok = ratio - 1.0 <= bound
            stable &= ok
            print(f"{a['workload']:<18}{m['name']:<26}{x:>14.6g}"
                  f"{y:>14.6g}{ratio:>8.3f}{bound:>7.2f}  "
                  f"{'ok' if ok else 'unstable'}")
    return stable


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", action="append", choices=LADDERS,
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--seed", type=int, default=2023)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time of one workload run "
                             "(default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced pass (per-layer metrics)")
    parser.add_argument("--traced", dest="trace", action="store_const",
                        const=1, help="same as --trace 1")
    parser.add_argument("--quick", action="store_true",
                        help="one repetition of everything; timings "
                             "mean nothing")
    parser.add_argument("--repeat-check", action="store_true",
                        help="run twice and compare; exit 1 if any "
                             "metric is outside its bound")
    args = parser.parse_args()

    spec = load_spec()
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    # Repetition counts are nominal at run_seconds and scale with it.
    scale = 0.0 if args.quick else seconds / spec["run_seconds"]
    workloads = args.workload or list(LADDERS)

    passes = []
    try:
        for _ in range(2 if args.repeat_check else 1):
            passes.append([run_workload(w, args.seed, scale, args.trace)
                           for w in workloads])
    except RungFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(f"ladder: seed {args.seed}, scale {scale:g}, trace {args.trace}; "
          + environment(passes[0][0]["numpy"]))
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        with open(os.path.join(OUT_DIR, "spans.json"), "w") as f:
            json.dump({r["workload"]: r["spans"] for r in passes[-1]}, f)
    try:
        lines = [result_line(result, declared) for result in passes[-1]]
    except RungFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    status = 0
    if args.repeat_check and not repeat_check(*passes, spec, args.trace):
        status = 1
    for result in passes[-1]:
        print_result(result, declared)
    print("\n".join(lines))
    return status


if __name__ == "__main__":
    sys.exit(main())
