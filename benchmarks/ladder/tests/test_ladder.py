"""The ladder end to end at ``--quick`` size, and its failure paths."""

import json
import os
import subprocess
import sys

import pytest

LADDER = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(os.path.dirname(LADDER))
sys.path.insert(0, LADDER)
sys.path.insert(0, os.path.join(ROOT, "src"))

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run_quick(*extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(LADDER, "run.py"), "--quick", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("workload, trace, declared", [
    ("spd3d_read", "0", "end_to_end"),
    ("circuit_lu_mixed", "1", "per_layer"),
])
def test_quick_run_reports_every_declared_metric(workload, trace, declared):
    proc = run_quick("--workload", workload, "--seed", "11",
                     "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC[declared]]
    for m in SPEC[declared]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if declared == "end_to_end":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        # exact counts and the closure property hold at any size
        value = {k: v["value"] for k, v in result["metrics"].items()}
        assert value["ordering.static_pivot_s"] > 0
        assert value["arch.cycles"] > 0 and value["tasks.n_tasks"] > 0
        for role in ("cold", "warm", "sim"):
            assert value[f"closure.unaccounted_frac.{role}"] <= 0.10
        assert value["serve.errors"] == 0
        assert os.path.exists(os.path.join(LADDER, "out", "spans.json"))


def test_declared_names_are_unique_and_workloads_match():
    import run

    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert [w["name"] for w in SPEC["workloads"]] == list(run.LADDERS)
    assert SPEC["paths"] == ["benchmarks/ladder"]


def test_server_that_dies_is_reported_with_its_stderr(tmp_path):
    from serve_rung import Server

    server = Server(str(tmp_path))      # no repro package there
    try:
        with pytest.raises(RuntimeError, match="No module named"):
            server.connect()
    finally:
        server.stop(None)
    assert server.proc.returncode is not None
    assert not os.path.exists(server.dir)
