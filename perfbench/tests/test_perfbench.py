"""Tests of the benchmark itself, on the tiny smoke sizes.

    python -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(REPO / "src"))

from run import Runner, output_digest  # noqa: E402
from spans import summarize  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text())


def _run(*args, cwd=REPO):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _smoke(workload, trace, seed=0):
    proc = _run("--workload", workload, "--seed", str(seed), "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert "setup_s" in names
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def test_per_layer_names_are_all_produced():
    produced = summarize([], 1.0)
    names = set(produced["times"]) | set(produced["counters"]) | {"trace.overhead_s"}
    assert {m["name"] for m in SPEC["per_layer"]} <= names


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_end_to_end(workload):
    result = _smoke(workload, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_traced(workload):
    result = _smoke(workload, trace=1)
    assert result["correct"] and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["system_zoo.pairwise_dist.calls"] > 0
    assert metrics["simplex.solve_lp.calls"] == 2 * metrics["simplex.solve_matrix_game.calls"]
    lp_split = metrics["simplex.solve_lp.primal_s"] + metrics["simplex.solve_lp.dual_s"]
    assert lp_split == pytest.approx(metrics["simplex.solve_lp.self_s"])
    if workload == "bowen-shift":
        assert metrics["variational.bowen_root.iterations"] > 2


def test_seeded_workload_follows_the_seed():
    grid = WORKLOADS["estimate-grid"]
    assert grid.config(1, False) == grid.config(1, False)
    assert grid.config(1, False)["sample"] != grid.config(2, False)["sample"]
    assert _smoke("estimate-grid", trace=0, seed=5)["correct"]


def test_summarize_self_time_and_counters():
    spans = [
        ["variational.maxmin_variational", 0.0, 10.0, -1, None],
        ["simplex.solve_matrix_game", 1.0, 9.0, 0, None],
        ["simplex.solve_lp", 2.0, 3.0, 1, {"cells": 12}],
        ["simplex.solve_lp", 3.0, 7.0, 1, {"cells": 30}],
        ["orbit_engine.bowen_matrix", 7.0, 7.5, 1, {"key": [1, 2], "size": 4}],
        ["orbit_engine.bowen_matrix", 7.5, 7.6, 1, {"key": [1, 2], "size": 4}],
    ]
    out = summarize(spans, 12.0)
    t, c = out["times"], out["counters"]
    assert t["variational.maxmin_variational.self_s"] == pytest.approx(2.0)
    assert t["simplex.solve_matrix_game.self_s"] == pytest.approx(2.4)
    assert (t["simplex.solve_lp.primal_s"], t["simplex.solve_lp.dual_s"]) == (1.0, 4.0)
    assert t["cli.self_s"] == pytest.approx(2.0)
    assert c["simplex.solve_lp.cells"] == 42
    assert c["orbit_engine.bowen_matrix.calls"] == 2
    assert c["orbit_engine.bowen_matrix.distinct"] == 1
    assert c["orbit_engine.bowen_matrix.bytes"] == 8 * 4 * 4


def test_gate_and_hash_reject_wrong_results(tmp_path):
    from meandim.cli import main

    workload = WORKLOADS["estimate-shift"]
    cfg = workload.config(0, True)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["estimate", str(cfg_path), "--out", str(out)]) == 0
    assert workload.gate(cfg, str(out)) == []

    work = tmp_path / "work"
    work.mkdir()
    assert Runner(REPO, work, workload, cfg, output_digest(out)).check(out) == []
    assert Runner(REPO, work, workload, cfg, "0" * 64).check(out)

    runs = out / "runs.csv"
    lines = runs.read_text().splitlines()
    fields = lines[2].split(",")
    fields[-6] = repr(float(fields[-6]) + 1e-6)  # log_P_lower of the first row
    runs.write_text("\n".join(lines[:2] + [",".join(fields)] + lines[3:]) + "\n")
    assert len(workload.gate(cfg, str(out))) == 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "estimate-shift", "--seed", "0", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
