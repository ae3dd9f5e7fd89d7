"""The benchmark drives meandim through names and gates it does not own.

``perfbench/spans.py`` patches every ``ENTRY_POINTS`` pair, reads
``solve_lp``'s arguments by parameter name and wraps
``System.pairwise_dist``; a traced run crashes when one of them is
renamed or deleted.  ``perfbench/workloads.py`` checks each command's
result files with a gate that calls meandim's oracles.  ``spans.install``
runs ``import meandim.cli`` and then reads each entry point's module from
``sys.modules``, so those modules must stay imported at the top of
``cli``.  ``perfbench/run.py`` hashes each command's result files and
compares the hash with ``perfbench/reference.json``; the same check runs
here on every workload, so a change of result bytes fails the tests too,
and so does a command child (``python -m meandim.cli``) whose hash differs
or a traced run (``perfbench/child.py trace``) whose hash or exact counters
differ.  These checks load the files without changing them.
"""

import dataclasses
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from meandim import cli
from meandim.cli import main
from meandim.config import load_config
from meandim.mmdim import estimate_mmdim
from meandim.orbit_engine import OrbitTable
from meandim.simplex import solve_lp
from meandim.system_zoo import System

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_run():
    # run.py imports spans and workloads as top-level modules of its directory
    sys.path.insert(0, str(PERFBENCH))
    try:
        return _load("run")
    finally:
        sys.path.remove(str(PERFBENCH))


WORKLOADS = _load("workloads").WORKLOADS
SPANS = _load("spans")
ENTRY_POINTS = SPANS.ENTRY_POINTS
RUN = _load_run()
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())
# a child process imports meandim from this checkout's src
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))


@pytest.mark.parametrize("module_name, attr", ENTRY_POINTS)
def test_entry_point_resolves(module_name, attr):
    obj = importlib.import_module(f"meandim.{module_name}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)


def test_cli_import_loads_every_entry_point_module():
    # a fresh interpreter: this process has already imported every module
    modules = sorted({f"meandim.{module_name}" for module_name, _ in ENTRY_POINTS})
    probe = "import json, sys; import meandim.cli; print(json.dumps(sorted(sys.modules)))"
    run = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=CHILD_ENV, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    loaded = set(json.loads(run.stdout))
    assert [m for m in modules if m not in loaded] == []


def test_solve_lp_parameter_names():
    names = list(inspect.signature(solve_lp).parameters)
    assert names[:5] == ["c", "a_ub", "b_ub", "a_eq", "b_eq"]


def test_system_has_pairwise_dist():
    field = {f.name: f for f in dataclasses.fields(System)}["pairwise_dist"]
    assert field.default is dataclasses.MISSING


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_workload_passes_its_gate(tmp_path, name):
    workload = WORKLOADS[name]
    cfg = workload.config(0, True)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main([workload.command, str(path), "--out", str(out)]) == 0
    assert workload.gate(cfg, str(out)) == []


@pytest.mark.parametrize("size", ["full", "smoke"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_results_hash_to_the_reference(tmp_path, name, size):
    workload = WORKLOADS[name]
    cfg = workload.config(RUN.DEFAULT_SEED, size == "smoke")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main([workload.command, str(path), "--out", str(out)]) == 0
    assert RUN.output_digest(out) == REFERENCE[size][name]
    # the gate the benchmark applies at this size, oracle names included
    assert workload.gate(cfg, str(out)) == []


@pytest.mark.parametrize("smoke", [False, True], ids=["full", "smoke"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_configs_pass_load_config(tmp_path, name, smoke):
    # a rejected full-size config would fail every benchmark run
    cfg = WORKLOADS[name].config(0, smoke)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    filled = load_config(str(path))
    assert [filled[key] for key in ("system", "eps_list", "n_range")] == [
        cfg[key] for key in ("system", "eps_list", "n_range")
    ]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_smoke_run_matches_the_reference(tmp_path, name):
    # the benchmark's two children as run.py starts them: the command child
    # whose wall_s it reports (the process entry) and the traced child
    # (main(argv)); each run hashes to the reference, and the traced
    # child's exact counters repeat run to run
    workload = WORKLOADS[name]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(workload.config(RUN.DEFAULT_SEED, True)))
    out = tmp_path / "command"
    proc = subprocess.run(
        [sys.executable, "-m", "meandim.cli", workload.command, str(path), "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, env=CHILD_ENV, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert RUN.output_digest(out) == REFERENCE["smoke"][name]
    counters = []
    for run in range(2):
        spans, out = tmp_path / f"spans{run}.json", tmp_path / f"out{run}"
        proc = subprocess.run(
            [sys.executable, str(PERFBENCH / "child.py"), "trace", str(spans), workload.command, str(path), str(out)],
            cwd=ROOT, capture_output=True, text=True, env=CHILD_ENV, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert RUN.output_digest(out) == REFERENCE["smoke"][name]
        counters.append(SPANS.summarize(json.loads(spans.read_text()), 0.0)["counters"])
    assert counters[0] == counters[1]


def _checked(tmp_path, workload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(workload.config(RUN.DEFAULT_SEED, True)))
    return load_config(str(path))


@pytest.mark.parametrize("name", ["bowen-shift", "variational-shift"])
def test_bisection_builds_each_greedy_net_once_per_table(tmp_path, monkeypatch, name):
    # every bisection step s > 0 orders -s f by f's sums, so greedy_net runs
    # once per (order, n, eps) and once per half-eps net size, plus the
    # s = 0 step, whose 0 * f orders by itself and is not registered
    cfg = _checked(tmp_path, WORKLOADS[name])
    tables, calls = [], []
    build, greedy_net = cli.build_table, OrbitTable.greedy_net
    monkeypatch.setattr(cli, "build_table", lambda *args: tables.append(build(*args)) or tables[-1])
    monkeypatch.setattr(OrbitTable, "greedy_net", lambda self, *args: calls.append(args) or greedy_net(self, *args))
    code, _ = cli.COMMANDS[WORKLOADS[name].command](cfg)
    assert code == 0
    [t] = tables
    n_count, eps_count = len(set(cfg["n_range"])), len(cfg["eps_list"])
    orders = {key[:2] for key in t._witnesses}
    assert len(calls) <= (n_count + 1) * eps_count * len(orders) + n_count * eps_count
    # the memo's stated bound, and only registered bases in it
    assert all(base in t._birkhoff for base, _, _, _ in t._witnesses)
    assert len(t._witnesses) <= 2 * len(t._birkhoff) * n_count * eps_count
    assert len(t._net_sizes) <= eps_count


def test_estimate_results_hold_the_memo_witnesses(tmp_path):
    # the memo keeps no second copy of a witness: each entry is the
    # read-only array a result holds, one per cell
    cfg = _checked(tmp_path, WORKLOADS["estimate-grid"])
    _, potential, t = cli._prepare(cfg)
    est = estimate_mmdim(t, potential, cfg["eps_list"], cfg["n_range"])
    cells = [p for row in est.pressures for p in row]
    assert len(cells) == len(t._witnesses) == len(set(cfg["n_range"])) * len(cfg["eps_list"])
    assert all(t._witnesses[potential, 1.0, p.n, p.eps] is p.witness for p in cells)
    assert all(p.witness.dtype == np.intp and not p.witness.flags.writeable for p in cells)
