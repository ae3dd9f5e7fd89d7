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
here on every workload, so a change of result bytes fails the tests too.
These checks load the files without changing them.
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

import pytest

from meandim.cli import main
from meandim.config import load_config
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
ENTRY_POINTS = _load("spans").ENTRY_POINTS
RUN = _load_run()
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())


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
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    run = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120,
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
