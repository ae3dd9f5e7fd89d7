"""The benchmark drives meandim through names and gates it does not own.

``perfbench/spans.py`` patches every ``ENTRY_POINTS`` pair, reads
``solve_lp``'s arguments by parameter name and wraps
``System.pairwise_dist``; a traced run crashes when one of them is
renamed or deleted.  ``perfbench/workloads.py`` checks each command's
result files with a gate that calls meandim's oracles.  These checks load
both files without changing them.
"""

import dataclasses
import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import pytest

from meandim.cli import main
from meandim.simplex import solve_lp
from meandim.system_zoo import System

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load("workloads").WORKLOADS


@pytest.mark.parametrize("module_name, attr", _load("spans").ENTRY_POINTS)
def test_entry_point_resolves(module_name, attr):
    obj = importlib.import_module(f"meandim.{module_name}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)


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
