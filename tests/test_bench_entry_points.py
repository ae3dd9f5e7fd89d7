"""The traced benchmark wraps meandim's entry points by name.

``perfbench/spans.py`` patches every ``ENTRY_POINTS`` pair, reads
``solve_lp``'s arguments by parameter name and wraps
``System.pairwise_dist``; a traced run crashes when one of them is
renamed or deleted.  These checks read spans.py without changing it.
"""

import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from meandim.simplex import solve_lp
from meandim.system_zoo import System

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module_name, attr", _spans().ENTRY_POINTS)
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
