import csv
import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from meandim import cli, config
from meandim import system_zoo as zoo
from meandim.cli import main
from meandim.config import ConfigError, build_sample, build_system, load_config, validate_config
from meandim.mmdim import check_properties
from meandim.oracle import lattice_log_pressure
from meandim.orbit_engine import build_table
from meandim.variational import BracketError, bowen_root

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _run_cli(command, path, out):
    """One CLI run in a fresh interpreter, as a user starts it."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "meandim.cli", command, path, "--out", out],
        capture_output=True, text=True, env=env, timeout=120,
    )


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=1))
    return str(path)


BASE = {
    "system": {"kind": "one_point"},
    "potential": {"kind": "constant", "params": {"value": 0.7}},
    "sample": {"exhaustive": True},
    "eps_list": [0.5, 0.25, 0.125],
    "n_range": [1, 2, 3],
}


def test_load_rejects_bad_json_with_line(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"system": {,}\n}')
    with pytest.raises(ConfigError, match="line"):
        load_config(str(path))


def test_load_rejects_missing_keys(tmp_path):
    with pytest.raises(ConfigError, match="eps_list"):
        load_config(_write(tmp_path, "c.json", {"system": {"kind": "one_point"}}))


def test_load_rejects_bad_eps(tmp_path):
    cfg = dict(BASE, eps_list=[0.5, 0.5, 0.25])
    with pytest.raises(ConfigError, match="decreasing"):
        load_config(_write(tmp_path, "c.json", cfg))


def test_eps_of_one_float_log_scale_exits_2(tmp_path, capsys):
    # three decreasing doubles with one float log(1/eps) leave the slope fit
    # no spread: estimate stops at the config, before the output directory
    tiny = [1e-300, math.nextafter(1e-300, 0.0), math.nextafter(math.nextafter(1e-300, 0.0), 0.0)]
    cfg = dict(BASE, system={"kind": "full_shift", "m": 2, "L": 6},
               potential={"kind": "constant", "params": {"value": 0.0}}, eps_list=tiny)
    out = tmp_path / "o"
    assert main(["estimate", _write(tmp_path, "c.json", cfg), "--out", str(out)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("config error: config key eps_list: must be ")
    assert not out.exists()


def test_unknown_system_kind(tmp_path):
    cfg = dict(BASE, system={"kind": "torus"})
    path = _write(tmp_path, "c.json", cfg)
    assert main(["estimate", path, "--out", str(tmp_path / "o")]) == 2


def test_unknown_tolerance_key(tmp_path):
    cfg = dict(BASE, tolerances={"tau_a": 0.05, "solver_gap": 1e-9})
    path = _write(tmp_path, "c.json", cfg)
    with pytest.raises(ConfigError, match="tolerances.solver_gap"):
        load_config(path)
    assert main(["estimate", path, "--out", str(tmp_path / "o")]) == 2
    assert not os.path.exists(tmp_path / "o")


def test_build_sample_paths():
    spec = {"kind": "full_shift", "m": 2, "L": 4}
    system = build_system(spec)
    pts = build_sample({"system": spec, "sample": {"exhaustive": True}}, system)
    assert len(pts) == 16
    pts2 = build_sample({"sample": {"count": 7, "seed": 3}}, system)
    assert len(pts2) == 7
    assert np.array_equal(pts2, build_sample({"sample": {"count": 7, "seed": 3}}, system))


def test_exhaustive_cap(tmp_path, capsys):
    # at L = 10^6 the check must not build the 10^6-bit power m^L
    for L in (20, 10**6):
        cfg = dict(BASE, system={"kind": "full_shift", "m": 2, "L": L})
        with pytest.raises(ConfigError, match=rf"sample: exhaustive full shift too large \(2\^{L}\)"):
            validate_config(cfg)
    # 2^13 words is the cap itself
    validate_config(dict(BASE, system={"kind": "full_shift", "m": 2, "L": 13}))
    # a grid shift is never exhaustive; both rules exit 2 before the build
    for system, message in [({"kind": "full_shift", "m": 3, "L": 9}, "exhaustive full shift too large (3^9)"),
                            ({"kind": "grid_shift", "D": 1, "m": 3, "L": 5},
                             "exhaustive sampling needs a finite or full-shift system")]:
        path = _write(tmp_path, "c.json", dict(BASE, system=system))
        assert main(["estimate", path, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"config error: config key sample: {message}\n"
        assert not os.path.exists(tmp_path / "o")


def test_variational_holds_a_sample_to_the_exhaustive_cap(tmp_path, monkeypatch, capsys):
    # variational's equilibrium candidates are quadratic in N, so a sample
    # above EXHAUSTIVE_CAP exits 2 before any table; estimate and bowen
    # take the same config on to the build
    class Built(Exception):
        pass

    def build(*args):
        raise Built

    monkeypatch.setattr(cli, "build_table", build)
    count = config.EXHAUSTIVE_CAP + 1
    cfg = dict(BASE, system={"kind": "full_shift", "m": 2, "L": 5}, sample={"count": count, "seed": 0})
    path = _write(tmp_path, "big.json", cfg)
    assert main(["variational", path, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (f"config error: config key sample.count: variational takes "
                                       f"at most {config.EXHAUSTIVE_CAP} points, got {count}\n")
    assert not os.path.exists(tmp_path / "o")
    for command in ("estimate", "bowen"):
        with pytest.raises(Built):
            main([command, path, "--out", str(tmp_path / "o")])
    cfg["sample"]["count"] = config.EXHAUSTIVE_CAP  # the cap itself reaches the build
    with pytest.raises(Built):
        main(["variational", _write(tmp_path, "cap.json", cfg), "--out", str(tmp_path / "o")])


def test_sampled_shift_caps_are_checked_before_the_sample(tmp_path, monkeypatch, capsys):
    # count 200000 at L = 10 holds 4e6 letter coordinates; m = 4097 levels at
    # count 2000 need m x N lattice compares of about 160 MB
    def never(count, seed):
        raise AssertionError("sampled before the budget check")

    monkeypatch.setattr(cli, "build_system", lambda spec: dataclasses.replace(build_system(spec), sample=never))
    grid = {"kind": "grid_shift", "D": 2, "m": 9, "L": 10}
    over = [
        (grid, 200000, "4000000 letter coordinates exceed the 1048576-coordinate budget of a sampled shift"),
        ({"kind": "full_shift", "m": 2, "L": 2000}, 2000,
         "4000000 letter coordinates exceed the 1048576-coordinate budget of a sampled shift"),
        ({"kind": "grid_shift", "D": 1, "m": 4097, "L": 4}, 2000,
         "2000 words of 4097 levels exceed the 4194304-cell budget of the grid's lattice rows"),
    ]
    for system, count, message in over:
        cfg = dict(BASE, system=system, sample={"count": count, "seed": 0}, n_range=[1, 2, 3])
        path = _write(tmp_path, "big.json", cfg)
        assert main(["estimate", path, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"config error: config key sample: {message}\n"
        assert not os.path.exists(tmp_path / "o")
    # at each cap the config is accepted
    for system, count in [(dict(grid, L=8), 2**16), ({"kind": "grid_shift", "D": 1, "m": 2048, "L": 4}, 2048)]:
        cfg = dict(BASE, system=system, sample={"count": count, "seed": 0}, n_range=[1, 2, 3])
        assert load_config(_write(tmp_path, "ok.json", cfg))["sample"]["count"] == count
    # the full shift's prefix kernel holds no N x N matrix: no dense budget
    shift = dict(BASE, system={"kind": "full_shift", "m": 2, "L": 12},
                 sample={"count": 10000, "seed": 0})
    assert len(build_sample(shift, build_system(shift["system"]))) == 10000


@pytest.mark.parametrize("system", [
    {"kind": "one_point"},
    {"kind": "finite", "dist_matrix": [[0, 1], [1, 0]], "map_table": [1, 0]},
    {"kind": "finite_random", "size": 12, "seed": 1},
])
def test_finite_systems_reject_a_sample_count(tmp_path, system):
    # a finite system's sample is all of its points: count and seed would
    # be accepted and never read
    cfg = dict(BASE, system=system, sample={"count": 3, "seed": 1})
    path = _write(tmp_path, "c.json", cfg)
    run = _run_cli("estimate", path, str(tmp_path / "o"))
    assert run.returncode == 2
    assert run.stderr == (
        f"config error: config key sample: a {system['kind']} system samples every point: "
        "set exhaustive, not count and seed\n"
    )
    assert not os.path.exists(tmp_path / "o")


def test_grid_sample_beyond_the_dense_budget_runs():
    # 8 * N^2 * n_max bytes of d_n matrices would be 12.8 GB; the lattice
    # kernel holds letters and packed bit rows only
    cfg = dict(BASE, system={"kind": "grid_shift", "D": 2, "m": 9, "L": 10},
               sample={"count": 20000, "seed": 0}, n_range=[1, 2, 3, 4])
    system = build_system(cfg["system"])
    pts = build_sample(cfg, system)
    assert len(pts) == 20000
    t = build_table(system, pts, 4)
    kept = t.greedy_net(np.arange(t.size), 1, 0.2)
    assert 0 < len(kept) <= round(math.exp(lattice_log_pressure(9, 9, 2, 1, 0.2, np.zeros(9), L=10)))
    assert t.is_separated(kept, 1, 0.2) and t.spans(kept, 1, 0.2)


def test_verify_grid_at_a_tie_eps(tmp_path):
    # 0.2 * (m-1) = 2 is a tie of the float fold: the subset oracle must
    # judge pairs by the same exact rule as the greedy witnesses it checks
    cfg = dict(BASE, system={"kind": "grid_shift", "D": 1, "m": 11, "L": 5},
               potential={"kind": "first_coord", "params": {}},
               sample={"count": 14, "seed": 0},
               verify={"seed": 1, "draws": 2, "n": 1, "eps": 0.2})
    path = _write(tmp_path, "c.json", cfg)
    assert main(["verify", path, "--out", str(tmp_path / "v")]) == 0
    assert json.loads((tmp_path / "v" / "report.json").read_text())["ok"]


@pytest.mark.parametrize("eps", [1.5, 0, 1, "0.3"])
def test_verify_eps_outside_unit_interval_exits_2(tmp_path, eps):
    cfg = dict(BASE, verify={"eps": eps})
    path = _write(tmp_path, "c.json", cfg)
    with pytest.raises(ConfigError, match="verify.eps"):
        load_config(path)
    assert main(["verify", path, "--out", str(tmp_path / "o")]) == 2
    assert not os.path.exists(tmp_path / "o")


@pytest.mark.parametrize("n", [0, 5, 2.0, True, "2"])
def test_verify_n_outside_n_range_exits_2(tmp_path, n):
    # n = 5 beyond max(n_range) = 3 used to end in an IndexError traceback
    cfg = dict(BASE, system={"kind": "finite_random", "size": 5, "seed": 19},
               verify={"n": n})
    path = _write(tmp_path, "c.json", cfg)
    with pytest.raises(ConfigError, match=r"verify\.n: must be an int in \[1, 3\]"):
        load_config(path)
    assert main(["verify", path, "--out", str(tmp_path / "o")]) == 2
    assert not os.path.exists(tmp_path / "o")
    load_config(_write(tmp_path, "ok.json", dict(cfg, verify={"n": 3})))


@pytest.mark.parametrize(
    "key,verify",
    [
        ("verify.draws", {"draws": "x"}),
        ("verify.draws", {"draws": 0}),
        ("verify.draws", {"draws": 2.5}),
        ("verify.draws", {"draws": True}),
        ("verify.seed", {"seed": "x"}),
        ("verify.seed", {"seed": 1.5}),
        ("verify.seed", {"seed": False}),
        ("verify.seed", {"seed": -1}),
    ],
)
def test_verify_seed_and_draws_exit_2(tmp_path, key, verify):
    # "draws": "x" used to end in a ValueError traceback, and 0 draws in an
    # empty report with ok = true
    path = _write(tmp_path, "c.json", dict(BASE, verify=verify))
    with pytest.raises(ConfigError, match=f"config key {key}:"):
        load_config(path)
    assert main(["verify", path, "--out", str(tmp_path / "o")]) == 2
    assert not os.path.exists(tmp_path / "o")


SHIFT6 = {"kind": "full_shift", "m": 2, "L": 6}
FINITE5 = {"kind": "finite_random", "size": 5, "seed": 3}


def _constant(value):
    return {"kind": "constant", "params": {"value": value}}


@pytest.mark.parametrize(
    "key,extra",
    [
        ("sample.count", {"system": SHIFT6, "sample": {"count": 0, "seed": 1}}),
        ("sample.count", {"system": SHIFT6, "sample": {"count": -3, "seed": 1}}),
        ("sample.count", {"system": SHIFT6, "sample": {"count": 4.0, "seed": 1}}),
        ("sample.count", {"system": SHIFT6, "sample": {"count": True, "seed": 1}}),
        ("sample.seed", {"system": SHIFT6, "sample": {"count": 4, "seed": "1"}}),
        ("sample.seed", {"system": SHIFT6, "sample": {"count": 4, "seed": 1.5}}),
        ("system.size", {"system": {"kind": "finite_random", "size": 0, "seed": 1}}),
        ("system.size", {"system": {"kind": "finite_random", "size": -3, "seed": 1}}),
        ("system.size", {"system": {"kind": "finite_random", "size": "5", "seed": 1}}),
        ("n_range", {"n_range": [1, 2, 3.5]}),
        ("n_range", {"n_range": [1, 2, "3"]}),
        ("eps_list", {"eps_list": [0.5, "a", 0.1]}),
        ("sample.exhaustive", {"sample": {"exhaustive": False}}),
        ("sample", {"system": SHIFT6, "sample": {"exhaustive": True, "count": 4}}),
        ("sample", {"system": SHIFT6, "sample": {"exhaustive": True, "seed": 4}}),
        ("sample", {"sample": 5}),
        ("dictionary", {"dictionary": []}),
        ("verify", {"verify": 3}),
        ("tolerances", {"tolerances": []}),
        ("bowen", {"bowen": 1}),
        ("system", {"system": 3}),
        ("potential.params.scale", {"potential": {"kind": "constant", "params": {"value": 1, "scale": 2}}}),
        ("potential.seed", {"potential": {"kind": "constant", "params": {"value": 1}, "seed": 2}}),
        ("system.D", {"system": dict(SHIFT6, D=3)}),
        ("frobnicate", {"frobnicate": 1}),
        ("out", {"out": 5}),
        ("potential.params.value", {"potential": _constant(float("nan"))}),
        ("bowen.tol", {"bowen": {"tol": float("inf")}}),
        ("system.dist_matrix[1]", {"system": {"kind": "finite", "dist_matrix": [[0, 1], [float("nan"), 0]], "map_table": [1, 0]}}),
    ],
)
def test_outside_input_exits_2(tmp_path, capsys, key, extra):
    # keys outside the table and NaN used to run silently, and non-object
    # sections to end in a TypeError or AttributeError traceback
    path = _write(tmp_path, "c.json", dict(BASE, **extra))
    with pytest.raises(ConfigError, match=re.escape(f"config key {key}:")):
        load_config(path)
    assert main(["estimate", path, "--out", str(tmp_path / "o")]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"config error: config key {key}: ")
    assert not os.path.exists(tmp_path / "o")


@pytest.mark.parametrize(
    "key,extra",
    [
        ("system", {"system": {"kind": "full_shift", "m": 1, "L": 6}}),
        ("system", {"system": {"kind": "finite", "dist_matrix": [[0, 1], [2, 0]], "map_table": [1, 0]}}),
        ("potential", {"system": {"kind": "finite_random", "size": 4, "seed": 1},
                       "potential": {"kind": "first_coord", "params": {}}}),
        ("system", {"system": {"kind": "finite", "dist_matrix": [[0.5, 1], [1, 0]], "map_table": [1, 0]}}),
    ],
)
def test_constructor_errors_exit_2_without_traceback(tmp_path, key, extra):
    path = _write(tmp_path, "c.json", dict(BASE, **extra))
    proc = _run_cli("estimate", path, str(tmp_path / "o"))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith(f"config error: config key {key}: ")


@pytest.mark.parametrize(
    "key,system",
    [
        ("system.m", {"kind": "full_shift", "m": [2], "L": 6}),
        ("system.m", {"kind": "full_shift", "m": 2.5, "L": 6}),
        ("system.L", {"kind": "full_shift", "m": 2, "L": True}),
        ("system.D", {"kind": "grid_shift", "D": "1", "m": 3, "L": 6}),
        ("system.m", {"kind": "grid_shift", "D": 1, "m": 3.0, "L": 6}),
        ("system.seed", {"kind": "finite_random", "size": 5, "seed": [1]}),
        ("system.seed", {"kind": "finite_random", "size": 5, "seed": -1}),
        ("system.map_table", {"kind": "finite", "dist_matrix": [[0, 1], [1, 0]], "map_table": [[1], 0]}),
        ("system.map_table", {"kind": "finite", "dist_matrix": [[0, 1], [1, 0]], "map_table": [1.0, 0]}),
        ("system.map_table", {"kind": "finite", "dist_matrix": [[0, 1], [1, 0]], "map_table": 1}),
    ],
)
def test_system_int_params_exit_2_without_traceback(tmp_path, key, system):
    # a list used to end in int()'s TypeError, and m = 2.5 ran as m = 2
    path = _write(tmp_path, "c.json", dict(BASE, system=system))
    proc = _run_cli("estimate", path, str(tmp_path / "o"))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith(f"config error: config key {key}: ")
    assert not os.path.exists(tmp_path / "o")


@pytest.mark.parametrize(
    "key,extra",
    [
        ("potential.params.value", {"potential": _constant([1])}),
        ("potential.params.value", {"potential": _constant("0.5")}),
        ("potential.params.scale", {"system": SHIFT6, "potential": {"kind": "first_coord", "params": {"scale": [2]}}}),
        ("potential.params.offset", {"system": SHIFT6, "potential": {"kind": "first_coord", "params": {"offset": None}}}),
        ("potential.params.seed", {"system": FINITE5, "potential": {"kind": "table_random", "params": {"seed": [4]}}}),
        ("potential.params.high", {"system": FINITE5, "potential": {"kind": "table_random", "params": {"seed": 4, "high": {}}}}),
        ("potential", {"potential": {"kind": "constant", "params": [1]}}),
        ("dictionary.sources[1].params.value", {"dictionary": {"sources": [_constant(0.5), _constant([1])]}}),
    ],
)
def test_potential_params_exit_2_without_traceback(tmp_path, key, extra):
    # a list where a number belongs used to end in the constructor's TypeError
    path = _write(tmp_path, "c.json", dict(BASE, **extra))
    proc = _run_cli("variational", path, str(tmp_path / "o"))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith(f"config error: config key {key}: ")
    assert not os.path.exists(tmp_path / "o")


@pytest.mark.parametrize(
    "command,payload,start",
    [
        ("bowen", dict(BASE, potential=_constant(0.0)), "config key potential: bowen needs a positive potential"),
        ("estimate", dict(BASE, system=SHIFT6, potential={"kind": "table_random", "params": {"seed": 4}}),
         "config key potential.kind: table_random needs a finite system"),
        ("estimate", dict(BASE, system=FINITE5, sample={"count": 3, "seed": 1}), "config key sample: "),
        ("estimate", dict(BASE, system={"kind": "full_shift", "m": 1, "L": 6}), "config key system: "),
        ("estimate", [BASE], "config {path}: top level must be an object"),
        ("estimate", None, "cannot read config {path}: "),
        ("estimate", dict(BASE, system={"m": 2, "L": 6}), "config key system.kind: missing"),
        ("estimate", dict(BASE, dictionary={"sources": _constant(0.5)}),
         "config key dictionary.sources: must be a list"),
    ],
    ids=["bowen-zero-potential", "table-random-on-a-shift", "finite-count-seed", "full-shift-m1",
         "top-level-list", "missing-file", "system-without-kind", "sources-not-a-list"],
)
def test_config_errors_exit_2_in_process(tmp_path, capsys, command, payload, start):
    # each path in this process, so a line tracer over the tests sees it
    path = tmp_path / "c.json"
    if payload is not None:
        path.write_text(json.dumps(payload))
    out = tmp_path / "o"
    assert main([command, str(path), "--out", str(out)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("config error: " + start.format(path=path))
    assert not out.exists()


def test_finite_budget_is_checked_before_the_build(tmp_path, monkeypatch):
    # random_finite_system is O(N^3); at N = 5000 it would run for hours
    # before the budget rejected its sample
    def never(*args, **kwargs):
        raise AssertionError("built before the budget check")

    monkeypatch.setattr(zoo, "random_finite_system", never)
    cfg = dict(BASE, system={"kind": "finite_random", "size": 5000, "seed": 1})
    path = _write(tmp_path, "big.json", cfg)
    with pytest.raises(ConfigError, match=r"system\.size: .*budget"):
        load_config(path)
    assert main(["estimate", path, "--out", str(tmp_path / "o")]) == 2
    assert not os.path.exists(tmp_path / "o")
    # an explicit matrix is checked by its row count: 3 points need one
    # byte of packed close row each per (step, eps) table: steps k < 3 at
    # the 3 eps and step 0 at their halves, plus verify's k < verify.n at
    # its eps and eps/2
    finite = {"kind": "finite", "dist_matrix": [[0, 1, 1], [1, 0, 1], [1, 1, 0]], "map_table": [1, 2, 0]}
    for verify_n in (1, 2, 3):
        need = 3 * ((3 + 1) * 3 + 2 * verify_n)
        cfg = dict(BASE, system=finite, verify={"n": verify_n})
        monkeypatch.setattr(config, "DENSE_BYTES_CAP", need)
        load_config(_write(tmp_path, "finite.json", cfg))
        monkeypatch.setattr(config, "DENSE_BYTES_CAP", need - 1)
        with pytest.raises(ConfigError, match=r"system\.dist_matrix: .*budget"):
            load_config(_write(tmp_path, "finite.json", cfg))


@pytest.mark.parametrize("command", ["estimate", "verify", "variational", "bowen"])
def test_commands_run_on_a_400_point_finite_system(tmp_path, command):
    # the metric check, both Lipschitz constants and the step matrices read
    # whole arrays; the per-pair loops took about 30 s to build this system
    cfg = dict(
        BASE,
        system={"kind": "finite_random", "size": 400, "seed": 3},
        potential={"kind": "table_random", "params": {"seed": 5, "low": 0.1}},
        eps_list=[0.5, 0.35, 0.2],
        dictionary={"sources": [{"kind": "table_random", "params": {"seed": 2}}, _constant(0.5)]},
    )
    path = _write(tmp_path, "c.json", cfg)
    assert main([command, path, "--out", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize("command", ["estimate", "verify", "variational", "bowen"])
def test_finite_tables_stay_within_the_counted_budget(tmp_path, monkeypatch, command):
    # points 0.05 apart on a line, so every eps and eps/2 relates some pairs
    # and each (step, eps) the commands read caches one packed table
    size = 12
    dm = [[abs(i - j) / 20 for j in range(size)] for i in range(size)]
    finite = {"kind": "finite", "dist_matrix": dm, "map_table": [(3 * i + 1) % size for i in range(size)]}
    cfg = dict(
        BASE,
        system=finite,
        potential={"kind": "table_random", "params": {"seed": 5, "low": 0.1}},
        eps_list=[0.9, 0.6, 0.3],
        verify={"n": 3, "draws": 2},
        dictionary={"sources": [{"kind": "table_random", "params": {"seed": 2}}, _constant(0.5)]},
    )
    tables = []
    monkeypatch.setattr(cli, "build_table", lambda *a: tables.append(build_table(*a)) or tables[-1])
    assert main([command, _write(tmp_path, "c.json", cfg), "--out", str(tmp_path / "o")]) in (0, 3)
    (t,) = tables
    assert 0 < len(t._near) <= (3 + 1) * 3 + 2 * 3
    assert all(table.nbytes == -(-size // 8) * size for table, _ in t._near.values())


def test_finite_step_budget_is_checked_before_the_build(tmp_path, monkeypatch):
    # points * max(n_range) step entries, one_point included, are held to
    # the sampled shifts' coordinate budget
    def never(*args, **kwargs):
        raise AssertionError("built before the step budget check")

    finite = {"kind": "finite", "dist_matrix": [[0, 1, 1], [1, 0, 1], [1, 1, 0]], "map_table": [1, 2, 0]}
    monkeypatch.setattr(config, "SAMPLE_COORDS_CAP", 24)
    for system, n_max in ((finite, 8), ({"kind": "one_point"}, 24)):
        at_cap = _write(tmp_path, "cap.json", dict(BASE, system=system, n_range=[1, 2, n_max]))
        assert main(["estimate", at_cap, "--out", str(tmp_path / "cap")]) == 0
        over = _write(tmp_path, "over.json", dict(BASE, system=system, n_range=[1, 2, n_max + 1]))
        with pytest.raises(ConfigError, match=r"n_range: .* step entries exceed the 24-entry budget"):
            load_config(over)
        with monkeypatch.context() as patch:
            patch.setattr(zoo, "make_finite_system", never)
            assert main(["estimate", over, "--out", str(tmp_path / "over")]) == 2
        assert not os.path.exists(tmp_path / "over")


def test_finite_points_cap_is_checked_before_the_build(tmp_path, monkeypatch):
    # the O(N^3) build of a finite system is bounded by its point count
    def never(*args, **kwargs):
        raise AssertionError("built before the point cap check")

    monkeypatch.setattr(zoo, "random_finite_system", never)
    monkeypatch.setattr(zoo, "make_finite_system", never)
    monkeypatch.setattr(config, "FINITE_POINTS_CAP", 2)
    cfg = dict(BASE, system={"kind": "finite_random", "size": 3, "seed": 1})
    path = _write(tmp_path, "big.json", cfg)
    with pytest.raises(ConfigError, match=r"system\.size: 3 points exceed the 2-point budget"):
        load_config(path)
    assert main(["estimate", path, "--out", str(tmp_path / "o")]) == 2
    assert not os.path.exists(tmp_path / "o")
    finite = {"kind": "finite", "dist_matrix": [[0, 1, 1], [1, 0, 1], [1, 1, 0]], "map_table": [1, 2, 0]}
    with pytest.raises(ConfigError, match=r"system\.dist_matrix: 3 points exceed the 2-point budget"):
        load_config(_write(tmp_path, "finite.json", dict(BASE, system=finite)))
    # a system at the cap is accepted
    load_config(_write(tmp_path, "ok.json", dict(cfg, system={"kind": "finite_random", "size": 2, "seed": 1})))


@pytest.mark.parametrize("kind,extra", [("full_shift", {"m": 2}), ("grid_shift", {"D": 1, "m": 3})])
def test_n_range_beyond_the_horizon_exits_2(tmp_path, kind, extra):
    cfg = dict(BASE, system=dict(kind=kind, L=5, **extra), n_range=[1, 2, 9])
    path = _write(tmp_path, "c.json", cfg)
    with pytest.raises(ConfigError, match="n_range"):
        load_config(path)
    assert main(["estimate", path, "--out", str(tmp_path / "o")]) == 2
    assert not os.path.exists(tmp_path / "o")
    # n_max + 1 == L is the longest table the words hold; a grid shift is
    # sampled, never exhaustive
    sample = {"count": 8, "seed": 0} if kind == "grid_shift" else {"exhaustive": True}
    load_config(_write(tmp_path, "ok.json", dict(cfg, n_range=[1, 2, 4], sample=sample)))


def test_estimate_one_point_summary(tmp_path):
    path = _write(tmp_path, "c.json", BASE)
    out = str(tmp_path / "run")
    assert main(["estimate", path, "--out", out]) == 0
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert summary["slope"] == pytest.approx(0.7, abs=1e-12)
    assert summary["upper_proxy"] == pytest.approx(0.7, abs=1e-12)
    csv_text = (tmp_path / "run" / "runs.csv").read_text()
    assert csv_text.startswith("# meandim runs.csv schema v1")
    assert "witness_hash" in csv_text.splitlines()[1]


def test_estimate_full_shift_first_letter(tmp_path):
    cfg = {
        "system": {"kind": "full_shift", "m": 2, "L": 8},
        "potential": {"kind": "first_coord", "params": {}},
        "sample": {"exhaustive": True},
        "eps_list": [2.0**-3, 2.0**-4, 2.0**-5],
        "n_range": [1, 2, 3],
    }
    path = _write(tmp_path, "c.json", cfg)
    out = str(tmp_path / "shift")
    assert main(["estimate", path, "--out", out]) == 0
    summary = json.loads((tmp_path / "shift" / "summary.json").read_text())
    # transfer oracle: ratio at 2^-k is log(1 + 2^k) / (k log 2)
    expected = [math.log(1 + 2.0**k) / (k * math.log(2)) for k in (3, 4, 5)]
    for got, want in zip(summary["ratios"], expected):
        assert got == pytest.approx(want, abs=1e-9)


def test_verify_finite_system_passes(tmp_path):
    cfg = {
        "system": {"kind": "finite_random", "size": 5, "seed": 19},
        "potential": {"kind": "table_random", "params": {"seed": 4}},
        "sample": {"exhaustive": True},
        "eps_list": [0.5, 0.35, 0.2],
        "n_range": [1, 2, 3],
        "verify": {"seed": 3, "draws": 8, "n": 2, "eps": 0.35},
    }
    path = _write(tmp_path, "c.json", cfg)
    out = str(tmp_path / "verify")
    assert main(["verify", path, "--out", out]) == 0
    report = json.loads((tmp_path / "verify" / "report.json").read_text())
    assert report["ok"] and report["failures"] == []


@pytest.mark.parametrize("system,calls", [({"kind": "full_shift", "m": 2, "L": 4}, 2),
                                          ({"kind": "finite_random", "size": 5, "seed": 19}, 10)])
def test_verify_runs_the_exact_oracle_once_per_potential(tmp_path, monkeypatch, system, calls):
    # every draw on a shift reads the config's f; a finite system draws a new f each time
    import meandim.oracle

    real, seen = meandim.oracle.exact_pressure, []
    monkeypatch.setattr(meandim.oracle, "exact_pressure", lambda *a: seen.append(a) or real(*a))
    cfg = dict(BASE, system=system, verify={"seed": 3, "draws": 5, "n": 1, "eps": 0.25})
    assert main(["verify", _write(tmp_path, "c.json", cfg), "--out", str(tmp_path / "v")]) == 0
    assert len(seen) == calls


@pytest.mark.parametrize("system,potential,eps_list", [
    ({"kind": "finite_random", "size": 64, "seed": 3}, BASE["potential"], BASE["eps_list"]),
    ({"kind": "full_shift", "m": 2, "L": 8}, {"kind": "first_coord", "params": {"offset": 1.0}}, [0.25, 0.125, 0.0625]),
])
def test_verify_keeps_only_the_registered_table(tmp_path, monkeypatch, system, potential, eps_list):
    # every draw reads new potentials (a finite system's f and g, a
    # shift's g); their tables share one slot instead of piling up
    tables, build = [], cli.build_table

    def keep(s, pts, n_max, fs):
        tables.append((build(s, pts, n_max, fs), fs))
        return tables[-1][0]

    monkeypatch.setattr(cli, "build_table", keep)
    cfg = dict(BASE, system=system, potential=potential, eps_list=eps_list,
               verify={"seed": 1, "draws": 40, "n": 2, "eps": 0.25})
    assert main(["verify", _write(tmp_path, "c.json", cfg), "--out", str(tmp_path / "v")]) == 0
    ((table, registered),) = tables
    assert list(table._birkhoff) == registered


def test_verify_sum_potential_matches_its_point_table():
    # verify's finite-system g is f + g_extra as a sum potential: its
    # Birkhoff tables and properties are bitwise those of the per-point table
    for size, seed in [(1, 0), (2, 1), (7, 2), (24, 3)]:
        system = zoo.random_finite_system(size, seed)
        f = zoo.random_table_potential(system, seed=1000 + seed)
        g_extra = zoo.random_table_potential(system, seed=2000 + seed, low=0.0)
        table = zoo.table_potential(system, f.array(system.points) + g_extra.array(system.points))
        summed = zoo.sum_potentials(f, g_extra)
        t = build_table(system, system.points, 3, [f])
        assert t.birkhoff(summed).tobytes() == t.birkhoff(table).tobytes()
        for n, eps in [(1, 0.5), (2, 0.35), (3, 0.2)]:
            assert check_properties(t, f, summed, 0.3, 0.4, eps, n) == check_properties(t, f, table, 0.3, 0.4, eps, n)


def test_verify_exit_code_3_on_failed_assertion(tmp_path, monkeypatch):
    import meandim.cli as cli_mod

    monkeypatch.setattr(
        cli_mod,
        "check_properties",
        lambda *a, **k: {"ok": False, "items": {}, "witness": []},
    )
    cfg = {
        "system": {"kind": "finite_random", "size": 4, "seed": 2},
        "potential": {"kind": "table_random", "params": {"seed": 1}},
        "sample": {"exhaustive": True},
        "eps_list": [0.5, 0.35, 0.2],
        "n_range": [1, 2, 3],
        "verify": {"seed": 0, "draws": 2},
    }
    path = _write(tmp_path, "c.json", cfg)
    assert main(["verify", path, "--out", str(tmp_path / "v3")]) == 3
    report = json.loads((tmp_path / "v3" / "report.json").read_text())
    assert not report["ok"] and report["failures"]


def test_verify_reports_write_real_witnesses_as_ints(tmp_path, seeded_six):
    # the verify report's failures carry the greedy witness of the
    # property checks and the greedy and oracle witnesses of the sandwich
    # checks; each is written as a JSON list of ints, the greedy ones read
    # off the table's intp arrays
    from meandim.oracle import exact_pressure
    from meandim.pressure import check_sandwich, greedy_witness

    f = zoo.random_table_potential(seeded_six, seed=1)
    g = zoo.sum_potentials(f, zoo.random_table_potential(seeded_six, seed=2, low=0.0))
    t = build_table(seeded_six, seeded_six.points, 2, [f])
    n, eps = 2, 0.4
    oracle = (exact_pressure(t, f, n, eps), exact_pressure(t, f, n, eps / 2.0))
    props = check_properties(t, f, g, 0.5, 0.3, eps, n)
    greedy, exact = check_sandwich(t, f, n, eps), check_sandwich(t, f, n, eps, oracle=oracle)
    failure = {"properties": props, "sandwich": greedy, "oracle_sandwich": exact}
    cli._write(str(tmp_path / "v"), {"report.json": {"failures": [failure]}})
    (written,) = json.loads((tmp_path / "v" / "report.json").read_text())["failures"]
    cover = written["sandwich"]["checks"]["cover_dominates_separated"]
    assert written["properties"]["witness"] == greedy_witness(t, f, n, eps).tolist()
    assert cover["e_witness"] == greedy_witness(t, f, n, eps / 2.0).tolist()
    assert cover["f_witness"] == greedy_witness(t, f, n, eps).tolist()
    cover = written["oracle_sandwich"]["checks"]["cover_dominates_separated"]
    assert cover["e_witness"] == list(oracle[1].argmin_spanning)
    assert cover["f_witness"] == list(oracle[0].argmax_separated)


def test_variational_report_sandwich(tmp_path):
    cfg = {
        "system": {"kind": "finite_random", "size": 6, "seed": 23},
        "potential": {"kind": "table_random", "params": {"seed": 5}},
        "sample": {"exhaustive": True},
        "eps_list": [0.5, 0.35, 0.2],
        "n_range": [1, 2, 3],
        "dictionary": {
            "sources": [
                {"kind": "table_random", "params": {"seed": 6}},
                {"kind": "constant", "params": {"value": 0.4}},
            ],
        },
        "tolerances": {"tau_a": 0.05},
    }
    path = _write(tmp_path, "c.json", cfg)
    out = str(tmp_path / "vari")
    assert main(["variational", path, "--out", out]) == 0
    report = json.loads((tmp_path / "vari" / "report.json").read_text())
    assert report["sandwich"]["singleton_matches_m_hat"]
    assert report["sandwich"]["value_le_m_hat"]
    assert report["duality_gap"] == 0.0
    assert len(report["dictionary_certificates"]) == 3
    assert report["tangent_margins"]
    growth = [row["value"] for row in report["dictionary_growth"]]
    assert all(a >= b - 1e-12 for a, b in zip(growth, growth[1:]))
    supp = [row["value"] for row in report["support_growth"]]
    assert all(a <= b + 1e-12 for a, b in zip(supp, supp[1:]))


# modules that a command must not load on an exhaustive full shift: no
# command needs OpenSSL (estimate hashes its witnesses with CPython's own
# SHA-256 module), and only verify needs the exhaustive oracles
@pytest.mark.parametrize(
    "command, absent",
    [
        ("variational", ["_hashlib", "_sha2", "_sha256", "meandim.oracle"]),
        ("bowen", ["_hashlib", "_sha2", "_sha256", "meandim.oracle"]),
        ("estimate", ["_hashlib", "meandim.oracle"]),
    ],
)
def test_command_import_footprint(tmp_path, command, absent):
    cfg = {
        "system": {"kind": "full_shift", "m": 2, "L": 5},
        "potential": {"kind": "first_coord", "params": {"offset": 1.0}},
        "sample": {"exhaustive": True},
        "eps_list": [0.25, 0.125, 0.0625],
        "n_range": [1, 2, 3],
    }
    path = _write(tmp_path, "c.json", cfg)
    probe = (
        "import json, sys\n"
        "from meandim.cli import main\n"
        f"code = main([{command!r}, {path!r}, '--out', {str(tmp_path / 'out')!r}])\n"
        "print(json.dumps([code, sorted(sys.modules)]))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    run = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    code, loaded = json.loads(run.stdout)
    assert code == 0
    assert [m for m in absent if m in loaded] == []


# main() owns the process and freezes the import-time heap; importing cli
# freezes nothing, and main(argv), the in-process call, leaves it unfrozen
@pytest.mark.parametrize("entry, frozen", [("process", True), ("argv", False)])
def test_only_the_process_entry_freezes_the_heap(tmp_path, entry, frozen):
    path = _write(tmp_path, "c.json", BASE)
    argv = ["estimate", path, "--out", str(tmp_path / "out")]
    call = "main()" if entry == "process" else f"main({argv!r})"
    probe = (
        "import gc, json, sys\n"
        "from meandim.cli import main\n"
        "imported = gc.get_freeze_count()\n"
        f"sys.argv = {['meandim'] + argv!r}\n"
        f"code = {call}\n"
        "print(json.dumps([code, imported, gc.get_freeze_count()]))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    run = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    code, imported, after = json.loads(run.stdout)
    assert [code, imported] == [0, 0]
    assert (after > 0) is frozen
    assert (tmp_path / "out" / "summary.json").is_file()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**40), max_size=40))
@example([])
def test_witness_hash_is_hashlib_sha256(witness):
    # the same digest as hashlib's, with or without OpenSSL behind it, and
    # from hashlib itself on a build without CPython's own sha256 module
    blob = ",".join(map(str, witness)).encode()
    want = hashlib.sha256(blob).hexdigest()[:12]
    # a table's witness is an intp array: it hashes as its ints
    array = np.array(witness, dtype=np.intp)
    assert cli._witness_hash(tuple(witness)) == cli._witness_hash(witness) == want
    assert cli._witness_hash(array) == want
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(sys.modules, "_sha256", None)  # import raises ImportError
        mp.setitem(sys.modules, "_sha2", None)
        assert cli._witness_hash(tuple(witness)) == cli._witness_hash(array) == want


@pytest.mark.parametrize("version,module", [((3, 11), "_sha256"), ((3, 12), "_sha2"), ((3, 11), None)])
def test_witness_hash_reads_each_import_path(version, module):
    # each version branch, forced on any interpreter, reads its module, a
    # counting stand-in here; with both modules blocked, hashlib's sha256
    calls, real = [], hashlib.sha256

    def sha256(blob):
        calls.append(blob)
        return real(blob)

    want = hashlib.sha256(b"3,1,4").hexdigest()[:12]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "version_info", version)
        if module is None:
            mp.setitem(sys.modules, "_sha256", None)
            mp.setitem(sys.modules, "_sha2", None)
            mp.setattr(hashlib, "sha256", sha256)
        else:
            mp.setitem(sys.modules, module, types.SimpleNamespace(sha256=sha256))
        assert cli._witness_hash((3, 1, 4)) == want
        assert cli._witness_hash(np.array([3, 1, 4], dtype=np.intp)) == want
    assert calls == [b"3,1,4", b"3,1,4"]


def test_write_checks_every_json_payload_before_any_file(tmp_path):
    # a NaN in a later payload leaves no earlier file, and no runs.csv
    out = tmp_path / "o"
    files = {"summary.json": {"v": [1.0]}, "runs.csv": [], "report.json": {"a": {"b": [0.5, math.nan]}}}
    with pytest.raises(cli.NonFiniteError, match=r"^report\.json field a\.b\.1 is nan, not finite$"):
        cli._write(str(out), files)
    assert os.listdir(out) == []
    del files["report.json"]
    cli._write(str(out), files)
    assert sorted(os.listdir(out)) == ["runs.csv", "summary.json"]
    assert (out / "summary.json").read_text() == '{\n  "v": [\n    1.0\n  ]\n}\n'


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_commands_return_their_files_and_write_none(tmp_path, monkeypatch, command):
    path = _write(tmp_path, "c.json", BASE)
    cfg = load_config(path)
    (tmp_path / "run").mkdir()
    monkeypatch.chdir(tmp_path / "run")
    code, files = cli.COMMANDS[command](cfg)
    assert code == 0
    assert sorted(files) == (["runs.csv", "summary.json"] if command == "estimate" else ["report.json"])
    assert os.listdir(".") == []


def _peak_rss_mb(code):
    """Peak RSS (MiB) of a fresh interpreter running ``code``: its own
    VmHWM, which, unlike a child's ru_maxrss, leaves out the RSS of the
    process that started it (this test's)."""
    probe = code + "\nprint(open('/proc/self/status').read().split('VmHWM:')[1].split()[0])"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    return int(run.stdout.split()[-1]) / 1024


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc")
def test_estimate_at_the_exhaustive_cap_holds_only_its_words(tmp_path):
    # N = 8192 words held as one int8 letter array and hashed without
    # OpenSSL: the run peaks about 3 MB above the bare import on 2 vCPUs,
    # and 8.4 MB with Point tuples and hashlib
    cfg = {
        "system": {"kind": "full_shift", "m": 2, "L": 13},
        "potential": {"kind": "first_coord"},
        "eps_list": [2.0**-4, 2.0**-5, 2.0**-6],
        "n_range": [1, 2, 3, 4],
    }
    assert 2**13 == config.EXHAUSTIVE_CAP
    path = _write(tmp_path, "c.json", cfg)
    bare = _peak_rss_mb("import meandim.cli")
    run = _peak_rss_mb(f"from meandim.cli import main\nassert main(['estimate', {path!r}, '--out', {str(tmp_path / 'o')!r}]) == 0")
    assert run <= bare + 6.0, (run, bare)


def test_bowen_report_trace(tmp_path):
    cfg = {
        "system": {"kind": "one_point"},
        "potential": {"kind": "constant", "params": {"value": 2.0}},
        "sample": {"exhaustive": True},
        "eps_list": [0.5, 0.25, 0.125],
        "n_range": [1, 2, 3],
        "bowen": {"tol": 1e-11},
    }
    path = _write(tmp_path, "c.json", cfg)
    out = str(tmp_path / "root")
    assert main(["bowen", path, "--out", out]) == 0
    report = json.loads((tmp_path / "root" / "report.json").read_text())
    assert report["s0"] == 0.0
    assert report["consistency"]["ok"]


# f = 1 + first letter on the exhaustive full shift: a positive potential
ROOT_CFG = {
    "system": {"kind": "full_shift", "m": 2, "L": 7},
    "potential": {"kind": "first_coord", "params": {"offset": 1.0}},
    "sample": {"exhaustive": True},
    "eps_list": [2.0**-3, 2.0**-4, 2.0**-5],
    "n_range": [1, 2, 3],
}


def test_bowen_enforces_tau_a(tmp_path, capsys):
    # the members' certificate proxies are float noise of order 1e-16
    cfg = dict(ROOT_CFG, bowen={"tol": 1e-10})
    assert main(["bowen", _write(tmp_path, "ok.json", cfg), "--out", str(tmp_path / "ok")]) == 0
    tight = dict(cfg, tolerances={"tau_a": 1e-300})
    path = _write(tmp_path, "tight.json", tight)
    for command in ("bowen", "variational"):
        capsys.readouterr()
        assert main([command, path, "--out", str(tmp_path / command)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("MemberRejectedError: ") and "tau_a=1e-300" in err


def test_domain_error_exits_4_without_traceback(tmp_path):
    # a member beyond tau_a, and a line fit whose resid**2 overflows, which
    # would write Infinity into summary.json: each is one line and no file
    huge = dict(BASE, system={"kind": "full_shift", "m": 2, "L": 5},
                potential={"kind": "first_coord", "params": {"scale": 1e200}})
    cases = [("bowen", dict(ROOT_CFG, tolerances={"tau_a": 1e-300}), "MemberRejectedError: ", "tau_a=1e-300"),
             ("estimate", huge, "NonFiniteError: summary.json field ", " is inf, not finite")]
    for command, cfg, start, needle in cases:
        out = tmp_path / command
        proc = _run_cli(command, _write(tmp_path, f"{command}.json", cfg), str(out))
        assert proc.returncode == 4
        assert "Traceback" not in proc.stderr
        (line,) = proc.stderr.splitlines()
        assert line.startswith(start) and needle in line
        assert not out.exists() or os.listdir(out) == []


@pytest.mark.parametrize("command,start", [("estimate", "summary.json field v.0 is nan"),
                                           ("verify", "report.json field failures.0.")])
def test_non_finite_results_exit_4_and_leave_no_file(tmp_path, capsys, command, start):
    # at scale 1e308 the Birkhoff sums overflow: runs.csv and summary.json
    # would read nan, and verify's report would hold inf and nan
    cfg = dict(BASE, system={"kind": "full_shift", "m": 2, "L": 5},
               potential={"kind": "first_coord", "params": {"scale": 1e308}})
    out = tmp_path / "o"
    assert main([command, _write(tmp_path, "c.json", cfg), "--out", str(out)]) == 4
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("NonFiniteError: " + start) and line.endswith(", not finite")
    assert os.listdir(out) == []


def test_collapsed_bowen_bracket_exits_4_at_once(tmp_path, capsys, monkeypatch):
    # tied S_n f values on this grid sample: the greedy witness of -s f is
    # ordered by S_n f itself (Potential.order), the same at every s > 0,
    # so the bisection reaches the root instead of a bracket collapse
    cfg = {
        "system": {"kind": "grid_shift", "D": 1, "m": 5, "L": 6},
        "potential": {"kind": "first_coord", "params": {"offset": 1.0}},
        "sample": {"count": 150, "seed": 3},
        "eps_list": [0.5, 0.3, 0.2],
        "n_range": [1, 2, 3],
    }
    path = _write(tmp_path, "grid.json", cfg)
    for command in ("bowen", "variational"):
        assert main([command, path, "--out", str(tmp_path / command)]) == 0
    bowen = json.loads((tmp_path / "bowen" / "report.json").read_text())
    variational = json.loads((tmp_path / "variational" / "report.json").read_text())
    assert bowen["s0"] == variational["bowen_root"]["s0"] == 0.7367780516151603
    assert len(bowen["trace"]) == 34

    # a proxy that does jump across 0 between two adjacent doubles stops the
    # bisection there, instead of repeating the same midpoint until its cap:
    # an exact source prices -s * 1 at ratio 1 up to lo and -1 beyond it
    lo, hi = 0.7367932391734565, 0.7367932391734566
    assert np.nextafter(lo, 1.0) == hi

    def jump(h, n, eps):
        s = -float(h.array(np.zeros(1))[0])
        return n * math.log(1.0 / eps) * (1.0 if s <= lo else -1.0)

    one = _write(tmp_path, "one.json", dict(BASE, potential={"kind": "constant", "params": {"value": 1.0}}))
    filled = load_config(one)
    _, potential, table = cli._prepare(filled)
    trace = []
    with pytest.raises(BracketError, match="adjacent doubles") as err:
        bowen_root(table, potential, filled["eps_list"], filled["n_range"],
                   tol=filled["bowen"]["tol"], log_pressure=jump, trace=trace)
    assert len(trace) <= 60
    assert f"proxy({lo!r}) = " in str(err.value) and f"proxy({hi!r}) = " in str(err.value)
    monkeypatch.setattr(cli, "bowen_root", lambda *args, **kw: bowen_root(*args, log_pressure=jump, **kw))
    capsys.readouterr()
    out = tmp_path / "collapsed"
    assert main(["bowen", one, "--out", str(out)]) == 4
    assert capsys.readouterr().err.startswith("BracketError: bracket collapsed")
    assert not out.exists()


def test_bowen_on_a_nonpositive_potential_exits_2_without_traceback(tmp_path):
    # a table potential drawn from its default range dips below 0; the
    # root of s -> proxy(-s f) needs min f > 0 on the sample
    cfg = dict(BASE, system={"kind": "finite_random", "size": 5, "seed": 19},
               potential={"kind": "table_random", "params": {"seed": 4}},
               eps_list=[0.5, 0.35, 0.2])
    path = _write(tmp_path, "c.json", cfg)
    proc = _run_cli("bowen", path, str(tmp_path / "o"))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("config error: config key potential: ")
    assert "'table[seed=4]' has sampled minimum -0.83" in proc.stderr
    assert not os.path.exists(tmp_path / "o")


def test_bowen_and_variational_share_the_bisection_tol(tmp_path):
    path = _write(tmp_path, "c.json", dict(ROOT_CFG, bowen={"tol": 1e-3}))
    assert main(["bowen", path, "--out", str(tmp_path / "b")]) == 0
    assert main(["variational", path, "--out", str(tmp_path / "v")]) == 0
    bowen = json.loads((tmp_path / "b" / "report.json").read_text())
    vari = json.loads((tmp_path / "v" / "report.json").read_text())["bowen_root"]
    assert bowen["trace"] == vari["trace"] and bowen["s0"] == vari["s0"]
    assert abs(bowen["trace"][-1]["proxy"]) <= 1e-3


@pytest.mark.parametrize(
    "extra",
    [
        {"bowen": {"tol": -1}},
        {"bowen": {"tol": 0}},
        {"tolerances": {"tau_a": -0.05}},
        {"bowen": {"tol": "1e-10"}},
    ],
)
def test_nonpositive_tolerance_exits_2(tmp_path, extra):
    path = _write(tmp_path, "c.json", dict(ROOT_CFG, **extra))
    with pytest.raises(ConfigError, match="must be a number > 0"):
        load_config(path)
    for command in ("bowen", "variational"):
        assert main([command, path, "--out", str(tmp_path / command)]) == 2
        assert not os.path.exists(tmp_path / command)


def test_dictionary_tau_a_is_retired(tmp_path):
    # the membership tolerance has one key, tolerances.tau_a
    cfg = dict(ROOT_CFG, dictionary={"sources": [], "tau_a": 0.05})
    path = _write(tmp_path, "c.json", cfg)
    with pytest.raises(ConfigError, match=r"dictionary\.tau_a: .*tolerances\.tau_a"):
        load_config(path)
    for command in ("bowen", "variational"):
        assert main([command, path, "--out", str(tmp_path / command)]) == 2
        assert not os.path.exists(tmp_path / command)


def test_bisection_tol_is_retired(tmp_path):
    # the root tolerance has one key, bowen.tol
    cfg = dict(ROOT_CFG, tolerances={"bisection_tol": 1e-10})
    path = _write(tmp_path, "c.json", cfg)
    with pytest.raises(ConfigError, match=r"tolerances\.bisection_tol: .*bowen\.tol"):
        load_config(path)
    for command in ("bowen", "variational"):
        assert main([command, path, "--out", str(tmp_path / command)]) == 2
        assert not os.path.exists(tmp_path / command)


def test_each_witness_is_computed_once(tmp_path, monkeypatch):
    import meandim.cli as cli_mod
    import meandim.pressure as pressure_mod

    calls = {"witness": 0, "member": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(pressure_mod, "greedy_witness", counted("witness", pressure_mod.greedy_witness))
    monkeypatch.setattr(cli_mod, "make_dict_member", counted("member", cli_mod.make_dict_member))
    cfg = dict(ROOT_CFG, n_range=[1, 2, 3, 3])
    path = _write(tmp_path, "c.json", cfg)
    assert main(["estimate", path, "--out", str(tmp_path / "e")]) == 0
    assert calls["witness"] == len(cfg["eps_list"]) * len(set(cfg["n_range"]))
    with open(tmp_path / "e" / "runs.csv", newline="") as fh:
        next(fh)
        rows = list(csv.DictReader(fh))
    assert len(rows) == calls["witness"]
    assert all(row["log_Q_upper"] == row["log_P_lower"] for row in rows)
    assert main(["bowen", path, "--out", str(tmp_path / "b")]) == 0
    assert calls["member"] == 2


def test_determinism_byte_identical(tmp_path):
    cfg = {
        "system": {"kind": "full_shift", "m": 2, "L": 7},
        "potential": {"kind": "first_coord", "params": {}},
        "sample": {"count": 40, "seed": 11},
        "eps_list": [0.5, 0.25, 0.125],
        "n_range": [1, 2, 3],
    }
    path = _write(tmp_path, "c.json", cfg)
    outs = []
    for run in ("a", "b"):
        out = str(tmp_path / run)
        assert main(["estimate", path, "--out", out]) == 0
        outs.append(
            (
                (tmp_path / run / "runs.csv").read_bytes(),
                (tmp_path / run / "summary.json").read_bytes(),
            )
        )
    assert outs[0] == outs[1]


def test_load_config_fills_every_default(tmp_path):
    cfg = {"system": {"kind": "one_point"}, "eps_list": [0.5, 0.25, 0.125], "n_range": [1, 2, 3]}
    assert load_config(_write(tmp_path, "c.json", cfg)) == dict(
        cfg,
        potential={"kind": "constant", "params": {"value": 0.0}},
        sample={"exhaustive": True},
        dictionary={"sources": []},
        verify={"seed": 0, "draws": 20, "n": 2, "eps": 0.35},
        bowen={"tol": 1e-10},
        tolerances={"tau_a": 0.05},
        out="out",
    )
    cfg = dict(cfg, potential={"kind": "first_coord"},
               dictionary={"sources": [{"kind": "table_random", "params": {"seed": 2}}]})
    filled = load_config(_write(tmp_path, "p.json", cfg))
    assert filled["potential"] == {"kind": "first_coord", "params": {"scale": 1.0, "offset": 0.0}}
    assert filled["dictionary"]["sources"] == [
        {"kind": "table_random", "params": {"seed": 2, "low": -1.0, "high": 1.0}}
    ]


def test_grid_letters_are_capped_before_the_build(tmp_path, capsys):
    # D = 3, m = 500 is 1.25e8 letters
    cfg = dict(BASE, system={"kind": "grid_shift", "D": 3, "m": 500, "L": 6},
               sample={"count": 5, "seed": 0})
    path = _write(tmp_path, "c.json", cfg)
    assert main(["estimate", path, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        "config error: config key system: 500^3 letters exceed the 65536-letter budget of a shift alphabet\n"
    )
    assert not os.path.exists(tmp_path / "o")
    for D, m, ok in [(1, 2**16, True), (1, 2**16 + 1, False), (16, 2, True), (17, 2, False), (10**6, 2, False)]:
        spec = {"kind": "grid_shift", "D": D, "m": m, "L": 6}
        path = _write(tmp_path, "g.json", dict(cfg, system=spec))
        if ok:
            assert load_config(path)["system"] == spec
        else:
            with pytest.raises(ConfigError, match=r"system: .*letter budget"):
                load_config(path)


def test_full_shift_letters_are_capped_before_the_build(tmp_path, capsys):
    # a sample draws int64 letter codes below m, so m > 2^63 cannot run;
    # the grid's letter budget holds at D = 1
    cfg = dict(BASE, system={"kind": "full_shift", "m": 2**63 + 1, "L": 6}, sample={"count": 5, "seed": 0})
    out = tmp_path / "o"
    assert main(["estimate", _write(tmp_path, "c.json", cfg), "--out", str(out)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line == f"config error: config key system: {2**63 + 1}^1 letters exceed the 65536-letter budget of a shift alphabet"
    assert not os.path.exists(out)
    for m, ok in [(2**16, True), (2**16 + 1, False), (3 * 10**9, False)]:
        spec = {"kind": "full_shift", "m": m, "L": 6}
        path = _write(tmp_path, "f.json", dict(cfg, system=spec))
        if ok:
            assert load_config(path)["system"] == spec
        else:
            with pytest.raises(ConfigError, match=r"system: .*letter budget"):
                load_config(path)


def test_unwritable_out_exits_2_before_the_run(tmp_path, monkeypatch, capsys):
    # used to end in a FileExistsError or NotADirectoryError traceback,
    # after the whole computation
    def never(spec):
        raise AssertionError("ran before the out check")

    monkeypatch.setattr(cli, "build_system", never)
    path = _write(tmp_path, "c.json", BASE)
    blocker = tmp_path / "file"
    blocker.write_text("")
    for out in (blocker, blocker / "sub"):
        assert main(["estimate", path, "--out", str(out)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"config error: config key out: cannot make {str(out)!r}: ")
    assert blocker.read_text() == ""


def _key_lines(check, path, default, kind=""):
    """(key path, rule) rows of README's config block, read off the table."""
    given = ("required" if default is config.REQUIRED
             else None if default in (None, {}) else f"default {json.dumps(default)}")
    if isinstance(check, config.Section):
        if given:
            yield path, given
        for key, spec in check.keys.items():
            sub, sub_default = spec if isinstance(spec, tuple) else (spec, config.REQUIRED)
            yield from _key_lines(sub, f"{path}.{key}" if path else key, sub_default, kind)
        for key, new in check.retired.items():
            yield f"{path}.{key}", f"retired: set {new}"
        if check.rule:
            for clause in " ".join(check.rule.__doc__.split()).split("; "):
                yield "//", kind + clause
    elif isinstance(check, config.Kinds):
        if given:
            yield path, given
        yield f"{path}.kind", " | ".join(check.kinds)
        for name, section in check.kinds.items():
            yield from _key_lines(section, path, None, f"if {name}: ")
    else:
        yield path, kind + "; ".join(filter(None, [check.doc, given]))


def render_key_block():
    return "".join(f"{path:<26}{rule}\n" for path, rule in _key_lines(config.CONFIG, "", None))


def test_readme_config_block_is_the_key_table():
    with open(os.path.join(ROOT, "README.md")) as fh:
        readme = fh.read()
    block = readme.split("### Config keys (exact set)\n\n```text\n", 1)[1].split("```", 1)[0]
    assert block == render_key_block(), "README block is out of date; it should read:\n" + render_key_block()
