"""Every narrative demo runs to completion and prints its pinned bytes."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# SHA-256 of each demo's stdout; a change that moves a printed value must
# say so and re-pin it here
STDOUT_SHA256 = {
    "01_pressure_counting": "3714805d93b94cf3e38ace4339e04efd857373408be0b636b338df8edad8df08",
    "02_shift_dimension": "a73bcbdc69df77230f8635dcf9ba43942f0c22ad7818d2b1669c3d925e7ca3e7",
    "03_grid_counts_and_saturation": "bd9805f6d7ac3a6d31ce799ccc500b0086f4e949d56c7b9b290a72f484dc2ec7",
    "04_variational_maxmin": "eafdf5f486d832f4188a8e8a442ab3f9f7f422f6991f75bbc1a66e6102935c1d",
    "05_bowen_root": "a137350f9cf03724386fa9baa306b3c3761f42650623b20949426678662f72e7",
}


def test_demos_found():
    assert [p.stem for p in DEMOS] == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env,
        capture_output=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:].decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[demo.stem], proc.stdout.decode()
