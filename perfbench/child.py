"""Child processes of the benchmark; each is started fresh by run.py.

    python perfbench/child.py setup CONFIG
        Imports meandim and builds the workload's orbit table the way the
        commands do, then prints the ``time.perf_counter()`` reading at
        which the table exists.  The clock is system-wide, so the parent
        subtracts its own reading taken just before the spawn.

    python perfbench/child.py trace SPANS_OUT COMMAND CONFIG OUT_DIR
        Runs ``meandim COMMAND CONFIG --out OUT_DIR`` in this process with
        every layer entry point wrapped (see spans.py) and writes the
        spans to SPANS_OUT when the command ends.

Both expect ``src`` of the checkout on PYTHONPATH.
"""

import json
import sys
import time


def setup(config_path: str) -> int:
    import meandim.cli  # noqa: F401  -- the same imports as a command
    from meandim.config import build_potential, build_sample, build_system, load_config
    from meandim.orbit_engine import build_table

    cfg = load_config(config_path)
    system = build_system(cfg["system"])
    potential = build_potential(cfg["potential"], system)
    points = build_sample(cfg, system)
    table = build_table(system, points, max(cfg["n_range"]), [potential])
    ready = time.perf_counter()
    print(json.dumps({"ready": ready, "points": table.size}))
    return 0


def trace(spans_path: str, command: str, config_path: str, out_dir: str) -> int:
    from spans import Recorder, install

    recorder = Recorder()
    install(recorder)
    from meandim.cli import main

    try:
        return main([command, config_path, "--out", out_dir])
    finally:
        with open(spans_path, "w") as fh:
            json.dump(recorder.spans, fh)


if __name__ == "__main__":
    mode, *rest = sys.argv[1:]
    sys.exit({"setup": setup, "trace": trace}[mode](*rest))
