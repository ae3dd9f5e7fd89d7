"""Outside-in benchmark of the meandim batch CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout; the program is imported from its
``src``.  Every measurement is a fresh child process, started one at a
time (closed loop, one client) with BLAS/OpenMP threads set to 1.

``--trace 0`` alternates set-up children (import, config, system,
potential, sample and orbit table, then stop) with full command
children for ``--seconds`` seconds and reports the medians of
``wall_s``, ``setup_s`` and ``peak_rss_mb``.  ``--trace 1`` alternates
traced and untraced command children instead and reports the per-layer
metrics of the traced ones (see spans.py) plus the tracing overhead.

Every command child's result files pass the workload's correctness gate
(workloads.py) and hash to the same SHA-256; at the default seed that
hash must equal the one in reference.json.  The last stdout line is one
JSON object: correct, attempted, failed and the metrics named in
BENCHMARK.json.  A full record with run metadata goes to
``.perfbench/BENCH_<workload>_seed<seed>_trace<t>.json``.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from spans import summarize
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
DEADLINE_S = 170.0  # every child is killed by then, so a run ends within 180 s
MIN_SETUPS = 10  # a set-up child is short and noisy, so take many
MIN_TRACED = 2  # the counter self-check compares at least two traced runs
RESULT_FILES = ("runs.csv", "summary.json", "report.json")


class Runner:
    """Spawns children serially and keeps every sample and failure."""

    def __init__(self, root: Path, work: Path, workload, cfg, reference):
        self.root, self.work, self.workload, self.cfg = root, work, workload, cfg
        self.reference = reference
        self.start = time.perf_counter()
        self.config_path = work / "config.json"
        self.config_path.write_text(json.dumps(cfg, indent=1))
        self.env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        )
        self.attempted = 0
        self.failures = []
        self.digests = []
        self.samples = {"setup_s": [], "wall_s": [], "peak_rss_mb": [], "traced": []}

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def _spawn(self, argv, tag):
        """Run one child to completion; returns (start, wall_s, exit code, rusage, stdout)."""
        self.attempted += 1
        out_path = self.work / f"{tag}.stdout"
        err_path = self.work / f"{tag}.stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env, stdout=out, stderr=err)
            watchdog = threading.Timer(max(1.0, DEADLINE_S - self.elapsed()), proc.kill)
            watchdog.start()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            watchdog.cancel()
        if proc.returncode != 0:
            detail = err_path.read_text(errors="replace").strip().splitlines()[-1:]
            self.failures.append(f"{tag}: exit code {proc.returncode} {detail}")
        return start, wall, proc.returncode, usage, out_path.read_text()

    def setup(self):
        tag = f"setup{self.attempted}"
        argv = [sys.executable, str(HERE / "child.py"), "setup", str(self.config_path)]
        start, _, code, _, stdout = self._spawn(argv, tag)
        if code == 0:
            self.samples["setup_s"].append(json.loads(stdout)["ready"] - start)

    def command(self, traced: bool):
        tag = f"{'traced' if traced else 'command'}{self.attempted}"
        out_dir = self.work / tag
        if traced:
            spans_path = self.work / f"{tag}.spans.json"
            argv = [sys.executable, str(HERE / "child.py"), "trace", str(spans_path),
                    self.workload.command, str(self.config_path), str(out_dir)]
        else:
            argv = [sys.executable, "-m", "meandim.cli", self.workload.command,
                    str(self.config_path), "--out", str(out_dir)]
        _, wall, code, usage, _ = self._spawn(argv, tag)
        if code != 0:
            return
        problems = self.check(out_dir)
        if problems:
            self.failures.append(f"{tag}: {problems}")
            return
        if traced:
            self.samples["traced"].append(summarize(json.loads(spans_path.read_text()), wall))
        else:
            self.samples["wall_s"].append(wall)
            self.samples["peak_rss_mb"].append(usage.ru_maxrss / 1024.0)
        shutil.rmtree(out_dir)

    def check(self, out_dir: Path) -> list:
        """Correctness gate plus the result-file hash check."""
        try:
            problems = self.workload.gate(self.cfg, str(out_dir))
        except (OSError, ValueError, KeyError, TypeError, StopIteration) as exc:
            return [f"unreadable results: {exc!r}"]
        digest = output_digest(out_dir)
        self.digests.append(digest)
        expected = self.reference or self.digests[0]
        if digest != expected:
            problems.append(f"result files hash {digest}, expected {expected}")
        return problems


def output_digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for name in RESULT_FILES:
        path = out_dir / name
        if path.exists():
            h.update(name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def measure(runner: Runner, seconds: float):
    runner.setup()  # warm-up: byte-compiles the package, fills the page cache
    runner.samples["setup_s"].clear()
    while True:
        runner.setup()
        runner.command(traced=False)
        if runner.elapsed() >= seconds:
            break
    for _ in range(MIN_SETUPS - len(runner.samples["setup_s"])):
        runner.setup()
    return {
        name: statistics.median(runner.samples[name])
        for name in ("wall_s", "setup_s", "peak_rss_mb")
        if runner.samples[name]
    }


def measure_traced(runner: Runner, seconds: float):
    runner.setup()  # warm-up
    runner.samples["setup_s"].clear()
    rounds = 0
    while True:
        for traced in (True, False) if rounds % 2 == 0 else (False, True):
            runner.command(traced)
        rounds += 1
        if rounds >= MIN_TRACED and runner.elapsed() >= seconds:
            break
    traced = runner.samples["traced"]
    if not traced or not runner.samples["wall_s"]:
        return {}
    for other in traced[1:]:
        if other["counters"] != traced[0]["counters"]:
            runner.failures.append("exact counters differ between traced runs")
            break
    metrics = dict(traced[0]["counters"])
    for name in traced[0]["times"]:
        metrics[name] = statistics.median(t["times"][name] for t in traced)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(runner.samples["wall_s"])
    return metrics


def metadata(root: Path, env: dict) -> dict:
    import numpy

    commit = None
    if (root / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        commit = got.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((root / "src" / "meandim").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {v: env[v] for v in THREAD_VARS},
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True,
                        help=f"measuring time, capped at {DEADLINE_S / 2:g}")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's tests")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "meandim" / "cli.py").is_file():
        print(f"perfbench: no meandim sources under {root / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))  # the gates read the oracle module
    spec = json.loads((root / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    workload = WORKLOADS[args.workload]
    cfg = workload.config(args.seed, args.smoke)
    reference = None
    if args.seed == DEFAULT_SEED or not workload.seeded:
        table = json.loads((HERE / "reference.json").read_text())
        reference = table["smoke" if args.smoke else "full"][args.workload]

    label = f"{args.workload}_seed{args.seed}_trace{args.trace}" + ("_smoke" if args.smoke else "")
    base = root / ".perfbench"
    work = base / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(root, work, workload, cfg, reference)
        measure_run = measure_traced if args.trace else measure
        measured = measure_run(runner, min(args.seconds, DEADLINE_S / 2))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = [m["name"] for m in declared if m["name"] not in measured]
    failed = len(runner.failures) + (1 if missing else 0)
    result = {
        "correct": not runner.failures and not missing,
        "attempted": max(runner.attempted, failed),
        "failed": failed,
        "metrics": {
            m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
            for m in declared
            if m["name"] in measured
        },
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "config": cfg,
        "meta": metadata(root, runner.env),
        "failures": runner.failures + [f"metric not measured: {name}" for name in missing],
        "digests": sorted(set(runner.digests)),
        "samples": runner.samples,
        "result": result,
    }
    record_path = base / f"BENCH_{label}.json"
    record_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for failure in record["failures"]:
        print(f"perfbench: FAIL {failure}", file=sys.stderr)
    print(f"perfbench: {args.workload} seed {args.seed}: {runner.attempted} children, "
          f"{failed} failed; record {record_path.relative_to(root)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
