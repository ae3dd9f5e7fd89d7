"""Outside-in span recorder for the traced benchmark run.

The recorder wraps the public entry point of each ``meandim`` layer from
outside the package.  A function imported by name into another module
(``from .mmdim import estimate_mmdim`` in ``cli`` and ``variational``) is
replaced in every loaded ``meandim`` namespace, because patching only the
defining module would miss those calls.  ``System.pairwise_dist`` is
wrapped on the system that ``build_system`` returns; per-point callables
such as ``Potential.eval`` are never wrapped.

Spans are kept in memory as ``[name, start, end, parent, info]`` and
written once, when the command ends.  ``summarize`` turns them into the
per-layer metrics: call counts, exact work counters and self time (a
span's duration minus the time its direct child spans cover).
"""

import dataclasses
import functools
import sys
import time
from collections import defaultdict

# Entry points wrapped in the traced run: (module, attribute).  A dotted
# attribute names a method, patched on its class.
ENTRY_POINTS = [
    ("config", "load_config"),
    ("config", "build_system"),
    ("config", "build_potential"),
    ("config", "build_sample"),
    ("orbit_engine", "build_table"),
    ("orbit_engine", "OrbitTable.ensure_potential"),
    ("orbit_engine", "OrbitTable.bowen_matrix"),
    ("pressure", "greedy_witness"),
    ("mmdim", "estimate_mmdim"),
    ("mmdim", "net_size"),
    ("numerics", "logsumexp"),
    ("numerics", "linear_fit"),
    ("simplex", "solve_lp"),
    ("simplex", "solve_matrix_game"),
    ("variational", "maxmin_variational"),
    ("variational", "make_dict_member"),
    ("variational", "equilibrium_candidates"),
    ("variational", "tangent_check"),
    ("variational", "bowen_root"),
]
PAIRWISE = "system_zoo.pairwise_dist"

# Spans whose self time is reported per module rather than per function.
MODULE_GROUPS = {"config", "numerics"}


def _span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


# Exact work counters taken from a call's arguments and result.
def _bowen_info(args, kwargs, result):
    table, n = args[0], args[1] if len(args) > 1 else kwargs["n"]
    return {"key": [id(table), n], "size": table.size}


def _potential_info(args, kwargs, result):
    table, f = args[0], args[1] if len(args) > 1 else kwargs["f"]
    return {"key": [id(table), id(f)]}


def _witness_info(args, kwargs, result):
    return {"kept": len(result)}


def _lp_info(args, kwargs, result):
    names = ("c", "a_ub", "b_ub", "a_eq", "b_eq")
    bound = dict(zip(names, args), **kwargs)
    return {"cells": (len(bound["a_ub"]) + len(bound["a_eq"])) * len(bound["c"])}


INFO = {
    "orbit_engine.bowen_matrix": _bowen_info,
    "orbit_engine.ensure_potential": _potential_info,
    "pressure.greedy_witness": _witness_info,
    "simplex.solve_lp": _lp_info,
}


class Recorder:
    """In-memory span list with a parent stack (single-threaded)."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, post=None):
        info = INFO.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if info is not None:
                span[4] = info(args, kwargs, result)
            return result if post is None else post(result)

        return wrapper


def install(recorder: Recorder):
    """Wrap every entry point in every ``meandim`` namespace that holds it."""
    import meandim.cli  # noqa: F401  -- loads every module the commands use

    def wrap_pairwise(system):
        if system.pairwise_dist is None:
            return system
        return dataclasses.replace(
            system, pairwise_dist=recorder.wrap(PAIRWISE, system.pairwise_dist)
        )

    modules = [m for k, m in sys.modules.items() if k == "meandim" or k.startswith("meandim.")]
    for module_name, attr in ENTRY_POINTS:
        name = _span_name(module_name, attr)
        owner = sys.modules[f"meandim.{module_name}"]
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, method, recorder.wrap(name, getattr(cls, method)))
            continue
        original = getattr(owner, attr)
        post = wrap_pairwise if name == "config.build_system" else None
        wrapped = recorder.wrap(name, original, post)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)


def summarize(spans, wall_s: float) -> dict:
    """Per-layer metrics from one traced command's spans.

    Returns ``{"times": {...}, "counters": {...}}`` with an entry for every
    entry point, called or not.  Counters are exact and repeat run to run;
    times are seconds.  ``config.self_s`` and ``numerics.self_s`` sum their
    module's spans, and ``cli.self_s`` is the rest of the traced wall time
    (interpreter start, imports, command code, result files).
    """
    names = [PAIRWISE] + [_span_name(m, a) for m, a in ENTRY_POINTS]
    duration = [end - start for _, start, end, _, _ in spans]
    covered = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            covered[span[3]] += duration[i]
    self_s = dict.fromkeys(names + sorted(MODULE_GROUPS), 0.0)
    calls = dict.fromkeys(names, 0)
    bowen_sizes, potential_keys, game_lps = {}, set(), defaultdict(list)
    kept = cells = iterations = 0
    for i, (name, _, _, parent, info) in enumerate(spans):
        own = duration[i] - covered[i]
        self_s[name] += own
        module = name.split(".")[0]
        if module in MODULE_GROUPS:
            self_s[module] += own
        calls[name] += 1
        parent_name = spans[parent][0] if parent >= 0 else None
        if name == "orbit_engine.bowen_matrix":
            bowen_sizes[tuple(info["key"])] = info["size"]
        elif name == "orbit_engine.ensure_potential":
            potential_keys.add(tuple(info["key"]))
        elif name == "pressure.greedy_witness":
            kept += info["kept"]
        elif name == "simplex.solve_lp":
            cells += info["cells"]
            if parent_name == "simplex.solve_matrix_game":
                game_lps[parent].append(duration[i])
        elif name == "mmdim.estimate_mmdim" and parent_name == "variational.bowen_root":
            iterations += 1

    counters = {f"{name}.calls": calls[name] for name in names}
    counters.update(
        {
            "orbit_engine.bowen_matrix.distinct": len(bowen_sizes),
            "orbit_engine.bowen_matrix.bytes": sum(8 * n * n for n in bowen_sizes.values()),
            "orbit_engine.ensure_potential.distinct": len(potential_keys),
            "pressure.greedy_witness.kept": kept,
            "simplex.solve_lp.cells": cells,
            "variational.bowen_root.iterations": iterations,
        }
    )
    times = {f"{name}.self_s": value for name, value in self_s.items()}
    # the first LP of a game is the primal, the second its dual
    times["simplex.solve_lp.primal_s"] = sum(lps[0] for lps in game_lps.values())
    times["simplex.solve_lp.dual_s"] = sum(sum(lps[1:2]) for lps in game_lps.values())
    times["cli.self_s"] = wall_s - sum(self_s[name] for name in names)
    times["trace.wall_s"] = wall_s
    return {"times": times, "counters": counters}
