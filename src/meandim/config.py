"""Run configuration: one structured JSON file per run.

Exact key set (documented in the README):

  system:     kind=one_point | finite | finite_random | full_shift | grid_shift
              plus kind-specific keys (dist_matrix/map_table, size/seed, m, D, L);
              m, D, L, seed and the map_table entries are ints, and a finite
              system has at most FINITE_POINTS_CAP points
  potential:  kind=constant | first_coord | table_random, params={...}
  sample:     {"count": int >= 1, "seed": int >= 0} or {"exhaustive": true}
  eps_list:   strictly decreasing numbers in (0,1)
  n_range:    list of int orbit lengths (>= 3 distinct values >= 1)
  dictionary: {"sources": [potential specs]}   (variational)
  verify:     {"seed": int >= 0, "draws": int >= 1, "n": int, "eps": float}
  bowen:      {"tol": float}
  tolerances: {"tau_a": float}
  out:        output directory (the only value a CLI flag may override)

No hidden randomness: every stochastic choice takes a seed from the file.
"""

from contextlib import contextmanager
import json

from . import system_zoo as zoo

EXHAUSTIVE_CAP = 8192
# Points of a finite system: its build, an O(N^3) metric check (after an
# O(N^3) closure for finite_random), takes about 7 s at N = 1024 and 10 s at
# N = 1200 on 2 vCPUs.  Checked with the config, before the build.
FINITE_POINTS_CAP = 1024
SHIFT_KINDS = ("full_shift", "grid_shift")  # systems whose horizon is the word length L
# The int params of each system kind (bools excluded).
SYSTEM_INTS = {"full_shift": ("m", "L"), "grid_shift": ("D", "m", "L")}
# Budget for the cached dense d_n matrices, 8 * N^2 * n_max bytes, of every
# system measured through N x N matrices (finite, product, iterate).  A finite
# system is checked with the config, after FINITE_POINTS_CAP, which binds
# first while n_max <= 64.  The shifts are exempt: their lattice letters,
# O(N * L * D), feed O(N * L) class ids or N/8-byte packed bit rows.
DENSE_BYTES_CAP = 2**29
# The number-valued params of each potential kind (table_random's seed is an int).
POTENTIAL_NUMBERS = {
    "constant": ("value",),
    "first_coord": ("scale", "offset"),
    "table_random": ("low", "high"),
}


class ConfigError(ValueError):
    """Invalid run configuration; message carries the offending key path."""


def _need(d, key, path):
    if key not in d:
        raise ConfigError(f"config key {path}.{key}: missing")
    return d[key]


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config {path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path}: top level must be an object")
    validate_config(cfg)
    return cfg


def _number(val) -> bool:
    return isinstance(val, (int, float)) and not isinstance(val, bool)


def _int(val) -> bool:
    return isinstance(val, int) and not isinstance(val, bool)


def _positive(val, path):
    if not (_number(val) and val > 0):
        raise ConfigError(f"config key {path}: must be a number > 0")


def _count(val, path):
    if not (_int(val) and val >= 1):
        raise ConfigError(f"config key {path}: must be an int >= 1")


def _seed(val, path):
    # numpy's default_rng rejects negative seeds
    if not (_int(val) and val >= 0):
        raise ConfigError(f"config key {path}: must be an int >= 0")


def _check_potential(spec, path):
    """Type-check a potential spec's params before its constructor sees them."""
    params = spec.get("params", {}) if isinstance(spec, dict) else None
    if not isinstance(params, dict):
        raise ConfigError(f"config key {path}: must be an object whose params is an object")
    for key in POTENTIAL_NUMBERS.get(spec.get("kind"), ()):
        if key in params and not _number(params[key]):
            raise ConfigError(f"config key {path}.params.{key}: must be a number")
    if spec.get("kind") == "table_random" and "seed" in params:
        _seed(params["seed"], f"{path}.params.seed")


def _check_finite_budget(n_range: list, size: int, path: str):
    """Reject a finite system too slow to build or too large to measure."""
    if size > FINITE_POINTS_CAP:
        raise ConfigError(
            f"config key {path}: {size} points exceed the {FINITE_POINTS_CAP}-point "
            f"budget of a finite system's O(N^3) build"
        )
    _check_dense_budget(n_range, size, path)


def _check_dense_budget(n_range: list, size: int, path: str):
    n_max = max(n_range)
    need = 8 * size * size * n_max
    if need > DENSE_BYTES_CAP:
        raise ConfigError(
            f"config key {path}: {size} points need {need} bytes of cached "
            f"d_n matrices for n <= {n_max}, above the {DENSE_BYTES_CAP}-byte budget"
        )


def validate_config(cfg: dict):
    _need(cfg, "system", "config")
    eps = _need(cfg, "eps_list", "config")
    if (
        not isinstance(eps, list)
        or len(eps) < 3
        or not all(_number(e) and 0.0 < e < 1.0 for e in eps)
        or any(a <= b for a, b in zip(eps, eps[1:]))
    ):
        raise ConfigError(
            "config key eps_list: need >= 3 strictly decreasing values in (0,1)"
        )
    n_range = _need(cfg, "n_range", "config")
    if (
        not isinstance(n_range, list)
        or not all(_int(n) and n >= 1 for n in n_range)
        or len(set(n_range)) < 3
    ):
        raise ConfigError("config key n_range: need >= 3 distinct ints >= 1")
    system = cfg["system"]
    kind = system.get("kind") if isinstance(system, dict) else None
    for key in SYSTEM_INTS.get(kind, ()):
        if key in system and not _int(system[key]):
            raise ConfigError(f"config key system.{key}: must be an int")
    if kind in SHIFT_KINDS:
        # words of length L hold L orbit points; a table of n <= n_max needs n_max + 1
        length = system.get("L")
        if _int(length) and max(n_range) + 1 > length:
            raise ConfigError(
                f"config key n_range: max {max(n_range)} needs system.L >= "
                f"{max(n_range) + 1}, got {length}"
            )
    if kind == "finite_random":
        _count(_need(system, "size", "system"), "system.size")
        if "seed" in system:
            _seed(system["seed"], "system.seed")
        _check_finite_budget(n_range, system["size"], "system.size")
    if kind == "finite":
        table = system.get("map_table", [])
        if not (isinstance(table, list) and all(_int(t) for t in table)):
            raise ConfigError("config key system.map_table: must be a list of ints")
        if isinstance(system.get("dist_matrix"), list):
            _check_finite_budget(n_range, len(system["dist_matrix"]), "system.dist_matrix")
    _check_potential(cfg.get("potential", {}), "potential")
    sources = cfg.get("dictionary", {}).get("sources", [])
    if not isinstance(sources, list):
        raise ConfigError("config key dictionary.sources: must be a list")
    for i, spec in enumerate(sources):
        _check_potential(spec, f"dictionary.sources[{i}]")
    verify = cfg.get("verify", {})
    if "seed" in verify:
        _seed(verify["seed"], "verify.seed")
    if "draws" in verify:
        _count(verify["draws"], "verify.draws")
    if "eps" in verify and not (_number(verify["eps"]) and 0 < verify["eps"] < 1):
        raise ConfigError("config key verify.eps: must be a number in (0,1)")
    if "n" in verify and not (_int(verify["n"]) and 1 <= verify["n"] <= max(n_range)):
        raise ConfigError(f"config key verify.n: must be an int in [1, {max(n_range)}]")
    tol = cfg.get("tolerances", {})
    for key, val in tol.items():
        if key == "bisection_tol":
            raise ConfigError("config key tolerances.bisection_tol: retired, set bowen.tol")
        if key != "tau_a":
            raise ConfigError(f"config key tolerances.{key}: unknown key")
        _positive(val, f"tolerances.{key}")
    if "tol" in cfg.get("bowen", {}):
        _positive(cfg["bowen"]["tol"], "bowen.tol")
    if "tau_a" in cfg.get("dictionary", {}):
        raise ConfigError("config key dictionary.tau_a: retired, set tolerances.tau_a")
    sample = cfg.get("sample", {"exhaustive": True})
    if "exhaustive" not in sample and (
        "count" not in sample or "seed" not in sample
    ):
        raise ConfigError("config key sample: need exhaustive or count+seed")
    if "count" in sample:
        _count(sample["count"], "sample.count")
    if "seed" in sample:
        _seed(sample["seed"], "sample.seed")


@contextmanager
def _section(path: str):
    """Turn a constructor's ValueError into a ConfigError naming ``path``."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"config key {path}: {exc}") from exc


def build_system(spec: dict) -> "zoo.System":
    kind = _need(spec, "kind", "system")
    with _section("system"):
        if kind == "one_point":
            return zoo.make_finite_system([[0.0]], [0], name="one_point")
        if kind == "finite":
            return zoo.make_finite_system(
                _need(spec, "dist_matrix", "system"), _need(spec, "map_table", "system")
            )
        if kind == "finite_random":
            return zoo.random_finite_system(
                int(_need(spec, "size", "system")), int(_need(spec, "seed", "system"))
            )
        if kind == "full_shift":
            return zoo.make_full_shift(
                int(_need(spec, "m", "system")), int(_need(spec, "L", "system"))
            )
        if kind == "grid_shift":
            return zoo.make_grid_shift(
                int(_need(spec, "D", "system")),
                int(_need(spec, "m", "system")),
                int(_need(spec, "L", "system")),
            )
    raise ConfigError(f"config key system.kind: unknown kind {kind!r}")


def build_potential(spec: dict, system: "zoo.System") -> "zoo.Potential":
    kind = _need(spec, "kind", "potential")
    params = spec.get("params", {})
    with _section("potential"):
        if kind == "constant":
            return zoo.constant_potential(float(_need(params, "value", "potential.params")))
        if kind == "first_coord":
            return zoo.first_coord_potential(
                system,
                scale=float(params.get("scale", 1.0)),
                offset=float(params.get("offset", 0.0)),
            )
        if kind == "table_random":
            if system.points is None:
                raise ConfigError("potential.kind table_random needs a finite system")
            return zoo.random_table_potential(
                system,
                int(_need(params, "seed", "potential.params")),
                low=float(params.get("low", -1.0)),
                high=float(params.get("high", 1.0)),
            )
    raise ConfigError(f"config key potential.kind: unknown kind {kind!r}")


def build_sample(cfg: dict, system: "zoo.System") -> list:
    """The sample points; rejects samples whose distance cache would not fit."""
    sample = cfg.get("sample", {"exhaustive": True})
    if system.points is None and system.levels is None and not sample.get("exhaustive"):
        _check_dense_budget(cfg["n_range"], int(sample["count"]), "sample")
    if sample.get("exhaustive"):
        if system.points is not None:
            return list(system.points)
        spec = cfg["system"]
        if spec["kind"] == "full_shift":
            m, L = int(spec["m"]), int(spec["L"])
            if m**L > EXHAUSTIVE_CAP:
                raise ConfigError(
                    f"config key sample: exhaustive full shift too large ({m}^{L})"
                )
            return zoo.enumerate_words(m, L)
        raise ConfigError(
            "config key sample: exhaustive sampling needs a finite or full-shift system"
        )
    return system.sample(int(sample["count"]), int(sample["seed"]))
