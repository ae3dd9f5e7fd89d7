"""Run configuration: one structured JSON file per run.

``CONFIG`` below is the exact key set: every key, the check its value
must pass and its default.  ``load_config`` walks it and returns the
config with every default filled in; README's "Config keys" block is
rendered from it.

No hidden randomness: every stochastic choice takes a seed from the file.
"""

from contextlib import contextmanager
import json
import math

from . import system_zoo as zoo

TAU_A = 0.05  # default bound on a member certificate's |proxy|
BOWEN_TOL = 1e-10  # default bound on |proxy(-s0 f)| at the returned root

# Words of an exhaustive full shift, m^L: one (N, L, 1) array of int letters
# (int8 up to m = 128).  An estimate peaked at 33 MB at 2^13 and 45 MB at 2^16, bowen at 35 MB and
# 61 MB (2 vCPUs); the max-min command is what binds, as its equilibrium
# candidates are still quadratic in N.  Checked with the config, before the
# build, and by that command against a sampled count too: at L = 12 a 1024-word sample
# wrote a 14 MB report at 50 MB peak and 2048 words 56 MB at 86 MB.
EXHAUSTIVE_CAP = 8192
# Points of a finite system: its build, an O(N^3) metric check (after an
# O(N^3) closure for finite_random), takes about 7 s at N = 1024 and 10 s at
# N = 1200 on 2 vCPUs.  Checked with the config, before the build.
FINITE_POINTS_CAP = 1024
# Budget for a finite system's packed close rows, one ceil(N/8) * N-byte table
# per (step, eps) read: steps k < n_max at each eps and step 0 at each eps/2,
# and verify's k < verify.n at its eps and eps/2.  At N = 1024 and 3 eps an
# estimate peaked at 84 MB with n_max = 64 and 464 MB at n_max = 1024 (2 vCPUs).
# Checked with the config, after FINITE_POINTS_CAP.
DENSE_BYTES_CAP = 2**29
# Letters of a full or grid shift, m^D (D = 1 on a full shift): a sample
# draws letter codes below m^D and splits them into D lattice digits, and no
# alphabet is built, so an estimate of 16 words peaked at 37 MB both at 2^16
# letters and at 2^20 (D = 2 or 20, 2 vCPUs).  The cap keeps every letter code
# far inside int64, where the draw needs it.  Checked with the config, before
# the build.
GRID_LETTERS_CAP = 2**16
# Letter coordinates of a sampled shift, count * L * D (D = 1 for the full
# shift): its words are one small-int (N, L, D) array, drawn as (N, L) int64
# letter codes.  At 2^20 an estimate peaked at 40-55 MB (full shift, grids at
# D = 2 and D = 16), against 37 MB at 2^15; at 2^21 it took 45-71 MB, and
# count = L = 2000 on the full shift 70 MB (2 vCPUs).  It also holds a
# finite system's N * max(n_range) step entries.  At the longest orbits it
# admits, one_point at max(n_range) = 2^20 and count 1 at L = 2^20, an
# estimate took 0.12-0.16 s at 58 MB and 0.21-0.25 s at 93 MB, 28 MB of it
# the imports.  Checked with the config, before the sample.
SAMPLE_COORDS_CAP = 2**20
# Lattice cells of a sampled grid shift, count * m: a packed close-row table
# relates each of the V <= min(count, m) letters present at a coordinate to
# every word, a V x N bool array.  At D = 1, N = 2000 an estimate peaked at
# 64 MB with 2^22 cells (m = 2049, 2 vCPUs).  Checked before the sample.
GRID_LATTICE_CAP = 2**22

REQUIRED = object()  # the default of a key that must be given


class ConfigError(ValueError):
    """Invalid run configuration; message carries the offending key path."""


def _fail(path, msg):
    raise ConfigError(f"config key {path}: {msg}")


def _number(val) -> bool:
    return isinstance(val, (int, float)) and not isinstance(val, bool) and math.isfinite(val)


def _int(val) -> bool:
    return isinstance(val, int) and not isinstance(val, bool)


class Leaf:
    """A value that must pass ``ok``; ``cast`` gives the value it stands for."""

    def __init__(self, doc, ok, cast=None):
        self.doc, self.ok, self.cast = doc, ok, cast

    def __call__(self, val, path):
        if isinstance(val, float) and not math.isfinite(val):
            _fail(path, f"must be finite, not {val}")  # json reads NaN and Infinity
        if not self.ok(val):
            _fail(path, f"must be {self.doc}")
        return self.cast(val) if self.cast else val


class ListOf:
    """A list whose every item passes ``item``."""

    def __init__(self, doc, item):
        self.doc, self.item = doc, item

    def __call__(self, val, path):
        if not isinstance(val, list):
            _fail(path, f"must be {self.doc}")
        return [self.item(v, f"{path}[{i}]") for i, v in enumerate(val)]


class Section:
    """An object whose keys are those of ``keys``, each mapped to its check
    (a required key) or to (check, default) with default None for an
    optional key without one.  ``rule`` checks the filled section."""

    def __init__(self, keys, rule=None, retired=None):
        self.keys, self.rule, self.retired = keys, rule, retired or {}

    def __call__(self, val, path):
        if not isinstance(val, dict):
            _fail(path, "must be an object")
        for key in val:
            if key not in self.keys:
                new = self.retired.get(key)
                _fail(_join(path, key), f"retired, set {new}" if new else "unknown key")
        out = {}
        for key, spec in self.keys.items():
            check, default = spec if isinstance(spec, tuple) else (spec, REQUIRED)
            if key in val:
                out[key] = check(val[key], _join(path, key))
            elif default is REQUIRED:
                _fail(_join(path, key), "missing")
            elif default is not None:
                out[key] = check(default, _join(path, key))
        if self.rule:
            self.rule(out, path)
        return out


class Kinds:
    """An object {"kind": k, ...} whose other keys are the section of kind
    k; with ``nest`` set they sit in the sub-object of that name."""

    def __init__(self, kinds, nest=None):
        self.nest = nest
        self.kinds = {k: Section({nest: (s, {})}) for k, s in kinds.items()} if nest else kinds

    def __call__(self, val, path):
        if not isinstance(val, dict) or not isinstance(val.get(self.nest, {}), dict):
            _fail(path, f"must be an object whose {self.nest} is an object" if self.nest else "must be an object")
        if "kind" not in val:
            _fail(f"{path}.kind", "missing")
        kind = val["kind"]
        if not isinstance(kind, str) or kind not in self.kinds:
            _fail(f"{path}.kind", f"unknown kind {kind!r}")
        rest = {k: v for k, v in val.items() if k != "kind"}
        return {"kind": kind, **self.kinds[kind](rest, path)}


def _join(path, key):
    return f"{path}.{key}" if path else key


def _shift_letters(spec, path):
    """m^D <= GRID_LETTERS_CAP letters (D = 1 on a full shift)"""
    m, D = spec["m"], spec.get("D", 1)
    # m >= 2 makes m^D grow with D, so D beyond the cap's bit length is over it
    if m >= 2 and D >= 1 and m ** min(D, GRID_LETTERS_CAP.bit_length()) > GRID_LETTERS_CAP:
        _fail(path, f"{m}^{D} letters exceed the {GRID_LETTERS_CAP}-letter budget of a shift alphabet")


def _one_sampling(sample, path):
    """{"exhaustive": true}, or count and seed"""
    if set(sample) not in ({"exhaustive"}, {"count", "seed"}):
        _fail(path, "need exhaustive or count+seed")


def _across(cfg, path):
    """a full or grid shift needs L >= max(n_range) + 1 (words of length L
    hold L orbit points); an exhaustive shift is a full shift of at most
    EXHAUSTIVE_CAP words (m^L); a sampled shift has at most SAMPLE_COORDS_CAP
    letter coordinates (count * L * D), a sampled grid shift at most
    GRID_LATTICE_CAP lattice cells (count * m); a finite system samples
    every point (exhaustive, not count and seed) and has at most
    FINITE_POINTS_CAP points, DENSE_BYTES_CAP bytes of packed close rows
    and SAMPLE_COORDS_CAP step entries (points * max(n_range))"""
    system, sample = cfg["system"], cfg["sample"]
    n, n_max = cfg["verify"]["n"], max(cfg["n_range"])
    if not (_int(n) and 1 <= n <= n_max):
        _fail("verify.n", f"must be an int in [1, {n_max}]")
    if "L" in system and n_max + 1 > system["L"]:
        _fail("n_range", f"max {n_max} needs system.L >= {n_max + 1}, got {system['L']}")
    if "L" not in system and "exhaustive" not in sample:
        _fail("sample", f"a {system['kind']} system samples every point: set exhaustive, not count and seed")
    if "L" in system and "exhaustive" in sample:
        if system["kind"] != "full_shift":
            _fail("sample", "exhaustive sampling needs a finite or full-shift system")
        m, L = system["m"], system["L"]
        if m >= 2 and m ** min(L, EXHAUSTIVE_CAP.bit_length()) > EXHAUSTIVE_CAP:  # no m^L bignum
            _fail("sample", f"exhaustive full shift too large ({m}^{L})")
    if "L" in system and "count" in sample:
        coords = sample["count"] * system["L"] * system.get("D", 1)
        if coords > SAMPLE_COORDS_CAP:
            _fail("sample", f"{coords} letter coordinates exceed the {SAMPLE_COORDS_CAP}-coordinate budget of a sampled shift")
        if system["kind"] == "grid_shift" and sample["count"] * system["m"] > GRID_LATTICE_CAP:
            _fail("sample", f"{sample['count']} words of {system['m']} levels exceed the "
                            f"{GRID_LATTICE_CAP}-cell budget of the grid's lattice rows")
    if "L" not in system:  # one_point, finite or finite_random
        size, path = 1, "system"
        if system["kind"] == "finite":
            size, path = len(system["dist_matrix"]), "system.dist_matrix"
        elif system["kind"] == "finite_random":
            size, path = system["size"], "system.size"
        if size > FINITE_POINTS_CAP:
            _fail(path, f"{size} points exceed the {FINITE_POINTS_CAP}-point budget of a finite system's O(N^3) build")
        tables = (n_max + 1) * len(cfg["eps_list"]) + 2 * n
        need = -(-size // 8) * size * tables
        if need > DENSE_BYTES_CAP:
            _fail(path, f"{size} points need {need} bytes of packed close rows in {tables} (step, eps) "
                        f"tables, above the {DENSE_BYTES_CAP}-byte budget")
        if size * n_max > SAMPLE_COORDS_CAP:
            _fail("n_range", f"{size} points x {n_max} steps = {size * n_max} step entries exceed the "
                             f"{SAMPLE_COORDS_CAP}-entry budget of a finite system's step data")


NUMBER = Leaf("a number", _number, float)
INT = Leaf("an int", _int)
COUNT = Leaf("an int >= 1", lambda v: _int(v) and v >= 1)
SEED = Leaf("an int >= 0", lambda v: _int(v) and v >= 0)  # numpy's default_rng rejects negative seeds
POSITIVE = Leaf("a number > 0", lambda v: _number(v) and v > 0, float)
UNIT = Leaf("a number in (0,1)", lambda v: _number(v) and 0 < v < 1, float)

SYSTEM = Kinds({
    "one_point": Section({}),
    "finite": Section({
        "dist_matrix": ListOf("a list of rows of numbers", Leaf(
            "a list of numbers", lambda v: isinstance(v, list) and all(map(_number, v)))),
        "map_table": Leaf("a list of ints", lambda v: isinstance(v, list) and all(_int(t) for t in v)),
    }),
    "finite_random": Section({"size": COUNT, "seed": SEED}),
    "full_shift": Section({"m": INT, "L": INT}, rule=_shift_letters),
    "grid_shift": Section({"D": INT, "m": INT, "L": INT}, rule=_shift_letters),
})
POTENTIAL = Kinds({
    "constant": Section({"value": NUMBER}),
    "first_coord": Section({"scale": (NUMBER, 1.0), "offset": (NUMBER, 0.0)}),
    "table_random": Section({"seed": SEED, "low": (NUMBER, -1.0), "high": (NUMBER, 1.0)}),
}, nest="params")
CONFIG = Section({
    "system": SYSTEM,
    "potential": (POTENTIAL, {"kind": "constant", "params": {"value": 0.0}}),
    "sample": (Section({"exhaustive": (Leaf("true", lambda v: v is True), None), "count": (COUNT, None),
                        "seed": (SEED, None)}, rule=_one_sampling), {"exhaustive": True}),
    "eps_list": Leaf(
        "a list of >= 3 strictly decreasing numbers in (0,1), distinct in float log(1/eps)",
        lambda v: isinstance(v, list) and len(v) >= 3 and all(_number(e) and 0 < e < 1 for e in v)
        and all(a > b and math.log(1.0 / a) < math.log(1.0 / b) for a, b in zip(v, v[1:])),
        lambda v: [float(e) for e in v],
    ),
    "n_range": Leaf(
        "a list of >= 3 distinct ints >= 1",
        lambda v: isinstance(v, list) and all(_int(n) and n >= 1 for n in v) and len(set(v)) >= 3,
    ),
    "dictionary": (Section({"sources": (ListOf("a list of potential specs", POTENTIAL), [])},
                           retired={"tau_a": "tolerances.tau_a"}), {}),
    # verify.n is bounded by n_range, so _across checks it
    "verify": (Section({"seed": (SEED, 0), "draws": (COUNT, 20),
                        "n": (Leaf("an int in [1, max(n_range)]", lambda v: True), 2),
                        "eps": (UNIT, 0.35)}), {}),
    "bowen": (Section({"tol": (POSITIVE, BOWEN_TOL)}), {}),
    "tolerances": (Section({"tau_a": (POSITIVE, TAU_A)}, retired={"bisection_tol": "bowen.tol"}), {}),
    "out": (Leaf("a non-empty string", lambda v: isinstance(v, str) and v != ""), "out"),
}, rule=_across)


def load_config(path: str) -> dict:
    """The config at ``path``, checked, with every default filled in."""
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
    return validate_config(cfg)


def validate_config(cfg: dict) -> dict:
    """``cfg`` walked through ``CONFIG``: the config with every default filled in."""
    return CONFIG(cfg, "")


@contextmanager
def _errors_of(path: str):
    """Turn a constructor's ValueError into a ConfigError naming ``path``."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"config key {path}: {exc}") from exc


def build_system(spec: dict) -> "zoo.System":
    """The system of a checked ``system`` section."""
    kind = spec["kind"]
    with _errors_of("system"):
        if kind == "one_point":
            return zoo.make_finite_system([[0.0]], [0], name="one_point")
        if kind == "finite":
            return zoo.make_finite_system(spec["dist_matrix"], spec["map_table"])
        if kind == "finite_random":
            return zoo.random_finite_system(spec["size"], spec["seed"])
        if kind == "full_shift":
            return zoo.make_full_shift(spec["m"], spec["L"])
        return zoo.make_grid_shift(spec["D"], spec["m"], spec["L"])


def build_potential(spec: dict, system: "zoo.System") -> "zoo.Potential":
    """The potential of a checked potential spec, on ``system``."""
    kind, params = spec["kind"], spec["params"]
    with _errors_of("potential"):
        if kind == "constant":
            return zoo.constant_potential(params["value"])
        if kind == "first_coord":
            return zoo.first_coord_potential(system, **params)
        if system.points is None:
            _fail("potential.kind", "table_random needs a finite system")
        return zoo.random_table_potential(system, **params)


def build_sample(cfg: dict, system: "zoo.System"):
    """The sample of a checked config: a shift's (N, L, D) lattice letters,
    or a finite system's point indices."""
    sample = cfg["sample"]
    if "exhaustive" not in sample:
        return system.sample(sample["count"], sample["seed"])
    if system.points is not None:
        return system.points
    return zoo.enumerate_words(cfg["system"]["m"], cfg["system"]["L"])
