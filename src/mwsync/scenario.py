"""Scenario files: named observers, maps, grid, and tolerances in JSON.

A scenario is the single input format of the command line tools.  The
loader is strict: unknown or missing keys, unknown kinds, dangling
references, and reference cycles are all hard errors, so a typo cannot
silently change what a run measures.

Schema (all numbers JSON numbers, all names strings)::

    {
      "c": 1.0,                      optional, default 1.0
      "seed": 0,                     optional, default 0, non-negative
      "grid": {                      optional, default box [-2,2]^2, 33x33
        "t_min": -2.0, "t_max": 2.0,
        "x_min": -2.0, "x_max": 2.0,
        "n_t": 33, "n_x": 33,
        "h": 0.0125                  optional, default min spacing / 10
      },
      "tolerances": {                optional, all fields optional
        "null_band": 1e-9, "root_tol": 1e-12,
        "quad_tol": 1e-10, "fd_step": 1e-5
      },
      "observers": {
        "lab":    {"kind": "inertial", "v": 0.0, "base_t": 0.0, "base_x": 0.0},
        "rocket": {"kind": "rindler", "a": 1.0},
        "wobble": {"kind": "perturbed_inertial", "amplitude": 0.1, "frequency": 2.0},
        "zigzag": {"kind": "piecewise_linear", "vertices": [[0,0],[1,0.5],[2,0]]},
        "both":   {"kind": "sum", "of": ["lab", "wobble"]},
        "moving": {"kind": "boosted", "v": 0.5, "of": "rocket"},
        "there":  {"kind": "translated", "dt": 0.0, "dx": 1.0, "of": "lab"}
      },
      "maps": {
        "chart":   {"kind": "mw", "observer": "rocket"},
        "flipped": {"kind": "pre_conj", "of": "chart"},
        "mirror":  {"kind": "post_conj", "of": "chart"},
        "low":     {"kind": "sum", "of": ["chart", "flipped"]},
        "boostmap":{"kind": "affine_lorentz", "v": 0.5, "scale": 1.0,
                    "offset_t": 0.0, "offset_x": 0.0}
      }
    }

``fd_step`` and ``root_tol`` are accepted and validated, so existing
scenarios keep loading, but reach nothing: a radar chart's conformal
factor is read off the observer's velocity, and the suite's round trip
is held to a rounding bound worked out from the observer.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .algebra import LightspeedContext, SplitComplex, two_velocity
from .errors import ScenarioError
from .fieldcheck import (
    AffineLorentzMap,
    ConjugateInput,
    ConjugateOutput,
    GridSpec,
    MapSum,
)
from .mwmap import MarzkeWheelerMap
from .observers import (
    Inertial,
    Observer,
    PerturbedInertial,
    PiecewiseLinear,
    Rindler,
    SumObserver,
)

__all__ = ["Tolerances", "Scenario", "parse_scenario", "load_scenario"]

_DEFAULT_GRID = dict(t_min=-2.0, t_max=2.0, x_min=-2.0, x_max=2.0, n_t=33, n_x=33)


@dataclass(frozen=True)
class Tolerances:
    """The fixed tolerance set a scenario runs under."""

    null_band: float = 1e-9
    root_tol: float = 1e-12
    quad_tol: float = 1e-10
    fd_step: float = 1e-5

    def __post_init__(self):
        for key, value in vars(self).items():
            value = float(value)
            if not math.isfinite(value) or value <= 0.0:
                raise ValueError(f"{key} must be a positive number, got {value!r}")
            object.__setattr__(self, key, value)


@dataclass
class Scenario:
    c: float
    seed: int
    grid: GridSpec
    tolerances: Tolerances
    observers: dict[str, Observer] = field(default_factory=dict)
    maps: dict[str, object] = field(default_factory=dict)

    @property
    def ctx(self) -> LightspeedContext:
        return LightspeedContext(self.c)

    def observer(self, name: str) -> Observer:
        return self._lookup("observers", name)

    def map(self, name: str):
        return self._lookup("maps", name)

    def _lookup(self, section: str, name: str):
        built = getattr(self, section)
        if name not in built:
            raise ScenarioError(
                f"no {section[:-1]} named {name!r}; have {sorted(built)}")
        return built[name]


def _require_table(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioError(f"{where} must be a table, got {type(value).__name__}")
    return value


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{where} must be a number, got {value!r}")
    return float(value)


def _integer(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{where} must be an integer, got {value!r}")
    return value


def _string(value, where: str) -> str:
    if not isinstance(value, str):
        raise ScenarioError(f"{where} must be a string, got {value!r}")
    return value


def _no_extras(table: dict, allowed, where: str):
    unknown = set(table) - set(allowed)
    if unknown:
        raise ScenarioError(
            f"unknown keys in {where}: {sorted(unknown)}; allowed: {sorted(allowed)}"
        )


def _parse_grid(table) -> GridSpec:
    table = _require_table(table, "grid")
    _no_extras(table, set(_DEFAULT_GRID) | {"h"}, "grid")
    merged = dict(_DEFAULT_GRID, **table)
    try:
        return GridSpec(
            t_min=_number(merged["t_min"], "grid.t_min"),
            t_max=_number(merged["t_max"], "grid.t_max"),
            x_min=_number(merged["x_min"], "grid.x_min"),
            x_max=_number(merged["x_max"], "grid.x_max"),
            n_t=_integer(merged["n_t"], "grid.n_t"),
            n_x=_integer(merged["n_x"], "grid.n_x"),
            h=_number(merged["h"], "grid.h") if "h" in table else None,
        )
    except ValueError as exc:
        raise ScenarioError(f"bad grid: {exc}") from exc


def _parse_tolerances(table) -> Tolerances:
    table = _require_table(table, "tolerances")
    defaults = Tolerances()
    _no_extras(table, vars(defaults), "tolerances")
    values = {
        key: _number(table[key], f"tolerances.{key}")
        for key in table
    }
    try:
        return Tolerances(**{**vars(defaults), **values})
    except ValueError as exc:
        raise ScenarioError(f"bad tolerances: {exc}") from exc


class _Entry:
    """Typed reads of one observer or map definition ``table`` at ``where``."""

    def __init__(self, builder: "_Builder", table: dict, where: str):
        self.builder, self.table, self.where = builder, table, where
        self.ctx = builder.scenario.ctx

    def _get(self, key: str, default=None):
        """``table[key]``, else ``default``; absent with no default is an error."""
        if key in self.table:
            return self.table[key]
        if default is None:
            raise ScenarioError(f"{self.where}.{key} is missing")
        return default

    def number(self, key: str, default=None) -> float:
        return _number(self._get(key, default), f"{self.where}.{key}")

    def point(self, t_key: str, x_key: str) -> SplitComplex:
        return SplitComplex(self.number(t_key, 0.0), self.number(x_key, 0.0))

    def array(self, key: str, nonempty: bool = False) -> list:
        value = self._get(key)
        if not isinstance(value, list) or (nonempty and not value):
            raise ScenarioError(
                f"{self.where}.{key} must be a {'nonempty ' * nonempty}list"
            )
        return value

    def pairs(self, key: str):
        """Each ``[t, x]`` of the list at ``key``, read as two numbers."""
        for i, pair in enumerate(self.array(key)):
            where = f"{self.where}.{key}[{i}]"
            if not (isinstance(pair, list) and len(pair) == 2):
                raise ScenarioError(f"{where} must be a pair [t, x], got {pair!r}")
            yield tuple(_number(v, f"{where}[{j}]") for j, v in enumerate(pair))

    def ref(self, section: str, key: str = "of"):
        return self.builder.resolve(section, self._get(key))

    def refs(self, section: str) -> list:
        return [self.builder.resolve(section, n) for n in self.array("of", True)]


# Section -> kind -> (keys besides "kind", builder of an _Entry).  Keyword
# arguments follow the order in which the fields are checked, so an entry
# reports its first bad field.
_KINDS = {
    "observers": {
        "inertial": (("v", "base_t", "base_x"), lambda e: Inertial(
            base=e.point("base_t", "base_x"), v=e.number("v"), ctx=e.ctx)),
        "rindler": (("a",), lambda e: Rindler(e.number("a"), e.ctx)),
        "perturbed_inertial": (("amplitude", "frequency"), lambda e: PerturbedInertial(
            e.number("amplitude"), e.number("frequency"))),
        "piecewise_linear": (("vertices",), lambda e: PiecewiseLinear(e.pairs("vertices"))),
        "sum": (("of",), lambda e: SumObserver(e.refs("observers"))),
        "boosted": (("v", "of"), lambda e: e.ref("observers").boosted(
            e.number("v"), e.ctx)),
        "translated": (("dt", "dx", "of"), lambda e: e.ref("observers").translated(
            e.point("dt", "dx"))),
    },
    "maps": {
        "mw": (("observer",), lambda e: MarzkeWheelerMap(e.ref("observers", "observer"))),
        "pre_conj": (("of",), lambda e: ConjugateInput(e.ref("maps"))),
        "post_conj": (("of",), lambda e: ConjugateOutput(e.ref("maps"))),
        "sum": (("of",), lambda e: MapSum(e.refs("maps"))),
        "affine_lorentz": (
            ("v", "scale", "offset_t", "offset_x"),
            lambda e: AffineLorentzMap(u=two_velocity(e.number("v", 0.0), e.ctx),
                                       offset=e.point("offset_t", "offset_x"),
                                       scale=e.number("scale", 1.0)),
        ),
    },
}


class _Builder:
    """Resolves named observer and map definitions, catching cycles."""

    def __init__(self, raw: dict, scenario: Scenario):
        self.raw = raw  # section -> name -> definition table
        self.scenario = scenario
        self.stack: list[str] = []

    def resolve(self, section: str, name):
        """The built object ``name`` of ``section`` ("observers" or "maps")."""
        noun = section[:-1]
        name = _string(name, f"{noun} reference")
        built = getattr(self.scenario, section)
        if name in built:
            return built[name]
        if name not in self.raw[section]:
            raise ScenarioError(f"{noun} {name!r} is not defined")
        label = f"{noun} {name}"
        if label in self.stack:
            cycle = " -> ".join(self.stack + [label])
            raise ScenarioError(f"reference cycle: {cycle}")
        self.stack.append(label)
        try:
            built[name] = self._build(section, name, self.raw[section][name])
        finally:
            self.stack.pop()
        return built[name]

    def _build(self, section: str, name: str, table):
        where = f"{section}.{name}"
        table = _require_table(table, where)
        kind = _string(table.get("kind", ""), f"{where}.kind")
        if kind not in _KINDS[section]:
            raise ScenarioError(
                f"{where}.kind = {kind!r} is not a known {section[:-1]} kind"
            )
        keys, build = _KINDS[section][kind]
        _no_extras(table, ("kind", *keys), where)
        try:
            return build(_Entry(self, table, where))
        except ScenarioError:
            raise
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"bad {where}: {exc}") from exc


def parse_scenario(data: dict) -> Scenario:
    """Build a scenario from already-parsed JSON data."""
    data = _require_table(data, "scenario")
    _no_extras(
        data, {"c", "seed", "grid", "tolerances", "observers", "maps"}, "scenario"
    )
    c = _number(data.get("c", 1.0), "c")
    if not (math.isfinite(c) and c > 0.0):
        raise ScenarioError(f"c must be positive and finite, got {c!r}")
    seed = _integer(data.get("seed", 0), "seed")
    if seed < 0:
        raise ScenarioError(f"seed must be non-negative, got {seed!r}")
    grid = _parse_grid(data.get("grid", {}))
    tolerances = _parse_tolerances(data.get("tolerances", {}))
    scenario = Scenario(c=c, seed=seed, grid=grid, tolerances=tolerances)

    raw = {key: _require_table(data.get(key, {}), key) for key in _KINDS}
    builder = _Builder(raw, scenario)
    for section, names in raw.items():
        for name in names:
            builder.resolve(section, name)
    return scenario


def load_scenario(path: str) -> Scenario:
    """Read and build a scenario from a JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {path!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"scenario {path!r} is not valid UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario {path!r} is not valid JSON: {exc}") from exc
    return parse_scenario(data)
