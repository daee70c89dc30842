"""Scenario files: named observers, maps, grid, and tolerances in JSON.

A scenario is the single input format of the command line tools.  The
loader is strict: unknown keys, unknown kinds, dangling references, and
reference cycles are all hard errors, so a typo cannot silently change
what a run measures.

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

``fd_step`` is in units of the grid diameter; radar charts are built
with the absolute step ``fd_step * diameter``.
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
        try:
            return self.observers[name]
        except KeyError:
            raise ScenarioError(
                f"no observer named {name!r}; have {sorted(self.observers)}"
            ) from None

    def map(self, name: str):
        try:
            return self.maps[name]
        except KeyError:
            raise ScenarioError(
                f"no map named {name!r}; have {sorted(self.maps)}"
            ) from None

    def chart(self, obs: Observer) -> MarzkeWheelerMap:
        """Radar chart of an observer under this scenario's tolerances."""
        return MarzkeWheelerMap(
            obs,
            root_tol=self.tolerances.root_tol,
            fd_step=self.tolerances.fd_step * self.grid.diameter,
        )


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


class _Builder:
    """Resolves named observer and map definitions, catching cycles."""

    def __init__(self, raw_observers, raw_maps, scenario: Scenario):
        self.raw_observers = raw_observers
        self.raw_maps = raw_maps
        self.scenario = scenario
        self.stack: list[str] = []

    def _enter(self, label: str):
        if label in self.stack:
            cycle = " -> ".join(self.stack + [label])
            raise ScenarioError(f"reference cycle: {cycle}")
        self.stack.append(label)

    def observer(self, name: str) -> Observer:
        name = _string(name, "observer reference")
        if name in self.scenario.observers:
            return self.scenario.observers[name]
        if name not in self.raw_observers:
            raise ScenarioError(f"observer {name!r} is not defined")
        self._enter(f"observer {name}")
        try:
            obs = self._build_observer(name, self.raw_observers[name])
        finally:
            self.stack.pop()
        self.scenario.observers[name] = obs
        return obs

    def _build_observer(self, name: str, table) -> Observer:
        where = f"observers.{name}"
        table = _require_table(table, where)
        kind = _string(table.get("kind", ""), f"{where}.kind")
        ctx = self.scenario.ctx
        try:
            if kind == "inertial":
                _no_extras(table, {"kind", "v", "base_t", "base_x"}, where)
                base = SplitComplex(
                    _number(table.get("base_t", 0.0), f"{where}.base_t"),
                    _number(table.get("base_x", 0.0), f"{where}.base_x"),
                )
                return Inertial(_number(table.get("v"), f"{where}.v"), base, ctx)
            if kind == "rindler":
                _no_extras(table, {"kind", "a"}, where)
                return Rindler(_number(table.get("a"), f"{where}.a"), ctx)
            if kind == "perturbed_inertial":
                _no_extras(table, {"kind", "amplitude", "frequency"}, where)
                return PerturbedInertial(
                    _number(table.get("amplitude"), f"{where}.amplitude"),
                    _number(table.get("frequency"), f"{where}.frequency"),
                )
            if kind == "piecewise_linear":
                _no_extras(table, {"kind", "vertices"}, where)
                vertices = table.get("vertices")
                if not isinstance(vertices, list):
                    raise ScenarioError(f"{where}.vertices must be a list")
                return PiecewiseLinear(vertices)
            if kind == "sum":
                _no_extras(table, {"kind", "of"}, where)
                names = table.get("of")
                if not isinstance(names, list) or not names:
                    raise ScenarioError(f"{where}.of must be a nonempty list")
                children = [self.observer(child) for child in names]
                total = children[0]
                for child in children[1:]:
                    total = total + child
                return total
            if kind == "boosted":
                _no_extras(table, {"kind", "v", "of"}, where)
                child = self.observer(table.get("of"))
                return child.boosted(_number(table.get("v"), f"{where}.v"), ctx)
            if kind == "translated":
                _no_extras(table, {"kind", "dt", "dx", "of"}, where)
                child = self.observer(table.get("of"))
                offset = SplitComplex(
                    _number(table.get("dt", 0.0), f"{where}.dt"),
                    _number(table.get("dx", 0.0), f"{where}.dx"),
                )
                return child.translated(offset)
        except ScenarioError:
            raise
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"bad {where}: {exc}") from exc
        raise ScenarioError(f"{where}.kind = {kind!r} is not a known observer kind")

    def map(self, name: str):
        name = _string(name, "map reference")
        if name in self.scenario.maps:
            return self.scenario.maps[name]
        if name not in self.raw_maps:
            raise ScenarioError(f"map {name!r} is not defined")
        self._enter(f"map {name}")
        try:
            built = self._build_map(name, self.raw_maps[name])
        finally:
            self.stack.pop()
        self.scenario.maps[name] = built
        return built

    def _build_map(self, name: str, table):
        where = f"maps.{name}"
        table = _require_table(table, where)
        kind = _string(table.get("kind", ""), f"{where}.kind")
        try:
            if kind == "mw":
                _no_extras(table, {"kind", "observer"}, where)
                obs = self.observer(table.get("observer"))
                return self.scenario.chart(obs)
            if kind == "pre_conj":
                _no_extras(table, {"kind", "of"}, where)
                return ConjugateInput(self.map(table.get("of")))
            if kind == "post_conj":
                _no_extras(table, {"kind", "of"}, where)
                return ConjugateOutput(self.map(table.get("of")))
            if kind == "sum":
                _no_extras(table, {"kind", "of"}, where)
                names = table.get("of")
                if not isinstance(names, list) or not names:
                    raise ScenarioError(f"{where}.of must be a nonempty list")
                return MapSum([self.map(child) for child in names])
            if kind == "affine_lorentz":
                _no_extras(
                    table, {"kind", "v", "scale", "offset_t", "offset_x"}, where
                )
                u = two_velocity(
                    _number(table.get("v", 0.0), f"{where}.v"), self.scenario.ctx
                )
                offset = SplitComplex(
                    _number(table.get("offset_t", 0.0), f"{where}.offset_t"),
                    _number(table.get("offset_x", 0.0), f"{where}.offset_x"),
                )
                return AffineLorentzMap(
                    u, _number(table.get("scale", 1.0), f"{where}.scale"), offset
                )
        except ScenarioError:
            raise
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"bad {where}: {exc}") from exc
        raise ScenarioError(f"{where}.kind = {kind!r} is not a known map kind")


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

    raw_observers = _require_table(data.get("observers", {}), "observers")
    raw_maps = _require_table(data.get("maps", {}), "maps")
    builder = _Builder(raw_observers, raw_maps, scenario)
    for name in raw_observers:
        builder.observer(name)
    for name in raw_maps:
        builder.map(name)
    return scenario


def load_scenario(path: str) -> Scenario:
    """Read and build a scenario from a JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario {path!r} is not valid JSON: {exc}") from exc
    return parse_scenario(data)
