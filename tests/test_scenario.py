"""Scenario file parsing and object graph construction."""

import json
import math

import pytest

from mwsync import (
    Inertial,
    MapSum,
    MarzkeWheelerMap,
    Rindler,
    ScenarioError,
    SplitComplex,
    load_scenario,
    parse_scenario,
)
from mwsync.cli import main


def test_empty_scenario_gets_defaults():
    sc = parse_scenario({})
    assert sc.c == 1.0
    assert sc.seed == 0
    assert sc.grid.t_min == -2.0 and sc.grid.n_t == 33
    assert sc.tolerances.null_band == 1e-9
    assert sc.tolerances.root_tol == 1e-12
    assert sc.observers == {} and sc.maps == {}


def test_full_round_trip(tmp_path):
    data = {
        "c": 1.0,
        "seed": 7,
        "grid": {"t_min": -1, "t_max": 1, "x_min": -1, "x_max": 1,
                 "n_t": 9, "n_x": 9},
        "tolerances": {"null_band": 1e-8},
        "observers": {
            "lab": {"kind": "inertial", "v": 0.0},
            "rocket": {"kind": "rindler", "a": 2.0},
            "shifted": {"kind": "translated", "dt": 0.0, "dx": 1.0, "of": "lab"},
            "pair": {"kind": "sum", "of": ["lab", "rocket"]},
        },
        "maps": {
            "chart": {"kind": "mw", "observer": "rocket"},
            "flipped": {"kind": "pre_conj", "of": "chart"},
            "both": {"kind": "sum", "of": ["chart", "flipped"]},
        },
    }
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(data))
    sc = load_scenario(path)
    assert sc.seed == 7
    assert isinstance(sc.observer("rocket"), Rindler)
    assert isinstance(sc.map("chart"), MarzkeWheelerMap)
    assert isinstance(sc.map("both"), MapSum)
    shifted = sc.observer("shifted")
    assert shifted(0.5) == SplitComplex(0.5, 1.0)
    pair = sc.observer("pair")
    assert pair(0.0) == Inertial(0.0)(0.0) + Rindler(2.0)(0.0)
    assert sc.tolerances.null_band == 1e-8
    assert sc.tolerances.root_tol == 1e-12  # untouched default


def test_lookup_errors_list_choices():
    sc = parse_scenario({"observers": {"lab": {"kind": "inertial", "v": 0.0}}})
    with pytest.raises(ScenarioError) as info:
        sc.observer("missing")
    assert str(info.value) == "no observer named 'missing'; have ['lab']"
    with pytest.raises(ScenarioError) as info:
        sc.map("missing")
    assert str(info.value) == "no map named 'missing'; have []"


# An absent required key is "missing"; an explicit null keeps the type
# error of any other wrong value.
@pytest.mark.parametrize("section, name, table, key, null_message", [
    ("observers", "r", {"kind": "rindler"}, "a",
     "observers.r.a must be a number, got None"),
    ("observers", "w", {"kind": "perturbed_inertial", "amplitude": 0.1}, "frequency",
     "observers.w.frequency must be a number, got None"),
    ("observers", "b", {"kind": "boosted", "v": 0.5}, "of",
     "observer reference must be a string, got None"),
    ("maps", "m", {"kind": "mw"}, "observer",
     "observer reference must be a string, got None"),
    ("observers", "z", {"kind": "piecewise_linear"}, "vertices",
     "observers.z.vertices must be a list"),
    ("maps", "m", {"kind": "sum"}, "of", "maps.m.of must be a nonempty list"),
], ids=["rindler.a", "perturbed_inertial.frequency", "boosted.of", "mw.observer",
        "piecewise_linear.vertices", "sum.of"])
def test_a_missing_required_key_is_named(
        tmp_path, capsys, section, name, table, key, null_message):
    with pytest.raises(ScenarioError) as info:
        parse_scenario({section: {name: table}})
    assert str(info.value) == f"{section}.{name}.{key} is missing"
    with pytest.raises(ScenarioError) as info:
        parse_scenario({section: {name: {**table, key: None}}})
    assert str(info.value) == null_message
    path = tmp_path / "sc.json"
    path.write_text(json.dumps({section: {name: table}}))
    assert main(["causal", "--scenario", str(path), "--map", "m"]) == 2
    assert capsys.readouterr().err == f"error: {section}.{name}.{key} is missing\n"


def test_chart_helper_scales_the_fd_step():
    sc = parse_scenario({
        "grid": {"t_min": 0, "t_max": 1, "x_min": 0, "x_max": 3,
                 "n_t": 9, "n_x": 9},
        "tolerances": {"fd_step": 1e-4},
        "observers": {"lab": {"kind": "inertial", "v": 0.0}},
    })
    chart = sc.chart(sc.observer("lab"))
    assert chart.fd_step == pytest.approx(3e-4)  # step times grid diameter


@pytest.mark.parametrize(
    "data, fragment",
    [
        ({"c": 0.0}, "c"),
        ({"c": True}, "number"),
        ({"seed": 1.5}, "integer"),
        ({"bogus": 1}, "bogus"),
        ({"grid": {"n_t": 2}}, "3 nodes"),
        ({"grid": {"h": "wide"}}, "number"),
        ({"tolerances": {"null_band": -1.0}}, "null_band"),
        ({"tolerances": {"extra": 1.0}}, "extra"),
        ({"observers": {"a": {"v": 0.0}}}, "kind"),
        ({"observers": {"a": {"kind": "warp", "v": 0.0}}}, "warp"),
        ({"observers": {"a": {"kind": "inertial"}}}, "v"),
        ({"observers": {"a": {"kind": "inertial", "v": 0.0, "spin": 1}}}, "spin"),
        ({"observers": {"a": {"kind": "rindler", "a": 0.0}}}, "acceleration"),
        ({"observers": {"a": {"kind": "piecewise_linear",
                              "vertices": [[0, 0]]}}}, "vertices"),
        ({"maps": {"m": {"kind": "mw", "observer": "ghost"}}}, "ghost"),
        ({"maps": {"m": {"kind": "sum", "of": []}}}, "of"),
        ({"c": math.inf}, "c must be positive and finite"),
        ({"c": math.nan}, "c must be positive and finite"),
        ({"seed": -3}, "non-negative"),
    ],
)
def test_validation_failures(data, fragment):
    with pytest.raises(ScenarioError, match=fragment):
        parse_scenario(data)


def test_speed_limit_violations_become_scenario_errors():
    with pytest.raises(ScenarioError):
        parse_scenario({"observers": {"a": {"kind": "inertial", "v": 2.0}}})


def test_cycles_are_detected():
    with pytest.raises(ScenarioError, match="cycle"):
        parse_scenario({"observers": {
            "a": {"kind": "boosted", "v": 0.5, "of": "b"},
            "b": {"kind": "boosted", "v": 0.5, "of": "a"},
        }})
    with pytest.raises(ScenarioError, match="cycle"):
        parse_scenario({"maps": {"m": {"kind": "sum", "of": ["m"]}}})


def test_load_scenario_errors(tmp_path):
    with pytest.raises(ScenarioError, match="cannot read"):
        load_scenario(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ScenarioError, match="not valid JSON"):
        load_scenario(bad)
    array = tmp_path / "array.json"
    array.write_text("[1, 2]")
    with pytest.raises(ScenarioError):
        load_scenario(array)


def test_shared_nodes_are_not_cycles():
    # diamond sharing is fine; only true recursion is refused
    sc = parse_scenario({
        "observers": {
            "lab": {"kind": "inertial", "v": 0.0},
            "left": {"kind": "translated", "dt": 0.0, "dx": -1.0, "of": "lab"},
            "right": {"kind": "translated", "dt": 0.0, "dx": 1.0, "of": "lab"},
            "both": {"kind": "sum", "of": ["left", "right"]},
        }
    })
    assert sc.observer("both")(1.0).t == pytest.approx(2.0)


def test_perturbed_and_boosted_kinds():
    sc = parse_scenario({
        "observers": {
            "wob": {"kind": "perturbed_inertial", "amplitude": 0.2,
                    "frequency": 2.0},
            "fast": {"kind": "boosted", "v": 0.6, "of": "wob"},
        },
        "maps": {
            "aff": {"kind": "affine_lorentz", "v": 0.6, "scale": 2.0,
                    "offset_t": 1.0, "offset_x": 0.0},
        },
    })
    w = sc.observer("wob")
    assert w(0.3).x == pytest.approx(0.2 * math.sin(0.6))
    f = sc.observer("fast")
    assert f(0.0) == SplitComplex(0.0, 0.0)
    out_t, out_x = sc.map("aff").components(0.0, 0.0)
    assert float(out_t) == 1.0
