"""Command line entry points: verbs, exit codes, output shape."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import mwsync
from mwsync import GridSpec, MarzkeWheelerMap, MwsyncError, PiecewiseLinear
from mwsync import cli
from mwsync.cli import main
from mwsync.fieldcheck import AutomorphismOutcome
from test_golden import CASES, DEMO

SCENARIO = {
    "c": 1.0,
    "seed": 0,
    "grid": {"t_min": -2.0, "t_max": 2.0, "x_min": -2.0, "x_max": 2.0,
             "n_t": 17, "n_x": 17},
    "observers": {
        "lab": {"kind": "inertial", "v": 0.0},
        "drift": {"kind": "inertial", "v": 0.5},
        "rocket": {"kind": "rindler", "a": 1.0},
        "lab_shifted": {"kind": "translated", "dt": 0.0, "dx": 1.0, "of": "lab"},
    },
    "maps": {
        "lab_chart": {"kind": "mw", "observer": "lab"},
        "drift_chart": {"kind": "mw", "observer": "drift"},
        "rocket_chart": {"kind": "mw", "observer": "rocket"},
        "drift_conj": {"kind": "pre_conj", "of": "drift_chart"},
        "low": {"kind": "sum", "of": ["lab_chart", "drift_conj"]},
    },
}


@pytest.fixture(scope="module")
def scenario_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "scenario.json"
    path.write_text(json.dumps(SCENARIO))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("value, text", [
    (0.1, "0.10000000000000001"),
    (float("nan"), "nan"),
    (-0.0, "-0"),
    (np.float64(2.0), "2"),
    (True, "true"),
    (AutomorphismOutcome.PASS, "pass"),
    (None, "none"),
    (7, "7"),
    ((-0.5, 0.5), "[-0.5, 0.5]"),
], ids=repr)
def test_a_report_value_renders_by_its_type(value, text):
    assert cli._text(value) == text


class TestEval:
    def test_csv_to_stdout(self, scenario_path, capsys):
        code, out, err = run(capsys, "eval", "--scenario", scenario_path,
                             "--map", "rocket_chart")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,x,out_t,out_x"
        assert len(lines) == 1 + 17 * 17
        fields = lines[1].split(",")
        assert len(fields) == 4
        float(fields[2])  # parsable numbers

    def test_csv_to_file_and_determinism(self, scenario_path, capsys, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run(capsys, "eval", "--scenario", scenario_path,
                   "--map", "lab_chart", "--out", str(a))[0] == 0
        assert run(capsys, "eval", "--scenario", scenario_path,
                   "--map", "lab_chart", "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_grid_override(self, scenario_path, capsys):
        code, out, _ = run(capsys, "eval", "--scenario", scenario_path,
                           "--map", "lab_chart", "--grid", "0,1,0,1,3,4")
        assert code == 0
        assert len(out.strip().splitlines()) == 1 + 3 * 4

    def test_unreachable_nodes_exit_3(self, scenario_path, capsys):
        # the rindler chart cannot be inverted on the left wedge, but
        # forward evaluation succeeds; force failure through the inverse
        code, out, err = run(capsys, "propertime", "--scenario", scenario_path,
                             "--mode", "accelerated", "--observer", "rocket",
                             "--target", "drift", "--s0", "0.1", "--s1", "1.0")
        assert code == 3
        assert "radar" in err

    def test_failing_node_is_named_with_few_calls(self, tmp_path, capsys,
                                                  monkeypatch):
        # the zigzag chart leaves its worldline's window in the last rows;
        # the rescan takes one array call per row, then goes node by node
        # in the first failing row only, and names the node the
        # node-by-node scan names
        path = tmp_path / "zigzag.json"
        scenario = json.loads(json.dumps(SCENARIO))
        scenario["observers"]["zigzag"] = {
            "kind": "piecewise_linear", "vertices": [[0, 0], [1, 0.5], [2, 0]],
        }
        scenario["maps"]["zigzag_chart"] = {"kind": "mw", "observer": "zigzag"}
        path.write_text(json.dumps(scenario))
        grid = GridSpec(0.5, 1.62, 0.0, 0.4, 65, 65)
        chart = MarzkeWheelerMap(PiecewiseLinear([(0, 0), (1, 0.5), (2, 0)]))
        expected = None
        for tv in grid.t_nodes:
            for xv in grid.x_nodes:
                try:
                    chart.components(np.asarray(tv), np.asarray(xv))
                except MwsyncError as exc:
                    expected = (f"error: evaluation failed at node t={float(tv):.17g} "
                                f"x={float(xv):.17g}: {exc}\n")
                    break
            if expected:
                break
        assert expected.endswith("parameter outside [0.0, 2.0]\n")
        calls = []
        components = MarzkeWheelerMap.components

        def counted(self, t, x):
            calls.append(np.size(t))
            return components(self, t, x)

        monkeypatch.setattr(MarzkeWheelerMap, "components", counted)
        code, out, err = run(capsys, "eval", "--scenario", str(path),
                             "--map", "zigzag_chart", "--grid=0.5,1.62,0,0.4,65,65")
        assert (code, out, err) == (3, "", expected)
        assert len(calls) <= 1 + grid.n_t + grid.n_x


class TestCheck:
    @pytest.mark.parametrize("kind", ["holo", "wave", "conformal", "loggwave"])
    def test_rocket_chart_passes_every_check(self, scenario_path, capsys, kind):
        code, out, _ = run(capsys, "check", "--scenario", scenario_path,
                           "--map", "rocket_chart", "--kind", kind)
        assert code == 0
        assert "verdict: pass" in out
        assert "max_abs:" in out and "order:" in out

    def test_antiholomorphy_holds_only_after_conjugation(self, scenario_path,
                                                         capsys):
        code, out, _ = run(capsys, "check", "--scenario", scenario_path,
                           "--map", "drift_conj", "--kind", "antiholo")
        assert code == 0 and "verdict: pass" in out
        code, out, _ = run(capsys, "check", "--scenario", scenario_path,
                           "--map", "rocket_chart", "--kind", "antiholo")
        assert code == 1 and "verdict: fail" in out

    def test_low_map_fails_holomorphy(self, scenario_path, capsys):
        code, out, _ = run(capsys, "check", "--scenario", scenario_path,
                           "--map", "low", "--kind", "holo")
        assert code == 1
        assert "verdict: fail" in out

    @pytest.mark.parametrize("grid", ["0,1e300,0,1e300,3,3", "0,1e-170,0,1e-170,3,3"])
    @pytest.mark.parametrize("kind", ["wave", "loggwave"])
    def test_floor_out_of_float_range_exits_3(self, scenario_path, capsys, kind, grid):
        # the wave floor divides by h**2, which overflows (or underflows to
        # zero) on these boxes
        code, out, err = run(capsys, "check", "--scenario", scenario_path,
                             "--map", "drift_chart", "--kind", kind, f"--grid={grid}")
        assert code == 3
        assert out == ""
        assert err.startswith("error:") and "h**2" in err

    @pytest.mark.parametrize("grid", ["0,1e300,0,1e300,3,3", "0,1e-170,0,1e-170,3,3"])
    def test_first_order_floor_holds_at_any_scale(self, scenario_path, capsys, grid):
        code, out, err = run(capsys, "check", "--scenario", scenario_path,
                             "--map", "drift_chart", "--kind", "holo", f"--grid={grid}")
        assert code == 0
        assert err == ""
        assert "verdict: pass" in out

    def test_loggwave_needs_a_chart(self, scenario_path, capsys):
        code, _, err = run(capsys, "check", "--scenario", scenario_path,
                           "--map", "low", "--kind", "loggwave")
        assert code == 2
        assert "conformal" in err


class TestCausal:
    def test_full_line_chart_passes(self, scenario_path, capsys):
        code, out, _ = run(capsys, "causal", "--scenario", scenario_path,
                           "--map", "drift_chart", "--pairs", "500")
        assert code == 0
        assert "status: pass" in out
        assert "lip: verified" in out
        assert "axis_max: 0" in out

    def test_wedge_chart_is_not_applicable(self, scenario_path, capsys):
        code, out, _ = run(capsys, "causal", "--scenario", scenario_path,
                           "--map", "rocket_chart")
        assert code == 0
        assert "status: not_applicable" in out
        assert "lip: fails" in out

    def test_low_map_fails_with_a_witness(self, scenario_path, capsys):
        code, out, _ = run(capsys, "causal", "--scenario", scenario_path,
                           "--map", "low", "--pairs", "2000")
        assert code == 1
        assert "equivalence_passed: false" in out
        assert "equivalence_witness_z1:" in out

    def test_seed_override_changes_the_draw(self, scenario_path, capsys):
        _, out0, _ = run(capsys, "causal", "--scenario", scenario_path,
                         "--map", "drift_chart", "--pairs", "500")
        _, out1, _ = run(capsys, "causal", "--scenario", scenario_path,
                         "--map", "drift_chart", "--pairs", "500",
                         "--seed", "1")
        assert out0 != out1
        _, out0b, _ = run(capsys, "causal", "--scenario", scenario_path,
                          "--map", "drift_chart", "--pairs", "500")
        assert out0 == out0b


class TestProperTime:
    def test_dilation(self, scenario_path, capsys):
        code, out, _ = run(capsys, "propertime", "--scenario", scenario_path,
                           "--mode", "dilation", "--accel", "1.0",
                           "--x1", "0.0", "--x2", "0.25", "--dt", "2.0")
        assert code == 0
        assert "ratio: 1.2840254166877414" in out

    def test_twin(self, scenario_path, capsys):
        code, out, _ = run(capsys, "propertime", "--scenario", scenario_path,
                           "--mode", "twin", "--a", "lab_shifted",
                           "--b", "rocket", "--a0", "-0.5", "--a1", "0.5",
                           "--n", "257")
        assert code == 0
        assert "younger: a" in out
        assert "consistent: true" in out

    def test_inertial_route_agreement(self, scenario_path, capsys):
        code, out, _ = run(capsys, "propertime", "--scenario", scenario_path,
                           "--mode", "inertial", "--target", "drift",
                           "--s0", "0.0", "--s1", "2.0")
        assert code == 0
        assert "consistent: true" in out
        assert "tau_direct: 2" in out

    def test_accelerated_route_agreement(self, scenario_path, capsys):
        code, out, _ = run(capsys, "propertime", "--scenario", scenario_path,
                           "--mode", "accelerated", "--observer", "rocket",
                           "--target", "lab_shifted",
                           "--s0", "-0.4", "--s1", "0.4", "--n", "65")
        assert code == 0
        assert "consistent: true" in out

    @pytest.mark.parametrize("root_tol", [1e-3, 1e-12])
    def test_twin_uses_the_scenario_root_tol(self, root_tol, capsys, tmp_path):
        # The twin's chart account of A is the accelerated route's chart
        # integral of the same clock, both through the scenario's chart.
        with open(DEMO) as f:
            doc = json.load(f)
        doc["tolerances"]["root_tol"] = root_tol
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))

        def field(key, *argv):
            _, out, _ = run(capsys, "propertime", "--scenario", str(path), *argv)
            (line,) = [ln for ln in out.splitlines() if ln.startswith(key + ": ")]
            return line.split(": ", 1)[1]

        twin = field("tau_a_by_b", "--mode", "twin", "--a", "lab", "--b", "wobble",
                     "--a0", "-0.5", "--a1", "0.5")
        chart = field("tau_chart", "--mode", "accelerated", "--target", "lab",
                      "--observer", "wobble", "--s0", "-0.5", "--s1", "0.5")
        assert twin == chart

    def test_n_is_ignored(self, scenario_path, capsys):
        argv = ["propertime", "--scenario", scenario_path, "--mode", "inertial",
                "--target", "drift", "--s0", "0.0", "--s1", "2.0"]
        plain = run(capsys, *argv)
        assert run(capsys, *argv, "--n", "2") == plain
        assert run(capsys, *argv, "--n", "100000") == plain

    def test_partial_window_b_is_rejected(self, scenario_path, capsys):
        code, _, err = run(capsys, "propertime", "--scenario", scenario_path,
                           "--mode", "twin", "--a", "lab", "--b", "drift",
                           "--a0", "0.0", "--a1", "1.0", "--b0", "0.0")
        assert code == 2
        assert "--b1" in err

    def test_missing_required_flag(self, scenario_path, capsys):
        code, _, err = run(capsys, "propertime", "--scenario", scenario_path,
                           "--mode", "dilation", "--accel", "1.0")
        assert code == 2


class TestCounterexample:
    def test_inertial_pair(self, scenario_path, capsys):
        code, out, _ = run(capsys, "counterexample", "--scenario", scenario_path,
                           "--g1", "lab", "--g2", "drift", "--pairs", "5000")
        assert code == 0
        assert "witness_found: true" in out
        assert "holo_max_abs:" in out
        assert "wave_ok: true" in out
        assert "axis_ok: true" in out

    def test_floor_out_of_float_range_exits_3(self, scenario_path, capsys):
        code, out, err = run(capsys, "counterexample", "--scenario", scenario_path,
                             "--g1", "lab", "--g2", "drift", "--pairs", "100",
                             "--grid=0,1e300,0,1e300,3,3")
        assert code == 3
        assert out == ""
        assert err.startswith("error:") and "h**2" in err

    def test_identical_curves_collapse_onto_the_axis(self, scenario_path, capsys):
        # gamma1 = gamma2 = lab gives F(z) = (2t, 0): spacelike pairs
        # land on the time axis, which is already a violation
        code, out, _ = run(capsys, "counterexample", "--scenario", scenario_path,
                           "--g1", "lab", "--g2", "lab", "--pairs", "5000")
        assert code == 0
        assert "witness_found: true" in out
        assert "relation_in: spacelike" in out


class TestNullBand:
    """The scenario's null band reaches every chronology check."""

    @pytest.fixture
    def wide_band_path(self, tmp_path):
        def write(band):
            path = tmp_path / f"band{band}.json"
            path.write_text(json.dumps({**SCENARIO, "tolerances": {"null_band": band}}))
            return str(path)

        return write

    def test_radar_chart_causal_suite(self, scenario_path, wide_band_path, capsys):
        argv = ("causal", "--map", "drift_chart", "--pairs", "2000")
        code, out, _ = run(capsys, argv[0], "--scenario", scenario_path, *argv[1:])
        assert code == 0 and "witness" not in out
        # output pairs within a band of 1e-2 read as null, not chronological
        code, out, _ = run(capsys, argv[0], "--scenario", wide_band_path(1e-2), *argv[1:])
        assert code == 1
        assert "forward_passed: false" in out
        assert "forward_relation_out: null_future" in out

    def test_counterexample(self, scenario_path, wide_band_path, capsys):
        argv = ("--g1", "lab", "--g2", "drift", "--pairs", "5000")
        narrow = run(capsys, "counterexample", "--scenario", scenario_path, *argv)
        wide = run(capsys, "counterexample", "--scenario", wide_band_path(1e-3), *argv)
        # a wider band leaves more output pairs undecided, so fewer count
        counted = [
            int(next(line for line in r[1].splitlines()
                     if line.startswith("equivalence_pairs: ")).split(": ")[1])
            for r in (narrow, wide)
        ]
        assert counted[1] < counted[0]


    def test_band_null_inputs_are_not_sampled(self, scenario_path, wide_band_path, capsys):
        # At 3e-2 some sampled inputs sat inside the band: a null input
        # with a null output certified nothing and the run stopped (exit 3).
        code, out, err = run(capsys, "causal", "--scenario", wide_band_path(3e-2),
                             "--map", "drift_chart")
        assert (code, err) == (1, "")
        assert "forward_relation_in: chron_future" in out
        assert "forward_relation_out: null_future" in out

    def test_box_below_the_band_cannot_be_sampled(self, scenario_path, capsys):
        code, out, err = run(capsys, "causal", "--scenario", scenario_path,
                             "--map", "drift_chart", "--grid=0,1e-300,0,1e-300,3,3")
        assert (code, out) == (3, "")
        assert err == "error: could not sample decisively chronological pairs in the box\n"


class TestNegativeValues:
    """``--flag value`` reads like ``--flag=value`` for dash-led values."""

    @pytest.mark.parametrize("flag, value, argv", [
        ("--grid", "-2,2,-2,2,9,9", ("check", "--map", "drift_chart", "--kind", "holo")),
        ("--s0", "-5e-1", ("propertime", "--mode", "inertial", "--target", "drift",
                           "--s1", "0.5")),
        ("--a0", "-6e-1", ("propertime", "--mode", "twin", "--a", "lab_shifted",
                           "--b", "rocket", "--a1", "0.6")),
        ("--x1", "-1e-3", ("propertime", "--mode", "dilation", "--accel", "1",
                           "--x2", "0.25", "--dt", "2")),
        ("--tol", "-1e-6", ("propertime", "--mode", "inertial", "--target", "drift",
                            "--s0", "-0.5", "--s1", "0.5")),
    ])
    def test_space_form_matches_equals_form(self, scenario_path, capsys,
                                            flag, value, argv):
        verb, *rest = argv
        spaced = run(capsys, verb, "--scenario", scenario_path, flag, value, *rest)
        equals = run(capsys, verb, "--scenario", scenario_path, f"{flag}={value}", *rest)
        assert spaced == equals
        if flag == "--tol":
            assert spaced[0] == 2 and "must be above 0" in spaced[2]
        else:
            assert spaced[0] in (0, 1) and spaced[1]


class TestValidationAndErrors:
    def test_unknown_map_exits_2(self, scenario_path, capsys):
        code, _, err = run(capsys, "check", "--scenario", scenario_path,
                           "--map", "ghost", "--kind", "holo")
        assert code == 2
        assert "ghost" in err

    @pytest.mark.parametrize("verb, target, pairs", [
        ("causal", ["--map", "drift_chart"], "0"),
        ("causal", ["--map", "drift_chart"], "-3"),
        ("causal", ["--map", "low"], "0"),
        ("counterexample", ["--g1", "lab", "--g2", "drift"], "0"),
    ])
    def test_pairs_below_one_exits_2(self, scenario_path, capsys, verb, target, pairs):
        code, out, err = run(capsys, verb, "--scenario", scenario_path,
                             *target, "--pairs", pairs)
        assert code == 2
        assert out == ""
        assert "--pairs" in err and "at least 1" in err

    @pytest.mark.parametrize("verb, target, seed", [
        ("causal", ["--map", "drift_chart"], ["--seed", "-1"]),
        ("counterexample", ["--g1", "lab", "--g2", "drift"], ["--seed=-5"]),
    ])
    def test_negative_seed_exits_2(self, scenario_path, capsys, verb, target, seed):
        code, out, err = run(capsys, verb, "--scenario", scenario_path,
                             *target, *seed, "--pairs", "10")
        assert (code, out) == (2, "")
        assert "--seed" in err and "at least 0" in err

    def test_negative_scenario_seed_exits_2(self, tmp_path, capsys):
        path = tmp_path / "seed.json"
        path.write_text(json.dumps({**SCENARIO, "seed": -3}))
        code, out, err = run(capsys, "causal", "--scenario", str(path),
                             "--map", "lab_chart", "--pairs", "10")
        assert (code, out, err) == (2, "", "error: seed must be non-negative, got -3\n")

    def test_box_too_wide_to_sample_exits_3(self, scenario_path, capsys):
        code, out, err = run(capsys, "causal", "--scenario", scenario_path,
                             "--map", "lab_chart",
                             "--grid=1e300,1.5e300,0,1,3,3", "--pairs", "50")
        assert (code, out) == (3, "")
        assert err.startswith("error: the box [1e+300, 1.5e+300] x [0, 1] is too wide")

    def test_non_finite_output_at_the_witness_exits_3(self, scenario_path, capsys):
        code, out, err = run(capsys, "counterexample", "--scenario", scenario_path,
                             "--g1", "rocket", "--g2", "drift",
                             "--grid=-1e150,1e150,-1e150,1e150,3,3", "--pairs", "50")
        assert (code, out) == (3, "")
        assert err.startswith("error: map output separation is not finite for the pair (")

    @pytest.mark.parametrize("mode, flags", [
        ("twin", ["--a", "lab_shifted", "--b", "rocket", "--a0", "-0.5", "--a1", "0.5"]),
        ("inertial", ["--target", "drift", "--s0", "0.0", "--s1", "2.0"]),
    ])
    @pytest.mark.parametrize("n", ["1", "0", "-4"])
    def test_propertime_n_below_two_exits_2(self, scenario_path, capsys, mode, flags, n):
        code, out, err = run(capsys, "propertime", "--scenario", scenario_path,
                             "--mode", mode, *flags, "--n", n)
        assert code == 2
        assert out == ""
        assert "error:" in err and "--n" in err and "at least 2" in err

    @pytest.mark.parametrize("mode, flags, window", [
        ("inertial", ["--target", "drift"], ["--s0", "2.0", "--s1", "0.0"]),
        ("accelerated", ["--target", "lab_shifted", "--observer", "rocket"],
         ["--s0", "0.4", "--s1", "0.4"]),
        ("twin", ["--a", "lab", "--b", "drift"], ["--a0", "1.0", "--a1", "0.0"]),
        ("twin", ["--a", "lab", "--b", "drift", "--a0", "0.0", "--a1", "1.0"],
         ["--b0", "0.5", "--b1", "nan"]),
        ("inertial", ["--target", "drift"], ["--s0", "0.0", "--s1", "inf"]),
        ("twin", ["--a", "lab", "--b", "drift"], ["--a0", "nan", "--a1", "1.0"]),
    ])
    def test_window_not_finite_and_increasing_exits_2(self, scenario_path, capsys,
                                                      mode, flags, window):
        code, out, err = run(capsys, "propertime", "--scenario", scenario_path,
                             "--mode", mode, *flags, *window)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and window[2] in err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1e-6", "0"])
    def test_propertime_tol_not_finite_and_positive_exits_2(self, scenario_path,
                                                           capsys, tol):
        code, out, err = run(capsys, "propertime", "--scenario", scenario_path,
                             "--mode", "inertial", "--target", "drift",
                             "--s0", "-0.5", "--s1", "0.5", f"--tol={tol}")
        assert code == 2
        assert out == ""
        assert "error:" in err and "--tol" in err

    @pytest.mark.parametrize("flag, value", [
        ("--accel", "nan"), ("--x1", "-inf"), ("--x2", "nan"), ("--x2", "inf"),
        ("--dt", "nan"), ("--dt", "0"), ("--accel", "0"),
    ])
    def test_dilation_input_not_finite_or_zero_exits_2(self, scenario_path, capsys,
                                                       flag, value):
        flags = {"--accel": "1", "--x1": "0", "--x2": "0.25", "--dt": "1", flag: value}
        code, out, err = run(capsys, "propertime", "--scenario", scenario_path,
                             "--mode", "dilation", *(f"{k}={v}" for k, v in flags.items()))
        assert code == 2
        assert out == ""
        assert "error:" in err and flag in err

    @pytest.mark.parametrize("x1, x2, dt", [
        ("0", "1e308", "1"), ("-1e308", "1e308", "1"), ("0", "1", "1e308"),
    ])
    def test_dilation_overflow_exits_3(self, scenario_path, capsys, x1, x2, dt):
        code, out, err = run(capsys, "propertime", "--scenario", scenario_path,
                             "--mode", "dilation", "--accel", "1", f"--x1={x1}",
                             "--x2", x2, "--dt", dt)
        assert code == 3
        assert out == ""
        assert err.startswith("error:") and "not finite" in err

    def test_non_finite_lightspeed_exits_2(self, tmp_path, capsys):
        path = tmp_path / "inf.json"
        path.write_text(json.dumps(SCENARIO).replace('"c": 1.0', '"c": Infinity'))
        code, out, err = run(capsys, "causal", "--scenario", str(path),
                             "--map", "lab_chart")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "inf" in err

    def test_missing_scenario_exits_2(self, capsys):
        code, _, err = run(capsys, "eval", "--scenario", "/no/such.json",
                           "--map", "m")
        assert code == 2

    def test_bad_grid_flag_exits_2(self, scenario_path, capsys):
        code, _, err = run(capsys, "eval", "--scenario", scenario_path,
                           "--map", "lab_chart", "--grid", "1,2,3")
        assert code == 2

    @pytest.mark.parametrize("a, b", [("rocket", "lab"), ("lab", "rocket")])
    def test_twin_window_beyond_the_worldline_exits_3(self, scenario_path, capsys, a, b):
        code, out, err = run(capsys, "propertime", "--scenario", scenario_path,
                             "--mode", "twin", "--a", a, "--b", b,
                             "--a0", "0", "--a1", "1e300")
        assert (code, out) == (3, "")
        assert err.startswith("error:") and "Traceback" not in err

    def test_rindler_position_overflow_names_the_parameter(self, scenario_path, capsys):
        code, _, err = run(capsys, "propertime", "--scenario", scenario_path,
                           "--mode", "twin", "--a", "rocket", "--b", "lab",
                           "--a0", "0", "--a1", "1e300")
        assert code == 3
        assert err == "error: Rindler(a=1.0) has no finite position at s = 1e+300: (inf, inf)\n"

    @pytest.mark.parametrize("exc, message", [
        (ZeroDivisionError("float division by zero"),
         "ZeroDivisionError: float division by zero"),
        (KeyError("ghost"), "KeyError: 'ghost'"),
        (RuntimeError("boom"), "RuntimeError: boom"),
    ])
    def test_an_unforeseen_exception_exits_3_without_traceback(
            self, scenario_path, capsys, monkeypatch, exc, message):
        def broken(args, scenario, grid):
            raise exc

        monkeypatch.setitem(cli._VERBS, "eval", broken)
        code, out, err = run(capsys, "eval", "--scenario", scenario_path,
                             "--map", "lab_chart")
        assert (code, out, err) == (3, "", f"error: {message}\n")

    def test_unknown_verb_exits_2(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_no_arguments_exits_2(self, capsys):
        assert run(capsys)[0] == 2


def test_import_leaves_scipy_unloaded():
    # The package depends on numpy alone, so importing the CLI loads no
    # scipy.  The stencil sweeps its row blocks in one loop on the
    # calling thread, so neither concurrent.futures nor queue is
    # imported either.
    src = os.path.dirname(os.path.dirname(mwsync.__file__))
    code = ("import sys, mwsync.cli; "
            "print(*(m in sys.modules for m in ('scipy', 'concurrent.futures', 'queue')))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "False False False"


def test_no_propertime_mode_loads_scipy():
    # Proper time pulls worldlines back exactly rather than through a
    # scipy interpolant: the demo command of every mode runs without it.
    src = os.path.dirname(os.path.dirname(mwsync.__file__))
    runs = [["propertime", "--scenario", DEMO, *CASES[name][1:]]
            for name in sorted(CASES) if name.startswith("propertime.")]
    assert sorted(run[run.index("--mode") + 1] for run in runs) == [
        "accelerated", "dilation", "inertial", "twin"]
    code = ("import sys; from mwsync.cli import main; "
            f"codes = [main(argv) for argv in {runs!r}]; "
            "print(codes, 'scipy' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.splitlines()[-1] == "[0, 0, 0, 0] False"


# 3 columns make a grid of one row block; 20000 make three blocks of one
# row each.
@pytest.mark.parametrize("n_x", [3, 20000])
def test_overflowing_run_prints_only_its_error_line(n_x):
    # Rindler positions overflow at 1e150 and the stencil differences
    # NaNs; numpy's RuntimeWarnings must not reach stderr.
    src = os.path.dirname(os.path.dirname(mwsync.__file__))
    demo = os.path.join(os.path.dirname(__file__), "..", "scenarios", "demo.json")
    argv = [sys.executable, "-m", "mwsync.cli", "counterexample", "--scenario", demo,
            "--g1", "rocket", "--g2", "wobble",
            f"--grid=-1e150,1e150,-1e150,1e150,3,{n_x}", "--pairs", "50"]
    env = dict(os.environ, PYTHONPATH=src, PYTHONWARNINGS="always")
    run = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert (run.returncode, run.stdout) == (3, "")
    lines = run.stderr.splitlines()
    assert len(lines) == 1, run.stderr
    assert lines[0].startswith("error: map output separation is not finite for the pair (")
