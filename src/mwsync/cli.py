"""Command line front end.

Verbs:

* ``eval``           evaluate a named map on the grid, emit CSV
* ``check``          residual certificate for one differential property
* ``causal``         chronology / automorphism checks for a named map
* ``propertime``     proper-time computations and cross-checks
* ``counterexample`` the two-observer averaging construction, documented

Exit codes: 0 the certified property holds (or the check does not
apply), 1 a property violation was found, 2 input validation failed,
3 a runtime evaluation error occurred.  Output is deterministic: no
timestamps, fixed float formatting, seeds always explicit.

Reports: each verb returns its report and exit code, and ``main``
writes the report.  A report is ``key: value`` lines, one per field and
each key once; ``_text`` renders every value: floats as ``%.17g``,
booleans as ``true``/``false``, enums by their value, None as ``none``,
pairs as ``[a, b]``, anything else by ``str``.  ``eval`` writes CSV.

A residual check passes when its maximum at the matched step ``h``
either sits at the rounding floor the report carries,
``512 * eps * (1 + max|F|) / h**k`` (k = 1 for first-order stencils,
k = 2 for the wave stencils), or the anisotropic stencil,
(h_t, h_x) = (h, h/2) against (h/2, h/4), shows order near 2 under
halving.  Exact solutions land on the floor: the matched stencil
annihilates their truncation error, so only rounding remains there.
On fine grids rounding can also swamp the anisotropic levels, and then
the floor alone decides.
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import nullcontext
from enum import Enum

import numpy as np

from .algebra import ZERO
from .errors import MwsyncError, ScenarioError
from .fieldcheck import (
    AutomorphismOutcome,
    GridSpec,
    automorphism_suite,
    causal_equivalence_check,
    chronology_check,
    conformality_report,
    holomorphy_residual,
    log_factor_wave_residual,
    low_counterexample,
    wave_residual,
)
from .mwmap import MarzkeWheelerMap
from .observers import Inertial
from .propertime import (
    arc_length_proper_time,
    gravitational_dilation,
    proper_time_accelerated,
    proper_time_inertial,
    radar_trajectory_of,
    twin_consistency,
)
from .scenario import Scenario, load_scenario

_FMT = "%.17g"


def _text(value) -> str:
    """The report text of one field value."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return _FMT % value
    if isinstance(value, Enum):
        return _text(value.value)
    if value is None:
        return "none"
    if isinstance(value, tuple):
        return f"[{', '.join(map(_text, value))}]"
    return str(value)


def _words(*values) -> str:
    """One field value of several parts, each rendered by ``_text``."""
    return " ".join(map(_text, values))


def _emit(lines, out_path):
    """Write ``lines``, each ending in a newline, to ``out_path`` or stdout.

    Line by line, so the report is never copied into one string.  The
    lines are complete before the file is opened, so a report that fails
    writes nothing.
    """
    with (
        open(out_path, "w", encoding="utf-8") if out_path else nullcontext(sys.stdout)
    ) as stream:
        for line in lines:
            stream.write(line)
            stream.write("\n")


def _int_at_least(minimum: int):
    """argparse type of an integer flag with a lower bound."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return parse


def _finite_float(text: str) -> float:
    """argparse type of a finite float flag."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _positive_float(text: str) -> float:
    """argparse type of a finite float flag above zero."""
    value = _finite_float(text)
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"must be above 0, got {text}")
    return value


def _grid_from_flag(text: str) -> GridSpec:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) not in (6, 7):
        raise ScenarioError(
            "--grid needs 'tmin,tmax,xmin,xmax,nt,nx[,h]', got " + repr(text)
        )
    try:
        h = float(parts[6]) if len(parts) == 7 else None
        return GridSpec(
            float(parts[0]), float(parts[1]), float(parts[2]), float(parts[3]),
            int(parts[4]), int(parts[5]), h,
        )
    except ValueError as exc:
        raise ScenarioError(f"bad --grid: {exc}") from exc


def _grid_fields(grid: GridSpec) -> list:
    return [("grid_t", _words((grid.t_min, grid.t_max), f"n={grid.n_t}")),
            ("grid_x", _words((grid.x_min, grid.x_max), f"n={grid.n_x}")),
            ("grid_h", grid.h)]


def _chronology_fields(label: str, rep) -> list:
    fields = [("pairs", rep.n_pairs), ("seed", rep.seed),
              ("min_margin", rep.min_margin), ("passed", rep.passed)]
    witness = rep.witness
    if witness is not None:
        fields += [
            ("witness_z1", _words(witness.z1.t, witness.z1.x)),
            ("witness_z2", _words(witness.z2.t, witness.z2.x)),
            ("relation_in", witness.relation_in),
            ("relation_out", witness.relation_out),
        ]
    return [(f"{label}_{key}", value) for key, value in fields]


# -- verbs: each returns (report, exit code); a report is (key, value) fields


def _cmd_eval(args, scenario: Scenario, grid: GridSpec) -> tuple:
    m = scenario.map(args.map)
    t_text = [_FMT % t for t in grid.t_nodes.tolist()]
    x_cells = [f"{_FMT % x},{_FMT},{_FMT}" for x in grid.x_nodes.tolist()]
    rows = ["t,x,out_t,out_x"]
    for block, T, X in grid.row_blocks():
        try:
            out_t, out_x = m.components(T, X)
        except MwsyncError:
            _locate_eval_failure(m, grid)
            raise
        values = np.stack((out_t, out_x), axis=-1).reshape(len(T), -1).tolist()
        for t, row in zip(t_text[block], values):
            lead = t + ","
            rows.append((lead + ("\n" + lead).join(x_cells)) % tuple(row))
    return rows, 0


def _locate_eval_failure(m, grid: GridSpec):
    # Rescan a row per array call, then node by node inside a failing
    # row, so the error can name the first bad node.
    x_nodes = grid.x_nodes
    for tv in grid.t_nodes:
        try:
            m.components(np.full_like(x_nodes, tv), x_nodes)
        except MwsyncError:
            for xv in x_nodes:
                try:
                    m.components(np.asarray(tv), np.asarray(xv))
                except MwsyncError as exc:
                    raise MwsyncError(
                        f"evaluation failed at node t={_text(tv)} x={_text(xv)}: {exc}"
                    ) from exc


_CHECKS = {
    "holo": lambda m, grid: holomorphy_residual(m, grid),
    "antiholo": lambda m, grid: holomorphy_residual(m, grid, anti=True),
    "wave": wave_residual,
    "conformal": conformality_report,
    "loggwave": log_factor_wave_residual,
}


def _cmd_check(args, scenario: Scenario, grid: GridSpec) -> tuple:
    m = scenario.map(args.map)
    if args.kind == "loggwave" and not hasattr(m, "conformal_components"):
        raise ScenarioError(
            f"map {args.map!r} has no conformal factor; loggwave applies "
            "to radar charts only"
        )
    res = _CHECKS[args.kind](m, grid)
    order = res.convergence_order
    order_ok = order is not None and 1.6 <= order <= 2.4
    passed = res.max_abs <= res.floor or order_ok
    report = [
        ("check", args.kind), ("map", args.map), *_grid_fields(grid),
        ("max_abs", res.max_abs), ("mean_abs", res.mean_abs),
        ("location_t", res.location_of_max[0]),
        ("location_x", res.location_of_max[1]),
        ("order", order), ("floor", res.floor),
    ]
    if args.kind == "conformal":
        report += [
            ("factor_min", res.factor_min), ("factor_max", res.factor_max),
            ("n_nonpositive", res.n_nonpositive),
        ]
        passed = passed and res.n_nonpositive == 0
    report.append(("verdict", "pass" if passed else "fail"))
    return report, 0 if passed else 1


def _cmd_causal(args, scenario: Scenario, grid: GridSpec) -> tuple:
    m = scenario.map(args.map)
    seed = scenario.seed if args.seed is None else args.seed
    tol = scenario.tolerances.null_band
    report = [("map", args.map), *_grid_fields(grid)]
    if isinstance(m, MarzkeWheelerMap):
        rep = automorphism_suite(m, grid, args.pairs, seed, tol)
        report += [("status", rep.outcome), ("lip", rep.lip.verdict),
                   ("lip_reason", rep.lip.reason)]
        if rep.lip.null_window is not None:
            plus, minus = rep.lip.null_window
            report.append(("lip_null_window", _words("plus", plus, "minus", minus)))
        if rep.outcome is AutomorphismOutcome.NOT_APPLICABLE:
            return report, 0
        report += [
            *_chronology_fields("forward", rep.forward),
            *_chronology_fields("inverse", rep.inverse),
            ("roundtrip_max", rep.roundtrip_max), ("orientation", rep.orientation),
            ("axis_max", rep.axis_max),
        ]
        return report, 0 if rep.outcome is AutomorphismOutcome.PASS else 1
    forward = chronology_check(m, grid, args.pairs, seed, tol)
    equivalence = causal_equivalence_check(m, grid, args.pairs, seed, tol)
    passed = forward.passed and equivalence.passed
    report += [
        ("status", "pass" if passed else "fail"),
        *_chronology_fields("forward", forward),
        *_chronology_fields("equivalence", equivalence),
    ]
    return report, 0 if passed else 1


def _need(args, names: list, mode: str):
    missing = [
        "--" + name.replace("_", "-")
        for name in names
        if getattr(args, name) is None
    ]
    if missing:
        raise ScenarioError(
            f"propertime mode {mode!r} needs {', '.join(missing)}"
        )


def _window(args, lo: str, hi: str) -> tuple:
    start, end = getattr(args, lo), getattr(args, hi)
    if not (math.isfinite(start) and math.isfinite(end) and end > start):
        raise ScenarioError(
            f"--{lo}/--{hi} must be finite with --{hi} above --{lo}, "
            f"got [{start!r}, {end!r}]"
        )
    return start, end


def _cmd_propertime(args, scenario: Scenario, grid: GridSpec) -> tuple:
    ctx = scenario.ctx
    quad_tol = scenario.tolerances.quad_tol
    if args.mode == "dilation":
        _need(args, ["accel", "x1", "x2", "dt"], "dilation")
        if args.accel == 0.0 or args.dt == 0.0:
            raise ScenarioError(
                f"--accel and --dt must be nonzero, got {args.accel!r} and {args.dt!r}"
            )
        value = gravitational_dilation(args.accel, args.x1, args.x2, args.dt, ctx)
        return [
            ("mode", "dilation"), ("dt_at_x1", args.dt), ("dt_at_x2", value),
            ("ratio", value / args.dt),
        ], 0
    if args.mode == "twin":
        _need(args, ["a", "b", "a0", "a1"], "twin")
        if (args.b0 is None) != (args.b1 is None):
            raise ScenarioError("give both --b0 and --b1 or neither")
        window_a = _window(args, "a0", "a1")
        window_b = None if args.b0 is None else _window(args, "b0", "b1")
        rep = twin_consistency(
            scenario.chart(scenario.observer(args.a)),
            scenario.chart(scenario.observer(args.b)),
            window_a, window_b, ctx, args.tol, quad_tol,
        )
        return [
            ("mode", "twin"), ("observer_a", args.a), ("observer_b", args.b),
            ("window_a", rep.window_a), ("window_b", rep.window_b),
            ("tau_a", rep.tau_a), ("tau_b", rep.tau_b),
            ("tau_a_by_b", rep.tau_a_by_b), ("tau_b_by_a", rep.tau_b_by_a),
            ("younger", rep.younger),
            ("max_rel_disagreement", rep.max_rel_disagreement),
            ("consistent", rep.consistent),
        ], 0 if rep.consistent else 1
    # Dual-route modes: chart integral against direct arc length.
    _need(args, ["target", "s0", "s1"], args.mode)
    window = _window(args, "s0", "s1")
    target = scenario.observer(args.target)
    direct = arc_length_proper_time(target, *window, ctx, quad_tol)
    if args.mode == "inertial":
        chart = scenario.chart(Inertial(0.0, ZERO, ctx))
        traj = radar_trajectory_of(chart, target, window, ctx)
        via = proper_time_inertial(traj, ctx, quad_tol)
        chart_name = "lab"
    else:
        _need(args, ["observer"], "accelerated")
        chart = scenario.chart(scenario.observer(args.observer))
        traj = radar_trajectory_of(chart, target, window, ctx)
        via = proper_time_accelerated(chart, traj, ctx, quad_tol)
        chart_name = args.observer
    rel = abs(via.tau - direct.tau) / abs(direct.tau)
    agree = rel <= args.tol
    return [
        ("mode", args.mode), ("target", args.target), ("chart", chart_name),
        ("window", window), ("tau_direct", direct.tau), ("tau_chart", via.tau),
        ("rel_disagreement", rel), ("n_evals", direct.n_evals + via.n_evals),
        ("consistent", agree),
    ], 0 if agree else 1


def _cmd_counterexample(args, scenario: Scenario, grid: GridSpec) -> tuple:
    g1 = scenario.observer(args.g1)
    g2 = scenario.observer(args.g2)
    seed = scenario.seed if args.seed is None else args.seed
    rep = low_counterexample(
        g1, g2, grid, seed, args.pairs, scenario.tolerances.null_band
    )
    wave_ok = rep.wave.max_abs <= rep.wave.floor
    found = rep.equivalence.witness is not None
    ok = found and rep.axis_ok and wave_ok
    return [
        ("g1", args.g1), ("g2", args.g2), *_grid_fields(grid),
        ("wave_max_abs", rep.wave.max_abs), ("wave_floor", rep.wave.floor),
        ("wave_ok", wave_ok), ("holo_max_abs", rep.holo.max_abs),
        ("antiholo_max_abs", rep.antiholo.max_abs),
        ("axis_max", rep.axis_max), ("axis_ok", rep.axis_ok),
        *_chronology_fields("forward", rep.forward),
        *_chronology_fields("equivalence", rep.equivalence),
        ("witness_found", found),
        ("status", "pass" if ok else "fail"),
    ], 0 if ok else 1


# -- parser and entry point ----------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mwsync",
        description="Radar synchronization charts on the Minkowski plane",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p):
        p.add_argument("--scenario", required=True, help="scenario JSON file")
        p.add_argument("--out", default=None, help="write the report here")
        p.add_argument(
            "--grid", default=None,
            help="override grid: tmin,tmax,xmin,xmax,nt,nx[,h]",
        )

    p = sub.add_parser("eval", help="evaluate a map on the grid as CSV")
    common(p)
    p.add_argument("--map", required=True)

    p = sub.add_parser("check", help="residual certificate for a map")
    common(p)
    p.add_argument("--map", required=True)
    p.add_argument(
        "--kind", required=True,
        choices=["holo", "antiholo", "wave", "conformal", "loggwave"],
    )

    p = sub.add_parser("causal", help="chronology / automorphism checks")
    common(p)
    p.add_argument("--map", required=True)
    p.add_argument("--pairs", type=_int_at_least(1), default=1000)
    p.add_argument("--seed", type=_int_at_least(0), default=None)

    p = sub.add_parser("propertime", help="proper-time computations")
    common(p)
    p.add_argument(
        "--mode", required=True,
        choices=["inertial", "accelerated", "twin", "dilation"],
    )
    p.add_argument("--target", default=None, help="observer whose clock is timed")
    p.add_argument("--observer", default=None, help="observer carrying the chart")
    p.add_argument("--s0", type=float, default=None)
    p.add_argument("--s1", type=float, default=None)
    p.add_argument("--a", default=None, help="twin A observer name")
    p.add_argument("--b", default=None, help="twin B observer name")
    p.add_argument("--a0", type=float, default=None)
    p.add_argument("--a1", type=float, default=None)
    p.add_argument("--b0", type=float, default=None)
    p.add_argument("--b1", type=float, default=None)
    p.add_argument("--x1", type=_finite_float, default=None)
    p.add_argument("--x2", type=_finite_float, default=None)
    p.add_argument("--dt", type=_finite_float, default=None)
    p.add_argument("--accel", type=_finite_float, default=None)
    p.add_argument("--n", type=_int_at_least(2), default=None, help="ignored")
    p.add_argument("--tol", type=_positive_float, default=1e-6)

    p = sub.add_parser(
        "counterexample", help="two-observer averaging construction"
    )
    common(p)
    p.add_argument("--g1", required=True)
    p.add_argument("--g2", required=True)
    p.add_argument("--pairs", type=_int_at_least(1), default=100000)
    p.add_argument("--seed", type=_int_at_least(0), default=None)

    return parser


def _join_values(argv: list) -> list:
    """``--flag value`` as ``--flag=value`` wherever the value starts
    with a single dash.

    argparse reads ``-1e-3``, ``-inf`` or ``-2,2,-2,2,9,9`` as an option
    name and stops with "expected one argument".  Every long option
    here but ``--help`` takes exactly one value, so a dash-led token
    after one is always its value.
    """
    out = []
    i = 0
    while i < len(argv):
        token = argv[i]
        value = argv[i + 1] if i + 1 < len(argv) else ""
        if (
            token.startswith("--") and "=" not in token
            and not "--help".startswith(token)
            and value.startswith("-") and not value.startswith("--")
        ):
            token = f"{token}={value}"
            i += 1
        out.append(token)
        i += 1
    return out


_VERBS = {
    "eval": _cmd_eval,
    "check": _cmd_check,
    "causal": _cmd_causal,
    "propertime": _cmd_propertime,
    "counterexample": _cmd_counterexample,
}


def main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(_join_values(argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        scenario = load_scenario(args.scenario)
        grid = (
            _grid_from_flag(args.grid) if args.grid is not None else scenario.grid
        )
        # Overflow and NaN surface as exit codes and report values, so
        # numpy's RuntimeWarnings would only put lines before `error:`.
        with np.errstate(all="ignore"):
            report, code = _VERBS[args.verb](args, scenario, grid)
        if args.verb != "eval":  # eval's report is its CSV rows
            report = [f"{key}: {_text(value)}" for key, value in report]
        _emit(report, args.out)
        return code
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MwsyncError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # a bug or an unforeseen input: no traceback
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
