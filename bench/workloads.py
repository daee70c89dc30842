"""Invocation lists of the three benchmark workloads, with their oracles.

Every invocation is one ``mwsync`` command line plus a check of its exit
code and report.  The checks use closed forms and independent numpy
arithmetic, never the package itself, so that a later change to the
package cannot make its own outputs look right.  Where a value has no
closed form it is held to the tolerance the report itself states.

The workload seed fixes every ``--seed`` passed to the CLI and the
proper-time windows; nothing else varies between seeds.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

SCENARIO = "bench/scenario.json"

# Grid sizes of the at-scale invocations.
EVAL_N = 513
CHECK_N = 1025
PAIRS = 100000

# Proper-time windows [a0, a1] are drawn in these ranges, which keep the
# clock at x = 1 inside the wedge |t| < x of the "rocket" chart.  Closer
# to the wedge edge the adaptive quadrature's cost jumps by tens of
# percent between nearby windows; here it varies by a few percent, and
# four windows stratified over the ranges average that out over a pass.
WINDOW_LO = (-0.55, -0.45)
WINDOW_HI = (0.45, 0.55)
WINDOWS = 4
# Samples of the chart-route trajectories.  At the CLI's default of 129
# the accelerated mode's interpolation error reaches 6e-7 of its 1e-6
# tolerance on these windows; at 2049 it stays below 1e-8.
SAMPLES = 2049

# Observer constants of bench/scenario.json, used by the closed forms.
WOBBLE_AMPLITUDE = 0.1
WOBBLE_FREQUENCY = 2.0
DRIFT_V = 0.5
ROUNDTRIP_TOL = 100.0 * 1e-12 * (1.0 + 4.0)  # 100 * root_tol * (1 + box)
NULL_BAND = 1e-9
TWIN_TOL = 1e-6  # the CLI's default --tol
QUAD_TOL = 1e-9  # quadrature results against closed forms


@dataclass(frozen=True)
class Invocation:
    """One CLI call and the check of its outcome.

    ``check(code, report)`` returns a list of problems; empty means the
    invocation passed.
    """

    label: str
    argv: tuple
    check: Callable[[int, str], list]
    nodes: int = 33 * 33  # grid nodes; bench/scenario.json's grid is 33 x 33

    @property
    def verb(self) -> str:
        return self.argv[0]


# -- report parsing -------------------------------------------------------


def fields(report: str) -> dict:
    """``key: value`` lines of a text report, first occurrence wins."""
    out = {}
    for line in report.splitlines():
        key, sep, value = line.partition(": ")
        if sep and key not in out:
            out[key] = value
    return out


def _num(f: dict, key: str) -> float:
    return float(f[key])


def _pair(f: dict, key: str):
    a, b = f[key].strip("[]").split(",")
    return float(a), float(b)


def _expect(code, report, want_code, want: dict) -> list:
    problems = []
    if code != want_code:
        problems.append(f"exit code {code}, expected {want_code}")
    f = fields(report)
    for key, value in want.items():
        if f.get(key) != value:
            problems.append(f"{key}: {f.get(key)!r}, expected {value!r}")
    return problems


def _close(problems, what, got, ref, tol):
    if not abs(got - ref) <= tol * (1.0 + abs(ref)):
        problems.append(f"{what} = {got!r}, expected {ref!r} within {tol:g}")


# -- independent closed forms ---------------------------------------------


def _wobble_null(u, sign):
    # Null coordinates t +/- x of the wobble worldline (s, A sin(w s)).
    return u + sign * WOBBLE_AMPLITUDE * np.sin(WOBBLE_FREQUENCY * u)


def _drift_null(u, sign):
    # Inertial at speed v, proper-time parametrized: t +/- x = k**sign * u.
    k = math.sqrt((1.0 + DRIFT_V) / (1.0 - DRIFT_V))
    return u * k ** sign


def _lab_null(u, sign):
    return u


def _chart(null_fn, t, x):
    """Radar chart in null coordinates: plus = P(t + x), minus = M(t - x)."""
    plus = null_fn(t + x, +1)
    minus = null_fn(t - x, -1)
    return 0.5 * (plus + minus), 0.5 * (plus - minus)


def _sum_with_conjugate(g1, g2):
    def F(t, x):
        a = _chart(g1, t, x)
        b = _chart(g2, t, -x)
        return a[0] + b[0], a[1] + b[1]

    return F


def _relation(dt, dx) -> str:
    q = (dt - dx) * (dt + dx)
    if abs(q) <= NULL_BAND * (1.0 + dt * dt + dx * dx):
        return "null_future" if dt > 0.0 else "null_past"
    if q > 0.0:
        return "chron_future" if dt > 0.0 else "chron_past"
    return "spacelike"


def _check_witness(problems, f, prefix, F):
    """Recompute a printed witness pair's relations before and after F."""
    try:
        z1 = [float(v) for v in f[prefix + "witness_z1"].split()]
        z2 = [float(v) for v in f[prefix + "witness_z2"].split()]
        rel_in = f[prefix + "relation_in"]
        rel_out = f[prefix + "relation_out"]
    except (KeyError, ValueError):
        problems.append(f"no parsable {prefix}witness")
        return
    o1 = F(z1[0], z1[1])
    o2 = F(z2[0], z2[1])
    got_in = _relation(z2[0] - z1[0], z2[1] - z1[1])
    got_out = _relation(o2[0] - o1[0], o2[1] - o1[1])
    if (got_in, got_out) != (rel_in, rel_out):
        problems.append(
            f"witness relations ({rel_in}, {rel_out}) recompute as "
            f"({got_in}, {got_out})"
        )
    if "chron_future" not in (rel_in, rel_out) or rel_in == rel_out:
        problems.append(f"witness ({rel_in}, {rel_out}) certifies nothing")


def _wobble_tau(s0, s1):
    """Arc length of the wobble worldline by composite Gauss-Legendre."""
    nodes, weights = np.polynomial.legendre.leggauss(20)
    edges = np.linspace(s0, s1, 65)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    s = mid[:, None] + half[:, None] * nodes[None, :]
    vx = WOBBLE_AMPLITUDE * WOBBLE_FREQUENCY * np.cos(WOBBLE_FREQUENCY * s)
    return float(np.sum(half[:, None] * weights[None, :] * np.sqrt(1.0 - vx * vx)))


# -- oracles per verb -----------------------------------------------------


def _eval_rocket(code, report):
    """CSV of the a = 1 wedge chart against exp(zJ) J, to 1e-12."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}, expected 0")
    header, _, body = report.partition("\n")
    if header != "t,x,out_t,out_x":
        return problems + [f"bad CSV header {header!r}"]
    values = np.array(body.replace(",", " ").split(), dtype=float).reshape(-1, 4)
    t, x, out_t, out_x = values.T
    n = int(round(math.sqrt(values.shape[0])))
    nodes = np.linspace(-2.0, 2.0, n)
    if values.shape[0] != n * n or not (
        np.array_equal(t, np.repeat(nodes, n)) and np.array_equal(x, np.tile(nodes, n))
    ):
        problems.append("CSV rows are not the t-major grid nodes")
    err = max(
        float(np.max(np.abs(out_t - np.exp(x) * np.sinh(t)))),
        float(np.max(np.abs(out_x - np.exp(x) * np.cosh(t)))),
    )
    if not err <= 1e-12:
        problems.append(f"CSV deviates from exp(zJ)J by {err!r}")
    return problems


def _check_verdict(code, report):
    return _expect(code, report, 0, {"verdict": "pass"})


def _causal_chart(code, report):
    problems = _expect(
        code, report, 0,
        {"status": "pass", "forward_passed": "true", "inverse_passed": "true",
         "orientation": "preserving", "axis_max": "0"},
    )
    f = fields(report)
    if "roundtrip_max" not in f or not _num(f, "roundtrip_max") <= ROUNDTRIP_TOL:
        problems.append(f"roundtrip_max {f.get('roundtrip_max')!r} > {ROUNDTRIP_TOL:g}")
    return problems


def _causal_low(code, report):
    problems = _expect(code, report, 1, {"status": "fail", "equivalence_passed": "false"})
    _check_witness(
        problems, fields(report), "equivalence_",
        _sum_with_conjugate(_lab_null, _drift_null),
    )
    return problems


def _counterexample(g2_null):
    def check(code, report):
        problems = _expect(
            code, report, 0,
            {"witness_found": "true", "status": "pass", "wave_ok": "true",
             "axis_ok": "true"},
        )
        _check_witness(
            problems, fields(report), "equivalence_",
            _sum_with_conjugate(_lab_null, g2_null),
        )
        return problems

    return check


def _twin_rocket(a0, a1):
    """lab_shifted (x = 1) against rocket: rocket's radar time of the
    event (s, 1) is atanh(s), so tau_b = atanh(a1) - atanh(a0)."""

    def check(code, report):
        problems = _expect(code, report, 0, {"younger": "a", "consistent": "true"})
        f = fields(report)
        b0, b1 = _pair(f, "window_b")
        _close(problems, "window_b[0]", b0, math.atanh(a0), QUAD_TOL)
        _close(problems, "window_b[1]", b1, math.atanh(a1), QUAD_TOL)
        _twin_taus(problems, f, a1 - a0, math.atanh(a1) - math.atanh(a0))
        return problems

    return check


def _twin_wobble(a0, a1):
    """wobble against lab: the lab chart is the identity, so B's window
    is A's coordinate time and tau_b is its length."""

    def check(code, report):
        problems = _expect(code, report, 0, {"younger": "a", "consistent": "true"})
        f = fields(report)
        b0, b1 = _pair(f, "window_b")
        _close(problems, "window_b[0]", b0, a0, QUAD_TOL)
        _close(problems, "window_b[1]", b1, a1, QUAD_TOL)
        _twin_taus(problems, f, _wobble_tau(a0, a1), a1 - a0)
        return problems

    return check


def _twin_taus(problems, f, tau_a, tau_b):
    _close(problems, "tau_a", _num(f, "tau_a"), tau_a, QUAD_TOL)
    _close(problems, "tau_b", _num(f, "tau_b"), tau_b, QUAD_TOL)
    for key, ref in (("tau_a_by_b", tau_a), ("tau_b_by_a", tau_b)):
        if not abs(_num(f, key) - ref) <= TWIN_TOL * abs(ref):
            problems.append(f"{key} = {f[key]} is not within {TWIN_TOL:g} of {ref!r}")
    if not _num(f, "max_rel_disagreement") <= TWIN_TOL:
        problems.append(f"max_rel_disagreement {f['max_rel_disagreement']} > {TWIN_TOL:g}")


def _dual_route(tau):
    def check(code, report):
        problems = _expect(code, report, 0, {"consistent": "true"})
        f = fields(report)
        _close(problems, "tau_direct", _num(f, "tau_direct"), tau, QUAD_TOL)
        if not abs(_num(f, "tau_chart") - tau) <= TWIN_TOL * abs(tau):
            problems.append(f"tau_chart = {f['tau_chart']} is not within {TWIN_TOL:g} of {tau!r}")
        return problems

    return check


def _dilation(accel, x1, x2, dt):
    def check(code, report):
        problems = _expect(code, report, 0, {"mode": "dilation"})
        f = fields(report)
        ratio = math.exp(accel * (x2 - x1))
        _close(problems, "ratio", _num(f, "ratio"), ratio, 1e-14)
        _close(problems, "dt_at_x2", _num(f, "dt_at_x2"), dt * ratio, 1e-14)
        return problems

    return check


# -- workloads ------------------------------------------------------------


def _cli(verb, *args):
    return (verb, "--scenario", SCENARIO) + tuple(args)


def _grid(n):
    return f"--grid=-2,2,-2,2,{n},{n}"


def _windows(rng: random.Random, count: int, ranges):
    """``count`` windows stratified over the two endpoint ranges."""
    (lo0, lo1), (hi0, hi1) = ranges
    order = list(range(count))
    rng.shuffle(order)
    out = []
    for k in range(count):
        lo = lo0 + (k + rng.random()) / count * (lo1 - lo0)
        hi = hi0 + (order[k] + rng.random()) / count * (hi1 - hi0)
        out.append((float(f"{lo:.4f}"), float(f"{hi:.4f}")))
    return out


def demo_tail(seed: int) -> list:
    """The README's demo-size invocation of each verb.

    Every workload ends with these, so every layer and verb has a measured
    time on every workload and the per-call overhead of small invocations
    is part of each pass.
    """
    return [
        Invocation("demo.eval", _cli("eval", "--map", "rocket_chart"), _eval_rocket),
        Invocation(
            "demo.check",
            _cli("check", "--map", "wobble_chart", "--kind", "holo"),
            _check_verdict,
        ),
        Invocation(
            "demo.causal",
            _cli("causal", "--map", "wobble_chart", "--pairs", "1000", "--seed", str(seed)),
            _causal_chart,
        ),
        Invocation(
            "demo.propertime",
            _cli("propertime", "--mode", "twin", "--a", "wobble", "--b", "lab",
                 "--a0", "-0.5", "--a1", "0.5"),
            _twin_wobble(-0.5, 0.5),
        ),
        Invocation(
            "demo.counterexample",
            _cli("counterexample", "--g1", "lab", "--g2", "drift", "--pairs", "1000",
                 "--seed", str(seed)),
            _counterexample(_drift_null),
        ),
    ]


def grid(seed: int, n_eval: int = EVAL_N, n_check: int = CHECK_N, pairs: int = PAIRS):
    """Forward chart, stencils and CSV formatting; no inverse, no quadrature."""
    checks = [
        ("wave", "wobble_chart"),
        ("holo", "sum_chart"),
        ("conformal", "rocket_chart"),
        ("loggwave", "wobble_chart"),
    ]
    return [
        Invocation(
            "eval.rocket_chart", _cli("eval", "--map", "rocket_chart", _grid(n_eval)),
            _eval_rocket, n_eval * n_eval,
        ),
        *(
            Invocation(
                f"check.{kind}.{name}",
                _cli("check", "--map", name, "--kind", kind, _grid(n_check)),
                _check_verdict, n_check * n_check,
            )
            for kind, name in checks
        ),
        Invocation(
            "counterexample.lab.wobble",
            _cli("counterexample", "--g1", "lab", "--g2", "wobble", _grid(n_check),
                 "--pairs", str(pairs), "--seed", str(seed)),
            _counterexample(_wobble_null), n_check * n_check,
        ),
    ]


def pairs(seed: int, pairs: int = PAIRS):
    """Radar-inverse bisection inside the samplers; no stencils, no quadrature."""
    charts = ["wobble_chart", "drift_chart", "sum_chart", "boost_chart"]
    out = [
        Invocation(
            f"causal.{name}",
            _cli("causal", "--map", name, "--pairs", str(pairs), "--seed", str(seed + k)),
            _causal_chart,
        )
        for k, name in enumerate(charts)
    ]
    out.append(
        Invocation(
            "causal.low",
            _cli("causal", "--map", "low", "--pairs", str(pairs), "--seed", str(seed)),
            _causal_low,
        )
    )
    return out


def clock(seed: int, windows: int = WINDOWS, ranges=(WINDOW_LO, WINDOW_HI)):
    """Scalar adaptive Simpson through size-1 conformal-factor calls."""
    rng = random.Random(seed)
    out = []
    for k, (a0, a1) in enumerate(_windows(rng, windows, ranges)):
        w = ("--a0", repr(a0), "--a1", repr(a1))
        s = ("--s0", repr(a0), "--s1", repr(a1))
        out += [
            Invocation(
                f"twin.lab_shifted.rocket.{k}",
                _cli("propertime", "--mode", "twin", "--a", "lab_shifted", "--b", "rocket",
                     *w, "--n", str(SAMPLES)),
                _twin_rocket(a0, a1),
            ),
            Invocation(
                f"twin.wobble.lab.{k}",
                _cli("propertime", "--mode", "twin", "--a", "wobble", "--b", "lab", *w),
                _twin_wobble(a0, a1),
            ),
            Invocation(
                f"accelerated.lab_shifted.rocket.{k}",
                _cli("propertime", "--mode", "accelerated", "--target", "lab_shifted",
                     "--observer", "rocket", *s, "--n", str(SAMPLES)),
                _dual_route(a1 - a0),
            ),
            Invocation(
                f"inertial.wobble.{k}",
                _cli("propertime", "--mode", "inertial", "--target", "wobble", *s,
                     "--n", str(SAMPLES)),
                _dual_route(_wobble_tau(a0, a1)),
            ),
        ]
    out.append(
        Invocation(
            "dilation",
            _cli("propertime", "--mode", "dilation", "--accel", "1.0", "--x1", "0",
                 "--x2", "0.25", "--dt", "2.0"),
            _dilation(1.0, 0.0, 0.25, 2.0),
        )
    )
    return out


WORKLOADS = {"grid": grid, "pairs": pairs, "clock": clock}


def invocations(name: str, seed: int, **sizes) -> list:
    """The workload's at-scale invocations followed by the demo tail."""
    return WORKLOADS[name](seed, **sizes) + demo_tail(seed)
