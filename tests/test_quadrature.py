"""Adaptive Simpson integrator."""

import math

import numpy as np
import pytest

from mwsync import (
    MarzkeWheelerMap,
    PerturbedInertial,
    QuadratureLimit,
    RadarTrajectory,
    Rindler,
    SplitComplex,
    adaptive_simpson,
    arc_length_proper_time,
    proper_time_accelerated,
    proper_time_inertial,
    quadrature,
)


def recursive_simpson(f, a, b, tol=1e-10, max_depth=50):
    # Depth-first reference with a scalar integrand; the batched
    # integrator must reproduce it bit for bit.
    evals = 0

    def eval_f(s):
        nonlocal evals
        evals += 1
        return float(f(s))

    def simpson(fa, fm, fb, h):
        return (h / 6.0) * (fa + 4.0 * fm + fb)

    def recurse(lo, hi, flo, fmid, fhi, whole, tol_here, depth):
        mid = 0.5 * (lo + hi)
        fl = eval_f(0.5 * (lo + mid))
        fr = eval_f(0.5 * (mid + hi))
        left = simpson(flo, fl, fmid, mid - lo)
        right = simpson(fmid, fr, fhi, hi - mid)
        delta = (left + right) - whole
        if abs(delta) <= 15.0 * tol_here:
            return left + right + delta / 15.0, abs(delta) / 15.0
        if depth >= max_depth:
            raise QuadratureLimit(f"depth {max_depth}")
        lv, le = recurse(lo, mid, flo, fl, fmid, left, 0.5 * tol_here, depth + 1)
        rv, re = recurse(mid, hi, fmid, fr, fhi, right, 0.5 * tol_here, depth + 1)
        return lv + rv, le + re

    fa, fm, fb = eval_f(a), eval_f(0.5 * (a + b)), eval_f(b)
    whole = simpson(fa, fm, fb, b - a)
    value, err = recurse(a, b, fa, fm, fb, whole, tol, 0)
    return value, err, evals


def pointwise(f):
    # The array integrand asked about one node at a time.
    return lambda s: f(np.array([s]))[0]


def _spike(x):
    return np.exp(-((x - 0.5) ** 2) / 1e-4)


def test_exact_on_cubics():
    # Simpson integrates cubics exactly; only rounding remains
    q = adaptive_simpson(lambda x: x**3 - 2.0 * x + 1.0, 0.0, 2.0)
    assert q.value == pytest.approx(4.0 - 4.0 + 2.0, abs=1e-14)
    assert q.n_evals >= 5


def test_smooth_integrand_meets_tolerance():
    q = adaptive_simpson(np.exp, 0.0, 1.0, tol=1e-12)
    exact = math.e - 1.0
    assert abs(q.value - exact) <= 1e-12
    assert q.error_estimate <= 1e-12


def test_oscillatory_integrand():
    q = adaptive_simpson(lambda x: np.sin(10.0 * x), 0.0, math.pi, tol=1e-10)
    exact = (1.0 - math.cos(10.0 * math.pi)) / 10.0
    assert abs(q.value - exact) <= 1e-9


def test_refinement_concentrates_near_sharp_features():
    flat = adaptive_simpson(np.ones_like, 0.0, 1.0, tol=1e-10)
    spike = adaptive_simpson(_spike, 0.0, 1.0, tol=1e-10)
    assert spike.n_evals > 10 * flat.n_evals


def test_empty_interval():
    q = adaptive_simpson(np.sin, 1.0, 1.0)
    assert q.value == 0.0
    assert q.error_estimate == 0.0


def test_reversed_interval_is_rejected():
    with pytest.raises(ValueError):
        adaptive_simpson(np.sin, 1.0, 0.0)


def _inverse_root(x):
    return np.divide(1, np.sqrt(x), out=np.zeros_like(x), where=x > 0)


def test_depth_limit():
    # integrable singularity at the endpoint defeats a shallow recursion
    with pytest.raises(QuadratureLimit):
        adaptive_simpson(_inverse_root, 0.0, 1.0, tol=1e-14, max_depth=8)


@pytest.mark.parametrize(
    "f, a, b, tol",
    [
        (lambda x: x**3 - 2.0 * x + 1.0, 0.0, 2.0, 1e-10),
        (np.exp, 0.0, 1.0, 1e-12),
        (lambda x: np.sin(10.0 * x), 0.0, math.pi, 1e-10),
        (_spike, 0.0, 1.0, 1e-10),
    ],
    ids=["cubic", "exp", "oscillatory", "spike"],
)
def test_batched_levels_match_the_recursion_bitwise(f, a, b, tol):
    q = adaptive_simpson(f, a, b, tol)
    assert (q.value, q.error_estimate, q.n_evals) == recursive_simpson(
        pointwise(f), a, b, tol
    )


def _scalar_clock(traj, s):
    # The path at one parameter as floats, with the per-node clock rate
    # t_dot * sqrt(1 - beta**2) at unit lightspeed.
    t, x, t_dot, x_dot = (float(a[0]) for a in traj.path(np.array([s]))[:4])
    beta = x_dot / t_dot
    return t, x, t_dot * math.sqrt((1.0 - beta) * (1.0 + beta))


def test_wobble_arc_length_matches_the_recursion_bitwise():
    wobble = PerturbedInertial(0.1, 2.0)
    q = arc_length_proper_time(wobble, -0.5, 0.5)
    ref = recursive_simpson(
        lambda s: math.sqrt(wobble.derivative(s).norm_sq()), -0.5, 0.5
    )
    assert (q.tau, q.abs_error_estimate, q.n_evals) == ref


def test_rocket_chart_integrand_matches_the_recursion_bitwise():
    rocket = MarzkeWheelerMap(Rindler(1.0))

    def lab_shifted(sigma):
        # The lab clock at x = 1 in the rocket's chart, in closed form.
        t = np.arctanh(sigma)
        t_dot = 1.0 / ((1.0 - sigma) * (1.0 + sigma))
        return t, -np.log(np.cosh(t)), t_dot, -sigma * t_dot, 0.0

    traj = RadarTrajectory(lab_shifted, (-0.5, 0.5))

    def integrand(s):
        t, x, rate = _scalar_clock(traj, s)
        return math.sqrt(rocket.conformal_factor(SplitComplex(t, x))) * rate

    q = proper_time_accelerated(rocket, traj)
    ref = recursive_simpson(integrand, *traj.window)
    assert (q.tau, q.abs_error_estimate, q.n_evals) == ref
    assert q.tau == pytest.approx(1.0, abs=1e-12)


def test_sine_trajectory_matches_the_recursion_bitwise():
    traj = RadarTrajectory(
        lambda t: (t, 0.3 * np.sin(t), np.ones_like(t), 0.3 * np.cos(t), 0.0),
        (0.0, 2.0),
    )
    q = proper_time_inertial(traj, tol=1e-12)
    ref = recursive_simpson(lambda s: _scalar_clock(traj, s)[2], 0.0, 2.0, 1e-12)
    assert (q.tau, q.abs_error_estimate, q.n_evals) == ref


@pytest.mark.parametrize("max_depth", [3, 8, 50])
def test_one_array_call_per_level(max_depth):
    shapes = []

    def f(x):
        shapes.append(x.shape)
        return _inverse_root(x)

    try:
        adaptive_simpson(f, 0.0, 1.0, tol=1e-14, max_depth=max_depth)
    except QuadratureLimit:
        pass
    assert 2 <= len(shapes) <= max_depth + 2
    assert all(len(shape) == 1 for shape in shapes)


def test_evaluation_budget_raises_before_exceeding_it(monkeypatch):
    with pytest.raises(QuadratureLimit, match="budget"):
        adaptive_simpson(lambda x: np.sin(1e8 * x), 0.0, 1.0, tol=1e-15)
    calls = []

    def f(x):
        calls.append(x.size)
        return np.sin(1e8 * x)

    monkeypatch.setattr(quadrature, "MAX_EVALS", 10_000)
    with pytest.raises(QuadratureLimit, match="budget of 10000"):
        adaptive_simpson(f, 0.0, 1.0, tol=1e-15)
    assert sum(calls) <= 10_000


@pytest.mark.parametrize("where", ["everywhere", "one node"])
def test_nan_integrand_raises_at_once(where):
    # A NaN node stays an endpoint of every sub-panel, so no panel
    # holding it can converge; the integrator stops at that level.
    calls = []

    def f(x):
        calls.append(x.size)
        if where == "everywhere":
            return np.full_like(x, np.nan)
        return np.where(x == 0.3125, np.nan, np.sin(x))

    with pytest.raises(QuadratureLimit, match="NaN at"):
        adaptive_simpson(f, 0.0, 1.0)
    assert sum(calls) <= 64
