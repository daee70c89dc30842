"""Proper time along worldlines and trajectories in radar charts.

Two complementary routes to elapsed clock time:

* directly along a worldline, as the Minkowski arc length of the curve;
* inside an observer's radar chart, where the metric is conformally
  flat and a clock moving as ``x(t)`` ages at the rate
  ``sqrt(factor) * sqrt(1 - (v/c)**2)`` per unit of radar time.

Both routes must agree for the same physical clock; the twin
comparison below computes a full crossed table (each twin's own aging
and the partner chart's account of it) and checks the agreement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebra import NATURAL_UNITS, LightspeedContext
from .errors import (
    EvaluationFailure,
    NonMonotoneRadarTime,
    NotTimelike,
    SpeedLimitExceeded,
)
from .mwmap import MarzkeWheelerMap
from .observers import Observer
from .quadrature import adaptive_simpson

__all__ = [
    "ProperTimeResult",
    "RadarTrajectory",
    "proper_time_inertial",
    "proper_time_accelerated",
    "arc_length_proper_time",
    "radar_trajectory_of",
    "TwinReport",
    "twin_consistency",
    "gravitational_dilation",
]


@dataclass(frozen=True)
class ProperTimeResult:
    """Elapsed proper time with the quadrature's own error bound."""

    tau: float
    abs_error_estimate: float
    n_evals: int


@dataclass(frozen=True)
class RadarTrajectory:
    """Clock path ``x(t)`` inside a radar chart, with its velocity.

    ``t`` is radar time in clock units (the chart's time coordinate
    divided by c); ``x`` and ``v = dx/dt`` are callables over the
    closed ``window`` that map an array of times to an array of the
    same shape (the quadrature hands them a whole refinement level).
    """

    x: Callable[[np.ndarray], np.ndarray]
    v: Callable[[np.ndarray], np.ndarray]
    window: tuple[float, float]

    @classmethod
    def constant(cls, x0: float, window: tuple[float, float]) -> "RadarTrajectory":
        x0 = float(x0)
        return cls(
            x=lambda t: np.full(np.shape(t), x0),
            v=lambda t: np.full(np.shape(t), 0.0),
            window=tuple(map(float, window)),
        )

    @classmethod
    def linear(
        cls, x0: float, v0: float, window: tuple[float, float]
    ) -> "RadarTrajectory":
        x0 = float(x0)
        v0 = float(v0)
        lo = float(window[0])
        return cls(
            x=lambda t: x0 + v0 * (t - lo),
            v=lambda t: np.full(np.shape(t), v0),
            window=(lo, float(window[1])),
        )

    @classmethod
    def from_samples(cls, ts, xs) -> "RadarTrajectory":
        """Monotone cubic interpolant through sampled chart positions.

        The interpolant is shape-preserving, so a sampled subluminal
        trajectory stays subluminal wherever the samples resolve it.
        """
        # scipy.interpolate dominates the package's import time; only
        # this constructor needs it.
        from scipy.interpolate import PchipInterpolator

        ts = np.asarray(ts, dtype=float)
        xs = np.asarray(xs, dtype=float)
        if ts.ndim != 1 or ts.size < 2 or ts.shape != xs.shape:
            raise ValueError("need matching 1-d sample arrays, at least 2 points")
        if not np.all(np.diff(ts) > 0.0):
            raise ValueError("sample times must increase strictly")
        path = PchipInterpolator(ts, xs)
        return cls(
            x=path, v=path.derivative(), window=(float(ts[0]), float(ts[-1]))
        )


def _speed_root(traj: RadarTrajectory, ctx: LightspeedContext):
    # Aging rate per unit coordinate/radar time; raises at the cone.
    def rate(t):
        v = traj.v(t)
        beta = v / ctx.c
        arg = (1.0 - beta) * (1.0 + beta)
        if np.any(arg <= 0.0):
            i = int(np.argmax(arg <= 0.0))
            raise SpeedLimitExceeded(
                f"trajectory reaches |v| >= c at t = {float(t[i])!r} "
                f"(v = {float(v[i])!r})"
            )
        return np.sqrt(arg)

    return rate


def proper_time_inertial(
    traj: RadarTrajectory,
    ctx: LightspeedContext = NATURAL_UNITS,
    tol: float = 1e-10,
) -> ProperTimeResult:
    """Proper time of a clock moving as ``x(t)`` in flat coordinates.

    Integrates ``sqrt(1 - (v/c)**2) dt`` over the trajectory window.
    """
    rate = _speed_root(traj, ctx)
    q = adaptive_simpson(rate, traj.window[0], traj.window[1], tol)
    return ProperTimeResult(q.value, q.error_estimate, q.n_evals)


def proper_time_accelerated(
    chart,
    traj: RadarTrajectory,
    ctx: LightspeedContext = NATURAL_UNITS,
    tol: float = 1e-10,
    mode: str = "analytic",
) -> ProperTimeResult:
    """Proper time of a clock moving as ``x(t)`` in a radar chart.

    ``chart`` is a :class:`~mwsync.mwmap.MarzkeWheelerMap` or the
    observer carrying it.  The chart metric is conformally flat, so the
    flat-case rate picks up ``sqrt(factor)`` evaluated at the moving
    point.  Worldlines below C1 have no conformal factor and are
    refused by the chart itself.
    """
    m = MarzkeWheelerMap(chart) if isinstance(chart, Observer) else chart
    rate = _speed_root(traj, ctx)

    def integrand(t):
        # The speed check runs first, so a level that reaches the light
        # cone reports that before any chart failure further along.
        aging = rate(t)
        lam = m.conformal_components(ctx.c * t, traj.x(t), mode)
        return np.sqrt(lam) * aging

    q = adaptive_simpson(integrand, traj.window[0], traj.window[1], tol)
    return ProperTimeResult(q.value, q.error_estimate, q.n_evals)


def arc_length_proper_time(
    obs: Observer,
    s0: float,
    s1: float,
    ctx: LightspeedContext = NATURAL_UNITS,
    tol: float = 1e-10,
) -> ProperTimeResult:
    """Proper time as Minkowski arc length of the worldline itself.

    ``s0`` and ``s1`` are curve parameters; the result is
    ``(1/c) * integral of sqrt(norm_sq(gamma'(s))) ds``.

    Raises
    ------
    NotTimelike
        If the tangent fails to be timelike at a quadrature node.
    """

    def speed(s):
        vt, vx = obs.velocity(s)
        q = vt * vt - vx * vx
        if np.any(q <= 0.0):
            i = int(np.argmax(q <= 0.0))
            si = float(s[i])
            raise NotTimelike(
                f"tangent at s = {si!r} has norm_sq = {float(q[i])!r}",
                pair=(si, si),
            )
        return np.sqrt(q)

    q = adaptive_simpson(speed, float(s0), float(s1), tol)
    return ProperTimeResult(q.value / ctx.c, q.error_estimate / ctx.c, q.n_evals)


def radar_trajectory_of(
    chart,
    target: Observer,
    s_window: tuple[float, float],
    n: int = 129,
    ctx: LightspeedContext = NATURAL_UNITS,
) -> RadarTrajectory:
    """Another worldline as a trajectory inside this chart.

    Samples ``target`` at ``n`` parameters across ``s_window``, pulls
    each event back through the radar inverse, and interpolates the
    chart positions monotone-cubically over radar time.

    Raises
    ------
    NoRadarCoordinate
        If some sampled event is outside the chart.
    NonMonotoneRadarTime
        If radar time fails to increase strictly along the samples.
    """
    m = MarzkeWheelerMap(chart) if isinstance(chart, Observer) else chart
    sigma = np.linspace(float(s_window[0]), float(s_window[1]), n)
    et, ex = target.position(sigma)
    s_chart, x_chart = m.radar_inverse_components(et, ex)
    t_radar = s_chart / ctx.c
    if not np.all(np.diff(t_radar) > 0.0):
        i = int(np.argmax(np.diff(t_radar) <= 0.0))
        raise NonMonotoneRadarTime(
            f"radar time stalls between samples {i} and {i + 1} "
            f"(t = {t_radar[i]!r} then {t_radar[i + 1]!r})"
        )
    return RadarTrajectory.from_samples(t_radar, x_chart)


@dataclass(frozen=True)
class TwinReport:
    """Crossed aging table of two observers over matched windows.

    ``tau_a`` and ``tau_b`` are each twin's own arc-length aging;
    ``tau_a_by_b`` is twin A's aging as computed inside twin B's radar
    chart, and vice versa.  Consistency means each chart account agrees
    with the direct one to the requested relative tolerance.
    """

    tau_a: float
    tau_b: float
    tau_a_by_b: float
    tau_b_by_a: float
    window_a: tuple[float, float]
    window_b: tuple[float, float]
    younger: str
    consistent: bool
    max_rel_disagreement: float


def twin_consistency(
    obs_a: Observer,
    obs_b: Observer,
    window_a: tuple[float, float],
    window_b: tuple[float, float] | None = None,
    ctx: LightspeedContext = NATURAL_UNITS,
    tol: float = 1e-6,
    n_samples: int = 2049,
    quad_tol: float = 1e-10,
) -> TwinReport:
    """Compare two clocks directly and through each other's charts.

    ``window_a`` bounds twin A's parameter.  When ``window_b`` is not
    given it is matched by radar simultaneity: B's window endpoints are
    the radar times at which B's chart places A's endpoint events (for
    twins that actually meet at both ends this is exactly B's parameter
    at the meeting events).
    """
    a0, a1 = float(window_a[0]), float(window_a[1])
    map_a = MarzkeWheelerMap(obs_a)
    map_b = MarzkeWheelerMap(obs_b)

    if window_b is None:
        b0 = map_b.radar_inverse(obs_a(a0)).t
        b1 = map_b.radar_inverse(obs_a(a1)).t
    else:
        b0, b1 = float(window_b[0]), float(window_b[1])

    tau_a = arc_length_proper_time(obs_a, a0, a1, ctx, quad_tol).tau
    tau_b = arc_length_proper_time(obs_b, b0, b1, ctx, quad_tol).tau

    traj_a_in_b = radar_trajectory_of(map_b, obs_a, (a0, a1), n_samples, ctx)
    traj_b_in_a = radar_trajectory_of(map_a, obs_b, (b0, b1), n_samples, ctx)
    tau_a_by_b = proper_time_accelerated(map_b, traj_a_in_b, ctx, quad_tol).tau
    tau_b_by_a = proper_time_accelerated(map_a, traj_b_in_a, ctx, quad_tol).tau

    rel_a = abs(tau_a_by_b - tau_a) / abs(tau_a)
    rel_b = abs(tau_b_by_a - tau_b) / abs(tau_b)
    max_rel = max(rel_a, rel_b)

    if abs(tau_a - tau_b) <= tol * max(abs(tau_a), abs(tau_b)):
        younger = "equal"
    else:
        younger = "a" if tau_a < tau_b else "b"

    return TwinReport(
        tau_a,
        tau_b,
        tau_a_by_b,
        tau_b_by_a,
        (a0, a1),
        (b0, b1),
        younger,
        max_rel <= tol,
        max_rel,
    )


def gravitational_dilation(
    a: float,
    x1: float,
    x2: float,
    dt: float,
    ctx: LightspeedContext = NATURAL_UNITS,
) -> float:
    """Aging of a static clock at ``x2`` per aging ``dt`` at ``x1``.

    In the radar chart of a uniformly accelerated observer the factor
    at chart position ``x`` is ``exp(2 a x / c**2)``, so two static
    clocks age in the exact ratio ``exp(a (x2 - x1) / c**2)``: the one
    sitting higher along the acceleration ages faster.

    Raises
    ------
    EvaluationFailure
        If the dilated aging overflows or is otherwise not finite.
    """
    a = float(a)
    if a == 0.0 or not math.isfinite(a):
        raise ValueError(f"proper acceleration must be finite and nonzero, got {a!r}")
    exponent = a * (float(x2) - float(x1)) / (ctx.c * ctx.c)
    try:
        value = float(dt) * math.exp(exponent)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise EvaluationFailure(
            f"dilated aging dt * exp({exponent!r}) is not finite (dt = {dt!r})"
        )
    return value
