"""Proper time along worldlines and trajectories in radar charts.

Two complementary routes to elapsed clock time:

* directly along a worldline, as the Minkowski arc length of the curve;
* inside an observer's radar chart, where the metric is conformally
  flat and a clock on the chart curve ``(t(sigma), x(sigma))`` ages at
  the rate ``sqrt(factor) * t_dot * sqrt(1 - (v/c)**2)`` per unit of
  its parameter, ``v = x_dot / t_dot``.

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

# Parameter step of the central differences that give a pulled-back
# worldline its chart velocity: truncation falls as FD_STEP**4 and
# rounding grows as eps / FD_STEP.  At 1e-4 the chart route agrees with
# the arc length to 1e-13 to 4e-13 on the demo scenario's pairs.
FD_STEP = 1e-4


@dataclass(frozen=True)
class ProperTimeResult:
    """Elapsed proper time with its error bound (quadrature and path)."""

    tau: float
    abs_error_estimate: float
    n_evals: int


@dataclass(frozen=True)
class RadarTrajectory:
    """Clock path inside a radar chart over a parameter ``window``.

    ``path`` maps an array of parameters (a whole quadrature level) to
    five arrays of its shape: chart time ``t`` in clock units (the
    chart's time coordinate divided by c), chart position ``x``, their
    derivatives ``t_dot`` and ``x_dot``, and a bound on the error of
    ``t_dot`` and ``x_dot / c``, 0.0 where they are exact.
    """

    path: Callable[[np.ndarray], tuple]
    window: tuple[float, float]

    @classmethod
    def constant(cls, x0: float, window: tuple[float, float]) -> "RadarTrajectory":
        return cls.linear(x0, 0.0, window)

    @classmethod
    def linear(
        cls, x0: float, v0: float, window: tuple[float, float]
    ) -> "RadarTrajectory":
        x0, v0, lo = float(x0), float(v0), float(window[0])

        def path(t):
            one = np.ones(np.shape(t))
            return t, x0 + v0 * (t - lo), one, v0 * one, 0.0

        return cls(path, (lo, float(window[1])))


def _proper_time(traj: RadarTrajectory, ctx, tol, scale=None) -> ProperTimeResult:
    """Integral of ``scale(t, x) t_dot sqrt(1 - beta**2)``, ``beta = x_dot /
    (c t_dot)``, bounded with the path's slope error; chart time that
    stalls or a speed at the light cone raises."""
    worst = 0.0

    def integrand(sigma):
        nonlocal worst
        t, x, t_dot, x_dot, slope_error = traj.path(sigma)
        if np.any(t_dot <= 0.0):
            i = int(np.argmax(t_dot <= 0.0))
            raise NonMonotoneRadarTime(
                f"radar time stalls at parameter {float(sigma[i])!r}"
            )
        beta = x_dot / (ctx.c * t_dot)
        arg = (1.0 - beta) * (1.0 + beta)
        if np.any(arg <= 0.0):
            i = int(np.argmax(arg <= 0.0))
            raise SpeedLimitExceeded(
                f"trajectory reaches |v| >= c at parameter {float(sigma[i])!r} "
                f"(v = {float(ctx.c * beta[i])!r})"
            )
        root = np.sqrt(arg)
        rate = t_dot * root
        # The rate moves by 1/root per unit of t_dot, |beta|/root of x_dot/c.
        error = slope_error * (1.0 + np.abs(beta)) / root
        if scale is not None:
            # After the speed check, so a level that reaches the light
            # cone reports that before any chart failure further along.
            factor = scale(t, x)
            rate, error = factor * rate, factor * error
        worst = max(worst, float(np.max(error)))
        return rate

    lo, hi = traj.window
    q = adaptive_simpson(integrand, lo, hi, tol)
    return ProperTimeResult(q.value, q.error_estimate + (hi - lo) * worst, q.n_evals)


def proper_time_inertial(
    traj: RadarTrajectory,
    ctx: LightspeedContext = NATURAL_UNITS,
    tol: float = 1e-10,
) -> ProperTimeResult:
    """Proper time of a clock moving along ``traj`` in flat coordinates.

    Integrates ``t_dot * sqrt(1 - beta**2) dsigma`` over the window.
    """
    return _proper_time(traj, ctx, tol)


def proper_time_accelerated(
    chart: MarzkeWheelerMap,
    traj: RadarTrajectory,
    ctx: LightspeedContext = NATURAL_UNITS,
    tol: float = 1e-10,
) -> ProperTimeResult:
    """Proper time of a clock moving along ``traj`` in a radar chart.

    The chart metric is conformally flat, so the flat-case rate picks
    up ``sqrt(factor)`` evaluated at the moving point.  Worldlines below
    C1 have no conformal factor and are refused by the chart itself.
    """
    return _proper_time(
        traj, ctx, tol, lambda t, x: np.sqrt(chart.conformal_components(ctx.c * t, x))
    )


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
    chart: MarzkeWheelerMap,
    target: Observer,
    window: tuple[float, float],
    ctx: LightspeedContext = NATURAL_UNITS,
) -> RadarTrajectory:
    """Another worldline inside this chart, over its own parameter ``window``.

    The path pulls ``target`` back through the radar inverse at ``sigma`` and
    at ``sigma +- h``, ``sigma +- 2h`` (``h = FD_STEP``, moved inward near a
    finite domain's ends) in one call; the chart velocity is their
    fourth-order central difference D4, never the worldline's own velocity,
    which would give the arc-length integrand identically and hide a faulty
    inverse.  The slope error bound adds the truncation ``|D4 - D2|``, a
    moved difference's shift times the curvature, the rounding ``eps (|z| +
    |sigma z_dot|) / h`` and, where the chart root-finds, ``root_tol / h``.
    An event outside the chart raises :class:`~mwsync.errors.NoRadarCoordinate`.
    """
    c, h = ctx.c, FD_STEP
    lo, hi = target.domain

    def path(sigma):
        centre = np.clip(sigma, lo + 2.0 * h, hi - 2.0 * h)
        steps = np.clip(centre + h * np.array([[-2.0], [-1.0], [1.0], [2.0]]), lo, hi)
        et, ex = target.position(np.concatenate((sigma[None], steps)).ravel())
        z = np.stack(chart.radar_inverse_components(et, ex)).reshape(2, 5, -1)
        here, back2, back1, ahead1, ahead2 = z.transpose(1, 0, 2)
        slope = (8.0 * (ahead1 - back1) - (ahead2 - back2)) / (12.0 * h)
        # The chart root-finds where its observer has no closed-form
        # inverse of a null coordinate (MarzkeWheelerMap._solve).
        p, q = (chart.observer.null_inverse(k, et[:1] + k * ex[:1]) for k in (1.0, -1.0))
        curvature = (ahead2 + back2 - ahead1 - back1) / (3.0 * h * h)
        error = (
            np.abs(slope - (ahead1 - back1) / (2.0 * h))
            + np.abs(sigma - centre) * np.abs(curvature)
            + np.finfo(float).eps * (np.abs(here) + np.abs(sigma * slope)) / h
            + (chart.root_tol / h if p is None or q is None else 0.0)
        )
        return here[0] / c, here[1], slope[0] / c, slope[1], error.max(axis=0) / c

    return RadarTrajectory(path, (float(window[0]), float(window[1])))


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
    map_a: MarzkeWheelerMap,
    map_b: MarzkeWheelerMap,
    window_a: tuple[float, float],
    window_b: tuple[float, float] | None = None,
    ctx: LightspeedContext = NATURAL_UNITS,
    tol: float = 1e-6,
    quad_tol: float = 1e-10,
) -> TwinReport:
    """Compare two clocks directly and through each other's charts.

    Twin A is the observer of the radar chart ``map_a``, twin B that of
    ``map_b``.  ``window_a`` bounds twin A's parameter.  When
    ``window_b`` is not given it is matched by radar simultaneity: B's
    window endpoints are the radar times at which B's chart places A's
    endpoint events (for twins that actually meet at both ends this is
    exactly B's parameter at the meeting events).
    """
    a0, a1 = float(window_a[0]), float(window_a[1])
    obs_a, obs_b = map_a.observer, map_b.observer

    if window_b is None:
        b0 = map_b.radar_inverse(obs_a(a0)).t
        b1 = map_b.radar_inverse(obs_a(a1)).t
    else:
        b0, b1 = float(window_b[0]), float(window_b[1])

    tau_a = arc_length_proper_time(obs_a, a0, a1, ctx, quad_tol).tau
    tau_b = arc_length_proper_time(obs_b, b0, b1, ctx, quad_tol).tau

    traj_a_in_b = radar_trajectory_of(map_b, obs_a, (a0, a1), ctx)
    traj_b_in_a = radar_trajectory_of(map_a, obs_b, (b0, b1), ctx)
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
