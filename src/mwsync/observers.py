"""Worldlines on the Minkowski plane.

An observer is a future-directed timelike curve ``gamma(s)`` given by
array-aware coordinate functions.  The parameter convention is fixed by
each kind (proper time for the inertial and uniformly accelerated
families, coordinate time for the sampled kinds); what the rest of the
package relies on is only that ``gamma`` is future-directed timelike,
which is checked by every built-in kind; a subclass's curve is taken as
given.

The null coordinate functions ``s -> t(s) + x(s)`` and
``s -> t(s) - x(s)`` are strictly increasing along any such curve, and
their ranges decide whether radar synchronization through the observer
reaches the whole plane.  :func:`lip_status` reports that verdict:
an observer from whose worldline no light ray can escape in either
direction sees every event, one with a bounded null range does not.

Both null questions take a ``sign``, +1 for ``t + x`` and -1 for
``t - x``: :meth:`Observer.null_range` gives the range of that
coordinate (closed at a finite domain end, open as the kind declares at
an infinite one), and :meth:`Observer.null_inverse` inverts the profile
without root finding where the kind allows it.  ``Inertial``,
``Rindler`` and ``PiecewiseLinear``, boosted or translated, invert in
closed form.  A profile of the form ``alpha*s + beta + a*sin(w*s)`` with
``|a*w| < alpha`` (``PerturbedInertial`` and sums, boosts and
translations of it and of ``Inertial``, as long as the sinusoids of a
sum share one ``w``) is Kepler's equation ``u + e*sin(u) = M`` after a
change of variable, and :class:`_Sinusoid` inverts it in a fixed number
of steps.  The radar chart root-finds the other kinds: sums whose
sinusoids differ in frequency and sums that hold a Rindler observer or
a polygon.
"""

from __future__ import annotations

import enum
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import add

import numpy as np

from .algebra import (
    NATURAL_UNITS,
    ZERO,
    LightspeedContext,
    SplitComplex,
    TwoVelocity,
    two_velocity,
)
from .errors import DomainExceeded, EvaluationFailure

__all__ = [
    "Observer",
    "Inertial",
    "Rindler",
    "PerturbedInertial",
    "PiecewiseLinear",
    "SumObserver",
    "BoostedObserver",
    "TranslatedObserver",
    "LipVerdict",
    "LipStatus",
    "lip_status",
]

_FULL_LINE = (-math.inf, math.inf)


def _scalar(owner, what: str, at: str, fn, *args) -> SplitComplex:
    """``fn(*args)``, a pair of one-element results, read as the
    split-complex number a scalar entry point returns.  Numpy's floating-point warnings
    are silenced; a pair that is not finite raises EvaluationFailure
    naming ``owner``, ``what`` it evaluates and the point ``at``."""
    with np.errstate(all="ignore"):
        t, x = (float(np.ravel(a)[0]) for a in fn(*args))
    if not (math.isfinite(t) and math.isfinite(x)):
        raise EvaluationFailure(f"{owner!r} has no finite {what} at {at}: ({t!r}, {x!r})")
    return SplitComplex(t, x)


# -- the profiles alpha*s + beta + a*sin(w*s), inverted as Kepler's equation

_TAU = 2.0 * math.pi
# Table nodes per period of M(v) = v + e*sin(v), and the cells that index
# them, two per node.  At this spacing the secant start and two Newton
# steps on the offset's Taylor polynomials settled each of 2*10**5 uniform
# targets in [-10, 10] per sign for |e| up to 0.999, and all but 2 to 5 of
# them at 0.9999 and 1 - 1e-6: the unsettled ones lie near the cusps.  A
# table holds ~29 kB; 2**11 nodes settled all of them at 0.9999, but their
# four tables in the `pairs` benchmark raised its peak RSS by ~0.4 MB.
_KEPLER_NODES = 2 ** 9
_KEPLER_CELLS = 2 * _KEPLER_NODES
_KEPLER_STEP = _TAU / _KEPLER_NODES
# Halvings of an unsettled element's cell: 52 leave a bracket ~3e-18
# wide, the spacing of floats near the cell's far end.
_HALVINGS = 52
# Elements per chunk of the inverse.  Measured on a 2-vCPU Xeon VM on 10**5
# targets, medians of 15 in each of two sessions: 9-16 ms from 2**12 to
# 2**14, 12-20 ms at 2**11 (more calls) and 2**15 (the chunk's ~30 live
# temporaries outgrow the L2 cache), against rtsafe's 26-35 ms.  Within
# that range the size moves the `pairs` benchmark's peak RSS by more than
# the temporaries' own ~1-4 MB would suggest: three 30 s runs each read
# 52.49-52.72 MB at 2**13 and 52.59-52.69 MB at 2**14, against
# 52.93-53.00 MB at 2**12 and 52.6-52.7 MB when these charts root-found.
_KEPLER_CHUNK = 2 ** 13
# Veltkamp's constant 2**27 + 1 splits a float64 into two 26-bit halves.
_SPLITTER = 134217729.0


def _split(x):
    t = x * _SPLITTER
    hi = t - (t - x)
    return hi, x - hi


def _two_prod(x, y):
    """``x*y`` as ``p + e`` exactly, with ``p`` the rounded product (Dekker)."""
    p = x * y
    xh, xl = _split(x)
    yh, yl = _split(y)
    return p, ((xh * yh - p) + xh * yl + xl * yh) + xl * yl


def _two_sum(x, y):
    """``x + y`` as ``s + e`` exactly, with ``s`` the rounded sum (Knuth)."""
    s = x + y
    yy = s - x
    return s, (x - (s - yy)) + (y - yy)


def _offset(d, e_sin, e_cos):
    """``M(v_j + d) - M(v_j)`` and ``1 + e*cos(v_j + d)``, from ``e*sin`` and
    ``e*cos`` at the node ``v_j`` and the Taylor polynomials of ``sin(d)``
    and ``cos(d) - 1``, which hold to 3e-13 for ``|d| <= 2*_KEPLER_STEP``."""
    d2 = d * d
    sin_d = d - d * d2 * (1.0 / 6.0 - d2 * (1.0 / 120.0))
    cos_d = d2 * (d2 * (1.0 / 24.0) - 0.5)
    return d + e_cos * sin_d + e_sin * cos_d, 1.0 + e_cos * (1.0 + cos_d) - e_sin * sin_d


@lru_cache(maxsize=16)
def _kepler_table(e):
    """Nodes of ``M(v) = v + e*sin(v)`` on ``[0, 2*pi]``, for ``|e| < 1``.

    Returns ``rows``, ``edges``, ``first`` and ``steps``.  Row ``j`` holds
    ``M``, ``e*sin(v)``, ``e*cos(v)`` and the secant slope ``dv/dM`` to
    the next node at ``v_j = j*_KEPLER_STEP``; the last row repeats the
    first slope.  ``edges`` is ``M`` padded with ``+inf``.  ``first[i]``
    is the last node at or below the start of cell ``i`` of
    ``_KEPLER_CELLS`` equal parts of the period, and the binary search of
    ``steps`` from it finds the node at or below any point of the cell.
    A pure function of ``e``, built on first use in ~0.1 ms.
    """
    v = np.arange(_KEPLER_NODES + 1) * _KEPLER_STEP
    e_sin, e_cos = e * np.sin(v), e * np.cos(v)
    m = v + e_sin
    secant = np.diff(v) / np.diff(m)
    rows = np.stack([m, e_sin, e_cos, np.append(secant, secant[0])], axis=1)
    cells = np.arange(_KEPLER_CELLS + 1) * (_TAU / _KEPLER_CELLS)
    first = np.searchsorted(m, cells, side="right") - 1
    rounds = int(np.max(np.diff(first))).bit_length()
    edges = np.append(m, np.full(1 << rounds, np.inf))
    return rows, edges, first, [1 << r for r in reversed(range(rounds))]


class _Sinusoid:
    """A null profile ``alpha*s + beta + a*sin(w*s)``, ``w >= 0``.

    The profile of a timelike worldline increases strictly, so
    ``alpha > |a*w|``.  With ``v = w*s`` the equation ``profile = y``
    reads ``v + e*sin(v) = w*(y - beta)/alpha`` with ``e = a*w/alpha``:
    Kepler's equation, whose solution is quasi-periodic in the right-hand
    side (F. L. Markley, "Kepler equation solver", Celest. Mech. Dyn. Astr.
    63 (1995) 101-111, solves it without iteration); :meth:`inverse`
    starts from a table of one period instead.  A plain class: a
    dataclass would add ~1 ms to every import.
    """

    __slots__ = ("alpha", "beta", "a", "w")

    def __init__(self, alpha: float, beta: float, a: float = 0.0, w: float = 0.0):
        self.alpha, self.beta, self.a, self.w = alpha, beta, a, w

    def __add__(self, other):
        """The profile of a sum, or None if both carry a sinusoid and
        their frequencies differ."""
        if self.a and other.a and self.w != other.w:
            return None
        return _Sinusoid(self.alpha + other.alpha, self.beta + other.beta,
                         self.a + other.a, self.w if self.a else other.w)

    def scaled(self, factor):
        return _Sinusoid(factor * self.alpha, factor * self.beta, factor * self.a, self.w)

    def shifted(self, amount):
        return _Sinusoid(self.alpha, self.beta + amount, self.a, self.w)

    def inverse(self, value):
        """Parameters ``s`` where the profile takes ``value``, elementwise, in
        a fixed number of steps (:meth:`_kepler`); NaN for a target that is
        not finite.  A finite target whose ``s`` overflows raises."""
        value = np.asarray(value, dtype=float)
        if self.a == 0.0 or self.w == 0.0:
            return (value - self.beta) / self.alpha
        table = _kepler_table(self.a * self.w / self.alpha)
        out = np.empty(value.shape)
        flat, res = value.reshape(-1), out.reshape(-1)
        for start in range(0, flat.size, _KEPLER_CHUNK):
            part = slice(start, start + _KEPLER_CHUNK)
            with np.errstate(all="ignore"):
                res[part] = self._kepler(table, flat[part])
        lost = np.isfinite(flat) & ~np.isfinite(res)
        if lost.any():
            raise EvaluationFailure(f"null profile inverse overflows at target {flat[lost][0]:g}")
        return out

    def _kepler(self, table, y):
        """:meth:`inverse` on one chunk.

        The table gives the node ``v_j`` below the reduced target, two
        Newton steps on the offset from it give ``s``, and one Newton step
        on the profile itself corrects it (:meth:`_newton`).  An element
        is settled when that last step leaves an error below
        ``2**-60 * |s|`` and its offset stayed within two node spacings,
        where the polynomials for ``sin`` and ``cos`` of the offset hold.
        The others, near the cusps of a profile with ``|a*w|`` close to
        ``alpha``, halve their cell, where ``M`` increases through ``r``,
        and then take the same last step.
        """
        rows, edges, first, steps = table
        # w*(y - beta)/alpha, reduced by whole periods to r in [0, 2*pi).
        m = (y - self.beta) * (self.w / self.alpha)
        turns = np.floor(m * (1.0 / _TAU))
        r = m - turns * _TAU
        # Cell, then binary search: on 2**12 targets, 19-72 us
        # for |e| from 0.2 to 1 - 1e-6 (1 to 5 rounds) against 258-310 us
        # for np.searchsorted(rows[:, 0], r, "right") - 1, which gives the
        # same j (2-vCPU Xeon VM, best of 15).
        j = first.take((r * (_KEPLER_CELLS / _TAU)).astype(np.intp), mode="clip")
        for step in steps:
            j += step * (edges.take(j + step) <= r)
        m_j, e_sin, e_cos, secant = rows.take(j, axis=0).T
        # Newton on d = v - v_j, with sin(d) and cos(d) - 1 by their
        # Taylor polynomials (:func:`_offset`).
        dm = r - m_j
        d = dm * secant
        for _ in range(2):
            g, dv = _offset(d, e_sin, e_cos)
            d -= (g - dm) / dv
        s, settled = self._newton(y, j * _KEPLER_STEP + d + turns * _TAU, dv)
        settled &= np.abs(d) <= 2.0 * _KEPLER_STEP
        redo = np.flatnonzero(~settled)
        if redo.size:
            j, e_sin, e_cos, dm, turns = (a[redo] for a in (j, e_sin, e_cos, dm, turns))
            d, half = np.zeros(redo.size), _KEPLER_STEP
            for _ in range(_HALVINGS):  # the root stays in [d, d + half]
                half *= 0.5
                d = np.where(_offset(d + half, e_sin, e_cos)[0] <= dm, d + half, d)
            dv = _offset(d, e_sin, e_cos)[1]
            s[redo] = self._newton(y[redo], j * _KEPLER_STEP + d + turns * _TAU, dv)[0]
        return s

    def _newton(self, y, v, dv):
        """One Newton step on ``profile(s) = y`` from ``s = v/w``, where
        ``dv = 1 + e*cos(v)``: the new ``s``, and whether it is settled."""
        alpha, a, w = self.alpha, self.a, self.w
        s = v / w
        # The residual alpha*s + beta - y + a*sin(w*s), summed without
        # rounding error but that of sin: a*sin(u + e_u) = a*sin(u) +
        # a*cos(u)*e_u, and a*cos(u) = alpha*(dv - 1)/w.
        p, e_p = _two_prod(alpha, s)
        b, e_b = _two_sum(self.beta, -y)
        t, e_t = _two_sum(p, b)
        u, e_u = _two_prod(w, s)
        q, e_q = _two_prod(a, np.sin(u))
        res, e_r = _two_sum(t, q)
        res += (e_p + e_b) + (e_t + e_q) + (e_r + (alpha / w) * (dv - 1.0) * e_u)
        slope = alpha * dv
        step = res / slope
        s = s - step
        # The step leaves an error of at most |a|*w**2*step**2/(2*slope).
        return s, (abs(a) * w * w) * (step * step) <= 2.0 ** -59 * slope * np.abs(s)


class Observer(ABC):
    """Future-directed timelike worldline with array-aware evaluation.

    Every built-in kind refuses parameters that would make it anything
    else; a subclass's curve is taken as given.  Subclasses implement
    :meth:`position` and :meth:`velocity` over floats or numpy arrays
    and declare whether they are :attr:`smooth`; on a finite
    :attr:`domain` the null ranges follow from its ends, on an unbounded
    one a kind declares them through :meth:`_open_range`.  Both must be
    elementwise, returning arrays of the shape of ``s`` whose every
    element depends on that element of ``s`` alone: on a large enough
    grid block the radar chart evaluates them on one null coordinate per
    diagonal and spreads the values over the block.  A whole-array check
    such as :class:`PiecewiseLinear`'s domain test still sees every
    distinct value.  The scalar entry points :meth:`__call__` and
    :meth:`derivative` wrap the results in
    :class:`~mwsync.algebra.SplitComplex`, or raise EvaluationFailure
    where they are not finite.
    """

    # Whether the curve is C1, so that the chart has a derivative.
    smooth = True

    @property
    def domain(self) -> tuple[float, float]:
        """Closed parameter interval on which the curve is defined."""
        return _FULL_LINE

    def null_range(self, sign: float) -> tuple[float, float]:
        """Range of ``s -> t(s) + sign*x(s)``, ``sign`` +1 or -1 as in
        :meth:`null_inverse`.

        On a finite domain, the closed interval between the profile's
        values at the two domain ends, which on a timelike curve are its
        extremes; otherwise the open range of :meth:`_open_range`, but
        closed at a finite domain end, at the profile's value there.
        """
        lo, hi = self.domain
        finite = [end for end in (lo, hi) if math.isfinite(end)]
        if not finite:
            return self._open_range(sign)
        t, x = self.position(np.array(finite))
        ends = t + sign * x
        if len(finite) == 2:
            return float(ends.min()), float(ends.max())
        open_lo, open_hi = self._open_range(sign)
        return (float(ends[0]), open_hi) if math.isfinite(lo) else (open_lo, float(ends[0]))

    def _open_range(self, sign: float) -> tuple[float, float]:
        """The open :meth:`null_range` of an unbounded domain: the full line."""
        return _FULL_LINE

    @abstractmethod
    def position(self, s):
        """Coordinates ``(t, x)`` at parameter ``s`` (arrays allowed)."""

    @abstractmethod
    def velocity(self, s):
        """Parameter derivative ``(dt/ds, dx/ds)`` (arrays allowed)."""

    def __call__(self, s: float) -> SplitComplex:
        return _scalar(self, "position", f"s = {float(s)!r}", self.position, float(s))

    def derivative(self, s: float) -> SplitComplex:
        """Tangent vector at ``s`` as a split-complex number.

        At a parameter where the curve is only one-sidedly smooth the
        right-hand derivative is returned; kinds that expose such
        points say so in their own docstring.
        """
        return _scalar(self, "derivative", f"s = {float(s)!r}", self.velocity, float(s))

    def null_plus(self, s):
        t, x = self.position(s)
        return t + x

    def null_minus(self, s):
        t, x = self.position(s)
        return t - x

    def _sinusoid(self, sign: float) -> _Sinusoid | None:
        """The null profile of ``sign`` as ``alpha*s + beta + a*sin(w*s)``,
        or None if it has no such form."""
        return None

    def null_inverse(self, sign: float, value):
        """Inverse of a null profile without root finding, or None.

        Returns the parameter ``s`` with ``t(s) + x(s) = value`` for
        ``sign = +1`` or ``t(s) - x(s) = value`` for ``sign = -1``,
        elementwise; a finite ``value`` in the profile's range never gives
        NaN.  The base class inverts the profile of :meth:`_sinusoid`
        (:meth:`_Sinusoid.inverse`) and returns None for a kind without
        one; callers then solve for ``s`` numerically.
        """
        profile = self._sinusoid(sign)
        return None if profile is None else profile.inverse(value)

    def boosted(self, v, ctx: LightspeedContext = NATURAL_UNITS) -> "BoostedObserver":
        """This worldline boosted by velocity ``v`` (or a TwoVelocity)."""
        u = v if isinstance(v, TwoVelocity) else two_velocity(float(v), ctx)
        return BoostedObserver(u, self)

    def translated(self, offset: SplitComplex) -> "TranslatedObserver":
        """This worldline shifted by a constant event offset."""
        return TranslatedObserver(offset, self)

    def __add__(self, other: "Observer"):
        if not isinstance(other, Observer):
            return NotImplemented
        return SumObserver((self, other))


class Inertial(Observer):
    """Straight worldline ``gamma(s) = base + s*u`` at constant velocity.

    Parameterized by proper time; ``u`` is the unit two-velocity of the
    coordinate velocity ``v``.
    """

    def __init__(
        self,
        v: float = 0.0,
        base: SplitComplex = ZERO,
        ctx: LightspeedContext = NATURAL_UNITS,
    ):
        self.v = float(v)
        self.base = base
        self.u = two_velocity(self.v, ctx)

    def position(self, s):
        return self.base.t + s * self.u.u.t, self.base.x + s * self.u.u.x

    def velocity(self, s):
        shape = np.shape(s)
        return np.full(shape, self.u.u.t), np.full(shape, self.u.u.x)

    def _sinusoid(self, sign):
        # Affine: t +- x = (base.t +- base.x) + s*(u.t +- u.x), which
        # _Sinusoid.inverse inverts in closed form.
        return _Sinusoid(self.u.u.t + sign * self.u.u.x, self.base.t + sign * self.base.x)

    def __repr__(self):
        return f"Inertial(v={self.v!r}, base={self.base!r})"


class Rindler(Observer):
    """Uniformly accelerated worldline, proper acceleration ``a``.

    Parameterized by proper time:
    ``gamma(s) = (c**2/a) * (sinh(a s / c**2), cosh(a s / c**2))``
    (coordinates in the ``(ct, x)`` convention).  The curve hugs the
    light cone through the coordinate origin, so one of the two null
    coordinates is bounded: this is the standard example of a worldline
    whose radar chart covers a wedge rather than the plane.
    """

    def __init__(self, a: float, ctx: LightspeedContext = NATURAL_UNITS):
        a = float(a)
        if a == 0.0 or not math.isfinite(a):
            raise ValueError(f"proper acceleration must be finite and nonzero, got {a!r}")
        self.a = a
        self.scale = ctx.c * ctx.c / a  # signed length c**2/a

    def position(self, s):
        w = s / self.scale
        return self.scale * np.sinh(w), self.scale * np.cosh(w)

    def velocity(self, s):
        w = s / self.scale
        return np.cosh(w), np.sinh(w)

    def _open_range(self, sign):
        # t +- x = +-scale * exp(+-s/scale): the half-line of the sign
        # of sign*scale.
        return (0.0, math.inf) if sign * self.scale > 0 else (-math.inf, 0.0)

    def null_inverse(self, sign, value):
        # s = k*log(p/k) for t + x = p and s = -k*log(-m/k) for t - x = m.
        k = self.scale
        return sign * k * np.log(sign * value / k)

    def __repr__(self):
        return f"Rindler(a={self.a!r})"


class PerturbedInertial(Observer):
    """Oscillating worldline ``gamma(s) = (s, A*sin(w*s))``.

    Parameterized by coordinate time.  Timelike exactly when the peak
    coordinate speed ``|A*w|`` stays below 1 (in ct units), which the
    constructor enforces strictly.
    """

    def __init__(self, amplitude: float, frequency: float):
        self.amplitude = float(amplitude)
        self.frequency = float(frequency)
        peak = abs(self.amplitude * self.frequency)
        if not peak < 1.0:
            raise ValueError(
                f"peak speed |amplitude*frequency| = {peak!r} must be < 1"
            )

    def position(self, s):
        return np.asarray(s, dtype=float) + 0.0, self.amplitude * np.sin(
            self.frequency * np.asarray(s, dtype=float)
        )

    def velocity(self, s):
        s = np.asarray(s, dtype=float)
        return np.ones_like(s), self.amplitude * self.frequency * np.cos(
            self.frequency * s
        )

    def _sinusoid(self, sign):
        # t +- x = s +- A*sin(w*s) = s +- A*sign(w)*sin(|w|*s).
        a = sign * self.amplitude if self.frequency >= 0.0 else -sign * self.amplitude
        return _Sinusoid(1.0, 0.0, a, abs(self.frequency))

    def __repr__(self):
        return (
            f"PerturbedInertial(amplitude={self.amplitude!r}, "
            f"frequency={self.frequency!r})"
        )


class PiecewiseLinear(Observer):
    """Polygonal worldline through given ``(t, x)`` vertices.

    Parameterized by coordinate time over the closed vertex window.
    Continuous but kinked, so not :attr:`smooth`, and :meth:`velocity`
    returns the right-hand slope at each vertex (the last vertex reuses
    the final segment).  Vertices must be finite, with strictly
    increasing ``t`` and every segment slower than light: both vertex
    null coordinates ``t + x`` and ``t - x``, as computed, increase
    strictly, which is what inverting them by interpolation needs.
    """

    smooth = False

    def __init__(self, vertices):
        pts = [(float(t), float(x)) for t, x in vertices]
        if len(pts) < 2:
            raise ValueError("need at least two vertices")
        self.ts, self.xs = np.array(pts).T.copy()
        if not np.all(np.diff(self.ts) > 0.0):
            raise ValueError("vertex times must increase strictly")
        if not np.isfinite(pts).all():
            raise ValueError("vertex coordinates must be finite")
        slow = (np.diff(self.ts + self.xs) > 0.0) & (np.diff(self.ts - self.xs) > 0.0)
        if not slow.all():
            i = int(np.argmin(slow))
            raise ValueError(
                f"segment {i} from {pts[i]} to {pts[i + 1]} is not slower than light")
        self.slopes = np.diff(self.xs) / np.diff(self.ts)

    @property
    def domain(self):
        return float(self.ts[0]), float(self.ts[-1])

    def _check(self, s):
        s = np.asarray(s, dtype=float)
        if not np.all((s >= self.ts[0]) & (s <= self.ts[-1])):  # NaN is outside
            raise DomainExceeded(
                f"parameter outside [{float(self.ts[0])!r}, {float(self.ts[-1])!r}]"
            )
        return s

    def position(self, s):
        s = self._check(s)
        return s + 0.0, np.interp(s, self.ts, self.xs)

    def velocity(self, s):
        s = self._check(s)
        idx = np.clip(
            np.searchsorted(self.ts, s, side="right") - 1, 0, len(self.slopes) - 1
        )
        return np.ones_like(s), self.slopes[idx]

    def null_inverse(self, sign, value):
        # Exact on each segment: the vertex null coordinates increase
        # strictly (checked in __init__).
        return np.interp(value, self.ts + sign * self.xs, self.ts)

    def __repr__(self):
        return f"PiecewiseLinear({len(self.ts)} vertices on [{self.ts[0]:g}, {self.ts[-1]:g}])"


class _Combinator(Observer):
    """Worldline built from ``children``: smooth if they all are, on the
    intersection of their domains."""

    def __init__(self, children):
        children = tuple(children)
        if len(children) < 1:
            raise ValueError("need at least one child")
        self.children = children
        self.smooth = all(c.smooth for c in children)

    @property
    def domain(self):
        los, his = zip(*(c.domain for c in self.children))
        return max(los), min(his)


class SumObserver(_Combinator):
    """Pointwise sum of worldlines (sum of timelike is timelike)."""

    def _open_range(self, sign):
        # Each child's null coordinate increases in s, so the sum's
        # range endpoints are the sums of the children's endpoints.  No
        # inf - inf arises: lower ends are finite or -inf, upper ends
        # finite or +inf.
        lows, highs = zip(*(c.null_range(sign) for c in self.children))
        return reduce(add, lows, 0.0), reduce(add, highs, 0.0)

    def position(self, s):
        ts, xs = zip(*(c.position(s) for c in self.children))
        return reduce(add, ts), reduce(add, xs)

    def velocity(self, s):
        ts, xs = zip(*(c.velocity(s) for c in self.children))
        return reduce(add, ts), reduce(add, xs)

    def _sinusoid(self, sign):
        total = self.children[0]._sinusoid(sign)
        for child in self.children[1:]:
            part = child._sinusoid(sign)
            if total is None or part is None:
                return None
            total = total + part
        return total

    def __repr__(self):
        return f"SumObserver({list(self.children)!r})"


class BoostedObserver(_Combinator):
    """Child worldline boosted by a fixed two-velocity.

    Boosting scales the null coordinates by the positive factors
    ``u.t + u.x`` and ``u.t - u.x``, so range endpoints just scale.
    """

    def __init__(self, u: TwoVelocity, child: Observer):
        super().__init__((child,))
        self.u = u
        self.child = child

    def _open_range(self, sign):
        lo, hi = self.child.null_range(sign)
        factor = self.u.u.t + sign * self.u.u.x
        return lo * factor, hi * factor

    def position(self, s):
        t, x = self.child.position(s)
        return self.u.u.t * t + self.u.u.x * x, self.u.u.t * x + self.u.u.x * t

    def velocity(self, s):
        t, x = self.child.velocity(s)
        return self.u.u.t * t + self.u.u.x * x, self.u.u.t * x + self.u.u.x * t

    def _sinusoid(self, sign):
        profile = self.child._sinusoid(sign)
        return None if profile is None else profile.scaled(self.u.u.t + sign * self.u.u.x)

    def null_inverse(self, sign, value):
        return self.child.null_inverse(sign, value / (self.u.u.t + sign * self.u.u.x))

    def __repr__(self):
        return f"BoostedObserver(u={self.u!r}, child={self.child!r})"


class TranslatedObserver(_Combinator):
    """Child worldline shifted by a constant event offset."""

    def __init__(self, offset: SplitComplex, child: Observer):
        super().__init__((child,))
        self.offset = offset
        self.child = child

    def _open_range(self, sign):
        lo, hi = self.child.null_range(sign)
        amount = self.offset.t + sign * self.offset.x
        return lo + amount, hi + amount

    def position(self, s):
        t, x = self.child.position(s)
        return t + self.offset.t, x + self.offset.x

    def velocity(self, s):
        return self.child.velocity(s)

    def _sinusoid(self, sign):
        profile = self.child._sinusoid(sign)
        return None if profile is None else profile.shifted(self.offset.t + sign * self.offset.x)

    def null_inverse(self, sign, value):
        return self.child.null_inverse(
            sign, value - (self.offset.t + sign * self.offset.x)
        )

    def __repr__(self):
        return f"TranslatedObserver(offset={self.offset!r}, child={self.child!r})"


class LipVerdict(enum.Enum):
    """Whether the worldline's radar chart reaches the whole plane."""

    VERIFIED = "verified"
    FAILS = "fails"
    WINDOW_ONLY = "window_only"


@dataclass(frozen=True)
class LipStatus:
    verdict: LipVerdict
    reason: str
    null_window: tuple[tuple[float, float], tuple[float, float]] | None = None


def _span_text(r: tuple[float, float], closed: tuple[bool, bool]) -> str:
    left, right = "[" if closed[0] else "(", "]" if closed[1] else ")"
    return f"{left}{r[0]:g}, {r[1]:g}{right}"


def lip_status(obs: Observer) -> LipStatus:
    """Decide whether light cannot escape the worldline in either direction.

    Both null coordinates must sweep the entire real line; then every
    event in the plane is caught between an outgoing and a returning
    ray and radar coordinates exist globally.  On a finite domain the
    verdict is windowed: ``null_window`` holds the two closed
    :meth:`~Observer.null_range` readings.
    """
    ranges = [obs.null_range(sign) for sign in (1.0, -1.0)]
    if all(map(math.isfinite, obs.domain)):
        return LipStatus(
            LipVerdict.WINDOW_ONLY,
            "null ranges are known only over the finite parameter window",
            tuple(ranges),
        )
    closed = tuple(map(math.isfinite, obs.domain))
    problems = [
        f"null coordinate {name} has range {_span_text(r, closed)}"
        for name, r in zip(("t+x", "t-x"), ranges)
        if r != _FULL_LINE
    ]
    if problems:
        return LipStatus(LipVerdict.FAILS, "; ".join(problems))
    return LipStatus(
        LipVerdict.VERIFIED, "both null coordinates are onto the real line"
    )
