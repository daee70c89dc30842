"""Worldlines on the Minkowski plane.

An observer is a future-directed timelike curve ``gamma(s)`` given by
array-aware coordinate functions.  The parameter convention is fixed by
each kind (proper time for the inertial and uniformly accelerated
families, coordinate time for the sampled kinds); what the rest of the
package relies on is only that ``gamma`` is future-directed timelike,
which is taken as given, not checked.

The null coordinate functions ``s -> t(s) + x(s)`` and
``s -> t(s) - x(s)`` are strictly increasing along any such curve, and
their ranges decide whether radar synchronization through the observer
reaches the whole plane.  :func:`lip_status` reports that verdict:
an observer from whose worldline no light ray can escape in either
direction sees every event, one with a bounded null range does not.

Both null questions take a ``sign``, +1 for ``t + x`` and -1 for
``t - x``: :meth:`Observer.null_range` declares the range of that
coordinate, and kinds whose null profiles invert in closed form provide
the inverse through :meth:`Observer.null_inverse`; the radar chart
root-finds the others.
"""

from __future__ import annotations

import enum
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import reduce
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
    "Smoothness",
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


class Smoothness(enum.IntEnum):
    """Regularity ladder; comparisons use the integer order."""

    C0 = 0
    PIECEWISE_SMOOTH = 1
    C1 = 2
    C2 = 3


class Observer(ABC):
    """Future-directed timelike worldline with array-aware evaluation.

    Subclasses implement :meth:`position` and :meth:`velocity` over
    floats or numpy arrays and declare their :attr:`smoothness`.  Both
    must be elementwise, returning arrays of the shape of ``s`` whose
    every element depends on that element of ``s`` alone: for an
    observer with a :attr:`costly_profile` the radar chart evaluates
    them on one null coordinate per grid diagonal and spreads the values
    over the grid.  A whole-array check such as
    :class:`PiecewiseLinear`'s domain test still sees every distinct
    value.  The scalar entry points :meth:`__call__` and
    :meth:`derivative` wrap the results in
    :class:`~mwsync.algebra.SplitComplex`.
    """

    smoothness: Smoothness = Smoothness.C2
    #: Whether :meth:`position` and :meth:`velocity` cost several numpy
    #: passes per element (``sin``, ``cos``), so that the radar chart
    #: evaluates them once per grid diagonal rather than at every node.
    costly_profile: bool = False

    @property
    def domain(self) -> tuple[float, float]:
        """Closed parameter interval on which the curve is defined."""
        return _FULL_LINE

    def null_range(self, sign: float) -> tuple[float, float] | None:
        """Open range of ``s -> t(s) + sign*x(s)``, or None if only sampled.

        ``sign`` is +1 or -1, as in :meth:`null_inverse`.
        """
        return _FULL_LINE

    @abstractmethod
    def position(self, s):
        """Coordinates ``(t, x)`` at parameter ``s`` (arrays allowed)."""

    @abstractmethod
    def velocity(self, s):
        """Parameter derivative ``(dt/ds, dx/ds)`` (arrays allowed)."""

    def __call__(self, s: float) -> SplitComplex:
        with np.errstate(over="ignore", invalid="ignore"):
            t, x = self.position(float(s))
        if not (math.isfinite(t) and math.isfinite(x)):
            raise EvaluationFailure(
                f"{self!r} has no finite position at s = {float(s)!r}: "
                f"({float(t)!r}, {float(x)!r})"
            )
        return SplitComplex(float(t), float(x))

    def derivative(self, s: float) -> SplitComplex:
        """Tangent vector at ``s`` as a split-complex number.

        At a parameter where the curve is only one-sidedly smooth the
        right-hand derivative is returned; kinds that expose such
        points say so in their own docstring.
        """
        t, x = self.velocity(float(s))
        return SplitComplex(float(t), float(x))

    def null_plus(self, s):
        t, x = self.position(s)
        return t + x

    def null_minus(self, s):
        t, x = self.position(s)
        return t - x

    def null_inverse(self, sign: float, value):
        """Closed-form inverse of a null profile, or None if there is none.

        Returns the parameter ``s`` with ``t(s) + x(s) = value`` for
        ``sign = +1`` or ``t(s) - x(s) = value`` for ``sign = -1``,
        elementwise.  The base class has no closed form; callers then
        solve for ``s`` numerically.
        """
        return None

    def null_window(self) -> tuple[tuple[float, float], tuple[float, float]] | None:
        """Achieved null-coordinate window over the (finite) domain.

        Meaningful for sampled kinds; analytic kinds report their
        ranges through :meth:`null_range` instead and return None here
        when the domain is unbounded.
        """
        lo, hi = self.domain
        if not (math.isfinite(lo) and math.isfinite(hi)):
            return None
        return (
            (float(self.null_plus(lo)), float(self.null_plus(hi))),
            (float(self.null_minus(lo)), float(self.null_minus(hi))),
        )

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

    smoothness = Smoothness.C2

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

    def null_inverse(self, sign, value):
        # Affine: t +- x = (base.t +- base.x) + s*(u.t +- u.x).
        return (value - (self.base.t + sign * self.base.x)) / (
            self.u.u.t + sign * self.u.u.x
        )

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

    smoothness = Smoothness.C2

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

    def null_range(self, sign):
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

    smoothness = Smoothness.C2
    costly_profile = True

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

    def __repr__(self):
        return (
            f"PerturbedInertial(amplitude={self.amplitude!r}, "
            f"frequency={self.frequency!r})"
        )


class PiecewiseLinear(Observer):
    """Polygonal worldline through given ``(t, x)`` vertices.

    Parameterized by coordinate time over the closed vertex window.
    Continuous but kinked, so :attr:`smoothness` is C0 and
    :meth:`velocity` returns the right-hand slope at each vertex (the
    last vertex reuses the final segment).  Vertices need strictly
    increasing ``t``.  Segment speeds are not checked: a segment at or
    above the speed of light is accepted as given.
    """

    smoothness = Smoothness.C0

    def __init__(self, vertices):
        pts = [(float(t), float(x)) for t, x in vertices]
        if len(pts) < 2:
            raise ValueError("need at least two vertices")
        self.ts = np.array([p[0] for p in pts])
        self.xs = np.array([p[1] for p in pts])
        if not np.all(np.diff(self.ts) > 0.0):
            raise ValueError("vertex times must increase strictly")
        self.slopes = np.diff(self.xs) / np.diff(self.ts)

    @property
    def domain(self):
        return float(self.ts[0]), float(self.ts[-1])

    def null_range(self, sign):
        return None

    def _check(self, s):
        s = np.asarray(s, dtype=float)
        if np.any(s < self.ts[0]) or np.any(s > self.ts[-1]):
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
        # Exact on each segment when the vertex null coordinates
        # increase strictly; a null or spacelike segment leaves the
        # profile without an inverse, so defer to the root finder.
        nodes = self.ts + sign * self.xs
        if not np.all(np.diff(nodes) > 0.0):
            return None
        return np.interp(value, nodes, self.ts)

    def null_window(self):
        # Piecewise-linear functions attain extrema at vertices, so the
        # exact achieved window comes from the vertex set.
        plus = self.ts + self.xs
        minus = self.ts - self.xs
        return (
            (float(plus.min()), float(plus.max())),
            (float(minus.min()), float(minus.max())),
        )

    def __repr__(self):
        return f"PiecewiseLinear({len(self.ts)} vertices on [{self.ts[0]:g}, {self.ts[-1]:g}])"


class _Combinator(Observer):
    """Worldline built from ``children``: the least of their smoothness,
    costly if any of their profiles is, on the intersection of their
    domains."""

    def __init__(self, children):
        children = tuple(children)
        if len(children) < 1:
            raise ValueError("need at least one child")
        self.children = children
        self.smoothness = Smoothness(min(c.smoothness for c in children))

    @property
    def costly_profile(self):
        return any(c.costly_profile for c in self.children)

    @property
    def domain(self):
        los, his = zip(*(c.domain for c in self.children))
        return max(los), min(his)


class SumObserver(_Combinator):
    """Pointwise sum of worldlines (sum of timelike is timelike)."""

    def null_range(self, sign):
        ranges = [c.null_range(sign) for c in self.children]
        if any(r is None for r in ranges):
            return None
        # Each child's null coordinate increases in s, so the sum's
        # range endpoints are the sums of the children's endpoints.  No
        # inf - inf arises: lower ends are finite or -inf, upper ends
        # finite or +inf.
        lows, highs = zip(*ranges)
        return reduce(add, lows, 0.0), reduce(add, highs, 0.0)

    def position(self, s):
        ts, xs = zip(*(c.position(s) for c in self.children))
        return reduce(add, ts), reduce(add, xs)

    def velocity(self, s):
        ts, xs = zip(*(c.velocity(s) for c in self.children))
        return reduce(add, ts), reduce(add, xs)

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

    def null_range(self, sign):
        r = self.child.null_range(sign)
        factor = self.u.u.t + sign * self.u.u.x
        return None if r is None else (r[0] * factor, r[1] * factor)

    def position(self, s):
        t, x = self.child.position(s)
        return self.u.u.t * t + self.u.u.x * x, self.u.u.t * x + self.u.u.x * t

    def velocity(self, s):
        t, x = self.child.velocity(s)
        return self.u.u.t * t + self.u.u.x * x, self.u.u.t * x + self.u.u.x * t

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

    def null_range(self, sign):
        r = self.child.null_range(sign)
        amount = self.offset.t + sign * self.offset.x
        return None if r is None else (r[0] + amount, r[1] + amount)

    def position(self, s):
        t, x = self.child.position(s)
        return t + self.offset.t, x + self.offset.x

    def velocity(self, s):
        return self.child.velocity(s)

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


def _span_text(r: tuple[float, float]) -> str:
    return f"({r[0]:g}, {r[1]:g})"


def lip_status(obs: Observer) -> LipStatus:
    """Decide whether light cannot escape the worldline in either direction.

    Both null coordinates must sweep the entire real line; then every
    event in the plane is caught between an outgoing and a returning
    ray and radar coordinates exist globally.  Analytic kinds declare
    their ranges; sampled kinds only support a windowed verdict.
    """
    ranges = [obs.null_range(sign) for sign in (1.0, -1.0)]
    if any(r is None for r in ranges):
        return LipStatus(
            LipVerdict.WINDOW_ONLY,
            "null ranges are known only over the sampled parameter window",
            obs.null_window(),
        )
    problems = [
        f"null coordinate {name} has range {_span_text(r)}"
        for name, r in zip(("t+x", "t-x"), ranges)
        if r != _FULL_LINE
    ]
    if problems:
        return LipStatus(LipVerdict.FAILS, "; ".join(problems))
    return LipStatus(
        LipVerdict.VERIFIED, "both null coordinates are onto the real line"
    )
