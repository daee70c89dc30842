"""Split-complex numbers and velocity kinematics on the Minkowski plane.

A split-complex number ``t + x*J`` with ``J*J = +1`` encodes the event
with time coordinate ``ct = t`` and space coordinate ``x``.  The squared
modulus ``t**2 - x**2`` is the quadratic form of the (+, -) metric, so
the algebra's multiplicative structure is the Lorentz geometry of the
plane: unit-modulus elements with positive time part are exactly the
future-directed two-velocities, and multiplying by one of them is a
boost.

All numeric fields are plain floats.  Components are validated to be
finite on construction; every subsequent operation is closed over
finite values except where an explicit error class says otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import IndeterminateComposition, SpeedLimitExceeded

__all__ = [
    "SplitComplex",
    "J",
    "ZERO",
    "ONE",
    "inner",
    "exp",
    "LightspeedContext",
    "NATURAL_UNITS",
    "TwoVelocity",
    "two_velocity",
    "boost",
    "velocity_add",
]


def _as_finite_float(value, label: str) -> float:
    out = float(value)
    if not math.isfinite(out):
        raise ValueError(f"{label} must be finite, got {out!r}")
    return out


@dataclass(frozen=True)
class SplitComplex:
    """Element ``t + x*J`` of the split-complex plane.

    Parameters
    ----------
    t : float
        Real part; stores the time coordinate scaled by c.
    x : float
        Hyperbolic-imaginary part; stores the space coordinate.
    """

    t: float
    x: float

    def __post_init__(self):
        object.__setattr__(self, "t", _as_finite_float(self.t, "t"))
        object.__setattr__(self, "x", _as_finite_float(self.x, "x"))

    def __add__(self, other: "SplitComplex") -> "SplitComplex":
        if not isinstance(other, SplitComplex):
            return NotImplemented
        return SplitComplex(self.t + other.t, self.x + other.x)

    def __sub__(self, other: "SplitComplex") -> "SplitComplex":
        if not isinstance(other, SplitComplex):
            return NotImplemented
        return SplitComplex(self.t - other.t, self.x - other.x)

    def __neg__(self) -> "SplitComplex":
        return SplitComplex(-self.t, -self.x)

    def __mul__(self, other):
        # (a + bJ)(c + dJ) = (ac + bd) + (ad + bc)J since J*J = 1.
        if isinstance(other, SplitComplex):
            return SplitComplex(
                self.t * other.t + self.x * other.x,
                self.t * other.x + self.x * other.t,
            )
        if isinstance(other, (int, float)):
            return SplitComplex(self.t * other, self.x * other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return SplitComplex(self.t * other, self.x * other)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return SplitComplex(self.t / other, self.x / other)
        return NotImplemented

    def conj(self) -> "SplitComplex":
        """Split-complex conjugate ``t - x*J`` (spatial reflection)."""
        return SplitComplex(self.t, -self.x)

    def norm_sq(self) -> float:
        """Quadratic form ``t**2 - x**2``; sign classifies the causal type."""
        return self.t * self.t - self.x * self.x


J = SplitComplex(0.0, 1.0)
ZERO = SplitComplex(0.0, 0.0)
ONE = SplitComplex(1.0, 0.0)


def inner(a: SplitComplex, b: SplitComplex) -> float:
    """Minkowski inner product ``a.t*b.t - a.x*b.x``.

    Polarization of :meth:`SplitComplex.norm_sq`; equals the real part
    of ``a * b.conj()``.
    """
    return a.t * b.t - a.x * b.x


def exp(a: SplitComplex) -> SplitComplex:
    """Split-complex exponential ``e**t * (cosh x + sinh x * J)``.

    The power series of ``exp`` with ``J*J = 1`` sorts even powers of
    ``x*J`` into ``cosh`` and odd ones into ``sinh``.
    """
    scale = math.exp(a.t)
    return SplitComplex(scale * math.cosh(a.x), scale * math.sinh(a.x))


@dataclass(frozen=True)
class LightspeedContext:
    """Bundle of unit conventions; just the speed of light for now.

    Defaults to natural units ``c = 1``.  Pass an explicit context to
    work in SI or any other system.
    """

    c: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "c", _as_finite_float(self.c, "c"))
        if self.c <= 0.0:
            raise ValueError(f"c must be positive, got {self.c}")


NATURAL_UNITS = LightspeedContext()


@dataclass(frozen=True)
class TwoVelocity:
    """Future-directed unit vector of the (+, -) metric.

    Wraps a :class:`SplitComplex` ``u`` with ``norm_sq(u) == 1`` (up to
    1e-12) and ``u.t > 0``.  These are exactly the elements whose left
    multiplication is an orthochronous boost.
    """

    u: SplitComplex

    def __post_init__(self):
        if not isinstance(self.u, SplitComplex):
            raise TypeError("TwoVelocity wraps a SplitComplex")
        q = self.u.norm_sq()
        if abs(q - 1.0) > 1e-12:
            raise ValueError(f"two-velocity must be unit-modulus, norm_sq={q!r}")
        if self.u.t <= 0.0:
            raise ValueError("two-velocity must be future-directed (t > 0)")

    @property
    def gamma(self) -> float:
        """Time dilation factor; the time component of the unit vector."""
        return self.u.t

    @property
    def beta(self) -> float:
        """Coordinate velocity in units of c."""
        return self.u.x / self.u.t


def two_velocity(v: float, ctx: LightspeedContext = NATURAL_UNITS) -> TwoVelocity:
    """Two-velocity of a particle moving at coordinate velocity ``v``.

    Parameters
    ----------
    v : float
        Coordinate velocity dx/dt, in the same units as ``ctx.c``.
    ctx : LightspeedContext
        Unit system; defaults to c = 1.

    Returns
    -------
    TwoVelocity
        ``gamma * (1 + beta*J)`` with ``beta = v/c``.

    Raises
    ------
    SpeedLimitExceeded
        If ``abs(v) >= c``.
    """
    v = _as_finite_float(v, "v")
    beta = v / ctx.c
    if abs(beta) >= 1.0:
        raise SpeedLimitExceeded(f"|v| = {abs(v)!r} >= c = {ctx.c!r}")
    gamma = 1.0 / math.sqrt((1.0 - beta) * (1.0 + beta))
    return TwoVelocity(SplitComplex(gamma, gamma * beta))


def boost(u: TwoVelocity, p: SplitComplex) -> SplitComplex:
    """Boost event ``p`` by the two-velocity ``u``.

    Left multiplication by a unit-modulus split-complex number is the
    active Lorentz boost taking the time axis onto the line spanned by
    ``u``; it preserves ``norm_sq`` exactly in real arithmetic.
    """
    return u.u * p


def velocity_add(v: float, w: float, ctx: LightspeedContext = NATURAL_UNITS) -> float:
    """Relativistic velocity composition ``(v + w) / (1 + v*w/c**2)``.

    Raises
    ------
    SpeedLimitExceeded
        If either input lies outside the closed interval [-c, c]; a
        lightlike input is composed.
    IndeterminateComposition
        If the denominator vanishes, which happens only for opposite
        lightlike inputs, ``v = c`` and ``w = -c`` or the reverse.
    """
    v = _as_finite_float(v, "v")
    w = _as_finite_float(w, "w")
    c = ctx.c
    if abs(v) > c or abs(w) > c:
        raise SpeedLimitExceeded(f"inputs must lie in [-c, c], got {v!r}, {w!r}")
    denom = 1.0 + (v * w) / (c * c)
    if denom == 0.0:
        raise IndeterminateComposition(f"1 + v*w/c**2 = 0 for v={v!r}, w={w!r}")
    return (v + w) / denom
