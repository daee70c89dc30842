"""Causal order on the split-complex plane.

Classifies event pairs by the sign of the interval
``(dt - dx) * (dt + dx)`` and the sign of the time difference, with a
relative tolerance band around the light cone so that events produced
by rounded arithmetic still classify as null when they should.
:func:`cone` is that arithmetic on arrays of separations, and
:func:`classify` is its scalar reading.  Also provides the two families
of light rays and their intersection, which together are the geometric
backbone of radar synchronization: every event is the unique
intersection of one left-moving and one right-moving ray.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .algebra import SplitComplex
from .errors import SameOrientation

__all__ = [
    "CausalRelation",
    "Orientation",
    "DEFAULT_NULL_BAND",
    "cone",
    "classify",
    "LightRay",
    "RayPair",
    "rays_through",
    "ray_intersect",
]


class CausalRelation(enum.Enum):
    """Relation of y to x: where y - x sits relative to the cone at 0."""

    EQUAL = "equal"
    NULL_FUTURE = "null_future"
    NULL_PAST = "null_past"
    CHRON_FUTURE = "chron_future"
    CHRON_PAST = "chron_past"
    SPACELIKE = "spacelike"


class Orientation(enum.Enum):
    """Propagation direction of a light ray."""

    LEFT = "left"
    RIGHT = "right"


DEFAULT_NULL_BAND = 1e-9


def cone(dt, dx, tol: float = DEFAULT_NULL_BAND):
    """Elementwise causal test of separations ``(dt, dx)``.

    Returns ``(q, band, margin)``: the interval ``(dt - dx) * (dt + dx)``,
    the null band ``tol * (1 + dt**2 + dx**2)``, and the signed future
    margin, ``q`` where ``dt > 0`` and ``-|q|`` elsewhere, which is
    positive exactly for future timelike separations.  A separation is
    null when ``|q| <= band`` and chronological when ``q > band``.  The
    band scales with the squared separation so that the verdict is
    stable under the rounding of coordinates of any magnitude: for
    events of size R the interval carries an absolute rounding error of
    order ``eps * R**2``.
    """
    q = (dt - dx) * (dt + dx)
    return q, tol * (1.0 + dt * dt + dx * dx), np.where(dt > 0.0, q, -np.abs(q))


def classify(
    x: SplitComplex, y: SplitComplex, tol: float = DEFAULT_NULL_BAND
) -> CausalRelation:
    """Classify the causal relation of ``y`` relative to ``x`` by :func:`cone`.

    Returns
    -------
    CausalRelation
        EQUAL only for bit-identical coordinates; otherwise one of the
        null, chronological, or spacelike relations.  ``|q| == band``
        is null, and a null separation with ``dt == 0`` is NULL_PAST in
        both argument orders.
    """
    d = y - x
    if d.t == 0.0 and d.x == 0.0:
        return CausalRelation.EQUAL
    q, band, _ = cone(d.t, d.x, tol)
    if abs(q) <= band:
        return CausalRelation.NULL_FUTURE if d.t > 0.0 else CausalRelation.NULL_PAST
    if q > 0.0:
        return CausalRelation.CHRON_FUTURE if d.t > 0.0 else CausalRelation.CHRON_PAST
    return CausalRelation.SPACELIKE


@dataclass(frozen=True)
class LightRay:
    """A full light ray, stored by orientation and conserved level.

    A right-moving ray is a level set of ``t - x``; a left-moving ray
    is a level set of ``t + x``.  Storing the level instead of a point
    makes ray identity and intersection exact.
    """

    orientation: Orientation
    level: float


@dataclass(frozen=True)
class RayPair:
    left: LightRay
    right: LightRay


def rays_through(p: SplitComplex) -> RayPair:
    """The two light rays through ``p`` (one per orientation)."""
    return RayPair(
        left=LightRay(Orientation.LEFT, p.t + p.x),
        right=LightRay(Orientation.RIGHT, p.t - p.x),
    )


def ray_intersect(a: LightRay, b: LightRay) -> SplitComplex:
    """Unique intersection event of two rays of opposite orientation.

    Solving ``t + x = l`` and ``t - x = r`` gives ``t = (l + r)/2`` and
    ``x = (l - r)/2``.

    Raises
    ------
    SameOrientation
        If both rays move the same way (parallel, no unique point).
    """
    if a.orientation is b.orientation:
        raise SameOrientation(f"parallel rays do not meet: {a!r}, {b!r}")
    left, right = (a, b) if a.orientation is Orientation.LEFT else (b, a)
    return SplitComplex(
        (left.level + right.level) / 2.0, (left.level - right.level) / 2.0
    )

