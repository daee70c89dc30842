"""Causal order on the split-complex plane.

Classifies event pairs by the sign of the interval
``(dt - dx) * (dt + dx)`` and the sign of the time difference, with a
relative tolerance band around the light cone so that events produced
by rounded arithmetic still classify as null when they should.
:func:`cone` is that arithmetic on arrays of separations, and
:func:`classify` is its scalar reading.
"""

from __future__ import annotations

import enum

import numpy as np

from .algebra import SplitComplex

__all__ = ["CausalRelation", "DEFAULT_NULL_BAND", "cone", "classify"]


class CausalRelation(enum.Enum):
    """Relation of y to x: where y - x sits relative to the cone at 0."""

    EQUAL = "equal"
    NULL_FUTURE = "null_future"
    NULL_PAST = "null_past"
    CHRON_FUTURE = "chron_future"
    CHRON_PAST = "chron_past"
    SPACELIKE = "spacelike"


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

