"""Exception hierarchy for the mwsync package.

Every failure mode that callers are expected to handle gets its own
class so that except-clauses can be precise.  All of them derive from
:class:`MwsyncError`, which itself derives from ``ValueError`` because
each one ultimately signals an input outside a function's domain.
"""

from __future__ import annotations

__all__ = [
    "MwsyncError",
    "SpeedLimitExceeded",
    "IndeterminateComposition",
    "NotTimelike",
    "DomainExceeded",
    "NoRadarCoordinate",
    "NotDifferentiable",
    "DegenerateFactor",
    "EvaluationFailure",
    "DegenerateSplit",
    "NonMonotoneRadarTime",
    "QuadratureLimit",
    "ScenarioError",
]


class MwsyncError(ValueError):
    """Base class for all package-specific errors."""


class SpeedLimitExceeded(MwsyncError):
    """A coordinate velocity reached or exceeded the speed of light."""


class IndeterminateComposition(MwsyncError):
    """Velocity composition hit the singular denominator 1 + v*w/c**2 = 0."""


class NotTimelike(MwsyncError):
    """A worldline's tangent is not timelike at a quadrature node."""


class DomainExceeded(MwsyncError):
    """A worldline was evaluated outside its parameter domain."""


class NoRadarCoordinate(MwsyncError):
    """The event is outside the observer's radar-coordinate chart."""


class NotDifferentiable(MwsyncError):
    """An analytic derivative was requested where none exists."""


class DegenerateFactor(MwsyncError):
    """A conformal factor came out non-positive."""


class EvaluationFailure(MwsyncError):
    """A map could not be evaluated at a requested node."""


class DegenerateSplit(MwsyncError):
    """The second worldline of a two-observer map is constant, so its
    contribution degenerates to a translation."""


class NonMonotoneRadarTime(MwsyncError):
    """Radar time along a trajectory failed to increase strictly."""


class QuadratureLimit(MwsyncError):
    """Adaptive quadrature could not converge: a panel still disagreed at
    the depth cap, the evaluation budget ran out, or the integrand was
    NaN at a node."""


class ScenarioError(MwsyncError):
    """A scenario file is malformed or internally inconsistent."""
