"""Split-complex geometry, radar charts, and proper time on the
Minkowski plane."""

from .algebra import (
    J,
    NATURAL_UNITS,
    ONE,
    ZERO,
    LightspeedContext,
    SplitComplex,
    TwoVelocity,
    boost,
    exp,
    inner,
    two_velocity,
    velocity_add,
)
from .causal import (
    DEFAULT_NULL_BAND,
    CausalRelation,
    LightRay,
    Orientation,
    RayPair,
    classify,
    cone,
    ray_intersect,
    rays_through,
)
from .errors import (
    DegenerateFactor,
    DegenerateSplit,
    DomainExceeded,
    EvaluationFailure,
    IndeterminateComposition,
    MwsyncError,
    NonMonotoneRadarTime,
    NoRadarCoordinate,
    NotDifferentiable,
    NotTimelike,
    QuadratureLimit,
    SameOrientation,
    ScenarioError,
    SpeedLimitExceeded,
)
from .fieldcheck import (
    AffineLorentzMap,
    AutomorphismOutcome,
    AutomorphismReport,
    ChronologyReport,
    ConformalityReport,
    ConjugateInput,
    ConjugateOutput,
    GridSpec,
    IdentityMap,
    LowReport,
    MapOrientation,
    MapSum,
    PlaneMap,
    ResidualReport,
    WaveCauchyMap,
    WitnessPair,
    automorphism_suite,
    causal_equivalence_check,
    chronology_check,
    conformality_report,
    holomorphy_residual,
    log_factor_wave_residual,
    low_counterexample,
    orientation_of,
    wave_residual,
)
from .mwmap import MarzkeWheelerMap
from .observers import (
    BoostedObserver,
    Inertial,
    LipStatus,
    LipVerdict,
    Observer,
    PerturbedInertial,
    PiecewiseLinear,
    Rindler,
    Smoothness,
    SumObserver,
    TranslatedObserver,
    lip_status,
)
from .propertime import (
    ProperTimeResult,
    RadarTrajectory,
    TwinReport,
    arc_length_proper_time,
    gravitational_dilation,
    proper_time_accelerated,
    proper_time_inertial,
    radar_trajectory_of,
    twin_consistency,
)
from .quadrature import QuadratureResult, adaptive_simpson
from .scenario import Scenario, Tolerances, load_scenario, parse_scenario

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
