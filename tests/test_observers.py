"""Worldline families, combinators, and the timelike/LIP checks."""

import math

import numpy as np
import pytest

from mwsync import (
    DomainExceeded,
    EvaluationFailure,
    Inertial,
    LipVerdict,
    PerturbedInertial,
    PiecewiseLinear,
    Rindler,
    Smoothness,
    SplitComplex,
    lip_status,
    two_velocity,
)


def test_inertial_rest_observer():
    lab = Inertial(0.0)
    assert lab(1.5) == SplitComplex(1.5, 0.0)
    assert lab.derivative(2.0) == SplitComplex(1.0, 0.0)
    assert lab.smoothness is Smoothness.C2
    assert lab.domain == (-math.inf, math.inf)


def test_inertial_moving_observer():
    obs = Inertial(0.6)
    u = two_velocity(0.6).u
    assert obs(2.0) == 2.0 * u
    # base offset shifts the whole line
    shifted = Inertial(0.6, base=SplitComplex(1.0, -2.0))
    assert shifted(0.0) == SplitComplex(1.0, -2.0)
    assert shifted(2.0) == SplitComplex(1.0, -2.0) + 2.0 * u


def test_position_accepts_arrays():
    obs = Inertial(0.5)
    s = np.linspace(-1.0, 1.0, 7)
    t, x = obs.position(s)
    assert t.shape == s.shape
    for i, si in enumerate(s):
        p = obs(float(si))
        assert t[i] == p.t and x[i] == p.x


def test_null_profiles_match_position():
    obs = PerturbedInertial(0.2, 3.0)
    for s in (-1.2, 0.0, 0.7):
        p = obs(s)
        assert obs.null_plus(s) == p.t + p.x
        assert obs.null_minus(s) == p.t - p.x


def test_rindler_closed_form():
    obs = Rindler(2.0)  # scale c^2/a = 0.5
    s = 0.8
    assert obs(s).t == pytest.approx(0.5 * math.sinh(s / 0.5), rel=1e-15)
    assert obs(s).x == pytest.approx(0.5 * math.cosh(s / 0.5), rel=1e-15)
    # unit-speed parametrization
    assert obs.derivative(s).norm_sq() == pytest.approx(1.0, rel=1e-12)


def test_rindler_null_ranges_follow_the_wedge():
    right = Rindler(1.0)
    assert right.null_range(1.0) == (0.0, math.inf)
    assert right.null_range(-1.0) == (-math.inf, 0.0)
    left = Rindler(-1.0)
    assert left.null_range(1.0) == (-math.inf, 0.0)
    assert left.null_range(-1.0) == (0.0, math.inf)


def test_scalar_position_must_be_finite():
    # sinh overflows far along the wedge; the scalar API names the
    # parameter instead of failing inside SplitComplex
    with pytest.raises(EvaluationFailure, match=r"no finite position at s = 1000\.0"):
        Rindler(1.0)(1000.0)
    assert Rindler(1.0)(700.0).t > 1e300


def test_rindler_rejects_zero_acceleration():
    with pytest.raises(ValueError):
        Rindler(0.0)


def test_perturbed_inertial_slope_bound():
    PerturbedInertial(0.3, 3.0)  # |A w| = 0.9 < 1 is fine
    with pytest.raises(ValueError):
        PerturbedInertial(0.5, 2.0)  # |A w| = 1 touches the light cone
    with pytest.raises(ValueError):
        PerturbedInertial(1.0, 2.0)


def test_perturbed_inertial_position():
    obs = PerturbedInertial(0.25, 2.0)
    s = 0.4
    assert obs(s) == SplitComplex(s, 0.25 * math.sin(2.0 * s))
    assert obs.derivative(s).x == pytest.approx(0.5 * math.cos(0.8), rel=1e-15)


def test_piecewise_linear_basics():
    zig = PiecewiseLinear([(0.0, 0.0), (1.0, 0.5), (3.0, -0.5)])
    assert zig.smoothness is Smoothness.C0
    assert zig.domain == (0.0, 3.0)
    assert zig(0.5) == SplitComplex(0.5, 0.25)
    assert zig(2.0) == SplitComplex(2.0, 0.0)
    # slopes are right-hand at the kink
    assert zig.derivative(1.0) == SplitComplex(1.0, -0.5)
    assert zig.derivative(0.5) == SplitComplex(1.0, 0.5)


def test_piecewise_linear_validation():
    with pytest.raises(ValueError):
        PiecewiseLinear([(0.0, 0.0)])
    with pytest.raises(ValueError):
        PiecewiseLinear([(0.0, 0.0), (0.0, 1.0)])
    zig = PiecewiseLinear([(0.0, 0.0), (1.0, 0.5)])
    with pytest.raises(DomainExceeded, match=r"outside \[0\.0, 1\.0\]$"):
        zig(1.5)


def test_piecewise_linear_null_window_is_exact():
    zig = PiecewiseLinear([(0.0, 0.0), (1.0, 0.5), (3.0, -0.5)])
    window = zig.null_window()
    assert window is not None
    plus, minus = window
    assert plus == (0.0, 2.5)
    assert minus == (0.0, 3.5)


def test_sum_observer():
    a = Inertial(0.5)
    b = Rindler(1.0)
    s = a + b
    p = s(0.3)
    assert p == a(0.3) + b(0.3)
    assert s.smoothness is Smoothness.C2
    # a full-line summand stretches the wedge ranges back to the line
    assert s.null_range(1.0) == (-math.inf, math.inf)
    # two like wedges stay a wedge
    w = Rindler(1.0) + Rindler(2.0)
    assert w.null_range(1.0) == (0.0, math.inf)
    assert w.null_range(-1.0) == (-math.inf, 0.0)


def test_sum_of_piecewise_drops_smoothness():
    zig = PiecewiseLinear([(0.0, 0.0), (1.0, 0.25), (2.0, 0.0)])
    s = Inertial(0.0) + zig
    assert s.smoothness is Smoothness.C0
    assert s.domain == (0.0, 2.0)


def test_boosted_observer():
    obs = Inertial(0.0).boosted(0.6)
    u = two_velocity(0.6).u
    assert obs(1.0) == u
    assert obs.derivative(1.0) == u
    # boosting scales the null ranges of a wedge observer
    w = Rindler(1.0).boosted(0.6)
    factor_plus = u.t + u.x
    lo, hi = w.null_range(1.0)
    assert lo == 0.0 * factor_plus and hi == math.inf


def test_translated_observer():
    obs = Inertial(0.0).translated(SplitComplex(0.0, 1.0))
    assert obs(0.5) == SplitComplex(0.5, 1.0)
    w = Rindler(1.0).translated(SplitComplex(0.0, 1.0))
    assert w.null_range(1.0) == (1.0, math.inf)
    assert w.null_range(-1.0) == (-math.inf, -1.0)


def test_lip_status_verified_for_full_line_observers():
    st = lip_status(Inertial(0.5))
    assert st.verdict is LipVerdict.VERIFIED
    assert lip_status(PerturbedInertial(0.3, 1.0)).verdict is LipVerdict.VERIFIED


def test_lip_status_fails_for_wedge_observers():
    st = lip_status(Rindler(1.0))
    assert st.verdict is LipVerdict.FAILS
    assert "t+x" in st.reason or "t-x" in st.reason
    assert "(0" in st.reason or "0)" in st.reason


def test_lip_status_window_only_for_finite_domains():
    zig = PiecewiseLinear([(0.0, 0.0), (2.0, 0.5)])
    st = lip_status(zig)
    assert st.verdict is LipVerdict.WINDOW_ONLY
    assert st.null_window is not None
    plus, minus = st.null_window
    assert plus == (0.0, 2.5)
    assert minus == (0.0, 1.5)


CLOSED_FORM_KINDS = [
    Inertial(0.6, base=SplitComplex(0.5, -1.0)),
    Rindler(1.5),
    Rindler(-0.5),
    PiecewiseLinear([(-3.0, 0.0), (0.0, 0.6), (3.0, -0.3)]),
    Rindler(1.0).boosted(-0.4),
    Inertial(-0.3).translated(SplitComplex(1.0, 2.0)),
    Rindler(2.0).translated(SplitComplex(-0.5, 0.25)).boosted(0.7),
]


@pytest.mark.parametrize("obs", CLOSED_FORM_KINDS, ids=repr)
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_null_inverse_undoes_the_null_profile(obs, sign):
    # Parameters where the wedge kinds' profiles stay within e**3 of the
    # horizon scale, so forward rounding does not swamp the comparison.
    s = np.linspace(-1.5, 1.5, 41)
    profile = obs.null_plus if sign > 0 else obs.null_minus
    back = obs.null_inverse(sign, profile(s))
    assert back is not None
    assert np.max(np.abs(back - s)) <= 1e-13 * (1.0 + np.abs(s)).max()


def test_root_finder_kinds_have_no_closed_form():
    wobble = PerturbedInertial(0.3, 1.0)
    for obs in (wobble, wobble + Inertial(0.2), wobble.boosted(0.4),
                wobble.translated(SplitComplex(0.3, -0.2))):
        assert obs.null_inverse(1.0, np.zeros(3)) is None
        assert obs.null_inverse(-1.0, np.zeros(3)) is None


def test_piecewise_linear_null_inverse_needs_increasing_vertices():
    # The second segment is null (dx/dt = 1), so t - x stalls on it.
    lightlike = PiecewiseLinear([(0.0, 0.0), (1.0, 0.5), (2.0, 1.5)])
    assert lightlike.null_inverse(1.0, np.array([1.0])) is not None
    assert lightlike.null_inverse(-1.0, np.array([0.5])) is None
