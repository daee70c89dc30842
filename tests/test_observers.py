"""Worldline families, combinators, and the timelike/LIP checks."""

import math
import warnings

import numpy as np
import pytest

from mwsync import (
    DomainExceeded,
    EvaluationFailure,
    Inertial,
    LipVerdict,
    MarzkeWheelerMap,
    NoRadarCoordinate,
    Observer,
    PerturbedInertial,
    PiecewiseLinear,
    Rindler,
    SplitComplex,
    SumObserver,
    lip_status,
    two_velocity,
)
from mwsync import observers


def test_inertial_rest_observer():
    lab = Inertial(0.0)
    assert lab(1.5) == SplitComplex(1.5, 0.0)
    assert lab.derivative(2.0) == SplitComplex(1.0, 0.0)
    assert lab.smooth
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


def test_scalar_derivative_must_be_finite():
    # cosh and sinh overflow at s = 800; the scalar API names the
    # parameter, as the position does, and numpy warns of nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvaluationFailure) as info:
            Rindler(1.0).derivative(800.0)
    assert str(info.value) == "Rindler(a=1.0) has no finite derivative at s = 800.0: (inf, inf)"


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
    assert not zig.smooth
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


def test_piecewise_linear_refuses_a_nan_parameter():
    zig = PiecewiseLinear([(0.0, 0.0), (1.0, 0.5), (2.0, 0.0)])
    for read in (zig, zig.derivative):
        with pytest.raises(DomainExceeded, match=r"outside \[0\.0, 2\.0\]$"):
            read(math.nan)
    with pytest.raises(DomainExceeded):
        zig.position(np.array([0.5, math.nan]))


def _window(obs):
    return obs.null_range(1.0), obs.null_range(-1.0)


def test_piecewise_linear_null_range_is_exact():
    zig = PiecewiseLinear([(0.0, 0.0), (1.0, 0.5), (3.0, -0.5)])
    assert zig.null_range(1.0) == (0.0, 2.5)
    assert zig.null_range(-1.0) == (0.0, 3.5)


def test_wrapped_piecewise_linear_reports_its_end_values():
    # A boost by 0 and a translation by 0 leave the worldline as it is,
    # and so its window and its chart.
    z = PiecewiseLinear([(0.0, 0.0), (1.0, 0.5), (2.0, 0.0)])
    wrapped = [z.translated(SplitComplex(0.0, 0.0)), z.boosted(0.0)]
    assert _window(z) == ((0.0, 2.0), (0.0, 2.0))
    for obs in wrapped:
        assert _window(obs) == _window(z)
        chart = MarzkeWheelerMap(obs)
        assert chart.radar_inverse(SplitComplex(1.2, 0.3)) == MarzkeWheelerMap(z).radar_inverse(
            SplitComplex(1.2, 0.3))
    # A sum reads the ends of its domain [0.5, 2].
    clipped = z + PiecewiseLinear([(0.5, 0.0), (3.0, 0.0)])
    assert _window(clipped) == ((1.25, 4.0), (0.75, 4.0))


def test_a_subclass_curve_gets_an_ordered_window():
    # A subclass's curve is taken as given: this one runs with x = 2t on
    # [0, 1], so t - x falls, and its window still reads low end first.
    class Fast(Observer):
        domain = (0.0, 1.0)

        def position(self, s):
            return s + 0.0, 2.0 * s

        def velocity(self, s):
            return np.ones_like(s), np.full_like(s, 2.0)

    assert _window(Fast()) == ((0.0, 3.0), (-1.0, 0.0))


def test_a_subclass_on_a_finite_domain_is_judged_over_its_window():
    # Only domain, position and velocity: the null ranges follow from the
    # domain ends, both for the verdict and for the chart's gate.
    class Slow(Observer):
        domain = (0.0, 3.0)

        def position(self, s):
            return s + 0.0, 0.5 * s

        def velocity(self, s):
            return np.ones_like(s), np.full_like(s, 0.5)

    st = lip_status(Slow())
    assert st.verdict is LipVerdict.WINDOW_ONLY
    assert st.null_window == ((0.0, 4.5), (0.0, 1.5))
    chart = MarzkeWheelerMap(Slow())
    # t + x = 1.5*s is 1 at s = 2/3, t - x = 0.5*s at s = 2
    z = chart.radar_inverse(SplitComplex(1.0, 0.0))
    assert (z.t, z.x) == pytest.approx((4.0 / 3.0, -2.0 / 3.0), rel=1e-12)
    with pytest.raises(NoRadarCoordinate, match=r"t\+x = 100 outside \[0, 4\.5\]; "
                                                r"t-x = 100 outside \[0, 1\.5\]$"):
        chart.radar_inverse(SplitComplex(100.0, 0.0))


@pytest.mark.parametrize("domain, ranges, outside, text", [
    ((0.0, math.inf), ((0.0, math.inf), (0.0, math.inf)), -10.0, "[0, inf)"),
    ((-math.inf, 0.0), ((-math.inf, 0.0), (-math.inf, 0.0)), 10.0, "(-inf, 0]"),
])
def test_a_subclass_on_a_half_line_is_closed_at_its_finite_end(domain, ranges, outside, text):
    # The null ranges take the profile's value at the finite end, so the
    # verdict is not the full line's and the chart refuses events before
    # (after) the curve's first (last) event, but takes that event.
    class HalfLine(Observer):
        def position(self, s):
            return s + 0.0, 0.5 * s

        def velocity(self, s):
            return np.ones_like(s), np.full_like(s, 0.5)

    HalfLine.domain = domain
    obs = HalfLine()
    assert (obs.null_range(1.0), obs.null_range(-1.0)) == ranges
    st = lip_status(obs)
    assert st.verdict is LipVerdict.FAILS
    assert st.reason == f"null coordinate t+x has range {text}; null coordinate t-x has range {text}"
    chart = MarzkeWheelerMap(obs)
    with pytest.raises(NoRadarCoordinate) as info:
        chart.radar_inverse(SplitComplex(outside, 0.0))
    assert str(info.value) == (
        f"event is outside the radar chart: t+x = {outside:g} outside {text}; "
        f"t-x = {outside:g} outside {text}"
    )
    z = chart.radar_inverse(SplitComplex(0.0, 0.0))  # the end event itself
    assert (z.t, z.x) == pytest.approx((0.0, 0.0), abs=1e-12)


def _window_over_ends_and_vertices(obs, vertices):
    """``obs``'s two null ranges by the rule they replaced: each profile's
    extremes over the domain ends and the polygon vertices in the domain."""
    lo, hi = obs.domain
    s = np.concatenate(([lo, hi], vertices))
    s = s[(s >= lo) & (s <= hi)]
    t, x = obs.position(s)
    plus, minus = t + x, t - x
    return ((float(plus.min()), float(plus.max())), (float(minus.min()), float(minus.max())))


def _timelike_polygon(rng):
    """A polygon of 2 to 6 vertices, speeds up to 0.999, at a scale
    from 1e-3 to 1e5."""
    n = int(rng.integers(2, 7))
    scale = 10.0 ** rng.uniform(-3.0, 5.0)
    dt = rng.uniform(0.1, 1.0, n - 1) * scale
    ts = rng.uniform(-1.0, 1.0) * scale + np.concatenate(([0.0], np.cumsum(dt)))
    xs = rng.uniform(-1.0, 1.0) * scale + np.concatenate(
        ([0.0], np.cumsum(rng.uniform(-0.999, 0.999, n - 1) * dt)))
    return PiecewiseLinear(zip(ts, xs))


def test_null_range_reads_what_the_vertex_extremes_read():
    # Every profile of a timelike worldline increases, so its ends hold
    # its extremes, bitwise, wherever the polygon sits in a worldline.
    # Each polygon is read plain and in one of five settings, in turn.
    rng = np.random.default_rng(0)
    wobble, drift = PerturbedInertial(0.3, 1.7), Inertial(0.4)
    for i in range(10_000):
        z = _timelike_polygon(rng)
        offset = SplitComplex(*rng.uniform(-1.0, 1.0, 2) * 10.0 ** rng.uniform(-3.0, 5.0))
        v = rng.uniform(-0.9, 0.9)
        settings = (z.translated(offset), z.boosted(v), z + wobble, z + drift,
                    SumObserver((z.boosted(v), z.translated(offset))))
        for obs in (z, settings[i % 5]):
            assert _window(obs) == _window_over_ends_and_vertices(obs, z.ts), obs


def test_sum_observer():
    a = Inertial(0.5)
    b = Rindler(1.0)
    s = a + b
    p = s(0.3)
    assert p == a(0.3) + b(0.3)
    assert s.smooth
    # a full-line summand stretches the wedge ranges back to the line
    assert s.null_range(1.0) == (-math.inf, math.inf)
    # two like wedges stay a wedge
    w = Rindler(1.0) + Rindler(2.0)
    assert w.null_range(1.0) == (0.0, math.inf)
    assert w.null_range(-1.0) == (-math.inf, 0.0)


def test_sum_of_piecewise_drops_smoothness():
    zig = PiecewiseLinear([(0.0, 0.0), (1.0, 0.25), (2.0, 0.0)])
    s = Inertial(0.0) + zig
    assert not s.smooth
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
    # Sinusoids of two frequencies, and a profile that is not a sinusoid.
    wobble = PerturbedInertial(0.3, 1.0) + PerturbedInertial(0.1, 2.0)
    for obs in (wobble, wobble + Inertial(0.2), wobble.boosted(0.4),
                wobble.translated(SplitComplex(0.3, -0.2)), Rindler(1.0) + Inertial(0.2)):
        assert obs.null_inverse(1.0, np.zeros(3)) is None
        assert obs.null_inverse(-1.0, np.zeros(3)) is None


WOBBLE = PerturbedInertial(0.3, 1.0)
# Kinds whose null profiles read alpha*s + beta + a*sin(w*s).
SINUSOID_KINDS = [
    Inertial(0.6, base=SplitComplex(0.5, -1.0)),
    WOBBLE,
    PerturbedInertial(-0.2, -2.5),
    PerturbedInertial(0.0, 2.0),
    WOBBLE + Inertial(0.2),
    WOBBLE + PerturbedInertial(0.2, 1.0) + Inertial(-0.5, base=SplitComplex(1.0, 0.5)),
    WOBBLE.boosted(0.4),
    WOBBLE.translated(SplitComplex(0.3, -0.2)),
    (WOBBLE + Inertial(0.3)).translated(SplitComplex(-1.0, 2.0)).boosted(-0.7),
]


@pytest.mark.parametrize("obs", SINUSOID_KINDS, ids=repr)
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_the_sinusoid_description_is_the_null_profile(obs, sign):
    p = obs._sinusoid(sign)
    assert p.w >= 0.0 and p.alpha > abs(p.a * p.w)
    s = np.linspace(-6.0, 6.0, 97)
    profile = obs.null_plus if sign > 0 else obs.null_minus
    described = p.alpha * s + p.beta + p.a * np.sin(p.w * s)
    assert np.max(np.abs(described - profile(s))) <= 1e-14 * (1.0 + np.abs(s)).max()


@pytest.mark.parametrize("obs", [
    Rindler(1.0),
    PiecewiseLinear([(-3.0, 0.0), (0.0, 0.6), (3.0, -0.3)]),
    WOBBLE + PerturbedInertial(0.1, 2.0),
    (WOBBLE + Rindler(1.0)).boosted(0.2),
], ids=repr)
def test_other_kinds_have_no_sinusoid_description(obs):
    assert obs._sinusoid(1.0) is None and obs._sinusoid(-1.0) is None


@pytest.mark.parametrize("obs", SINUSOID_KINDS[1:], ids=repr)
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_fixed_step_null_inverse_undoes_the_null_profile(obs, sign):
    s = np.linspace(-40.0, 40.0, 801)
    profile = obs.null_plus if sign > 0 else obs.null_minus
    back = obs.null_inverse(sign, profile(s))
    assert np.max(np.abs(back - s)) <= 1e-14 * (1.0 + np.abs(s)).max()


def test_the_fixed_step_inverse_does_not_depend_on_its_chunks(monkeypatch):
    obs = WOBBLE + Inertial(0.2)
    values = np.random.default_rng(4).uniform(-50.0, 50.0, (3, 1001))
    whole = obs.null_inverse(1.0, values)
    assert whole.shape == values.shape and not np.isnan(whole).any()
    singles = [obs.null_inverse(1.0, np.array([v]))[0] for v in values.flat]
    assert np.array_equal(whole.ravel(), singles)
    monkeypatch.setattr(observers, "_KEPLER_CHUNK", 7)
    assert np.array_equal(obs.null_inverse(1.0, values), whole)
    assert np.array_equal(obs.null_inverse(1.0, values.T).T, whole)


def test_the_kepler_table_is_built_once_per_eccentricity():
    observers._kepler_table.cache_clear()
    for obs in (PerturbedInertial(0.1, 2.0), PerturbedInertial(0.1, 2.0).translated(SplitComplex(1.0, 0.0))):
        for sign in (1.0, -1.0):
            obs.null_inverse(sign, np.linspace(-1.0, 1.0, 5))
    assert observers._kepler_table.cache_info().misses == 2


@pytest.mark.parametrize("vertices, message", [
    # the second segment is null (dx/dt = 1), so t - x stalls on it
    ([(0.0, 0.0), (1.0, 0.5), (2.0, 1.5)],
     r"segment 1 from \(1\.0, 0\.5\) to \(2\.0, 1\.5\) is not slower than light"),
    ([(0.0, 0.0), (1.0, 2.0), (2.0, 0.0)], "segment 0 .* is not slower than light"),
    # a sum with PerturbedInertial(0.45, 2.0) once peaked between its ends
    ([(0.0, 0.0), (2.0, -3.0)], "segment 0 .* is not slower than light"),
    # dx/dt = 0.95, but t - x rounds to 1e16 at both vertices
    ([(1e16, 0.0), (1e16 + 2.0, 1.9)], "segment 0 .* is not slower than light"),
    ([(0.0, 0.0), (1.0, math.nan)], "vertex coordinates must be finite"),
    ([(0.0, 0.0), (1.0, -math.inf)], "vertex coordinates must be finite"),
    ([(0.0, 0.0), (math.inf, 0.0)], "vertex coordinates must be finite"),
    ([(math.nan, 0.0), (1.0, 0.0)], "vertex times must increase strictly"),
])
def test_piecewise_linear_refuses_what_is_not_timelike(vertices, message):
    with pytest.raises(ValueError, match=message):
        PiecewiseLinear(vertices)


def test_piecewise_linear_null_inverse_interpolates_its_vertices():
    zig = PiecewiseLinear([(0.0, 0.0), (1.0, 0.5), (2.0, 1.4)])
    for sign in (1.0, -1.0):
        nodes = zig.ts + sign * zig.xs
        assert np.array_equal(zig.null_inverse(sign, nodes), zig.ts)
        middle = 0.5 * (nodes[1:] + nodes[:-1])
        assert np.array_equal(zig.null_inverse(sign, middle), np.interp(middle, nodes, zig.ts))
