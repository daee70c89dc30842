"""Radar synchronization charts: evaluation, inversion, derivatives."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mwsync import (
    DegenerateFactor,
    DomainExceeded,
    EvaluationFailure,
    Inertial,
    MarzkeWheelerMap,
    NoRadarCoordinate,
    NotDifferentiable,
    Observer,
    PerturbedInertial,
    PiecewiseLinear,
    Rindler,
    SplitComplex,
    SumObserver,
    exp,
    J,
)
from mwsync import mwmap
from mwsync import observers as observers_module
from fakes import TwoCallChart

E = SplitComplex

OBSERVERS = [
    Inertial(0.0),
    Inertial(0.5),
    PerturbedInertial(0.3, 1.0),
    Rindler(1.0),
]


def grid_points(lo=-1.5, hi=1.5, n=9):
    vals = np.linspace(lo, hi, n)
    return [E(float(s), float(x)) for s in vals for x in vals]


def test_identity_chart_for_the_rest_observer():
    m = MarzkeWheelerMap(Inertial(0.0))
    for z in grid_points():
        assert m(z) == z


def test_rindler_chart_closed_form():
    # radar chart of the a=1 wedge observer is z -> exp(z*J)*J
    m = MarzkeWheelerMap(Rindler(1.0))
    for z in grid_points():
        w = m(z)
        ref = exp(z * J) * J
        assert abs(w.t - ref.t) <= 1e-13 * (1.0 + abs(ref.t))
        assert abs(w.x - ref.x) <= 1e-13 * (1.0 + abs(ref.x))


@pytest.mark.parametrize("obs", OBSERVERS, ids=repr)
def test_axis_restriction_is_the_worldline_bitwise(obs):
    m = MarzkeWheelerMap(obs)
    for s in np.linspace(-2.0, 2.0, 17):
        assert m(E(float(s), 0.0)) == obs(float(s))


@pytest.mark.parametrize("obs", OBSERVERS, ids=repr)
def test_algebraic_and_geometric_evaluation_agree(obs):
    m = MarzkeWheelerMap(obs)
    rng = np.random.default_rng(7)
    for _ in range(200):
        z = E(float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
        a = m(z)
        g = m.eval_geometric(z)
        assert abs(a.t - g.t) <= 1e-12 * (1.0 + abs(a.t))
        assert abs(a.x - g.x) <= 1e-12 * (1.0 + abs(a.x))


def _split_complex_chart(m, z):
    # Reference: the chart formula in split-complex arithmetic.
    g_plus = m.observer(z.t + z.x)
    g_minus = m.observer(z.t - z.x)
    return (g_plus + g_minus) * 0.5 + ((g_plus - g_minus) * 0.5) * J


REFERENCE_OBSERVERS = OBSERVERS + [
    Rindler(-2.0),
    Rindler(1.0).boosted(0.3),
    PiecewiseLinear([(-4.0, 0.0), (0.0, 0.5), (4.0, -0.25)]),
    SumObserver([Inertial(0.25), PerturbedInertial(0.1, 3.0)]),
    Inertial(0.5).translated(E(-0.0, 1e-300)),
]


def test_components_match_scalar_evaluation_bitwise():
    values = [0.0, -0.0, 1e-300, -1e-300, 0.75, -1.25, 1.5]
    points = [E(s, x) for s in values for x in values]
    t_in = np.array([z.t for z in points])
    x_in = np.array([z.x for z in points])
    for obs in REFERENCE_OBSERVERS:
        m = MarzkeWheelerMap(obs)
        out_t, out_x = m.components(t_in, x_in)
        for z, t, x in zip(points, out_t, out_x):
            ref = _split_complex_chart(m, z)
            want = (repr(ref.t), repr(ref.x))
            w = m(z)
            assert (repr(w.t), repr(w.x)) == want, (obs, z)
            assert (repr(float(t)), repr(float(x))) == want, (obs, z)


@pytest.mark.parametrize("obs", OBSERVERS[:3], ids=repr)
def test_radar_inverse_roundtrip(obs):
    m = MarzkeWheelerMap(obs)
    rng = np.random.default_rng(11)
    for _ in range(50):
        z = E(float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
        back = m.radar_inverse(m(z))
        assert abs(back.t - z.t) <= 1e-10
        assert abs(back.x - z.x) <= 1e-10


def test_radar_inverse_roundtrip_in_the_wedge():
    m = MarzkeWheelerMap(Rindler(1.0))
    z = E(0.3, 0.7)
    back = m.radar_inverse(m(z))
    assert abs(back.t - z.t) <= 1e-10
    assert abs(back.x - z.x) <= 1e-10


def test_radar_inverse_components_vectorized():
    m = MarzkeWheelerMap(Inertial(0.5))
    t = np.array([0.0, 1.0, -0.5])
    x = np.array([0.25, -0.75, 0.0])
    out_t, out_x = m.components(t, x)
    rt, rx = m.radar_inverse_components(out_t, out_x)
    assert np.max(np.abs(rt - t)) <= 1e-10
    assert np.max(np.abs(rx - x)) <= 1e-10


def test_left_wedge_event_has_no_radar_coordinate():
    m = MarzkeWheelerMap(Rindler(1.0))
    with pytest.raises(NoRadarCoordinate) as info:
        m.radar_inverse(E(0.0, -1.0))
    msg = str(info.value)
    assert "t+x" in msg and "t-x" in msg  # both null coordinates miss


def test_past_horizon_event_names_the_failing_coordinate():
    m = MarzkeWheelerMap(Rindler(1.0))
    # t+x < 0 but t-x < 0 holds: only the plus coordinate fails
    with pytest.raises(NoRadarCoordinate) as info:
        m.radar_inverse(E(-2.0, 1.0))
    msg = str(info.value)
    assert "t+x" in msg and "t-x" not in msg


def test_window_sampled_gate_for_finite_domains():
    zig = PiecewiseLinear([(-2.0, 0.0), (0.0, 0.5), (2.0, 0.0)])
    m = MarzkeWheelerMap(zig)
    inside = m.radar_inverse(m(E(0.25, 0.125)))
    assert abs(inside.t - 0.25) <= 1e-10
    with pytest.raises(NoRadarCoordinate):
        m.radar_inverse(E(10.0, 0.0))


def test_derivative_of_the_rindler_chart():
    m = MarzkeWheelerMap(Rindler(1.0))
    z = E(0.4, -0.3)
    d = m.derivative(z)
    # D = e^x (cosh s + sinh s J)
    assert d.t == pytest.approx(math.exp(-0.3) * math.cosh(0.4), rel=1e-14)
    assert d.x == pytest.approx(math.exp(-0.3) * math.sinh(0.4), rel=1e-14)
    fd = m.derivative(z, mode="fd", step=1e-6)
    assert fd.t == pytest.approx(d.t, abs=1e-9)
    assert fd.x == pytest.approx(d.x, abs=1e-9)


def test_analytic_derivative_needs_smoothness():
    zig = PiecewiseLinear([(-1.0, 0.0), (1.0, 0.5)])
    assert not zig.smooth
    m = MarzkeWheelerMap(zig)
    with pytest.raises(NotDifferentiable):
        m.derivative(E(0.0, 0.1))
    # the symmetric difference itself is still defined
    fd = m.derivative(E(0.0, 0.1), mode="fd", step=1e-3)
    assert math.isfinite(fd.t)


def test_derivative_rejects_unknown_mode():
    m = MarzkeWheelerMap(Inertial(0.0))
    with pytest.raises(ValueError):
        m.derivative(E(0.0, 0.0), mode="spectral")


def test_fd_derivative_needs_a_step():
    m = MarzkeWheelerMap(Inertial(0.0))
    with pytest.raises(ValueError, match="needs a step"):
        m.derivative(E(0.0, 0.0), mode="fd")
    with pytest.raises(ValueError, match="needs a step"):
        m.derivative_components(np.zeros(2), np.zeros(2), mode="fd")


def test_fd_step_lost_to_rounding_is_refused():
    m = MarzkeWheelerMap(Inertial(0.0))
    with pytest.raises(EvaluationFailure) as info:
        m.derivative(E(1e20, 0.0), mode="fd", step=1e-5)
    assert str(info.value) == "step 1e-05 underflows at the requested nodes"


def test_conformal_factor_of_the_rindler_chart():
    m = MarzkeWheelerMap(Rindler(1.0))
    for z in (E(0.0, 0.0), E(0.5, 0.25), E(-1.0, 0.75)):
        lam = m.conformal_factor(z)
        assert lam == pytest.approx(math.exp(2.0 * z.x), rel=1e-13)
        d = m.derivative(z, mode="fd", step=1e-5)
        lam_fd = (d.t - d.x) * (d.t + d.x)
        assert lam_fd == pytest.approx(lam, rel=1e-8)


def test_conformal_factor_refuses_non_smooth_worldlines():
    zig = PiecewiseLinear([(-1.0, 0.0), (1.0, 0.5)])
    m = MarzkeWheelerMap(zig)
    with pytest.raises(NotDifferentiable):
        m.conformal_factor(E(0.0, 0.1))


def test_degenerate_factor_where_the_worldline_goes_null():
    class Grazing(Observer):
        # C2 curve that touches the light cone at s = 0
        def position(self, s):
            s = np.asarray(s, dtype=float)
            return s, np.sin(s)

        def velocity(self, s):
            s = np.asarray(s, dtype=float)
            return np.ones_like(s), np.cos(s)

    m = MarzkeWheelerMap(Grazing())
    with pytest.raises(DegenerateFactor, match=r"^conformal factor 0\.0 is not positive$"):
        m.conformal_factor(E(0.0, 0.0))


def test_nan_factor_is_degenerate():
    # cosh and sinh overflow at s = 800, and inf - inf gives a NaN factor;
    # DegenerateFactor alone reports it, also when warnings are errors
    m = MarzkeWheelerMap(Rindler(1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateFactor, match=r"^conformal factor nan is not positive$"):
            m.conformal_components([800.0, 0.0], [0.0, 0.0])
        with pytest.raises(DegenerateFactor, match=r"^conformal factor nan is not positive$"):
            m.conformal_factor(E(800.0, 0.0))


def test_infinite_factor_is_degenerate():
    # At (400, 400) t + x = 800: P' = e**800 overflows while M' = 1.
    m = MarzkeWheelerMap(Rindler(1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateFactor, match=r"^conformal factor inf is not finite$"):
            m.conformal_components([0.0, 400.0], [0.0, 400.0])
        with pytest.raises(DegenerateFactor, match=r"^conformal factor inf is not finite$"):
            m.conformal_factor(E(400.0, 400.0))


RINDLER_CHART = "MarzkeWheelerMap(Rindler(a=1.0))"


@pytest.mark.parametrize("call, text", [
    (lambda m: m(E(800.0, 0.0)), "value"),
    (lambda m: m.derivative(E(800.0, 0.0)), "derivative"),
], ids=["call", "derivative"])
def test_scalar_chart_must_be_finite(call, text):
    # the scalar API names the map and the point instead of failing
    # inside SplitComplex, and numpy warns of nothing on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvaluationFailure) as info:
            call(MarzkeWheelerMap(Rindler(1.0)))
    assert str(info.value) == (
        f"{RINDLER_CHART} has no finite {text} at z = (800.0, 0.0): (nan, nan)"
    )


def test_scalar_radar_inverse_must_be_finite():
    # t + x and t - x are finite, but their mean overflows
    m = MarzkeWheelerMap(Inertial(0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvaluationFailure) as info:
            m.radar_inverse(E(1.5e308, 0.0))
        with pytest.raises(NoRadarCoordinate, match="t-x = inf"):
            m.radar_inverse(E(1e308, -1e308))
    assert str(info.value) == (
        f"{m!r} has no finite radar inverse at e = (1.5e+308, 0.0): (inf, 0.0)"
    )


# -- per-kind inverse: bitwise agreement, empty batches, kinds without one --

WOBBLE = PerturbedInertial(0.3, 1.0)
# A kinked worldline plus a fast left-moving one: t + x climbs at slope
# 0.12 on [-4, 0] and at slope 2.02 on [0, 4].
KINKED = SumObserver(
    (PiecewiseLinear([(-4.0, 0.0), (0.0, -3.8), (4.0, 0.0)]), Inertial(-0.99))
)
# Sinusoids of two frequencies: no null inverse.
TWO_TONE = PerturbedInertial(0.1, 2.0) + PerturbedInertial(0.05, 3.0)
CLOSED_FORM = [
    Inertial(0.5, base=E(0.2, -0.1)),
    Rindler(1.0),
    PiecewiseLinear([(-5.0, 0.0), (0.0, 0.5), (5.0, 0.0)]),
    Rindler(1.0).translated(E(0.5, 0.5)).boosted(-0.3),
    # KINKED's polygon alone: t + x climbs at slope 0.05 on [-4, 0].
    PiecewiseLinear([(-4.0, 0.0), (0.0, -3.8), (4.0, 0.0)]).boosted(0.3),
]
# Profiles alpha*s + beta + a*sin(w*s), inverted in fixed steps.
FIXED_STEP = [
    WOBBLE,
    WOBBLE + Inertial(0.2),
    WOBBLE.boosted(0.4),
    WOBBLE.translated(E(0.3, -0.2)),
    PerturbedInertial(0.1, 2.0) + Inertial(0.5) + PerturbedInertial(-0.2, -2.0),
    PerturbedInertial(0.495, 2.0).boosted(-0.6),
    # Two sinusoids of one frequency, which add to one.
    PerturbedInertial(0.1, 2.0) + PerturbedInertial(0.05, 2.0),
    # |a*w| = 1 - 1e-6: elements near the cusps halve their table cell.
    PerturbedInertial(0.5 * (1.0 - 1e-6), 2.0),
]
NO_INVERSE = [
    TWO_TONE,
    TWO_TONE.boosted(0.4),
    KINKED,
]
INVERTING = CLOSED_FORM + FIXED_STEP


def mixed_batch(m, seed=3):
    # Chart points near the origin and across the box, mapped to events,
    # so brackets and iteration counts differ within the batch.
    rng = np.random.default_rng(seed)
    s = np.concatenate([rng.uniform(-0.1, 0.1, 40), rng.uniform(-2.0, 2.0, 160)])
    x = np.concatenate([rng.uniform(-0.1, 0.1, 40), rng.uniform(-2.0, 2.0, 160)])
    return s, x, *m.components(s, x)


@pytest.mark.parametrize("obs", INVERTING, ids=repr)
def test_scalar_and_vector_inverses_agree_bitwise(obs):
    m = MarzkeWheelerMap(obs)
    s, x, et, ex = mixed_batch(m)
    rt, rx = m.radar_inverse_components(et, ex)
    for i in range(et.size):
        back = m.radar_inverse(E(float(et[i]), float(ex[i])))
        assert back.t == rt[i] and back.x == rx[i]
    assert np.max(np.hypot(rt - s, rx - x)) <= 1e-12 * (1.0 + np.hypot(s, x)).max()


@pytest.mark.parametrize("obs", INVERTING, ids=repr)
def test_empty_batch_inverts_to_empty_arrays(obs):
    rt, rx = MarzkeWheelerMap(obs).radar_inverse_components(np.empty(0), np.empty(0))
    assert rt.shape == (0,) and rx.shape == (0,)


# The gate runs first, so a chart without a null inverse refuses such
# an event as outside the chart too.
@pytest.mark.parametrize("event", [(math.nan, 0.0), (0.0, math.nan)])
@pytest.mark.parametrize("obs", INVERTING + NO_INVERSE, ids=repr)
def test_a_nan_event_is_outside_every_chart(obs, event):
    m = MarzkeWheelerMap(obs)
    t, x = (np.array([v]) for v in event)
    with pytest.raises(NoRadarCoordinate, match=r"t\+x = nan outside .*; t-x = nan outside"):
        m.radar_inverse_components(t, x)


def _refuse_observer_calls(monkeypatch):
    def refuse(self, s):
        raise AssertionError("the inverse evaluated the observer")

    for kind in (Inertial, Rindler, PerturbedInertial, SumObserver):
        monkeypatch.setattr(kind, "position", refuse)
        monkeypatch.setattr(kind, "velocity", refuse)


@pytest.mark.parametrize("obs", [Rindler(1.0) + Inertial(0.2), TWO_TONE], ids=repr)
def test_a_chart_without_a_null_inverse_raises_before_evaluating_it(obs, monkeypatch):
    # Both null ranges are the full line, so the events pass the gate; the
    # inverse then names the observer without calling it.
    m = MarzkeWheelerMap(obs)
    _refuse_observer_calls(monkeypatch)
    for call in (
        lambda: m.radar_inverse(E(0.3, 0.1)),
        lambda: m.radar_inverse_components(np.array([0.3, -1.0]), np.array([0.1, 0.5])),
    ):
        with pytest.raises(EvaluationFailure) as info:
            call()
        assert str(info.value) == f"{obs!r} has no null inverse, so its chart does not invert"


def _refuse_profiles(monkeypatch):
    def refuse(self, s):
        raise AssertionError("the inverse evaluated a null profile")

    monkeypatch.setattr(Observer, "null_plus", refuse)
    monkeypatch.setattr(Observer, "null_minus", refuse)


@pytest.mark.parametrize("obs", CLOSED_FORM, ids=repr)
def test_closed_form_kinds_evaluate_no_profile(obs, monkeypatch):
    m = MarzkeWheelerMap(obs)
    _, _, et, ex = mixed_batch(m)
    _refuse_profiles(monkeypatch)
    m.radar_inverse_components(et, ex)


def _residuals_within_bound(obs, sign, s, targets):
    profile = obs.null_plus if sign > 0 else obs.null_minus
    return np.all(np.abs(profile(s) - targets) <= 4e-16 * (1.0 + np.abs(targets)))


@pytest.mark.parametrize("obs", FIXED_STEP, ids=repr)
def test_fixed_step_kinds_settle_every_element_without_rtsafe(obs, monkeypatch):
    m = MarzkeWheelerMap(obs)
    _, _, et, ex = mixed_batch(m)
    _refuse_profiles(monkeypatch)
    m.radar_inverse_components(et, ex)
    solved = [(sign, e, obs.null_inverse(sign, e))
              for sign, e in ((1.0, et + ex), (-1.0, et - ex))]
    monkeypatch.undo()
    for sign, e, s in solved:
        assert _residuals_within_bound(obs, sign, s, e)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_elements_near_the_cusp_settle_in_their_table_cell(sign, monkeypatch):
    # At |a*w| = 1 - 1e-6 the slope of t + x nearly vanishes at w*s = pi
    # (mod 2*pi), that of t - x at w*s = 0: there the Newton steps from the
    # table leave elements unsettled, and those halve their table cell.
    obs = PerturbedInertial(0.5 * (1.0 - 1e-6), 2.0)
    cusps = math.pi * (np.arange(-4.0, 5.0) + (0.5 if sign > 0 else 0.0))
    s = np.concatenate([cusps, cusps + 1e-3, np.linspace(-3.0, 3.0, 61)])
    targets = (obs.null_plus if sign > 0 else obs.null_minus)(s)
    assert _residuals_within_bound(obs, sign, obs.null_inverse(sign, targets), targets)
    monkeypatch.setattr("mwsync.observers._HALVINGS", 0)
    assert not _residuals_within_bound(obs, sign, obs.null_inverse(sign, targets), targets)


def test_a_target_whose_reduction_overflows_raises():
    # w*(t + x)/alpha = 2e308 overflows, so the target has no reduced form.
    m = MarzkeWheelerMap(PerturbedInertial(0.1, 2.0))
    with pytest.raises(EvaluationFailure, match=r"overflows at target 1e\+308"):
        m.radar_inverse(E(1e308, 0.0))
    with pytest.raises(EvaluationFailure, match=r"overflows at target 1e\+308"):
        m.radar_inverse_components(np.array([0.0, 1e308]), np.zeros(2))


# -- the fixed-step inverse in chunks against one whole-batch call ---------

# Each chart's profiles carry a sinusoid, so its inverse runs in chunks of
# observers._KEPLER_CHUNK targets.
CHUNKED = {
    "wobble": WOBBLE,
    "sum": WOBBLE + Inertial(0.5),
    "boosted": WOBBLE.boosted(0.3),
    "translated": WOBBLE.translated(E(0.3, -0.2)),
    "cusp": PerturbedInertial(0.5 * (1.0 - 1e-6), 2.0),
}
K = observers_module._KEPLER_CHUNK


def _targets(obs, sign, n, seed):
    s = np.random.default_rng(seed).uniform(-6.0, 6.0, n)
    return obs.null_plus(s) if sign > 0 else obs.null_minus(s)


@pytest.mark.parametrize("n", [1, K - 1, K, K + 1, 2 * K + 1, 100_000])
@pytest.mark.parametrize("name", sorted(CHUNKED))
def test_chunked_inverse_equals_one_whole_batch_call(name, n, monkeypatch):
    obs = CHUNKED[name]
    for sign in (1.0, -1.0):
        assert obs._sinusoid(sign) is not None  # fixed steps, not closed form
        targets = _targets(obs, sign, n, n)
        got = obs.null_inverse(sign, targets)
        assert got.shape == targets.shape
        monkeypatch.setattr(observers_module, "_KEPLER_CHUNK", n)
        whole = obs.null_inverse(sign, targets)
        monkeypatch.undo()
        assert np.array_equal(got, whole)
        assert _residuals_within_bound(obs, sign, got, targets)


def test_an_overflow_in_a_later_chunk_names_the_first_lost_target(monkeypatch):
    # Chunk 0 holds no overflowing target, chunk 1 holds 1e308 and chunk
    # 2 holds -1e308: the message names the first of the whole batch.
    obs = PerturbedInertial(0.1, 2.0)
    targets = _targets(obs, 1.0, 2 * K + 1, 7)
    targets[K + 5], targets[2 * K] = 1e308, -1e308
    with pytest.raises(EvaluationFailure) as chunked:
        obs.null_inverse(1.0, targets)
    monkeypatch.setattr(observers_module, "_KEPLER_CHUNK", targets.size)
    with pytest.raises(EvaluationFailure) as whole:
        obs.null_inverse(1.0, targets)
    assert str(chunked.value) == str(whole.value) == "null profile inverse overflows at target 1e+308"


@st.composite
def observers(draw):
    unit = st.floats(-1.0, 1.0)
    speed = st.floats(-0.9, 0.9)
    amplitude = draw(st.floats(0.0, 0.45))
    wobble = PerturbedInertial(amplitude, draw(st.floats(0.1, 2.0)))
    kind = draw(st.sampled_from(
        ["inertial", "rindler", "wobble", "sum", "boosted", "translated"]
    ))
    if kind == "inertial":
        return Inertial(draw(speed), base=E(draw(unit), draw(unit)))
    if kind == "rindler":
        return Rindler(draw(st.floats(0.5, 1.5)) * draw(st.sampled_from([1.0, -1.0])))
    if kind == "wobble":
        return wobble
    if kind == "sum":
        return wobble + Inertial(draw(speed))
    if kind == "boosted":
        return wobble.boosted(draw(speed))
    return wobble.translated(E(draw(unit), draw(unit)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(observers(), st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
                             min_size=1, max_size=6))
def test_inverse_round_trips_and_is_batch_independent(obs, points):
    m = MarzkeWheelerMap(obs)
    s = np.array([p[0] for p in points])
    x = np.array([p[1] for p in points])
    et, ex = m.components(s, x)
    rt, rx = m.radar_inverse_components(et, ex)
    for i in range(s.size):
        back = m.radar_inverse(E(float(et[i]), float(ex[i])))
        assert back.t == rt[i] and back.x == rx[i]
        assert math.hypot(rt[i] - s[i], rx[i] - x[i]) <= 1e-12 * (1.0 + math.hypot(s[i], x[i]))


def test_the_gate_keeps_a_sampled_window_closed():
    zig = MarzkeWheelerMap(PiecewiseLinear([(0.0, 0.0), (1.0, 0.5), (2.0, 0.0)]))
    # Both null coordinates have the window [0, 2], reached at its ends.
    assert zig.radar_inverse(E(2.0, 0.0)) == E(2.0, 0.0)
    assert zig.radar_inverse(E(0.0, 0.0)) == E(0.0, 0.0)
    with pytest.raises(NoRadarCoordinate) as info:
        zig.radar_inverse(E(2.0, 0.5))
    assert str(info.value) == "event is outside the radar chart: t+x = 2.5 outside [0, 2]"


def test_the_gate_keeps_a_declared_range_open():
    with pytest.raises(NoRadarCoordinate) as info:
        MarzkeWheelerMap(Rindler(1.0)).radar_inverse(E(-1.0, 1.0))
    assert str(info.value) == "event is outside the radar chart: t+x = 0 outside (0, inf)"


# -- null profiles evaluated once per grid diagonal -------------------------


KINDS = {
    "inertial": Inertial(0.5, base=E(0.25, -0.125)),
    "rindler": Rindler(1.0),
    "perturbed_inertial": PerturbedInertial(0.3, 1.7),
    "piecewise_linear": PiecewiseLinear([(-4.0, 0.0), (-1.0, 0.5), (0.5, 0.25), (4.0, -0.25)]),
    "sum": SumObserver([Inertial(0.25), PerturbedInertial(0.1, 3.0)]),
    "boosted": PerturbedInertial(0.1, 2.0).boosted(0.3),
    "translated": Rindler(1.0).translated(E(0.5, -0.25)),
}


RANGED = {
    **KINDS,
    "left_rindler_boosted": Rindler(-1.0).boosted(0.6),
    "left_rindler_translated": Rindler(-1.0).translated(E(0.5, -0.25)),
    "rindler_sum": Rindler(1.0) + Rindler(2.0),
}


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("kind", sorted(RANGED))
def test_profiles_stay_inside_their_declared_range(kind, sign):
    obs = RANGED[kind]
    low, high = obs.null_range(sign)
    lo, hi = np.clip(obs.domain, -4.0, 4.0)
    profile = obs.null_plus if sign > 0 else obs.null_minus
    values = profile(np.linspace(lo, hi, 101))
    if np.isfinite(obs.domain).all():  # closed, and reached at the ends
        assert np.all((low <= values) & (values <= high))
        assert (values[0], values[-1]) == (low, high)
    else:
        assert np.all((low < values) & (values < high))


def _mesh(rows, cols, dt=0.125, dx=0.125, shift=0.0):
    t = -1.25 + dt * np.arange(rows)
    x = -0.75 + dx * np.arange(cols) + shift
    return np.meshgrid(t, x, indexing="ij")


def _special_mesh():
    # An exact 40x40 grid with inf, -inf, NaN and a signed zero among its
    # entries, in the first row and off it.  t + x is 0.0 along the
    # anti-diagonal i + j = 40 but -0.0 at (20, 20), and t - x is -0.0
    # there once x is reflected.
    t, x = np.meshgrid(
        -1.25 + 0.0625 * np.arange(40), -1.25 + 0.0625 * np.arange(40), indexing="ij"
    )
    t[20, 20] = x[20, 20] = -0.0
    t[5, 30] = math.inf
    t[12, 12] = -math.inf
    x[33, 2] = math.nan
    t[0, 7] = math.nan
    return t, x


CASES = {}
for _rows, _cols, _step in [
    (2, 2, 0.125), (5, 7, 0.125), (13, 22, 0.125), (31, 40, 0.125), (40, 31, 0.125),
    (4, 5, 0.125), (31, 600, 2.0 ** -6),
]:
    # R + C - 1 is 3, 11, 34, 70, 70, 8 and 630 nodes of line; 31 x 600
    # is above _TABULATED_NODES, the others only with the tabulate fixture.
    CASES[f"square_{_rows}x{_cols}"] = _mesh(_rows, _cols, _step, _step)
    CASES[f"square_shifted_{_rows}x{_cols}"] = _mesh(_rows, _cols, _step, _step, 0.1 / 40)
# Shifted by a non-dyadic step, as fieldcheck's stencil shifts its
# nodes: 1.7% of the nodes of t + x and of t - x round off their
# diagonal, too few to give up the tabulation.
CASES["rounded_31x200"] = _mesh(31, 200, 2.0 ** -6, 2.0 ** -6, 0.1 / 40)
# The same above _TABULATED_NODES: 2.3% of the nodes of each, 4.7% of
# either, off their diagonal.
CASES["rounded_62x300"] = _mesh(62, 300, 2.0 ** -7, 2.0 ** -7, 0.1 / 40)
# Steps of 0.1 round differently along a diagonal at most nodes of the
# middle row.
CASES["inexact_13x22"] = _mesh(13, 22, dt=0.1, dx=0.1)
CASES["inexact_31x40"] = _mesh(31, 40, dt=0.1, dx=0.1)
# The middle row on its diagonals, half the last 11 rows off them.
CASES["late_rounding_31x40"] = _mesh(31, 40)
CASES["late_rounding_31x40"][0][20:, ::2] += 2.0 ** -40
CASES["unequal_spacing"] = _mesh(13, 22, dx=0.07)
CASES["one_row"] = _mesh(1, 37)
CASES["one_column"] = _mesh(37, 1)
CASES["special_entries"] = _special_mesh()
# Under ConjugateInput the chart sees (t, -x): t + x runs along the
# diagonals and t - x along the anti-diagonals.
for _name, (_t, _x) in list(CASES.items()):
    CASES["conj_" + _name] = (_t, -_x)


def _outcome(fn, *args):
    """The bytes of each array ``fn`` returns, or its exception."""
    try:
        with np.errstate(all="ignore"):
            out = fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return [(np.shape(a), np.asarray(a).dtype, np.asarray(a).tobytes()) for a in out]


@pytest.fixture
def tabulate(monkeypatch):
    """Read blocks of any size along their diagonals."""
    monkeypatch.setattr(mwmap, "_TABULATED_NODES", 0)


@pytest.mark.parametrize("off_diagonal", [mwmap._OFF_DIAGONAL, 1.0])
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_diagonal_profiles_match_the_two_call_formulas_bitwise(
    kind, off_diagonal, tabulate, monkeypatch
):
    # At a share of 1.0 every 2-D case with diagonal structure is
    # tabulated, however many of its nodes must be recomputed.
    monkeypatch.setattr(mwmap, "_OFF_DIAGONAL", off_diagonal)
    m = MarzkeWheelerMap(KINDS[kind])
    ref = TwoCallChart(KINDS[kind])
    smooth = m.observer.smooth
    for name, (t, x) in CASES.items():
        assert _outcome(m.components, t, x) == _outcome(ref.components, t, x), name
        if smooth:
            assert _outcome(m.derivative_components, t, x) == _outcome(
                ref.analytic_derivative, t, x
            ), name
            assert _outcome(lambda t, x: (m.conformal_components(t, x),), t, x) == _outcome(
                lambda t, x: (_gated(ref.analytic_factor(t, x)),), t, x
            ), name


def _gated(lam):
    """``lam`` as ``conformal_components`` returns it: a factor that is
    not positive and finite, NaN included, raises DegenerateFactor naming
    the first."""
    bad = ~((lam > 0.0) & (lam < math.inf))
    if np.any(bad):
        first = float(lam.flat[np.argmax(bad)])
        what = "finite" if first == math.inf else "positive"
        raise DegenerateFactor(f"conformal factor {first!r} is not {what}")
    return lam


def _tabulation(u):
    """How ``_along_diagonals`` serves ``u``: the number of values the
    profile is called on, the number of nodes off their diagonal, and
    the strides of the result."""
    calls = []
    with np.errstate(all="ignore"):
        (values,), odd = mwmap._along_diagonals(lambda s: (calls.append(s.size) or s,), u)
    return calls[0], int(np.count_nonzero(odd)), values.strides


def test_the_cases_take_every_path_of_the_tabulation(tabulate):
    paths = {name: [_tabulation(t + x), _tabulation(t - x)] for name, (t, x) in CASES.items()}
    # Exact steps: every node on its diagonal; t + x runs along the
    # anti-diagonals (strides (8, 8)) and t - x along the diagonals
    # (strides (-8, 8)).
    assert paths["square_13x22"] == [(34, 0, (8, 8)), (34, 0, (-8, 8))]
    assert paths["conj_square_13x22"] == [(34, 0, (-8, 8)), (34, 0, (8, 8))]
    # Rounding or special entries move a few nodes off their diagonal.
    for name in ("rounded_31x200", "rounded_62x300", "special_entries", "conj_special_entries"):
        size = CASES[name][0].size
        for calls, odd, _ in paths[name]:
            assert calls < size and 0 < odd <= mwmap._OFF_DIAGONAL * size, name
    # Too many nodes off their diagonal (in the middle row or in all),
    # no diagonal structure, a single row or column: one call on u.
    for name in (
        "square_shifted_31x40", "inexact_31x40", "late_rounding_31x40",
        "unequal_spacing", "one_row", "one_column",
    ):
        for case in (name, "conj_" + name):
            size = CASES[name][0].size
            assert [(calls, odd) for calls, odd, _ in paths[case]] == [(size, 0)] * 2, case


def test_small_blocks_are_evaluated_whole():
    for name in ("square_31x40", "rounded_31x200"):
        t, x = CASES[name]
        assert t.size < mwmap._TABULATED_NODES
        assert _tabulation(t + x) == (t.size, 0, (8 * t.shape[1], 8))
    t, x = CASES["rounded_62x300"]
    assert t.size >= mwmap._TABULATED_NODES
    assert _tabulation(t + x)[0] == 62 + 300 - 1


@pytest.mark.parametrize("kind, args", [(Inertial, (0.5,)), (Rindler, (1.0,))])
def test_cheap_kinds_are_tabulated_too(kind, args):
    seen = []

    class Recording(kind):
        def position(self, s):
            seen.append(s.shape)
            return super().position(s)

    t, x = CASES["square_31x600"]
    MarzkeWheelerMap(Recording(*args)).components(t, x)
    assert seen == [(31 + 600 - 1,)] * 2


@pytest.mark.parametrize("name", sorted(CASES))
def test_identity_profile_tabulates_to_the_exact_bits(name, tabulate):
    t, x = CASES[name]
    with np.errstate(all="ignore"):
        plus, minus = mwmap._null_profiles(
            lambda s: (s,), t, x, lambda p, m: (np.copy(p), np.copy(m))
        )
        assert plus.tobytes() == (t + x).tobytes()
        assert minus.tobytes() == (t - x).tobytes()


def test_profiles_are_called_on_contiguous_lines_and_off_diagonal_nodes():
    seen = []

    class Checking(Observer):
        def position(self, s):
            seen.append((s.ndim, s.flags.c_contiguous, s.size))
            return s + 0.0, np.sin(s)

        def velocity(self, s):
            return np.ones_like(s), np.cos(s)

    t, x = CASES["rounded_62x300"]
    MarzkeWheelerMap(Checking()).components(t, x)
    assert [(ndim, contiguous) for ndim, contiguous, _ in seen] == [(1, True)] * 4
    sizes = [size for _, _, size in seen]
    # Two lines, then the nodes off a diagonal; evaluated whole, 2 * 18600.
    assert sizes[:2] == [62 + 300 - 1] * 2 and sizes[2] == sizes[3]
    assert sum(sizes) < 2 * t.size / 10


def test_domain_is_checked_on_every_distinct_null_coordinate(tabulate):
    # Only one node leaves the domain, off the line the profile is read
    # on; the chart still raises.
    m = MarzkeWheelerMap(KINDS["piecewise_linear"])
    t, x = _mesh(13, 22)
    t[6, 9] = 3.9
    with pytest.raises(DomainExceeded):
        m.components(t, x)
