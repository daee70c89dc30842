"""Radar synchronization charts: evaluation, inversion, derivatives."""

import math

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
    Smoothness,
    SplitComplex,
    SumObserver,
    exp,
    J,
)
from mwsync import mwmap
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


def test_bracketing_failure_on_a_bounded_chart():
    class Saturating(Observer):
        # claims the full line but its null profiles are bounded
        def position(self, s):
            return np.arctan(s), np.zeros_like(np.asarray(s, dtype=float))

        def velocity(self, s):
            s = np.asarray(s, dtype=float)
            return 1.0 / (1.0 + s * s), np.zeros_like(s)

    m = MarzkeWheelerMap(Saturating(), bracket_limit=1e3)
    with pytest.raises(EvaluationFailure):
        m.radar_inverse(E(3.0, 0.0))


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
    assert zig.smoothness < Smoothness.C1
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


def test_conformal_factor_of_the_rindler_chart():
    m = MarzkeWheelerMap(Rindler(1.0))
    for z in (E(0.0, 0.0), E(0.5, 0.25), E(-1.0, 0.75)):
        lam = m.conformal_factor(z)
        assert lam == pytest.approx(math.exp(2.0 * z.x), rel=1e-13)
        lam_fd = m.conformal_factor(z, mode="fd", step=1e-5)
        assert lam_fd == pytest.approx(lam, rel=1e-8)


def test_conformal_factor_refuses_non_smooth_worldlines():
    zig = PiecewiseLinear([(-1.0, 0.0), (1.0, 0.5)])
    m = MarzkeWheelerMap(zig)
    with pytest.raises(NotDifferentiable):
        m.conformal_factor(E(0.0, 0.1))
    with pytest.raises(NotDifferentiable):
        m.conformal_factor(E(0.0, 0.1), mode="fd")


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
    with pytest.raises(DegenerateFactor):
        m.conformal_factor(E(0.0, 0.0))


# -- per-kind inverse: bitwise agreement, empty batches, the safeguard -----

WOBBLE = PerturbedInertial(0.3, 1.0)
# A kinked worldline plus a fast left-moving one: t + x climbs at slope
# 0.12 on [-4, 0] and at slope 2.02 on [0, 4].
KINKED = SumObserver(
    (PiecewiseLinear([(-4.0, 0.0), (0.0, -3.8), (4.0, 0.0)]), Inertial(-0.99))
)
CLOSED_FORM = [
    Inertial(0.5, base=E(0.2, -0.1)),
    Rindler(1.0),
    PiecewiseLinear([(-5.0, 0.0), (0.0, 0.5), (5.0, 0.0)]),
    Rindler(1.0).translated(E(0.5, 0.5)).boosted(-0.3),
]
ROOT_FOUND = [
    WOBBLE,
    WOBBLE + Inertial(0.2),
    WOBBLE.boosted(0.4),
    WOBBLE.translated(E(0.3, -0.2)),
    KINKED,
]
EVERY_KIND = CLOSED_FORM + ROOT_FOUND


def mixed_batch(m, seed=3):
    # Chart points near the origin and across the box, mapped to events,
    # so brackets and iteration counts differ within the batch.
    rng = np.random.default_rng(seed)
    s = np.concatenate([rng.uniform(-0.1, 0.1, 40), rng.uniform(-2.0, 2.0, 160)])
    x = np.concatenate([rng.uniform(-0.1, 0.1, 40), rng.uniform(-2.0, 2.0, 160)])
    return s, x, *m.components(s, x)


@pytest.mark.parametrize("obs", EVERY_KIND, ids=repr)
def test_scalar_and_vector_inverses_agree_bitwise(obs):
    m = MarzkeWheelerMap(obs)
    s, x, et, ex = mixed_batch(m)
    rt, rx = m.radar_inverse_components(et, ex)
    for i in range(et.size):
        back = m.radar_inverse(E(float(et[i]), float(ex[i])))
        assert back.t == rt[i] and back.x == rx[i]
    assert np.max(np.hypot(rt - s, rx - x)) <= 1e-12 * (1.0 + np.hypot(s, x)).max()


@pytest.mark.parametrize("obs", EVERY_KIND, ids=repr)
def test_empty_batch_inverts_to_empty_arrays(obs):
    rt, rx = MarzkeWheelerMap(obs).radar_inverse_components(np.empty(0), np.empty(0))
    assert rt.shape == (0,) and rx.shape == (0,)


@pytest.mark.parametrize("obs", CLOSED_FORM, ids=repr)
def test_closed_form_kinds_evaluate_no_profile(obs, monkeypatch):
    m = MarzkeWheelerMap(obs)
    _, _, et, ex = mixed_batch(m)

    def refuse(self, s):
        raise AssertionError("a closed-form inverse evaluated a null profile")

    monkeypatch.setattr(Observer, "null_plus", refuse)
    monkeypatch.setattr(Observer, "null_minus", refuse)
    m.radar_inverse_components(et, ex)


def test_kinked_profile_falls_back_to_bisection():
    # From the shallow segment, a plain Newton step toward an event on
    # the steep one lands far outside the domain [-4, 4], where the
    # worldline raises DomainExceeded.  The safeguard bisects instead.
    slope = sum(KINKED.velocity(-3.0))
    assert -3.0 + (KINKED.null_plus(2.0) - KINKED.null_plus(-3.0)) / slope > 4.0
    m = MarzkeWheelerMap(KINKED)
    for z in grid_points(-1.9, 1.9, 15):
        back = m.radar_inverse(m(z))
        assert abs(back.t - z.t) <= m.root_tol
        assert abs(back.x - z.x) <= m.root_tol


def test_iteration_cap_raises_instead_of_returning(monkeypatch):
    monkeypatch.setattr(mwmap, "_ITERATION_CAP", 2)
    m = MarzkeWheelerMap(WOBBLE)
    with pytest.raises(EvaluationFailure, match="did not converge"):
        m.radar_inverse(m(E(0.4, -0.7)))


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


# -- chunked rtsafe against the whole-batch loop ----------------------------


def _whole_batch_solve(m, sign, targets):
    """Test-only reference: rtsafe over the whole batch in one loop.

    The root finder as it ran before it iterated in chunks of
    ``mwmap._BLOCK_NODES`` elements, kept to pin the chunked one.
    """
    fn = m._profile(sign)
    goal = targets.ravel()
    xl, xh, fl, fh = m._bracket(fn, goal)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = xl - fl * ((xh - xl) / (fh - fl))
    x = np.fmax(xl, np.fmin(x, xh))
    last = math.inf
    out = np.empty(goal.shape)
    live = np.arange(goal.size)
    for _ in range(mwmap._ITERATION_CAP):
        if live.size == 0:
            return out.reshape(targets.shape)
        f = fn(x) - goal
        with np.errstate(divide="ignore", invalid="ignore"):
            side = f * -math.inf
            xl = np.fmax(xl, np.fmin(x, side))
            xh = np.fmin(xh, np.fmax(x, side))
            step = f / m._slope(sign, x)
        nxt = x - step
        size = np.abs(step)
        bisect = ~((nxt >= xl) & (nxt <= xh) & (size <= 0.5 * last))
        half = 0.5 * (xh - xl)
        nxt = np.where(bisect, xl + half, nxt)
        size = np.where(bisect, half, size)
        done = (size <= m.root_tol) | (nxt == x)
        out[live[done]] = nxt[done]
        live, goal, xl, xh, nxt, size = (
            a[~done] for a in (live, goal, xl, xh, nxt, size)
        )
        x, last = nxt, size
    raise EvaluationFailure(
        f"radar inverse did not converge in {mwmap._ITERATION_CAP} iterations "
        f"for {live.size} event(s), e.g. target {float(goal[0]):g}"
    )


# A worldline with a null segment: t - x stays 0 on [0, 1], so the minus
# profile has no closed-form inverse and rtsafe runs on a finite domain.
NULL_SEGMENT = PiecewiseLinear([(-3.0, 0.0), (0.0, 0.0), (1.0, 1.0), (3.0, 1.5)])
CHUNKED = {
    "wobble": (PerturbedInertial(0.1, 2.0), (1.0, -1.0)),
    "sum": (PerturbedInertial(0.1, 2.0) + Inertial(0.5), (1.0, -1.0)),
    "boosted": (PerturbedInertial(0.1, 2.0).boosted(0.3), (1.0, -1.0)),
    "null_segment": (NULL_SEGMENT, (-1.0,)),
}
B = mwmap._BLOCK_NODES


def _targets(obs, sign, n, seed):
    lo, hi = obs.domain
    s = np.random.default_rng(seed).uniform(max(lo, -6.0), min(hi, 6.0), n)
    return obs.null_plus(s) if sign > 0 else obs.null_minus(s)


@pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 2 * B + 1, 100_000])
@pytest.mark.parametrize("name", sorted(CHUNKED))
def test_chunked_rtsafe_equals_the_whole_batch_loop(name, n):
    obs, signs = CHUNKED[name]
    m = MarzkeWheelerMap(obs)
    for sign in signs:
        assert obs.null_inverse(sign, np.zeros(1)) is None  # rtsafe, not closed form
        targets = _targets(obs, sign, n, n)
        got = m._solve(sign, targets)
        assert got.shape == targets.shape
        assert np.array_equal(got, _whole_batch_solve(m, sign, targets))


def test_non_convergence_across_chunks_reports_the_whole_batch(monkeypatch):
    # Targets on the bracket end 1.0 are met in the first round, generic
    # ones need more.  Chunk 0 ends in ten generic targets, chunk 1 has
    # none and chunk 2 holds only generic ones, so the first unconverged
    # target lies in the chunk with fewer failures.
    monkeypatch.setattr(mwmap, "_ITERATION_CAP", 1)
    obs = CHUNKED["wobble"][0]
    m = MarzkeWheelerMap(obs)
    targets = _targets(obs, 1.0, 3 * B, 5)
    targets[:2 * B - 10 - B] = obs.null_plus(1.0)
    targets[B:2 * B] = obs.null_plus(1.0)
    failing = []
    for chunk in range(3):
        part = targets[chunk * B:(chunk + 1) * B]
        try:
            m._solve(1.0, part)  # one chunk
        except EvaluationFailure:
            failing.append(chunk)
    assert failing == [0, 2]
    with pytest.raises(EvaluationFailure) as whole:
        _whole_batch_solve(m, 1.0, targets)
    with pytest.raises(EvaluationFailure) as chunked:
        m._solve(1.0, targets)
    assert str(chunked.value) == str(whole.value)


def test_convergence_on_the_last_allowed_round_returns(monkeypatch):
    # Targets on the bracket end converge in round one; a cap of one
    # round returns them instead of raising.
    monkeypatch.setattr(mwmap, "_ITERATION_CAP", 1)
    obs = CHUNKED["wobble"][0]
    targets = np.full(3, obs.null_plus(1.0))
    assert np.array_equal(MarzkeWheelerMap(obs)._solve(1.0, targets), np.ones(3))


def test_the_gate_keeps_a_sampled_window_closed():
    zig = MarzkeWheelerMap(PiecewiseLinear([(0.0, 0.0), (1.0, 0.5), (2.0, 0.0)]))
    # Both null coordinates have the window [0, 2], reached at its ends.
    assert zig.radar_inverse(E(2.0, 0.0)) == E(2.0, 0.0)
    assert zig.radar_inverse(E(0.0, 0.0)) == E(0.0, 0.0)
    with pytest.raises(NoRadarCoordinate) as info:
        zig.radar_inverse(E(2.0, 0.5))
    assert str(info.value) == "event is outside the radar chart: t+x = 2.5 outside (0, 2)"


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
    declared = obs.null_range(sign)
    if declared is None:
        assert kind == "piecewise_linear"
        return
    lo, hi = np.clip(obs.domain, -4.0, 4.0)
    profile = obs.null_plus if sign > 0 else obs.null_minus
    values = profile(np.linspace(lo, hi, 101))
    assert np.all((declared[0] < values) & (values < declared[1]))


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
    """Read blocks of any size along their diagonals, for every kind."""
    monkeypatch.setattr(mwmap, "_TABULATED_NODES", 0)
    monkeypatch.setattr(Observer, "costly_profile", True)


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
    smooth = m.observer.smoothness >= Smoothness.C1
    for name, (t, x) in CASES.items():
        assert _outcome(m.components, t, x) == _outcome(ref.components, t, x), name
        if smooth:
            assert _outcome(m.derivative_components, t, x) == _outcome(
                ref.analytic_derivative, t, x
            ), name
            assert _outcome(lambda t, x: (m.conformal_components(t, x),), t, x) == _outcome(
                lambda t, x: (ref.analytic_factor(t, x),), t, x
            ), name


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
    for name in ("rounded_31x200", "special_entries", "conj_special_entries"):
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
    t, x = CASES["square_31x40"]
    assert t.size < mwmap._TABULATED_NODES
    assert _tabulation(t + x) == (t.size, 0, (8 * 40, 8))
    t, x = CASES["rounded_31x200"]
    assert t.size >= mwmap._TABULATED_NODES
    assert _tabulation(t + x)[0] == 31 + 200 - 1


def test_only_costly_observers_are_tabulated():
    assert [name for name in sorted(KINDS) if KINDS[name].costly_profile] == [
        "boosted", "perturbed_inertial", "sum",
    ]
    seen = []

    class Recording(Inertial):
        def position(self, s):
            seen.append(s.shape)
            return super().position(s)

    t, x = CASES["square_31x600"]
    MarzkeWheelerMap(Recording()).components(t, x)
    assert seen == [t.shape] * 2


@pytest.mark.parametrize("name", sorted(CASES))
def test_identity_profile_tabulates_to_the_exact_bits(name, tabulate):
    t, x = CASES[name]
    with np.errstate(all="ignore"):
        plus, minus = mwmap._null_profiles(
            lambda s: (s,), t, x, lambda p, m: (np.copy(p), np.copy(m)), True
        )
        assert plus.tobytes() == (t + x).tobytes()
        assert minus.tobytes() == (t - x).tobytes()


def test_profiles_are_called_on_contiguous_lines_and_off_diagonal_nodes():
    seen = []

    class Checking(Observer):
        costly_profile = True

        def position(self, s):
            seen.append((s.ndim, s.flags.c_contiguous, s.size))
            return s + 0.0, np.sin(s)

        def velocity(self, s):
            return np.ones_like(s), np.cos(s)

    t, x = CASES["rounded_31x200"]
    MarzkeWheelerMap(Checking()).components(t, x)
    assert [(ndim, contiguous) for ndim, contiguous, _ in seen] == [(1, True)] * 4
    sizes = [size for _, _, size in seen]
    # Two lines, then the nodes off a diagonal; evaluated whole, 2 * 6200.
    assert sizes[:2] == [31 + 200 - 1] * 2 and sizes[2] == sizes[3]
    assert sum(sizes) < 2 * t.size / 10


def test_domain_is_checked_on_every_distinct_null_coordinate(tabulate):
    # Only one node leaves the domain, off the line the profile is read
    # on; the chart still raises.
    m = MarzkeWheelerMap(KINDS["piecewise_linear"])
    t, x = _mesh(13, 22)
    t[6, 9] = 3.9
    with pytest.raises(DomainExceeded):
        m.components(t, x)
