"""Clock rates, arc lengths, and the twin bookkeeping."""

import math
import os

import numpy as np
import pytest

from mwsync import (
    Inertial,
    LightspeedContext,
    MarzkeWheelerMap,
    NonMonotoneRadarTime,
    NotTimelike,
    Observer,
    PerturbedInertial,
    PiecewiseLinear,
    RadarTrajectory,
    Rindler,
    SpeedLimitExceeded,
    SplitComplex,
    arc_length_proper_time,
    gravitational_dilation,
    proper_time_accelerated,
    proper_time_inertial,
    radar_trajectory_of,
    twin_consistency,
)
from mwsync.scenario import load_scenario

# The demo scenario's observers.
DEMO = load_scenario(
    os.path.join(os.path.dirname(__file__), "..", "scenarios", "demo.json")
).observers


def trapezoid_oracle(f, a, b, n=2**20):
    # dense trapezoid sum, independent of the adaptive integrator
    t = np.linspace(a, b, n + 1)
    return float(np.trapezoid(f(t), t))


def sampled(traj, *sigma):
    # The path's five arrays at the given parameters.
    return traj.path(np.array(sigma, dtype=float))


class TestRadarTrajectory:
    def test_constant(self):
        traj = RadarTrajectory.constant(0.5, (0.0, 2.0))
        t, x, t_dot, x_dot, error = sampled(traj, 1.7)
        assert (t[0], x[0], t_dot[0], x_dot[0], error) == (1.7, 0.5, 1.0, 0.0, 0.0)
        assert traj.window == (0.0, 2.0)

    def test_linear(self):
        traj = RadarTrajectory.linear(1.0, -0.25, (0.0, 4.0))
        t, x, t_dot, x_dot, error = sampled(traj, 2.0, 3.0)
        assert list(t) == [2.0, 3.0]
        assert x[0] == pytest.approx(0.5)
        assert list(t_dot) == [1.0, 1.0] and list(x_dot) == [-0.25, -0.25]
        assert error == 0.0


class TestInertialProperTime:
    def test_rest_clock(self):
        q = proper_time_inertial(RadarTrajectory.constant(0.0, (0.0, 5.0)))
        assert q.tau == pytest.approx(5.0, abs=1e-12)

    def test_steady_motion_dilates(self):
        traj = RadarTrajectory.linear(0.0, 0.6, (0.0, 2.0))
        q = proper_time_inertial(traj)
        assert q.tau == pytest.approx(2.0 * 0.8, rel=1e-12)

    def test_oscillating_clock_against_dense_sum(self):
        traj = RadarTrajectory(
            lambda t: (t, 0.3 * np.sin(t), np.ones_like(t), 0.3 * np.cos(t), 0.0),
            (0.0, 2.0),
        )
        q = proper_time_inertial(traj, tol=1e-12)
        # same rate, integrated by a dense independent rule
        oracle = trapezoid_oracle(
            lambda t: np.sqrt(1.0 - (0.3 * np.cos(t)) ** 2), 0.0, 2.0
        )
        assert q.tau == pytest.approx(oracle, abs=1e-10)
        assert q.abs_error_estimate <= 1e-12

    def test_speed_limit(self):
        traj = RadarTrajectory.linear(0.0, 1.2, (0.0, 1.0))
        with pytest.raises(SpeedLimitExceeded):
            proper_time_inertial(traj)

    def test_slower_lightspeed_context(self):
        ctx = LightspeedContext(2.0)
        traj = RadarTrajectory.linear(0.0, 1.2, (0.0, 1.0))
        q = proper_time_inertial(traj, ctx)
        assert q.tau == pytest.approx(math.sqrt(1.0 - 0.36), rel=1e-12)


class TestArcLength:
    def test_inertial_parametrization_is_proper_time(self):
        q = arc_length_proper_time(Inertial(0.6), -1.0, 3.0)
        assert q.tau == pytest.approx(4.0, rel=1e-12)

    def test_rindler_parametrization_is_proper_time(self):
        q = arc_length_proper_time(Rindler(2.0), 0.0, 1.5)
        assert q.tau == pytest.approx(1.5, rel=1e-10)

    def test_perturbed_inertial_against_dense_sum(self):
        obs = PerturbedInertial(0.3, 2.0)
        q = arc_length_proper_time(obs, 0.0, 2.0, tol=1e-12)
        oracle = trapezoid_oracle(
            lambda s: np.sqrt(1.0 - (0.6 * np.cos(2.0 * s)) ** 2), 0.0, 2.0
        )
        assert q.tau == pytest.approx(oracle, abs=1e-9)

    def test_rejects_spacelike_stretches(self):
        class Sideways(Observer):
            def position(self, s):
                s = np.asarray(s, dtype=float)
                return 0.1 * s, s

            def velocity(self, s):
                s = np.asarray(s, dtype=float)
                return np.full_like(s, 0.1), np.ones_like(s)

        with pytest.raises(NotTimelike):
            arc_length_proper_time(Sideways(), 0.0, 1.0)


class TestAcceleratedChart:
    def test_static_clock_rate_is_exponential(self):
        chart = MarzkeWheelerMap(Rindler(1.0))
        traj = RadarTrajectory.constant(0.25, (0.0, 2.0))
        q = proper_time_accelerated(chart, traj)
        assert q.tau == pytest.approx(2.0 * math.exp(0.25), rel=1e-12)


class TestRadarTrajectoryOf:
    def test_moving_clock_in_the_lab_chart(self):
        lab = MarzkeWheelerMap(Inertial(0.0))
        traj = radar_trajectory_of(lab, Inertial(0.5), (0.0, 2.0))
        assert traj.window == (0.0, 2.0)
        # the lab chart is the identity: x = beta t, t = gamma sigma
        u = Inertial(0.5).derivative(0.0)
        t, x, t_dot, x_dot, error = sampled(traj, 0.0, 0.8, 2.0)
        assert np.allclose(t, u.t * np.array([0.0, 0.8, 2.0]), rtol=0, atol=1e-12)
        assert np.allclose(x, 0.5 * t, rtol=0, atol=1e-12)
        assert np.allclose(t_dot, u.t, rtol=0, atol=1e-11)
        assert np.allclose(x_dot, u.x, rtol=0, atol=1e-11)
        assert np.all(error <= 1e-10)

    def test_static_offset_clock_in_the_rindler_chart(self):
        chart = MarzkeWheelerMap(Rindler(1.0))
        target = Inertial(0.0, base=SplitComplex(0.0, 1.0))
        traj = radar_trajectory_of(chart, target, (-0.5, 0.5))
        # the lab clock at x = 1 has radar time t = atanh(sigma) and
        # radar position x = -ln cosh t
        sigma = np.linspace(-0.5, 0.5, 7)
        t, x, t_dot, x_dot, error = traj.path(sigma)
        assert np.allclose(t, np.arctanh(sigma), rtol=0, atol=1e-12)
        assert np.allclose(x, -np.log(np.cosh(t)), rtol=0, atol=1e-12)
        assert np.allclose(t_dot, 1.0 / (1.0 - sigma**2), rtol=0, atol=1e-10)
        assert np.allclose(x_dot, -sigma / (1.0 - sigma**2), rtol=0, atol=1e-10)
        assert np.all(error <= 1e-7)

    def test_backwards_target_is_rejected(self):
        class Backwards(Observer):
            def position(self, s):
                s = np.asarray(s, dtype=float)
                return -s, np.zeros_like(s)

            def velocity(self, s):
                s = np.asarray(s, dtype=float)
                return -np.ones_like(s), np.zeros_like(s)

        lab = MarzkeWheelerMap(Inertial(0.0))
        traj = radar_trajectory_of(lab, Backwards(), (0.0, 1.0))
        with pytest.raises(NonMonotoneRadarTime):
            proper_time_inertial(traj)

    @pytest.mark.parametrize("chart, target, window", [
        ("rocket", "lab_shifted", (-0.6, 0.6)),
        ("rocket", "lab_shifted", (-0.5, 0.5)),
        ("lab", "wobble", (-0.5, 0.5)),
        ("wobble", "lab", (-0.5, 0.5)),
    ])
    def test_error_estimate_covers_the_demo_disagreements(self, chart, target, window):
        chart = MarzkeWheelerMap(DEMO[chart])
        target = DEMO[target]
        direct = arc_length_proper_time(target, *window)
        via = proper_time_accelerated(chart, radar_trajectory_of(chart, target, window))
        gap = abs(via.tau - direct.tau)
        assert gap <= via.abs_error_estimate + direct.abs_error_estimate
        assert gap <= 1e-9 * direct.tau
        assert via.abs_error_estimate <= 1e-6 * direct.tau

    def test_kinked_target_over_its_whole_domain(self):
        # At the domain ends the difference moves inward, exactly on
        # straight end segments; at the vertex it blends the two slopes.
        zigzag = PiecewiseLinear([(0.0, 0.0), (1.0, 0.5), (2.0, 0.0)])
        traj = radar_trajectory_of(MarzkeWheelerMap(Inertial(0.0)), zigzag, (0.0, 2.0))
        _, _, t_dot, x_dot, error = sampled(traj, 0.0, 2.0)
        assert list(t_dot) == pytest.approx([1.0, 1.0], abs=1e-11)
        assert list(x_dot) == pytest.approx([0.5, -0.5], abs=1e-11)
        assert list(error) == pytest.approx([0.0, 0.0], abs=1e-11)
        q = proper_time_inertial(traj)
        gap = abs(q.tau - 2.0 * math.sqrt(0.75))
        assert 1e-7 < gap <= q.abs_error_estimate
        assert gap <= 1e-5


class TestTwins:
    def test_boosted_pair_reproduces_the_gamma_factor(self):
        rep = twin_consistency(
            MarzkeWheelerMap(Inertial(0.0)), MarzkeWheelerMap(Inertial(0.6)), (0.0, 2.0)
        )
        assert rep.consistent
        assert rep.max_rel_disagreement <= 1e-9
        assert rep.tau_a == pytest.approx(2.0, rel=1e-12)
        # radar matching stretches B's window by gamma
        assert rep.window_b[1] == pytest.approx(2.5, rel=1e-9)
        assert rep.tau_b == pytest.approx(2.5, rel=1e-9)
        assert rep.tau_a / rep.tau_b == pytest.approx(0.8, rel=1e-9)
        assert rep.younger == "a"

    def test_rest_and_rindler_twins(self):
        rest = Inertial(0.0, base=SplitComplex(0.0, 1.0))
        rep = twin_consistency(
            MarzkeWheelerMap(rest), MarzkeWheelerMap(Rindler(1.0)), (-0.6, 0.6)
        )
        assert rep.consistent
        assert rep.tau_a == pytest.approx(1.2, rel=1e-10)
        assert rep.tau_b == pytest.approx(2.0 * math.atanh(0.6), rel=1e-9)
        assert rep.younger == "a"
        assert rep.max_rel_disagreement <= 1e-9

    def test_identical_twins_age_equally(self):
        twin = MarzkeWheelerMap(Inertial(0.3))
        rep = twin_consistency(twin, twin, (0.0, 1.0))
        assert rep.consistent
        assert rep.younger == "equal"

    def test_explicit_window_b(self):
        rep = twin_consistency(MarzkeWheelerMap(Inertial(0.0)),
                               MarzkeWheelerMap(Inertial(0.6)), (0.0, 2.0),
                               window_b=(0.0, 2.5))
        assert rep.consistent
        assert rep.window_b == (0.0, 2.5)

    @pytest.mark.parametrize("a, b", [
        ("lab_shifted", "rocket"), ("wobble", "lab"), ("lab", "wobble"),
    ])
    def test_a_biased_inverse_is_caught(self, a, b):
        # An inverse off by 1e-6 along the worldline must show as a
        # disagreement: the chart velocity comes from the pulled-back
        # points, never from the worldline's own velocity.
        class Biased(MarzkeWheelerMap):
            def radar_inverse_components(self, t, x):
                s, x_radar = super().radar_inverse_components(t, x)
                return s + 1e-6 * np.sin(3.0 * np.asarray(t)), x_radar

        rep = twin_consistency(Biased(DEMO[a]), Biased(DEMO[b]), (-0.5, 0.5))
        assert not rep.consistent
        assert rep.max_rel_disagreement > 1e-6


class TestGravitationalDilation:
    def test_matches_the_static_chart_quadrature(self):
        chart = MarzkeWheelerMap(Rindler(1.0))
        dt = 2.0
        x1, x2 = 0.0, 0.25
        tau1 = proper_time_accelerated(chart, RadarTrajectory.constant(x1, (0.0, dt))).tau
        predicted = gravitational_dilation(1.0, x1, x2, tau1)
        tau2 = proper_time_accelerated(chart, RadarTrajectory.constant(x2, (0.0, dt))).tau
        assert predicted == pytest.approx(tau2, rel=1e-12)

    def test_sign_and_units(self):
        assert gravitational_dilation(2.0, 0.0, 0.5, 1.0) == pytest.approx(math.e)
        # halving the rate constant via c: a/c^2 = 0.5
        ctx = LightspeedContext(2.0)
        assert gravitational_dilation(2.0, 0.0, 0.5, 1.0, ctx) == pytest.approx(
            math.exp(0.25)
        )

    def test_rejects_zero_acceleration(self):
        with pytest.raises(ValueError):
            gravitational_dilation(0.0, 0.0, 1.0, 1.0)
