"""Acceptance suite: one test per numbered shipping criterion.

Every test prints a single scoreboard line (visible under ``pytest -s``
or in the failure output) and then asserts.  Criteria 4 and 5 are split
into their two clauses: the exact-annihilation parts read the residual
at the matched stencil step, while the order-of-convergence parts read
the h^2 signal that the anisotropic stencil keeps on exact charts (the
matched stencil removes it).  The accompanying comments give the
arithmetic.
"""

import math

import numpy as np

from mwsync import (
    AutomorphismOutcome,
    CausalRelation,
    ConjugateInput,
    GridSpec,
    IdentityMap,
    Inertial,
    LipVerdict,
    MapOrientation,
    MarzkeWheelerMap,
    NoRadarCoordinate,
    PerturbedInertial,
    Rindler,
    SplitComplex,
    WaveCauchyMap,
    automorphism_suite,
    exp,
    gravitational_dilation,
    holomorphy_residual,
    J,
    log_factor_wave_residual,
    low_counterexample,
    proper_time_accelerated,
    twin_consistency,
    two_velocity,
    velocity_add,
    wave_residual,
)
from fakes import constant_trajectory

BOX21 = GridSpec(-2.0, 2.0, -2.0, 2.0, 21, 21)
ORDER_BAND = (1.6, 2.4)  # 2.0 +/- 0.4


def check(criterion: str, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def in_band(order) -> bool:
    return order is not None and ORDER_BAND[0] <= order <= ORDER_BAND[1]


def test_criterion_01_rindler_chart_matches_the_closed_form():
    # chart of the a=1 wedge observer against z -> exp(z J) J
    m = MarzkeWheelerMap(Rindler(1.0))
    worst = 0.0
    for s in np.linspace(-2.0, 2.0, 21):
        for x in np.linspace(-2.0, 2.0, 21):
            z = SplitComplex(float(s), float(x))
            got = m(z)
            ref = exp(z * J) * J
            worst = max(worst, abs(got.t - ref.t), abs(got.x - ref.x))
    check("01", worst <= 1e-12, f"max component error {worst:.3g} (tol 1e-12)")


def test_criterion_02_fd_conformal_modulus():
    m = MarzkeWheelerMap(Rindler(1.0))
    T, X = BOX21.meshes()

    def modulus_error(h: float) -> float:
        dt, dx = m.derivative_components(T, X, mode="fd", step=h)
        modulus = np.sqrt((dt - dx) * (dt + dx))
        return float(np.max(np.abs(modulus - np.exp(X))))

    e_h = modulus_error(1e-4)
    e_half = modulus_error(5e-5)
    order = math.log2(e_h / e_half)
    ok = e_h <= 1e-6 and in_band(order)
    check("02", ok, f"error {e_h:.3g} at h=1e-4 (tol 1e-6), halving order {order:.3f}")


def test_criterion_03_both_evaluation_routes_agree():
    rng = np.random.default_rng(2)
    worst = 0.0
    for obs in (PerturbedInertial(0.3, 1.0), Inertial(0.5), Rindler(1.0)):
        m = MarzkeWheelerMap(obs)
        for _ in range(300):
            z = SplitComplex(float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
            a = m(z)
            g = m.eval_geometric(z)
            worst = max(worst, abs(a.t - g.t), abs(a.x - g.x))
    check("03", worst <= 1e-12, f"max |algebraic - geometric| {worst:.3g} (tol 1e-12)")


def test_criterion_04a_identity_map_residuals_vanish_exactly():
    holo = holomorphy_residual(IdentityMap(), BOX21).max_abs
    wave = wave_residual(IdentityMap(), BOX21).max_abs
    check("04a", holo == 0.0 and wave == 0.0,
          f"identity residuals holo={holo} wave={wave} (exact zero required)")


def test_criterion_04b_residual_order_on_smooth_charts():
    # An exact chart is a traveling-wave pair, which the matched
    # central stencil annihilates identically, leaving pure rounding.
    # The reported order therefore comes from the anisotropic levels
    # (h_t, h_x) = (h, h/2) and (h/2, h/4), where the truncation term
    # survives: for the wave residual it is
    # (h_t^2 - h_x^2)/12 * (p'''' + q''''), so the order is 2.
    details = []
    ok = True
    for obs in (PerturbedInertial(0.3, 1.0), Rindler(1.0)):
        m = MarzkeWheelerMap(obs)
        h_order = holomorphy_residual(m, BOX21).convergence_order
        w_order = wave_residual(m, BOX21).convergence_order
        ok = ok and in_band(h_order) and in_band(w_order)
        details.append(f"{type(obs).__name__}: holo {h_order:.2f} wave {w_order:.2f}")
    check("04b", ok, "orders " + "; ".join(details) + " (band 1.6..2.4)")


def test_criterion_05a_log_factor_is_harmonic_for_rindler():
    rep = log_factor_wave_residual(MarzkeWheelerMap(Rindler(1.0)), BOX21)
    check("05a", rep.max_abs <= 1e-9,
          f"log-factor wave residual {rep.max_abs:.3g} (tol 1e-9, field is linear)")


def test_criterion_05b_log_factor_order_for_perturbed_inertial():
    # Same mechanism as 04b: the log factor splits into one-argument
    # profiles of t+x and t-x, which the matched wave stencil cancels
    # identically; the anisotropic levels keep the h^2 term.
    rep = log_factor_wave_residual(
        MarzkeWheelerMap(PerturbedInertial(0.3, 1.0)), BOX21
    )
    check("05b", in_band(rep.convergence_order),
          f"max {rep.max_abs:.3g}, order {rep.convergence_order:.2f} (band 1.6..2.4)")


def test_criterion_06_automorphism_suite():
    m = MarzkeWheelerMap(PerturbedInertial(0.3, 1.0))
    rep = automorphism_suite(m, BOX21, n_pairs=100_000, seed=0)
    ok = (
        rep.outcome is AutomorphismOutcome.PASS
        and rep.lip.verdict is LipVerdict.VERIFIED
        and rep.forward.passed
        and rep.inverse.passed
        and rep.roundtrip_max <= 1e-9
        and rep.orientation is MapOrientation.PRESERVING
        and rep.axis_max == 0.0
    )

    wedge = automorphism_suite(MarzkeWheelerMap(Rindler(1.0)), BOX21, 100, 0)
    ok = ok and wedge.outcome is AutomorphismOutcome.NOT_APPLICABLE
    ok = ok and wedge.lip.verdict is LipVerdict.FAILS
    try:
        MarzkeWheelerMap(Rindler(1.0)).radar_inverse(SplitComplex(0.0, -1.0))
        ok = False
        refused = "no"
    except NoRadarCoordinate:
        refused = "yes"
    check(
        "06",
        ok,
        f"suite {rep.outcome.name}, roundtrip {rep.roundtrip_max:.3g} (tol 1e-9), "
        f"orientation {rep.orientation.name}, axis {rep.axis_max}; "
        f"wedge {wedge.outcome.name}, left-wedge event refused: {refused}",
    )


def test_criterion_07_sum_with_conjugate_is_no_automorphism():
    rep = low_counterexample(Inertial(0.0), Inertial(0.5), BOX21,
                             seed=0, n_pairs=100_000)
    witness = rep.equivalence.witness
    ok = (
        rep.wave.max_abs <= 1e-9  # solves the wave equation (zero in the limit)
        and rep.axis_ok
        and rep.axis_max == 0.0  # restriction to the axis is the curve sum
        and rep.holo.max_abs >= 0.1
        and rep.antiholo.max_abs >= 0.1
        and witness is not None
        and witness.relation_out is CausalRelation.CHRON_FUTURE
    )
    pair = "none"
    if witness is not None:
        pair = f"{witness.relation_in.name} -> {witness.relation_out.name}"
    check(
        "07",
        ok,
        f"wave {rep.wave.max_abs:.3g}, holo {rep.holo.max_abs:.3g}, "
        f"antiholo {rep.antiholo.max_abs:.3g} (each >= 0.1), witness {pair} "
        f"within {rep.n_pairs} seeded samples",
    )


def test_criterion_08_wave_cauchy_data_reconstructs_the_chart():
    obs = PerturbedInertial(0.3, 1.0)
    m = MarzkeWheelerMap(obs)

    def space(s):
        return obs.position(s)[1]

    def time(s):
        return obs.position(s)[0]

    T, X = BOX21.meshes()
    at, ax = m.components(T, X)
    ct, cx = ConjugateInput(m).components(T, X)

    pt, px = WaveCauchyMap(space, time, +1).components(T, X)
    mt, mx = WaveCauchyMap(space, time, -1).components(T, X)
    err_plus = max(float(np.max(np.abs(pt - at))), float(np.max(np.abs(px - ax))))
    err_minus = max(float(np.max(np.abs(mt - ct))), float(np.max(np.abs(mx - cx))))
    ok = err_plus <= 1e-12 and err_minus <= 1e-12
    check("08", ok, f"sign +1 error {err_plus:.3g}, sign -1 error {err_minus:.3g} "
          "(tol 1e-12)")


def test_criterion_09_twin_consistency():
    # a rest clock placed inside the wedge so the two charts overlap
    rest = Inertial(0.0, base=SplitComplex(0.0, 1.0))
    rep = twin_consistency(
        MarzkeWheelerMap(rest), MarzkeWheelerMap(Rindler(1.0)), (-0.6, 0.6)
    )
    ok = rep.consistent and rep.max_rel_disagreement <= 1e-6

    boosted = twin_consistency(
        MarzkeWheelerMap(Inertial(0.0)), MarzkeWheelerMap(Inertial(0.6)), (0.0, 2.0)
    )
    gamma = two_velocity(0.6).gamma
    dilation_err = abs(boosted.tau_a / boosted.tau_b - 1.0 / gamma)
    ok = ok and boosted.consistent and dilation_err <= 1e-9
    check(
        "09",
        ok,
        f"rest/wedge disagreement {rep.max_rel_disagreement:.3g} (tol 1e-6, "
        f"younger {rep.younger}); boosted pair dilation error {dilation_err:.3g} "
        f"(tol 1e-9)",
    )


def test_criterion_10_static_clocks_in_the_wedge_chart():
    chart = MarzkeWheelerMap(Rindler(1.0))
    dt = 2.0
    tau1 = proper_time_accelerated(chart, constant_trajectory(0.0, (0.0, dt))).tau
    tau2 = proper_time_accelerated(chart, constant_trajectory(0.25, (0.0, dt))).tau
    rate_err = abs(tau2 - dt * math.exp(0.25)) / (dt * math.exp(0.25))
    predicted = gravitational_dilation(1.0, 0.0, 0.25, tau1)
    dilation_err = abs(predicted - tau2) / tau2
    ok = rate_err <= 1e-9 and dilation_err <= 1e-9
    check("10", ok, f"clock rate error {rate_err:.3g}, dilation vs quadrature "
          f"{dilation_err:.3g} (tol 1e-9)")


def test_criterion_11_algebra_suite():
    rng = np.random.default_rng(11)
    worst_ring = 0.0
    worst_norm = 0.0
    for _ in range(10_000):
        a, b, c = (
            SplitComplex(float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3)))
            for _ in range(3)
        )
        scale = (
            (1.0 + abs(a.t) + abs(a.x))
            * (1.0 + abs(b.t) + abs(b.x))
            * (1.0 + abs(c.t) + abs(c.x))
        )
        lhs, rhs = (a * b) * c, a * (b * c)
        worst_ring = max(worst_ring,
                         abs(lhs.t - rhs.t) / scale, abs(lhs.x - rhs.x) / scale)
        lhs, rhs = a * (b + c), a * b + a * c
        worst_ring = max(worst_ring,
                         abs(lhs.t - rhs.t) / scale, abs(lhs.x - rhs.x) / scale)
        mod4 = (a.t**2 + a.x**2) ** 2 + (b.t**2 + b.x**2) ** 2
        norm_gap = abs((a * b).norm_sq() - a.norm_sq() * b.norm_sq())
        worst_norm = max(worst_norm, norm_gap / (1.0 + mod4))

    worst_group = 0.0
    for _ in range(2_000):
        v, w = rng.uniform(-0.99, 0.99, 2)
        u = two_velocity(float(v)).u * two_velocity(float(w)).u
        composed = two_velocity(velocity_add(float(v), float(w))).u
        worst_group = max(worst_group, abs(u.t - composed.t), abs(u.x - composed.x))

    exact = velocity_add(0.5, 0.5) == 0.8
    ok = worst_ring <= 1e-12 and worst_norm <= 1e-10 and worst_group <= 1e-10 and exact
    check(
        "11",
        ok,
        f"ring laws {worst_ring:.3g} (tol 1e-12 rel), norm gap {worst_norm:.3g} "
        f"(tol 1e-10), composition gap {worst_group:.3g} (tol 1e-10), "
        f"velocity_add(0.5, 0.5) == 0.8: {exact}",
    )
