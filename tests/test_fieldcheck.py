"""Stencil residuals, chronology sampling, and the automorphism suite."""

import itertools
import math
import os
import signal
import threading
import time

import numpy as np
import pytest

from mwsync import (
    AffineLorentzMap,
    AutomorphismOutcome,
    CausalRelation,
    ConjugateInput,
    ConjugateOutput,
    DegenerateSplit,
    DomainExceeded,
    EvaluationFailure,
    GridSpec,
    IdentityMap,
    Inertial,
    LipVerdict,
    MapOrientation,
    MapSum,
    MarzkeWheelerMap,
    Observer,
    PerturbedInertial,
    Rindler,
    SplitComplex,
    WaveCauchyMap,
    automorphism_suite,
    causal_equivalence_check,
    chronology_check,
    classify,
    conformality_report,
    holomorphy_residual,
    log_factor_wave_residual,
    low_counterexample,
    orientation_of,
    two_velocity,
    wave_residual,
)
from mwsync import fieldcheck
from mwsync.causal import DEFAULT_NULL_BAND, cone
from fakes import FunctionMap, RecordingMap

E = SplitComplex

BOX = GridSpec(-2.0, 2.0, -2.0, 2.0, 17, 17)
EPS = float(np.finfo(float).eps)


class TestGridSpec:
    def test_default_step_is_a_tenth_of_the_spacing(self):
        g = GridSpec(0.0, 1.0, 0.0, 2.0, 11, 11)
        assert g.min_spacing == pytest.approx(0.1)
        assert g.h == pytest.approx(0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(0.0, 1.0, 0.0, 1.0, 2, 11)
        with pytest.raises(ValueError):
            GridSpec(1.0, 0.0, 0.0, 1.0, 11, 11)
        with pytest.raises(ValueError):
            GridSpec(0.0, 1.0, 0.0, 1.0, 11, 11, h=0.2)  # wider than spacing/2

    def test_nodes_and_diameter(self):
        g = GridSpec(-1.0, 1.0, -2.0, 2.0, 5, 9)
        assert g.t_nodes[0] == -1.0 and g.t_nodes[-1] == 1.0
        assert len(g.x_nodes) == 9
        assert g.diameter == 4.0  # the longer side


class TestResiduals:
    def test_identity_is_annihilated_exactly(self):
        m = IdentityMap()
        assert holomorphy_residual(m, BOX).max_abs == 0.0
        assert wave_residual(m, BOX).max_abs == 0.0
        rep = conformality_report(m, BOX)
        assert rep.max_abs == 0.0
        assert rep.factor_min == 1.0 and rep.factor_max == 1.0

    def test_affine_boost_is_annihilated_to_rounding(self):
        # the offset arithmetic leaves a few ulps; no h-dependent signal
        m = AffineLorentzMap(two_velocity(0.6), scale=2.0, offset=E(1.0, -1.0))
        assert holomorphy_residual(m, BOX).max_abs <= 1e-12
        assert wave_residual(m, BOX).max_abs <= 1e-10
        rep = conformality_report(m, BOX)
        assert rep.factor_min == pytest.approx(4.0, rel=1e-12)
        assert rep.factor_max == pytest.approx(4.0, rel=1e-12)
        assert rep.n_nonpositive == 0

    def test_exact_zero_reports_no_order(self):
        rep = wave_residual(IdentityMap(), BOX)
        assert rep.convergence_order is None

    def test_radar_charts_sit_at_rounding_level(self):
        # exact traveling-wave pairs: the matched stencil cancels them,
        # leaving only rounding noise, far below any h^2 signal
        for obs in (Rindler(1.0), PerturbedInertial(0.3, 1.0)):
            m = MarzkeWheelerMap(obs)
            scale = 1.0 + _map_scale(m)
            assert holomorphy_residual(m, BOX).max_abs <= 1e4 * 2.2e-16 * scale / BOX.h
            assert wave_residual(m, BOX).max_abs <= 1e4 * 2.2e-16 * scale / BOX.h**2

    def test_order_tells_solutions_from_non_solutions(self):
        # the anisotropic stencil keeps an h^2 truncation term on exact
        # charts; a map that is not a solution keeps an O(1) residual
        # at every level, so its order reads about 0
        band = (1.6, 2.4)
        for obs in (PerturbedInertial(0.3, 1.0), Rindler(1.0)):
            m = MarzkeWheelerMap(obs)
            for check in (holomorphy_residual, wave_residual, conformality_report):
                order = check(m, BOX).convergence_order
                assert band[0] <= order <= band[1], (obs, check.__name__, order)
        low = MapSum([
            MarzkeWheelerMap(PerturbedInertial(0.3, 1.0)),
            ConjugateInput(MarzkeWheelerMap(Rindler(1.0))),
        ])
        square = FunctionMap(lambda t, x: (t * t, np.zeros_like(x)), "t squared")
        for order in (
            holomorphy_residual(low, BOX).convergence_order,
            conformality_report(low, BOX).convergence_order,
            wave_residual(square, BOX).convergence_order,
        ):
            assert abs(order) < 0.1

    def test_antiholomorphy_flag(self):
        m = ConjugateInput(MarzkeWheelerMap(Inertial(0.5)))
        holo = holomorphy_residual(m, BOX)
        anti = holomorphy_residual(m, BOX, anti=True)
        assert anti.max_abs < 1e-10 < holo.max_abs

    def test_wave_residual_detects_a_source(self):
        # F = (t^2, 0): box F = 2, and the stencil is exact on quadratics
        m = FunctionMap(lambda t, x: (t * t, np.zeros_like(x)), "t squared")
        rep = wave_residual(m, BOX)
        assert rep.max_abs == pytest.approx(2.0, rel=1e-8)

    def test_holomorphy_residual_detects_conjugation(self):
        rep = holomorphy_residual(ConjugateOutput(IdentityMap()), BOX)
        assert rep.max_abs == pytest.approx(2.0, rel=1e-10)

    def test_conformality_detects_a_sheared_metric(self):
        # F = (t, 0) pulls the metric back to dt^2: traceless part is 1
        m = FunctionMap(lambda t, x: (t, np.zeros_like(x)), "projection")
        rep = conformality_report(m, BOX)
        assert rep.max_abs == pytest.approx(1.0, rel=1e-10)

    def test_conformality_flags_a_cone_swapping_factor(self):
        # F = (x, t) is conformal but swaps the cones: factor -1
        m = FunctionMap(lambda t, x: (x, t), "diagonal flip")
        rep = conformality_report(m, BOX)
        assert rep.max_abs == 0.0
        assert rep.factor_max == -1.0
        assert rep.n_nonpositive == BOX.n_t * BOX.n_x

    def test_log_factor_wave_residual_rindler(self):
        rep = log_factor_wave_residual(MarzkeWheelerMap(Rindler(1.0)), BOX)
        assert rep.max_abs <= 1e-9  # ln g = 2x is linear

    def test_log_factor_wave_residual_needs_a_chart(self):
        with pytest.raises(AttributeError):
            log_factor_wave_residual(IdentityMap(), BOX)

    def test_floor_is_recomputed_from_the_grid_values(self):
        # 512 * eps * (1 + max|f|) / h**k over the nodes, with f the map
        # (or its log factor) and k the order of the differences
        m = MarzkeWheelerMap(PerturbedInertial(0.3, 1.0))
        log_factor = np.log(m.conformal_components(*BOX.meshes()))
        chart = 512.0 * EPS * (1.0 + _map_scale(m))
        logs = 512.0 * EPS * (1.0 + float(np.max(np.abs(log_factor))))
        assert holomorphy_residual(m, BOX).floor == chart / BOX.h
        assert holomorphy_residual(m, BOX, anti=True).floor == chart / BOX.h
        assert conformality_report(m, BOX).floor == chart / BOX.h
        assert wave_residual(m, BOX).floor == chart / BOX.h ** 2
        assert log_factor_wave_residual(m, BOX).floor == logs / BOX.h ** 2


def _map_scale(m) -> float:
    T, X = BOX.meshes()
    out_t, out_x = m.components(T, X)
    return float(max(np.max(np.abs(out_t)), np.max(np.abs(out_x))))


class TestWaveCauchy:
    def test_plus_sign_reproduces_the_radar_chart_bitwise(self):
        obs = PerturbedInertial(0.3, 1.0)
        m = MarzkeWheelerMap(obs)
        wc = WaveCauchyMap(
            lambda s: obs.position(s)[1], lambda s: obs.position(s)[0], +1
        )
        T, X = BOX.meshes()
        at, ax = m.components(T, X)
        bt, bx = wc.components(T, X)
        assert np.array_equal(at, bt)
        assert np.array_equal(ax, bx)

    def test_minus_sign_reproduces_the_conjugated_chart_bitwise(self):
        obs = PerturbedInertial(0.3, 1.0)
        m = ConjugateInput(MarzkeWheelerMap(obs))
        wc = WaveCauchyMap(
            lambda s: obs.position(s)[1], lambda s: obs.position(s)[0], -1
        )
        T, X = BOX.meshes()
        at, ax = m.components(T, X)
        bt, bx = wc.components(T, X)
        assert np.array_equal(at, bt)
        assert np.array_equal(ax, bx)

    def test_sign_validation(self):
        with pytest.raises(ValueError):
            WaveCauchyMap(np.sin, np.cos, 0)


class TestChronology:
    def test_boost_passes(self):
        rep = chronology_check(AffineLorentzMap(two_velocity(0.9)), BOX, 2000, 3)
        assert rep.passed
        assert rep.witness is None
        assert rep.min_margin > 0.0
        assert rep.n_pairs == 2000

    def test_time_reversal_is_caught(self):
        m = FunctionMap(lambda t, x: (-t, -x), "reversal")
        rep = chronology_check(m, BOX, 500, 0)
        assert not rep.passed
        w = rep.witness
        assert w is not None
        assert w.relation_in is CausalRelation.CHRON_FUTURE
        assert w.relation_out is CausalRelation.CHRON_PAST

    def test_seeded_runs_are_reproducible(self):
        m = AffineLorentzMap(two_velocity(0.5))
        a = chronology_check(m, BOX, 1000, 42)
        b = chronology_check(m, BOX, 1000, 42)
        assert a.min_margin == b.min_margin
        assert a.seed == b.seed == 42

    @pytest.mark.parametrize("n_pairs", [200, 201])
    def test_quota_may_fill_in_the_last_round(self, monkeypatch, n_pairs):
        # One decisive pair per round: 200 pairs fill in the final round
        # of sampling, 201 cannot be had.
        calls = itertools.count()

        def one_decisive_pair(rng, grid, n):
            t = np.zeros(n)
            t[0] = float(next(calls) % 2)
            return t, np.zeros(n)

        monkeypatch.setattr(fieldcheck, "_draw_events", one_decisive_pair)
        if n_pairs == 200:
            rep = chronology_check(IdentityMap(), BOX, n_pairs, 0)
            assert rep.passed and rep.n_pairs == 200
        else:
            with pytest.raises(EvaluationFailure, match="could not sample"):
                chronology_check(IdentityMap(), BOX, n_pairs, 0)

    def test_equivalence_check_passes_on_a_boost(self):
        rep = causal_equivalence_check(AffineLorentzMap(two_velocity(0.5)), BOX, 2000, 1)
        assert rep.passed
        assert rep.witness is None

    def test_equivalence_check_catches_cone_widening(self):
        # doubling time opens the image cone: spacelike pairs turn timelike
        m = FunctionMap(lambda t, x: (2.0 * t, x), "time doubler")
        rep = causal_equivalence_check(m, BOX, 2000, 1)
        assert not rep.passed
        w = rep.witness
        assert w.relation_in is CausalRelation.SPACELIKE
        assert w.relation_out is CausalRelation.CHRON_FUTURE

    def test_witnesses_are_read_from_the_arrays(self):
        class ArrayOnly(FunctionMap):
            def __call__(self, z):
                raise AssertionError("a sampler made a scalar call")

        reversal = ArrayOnly(lambda t, x: (-t, -x), "reversal")
        w = chronology_check(reversal, BOX, 500, 0).witness
        assert (w.relation_in, w.relation_out) == (
            CausalRelation.CHRON_FUTURE, CausalRelation.CHRON_PAST
        )
        assert w.relation_out is classify(-w.z1, -w.z2)
        doubler = ArrayOnly(lambda t, x: (2.0 * t, x), "time doubler")
        w = causal_equivalence_check(doubler, BOX, 2000, 1).witness
        assert (w.relation_in, w.relation_out) == (
            CausalRelation.SPACELIKE, CausalRelation.CHRON_FUTURE
        )

    @pytest.mark.parametrize("check", [chronology_check, causal_equivalence_check])
    def test_a_box_too_wide_to_sample_fails_before_any_draw(self, monkeypatch, check):
        def no_draws(rng, grid, n):
            raise AssertionError("drew events")

        monkeypatch.setattr(fieldcheck, "_draw_events", no_draws)
        wide = GridSpec(1e300, 1.5e300, 0.0, 1.0, 3, 3)
        with pytest.raises(EvaluationFailure, match=r"box \[1e\+300, 1.5e\+300\]"):
            check(IdentityMap(), wide, 50, 0)

    def test_a_non_finite_output_at_the_witness_names_the_pair(self):
        m = FunctionMap(lambda t, x: (t * math.nan, x), "NaN time")
        with pytest.raises(EvaluationFailure, match="not finite for the pair") as info:
            chronology_check(m, BOX, 50, 0)
        t1, x1, t2, x2 = fieldcheck._chronological_pairs(
            np.random.default_rng(0), BOX, 50, DEFAULT_NULL_BAND
        )
        pair = tuple(float(a[0]) for a in (t1, x1, t2, x2))
        assert "({!r}, {!r}), ({!r}, {!r})".format(*pair) in str(info.value)


def _ordered_then_selected_pairs(rng, grid, n_pairs):
    """Test-only reference: the sampler as it ran before it selected first.

    Orders every drawn pair in time, tests the ordered separation and
    grows the kept pairs round by round; the result is cut to
    ``n_pairs`` at the end.
    """
    need_q = (0.1 * grid.diameter) ** 2
    t1 = x1 = t2 = x2 = np.empty(0)
    for _ in range(200):
        if t1.size >= n_pairs:
            break
        ta, xa = fieldcheck._draw_events(rng, grid, 2 * n_pairs)
        tb, xb = fieldcheck._draw_events(rng, grid, 2 * n_pairs)
        lo_first = ta <= tb
        tlo = np.where(lo_first, ta, tb)
        xlo = np.where(lo_first, xa, xb)
        thi = np.where(lo_first, tb, ta)
        xhi = np.where(lo_first, xb, xa)
        keep = (thi - tlo - (xhi - xlo)) * (thi - tlo + (xhi - xlo)) >= need_q
        t1 = np.concatenate([t1, tlo[keep]])
        x1 = np.concatenate([x1, xlo[keep]])
        t2 = np.concatenate([t2, thi[keep]])
        x2 = np.concatenate([x2, xhi[keep]])
    if t1.size < n_pairs:
        raise EvaluationFailure(
            "could not sample decisively chronological pairs in the box"
        )
    return tuple(a[:n_pairs] for a in (t1, x1, t2, x2))


class TestChronologicalPairs:
    """The select-then-order sampler against the order-then-select one."""

    def _rounds(self, monkeypatch, sample):
        draws = []
        real = fieldcheck._draw_events

        def counted(rng, grid, n):
            draws.append(n)
            return real(rng, grid, n)

        monkeypatch.setattr(fieldcheck, "_draw_events", counted)
        result = sample()
        return result, len(draws) // 2

    @pytest.mark.parametrize("grid, rounds", [
        (GridSpec(-2.0, 2.0, -0.2, 0.2), (1, 1)),  # tall box: one round
        (BOX, (2, 2)),
        (GridSpec(-0.5, 0.5, -1.0, 1.0), (3, 6)),  # flat box: several rounds
    ])
    @pytest.mark.parametrize("seed", [0, 1, 7, 12345])
    def test_pairs_equal_the_reference_bitwise(self, monkeypatch, grid, rounds, seed):
        n = 3000
        got, used = self._rounds(monkeypatch, lambda: fieldcheck._chronological_pairs(
            np.random.default_rng(seed), grid, n, DEFAULT_NULL_BAND))
        ref, ref_used = self._rounds(monkeypatch, lambda: _ordered_then_selected_pairs(
            np.random.default_rng(seed), grid, n))
        assert used == ref_used and rounds[0] <= used <= rounds[1]
        for a, b in zip(got, ref):
            assert a.shape == (n,) and np.array_equal(a, b)
        t1, x1, t2, x2 = got
        assert np.all(t2 > t1)

    def test_a_box_too_flat_fails_after_200_rounds_like_the_reference(self, monkeypatch):
        flat = GridSpec(-0.01, 0.01, -1.0, 1.0)
        real = fieldcheck._draw_events
        for sample in (
            lambda: fieldcheck._chronological_pairs(
                np.random.default_rng(3), flat, 50, DEFAULT_NULL_BAND),
            lambda: _ordered_then_selected_pairs(np.random.default_rng(3), flat, 50),
        ):
            draws = []
            monkeypatch.setattr(fieldcheck, "_draw_events",
                                lambda rng, grid, n: draws.append(n) or real(rng, grid, n))
            with pytest.raises(EvaluationFailure) as exc:
                sample()
            assert str(exc.value) == "could not sample decisively chronological pairs in the box"
            assert draws == [100] * 400

    def test_no_pairs_asked_for(self):
        pairs = fieldcheck._chronological_pairs(
            np.random.default_rng(0), BOX, 0, DEFAULT_NULL_BAND)
        assert [a.shape for a in pairs] == [(0,)] * 4
        assert chronology_check(IdentityMap(), BOX, 0, 0).n_pairs == 0


class TestNullBandInSamplers:
    """Input pairs inside the null band are never sampled as decisive."""

    def test_chronology_inputs_lie_above_the_band(self):
        # At band 3e-2 some pairs with q >= (diameter/10)**2 sit inside
        # the band; none of them may be drawn as a chronological input.
        band = 3e-2
        t1, x1, t2, x2 = fieldcheck._chronological_pairs(
            np.random.default_rng(0), BOX, 5000, band)
        q, width, _ = cone(t2 - t1, x2 - x1, band)
        assert np.all(q > width)
        loose = _ordered_then_selected_pairs(np.random.default_rng(0), BOX, 5000)
        q, width, _ = cone(loose[2] - loose[0], loose[3] - loose[1], band)
        assert np.any(q <= width)  # the band does bind here

    def test_a_tiny_box_cannot_be_sampled(self):
        # need_q underflows to 0, so only the band keeps null pairs out
        tiny = GridSpec(0.0, 1e-300, 0.0, 1e-300, 3, 3)
        with pytest.raises(EvaluationFailure, match="could not sample"):
            chronology_check(IdentityMap(), tiny, 100, 0)

    def test_equivalence_skips_band_null_inputs(self):
        # Doubling time sends near-null pairs to decisively timelike ones,
        # so only the input test keeps band-null inputs from counting.
        band, n, seed = 3e-2, 2000, 0
        m = FunctionMap(lambda t, x: (2.0 * t, x), "time doubler")
        rep = causal_equivalence_check(m, BOX, n, seed, band)
        rng = np.random.default_rng(seed)
        t1, x1 = fieldcheck._draw_events(rng, BOX, n)
        t2, x2 = fieldcheck._draw_events(rng, BOX, n)
        q_in, band_in, _ = cone(t2 - t1, x2 - x1, band)
        _, band_out, m_out = cone(2.0 * (t2 - t1), x2 - x1, band)
        sized = np.abs(q_in) >= (0.1 * BOX.diameter) ** 2
        out_decisive = np.abs(m_out) > 10.0 * band_out
        in_band = np.abs(q_in) <= band_in
        assert np.any(sized & out_decisive & in_band)  # the band test binds
        assert rep.n_pairs == np.count_nonzero(sized & out_decisive & ~in_band)
        assert rep.witness.relation_in is CausalRelation.SPACELIKE

    def test_a_wide_band_gives_a_witness_not_an_error(self):
        # Outputs of the drift chart are compressed toward the cone, so
        # at band 3e-2 some chronological inputs map to null outputs.
        m = MarzkeWheelerMap(Inertial(0.5))
        rep = chronology_check(m, BOX, 1000, 0, 3e-2)
        assert not rep.passed
        assert rep.witness.relation_in is CausalRelation.CHRON_FUTURE
        assert rep.witness.relation_out is CausalRelation.NULL_FUTURE


class TestOrientation:
    def test_identity_preserves(self):
        assert orientation_of(IdentityMap()) is MapOrientation.PRESERVING

    def test_conjugation_reverses(self):
        assert orientation_of(ConjugateOutput(IdentityMap())) is MapOrientation.REVERSING
        assert orientation_of(ConjugateInput(IdentityMap())) is MapOrientation.REVERSING

    def test_collapse_is_neither(self):
        m = FunctionMap(lambda t, x: (np.zeros_like(t), np.zeros_like(x)), "collapse")
        assert orientation_of(m) is MapOrientation.NEITHER


class TestAutomorphismSuite:
    def test_perturbed_inertial_passes(self):
        m = MarzkeWheelerMap(PerturbedInertial(0.3, 1.0))
        rep = automorphism_suite(m, BOX, n_pairs=2000, seed=0)
        assert rep.outcome is AutomorphismOutcome.PASS
        assert rep.lip.verdict is LipVerdict.VERIFIED
        assert rep.forward.passed and rep.inverse.passed
        assert rep.roundtrip_max <= 1e-9
        assert rep.orientation is MapOrientation.PRESERVING
        assert rep.axis_max == 0.0

    def test_rindler_is_not_applicable(self):
        rep = automorphism_suite(MarzkeWheelerMap(Rindler(1.0)), BOX, 100, 0)
        assert rep.outcome is AutomorphismOutcome.NOT_APPLICABLE
        assert rep.lip.verdict is LipVerdict.FAILS
        assert rep.forward is None and rep.inverse is None


class TestLowCounterexample:
    def test_inertial_pair_report(self):
        rep = low_counterexample(Inertial(0.0), Inertial(0.5), BOX, seed=0,
                                 n_pairs=20000)
        # the sum solves the wave equation but is not holomorphic either way
        assert rep.wave.max_abs <= 1e-9
        assert rep.holo.max_abs >= 0.1
        assert rep.antiholo.max_abs >= 0.1
        # restriction to the time axis is the sum of the worldlines, exactly
        assert rep.axis_max == 0.0
        assert rep.axis_ok
        # one-sided chronology holds, two-sided equivalence does not
        assert rep.forward.passed
        assert not rep.equivalence.passed
        w = rep.equivalence.witness
        assert w.relation_in is CausalRelation.SPACELIKE
        assert w.relation_out is CausalRelation.CHRON_FUTURE

    def test_shared_stencil_matches_the_residual_functions(self):
        # one stencil sweep serves all three reports; each must equal
        # the report of the standalone residual function bitwise
        g1, g2 = PerturbedInertial(0.3, 1.0), Rindler(1.0)
        rep = low_counterexample(g1, g2, BOX, 0, 100)
        F = MapSum([MarzkeWheelerMap(g1), ConjugateInput(MarzkeWheelerMap(g2))])
        assert rep.wave == wave_residual(F, BOX)
        assert rep.holo == holomorphy_residual(F, BOX)
        assert rep.antiholo == holomorphy_residual(F, BOX, anti=True)

    def test_wave_floor_is_recomputed_from_the_sum(self):
        g1, g2 = Inertial(0.0), PerturbedInertial(0.3, 1.0)
        rep = low_counterexample(g1, g2, BOX, 0, 100)
        F = MapSum([MarzkeWheelerMap(g1), ConjugateInput(MarzkeWheelerMap(g2))])
        assert rep.wave.floor == 512.0 * EPS * (1.0 + _map_scale(F)) / BOX.h ** 2

    def test_reproducibility(self):
        a = low_counterexample(Inertial(0.0), Inertial(0.5), BOX, 0, 20000)
        b = low_counterexample(Inertial(0.0), Inertial(0.5), BOX, 0, 20000)
        assert a.equivalence.witness == b.equivalence.witness
        assert a.holo.max_abs == b.holo.max_abs

    def test_constant_second_curve_is_degenerate(self):
        class Frozen(Observer):
            def position(self, s):
                s = np.asarray(s, dtype=float)
                return np.zeros_like(s), np.zeros_like(s)

            def velocity(self, s):
                s = np.asarray(s, dtype=float)
                return np.zeros_like(s), np.zeros_like(s)

        with pytest.raises(DegenerateSplit):
            low_counterexample(Inertial(0.0), Frozen(), BOX, 0, 100)


# -- the blocked sweep against the whole-array reference ------------------


class _WholeArrayStencil:
    """The stencil before grid work ran in row blocks: every point set
    evaluated over the full grid at once.  Kept as the reference the
    blocked sweep must equal bitwise."""

    def __init__(self, f, grid):
        self.f = f
        self.grid = grid
        self.T, self.X = grid.meshes()
        self._f0 = None

    def _point_set(self, h, along_t):
        grid = self.grid
        nodes = grid.t_nodes[:, None] if along_t else grid.x_nodes[None, :]
        up, dn = fieldcheck._stencil_points(nodes, h)

        def at(coord):
            coord = np.broadcast_to(coord, self.T.shape).copy()
            return self.f(coord, self.X) if along_t else self.f(self.T, coord)

        return at(up), at(dn), nodes, up, dn

    def first(self, h, along_t):
        return fieldcheck._Stencil.first(None, *self._point_set(h, along_t))

    def second(self, h, along_t):
        centre = self._centre()
        return fieldcheck._Stencil.second(centre, *self._point_set(h, along_t))

    def both(self, h, along_t):
        centre = self._centre()
        return fieldcheck._Stencil.both(centre, *self._point_set(h, along_t))

    def _centre(self):
        if self._f0 is None:
            self._f0 = self.f(self.T, self.X)
        return self._f0

    def floor(self, k):
        centre = self._f0 if self._f0 is not None else self.f(self.T, self.X)
        mag = float(max(np.max(np.abs(c)) for c in centre))
        return 512.0 * EPS * (1.0 + mag) / self.grid.h ** k


def _whole_array_sweep(part, combine, h):
    t_part = part(h / 2.0, True)
    fine = [float(f.max()) for f in combine(t_part, part(h / 4.0, False))]
    del t_part
    t_part = part(h, True)
    coarse = [float(f.max()) for f in combine(t_part, part(h / 2.0, False))]
    orders = [fieldcheck._order(a, b) for a, b in zip(coarse, fine)]
    return combine(t_part, part(h, False)), orders


def _reference_holo(F, grid, anti=False):
    stencil = _WholeArrayStencil(F.components, grid)
    floor = stencil.floor(1)
    (field,), (order,) = _whole_array_sweep(
        stencil.first, fieldcheck._holo_fields((-1.0 if anti else 1.0,)), grid.h
    )
    return fieldcheck._report(field, order, grid, floor)


def _reference_wave(F, grid):
    stencil = _WholeArrayStencil(F.components, grid)
    (field,), (order,) = _whole_array_sweep(stencil.second, fieldcheck._wave_fields, grid.h)
    return fieldcheck._report(field, order, grid, stencil.floor(2))


def _reference_conformal(F, grid):
    stencil = _WholeArrayStencil(F.components, grid)
    floor = stencil.floor(1)
    (field, lam), (order, _) = _whole_array_sweep(
        stencil.first, fieldcheck._conformal_fields, grid.h
    )
    return fieldcheck.ConformalityReport(
        **vars(fieldcheck._report(field, order, grid, floor)),
        factor_min=float(lam.min()),
        factor_max=float(lam.max()),
        n_nonpositive=int(np.count_nonzero(lam <= 0.0)),
    )


def _reference_loggwave(m, grid):
    def log_factor(t, x):
        return (np.log(m.conformal_components(t, x, mode="analytic")),)

    def combine(t_part, x_part):
        return (np.abs(t_part[0] - x_part[0]),)

    stencil = _WholeArrayStencil(log_factor, grid)
    (field,), (order,) = _whole_array_sweep(stencil.second, combine, grid.h)
    return fieldcheck._report(field, order, grid, stencil.floor(2))


def _reference_low(F, grid):
    holo_pair = fieldcheck._holo_fields((1.0, -1.0))

    def combine(t_part, x_part):
        return fieldcheck._wave_fields(t_part[1], x_part[1]) + holo_pair(t_part[0], x_part[0])

    stencil = _WholeArrayStencil(F.components, grid)
    fields, orders = _whole_array_sweep(stencil.both, combine, grid.h)
    return tuple(
        fieldcheck._report(f, o, grid, stencil.floor(k))
        for f, o, k in zip(fields, orders, (2, 1, 1))
    )


# Wide rows make blocks of a few rows, so a grid of a few dozen rows
# crosses several block edges at a small size.
WIDE_N_X = fieldcheck._BLOCK_NODES // 8 + 1
ROWS = max(1, fieldcheck._BLOCK_NODES // WIDE_N_X)
BLOCK_N_T = (3, ROWS - 1, ROWS, ROWS + 1, 2 * ROWS + 1)


def _wide_grid(n_t):
    return GridSpec(-2.0, 2.0, -2.0, 2.0, n_t, WIDE_N_X)


def _same(a, b) -> bool:
    # repr tells NaN from NaN and -0.0 from 0.0, as bitwise equality would
    return repr(a) == repr(b)


class TestBlockedSweep:
    def test_rows_per_block(self):
        assert ROWS == 7 and 3 < ROWS - 1
        blocks = list(_wide_grid(2 * ROWS + 1).row_blocks())
        assert [(r.start, T.shape) for r, T, _ in blocks] == [
            (0, (ROWS, WIDE_N_X)), (ROWS, (ROWS, WIDE_N_X)), (2 * ROWS, (1, WIDE_N_X)),
        ]
        T, X = _wide_grid(2 * ROWS + 1).meshes()
        for rows, bt, bx in blocks:
            assert np.array_equal(bt, T[rows]) and np.array_equal(bx, X[rows])

    @pytest.mark.parametrize("n_t", BLOCK_N_T)
    def test_reports_equal_the_whole_array_sweep(self, n_t):
        grid = _wide_grid(n_t)
        wobble = MarzkeWheelerMap(PerturbedInertial(0.3, 1.0))
        rocket = MarzkeWheelerMap(Rindler(1.0))
        square = FunctionMap(lambda t, x: (t * t, x * t), "t squared, x t")
        for F in (wobble, rocket, square):
            assert _same(holomorphy_residual(F, grid), _reference_holo(F, grid))
            assert _same(
                holomorphy_residual(F, grid, anti=True), _reference_holo(F, grid, True)
            )
            assert _same(wave_residual(F, grid), _reference_wave(F, grid))
            assert _same(conformality_report(F, grid), _reference_conformal(F, grid))
        for m in (wobble, rocket):
            assert _same(log_factor_wave_residual(m, grid), _reference_loggwave(m, grid))

    @pytest.mark.parametrize("n_t", BLOCK_N_T)
    def test_low_counterexample_equals_the_whole_array_sweep(self, n_t):
        grid = _wide_grid(n_t)
        g1, g2 = PerturbedInertial(0.3, 1.0), Rindler(1.0)
        rep = low_counterexample(g1, g2, grid, 0, 100)
        F = MapSum([MarzkeWheelerMap(g1), ConjugateInput(MarzkeWheelerMap(g2))])
        assert _same((rep.wave, rep.holo, rep.antiholo), _reference_low(F, grid))

    @pytest.mark.parametrize("n_t", (ROWS, 2 * ROWS + 1))
    def test_every_stencil_point_is_evaluated_once(self, n_t):
        # centre plus five point sets of two sides each: 11 grid passes
        grid = _wide_grid(n_t)
        chart = MarzkeWheelerMap(PerturbedInertial(0.3, 1.0))
        nodes = []

        def counted(t, x):
            nodes.append(np.size(t))
            return chart.components(t, x)

        class CountedFactor:
            def conformal_components(self, t, x, mode):
                nodes.append(np.size(t))
                return chart.conformal_components(t, x, mode=mode)

        F = FunctionMap(counted, "counted chart")
        for run in (
            lambda: holomorphy_residual(F, grid),
            lambda: wave_residual(F, grid),
            lambda: conformality_report(F, grid),
            lambda: log_factor_wave_residual(CountedFactor(), grid),
        ):
            nodes.clear()
            run()
            assert sum(nodes) == 11 * n_t * WIDE_N_X

    def test_nan_in_one_block_reads_as_no_order(self):
        grid = _wide_grid(2 * ROWS + 1)
        t_nan = grid.t_nodes[ROWS + ROWS // 2]
        half = (grid.t_max - grid.t_min) / (grid.n_t - 1) / 2.0

        def fn(t, x):
            bad = (np.abs(t - t_nan) < half) & (np.abs(x) < 0.5)
            return np.where(bad, np.nan, t * t), x * t

        F = FunctionMap(fn, "NaN in one block")
        for new, ref in (
            (holomorphy_residual(F, grid), _reference_holo(F, grid)),
            (wave_residual(F, grid), _reference_wave(F, grid)),
            (conformality_report(F, grid), _reference_conformal(F, grid)),
        ):
            assert new.convergence_order is None
            assert math.isnan(new.max_abs)
            assert _same(new, ref)

    def test_failure_in_the_last_block_raises_the_same_type(self):
        grid = _wide_grid(2 * ROWS + 1)
        last = grid.t_nodes[-2]

        def fn(t, x):
            if np.any(t > last):
                raise DomainExceeded("past the second last row")
            return t, x

        F = FunctionMap(fn, "fails in the last block")
        for run, ref in (
            (holomorphy_residual, _reference_holo),
            (wave_residual, _reference_wave),
            (conformality_report, _reference_conformal),
        ):
            with pytest.raises(DomainExceeded):
                ref(F, grid)
            with pytest.raises(DomainExceeded):
                run(F, grid)

    def test_underflowing_step_raises_before_any_evaluation(self):
        # the ulp at 1e16 is 2, so x + h/4 = x + 0.8 rounds back to x
        grid = GridSpec(0.0, 64.0, 1e16, 1e16 + 64.0, 3, 3, h=3.2)
        calls = []
        F = FunctionMap(lambda t, x: calls.append(1) or (t, x), "never called")
        for run in (holomorphy_residual, wave_residual, conformality_report):
            with pytest.raises(EvaluationFailure, match="underflows"):
                run(F, grid)
        assert calls == []


# -- reductions on the helper thread against the sequential sweep --------


class _SequentialStencil:
    """The blocked stencil before its reductions moved to the helper
    thread: every point set evaluated and then reduced on the calling
    thread, one after the other.  Swapped in for ``fieldcheck._Stencil``
    by :func:`_sequentially`, it is the reference for report bytes, for
    the order of map calls and for the exception raised."""

    def __init__(self, f, grid):
        self.f = f
        self.grid = grid
        h = grid.h
        axes = {True: grid.t_nodes[:, None], False: grid.x_nodes[None, :]}
        self._axes = {
            (step, along_t): (axes[along_t], *fieldcheck._stencil_points(axes[along_t], step))
            for step, along_t in (
                (h / 2.0, True), (h / 4.0, False), (h, True), (h / 2.0, False), (h, False)
            )
        }
        self._magnitude = None

    def _enter(self, rows, T, X):
        self._rows, self.T, self.X = rows, T, X
        self._f0 = self.f(T, X)
        self._magnitude = fieldcheck._fold_max(self._magnitude, [np.abs(c) for c in self._f0])

    def _point_set(self, h, along_t):
        nodes, up, dn = self._axes[h, along_t]
        if along_t:
            nodes, up, dn = nodes[self._rows], up[self._rows], dn[self._rows]

        def at(coord):
            coord = np.broadcast_to(coord, self.T.shape).copy()
            return self.f(coord, self.X) if along_t else self.f(self.T, coord)

        return at(up), at(dn), nodes, up, dn

    def first(self, h, along_t):
        return self._first(*self._point_set(h, along_t))

    def second(self, h, along_t):
        return self._second(self._f0, *self._point_set(h, along_t))

    def both(self, h, along_t):
        points = self._point_set(h, along_t)
        return self._first(*points), self._second(self._f0, *points)

    def sweep(self, part, combine):
        grid = self.grid
        h = grid.h
        fields = fine = coarse = None
        for rows, T, X in grid.row_blocks():
            self._enter(rows, T, X)
            t_part = part(h / 2.0, True)
            fine = fieldcheck._fold_max(fine, combine(t_part, part(h / 4.0, False)))
            del t_part
            t_part = part(h, True)
            coarse = fieldcheck._fold_max(coarse, combine(t_part, part(h / 2.0, False)))
            matched = combine(t_part, part(h, False))
            del t_part
            if fields is None:
                fields = [np.empty((grid.n_t, grid.n_x), f.dtype) for f in matched]
            for out, f in zip(fields, matched):
                out[rows] = f
        orders = [fieldcheck._order(float(a), float(b)) for a, b in zip(coarse, fine)]
        return fields, orders

    def floor(self, k):
        mag = float(max(self._magnitude))
        h = self.grid.h
        try:
            scale = h ** k
        except OverflowError:
            scale = math.inf
        if not 0.0 < scale < math.inf:
            raise EvaluationFailure(
                f"rounding floor needs h**{k}, out of float range for h = {h!r}"
            )
        return 512.0 * EPS * (1.0 + mag) / scale

    @staticmethod
    def _first(f_up, f_dn, coord, up, dn):
        span = up - dn
        return [(u - d) / span for u, d in zip(f_up, f_dn)]

    @staticmethod
    def _second(centre, f_up, f_dn, coord, up, dn):
        return [
            fieldcheck._second_diff(u, c, d, coord, up, dn)
            for u, c, d in zip(f_up, centre, f_dn)
        ]


def _sequentially(run):
    """``run()`` with the sequential stencil in place of ``_Stencil``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fieldcheck, "_Stencil", _SequentialStencil)
        return run()


def _outcome(run):
    """``run()``'s result, or the type and message of what it raised."""
    try:
        return run()
    except Exception as exc:
        return type(exc), str(exc)


def _stencil_runs(F, m):
    """Every stencil entry point on plane map ``F`` and chart-like ``m``."""
    return {
        "holo": lambda grid: holomorphy_residual(F, grid),
        "antiholo": lambda grid: holomorphy_residual(F, grid, anti=True),
        "wave": lambda grid: wave_residual(F, grid),
        "conformal": lambda grid: conformality_report(F, grid),
        "loggwave": lambda grid: log_factor_wave_residual(m, grid),
    }


def _low(grid):
    return low_counterexample(PerturbedInertial(0.3, 1.0), Rindler(1.0), grid, 0, 100)


# Grids of one, two, three (the last one row) and four blocks, and rows
# longer than a block: one row per block.
HELPER_GRIDS = {
    "1 block": _wide_grid(ROWS),
    "2 blocks": _wide_grid(ROWS + 1),
    "3 blocks": _wide_grid(2 * ROWS + 1),
    "4 blocks": _wide_grid(3 * ROWS + 2),
    "row per block": GridSpec(-2.0, 2.0, -2.0, 2.0, 4, fieldcheck._BLOCK_NODES + 1),
}


class TestHelperThread:
    def test_grids_have_the_named_blocks(self):
        shapes = {
            name: [T.shape for _, T, _ in grid.row_blocks()]
            for name, grid in HELPER_GRIDS.items()
        }
        wide, long_row = WIDE_N_X, fieldcheck._BLOCK_NODES + 1
        assert shapes == {
            "1 block": [(ROWS, wide)],
            "2 blocks": [(ROWS, wide), (1, wide)],
            "3 blocks": [(ROWS, wide), (ROWS, wide), (1, wide)],
            "4 blocks": [(ROWS, wide)] * 3 + [(2, wide)],
            "row per block": [(1, long_row)] * 4,
        }

    @pytest.mark.parametrize("name", sorted(HELPER_GRIDS))
    def test_reports_equal_the_sequential_sweep(self, name):
        grid = HELPER_GRIDS[name]
        wobble = MarzkeWheelerMap(PerturbedInertial(0.3, 1.0))
        square = FunctionMap(lambda t, x: (t * t, x * t), "t squared, x t")
        for F in (wobble, square):
            for run in _stencil_runs(F, wobble).values():
                assert _same(run(grid), _sequentially(lambda: run(grid)))
        assert _same(_low(grid), _sequentially(lambda: _low(grid)))

    def test_map_calls_stay_on_the_calling_thread_in_sequential_order(self, monkeypatch):
        grid = HELPER_GRIDS["3 blocks"]
        caller = threading.get_ident()
        folds = []
        fold_max = fieldcheck._fold_max

        def recorded_fold_max(maxima, fields):
            folds.append(threading.get_ident())
            return fold_max(maxima, fields)

        monkeypatch.setattr(fieldcheck, "_fold_max", recorded_fold_max)
        chart = MarzkeWheelerMap(PerturbedInertial(0.3, 1.0))
        new_log, ref_log = [], []
        runs = _stencil_runs(*[RecordingMap(chart, new_log)] * 2)
        refs = _stencil_runs(*[RecordingMap(chart, ref_log)] * 2)
        for kind in runs:
            for log in (new_log, ref_log, folds):
                log.clear()
            new = runs[kind](grid)
            # magnitude, fine and coarse maxima of three blocks, on the helper
            assert len(folds) == 9 and caller not in folds and len(set(folds)) == 1
            assert _same(new, _sequentially(lambda: refs[kind](grid)))
            assert {ident for ident, *_ in new_log} == {caller}
            assert new_log == ref_log and len(new_log) == 3 * 11

        real = fieldcheck.MarzkeWheelerMap
        new_log.clear()
        ref_log.clear()
        monkeypatch.setattr(fieldcheck, "MarzkeWheelerMap", lambda g: RecordingMap(real(g), new_log))
        new = _low(grid)
        monkeypatch.setattr(fieldcheck, "MarzkeWheelerMap", lambda g: RecordingMap(real(g), ref_log))
        assert _same(new, _sequentially(lambda: _low(grid)))
        assert {ident for ident, *_ in new_log} == {caller}
        # two charts per stencil point, then the axis and the samplers
        assert new_log == ref_log and len(new_log) > 2 * 3 * 11

    def test_one_block_runs_inline(self, monkeypatch):
        def no_helper():
            raise AssertionError("a one-block grid started the helper")

        monkeypatch.setattr(fieldcheck, "_helper_jobs", no_helper)
        grid = HELPER_GRIDS["1 block"]
        chart = MarzkeWheelerMap(PerturbedInertial(0.3, 1.0))
        for run in _stencil_runs(chart, chart).values():
            assert _same(run(grid), _sequentially(lambda: run(grid)))
        assert _same(_low(grid), _sequentially(lambda: _low(grid)))

    def test_failure_in_block_three_raises_once_the_helper_drained(self, monkeypatch):
        grid = HELPER_GRIDS["4 blocks"]
        block_three = grid.t_nodes[2 * ROWS]

        def fn(t, x):
            if np.any(t >= block_three - grid.h):
                raise EvaluationFailure(f"no value at t = {float(np.max(t))!r}")
            return t * t, x * t

        F = FunctionMap(fn, "fails in block three")
        expected = _sequentially(lambda: _outcome(lambda: holomorphy_residual(F, grid)))
        assert expected[0] is EvaluationFailure

        events = []
        first = fieldcheck._Stencil.first

        def slow_first(centre, *points):
            events.append("start")
            time.sleep(0.005)
            try:
                return first(centre, *points)
            finally:
                events.append("end")

        monkeypatch.setattr(fieldcheck._Stencil, "first", staticmethod(slow_first))
        assert _outcome(lambda: holomorphy_residual(F, grid)) == expected
        # the five point sets of blocks one and two were reduced, and
        # nothing runs after the exception surfaced
        settled = list(events)
        assert settled == ["start", "end"] * 10
        time.sleep(0.05)
        assert events == settled

    def test_floating_point_errors_raise_from_the_helper_as_before(self):
        grid = HELPER_GRIDS["3 blocks"]
        jump = grid.t_nodes[ROWS + 2]  # in block two

        def fn(t, x):
            # a step up and a step down from the jump differ by 2e308
            return np.where(t > jump, 1e308, -1e308), x

        runs = _stencil_runs(FunctionMap(fn, "jumps by 2e308"), None)
        del runs["loggwave"]
        with np.errstate(all="raise"):
            for run in runs.values():
                expected = _sequentially(lambda: _outcome(lambda: run(grid)))
                assert expected[0] is FloatingPointError
                assert _outcome(lambda: run(grid)) == expected
        # the helper survives a failed job
        chart = MarzkeWheelerMap(PerturbedInertial(0.3, 1.0))
        assert _same(wave_residual(chart, grid), _sequentially(lambda: wave_residual(chart, grid)))

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_a_forked_child_starts_its_own_helper(self):
        grid = HELPER_GRIDS["2 blocks"]
        chart = MarzkeWheelerMap(PerturbedInertial(0.3, 1.0))
        expected = repr(wave_residual(chart, grid))  # the helper runs here
        pid = os.fork()
        if pid == 0:  # the parent's helper thread is not in the child
            code = 1
            try:
                signal.alarm(10)  # a child waiting on no helper dies
                code = 0 if repr(wave_residual(chart, grid)) == expected else 1
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
