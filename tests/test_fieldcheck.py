"""Stencil residuals, chronology sampling, and the automorphism suite."""

import math
import os
import subprocess
import sys
import tracemalloc
import warnings

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
    PiecewiseLinear,
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
from mwsync import fieldcheck, mwmap
from mwsync.causal import DEFAULT_NULL_BAND, cone
from fakes import CountingObserver, FunctionMap, RecordingMap, TwoCallChart
import test_acceptance

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
        band = fieldcheck._ORDER_BAND
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

    def test_order_band_is_the_acceptance_band(self):
        assert fieldcheck._ORDER_BAND == test_acceptance.ORDER_BAND

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

    def test_conformality_counts_a_nan_factor_as_not_positive(self):
        # The identity, undefined from t = 1 on: the factor there is NaN.
        m = FunctionMap(lambda t, x: (np.where(t < 1.0, t, np.nan), x), "cut identity")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = conformality_report(m, BOX)
        ts = np.linspace(BOX.t_min, BOX.t_max, BOX.n_t)
        assert rep.n_nonpositive == np.count_nonzero(ts >= 1.0) * BOX.n_x
        assert not rep.passed

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


def test_scalar_call_must_be_finite():
    # the scalar reading of a plane map names the map and the point, and
    # numpy warns of nothing on the way
    m = MapSum([MarzkeWheelerMap(Rindler(1.0))])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvaluationFailure) as info:
            m(E(800.0, 0.0))
    assert str(info.value) == f"{m!r} has no finite value at z = (800.0, 0.0): (nan, nan)"


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
        def one_decisive_pair(rng, grid, n, first, columns=4):
            tb = np.zeros(n)
            tb[0] = 1.0
            yield [np.zeros(n), np.zeros(n), tb, np.zeros(n)]

        monkeypatch.setattr(fieldcheck, "_draws", one_decisive_pair)
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
        monkeypatch.setattr(fieldcheck, "_draws", _no_draws)
        wide = GridSpec(1e300, 1.5e300, 0.0, 1.0, 3, 3)
        with pytest.raises(EvaluationFailure, match=r"box \[1e\+300, 1.5e\+300\]"):
            check(IdentityMap(), wide, 50, 0)

    def test_a_non_finite_output_at_the_witness_names_the_pair(self):
        m = FunctionMap(lambda t, x: (t * math.nan, x), "NaN time")
        with pytest.raises(EvaluationFailure, match="not finite for the pair") as info:
            chronology_check(m, BOX, 50, 0)
        t1, x1, t2, x2 = _sampled_pairs(np.random.default_rng(0), BOX, 50, DEFAULT_NULL_BAND)
        pair = tuple(float(a[0]) for a in (t1, x1, t2, x2))
        assert "({!r}, {!r}), ({!r}, {!r})".format(*pair) in str(info.value)


def _no_draws(*args, **kwargs):
    raise AssertionError("drew events")


def _ref_events(rng, grid, n):
    """Test-side reference draw: ``n`` events of the box as two whole
    columns, t then x, from one generator."""
    return rng.uniform(grid.t_min, grid.t_max, n), rng.uniform(grid.x_min, grid.x_max, n)


def _sampled_pairs(rng, grid, n_pairs, tol):
    """The chronology sampler's blocks joined into four columns."""
    return tuple(np.concatenate(list(fieldcheck._chronological_pairs(rng, grid, n_pairs, tol)),
                                axis=1))


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
        ta, xa = _ref_events(rng, grid, 2 * n_pairs)
        tb, xb = _ref_events(rng, grid, 2 * n_pairs)
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
    """The select-then-order sampler, drawing chunk by chunk, against the
    order-then-select reference on whole columns."""

    def _rounds(self, monkeypatch, sample):
        """``sample()``'s result, or the EvaluationFailure it raised, and its
        draws: ``(n, first)`` per call of the sampler's ``_draws`` (one per
        round) and ``n`` per call of the reference's ``_ref_events`` (two
        per round)."""
        calls = []
        real_draws, real_events = fieldcheck._draws, _ref_events

        def draws(rng, grid, n, first, columns=4):
            calls.append((n, first))
            return real_draws(rng, grid, n, first, columns)

        def events(rng, grid, n):
            calls.append(n)
            return real_events(rng, grid, n)

        with monkeypatch.context() as patch:
            patch.setattr(fieldcheck, "_draws", draws)
            patch.setattr(sys.modules[__name__], "_ref_events", events)
            try:
                result = sample()
            except EvaluationFailure as exc:
                result = exc
        return result, calls

    @pytest.mark.parametrize("chunk", [mwmap._BLOCK_NODES, 64])
    @pytest.mark.parametrize("grid, rounds", [
        (GridSpec(-2.0, 2.0, -0.2, 0.2), (1, 1)),  # tall box: one round
        (BOX, (2, 2)),
        (GridSpec(-0.5, 0.5, -1.0, 1.0), (3, 6)),  # flat box: several rounds
    ])
    @pytest.mark.parametrize("seed", [0, 1, 7, 12345])
    def test_pairs_equal_the_reference_bitwise(self, monkeypatch, chunk, grid, rounds, seed):
        monkeypatch.setattr(mwmap, "_BLOCK_NODES", chunk)
        monkeypatch.setattr(fieldcheck, "_BLOCK_NODES", chunk)
        n = 3000
        blocks, calls = self._rounds(monkeypatch, lambda: list(fieldcheck._chronological_pairs(
            np.random.default_rng(seed), grid, n, DEFAULT_NULL_BAND)))
        ref, ref_calls = self._rounds(monkeypatch, lambda: _ordered_then_selected_pairs(
            np.random.default_rng(seed), grid, n))
        used = len(calls)
        assert calls == [(2 * n, 4 * r) for r in range(used)]
        assert ref_calls == [2 * n] * (2 * used) and rounds[0] <= used <= rounds[1]
        # Full blocks of ``chunk`` pairs, then the rest.
        sizes = [chunk] * (n // chunk) + [n % chunk] * (n % chunk > 0)
        assert [b.shape for b in blocks] == [(4, size) for size in sizes]
        got = np.concatenate(blocks, axis=1)
        for a, b in zip(got, ref):
            assert a.shape == (n,) and np.array_equal(a, b)
        t1, x1, t2, x2 = got
        assert np.all(t2 > t1)

    @pytest.mark.parametrize("first, columns", [(0, 2), (0, 4), (8, 4)])
    def test_draws_are_the_rows_of_whole_column_draws(self, small_chunks, first, columns):
        rng = np.random.default_rng(11)
        state = rng.bit_generator.state
        chunks = list(fieldcheck._draws(rng, BOX, SHORT_LAST, first, columns))
        assert rng.bit_generator.state == state  # the caller's generator does not move
        assert [[a.size for a in c] for c in chunks] == [[n] * columns for n in (64, 64, 64, 8)]
        ref = np.random.default_rng(11)
        whole = [a for _ in range((first + columns) // 2) for a in _ref_events(ref, BOX, SHORT_LAST)]
        for got, want in zip(zip(*chunks), whole[first:], strict=True):
            assert np.array_equal(np.concatenate(got), want)

    def test_drawing_stops_at_the_chunk_that_fills_the_quota(self, small_chunks, monkeypatch):
        # Where the reference's whole columns hold the last pair needed,
        # the sampler stops drawing: 400 unordered pairs per round, so a
        # round is six chunks of 64 and one of 16.
        n, seed = SHORT_LAST, 2
        rng = np.random.default_rng(seed)
        need = (0.1 * BOX.diameter) ** 2
        kept = []
        for _ in range(2):
            ta, xa = _ref_events(rng, BOX, 2 * n)
            tb, xb = _ref_events(rng, BOX, 2 * n)
            q, band, _ = cone(tb - ta, xb - xa, DEFAULT_NULL_BAND)
            kept.append(np.cumsum((q >= need) & (q > band)))
        assert kept[0][-1] < n <= kept[0][-1] + kept[1][-1]
        last = int(np.searchsorted(kept[1], n - kept[0][-1]))  # its index in round 1
        drawn = []
        real = fieldcheck._draws

        def counted(rng, grid, size, first, columns=4):
            for chunk in real(rng, grid, size, first, columns):
                drawn.append((first, chunk[0].size))
                yield chunk

        monkeypatch.setattr(fieldcheck, "_draws", counted)
        pairs = _sampled_pairs(np.random.default_rng(seed), BOX, n, DEFAULT_NULL_BAND)
        assert pairs[0].size == n
        assert drawn == [(0, 64)] * 6 + [(0, 16)] + [(4, 64)] * (last // 64 + 1)

    def test_a_box_too_flat_fails_after_200_rounds_like_the_reference(self, monkeypatch):
        flat = GridSpec(-0.01, 0.01, -1.0, 1.0)
        for sample, want in (
            (lambda: list(fieldcheck._chronological_pairs(
                np.random.default_rng(3), flat, 50, DEFAULT_NULL_BAND)),
             [(100, 4 * r) for r in range(200)]),
            (lambda: _ordered_then_selected_pairs(np.random.default_rng(3), flat, 50),
             [100] * 400),
        ):
            exc, calls = self._rounds(monkeypatch, sample)
            assert type(exc) is EvaluationFailure
            assert str(exc) == "could not sample decisively chronological pairs in the box"
            assert calls == want

    def test_no_pairs_asked_for(self, monkeypatch):
        # A check over no pairs would pass vacuously.  It is refused as the
        # automorphism suite refuses it, before the box is measured (this
        # one is too wide to sample) or an event is drawn.
        monkeypatch.setattr(fieldcheck, "_draws", _no_draws)
        wide = GridSpec(1e300, 1.5e300, 0.0, 1.0, 3, 3)
        for check in (chronology_check, causal_equivalence_check):
            for n_pairs in (0, -5):
                with pytest.raises(ValueError) as info:
                    check(IdentityMap(), wide, n_pairs, 0)
                assert type(info.value) is ValueError
                assert str(info.value) == f"n_pairs must be at least 1, got {n_pairs}"


class TestNullBandInSamplers:
    """Input pairs inside the null band are never sampled as decisive."""

    def test_chronology_inputs_lie_above_the_band(self):
        # At band 3e-2 some pairs with q >= (diameter/10)**2 sit inside
        # the band; none of them may be drawn as a chronological input.
        band = 3e-2
        t1, x1, t2, x2 = _sampled_pairs(np.random.default_rng(0), BOX, 5000, band)
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
        t1, x1 = _ref_events(rng, BOX, n)
        t2, x2 = _ref_events(rng, BOX, n)
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

    @pytest.mark.parametrize("n_pairs", [0, -3])
    def test_no_pairs_is_refused(self, n_pairs):
        # The round trip has no maximum over no events; the CLI refuses
        # --pairs below 1 already.
        m = MarzkeWheelerMap(PerturbedInertial(0.3, 1.0))
        with pytest.raises(ValueError, match=f"n_pairs must be at least 1, got {n_pairs}$"):
            automorphism_suite(m, BOX, n_pairs)


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

    def test_no_pairs_is_refused(self, monkeypatch):
        def no_stencil(*args):
            raise AssertionError("swept the grid")

        monkeypatch.setattr(fieldcheck, "_sweep", no_stencil)
        monkeypatch.setattr(fieldcheck, "_draws", _no_draws)
        with pytest.raises(ValueError, match="^n_pairs must be at least 1, got 0$"):
            low_counterexample(Inertial(0.0), Inertial(0.5), BOX, 0, n_pairs=0)

    def test_wave_floor_out_of_float_range_raises_first(self, monkeypatch):
        # h**2 overflows on this box; the wave floor (k = 2) is read before
        # the first-order ones and before any pair is sampled
        monkeypatch.setattr(fieldcheck, "_draws", _no_draws)
        grid = GridSpec(0.0, 1e300, 0.0, 1e300, 3, 3)
        with pytest.raises(EvaluationFailure) as info:
            low_counterexample(Inertial(0.0), Inertial(0.5), grid, 0, 100)
        assert str(info.value) == (
            f"rounding floor needs h**2, out of float range for h = {grid.h!r}"
        )

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

    def test_constancy_is_judged_relative_to_the_box(self):
        # a moving curve spreads 3.5e-300 over this box of diameter 1e-300:
        # not constant, so the call reaches the stencil, whose k = 2 floor
        # is out of float range there
        grid = GridSpec(0.0, 1e-300, 0.0, 1e-300, 5, 5)
        with pytest.raises(EvaluationFailure, match=r"^rounding floor needs h\*\*2"):
            low_counterexample(Inertial(0.0), Inertial(0.5), grid, 0, 100)

    def test_a_window_meeting_the_domain_in_one_point_is_not_constant(self):
        # the working window [-4, 0] meets the domain [0, 2] at s = 0 alone;
        # the spread is then read over the whole domain, and the sweep
        # reports the grid leaving it
        zigzag = PiecewiseLinear([(0.0, 0.0), (1.0, 0.5), (2.0, 0.0)])
        grid = GridSpec(-3.0, -1.0, 0.0, 1.0, 5, 5)
        with pytest.raises(DomainExceeded, match=r"^parameter outside \[0\.0, 2\.0\]$"):
            low_counterexample(Inertial(0.0), zigzag, grid, 0, 100)


# -- reference arithmetic -------------------------------------------------
#
# The stencil's arithmetic as plain expressions, kept here so that the
# in-place reductions of ``fieldcheck`` are compared against a copy of
# their own expressions and not against themselves.


def _ref_stencil_points(coord, h):
    up = coord + h
    dn = coord - h
    if np.any(up - coord <= 0.0) or np.any(coord - dn <= 0.0):
        raise EvaluationFailure(f"stencil step {h!r} underflows on the grid")
    return up, dn


def _ref_second_diff(f_up, f_0, f_dn, coord, up, dn):
    d_p = up - coord
    d_m = coord - dn
    return 2.0 * ((f_up - f_0) / d_p - (f_0 - f_dn) / d_m) / (d_p + d_m)


def _ref_first(f_up, f_dn, coord, up, dn):
    span = up - dn
    return [(u - d) / span for u, d in zip(f_up, f_dn)]


def _ref_second(centre, f_up, f_dn, coord, up, dn):
    return [
        _ref_second_diff(u, c, d, coord, up, dn)
        for u, c, d in zip(f_up, centre, f_dn)
    ]


def _ref_holo_fields(signs):
    def combine(t_part, x_part):
        d0t, d0x = t_part
        d1t, d1x = x_part
        return tuple(np.hypot(d1t - s * d0x, d1x - s * d0t) for s in signs)

    return combine


def _ref_wave_fields(t_part, x_part):
    return (np.hypot(t_part[0] - x_part[0], t_part[1] - x_part[1]),)


def _ref_conformal_fields(t_part, x_part):
    d0t, d0x = t_part
    d1t, d1x = x_part
    g00 = d0t * d0t - d0x * d0x
    g01 = d0t * d1t - d0x * d1x
    g11 = d1t * d1t - d1x * d1x
    resid = np.sqrt(2.0 * g01 * g01 + (g11 + g00) ** 2)
    return resid, g00


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
        up, dn = _ref_stencil_points(nodes, h)

        def at(coord):
            coord = np.broadcast_to(coord, self.T.shape).copy()
            return self.f(coord, self.X) if along_t else self.f(self.T, coord)

        return at(up), at(dn), nodes, up, dn

    def first(self, h, along_t):
        return _ref_first(*self._point_set(h, along_t))

    def second(self, h, along_t):
        centre = self._centre()
        return _ref_second(centre, *self._point_set(h, along_t))

    def both(self, h, along_t):
        centre = self._centre()
        points = self._point_set(h, along_t)
        return _ref_first(*points), _ref_second(centre, *points)

    def _centre(self):
        if self._f0 is None:
            self._f0 = self.f(self.T, self.X)
        return self._f0

    def floor(self, k):
        centre = self._f0 if self._f0 is not None else self.f(self.T, self.X)
        mag = float(max(np.max(np.abs(c)) for c in centre))
        return 512.0 * EPS * (1.0 + mag) / self.grid.h ** k


def _ref_report(field, order, grid, floor):
    i, j = np.unravel_index(int(np.argmax(field)), field.shape)
    return fieldcheck.ResidualReport(
        float(field.max()), float(field.mean()),
        (float(grid.t_nodes[i]), float(grid.x_nodes[j])), order, grid.h, floor,
    )


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
        stencil.first, _ref_holo_fields((-1.0 if anti else 1.0,)), grid.h
    )
    return _ref_report(field, order, grid, floor)


def _reference_wave(F, grid):
    stencil = _WholeArrayStencil(F.components, grid)
    (field,), (order,) = _whole_array_sweep(stencil.second, _ref_wave_fields, grid.h)
    return _ref_report(field, order, grid, stencil.floor(2))


def _reference_conformal(F, grid):
    stencil = _WholeArrayStencil(F.components, grid)
    floor = stencil.floor(1)
    (field, lam), (order, _) = _whole_array_sweep(
        stencil.first, _ref_conformal_fields, grid.h
    )
    return fieldcheck.ConformalityReport(
        **vars(_ref_report(field, order, grid, floor)),
        factor_min=float(lam.min()),
        factor_max=float(lam.max()),
        n_nonpositive=int(np.count_nonzero(~(lam > 0.0))),
    )


def _reference_loggwave(m, grid):
    def log_factor(t, x):
        return (np.log(m.conformal_components(t, x)),)

    def combine(t_part, x_part):
        return (np.abs(t_part[0] - x_part[0]),)

    stencil = _WholeArrayStencil(log_factor, grid)
    (field,), (order,) = _whole_array_sweep(stencil.second, combine, grid.h)
    return _ref_report(field, order, grid, stencil.floor(2))


def _reference_low(F, grid):
    holo_pair = _ref_holo_fields((1.0, -1.0))

    def combine(t_part, x_part):
        return _ref_wave_fields(t_part[1], x_part[1]) + holo_pair(t_part[0], x_part[0])

    stencil = _WholeArrayStencil(F.components, grid)
    fields, orders = _whole_array_sweep(stencil.both, combine, grid.h)
    return tuple(
        _ref_report(f, o, grid, stencil.floor(k))
        for f, o, k in zip(fields, orders, (2, 1, 1))
    )


# Wide rows make blocks of a few rows, so a grid of a few dozen rows
# crosses several block edges at a small size.
WIDE_N_X = fieldcheck._BLOCK_NODES // 8 + 1
ROWS = max(1, fieldcheck._BLOCK_NODES // WIDE_N_X)
BLOCK_N_T = (3, ROWS - 1, ROWS, ROWS + 1, 2 * ROWS + 1)


def _wide_grid(n_t):
    return GridSpec(-2.0, 2.0, -2.0, 2.0, n_t, WIDE_N_X)


# Grids of one, two, three (the last one row) and four blocks, and rows
# longer than a block: one row per block.
BLOCK_GRIDS = {
    "1 block": _wide_grid(ROWS),
    "2 blocks": _wide_grid(ROWS + 1),
    "3 blocks": _wide_grid(2 * ROWS + 1),
    "4 blocks": _wide_grid(3 * ROWS + 2),
    "row per block": GridSpec(-2.0, 2.0, -2.0, 2.0, 4, fieldcheck._BLOCK_NODES + 1),
}

# The grids of BLOCK_N_T, named by n_t, and the grids of four blocks and
# of one row per block.
WHOLE_ARRAY_GRIDS = [pytest.param(_wide_grid(n_t), id=str(n_t)) for n_t in BLOCK_N_T] + [
    pytest.param(BLOCK_GRIDS[name], id=name) for name in ("4 blocks", "row per block")
]


def _same(a, b) -> bool:
    # repr tells NaN from NaN and -0.0 from 0.0, as bitwise equality would
    return repr(a) == repr(b)


def _sweep_points(grid):
    """The ``(t, x)`` of each map call of a stencil sweep: per row block
    the centre, then t at h/2, x at h/4, t at h, x at h/2 and x at h,
    each a step up and then a step down."""
    h = grid.h
    levels = ((h / 2.0, True), (h / 4.0, False), (h, True), (h / 2.0, False), (h, False))
    for _, T, X in grid.row_blocks():
        yield T, X
        for step, along_t in levels:
            for d in (step, -step):
                yield (T + d, X) if along_t else (T, X + d)


def _logged(method, t, x):
    """A call as :class:`RecordingMap` logs it."""
    return method, t.shape, x.shape, hash(t.tobytes()), hash(x.tobytes())


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

    def test_grids_have_the_named_blocks(self):
        shapes = {
            name: [T.shape for _, T, _ in grid.row_blocks()]
            for name, grid in BLOCK_GRIDS.items()
        }
        wide, long_row = WIDE_N_X, fieldcheck._BLOCK_NODES + 1
        assert shapes == {
            "1 block": [(ROWS, wide)],
            "2 blocks": [(ROWS, wide), (1, wide)],
            "3 blocks": [(ROWS, wide), (ROWS, wide), (1, wide)],
            "4 blocks": [(ROWS, wide)] * 3 + [(2, wide)],
            "row per block": [(1, long_row)] * 4,
        }

    @pytest.mark.parametrize("grid", WHOLE_ARRAY_GRIDS)
    def test_reports_equal_the_whole_array_sweep(self, grid):
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

    @pytest.mark.parametrize("grid", WHOLE_ARRAY_GRIDS)
    def test_low_counterexample_equals_the_whole_array_sweep(self, grid):
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
            def conformal_components(self, t, x):
                nodes.append(np.size(t))
                return chart.conformal_components(t, x)

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

    def test_map_calls_follow_the_sequential_order(self, monkeypatch):
        grid = BLOCK_GRIDS["3 blocks"]
        chart = MarzkeWheelerMap(PerturbedInertial(0.3, 1.0))
        log = []
        for kind, run in _stencil_runs(*[RecordingMap(chart, log)] * 2).items():
            log.clear()
            run(grid)
            method = "conformal_components" if kind == "loggwave" else "components"
            assert log == [_logged(method, t, x) for t, x in _sweep_points(grid)], kind
            assert len(log) == 3 * 11

        real = fieldcheck.MarzkeWheelerMap
        log.clear()
        monkeypatch.setattr(fieldcheck, "MarzkeWheelerMap", lambda g: RecordingMap(real(g), log))
        _low(grid)
        # the two charts at every stencil point (the second at -x), then
        # the axis and the samplers
        assert log[:2 * 3 * 11] == [
            _logged("components", t, sx)
            for t, x in _sweep_points(grid) for sx in (x, -x)
        ]
        assert len(log) > 2 * 3 * 11

    def test_a_sweep_starts_no_thread(self):
        # The sweep runs on the calling thread alone, so a process that
        # swept a grid of three blocks still has only its main thread.
        src = os.path.dirname(os.path.dirname(fieldcheck.__file__))
        code = (
            "import threading\n"
            "from mwsync import GridSpec, MarzkeWheelerMap, PerturbedInertial, wave_residual\n"
            f"grid = GridSpec(-2.0, 2.0, -2.0, 2.0, {2 * ROWS + 1}, {WIDE_N_X})\n"
            "assert len(list(grid.row_blocks())) == 3\n"
            "wave_residual(MarzkeWheelerMap(PerturbedInertial(0.3, 1.0)), grid)\n"
            "print(threading.active_count())\n"
        )
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=60).stdout
        assert out.strip() == "1"

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

    def test_failure_in_block_three_stops_the_sweep(self, monkeypatch):
        grid = BLOCK_GRIDS["4 blocks"]
        block_three = grid.t_nodes[2 * ROWS]

        def fn(t, x):
            if np.any(t >= block_three - grid.h):
                raise EvaluationFailure(f"no value at t = {float(np.max(t))!r}")
            return t * t, x * t

        F = FunctionMap(fn, "fails in block three")
        events = []
        first = fieldcheck._first

        def recorded_first(centre, *points):
            events.append("start")
            try:
                return first(centre, *points)
            finally:
                events.append("end")

        monkeypatch.setattr(fieldcheck, "_first", recorded_first)
        with pytest.raises(EvaluationFailure) as info:
            holomorphy_residual(F, grid)
        # the centre of block three, whose last row is t_nodes[20]
        assert str(info.value) == "no value at t = 1.6363636363636367"
        assert float(grid.t_nodes[3 * ROWS - 1]) == 1.6363636363636367
        # the five point sets of blocks one and two were reduced, and
        # nothing after the exception
        assert events == ["start", "end"] * 10

    def test_floating_point_errors_raise_as_in_the_sequential_sweep(self):
        grid = BLOCK_GRIDS["3 blocks"]
        jump = grid.t_nodes[ROWS + 2]  # in block two
        calls = []

        def fn(t, x):
            # a step up and a step down from the jump differ by 2e308
            calls.append(1)
            return np.where(t > jump, 1e308, -1e308), x

        runs = _stencil_runs(FunctionMap(fn, "jumps by 2e308"), None)
        del runs["loggwave"]
        with np.errstate(all="raise"):
            for run in runs.values():
                calls.clear()
                assert _outcome(lambda: run(grid)) == (
                    FloatingPointError, "overflow encountered in subtract"
                )
                # block one, then block two's centre and its fine t set
                assert len(calls) == 11 + 3

    def test_underflowing_step_raises_before_any_evaluation(self):
        # the ulp at 1e16 is 2, so x + h/4 = x + 0.8 rounds back to x
        grid = GridSpec(0.0, 64.0, 1e16, 1e16 + 64.0, 3, 3, h=3.2)
        calls = []
        F = FunctionMap(lambda t, x: calls.append(1) or (t, x), "never called")
        for run in (holomorphy_residual, wave_residual, conformality_report):
            with pytest.raises(EvaluationFailure, match="underflows"):
                run(F, grid)
        assert calls == []


class TestDiagonalProfiles:
    def test_wave_residual_evaluates_positions_once_per_diagonal(self):
        # The chart reads its null profiles along the grid diagonals; the
        # stencil still hands it the same point sets in the same order.
        # The grid is the first two row blocks of a 1025 x 1025 grid on
        # [-2, 2]**2, where about 3% of the stencil's nodes round off
        # their diagonal (at 257 x 257, ~20%, too many to tabulate).
        grid = GridSpec(-2.0, -2.0 + 61 / 256, -2.0, 2.0, 62, 1025)
        nodes = grid.n_t * grid.n_x
        counted = CountingObserver(PerturbedInertial(0.1, 2.0))
        ref_counted = CountingObserver(PerturbedInertial(0.1, 2.0))
        new_log, ref_log = [], []
        new = wave_residual(RecordingMap(MarzkeWheelerMap(counted), new_log), grid)
        ref = wave_residual(RecordingMap(TwoCallChart(ref_counted), ref_log), grid)
        assert _same(new, ref)
        assert new_log == ref_log
        assert [method for method, *_ in new_log] == ["components"] * len(new_log)
        assert sum(math.prod(t_shape) for _, t_shape, *_ in new_log) == 11 * nodes
        assert ref_counted.points == 22 * nodes
        assert counted.points <= 22 * nodes / 10


# -- the chunked pair checks against the whole-array reference ------------


def _ref_chronological_pairs(rng, grid, n_pairs, tol):
    """The chronology sampler before it ran in chunks: each round's four
    whole columns drawn at once (:func:`_ref_events`), and its filter and
    time ordering on the whole round."""
    need_q = fieldcheck._decisive_q(grid)
    have = 0
    parts = []
    for _ in range(200):
        if have >= n_pairs:
            break
        ta, xa = _ref_events(rng, grid, 2 * n_pairs)
        tb, xb = _ref_events(rng, grid, 2 * n_pairs)
        q, band, _ = cone(tb - ta, xb - xa, tol)
        picked = np.flatnonzero((q >= need_q) & (q > band))[: n_pairs - have]
        ta, xa, tb, xb = (a.take(picked) for a in (ta, xa, tb, xb))
        lo_first = ta <= tb
        parts.append((
            np.where(lo_first, ta, tb), np.where(lo_first, xa, xb),
            np.where(lo_first, tb, ta), np.where(lo_first, xb, xa),
        ))
        have += picked.size
    if have < n_pairs:
        raise EvaluationFailure(
            "could not sample decisively chronological pairs in the box"
        )
    columns = zip(*parts) if parts else ([np.empty(0)],) * 4
    return tuple(np.concatenate(column) for column in columns)


def _ref_chronology_check(F, grid, n_pairs=1000, seed=0, tol=DEFAULT_NULL_BAND):
    """``chronology_check`` as one whole-batch pass over the pairs."""
    rng = np.random.default_rng(seed)
    t1, x1, t2, x2 = _ref_chronological_pairs(rng, grid, n_pairs, tol)
    o1t, o1x = F.components(t1, x1)
    o2t, o2x = F.components(t2, x2)
    _, band, margins = cone(o2t - o1t, o2x - o1x, tol)
    ok = margins > band
    min_margin = float(margins.min()) if margins.size else math.nan
    witness = None
    if not ok.all():
        i = int(np.argmax(~ok))
        witness = fieldcheck._witness(i, (t1, x1, t2, x2), (o1t, o1x, o2t, o2x), tol)
    return fieldcheck.ChronologyReport(int(t1.size), int(seed), min_margin, witness)


def _ref_causal_equivalence_check(F, grid, n_pairs=1000, seed=0, tol=DEFAULT_NULL_BAND):
    """``causal_equivalence_check`` as one whole-batch pass over the pairs."""
    rng = np.random.default_rng(seed)
    dec_q = fieldcheck._decisive_q(grid)
    t1, x1 = _ref_events(rng, grid, n_pairs)
    t2, x2 = _ref_events(rng, grid, n_pairs)
    q_in, band_in, m_in = cone(t2 - t1, x2 - x1, tol)
    in_cf = m_in >= dec_q
    in_decisive = (np.abs(q_in) >= dec_q) & (np.abs(q_in) > band_in)
    o1t, o1x = F.components(t1, x1)
    o2t, o2x = F.components(t2, x2)
    _, band, m_out = cone(o2t - o1t, o2x - o1x, tol)
    score = np.where(in_cf, m_out, -m_out)
    counted = in_decisive & (np.abs(m_out) > 10.0 * band)
    violating = counted & (score < 0.0)
    min_margin = float(score[counted].min()) if counted.any() else math.nan
    witness = None
    if violating.any():
        i = int(np.argmax(violating))
        witness = fieldcheck._witness(i, (t1, x1, t2, x2), (o1t, o1x, o2t, o2x), tol)
    return fieldcheck.ChronologyReport(
        int(np.count_nonzero(counted)), int(seed), min_margin, witness
    )


def _ref_automorphism_suite(m, grid, n_pairs=1000, seed=0, tol=DEFAULT_NULL_BAND):
    """``automorphism_suite`` with whole-batch checks and round trip."""
    lip = fieldcheck.lip_status(m.observer)
    if lip.verdict is not LipVerdict.VERIFIED:
        return fieldcheck.AutomorphismReport(AutomorphismOutcome.NOT_APPLICABLE, lip)
    s_forward, s_inverse, s_trip = fieldcheck._child_seeds(seed, 3)
    forward = _ref_chronology_check(m, grid, n_pairs, s_forward, tol)
    inverse = _ref_chronology_check(fieldcheck._InverseChart(m), grid, n_pairs, s_inverse, tol)
    t, x = _ref_events(np.random.default_rng(s_trip), grid, n_pairs)
    rt, rx = m.radar_inverse_components(*m.components(t, x))
    roundtrip_max = float(np.max(np.hypot(rt - t, rx - x)))
    center = E((grid.t_min + grid.t_max) / 2.0, (grid.x_min + grid.x_max) / 2.0)
    orientation = orientation_of(m, center, span=grid.diameter / 4.0)
    axis_max = fieldcheck._axis_max(m, grid, m.observer.position)
    ok = (
        forward.passed and inverse.passed
        and roundtrip_max <= 100.0 * m.root_tol * (1.0 + grid.diameter)
        and orientation is MapOrientation.PRESERVING and axis_max == 0.0
    )
    return fieldcheck.AutomorphismReport(
        AutomorphismOutcome.PASS if ok else AutomorphismOutcome.FAIL,
        lip, forward, inverse, roundtrip_max, orientation, axis_max,
    )


# Pairs per chunk in these tests, and pair counts of one chunk (its
# sampler rounds too), of whole chunks only and with a short last chunk.
CHUNK = 64
ONE_CHUNK, WHOLE_CHUNKS, SHORT_LAST = 30, 2 * CHUNK, 3 * CHUNK + 8
LATE = 2 * CHUNK + 3  # a pair in the third chunk


@pytest.fixture
def small_chunks(monkeypatch):
    monkeypatch.setattr(mwmap, "_BLOCK_NODES", CHUNK)
    monkeypatch.setattr(fieldcheck, "_BLOCK_NODES", CHUNK)


def _ref_pairs(n, seed):
    return _ref_chronological_pairs(np.random.default_rng(seed), BOX, n, DEFAULT_NULL_BAND)


def _ref_draws(n, seed):
    rng = np.random.default_rng(seed)
    return (*_ref_events(rng, BOX, n), *_ref_events(rng, BOX, n))


def _at_events(label, *changes):
    """The identity map, but ``f(t, x)`` at the events whose t is in
    ``ts``, for each ``(ts, f)`` of ``changes`` in turn."""

    def fn(t, x):
        for ts, f in changes:
            hit = np.isin(t, ts)
            t_out, x_out = f(t, x)
            t, x = np.where(hit, t_out, t), np.where(hit, x_out, x)
        return t, x

    return FunctionMap(fn, label)


def _null_at(label, pairs, future, past):
    """The identity map, but pair ``i`` of ``future`` (of ``past``) goes
    to the null pair (0, 0), (1, 1) (to (0, 0), (-1, -1)), whose margin
    is +0.0 (-0.0)."""
    t1, x1, t2, x2 = pairs

    def to(c):
        return lambda t, x: (np.full_like(t, c), np.full_like(x, c))

    return _at_events(
        label, (t1[future + past], to(0.0)), (t2[future], to(1.0)), (t2[past], to(-1.0))
    )


def _reversed(t, x):
    return t - 10.0, x  # sends an event of the box to the past of every other


def _nan(t, x):
    return t * math.nan, x


def _chronology_maps(n, seed):
    """Maps for the chronology check on ``n`` pairs of ``seed``: passing,
    failing at once, failing only at pair ``LATE`` (the last pair if
    there are fewer), NaN there after a witness a chunk before it or at
    the witness, and outputs exactly on the cone with margins of +0.0,
    of -0.0, of +0.0 in the first chunk and -0.0 after it and the other
    way round, or of both signs at a few pairs among positive margins
    (placed where a plain ``np.minimum`` fold picks the other zero)."""
    pairs = t1, x1, t2, x2 = _ref_pairs(n, seed)
    late = min(LATE, n - 1)
    before = [t2[max(late - CHUNK, 0)]]
    first, rest = list(range(min(CHUNK, n))), list(range(CHUNK, n))
    return {
        "wobble chart": MarzkeWheelerMap(PerturbedInertial(0.3, 1.0)),
        "boost": AffineLorentzMap(two_velocity(0.9)),
        "reversal": FunctionMap(lambda t, x: (-t, -x), "reversal"),
        "late witness": _at_events("late witness", ([t2[late]], _reversed)),
        "NaN after the witness": _at_events(
            "NaN after the witness", (before, _reversed), ([t2[late]], _nan)),
        "NaN at the witness": _at_events("NaN at the witness", ([t2[late]], _nan)),
        "+0.0": _null_at("+0.0", pairs, first + rest, []),
        "-0.0": _null_at("-0.0", pairs, [], first + rest),
        "+0.0 then -0.0": _null_at("+0.0 then -0.0", pairs, first, rest),
        "-0.0 then +0.0": _null_at("-0.0 then +0.0", pairs, rest, first),
        "scattered": _null_at("scattered", pairs, [1 % n, 66 % n], [64 % n, 127 % n]),
        "scattered too": _null_at("scattered too", pairs, [60 % n, 127 % n], [2 % n, 64 % n]),
    }


def _forward(t, x):
    return t + 100.0, x  # sends an event of the box to the future of every other


def _equivalence_maps(n, seed):
    """Maps for the equivalence check on ``n`` pairs of ``seed``: passing,
    failing at once, failing only at the first decisively spacelike pair
    from pair ``LATE`` on (from the middle if there are fewer), with NaN
    at the last pair after that witness, and NaN at that pair alone."""
    t1, x1, t2, x2 = _ref_draws(n, seed)
    q, band, _ = cone(t2 - t1, x2 - x1, DEFAULT_NULL_BAND)
    spacelike = (-q >= (0.1 * BOX.diameter) ** 2) & (-q > band)
    start = LATE if n > LATE else n // 2
    late = start + int(np.flatnonzero(spacelike[start:])[0])
    return late, {
        "wobble chart": MarzkeWheelerMap(PerturbedInertial(0.3, 1.0)),
        "time doubler": FunctionMap(lambda t, x: (2.0 * t, x), "time doubler"),
        "late witness": _at_events("late witness", ([t2[late]], _forward)),
        "NaN after the witness": _at_events(
            "NaN after the witness", ([t2[late]], _forward), ([t2[-1]], _nan)),
        "NaN": _at_events("NaN", ([t2[late]], _nan)),
    }


SIZES = pytest.mark.parametrize("n", [ONE_CHUNK, WHOLE_CHUNKS, SHORT_LAST])


@pytest.mark.usefixtures("small_chunks")
class TestChunkedPairChecks:
    """The pair checks, run ``CHUNK`` pairs at a time, against frozen
    copies of their whole-batch passes: the reports must agree by
    ``repr``, so NaN and the sign of zero count."""

    def test_chunks_cut_a_batch_in_order(self):
        assert [(c.start, c.stop) for c in mwmap._chunks(SHORT_LAST)] == [
            (0, 64), (64, 128), (128, 192), (192, 256),
        ]
        assert list(mwmap._chunks(0)) == []

    @SIZES
    def test_chronology_check_equals_the_whole_batch(self, n):
        for name, F in _chronology_maps(n, 5).items():
            new = _outcome(lambda: chronology_check(F, BOX, n, 5))
            assert _same(new, _outcome(lambda: _ref_chronology_check(F, BOX, n, 5))), name

    @SIZES
    def test_the_cases_are_what_they_are_named(self, n):
        t2 = _ref_pairs(n, 5)[2]
        late = min(LATE, n - 1)
        reports = {
            name: _outcome(lambda: chronology_check(F, BOX, n, 5))
            for name, F in _chronology_maps(n, 5).items()
        }
        assert reports["wobble chart"].passed and reports["boost"].passed
        assert reports["late witness"].witness.z2.t == t2[late]
        assert late // CHUNK == {ONE_CHUNK: 0, WHOLE_CHUNKS: 1, SHORT_LAST: 2}[n]
        nan_late = reports["NaN after the witness"]
        assert math.isnan(nan_late.min_margin)
        assert nan_late.witness.z2.t == t2[max(late - CHUNK, 0)]
        assert reports["NaN at the witness"][0] is EvaluationFailure
        assert repr(reports["+0.0"].min_margin) == "0.0"
        assert repr(reports["-0.0"].min_margin) == "-0.0"
        for name in ("+0.0", "-0.0", "+0.0 then -0.0", "-0.0 then +0.0", "scattered",
                     "scattered too"):
            assert reports[name].min_margin == 0.0
            assert reports[name].witness.relation_out in (
                CausalRelation.NULL_FUTURE, CausalRelation.NULL_PAST
            )

    def test_a_check_spans_several_chunks_and_rounds(self, monkeypatch):
        # The flat box keeps few pairs per round: each check below takes
        # several rounds of several chunks, and F sees several blocks.
        flat = GridSpec(-0.5, 0.5, -1.0, 1.0)
        firsts = []
        real = fieldcheck._draws
        monkeypatch.setattr(fieldcheck, "_draws", lambda rng, grid, n, first, columns=4: (
            firsts.append(first) or real(rng, grid, n, first, columns)))
        for F in (MarzkeWheelerMap(PerturbedInertial(0.3, 1.0)), AffineLorentzMap(two_velocity(0.9)),
                  FunctionMap(lambda t, x: (-t, -x), "reversal")):
            for n in (WHOLE_CHUNKS, SHORT_LAST):
                firsts.clear()
                log = []
                new = _outcome(lambda: chronology_check(RecordingMap(F, log), flat, n, 5))
                assert _same(new, _outcome(lambda: _ref_chronology_check(F, flat, n, 5)))
                assert len(firsts) >= 2 and firsts == list(range(0, 4 * len(firsts), 4))
                sizes = [math.prod(t_shape) for _, t_shape, *_ in log]
                assert sizes == [CHUNK] * (2 * (n // CHUNK)) + [n % CHUNK] * (2 * (n % CHUNK > 0))

    @SIZES
    def test_equivalence_check_equals_the_whole_batch(self, n):
        late, maps = _equivalence_maps(n, 9)
        t2 = _ref_draws(n, 9)[2]
        for name, F in maps.items():
            new = _outcome(lambda: causal_equivalence_check(F, BOX, n, 9))
            assert _same(new, _outcome(lambda: _ref_causal_equivalence_check(F, BOX, n, 9))), name
        assert causal_equivalence_check(maps["late witness"], BOX, n, 9).witness.z2.t == t2[late]
        assert late // CHUNK == {ONE_CHUNK: 0, WHOLE_CHUNKS: 1, SHORT_LAST: 2}[n]

    @SIZES
    def test_automorphism_suite_equals_the_whole_batch(self, n):
        for obs in (PerturbedInertial(0.3, 1.0), PerturbedInertial(0.1, 2.0), Inertial(0.5)):
            m = MarzkeWheelerMap(obs)
            assert _same(automorphism_suite(m, BOX, n, 3), _ref_automorphism_suite(m, BOX, n, 3))

    @SIZES
    def test_a_nan_in_the_round_trip_wins(self, n):
        # The radar inverse reads NaN at the image of round-trip event
        # LATE (the last one if there are fewer), and only there.
        t, x = _ref_events(
            np.random.default_rng(fieldcheck._child_seeds(3, 3)[2]), BOX, n)
        late = min(LATE, n - 1)
        wobble = PerturbedInertial(0.3, 1.0)
        (bad,), _ = MarzkeWheelerMap(wobble).components(t[late:late + 1], x[late:late + 1])

        class NaNInverse(MarzkeWheelerMap):
            def radar_inverse_components(self, t, x):
                s, xr = super().radar_inverse_components(t, x)
                return np.where(t == bad, math.nan, s), xr

        m = NaNInverse(wobble)
        rep = automorphism_suite(m, BOX, n, 3)
        assert math.isnan(rep.roundtrip_max) and rep.outcome is AutomorphismOutcome.FAIL
        assert rep.forward.passed and rep.inverse.passed
        assert _same(rep, _ref_automorphism_suite(m, BOX, n, 3))

    @SIZES
    def test_low_counterexample_equals_the_whole_batch(self, n, monkeypatch):
        g1, g2 = Inertial(0.0), Inertial(0.5)
        new = low_counterexample(g1, g2, BOX, 4, n)
        monkeypatch.setattr(fieldcheck, "chronology_check", _ref_chronology_check)
        monkeypatch.setattr(fieldcheck, "causal_equivalence_check", _ref_causal_equivalence_check)
        assert _same(new, low_counterexample(g1, g2, BOX, 4, n))


# The tracemalloc peaks of the pair checks at 1e5 pairs, run first in a
# process, with numpy 2.4.6: 8.58 MB for the suite and 5.53 MB for the
# equivalence check (12.09 and 7.67 MB when they drew and kept whole
# columns, 23.17 and 13.90 MB when they also mapped whole batches), and
# 8.59 MB for the suite on the chart of a sum of sinusoids, which inverts
# through the sum's fixed steps (12 MB was the ceiling of a chart that
# root-found).  The ceilings leave 1.0-1.4 MB of room: a second 1 MiB
# block of kept pairs, or a whole-batch column of the round trip or the
# samplers (0.8-1.6 MB each) beside a chunk's temporaries, breaks them.
MEMORY_CEILINGS = {"suite": 10e6, "equivalence": 6.5e6, "sum suite": 12e6}


def test_pair_checks_at_scale_stay_under_a_memory_ceiling():
    grid = GridSpec(-2.0, 2.0, -2.0, 2.0)
    m = MarzkeWheelerMap(PerturbedInertial(0.1, 2.0))
    # Sinusoids of one frequency: the sum's profile inverts in fixed steps.
    pair = MarzkeWheelerMap(PerturbedInertial(0.1, 2.0) + PerturbedInertial(0.05, 2.0))
    runs = {
        "suite": lambda: automorphism_suite(m, grid, 100_000, 0).outcome,
        "equivalence": lambda: causal_equivalence_check(m, grid, 100_000, 0).passed,
        "sum suite": lambda: automorphism_suite(pair, grid, 100_000, 0).outcome,
    }
    for name, run in runs.items():
        tracemalloc.start()
        try:
            result = run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result in (AutomorphismOutcome.PASS, True)
        assert peak < MEMORY_CEILINGS[name], (name, peak)


def _peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_pair_check_memory_does_not_grow_with_n_pairs():
    # Draws, kept pairs and map calls all come in chunks, so four times
    # the pairs may cost no more than 2 MiB more at the peak.
    grid = GridSpec(-2.0, 2.0, -2.0, 2.0)
    m = MarzkeWheelerMap(Inertial(0.5))
    for check in (chronology_check, causal_equivalence_check, automorphism_suite):
        peaks = [_peak(lambda: check(m, grid, n, 0)) for n in (100_000, 400_000)]
        assert peaks[1] - peaks[0] < 2 * 2 ** 20, (check.__name__, peaks)
