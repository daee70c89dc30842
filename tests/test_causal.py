"""Causal classification."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mwsync import (
    DEFAULT_NULL_BAND,
    CausalRelation,
    SplitComplex,
    classify,
    cone,
)

E = SplitComplex


def test_equal_requires_bit_identity():
    z = E(0.1, 0.2)
    assert classify(z, E(0.1, 0.2)) is CausalRelation.EQUAL
    # a subtolerance offset is NOT equal; it lands in the null band
    assert classify(z, E(0.1, 0.2 + 1e-15)) is not CausalRelation.EQUAL


@pytest.mark.parametrize(
    "dt, dx, expected",
    [
        (1.0, 0.0, CausalRelation.CHRON_FUTURE),
        (-1.0, 0.0, CausalRelation.CHRON_PAST),
        (2.0, 1.0, CausalRelation.CHRON_FUTURE),
        (0.0, 1.0, CausalRelation.SPACELIKE),
        (0.5, -2.0, CausalRelation.SPACELIKE),
        (1.0, 1.0, CausalRelation.NULL_FUTURE),
        (-1.0, 1.0, CausalRelation.NULL_PAST),
        (1.0, -1.0, CausalRelation.NULL_FUTURE),
    ],
)
def test_classify_cases(dt, dx, expected):
    base = E(0.25, -0.5)
    assert classify(base, base + E(dt, dx)) is expected


@pytest.mark.parametrize(
    "x, y, tol, expected",
    [
        # q == band == 1.0: the edge of the band is null
        (E(0.0, 0.0), E(1.0, 0.0), 0.5, CausalRelation.NULL_FUTURE),
        # dt == 0 inside the band reads past whichever event comes first
        (E(0.0, 0.0), E(0.0, 1e-6), DEFAULT_NULL_BAND, CausalRelation.NULL_PAST),
        (E(0.0, 1e-6), E(0.0, 0.0), DEFAULT_NULL_BAND, CausalRelation.NULL_PAST),
    ],
)
def test_classify_band_boundaries(x, y, tol, expected):
    assert classify(x, y, tol) is expected


def test_null_band_scales_with_separation():
    base = E(0.0, 0.0)
    tol = 1e-9
    # near-null chord barely inside the band
    dt, dx = 1.0, 1.0 - 1e-10
    assert classify(base, E(dt, dx), tol) is CausalRelation.NULL_FUTURE
    # same shape far from the origin: band grows like the squared size
    big = 1e3
    rel = classify(E(0.0, 0.0), E(big, big * (1.0 - 1e-10)), tol)
    assert rel is CausalRelation.NULL_FUTURE
    # a clearly timelike chord never falls in the band
    assert classify(base, E(1.0, 0.5), tol) is CausalRelation.CHRON_FUTURE


@st.composite
def event_pairs(draw, tol):
    """Pairs of events: free, coincident, or built on the null band edge."""
    coords = st.floats(-1e3, 1e3)
    x = E(draw(coords), draw(coords))
    kind = draw(st.sampled_from(["free", "equal", "edge"]))
    if kind == "equal":
        return x, x
    dt = draw(st.floats(1e-3, 1e3)) * draw(st.sampled_from([-1.0, 1.0]))
    if kind == "free":
        dx = draw(coords)
    else:
        # dt**2 - dx**2 = r * (1 + dt**2 + dx**2) with r = +-k * tol puts
        # the interval at k null bands inside or outside the cone.
        r = draw(st.sampled_from([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])) * tol
        dx = math.sqrt(max(0.0, (dt * dt * (1.0 - r) - r) / (1.0 + r)))
        dx *= draw(st.sampled_from([-1.0, 1.0]))
    return x, E(x.t + dt, x.x + dx)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data(), st.sampled_from([1e-9, 1e-6, 1e-3]))
def test_classify_reads_the_vectorized_cone_test(data, tol):
    pairs = data.draw(st.lists(event_pairs(tol), min_size=1, max_size=16))
    dt = np.array([y.t - x.t for x, y in pairs])
    dx = np.array([y.x - x.x for x, y in pairs])
    q, band, margin = cone(dt, dx, tol)
    for i, (x, y) in enumerate(pairs):
        rel = classify(x, y, tol)
        if dt[i] == 0.0 and dx[i] == 0.0:
            assert rel is CausalRelation.EQUAL
            continue
        null = {CausalRelation.NULL_FUTURE, CausalRelation.NULL_PAST}
        chron = {CausalRelation.CHRON_FUTURE, CausalRelation.CHRON_PAST}
        assert (rel in null) == (abs(q[i]) <= band[i])
        assert (rel in chron) == (q[i] > band[i])
        assert (rel is CausalRelation.SPACELIKE) == (q[i] < -band[i])
        # the samplers' verdict: chronological future iff margin > band
        assert (rel is CausalRelation.CHRON_FUTURE) == (margin[i] > band[i])

