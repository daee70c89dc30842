"""Accuracy of the radar inverse against an extended-precision reference."""

import numpy as np
import pytest

from mwsync import MarzkeWheelerMap, PerturbedInertial
from reference import EXTENDED, NOT_EXTENDED, accuracy, sinusoid_inverse, ulp_errors

pytestmark = pytest.mark.skipif(not EXTENDED, reason=NOT_EXTENDED)


def test_the_reference_recovers_a_root_known_in_extended_precision():
    # Targets formed in extended precision from float64 parameters, and a
    # start off by 1e-9: Newton must land back on the parameters, up to
    # the rounding of the targets (2**-64 relative) over the least slope.
    ld = np.longdouble
    s = np.linspace(-4.0, 4.0, 101)
    a, w = 0.45, 2.0
    y = s.astype(ld) + ld(a) * np.sin(ld(w) * s.astype(ld))
    got = sinusoid_inverse(1.0, 0.0, a, w, y, s + 1e-9)
    assert np.all(ulp_errors(s, got) <= 0.01)


def _at_least_as_accurate_as_rtsafe(peak, w, sign, targets):
    # Per sign, |a*w| and w: its share of correctly rounded results is at
    # least rtsafe's and its worst error at most rtsafe's.
    obs = PerturbedInertial(peak / w, w)
    fixed = obs.null_inverse(sign, targets)
    assert not np.isnan(fixed).any()
    rtsafe = MarzkeWheelerMap(obs)._root_find(sign, targets)
    ref = sinusoid_inverse(1.0, 0.0, sign * peak / w, w, targets, rtsafe)
    share, worst = accuracy(fixed, ref)
    share_rtsafe, worst_rtsafe = accuracy(rtsafe, ref)
    assert share >= share_rtsafe
    assert worst <= worst_rtsafe


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("w", [2.0, 1.3])
@pytest.mark.parametrize("peak", [0.2, 0.6, 0.9, 0.99])
def test_the_fixed_step_inverse_is_at_least_as_accurate_as_rtsafe(peak, w, sign):
    # Near a cusp at |a*w| = 0.99 the reference itself is good to ~0.04 ulp.
    targets = np.random.default_rng(27).uniform(-4.0, 4.0, 20_000)
    _at_least_as_accurate_as_rtsafe(peak, w, sign, targets)


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("w", [2.0, 1.3])
@pytest.mark.parametrize("peak", [0.999, 0.9999, 1.0 - 1e-6])
def test_near_the_cusps_the_fixed_step_inverse_is_at_least_as_accurate_as_rtsafe(peak, w, sign):
    # Targets drawn as the profile of uniform parameters: uniform targets
    # reach the cusps only 2 to 5 times in 2*10**5.  Of these 2*10**4, up
    # to 98 per case halve their table cell at 0.999 and 266 to 510 at
    # 0.9999 and 1 - 1e-6.
    obs = PerturbedInertial(peak / w, w)
    s = np.random.default_rng(28).uniform(-4.0, 4.0, 20_000)
    targets = obs.null_plus(s) if sign > 0 else obs.null_minus(s)
    _at_least_as_accurate_as_rtsafe(peak, w, sign, targets)
