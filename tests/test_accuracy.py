"""Accuracy of the radar inverse against an extended-precision reference."""

import numpy as np
import pytest

from mwsync import PerturbedInertial
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


# Per |a*w|, w and sign: the share of correctly rounded results and the
# worst error in ulps of the safeguarded Newton iteration (rtsafe) that
# inverted these profiles until the fixed steps replaced it, on the same
# samples, against the reference started from its own results.
RTSAFE = {
    (0.2, 2.0, 1.0): (0.8528, 1.44970703125),
    (0.2, 2.0, -1.0): (0.8607, 1.24951171875),
    (0.2, 1.3, 1.0): (0.83285, 1.677734375),
    (0.2, 1.3, -1.0): (0.8761, 1.18603515625),
    (0.6, 2.0, 1.0): (0.76065, 1.962890625),
    (0.6, 2.0, -1.0): (0.7933, 1.95751953125),
    (0.6, 1.3, 1.0): (0.6887, 2.75830078125),
    (0.6, 1.3, -1.0): (0.81135, 3.0751953125),
    (0.9, 2.0, 1.0): (0.7439, 4.99267578125),
    (0.9, 2.0, -1.0): (0.7687, 8.384765625),
    (0.9, 1.3, 1.0): (0.6688, 7.18798828125),
    (0.9, 1.3, -1.0): (0.7535, 12.0810546875),
    (0.99, 2.0, 1.0): (0.74135, 46.142578125),
    (0.99, 2.0, -1.0): (0.775, 92.37255859375),
    (0.99, 1.3, 1.0): (0.677, 38.20458984375),
    (0.99, 1.3, -1.0): (0.74935, 77.962890625),
    (0.999, 2.0, 1.0): (0.6489, 496.48828125),
    (0.999, 2.0, -1.0): (0.60835, 814.5537109375),
    (0.999, 1.3, 1.0): (0.4492, 769.89111328125),
    (0.999, 1.3, -1.0): (0.6933, 1692.814453125),
    (0.9999, 2.0, 1.0): (0.64955, 4880.26025390625),
    (0.9999, 2.0, -1.0): (0.608, 7570.923828125),
    (0.9999, 1.3, 1.0): (0.4604, 6649.39453125),
    (0.9999, 1.3, -1.0): (0.69215, 13721.45751953125),
    (0.999999, 2.0, 1.0): (0.6546, 425778.861328125),
    (0.999999, 2.0, -1.0): (0.6048, 443669.1162109375),
    (0.999999, 1.3, 1.0): (0.44885, 343158.400390625),
    (0.999999, 1.3, -1.0): (0.69355, 587790.1567382812),
}


def _at_least_as_accurate_as_rtsafe(peak, w, sign, targets):
    # Its share of correctly rounded results is at least rtsafe's and its
    # worst error at most rtsafe's.
    obs = PerturbedInertial(peak / w, w)
    fixed = obs.null_inverse(sign, targets)
    assert not np.isnan(fixed).any()
    ref = sinusoid_inverse(1.0, 0.0, sign * peak / w, w, targets, fixed)
    share, worst = accuracy(fixed, ref)
    share_rtsafe, worst_rtsafe = RTSAFE[peak, w, sign]
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
