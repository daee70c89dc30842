"""Extended-precision references that accuracy tests measure against.

They compute in ``np.longdouble``.  Where that type has a 63-bit mantissa
(x87 extended precision), its rounding error lies far below a float64
ulp; where it is only float64 the references prove nothing, and the tests
that use them skip (:data:`EXTENDED`).
"""

import numpy as np

EXTENDED = np.finfo(np.longdouble).nmant >= 63
NOT_EXTENDED = "np.longdouble has fewer than 63 mantissa bits here"


def sinusoid_inverse(alpha, beta, a, w, y, start, rounds=6):
    """The root of ``alpha*s + beta + a*sin(w*s) = y`` for float64 ``y``,
    by Newton's method in ``np.longdouble`` from ``start``."""
    ld = np.longdouble
    alpha, beta, a, w = ld(alpha), ld(beta), ld(a), ld(w)
    y = np.asarray(y, dtype=ld)
    s = np.asarray(start, dtype=ld)
    for _ in range(rounds):
        u = w * s
        s = s - (alpha * s + beta + a * np.sin(u) - y) / (alpha + a * w * np.cos(u))
    return s


def ulp_errors(got, ref):
    """``|got - ref|`` in units of the float64 spacing at ``ref``."""
    spacing = np.spacing(np.abs(ref.astype(float))).astype(np.longdouble)
    return (np.abs(got.astype(np.longdouble) - ref) / spacing).astype(float)


def accuracy(got, ref):
    """Share of ``got`` equal to ``ref`` rounded to float64, and the worst
    error in ulps."""
    return float(np.mean(got == ref.astype(float))), float(ulp_errors(got, ref).max())
