"""Adaptive Simpson quadrature with an explicit evaluation budget.

Hand-rolled rather than delegated so that the error control, the eval
count, and the failure mode are part of this package's contract: the
proper-time results carry the estimator's own error bound, and hitting
the depth limit or the evaluation budget raises instead of silently
returning a best effort.

The bisection runs breadth first: every refinement level hands all of
its new nodes to the integrand in one array call, so an integrand that
is a chain of numpy operations costs one call per level rather than
one per node.  Panel arithmetic, acceptance test and the pairwise
summation up the bisection tree are those of the classic depth-first
recursion, so value, error estimate and evaluation count are bitwise
the recursion's.  When several nodes fail, the error raised can
differ from the recursion's, since a whole level is evaluated before
any of its panels is refined.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import QuadratureLimit

__all__ = ["QuadratureResult", "adaptive_simpson"]

# About a million integrand values, read at call time: one level holds
# at most 2**19 panels, and an integrand that never converges peaks near
# 30 MB of arrays before the budget stops it.
MAX_EVALS = 2**20

# Bisections a panel may take before it must agree, read at call time.
MAX_DEPTH = 50


@dataclass(frozen=True)
class QuadratureResult:
    """Integral value with the estimator's accumulated error bound."""

    value: float
    error_estimate: float
    n_evals: int


def _simpson(fa, fm, fb, h):
    return (h / 6.0) * (fa + 4.0 * fm + fb)


def _pairs(left, right):
    # Interleave so that each left/right pair stays adjacent, in order.
    return np.stack((left, right), axis=1).ravel()


def adaptive_simpson(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    tol: float = 1e-10,
) -> QuadratureResult:
    """Integrate ``f`` over ``[a, b]`` to absolute tolerance ``tol``.

    Classic bisecting Simpson with Richardson extrapolation: a panel is
    accepted when its two-half refinement agrees with the single-panel
    value to ``15 * (local tolerance)``, and the extrapolated value
    ``S2 + (S2 - S1)/15`` is used.  The local tolerance halves with the
    panel so the accumulated error stays below ``tol``.

    ``f`` maps a 1-d array of nodes to an array of the same shape.  It
    is called once for the three starting nodes and once per refinement
    level with the two new nodes of every pending panel, in increasing
    order, so at most ``MAX_DEPTH + 2`` times.  A successful result is
    bitwise that of the depth-first recursion: accepted panels are
    summed back up the bisection tree as left child plus right child.
    A failing one may raise a different error than the recursion would
    when several nodes fail, because the whole level is evaluated first.

    Raises
    ------
    QuadratureLimit
        If any panel still disagrees at ``MAX_DEPTH`` bisections, if
        the next level would take the evaluation count past
        ``MAX_EVALS``, or at once if the integrand is NaN at a node: a
        panel with a NaN node keeps it through every bisection and can
        never be accepted.
    """
    a = float(a)
    b = float(b)
    if not b > a:
        if b == a:
            return QuadratureResult(0.0, 0.0, 0)
        raise ValueError(f"need a < b, got a={a!r}, b={b!r}")
    tol_here = float(tol)

    def eval_f(nodes):
        values = np.asarray(f(nodes), dtype=float)
        if values.shape != nodes.shape:
            raise ValueError(
                f"integrand returned shape {values.shape} for nodes of "
                f"shape {nodes.shape}"
            )
        if np.isnan(values).any():
            i = int(np.argmax(np.isnan(values)))
            raise QuadratureLimit(
                f"integrand is NaN at {float(nodes[i])!r}; no panel "
                f"containing that node can converge"
            )
        return values

    def budget(n: int):
        if evals + n > MAX_EVALS:
            raise QuadratureLimit(
                f"{n} more evaluations would exceed the budget of "
                f"{MAX_EVALS} after {evals}"
            )

    evals = 0
    budget(3)
    lo = np.array([a])
    hi = np.array([b])
    flo, fmid, fhi = eval_f(np.array([a, 0.5 * (a + b), b]))[:, None]
    evals = 3
    whole = _simpson(flo, fmid, fhi, hi - lo)
    levels = []
    depth = 0
    while True:
        n = lo.size
        budget(2 * n)
        mid = 0.5 * (lo + hi)
        lmid = 0.5 * (lo + mid)
        rmid = 0.5 * (mid + hi)
        fl, fr = eval_f(_pairs(lmid, rmid)).reshape(n, 2).T
        evals += 2 * n
        left = _simpson(flo, fl, fmid, mid - lo)
        right = _simpson(fmid, fr, fhi, hi - mid)
        delta = (left + right) - whole
        err = np.abs(delta)
        done = err <= 15.0 * tol_here
        levels.append((done, left + right + delta / 15.0, err / 15.0))
        if done.all():
            break
        more = ~done
        if depth >= MAX_DEPTH:
            i = int(np.argmax(more))
            raise QuadratureLimit(
                f"panel [{float(lo[i])!r}, {float(hi[i])!r}] still disagrees "
                f"by {float(err[i])!r} at depth {MAX_DEPTH}"
            )
        lo, hi = _pairs(lo[more], mid[more]), _pairs(mid[more], hi[more])
        flo, fmid, fhi = (
            _pairs(flo[more], fmid[more]),
            _pairs(fl[more], fr[more]),
            _pairs(fmid[more], fhi[more]),
        )
        whole = _pairs(left[more], right[more])
        tol_here = 0.5 * tol_here
        depth += 1

    value, error = levels.pop()[1:]
    while levels:
        done, level_value, level_error = levels.pop()
        level_value[~done] = value[0::2] + value[1::2]
        level_error[~done] = error[0::2] + error[1::2]
        value, error = level_value, level_error
    return QuadratureResult(float(value[0]), float(error[0]), evals)
