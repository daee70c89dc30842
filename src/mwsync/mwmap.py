"""Radar synchronization maps of timelike observers.

Given a worldline ``gamma``, the synchronization map sends a chart
point ``z = s + x*J`` to the event reached by a radar signal emitted at
``gamma(s - x)`` and received back at ``gamma(s + x)``:

    Omega(z) = (gamma(s+x) + gamma(s-x))/2 + ((gamma(s+x) - gamma(s-x))/2)*J

The same event also arises purely geometrically as the intersection of
the light ray leaving the emission event with the one arriving at the
reception event; :meth:`MarzkeWheelerMap.eval_geometric` computes that
route independently so the two can be checked against each other.

In null coordinates the map splits into two one-dimensional strictly
increasing profiles, ``out_plus = P(s + x)`` and ``out_minus =
M(s - x)`` with ``P = t + x`` and ``M = t - x`` along the worldline.
On an equally spaced grid ``s + x`` is constant along the
anti-diagonals and ``s - x`` along the diagonals, so on a large enough
block of R x C nodes the chart, its derivative and its conformal factor
evaluate the observer on one line of R + C - 1 values, and again only
at the nodes whose null coordinate rounds off its diagonal's.
Inverting the chart reduces to inverting ``P`` and ``M``, which the
observer does (:meth:`~mwsync.observers.Observer.null_inverse`): in closed
form, or for profiles ``alpha*s + beta + a*sin(w*s)`` as Kepler's equation
in a fixed number of steps.  A chart whose observer has no null inverse
(sums whose sinusoids differ in frequency, sums that hold a Rindler
observer or a polygon) evaluates but does not invert.
"""

from __future__ import annotations

import math

import numpy as np

from .algebra import SplitComplex
from .errors import (
    DegenerateFactor,
    EvaluationFailure,
    NoRadarCoordinate,
    NotDifferentiable,
)
from .observers import Observer, _scalar, _span_text

__all__ = ["MarzkeWheelerMap"]

# Elements per chunk of batched work: 2**15 float64 values, 256 kB per
# temporary, so the temporaries of one chunk stay near the L2 cache.  The
# pair checks of :mod:`mwsync.fieldcheck` take chunks of pairs and its
# grid sweeps blocks of rows of this size.
_BLOCK_NODES = 2 ** 15


def _chunks(n):
    """Slices that cut ``range(n)`` into chunks of ``_BLOCK_NODES``, in order."""
    return (slice(start, start + _BLOCK_NODES) for start in range(0, n, _BLOCK_NODES))


# Reading a null coordinate along its diagonals (:func:`_along_diagonals`)
# pays on blocks of at least _TABULATED_NODES nodes with at most a share
# _OFF_DIAGONAL of them off their diagonal, for every observer kind.
# Measured in process on a 2-vCPU Xeon VM (thread CPU against evaluating
# every node; Inertial, Rindler and PerturbedInertial in turn): on exact
# grids 1.7-2.9x, 1.0-1.7x and 0.4-0.9x the time at 65 x 65 to 113 x 113
# nodes, but 0.5-0.8x, 0.4-0.7x and 0.2-0.3x from 129 x 129 nodes on,
# where the temporaries of whole evaluation pass 2**14 values and its
# time per node rises 1.6-2.2x; on fieldcheck's stencil blocks of
# 513 x 513 and 1025 x 1025 grids 0.4-1.0x, 0.3-1.0x and 0.2-0.7x with
# up to 6% of their nodes off their diagonal, 0.8-1.1x, 0.7-1.1x and
# 0.5-0.9x at 6-10%, and 1.2-4.8x, 1.3-3.8x and 0.8-2.5x at 32-70%.
_TABULATED_NODES = 2 ** 14
_OFF_DIAGONAL = 0.1


def _along_diagonals(fn, u):
    """``fn(u)`` for elementwise ``fn`` from one call per diagonal of ``u``,
    and the mask of the nodes where that reading is wrong.

    A 2-D ``u`` is read along its anti-diagonals (as ``t + x`` on an
    equally spaced grid) or its diagonals (as ``t - x``), whichever more
    nodes of its second row agree with its first along.  ``fn`` runs on
    the contiguous line of the first row and the last column (the first
    column reversed and the first row for diagonals), and its results
    come back as views of shape ``u.shape`` with contiguous rows.  The
    mask marks the nodes whose bits differ from their diagonal's value,
    so ``-0.0`` never passes for ``0.0``; it is False where there are
    none.  A ``u``
    below 2-D, of one row or column, of fewer than ``_TABULATED_NODES``
    nodes, or with more than a share ``_OFF_DIAGONAL`` of its middle row
    or of all its nodes off their diagonal, gets ``fn(u)`` and False.
    """
    if (
        np.ndim(u) != 2
        or min(u.shape) < 2
        or u.size < _TABULATED_NODES
        or u.dtype != np.float64
    ):
        return fn(u), False
    bits = u.view(np.int64)
    if np.count_nonzero(bits[1, 1:] == bits[0, :-1]) > np.count_nonzero(
        bits[1, :-1] == bits[0, 1:]
    ):
        line, start, sign = np.concatenate((u[::-1, 0], u[0, 1:])), u.shape[0] - 1, -1
    else:
        line, start, sign = np.concatenate((u[0], u[1:, -1])), 0, 1

    def spread(a):
        a = np.ascontiguousarray(a)
        step = a.itemsize
        return np.ndarray(u.shape, a.dtype, a, start * step, (sign * step, step))

    # Rounding moves more nodes off their diagonal the farther they lie
    # from the first row; the middle row tells the share of the block.
    diagonal = spread(line.view(np.int64))
    mid = u.shape[0] // 2
    if np.count_nonzero(diagonal[mid] != bits[mid]) > _OFF_DIAGONAL * u.shape[1]:
        return fn(u), False
    odd = diagonal != bits
    n_odd = np.count_nonzero(odd)
    if n_odd > _OFF_DIAGONAL * u.size:
        return fn(u), False
    return [spread(a) for a in fn(line)], odd if n_odd else False


def _null_profiles(fn, t, x, combine):
    """``combine(*fn(t + x), *fn(t - x))``, with ``fn`` read along the
    diagonals of each null coordinate (:func:`_along_diagonals`).

    ``combine`` must be elementwise and return new arrays.  At the nodes
    off their diagonal in either coordinate it is evaluated again, on
    ``fn`` of their own null coordinates, and written in.
    """
    p, p_odd = _along_diagonals(fn, t + x)
    m, m_odd = _along_diagonals(fn, t - x)
    out = combine(*p, *m)
    odd = np.flatnonzero(p_odd | m_odd)
    if odd.size:
        t, x = (np.broadcast_to(a, out[0].shape).flat[odd] for a in (t, x))
        fixed = combine(*fn(t + x), *fn(t - x))
        for o, f in zip(out, fixed):
            o.flat[odd] = f
    return out


# The chart, its derivative and its conformal factor from the null
# profiles: the expressions in the comments, step by step, with the
# temporaries updated in place rather than allocated for each operation.


def _halved(a):
    a *= 0.5
    return a


def _chart(tp, xp, tm, xm):
    # (tp + tm) * 0.5 + (xp - xm) * 0.5, (xp + xm) * 0.5 + (tp - tm) * 0.5
    t_out = _halved(tp + tm)
    t_out += _halved(xp - xm)
    x_out = _halved(xp + xm)
    x_out += _halved(tp - tm)
    return t_out, x_out


def _derivative(vt_p, vx_p, vt_m, vx_m):
    # (d_plus + d_minus) * 0.5, (d_plus - d_minus) * 0.5
    d_plus = vt_p + vx_p
    d_minus = vt_m - vx_m
    return _halved(d_plus + d_minus), _halved(d_plus - d_minus)


def _factor(vt_p, vx_p, vt_m, vx_m):
    return ((vt_p + vx_p) * (vt_m - vx_m),)


class MarzkeWheelerMap:
    """Synchronization chart of one observer, with inverse and derivative.

    Parameters
    ----------
    observer : Observer
        Future-directed timelike worldline carrying the chart.
    root_tol : float
        Absolute parameter tolerance the radar inverse is held to by the
        automorphism suite's round trip; the inverse itself does not read it.
    """

    def __init__(self, observer: Observer, root_tol: float = 1e-12):
        self.observer = observer
        self.root_tol = float(root_tol)

    def __call__(self, z: SplitComplex) -> SplitComplex:
        """Scalar reading of :meth:`components`."""
        return _scalar(self, "value", f"z = ({z.t!r}, {z.x!r})",
                       self.components, np.asarray(z.t), np.asarray(z.x))

    def components(self, t, x):
        """The chart on arrays of chart coordinates ``(s, x)``.

        On a large enough grid block the observer's position is evaluated
        once per diagonal (:func:`_null_profiles`), which relies on it
        being elementwise; the result is bitwise that of evaluating it at
        every node.
        """
        return _null_profiles(self.observer.position, t, x, _chart)

    def eval_geometric(self, z: SplitComplex) -> SplitComplex:
        """Evaluate the chart by intersecting the two radar rays.

        Independent of the algebraic formula: the ray through the
        reception event that travels toward decreasing x is the level
        set ``t + x = left``, the ray through the emission event that
        travels toward increasing x is ``t - x = right``, and they meet
        at ``((left + right)/2, (left - right)/2)``.
        """
        reception = self.observer(z.t + z.x)
        emission = self.observer(z.t - z.x)
        left = reception.t + reception.x
        right = emission.t - emission.x
        return SplitComplex((left + right) / 2.0, (left - right) / 2.0)

    # -- inverse chart -------------------------------------------------

    def _gate(self, e_plus, e_minus):
        # Closed at a finite domain end, which the profiles reach, open
        # at an infinite one; NaN is in no range.
        closed = tuple(map(math.isfinite, self.observer.domain))
        below, above = (np.less_equal if end else np.less for end in closed)
        ranges = [self.observer.null_range(sign) for sign in (1.0, -1.0)]
        events = (e_plus, e_minus)
        bad = [~(below(lo, e) & above(e, hi)) for e, (lo, hi) in zip(events, ranges)]
        either = bad[0] | bad[1]
        if either.any():
            i = int(np.argmax(either))
            parts = [
                f"t{op}x = {float(e.flat[i]):g} outside {_span_text(r, closed)}"
                for op, e, r, b in zip("+-", events, ranges, bad)
                if b.flat[i]
            ]
            raise NoRadarCoordinate(
                "event is outside the radar chart: " + "; ".join(parts)
            )

    def radar_inverse_components(self, t, x):
        """Vectorized inverse chart: event coords to chart coords, returned
        as the pair of arrays ``(s, x_radar)``.  Once the events pass the
        gate, an observer without a null inverse raises EvaluationFailure."""
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        e_plus = t + x
        e_minus = t - x
        self._gate(e_plus, e_minus)
        s_reception = self.observer.null_inverse(1.0, e_plus)
        s_emission = self.observer.null_inverse(-1.0, e_minus)
        if s_reception is None or s_emission is None:
            raise EvaluationFailure(
                f"{self.observer!r} has no null inverse, so its chart does not invert"
            )
        return (s_reception + s_emission) * 0.5, (s_reception - s_emission) * 0.5

    def radar_inverse(self, e: SplitComplex) -> SplitComplex:
        """Chart point of event ``e``, or NoRadarCoordinate if unreachable.

        Solves ``P(s_reception) = e.t + e.x`` and
        ``M(s_emission) = e.t - e.x``; the chart point is
        ``((s_reception + s_emission)/2, (s_reception - s_emission)/2)``.
        """
        return _scalar(self, "radar inverse", f"e = ({e.t!r}, {e.x!r})",
                       self.radar_inverse_components, np.asarray([e.t]), np.asarray([e.x]))

    # -- derivative and conformal factor -------------------------------

    def _require_smooth(self, what: str):
        if not self.observer.smooth:
            raise NotDifferentiable(f"{what} needs a C1 worldline; {self.observer!r} is C0")

    def derivative_components(self, t, x, mode: str = "analytic", step=None):
        """Split-complex derivative of the chart, componentwise arrays.

        The chart is split-holomorphic, so its derivative is the single
        split-complex number with null components ``P'(s+x)`` and
        ``M'(s-x)``.  Mode "analytic" reads those off the worldline's
        velocity; mode "fd" takes a symmetric difference of the chart
        itself in the ``s`` direction (which equals the derivative for
        a holomorphic map) with the required absolute ``step``, divided
        by the span its two nodes have after rounding, so the quotient
        uses the points the chart was actually evaluated at.
        """
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        if mode == "analytic":
            self._require_smooth("the analytic derivative")
            return _null_profiles(self.observer.velocity, t, x, _derivative)
        if mode == "fd":
            if step is None:
                raise ValueError('derivative mode "fd" needs a step')
            h = float(step)
            tu = t + h
            td = t - h
            span = tu - td
            if np.any(span <= 0.0):
                raise EvaluationFailure(
                    f"step {h!r} underflows at the requested nodes"
                )
            up_t, up_x = self.components(tu, x)
            dn_t, dn_x = self.components(td, x)
            return (up_t - dn_t) / span, (up_x - dn_x) / span
        raise ValueError(f"unknown derivative mode {mode!r}")

    def derivative(self, z: SplitComplex, mode: str = "analytic", step=None) -> SplitComplex:
        return _scalar(self, "derivative", f"z = ({z.t!r}, {z.x!r})",
                       self.derivative_components, np.asarray([z.t]), np.asarray([z.x]),
                       mode, step)

    def conformal_components(self, t, x):
        """Conformal factor ``norm_sq(derivative)`` as an array, read off
        the worldline's velocity as ``P'(s+x) * M'(s-x)``.

        Positive wherever the chart is a genuine local Lorentz-conformal
        change of coordinates.

        Raises
        ------
        NotDifferentiable
            For worldlines below C1, whose derivative need not exist.
        DegenerateFactor
            If the factor is not strictly positive and finite (or is NaN)
            at some node.
        """
        self._require_smooth("the conformal factor")
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        # A velocity that overflows leaves inf or NaN in the factor; the
        # check below refuses both, so numpy's warnings would add nothing.
        with np.errstate(over="ignore", invalid="ignore"):
            (lam,) = _null_profiles(self.observer.velocity, t, x, _factor)
        lam = np.asarray(lam)
        bad = ~((lam > 0.0) & (lam < math.inf))  # NaN included
        if np.any(bad):
            first = float(lam.flat[np.argmax(bad)])
            what = "finite" if first == math.inf else "positive"
            raise DegenerateFactor(f"conformal factor {first!r} is not {what}")
        return lam

    def conformal_factor(self, z: SplitComplex) -> float:
        lam = self.conformal_components(np.asarray([z.t]), np.asarray([z.x]))
        return float(lam[0])

    def __repr__(self):
        return f"MarzkeWheelerMap({self.observer!r})"
