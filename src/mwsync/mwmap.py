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
anti-diagonals and ``s - x`` along the diagonals, so for an observer
whose evaluation is costly the chart, its derivative and its conformal
factor evaluate it on one line of R + C - 1 values for a block of
R x C nodes, and again only at the nodes whose null coordinate rounds
off its diagonal's.
Inverting the chart reduces to inverting ``P`` and ``M``.
Kinds with a closed-form inverse supply it
(:meth:`~mwsync.observers.Observer.null_inverse`); every other kind is
solved by a safeguarded Newton iteration ("rtsafe", Numerical Recipes
section 9.4) that takes the worldline velocity as the profile slope and
falls back to bisection whenever a Newton step would leave the bracket
or fails to halve the previous step.  Each element iterates on its own
until it converges, so a result never depends on the rest of its batch,
and the iteration runs over cache-sized chunks of a batch without
changing a bit.
"""

from __future__ import annotations

import math

import numpy as np

from .algebra import SplitComplex
from .causal import ray_intersect, rays_through
from .errors import (
    DegenerateFactor,
    EvaluationFailure,
    NoRadarCoordinate,
    NotDifferentiable,
)
from .observers import Observer, Smoothness

__all__ = ["MarzkeWheelerMap"]

# Iteration cap of the root finder.  Newton takes 4 to 11 rounds on the
# smooth kinds; bisection alone needs 60 rounds to shrink a bracket
# 2**60 * root_tol wide down to root_tol.
_ITERATION_CAP = 100

# Elements per chunk of batched work: 2**15 float64 values, 256 kB per
# temporary, so the temporaries of one chunk stay near the L2 cache and
# are reused by the allocator instead of being faulted in afresh.  The
# root finder iterates one chunk of a batch at a time, and the grid
# sweeps of :mod:`mwsync.fieldcheck` take blocks of rows of this size.
_BLOCK_NODES = 2 ** 15

# Reading a null coordinate along its diagonals (:func:`_along_diagonals`)
# pays on blocks of at least _TABULATED_NODES nodes with at most a share
# _OFF_DIAGONAL of them off their diagonal.  Measured in process for
# PerturbedInertial (``sin``) on a 2-vCPU Xeon VM, against evaluating
# every node: on exact grids 1.44x the time at 33 x 33 nodes and 0.78x
# at 65 x 65; on fieldcheck's stencil blocks 0.37-0.59x with up to 4%
# of their nodes off their diagonal, 0.50-0.80x at 4-13%, 0.84-1.71x at
# 18-24% and 1.8-2.2x at 43-49%.
_TABULATED_NODES = 2 ** 12
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


def _null_profiles(fn, t, x, combine, tabulate):
    """``combine(*fn(t + x), *fn(t - x))``, with ``fn`` read along the
    diagonals of each null coordinate (:func:`_along_diagonals`) when
    ``tabulate``.

    ``combine`` must be elementwise and return new arrays.  At the nodes
    off their diagonal in either coordinate it is evaluated again, on
    ``fn`` of their own null coordinates, and written in.
    """
    if not tabulate:
        return combine(*fn(t + x), *fn(t - x))
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
        Absolute parameter tolerance of the radar inverse's root finder:
        an element stops once its Newton step or its bracket is this
        small.  Closed-form inverses do not use it.
    bracket_limit : float
        Safety bound on the bracket-doubling search; exceeding it
        raises :class:`EvaluationFailure` rather than looping.
    fd_step : float
        Default absolute step of the finite-difference derivative mode.
    """

    def __init__(
        self,
        observer: Observer,
        root_tol: float = 1e-12,
        bracket_limit: float = 1e6,
        fd_step: float = 1e-5,
    ):
        self.observer = observer
        self.root_tol = float(root_tol)
        self.bracket_limit = float(bracket_limit)
        self.fd_step = float(fd_step)

    def __call__(self, z: SplitComplex) -> SplitComplex:
        """Scalar reading of :meth:`components`."""
        t_out, x_out = self.components(np.asarray(z.t), np.asarray(z.x))
        return SplitComplex(float(t_out), float(x_out))

    def components(self, t, x):
        """The chart on arrays of chart coordinates ``(s, x)``.

        On a grid, an observer with a
        :attr:`~mwsync.observers.Observer.costly_profile` has its
        position evaluated once per diagonal (:func:`_null_profiles`),
        which relies on it being elementwise; the result is bitwise that
        of evaluating it at every node.
        """
        return _null_profiles(
            self.observer.position, t, x, _chart, self.observer.costly_profile
        )

    def eval_geometric(self, z: SplitComplex) -> SplitComplex:
        """Evaluate the chart by intersecting the two radar rays.

        Independent of the algebraic formula: builds the ray through
        the reception event that travels toward decreasing x and the
        ray through the emission event that travels toward increasing
        x, then intersects them.
        """
        reception = self.observer(z.t + z.x)
        emission = self.observer(z.t - z.x)
        return ray_intersect(
            rays_through(reception).left, rays_through(emission).right
        )

    # -- inverse chart -------------------------------------------------

    def _gate(self, e_plus, e_minus):
        # Strict interior for declared open ranges, closed membership
        # for sampled windows.
        ranges = [self.observer.null_range(sign) for sign in (1.0, -1.0)]
        is_open = all(r is not None for r in ranges)
        if not is_open:
            ranges = self.observer.null_window()
            if ranges is None:
                raise EvaluationFailure(
                    f"{self.observer!r} reports neither null ranges nor a window"
                )
        events = (e_plus, e_minus)
        bad = [
            (e <= lo) | (e >= hi) if is_open else (e < lo) | (e > hi)
            for e, (lo, hi) in zip(events, ranges)
        ]
        either = bad[0] | bad[1]
        if either.any():
            i = int(np.argmax(either))
            parts = [
                f"t{op}x = {float(e.flat[i]):g} outside ({lo:g}, {hi:g})"
                for op, e, (lo, hi), b in zip("+-", events, ranges, bad)
                if b.flat[i]
            ]
            raise NoRadarCoordinate(
                "event is outside the radar chart: " + "; ".join(parts)
            )

    def _profile(self, sign: float):
        if sign > 0:
            return self.observer.null_plus
        return self.observer.null_minus

    def _bracket(self, fn, targets):
        """Per-element ``[a, b]`` with ``fn(a) <= target <= fn(b)``.

        Returns ``a, b`` and the residuals ``fn(a) - targets`` and
        ``fn(b) - targets``.  On an unbounded domain the ends double
        outward from ``[-1, 1]``.  Every element visits the same points
        ``-2**k`` and ``2**k``, so the profile is tabulated there once,
        just far enough for the extreme targets, and each element takes
        the first ``k`` that brackets it.
        """
        lo, hi = self.observer.domain
        if math.isfinite(lo) and math.isfinite(hi):
            f_lo, f_hi = fn(np.array([lo, hi]))
            return (np.full(targets.shape, lo), np.full(targets.shape, hi),
                    f_lo - targets, f_hi - targets)
        lowest = np.min(targets, initial=math.inf)
        highest = np.max(targets, initial=-math.inf)
        reach = 1.0
        table = [fn(np.array([-reach, reach]))]
        while not (table[-1][0] <= lowest and table[-1][1] >= highest):
            reach *= 2.0
            if reach > self.bracket_limit or len(table) == 64:
                raise EvaluationFailure(
                    f"bracket search exceeded bracket_limit = {self.bracket_limit:g}"
                )
            table.append(fn(np.array([-reach, reach])))
        f_lo, f_hi = np.array(table).T
        # On increasing profiles, the first k that brackets a target is
        # the number of earlier tabulated points that do not.
        k_lo = np.count_nonzero(f_lo[:-1, None] > targets, axis=0)
        k_hi = np.count_nonzero(f_hi[:-1, None] < targets, axis=0)
        ends = np.ldexp(1.0, np.arange(len(table)))
        return (-ends.take(k_lo), ends.take(k_hi),
                f_lo.take(k_lo) - targets, f_hi.take(k_hi) - targets)

    def _slope(self, sign, s):
        vt, vx = self.observer.velocity(s)
        return vt + vx if sign > 0 else vt - vx

    def _solve(self, sign, targets):
        """Parameters ``s`` with ``P(s) = targets`` (sign +1) or ``M(s)``.

        Closed form where the observer has one.  Otherwise the whole
        batch is bracketed and given its regula falsi start at once,
        and rtsafe (:meth:`_rtsafe`) then runs on one chunk of
        ``_BLOCK_NODES`` elements at a time.  Elements iterate on their
        own, so the result is bitwise that of one whole-batch loop.
        """
        closed = self.observer.null_inverse(sign, targets)
        if closed is not None:
            return closed
        fn = self._profile(sign)
        goal = targets.ravel()
        xl, xh, fl, fh = self._bracket(fn, goal)
        with np.errstate(divide="ignore", invalid="ignore"):
            x = xl - fl * ((xh - xl) / (fh - fl))  # regula falsi start
        del fl, fh
        x = np.fmax(xl, np.fmin(x, xh))  # rounding or fl == fh: stay inside
        out = np.empty(goal.shape)
        stuck = []
        for start in range(0, goal.size, _BLOCK_NODES):
            chunk = slice(start, start + _BLOCK_NODES)
            stuck.append(self._rtsafe(
                fn, sign, goal[chunk], xl[chunk], xh[chunk], x[chunk], out[chunk]
            ))
        failed = sum(left.size for left in stuck)
        if failed:
            first = next(left for left in stuck if left.size)
            raise EvaluationFailure(
                f"radar inverse did not converge in {_ITERATION_CAP} iterations "
                f"for {failed} event(s), e.g. target {float(first[0]):g}"
            )
        return out.reshape(targets.shape)

    def _rtsafe(self, fn, sign, goal, xl, xh, x, out):
        """Safeguarded Newton on an active set, results written to ``out``.

        Each round evaluates only the unconverged elements, and an
        element stops when its step is at most ``root_tol`` (``f == 0``
        collapses the bracket onto the root, and a bracket narrower than
        ``root_tol`` bounds the step) or can no longer move ``s``.
        Overwrites ``xl`` and ``xh``.  Returns the targets still
        unconverged after ``_ITERATION_CAP`` rounds, in input order.
        """
        last = math.inf  # size of the previous step
        live = np.arange(goal.size)
        # Arithmetic runs in place and the active set shrinks one array at
        # a time, which keeps few temporaries alive at once.
        for _ in range(_ITERATION_CAP):
            if live.size == 0:
                break
            f = fn(x)
            f -= goal
            # x replaces xl where f < 0, xh where f > 0 and both where
            # f == 0.  Since x lies in [xl, xh], clamping against +-inf
            # (NaN, which fmin and fmax skip, where f == 0) does this
            # without a masked copy, which costs ten times as much.
            with np.errstate(divide="ignore", invalid="ignore"):
                side = f * -math.inf
                np.fmax(xl, np.fmin(x, side), out=xl)
                np.fmin(xh, np.fmax(x, side), out=xh)
                del side
                step = f  # the residual turns into the Newton step in place
                step /= self._slope(sign, x)
            nxt = x - step
            size = np.abs(step, out=step)
            # Bisect where Newton leaves the bracket, fails to halve the
            # previous step, or has no usable slope.
            bisect = ~((nxt >= xl) & (nxt <= xh) & (size <= 0.5 * last))
            if bisect.any():
                half = 0.5 * (xh - xl)
                np.copyto(nxt, xl + half, where=bisect)
                np.copyto(size, half, where=bisect)
            done = (size <= self.root_tol) | (nxt == x)
            if done.any():
                out[live[done]] = nxt[done]
                keep = np.flatnonzero(~done)
                live = live.take(keep)
                goal = goal.take(keep)
                xl = xl.take(keep)
                xh = xh.take(keep)
                nxt = nxt.take(keep)
                size = size.take(keep)
            x, last = nxt, size
        return goal

    def radar_inverse_components(self, t, x):
        """Vectorized inverse chart: event coords to chart coords.

        Returns the pair of arrays ``(s, x_radar)``.
        """
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        e_plus = t + x
        e_minus = t - x
        self._gate(e_plus, e_minus)
        s_reception = self._solve(1.0, e_plus)
        s_emission = self._solve(-1.0, e_minus)
        return (s_reception + s_emission) * 0.5, (s_reception - s_emission) * 0.5

    def radar_inverse(self, e: SplitComplex) -> SplitComplex:
        """Chart point of event ``e``, or NoRadarCoordinate if unreachable.

        Solves ``P(s_reception) = e.t + e.x`` and
        ``M(s_emission) = e.t - e.x``; the chart point is
        ``((s_reception + s_emission)/2, (s_reception - s_emission)/2)``.
        """
        s, xr = self.radar_inverse_components(
            np.asarray([e.t]), np.asarray([e.x])
        )
        return SplitComplex(float(s[0]), float(xr[0]))

    # -- derivative and conformal factor -------------------------------

    def _require_smooth(self, what: str):
        if self.observer.smoothness < Smoothness.C1:
            raise NotDifferentiable(
                f"{what} needs a C1 worldline; {self.observer!r} is "
                f"{self.observer.smoothness.name}"
            )

    def derivative_components(self, t, x, mode: str = "analytic", step=None):
        """Split-complex derivative of the chart, componentwise arrays.

        The chart is split-holomorphic, so its derivative is the single
        split-complex number with null components ``P'(s+x)`` and
        ``M'(s-x)``.  Mode "analytic" reads those off the worldline's
        velocity; mode "fd" takes a symmetric difference of the chart
        itself in the ``s`` direction (which equals the derivative for
        a holomorphic map) using steps snapped to the floating-point
        grid so that representable nodes are hit exactly.
        """
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        if mode == "analytic":
            self._require_smooth("the analytic derivative")
            return _null_profiles(
                self.observer.velocity, t, x, _derivative, self.observer.costly_profile
            )
        if mode == "fd":
            h = self.fd_step if step is None else float(step)
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
        dt_, dx_ = self.derivative_components(
            np.asarray([z.t]), np.asarray([z.x]), mode, step
        )
        return SplitComplex(float(dt_[0]), float(dx_[0]))

    def conformal_components(self, t, x, mode: str = "analytic", step=None):
        """Conformal factor ``norm_sq(derivative)`` as an array.

        Positive wherever the chart is a genuine local Lorentz-conformal
        change of coordinates.

        Raises
        ------
        NotDifferentiable
            For worldlines below C1 (in either mode; the factor is a
            statement about the derivative, which must exist).
        DegenerateFactor
            If the factor is not strictly positive at some node.
        """
        self._require_smooth("the conformal factor")
        if mode == "analytic":
            t = np.asarray(t, dtype=float)
            x = np.asarray(x, dtype=float)
            (lam,) = _null_profiles(
                self.observer.velocity, t, x, _factor, self.observer.costly_profile
            )
        else:
            dt_, dx_ = self.derivative_components(t, x, mode, step)
            lam = (dt_ - dx_) * (dt_ + dx_)
        lam = np.asarray(lam)
        if np.any(lam <= 0.0):
            i = int(np.argmax(lam <= 0.0))
            raise DegenerateFactor(
                f"conformal factor {lam.flat[i]!r} is not positive"
            )
        return lam

    def conformal_factor(self, z: SplitComplex, mode: str = "analytic", step=None) -> float:
        lam = self.conformal_components(
            np.asarray([z.t]), np.asarray([z.x]), mode, step
        )
        return float(lam[0])

    def __repr__(self):
        return f"MarzkeWheelerMap({self.observer!r})"
