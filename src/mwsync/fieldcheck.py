"""Discrete certificates for maps of the Minkowski plane.

Everything here works on a "plane map": any object with an array-aware
``components(t, x) -> (t_out, x_out)`` method.  The module provides

* residual fields for split-holomorphy, the wave equation, and
  Lorentz-conformality, evaluated by central differences on a grid;
* randomized chronology checks: does the map preserve the strict
  causal order, and does it preserve exactly the order it should
  (the two-sided equivalence check);
* an automorphism suite that bundles those checks with the inverse
  chart, the round trip, orientation, and the worldline restriction;
* the two-observer averaging construction that is wave-solving but
  neither holomorphic nor antiholomorphic, together with the evidence
  that it fails to respect the causal order.

All central differences use steps snapped to the floating-point grid:
``step = (coord + h) - coord`` is the exactly representable distance
closest to ``h``, and the stencil divides by the realized step.  With
that hygiene the affine identity map yields residuals that are exactly
zero, and exact smooth solutions yield residuals limited by rounding
only.

A residual report therefore gives the field at the matched step (the
same ``h`` in t and in x), where exact charts read at the rounding
floor, and takes its convergence order from an anisotropic stencil,
(h_t, h_x) = (h, h/2) against (h/2, h/4), where the truncation error of
a solution survives and shrinks at second order.  It also carries that
floor, ``512 * eps * (1 + max|f|) / h**k`` with ``f`` the function the
stencil differences at the grid nodes and k its order.  The grid is
swept in cache-sized blocks of rows (:meth:`GridSpec.row_blocks`), each
point evaluated once, and the reports are bitwise those of evaluating
the whole grid at once.  Each block's point sets are evaluated and
reduced (differences, residual fields and their maxima) one after the
other on the calling thread.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Callable

import numpy as np

from .algebra import ZERO, SplitComplex, TwoVelocity
from .causal import DEFAULT_NULL_BAND, CausalRelation, classify, cone
from .errors import DegenerateSplit, EvaluationFailure
from .mwmap import _BLOCK_NODES, MarzkeWheelerMap
from .observers import LipStatus, LipVerdict, Observer, lip_status

__all__ = [
    "PlaneMap",
    "IdentityMap",
    "ConjugateInput",
    "ConjugateOutput",
    "MapSum",
    "AffineLorentzMap",
    "WaveCauchyMap",
    "GridSpec",
    "ResidualReport",
    "ConformalityReport",
    "holomorphy_residual",
    "wave_residual",
    "conformality_report",
    "log_factor_wave_residual",
    "WitnessPair",
    "ChronologyReport",
    "chronology_check",
    "causal_equivalence_check",
    "MapOrientation",
    "orientation_of",
    "AutomorphismOutcome",
    "AutomorphismReport",
    "automorphism_suite",
    "LowReport",
    "low_counterexample",
]


# -- plane maps ---------------------------------------------------------


class PlaneMap:
    """Base for maps of the plane given by componentwise array functions."""

    def components(self, t, x):
        raise NotImplementedError

    def __call__(self, z: SplitComplex) -> SplitComplex:
        t_out, x_out = self.components(np.asarray(z.t), np.asarray(z.x))
        return SplitComplex(float(t_out), float(x_out))


class IdentityMap(PlaneMap):
    def components(self, t, x):
        return np.asarray(t, dtype=float), np.asarray(x, dtype=float)

    def __repr__(self):
        return "IdentityMap()"


class ConjugateInput(PlaneMap):
    """``z -> F(conj(z))``: precompose with the spatial reflection."""

    def __init__(self, inner):
        self.inner = inner

    def components(self, t, x):
        return self.inner.components(t, -np.asarray(x, dtype=float))

    def __repr__(self):
        return f"ConjugateInput({self.inner!r})"


class ConjugateOutput(PlaneMap):
    """``z -> conj(F(z))``: postcompose with the spatial reflection."""

    def __init__(self, inner):
        self.inner = inner

    def components(self, t, x):
        t_out, x_out = self.inner.components(t, x)
        return t_out, -x_out

    def __repr__(self):
        return f"ConjugateOutput({self.inner!r})"


class MapSum(PlaneMap):
    """Pointwise sum of plane maps."""

    def __init__(self, terms):
        self.terms = tuple(terms)
        if not self.terms:
            raise ValueError("need at least one term")

    def components(self, t, x):
        ts, xs = zip(*(term.components(t, x) for term in self.terms))
        return reduce(add, ts), reduce(add, xs)

    def __repr__(self):
        return f"MapSum({list(self.terms)!r})"


class AffineLorentzMap(PlaneMap):
    """``z -> scale * u * z + offset`` for a two-velocity ``u``.

    The basic exactly conformal map: holomorphic with constant
    derivative ``scale * u`` and conformal factor ``scale**2``.
    """

    def __init__(self, u: TwoVelocity, scale: float = 1.0, offset: SplitComplex = ZERO):
        self.u = u
        self.scale = float(scale)
        self.offset = offset

    def components(self, t, x):
        ut, ux = self.u.u.t, self.u.u.x
        return (
            self.scale * (ut * t + ux * x) + self.offset.t,
            self.scale * (ut * x + ux * t) + self.offset.x,
        )

    def __repr__(self):
        return f"AffineLorentzMap(u={self.u!r}, scale={self.scale!r}, offset={self.offset!r})"


class WaveCauchyMap(PlaneMap):
    """Componentwise wave solution from data on the time axis.

    Both output components solve the wave equation; the axis carries
    the data ``t_out(y, 0) = q(y)``, ``x_out(y, 0) = p(y)``, and the
    transverse derivatives are coupled through ``p`` and ``q`` with the
    chosen sign.  The quadrature term of the standard traveling-wave
    solution telescopes against the coupling, leaving the closed form

        t_out = (q(y+x) + q(y-x))/2 + sign * (p(y+x) - p(y-x))/2
        x_out = (p(y+x) + p(y-x))/2 + sign * (q(y+x) - q(y-x))/2

    With ``sign = +1`` and worldline coordinate profiles as data this
    reproduces the radar chart of the worldline arithmetic-exactly;
    ``sign = -1`` reproduces the chart precomposed with conjugation.
    """

    def __init__(self, p: Callable, q: Callable, sign: int = +1):
        if sign not in (+1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign!r}")
        self.p = p
        self.q = q
        self.sign = float(sign)

    def components(self, t, x):
        qp = self.q(t + x)
        qm = self.q(t - x)
        pp = self.p(t + x)
        pm = self.p(t - x)
        s = self.sign
        return (
            (qp + qm) * 0.5 + s * ((pp - pm) * 0.5),
            (pp + pm) * 0.5 + s * ((qp - qm) * 0.5),
        )

    def __repr__(self):
        return f"WaveCauchyMap(sign={int(self.sign):+d})"


# -- grids and residual reports -----------------------------------------


@dataclass(frozen=True)
class GridSpec:
    """Rectangular evaluation grid with a stencil step.

    ``h`` defaults to a tenth of the smaller node spacing and must stay
    below half a spacing, so stencil points never reach past the
    neighboring node.
    """

    t_min: float
    t_max: float
    x_min: float
    x_max: float
    n_t: int = 33
    n_x: int = 33
    h: float | None = None

    def __post_init__(self):
        if not (self.t_min < self.t_max and self.x_min < self.x_max):
            raise ValueError("grid box must have positive extent")
        if self.n_t < 3 or self.n_x < 3:
            raise ValueError("need at least 3 nodes per direction")
        spacing = self.min_spacing
        if self.h is None:
            object.__setattr__(self, "h", spacing / 10.0)
        if not 0.0 < self.h < spacing / 2.0:
            raise ValueError(
                f"h = {self.h!r} must lie in (0, {spacing / 2.0!r})"
            )

    @property
    def min_spacing(self) -> float:
        return min(
            (self.t_max - self.t_min) / (self.n_t - 1),
            (self.x_max - self.x_min) / (self.n_x - 1),
        )

    @property
    def diameter(self) -> float:
        return max(self.t_max - self.t_min, self.x_max - self.x_min)

    @property
    def t_nodes(self):
        return np.linspace(self.t_min, self.t_max, self.n_t)

    @property
    def x_nodes(self):
        return np.linspace(self.x_min, self.x_max, self.n_x)

    def meshes(self):
        return np.meshgrid(self.t_nodes, self.x_nodes, indexing="ij")

    @property
    def _block_rows(self) -> int:
        """Rows in a block of :meth:`row_blocks`."""
        return max(1, _BLOCK_NODES // self.n_x)

    def row_blocks(self):
        """Yield ``(rows, T, X)`` over blocks of whole grid rows.

        ``rows`` slices the t nodes and ``T, X`` are the block's meshes,
        equal to ``meshes()`` sliced by ``rows``.  A block holds
        ``max(1, _BLOCK_NODES // n_x)`` rows.
        """
        step = self._block_rows
        t_nodes, x_nodes = self.t_nodes, self.x_nodes
        for start in range(0, self.n_t, step):
            rows = slice(start, start + step)
            yield (rows, *np.meshgrid(t_nodes[rows], x_nodes, indexing="ij"))


@dataclass(frozen=True)
class ResidualReport:
    """Grid maximum and mean of a residual field at the matched step
    ``h`` (the same step in t and in x), with the order the stencil
    truncation shows on the anisotropic levels (h_t, h_x) = (h, h/2)
    and (h/2, h/4), None when a level is exactly 0, and the rounding
    floor ``512 * eps * (1 + max|f|) / h**k`` of the differenced
    function ``f`` (k = 1 for first differences, 2 for second)."""

    max_abs: float
    mean_abs: float
    location_of_max: tuple[float, float]
    convergence_order: float | None
    h: float
    floor: float


@dataclass(frozen=True)
class ConformalityReport:
    max_abs: float
    mean_abs: float
    location_of_max: tuple[float, float]
    convergence_order: float | None
    h: float
    floor: float
    factor_min: float
    factor_max: float
    n_nonpositive: int


_EPS = float(np.finfo(float).eps)


def _stencil_points(coord, h):
    """Realized stencil nodes ``up, dn`` about ``coord`` and their spans
    ``(up - dn, up - coord, coord - dn, (up - coord) + (coord - dn))``.

    Dividing differences by the spans the nodes actually have (rather
    than by nominal h) keeps affine maps residual-free: for them
    numerator and denominator are the same float.
    """
    up = coord + h
    dn = coord - h
    d_p = up - coord
    d_m = coord - dn
    if np.any(d_p <= 0.0) or np.any(d_m <= 0.0):
        raise EvaluationFailure(f"stencil step {h!r} underflows on the grid")
    return up, dn, (up - dn, d_p, d_m, d_p + d_m)


def _divided(a, b):
    a /= b
    return a


def _second_diff(f_up, f_0, f_dn, d_p, d_m, d_sum):
    # 2.0 * ((f_up - f_0) / d_p - (f_0 - f_dn) / d_m) / (d_p + d_m), the
    # divided-difference form of the second derivative over realized
    # spans, in place on its own temporaries; identically zero for affine
    # functions because each slope ratio is numerator and denominator of
    # the very same floats.
    out = _divided(f_up - f_0, d_p)
    out -= _divided(f_0 - f_dn, d_m)
    out *= 2.0
    out /= d_sum
    return out


class _Stencil:
    """``f(t, x) -> tuple of arrays`` sampled around the grid nodes one
    block of rows at a time, one point set (a step either side along
    one axis) at a time.

    The stencil nodes of every level and their realized spans are formed
    and checked on their full axis once, before anything is evaluated,
    and kept in a shape that broadcasts against a block, since a whole
    row (along t) or column (along x) shares them.  :meth:`sweep` enters
    each block of :meth:`GridSpec.row_blocks` in turn and evaluates the
    centre there once; second differences reuse it, and :meth:`floor`
    reads the function's magnitude from the centres of all blocks.
    ``both`` serves the first-order and the wave residuals from the same
    point sets.  ``first``, ``second`` and ``both`` reduce a point set
    ``(f_up, f_dn, spans)`` already evaluated.  ``f`` must return float
    arrays of its arguments' shape: the reductions work in place on
    temporaries of that shape, and never write to the arrays ``f``
    returned.
    """

    def __init__(self, f, grid: GridSpec):
        self.f = f
        self.grid = grid
        h = grid.h
        axes = {True: grid.t_nodes[:, None], False: grid.x_nodes[None, :]}
        # In sweep order: fine, coarse and matched levels, t before x.
        self._axes = [
            (along_t, *_stencil_points(axes[along_t], step))
            for step, along_t in (
                (h / 2.0, True), (h / 4.0, False), (h, True), (h / 2.0, False), (h, False)
            )
        ]
        self._magnitude = None

    def _point_set(self, axis, rows, T, X):
        along_t, up, dn, spans = axis
        if along_t:
            up, dn, spans = up[rows], dn[rows], [s[rows] for s in spans]

        def at(coord):
            coord = np.broadcast_to(coord, T.shape).copy()
            return self.f(coord, X) if along_t else self.f(T, coord)

        return at(up), at(dn), spans

    @staticmethod
    def first(centre, f_up, f_dn, spans):
        """Central first differences ``(f_up - f_dn) / (up - dn)`` along
        one axis."""
        return [_divided(u - d, spans[0]) for u, d in zip(f_up, f_dn)]

    @staticmethod
    def second(centre, f_up, f_dn, spans):
        """Central second differences along one axis."""
        return [_second_diff(u, c, d, *spans[1:]) for u, c, d in zip(f_up, centre, f_dn)]

    @staticmethod
    def both(centre, *points):
        """First and second differences from one point set."""
        return _Stencil.first(centre, *points), _Stencil.second(centre, *points)

    def sweep(self, part, combine):
        """Residual fields at the matched step, and their stencil order.

        ``part(centre, *point_set)``, one of :meth:`first`,
        :meth:`second` and :meth:`both`, reduces the point set a step
        either side along t (or x) in the current block to what
        ``combine(t_part, x_part)`` needs to form the residual fields.
        The fields are returned at the matched level (h, h), assembled
        over the blocks.  There the central stencil annihilates
        traveling waves ``p(t + x) + q(t - x)`` term for term, so exact
        charts leave only rounding and no order can be read.  The order
        of each field therefore compares the maxima at the anisotropic
        levels (h_t, h_x) = (h, h/2) and (h/2, h/4), where the
        truncation term, proportional to h_t**2 - h_x**2, survives;
        those maxima are folded over the blocks.  Every stencil point
        is evaluated once, and each point set is reduced before the
        next one is evaluated.
        """
        grid = self.grid
        fine_t, fine_x, coarse_t, coarse_x, matched_x = self._axes
        fields = fine = coarse = None
        for rows, T, X in grid.row_blocks():
            centre = self.f(T, X)
            self._magnitude = _fold_max(self._magnitude, [np.abs(c) for c in centre])

            def reduced(axis):
                return part(centre, *self._point_set(axis, rows, T, X))

            t_part = reduced(fine_t)
            fine = _fold_max(fine, combine(t_part, reduced(fine_x)))
            del t_part
            t_part = reduced(coarse_t)
            coarse = _fold_max(coarse, combine(t_part, reduced(coarse_x)))
            matched = combine(t_part, reduced(matched_x))
            del t_part
            if fields is None:
                fields = [np.empty((grid.n_t, grid.n_x), f.dtype) for f in matched]
            for out, f in zip(fields, matched):
                out[rows] = f
        orders = [_order(float(a), float(b)) for a, b in zip(coarse, fine)]
        return fields, orders

    def floor(self, k):
        """Rounding floor ``512 * eps * (1 + max|f|) / h**k`` at the nodes,
        read from the centres of a finished :meth:`sweep`.

        Raises
        ------
        EvaluationFailure
            If ``h**k`` overflows or underflows to zero.
        """
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
        return 512.0 * _EPS * (1.0 + mag) / scale


def _holo_fields(signs):
    def combine(t_part, x_part):
        d0t, d0x = t_part
        d1t, d1x = x_part
        # Split Cauchy-Riemann system: d/dx F = +/- J * d/dt F.
        return tuple(np.hypot(d1t - s * d0x, d1x - s * d0t) for s in signs)

    return combine


def _wave_fields(t_part, x_part):
    return (np.hypot(t_part[0] - x_part[0], t_part[1] - x_part[1]),)


def _conformal_fields(t_part, x_part):
    d0t, d0x = t_part
    d1t, d1x = x_part
    # In place, in this order: g00 = d0t * d0t - d0x * d0x,
    # g01 = d0t * d1t - d0x * d1x, g11 = d1t * d1t - d1x * d1x and
    # resid = sqrt(2.0 * g01 * g01 + (g11 + g00) ** 2).
    g00 = d0t * d0t
    product = d0x * d0x
    g00 -= product
    g01 = d0t * d1t
    g01 -= np.multiply(d0x, d1x, out=product)
    g11 = d1t * d1t
    g11 -= np.multiply(d1x, d1x, out=product)
    resid = np.multiply(2.0, g01, out=product)
    resid *= g01
    g11 += g00
    resid += np.square(g11, out=g11)
    # Conformal iff the metric pullback is g00 * diag(1, -1).
    return np.sqrt(resid, out=resid), g00


def _order(max_h: float, max_half: float) -> float | None:
    if max_h > 0.0 and max_half > 0.0:
        return math.log2(max_h / max_half)
    return None


def _fold_max(maxima, fields):
    """Fold the maxima of one block's fields into those of the blocks
    before, so a NaN anywhere wins as in ``max`` over the assembled
    field (builtin ``max`` would drop it)."""
    block = [f.max() for f in fields]
    if maxima is None:
        return block
    return [np.maximum(a, b) for a, b in zip(maxima, block)]


def _location(field, grid: GridSpec) -> tuple[float, float]:
    i, j = np.unravel_index(int(np.argmax(field)), field.shape)
    return float(grid.t_nodes[i]), float(grid.x_nodes[j])


def _report(field, order, grid: GridSpec, floor: float) -> ResidualReport:
    return ResidualReport(
        float(field.max()), float(field.mean()), _location(field, grid), order,
        grid.h, floor,
    )


def holomorphy_residual(F, grid: GridSpec, anti: bool = False) -> ResidualReport:
    """Central-difference residual of the split Cauchy-Riemann system.

    ``anti=True`` checks the reflected system instead (maps that are
    holomorphic after precomposing with conjugation).
    """
    stencil = _Stencil(F.components, grid)
    (field,), (order,) = stencil.sweep(
        stencil.first, _holo_fields((-1.0 if anti else 1.0,))
    )
    return _report(field, order, grid, stencil.floor(1))


def wave_residual(F, grid: GridSpec) -> ResidualReport:
    """Componentwise discrete d'Alembertian of the map on the grid."""
    stencil = _Stencil(F.components, grid)
    (field,), (order,) = stencil.sweep(stencil.second, _wave_fields)
    return _report(field, order, grid, stencil.floor(2))


def conformality_report(F, grid: GridSpec) -> ConformalityReport:
    """Deviation of the metric pullback from a positive multiple of the
    Minkowski metric, plus the observed range of the factor."""
    stencil = _Stencil(F.components, grid)
    (field, lam), (order, _) = stencil.sweep(stencil.first, _conformal_fields)
    return ConformalityReport(
        **vars(_report(field, order, grid, stencil.floor(1))),
        factor_min=float(lam.min()),
        factor_max=float(lam.max()),
        n_nonpositive=int(np.count_nonzero(lam <= 0.0)),
    )


def log_factor_wave_residual(m, grid: GridSpec) -> ResidualReport:
    """Discrete d'Alembertian of ``log`` of the map's conformal factor.

    For a conformal change of coordinates on the flat plane the log
    factor is harmonic in the wave sense; this residual certifies it
    on the grid.  ``m`` must expose ``conformal_components`` (the radar
    charts do).
    """

    def log_factor(t, x):
        return (np.log(m.conformal_components(t, x, mode="analytic")),)

    def combine(t_part, x_part):
        return (np.abs(t_part[0] - x_part[0]),)

    stencil = _Stencil(log_factor, grid)
    (field,), (order,) = stencil.sweep(stencil.second, combine)
    return _report(field, order, grid, stencil.floor(2))


# -- chronology checks --------------------------------------------------


@dataclass(frozen=True)
class WitnessPair:
    """Certified breakdown of order preservation at one pair.

    Exactly one of the two relations is CHRON_FUTURE: either the inputs
    are chronological and the outputs are not, or the other way around.
    """

    z1: SplitComplex
    z2: SplitComplex
    relation_in: CausalRelation
    relation_out: CausalRelation


@dataclass(frozen=True)
class ChronologyReport:
    """Outcome of a randomized order-preservation check."""

    n_pairs: int
    seed: int
    min_margin: float
    witness: WitnessPair | None
    passed: bool


def _witness(i: int, inputs, outputs, tol: float) -> WitnessPair:
    """Pair ``i`` of the sampled arrays, with its relations classified.

    ``inputs`` are ``(t1, x1, t2, x2)`` and ``outputs`` their images.
    :func:`classify` subtracts the very floats :func:`cone` subtracted
    when the sampler flagged the pair, so the relations agree with the
    sampler's verdict by construction.
    """
    t1, x1, t2, x2 = (float(a[i]) for a in inputs)
    o1t, o1x, o2t, o2x = (float(a[i]) for a in outputs)
    if not (math.isfinite(o2t - o1t) and math.isfinite(o2x - o1x)):
        raise EvaluationFailure(
            f"map output separation is not finite for the pair "
            f"({t1!r}, {x1!r}), ({t2!r}, {x2!r}): "
            f"({o1t!r}, {o1x!r}), ({o2t!r}, {o2x!r})"
        )
    z1, z2 = SplitComplex(t1, x1), SplitComplex(t2, x2)
    return WitnessPair(
        z1, z2, classify(z1, z2, tol),
        classify(SplitComplex(o1t, o1x), SplitComplex(o2t, o2x), tol),
    )


def _decisive_q(grid: GridSpec) -> float:
    """``(diameter/10)**2``, the least ``|q|`` of a sampled input pair."""
    try:
        need = (0.1 * grid.diameter) ** 2
    except OverflowError:
        need = math.inf
    if need == math.inf:
        raise EvaluationFailure(
            f"the box [{grid.t_min:g}, {grid.t_max:g}] x [{grid.x_min:g}, "
            f"{grid.x_max:g}] is too wide to sample: (diameter/10)**2 overflows"
        )
    return need


def _child_seeds(seed: int, n: int) -> list[int]:
    # Deterministic distinct sub-seeds for the pieces of a suite.
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


def _draw_events(rng, grid: GridSpec, n: int):
    t = rng.uniform(grid.t_min, grid.t_max, n)
    x = rng.uniform(grid.x_min, grid.x_max, n)
    return t, x


def _chronological_pairs(rng, grid: GridSpec, n_pairs: int, tol: float):
    """``n_pairs`` decisively chronological pairs ``(t1, x1, t2, x2)``.

    Each round draws ``2 * n_pairs`` unordered pairs, keeps those with
    squared interval at least ``(diameter/10)**2`` and above the null
    band, and orders only the kept pairs in time.  The interval is read
    off the unordered separation: negating both separations is exact,
    so it is bitwise that of the ordered pair.  Raises after 200 rounds
    short of ``n_pairs``.
    """
    need_q = _decisive_q(grid)
    have = 0
    parts = []
    for _ in range(200):
        if have >= n_pairs:
            break
        ta, xa = _draw_events(rng, grid, 2 * n_pairs)
        tb, xb = _draw_events(rng, grid, 2 * n_pairs)
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
    columns = zip(*parts) if parts else ([np.empty(0)],) * 4  # n_pairs == 0
    return tuple(np.concatenate(column) for column in columns)


def chronology_check(
    F,
    grid: GridSpec,
    n_pairs: int = 1000,
    seed: int = 0,
    tol: float = DEFAULT_NULL_BAND,
) -> ChronologyReport:
    """Does ``z1 << z2`` imply ``F(z1) << F(z2)``?

    Samples decisively chronological input pairs from the grid box
    (squared interval at least ``(diameter/10)**2`` and above the null
    band, so classification noise cannot manufacture inputs) and
    requires every output pair to classify as chronological future.
    The first failure is returned as the witness.
    """
    rng = np.random.default_rng(seed)
    t1, x1, t2, x2 = _chronological_pairs(rng, grid, n_pairs, tol)

    o1t, o1x = F.components(t1, x1)
    o2t, o2x = F.components(t2, x2)
    _, band, margins = cone(o2t - o1t, o2x - o1x, tol)
    ok = margins > band
    min_margin = float(margins.min()) if margins.size else math.nan

    witness = None
    if not ok.all():
        i = int(np.argmax(~ok))
        witness = _witness(i, (t1, x1, t2, x2), (o1t, o1x, o2t, o2x), tol)
    return ChronologyReport(
        int(t1.size), int(seed), min_margin, witness, witness is None
    )


def causal_equivalence_check(
    F,
    grid: GridSpec,
    n_pairs: int = 1000,
    seed: int = 0,
    tol: float = DEFAULT_NULL_BAND,
) -> ChronologyReport:
    """Does ``z1 << z2`` hold exactly when ``F(z1) << F(z2)``?

    The two-sided version of :func:`chronology_check`: inputs are
    sampled without ordering constraints, kept only when decisively
    chronological or decisively spacelike (``|q|`` at least
    ``(diameter/10)**2`` and above the null band), and the outputs must agree
    with the biconditional decisively (margin ten null bands).  Pairs
    whose outputs land too close to the cone are skipped rather than
    counted either way.
    """
    rng = np.random.default_rng(seed)
    dec_q = _decisive_q(grid)
    t1, x1 = _draw_events(rng, grid, n_pairs)
    t2, x2 = _draw_events(rng, grid, n_pairs)
    q_in, band_in, m_in = cone(t2 - t1, x2 - x1, tol)
    in_cf = m_in >= dec_q
    in_decisive = (np.abs(q_in) >= dec_q) & (np.abs(q_in) > band_in)

    o1t, o1x = F.components(t1, x1)
    o2t, o2x = F.components(t2, x2)
    _, band, m_out = cone(o2t - o1t, o2x - o1x, tol)
    score = np.where(in_cf, m_out, -m_out)
    out_decisive = np.abs(m_out) > 10.0 * band

    counted = in_decisive & out_decisive
    violating = counted & (score < 0.0)
    min_margin = float(score[counted].min()) if counted.any() else math.nan

    witness = None
    if violating.any():
        i = int(np.argmax(violating))
        witness = _witness(i, (t1, x1, t2, x2), (o1t, o1x, o2t, o2x), tol)
    return ChronologyReport(
        int(np.count_nonzero(counted)), int(seed), min_margin, witness,
        witness is None,
    )


# -- orientation and the automorphism suite ------------------------------


class MapOrientation(enum.Enum):
    PRESERVING = "preserving"
    REVERSING = "reversing"
    NEITHER = "neither"


def orientation_of(
    F,
    probe: SplitComplex = ZERO,
    span: float = 1.0,
    n: int = 65,
    tol: float = 1e-8,
) -> MapOrientation:
    """Which ray family does the image of a right-moving ray lie in?

    Samples the ray of constant ``t - x`` through ``probe``.  If the
    image keeps ``t - x`` constant the map preserves the two null
    directions; if it keeps ``t + x`` constant instead, the map swaps
    them; if neither level stays constant the map does not act on rays
    at all.
    """
    zeta_plus = (probe.t + probe.x) + np.linspace(0.0, span, n)
    zeta_minus = np.full(n, probe.t - probe.x)
    t = (zeta_plus + zeta_minus) / 2.0
    x = (zeta_plus - zeta_minus) / 2.0
    out_t, out_x = F.components(t, x)
    plus = out_t + out_x
    minus = out_t - out_x
    spread_plus = float(plus.max() - plus.min())
    spread_minus = float(minus.max() - minus.min())
    level = tol * (
        1.0 + max(np.abs(plus).max(), np.abs(minus).max())
    )
    plus_const = spread_plus <= level
    minus_const = spread_minus <= level
    if minus_const and not plus_const:
        return MapOrientation.PRESERVING
    if plus_const and not minus_const:
        return MapOrientation.REVERSING
    return MapOrientation.NEITHER


class AutomorphismOutcome(enum.Enum):
    PASS = "pass"
    FAIL = "fail"
    NOT_APPLICABLE = "not_applicable"


@dataclass(frozen=True)
class AutomorphismReport:
    outcome: AutomorphismOutcome
    lip: LipStatus
    forward: ChronologyReport | None = None
    inverse: ChronologyReport | None = None
    roundtrip_max: float | None = None
    orientation: MapOrientation | None = None
    axis_max: float | None = None


class _InverseChart:
    """Radar inverse of a chart, presented as a plane map."""

    def __init__(self, m: MarzkeWheelerMap):
        self.m = m

    def components(self, t, x):
        return self.m.radar_inverse_components(t, x)


def automorphism_suite(
    m: MarzkeWheelerMap,
    grid: GridSpec,
    n_pairs: int = 1000,
    seed: int = 0,
    tol: float = DEFAULT_NULL_BAND,
) -> AutomorphismReport:
    """Certify that the chart acts as a causal automorphism on the box.

    Requires a globally chartable worldline first; without that the
    suite is not applicable and says so instead of failing.  Then the
    chart and its radar inverse must both preserve chronology on
    sampled pairs, the round trip must return to the chart point, the
    chart must preserve the two ray families, and the restriction to
    the worldline's own axis must reproduce the worldline exactly.
    ``tol`` is the null band of both chronology checks.
    """
    lip = lip_status(m.observer)
    if lip.verdict is not LipVerdict.VERIFIED:
        return AutomorphismReport(AutomorphismOutcome.NOT_APPLICABLE, lip)

    s_forward, s_inverse, s_trip = _child_seeds(seed, 3)
    forward = chronology_check(m, grid, n_pairs, s_forward, tol)
    inverse = chronology_check(_InverseChart(m), grid, n_pairs, s_inverse, tol)

    rng = np.random.default_rng(s_trip)
    t, x = _draw_events(rng, grid, n_pairs)
    et, ex = m.components(t, x)
    rt, rx = m.radar_inverse_components(et, ex)
    roundtrip_max = float(np.max(np.hypot(rt - t, rx - x)))

    center = SplitComplex(
        (grid.t_min + grid.t_max) / 2.0, (grid.x_min + grid.x_max) / 2.0
    )
    orientation = orientation_of(m, center, span=grid.diameter / 4.0)

    axis_t = grid.t_nodes
    out_t, out_x = m.components(axis_t, np.zeros_like(axis_t))
    ref_t, ref_x = m.observer.position(axis_t)
    axis_max = float(
        max(np.max(np.abs(out_t - ref_t)), np.max(np.abs(out_x - ref_x)))
    )

    roundtrip_tol = 100.0 * m.root_tol * (1.0 + grid.diameter)
    ok = (
        forward.passed
        and inverse.passed
        and roundtrip_max <= roundtrip_tol
        and orientation is MapOrientation.PRESERVING
        and axis_max == 0.0
    )
    return AutomorphismReport(
        AutomorphismOutcome.PASS if ok else AutomorphismOutcome.FAIL,
        lip,
        forward,
        inverse,
        roundtrip_max,
        orientation,
        axis_max,
    )


# -- the averaging construction that is not an automorphism --------------


@dataclass(frozen=True)
class LowReport:
    """Evidence package for the two-observer averaging map.

    The map solves the wave equation componentwise and restricts on the
    axis to the sum of the two worldlines, yet it is neither
    holomorphic nor antiholomorphic and fails to respect the causal
    order: the equivalence check exhibits a witness pair.
    """

    wave: ResidualReport
    holo: ResidualReport
    antiholo: ResidualReport
    axis_max: float
    axis_ok: bool
    forward: ChronologyReport
    equivalence: ChronologyReport
    n_pairs: int
    seed: int


def _constant_spread(obs: Observer, grid: GridSpec) -> float:
    lo, hi = obs.domain
    reach = max(abs(grid.x_min), abs(grid.x_max))
    lo = max(lo, grid.t_min - reach)
    hi = min(hi, grid.t_max + reach)
    if not lo < hi:
        lo, hi = obs.domain
    s = np.linspace(lo, hi, 64)
    t, x = obs.position(s)
    return float(
        max(np.max(t) - np.min(t), np.max(x) - np.min(x))
    )


def low_counterexample(
    g1: Observer,
    g2: Observer,
    grid: GridSpec,
    seed: int = 0,
    n_pairs: int = 100000,
    tol: float = DEFAULT_NULL_BAND,
) -> LowReport:
    """Build ``F(z) = chart1(z) + chart2(conj z)`` and document it.

    ``tol`` is the null band of the chronology and equivalence checks.

    Raises
    ------
    DegenerateSplit
        If the second worldline is numerically constant over the
        working window, in which case the second term degenerates to a
        translation and the construction proves nothing.
    """
    if _constant_spread(g2, grid) <= 1e-12 * (1.0 + grid.diameter):
        raise DegenerateSplit(
            f"{g2!r} is numerically constant over the working window"
        )
    m1 = MarzkeWheelerMap(g1)
    m2 = MarzkeWheelerMap(g2)
    F = MapSum([m1, ConjugateInput(m2)])

    holo_pair = _holo_fields((1.0, -1.0))

    def combine(t_part, x_part):
        return _wave_fields(t_part[1], x_part[1]) + holo_pair(t_part[0], x_part[0])

    stencil = _Stencil(F.components, grid)
    fields, orders = stencil.sweep(stencil.both, combine)
    wave, holo, antiholo = (
        _report(f, o, grid, stencil.floor(k))
        for f, o, k in zip(fields, orders, (2, 1, 1))
    )

    axis_t = grid.t_nodes
    zeros = np.zeros_like(axis_t)
    out_t, out_x = F.components(axis_t, zeros)
    p1 = g1.position(axis_t)
    p2 = g2.position(axis_t)
    ref_t = p1[0] + p2[0]
    ref_x = p1[1] + p2[1]
    axis_max = float(
        max(np.max(np.abs(out_t - ref_t)), np.max(np.abs(out_x - ref_x)))
    )

    s_forward, s_equiv = _child_seeds(seed, 2)
    forward = chronology_check(F, grid, min(n_pairs, 10000), s_forward, tol)
    equivalence = causal_equivalence_check(F, grid, n_pairs, s_equiv, tol)

    return LowReport(
        wave,
        holo,
        antiholo,
        axis_max,
        axis_max == 0.0,
        forward,
        equivalence,
        n_pairs,
        seed,
    )
