"""Discrete certificates for maps of the Minkowski plane.

Everything here works on a "plane map": any object with an array-aware
``components(t, x) -> (t_out, x_out)`` method.  The module provides

* residual fields for split-holomorphy, the wave equation, and
  Lorentz-conformality, evaluated by central differences on a grid;
* randomized chronology checks: does the map preserve the strict
  causal order, and does it preserve exactly the order it should
  (the two-sided equivalence check), one chunk of pairs at a time;
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
stencil differences at the grid nodes and k its order.  Every residual
report comes from one stateless pass, :func:`_sweep`: it evaluates each
point once, in cache-sized blocks of rows (:meth:`GridSpec.row_blocks`),
reduces each block's point sets one after the other on the calling
thread and returns the finished reports, bitwise those of evaluating the
whole grid at once.  The pair checks and the round trip draw and map
chunks of the same ``_BLOCK_NODES`` (:func:`mwsync.mwmap._chunks`), and
their reports, too, are bitwise those of one whole-batch pass.
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
from .mwmap import _BLOCK_NODES, MarzkeWheelerMap, _chunks
from .observers import LipStatus, LipVerdict, Observer, _scalar, lip_status

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
        return _scalar(self, "value", f"z = ({z.t!r}, {z.x!r})",
                       self.components, np.asarray(z.t), np.asarray(z.x))


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
        if not math.isfinite(self.scale):
            raise ValueError(f"scale must be finite, got {self.scale!r}")
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
        extents = (self.t_max - self.t_min, self.x_max - self.x_min)
        if not all(0.0 < d < math.inf for d in extents):
            raise ValueError("grid box must have positive finite extent")
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


# The convergence orders that certify a solution: 2 +/- 0.4.
_ORDER_BAND = (1.6, 2.4)


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

    @property
    def at_floor(self) -> bool:
        """Does the maximum at the matched step sit at the rounding floor?"""
        return self.max_abs <= self.floor

    @property
    def passed(self) -> bool:
        """The verdict of ``mwsync check``: the maximum at the matched
        step sits at the floor, or the anisotropic order lands in
        1.6..2.4, near 2.  Exact solutions land on the floor: the
        matched stencil annihilates their truncation error, so only
        rounding remains there.  On fine grids rounding can also swamp
        the anisotropic levels, and then the floor alone decides."""
        order = self.convergence_order
        lo, hi = _ORDER_BAND
        return self.at_floor or (order is not None and lo <= order <= hi)


@dataclass(frozen=True)
class ConformalityReport(ResidualReport):
    """A :class:`ResidualReport` plus the observed range of the factor;
    it passes only where that factor is positive at every node."""

    factor_min: float
    factor_max: float
    n_nonpositive: int

    @property
    def passed(self) -> bool:
        return super().passed and self.n_nonpositive == 0


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


def _first(centre, f_up, f_dn, spans):
    """Central first differences ``(f_up - f_dn) / (up - dn)`` along one
    axis."""
    return [_divided(u - d, spans[0]) for u, d in zip(f_up, f_dn)]


def _second(centre, f_up, f_dn, spans):
    """Central second differences along one axis."""
    return [_second_diff(u, c, d, *spans[1:]) for u, c, d in zip(f_up, centre, f_dn)]


def _both(centre, *points):
    """First and second differences from one point set."""
    return _first(centre, *points), _second(centre, *points)


def _sweep(f, grid: GridSpec, part, combine, ks):
    """One stencil pass of ``f(t, x) -> tuple of arrays`` over the grid:
    the residual reports of its first ``len(ks)`` fields, whose floors
    divide by ``h**k`` for k in ``ks``, and all its matched fields.

    The nodes and realized spans of every level are checked on their full
    axis before anything is evaluated.  Each block of
    :meth:`GridSpec.row_blocks` evaluates its centre, then the five point
    sets (a step either side along one axis: fine, coarse and matched
    levels, t before x); ``part(centre, f_up, f_dn, spans)``, one of
    :func:`_first`, :func:`_second` and :func:`_both`, reduces each before
    the next is evaluated to what ``combine(t_part, x_part)`` needs to
    form the fields.  Exact charts leave only rounding at the matched
    level (h, h), so the order compares the maxima at (h_t, h_x) = (h, h/2)
    and (h/2, h/4), where the truncation term ~ h_t**2 - h_x**2 survives.
    ``f`` must return float arrays of its arguments' shape; the reductions
    work in place on temporaries, never on them.  An ``h**k`` out of
    float range raises EvaluationFailure.
    """
    h = grid.h
    nodes = {True: grid.t_nodes[:, None], False: grid.x_nodes[None, :]}
    fine_t, fine_x, coarse_t, coarse_x, matched_x = (
        (along_t, *_stencil_points(nodes[along_t], step))
        for step, along_t in (
            (h / 2.0, True), (h / 4.0, False), (h, True), (h / 2.0, False), (h, False)
        )
    )
    fields = fine = coarse = magnitude = None
    for rows, T, X in grid.row_blocks():
        centre = f(T, X)
        magnitude = _fold_max(magnitude, [np.abs(c) for c in centre])

        def reduced(axis):
            along_t, up, dn, spans = axis
            if along_t:
                up, dn, spans = up[rows], dn[rows], [s[rows] for s in spans]

            def at(coord):
                coord = np.broadcast_to(coord, T.shape).copy()
                return f(coord, X) if along_t else f(T, coord)

            return part(centre, at(up), at(dn), spans)

        t_part = reduced(fine_t)
        fine = _fold_max(fine, combine(t_part, reduced(fine_x)))
        del t_part
        t_part = reduced(coarse_t)
        coarse = _fold_max(coarse, combine(t_part, reduced(coarse_x)))
        matched = combine(t_part, reduced(matched_x))
        del t_part
        if fields is None:
            fields = [np.empty((grid.n_t, grid.n_x), block.dtype) for block in matched]
        for out, block in zip(fields, matched):
            out[rows] = block
    magnitude = float(max(magnitude))
    reports = []
    for field, coarse_max, fine_max, k in zip(fields, coarse, fine, ks):
        try:
            scale = h ** k
        except OverflowError:
            scale = math.inf
        if not 0.0 < scale < math.inf:
            raise EvaluationFailure(
                f"rounding floor needs h**{k}, out of float range for h = {h!r}"
            )
        i, j = np.unravel_index(int(np.argmax(field)), field.shape)
        reports.append(ResidualReport(
            float(field.max()), float(field.mean()),
            (float(grid.t_nodes[i]), float(grid.x_nodes[j])),
            _order(float(coarse_max), float(fine_max)),
            h, 512.0 * _EPS * (1.0 + magnitude) / scale,
        ))
    return reports, fields


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


def holomorphy_residual(F, grid: GridSpec, anti: bool = False) -> ResidualReport:
    """Central-difference residual of the split Cauchy-Riemann system.

    ``anti=True`` checks the reflected system instead (maps that are
    holomorphic after precomposing with conjugation).
    """
    (report,), _ = _sweep(
        F.components, grid, _first, _holo_fields((-1.0 if anti else 1.0,)), (1,)
    )
    return report


def wave_residual(F, grid: GridSpec) -> ResidualReport:
    """Componentwise discrete d'Alembertian of the map on the grid."""
    (report,), _ = _sweep(F.components, grid, _second, _wave_fields, (2,))
    return report


def conformality_report(F, grid: GridSpec) -> ConformalityReport:
    """Deviation of the metric pullback from a positive multiple of the
    Minkowski metric, plus the observed range of the factor."""
    (report,), (_, lam) = _sweep(F.components, grid, _first, _conformal_fields, (1,))
    return ConformalityReport(
        **vars(report), factor_min=float(lam.min()), factor_max=float(lam.max()),
        n_nonpositive=int(np.count_nonzero(~(lam > 0.0))),  # NaN included
    )


def log_factor_wave_residual(m, grid: GridSpec) -> ResidualReport:
    """Discrete d'Alembertian of ``log`` of the map's conformal factor.

    For a conformal change of coordinates on the flat plane the log
    factor is harmonic in the wave sense; this residual certifies it
    on the grid.  ``m`` must expose ``conformal_components`` (the radar
    charts do).
    """

    def log_factor(t, x):
        return (np.log(m.conformal_components(t, x)),)

    def combine(t_part, x_part):
        return (np.abs(t_part[0] - x_part[0]),)

    (report,), _ = _sweep(log_factor, grid, _second, combine, (2,))
    return report


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
    """Outcome of a randomized order-preservation check: it passes when
    no sampled pair is a witness."""

    n_pairs: int
    seed: int
    min_margin: float
    witness: WitnessPair | None

    @property
    def passed(self) -> bool:
        return self.witness is None


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


def _require_pairs(n_pairs: int):
    # A check over no pairs would pass with nothing checked.
    if n_pairs < 1:
        raise ValueError(f"n_pairs must be at least 1, got {n_pairs!r}")


def _draws(rng, grid: GridSpec, n: int, first: int, columns: int = 4):
    """Chunks of ``_BLOCK_NODES`` rows of the ``columns`` columns (t, x, t,
    x) of ``n`` events that whole-column draws from ``rng`` make after
    ``first`` such columns: each chunk of a column reads one copy of the
    bit generator, seeded from its seed sequence, not OS entropy, set to
    its state and advanced past the draws before it (PCG64's jump-ahead)."""
    bg = rng.bit_generator
    start, bits = bg.state, type(bg)(bg.seed_seq)
    g = np.random.Generator(bits)
    bounds = ((grid.t_min, grid.t_max), (grid.x_min, grid.x_max)) * (columns // 2)
    for chunk in _chunks(n):
        size = min(chunk.stop, n) - chunk.start
        drawn = []
        for k, (lo, hi) in enumerate(bounds):
            bits.state = start
            bits.advance((first + k) * n + chunk.start)
            drawn.append(g.uniform(lo, hi, size))
        yield drawn


def _chronological_pairs(rng, grid: GridSpec, n_pairs: int, tol: float):
    """``n_pairs`` decisively chronological pairs, in ``(4, _BLOCK_NODES)``
    blocks of rows ``t1, x1, t2, x2``, the last one holding the rest.

    Round ``r`` reads ``2 * n_pairs`` unordered pairs, columns ``4 * r`` on
    of :func:`_draws`, and keeps those with squared interval at least
    ``(diameter/10)**2`` and above the null band (read off the unordered
    separation, whose negation is exact) up to the pairs still missing,
    ordered in time in a block, which goes out once full.  Freeing 1 MiB
    blocks keeps glibc from trimming its heap between chunks.  Drawing
    stops at ``n_pairs`` kept; 200 rounds short of them raise.
    """
    need_q = _decisive_q(grid)
    have, fill, block = 0, 0, np.empty((4, min(_BLOCK_NODES, n_pairs)))
    for r in range(200):
        for drawn in _draws(rng, grid, 2 * n_pairs, 4 * r):
            q, band, _ = cone(drawn[2] - drawn[0], drawn[3] - drawn[1], tol)
            picked = np.flatnonzero((q >= need_q) & (q > band))[: n_pairs - have]
            del q, band, _  # not held while F runs on a yielded block
            for part in np.split(picked, [block.shape[1] - fill]):
                rows = block[:, fill:fill + part.size]
                for row, column in zip(rows, drawn):
                    np.take(column, part, out=row)
                late = ~(rows[0] <= rows[2])
                rows[:, late] = rows[:, late][[2, 3, 0, 1]]
                fill += part.size
                have += part.size
                if fill == block.shape[1]:
                    yield block
                    if have == n_pairs:
                        return
                    block, fill = np.empty((4, min(_BLOCK_NODES, n_pairs - have))), 0
    raise EvaluationFailure("could not sample decisively chronological pairs in the box")


def _fold_pairs(F, chunks, tol: float, judge):
    """Count, least score and witness of the pairs under ``F``, one chunk
    ``(t1, x1, t2, x2)`` of ``chunks`` at a time, in order.

    ``judge(inputs, margins, band)`` gets a chunk's inputs and the
    :func:`cone` margins and band of their images, and returns the scores
    of the pairs that count and the mask of failing pairs.  The least
    score is bitwise ``min`` over all scores (NaN when none count); a NaN
    wins the ``np.minimum`` fold.  The witness is the first failing pair
    in input order, classified once every chunk has been through ``F``.
    """
    n, least, found, zeros = 0, math.inf, None, []
    for inputs in chunks:
        outputs = (*F.components(*inputs[:2]), *F.components(*inputs[2:]))
        _, band, margins = cone(outputs[2] - outputs[0], outputs[3] - outputs[1], tol)
        scores, failing = judge(inputs, margins, band)
        if scores.size:
            least = np.minimum(least, scores.min())
            at = np.flatnonzero(scores == 0.0)
            zeros.append((n + at, scores[at]))
        n += scores.size
        if found is None and failing.any():
            i = [int(np.argmax(failing))]  # copies of the pair, not views of the chunk
            found = [a[i] for a in inputs], [a[i] for a in outputs]
    if least == 0.0:
        # Which of 0.0 and -0.0 ``min`` returns depends only on where the
        # zeros sit, so +inf in place of every other score keeps its answer.
        in_place = np.full(n, math.inf)
        for at, values in zeros:
            in_place[at] = values
        least = in_place.min()
    witness = None if found is None else _witness(0, *found, tol)
    return n, float(least) if n else math.nan, witness


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
    The first failure is returned as the witness.  ``F`` sees each chunk of
    ``_BLOCK_NODES`` pairs once sampled, so a map error can come before a
    sampling failure.  ``n_pairs`` below 1 raises ValueError.
    """
    _require_pairs(n_pairs)
    pairs = _chronological_pairs(np.random.default_rng(seed), grid, n_pairs, tol)
    n, min_margin, witness = _fold_pairs(
        F, pairs, tol, lambda inputs, margins, band: (margins, ~(margins > band))
    )
    return ChronologyReport(n, int(seed), min_margin, witness)


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
    counted either way.  The events are drawn, tested and mapped one
    chunk of ``_BLOCK_NODES`` pairs at a time (:func:`_draws`).
    ``n_pairs`` below 1 raises ValueError.
    """
    _require_pairs(n_pairs)
    dec_q = _decisive_q(grid)
    pairs = _draws(np.random.default_rng(seed), grid, n_pairs, 0)

    def judge(inputs, m_out, band):
        t1, x1, t2, x2 = inputs
        q_in, band_in, m_in = cone(t2 - t1, x2 - x1, tol)
        in_decisive = (np.abs(q_in) >= dec_q) & (np.abs(q_in) > band_in)
        score = np.where(m_in >= dec_q, m_out, -m_out)
        counted = in_decisive & (np.abs(m_out) > 10.0 * band)
        return score[counted], counted & (score < 0.0)

    n, min_margin, witness = _fold_pairs(F, pairs, tol, judge)
    return ChronologyReport(n, int(seed), min_margin, witness)


# -- orientation and the automorphism suite ------------------------------


# Samples along the probed ray, and the relative spread of a constant level.
_ORIENTATION_NODES = 65
_ORIENTATION_TOL = 1e-8


class MapOrientation(enum.Enum):
    PRESERVING = "preserving"
    REVERSING = "reversing"
    NEITHER = "neither"


def orientation_of(F, probe: SplitComplex = ZERO, span: float = 1.0) -> MapOrientation:
    """Which ray family does the image of a right-moving ray lie in?

    Samples the ray of constant ``t - x`` through ``probe`` at
    ``_ORIENTATION_NODES`` points.  If the image keeps ``t - x``
    constant (to ``_ORIENTATION_TOL``) the map preserves the two null
    directions; if it keeps ``t + x`` constant instead, the map swaps
    them; if neither level stays constant the map does not act on rays
    at all.
    """
    zeta_plus = (probe.t + probe.x) + np.linspace(0.0, span, _ORIENTATION_NODES)
    zeta_minus = np.full(_ORIENTATION_NODES, probe.t - probe.x)
    t = (zeta_plus + zeta_minus) / 2.0
    x = (zeta_plus - zeta_minus) / 2.0
    out_t, out_x = F.components(t, x)
    plus = out_t + out_x
    minus = out_t - out_x
    spread_plus = float(plus.max() - plus.min())
    spread_minus = float(minus.max() - minus.min())
    level = _ORIENTATION_TOL * (
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


def _axis_max(F, grid: GridSpec, ref_position) -> float:
    """Largest componentwise gap between ``F`` on the axis x = 0 and the
    worldline ``ref_position`` at the grid's t nodes."""
    axis_t = grid.t_nodes
    out_t, out_x = F.components(axis_t, np.zeros_like(axis_t))
    ref_t, ref_x = ref_position(axis_t)
    return float(max(np.max(np.abs(out_t - ref_t)), np.max(np.abs(out_x - ref_x))))


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
    ``tol`` is the null band of both chronology checks.  The chart, its
    radar inverse and the round trip see one chunk of ``_BLOCK_NODES``
    pairs or events at a time.  ``n_pairs`` below 1 raises ValueError.
    """
    _require_pairs(n_pairs)
    lip = lip_status(m.observer)
    if lip.verdict is not LipVerdict.VERIFIED:
        return AutomorphismReport(AutomorphismOutcome.NOT_APPLICABLE, lip)

    s_forward, s_inverse, s_trip = _child_seeds(seed, 3)
    forward = chronology_check(m, grid, n_pairs, s_forward, tol)
    inverse = chronology_check(_InverseChart(m), grid, n_pairs, s_inverse, tol)

    roundtrip_max = -math.inf
    for t, x in _draws(np.random.default_rng(s_trip), grid, n_pairs, 0, columns=2):
        rt, rx = m.radar_inverse_components(*m.components(t, x))
        roundtrip_max = np.maximum(roundtrip_max, np.hypot(rt - t, rx - x).max())
    roundtrip_max = float(roundtrip_max)

    center = SplitComplex(
        (grid.t_min + grid.t_max) / 2.0, (grid.x_min + grid.x_max) / 2.0
    )
    orientation = orientation_of(m, center, span=grid.diameter / 4.0)

    axis_max = _axis_max(m, grid, m.observer.position)

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
    forward: ChronologyReport
    equivalence: ChronologyReport
    n_pairs: int
    seed: int

    @property
    def axis_ok(self) -> bool:
        return self.axis_max == 0.0

    @property
    def passed(self) -> bool:
        """The verdict of ``mwsync counterexample``: a witness is found,
        the axis reproduces the curve sum, and the wave residual sits at
        its rounding floor (the floor alone, not the order)."""
        return not self.equivalence.passed and self.axis_ok and self.wave.at_floor


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
    ValueError
        If ``n_pairs`` is below 1, before any stencil or sampling work.
    DegenerateSplit
        If the second worldline is numerically constant over the
        working window, in which case the second term degenerates to a
        translation and the construction proves nothing.
    """
    _require_pairs(n_pairs)
    if _constant_spread(g2, grid) <= 1e-12 * grid.diameter:
        raise DegenerateSplit(
            f"{g2!r} is numerically constant over the working window"
        )
    m1 = MarzkeWheelerMap(g1)
    m2 = MarzkeWheelerMap(g2)
    F = MapSum([m1, ConjugateInput(m2)])

    holo_pair = _holo_fields((1.0, -1.0))

    def combine(t_part, x_part):
        return _wave_fields(t_part[1], x_part[1]) + holo_pair(t_part[0], x_part[0])

    (wave, holo, antiholo), _ = _sweep(F.components, grid, _both, combine, (2, 1, 1))

    axis_max = _axis_max(
        F, grid, lambda t: tuple(map(add, g1.position(t), g2.position(t)))
    )

    s_forward, s_equiv = _child_seeds(seed, 2)
    forward = chronology_check(F, grid, min(n_pairs, 10000), s_forward, tol)
    equivalence = causal_equivalence_check(F, grid, n_pairs, s_equiv, tol)

    return LowReport(
        wave, holo, antiholo, axis_max, forward, equivalence, n_pairs, seed
    )
