"""Radius-indexed monotone functionals and blow-up rescaling.

Two functionals drive the blow-up analysis:

* ``weiss_phi``: the scale-invariant energy
  r^-4 * int_{B_r} (|grad u|^2 + lp u+ + lm u-)  -  2 r^-5 * int_{bd B_r} u^2,
  constant in r exactly when u is 2-homogeneous about the center.

* ``acf_psi``: the product functional
  r^-4 * int_{B_r} |grad h1|^2 * int_{B_r} |grad h2|^2
  for a nonnegative pair (the planar weight is trivial), nondecreasing in r
  when the pair are subharmonic with disjoint supports.

Disk integrals use a polar midpoint rule of nq radial x nq angular cells,
nq = min(256, max(32, ceil(4 r / h))) on a grid of step h: 4 cells per
grid step of the radius, so radii of 64 steps or more get the full 256^2
rule.  The integrands are bilinearly interpolated.  Every disk integral
goes through one ladder evaluator, which crops the fields once to the
nodes the ladder's largest ball reads, forms the layers it needs there
(a psi pair's gradients and the directional parts equal the full fields'
bit for bit on that window), and interpolates the whole stack from one
locate per point.  Each integrand row is summed in ``np.sum``'s pairwise
order, and each node of that tree is one ``interpolate_many`` call of at
most max(128, _BLOCK // layers) points, the next ones of the rule, built
only then: a row's sum has the bits of one ``np.sum`` over the whole
row, the same in any stack, while only partial sums and one node's
points and values are held.
``freeboundary.FieldAnalysis`` evaluates ``directional_psi`` once
per field and ladder, along the four classification directions, and
keeps the result.  Circle integrals (s_norm, the boundary term of
weiss_phi, and with them every blow-up) always use the 256-node periodic
trapezoid rule.  All functions are pure; ladders may be evaluated in
parallel by the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import (
    FieldWindow,
    Grid2D,
    ScalarField,
    _gradient_arrays,
    gradient_fields,
    interpolate_many,
)


# Nodes of the circle rule, and the most radial and angular cells the disk
# rule takes.
_NQ = 256

# The disk rule takes 4 cells per grid step of the radius, but at least
# _NQ_MIN; so r >= 64h gets the full _NQ.
_NQ_MIN = 32

# Values per interpolate_many call of the disk kernel: a stack of k layers
# sums its integrand rows over pairwise-tree nodes of at most
# max(128, _BLOCK // k) points, one call each, so the (layers, points)
# temporaries stay at 128 KB each whatever the stack, about 1 MB in all.
_BLOCK = 16384

# Nodes a quadrature window keeps beyond its ball on each side.
_MARGIN = 3


class DegenerateRescaleError(ValueError):
    """The circle normalization vanished (field is zero on the circle)."""


@dataclass(frozen=True)
class RadiusLadder:
    """Strictly decreasing list of evaluation radii around a center."""

    center: tuple[float, float]
    radii: tuple[float, ...]

    def __post_init__(self) -> None:
        r = tuple(float(x) for x in self.radii)
        c = (float(self.center[0]), float(self.center[1]))
        if len(r) == 0:
            raise ValueError("ladder needs at least one radius")
        # NaN passes every comparison below, and a NaN ladder never equals itself
        for name, vals in (("center", c), ("radius", r)):
            for x in vals:
                if not math.isfinite(x):
                    raise ValueError(f"ladder {name} must be finite, got {x!r}")
        if any(x <= 0.0 for x in r):
            raise ValueError("ladder radii must be positive")
        if any(r[k] <= r[k + 1] for k in range(len(r) - 1)):
            raise ValueError("ladder radii must be strictly decreasing")
        object.__setattr__(self, "radii", r)
        object.__setattr__(self, "center", c)


@dataclass(frozen=True)
class MonotonicityProfile:
    """Functional values along a ladder plus flagged monotonicity breaks.

    ``violations`` lists (r_smaller, r_larger) for adjacent radius pairs
    where the smaller radius carried the larger value beyond tolerance.
    """

    ladder: RadiusLadder
    values: tuple[float, ...]
    violations: tuple[tuple[float, float], ...]
    tol_mono: float


def check_ball(grid: Grid2D, center: tuple[float, float], r: float) -> None:
    """Raise ValueError unless r exceeds 2 grid steps and the ball lies in the grid."""
    if r <= 2.0 * grid.h:
        raise ValueError(f"radius {r} under-resolved for spacing {grid.h}")
    if not grid.contains_ball(center, r):
        raise ValueError(f"ball of radius {r} at {center} exits the grid")


def _polar_disk(center, r, h):
    """The disk rule on B_r(center), by angle rows: (points, weights).

    ``points(rows)`` returns the raveled x and y of the angle rows
    ``rows``, a slice: row i holds the nq points at angle (i + 1/2) dth,
    one per radius (k + 1/2) dr, and a point comes out the same in any
    slice.  ``weights`` holds each radius's weight rk dr dth, the same on
    every row; its size is nq.
    """
    nq = min(_NQ, max(_NQ_MIN, math.ceil(4.0 * r / h)))
    dr = r / nq
    dth = 2.0 * math.pi / nq
    rk = (np.arange(nq) + 0.5) * dr
    th = ((np.arange(nq) + 0.5) * dth)[:, None]
    cos, sin = np.cos(th), np.sin(th)

    def points(rows: slice) -> tuple[np.ndarray, np.ndarray]:
        return (center[0] + rk * cos[rows]).ravel(), (center[1] + rk * sin[rows]).ravel()

    return points, rk * dr * dth


def _circle(center, r):
    th = 2.0 * math.pi * np.arange(_NQ) / _NQ
    xs = center[0] + r * np.cos(th)
    ys = center[1] + r * np.sin(th)
    w = r * (2.0 * math.pi / _NQ)
    return xs, ys, w


def _circle_sum(u: ScalarField, center, r: float) -> float:
    """int_{bd B_r(center)} u^2 by the circle rule; the one circle integral."""
    xs, ys, w = _circle(center, r)
    return float(np.sum(interpolate_many(u, xs, ys) ** 2) * w)


def _crop(grid: Grid2D, center, r: float) -> tuple[slice, slice]:
    """Rows and columns of the nodes quadrature on B_r(center) reads.

    The box around the ball is widened by _MARGIN nodes and clipped to the
    grid, so a window keeps both neighbours of every node a point
    interpolates from.
    """
    h = grid.h
    i_lo = max(0, math.floor((center[0] - r - grid.x_min) / h) - _MARGIN)
    i_hi = min(grid.nx, math.ceil((center[0] + r - grid.x_min) / h) + 1 + _MARGIN)
    j_lo = max(0, math.floor((center[1] - r - grid.y_min) / h) - _MARGIN)
    j_hi = min(grid.ny, math.ceil((center[1] + r - grid.y_min) / h) + 1 + _MARGIN)
    return slice(j_lo, j_hi), slice(i_lo, i_hi)


def _pairwise_sums(n: int, leaf: int, take) -> np.ndarray:
    """Row sums of n streamed values, each with the bits of one ``np.sum`` over its row.

    ``take(m)`` returns the next m values of every row, (rows, m).  numpy
    sums a contiguous row of more than 128 doubles as the sum of its first
    n // 2 - (n // 2) % 8 values plus the sum of the rest, and a shorter
    row directly; so splitting the same way down to nodes of at most
    ``leaf`` >= 128 values, each summed by ``np.sum``, and adding the
    halves back up gives the same bits without holding the rows.
    """
    if n <= leaf:
        return np.sum(take(n), axis=1)
    n2 = n // 2 - n // 2 % 8
    # the left half is taken first: Python evaluates the operands in order
    return _pairwise_sums(n2, leaf, take) + _pairwise_sums(n - n2, leaf, take)


def _ladder_sums(grid: Grid2D, center, radii, layers, integrand) -> list[list[float]]:
    """Polar-rule integrals over B_r(center) for each r of radii, one per row of integrand.

    Checks every ball and crops once, to the nodes the largest reads;
    ``layers(rows, cols)`` builds the (fields, rows, cols) stack there, and
    ``integrand`` maps its (fields, points) values to (rows, points).  Each
    row of weighted values is summed in ``np.sum``'s pairwise order over
    nodes of at most max(128, _BLOCK // fields) values, so it has the bits
    of one ``np.sum`` over all its points, whatever the other rows.  Each
    node is one ``interpolate_many`` call: its points, the next ones of the
    rule, angle row after angle row, are cut from the rows they span only
    then, so no radius's points or values are held all at once.
    """
    for r in radii:
        check_ball(grid, center, r)
    rows, cols = _crop(grid, center, radii[0])
    win = FieldWindow(grid, cols.start, rows.start, layers(rows, cols))
    leaf = max(128, _BLOCK // win.values.shape[0])
    out = []
    for r in radii:
        points, weights = _polar_disk(center, r, grid.h)
        nq = weights.size
        start = 0

        def take(m):
            nonlocal start
            a, lo = divmod(start, nq)
            b = -(-(start + m) // nq)
            cut = slice(lo, lo + m)
            start += m
            part = integrand(interpolate_many(win, *(xy[cut] for xy in points(slice(a, b)))))
            # each value times the weight of its radius, the index within its angle row
            return part * np.tile(weights, b - a)[cut]

        out.append(_pairwise_sums(nq * nq, leaf, take).tolist())
    return out


def _gradient_squares(v: np.ndarray) -> np.ndarray:
    # layers come in (d/dx, d/dy) pairs; one |grad|^2 row per pair
    g = v.reshape(-1, 2, v.shape[-1])
    return g[:, 0] * g[:, 0] + g[:, 1] * g[:, 1]


def _products(sums: list[float], r: float) -> list[float]:
    # acf_psi of each consecutive pair of Dirichlet integrals
    return [1.0 / r**4 * sums[k] * sums[k + 1] for k in range(0, len(sums), 2)]


def _phi_values(u: ScalarField, grads, x0, radii, lambda_plus: float, lambda_minus: float) -> list[float]:
    def layers(rows, cols):
        return np.stack([a.values[rows, cols] for a in (u, *grads)])

    def bulk(v):
        uv, gxv, gyv = v
        return (gxv * gxv + gyv * gyv
                + lambda_plus * np.maximum(uv, 0.0) + lambda_minus * np.maximum(-uv, 0.0))[None]

    sums = _ladder_sums(u.grid, x0, radii, layers, bulk)
    return [disk / r**4 - 2.0 * _circle_sum(u, x0, r) / r**5 for r, (disk,) in zip(radii, sums)]


def weiss_phi(
    u: ScalarField,
    x0: tuple[float, float],
    r: float,
    lambda_plus: float,
    lambda_minus: float,
) -> float:
    """Scale-invariant energy at center x0 and radius r (planar scaling)."""
    return _phi_values(u, gradient_fields(u), x0, (r,), lambda_plus, lambda_minus)[0]


_NEG_TOL = 1e-12


def _psi_values(h1: ScalarField, h2: ScalarField, z, radii) -> list[float]:
    if h1.grid != h2.grid:
        raise ValueError("pair must share a grid")
    if float(np.min(h1.values)) < -_NEG_TOL or float(np.min(h2.values)) < -_NEG_TOL:
        raise ValueError("pair members must be nonnegative (within 1e-12)")

    def layers(rows, cols):
        # d/dx, d/dy of h1, then of h2
        stack = np.empty((2, 2) + h1.values[rows, cols].shape)
        for f, grad in zip((h1, h2), stack):
            _gradient_arrays(f.values[rows, cols], f.grid.h, *grad)
        return stack.reshape(4, *stack.shape[2:])

    sums = _ladder_sums(h1.grid, z, radii, layers, _gradient_squares)
    return [_products(disk, r)[0] for r, disk in zip(radii, sums)]


def acf_psi(h1: ScalarField, h2: ScalarField, z: tuple[float, float], r: float) -> float:
    """Product functional for a nonnegative pair at center z, radius r."""
    return _psi_values(h1, h2, z, (r,))[0]


def _unit(e) -> tuple[float, float]:
    ex, ey = float(e[0]), float(e[1])
    if abs(math.hypot(ex, ey) - 1.0) > 1e-12:
        raise ValueError("direction must be a unit vector")
    return ex, ey


def directional_parts(u: ScalarField, e: tuple[float, float]) -> tuple[ScalarField, ScalarField]:
    """Positive and negative parts of the directional derivative along e.

    e must be a unit vector (within 1e-12).  Central differences inside,
    second-order one-sided stencils on the ring.
    """
    ex, ey = _unit(e)
    gx, gy = gradient_fields(u)
    de = ex * gx.values + ey * gy.values
    return (
        ScalarField(u.grid, np.maximum(de, 0.0)),
        ScalarField(u.grid, np.maximum(-de, 0.0)),
    )


def s_norm(u: ScalarField, y: tuple[float, float], r: float) -> float:
    """Circle normalization S_r with r^(n-1) S_r^2 = int_{bd B_r} u^2."""
    check_ball(u.grid, y, r)
    return math.sqrt(_circle_sum(u, y, r) / r)


def _nonzero_s_norm(u: ScalarField, y: tuple[float, float], r: float) -> float:
    """s_norm, raising DegenerateRescaleError when S_r vanishes."""
    s = s_norm(u, y, r)
    if s == 0.0:
        raise DegenerateRescaleError(f"field vanishes on the circle of radius {r} at {y}")
    return s


def blowup_rescale(
    u: ScalarField,
    y: tuple[float, float],
    r: float,
    target: Grid2D,
) -> ScalarField:
    """Circle-normalized rescaling u(y + r x) / S_r sampled on a target grid.

    The target nodes (scaled by r and shifted to y) must land inside the
    source grid.  Raises DegenerateRescaleError when S_r vanishes.
    """
    s = _nonzero_s_norm(u, y, r)
    X, Y = target.meshgrid()
    xs = y[0] + r * X.ravel()
    ys = y[1] + r * Y.ravel()
    vals = interpolate_many(u, xs, ys) / s
    return ScalarField(target, vals.reshape(target.shape))


def _profile(ladder: RadiusLadder, vals: np.ndarray) -> MonotonicityProfile:
    """The profile of vals along ladder, flagged at tolerance 1e-2 max |vals| + 1e-8."""
    tol = 1e-2 * float(np.max(np.abs(vals))) + 1e-8
    r = ladder.radii
    # radii decrease with k; flag when the smaller radius wins by > tol
    flags = tuple((r[k + 1], r[k]) for k in range(len(r) - 1) if vals[k + 1] > vals[k] + tol)
    return MonotonicityProfile(ladder, tuple(vals), flags, tol)


def phi_ladder(
    u: ScalarField,
    grads: tuple[ScalarField, ScalarField],
    ladder: RadiusLadder,
    lambda_plus: float,
    lambda_minus: float,
) -> MonotonicityProfile:
    """weiss_phi about the ladder's center, with monotonicity violations flagged.

    ``grads`` are u's ``gradient_fields``, taken once per field.
    """
    vals = _phi_values(u, grads, ladder.center, ladder.radii, lambda_plus, lambda_minus)
    return _profile(ladder, np.array(vals))


def psi_ladder(h1: ScalarField, h2: ScalarField, ladder: RadiusLadder) -> MonotonicityProfile:
    """acf_psi about the ladder's center, with monotonicity violations flagged."""
    return _profile(ladder, np.array(_psi_values(h1, h2, ladder.center, ladder.radii)))


def directional_psi(
    grads: tuple[ScalarField, ScalarField],
    ladder: RadiusLadder,
    directions,
) -> tuple[MonotonicityProfile, ...]:
    """psi_ladder of the directional parts of u along each unit direction.

    ``grads`` are u's ``gradient_fields``; the center is the ladder's.  The
    parts and their gradients are formed only on the window of the ladder's
    largest ball, where they equal ``directional_parts`` and its gradients
    bit for bit, and each radius interpolates all of them from one locate
    per point.
    """
    dirs = [_unit(e) for e in directions]
    gx, gy = grads
    g = gx.grid

    def layers(rows, cols):
        wgx, wgy = gx.values[rows, cols], gy.values[rows, cols]
        # per direction: d/dx, d/dy of the positive part, then of the negative part
        stack = np.empty((len(dirs), 2, 2) + wgx.shape)
        part = np.empty_like(wgx)
        for (ex, ey), out in zip(dirs, stack):
            de = ex * wgx + ey * wgy
            for d, grad in zip((de, -de), out):
                _gradient_arrays(np.maximum(d, 0.0, out=part), g.h, *grad)
        return stack.reshape(-1, *wgx.shape)

    sums = _ladder_sums(g, ladder.center, ladder.radii, layers, _gradient_squares)
    per_radius = [_products(disk, r) for r, disk in zip(ladder.radii, sums)]
    return tuple(_profile(ladder, np.array(vals)) for vals in zip(*per_radius))
