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
locate per point.  A psi pair is dead, with psi 0.0, and is not
interpolated when a member vanishes on the window or when its bound
64 pi^2 (M+ M-)^2 / h^4, with M a member's largest value there, is at
most eps pi^2/4, one rounding unit of the half-plane pair's psi; so the
stack holds the live pairs' layers only.  The rule's nq^2 nodes are
numbered angle row by angle row, and each integrand row is summed in
``np.sum``'s pairwise order over ranges of those numbers: each leaf of
that tree is one ``interpolate_many`` call on its range of at most
max(128, _BLOCK // layers) nodes, built only then.  A row's sum has the
bits of one ``np.sum`` over the whole row, the same in any stack, while
only partial sums and one range's points and values are held.
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
# sums its integrand rows over pairwise-tree leaves of at most
# max(128, _BLOCK // k) rule nodes, one call each, so the (layers, points)
# temporaries stay at 128 KB each whatever the stack, about 1 MB in all.
_BLOCK = 16384

# Nodes a quadrature window keeps beyond its ball on each side.
_MARGIN = 3

# The psi below which a pair's evidence is written as 0.0: one rounding
# unit of pi^2/4, the psi of the half-plane pair ((x1)+, (x1)-).
_PSI_FLOOR = float(np.finfo(float).eps) * math.pi**2 / 4.0


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
    """The disk rule on B_r(center), by node number: (points, nq).

    Node k lies on angle row k // nq, at angle (k // nq + 1/2) dth, and at
    radius (k % nq + 1/2) dr.  ``points(a, b)`` returns the x, y and weight
    rk dr dth of nodes a to b - 1, and a node comes out the same in any
    range.
    """
    nq = min(_NQ, max(_NQ_MIN, math.ceil(4.0 * r / h)))
    dr = r / nq
    dth = 2.0 * math.pi / nq
    rk = (np.arange(nq) + 0.5) * dr
    th = (np.arange(nq) + 0.5) * dth
    cos, sin, weights = np.cos(th), np.sin(th), rk * dr * dth

    def points(a: int, b: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # the whole angle rows the range touches, cut to the range
        r0, r1 = a // nq, -(-b // nq)
        cut = slice(a - r0 * nq, b - r0 * nq)
        x = center[0] + rk * cos[r0:r1, None]
        y = center[1] + rk * sin[r0:r1, None]
        w = np.broadcast_to(weights, (r1 - r0, nq))
        return x.ravel()[cut], y.ravel()[cut], w.ravel()[cut]

    return points, nq


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


def _pairwise_sums(a: int, b: int, leaf: int, values) -> np.ndarray:
    """Row sums of the values of nodes a to b - 1, with the bits of one ``np.sum`` over each row.

    ``values(a, b)`` returns every row's values of nodes a to b - 1,
    (rows, b - a).  numpy sums a contiguous row of n > 128 doubles as the
    sum of its first n // 2 - (n // 2) % 8 values plus the sum of the
    rest, and a shorter row directly; so splitting the range the same way
    down to at most ``leaf`` >= 128 nodes, each summed by ``np.sum``, and
    adding the halves back up gives the same bits without holding the rows.
    """
    n = b - a
    if n <= leaf:
        return np.sum(values(a, b), axis=1)
    mid = a + n // 2 - n // 2 % 8
    return _pairwise_sums(a, mid, leaf, values) + _pairwise_sums(mid, b, leaf, values)


def _ladder_sums(grid: Grid2D, center, radii, layers, integrand) -> list[list[float]]:
    """Polar-rule integrals over B_r(center) for each r of radii, one per row of integrand.

    Checks every ball and crops once, to the nodes the largest reads;
    ``layers(rows, cols)`` builds the (fields, rows, cols) stack there, and
    ``integrand`` maps its (fields, points) values to (rows, points).  Each
    row of weighted values is summed in ``np.sum``'s pairwise order over
    ranges of at most max(128, _BLOCK // fields) nodes, so it has the bits
    of one ``np.sum`` over all its nodes, whatever the other rows.  Each
    range is one ``interpolate_many`` call on its nodes alone, built only
    then, so no radius's points or values are held all at once.  A stack
    of no fields is not interpolated: each radius gets no sums.
    """
    for r in radii:
        check_ball(grid, center, r)
    rows, cols = _crop(grid, center, radii[0])
    stack = layers(rows, cols)
    if not len(stack):
        return [[] for _ in radii]
    win = FieldWindow(grid, cols.start, rows.start, stack)
    leaf = max(128, _BLOCK // win.values.shape[0])
    out = []
    for r in radii:
        points, nq = _polar_disk(center, r, grid.h)

        def values(a, b):
            x, y, w = points(a, b)
            return integrand(interpolate_many(win, x, y)) * w

        out.append(_pairwise_sums(0, nq * nq, leaf, values).tolist())
    return out


def _gradient_squares(v: np.ndarray) -> np.ndarray:
    # layers come in (d/dx, d/dy) pairs; one |grad|^2 row per pair
    g = v.reshape(-1, 2, v.shape[-1])
    return g[:, 0] * g[:, 0] + g[:, 1] * g[:, 1]


def _psi_pairs(grid: Grid2D, center, radii, pairs: int, members) -> list[list[float]]:
    """acf_psi of each of ``pairs`` pairs on each ball: one list per pair, one value per radius.

    ``members(rows, cols)`` yields the pairs' members on the window of the
    largest ball, pair by pair; each is read as it is yielded, so the next
    may reuse its array.  A pair is dead, with psi 0.0 at every radius, and
    is not interpolated when a member vanishes on the window (r^-4 * 0 * s
    for a finite s >= 0), or when its bound B = 64 pi^2 (M+ M-)^2 / h^4 is
    at most _PSI_FLOOR.  A member's M is max(member) - min(member, 0), its
    largest value when it is nonnegative, so every value lies in a range
    of width M; a window gradient stencil is then at most 2M/h a component,
    one-sided edges included, bilinear interpolation is a convex
    combination, and the rule's weights sum to pi r^2, so B bounds psi at
    every radius.  The live pairs' gradients are formed on the window, in
    a second pass over the members, which is skipped when none is live.
    """
    live = []

    def layers(rows, cols):
        shape = (rows.stop - rows.start, cols.stop - cols.start)
        # per member: whether it vanishes, and its M
        reads = [(not f.any(), float(f.max()) - min(float(f.min()), 0.0)) for f in members(rows, cols)]
        for k in range(pairs):
            (zp, mp), (zm, mm) = reads[2 * k], reads[2 * k + 1]
            # a NaN or inf M fails the comparison, so such a pair stays live
            bound = 64.0 * math.pi**2 * (mp * mm) * (mp * mm) / grid.h**4
            if not (zp or zm or bound <= _PSI_FLOOR):
                live.append(k)
        # d/dx, d/dy of each live member in turn
        stack = np.empty((2 * len(live), 2) + shape)
        if live:
            grads = iter(stack)
            for k, f in enumerate(members(rows, cols)):
                if k // 2 in live:
                    _gradient_arrays(f, grid.h, *next(grads))
        return stack.reshape(-1, *shape)

    sums = _ladder_sums(grid, center, radii, layers, _gradient_squares)
    psi = [[0.0] * len(radii) for _ in range(pairs)]
    for j, k in enumerate(live):
        psi[k] = [1.0 / r**4 * s[2 * j] * s[2 * j + 1] for r, s in zip(radii, sums)]
    return psi


def weiss_phi(
    u: ScalarField,
    x0: tuple[float, float],
    r: float,
    lambda_plus: float,
    lambda_minus: float,
) -> float:
    """Scale-invariant energy at center x0 and radius r (planar scaling)."""
    ladder = RadiusLadder(x0, (r,))
    return float(phi_ladder(u, gradient_fields(u), ladder, lambda_plus, lambda_minus).values[0])


def acf_psi(h1: ScalarField, h2: ScalarField, z: tuple[float, float], r: float) -> float:
    """Product functional for a nonnegative pair at center z, radius r."""
    return float(psi_ladder(h1, h2, RadiusLadder(z, (r,))).values[0])


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
    x0 = ladder.center

    def layers(rows, cols):
        return np.stack([a.values[rows, cols] for a in (u, *grads)])

    def bulk(v):
        uv, gxv, gyv = v
        return (gxv * gxv + gyv * gyv
                + lambda_plus * np.maximum(uv, 0.0) + lambda_minus * np.maximum(-uv, 0.0))[None]

    sums = _ladder_sums(u.grid, x0, ladder.radii, layers, bulk)
    vals = [disk / r**4 - 2.0 * _circle_sum(u, x0, r) / r**5 for r, (disk,) in zip(ladder.radii, sums)]
    return _profile(ladder, np.array(vals))


_NEG_TOL = 1e-12


def psi_ladder(h1: ScalarField, h2: ScalarField, ladder: RadiusLadder) -> MonotonicityProfile:
    """acf_psi about the ladder's center, with monotonicity violations flagged."""
    if h1.grid != h2.grid:
        raise ValueError("pair must share a grid")
    if float(np.min(h1.values)) < -_NEG_TOL or float(np.min(h2.values)) < -_NEG_TOL:
        raise ValueError("pair members must be nonnegative (within 1e-12)")
    (psi,) = _psi_pairs(h1.grid, ladder.center, ladder.radii, 1,
                        lambda rows, cols: (h1.values[rows, cols], h2.values[rows, cols]))
    return _profile(ladder, np.array(psi))


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
    per point.  A direction along which u is monotone on the window has a
    part that vanishes there, and one whose parts are at most M+ and M-
    there has psi at most 64 pi^2 (M+ M-)^2 / h^4: when that bound is at
    most _PSI_FLOOR (eps pi^2/4), or a part vanishes, the direction's psi
    is written as 0.0 and is not interpolated.
    """
    dirs = [_unit(e) for e in directions]

    def members(rows, cols):
        wgx, wgy = (g.values[rows, cols] for g in grads)
        part = np.empty_like(wgx)
        # per direction: the positive part, then the negative part
        for ex, ey in dirs:
            de = ex * wgx + ey * wgy
            yield np.maximum(de, 0.0, out=part)
            yield np.maximum(-de, 0.0, out=part)

    psi = _psi_pairs(grads[0].grid, ladder.center, ladder.radii, len(dirs), members)
    return tuple(_profile(ladder, np.array(vals)) for vals in psi)
