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
rule.  The integrands are bilinearly interpolated, and every disk integral
goes through one kernel that interpolates all the fields it needs from a
single locate per point.  Circle integrals (s_norm, the boundary term of
weiss_phi, and with them every blow-up) always use the 256-node periodic
trapezoid rule.  Gradients come from interpolated central difference
fields.  All functions are pure; ladders may be evaluated in parallel by
the caller.
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
    float_repr,
    gradient_fields,
    interpolate_many,
)


# Nodes of the circle rule, and the most radial and angular cells the disk
# rule takes.
_NQ = 256

# The disk rule takes 4 cells per grid step of the radius, but at least
# _NQ_MIN; so r >= 64h gets the full _NQ.
_NQ_MIN = 32

# Points per interpolate_many call of the disk kernel: bounds the
# (fields, points) temporaries of a 16-field stack to about 1 MB.
_BLOCK = 1024

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
        if len(r) == 0:
            raise ValueError("ladder needs at least one radius")
        if any(x <= 0.0 for x in r):
            raise ValueError("ladder radii must be positive")
        if any(r[k] <= r[k + 1] for k in range(len(r) - 1)):
            raise ValueError("ladder radii must be strictly decreasing")
        object.__setattr__(self, "radii", r)
        object.__setattr__(self, "center", (float(self.center[0]), float(self.center[1])))


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

    def to_csv(self, path: str) -> None:
        flagged = {pair[0] for pair in self.violations}
        lines = ["r,value,violation_flag"]
        for r, v in zip(self.ladder.radii, self.values):
            lines.append(f"{float_repr(r)},{float_repr(v)},{1 if r in flagged else 0}")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def _check_ball(grid: Grid2D, center: tuple[float, float], r: float) -> None:
    if r <= 2.0 * grid.h:
        raise ValueError(f"radius {r} under-resolved for spacing {grid.h}")
    if not grid.contains_ball(center, r):
        raise ValueError(f"ball of radius {r} at {center} exits the grid")


def _polar_disk(center, r, h):
    nq = min(_NQ, max(_NQ_MIN, math.ceil(4.0 * r / h)))
    dr = r / nq
    dth = 2.0 * math.pi / nq
    rk = (np.arange(nq) + 0.5) * dr
    th = (np.arange(nq) + 0.5) * dth
    R, T = np.meshgrid(rk, th)
    xs = center[0] + R * np.cos(T)
    ys = center[1] + R * np.sin(T)
    w = R * dr * dth
    return xs.ravel(), ys.ravel(), w.ravel()


def _circle(center, r):
    th = 2.0 * math.pi * np.arange(_NQ) / _NQ
    xs = center[0] + r * np.cos(th)
    ys = center[1] + r * np.sin(th)
    w = r * (2.0 * math.pi / _NQ)
    return xs, ys, w


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


def _window(grid: Grid2D, center, r: float, arrays) -> FieldWindow:
    rows, cols = _crop(grid, center, r)
    return FieldWindow(grid, cols.start, rows.start, np.stack([a[rows, cols] for a in arrays]))


def _disk_sums(win: FieldWindow, center, r: float, integrand) -> list[float]:
    """Polar-rule integrals over B_r(center), one per row of integrand(values).

    ``integrand`` maps the (fields, points) values of the window's stack to
    (rows, points).  This is the one disk quadrature of the package: the
    points pass through ``interpolate_many`` in blocks of _BLOCK, each one
    located once for the whole stack, and each row is summed in one pass.
    """
    xs, ys, w = _polar_disk(center, r, win.grid.h)
    rows = None
    for s in range(0, w.size, _BLOCK):
        b = slice(s, s + _BLOCK)
        part = integrand(interpolate_many(win, xs[b], ys[b]))
        if rows is None:
            rows = np.empty((part.shape[0], w.size))
        rows[:, b] = part
    rows *= w
    return [float(np.sum(row)) for row in rows]


def _gradient_squares(v: np.ndarray) -> np.ndarray:
    # layers come in (d/dx, d/dy) pairs; one |grad|^2 row per pair
    g = v.reshape(-1, 2, v.shape[-1])
    return g[:, 0] * g[:, 0] + g[:, 1] * g[:, 1]


def _products(sums: list[float], r: float) -> list[float]:
    # acf_psi of each consecutive pair of Dirichlet integrals
    return [1.0 / r**4 * sums[k] * sums[k + 1] for k in range(0, len(sums), 2)]


def _phi_values(u: ScalarField, grads, x0, radii, lambda_plus: float, lambda_minus: float) -> list[float]:
    for r in radii:
        _check_ball(u.grid, x0, r)
    gx, gy = grads
    win = _window(u.grid, x0, radii[0], (u.values, gx.values, gy.values))

    def bulk(v):
        uv, gxv, gyv = v
        return (gxv * gxv + gyv * gyv
                + lambda_plus * np.maximum(uv, 0.0) + lambda_minus * np.maximum(-uv, 0.0))[None]

    out = []
    for r in radii:
        (disk,) = _disk_sums(win, x0, r, bulk)
        cx, cy, cw = _circle(x0, r)
        ring = float(np.sum(interpolate_many(u, cx, cy) ** 2) * cw)
        out.append(disk / r**4 - 2.0 * ring / r**5)
    return out


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
    for r in radii:
        _check_ball(h1.grid, z, r)
    if float(np.min(h1.values)) < -_NEG_TOL or float(np.min(h2.values)) < -_NEG_TOL:
        raise ValueError("pair members must be nonnegative (within 1e-12)")
    (g1x, g1y), (g2x, g2y) = gradient_fields(h1), gradient_fields(h2)
    win = _window(h1.grid, z, radii[0], (g1x.values, g1y.values, g2x.values, g2y.values))
    return [_products(_disk_sums(win, z, r, _gradient_squares), r)[0] for r in radii]


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
    _check_ball(u.grid, y, r)
    xs, ys, w = _circle(y, r)
    integral = float(np.sum(interpolate_many(u, xs, ys) ** 2) * w)
    return math.sqrt(integral / r)


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
    s = s_norm(u, y, r)
    if s == 0.0:
        raise DegenerateRescaleError(f"field vanishes on the circle of radius {r} at {y}")
    X, Y = target.meshgrid()
    xs = y[0] + r * X.ravel()
    ys = y[1] + r * Y.ravel()
    vals = interpolate_many(u, xs, ys) / s
    return ScalarField(target, vals.reshape(target.shape))


def _default_tol(values: np.ndarray) -> float:
    return 1e-2 * float(np.max(np.abs(values))) + 1e-8


def _violations(radii, values, tol):
    out = []
    for k in range(len(radii) - 1):
        # radii decrease with k; flag when the smaller radius wins by > tol
        if values[k + 1] > values[k] + tol:
            out.append((radii[k + 1], radii[k]))
    return tuple(out)


def _profile(ladder: RadiusLadder, vals: np.ndarray) -> MonotonicityProfile:
    tol = _default_tol(vals)
    return MonotonicityProfile(ladder, tuple(vals), _violations(ladder.radii, vals, tol), tol)


def phi_ladder(
    u: ScalarField,
    grads: tuple[ScalarField, ScalarField],
    x0: tuple[float, float],
    ladder: RadiusLadder,
    lambda_plus: float,
    lambda_minus: float,
) -> MonotonicityProfile:
    """weiss_phi along a ladder with monotonicity violations flagged.

    ``grads`` are u's ``gradient_fields``, taken once per field.
    """
    return _profile(ladder, np.array(_phi_values(u, grads, x0, ladder.radii, lambda_plus, lambda_minus)))


def psi_ladder(
    h1: ScalarField,
    h2: ScalarField,
    z: tuple[float, float],
    ladder: RadiusLadder,
) -> MonotonicityProfile:
    """acf_psi along a ladder with monotonicity violations flagged."""
    return _profile(ladder, np.array(_psi_values(h1, h2, z, ladder.radii)))


def directional_psi(
    grads: tuple[ScalarField, ScalarField],
    z: tuple[float, float],
    ladder: RadiusLadder,
    directions,
) -> tuple[MonotonicityProfile, ...]:
    """psi_ladder of the directional parts of u along each unit direction.

    ``grads`` are u's ``gradient_fields``.  The parts and their gradients
    are formed only on the window of the ladder's largest ball, where they
    equal ``directional_parts`` and its gradients bit for bit, and each
    radius interpolates all of them from one locate per point.
    """
    dirs = [_unit(e) for e in directions]
    gx, gy = grads
    g = gx.grid
    for r in ladder.radii:
        _check_ball(g, z, r)
    rows, cols = _crop(g, z, ladder.radii[0])
    wgx, wgy = gx.values[rows, cols], gy.values[rows, cols]
    # layers per direction: d/dx, d/dy of the positive part, then of the negative part
    stack = np.empty((len(dirs), 2, 2) + wgx.shape)
    for k, (ex, ey) in enumerate(dirs):
        de = ex * wgx + ey * wgy
        parts = np.stack([np.maximum(de, 0.0), np.maximum(-de, 0.0)])
        stack[k, :, 0], stack[k, :, 1] = _gradient_arrays(parts, g.h)
    win = FieldWindow(g, cols.start, rows.start, stack.reshape(-1, *wgx.shape))
    per_radius = [_products(_disk_sums(win, z, r, _gradient_squares), r) for r in ladder.radii]
    return tuple(_profile(ladder, np.array(vals)) for vals in zip(*per_radius))
