"""Radius-indexed monotone functionals and blow-up rescaling.

Two functionals drive the blow-up analysis:

* ``weiss_phi``: the scale-invariant energy
  r^-4 * int_{B_r} (|grad u|^2 + lp u+ + lm u-)  -  2 r^-5 * int_{bd B_r} u^2,
  constant in r exactly when u is 2-homogeneous about the center.

* ``acf_psi``: the product functional
  r^-4 * int_{B_r} |grad h1|^2 * int_{B_r} |grad h2|^2
  for a nonnegative pair (the planar weight is trivial), nondecreasing in r
  when the pair are subharmonic with disjoint supports.

Disk integrals use a polar midpoint rule (_NQ radial x _NQ angular cells)
on bilinearly interpolated integrands; circle integrals use the _NQ-node
periodic trapezoid rule.  Gradients come from interpolated central
difference fields.  All functions are pure; ladders may be evaluated in
parallel by the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Grid2D, ScalarField, gradient_fields, interpolate_many, float_repr


# Quadrature resolution: radial and angular cells of the disk rule, nodes
# of the circle rule.
_NQ = 256


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


def _polar_disk(center, r):
    dr = r / _NQ
    dth = 2.0 * math.pi / _NQ
    rk = (np.arange(_NQ) + 0.5) * dr
    th = (np.arange(_NQ) + 0.5) * dth
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


def weiss_phi(
    u: ScalarField,
    x0: tuple[float, float],
    r: float,
    lambda_plus: float,
    lambda_minus: float,
    grads: tuple[ScalarField, ScalarField] | None = None,
) -> float:
    """Scale-invariant energy at center x0 and radius r (planar scaling)."""
    _check_ball(u.grid, x0, r)
    if grads is None:
        grads = gradient_fields(u)
    gx, gy = grads
    xs, ys, w = _polar_disk(x0, r)
    uv = interpolate_many(u, xs, ys)
    gxv = interpolate_many(gx, xs, ys)
    gyv = interpolate_many(gy, xs, ys)
    bulk = gxv * gxv + gyv * gyv \
        + lambda_plus * np.maximum(uv, 0.0) + lambda_minus * np.maximum(-uv, 0.0)
    disk = float(np.sum(bulk * w))
    cx, cy, cw = _circle(x0, r)
    ring = float(np.sum(interpolate_many(u, cx, cy) ** 2) * cw)
    return disk / r**4 - 2.0 * ring / r**5


_NEG_TOL = 1e-12


def acf_psi(
    h1: ScalarField,
    h2: ScalarField,
    z: tuple[float, float],
    r: float,
    grads1: tuple[ScalarField, ScalarField] | None = None,
    grads2: tuple[ScalarField, ScalarField] | None = None,
) -> float:
    """Product functional for a nonnegative pair at center z, radius r."""
    if h1.grid != h2.grid:
        raise ValueError("pair must share a grid")
    _check_ball(h1.grid, z, r)
    if float(np.min(h1.values)) < -_NEG_TOL or float(np.min(h2.values)) < -_NEG_TOL:
        raise ValueError("pair members must be nonnegative (within 1e-12)")
    xs, ys, w = _polar_disk(z, r)
    total = 1.0 / r**4
    for h, grads in ((h1, grads1), (h2, grads2)):
        if grads is None:
            grads = gradient_fields(h)
        gx, gy = grads
        gxv = interpolate_many(gx, xs, ys)
        gyv = interpolate_many(gy, xs, ys)
        total *= float(np.sum((gxv * gxv + gyv * gyv) * w))
    return total


def directional_parts(u: ScalarField, e: tuple[float, float]) -> tuple[ScalarField, ScalarField]:
    """Positive and negative parts of the directional derivative along e.

    e must be a unit vector (within 1e-12).  Central differences inside,
    second-order one-sided stencils on the ring.
    """
    ex, ey = float(e[0]), float(e[1])
    if abs(math.hypot(ex, ey) - 1.0) > 1e-12:
        raise ValueError("direction must be a unit vector")
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


def phi_ladder(
    u: ScalarField,
    x0: tuple[float, float],
    ladder: RadiusLadder,
    lambda_plus: float,
    lambda_minus: float,
) -> MonotonicityProfile:
    """weiss_phi along a ladder with monotonicity violations flagged."""
    grads = gradient_fields(u)
    vals = np.array([
        weiss_phi(u, x0, r, lambda_plus, lambda_minus, grads=grads)
        for r in ladder.radii
    ])
    tol = _default_tol(vals)
    return MonotonicityProfile(ladder, tuple(vals), _violations(ladder.radii, vals, tol), tol)


def psi_ladder(
    h1: ScalarField,
    h2: ScalarField,
    z: tuple[float, float],
    ladder: RadiusLadder,
) -> MonotonicityProfile:
    """acf_psi along a ladder with monotonicity violations flagged."""
    g1 = gradient_fields(h1)
    g2 = gradient_fields(h2)
    vals = np.array([
        acf_psi(h1, h2, z, r, grads1=g1, grads2=g2)
        for r in ladder.radii
    ])
    tol = _default_tol(vals)
    return MonotonicityProfile(ladder, tuple(vals), _violations(ladder.radii, vals, tol), tol)
