"""Uniform 2-D grids, sampled scalar fields, and finite-difference primitives.

Everything downstream (the solver, the monotone functionals, free-boundary
extraction) works on a ``Grid2D`` plus a ``ScalarField``.  Fields store their
values row-major by y then x, so ``values[j, i]`` lives at
``(x_min + i*h, y_min + j*h)``.  Apart from the CSV writers (``write_csv``
and ``dump_field_csv``), all operations here are pure functions on
immutable value types and are safe to evaluate concurrently.

Every float in an artifact has one text form, ``_FLOAT_FORMAT`` (17
significant digits, -0.0 written as 0): ``float_repr`` applies it to one
value, and ``dump_field_csv`` applies it in bulk to a grid row at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Relative tolerance for the square-spacing check in build_grid.
SPACING_RTOL = 1e-12

# Snap tolerance (fraction of a cell) used by interpolation so that exact
# node coordinates reproduce stored node values bit-for-bit.
_NODE_SNAP = 1e-12


# The text form of every float in every artifact: it round-trips a double.
_FLOAT_FORMAT = ".17g"


def float_repr(v: float) -> str:
    """Canonical 17-significant-digit text form used in every artifact."""
    v = float(v)
    if v == 0.0:
        v = 0.0  # normalize -0.0
    return format(v, _FLOAT_FORMAT)


def write_csv(path: str, header: str, rows) -> None:
    """Write a header line and one comma-joined line per row.

    Floats (numpy floats included) go through ``float_repr``, every other
    cell through ``str``.  A row given as a ``str`` is a block of whole,
    already formatted lines and is written as it is; ``dump_field_csv``
    passes one such block per grid row.  ``rows`` may be any iterable; it
    is consumed once, one row at a time.
    """
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            if isinstance(row, str):
                fh.write(row)
            else:
                fh.write(",".join([float_repr(v) if isinstance(v, float) else str(v) for v in row]) + "\n")


def _require_finite(**values: float) -> None:
    """Raise ValueError naming the first keyword that is NaN (which passes every <=) or infinite."""
    for name, v in values.items():
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v!r}")


@dataclass(frozen=True)
class Grid2D:
    """Uniform vertex-centered grid on [x_min, x_max] x [y_min, y_max].

    The spacing ``h`` is identical along both axes; ``build_grid`` refuses
    rectangles whose requested node counts would break that.
    """

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    nx: int
    ny: int
    h: float

    @property
    def shape(self) -> tuple[int, int]:
        """Array shape (ny, nx); y is the slow axis."""
        return (self.ny, self.nx)

    def x(self, i: int) -> float:
        return self.x_min + i * self.h

    def y(self, j: int) -> float:
        return self.y_min + j * self.h

    @property
    def xs(self) -> np.ndarray:
        return self.x_min + self.h * np.arange(self.nx)

    @property
    def ys(self) -> np.ndarray:
        return self.y_min + self.h * np.arange(self.ny)

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        return np.meshgrid(self.xs, self.ys)

    def contains_ball(self, center: tuple[float, float], r: float) -> bool:
        cx, cy = center
        return (
            cx - r >= self.x_min
            and cx + r <= self.x_max
            and cy - r >= self.y_min
            and cy + r <= self.y_max
        )


def build_grid(
    x_min: float, x_max: float, y_min: float, y_max: float, nx: int, ny: int
) -> Grid2D:
    """Construct a uniform grid; rejects non-finite bounds, non-square spacing and nx/ny < 3."""
    _require_finite(x_min=x_min, x_max=x_max, y_min=y_min, y_max=y_max)
    if not (x_max > x_min and y_max > y_min):
        raise ValueError("grid bounds must satisfy x_min < x_max and y_min < y_max")
    if nx < 3 or ny < 3:
        raise ValueError(f"need at least 3 nodes per axis, got nx={nx} ny={ny}")
    hx = (x_max - x_min) / (nx - 1)
    hy = (y_max - y_min) / (ny - 1)
    if abs(hx - hy) > SPACING_RTOL * max(abs(hx), abs(hy)):
        raise ValueError(f"spacing mismatch: hx={hx!r} hy={hy!r}")
    return Grid2D(float(x_min), float(x_max), float(y_min), float(y_max), nx, ny, hx)


@dataclass(frozen=True)
class ScalarField:
    """Nodal values on a Grid2D.  values[j, i] sits at (x(i), y(j))."""

    grid: Grid2D
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.grid.shape:
            raise ValueError(f"value shape {v.shape} != grid shape {self.grid.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", v)


def sample(grid: Grid2D, fn: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> ScalarField:
    """Sample fn(X, Y) at every node; fn must accept ndarray arguments."""
    X, Y = grid.meshgrid()
    return ScalarField(grid, np.asarray(fn(X, Y), dtype=float))


def _neighbor_sum(full: np.ndarray) -> np.ndarray:
    """Sum of the four neighbors of every interior node, shape (ny-2, nx-2)."""
    return full[1:-1, :-2] + full[1:-1, 2:] + full[:-2, 1:-1] + full[2:, 1:-1]


def laplacian_interior(f: ScalarField) -> np.ndarray:
    """Five-point Laplacian on the full interior block, shape (ny-2, nx-2)."""
    v = f.values
    return (_neighbor_sum(v) - 4.0 * v[1:-1, 1:-1]) / (f.grid.h * f.grid.h)


def gradient_fields(f: ScalarField) -> tuple[ScalarField, ScalarField]:
    """Gradient components as full fields.

    Central differences in the interior; second-order one-sided stencils on
    the boundary ring so the fields are defined everywhere (the functional
    quadratures interpolate them near domain edges).
    """
    gx, gy = _gradient_arrays(f.values, f.grid.h)
    return ScalarField(f.grid, gx), ScalarField(f.grid, gy)


def _gradient_arrays(v: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """The stencils of ``gradient_fields`` on the last two axes of a value stack.

    Each entry is computed from its own neighbours only, so a window of a
    field gets the full field's gradient, bit for bit, everywhere except on
    a window edge that is not a grid edge.
    """
    gx = np.empty_like(v)
    gy = np.empty_like(v)
    gx[..., 1:-1] = (v[..., 2:] - v[..., :-2]) / (2.0 * h)
    gx[..., 0] = (-3.0 * v[..., 0] + 4.0 * v[..., 1] - v[..., 2]) / (2.0 * h)
    gx[..., -1] = (3.0 * v[..., -1] - 4.0 * v[..., -2] + v[..., -3]) / (2.0 * h)
    gy[..., 1:-1, :] = (v[..., 2:, :] - v[..., :-2, :]) / (2.0 * h)
    gy[..., 0, :] = (-3.0 * v[..., 0, :] + 4.0 * v[..., 1, :] - v[..., 2, :]) / (2.0 * h)
    gy[..., -1, :] = (3.0 * v[..., -1, :] - 4.0 * v[..., -2, :] + v[..., -3, :]) / (2.0 * h)
    return gx, gy


@dataclass(frozen=True)
class FieldWindow:
    """A stack of fields cropped to one rectangle of grid nodes.

    ``values[k, j, i]`` is field k at node ``(i_off + i, j_off + j)`` of
    ``grid``.  ``interpolate_many`` locates points on the whole grid, so a
    window interpolates exactly as the uncropped fields do.
    """

    grid: Grid2D
    i_off: int
    j_off: int
    values: np.ndarray


def _locate(grid: Grid2D, x: np.ndarray, y: np.ndarray):
    """Cell indices and local coordinates for bilinear interpolation.

    Local coordinates are snapped to {0, 1} when within _NODE_SNAP of a node
    so grid nodes reproduce their stored values exactly.
    """
    tx = (x - grid.x_min) / grid.h
    ty = (y - grid.y_min) / grid.h
    # written as the in-range test, so a NaN coordinate fails it
    inside = (tx >= -_NODE_SNAP) & (tx <= grid.nx - 1 + _NODE_SNAP) \
        & (ty >= -_NODE_SNAP) & (ty <= grid.ny - 1 + _NODE_SNAP)
    if not np.all(inside):
        n = int(np.count_nonzero(~inside))
        raise ValueError(f"{n} interpolation point(s) outside grid bounds")
    # np.minimum(np.maximum(...)) is np.clip without its dispatch cost
    i0 = np.minimum(np.maximum(np.floor(tx).astype(int), 0), grid.nx - 2)
    j0 = np.minimum(np.maximum(np.floor(ty).astype(int), 0), grid.ny - 2)
    fx = tx - i0
    fy = ty - j0
    # snap: carry near-1 fractions onto the next node, zero out near-0 ones
    up_x = fx > 1.0 - _NODE_SNAP
    up_y = fy > 1.0 - _NODE_SNAP
    i0 = np.where(up_x & (i0 < grid.nx - 2), i0 + 1, i0)
    j0 = np.where(up_y & (j0 < grid.ny - 2), j0 + 1, j0)
    fx = tx - i0
    fy = ty - j0
    fx = np.where(np.abs(fx) < _NODE_SNAP, 0.0, fx)
    fy = np.where(np.abs(fy) < _NODE_SNAP, 0.0, fy)
    fx = np.where(fx > 1.0 - _NODE_SNAP, 1.0, fx)
    fy = np.where(fy > 1.0 - _NODE_SNAP, 1.0, fy)
    return i0, j0, fx, fy


def interpolate_many(f: ScalarField | FieldWindow, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Bilinear interpolation at an array of points inside the grid.

    For a ``FieldWindow`` the points are located once and every field of
    the stack is interpolated from that one locate; the result has shape
    (fields, points).  Every point's cell must lie inside the window.  A
    point outside the grid, a NaN or infinite coordinate included, raises
    ValueError.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    i0, j0, fx, fy = _locate(f.grid, x, y)
    v = f.values
    if isinstance(f, FieldWindow):
        i0 = i0 - f.i_off
        j0 = j0 - f.j_off
        if i0.size and (
            i0.min() < 0 or j0.min() < 0
            or i0.max() > v.shape[-1] - 2 or j0.max() > v.shape[-2] - 2
        ):
            raise ValueError("interpolation point(s) outside the field window")
    # gather the four corners from the (fields, cells) view by one flat index
    nx = v.shape[-1]
    flat = v.reshape(v.shape[:-2] + (-1,))
    k = j0 * nx + i0
    v00, v10, v01, v11 = (flat.take(k + d, axis=-1) for d in (0, 1, nx, nx + 1))
    # symmetric weights keep fx, fy in {0, 1} bit-exact at the nodes:
    # bottom = (1 - fx) v00 + fx v10, top likewise, then (1 - fy) bottom + fy top,
    # each product and sum rounded as written, in place in the gathered arrays
    gx = 1.0 - fx
    v00 *= gx
    v10 *= fx
    v00 += v10
    v01 *= gx
    v11 *= fx
    v01 += v11
    v00 *= 1.0 - fy
    v01 *= fy
    v00 += v01
    return v00


def boundary_mask(grid: Grid2D) -> np.ndarray:
    m = np.zeros(grid.shape, dtype=bool)
    m[0, :] = m[-1, :] = True
    m[:, 0] = m[:, -1] = True
    return m


@dataclass(frozen=True)
class BoundaryMap:
    """Dirichlet data: values on exactly the boundary ring of a grid.

    Stored as a full (ny, nx) array whose interior entries are forced to
    zero, which keeps the solver's assembly trivial.
    """

    grid: Grid2D
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.grid.shape:
            raise ValueError("boundary map shape mismatch")
        if not np.all(np.isfinite(v)):
            raise ValueError("boundary values must be finite")
        v = v.copy()
        v[1:-1, 1:-1] = 0.0
        object.__setattr__(self, "values", v)

    @classmethod
    def from_callable(cls, grid: Grid2D, fn: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> "BoundaryMap":
        X, Y = grid.meshgrid()
        vals = np.asarray(fn(X, Y), dtype=float)
        out = np.zeros(grid.shape)
        m = boundary_mask(grid)
        out[m] = vals[m]
        return cls(grid, out)

    def perturbed(self, fn: Callable[[np.ndarray, np.ndarray], np.ndarray], amplitude: float) -> "BoundaryMap":
        """New map with amplitude * fn(x, y) added on the boundary ring."""
        X, Y = self.grid.meshgrid()
        out = self.values.copy()
        m = boundary_mask(self.grid)
        out[m] += amplitude * np.asarray(fn(X, Y), dtype=float)[m]
        return BoundaryMap(self.grid, out)

    def sup_diff(self, other: "BoundaryMap") -> float:
        if other.grid != self.grid:
            raise ValueError("boundary maps live on different grids")
        m = boundary_mask(self.grid)
        return float(np.max(np.abs(self.values[m] - other.values[m])))


def dump_field_csv(f: ScalarField, path: str) -> None:
    """Write `x,y,value` rows for every node, row-major by y then x.

    Each x is formatted once for the file and each y once for its grid
    row; a row's values are formatted by one ``%`` call over ``values +
    0.0``, which writes -0.0 as 0 just as ``float_repr`` does.  The text
    is byte for byte what ``float_repr`` gives cell by cell.
    """
    xs = [float_repr(x) for x in f.grid.xs.tolist()]

    def blocks():
        for y, vals in zip(f.grid.ys.tolist(), f.values):
            # the separator carries this row's y: x_i,y,v_i per node
            sep = f",{float_repr(y)},%{_FLOAT_FORMAT}\n"
            yield (sep.join(xs) + sep) % tuple((vals + 0.0).tolist())

    write_csv(path, "x,y,value", blocks())
