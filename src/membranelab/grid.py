"""Uniform 2-D grids, sampled scalar fields, and finite-difference primitives.

Everything downstream (the solver, the monotone functionals, free-boundary
extraction) works on a ``Grid2D`` plus a ``ScalarField``.  Fields store their
values row-major by y then x, so ``values[j, i]`` lives at
``(x_min + i*h, y_min + j*h)``.  Apart from the CSV writers (``write_csv``
and ``dump_field_csv``), all operations here are pure functions on
immutable value types and are safe to evaluate concurrently.

Every float in an artifact has one text form, ``_FLOAT_FORMAT`` (17
significant digits, -0.0 written as 0): ``float_repr`` applies it to one
value.  ``_format_lines`` writes the same text for an array of values at
once, which is how ``dump_field_csv`` writes a field.  For 1e-4 <= |v| <
1e16 it computes the 17 digits exactly in numpy: the decade from
``log10`` with an exact re-check, |v| * 10**(16 - decade) as an exact
two-product (Dekker 1971), rounded half to even.  There ``%.17g`` always
writes fixed notation, so the digits are laid out with the point, and
trailing fraction zeros (and a point with no fraction after it) dropped.
Zeros write as 0; any other value goes to ``format`` one at a time.
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

    Floats (numpy floats of every width included) go through
    ``float_repr``, every other cell through ``str``.  A row given as a
    ``str`` is a block of whole, already formatted lines and is written as
    it is; ``dump_field_csv`` passes one such block per block of nodes.
    ``rows`` may be any iterable; it is consumed once, one row at a time.
    """
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            if isinstance(row, str):
                fh.write(row)
            else:
                fh.write(",".join([float_repr(v) if isinstance(v, (float, np.floating)) else str(v)
                                   for v in row]) + "\n")


# The bulk form of float_repr, for 1e-4 <= |v| < 1e16: there %.17g writes
# fixed notation, and the 17 digits are computed exactly (see the module
# docstring).  Outside it, and for zeros, _format_lines takes another path.
_KERNEL_MIN, _KERNEL_MAX = 1e-4, 1e16
_SPLIT = 134217729.0  # 2**27 + 1: Dekker's split of a double into two 26-bit halves
# 10**p for p = 0..20, each an exact double (10**p is exact up to p = 22),
# and its Dekker halves
_POW10 = np.array([float(10 ** p) for p in range(21)])
_POW10_HI = _SPLIT * _POW10 - (_SPLIT * _POW10 - _POW10)
_POW10_LO = _POW10 - _POW10_HI
# the least double >= 10**k for k = -5..17: the literals 1e-5..1e-1 round up
_DECADES = np.r_[1e-5, 1e-4, 1e-3, 1e-2, 1e-1, _POW10[:18]]
# A value's text is laid out in 40 bytes, NUL where nothing is written:
# sign, "0." and the zeros after it (decades -4..-1), then each of the 17
# digits followed by a slot that holds the point after the units digit.
# The tables are filled by broadcasting: arithmetic on 10,000-long arrays
# raised the process's resident peak by about 0.5 MB at import.
# Every 4-digit group as "d\0d\0d\0d\0"; entry 10000 is all NUL.
_GROUPS = np.zeros((10001, 8), np.uint8)
_DIGIT_CHARS = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
_g = _GROUPS[:-1].reshape(10, 10, 10, 10, 8)
_g[..., 0] = _DIGIT_CHARS[:, None, None, None]
_g[..., 2] = _DIGIT_CHARS[:, None, None]
_g[..., 4] = _DIGIT_CHARS[:, None]
_g[..., 6] = _DIGIT_CHARS
_GROUPS = _GROUPS.view("V8").ravel()
_NUL_GROUP = 10000
# the trailing zero digits of each group: 4 for 0000, 0 for the NUL group
_TRAILING = np.zeros(10001, np.uint8)
_t = _TRAILING[:-1].reshape(10, 10, 10, 10)
_t[..., 0] = 1
_t[..., 0, 0] = 2
_t[:, 0, 0, 0] = 3
_t[0, 0, 0, 0] = 4
# The first 8 bytes, by (sign, decade + 4, leading digit): sign, "0." and
# -k - 1 zeros for a decade k < 0, the leading digit and its slot.  Then
# "0" for an exact zero, and all NUL for a value written by format.
_HEADS = np.zeros((402, 8), np.uint8)
_h = _HEADS[:400].reshape(2, 20, 10, 8)
_h[1, ..., 0] = ord("-")
_h[:, :4, :, 1] = ord("0")
_h[:, :4, :, 2] = ord(".")
_h[:, :3, :, 3] = _h[:, :2, :, 4] = _h[:, :1, :, 5] = ord("0")
_h[..., 6] = _DIGIT_CHARS
_HEADS[400, 0] = ord("0")
_HEADS = _HEADS.view("V8").ravel()
_ZERO_HEAD, _FORMAT_HEAD = 400, 401
del _DIGIT_CHARS, _g, _t, _h


def _decimal_digits(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The exact 17-digit rounding of each |v| in [1e-4, 1e16).

    Returns ``inside`` (1e-4 <= |v| < 1e16), the decade k and the digits
    as an integer in [1e16, 1e17), so that |v| rounds half to even to
    digits * 10**(k - 16); outside the range k and digits are 1.0's.
    With a = |v| and p = 16 - k, a * 10**p = hi + lo exactly (Dekker's
    two-product; 10**p is an exact double), and hi >= 1e16 is a whole
    number.  The rounding is hi + floor(lo), plus one when lo - floor(lo)
    is above 1/2, or is 1/2 and the sum is odd.  It never reaches 1e17:
    a double below 10**(k + 1) in the range lies more than half a unit of
    the 17th digit below it.
    """
    a = np.abs(v)
    inside = (a >= _KERNEL_MIN) & (a < _KERNEL_MAX)
    a[~inside] = 1.0
    # 10**k <= a < 10**(k + 1); log10 errs by at most one, next to a power of ten
    k = np.floor(np.log10(a)).astype(np.intp)
    k -= a < _DECADES[k + 5]
    k += a >= _DECADES[k + 6]
    p = 16 - k
    hi = a * _POW10[p]
    ph, pl = _POW10_HI[p], _POW10_LO[p]
    ah = _SPLIT * a
    ah -= ah - a
    al = a - ah
    lo = ((ah * ph - hi) + ah * pl + al * ph) + al * pl
    fl = np.floor(lo)
    digits = hi.astype(np.int64) + fl.astype(np.int64)
    fl += 0.5
    digits += (lo > fl) | ((lo == fl) & (digits & 1).astype(bool))
    return inside, k, digits


def _format_lines(values: np.ndarray, *prefixes: np.ndarray) -> str:
    """Lines ``prefixes[0][i] + ... + float_repr(values[i])``, one per value.

    ``values`` is a 1-D array of finite floats; each prefix is a bytes
    (``S``) array of the same length, whose NUL padding is not written.
    Values with 1e-4 <= |v| < 1e16 are written from ``_decimal_digits``,
    in fixed notation, as ``%.17g`` writes them there.  Zeros write as 0,
    whatever their sign; every other value goes to ``format``.
    """
    v = np.asarray(values, dtype=np.float64)
    inside, k, digits = _decimal_digits(v)
    # the 17 digits: a leading one, then four groups of four
    lead = digits // 10**16
    digits -= lead * 10**16
    groups = np.empty((4, v.size), np.int16)
    for row in (3, 2, 1):
        q = digits // 10000
        groups[row] = digits - q * 10000
        digits = q
    groups[0] = digits
    head = ((v < 0) * 20 + (k + 4)) * 10 + lead
    other = np.flatnonzero(~inside)
    head[other] = np.where(v[other] == 0.0, _ZERO_HEAD, _FORMAT_HEAD)
    groups[:, other] = _NUL_GROUP

    names = [f"prefix{i}" for i in range(len(prefixes))]
    layout = np.dtype([(name, pr.dtype) for name, pr in zip(names, prefixes)]
                      + [("head", "V8"), ("g1", "V8"), ("g2", "V8"), ("g3", "V8"), ("g4", "V8"), ("newline", "u1")])
    buf = bytearray(v.size * layout.itemsize)
    rec = np.frombuffer(buf, layout)
    for name, pr in zip(names, prefixes):
        rec[name] = pr
    rec["head"] = _HEADS[head]
    for name, g in zip(("g1", "g2", "g3", "g4"), groups):
        rec[name] = _GROUPS[g]
    rec["newline"] = ord("\n")
    text = np.frombuffer(buf, np.uint8)
    width = layout.itemsize
    first = layout.fields["head"][1] + 6  # digit m of a row sits at first + 2m, its slot after it
    # digits below the units place: 16 - k of the 17 for k >= 0, all of them for k < 0
    frac = 16 - k
    # drop trailing zeros, but none before the point
    r = np.flatnonzero(_TRAILING[groups[3]])
    if r.size:
        t4, t3, t2, t1 = _TRAILING[groups[::-1, r]]
        drop = np.minimum(t4 + (t4 == 4) * (t3 + (t3 == 4) * (t2 + (t2 == 4) * t1)), frac[r])
        frac[r] -= drop
        ends = np.cumsum(drop)
        m = np.arange(ends[-1]) + np.repeat(17 - ends, drop)  # the dropped digits, row by row
        text[np.repeat(r * width, drop) + first + 2 * m] = 0
    point = np.flatnonzero((k >= 0) & (frac > 0) & inside)
    text[point * width + first + 2 * k[point] + 1] = ord(".")
    for i in other[v[other] != 0.0].tolist():
        at = i * width + first - 6
        word = format(float(v[i]), _FLOAT_FORMAT).encode()
        text[at:at + len(word)] = np.frombuffer(word, np.uint8)
    del rec, text
    buf = buf.translate(None, b"\0")
    return buf.decode("ascii")


def _require_finite(**values: float) -> None:
    """Raise ValueError naming the first keyword that is NaN (which passes every <=) or infinite."""
    for name, v in values.items():
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v!r}")


def _require_phases(lambda_plus: float, lambda_minus: float) -> None:
    """Raise ValueError unless both phase coefficients are finite and positive."""
    _require_finite(lambda_plus=lambda_plus, lambda_minus=lambda_minus)
    if lambda_plus <= 0.0 or lambda_minus <= 0.0:
        raise ValueError("lambda_plus and lambda_minus must be positive")


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
    """Construct a uniform grid; rejects non-finite bounds, non-square spacing, and nx/ny < 3 or not ints."""
    _require_finite(x_min=x_min, x_max=x_max, y_min=y_min, y_max=y_max)
    for name, n in (("nx", nx), ("ny", ny)):
        # a float count builds a grid whose first sample fails in numpy instead
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
            raise ValueError(f"{name} must be an int, got {n!r}")
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


def _gradient_arrays(
    v: np.ndarray, h: float, gx: np.ndarray | None = None, gy: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The stencils of ``gradient_fields`` on the last two axes of a value stack.

    Each entry is computed from its own neighbours only, so a window of a
    field gets the full field's gradient, bit for bit, everywhere except on
    a window edge that is not a grid edge.  d/dx and d/dy are written into
    ``gx`` and ``gy``, arrays (or views) of v's shape, when given, and into
    new arrays otherwise; both are returned.
    """
    gx = np.empty_like(v) if gx is None else gx
    gy = np.empty_like(v) if gy is None else gy
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

    A coordinate within _NODE_SNAP cells of a node becomes that node, so
    grid nodes reproduce their stored values exactly.
    """
    tx = (x - grid.x_min) / grid.h
    ty = (y - grid.y_min) / grid.h
    # written as the in-range test, so a NaN coordinate fails it
    inside = (tx >= -_NODE_SNAP) & (tx <= grid.nx - 1 + _NODE_SNAP) \
        & (ty >= -_NODE_SNAP) & (ty <= grid.ny - 1 + _NODE_SNAP)
    if not np.all(inside):
        n = int(np.count_nonzero(~inside))
        raise ValueError(f"{n} interpolation point(s) outside grid bounds")
    # + 0.0 turns the -0.0 that np.round gives just below 0 into 0.0
    rx, ry = np.round(tx) + 0.0, np.round(ty) + 0.0
    tx = np.where(np.abs(tx - rx) < _NODE_SNAP, rx, tx)
    ty = np.where(np.abs(ty - ry) < _NODE_SNAP, ry, ty)
    i0 = np.minimum(tx.astype(int), grid.nx - 2)
    j0 = np.minimum(ty.astype(int), grid.ny - 2)
    return i0, j0, tx - i0, ty - j0


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
        """The map of fn on the ring; fn takes 1-D coordinate arrays and works elementwise."""
        m = boundary_mask(grid)
        j, i = np.nonzero(m)
        out = np.zeros(grid.shape)
        out[m] = np.asarray(fn(grid.xs[i], grid.ys[j]), dtype=float)
        return cls(grid, out)

    def perturbed(self, fn: Callable[[np.ndarray, np.ndarray], np.ndarray], amplitude: float) -> "BoundaryMap":
        """New map with amplitude * fn(x, y) added on the boundary ring."""
        return BoundaryMap(self.grid, self.values + amplitude * self.from_callable(self.grid, fn).values)

    def sup_diff(self, other: "BoundaryMap") -> float:
        """max |self - other| on the ring; both interiors are zero, so over the whole arrays."""
        if other.grid != self.grid:
            raise ValueError("boundary maps live on different grids")
        return float(np.max(np.abs(self.values - other.values)))


# Nodes per block of dump_field_csv: its buffers stay near 1 MB for any grid
_FIELD_BLOCK = 4096


def dump_field_csv(f: ScalarField, path: str) -> None:
    """Write `x,y,value` rows for every node, row-major by y then x.

    Each x and each y is formatted once for the file.  The values go
    through ``_format_lines`` in blocks of ``_FIELD_BLOCK`` nodes, each
    handed to ``write_csv`` as one block of whole lines; a value in 1e-4
    <= |v| < 1e16 or zero is formatted in numpy, any other one by
    ``format``.  The text is byte for byte what ``float_repr`` gives cell
    by cell.
    """
    g = f.grid
    xs = np.array([float_repr(x) + "," for x in g.xs.tolist()], dtype=bytes)
    ys = np.array([float_repr(y) + "," for y in g.ys.tolist()], dtype=bytes)
    size = g.nx * g.ny

    def blocks():
        for start in range(0, size, _FIELD_BLOCK):
            stop = min(start + _FIELD_BLOCK, size)
            j, i = np.divmod(np.arange(start, stop), g.nx)
            yield _format_lines(f.values.flat[start:stop], xs[i], ys[j])

    write_csv(path, "x,y,value", blocks())
