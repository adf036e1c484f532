"""Grid construction, stencils, interpolation, and boundary data."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from membranelab import (
    BoundaryMap,
    ScalarField,
    build_grid,
    dump_field_csv,
    float_repr,
    gradient_fields,
    interpolate_many,
    laplacian_interior,
    sample,
)
from membranelab.cli import _FAMILIES
from membranelab.grid import _NODE_SNAP, FieldWindow, _locate, boundary_mask
from membranelab.profiles import GlobalProfile, OnePhasePolynomial, eval_many


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def test_build_grid_nodes_hit_endpoints():
    g = build_grid(-1.0, 1.0, -2.0, 0.0, 5, 5)
    assert g.h == 0.5
    assert g.xs[0] == -1.0 and g.xs[-1] == 1.0
    assert g.ys[0] == -2.0 and g.ys[-1] == 0.0
    assert g.shape == (5, 5)


def test_build_grid_rejects_bad_inputs():
    with pytest.raises(ValueError):
        build_grid(1.0, -1.0, 0.0, 1.0, 5, 5)
    with pytest.raises(ValueError):
        build_grid(-1.0, 1.0, -1.0, 1.0, 2, 2)
    # non-square spacing
    with pytest.raises(ValueError):
        build_grid(-1.0, 1.0, -1.0, 1.0, 5, 9)


@pytest.mark.parametrize("bounds, needle", [
    ((-1.0, math.inf, -1.0, math.inf), "x_max must be finite, got inf"),
    ((-math.inf, 1.0, -1.0, 1.0), "x_min must be finite, got -inf"),
    ((-1.0, 1.0, math.nan, 1.0), "y_min must be finite, got nan"),
])
def test_build_grid_rejects_non_finite_bounds(bounds, needle):
    # an infinite span passes the ordering and spacing checks with h = inf
    with pytest.raises(ValueError, match=needle):
        build_grid(*bounds, 3, 3)


@pytest.mark.parametrize("nx, ny, needle", [
    (65.0, 65.0, "nx must be an int, got 65.0"),
    (65, np.float64(65.0), "ny must be an int, got np.float64"),
    (True, 65, "nx must be an int, got True"),
], ids=["float", "numpy_float", "bool"])
def test_build_grid_rejects_non_integer_counts(nx, ny, needle):
    # a float count built a grid whose first sample failed in numpy
    with pytest.raises(ValueError, match=needle):
        build_grid(-1.0, 1.0, -1.0, 1.0, nx, ny)


def test_build_grid_accepts_numpy_integer_counts():
    g = build_grid(-1.0, 1.0, -1.0, 1.0, np.int64(5), np.int32(5))
    assert g.shape == (5, 5) and g.h == 0.5


def test_contains_ball():
    g = build_grid(-1.0, 1.0, -1.0, 1.0, 65, 65)
    assert g.contains_ball((0.0, 0.0), 1.0)
    assert g.contains_ball((0.0, 0.25), 0.75)
    assert not g.contains_ball((0.0, 0.25), 0.8)


def test_scalar_field_shape_checked():
    g = build_grid(-1.0, 1.0, -1.0, 1.0, 5, 5)
    with pytest.raises(ValueError):
        ScalarField(g, np.zeros((4, 5)))


def test_fields_and_boundary_maps_reject_bad_values():
    g = build_grid(-1.0, 1.0, -1.0, 1.0, 5, 5)
    bad = np.zeros(g.shape)
    bad[2, 2] = math.nan
    with pytest.raises(ValueError, match="field values must be finite"):
        ScalarField(g, bad)
    with pytest.raises(ValueError, match="boundary map shape mismatch"):
        BoundaryMap(g, np.zeros((4, 5)))
    ring = np.zeros(g.shape)
    ring[0, 1] = math.nan
    with pytest.raises(ValueError, match="boundary values must be finite"):
        BoundaryMap(g, ring)
    other = build_grid(-1.0, 1.0, -1.0, 1.0, 9, 9)
    with pytest.raises(ValueError, match="boundary maps live on different grids"):
        BoundaryMap(g, np.zeros(g.shape)).sup_diff(BoundaryMap(other, np.zeros(other.shape)))


# ---------------------------------------------------------------------------
# float formatting
# ---------------------------------------------------------------------------


def test_float_repr_roundtrips():
    for v in (math.pi, 1.0 / 3.0, 1e-300, -2.5e17, 0.1):
        assert float(float_repr(v)) == v
    assert float_repr(0.0) == "0"
    assert float_repr(-0.0) == "0"
    assert float_repr(1.0) == "1"


# ---------------------------------------------------------------------------
# Stencils
# ---------------------------------------------------------------------------


def test_laplacian_exact_for_quadratic():
    g = build_grid(-1.0, 1.0, -1.0, 1.0, 33, 33)
    f = sample(g, lambda X, Y: 0.5 * X**2 + 1.5 * Y**2 - 0.25 * X * Y)
    # Laplacian of the quadratic is 1 + 3 everywhere; 5-point stencil is exact
    lap = laplacian_interior(f)
    assert np.max(np.abs(lap - 4.0)) < 1e-10


def test_gradient_fields_exact_for_linear():
    g = build_grid(-1.0, 1.0, -1.0, 1.0, 33, 33)
    f = sample(g, lambda X, Y: 2.0 * X - 3.0 * Y + 1.0)
    gx, gy = gradient_fields(f)
    assert np.max(np.abs(gx.values - 2.0)) < 1e-12
    assert np.max(np.abs(gy.values + 3.0)) < 1e-12


def test_gradient_fields_second_order_up_to_boundary():
    # one-sided 3-point edge stencils keep quadratics exact on the ring
    g = build_grid(-1.0, 1.0, -1.0, 1.0, 17, 17)
    f = sample(g, lambda X, Y: X**2 - X * Y + 0.5 * Y**2)
    gx, gy = gradient_fields(f)
    X, Y = g.meshgrid()
    assert np.max(np.abs(gx.values - (2.0 * X - Y))) < 1e-10
    assert np.max(np.abs(gy.values - (-X + Y))) < 1e-10


# ---------------------------------------------------------------------------
# Interpolation
# ---------------------------------------------------------------------------


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=16), st.integers(min_value=0, max_value=16))
def test_interpolation_exact_at_nodes(i, j):
    g = build_grid(-1.0, 1.0, -1.0, 1.0, 17, 17)
    rng = np.random.default_rng(7)
    f = ScalarField(g, rng.standard_normal(g.shape))
    assert interpolate_many(f, np.array([g.x(i)]), np.array([g.y(j)]))[0] == f.values[j, i]


def test_interpolation_exact_for_bilinear_functions():
    g = build_grid(-1.0, 1.0, -1.0, 1.0, 9, 9)
    f = sample(g, lambda X, Y: 1.0 + 2.0 * X - Y + 0.5 * X * Y)
    rng = np.random.default_rng(3)
    xs = rng.uniform(-1.0, 1.0, size=200)
    ys = rng.uniform(-1.0, 1.0, size=200)
    got = interpolate_many(f, xs, ys)
    want = 1.0 + 2.0 * xs - ys + 0.5 * xs * ys
    assert np.max(np.abs(got - want)) < 1e-12


def test_interpolation_rejects_outside_points():
    g = build_grid(-1.0, 1.0, -1.0, 1.0, 9, 9)
    f = sample(g, lambda X, Y: X)
    with pytest.raises(ValueError):
        interpolate_many(f, np.array([1.01]), np.array([0.0]))
    # within the node-snap slack the boundary itself is fine
    assert interpolate_many(f, np.array([1.0]), np.array([-1.0]))[0] == 1.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("axis", ["x", "y"])
def test_interpolation_rejects_non_finite_points(bad, axis):
    # a NaN coordinate fails every comparison, so it must fail the in-range
    # test rather than pass an out-of-range one
    g = build_grid(-1.0, 1.0, -1.0, 1.0, 9, 9)
    f = sample(g, lambda X, Y: X + Y)
    win = FieldWindow(g, 0, 0, np.stack([f.values, -f.values]))
    xs, ys = np.array([0.0, 0.25]), np.array([0.0, 0.5])
    (xs if axis == "x" else ys)[1] = bad
    for target in (f, win):
        with pytest.raises(ValueError, match="1 interpolation point"):
            interpolate_many(target, xs, ys)


def test_window_shares_one_locate_across_its_fields():
    # three fields cropped to columns 3..11, rows 5..13 of a 17^2 grid
    g = build_grid(-1.0, 1.0, -1.0, 1.0, 17, 17)
    rng = np.random.default_rng(11)
    fields = [ScalarField(g, rng.standard_normal(g.shape)) for _ in range(3)]
    rows, cols = slice(5, 14), slice(3, 12)
    win = FieldWindow(g, cols.start, rows.start, np.stack([f.values[rows, cols] for f in fields]))

    # node values come back exactly, for every field of the stack; a node
    # on the window's top or right edge would need the cell beyond it
    J, I = np.meshgrid(np.arange(5, 13), np.arange(3, 11), indexing="ij")
    got = interpolate_many(win, g.xs[I.ravel()], g.ys[J.ravel()])
    assert got.shape == (3, I.size)
    for k, f in enumerate(fields):
        assert np.array_equal(got[k], f.values[J.ravel(), I.ravel()])

    # between nodes each layer equals the uncropped field's interpolant
    xs = rng.uniform(g.x(3), g.x(10), size=300)
    ys = rng.uniform(g.y(5), g.y(12), size=300)
    got = interpolate_many(win, xs, ys)
    for k, f in enumerate(fields):
        assert np.array_equal(got[k], interpolate_many(f, xs, ys))

    with pytest.raises(ValueError, match="outside grid bounds"):
        interpolate_many(win, np.array([1.01]), np.array([0.0]))
    with pytest.raises(ValueError, match="outside the field window"):
        interpolate_many(win, np.array([g.x(1)]), np.array([g.y(8)]))
    with pytest.raises(ValueError, match="outside the field window"):
        interpolate_many(win, np.array([g.x(11)]), np.array([g.y(8)]))


def three_pass_locate(grid, x, y):
    """The locate that carried near-1 fractions, then zeroed and clamped them, as an oracle."""
    tx = (x - grid.x_min) / grid.h
    ty = (y - grid.y_min) / grid.h
    i0 = np.minimum(np.maximum(np.floor(tx).astype(int), 0), grid.nx - 2)
    j0 = np.minimum(np.maximum(np.floor(ty).astype(int), 0), grid.ny - 2)
    fx = tx - i0
    fy = ty - j0
    i0 = np.where((fx > 1.0 - _NODE_SNAP) & (i0 < grid.nx - 2), i0 + 1, i0)
    j0 = np.where((fy > 1.0 - _NODE_SNAP) & (j0 < grid.ny - 2), j0 + 1, j0)
    fx = tx - i0
    fy = ty - j0
    fx = np.where(np.abs(fx) < _NODE_SNAP, 0.0, fx)
    fy = np.where(np.abs(fy) < _NODE_SNAP, 0.0, fy)
    fx = np.where(fx > 1.0 - _NODE_SNAP, 1.0, fx)
    fy = np.where(fy > 1.0 - _NODE_SNAP, 1.0, fy)
    return i0, j0, fx, fy


def test_locate_matches_the_three_pass_snap():
    g = build_grid(-1.25, 1.25, -1.25, 1.25, 321, 321)
    rng = np.random.default_rng(5)
    X, Y = g.meshgrid()
    nodes = (X.ravel(), Y.ravel())
    # nodes moved by up to 3e-12 cells, on both sides of the snap radius;
    # the ring's outward moves are kept within the in-range slack
    moved = tuple(
        np.clip(v + g.h * rng.uniform(-3e-12, 3e-12, v.size), lo - 0.9 * _NODE_SNAP * g.h,
                hi + 0.9 * _NODE_SNAP * g.h)
        for v, lo, hi in ((nodes[0], g.x_min, g.x_max), (nodes[1], g.y_min, g.y_max))
    )
    uniform = tuple(rng.uniform(-1.25, 1.25, 200_000) for _ in range(2))
    # edges and corners, exactly and just inside the slack on either side
    eps = 0.5 * _NODE_SNAP * g.h
    edge = np.array([g.x_min, g.x_max, g.x_min + eps, g.x_max - eps, g.x_min - eps, g.x_max + eps])
    t = rng.uniform(-1.25, 1.25, edge.size)
    edges = (np.concatenate([edge, t, np.repeat(edge, edge.size)]),
             np.concatenate([t, edge, np.tile(edge, edge.size)]))
    for x, y in (nodes, moved, uniform, edges):
        got, want = _locate(g, x, y), three_pass_locate(g, x, y)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)
            assert np.array_equal(np.signbit(a), np.signbit(b))


# ---------------------------------------------------------------------------
# Boundary data
# ---------------------------------------------------------------------------


def test_boundary_mask_counts_ring_nodes():
    g = build_grid(-1.0, 1.0, -1.0, 1.0, 9, 9)
    m = boundary_mask(g)
    assert int(np.sum(m)) == 4 * 9 - 4
    assert not m[1:-1, 1:-1].any()


def test_boundary_map_roundtrip_and_perturbation():
    g = build_grid(-1.0, 1.0, -1.0, 1.0, 17, 17)
    bc = BoundaryMap.from_callable(g, lambda X, Y: X + Y)
    pert = bc.perturbed(lambda X, Y: np.ones_like(X), 0.25)
    assert abs(bc.sup_diff(pert) - 0.25) < 1e-14
    assert bc.sup_diff(bc) == 0.0


def full_evaluation_map(grid, fn):
    """The map that evaluating fn on all n^2 nodes and keeping the ring gives."""
    X, Y = grid.meshgrid()
    out = np.zeros(grid.shape)
    m = boundary_mask(grid)
    out[m] = np.asarray(fn(X, Y), dtype=float)[m]
    return out


def test_boundary_map_evaluates_only_the_ring():
    # from_callable hands fn the 4n - 4 ring coordinates; every value keeps
    # the bits of the full evaluation, for the config's shapes and the
    # sweep's families
    fns = {f"sweep {name} k={k}": family(k) for name, family in _FAMILIES.items() for k in (1, 3)}
    for shape in (GlobalProfile(1.0, 0.0, -0.3, 0.4, 2.0, 3.0), GlobalProfile(0.5, 0.7, 0.0, -1.1, 2.0, 2.0),
                  OnePhasePolynomial(0.25, 0.1, 0.3, 1), OnePhasePolynomial(-0.4, 0.2, -0.1, -1)):
        fns[repr(shape)] = lambda X, Y, shape=shape: eval_many(shape, X, Y)
    for g in (build_grid(-1.0, 1.0, -1.0, 1.0, 129, 129), build_grid(-1.3, 0.7, 0.1, 1.1, 201, 101)):
        for name, fn in fns.items():
            sizes = []
            got = BoundaryMap.from_callable(g, lambda X, Y: sizes.append(X.size) or fn(X, Y)).values
            assert sizes == [2 * (g.nx + g.ny) - 4], (name, g)
            assert got.tobytes() == full_evaluation_map(g, fn).tobytes(), (name, g)


def test_dump_field_csv_is_deterministic(tmp_path):
    g = build_grid(0.0, 1.0, 0.0, 1.0, 3, 3)
    f = sample(g, lambda X, Y: X + 10.0 * Y)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    dump_field_csv(f, str(p1))
    dump_field_csv(f, str(p2))
    b1 = p1.read_bytes()
    assert b1 == p2.read_bytes()
    head = b1.decode().splitlines()[:2]
    assert head[0] == "x,y,value"
    assert head[1] == "0,0,0"


# 0.0, -0.0, a subnormal, +-1e300, values that need all 17 digits, negatives
SPECIAL_VALUES = (0.0, -0.0, 5e-324, 1e300, -1e300, 0.1 + 0.2, -1.0 / 3.0, -2.5e-17)


def field_csv_oracle(f):
    """The field CSV written cell by cell through float_repr."""
    g = f.grid
    lines = ["x,y,value"]
    for j, y in enumerate(g.ys.tolist()):
        for i, x in enumerate(g.xs.tolist()):
            lines.append(",".join(float_repr(v) for v in (x, y, f.values[j, i])))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("bounds, nx, ny, fn", [
    ((0.0, 1.0, 0.0, 1.0), 3, 3, lambda X, Y: X + 10.0 * Y),
    # nx != ny, with coordinates that need all 17 digits
    ((-0.3, 0.7, 0.1, 0.6), 31, 16, lambda X, Y: np.sin(3.0 * X) * np.cos(5.0 * Y) - 0.1 * X),
    ((-1.0, 1.0, -1.0, 1.0), 257, 257, lambda X, Y: 0.5 * X * np.abs(X)),
])
def test_dump_field_csv_matches_the_per_cell_writer(tmp_path, bounds, nx, ny, fn):
    g = build_grid(*bounds, nx, ny)
    v = np.asarray(fn(*g.meshgrid()), dtype=float)
    v.ravel()[:len(SPECIAL_VALUES)] = SPECIAL_VALUES
    v[-1, -1] = -0.0
    f = ScalarField(g, v)
    path = tmp_path / "field.csv"
    dump_field_csv(f, str(path))
    assert path.read_bytes() == field_csv_oracle(f).encode()
