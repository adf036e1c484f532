"""Active-set solver: exactness, convergence, comparison, failure paths."""
import json
import math
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from membranelab import (
    BoundaryMap,
    ProblemSpec,
    ScalarField,
    SolverError,
    build_grid,
    comparison_check,
    energy,
    eval_many,
    interpolate_many,
    laplacian_interior,
    residual_field,
    solve,
    write_json,
)
import membranelab.solver as solver_module
from membranelab.solver import _cg, _forcing, _neighbor_sum, _pattern, _relax, _vcycle, _vcycle_ladder
from conftest import LP, LM, make_poly_problem, make_profile_problem


# ---------------------------------------------------------------------------
# ProblemSpec validation
# ---------------------------------------------------------------------------


def test_problem_spec_defaults_and_validation():
    g = build_grid(-1.0, 1.0, -1.0, 1.0, 9, 9)
    bc = BoundaryMap.from_callable(g, lambda X, Y: X)
    spec = ProblemSpec(g, bc, 2.0, 3.0)
    assert spec.tol_zero == pytest.approx(5e-10)
    with pytest.raises(ValueError):
        ProblemSpec(g, bc, 0.0, 1.0)
    with pytest.raises(ValueError):
        ProblemSpec(g, bc, 2.0, 2.0, tol_linear=0.0)
    with pytest.raises(ValueError):
        ProblemSpec(g, bc, 2.0, 2.0, tol_pattern=0)
    g2 = build_grid(-1.0, 1.0, -1.0, 1.0, 17, 17)
    with pytest.raises(ValueError):
        ProblemSpec(g2, bc, 2.0, 2.0)  # boundary grid mismatch


@pytest.mark.parametrize("kwargs, needle", [
    ({"lambda_plus": math.nan}, "lambda_plus must be finite, got nan"),
    ({"lambda_plus": math.inf}, "lambda_plus must be finite, got inf"),
    ({"lambda_minus": math.nan}, "lambda_minus must be finite, got nan"),
    ({"tol_linear": math.nan}, "tol_linear must be finite, got nan"),
    ({"tol_linear": math.inf}, "tol_linear must be finite, got inf"),
    ({"tol_pattern": 2.5}, "tol_pattern must be an int of at least 1, got 2.5"),
    ({"tol_pattern": True}, "tol_pattern must be an int of at least 1, got True"),
])
def test_problem_spec_rejects_non_finite_or_fractional_values(kwargs, needle):
    # NaN passes every <= check; a solve would then fail far from the cause
    g = build_grid(-1.0, 1.0, -1.0, 1.0, 9, 9)
    bc = BoundaryMap.from_callable(g, lambda X, Y: X)
    args = {"lambda_plus": 2.0, "lambda_minus": 2.0, **kwargs}
    with pytest.raises(ValueError, match=needle):
        ProblemSpec(g, bc, **args)


# ---------------------------------------------------------------------------
# Exact data
# ---------------------------------------------------------------------------


def test_polynomial_data_reproduced_at_nodes(poly_solutions):
    q, spec, u, report = poly_solutions[129]
    X, Y = spec.grid.meshgrid()
    err = float(np.max(np.abs(u.values - eval_many(q, X, Y))))
    assert err <= 1e-8
    assert report.converged
    assert report.final_residual <= spec.tol_linear


def test_profile_data_reproduced_as_a_field(profile_solutions):
    v, spec, u, report = profile_solutions[65]
    g = spec.grid
    # interpolant max-norm distance to the continuum solution carries the
    # bilinear representation error h^2/8 * max|D^2 u| = h^2/8 here
    xc = 0.5 * (g.xs[:-1] + g.xs[1:])
    yc = 0.5 * (g.ys[:-1] + g.ys[1:])
    XC, YC = np.meshgrid(xc, yc)
    got = interpolate_many(u, XC.ravel(), YC.ravel())
    want = eval_many(v, XC, YC).ravel()
    assert float(np.max(np.abs(got - want))) <= 1.05 * g.h**2 / 8.0
    assert report.converged


def test_zero_data_gives_zero_solution():
    g = build_grid(-1.0, 1.0, -1.0, 1.0, 33, 33)
    bc = BoundaryMap.from_callable(g, lambda X, Y: np.zeros_like(X))
    spec = ProblemSpec(g, bc, 2.0, 2.0)
    u, report = solve(spec)
    assert float(np.max(np.abs(u.values))) <= spec.tol_zero
    assert report.converged


# ---------------------------------------------------------------------------
# Genuinely two-phase and pinned configurations
# ---------------------------------------------------------------------------


def test_tilted_data_converges():
    v, spec = make_profile_problem(65, beta1=0.5, beta2=0.5)
    u, report = solve(spec)
    assert report.converged
    assert report.final_residual <= spec.tol_linear


def test_wavy_data_converges_with_clean_residual():
    g = build_grid(-1.0, 1.0, -1.0, 1.0, 65, 65)
    bc = BoundaryMap.from_callable(
        g, lambda X, Y: 0.5 * X * np.abs(X) + 0.1 * np.sin(np.pi * Y)
    )
    spec = ProblemSpec(g, bc, 2.0, 2.0)
    u, report = solve(spec)
    assert report.converged
    res = residual_field(spec, u)
    assert float(np.max(np.abs(res.values))) <= spec.tol_linear


def test_tau_data_keeps_a_pinned_band(tau_solution):
    v, spec, u, report = tau_solution
    assert report.converged
    X, Y = spec.grid.meshgrid()
    strip = (X > -0.35) & (X < -0.05) & (np.abs(Y) < 0.5)
    assert float(np.max(np.abs(u.values[strip]))) <= spec.tol_zero
    # both phases survive away from the slab
    assert float(np.max(u.values)) > 0.1
    assert float(np.min(u.values)) < -0.05


def test_energy_history_non_increasing(tau_solution):
    _, _, _, report = tau_solution
    e = np.asarray(report.energy_history)
    assert e.size >= 1
    assert np.all(np.diff(e) <= 1e-12)


def test_report_json_dict_shape(tmp_path, profile_solutions):
    _, _, _, report = profile_solutions[65]
    path = tmp_path / "solve_report.json"
    write_json(report, str(path))
    d = json.loads(path.read_text())
    for key in ("iterations", "final_energy", "final_residual",
                "pattern_changes", "energy_history", "converged", "levels"):
        assert key in d
    assert [level["nx"] for level in d["levels"]] == [17, 33, 65]
    for level in d["levels"]:
        assert sorted(level) == ["cg_iterations", "nx", "ny", "sweeps"]
        assert level["nx"] == level["ny"] and level["sweeps"] >= 1
    assert d["levels"][-1]["sweeps"] == d["iterations"]


# ---------------------------------------------------------------------------
# Energy and residual semantics
# ---------------------------------------------------------------------------


def test_solution_has_lower_energy_than_perturbations(profile_solutions):
    v, spec, u, report = profile_solutions[65]
    e0 = energy(spec, u)
    rng = np.random.default_rng(5)
    bump = rng.standard_normal(u.values.shape) * 1e-3
    bump[0, :] = bump[-1, :] = bump[:, 0] = bump[:, -1] = 0.0
    assert energy(spec, ScalarField(spec.grid, u.values + bump)) > e0


def test_residual_field_is_band_exempt(poly_solutions):
    q, spec, u, _ = poly_solutions[129]
    res = residual_field(spec, u)
    # boundary ring and |u| <= tol_zero nodes report exactly zero
    assert np.all(res.values[0, :] == 0.0) and np.all(res.values[:, 0] == 0.0)
    band = np.abs(u.values) <= spec.tol_zero
    assert np.all(res.values[band] == 0.0)
    assert float(np.max(np.abs(res.values))) <= spec.tol_linear


# ---------------------------------------------------------------------------
# Comparison principle
# ---------------------------------------------------------------------------


def test_comparison_check_on_ordered_data():
    g = build_grid(-1.0, 1.0, -1.0, 1.0, 65, 65)
    fn = lambda X, Y: 0.5 * X * np.abs(X)
    d1 = BoundaryMap.from_callable(g, fn)
    d2 = d1.perturbed(lambda X, Y: np.ones_like(X), 0.05)
    spec1 = ProblemSpec(g, d1, 2.0, 2.0)
    spec2 = ProblemSpec(g, d2, 2.0, 2.0)
    u1, _ = solve(spec1)
    u2, _ = solve(spec2)
    result = comparison_check(u1, spec1, u2, spec2)
    assert result.holds
    assert result.sup_boundary_diff == pytest.approx(0.05, abs=1e-14)
    assert result.sup_interior_diff <= 0.05 + 1e-9


def test_comparison_check_identical_fields(profile_solutions):
    v, spec, u, _ = profile_solutions[65]
    result = comparison_check(u, spec, u, spec)
    assert result.holds
    assert result.sup_interior_diff == 0.0
    assert result.sup_boundary_diff == 0.0


# ---------------------------------------------------------------------------
# Failure path
# ---------------------------------------------------------------------------


def test_residual_and_comparison_reject_fields_of_another_grid(profile_solutions):
    _, spec65, u65, _ = profile_solutions[65]
    _, spec129, u129, _ = profile_solutions[129]
    with pytest.raises(ValueError, match="field grid differs from problem grid"):
        residual_field(spec65, u129)
    with pytest.raises(ValueError, match="comparison requires a shared grid"):
        comparison_check(u65, spec65, u129, spec129)


def test_sweep_budget_exhaustion_raises_with_report():
    v, spec = make_profile_problem(65, tau=-0.4)
    tight = ProblemSpec(spec.grid, spec.boundary, LP, LM, tol_pattern=1)
    with pytest.raises(SolverError) as err:
        solve(tight)
    report = err.value.report
    assert not report.converged
    assert report.iterations == 1


@pytest.mark.parametrize("n", [65, 129])
def test_profile_data_settles_within_one_sweep_per_level(n):
    # the certifying tight solve belongs to the sweep whose loose solve
    # changed no state; counted as a sweep of its own, this raised
    spec = make_profile_problem(n)[1]
    once = ProblemSpec(spec.grid, spec.boundary, LP, LM, tol_pattern=1)
    u, report = solve(once)
    assert report.converged
    assert report.iterations == 1
    assert all(level["sweeps"] == 1 for level in report.levels)
    assert_postconditions(once, u)


def test_stalled_cg_fails_fast():
    # 1e-15 is under the rounding floor of the five-point residual even on
    # the 17-node level; the loop without the stall exit ran all 60 * 17
    # iterations of both CG calls there (2,040) before failing
    spec = make_profile_problem(65)[1]
    tight = ProblemSpec(spec.grid, spec.boundary, LP, LM, tol_linear=1e-15)
    with pytest.raises(SolverError, match="linear residual target not met") as err:
        solve(tight)
    report = err.value.report
    assert not report.converged
    assert report.levels[-1]["cg_iterations"] <= 100


# ---------------------------------------------------------------------------
# The V-cycle preconditioner
# ---------------------------------------------------------------------------


def band_free(shape):
    free = np.ones(shape, dtype=bool)
    free[:, shape[1] // 3:shape[1] // 2] = False
    return free


def scattered_free(shape):
    return np.random.default_rng(3).random(shape) > 0.2


def all_free(shape):
    return np.ones(shape, dtype=bool)


# name: (interior shape, free set builder, levels of its V-cycle); an
# interior length m halves to m // 2 while both lengths exceed 7
VCYCLE_CASES = {
    "pinned_band_65": ((63, 63), band_free, 4),
    "scattered_pins_65": ((63, 63), scattered_free, 4),
    "rectangle_129x65": ((63, 127), all_free, 4),
    "odd_100": ((98, 98), all_free, 5),
    "nodes_17": ((15, 15), band_free, 2),
    "even_66x34_band": ((32, 64), band_free, 4),
    "even_128_scattered": ((126, 126), scattered_free, 5),
    "mixed_66x65_scattered": ((63, 64), scattered_free, 4),
}


@pytest.mark.parametrize("name", list(VCYCLE_CASES))
def test_vcycle_is_symmetric_positive_definite(name):
    # an even interior length halves as if its far ring node were one more
    # pinned node, so the transfers stay transposes on every shape
    shape, build, levels = VCYCLE_CASES[name]
    free = build(shape)
    h = 2.0 / (shape[1] + 1)
    ladder = _vcycle_ladder(h, free)
    assert len(ladder) == levels
    rng = np.random.default_rng(11)
    fine = ladder[0]
    for _ in range(3):
        x, y = (np.where(free, rng.standard_normal(shape), 0.0) for _ in range(2))
        # the cycle returns the level's own array, so copy each result
        bx, by = (fine.inner(_vcycle(ladder, fine.embed(v))).copy() for v in (x, y))
        assert np.all(bx[~free] == 0.0)
        scale = np.linalg.norm(bx) * np.linalg.norm(y)
        assert abs(np.sum(bx * y) - np.sum(x * by)) <= 1e-12 * scale
        assert np.sum(bx * x) > 0.0


@dataclass
class MaskedLevel:
    """The V-cycle level as it was on interior arrays with boolean colour masks."""

    h2: float
    free: np.ndarray
    red: np.ndarray
    black: np.ndarray
    full: np.ndarray
    inverse: np.ndarray | None

    @classmethod
    def like(cls, level):
        my, mx = level.free.shape
        red = (np.arange(my)[:, None] + np.arange(mx)) % 2 == 0
        return cls(level.h2, level.free, red & level.free, ~red & level.free,
                   np.zeros((my + 2, mx + 2)), level.inverse)

    def neighbors(self, w):
        self.full[1:-1, 1:-1] = w
        return _neighbor_sum(self.full)

    def apply(self, w):
        out = (4.0 * w - self.neighbors(w)) / self.h2
        out[~self.free] = 0.0
        return out

    def smooth(self, z, q, colors):
        for color in colors:
            z = np.where(color, q + 0.25 * self.neighbors(z), z)
        return z


def masked_restrict(full):
    r = full[:, 2:-1:2] + 0.5 * (full[:, 1:-2:2] + full[:, 3::2])
    return 0.25 * (r[2:-1:2, :] + 0.5 * (r[1:-2:2, :] + r[3::2, :]))


def masked_interpolate(coarse):
    ny, nx = coarse.shape
    fine = np.empty((2 * ny - 1, 2 * nx - 1))
    fine[::2, ::2] = coarse
    fine[::2, 1::2] = 0.5 * (coarse[:, :-1] + coarse[:, 1:])
    fine[1::2, :] = 0.5 * (fine[:-2:2, :] + fine[2::2, :])
    return fine


def masked_vcycle(ladder, r, k=0):
    level = ladder[k]
    if level.inverse is not None:
        return (level.inverse @ r.ravel()).reshape(r.shape)
    q = (0.25 * level.h2) * r
    z = level.smooth(np.where(level.red, q, 0.0), q, (level.black,))
    if k + 1 < len(ladder):
        coarse = ladder[k + 1]
        np.subtract(r, level.apply(z), out=level.full[1:-1, 1:-1])
        rc = masked_restrict(level.full)
        rc[~coarse.free] = 0.0
        ec = np.zeros(coarse.full.shape)
        ec[1:-1, 1:-1] = masked_vcycle(ladder, rc, k + 1)
        z += np.where(level.free, masked_interpolate(ec)[1:r.shape[0] + 1, 1:r.shape[1] + 1], 0.0)
    return level.smooth(z, q, (level.black, level.red))


def masked_cg(ladder, rhs, w0, tol, max_iter):
    fine = ladder[0]
    b = np.where(fine.free, rhs, 0.0)
    w = np.where(fine.free, w0, 0.0)
    it = 0
    res_prev = float("inf")
    while True:
        r = b - fine.apply(w)
        res = float(np.max(np.abs(r)))
        if res <= tol or it == max_iter or res >= res_prev:
            return w, res, it
        res_prev = res
        z = masked_vcycle(ladder, r)
        p = z.copy()
        rz = float(np.sum(r * z))
        while it < max_iter:
            it += 1
            ap = fine.apply(p)
            alpha = rz / float(np.sum(p * ap))
            w += alpha * p
            r -= alpha * ap
            if float(np.max(np.abs(r))) <= tol:
                break
            z = masked_vcycle(ladder, r)
            rz_new = float(np.sum(r * z))
            p = z + (rz_new / rz) * p
            rz = rz_new


@pytest.mark.parametrize("name", list(VCYCLE_CASES))
def test_flat_vcycle_and_cg_match_the_masked_kernel_bit_for_bit(name):
    # every node keeps the masked kernel's expression and operand order, and
    # every dot product sums a contiguous product of interior views
    shape, build, _ = VCYCLE_CASES[name]
    free = build(shape)
    ladder = _vcycle_ladder(2.0 / (shape[1] + 1), free)
    masked = [MaskedLevel.like(level) for level in ladder]
    fine = ladder[0]
    rng = np.random.default_rng(5)
    for _ in range(3):
        x = np.where(free, rng.standard_normal(shape), 0.0)
        z = _vcycle(ladder, fine.embed(x))
        assert fine.inner(z).tobytes() == masked_vcycle(masked, x).tobytes()
        assert np.count_nonzero(z) == np.count_nonzero(fine.inner(z))
        rhs = rng.standard_normal(shape)
        w, res, its = _cg(ladder, rhs, fine.embed(np.zeros(shape)), 1e-9, 200)
        w_m, res_m, its_m = masked_cg(masked, rhs, np.zeros(shape), 1e-9, 200)
        assert (w.tobytes(), res, its) == (w_m.tobytes(), res_m, its_m)


@pytest.mark.parametrize("n, tau", [(257, 0.0), (513, 0.0), (513, -0.4)])
def test_vcycle_keeps_cg_iterations_per_sweep_flat(n, tau, profile_solutions):
    # Jacobi preconditioning took 439 and 860 finest-level iterations on
    # profile data at n = 257 and 513, about linear in n
    if (n, tau) == (257, 0.0):
        _, _, _, report = profile_solutions[257]
    else:
        _, report = solve(make_profile_problem(n, tau=tau)[1])
    finest = report.levels[-1]
    assert finest["cg_iterations"] <= 30 * finest["sweeps"]


# name: problem on a grid with odd n - 1, which the nested solve leaves on one level
ONE_LEVEL_CASES = {
    "profile_100": lambda: make_profile_problem(100)[1],
    "shifted_profile_100": lambda: shifted_profile_problem(100, 0.1),
    "profile_128": lambda: make_profile_problem(128)[1],
    "shifted_profile_128": lambda: shifted_profile_problem(128, 0.1),
    "profile_130": lambda: make_profile_problem(130)[1],
    "shifted_profile_130": lambda: shifted_profile_problem(130, 0.1),
    "profile_256": lambda: make_profile_problem(256)[1],
    "wavy_66x34": lambda: wavy_problem(66, 34, 2.0, 2.0, y_half=33 / 65),
}


@pytest.mark.parametrize("name", list(ONE_LEVEL_CASES))
def test_one_level_grids_take_few_cg_iterations_per_sweep(name):
    # with Gauss-Seidel alone as the preconditioner these took 257 to
    # 2,450 iterations; the V-cycle halves even interior lengths too
    spec = ONE_LEVEL_CASES[name]()
    u, report = solve(spec)
    assert len(report.levels) == 1
    finest = report.levels[-1]
    # one more solve than sweeps: the tight re-solve of the settled states
    assert finest["cg_iterations"] <= 30 * (finest["sweeps"] + 1)
    assert_postconditions(spec, u)


# ---------------------------------------------------------------------------
# Nested-grid ladder against the single-level loop
# ---------------------------------------------------------------------------


def single_level_cg(g, rhs, w0, free, tol, max_iter):
    """The Jacobi-PCG that stops on its recursively updated residual."""
    h2 = g.h * g.h
    full = np.zeros(g.shape)

    def apply_a(w):
        full[1:-1, 1:-1] = w
        out = (4.0 * w - _neighbor_sum(full)) / h2
        out[~free] = 0.0
        return out

    w = np.where(free, w0, 0.0)
    r = np.where(free, rhs, 0.0) - apply_a(w)
    if np.max(np.abs(r)) <= tol:
        return w
    minv = h2 / 4.0
    z = minv * r
    p = z.copy()
    rz = np.sum(r * z)
    for _ in range(max_iter):
        ap = apply_a(p)
        alpha = rz / np.sum(p * ap)
        w += alpha * p
        r -= alpha * ap
        if np.max(np.abs(r)) <= tol:
            return w
        z = minv * r
        rz_new = np.sum(r * z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    return w


def single_level_solve(spec):
    """The active-set loop on the target grid alone, from the harmonic start."""
    g = spec.grid
    h2 = g.h * g.h
    tolz, lp, lm = spec.tol_zero, spec.lambda_plus, spec.lambda_minus
    tol_mult = 100.0 * spec.tol_linear / h2
    max_cg = 60 * max(g.nx, g.ny)
    tol_cg = 0.9 * spec.tol_linear
    bvals = spec.boundary.values
    nbr_b = _neighbor_sum(bvals) / h2
    free = np.ones((g.ny - 2, g.nx - 2), dtype=bool)
    U = bvals.copy()
    U[1:-1, 1:-1] = single_level_cg(g, nbr_b, np.zeros_like(nbr_b), free, tol_cg, max_cg)
    state = _pattern(U[1:-1, 1:-1], tolz)
    for _ in range(spec.tol_pattern):
        free = state != 0
        rhs = -_forcing(state, lp, lm) + nbr_b
        w = single_level_cg(g, rhs, np.where(free, U[1:-1, 1:-1], 0.0), free, tol_cg, max_cg)
        V = bvals.copy()
        V[1:-1, 1:-1] = w
        lap = laplacian_interior(ScalarField(g, V))
        new_state = state.copy()
        new_state[(state > 0) & (w < -tolz)] = 0
        new_state[(state < 0) & (w > tolz)] = 0
        pinned = state == 0
        new_state[pinned & (lap > 0.5 * lp + tol_mult)] = 1
        new_state[pinned & (lap < -0.5 * lm - tol_mult)] = -1
        if np.array_equal(new_state, state):
            return V
        state, U = new_state, V
    raise AssertionError("oracle states did not settle")


def wavy_problem(nx, ny, lp, lm, y_half=1.0):
    g = build_grid(-1.0, 1.0, -y_half, y_half, nx, ny)
    bc = BoundaryMap.from_callable(
        g, lambda X, Y: 0.5 * X * np.abs(X) + 0.1 * np.sin(np.pi * Y)
    )
    return ProblemSpec(g, bc, lp, lm)


def shifted_profile_problem(n, delta):
    """Profile data lifted by the constant delta, as in a constant-shift sweep."""
    spec = make_profile_problem(n)[1]
    return ProblemSpec(spec.grid, spec.boundary.perturbed(lambda X, Y: np.ones_like(X), delta),
                       LP, LM)


# name: (problem builder, node counts per level, coarsest first)
LADDER_CASES = {
    "profile_65": (lambda: make_profile_problem(65)[1], [17, 33, 65]),
    "profile_129": (lambda: make_profile_problem(129)[1], [17, 33, 65, 129]),
    "profile_257": (lambda: make_profile_problem(257)[1], [17, 33, 65, 129, 257]),
    "tau_65": (lambda: make_profile_problem(65, tau=-0.4)[1], [17, 33, 65]),
    "tau_129": (lambda: make_profile_problem(129, tau=-0.4)[1], [17, 33, 65, 129]),
    "wavy_lp0.2_lm2": (lambda: wavy_problem(65, 65, 0.2, 2.0), [17, 33, 65]),
    "wavy_lp10_lm1": (lambda: wavy_problem(65, 65, 10.0, 1.0), [17, 33, 65]),
    "wavy_lp1_lm10": (lambda: wavy_problem(65, 65, 1.0, 10.0), [17, 33, 65]),
    "polynomial_129": (lambda: make_poly_problem(129)[1], [17, 33, 65, 129]),
    "rectangle_129x65": (lambda: wavy_problem(129, 65, 2.0, 2.0, y_half=0.5), [33, 65, 129]),
    "odd_100": (lambda: make_profile_problem(100)[1], [100]),
    "shifted_profile_65": (lambda: shifted_profile_problem(65, 0.1), [17, 33, 65]),
}


@pytest.mark.parametrize("name", list(LADDER_CASES))
def test_nested_solve_matches_the_single_level_loop(name):
    build, ladder = LADDER_CASES[name]
    spec = build()
    u, report = solve(spec)
    assert report.converged
    assert [level["nx"] for level in report.levels] == ladder
    assert [level["ny"] for level in report.levels] == [
        (n - 1) * (spec.grid.ny - 1) // (spec.grid.nx - 1) + 1 for n in ladder
    ]
    assert report.levels[-1]["sweeps"] == report.iterations
    assert len(report.pattern_changes) == report.iterations
    want = single_level_solve(spec)
    assert float(np.max(np.abs(u.values - want))) <= 1e-10


def assert_postconditions(spec, u):
    """Dirichlet data, residual off the band and the band multiplier, from u alone."""
    ring = np.ones(spec.grid.shape, dtype=bool)
    ring[1:-1, 1:-1] = False
    assert np.array_equal(u.values[ring], spec.boundary.values[ring])
    assert float(np.max(np.abs(residual_field(spec, u).values))) <= spec.tol_linear
    lap = laplacian_interior(u)
    band = np.abs(u.values[1:-1, 1:-1]) <= spec.tol_zero
    slack = 100.0 * spec.tol_linear / spec.grid.h**2
    if band.any():
        assert float(np.max(lap[band])) <= 0.5 * spec.lambda_plus + slack
        assert float(np.min(lap[band])) >= -0.5 * spec.lambda_minus - slack


@pytest.mark.parametrize("tau", [0.0, -0.4])
def test_postconditions_recomputed_from_the_field_at_257(tau, profile_solutions):
    # both fields broke tol_linear (1.31e-10 and 1.20e-10) while CG stopped
    # on its recursively updated residual
    if tau == 0.0:
        _, spec, u, _ = profile_solutions[257]
    else:
        spec = make_profile_problem(257, tau=tau)[1]
        u, _ = solve(spec)
    assert_postconditions(spec, u)


@pytest.mark.xfail(strict=True, raises=SolverError,
                   reason="the states cycle with period 4 on this one-level grid")
def test_one_level_shifted_profile_settles():
    # found by a random search over one-level ladders (n - 1 odd): the
    # pattern changes settle into the cycle 48, 44, 44, 40 and the loop
    # runs out of sweeps; pinning the nodes that change on any repeated
    # state did not settle it either
    g = build_grid(-1.0, 1.0, -1.0, 1.0, 34, 34)
    bc = BoundaryMap.from_callable(g, lambda X, Y: 0.5 * X * np.abs(X) + 0.018307936618106934)
    spec = ProblemSpec(g, bc, 1.0906611685712475, 2.8378063622819885)
    u, report = solve(spec)
    assert report.converged
    assert_postconditions(spec, u)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(
    coef=st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=5, max_size=5),
    lp=st.floats(min_value=0.1, max_value=10.0),
    lm=st.floats(min_value=0.1, max_value=10.0),
    n=st.sampled_from([33, 65]),
    rectangle=st.booleans(),
    lift=st.floats(min_value=0.01, max_value=0.5),
)
def test_solve_fuzz_postconditions_and_comparison(coef, lp, lm, n, rectangle, lift):
    c0, c1, c2, c3, c4 = coef
    y_half = 0.5 if rectangle else 1.0
    g = build_grid(-1.0, 1.0, -y_half, y_half, n, (n + 1) // 2 if rectangle else n)
    d1 = BoundaryMap.from_callable(
        g, lambda X, Y: 0.1 * c0 + 0.5 * c1 * X + 0.5 * c2 * Y
        + 0.3 * c3 * (X * X - Y * Y) + 0.2 * c4 * np.sin(np.pi * (X + Y))
    )
    d2 = d1.perturbed(lambda X, Y: np.ones_like(X), lift)
    spec1 = ProblemSpec(g, d1, lp, lm)
    spec2 = ProblemSpec(g, d2, lp, lm)
    u1, r1 = solve(spec1)
    u2, r2 = solve(spec2)
    assert_postconditions(spec1, u1)
    assert_postconditions(spec2, u2)
    assert comparison_check(u1, spec1, u2, spec2).holds
    for report in (r1, r2):
        # the raw energy of each sweep, so the decrease is not by construction
        e = np.asarray(report.energy_history)
        assert np.all(np.diff(e) <= 1e-12 * np.abs(e[:-1]))


def test_shifted_profile_solves_take_few_finest_cg_iterations(profile_solutions):
    # with every sweep solved down to tol_linear the finest level took 58,
    # 58 and 60 iterations over its 4 sweeps; loose sweeps take 38-42
    _, spec, u, _ = profile_solutions[129]
    for delta in (0.1, 0.05, 0.025):
        spec_d = shifted_profile_problem(129, delta)
        u_d, report = solve(spec_d)
        assert report.iterations > 1
        assert report.levels[-1]["cg_iterations"] <= 50, delta
        assert_postconditions(spec_d, u_d)
        assert comparison_check(u, spec, u_d, spec_d).holds


# n = 513 only at delta = 0: at delta = 0.1 its finest level takes 23 sweeps
@pytest.mark.parametrize("delta, n", [(0.0, 129), (0.0, 257), (0.1, 129), (0.1, 257), (0.0, 513),
                                      (0.0, 128), (0.1, 128)])
def test_solve_holds_at_most_14_full_grids(n, delta):
    # the finest level's first V-cycle sets the peak: 10.5, 9.1 and 8.8 grids
    # at n = 129, 257 and 513.  With a 2-D start held beside CG's flat copy,
    # h^2 r / 4 stored per level and a scratch array per level they read 13.2,
    # 11.8 and 11.4, and holding every array the sweeps built 21.5 and 20.8.
    # n = 128 solves on one level from the harmonic start: 10.2 and 10.6
    # grids, and 11.7 on both with that start's ladder kept through the sweeps
    spec = make_profile_problem(n)[1] if delta == 0.0 else shifted_profile_problem(n, delta)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        solve(spec)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= 11 * n * n * 8, peak / (n * n * 8)


# name: per-level (nx, sweeps, cg_iterations), coarsest first, of
# shifted_profile_problem(129, delta); without the smoothed prolonged start
# the finest level took 4 sweeps on each.  With two relaxation passes on the
# prolonged starts only, and each level's loose target from its own h, they
# were
#   0.1: (17, 4, 34), (33, 2, 11), (65, 2, 13), (129, 3, 30)
#   0.05: (17, 5, 35), (33, 2, 14), (65, 3, 19), (129, 3, 32)
#   0.025: (17, 3, 26), (33, 3, 17), (65, 2, 15), (129, 3, 32)
SHIFTED_129_COUNTS = {
    0.1: [(17, 4, 25), (33, 2, 7), (65, 3, 15), (129, 2, 24)],
    0.05: [(17, 4, 21), (33, 2, 10), (65, 1, 6), (129, 3, 32)],
    0.025: [(17, 3, 20), (33, 3, 13), (65, 2, 13), (129, 3, 32)],
}


@pytest.mark.parametrize("delta", list(SHIFTED_129_COUNTS))
def test_shifted_profile_sweeps_and_cg_iterations_are_pinned(delta):
    # the counts are deterministic; a change that loses the smoothed starts,
    # the relaxed harmonic start or the one loose target moves them
    _, report = solve(shifted_profile_problem(129, delta))
    got = [(level["nx"], level["sweeps"], level["cg_iterations"]) for level in report.levels]
    assert got == SHIFTED_129_COUNTS[delta]


# ---------------------------------------------------------------------------
# The smoothed prolonged start: nonlinear Gauss-Seidel on J_h
# ---------------------------------------------------------------------------


def random_spec(nx, ny, lp, lm, seed):
    """A ProblemSpec whose data and returned field are random, with both signs and zeros."""
    y_half = (ny - 1) / (nx - 1)
    g = build_grid(-1.0, 1.0, -y_half, y_half, nx, ny)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(g.shape) * 0.05
    v[rng.random(g.shape) < 0.2] = 0.0
    return ProblemSpec(g, BoundaryMap(g, v), lp, lm), v


def relax_node_by_node(spec, v):
    """The solver's red-black passes, one node at a time; each update is checked as a coordinate minimiser."""
    v = v.copy()
    h2 = spec.grid.h ** 2
    hp, hm = 0.5 * h2 * spec.lambda_plus, 0.5 * h2 * spec.lambda_minus
    ny, nx = v.shape
    for colour in (0, 1) * solver_module._RELAX_PASSES:
        for i in range(1, ny - 1):
            for j in range(1, nx - 1):
                if (i + j) % 2 != colour:
                    continue
                s = v[i, j - 1] + v[i, j + 1] + v[i - 1, j] + v[i + 1, j]
                t = 0.25 * (s - hp) if s > hp else 0.25 * (s + hm) if s < -hm else 0.0
                # J_h along this node is 2 t^2 - s t + hp t+ + hm t-, convex:
                # its slope vanishes at t, or brackets zero when t = 0
                slack = 1e-14 * (abs(s) + hp + hm)
                if t > 0.0:
                    assert abs(4.0 * t - s + hp) <= slack
                elif t < 0.0:
                    assert abs(4.0 * t - s - hm) <= slack
                else:
                    assert -hm - slack <= s <= hp + slack
                v[i, j] = t
    return v


@pytest.mark.parametrize("nx, ny, lp, lm", [(17, 17, 2.0, 2.0), (33, 33, 0.5, 4.0), (66, 34, 3.0, 1.0)])
def test_relax_moves_every_node_to_its_coordinate_minimiser(nx, ny, lp, lm):
    # 66 x 34 has an even interior width, so its rows carry a padding column
    spec, v = random_spec(nx, ny, lp, lm, seed=nx)
    got = _relax(spec, v)
    want = relax_node_by_node(spec, v)
    assert np.array_equal(got, want)
    # all three branches of the minimiser occur
    inner = got[1:-1, 1:-1]
    assert (inner > 0.0).any() and (inner < 0.0).any() and (inner == 0.0).any()
    assert np.array_equal(got[[0, -1], :], v[[0, -1], :])
    assert np.array_equal(got[:, [0, -1]], v[:, [0, -1]])


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("nx, ny", [(17, 17), (65, 65), (129, 129), (66, 34)])
def test_relax_never_raises_the_energy(nx, ny, seed):
    rng = np.random.default_rng(100 + seed)
    lp, lm = (float(x) for x in 10.0 ** rng.uniform(-1.0, 1.0, 2))
    spec, v = random_spec(nx, ny, lp, lm, seed)
    g = spec.grid
    before = energy(spec, ScalarField(g, v))
    after = energy(spec, ScalarField(g, _relax(spec, v)))
    assert after <= before
    assert energy(spec, ScalarField(g, _relax(spec, _relax(spec, v)))) <= after


@pytest.mark.parametrize("n", [99, 127, 131, 255])
def test_antisymmetric_profile_data_settles_in_one_finest_sweep(n):
    # the nested coarse level of these grids has an even interior length, so
    # its field is off odd symmetry by up to 2.2e-8; from the bare bilinear
    # start the finest level took 7, 8, 7 and 10 sweeps
    spec = make_profile_problem(n)[1]
    u, report = solve(spec)
    assert [level["nx"] for level in report.levels] == [(n + 1) // 2, n]
    assert report.levels[-1]["sweeps"] == 1
    assert_postconditions(spec, u)


def test_harmonic_start_meets_the_loose_target(monkeypatch, profile_solutions):
    calls, relaxed = [], []

    def recording_cg(ladder, rhs, w0, tol, max_iter):
        out = _cg(ladder, rhs, w0, tol, max_iter)
        calls.append((rhs.shape, tol, out[2]))
        return out

    def recording_relax(spec, full):
        relaxed.append(spec.grid.nx)
        return _relax(spec, full)

    monkeypatch.setattr(solver_module, "_cg", recording_cg)
    monkeypatch.setattr(solver_module, "_relax", recording_relax)
    _, spec, _, _ = profile_solutions[129]
    _, report = solve(spec)
    coarsest = report.levels[0]
    assert (coarsest["nx"], coarsest["ny"]) == (17, 17)
    shape, tol, _ = calls[0]
    assert shape == (15, 15)
    # the finest level's loose target, not the 64 times tighter one of h = 2 / 16
    assert tol == 100.0 * spec.tol_linear / (2.0 / 128) ** 2
    # every start is relaxed, the coarsest level's harmonic start too
    assert relaxed == [17, 33, 65, 129]
    # 16 when the harmonic start met 0.9 tol_linear, 13 at its own level's loose target
    assert coarsest["cg_iterations"] < 13
    # the finest level still ends on its tight solve
    assert calls[-1][:2] == ((127, 127), 0.9 * spec.tol_linear)
    assert report.final_residual <= spec.tol_linear
