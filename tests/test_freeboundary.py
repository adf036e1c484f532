"""Zero-set geometry: extraction, classification, graphs, traces, coverings."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from membranelab import (
    BoundaryMap,
    CircleTrace,
    DegenerateRescaleError,
    FieldAnalysis,
    NotVerticallySimpleError,
    ProblemSpec,
    RadiusLadder,
    ZeroSetEmptyError,
    build_grid,
    circle_trace,
    classify_point,
    covering_count,
    dist_to_polynomial_class,
    eval_many,
    extract_free_boundary,
    fit_two_graphs,
    interpolate_many,
    perimeter_estimate,
    profile_boundary_trace,
    reflection_xi,
    sample,
    solve,
)
from membranelab import GlobalProfile, OnePhasePolynomial
from membranelab.cli import _write_free_boundary
from conftest import profile_fn, spec_of

S_1 = math.sqrt(3.0 * math.pi / 16.0)


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------


def test_extraction_brackets_the_interface(profile_solutions):
    v, spec, u, _ = profile_solutions[65]
    fb = extract_free_boundary(u, spec.tol_zero)
    assert fb.spacing == spec.grid.h
    assert len(fb.plus_boundary) == 1 and len(fb.minus_boundary) == 1
    for chains, side in ((fb.plus_boundary, 1.0), (fb.minus_boundary, -1.0)):
        xs = chains[0][:, 0]
        assert float(np.max(np.abs(xs))) <= spec.grid.h
        ys = chains[0][:, 1]
        assert ys.min() == -1.0 and ys.max() == 1.0


def test_extraction_vertices_sit_on_the_levels(profile_solutions):
    # each plus vertex interpolates u to +tol_zero, each minus one to -tol_zero
    v, spec, u, _ = profile_solutions[129]
    fb = extract_free_boundary(u, spec.tol_zero)
    plus = np.vstack(fb.plus_boundary)
    minus = np.vstack(fb.minus_boundary)
    up = interpolate_many(u, plus[:, 0], plus[:, 1])
    um = interpolate_many(u, minus[:, 0], minus[:, 1])
    assert float(np.max(np.abs(up - spec.tol_zero))) <= 1e-12
    assert float(np.max(np.abs(um + spec.tol_zero))) <= 1e-12


def test_extraction_vertex_spacing_bounded_by_cell_diameter(profile_solutions):
    v, spec, u, _ = profile_solutions[65]
    fb = extract_free_boundary(u, spec.tol_zero)
    for chain in fb.plus_boundary + fb.minus_boundary:
        steps = np.linalg.norm(np.diff(chain, axis=0), axis=1)
        assert float(np.max(steps)) <= spec.grid.h * math.sqrt(2.0) + 1e-12
        assert float(np.min(steps)) > 0.0  # consecutive duplicates removed


def test_extraction_of_positive_field_is_empty():
    g = build_grid(-1.0, 1.0, -1.0, 1.0, 33, 33)
    u = sample(g, lambda X, Y: np.ones_like(X))
    fb = extract_free_boundary(u, spec_of(u).tol_zero)
    assert fb.plus_boundary == () and fb.minus_boundary == ()
    assert fb.all_vertices().shape == (0, 2)


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("offset", [0.005, -0.005])
def test_saddle_cells_follow_the_cell_centre_average(sign, offset):
    # the centre cell of an even grid is a saddle of sign * x * y + offset:
    # codes 5 (plus set of sign 1, minus set of sign -1) and 10 (the other
    # two), with the offset setting the sign of the cell-centre average; the
    # zero set is the hyperbola sign * x * y = -offset, one branch per
    # quadrant where x * y has the sign of -sign * offset
    g = build_grid(-1.0, 1.0, -1.0, 1.0, 8, 8)
    u = sample(g, lambda X, Y: sign * X * Y + offset)
    fb = extract_free_boundary(u, 0.0)
    quadrant = -np.sign(sign * offset)
    for chains in (fb.plus_boundary, fb.minus_boundary):
        assert len(chains) == 2
        corners = set()
        for chain in chains:
            sx, sy = np.sign(chain[:, 0]), np.sign(chain[:, 1])
            # a wrong saddle split joins the two branches through the cell
            assert np.all(sx == sx[0]) and np.all(sy == sy[0])
            assert sx[0] * sy[0] == quadrant
            # the field is linear along cell edges, so vertices are exact
            assert float(np.max(np.abs(sign * chain[:, 0] * chain[:, 1] + offset))) <= 1e-15
            corners.add((sx[0], sy[0]))
        assert len(corners) == 2


def test_extraction_recovers_the_pinned_slab(tau_solution):
    v, spec, u, _ = tau_solution
    fb = extract_free_boundary(u, spec.tol_zero)
    plus = np.vstack(fb.plus_boundary)
    minus = np.vstack(fb.minus_boundary)
    assert float(np.max(np.abs(plus[:, 0]))) <= 2.0 * spec.grid.h
    assert float(np.max(np.abs(minus[:, 0] + 0.4))) <= 2.0 * spec.grid.h


def test_circle_zero_set_closes_into_a_loop():
    g = build_grid(-1.0, 1.0, -1.0, 1.0, 129, 129)
    u = sample(g, lambda X, Y: 0.25 - X**2 - Y**2)
    fb = extract_free_boundary(u, spec_of(u).tol_zero)
    assert len(fb.plus_boundary) == 1
    loop = fb.plus_boundary[0]
    assert np.array_equal(loop[0], loop[-1])
    radii = np.hypot(loop[:, 0], loop[:, 1])
    assert np.max(np.abs(radii - 0.5)) <= g.h


def test_free_boundary_csv(tmp_path, profile_solutions):
    v, spec, u, _ = profile_solutions[65]
    fb = extract_free_boundary(u, spec.tol_zero)
    path = tmp_path / "fb.csv"
    _write_free_boundary(fb, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "phase,component_id,x,y"
    assert lines[1].startswith("plus,0,")


# ---------------------------------------------------------------------------
# Polynomial-cone distance
# ---------------------------------------------------------------------------


def test_polynomial_cone_distance_on_members():
    g = build_grid(-1.0, 1.0, -1.0, 1.0, 65, 65)
    q = OnePhasePolynomial(0.25, 0.0, 0.25, 1)
    d, best = dist_to_polynomial_class(sample(g, lambda X, Y: eval_many(q, X, Y)))
    assert d <= 1e-12
    assert best.sign == 1
    qn = OnePhasePolynomial(-0.4, 0.1, -0.2, -1)
    d, best = dist_to_polynomial_class(sample(g, lambda X, Y: eval_many(qn, X, Y)))
    assert d <= 1e-12
    assert best.sign == -1


def test_polynomial_cone_rejects_two_phase_profile():
    # odd-in-x1 data has a zero quadratic fit: distance is the full sup 0.5
    g = build_grid(-1.0, 1.0, -1.0, 1.0, 65, 65)
    d, _ = dist_to_polynomial_class(sample(g, profile_fn()))
    assert d == pytest.approx(0.5, abs=1e-6)


def test_polynomial_cone_degenerate_field():
    g = build_grid(-1.0, 1.0, -1.0, 1.0, 65, 65)
    d, best = dist_to_polynomial_class(sample(g, lambda X, Y: np.zeros_like(X)))
    assert d == math.inf and best is None


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


def classify_at_origin(u, g, lp=2.0, lm=2.0):
    lad = RadiusLadder((0.0, 0.0), (32 * g.h, 16 * g.h, 8 * g.h))
    return classify_point(FieldAnalysis(u, spec_of(u, lp, lm)), lad)


def test_classify_branch_point():
    g = build_grid(-1.0, 1.0, -1.0, 1.0, 129, 129)
    u = sample(g, profile_fn())
    pc = classify_at_origin(u, g)
    assert pc.label == "branch"
    assert pc.evidence["decided_by"] == "psi_decay+dist_to_m"
    assert pc.evidence["dist_to_m"] < 0.1


def test_classify_one_phase_singular_point():
    g = build_grid(-1.0, 1.0, -1.0, 1.0, 129, 129)
    q = OnePhasePolynomial(0.25, 0.0, 0.25, 1)
    u = sample(g, lambda X, Y: eval_many(q, X, Y))
    pc = classify_at_origin(u, g)
    assert pc.label == "one_phase_singular"
    assert pc.evidence["decided_by"] == "dist_to_polynomial"
    # the ACF gate must have genuinely failed, not been skipped
    assert any(v[-1] >= 1e-2 * math.pi**2 / 4.0 for v in pc.evidence["psi"].values())


def test_classify_regular_point():
    g = build_grid(-1.0, 1.0, -1.0, 1.0, 257, 257)
    v = GlobalProfile(0.5, 0.5, 0.0, 0.0, 2.0, 2.0)
    u = sample(g, lambda X, Y: eval_many(v, X, Y))
    pc = classify_at_origin(u, g)
    assert pc.label == "regular"
    assert pc.evidence["decided_by"] == "gradient"
    assert pc.evidence["gradient_norm"] == pytest.approx(0.5, abs=0.05)


@pytest.mark.parametrize("scale, regular", [(1.01, True), (0.99, False)])
def test_classify_gradient_cut_is_ten_h_times_the_lambda_sum(scale, regular):
    # a linear field's difference gradient is exact up to rounding, so its
    # norm sits 1% to either side of the cut 10 h (lp + lm)
    g = build_grid(-1.0, 1.0, -1.0, 1.0, 65, 65)
    lp, lm = 1.5, 0.5
    cut = 10.0 * g.h * (lp + lm)
    a = scale * cut
    u = sample(g, lambda X, Y: a * (0.6 * X + 0.8 * Y))
    pc = classify_at_origin(u, g, lp=lp, lm=lm)
    assert pc.evidence["gradient_norm"] == pytest.approx(a, rel=1e-12)
    assert (pc.evidence["decided_by"] == "gradient") == regular
    assert (pc.label == "regular") == regular


def test_classify_degenerate_field_is_indeterminate():
    g = build_grid(-1.0, 1.0, -1.0, 1.0, 129, 129)
    u = sample(g, lambda X, Y: np.zeros_like(X))
    pc = classify_at_origin(u, g)
    assert pc.label == "indeterminate"
    assert pc.evidence["decided_by"] == "degenerate_rescale"


def test_classify_saddle_of_a_harmonic_quadratic_is_indeterminate():
    # x^2 - y^2 has no gradient at the origin, its psi does not decay and
    # its blow-up is far from both the ramp class and the one-phase cone
    g = build_grid(-1.0, 1.0, -1.0, 1.0, 129, 129)
    u = sample(g, lambda X, Y: X * X - Y * Y)
    pc = classify_at_origin(u, g)
    assert pc.label == "indeterminate"
    assert pc.evidence["decided_by"] == "exhausted"
    assert pc.evidence["dist_to_m"] >= 0.1 and pc.evidence["dist_to_poly"] >= 0.1


def test_classify_invariant_under_rotation():
    g = build_grid(-1.0, 1.0, -1.0, 1.0, 129, 129)
    v = GlobalProfile(1.0, 0.0, 0.0, 0.5 * math.pi, 2.0, 2.0)
    u = sample(g, lambda X, Y: eval_many(v, X, Y))
    pc = classify_at_origin(u, g)
    assert pc.label == "branch"


def test_classify_invariant_under_quadratic_scaling():
    # v = 4u solves the problem with lambdas scaled by 4; same label
    g = build_grid(-1.0, 1.0, -1.0, 1.0, 129, 129)
    u = sample(g, lambda X, Y: 4.0 * profile_fn()(X, Y))
    pc = classify_at_origin(u, g, lp=8.0, lm=8.0)
    assert pc.label == "branch"


@pytest.mark.parametrize("lp, lm", [(0.5, 4.0), (0.2, 5.0)])
def test_analysis_at_asymmetric_lambdas(lp, lm):
    # the ramp class, the blow-up distance and the graph frame all follow
    # the field's own lambdas; (0.1, 0.3) lies within h of the rotated line
    g = build_grid(-1.0, 1.0, -1.0, 1.0, 129, 129)
    v = GlobalProfile(1.0, 0.0, 0.0, 0.3, lp, lm)
    spec = ProblemSpec(g, profile_boundary_trace(v, g), lp, lm)
    u, _ = solve(spec)
    fa = FieldAnalysis(u, spec)
    for p in ((0.0, 0.0), (0.1, 0.3)):
        pc = classify_point(fa, RadiusLadder(p, (32 * g.h, 16 * g.h, 8 * g.h)))
        assert pc.label == "branch", (p, pc.evidence)
        assert pc.evidence["dist_to_m"] < 0.01
        assert fit_two_graphs(fa, p, 0.25).theta == pytest.approx(0.3, abs=1e-3)


def test_field_analysis_rejects_a_field_off_its_problem_grid():
    u = sample(build_grid(-1.0, 1.0, -1.0, 1.0, 65, 65), profile_fn())
    coarse = sample(build_grid(-1.0, 1.0, -1.0, 1.0, 33, 33), profile_fn())
    with pytest.raises(ValueError):
        FieldAnalysis(u, spec_of(coarse))


def test_point_class_label_checked():
    from membranelab import PointClass
    with pytest.raises(ValueError):
        PointClass("weird", {})


# ---------------------------------------------------------------------------
# Graph fits
# ---------------------------------------------------------------------------


def test_fit_two_graphs_on_straight_interface(profile_solutions):
    v, spec, u, _ = profile_solutions[129]
    fit = fit_two_graphs(FieldAnalysis(u, spec), (0.0, 0.0), 0.25)
    h = spec.grid.h
    assert float(np.max(np.abs(fit.gplus))) <= 2.0 * h
    assert float(np.max(np.abs(fit.gminus))) <= 2.0 * h
    assert fit.lipschitz_estimate <= 0.1
    assert fit.max_normal_oscillation <= 0.2
    assert np.all(fit.gminus <= fit.gplus + 2.0 * h)


def test_fit_two_graphs_recovers_slab_levels(tau_solution):
    v, spec, u, _ = tau_solution
    h = spec.grid.h
    fit = fit_two_graphs(FieldAnalysis(u, spec), (0.0, 0.0), 0.5)
    assert abs(float(np.median(fit.gplus)) - 0.0) <= 2.0 * h
    assert abs(float(np.median(fit.gminus)) + 0.4) <= 2.0 * h


def test_fit_two_graphs_handles_wavy_interfaces():
    g = build_grid(-1.0, 1.0, -1.0, 1.0, 65, 65)
    bc = BoundaryMap.from_callable(
        g, lambda X, Y: 0.5 * X * np.abs(X) + 0.1 * np.sin(np.pi * Y)
    )
    spec = ProblemSpec(g, bc, 2.0, 2.0)
    u, _ = solve(spec)
    fit = fit_two_graphs(FieldAnalysis(u, spec), (0.0, 0.0), 0.5)
    assert np.all(np.isfinite(fit.gplus)) and np.all(np.isfinite(fit.gminus))
    assert np.all(fit.gminus <= fit.gplus + 2.0 * g.h)


def test_fit_two_graphs_error_paths():
    g = build_grid(-1.0, 1.0, -1.0, 1.0, 129, 129)
    pos = sample(g, lambda X, Y: np.ones_like(X))
    with pytest.raises(ZeroSetEmptyError):
        fit_two_graphs(FieldAnalysis(pos, spec_of(pos)), (0.0, 0.0), 0.25)
    # a closed circle is never vertically simple over a square window:
    # center bins lose the far arcs, outer bins are past the radius
    circ = sample(g, lambda X, Y: 0.25 - X**2 - Y**2)
    for window in (0.45, 0.55):
        with pytest.raises(NotVerticallySimpleError):
            fit_two_graphs(FieldAnalysis(circ, spec_of(circ)), (0.0, 0.0), window)
    with pytest.raises(ValueError):
        fit_two_graphs(FieldAnalysis(circ, spec_of(circ)), (0.0, 0.0), 4.0 * g.h)  # window under 8h


# ---------------------------------------------------------------------------
# Circle traces and reflection
# ---------------------------------------------------------------------------


def test_circle_trace_matches_profile_closed_form(sampled_profile_641):
    g, u = sampled_profile_641
    tr = circle_trace(u, (0.0, 0.0), 0.0, 0.5, 256)
    want = 0.5 * np.cos(tr.thetas) * np.abs(np.cos(tr.thetas)) / S_1
    assert float(np.max(np.abs(tr.values - want))) <= 1e-4
    assert tr.s_r == pytest.approx(0.25 * S_1, abs=1e-4)


def test_circle_trace_validation(sampled_profile_641):
    g, u = sampled_profile_641
    with pytest.raises(ValueError):
        circle_trace(u, (0.0, 0.0), 0.0, 0.5, 3)
    zero = sample(build_grid(-1, 1, -1, 1, 33, 33), lambda X, Y: np.zeros_like(X))
    with pytest.raises(DegenerateRescaleError):
        circle_trace(zero, (0.0, 0.0), 0.0, 0.5, 16)


def test_reflection_xi_endpoints_exact(sampled_profile_641):
    g, u = sampled_profile_641
    xi = reflection_xi(circle_trace(u, (0.0, 0.0), -0.3, 0.5, 512))
    assert xi.values[0] == 0.0 and xi.values[-1] == 0.0
    assert xi.thetas[0] == 0.0 and xi.thetas[-1] == math.pi


def test_reflection_xi_needs_even_samples():
    thetas = -math.pi + 2.0 * math.pi * np.arange(5) / 5
    tr = CircleTrace((0.0, 0.0), 1.0, 0.0, thetas, np.ones(5), 1.0)
    with pytest.raises(ValueError):
        reflection_xi(tr)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(min_value=2, max_value=64))
def test_reflection_xi_kills_even_symmetry_exactly(half):
    # values symmetric under theta -> -theta produce an identically zero xi,
    # bit for bit: both endpoints and every interior pair cancel exactly
    m = 2 * half
    rng = np.random.default_rng(half)
    vals = rng.standard_normal(m)
    k = np.arange(m)
    vals = vals[np.minimum(k, m - k)]  # symmetrize: v[k] = v[m-k]
    thetas = -math.pi + 2.0 * math.pi * k / m
    xi = reflection_xi(CircleTrace((0.0, 0.0), 1.0, 0.0, thetas, vals, 1.0))
    assert np.all(xi.values == 0.0)


# ---------------------------------------------------------------------------
# Perimeter and covering
# ---------------------------------------------------------------------------


def test_perimeter_of_straight_interface(profile_solutions):
    v, spec, u, _ = profile_solutions[65]
    g = spec.grid
    per = perimeter_estimate(FieldAnalysis(u, spec), (g.x_min, g.x_max, g.y_min, g.y_max))
    assert per.plus == pytest.approx(2.0, abs=2.0 * g.h)
    assert per.minus == pytest.approx(2.0, abs=2.0 * g.h)
    # clipping to the upper half keeps exactly half the length
    upper = perimeter_estimate(FieldAnalysis(u, spec), (g.x_min, g.x_max, 0.0, g.y_max))
    assert upper.plus == pytest.approx(1.0, abs=2.0 * g.h)


def test_perimeter_of_circle():
    g = build_grid(-1.0, 1.0, -1.0, 1.0, 257, 257)
    u = sample(g, lambda X, Y: 0.25 - X**2 - Y**2)
    per = perimeter_estimate(FieldAnalysis(u, spec_of(u)), (-1.0, 1.0, -1.0, 1.0))
    assert per.plus == pytest.approx(math.pi, rel=2e-2)
    assert per.minus == pytest.approx(math.pi, rel=2e-2)


def test_perimeter_of_empty_zero_set():
    g = build_grid(-1.0, 1.0, -1.0, 1.0, 33, 33)
    u = sample(g, lambda X, Y: np.ones_like(X))
    per = perimeter_estimate(FieldAnalysis(u, spec_of(u)), (-1.0, 1.0, -1.0, 1.0))
    assert per.plus == 0.0 and per.minus == 0.0


def test_covering_count_brackets(profile_solutions):
    # interface of length 2: N(eps)*eps lands in [L/2, pi*L/2] for a line
    v, spec, u, _ = profile_solutions[65]
    fb = extract_free_boundary(u, spec.tol_zero)
    h = spec.grid.h
    for k in (4, 8, 16):
        eps = k * h
        prod = covering_count(fb, eps) * eps
        assert 1.0 - eps <= prod <= math.pi + eps


def test_covering_count_on_circle():
    g = build_grid(-1.0, 1.0, -1.0, 1.0, 257, 257)
    u = sample(g, lambda X, Y: 0.25 - X**2 - Y**2)
    fb = extract_free_boundary(u, spec_of(u).tol_zero)
    L = 2.0 * math.pi  # both phase boundaries, pi each
    eps = 16 * g.h
    prod = covering_count(fb, eps) * eps
    # each ball eats an arc slightly longer than its diameter on a curved
    # boundary, so the lower constant sits under 1/2
    assert 0.45 * L <= prod <= 0.5 * math.pi * L + eps


def test_covering_count_rejects_under_resolved_radii(profile_solutions):
    v, spec, u, _ = profile_solutions[65]
    fb = extract_free_boundary(u, spec.tol_zero)
    with pytest.raises(ValueError):
        covering_count(fb, 1.5 * spec.grid.h)
