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
    ScalarField,
    ZeroSetEmptyError,
    build_grid,
    circle_trace,
    classify_point,
    covering_count,
    dist_to_M,
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
from membranelab import GlobalProfile, OnePhasePolynomial, freeboundary, profiles
from membranelab.cli import _FAMILIES, _reference_points, _write_free_boundary
from conftest import make_profile_problem, profile_fn, spec_of

S_1 = math.sqrt(3.0 * math.pi / 16.0)


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------


def test_extraction_brackets_the_interface(profile_solutions):
    v, spec, u, _ = profile_solutions[65]
    fb = extract_free_boundary(u, spec.tol_zero)
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
    # an empty set needs no ball
    assert covering_count(FieldAnalysis(u, spec_of(u)), 2.0 * g.h) == 0


def test_extraction_rejects_a_negative_level():
    # NaN fails every comparison, so a lower bound alone let NaN and inf
    # through: both gave an empty free boundary
    g = build_grid(-1.0, 1.0, -1.0, 1.0, 9, 9)
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="tol_zero must be nonnegative"):
            extract_free_boundary(sample(g, lambda X, Y: X), bad)


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


# The branch-coded marching squares that the lookup tables replaced: the
# reference the table-driven extraction must reproduce exactly.
_BRANCH_SEGMENTS = {
    1: (("L", "B"),), 2: (("B", "R"),), 3: (("L", "R"),), 4: (("R", "T"),),
    6: (("B", "T"),), 7: (("L", "T"),), 8: (("L", "T"),), 9: (("B", "T"),),
    11: (("R", "T"),), 12: (("L", "R"),), 13: (("B", "R"),), 14: (("L", "B"),),
}


def _branch_edge_key(side, i, j):
    if side == "B":
        return ("h", i, j)
    if side == "T":
        return ("h", i, j + 1)
    if side == "L":
        return ("v", i, j)
    return ("v", i + 1, j)


def branch_contour_chains(grid, s):
    ins = s > 0.0
    code = ins[:-1, :-1].astype(np.int8) + 2 * ins[:-1, 1:] + 4 * ins[1:, 1:] + 8 * ins[1:, :-1]
    js, is_ = np.nonzero((code != 0) & (code != 15))
    links = {}
    for j, i in zip(js.tolist(), is_.tolist()):
        c = int(code[j, i])
        if c in (5, 10):
            center = 0.25 * (s[j, i] + s[j, i + 1] + s[j + 1, i + 1] + s[j + 1, i])
            if c == 5:
                segs = (("B", "R"), ("T", "L")) if center > 0.0 else (("L", "B"), ("R", "T"))
            else:
                segs = (("L", "B"), ("R", "T")) if center > 0.0 else (("B", "R"), ("T", "L"))
        else:
            segs = _BRANCH_SEGMENTS[c]
        for ea, eb in segs:
            ka, kb = _branch_edge_key(ea, i, j), _branch_edge_key(eb, i, j)
            links.setdefault(ka, []).append(kb)
            links.setdefault(kb, []).append(ka)
    visited, paths = set(), []

    def walk(start):
        path = [start]
        visited.add(start)
        while True:
            nxt = next((c for c in links[path[-1]] if c not in visited), None)
            if nxt is None:
                return path
            visited.add(nxt)
            path.append(nxt)

    for start in sorted(k for k, v in links.items() if len(v) == 1):
        if start not in visited:
            paths.append((walk(start), False))
    for start in sorted(k for k in links if k not in visited):
        if start not in visited:
            paths.append((walk(start), True))
    out = []
    for path, closed in paths:
        pts = np.array([freeboundary._edge_point(grid, s, k) for k in path], dtype=float)
        if len(pts) > 1:
            keep = np.ones(len(pts), dtype=bool)
            keep[1:] = np.any(np.diff(pts, axis=0) != 0.0, axis=1)
            pts = pts[keep]
        if closed and len(pts) > 2:
            pts = np.vstack([pts, pts[:1]])
        out.append(pts)
    return out


def test_table_extraction_matches_the_branch_coded_one():
    # integer-valued random fields: every cell code, saddles of either
    # centre sign and centres of average exactly 0, crossings on nodes
    g = build_grid(-1.0, 1.0, -1.0, 1.0, 25, 25)
    seen = set()
    for seed in range(20):
        s = np.random.default_rng(seed).integers(-2, 3, g.shape).astype(float)
        ins = s > 0.0
        code = ins[:-1, :-1] + 2 * ins[:-1, 1:] + 4 * ins[1:, 1:] + 8 * ins[1:, :-1]
        centre = s[:-1, :-1] + s[:-1, 1:] + s[1:, 1:] + s[1:, :-1] > 0.0
        seen |= {(int(c), bool(p) if c in (5, 10) else None) for c, p in zip(code.ravel(), centre.ravel())}
        got, want = freeboundary._contour_chains(g, s), branch_contour_chains(g, s)
        assert len(got) == len(want)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert seen == {(c, None) for c in range(16) if c not in (5, 10)} | {
        (c, p) for c in (5, 10) for p in (True, False)}


@pytest.mark.parametrize("delta", [0.0, 0.05])
def test_chain_order_survives_noise_that_keeps_the_sign_patterns(profile_solutions, delta):
    # _reference_points strides the vertices in walk order, so rounding-level
    # noise that keeps both sign patterns (these fields have no saddle cell)
    # must keep every chain and its vertex count, and move each vertex by
    # rounding only
    _, spec, u, _ = profile_solutions[129]
    if delta:
        spec = ProblemSpec(spec.grid, spec.boundary.perturbed(_FAMILIES["constant"](1), delta), 2.0, 2.0)
        u = solve(spec)[0]
    tol, h = spec.tol_zero, spec.grid.h
    want = extract_free_boundary(u, tol)
    for seed in range(5):
        noisy = ScalarField(u.grid, u.values + 1e-12 * np.random.default_rng(seed).standard_normal(u.values.shape))
        for sign in (1.0, -1.0):
            assert np.array_equal(sign * noisy.values - tol > 0.0, sign * u.values - tol > 0.0)
        got = extract_free_boundary(noisy, tol)
        for a, b in ((got.plus_boundary, want.plus_boundary), (got.minus_boundary, want.minus_boundary)):
            assert [len(c) for c in a] == [len(c) for c in b]
            assert all(float(np.max(np.abs(ca - cb))) <= 1e-4 * h for ca, cb in zip(a, b))


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


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="a plane under the gradient cut 10 h (lp + lm) reads branch: its psi "
                          "pairs are dead and its blow-up is a linear ramp of the class M")
def test_planes_under_the_gradient_cut_read_regular():
    # the paper's dichotomy: a point where the gradient does not vanish is
    # regular.  At n = 129 the cut is 0.625, so these planes reach the psi
    # test, and read branch with dist_to_m of one rounding unit
    g = build_grid(-1.0, 1.0, -1.0, 1.0, 129, 129)
    for slope in (0.3, 0.5):
        u = sample(g, lambda X, Y: slope * (0.6 * X + 0.8 * Y))
        pc = classify_at_origin(u, g)
        assert pc.label == "regular", (slope, pc.evidence["decided_by"], pc.evidence["dist_to_m"])


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


def near_cut_blowup(seed, target):
    """A ramp plus a random smooth wave on the blow-up grid, scaled by bisection until dist_to_M is within 2.5e-4 of target."""
    g = freeboundary._BLOWUP_GRID
    rng = np.random.default_rng(seed)
    v = GlobalProfile(rng.uniform(0.5, 2.0), 0.0, rng.uniform(-0.5, 0.0), rng.uniform(-math.pi, math.pi), 2.0, 2.0)
    k, phase, amp = rng.normal(size=(3, 2)) * 3.0, rng.uniform(0.0, 2.0 * math.pi, 3), rng.normal(size=3)
    X, Y = g.meshgrid()
    wave = sum(a * np.sin(kx * X + ky * Y + ph) for a, (kx, ky), ph in zip(amp, k, phase))
    wave /= np.max(np.abs(wave))
    ramp = eval_many(v, X, Y)
    lo, hi = 0.0, 1.0
    for _ in range(40):
        c = 0.5 * (lo + hi)
        f = ScalarField(g, ramp + c * wave)
        d = dist_to_M(f, lambda_plus=2.0, lambda_minus=2.0)[0]
        if abs(d - target) <= 2.5e-4:
            return f
        lo, hi = (c, hi) if d < target else (lo, c)
    raise AssertionError(f"no scale of seed {seed} reaches {target}")


def test_label_only_classification_near_the_distance_cut(profile_solutions, monkeypatch):
    # the blow-up of a branch point of the solved profile is replaced by
    # fields whose dist_to_M lies within 1e-3 of the cut, on both sides:
    # there no stage-2 fit may be surely below the cut, and the label path
    # then runs its search to the end
    _, spec, u, _ = profile_solutions[129]
    fa = FieldAnalysis(u, spec)
    ladder = RadiusLadder((0.0, 0.0), (8 * spec.grid.h,))
    cut = freeboundary._TOL_DIST
    polished, labels, fallbacks = [], [], 0
    real_polish = profiles._polish

    def counting_polish(*args):
        polished.append(args[1])
        return real_polish(*args)

    monkeypatch.setattr(profiles, "_polish", counting_polish)
    for seed in range(6):
        f = near_cut_blowup(seed, cut + (5e-4 if seed % 2 else -5e-4))
        monkeypatch.setattr(freeboundary, "blowup_rescale", lambda *args: f)
        full = classify_point(fa, ladder)
        assert abs(full.evidence["dist_to_m"] - cut) <= 1e-3
        polished.clear()
        fast = classify_point(fa, ladder, evidence=False)
        assert (fast.label, fast.evidence["decided_by"]) == (full.label, full.evidence["decided_by"]), seed
        assert fast.evidence["dist_to_m"] is None
        labels.append(full.label)
        fallbacks += full.label == "branch" and bool(polished)
    assert "branch" in labels and "indeterminate" in labels
    # a field below the cut that no stage-2 fit decided
    assert fallbacks >= 1


def test_label_only_classification_of_sweep_targets_skips_the_polish(profile_solutions, monkeypatch):
    # at a branch target a chart-A fit of the first leader is far below the
    # cut, so the search ends there: one scan, no polish, no dist_to_M
    _, spec, u, _ = profile_solutions[129]
    fa = FieldAnalysis(u, spec)
    h = spec.grid.h
    calls = {"scan": 0, "polish": 0, "dist_to_M": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(profiles, "_theta_scan", counting("scan", profiles._theta_scan))
    monkeypatch.setattr(profiles, "_polish", counting("polish", profiles._polish))
    monkeypatch.setattr(freeboundary, "dist_to_M", counting("dist_to_M", freeboundary.dist_to_M))
    points = _reference_points(fa.free_boundary, spec.grid, 0.25, 8)
    assert len(points) == 8
    for p in points:
        pc = classify_point(fa, RadiusLadder(p, (8 * h,)), evidence=False)
        assert pc.label == "branch"
    assert calls == {"scan": 8, "polish": 0, "dist_to_M": 0}


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
    # every error names the point, the window and the phase: a one-phase
    # field has a plus boundary and no minus one
    one = sample(g, lambda X, Y: np.maximum(X, 0.0) ** 2)
    with pytest.raises(ZeroSetEmptyError) as info:
        fit_two_graphs(FieldAnalysis(one, spec_of(one)), (0.0, 0.0), 0.25)
    assert str(info.value) == "the minus phase boundary is absent in the fit at (0.0, 0.0) with window 0.25"
    # a closed circle is never vertically simple over a square window:
    # center bins lose the far arcs, outer bins are past the radius
    circ = sample(g, lambda X, Y: 0.25 - X**2 - Y**2)
    for window in (0.45, 0.55):
        with pytest.raises(NotVerticallySimpleError) as info:
            fit_two_graphs(FieldAnalysis(circ, spec_of(circ)), (0.0, 0.0), window)
        assert str(info.value).endswith(f"has no plus boundary vertex in the fit at (0.0, 0.0) with window {window}")
    edges = np.linspace(-0.55, 0.55, round(0.55 / g.h) + 1)
    assert str(info.value).startswith(f"the transverse bin [{edges[0]}, {edges[1]}] ")
    with pytest.raises(ValueError):
        fit_two_graphs(FieldAnalysis(circ, spec_of(circ)), (0.0, 0.0), 4.0 * g.h)  # window under 8h

    # a slab whose phases swap sides above y = 0.3: the blow-up of radius
    # 0.25 at the origin sets the frame, and above the swap every minus
    # vertex lies 0.2 past every plus vertex along the frame's normal
    def swapped(X, Y):
        below = 0.5 * np.maximum(X, 0.0) ** 2 - 0.5 * np.minimum(X + 0.2, 0.0) ** 2
        above = 0.5 * np.minimum(X, 0.0) ** 2 - 0.5 * np.maximum(X - 0.2, 0.0) ** 2
        return np.where(Y < 0.3, below, above)

    slab = sample(g, swapped)
    with pytest.raises(NotVerticallySimpleError, match="out of order") as info:
        fit_two_graphs(FieldAnalysis(slab, spec_of(slab)), (0.0, 0.0), 0.5)
    assert str(info.value) == ("phase boundaries are out of order in the fit at (0.0, 0.0) with window 0.5: the minus "
                               "boundary first lies past the plus one in the transverse bin [0.3125, 0.34375]")


@pytest.mark.parametrize("theta", [0.3, 0.7])
def test_fit_two_graphs_on_rotated_interfaces(theta):
    # the discrete zero set of a rotated line is a staircase of 0 and 45
    # degree steps, whose adjacent segments turn by pi/4 at every h; the
    # chords of window / 2 read the line within criterion 9's bounds
    for n in (129, 257, 513):
        _, spec = make_profile_problem(n, theta=theta)
        u, _ = solve(spec)
        fit = fit_two_graphs(FieldAnalysis(u, spec), (0.0, 0.0), 0.25)
        assert fit.lipschitz_estimate <= 0.1, (n, fit.lipschitz_estimate)
        assert fit.max_normal_oscillation <= 0.2, (n, fit.max_normal_oscillation)


def test_fit_two_graphs_at_an_isolated_branch_point():
    # profile data scaled by (1 + y / 2): a zero strip opens between the
    # phases below y = 0 and closes at a branch point at the origin, where
    # the two graphs are curves, not lines
    v = GlobalProfile(1.0, 0.0, 0.0, 0.0, 2.0, 2.0)
    for n in (129, 257):
        g = build_grid(-1.0, 1.0, -1.0, 1.0, n, n)
        bc = BoundaryMap.from_callable(g, lambda X, Y: (1.0 + 0.5 * Y) * eval_many(v, X, Y))
        spec = ProblemSpec(g, bc, 2.0, 2.0)
        u, _ = solve(spec)
        fa = FieldAnalysis(u, spec)
        for window in (0.125, 0.25, 0.5):
            fit = fit_two_graphs(fa, (0.0, 0.0), window)
            assert fit.max_normal_oscillation <= 0.3, (n, window, fit.max_normal_oscillation)


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
    per = perimeter_estimate(FieldAnalysis(u, spec))
    assert per.plus == pytest.approx(2.0, abs=2.0 * g.h)
    assert per.minus == pytest.approx(2.0, abs=2.0 * g.h)


def test_perimeter_of_circle():
    g = build_grid(-1.0, 1.0, -1.0, 1.0, 257, 257)
    u = sample(g, lambda X, Y: 0.25 - X**2 - Y**2)
    per = perimeter_estimate(FieldAnalysis(u, spec_of(u)))
    assert per.plus == pytest.approx(math.pi, rel=2e-2)
    assert per.minus == pytest.approx(math.pi, rel=2e-2)


def test_perimeter_of_empty_zero_set():
    g = build_grid(-1.0, 1.0, -1.0, 1.0, 33, 33)
    u = sample(g, lambda X, Y: np.ones_like(X))
    per = perimeter_estimate(FieldAnalysis(u, spec_of(u)))
    assert per.plus == 0.0 and per.minus == 0.0


def test_covering_count_brackets(profile_solutions):
    # interface of length 2: N(eps)*eps lands in [L/2, pi*L/2] for a line
    v, spec, u, _ = profile_solutions[65]
    fa = FieldAnalysis(u, spec)
    h = spec.grid.h
    for k in (4, 8, 16):
        eps = k * h
        prod = covering_count(fa, eps) * eps
        assert 1.0 - eps <= prod <= math.pi + eps


def test_covering_count_on_circle():
    g = build_grid(-1.0, 1.0, -1.0, 1.0, 257, 257)
    u = sample(g, lambda X, Y: 0.25 - X**2 - Y**2)
    fa = FieldAnalysis(u, spec_of(u))
    L = 2.0 * math.pi  # both phase boundaries, pi each
    eps = 16 * g.h
    prod = covering_count(fa, eps) * eps
    # each ball eats an arc slightly longer than its diameter on a curved
    # boundary, so the lower constant sits under 1/2
    assert 0.45 * L <= prod <= 0.5 * math.pi * L + eps


@pytest.mark.parametrize("n, tau, slack", [(129, 0.0, 0), (129, -0.4, 0), (257, 0.0, 1), (257, -0.4, 1)],
                         ids=["profile-129", "slab-129", "profile-257", "slab-257"])
def test_covering_counts_stay_put_under_rounding_noise(profile_solutions, tau_solution, n, tau, slack):
    # every profile vertex has x = +-5e-8 plus rounding; visited sorted on x
    # first, 1e-12 of noise moved the counts by up to 3 on the profile and 7
    # on the slab at n = 129, and by up to 4 at n = 257.  At n = 257 vertex
    # gaps on multiples of h still leave a ball edge to rounding: +-1
    if tau == 0.0:
        _, spec, u, _ = profile_solutions[n]
    elif n == 129:
        _, spec, u, _ = tau_solution
    else:
        spec = make_profile_problem(n, tau=tau)[1]
        u, _ = solve(spec)
    h = spec.grid.h

    def counts(values):
        fa = FieldAnalysis(ScalarField(spec.grid, values), spec)
        return np.array([covering_count(fa, k * h) for k in (32, 16, 8)])

    want = counts(u.values)
    for seed in range(5):
        noise = 1e-12 * np.random.default_rng(seed).standard_normal(u.values.shape)
        assert np.max(np.abs(counts(u.values + noise) - want)) <= slack, seed


def test_covering_counts_agree_under_the_transpose_and_the_mirror():
    # the branch fixture of test_fit_two_graphs_at_an_isolated_branch_point;
    # with the vertices sorted on x first the counts at 8h, 16h and 32h
    # read 21, 9, 4, and 22, 10, 5 after the transpose
    v = GlobalProfile(1.0, 0.0, 0.0, 0.0, 2.0, 2.0)
    g = build_grid(-1.0, 1.0, -1.0, 1.0, 129, 129)
    bc = BoundaryMap.from_callable(g, lambda X, Y: (1.0 + 0.5 * Y) * eval_many(v, X, Y))
    u, _ = solve(ProblemSpec(g, bc, 2.0, 2.0))
    counts = set()
    for values in (u.values, u.values.T, u.values[:, ::-1]):
        f = ScalarField(g, values)
        fa = FieldAnalysis(f, spec_of(f))
        counts.add(tuple(covering_count(fa, k * g.h) for k in (8, 16, 32)))
    assert counts == {(21, 10, 5)}


def test_a_one_vertex_chain_has_no_length():
    # a chain whose crossings all land on one node keeps one vertex; no
    # early exit skips it, the sum of its empty segment list adds 0
    dot = np.array([[0.25, 0.5]])
    assert freeboundary._polyline_length([dot]) == 0.0
    line = np.array([[0.0, 0.0], [0.0, 0.5]])
    assert freeboundary._polyline_length([dot, line, dot]) == freeboundary._polyline_length([line]) == 0.5


def test_covering_count_rejects_under_resolved_radii(profile_solutions):
    v, spec, u, _ = profile_solutions[65]
    with pytest.raises(ValueError):
        covering_count(FieldAnalysis(u, spec), 1.5 * spec.grid.h)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_covering_radius_and_fit_window_must_be_finite(profile_solutions, bad):
    # NaN fails every comparison, so a lower bound alone let it through:
    # covering_count read 130 at NaN and 1 at inf, and an infinite window
    # failed only later, in the blow-up's ball check
    v, spec, u, _ = profile_solutions[65]
    fa = FieldAnalysis(u, spec)
    with pytest.raises(ValueError, match="must be at least 2 grid steps"):
        covering_count(fa, bad)
    with pytest.raises(ValueError, match="must cover at least 8 grid steps"):
        fit_two_graphs(fa, (0.0, 0.0), bad)
    with pytest.raises(ValueError, match="must cover at least 8 grid steps"):
        freeboundary.graph_frame(fa, (0.0, 0.0), bad)
    with pytest.raises(ValueError, match="theta must be finite"):
        fit_two_graphs(fa, (0.0, 0.0), 0.25, bad)
