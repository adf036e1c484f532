"""Acceptance gate: the eleven shipping criteria, one test per criterion.

Each test asserts the pinned tolerances and prints one measured-numbers
line (visible with -rA or on failure).  Expected constants are the frozen
closed forms, never recomputed through the code under test.
"""
import math
import time

import numpy as np
import pytest

from membranelab import (
    FieldAnalysis,
    GlobalProfile,
    RadiusLadder,
    SweepHypothesisError,
    acf_psi,
    blowup_rescale,
    build_grid,
    circle_trace,
    classify_point,
    covering_count,
    dist_to_M,
    eval_many,
    fit_two_graphs,
    interpolate_many,
    load_config,
    perimeter_estimate,
    reflection_xi,
    sample,
    solve,
    stability_sweep,
    weiss_phi,
)
from conftest import make_poly_problem, make_profile_problem, profile_fn, spec_of

PI_8 = math.pi / 8.0
PSI_REF = math.pi**2 / 4.0
S_1 = math.sqrt(3.0 * math.pi / 16.0)


# ---------------------------------------------------------------------------
# Gate fixtures
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def timed_profile_solves():
    """Criterion-1 solves with wall-clock timings, keyed by n."""
    out = {}
    for n in (65, 129, 257):
        v, spec = make_profile_problem(n)
        t0 = time.perf_counter()
        u, report = solve(spec)
        out[n] = (v, spec, u, report, time.perf_counter() - t0)
    return out


@pytest.fixture(scope="session")
def shift_sweep_report(tmp_path_factory):
    """The pinned constant-shift sweep (deltas 0.1, 0.05, 0.025) at h = 1/64."""
    out = tmp_path_factory.mktemp("sweep")
    ini = out / "sweep.ini"
    ini.write_text(
        "[domain]\n"
        "x_min = -1.0\nx_max = 1.0\ny_min = -1.0\ny_max = 1.0\nn = 129\n\n"
        "[problem]\nlambda_plus = 2.0\nlambda_minus = 2.0\n\n"
        "[boundary]\nkind = profile\nbeta1 = 1.0\n\n"
        "[sweep]\nfamily = constant\namplitudes = 0.1, 0.05, 0.025\n\n"
        f"[output]\ndir = {out / 'artifacts'}\n"
    )
    cfg = load_config(str(ini))
    u_ref, _ = solve(cfg.spec)
    return cfg, stability_sweep(cfg, FieldAnalysis(u_ref, cfg.spec))


def sup_field_error(v, spec, u):
    """Max-norm error of the discrete solution as an interpolated field.

    Node values plus cell-center probes: the solve is stencil-exact at the
    nodes for this kink-aligned data, so the h^2 signal lives in the
    bilinear representation between them.
    """
    g = spec.grid
    X, Y = g.meshgrid()
    e_nodes = float(np.max(np.abs(u.values - eval_many(v, X, Y))))
    xc = 0.5 * (g.xs[:-1] + g.xs[1:])
    yc = 0.5 * (g.ys[:-1] + g.ys[1:])
    XC, YC = np.meshgrid(xc, yc)
    got = interpolate_many(u, XC.ravel(), YC.ravel())
    want = eval_many(v, XC, YC).ravel()
    return max(e_nodes, float(np.max(np.abs(got - want))))


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------


def test_criterion_01_solver_convergence_order(timed_profile_solves):
    errs = []
    for n in (65, 129, 257):
        v, spec, u, report, secs = timed_profile_solves[n]
        assert secs <= 30.0, f"solve at n={n} took {secs:.1f}s"
        assert report.converged
        errs.append(sup_field_error(v, spec, u))
    r1, r2 = errs[0] / errs[1], errs[1] / errs[2]
    assert 3.0 <= r1 <= 5.0, f"ratio h=1/32 -> 1/64 is {r1:.3f}"
    assert 3.0 <= r2 <= 5.0, f"ratio h=1/64 -> 1/128 is {r2:.3f}"
    print(f"criterion 1: errors {[f'{e:.3e}' for e in errs]}, ratios ({r1:.2f}, {r2:.2f})")


def test_criterion_02_exact_polynomial_reproduction(poly_solutions):
    q, spec, u, report = poly_solutions[129]
    X, Y = spec.grid.meshgrid()
    err = float(np.max(np.abs(u.values - eval_many(q, X, Y))))
    assert err <= 1e-8, f"max-norm error {err:.3e} exceeds 1e-8"
    print(f"criterion 2: node max-norm error {err:.3e} <= 1e-8")


def test_criterion_03_weiss_functional_oracle(sampled_profile_641):
    g, u = sampled_profile_641
    t0 = time.perf_counter()
    vals = [weiss_phi(u, (0.0, 0.0), r, 2.0, 2.0) for r in (0.25, 0.5, 0.75)]
    secs = time.perf_counter() - t0
    assert secs <= 5.0
    for r, val in zip((0.25, 0.5, 0.75), vals):
        assert abs(val - PI_8) <= 1e-2 * PI_8, f"Phi({r}) = {val}"
    spread = (max(vals) - min(vals)) / PI_8
    assert spread <= 5e-3, f"cross-radius spread {spread:.2e}"
    print(f"criterion 3: Phi {[f'{v:.6f}' for v in vals]} vs pi/8 = {PI_8:.6f}, spread {spread:.1e}, {secs:.2f}s")


def test_criterion_04_acf_functional_oracle(halfplane_parts_641):
    g, hp, hm = halfplane_parts_641
    psi_1 = acf_psi(hp, hm, (0.0, 0.0), 1.0)
    psi_half = acf_psi(hp, hm, (0.0, 0.0), 0.5)
    assert abs(psi_1 - PSI_REF) <= 1e-2 * PSI_REF, f"Psi(1) = {psi_1}"
    assert abs(psi_half - psi_1) <= 1e-2 * abs(psi_1)
    print(f"criterion 4: Psi(1) = {psi_1:.6f} vs pi^2/4 = {PSI_REF:.6f}, Psi(0.5) = {psi_half:.6f}")


def test_criterion_05_monotonicity_ladders(timed_profile_solves):
    v, spec, u, report, secs = timed_profile_solves[257]
    h = spec.grid.h
    radii = (64 * h, 32 * h, 16 * h, 8 * h)
    points = ((0.0, 0.0), (0.0, 0.25), (0.0, -0.25))
    from membranelab import directional_parts, gradient_fields, phi_ladder, psi_ladder
    hp, hm = directional_parts(u, (1.0, 0.0))
    total = 0
    for p in points:
        lad = RadiusLadder(p, radii)
        prof_phi = phi_ladder(u, gradient_fields(u), lad, 2.0, 2.0)
        prof_psi = psi_ladder(hp, hm, lad)
        assert prof_phi.violations == (), f"phi violations at {p}: {prof_phi.violations}"
        assert prof_psi.violations == (), f"psi violations at {p}: {prof_psi.violations}"
        total += len(prof_phi.values) + len(prof_psi.values)
    print(f"criterion 5: zero violations across {len(points)} centers, {total} ladder values, r in 8h..64h")


def test_criterion_06_classification_stable_under_halving(
    timed_profile_solves, poly_solutions
):
    def classify(u, spec, p=(0.0, 0.0)):
        g = spec.grid
        lad = RadiusLadder(p, (32 * g.h, 16 * g.h, 8 * g.h))
        return classify_point(FieldAnalysis(u, spec), lad).label

    # branch points on the criterion-1 field, h = 1/64 and h = 1/128
    branch_labels = []
    for n in (129, 257):
        v, spec, u, report, secs = timed_profile_solves[n]
        for p in ((0.0, 0.0), (0.0, 0.25), (0.0, -0.25)):
            branch_labels.append(classify(u, spec, p))
    assert set(branch_labels) == {"branch"}, branch_labels

    # one-phase singular origin of the criterion-2 field, both grids
    poly_labels = []
    for n in (129, 257):
        q, spec, u, report = poly_solutions[n]
        poly_labels.append(classify(u, spec))
    assert set(poly_labels) == {"one_phase_singular"}, poly_labels

    # regular origin of the tilted profile, sampled at h = 1/128 and 1/256
    # (the gradient gate is O(h), so these are the matching resolutions)
    reg_labels = []
    for n in (257, 513):
        g = build_grid(-1.0, 1.0, -1.0, 1.0, n, n)
        tilt = GlobalProfile(0.5, 0.5, 0.0, 0.0, 2.0, 2.0)
        u = sample(g, lambda X, Y: eval_many(tilt, X, Y))
        reg_labels.append(classify(u, spec_of(u)))
    assert set(reg_labels) == {"regular"}, reg_labels

    print(
        "criterion 6: branch x" + str(len(branch_labels))
        + ", one_phase_singular x" + str(len(poly_labels))
        + ", regular x" + str(len(reg_labels)) + ", all stable under halving"
    )


def test_criterion_07_blowup_close_to_profile_class(timed_profile_solves):
    v, spec, u, report, secs = timed_profile_solves[129]
    r = 16 * spec.grid.h
    target = build_grid(-1.0, 1.0, -1.0, 1.0, 65, 65)
    w = blowup_rescale(u, (0.0, 0.0), r, target)
    d, best = dist_to_M(w, lambda_plus=spec.lambda_plus, lambda_minus=spec.lambda_minus)
    assert d < 0.1, f"dist_to_M = {d}"
    print(f"criterion 7: dist_to_M(blow-up at r = 16h) = {d:.5f} < 0.1")


def test_criterion_08_reflection_trace_of_rotated_profile():
    gamma = -0.3
    g = build_grid(-1.25, 1.25, -1.25, 1.25, 4097, 4097)
    rot = GlobalProfile(1.0, 0.0, 0.0, gamma, 2.0, 2.0)
    u = sample(g, lambda X, Y: eval_many(rot, X, Y))
    xi = reflection_xi(circle_trace(u, (0.0, 0.0), 0.0, 1.0, 2048))

    assert xi.values[0] == 0.0 and xi.values[-1] == 0.0  # exactly zero ends
    min_xi = float(np.min(xi.values))
    assert min_xi >= -1e-6, f"min xi = {min_xi}"

    # closed form: xi(theta) = phi0(gamma + theta) - phi0(gamma - theta)
    # with phi0(t) = cos t |cos t| / (2 S_1)
    def phi0(t):
        return 0.5 * np.cos(t) * np.abs(np.cos(t)) / S_1

    want = phi0(gamma + xi.thetas) - phi0(gamma - xi.thetas)
    err = float(np.max(np.abs(xi.values - want)))
    assert err <= 1e-6, f"closed-form mismatch {err:.3e}"
    print(f"criterion 8: xi >= {min_xi:.1e}, ends exact 0, closed-form error {err:.2e} <= 1e-6")


def test_criterion_09_two_graph_structure(timed_profile_solves, tau_solution):
    v, spec, u, report, secs = timed_profile_solves[129]
    h = spec.grid.h
    fit = fit_two_graphs(FieldAnalysis(u, spec), (0.0, 0.0), 0.25)
    dev_plus = float(np.max(np.abs(fit.gplus)))
    dev_minus = float(np.max(np.abs(fit.gminus)))
    assert dev_plus <= 2 * h and dev_minus <= 2 * h
    assert fit.lipschitz_estimate <= 0.1
    assert fit.max_normal_oscillation <= 0.2

    vt, spec_t, ut, _ = tau_solution
    ht = spec_t.grid.h
    fit_t = fit_two_graphs(FieldAnalysis(ut, spec_t), (0.0, 0.0), 0.5)
    dev0 = float(np.max(np.abs(fit_t.gplus)))
    dev4 = float(np.max(np.abs(fit_t.gminus + 0.4)))
    assert dev0 <= 2 * ht and dev4 <= 2 * ht
    print(
        f"criterion 9: straight fit devs ({dev_plus:.1e}, {dev_minus:.1e}) <= 2h, "
        f"lip {fit.lipschitz_estimate:.3f}, osc {fit.max_normal_oscillation:.3f}; "
        f"tau fit devs ({dev0:.1e}, {dev4:.2e}) <= 2h"
    )


def test_criterion_10_shift_sweep_stability(shift_sweep_report, tmp_path):
    cfg, report = shift_sweep_report
    h = cfg.spec.grid.h
    deltas = [row.delta for row in report.rows]
    assert deltas == [0.1, 0.05, 0.025]
    for row in report.rows:
        assert row.sup_interior_diff <= row.delta + 1e-8, (
            f"delta={row.delta}: interior {row.sup_interior_diff}"
        )
        assert row.comparison_holds
    dists = [row.hausdorff_to_reference for row in report.rows]
    for k in range(len(dists) - 1):
        assert dists[k + 1] <= dists[k] + 2 * h
    assert report.hausdorff_monotone

    # one-phase-singular reference data aborts before any perturbed solve
    ini = tmp_path / "abort.ini"
    ini.write_text(
        "[domain]\n"
        "x_min = -1.0\nx_max = 1.0\ny_min = -1.0\ny_max = 1.0\nn = 129\n\n"
        "[problem]\nlambda_plus = 2.0\nlambda_minus = 2.0\n\n"
        "[boundary]\nkind = polynomial\ncxx = 0.25\ncyy = 0.25\n\n"
        "[sweep]\nfamily = constant\namplitudes = 0.1, 0.05\nclassify_budget = 2\n\n"
        f"[output]\ndir = {tmp_path / 'abort_out'}\n"
    )
    cfg = load_config(str(ini))
    u_ref, _ = solve(cfg.spec)
    with pytest.raises(SweepHypothesisError):
        stability_sweep(cfg, FieldAnalysis(u_ref, cfg.spec))
    print(
        f"criterion 10: interior diffs {[f'{r.sup_interior_diff:.5f}' for r in report.rows]} <= deltas, "
        f"hausdorff {[f'{d:.3f}' for d in dists]} non-increasing, singular reference aborts"
    )


def test_criterion_11_measure_estimates(
    timed_profile_solves, poly_solutions, tau_solution
):
    # perimeter of the criterion-1 free boundary: the interface is the
    # segment {0} x [-1, 1], length 2 for each phase boundary
    for n in (65, 129, 257):
        v, spec, u, report, secs = timed_profile_solves[n]
        g = spec.grid
        per = perimeter_estimate(FieldAnalysis(u, spec))
        assert abs(per.plus - 2.0) <= 2 * g.h, f"n={n}: plus {per.plus}"
        assert abs(per.minus - 2.0) <= 2 * g.h, f"n={n}: minus {per.minus}"

    # covering products on every field the gate solves
    fields = [(spec, u) for (v, spec, u, rep, s) in timed_profile_solves.values()]
    fields += [(spec, u) for (q, spec, u, rep) in poly_solutions.values()]
    fields.append((tau_solution[1], tau_solution[2]))
    worst = 0.0
    for spec, u in fields:
        fa = FieldAnalysis(u, spec)
        for k in (8, 16, 32):
            eps = k * spec.grid.h
            prod = covering_count(fa, eps) * eps
            worst = max(worst, prod)
            assert prod <= 4.0, f"N(eps)*eps = {prod} at eps = {k}h, h = {spec.grid.h}"
    print(f"criterion 11: perimeters 2 +- 2h on all three grids, max N(eps)*eps = {worst:.3f} <= 4")
