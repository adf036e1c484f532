"""Density functionals: frozen oracles, ladders, rescalings.

Expected values are closed forms computed by hand before the
implementation existed, never through the code under test:

  two-phase profile (lambda = 2):   Phi = pi/2 - 3*pi/8       = pi/8
  one-phase half profile:           Phi = pi/4 - 3*pi/16      = pi/16
  pair ((x1)+, (x1)-):              Psi = (pi/2)^2            = pi^2/4
  profile circle scale at r = 1:    S_1 = sqrt(3*pi/16)       = 0.7674950309598664...
"""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from membranelab import (
    BoundaryMap,
    DegenerateRescaleError,
    FieldAnalysis,
    GlobalProfile,
    MonotonicityProfile,
    ProblemSpec,
    RadiusLadder,
    acf_psi,
    blowup_rescale,
    build_grid,
    classify_point,
    directional_parts,
    directional_psi,
    eval_many,
    gradient_fields,
    interpolate_many,
    phi_ladder,
    psi_ladder,
    s_norm,
    sample,
    solve,
    weiss_phi,
)
from membranelab.cli import _reference_points, _write_ladder
from membranelab.freeboundary import _DIRECTIONS
from membranelab import monotonicity
from membranelab.grid import FieldWindow
from membranelab.monotonicity import _BLOCK, _circle, _polar_disk
from conftest import profile_fn, spec_of

PI_8 = math.pi / 8.0
PI_16 = math.pi / 16.0
PSI_REF = math.pi**2 / 4.0
S_1 = math.sqrt(3.0 * math.pi / 16.0)


# ---------------------------------------------------------------------------
# Ladder containers
# ---------------------------------------------------------------------------


def test_radius_ladder_validation():
    lad = RadiusLadder((0.0, 0.0), (0.5, 0.25, 0.125))
    assert lad.center == (0.0, 0.0)
    with pytest.raises(ValueError):
        RadiusLadder((0.0, 0.0), (0.25, 0.5))      # increasing
    with pytest.raises(ValueError):
        RadiusLadder((0.0, 0.0), (0.5, 0.5))       # not strict
    with pytest.raises(ValueError):
        RadiusLadder((0.0, 0.0), (0.5, 0.0))       # non-positive
    with pytest.raises(ValueError, match="ladder needs at least one radius"):
        RadiusLadder((0.0, 0.0), ())


@pytest.mark.parametrize("center, radii, needle", [
    ((0.0, 0.0), (0.5, math.nan), "radius must be finite, got nan"),
    ((0.0, 0.0), (math.nan,), "radius must be finite, got nan"),
    ((0.0, 0.0), (math.inf, 0.5), "radius must be finite, got inf"),
    ((math.nan, 0.0), (0.5, 0.25), "center must be finite, got nan"),
    ((0.0, -math.inf), (0.5, 0.25), "center must be finite, got -inf"),
])
def test_radius_ladder_rejects_non_finite_values(center, radii, needle):
    # NaN passes the positive and decreasing checks, and a ladder is a
    # FieldAnalysis cache key that NaN would keep from ever matching
    with pytest.raises(ValueError, match=needle):
        RadiusLadder(center, radii)


def test_monotonicity_profile_csv(tmp_path):
    lad = RadiusLadder((0.0, 0.0), (0.5, 0.25))
    prof = MonotonicityProfile(lad, (1.0, 2.0), ((0.25, 0.5),), 0.1)
    path = tmp_path / "ladder.csv"
    _write_ladder(prof, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "r,value,violation_flag"
    assert lines[1].startswith("0.5,1,")
    assert lines[2].split(",")[2] == "1"  # the violating smaller radius


def test_violation_flagging_logic():
    # values indexed by decreasing radius; the r = 0.2 entry beats r = 0.3
    lad = RadiusLadder((0.0, 0.0), (0.4, 0.3, 0.2, 0.1))
    g = build_grid(-1.0, 1.0, -1.0, 1.0, 33, 33)
    del g  # ladder maths only; field not needed here
    from membranelab.monotonicity import _profile
    v = _profile(lad, np.array([1.0, 1.0, 1.5, 1.0])).violations
    assert v == ((0.2, 0.3),)
    assert _profile(lad, np.array([4.0, 3.0, 2.0, 1.0])).violations == ()


# ---------------------------------------------------------------------------
# Frozen oracles
# ---------------------------------------------------------------------------


def test_weiss_phi_two_phase_oracle(sampled_profile_641):
    g, u = sampled_profile_641
    val = weiss_phi(u, (0.0, 0.0), 0.5, 2.0, 2.0)
    assert val == pytest.approx(PI_8, rel=1e-3)


def test_weiss_phi_one_phase_oracle():
    g = build_grid(-1.25, 1.25, -1.25, 1.25, 641, 641)
    u = sample(g, lambda X, Y: 0.5 * np.maximum(X, 0.0) ** 2)
    val = weiss_phi(u, (0.0, 0.0), 0.5, 2.0, 2.0)
    assert val == pytest.approx(PI_16, rel=1e-3)


def test_weiss_phi_scale_invariance(sampled_profile_641):
    g, u = sampled_profile_641
    vals = [weiss_phi(u, (0.0, 0.0), r, 2.0, 2.0) for r in (0.25, 0.5, 1.0)]
    assert max(vals) - min(vals) <= 1e-3 * PI_8


def test_acf_psi_oracle(halfplane_parts_641):
    g, hp, hm = halfplane_parts_641
    val = acf_psi(hp, hm, (0.0, 0.0), 1.0)
    assert val == pytest.approx(PSI_REF, rel=1e-2)
    val_half = acf_psi(hp, hm, (0.0, 0.0), 0.5)
    assert abs(val_half - val) <= 1e-2 * val


def test_acf_psi_rejects_signed_pairs(halfplane_parts_641):
    g, hp, hm = halfplane_parts_641
    signed = sample(g, lambda X, Y: X)
    with pytest.raises(ValueError):
        acf_psi(signed, hm, (0.0, 0.0), 0.5)


def test_acf_psi_rejects_a_pair_on_two_grids(halfplane_parts_641):
    _, hp, _ = halfplane_parts_641
    g = build_grid(-1.25, 1.25, -1.25, 1.25, 321, 321)
    hm = sample(g, lambda X, Y: np.maximum(-X, 0.0))
    with pytest.raises(ValueError, match="pair must share a grid"):
        acf_psi(hp, hm, (0.0, 0.0), 0.5)


def test_s_norm_oracle(sampled_profile_641):
    g, u = sampled_profile_641
    assert s_norm(u, (0.0, 0.0), 1.0) == pytest.approx(S_1, abs=1e-4)
    # u is 2-homogeneous, so S_r = r^2 * S_1
    assert s_norm(u, (0.0, 0.0), 0.5) == pytest.approx(0.25 * S_1, abs=1e-4)


# ---------------------------------------------------------------------------
# Directional parts and rescalings
# ---------------------------------------------------------------------------


def test_directional_parts_of_profile(sampled_profile_641):
    g, u = sampled_profile_641
    hp, hm = directional_parts(u, (1.0, 0.0))
    X, Y = g.meshgrid()
    # d/dx1 of the profile is |x1|; the kink column carries an h/2 stencil error
    assert float(np.max(np.abs(hp.values - np.abs(X)))) <= 0.5 * g.h + 1e-12
    assert float(np.max(hm.values)) <= 0.5 * g.h
    with pytest.raises(ValueError):
        directional_parts(u, (1.0, 1.0))  # not a unit vector


def test_blowup_rescale_reproduces_normalized_profile(sampled_profile_641):
    g, u = sampled_profile_641
    target = build_grid(-1.0, 1.0, -1.0, 1.0, 65, 65)
    v = blowup_rescale(u, (0.0, 0.0), 0.5, target)
    X, Y = target.meshgrid()
    want = profile_fn()(X, Y) / S_1
    # bilinear sampling error h^2/8 amplified by 1/S_r with S_r = 0.25 S_1
    assert float(np.max(np.abs(v.values - want))) <= 1e-4


def test_blowup_rescale_degenerate_field():
    g = build_grid(-1.0, 1.0, -1.0, 1.0, 65, 65)
    u = sample(g, lambda X, Y: np.zeros_like(X))
    target = build_grid(-1.0, 1.0, -1.0, 1.0, 33, 33)
    with pytest.raises(DegenerateRescaleError):
        blowup_rescale(u, (0.0, 0.0), 0.5, target)


def test_ball_containment_enforced(sampled_profile_641):
    g, u = sampled_profile_641
    with pytest.raises(ValueError):
        weiss_phi(u, (1.0, 0.0), 0.5, 2.0, 2.0)   # ball exits the grid
    with pytest.raises(ValueError):
        weiss_phi(u, (0.0, 0.0), g.h, 2.0, 2.0)   # radius under the 2h floor


# ---------------------------------------------------------------------------
# Ladders end to end
# ---------------------------------------------------------------------------


def test_phi_ladder_clean_on_exact_profile(sampled_profile_641):
    g, u = sampled_profile_641
    lad = RadiusLadder((0.0, 0.0), (1.0, 0.5, 0.25, 0.125))
    prof = phi_ladder(u, gradient_fields(u), lad, 2.0, 2.0)
    assert prof.violations == ()
    assert np.allclose(prof.values, PI_8, rtol=1e-2)


def test_psi_ladder_decays_for_profile_parts(sampled_profile_641):
    g, u = sampled_profile_641
    hp, hm = directional_parts(u, (1.0, 0.0))
    lad = RadiusLadder((0.0, 0.0), (1.0, 0.5, 0.25))
    prof = psi_ladder(hp, hm, lad)
    assert prof.violations == ()
    # the pair loses the negative part entirely: psi is quadrature noise
    assert max(prof.values) <= 1e-2 * PSI_REF


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.floats(min_value=0.3, max_value=1.0))
def test_phi_ladder_tolerance_scales_with_values(r_top):
    # doubling the field leaves violation structure intact: tolerance is
    # relative, and Weiss of 2u with the same lambdas is not scale-free,
    # so only the no-crash/flag-shape contract is checked here
    g = build_grid(-1.25, 1.25, -1.25, 1.25, 161, 161)
    u = sample(g, profile_fn())
    lad = RadiusLadder((0.0, 0.0), (r_top, 0.5 * r_top))
    prof = phi_ladder(u, gradient_fields(u), lad, 2.0, 2.0)
    assert len(prof.values) == 2
    assert prof.tol_mono > 0.0


# ---------------------------------------------------------------------------
# The shared disk kernel against the per-field path
# ---------------------------------------------------------------------------


def whole_polar_disk(center, r, h):
    """The package's disk rule as whole arrays: the x, y and weight of every node, in node order."""
    points, nq = _polar_disk(center, r, h)
    return points(0, nq * nq)


def package_disk(grid):
    """The package's disk rule for fields on ``grid``."""
    return lambda center, r: whole_polar_disk(center, r, grid.h)


def per_field_psi(h1, h2, z, radii, disk):
    """acf_psi along radii with every gradient component interpolated alone.

    This is the path the package took before the shared kernel: the
    gradient fields of each member, then one interpolate_many per field at
    the points of ``disk``.
    """
    grads = (gradient_fields(h1), gradient_fields(h2))
    out = []
    for r in radii:
        xs, ys, w = disk(z, r)
        total = 1.0 / r**4
        for gx, gy in grads:
            gxv = interpolate_many(gx, xs, ys)
            gyv = interpolate_many(gy, xs, ys)
            total *= float(np.sum((gxv * gxv + gyv * gyv) * w))
        out.append(total)
    return out


def per_field_directional_psi(u, z, radii, e, disk):
    """classify_point's psi before the kernel: directional_parts, then per_field_psi."""
    hp, hm = directional_parts(u, e)
    return per_field_psi(hp, hm, z, radii, disk)


def per_field_phi(u, x0, r, lp, lm, disk):
    """weiss_phi with u and each gradient component interpolated alone."""
    gx, gy = gradient_fields(u)
    xs, ys, w = disk(x0, r)
    uv = interpolate_many(u, xs, ys)
    gxv = interpolate_many(gx, xs, ys)
    gyv = interpolate_many(gy, xs, ys)
    bulk = gxv * gxv + gyv * gyv + lp * np.maximum(uv, 0.0) + lm * np.maximum(-uv, 0.0)
    cx, cy, cw = _circle(x0, r)
    ring = float(np.sum(interpolate_many(u, cx, cy) ** 2) * cw)
    return float(np.sum(bulk * w)) / r**4 - 2.0 * ring / r**5


@pytest.fixture(scope="module")
def kernel_cases(profile_solutions, tau_solution, poly_solutions):
    """(field, center, radii) triples: sweep points, slab, one-phase and wavy data."""
    cases = []
    v, spec, u, _ = profile_solutions[129]
    h = spec.grid.h
    radii = (32 * h, 16 * h, 8 * h)
    fb = FieldAnalysis(u, spec).free_boundary
    # a window of 32h keeps each target 32h + 2h inside the grid, so the
    # ladder's largest ball fits around every one
    points = _reference_points(fb, spec.grid, 32 * h, 8)
    assert len(points) == 8
    cases += [(u, p, radii) for p in points]
    u_tau = tau_solution[2]
    cases += [(u_tau, (0.0, 0.0), radii), (u_tau, (-0.4, 0.25), radii)]
    cases.append((poly_solutions[129][2], (0.0, 0.0), radii))
    g = build_grid(-1.0, 1.0, -1.0, 1.0, 65, 65)
    bc = BoundaryMap.from_callable(g, lambda X, Y: 0.5 * X * np.abs(X) + 0.1 * np.sin(np.pi * Y))
    u_wavy, _ = solve(ProblemSpec(g, bc, 2.0, 2.0))
    # the top ball touches the domain edge, so the window is clipped there
    cases.append((u_wavy, (0.0, 0.0), (32 * g.h, 16 * g.h, 8 * g.h)))
    return cases


def test_directional_psi_matches_the_per_field_path(kernel_cases):
    dirs = [e for _, e in _DIRECTIONS]
    for u, p, radii in kernel_cases:
        disk = package_disk(u.grid)
        profs = directional_psi(gradient_fields(u), RadiusLadder(p, radii), dirs)
        for e, prof in zip(dirs, profs):
            assert list(prof.values) == per_field_directional_psi(u, p, radii, e, disk), (p, e)


def test_one_radius_ladder_classifies_as_the_default_ladder(kernel_cases):
    # classify_point reads only the smallest radius, and each radius of a
    # ladder is summed on its own, so the sweep's one-radius ladder decides
    # on the same numbers as the default ladder, bit for bit.  The kernel
    # cases read branch, indeterminate (the slab's (-0.4, 0.25)) and
    # one_phase_singular; a profile whose linear part clears the
    # gradient cut adds regular.
    g = build_grid(-1.0, 1.0, -1.0, 1.0, 129, 129)
    v = GlobalProfile(1.0, 1.0, 0.0, 0.0, 2.0, 2.0)
    u_lin = sample(g, lambda X, Y: eval_many(v, X, Y))
    labels = set()
    for u, p, radii in kernel_cases + [(u_lin, (0.0, 0.0), (32 * g.h, 16 * g.h, 8 * g.h))]:
        fa = FieldAnalysis(u, spec_of(u))
        full = classify_point(fa, RadiusLadder(p, radii))
        small = classify_point(fa, RadiusLadder(p, radii[-1:]))
        assert small.label == full.label, p
        labels.add(full.label)
        ev, ev_small = full.evidence, small.evidence
        for key in ("gradient_norm", "decided_by", "dist_to_m", "best_theta", "dist_to_poly"):
            assert ev_small.get(key) == ev.get(key), (p, key)
        if ev["psi"] is not None:
            assert {name: vals[-1] for name, vals in ev["psi"].items()} == {
                name: vals[0] for name, vals in ev_small["psi"].items()}, p
    assert labels == {"regular", "branch", "one_phase_singular", "indeterminate"}


def test_label_only_classification_gives_the_full_label(kernel_cases):
    # the sweep's call: the ramp distance is skipped or cut short wherever
    # the label does not read its value, and the label and deciding test
    # stay the full call's
    labels = set()
    for u, p, radii in kernel_cases:
        fa = FieldAnalysis(u, spec_of(u))
        ladder = RadiusLadder(p, radii)
        full, fast = classify_point(fa, ladder), classify_point(fa, ladder, evidence=False)
        assert (fast.label, fast.evidence["decided_by"]) == (full.label, full.evidence["decided_by"]), p
        labels.add(full.label)
    assert labels == {"branch", "one_phase_singular", "indeterminate"}


def test_classification_psi_is_the_per_field_psi(profile_solutions):
    v, spec, u, _ = profile_solutions[129]
    h = spec.grid.h
    radii = (32 * h, 16 * h, 8 * h)
    pc = classify_point(FieldAnalysis(u, spec), RadiusLadder((0.0, 0.0), radii))
    disk = package_disk(spec.grid)
    for name, e in _DIRECTIONS:
        assert list(pc.evidence["psi"][name]) == per_field_directional_psi(u, (0.0, 0.0), radii, e, disk)


def test_phi_and_pair_psi_match_the_per_field_path(kernel_cases):
    for u, p, radii in kernel_cases[::4]:
        disk = package_disk(u.grid)
        prof = phi_ladder(u, gradient_fields(u), RadiusLadder(p, radii), 2.0, 2.0)
        assert list(prof.values) == [per_field_phi(u, p, r, 2.0, 2.0, disk) for r in radii]
        hp, hm = directional_parts(u, (math.sqrt(0.5), -math.sqrt(0.5)))
        prof = psi_ladder(hp, hm, RadiusLadder(p, radii))
        assert list(prof.values) == per_field_psi(hp, hm, p, radii, disk)
        assert acf_psi(hp, hm, p, radii[1]) == prof.values[1]
        assert weiss_phi(u, p, radii[2], 2.0, 2.0) == per_field_phi(u, p, radii[2], 2.0, 2.0, disk)


def bowl(X, Y):
    # e . grad = e . (x, y) takes both signs on any ball about the origin,
    # so every directional part is live there and psi reads all 16 layers
    return 0.5 * (X * X + Y * Y)


def wavy(X, Y):
    return 0.5 * X * np.abs(X) + 0.1 * np.sin(np.pi * Y)


def plane(X, Y):
    return 0.3 * X - 0.7 * Y


# Radii of nq = 162 and nq = 38 cells, whose nq angle rows of nq points the
# disk kernel's pairwise-tree nodes cut across: some node of the 3-layer or the
# 16-layer tree starts inside an angle row (at nq = 162 in both trees, at
# nq = 38 in the 16-layer one).
PARTIAL_STEPS = (40.3, 9.3)


def test_partial_blocks_match_the_per_field_path(profile_solutions, tau_solution):
    dirs = [e for _, e in _DIRECTIONS]
    u_bowl = sample(profile_solutions[129][1].grid, bowl)
    for u, p in ((profile_solutions[129][2], (0.0, 0.05)), (tau_solution[2], (-0.2, 0.1)),
                 (u_bowl, (0.0, 0.05))):
        h = u.grid.h
        radii = tuple(k * h for k in PARTIAL_STEPS)
        nqs = [_polar_disk(p, r, h)[1] for r in radii]
        assert nqs == [162, 38]
        for nq in nqs:
            starts = [np.cumsum(pairwise_nodes(nq * nq, max(128, _BLOCK // fields)))[:-1]
                      for fields in (3, 16)]
            assert any(np.any(s % nq) for s in starts), nq
        disk = package_disk(u.grid)
        ladder = RadiusLadder(p, radii)
        # phi interpolates a stack of 3 layers; the four directions one of 16
        # on the bowl, and of 4 on the solved fields, where only e2's pair is live
        prof = phi_ladder(u, gradient_fields(u), ladder, 2.0, 2.0)
        assert list(prof.values) == [per_field_phi(u, p, r, 2.0, 2.0, disk) for r in radii]
        profs = directional_psi(gradient_fields(u), ladder, dirs)
        for e, prof in zip(dirs, profs):
            assert list(prof.values) == per_field_directional_psi(u, p, radii, e, disk), (p, e)


def test_directional_psi_interpolates_every_disk_point(profile_solutions, monkeypatch):
    # the benchmark counts quadrature points through interpolate_many
    u = profile_solutions[129][2]
    h = u.grid.h
    radii = (40.3 * h, 32 * h, 9.3 * h)
    points = []

    def counting(f, x, y):
        points.append(np.size(x))
        return interpolate_many(f, x, y)

    monkeypatch.setattr(monotonicity, "interpolate_many", counting)
    directional_psi(gradient_fields(u), RadiusLadder((0.0, 0.0), radii), [e for _, e in _DIRECTIONS])
    nq = [math.ceil(4.0 * r / h) for r in radii]
    assert nq == [162, 128, 38]
    assert sum(points) == sum(n * n for n in nq)


def window_layers(monkeypatch):
    """The layer count of each window stack monotonicity interpolates, as a list calls append to."""
    layers = []

    def recording(f, x, y):
        if isinstance(f, FieldWindow):
            layers.append(f.values.shape[0])
        return interpolate_many(f, x, y)

    monkeypatch.setattr(monotonicity, "interpolate_many", recording)
    return layers


@pytest.mark.parametrize("field, live", [
    ("profile", {"e2"}),
    ("wavy", {"e2", "diag", "antidiag"}),
    ("plane", set()),
], ids=["profile", "wavy", "plane"])
def test_directional_psi_leaves_out_pairs_that_vanish_on_the_window(profile_solutions, monkeypatch,
                                                                   field, live):
    # a pair with a member that is 0 on the window has psi 0.0, as the
    # per-field path computes it, and its 4 layers are not interpolated.
    # The solved profile is monotone along e1, diag and antidiag (its
    # rounding-level d/dy keeps e2's pair live), the wavy data along e1,
    # and the plane along every direction.
    g = profile_solutions[129][1].grid
    h = g.h
    if field == "profile":
        u, p = profile_solutions[129][2], (0.0, 0.05)
    elif field == "wavy":
        u, p = sample(g, wavy), (0.0, 0.0)
    else:
        u, p = sample(g, plane), (0.1, -0.2)
    radii = (32 * h, 16 * h, 8 * h)
    layers = window_layers(monkeypatch)
    profs = directional_psi(gradient_fields(u), RadiusLadder(p, radii), [e for _, e in _DIRECTIONS])
    assert set(layers) == ({4 * len(live)} if live else set())
    assert {name for (name, _), prof in zip(_DIRECTIONS, profs) if any(prof.values)} == live
    disk = package_disk(g)
    for (name, e), prof in zip(_DIRECTIONS, profs):
        assert list(prof.values) == per_field_directional_psi(u, p, radii, e, disk), name


def test_benchmark_ladders_interpolate_only_the_live_pair(profile_solutions, monkeypatch):
    # the diagnose ladders of the profile benchmark at n = 257: of the four
    # directions only e2's pair is live, so each disk call reads 4 layers, not 16
    u = profile_solutions[257][2]
    grads = gradient_fields(u)
    layers = window_layers(monkeypatch)
    for y0 in (-0.25, 0.0, 0.25):
        directional_psi(grads, RadiusLadder((0.0, y0), (0.5, 0.25, 0.125, 0.0625)),
                        [e for _, e in _DIRECTIONS])
    assert layers and set(layers) == {4}


def test_a_ladder_with_no_live_pair_still_checks_its_balls(monkeypatch):
    g = build_grid(-1.0, 1.0, -1.0, 1.0, 129, 129)
    u = sample(g, plane)
    grads = gradient_fields(u)
    dirs = [e for _, e in _DIRECTIONS]
    hp, hm = directional_parts(u, (1.0, 0.0))
    assert not hm.values.any()
    layers = window_layers(monkeypatch)
    with pytest.raises(ValueError, match="exits the grid"):
        directional_psi(grads, RadiusLadder((0.9, 0.0), (0.5, 0.25)), dirs)
    with pytest.raises(ValueError, match="under-resolved"):
        directional_psi(grads, RadiusLadder((0.0, 0.0), (0.5, 2.0 * g.h)), dirs)
    with pytest.raises(ValueError, match="exits the grid"):
        psi_ladder(hp, hm, RadiusLadder((0.0, 0.0), (1.5,)))
    with pytest.raises(ValueError, match="under-resolved"):
        acf_psi(hp, hm, (0.0, 0.0), 2.0 * g.h)
    # a signed member is rejected, whatever its partner
    with pytest.raises(ValueError, match="nonnegative"):
        psi_ladder(u, hm, RadiusLadder((0.0, 0.0), (0.5,)))
    assert psi_ladder(hp, hm, RadiusLadder((0.0, 0.0), (0.5, 0.25))).values == (0.0, 0.0)
    assert layers == []


def test_pairwise_sums_have_the_bits_of_np_sum():
    # the kernel adds up its rows node by node in the order numpy's np.sum
    # takes; a numpy that sums a row another way fails here instead of
    # silently moving every phi and psi.  The values of a range of nodes
    # are those columns, as the disk kernel interpolates a range of nodes.
    rng = np.random.default_rng(2024)
    cases = [(n, 128) for n in (1, 7, 8, 127, 128, 129, 136, 255, 256, 257, 1024, 1444, 26244, 65536)]
    cases += [(int(rng.integers(1, 70000)), int(rng.integers(128, 5000))) for _ in range(300)]
    for n, leaf in cases:
        v = rng.standard_normal((2, n)) * np.exp(4.0 * rng.standard_normal((2, n)))
        got = monotonicity._pairwise_sums(0, n, leaf, lambda a, b: v[:, a:b])
        assert got.tobytes() == np.array([np.sum(row) for row in v]).tobytes(), (n, leaf)


def traced_peak(fn):
    """fn() and the tracemalloc peak it reaches above its entry; fn is run once untraced first."""
    want = fn()
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        got = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    return got, peak - entry


def sampled_257(fn):
    """n = 257 samples of fn, their gradients, and the benchmark's ladder about the origin."""
    g = build_grid(-1.0, 1.0, -1.0, 1.0, 257, 257)
    u = sample(g, fn)
    return u, gradient_fields(u), RadiusLadder((0.0, 0.0), (0.5, 0.25, 0.125, 0.0625))


def test_directional_psi_holds_no_radius_whole():
    # the bowl's 16-layer window stack of r = 64h is 2.3 MB; holding the 8 rows of
    # integrand values of the 256^2 rule took 4 MB more (a peak of 7 MB),
    # and building each direction's gradients apart before copying them
    # into the stack 0.6 MB more (3.8 MB)
    _, grads, ladder = sampled_257(bowl)
    dirs = [e for _, e in _DIRECTIONS]
    _, peak = traced_peak(lambda: directional_psi(grads, ladder, dirs))
    assert peak <= 3.5e6, peak


def test_phi_ladder_holds_no_radius_whole():
    # the 3-layer window stack is 0.44 MB; interpolating blocks of 21 angle
    # rows (5,376 points at nq = 256) and re-cutting them into the pairwise
    # tree's nodes of 4,096 peaked at 1.44 MB
    u, grads, ladder = sampled_257(profile_fn())
    _, peak = traced_peak(lambda: phi_ladder(u, grads, ladder, 2.0, 2.0))
    assert peak <= 1.35e6, peak


def pairwise_nodes(n, leaf):
    """Sizes of the nodes numpy's pairwise sum splits n values into, down to at most leaf, in order."""
    if n <= leaf:
        return [n]
    n2 = n // 2 - n // 2 % 8
    return pairwise_nodes(n2, leaf) + pairwise_nodes(n - n2, leaf)


@pytest.mark.parametrize("layers", [3, 16])
def test_each_disk_call_takes_one_node_of_the_pairwise_tree(monkeypatch, layers):
    # phi reads 3 layers (leaf 5,461: nodes of 4,096 points at nq = 256),
    # the four directions' psi 16 on the bowl, where every pair is live
    # (leaf 1,024); r = 40.3h has nq = 162, whose angle rows the nodes cut
    # across
    u, grads, ladder = sampled_257(profile_fn() if layers == 3 else bowl)
    h = u.grid.h
    ladder = RadiusLadder(ladder.center, (*ladder.radii[:1], 40.3 * h, *ladder.radii[1:]))
    calls = []

    def recording(f, x, y):
        if isinstance(f, FieldWindow):
            assert f.values.shape[0] == layers
            calls.append((np.array(x), np.array(y)))
        return interpolate_many(f, x, y)

    monkeypatch.setattr(monotonicity, "interpolate_many", recording)
    if layers == 3:
        phi_ladder(u, grads, ladder, 2.0, 2.0)
    else:
        directional_psi(grads, ladder, [e for _, e in _DIRECTIONS])
    leaf = max(128, _BLOCK // layers)
    nqs = []
    for r in ladder.radii:
        xs, ys, w = whole_polar_disk(ladder.center, r, h)
        nqs.append(math.isqrt(w.size))
        start = 0
        for m in pairwise_nodes(w.size, leaf):
            x, y = calls.pop(0)
            assert x.tobytes() == xs[start:start + m].tobytes(), (r, start, m)
            assert y.tobytes() == ys[start:start + m].tobytes(), (r, start, m)
            start += m
    assert calls == []
    assert nqs == [256, 162, 128, 64, 32]


def counting_calls(monkeypatch, name):
    """Wrap monotonicity's binding of ``name``; returns the list its calls append to."""
    calls = []
    original = getattr(monotonicity, name)

    def counting(*args):
        calls.append(name)
        return original(*args)

    monkeypatch.setattr(monotonicity, name, counting)
    return calls


def test_pair_psi_forms_gradients_on_the_window(halfplane_parts_641, monkeypatch):
    # a pair's gradients are taken on the cropped window, not as full fields
    g, hp, hm = halfplane_parts_641
    calls = counting_calls(monkeypatch, "gradient_fields")
    acf_psi(hp, hm, (0.0, 0.0), 0.5)
    psi_ladder(hp, hm, RadiusLadder((0.0, 0.0), (0.5, 0.25)))
    assert calls == []


def test_each_ladder_crops_once(profile_solutions, monkeypatch):
    u = profile_solutions[129][2]
    h = u.grid.h
    ladder = RadiusLadder((0.0, 0.05), (32 * h, 16 * h, 8 * h))
    grads = gradient_fields(u)
    hp, hm = directional_parts(u, (1.0, 0.0))
    calls = counting_calls(monkeypatch, "_crop")
    phi_ladder(u, grads, ladder, 2.0, 2.0)
    assert len(calls) == 1
    psi_ladder(hp, hm, ladder)
    assert len(calls) == 2
    directional_psi(grads, ladder, [e for _, e in _DIRECTIONS])
    assert len(calls) == 3


def meshgrid_polar_disk(center, r, nq):
    """The nq x nq polar midpoint rule, cos and sin taken on the whole meshgrid."""
    dr = r / nq
    dth = 2.0 * math.pi / nq
    rk = (np.arange(nq) + 0.5) * dr
    th = (np.arange(nq) + 0.5) * dth
    R, T = np.meshgrid(rk, th)
    xs = center[0] + R * np.cos(T)
    ys = center[1] + R * np.sin(T)
    w = R * dr * dth
    return xs.ravel(), ys.ravel(), w.ravel()


def full_polar_disk(center, r):
    """The 256 x 256 polar midpoint rule at every r/h, as before the sized rule."""
    return meshgrid_polar_disk(center, r, 256)


def test_polar_disk_matches_the_meshgrid_rule_bit_for_bit():
    # cos and sin of the nq angles, broadcast against the radii, give the
    # nodes and weights the nq^2 meshgrid gave, byte for byte
    rng = np.random.default_rng(2024)
    cases = [((0.1, -0.2), 3.0 / 128, 1.0 / 128),      # nq clamped up to 32
             ((-0.3, 0.05), 100.0 / 128, 1.0 / 128)]   # nq clamped down to 256
    for _ in range(300):
        h = 2.0 / int(rng.integers(16, 1025))
        cases.append((tuple(rng.uniform(-1.0, 1.0, 2)), h * rng.uniform(2.0, 100.0), h))
    nqs = set()
    for center, r, h in cases:
        nq = min(256, max(32, math.ceil(4.0 * r / h)))
        nqs.add(nq)
        got = whole_polar_disk(center, r, h)
        want = meshgrid_polar_disk(center, r, nq)
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), (center, r, h)
        # ranges of nodes, as the ladder evaluator takes them, give the same nodes and weights
        points = _polar_disk(center, r, h)[0]
        cuts = [0, *sorted(rng.integers(1, nq * nq, 2).tolist()), nq * nq]
        for k, parts in enumerate(zip(*(points(a, b) for a, b in zip(cuts, cuts[1:])))):
            assert np.concatenate(parts).tobytes() == got[k].tobytes(), (center, r, h, cuts)
    assert {32, 256} <= nqs and len(nqs) > 100


@pytest.mark.parametrize("steps", [8, 16, 32, 64, 128, 256])
def test_sized_disk_rule_against_the_full_rule(sampled_profile_641, halfplane_parts_641, steps):
    g, u = sampled_profile_641
    _, hp, hm = halfplane_parts_641
    r = steps * g.h
    for z in ((0.0, 0.0), (0.013, -0.2)):
        if not g.contains_ball(z, r):
            continue
        phi = weiss_phi(u, z, r, 2.0, 2.0)
        phi_full = per_field_phi(u, z, r, 2.0, 2.0, full_polar_disk)
        psi = acf_psi(hp, hm, z, r)
        psi_full = per_field_psi(hp, hm, z, (r,), full_polar_disk)[0]
        if steps >= 64:
            # criteria 3 and 4 run here and see the full rule's numbers
            assert phi == phi_full and psi == psi_full
        else:
            assert abs(phi - phi_full) <= 5e-3 * abs(phi_full), (z, phi, phi_full)
            assert abs(psi - psi_full) <= 5e-3 * abs(psi_full), (z, psi, psi_full)
