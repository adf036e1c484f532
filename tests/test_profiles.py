"""Profile/polynomial evaluation, validation, and class-distance search."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from membranelab import (
    GlobalProfile,
    OnePhasePolynomial,
    build_grid,
    dist_to_M,
    eval_many,
    eval_polynomial_many,
    eval_profile_many,
    profile_boundary_trace,
    sample,
)
from membranelab.grid import boundary_mask


# ---------------------------------------------------------------------------
# Evaluation against closed forms
# ---------------------------------------------------------------------------


def test_profile_matches_closed_form():
    v = GlobalProfile(1.0, 0.0, 0.0, 0.0, 2.0, 2.0)
    # beta1 = 1, lambda = 2: u = x^2/2 on x > 0, -x^2/2 on x < 0
    vals = eval_profile_many(v, np.array([0.5, -0.5, 0.0]), np.array([0.3, -0.8, 1.0]))
    assert vals[0] == pytest.approx(0.125, abs=1e-15)
    assert vals[1] == pytest.approx(-0.125, abs=1e-15)
    assert vals[2] == 0.0


def test_profile_tau_pins_a_slab():
    v = GlobalProfile(1.0, 0.0, -0.4, 0.0, 2.0, 2.0)
    X = np.array([-0.2, -0.4, 0.1, -0.6])
    Y = np.zeros(4)
    vals = eval_profile_many(v, X, Y)
    assert vals[0] == 0.0 and vals[1] == 0.0          # inside [tau, 0]
    assert vals[2] == pytest.approx(0.005, abs=1e-15)  # 0.1^2/2
    assert vals[3] == pytest.approx(-0.02, abs=1e-15)  # -(0.6-0.4)^2/2


def test_profile_linear_term():
    v = GlobalProfile(0.0, 0.7, 0.0, 0.0, 2.0, 2.0)
    X = np.array([0.3, -0.3])
    vals = eval_profile_many(v, X, np.zeros(2))
    assert np.allclose(vals, [0.21, -0.21], atol=1e-15)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.floats(min_value=-3.0, max_value=3.0))
def test_profile_rotation_equivariance(theta):
    v0 = GlobalProfile(0.8, 0.2, 0.0, 0.0, 2.0, 3.0)
    vr = GlobalProfile(0.8, 0.2, 0.0, theta, 2.0, 3.0)
    rng = np.random.default_rng(11)
    X = rng.uniform(-1, 1, 50)
    Y = rng.uniform(-1, 1, 50)
    # rotating the frame equals evaluating the axis-aligned profile at the
    # rotated first coordinate; the ramp only sees x1
    Xr = math.cos(theta) * X - math.sin(theta) * Y
    assert np.allclose(eval_profile_many(vr, X, Y), eval_profile_many(v0, Xr, np.zeros_like(Y)), atol=1e-12)


def test_polynomial_matches_closed_form():
    q = OnePhasePolynomial(0.25, 0.0, 0.25, 1)
    X = np.array([0.5, -1.0])
    Y = np.array([0.5, 0.0])
    assert np.allclose(eval_polynomial_many(q, X, Y), [0.125, 0.25], atol=1e-15)
    assert q.lam == 2.0
    qn = OnePhasePolynomial(-0.5, 0.0, -0.25, -1)
    assert qn.lam == 3.0


def test_eval_many_dispatches_on_type():
    g = build_grid(-1.0, 1.0, -1.0, 1.0, 9, 9)
    X, Y = g.meshgrid()
    v = GlobalProfile(1.0, 0.0, 0.0, 0.0, 2.0, 2.0)
    q = OnePhasePolynomial(0.25, 0.0, 0.25, 1)
    assert np.array_equal(eval_many(v, X, Y), eval_profile_many(v, X, Y))
    assert np.array_equal(eval_many(q, X, Y), eval_polynomial_many(q, X, Y))
    with pytest.raises(TypeError):
        eval_many(object(), X, Y)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def test_profile_validation():
    with pytest.raises(ValueError):
        GlobalProfile(1.0, 0.0, 0.0, 0.0, 0.0, 2.0)     # lambda_plus = 0
    with pytest.raises(ValueError):
        GlobalProfile(-0.1, 0.0, 0.0, 0.0, 2.0, 2.0)    # negative coefficient
    with pytest.raises(ValueError):
        GlobalProfile(0.0, 0.0, 0.0, 0.0, 2.0, 2.0)     # both coefficients zero
    with pytest.raises(ValueError):
        GlobalProfile(1.0, 0.0, 0.1, 0.0, 2.0, 2.0)     # tau > 0
    with pytest.raises(ValueError):
        GlobalProfile(1.0, 0.0, -1.1, 0.0, 2.0, 2.0)    # tau < -1
    with pytest.raises(ValueError):
        GlobalProfile(1.0, 0.5, -0.2, 0.0, 2.0, 2.0)    # linear term with a slab


def test_polynomial_validation():
    with pytest.raises(ValueError):
        OnePhasePolynomial(-0.25, 0.0, 0.25, 1)   # diagonal sign mismatch
    with pytest.raises(ValueError):
        OnePhasePolynomial(0.1, 1.0, 0.1, 1)      # indefinite
    with pytest.raises(ValueError):
        OnePhasePolynomial(0.0, 0.0, 0.0, 1)      # zero matrix
    with pytest.raises(ValueError):
        OnePhasePolynomial(0.25, 0.0, 0.25, 2)    # bad sign flag


# ---------------------------------------------------------------------------
# Boundary traces
# ---------------------------------------------------------------------------


def test_boundary_trace_matches_eval_on_ring():
    g = build_grid(-1.0, 1.0, -1.0, 1.0, 17, 17)
    v = GlobalProfile(1.0, 0.0, 0.0, 0.3, 2.0, 2.0)
    bc = profile_boundary_trace(v, g)
    X, Y = g.meshgrid()
    want = eval_profile_many(v, X, Y)
    m = boundary_mask(g)
    assert np.allclose(bc.values[m], want[m], atol=0.0)


# ---------------------------------------------------------------------------
# Distance to the profile classes
# ---------------------------------------------------------------------------
#
# The "mstar" cases use unrotated (theta = 0) data.  The unrotated class M*
# lies inside the rotated class M, so each case bounds dist_to_M the way
# it bounds the distance to M*.


def canonical_disk_nodes():
    g = build_grid(-1.0, 1.0, -1.0, 1.0, 65, 65)
    X, Y = g.meshgrid()
    inside = X**2 + Y**2 <= 1.0 + 1e-12
    return g, X, Y, inside


def test_dist_to_mstar_member_is_zero():
    g, X, Y, inside = canonical_disk_nodes()
    v = GlobalProfile(0.8, 0.0, -0.3, 0.0, 2.0, 2.0)
    f = sample(g, lambda XX, YY: eval_profile_many(v, XX, YY))
    # refinement stops on objective stall, so an off-lattice member lands
    # near but not at zero; anything far below tol_dist = 0.1 is a match
    val, best = dist_to_M(f)
    assert val < 1e-3
    assert best.beta1 == pytest.approx(0.8, abs=5e-3)
    assert best.tau == pytest.approx(-0.3, abs=5e-3)


def test_dist_to_mstar_offset_member():
    # adding a constant displaces the field by exactly that sup distance
    g, X, Y, inside = canonical_disk_nodes()
    v = GlobalProfile(1.0, 0.0, 0.0, 0.0, 2.0, 2.0)
    f = sample(g, lambda XX, YY: eval_profile_many(v, XX, YY) + 0.05)
    val, _ = dist_to_M(f)
    assert val == pytest.approx(0.05, abs=2e-3)


def test_dist_to_mstar_zero_field_artifact():
    # the class excludes the zero profile (coefficient floor c = 0.05), so
    # the zero field sits at c * max ramp = 0.05 * 0.5 = 0.025 from it
    g, X, Y, inside = canonical_disk_nodes()
    f = sample(g, lambda XX, YY: np.zeros_like(XX))
    val, _ = dist_to_M(f)
    assert val == pytest.approx(0.025, abs=1e-3)


def test_dist_to_mstar_beats_brute_force_scan():
    # independent oracle: dense brute-force scan over the same chart must not
    # find a profile meaningfully closer than the search result
    g, X, Y, inside = canonical_disk_nodes()
    target = GlobalProfile(0.6, 0.0, -0.2, 0.0, 2.0, 2.0)
    fvals = eval_profile_many(target, X, Y) + 0.01 * Y  # not a member
    f = sample(g, lambda XX, YY: fvals)
    val, _ = dist_to_M(f)

    Xi, Yi = X[inside], Y[inside]
    fi = fvals[inside]
    best = np.inf
    for b1 in np.linspace(0.05, 2.0, 40):
        pos = np.maximum(Xi, 0.0) ** 2
        for tau in np.linspace(-1.0, 0.0, 41):
            neg = np.minimum(Xi - tau, 0.0) ** 2
            cand = b1 * 0.5 * (pos - neg)
            best = min(best, float(np.max(np.abs(cand - fi))))
    assert val <= best + 1e-3


def test_dist_to_m_recovers_rotation():
    g, X, Y, inside = canonical_disk_nodes()
    v = GlobalProfile(1.0, 0.0, 0.0, 0.3, 2.0, 2.0)
    f = sample(g, lambda XX, YY: eval_profile_many(v, XX, YY))
    val, best = dist_to_M(f)
    assert val < 1e-5
    assert best.theta == pytest.approx(0.3, abs=2.0 * math.pi / 360.0)
