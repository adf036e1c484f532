"""Profile/polynomial evaluation, validation, and class-distance search."""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from membranelab import (
    GlobalProfile,
    OnePhasePolynomial,
    blowup_rescale,
    build_grid,
    dist_to_M,
    eval_many,
    profile_boundary_trace,
    sample,
    solve,
)
from membranelab import freeboundary, profiles
from membranelab.cli import load_config, stability_sweep
from membranelab.freeboundary import FieldAnalysis
from membranelab.grid import boundary_mask


# ---------------------------------------------------------------------------
# Evaluation against closed forms
# ---------------------------------------------------------------------------


def test_profile_matches_closed_form():
    v = GlobalProfile(1.0, 0.0, 0.0, 0.0, 2.0, 2.0)
    # beta1 = 1, lambda = 2: u = x^2/2 on x > 0, -x^2/2 on x < 0
    vals = eval_many(v, np.array([0.5, -0.5, 0.0]), np.array([0.3, -0.8, 1.0]))
    assert vals[0] == pytest.approx(0.125, abs=1e-15)
    assert vals[1] == pytest.approx(-0.125, abs=1e-15)
    assert vals[2] == 0.0


def test_profile_tau_pins_a_slab():
    v = GlobalProfile(1.0, 0.0, -0.4, 0.0, 2.0, 2.0)
    X = np.array([-0.2, -0.4, 0.1, -0.6])
    Y = np.zeros(4)
    vals = eval_many(v, X, Y)
    assert vals[0] == 0.0 and vals[1] == 0.0          # inside [tau, 0]
    assert vals[2] == pytest.approx(0.005, abs=1e-15)  # 0.1^2/2
    assert vals[3] == pytest.approx(-0.02, abs=1e-15)  # -(0.6-0.4)^2/2


def test_profile_linear_term():
    v = GlobalProfile(0.0, 0.7, 0.0, 0.0, 2.0, 2.0)
    X = np.array([0.3, -0.3])
    vals = eval_many(v, X, np.zeros(2))
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
    assert np.allclose(eval_many(vr, X, Y), eval_many(v0, Xr, np.zeros_like(Y)), atol=1e-12)


def test_polynomial_matches_closed_form():
    q = OnePhasePolynomial(0.25, 0.0, 0.25, 1)
    X = np.array([0.5, -1.0])
    Y = np.array([0.5, 0.0])
    assert np.allclose(eval_many(q, X, Y), [0.125, 0.25], atol=1e-15)
    assert q.lam == 2.0
    qn = OnePhasePolynomial(-0.5, 0.0, -0.25, -1)
    assert qn.lam == 3.0


def test_eval_many_dispatches_on_type():
    g = build_grid(-1.0, 1.0, -1.0, 1.0, 9, 9)
    X, Y = g.meshgrid()
    v = GlobalProfile(1.0, 0.0, 0.0, 0.0, 2.0, 2.0)
    q = OnePhasePolynomial(0.25, 0.0, 0.25, 1)
    # beta1 = 1, lambda = 2: x|x|/2; and (x^2 + y^2)/4
    assert np.allclose(eval_many(v, X, Y), 0.5 * X * np.abs(X), rtol=0.0, atol=1e-15)
    assert np.allclose(eval_many(q, X, Y), 0.25 * (X * X + Y * Y), rtol=0.0, atol=1e-15)
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


PROFILE_ARGS = dict(beta1=1.0, beta2=0.0, tau=0.0, theta=0.0, lambda_plus=2.0, lambda_minus=2.0)


@pytest.mark.parametrize("name, value", [
    ("beta1", math.nan), ("beta1", math.inf), ("theta", math.nan), ("lambda_plus", math.nan),
])
def test_profile_rejects_non_finite_values(name, value):
    # NaN passes every range check of the type
    with pytest.raises(ValueError, match=f"{name} must be finite, got {value!r}"):
        GlobalProfile(**{**PROFILE_ARGS, name: value})


@pytest.mark.parametrize("coefs, needle", [
    ((math.nan, 0.0, 0.25), "cxx must be finite, got nan"),
    ((math.inf, 0.0, 0.25), "cxx must be finite, got inf"),
    ((0.25, math.nan, 0.25), "cxy must be finite, got nan"),
])
def test_polynomial_rejects_non_finite_values(coefs, needle):
    with pytest.raises(ValueError, match=needle):
        OnePhasePolynomial(*coefs, 1)


# ---------------------------------------------------------------------------
# Boundary traces
# ---------------------------------------------------------------------------


def test_boundary_trace_matches_eval_on_ring():
    g = build_grid(-1.0, 1.0, -1.0, 1.0, 17, 17)
    v = GlobalProfile(1.0, 0.0, 0.0, 0.3, 2.0, 2.0)
    bc = profile_boundary_trace(v, g)
    X, Y = g.meshgrid()
    want = eval_many(v, X, Y)
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


def test_distances_need_a_grid_covering_the_unit_disk():
    g = build_grid(-0.5, 0.5, -0.5, 0.5, 33, 33)
    f = sample(g, lambda X, Y: X)
    with pytest.raises(ValueError, match="field grid must cover the closed unit disk"):
        dist_to_M(f, lambda_plus=2.0, lambda_minus=2.0)


def test_distances_need_a_node_in_the_unit_disk():
    # the grid covers [-1, 1]^2, but its nodes -1, 2, 5 on each axis all lie
    # outside the disk; numpy used to fail on the empty node set instead
    g = build_grid(-1.0, 5.0, -1.0, 5.0, 3, 3)
    f = sample(g, lambda X, Y: X)
    with pytest.raises(ValueError, match="field grid has no node in the closed unit disk"):
        dist_to_M(f, lambda_plus=2.0, lambda_minus=2.0)
    with pytest.raises(ValueError, match="field grid has no node in the closed unit disk"):
        profiles.dist_to_polynomial_class(f)


@pytest.mark.parametrize("bad", [-1.0, 0.0, math.nan, math.inf])
@pytest.mark.parametrize("name", ["lambda_plus", "lambda_minus"])
def test_ramp_distances_check_the_phase_coefficients_before_the_search(name, bad, monkeypatch):
    # both were checked only when dist_to_M built its profile after the
    # search: dist_to_M_below answered True at -1 and 0, NaN failed in
    # numpy's SVD and inf in a multiply
    f = sample(build_grid(-1.0, 1.0, -1.0, 1.0, 65, 65), lambda X, Y: X * np.abs(X))
    needle = "must be positive" if math.isfinite(bad) else f"{name} must be finite, got {bad!r}"
    coefs = {"lambda_plus": 2.0, "lambda_minus": 2.0, name: bad}

    def no_search(*args):
        raise AssertionError("the search started")

    monkeypatch.setattr(profiles, "_disk_nodes", no_search)
    with pytest.raises(ValueError, match=needle):
        dist_to_M(f, **coefs)
    with pytest.raises(ValueError, match=needle):
        profiles.dist_to_M_below(f, 0.1, **coefs)


def test_dist_to_mstar_member_is_zero():
    # tau = -0.3 is off the tau grid; the SLP finds it
    g, X, Y, inside = canonical_disk_nodes()
    v = GlobalProfile(0.8, 0.0, -0.3, 0.0, 2.0, 2.0)
    f = sample(g, lambda XX, YY: eval_many(v, XX, YY))
    val, best = dist_to_M(f, lambda_plus=2.0, lambda_minus=2.0)
    assert val <= 1e-12
    assert best.beta1 == pytest.approx(0.8, abs=1e-9)
    assert best.tau == pytest.approx(-0.3, abs=1e-9)


def test_dist_to_mstar_offset_member():
    # adding a constant displaces the field by exactly that sup distance
    g, X, Y, inside = canonical_disk_nodes()
    v = GlobalProfile(1.0, 0.0, 0.0, 0.0, 2.0, 2.0)
    f = sample(g, lambda XX, YY: eval_many(v, XX, YY) + 0.05)
    val, _ = dist_to_M(f, lambda_plus=2.0, lambda_minus=2.0)
    assert val == pytest.approx(0.05, abs=1e-12)


def test_dist_to_mstar_zero_field_artifact():
    # the class excludes the zero profile (coefficient floor c = 0.05), so
    # the zero field sits at c * max ramp = 0.05 * 0.5 = 0.025 from it
    g, X, Y, inside = canonical_disk_nodes()
    f = sample(g, lambda XX, YY: np.zeros_like(XX))
    val, _ = dist_to_M(f, lambda_plus=2.0, lambda_minus=2.0)
    assert val == pytest.approx(0.025, abs=1e-3)


def test_dist_to_mstar_beats_brute_force_scan():
    # independent oracle: dense brute-force scan over the same chart must not
    # find a profile meaningfully closer than the search result
    g, X, Y, inside = canonical_disk_nodes()
    target = GlobalProfile(0.6, 0.0, -0.2, 0.0, 2.0, 2.0)
    fvals = eval_many(target, X, Y) + 0.01 * Y  # not a member
    f = sample(g, lambda XX, YY: fvals)
    val, _ = dist_to_M(f, lambda_plus=2.0, lambda_minus=2.0)

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
    f = sample(g, lambda XX, YY: eval_many(v, XX, YY))
    val, best = dist_to_M(f, lambda_plus=2.0, lambda_minus=2.0)
    assert val <= 1e-12
    assert best.theta == pytest.approx(0.3, abs=1e-9)


# ---------------------------------------------------------------------------
# The descent search: a test-local oracle for dist_to_M
# ---------------------------------------------------------------------------
#
# The search as it was before the exact inner solve, without its screens
# or pruning: the full 360-angle loop of stage 1, then 32 x 32 coarse chart
# grids and coordinate descent with step halving, with a full pass over
# every disk node for each candidate.  The descent stalls at the kinks of
# the sup-norm objective, so it can overstate the distance.  The package's
# search must never return more than the oracle, up to 1e-12, and its
# profile must be admissible.

ORACLE_COARSE = 32
ORACLE_REFINE_TOL = 1e-6


class OracleObjective:
    """sup |ramp(params) - f| over unit-disk nodes, one full pass per value."""

    def __init__(self, X, Y, fvals, lp, lm):
        self.X = X
        self.Y = Y
        self.fvals = fvals
        self.lp = lp
        self.lm = lm
        self._theta = None
        self._x1 = None
        self._pos2 = None
        self._neg2 = {}

    def set_theta(self, theta):
        if self._theta != theta:
            self._theta = theta
            self._x1 = profiles._rotated_x1(theta, self.X, self.Y)
            self._pos2 = profiles._pos_part(self._x1, self.lp)
            self._neg2 = {}

    def neg_part(self, tau):
        neg = self._neg2.get(tau)
        if neg is None:
            neg = self._neg2[tau] = profiles._neg_part(self._x1, tau, self.lm)
        return neg

    def value(self, beta1, beta2, tau):
        cand = beta1 * (self._pos2 - self.neg_part(tau)) + beta2 * self._x1
        return float(np.max(np.abs(cand - self.fvals)))

    def chart_a_sups(self, taus, beta1s):
        """sup error per (tau, beta1) of chart A."""
        sups = np.empty((len(taus), len(beta1s)))
        for i, tau in enumerate(taus):
            base = self._pos2 - self.neg_part(tau)
            cand = beta1s[:, None] * base[None, :]
            sups[i] = np.max(np.abs(cand - self.fvals[None, :]), axis=1)
        return sups

    def chart_b_sups(self, beta1s, beta2s):
        """sup error per (beta2, beta1) of chart B, +inf where beta1 + beta2 < C."""
        base = self._pos2 - self.neg_part(0.0)
        sups = np.empty((len(beta2s), len(beta1s)))
        for i, b2 in enumerate(beta2s):
            cand = beta1s[:, None] * base[None, :] + b2 * self._x1[None, :]
            sups[i] = np.max(np.abs(cand - self.fvals[None, :]), axis=1)
            sups[i, beta1s + b2 < profiles._C] = math.inf
        return sups

    def chart_a_batch(self, taus, beta1s):
        sups = self.chart_a_sups(taus, beta1s)
        i, k = np.unravel_index(np.argmin(sups), sups.shape)
        return float(sups[i, k]), float(beta1s[k]), float(taus[i])

    def chart_b_batch(self, beta1s, beta2s):
        sups = self.chart_b_sups(beta1s, beta2s)
        i, k = np.unravel_index(np.argmin(sups), sups.shape)
        return float(sups[i, k]), float(beta1s[k]), float(beta2s[i])


def oracle_descend_chart_a(obj, beta1, tau, step_b, step_t):
    A, C, tol = profiles._A, profiles._C, ORACLE_REFINE_TOL
    best = obj.value(beta1, 0.0, tau)
    while step_b > tol or step_t > tol:
        moved = False
        for d in (+step_b, -step_b):
            nb = min(max(beta1 + d, C), A)
            v = obj.value(nb, 0.0, tau)
            if v < best:
                best, beta1, moved = v, nb, True
        for d in (+step_t, -step_t):
            nt = min(max(tau + d, -1.0), 0.0)
            v = obj.value(beta1, 0.0, nt)
            if v < best:
                best, tau, moved = v, nt, True
        if not moved:
            step_b *= 0.5
            step_t *= 0.5
    return best, beta1, 0.0, tau


def oracle_descend_chart_b(obj, beta1, beta2, step1, step2):
    A, B, C, tol = profiles._A, profiles._B, profiles._C, ORACLE_REFINE_TOL
    best = obj.value(beta1, beta2, 0.0)
    while step1 > tol or step2 > tol:
        moved = False
        for d in (+step1, -step1):
            nb = min(max(beta1 + d, 0.0), A)
            if nb + beta2 < C:
                continue
            v = obj.value(nb, beta2, 0.0)
            if v < best:
                best, beta1, moved = v, nb, True
        for d in (+step2, -step2):
            nb = min(max(beta2 + d, 0.0), B)
            if beta1 + nb < C:
                continue
            v = obj.value(beta1, nb, 0.0)
            if v < best:
                best, beta2, moved = v, nb, True
        if not moved:
            step1 *= 0.5
            step2 *= 0.5
    return best, beta1, beta2, 0.0


def oracle_search_fixed_theta(obj, theta):
    A, B, C, n = profiles._A, profiles._B, profiles._C, ORACLE_COARSE
    obj.set_theta(theta)
    va, b1a, ta = obj.chart_a_batch(np.linspace(-1.0, 0.0, n), np.linspace(C, A, n))
    step = max((A - C) / (n - 1), 1.0 / (n - 1))
    va, b1a, b2a, ta = oracle_descend_chart_a(obj, b1a, ta, step, step)
    vb, b1b, b2b = obj.chart_b_batch(np.linspace(0.0, A, n), np.linspace(0.0, B, n))
    stepb = max(A, B) / (n - 1)
    vb, b1b, b2b, tb = oracle_descend_chart_b(obj, b1b, b2b, stepb, stepb)
    if va <= vb:
        return va, b1a, b2a, ta
    return vb, b1b, b2b, tb


def oracle_search_theta_local(obj, theta, beta1, beta2, tau):
    obj.set_theta(theta)
    if beta2 == 0.0:
        b1 = min(max(beta1, profiles._C), profiles._A)
        return oracle_descend_chart_a(obj, b1, tau, 0.05, 0.05)
    return oracle_descend_chart_b(obj, beta1, beta2, 0.05, 0.05)


# stage 1's quick grids: chart A's taus and beta1s, chart B's beta1s and beta2s
QUICK_TAUS = np.linspace(-1.0, 0.0, 9)
QUICK_B1_A = np.linspace(profiles._C, profiles._A, 12)
QUICK_B1_B = np.linspace(0.0, profiles._A, 9)
QUICK_B2_B = np.linspace(0.0, profiles._B, 9)
LOOP_THETAS = -math.pi + 2.0 * math.pi * np.arange(profiles._THETA_GRID) / profiles._THETA_GRID


def loop_candidate_sups(X, Y, fvals, lp, lm):
    """sup error per (quick candidate, angle), one angle at a time.

    Candidates run over chart A by tau, then chart B by beta2, beta1
    fastest in both.
    """
    obj = OracleObjective(X, Y, fvals, lp, lm)
    table = []
    for th in LOOP_THETAS:
        obj.set_theta(float(th))
        table.append(np.concatenate([obj.chart_a_sups(QUICK_TAUS, QUICK_B1_A).ravel(),
                                     obj.chart_b_sups(QUICK_B1_B, QUICK_B2_B).ravel()]))
    return np.array(table).T


def loop_theta_scan(X, Y, fvals, lp, lm):
    """Brute-force stage 1 of dist_to_M: the quick search at every angle in turn."""
    obj = OracleObjective(X, Y, fvals, lp, lm)
    scan = np.empty(profiles._THETA_GRID)
    for k, th in enumerate(LOOP_THETAS):
        obj.set_theta(float(th))
        va, _, _ = obj.chart_a_batch(QUICK_TAUS, QUICK_B1_A)
        vb, _, _ = obj.chart_b_batch(QUICK_B1_B, QUICK_B2_B)
        scan[k] = min(va, vb)
    return scan


def stage1_args(f, lp, lm):
    """The stage-1 arguments dist_to_M passes for a field."""
    X, Y, fvals = profiles._disk_nodes(f)
    sub = slice(None, None, 4) if X.size > 2000 else slice(None)
    return X[sub], Y[sub], fvals[sub], lp, lm


def oracle_dist_to_M(f, lambda_plus=2.0, lambda_minus=2.0):
    """dist_to_M with every candidate evaluated in full."""
    X, Y, fvals = profiles._disk_nodes(f)
    scan = loop_theta_scan(*stage1_args(f, lambda_plus, lambda_minus))
    obj = OracleObjective(X, Y, fvals, lambda_plus, lambda_minus)
    best = None
    for k in np.argsort(scan, kind="stable")[:3]:
        th = -math.pi + 2.0 * math.pi * int(k) / profiles._THETA_GRID
        val, b1, b2, tau = oracle_search_fixed_theta(obj, th)
        if best is None or val < best[0]:
            best = (val, b1, b2, tau, th)
    val, b1, b2, tau, th = best
    step = 2.0 * math.pi / profiles._THETA_GRID
    while step > ORACLE_REFINE_TOL:
        moved = False
        for d in (+step, -step):
            v, nb1, nb2, ntau = oracle_search_theta_local(obj, th + d, b1, b2, tau)
            if v < val:
                val, b1, b2, tau, th = v, nb1, nb2, ntau, th + d
                moved = True
        if not moved:
            step *= 0.5
    return val, GlobalProfile(b1, b2, tau, th, lambda_plus, lambda_minus)


def ramp_fn(beta1=1.0, tau=0.0, theta=0.0, lp=2.0, lm=2.0, offset=0.0):
    v = GlobalProfile(beta1, 0.0, tau, theta, lp, lm)
    return lambda X, Y: eval_many(v, X, Y) + offset


def noise_fn(X, Y):
    return 0.1 * np.random.default_rng(5).standard_normal(X.shape)


# name: (grid n, field, lambda_plus, lambda_minus, near a ramp).  Near a ramp
# the bound must prune; far from every ramp it may visit all 360 angles.
SCAN_CASES = {
    "ramp": (65, ramp_fn(), 2.0, 2.0, True),
    "rotated_ramp": (65, ramp_fn(theta=0.7), 2.0, 2.0, True),
    "slab_ramp_symmetric_in_y": (65, ramp_fn(tau=-0.2), 2.0, 2.0, True),
    "offset_ramp": (65, ramp_fn(offset=0.05), 2.0, 2.0, True),
    "zero": (65, lambda X, Y: np.zeros_like(X), 2.0, 2.0, False),
    "quadratic": (65, lambda X, Y: X**2 + Y**2, 2.0, 2.0, False),
    "noise": (65, noise_fn, 2.0, 2.0, False),
    "ramp_33_no_subsample": (33, ramp_fn(theta=-1.2), 2.0, 2.0, True),
    "asymmetric_lambdas": (65, ramp_fn(theta=0.4, lp=0.2, lm=5.0), 0.2, 5.0, True),
}


def noisy_ramp_case(seed, n):
    """A SCAN_CASES entry: a seeded noisy ramp of random angle, slab offset and lambdas in [0.2, 5]."""
    rng = np.random.default_rng(seed)
    beta1, theta, tau, lp, lm, noise = (rng.uniform(0.5, 2.0), rng.uniform(-math.pi, math.pi), rng.uniform(-1.0, 0.0),
                                        rng.uniform(0.2, 5.0), rng.uniform(0.2, 5.0), 10.0 ** rng.uniform(-3.0, -1.5))
    ramp = ramp_fn(beta1=beta1, tau=tau, theta=theta, lp=lp, lm=lm)

    def fn(X, Y):
        return ramp(X, Y) + noise * np.random.default_rng(seed).standard_normal(X.shape)
    return n, fn, lp, lm, True


def cubic_fn(X, Y):
    # a seeded cubic, far from every ramp
    a, b, c, d = np.random.default_rng(11).standard_normal(4)
    return a * X**3 + b * X**2 * Y + c * X * Y**2 + d * Y**3


# seeded random fields, on which the bound prunes other angles than on the
# analytic cases
RANDOM_SCAN_CASES = {
    **{f"noisy_ramp_{n}_seed{seed}": noisy_ramp_case(seed, n) for n in (33, 65) for seed in (1, 2, 3)},
    "cubic": (65, cubic_fn, 1.3, 0.7, False),
}


@pytest.mark.parametrize("name", list(SCAN_CASES) + list(RANDOM_SCAN_CASES))
def test_pruned_theta_scan_matches_the_full_loop(name, monkeypatch):
    n, fn, lp, lm, near_ramp = {**SCAN_CASES, **RANDOM_SCAN_CASES}[name]
    f = sample(build_grid(-1.0, 1.0, -1.0, 1.0, n, n), fn)
    seen = {}
    pruned_scan = profiles._theta_scan

    def recording_scan(*args):
        seen["args"] = args
        seen["scan"] = pruned_scan(*args)
        return seen["scan"]

    monkeypatch.setattr(profiles, "_theta_scan", recording_scan)
    got = dist_to_M(f, lambda_plus=lp, lambda_minus=lm)
    full = loop_theta_scan(*seen["args"])
    scan = seen["scan"]

    # every visited angle carries the loop's value to the bit; every pruned
    # angle is strictly worse than the loop's third smallest value
    visited = np.isfinite(scan)
    assert np.array_equal(scan[visited], full[visited])
    assert np.all(full[~visited] > np.sort(full)[2])
    if near_ramp:
        assert visited.sum() < scan.size
    leaders = np.argsort(full, kind="stable")[:3]
    assert np.array_equal(np.argsort(scan, kind="stable")[:3], leaders)

    monkeypatch.setattr(profiles, "_theta_scan", lambda *args: full)
    want = dist_to_M(f, lambda_plus=lp, lambda_minus=lm)
    assert repr(got) == repr(want)


def test_theta_scan_tie_goes_to_the_lower_angle():
    # a slab ramp even in y gives the angles -1 and +1 degree (indices 179
    # and 181) the same smallest value; the lower index leads
    f = sample(build_grid(-1.0, 1.0, -1.0, 1.0, 65, 65), ramp_fn(tau=-0.2))
    X, Y, fvals = profiles._disk_nodes(f)
    scan = profiles._theta_scan(X[::4], Y[::4], fvals[::4], 2.0, 2.0)
    assert scan[179] == scan[181] == scan.min()
    assert list(np.argsort(scan, kind="stable")[:3]) == [179, 181, 180]


def scan_args(name):
    """The stage-1 arguments dist_to_M passes for a SCAN_CASES field."""
    n, fn, lp, lm, _ = SCAN_CASES[name]
    return stage1_args(sample(build_grid(-1.0, 1.0, -1.0, 1.0, n, n), fn), lp, lm)


@pytest.mark.parametrize("name", ["noise", "asymmetric_lambdas"])
def test_bound_table_matches_the_loop_per_candidate(name):
    # the table's entries are the loop's sup errors over the rim nodes, to
    # the bit, so a table entry never exceeds the candidate's full value
    X, Y, fvals, lp, lm = scan_args(name)
    rim = profiles._rim_nodes(X, Y)
    args = (X[rim], Y[rim], fvals[rim], lp, lm)
    assert np.array_equal(profiles._bound_table(*args), loop_candidate_sups(*args))


@pytest.mark.parametrize("name", ["ramp_33_no_subsample", "ramp"])
def test_rim_nodes_lead_along_their_directions(name):
    # the bound table is exact only over nodes of the scan's own arrays:
    # distinct indices into them, each the farthest out along a direction
    X, Y, _, _, _ = scan_args(name)
    rim = profiles._rim_nodes(X, Y)
    assert rim.dtype.kind == "i"
    assert np.array_equal(rim, np.unique(rim))
    assert 0 <= rim.min() and rim.max() < X.size
    phi = 2.0 * np.pi * np.arange(profiles._RIM_DIRECTIONS) / profiles._RIM_DIRECTIONS
    leaders = {int(np.argmax(X * c + Y * s)) for c, s in zip(np.cos(phi), np.sin(phi))}
    assert set(rim.tolist()) == leaders
    # they lie on the disk's rim
    assert np.all(np.hypot(X[rim], Y[rim]) > 0.9)


@pytest.mark.parametrize("name", [name for name, case in SCAN_CASES.items() if case[-1]])
def test_scan_evaluates_few_candidates_near_a_ramp(name, monkeypatch):
    # near a ramp the table leaves fewer than 1 in 10 of the visited
    # angles' candidates to be evaluated on all nodes
    evaluated = []
    quick_sups = profiles._quick_sups

    def counting(x1, bases, fvals, cands):
        evaluated.append(len(cands))
        return quick_sups(x1, bases, fvals, cands)

    monkeypatch.setattr(profiles, "_quick_sups", counting)
    scan = profiles._theta_scan(*scan_args(name))
    pairs = np.isfinite(scan).sum() * profiles._QUICK_OK.sum()
    assert 0 < sum(evaluated) < 0.1 * pairs


SWEEP_INI = """
[domain]
x_min = -1.0
x_max = 1.0
y_min = -1.0
y_max = 1.0
n = 129

[problem]
lambda_plus = 2.0
lambda_minus = 2.0

[boundary]
kind = profile
beta1 = 1.0

[sweep]
family = constant
amplitudes = 0.1
classify_budget = 2

[output]
dir = {out}
"""


@pytest.fixture(scope="module")
def sweep_blowups(tmp_path_factory):
    """The ramp-distance inputs of a constant-shift sweep on n = 129 profile data.

    The 8h blow-ups of the reference field that classify its points, and
    the window/2 blow-ups of the field solved with a shift of 0.1 that fit
    its graphs, each as (field, lambda_plus, lambda_minus), recorded where
    the sweep builds them: its label-only classification asks
    ``dist_to_M_below``, not ``dist_to_M``.  They carry the solver's
    rounding, which no analytic case of SCAN_CASES has.
    """
    tmp = tmp_path_factory.mktemp("sweep")
    ini = tmp / "sweep.ini"
    ini.write_text(SWEEP_INI.format(out=tmp / "out"))
    config = load_config(str(ini))
    u_ref, _ = solve(config.spec)
    spec = config.spec
    seen, radii = [], []

    def recording(u, p, r, grid):
        radii.append(r)
        f = blowup_rescale(u, p, r, grid)
        seen.append((f, spec.lambda_plus, spec.lambda_minus))
        return f

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(freeboundary, "blowup_rescale", recording)
        report = stability_sweep(config, FieldAnalysis(u_ref, spec))
    assert report.reference_labels == ("branch", "branch")
    # two classifications, then one graph fit per branch point
    h, window = spec.grid.h, config.sweep["window"]
    assert radii == [8 * h, 8 * h, 0.5 * window, 0.5 * window]
    return seen


def test_theta_scan_matches_the_full_loop_on_sweep_blowups(sweep_blowups):
    for f, lp, lm in sweep_blowups:
        args = stage1_args(f, lp, lm)
        scan = profiles._theta_scan(*args)
        full = loop_theta_scan(*args)
        visited = np.isfinite(scan)
        assert np.array_equal(scan[visited], full[visited])
        assert np.all(full[~visited] > np.sort(full)[2])
        assert np.array_equal(np.argsort(scan, kind="stable")[:3], np.argsort(full, kind="stable")[:3])


def test_sweep_blowups_visit_few_angles(sweep_blowups):
    # over the four blow-ups the rim nodes' table leaves 42 angles to
    # evaluate exactly; a table over every 64th node leaves 59
    visited = [np.isfinite(profiles._theta_scan(*stage1_args(f, lp, lm))).sum() for f, lp, lm in sweep_blowups]
    assert sum(visited) < 50, visited


def assert_below_is_dist_to_M_under_the_cut(f, lp, lm):
    """dist_to_M_below(f, cut) == (dist_to_M(f)[0] < cut) at cuts on, beside and away from the distance."""
    d = dist_to_M(f, lambda_plus=lp, lambda_minus=lm)[0]
    cuts = (d, math.nextafter(d, -math.inf), math.nextafter(d, math.inf),
            d * (1.0 - 1e-3), d * (1.0 + 1e-3), 0.1, 2.0 * d)
    for cut in cuts:
        assert profiles.dist_to_M_below(f, cut, lambda_plus=lp, lambda_minus=lm) == (d < cut), (cut, d)


@pytest.mark.parametrize("name", list(SCAN_CASES))
def test_dist_to_M_below_is_dist_to_M_under_the_cut(name):
    # the early exit stops the search once a fit lies below the cut by more
    # than its stopping gap; it must never change the answer
    n, fn, lp, lm, _ = SCAN_CASES[name]
    assert_below_is_dist_to_M_under_the_cut(sample(build_grid(-1.0, 1.0, -1.0, 1.0, n, n), fn), lp, lm)


def test_dist_to_M_below_is_dist_to_M_under_the_cut_on_sweep_blowups(sweep_blowups):
    for f, lp, lm in sweep_blowups:
        assert_below_is_dist_to_M_under_the_cut(f, lp, lm)


# ---------------------------------------------------------------------------
# The exact search against the descent oracle and its optimality certificate
# ---------------------------------------------------------------------------


# three more fields whose best fit sits on a face of the parameter box
# (beta1 = A, beta2 = B, beta1 = 0)
BOX_FACE_CASES = {
    **SCAN_CASES,
    "steeper_than_beta1_box": (33, ramp_fn(beta1=6.0), 2.0, 2.0, True),
    "steeper_than_beta2_box": (33, lambda X, Y: 6.0 * X, 2.0, 2.0, True),
    "linear": (33, lambda X, Y: X, 2.0, 2.0, True),
}


def node_errors(f, prof):
    """Signed errors ramp - f of a profile on the disk nodes, and their gradients in (beta1, beta2)."""
    X, Y, fvals = profiles._disk_nodes(f)
    err = eval_many(prof, X, Y) - fvals
    unit = GlobalProfile(1.0, 0.0, prof.tau, prof.theta, prof.lambda_plus, prof.lambda_minus)
    x1 = math.cos(prof.theta) * X - math.sin(prof.theta) * Y
    return err, np.column_stack([eval_many(unit, X, Y), x1]), fvals


def assert_admissible(f, got):
    # the profile lies in the class and the box, and the distance is its
    # recomputed sup error
    dist, prof = got
    GlobalProfile(prof.beta1, prof.beta2, prof.tau, prof.theta, prof.lambda_plus, prof.lambda_minus)
    assert prof.beta1 + prof.beta2 >= profiles._C
    assert prof.beta1 <= profiles._A and prof.beta2 <= profiles._B
    err, _, _ = node_errors(f, prof)
    assert abs(float(np.max(np.abs(err))) - dist) <= 1e-14


def assert_optimal_coefficients(f, got):
    """Certificate that (beta1, beta2) is optimal at the returned theta and tau.

    The nodes whose error is within 1e-12 relative of the max (and of 8
    ulps of the field, the rounding of an error) are the active ones.  0
    must lie in the convex hull of their signed gradients plus the cone of
    the outward normals of the active box faces; at tau < 0, beta2 = 0 is an
    equality, so both of its normals count.  By Caratheodory a certificate
    needs at most three of these vectors, so every subset of up to three is
    tried for nonnegative weights.
    """
    dist, prof = got
    err, grad, fvals = node_errors(f, prof)
    top = float(np.max(np.abs(err)))
    near = np.abs(err) >= top - (1e-12 * top + 8 * np.finfo(float).eps * float(np.max(np.abs(fvals))))
    grads = np.unique(np.sign(err[near])[:, None] * grad[near], axis=0)
    b1, b2, A, B, C = prof.beta1, prof.beta2, profiles._A, profiles._B, profiles._C
    faces = {(1.0, 0.0): b1 == A, (-1.0, 0.0): b1 == 0.0 or (prof.tau != 0.0 and b1 == C),
             (0.0, -1.0): b2 == 0.0, (0.0, 1.0): b2 == B or prof.tau != 0.0,
             (-1.0, -1.0): b1 + b2 <= C * (1.0 + 1e-15)}
    cols = [(g[0], g[1], 1.0) for g in grads] + [(n1, n2, 0.0) for (n1, n2), on in faces.items() if on]
    target = np.array([0.0, 0.0, 1.0])
    for size in (1, 2, 3):
        for sub in itertools.combinations(range(len(cols)), size):
            if sub[0] >= len(grads):
                continue
            M = np.array([cols[i] for i in sub]).T
            w = np.linalg.lstsq(M, target, rcond=None)[0]
            if np.linalg.norm(M @ w - target) <= 1e-9 and w.min() >= -1e-9:
                return
    raise AssertionError(f"no optimality certificate for {prof} at distance {dist}")


def step_decrease(f, prof, chart, radius=1e-3):
    """(value, predicted decrease, rounding floor) of the SLP step LP at a profile.

    The errors ramp - f are linearised at the profile in one chart's
    coordinates, chart A (beta1, theta, tau) or chart B (beta1, beta2,
    theta).  The step LP minimises max_k |err_k + grad_k . d| over |d_i| <=
    radius, clipped to the chart's box and, in chart B, to beta1 + beta2 >= C.
    """
    X, Y, fvals = profiles._disk_nodes(f)
    lp, lm, A, B, C = prof.lambda_plus, prof.lambda_minus, profiles._A, profiles._B, profiles._C
    x1 = math.cos(prof.theta) * X - math.sin(prof.theta) * Y
    turn = -math.sin(prof.theta) * X - math.cos(prof.theta) * Y    # d x1 / d theta
    pos, neg = np.maximum(x1, 0.0), np.minimum(x1 - prof.tau, 0.0)
    base = 0.25 * lp * pos**2 - 0.25 * lm * neg**2
    slope = prof.beta1 * (0.5 * lp * pos - 0.5 * lm * neg) + prof.beta2   # d ramp / d x1
    err = eval_many(prof, X, Y) - fvals
    if chart == "A":
        grads = (base, slope * turn, 0.5 * lm * prof.beta1 * neg)
        point, lo, hi = (prof.beta1, prof.theta, prof.tau), (C, -math.inf, -1.0), (A, math.inf, 0.0)
    else:
        grads = (base, x1, slope * turn)
        point, lo, hi = (prof.beta1, prof.beta2, prof.theta), (0.0, 0.0, -math.inf), (A, B, math.inf)
    faces = []
    for i, (p, a, b) in enumerate(zip(point, lo, hi)):
        unit = np.eye(3)[i]
        faces += [(*-unit, min(radius, p - a)), (*unit, min(radius, b - p))]
    if chart == "B":
        faces.append((-1.0, -1.0, 0.0, point[0] + point[1] - C))
    faces = np.array(faces)
    floor = 8 * np.finfo(float).eps * float(np.max(np.abs(fvals)))
    _, step, _ = profiles._exchange(grads, -err, faces, floor)
    step = np.array(step)
    assert np.all(faces[:, :3] @ step <= faces[:, 3] + 1e-15)
    model = float(np.max(np.abs(err + sum(d * g for d, g in zip(step, grads)))))
    value = float(np.max(np.abs(err)))
    return value, value - model, floor


def assert_stationary(f, got):
    """No step of up to 1e-3 in the returned profile's chart is predicted to help.

    tau < 0 is chart A, beta2 > 0 chart B; a profile with both at 0 lies
    in both charts, and both step LPs are solved.
    """
    _, prof = got
    charts = ("A",) * (prof.beta2 == 0.0) + ("B",) * (prof.tau == 0.0)
    for chart in charts:
        value, decrease, floor = step_decrease(f, prof, chart)
        assert decrease <= 1e-12 * value + floor, (chart, prof, value, decrease)


@pytest.mark.parametrize("name", list(BOX_FACE_CASES))
def test_dist_to_M_never_exceeds_the_descent_oracle(name):
    n, fn, lp, lm, _ = BOX_FACE_CASES[name]
    f = sample(build_grid(-1.0, 1.0, -1.0, 1.0, n, n), fn)
    got = dist_to_M(f, lambda_plus=lp, lambda_minus=lm)
    assert got[0] <= oracle_dist_to_M(f, lp, lm)[0] + 1e-12
    assert_admissible(f, got)


@settings(max_examples=8, deadline=None, derandomize=True)
@given(
    beta1=st.floats(min_value=0.1, max_value=3.0),
    tau=st.floats(min_value=-1.0, max_value=0.0),
    theta=st.floats(min_value=-math.pi, max_value=math.pi),
    noise=st.sampled_from([0.0, 1e-3, 3e-2]),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_dist_to_M_fuzz_never_exceeds_the_descent_oracle(beta1, tau, theta, noise, seed):
    ramp = ramp_fn(beta1=beta1, tau=tau, theta=theta)
    rng = np.random.default_rng(seed)
    f = sample(build_grid(-1.0, 1.0, -1.0, 1.0, 33, 33),
               lambda X, Y: ramp(X, Y) + noise * rng.standard_normal(X.shape))
    got = dist_to_M(f, lambda_plus=2.0, lambda_minus=2.0)
    assert got[0] <= oracle_dist_to_M(f)[0] + 1e-12
    assert_admissible(f, got)
    assert_optimal_coefficients(f, got)
    assert_stationary(f, got)


@pytest.mark.parametrize("name", list(BOX_FACE_CASES))
def test_returned_coefficients_carry_an_optimality_certificate(name):
    n, fn, lp, lm, _ = BOX_FACE_CASES[name]
    f = sample(build_grid(-1.0, 1.0, -1.0, 1.0, n, n), fn)
    assert_optimal_coefficients(f, dist_to_M(f, lambda_plus=lp, lambda_minus=lm))


@pytest.mark.parametrize("name", [name for name, case in BOX_FACE_CASES.items() if case[-1]])
def test_returned_profile_is_stationary_near_a_ramp(name):
    n, fn, lp, lm, _ = BOX_FACE_CASES[name]
    f = sample(build_grid(-1.0, 1.0, -1.0, 1.0, n, n), fn)
    assert_stationary(f, dist_to_M(f, lambda_plus=lp, lambda_minus=lm))


def test_returned_profile_is_stationary_on_sweep_blowups(sweep_blowups):
    # the graph-fit blow-ups of the shifted field have their optimum off
    # every grid of angle and tau
    for f, lp, lm in sweep_blowups:
        assert_stationary(f, dist_to_M(f, lambda_plus=lp, lambda_minus=lm))


def test_sweep_blowups_take_few_fits_and_steps(sweep_blowups, monkeypatch):
    # the work of a call is counted, not timed: every exact fit and every
    # step LP (an exchange over three coefficients)
    work = []

    def counting(call, counts):
        def wrapped(*args, **kwargs):
            if counts(*args):
                work[-1] += 1
            return call(*args, **kwargs)
        return wrapped

    for method in ("fit_a", "fit_b"):
        monkeypatch.setattr(profiles._RampObjective, method,
                            counting(getattr(profiles._RampObjective, method), lambda *args: True))
    monkeypatch.setattr(profiles, "_exchange", counting(profiles._exchange, lambda cols, *args: len(cols) == 3))
    for f, lp, lm in sweep_blowups:
        work.append(0)
        dist_to_M(f, lambda_plus=lp, lambda_minus=lm)
    assert 0 < max(work) <= 100, work


@pytest.mark.parametrize("n", [129, 257])
@pytest.mark.parametrize("y0", [-0.2, 0.1])
def test_dist_to_M_is_exact_on_profile_blowups(profile_solutions, n, y0):
    # coordinate descent stopped at (beta1, beta2) = (1.3032, 0) with
    # 6.351e-4: no move along one coordinate helps there.  The optimum at
    # theta = 0 is 5.670e-4 at (1.2974, 0.00227).
    _, spec, u, _ = profile_solutions[n]
    v0 = blowup_rescale(u, (0.0, y0), 16 * spec.grid.h, build_grid(-1.0, 1.0, -1.0, 1.0, 65, 65))
    got = dist_to_M(v0, lambda_plus=spec.lambda_plus, lambda_minus=spec.lambda_minus)
    assert got[0] <= 5.671e-4
    assert_admissible(v0, got)
    assert_optimal_coefficients(v0, got)


@pytest.mark.parametrize("name", list(BOX_FACE_CASES))
def test_every_evaluated_candidate_is_admissible(name, monkeypatch):
    # the returned distance bounds the true infimum from above only if every
    # fit the search compares is an admissible ramp and carries its sup error
    n, fn, lp, lm, _ = BOX_FACE_CASES[name]
    seen = []

    def recording(fit):
        def wrapped(self, *args, **kwargs):
            got = fit(self, *args, **kwargs)
            seen.append((self, got))
            return got
        return wrapped

    for method in ("fit_a", "fit_b"):
        monkeypatch.setattr(profiles._RampObjective, method, recording(getattr(profiles._RampObjective, method)))
    dist_to_M(sample(build_grid(-1.0, 1.0, -1.0, 1.0, n, n), fn), lambda_plus=lp, lambda_minus=lm)
    assert seen
    for obj, fit in seen:
        prof = GlobalProfile(fit.beta1, fit.beta2, fit.tau, fit.theta, lp, lm)   # raises outside the class
        assert fit.beta1 + fit.beta2 >= profiles._C
        assert fit.beta1 <= profiles._A and fit.beta2 <= profiles._B
        ramp = eval_many(prof, obj.X, obj.Y)
        assert float(np.max(np.abs(ramp - obj.fvals))) == pytest.approx(fit.value, rel=0.0, abs=1e-14)


def test_a_singular_reference_raises():
    # no node's error depends on the coefficients: no reference solves, and
    # the error is typed rather than skipped; a step LP (three coefficients,
    # four-element references) given a singular warm reference too
    x = np.linspace(-1.0, 1.0, 9)
    f = np.cos(3.0 * x)
    zero = np.zeros_like(x)
    with pytest.raises(profiles.RampFitError):
        profiles._exchange((zero, zero), f, profiles._FACES, 0.0)
    with pytest.raises(profiles.RampFitError):
        profiles._line_fit(zero, f, 0.0)
    step_faces = np.column_stack([profiles._STEP_NORMALS[:6], np.full(6, 1e-3)])
    singular = ((0, 1.0), (1, -1.0), (2, 1.0), (len(x) + 5, 1.0))
    with pytest.raises(profiles.RampFitError):
        profiles._exchange((zero, zero, zero), f, step_faces, 0.0, singular)


def test_a_start_on_nodes_without_gradient_falls_back_to_a_vertex():
    # the two nodes of largest error have gradients of 1e-13 in beta1, so
    # the one-coefficient start is ill-conditioned with either face of
    # beta2; the vertex start (beta1, beta2) = (0, 0) solves.  The optimum
    # is on the face beta1 + beta2 = C, at beta2 = 0: the first node's
    # error 1 - C 1e-13 and the second's 1 + C 1e-13
    grid = np.linspace(-1.0, 1.0, 7)
    b = np.concatenate([[1e-13, -1e-13], grid * np.abs(grid)])
    x = np.concatenate([[1e-6, -1e-6], grid])
    f = np.concatenate([[1.0, 1.0], np.zeros(7)])
    value, (beta1, beta2), _ = profiles._exchange((b, x), f, profiles._FACES, 0.0)
    assert (beta1, beta2) == (profiles._C, 0.0)
    assert value == pytest.approx(1.0 + profiles._C * 1e-13, rel=0.0, abs=1e-16)


def test_a_degenerate_step_ends_the_polish(monkeypatch):
    # on the zero field the step LP at the returned profile cycles: its
    # reference comes back at no decrease.  In the polish such a step ends
    # the SLP at its last exact fit; every other exchange failure raises
    f = sample(build_grid(-1.0, 1.0, -1.0, 1.0, 65, 65), lambda X, Y: np.zeros_like(X))
    _, prof = dist_to_M(f, lambda_plus=2.0, lambda_minus=2.0)
    with pytest.raises(profiles._Degenerate):
        step_decrease(f, prof, "A")
    X, Y, fvals = profiles._disk_nodes(f)
    obj = profiles._RampObjective(X, Y, fvals, 2.0, 2.0)
    start = obj.fit_a(0.3, -0.5)
    exchange = profiles._exchange

    def failing(error):
        def wrapped(cols, *args, **kwargs):
            if len(cols) == 3:
                raise error("step LP")
            return exchange(cols, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(profiles, "_exchange", failing(profiles._Degenerate))
    assert profiles._polish(obj, 0, start) is start
    monkeypatch.setattr(profiles, "_exchange", failing(profiles.RampFitError))
    with pytest.raises(profiles.RampFitError):
        profiles._polish(obj, 0, start)


def test_a_singular_warm_reference_gives_way_to_the_cold_start():
    # at theta = 0 the rotated coordinate repeats down each grid column, and
    # the nodes of largest and smallest x1 and of largest |f| have collinear
    # gradients (b, x1): that reference has no 3 x 3 system
    f = sample(build_grid(-1.0, 1.0, -1.0, 1.0, 33, 33), lambda X, Y: X * np.abs(X) + 0.1 * Y * Y)
    X, Y, fvals = profiles._disk_nodes(f)
    obj = profiles._RampObjective(X, Y, fvals, 2.0, 2.0)
    obj.set_theta(0.0)
    b, x1 = obj.base(0.0), obj.x1
    naive = tuple((int(k), 1.0) for k in (np.argmax(x1), np.argmin(x1), np.argmax(np.abs(fvals))))
    assert np.linalg.matrix_rank(np.array([b[[k for k, _ in naive]], x1[[k for k, _ in naive]]])) == 1
    cold = profiles._exchange((b, x1), fvals, profiles._FACES, obj.floor)
    assert profiles._exchange((b, x1), fvals, profiles._FACES, obj.floor, naive) == cold
