"""Closed-form global profiles and sup-norm distance to the profile classes.

Two families are implemented:

* ``GlobalProfile``: rotations of the one-dimensional two-phase ramp

      v(x) = beta1 * ((lp/4) max(x1,0)^2 - (lm/4) min(x1 - tau, 0)^2) + beta2 * x1

  evaluated in coordinates rotated by ``theta`` (the profile's own frame is
  reached by rotating the input point counterclockwise by theta and reading
  off the first coordinate).

* ``OnePhasePolynomial``: sign-definite homogeneous quadratics that solve the
  equation in a single phase.

``dist_to_M`` measures sup-norm distance on the unit disk between a
sampled field and the admissible parameter box of these ramps; it drives
blow-up classification.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .grid import BoundaryMap, Grid2D, ScalarField


@dataclass(frozen=True)
class GlobalProfile:
    """One-dimensional ramp profile composed with a rotation.

    Structural constraints: beta1, beta2 >= 0 with beta1 + beta2 > 0,
    tau in [-1, 0], and a nonzero linear part forces tau = 0.  The box
    bounds used by ``dist_to_M`` are not part of the type; they
    parameterize the search, not the profile.
    """

    beta1: float
    beta2: float
    tau: float
    theta: float
    lambda_plus: float
    lambda_minus: float

    def __post_init__(self) -> None:
        if self.lambda_plus <= 0.0 or self.lambda_minus <= 0.0:
            raise ValueError("lambda_plus and lambda_minus must be positive")
        if self.beta1 < 0.0 or self.beta2 < 0.0:
            raise ValueError("beta1 and beta2 must be nonnegative")
        if self.beta1 + self.beta2 <= 0.0:
            raise ValueError("beta1 + beta2 must be positive")
        if not (-1.0 <= self.tau <= 0.0):
            raise ValueError(f"tau must lie in [-1, 0], got {self.tau}")
        if self.beta2 != 0.0 and self.tau != 0.0:
            raise ValueError("a nonzero linear part requires tau = 0")


_DEFINITE_TOL = 1e-12


@dataclass(frozen=True)
class OnePhasePolynomial:
    """Sign-definite homogeneous quadratic cxx*x1^2 + cxy*x1*x2 + cyy*x2^2.

    ``sign`` is +1 for a nonnegative polynomial (positive phase) and -1 for
    a nonpositive one.  The induced forcing constant is
    ``lam = 4 * |cxx + cyy|``, so the polynomial solves the equation in its
    single phase.
    """

    cxx: float
    cxy: float
    cyy: float
    sign: int

    def __post_init__(self) -> None:
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        s = self.sign
        if s * self.cxx < -_DEFINITE_TOL or s * self.cyy < -_DEFINITE_TOL:
            raise ValueError("diagonal coefficients must match the declared sign")
        if self.cxy * self.cxy > 4.0 * self.cxx * self.cyy + _DEFINITE_TOL:
            raise ValueError("polynomial is not sign-definite (discriminant check)")
        if self.cxx == 0.0 and self.cyy == 0.0:
            raise ValueError("degenerate polynomial: cxx and cyy both zero")

    @property
    def lam(self) -> float:
        """Forcing constant lambda with laplacian = sign * lam / 2."""
        return 4.0 * abs(self.cxx + self.cyy)


def _rotated_x1(theta: float, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    # first coordinate of the point rotated counterclockwise by theta
    return math.cos(theta) * X - math.sin(theta) * Y


def _pos_part(x1: np.ndarray, lp: float) -> np.ndarray:
    # (lp/4) max(x1, 0)^2
    p = np.maximum(x1, 0.0)
    return 0.25 * lp * p * p


def _neg_part(x1: np.ndarray, tau: float, lm: float) -> np.ndarray:
    # (lm/4) min(x1 - tau, 0)^2
    n = np.minimum(x1 - tau, 0.0)
    return 0.25 * lm * n * n


def _ramp(x1: np.ndarray, beta1: float, beta2: float, tau: float,
          lp: float, lm: float) -> np.ndarray:
    return beta1 * (_pos_part(x1, lp) - _neg_part(x1, tau, lm)) + beta2 * x1


def eval_profile_many(v: GlobalProfile, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    x1 = _rotated_x1(v.theta, np.asarray(X, dtype=float), np.asarray(Y, dtype=float))
    return _ramp(x1, v.beta1, v.beta2, v.tau, v.lambda_plus, v.lambda_minus)


def eval_polynomial_many(q: OnePhasePolynomial, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    return q.cxx * X * X + q.cxy * X * Y + q.cyy * Y * Y


def eval_many(obj, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Evaluate either profile family on coordinate arrays."""
    if isinstance(obj, GlobalProfile):
        return eval_profile_many(obj, X, Y)
    if isinstance(obj, OnePhasePolynomial):
        return eval_polynomial_many(obj, X, Y)
    raise TypeError(f"cannot evaluate object of type {type(obj).__name__}")


def profile_boundary_trace(obj, grid: Grid2D) -> BoundaryMap:
    """Boundary value map holding the trace of a profile or polynomial."""
    return BoundaryMap.from_callable(grid, lambda X, Y: eval_many(obj, X, Y))


# ---------------------------------------------------------------------------
# Distance to the ramp classes
# ---------------------------------------------------------------------------
#
# Stage 1 of ``dist_to_M`` gives each angle of a uniform grid the value
#
#   scan(theta) = min over the quick chart grids of max over nodes |ramp - f|
#
# and hands the three smallest on to stage 2.  The scan is pruned, but
# exactly.  A lower bound of scan(theta) comes first, for all angles in one
# array pass: the same quantity over every _ORDER_STRIDE-th node only.  A
# node's error is computed with the same floating-point operations wherever
# it is computed, so a max over fewer nodes never exceeds the full one.
# Angles are then taken in order of increasing bound, _SCAN_BATCH at a
# time, until the next bound is strictly above the third smallest exact
# value found so far.  A batch is filtered by the finer bound over every
# _BOUND_STRIDE-th node, and only the angles whose finer bound is not above
# that third value get an exact value.  Every angle skipped either way has
# scan >= bound > the final third value, so it can be neither a leader nor
# tied with one, and it keeps +inf.  Leaders are the three smallest values,
# ties going to the lower angle index.  The rotation is taken per angle
# with math.cos and math.sin as in ``_rotated_x1``, so an angle's value
# does not depend on its batch.
#
# Stages 2 and 3 solve for the linear coefficients exactly.  At a fixed
# angle the ramp is linear in (beta1, beta2), and in beta1 alone at a fixed
# tau, so the sup error over the nodes is a linear Chebyshev problem: a
# linear program in the coefficients and the level h, which the exchange
# algorithm solves exactly (Stiefel 1959; Cheney, Introduction to
# Approximation Theory, 1966, ch. 2).  Chart A's tau and both charts'
# theta keep an outer search: the scan leaders and a tau grid, then step
# halving.
#
# An exchange keeps a reference of one element more than there are
# coefficients.  A node element (k, s) is levelled at s (ramp_k - f_k) = h;
# chart B's reference may also hold faces of its box, n . c = d.  The
# reference's weights, which sum to 1 over its nodes, cancel the nodes'
# signed gradients s a_k together with the face normals; while they are
# >= 0, weak duality makes h a lower bound of the optimum.  Each pass lets
# in the node of largest error (or, in chart B, else the face most
# broken), and the element that leaves keeps the weights >= 0 and h
# non-decreasing: in one dimension it is the line of the same slope sign,
# in two the ratio test of the dual simplex method picks it.  An exchange
# stops once no error exceeds h by more than the gap and 8 ulps of the
# field, and every face holds to rounding; or when the element that would
# enter is in the reference already (its error is h up to rounding), or
# the largest error has no gradient, so that it bounds every fit from
# below.  So its result is exact, and the final reference certifies it.
# A singular reference, a cycle (only pivots that leave h where it was
# can close one) and _MAX_EXCHANGES passes raise RampFitError; none is
# skipped.
#
# In one dimension (``_line_fit``) node k has the error lines
# +-(t g_k - e_k); the reference keeps the rising line of one node and
# the falling line of another, and a cold start takes both lines of the
# node of largest |g|.  In two (``_plane_fit``) an element is a node
# (k, s) or a face len(f) + i of _FACES.  Its cold start is the optimum at
# beta2 = 0, held there by whichever face of beta2 has a weight >= 0.  A
# fit may be warm started from a nearby fit's reference, which changes
# its passes, not its result; a warm reference that is ill-conditioned or
# has a negative weight gives way to the cold start.  The solution meets
# the box to rounding: it is clamped into the box, beta1 raised by ulps
# until beta1 + beta2 >= C, and its error recomputed if that moved it.
#
# Stage 2 fits both charts at each leader: chart B once, chart A at each
# of _TAU_GRID taus, each warm started from the one before, then by step
# halving on tau.  Stage 3 polishes the best fit of each chart, over
# (theta, tau) in chart A and over theta in chart B; chart A wins ties.
# Step halving is a pattern search: one step along each coordinate, and
# for two along both diagonals, clamped to the bounds; every strict
# improvement is kept, and all steps halve when none helps, down to
# _REFINE_TOL.  Each move is warm started from the last fit in its own
# direction, the nearest reference while the best point stays.
#
# Search constants: the box bounds A, B, C of the charts below; the number
# of angles of the theta scan and of chart A's starting taus; the step at
# which step halving stops; the scan's angles and their rotations; the
# node strides of the fine bound and of the angle order; the angles per
# batch; the relative gap at which an exchange stops; the rounding of a
# coefficient on a face, or of a zero gradient; the inverse of the largest
# condition number of a usable reference, and the smallest usable pivot
# relative to the largest; the most passes of an exchange.

_A = 4.0
_B = 4.0
_C = 0.05  # excludes the zero profile from the class
_THETA_GRID = 360
_TAU_GRID = 32
_REFINE_TOL = 1e-7
_THETAS = -math.pi + 2.0 * math.pi * np.arange(_THETA_GRID) / _THETA_GRID
_COS = np.array([math.cos(t) for t in _THETAS.tolist()])
_SIN = np.array([math.sin(t) for t in _THETAS.tolist()])
_TAUS = np.linspace(-1.0, 0.0, _TAU_GRID).tolist()
_BOUND_STRIDE = 16
_ORDER_STRIDE = 64
_SCAN_BATCH = 4
_GAP = 1e-13
_EPS = float(np.finfo(float).eps)
_ROUND = 8.0 * _EPS * max(_A, _B)
_COLLINEAR = 1e-10
_MAX_EXCHANGES = 64


class RampFitError(ValueError):
    """An exchange met a singular reference, cycled or did not converge."""


# The admissible set splits into two charts once "beta2 != 0 forces tau = 0"
# is taken literally.  A chart has beta1 and one more parameter s:
#   chart A: beta2 = 0, s = tau in [-1, 0], beta1 in [C, A]
#   chart B: tau = 0, s = beta2 in [0, B], beta1 in [0, A], beta1 + beta2 >= C
# A row of _CHARTS holds the map (beta1, s) -> (beta1, beta2, tau), the box
# of (beta1, s) and the stage-1 grid points per axis.  Chart B's box has the
# faces n . (beta1, beta2) <= d of _FACES.  Stage 1 skips beta1 + beta2 < C,
# and stages 2 and 3 return points of the box only, so the returned distance
# is the sup error of an admissible ramp: an upper bound for the infimum.
class _Chart(NamedTuple):
    params: Callable  # (beta1, s) -> (beta1, beta2, tau)
    box: tuple        # ((beta1 lo, hi), (s lo, hi))
    quick: tuple      # stage-1 grid points per axis (beta1, s)


_CHARTS = (
    _Chart(lambda b1, s: (b1, 0.0, s), ((_C, _A), (-1.0, 0.0)), (12, 9)),
    _Chart(lambda b1, s: (b1, s, 0.0), ((0.0, _A), (0.0, _B)), (9, 9)),
)
_FACES = np.array([(-1.0, 0.0, 0.0), (1.0, 0.0, _A), (0.0, -1.0, 0.0), (0.0, 1.0, _B), (-1.0, -1.0, -_C)])


def _chart_grid(chart: _Chart, n_beta1: int, n_s: int) -> tuple[np.ndarray, np.ndarray]:
    (lo1, hi1), (lo2, hi2) = chart.box
    return np.linspace(lo1, hi1, n_beta1), np.linspace(lo2, hi2, n_s)


def _chart_sups(x1, pos2, fvals, lm, chart: _Chart, beta1s, ss) -> np.ndarray:
    """max |ramp - f| over the nodes (last axis) for each (s, beta1) of a chart grid.

    The result has x1's leading axes, then (s, beta1), with +inf where
    beta1 + beta2 < C.  Looping over s keeps each candidate block in cache.
    """
    sups = np.empty(x1.shape[:-1] + (len(ss), len(beta1s)))
    for i, s in enumerate(ss.tolist()):
        _, beta2, tau = chart.params(beta1s, s)
        cand = beta1s[:, None] * (pos2 - _neg_part(x1, tau, lm))[..., None, :]
        if beta2:
            cand += beta2 * x1[..., None, :]
        sup = np.max(np.abs(cand - fvals), axis=-1)
        sups[..., i, :] = np.where(beta1s + beta2 >= _C, sup, math.inf)
    return sups


def _disk_nodes(f: ScalarField) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    g = f.grid
    if g.x_min > -1.0 or g.x_max < 1.0 or g.y_min > -1.0 or g.y_max < 1.0:
        raise ValueError("field grid must cover the closed unit disk")
    X, Y = g.meshgrid()
    mask = X * X + Y * Y <= 1.0 + 1e-12
    return X[mask], Y[mask], f.values[mask]


def _line_fit(g: np.ndarray, e: np.ndarray, floor: float, ref=None) -> tuple[float, float, tuple]:
    """min over t of max |t g - e| by the two-line exchange: (min, t, reference)."""
    if ref is None or g[ref[0]] == 0.0 or g[ref[1]] == 0.0:
        ref = (int(np.argmax(np.abs(g))),) * 2
    u, d = ref
    if g[u] == 0.0:
        raise RampFitError("no node's error depends on the fitted coefficient")
    for _ in range(_MAX_EXCHANGES):
        gu, gd = float(g[u]), float(g[d])
        eu = float(e[u]) if gu > 0.0 else -float(e[u])
        ed = float(e[d]) if gd > 0.0 else -float(e[d])
        t = (eu + ed) / (abs(gu) + abs(gd))
        err = t * g - e
        k = int(np.argmax(np.abs(err)))
        top, rising = abs(float(err[k])), float(err[k]) * float(g[k]) > 0.0
        if top <= t * abs(gu) - eu + _GAP * top + floor or abs(g[k]) <= _ROUND or k == (u if rising else d):
            return top, t, (u, d)
        u, d = (k, d) if rising else (u, k)
    raise RampFitError(f"two-line exchange did not converge in {_MAX_EXCHANGES} passes")


def _plane_fit(b: np.ndarray, x: np.ndarray, f: np.ndarray, floor: float, ref=None) -> tuple:
    """min over chart B's box of max |beta1 b + beta2 x - f|: (min, (beta1, beta2), reference)."""
    size = len(f)

    def column(k, s):
        # (basis column, right-hand side) of an element
        if k < size:
            return (s * b[k], s * x[k], 1.0), s * f[k]
        n1, n2, bound = _FACES[k - size].tolist()
        return (n1, n2, 0.0), bound

    def solve(ref):
        cols, rhs = zip(*(column(*elem) for elem in ref))
        basis = np.array(cols).T
        if np.linalg.cond(basis) < 1.0 / _COLLINEAR:
            inv = np.linalg.inv(basis)
            if inv[:, 2].min() >= -_GAP:
                return basis, np.array(rhs), inv
        return None

    solved = None if ref is None else solve(ref)
    if solved is None:
        _, _, (u, d) = _line_fit(b, f, floor)
        lines = ((u, 1.0 if b[u] > 0.0 else -1.0), (d, -1.0 if b[d] > 0.0 else 1.0))
        for ref in (lines + ((size + 2, 1.0),), lines + ((size + 3, 1.0),)):
            solved = solve(ref)
            if solved is not None:
                break
        else:
            raise RampFitError(f"no well-conditioned exchange reference to start from: {ref}")
    basis, rhs, inv = solved
    seen = set()
    for _ in range(_MAX_EXCHANGES):
        if frozenset(ref) in seen:
            raise RampFitError(f"exchange cycled at {ref}")
        seen.add(frozenset(ref))
        z = inv.T @ rhs
        z += inv.T @ (rhs - basis.T @ z)   # one refinement step
        beta, h = z[:2], -z[2]
        err = beta[0] * b + beta[1] * x - f
        j = int(np.argmax(np.abs(err)))
        top = abs(float(err[j]))
        broken = _FACES[:, :2] @ beta - _FACES[:, 2]
        enter = (j, 1.0 if err[j] > 0.0 else -1.0)
        if top <= h + _GAP * top + floor or abs(b[j]) + abs(x[j]) <= _ROUND or enter in ref:
            if broken.max() <= _ROUND:
                return top, tuple(beta.tolist()), ref
            enter = (size + int(np.argmax(broken)), 1.0)
        col, r = column(*enter)
        mu = inv @ col
        ratio = np.divide(np.maximum(inv[:, 2], 0.0), mu, out=np.full(3, math.inf),
                          where=mu > _COLLINEAR * np.abs(mu).max())   # a pivot of rounding size is no pivot
        k = int(np.argmin(ratio))
        inv -= np.outer(mu - np.eye(3)[k], inv[k] / mu[k])   # the basis inverse after the swap
        basis[:, k], rhs[k] = col, r
        ref = ref[:k] + (enter,) + ref[k + 1:]
    raise RampFitError(f"three-element exchange did not converge in {_MAX_EXCHANGES} passes")


class _Fit(NamedTuple):
    value: float   # sup error of the ramp, which is admissible
    beta1: float
    beta2: float
    tau: float
    theta: float
    ref: tuple     # the exchange reference: a warm start for a nearby fit


class _RampObjective:
    """The unit-disk nodes of a field in one rotated frame, and the exact fits there."""

    def __init__(self, X, Y, fvals, lp, lm):
        self.X = X
        self.Y = Y
        self.fvals = fvals
        self.lp = lp
        self.lm = lm
        self.floor = 8.0 * _EPS * float(np.max(np.abs(fvals)))   # rounding of an error
        self._theta = None
        self.x1 = None
        self._pos2 = None

    def set_theta(self, theta: float) -> None:
        if self._theta != theta:
            self._theta = theta
            self.x1 = _rotated_x1(theta, self.X, self.Y)
            self._pos2 = _pos_part(self.x1, self.lp)

    def base(self, tau: float) -> np.ndarray:
        return self._pos2 - _neg_part(self.x1, tau, self.lm)

    def fit_a(self, theta: float, tau: float, *, ref=None) -> _Fit:
        """Chart A at (theta, tau): the exact beta1 over [C, A]."""
        self.set_theta(theta)
        b = self.base(tau)
        val, t, ref = _line_fit(b, self.fvals, self.floor, ref)
        beta1 = min(max(t, _C), _A)
        if beta1 != t:
            val = float(np.max(np.abs(beta1 * b - self.fvals)))
        return _Fit(val, beta1, 0.0, tau, theta, ref)

    def fit_b(self, theta: float, *, ref=None) -> _Fit:
        """Chart B at theta: the exact (beta1, beta2) over its box."""
        self.set_theta(theta)
        b = self.base(0.0)
        val, (t1, t2), ref = _plane_fit(b, self.x1, self.fvals, self.floor, ref)
        beta1, beta2 = min(max(t1, 0.0), _A), min(max(t2, 0.0), _B)
        while beta1 + beta2 < _C:
            beta1 = math.nextafter(max(beta1, _C - beta2), math.inf)
        if (beta1, beta2) != (t1, t2):
            val = float(np.max(np.abs(beta1 * b + beta2 * self.x1 - self.fvals)))
        return _Fit(val, beta1, beta2, 0.0, theta, ref)


def _step_halving(fit, found: _Fit, point: list, steps: list, lo: list, hi: list) -> _Fit:
    """Pattern search of ``fit(*point, ref=...)`` over one or two coordinates (see above)."""
    moves = [m for m in itertools.product((1, -1, 0), repeat=len(point)) if any(m)]
    last = {}
    while max(steps) > _REFINE_TOL:
        moved = False
        for m in moves:
            cand = [min(max(p + k * s, a), b) for p, k, s, a, b in zip(point, m, steps, lo, hi)]
            if cand == point:
                continue
            got = last[m] = fit(*cand, ref=last[m].ref if m in last else found.ref)
            if got.value < found.value:
                found, point, moved = got, cand, True
        if not moved:
            steps = [0.5 * s for s in steps]
    return found


def _quick_values(X, Y, fvals, lp, lm, rows: np.ndarray) -> np.ndarray:
    """Stage-1 value of each angle index in ``rows`` over the given nodes.

    min over the quick grids of every chart of max |ramp - f|.
    """
    x1 = _COS[rows, None] * X - _SIN[rows, None] * Y
    pos2 = _pos_part(x1, lp)
    sups = [_chart_sups(x1, pos2, fvals, lm, chart, *_chart_grid(chart, *chart.quick)) for chart in _CHARTS]
    return np.min([s.min(axis=(1, 2)) for s in sups], axis=0)


def _theta_scan(X, Y, fvals, lp, lm) -> np.ndarray:
    """Stage-1 value per angle of ``_THETAS``; pruned angles hold +inf."""
    coarse = slice(None, None, _ORDER_STRIDE)
    bound = _quick_values(X[coarse], Y[coarse], fvals[coarse], lp, lm, np.arange(_THETA_GRID))
    order = np.argsort(bound, kind="stable")
    scan = np.full(_THETA_GRID, math.inf)
    fine = slice(None, None, _BOUND_STRIDE)
    for i in range(0, _THETA_GRID, _SCAN_BATCH):
        rows = order[i:i + _SCAN_BATCH]
        third = np.partition(scan, 2)[2]
        if bound[rows[0]] > third:
            break
        rows = rows[_quick_values(X[fine], Y[fine], fvals[fine], lp, lm, rows) <= third]
        scan[rows] = _quick_values(X, Y, fvals, lp, lm, rows)
    return scan


def dist_to_M(
    f: ScalarField,
    *,
    lambda_plus: float = 2.0,
    lambda_minus: float = 2.0,
) -> tuple[float, GlobalProfile]:
    """Sup-norm distance on the unit disk to the rotated ramp class.

    Returns (distance, best profile): a scan of 360 angles, an exact
    inner solve for (beta1, beta2), and a local search of theta and tau
    (see the notes above).  The distance is the sup error of the returned
    profile, which is admissible, so it bounds the true infimum from
    above; it is exact over (beta1, beta2) at the returned theta and tau.
    """
    X, Y, fvals = _disk_nodes(f)

    # stage 1: theta scan with a light inner search on a node subsample
    sub = slice(None, None, 4) if X.size > 2000 else slice(None)
    scan = _theta_scan(X[sub], Y[sub], fvals[sub], lambda_plus, lambda_minus)

    # stage 2: exact fits at the leading angles, the best of each chart kept
    obj = _RampObjective(X, Y, fvals, lambda_plus, lambda_minus)
    best_a = best_b = None
    for k in np.argsort(scan, kind="stable")[:3].tolist():
        theta = float(_THETAS[k])
        a = fit = obj.fit_a(theta, _TAUS[0])
        for tau in _TAUS[1:]:
            fit = obj.fit_a(theta, tau, ref=fit.ref)
            a = fit if fit.value < a.value else a
        a = _step_halving(partial(obj.fit_a, theta), a, [a.tau], [1.0 / (_TAU_GRID - 1)], [-1.0], [0.0])
        b = obj.fit_b(theta)
        best_a = a if best_a is None or a.value < best_a.value else best_a
        best_b = b if best_b is None or b.value < best_b.value else best_b

    # stage 3: polish each chart's best fit
    step = 2.0 * math.pi / _THETA_GRID
    best_a = _step_halving(obj.fit_a, best_a, [best_a.theta, best_a.tau], [step, step],
                           [-math.inf, -1.0], [math.inf, 0.0])
    best_b = _step_halving(obj.fit_b, best_b, [best_b.theta], [step], [-math.inf], [math.inf])
    finals = [best_a, best_b]
    if best_a.tau == 0.0:
        # chart A at tau = 0 is chart B's edge beta2 = 0: chart B's fit at
        # that angle makes the result exact over both coefficients
        finals.insert(1, obj.fit_b(best_a.theta))
    best = min(finals, key=lambda fit: fit.value)
    return best.value, GlobalProfile(best.beta1, best.beta2, best.tau, best.theta, lambda_plus, lambda_minus)
