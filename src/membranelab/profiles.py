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

import math
from dataclasses import dataclass
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
# Every screen below is exact: it changes how many candidates are
# evaluated in full, never a returned value.  They all rest on one fact.
# A node's error |ramp - f| is computed with the same floating-point
# operations in the same order wherever it is computed, so the max over a
# subset of the nodes can never exceed the max over all of them, and a min
# over the same candidates keeps that order, bit for bit.
#
# The theta scan (stage 1 of ``dist_to_M``) gives each angle of a uniform
# grid the value
#
#   scan(theta) = min over the quick chart grids of max over nodes |ramp - f|
#
# and hands the three smallest on to the full search.  A lower bound of
# scan(theta) comes first, for all angles in one array pass: the same
# quantity over every _ORDER_STRIDE-th node only.  Angles are then taken in
# order of increasing bound, _SCAN_BATCH at a time, until the next bound is
# strictly above the third smallest exact value found so far.  A batch is
# filtered by the finer bound over every _BOUND_STRIDE-th node, and only the
# angles whose finer bound is not above that third value get an exact value.
# Every angle skipped either way has scan >= bound > the final third value,
# so it can be neither a leader nor tied with one, and it keeps +inf.
# Leaders are the three smallest values, ties going to the lower angle
# index.  The rotation is taken per angle with math.cos and math.sin as in
# ``_rotated_x1``, so an angle's value does not depend on its batch.
#
# The coarse chart grids of stage 2 (_COARSE^2 candidates each) are pruned
# the same way: a bound per candidate over every _BOUND_STRIDE-th node,
# exact values in bound order until the next bound is strictly above the
# smallest exact value, and the flat argmin of the exact values, which is
# the first minimum in (s, beta1) order as in a full row-by-row scan.
#
# The objective is a Chebyshev (sup-norm) fit, so its value is set by a few
# extremal nodes.  ``_RampObjective.value`` keeps the last _SCREEN_NODES
# nodes at which a full pass found its max, and with a ``cutoff`` it first
# recomputes the candidate's error at those nodes, newest first, with the
# full pass's scalar operations.  The first error >= cutoff is a lower
# bound of the sup, and it is returned at once.  The descents pass their
# best value as the cutoff and only ask ``v < best``, and the coarse grids
# pass the float just above theirs (so a screened candidate is strictly
# worse and cannot tie).  A candidate that survives the screen gets the
# full pass, so every accepted value is the exact sup.
#
# Search constants: the box bounds A, B, C of the charts below; the number
# of angles of the theta scan; the coarse grid points per chart axis; the
# step at which coordinate descent and the theta polish stop; the scan's
# angles and their rotations; the node strides of the fine bound and of the
# angle order; the angles per batch; the screened nodes.

_A = 4.0
_B = 4.0
_C = 0.05  # excludes the zero profile from the class
_THETA_GRID = 360
_COARSE = 32
_REFINE_TOL = 1e-6
_THETAS = -math.pi + 2.0 * math.pi * np.arange(_THETA_GRID) / _THETA_GRID
_COS = np.array([math.cos(t) for t in _THETAS.tolist()])
_SIN = np.array([math.sin(t) for t in _THETAS.tolist()])
_BOUND_STRIDE = 16
_ORDER_STRIDE = 64
_SCAN_BATCH = 4
_SCREEN_NODES = 16


# The admissible set splits into two charts once "beta2 != 0 forces tau = 0"
# is taken literally.  A chart has beta1 and one more parameter s:
#   chart A: beta2 = 0, s = tau in [-1, 0], beta1 in [C, A]
#   chart B: tau = 0, s = beta2 in [0, B], beta1 in [0, A], beta1 + beta2 >= C
# A row of _CHARTS holds the map (beta1, s) -> (beta1, beta2, tau), the box
# of (beta1, s) and the stage-1 quick-grid points per axis.  Every stage
# skips beta1 + beta2 < C, which chart A never reaches.  So every evaluated
# candidate is admissible, and the returned distance is an upper bound for
# the true infimum.
class _Chart(NamedTuple):
    params: Callable  # (beta1, s) -> (beta1, beta2, tau)
    box: tuple        # ((beta1 lo, hi), (s lo, hi))
    quick: tuple      # stage-1 grid points per axis (beta1, s)


_CHARTS = (
    _Chart(lambda b1, s: (b1, 0.0, s), ((_C, _A), (-1.0, 0.0)), (12, 9)),
    _Chart(lambda b1, s: (b1, s, 0.0), ((0.0, _A), (0.0, _B)), (9, 9)),
)


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


class _RampObjective:
    """sup |ramp(params) - f| over unit-disk nodes, for one rotation."""

    def __init__(self, X, Y, fvals, lp, lm):
        self.X = X
        self.Y = Y
        self.fvals = fvals
        self.lp = lp
        self.lm = lm
        self._qlm = 0.25 * lm
        self._theta = None
        self._x1 = None
        self._pos2 = None
        self._base = {}
        self._buf = np.empty_like(fvals)
        self._lin = np.empty_like(fvals)
        self._worst = []    # recent argmax node indices, newest first
        self._screen = []   # (x1, pos2, f) at those nodes, as floats

    def set_theta(self, theta: float) -> None:
        if self._theta != theta:
            self._theta = theta
            self._x1 = _rotated_x1(theta, self.X, self.Y)
            self._pos2 = _pos_part(self._x1, self.lp)
            self._base = {}
            self._screen = [self._node(i) for i in self._worst]

    def _node(self, i: int) -> tuple[float, float, float]:
        return float(self._x1[i]), float(self._pos2[i]), float(self.fvals[i])

    def base(self, tau: float) -> np.ndarray:
        # pos2 - neg(tau), memoised per tau until the rotation changes:
        # chart B always uses tau = 0, and chart A moves along beta1 keep tau
        b = self._base.get(tau)
        if b is None:
            b = self._base[tau] = self._pos2 - _neg_part(self._x1, tau, self.lm)
        return b

    def value(self, beta1: float, beta2: float, tau: float, cutoff: float = math.inf) -> float:
        """The sup, or some node's error once that error is >= ``cutoff``.

        The screen repeats the full pass's arithmetic on the recent worst
        nodes (see the search notes above), so a returned value below
        ``cutoff`` is always the exact sup.
        """
        if cutoff < math.inf:
            qlm = self._qlm
            for x1, pos2, f in self._screen:
                n = x1 - tau
                base = pos2 - qlm * n * n if n < 0.0 else pos2
                if beta2:
                    err = abs(beta1 * base + beta2 * x1 - f)
                else:
                    err = abs(beta1 * base - f)
                if err >= cutoff:
                    return err
        buf = np.multiply(self.base(tau), beta1, out=self._buf)
        if beta2:
            buf += np.multiply(self._x1, beta2, out=self._lin)
        buf -= self.fvals
        np.abs(buf, out=buf)
        k = int(buf.argmax())
        self._remember(k)
        return float(buf[k])

    def _remember(self, k: int) -> None:
        if k in self._worst:
            j = self._worst.index(k)
            del self._worst[j], self._screen[j]
        self._worst.insert(0, k)
        self._screen.insert(0, self._node(k))
        del self._worst[_SCREEN_NODES:], self._screen[_SCREEN_NODES:]

    def chart_batch(self, chart: _Chart) -> tuple[float, float]:
        """Coarse scan of one chart; returns the (beta1, s) of its best candidate."""
        beta1s, ss = _chart_grid(chart, _COARSE, _COARSE)
        every = slice(None, None, _BOUND_STRIDE)
        bound = _chart_sups(self._x1[every], self._pos2[every], self.fvals[every], self.lm, chart, beta1s, ss)
        beta1s, ss = beta1s.tolist(), ss.tolist()
        _, i, j = _pruned_argmin(bound, lambda i, j, cut: self.value(*chart.params(beta1s[j], ss[i]), cut))
        return beta1s[j], ss[i]


def _pruned_argmin(bound: np.ndarray, value) -> tuple[float, int, int]:
    """(min, row, column) of ``value`` over a coarse chart grid.

    ``bound[i, j]`` is a lower bound of candidate (i, j)'s value, and
    ``value(i, j, cutoff)`` is its exact value or a number >= ``cutoff``.
    Candidates are taken in order of increasing bound until the next bound
    is strictly above the smallest exact value; ties go to the first
    candidate in row-major order.
    """
    flat = bound.ravel()
    vals = np.full(flat.size, math.inf)
    ncol = bound.shape[1]
    best = math.inf
    for k in np.argsort(flat, kind="stable").tolist():
        if flat[k] > best:
            break
        v = vals[k] = value(*divmod(k, ncol), math.nextafter(best, math.inf))
        best = min(best, v)
    k = int(np.argmin(vals))
    return float(vals[k]), *divmod(k, ncol)


def _descend(obj: _RampObjective, chart: _Chart, beta1, s, step1, step2):
    """Coordinate descent with step halving on one chart, beta1 moving first.

    Returns (value, beta1, beta2, tau); moves to beta1 + beta2 < C are skipped.
    """
    (lo1, hi1), (lo2, hi2) = chart.box
    at = chart.params
    best = obj.value(*at(beta1, s))
    while step1 > _REFINE_TOL or step2 > _REFINE_TOL:
        moved = False
        for d in (+step1, -step1):
            b1, b2, tau = at(min(max(beta1 + d, lo1), hi1), s)
            if b1 + b2 >= _C:
                v = obj.value(b1, b2, tau, best)
                if v < best:
                    best, beta1, moved = v, b1, True
        for d in (+step2, -step2):
            ns = min(max(s + d, lo2), hi2)
            b1, b2, tau = at(beta1, ns)
            if b1 + b2 >= _C:
                v = obj.value(b1, b2, tau, best)
                if v < best:
                    best, s, moved = v, ns, True
        if not moved:
            step1 *= 0.5
            step2 *= 0.5
    return (best, *at(beta1, s))


def _search_fixed_theta(obj, theta):
    """Coarse grid and descent on every chart at one angle; chart A wins ties."""
    obj.set_theta(theta)
    best = None
    for chart in _CHARTS:
        (lo1, hi1), (lo2, hi2) = chart.box
        step = max(hi1 - lo1, hi2 - lo2) / (_COARSE - 1)
        found = _descend(obj, chart, *obj.chart_batch(chart), step, step)
        if best is None or found[0] < best[0]:
            best = found
    return best


def _quick_values(X, Y, fvals, lp, lm, rows: np.ndarray) -> np.ndarray:
    """Stage-1 value of each angle index in ``rows`` over the given nodes.

    min over the quick grids of every chart of max |ramp - f|, with the
    elementwise arithmetic of ``_RampObjective`` at one angle.
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

    Returns (distance, best profile).  Stage 1 scans a uniform grid of
    360 angles with a cheap inner search (a few coarse chart grids on a
    node subsample) and keeps the three angles of smallest value, ties
    going to the lower angle.  Stage 2 re-searches the leaders at full
    resolution over both charts (a 32 x 32 coarse parameter grid, then
    coordinate descent with step halving), and stage 3 polishes theta
    locally by step halving.

    Every stage is exact but screened.  Angles and coarse candidates are
    taken in order of a lower bound from a node subset and skipped once
    the bound is strictly above the values still in play.  Each descent
    move is first tested on the nodes where recent full passes found
    their max, and is rejected as soon as one of them already reaches
    the best value.  A bound or a screened error repeats the full pass's
    arithmetic on fewer nodes, so it never exceeds the true sup, bit for
    bit: the result is the one an unscreened search of every candidate
    returns.
    """
    X, Y, fvals = _disk_nodes(f)

    # stage 1: theta scan with a light inner search on a node subsample
    sub = slice(None, None, 4) if X.size > 2000 else slice(None)
    scan = _theta_scan(X[sub], Y[sub], fvals[sub], lambda_plus, lambda_minus)

    # stage 2: full-resolution search at the leading angles
    order = np.argsort(scan, kind="stable")
    leaders = [float(_THETAS[k]) for k in order[:3]]
    obj = _RampObjective(X, Y, fvals, lambda_plus, lambda_minus)
    best = None
    for th in leaders:
        val, b1, b2, tau = _search_fixed_theta(obj, th)
        if best is None or val < best[0]:
            best = (val, b1, b2, tau, th)

    # stage 3: polish theta with step halving, re-descending the chart at
    # each accepted move
    val, b1, b2, tau, th = best
    step = 2.0 * math.pi / _THETA_GRID
    while step > _REFINE_TOL:
        moved = False
        for d in (+step, -step):
            cand_th = th + d
            v, nb1, nb2, ntau = _search_theta_local(obj, cand_th, b1, b2, tau)
            if v < val:
                val, b1, b2, tau, th = v, nb1, nb2, ntau, cand_th
                moved = True
        if not moved:
            step *= 0.5
    prof = GlobalProfile(b1, b2, tau, th, lambda_plus, lambda_minus)
    return val, prof


def _search_theta_local(obj, theta, beta1, beta2, tau):
    """Re-optimize ramp parameters at a nearby theta, warm-started on their chart."""
    obj.set_theta(theta)
    chart, s = (_CHARTS[0], tau) if beta2 == 0.0 else (_CHARTS[1], beta2)
    (lo, hi), _ = chart.box
    return _descend(obj, chart, min(max(beta1, lo), hi), s, 0.05, 0.05)
