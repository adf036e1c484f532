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
sampled field and the admissible parameter box of these ramps
(``dist_to_M_below`` only whether it is below a cut), and
``dist_to_polynomial_class`` the distance to the sign-definite quadratics.
Both read the field on the same unit-disk nodes; they drive blow-up
classification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .grid import BoundaryMap, Grid2D, ScalarField, _require_finite, _require_phases


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
        _require_finite(**vars(self))
        _require_phases(self.lambda_plus, self.lambda_minus)
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
        _require_finite(cxx=self.cxx, cxy=self.cxy, cyy=self.cyy)
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


def eval_many(obj, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Evaluate either profile family on coordinate arrays."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if isinstance(obj, GlobalProfile):
        x1 = _rotated_x1(obj.theta, X, Y)
        return (obj.beta1 * (_pos_part(x1, obj.lambda_plus) - _neg_part(x1, obj.tau, obj.lambda_minus))
                + obj.beta2 * x1)
    if isinstance(obj, OnePhasePolynomial):
        return obj.cxx * X * X + obj.cxy * X * Y + obj.cyy * Y * Y
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
# exactly.  A node's error is computed with the same floating-point
# operations wherever it is computed, so a max over fewer nodes never
# exceeds the full one.  One table holds that max over the rim nodes for
# each pair of angle and quick-grid candidate; its min over the candidates
# bounds scan(theta) from below.  The rim nodes are the scan's own nodes
# farthest out along each of _RIM_DIRECTIONS evenly spaced directions.  Near
# the centre every ramp fits well, and a ramp's error grows like rho^2 away
# from it, so the rim nodes bound tighter, and prune more angles, than nodes
# spread over the disk.  Angles are taken one at a time in order of
# increasing bound, until the next bound is strictly above the third
# smallest exact value found so far.  Within an angle, the candidate of
# least table entry is evaluated on all nodes first, giving t, and then only
# the candidates whose entry is not above t: a skipped candidate has a full
# max >= its entry > t, so the angle's value is exact.  Every angle skipped
# has scan >= bound > the final third value, so it can be neither a leader
# nor tied with one, and it keeps +inf.  Leaders are the three smallest
# values, ties going to the lower angle index.  The rotation is taken per
# angle with math.cos and math.sin as in ``_rotated_x1``.
#
# Stage 2 solves for the linear coefficients exactly.  At a fixed angle the
# ramp is linear in (beta1, beta2), and in beta1 alone at a fixed tau, so
# the sup error over the nodes is a linear Chebyshev problem: a linear
# program in the coefficients and the level h, which the exchange
# algorithm solves exactly (Stiefel 1959; Cheney, Introduction to
# Approximation Theory, 1966, ch. 2).  Stage 3 moves the angle and tau
# too, by a sequence of such problems.
#
# An exchange keeps a reference of one element more than there are
# coefficients.  A node element (k, s) is levelled at s (a_k . c - f_k) = h,
# where a_k is the node's gradient; the reference may also hold faces
# n . c = d of the coefficients' box.  The reference's weights, which sum
# to 1 over its nodes, cancel the nodes' signed gradients s a_k together
# with the face normals; while they are >= 0, weak duality makes h a lower
# bound of the optimum.  Each pass lets in the node of largest error (or
# else the face most broken), and the element that leaves keeps the
# weights >= 0 and h non-decreasing: in one dimension it is the line of
# the same slope sign, otherwise the ratio test of the dual simplex method
# picks it.  An exchange stops once no error exceeds h by more than the
# gap and 8 ulps of the field, and every face holds to rounding; or when
# the element that would enter is in the reference already (its error is h
# up to rounding), or the largest error has no gradient, so that it bounds
# every fit from below.  So its result is exact, and the final reference
# certifies it.  A singular reference, a ratio test with no pivot and
# _MAX_EXCHANGES passes raise RampFitError, and so does a cycle (only
# pivots that leave h where it was can close one), as its subclass
# _Degenerate; none is skipped.
#
# In one dimension (``_line_fit``) node k has the error lines
# +-(t g_k - e_k); the reference keeps the rising line of one node and
# the falling line of another, and a cold start takes both lines of the
# node of largest |g|.  Otherwise (``_exchange``, m coefficients) an
# element is a node (k, s) or a face len(f) + i, a row of the faces
# matrix; rows 2i and 2i + 1 bound coefficient i from below and above.  A
# cold start is the optimum of the first coefficient alone, each other
# coefficient held by either of its faces, the first pick whose weights
# are >= 0; or, if none is well conditioned (the largest error has no
# gradient), a vertex of the box and the node whose error the box lowers
# least, each coefficient held by the face its gradient pushes against:
# that basis is never singular and its weights are 1 and |a_ki|.  A fit
# may be warm started from a nearby fit's reference, which changes its
# passes, not its result; a warm reference that is ill-conditioned or has
# a negative weight gives way to the cold start.  Chart B's solution meets
# the box to rounding: it is clamped into the box, beta1 raised by ulps
# until beta1 + beta2 >= C, and its error recomputed if that moved it.
#
# Stage 2 fits both charts at the best leader, and at each other leader
# more than _BASIN scan steps from every better one: two leaders that
# close lie in one basin, and stage 3 would polish them to the same point.
# At each such angle chart B is fitted once and chart A at each of
# _TAU_GRID taus in (-1, 0], each warm started from the one before.  The
# grid leaves out tau = -1: every disk node has x1 >= -1, so there no
# node's error depends on tau, and a linear model could not move tau off
# it.  Stage 3 polishes the best fit of each chart by sequential linear
# programming in a trust region (Madsen, J. Inst. Math. Appl. 16, 1975;
# Osborne & Watson, Computer J. 12, 1969).  The sup error is a max of C^1
# functions of the point p = (beta1, s, theta) of a chart, s being tau in
# chart A and beta2 in chart B.  A step d minimises the linear model
# max_k |err_k + grad_k . d| over |d_i| <= radius, intersected with the
# chart's box and, in chart B, with beta1 + beta2 >= C: an exchange over
# three coefficients, warm started from the last step's reference.  The
# step is taken when the actual decrease is at least _ACCEPT of the
# predicted one.  The radius becomes a quarter of the step when the ratio
# is below 1/4, and at least twice the step when it is above 3/4.  The
# polish stops when the predicted decrease is at most the gap times the
# value plus 8 ulps of the field, when a step's exchange is degenerate,
# or after _MAX_STEPS steps.  Its result is the exact fit at the last
# angle and tau taken, warm started from the stage-2 reference, or the
# stage-2 fit itself when no step was taken.  Chart A runs first; if it
# ends at tau = 0, chart B's fit at that angle (chart A's edge beta2 = 0)
# may start chart B.  Chart A wins ties.
#
# Search constants: the box bounds A, B, C of the charts below; the number
# of angles of the theta scan and of chart A's starting taus; the scan's
# angles and their rotations; the directions whose rim nodes make the
# bound table (four bound too loosely, eight or more cost more than they
# prune); the relative gap at which an exchange or a polish stops; the
# rounding of a coefficient on a face, or of a zero gradient; the inverse
# of the largest condition number of a usable reference, and the smallest
# usable pivot relative to the largest; the most passes of an exchange;
# the scan steps within which two leaders share a basin; the first trust
# radius (one scan step); the least ratio of actual to predicted decrease
# that takes a step; the most steps of a polish.

_A = 4.0
_B = 4.0
_C = 0.05  # excludes the zero profile from the class
_THETA_GRID = 360
_TAU_GRID = 32
_THETAS = -math.pi + 2.0 * math.pi * np.arange(_THETA_GRID) / _THETA_GRID
_COS = np.array([math.cos(t) for t in _THETAS.tolist()])
_SIN = np.array([math.sin(t) for t in _THETAS.tolist()])
_TAUS = np.linspace(-1.0, 0.0, _TAU_GRID + 1)[1:].tolist()
_RIM_DIRECTIONS = 6
_GAP = 1e-13
_EPS = float(np.finfo(float).eps)
_ROUND = 8.0 * _EPS * max(_A, _B)
_COLLINEAR = 1e-10
_MAX_EXCHANGES = 64
_BASIN = 3
_RADIUS = 2.0 * math.pi / _THETA_GRID
_ACCEPT = 0.01
_MAX_STEPS = 64


class RampFitError(ValueError):
    """An exchange met a singular reference, cycled or did not converge."""


class _Degenerate(RampFitError):
    """An exchange's reference came back: a cycle of pivots that left h where it was."""


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

# Stage 3 moves (beta1, s, theta) in either chart, within the chart's box
# (lo, hi) of _SLP_BOX.  The faces of a step d: below and above each
# coordinate, then chart B's face beta1 + beta2 >= C.
_SLP_BOX = tuple((np.array([b1[0], s[0], -math.inf]), np.array([b1[1], s[1], math.inf]))
                 for b1, s in (chart.box for chart in _CHARTS))
_STEP_NORMALS = np.vstack([np.kron(np.eye(3), [[-1.0], [1.0]]), [-1.0, -1.0, 0.0]])


def _quick_rows() -> list:
    """(beta1s, beta2, tau) for each s of each chart's stage-1 grid."""
    rows = []
    for chart in _CHARTS:
        (lo1, hi1), (lo2, hi2) = chart.box
        beta1s = np.linspace(lo1, hi1, chart.quick[0])
        rows += [chart.params(beta1s, s) for s in np.linspace(lo2, hi2, chart.quick[1]).tolist()]
    return rows


# The stage-1 candidates, row by row: (beta1, beta2, tau) per column of
# _QUICK, the distinct taus and each candidate's index among them, and the
# admissible candidates, beta1 + beta2 >= C.
_QUICK_ROWS = _quick_rows()
_QUICK = np.concatenate([np.broadcast_arrays(*row) for row in _QUICK_ROWS], axis=1)
_QUICK_TAUS, _QUICK_TAU_AT = np.unique(_QUICK[2], return_inverse=True)
_QUICK_OK = _QUICK[0] + _QUICK[1] >= _C


def _disk_nodes(f: ScalarField) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    g = f.grid
    if g.x_min > -1.0 or g.x_max < 1.0 or g.y_min > -1.0 or g.y_max < 1.0:
        raise ValueError("field grid must cover the closed unit disk")
    X, Y = g.meshgrid()
    mask = X * X + Y * Y <= 1.0 + 1e-12
    if not mask.any():
        raise ValueError("field grid has no node in the closed unit disk")
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


def _exchange(cols: tuple, f: np.ndarray, faces: np.ndarray, floor: float, ref=None) -> tuple:
    """min of max_k |sum_i c_i cols[i][k] - f_k| over faces[:, :-1] @ c <= faces[:, -1]: (min, c, reference).

    Rows 2i and 2i + 1 of ``faces`` bound c_i from below and from above.
    """
    size, m = len(f), len(cols)

    def column(k, s):
        # (basis column, right-hand side) of an element
        if k < size:
            return tuple(s * col[k] for col in cols) + (1.0,), s * f[k]
        *normal, bound = faces[k - size].tolist()
        return (*normal, 0.0), bound

    def solve(ref):
        columns, rhs = zip(*(column(*elem) for elem in ref))
        basis = np.array(columns).T
        if np.linalg.cond(basis) < 1.0 / _COLLINEAR:
            inv = np.linalg.inv(basis)
            if inv[:, m].min() >= -_GAP:
                return basis, np.array(rhs), inv
        return None

    def cold_starts():
        # the exact fit of the first coefficient alone, each other held by
        # either of its faces
        _, _, (u, d) = _line_fit(cols[0], f, floor)
        lines = ((u, 1.0 if cols[0][u] > 0.0 else -1.0), (d, -1.0 if cols[0][d] > 0.0 else 1.0))
        for pick in range(2 ** (m - 1)):
            yield lines + tuple((size + 2 * i + (pick >> (i - 1) & 1), 1.0) for i in range(1, m))
        # the node and sign whose least error over the box is largest, at
        # the vertex where it is least
        grads = np.column_stack(cols)
        lo, hi = -faces[0:2 * m:2, m], faces[1:2 * m:2, m]
        least = np.array([np.minimum(s * grads * lo, s * grads * hi).sum(axis=1) - s * f for s in (1.0, -1.0)])
        row, k = np.unravel_index(int(np.argmax(least)), least.shape)
        s = (1.0, -1.0)[row]
        yield ((int(k), s),) + tuple((size + 2 * i + int(s * grads[k, i] < 0.0), 1.0) for i in range(m))

    solved = None if ref is None else solve(ref)
    if solved is None:
        for ref in cold_starts():
            solved = solve(ref)
            if solved is not None:
                break
        else:
            raise RampFitError(f"no well-conditioned exchange reference to start from: {ref}")
    basis, rhs, inv = solved
    seen = set()
    for _ in range(_MAX_EXCHANGES):
        if frozenset(ref) in seen:
            raise _Degenerate(f"exchange cycled at {ref}")
        seen.add(frozenset(ref))
        z = inv.T @ rhs
        z += inv.T @ (rhs - basis.T @ z)   # one refinement step
        c, h = z[:m], -z[m]
        err = c[0] * cols[0]
        for ci, col in zip(c[1:], cols[1:]):
            err += ci * col
        err -= f
        j = int(np.argmax(np.abs(err)))
        top = abs(float(err[j]))
        broken = faces[:, :m] @ c - faces[:, m]
        enter = (j, 1.0 if err[j] > 0.0 else -1.0)
        if top <= h + _GAP * top + floor or sum(abs(col[j]) for col in cols) <= _ROUND or enter in ref:
            if broken.max() <= _ROUND:
                return top, tuple(c.tolist()), ref
            enter = (size + int(np.argmax(broken)), 1.0)
        col, r = column(*enter)
        mu = inv @ col
        ratio = np.divide(np.maximum(inv[:, m], 0.0), mu, out=np.full(m + 1, math.inf),
                          where=mu > _COLLINEAR * np.abs(mu).max())   # a pivot of rounding size is no pivot
        k = int(np.argmin(ratio))
        if ratio[k] == math.inf:
            raise RampFitError(f"no element of {ref} can leave for {enter}")
        inv -= np.outer(mu - np.eye(m + 1)[k], inv[k] / mu[k])   # the basis inverse after the swap
        basis[:, k], rhs[k] = col, r
        ref = ref[:k] + (enter,) + ref[k + 1:]
    raise RampFitError(f"{m + 1}-element exchange did not converge in {_MAX_EXCHANGES} passes")


class _Fit(NamedTuple):
    value: float   # sup error of the ramp, which is admissible
    beta1: float
    beta2: float
    tau: float
    theta: float
    ref: tuple     # the exchange reference: a warm start for a nearby fit


def _admissible_b(t1: float, t2: float) -> tuple[float, float]:
    """The chart-B coefficients (t1, t2) clamped into the box, beta1 raised by ulps until beta1 + beta2 >= C."""
    beta1, beta2 = min(max(t1, 0.0), _A), min(max(t2, 0.0), _B)
    while beta1 + beta2 < _C:
        beta1 = math.nextafter(max(beta1, _C - beta2), math.inf)
    return beta1, beta2


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
        val, (t1, t2), ref = _exchange((b, self.x1), self.fvals, _FACES, self.floor, ref)
        beta1, beta2 = _admissible_b(t1, t2)
        if (beta1, beta2) != (t1, t2):
            val = float(np.max(np.abs(beta1 * b + beta2 * self.x1 - self.fvals)))
        return _Fit(val, beta1, beta2, 0.0, theta, ref)

    def linearise(self, chart: int, point) -> tuple:
        """Errors ramp - f at a point (beta1, s, theta) of a chart, and their gradients there."""
        beta1, beta2, tau = _CHARTS[chart].params(point[0], point[1])
        theta = point[2]
        self.set_theta(theta)
        x1, b = self.x1, self.base(tau)
        err = beta1 * b
        if beta2:
            err += beta2 * x1
        err -= self.fvals
        pos, neg = np.maximum(x1, 0.0), np.minimum(x1 - tau, 0.0)
        along = (0.5 * self.lp * beta1) * pos - (0.5 * self.lm * beta1) * neg + beta2   # d err / d x1
        turn = along * (-math.sin(theta) * self.X - math.cos(theta) * self.Y)       # d err / d theta
        return err, (b, (0.5 * self.lm * beta1) * neg if chart == 0 else x1, turn)


def _polish(obj: _RampObjective, chart: int, fit: _Fit) -> _Fit:
    """The exact fit at the end of a trust-region SLP from ``fit`` in one chart (see above)."""
    lo, hi = _SLP_BOX[chart]
    point = np.array([fit.beta1, fit.tau if chart == 0 else fit.beta2, fit.theta])
    err, grads = obj.linearise(chart, point)
    value = float(np.max(np.abs(err)))
    radius, ref, moved = _RADIUS, None, False
    for _ in range(_MAX_STEPS):
        bounds = np.minimum(radius, np.column_stack([point - lo, hi - point]).ravel())
        if chart == 1:
            bounds = np.append(bounds, point[0] + point[1] - _C)
        faces = np.column_stack([_STEP_NORMALS[:len(bounds)], bounds])
        try:
            model, step, ref = _exchange(grads, -err, faces, obj.floor, ref)
        except _Degenerate:
            break
        predicted = value - model
        if predicted <= _GAP * value + obj.floor:
            break
        trial = np.clip(point + step, lo, hi)
        if chart == 1:
            trial[:2] = _admissible_b(*trial[:2].tolist())
        trial_err, trial_grads = obj.linearise(chart, trial)
        trial_value = float(np.max(np.abs(trial_err)))
        ratio = (value - trial_value) / predicted
        size = float(np.max(np.abs(trial - point)))
        if ratio >= _ACCEPT:
            point, err, grads, value, moved = trial, trial_err, trial_grads, trial_value, True
        if ratio < 0.25:
            radius = 0.25 * size
        elif ratio > 0.75:
            radius = max(radius, 2.0 * size)
    if not moved:
        return fit
    if chart == 0:
        return obj.fit_a(float(point[2]), float(point[1]), ref=fit.ref)
    return obj.fit_b(float(point[2]), ref=fit.ref)


def _bound_table(X, Y, fvals, lp, lm) -> np.ndarray:
    """max |ramp - f| over the given nodes per (candidate of _QUICK, angle).

    +inf where beta1 + beta2 < C.  The nodes lie on the leading axis of
    each row's block, so the max over them is an elementwise reduction.
    """
    x1 = _COS * X[:, None] - _SIN * Y[:, None]
    pos2 = _pos_part(x1, lp)
    table = np.empty((_QUICK.shape[1], _THETA_GRID))
    start = 0
    for beta1s, beta2, tau in _QUICK_ROWS:
        cand = beta1s[:, None] * (pos2 - _neg_part(x1, tau, lm))[:, None, :]
        if beta2:
            cand += (beta2 * x1)[:, None, :]
        cand -= fvals[:, None, None]
        np.max(np.abs(cand, out=cand), axis=0, out=table[start:start + beta1s.size])
        start += beta1s.size
    table[~_QUICK_OK] = math.inf
    return table


def _quick_sups(x1, bases, fvals, cands) -> np.ndarray:
    """max |ramp - f| over all nodes at one angle for the candidates ``cands`` of _QUICK.

    ``bases`` holds pos - neg of the angle's x1 at each of _QUICK_TAUS.
    """
    beta1, beta2, _ = _QUICK[:, cands]
    cand = beta1[:, None] * bases[_QUICK_TAU_AT[cands]]
    lin = beta2 != 0.0
    cand[lin] += beta2[lin, None] * x1
    return np.max(np.abs(cand - fvals), axis=1)


def _rim_nodes(X, Y) -> np.ndarray:
    """Sorted indices of the nodes farthest out along each of _RIM_DIRECTIONS evenly spaced directions.

    Each is the first argmax of X cos phi + Y sin phi, and a node that
    leads along two directions is listed once.
    """
    phi = 2.0 * math.pi * np.arange(_RIM_DIRECTIONS) / _RIM_DIRECTIONS
    lead = np.argmax(X[:, None] * np.cos(phi) + Y[:, None] * np.sin(phi), axis=0)
    return np.array(sorted(set(lead.tolist())))   # np.unique would import numpy.ma, about 1 MB


def _theta_scan(X, Y, fvals, lp, lm) -> np.ndarray:
    """Stage-1 value per angle of ``_THETAS``; pruned angles hold +inf."""
    rim = _rim_nodes(X, Y)
    table = _bound_table(X[rim], Y[rim], fvals[rim], lp, lm)
    bound = table.min(axis=0)
    scan = np.full(_THETA_GRID, math.inf)
    for k in np.argsort(bound, kind="stable").tolist():
        if bound[k] > np.partition(scan, 2)[2]:
            break
        x1 = _COS[k] * X - _SIN[k] * Y
        bases = _pos_part(x1, lp) - _neg_part(x1, _QUICK_TAUS[:, None], lm)
        entries = table[:, k]
        first = int(np.argmin(entries))
        t = _quick_sups(x1, bases, fvals, [first])[0]
        rest = np.flatnonzero(entries <= t)
        scan[k] = np.min(_quick_sups(x1, bases, fvals, rest[rest != first]), initial=t)
    return scan


def _ramp_search(f: ScalarField, lp: float, lm: float, cut: float) -> _Fit | None:
    """The fit ``dist_to_M`` returns, or None once a stage-2 chart-A fit shows that its value is below cut.

    Stage 3 only lowers chart A's best stage-2 fit, up to its refit's
    stopping gap, and the result is at most the polished chart-A fit; so a
    stage-2 chart-A fit of value v with v + floor < (1 - _GAP) cut bounds
    the result below cut.  Such a fit ends the search at once; cut = 0
    never ends it.  The phase coefficients are checked before any scan.
    """
    _require_phases(lp, lm)
    X, Y, fvals = _disk_nodes(f)

    # stage 1: theta scan with a light inner search on a node subsample
    sub = slice(None, None, 4) if X.size > 2000 else slice(None)
    scan = _theta_scan(X[sub], Y[sub], fvals[sub], lp, lm)

    # stage 2: exact fits at the leading angle of each basin; every pick
    # below is a min, which keeps the earliest of tied fits
    obj = _RampObjective(X, Y, fvals, lp, lm)
    below = cut - _GAP * cut - obj.floor
    fits_a, fits_b = [], []
    leaders = np.argsort(scan, kind="stable")[:3].tolist()
    for i, k in enumerate(leaders):
        if any(min(abs(k - j), _THETA_GRID - abs(k - j)) <= _BASIN for j in leaders[:i]):
            continue
        theta = float(_THETAS[k])
        ref = None
        for tau in _TAUS:
            fits_a.append(obj.fit_a(theta, tau, ref=ref))
            if fits_a[-1].value < below:
                return None
            ref = fits_a[-1].ref
        fits_b.append(obj.fit_b(theta))

    # stage 3: polish each chart's best fit
    best_a = _polish(obj, 0, min(fits_a, key=lambda fit: fit.value))
    if best_a.tau == 0.0:
        # chart A at tau = 0 is chart B's edge beta2 = 0: chart B's fit at
        # that angle makes the result exact over both coefficients
        fits_b.append(obj.fit_b(best_a.theta))
    best_b = _polish(obj, 1, min(fits_b, key=lambda fit: fit.value))
    return min((best_a, best_b), key=lambda fit: fit.value)


def dist_to_M(f: ScalarField, *, lambda_plus: float, lambda_minus: float) -> tuple[float, GlobalProfile]:
    """Sup-norm distance on the unit disk to the rotated ramp class.

    Returns (distance, best profile): a scan of 360 angles, exact fits
    of the linear coefficients at the leading angles of distinct basins,
    and a trust-region SLP over each chart's coordinates (see the notes
    above).  The distance is the sup error of the returned profile, which
    is admissible, so it bounds the true infimum from above; it is exact
    over (beta1, beta2) at the returned theta and tau.  Phase coefficients
    that are not finite and positive raise the ValueError of
    ``GlobalProfile`` before the search.
    """
    best = _ramp_search(f, lambda_plus, lambda_minus, 0.0)
    return best.value, GlobalProfile(best.beta1, best.beta2, best.tau, best.theta, lambda_plus, lambda_minus)


def dist_to_M_below(f: ScalarField, cut: float, *, lambda_plus: float, lambda_minus: float) -> bool:
    """Whether ``dist_to_M`` of f is below cut, searching only as far as the answer needs.

    The search is ``dist_to_M``'s, in the same order and with the same warm
    starts; it stops at the first stage-2 chart-A fit that lies below cut
    by more than its exchange's stopping gap, which bounds the distance
    below cut, and otherwise runs to its end.  So wherever ``dist_to_M``
    returns, the answer is ``dist_to_M(f)[0] < cut``.
    """
    best = _ramp_search(f, lambda_plus, lambda_minus, cut)
    return best is None or best.value < cut


# ---------------------------------------------------------------------------
# Distance to the one-phase quadratics
# ---------------------------------------------------------------------------


def dist_to_polynomial_class(f: ScalarField) -> tuple[float, OnePhasePolynomial | None]:
    """Sup distance on the unit disk to the sign-definite quadratics.

    A least-squares fit of (x^2, xy, y^2) coefficients is projected onto
    each sign cone by eigenvalue clipping; the better projection wins.
    Returns inf when both projections collapse to the degenerate origin.
    """
    X, Y, fvals = _disk_nodes(f)
    design = np.column_stack([X * X, X * Y, Y * Y])
    coef, *_ = np.linalg.lstsq(design, fvals, rcond=None)
    a, b, c = (float(v) for v in coef)
    A = np.array([[a, 0.5 * b], [0.5 * b, c]])
    w, V = np.linalg.eigh(A)

    best_d = math.inf
    best_poly = None
    for sign in (1, -1):
        wc = np.maximum(w, 0.0) if sign == 1 else np.minimum(w, 0.0)
        P = V @ np.diag(wc) @ V.T
        ca, cb, cc = float(P[0, 0]), float(2.0 * P[0, 1]), float(P[1, 1])
        if ca == 0.0 and cc == 0.0:
            continue
        vals = ca * X * X + cb * X * Y + cc * Y * Y
        d = float(np.max(np.abs(vals - fvals)))
        if d < best_d:
            best_d = d
            best_poly = OnePhasePolynomial(ca, cb, cc, sign)
    return best_d, best_poly
