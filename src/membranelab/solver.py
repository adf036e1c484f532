"""Dirichlet solver for the two-phase membrane equation on a uniform grid.

The discrete problem minimizes

    J_h(u) = sum h^2 ( |grad_h u|^2 / 2 + (lp/2) u+ + (lm/2) u- )

over fields matching the boundary data.  The minimizer satisfies the
five-point relation  lap_h u = (lp/2) chi{u > tol_zero} - (lm/2)
chi{u < -tol_zero}  away from a thin zero band, solved by a three-state
active-set iteration: nodes are positive (forcing lp/2), negative
(forcing -lm/2), or pinned to zero.  Each sweep solves the linear system
on the free nodes by preconditioned conjugate gradients, then updates
states: a free node whose sign crossed is routed through the pinned
state rather than flipped outright (flipping wholesale is the classic
oscillation mode of frozen-pattern iterations), and a pinned node is
released only when its discrete Laplacian, the multiplier of the u = 0
constraint, leaves the admissible interval [-lm/2, lp/2].  The energy of
every sweep's field is recorded as it is, not as a best so far, so its
decrease is a checkable postcondition.  A level fails in one of two
ways, each a SolverError carrying the report: its states do not settle
within tol_pattern sweeps, or a tight solve's CG stops above tol_linear.

Pinned nodes are released one layer per sweep, so from a harmonic start
the sweep count grows like n.  `solve` therefore runs the loop on a
ladder of nested grids (Brandt & Cryer, SIAM J. Sci. Stat. Comput. 4,
1983): it halves the grid while n - 1 stays even on both axes and the
coarse grid keeps at least 17 nodes per axis, solves the coarsest level
from the harmonic extension, and starts each finer level (its values and
its states) from the bilinear prolongation of the level below, so a
level needs only a few sweeps.  Each level runs at most tol_pattern
sweeps.

Sweeps are loose until the state pattern settles.  A sweep is a
semismooth Newton step (Hintermueller, Ito & Kunisch, SIAM J. Optim. 13,
2002), and a Newton step needs only the accuracy of its next decision
(Dembo, Eisenstat & Steihaug, SIAM J. Numer. Anal. 19, 1982), so while
the states move, CG stops at the release margin 100 tol_linear / h^2 of
the multiplier test: at a pinned node the Laplacian errs by about the
residual.  A coarse level only seeds the next one, so it meets only that
loose target and returns at its first sweep that changes no state.  On
the finest level such a sweep continues CG from its field down to
tol_linear and tests the states again, and every later sweep is tight;
the level returns only when a tight solve changes no state.  So only the
finest level's field meets tol_linear.

Each sweep's CG is preconditioned by one symmetric geometric V(1,1)
cycle on the free set (Tatebe, 6th Copper Mountain Conf. on Multigrid
Methods, 1993): pinned nodes are zero Dirichlet nodes on every level,
red-black Gauss-Seidel smooths before and, in mirrored colour order,
after the coarse-grid correction, and the restriction is the transpose
of the bilinear prolongation over 4.  The iteration count per sweep then
stays near 10 whatever n.  CG stops on its true residual: when the
recursively updated residual meets the target, b - A w is recomputed and
the iteration restarts from it if the drift left it above, unless it did
not shrink since the last restart, which marks the rounding floor.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .grid import BoundaryMap, Grid2D, ScalarField, _neighbor_sum, _require_finite, build_grid, laplacian_interior


@dataclass(frozen=True)
class ProblemSpec:
    """Grid, Dirichlet data, phase coefficients, and solver tolerances."""

    grid: Grid2D
    boundary: BoundaryMap
    lambda_plus: float
    lambda_minus: float
    tol_linear: float = 1e-10
    tol_pattern: int = 200

    def __post_init__(self) -> None:
        _require_finite(lambda_plus=self.lambda_plus, lambda_minus=self.lambda_minus,
                        tol_linear=self.tol_linear)
        if self.lambda_plus <= 0.0 or self.lambda_minus <= 0.0:
            raise ValueError("lambda_plus and lambda_minus must be positive")
        if self.boundary.grid != self.grid:
            raise ValueError("boundary map grid differs from problem grid")
        if self.tol_linear <= 0.0:
            raise ValueError(f"tol_linear must be positive, got {self.tol_linear!r}")
        if not isinstance(self.tol_pattern, (int, np.integer)) or self.tol_pattern < 1:
            raise ValueError(f"tol_pattern must be an int of at least 1, got {self.tol_pattern!r}")

    @property
    def tol_zero(self) -> float:
        """Half-width of the zero band: 1e-10 * (lambda_plus + lambda_minus)."""
        return 1e-10 * (self.lambda_plus + self.lambda_minus)


@dataclass
class SolveReport:
    """Per-solve diagnostics of the finest level solved so far.

    `pattern_changes[k]` counts state moves after sweep k, and
    `energy_history[k]` is the energy of sweep k's field; `levels` holds
    one `{nx, ny, sweeps, cg_iterations}` record per ladder level,
    coarsest first.  `cg_iterations` counts the iterations of loose and
    tight solves alike; `final_residual` is that of the level's last
    solve, which on the finest level is tight.
    """

    iterations: int
    final_energy: float
    final_residual: float
    pattern_changes: list[int] = field(default_factory=list)
    energy_history: list[float] = field(default_factory=list)
    converged: bool = True
    levels: list[dict] = field(default_factory=list)


class SolverError(RuntimeError):
    """Raised when the pattern iteration fails; carries the partial report, marked not converged."""

    def __init__(self, message: str, report: SolveReport):
        super().__init__(message)
        report.converged = False
        self.report = report


def energy(spec: ProblemSpec, u: ScalarField) -> float:
    """Discrete energy J_h(u), boundary edge terms included."""
    v = u.values
    grad = 0.5 * (np.sum((v[:, 1:] - v[:, :-1]) ** 2) + np.sum((v[1:, :] - v[:-1, :]) ** 2))
    h2 = spec.grid.h * spec.grid.h
    bulk = h2 * (
        0.5 * spec.lambda_plus * np.sum(np.maximum(v, 0.0))
        + 0.5 * spec.lambda_minus * np.sum(np.maximum(-v, 0.0))
    )
    return float(grad + bulk)


def _pattern(interior: np.ndarray, tol_zero: float) -> np.ndarray:
    p = np.zeros(interior.shape, dtype=np.int8)
    p[interior > tol_zero] = 1
    p[interior < -tol_zero] = -1
    return p


def _forcing(pattern: np.ndarray, lp: float, lm: float) -> np.ndarray:
    return 0.5 * lp * (pattern > 0) - 0.5 * lm * (pattern < 0)


@dataclass
class _Level:
    """One grid of the V-cycle: the five-point operator on a free set.

    Arrays are interior arrays; pinned nodes and the ring are zero
    Dirichlet nodes.  `red` and `black` are the free nodes of each colour
    of the checkerboard; `full` is the zero-ringed scratch array that
    neighbor sums read.
    """

    h2: float
    free: np.ndarray
    red: np.ndarray
    black: np.ndarray
    full: np.ndarray
    inverse: np.ndarray | None = None

    @classmethod
    def on(cls, h: float, free: np.ndarray) -> "_Level":
        my, mx = free.shape
        red = (np.arange(my)[:, None] + np.arange(mx)) % 2 == 0
        return cls(h * h, free, red & free, ~red & free, np.zeros((my + 2, mx + 2)))

    def neighbors(self, w: np.ndarray) -> np.ndarray:
        self.full[1:-1, 1:-1] = w
        return _neighbor_sum(self.full)

    def apply(self, w: np.ndarray) -> np.ndarray:
        """(4w - sum of neighbors(w)) / h^2 on the free nodes, zero elsewhere."""
        out = (4.0 * w - self.neighbors(w)) / self.h2
        out[~self.free] = 0.0
        return out

    def smooth(self, z: np.ndarray, q: np.ndarray, colors) -> np.ndarray:
        """One Gauss-Seidel half-sweep per colour mask, in order; q = h^2 r / 4."""
        for color in colors:
            z = np.where(color, q + 0.25 * self.neighbors(z), z)
        return z


def _restrict(r: np.ndarray) -> np.ndarray:
    """Full weighting: the transpose of interior bilinear interpolation, over 4."""
    r = r[:, 1::2] + 0.5 * (r[:, :-1:2] + r[:, 2::2])
    return 0.25 * (r[1::2, :] + 0.5 * (r[:-1:2, :] + r[2::2, :]))


def _vcycle_ladder(h: float, free: np.ndarray) -> list[_Level]:
    """Levels of the V-cycle, finest first, with the coarsest inverse if small.

    Interior arrays halve while m - 1 is even on both axes and both exceed
    7 nodes; a coarse node is free iff its collocated fine node is free.
    The coarsest level carries the dense inverse of its free block when it
    has at most 256 nodes; otherwise smoothing alone is its cycle.
    """
    ladder = [_Level.on(h, free)]
    while True:
        my, mx = free.shape
        if (my - 1) % 2 or (mx - 1) % 2 or min(my, mx) <= 7:
            break
        h, free = 2.0 * h, free[1::2, 1::2]
        ladder.append(_Level.on(h, free))
    last = ladder[-1]
    if last.free.size <= 256:
        my, mx = last.free.shape
        ids = np.arange(my * mx).reshape(my, mx)
        a = 4.0 * np.eye(my * mx)
        for i, j in ((ids[:, :-1], ids[:, 1:]), (ids[:-1, :], ids[1:, :])):
            a[i, j] = a[j, i] = -1.0
        keep = last.free.ravel()
        inv = np.zeros_like(a)
        inv[np.ix_(keep, keep)] = np.linalg.inv(a[np.ix_(keep, keep)]) * last.h2
        last.inverse = 0.5 * (inv + inv.T)
    return ladder


def _vcycle(ladder: list[_Level], r: np.ndarray, k: int = 0) -> np.ndarray:
    """One symmetric V(1,1) cycle for level k applied to r (zero off the free set).

    Red-black Gauss-Seidel from zero, red then black; the coarse-grid
    correction restricts the residual by full weighting and prolongs the
    coarse cycle's result bilinearly, masked to the free set; then black
    then red, the mirror of the pre-smoother, which keeps the cycle a
    symmetric positive definite operator.
    """
    level = ladder[k]
    if level.inverse is not None:
        return (level.inverse @ r.ravel()).reshape(r.shape)
    q = (0.25 * level.h2) * r
    # the red half-sweep from zero leaves q on the red nodes
    z = level.smooth(np.where(level.red, q, 0.0), q, (level.black,))
    if k + 1 < len(ladder):
        coarse = ladder[k + 1]
        rc = _restrict(r - level.apply(z))
        rc[~coarse.free] = 0.0
        ec = np.zeros(coarse.full.shape)
        ec[1:-1, 1:-1] = _vcycle(ladder, rc, k + 1)
        z += np.where(level.free, _interpolate(ec)[1:-1, 1:-1], 0.0)
    return level.smooth(z, q, (level.black, level.red))


def _cg(ladder: list[_Level], rhs: np.ndarray, w0: np.ndarray, tol: float, max_iter: int):
    """PCG for (4w - sum of neighbors(w)) / h^2 = rhs on the free nodes of ladder[0].

    Pinned nodes (free == False) are held at zero and excluded from the
    system; the ring is zero as well.  The preconditioner is one symmetric
    V(1,1) cycle down the given ladder.  CG stops on the max-norm of the
    true residual: once the recursively updated residual meets tol,
    b - A w is recomputed and, if it is still above tol, the iteration
    restarts from it within the same max_iter.  A restart whose true
    residual is no smaller than the previous one's returns at once: the
    residual has reached its rounding floor.
    Returns (solution, final max residual, iterations).
    """
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
        z = _vcycle(ladder, r)
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
            z = _vcycle(ladder, r)
            rz_new = float(np.sum(r * z))
            p = z + (rz_new / rz) * p
            rz = rz_new


def _coarsen(spec: ProblemSpec) -> ProblemSpec | None:
    """Every other node of the grid and its data; None for odd n - 1 or < 17 nodes left."""
    g = spec.grid
    if (g.nx - 1) % 2 or (g.ny - 1) % 2 or min(g.nx, g.ny) < 33:
        return None
    gc = build_grid(g.x_min, g.x_max, g.y_min, g.y_max, (g.nx + 1) // 2, (g.ny + 1) // 2)
    return replace(
        spec, grid=gc, boundary=BoundaryMap(gc, spec.boundary.values[::2, ::2])
    )


def _interpolate(coarse: np.ndarray) -> np.ndarray:
    """Bilinear interpolation of a full grid array onto the twice finer grid."""
    ny, nx = coarse.shape
    fine = np.empty((2 * ny - 1, 2 * nx - 1))
    fine[::2, ::2] = coarse
    fine[::2, 1::2] = 0.5 * (coarse[:, :-1] + coarse[:, 1:])
    fine[1::2, :] = 0.5 * (fine[:-2:2, :] + fine[2::2, :])
    return fine


def _prolong(coarse: np.ndarray, spec: ProblemSpec) -> np.ndarray:
    """Bilinear interpolation onto the twice finer grid of spec, its ring restored."""
    out = spec.boundary.values.copy()
    out[1:-1, 1:-1] = _interpolate(coarse)[1:-1, 1:-1]
    return out


def solve(spec: ProblemSpec) -> tuple[ScalarField, SolveReport]:
    """Coarse-to-fine three-state active-set solve; returns the field and a SolveReport.

    The ladder halves the grid while nx - 1 and ny - 1 are both even and
    the coarse grid keeps at least 17 nodes per axis; a coarse level takes
    every other boundary node of the data.  The coarsest level starts from
    the harmonic extension of its data, and every finer level from the
    bilinear prolongation of the level below, which is both its warm start
    and its initial state configuration.  A grid with odd n - 1 is a
    one-level ladder.  Sweeps solve loosely, to the multiplier test's
    release margin, until the states settle; coarse levels stop there,
    and the finest level then re-solves down to tol_linear within the
    same sweep (see the module docstring).  tol_pattern bounds the sweeps
    of every level; a tight re-solve is not a sweep of its own.  The
    report describes the finest level; `report.levels` holds one record
    per level, coarsest first.

    Postconditions: the returned field matches the boundary data exactly on
    boundary nodes, the five-point residual is at most tol_linear at every
    interior node outside the zero band, and the raw per-sweep energies of
    the finest level do not rise beyond rounding.  Raises SolverError,
    carrying the report of the level that failed, if a level's states do
    not settle within tol_pattern sweeps or a tight solve's CG stops above
    tol_linear.
    """
    ladder = [spec]
    while (coarse := _coarsen(ladder[-1])) is not None:
        ladder.append(coarse)
    levels: list[dict] = []
    u = None
    for level in reversed(ladder):
        start = None if u is None else _prolong(u.values, level)
        u, report = _active_set(level, start, levels, finest=level is spec)
    return u, report


def _active_set(spec: ProblemSpec, start: np.ndarray | None, levels: list[dict],
                finest: bool) -> tuple[ScalarField, SolveReport]:
    """Active-set loop on one grid from start, or from the harmonic extension.

    Sweeps are loose until the states settle; only the finest level
    certifies them with a tight solve (see the module docstring).
    Appends this level's record to levels, which the report shares.
    """
    g = spec.grid
    h2 = g.h * g.h
    tolz = spec.tol_zero
    lp, lm = spec.lambda_plus, spec.lambda_minus
    # release threshold above the CG noise floor: value errors of size
    # tol_linear are amplified by 1/h^2 in the discrete Laplacian; a pinned
    # node's Laplacian errs by about the residual, so it is also the CG
    # target of a loose sweep
    tol_mult = 100.0 * spec.tol_linear / h2
    max_cg = 60 * max(g.nx, g.ny)
    # inner margin keeps residuals recomputed in fresh arithmetic under
    # tol_linear despite 1/h^2-amplified rounding
    tol_cg = 0.9 * spec.tol_linear

    bvals = spec.boundary.values
    nbr_b = _neighbor_sum(bvals) / h2
    record = {"nx": g.nx, "ny": g.ny, "sweeps": 0, "cg_iterations": 0}
    levels.append(record)

    U = start
    if U is None:
        # harmonic initialization: all nodes free, zero forcing
        all_free = np.ones((g.ny - 2, g.nx - 2), dtype=bool)
        w, _, record["cg_iterations"] = _cg(_vcycle_ladder(g.h, all_free), nbr_b,
                                            np.zeros_like(nbr_b), tol_cg, max_cg)
        U = bvals.copy()
        U[1:-1, 1:-1] = w
    state = _pattern(U[1:-1, 1:-1], tolz)

    report = SolveReport(iterations=0, final_energy=float("inf"), final_residual=float("inf"),
                         levels=levels)
    tight = False

    for sweep in range(1, spec.tol_pattern + 1):
        free = state != 0
        ladder = _vcycle_ladder(g.h, free)
        rhs = -_forcing(state, lp, lm) + nbr_b
        w = np.where(free, U[1:-1, 1:-1], 0.0)
        while True:
            w, res, its = _cg(ladder, rhs, w, tol_cg if tight else tol_mult, max_cg)
            record["cg_iterations"] += its
            V = bvals.copy()
            V[1:-1, 1:-1] = w
            field_v = ScalarField(g, V)

            # state update: sign violations route through the pinned state;
            # pinned nodes release only when their multiplier leaves the box
            lap = laplacian_interior(field_v)
            new_state = state.copy()
            new_state[(state > 0) & (w < -tolz)] = 0
            new_state[(state < 0) & (w > tolz)] = 0
            pinned = state == 0
            new_state[pinned & (lap > 0.5 * lp + tol_mult)] = 1
            new_state[pinned & (lap < -0.5 * lm - tol_mult)] = -1
            changes = int(np.count_nonzero(new_state != state))
            if changes or tight or not finest:
                break
            # the loose states are a fixed point: certify them with a tight solve
            tight = True

        record["sweeps"] = sweep
        report.pattern_changes.append(changes)
        report.final_energy = energy(spec, field_v)
        report.energy_history.append(report.final_energy)
        report.iterations = sweep
        report.final_residual = res

        if tight and res > spec.tol_linear:
            raise SolverError("linear residual target not met", report)
        if changes == 0:
            return field_v, report
        state = new_state
        U = V

    raise SolverError(
        f"pattern iteration did not settle within {spec.tol_pattern} sweeps", report
    )


def residual_field(spec: ProblemSpec, u: ScalarField) -> ScalarField:
    """Five-point residual of the phase equation; zero in the band and on the ring.

    Nodes with |u| <= tol_zero sit in the free boundary band where the
    discrete equation imposes no forcing; their residual is zero by
    convention, as is the boundary ring where Dirichlet data lives.
    """
    if u.grid != spec.grid:
        raise ValueError("field grid differs from problem grid")
    vals = u.values
    out = np.zeros(spec.grid.shape)
    lap = laplacian_interior(u)
    inner = vals[1:-1, 1:-1]
    f = _forcing(_pattern(inner, spec.tol_zero), spec.lambda_plus, spec.lambda_minus)
    r = lap - f
    r[np.abs(inner) <= spec.tol_zero] = 0.0
    out[1:-1, 1:-1] = r
    return ScalarField(spec.grid, out)


@dataclass(frozen=True)
class ComparisonResult:
    """Sup-norm interior and boundary differences plus the ordering verdict."""

    sup_interior_diff: float
    sup_boundary_diff: float
    holds: bool


def comparison_check(
    u1: ScalarField, spec1: ProblemSpec, u2: ScalarField, spec2: ProblemSpec
) -> ComparisonResult:
    """Check sup interior |u1-u2| <= sup boundary |d1-d2| plus solver slack.

    Each field ``uk`` solves ``speck``, whose boundary map is its Dirichlet
    data ``dk``; the slack is ten times the looser of the two specs'
    ``tol_linear``.
    """
    if u1.grid != spec1.grid or u2.grid != spec2.grid or spec1.grid != spec2.grid:
        raise ValueError("comparison requires a shared grid")
    sup_int = float(np.max(np.abs(u1.values[1:-1, 1:-1] - u2.values[1:-1, 1:-1])))
    sup_bdy = spec1.boundary.sup_diff(spec2.boundary)
    tol_linear = max(spec1.tol_linear, spec2.tol_linear)
    return ComparisonResult(sup_int, sup_bdy, sup_int <= sup_bdy + 10.0 * tol_linear)
