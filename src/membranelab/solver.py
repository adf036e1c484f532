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
constraint, leaves the admissible interval [-lm/2, lp/2].  Energy is
tracked every sweep and reported as a non-increasing best-so-far
sequence; a repeated state configuration triggers forced pinning of the
oscillating nodes before failure is declared.

Pinned nodes are released one layer per sweep, so from a harmonic start
the sweep count grows like n.  `solve` therefore runs the loop on a
ladder of nested grids (Brandt & Cryer, SIAM J. Sci. Stat. Comput. 4,
1983): it halves the grid while n - 1 stays even on both axes and the
coarse grid keeps at least 17 nodes per axis, solves the coarsest level
from the harmonic extension, and starts each finer level (its values and
its states) from the bilinear prolongation of the level below, so a
level needs only a few sweeps.  Each level runs at most tol_pattern
sweeps.  CG stops on its true residual: when the recursively updated
residual meets the target, b - A w is recomputed and the iteration
restarts from it if the drift left it above.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .grid import BoundaryMap, Grid2D, ScalarField, build_grid, laplacian_interior


@dataclass(frozen=True)
class ProblemSpec:
    """Grid, Dirichlet data, phase coefficients, and solver tolerances."""

    grid: Grid2D
    boundary: BoundaryMap
    lambda_plus: float
    lambda_minus: float
    tol_linear: float = 1e-10
    tol_pattern: int = 200
    tol_zero: float | None = None

    def __post_init__(self) -> None:
        if self.lambda_plus <= 0.0 or self.lambda_minus <= 0.0:
            raise ValueError("lambda_plus and lambda_minus must be positive")
        if self.boundary.grid != self.grid:
            raise ValueError("boundary map grid differs from problem grid")
        if self.tol_linear <= 0.0 or self.tol_pattern < 1:
            raise ValueError("bad solver tolerances")
        if self.tol_zero is None:
            object.__setattr__(
                self, "tol_zero", 1e-10 * (self.lambda_plus + self.lambda_minus)
            )
        elif self.tol_zero <= 0.0:
            raise ValueError("tol_zero must be positive")


@dataclass
class SolveReport:
    """Per-solve diagnostics of the finest level solved so far.

    `pattern_changes[k]` counts state moves after sweep k; `levels` holds
    one `{nx, ny, sweeps, cg_iterations}` record per ladder level,
    coarsest first.
    """

    iterations: int
    final_energy: float
    final_residual: float
    pattern_changes: list[int] = field(default_factory=list)
    energy_history: list[float] = field(default_factory=list)
    converged: bool = True
    levels: list[dict] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "iterations": self.iterations,
            "final_energy": self.final_energy,
            "final_residual": self.final_residual,
            "pattern_changes": list(self.pattern_changes),
            "energy_history": list(self.energy_history),
            "converged": self.converged,
            "levels": [dict(level) for level in self.levels],
        }


class SolverError(RuntimeError):
    """Raised when the pattern iteration fails; carries the partial report."""

    def __init__(self, message: str, report: SolveReport):
        super().__init__(message)
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


def _neighbor_sum(full: np.ndarray) -> np.ndarray:
    return full[1:-1, :-2] + full[1:-1, 2:] + full[:-2, 1:-1] + full[2:, 1:-1]


def _cg(grid: Grid2D, rhs: np.ndarray, w0: np.ndarray, free: np.ndarray,
        tol: float, max_iter: int):
    """PCG for (4w - sum of neighbors(w)) / h^2 = rhs on the free nodes.

    Pinned nodes (free == False) are held at zero and excluded from the
    system; the ring is zero as well.  Jacobi preconditioning; stops on
    the max-norm of the true residual: once the recursively updated
    residual meets tol, b - A w is recomputed and, if it is still above
    tol, the iteration restarts from it within the same max_iter.
    Returns (solution, final max residual, iterations).
    """
    h2 = grid.h * grid.h
    ny, nx = grid.shape
    full = np.zeros((ny, nx))

    def apply_a(w: np.ndarray) -> np.ndarray:
        full[1:-1, 1:-1] = w
        out = (4.0 * w - _neighbor_sum(full)) / h2
        out[~free] = 0.0
        return out

    b = np.where(free, rhs, 0.0)
    w = np.where(free, w0, 0.0)
    minv = h2 / 4.0
    it = 0
    while True:
        r = b - apply_a(w)
        res = float(np.max(np.abs(r)))
        if res <= tol or it == max_iter:
            return w, res, it
        z = minv * r
        p = z.copy()
        rz = float(np.sum(r * z))
        while it < max_iter:
            it += 1
            ap = apply_a(p)
            alpha = rz / float(np.sum(p * ap))
            w += alpha * p
            r -= alpha * ap
            if float(np.max(np.abs(r))) <= tol:
                break
            z = minv * r
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


def _prolong(coarse: np.ndarray, spec: ProblemSpec) -> np.ndarray:
    """Bilinear interpolation onto the twice finer grid of spec, its ring restored."""
    fine = np.zeros(spec.grid.shape)
    fine[::2, ::2] = coarse
    fine[::2, 1::2] = 0.5 * (coarse[:, :-1] + coarse[:, 1:])
    fine[1::2, :] = 0.5 * (fine[:-2:2, :] + fine[2::2, :])
    out = spec.boundary.values.copy()
    out[1:-1, 1:-1] = fine[1:-1, 1:-1]
    return out


def solve(spec: ProblemSpec) -> tuple[ScalarField, SolveReport]:
    """Coarse-to-fine three-state active-set solve; returns the field and a SolveReport.

    The ladder halves the grid while nx - 1 and ny - 1 are both even and
    the coarse grid keeps at least 17 nodes per axis; a coarse level takes
    every other boundary node of the data.  The coarsest level starts from
    the harmonic extension of its data, and every finer level from the
    bilinear prolongation of the level below, which is both its warm start
    and its initial state configuration.  A grid with odd n - 1 is a
    one-level ladder.  tol_pattern bounds the sweeps of every level.  The
    report describes the finest level; `report.levels` holds one record
    per level, coarsest first.

    Postconditions: the returned field matches the boundary data exactly on
    boundary nodes, the five-point residual is at most tol_linear at every
    interior node outside the zero band, and the recorded energies are
    non-increasing.  Raises SolverError, carrying the report of the level
    that failed, if a level's states do not settle within tol_pattern
    sweeps.
    """
    ladder = [spec]
    while (coarse := _coarsen(ladder[-1])) is not None:
        ladder.append(coarse)
    levels: list[dict] = []
    u = None
    for level in reversed(ladder):
        u, report = _active_set(level, None if u is None else _prolong(u.values, level), levels)
    return u, report


def _active_set(spec: ProblemSpec, start: np.ndarray | None,
                levels: list[dict]) -> tuple[ScalarField, SolveReport]:
    """Active-set loop on one grid from start, or from the harmonic extension.

    Appends this level's record to levels, which the report shares.
    """
    g = spec.grid
    h2 = g.h * g.h
    tolz = spec.tol_zero
    lp, lm = spec.lambda_plus, spec.lambda_minus
    # release threshold above the CG noise floor: value errors of size
    # tol_linear are amplified by 1/h^2 in the discrete Laplacian
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
        free = np.ones((g.ny - 2, g.nx - 2), dtype=bool)
        w, _, record["cg_iterations"] = _cg(g, nbr_b, np.zeros_like(nbr_b), free,
                                            tol_cg, max_cg)
        U = bvals.copy()
        U[1:-1, 1:-1] = w
    state = _pattern(U[1:-1, 1:-1], tolz)
    J_best = energy(spec, ScalarField(g, U))

    report = SolveReport(iterations=0, final_energy=J_best, final_residual=float("inf"),
                         levels=levels)
    key_prev = state.tobytes()
    key_prev_prev = None
    forced_pins = 0

    for sweep in range(1, spec.tol_pattern + 1):
        free = state != 0
        rhs = -_forcing(state, lp, lm) + nbr_b
        warm = np.where(free, U[1:-1, 1:-1], 0.0)
        w, res, its = _cg(g, rhs, warm, free, tol_cg, max_cg)
        record["sweeps"] = sweep
        record["cg_iterations"] += its
        V = bvals.copy()
        V[1:-1, 1:-1] = w
        field_v = ScalarField(g, V)
        J_new = energy(spec, field_v)

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
        J_best = min(J_best, J_new)
        report.pattern_changes.append(changes)
        report.energy_history.append(J_best)
        report.iterations = sweep
        report.final_energy = J_new
        report.final_residual = res

        if changes == 0:
            if res > spec.tol_linear:
                report.converged = False
                raise SolverError("linear residual target not met", report)
            report.converged = True
            return field_v, report

        key = new_state.tobytes()
        if key_prev_prev is not None and key == key_prev_prev:
            # 2-cycle between state configurations: freeze the oscillating
            # nodes at zero (the energy-cautious state at the kink) and let
            # the multiplier test release them one layer at a time
            forced_pins += 1
            if forced_pins > 20:
                report.converged = False
                raise SolverError("state cycling persists after forced pinning", report)
            new_state[new_state != state] = 0
            key = new_state.tobytes()
        key_prev_prev = key_prev
        key_prev = key
        state = new_state
        U = V

    report.converged = False
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
    u1: ScalarField,
    u2: ScalarField,
    d1: BoundaryMap,
    d2: BoundaryMap,
    tol_linear: float = 1e-10,
) -> ComparisonResult:
    """Check sup interior |u1-u2| <= sup boundary |d1-d2| plus solver slack."""
    if u1.grid != u2.grid or d1.grid != u1.grid or d2.grid != u1.grid:
        raise ValueError("comparison requires a shared grid")
    sup_int = float(np.max(np.abs(u1.values[1:-1, 1:-1] - u2.values[1:-1, 1:-1])))
    sup_bdy = d1.sup_diff(d2)
    return ComparisonResult(sup_int, sup_bdy, sup_int <= sup_bdy + 10.0 * tol_linear)
