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
coarse grid keeps at least 17 nodes per axis, starts the coarsest level
from the harmonic extension, and each finer level (its values and its
states) from the bilinear prolongation of the level below, so a level
needs only a few sweeps, at most tol_pattern of them.  Before the states
are read, six red-black passes of nonlinear Gauss-Seidel on J_h move
each interior node of the start, harmonic or prolonged, to its exact
coordinate minimiser (projected relaxation after interpolation, which
Brandt & Cryer run until it fixes the states; six passes is where the
sweep counts stop falling); that removes the interface error of about
one cell that interpolation leaves, which would otherwise cost a sweep
or more, and J_h does not rise.  The harmonic
start only seeds the states, so it meets the loose target of the sweeps
below.

Sweeps are loose until the state pattern settles.  A sweep is a
semismooth Newton step (Hintermueller, Ito & Kunisch, SIAM J. Optim. 13,
2002), and a Newton step needs only the accuracy of its next decision
(Dembo, Eisenstat & Steihaug, SIAM J. Numer. Anal. 19, 1982), so while
the states move, CG stops at the release margin 100 tol_linear / h^2 of
the multiplier test: at a pinned node the Laplacian errs by about the
residual.  One solve has one such target, with h the finest grid step:
a coarse level only seeds the next one, so it needs no tighter target
than the finest level's loose sweeps, and returns at its first sweep
that changes no state.  On
the finest level such a sweep continues CG from its field down to
tol_linear and tests the states again, and every later sweep is tight;
the level returns only when a tight solve changes no state.  So only the
finest level's field meets tol_linear.

Each sweep's CG is preconditioned by one symmetric geometric V(1,1)
cycle on the free set (Tatebe, 6th Copper Mountain Conf. on Multigrid
Methods, 1993): pinned nodes are zero Dirichlet nodes on every level,
red-black Gauss-Seidel smooths before and, in mirrored colour order,
after the coarse-grid correction, and the restriction is the transpose
of the bilinear prolongation over 4 on any grid: an even interior length
halves as if its far ring node were pinned.  The iteration count per
sweep then stays near 10 whatever n.  Each level stores its vectors in
one flat, zero-ringed array whose rows have odd width W (mx + 2, or
mx + 3 when the interior width mx is even), so the red and black nodes
are the even and odd flat indices: a colour half-sweep reads its
neighbours as stride-2 slices at -1, +1, -W and +W, the five-point
operator runs over the contiguous interior rows, restriction writes
straight into the coarse level's input, and every work array is
allocated once per ladder.  Each node must be computed by the same
expression, in the same operand order, as on interior 2-D arrays with
boolean colour masks (the neighbour sum left + right + lower + upper, as
`grid._neighbor_sum` adds it), and each dot product must sum a contiguous
product of interior views; then the V-cycle and CG give that masked 2-D
form's results to the bit, which
`test_flat_vcycle_and_cg_match_the_masked_kernel_bit_for_bit` checks.
CG stops on its true residual: when the recursively updated residual
meets the target, b - A w is recomputed and the iteration restarts from
it if the drift left it above, unless it did not shrink since the last
restart, which marks the rounding floor.

A solve holds at most 11 arrays of the finest grid's size at once (10.5
at n = 129, 9.1 at n = 257 and 8.8 at n = 513, by tracemalloc); the
finest level's first V-cycle sets that peak.  CG iterates the caller's
flat start in place, so no 2-D field is alive beside it, shares the
finest level's scratch array, which every level of the ladder shares as
well, rebuilds b - A w from the caller's right-hand side instead of
holding b, and returns a view of its iterate.  The smoother takes
h^2 r / 4 from r at each half-sweep instead of storing it.  A sweep
rebuilds its right-hand side from the data, takes the Laplacian only at
pinned nodes, and drops its ladder before the next one is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .grid import (BoundaryMap, Grid2D, ScalarField, _neighbor_sum, _require_finite, _require_phases,
                   build_grid, laplacian_interior)


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
        _require_phases(self.lambda_plus, self.lambda_minus)
        _require_finite(tol_linear=self.tol_linear)
        if self.boundary.grid != self.grid:
            raise ValueError("boundary map grid differs from problem grid")
        if self.tol_linear <= 0.0:
            raise ValueError(f"tol_linear must be positive, got {self.tol_linear!r}")
        if (isinstance(self.tol_pattern, bool) or not isinstance(self.tol_pattern, (int, np.integer))
                or self.tol_pattern < 1):
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


class _Layout:
    """Flat, ringed storage of an my x mx interior in rows of odd width.

    The row width W is mx + 2, or mx + 3 when mx is even (one padding
    column), so interior node (i, j) sits at flat index (i + 1) W + j + 1,
    whose parity is that of i + j: the red nodes (i + j even) are the even
    indices and the black ones the odd indices.  A colour's nodes in the
    interior rows are one stride-2 slice, and their neighbours at -1, +1,
    -W and +W are stride-2 slices of the other colour.
    """

    def __init__(self, my: int, mx: int):
        self.shape = (my, mx)
        self.width = mx + 3 - mx % 2
        self.size = (my + 2) * self.width
        # the interior rows, ring and padding columns included, and each colour in them
        self.rows = slice(self.width, (my + 1) * self.width)
        self.colours = (slice(self.width + 1, self.rows.stop, 2), slice(self.width, self.rows.stop, 2))

    def inner(self, v: np.ndarray) -> np.ndarray:
        """The interior of flat array v, as a 2-D view."""
        return v.reshape(-1, self.width)[1:-1, 1:self.shape[1] + 1]

    def embed(self, interior: np.ndarray) -> np.ndarray:
        """A new zero-ringed flat array holding interior."""
        v = np.zeros(self.size)
        self.inner(v)[...] = interior
        return v

    def neighbors(self, v: np.ndarray, sl: slice, out: np.ndarray | None = None) -> np.ndarray:
        """Sum of the left, right, lower and upper neighbours of the nodes v[sl], in that order.

        sl is `rows` or one of `colours`: a slice of the interior rows.
        """
        a, b, k, w = sl.start, sl.stop, sl.step, self.width
        out = np.add(v[a - 1:b - 1:k], v[a + 1:b + 1:k], out=out)
        np.add(out, v[a - w:b - w:k], out=out)
        return np.add(out, v[a + w:b + w:k], out=out)


class _Level(_Layout):
    """One grid of the V-cycle: the five-point operator on a free set.

    Vectors are flat arrays of the layout; pinned nodes, the ring and the
    padding are zero Dirichlet nodes, held there by index lists of the
    interior rows (`fixed`) and of each colour slice (`fixed_colours`).
    The work arrays are allocated once: `rhs` is a coarse level's input
    (the finest level has none: its input is CG's residual), `z` its
    cycle's result, `out` the operator's result and `work` scratch.  The
    finest level (work None) allocates `work`, and every coarser level and
    `_cg` share it: each use ends before the next one begins.
    """

    def __init__(self, h: float, free: np.ndarray, work: np.ndarray | None = None):
        super().__init__(*free.shape)
        self.h2 = h * h
        self.free = free
        held = self.embed(free) == 0.0
        self.fixed = np.flatnonzero(held[self.rows])
        self.fixed_colours = tuple(np.flatnonzero(held[sl]) for sl in self.colours)
        self.rhs = None if work is None else np.zeros(self.size)
        self.z, self.out = np.zeros(self.size), np.zeros(self.size)
        # large enough for the prolongation of the coarse level, (2 (my // 2) + 3) rows
        self.work = np.empty((self.shape[0] + 3) * self.width) if work is None else work
        self.inverse: np.ndarray | None = None

    def apply(self, w: np.ndarray) -> np.ndarray:
        """(4w - sum of neighbours(w)) / h^2 on the free nodes, zero elsewhere.

        Returns `out`, which the next call overwrites.
        """
        out = self.out[self.rows]
        nbr = self.neighbors(w, self.rows, out=self.work[:out.size])
        np.multiply(4.0, w[self.rows], out=out)
        np.subtract(out, nbr, out=out)
        np.divide(out, self.h2, out=out)
        out[self.fixed] = 0.0
        return self.out

    def smooth(self, z: np.ndarray, r: np.ndarray, colours) -> None:
        """One Gauss-Seidel half-sweep of z per colour, in order: h^2 r / 4 + neighbours / 4."""
        for c in colours:
            sl = self.colours[c]
            new = z[sl]
            nbr = self.neighbors(z, sl, out=self.work[:new.size])
            np.multiply(0.25, nbr, out=nbr)
            # the colour's neighbours are of the other colour, so new is free to overwrite
            np.multiply(0.25 * self.h2, r[sl], out=new)
            np.add(new, nbr, out=new)
            new[self.fixed_colours[c]] = 0.0


def _restrict(fine: _Level, coarse: _Level) -> None:
    """Full weighting over 4 of fine.out into coarse.rhs: the transpose of cropped `_interpolate`.

    An interior length m has m // 2 coarse nodes; for even m the last one reads the far ring.
    """
    my, mx = fine.shape
    full = fine.out.reshape(-1, fine.width)
    r = fine.work[:(my + 2) * coarse.shape[1]].reshape(my + 2, -1)
    np.add(full[:, 1:mx:2], full[:, 3:mx + 2:2], out=r)
    np.multiply(0.5, r, out=r)
    np.add(full[:, 2:mx + 1:2], r, out=r)
    out = coarse.inner(coarse.rhs)
    np.add(r[1:my:2], r[3:my + 2:2], out=out)
    np.multiply(0.5, out, out=out)
    np.add(r[2:my + 1:2], out, out=out)
    np.multiply(0.25, out, out=out)
    coarse.rhs[coarse.rows][coarse.fixed] = 0.0


def _vcycle_ladder(h: float, free: np.ndarray) -> list[_Level]:
    """Levels of the V-cycle, finest first, with the coarsest inverse if small.

    Interior lengths m halve to m // 2 while both exceed 7, with no parity
    rule (see `_restrict`); a coarse node is free iff its collocated fine
    node is free.  The coarsest level carries the dense inverse of its free
    block when it has at most 256 nodes; otherwise smoothing alone is its cycle.
    Every level shares the finest level's `work`: a level's restriction
    reaches the coarse `rhs` before the coarse cycle runs, and its
    prolongation is written after that cycle returns.
    """
    ladder = [_Level(h, free)]
    while min(free.shape) > 7:
        h, free = 2.0 * h, free[1::2, 1::2]
        ladder.append(_Level(h, free, ladder[0].work))
    last = ladder[-1]
    if last.free.size <= 256:
        ids = np.arange(last.free.size).reshape(last.free.shape)
        a = 4.0 * np.eye(last.free.size)
        for i, j in ((ids[:, :-1], ids[:, 1:]), (ids[:-1, :], ids[1:, :])):
            a[i, j] = a[j, i] = -1.0
        keep = last.free.ravel()
        inv = np.zeros_like(a)
        inv[np.ix_(keep, keep)] = np.linalg.inv(a[np.ix_(keep, keep)]) * last.h2
        last.inverse = 0.5 * (inv + inv.T)
    return ladder


def _vcycle(ladder: list[_Level], r: np.ndarray, k: int = 0) -> np.ndarray:
    """One symmetric V(1,1) cycle for level k applied to flat r (zero off the free set).

    Red-black Gauss-Seidel from zero, red then black; the coarse-grid
    correction restricts the residual by full weighting and prolongs the
    coarse cycle's result bilinearly, masked to the free set; then black
    then red, the mirror of the pre-smoother, which keeps the cycle a
    symmetric positive definite operator.  Returns the level's `z`, which
    the next cycle on that level overwrites.
    """
    level = ladder[k]
    z = level.z
    if level.inverse is not None:
        level.inner(z)[...] = (level.inverse @ level.inner(r).ravel()).reshape(level.shape)
        return z
    # the red half-sweep from zero leaves h^2 r / 4 on the red nodes
    red = z[level.colours[0]]
    np.multiply(0.25 * level.h2, r[level.colours[0]], out=red)
    red[level.fixed_colours[0]] = 0.0
    level.smooth(z, r, (1,))
    if k + 1 < len(ladder):
        coarse = ladder[k + 1]
        np.subtract(r, level.apply(z), out=level.out)
        _restrict(level, coarse)
        ec = _vcycle(ladder, coarse.rhs, k + 1).reshape(-1, coarse.width)[:, :coarse.shape[1] + 2]
        # the prolongation's 2 (mx // 2) + 3 columns are exactly this level's row width
        rows_e = 2 * ec.shape[0] - 1
        e = _interpolate(ec, level.work[:rows_e * level.width].reshape(rows_e, -1)).ravel()
        rows = z[level.rows]
        np.add(rows, e[level.rows], out=rows)
        rows[level.fixed] = 0.0
    level.smooth(z, r, (1, 0))
    return z


def _cg(ladder: list[_Level], rhs: np.ndarray, w: np.ndarray, tol: float, max_iter: int):
    """PCG for (4w - sum of neighbors(w)) / h^2 = rhs on the free nodes of ladder[0].

    Pinned nodes (free == False) are held at zero and excluded from the
    system; the ring is zero as well.  The preconditioner is one symmetric
    V(1,1) cycle down the given ladder.  CG stops on the max-norm of the
    true residual: once the recursively updated residual meets tol,
    b - A w is recomputed and, if it is still above tol, the iteration
    restarts from it within the same max_iter.  A restart whose true
    residual is no smaller than the previous one's returns at once: the
    residual has reached its rounding floor.  rhs and the solution are
    interior arrays, and the start w is a flat array of the level's
    layout (zero on its ring and padding), which CG iterates in place, so
    the caller need hold no other copy of it.  The iteration runs on flat
    arrays of the layout, and each dot product sums a product of interior
    views.  The right-hand side is not held as a flat array: each restart
    embeds rhs into r.  The level's `work` array is scratch here too, as
    `tmp` and as the dot products' `prod`; every use of it ends before
    `apply` or `_vcycle` next writes it.
    Returns (solution, final max residual, iterations); the solution is an
    interior view of w.
    """
    fine = ladder[0]
    inner = fine.inner
    w[fine.rows][fine.fixed] = 0.0
    r, p = np.zeros(fine.size), np.empty(fine.size)
    my, mx = fine.shape
    tmp, prod = fine.work[:fine.size], fine.work[:my * mx].reshape(my, mx)

    def dot(x: np.ndarray, y: np.ndarray) -> float:
        return float(np.sum(np.multiply(inner(x), inner(y), out=prod)))

    def max_abs(x: np.ndarray) -> float:
        return float(np.max(np.abs(x, out=tmp)))

    it = 0
    res_prev = float("inf")
    while True:
        # b - A w, where b is rhs held at zero on the pinned nodes
        inner(r)[...] = rhs
        r[fine.rows][fine.fixed] = 0.0
        np.subtract(r, fine.apply(w), out=r)
        res = max_abs(r)
        if res <= tol or it == max_iter or res >= res_prev:
            return inner(w), res, it
        res_prev = res
        z = _vcycle(ladder, r)
        p[...] = z
        rz = dot(r, z)
        while it < max_iter:
            it += 1
            ap = fine.apply(p)
            alpha = rz / dot(p, ap)
            w += np.multiply(alpha, p, out=tmp)
            r -= np.multiply(alpha, ap, out=tmp)
            if max_abs(r) <= tol:
                break
            z = _vcycle(ladder, r)
            rz_new = dot(r, z)
            np.multiply(rz_new / rz, p, out=p)
            np.add(z, p, out=p)
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


def _interpolate(coarse: np.ndarray, fine: np.ndarray) -> np.ndarray:
    """Bilinear interpolation of a full grid array onto the twice finer grid.

    Writes the first 2 nx - 1 columns of fine, which has 2 ny - 1 rows, and returns it.
    """
    ny, nx = coarse.shape
    m = 2 * nx - 1
    fine[::2, :m:2] = coarse
    half = fine[::2, 1:m:2]
    np.add(coarse[:, :-1], coarse[:, 1:], out=half)
    np.multiply(0.5, half, out=half)
    odd = fine[1::2, :m]
    np.add(fine[:-2:2, :m], fine[2::2, :m], out=odd)
    np.multiply(0.5, odd, out=odd)
    return fine


def _prolong(coarse: np.ndarray, spec: ProblemSpec) -> np.ndarray:
    """Bilinear interpolation onto the twice finer grid of spec, its ring restored."""
    out = spec.boundary.values.copy()
    ny, nx = coarse.shape
    out[1:-1, 1:-1] = _interpolate(coarse, np.empty((2 * ny - 1, 2 * nx - 1)))[1:-1, 1:-1]
    return out


# red-black passes of `_relax` on every start: four leave the finest level of
# the shifted profile solves at 3 sweeps, eight gain nothing over six
_RELAX_PASSES = 6


def _relax(spec: ProblemSpec, full: np.ndarray) -> np.ndarray:
    """_RELAX_PASSES red-black nonlinear Gauss-Seidel passes on J_h from full; returns a new array.

    Each interior node takes its exact minimiser of J_h with its neighbours
    held: (S - h^2 lp / 2) / 4 if that is positive, (S + h^2 lm / 2) / 4 if
    that is negative, else 0, where S is its neighbour sum.  Nodes of one
    colour are not neighbours, so each colour updates at once through the
    stride-2 slices of the odd-width layout, and J_h does not rise.
    """
    g = spec.grid
    layout = _Layout(g.ny - 2, g.nx - 2)
    v = np.zeros(layout.size)
    v.reshape(-1, layout.width)[:, :g.nx] = full
    ring = layout.embed(np.ones(layout.shape)) == 0.0
    h2 = g.h * g.h
    lp, lm = 0.5 * h2 * spec.lambda_plus, 0.5 * h2 * spec.lambda_minus
    for sl in _RELAX_PASSES * layout.colours:
        s = layout.neighbors(v, sl)
        new = np.maximum(0.25 * (s - lp), 0.0) + np.minimum(0.25 * (s + lm), 0.0)
        v[sl] = np.where(ring[sl], v[sl], new)
    return v.reshape(-1, layout.width)[:, :g.nx].copy()


def solve(spec: ProblemSpec) -> tuple[ScalarField, SolveReport]:
    """Coarse-to-fine three-state active-set solve; returns the field and a SolveReport.

    The ladder halves the grid while nx - 1 and ny - 1 are both even and
    the coarse grid keeps at least 17 nodes per axis; a coarse level takes
    every other boundary node of the data.  The coarsest level starts from
    the harmonic extension of its data, solved to the loose target, and
    every finer level from the bilinear prolongation of the level below;
    each start is relaxed by six nonlinear Gauss-Seidel passes (`_relax`),
    which gives the level both its warm start and its initial state
    configuration.  A grid with odd n - 1 is a one-level ladder, though its
    CG runs the full V-cycle, and its one level starts from its relaxed
    harmonic extension.  Sweeps solve loosely, to the multiplier test's
    release margin 100 tol_linear / h^2 of the finest grid step h on every
    level, until the states settle; coarse levels stop there, and the
    finest level then re-solves down to tol_linear within the same sweep
    (see the module docstring).
    tol_pattern bounds the sweeps of every level; a tight re-solve is not
    a sweep of its own.  The report describes the finest level;
    `report.levels` holds one record per level, coarsest first.

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
    # release threshold above the CG noise floor: value errors of size
    # tol_linear are amplified by 1/h^2 in the discrete Laplacian; a pinned
    # node's Laplacian errs by about the residual, so it is also the CG
    # target of a loose sweep.  Coarse levels only seed the finest one, so
    # every level takes the finest level's margin.
    loose = 100.0 * spec.tol_linear / (spec.grid.h * spec.grid.h)
    levels: list[dict] = []
    u = None
    while ladder:
        # popped, a coarse level's data is dropped once the next level starts;
        # the prolonged start is not bound here, so `_active_set` can drop it once relaxed
        level = ladder.pop()
        u, report = _active_set(level, None if u is None else _prolong(u.values, level), loose, levels,
                                finest=level is spec)
    return u, report


def _active_set(spec: ProblemSpec, start: np.ndarray | None, tol_mult: float, levels: list[dict],
                finest: bool) -> tuple[ScalarField, SolveReport]:
    """Active-set loop on one grid from start, or from the harmonic extension, relaxed by `_relax`.

    tol_mult is the loose CG target and the release margin of the
    multiplier test.  Sweeps are loose until the states settle; only the
    finest level certifies them with a tight solve (see the module
    docstring).  Appends this level's record to levels, which the report
    shares.
    """
    g = spec.grid
    h2 = g.h * g.h
    tolz = spec.tol_zero
    lp, lm = spec.lambda_plus, spec.lambda_minus
    max_cg = 60 * max(g.nx, g.ny)
    # inner margin keeps residuals recomputed in fresh arithmetic under
    # tol_linear despite 1/h^2-amplified rounding
    tol_cg = 0.9 * spec.tol_linear

    bvals = spec.boundary.values
    record = {"nx": g.nx, "ny": g.ny, "sweeps": 0, "cg_iterations": 0}
    levels.append(record)

    if start is None:
        # harmonic initialization: all nodes free, zero forcing; it only
        # seeds the states, so it meets the loose target
        ladder = _vcycle_ladder(g.h, np.ones((g.ny - 2, g.nx - 2), dtype=bool))
        w, _, record["cg_iterations"] = _cg(
            ladder, _neighbor_sum(bvals) / h2, np.zeros(ladder[0].size), tol_mult, max_cg)
        start = bvals.copy()
        start[1:-1, 1:-1] = w
        del ladder, w
    # drop the unrelaxed start: kept through the sweeps, it would be one
    # more full grid at the solve's memory peak
    U, start = _relax(spec, start), None
    state = _pattern(U[1:-1, 1:-1], tolz)

    report = SolveReport(iterations=0, final_energy=float("inf"), final_residual=float("inf"),
                         levels=levels)
    tight = False

    for sweep in range(1, spec.tol_pattern + 1):
        free = state != 0
        ladder = _vcycle_ladder(g.h, free)
        # the data's neighbour sum over h^2, less the forcing: lp / 2 on the
        # positive nodes, -lm / 2 on the negative ones; rebuilt each sweep, not held
        rhs = _neighbor_sum(bvals) / h2
        np.subtract(rhs, 0.5 * lp, out=rhs, where=state > 0)
        np.add(rhs, 0.5 * lm, out=rhs, where=state < 0)
        while True:
            # CG iterates the embedded start in place and holds its pinned
            # nodes at zero; U and the last CG's array are dropped before it
            # runs, so no 2-D field is alive beside CG's arrays
            w = ladder[0].embed(U[1:-1, 1:-1])
            U = None
            w, res, its = _cg(ladder, rhs, w, tol_cg if tight else tol_mult, max_cg)
            record["cg_iterations"] += its
            U = bvals.copy()
            U[1:-1, 1:-1] = w

            # state update: sign violations route through the pinned state;
            # pinned nodes release only when their multiplier leaves the box:
            # the five-point Laplacian, taken at the pinned nodes alone in
            # `laplacian_interior`'s operand order
            i, j = np.nonzero(state == 0)
            lap = (U[1:-1, :-2][i, j] + U[1:-1, 2:][i, j] + U[:-2, 1:-1][i, j] + U[2:, 1:-1][i, j]
                   - 4.0 * w[i, j]) / h2
            new_state = state.copy()
            new_state[(state > 0) & (w < -tolz)] = 0
            new_state[(state < 0) & (w > tolz)] = 0
            rise, fall = lap > 0.5 * lp + tol_mult, lap < -0.5 * lm - tol_mult
            new_state[i[rise], j[rise]] = 1
            new_state[i[fall], j[fall]] = -1
            changes = int(np.count_nonzero(new_state != state))
            if changes or tight or not finest:
                break
            # the loose states are a fixed point: certify them with a tight solve
            tight = True
        # not read again: dropped, neither is alive while energy runs or the
        # next sweep's ladder is built
        del ladder, rhs

        record["sweeps"] = sweep
        report.pattern_changes.append(changes)
        report.final_energy = energy(spec, ScalarField(g, U))
        report.energy_history.append(report.final_energy)
        report.iterations = sweep
        report.final_residual = res

        if tight and res > spec.tol_linear:
            raise SolverError("linear residual target not met", report)
        if changes == 0:
            return ScalarField(g, U), report
        state = new_state

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
