"""Free boundary extraction and pointwise diagnostics.

Contours the two phase boundaries of a thresholded field, classifies
points on them through a gradient / functional-decay / blow-up decision
chain, fits the boundaries as a pair of graphs in a rotated frame, traces
normalized circle restrictions and their reflection antisymmetrization,
and reports covering numbers and the polyline length of each whole phase
boundary.  A ``FieldAnalysis`` holds one solved field together with its
gradient fields, its free boundary and its directional psi ladders, each
built once and shared by every analysis of that field.  Classification
reads three cuts, of which only the gradient cut depends on the field's
problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import Grid2D, ScalarField, build_grid, gradient_fields, interpolate_many
from .monotonicity import (
    DegenerateRescaleError,
    RadiusLadder,
    _nonzero_s_norm,
    blowup_rescale,
    directional_psi,
)
from .profiles import dist_to_M, dist_to_M_below, dist_to_polynomial_class
from .solver import ProblemSpec


class ZeroSetEmptyError(ValueError):
    """A phase boundary is absent from the requested window."""


class NotVerticallySimpleError(ValueError):
    """The boundary is not a graph over the transverse coordinate."""


# ---------------------------------------------------------------------------
# Marching-squares extraction
# ---------------------------------------------------------------------------
#
# Cells are scanned for sign changes of s = values - level with "inside"
# meaning s > 0 strictly.  Corner bits order (BL, BR, TR, TL) = (1, 2, 4, 8);
# the interpolated crossing on an edge with endpoint values a, b sits at
# t = a / (a - b).  A cell's segments separate its inside corners from its
# outside ones, so swapping the two (code c to its complement 15 - c)
# keeps them; a saddle also swaps its centre, so saddle 10 with one centre
# sign has the segments of saddle 5 with the other.  Extracted vertices
# live on cell edges, so stitching chains is pure bookkeeping: edges are
# nodes of a graph of degree <= 2.

# The segments of the 8 distinct cell configurations, as pairs of sides; a
# saddle (code 5) is keyed by its code and whether its cell-centre average
# is positive.  The complements, 15 - c and saddle 10 with the other
# centre sign, are derived from them by the rule above.
_SEGMENTS = {
    1: (("L", "B"),),
    2: (("B", "R"),),
    3: (("L", "R"),),
    4: (("R", "T"),),
    6: (("B", "T"),),
    7: (("L", "T"),),
    (5, True): (("B", "R"), ("T", "L")),
    (5, False): (("L", "B"), ("R", "T")),
}
_SEGMENTS |= {(15 - c if isinstance(c, int) else (10, not c[1])): seg for c, seg in _SEGMENTS.items()}

# Each side's edge as (kind, di, dj): edges are keyed by their lower-left
# node (i + di, j + dj); 'h' runs to the node on its right, 'v' to the one above.
_SIDES = {"B": ("h", 0, 0), "T": ("h", 0, 1), "L": ("v", 0, 0), "R": ("v", 1, 0)}


def _edge_point(grid: Grid2D, s: np.ndarray, key: tuple) -> tuple[float, float]:
    kind, i, j = key
    a = s[j, i]
    if kind == "h":
        t = a / (a - s[j, i + 1])
        return (grid.x(i) + t * grid.h, grid.y(j))
    t = a / (a - s[j + 1, i])
    return (grid.x(i), grid.y(j) + t * grid.h)


def _contour_chains(grid: Grid2D, s: np.ndarray) -> list[np.ndarray]:
    ins = s > 0.0
    code = (
        ins[:-1, :-1].astype(np.int8)
        + 2 * ins[:-1, 1:]
        + 4 * ins[1:, 1:]
        + 8 * ins[1:, :-1]
    )
    js, is_ = np.nonzero((code != 0) & (code != 15))

    links: dict[tuple, list] = {}
    for j, i in zip(js.tolist(), is_.tolist()):
        c = int(code[j, i])
        if c in (5, 10):
            c = (c, bool(0.25 * (s[j, i] + s[j, i + 1] + s[j + 1, i + 1] + s[j + 1, i]) > 0.0))
        for sides in _SEGMENTS[c]:
            ka, kb = ((kind, i + di, j + dj) for kind, di, dj in (_SIDES[side] for side in sides))
            links.setdefault(ka, []).append(kb)
            links.setdefault(kb, []).append(ka)

    visited: set = set()
    out = []
    # open chains start at degree-1 edges, which sort first; whatever is
    # unvisited by then has degree 2 and belongs to a closed loop
    for start in sorted(links, key=lambda k: (len(links[k]) != 1, k)):
        if start in visited:
            continue
        visited.add(start)
        pts = [_edge_point(grid, s, start)]
        cur = start
        while True:
            for nxt in links[cur]:
                if nxt not in visited:
                    break
            else:
                break
            visited.add(nxt)
            pts.append(_edge_point(grid, s, nxt))
            cur = nxt
        pts = np.array(pts, dtype=float)
        # drop exact duplicates from crossings that land on a shared node
        keep = np.ones(len(pts), dtype=bool)
        keep[1:] = np.any(np.diff(pts, axis=0) != 0.0, axis=1)
        pts = pts[keep]
        if len(links[start]) == 2 and len(pts) > 2:
            pts = np.vstack([pts, pts[:1]])
        out.append(pts)
    return out


def _pooled(chains) -> np.ndarray:
    """The vertices of a sequence of chains as one (k, 2) array, (0, 2) if none."""
    return np.vstack(chains) if chains else np.zeros((0, 2))


@dataclass(frozen=True)
class FreeBoundarySet:
    """Polyline approximations of the two phase boundaries.

    Chains are ordered (k, 2) point arrays; closed components repeat their
    first vertex.
    """

    plus_boundary: tuple
    minus_boundary: tuple

    def all_vertices(self) -> np.ndarray:
        """Every chain's vertices as one (k, 2) array, in the walk's order.

        Plus chains come before minus chains.  In each phase, open chains
        come first, from their sorted end edges, then closed loops; each
        chain lists its vertices as the walk meets them.  So the order is
        set by the sign patterns of u -+ tol_zero and by the sign of each
        saddle cell's centre average, not by vertex coordinates: a
        rounding-level change of the field that keeps both moves each
        vertex by rounding and keeps its index.  Every reader of the
        vertices takes them in this order.
        """
        return _pooled(self.plus_boundary + self.minus_boundary)


def extract_free_boundary(u: ScalarField, tol_zero: float) -> FreeBoundarySet:
    """Contour the phase boundaries at the +-tol_zero levels of u.

    The positive phase boundary is the tol_zero level set of u, the
    negative one the tol_zero level set of -u, so a dead zone between the
    phases produces two distinct curves.  A tol_zero that is negative, NaN
    or infinite is a ValueError.
    """
    # an in-range test, so NaN, which fails every comparison, is rejected too
    if not 0.0 <= tol_zero < math.inf:
        raise ValueError(f"tol_zero must be nonnegative and finite, got {tol_zero!r}")
    plus = _contour_chains(u.grid, u.values - tol_zero)
    minus = _contour_chains(u.grid, -u.values - tol_zero)
    return FreeBoundarySet(tuple(plus), tuple(minus))


class FieldAnalysis:
    """A solved field, its problem, and what the analysis derives from them.

    ``spec`` is the ``ProblemSpec`` the field solves: its zero band
    ``tol_zero`` sets the contours and its phase coefficients set the ramp
    class every blow-up is measured against and the gradient cut of
    ``classify_point``.  ``gradients`` (``gradient_fields`` of ``u``) and
    ``free_boundary`` (its contours at the +-``tol_zero`` levels) are
    computed on first use and kept, so every classification, graph fit and
    estimate on the field shares them.  ``psi_profiles(ladder)`` is kept
    per ladder in the same way, so a point's classification and its
    ``psi_ladder`` diagnostic share one evaluation.  Nothing else tied to a
    query point is kept.
    """

    def __init__(self, u: ScalarField, spec: ProblemSpec):
        if u.grid != spec.grid:
            raise ValueError("field grid differs from problem grid")
        self.u = u
        self.spec = spec
        self._psi: dict = {}

    def psi_profiles(self, ladder: RadiusLadder) -> dict:
        """``directional_psi`` along each of ``_DIRECTIONS``, by direction name.

        Evaluated the first time ``ladder`` asks for it, then kept.  A
        direction with a part that vanishes on the window, or whose psi is
        provably at most eps pi^2/4 there (its bound 64 pi^2 (M+ M-)^2 / h^4
        from the parts' largest values), reads psi 0.0 and is not
        interpolated.
        """
        if ladder not in self._psi:
            profs = directional_psi(self.gradients, ladder, [e for _, e in _DIRECTIONS])
            self._psi[ladder] = {name: prof for (name, _), prof in zip(_DIRECTIONS, profs)}
        return self._psi[ladder]

    @cached_property
    def gradients(self) -> tuple[ScalarField, ScalarField]:
        return gradient_fields(self.u)

    @cached_property
    def free_boundary(self) -> FreeBoundarySet:
        return extract_free_boundary(self.u, self.spec.tol_zero)


# ---------------------------------------------------------------------------
# Point classification
# ---------------------------------------------------------------------------

# The classification cuts that do not scale with the grid: psi decay below
# 1% of the generic product scale pi^2/4, and a blow-up distance below 0.1
# on the normalized unit disk.
_PSI_REF = math.pi * math.pi / 4.0
_TOL_PSI = 1e-2 * _PSI_REF
_TOL_DIST = 0.1

_DIRECTIONS = (
    ("e1", (1.0, 0.0)),
    ("e2", (0.0, 1.0)),
    ("diag", (math.sqrt(0.5), math.sqrt(0.5))),
    ("antidiag", (math.sqrt(0.5), -math.sqrt(0.5))),
)

_LABELS = ("regular", "branch", "one_phase_singular", "indeterminate")

# The [-1, 1]^2 grid that blow-ups are sampled on.
_BLOWUP_GRID = build_grid(-1.0, 1.0, -1.0, 1.0, 65, 65)

# The smallest graph-fit window and covering radius, in grid steps.
MIN_WINDOW_STEPS = 8.0
MIN_EPS_STEPS = 2.0


def check_window(grid: Grid2D, window: float) -> None:
    """ValueError unless a graph-fit window is finite and covers MIN_WINDOW_STEPS grid steps."""
    # an in-range test, so NaN, which fails every comparison, is rejected too
    if not MIN_WINDOW_STEPS * grid.h <= window < math.inf:
        raise ValueError(f"must cover at least {MIN_WINDOW_STEPS:g} grid steps ({MIN_WINDOW_STEPS * grid.h!r})")


def check_eps(grid: Grid2D, eps: float) -> None:
    """ValueError unless a covering radius is finite and at least MIN_EPS_STEPS grid steps."""
    if not MIN_EPS_STEPS * grid.h <= eps < math.inf:
        raise ValueError(f"must be at least {MIN_EPS_STEPS:g} grid steps ({MIN_EPS_STEPS * grid.h!r})")


# The default classification ladder, in grid steps, largest radius first.
LADDER_STEPS = (32.0, 16.0, 8.0)


@dataclass(frozen=True)
class PointClass:
    """Classification label with the evidence behind the decisive test."""

    label: str
    evidence: dict

    def __post_init__(self) -> None:
        if self.label not in _LABELS:
            raise ValueError(f"unknown label {self.label!r}")


def classify_point(fa: FieldAnalysis, ladder: RadiusLadder, evidence: bool = True) -> PointClass:
    """Classify the free boundary point at the ladder's center.

    Decision chain: a resolvable gradient means regular; decay of the
    directional product functional (``fa.psi_profiles``) at the smallest
    radius plus a blow-up close to the ramp class means branch; a blow-up
    close to a sign-definite quadratic means one_phase_singular; anything
    else is indeterminate.  A degenerate rescale (field vanishing on the blow-up
    circle) is indeterminate as well.  The gradient at the center is the
    bilinear interpolant of the field's gradient fields.  Three cuts decide:
    the gradient norm against tol_grad = 10 h (lambda_plus + lambda_minus),
    above discretization noise; every direction's psi at the smallest
    radius against _TOL_PSI; and both blow-up distances against _TOL_DIST.
    A direction's psi is written as 0.0 where its bound is at most
    eps pi^2/4, about 13 orders of magnitude under _TOL_PSI, so the rule
    moves no label.
    The label reads only ``ladder.radii[-1]``: the psi of each direction
    and the blow-up there.  The larger radii are evidence only, so a
    one-radius ladder at the smallest radius gives the same label.

    With ``evidence=False`` the ramp distance is not recorded
    (``dist_to_m`` stays None and ``best_theta`` is absent); the label and
    every other entry are the full call's.  The distance is not computed
    when psi does not decay, since the label then reads only the
    polynomial distance, and otherwise ``dist_to_M_below`` answers whether
    it is below _TOL_DIST, stopping the search once that is sure.
    """
    s = fa.spec
    tol_grad = 10.0 * s.grid.h * (s.lambda_plus + s.lambda_minus)
    p = ladder.center
    gx, gy = fa.gradients
    x, y = np.array([p[0]]), np.array([p[1]])
    gn = float(np.hypot(interpolate_many(gx, x, y)[0], interpolate_many(gy, x, y)[0]))
    record: dict = {
        "gradient_norm": gn,
        "psi": None,
        "dist_to_m": None,
        "dist_to_poly": None,
        "decided_by": None,
    }

    if gn > tol_grad:
        record["decided_by"] = "gradient"
        return PointClass("regular", record)

    psi = {name: prof.values for name, prof in fa.psi_profiles(ladder).items()}
    record["psi"] = psi
    decays = all(vals[-1] < _TOL_PSI for vals in psi.values())

    try:
        v0 = blowup_rescale(fa.u, p, ladder.radii[-1], _BLOWUP_GRID)
    except DegenerateRescaleError:
        record["decided_by"] = "degenerate_rescale"
        return PointClass("indeterminate", record)
    if evidence:
        dist_m, best = dist_to_M(v0, lambda_plus=s.lambda_plus, lambda_minus=s.lambda_minus)
        record["dist_to_m"] = dist_m
        record["best_theta"] = best.theta
        near = dist_m < _TOL_DIST
    else:
        near = decays and dist_to_M_below(v0, _TOL_DIST, lambda_plus=s.lambda_plus, lambda_minus=s.lambda_minus)
    if decays and near:
        record["decided_by"] = "psi_decay+dist_to_m"
        return PointClass("branch", record)

    dist_poly, _ = dist_to_polynomial_class(v0)
    record["dist_to_poly"] = dist_poly
    if dist_poly < _TOL_DIST:
        record["decided_by"] = "dist_to_polynomial"
        return PointClass("one_phase_singular", record)

    record["decided_by"] = "exhausted"
    return PointClass("indeterminate", record)


# ---------------------------------------------------------------------------
# Graph fitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GraphFit:
    """Two phase boundaries as graphs over a transverse axis.

    ``theta`` is the frame's rotation: the best ramp fit's at the point
    (``graph_frame``), unless the caller passed a frame in, as a sweep
    passes its reference field's.  ``direction`` is the graph axis of that
    frame (the ramp's monotone coordinate), ``transverse`` the axis the
    graphs are sampled over.
    gplus is the sup of the graph coordinate over plus-boundary vertices
    per transverse bin, gminus the inf over minus-boundary ones.

    Both readouts come from chords of these binned graphs, each spanning
    ``nb // 4`` of the ``nb`` bins of about 2h, that is window / 2:
    ``lipschitz_estimate`` is the largest |chord slope| over both graphs,
    and ``max_normal_oscillation`` the largest, over the two graphs, of
    max - min of arctan(chord slope).  At that scale they read the curve,
    not the grid: the contours of a rotated straight interface are a
    staircase whose adjacent segments turn by pi/4 at every h.
    """

    direction: tuple[float, float]
    transverse: tuple[float, float]
    theta: float
    t_samples: np.ndarray
    gplus: np.ndarray
    gminus: np.ndarray
    lipschitz_estimate: float
    max_normal_oscillation: float


def graph_frame(fa: FieldAnalysis, p: tuple[float, float], window: float) -> float:
    """The rotation theta of the best ramp fit to the blow-up at p with radius ``window / 2``.

    Its monotone coordinate is the graph axis of ``fit_two_graphs``.  A
    window under MIN_WINDOW_STEPS grid steps fails ``check_window``.
    """
    check_window(fa.u.grid, window)
    v0 = blowup_rescale(fa.u, p, 0.5 * window, _BLOWUP_GRID)
    _, best = dist_to_M(v0, lambda_plus=fa.spec.lambda_plus, lambda_minus=fa.spec.lambda_minus)
    return best.theta


def fit_two_graphs(fa: FieldAnalysis, p: tuple[float, float], window: float,
                   theta: float | None = None) -> GraphFit:
    """Fit both phase boundaries as graphs near a degenerate point.

    The frame is the rotation ``theta``; without one it is
    ``graph_frame(fa, p, window)``, the frame of the best ramp fit to the
    blow-up at p.  Vertices are collected in a square window of
    half-width ``window`` around p in the rotated frame and binned into
    nb = max(4, round(window / h)) transverse bins of about two grid
    steps.  Slopes and normals are read from chords of ``nb // 4`` bins,
    window / 2 or a quarter of the fitted width 2 window (see
    ``GraphFit``).  A window under MIN_WINDOW_STEPS grid steps fails
    ``check_window`` and a theta that is not finite is a ValueError;
    every other error names the point, the window and the phase.
    """
    g = fa.u.grid
    check_window(g, window)
    if theta is None:
        theta = graph_frame(fa, p, window)
    elif not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta!r}")
    d = np.array([math.cos(theta), -math.sin(theta)])
    t = np.array([math.sin(theta), math.cos(theta)])
    where = f"in the fit at ({p[0]}, {p[1]}) with window {window}"

    fb = fa.free_boundary
    coords = []
    for phase, chains, pick in (("plus", fb.plus_boundary, np.fmax),
                                ("minus", fb.minus_boundary, np.fmin)):
        pts = _pooled(chains) - np.array(p)
        qd, qt = pts @ d, pts @ t
        keep = (np.abs(qd) <= window) & (np.abs(qt) <= window)
        if not np.any(keep):
            raise ZeroSetEmptyError(f"the {phase} phase boundary is absent {where}")
        coords.append((phase, pick, qd[keep], qt[keep]))

    nb = max(4, int(round(window / g.h)))
    edges = np.linspace(-window, window, nb + 1)
    t_samples = 0.5 * (edges[:-1] + edges[1:])

    def first_bin(mask):
        b = int(np.argmax(mask))
        return f"[{edges[b]}, {edges[b + 1]}]"

    graphs = []
    for phase, pick, qd, qt in coords:
        garr = np.full(nb, np.nan)
        pick.at(garr, np.clip(np.searchsorted(edges, qt, side="right") - 1, 0, nb - 1), qd)
        if np.isnan(garr).any():
            raise NotVerticallySimpleError(
                f"the transverse bin {first_bin(np.isnan(garr))} has no {phase} boundary vertex {where}")
        graphs.append(garr)
    gplus, gminus = graphs
    crossed = gminus > gplus + 2.0 * g.h
    if crossed.any():
        raise NotVerticallySimpleError(f"phase boundaries are out of order {where}: the minus boundary "
                                       f"first lies past the plus one in the transverse bin {first_bin(crossed)}")

    k = nb // 4
    slopes = [(garr[k:] - garr[:-k]) / (t_samples[k:] - t_samples[:-k]) for garr in graphs]

    return GraphFit(
        direction=(float(d[0]), float(d[1])),
        transverse=(float(t[0]), float(t[1])),
        theta=float(theta),
        t_samples=t_samples,
        gplus=gplus,
        gminus=gminus,
        lipschitz_estimate=max(float(np.max(np.abs(s))) for s in slopes),
        max_normal_oscillation=max(float(np.ptp(np.arctan(s))) for s in slopes),
    )


# ---------------------------------------------------------------------------
# Circle traces and reflection antisymmetrization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CircleTrace:
    """Normalized circle restriction u(y + r e(theta + rot)) / S_r."""

    y: tuple[float, float]
    r: float
    theta_rotation: float
    thetas: np.ndarray
    values: np.ndarray
    s_r: float


def circle_trace(
    u: ScalarField,
    y: tuple[float, float],
    theta_rotation: float,
    r: float,
    m: int,
) -> CircleTrace:
    """Trace the circle-normalized field on m uniform samples of [-pi, pi)."""
    if m < 4:
        raise ValueError("m must be at least 4")
    s = _nonzero_s_norm(u, y, r)
    thetas = -math.pi + 2.0 * math.pi * np.arange(m) / m
    xs = y[0] + r * np.cos(thetas + theta_rotation)
    ys = y[1] + r * np.sin(thetas + theta_rotation)
    values = interpolate_many(u, xs, ys) / s
    return CircleTrace((float(y[0]), float(y[1])), float(r), float(theta_rotation), thetas, values, s)


@dataclass(frozen=True)
class XiTrace:
    """Reflection antisymmetrization of a circle trace on [0, pi]."""

    r: float
    thetas: np.ndarray
    values: np.ndarray


def reflection_xi(phi: CircleTrace) -> XiTrace:
    """xi(theta) = phi(theta) - phi(-theta) on [0, pi].

    Both endpoints subtract a sample from itself (theta = 0, and theta =
    pi against the wrapped -pi), so xi(0) = xi(pi) = 0 exactly.
    """
    m = phi.thetas.size
    if m % 2 != 0:
        raise ValueError("reflection pairing needs an even sample count")
    half = m // 2
    j = np.arange(half + 1)
    xi = phi.values[(half + j) % m] - phi.values[half - j]
    return XiTrace(phi.r, math.pi * j / half, xi)


# ---------------------------------------------------------------------------
# Perimeter and covering estimates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhaseLengths:
    plus: float
    minus: float


def _polyline_length(chains) -> float:
    # one np.sum per chain, added in chain order: perimeter.json's bits follow that order
    total = 0.0
    for chain in chains:
        d = np.diff(chain, axis=0)
        total += float(np.sum(np.hypot(d[:, 0], d[:, 1])))
    return total


def perimeter_estimate(fa: FieldAnalysis) -> PhaseLengths:
    """Per-phase polyline length of the whole extracted free boundary.

    Each phase's length is the sum of the segment lengths of every chain
    of ``fa.free_boundary``; a one-vertex chain adds 0.
    """
    fb = fa.free_boundary
    return PhaseLengths(plus=_polyline_length(fb.plus_boundary), minus=_polyline_length(fb.minus_boundary))


def covering_count(fa: FieldAnalysis, eps: float) -> int:
    """Greedy covering of ``fa.free_boundary``'s vertices by eps-balls on the curve.

    The first uncovered vertex in ``all_vertices``' order opens each new
    ball, so the centers are vertices more than eps apart and every vertex
    lies within eps of one.  On a straight curve of length L that gives
    L / (2 eps) <= N(eps) <= L / eps + 1: N(eps) * eps lies between half
    the length and about the length, and is no upper bound.  On the solved
    n = 257 profile field, whose phase boundaries have length 2.0, it reads
    2.0, 2.0 and 1.8125 at eps = 32h, 16h and 8h.  ``check_eps`` on the
    field's grid rejects an eps under MIN_EPS_STEPS grid steps.
    """
    check_eps(fa.u.grid, eps)
    pts = fa.free_boundary.all_vertices()
    covered = np.zeros(len(pts), dtype=bool)
    count = 0
    e2 = eps * eps
    for k in range(len(pts)):
        if covered[k]:
            continue
        count += 1
        d2 = (pts[:, 0] - pts[k, 0]) ** 2 + (pts[:, 1] - pts[k, 1]) ** 2
        covered |= d2 <= e2
    return count
