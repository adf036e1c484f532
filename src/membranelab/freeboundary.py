"""Free boundary extraction and pointwise diagnostics.

Contours the two phase boundaries of a thresholded field, classifies
points on them through a gradient / functional-decay / blow-up decision
chain, fits the boundaries as a pair of graphs in a rotated frame, traces
normalized circle restrictions and their reflection antisymmetrization,
and reports perimeter and covering-number estimates.  A ``FieldAnalysis``
holds one solved field together with its gradient fields, its free
boundary and its directional psi ladders, each built once and shared by
every analysis of that field.  Classification reads three cuts, of
which only the gradient cut depends on the field's problem.
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
from .profiles import OnePhasePolynomial, _disk_nodes, dist_to_M
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
# t = a / (a - b).  Extracted vertices live on cell edges, so stitching
# chains is pure bookkeeping: edges are nodes of a graph of degree <= 2.

_SEGMENTS = {
    1: (("L", "B"),),
    2: (("B", "R"),),
    3: (("L", "R"),),
    4: (("R", "T"),),
    6: (("B", "T"),),
    7: (("L", "T"),),
    8: (("L", "T"),),
    9: (("B", "T"),),
    11: (("R", "T"),),
    12: (("L", "R"),),
    13: (("B", "R"),),
    14: (("L", "B"),),
}


def _edge_key(side: str, i: int, j: int) -> tuple:
    # edges are keyed by their lower-left node; 'h' runs to (i+1, j),
    # 'v' to (i, j+1)
    if side == "B":
        return ("h", i, j)
    if side == "T":
        return ("h", i, j + 1)
    if side == "L":
        return ("v", i, j)
    return ("v", i + 1, j)


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
            # saddle: disambiguate with the cell-center average
            center = 0.25 * (s[j, i] + s[j, i + 1] + s[j + 1, i + 1] + s[j + 1, i])
            if c == 5:
                segs = (("B", "R"), ("T", "L")) if center > 0.0 else (("L", "B"), ("R", "T"))
            else:
                segs = (("L", "B"), ("R", "T")) if center > 0.0 else (("B", "R"), ("T", "L"))
        else:
            segs = _SEGMENTS[c]
        for ea, eb in segs:
            ka = _edge_key(ea, i, j)
            kb = _edge_key(eb, i, j)
            links.setdefault(ka, []).append(kb)
            links.setdefault(kb, []).append(ka)

    visited: set = set()
    paths: list[tuple[list, bool]] = []

    def _walk(start: tuple) -> list:
        path = [start]
        visited.add(start)
        cur = start
        while True:
            nxt = None
            for cand in links[cur]:
                if cand not in visited:
                    nxt = cand
                    break
            if nxt is None:
                return path
            visited.add(nxt)
            path.append(nxt)
            cur = nxt

    # open chains start at degree-1 edges, sorted for determinism; whatever
    # remains afterwards belongs to closed loops
    for start in sorted(k for k, v in links.items() if len(v) == 1):
        if start not in visited:
            paths.append((_walk(start), False))
    for start in sorted(k for k in links if k not in visited):
        if start not in visited:  # the sort snapshot predates the walks
            paths.append((_walk(start), True))

    out = []
    for path, closed in paths:
        pts = np.array([_edge_point(grid, s, k) for k in path], dtype=float)
        if len(pts) > 1:
            # drop exact duplicates from crossings that land on a shared node
            keep = np.ones(len(pts), dtype=bool)
            keep[1:] = np.any(np.diff(pts, axis=0) != 0.0, axis=1)
            pts = pts[keep]
        if closed and len(pts) > 2:
            pts = np.vstack([pts, pts[:1]])
        out.append(pts)
    return out


@dataclass(frozen=True)
class FreeBoundarySet:
    """Polyline approximations of the two phase boundaries.

    Chains are ordered (k, 2) point arrays; closed components repeat their
    first vertex.  ``spacing`` records the extraction grid step for
    resolvability checks downstream.
    """

    plus_boundary: tuple
    minus_boundary: tuple
    spacing: float

    def all_vertices(self) -> np.ndarray:
        chains = list(self.plus_boundary) + list(self.minus_boundary)
        if not chains:
            return np.zeros((0, 2))
        return np.vstack(chains)


def extract_free_boundary(u: ScalarField, tol_zero: float) -> FreeBoundarySet:
    """Contour the phase boundaries at the +-tol_zero levels of u.

    The positive phase boundary is the tol_zero level set of u, the
    negative one the tol_zero level set of -u, so a dead zone between the
    phases produces two distinct curves.
    """
    if tol_zero < 0.0:
        raise ValueError("tol_zero must be nonnegative")
    plus = _contour_chains(u.grid, u.values - tol_zero)
    minus = _contour_chains(u.grid, -u.values - tol_zero)
    return FreeBoundarySet(tuple(plus), tuple(minus), u.grid.h)


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

        Evaluated the first time ``ladder`` asks for it, then kept.
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

# The smallest graph-fit window and covering radius, in grid steps; config
# loading checks them too.
MIN_WINDOW_STEPS = 8.0
MIN_EPS_STEPS = 2.0

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


def _blowup_fit(fa: FieldAnalysis, p, r: float):
    """(blow-up of fa.u at p with radius r, its dist_to_M, its nearest ramp)."""
    v0 = blowup_rescale(fa.u, p, r, _BLOWUP_GRID)
    dist, best = dist_to_M(v0, lambda_plus=fa.spec.lambda_plus, lambda_minus=fa.spec.lambda_minus)
    return v0, dist, best


def classify_point(fa: FieldAnalysis, ladder: RadiusLadder) -> PointClass:
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
    """
    s = fa.spec
    tol_grad = 10.0 * s.grid.h * (s.lambda_plus + s.lambda_minus)
    p = ladder.center
    gx, gy = fa.gradients
    x, y = np.array([p[0]]), np.array([p[1]])
    gn = float(np.hypot(interpolate_many(gx, x, y)[0], interpolate_many(gy, x, y)[0]))
    evidence: dict = {
        "gradient_norm": gn,
        "psi": None,
        "dist_to_m": None,
        "dist_to_poly": None,
        "decided_by": None,
    }

    if gn > tol_grad:
        evidence["decided_by"] = "gradient"
        return PointClass("regular", evidence)

    psi = {name: prof.values for name, prof in fa.psi_profiles(ladder).items()}
    evidence["psi"] = psi

    try:
        v0, dist_m, best = _blowup_fit(fa, p, ladder.radii[-1])
    except DegenerateRescaleError:
        evidence["decided_by"] = "degenerate_rescale"
        return PointClass("indeterminate", evidence)
    evidence["dist_to_m"] = dist_m
    evidence["best_theta"] = best.theta
    if all(vals[-1] < _TOL_PSI for vals in psi.values()) and dist_m < _TOL_DIST:
        evidence["decided_by"] = "psi_decay+dist_to_m"
        return PointClass("branch", evidence)

    dist_poly, _ = dist_to_polynomial_class(v0)
    evidence["dist_to_poly"] = dist_poly
    if dist_poly < _TOL_DIST:
        evidence["decided_by"] = "dist_to_polynomial"
        return PointClass("one_phase_singular", evidence)

    evidence["decided_by"] = "exhausted"
    return PointClass("indeterminate", evidence)


# ---------------------------------------------------------------------------
# Graph fitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GraphFit:
    """Two phase boundaries as graphs over a transverse axis.

    ``direction`` is the graph axis (the monotone coordinate of the best
    ramp fit), ``transverse`` the axis the graphs are sampled over.
    gplus is the sup of the graph coordinate over plus-boundary vertices
    per transverse bin, gminus the inf over minus-boundary ones.
    """

    direction: tuple[float, float]
    transverse: tuple[float, float]
    theta: float
    t_samples: np.ndarray
    gplus: np.ndarray
    gminus: np.ndarray
    lipschitz_estimate: float
    max_normal_oscillation: float


def _wrap_angle(a: np.ndarray) -> np.ndarray:
    return (a + math.pi) % (2.0 * math.pi) - math.pi


def fit_two_graphs(fa: FieldAnalysis, p: tuple[float, float], window: float) -> GraphFit:
    """Fit both phase boundaries as graphs near a degenerate point.

    The frame comes from the rotation of the best ramp fit to the blow-up
    at p with radius ``window / 2``; vertices are collected in a square
    window of half-width ``window`` in the rotated frame and binned at
    roughly two grid steps along the transverse axis.
    """
    g = fa.u.grid
    if window < MIN_WINDOW_STEPS * g.h:
        raise ValueError(f"window must cover at least {MIN_WINDOW_STEPS:g} grid steps")
    _, _, best = _blowup_fit(fa, p, 0.5 * window)
    theta = best.theta
    d = np.array([math.cos(theta), -math.sin(theta)])
    t = np.array([math.sin(theta), math.cos(theta)])

    fb = fa.free_boundary
    origin = np.array([p[0], p[1]])
    coords = []
    for chains in (fb.plus_boundary, fb.minus_boundary):
        pts = np.vstack(chains) - origin if chains else np.zeros((0, 2))
        qd = pts @ d
        qt = pts @ t
        keep = (np.abs(qd) <= window) & (np.abs(qt) <= window)
        coords.append((qd[keep], qt[keep]))
    (qd_p, qt_p), (qd_m, qt_m) = coords
    if qd_p.size == 0 or qd_m.size == 0:
        raise ZeroSetEmptyError("a phase boundary is absent from the window")

    nb = max(4, int(round(window / g.h)))
    edges = np.linspace(-window, window, nb + 1)
    t_samples = 0.5 * (edges[:-1] + edges[1:])
    gplus = np.full(nb, -np.inf)
    gminus = np.full(nb, np.inf)
    kp = np.clip(np.searchsorted(edges, qt_p, side="right") - 1, 0, nb - 1)
    np.maximum.at(gplus, kp, qd_p)
    km = np.clip(np.searchsorted(edges, qt_m, side="right") - 1, 0, nb - 1)
    np.minimum.at(gminus, km, qd_m)
    if not (np.all(np.isfinite(gplus)) and np.all(np.isfinite(gminus))):
        raise NotVerticallySimpleError("a transverse bin has no boundary vertex")
    if np.any(gminus > gplus + 2.0 * g.h):
        raise NotVerticallySimpleError("phase boundaries are out of order in the window")

    dt = np.diff(t_samples)
    lip = 0.0
    for garr in (gplus, gminus):
        lip = max(lip, float(np.max(np.abs(np.diff(garr)) / dt)))

    # normal oscillation: largest turn between adjacent polyline segments
    # whose endpoints all lie in the window
    osc = 0.0
    for chains in (fb.plus_boundary, fb.minus_boundary):
        for chain in chains:
            if len(chain) < 3:
                continue
            rel = chain - origin
            inside = (np.abs(rel @ d) <= window) & (np.abs(rel @ t) <= window)
            seg = np.diff(chain, axis=0)
            ok = inside[:-1] & inside[1:]
            ang = np.arctan2(seg[:, 1], seg[:, 0])
            both = ok[:-1] & ok[1:]
            if np.any(both):
                turns = np.abs(_wrap_angle(np.diff(ang)))[both]
                osc = max(osc, float(np.max(turns)))

    return GraphFit(
        direction=(float(d[0]), float(d[1])),
        transverse=(float(t[0]), float(t[1])),
        theta=float(theta),
        t_samples=t_samples,
        gplus=gplus,
        gminus=gminus,
        lipschitz_estimate=lip,
        max_normal_oscillation=osc,
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


def _clipped_length(chains, box) -> float:
    # Liang-Barsky parametric clip of each segment against the window
    x0, x1, y0, y1 = box
    total = 0.0
    for chain in chains:
        if len(chain) < 2:
            continue
        start = chain[:-1]
        d = np.diff(chain, axis=0)
        t0 = np.zeros(len(d))
        t1 = np.ones(len(d))
        ok = np.ones(len(d), dtype=bool)
        for k, lo, hi in ((0, x0, x1), (1, y0, y1)):
            dk = d[:, k]
            w = start[:, k]
            para = dk == 0.0
            ok &= ~(para & ((w < lo) | (w > hi)))
            with np.errstate(divide="ignore", invalid="ignore"):
                ta = (lo - w) / dk
                tb = (hi - w) / dk
            lo_t = np.where(ta < tb, ta, tb)
            hi_t = np.where(ta < tb, tb, ta)
            t0 = np.where(para, t0, np.maximum(t0, lo_t))
            t1 = np.where(para, t1, np.minimum(t1, hi_t))
        ok &= t0 <= t1
        seg_len = np.hypot(d[:, 0], d[:, 1])
        total += float(np.sum((t1 - t0) * seg_len, where=ok))
    return total


def perimeter_estimate(fa: FieldAnalysis, window) -> PhaseLengths:
    """Per-phase polyline length of the extracted boundaries in a window."""
    fb = fa.free_boundary
    return PhaseLengths(
        plus=_clipped_length(fb.plus_boundary, window),
        minus=_clipped_length(fb.minus_boundary, window),
    )


def covering_count(fb: FreeBoundarySet, eps: float) -> int:
    """Greedy covering of the boundary vertices by eps-balls on the curve.

    The first uncovered vertex in lexicographic order opens each new ball,
    so the centers are vertices more than eps apart and every vertex lies
    within eps of one.  On a straight curve of length L that gives
    L / (2 eps) <= N(eps) <= L / eps + 1: N(eps) * eps lies between half
    the length and about the length, and is no upper bound.  On the solved
    n = 257 profile field, whose phase boundaries have length 2.0, it reads
    2.0, 1.875 and 1.8125 at eps = 32h, 16h and 8h.
    """
    if eps < MIN_EPS_STEPS * fb.spacing:
        raise ValueError(
            f"eps = {eps} under-resolved; need at least two grid steps = {MIN_EPS_STEPS * fb.spacing}"
        )
    pts = fb.all_vertices()
    if pts.shape[0] == 0:
        return 0
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
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
