"""Configuration-driven orchestration and the command line surface.

One INI config file describes one experiment: a grid, boundary data, a
solver run, optional diagnostics, and an optional boundary stability
sweep.  Artifacts land in one output directory as CSV and JSON with all
floats at 17 significant digits, so identical configs reproduce
byte-identical files.  Every JSON artifact goes through ``write_json`` and
every CSV artifact through ``grid.write_csv``; the numerical modules write
no files.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .freeboundary import (
    LADDER_STEPS,
    MIN_EPS_STEPS,
    MIN_WINDOW_STEPS,
    FieldAnalysis,
    FreeBoundarySet,
    classify_point,
    covering_count,
    circle_trace,
    extract_free_boundary,
    fit_two_graphs,
    perimeter_estimate,
    reflection_xi,
)
from .grid import BoundaryMap, Grid2D, build_grid, dump_field_csv, float_repr, sample, write_csv
from .monotonicity import (
    RadiusLadder, acf_psi, check_ball, directional_psi, phi_ladder, s_norm, weiss_phi,
)
from .profiles import GlobalProfile, OnePhasePolynomial, eval_many
from .solver import ProblemSpec, SolverError, comparison_check, solve


class ConfigError(ValueError):
    """Config file failed to parse or validate; messages name section.key."""


class SweepHypothesisError(RuntimeError):
    """Reference free boundary carries a one-phase singular point."""


_DIAGNOSTICS = ("phi_ladder", "psi_ladder", "classify", "graphs", "xi", "perimeter", "covering")
_FAMILIES = ("constant", "linear", "sine")
# Every key a known section may carry; anything else is a config error.
_KEYS = {
    "domain": ("x_min", "x_max", "y_min", "y_max", "n"),
    "problem": ("lambda_plus", "lambda_minus"),
    "boundary": ("kind", "offset", "beta1", "beta2", "tau", "theta", "cxx", "cxy", "cyy", "sign"),
    "solver": ("tol_linear", "max_sweeps"),
    "diagnostics": ("run", "point", "radii", "window", "eps", "xi_r", "xi_m", "xi_rotation"),
    "sweep": ("family", "amplitudes", "k", "classify_budget", "window"),
    "output": ("dir",),
}


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description.

    ``boundary_kind`` is "profile" or "polynomial" with its parameters in
    ``boundary_params``; ``diagnostics`` lists requested analyses and
    ``diag_params`` their shared parameters; ``sweep`` is None or a dict
    with family / amplitudes / k / classify_budget / window.
    """

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    n: int
    lambda_plus: float
    lambda_minus: float
    boundary_kind: str
    boundary_params: dict
    boundary_offset: float
    tol_linear: float
    max_sweeps: int
    diagnostics: tuple
    diag_params: dict
    sweep: dict | None
    output_dir: str

    def grid(self) -> Grid2D:
        return build_grid(self.x_min, self.x_max, self.y_min, self.y_max, self.n, self.n)

    def boundary_object(self):
        p = self.boundary_params
        if self.boundary_kind == "profile":
            return GlobalProfile(
                p["beta1"], p["beta2"], p["tau"], p["theta"],
                self.lambda_plus, self.lambda_minus,
            )
        return OnePhasePolynomial(p["cxx"], p["cxy"], p["cyy"], p["sign"])

    def boundary_map(self, grid: Grid2D) -> BoundaryMap:
        obj = self.boundary_object()
        off = self.boundary_offset
        return BoundaryMap.from_callable(grid, lambda X, Y: eval_many(obj, X, Y) + off)

    def problem(self, grid: Grid2D) -> ProblemSpec:
        return ProblemSpec(
            grid, self.boundary_map(grid), self.lambda_plus, self.lambda_minus,
            tol_linear=self.tol_linear, tol_pattern=self.max_sweeps,
        )


def _get(cp: configparser.ConfigParser, section: str, key: str, cast, default=None, required: bool = False):
    if not cp.has_option(section, key):
        if required:
            raise ConfigError(f"{section}.{key}: required key missing")
        return default
    raw = cp.get(section, key)
    try:
        return cast(raw)
    except ValueError as exc:
        raise ConfigError(f"{section}.{key}: {exc}") from None


def _finite(raw: str) -> float:
    v = float(raw)
    if not math.isfinite(v):
        raise ValueError(f"must be finite, got {raw.strip()!r}")
    return v


def _floats(raw: str) -> tuple:
    return tuple(_finite(tok) for tok in raw.replace(",", " ").split())


def _names(raw: str) -> tuple:
    return tuple(tok.strip() for tok in raw.split(",") if tok.strip())


def load_config(path: str) -> ExperimentConfig:
    """Parse and validate an INI experiment config."""
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        read = cp.read(path)
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from None
    if not read:
        raise ConfigError(f"cannot read config file {path}")

    for sec in ("domain", "problem", "boundary", "output"):
        if not cp.has_section(sec):
            raise ConfigError(f"{sec}: required section missing")
    for sec, keys in _KEYS.items():
        if cp.has_section(sec):
            for key in cp.options(sec):
                if key not in keys:
                    raise ConfigError(f"{sec}.{key}: unknown key")

    x_min = _get(cp, "domain", "x_min", _finite, required=True)
    x_max = _get(cp, "domain", "x_max", _finite, required=True)
    y_min = _get(cp, "domain", "y_min", _finite, required=True)
    y_max = _get(cp, "domain", "y_max", _finite, required=True)
    n = _get(cp, "domain", "n", int, required=True)
    if not (x_max > x_min and y_max > y_min):
        raise ConfigError("domain: x_max/y_max must exceed x_min/y_min")
    if n < 3:
        raise ConfigError("domain.n: need at least 3 nodes per side")
    try:
        grid = build_grid(x_min, x_max, y_min, y_max, n, n)
    except ValueError as exc:
        raise ConfigError(f"domain: {exc}") from None
    # the smallest window fit_two_graphs and eps covering_count accept on
    # the configured grid
    min_window = MIN_WINDOW_STEPS * grid.h
    min_eps = MIN_EPS_STEPS * grid.h

    lp = _get(cp, "problem", "lambda_plus", _finite, required=True)
    lm = _get(cp, "problem", "lambda_minus", _finite, required=True)
    if lp <= 0.0 or lm <= 0.0:
        raise ConfigError("problem.lambda_plus/lambda_minus: must be positive")

    kind = _get(cp, "boundary", "kind", str, required=True).strip().lower()
    offset = _get(cp, "boundary", "offset", _finite, default=0.0)
    if kind == "profile":
        params = {
            "beta1": _get(cp, "boundary", "beta1", _finite, default=1.0),
            "beta2": _get(cp, "boundary", "beta2", _finite, default=0.0),
            "tau": _get(cp, "boundary", "tau", _finite, default=0.0),
            "theta": _get(cp, "boundary", "theta", _finite, default=0.0),
        }
    elif kind == "polynomial":
        params = {
            "cxx": _get(cp, "boundary", "cxx", _finite, required=True),
            "cxy": _get(cp, "boundary", "cxy", _finite, default=0.0),
            "cyy": _get(cp, "boundary", "cyy", _finite, required=True),
            "sign": _get(cp, "boundary", "sign", int, default=1),
        }
    else:
        raise ConfigError(f"boundary.kind: unknown kind {kind!r}")

    tol_linear = _get(cp, "solver", "tol_linear", _finite, default=1e-10) if cp.has_section("solver") else 1e-10
    max_sweeps = _get(cp, "solver", "max_sweeps", int, default=200) if cp.has_section("solver") else 200
    if tol_linear <= 0.0:
        raise ConfigError("solver.tol_linear: must be positive")
    if max_sweeps < 1:
        raise ConfigError("solver.max_sweeps: must be at least 1")

    diagnostics: tuple = ()
    diag_params: dict = {}
    if cp.has_section("diagnostics"):
        diagnostics = _get(cp, "diagnostics", "run", _names, default=())
        for name in diagnostics:
            if name not in _DIAGNOSTICS:
                raise ConfigError(f"diagnostics.run: unknown diagnostic {name!r}")
        point = _get(cp, "diagnostics", "point", _floats, default=(0.0, 0.0))
        if len(point) != 2:
            raise ConfigError("diagnostics.point: need exactly two coordinates")
        radii = _get(cp, "diagnostics", "radii", _floats, default=()) or tuple(
            k * grid.h for k in LADDER_STEPS)
        if any(r <= 0.0 for r in radii):
            raise ConfigError("diagnostics.radii: need positive radii")
        if any(radii[k + 1] >= radii[k] for k in range(len(radii) - 1)):
            raise ConfigError("diagnostics.radii: must be strictly decreasing")
        diag_params = {
            "point": point,
            "radii": radii,
            "window": _get(cp, "diagnostics", "window", _finite, default=0.25),
            "eps": _get(cp, "diagnostics", "eps", _floats, default=()),
            "xi_r": _get(cp, "diagnostics", "xi_r", _finite, default=0.5),
            "xi_m": _get(cp, "diagnostics", "xi_m", int, default=256),
            "xi_rotation": _get(cp, "diagnostics", "xi_rotation", _finite, default=0.0),
        }
        if diag_params["window"] <= 0.0:
            raise ConfigError("diagnostics.window: must be positive")
        if "graphs" in diagnostics and diag_params["window"] < min_window:
            raise ConfigError(f"diagnostics.window: must cover at least {MIN_WINDOW_STEPS:g} grid "
                              f"steps ({min_window!r}) when graphs run")
        if any(e <= 0.0 for e in diag_params["eps"]):
            raise ConfigError("diagnostics.eps: need positive radii")
        if "covering" in diagnostics and any(e < min_eps for e in diag_params["eps"]):
            raise ConfigError(f"diagnostics.eps: must be at least {MIN_EPS_STEPS:g} grid steps "
                              f"({min_eps!r}) when covering runs")
        if diag_params["xi_r"] <= 0.0:
            raise ConfigError("diagnostics.xi_r: must be positive")
        if diag_params["xi_m"] < 4 or diag_params["xi_m"] % 2 != 0:
            raise ConfigError("diagnostics.xi_m: must be even and at least 4")
        # the balls the diagnostics integrate over, checked on the configured grid
        balls = []
        if set(diagnostics) & {"phi_ladder", "psi_ladder", "classify"}:
            balls += [("radii", r) for r in radii]
        if "xi" in diagnostics:
            balls.append(("xi_r", diag_params["xi_r"]))
        if "graphs" in diagnostics:
            # fit_two_graphs bins vertices out to the window's half-width
            balls.append(("window", diag_params["window"]))
        if balls and not grid.contains_ball(point, 0.0):
            raise ConfigError(f"diagnostics.point: {point} lies outside the domain")
        for key, r in balls:
            try:
                check_ball(grid, point, r)
            except ValueError as exc:
                raise ConfigError(f"diagnostics.{key}: {exc}") from None

    sweep = None
    if cp.has_section("sweep"):
        family = _get(cp, "sweep", "family", str, required=True).strip().lower()
        if family not in _FAMILIES:
            raise ConfigError(f"sweep.family: unknown family {family!r}")
        amplitudes = _get(cp, "sweep", "amplitudes", _floats, required=True)
        if not amplitudes or any(a <= 0.0 for a in amplitudes):
            raise ConfigError("sweep.amplitudes: need positive amplitudes")
        if any(amplitudes[k + 1] >= amplitudes[k] for k in range(len(amplitudes) - 1)):
            raise ConfigError("sweep.amplitudes: must be strictly decreasing")
        sweep = {
            "family": family,
            "amplitudes": amplitudes,
            "k": _get(cp, "sweep", "k", int, default=1),
            "classify_budget": _get(cp, "sweep", "classify_budget", int, default=8),
            "window": _get(cp, "sweep", "window", _finite, default=0.25),
        }
        for key in ("k", "classify_budget"):
            if sweep[key] < 1:
                raise ConfigError(f"sweep.{key}: must be at least 1")
        if sweep["window"] <= 0.0:
            raise ConfigError("sweep.window: must be positive")
        if sweep["window"] < min_window:
            raise ConfigError(f"sweep.window: must cover at least {MIN_WINDOW_STEPS:g} grid steps ({min_window!r})")
        # the sweep classifies only vertices this far inside the grid
        margin = _reference_margin(grid, LADDER_STEPS[0] * grid.h, sweep["window"])
        if 2.0 * margin >= min(x_max - x_min, y_max - y_min):
            raise ConfigError(f"sweep.window: reference points need a margin of max(32h, window) + 2h "
                              f"({margin!r}) inside the domain, which leaves no room for them")

    out_dir = _get(cp, "output", "dir", str, required=True)

    try:
        cfg = ExperimentConfig(
            x_min, x_max, y_min, y_max, n, lp, lm, kind, params, offset,
            tol_linear, max_sweeps, diagnostics, diag_params, sweep, out_dir,
        )
        cfg.boundary_object()
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"boundary: {exc}") from None
    return cfg


# ---------------------------------------------------------------------------
# Deterministic writers
# ---------------------------------------------------------------------------


def _dumps(v, ind: str = "") -> str:
    if dataclasses.is_dataclass(v) and not isinstance(v, type):
        v = {f.name: getattr(v, f.name) for f in dataclasses.fields(v)}
    elif isinstance(v, np.ndarray):
        v = v.tolist()
    if isinstance(v, dict):
        if not v:
            return "{}"
        items = ",\n".join(
            f'{ind}  "{k}": {_dumps(x, ind + "  ")}' for k, x in v.items()
        )
        return "{\n" + items + "\n" + ind + "}"
    if isinstance(v, (list, tuple)):
        if not v:
            return "[]"
        items = ",\n".join(f"{ind}  {_dumps(x, ind + '  ')}" for x in v)
        return "[\n" + items + "\n" + ind + "]"
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return float_repr(v)
    if v is None:
        return "null"
    if isinstance(v, str):
        return '"' + v.replace("\\", "\\\\").replace('"', '\\"') + '"'
    raise TypeError(f"cannot serialize {type(v).__name__}")


def write_json(obj, path: str) -> None:
    """Deterministic JSON with 17-significant-digit floats.

    A dataclass is written as the dict of its fields in declaration order;
    tuples and ndarrays as lists, numpy scalars as their Python values.
    """
    text = _dumps(obj)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _write_free_boundary(fb: FreeBoundarySet, path: str) -> None:
    """Every chain vertex as `phase,component_id,x,y` rows, plus chains first."""
    write_csv(path, "phase,component_id,x,y", (
        (phase, cid, x, y)
        for phase, chains in (("plus", fb.plus_boundary), ("minus", fb.minus_boundary))
        for cid, chain in enumerate(chains)
        for x, y in chain.tolist()
    ))


def _write_ladder(prof, path: str) -> None:
    """A phi or psi ladder as `r,value,violation_flag` rows, largest radius first."""
    flagged = {pair[0] for pair in prof.violations}
    write_csv(path, "r,value,violation_flag",
              ((r, v, int(r in flagged)) for r, v in zip(prof.ladder.radii, prof.values)))


# ---------------------------------------------------------------------------
# Stability sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    delta: float
    sup_boundary_diff: float
    sup_interior_diff: float
    comparison_holds: bool
    hausdorff_to_reference: float
    graph_summaries: tuple


@dataclass(frozen=True)
class StabilityReport:
    """Sweep rows ordered by decreasing amplitude plus monotonicity flags."""

    rows: tuple
    hausdorff_monotone: bool
    tol_geometry: float
    reference_points: tuple
    reference_labels: tuple

    def __post_init__(self) -> None:
        deltas = [row.delta for row in self.rows]
        if any(deltas[k + 1] >= deltas[k] for k in range(len(deltas) - 1)):
            raise ValueError("sweep rows must be ordered by decreasing delta")


def hausdorff_distance(a, b) -> float:
    """Symmetric Hausdorff distance between the vertex sets of two polyline collections."""
    pa = _pool_vertices(a)
    pb = _pool_vertices(b)
    if pa.shape[0] == 0 or pb.shape[0] == 0:
        raise ValueError("hausdorff distance needs nonempty vertex sets")
    return max(_directed_hausdorff(pa, pb), _directed_hausdorff(pb, pa))


def _pool_vertices(chains) -> np.ndarray:
    pooled = []
    for chain in chains:
        chain = np.asarray(chain, dtype=float)
        if chain.ndim != 2 or chain.shape[1] != 2:
            raise ValueError("polylines must be (k, 2) arrays")
        pooled.append(chain)
    return np.vstack(pooled) if pooled else np.zeros((0, 2))


def _directed_hausdorff(p: np.ndarray, q: np.ndarray) -> float:
    worst = 0.0
    for s in range(0, len(p), 512):
        blk = p[s:s + 512]
        d2 = (blk[:, None, 0] - q[None, :, 0]) ** 2 + (blk[:, None, 1] - q[None, :, 1]) ** 2
        worst = max(worst, float(np.max(np.min(d2, axis=1))))
    return math.sqrt(worst)


def _family_fn(family: str, k: int):
    if family == "constant":
        return lambda X, Y: np.ones_like(X)
    if family == "linear":
        return lambda X, Y: Y
    return lambda X, Y: np.sin(k * math.pi * Y)


def _reference_margin(grid: Grid2D, r_max: float, window: float) -> float:
    """How far inside the grid a sweep reference point must lie."""
    return max(r_max, window) + 2.0 * grid.h


def _reference_points(fb: FreeBoundarySet, grid: Grid2D, r_max: float, window: float, budget: int) -> list:
    """Pick up to ``budget`` classification targets on the reference curve.

    Vertices are kept only at least max(r_max, window) + 2h inside the grid,
    so every ladder ball of radius up to ``r_max`` and every graph-fit
    window of half-width ``window`` around a target stays inside it.  The
    rest are strided evenly in lexicographic order for determinism.
    """
    pts = fb.all_vertices()
    if pts.shape[0] == 0:
        return []
    margin = _reference_margin(grid, r_max, window)
    keep = (
        (pts[:, 0] >= grid.x_min + margin) & (pts[:, 0] <= grid.x_max - margin)
        & (pts[:, 1] >= grid.y_min + margin) & (pts[:, 1] <= grid.y_max - margin)
    )
    pts = pts[keep]
    if pts.shape[0] == 0:
        return []
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    idx = np.unique(np.linspace(0, len(pts) - 1, budget).round().astype(int))
    return [(float(x), float(y)) for x, y in pts[idx]]


def stability_sweep(config: ExperimentConfig, fa_ref: FieldAnalysis) -> StabilityReport:
    """Boundary perturbation sweep against a classified reference solve.

    ``fa_ref`` holds the solved field of ``config``'s own problem; each
    perturbed problem is its ``spec`` with new boundary data.  The
    reference free boundary is classified first; any one-phase singular
    point aborts the sweep.  Each row re-solves with perturbed data,
    checks the comparison principle, measures the free boundary
    displacement, and refits graphs at the reference branch points.
    """
    if config.sweep is None:
        raise ConfigError("sweep: section required for stability_sweep")
    u_ref = fa_ref.u
    spec = fa_ref.spec
    g = spec.grid
    fb_ref = fa_ref.free_boundary
    ref_chains = list(fb_ref.plus_boundary) + list(fb_ref.minus_boundary)

    h = g.h
    radii = tuple(k * h for k in LADDER_STEPS)
    window = config.sweep["window"]
    points = _reference_points(fb_ref, g, radii[0], window, config.sweep["classify_budget"])
    labels = []
    for p in points:
        cls = classify_point(fa_ref, RadiusLadder(p, radii))
        labels.append(cls.label)
        if cls.label == "one_phase_singular":
            raise SweepHypothesisError(
                f"reference free boundary point ({float_repr(p[0])}, {float_repr(p[1])}) "
                "classifies as one_phase_singular"
            )
    branch_points = [p for p, lab in zip(points, labels) if lab == "branch"][:3]

    fam = _family_fn(config.sweep["family"], config.sweep["k"])
    rows = []
    for delta in config.sweep["amplitudes"]:
        spec_d = dataclasses.replace(spec, boundary=spec.boundary.perturbed(fam, delta))
        u_d, _ = solve(spec_d)
        cmp = comparison_check(u_ref, spec, u_d, spec_d)
        fa_d = FieldAnalysis(u_d, spec_d)
        fb_d = fa_d.free_boundary
        chains_d = list(fb_d.plus_boundary) + list(fb_d.minus_boundary)
        dist = hausdorff_distance(ref_chains, chains_d)
        summaries = []
        for p in branch_points:
            fit = fit_two_graphs(fa_d, p, window)
            summaries.append({
                "point": [p[0], p[1]],
                "theta": fit.theta,
                "lipschitz_estimate": fit.lipschitz_estimate,
                "max_normal_oscillation": fit.max_normal_oscillation,
                "gplus_range": [float(np.min(fit.gplus)), float(np.max(fit.gplus))],
                "gminus_range": [float(np.min(fit.gminus)), float(np.max(fit.gminus))],
            })
        rows.append(SweepRow(
            delta=delta,
            sup_boundary_diff=cmp.sup_boundary_diff,
            sup_interior_diff=cmp.sup_interior_diff,
            comparison_holds=cmp.holds,
            hausdorff_to_reference=dist,
            graph_summaries=tuple(summaries),
        ))

    tol_geo = 2.0 * h
    dists = [row.hausdorff_to_reference for row in rows]
    monotone = all(dists[k + 1] <= dists[k] + tol_geo for k in range(len(dists) - 1))
    return StabilityReport(
        rows=tuple(rows),
        hausdorff_monotone=monotone,
        tol_geometry=tol_geo,
        reference_points=tuple(points),
        reference_labels=tuple(labels),
    )


# ---------------------------------------------------------------------------
# Experiment runner
# ---------------------------------------------------------------------------


def _run_diagnostics(config: ExperimentConfig, fa: FieldAnalysis) -> None:
    u = fa.u
    g = u.grid
    dp = config.diag_params
    out = config.output_dir
    point = dp["point"]
    fb = fa.free_boundary
    _write_free_boundary(fb, os.path.join(out, "free_boundary.csv"))

    ladder = RadiusLadder(point, dp["radii"])
    if "phi_ladder" in config.diagnostics:
        prof = phi_ladder(u, fa.gradients, ladder, fa.spec.lambda_plus, fa.spec.lambda_minus)
        _write_ladder(prof, os.path.join(out, "phi_ladder.csv"))
    if "psi_ladder" in config.diagnostics:
        (prof,) = directional_psi(fa.gradients, ladder, [(1.0, 0.0)])
        _write_ladder(prof, os.path.join(out, "psi_ladder.csv"))
    if "classify" in config.diagnostics:
        cls = classify_point(fa, ladder)
        record = {"point": point, "class": cls.label, "evidence": cls.evidence}
        write_json([record], os.path.join(out, "classification.json"))
    if "graphs" in config.diagnostics:
        fit = fit_two_graphs(fa, point, dp["window"])
        write_json(fit, os.path.join(out, "graphs.json"))
    if "xi" in config.diagnostics:
        phi = circle_trace(u, point, dp["xi_rotation"], dp["xi_r"], dp["xi_m"])
        xi = reflection_xi(phi)
        write_csv(os.path.join(out, "xi.csv"), "theta,xi", zip(xi.thetas.tolist(), xi.values.tolist()))
    if "perimeter" in config.diagnostics:
        lengths = perimeter_estimate(fa, (g.x_min, g.x_max, g.y_min, g.y_max))
        write_json(lengths, os.path.join(out, "perimeter.json"))
    if "covering" in config.diagnostics:
        eps_list = dp["eps"] or (32.0 * g.h, 16.0 * g.h, 8.0 * g.h)
        rows = []
        for eps in eps_list:
            n_eps = covering_count(fb, eps)
            rows.append({"eps": eps, "count": n_eps, "product": n_eps * eps})
        write_json(rows, os.path.join(out, "covering.json"))


def run(config: ExperimentConfig, mode: str = "diagnose") -> int:
    """Execute one experiment; returns a process exit status."""
    os.makedirs(config.output_dir, exist_ok=True)
    try:
        g = config.grid()
        spec = config.problem(g)
        u, report = solve(spec)
        dump_field_csv(u, os.path.join(config.output_dir, "field.csv"))
        write_json(report, os.path.join(config.output_dir, "solve_report.json"))
        fa = FieldAnalysis(u, spec)
        if mode == "diagnose":
            _run_diagnostics(config, fa)
        elif mode == "sweep":
            report_s = stability_sweep(config, fa)
            write_json(report_s, os.path.join(config.output_dir, "stability.json"))
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1
    except SweepHypothesisError as exc:
        print(f"sweep hypothesis violation: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# Self test
# ---------------------------------------------------------------------------


def selftest() -> int:
    """Fast oracle suite: analytic values every healthy build reproduces."""
    checks = []

    gg = build_grid(-1.25, 1.25, -1.25, 1.25, 321, 321)
    prof = GlobalProfile(1.0, 0.0, 0.0, 0.0, 2.0, 2.0)
    u = sample(gg, lambda X, Y: eval_many(prof, X, Y))
    phi = weiss_phi(u, (0.0, 0.0), 0.5, 2.0, 2.0)
    checks.append(("weiss functional on the two-phase profile", abs(phi - math.pi / 8.0) < 0.01 * math.pi / 8.0))

    hp = sample(gg, lambda X, Y: np.maximum(X, 0.0))
    hm = sample(gg, lambda X, Y: np.maximum(-X, 0.0))
    psi = acf_psi(hp, hm, (0.0, 0.0), 1.0)
    target = math.pi ** 2 / 4.0
    checks.append(("directional product functional on (x1+, x1-)", abs(psi - target) < 0.01 * target))

    s1 = s_norm(u, (0.0, 0.0), 1.0)
    checks.append(("circle normalization of the profile", abs(s1 - math.sqrt(3.0 * math.pi / 16.0)) < 1e-4))

    gs = build_grid(-1.0, 1.0, -1.0, 1.0, 65, 65)
    poly = OnePhasePolynomial(0.25, 0.0, 0.25, 1)
    bc = BoundaryMap.from_callable(gs, lambda X, Y: eval_many(poly, X, Y))
    spec = ProblemSpec(gs, bc, 2.0, 2.0)
    u_p, _ = solve(spec)
    exact = sample(gs, lambda X, Y: eval_many(poly, X, Y))
    err = float(np.max(np.abs(u_p.values - exact.values)))
    checks.append(("one-phase polynomial reproduced by the solver", err < 1e-8))

    u_line = sample(gs, lambda X, Y: eval_many(prof, X, Y))
    fb = extract_free_boundary(u_line, spec.tol_zero)
    verts = fb.all_vertices()
    checks.append(("free boundary of the profile on the zero line",
                   verts.shape[0] > 0 and float(np.max(np.abs(verts[:, 0]))) <= gs.h))

    ok = True
    for name, passed in checks:
        print(("ok - " if passed else "FAIL - ") + name)
        ok = ok and passed
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="membranelab",
        description="Two-phase membrane solves, monotonicity diagnostics, and stability sweeps.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in ("solve", "diagnose", "sweep"):
        p = sub.add_parser(verb)
        p.add_argument("config", help="path to an INI experiment config")
    sub.add_parser("selftest")

    args = parser.parse_args(argv)
    if args.verb == "selftest":
        return selftest()
    try:
        config = load_config(args.config)
        if args.verb == "sweep" and config.sweep is None:
            raise ConfigError("sweep: section required by the sweep verb")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return run(config, mode=args.verb)


if __name__ == "__main__":
    sys.exit(main())
