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
    FieldAnalysis,
    FreeBoundarySet,
    NotVerticallySimpleError,
    ZeroSetEmptyError,
    check_eps,
    check_window,
    classify_point,
    covering_count,
    circle_trace,
    extract_free_boundary,
    fit_two_graphs,
    graph_frame,
    perimeter_estimate,
    reflection_xi,
)
from .grid import Grid2D, build_grid, dump_field_csv, float_repr, sample, write_csv
from .monotonicity import (
    DegenerateRescaleError, RadiusLadder, acf_psi, check_ball, phi_ladder, s_norm, weiss_phi,
)
from .profiles import GlobalProfile, OnePhasePolynomial, RampFitError, eval_many, profile_boundary_trace
from .solver import ProblemSpec, SolverError, comparison_check, solve


class ConfigError(ValueError):
    """Config file failed to parse or validate; messages name section.key."""


class SweepHypothesisError(RuntimeError):
    """The reference free boundary is empty or carries a one-phase singular point."""


_DIAGNOSTICS = ("phi_ladder", "psi_ladder", "classify", "graphs", "xi", "perimeter", "covering")
# The sweep's perturbation families: each maps the sweep's k to fn(X, Y).
_FAMILIES = {
    "constant": lambda k: lambda X, Y: np.ones_like(X),
    "linear": lambda k: lambda X, Y: Y,
    "sine": lambda k: lambda X, Y: np.sin(k * math.pi * Y),
}
_REQUIRED = object()    # the default of a key that must be given


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------


def _finite(raw: str) -> float:
    v = float(raw)
    if not math.isfinite(v):
        raise ValueError(f"must be finite, got {raw.strip()!r}")
    return v


def _floats(raw: str) -> tuple:
    return tuple(_finite(tok) for tok in raw.replace(",", " ").split())


def _checked(parse, ok, rule: str):
    """``parse``, then ValueError(rule) unless ``ok`` holds for the value."""
    def parse_checked(raw: str):
        v = parse(raw)
        if not ok(v):
            raise ValueError(rule)
        return v
    return parse_checked


def _one_of(noun: str, names):
    """Parser of one name of ``names``, case-folded."""
    def parse(raw: str) -> str:
        v = raw.strip().lower()
        if v not in names:
            raise ValueError(f"unknown {noun} {v!r}")
        return v
    return parse


def _list_of(parse):
    """Parser of a comma list, each item by ``parse``."""
    return lambda raw: tuple(parse(tok) for tok in raw.split(",") if tok.strip())


_POSITIVE = _checked(_finite, lambda v: v > 0.0, "must be positive")
_AT_LEAST_1 = _checked(int, lambda v: v >= 1, "must be at least 1")
_POSITIVES = _checked(_floats, lambda v: all(x > 0.0 for x in v), "must be positive")
_DECREASING = _checked(_POSITIVES, lambda v: all(b < a for a, b in zip(v, v[1:])),
                       "must be strictly decreasing")

# The keys each boundary kind adds to the [boundary] section.
_KINDS = {
    "profile": {"beta1": (_finite, 1.0), "beta2": (_finite, 0.0), "tau": (_finite, 0.0),
                "theta": (_finite, 0.0)},
    "polynomial": {"cxx": (_finite, _REQUIRED), "cxy": (_finite, 0.0), "cyy": (_finite, _REQUIRED),
                   "sign": (int, 1)},
}

# section -> key -> (parser, default).  Each parser applies its key's own
# range rule; load_config checks the rules that tie keys together or need
# the grid.  An empty radii or eps list stands for the default ladder of
# LADDER_STEPS grid steps.
_TABLE = {
    "domain": {
        "x_min": (_finite, _REQUIRED), "x_max": (_finite, _REQUIRED),
        "y_min": (_finite, _REQUIRED), "y_max": (_finite, _REQUIRED),
        "n": (_checked(int, lambda v: v >= 3, "need at least 3 nodes per side"), _REQUIRED),
    },
    "problem": {"lambda_plus": (_POSITIVE, _REQUIRED), "lambda_minus": (_POSITIVE, _REQUIRED)},
    "boundary": {"kind": (_one_of("kind", _KINDS), _REQUIRED), "offset": (_finite, 0.0)},
    "solver": {"tol_linear": (_POSITIVE, ProblemSpec.tol_linear),
               "max_sweeps": (_AT_LEAST_1, ProblemSpec.tol_pattern)},
    "diagnostics": {
        "run": (_list_of(_one_of("diagnostic", _DIAGNOSTICS)), ()),
        "point": (_checked(_floats, lambda v: len(v) == 2, "need exactly two coordinates"), (0.0, 0.0)),
        "radii": (_DECREASING, ()),
        "window": (_POSITIVE, 0.25),
        "eps": (_POSITIVES, ()),
        "xi_r": (_POSITIVE, 0.5),
        "xi_m": (_checked(int, lambda v: v >= 4 and v % 2 == 0, "must be even and at least 4"), 256),
        "xi_rotation": (_finite, 0.0),
    },
    "sweep": {
        "family": (_one_of("family", _FAMILIES), _REQUIRED),
        "amplitudes": (_checked(_DECREASING, len, "need at least one amplitude"), _REQUIRED),
        "k": (_AT_LEAST_1, 1),
        "classify_budget": (_AT_LEAST_1, 8),
        "window": (_POSITIVE, 0.25),
    },
    "output": {"dir": (_checked(str, len, "must not be empty"), _REQUIRED)},
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment: ``spec`` is the problem every verb solves.

    ``diag_params`` and ``sweep`` (None without a [sweep] section) hold
    their sections' keys, defaults filled in.
    """

    spec: ProblemSpec
    diagnostics: tuple
    diag_params: dict
    sweep: dict | None
    output_dir: str


def _rule(key: str, fn, *args):
    """``fn(*args)``, its ValueError re-raised as a ConfigError that starts with ``key``."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None


def _section(cp: configparser.ConfigParser, name: str, table: dict, kinds: dict | None = None) -> dict:
    """The keys of one section, each parsed by ``table`` or set to its default.

    An absent section reads as its defaults.  A missing required key, a
    value its parser rejects and a key not in the table are ConfigErrors
    that start with ``section.key``.  With ``kinds``, the section also
    takes the keys of the sub-table its ``kind`` names.
    """
    given = dict(cp.items(name)) if cp.has_section(name) else {}
    values = {}
    for key, (parse, default) in table.items():
        if key in given:
            values[key] = _rule(f"{name}.{key}", parse, given[key])
        elif default is _REQUIRED:
            raise ConfigError(f"{name}.{key}: required key missing")
        else:
            values[key] = default
    if kinds is not None:
        return _section(cp, name, {**table, **kinds[values["kind"]]})
    for key in given:
        if key not in table:
            raise ConfigError(f"{name}.{key}: unknown key")
    return values


def load_config(path: str) -> ExperimentConfig:
    """Parse and validate a UTF-8 INI experiment config and build its ProblemSpec.

    Every rule is checked before any solve.  A rule that a numerical
    module owns, such as the smallest window ``check_window`` accepts, is
    checked by calling it on the configured grid.  The boundary data are
    the trace of the configured shape, perturbed by the sweep's constant
    family at amplitude ``offset``.  ``[DEFAULT]`` is an ordinary, and so
    unknown, section.
    """
    # values are literal: a % in a path is not an interpolation; no section
    # header can name the default section "", so no key is shared
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), interpolation=None,
                                   default_section="")
    try:
        read = cp.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot decode config file {path}: {exc}") from None
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    for sec in ("domain", "problem", "boundary", "output"):
        if not cp.has_section(sec):
            raise ConfigError(f"{sec}: required section missing")
    for sec in cp.sections():
        if sec not in _TABLE:
            raise ConfigError(f"{sec}: unknown section")

    dom = _section(cp, "domain", _TABLE["domain"])
    grid = _rule("domain", build_grid,
                 dom["x_min"], dom["x_max"], dom["y_min"], dom["y_max"], dom["n"], dom["n"])
    ladder = tuple(k * grid.h for k in LADDER_STEPS)

    problem = _section(cp, "problem", _TABLE["problem"])
    lp, lm = problem["lambda_plus"], problem["lambda_minus"]
    b = _section(cp, "boundary", _TABLE["boundary"], _KINDS)

    def boundary_trace():
        if b["kind"] == "profile":
            shape = GlobalProfile(b["beta1"], b["beta2"], b["tau"], b["theta"], lp, lm)
        else:
            shape = OnePhasePolynomial(b["cxx"], b["cxy"], b["cyy"], b["sign"])
        # data that overflow to inf or NaN are reported by BoundaryMap's
        # finiteness check, the one line of a config error
        with np.errstate(over="ignore", invalid="ignore"):
            return profile_boundary_trace(shape, grid).perturbed(_FAMILIES["constant"](1), b["offset"])

    trace = _rule("boundary", boundary_trace)
    solver = _section(cp, "solver", _TABLE["solver"])
    spec = ProblemSpec(grid, trace, lp, lm,
                       tol_linear=solver["tol_linear"], tol_pattern=solver["max_sweeps"])

    dp = _section(cp, "diagnostics", _TABLE["diagnostics"])
    diagnostics = dp.pop("run")
    dp["radii"] = dp["radii"] or ladder
    dp["eps"] = dp["eps"] or ladder
    point = dp["point"]
    if "graphs" in diagnostics:
        _rule("diagnostics.window", check_window, grid, dp["window"])
    if "covering" in diagnostics:
        for eps in dp["eps"]:
            _rule("diagnostics.eps", check_eps, grid, eps)
    # the balls the diagnostics integrate over, checked on the configured grid
    balls = []
    if set(diagnostics) & {"phi_ladder", "psi_ladder", "classify"}:
        balls += [("radii", r) for r in dp["radii"]]
    if "xi" in diagnostics:
        balls.append(("xi_r", dp["xi_r"]))
    if "graphs" in diagnostics:
        # fit_two_graphs bins vertices out to the window's half-width
        balls.append(("window", dp["window"]))
    if balls and not grid.contains_ball(point, 0.0):
        raise ConfigError(f"diagnostics.point: {point} lies outside the domain")
    for key, r in balls:
        _rule(f"diagnostics.{key}", check_ball, grid, point, r)

    sweep = _section(cp, "sweep", _TABLE["sweep"]) if cp.has_section("sweep") else None
    if sweep is not None:
        _rule("sweep.window", check_window, grid, sweep["window"])
        # the sweep classifies only vertices this far inside the grid
        margin = _reference_margin(grid, sweep["window"])
        if 2.0 * margin >= min(grid.x_max - grid.x_min, grid.y_max - grid.y_min):
            raise ConfigError(f"sweep.window: reference points need a margin of window + 2h "
                              f"({margin!r}) inside the domain, which leaves no room for them")

    out_dir = _section(cp, "output", _TABLE["output"])["dir"]
    return ExperimentConfig(spec, diagnostics, dp, sweep, out_dir)


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


def hausdorff_distance(a: FreeBoundarySet, b: FreeBoundarySet) -> float:
    """Symmetric Hausdorff distance between the pooled vertices of two free boundaries."""
    pa = a.all_vertices()
    pb = b.all_vertices()
    if pa.shape[0] == 0 or pb.shape[0] == 0:
        raise ValueError("hausdorff distance needs nonempty vertex sets")
    return max(_directed_hausdorff(pa, pb), _directed_hausdorff(pb, pa))


def _directed_hausdorff(p: np.ndarray, q: np.ndarray) -> float:
    # rows of p against all of q, about 16,384 pairs (128 KB per temporary) at a time
    step = max(1, 16384 // len(q))
    worst = 0.0
    for s in range(0, len(p), step):
        blk = p[s:s + step]
        d2 = (blk[:, None, 0] - q[None, :, 0]) ** 2 + (blk[:, None, 1] - q[None, :, 1]) ** 2
        worst = max(worst, float(np.max(np.min(d2, axis=1))))
    return math.sqrt(worst)


def _reference_margin(grid: Grid2D, window: float) -> float:
    """How far inside the grid a sweep reference point must lie: window + 2h.

    ``window`` is the half-width of the graph window the sweep fits around
    each target, and ``check_window`` holds it at 8h or more, so the 8h
    label ball and the window / 2 frame blow-up fit inside it too.
    """
    return window + 2.0 * grid.h


def _reference_points(fb: FreeBoundarySet, grid: Grid2D, window: float, budget: int) -> list:
    """Pick up to ``budget`` classification targets on the reference curve.

    Vertices are kept only at least ``_reference_margin`` inside the grid,
    so the label ball, the frame blow-up and the graph window of
    half-width ``window`` around a target stay inside it.  The rest are
    strided evenly in ``FreeBoundarySet.all_vertices``' order, so
    rounding-level changes of the field move each target by rounding, not
    by a stride.  With no vertex that far inside there is no target.
    """
    pts = fb.all_vertices()
    margin = _reference_margin(grid, window)
    keep = (
        (pts[:, 0] >= grid.x_min + margin) & (pts[:, 0] <= grid.x_max - margin)
        & (pts[:, 1] >= grid.y_min + margin) & (pts[:, 1] <= grid.y_max - margin)
    )
    pts = pts[keep]
    if pts.shape[0] == 0:
        return []
    # a sorted set, not np.unique: its first call imports numpy.ma, about 1 MB
    idx = sorted(set(np.linspace(0, len(pts) - 1, budget).round().astype(int).tolist()))
    return [(float(x), float(y)) for x, y in pts[idx]]


def stability_sweep(config: ExperimentConfig, fa_ref: FieldAnalysis) -> StabilityReport:
    """Boundary perturbation sweep against a classified reference solve.

    ``fa_ref`` holds the solved field of ``config``'s own problem; each
    perturbed problem is its ``spec`` with new boundary data.  An empty
    reference free boundary raises SweepHypothesisError before any
    perturbed solve: it has no target and no Hausdorff distance.  The
    reference free boundary is classified first, with the one-radius
    ladder (8h): ``classify_point``'s label reads only the smallest
    radius, and each radius is summed on its own, so what the label reads
    is what the default ladder gives, bit for bit.  Only the labels are
    written, so the classification is label-only (``evidence=False``): it
    gives the full call's label and skips the ramp distance, or stops its
    search, wherever the label does not need its value.  Any one-phase singular
    point aborts the sweep.  The graph frame of each of the first three
    branch points is then searched once, on the reference field
    (``graph_frame``), since near a branch point the perturbed free
    boundary is again two graphs over the same axis; a search that fails
    re-raises its error type, before any perturbed solve, under a message
    that names the reference point.  Each row re-solves with perturbed
    data, checks the comparison principle, measures the free boundary
    displacement, and fits graphs in each reference frame, anchored at
    the perturbed free-boundary vertex nearest the reference point (the
    first such vertex on a tie).  Each graph summary records the
    reference ``point``, the ``anchor`` and the reference frame's
    ``theta``.  A perturbed solve that fails re-raises its SolverError,
    with its report, under a message that names the amplitude and the
    failing level's nx x ny; a perturbed fit that fails re-raises its
    error type under a message that names the amplitude, the reference
    point and the anchor, and a perturbed free boundary that vanishes
    re-raises the ValueError of ``hausdorff_distance`` under a message
    that names the amplitude.
    """
    if config.sweep is None:
        raise ConfigError("sweep: section required for stability_sweep")
    u_ref = fa_ref.u
    spec = fa_ref.spec
    g = spec.grid
    fb_ref = fa_ref.free_boundary
    if not (fb_ref.plus_boundary or fb_ref.minus_boundary):
        raise SweepHypothesisError("the reference field has no free boundary: "
                                   "both of its +-tol_zero contours are empty")

    h = g.h
    window = config.sweep["window"]
    points = _reference_points(fb_ref, g, window, config.sweep["classify_budget"])
    # the label reads only the ladder's smallest radius
    radii = (LADDER_STEPS[-1] * h,)
    labels = []
    for p in points:
        cls = classify_point(fa_ref, RadiusLadder(p, radii), evidence=False)
        labels.append(cls.label)
        if cls.label == "one_phase_singular":
            raise SweepHypothesisError(
                f"reference free boundary point ({float_repr(p[0])}, {float_repr(p[1])}) "
                "classifies as one_phase_singular"
            )
    branch_points = [p for p, lab in zip(points, labels) if lab == "branch"][:3]
    # near a branch point the perturbed boundary is again two graphs over
    # the same axis, so each frame is searched once, on the reference field
    frames = []
    for p in branch_points:
        try:
            frames.append(graph_frame(fa_ref, p, window))
        except (DegenerateRescaleError, RampFitError) as exc:
            raise type(exc)(f"graph frame search at reference point "
                            f"({float_repr(p[0])}, {float_repr(p[1])}) failed: {exc}") from exc

    fam = _FAMILIES[config.sweep["family"]](config.sweep["k"])
    rows = []
    for delta in config.sweep["amplitudes"]:
        spec_d = dataclasses.replace(spec, boundary=spec.boundary.perturbed(fam, delta))
        try:
            u_d, _ = solve(spec_d)
        except SolverError as exc:
            level = exc.report.levels[-1]
            raise SolverError(f"perturbed solve at amplitude {float_repr(delta)} failed on its "
                              f"{level['nx']} x {level['ny']} level: {exc}", exc.report) from exc
        cmp = comparison_check(u_ref, spec, u_d, spec_d)
        fa_d = FieldAnalysis(u_d, spec_d)
        try:
            dist = hausdorff_distance(fb_ref, fa_d.free_boundary)
        except ValueError as exc:
            raise ValueError(f"perturbed free boundary at amplitude {float_repr(delta)}: {exc}") from exc
        verts = fa_d.free_boundary.all_vertices()
        summaries = []
        for p, theta in zip(branch_points, frames):
            # the perturbed vertex nearest p; the first one wins a tie
            anchor = tuple(verts[int(np.argmin(np.sum((verts - p) ** 2, axis=1)))].tolist())
            try:
                fit = fit_two_graphs(fa_d, anchor, window, theta)
            except (ZeroSetEmptyError, NotVerticallySimpleError) as exc:
                raise type(exc)(f"perturbed fit at amplitude {float_repr(delta)} near reference point "
                                f"({float_repr(p[0])}, {float_repr(p[1])}), anchored at "
                                f"({float_repr(anchor[0])}, {float_repr(anchor[1])}), failed: {exc}") from exc
            summaries.append({
                "point": [p[0], p[1]],
                "anchor": [anchor[0], anchor[1]],
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
    dp = config.diag_params
    out = config.output_dir
    point = dp["point"]
    _write_free_boundary(fa.free_boundary, os.path.join(out, "free_boundary.csv"))

    ladder = RadiusLadder(point, dp["radii"])
    if "phi_ladder" in config.diagnostics:
        prof = phi_ladder(u, fa.gradients, ladder, fa.spec.lambda_plus, fa.spec.lambda_minus)
        _write_ladder(prof, os.path.join(out, "phi_ladder.csv"))
    if "psi_ladder" in config.diagnostics:
        _write_ladder(fa.psi_profiles(ladder)["e1"], os.path.join(out, "psi_ladder.csv"))
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
        lengths = perimeter_estimate(fa)
        write_json(lengths, os.path.join(out, "perimeter.json"))
    if "covering" in config.diagnostics:
        rows = []
        for eps in dp["eps"]:
            n_eps = covering_count(fa, eps)
            rows.append({"eps": eps, "count": n_eps, "product": n_eps * eps})
        write_json(rows, os.path.join(out, "covering.json"))


def run(config: ExperimentConfig, mode: str = "diagnose") -> int:
    """Execute one experiment; returns a process exit status.

    A mode other than solve, diagnose or sweep is a ValueError, raised
    before anything runs.  A sweep without a [sweep] section is a config
    error, found before any solve or output directory.  A failed solve of
    ``config.spec`` still writes its report, marked not converged.
    An ``OSError`` while the output directory is made or an artifact written
    is reported in one line.
    """
    if mode not in ("solve", "diagnose", "sweep"):
        raise ValueError(f"unknown mode {mode!r}: expected solve, diagnose or sweep")
    report_path = os.path.join(config.output_dir, "solve_report.json")
    try:
        if mode == "sweep" and config.sweep is None:
            raise ConfigError("sweep: section required by the sweep verb")
        os.makedirs(config.output_dir, exist_ok=True)
        try:
            u, report = solve(config.spec)
        except SolverError as exc:
            # the report of the failed level; a perturbed solve's failure
            # in the sweep leaves the reference report in place
            write_json(exc.report, report_path)
            raise
        dump_field_csv(u, os.path.join(config.output_dir, "field.csv"))
        write_json(report, report_path)
        fa = FieldAnalysis(u, config.spec)
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
    except OSError as exc:
        print(f"error: cannot write artifacts in {config.output_dir}: {exc.strerror or exc}", file=sys.stderr)
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
    spec = ProblemSpec(gs, profile_boundary_trace(poly, gs), 2.0, 2.0)
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
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return run(config, mode=args.verb)


if __name__ == "__main__":
    sys.exit(main())
