"""Output checks for benchmark jobs, recomputed from the artifacts alone.

Every verdict comes from closed-form facts about the ramp profile
v(x) = (lp/4) max(x, 0)^2 - (lm/4) min(x - tau, 0)^2 and from the
solver's documented tolerances, never from a stored copy of earlier
output.  Each check returns a list of failure messages; an empty list
means the job's artifacts are right.  A missing or unparsable artifact
is a failure like any other.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

from workloads import LAMBDA, RADII

# Solver defaults (ProblemSpec): the configs do not override them.
TOL_LINEAR = 1e-10
TOL_ZERO = 1e-10 * (LAMBDA + LAMBDA)

DIAGNOSE_ARTIFACTS = (
    "classification.json", "covering.json", "field.csv", "free_boundary.csv",
    "graphs.json", "perimeter.json", "phi_ladder.csv", "psi_ladder.csv",
    "solve_report.json", "xi.csv",
)


class ArtifactError(ValueError):
    """An artifact is missing or does not have the documented layout."""


def ramp(X: np.ndarray, tau: float) -> np.ndarray:
    """The beta1 = 1, theta = 0 profile with lambda_plus = lambda_minus = LAMBDA."""
    pos = np.maximum(X, 0.0)
    neg = np.minimum(X - tau, 0.0)
    return 0.25 * LAMBDA * pos * pos - 0.25 * LAMBDA * neg * neg


def read_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise ArtifactError(f"{os.path.basename(path)}: {exc}") from None


def read_table(path: str, header: str, ncols: int) -> np.ndarray:
    """Numeric CSV body after an exact header line, shape (rows, ncols)."""
    try:
        with open(path) as fh:
            first = fh.readline().rstrip("\n")
            if first != header:
                raise ArtifactError(f"{os.path.basename(path)}: header {first!r} != {header!r}")
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise ArtifactError(f"{os.path.basename(path)}: {exc}") from None
    if data.shape[1] != ncols or not np.all(np.isfinite(data)):
        raise ArtifactError(f"{os.path.basename(path)}: bad shape {data.shape} or non-finite values")
    return data


def read_field(path: str, n: int):
    """(X, Y, U) arrays of shape (n, n) from field.csv, rows by y then x."""
    data = read_table(path, "x,y,value", 3)
    if data.shape[0] != n * n:
        raise ArtifactError(f"field.csv: {data.shape[0]} rows, expected {n * n}")
    X, Y, U = (data[:, k].reshape(n, n) for k in range(3))
    h = 2.0 / (n - 1)
    nodes = -1.0 + h * np.arange(n)
    if np.max(np.abs(X - nodes[None, :])) > 1e-12 or np.max(np.abs(Y - nodes[:, None])) > 1e-12:
        raise ArtifactError("field.csv: nodes are not the uniform grid on [-1, 1]^2")
    return X, Y, U


def _ring(n: int) -> np.ndarray:
    m = np.zeros((n, n), dtype=bool)
    m[0, :] = m[-1, :] = m[:, 0] = m[:, -1] = True
    return m


def _five_point(U: np.ndarray, h: float) -> np.ndarray:
    return (U[1:-1, :-2] + U[1:-1, 2:] + U[:-2, 1:-1] + U[2:, 1:-1] - 4.0 * U[1:-1, 1:-1]) / (h * h)


def _converged(out_dir: str) -> list:
    rep = read_json(os.path.join(out_dir, "solve_report.json"))
    if rep.get("converged") is not True:
        return [f"solve_report.json: converged = {rep.get('converged')!r}"]
    return []


def check_slab(out_dir: str, tau: float, n: int) -> list:
    """Pinned-slab solve: the field satisfies the discrete problem it solved."""
    fails = _converged(out_dir)
    X, Y, U = read_field(os.path.join(out_dir, "field.csv"), n)
    h = 2.0 / (n - 1)

    # Floats round-trip exactly through the 17-digit artifact format
    # (README), so boundary values may differ from the data only by the
    # last-place rounding of evaluating the same formula in another order.
    ring = _ring(n)
    data = ramp(X, tau)[ring]
    bad = np.abs(U[ring] - data) > 4.0 * np.spacing(np.maximum(np.abs(data), 1.0))
    if np.any(bad):
        fails.append(f"boundary: {int(np.count_nonzero(bad))} node(s) differ from the data")

    inner = U[1:-1, 1:-1]
    lap = _five_point(U, h)
    band = np.abs(inner) <= TOL_ZERO
    forcing = np.where(inner > 0.0, 0.5 * LAMBDA, -0.5 * LAMBDA)
    res = np.max(np.abs(lap - forcing)[~band], initial=0.0)
    if res > TOL_LINEAR:
        fails.append(f"residual off the band {res:.3e} > tol_linear {TOL_LINEAR:.1e}")
    # multiplier of u = 0 on the band; the solver releases a pinned node
    # only beyond 100 * tol_linear / h^2 of the box
    slack = 100.0 * TOL_LINEAR / (h * h)
    lap_band = lap[band]
    if lap_band.size and (np.max(lap_band) > 0.5 * LAMBDA + slack
                          or np.min(lap_band) < -0.5 * LAMBDA - slack):
        fails.append(
            f"band Laplacian in [{np.min(lap_band):.4f}, {np.max(lap_band):.4f}] "
            f"leaves [-{0.5 * LAMBDA}, {0.5 * LAMBDA}]"
        )

    strip = (X > tau + 0.05) & (X < -0.05) & (np.abs(Y) < 0.5)
    if np.max(np.abs(U[strip]), initial=0.0) > TOL_ZERO:
        fails.append("slab strip is not pinned at zero")
    if not (np.max(U) > 0.1 and np.min(U) < -0.05):
        fails.append("a phase vanished away from the slab")
    return fails


def check_diagnose(out_dir: str, y0: float, n: int) -> list:
    """Diagnostics at (0, y0) on the tau = 0 profile, a two-phase branch line."""
    missing = [a for a in DIAGNOSE_ARTIFACTS if not os.path.isfile(os.path.join(out_dir, a))]
    if missing:
        return [f"missing artifacts: {', '.join(missing)}"]
    fails = _converged(out_dir)
    X, Y, U = read_field(os.path.join(out_dir, "field.csv"), n)
    h = 2.0 / (n - 1)

    # the profile's second derivative is LAMBDA / 2, so bilinear
    # interpolation is within h^2/8 of it; 5% covers the linear solve
    tol_field = 1.05 * h * h / 8.0
    centre = 0.25 * (U[:-1, :-1] + U[:-1, 1:] + U[1:, :-1] + U[1:, 1:])
    xc = 0.5 * (X[:-1, :-1] + X[:-1, 1:])
    err = max(np.max(np.abs(U - ramp(X, 0.0))), np.max(np.abs(centre - ramp(xc, 0.0))))
    if err > tol_field:
        fails.append(f"field error {err:.3e} > 1.05 h^2/8 = {tol_field:.3e}")

    cls = read_json(os.path.join(out_dir, "classification.json"))
    try:
        label, point = cls[0]["class"], cls[0]["point"]
    except (LookupError, TypeError):
        raise ArtifactError("classification.json: no [{point, class}] record") from None
    if label != "branch":
        fails.append(f"label {label!r} != 'branch'")
    if point != [0.0, y0]:
        fails.append(f"classified point {point} != [0.0, {y0}]")

    phi = read_table(os.path.join(out_dir, "phi_ladder.csv"), "r,value,violation_flag", 3)
    psi = read_table(os.path.join(out_dir, "psi_ladder.csv"), "r,value,violation_flag", 3)
    for name, table in (("phi", phi), ("psi", psi)):
        if tuple(table[:, 0]) != RADII:
            fails.append(f"{name} ladder radii {tuple(table[:, 0])} != {RADII}")
    # Weiss energy of the two-phase profile is pi/8 at every radius
    if np.any(np.abs(phi[:, 1] - math.pi / 8.0) > 0.01 * math.pi / 8.0):
        fails.append(f"phi ladder {phi[:, 1].tolist()} not within 1% of pi/8")
    # the e1 derivative is |x| >= 0, so its negative part and the product
    # functional vanish; tol_psi is the classifier's default 1% of pi^2/4
    tol_psi = 1e-2 * math.pi ** 2 / 4.0
    if np.any(psi[:, 1] >= tol_psi):
        fails.append(f"psi ladder {psi[:, 1].tolist()} not below tol_psi {tol_psi:.4f}")

    per = read_json(os.path.join(out_dir, "perimeter.json"))
    for phase in ("plus", "minus"):
        length = per.get(phase)
        if not isinstance(length, (int, float)) or abs(length - 2.0) > 2.0 * h:
            fails.append(f"{phase} perimeter {length!r} not within 2h of 2")

    cov = read_json(os.path.join(out_dir, "covering.json"))
    if not cov:
        fails.append("covering.json is empty")
    for row in cov:
        if not (row["count"] >= 1 and row["product"] == row["count"] * row["eps"] and row["product"] <= 4.0):
            fails.append(f"covering row {row} breaks N(eps) * eps <= 4")
    return fails


def check_sweep(out_dir: str, delta0: float, n: int) -> list:
    """Constant-shift sweep of the tau = 0 profile."""
    fails = _converged(out_dir)
    h = 2.0 / (n - 1)
    rep = read_json(os.path.join(out_dir, "stability.json"))
    try:
        rows = rep["rows"]
        deltas = [row["delta"] for row in rows]
        monotone = rep["hausdorff_monotone"]
        labels = rep["reference_labels"]
    except (LookupError, TypeError):
        raise ArtifactError("stability.json: missing rows or flags") from None
    want = [delta0, delta0 / 2.0, delta0 / 4.0]
    if deltas != want:
        fails.append(f"sweep deltas {deltas} != {want}")
    for row in rows:
        d = row["delta"]
        if row["comparison_holds"] is not True:
            fails.append(f"delta={d}: comparison_holds is {row['comparison_holds']!r}")
        if not row["sup_interior_diff"] <= d + 10.0 * TOL_LINEAR:
            fails.append(f"delta={d}: sup_interior_diff {row['sup_interior_diff']} > delta + 10 tol_linear")
        # a constant lift delta moves the free boundary by sqrt(4 delta / lm)
        expect = math.sqrt(4.0 * d / LAMBDA)
        if not abs(row["hausdorff_to_reference"] - expect) <= 2.0 * h:
            fails.append(
                f"delta={d}: hausdorff {row['hausdorff_to_reference']} not within 2h of {expect:.6f}"
            )
    if monotone is not True:
        fails.append(f"hausdorff_monotone is {monotone!r}")
    if not labels or any(lab != "branch" for lab in labels):
        fails.append(f"reference labels {labels} are not all 'branch'")
    return fails


CHECKS = {"slab-solve": check_slab, "profile-diagnose": check_diagnose, "shift-sweep": check_sweep}


def check_job(workload: str, out_dir: str, value: float, n: int) -> list:
    """Failure messages for one job's artifacts; parse errors are failures.

    A JSON artifact of the wrong shape (an array where an object belongs,
    say) raises one of the caught built-in errors and fails the job.
    """
    try:
        return CHECKS[workload](out_dir, value, n)
    except (ArtifactError, AttributeError, LookupError, TypeError) as exc:
        return [f"unreadable artifact: {exc}"]


def artifact_digest(out_dir: str) -> dict:
    """SHA-256 of every artifact in a job's output directory, by file name."""
    out = {}
    for name in sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else ():
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out
