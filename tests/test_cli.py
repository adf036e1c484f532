"""Config parsing, artifact determinism, sweeps, exit codes."""
import dataclasses
import filecmp
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from membranelab import (
    ConfigError,
    DegenerateRescaleError,
    FieldAnalysis,
    FreeBoundarySet,
    GlobalProfile,
    NotVerticallySimpleError,
    ProblemSpec,
    RampFitError,
    StabilityReport,
    SweepHypothesisError,
    ScalarField,
    SweepRow,
    ZeroSetEmptyError,
    build_grid,
    dump_field_csv,
    extract_free_boundary,
    float_repr,
    hausdorff_distance,
    load_config,
    profile_boundary_trace,
    run,
    solve,
    stability_sweep,
    write_json,
)
from membranelab import cli, freeboundary, monotonicity
from membranelab.cli import main, selftest
from membranelab.freeboundary import _DIRECTIONS
from membranelab.monotonicity import RadiusLadder, directional_psi
from membranelab.grid import boundary_mask


BASE_INI = """
[domain]
x_min = -1.0
x_max = 1.0
y_min = -1.0
y_max = 1.0
n = 65

[problem]
lambda_plus = 2.0
lambda_minus = 2.0

[boundary]
kind = profile
beta1 = 1.0

[output]
dir = {out}
"""


def write_ini(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_python(*args):
    """The interpreter run on ``args`` in a process of its own, this checkout's package first on its path."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=300)


# ---------------------------------------------------------------------------
# Config loading
# ---------------------------------------------------------------------------


def test_load_config_happy_path(tmp_path):
    cfg = load_config(write_ini(tmp_path, BASE_INI.format(out=tmp_path / "out")))
    g = cfg.spec.grid
    assert g.nx == g.ny == 65
    # the boundary data are the trace of the configured profile
    profile = GlobalProfile(1.0, 0.0, 0.0, 0.0, 2.0, 2.0)
    assert np.array_equal(cfg.spec.boundary.values, profile_boundary_trace(profile, g).values)
    assert cfg.spec.tol_linear == 1e-10
    assert cfg.sweep is None
    assert g.h == pytest.approx(2.0 / 64.0)


def test_load_config_inline_comments_and_sections(tmp_path):
    text = BASE_INI.format(out=tmp_path / "out") + """
[solver]
tol_linear = 1e-9   ; tighter would also work
max_sweeps = 50

[diagnostics]
run = phi_ladder, perimeter
point = 0.0, 0.0

[sweep]
family = sine
amplitudes = 0.2, 0.1
k = 2
"""
    cfg = load_config(write_ini(tmp_path, text))
    assert cfg.spec.tol_linear == 1e-9 and cfg.spec.tol_pattern == 50
    assert cfg.diagnostics == ("phi_ladder", "perimeter")
    assert cfg.sweep["family"] == "sine" and cfg.sweep["k"] == 2


@pytest.mark.parametrize("mutation, needle", [
    ("[domain]\nx_min = -1", "required section missing"),
    ("replace:n = 65\nn = 2", "at least 3 nodes"),
    ("replace:y_max = 1.0\ny_max = 1.5", "domain: spacing mismatch"),
    ("replace:x_max = 1.0\nx_max = -1.0", "domain: grid bounds must satisfy x_min < x_max"),
    ("replace:lambda_plus = 2.0\nlambda_plus = -1.0", "must be positive"),
    ("replace:kind = profile\nkind = cubic", "unknown kind"),
    ("append:[diagnostics]\nrun = swirl", "unknown diagnostic"),
    ("append:[diagnostics]\npoint = 1, 2, 3", "two coordinates"),
    ("append:[diagnostics]\npoints = 0 0", "diagnostics.points"),
    ("append:[diagnostics]\nradii = 0.125, 0.25", "diagnostics.radii"),
    ("append:[sweep]\nfamily = constant\namplitudes = 0.1, 0.2", "strictly decreasing"),
    ("append:[sweep]\nfamily = triangle\namplitudes = 0.1", "unknown family"),
    ("replace:beta1 = 1.0\nbeta1 = 1.0\ntau = 0.5", "boundary"),
    ("append:[sweep]\nfamily = constant\namplitudes = 0.1\nclassify_budget = -1", "sweep.classify_budget:"),
    ("append:[sweep]\nfamily = constant\namplitudes = 0.1\nclassify_budget = 0", "sweep.classify_budget:"),
    ("append:[sweep]\nfamily = sine\namplitudes = 0.1\nk = 0", "sweep.k:"),
    ("append:[sweep]\nfamily = constant\namplitudes = 0.1\nwindow = 0.0", "sweep.window:"),
    ("append:[sweep]\nfamily = constant\namplitudes = 0.1\nwindow = -0.25", "sweep.window:"),
    ("append:[diagnostics]\nwindow = 0.0", "diagnostics.window:"),
    # 8 grid steps of the n = 65 grid on [-1, 1] are 0.25
    ("append:[sweep]\nfamily = constant\namplitudes = 0.1\nwindow = 0.2", "sweep.window: must cover at least 8"),
    # the margin window + 2h reaches past the middle of the n = 65 grid
    ("append:[sweep]\nfamily = constant\namplitudes = 0.1\nwindow = 0.95",
     r"sweep.window: reference points need a margin .*"
     + re.escape(f"({cli._reference_margin(build_grid(-1.0, 1.0, -1.0, 1.0, 65, 65), 0.95)!r})")),
    ("append:[diagnostics]\nrun = graphs\nwindow = 0.2", "diagnostics.window: must cover at least 8"),
    ("append:[diagnostics]\neps = 0.25, 0.0", "diagnostics.eps:"),
    ("append:[diagnostics]\neps = -0.125", "diagnostics.eps:"),
    ("append:[diagnostics]\nxi_r = 0.0", "diagnostics.xi_r:"),
    ("append:[diagnostics]\nxi_m = 63", "diagnostics.xi_m:"),
    ("append:[diagnostics]\nxi_m = 2", "diagnostics.xi_m:"),
    # 2 grid steps of the n = 65 grid on [-1, 1] are 0.0625
    ("append:[diagnostics]\nrun = covering\neps = 0.25, 0.04", "diagnostics.eps: must be at least 2 grid steps"),
    ("append:[solver]\ntol_linear = nan", "solver.tol_linear: must be finite"),
    ("replace:lambda_plus = 2.0\nlambda_plus = inf", "problem.lambda_plus: must be finite"),
    ("append:[diagnostics]\npoint = nan 0", "diagnostics.point: must be finite"),
    # a misspelt section, or a key of the other boundary kind, is not ignored
    ("append:[solvr]\ntol_linear = 1e-9", "solvr: unknown section"),
    # [DEFAULT] is a section like any other: its keys reach no other section
    ("append:[DEFAULT]\nn = 65", "^DEFAULT: unknown section"),
    ("append:[DEFAULT]", "^DEFAULT: unknown section"),
    ("replace:kind = profile\nkind = polynomial\ncxx = 0.25\ncyy = 0.25\ntau = -0.5", "boundary.tau: unknown key"),
    # radii must exceed 2 grid steps (0.0625) and their balls must stay in the grid
    ("append:[diagnostics]\nrun = phi_ladder\nradii = 0.5, 0.05", "diagnostics.radii: radius 0.05 under-resolved"),
    ("append:[diagnostics]\nrun = classify\nradii = 0.5, 0.0625", "diagnostics.radii: radius 0.0625 under-resolved"),
    ("append:[diagnostics]\nrun = psi_ladder\npoint = 0.75 0\nradii = 0.5", "diagnostics.radii: ball of radius 0.5"),
    # the default ladder is 32, 16 and 8 grid steps: 1.0, 0.5 and 0.25
    ("append:[diagnostics]\nrun = phi_ladder\npoint = 0.5 0", "diagnostics.radii: ball of radius 1.0"),
    # an empty output directory: the configured path becomes a comment line
    ("replace:dir = \ndir =\n# ", "output.dir: must not be empty"),
    ("append:[diagnostics]\nrun = xi\nxi_r = 1.5", "diagnostics.xi_r: ball of radius 1.5"),
    ("append:[diagnostics]\nrun = xi\nxi_r = 0.05", "diagnostics.xi_r: radius 0.05 under-resolved"),
    ("append:[diagnostics]\nrun = graphs\npoint = 0 0.9", "diagnostics.window: ball of radius 0.25"),
    ("append:[diagnostics]\nrun = graphs\npoint = 2 0", "diagnostics.point: .* lies outside the domain"),
])
def test_load_config_rejects_bad_inputs(tmp_path, mutation, needle):
    text = BASE_INI.format(out=tmp_path / "out")
    if mutation.startswith("replace:"):
        old, new = mutation[len("replace:"):].split("\n", 1)
        text = text.replace(old, new)
    elif mutation.startswith("append:"):
        text += "\n" + mutation[len("append:"):]
    else:
        # keep only a crippled [domain] section
        text = mutation + "\n[output]\ndir = x\n"
    with pytest.raises(ConfigError, match=needle):
        load_config(write_ini(tmp_path, text))


def test_offset_is_the_constant_family_at_that_amplitude(tmp_path):
    # boundary.offset lifts the profile's trace as a constant-family
    # perturbation of amplitude offset does, to the byte of the field
    ini = BASE_INI.replace("beta1 = 1.0", "beta1 = 1.0\noffset = 0.3")
    out = tmp_path / "out"
    assert run(load_config(write_ini(tmp_path, ini.format(out=out))), mode="solve") == 0
    g = build_grid(-1.0, 1.0, -1.0, 1.0, 65, 65)
    profile = GlobalProfile(1.0, 0.0, 0.0, 0.0, 2.0, 2.0)
    trace = profile_boundary_trace(profile, g).perturbed(lambda X, Y: np.ones_like(X), 0.3)
    u, _ = solve(ProblemSpec(g, trace, 2.0, 2.0))
    dump_field_csv(u, str(tmp_path / "want.csv"))
    assert (out / "field.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "absent.ini"))


def readme_blocks(lang):
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        return re.findall(rf"```{lang}\n(.*?)```", fh.read(), re.S)


def test_readme_config_example_loads(tmp_path):
    blocks = readme_blocks("ini")
    assert len(blocks) == 1
    text = re.sub(r"(?m)^dir = .*$", f"dir = {tmp_path / 'out'}", blocks[0])
    cfg = load_config(write_ini(tmp_path, text))
    assert cfg.diag_params["point"] == (0.0, 0.0)
    assert cfg.diag_params["radii"] == (0.5, 0.25, 0.125, 0.0625)
    assert cfg.sweep["amplitudes"] == (0.1, 0.05, 0.025)


def test_readme_library_example_runs():
    # the documented API runs as written, on the half-plane profile it sets up
    blocks = readme_blocks("python")
    assert len(blocks) == 1
    ns = {}
    exec(compile(blocks[0], "README.md", "exec"), ns)
    assert ns["report"].converged
    assert ns["phi"] == pytest.approx(math.pi / 8.0, rel=1e-2)
    assert ns["label"] == "branch"
    assert ns["fit"].theta == pytest.approx(0.0, abs=2.0 * math.pi / 360.0)


# ---------------------------------------------------------------------------
# Deterministic writers
# ---------------------------------------------------------------------------


def test_write_json_golden_bytes(tmp_path):
    path = tmp_path / "g.json"
    write_json({"a": 1.5, "b": [1, 2.25], "c": {"d": True, "e": None}}, str(path))
    assert path.read_text() == (
        '{\n  "a": 1.5,\n  "b": [\n    1,\n    2.25\n  ],\n'
        '  "c": {\n    "d": true,\n    "e": null\n  }\n}\n'
    )


@dataclass(frozen=True)
class _Inner:
    flag: np.bool_
    count: np.int64


@dataclass(frozen=True)
class _Outer:
    name: str
    pair: tuple
    values: np.ndarray
    inner: _Inner
    x: np.float64
    zero: float


def test_write_json_golden_bytes_of_a_dataclass(tmp_path):
    # fields in declaration order; numpy scalars and arrays, tuples, -0.0
    # and quotes all take the same text as their Python counterparts
    path = tmp_path / "d.json"
    obj = _Outer('say "hi"', (1, 0.5), np.array([0.25, -1.0]),
                 _Inner(np.bool_(True), np.int64(7)), np.float64(0.1), -0.0)
    write_json(obj, str(path))
    assert path.read_text() == (
        '{\n  "name": "say \\"hi\\"",\n  "pair": [\n    1,\n    0.5\n  ],\n'
        '  "values": [\n    0.25,\n    -1\n  ],\n'
        '  "inner": {\n    "flag": true,\n    "count": 7\n  },\n'
        '  "x": 0.10000000000000001,\n  "zero": 0\n}\n'
    )


def test_write_json_empty_containers_and_unserialisable_values(tmp_path):
    path = tmp_path / "e.json"
    write_json({}, str(path))
    assert path.read_text() == "{}\n"
    write_json({"a": {}, "b": []}, str(path))
    assert path.read_text() == '{\n  "a": {},\n  "b": []\n}\n'
    with pytest.raises(TypeError, match="cannot serialize set"):
        write_json({"a": {1, 2}}, str(path))


def test_write_json_uses_17_digit_floats(tmp_path):
    path = tmp_path / "f.json"
    write_json({"pi": math.pi}, str(path))
    assert "3.1415926535897931" in path.read_text()


# ---------------------------------------------------------------------------
# Hausdorff distance
# ---------------------------------------------------------------------------


def seg(a, b, k=2):
    t = np.linspace(0.0, 1.0, k)[:, None]
    return np.asarray(a) * (1 - t) + np.asarray(b) * t


def plus_set(*chains):
    """The polylines as the positive phase boundary of a FreeBoundarySet."""
    return FreeBoundarySet(chains, ())


def test_hausdorff_identical_is_zero():
    chains = plus_set(seg((0, 0), (1, 0), 5))
    assert hausdorff_distance(chains, chains) == 0.0


def test_hausdorff_translation():
    a = plus_set(seg((0, 0), (1, 0), 9))
    b = plus_set(seg((0.3, 0.4), (1.3, 0.4), 9))
    assert hausdorff_distance(a, b) == pytest.approx(0.5, abs=1e-12)


def test_hausdorff_parallel_lines():
    a = plus_set(seg((0, 0), (2, 0), 2))       # endpoints only
    b = plus_set(seg((0, 0.25), (2, 0.25), 2))
    assert hausdorff_distance(a, b) == pytest.approx(0.25, abs=1e-12)


def test_hausdorff_empty_raises():
    with pytest.raises(ValueError):
        hausdorff_distance(plus_set(), plus_set(seg((0, 0), (1, 0))))


def test_hausdorff_holds_no_block_of_all_pairs(profile_solutions):
    # n = 257 profile data and its delta = 0.1 constant shift, 514 and 680
    # vertices: blocks of 512 rows against every vertex held 5.7 MB
    _, spec, u, _ = profile_solutions[257]
    shifted = ProblemSpec(spec.grid, spec.boundary.perturbed(cli._FAMILIES["constant"](1), 0.1), 2.0, 2.0)
    a = extract_free_boundary(u, spec.tol_zero)
    b = extract_free_boundary(solve(shifted)[0], shifted.tol_zero)
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        got = hausdorff_distance(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - entry <= 1e6, peak - entry
    # a maximum of per-row minima is exact: the whole distance matrix gives the same bits
    pa, pb = a.all_vertices(), b.all_vertices()
    d2 = (pa[:, None, 0] - pb[None, :, 0]) ** 2 + (pa[:, None, 1] - pb[None, :, 1]) ** 2
    assert got == math.sqrt(max(d2.min(axis=1).max(), d2.min(axis=0).max()))


# ---------------------------------------------------------------------------
# Stability report container
# ---------------------------------------------------------------------------


def make_row(delta):
    return SweepRow(delta, delta, 0.9 * delta, True, 0.1, ())


def test_stability_report_requires_decreasing_deltas(tmp_path):
    rows = (make_row(0.1), make_row(0.05))
    rep = StabilityReport(rows, True, 0.01, ((0.0, 0.0),), ("branch",))
    path = tmp_path / "stability.json"
    write_json(rep, str(path))
    assert json.loads(path.read_text())["hausdorff_monotone"] is True
    with pytest.raises(ValueError):
        StabilityReport((make_row(0.05), make_row(0.1)), True, 0.01, (), ())


# ---------------------------------------------------------------------------
# End-to-end runs
# ---------------------------------------------------------------------------

DIAG_INI = BASE_INI + """
[diagnostics]
run = phi_ladder, psi_ladder, classify, graphs, xi, perimeter, covering
point = 0.0, 0.0
window = 0.25
xi_r = 0.5
xi_m = 64
"""


def test_diagnose_writes_deterministic_artifacts(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    code = run(load_config(write_ini(tmp_path, DIAG_INI.format(out=out1), "a.ini")))
    assert code == 0
    code = run(load_config(write_ini(tmp_path, DIAG_INI.format(out=out2), "b.ini")))
    assert code == 0
    names = sorted(os.listdir(out1))
    assert names == sorted(os.listdir(out2))
    for want in ("field.csv", "solve_report.json", "free_boundary.csv",
                 "phi_ladder.csv", "psi_ladder.csv", "classification.json",
                 "graphs.json", "xi.csv", "perimeter.json", "covering.json"):
        assert want in names
    match, mismatch, errors = filecmp.cmpfiles(out1, out2, names, shallow=False)
    assert mismatch == [] and errors == []


def counting_directional_psi(mp, calls):
    """Record the (ladder, directions) of every directional_psi call of the analysis.

    FieldAnalysis calls it through the freeboundary binding; a cli binding,
    were there one, is counted too.
    """
    def counting(grads, ladder, directions):
        calls.append((ladder, list(directions)))
        return directional_psi(grads, ladder, directions)
    mp.setattr(freeboundary, "directional_psi", counting)
    mp.setattr(cli, "directional_psi", counting, raising=False)


@pytest.fixture(scope="module")
def diagnosed(tmp_path_factory):
    """A diagnose run of all seven diagnostics, and its directional_psi calls."""
    tmp = tmp_path_factory.mktemp("diagnosed")
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        counting_directional_psi(mp, calls)
        assert run(load_config(write_ini(tmp, DIAG_INI.format(out=tmp / "out")))) == 0
    return tmp / "out", calls


def test_diagnose_evaluates_directional_psi_once(diagnosed):
    # classify and psi_ladder share one evaluation of the four directions
    _, calls = diagnosed
    assert len(calls) == 1
    assert calls[0][1] == [e for _, e in _DIRECTIONS]


def test_psi_ladder_csv_is_the_classified_e1_psi(diagnosed):
    out, _ = diagnosed
    values = [line.split(",")[1] for line in (out / "psi_ladder.csv").read_text().splitlines()[1:]]
    record = json.loads((out / "classification.json").read_text(), parse_float=str, parse_int=str)
    assert values == record[0]["evidence"]["psi"]["e1"]


def test_psi_ladder_alone_writes_the_e1_ladder(tmp_path, monkeypatch):
    ini = DIAG_INI.replace("run = phi_ladder, psi_ladder, classify, graphs, xi, perimeter, covering",
                           "run = psi_ladder")
    cfg = load_config(write_ini(tmp_path, ini.format(out=tmp_path / "out")))
    calls = []
    counting_directional_psi(monkeypatch, calls)
    assert run(cfg) == 0
    assert len(calls) == 1
    u, _ = solve(cfg.spec)
    ladder = RadiusLadder(cfg.diag_params["point"], cfg.diag_params["radii"])
    (prof,) = directional_psi(FieldAnalysis(u, cfg.spec).gradients, ladder, [(1.0, 0.0)])
    cli._write_ladder(prof, str(tmp_path / "want.csv"))
    assert (tmp_path / "out" / "psi_ladder.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_perimeter_json_sums_the_free_boundary_csv(tmp_path):
    # each phase's perimeter is the summed segment length of its chains in
    # free_boundary.csv, read back from the 17-digit text of both files
    ini = BASE_INI.replace("beta1 = 1.0", "beta1 = 1.0\ntheta = 0.3") + "\n[diagnostics]\nrun = perimeter\n"
    out = tmp_path / "out"
    assert run(load_config(write_ini(tmp_path, ini.format(out=out)))) == 0
    chains = {}
    for line in (out / "free_boundary.csv").read_text().splitlines()[1:]:
        phase, cid, x, y = line.split(",")
        chains.setdefault((phase, int(cid)), []).append((float(x), float(y)))
    lengths = {"plus": 0.0, "minus": 0.0}
    for (phase, _), points in chains.items():
        d = np.diff(np.array(points), axis=0)
        lengths[phase] += float(np.sum(np.hypot(d[:, 0], d[:, 1])))
    assert lengths["plus"] > 1.0 and lengths["minus"] > 1.0
    assert json.loads((out / "perimeter.json").read_text()) == lengths


def test_solve_mode_writes_field_only(tmp_path):
    out = tmp_path / "solve_out"
    cfg = load_config(write_ini(tmp_path, BASE_INI.format(out=out)))
    assert run(cfg, mode="solve") == 0
    names = sorted(os.listdir(out))
    assert names == ["field.csv", "solve_report.json"]


def test_config_values_are_literal(tmp_path):
    # a % in a value is a character of the value, not an interpolation
    out = tmp_path / "out%1"
    cfg = load_config(write_ini(tmp_path, BASE_INI.replace("n = 65", "n = 33").format(out=out)))
    assert cfg.output_dir == str(out)
    assert run(cfg, mode="solve") == 0
    assert sorted(os.listdir(out)) == ["field.csv", "solve_report.json"]


@pytest.mark.parametrize("domain, coefficients", [
    # the sum of two finite terms overflows to inf
    ("", "cxx = 1e308\ncyy = 1e308"),
    # at (10, 10) the terms are inf and -inf, and their sum NaN
    ("x_min = -10.0\nx_max = 10.0\ny_min = -10.0\ny_max = 10.0\n", "cxx = 1e308\ncxy = -1e308\ncyy = 1e308"),
])
def test_overflowing_boundary_data_print_one_line(tmp_path, domain, coefficients):
    # a config error is one line on stderr: no numpy warning comes first
    text = BASE_INI.replace("kind = profile\nbeta1 = 1.0", f"kind = polynomial\n{coefficients}")
    if domain:
        text = re.sub(r"x_min = .*\nx_max = .*\ny_min = .*\ny_max = .*\n", domain, text)
    proc = run_python("-m", "membranelab", "solve", write_ini(tmp_path, text.format(out=tmp_path / "huge")))
    assert proc.returncode == 2
    assert proc.stderr == "config error: boundary: boundary values must be finite\n"
    assert not (tmp_path / "huge").exists()


def test_main_exit_codes(tmp_path, capsys):
    ini = write_ini(tmp_path, BASE_INI.format(out=tmp_path / "m0"))
    assert main(["solve", ini]) == 0

    bad = write_ini(tmp_path, BASE_INI.format(out=tmp_path / "m2").replace(
        "lambda_plus = 2.0", "lambda_plus = 0.0"), "bad.ini")
    assert main(["solve", bad]) == 2
    assert "config error" in capsys.readouterr().err.lower()

    # unequal x and y steps fail at load time, before the output directory exists
    uneven = write_ini(tmp_path, BASE_INI.format(out=tmp_path / "m4").replace(
        "y_max = 1.0", "y_max = 1.5").replace("n = 65", "n = 33"), "uneven.ini")
    capsys.readouterr()
    assert main(["solve", uneven]) == 2
    assert "config error: domain: spacing mismatch" in capsys.readouterr().err
    assert not (tmp_path / "m4").exists()

    # an empty output directory fails at load time, before any solve
    empty = write_ini(tmp_path, BASE_INI.format(out="").replace("n = 65", "n = 33"), "empty.ini")
    capsys.readouterr()
    assert main(["solve", empty]) == 2
    assert "config error: output.dir: must not be empty" in capsys.readouterr().err

    # sweep verb demands a [sweep] section
    assert main(["sweep", ini]) == 2

    # a missing required key, a key given twice, and boundary data that
    # overflow, fail at load time
    for name, text, needle in (
        ("no_n", BASE_INI.replace("n = 65\n", ""), "config error: domain.n: required key missing"),
        ("twice", BASE_INI.replace("n = 65", "n = 65\nn = 33"), "option 'n' in section 'domain' already exists"),
        ("huge", BASE_INI.replace("kind = profile\nbeta1 = 1.0", "kind = polynomial\ncxx = 1e308\ncyy = 1e308"),
         "config error: boundary: boundary values must be finite"),
    ):
        bad = write_ini(tmp_path, text.format(out=tmp_path / name), f"{name}.ini")
        capsys.readouterr()
        assert main(["solve", bad]) == 2
        assert needle in capsys.readouterr().err
        assert not (tmp_path / name).exists()

    # so does a file that is not UTF-8
    undecodable = tmp_path / "latin1.ini"
    undecodable.write_bytes(BASE_INI.format(out=tmp_path / "latin1").replace("kind = profile", "kind = prof\xffile")
                            .encode("latin-1"))
    capsys.readouterr()
    assert main(["solve", str(undecodable)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: cannot decode config file {undecodable}: "
                                              "'utf-8' codec can't decode byte 0xff")
    assert not (tmp_path / "latin1").exists()

    # a non-finite float fails at load time, before the output directory exists
    for name, text in (("nan", BASE_INI + "\n[solver]\ntol_linear = nan\n"),
                       ("inf", BASE_INI.replace("lambda_plus = 2.0", "lambda_plus = inf"))):
        bad = write_ini(tmp_path, text.format(out=tmp_path / f"f_{name}"), f"{name}.ini")
        capsys.readouterr()
        assert main(["solve", bad]) == 2
        assert "must be finite" in capsys.readouterr().err
        assert not (tmp_path / f"f_{name}").exists()

    # a classify budget below 1 is a config error, not a numpy failure
    budget = write_ini(tmp_path, BASE_INI.format(out=tmp_path / "m3")
                       + "\n[sweep]\nfamily = constant\namplitudes = 0.1\nclassify_budget = -1\n",
                       "budget.ini")
    capsys.readouterr()
    assert main(["sweep", budget]) == 2
    assert "sweep.classify_budget:" in capsys.readouterr().err

    # a window under 8 grid steps fails at load time, before any solve
    for name, section in (("sweep", "[sweep]\nfamily = constant\namplitudes = 0.1\nwindow = 0.2"),
                          ("diagnose", "[diagnostics]\nrun = graphs\nwindow = 0.2")):
        small = write_ini(tmp_path, BASE_INI.format(out=tmp_path / f"w_{name}") + "\n" + section + "\n",
                          f"{name}.ini")
        assert main([name, small]) == 2
        assert "window: must cover at least 8 grid steps" in capsys.readouterr().err
        assert not (tmp_path / f"w_{name}").exists()
    # so does a covering radius under 2 grid steps, before any solve
    small = write_ini(tmp_path, BASE_INI.format(out=tmp_path / "e_small")
                      + "\n[diagnostics]\nrun = covering\neps = 0.04\n", "eps.ini")
    assert main(["diagnose", small]) == 2
    assert "config error: diagnostics.eps: must be at least 2 grid steps" in capsys.readouterr().err
    assert not (tmp_path / "e_small").exists()
    # so do radii under 2 grid steps and balls that leave the grid
    for name, section in (("radii", "run = phi_ladder\nradii = 0.5, 0.05"),
                          ("xi_r", "run = xi\nxi_r = 1.5"),
                          ("point", "run = classify\npoint = 0 -1.5")):
        bad = write_ini(tmp_path, BASE_INI.format(out=tmp_path / f"d_{name}")
                        + f"\n[diagnostics]\n{section}\n", f"{name}.ini")
        assert main(["diagnose", bad]) == 2
        assert f"config error: diagnostics.{name}:" in capsys.readouterr().err
        assert not (tmp_path / f"d_{name}").exists()
    # diagnose without a [diagnostics] section runs none and writes the free boundary
    plain = write_ini(tmp_path, BASE_INI.format(out=tmp_path / "no_diag"), "plain.ini")
    assert main(["diagnose", plain]) == 0
    assert sorted(os.listdir(tmp_path / "no_diag")) == ["field.csv", "free_boundary.csv", "solve_report.json"]
    # every verb checks the [diagnostics] section, though only diagnose runs it
    graphs = write_ini(tmp_path, BASE_INI.format(out=tmp_path / "s_graphs")
                       + "\n[diagnostics]\nrun = graphs\nwindow = 0.05\n", "graphs.ini")
    assert main(["solve", graphs]) == 2
    assert "config error: diagnostics.window: must cover at least 8 grid steps" in capsys.readouterr().err
    assert not (tmp_path / "s_graphs").exists()
    # without graphs to fit, the diagnostics window is not read
    assert load_config(write_ini(tmp_path, BASE_INI.format(out=tmp_path / "w_ok")
                                 + "\n[diagnostics]\nrun = perimeter\nwindow = 0.2\neps = 0.04\n", "ok.ini"))
    # an output directory that names an existing file is a one-line runtime error
    taken = tmp_path / "taken"
    taken.write_text("")
    capsys.readouterr()
    assert main(["solve", write_ini(tmp_path, BASE_INI.format(out=taken), "taken.ini")]) == 1
    assert capsys.readouterr().err == f"error: cannot write artifacts in {taken}: File exists\n"


def test_main_exits_1_when_the_solver_fails(tmp_path, capsys):
    # tau = -0.4 data needs more than one sweep on its coarsest level
    ini = BASE_INI.replace("beta1 = 1.0", "beta1 = 1.0\ntau = -0.4") + "\n[solver]\nmax_sweeps = 1\n"
    assert main(["solve", write_ini(tmp_path, ini.format(out=tmp_path / "sf"))]) == 1
    assert capsys.readouterr().err.startswith("solver failure: ")
    # the failed level's report explains the exit; there is no field
    assert os.listdir(tmp_path / "sf") == ["solve_report.json"]
    report = json.loads((tmp_path / "sf" / "solve_report.json").read_text())
    assert report["converged"] is False
    assert report["iterations"] == 1 and report["pattern_changes"][0] > 0
    assert [(level["nx"], level["sweeps"]) for level in report["levels"]] == [(17, 1)]


def test_a_failed_sweep_solve_keeps_the_reference_report(tmp_path, capsys):
    # profile data settles in one sweep per level; the delta = 0.1 lift
    # needs several on its finest level
    ini = BASE_INI.replace("n = 65", "n = 129") + (
        "\n[solver]\nmax_sweeps = 1\n"
        "\n[sweep]\nfamily = constant\namplitudes = 0.1\nclassify_budget = 1\n")
    out = tmp_path / "sweep_fail"
    assert main(["sweep", write_ini(tmp_path, ini.format(out=out))]) == 1
    err = capsys.readouterr().err
    assert err.startswith("solver failure: ")
    # the failed solve names its amplitude and the level it failed on
    assert f"amplitude {float_repr(0.1)} " in err
    assert " 17 x 17 level" in err
    assert sorted(os.listdir(out)) == ["field.csv", "solve_report.json"]
    report = json.loads((out / "solve_report.json").read_text())
    assert report["converged"] is True
    assert [level["nx"] for level in report["levels"]] == [17, 33, 65, 129]


@pytest.mark.parametrize("error", [ZeroSetEmptyError, NotVerticallySimpleError])
def test_a_failed_sweep_fit_names_its_amplitude_and_point(tmp_path, capsys, monkeypatch, error):
    seen = []

    def failing_fit(fa, anchor, window, theta):
        seen.append(anchor)
        raise error("stub fit failure")

    points = []
    graph_frame = cli.graph_frame
    monkeypatch.setattr(cli, "graph_frame", lambda fa, p, window: points.append(p) or graph_frame(fa, p, window))
    monkeypatch.setattr(cli, "fit_two_graphs", failing_fit)
    ini = write_ini(tmp_path, SWEEP_INI.format(out=tmp_path / "ff"))
    with pytest.raises(error) as info:
        stability_sweep(*solved_sweep(ini))
    p, a = points[0], seen[0]
    assert str(info.value) == (f"perturbed fit at amplitude {float_repr(0.1)} near reference point "
                               f"({float_repr(p[0])}, {float_repr(p[1])}), anchored at "
                               f"({float_repr(a[0])}, {float_repr(a[1])}), failed: stub fit failure")
    assert type(info.value.__cause__) is error
    assert main(["sweep", ini]) == 1
    assert capsys.readouterr().err == f"error: {info.value}\n"


@pytest.mark.parametrize("error", [DegenerateRescaleError, RampFitError])
def test_a_failed_reference_frame_search_names_its_point_before_any_perturbed_solve(
        tmp_path, capsys, monkeypatch, error):
    seen = []

    def failing_frame(fa, p, window):
        seen.append(p)
        raise error("stub frame failure")

    ini = write_ini(tmp_path, SWEEP_INI.format(out=tmp_path / "rf"))
    cfg, fa_ref = solved_sweep(ini)
    solves = []
    monkeypatch.setattr(cli, "graph_frame", failing_frame)
    monkeypatch.setattr(cli, "solve", lambda spec: solves.append(spec) or solve(spec))
    with pytest.raises(error) as info:
        stability_sweep(cfg, fa_ref)
    p = seen[0]
    assert str(info.value) == (f"graph frame search at reference point "
                               f"({float_repr(p[0])}, {float_repr(p[1])}) failed: stub frame failure")
    assert type(info.value.__cause__) is error
    assert solves == []
    assert main(["sweep", ini]) == 1
    assert capsys.readouterr().err == f"error: {info.value}\n"
    # the reference solve is the only one
    assert len(solves) == 1


def test_main_exits_1_when_a_diagnostic_cannot_be_evaluated(tmp_path, capsys):
    # one-phase polynomial data has no negative phase, so no graphs to fit
    ini = BASE_INI.replace("kind = profile\nbeta1 = 1.0", "kind = polynomial\ncxx = 0.25\ncyy = 0.25")
    ini += "\n[diagnostics]\nrun = graphs\n"
    assert main(["diagnose", write_ini(tmp_path, ini.format(out=tmp_path / "ze"))]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "phase boundary is absent" in err


def test_main_selftest_exits_0(capsys):
    assert main(["selftest"]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_run_returns_2_on_config_error(tmp_path, capsys):
    cfg = load_config(write_ini(tmp_path, BASE_INI.format(out=tmp_path / "r2")))
    assert run(cfg, mode="sweep") == 2
    assert "config error: sweep" in capsys.readouterr().err
    # found before the reference solve, so nothing is written
    assert not (tmp_path / "r2").exists()


@pytest.mark.parametrize("mode", ["sweeps", "selftest", ""])
def test_run_rejects_an_unknown_mode_before_it_does_anything(tmp_path, monkeypatch, mode):
    # "sweeps" used to solve, write field.csv and solve_report.json, and return 0
    cfg = load_config(write_ini(tmp_path, BASE_INI.format(out=tmp_path / "bad")))
    monkeypatch.setattr(cli, "solve", lambda spec: pytest.fail("solved under an unknown mode"))
    with pytest.raises(ValueError, match=re.escape(f"unknown mode {mode!r}: expected solve, diagnose or sweep")):
        run(cfg, mode=mode)
    assert not (tmp_path / "bad").exists()


SWEEP_INI = BASE_INI.replace("n = 65", "n = 129") + """
[sweep]
family = constant
amplitudes = 0.1, 0.05
classify_budget = 4
"""

POLY_SWEEP_INI = """
[domain]
x_min = -1.0
x_max = 1.0
y_min = -1.0
y_max = 1.0
n = 129

[problem]
lambda_plus = 2.0
lambda_minus = 2.0

[boundary]
kind = polynomial
cxx = 0.25
cyy = 0.25

[sweep]
family = constant
amplitudes = 0.1, 0.05
classify_budget = 2

[output]
dir = {out}
"""


def solved_sweep(ini):
    cfg = load_config(ini)
    u_ref, _ = solve(cfg.spec)
    return cfg, FieldAnalysis(u_ref, cfg.spec)


def test_stability_sweep_end_to_end(tmp_path):
    report = stability_sweep(*solved_sweep(write_ini(tmp_path, SWEEP_INI.format(out=tmp_path / "sw"))))
    assert len(report.rows) == 2
    deltas = [row.delta for row in report.rows]
    assert deltas == [0.1, 0.05]
    for row in report.rows:
        assert row.comparison_holds
        assert row.sup_interior_diff <= row.delta + 1e-8
        assert row.sup_boundary_diff == pytest.approx(row.delta, rel=1e-6)
    assert report.hausdorff_monotone
    assert set(report.reference_labels) == {"branch"}


@pytest.mark.parametrize("family, fn", [
    ("linear", lambda X, Y: Y),
    ("sine", lambda X, Y: np.sin(2.0 * np.pi * Y)),
], ids=["linear", "sine"])
def test_stability_sweep_families(tmp_path, family, fn):
    ini = BASE_INI.replace("n = 65", "n = 129") + f"""
[sweep]
family = {family}
k = 2
amplitudes = 0.1, 0.05
classify_budget = 2
"""
    cfg, fa_ref = solved_sweep(write_ini(tmp_path, ini.format(out=tmp_path / family)))
    report = stability_sweep(cfg, fa_ref)
    X, Y = cfg.spec.grid.meshgrid()
    # every family peaks at 1 on this ring, so the rows alone cannot tell them apart
    assert np.array_equal(cli._FAMILIES[family](cfg.sweep["k"])(X, Y), fn(X, Y))
    peak = float(np.max(np.abs(fn(X, Y)[boundary_mask(cfg.spec.grid)])))
    assert [row.delta for row in report.rows] == [0.1, 0.05]
    for row in report.rows:
        assert row.comparison_holds
        # the data differ by delta * fn on the ring, up to one rounding
        assert row.sup_boundary_diff == pytest.approx(row.delta * peak, rel=1e-12)


def recording_perturbed_fields(monkeypatch) -> list:
    """The FieldAnalysis of each perturbed field ``stability_sweep`` builds, in row order."""
    fields = []

    def recording(u, spec):
        fields.append(FieldAnalysis(u, spec))
        return fields[-1]

    monkeypatch.setattr(cli, "FieldAnalysis", recording)
    return fields


def is_vertex(anchor, verts) -> bool:
    return bool(np.any(np.all(verts == np.array(anchor), axis=1)))


def test_stability_sweep_at_n_257_with_the_readme_amplitudes(tmp_path, monkeypatch):
    # README's amplitudes on profile data; fitted at the reference point in
    # a frame of its own, the 0.1 field near (1.02e-7, -0.734) had no plus
    # boundary vertex in the transverse bin [-0.0156, 0]
    ini = BASE_INI.replace("n = 65", "n = 257") + """
[sweep]
family = constant
amplitudes = 0.1, 0.05, 0.025
"""
    cfg, fa_ref = solved_sweep(write_ini(tmp_path, ini.format(out=tmp_path / "sw")))
    fields = recording_perturbed_fields(monkeypatch)
    report = stability_sweep(cfg, fa_ref)
    assert [row.delta for row in report.rows] == [0.1, 0.05, 0.025]
    assert len(fields) == len(report.rows)
    for row, fa_d in zip(report.rows, fields):
        assert row.graph_summaries
        verts = fa_d.free_boundary.all_vertices()
        assert all(is_vertex(s["anchor"], verts) for s in row.graph_summaries)


# the amplitudes of the shift-sweep benchmark configs of seeds 1 and 7919
# (perfbench/workloads.py); the rest of their configs is SWEEP_INI's
BENCH_SWEEP_AMPLITUDES = {
    1: "0.10047286498801027, 0.05023643249400513, 0.025118216247002566",
    7919: "0.1048703101408249, 0.05243515507041245, 0.026217577535206225",
}


@pytest.mark.parametrize("seed", list(BENCH_SWEEP_AMPLITUDES))
def test_sweep_labels_are_the_full_classification_labels(tmp_path, monkeypatch, seed):
    ini = BASE_INI.replace("n = 65", "n = 129") + (
        f"\n[sweep]\nfamily = constant\namplitudes = {BENCH_SWEEP_AMPLITUDES[seed]}\n")
    cfg, fa_ref = solved_sweep(write_ini(tmp_path, ini.format(out=tmp_path / "lab")))
    classify_point = cli.classify_point
    checked = []

    def checking(fa, ladder, evidence=True):
        assert evidence is False
        fast, full = classify_point(fa, ladder, evidence=False), classify_point(fa, ladder)
        assert (fast.label, fast.evidence["decided_by"]) == (full.label, full.evidence["decided_by"])
        checked.append(ladder.center)
        return fast

    monkeypatch.setattr(cli, "classify_point", checking)
    report = stability_sweep(cfg, fa_ref)
    assert checked == list(report.reference_points)
    assert report.reference_labels == ("branch",) * 8


def test_a_sweep_searches_each_graph_frame_once_on_the_reference_field(tmp_path, monkeypatch):
    # the seed-1 shift-sweep benchmark config: 3 branch points, 3 rows
    ini = BASE_INI.replace("n = 65", "n = 129") + (
        f"\n[sweep]\nfamily = constant\namplitudes = {BENCH_SWEEP_AMPLITUDES[1]}\n")
    cfg, fa_ref = solved_sweep(write_ini(tmp_path, ini.format(out=tmp_path / "frame")))
    window = cfg.sweep["window"]
    graph_frame = freeboundary.graph_frame
    events = []
    dist_to_M = freeboundary.dist_to_M
    monkeypatch.setattr(freeboundary, "dist_to_M", lambda *a, **k: events.append("dist_to_M") or dist_to_M(*a, **k))
    monkeypatch.setattr(cli, "solve", lambda spec: events.append("solve") or solve(spec))
    fields = recording_perturbed_fields(monkeypatch)
    report = stability_sweep(cfg, fa_ref)
    monkeypatch.undo()

    branch = [p for p, lab in zip(report.reference_points, report.reference_labels) if lab == "branch"][:3]
    assert len(branch) == 3 and len(report.rows) == 3
    # one frame search per branch point, all on the reference field before
    # the first perturbed solve; the perturbed fits search none
    assert events == ["dist_to_M"] * len(branch) + ["solve"] * len(report.rows)
    frames = [graph_frame(fa_ref, p, window) for p in branch]
    for row, fa_d in zip(report.rows, fields):
        verts = fa_d.free_boundary.all_vertices()
        assert [tuple(s["point"]) for s in row.graph_summaries] == branch
        for s, p, theta in zip(row.graph_summaries, branch, frames):
            assert s["theta"] == theta
            assert is_vertex(s["anchor"], verts)
            d2 = np.sum((verts - np.array(p)) ** 2, axis=1)
            assert np.sum((np.array(s["anchor"]) - np.array(p)) ** 2) == np.min(d2)
            assert list(s) == ["point", "anchor", "theta", "lipschitz_estimate", "max_normal_oscillation",
                               "gplus_range", "gminus_range"]
    # a fit given the frame it would search is the same fit
    for p in branch:
        searched = freeboundary.fit_two_graphs(fa_ref, p, window)
        given = freeboundary.fit_two_graphs(fa_ref, p, window, graph_frame(fa_ref, p, window))
        for f in dataclasses.fields(searched):
            assert np.array_equal(getattr(searched, f.name), getattr(given, f.name)), f.name


def test_sweep_aborts_on_one_phase_reference(tmp_path, capsys):
    ini = write_ini(tmp_path, POLY_SWEEP_INI.format(out=tmp_path / "ps"))
    with pytest.raises(SweepHypothesisError):
        stability_sweep(*solved_sweep(ini))
    assert main(["sweep", ini]) == 1
    assert "one_phase_singular" in capsys.readouterr().err


OFFSET_SWEEP_INI = BASE_INI.replace("n = 65", "n = 129").replace(
    "beta1 = 1.0", "beta1 = 1.0\noffset = {offset}") + """
[sweep]
family = constant
amplitudes = {amplitudes}
"""


def test_sweep_needs_a_reference_free_boundary(tmp_path, capsys, monkeypatch):
    # lifted by 0.81, the profile data stay at least 0.31 and the solved
    # field above 0.29: the reference field has no free boundary, so there
    # is nothing to classify or measure
    ini = write_ini(tmp_path, OFFSET_SWEEP_INI.format(offset=0.81, amplitudes="0.1, 0.05", out=tmp_path / "nf"))
    cfg, fa_ref = solved_sweep(ini)
    assert float(np.min(fa_ref.u.values)) > 0.29
    calls = []
    monkeypatch.setattr(cli, "solve", lambda spec: calls.append(spec) or solve(spec))
    monkeypatch.setattr(cli, "classify_point", lambda *args: calls.append(args))
    with pytest.raises(SweepHypothesisError, match="reference field has no free boundary"):
        stability_sweep(cfg, fa_ref)
    assert calls == []
    assert main(["sweep", ini]) == 1
    assert capsys.readouterr().err == (
        "sweep hypothesis violation: the reference field has no free boundary: "
        "both of its +-tol_zero contours are empty\n")
    # the reference solve is the only one
    assert len(calls) == 1
    assert sorted(os.listdir(tmp_path / "nf")) == ["field.csv", "solve_report.json"]


def test_a_vanished_perturbed_boundary_names_its_amplitude(tmp_path, capsys):
    # lifted by 0.4 + 0.2, the data stay positive: the perturbed field has
    # no free boundary to measure the reference's against
    ini = write_ini(tmp_path, OFFSET_SWEEP_INI.format(offset=0.4, amplitudes="0.2, 0.1", out=tmp_path / "vp"))
    with pytest.raises(ValueError) as info:
        stability_sweep(*solved_sweep(ini))
    assert str(info.value) == (f"perturbed free boundary at amplitude {float_repr(0.2)}: "
                               "hausdorff distance needs nonempty vertex sets")
    assert type(info.value.__cause__) is ValueError
    assert main(["sweep", ini]) == 1
    assert capsys.readouterr().err == f"error: {info.value}\n"


def test_a_sweep_without_targets_measures_its_rows(tmp_path, capsys):
    # lifted by 0.4, the free boundary lies near x = -0.89, outside the
    # margin of a 0.5 window: nothing is classified or fitted, and the
    # rows still measure the boundary's displacement
    out = tmp_path / "nt"
    ini = write_ini(tmp_path, OFFSET_SWEEP_INI.format(offset=0.4, amplitudes="0.1, 0.05", out=out)
                    + "window = 0.5\n")
    assert main(["sweep", ini]) == 0, capsys.readouterr().err
    report = json.loads((out / "stability.json").read_text())
    assert report["reference_points"] == [] and report["reference_labels"] == []
    assert [row["delta"] for row in report["rows"]] == [0.1, 0.05]
    for row in report["rows"]:
        assert row["graph_summaries"] == []
        assert row["comparison_holds"] and row["hausdorff_to_reference"] > 0.0


def test_an_amplitude_that_removes_the_minus_phase_near_a_target_stops_the_sweep(tmp_path, capsys):
    # lifted by 0.4, the reference's minus phase is a thin strip along
    # x = -1; lifted by 0.1 more, the ring data no longer go negative and
    # the fit anchored on the perturbed boundary finds no minus phase
    ini = write_ini(tmp_path, OFFSET_SWEEP_INI.format(offset=0.4, amplitudes="0.1, 0.05", out=tmp_path / "lift"))
    assert main(["sweep", ini]) == 1
    err = capsys.readouterr().err
    match = re.fullmatch(
        rf"error: perturbed fit at amplitude {re.escape(float_repr(0.1))} near reference point "
        r"\((\S+), (\S+)\), anchored at \((\S+), (\S+)\), failed: "
        r"the minus phase boundary is absent in the fit at .* with window 0\.25\n", err)
    assert match, err
    px, py, ax, _ = map(float, match.groups())
    h = 2.0 / 128.0
    assert max(abs(px), abs(py)) <= 1.0 - (0.25 + 2.0 * h)
    assert ax == pytest.approx(-1.0, abs=1e-6)


def test_reference_points_of_an_empty_free_boundary():
    g = build_grid(-1.0, 1.0, -1.0, 1.0, 129, 129)
    assert cli._reference_points(FreeBoundarySet((), ()), g, 0.25, 8) == []


def test_sweep_run_solves_the_reference_once(tmp_path, monkeypatch):
    calls = []

    def counting_solve(spec):
        calls.append(spec)
        return solve(spec)

    monkeypatch.setattr(cli, "solve", counting_solve)
    ini = BASE_INI.replace("n = 65", "n = 129") + (
        "\n[sweep]\nfamily = constant\namplitudes = 0.1, 0.05, 0.025\nclassify_budget = 2\n")
    cfg = load_config(write_ini(tmp_path, ini.format(out=tmp_path / "once")))
    assert run(cfg, mode="sweep") == 0
    assert len(calls) == 1 + len(cfg.sweep["amplitudes"])


def test_sweep_evaluates_directional_psi_once_per_reference_ladder(tmp_path, monkeypatch):
    ini = BASE_INI.replace("n = 65", "n = 129") + (
        "\n[sweep]\nfamily = constant\namplitudes = 0.1\nclassify_budget = 3\n")
    cfg, fa_ref = solved_sweep(write_ini(tmp_path, ini.format(out=tmp_path / "psi")))
    calls = []
    counting_directional_psi(monkeypatch, calls)
    crop_radii = []
    crop = monotonicity._crop

    def recording_crop(grid, center, r):
        crop_radii.append(r)
        return crop(grid, center, r)

    monkeypatch.setattr(monotonicity, "_crop", recording_crop)
    report = stability_sweep(cfg, fa_ref)
    # the label reads only the smallest radius, so the sweep's ladders hold only it
    r_label = freeboundary.LADDER_STEPS[-1] * cfg.spec.grid.h
    ladders = [RadiusLadder(p, (r_label,)) for p in report.reference_points]
    # every reference point reaches the psi test: none is decided by its gradient
    assert report.reference_labels == ("branch",) * 3
    assert [ladder for ladder, _ in calls] == ladders
    # each ladder crops one window, for its one radius
    assert crop_radii == [r_label] * len(ladders)
    # a second classification reads the kept psi; another FieldAnalysis of
    # the same field keeps its own
    freeboundary.classify_point(fa_ref, ladders[0])
    assert len(calls) == 3
    fa_other = FieldAnalysis(fa_ref.u, fa_ref.spec)
    assert freeboundary.classify_point(fa_other, ladders[0]) == freeboundary.classify_point(fa_ref, ladders[0])
    assert [ladder for ladder, _ in calls] == ladders + ladders[:1]


def test_a_sweep_does_not_import_numpy_ma(tmp_path):
    # np.unique's first call in a process imports numpy.ma: about 12 ms and
    # 1 MB of the first sweep; the reference points are picked without it
    ini = BASE_INI.replace("n = 65", "n = 129") + (
        "\n[sweep]\nfamily = constant\namplitudes = 0.1\nclassify_budget = 2\n")
    cfg = write_ini(tmp_path, ini.format(out=tmp_path / "ma"))
    code = ("import sys\nfrom membranelab.cli import main\n"
            f"assert main(['sweep', {cfg!r}]) == 0\nprint('numpy.ma' in sys.modules)")
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_sweep_reference_points_stay_put_under_rounding_noise(profile_solutions):
    # every vertex of the profile's free boundary has x = +-5e-8 plus
    # rounding; sorted on x first, 1e-12 of noise moved a target by 0.81
    _, spec, u, _ = profile_solutions[129]
    h = spec.grid.h

    def targets(values):
        fb = FieldAnalysis(ScalarField(spec.grid, values), spec).free_boundary
        return np.array(cli._reference_points(fb, spec.grid, 0.25, 8))

    want = targets(u.values)
    assert want.shape == (8, 2)
    for seed in range(5):
        noise = 1e-12 * np.random.default_rng(seed).standard_normal(u.values.shape)
        got = targets(u.values + noise)
        assert got.shape == want.shape
        assert float(np.max(np.hypot(*(got - want).T))) <= h, seed


def test_an_n_65_sweep_runs_with_the_default_window(tmp_path, capsys):
    # the margin is window + 2h = 0.3125 at n = 65, so every target lies
    # in the square of half-width 0.6875
    out = tmp_path / "n65"
    ini = BASE_INI + "\n[sweep]\nfamily = constant\namplitudes = 0.1, 0.05\n"
    assert main(["sweep", write_ini(tmp_path, ini.format(out=out))]) == 0, capsys.readouterr().err
    report = json.loads((out / "stability.json").read_text())
    assert report["reference_labels"] == ["branch"] * 8
    assert all(max(abs(x), abs(y)) <= 1.0 - 0.3125 for x, y in report["reference_points"])
    # 8 grid steps of the n = 64 grid are 0.254, over the default window
    n64 = BASE_INI.replace("n = 65", "n = 64") + "\n[sweep]\nfamily = constant\namplitudes = 0.1\n"
    with pytest.raises(ConfigError, match="sweep.window: must cover at least 8 grid steps"):
        load_config(write_ini(tmp_path, n64.format(out=tmp_path / "n64"), name="n64.ini"))


def test_the_outermost_sweep_target_lies_at_the_margin(profile_solutions):
    # the margin is window + 2h at every n, and the profile's boundary
    # vertices lie a grid step apart along x = 0
    for n in (65, 129, 257):
        _, spec, u, _ = profile_solutions[n]
        h = spec.grid.h
        points = cli._reference_points(FieldAnalysis(u, spec).free_boundary, spec.grid, 0.25, 8)
        assert len(points) == 8, n
        outer = max(max(abs(x), abs(y)) for x, y in points)
        bound = 1.0 - (0.25 + 2.0 * h)
        assert bound - h <= outer <= bound, (n, outer)


@pytest.mark.parametrize("window", [0.9, 1.2])
def test_sweep_reference_points_leave_room_for_the_graph_window(tmp_path, capsys, window):
    ini = BASE_INI.replace("n = 65", "n = 129") + (
        f"\n[sweep]\nfamily = constant\namplitudes = 0.1\nwindow = {window}\n")
    out = tmp_path / "wide"
    code = main(["sweep", write_ini(tmp_path, ini.format(out=out))])
    err = capsys.readouterr().err
    if window > 1.0:
        # no vertex clears window + 2h: a config error before any solve
        assert code == 2 and "sweep.window: reference points need a margin" in err
        assert not out.exists()
        return
    assert code == 0, err
    report = json.loads((out / "stability.json").read_text())
    fitted = [s["point"] for row in report["rows"] for s in row["graph_summaries"]]
    assert fitted
    assert all(max(abs(x), abs(y)) + window <= 1.0 for x, y in fitted)


@pytest.mark.parametrize("window", [0.9, 1.2])
def test_graph_window_must_fit_its_square_in_the_grid(tmp_path, capsys, window):
    # fit_two_graphs bins vertices out to the window's half-width around
    # the point, not only out to the blow-up ball of radius window / 2
    ini = BASE_INI.replace("n = 65", "n = 129") + (
        f"\n[diagnostics]\nrun = graphs\npoint = 0 0\nwindow = {window}\n")
    out = tmp_path / "graphs"
    code = main(["diagnose", write_ini(tmp_path, ini.format(out=out))])
    err = capsys.readouterr().err
    if window > 1.0:
        assert code == 2 and "config error: diagnostics.window: ball of radius 1.2" in err
        assert not out.exists()
    else:
        assert code == 0, err
        assert (out / "graphs.json").exists()


# ---------------------------------------------------------------------------
# Selftest
# ---------------------------------------------------------------------------


def test_module_entry_point_runs_the_selftest():
    # python -m membranelab, as installed, in a process of its own
    proc = run_python("-m", "membranelab", "selftest")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("ok - ") >= 5 and "FAIL" not in proc.stdout


def test_selftest_passes(capsys):
    assert selftest() == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("ok - ") >= 5
