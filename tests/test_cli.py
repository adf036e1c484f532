"""Config parsing, artifact determinism, sweeps, exit codes."""
import filecmp
import math
import os
import re

import numpy as np
import pytest

from membranelab import (
    ConfigError,
    FieldAnalysis,
    StabilityReport,
    SweepHypothesisError,
    SweepRow,
    hausdorff_distance,
    load_config,
    run,
    solve,
    stability_sweep,
    write_json,
)
from membranelab import cli
from membranelab.cli import main, selftest


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


# ---------------------------------------------------------------------------
# Config loading
# ---------------------------------------------------------------------------


def test_load_config_happy_path(tmp_path):
    cfg = load_config(write_ini(tmp_path, BASE_INI.format(out=tmp_path / "out")))
    assert cfg.n == 65
    assert cfg.boundary_kind == "profile"
    assert cfg.tol_linear == 1e-10
    assert cfg.sweep is None
    g = cfg.grid()
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
    assert cfg.tol_linear == 1e-9 and cfg.max_sweeps == 50
    assert cfg.diagnostics == ("phi_ladder", "perimeter")
    assert cfg.sweep["family"] == "sine" and cfg.sweep["k"] == 2


@pytest.mark.parametrize("mutation, needle", [
    ("[domain]\nx_min = -1", "required section missing"),
    ("replace:n = 65\nn = 2", "at least 3 nodes"),
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
    ("append:[diagnostics]\nrun = graphs\nwindow = 0.2", "diagnostics.window: must cover at least 8"),
    ("append:[diagnostics]\neps = 0.25, 0.0", "diagnostics.eps:"),
    ("append:[diagnostics]\neps = -0.125", "diagnostics.eps:"),
    ("append:[diagnostics]\nxi_r = 0.0", "diagnostics.xi_r:"),
    ("append:[diagnostics]\nxi_m = 63", "diagnostics.xi_m:"),
    ("append:[diagnostics]\nxi_m = 2", "diagnostics.xi_m:"),
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


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "absent.ini"))


def test_readme_config_example_loads(tmp_path):
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        blocks = re.findall(r"```ini\n(.*?)```", fh.read(), re.S)
    assert len(blocks) == 1
    text = re.sub(r"(?m)^dir = .*$", f"dir = {tmp_path / 'out'}", blocks[0])
    cfg = load_config(write_ini(tmp_path, text))
    assert cfg.diag_params["point"] == (0.0, 0.0)
    assert cfg.diag_params["radii"] == (0.5, 0.25, 0.125, 0.0625)
    assert cfg.sweep["amplitudes"] == (0.1, 0.05, 0.025)


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


def test_hausdorff_identical_is_zero():
    chains = [seg((0, 0), (1, 0), 5)]
    assert hausdorff_distance(chains, chains) == 0.0


def test_hausdorff_translation():
    a = [seg((0, 0), (1, 0), 9)]
    b = [seg((0.3, 0.4), (1.3, 0.4), 9)]
    assert hausdorff_distance(a, b) == pytest.approx(0.5, abs=1e-12)


def test_hausdorff_parallel_lines():
    a = [seg((0, 0), (2, 0), 2)]       # endpoints only
    b = [seg((0, 0.25), (2, 0.25), 2)]
    assert hausdorff_distance(a, b) == pytest.approx(0.25, abs=1e-12)


def test_hausdorff_empty_raises():
    with pytest.raises(ValueError):
        hausdorff_distance([], [seg((0, 0), (1, 0))])


# ---------------------------------------------------------------------------
# Stability report container
# ---------------------------------------------------------------------------


def make_row(delta):
    return SweepRow(delta, delta, 0.9 * delta, True, 0.1, ())


def test_stability_report_requires_decreasing_deltas():
    rows = (make_row(0.1), make_row(0.05))
    rep = StabilityReport(rows, True, 0.01, ((0.0, 0.0),), ("branch",))
    assert rep.to_json_dict()["hausdorff_monotone"] is True
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


def test_solve_mode_writes_field_only(tmp_path):
    out = tmp_path / "solve_out"
    cfg = load_config(write_ini(tmp_path, BASE_INI.format(out=out)))
    assert run(cfg, mode="solve") == 0
    names = sorted(os.listdir(out))
    assert names == ["field.csv", "solve_report.json"]


def test_main_exit_codes(tmp_path, capsys):
    ini = write_ini(tmp_path, BASE_INI.format(out=tmp_path / "m0"))
    assert main(["solve", ini]) == 0

    bad = write_ini(tmp_path, BASE_INI.format(out=tmp_path / "m2").replace(
        "lambda_plus = 2.0", "lambda_plus = 0.0"), "bad.ini")
    assert main(["solve", bad]) == 2
    assert "config error" in capsys.readouterr().err.lower()

    # sweep verb demands a [sweep] section
    assert main(["sweep", ini]) == 2

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
    # without graphs to fit, the diagnostics window is not read
    assert load_config(write_ini(tmp_path, BASE_INI.format(out=tmp_path / "w_ok")
                                 + "\n[diagnostics]\nrun = perimeter\nwindow = 0.2\n", "ok.ini"))


def test_run_returns_2_on_config_error(tmp_path, capsys):
    cfg = load_config(write_ini(tmp_path, BASE_INI.format(out=tmp_path / "r2")))
    assert run(cfg, mode="sweep") == 2
    assert "config error: sweep" in capsys.readouterr().err


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
    spec = cfg.problem(cfg.grid())
    u_ref, _ = solve(spec)
    return cfg, FieldAnalysis(u_ref, spec.tol_zero)


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


def test_sweep_aborts_on_one_phase_reference(tmp_path, capsys):
    ini = write_ini(tmp_path, POLY_SWEEP_INI.format(out=tmp_path / "ps"))
    with pytest.raises(SweepHypothesisError):
        stability_sweep(*solved_sweep(ini))
    assert main(["sweep", ini]) == 1
    assert "one_phase_singular" in capsys.readouterr().err


def test_sweep_run_solves_the_reference_once(tmp_path, monkeypatch):
    calls = []

    def counting_solve(spec):
        calls.append(spec)
        return solve(spec)

    monkeypatch.setattr(cli, "solve", counting_solve)
    ini = BASE_INI + "\n[sweep]\nfamily = constant\namplitudes = 0.1, 0.05, 0.025\nclassify_budget = 2\n"
    cfg = load_config(write_ini(tmp_path, ini.format(out=tmp_path / "once")))
    assert run(cfg, mode="sweep") == 0
    assert len(calls) == 1 + len(cfg.sweep["amplitudes"])


# ---------------------------------------------------------------------------
# Selftest
# ---------------------------------------------------------------------------


def test_selftest_passes(capsys):
    assert selftest() == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("ok - ") >= 5
