"""The benchmark's output checks accept real artifacts and reject corrupted ones.

Run from the repository root with ``python3 -m pytest perfbench/test_checks.py``
(about 30 s: the diagnose and sweep cases run at the benchmark's grid
sizes).  The slab case uses a coarser grid; its tolerances scale with h.
"""

import dataclasses
import json
import os
import shutil
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from membranelab import cli  # noqa: E402

from checks import artifact_digest, check_job  # noqa: E402
from workloads import WORKLOADS, config_text  # noqa: E402

CASES = {
    "slab-solve": (-0.4, 65),
    "profile-diagnose": (0.125, 257),
    "shift-sweep": (0.1, 129),
}


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """Clean output directory per workload, from one real CLI call each."""
    out = {}
    for name, (value, n) in CASES.items():
        base = tmp_path_factory.mktemp(name)
        ini = base / "job.ini"
        workload = dataclasses.replace(WORKLOADS[name], n=n)
        ini.write_text(config_text(workload, value, str(base / "out")))
        assert cli.main([workload.verb, str(ini)]) == 0
        out[name] = base / "out"
    return out


@pytest.fixture
def copy_of(artifacts, tmp_path):
    def make(name):
        dst = tmp_path / name
        shutil.copytree(artifacts[name], dst)
        return dst
    return make


def check(name, out_dir):
    value, n = CASES[name]
    return check_job(name, str(out_dir), value, n)


@pytest.mark.parametrize("name", sorted(CASES))
def test_clean_artifacts_pass(artifacts, name):
    assert check(name, artifacts[name]) == []


def _edit_field(path, j, i, fn):
    lines = path.read_text().splitlines()
    n = int(round((len(lines) - 1) ** 0.5))
    row = 1 + j * n + i
    x, y, v = lines[row].split(",")
    lines[row] = f"{x},{y},{fn(float(v))!r}"
    path.write_text("\n".join(lines) + "\n")


def test_corrupted_field_is_rejected(copy_of):
    # a 1e-6 bump at an interior node of the positive phase breaks the
    # five-point residual by about 4e-6 / h^2
    out = copy_of("slab-solve")
    _edit_field(out / "field.csv", 32, 48, lambda v: v + 1e-6)
    fails = check("slab-solve", out)
    assert any("residual" in f for f in fails), fails


def test_changed_boundary_value_is_rejected(copy_of):
    out = copy_of("slab-solve")
    _edit_field(out / "field.csv", 0, 10, lambda v: v + 1e-9)
    assert any("boundary" in f for f in check("slab-solve", out))


def test_truncated_field_is_rejected(copy_of):
    out = copy_of("profile-diagnose")
    path = out / "field.csv"
    path.write_text("\n".join(path.read_text().splitlines()[:-5]) + "\n")
    assert any("field.csv" in f for f in check("profile-diagnose", out))


def test_flipped_label_is_rejected(copy_of):
    out = copy_of("profile-diagnose")
    path = out / "classification.json"
    path.write_text(path.read_text().replace('"class": "branch"', '"class": "regular"'))
    assert any("label" in f for f in check("profile-diagnose", out))


def test_missing_artifact_is_rejected(copy_of):
    out = copy_of("profile-diagnose")
    os.remove(out / "perimeter.json")
    assert any("perimeter.json" in f for f in check("profile-diagnose", out))


def test_wrong_hausdorff_row_is_rejected(copy_of):
    out = copy_of("shift-sweep")
    path = out / "stability.json"
    rep = json.loads(path.read_text())
    rep["rows"][1]["hausdorff_to_reference"] += 0.1
    path.write_text(json.dumps(rep))
    assert any("hausdorff" in f for f in check("shift-sweep", out))


def test_unparsable_report_is_rejected(copy_of):
    out = copy_of("shift-sweep")
    path = out / "stability.json"
    path.write_text(path.read_text()[:-20])
    assert any("stability.json" in f for f in check("shift-sweep", out))


def test_report_of_the_wrong_shape_is_rejected(copy_of):
    out = copy_of("shift-sweep")
    (out / "solve_report.json").write_text("[]")
    assert any("unreadable" in f for f in check("shift-sweep", out))


def test_digest_sees_a_changed_byte(copy_of):
    out = copy_of("shift-sweep")
    before = artifact_digest(str(out))
    path = out / "solve_report.json"
    path.write_text(path.read_text().replace("true", "false", 1))
    after = artifact_digest(str(out))
    assert set(before) == set(after)
    assert [k for k in before if before[k] != after[k]] == ["solve_report.json"]
