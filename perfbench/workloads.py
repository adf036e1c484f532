"""Seeded workload definitions: each workload turns a seed into INI configs.

The program under test only ever sees the generated INI files.  Every
workload uses the square [-1, 1]^2, lambda_plus = lambda_minus = 2 and
ramp-profile boundary data with beta1 = 1, so the checks in ``checks.py``
can compare the artifacts against closed-form facts about the profile.

A run of a workload is a fixed job list of ``pairs`` distinct configs,
each run twice in a row: the second run of a pair must reproduce the
first one's artifacts byte for byte.  On a 2-core shared x86 host the
jobs of a run take 20-30 s on profile-diagnose and 30-45 s on shift-sweep
and slab-solve; the host-speed probes between jobs (run.py) add about a
third to that.

The seed draws one parameter per config; configs come in mirrored
couples (v, low + high - v), so a run's total cost sits near the middle
of the range whatever the seed, and run-to-run spread stays small.

BENCHMARK.json lists profile-diagnose and shift-sweep only.  slab-solve
stays runnable here because it shows an open solver defect: on about
2 seeds in 5 its field breaks the documented tol_linear residual bound,
and the run reports ``correct: false``.  It belongs in BENCHMARK.json
again once the solver meets that bound.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

# Seed used when none is given.  HELD_OUT_SEED is never used while a change
# is being written; a change that claims a gain re-checks it on this seed.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

LAMBDA = 2.0
DIAGNOSTICS = ("phi_ladder", "psi_ladder", "classify", "graphs", "xi", "perimeter", "covering")
RADII = (0.5, 0.25, 0.125, 0.0625)


@dataclass(frozen=True)
class Workload:
    name: str
    verb: str
    n: int
    # parameter drawn from the seed, and its range
    param: str
    low: float
    high: float
    # distinct configs per run; each one runs twice
    pairs: int
    why: str

    def draw(self, seed: int) -> list:
        """One parameter per config, in mirrored couples across [low, high]."""
        rng = np.random.default_rng(seed)
        u = rng.random((self.pairs + 1) // 2)
        u = np.concatenate([u, 1.0 - u])[:self.pairs]
        return [float(v) for v in self.low + (self.high - self.low) * u]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "slab-solve", "solve", 193, "tau", -0.5, -0.3, 2,
            "solve verb on a pinned slab: about 30 active-set sweeps, the "
            "solver does all the work; a faster many-sweep solve shows here",
        ),
        Workload(
            "profile-diagnose", "diagnose", 257, "y0", -0.25, 0.25, 4,
            "all 7 diagnostics at one point of a one-sweep solve: CG, one "
            "dist_to_M, the ladders and the field dump share the time",
        ),
        Workload(
            "shift-sweep", "sweep", 129, "delta0", 0.08, 0.12, 1,
            "constant-shift sweep: 5 solves, 8 classifications and 9 graph "
            "fits on 4 fields; repeated per-field analysis shows here",
        ),
    )
}


def _fmt(v: float) -> str:
    return repr(float(v))


def config_text(workload: Workload, value: float, out_dir: str) -> str:
    """INI text of one job."""
    tau = value if workload.param == "tau" else 0.0
    lines = [
        "[domain]",
        "x_min = -1.0", "x_max = 1.0", "y_min = -1.0", "y_max = 1.0",
        f"n = {workload.n}",
        "",
        "[problem]",
        f"lambda_plus = {_fmt(LAMBDA)}", f"lambda_minus = {_fmt(LAMBDA)}",
        "",
        "[boundary]",
        "kind = profile", "beta1 = 1.0", f"tau = {_fmt(tau)}", "theta = 0.0",
        "",
    ]
    if workload.param == "y0":
        lines += [
            "[diagnostics]",
            "run = " + ", ".join(DIAGNOSTICS),
            f"point = 0.0 {_fmt(value)}",
            "radii = " + ", ".join(_fmt(r) for r in RADII),
            "",
        ]
    if workload.param == "delta0":
        amps = (value, value / 2.0, value / 4.0)
        lines += [
            "[sweep]",
            "family = constant",
            "amplitudes = " + ", ".join(_fmt(a) for a in amps),
            "",
        ]
    lines += ["[output]", f"dir = {out_dir}", ""]
    return "\n".join(lines)


@dataclass(frozen=True)
class Job:
    index: int
    config_path: str
    out_dir: str
    value: float


def write_jobs(workload: Workload, seed: int, work_dir: str) -> list:
    """Write one INI per distinct config; return the job list (pairs twice)."""
    jobs = []
    for k, value in enumerate(workload.draw(seed)):
        out_dir = os.path.join(work_dir, f"out{k}")
        path = os.path.join(work_dir, f"job{k}.ini")
        with open(path, "w") as fh:
            fh.write(config_text(workload, value, out_dir))
        job = Job(k, path, out_dir, value)
        jobs += [job, job]
    return jobs
