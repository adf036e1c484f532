"""membranelab benchmark: seeded CLI jobs with checked artifacts.

Usage, from the repository root:

    python3 perfbench/run.py --workload shift-sweep --seed 1 --seconds 50 --trace 0

The seed generates INI configs for one workload (see workloads.py); each
job calls the public entry point ``membranelab.cli.main([verb, config])``
in this process and is timed alone.  Artifacts are checked after each job,
outside the timed region (checks.py), and a repeated config must reproduce
its artifacts byte for byte.  A job that exits non-zero, fails a check or
breaks determinism counts as failed.  Each workload has a fixed job list
and jobs are never cut short, so ``--seconds`` is accepted for the
runner's interface but does not change the work done.

With ``--trace 0`` the last stdout line reports the end-to-end metrics
declared in BENCHMARK.json.  The first job in a process pays kernel time
for fresh pages that later jobs do not; ``wall_ref_s`` carries that cost
(all jobs), and ``job_p50_ref_s`` is the median over the later, warm jobs.

Both are wall seconds scaled to a reference host speed.  A shared host
runs the same job up to 1.6 times slower for minutes at a time, far more
than any bound a change could be held to.  So between jobs the run times
a fixed kernel (probe()), about 0.35 s of it per 1.5 s of job, and
scales the raw times by PROBE_REF_S over the mean probe time: job time
integrates the host's speed, and so does the mean.  In trials on a 2-core
host with slow spells, scaling cut the spread of eight runs from 21-33 %
to 9-16 % and kept set medians close where raw ones moved by a third; on
a steady host it adds a few points of spread.  The raw seconds
(``wall_s``, ``job_p50_s``) and every probe time are kept in the run
record.

With ``--trace 1`` the second job of each config pair runs with spans
around the package's public functions (tracer.py) and the line reports
the per-layer metrics; the first job of each pair runs untraced, which
gives ``trace.overhead_s`` in raw seconds.  A traced run starts with one
extra untraced job of the first config, so that the cold first job does
not bias that comparison.  Spans and a per-job record go to
``.perfbench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
SETUP_REPEATS = 9
# probe() time on a 2-core x86 host at its fastest; times are scaled to it
PROBE_REF_S = 0.025


def cap_threads() -> dict:
    """Cap BLAS/OpenMP pools at the usable core count; must run before numpy loads."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    for var in THREAD_VARS:
        cur = os.environ.get(var, "")
        if not cur.isdigit() or not 1 <= int(cur) <= cores:
            os.environ[var] = str(cores)
    return {"cores": cores, **{var: os.environ[var] for var in THREAD_VARS}}


THREADS = cap_threads()

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracer  # noqa: E402
from workloads import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS, write_jobs  # noqa: E402

IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import membranelab.cli\n"
    "print(time.perf_counter() - t)\n"
)


def set_up(workload, seed: int, work_dir: str):
    """Median over repeats of (fresh-interpreter import + INI generation)."""
    samples = []
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, SRC],
            capture_output=True, text=True, timeout=120, check=True,
        )
        t0 = time.perf_counter()
        jobs = write_jobs(workload, seed, work_dir)
        samples.append(float(probe.stdout.strip().splitlines()[-1]) + time.perf_counter() - t0)
    return statistics.median(samples), jobs


def probe() -> float:
    """Mean wall time of 16 repeats of a fixed kernel shaped like the program's work.

    One repeat is a five-point stencil sweep on a 257^2 grid with masked
    updates and reductions (the CG inner loop), then 10000 floats printed
    with repr (the CSV writers).  Its input never changes, so its time
    follows only the host's current speed; the mean over about 0.35 s
    averages the short fast and slow spells a shared host goes through.
    """
    rng = np.random.default_rng(0)
    n = 257
    w0 = rng.random((n - 2, n - 2))
    free = w0 > 0.1
    values = rng.random(10000).tolist()
    samples = []
    for _ in range(16):
        t0 = time.perf_counter()
        full = np.zeros((n, n))
        p = w0.copy()
        for _ in range(25):
            full[1:-1, 1:-1] = p
            ap = 4.0 * p - (full[1:-1, :-2] + full[1:-1, 2:] + full[:-2, 1:-1] + full[2:, 1:-1])
            ap[~free] = 0.0
            scale = 1e-3 / (float(np.sum(p * ap)) + float(np.max(np.abs(ap))) + 1.0)
            p = 0.25 * ap + 0.5 * p + scale
        text = ",".join(map(repr, values))
        samples.append(time.perf_counter() - t0)
    if not len(text) > len(values):
        raise RuntimeError("probe kernel produced no output")
    return statistics.fmean(samples)


def run_job(cli_main, workload, job) -> tuple:
    """Time one CLI call; returns (wall s, CPU s, failure messages, artifact digest)."""
    shutil.rmtree(job.out_dir, ignore_errors=True)
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        rc = cli_main([workload.verb, job.config_path])
    except Exception:  # a crash is a failed job, not a failed benchmark
        rc = "exception: " + traceback.format_exc(limit=3)
    elapsed = time.perf_counter() - t0
    cpu = time.process_time() - c0
    fails = [] if rc == 0 else [f"exit status {rc}"]
    fails += checks.check_job(workload.name, job.out_dir, job.value, workload.n)
    return elapsed, cpu, fails, checks.artifact_digest(job.out_dir)


def declared_metrics(trace: bool) -> list:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed; {HELD_OUT_SEED} is kept for held-out checks")
    parser.add_argument("--seconds", type=float, default=50.0,
                        help="accepted for the runner; the job list is fixed per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "membranelab", "cli.py")):
        print(f"perfbench: no membranelab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import membranelab
    import membranelab.cli as cli

    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work_dir = os.path.join(ROOT, ".perfbench_work", f"{tag}-{os.getpid()}")
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(work_dir, exist_ok=True)
    os.makedirs(out_dir, exist_ok=True)
    try:
        setup_s, jobs = set_up(workload, args.seed, work_dir)
        spans = tracer.Tracer()
        records, digests = [], {}
        probe()  # the first call in a process pays for fresh pages
        probes = [probe()]
        # traced is None for the warm-up job of a traced run
        plan = [(job, trace and k % 2 == 1) for k, job in enumerate(jobs)]
        if trace:
            plan.insert(0, (jobs[0], None))
        for k, (job, traced) in enumerate(plan):
            spans.job = k
            if traced:
                with spans.installed():
                    elapsed, cpu, fails, digest = run_job(spans.wrap("cli.main", cli.main), workload, job)
            else:
                elapsed, cpu, fails, digest = run_job(cli.main, workload, job)
            probes += [probe() for _ in range(max(1, round(elapsed / 1.5)))]
            first = digests.setdefault(job.index, digest)
            if digest != first:
                changed = sorted(n for n in set(first) | set(digest) if first.get(n) != digest.get(n))
                fails.append(f"artifacts differ from the first run of this config: {changed}")
            for msg in fails:
                print(f"job {k} ({os.path.basename(job.config_path)}): {msg}", file=sys.stderr)
            records.append({"job": k, "config": job.index, "value": job.value, "traced": traced,
                            "seconds": elapsed, "cpu_seconds": cpu, "failures": fails})
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failed = sum(1 for r in records if r["failures"])
    if trace:
        traced_t = [r["seconds"] for r in records if r["traced"] is True]
        plain_t = [r["seconds"] for r in records if r["traced"] is False]
        overhead_s = (sum(traced_t) - sum(plain_t)) / len(traced_t)
        values = tracer.layer_metrics(spans, len(traced_t), overhead_s)
        with open(os.path.join(out_dir, f"{tag}-spans.json"), "w") as fh:
            json.dump(spans.to_json(), fh)
    else:
        times = [r["seconds"] for r in records]
        speed = PROBE_REF_S / statistics.fmean(probes)
        values = {
            "setup_s": setup_s,
            "wall_s": sum(times),
            "job_p50_s": statistics.median(times[1:]),
            "wall_ref_s": sum(times) * speed,
            "job_p50_ref_s": statistics.median(times[1:]) * speed,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pass_ratio": (len(records) - failed) / len(records),
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared_metrics(trace)}
    env = {
        **THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "membranelab": membranelab.__version__,
        "machine": platform.machine(),
    }
    with open(os.path.join(out_dir, f"{tag}.json"), "w") as fh:
        json.dump({"env": env, "jobs": records, "probes_s": probes, "values": values}, fh, indent=1)
    print("env " + json.dumps(env))
    print(json.dumps({"correct": failed == 0, "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
