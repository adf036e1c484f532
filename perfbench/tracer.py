"""In-memory spans around the public functions of each membranelab module.

A traced function is rebound in the namespace of every module that calls
it by its global name (``membranelab.cli.solve``,
``membranelab.freeboundary.dist_to_M``, ...), so calls made inside the
package are seen without changing it.  Each span records its name, start,
end, parent span and job id, plus a few counts taken from the call's
arguments and result.  ``Tracer.installed()`` undoes every rebinding on
exit, so untraced jobs in the same process run the original code.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import time
from dataclasses import dataclass, field

MODULES = ("grid", "profiles", "solver", "monotonicity", "freeboundary", "cli")


def _solve_info(args, kwargs, out):
    spec = args[0] if args else kwargs["spec"]
    report = out[1]
    return {
        "problem": hash((spec.boundary.values.tobytes(), spec.lambda_plus, spec.lambda_minus)),
        "sweeps": report.iterations,
        "pattern_changes": sum(report.pattern_changes),
    }


def _points_info(args, kwargs, out):
    return {"points": int(out.size)}


def _field_info(args, kwargs, out):
    return {"field": hash((args[0] if args else kwargs["u"]).values.tobytes())}


def _label_info(args, kwargs, out):
    return {"decided": out.label != "indeterminate"}


def _bytes_info(args, kwargs, out):
    return {"bytes": os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])}


# (module that defines the function, function name, counts taken per call)
TARGETS = (
    ("solver", "solve", _solve_info),
    ("solver", "comparison_check", None),
    ("grid", "interpolate_many", _points_info),
    ("grid", "gradient_fields", None),
    ("grid", "dump_field_csv", _bytes_info),
    ("monotonicity", "phi_ladder", None),
    ("monotonicity", "psi_ladder", None),
    ("monotonicity", "directional_parts", None),
    ("monotonicity", "blowup_rescale", None),
    ("profiles", "dist_to_M", None),
    ("freeboundary", "extract_free_boundary", _field_info),
    ("freeboundary", "classify_point", _label_info),
    ("freeboundary", "fit_two_graphs", None),
    ("freeboundary", "perimeter_estimate", None),
    ("freeboundary", "covering_count", None),
    ("freeboundary", "circle_trace", None),
    ("cli", "load_config", None),
    ("cli", "stability_sweep", None),
    ("cli", "hausdorff_distance", None),
    ("cli", "write_json", None),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    job: int
    info: dict | None = None


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    job: int = -1
    _stack: list = field(default_factory=list)

    def wrap(self, name: str, fn, info=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.job)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if info is not None:
                span.info = info(args, kwargs, out)
            return out
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind every target in each module that holds it by name."""
        mods = {m: importlib.import_module(f"membranelab.{m}") for m in MODULES}
        saved = []
        try:
            for home, name, info in TARGETS:
                orig = getattr(mods[home], name)
                wrapped = self.wrap(f"{home}.{name}", orig, info)
                for mod in mods.values():
                    if getattr(mod, name, None) is orig:
                        saved.append((mod, name, orig))
                        setattr(mod, name, wrapped)
            yield self
        finally:
            for mod, name, orig in reversed(saved):
                setattr(mod, name, orig)

    def to_json(self) -> list:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "job": s.job, **({"info": s.info} if s.info else {})}
            for s in self.spans
        ]


def _self_times(spans) -> list:
    """Span duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def layer_metrics(tracer: Tracer, jobs: int, overhead_s: float) -> dict:
    """Per-job layer metrics over ``jobs`` traced jobs."""
    spans = tracer.spans
    selfs = _self_times(spans)
    calls, self_s, incl_s, infos = {}, {}, {}, {}
    for s, st in zip(spans, selfs):
        calls[s.name] = calls.get(s.name, 0) + 1
        self_s[s.name] = self_s.get(s.name, 0.0) + st
        incl_s[s.name] = incl_s.get(s.name, 0.0) + (s.end - s.start)
        if s.info:
            infos.setdefault(s.name, []).append((s.job, s.info))

    def per_job(v):
        return v / jobs

    def distinct(name, key):
        return len({(job, info[key]) for job, info in infos.get(name, ())})

    def total(name, key):
        return sum(info[key] for _, info in infos.get(name, ()))

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for home, name, _ in TARGETS:
        full = f"{home}.{name}"
        m[f"{full}.calls"] = per_job(calls.get(full, 0))
        m[f"{full}.s"] = per_job(self_s.get(full, 0.0))
        m[f"{full}.incl_s"] = per_job(incl_s.get(full, 0.0))

    sweeps = total("solver.solve", "sweeps")
    n_problems = distinct("solver.solve", "problem")
    points = total("grid.interpolate_many", "points")
    decided = total("freeboundary.classify_point", "decided")
    m.update({
        "solver.solve.distinct": per_job(n_problems),
        "solver.solve.repeat_ratio": ratio(calls.get("solver.solve", 0), n_problems),
        "solver.solve.sweeps": per_job(sweeps),
        "solver.solve.s_per_sweep": ratio(self_s.get("solver.solve", 0.0), sweeps),
        "solver.solve.pattern_changes": per_job(total("solver.solve", "pattern_changes")),
        "grid.interpolate_many.points": per_job(points),
        "grid.interpolate_many.points_per_s": ratio(points, self_s.get("grid.interpolate_many", 0.0)),
        "grid.dump_field_csv.bytes": per_job(total("grid.dump_field_csv", "bytes")),
        "profiles.dist_to_M.s_per_call": ratio(self_s.get("profiles.dist_to_M", 0.0),
                                               calls.get("profiles.dist_to_M", 0)),
        "freeboundary.extract_free_boundary.per_field": ratio(
            calls.get("freeboundary.extract_free_boundary", 0),
            distinct("freeboundary.extract_free_boundary", "field")),
        "freeboundary.classify_point.decided_ratio": ratio(
            decided, calls.get("freeboundary.classify_point", 0)),
        "cli.main.self_s": per_job(self_s.get("cli.main", 0.0)),
        "trace.overhead_s": overhead_s,
    })
    return m
