"""Shared fixtures: solved fields and sampled reference data.

Session scope keeps the expensive solves (65^2 .. 257^2) and the big
sampled grids to one build per run.
"""
import os

import numpy as np
import pytest

import membranelab
from membranelab import (
    BoundaryMap,
    GlobalProfile,
    OnePhasePolynomial,
    ProblemSpec,
    build_grid,
    profile_boundary_trace,
    sample,
    solve,
)

LP = 2.0
LM = 2.0


def pytest_report_header(config):
    # pyproject's pythonpath puts this checkout's src ahead of PYTHONPATH;
    # name the tree actually under test
    return f"membranelab: {os.path.dirname(membranelab.__file__)}"


def profile_fn(lp=LP, lm=LM):
    """Exact one-dimensional two-phase profile as a sampling callable."""
    def fn(X, Y):
        return 0.25 * lp * np.maximum(X, 0.0) ** 2 - 0.25 * lm * np.minimum(X, 0.0) ** 2
    return fn


def spec_of(u, lp=LP, lm=LM):
    """The problem a sampled field is the data of: its own boundary trace."""
    return ProblemSpec(u.grid, BoundaryMap(u.grid, u.values), lp, lm)


def make_profile_problem(n, beta1=1.0, beta2=0.0, tau=0.0, theta=0.0):
    g = build_grid(-1.0, 1.0, -1.0, 1.0, n, n)
    v = GlobalProfile(beta1, beta2, tau, theta, LP, LM)
    return v, ProblemSpec(g, profile_boundary_trace(v, g), LP, LM)


def make_poly_problem(n):
    # (lambda/8)|x|^2 with lambda = 2: cxx = cyy = 0.25
    g = build_grid(-1.0, 1.0, -1.0, 1.0, n, n)
    q = OnePhasePolynomial(0.25, 0.0, 0.25, 1)
    return q, ProblemSpec(g, profile_boundary_trace(q, g), LP, LM)


@pytest.fixture(scope="session")
def profile_solutions():
    """Solved two-phase profile data on the three nested grids."""
    out = {}
    for n in (65, 129, 257):
        v, spec = make_profile_problem(n)
        u, report = solve(spec)
        out[n] = (v, spec, u, report)
    return out


@pytest.fixture(scope="session")
def poly_solutions():
    """Solved one-phase quadratic data on two nested grids."""
    out = {}
    for n in (129, 257):
        q, spec = make_poly_problem(n)
        u, report = solve(spec)
        out[n] = (q, spec, u, report)
    return out


@pytest.fixture(scope="session")
def tau_solution():
    """Solved profile with a pinned slab: tau = -0.4 ramp data at 129^2."""
    v, spec = make_profile_problem(129, tau=-0.4)
    u, report = solve(spec)
    return v, spec, u, report


@pytest.fixture(scope="session")
def sampled_profile_641():
    """Exact profile sampled on 641^2 over [-1.25, 1.25]^2 (quadrature grid)."""
    g = build_grid(-1.25, 1.25, -1.25, 1.25, 641, 641)
    return g, sample(g, profile_fn())


@pytest.fixture(scope="session")
def halfplane_parts_641():
    """The pair ((x1)+, (x1)-) sampled on the 641^2 quadrature grid."""
    g = build_grid(-1.25, 1.25, -1.25, 1.25, 641, 641)
    hp = sample(g, lambda X, Y: np.maximum(X, 0.0))
    hm = sample(g, lambda X, Y: np.maximum(-X, 0.0))
    return g, hp, hm
