"""Classic global-optimization test problems and a seeded benchmark harness.

Every function takes a point as its last axis, so the same code serves a
single n-vector and an (m, n) batch.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache

import numpy as np

from .energy import LJParams, lj_kernel, pair_indices
from .errors import StericZipError
from .optimize import Objective, OptimizerConfig, minimize_saec, uniform_bounds


REDUCED_LJ = LJParams(1.0, 1.0)


def sphere(x):
    return np.sum(np.square(x), axis=-1)


def rosenbrock(x):
    x = np.asarray(x)
    head, tail = x[..., :-1], x[..., 1:]
    return np.sum(100.0 * (tail - head**2) ** 2 + (1.0 - head) ** 2, axis=-1)


def rastrigin(x):
    x = np.asarray(x)
    return 10.0 * x.shape[-1] + np.sum(x**2 - 10.0 * np.cos(2.0 * np.pi * x), axis=-1)


def ackley(x):
    x = np.asarray(x)
    return (
        -20.0 * np.exp(-0.2 * np.sqrt(np.mean(x**2, axis=-1)))
        - np.exp(np.mean(np.cos(2.0 * np.pi * x), axis=-1))
        + 20.0
        + np.e
    )


@cache
def _griewank_roots(n: int) -> np.ndarray:
    """sqrt(i) for i = 1..n, as a read-only view."""
    return np.broadcast_to(np.sqrt(np.arange(1, n + 1, dtype=np.float64)), n)


def griewank(x):
    x = np.asarray(x)
    return 1.0 + np.sum(x**2, axis=-1) / 4000.0 - np.prod(np.cos(x / _griewank_roots(x.shape[-1])), axis=-1)


def schwefel_226(x):
    x = np.asarray(x)
    return 418.9829 * x.shape[-1] - np.sum(x * np.sin(np.sqrt(np.abs(x))), axis=-1)


def lj_cluster_value(x):
    """Reduced-unit Lennard-Jones cluster energy of a flat 3N point."""
    x = np.asarray(x, dtype=np.float64)
    pts = x.reshape(*x.shape[:-1], -1, 3)
    i, j = pair_indices(pts.shape[-2])
    diff = pts[..., i, :] - pts[..., j, :]
    # Each kernel term sits one well depth above the pair energy.
    return np.sum(lj_kernel(np.sum(diff * diff, axis=-1), REDUCED_LJ), axis=-1) - i.size


@dataclass(frozen=True)
class BenchmarkProblem:
    name: str
    function: callable
    lower: float
    upper: float
    target: float
    # Success means best <= target + tolerance in at least `threshold`
    # of the seeded runs; thresholds are acceptance parameters of this
    # package, set from measured headroom.
    tolerance: float
    threshold: float
    fixed_dim: int | None = None

    def make_objective(self, dim: int) -> Objective:
        f = self.function
        return Objective(
            dimension=dim,
            evaluate=lambda p: float(f(p)),
            evaluate_batch=f,
            bounds=uniform_bounds(self.lower, self.upper, dim),
        )


# Success thresholds are pinned from measured headroom with the default
# harness config: the four 0.90 cells score 30/30 at n in {2, 5, 10},
# rosenbrock n=10 scores 20-24/30, and the rest score 100%.
CLASSIC_SUITE: dict[str, BenchmarkProblem] = {
    p.name: p
    for p in (
        BenchmarkProblem("sphere", sphere, -5.12, 5.12, 0.0, 1e-6, 0.95),
        BenchmarkProblem("rosenbrock", rosenbrock, -2.048, 2.048, 0.0, 1e-4, 0.50),
        BenchmarkProblem("rastrigin", rastrigin, -5.12, 5.12, 0.0, 1e-4, 0.90),
        BenchmarkProblem("ackley", ackley, -32.768, 32.768, 0.0, 1e-4, 0.90),
        BenchmarkProblem("griewank", griewank, -600.0, 600.0, 0.0, 1e-4, 0.90),
        BenchmarkProblem("schwefel_226", schwefel_226, -500.0, 500.0, 0.0, 1e-3, 0.80),
        BenchmarkProblem("lj_cluster_n3", lj_cluster_value, -2.0, 2.0, -3.0, 1e-3, 0.95, fixed_dim=9),
        BenchmarkProblem("lj_cluster_n4", lj_cluster_value, -2.0, 2.0, -6.0, 1e-3, 0.95, fixed_dim=12),
    )
}

SUITES = {"classic": CLASSIC_SUITE}

DEFAULT_BENCH_BUDGET = 200_000
DEFAULT_BENCH_DIMS = (2, 5, 10)
DEFAULT_BENCH_RUNS = 30


def default_bench_config(budget: int = DEFAULT_BENCH_BUDGET) -> OptimizerConfig:
    """Harness defaults: a wider population and more restarts than the
    class defaults, sized so the restart cycle fills the evaluation budget."""
    return OptimizerConfig(max_evaluations=budget, population_size=50, restarts=20)


def run_benchmark(
    suite: str = "classic",
    dims=DEFAULT_BENCH_DIMS,
    runs: int = DEFAULT_BENCH_RUNS,
    config: OptimizerConfig | None = None,
    seed: int = 0,
) -> dict:
    """Seeded success-rate table over one suite.

    Each (problem, dim) cell runs ``runs`` independent optimizations whose
    seeds derive from ``seed``; a run succeeds when it reaches the
    problem's target within its tolerance.  Fixed-dimension problems (the
    LJ clusters) appear once regardless of ``dims``.
    """
    if suite not in SUITES:
        raise StericZipError(f"unknown benchmark suite {suite!r}; have {sorted(SUITES)}")
    if runs < 1:
        raise StericZipError("runs must be >= 1")
    dims = tuple(int(d) for d in dims)
    if not dims or any(d < 1 for d in dims):
        raise StericZipError("dims must be positive integers")
    base = config or default_bench_config()

    problems = SUITES[suite]
    cells = []
    for cell_index, (name, problem) in enumerate(sorted(problems.items())):
        cell_dims = (problem.fixed_dim,) if problem.fixed_dim else dims
        for dim in cell_dims:
            run_seeds = np.random.SeedSequence(entropy=seed, spawn_key=(cell_index, dim)).generate_state(runs)
            objective = problem.make_objective(dim)
            cell = replace(base, target_value=problem.target, target_tolerance=problem.tolerance)
            results = [minimize_saec(objective, replace(cell, seed=int(run_seed))) for run_seed in run_seeds]
            successes = [r.best_value <= problem.target + problem.tolerance for r in results]
            rate = float(np.mean(successes))
            cells.append(
                {
                    "problem": name,
                    "dim": dim,
                    "runs": runs,
                    "target": problem.target,
                    "tolerance": problem.tolerance,
                    "success_rate": rate,
                    "success_threshold": problem.threshold,
                    "best": float(min(r.best_value for r in results)),
                    "median_evals": float(np.median([r.evaluations_used for r in results])),
                    "passed": rate >= problem.threshold,
                }
            )
    return {
        "suite": suite,
        "seed": seed,
        "dims": list(dims),
        "runs": runs,
        "max_evaluations": base.max_evaluations,
        "cells": cells,
        "all_passed": all(cell["passed"] for cell in cells),
    }
