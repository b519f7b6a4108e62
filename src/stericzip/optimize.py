"""Simulated-annealing evolutionary minimization and a gradient refiner.

The global optimizer runs mu annealing chains in parallel.  Each
generation every chain spawns lambda offspring; the workhorse move is a
Gaussian perturbation of the whole vector whose standard deviation is
step_scale * (hi - lo) * (T / T0) per coordinate.  Geometric cooling
sweeps that scale downward quickly, which strands multimodal problems
whose escape moves live at one particular length scale, so a fraction of
offspring instead perturb one or two random coordinates at a random
log-uniform scale, and another fraction recombine population members
(uniform crossover, or one member shifted by the difference of two
others).  Recombination is what breaks coupled traps: the difference of
two independently converged chains is a lattice vector of the problem's
basin structure.

Offspring are clamped into bounds and accepted against their own parent
by the Metropolis rule exp(-dE / T); recombination offspring, being
exploitative rather than thermal, are accepted only downhill.  The best
accepted offspring of each chain replaces that chain (family survivor
selection, which keeps the chains independent and the population
diverse), and T cools geometrically.  After ``stagnation_window``
generations without meaningful improvement the population is redrawn
fresh and the temperature re-heats, up to ``restarts`` times; the global
best is tracked outside the population and never lost.  Everything is
driven by one seeded generator, so a fixed (objective, config, seed)
gives a bit-identical result.

The local refiner is projected steepest descent with Armijo backtracking,
used to polish solutions to gradient-level accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ObjectiveError, RefinementError, StericZipError


@dataclass
class Objective:
    """A bound-constrained minimization problem.

    ``evaluate`` maps an n-vector to a float.  ``evaluate_batch``, when
    provided, maps an (m, n) array to an (m,) array and is used by the
    optimizer to avoid per-point Python overhead; it must agree with
    ``evaluate``.  ``gradient`` is required only by local_refine.  Both
    paths must accept any point in bounds: the Lennard-Jones objectives
    floor pair distances at ``energy.MIN_PAIR_DISTANCE`` instead of raising.
    """

    dimension: int
    evaluate: Callable[[np.ndarray], float]
    bounds: np.ndarray
    gradient: Callable[[np.ndarray], np.ndarray] | None = None
    evaluate_batch: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.dimension < 1:
            raise StericZipError("objective dimension must be >= 1")
        self.bounds = np.asarray(self.bounds, dtype=np.float64)
        if self.bounds.shape != (self.dimension, 2):
            raise StericZipError(f"bounds must have shape ({self.dimension}, 2)")
        if np.any(self.bounds[:, 0] >= self.bounds[:, 1]):
            raise StericZipError("each bound must satisfy lo < hi")

    @property
    def lower(self) -> np.ndarray:
        return self.bounds[:, 0]

    @property
    def upper(self) -> np.ndarray:
        return self.bounds[:, 1]

    def clamp(self, points: np.ndarray) -> np.ndarray:
        return np.clip(points, self.lower, self.upper)


def uniform_bounds(lo: float, hi: float, dimension: int) -> np.ndarray:
    return np.tile(np.array([lo, hi], dtype=np.float64), (dimension, 1))


def _start_point(objective: Objective, x0) -> np.ndarray:
    # Checked before clamping, which would broadcast a scalar or short x0.
    x = np.asarray(x0, dtype=np.float64)
    if x.shape != (objective.dimension,):
        raise StericZipError(f"x0 must be a {objective.dimension}-vector, got shape {x.shape}")
    return objective.clamp(x)


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs of the annealed evolutionary search.

    ``initial_temperature=None`` means: use the value spread (max - min) of
    the starting population, re-derived after each restart.  ``target_value``
    enables early termination once the best value is within
    ``target_tolerance`` of it (reported as terminated_by="tolerance").
    """

    population_size: int = 20
    offspring_per_parent: int = 5
    initial_temperature: float | None = None
    cooling_factor: float = 0.95
    step_scale: float = 0.1
    max_evaluations: int = 100_000
    stagnation_window: int = 50
    restarts: int = 5
    seed: int = 0
    target_value: float | None = None
    target_tolerance: float = 0.0

    def __post_init__(self):
        if self.population_size < 1:
            raise StericZipError("population_size must be >= 1")
        if self.offspring_per_parent < 1:
            raise StericZipError("offspring_per_parent must be >= 1")
        # `nan <= 0` is false, so each real knob is tested for finiteness too.
        if self.initial_temperature is not None and not (
            math.isfinite(self.initial_temperature) and self.initial_temperature > 0
        ):
            raise StericZipError("initial_temperature must be finite and positive")
        if not 0.0 < self.cooling_factor < 1.0:
            raise StericZipError("cooling_factor must lie in (0, 1)")
        if not (math.isfinite(self.step_scale) and self.step_scale > 0):
            raise StericZipError("step_scale must be finite and positive")
        if self.target_value is not None and not math.isfinite(self.target_value):
            raise StericZipError("target_value must be finite")
        if not (math.isfinite(self.target_tolerance) and self.target_tolerance >= 0):
            raise StericZipError("target_tolerance must be finite and >= 0")
        if self.max_evaluations < self.population_size:
            raise StericZipError("max_evaluations must cover the initial population")
        if self.stagnation_window < 1:
            raise StericZipError("stagnation_window must be >= 1")
        if self.restarts < 0:
            raise StericZipError("restarts must be >= 0")


@dataclass
class OptimizationResult:
    best_point: np.ndarray
    best_value: float
    evaluations_used: int
    trace: list[tuple[int, float]] = field(default_factory=list)
    terminated_by: str = "budget"


class _Evaluator:
    """Budgeted objective evaluation with error context."""

    def __init__(self, objective: Objective, budget: int):
        self.objective = objective
        self.budget = budget
        self.used = 0

    def remaining(self) -> int:
        return self.budget - self.used

    def __call__(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(points)
        self.used += points.shape[0]
        try:
            if self.objective.evaluate_batch is not None:
                values = np.asarray(self.objective.evaluate_batch(points), dtype=np.float64)
            else:
                values = np.array([self.objective.evaluate(p) for p in points], dtype=np.float64)
        except StericZipError:
            raise
        except Exception as exc:
            raise ObjectiveError(f"objective evaluation failed: {exc}", points) from exc
        if values.shape != (points.shape[0],):
            raise ObjectiveError(
                f"objective returned shape {values.shape} for {points.shape[0]} points", points
            )
        return values


# Offspring move mix: annealed full-vector Gaussian, single- and
# two-coordinate Gaussian at log-uniform scale, population recombination.
_MOVE_FULL = 0.50
_MOVE_SINGLE = 0.75
_MOVE_PAIR = 0.85


def _spawn_offspring(pop, lam, rng, span, lower, annealed_std, step_scale):
    """Draw mu * lam offspring.  Returns (offspring, is_recombination)."""
    mu, n = pop.shape
    m = mu * lam
    parents = np.repeat(pop, lam, axis=0)
    noise = rng.standard_normal((m, n)) * annealed_std
    move = rng.random(m)
    offspring = parents + noise

    coord = ((move >= _MOVE_FULL) & (move < _MOVE_PAIR)).nonzero()[0]
    c1 = rng.integers(0, n, m)
    c2 = rng.integers(0, n, m)
    scale = step_scale * span * 10.0 ** (-2.0 * rng.random(m))[:, None]
    coord_noise = rng.standard_normal((m, n)) * scale
    if coord.size:
        mask = np.zeros((m, n), dtype=bool)
        mask[coord, c1[coord]] = True
        pair = coord[move[coord] >= _MOVE_SINGLE]
        mask[pair, c2[pair]] = True
        offspring[coord] = (parents + coord_noise * mask)[coord]

    mix = (move >= _MOVE_PAIR).nonzero()[0]
    if mix.size:
        # Recombine population members: a uniform mix of two, or one
        # shifted by the difference of two others (a lattice vector of
        # the basin grid of separable-ish problems).
        a = pop[rng.integers(0, mu, mix.size)]
        b = pop[rng.integers(0, mu, mix.size)]
        c = pop[rng.integers(0, mu, mix.size)]
        take = rng.random((mix.size, n)) < 0.5
        crossed = np.where(take, a, b)
        sign = np.where(rng.random(mix.size) < 0.5, 1.0, -1.0)[:, None]
        differed = a + sign * (b - c)
        style = (rng.random(mix.size) < 0.5)[:, None]
        offspring[mix] = np.where(style, crossed, differed) + noise[mix]
    is_mix = np.zeros(m, dtype=bool)
    is_mix[mix] = True
    return np.clip(offspring, lower, lower + span), is_mix


def minimize_saec(
    objective: Objective, config: OptimizerConfig, x0: np.ndarray | None = None
) -> OptimizationResult:
    """Run the annealed evolutionary search.

    When an n-vector ``x0`` is given it is clamped into bounds and seeded
    into the initial population, so a start already at the optimum is never
    lost; otherwise the population is drawn uniformly within bounds.
    """
    mu = config.population_size
    lam = config.offspring_per_parent
    n = objective.dimension
    span = objective.upper - objective.lower
    root = np.random.SeedSequence(config.seed)
    # One stream per possible restart, derived from the master seed.
    streams = root.spawn(config.restarts + 1)

    evaluator = _Evaluator(objective, config.max_evaluations)
    best_point: np.ndarray | None = None
    best_value = np.inf
    trace: list[tuple[int, float]] = []
    terminated_by = "budget"

    def record_best(point: np.ndarray, value: float) -> None:
        nonlocal best_point, best_value
        if value < best_value:
            best_point = point.copy()
            best_value = value
            trace.append((evaluator.used, float(value)))

    def target_reached() -> bool:
        return (
            config.target_value is not None
            and best_value <= config.target_value + config.target_tolerance
        )

    done = False
    for restart_index in range(config.restarts + 1):
        if done or evaluator.remaining() < mu:
            break
        rng = np.random.default_rng(streams[restart_index])

        # Restart populations are fresh; the global best is never lost (it
        # is tracked outside the population) and a caller-provided x0
        # joins the first population.
        pop = objective.lower + rng.random((mu, n)) * span
        if restart_index == 0 and x0 is not None:
            pop[0] = _start_point(objective, x0)
        values = evaluator(pop)
        for k in range(mu):
            record_best(pop[k], float(values[k]))
        if target_reached():
            terminated_by = "tolerance"
            break

        if config.initial_temperature is not None:
            t0 = config.initial_temperature
        else:
            spread = float(np.max(values) - np.min(values))
            t0 = spread if spread > 0 else 1.0
        temperature = t0

        # Stagnation is judged on this run's own population best, so a
        # fresh restart is not cut short merely because the incumbent from
        # an earlier run is still better.
        run_best = float(np.min(values))
        since_improvement = 0
        while True:
            if evaluator.remaining() < mu * lam:
                done = True
                break

            annealed_std = config.step_scale * span * (temperature / t0)
            offspring, is_mix = _spawn_offspring(
                pop, lam, rng, span, objective.lower, annealed_std, config.step_scale
            )
            off_values = evaluator(offspring)

            parent_values = np.repeat(values, lam)
            delta = off_values - parent_values
            with np.errstate(over="ignore", under="ignore"):
                accept_prob = np.where(delta <= 0, 1.0, np.exp(-delta / temperature))
            accepted = rng.random(mu * lam) < accept_prob
            # Recombination offspring are exploitative, not thermal moves:
            # accepting them uphill would homogenize the chains.
            accepted &= ~is_mix | (delta <= 0)

            # Family survivor selection: the best accepted offspring of
            # each parent takes over that chain; chains stay independent,
            # which preserves the population diversity recombination needs.
            fam_values = np.where(accepted, off_values, np.inf).reshape(mu, lam)
            fam_arg = np.argmin(fam_values, axis=1)
            fam_best = fam_values[np.arange(mu), fam_arg]
            replaced = np.isfinite(fam_best)
            chosen = offspring.reshape(mu, lam, n)[np.arange(mu), fam_arg]
            pop = np.where(replaced[:, None], chosen, pop)
            values = np.where(replaced, fam_best, values)

            k = int(np.argmin(values))
            record_best(pop[k], float(values[k]))
            # Geometric cooling; the floor keeps T strictly positive in floats.
            temperature = max(temperature * config.cooling_factor, 1e-300)

            if target_reached():
                terminated_by = "tolerance"
                done = True
                break
            # Micro-refinements of a frozen basin do not count as progress;
            # require a meaningful relative improvement of this run's best.
            run_min = float(np.min(values))
            if run_min < run_best - 1e-6 * max(abs(run_best), 1e-12):
                run_best = run_min
                since_improvement = 0
            else:
                run_best = min(run_best, run_min)
                since_improvement += 1
            if since_improvement >= config.stagnation_window:
                if restart_index == config.restarts:
                    terminated_by = "stagnation"
                    done = True
                break  # next restart

    if best_point is None:
        raise StericZipError("optimization budget too small to evaluate any point")
    return OptimizationResult(
        best_point=best_point,
        best_value=float(best_value),
        evaluations_used=evaluator.used,
        trace=trace,
        terminated_by=terminated_by,
    )


def local_refine(
    objective: Objective,
    x0: np.ndarray,
    tol: float = 1e-8,
    max_iters: int = 500,
) -> OptimizationResult:
    """Projected steepest descent with Armijo backtracking (c = 1e-4).

    Descends until the gradient norm is at most ``tol`` or the iteration
    budget runs out.  The value never increases; iterates stay inside the
    objective's bounds.  Non-finite values or gradients raise
    RefinementError carrying the last good point.
    """
    if objective.gradient is None:
        raise StericZipError("local_refine requires an objective gradient")
    x = _start_point(objective, x0)

    evaluations = 0

    def value_at(point: np.ndarray) -> float:
        nonlocal evaluations
        evaluations += 1
        return float(objective.evaluate(point))

    armijo_c = 1e-4
    value = value_at(x)
    if not np.isfinite(value):
        raise RefinementError("non-finite value at starting point", x, value)
    trace: list[tuple[int, float]] = [(evaluations, value)]
    terminated_by = "budget"

    for _ in range(max_iters):
        grad = np.asarray(objective.gradient(x), dtype=np.float64)
        if not np.all(np.isfinite(grad)):
            raise RefinementError("non-finite gradient", x, value)
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= tol:
            terminated_by = "tolerance"
            break

        step = 1.0 / max(gnorm, 1.0)
        improved = False
        for _halving in range(60):
            candidate = objective.clamp(x - step * grad)
            cand_value = value_at(candidate)
            if not np.isfinite(cand_value):
                raise RefinementError("non-finite value during line search", x, value)
            decrease = float(grad @ (x - candidate))
            if cand_value <= value - armijo_c * decrease and cand_value < value:
                x, value = candidate, cand_value
                trace.append((evaluations, value))
                improved = True
                break
            step *= 0.5
        if not improved:
            # Line search exhausted: the projected direction yields no
            # decrease at the smallest step, so treat as converged.
            terminated_by = "tolerance"
            break

    return OptimizationResult(
        best_point=x,
        best_value=value,
        evaluations_used=evaluations,
        trace=trace,
        terminated_by=terminated_by,
    )
