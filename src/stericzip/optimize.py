"""Simulated-annealing evolutionary minimization and a gradient refiner.

The global optimizer runs mu annealing chains in parallel.  Each
generation every chain spawns 5 offspring; the workhorse move is a
Gaussian perturbation of the whole vector whose standard deviation is
0.1 * (hi - lo) * (T / T0) per coordinate, where T0 is the value spread
of the starting population.  Geometric cooling (T *= 0.95 a generation)
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
diverse), and T cools geometrically.  After 50 generations without
meaningful improvement the population is redrawn fresh and the
temperature re-heats, up to ``restarts`` times; the global best is
tracked outside the population and never lost.  Everything is driven by
one seeded generator, so a fixed (objective, config, seed) gives a
bit-identical result.

The local refiner polishes a point to gradient-level accuracy by
projected descent with Armijo backtracking.  Given only a gradient it
steps along -g; given an analytic Hessian it takes modified Newton steps
(Nocedal & Wright, *Numerical Optimization*, sec. 3.4): the direction
solves (H + tau I) d = g, with tau raised from 0 until a Cholesky
factorisation succeeds, and a trust length caps each step.
"""

from __future__ import annotations

import math
import operator
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
    ``evaluate``.  ``gradient`` is required only by local_refine, and
    ``hessian``, an n-vector to (n, n) symmetric map, is optional: with it
    local_refine takes Newton steps instead of steepest-descent ones.  Every
    path must accept any point in bounds: the Lennard-Jones objectives
    floor pair distances at ``energy.MIN_PAIR_DISTANCE`` instead of raising.
    """

    dimension: int
    evaluate: Callable[[np.ndarray], float]
    bounds: np.ndarray
    gradient: Callable[[np.ndarray], np.ndarray] | None = None
    evaluate_batch: Callable[[np.ndarray], np.ndarray] | None = None
    hessian: Callable[[np.ndarray], np.ndarray] | None = None

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


# Fixed tuning of the annealed search.
_OFFSPRING_PER_PARENT = 5  # per chain per generation
_COOLING_FACTOR = 0.95  # T *= 0.95 each generation
_STEP_SCALE = 0.1  # Gaussian step as a fraction of the bound span
_STAGNATION_WINDOW = 50  # generations without improvement before a restart


@dataclass(frozen=True)
class OptimizerConfig:
    """What callers vary in the annealed search; its tuning is fixed above.

    The four integer settings must be integers (bool is refused).
    ``target_value`` enables early termination once the best value is within
    ``target_tolerance`` of it (reported as terminated_by="tolerance").
    """

    population_size: int = 20
    max_evaluations: int = 100_000
    restarts: int = 5
    seed: int = 0
    target_value: float | None = None
    target_tolerance: float = 0.0

    def __post_init__(self):
        floors = {"population_size": 1, "max_evaluations": self.population_size, "restarts": 0, "seed": 0}
        for name, least in floors.items():
            value = getattr(self, name)
            try:
                number = operator.index(value)
            except TypeError:
                number = None
            if number is None or isinstance(value, bool) or number < least:
                raise StericZipError(f"{name} must be an integer >= {least}, got {value!r}")
            # A NumPy integer is stored as int, so reports stay JSON-ready.
            object.__setattr__(self, name, number)
        # `nan <= 0` is false, so each real setting is tested for finiteness too.
        if self.target_value is not None and not math.isfinite(self.target_value):
            raise StericZipError("target_value must be finite")
        if not (math.isfinite(self.target_tolerance) and self.target_tolerance >= 0):
            raise StericZipError("target_tolerance must be finite and >= 0")


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


def _spawn_offspring(pop, lam, rng, span, lower, annealed_std):
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
    scale = _STEP_SCALE * span * 10.0 ** (-2.0 * rng.random(m))[:, None]
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
    lam = _OFFSPRING_PER_PARENT
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

            annealed_std = _STEP_SCALE * span * (temperature / t0)
            offspring, is_mix = _spawn_offspring(pop, lam, rng, span, objective.lower, annealed_std)
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
            temperature = max(temperature * _COOLING_FACTOR, 1e-300)

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
            if since_improvement >= _STAGNATION_WINDOW:
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


# Fixed tuning of the Newton step.
_SHIFT_FRACTION = 1e-3  # first nonzero Hessian shift, as a fraction of |H|_F
_TRUST_GROWTH = 1.5  # a Newton step is at most this times the last accepted move


def _newton_direction(hess: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """d solving (H + tau I) d = g for the first of tau = 0, beta, 2 beta, ...
    at which the Cholesky factorisation succeeds (Nocedal & Wright, Algorithm 3.3).

    beta = 1e-3 |H|_F is unchanged by a rotation of the frame, so d turns with
    the frame.  Any tau above |H|_F, which bounds every eigenvalue magnitude,
    factorises, so the doubling ends within 11 steps.
    """
    beta = _SHIFT_FRACTION * float(np.linalg.norm(hess)) or 1.0  # H = 0 steps along g
    # A Cholesky factorisation that succeeds is backward stable, so it leaves
    # lambda_min(H + tau I) >= -O(u)|H + tau I|: a shift that keeps the least
    # eigenvalue clearly negative would fail, and is skipped unattempted.
    lowest, shift = float(np.linalg.eigvalsh(hess)[0]), 0.0
    while lowest + shift < -1e-8 * (beta + shift):
        shift = max(2.0 * shift, beta)
    while True:
        try:
            lower = np.linalg.cholesky(hess + shift * np.eye(len(grad)))
            return np.linalg.solve(lower.T, np.linalg.solve(lower, grad))
        except np.linalg.LinAlgError:
            shift = max(2.0 * shift, beta)


def local_refine(
    objective: Objective,
    x0: np.ndarray,
    tol: float = 1e-8,
    max_iters: int = 500,
) -> OptimizationResult:
    """Projected descent with Armijo backtracking (c = 1e-4).

    Without a Hessian each iteration steps along -g, first trying a step
    of length min(|g|, 1).  With the objective's ``hessian`` it steps along
    the modified Newton direction -d, (H + tau I) d = g, whose first trial
    length is min(|d|, cap): the cap is min(|g|, 1) at the first iteration
    and 1.5 times the last accepted move after it, so a near-singular H
    cannot fling the iterate across a flat valley.  Either way a trial
    step is halved until it lowers the value enough.

    Descends until the gradient norm is at most ``tol`` ("tolerance"), the
    iteration budget runs out ("budget") or no step along the direction
    lowers the value ("line_search").  The value never increases;
    iterates stay inside the objective's bounds.  Non-finite values,
    gradients or Hessians raise RefinementError carrying the last good point.
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
    cap = None  # longest Newton step the next iteration may try

    for _ in range(max_iters):
        grad = np.asarray(objective.gradient(x), dtype=np.float64)
        if not np.all(np.isfinite(grad)):
            raise RefinementError("non-finite gradient", x, value)
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= tol:
            terminated_by = "tolerance"
            break

        if objective.hessian is None:
            direction, step = grad, 1.0 / max(gnorm, 1.0)
        else:
            hess = np.asarray(objective.hessian(x), dtype=np.float64)
            if not np.all(np.isfinite(hess)):
                raise RefinementError("non-finite Hessian", x, value)
            direction = _newton_direction(hess, grad)
            if cap is None:
                cap = min(gnorm, 1.0)
            length = float(np.linalg.norm(direction))
            step = cap / length if length > cap else 1.0
        improved = False
        for _halving in range(60):
            candidate = objective.clamp(x - step * direction)
            cand_value = value_at(candidate)
            if not np.isfinite(cand_value):
                raise RefinementError("non-finite value during line search", x, value)
            decrease = float(grad @ (x - candidate))
            if cand_value <= value - armijo_c * decrease and cand_value < value:
                cap = _TRUST_GROWTH * float(np.linalg.norm(candidate - x))
                x, value = candidate, cand_value
                trace.append((evaluations, value))
                improved = True
                break
            step *= 0.5
        if not improved:
            # Line search exhausted: the projected direction yields no
            # decrease at the smallest step, though |g| is still above tol.
            terminated_by = "line_search"
            break

    return OptimizationResult(
        best_point=x,
        best_value=value,
        evaluations_used=evaluations,
        trace=trace,
        terminated_by=terminated_by,
    )
