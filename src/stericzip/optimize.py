"""Simulated-annealing evolutionary minimization and a Newton refiner.

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
by the Metropolis rule exp(-dE / T), taken as dE <= -T log(1 - u);
recombination offspring, being exploitative rather than thermal, are
accepted only downhill.  The best accepted offspring of each chain
replaces that chain (family survivor selection, which keeps the chains
independent and the population diverse), and T cools geometrically.
After 50 generations without meaningful improvement the population is
redrawn fresh and the temperature re-heats, up to ``restarts`` times;
the global best is tracked outside the population and never lost.

Each restart draws from its own seeded stream, first its (mu, n) starting
population.  A generation then makes three draws, of only what its moves
use: a uniform per offspring picks its move; one uniform block holds the
rest (acceptance, coordinates and scales, recombination members, sign,
style and crossover); one normal block holds n normals per full-vector or
recombination offspring and one per coordinate that a coordinate move
changes.  The generation is a few whole-array calls, as call overhead
dominates at these sizes: one gather of the recombination members, masked
writes for their sign, style and crossover, one scatter of the Gaussian
rows, one add through the flat cells of the coordinate steps and a clamp
against bounds tiled once per run.  It gives the results of the plain
three-draw generation (tests keep it as a reference) bit for bit, and a
fixed (objective, config, seed) gives a bit-identical result.

The local refiner polishes a point to gradient-level accuracy by projected
modified Newton steps with Armijo backtracking (Nocedal & Wright,
*Numerical Optimization*, sec. 3.4): the direction solves (H + tau I) d = g
for the analytic gradient g and Hessian H, with tau raised from 0 until a
Cholesky factorisation succeeds, and a trust length caps each step.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ObjectiveError, RefinementError, StericZipError


@dataclass
class Objective:
    """A bound-constrained minimization problem.

    ``evaluate`` maps an n-vector to a float.  ``evaluate_batch``, when
    provided, maps an (m, n) array to an (m,) array and is used by the
    optimizer to avoid per-point Python overhead; it must agree with
    ``evaluate``.  local_refine takes its Newton steps with ``gradient`` and
    ``hessian``, an n-vector to (n, n) symmetric map, and refuses an
    objective without both.  Every path must accept any point in bounds: the
    Lennard-Jones objectives floor pair distances at
    ``energy.MIN_PAIR_DISTANCE`` instead of raising.
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
    terminated_by: str


# Offspring move mix: annealed full-vector Gaussian, single- and
# two-coordinate Gaussian at log-uniform scale, population recombination.
_MOVE_FULL = 0.50
_MOVE_SINGLE = 0.75
_MOVE_PAIR = 0.85


def _index(u: np.ndarray, k: int) -> np.ndarray:
    """floor(u * k): below k for u in [0, 1), as u * k then rounds below k."""
    return (u * k).astype(np.intp)


def _spawn_offspring(pop, lam, rng, lower, upper, span, annealed_std):
    """Draw mu * lam offspring.  Returns (offspring, allowance): offspring i is
    accepted when its value exceeds its parent's by at most allowance[i] * T.
    A thermal allowance is -log(1 - u), which accepts an uphill dE with
    probability exp(-dE / T); a recombination allowance is 0, since accepting
    recombinations uphill would homogenize the chains.  The bounds are (n,)
    or, cheaper to clamp against, tiled to (mu * lam, n)."""
    mu, n = pop.shape
    m = mu * lam
    move = rng.random(m)
    full, thermal = move < _MOVE_FULL, move < _MOVE_PAIR
    gauss, coord, mix = (full == thermal).nonzero()[0], (full != thermal).nonzero()[0], (~thermal).nonzero()[0]
    pair = (move.take(coord) >= _MOVE_SINGLE).nonzero()[0]
    k, j = coord.size, mix.size
    uniform = rng.random(m - j + 2 * k + pair.size + (5 + n) * j)
    acceptance, rest = uniform[: m - j], uniform[m - j:]
    scale, r = rest[k: 2 * k], rest[2 * k + pair.size:].reshape(j, 5 + n)
    drawn = _index(rest[: 2 * k + pair.size], n)
    first, second = drawn[:k], drawn[2 * k:]  # drawn[k: 2 * k], made of the scales, is unused

    # Coordinate steps: the first coordinate of each coordinate row, and the
    # second of a pair row when it differs from the first.
    distinct = second != first.take(pair)
    again = pair[distinct]
    rows = np.concatenate([coord, coord.take(again)])
    cols = np.concatenate([first, second[distinct]])
    step = _STEP_SCALE * 10.0 ** (-2.0 * scale)
    noise = rng.standard_normal(gauss.size * n + rows.size)

    offspring = np.repeat(pop, lam, axis=0)
    # Recombine population members: a uniform mix of two, or one shifted by
    # the difference of two others (a lattice vector of the basin grid of
    # separable-ish problems).
    a, b, c = pop.take(_index(r[:, :3], mu).T, axis=0)
    low = r[:, 3:] < 0.5
    shifted = c - b
    np.subtract(b, c, out=shifted, where=low[:, :1])
    shifted += a
    np.copyto(b, a, where=low[:, 2:])
    np.copyto(shifted, b, where=low[:, 1:2])
    offspring[mix] = shifted
    # Gaussian rows (noise plus row) go back in one scatter, coordinate steps through flat cells.
    moved, delta = noise[: gauss.size * n].reshape(-1, n), noise[gauss.size * n:]
    moved *= annealed_std
    moved += offspring.take(gauss, axis=0)
    offspring[gauss] = moved
    delta *= np.concatenate([step, step.take(again)])
    delta *= span.take(cols)
    offspring.ravel()[rows * n + cols] += delta
    np.minimum(np.maximum(offspring, lower, out=offspring), upper, out=offspring)

    allowance = np.zeros(m)
    allowance[thermal] = -np.log1p(-acceptance)
    return offspring, allowance


def _select(pop, values, offspring, off_values, allowance, temperature):
    """Family survivor selection: the best accepted offspring of each parent
    takes over that chain; chains stay independent, which preserves the
    population diversity recombination needs.  Returns (pop, values)."""
    mu, lam = len(pop), len(offspring) // len(pop)
    family = off_values.reshape(mu, lam)
    with np.errstate(invalid="ignore"):  # inf - inf: an infinite parent's infinite offspring is not accepted
        accepted = family - values.reshape(mu, 1) <= (temperature * allowance).reshape(mu, lam)
    family = np.where(accepted, family, np.inf)
    pick = family.argmin(axis=1)
    pick += np.arange(0, mu * lam, lam)
    best = family.take(pick)
    replaced = np.isfinite(best)
    return np.where(replaced[:, None], offspring.take(pick, axis=0), pop), np.where(replaced, best, values)


def minimize_saec(
    objective: Objective, config: OptimizerConfig, x0: np.ndarray | None = None
) -> OptimizationResult:
    """Run the annealed evolutionary search.

    When an n-vector ``x0`` is given it is clamped into bounds and seeded
    into the initial population, so a start already at the optimum is never
    lost; otherwise the population is drawn uniformly within bounds.
    """
    mu, lam, n = config.population_size, _OFFSPRING_PER_PARENT, objective.dimension
    span = objective.upper - objective.lower
    step = _STEP_SCALE * span
    # A NaN target is never reached.
    target = math.nan if config.target_value is None else config.target_value + config.target_tolerance
    bounds = None  # (lower, upper) tiled to (mu * lam, n) when the first generation is drawn

    best_point: np.ndarray | None = None
    best_value = math.inf
    terminated_by = "budget"
    used, last = 0, None  # evaluations so far, and the last batch evaluated

    def evaluate(points: np.ndarray) -> np.ndarray:
        """Budgeted objective evaluation with error context."""
        nonlocal used, last
        used, last = used + len(points), points
        try:
            if objective.evaluate_batch is not None:
                values = np.asarray(objective.evaluate_batch(points), dtype=np.float64)
            else:
                values = np.array([objective.evaluate(p) for p in points], dtype=np.float64)
        except StericZipError:
            raise
        except Exception as exc:
            raise ObjectiveError(f"objective evaluation failed: {exc}", points) from exc
        if values.shape != (len(points),):
            raise ObjectiveError(f"objective returned shape {values.shape} for {len(points)} points", points)
        return values

    done = False
    for restart_index in range(config.restarts + 1):
        if done or config.max_evaluations - used < mu:
            break
        # The stream SeedSequence(seed).spawn(...)[restart_index] would give, made only when used.
        rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(restart_index,)))

        # Restart populations are fresh; the global best is never lost (it
        # is tracked outside the population) and a caller-provided x0
        # joins the first population.
        pop = objective.lower + rng.random((mu, n)) * span
        if restart_index == 0 and x0 is not None:
            pop[0] = _start_point(objective, x0)
        values = evaluate(pop)
        # The first least value; a NaN is never the best.
        k = int(np.argmin(np.where(np.isnan(values), np.inf, values)))
        if values[k] < best_value:
            best_point, best_value = pop[k].copy(), float(values[k])
        if best_value <= target:
            terminated_by = "tolerance"
            break

        finite = values[np.isfinite(values)]  # one +inf would make T0 +inf, and every annealed step inf / inf
        spread = float(finite.max() - finite.min()) if finite.size else 0.0
        t0 = spread if spread > 0 else 1.0
        temperature = t0

        # Stagnation is judged on this run's own population best, so a
        # fresh restart is not cut short merely because the incumbent from
        # an earlier run is still better.
        run_best = float(np.min(values))
        since_improvement = 0
        while True:
            if config.max_evaluations - used < mu * lam:
                done = True
                break
            bounds = np.tile(objective.bounds.T[:, None, :], (1, mu * lam, 1)) if bounds is None else bounds

            offspring, allowance = _spawn_offspring(pop, lam, rng, *bounds, span, step * (temperature / t0))
            pop, values = _select(pop, values, offspring, evaluate(offspring), allowance, temperature)

            k = int(values.argmin())
            value = float(values[k])
            if value < best_value:
                best_point, best_value = pop[k].copy(), value
            # Geometric cooling; the floor keeps T strictly positive in floats.
            temperature = max(temperature * _COOLING_FACTOR, 1e-300)

            if best_value <= target:
                terminated_by = "tolerance"
                done = True
                break
            # Micro-refinements of a frozen basin do not count as progress;
            # require a meaningful relative improvement of this run's best.
            improved = value < run_best - 1e-6 * max(abs(run_best), 1e-12)
            since_improvement = 0 if improved else since_improvement + 1
            run_best = min(run_best, value)
            if since_improvement >= _STAGNATION_WINDOW:
                if restart_index == config.restarts:
                    terminated_by = "stagnation"
                    done = True
                break  # next restart

    if best_point is None:
        raise ObjectiveError(f"no evaluated value was below +inf in {used} evaluations", last)
    return OptimizationResult(best_point, best_value, used, terminated_by)


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
    """Projected modified Newton descent with Armijo backtracking (c = 1e-4).

    Each iteration steps along -d, (H + tau I) d = g, for the objective's
    ``gradient`` g and ``hessian`` H.  Its first trial length is
    min(|d|, cap): the cap is min(|g|, 1) at the first iteration and 1.5
    times the last accepted move after it, so a near-singular H cannot
    fling the iterate across a flat valley.  A trial step is halved until
    it lowers the value enough.

    Descends until the gradient norm is at most ``tol`` ("tolerance"), the
    iteration budget runs out ("budget") or no step along the direction
    lowers the value ("line_search").  The value never increases;
    iterates stay inside the objective's bounds.  Non-finite values,
    gradients or Hessians raise RefinementError carrying the last good point.
    """
    if objective.gradient is None or objective.hessian is None:
        raise StericZipError("local_refine requires an objective gradient and hessian")
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

        hess = np.asarray(objective.hessian(x), dtype=np.float64)
        if not np.all(np.isfinite(hess)):
            raise RefinementError("non-finite Hessian", x, value)
        direction = _newton_direction(hess, grad)
        if cap is None:
            cap = min(gnorm, 1.0)
        length = float(np.linalg.norm(direction))
        step = cap / length if length > cap else 1.0
        for _halving in range(60):
            candidate = objective.clamp(x - step * direction)
            cand_value = value_at(candidate)
            if not np.isfinite(cand_value):
                raise RefinementError("non-finite value during line search", x, value)
            decrease = float(grad @ (x - candidate))
            if cand_value <= value - armijo_c * decrease and cand_value < value:
                cap = _TRUST_GROWTH * float(np.linalg.norm(candidate - x))
                x, value = candidate, cand_value
                break
            step *= 0.5
        else:
            # Line search exhausted: the projected direction yields no
            # decrease at the smallest step, though |g| is still above tol.
            terminated_by = "line_search"
            break

    return OptimizationResult(x, value, evaluations, terminated_by)
