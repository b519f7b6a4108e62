"""Global optimizer behavior: convergence, determinism, invariants, refiner."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from lj_cluster import lj_cluster_energy, lj_cluster_gradient
from numpy1 import numpy_1

from stericzip import (
    Objective,
    OptimizerConfig,
    RefinementError,
    StericZipError,
    local_refine,
    minimize_saec,
    uniform_bounds,
)

R_MIN_FACTOR = 2.0 ** (1.0 / 6.0)


def quadratic_objective():
    return Objective(
        dimension=1,
        evaluate=lambda x: float((x[0] - 3.0) ** 2),
        evaluate_batch=lambda pts: (pts[:, 0] - 3.0) ** 2,
        gradient=lambda x: np.array([2.0 * (x[0] - 3.0)]),
        hessian=lambda x: np.array([[2.0]]),
        bounds=uniform_bounds(-10.0, 10.0, 1),
    )


def rastrigin_objective(n):
    def batch(pts):
        return 10.0 * n + np.sum(pts**2 - 10.0 * np.cos(2 * np.pi * pts), axis=-1)

    return Objective(
        dimension=n,
        evaluate=lambda x: float(batch(np.atleast_2d(x))[0]),
        evaluate_batch=batch,
        bounds=uniform_bounds(-5.12, 5.12, n),
    )


def lj_objective(n_atoms):
    dim = 3 * n_atoms

    def evaluate(x):
        return lj_cluster_energy(np.asarray(x), LJ_REDUCED)

    return Objective(
        dimension=dim,
        evaluate=evaluate,
        gradient=lambda x: lj_cluster_gradient(np.asarray(x), LJ_REDUCED),
        hessian=lj_cluster_hessian,
        bounds=uniform_bounds(-2.0, 2.0, dim),
    )


def lj_cluster_hessian(x):
    """Sum over i < j of each pair's (V'/r) I + ((V'' - V'/r) / r^2) d d^T, placed in +/- blocks."""
    pts = np.asarray(x, dtype=np.float64).reshape(-1, 3)
    n = len(pts)
    hess = np.zeros((n, 3, n, 3))
    for i, j in zip(*np.triu_indices(n, k=1)):
        diff = pts[i] - pts[j]
        _, coeff, curvature = lj_kernel(diff @ diff, LJ_REDUCED, with_curvature=True)
        block = coeff * np.eye(3) + curvature * np.outer(diff, diff)
        hess[i, :, i] += block
        hess[j, :, j] += block
        hess[i, :, j] -= block
        hess[j, :, i] -= block
    return hess.reshape(3 * n, 3 * n)


from stericzip import LJParams
from stericzip.energy import lj_kernel
from stericzip.benchmarks import CLASSIC_SUITE
from stericzip import optimize
from stericzip.optimize import _index, _newton_direction, _select, _spawn_offspring

LJ_REDUCED = LJParams(1.0, 1.0)


class TestMinimize:
    def test_quadratic(self):
        cfg = OptimizerConfig(max_evaluations=30_000, seed=123)
        result = minimize_saec(quadratic_objective(), cfg)
        assert result.best_value <= 1e-8
        assert abs(result.best_point[0] - 3.0) <= 1e-4

    def test_rastrigin_2d(self):
        cfg = OptimizerConfig(max_evaluations=100_000, seed=7,
                              target_value=0.0, target_tolerance=1e-4)
        result = minimize_saec(rastrigin_objective(2), cfg)
        assert result.best_value <= 1e-4

    def test_lj_triangle(self):
        # The SAEC may draw any point in bounds, so its objective floors pair
        # distances as the benchmark cluster does; lj_cluster_energy raises.
        cfg = OptimizerConfig(max_evaluations=100_000, seed=5,
                              target_value=-3.0, target_tolerance=1e-3)
        result = minimize_saec(CLASSIC_SUITE["lj_cluster_n3"].make_objective(9), cfg)
        assert result.best_value == pytest.approx(-3.0, abs=1e-3)

    def test_deterministic_bit_for_bit(self):
        cfg = OptimizerConfig(max_evaluations=20_000, seed=42)
        a = minimize_saec(rastrigin_objective(3), cfg)
        b = minimize_saec(rastrigin_objective(3), cfg)
        assert np.array_equal(a.best_point, b.best_point)
        assert a.best_value == b.best_value
        assert a.evaluations_used == b.evaluations_used
        assert a.terminated_by == b.terminated_by

    def test_within_bounds_and_budget(self):
        obj = rastrigin_objective(5)
        cfg = OptimizerConfig(max_evaluations=7_000, seed=1)
        result = minimize_saec(obj, cfg)
        assert result.evaluations_used <= cfg.max_evaluations
        assert np.all(result.best_point >= obj.lower)
        assert np.all(result.best_point <= obj.upper)

    def test_x0_at_optimum_is_kept(self):
        # Contact-style objective: a degenerate sphere of minima, so only
        # the seeded start guarantees zero displacement.
        anchors = np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0]])
        x0 = np.array([0.0, R_MIN_FACTOR, 0.0, 10.0, R_MIN_FACTOR, 0.0])

        def batch(pts):
            free = pts.reshape(len(pts), 2, 3)
            r = np.linalg.norm(free - anchors, axis=2)
            s6 = (1.0 / r) ** 6
            return np.sum(4.0 * s6 * (s6 - 1.0), axis=1)

        obj = Objective(
            dimension=6,
            evaluate=lambda x: float(batch(np.atleast_2d(x))[0]),
            evaluate_batch=batch,
            bounds=np.column_stack([x0 - 8, x0 + 8]),
        )
        cfg = OptimizerConfig(max_evaluations=20_000, seed=3,
                              target_value=-2.0, target_tolerance=1e-9)
        result = minimize_saec(obj, cfg, x0=x0)
        assert result.terminated_by == "tolerance"
        assert np.array_equal(result.best_point, x0)

    def test_invalid_config(self):
        with pytest.raises(StericZipError):
            OptimizerConfig(population_size=0)
        with pytest.raises(StericZipError):
            OptimizerConfig(max_evaluations=3, population_size=10)

    @pytest.mark.parametrize(
        "knob, value, named",
        [
            ("target_value", float("nan"), "target_value must be finite"),
            ("target_value", -float("inf"), "target_value must be finite"),
            ("target_tolerance", float("nan"), "target_tolerance must be finite and >= 0"),
            ("target_tolerance", -1.0, "target_tolerance must be finite and >= 0"),
            ("seed", -1, "seed must be an integer >= 0, got -1"),
        ],
    )
    def test_non_finite_knobs_rejected(self, knob, value, named):
        with pytest.raises(StericZipError, match=named):
            OptimizerConfig(**{knob: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 2.5, True])
    @pytest.mark.parametrize("name", ["population_size", "max_evaluations", "restarts", "seed"])
    def test_integer_fields_must_be_integers(self, name, value):
        with pytest.raises(StericZipError, match=f"^{name} must be an integer"):
            OptimizerConfig(**{name: value})

    def test_numpy_integers_are_stored_as_int(self):
        cfg = OptimizerConfig(population_size=np.int64(10), max_evaluations=np.int32(500), seed=np.uint8(3))
        assert [type(v) for v in (cfg.population_size, cfg.max_evaluations, cfg.seed)] == [int] * 3
        assert (cfg.population_size, cfg.max_evaluations, cfg.seed) == (10, 500, 3)

    def test_objective_failure_carries_point(self):
        def boom(x):
            raise ValueError("bad point")

        obj = Objective(dimension=1, evaluate=boom, bounds=uniform_bounds(0, 1, 1))
        cfg = OptimizerConfig(max_evaluations=100, population_size=2)
        from stericzip import ObjectiveError

        with pytest.raises(ObjectiveError) as err:
            minimize_saec(obj, cfg)
        assert err.value.point is not None


    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # inf - inf
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_no_value_below_infinity_is_an_objective_error(self, value):
        batches = []

        def flat(points):
            batches.append(points)
            return np.full(len(points), value)

        obj = Objective(dimension=2, evaluate=lambda x: value, evaluate_batch=flat, bounds=uniform_bounds(-1, 1, 2))
        from stericzip import ObjectiveError

        with pytest.raises(ObjectiveError, match=r"^no evaluated value was below \+inf in 184 evaluations$") as err:
            minimize_saec(obj, OptimizerConfig(population_size=4, max_evaluations=200, restarts=1))
        assert err.value.point is batches[-1] and err.value.point.shape == (20, 2)

    def test_infinite_values_leave_the_start_temperature_finite(self):
        # One +inf in the first population made T0 +inf, so every annealed
        # Gaussian offspring was NaN (inf / inf) and the run warned 38 times.
        def walled(points):
            return np.where(points[:, 0] > 0.5, np.inf, np.sum(points**2, axis=1))

        obj = Objective(dimension=2, evaluate=lambda x: float(walled(x[None])[0]), evaluate_batch=walled,
                        bounds=uniform_bounds(-1, 1, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = minimize_saec(obj, OptimizerConfig(population_size=20, max_evaluations=2_000, seed=0))
        assert np.isfinite(result.best_value) and result.best_point[0] <= 0.5


def sphere_objective(n):
    return Objective(
        dimension=n,
        evaluate=lambda x: float(np.sum(x**2)),
        evaluate_batch=lambda pts: np.sum(pts**2, axis=1),
        gradient=lambda x: 2.0 * x,
        hessian=lambda x: 2.0 * np.eye(n),
        bounds=uniform_bounds(-1.0, 1.0, n),
    )


# A generation from an interior population of 50 chains in 10 dimensions with
# unequal spans; the step is 1e-3 of the span unless a test widens it.
LOWER, UPPER = -np.arange(1.0, 11.0), np.full(10, 4.0)


class CountingGenerator:
    """A seeded generator that records the name and size of each draw."""

    def __init__(self, seed):
        self.rng, self.draws = np.random.default_rng(seed), []

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def draw(size):
            self.draws.append((name, size))
            return method(size)

        return draw


def generation(seed, step=1e-3, rng=None):
    """(parents, offspring, allowance, move) of one generation; ``move`` is its first draw."""
    span = UPPER - LOWER
    pop = LOWER + (0.25 + 0.5 * np.random.default_rng(seed + 1).random((50, 10))) * span
    rng = rng or np.random.default_rng(seed)
    offspring, allowance = _spawn_offspring(pop, 5, rng, LOWER, UPPER, span, step * span)
    return np.repeat(pop, 5, axis=0), offspring, allowance, np.random.default_rng(seed).random(250)


class TestGeneration:
    def test_move_kinds_take_their_shares(self):
        kinds = []
        for seed in range(200):
            parents, offspring, allowance, _ = generation(seed)
            changed = (offspring != parents).sum(axis=1)
            kinds.append(np.select([allowance == 0, changed == 10, changed == 1, changed == 2], [3, 0, 1, 2], 4))
        shares = np.bincount(np.concatenate(kinds), minlength=5) / 50_000
        # A pair move whose two coordinates coincide (1 in n) changes one coordinate.
        assert np.allclose(shares, [0.50, 0.25 + 0.10 / 10, 0.10 * (1 - 1 / 10), 0.15, 0.0], rtol=0, atol=0.01)

    @pytest.mark.parametrize("seed", range(5))
    def test_each_move_changes_what_it_moves(self, seed):
        parents, offspring, allowance, move = generation(seed)
        changed = (offspring != parents).sum(axis=1)
        assert (changed[move < 0.50] == 10).all()
        assert (changed[(move >= 0.50) & (move < 0.75)] == 1).all()
        assert np.isin(changed[(move >= 0.75) & (move < 0.85)], [1, 2]).all()
        assert (allowance[move >= 0.85] == 0).all() and (allowance[move < 0.85] > 0).all()

    @pytest.mark.parametrize("seed", range(5))
    def test_draws_three_blocks_and_no_unused_normal(self, seed):
        rng = CountingGenerator(seed)
        parents, offspring, _, move = generation(seed, rng=rng)
        assert [name for name, _ in rng.draws] == ["random", "random", "standard_normal"]
        coordinate, pair, mixed = (move >= 0.50) & (move < 0.85), (move >= 0.75) & (move < 0.85), move >= 0.85
        # Uniforms: acceptance, coordinates and log-scale, recombination.
        assert rng.draws[1][1] == (~mixed).sum() + 2 * coordinate.sum() + pair.sum() + 15 * mixed.sum()
        assert rng.draws[2][1] == 10 * (~coordinate).sum() + (offspring != parents)[coordinate].sum()

    @pytest.mark.parametrize("seed", range(10))
    def test_offspring_stay_in_bounds(self, seed):
        # Steps ten times the span push most moved coordinates past a bound.
        _, offspring, _, _ = generation(seed, step=10.0)
        assert ((offspring >= LOWER) & (offspring <= UPPER)).all()
        assert (offspring == LOWER).any() and (offspring == UPPER).any()

    def test_index_draw_stays_below_its_bound(self):
        top = np.nextafter(1.0, 0.0)
        bounds = np.concatenate([np.arange(1, 100_001), 2 ** np.arange(53), 2 ** np.arange(1, 53) - 1])
        assert np.array_equal(_index(np.full(bounds.size, top), bounds), bounds - 1)
        assert np.array_equal(_index(np.zeros(3), 7), np.zeros(3))

    def test_recombination_is_never_accepted_uphill(self):
        parents, offspring, allowance, move = generation(3)
        pop, values, mixed = parents[::5], np.zeros(50), move >= 0.85
        hot = 1e300  # any thermal offspring would be accepted uphill
        for uphill in (1e-12, 1.0):
            kept = _select(pop, values, offspring, np.where(mixed, uphill, np.inf), allowance, hot)
            assert np.array_equal(kept[0], pop) and np.array_equal(kept[1], values)
        # Downhill they are accepted, and thermal offspring uphill too.
        _, taken = _select(pop, values, offspring, np.where(mixed, -1.0, np.inf), allowance, hot)
        assert np.array_equal(taken, np.where(mixed.reshape(50, 5).any(axis=1), -1.0, 0.0))
        _, taken = _select(pop, values, offspring, np.where(mixed, np.inf, 1.0), allowance, hot)
        assert np.array_equal(taken, np.where((~mixed).reshape(50, 5).any(axis=1), 1.0, 0.0))

    def test_each_restart_first_draws_its_population(self):
        # A flat objective stagnates, so every restart runs; populations are
        # the batches of mu points, offspring come mu * 5 at a time.
        batches = []

        def flat(points):
            batches.append(points.copy())
            return np.zeros(len(points))

        objective = Objective(dimension=3, evaluate=lambda x: 0.0, evaluate_batch=flat,
                              bounds=uniform_bounds(-1.0, 2.0, 3))
        result = minimize_saec(objective, OptimizerConfig(population_size=4, restarts=2, seed=7))
        starts = [points for points in batches if len(points) == 4]
        assert result.terminated_by == "stagnation" and len(starts) == 3
        for points, stream in zip(starts, np.random.SeedSequence(7).spawn(3)):
            assert np.array_equal(points, -1.0 + np.random.default_rng(stream).random((4, 3)) * 3.0)

    def test_runs_with_the_numpy_1_api(self, monkeypatch):
        config = OptimizerConfig(max_evaluations=5_000, seed=4)
        expected = minimize_saec(rastrigin_objective(3), config)
        monkeypatch.setattr(optimize, "np", numpy_1)
        result = minimize_saec(rastrigin_objective(3), config)
        assert np.array_equal(result.best_point, expected.best_point)
        assert result.best_value == expected.best_value
        assert result.evaluations_used == expected.evaluations_used
        assert result.terminated_by == expected.terminated_by


class TestStartPointShape:
    # Clamping broadcasts x0 to the bounds' shape, so a scalar or short x0
    # used to become a silent n-vector (or a raw numpy error in the search).
    @pytest.mark.parametrize("x0", [0.5, np.array([0.5]), np.array([0.5, 0.5])])
    def test_local_refine_rejects_wrong_shape(self, x0):
        with pytest.raises(StericZipError, match="3-vector"):
            local_refine(sphere_objective(3), x0)

    @pytest.mark.parametrize("x0", [0.5, np.array([0.5]), np.array([0.5, 0.5])])
    def test_minimize_saec_rejects_wrong_shape(self, x0):
        cfg = OptimizerConfig(max_evaluations=200, seed=0)
        with pytest.raises(StericZipError, match="3-vector"):
            minimize_saec(sphere_objective(3), cfg, x0=x0)

    def test_out_of_bounds_start_is_clamped(self):
        result = local_refine(sphere_objective(3), np.array([5.0, -5.0, 0.5]), max_iters=0)
        assert np.array_equal(result.best_point, [1.0, -1.0, 0.5])


class TestLocalRefine:
    def test_lj_pair_from_stretched_start(self):
        obj = lj_objective(2)
        x0 = np.array([0.0, 0.0, 0.0, 1.5, 0.0, 0.0])
        result = local_refine(obj, x0, tol=1e-10, max_iters=500)
        distance = np.linalg.norm(result.best_point[3:] - result.best_point[:3])
        assert distance == pytest.approx(R_MIN_FACTOR, rel=1e-6)
        assert result.best_value == pytest.approx(-1.0, abs=1e-6)

    def test_stationary_start_returns_immediately(self):
        obj = quadratic_objective()
        result = local_refine(obj, np.array([3.0]), tol=1e-8)
        assert result.best_value == 0.0
        assert result.terminated_by == "tolerance"
        # one evaluation for the start, none beyond the gradient check
        assert result.evaluations_used == 1

    def test_exhausted_line_search_is_reported(self):
        # Near x = 3 the offset swamps the quadratic: |g| = 2e-6 is far above
        # tol, but no step changes the rounded value, so the search gives up.
        obj = Objective(
            dimension=1,
            evaluate=lambda x: float((x[0] - 3.0) ** 2 + 1e6),
            gradient=lambda x: np.array([2.0 * (x[0] - 3.0)]),
            hessian=lambda x: np.array([[2.0]]),
            bounds=uniform_bounds(-10.0, 10.0, 1),
        )
        result = local_refine(obj, np.array([3.000001]), tol=1e-12)
        assert result.terminated_by == "line_search"
        assert result.best_point[0] == 3.000001
        assert result.evaluations_used == 61

    def test_quadratic_descends_from_anywhere(self):
        obj = quadratic_objective()
        for start in (-9.0, -1.0, 0.5, 8.0):
            result = local_refine(obj, np.array([start]), tol=1e-9)
            assert result.best_value <= (start - 3.0) ** 2
            assert abs(2.0 * (result.best_point[0] - 3.0)) <= 1e-9

    def test_non_finite_raises_with_last_point(self):
        def evaluate(x):
            return float("nan") if x[0] > 0.5 else float(x[0] ** 2)

        obj = Objective(
            dimension=1,
            evaluate=evaluate,
            gradient=lambda x: np.array([-1.0]),  # pushes x upward into the nan region
            hessian=lambda x: np.zeros((1, 1)),
            bounds=uniform_bounds(-1.0, 1.0, 1),
        )
        with pytest.raises(RefinementError) as err:
            local_refine(obj, np.array([0.4]), tol=1e-12)
        assert err.value.last_point is not None

    @pytest.mark.parametrize("missing", ["gradient", "hessian"])
    def test_gradient_and_hessian_required(self, missing):
        obj = replace(quadratic_objective(), **{missing: None})
        with pytest.raises(StericZipError, match="requires an objective gradient and hessian"):
            local_refine(obj, np.array([0.5]))


def doubling_direction(hess, grad):
    """Reference: the plain shift doubling, trying every tau = 0, beta, 2 beta, ..."""
    beta = 1e-3 * float(np.linalg.norm(hess)) or 1.0
    shift = 0.0
    while True:
        try:
            lower = np.linalg.cholesky(hess + shift * np.eye(len(grad)))
            return np.linalg.solve(lower.T, np.linalg.solve(lower, grad))
        except np.linalg.LinAlgError:
            shift = max(2.0 * shift, beta)


@pytest.mark.parametrize("seed, kind", enumerate(["indefinite", "singular", "near_singular", "definite", "zero"]))
def test_newton_direction_matches_the_plain_doubling(seed, kind):
    # Skipping the shifts that leave the least eigenvalue clearly negative
    # must not change the first shift that factorises, so not one bit of d.
    rng = np.random.default_rng(seed)
    for _ in range(50):
        rotation = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        eigenvalues = {
            "indefinite": rng.uniform(0.01, 1, 3) * [-1.0, 1.0, rng.choice([-1.0, 1.0])],
            "singular": [0.0, *rng.uniform(-1, 1, 2)],
            "near_singular": [rng.choice([-1, 1]) * 10.0 ** rng.uniform(-16, -8), *rng.uniform(-1, 1, 2)],
            "definite": rng.uniform(0.1, 1, 3) * rng.choice([-1, 1]),
            "zero": [0.0, 0.0, 0.0],
        }[kind]
        hess = 10.0 ** rng.uniform(-6, 6) * (rotation * eigenvalues) @ rotation.T
        hess = (hess + hess.T) / 2
        grad = rng.normal(size=3)
        assert np.array_equal(_newton_direction(hess, grad), doubling_direction(hess, grad))


class TestNewtonRefine:
    def test_quadratic_converges_in_few_steps(self):
        # f = (x - a)^T A (x - a) with a badly scaled A: steepest descent
        # zigzags for about 1,000 steps, while the Newton step, shorter than
        # its first cap of 1, lands on a at once.
        matrix = np.array([[100.0, 3.0, 0.0], [3.0, 1.0, 0.5], [0.0, 0.5, 10.0]])
        target = np.array([0.7, -0.4, 0.2])
        obj = Objective(
            dimension=3,
            evaluate=lambda x: float((x - target) @ matrix @ (x - target)),
            gradient=lambda x: 2.0 * matrix @ (x - target),
            hessian=lambda x: 2.0 * matrix,
            bounds=uniform_bounds(-1.0, 1.0, 3),
        )
        result = local_refine(obj, np.zeros(3), tol=1e-10)
        assert result.terminated_by == "tolerance"
        assert np.allclose(result.best_point, target, rtol=0, atol=1e-12)
        assert result.evaluations_used == 2

    def test_descends_from_a_saddle_region(self):
        # f = x^2 + (y^2 - 1)^2 has an indefinite Hessian near y = 0, so the
        # shifted Cholesky step is what points the descent downhill.  The
        # gradient is taken once per iterate, so it records the path.
        iterates = []

        def gradient(p):
            iterates.append(p.copy())
            return np.array([2.0 * p[0], 4.0 * p[1] * (p[1] ** 2 - 1.0)])

        obj = Objective(
            dimension=2,
            evaluate=lambda p: float(p[0] ** 2 + (p[1] ** 2 - 1.0) ** 2),
            gradient=gradient,
            hessian=lambda p: np.diag([2.0, 12.0 * p[1] ** 2 - 4.0]),
            bounds=uniform_bounds(-3.0, 3.0, 2),
        )
        result = local_refine(obj, np.array([0.3, 1e-3]), tol=1e-10)
        assert result.terminated_by == "tolerance"
        assert np.allclose(result.best_point, [0.0, 1.0], rtol=0, atol=1e-10)
        values = [obj.evaluate(p) for p in iterates]
        assert values[-1] == result.best_value and all(b < a for a, b in zip(values, values[1:]))

    def test_zero_hessian_steps_along_the_gradient_to_the_bound(self):
        obj = Objective(
            dimension=1,
            evaluate=lambda x: float(x[0]),
            gradient=lambda x: np.array([1.0]),
            hessian=lambda x: np.zeros((1, 1)),
            bounds=uniform_bounds(-2.0, 2.0, 1),
        )
        result = local_refine(obj, np.array([1.5]), tol=1e-10)
        assert result.best_point[0] == -2.0
        assert result.terminated_by == "line_search"

    def test_non_finite_hessian_raises_with_last_point(self):
        obj = Objective(
            dimension=1,
            evaluate=lambda x: float(x[0] ** 2),
            gradient=lambda x: 2.0 * x,
            hessian=lambda x: np.array([[np.nan]]),
            bounds=uniform_bounds(-1.0, 1.0, 1),
        )
        with pytest.raises(RefinementError, match="non-finite Hessian") as err:
            local_refine(obj, np.array([0.4]))
        assert np.array_equal(err.value.last_point, [0.4])
