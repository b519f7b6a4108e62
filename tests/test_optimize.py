"""Global optimizer behavior: convergence, determinism, invariants, refiner."""

import numpy as np
import pytest

from stericzip import (
    Objective,
    OptimizerConfig,
    RefinementError,
    StericZipError,
    local_refine,
    lj_cluster_energy,
    lj_cluster_gradient,
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


def lj_objective(n_atoms, pairs=None):
    dim = 3 * n_atoms

    def evaluate(x):
        return lj_cluster_energy(np.asarray(x), LJ_REDUCED, pairs=pairs)

    return Objective(
        dimension=dim,
        evaluate=evaluate,
        gradient=lambda x: lj_cluster_gradient(np.asarray(x), LJ_REDUCED, pairs=pairs),
        bounds=uniform_bounds(-2.0, 2.0, dim),
    )


from stericzip import LJParams

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
        cfg = OptimizerConfig(max_evaluations=100_000, seed=5,
                              target_value=-3.0, target_tolerance=1e-3)
        result = minimize_saec(lj_objective(3), cfg)
        assert result.best_value == pytest.approx(-3.0, abs=1e-3)

    def test_deterministic_bit_for_bit(self):
        cfg = OptimizerConfig(max_evaluations=20_000, seed=42)
        a = minimize_saec(rastrigin_objective(3), cfg)
        b = minimize_saec(rastrigin_objective(3), cfg)
        assert np.array_equal(a.best_point, b.best_point)
        assert a.best_value == b.best_value
        assert a.trace == b.trace
        assert a.evaluations_used == b.evaluations_used
        assert a.terminated_by == b.terminated_by

    def test_trace_monotone_non_increasing(self):
        cfg = OptimizerConfig(max_evaluations=20_000, seed=9)
        result = minimize_saec(rastrigin_objective(4), cfg)
        values = [v for _, v in result.trace]
        assert all(b <= a for a, b in zip(values, values[1:]))
        assert result.best_value == values[-1]

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
            OptimizerConfig(cooling_factor=1.5)
        with pytest.raises(StericZipError):
            OptimizerConfig(population_size=0)
        with pytest.raises(StericZipError):
            OptimizerConfig(max_evaluations=3, population_size=10)

    @pytest.mark.parametrize(
        "knob, value, named",
        [
            ("step_scale", float("nan"), "step_scale must be finite and positive"),
            ("step_scale", float("inf"), "step_scale must be finite and positive"),
            ("initial_temperature", float("nan"), "initial_temperature must be finite and positive"),
            ("initial_temperature", float("inf"), "initial_temperature must be finite and positive"),
            ("target_value", float("nan"), "target_value must be finite"),
            ("target_value", -float("inf"), "target_value must be finite"),
            ("target_tolerance", float("nan"), "target_tolerance must be finite and >= 0"),
            ("target_tolerance", -1.0, "target_tolerance must be finite and >= 0"),
        ],
    )
    def test_non_finite_knobs_rejected(self, knob, value, named):
        with pytest.raises(StericZipError, match=named):
            OptimizerConfig(**{knob: value})

    def test_objective_failure_carries_point(self):
        def boom(x):
            raise ValueError("bad point")

        obj = Objective(dimension=1, evaluate=boom, bounds=uniform_bounds(0, 1, 1))
        cfg = OptimizerConfig(max_evaluations=100, population_size=2)
        from stericzip import ObjectiveError

        with pytest.raises(ObjectiveError) as err:
            minimize_saec(obj, cfg)
        assert err.value.point is not None


def sphere_objective(n):
    return Objective(
        dimension=n,
        evaluate=lambda x: float(np.sum(x**2)),
        evaluate_batch=lambda pts: np.sum(pts**2, axis=1),
        gradient=lambda x: 2.0 * x,
        bounds=uniform_bounds(-1.0, 1.0, n),
    )


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

    def test_quadratic_descends_from_anywhere(self):
        obj = quadratic_objective()
        for start in (-9.0, -1.0, 0.5, 8.0):
            result = local_refine(obj, np.array([start]), tol=1e-9)
            assert result.best_value <= (start - 3.0) ** 2
            assert abs(2.0 * (result.best_point[0] - 3.0)) <= 1e-9

    def test_value_non_increasing_along_trace(self):
        obj = lj_objective(2)
        result = local_refine(obj, np.array([0, 0, 0, 1.4, 0.2, -0.1]), tol=1e-9)
        values = [v for _, v in result.trace]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_non_finite_raises_with_last_point(self):
        def evaluate(x):
            return float("nan") if x[0] > 0.5 else float(x[0] ** 2)

        obj = Objective(
            dimension=1,
            evaluate=evaluate,
            gradient=lambda x: np.array([-1.0]),  # pushes x upward into the nan region
            bounds=uniform_bounds(-1.0, 1.0, 1),
        )
        with pytest.raises(RefinementError) as err:
            local_refine(obj, np.array([0.4]), tol=1e-12)
        assert err.value.last_point is not None

    def test_gradient_required(self):
        obj = Objective(dimension=1, evaluate=lambda x: 0.0, bounds=uniform_bounds(0, 1, 1))
        with pytest.raises(StericZipError):
            local_refine(obj, np.array([0.5]))
