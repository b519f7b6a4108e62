"""Benchmark problem definitions and the seeded harness."""

import numpy as np
import pytest

from lj_cluster import lj_cluster_energy
from stericzip import LJParams, SingularityError, StericZipError, run_benchmark
from stericzip import benchmarks
from stericzip.benchmarks import (
    CLASSIC_SUITE,
    REDUCED_LJ,
    ackley,
    default_bench_config,
    griewank,
    lj_cluster_value,
    rastrigin,
    rosenbrock,
    schwefel_226,
    sphere,
)
from stericzip.energy import MIN_PAIR_DISTANCE, lj_kernel, pair_indices


class TestFunctions:
    def test_known_minima_at_origin(self):
        z = np.zeros(6)
        assert sphere(z) == 0.0
        assert rastrigin(z) == 0.0
        assert ackley(z) == pytest.approx(0.0, abs=1e-12)
        assert griewank(z) == 0.0
        assert rosenbrock(np.ones(6)) == 0.0

    def test_schwefel_minimum_near_known_point(self):
        x = np.full(4, 420.9687)
        assert schwefel_226(x) == pytest.approx(0.0, abs=1e-3)

    def test_lj_cluster_triangle(self):
        edge = 2.0 ** (1.0 / 6.0)
        tri = np.array([
            0.0, 0.0, 0.0,
            edge, 0.0, 0.0,
            edge / 2, edge * np.sqrt(3) / 2, 0.0,
        ])
        assert lj_cluster_value(tri) == pytest.approx(-3.0, abs=1e-12)

    def test_lj_cluster_agrees_with_the_reference_and_floors_where_it_raises(self):
        # tests/lj_cluster.py keeps the second cluster energy as a reference.
        points = np.random.default_rng(7).uniform(-2.0, 2.0, (3, 8, 12))
        for batch in (points[0, :, :6], points[1, :, :9], points[2]):
            expected = [lj_cluster_energy(point, REDUCED_LJ) for point in batch]
            np.testing.assert_allclose(lj_cluster_value(batch), expected, rtol=1e-12, atol=1e-12)
        close = np.array([0.0, 0.0, 0.0, 0.5 * MIN_PAIR_DISTANCE, 0.0, 0.0, 3.0, 0.0, 0.0])
        with pytest.raises(SingularityError):
            lj_cluster_energy(close, LJParams(1.0, 1.0))
        at_floor = close.copy()
        at_floor[3] = MIN_PAIR_DISTANCE
        assert np.isfinite(lj_cluster_value(close))
        assert lj_cluster_value(close) == lj_cluster_value(at_floor)
        assert lj_cluster_value(at_floor) == pytest.approx(
            lj_cluster_energy(at_floor, LJParams(1.0, 1.0)), rel=1e-12
        )

    @pytest.mark.parametrize("n", [1, 2, 5, 10])
    def test_cached_constants_give_the_plain_formulas(self, n):
        def plain_griewank(x):
            i = np.arange(1, x.shape[-1] + 1, dtype=np.float64)
            return 1.0 + np.sum(x**2, axis=-1) / 4000.0 - np.prod(np.cos(x / np.sqrt(i)), axis=-1)

        def plain_cluster(x):
            pts = x.reshape(*x.shape[:-1], -1, 3)
            i, j = np.triu_indices(pts.shape[-2], k=1)
            diff = pts[..., i, :] - pts[..., j, :]
            return np.sum(lj_kernel(np.sum(diff * diff, axis=-1), REDUCED_LJ), axis=-1) - i.size

        rng = np.random.default_rng(n)
        x, points = rng.uniform(-600.0, 600.0, (64, n)), rng.uniform(-2.0, 2.0, (64, 3 * (n + 1)))
        for _ in range(2):  # the second call reads the cache
            for batch in (x, x[0]):
                assert np.array_equal(griewank(batch), plain_griewank(batch))
            for batch in (points, points[0]):
                assert np.array_equal(lj_cluster_value(batch), plain_cluster(batch))
        assert not any(a.flags.writeable for a in (benchmarks._griewank_roots(n), *pair_indices(n + 1)))

    def test_batch_shapes(self):
        pts = np.zeros((7, 5))
        for f in (sphere, rastrigin, ackley, griewank, rosenbrock, schwefel_226):
            assert f(pts).shape == (7,)

    def test_suite_contents(self):
        assert set(CLASSIC_SUITE) == {
            "sphere", "rosenbrock", "rastrigin", "ackley", "griewank",
            "schwefel_226", "lj_cluster_n3", "lj_cluster_n4",
        }


class TestHarness:
    def test_unknown_suite(self):
        with pytest.raises(StericZipError):
            run_benchmark("fancy", runs=1)

    def test_bad_runs(self):
        with pytest.raises(StericZipError):
            run_benchmark("classic", runs=0)

    def test_report_shape_and_determinism(self):
        cfg = default_bench_config(20_000)
        a = run_benchmark("classic", dims=(2,), runs=2, config=cfg, seed=5)
        b = run_benchmark("classic", dims=(2,), runs=2, config=cfg, seed=5)
        assert a == b
        assert a["suite"] == "classic"
        assert a["seed"] == 5
        # 6 dimensioned problems at one dim + 2 fixed-dimension clusters
        assert len(a["cells"]) == 8
        for cell in a["cells"]:
            for key in ("problem", "dim", "runs", "target", "success_rate",
                        "success_threshold", "best", "median_evals", "passed"):
                assert key in cell

    def test_lj_cells_use_fixed_dims(self):
        cfg = default_bench_config(20_000)
        report = run_benchmark("classic", dims=(2, 5), runs=1, config=cfg, seed=1)
        dims = {c["problem"]: c["dim"] for c in report["cells"] if c["problem"].startswith("lj")}
        assert dims == {"lj_cluster_n3": 9, "lj_cluster_n4": 12}

    def test_lj_cells_reach_targets(self):
        report = run_benchmark("classic", dims=(2,), runs=3, seed=0)
        cells = {c["problem"]: c for c in report["cells"]}
        assert cells["lj_cluster_n3"]["best"] == pytest.approx(-3.0, abs=1e-3)
        assert cells["lj_cluster_n4"]["best"] == pytest.approx(-6.0, abs=1e-3)
