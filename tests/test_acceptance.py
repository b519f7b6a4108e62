"""Acceptance gate: every release criterion with its stated tolerance.

Each test prints one PASS line (visible with ``pytest -s``) including its
wall time, and asserts both the numeric criterion and its runtime budget.
"""

import time

import numpy as np

from stericzip import (
    FibrilSpec,
    HBParams,
    LJParams,
    OptimizerConfig,
    RigidTransform,
    atom_row,
    build_fibril_model,
    hb_pair_energy,
    lj_cluster_energy,
    lj_cluster_gradient,
    lj_pair_energy,
    minimize_saec,
    parse_pdb,
    run_benchmark,
    solve_contact_placement,
    synthetic_template,
    uniform_bounds,
    write_pdb,
)
from stericzip.benchmarks import CLASSIC_SUITE, default_bench_config
from stericzip.optimize import Objective
from stericzip.template import INTRA_SHEET_STEP, SHEET_FLIP_ROTATION

R_MIN_FACTOR = 2.0 ** (1.0 / 6.0)


class Stopwatch:
    def __init__(self, label, limit_s):
        self.label = label
        self.limit = limit_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            status = "PASS" if elapsed < self.limit else "FAIL (overtime)"
            print(f"{status}  {self.label}  ({elapsed:.2f} s, limit {self.limit:g} s)")
            assert elapsed < self.limit, f"{self.label}: runtime {elapsed:.2f}s over {self.limit}s"
        else:
            print(f"FAIL  {self.label}  ({elapsed:.2f} s)")
        return False


def golden_section_argmin(f, lo, hi, iterations=160):
    lo, hi = np.longdouble(lo), np.longdouble(hi)
    invphi = (np.longdouble(5.0) ** np.longdouble(0.5) - 1) / 2
    a, b = lo, hi
    c = b - (b - a) * invphi
    d = a + (b - a) * invphi
    fc, fd = f(c), f(d)
    for _ in range(iterations):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - (b - a) * invphi
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + (b - a) * invphi
            fd = f(d)
    return float((a + b) / 2)


def test_lj_pair_analytics():
    with Stopwatch("LJ pair analytics: zero at sigma, well depth, golden-section argmin", 1.0):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            eps = float(rng.uniform(0.1, 10.0))
            sigma = float(rng.uniform(0.5, 10.0))
            p = LJParams(eps, sigma)
            assert abs(lj_pair_energy(sigma, p)) <= 1e-12
            assert abs(lj_pair_energy(R_MIN_FACTOR * sigma, p) + eps) <= 1e-12

            def well(r, eps=eps, sigma=sigma):
                s6 = (np.longdouble(sigma) / r) ** 6
                return 4 * np.longdouble(eps) * (s6 * s6 - s6)

            r_star = golden_section_argmin(well, 0.9 * sigma, 2.0 * sigma)
            assert abs(r_star - R_MIN_FACTOR * sigma) <= 1e-9 * sigma


def test_hb_pair_analytics():
    with Stopwatch("HB pair analytics: stationary point and closed-form value", 1.0):
        rng = np.random.default_rng(2025)
        for _ in range(100):
            c = float(rng.uniform(0.1, 10.0))
            d = float(rng.uniform(0.1, 10.0))
            p = HBParams(c, d)
            r0 = np.sqrt(6.0 * c / (5.0 * d))
            closed_form = -(1.0 / 6.0) * d / r0**10

            def well(r, c=c, d=d):
                return np.longdouble(c) / r**12 - np.longdouble(d) / r**10

            r_star = golden_section_argmin(well, 0.7 * r0, 1.6 * r0)
            assert abs(r_star - r0) <= 1e-9 * r0
            assert abs(hb_pair_energy(r0, p) - closed_form) <= 1e-9 * abs(closed_form)


def test_cluster_gradient_against_finite_differences():
    with Stopwatch("Cluster gradient vs central finite differences (100 configurations)", 5.0):
        rng = np.random.default_rng(99)
        params = LJParams(1.0, 1.0)
        h = 1e-6
        for _ in range(100):
            n = int(rng.integers(2, 9))
            pts = []
            while len(pts) < n:
                cand = rng.uniform(0.0, 2.5, 3)
                if all(np.linalg.norm(cand - q) >= 0.9 for q in pts):
                    pts.append(cand)
            flat = np.array(pts).reshape(-1)
            analytic = lj_cluster_gradient(flat, params)
            numeric = np.zeros_like(flat)
            for i in range(flat.size):
                plus, minus = flat.copy(), flat.copy()
                plus[i] += h
                minus[i] -= h
                numeric[i] = (
                    lj_cluster_energy(plus, params) - lj_cluster_energy(minus, params)
                ) / (2 * h)
            rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(analytic), 1e-12)
            assert rel <= 1e-6


def test_optimizer_reaches_small_cluster_minima():
    with Stopwatch("Optimizer oracle: LJ clusters N=2,3,4 reach -1/-3/-6 (20 seeds, >=95%)", 30.0):
        from stericzip.benchmarks import lj_cluster_value

        params = LJParams(1.0, 1.0)
        for n_atoms, target in ((2, -1.0), (3, -3.0), (4, -6.0)):
            dim = 3 * n_atoms
            successes = 0
            for seed in range(20):
                objective = Objective(
                    dimension=dim,
                    evaluate=lambda x: float(lj_cluster_value(x)),
                    evaluate_batch=lj_cluster_value,
                    bounds=uniform_bounds(-2.0, 2.0, dim),
                )
                cfg = OptimizerConfig(
                    max_evaluations=100_000,
                    population_size=50,
                    restarts=20,
                    seed=seed,
                    target_value=target,
                    target_tolerance=1e-3,
                )
                result = minimize_saec(objective, cfg)
                # cross-check the guarded surface against the strict sum
                strict = lj_cluster_energy(result.best_point, params)
                assert abs(strict - result.best_value) <= 1e-9
                successes += result.best_value <= target + 1e-3
            assert successes >= 19, f"N={n_atoms}: {successes}/20"


def test_benchmark_suite_success_rates():
    with Stopwatch(
        "Benchmark battery: sphere/rastrigin/ackley/griewank n=2,5,10 at >=90% of 30 runs", 300.0
    ):
        report = run_benchmark("classic", dims=(2, 5, 10), runs=30,
                               config=default_bench_config(), seed=0)
        cells = {(c["problem"], c["dim"]): c for c in report["cells"]}
        for problem in ("sphere", "rastrigin", "ackley", "griewank"):
            tolerance = CLASSIC_SUITE[problem].tolerance
            assert tolerance <= 1e-4
            for dim in (2, 5, 10):
                cell = cells[(problem, dim)]
                assert cell["success_rate"] >= 0.90, f"{problem} n={dim}: {cell['success_rate']}"
                assert cell["median_evals"] <= 200_000
        assert report["max_evaluations"] == 200_000
        assert report["all_passed"]


def test_synthetic_two_anchor_placement():
    with Stopwatch("Placement: two-anchor problem hits 4.4898 +/- 0.005 A and -2 eps (20 seeds)", 10.0):
        anchors = np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0]])
        free0 = np.array([[0.0, 6.0, 0.0], [10.0, 6.0, 0.0]])
        params = LJParams(1.0, 4.0)
        target = R_MIN_FACTOR * 4.0
        for seed in range(20):
            cfg = OptimizerConfig(max_evaluations=40_000, seed=seed)
            outcome = solve_contact_placement(
                anchors, free0, params, RigidTransform.identity(), cfg
            )
            assert abs(outcome.optimizer_result.best_value + 2.0) <= 1e-6
            distances = np.linalg.norm(free0 + outcome.transform.translation - anchors, axis=1)
            assert np.all(np.abs(distances - target) <= 0.005)


def test_pipeline_properties_on_template():
    with Stopwatch(
        "Pipeline: three models, 12 chains, exact stacking, conserved H-bonds, no clashes", 30.0
    ):
        template = synthetic_template()
        for seq in ("AGAAAA", "GAAAAG", "AAAAGA"):
            spec = FibrilSpec(
                sequence=seq, optimizer=OptimizerConfig(max_evaluations=40_000, seed=42)
            )
            model, report = build_fibril_model(template, spec)
            assert model.chain_ids() == list("ABCDEFGHIJKL")
            assert report.success

            # stacking step applied exactly, both sheets
            a = model.chain("A").coords
            g = model.chain("G").coords
            assert np.array_equal(model.chain("C").coords, a + INTRA_SHEET_STEP)
            assert np.array_equal(model.chain("E").coords, a - INTRA_SHEET_STEP)
            assert np.array_equal(model.chain("I").coords, g + INTRA_SHEET_STEP)
            assert np.array_equal(model.chain("K").coords, g - INTRA_SHEET_STEP)
            assert INTRA_SHEET_STEP[1] == 9.5530

            assert report.hbond_count_after == report.hbond_count_before
            assert report.clashes == []

            target = R_MIN_FACTOR * spec.lj.sigma
            for contact in report.contacts:
                assert abs(contact["distance"] - target) <= 0.02 * target


def test_sheet_update_is_translation_only():
    with Stopwatch("Structural form: sheet rotation fixed, translation-only refinement", 30.0):
        template = synthetic_template()
        translations = []
        for seed in (1, 2, 3):
            spec = FibrilSpec(
                sequence="GAAAAG", optimizer=OptimizerConfig(max_evaluations=40_000, seed=seed)
            )
            model, report = build_fibril_model(template, spec)
            rotation = np.array(report.sheet_transform[:9]).reshape(3, 3)
            assert np.array_equal(rotation, SHEET_FLIP_ROTATION)
            translations.append(report.sheet_transform[9:])
            # the sheet-2 chains are exact images of sheet 1 under the
            # reported transform
            t = RigidTransform(rotation, np.array(report.sheet_transform[9:]))
            assert np.allclose(
                model.chain("G").coords,
                t.apply(model.chain("A").coords),
                atol=1e-9,
            )
        assert all(np.isfinite(t).all() for t in map(np.array, translations))


def test_pdb_round_trip_bytes():
    with Stopwatch("PDB round trip: byte-identical re-emission, F8.3-exact fields", 1.0):
        template = synthetic_template()
        once = write_pdb(template)
        assert write_pdb(parse_pdb(once)) == once
        assert parse_pdb(once) == template

        spec = FibrilSpec(sequence="GAAAAG", optimizer=OptimizerConfig(max_evaluations=5_000, seed=0))
        model, _ = build_fibril_model(template, spec)
        emitted = write_pdb(model)
        assert write_pdb(parse_pdb(emitted)) == emitted

        parsed = parse_pdb(emitted)
        cb = parsed.coords[atom_row(parsed, "A.ALA3.CB")]
        line = next(l for l in emitted.splitlines() if " CB " in l and " A   3" in l)
        assert line[30:38] == f"{cb[0]:8.3f}"
