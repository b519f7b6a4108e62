"""The SAEC generation against a plain reference, and recorded search results.

``reference_spawn`` and ``reference_select`` are the three-draw generation
written with fancy-index read-modify-writes and broadcast clamps, the
plainest form of it.  The optimizer's own ``_spawn_offspring`` and
``_select`` must give the same bytes from the same generator state, and
leave the generator where the reference leaves it.  The recorded digests
pin whole searches, so any change to the arithmetic or to the draws shows.
"""

import hashlib
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from stericzip import OptimizerConfig, minimize_saec
from stericzip.benchmarks import CLASSIC_SUITE, DEFAULT_BENCH_DIMS, default_bench_config
from stericzip.optimize import _select, _spawn_offspring


def reference_spawn(pop, lam, rng, lower, upper, span, annealed_std):
    """(offspring, allowance) of one generation: full-vector moves below 0.5,
    one-coordinate below 0.75, two-coordinate below 0.85, recombination above."""
    mu, n = pop.shape
    m = mu * lam
    move = rng.random(m)
    thermal = move < 0.85
    gauss = ((move < 0.50) | ~thermal).nonzero()[0]
    coord = (thermal & (move >= 0.50)).nonzero()[0]
    pair = (move[coord] >= 0.75).nonzero()[0]
    mix = (~thermal).nonzero()[0]
    k, j = coord.size, mix.size
    uniform = rng.random(m - j + 2 * k + pair.size + (5 + n) * j)
    acceptance, rest = uniform[: m - j], uniform[m - j:]
    first, scale = (rest[:k] * n).astype(np.intp), rest[k: 2 * k]
    second = (rest[2 * k: 2 * k + pair.size] * n).astype(np.intp)
    r = rest[2 * k + pair.size:].reshape(j, 5 + n)

    distinct = second != first[pair]
    again = pair[distinct]
    rows = np.concatenate([coord, coord[again]])
    cols = np.concatenate([first, second[distinct]])
    step = 0.1 * 10.0 ** (-2.0 * scale)
    noise = rng.standard_normal(gauss.size * n + rows.size)

    offspring = np.repeat(pop, lam, axis=0)
    a, b, c = pop[(r[:, :3] * mu).astype(np.intp)].transpose(1, 0, 2)
    shifted = a + np.where(r[:, 3:4] < 0.5, b - c, c - b)
    offspring[mix] = np.where(r[:, 4:5] < 0.5, np.where(r[:, 5:] < 0.5, a, b), shifted)
    offspring[gauss] += noise[: gauss.size * n].reshape(-1, n) * annealed_std
    offspring[rows, cols] += noise[gauss.size * n:] * np.concatenate([step, step[again]]) * span[cols]
    np.minimum(np.maximum(offspring, lower, out=offspring), upper, out=offspring)

    allowance = np.zeros(m)
    allowance[thermal] = -np.log1p(-acceptance)
    return offspring, allowance


def reference_select(pop, values, offspring, off_values, allowance, temperature):
    """(pop, values) after each chain takes its best accepted offspring."""
    mu, lam = len(pop), len(offspring) // len(pop)
    accepted = off_values - np.repeat(values, lam) <= temperature * allowance
    family = np.where(accepted, off_values, np.inf).reshape(mu, lam)
    pick = family.argmin(axis=1)
    best = family[np.arange(mu), pick]
    replaced = np.isfinite(best)
    return (np.where(replaced[:, None], offspring[np.arange(0, mu * lam, lam) + pick], pop),
            np.where(replaced, best, values))


@st.composite
def generations(draw):
    mu, n, lam = draw(st.integers(1, 60)), draw(st.integers(1, 12)), draw(st.integers(1, 6))
    lower = np.array(draw(st.lists(st.sampled_from([0.0, -0.0, -1.0, -3.5]), min_size=n, max_size=n)))
    upper = np.array(draw(st.lists(st.sampled_from([0.0, 1.0, 2.5, 1e3]), min_size=n, max_size=n)))
    upper = np.where(upper > lower, upper, lower + 2.5)
    # Entries are uniform in bounds, or (with a drawn share) a signed zero or
    # a bound, and a drawn row may repeat the first.
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pop = lower + rng.random((mu, n)) * (upper - lower)
    special = rng.random((mu, n)) < draw(st.sampled_from([0.0, 0.3, 1.0]))
    pop[special] = rng.choice([0.0, -0.0, -1.0, 2.5, 1e3], special.sum())
    pop = np.minimum(np.maximum(pop, lower), upper)
    if mu > 1 and draw(st.booleans()):
        pop[draw(st.integers(1, mu - 1))] = pop[0]
    # Steps, coordinate by coordinate, from none (a temperature that underflowed)
    # to a hundred spans: the wide ones clamp, and a zero step keeps the sign
    # of a zero it moves.
    factors = draw(st.lists(st.sampled_from([0.0, 5e-324, 1e-3, 0.1, 10.0, 100.0]), min_size=n, max_size=n))
    std = np.array(factors) * (upper - lower)
    values = rng.choice([0.0, -0.0, 1.0, np.inf, np.nan, -2.0], mu)
    return pop, lam, lower, upper, std, values, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(generations(), st.sampled_from([1e-300, 0.5, 1e300]))
def test_generation_matches_the_reference_bit_for_bit(case, temperature):
    pop, lam, lower, upper, std, values, seed = case
    span = upper - lower
    mine, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    # The search hands the generation its bounds tiled to one row per offspring.
    tiled = np.tile(lower, (len(pop) * lam, 1)), np.tile(upper, (len(pop) * lam, 1))
    got = _spawn_offspring(pop.copy(), lam, mine, *tiled, span, std)
    want = reference_spawn(pop.copy(), lam, theirs, lower, upper, span, std)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()
    assert mine.bit_generator.state == theirs.bit_generator.state
    # Offspring values: ties, signed zeros, non-finite values and the parents' own.
    offspring, allowance = want
    pick = np.random.default_rng(seed).integers(0, 4, len(offspring))
    off_values = np.choose(pick, [np.repeat(values, lam), np.full(len(offspring), -0.0),
                                  np.full(len(offspring), np.inf), offspring.sum(axis=1)])
    with np.errstate(invalid="ignore"):  # inf - inf
        got = _select(pop, values, offspring, off_values, allowance, temperature)
        want = reference_select(pop, values, offspring, off_values, allowance, temperature)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()


def test_a_zero_difference_keeps_the_sign_reference_gives_it():
    # One chain of negative zeros and no Gaussian step: a shift move adds
    # c - b = +0.0 to a = -0.0, which -(b - c) = -0.0 would not reproduce.
    pop, bounds, span = np.full((1, 4), -0.0), np.tile([[-1.0], [1.0]], (1, 4)), np.full(4, 2.0)
    for seed in range(20):
        got = _spawn_offspring(pop, 6, np.random.default_rng(seed), *bounds, span, np.zeros(4))
        want = reference_spawn(pop, 6, np.random.default_rng(seed), *bounds, span, np.zeros(4))
        assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()


def digest(results):
    h = hashlib.sha256()
    for r in results:
        h.update(r.best_point.tobytes())
        h.update(repr((r.best_value, r.evaluations_used, r.terminated_by)).encode())
    return h.hexdigest()[:16]


# sha256 (first 16 hex digits) of best_point bytes, then repr of (best_value,
# evaluations_used, terminated_by), of the seed-0 and seed-1 runs of each
# CLASSIC_SUITE cell as run_benchmark configures it at a 20,000 budget.
CELL_DIGESTS = {
    ("ackley", 2): "59d44141efa10291",
    ("ackley", 5): "bceaea7b2fbd5fe2",
    ("ackley", 10): "1f24f7c929e72eb1",
    ("griewank", 2): "beee77bf7fd4b38f",
    ("griewank", 5): "c9c8061a0d8c4bb0",
    ("griewank", 10): "d9c065d3499908d5",
    ("lj_cluster_n3", 9): "5589c9ec0702639a",
    ("lj_cluster_n4", 12): "d404b9630789ba18",
    ("rastrigin", 2): "18f24c0288cc8ff7",
    ("rastrigin", 5): "7a9a822fd6bbfd9e",
    ("rastrigin", 10): "6450146b7ececca1",
    ("rosenbrock", 2): "287b61cbafc36769",
    ("rosenbrock", 5): "fa34c9e4a4421aec",
    ("rosenbrock", 10): "90c243d749039688",
    ("schwefel_226", 2): "737b9a84804dddb6",
    ("schwefel_226", 5): "07bc3dcdd882dea3",
    ("schwefel_226", 10): "96cf847f0487d59e",
    ("sphere", 2): "e47484de9b15734d",
    ("sphere", 5): "c61e00d9325788ee",
    ("sphere", 10): "45d1c09a4b7c4846",
}


def test_classic_cells_give_their_recorded_results():
    base = default_bench_config(20_000)
    got = {}
    for name, problem in CLASSIC_SUITE.items():
        config = replace(base, target_value=problem.target, target_tolerance=problem.tolerance)
        for dim in (problem.fixed_dim,) if problem.fixed_dim else DEFAULT_BENCH_DIMS:
            objective = problem.make_objective(dim)
            got[name, dim] = digest([minimize_saec(objective, replace(config, seed=seed)) for seed in (0, 1)])
    assert got == CELL_DIGESTS


def test_edge_configurations_give_their_recorded_results():
    # One chain, so recombination draws all three members from it; and one
    # coordinate, so every pair move draws the same coordinate twice.
    one_chain = minimize_saec(CLASSIC_SUITE["rastrigin"].make_objective(3),
                              OptimizerConfig(population_size=1, max_evaluations=20_000, restarts=3, seed=0))
    one_coordinate = minimize_saec(CLASSIC_SUITE["schwefel_226"].make_objective(1),
                                   OptimizerConfig(population_size=10, max_evaluations=5_000, restarts=3, seed=0))
    assert (one_chain.evaluations_used, one_chain.terminated_by) == (5_764, "stagnation")
    assert (one_coordinate.evaluations_used, one_coordinate.terminated_by) == (4_960, "budget")
    assert digest([one_chain]) == "a2a0d637b5d7c296" and digest([one_coordinate]) == "74ad74c3a09feac1"
