"""Workloads, output checks and metrics of the stericzip benchmark.

Every workload is a closed loop: one caller in one process and one thread
issues an operation, checks its output outside the timed region, and only
then issues the next.  Inputs come in rounds derived from the workload
seed.  A round holds the workload's main operations and, in some rounds, a
side operation.  The loop always finishes the round in progress, runs at
least ``min_rounds`` rounds, and keeps going until the run's seconds are
spent.  Counts are taken over the first ``count_rounds`` rounds only, so
they repeat exactly for a given seed; timings use every round.
"""

from __future__ import annotations

import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from tracing import END, INFO, NAME, PARENT, REQUEST, START, Tracer, install_stericzip, outermost, summarize

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 5
BUILD_BUDGET = 40_000
FLIP = (1.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0, 0.0, -1.0)
CONTACT_TOLERANCE = 0.02
FILE_SIZES = (1, 2, 4)
FILES_WINDOW = "GAAAAG"
# Single-character chain ids for stacked cells beyond the first (A-L).
EXTRA_CHAIN_IDS = "MNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"
# Rounds of the build workload that also run one full_sum=True build.
FULL_SUM_ROUNDS = (0, 5, 10, 15, 20, 25)

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_ms_p50": "ms",
    "op_ms_mean": "ms",
    "side_op_ms_p50": "ms",
    "success_frac": "fraction",
}

MODULES = ("bench", "builder", "pdbio", "geometry", "optimize", "energy", "benchmarks")


def _cells() -> list[tuple[int, str, object, int]]:
    """(cell index as run_benchmark counts it, name, problem, dim) of the classic suite."""
    import_stericzip()
    from stericzip.benchmarks import CLASSIC_SUITE

    return [
        (cell_index, name, problem, dim)
        for cell_index, (name, problem) in enumerate(sorted(CLASSIC_SUITE.items()))
        for dim in ((problem.fixed_dim,) if problem.fixed_dim else (2, 5, 10))
    ]


def per_layer_units() -> dict[str, str]:
    units = {f"{m}.self_ms": "ms" for m in MODULES if m != "builder"}
    units.update({
        "builder.placement_self_ms": "ms",
        "builder.objective_ms": "ms",
        "builder.other_self_ms": "ms",
        "bench.op_ms_p90": "ms",
        "trace.op_ms": "ms",
        "trace.overhead_frac": "fraction",
        "builder.mutate_ms": "ms",
        "pdbio.structure_copies": "count",
        "pdbio.atoms_copied": "count",
        "pdbio.structure_copy_ms": "ms",
        "geometry.transform_chain_ms": "ms",
        "geometry.replicate_ms": "ms",
        "optimize.refine_ms": "ms",
        "optimize.refine_evals": "count",
        "optimize.saec_ms": "ms",
        "optimize.saec_evals": "count",
        "optimize.saec_target_frac": "fraction",
        "optimize.saec_self_ms": "ms",
        "optimize.evals_per_run": "count",
        "optimize.evals_per_solve": "count",
    })
    for _, name, _, dim in _cells():
        units[f"optimize.us_per_eval.{name}-{dim}"] = "us"
    units["optimize.us_per_eval.full_sum"] = "us"
    units["benchmarks.objective_ms"] = "ms"
    units["benchmarks.objective_calls"] = "count"
    units["energy.hbonds_ms"] = "ms"
    units["energy.clash_ms"] = "ms"
    for kind in ("hbonds_ms", "clash_ms"):
        for size in FILE_SIZES:
            units[f"energy.{kind}.c{size}"] = "ms"
    units["energy.audit_growth_exp"] = "slope"
    for size in FILE_SIZES:
        units[f"energy.pair_distances.c{size}"] = "count"
    for kind in ("write", "parse"):
        for size in FILE_SIZES:
            units[f"pdbio.{kind}_us_per_atom.c{size}"] = "us"
    units["pdbio.bytes_per_atom"] = "B/atom"
    for size in FILE_SIZES:
        units[f"files.cycle_ms.c{size}"] = "ms"
    units.update({"cli.import_s": "s", "cli.numpy_import_s": "s", "cli.build_s": "s"})
    return units


class BenchError(Exception):
    """The benchmark cannot run here (for example, the sources are missing)."""


def import_stericzip():
    """Import stericzip from this checkout's ``src``, never from elsewhere."""
    package = SRC / "stericzip" / "__init__.py"
    if not package.is_file():
        raise BenchError(f"stericzip sources not found at {package}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import stericzip

    if Path(stericzip.__file__).resolve() != package.resolve():
        raise BenchError(f"imported stericzip from {stericzip.__file__}, not {package}")
    return stericzip


def derived_seed(seed: int, *key: int) -> int:
    return int(np.random.SeedSequence(entropy=seed, spawn_key=key).generate_state(1)[0])


@dataclass
class Phase:
    """One timed loop: per-operation seconds, kinds, outcomes and failures."""

    seconds: list[float] = field(default_factory=list)
    labels: list[str] = field(default_factory=list)
    kinds: list[str] = field(default_factory=list)
    rounds: list[int] = field(default_factory=list)
    successes: list[bool] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    first_request: int = 0

    def indices(self, kind: str, rounds: int | None = None) -> list[int]:
        """Operations of one kind, optionally only those of the first ``rounds`` rounds."""
        return [i for i, (k, r) in enumerate(zip(self.kinds, self.rounds))
                if k == kind and (rounds is None or r < rounds)]

    def requests(self, indices) -> set[int]:
        return {self.first_request + i for i in indices}

    def times(self, indices) -> list[float]:
        return [self.seconds[i] for i in indices]


class Workload:
    name = ""
    count_rounds = 1
    min_rounds = 1

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.tiny = tiny
        self.tracer: Tracer | None = None

    def setup(self) -> None:
        raise NotImplementedError

    def round_inputs(self, r: int) -> list[tuple[str, str, object]]:
        """(label, kind, input) triples of round ``r``; kind is "op" or "side"."""
        raise NotImplementedError

    def op(self, kind: str, item):
        raise NotImplementedError

    def check(self, kind: str, item, result) -> tuple[str | None, bool]:
        """(failure message or None, whether the operation reached its goal)."""
        raise NotImplementedError

    def side_seconds(self, phase: Phase) -> list[float]:
        return phase.times(phase.indices("side"))

    def finish(self) -> list[tuple[str, str | None]]:
        """Checks made once per run, after the timed loop: (label, failure or None)."""
        return []

    def layer_metrics(self, phase: Phase) -> dict[str, float]:
        return {}

    def close(self) -> None:
        pass


def measure(workload: Workload, seconds: float, first_request: int = 0) -> Phase:
    phase = Phase(first_request=first_request)
    tracer = workload.tracer
    deadline = perf_counter() + seconds
    r = 0
    while r < workload.min_rounds or perf_counter() < deadline:
        for label, kind, item in workload.round_inputs(r):
            if tracer is not None:
                tracer.request = first_request + len(phase.seconds)
                span = tracer.open(f"bench.{workload.name}.{kind}")
            start = perf_counter()
            try:
                result, error = workload.op(kind, item), None
            except Exception as exc:  # a failed operation is counted, not fatal
                result, error = None, f"{type(exc).__name__}: {exc}"
            elapsed = perf_counter() - start
            if tracer is not None:
                tracer.close(span)
                tracer.request = -1
            if error is None:
                error, success = workload.check(kind, item, result)
            else:
                success = False
            phase.seconds.append(elapsed)
            phase.labels.append(label)
            phase.kinds.append(kind)
            phase.rounds.append(r)
            phase.successes.append(success)
            if error is not None:
                phase.failures.append(f"{label}: {error}")
        r += 1
    return phase


def p90_ms(seconds: list[float]) -> float:
    if len(seconds) == 1:
        return seconds[0] * 1e3
    return statistics.quantiles(seconds, n=10, method="inclusive")[-1] * 1e3


def saec_metrics(spans: list[list], phase: Phase, count_rounds: int) -> dict[str, float]:
    """SAEC time per main operation, and evaluations and stop reasons per run."""
    ops = phase.indices("op")
    every = summarize(spans, phase.requests(ops))
    counted = phase.requests(phase.indices("op", count_rounds))
    runs = [s for s in spans if s[NAME] == "optimize.minimize_saec" and s[REQUEST] in counted]
    evals = sum(s[INFO][0] for s in runs)
    return {
        "optimize.saec_ms": every["optimize.minimize_saec"].seconds / len(ops) * 1e3,
        "optimize.saec_self_ms": every["optimize.minimize_saec"].self_seconds / len(ops) * 1e3,
        "optimize.saec_evals": evals / len(counted),
        "optimize.evals_per_run": evals / len(runs),
        "optimize.saec_target_frac": sum(s[INFO][1] == "tolerance" for s in runs) / len(runs),
    }


# ---------------------------------------------------------------- builds


class BuildWorkload(Workload):
    """Warm ``build_fibril_model`` calls; side operations are full_sum=True builds."""

    name = "build"

    def __init__(self, seed: int, tiny: bool):
        super().__init__(seed, tiny)
        self.count_rounds = 1 if tiny else 8
        self.full_sum_rounds = FULL_SUM_ROUNDS[:1] if tiny else FULL_SUM_ROUNDS
        self.min_rounds = max(self.count_rounds, self.full_sum_rounds[-1] + 1)
        self.first = None

    def setup(self) -> None:
        import stericzip.builder as builder
        from stericzip import load_template

        self.template = load_template()
        builder.build_fibril_model(self.template, self.spec("GAAAAG", 0, full_sum=False))

    def spec(self, window: str, seed: int, full_sum: bool):
        from stericzip import FibrilSpec, OptimizerConfig

        budget = 2_000 if self.tiny and full_sum else BUILD_BUDGET
        return FibrilSpec(
            sequence=window,
            optimizer=OptimizerConfig(max_evaluations=budget, seed=seed),
            full_sum=full_sum,
        )

    def round_inputs(self, r):
        from stericzip import PALINDROME_WINDOWS

        s = derived_seed(self.seed, r)
        items = [(f"{w}/{s}", "op", self.spec(w, s, False)) for w in PALINDROME_WINDOWS]
        if r in self.full_sum_rounds:
            w = PALINDROME_WINDOWS[self.full_sum_rounds.index(r) % len(PALINDROME_WINDOWS)]
            items.append((f"{w}/{s}/full_sum", "side", self.spec(w, s, True)))
        return items

    def op(self, kind, spec):
        import stericzip.builder as builder

        return builder.build_fibril_model(self.template, spec)

    def check(self, kind, spec, result):
        model, report = result
        if self.first is None:
            self.first = (spec, model, report)
        problems = []
        if not report.success or report.clashes:
            problems.append(f"{len(report.clashes)} clashes")
        if len(report.chain_ids) != 12 or len(model.chains) != 12:
            problems.append(f"{len(model.chains)} chains")
        if tuple(report.sheet_transform[:9]) != FLIP:
            problems.append(f"rotation {report.sheet_transform[:9]}")
        if not spec.full_sum:
            for contact in report.contacts:
                r_min = contact["optimal_distance"]
                if abs(contact["distance"] - r_min) > CONTACT_TOLERANCE * r_min:
                    problems.append(f"contact {contact['distance']:.4f} A vs r_min {r_min:.4f} A")
        return ("; ".join(problems) or None), not problems

    def finish(self):
        """Determinism contract: a second build of the same input is byte-identical."""
        import stericzip.builder as builder
        from stericzip import write_pdb

        if self.first is None:
            return []
        spec, model, report = self.first
        model2, report2 = builder.build_fibril_model(self.template, spec)
        label = f"{spec.sequence}/{spec.optimizer.seed}/rebuild"
        if write_pdb(model2) != write_pdb(model):
            return [(label, "rebuild PDB text differs")]
        if report2.to_json() != report.to_json():
            return [(label, "rebuild report JSON differs")]
        return [(label, None)]

    def layer_metrics(self, phase):
        spans = self.tracer.spans
        ops = len(phase.indices("op"))
        every_requests = phase.requests(phase.indices("op"))
        counted_requests = phase.requests(phase.indices("op", self.count_rounds))
        n = len(counted_requests)
        every = summarize(spans, every_requests)
        placement = ("builder.place_opposing_sheet", "builder.solve_contact_placement")
        placement_self = sum(every[k].self_seconds for k in placement)
        builder_self = sum(t.self_seconds for k, t in every.items() if k.startswith("builder."))
        objective_self = every["builder.objective"].self_seconds
        copies = outermost(spans, ("pdbio.Structure.copy", "pdbio.Chain.copy"))
        refine = [s for s in spans if s[NAME] == "optimize.local_refine" and s[REQUEST] in counted_requests]
        out = {
            "builder.mutate_ms": every["builder.apply_sequence"].seconds / ops * 1e3,
            "builder.placement_self_ms": placement_self / ops * 1e3,
            "builder.objective_ms": every["builder.objective"].seconds / ops * 1e3,
            "builder.other_self_ms": (builder_self - placement_self - objective_self) / ops * 1e3,
            "pdbio.structure_copies": summarize(spans, counted_requests)["pdbio.Structure.copy"].calls / n,
            "pdbio.atoms_copied": sum(s[INFO] for s in copies if s[REQUEST] in counted_requests) / n,
            "pdbio.structure_copy_ms": sum(
                s[END] - s[START] for s in copies if s[REQUEST] in every_requests) / ops * 1e3,
            "geometry.transform_chain_ms": every["geometry.transform_chain"].seconds / ops * 1e3,
            "geometry.replicate_ms": every["geometry.replicate_lattice"].seconds / ops * 1e3,
            "optimize.refine_ms": every["optimize.local_refine"].seconds / ops * 1e3,
            "optimize.refine_evals": sum(s[INFO] for s in refine) / n,
            "energy.hbonds_ms": every["energy.detect_hbonds"].seconds / ops * 1e3,
            "energy.clash_ms": every["energy.clash_audit"].seconds / ops * 1e3,
        }
        out.update(saec_metrics(spans, phase, self.count_rounds))
        side = phase.requests(phase.indices("side"))
        full_sum = [s for s in spans if s[NAME] == "optimize.minimize_saec" and s[REQUEST] in side]
        out["optimize.us_per_eval.full_sum"] = (
            sum(s[END] - s[START] for s in full_sum) / sum(s[INFO][0] for s in full_sum) * 1e6)
        return out


# ------------------------------------------------------------- optimizer


class OptimizerWorkload(Workload):
    """Seeded ``minimize_saec`` runs, one per CLASSIC_SUITE cell in each round.

    The side metric is the time of a whole round: one pass of the classic
    battery with one run per cell.
    """

    name = "optimizer"
    max_rounds = 1024

    def __init__(self, seed: int, tiny: bool):
        super().__init__(seed, tiny)
        self.count_rounds = self.min_rounds = 1 if tiny else 4

    def setup(self) -> None:
        import stericzip.optimize as optimize
        from stericzip.benchmarks import default_bench_config

        base = default_bench_config(5_000) if self.tiny else default_bench_config()
        self.cells = []
        for cell_index, name, problem, dim in _cells():
            # Per-run seeds are derived exactly as run_benchmark derives them.
            seeds = np.random.SeedSequence(entropy=self.seed, spawn_key=(cell_index, dim))
            config = replace(base, target_value=problem.target, target_tolerance=problem.tolerance)
            objective = problem.make_objective(dim)
            optimize.minimize_saec(objective, replace(config, max_evaluations=1_000, seed=0))
            self.cells.append((f"{name}-{dim}", problem, objective, config,
                               seeds.generate_state(self.max_rounds)))

    def round_inputs(self, r):
        return [
            (label, "op", (problem, objective, replace(config, seed=int(seeds[r % self.max_rounds]))))
            for label, problem, objective, config, seeds in self.cells
        ]

    def op(self, kind, item):
        import stericzip.optimize as optimize

        problem, objective, config = item
        return optimize.minimize_saec(objective, config)

    def check(self, kind, item, result):
        problem, _, config = item
        if not math.isfinite(result.best_value):
            return f"non-finite best value {result.best_value}", False
        if result.evaluations_used > config.max_evaluations:
            return f"{result.evaluations_used} evaluations exceed the budget", False
        return None, result.best_value <= problem.target + problem.tolerance

    def side_seconds(self, phase):
        per_round = defaultdict(float)
        for seconds, r in zip(phase.seconds, phase.rounds):
            per_round[r] += seconds
        return list(per_round.values())

    def layer_metrics(self, phase):
        spans = self.tracer.spans
        ops = phase.indices("op")
        counted = phase.indices("op", self.count_rounds)
        every = summarize(spans, phase.requests(ops))
        label_of = {phase.first_request + i: phase.labels[i] for i in ops}
        seconds, evals = defaultdict(float), defaultdict(int)
        for s in spans:
            if s[NAME] == "optimize.minimize_saec" and s[REQUEST] in label_of:
                seconds[label_of[s[REQUEST]]] += s[END] - s[START]
                evals[label_of[s[REQUEST]]] += s[INFO][0]
        out = saec_metrics(spans, phase, self.count_rounds)
        solved = sum(phase.successes[i] for i in counted)
        out["optimize.evals_per_solve"] = out["optimize.saec_evals"] * len(counted) / solved if solved else 0.0
        out["benchmarks.objective_ms"] = every["benchmarks.objective"].seconds / len(ops) * 1e3
        out["benchmarks.objective_calls"] = (
            summarize(spans, phase.requests(counted))["benchmarks.objective"].calls / len(counted))
        for label in seconds:
            out[f"optimize.us_per_eval.{label}"] = seconds[label] / evals[label] * 1e6
        return out


# ----------------------------------------------------------------- files


def stack_cells(model, cells: int, step):
    """Fibril of ``cells`` twelve-chain cells, stacked by translation only."""
    from stericzip import RigidTransform, Structure, transform_chain

    chains = [chain.copy() for chain in model.chains]
    ids = iter(EXTRA_CHAIN_IDS)
    period = 3.0 * np.asarray(step, dtype=np.float64)
    for k in range(1, cells):
        shift = RigidTransform(np.eye(3), k * period)
        for chain_id in model.chain_ids():
            new_id = next(ids)
            chains.append(transform_chain(model, chain_id, shift, new_id).chain(new_id))
    out = Structure(chains, list(model.headers))
    out.renumber_serials()
    return out


class FilesWorkload(Workload):
    """write_pdb -> parse_pdb -> structure_energy_report on 1, 2 and 4 cells.

    Each round also runs one cold ``stericzip build`` subprocess, the side
    operation.
    """

    name = "files"

    def __init__(self, seed: int, tiny: bool):
        super().__init__(seed, tiny)
        self.count_rounds = self.min_rounds = 1 if tiny else 3
        self.work = WORK / f"files-{os.getpid()}"
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.template_path = SRC / "stericzip" / "data" / "template.pdb"

    def setup(self) -> None:
        from stericzip import (FibrilSpec, OptimizerConfig, build_fibril_model, clash_audit,
                               detect_hbonds, parse_pdb, write_pdb)

        self.template = parse_pdb(self.template_path.read_text())
        spec = FibrilSpec(
            sequence=FILES_WINDOW,
            optimizer=OptimizerConfig(max_evaluations=BUILD_BUDGET, seed=derived_seed(self.seed, 0)),
        )
        model, _ = build_fibril_model(self.template, spec)
        self.state, self.reference = {}, {}
        for size in FILE_SIZES:
            structure = stack_cells(model, size, spec.lattice.intra_sheet_step)
            atoms = list(structure.atoms())
            self.state[size] = structure
            self.reference[size] = {
                "text": write_pdb(structure),
                "hbonds": len(detect_hbonds(structure)),
                "clashes": len(clash_audit(structure, 2.0)),
                "atoms": len(atoms),
                "donors": sum(a.name == "N" for a in atoms),
                "acceptors": sum(a.name == "O" for a in atoms),
            }
        # One checked CLI build warms the byte-code and file caches.
        self.work.mkdir(parents=True, exist_ok=True)
        label, kind, item = self.round_inputs(0)[1]
        error, _ = self.check(kind, item, self.op(kind, item))
        if error is not None:
            raise BenchError(f"warm-up CLI build {label} failed: {error}")

    def round_inputs(self, r):
        from stericzip import PALINDROME_WINDOWS

        s = derived_seed(self.seed, r)
        w = PALINDROME_WINDOWS[r % len(PALINDROME_WINDOWS)]
        return [("cycle", "op", r), (f"{w}/{s}/cli", "side", (w, s))]

    def _run(self, args: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, *args], env=self.env, cwd=self.work,
                              capture_output=True, text=True, timeout=120)

    def op(self, kind, item):
        import stericzip.energy as energy
        import stericzip.pdbio as pdbio

        if kind == "side":
            window, seed = item
            return self._run(["-m", "stericzip.cli", "build", "--template", str(self.template_path),
                              "--sequence", window, "--out", "model.pdb", "--seed", str(seed)])
        out = []
        for size in FILE_SIZES:
            span = self.tracer.open(f"bench.c{size}") if self.tracer else None
            text = pdbio.write_pdb(self.state[size])
            parsed = pdbio.parse_pdb(text)
            report = energy.structure_energy_report(parsed)
            if span is not None:
                self.tracer.close(span)
            out.append((size, text, parsed, report))
        return out

    def check(self, kind, item, result):
        if kind == "side":
            return self._check_cli(item, result)
        problems = []
        for size, text, parsed, report in result:
            ref = self.reference[size]
            if text != ref["text"]:
                problems.append(f"c{size}: written text differs from the in-memory model's")
            if report["hbond_count"] != ref["hbonds"] or report["clash_count"] != ref["clashes"]:
                problems.append(
                    f"c{size}: parsed audit {report['hbond_count']} hbonds/"
                    f"{report['clash_count']} clashes, in memory {ref['hbonds']}/{ref['clashes']}")
            # The next cycle writes the parsed structure, so every cycle
            # also checks write_pdb(parse_pdb(t)) == t.
            self.state[size] = parsed
        return ("; ".join(problems) or None), not problems

    def _check_cli(self, item, result):
        from stericzip import FibrilSpec, OptimizerConfig, build_fibril_model, write_pdb

        if result.returncode != 0:
            return f"exit {result.returncode}: {result.stderr.strip()[-300:]}", False
        window, seed = item
        spec = FibrilSpec(sequence=window, optimizer=OptimizerConfig(max_evaluations=BUILD_BUDGET, seed=seed))
        model, report = build_fibril_model(self.template, spec)
        expected_report = json.dumps(dict(report.to_dict(), seed=seed), indent=2, sort_keys=True) + "\n"
        if (self.work / "model.pdb").read_text() != write_pdb(model):
            return "CLI model differs from the in-process build", False
        if (self.work / "model.pdb.report.json").read_text() != expected_report:
            return "CLI report differs from the in-process build", False
        return None, True

    def _import_seconds(self, module: str) -> float:
        code = (f"import time; t = time.perf_counter(); import {module}; "
                "print(time.perf_counter() - t)")
        samples = []
        for _ in range(1 if self.tiny else 5):
            done = self._run(["-c", code])
            if done.returncode != 0:
                raise BenchError(f"import {module} failed: {done.stderr.strip()[-300:]}")
            samples.append(float(done.stdout))
        return statistics.median(samples)

    def layer_metrics(self, phase):
        spans = self.tracer.spans
        ops = len(phase.indices("op"))
        requests = phase.requests(phase.indices("op"))
        size_of = [None] * len(spans)
        per_size = {size: defaultdict(float) for size in FILE_SIZES}
        for index, s in enumerate(spans):
            if s[NAME].startswith("bench.c"):
                size_of[index] = int(s[NAME][len("bench.c"):])
            elif s[PARENT] >= 0:
                size_of[index] = size_of[s[PARENT]]
            if size_of[index] is not None and s[REQUEST] in requests:
                per_size[size_of[index]][s[NAME]] += s[END] - s[START]
        every = summarize(spans, requests)
        out = {
            "energy.hbonds_ms": every["energy.detect_hbonds"].seconds / ops * 1e3,
            "energy.clash_ms": every["energy.clash_audit"].seconds / ops * 1e3,
            "pdbio.bytes_per_atom": len(self.reference[4]["text"]) / self.reference[4]["atoms"],
        }
        for size in FILE_SIZES:
            ref, bucket = self.reference[size], per_size[size]
            out[f"files.cycle_ms.c{size}"] = bucket[f"bench.c{size}"] / ops * 1e3
            out[f"pdbio.write_us_per_atom.c{size}"] = bucket["pdbio.write_pdb"] / ops / ref["atoms"] * 1e6
            out[f"pdbio.parse_us_per_atom.c{size}"] = bucket["pdbio.parse_pdb"] / ops / ref["atoms"] * 1e6
            out[f"energy.hbonds_ms.c{size}"] = bucket["energy.detect_hbonds"] / ops * 1e3
            out[f"energy.clash_ms.c{size}"] = bucket["energy.clash_audit"] / ops * 1e3
            # Computed, not measured: what the dense audits evaluate.
            n = ref["atoms"]
            out[f"energy.pair_distances.c{size}"] = n * (n - 1) // 2 + ref["donors"] * ref["acceptors"]
        first, last = FILE_SIZES[0], FILE_SIZES[-1]
        audit = {size: out[f"energy.hbonds_ms.c{size}"] + out[f"energy.clash_ms.c{size}"]
                 for size in (first, last)}
        out["energy.audit_growth_exp"] = math.log(audit[last] / audit[first]) / math.log(last / first)
        out["cli.build_s"] = statistics.median(self.side_seconds(phase))
        out["cli.import_s"] = self._import_seconds("stericzip")
        out["cli.numpy_import_s"] = self._import_seconds("numpy")
        return out

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


WORKLOADS = {w.name: w for w in (BuildWorkload, OptimizerWorkload, FilesWorkload)}


# ------------------------------------------------------------------ runs


def module_metrics(tracer: Tracer, phase: Phase) -> dict[str, float]:
    """Self time per module per main operation; together they cover the traced op."""
    ops = phase.indices("op")
    self_seconds = dict.fromkeys(MODULES, 0.0)
    for name, totals in summarize(tracer.spans, phase.requests(ops)).items():
        self_seconds[name.split(".", 1)[0]] += totals.self_seconds
    return {f"{m}.self_ms": self_seconds[m] / len(ops) * 1e3 for m in MODULES if m != "builder"}


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """Run one workload; returns (result dict, failure messages, summary line)."""
    import_stericzip()
    workload = WORKLOADS[name](seed, tiny)
    try:
        setup_seconds = []
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            workload.setup()
            setup_seconds.append(perf_counter() - start)
        plain = measure(workload, seconds / 2 if trace else seconds)
        plain_ops = plain.times(plain.indices("op"))
        phases = [plain]
        if not trace:
            counted = plain.indices("op", workload.count_rounds)
            metrics = {
                "setup_s": statistics.median(setup_seconds),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "op_ms_p50": statistics.median(plain_ops) * 1e3,
                "op_ms_mean": statistics.fmean(plain_ops) * 1e3,
                "side_op_ms_p50": statistics.median(workload.side_seconds(plain)) * 1e3,
                "success_frac": sum(plain.successes[i] for i in counted) / len(counted),
            }
            units = END_TO_END
        else:
            workload.tracer = tracer = Tracer()
            install_stericzip(tracer)
            try:
                traced = measure(workload, seconds / 2, first_request=len(plain.seconds))
            finally:
                tracer.restore()
            phases.append(traced)
            traced_ops = traced.times(traced.indices("op"))
            units = per_layer_units()
            metrics = dict.fromkeys(units, 0.0)
            metrics.update(module_metrics(tracer, traced))
            metrics["bench.op_ms_p90"] = p90_ms(plain_ops)
            root = summarize(tracer.spans, traced.requests(traced.indices("op")))[f"bench.{name}.op"]
            metrics["trace.op_ms"] = root.seconds / root.calls * 1e3
            metrics["trace.overhead_frac"] = statistics.median(traced_ops) / statistics.median(plain_ops) - 1.0
            metrics.update(workload.layer_metrics(traced))
        checks = workload.finish()
    finally:
        workload.close()
    failures = [f for phase in phases for f in phase.failures]
    failures += [f"{label}: {error}" for label, error in checks if error is not None]
    result = {
        "correct": not failures,
        "attempted": sum(len(phase.seconds) for phase in phases) + len(checks),
        "failed": len(failures),
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    summary = (f"perfbench workload={name} seed={seed} trace={int(trace)} seconds={seconds:g} "
               f"rounds={max(plain.rounds) + 1} main_ops={len(plain_ops)} "
               f"side_ops={len(plain.indices('side'))} attempted={result['attempted']} "
               f"setup_runs={SETUP_REPEATS}")
    return result, failures, summary
