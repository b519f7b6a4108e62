"""Command-line interface.

Subcommands: build, mutate, transform, energy, bench.  Exit codes follow
one contract everywhere: 0 success, 1 domain failure (parse error, clash,
optimization failure), 2 usage error.  Every run either writes its
machine-readable report or prints a located error to stderr.  No output
files are produced on usage errors, and every output text is formatted
before the first file is written, so a write that fails leaves none.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .benchmarks import (DEFAULT_BENCH_BUDGET, DEFAULT_BENCH_DIMS, DEFAULT_BENCH_RUNS, SUITES, default_bench_config,
                         run_benchmark)
from .builder import FibrilSpec, build_fibril_model, apply_sequence, validate_sequence
from .energy import DEFAULT_HB_PARAMS, HBParams, LJParams, structure_energy_report, ContactPair
from .errors import StericZipError
from .geometry import RigidTransform, transform_chain
from .pdbio import AtomSelector, atom_row, decode_pdb, parse_pdb, write_pdb
from .template import DEFAULT_ANCHOR_SELECTORS, DEFAULT_FREE_SELECTORS

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


def _fail(message: str) -> int:
    print(f"stericzip: error: {message}", file=sys.stderr)
    return EXIT_FAILURE


def _usage(message: str) -> int:
    print(f"stericzip: usage error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _read_structure(path: str):
    return parse_pdb(decode_pdb(Path(path).read_bytes()))


def _write_outputs(*outputs: tuple[Path, str]) -> None:
    """Write each (path, text) pair; if one write fails, remove those already written.

    Callers format every text first, so a formatting error writes nothing.
    """
    written = []
    try:
        for path, text in outputs:
            path.write_text(text, encoding="utf-8")
            written.append(path)
    except OSError:
        for path in written:
            path.unlink(missing_ok=True)
        raise


def _bad_potential_flag(*flags: tuple[str, float | None]) -> str | None:
    """The usage error for the first (flag, value) set to a value not finite and positive."""
    bad = [flag for flag, value in flags if value is not None and not (math.isfinite(value) and value > 0)]
    return f"{bad[0]} must be finite and positive" if bad else None


def _cmd_build(args) -> int:
    try:
        sequence = validate_sequence(args.sequence)
    except StericZipError as exc:
        return _usage(str(exc))
    if bad := _bad_potential_flag(("--sigma", args.sigma), ("--epsilon", args.epsilon)):
        return _usage(bad)
    if args.seed is not None and args.seed < 0:
        return _usage("--seed must be >= 0")

    try:
        template = _read_structure(args.template)
        if args.spec:
            try:
                spec = FibrilSpec.from_json(Path(args.spec).read_text(encoding="utf-8"), sequence=sequence)
            except (StericZipError, UnicodeDecodeError) as exc:
                raise StericZipError(f"{args.spec}: {exc}") from exc
        else:
            spec = FibrilSpec(sequence=sequence)
        lj = LJParams(
            args.epsilon if args.epsilon is not None else spec.lj.epsilon,
            args.sigma if args.sigma is not None else spec.lj.sigma,
        )
        spec = replace(
            spec,
            model_name=args.model_name if args.model_name is not None else spec.model_name,
            lj=lj,
            full_sum=args.full_sum or spec.full_sum,
            optimizer=replace(spec.optimizer, seed=args.seed if args.seed is not None else spec.optimizer.seed),
        )
        model, report = build_fibril_model(template, spec)
        payload = dict(report.to_dict(), seed=spec.optimizer.seed)
        out = Path(args.out)
        report_path = Path(f"{args.out}.report.json")
        _write_outputs(
            (out, write_pdb(model)),
            (report_path, json.dumps(payload, indent=2, sort_keys=True) + "\n"),
        )
    except (StericZipError, OSError) as exc:
        return _fail(str(exc))
    print(f"wrote {out} and {report_path}")
    if not report.success:
        print("stericzip: build completed with clashes; see report", file=sys.stderr)
        return EXIT_FAILURE
    return EXIT_OK


def _cmd_mutate(args) -> int:
    try:
        sequence = validate_sequence(args.sequence)
    except StericZipError as exc:
        return _usage(str(exc))
    try:
        structure = _read_structure(args.infile)
        mutated = apply_sequence(structure, args.chain, sequence)
        _write_outputs((Path(args.out), write_pdb(mutated)))
    except (StericZipError, OSError) as exc:
        return _fail(str(exc))
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_transform(args) -> int:
    try:
        transform = RigidTransform(
            np.asarray(args.matrix, dtype=float).reshape(3, 3),
            np.asarray(args.translate, dtype=float),
        )
    except StericZipError as exc:
        return _usage(str(exc))
    try:
        structure = _read_structure(args.infile)
        result = transform_chain(structure, args.chain, transform, args.new_chain)
        _write_outputs((Path(args.out), write_pdb(result)))
    except (StericZipError, OSError) as exc:
        return _fail(str(exc))
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_energy(args) -> int:
    flags = ("--sigma", args.sigma), ("--epsilon", args.epsilon), ("--hb-c", args.hb_c), ("--hb-d", args.hb_d)
    if bad := _bad_potential_flag(*flags):
        return _usage(bad)
    try:
        structure = _read_structure(args.infile)
        lj = LJParams(args.epsilon, args.sigma)
        hb = HBParams(args.hb_c, args.hb_d)
        contacts = []
        for first, second in zip(DEFAULT_ANCHOR_SELECTORS, DEFAULT_FREE_SELECTORS):
            try:
                pair = ContactPair(AtomSelector.parse(first), AtomSelector.parse(second))
                atom_row(structure, pair.first)
                atom_row(structure, pair.second)
                contacts.append(pair)
            except StericZipError:
                continue  # contact atoms absent in this structure
        report = structure_energy_report(structure, lj=lj, hb=hb, contacts=contacts)
        _write_outputs((Path(args.report), json.dumps(report, indent=2, sort_keys=True) + "\n"))
    except (StericZipError, OSError) as exc:
        return _fail(str(exc))
    print(f"wrote {args.report}")
    return EXIT_OK


def _cmd_bench(args) -> int:
    if args.suite not in SUITES:
        return _usage(f"unknown suite {args.suite!r}; available: {sorted(SUITES)}")
    if args.runs < 1:
        return _usage("--runs must be >= 1")
    try:
        dims = tuple(int(d) for d in args.dims.split(","))
        if any(d < 1 for d in dims):
            raise ValueError
    except ValueError:
        return _usage(f"bad --dims {args.dims!r}; expected comma-separated positive integers")
    if args.seed < 0:
        return _usage("--seed must be >= 0")
    population = default_bench_config().population_size
    if args.budget < population:
        return _usage(f"--budget must cover the population of {population}")

    config = default_bench_config(args.budget)
    try:
        report = run_benchmark(args.suite, dims=dims, runs=args.runs, config=config, seed=args.seed)
        _write_outputs((Path(args.report), json.dumps(report, indent=2, sort_keys=True) + "\n"))
    except (StericZipError, OSError) as exc:
        return _fail(str(exc))
    for cell in report["cells"]:
        status = "pass" if cell["passed"] else "FAIL"
        print(
            f"{status}  {cell['problem']:>14} n={cell['dim']:<3} "
            f"rate={cell['success_rate']:.2f} (need {cell['success_threshold']:.2f}) "
            f"best={cell['best']:.3e} median_evals={cell['median_evals']:.0f}"
        )
    print(f"wrote {args.report}")
    return EXIT_OK if report["all_passed"] else EXIT_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stericzip",
        description="Build and analyze steric-zipper fibril models from a two-chain template.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="run the full mutation/placement/replication pipeline")
    p.add_argument("--template", required=True, help="template PDB path (chains A and B)")
    p.add_argument("--sequence", required=True, help="six-letter Ala/Gly sequence, e.g. GAAAAG")
    p.add_argument("--out", required=True, help="output model PDB path")
    p.add_argument("--seed", type=int, default=None, help="optimizer seed (default: the spec's optimizer.seed, else 0)")
    p.add_argument("--sigma", type=float, default=None, help=f"contact sigma in A (default {LJParams().sigma})")
    p.add_argument("--epsilon", type=float, default=None, help="contact well depth (default 1.0)")
    p.add_argument("--full-sum", action="store_true",
                   help="sum the contact energy over every anchor-free pair, not only the contact pairs")
    p.add_argument("--spec", default=None, help="JSON file with FibrilSpec overrides")
    p.add_argument("--model-name", default=None, help="name recorded in the report (default: the spec's, else model)")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("mutate", help="mutate one six-residue chain and renumber it 1-6")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--chain", required=True)
    p.add_argument("--sequence", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_mutate)

    p = sub.add_parser("transform", help="add a rigid-transformed copy of a chain")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--chain", required=True)
    p.add_argument("--new-chain", required=True)
    p.add_argument("--matrix", type=float, nargs=9, required=True, help="row-major 3x3 rotation")
    p.add_argument("--translate", type=float, nargs=3, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("energy", help="hydrogen-bond, clash, and contact-energy report")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--sigma", type=float, default=LJParams().sigma)
    p.add_argument("--epsilon", type=float, default=LJParams().epsilon)
    p.add_argument("--hb-c", type=float, default=DEFAULT_HB_PARAMS.c, help="10-12 repulsion coefficient")
    p.add_argument("--hb-d", type=float, default=DEFAULT_HB_PARAMS.d, help="10-12 attraction coefficient")
    p.add_argument("--report", required=True)
    p.set_defaults(func=_cmd_energy)

    p = sub.add_parser("bench", help="seeded optimizer benchmark table")
    p.add_argument("--suite", default="classic")
    p.add_argument("--dims", default=",".join(map(str, DEFAULT_BENCH_DIMS)))
    p.add_argument("--runs", type=int, default=DEFAULT_BENCH_RUNS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=DEFAULT_BENCH_BUDGET, help="max evaluations per run")
    p.add_argument("--report", required=True)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
