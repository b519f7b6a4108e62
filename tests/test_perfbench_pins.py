"""The package names and the command line that the benchmark in perfbench/ patches and calls.

perfbench/tracing.py wraps stericzip functions by module and class
attribute, perfbench/workloads.py stacks fibril cells through the
structure API, and its files workload checks a ``stericzip build``
subprocess against the in-process build.  A name either needs that leaves
the package, or a change to that contract, fails here, in the tier-1
suite, and not only in the benchmark's own self-test.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stericzip.builder as builder
import stericzip.energy as energy
import stericzip.optimize as optimize
import stericzip.pdbio as pdbio
from stericzip import FibrilSpec, OptimizerConfig, build_fibril_model, load_template, parse_pdb, write_pdb
from stericzip.template import template_path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    """The benchmark's ``tracing`` and ``workloads`` modules, imported as its runner imports them."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import workloads

    return tracing, workloads


def test_tracer_patches_the_pinned_names_and_restores_them(perfbench):
    tracing, _ = perfbench
    owners = (builder, energy, optimize, pdbio, pdbio.Structure)
    before = [dict(vars(owner)) for owner in owners]
    tracer = tracing.Tracer()
    try:
        tracing.install_stericzip(tracer)
        assert tracer._patched
        assert all(getattr(owner, attr) is not original for owner, attr, original in tracer._patched)
        builder.build_fibril_model(load_template(), FibrilSpec(sequence="GAAAAG"))
        names = {span[tracing.NAME] for span in tracer.spans}
        assert {"builder.build_fibril_model", "energy.clash_audit", "energy.detect_hbonds"} <= names
        # A full_sum build descends; optimize.refine_ms and refine_evals read this span.
        builder.build_fibril_model(load_template(), FibrilSpec(sequence="GAAAAG", full_sum=True))
        refines = [span[tracing.INFO] for span in tracer.spans if span[tracing.NAME] == "optimize.local_refine"]
        assert refines and all(evaluations > 0 for evaluations in refines)
    finally:
        tracer.restore()
    for owner, attributes in zip(owners, before):
        assert all(vars(owner).get(attr) is value for attr, value in attributes.items()), owner


@pytest.mark.parametrize("cells", [1, 2, 4])
def test_stacked_cells_round_trip(perfbench, cells):
    _, workloads = perfbench
    spec = FibrilSpec(sequence=workloads.FILES_WINDOW)
    model, _ = build_fibril_model(load_template(), spec)
    stack = workloads.stack_cells(model, cells, spec.lattice.intra_sheet_step)
    assert len(stack.chains) == 12 * cells and stack.n_atoms() == cells * model.n_atoms()
    assert [atom.name for atom in stack.atoms()] == stack.names.tolist()
    text = write_pdb(stack)
    assert write_pdb(parse_pdb(text)) == text


@pytest.mark.parametrize("window, seed", [("GAAAAG", 7), ("AAAAGA", 3_014_152_581)])
def test_cli_build_writes_the_in_process_model_and_report(perfbench, tmp_path, window, seed):
    # The files workload's side operation checks exactly this.
    _, workloads = perfbench
    env = dict(os.environ, PYTHONPATH=str(workloads.SRC))
    done = subprocess.run([sys.executable, "-m", "stericzip.cli", "build", "--template", str(template_path()),
                           "--sequence", window, "--out", "model.pdb", "--seed", str(seed)],
                          env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    spec = FibrilSpec(sequence=window, optimizer=OptimizerConfig(max_evaluations=workloads.BUILD_BUDGET, seed=seed))
    model, report = build_fibril_model(load_template(), spec)
    assert (tmp_path / "model.pdb").read_text() == write_pdb(model)
    expected = json.dumps(dict(report.to_dict(), seed=seed), indent=2, sort_keys=True) + "\n"
    assert (tmp_path / "model.pdb.report.json").read_text() == expected
