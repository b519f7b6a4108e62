"""The package names that the benchmark in perfbench/ patches and calls.

perfbench/tracing.py wraps stericzip functions by module and class
attribute, and perfbench/workloads.py stacks fibril cells through the
structure API.  A name either needs that leaves the package fails here,
in the tier-1 suite, and not only in the benchmark's own self-test.
"""

from pathlib import Path

import pytest

import stericzip.builder as builder
import stericzip.energy as energy
import stericzip.optimize as optimize
import stericzip.pdbio as pdbio
from stericzip import FibrilSpec, build_fibril_model, load_template, parse_pdb, write_pdb

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
