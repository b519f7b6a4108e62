"""Rewrites of the template's text that must not change the built model.

Each rewrite keeps every atom and its coordinates and changes only how the
file lists them: the order of the atoms within a residue, the order of the
chains, the residue numbers, or a MODEL/ENDMDL wrapper around the records.
The model built from the rewritten text must hold the same coordinate bytes
as the model built from the packaged text, atom for atom, keyed by (chain,
residue number, atom name).  The order of the spec's contacts is left out:
it changes the model's last bits today.
"""

from functools import cache

import numpy as np
import pytest

from stericzip import PALINDROME_WINDOWS, FibrilSpec, OptimizerConfig, build_fibril_model, parse_pdb
from stericzip.template import template_path

TEMPLATE = template_path().read_text()


def coordinate_blocks(text):
    """The file's lines as (lines before the atoms, [lines of each chain up to its TER], lines after)."""
    lines = text.splitlines()
    first = next(k for k, line in enumerate(lines) if line.startswith("ATOM"))
    ters = [k for k, line in enumerate(lines) if line.startswith("TER")]
    chains = [lines[start:stop + 1] for start, stop in zip([first] + [k + 1 for k in ters[:-1]], ters)]
    return lines[:first], chains, lines[ters[-1] + 1:]


def joined(head, chains, tail):
    return "\n".join(head + [line for chain in chains for line in chain] + tail) + "\n"


def shuffled_within_residues(text):
    """Each residue's atom records in a shuffled order; columns 22-26 are its chain and number."""
    head, chains, tail = coordinate_blocks(text)
    rng = np.random.default_rng(0)
    shuffled = []
    for chain in chains:
        residues = {}
        for line in chain[:-1]:
            residues.setdefault(line[21:26], []).append(line)
        shuffled.append([line for atoms in residues.values() for line in rng.permutation(atoms).tolist()])
        shuffled[-1].append(chain[-1])
    assert shuffled != chains
    return joined(head, shuffled, tail)


def later_chain_first(text):
    """Chain B's records, with its TER, ahead of chain A's."""
    head, chains, tail = coordinate_blocks(text)
    return joined(head, chains[::-1], tail)


def renumbered(text):
    """Every residue number, in the atom and TER records (columns 23-26), plus 100."""
    return "".join(
        line[:22] + f"{int(line[22:26]) + 100:4d}" + line[26:] if line.startswith(("ATOM", "TER")) else line
        for line in text.splitlines(keepends=True)
    )


def one_model(text):
    """The records wrapped in MODEL 1 ... ENDMDL, ahead of END."""
    head, chains, tail = coordinate_blocks(text)
    return joined(head + ["MODEL        1"], chains, ["ENDMDL"] + tail)


REWRITES = {rewrite.__name__: rewrite for rewrite in (shuffled_within_residues, later_chain_first, renumbered,
                                                     one_model)}


@cache
def model_coordinates(text, sequence, full_sum):
    """The coordinate bytes of the seed-0 model built from ``text``, by (chain, residue number, atom name)."""
    spec = FibrilSpec(sequence=sequence, full_sum=full_sum, optimizer=OptimizerConfig(max_evaluations=40_000, seed=0))
    model, _ = build_fibril_model(parse_pdb(text), spec)
    ids = model.chain_ids()
    keys = zip([ids[c] for c in model.atom_chains().tolist()], model.res_seqs[model.atom_residues()].tolist(),
               model.names.tolist())
    coordinates = {key: row.tobytes() for key, row in zip(keys, model.coords)}
    assert len(coordinates) == model.n_atoms()
    return coordinates


@pytest.mark.parametrize("full_sum", [False, True])
@pytest.mark.parametrize("sequence", PALINDROME_WINDOWS)
@pytest.mark.parametrize("rewrite", REWRITES)
def test_rewritten_template_builds_the_same_model(rewrite, sequence, full_sum):
    rewritten = REWRITES[rewrite](TEMPLATE)
    assert rewritten != TEMPLATE and parse_pdb(rewritten).n_atoms() == parse_pdb(TEMPLATE).n_atoms()
    assert model_coordinates(rewritten, sequence, full_sum) == model_coordinates(TEMPLATE, sequence, full_sum)
