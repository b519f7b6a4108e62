"""Test structures written as one row per atom, and read back the same way."""

import numpy as np

from stericzip import Structure


def structure_from_rows(rows, headers=(), **columns):
    """Structure of (chain id, residue number, residue name, atom name, position) rows, in record order.

    A residue starts where the chain id or the residue number changes, and a
    chain where the chain id does.  Atoms have no alternate location,
    occupancy 1, B-factor 0, the first letter of their name as element and
    no segment id or charge; ``columns`` replaces any of these atom columns whole.
    """
    rows = list(rows)
    n = len(rows)
    res_starts = [k for k in range(n) if k == 0 or rows[k][:2] != rows[k - 1][:2]]
    chain_starts = [r for r, k in enumerate(res_starts) if r == 0 or rows[k][0] != rows[res_starts[r - 1]][0]]
    atom_columns = dict(alt_locs=[""] * n, occupancy=np.ones(n), temp_factor=np.zeros(n),
                        elements=[row[3][0] for row in rows], hetatm=np.zeros(n, dtype=bool), seg_ids=[""] * n,
                        charges=[""] * n)
    return Structure.from_columns(
        headers, [rows[res_starts[r]][0] for r in chain_starts], **atom_columns | columns,
        names=[row[3] for row in rows], coords=[row[4] for row in rows], res_starts=res_starts + [n],
        res_seqs=[rows[k][1] for k in res_starts], res_names=[rows[k][2] for k in res_starts],
        chain_starts=chain_starts + [len(res_starts)],
    )


def rows_of(structure):
    """(chain id, residue number, residue name, atom name, position) of every atom, in record order."""
    residues = structure.atom_residues()
    ids = structure.chain_ids()
    return list(zip([ids[c] for c in structure.atom_chains().tolist()], structure.res_seqs[residues].tolist(),
                    structure.res_names[residues].tolist(), structure.names.tolist(), structure.coords))
