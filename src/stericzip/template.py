"""Synthetic two-sheet hexapeptide template and its lattice constants.

The packaged template stands in for a GYMLGS steric-zipper crystal form
(residues 127-132).  It ships as chains A and B: two parallel six-residue
strands running along x, stacked along y at half the lattice period, with
backbone carbonyls reaching toward the neighbouring strand so that the
distance-based detector finds one N...O hydrogen bond per residue step.
All side chains point to one face of the sheet (toward -z), which is the
face that zips against sheet 2.

Sheet 2 (chains G, H) is generated from A, B by a two-fold screw about x:
rotation diag(1, -1, -1) plus the translation (9.075, 4.7765, 0).  The
remaining chains follow by +/- (0, 9.5530, 0) within each sheet.

The strand geometry is idealized: bond lengths are near standard values
and the repeat is exactly periodic, which keeps every derived quantity of
the build pipeline deterministic.  Side chains beyond CB are schematic
stubs; the build mutates them away before any energy is evaluated.
"""

from __future__ import annotations

from importlib import resources

import numpy as np

from .geometry import RigidTransform, SheetLattice, cbeta_position
from .pdbio import Structure, decode_pdb, parse_pdb

# Lattice operations of the template crystal form.
SHEET_FLIP_ROTATION = np.diag([1.0, -1.0, -1.0])
TEMPLATE_SHEET_TRANSLATION = np.array([9.075, 4.7765, 0.0])
INTRA_SHEET_STEP = np.array([0.0, 9.553, 0.0])
STRAND_SPACING = 4.7765  # y offset of chain B from chain A, half the lattice step

DEFAULT_ANCHOR_SELECTORS = ("A.ALA3.CB", "B.ALA4.CB")
DEFAULT_FREE_SELECTORS = ("G.ALA4.CB", "H.ALA3.CB")

# The three hexapeptide windows of the AGAAAAGA palindrome.
PALINDROME_WINDOWS = ("AGAAAA", "GAAAAG", "AAAAGA")

TEMPLATE_RESIDUES = ((127, "GLY"), (128, "TYR"), (129, "MET"), (130, "LEU"), (131, "GLY"), (132, "SER"))

RESIDUE_RISE = 3.612
PLANE_HEIGHT = 4.0

# Backbone offsets within one residue, relative to the residue origin on
# the strand axis; the chain is exactly periodic with period RESIDUE_RISE.
# Bond lengths are near standard (N-CA 1.456, CA-C 1.507, C-N' 1.329,
# C=O 1.231) and no non-bonded intra-chain pair comes closer than 2.1 A.
_BACKBONE_OFFSETS = {
    "N": np.array([0.000, 0.800, 0.000]),
    "CA": np.array([1.089, -0.100, -0.350]),
    "C": np.array([2.551, 0.000, 0.000]),
    "O": np.array([2.551, -1.231, 0.000]),
}

# Schematic side-chain extensions measured from CB.
_SIDE_CHAIN_OFFSETS = {
    "TYR": (("CG", np.array([0.40, 0.10, -1.45])),),
    "MET": (("CG", np.array([0.40, 0.10, -1.45])), ("SD", np.array([0.00, 0.20, -3.20]))),
    "LEU": (("CG", np.array([0.40, 0.10, -1.45])),),
    "SER": (("OG", np.array([0.40, 0.10, -1.35])),),
    "GLY": (),
}

_ELEMENTS = {"N": "N", "CA": "C", "C": "C", "O": "O", "CB": "C", "CG": "C", "SD": "S", "OG": "O"}


def default_lattice() -> SheetLattice:
    return SheetLattice(
        INTRA_SHEET_STEP,
        RigidTransform(SHEET_FLIP_ROTATION, TEMPLATE_SHEET_TRANSLATION),
    )


def _residue_atoms(origin: np.ndarray, res_name: str) -> dict[str, np.ndarray]:
    """Positions of one template residue's atoms by name, in record order."""
    atoms = {name: origin + offset for name, offset in _BACKBONE_OFFSETS.items()}
    if res_name != "GLY":
        atoms["CB"] = cb = cbeta_position(atoms["N"], atoms["CA"], atoms["C"])
        atoms.update((name, cb + offset) for name, offset in _SIDE_CHAIN_OFFSETS[res_name])
    return atoms


def synthetic_template() -> Structure:
    """Deterministically generate the packaged two-chain template."""
    headers = [
        "REMARK   1 SYNTHETIC TWO-SHEET HEXAPEPTIDE ZIPPER TEMPLATE (GYMLGS 127-132)",
        "REMARK   1 CHAINS A+B FORM ONE PARALLEL SHEET; SHEET TWO FOLLOWS BY THE",
        "REMARK   1 TWO-FOLD SCREW ABOUT X WITH TRANSLATION (9.075, 4.7765, 0.000)",
    ]
    names, positions, res_starts = [], [], [0]
    for y_shift in (0.0, STRAND_SPACING):  # chains A and B
        for index, (_, res_name) in enumerate(TEMPLATE_RESIDUES):
            atoms = _residue_atoms(np.array([RESIDUE_RISE * index, y_shift, PLANE_HEIGHT]), res_name)
            names += atoms
            positions += atoms.values()
            res_starts.append(len(names))
    n = len(names)
    # Quantized to the F8.3 grid so the shipped file round-trips field for field.
    return Structure.from_columns(
        headers, ["A", "B"], names=names, alt_locs=[""] * n, coords=np.round(positions, 3), occupancy=np.ones(n),
        temp_factor=np.zeros(n), elements=[_ELEMENTS[name] for name in names], hetatm=np.zeros(n, dtype=bool),
        res_starts=res_starts, res_seqs=[seq for seq, _ in TEMPLATE_RESIDUES] * 2,
        res_names=[name for _, name in TEMPLATE_RESIDUES] * 2, chain_starts=np.arange(3) * len(TEMPLATE_RESIDUES),
    )


def template_path():
    """Path-like handle on the packaged template PDB file."""
    return resources.files("stericzip").joinpath("data/template.pdb")


def load_template() -> Structure:
    """Parse the packaged template file."""
    return parse_pdb(decode_pdb(template_path().read_bytes()))
