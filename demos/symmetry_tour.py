"""Walk through the lattice operations that assemble the twelve-chain cell.

Shows the two-fold screw on its own, then builds the whole cell from
the two-chain template in one call: each chain is a copy of A or B,
screwed into sheet 2 or not, and shifted by a multiple of the stacking
step.  Prints the chain table and the layout by strand level.

Run:  python demos/symmetry_tour.py
"""

import numpy as np

from stericzip import RigidTransform, load_template, replicate_lattice
from stericzip.geometry import FIBRIL_CELL
from stericzip.template import (
    INTRA_SHEET_STEP,
    SHEET_FLIP_ROTATION,
    TEMPLATE_SHEET_TRANSLATION,
    default_lattice,
)

screw = RigidTransform(SHEET_FLIP_ROTATION, TEMPLATE_SHEET_TRANSLATION)
print("sheet-2 screw: rotation diag(1,-1,-1), translation", screw.translation)
print("screw applied to the origin:", screw.apply([0.0, 0.0, 0.0]))
print("screw composed with itself:", screw.compose(screw).translation,
      "(a pure lattice translation along x)\n")

print("the cell (chain: source, screwed, step multiple):")
for new_id, source, screwed, shift in FIBRIL_CELL:
    print(f"  {new_id}: {source}  {'screw' if screwed else '     '}  {shift:+d}")

template = load_template()
full = replicate_lattice(template, default_lattice())
print("\nfrom chains", template.chain_ids(), "to", full.chain_ids())
print("stacking step:", INTRA_SHEET_STEP, "\n")

print("strand levels (chain, mean y, mean z):")
for chain in full.chains:
    centroid = chain.coords.mean(axis=0)
    sheet = "sheet 1" if centroid[2] > 0 else "sheet 2"
    print(f"  {chain.chain_ids()[0]}: y = {centroid[1]:8.3f}   z = {centroid[2]:7.3f}   ({sheet})")

# sheet 2 is the screw image of sheet 1, and neighbours within a
# translation family differ by exactly one step
a = full.chain("A").coords
assert np.array_equal(full.chain("G").coords, screw.apply(a))
assert np.array_equal(full.chain("C").coords, a + INTRA_SHEET_STEP)
print("\nchain G is the screw image of chain A")
print("chain C is chain A shifted by exactly", INTRA_SHEET_STEP)
