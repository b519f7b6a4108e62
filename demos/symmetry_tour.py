"""Walk through the lattice operations that assemble the twelve-chain cell.

Starting from the two-chain template: apply the two-fold screw to build
sheet 2, then replicate both sheets by the stacking translation.  Prints
the chain layout by strand level at each step.

Run:  python demos/symmetry_tour.py
"""

import numpy as np

from stericzip import (
    RigidTransform,
    load_template,
    replicate_lattice,
    transform_chain,
)
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

structure = load_template()
structure = transform_chain(structure, "A", screw, "G")
structure = transform_chain(structure, "B", screw, "H")
print("after the screw:", structure.chain_ids())

full = replicate_lattice(structure, default_lattice())
print("after replication:", full.chain_ids())
print("stacking step:", INTRA_SHEET_STEP, "\n")

print("strand levels (chain, mean y, mean z):")
for chain in full.chains:
    centroid = chain.positions().mean(axis=0)
    sheet = "sheet 1" if centroid[2] > 0 else "sheet 2"
    print(f"  {chain.chain_id}: y = {centroid[1]:8.3f}   z = {centroid[2]:7.3f}   ({sheet})")

# neighbours within a translation family differ by exactly one step
a = full.chain("A").positions()
c = full.chain("C").positions()
assert np.array_equal(c, a + INTRA_SHEET_STEP)
print("\nchain C is chain A shifted by exactly", INTRA_SHEET_STEP)
