"""Steric-zipper fibril model building.

The package turns a two-chain beta-strand template into twelve-chain
cross-beta fibril models: residues are mutated to an Ala/Gly hexapeptide,
the opposing sheet is generated by the template's two-fold screw, and its
translation is the minimum of a Lennard-Jones energy over the inter-sheet
contact atoms.  The geometry places those atoms: in closed form where at
most two contacts can reach their floor, and otherwise by Newton descent
from the template screw.  A seeded simulated-annealing evolutionary search
only checks that answer.  The lattice is then completed by pure
translations.  PDB input and output are byte-exact for files this
package writes.
"""

from .benchmarks import CLASSIC_SUITE, run_benchmark
from .builder import (
    BuildReport,
    FibrilSpec,
    PlacementOutcome,
    apply_sequence,
    build_fibril_model,
    mutate_residue,
    place_opposing_sheet,
    solve_contact_placement,
    validate_sequence,
)
from .energy import (
    ContactPair,
    DEFAULT_HB_PARAMS,
    HBond,
    HBParams,
    LJParams,
    TEMPLATE_CONTACT_SIGMA,
    clash_audit,
    detect_hbonds,
    hb_pair_energy,
    hb_params_from_minimum,
    lj_pair_energy,
    structure_energy_report,
)
from .errors import (
    AtomNotFoundError,
    BuildError,
    MutationError,
    ObjectiveError,
    PdbParseError,
    PdbWriteError,
    RefinementError,
    ResidueMismatchError,
    SelectionError,
    SingularityError,
    StericZipError,
    StructureError,
)
from .geometry import (
    RigidTransform,
    SheetLattice,
    cbeta_position,
    reconcile_translation,
    replicate_lattice,
    transform_chain,
)
from .optimize import (
    Objective,
    OptimizationResult,
    OptimizerConfig,
    local_refine,
    minimize_saec,
    uniform_bounds,
)
from .pdbio import (
    AtomSelector,
    Structure,
    atom_row,
    parse_pdb,
    write_pdb,
)
from .template import (
    DEFAULT_ANCHOR_SELECTORS,
    DEFAULT_FREE_SELECTORS,
    INTRA_SHEET_STEP,
    PALINDROME_WINDOWS,
    SHEET_FLIP_ROTATION,
    STRAND_SPACING,
    TEMPLATE_SHEET_TRANSLATION,
    default_lattice,
    load_template,
    synthetic_template,
)

__version__ = "0.1.0"
