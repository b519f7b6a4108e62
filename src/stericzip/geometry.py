"""Rigid-body transforms and the lattice replication that builds the fibril.

A fibril model is generated in one pass from a two-chain asymmetric unit:
sheet 2 is the image of sheet 1 under a fixed rotation-plus-translation
(the screw), and the remaining chains follow by translations along the
stacking axis.  ``FIBRIL_CELL`` names every chain by source, screw and step.
Transforms are stored explicitly as (rotation, translation) so that the
composition order is unambiguous: ``a.compose(b)`` applies ``b`` first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MutationError, StructureError
from .pdbio import Structure

_ORTHO_TOL = 1e-9
CB_BOND_LENGTH = 1.521  # A, CA-CB
CB_ANGLE_DEG = 109.47  # degrees from CA-CB to each of CA-N and CA-C
_COS_CB_ANGLE = float(np.cos(np.radians(CB_ANGLE_DEG)))


@dataclass(frozen=True, eq=False)
class RigidTransform:
    """Rotation (orthogonal 3x3, det +/-1) followed by a translation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rotation", np.array(self.rotation, dtype=np.float64))
        self._set_translation(self.translation, self.rotation.shape == (3, 3), np.isfinite(self.rotation).all())
        err = np.max(np.abs(self.rotation.T @ self.rotation - np.eye(3)))
        det = float(np.linalg.det(self.rotation))
        if err > _ORTHO_TOL or abs(abs(det) - 1.0) > _ORTHO_TOL:
            raise StructureError(
                f"rotation part is not orthogonal (|R^T R - I| = {err:.2e}, det = {det:.12f})"
            )

    @classmethod
    def identity(cls) -> "RigidTransform":
        return cls(np.eye(3), np.zeros(3))

    @classmethod
    def from_values(cls, values) -> "RigidTransform":
        """Build from 12 reals: row-major rotation, then translation."""
        values = np.asarray(values, dtype=np.float64).reshape(12)
        return cls(values[:9].reshape(3, 3), values[9:])

    def to_values(self) -> list[float]:
        return [*self.rotation.reshape(9).tolist(), *self.translation.tolist()]

    def apply(self, points: np.ndarray) -> np.ndarray:
        """rotation @ p + translation, for a single 3-vector or an (N, 3) array."""
        points = np.asarray(points, dtype=np.float64)
        if points.ndim == 1:
            return self.rotation @ points + self.translation
        return points @ self.rotation.T + self.translation

    def compose(self, other: "RigidTransform") -> "RigidTransform":
        """Transform applying ``other`` first, then ``self``."""
        return RigidTransform(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
        )

    def _set_translation(self, translation, rotation_shaped=True, rotation_finite=True) -> None:
        """Set the translation; raise unless it is a 3-vector and both parts are finite (NaN passes the R^T R test)."""
        object.__setattr__(self, "translation", translation := np.array(translation, dtype=np.float64))
        if not rotation_shaped or translation.shape != (3,):
            raise StructureError("rigid transform needs a 3x3 rotation and a 3-vector translation")
        if not (rotation_finite and np.isfinite(translation).all()):
            raise StructureError("rigid transform must be finite")

    def with_translation(self, translation) -> "RigidTransform":
        """This transform's rotation, checked already, followed by ``translation``, which alone is checked."""
        moved = object.__new__(RigidTransform)
        object.__setattr__(moved, "rotation", self.rotation.copy())
        moved._set_translation(translation)
        return moved


@dataclass(frozen=True, eq=False)
class SheetLattice:
    """Stacking step within a sheet plus the transform generating sheet 2."""

    intra_sheet_step: np.ndarray
    sheet2_transform: RigidTransform

    def __post_init__(self):
        object.__setattr__(
            self, "intra_sheet_step", np.array(self.intra_sheet_step, dtype=np.float64)
        )
        if self.intra_sheet_step.shape != (3,) or not np.isfinite(self.intra_sheet_step).all():
            raise StructureError("intra-sheet step must be a finite 3-vector")
        if not np.any(self.intra_sheet_step):
            raise StructureError("intra-sheet step must be nonzero")


def transform_chain(
    structure: Structure, chain_id: str, transform: RigidTransform, new_id: str
) -> Structure:
    """Return a new structure: ``structure`` plus a moved copy of one chain.

    The copy takes the new chain id, which must be unused, and the source
    chain's rows; only its coordinates differ, the slice of the source block
    moved by ``transform``.
    """
    moved = transform.apply(structure.coords[structure.atom_slice(chain_id)])
    chains = [(c, c) for c in structure.chain_ids()] + [(new_id, chain_id)]
    return structure.with_chains(chains, np.concatenate([structure.coords, moved]))


# The twelve-chain fibril cell as (chain id, source chain, screwed?, step
# multiple): sheet 1 holds A, B and their translated copies C, D (up) and
# E, F (down); sheet 2 holds the screw images G, H of A, B, with copies
# I, J and K, L.  The asymmetric unit is the source chains A and B.
FIBRIL_CELL = (
    ("A", "A", False, 0), ("B", "B", False, 0),
    ("C", "A", False, +1), ("D", "B", False, +1),
    ("E", "A", False, -1), ("F", "B", False, -1),
    ("G", "A", True, 0), ("H", "B", True, 0),
    ("I", "A", True, +1), ("J", "B", True, +1),
    ("K", "A", True, -1), ("L", "B", True, -1),
)
UNIT_CHAINS = ("A", "B")
# Sheet-2 chains of the cell's first layer, by the unit chain they image.
SCREW_SOURCES = {new_id: src for new_id, src, screwed, shift in FIBRIL_CELL if screwed and not shift}


def replicate_lattice(unit: Structure, lattice: SheetLattice) -> Structure:
    """Build the twelve-chain cell from the asymmetric unit's chains A and B.

    Each chain of ``FIBRIL_CELL`` takes the rows of its source chain; its
    coordinates are the slice of the unit's block moved by
    ``lattice.sheet2_transform`` when screwed and then shifted by its
    multiple of the intra-sheet step.  Headers are carried over and chains
    come out in alphabetical order.  A unit missing A or B, or holding any
    other chain, raises StructureError.
    """
    extra = sorted(set(unit.chain_ids()) - set(UNIT_CHAINS))
    if extra:
        raise StructureError(f"asymmetric unit may hold only chains A and B, not {extra}")
    blocks = {}  # each source chain's block as it is and screwed, the screw applied once
    for src_id in UNIT_CHAINS:
        block = unit.coords[unit.atom_slice(src_id)]
        blocks[src_id, False], blocks[src_id, True] = block, lattice.sheet2_transform.apply(block)
    moved = [blocks[src_id, screwed] + shift * lattice.intra_sheet_step if shift else blocks[src_id, screwed]
             for _, src_id, screwed, shift in FIBRIL_CELL]
    return unit.with_chains([(new_id, src_id) for new_id, src_id, _, _ in FIBRIL_CELL], np.concatenate(moved))


def reconcile_translation(
    initial_free: np.ndarray, optimized_free: np.ndarray, base: RigidTransform
) -> tuple[RigidTransform, float]:
    """Collapse per-atom displacements onto one rigid translation.

    The base transform's translation is shifted by the mean displacement
    (optimized - initial); the residual reports the largest deviation of
    any individual displacement from that mean, in Angstroms.  A large
    residual means the independently optimized atoms do not agree on a
    single rigid motion.
    """
    initial = np.atleast_2d(np.asarray(initial_free, dtype=np.float64))
    optimized = np.atleast_2d(np.asarray(optimized_free, dtype=np.float64))
    if initial.shape != optimized.shape or initial.shape[1] != 3:
        raise StructureError("initial and optimized point lists must be matching (N, 3) arrays")
    if initial.shape[0] == 0:
        raise StructureError("cannot reconcile an empty displacement list")
    displacements = optimized - initial
    mean = displacements.mean(axis=0)
    residual = float(np.max(np.linalg.norm(displacements - mean, axis=1)))
    return base.with_translation(base.translation + mean), residual


def cbeta_position(n: np.ndarray, ca: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Standard tetrahedral side-chain branch point off CA.

    Places CB at CB_BOND_LENGTH Angstroms from CA, at CB_ANGLE_DEG to both
    the CA->N and CA->C bonds, on the side matching L-amino-acid chirality.
    The arithmetic is that of np.linalg.norm and np.cross, bit for bit,
    without their per-call cost: the norm of a vector v is sqrt(v . v).
    Raises MutationError when N, CA and C coincide or lie on one line.
    """
    ca = np.asarray(ca, dtype=np.float64)
    u1 = np.asarray(n, dtype=np.float64) - ca
    u2 = np.asarray(c, dtype=np.float64) - ca
    lengths = math.sqrt(u1.dot(u1)), math.sqrt(u2.dot(u2))
    if 0.0 in lengths:
        raise MutationError("N or C lies on CA, so CB has no direction")
    u1 /= lengths[0]
    u2 /= lengths[1]
    bisector = u1 + u2
    (a0, a1, a2), (b0, b1, b2) = u1.tolist(), u2.tolist()
    perp = np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])  # np.cross(u1, u2)
    length = math.sqrt(perp.dot(perp))
    if not length:  # N, CA and C on one line; a zero bisector (u1 = -u2) makes perp zero too
        raise MutationError("N, CA and C lie on one line, so CB has no direction")
    bisector /= math.sqrt(bisector.dot(bisector))
    perp /= length
    # Component along the bisector fixing the angle to both bonds, the rest
    # out of plane; the +perp branch is the L configuration.
    p = _COS_CB_ANGLE / float(bisector.dot(u1))
    q = math.sqrt(max(0.0, 1.0 - p * p))
    return ca + CB_BOND_LENGTH * (p * bisector + q * perp)
