"""Rigid-body transforms and the lattice replication that builds the fibril.

A fibril model is generated from a two-chain asymmetric unit: sheet 2 is
the image of sheet 1 under a fixed rotation-plus-translation, and the
remaining chains follow by pure translations along the stacking axis.
Transforms are stored explicitly as (rotation, translation) so that the
composition order is unambiguous: ``a.compose(b)`` applies ``b`` first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StructureError
from .pdbio import Structure

_ORTHO_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class RigidTransform:
    """Rotation (orthogonal 3x3, det +/-1) followed by a translation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rotation", np.array(self.rotation, dtype=np.float64))
        object.__setattr__(self, "translation", np.array(self.translation, dtype=np.float64))
        if self.rotation.shape != (3, 3) or self.translation.shape != (3,):
            raise StructureError("rigid transform needs a 3x3 rotation and a 3-vector translation")
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

    def inverse(self) -> "RigidTransform":
        rt = self.rotation.T
        return RigidTransform(rt, -(rt @ self.translation))

    def with_translation(self, translation) -> "RigidTransform":
        return RigidTransform(self.rotation.copy(), translation)


@dataclass(frozen=True, eq=False)
class SheetLattice:
    """Stacking step within a sheet plus the transform generating sheet 2."""

    intra_sheet_step: np.ndarray
    sheet2_transform: RigidTransform

    def __post_init__(self):
        object.__setattr__(
            self, "intra_sheet_step", np.array(self.intra_sheet_step, dtype=np.float64)
        )
        if self.intra_sheet_step.shape != (3,):
            raise StructureError("intra-sheet step must be a 3-vector")
        if not np.any(self.intra_sheet_step):
            raise StructureError("intra-sheet step must be nonzero")


def transform_chain(
    structure: Structure, chain_id: str, transform: RigidTransform, new_id: str
) -> Structure:
    """Return ``structure`` extended with a transformed copy of one chain.

    Residue and atom metadata are copied; only positions change.
    """
    if structure.has_chain(new_id):
        raise StructureError(f"chain id {new_id!r} already in use")
    source = structure.chain(chain_id)
    out = structure.copy()
    new_chain = source.copy()
    new_chain.chain_id = new_id
    for atom in new_chain.atoms():
        atom.chain_id = new_id
        atom.position = transform.apply(atom.position)
    out.chains.append(new_chain)
    out.validate()
    out.renumber_serials()
    return out


# Chain naming of the twelve-chain fibril cell: sheet 1 holds A, B and the
# translated copies C, D (up) and E, F (down); sheet 2 holds G, H with
# copies I, J and K, L.
_REPLICA_MAP = (
    ("C", "A", +1.0),
    ("D", "B", +1.0),
    ("E", "A", -1.0),
    ("F", "B", -1.0),
    ("I", "G", +1.0),
    ("J", "H", +1.0),
    ("K", "G", -1.0),
    ("L", "H", -1.0),
)


def replicate_lattice(
    structure: Structure, lattice: SheetLattice, source_ids=("A", "B", "G", "H")
) -> Structure:
    """Expand the four source chains into the full twelve-chain arrangement.

    C, D and E, F are A, B shifted by +/- the intra-sheet step; I, J and
    K, L likewise from G, H.  Chains are returned in alphabetical order.
    """
    for cid in source_ids:
        if not structure.has_chain(cid):
            raise StructureError(f"replication source chain {cid!r} missing")
    out = structure.copy()
    step = lattice.intra_sheet_step
    for new_id, src_id, sign in _REPLICA_MAP:
        if out.has_chain(new_id):
            raise StructureError(f"chain id {new_id!r} already in use")
        chain = out.chain(src_id).copy()
        chain.chain_id = new_id
        for atom in chain.atoms():
            atom.chain_id = new_id
            atom.position = atom.position + sign * step
        out.chains.append(chain)
    out.chains.sort(key=lambda c: c.chain_id)
    out.validate()
    out.renumber_serials()
    return out


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


def cbeta_position(
    n: np.ndarray, ca: np.ndarray, c: np.ndarray, bond: float = 1.521, angle_deg: float = 109.47
) -> np.ndarray:
    """Standard tetrahedral side-chain branch point off CA.

    Places CB at ``bond`` Angstroms from CA, making equal angles with the
    CA->N and CA->C bonds, on the side matching L-amino-acid chirality.
    """
    n = np.asarray(n, dtype=np.float64)
    ca = np.asarray(ca, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    u1 = n - ca
    u2 = c - ca
    u1 /= np.linalg.norm(u1)
    u2 /= np.linalg.norm(u2)
    bisector = u1 + u2
    bisector /= np.linalg.norm(bisector)
    perp = np.cross(u1, u2)
    perp /= np.linalg.norm(perp)
    # Component along the bisector fixing the angle to both bonds, the rest
    # out of plane; the +perp branch is the L configuration.
    cos_to_bonds = float(np.dot(bisector, u1))
    p = np.cos(np.radians(angle_deg)) / cos_to_bonds
    q = np.sqrt(max(0.0, 1.0 - p * p))
    direction = p * bisector + q * perp
    return ca + bond * direction
