"""Nonbonded pair potentials, cluster energies and gradients, and the
geometric audits (hydrogen bonds, steric clashes) used to validate models.

Two interchangeable Lennard-Jones parameterizations are supported:

* well form      V(r) = 4 eps [ (sigma/r)^12 - (sigma/r)^6 ]
* coefficient    V(r) = A / r^12 - B / r^6        (A = 4 eps sigma^12, B = 4 eps sigma^6)

Every 12-6 value comes from one kernel, ``lj_kernel``.  The public
functions raise SingularityError for a pair closer than MIN_PAIR_DISTANCE;
optimizer objectives built on the kernel take that distance as a floor.

Backbone hydrogen bonds use the 10-12 form V(r) = C / r^12 - D / r^10,
whose minimum sits at sqrt(6C / 5D).  Hydrogen-bond *detection* is purely
geometric (N...O distance), because the structures handled here carry no
hydrogens.

Both audits, ``detect_hbonds`` and ``clash_audit``, take candidate pairs
from one cell-list neighbour search, so their cost is linear in the atom
count.  Their lists equal, in order and in every distance bit, those of a
dense N x N distance matrix scanned row by row and then stably sorted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularityError, StericZipError
from .pdbio import Atom, AtomSelector, Structure

MIN_PAIR_DISTANCE = 1e-12
HBOND_CUTOFF = 3.5


def _require_finite_positive(kind: str, **values) -> None:
    # `nan <= 0` is false, so a plain sign test would let nan through.
    for name, value in values.items():
        if not (math.isfinite(value) and value > 0):
            raise StericZipError(f"{kind} requires finite {name} > 0, got {value!r}")


@dataclass(frozen=True)
class LJParams:
    """Well depth (energy units) and zero-crossing distance (Angstroms)."""

    epsilon: float = 1.0
    sigma: float = 4.0

    def __post_init__(self):
        _require_finite_positive("LJParams", epsilon=self.epsilon, sigma=self.sigma)

    @property
    def r_min(self) -> float:
        """Distance of the potential minimum, 2^(1/6) sigma."""
        return 2.0 ** (1.0 / 6.0) * self.sigma


@dataclass(frozen=True)
class LJABParams:
    """Repulsion/attraction coefficients of the 12-6 form."""

    a: float
    b: float

    def __post_init__(self):
        _require_finite_positive("LJABParams", a=self.a, b=self.b)


@dataclass(frozen=True)
class HBParams:
    """Repulsion/attraction coefficients of the 10-12 hydrogen-bond form."""

    c: float
    d: float

    def __post_init__(self):
        _require_finite_positive("HBParams", c=self.c, d=self.d)

    @property
    def r_min(self) -> float:
        """Distance of the stationary point, sqrt(6C / 5D)."""
        return float(np.sqrt(6.0 * self.c / (5.0 * self.d)))


def lj_ab_from_lj(params: LJParams) -> LJABParams:
    """Coefficient form of a well-form parameter set."""
    return LJABParams(4.0 * params.epsilon * params.sigma**12, 4.0 * params.epsilon * params.sigma**6)


def lj_from_ab(params: LJABParams) -> LJParams:
    """Well form of a coefficient parameter set (exact inverse of lj_ab_from_lj)."""
    sigma = (params.a / params.b) ** (1.0 / 6.0)
    epsilon = params.b**2 / (4.0 * params.a)
    return LJParams(epsilon, sigma)


def hb_params_from_minimum(r0: float, depth: float) -> HBParams:
    """10-12 coefficients with the well at distance r0 and depth ``depth``."""
    _require_finite_positive("hb_params_from_minimum", r0=r0, depth=depth)
    d = 6.0 * depth * r0**10
    c = (5.0 / 6.0) * d * r0**2
    return HBParams(c, d)


# Defaults used for audit reports: well at 2.9 A, unit depth.
DEFAULT_HB_PARAMS = hb_params_from_minimum(2.9, 1.0)


def _check_distance(r) -> np.ndarray:
    r = np.asarray(r, dtype=np.float64)
    if np.any(r < MIN_PAIR_DISTANCE):
        raise SingularityError(f"pair distance below {MIN_PAIR_DISTANCE} A: {r!r}")
    return r


def lj_kernel(r2, params: LJParams, with_force: bool = False):
    """Each pair's energy above the well floor, from squared distances of any shape.

    V + eps = eps (2 s6 - 1)^2 with s6 = (sigma^2 / r2)^3 keeps full relative
    precision near r_min, where V itself rounds.  ``with_force`` also returns
    (dV/dr) / r.  r2 is floored at MIN_PAIR_DISTANCE^2, so a coincident pair
    gets a huge finite value and no force.
    """
    r2 = np.maximum(r2, MIN_PAIR_DISTANCE**2)
    s2 = params.sigma**2 / r2
    s6 = s2 * s2 * s2
    well = 2.0 * s6 - 1.0
    terms = params.epsilon * (well * well)
    if not with_force:
        return terms
    return terms, -24.0 * params.epsilon * s6 * well / r2


def lj_pair_energy(r, params: LJParams):
    """4 eps [(sigma/r)^12 - (sigma/r)^6]; r may be a scalar or an array."""
    r = _check_distance(r)
    out = lj_kernel(r * r, params) - params.epsilon
    return float(out) if out.ndim == 0 else out


def lj_ab_energy(r, params: LJABParams):
    """A / r^12 - B / r^6, evaluated in the equivalent well form."""
    return lj_pair_energy(r, lj_from_ab(params))


def hb_pair_energy(r, params: HBParams):
    """C / r^12 - D / r^10."""
    r = _check_distance(r)
    inv2 = r**-2.0
    inv10 = inv2**5
    out = params.c * inv10 * inv2 - params.d * inv10
    return float(out) if out.ndim == 0 else out


def _cluster_pairs(coords, pairs):
    """Checked points, pair indices, difference vectors and squared distances."""
    pts = np.asarray(coords, dtype=np.float64)
    if pts.ndim == 1:
        if pts.size % 3:
            raise StericZipError("flat coordinate vector length must be a multiple of 3")
        pts = pts.reshape(-1, 3)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise StericZipError("coordinates must be a flat 3N-vector or an (N, 3) array")
    if pts.shape[0] < 2:
        raise StericZipError("a cluster needs at least two atoms")
    if pairs is None:
        i, j = np.triu_indices(pts.shape[0], k=1)
    else:
        pairs = np.asarray(pairs, dtype=np.intp)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise StericZipError("pairs must be a sequence of (i, j) index tuples")
        if np.any(pairs < 0) or np.any(pairs >= pts.shape[0]):
            raise StericZipError("pair index out of range")
        if np.any(pairs[:, 0] == pairs[:, 1]):
            raise StericZipError("pair indices must be distinct")
        i, j = pairs[:, 0], pairs[:, 1]
    diff = pts[i] - pts[j]
    r2 = np.sum(diff * diff, axis=1)
    if np.any(r2 < MIN_PAIR_DISTANCE**2):
        raise SingularityError("coincident atoms in an evaluated pair")
    return pts, i, j, diff, r2


def lj_cluster_energy(coords, params: LJParams, pairs=None) -> float:
    """Sum of LJ pair energies over all i < j pairs, or over ``pairs`` only.

    ``coords`` is a flat 3N-vector (or an (N, 3) array).  Evaluated pairs
    closer than MIN_PAIR_DISTANCE raise SingularityError.
    """
    r2 = _cluster_pairs(coords, pairs)[-1]
    return float(np.sum(lj_kernel(r2, params) - params.epsilon))


def lj_cluster_gradient(coords, params: LJParams, pairs=None) -> np.ndarray:
    """Analytic gradient of lj_cluster_energy with the same pair selection.

    Returns a flat 3N-vector.
    """
    pts, i, j, diff, r2 = _cluster_pairs(coords, pairs)
    forces = lj_kernel(r2, params, with_force=True)[1][:, None] * diff
    grad = np.zeros_like(pts)
    np.add.at(grad, i, forces)
    np.add.at(grad, j, -forces)
    return grad.reshape(-1)


@dataclass(frozen=True)
class ContactPair:
    """A monitored inter-sheet contact between two selected atoms."""

    first: AtomSelector
    second: AtomSelector
    params: LJParams

    def __post_init__(self):
        if self.first == self.second:
            raise StericZipError("contact pair selectors must be distinct")


@dataclass(frozen=True, eq=False)
class HBond:
    """A backbone N...O pair within the detection cutoff."""

    donor: Atom
    acceptor: Atom
    distance: float


def _collect_atoms(structure: Structure, names=None) -> tuple[list[Atom], np.ndarray]:
    atoms = [a for a in structure.atoms() if names is None or a.name in names]
    if not atoms:
        return [], np.zeros((0, 3))
    return atoms, np.stack([a.position for a in atoms])


def _neighbour_pairs(first: np.ndarray, second: np.ndarray, cutoff: float):
    """Index pairs (i, j) of first[i] and second[j] in the same or adjacent cells.

    The points are binned into cubes with an edge of about ``cutoff``, so
    every pair within the cutoff is among the candidates.  One sort of the
    cell keys and 27 offset lookups make the cost linear in the points and
    candidates.  The pairs come in row-major (i, j) order, as np.nonzero on
    a dense distance matrix gives them.
    """
    if not math.isfinite(cutoff) or cutoff <= 0:
        raise StericZipError(f"audit cutoff must be finite and positive, got {cutoff!r}")
    n = len(first)
    if n == 0 or len(second) == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    points = np.concatenate([first, second])
    low = points.min(axis=0)
    # The pad absorbs rounding in the cell arithmetic, so a pair within the
    # cutoff is never two cells apart; the second bound keeps each axis to
    # 2^20 cells, so the keys fit in int64 at any cutoff.
    pad = (cutoff + float(np.max(np.abs(points)))) * 2.0**-40
    edge = max(cutoff + pad, float(np.max(points.max(axis=0) - low)) * 2.0**-20)
    cells = np.floor((points - low) / edge).astype(np.int64) + 1
    dims = cells.max(axis=0) + 2
    keys = (cells[:, 0] * dims[1] + cells[:, 1]) * dims[2] + cells[:, 2]
    order = np.argsort(keys[n:])
    sorted_keys = keys[n:][order]
    step = np.arange(-1, 2)
    offsets = ((step[:, None, None] * dims[1] + step[None, :, None]) * dims[2] + step).ravel()
    targets = (keys[:n, None] + offsets).ravel()
    start = np.searchsorted(sorted_keys, targets, "left")
    counts = np.searchsorted(sorted_keys, targets, "right") - start
    rows = np.repeat(np.arange(n), counts.reshape(n, -1).sum(axis=1))
    ends = np.cumsum(counts)
    cols = order[np.repeat(start - ends + counts, counts) + np.arange(ends[-1])]
    return np.divmod(np.sort(rows * len(second) + cols), len(second))


def detect_hbonds(structure: Structure, cutoff: float = HBOND_CUTOFF) -> list[HBond]:
    """All backbone N...O pairs no farther apart than ``cutoff``.

    Pairs within one residue, or between adjacent residues of the same
    chain, are excluded; those separations are covalent geometry, not
    hydrogen bonds.  Candidates come from a cell-list neighbour search,
    so the cost grows linearly with the atom count.  The list is stably
    sorted by donor then acceptor identity.  ``cutoff`` must be finite
    and positive.
    """
    donors, d_pos = _collect_atoms(structure, names=("N",))
    acceptors, a_pos = _collect_atoms(structure, names=("O",))
    di, ai = _neighbour_pairs(d_pos, a_pos, cutoff)
    dist = np.linalg.norm(d_pos[di] - a_pos[ai], axis=1)
    d_chain, d_res = _residue_columns(donors)
    a_chain, a_res = _residue_columns(acceptors)
    covalent = (d_chain[di] == a_chain[ai]) & (np.abs(d_res[di] - a_res[ai]) <= 1)
    keep = np.flatnonzero((dist <= cutoff) & ~covalent)
    bonds = [HBond(donors[di[k]], acceptors[ai[k]], float(dist[k])) for k in keep]
    bonds.sort(key=lambda b: (b.donor.chain_id, b.donor.res_seq, b.acceptor.chain_id, b.acceptor.res_seq))
    return bonds


def _residue_columns(atoms: list[Atom]) -> tuple[np.ndarray, np.ndarray]:
    chain_ids = np.array([a.chain_id for a in atoms], dtype=str)
    return chain_ids, np.array([a.res_seq for a in atoms], dtype=np.int64)


def clash_audit(structure: Structure, cutoff: float) -> list[tuple[Atom, Atom, float]]:
    """Non-bonded atom pairs from different residues closer than ``cutoff``.

    Same-residue pairs and the peptide-bond C(i)-N(i+1) pair of one chain
    are exempt.  Candidates come from a cell-list neighbour search, so the
    cost grows linearly with the atom count.  Stably sorted ascending by
    distance, so ties keep atom order.  ``cutoff`` must be finite and positive.
    """
    atoms, pos = _collect_atoms(structure)
    i, j = _neighbour_pairs(pos, pos, cutoff)
    upper = i < j
    i, j = i[upper], j[upper]
    dist = np.linalg.norm(pos[i] - pos[j], axis=1)
    chains, res = _residue_columns(atoms)
    names = np.array([a.name for a in atoms], dtype=str)
    # The only covalent link between residues is the peptide bond C(i)-N(i+1).
    peptide = ((res[i] + 1 == res[j]) & (names[i] == "C") & (names[j] == "N")) | (
        (res[j] + 1 == res[i]) & (names[j] == "C") & (names[i] == "N")
    )
    exempt = (chains[i] == chains[j]) & ((res[i] == res[j]) | peptide)
    keep = np.flatnonzero((dist < cutoff) & ~exempt)
    clashes = [(atoms[i[k]], atoms[j[k]], float(dist[k])) for k in keep]
    clashes.sort(key=lambda entry: entry[2])
    return clashes


def contact_report(structure: Structure, contacts: list[ContactPair]) -> list[dict]:
    """Distance and LJ energy for each monitored contact pair."""
    from .pdbio import select_atom

    rows = []
    for pair in contacts:
        a = select_atom(structure, pair.first)
        b = select_atom(structure, pair.second)
        r = float(np.linalg.norm(a.position - b.position))
        rows.append(
            {
                "first": str(pair.first),
                "second": str(pair.second),
                "distance": r,
                "energy": lj_pair_energy(r, pair.params),
                "optimal_distance": pair.params.r_min,
            }
        )
    return rows


def structure_energy_report(
    structure: Structure,
    lj: LJParams | None = None,
    hb: HBParams | None = None,
    contacts: list[ContactPair] | None = None,
    clash_cutoff: float = 2.0,
) -> dict:
    """JSON-ready audit: contact energies, hydrogen bonds, clashes."""
    lj = lj or LJParams()
    hb = hb or DEFAULT_HB_PARAMS
    contact_rows = contact_report(structure, contacts) if contacts else []
    hbonds = detect_hbonds(structure)
    clashes = clash_audit(structure, clash_cutoff)

    return {
        "parameters": {
            "epsilon": lj.epsilon,
            "sigma": lj.sigma,
            "hb_c": hb.c,
            "hb_d": hb.d,
            "clash_cutoff": clash_cutoff,
        },
        "contacts": contact_rows,
        "total_contact_energy": float(sum(row["energy"] for row in contact_rows)),
        "hbond_count": len(hbonds),
        "hbonds": [
            {
                "donor": b.donor.address,
                "acceptor": b.acceptor.address,
                "distance": b.distance,
                "energy": hb_pair_energy(b.distance, hb),
            }
            for b in hbonds
        ],
        "clash_count": len(clashes),
        "clashes": [
            {"first": a.address, "second": b.address, "distance": d}
            for a, b, d in clashes
        ],
    }
