"""Nonbonded pair potentials, cluster energies and gradients, and the
geometric audits (hydrogen bonds, steric clashes) used to validate models.

One Lennard-Jones parameter type, ``LJParams``, holds the 12-6 potential in
its well form; ``LJParams.from_ab`` takes it in the coefficient form and
``.ab`` gives that form back:

* well form      V(r) = 4 eps [ (sigma/r)^12 - (sigma/r)^6 ]
* coefficient    V(r) = A / r^12 - B / r^6        (A = 4 eps sigma^12, B = 4 eps sigma^6)

Every 12-6 value comes from one kernel, ``lj_kernel``.  The public
functions raise SingularityError for a pair closer than MIN_PAIR_DISTANCE;
optimizer objectives built on the kernel take that distance as a floor.
Cluster energies and gradients sum every i < j pair; an energy report
scores every contact with the one parameter set its ``parameters`` name.

Backbone hydrogen bonds use the 10-12 form V(r) = C / r^12 - D / r^10,
whose minimum sits at sqrt(6C / 5D).  Hydrogen-bond *detection* is purely
geometric (N...O distance), because the structures handled here carry no
hydrogens.

Both audits, ``detect_hbonds`` and ``clash_audit``, take candidate pairs
from one cell-list neighbour search, so their cost is linear in the atom
count: donors against acceptors, and every atom against the later atoms
of a half shell of cells.  Their lists equal, in order and in every
distance bit, those of a dense N x N distance matrix scanned row by row
and then stably sorted.  They read positions, names and identity from the
structure's columns and name atoms by their ``CHAIN.RESNAMESEQ.ATOM``
address.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import NamedTuple

import numpy as np

from .errors import SingularityError, StericZipError
from .pdbio import AtomSelector, Structure, atom_addresses, atom_row

MIN_PAIR_DISTANCE = 1e-12
HBOND_CUTOFF = 3.5
CLASH_CUTOFF = 2.0
# Contact scale matched to the packaged template's geometry: the two monitored
# inter-sheet contacts cross one strand level each, so their optimal
# distance must exceed half the crossing offset (about 6.0 A there) for a
# single sheet translation to satisfy both.  This sigma puts the pair
# minimum at 6.53 A and leaves a 2.6 A inter-sheet clearance.
TEMPLATE_CONTACT_SIGMA = 5.82


def _require_finite_positive(kind: str, **values) -> None:
    # `nan <= 0` is false, so a plain sign test would let nan through; a bool is no number here.
    for name, value in values.items():
        if isinstance(value, bool) or not (math.isfinite(value) and value > 0):
            raise StericZipError(f"{kind} requires finite {name} > 0, got {value!r}")


@dataclass(frozen=True)
class LJParams:
    """Well depth (energy units) and zero-crossing distance (Angstroms)."""

    epsilon: float = 1.0
    sigma: float = TEMPLATE_CONTACT_SIGMA

    def __post_init__(self):
        _require_finite_positive("LJParams", epsilon=self.epsilon, sigma=self.sigma)

    @classmethod
    def from_ab(cls, a: float, b: float) -> "LJParams":
        """The potential A / r^12 - B / r^6: eps = B^2 / 4A, sigma = (A / B)^(1/6)."""
        _require_finite_positive("LJParams.from_ab", a=a, b=b)
        return cls(b**2 / (4.0 * a), (a / b) ** (1.0 / 6.0))

    @property
    def ab(self) -> tuple[float, float]:
        """Coefficients (A, B) = (4 eps sigma^12, 4 eps sigma^6)."""
        return 4.0 * self.epsilon * self.sigma**12, 4.0 * self.epsilon * self.sigma**6

    @property
    def r_min(self) -> float:
        """Distance of the potential minimum, 2^(1/6) sigma."""
        return 2.0 ** (1.0 / 6.0) * self.sigma


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


def lj_kernel(r2, params: LJParams, with_force: bool = False, with_curvature: bool = False):
    """Each pair's energy above the well floor, from squared distances of any shape.

    V + eps = eps (2 s6 - 1)^2 with s6 = (sigma^2 / r2)^3 keeps full relative
    precision near r_min, where V itself rounds.  ``with_force`` also returns
    (dV/dr) / r; ``with_curvature`` returns that and (V'' - V'/r) / r^2 too,
    so a pair with difference vector d has gradient (V'/r) d and Hessian
    (V'/r) I + ((V'' - V'/r) / r^2) d d^T.  r2 is floored at
    MIN_PAIR_DISTANCE^2, so a coincident pair gets a huge finite value, no
    force and an isotropic Hessian.
    """
    r2 = np.maximum(r2, MIN_PAIR_DISTANCE**2)
    s2 = params.sigma**2 / r2
    s6 = s2 * s2 * s2
    well = 2.0 * s6 - 1.0
    terms = params.epsilon * (well * well)
    if not (with_force or with_curvature):
        return terms
    force = -24.0 * params.epsilon * s6 * well / r2
    if not with_curvature:
        return terms, force
    return terms, force, 96.0 * params.epsilon * s6 * (7.0 * s6 - 2.0) / (r2 * r2)


def lj_pair_energy(r, params: LJParams):
    """4 eps [(sigma/r)^12 - (sigma/r)^6]; r may be a scalar or an array."""
    r = _check_distance(r)
    out = lj_kernel(r * r, params) - params.epsilon
    return float(out) if out.ndim == 0 else out


def hb_pair_energy(r, params: HBParams):
    """C / r^12 - D / r^10."""
    r = _check_distance(r)
    inv2 = r**-2.0
    inv10 = inv2**5
    out = params.c * inv10 * inv2 - params.d * inv10
    return float(out) if out.ndim == 0 else out


@cache
def pair_indices(n: int) -> tuple[np.ndarray, ...]:
    """Row and column of each pair i < j of n points, as read-only views."""
    return tuple(np.broadcast_to(index, index.shape) for index in np.triu_indices(n, k=1))


def _cluster_pairs(coords):
    """Checked points, i < j pair indices, difference vectors and squared distances."""
    pts = np.asarray(coords, dtype=np.float64)
    if pts.ndim == 1:
        if pts.size % 3:
            raise StericZipError("flat coordinate vector length must be a multiple of 3")
        pts = pts.reshape(-1, 3)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise StericZipError("coordinates must be a flat 3N-vector or an (N, 3) array")
    if pts.shape[0] < 2:
        raise StericZipError("a cluster needs at least two atoms")
    i, j = pair_indices(pts.shape[0])
    diff = pts[i] - pts[j]
    r2 = np.sum(diff * diff, axis=1)
    if np.any(r2 < MIN_PAIR_DISTANCE**2):
        raise SingularityError("coincident atoms in an evaluated pair")
    return pts, i, j, diff, r2


def lj_cluster_energy(coords, params: LJParams) -> float:
    """Sum of LJ pair energies over every i < j pair of the cluster.

    ``coords`` is a flat 3N-vector (or an (N, 3) array).  A pair closer
    than MIN_PAIR_DISTANCE raises SingularityError.
    """
    r2 = _cluster_pairs(coords)[-1]
    return float(np.sum(lj_kernel(r2, params) - params.epsilon))


def lj_cluster_gradient(coords, params: LJParams) -> np.ndarray:
    """Analytic gradient of lj_cluster_energy over the same i < j pairs, as a flat 3N-vector."""
    pts, i, j, diff, r2 = _cluster_pairs(coords)
    forces = lj_kernel(r2, params, with_force=True)[1][:, None] * diff
    grad = np.zeros_like(pts)
    np.add.at(grad, i, forces)
    np.add.at(grad, j, -forces)
    return grad.reshape(-1)


@dataclass(frozen=True)
class ContactPair:
    """A monitored inter-sheet contact between two selected atoms; the report that scores it sets the potential."""

    first: AtomSelector
    second: AtomSelector

    def __post_init__(self):
        if self.first == self.second:
            raise StericZipError("contact pair selectors must be distinct")


class HBond(NamedTuple):
    """A backbone N...O pair within the detection cutoff, named by atom address."""

    donor: str
    acceptor: str
    distance: float


def _distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise |a - b|, bit-identical to np.linalg.norm(a - b, axis=1) at a fraction of its cost."""
    dx, dy, dz = (a[:, k] - b[:, k] for k in range(3))
    return np.sqrt(dx * dx + dy * dy + dz * dz)


def _neighbour_pairs(first: np.ndarray, second: np.ndarray | None, cutoff: float):
    """Index pairs (i, j) of first[i] and second[j] in the same or adjacent cells.

    The points are binned into cubes with an edge of about ``cutoff``, so
    every pair within the cutoff is among the candidates.  One sort orders
    the second set by cell key.  The cells z - 1, z and z + 1 of one (x, y)
    column then hold one run of that order, so a first point finds its 27
    neighbour cells with two binary searches in each of its 9 columns, and
    the cost is linear in the points and candidates.  With ``second`` None
    the pairs are those i < j of ``first`` with itself, each found once from
    a half shell: the own cell's later points and the 13 cells after it in
    key order, which are the next cell of the own column and the 4 columns
    after it.  The pairs come in row-major (i, j) order, as np.nonzero on a
    dense distance matrix gives them.
    """
    if not math.isfinite(cutoff) or cutoff <= 0:
        raise StericZipError(f"audit cutoff must be finite and positive, got {cutoff!r}")
    n, m = len(first), len(first if second is None else second)
    if n == 0 or m == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    points = first if second is None else np.concatenate([first, second])
    axes = [points[:, k] for k in range(3)]  # three column minima beat one min(axis=0)
    low, high = [float(x.min()) for x in axes], [float(x.max()) for x in axes]
    # The pad absorbs rounding in the cell arithmetic, so a pair within the
    # cutoff is never two cells apart; the second bound keeps each axis to
    # 2^20 cells, so the keys fit in int64 at any cutoff.
    pad = (cutoff + max(*high, *(-lo for lo in low))) * 2.0**-40
    edge = max(cutoff + pad, max(hi - lo for hi, lo in zip(high, low)) * 2.0**-20)
    cx, cy, cz = (np.floor((x - lo) / edge).astype(np.int64) + 1 for x, lo in zip(axes, low))
    dims = [math.floor((hi - lo) / edge) + 3 for hi, lo in zip(high, low)]
    keys = (cx * dims[1] + cy) * dims[2] + cz
    other = keys if second is None else keys[n:]
    order = np.argsort(other, kind="stable")
    ordered = other[order]
    step = np.arange(-1, 2)
    columns = ((step[:, None] * dims[1] + step) * dims[2]).ravel()
    rows, base = np.arange(n), keys[:n]
    if second is None:
        columns, rows, base = columns[4:], order, ordered  # the own column, then the 4 after it
    centres = base[:, None] + columns
    start, stop = np.searchsorted(ordered, centres - 1), np.searchsorted(ordered, centres + 2)
    if second is None:
        start[:, 0] = np.arange(1, n + 1)  # the points ordered after this one
    count = (stop - start).ravel()
    ends = np.cumsum(count)
    cols = order[np.repeat(start.ravel() - ends + count, count) + np.arange(ends[-1])]
    rows = np.repeat(np.repeat(rows, len(columns)), count)
    if second is None:
        rows, cols = np.minimum(rows, cols), np.maximum(rows, cols)
    return np.divmod(np.sort(rows * m + cols), m)


def detect_hbonds(structure: Structure, cutoff: float = HBOND_CUTOFF) -> list[HBond]:
    """All backbone N...O pairs no farther apart than ``cutoff``.

    Pairs within one residue, or between adjacent residues of the same
    chain, are excluded; those separations are covalent geometry, not
    hydrogen bonds.  Candidates come from a cell-list neighbour search,
    so the cost grows linearly with the atom count.  The list is stably
    sorted by donor then acceptor chain id and residue number.
    ``cutoff`` must be finite and positive.
    """
    chains, seqs, coords = structure.atom_chains(), structure.res_seqs[structure.atom_residues()], structure.coords
    donors, acceptors = np.flatnonzero(structure.names == "N"), np.flatnonzero(structure.names == "O")
    di, ai = _neighbour_pairs(coords.take(donors, axis=0), coords.take(acceptors, axis=0), cutoff)
    d, a = donors[di], acceptors[ai]
    dist = _distances(coords.take(d, axis=0), coords.take(a, axis=0))
    near = np.flatnonzero(dist <= cutoff)
    d, a, dist = d[near], a[near], dist[near]
    keep = np.flatnonzero((chains[d] != chains[a]) | (np.abs(seqs[d] - seqs[a]) > 1))
    d, a, dist = d[keep], a[keep], dist[keep]
    ids = np.array(structure.chain_ids(), dtype=str)
    order = np.lexsort((seqs[a], ids[chains[a]], seqs[d], ids[chains[d]]))  # stable
    names = zip(atom_addresses(structure, d[order]), atom_addresses(structure, a[order]))
    return [HBond(donor, acceptor, r) for (donor, acceptor), r in zip(names, dist[order].tolist())]


def clash_audit(structure: Structure, cutoff: float) -> list[tuple[str, str, float]]:
    """Non-bonded atom pairs from different residues closer than ``cutoff``.

    Same-residue pairs and the peptide-bond C(i)-N(i+1) pair of one chain
    are exempt.  Candidates come from a cell-list neighbour search, so the
    cost grows linearly with the atom count.  Stably sorted ascending by
    distance, so ties keep atom order.  ``cutoff`` must be finite and positive.
    """
    pos, chains, residues = structure.coords, structure.atom_chains(), structure.atom_residues()
    seqs, is_c, is_n = structure.res_seqs[residues], structure.names == "C", structure.names == "N"
    i, j = _neighbour_pairs(pos, None, cutoff)
    dist = _distances(pos.take(i, axis=0), pos.take(j, axis=0))
    near = np.flatnonzero(dist < cutoff)
    i, j, dist = i[near], j[near], dist[near]
    # The only covalent link between residues is the peptide bond C(i)-N(i+1).
    peptide = ((seqs[i] + 1 == seqs[j]) & is_c[i] & is_n[j]) | ((seqs[j] + 1 == seqs[i]) & is_c[j] & is_n[i])
    keep = np.flatnonzero((residues[i] != residues[j]) & ~((chains[i] == chains[j]) & peptide))
    clashes = list(zip(atom_addresses(structure, i[keep]), atom_addresses(structure, j[keep]), dist[keep].tolist()))
    clashes.sort(key=lambda entry: entry[2])
    return clashes


def contact_report(structure: Structure, contacts: list[ContactPair], lj: LJParams) -> list[dict]:
    """Distance and LJ energy under ``lj`` of each contact pair, from one energy call; lookups raise as ``atom_row``."""
    rows = np.array([(atom_row(structure, pair.first), atom_row(structure, pair.second)) for pair in contacts],
                    dtype=np.int64).reshape(-1, 2)
    r = _distances(structure.coords.take(rows[:, 0], axis=0), structure.coords.take(rows[:, 1], axis=0))
    return [
        {"first": str(pair.first), "second": str(pair.second), "distance": d, "energy": e, "optimal_distance": lj.r_min}
        for pair, d, e in zip(contacts, r.tolist(), lj_pair_energy(r, lj).tolist())
    ]


def structure_energy_report(
    structure: Structure,
    lj: LJParams | None = None,
    hb: HBParams | None = None,
    contacts: list[ContactPair] | None = None,
) -> dict:
    """JSON-ready audit: contact energies under ``lj``, hydrogen bonds under ``hb``, clashes, and the ``parameters``.

    ``lj`` defaults to ``LJParams()`` and ``hb`` to ``DEFAULT_HB_PARAMS``.
    A build's ``audit`` stage and ``stericzip energy`` both report through it.
    """
    lj = lj or LJParams()
    hb = hb or DEFAULT_HB_PARAMS
    contact_rows = contact_report(structure, contacts, lj) if contacts else []
    hbonds = detect_hbonds(structure)
    clashes = clash_audit(structure, CLASH_CUTOFF)

    return {
        "parameters": {
            "epsilon": lj.epsilon,
            "sigma": lj.sigma,
            "hb_c": hb.c,
            "hb_d": hb.d,
            "clash_cutoff": CLASH_CUTOFF,
        },
        "contacts": contact_rows,
        "total_contact_energy": float(sum(row["energy"] for row in contact_rows)),
        "hbond_count": len(hbonds),
        "hbonds": [
            {"donor": b.donor, "acceptor": b.acceptor, "distance": b.distance, "energy": e}
            for b, e in zip(hbonds, hb_pair_energy(np.array([b.distance for b in hbonds]), hb).tolist())
        ],
        "clash_count": len(clashes),
        "clashes": [{"first": a, "second": b, "distance": d} for a, b, d in clashes],
    }
