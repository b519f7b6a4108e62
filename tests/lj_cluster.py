"""A second Lennard-Jones cluster energy, with its gradient, for tests.

It sums every i < j pair through ``energy.lj_kernel`` as
``benchmarks.lj_cluster_value`` does, but takes any ``LJParams`` and
raises for coincident atoms where the benchmark floors the distance.
Tests use it as a reference and as the objective of ``local_refine``.
"""

import numpy as np

from stericzip import LJParams, SingularityError, StericZipError
from stericzip.energy import MIN_PAIR_DISTANCE, lj_kernel, pair_indices


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
    forces = lj_kernel(r2, params, with_curvature=True)[1][:, None] * diff
    grad = np.zeros_like(pts)
    np.add.at(grad, i, forces)
    np.add.at(grad, j, -forces)
    return grad.reshape(-1)
