"""Pair potentials, cluster energy and gradient, hydrogen bonds, clashes.

Derived expectations are computed by independent oracles: a golden-section
search in extended precision for potential minima, and central finite
differences for gradients.
"""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from atom_rows import rows_of, structure_from_rows
from stericzip import (
    AtomSelector,
    ContactPair,
    FibrilSpec,
    HBond,
    HBParams,
    LJParams,
    OptimizerConfig,
    SingularityError,
    StericZipError,
    Structure,
    build_fibril_model,
    clash_audit,
    detect_hbonds,
    hb_pair_energy,
    hb_params_from_minimum,
    lj_cluster_energy,
    lj_cluster_gradient,
    lj_pair_energy,
    load_template,
    structure_energy_report,
    synthetic_template,
    write_pdb,
)
from stericzip.energy import MIN_PAIR_DISTANCE, _distances, _neighbour_pairs, contact_report
from stericzip.pdbio import atom_addresses, atom_row
from stericzip.template import DEFAULT_ANCHOR_SELECTORS, DEFAULT_FREE_SELECTORS

R_MIN_FACTOR = 2.0 ** (1.0 / 6.0)


def golden_section_argmin(f, lo, hi, iterations=160):
    """Value-only golden-section search, run in extended precision."""
    lo = np.longdouble(lo)
    hi = np.longdouble(hi)
    invphi = (np.longdouble(5.0) ** np.longdouble(0.5) - 1) / 2
    a, b = lo, hi
    c = b - (b - a) * invphi
    d = a + (b - a) * invphi
    fc, fd = f(c), f(d)
    for _ in range(iterations):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - (b - a) * invphi
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + (b - a) * invphi
            fd = f(d)
    return float((a + b) / 2)


def lj_longdouble(r, epsilon, sigma):
    s6 = (np.longdouble(sigma) / r) ** 6
    return 4 * np.longdouble(epsilon) * (s6 * s6 - s6)


def hb_longdouble(r, c, d):
    return np.longdouble(c) / r**12 - np.longdouble(d) / r**10


class TestLJPair:
    def test_zero_at_sigma(self):
        assert lj_pair_energy(1.0, LJParams(1.0, 1.0)) == 0.0

    def test_well_depth_at_minimum(self):
        assert lj_pair_energy(R_MIN_FACTOR, LJParams(1.0, 1.0)) == pytest.approx(-1.0, abs=1e-12)

    def test_value_at_two(self):
        # 4 * (2^-12 - 2^-6), by direct evaluation
        assert lj_pair_energy(2.0, LJParams(1.0, 1.0)) == pytest.approx(-0.0615234375, abs=0)

    def test_domain_error(self):
        with pytest.raises(StericZipError):
            lj_pair_energy(0.0, LJParams(1.0, 1.0))
        with pytest.raises(StericZipError):
            lj_pair_energy(-1.0, LJParams(1.0, 1.0))

    def test_raises_below_min_pair_distance_only(self):
        reduced = LJParams(1.0, 1.0)
        for params in (reduced, LJParams.from_ab(*reduced.ab)):
            with pytest.raises(SingularityError):
                lj_pair_energy(0.5 * MIN_PAIR_DISTANCE, params)
            assert np.isfinite(lj_pair_energy(MIN_PAIR_DISTANCE, params))

    def test_minimum_location_by_golden_section(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            eps = float(rng.uniform(0.1, 10.0))
            sigma = float(rng.uniform(0.5, 8.0))
            r_star = golden_section_argmin(
                lambda r: lj_longdouble(r, eps, sigma), 0.9 * sigma, 2.0 * sigma
            )
            assert abs(r_star - R_MIN_FACTOR * sigma) <= 1e-9 * sigma
            assert lj_pair_energy(R_MIN_FACTOR * sigma, LJParams(eps, sigma)) == pytest.approx(
                -eps, abs=1e-12 * eps
            )


class TestLJAB:
    """The coefficient form A / r^12 - B / r^6, given by LJParams.from_ab and read back by .ab."""

    def test_zero_when_equal_coefficients_at_one(self):
        assert lj_pair_energy(1.0, LJParams.from_ab(4.0, 4.0)) == 0.0

    def test_pure_repulsion(self):
        # B -> 0 limit checked with a tiny attraction per the positivity invariant
        assert lj_pair_energy(1.0, LJParams.from_ab(1.0, 1e-12)) == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.1, 10.0), st.floats(0.5, 8.0), st.floats(0.3, 4.0))
    def test_equivalence_with_well_form(self, eps, sigma, r_factor):
        r = r_factor * sigma
        lj = LJParams(eps, sigma)
        a, b = lj.ab
        assert a == 4.0 * eps * sigma**12 and b == 4.0 * eps * sigma**6
        assert lj_pair_energy(r, LJParams.from_ab(a, b)) == pytest.approx(
            lj_pair_energy(r, lj), rel=1e-12, abs=1e-12
        )

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.1, 10.0), st.floats(0.5, 8.0))
    def test_parameter_round_trip(self, eps, sigma):
        back = LJParams.from_ab(*LJParams(eps, sigma).ab)
        assert back.epsilon == pytest.approx(eps, rel=1e-12)
        assert back.sigma == pytest.approx(sigma, rel=1e-12)


class TestHBPair:
    def test_zero_at_one(self):
        assert hb_pair_energy(1.0, HBParams(1.0, 1.0)) == 0.0

    def test_stationary_point_value(self):
        # dV/dr = 0 at r^2 = 6C/5D; V there = C/r^12 - D/r^10 evaluated in closed form
        r = np.sqrt(1.2)
        expected = 1.2**-6 - 1.2**-5
        assert hb_pair_energy(r, HBParams(1.0, 1.0)) == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(-0.066980, abs=5e-7)

    def test_value_at_two(self):
        assert hb_pair_energy(2.0, HBParams(1.0, 1.0)) == pytest.approx(-0.000732421875, abs=0)

    def test_domain_error(self):
        with pytest.raises(StericZipError):
            hb_pair_energy(0.0, HBParams(1.0, 1.0))

    def test_minimum_location_by_golden_section(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            c = float(rng.uniform(0.5, 5.0))
            d = float(rng.uniform(0.5, 5.0))
            r0 = float(np.sqrt(6.0 * c / (5.0 * d)))
            r_star = golden_section_argmin(lambda r: hb_longdouble(r, c, d), 0.7 * r0, 1.6 * r0)
            assert abs(r_star - r0) <= 1e-9 * r0
            closed_form = -(1.0 / 6.0) * d / r0**10
            assert hb_pair_energy(r0, HBParams(c, d)) == pytest.approx(closed_form, rel=1e-9)

    def test_params_from_minimum(self):
        p = hb_params_from_minimum(2.9, 1.0)
        assert p.r_min == pytest.approx(2.9, rel=1e-12)
        assert hb_pair_energy(2.9, p) == pytest.approx(-1.0, rel=1e-12)


def equilateral_triangle(edge):
    return np.array([
        [0.0, 0.0, 0.0],
        [edge, 0.0, 0.0],
        [edge / 2, edge * np.sqrt(3) / 2, 0.0],
    ])


def regular_tetrahedron(edge):
    return np.array([
        [0.0, 0.0, 0.0],
        [edge, 0.0, 0.0],
        [edge / 2, edge * np.sqrt(3) / 2, 0.0],
        [edge / 2, edge * np.sqrt(3) / 6, edge * np.sqrt(2.0 / 3.0)],
    ])


REDUCED = LJParams(1.0, 1.0)


class TestCluster:
    def test_two_atoms_at_sigma(self):
        assert lj_cluster_energy([0, 0, 0, 1, 0, 0], REDUCED) == 0.0

    def test_equilateral_triangle_reaches_triple_well(self):
        coords = equilateral_triangle(R_MIN_FACTOR)
        assert lj_cluster_energy(coords, REDUCED) == pytest.approx(-3.0, abs=1e-12)

    def test_tetrahedron_reaches_six_wells(self):
        coords = regular_tetrahedron(R_MIN_FACTOR)
        assert lj_cluster_energy(coords, REDUCED) == pytest.approx(-6.0, abs=1e-12)

    def test_coincident_atoms_raise(self):
        with pytest.raises(SingularityError):
            lj_cluster_energy([0, 0, 0, 0, 0, 0], REDUCED)

    def test_needs_two_atoms(self):
        with pytest.raises(StericZipError):
            lj_cluster_energy([0.0, 0.0, 0.0], REDUCED)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_permutation_and_rigid_invariance(self, seed):
        rng = np.random.default_rng(seed)
        pts = _well_separated(rng, rng.integers(3, 7))
        e0 = lj_cluster_energy(pts, REDUCED)
        perm = rng.permutation(pts.shape[0])
        assert lj_cluster_energy(pts[perm], REDUCED) == pytest.approx(e0, abs=1e-9)
        q, r = np.linalg.qr(rng.standard_normal((3, 3)))
        q = q * np.sign(np.diag(r))
        moved = pts @ q.T + rng.standard_normal(3)
        assert lj_cluster_energy(moved, REDUCED) == pytest.approx(e0, abs=1e-9)


def _well_separated(rng, n, min_dist=0.9):
    pts = []
    while len(pts) < n:
        cand = rng.uniform(0, 2.5, 3)
        if all(np.linalg.norm(cand - p) >= min_dist for p in pts):
            pts.append(cand)
    return np.array(pts)


def finite_difference_gradient(coords, params, h=1e-6):
    flat = np.asarray(coords, dtype=np.float64).reshape(-1)
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        plus = flat.copy()
        minus = flat.copy()
        plus[i] += h
        minus[i] -= h
        grad[i] = (lj_cluster_energy(plus, params) - lj_cluster_energy(minus, params)) / (2 * h)
    return grad


class TestGradient:
    def test_zero_at_pair_minimum(self):
        coords = np.array([0, 0, 0, R_MIN_FACTOR, 0, 0], dtype=float)
        assert np.max(np.abs(lj_cluster_gradient(coords, REDUCED))) < 1e-12

    def test_newton_third_law_for_pair(self):
        coords = np.array([0.1, -0.2, 0.3, 1.4, 0.9, -0.5])
        g = lj_cluster_gradient(coords, REDUCED).reshape(2, 3)
        assert np.allclose(g[0], -g[1], atol=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            pts = _well_separated(rng, int(rng.integers(2, 9)))
            analytic = lj_cluster_gradient(pts, REDUCED)
            numeric = finite_difference_gradient(pts, REDUCED)
            denom = max(np.linalg.norm(analytic), 1e-12)
            assert np.linalg.norm(analytic - numeric) / denom <= 1e-6

    def test_singularity(self):
        with pytest.raises(SingularityError):
            lj_cluster_gradient([0, 0, 0, 0, 0, 0], REDUCED)


def two_atom_structure(a, b):
    """Two one-residue ALA chains from (chain id, residue number, atom name, position) rows."""
    return structure_from_rows([(cid, seq, "ALA", name, xyz) for cid, seq, name, xyz in (a, b)])


class TestHBondDetection:
    def test_cross_chain_pair_found(self):
        s = two_atom_structure(("A", 2, "N", (0, 0, 0)), ("B", 3, "O", (2.9, 0, 0)))
        bonds = detect_hbonds(s)
        assert len(bonds) == 1
        assert bonds[0].distance == pytest.approx(2.9, abs=1e-12)

    def test_beyond_cutoff_empty(self):
        s = two_atom_structure(("A", 2, "N", (0, 0, 0)), ("B", 3, "O", (4.0, 0, 0)))
        assert detect_hbonds(s) == []

    def test_adjacent_residues_excluded(self):
        s = structure_from_rows([("A", 2, "ALA", "O", (2.2, 0, 0)), ("A", 3, "ALA", "N", (0, 0, 0))])
        assert detect_hbonds(s) == []

    def test_no_backbone_atoms_empty(self):
        s = two_atom_structure(("A", 1, "CB", (0, 0, 0)), ("B", 1, "CB", (3.0, 0, 0)))
        assert detect_hbonds(s) == []

    def test_symmetric_in_chain_order_and_rigid_motion(self):
        s = synthetic_template()
        count = len(detect_hbonds(s))
        flipped = s.subset(("B", "A"))
        assert len(detect_hbonds(flipped)) == count
        rng = np.random.default_rng(5)
        q, r = np.linalg.qr(rng.standard_normal((3, 3)))
        q = q * np.sign(np.diag(r))
        shift = rng.standard_normal(3) * 20
        moved = s.with_chains([(c, c) for c in s.chain_ids()], coords=s.coords @ q.T + shift)
        assert len(detect_hbonds(moved)) == count

    def test_template_ladder_count(self):
        assert len(detect_hbonds(synthetic_template())) == 5


class TestClashAudit:
    def test_distant_chains_clean(self):
        s = two_atom_structure(("A", 1, "CB", (0, 0, 0)), ("B", 1, "CB", (10.0, 0, 0)))
        assert clash_audit(s, 2.0) == []

    def test_close_pair_reported(self):
        s = two_atom_structure(("A", 1, "CB", (0, 0, 0)), ("B", 1, "CB", (1.5, 0, 0)))
        clashes = clash_audit(s, 2.0)
        assert len(clashes) == 1
        assert clashes[0][2] == pytest.approx(1.5, abs=1e-12)

    def test_sorted_ascending(self):
        s = structure_from_rows([
            ("A", 1, "ALA", "CB", (0, 0, 0)),
            ("B", 1, "ALA", "CB", (1.8, 0, 0)),
            ("C", 1, "ALA", "CB", (-1.2, 0, 0)),
        ])
        distances = [d for _, _, d in clash_audit(s, 2.0)]
        assert distances == sorted(distances)

    def test_peptide_bond_exempt(self):
        s = structure_from_rows([("A", 1, "ALA", "C", (0, 0, 0)), ("A", 2, "ALA", "N", (1.33, 0, 0))])
        assert clash_audit(s, 2.0) == []

    def test_template_clean_at_two_angstroms(self):
        assert clash_audit(synthetic_template(), 2.0) == []

    def test_bad_cutoff(self):
        with pytest.raises(StericZipError):
            clash_audit(synthetic_template(), 0.0)


def test_renamed_chain_and_residue_name_every_record_and_audit():
    # Identity lives on the chain and residue only, so a chain and residue
    # renamed at construction name the atoms in the file and in both audits.
    s = structure_from_rows([("A", 7, "GLY", "N", (0, 0, 0)), ("Z", 3, "ALA", "O", (1.5, 0, 0))])
    records = [(line[17:20], line[21], int(line[22:26])) for line in write_pdb(s).splitlines()
               if line.startswith("ATOM")]
    assert records == [("GLY", "A", 7), ("ALA", "Z", 3)]
    assert clash_audit(s, 2.0) == [("A.GLY7.N", "Z.ALA3.O", 1.5)]
    assert detect_hbonds(s) == [HBond("A.GLY7.N", "Z.ALA3.O", 1.5)]
    report = structure_energy_report(s)
    assert [(b["donor"], b["acceptor"]) for b in report["hbonds"]] == [("A.GLY7.N", "Z.ALA3.O")]
    assert [(c["first"], c["second"]) for c in report["clashes"]] == [("A.GLY7.N", "Z.ALA3.O")]


@pytest.mark.parametrize("audit", [clash_audit, detect_hbonds])
@pytest.mark.parametrize("cutoff", [0.0, -1.0, float("nan"), float("inf"), -float("inf")])
def test_audits_reject_a_cutoff_that_is_not_finite_and_positive(audit, cutoff):
    with pytest.raises(StericZipError, match="finite and positive"):
        audit(synthetic_template(), cutoff)


@pytest.mark.parametrize("kind", [LJParams, LJParams.from_ab, HBParams, hb_params_from_minimum])
@pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf"), True])
@pytest.mark.parametrize("position", [0, 1])
def test_potential_parameters_must_be_finite_and_positive(kind, bad, position):
    values = [1.0, 4.0]
    values[position] = bad
    with pytest.raises(StericZipError, match=rf"^{kind.__qualname__} requires finite \w+ > 0"):
        kind(*values)


def dense_audits(structure, cutoff):
    """Reference: both audits from the full N x N distance matrix, in its row-major order."""
    rows = rows_of(structure)
    pos = np.array([position for *_, position in rows]).reshape(-1, 3)
    dist = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=2)
    clashes, bonds = [], []
    for i, j in zip(*np.nonzero(dist <= cutoff)):
        (a_chain, a_seq, _, a_name, _), (b_chain, b_seq, _, b_name, _) = rows[i], rows[j]
        near = a_chain == b_chain and abs(a_seq - b_seq) <= 1
        peptide = (a_name, b_name, b_seq - a_seq) in (("C", "N", 1), ("N", "C", -1))
        if i < j and dist[i, j] < cutoff and not (near and (a_seq == b_seq or peptide)):
            clashes.append((i, j, float(dist[i, j]).hex()))
        if a_name == "N" and b_name == "O" and not near:
            bonds.append((i, j, float(dist[i, j]).hex()))
    key = {k: (chain_id, res_seq) for k, (chain_id, res_seq, *_) in enumerate(rows)}
    return sorted(clashes, key=lambda c: float.fromhex(c[2])), sorted(bonds, key=lambda b: key[b[0]] + key[b[1]])


def fast_audits(structure, cutoff):
    """Both audits with each atom address replaced by the atom's record index."""
    index = {address: k for k, address in enumerate(atom_addresses(structure, range(structure.n_atoms())))}
    clashes = [(index[a], index[b], d.hex()) for a, b, d in clash_audit(structure, cutoff)]
    bonds = [(index[b.donor], index[b.acceptor], b.distance.hex()) for b in detect_hbonds(structure, cutoff)]
    return clashes, bonds


def cloud_structure(atoms):
    """Structure from (chain, residue, name, position) rows, grouped in row order."""
    chain_ids = list(dict.fromkeys(chain_id for chain_id, *_ in atoms))
    # A stable sort: each residue's atoms keep their row order.
    rows = sorted(atoms, key=lambda row: (chain_ids.index(row[0]), row[1]))
    return structure_from_rows([(chain_id, res_seq, "ALA", name, xyz) for chain_id, res_seq, name, xyz in rows])


@st.composite
def clouds(draw):
    """0-200 atoms in up to three chains: cell-face points, free points,
    coincident atoms and pairs exactly one cutoff apart, near the origin
    or near +-9999 A."""
    cutoff = draw(st.sampled_from([0.5, 2.0, 3.5, 3.7]))
    base = np.array(draw(st.sampled_from([(0.0, 0.0, 0.0), (-9999.0, 9998.5, -9990.0), (9990.25, 9999.0, 0.0)])))
    names = ("N", "CA", "C", "O", "CB")
    rows, slots = [], {}
    for chain, step, name, kind, a, b in draw(st.lists(st.tuples(
            st.sampled_from("ABC"), st.integers(0, 2), st.integers(0, 4), st.integers(0, 3),
            st.integers(-4, 4), st.integers(-4, 4)), max_size=200)):
        res_seq, used = slots.get(chain, (1, set()))
        if step or names[name] in used:
            res_seq, used = res_seq + max(step, 1), set()
        slots[chain] = (res_seq, used | {names[name]})
        if kind == 0 or not rows:
            position = base + np.array([a, b, a - b]) * cutoff
        elif kind == 1:
            position = base + np.array([a, b, 0.5]) * cutoff / 3.0
        elif kind == 2:
            position = rows[a % len(rows)][3].copy()
        else:
            position = rows[a % len(rows)][3] + np.eye(3)[b % 3] * cutoff * np.sign(b or 1)
        rows.append((chain, res_seq, names[name], position))
    return cloud_structure(rows), cutoff


class TestNeighbourSearch:
    @settings(max_examples=200, deadline=None)
    @given(clouds())
    @example((Structure([]), 2.0))
    @example((cloud_structure([("A", 1, "N", (1.0, 2.0, 3.0))]), 2.0))
    def test_matches_dense_reference(self, cloud):
        structure, cutoff = cloud
        assert fast_audits(structure, cutoff) == dense_audits(structure, cutoff)

    @pytest.mark.parametrize("cutoff", [0.5, 2.0, 3.5])
    def test_pair_at_exactly_the_cutoff(self, cutoff):
        s = two_atom_structure(("A", 1, "N", (cutoff, 0, -cutoff)), ("B", 1, "O", (2 * cutoff, 0, -cutoff)))
        assert clash_audit(s, cutoff) == []
        assert [b.distance for b in detect_hbonds(s, cutoff)] == [cutoff]

    @pytest.mark.parametrize("cutoff", [1e-9, 1e-300])
    def test_tiny_cutoff_on_a_wide_model(self, cutoff):
        # 200 A at a 1e-9 A cutoff would need 2e11 cells per axis; the
        # keys stay in range and the candidates stay local.
        rows = [("A", 1, "N", (0.0, 0.0, 0.0)), ("B", 1, "O", (0.0, 0.0, cutoff / 2)),
                ("C", 1, "CB", (100.0, -100.0, 100.0)), ("C", 5, "CB", (100.0, -100.0, 100.0)),
                ("A", 9, "CA", (50.0, 50.0, 50.0))]
        s = cloud_structure(rows)
        clashes, bonds = fast_audits(s, cutoff)
        assert (clashes, bonds) == dense_audits(s, cutoff)
        assert len(clashes) == 2 and len(bonds) == 1
        pos = np.array([row[3] for row in rows])
        assert len(_neighbour_pairs(pos, pos, cutoff)[0]) == 9
        assert len(_neighbour_pairs(pos, None, cutoff)[0]) == 2

    @settings(max_examples=200, deadline=None)
    @given(clouds())
    def test_self_join_is_the_upper_triangle_of_the_cross_join(self, cloud):
        structure, cutoff = cloud
        pos = structure.coords
        i, j = _neighbour_pairs(pos, pos, cutoff)
        upper = i < j
        half = _neighbour_pairs(pos, None, cutoff)
        assert np.array_equal(half[0], i[upper]) and np.array_equal(half[1], j[upper])

    def test_distances_are_bitwise_the_norm(self):
        rng = np.random.default_rng(0)
        scale = 10.0 ** rng.choice([-160, -150, -145, 0, 145, 150, 155], size=(20_000, 1))
        a, b = rng.normal(size=(2, 20_000, 3)) * scale
        a[::7] = b[::7]  # coincident points
        a[::11, 1] = b[::11, 1]  # one zero component
        with np.errstate(over="ignore"):
            assert _distances(a, b).tobytes() == np.linalg.norm(a - b, axis=1).tobytes()

    def test_rounding_at_a_cell_face_keeps_the_pair(self):
        # Binned without a pad, these N and O, exactly 2 A apart, fall two
        # cells apart because x - low rounds.
        rows = [("A", 1, "O", (-3317.1193338755247, 0.0, 0.0)),
                ("B", 1, "N", (-1269.119333875525, 0.0, 0.0)),
                ("C", 1, "O", (-1267.119333875525, 0.0, 0.0))]
        s = cloud_structure(rows)
        assert fast_audits(s, 2.0) == dense_audits(s, 2.0) == ([], [(1, 2, (2.0).hex())])

    def test_tied_distances_keep_atom_order(self):
        rows = [("A", 1, "CB", (0.0, 0.0, 0.0)), ("B", 1, "CB", (1.5, 0.0, 0.0)),
                ("C", 1, "CB", (-1.5, 0.0, 0.0))]
        assert fast_audits(cloud_structure(rows), 2.0)[0] == [(0, 1, (1.5).hex()), (0, 2, (1.5).hex())]

    def test_candidates_grow_linearly_with_the_stack(self):
        # A 4-cell stack has 16x the pairs of one cell; neighbour candidates
        # may grow no faster than the atom count, with room for the ends.
        spec = FibrilSpec(sequence="GAAAAG")
        model, _ = build_fibril_model(load_template(), spec)
        pos, names = model.coords, model.names
        period = 3.0 * spec.lattice.intra_sheet_step

        def stack(points, cells):
            return None if points is None else np.concatenate([points + k * period for k in range(cells)])

        for first, second, cutoff in ((pos, pos, 2.0), (pos, None, 2.0), (pos[names == "N"], pos[names == "O"], 3.5)):
            one, four = (len(_neighbour_pairs(stack(first, c), stack(second, c), cutoff)[0]) for c in (1, 4))
            assert 0 < four <= 5 * one


@pytest.fixture(scope="module")
def gaaaag_model():
    return build_fibril_model(load_template(), FibrilSpec(sequence="GAAAAG", optimizer=OptimizerConfig(seed=0)))[0]


def default_contacts():
    return [ContactPair(AtomSelector.parse(a), AtomSelector.parse(b))
            for a, b in zip(DEFAULT_ANCHOR_SELECTORS, DEFAULT_FREE_SELECTORS)]


class TestEnergyReport:
    def test_contact_pair_carries_no_potential(self):
        assert [f.name for f in fields(ContactPair)] == ["first", "second"]
        with pytest.raises(StericZipError, match="must be distinct"):
            ContactPair(AtomSelector.parse("A.ALA3.CB"), AtomSelector.parse("A.ALA3.CB"))

    @pytest.mark.parametrize("sigma, energy", [(5.82, -1.0), (4.0, -0.1997)])
    def test_contacts_are_scored_with_the_reported_parameters(self, gaaaag_model, sigma, energy):
        # A report used to print sigma 4.0 beside contact energies computed
        # with each contact's own parameters (sigma 5.82, energy -1.0).
        lj = LJParams(1.0, sigma)
        report = structure_energy_report(gaaaag_model, lj=lj, contacts=default_contacts())
        assert report["parameters"]["sigma"] == sigma and report["parameters"]["epsilon"] == 1.0
        assert len(report["contacts"]) == 2
        for pair, row in zip(default_contacts(), report["contacts"]):
            first, second = (gaaaag_model.coords[atom_row(gaaaag_model, atom)] for atom in (pair.first, pair.second))
            assert (row["first"], row["second"]) == (str(pair.first), str(pair.second))
            assert row["distance"] == pytest.approx(np.linalg.norm(first - second), abs=1e-12)
            assert row["energy"] == lj_pair_energy(row["distance"], lj)
            assert row["energy"] == pytest.approx(energy, abs=5e-5)
            assert row["optimal_distance"] == lj.r_min
        assert report["total_contact_energy"] == sum(row["energy"] for row in report["contacts"])

    def test_no_contacts_and_missing_atoms(self, gaaaag_model):
        assert contact_report(gaaaag_model, [], LJParams()) == []
        assert structure_energy_report(gaaaag_model)["contacts"] == []
        missing = ContactPair(AtomSelector.parse("A.GLY1.CB"), AtomSelector.parse("G.ALA3.CB"))
        with pytest.raises(StericZipError, match="no atom matches A.GLY1.CB"):
            contact_report(gaaaag_model, [missing], LJParams())

    def test_report_rebuilds_no_per_atom_rows(self, gaaaag_model, monkeypatch):
        # Each atom's residue and chain are derived once, when the structure
        # is built; the report used to rebuild them 12 times on a 4-cell stack.
        calls = []
        rows = Structure._rows
        monkeypatch.setattr(Structure, "_rows", staticmethod(lambda starts: calls.append(1) or rows(starts)))
        structure_energy_report(gaaaag_model, contacts=default_contacts())
        assert calls == []

    def test_hbond_rows_are_named_tuples(self, gaaaag_model):
        bonds = detect_hbonds(gaaaag_model)
        assert bonds and all(isinstance(b, tuple) and type(b) is HBond for b in bonds)
        assert HBond._fields == ("donor", "acceptor", "distance")
        bond = HBond("A.GLY1.N", "B.ALA2.O", 2.5)
        assert repr(bond) == "HBond(donor='A.GLY1.N', acceptor='B.ALA2.O', distance=2.5)"
        assert bond == HBond("A.GLY1.N", "B.ALA2.O", 2.5) and bond != HBond("A.GLY1.N", "B.ALA2.O", 2.6)
