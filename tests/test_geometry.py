"""Rigid transforms, lattice replication, and displacement reconciliation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frames import inverse
from stericzip import (
    RigidTransform,
    SheetLattice,
    StructureError,
    atom_row,
    cbeta_position,
    parse_pdb,
    reconcile_translation,
    replicate_lattice,
    synthetic_template,
    transform_chain,
    write_pdb,
)
from stericzip.template import (
    INTRA_SHEET_STEP,
    SHEET_FLIP_ROTATION,
    TEMPLATE_SHEET_TRANSLATION,
    default_lattice,
)


def sheet_screw() -> RigidTransform:
    return RigidTransform(SHEET_FLIP_ROTATION, TEMPLATE_SHEET_TRANSLATION)


class TestApply:
    def test_screw_moves_origin_to_template_offset(self):
        assert np.allclose(sheet_screw().apply([0.0, 0.0, 0.0]), [9.075, 4.7765, 0.0], atol=0)

    def test_screw_on_generic_point(self):
        assert np.allclose(sheet_screw().apply([1.0, 2.0, 3.0]), [10.075, 2.7765, -3.0], atol=0)

    def test_identity(self):
        p = np.array([3.1, -2.2, 7.7])
        assert np.array_equal(RigidTransform.identity().apply(p), p)

    def test_batch_matches_single(self):
        t = sheet_screw()
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]])
        batch = t.apply(pts)
        assert np.array_equal(batch[0], t.apply(pts[0]))
        assert np.array_equal(batch[1], t.apply(pts[1]))


class TestCompose:
    def test_screw_is_involution_up_to_lattice_shift(self):
        doubled = sheet_screw().compose(sheet_screw())
        assert np.array_equal(doubled.rotation, np.eye(3))
        assert np.array_equal(doubled.translation, np.array([18.15, 0.0, 0.0]))

    def test_identity_is_neutral(self):
        t = sheet_screw()
        composed = RigidTransform.identity().compose(t)
        assert np.array_equal(composed.rotation, t.rotation)
        assert np.array_equal(composed.translation, t.translation)

    def test_step_after_screw_builds_next_sheet_chain(self):
        # Translating the screw image by the stacking step is the same map
        # used to build chain I from chain A via chain G.
        s = synthetic_template()
        step = RigidTransform(np.eye(3), INTRA_SHEET_STEP)
        with_g = transform_chain(s, "A", sheet_screw(), "G")
        with_i = transform_chain(with_g, "G", step, "I")
        direct = transform_chain(s, "A", step.compose(sheet_screw()), "I")
        assert np.allclose(
            with_i.chain("I").coords, direct.chain("I").coords, atol=1e-12
        )


def random_rotation(rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    return q * np.sign(np.diag(r))


class TestRigidity:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000))
    def test_pairwise_distances_preserved(self, seed):
        rng = np.random.default_rng(seed)
        t = RigidTransform(random_rotation(rng), rng.standard_normal(3) * 10)
        pts = rng.standard_normal((8, 3)) * 5
        moved = t.apply(pts)
        d0 = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
        d1 = np.linalg.norm(moved[:, None] - moved[None, :], axis=2)
        assert np.max(np.abs(d0 - d1)) < 1e-9

    def test_non_orthogonal_rotation_rejected(self):
        with pytest.raises(StructureError):
            RigidTransform(np.eye(3) * 2.0, np.zeros(3))


class TestTransformChain:
    def test_reflected_copy(self):
        s = synthetic_template()
        out = transform_chain(s, "A", sheet_screw(), "G")
        a = s.chain("A").coords
        g = out.chain("G").coords
        assert np.allclose(g, a @ SHEET_FLIP_ROTATION.T + TEMPLATE_SHEET_TRANSLATION, atol=0)
        assert out.chain("G").n_atoms() == s.chain("A").n_atoms()

    def test_identity_duplicates_coordinates(self):
        s = synthetic_template()
        out = transform_chain(s, "A", RigidTransform.identity(), "X")
        assert np.array_equal(out.chain("X").coords, s.chain("A").coords)

    def test_translation_only_builds_stacked_chain(self):
        s = synthetic_template()
        step = RigidTransform(np.eye(3), INTRA_SHEET_STEP)
        out = transform_chain(s, "A", step, "C")
        assert np.array_equal(out.chain("C").coords, s.chain("A").coords + INTRA_SHEET_STEP)

    def test_inverse_restores_coordinates(self):
        s = synthetic_template()
        t = sheet_screw()
        out = transform_chain(s, "A", t, "G")
        out = transform_chain(out, "G", inverse(t), "X")
        assert np.allclose(out.chain("X").coords, s.chain("A").coords, atol=1e-9)

    def test_missing_chain(self):
        with pytest.raises(StructureError):
            transform_chain(synthetic_template(), "Q", sheet_screw(), "G")

    def test_id_collision(self):
        with pytest.raises(StructureError):
            transform_chain(synthetic_template(), "A", sheet_screw(), "B")


class TestReplicate:
    def test_twelve_chains_with_expected_ids(self):
        full = replicate_lattice(synthetic_template(), default_lattice())
        assert full.chain_ids() == list("ABCDEFGHIJKL")

    def test_atom_counts_match_sources(self):
        full = replicate_lattice(synthetic_template(), default_lattice())
        for new_id, src_id in (("C", "A"), ("D", "B"), ("E", "A"), ("F", "B"),
                               ("I", "G"), ("J", "H"), ("K", "G"), ("L", "H")):
            assert full.chain(new_id).n_atoms() == full.chain(src_id).n_atoms()

    def test_step_offsets_exact(self):
        full = replicate_lattice(synthetic_template(), default_lattice())
        a = full.chain("A").coords
        assert np.array_equal(full.chain("E").coords, a - INTRA_SHEET_STEP)
        assert np.array_equal(full.chain("C").coords, a + INTRA_SHEET_STEP)
        g = full.chain("G").coords
        assert np.array_equal(full.chain("I").coords, g + INTRA_SHEET_STEP)
        assert np.array_equal(full.chain("K").coords, g - INTRA_SHEET_STEP)

    def test_translation_family_centroid_offsets_are_step_multiples(self):
        full = replicate_lattice(synthetic_template(), default_lattice())
        step_y = INTRA_SHEET_STEP[1]
        for family in (("E", "A", "C"), ("F", "B", "D"), ("K", "G", "I"), ("L", "H", "J")):
            centroids = [full.chain(c).coords.mean(axis=0) for c in family]
            for i in range(len(centroids)):
                for j in range(len(centroids)):
                    dy = centroids[i][1] - centroids[j][1]
                    assert abs(dy / step_y - round(dy / step_y)) < 1e-9

    def test_zero_step_rejected(self):
        with pytest.raises(StructureError):
            SheetLattice(np.zeros(3), sheet_screw())

    @pytest.mark.parametrize("rotation, translation, step", [
        (np.full((3, 3), np.nan), np.zeros(3), INTRA_SHEET_STEP),
        (np.diag([1.0, np.nan, 1.0]), np.zeros(3), INTRA_SHEET_STEP),
        (np.eye(3), [0.0, np.inf, 0.0], INTRA_SHEET_STEP),
        (np.eye(3), np.zeros(3), [0.0, np.nan, 0.0]),
        (np.eye(3), np.zeros(3), [0.0, -np.inf, 0.0]),
    ])
    def test_non_finite_transform_or_step_rejected(self, rotation, translation, step):
        with pytest.raises(StructureError, match="finite"):
            SheetLattice(step, RigidTransform(rotation, translation))

    def test_missing_source_chain(self):
        with pytest.raises(StructureError):
            replicate_lattice(synthetic_template().subset(("A",)), default_lattice())

    def test_sheet_two_is_the_screw_image_of_sheet_one(self):
        unit = synthetic_template()
        lattice = SheetLattice(INTRA_SHEET_STEP, RigidTransform(SHEET_FLIP_ROTATION, [9.0, 4.0, -1.5]))
        full = replicate_lattice(unit, lattice)
        for new_id, src_id in (("G", "A"), ("H", "B")):
            expected = [lattice.sheet2_transform.apply(p) for p in unit.chain(src_id).coords]
            assert np.array_equal(full.chain(new_id).coords, np.array(expected))
        # Headers are carried over and serials follow the writer's numbering.
        assert full.headers == unit.headers
        written = parse_pdb(write_pdb(full))
        assert [a.serial for a in written.atoms()] == [a.serial for a in full.atoms()]

    def test_extra_unit_chains_rejected(self):
        unit = transform_chain(synthetic_template(), "A", sheet_screw(), "G")
        with pytest.raises(StructureError, match=r"\['G'\]"):
            replicate_lattice(unit, default_lattice())


class TestReconcile:
    def test_equal_displacements(self):
        base = sheet_screw()
        out, residual = reconcile_translation(
            [[0, 0, 0], [1, 1, 1]], [[1, 0, 0], [2, 1, 1]], base
        )
        assert np.allclose(out.translation, [10.075, 4.7765, 0.0], atol=0)
        assert residual == 0.0
        assert np.array_equal(out.rotation, base.rotation)

    def test_disagreeing_displacements(self):
        base = RigidTransform.identity()
        out, residual = reconcile_translation(
            [[0, 0, 0], [0, 0, 0]], [[1, 0, 0], [0, 1, 0]], base
        )
        assert np.allclose(out.translation, [0.5, 0.5, 0.0])
        assert residual == pytest.approx(np.sqrt(0.5), abs=1e-12)

    def test_single_displacement(self):
        base = RigidTransform.identity()
        out, residual = reconcile_translation([[0, 0, 0]], [[0.3, -0.2, 0.9]], base)
        assert np.allclose(out.translation, [0.3, -0.2, 0.9])
        assert residual == 0.0

    def test_empty_rejected(self):
        with pytest.raises(StructureError):
            reconcile_translation(np.zeros((0, 3)), np.zeros((0, 3)), RigidTransform.identity())

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(StructureError):
            reconcile_translation(np.zeros((2, 3)), np.zeros((3, 3)), RigidTransform.identity())


class TestCBetaConstruction:
    def test_geometry_from_template_backbone(self):
        s = synthetic_template()
        n, ca, c = (s.coords[atom_row(s, f"A.MET129.{x}")] for x in ("N", "CA", "C"))
        cb = cbeta_position(n, ca, c)
        assert np.linalg.norm(cb - ca) == pytest.approx(1.521, abs=1e-9)

        def angle(p, q, r):
            v1, v2 = p - q, r - q
            cosv = v1 @ v2 / (np.linalg.norm(v1) * np.linalg.norm(v2))
            return np.degrees(np.arccos(cosv))

        assert angle(n, ca, cb) == pytest.approx(109.47, abs=0.01)
        assert angle(c, ca, cb) == pytest.approx(109.47, abs=0.01)

    def test_is_bitwise_the_reference_formula(self):
        # The reference is the formula written with np.linalg.norm and np.cross.
        def reference(n, ca, c):
            u1, u2 = n - ca, c - ca
            u1 /= np.linalg.norm(u1)
            u2 /= np.linalg.norm(u2)
            bisector = u1 + u2
            bisector /= np.linalg.norm(bisector)
            perp = np.cross(u1, u2)
            perp /= np.linalg.norm(perp)
            p = np.cos(np.radians(109.47)) / float(np.dot(bisector, u1))
            return ca + 1.521 * (p * bisector + np.sqrt(max(0.0, 1.0 - p * p)) * perp)

        rng = np.random.default_rng(0)
        scale = 10.0 ** rng.choice([-150, -100, -3, 0, 2, 100, 150], size=(20_000, 1, 1))
        triples = rng.normal(size=(20_000, 3, 3)) * scale
        triples[::13, 2] = triples[::13, 0]  # N and C coincide: CA-N and CA-C are parallel
        triples[::17, 1] = triples[::17, 0]  # N on CA
        with np.errstate(all="ignore"):
            got = np.array([cbeta_position(*triple) for triple in triples])
            want = np.array([reference(*triple) for triple in triples])
        assert got.tobytes() == want.tobytes()
