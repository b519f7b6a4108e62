"""Mutation, placement, and the full model-building pipeline."""

from dataclasses import replace

import numpy as np
import pytest

from stericzip import (
    PALINDROME_WINDOWS,
    FibrilSpec,
    LJParams,
    MutationError,
    OptimizerConfig,
    RigidTransform,
    SheetLattice,
    StericZipError,
    apply_sequence,
    build_fibril_model,
    detect_hbonds,
    mutate_residue,
    select_atom,
    solve_contact_placement,
    synthetic_template,
    transform_chain,
    validate_sequence,
    write_pdb,
)
from stericzip.builder import placement_objective
from stericzip.template import SHEET_FLIP_ROTATION

R_MIN_FACTOR = 2.0 ** (1.0 / 6.0)
BACKBONE = ("N", "CA", "C", "O")


def quick_config(seed=0, budget=40_000):
    return OptimizerConfig(max_evaluations=budget, seed=seed)


def backbone_positions(structure, chain_id):
    rows = []
    for residue in structure.chain(chain_id).residues:
        for name in BACKBONE:
            rows.append(residue.atom(name).position)
    return np.array(rows)


class TestSequenceValidation:
    def test_round_trip(self):
        assert validate_sequence("gaaaag") == "GAAAAG"

    def test_wrong_length(self):
        with pytest.raises(StericZipError):
            validate_sequence("GAAAG")

    def test_wrong_alphabet(self):
        with pytest.raises(StericZipError):
            validate_sequence("GAAAXG")


class TestMutateResidue:
    def test_tyr_to_ala_keeps_cb_drops_rest(self):
        s = synthetic_template()
        source_cb = select_atom(s, "A.TYR128.CB").position.copy()
        out = mutate_residue(s, "A", 128, "ALA")
        residue = out.chain("A").residue(128)
        assert residue.res_name == "ALA"
        assert sorted(a.name for a in residue.atoms) == ["C", "CA", "CB", "N", "O"]
        assert np.array_equal(residue.atom("CB").position, source_cb)

    def test_gly_to_gly_is_identity(self):
        s = synthetic_template()
        out = mutate_residue(s, "A", 127, "GLY")
        assert out == s

    def test_met_to_gly_strips_side_chain(self):
        out = mutate_residue(synthetic_template(), "A", 129, "GLY")
        residue = out.chain("A").residue(129)
        assert sorted(a.name for a in residue.atoms) == ["C", "CA", "N", "O"]

    def test_gly_to_ala_constructs_tetrahedral_cb(self):
        s = synthetic_template()
        out = mutate_residue(s, "A", 131, "ALA")
        residue = out.chain("A").residue(131)
        new_atoms = [a.name for a in residue.atoms]
        assert new_atoms == ["N", "CA", "C", "O", "CB"]
        n, ca, c, cb = (residue.atom(x).position for x in ("N", "CA", "C", "CB"))
        assert np.linalg.norm(cb - ca) == pytest.approx(1.521, abs=1e-3)

        def angle(p, q, r):
            v1, v2 = p - q, r - q
            return np.degrees(np.arccos(v1 @ v2 / np.linalg.norm(v1) / np.linalg.norm(v2)))

        assert abs(angle(n, ca, cb) - 109.5) <= 1.0
        assert abs(angle(c, ca, cb) - 109.5) <= 1.0

    def test_backbone_bit_identical(self):
        s = synthetic_template()
        out = mutate_residue(s, "A", 129, "ALA")
        assert np.array_equal(backbone_positions(out, "A"), backbone_positions(s, "A"))

    def test_missing_residue(self):
        with pytest.raises(MutationError):
            mutate_residue(synthetic_template(), "A", 999, "ALA")

    def test_missing_backbone_atom(self):
        s = synthetic_template()
        residue = s.chain("A").residue(129)
        residue.atoms = [a for a in residue.atoms if a.name != "CA"]
        with pytest.raises(MutationError):
            mutate_residue(s, "A", 129, "ALA")

    def test_bad_target(self):
        with pytest.raises(MutationError):
            mutate_residue(synthetic_template(), "A", 127, "TRP")


class TestApplySequence:
    def test_renumbers_one_to_six(self):
        out = apply_sequence(synthetic_template(), "A", "GAAAAG")
        assert [r.res_seq for r in out.chain("A").residues] == [1, 2, 3, 4, 5, 6]
        assert [r.res_name for r in out.chain("A").residues] == [
            "GLY", "ALA", "ALA", "ALA", "ALA", "GLY"
        ]
        # selectors of the placement problem resolve after renumbering
        assert select_atom(out, "A.ALA3.CB").name == "CB"

    def test_same_content_renumbers_only(self):
        first = apply_sequence(synthetic_template(), "A", "GAAAAG")
        again = apply_sequence(first, "A", "GAAAAG")
        assert again == first

    def test_hbond_count_preserved(self):
        s = synthetic_template()
        before = len(detect_hbonds(s.subset(("A", "B"))))
        out = apply_sequence(apply_sequence(s, "A", "AAAAGA"), "B", "AAAAGA")
        after = len(detect_hbonds(out.subset(("A", "B"))))
        assert before == after == 5

    def test_length_mismatch(self):
        s = synthetic_template()
        s.chain("A").residues.pop()
        with pytest.raises(MutationError):
            apply_sequence(s, "A", "GAAAAG")

    def test_one_build_makes_few_copies(self, monkeypatch):
        # apply_sequence copies its structure once, not once per residue, and
        # the cell is built from the mutated unit in one pass: a default build
        # makes 2 structure and 529 atom copies (7 and 1,033 with sheet 2 built
        # before placement and again after it).
        from stericzip.pdbio import Atom, Structure

        calls = {Atom: 0, Structure: 0}
        for cls in calls:
            def counted(self, _copy=cls.copy, _cls=cls):
                calls[_cls] += 1
                return _copy(self)

            monkeypatch.setattr(cls, "copy", counted)
        build_fibril_model(synthetic_template(), FibrilSpec(sequence="GAAAAG"))
        assert 1 <= calls[Structure] <= 2
        assert calls[Atom] <= 600


class TestPlacement:
    def test_synthetic_two_anchor_problem(self):
        anchors = np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0]])
        free0 = np.array([[0.0, 6.0, 0.0], [10.0, 6.0, 0.0]])
        params = LJParams(1.0, 4.0)
        target = R_MIN_FACTOR * 4.0
        for seed in range(5):
            outcome = solve_contact_placement(
                anchors, free0, params, RigidTransform.identity(), quick_config(seed)
            )
            assert outcome.refined_energy == pytest.approx(-2.0, abs=1e-6)
            assert np.all(np.abs(outcome.contact_distances - target) <= 5e-3)

    def test_start_at_optimum_keeps_displacement_zero(self):
        anchors = np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0]])
        r = R_MIN_FACTOR * 4.0
        free0 = anchors + np.array([0.0, r, 0.0])
        outcome = solve_contact_placement(
            anchors, free0, LJParams(1.0, 4.0), RigidTransform.identity(), quick_config(1)
        )
        assert outcome.optimizer_result.terminated_by == "tolerance"
        assert np.allclose(outcome.transform.translation, 0.0, atol=1e-9)

    def test_rotation_preserved_translation_updated(self):
        template = synthetic_template()
        spec = FibrilSpec(sequence="GAAAAG", optimizer=quick_config(3))
        model, report = build_fibril_model(template, spec)
        rotation = np.array(report.sheet_transform[:9]).reshape(3, 3)
        translation = np.array(report.sheet_transform[9:])
        assert np.array_equal(rotation, SHEET_FLIP_ROTATION)
        assert not np.allclose(translation, spec.lattice.sheet2_transform.translation)


class TestPlacementObjective:
    anchors = np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0]])
    free0 = np.array([[0.0, 6.0, 0.0], [10.0, 6.0, 1.0]])
    params = LJParams(1.0, 4.0)

    @pytest.mark.parametrize("full_sum", [False, True])
    def test_scalar_batch_and_gradient_agree(self, full_sum):
        obj = placement_objective(self.anchors, self.free0, self.params, full_sum)
        points = np.random.default_rng(5).uniform(obj.lower, obj.upper, size=(40, 3))
        batch = obj.evaluate_batch(points)
        h = 1e-6
        for u, value in zip(points, batch):
            assert obj.evaluate(u) == value
            central = [(obj.evaluate(u + h * e) - obj.evaluate(u - h * e)) / (2 * h) for e in np.eye(3)]
            assert np.allclose(obj.gradient(u), central, rtol=1e-6, atol=1e-8)

    def test_point_on_a_centre_is_finite_and_path_independent(self):
        obj = placement_objective(self.anchors, self.free0, self.params)
        centre = self.anchors[0] - self.free0[0]
        value = obj.evaluate(centre)
        assert np.isfinite(value) and value > 1e100
        assert obj.evaluate_batch(centre[None, :])[0] == value
        # The coincident pair exerts no force; only the other pair does.
        other = placement_objective(self.anchors[1:], self.free0[1:], self.params)
        assert np.array_equal(obj.gradient(centre), other.gradient(centre))


def nearest_optimum(c1, c2, r_min):
    """Point of the circle |u - c1| = |u - c2| = r_min nearest u = 0, and its radius."""
    axis = (c2 - c1) / np.linalg.norm(c2 - c1)
    middle = (c1 + c2) / 2
    radius = np.sqrt(r_min**2 - np.sum((c2 - c1) ** 2) / 4)
    toward = -middle + (middle @ axis) * axis  # origin minus middle, in the circle's plane
    return middle + radius * toward / np.linalg.norm(toward), radius


class TestDefaultPlacement:
    @pytest.mark.parametrize("sequence", PALINDROME_WINDOWS)
    def test_translation_is_the_optimum_nearest_the_template(self, sequence):
        spec = FibrilSpec(sequence=sequence)
        work = apply_sequence(apply_sequence(synthetic_template(), "A", sequence), "B", sequence)
        base = spec.lattice.sheet2_transform
        work = transform_chain(transform_chain(work, "A", base, "G"), "B", base, "H")
        anchors = [select_atom(work, s).position for s in spec.anchor_selectors()]
        free = [select_atom(work, s).position for s in spec.free_selectors()]
        expected, radius = nearest_optimum(anchors[0] - free[0], anchors[1] - free[1], spec.lj.r_min)

        _, report = build_fibril_model(synthetic_template(), spec)
        u = np.array(report.sheet_transform[9:]) - base.translation
        assert np.max(np.abs(u - expected)) <= 1e-9
        assert np.allclose(expected, [-7.343, -2.373, 2.950], atol=5e-4)
        assert radius == pytest.approx(2.610, abs=5e-4)


def random_frame(seed):
    """A proper rotation from a seeded QR draw, with a translation of up to 20 A."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return RigidTransform(q, rng.uniform(-20.0, 20.0, 3))


QUARTER_TURN_ABOUT_X = RigidTransform(np.array([[1.0, 0, 0], [0, 0, -1], [0, 1, 0]]), np.zeros(3))


class TestSeedAndFrameIndependence:
    @pytest.mark.parametrize("sequence", PALINDROME_WINDOWS)
    def test_default_builds_do_not_depend_on_seed(self, sequence):
        template = synthetic_template()
        texts = set()
        for seed in range(4):
            spec = FibrilSpec(sequence=sequence, optimizer=quick_config(seed))
            model, report = build_fibril_model(template, spec)
            texts.add(write_pdb(model))
            assert report.warnings == []
            for contact in report.contacts:
                assert abs(contact["distance"] - contact["optimal_distance"]) <= 1e-6
        assert len(texts) == 1

    def test_full_sum_builds_do_not_depend_on_seed(self):
        template = synthetic_template()
        texts = set()
        for seed in (0, 1):
            spec = FibrilSpec(sequence="GAAAAG", full_sum=True, optimizer=quick_config(seed))
            texts.add(write_pdb(build_fibril_model(template, spec)[0]))
        assert len(texts) == 1

    @pytest.mark.parametrize(
        "frame", [QUARTER_TURN_ABOUT_X, random_frame(1), random_frame(2), random_frame(3)]
    )
    def test_moved_template_gives_moved_model(self, frame):
        template = synthetic_template()
        spec = FibrilSpec(sequence="GAAAAG", optimizer=quick_config(2))
        model, _ = build_fibril_model(template, spec)

        moved = template.copy()
        for atom in moved.atoms():
            atom.position = frame.apply(atom.position)
        lattice = SheetLattice(
            frame.rotation @ spec.lattice.intra_sheet_step,
            frame.compose(spec.lattice.sheet2_transform).compose(frame.inverse()),
        )
        moved_model, report = build_fibril_model(moved, replace(spec, lattice=lattice))
        assert report.success and report.clashes == []
        assert moved_model.chain_ids() == model.chain_ids()
        for cid in model.chain_ids():
            expected = frame.apply(model.chain(cid).positions())
            assert np.allclose(moved_model.chain(cid).positions(), expected, rtol=0.0, atol=1e-9)


@pytest.fixture(scope="module")
def builds():
    template = synthetic_template()
    out = {}
    for seq in ("AGAAAA", "GAAAAG", "AAAAGA"):
        spec = FibrilSpec(sequence=seq, model_name=seq.lower(), optimizer=quick_config(42))
        out[seq] = build_fibril_model(template, spec)
    return out


class TestBuildPipeline:
    def test_twelve_chains(self, builds):
        for model, report in builds.values():
            assert model.chain_ids() == list("ABCDEFGHIJKL")
            assert report.success

    def test_six_residues_each(self, builds):
        model, _ = builds["GAAAAG"]
        for chain in model.chains:
            assert [r.res_seq for r in chain.residues] == [1, 2, 3, 4, 5, 6]

    def test_hbonds_conserved(self, builds):
        for _, report in builds.values():
            assert report.hbond_count_after == report.hbond_count_before
            assert report.model_hbond_count > 0

    def test_no_clashes(self, builds):
        for _, report in builds.values():
            assert report.clashes == []

    def test_contacts_within_two_percent(self, builds):
        for _, report in builds.values():
            target = R_MIN_FACTOR * report.parameters["sigma"]
            for contact in report.contacts:
                assert abs(contact["distance"] - target) <= 0.02 * target

    def test_models_share_backbone_bits(self, builds):
        reference, _ = builds["GAAAAG"]
        for seq in ("AGAAAA", "AAAAGA"):
            other, _ = builds[seq]
            for cid in "ABCDEFGHIJKL":
                assert np.array_equal(
                    backbone_positions(reference, cid), backbone_positions(other, cid)
                )

    def test_residue_identities_differ_only_in_cb(self, builds):
        model, _ = builds["AGAAAA"]
        names = [r.res_name for r in model.chain("A").residues]
        assert names == ["ALA", "GLY", "ALA", "ALA", "ALA", "ALA"]
        assert model.chain("A").residue(2).atom("CB") is None
        assert model.chain("A").residue(1).atom("CB") is not None

    def test_intra_sheet_spacing_exact(self, builds):
        from stericzip.template import INTRA_SHEET_STEP

        model, _ = builds["GAAAAG"]
        a = model.chain("A").positions()
        assert np.array_equal(model.chain("C").positions(), a + INTRA_SHEET_STEP)
        assert np.array_equal(model.chain("E").positions(), a - INTRA_SHEET_STEP)

    def test_deterministic_output_bytes(self):
        template = synthetic_template()
        spec = FibrilSpec(sequence="GAAAAG", optimizer=quick_config(11))
        first, report_a = build_fibril_model(template, spec)
        second, report_b = build_fibril_model(template, spec)
        assert write_pdb(first) == write_pdb(second)
        assert report_a.to_json() == report_b.to_json()

    def test_template_sheet_two_is_ignored_with_a_warning(self):
        # A template that carries its own sheet 2, moved 1 A off the screw
        # image, gives the model built from chains A and B alone.
        spec = FibrilSpec(sequence="GAAAAG", optimizer=quick_config(0))
        template = synthetic_template()
        for source, new_id in (("A", "G"), ("B", "H")):
            template = transform_chain(template, source, spec.lattice.sheet2_transform, new_id)
            for atom in template.chain(new_id).atoms():
                atom.position = atom.position - np.array([0.0, 0.0, 1.0])
        model, report = build_fibril_model(template, spec)
        assert [w for w in report.warnings if "G, H ignored" in w]
        for contact in report.contacts:
            measured = np.linalg.norm(
                select_atom(model, contact["anchor"]).position - select_atom(model, contact["free"]).position
            )
            assert measured == pytest.approx(contact["distance"], abs=1e-9)
            assert contact["distance"] == pytest.approx(spec.lj.r_min, abs=1e-6)
        clean, _ = build_fibril_model(synthetic_template(), spec)
        assert write_pdb(model) == write_pdb(clean)

    def test_free_atom_missing_from_its_source_names_the_selector(self):
        from stericzip import BuildError

        spec = FibrilSpec(sequence="AGAAAA", free_atoms=("G.ALA2.CB", "H.ALA3.CB"), optimizer=quick_config(0))
        with pytest.raises(BuildError, match=r"^placement: free atom G\.ALA2\.CB is the screw image of A\.ALA2\.CB"):
            build_fibril_model(synthetic_template(), spec)

    def test_template_missing_chain_fails_with_stage(self):
        from stericzip import BuildError

        bad = synthetic_template().subset(("A",))
        with pytest.raises(BuildError) as err:
            build_fibril_model(bad, FibrilSpec(sequence="GAAAAG", optimizer=quick_config(0)))
        assert err.value.stage == "template"


class TestFibrilSpec:
    def test_alphabet_enforced(self):
        with pytest.raises(StericZipError):
            FibrilSpec(sequence="GAAAXG")

    def test_contact_selectors_must_be_ala_cb(self):
        with pytest.raises(StericZipError):
            FibrilSpec(sequence="GAAAAG", anchors=("A.GLY1.CA", "B.ALA4.CB"))

    @pytest.mark.parametrize(
        "anchors, free_atoms, named",
        [
            (("A.ALA3.CB", "B.ALA4.CB"), ("A.ALA4.CB", "H.ALA3.CB"), "free atom A.ALA4.CB"),
            (("G.ALA3.CB", "B.ALA4.CB"), ("G.ALA4.CB", "H.ALA3.CB"), "anchor G.ALA3.CB"),
        ],
    )
    def test_contact_selectors_must_lie_in_their_sheet(self, anchors, free_atoms, named):
        with pytest.raises(StericZipError, match=named):
            FibrilSpec(sequence="GAAAAG", anchors=anchors, free_atoms=free_atoms)

    def test_anchor_free_length_mismatch(self):
        with pytest.raises(StericZipError):
            FibrilSpec(sequence="GAAAAG", anchors=("A.ALA3.CB",))

    def test_from_json_overrides(self):
        spec = FibrilSpec.from_json(
            '{"sequence": "AAAAGA", "lj": {"epsilon": 2.0, "sigma": 5.0},'
            ' "optimizer": {"seed": 9, "max_evaluations": 1000}}'
        )
        assert spec.sequence == "AAAAGA"
        assert spec.lj == LJParams(2.0, 5.0)
        assert spec.optimizer.seed == 9
