"""Mutation, placement, and the full model-building pipeline."""

import hashlib
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atom_rows import rows_of, structure_from_rows
from frames import inverse
from stericzip import (
    PALINDROME_WINDOWS,
    FibrilSpec,
    LJParams,
    MutationError,
    OptimizerConfig,
    RigidTransform,
    SheetLattice,
    StericZipError,
    Structure,
    apply_sequence,
    atom_row,
    build_fibril_model,
    detect_hbonds,
    load_template,
    mutate_residue,
    parse_pdb,
    solve_contact_placement,
    structure_energy_report,
    synthetic_template,
    transform_chain,
    validate_sequence,
    write_pdb,
)
from stericzip.builder import (
    box_lower_bounds,
    certify_lower_bound,
    collinear_offsets,
    nearest_optimum,
    placement_centres,
    placement_objective,
)
from stericzip.geometry import FIBRIL_CELL
from stericzip.pdbio import ATOM_COLUMNS
from stericzip.template import DEFAULT_ANCHOR_SELECTORS, DEFAULT_FREE_SELECTORS, SHEET_FLIP_ROTATION

R_MIN_FACTOR = 2.0 ** (1.0 / 6.0)
BACKBONE = ("N", "CA", "C", "O")


def quick_config(seed=0, budget=40_000):
    return OptimizerConfig(max_evaluations=budget, seed=seed)


def contact_distances(anchors, free0, outcome):
    """Contact pair (i, i) distances once a placement from the identity screw moves the free atoms."""
    return np.linalg.norm(free0 + outcome.transform.translation - anchors, axis=1)


def residue_atoms(structure, chain_id, res_seq):
    """Name of residue ``res_seq`` of chain ``chain_id`` and its atoms' positions by name, in record order."""
    chain = structure.chain(chain_id)
    r = int(np.flatnonzero(chain.res_seqs == res_seq)[0])
    rows = slice(*chain.res_starts[r:r + 2])
    return str(chain.res_names[r]), dict(zip(chain.names[rows].tolist(), chain.coords[rows]))


def backbone_positions(structure, chain_id):
    rows = []
    for res_seq in structure.chain(chain_id).res_seqs:
        atoms = residue_atoms(structure, chain_id, res_seq)[1]
        for name in BACKBONE:
            rows.append(atoms[name])
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
        source_cb = s.coords[atom_row(s, "A.TYR128.CB")].copy()
        out = mutate_residue(s, "A", 128, "ALA")
        res_name, atoms = residue_atoms(out, "A", 128)
        assert res_name == "ALA"
        assert sorted(atoms) == ["C", "CA", "CB", "N", "O"]
        assert np.array_equal(atoms["CB"], source_cb)

    def test_gly_to_gly_is_identity(self):
        s = synthetic_template()
        out = mutate_residue(s, "A", 127, "GLY")
        assert out == s

    def test_met_to_gly_strips_side_chain(self):
        out = mutate_residue(synthetic_template(), "A", 129, "GLY")
        assert sorted(residue_atoms(out, "A", 129)[1]) == ["C", "CA", "N", "O"]

    def test_gly_to_ala_constructs_tetrahedral_cb(self):
        s = synthetic_template()
        out = mutate_residue(s, "A", 131, "ALA")
        atoms = residue_atoms(out, "A", 131)[1]
        assert list(atoms) == ["N", "CA", "C", "O", "CB"]
        n, ca, c, cb = (atoms[x] for x in ("N", "CA", "C", "CB"))
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
        s = structure_from_rows([row for row in rows_of(s) if (row[0], row[1], row[3]) != ("A", 129, "CA")], s.headers)
        with pytest.raises(MutationError, match=r"^residue A\.MET129 lacks backbone atom CA$"):
            mutate_residue(s, "A", 129, "ALA")

    def test_bad_target(self):
        with pytest.raises(MutationError):
            mutate_residue(synthetic_template(), "A", 127, "TRP")


class TestApplySequence:
    def test_segment_ids_and_charges_follow_their_atoms(self):
        # The template with segment id SEG<chain> on every record and charge 1+ on each CA.
        text = write_pdb(load_template())
        template = parse_pdb("".join(
            line[:72] + f"SEG{line[21]}" + line[76:78] + ("1+" if line[12:16] == " CA " else "") + "\n"
            if line.startswith("ATOM") else line + "\n" for line in text.splitlines()
        ))
        unit = apply_sequence(template, ("A", "B"), "GAAAAG")
        # Residue 5 was glycine 131, so its CB is built: it takes its CA's segment id and no charge.
        cb, ca = atom_row(unit, "A.ALA5.CB"), atom_row(unit, "A.ALA5.CA")
        assert (unit.seg_ids[cb], unit.charges[cb], unit.seg_ids[ca], unit.charges[ca]) == ("SEGA", "", "SEGA", "1+")
        assert unit.charges.tolist() == ["1+" if name == "CA" else "" for name in unit.names.tolist()]
        model, _ = build_fibril_model(template, FibrilSpec(sequence="GAAAAG"))
        for new_id, source, _, _ in FIBRIL_CELL:
            chain = model.chain(new_id)
            assert np.array_equal(chain.seg_ids, unit.chain(source).seg_ids)
            assert np.array_equal(chain.charges, unit.chain(source).charges)
        once = write_pdb(model)
        assert write_pdb(parse_pdb(once)) == once and parse_pdb(once).charges.tolist() == model.charges.tolist()

    def test_renumbers_one_to_six(self):
        out = apply_sequence(synthetic_template(), "A", "GAAAAG")
        assert out.chain("A").res_seqs.tolist() == [1, 2, 3, 4, 5, 6]
        assert out.chain("A").res_names.tolist() == [
            "GLY", "ALA", "ALA", "ALA", "ALA", "GLY"
        ]
        # selectors of the placement problem resolve after renumbering
        assert out.names[atom_row(out, "A.ALA3.CB")] == "CB"

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
        s = structure_from_rows([row for row in rows_of(s) if row[:2] != ("A", 132)], s.headers)
        with pytest.raises(MutationError):
            apply_sequence(s, "A", "GAAAAG")

    def test_one_build_makes_no_copies_and_no_atoms(self, monkeypatch):
        # Every stage edits the frozen arrays: a default build copies no
        # structure and makes no Atom view (it made 2 structure and 529 atom
        # copies when each stage deep-copied a tree of atoms).
        from stericzip import pdbio

        template = synthetic_template()
        calls = {"copy": 0, "Atom": 0}
        for owner, attr in ((pdbio.Structure, "copy"), (pdbio, "Atom")):
            def counted(*args, _original=getattr(owner, attr), _attr=attr, **kwargs):
                calls[_attr] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, attr, counted)
        build_fibril_model(template, FibrilSpec(sequence="GAAAAG"))
        assert calls == {"copy": 0, "Atom": 0}
        next(template.atoms())
        assert calls["Atom"] == 1

    def test_one_build_makes_two_structures(self, monkeypatch):
        # A two-chain template is the unit itself; one structure is the
        # mutated unit and one the twelve-chain model.  Both are derived from
        # the checked template, so neither runs the full invariant check.
        from stericzip import pdbio

        template, made = synthetic_template(), []

        def counted(self, headers, chain_ids, columns, fresh=None, _original=pdbio.Structure._set):
            made.append((self, fresh is None))
            return _original(self, headers, chain_ids, columns, fresh)

        monkeypatch.setattr(pdbio.Structure, "_set", counted)
        model, _ = build_fibril_model(template, FibrilSpec(sequence="GAAAAG"))
        assert len(made) == 2 and made[-1][0] is model
        assert [fully_checked for _, fully_checked in made] == [False, False]

    def test_with_chains_of_its_own_chains_is_itself(self):
        s = synthetic_template()
        assert s.with_chains([("A", "A"), ("B", "B")]) is s
        assert s.subset(("A", "B")) is s
        one_chain = s.chain("A")
        assert one_chain.chain("A") is one_chain
        for chains, coords in (
            ([("B", "A"), ("A", "B")], None),  # renamed
            ([("B", "B"), ("A", "A")], None),  # reordered
            ([("A", "A")], None),  # a subset
            ([("A", "A"), ("B", "B")], s.coords),  # new coordinates, even equal ones
        ):
            out = s.with_chains(chains, coords)
            assert out is not s
            assert out.chain_ids() == [new_id for new_id, _ in chains]
        assert s.with_chains([("A", "A"), ("B", "B")], s.coords) == s

    @pytest.mark.parametrize("window", PALINDROME_WINDOWS)
    @pytest.mark.parametrize("make", [load_template, synthetic_template])
    def test_both_chains_at_once_equal_one_chain_at_a_time(self, make, window):
        assert_one_pass_is_chained_calls(make(), window)

    @settings(max_examples=40, deadline=None)
    @given(st.text(alphabet="AG", min_size=6, max_size=6))
    def test_any_sequence_in_one_pass_equals_chained_calls(self, sequence):
        assert_one_pass_is_chained_calls(synthetic_template(), sequence)

    @pytest.mark.parametrize("faults", [
        {("A", 129): "CA", ("B", 130): "N"},  # a missing backbone atom in each chain
        {("A", 129): "CA", ("B", 132): None},  # chain B also has five residues
        {("A", 132): None, ("B", 130): "N"},  # chain A has five residues
    ], ids=["backbone-both", "backbone-then-length", "length-then-backbone"])
    def test_faults_in_both_chains_raise_chain_a_first(self, faults):
        s = synthetic_template()
        # A fault drops one atom of a residue, or the whole residue (None).
        s = structure_from_rows([row for row in rows_of(s) if faults.get(row[:2], "") not in (None, row[3])], s.headers)
        with pytest.raises(MutationError) as chained:
            apply_sequence(apply_sequence(s, "A", "GAAAAG"), "B", "GAAAAG")
        with pytest.raises(MutationError) as one_pass:
            apply_sequence(s, ("A", "B"), "GAAAAG")
        with pytest.raises(MutationError) as chain_b:
            apply_sequence(s, "B", "GAAAAG")
        assert str(one_pass.value) == str(chained.value) != str(chain_b.value)
        assert re.match(r"(residue A\.|chain A )", str(one_pass.value))


def assert_one_pass_is_chained_calls(template, sequence):
    """apply_sequence of chains A and B at once is its call on A and then on B, in every column and bit."""
    one_pass = apply_sequence(template, ("A", "B"), sequence)
    chained = apply_sequence(apply_sequence(template, "A", sequence), "B", sequence)
    assert one_pass == chained
    for column in ("coords", "occupancy", "temp_factor"):
        assert getattr(one_pass, column).tobytes() == getattr(chained, column).tobytes()


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
            assert outcome.optimizer_result.best_value == pytest.approx(-2.0, abs=1e-6)
            assert np.all(np.abs(contact_distances(anchors, free0, outcome) - target) <= 5e-3)

    def test_start_at_optimum_keeps_displacement_zero(self):
        anchors = np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0]])
        r = R_MIN_FACTOR * 4.0
        free0 = anchors + np.array([0.0, r, 0.0])
        outcome = solve_contact_placement(
            anchors, free0, LJParams(1.0, 4.0), RigidTransform.identity(), quick_config(1)
        )
        assert outcome.optimizer_result.terminated_by == "tolerance"
        assert np.allclose(outcome.transform.translation, 0.0, atol=1e-9)

    @staticmethod
    def triangle_points():
        # Three centres on an equilateral triangle about the origin: the
        # gradient vanishes at u = 0, so descent stays at that stationary point
        # and the search's point, above or below the plane, is used instead.
        angles = np.radians([90.0, 210.0, 330.0])
        centres = 3.0 * np.stack([np.cos(angles), np.sin(angles), np.zeros(3)], axis=1)
        free0 = np.tile([0.0, 0.0, 10.0], (3, 1))
        return centres + free0, free0

    @classmethod
    def triangle(cls, params, seed):
        return solve_contact_placement(*cls.triangle_points(), params, RigidTransform.identity(), quick_config(seed))

    @pytest.mark.parametrize("seed", range(4))
    def test_seed_dependent_fallback_warns(self, seed):
        params = LJParams(1.0, 4.0)
        outcome = self.triangle(params, seed)
        assert len(outcome.warnings) == 1
        assert outcome.warnings[0].endswith("the sheet placement depends on the seed")
        assert outcome.optimizer_result.best_value == pytest.approx(-3.0, abs=1e-9)
        assert np.allclose(contact_distances(*self.triangle_points(), outcome), params.r_min, rtol=0, atol=1e-9)
        assert params.r_min == pytest.approx(4.489848, abs=5e-7)
        height = np.sqrt(params.r_min**2 - 9.0)
        # Which mirror minimum each seed picks; that seeds 0-3 pick both is what the warning reports.
        signs = {0: 1.0, 1: 1.0, 2: -1.0, 3: 1.0}
        assert set(signs.values()) == {-1.0, 1.0}
        sign = signs[seed]
        assert np.allclose(outcome.transform.translation, [0.0, 0.0, sign * height], rtol=0, atol=1e-9)
        assert height == pytest.approx(3.3405, abs=5e-5)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_placement_does_not_depend_on_the_energy_unit(self, seed):
        # The placement solves the unit-depth energy.  Seed 1 used to put sheet 2
        # at u_z = +3.3405 A with epsilon 1 but at -3.3405 A with epsilon 100, and
        # the polish took 15, 21, 4 and 4 evaluations at the four depths below.
        epsilons = (2.0**-10, 1e-4, 1.0, 100.0)
        outcomes = [self.triangle(LJParams(epsilon, 4.0), seed) for epsilon in epsilons]
        # Only the reported energies, the warning's included, scale with epsilon.
        unit = outcomes[2]
        unit_numbers = [float(x) for x in re.findall(r"energy (\S+), below the (\S+) ", unit.warnings[0])[0]]
        for epsilon, outcome in zip(epsilons, outcomes):
            assert np.array_equal(outcome.transform.translation, unit.transform.translation)
            assert outcome.optimizer_result.evaluations_used == unit.optimizer_result.evaluations_used
            assert outcome.optimizer_result.best_value == unit.optimizer_result.best_value * epsilon
            numbers = [float(x) for x in re.findall(r"energy (\S+), below the (\S+) ", outcome.warnings[0])[0]]
            assert numbers == pytest.approx([x * epsilon for x in unit_numbers], rel=1e-5)

    def test_descent_stopped_on_budget_warns(self, monkeypatch):
        # A descent cut short by its iteration budget used to pass silently.
        from stericzip import builder

        refine = builder.local_refine
        monkeypatch.setattr(
            builder, "local_refine", lambda objective, x0, tol, max_iters: refine(objective, x0, tol, max_iters=1)
        )
        # Centres 10 A apart, beyond 2 r_min = 8.98 A: no closed form, so the placement descends.
        anchors = np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0]])
        free0 = np.array([[0.0, 6.0, 0.0], [0.0, 6.0, 0.0]])
        outcome = solve_contact_placement(anchors, free0, LJParams(1.0, 4.0), RigidTransform.identity(), quick_config())
        stops = [w for w in outcome.warnings if w.startswith("the placement descent stopped on its iteration budget")]
        assert stops and all("|g| = " in w for w in stops)

    @pytest.mark.parametrize("points", [np.zeros((0, 3)), []])
    def test_empty_point_lists_rejected(self, points):
        with pytest.raises(StericZipError, match="must not be empty"):
            solve_contact_placement(points, points, LJParams(1.0, 4.0), RigidTransform.identity(), quick_config())

    def test_search_target_in_the_config_rejected(self):
        anchors, free0 = np.zeros((1, 3)), np.ones((1, 3))
        for config in (replace(quick_config(), target_value=0.0), replace(quick_config(), target_tolerance=1e-3)):
            with pytest.raises(StericZipError, match="target_value and target_tolerance are set by"):
                solve_contact_placement(anchors, free0, LJParams(1.0, 4.0), RigidTransform.identity(), config)

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

    @pytest.mark.parametrize("full_sum", [False, True])
    def test_hessian_is_symmetric_and_matches_gradient_differences(self, full_sum):
        obj = placement_objective(self.anchors, self.free0, self.params, full_sum)
        points = np.random.default_rng(7).uniform(obj.lower, obj.upper, size=(40, 3))
        h = 1e-6
        for u in points:
            hess = obj.hessian(u)
            assert np.array_equal(hess, hess.T)
            central = np.array([(obj.gradient(u + h * e) - obj.gradient(u - h * e)) / (2 * h) for e in np.eye(3)])
            assert np.allclose(hess, central, rtol=1e-6, atol=1e-8)

    def test_point_on_a_centre_is_finite_and_path_independent(self):
        obj = placement_objective(self.anchors, self.free0, self.params)
        centre = self.anchors[0] - self.free0[0]
        value = obj.evaluate(centre)
        assert np.isfinite(value) and value > 1e100
        assert obj.evaluate_batch(centre[None, :])[0] == value
        # The coincident pair exerts no force; only the other pair does.
        other = placement_objective(self.anchors[1:], self.free0[1:], self.params)
        assert np.array_equal(obj.gradient(centre), other.gradient(centre))


def template_points(spec):
    """Anchor and free atom positions of the packaged template's sheets under ``spec``."""
    work = apply_sequence(apply_sequence(synthetic_template(), "A", spec.sequence), "B", spec.sequence)
    base = spec.lattice.sheet2_transform
    work = transform_chain(transform_chain(work, "A", base, "G"), "B", base, "H")
    anchors = np.array([work.coords[atom_row(work, pair.first)] for pair in spec.contacts()])
    free = np.array([work.coords[atom_row(work, pair.second)] for pair in spec.contacts()])
    return anchors, free


def assert_nearest_point_of_the_circle(u, centres, r_min):
    """u is r_min from both centres, and no sampled point of their circle is nearer u = 0."""
    assert np.allclose(np.linalg.norm(u - centres, axis=1), r_min, rtol=0, atol=1e-9)
    half = (centres[1] - centres[0]) / 2
    across = np.linalg.svd(half[None, :])[2][1:]  # two unit vectors normal to the axis
    angles = np.linspace(0.0, 2 * np.pi, 3600, endpoint=False)
    circle = centres.mean(axis=0) + np.sqrt(r_min**2 - half @ half) * (
        np.cos(angles)[:, None] * across[0] + np.sin(angles)[:, None] * across[1])
    assert np.linalg.norm(u) <= np.linalg.norm(circle, axis=1).min() + 1e-9


def built_translation(spec):
    _, report = build_fibril_model(synthetic_template(), spec)
    return np.array(report.sheet_transform[9:]) - spec.lattice.sheet2_transform.translation


class TestDefaultPlacement:
    @pytest.mark.parametrize("sequence", PALINDROME_WINDOWS)
    def test_translation_is_the_optimum_nearest_the_template(self, sequence):
        spec = FibrilSpec(sequence=sequence)
        centres = placement_centres(*template_points(spec))
        expected = nearest_optimum(centres, spec.lj.r_min)
        radius = np.sqrt(spec.lj.r_min**2 - np.sum((centres[1] - centres[0]) ** 2) / 4)

        assert np.max(np.abs(built_translation(spec) - expected)) <= 1e-9
        assert np.allclose(expected, [-7.343, -2.373, 2.950], atol=5e-4)
        assert radius == pytest.approx(2.610, abs=5e-4)

    @pytest.mark.parametrize("sigma, ratio", [(5.35, 0.997), (5.45, 0.979)])
    def test_near_tangent_contacts_end_at_the_nearest_optimum(self, sigma, ratio):
        # Newton descent ended 0.885 A (sigma 5.35) and 2.50 A (5.45) away.
        spec = FibrilSpec(sequence="GAAAAG", lj=LJParams(1.0, sigma))
        centres = placement_centres(*template_points(spec))
        assert np.linalg.norm(centres[1] - centres[0]) / (2 * spec.lj.r_min) == pytest.approx(ratio, abs=5e-4)
        u = built_translation(spec)
        assert np.max(np.abs(u - nearest_optimum(centres, spec.lj.r_min))) <= 1e-9
        assert_nearest_point_of_the_circle(u, centres, spec.lj.r_min)


def two_contact_geometries(count, params, seed=0, ratios=(0.0, 0.9)):
    """Seeded anchors in +-12 A and free atoms within +-10 A of them whose
    centres are |c1 - c2| / (2 r_min) in [lo, hi) apart, so the optima form a circle."""
    rng = np.random.default_rng(seed)
    while count:
        anchors = rng.uniform(-12.0, 12.0, (2, 3))
        free0 = anchors + rng.uniform(-10.0, 10.0, (2, 3))
        centres = anchors - free0
        if ratios[0] <= np.linalg.norm(centres[0] - centres[1]) / (2.0 * params.r_min) < ratios[1]:
            count -= 1
            yield anchors, free0, centres


class TestNearestOptimum:
    def test_random_two_contact_geometries_end_at_the_nearest_optimum(self):
        # The trust cap keeps Newton steps from leaping along the circle of
        # optima; the old steepest descent hit its budget or let the search
        # move the answer in about 14% of these.
        params = LJParams(1.0, 4.0)
        config = OptimizerConfig(max_evaluations=40_000, seed=0)
        for anchors, free0, centres in two_contact_geometries(200, params):
            outcome = solve_contact_placement(anchors, free0, params, RigidTransform.identity(), config)
            expected = nearest_optimum(centres, params.r_min)
            assert outcome.warnings == []
            assert np.max(np.abs(outcome.transform.translation - expected)) <= 1e-6

    def test_near_tangent_geometries_end_at_the_nearest_optimum(self):
        params = LJParams(1.0, 4.0)
        config = OptimizerConfig(max_evaluations=40_000, seed=0)
        for anchors, free0, centres in two_contact_geometries(100, params, seed=1, ratios=(0.9, 0.999)):
            outcome = solve_contact_placement(anchors, free0, params, RigidTransform.identity(), config)
            assert outcome.warnings == []
            assert outcome.optimizer_result.terminated_by == "tolerance"
            assert_nearest_point_of_the_circle(outcome.transform.translation, centres, params.r_min)

    def test_template_screw_on_the_axis_is_a_tie_and_warns(self):
        # u = 0 on the axis of the circle: every point of it is equally near.
        params = LJParams(1.0, 4.0)
        centres = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 3.0]])
        assert nearest_optimum(centres, params.r_min) is None
        assert nearest_optimum(centres[:1] - centres[:1], params.r_min) is None
        outcome = solve_contact_placement(centres, np.zeros((2, 3)), params, RigidTransform.identity(), quick_config())
        assert outcome.warnings[0].startswith("every optimum is equally near the template screw")
        assert outcome.warnings[-1].endswith("the sheet placement depends on the seed")
        assert np.allclose(contact_distances(centres, np.zeros((2, 3)), outcome), params.r_min, rtol=0, atol=1e-9)

    def test_default_build_places_sheet_two_in_few_evaluations(self, monkeypatch):
        # The closed form places sheet 2; only the search's first population of 20 evaluates.
        descents = count_descents(monkeypatch)
        _, report = build_fibril_model(synthetic_template(), FibrilSpec(sequence="GAAAAG"))
        assert descents == []
        assert report.optimizer["evaluations"] == 20

    @pytest.mark.parametrize("spec_fields", [{"lj": LJParams(1.0, 5.30)}, {"full_sum": True}])
    def test_placements_without_a_closed_form_descend(self, monkeypatch, spec_fields):
        # An unreachable floor (sigma 5.30) and the four full_sum centres.
        descents = count_descents(monkeypatch)
        _, report = build_fibril_model(synthetic_template(), FibrilSpec(sequence="GAAAAG", **spec_fields))
        assert len(descents) == 1 and descents[0] <= 30
        assert report.optimizer["evaluations"] == 20 + descents[0]


def count_descents(monkeypatch) -> list[int]:
    """The evaluations of each ``builder.local_refine`` call from now on, as a list that fills."""
    from stericzip import builder

    used = []
    refine = builder.local_refine

    def counted(*args, **kwargs):
        result = refine(*args, **kwargs)
        used.append(result.evaluations_used)
        return result

    monkeypatch.setattr(builder, "local_refine", counted)
    return used


def collinear_centres(rng, count):
    """``count`` centres on a random line: the mean, unit axis and axial positions too."""
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    t = rng.uniform(-8.0, 8.0, count)
    t -= t.mean()
    middle = rng.uniform(-10.0, 10.0, 3)
    return middle + t[:, None] * axis, middle, axis, t


class TestPlacementCertificate:
    def test_box_bounds_never_exceed_sampled_energies(self):
        rng = np.random.default_rng(3)
        params = LJParams(1.0, 4.0)
        for _ in range(40):
            centres, middle, axis, t = collinear_centres(rng, rng.integers(1, 6))
            t_fit, eta = collinear_offsets(centres)
            if t_fit @ t < 0:
                axis = -axis
            objective = placement_objective(centres, np.zeros_like(centres), params)
            s_lo, rho_lo = rng.uniform(t.min() - 8.0, t.max() + 8.0), rng.uniform(0.0, 8.0)
            s_hi, rho_hi = s_lo + rng.uniform(0.0, 6.0), rho_lo + rng.uniform(0.0, 6.0)
            bound = box_lower_bounds(t_fit, eta, params, np.array([[s_lo], [s_hi], [rho_lo], [rho_hi]]))[0]
            s, rho = rng.uniform(s_lo, s_hi, 200), rng.uniform(rho_lo, rho_hi, 200)
            across = rng.standard_normal((200, 3))
            across -= (across @ axis)[:, None] * axis
            across /= np.linalg.norm(across, axis=1)[:, None]
            points = middle + s[:, None] * axis + rho[:, None] * across
            assert bound <= objective.evaluate_batch(points).min() * (1 + 1e-12)

    def test_collinearity_tolerance_is_relative_to_the_spread(self):
        # Bending the middle of three points by h leaves it 2h/3 off the fitted line.
        axis = np.array([2.0, -1.0, 2.0]) / 3.0
        across = np.array([1.0, 2.0, 0.0]) / np.sqrt(5.0)
        for scale in (1e-3, 1.0, 1e3):
            centres = scale * (np.array([4.0, -7.0, 1.0]) + np.outer([-5.0, 0.0, 5.0], axis))
            for bend, on_line in ((1e-11, True), (1e-8, False)):
                bent = centres + np.outer([0.0, bend * 5.0 * scale, 0.0], across)
                assert (collinear_offsets(bent) is not None) == on_line

    def test_planted_deeper_well_gets_no_certificate_and_warns(self):
        # Descent from u = 0 settles by the first centre; the pair at z = 10-11
        # holds a well about 1 eps deeper, far from it.
        params = LJParams(1.0, 4.0)
        centres = np.array([[0.0, 0.0, -3.0], [0.0, 0.0, 10.0], [0.0, 0.0, 11.0]])
        t, eta = collinear_offsets(centres)
        assert not certify_lower_bound(t, eta, params, 1.06)
        outcome = solve_contact_placement(
            centres, np.zeros((3, 3)), params, RigidTransform.identity(), quick_config(budget=2_000)
        )
        assert outcome.warnings[0].startswith("no lower bound certifies the sheet placement")
        assert outcome.warnings[1].endswith("the sheet placement depends on the seed")
        assert outcome.optimizer_result.best_value < -2.0

    def test_full_sum_mirror_twin(self):
        # For two contacts the four centres form a parallelogram, symmetric
        # about its middle m, so f(2m - u) = f(u).
        params = LJParams(1.0, 4.0)
        rng = np.random.default_rng(6)
        for anchors, free0, _ in two_contact_geometries(20, params, seed=2):
            objective = placement_objective(anchors, free0, params, full_sum=True)
            middle = placement_centres(anchors, free0, full_sum=True).mean(axis=0)
            points = rng.uniform(objective.lower, objective.upper, (50, 3))
            values = objective.evaluate_batch(points)
            twins = objective.evaluate_batch(2 * middle - points)
            assert np.all(np.abs(twins - values) <= 1e-12 * np.maximum(values, 1.0))

    def test_full_sum_build_is_certified(self):
        # The search ran its whole budget, 39,992 evaluations, before.
        spec = FibrilSpec(sequence="GAAAAG", full_sum=True)
        assert collinear_offsets(placement_centres(*template_points(spec), full_sum=True)) is not None
        _, report = build_fibril_model(synthetic_template(), spec)
        assert report.optimizer["terminated_by"] == "tolerance"
        assert report.optimizer["evaluations"] <= 100
        assert report.warnings == []

    def test_unreachable_floor_build_is_certified(self):
        # sigma 5.30 puts the two contact centres 1.007 * 2 r_min apart; the
        # search spent 39,981 evaluations on the floor it cannot reach.
        spec = FibrilSpec(sequence="GAAAAG", lj=LJParams(1.0, 5.30))
        centres = placement_centres(*template_points(spec))
        assert np.linalg.norm(centres[1] - centres[0]) / (2 * spec.lj.r_min) == pytest.approx(1.007, abs=5e-4)
        _, report = build_fibril_model(synthetic_template(), spec)
        assert report.optimizer["terminated_by"] == "tolerance"
        assert report.optimizer["evaluations"] <= 100
        assert not [w for w in report.warnings if "placement" in w]


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
        "frame, full_sum",
        [(frame, full_sum) for full_sum in (False, True)
         for frame in (QUARTER_TURN_ABOUT_X, random_frame(1), random_frame(2), random_frame(3))],
        ids=[f"{kind}frame{i}" for kind in ("", "full_sum-") for i in range(4)],
    )
    def test_moved_template_gives_moved_model(self, frame, full_sum):
        template = synthetic_template()
        spec = FibrilSpec(sequence="GAAAAG", optimizer=quick_config(2), full_sum=full_sum)
        model, _ = build_fibril_model(template, spec)

        moved = template.with_chains([(c, c) for c in template.chain_ids()], coords=frame.apply(template.coords))
        lattice = SheetLattice(
            frame.rotation @ spec.lattice.intra_sheet_step,
            frame.compose(spec.lattice.sheet2_transform).compose(inverse(frame)),
        )
        moved_model, report = build_fibril_model(moved, replace(spec, lattice=lattice))
        assert report.success and report.clashes == []
        assert moved_model.chain_ids() == model.chain_ids()
        for cid in model.chain_ids():
            expected = frame.apply(model.chain(cid).coords)
            assert np.allclose(moved_model.chain(cid).coords, expected, rtol=0.0, atol=1e-9)


@pytest.fixture(scope="module")
def builds():
    template = synthetic_template()
    out = {}
    for seq in ("AGAAAA", "GAAAAG", "AAAAGA"):
        spec = FibrilSpec(sequence=seq, model_name=seq.lower(), optimizer=quick_config(42))
        out[seq] = build_fibril_model(template, spec)
    return out


def assert_report_is_the_audit(spec, model, report):
    """The build report's audit fields are those of structure_energy_report on its model, field by field."""
    audit = structure_energy_report(model, spec.lj, contacts=spec.contacts())
    assert report.contacts == audit["contacts"]
    assert report.model_hbond_count == audit["hbond_count"]
    assert report.clashes == audit["clashes"]
    assert {k: v for k, v in report.parameters.items() if k != "full_sum"} == audit["parameters"]
    assert report.parameters["full_sum"] == spec.full_sum


class TestBuildPipeline:
    def test_twelve_chains(self, builds):
        for model, report in builds.values():
            assert model.chain_ids() == list("ABCDEFGHIJKL")
            assert report.success

    def test_six_residues_each(self, builds):
        model, _ = builds["GAAAAG"]
        for chain in model.chains:
            assert chain.res_seqs.tolist() == [1, 2, 3, 4, 5, 6]

    def test_hbonds_conserved(self, builds):
        for _, report in builds.values():
            assert report.hbond_count_after == report.hbond_count_before
            assert report.model_hbond_count > 0

    @pytest.mark.parametrize("make", [load_template, synthetic_template])
    @pytest.mark.parametrize("gap_after", [128, 130])
    def test_hbond_count_after_is_the_mutated_units_across_a_numbering_gap(self, make, gap_after):
        # Chains numbered 127, 128, 130, ...: the N...O pairs across the gap
        # count before the mutation, which renumbers them 1-6 and so makes
        # them adjacent residues.
        s = make()
        gapped = Structure.from_columns(s.headers, s.chain_ids(), **{
            name: getattr(s, name) for name in ATOM_COLUMNS + ("res_starts", "res_names", "chain_starts")
        }, res_seqs=s.res_seqs + (s.res_seqs > gap_after))
        _, report = build_fibril_model(gapped, FibrilSpec(sequence="GAAAAG"))
        assert report.hbond_count_after == len(detect_hbonds(apply_sequence(gapped, ("A", "B"), "GAAAAG")))
        assert report.hbond_count_after != report.hbond_count_before

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
        names = model.chain("A").res_names.tolist()
        assert names == ["ALA", "GLY", "ALA", "ALA", "ALA", "ALA"]
        assert "CB" not in residue_atoms(model, "A", 2)[1]
        assert "CB" in residue_atoms(model, "A", 1)[1]

    def test_intra_sheet_spacing_exact(self, builds):
        from stericzip.template import INTRA_SHEET_STEP

        model, _ = builds["GAAAAG"]
        a = model.chain("A").coords
        assert np.array_equal(model.chain("C").coords, a + INTRA_SHEET_STEP)
        assert np.array_equal(model.chain("E").coords, a - INTRA_SHEET_STEP)

    @pytest.mark.parametrize(
        "sequence, full_sum, digest",
        [("AGAAAA", False, "dc96752544ed"), ("GAAAAG", False, "17a08e32fdf3"), ("AAAAGA", False, "ca4707f33cff"),
         ("AGAAAA", True, "fb84477d8b5c"), ("GAAAAG", True, "0ad134489827"), ("AAAAGA", True, "f11bdd5d763e")],
    )
    def test_packaged_seed_zero_builds_are_pinned(self, sequence, full_sum, digest):
        # The PDB text and report JSON of the six packaged seed-0 builds, and how their placement ends.
        report_digests = {
            ("AGAAAA", False): "b0449553cce2", ("GAAAAG", False): "87dd22b4bf15", ("AAAAGA", False): "251140baded3",
            ("AGAAAA", True): "eb14d62890fc", ("GAAAAG", True): "813fedd5a174", ("AAAAGA", True): "3319aafda0f2",
        }
        spec = FibrilSpec(sequence=sequence, full_sum=full_sum, optimizer=quick_config(0))
        model, report = build_fibril_model(load_template(), spec)
        assert hashlib.sha256(write_pdb(model).encode()).hexdigest()[:12] == digest
        assert hashlib.sha256(report.to_json().encode()).hexdigest()[:12] == report_digests[sequence, full_sum]
        assert report.optimizer["evaluations"] == (32 if full_sum else 20)
        assert report.optimizer["terminated_by"] == "tolerance"
        assert report.warnings == []

    @pytest.mark.parametrize("full_sum", [False, True])
    @pytest.mark.parametrize("sequence", PALINDROME_WINDOWS)
    def test_report_audit_is_the_structure_energy_report(self, sequence, full_sum):
        spec = FibrilSpec(sequence=sequence, full_sum=full_sum, optimizer=quick_config(0))
        assert_report_is_the_audit(spec, *build_fibril_model(load_template(), spec))

    def test_three_contact_report_audit_is_the_structure_energy_report(self):
        spec = FibrilSpec(sequence="GAAAAG", anchors=DEFAULT_ANCHOR_SELECTORS + ("A.ALA5.CB",),
                          free_atoms=DEFAULT_FREE_SELECTORS + ("G.ALA2.CB",), optimizer=quick_config(0))
        model, report = build_fibril_model(load_template(), spec)
        assert [(c["first"], c["second"]) for c in report.contacts][-1] == ("A.ALA5.CB", "G.ALA2.CB")
        assert_report_is_the_audit(spec, model, report)

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
        lowered = RigidTransform(np.eye(3), [0.0, 0.0, -1.0]).compose(spec.lattice.sheet2_transform)
        for source, new_id in (("A", "G"), ("B", "H")):
            template = transform_chain(template, source, lowered, new_id)
        model, report = build_fibril_model(template, spec)
        assert [w for w in report.warnings if "G, H ignored" in w]
        for contact in report.contacts:
            measured = np.linalg.norm(
                model.coords[atom_row(model, contact["first"])] - model.coords[atom_row(model, contact["second"])]
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

    def test_interrupt_in_a_stage_propagates_unchanged(self, monkeypatch):
        # A Ctrl-C during a stage used to become BuildError("replicate: ").
        from stericzip import builder

        interrupt = KeyboardInterrupt()

        def interrupted(*args, **kwargs):
            raise interrupt

        monkeypatch.setattr(builder, "replicate_lattice", interrupted)
        with pytest.raises(KeyboardInterrupt) as err:
            build_fibril_model(synthetic_template(), FibrilSpec(sequence="GAAAAG"))
        assert err.value is interrupt

    def test_error_in_a_stage_becomes_a_build_error_naming_it(self, monkeypatch):
        from stericzip import BuildError, builder

        def failing(*args, **kwargs):
            raise ValueError("lattice went wrong")

        monkeypatch.setattr(builder, "replicate_lattice", failing)
        with pytest.raises(BuildError, match=r"^replicate: lattice went wrong$") as err:
            build_fibril_model(synthetic_template(), FibrilSpec(sequence="GAAAAG"))
        assert err.value.stage == "replicate" and isinstance(err.value.__cause__, ValueError)


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
