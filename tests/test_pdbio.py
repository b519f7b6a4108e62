"""Fixed-column parsing, byte-exact emission, and atom selection."""

import math
from decimal import ROUND_HALF_UP, Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stericzip import (
    Atom,
    AtomNotFoundError,
    AtomSelector,
    Chain,
    PdbParseError,
    PdbWriteError,
    Residue,
    ResidueMismatchError,
    SelectionError,
    Structure,
    StructureError,
    load_template,
    parse_pdb,
    select_atom,
    synthetic_template,
    write_pdb,
)
from stericzip.pdbio import format_coordinate

SAMPLE_LINE = "ATOM      1  N   GLY A 127      1.000   2.000   3.000  1.00  0.00           N"


def make_atom(serial=1, name="CA", res_name="ALA", chain_id="A", res_seq=1,
              position=(0.0, 0.0, 0.0), element="C"):
    return Atom(serial=serial, name=name, alt_loc="", res_name=res_name,
                chain_id=chain_id, res_seq=res_seq, position=np.array(position),
                occupancy=1.0, temp_factor=0.0, element=element)


def single_atom_structure(position=(1.0, 2.0, 3.0)):
    atom = make_atom(position=position)
    return Structure([Chain("A", [Residue(1, "ALA", [atom])])])


class TestParse:
    def test_fixed_column_example(self):
        s = parse_pdb(SAMPLE_LINE + "\nEND\n")
        atom = next(s.atoms())
        assert atom.serial == 1
        assert atom.name == "N"
        assert atom.res_name == "GLY"
        assert atom.chain_id == "A"
        assert atom.res_seq == 127
        assert np.array_equal(atom.position, [1.0, 2.0, 3.0])
        assert atom.element == "N"

    def test_empty_input(self):
        assert parse_pdb("").chains == []

    def test_crlf_accepted(self):
        s = parse_pdb(SAMPLE_LINE + "\r\nEND\r\n")
        assert s.n_atoms() == 1

    def test_ter_splits_chains(self):
        text = (
            "ATOM      1  N   GLY A   1       0.000   0.000   0.000  1.00  0.00           N\n"
            "TER\n"
            "ATOM      2  N   GLY B   1       5.000   0.000   0.000  1.00  0.00           N\n"
            "END\n"
        )
        s = parse_pdb(text)
        assert s.chain_ids() == ["A", "B"]

    def test_chain_reopened_after_ter_rejected(self):
        text = (
            "ATOM      1  N   GLY A   1       0.000   0.000   0.000  1.00  0.00           N\n"
            "TER\n"
            "ATOM      2  CA  GLY A   1       1.000   0.000   0.000  1.00  0.00           C\n"
        )
        with pytest.raises(PdbParseError):
            parse_pdb(text)

    def test_malformed_coordinate_cites_line(self):
        bad = SAMPLE_LINE[:30] + "  xx.xxx" + SAMPLE_LINE[38:]
        with pytest.raises(PdbParseError) as err:
            parse_pdb("REMARK   1 HEADER\n" + bad + "\n")
        assert err.value.line_number == 2

    @pytest.mark.parametrize("columns", [(54, 60), (60, 66)], ids=["occupancy", "temp_factor"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_occupancy_or_temp_factor_cites_line(self, columns, value):
        start, stop = columns
        bad = SAMPLE_LINE[:start] + value.rjust(stop - start) + SAMPLE_LINE[stop:]
        with pytest.raises(PdbParseError) as err:
            parse_pdb("REMARK   1 HEADER\n" + bad + "\n")
        assert err.value.line_number == 2

    def test_truncated_line_cites_line(self):
        with pytest.raises(PdbParseError) as err:
            parse_pdb(SAMPLE_LINE[:40] + "\n")
        assert err.value.line_number == 1

    def test_duplicate_atom_key_rejected(self):
        text = SAMPLE_LINE + "\n" + SAMPLE_LINE + "\n"
        with pytest.raises(PdbParseError):
            parse_pdb(text)

    def test_alternate_location_rejected(self):
        bad = SAMPLE_LINE[:16] + "B" + SAMPLE_LINE[17:]
        with pytest.raises(PdbParseError):
            parse_pdb(bad + "\n")

    def test_content_after_end_rejected(self):
        with pytest.raises(PdbParseError):
            parse_pdb("END\n" + SAMPLE_LINE + "\n")

    def test_headers_preserved_in_order(self):
        text = "HEADER    SOMETHING\nREMARK   1 NOTE\n" + SAMPLE_LINE + "\nEND\n"
        s = parse_pdb(text)
        assert s.headers == ["HEADER    SOMETHING", "REMARK   1 NOTE"]
        assert write_pdb(s).startswith("HEADER    SOMETHING\nREMARK   1 NOTE\nATOM")

    def test_hetatm_record_round_trips(self):
        line = "HETATM    1  O   HOH A 201      1.000   2.000   3.000  1.00  0.00           O"
        s = parse_pdb(line + "\nEND\n")
        atom = next(s.atoms())
        assert atom.is_hetatm
        assert write_pdb(s).splitlines()[0].startswith("HETATM")
        assert parse_pdb(write_pdb(s)) == s

    def test_blank_occupancy_and_temp_default(self):
        line = SAMPLE_LINE[:54] + " " * 12 + SAMPLE_LINE[66:]
        atom = next(parse_pdb(line + "\nEND\n").atoms())
        assert atom.occupancy == 1.0
        assert atom.temp_factor == 0.0

    def test_missing_element_inferred_from_name(self):
        line = SAMPLE_LINE[:76] + "  "
        atom = next(parse_pdb(line + "\nEND\n").atoms())
        assert atom.element == "N"


class TestWrite:
    def test_half_away_rounding_fields(self):
        s = single_atom_structure(position=(9.075, 4.7765, 0.0))
        text = write_pdb(s)
        line = text.splitlines()[0]
        assert line[30:38] == "   9.075"
        assert line[38:46] == "   4.777"
        assert line[46:54] == "   0.000"

    def test_zero_chain_structure(self):
        assert write_pdb(Structure([])) == "END\n"

    def test_oversized_coordinate_rejected(self):
        with pytest.raises(PdbWriteError):
            write_pdb(single_atom_structure(position=(10000.0, 0.0, 0.0)))
        with pytest.raises(PdbWriteError):
            write_pdb(single_atom_structure(position=(-1000.0, 0.0, 0.0)))

    @pytest.mark.parametrize("columns, field", [((54, 60), "occupancy"), ((60, 66), "B-factor")])
    def test_oversized_occupancy_or_b_factor_names_field_and_atom(self, columns, field):
        start, end = columns
        line = SAMPLE_LINE[:start] + "1e5".rjust(end - start) + SAMPLE_LINE[end:]
        with pytest.raises(PdbWriteError, match=rf"^atom A\.GLY127\.N: {field} 100000\.0 does not fit in F6\.2$"):
            write_pdb(parse_pdb(line + "\nEND\n"))

    def test_serials_renumbered_and_ter_end(self):
        atoms = [make_atom(serial=99, name="N", element="N"),
                 make_atom(serial=98, name="CA")]
        s = Structure([Chain("A", [Residue(1, "ALA", atoms)])])
        lines = write_pdb(s).splitlines()
        assert lines[0][6:11] == "    1"
        assert lines[1][6:11] == "    2"
        assert lines[2].startswith("TER")
        assert lines[3] == "END"

    def test_write_is_idempotent_through_parse(self):
        text = write_pdb(synthetic_template())
        assert write_pdb(parse_pdb(text)) == text

    @pytest.mark.parametrize(
        "value,expected",
        [
            (1.0005, "   1.001"),
            (-1.0005, "  -1.001"),
            (2.5e-4, "   0.000"),
            (7.5e-4, "   0.001"),
            (-0.0004, "   0.000"),
            (123.4565, " 123.457"),
        ],
    )
    def test_format_coordinate_half_away(self, value, expected):
        assert format_coordinate(value) == expected


@pytest.mark.parametrize(
    "chain_id, res_seq, atom_edit, message",
    [
        ("AB", 1, {}, r"atom AB\.ALA1\.CA: chain id 'AB' is not one character"),
        ("", 1, {}, r"atom \.ALA1\.CA: chain id '' is not one character"),
        ("A", 12345, {}, r"atom A\.ALA12345\.CA: residue number 12345 does not fit in I4"),
        ("A", -1000, {}, r"atom A\.ALA-1000\.CA: residue number -1000 does not fit in I4"),
        ("A", 1, {"res_name": "ALAX"}, r"atom A\.ALAX1\.CA: residue name 'ALAX' does not fit in A3"),
        ("A", 1, {"name": "CDEFG"}, r"atom A\.ALA1\.CDEFG: atom name 'CDEFG' does not fit in A4"),
        ("A", 1, {"alt_loc": "AB"}, r"atom A\.ALA1\.CA: alternate location 'AB' does not fit in A1"),
        ("A", 1, {"element": "XYZ"}, r"atom A\.ALA1\.CA: element 'XYZ' does not fit in A2"),
    ],
    ids=["chain-id-long", "chain-id-empty", "res-seq-high", "res-seq-low", "res-name", "atom-name",
         "alt-loc", "element"],
)
def test_field_that_does_not_fit_names_field_and_atom(chain_id, res_seq, atom_edit, message):
    atom = make_atom(chain_id=chain_id, res_seq=res_seq)
    for attribute, value in atom_edit.items():
        setattr(atom, attribute, value)
    s = Structure([Chain(chain_id, [Residue(res_seq, "ALA", [atom])])])
    with pytest.raises(PdbWriteError, match=f"^{message}$"):
        write_pdb(s)


def serial_overflow_structure(first_residue_atoms, extra_chain_atoms):
    """Ten shared atoms per residue, so ~100,000 records cost little to build."""
    names = [f"C{k}" for k in range(10)]
    atoms = [make_atom(name=name, element="C") for name in names]
    residues = [Residue(0, "ALA", atoms[:first_residue_atoms])]
    residues += [Residue(seq, "ALA", atoms) for seq in range(1, 10_000)]
    chains = [Chain("A", residues)]
    if extra_chain_atoms:
        chains.append(Chain("B", [Residue(1, "ALA", atoms[:extra_chain_atoms])]))
    return Structure(chains)


@pytest.mark.parametrize(
    "first_residue_atoms, extra_chain_atoms, message",
    [
        # 99,990 atoms and their TER in chain A, then serial 100,000 on B's 9th atom.
        (0, 10, r"atom B\.ALA1\.C8: serial 100000 does not fit in I5"),
        # 99,999 atoms in chain A: its TER record would take serial 100,000.
        (9, 0, r"TER record of chain A: serial 100000 does not fit in I5"),
    ],
    ids=["atom", "ter"],
)
def test_serial_that_does_not_fit_is_rejected(first_residue_atoms, extra_chain_atoms, message):
    s = serial_overflow_structure(first_residue_atoms, extra_chain_atoms)
    with pytest.raises(PdbWriteError, match=f"^{message}$"):
        write_pdb(s)


coordinates = st.integers(min_value=-500_000, max_value=500_000).map(lambda n: n / 1000.0)
atom_menu = [("N", "N"), ("CA", "C"), ("C", "C"), ("O", "O"), ("CB", "C")]


@st.composite
def structures(draw):
    n_chains = draw(st.integers(1, 3))
    chain_ids = draw(
        st.lists(st.sampled_from("ABCDEFGH"), min_size=n_chains, max_size=n_chains, unique=True)
    )
    serial = 1
    chains = []
    for cid in chain_ids:
        n_res = draw(st.integers(1, 3))
        residues = []
        for seq in range(1, n_res + 1):
            n_atoms = draw(st.integers(1, len(atom_menu)))
            atoms = []
            for name, element in atom_menu[:n_atoms]:
                pos = [draw(coordinates) for _ in range(3)]
                atoms.append(
                    Atom(serial=serial, name=name, alt_loc="", res_name="ALA",
                         chain_id=cid, res_seq=seq, position=np.array(pos),
                         occupancy=1.0, temp_factor=0.0, element=element)
                )
                serial += 1
            residues.append(Residue(seq, "ALA", atoms))
        chains.append(Chain(cid, residues))
    s = Structure(chains)
    s.renumber_serials()
    return s


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(structures())
    def test_parse_write_identity_on_grid(self, s):
        # Coordinates on the F8.3 grid survive field for field.
        assert parse_pdb(write_pdb(s)) == s

    @settings(max_examples=60, deadline=None)
    @given(structures())
    def test_write_parse_write_bytes(self, s):
        once = write_pdb(s)
        assert write_pdb(parse_pdb(once)) == once

    def test_arbitrary_precision_projects_to_grid(self):
        s = single_atom_structure(position=(1.23456789, -2.3456789, 0.999999))
        once = write_pdb(s)
        assert write_pdb(parse_pdb(once)) == once

    def test_shipped_template_matches_generator(self):
        assert write_pdb(load_template()) == write_pdb(synthetic_template())


def decimal_field(value, width, decimals, what):
    """Reference F<width>.<decimals> field: the shortest repr, rounded by Decimal."""
    if not math.isfinite(value):
        raise PdbWriteError(f"non-finite {what} {value!r}")
    q = Decimal(repr(float(value))).quantize(Decimal(1).scaleb(-decimals), rounding=ROUND_HALF_UP)
    out = f"{abs(q) if q == 0 else q:.{decimals}f}"
    if len(out) > width:
        raise PdbWriteError(f"{what} {value!r} does not fit in F{width}.{decimals}")
    return out.rjust(width)


def reference_write_pdb(structure):
    """The writer one atom and one Decimal field at a time."""
    lines = list(structure.headers)
    serial = 1
    for chain in structure.chains:
        last_residue = None
        for residue in chain.residues:
            for atom in residue.atoms:
                if abs(float(np.max(np.abs(atom.position)))) >= 10000.0:
                    raise PdbWriteError(f"coordinate magnitude >= 10000 A in atom {atom!r}")
                x, y, z = (decimal_field(v, 8, 3, "coordinate") for v in atom.position)
                try:
                    occ = decimal_field(atom.occupancy, 6, 2, "occupancy")
                    tf = decimal_field(atom.temp_factor, 6, 2, "B-factor")
                except PdbWriteError as exc:
                    address = f"{chain.chain_id}.{atom.res_name}{residue.res_seq}.{atom.name}"
                    raise PdbWriteError(f"atom {address}: {exc}") from None
                one_letter = len(atom.element) == 1 and len(atom.name) < 4
                name = f" {atom.name:<3}" if one_letter else f"{atom.name:<4}"
                lines.append(
                    f"{'HETATM' if atom.is_hetatm else 'ATOM  '}{serial:5d} {name}"
                    f"{atom.alt_loc or ' '}{atom.res_name:>3} {chain.chain_id}{residue.res_seq:4d}    "
                    f"{x}{y}{z}{occ}{tf}          {atom.element:>2}"
                )
                serial += 1
            last_residue = residue
        if last_residue is not None:
            lines.append(
                f"TER   {serial:5d}      {last_residue.res_name:>3} "
                f"{chain.chain_id}{last_residue.res_seq:4d}"
            )
            serial += 1
    lines.append("END")
    return "\n".join(lines) + "\n"


def one_ulp_either_side(values):
    return values.flatmap(
        lambda v: st.sampled_from([float(np.nextafter(v, -np.inf)), v, float(np.nextafter(v, np.inf))])
    )


# Width edges of F8.3 and F6.2, ties, and values that round to zero from below.
EDGE_VALUES = [
    999.9995, -999.9995, 9999.9995, -9999.9995, 9999.9994, 1e4, -1e3, 99.995, -99.995, 999.995,
    4.7765, 1.0005, -1.0005, 123.4565, -0.0, -1e-300, -0.0004, -0.0004999, -0.0005, -0.005,
]
# Decimal ties of each field, the edge values and plain values; each may be
# moved one ulp either way.
f83_ties = st.integers(-1_000_000, 10_000_000).map(lambda k: (2 * k - 1) / 2000)
f62_ties = st.integers(-10_000, 100_000).map(lambda k: (2 * k - 1) / 200)
edge_coordinates = one_ulp_either_side(
    st.one_of(f83_ties, f83_ties, st.floats(-1000.0, 10_000.0), st.sampled_from(EDGE_VALUES))
)
edge_fields = one_ulp_either_side(st.one_of(f62_ties, f62_ties, st.sampled_from(EDGE_VALUES)))


@st.composite
def edge_structures(draw):
    atoms = [
        Atom(serial=1, name=name, alt_loc="", res_name="ALA", chain_id="A", res_seq=1,
             position=np.array([draw(edge_coordinates) for _ in range(3)]),
             occupancy=draw(edge_fields), temp_factor=draw(edge_fields), element=element)
        for name, element in atom_menu[: draw(st.integers(1, len(atom_menu)))]
    ]
    return Structure([Chain("A", [Residue(1, "ALA", atoms)])])


def assert_matches_reference(s):
    try:
        expected = reference_write_pdb(s)
    except PdbWriteError as exc:
        with pytest.raises(PdbWriteError) as err:
            write_pdb(s)
        assert str(err.value) == str(exc)
    else:
        assert write_pdb(s) == expected


class TestBulkWriter:
    @settings(max_examples=500, deadline=None)
    @given(edge_structures())
    def test_matches_decimal_reference(self, s):
        assert_matches_reference(s)

    @pytest.mark.parametrize("value", EDGE_VALUES)
    @pytest.mark.parametrize("step", [-np.inf, 0.0, np.inf], ids=["ulp-below", "exact", "ulp-above"])
    def test_edge_value_matches_decimal_reference(self, value, step):
        value = value if step == 0.0 else float(np.nextafter(value, step))
        assert_matches_reference(single_atom_structure(position=(value, 0.0, 0.0)))
        s = single_atom_structure()
        next(s.atoms()).occupancy = value
        assert_matches_reference(s)


# Columns of the fields of an ATOM/HETATM record, and the edits made to them.
RECORD_FIELDS = {
    "serial": (6, 11), "name": (12, 16), "res_name": (17, 20), "chain": (21, 22),
    "res_seq": (22, 26), "x": (30, 38), "y": (38, 46), "z": (46, 54),
    "occupancy": (54, 60), "temp_factor": (60, 66), "element": (76, 78),
}
FIELD_EDITS = ["nan", "inf", "-inf", "1e5", "-9999", "", "abc", "X"]
TEMPLATE_LINES = write_pdb(synthetic_template()).splitlines()
ATOM_LINES = [k for k, line in enumerate(TEMPLATE_LINES) if line.startswith("ATOM  ")]


@st.composite
def edited_templates(draw):
    """The written template with one to four fields overwritten, LF or CRLF."""
    lines = list(TEMPLATE_LINES)
    for _ in range(draw(st.integers(1, 4))):
        k = draw(st.sampled_from(ATOM_LINES))
        start, stop = RECORD_FIELDS[draw(st.sampled_from(sorted(RECORD_FIELDS)))]
        value = draw(st.sampled_from(FIELD_EDITS))[: stop - start].rjust(stop - start)
        line = lines[k].ljust(80)
        lines[k] = (line[:start] + value + line[stop:]).rstrip()
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + newline


class TestEditedRecords:
    @settings(max_examples=300, deadline=None)
    @given(edited_templates())
    def test_parse_rejects_or_round_trips(self, text):
        try:
            structure = parse_pdb(text)
        except PdbParseError:
            return
        for atom in structure.atoms():
            assert np.all(np.isfinite(atom.position))
            assert np.isfinite(atom.occupancy) and np.isfinite(atom.temp_factor)
        try:
            once = write_pdb(structure)
        except PdbWriteError:
            return
        assert write_pdb(parse_pdb(once)) == once


class TestSelectors:
    def test_parse_and_format(self):
        sel = AtomSelector.parse("A.ALA3.CB")
        assert (sel.chain_id, sel.res_name, sel.res_seq, sel.atom_name) == ("A", "ALA", 3, "CB")
        assert str(sel) == "A.ALA3.CB"

    def test_malformed_selector(self):
        with pytest.raises(SelectionError):
            AtomSelector.parse("A.ALA.CB")

    def test_selects_template_atom(self):
        s = synthetic_template()
        atom = select_atom(s, "A.MET129.SD")
        assert atom.name == "SD" and atom.res_seq == 129

    def test_missing_chain_not_found(self):
        with pytest.raises(AtomNotFoundError):
            select_atom(synthetic_template(), "Z.ALA1.CB")

    def test_residue_name_mismatch(self):
        with pytest.raises(ResidueMismatchError):
            select_atom(synthetic_template(), "A.ALA127.CA")

    def test_glycine_has_no_cb(self):
        with pytest.raises(AtomNotFoundError):
            select_atom(synthetic_template(), "A.GLY127.CB")


class TestStructureInvariants:
    def test_duplicate_chain_ids_rejected(self):
        with pytest.raises(StructureError):
            Structure([Chain("A"), Chain("A")])

    def test_residue_order_monotone(self):
        r2 = Residue(2, "ALA", [make_atom(res_seq=2)])
        r1 = Residue(1, "ALA", [make_atom(serial=2, name="N", res_seq=1, element="N")])
        with pytest.raises(StructureError):
            Structure([Chain("A", [r2, r1])])

    def test_copy_is_deep(self):
        s = single_atom_structure()
        c = s.copy()
        c.chain("A").residues[0].atoms[0].position[0] = 99.0
        assert next(s.atoms()).position[0] == 1.0

    @pytest.mark.parametrize(
        "field, value", [("chain_id", "B"), ("res_seq", 5), ("res_name", "GLY")]
    )
    def test_atom_must_agree_with_its_chain_and_residue(self, field, value):
        # The writer takes the chain id and residue number from the parents and
        # the audits read them from the atom, so a disagreement is rejected.
        s = Structure([Chain("A", [Residue(1, "ALA", [make_atom(**{field: value})])])])
        with pytest.raises(StructureError, match=r"atom \w\.\w+\d+\.CA sits in A\.ALA1"):
            s.validate()
