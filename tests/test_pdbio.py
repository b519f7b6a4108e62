"""Fixed-column parsing, byte-exact emission, and atom selection."""

import math
import re
from decimal import ROUND_HALF_UP, Decimal
from importlib import resources
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atom_rows import structure_from_rows
from numpy1 import numpy_1
from stericzip import (
    AtomNotFoundError,
    AtomSelector,
    PdbParseError,
    PdbWriteError,
    ResidueMismatchError,
    SelectionError,
    Structure,
    StructureError,
    atom_row,
    load_template,
    parse_pdb,
    synthetic_template,
    write_pdb,
)
from stericzip import pdbio
from stericzip.pdbio import ATOM_COLUMNS, _infer_element, _round_half_away, atom_addresses, decode_pdb

SAMPLE_LINE = "ATOM      1  N   GLY A 127      1.000   2.000   3.000  1.00  0.00           N"


def single_atom_structure(position=(1.0, 2.0, 3.0), **columns):
    """One CA atom of residue ALA1 in chain A; ``columns`` replaces whole atom columns."""
    return structure_from_rows([("A", 1, "ALA", "CA", position)], **columns)


class TestParse:
    def test_fixed_column_example(self):
        s = parse_pdb(SAMPLE_LINE + "\nEND\n")
        assert next(s.atoms()).serial == 1
        assert s.names.tolist() == ["N"]
        assert s.res_names.tolist() == ["GLY"]
        assert s.chain_ids() == ["A"]
        assert s.res_seqs.tolist() == [127]
        assert np.array_equal(s.coords, [[1.0, 2.0, 3.0]])
        assert s.elements.tolist() == ["N"]

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

    def test_insertion_code_is_named(self):
        # Residues 127 and 127A used to fail as "residue 127 renamed GLY -> TYR".
        inserted = SAMPLE_LINE.replace("GLY A 127 ", "TYR A 127A").replace("   1  N", "   2  N")
        with pytest.raises(PdbParseError, match=r"^line 2: insertion code 'A' is not supported$"):
            parse_pdb(SAMPLE_LINE + "\n" + inserted + "\n")

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
        assert s.hetatm.tolist() == [True]
        assert write_pdb(s).splitlines()[0].startswith("HETATM")
        assert parse_pdb(write_pdb(s)) == s

    def test_blank_occupancy_and_temp_default(self):
        line = SAMPLE_LINE[:54] + " " * 12 + SAMPLE_LINE[66:]
        s = parse_pdb(line + "\nEND\n")
        assert s.occupancy.tolist() == [1.0]
        assert s.temp_factor.tolist() == [0.0]

    def test_missing_element_inferred_from_name(self):
        line = SAMPLE_LINE[:76] + "  "
        assert parse_pdb(line + "\nEND\n").elements.tolist() == ["N"]


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

    def test_oversized_coordinate_message_prints_a_plain_float(self):
        with pytest.raises(PdbWriteError, match=r"^atom A\.ALA1\.CA: coordinate -1000\.0 does not fit in F8\.3$"):
            write_pdb(single_atom_structure(position=(-1000.0, 0.0, 0.0)))

    @pytest.mark.parametrize("columns, field", [((54, 60), "occupancy"), ((60, 66), "B-factor")])
    def test_huge_occupancy_or_b_factor_is_a_write_error(self, columns, field):
        # Quantizing 1e308 through Decimal raised decimal.InvalidOperation.
        start, end = columns
        line = SAMPLE_LINE[:start] + " 1e308" + SAMPLE_LINE[end:]
        with pytest.raises(PdbWriteError, match=rf"^atom A\.GLY127\.N: {field} 1e\+308 does not fit in F6\.2$"):
            write_pdb(parse_pdb(line + "\nEND\n"))

    @pytest.mark.parametrize("columns, field", [((54, 60), "occupancy"), ((60, 66), "B-factor")])
    def test_oversized_occupancy_or_b_factor_names_field_and_atom(self, columns, field):
        start, end = columns
        line = SAMPLE_LINE[:start] + "1e5".rjust(end - start) + SAMPLE_LINE[end:]
        with pytest.raises(PdbWriteError, match=rf"^atom A\.GLY127\.N: {field} 100000\.0 does not fit in F6\.2$"):
            write_pdb(parse_pdb(line + "\nEND\n"))

    def test_serials_renumbered_and_ter_end(self):
        s = structure_from_rows([("A", 1, "ALA", "N", (0.0, 0.0, 0.0)), ("A", 1, "ALA", "CA", (0.0, 0.0, 0.0))])
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
        assert write_pdb(single_atom_structure(position=(value, 0.0, 0.0)))[30:38] == expected


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
        ("A", 1, {"seg_id": "SEGAB"}, r"atom A\.ALA1\.CA: segment id 'SEGAB' does not fit in A4"),
        ("A", 1, {"charge": "1+X"}, r"atom A\.ALA1\.CA: charge '1\+X' does not fit in A2"),
    ],
    ids=["chain-id-long", "chain-id-empty", "res-seq-high", "res-seq-low", "res-name", "atom-name",
         "alt-loc", "element", "segment-id", "charge"],
)
def test_field_that_does_not_fit_names_field_and_atom(chain_id, res_seq, atom_edit, message):
    row = (chain_id, res_seq, atom_edit.get("res_name", "ALA"), atom_edit.get("name", "CA"), (0.0, 0.0, 0.0))
    s = structure_from_rows([row], alt_locs=[atom_edit.get("alt_loc", "")], elements=[atom_edit.get("element", "C")],
                            seg_ids=[atom_edit.get("seg_id", "")], charges=[atom_edit.get("charge", "")])
    with pytest.raises(PdbWriteError, match=f"^{message}$"):
        write_pdb(s)


def test_segment_id_and_charge_faults_come_after_the_b_factor():
    wide = dict(seg_ids=["SEGAB"], charges=["1+X"])
    with pytest.raises(PdbWriteError, match=r"^atom A\.ALA1\.CA: B-factor 100000\.0 does not fit in F6\.2$"):
        write_pdb(single_atom_structure(temp_factor=[1e5], **wide))
    with pytest.raises(PdbWriteError, match=r"^atom A\.ALA1\.CA: segment id 'SEGAB' does not fit in A4$"):
        write_pdb(single_atom_structure(**wide))


# Written by hand from the format: the segment id, which X-PLOR and CHARMM
# write, in columns 73-76 and the charge (wwPDB format 3.3) in 79-80, both
# left-justified.  A record with no charge ends at column 78.
SEGMENT_ID_FILE = (
    "ATOM      1  N   GLY A 127       0.000   0.800   4.000  1.00  0.00      SEGA N\n"
    "ATOM      2  CA  GLY A 127       1.089  -0.100   3.650  1.00  0.00      SEGA C\n"
    "TER       3      GLY A 127\n"
    "END\n"
)
CHARGE_FILE = (
    "HETATM    1 NA    NA A 201       1.000   2.000   3.000  1.00 20.00          NA1+\n"
    "HETATM    2  O     O A 202       4.000   5.000   6.000  1.00 30.00           O2-\n"
    "TER       3        O A 202\n"
    "END\n"
)
BOTH_FILE = (
    "HETATM    1 CL    CL A 301       7.000   8.000   9.000  1.00 40.00      SEGBCL1-\n"
    "ATOM      2  N   GLY A 302       0.000   0.800   4.000  1.00  0.00      SEGB N\n"
    "TER       3      GLY A 302\n"
    "END\n"
)


@pytest.mark.parametrize("text, seg_ids, charges", [
    (SEGMENT_ID_FILE, ["SEGA", "SEGA"], ["", ""]), (CHARGE_FILE, ["", ""], ["1+", "2-"]),
    (BOTH_FILE, ["SEGB", "SEGB"], ["1-", ""]),
], ids=["segment-id", "charges", "both"])
def test_segment_id_and_charge_are_kept(text, seg_ids, charges):
    s = parse_pdb(text)
    assert (s.seg_ids.tolist(), s.charges.tolist()) == (seg_ids, charges)
    assert [(atom.seg_id, atom.charge) for atom in s.atoms()] == list(zip(seg_ids, charges))
    assert write_pdb(s) == text == reference_write_pdb(s)
    assert_parses_as_reference(text)


def serial_overflow_structure(first_residue_atoms, extra_chain_atoms):
    """Ten atoms C0-C9 per residue, after a first residue of ``first_residue_atoms`` (~100,000 records)."""
    n = first_residue_atoms + 99_990 + extra_chain_atoms
    residue_sizes = [first_residue_atoms] + [10] * 9_999 + [extra_chain_atoms] * bool(extra_chain_atoms)
    return Structure.from_columns(
        (), ["A", "B"][:1 + bool(extra_chain_atoms)], names=[f"C{k}" for size in residue_sizes for k in range(size)],
        alt_locs=[""] * n, coords=np.zeros((n, 3)), occupancy=np.ones(n), temp_factor=np.zeros(n),
        elements=["C"] * n, hetatm=np.zeros(n, dtype=bool), seg_ids=[""] * n, charges=[""] * n,
        res_starts=np.cumsum([0] + residue_sizes),
        res_seqs=list(range(10_000)) + [1] * bool(extra_chain_atoms), res_names=["ALA"] * len(residue_sizes),
        chain_starts=[0, 10_000, len(residue_sizes)][:2 + bool(extra_chain_atoms)],
    )


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
    rows, elements = [], []
    for cid in chain_ids:
        n_res = draw(st.integers(1, 3))
        for seq in range(1, n_res + 1):
            n_atoms = draw(st.integers(1, len(atom_menu)))
            for name, element in atom_menu[:n_atoms]:
                pos = [draw(coordinates) for _ in range(3)]
                rows.append((cid, seq, "ALA", name, pos))
                elements.append(element)
    return structure_from_rows(rows, elements=elements)


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

    def test_blank_element_is_inferred_at_construction(self):
        # The writer leaves columns 77-78 blank and the parser infers the element.
        s = single_atom_structure(elements=[""])
        assert s.elements.tolist() == ["C"]
        assert parse_pdb(write_pdb(s)) == s

    def test_arbitrary_precision_projects_to_grid(self):
        s = single_atom_structure(position=(1.23456789, -2.3456789, 0.999999))
        once = write_pdb(s)
        assert write_pdb(parse_pdb(once)) == once

    def test_shipped_template_matches_generator(self):
        assert write_pdb(load_template()) == write_pdb(synthetic_template())


def decimal_field(value, width, decimals, what):
    """Reference F<width>.<decimals> field: the shortest repr, rounded by Decimal."""
    value = float(value)
    if not math.isfinite(value):
        raise PdbWriteError(f"non-finite {what} {value!r}")
    q = Decimal(repr(float(value))).quantize(Decimal(1).scaleb(-decimals), rounding=ROUND_HALF_UP)
    out = f"{abs(q) if q == 0 else q:.{decimals}f}"
    if len(out) > width:
        raise PdbWriteError(f"{what} {value!r} does not fit in F{width}.{decimals}")
    return out.rjust(width)


def reference_write_pdb(structure):
    """The writer one atom and one Decimal field at a time."""
    s = structure
    lines = list(s.headers)
    serial = 1
    for c, chain_id in enumerate(s.chain_ids()):
        last_residue = None
        for r in range(s.chain_starts[c], s.chain_starts[c + 1]):
            res_seq, res_name = int(s.res_seqs[r]), str(s.res_names[r])
            for i in range(s.res_starts[r], s.res_starts[r + 1]):
                atom_name, alt_loc, element = str(s.names[i]), str(s.alt_locs[i]), str(s.elements[i])
                seg_id, charge = str(s.seg_ids[i]), str(s.charges[i])
                address = f"{chain_id}.{res_name}{res_seq}.{atom_name}"
                try:
                    x, y, z = (decimal_field(v, 8, 3, "coordinate") for v in s.coords[i])
                    occ = decimal_field(s.occupancy[i], 6, 2, "occupancy")
                    tf = decimal_field(s.temp_factor[i], 6, 2, "B-factor")
                except PdbWriteError as exc:
                    raise PdbWriteError(f"atom {address}: {exc}") from None
                one_letter = len(element) == 1 and len(atom_name) < 4
                name = f" {atom_name:<3}" if one_letter else f"{atom_name:<4}"
                # Columns 73-76 hold the segment id and 79-80 the charge, both
                # left-justified; a record without a charge ends at column 78.
                lines.append(
                    f"{'HETATM' if s.hetatm[i] else 'ATOM  '}{serial:5d} {name}"
                    f"{alt_loc or ' '}{res_name:>3} {chain_id}{res_seq:4d}    "
                    f"{x}{y}{z}{occ}{tf}      {seg_id:<4}{element:>2}{charge:<2}"[:80 if charge else 78]
                )
                serial += 1
            last_residue = (res_seq, res_name)
        if last_residue is not None:
            lines.append(f"TER   {serial:5d}      {last_residue[1]:>3} {chain_id}{last_residue[0]:4d}")
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
    rows, occupancy, temp_factor = [], [], []
    for name, _ in atom_menu[: draw(st.integers(1, len(atom_menu)))]:
        rows.append(("A", 1, "ALA", name, [draw(edge_coordinates) for _ in range(3)]))
        occupancy.append(draw(edge_fields))
        temp_factor.append(draw(edge_fields))
    return structure_from_rows(rows, occupancy=occupancy, temp_factor=temp_factor,
                               elements=[element for _, element in atom_menu[:len(rows)]])


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
        assert_matches_reference(single_atom_structure(occupancy=[value]))


@pytest.mark.parametrize("width, decimals, what", [(8, 3, "coordinate"), (6, 2, "occupancy")])
def test_bulk_rounding_matches_decimal_reference(width, decimals, what):
    # Ties (2k + 1) / (2 10^d) of random k of either sign up to the width
    # edges, the edge values, 0 and 1e-300 of either sign, each one ulp either side.
    k = np.random.default_rng(width).integers(-(10 ** (width - 2)), 10 ** (width - 1), 34_000)
    edges = np.abs([*EDGE_VALUES, 0.0, 1e-300])
    centres = np.concatenate([(2 * k + 1) / (2 * 10**decimals), edges, -edges])
    values = np.concatenate([np.nextafter(centres, -np.inf), centres, np.nextafter(centres, np.inf)])
    values = np.concatenate([values, [np.nan, np.inf, -np.inf]])
    assert len(values) > 100_000
    counts, unfit = _round_half_away(values, width, decimals)
    texts = [f"{count / 10**decimals:{width}.{decimals}f}" for count in counts.tolist()]
    for value, text, refused in zip(values.tolist(), texts, unfit.tolist()):
        try:
            expected = decimal_field(value, width, decimals, what)
        except PdbWriteError as exc:
            assert refused, value
            if not math.isfinite(value):  # a Structure holds no non-finite value, so the writer never sees one
                assert str(exc) == f"non-finite {what} {value!r}"
                with pytest.raises(StructureError, match="non-finite"):
                    single_atom_structure(occupancy=[value])
                continue
            columns = {"occupancy": [value]} if width == 6 else {"position": (value, 0.0, 0.0)}
            with pytest.raises(PdbWriteError, match=f"^{re.escape(f'atom A.ALA1.CA: {exc}')}$"):
                write_pdb(single_atom_structure(**columns))
        else:
            assert not refused and text == expected, value


# Columns of the fields of an ATOM/HETATM record, as the parser and writer
# read them, and the edits made to them.  "tail" writes past column 80.
# Besides faults, the edits hold text on which a column decoder could differ
# from int(), float() and str.strip(): signs, underscores, exponents,
# non-ASCII digits and names, tabs and other Unicode whitespace, and NULs,
# which a NumPy string drops when trailing.
RECORD_FIELDS = {field.name: (field.start, field.stop) for field in pdbio.RECORD} | {"tail": (80, 84)}
FIELD_EDITS = [
    "nan", "inf", "-inf", "1e5", "-9999", "", "abc", "X", "+3", "1_0", "1e2", "  1.5", "\u0663", "-0.000",
    "C\u03b1", "A", "B", "\t", " \xa01", "1.5\t", "--1.000",
]
NUL_EDITS = ["\x00", "CA \x00"]
TEMPLATE_LINES = write_pdb(synthetic_template()).splitlines()
PACKAGED_TEMPLATE = resources.files("stericzip").joinpath("data", "template.pdb").read_text()


def one_model(text):
    """The file with its coordinate records wrapped in MODEL 1 ... ENDMDL, ahead of END."""
    lines = text.splitlines()
    first = next(k for k, line in enumerate(lines) if line.startswith("ATOM"))
    assert lines[-1] == "END"
    return "\n".join(lines[:first] + ["MODEL        1"] + lines[first:-1] + ["ENDMDL", "END"]) + "\n"
ATOM_LINES = [k for k, line in enumerate(TEMPLATE_LINES) if line.startswith("ATOM  ")]


@st.composite
def edited_templates(draw, edits=FIELD_EDITS):
    """The written template with one to four fields overwritten, LF or CRLF."""
    lines = list(TEMPLATE_LINES)
    for _ in range(draw(st.integers(1, 4))):
        k = draw(st.sampled_from(ATOM_LINES))
        start, stop = RECORD_FIELDS[draw(st.sampled_from(sorted(RECORD_FIELDS)))]
        value = draw(st.sampled_from(edits))[: stop - start].rjust(stop - start)
        line = lines[k].ljust(80)
        lines[k] = (line[:start] + value + line[stop:]).rstrip()
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + newline


# The record-by-record parser that the column parser replaced, kept as the
# reference of the differential test.
_REFERENCE_COLUMNS = itemgetter(
    slice(6, 11), slice(12, 16), 16, slice(17, 20), 21, slice(22, 26),
    slice(30, 38), slice(38, 46), slice(46, 54), slice(54, 60), slice(60, 66), slice(76, 78),
    slice(72, 76), slice(78, 80),
)
_REFERENCE_NUMBERS = (
    (0, int, "serial"), (5, int, "residue number"), (6, float, "x coordinate"),
    (7, float, "y coordinate"), (8, float, "z coordinate"), (9, float, "occupancy"),
    (10, float, "temperature factor"),
)


def reference_malformed(columns, line_number):
    for index, kind, what in _REFERENCE_NUMBERS:
        text = columns[index].strip() if index >= 9 else columns[index]
        try:
            if text:
                kind(text)
        except ValueError:
            return PdbParseError(f"malformed {what} field {text!r}", line_number)
    raise AssertionError("every number column parses")


def reference_parse_pdb(text):
    """The parser one record at a time."""
    headers, atoms = [], []
    res_starts, res_seqs, res_names = [], [], []
    chain_ids, chain_starts = [], []
    open_chain = None
    ended, models = False, 0
    for line_number, line in enumerate(text.splitlines(), start=1):
        record = line[:6]
        if ended:
            if line.strip():
                raise PdbParseError("content after END record", line_number)
            continue
        if record in ("ATOM  ", "HETATM"):
            if len(line) < 54:
                raise PdbParseError("truncated coordinate record", line_number)
            if "\x00" in line[:80]:
                raise PdbParseError("NUL character in columns 1-80", line_number)
            columns = _REFERENCE_COLUMNS(line.ljust(80))
            alt_loc = columns[2].strip()
            if alt_loc not in ("", "A"):
                raise PdbParseError(f"unsupported alternate location {alt_loc!r}", line_number)
            try:
                serial, res_seq = int(columns[0]), int(columns[5])
                x, y, z = float(columns[6]), float(columns[7]), float(columns[8])
                occupancy = 1.0 if columns[9].isspace() else float(columns[9])
                temp_factor = 0.0 if columns[10].isspace() else float(columns[10])
            except ValueError:
                raise reference_malformed(columns, line_number) from None
            name, res_name, chain_id, element = columns[1].strip(), columns[3].strip(), columns[4], columns[11].strip()
            if not name:
                raise PdbParseError("empty atom name", line_number)
            if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
                raise PdbParseError(f"atom {name}: non-finite position", line_number)
            if not (math.isfinite(occupancy) and math.isfinite(temp_factor)):
                raise PdbParseError(f"atom {name}: non-finite occupancy or temperature factor", line_number)
            if serial < 1:
                raise PdbParseError(f"atom {name}: serial must be >= 1", line_number)
            if line[26] != " ":
                raise PdbParseError(f"insertion code {line[26]!r} is not supported", line_number)
            if chain_id != open_chain:
                if chain_id in chain_ids:
                    raise PdbParseError(f"chain {chain_id!r} reopened after TER", line_number)
                open_chain = chain_id
                chain_ids.append(chain_id)
                chain_starts.append(len(res_seqs))
            if len(res_seqs) > chain_starts[-1] and res_seqs[-1] == res_seq:
                if res_names[-1] != res_name:
                    raise PdbParseError(f"residue {res_seq} renamed {res_names[-1]} -> {res_name}", line_number)
            else:
                res_starts.append(len(atoms))
                res_seqs.append(res_seq)
                res_names.append(res_name)
            atoms.append((name, alt_loc, (x, y, z), occupancy, temp_factor, element or _infer_element(name),
                          record == "HETATM", columns[12].strip(), columns[13].strip()))
        elif record.startswith("MODEL"):
            if models:
                raise PdbParseError("second MODEL record; a template is one model", line_number)
            models += 1
        elif record.startswith(("TER", "END")):
            open_chain = None
            ended = record.startswith("END") and not record.startswith("ENDMDL")
        else:
            headers.append(line)
    try:
        return Structure.from_columns(
            headers, chain_ids, **dict(zip(ATOM_COLUMNS, list(zip(*atoms)) or [()] * len(ATOM_COLUMNS))),
            res_starts=res_starts + [len(atoms)], res_seqs=res_seqs, res_names=res_names,
            chain_starts=chain_starts + [len(res_seqs)],
        )
    except StructureError as exc:
        raise PdbParseError(str(exc)) from exc


def assert_parses_as_reference(text):
    """parse_pdb gives the reference's structure, bit for bit, or its error and line number."""
    try:
        expected = reference_parse_pdb(text)
    except PdbParseError as exc:
        with pytest.raises(PdbParseError) as err:
            parse_pdb(text)
        assert (str(err.value), err.value.line_number) == (str(exc), exc.line_number)
        return
    parsed = parse_pdb(text)
    assert parsed == expected
    for column in ("coords", "occupancy", "temp_factor"):
        assert getattr(parsed, column).tobytes() == getattr(expected, column).tobytes()


class TestEditedRecords:
    @settings(max_examples=300, deadline=None)
    @given(edited_templates(FIELD_EDITS + NUL_EDITS))
    def test_parse_matches_the_record_by_record_reference(self, text):
        assert_parses_as_reference(text)

    @pytest.mark.parametrize("text", [
        "", "END\n\n  \n", "END\nREMARK\n", "HEADER\r\nTER\r\nEND\r\n", "ATOM\nTER junk\nENDMDL\n",
        SAMPLE_LINE + "\r" + SAMPLE_LINE.replace("   1  N", "   2  CA") + "\x1c" + "END\u2028",
        SAMPLE_LINE + "\n" + SAMPLE_LINE.replace(" 127 ", " 126 ").replace("   1  N", "   2  CA") + "\n",
        SAMPLE_LINE + "\nTER\n" + SAMPLE_LINE.replace("   1  N", "   2  CA") + "\n",
        SAMPLE_LINE.replace("GLY", "TYR") + "\n" + SAMPLE_LINE.replace("   1  N", "   2  CA") + "\n",
        SAMPLE_LINE + "\n" + SAMPLE_LINE.replace("GLY A 127 ", "TYR A 127A").replace("   1  N", "   2  N") + "\n",
        SAMPLE_LINE[:30] + "   1.5e1" + SAMPLE_LINE[38:] + "\nEND\n",
        one_model(PACKAGED_TEMPLATE),
        "MODEL        1\n" + SAMPLE_LINE + "\nENDMDL\nMODEL        2\n" + SAMPLE_LINE + "\nENDMDL\nEND\n",
        SAMPLE_LINE + "\nMODEL\n" + SAMPLE_LINE[:40] + "\nMODEL\n",
        "MODEL\nMODEL\n" + SAMPLE_LINE[:40] + "\n",
    ], ids=["empty", "blank-after-end", "header-after-end", "crlf", "short-records", "other-breaks",
            "residue-order", "reopened", "renamed", "insertion-code", "exponent", "model", "two-models",
            "fault-before-second-model", "second-model-before-fault"])
    def test_edge_files_match_the_reference(self, text):
        assert_parses_as_reference(text)

    def test_blank_lines_after_end_are_dropped(self):
        # A blank line after END is no header, so the rewrite is the writer's own text.
        once = write_pdb(load_template())
        assert write_pdb(parse_pdb(once + "\n")) == write_pdb(parse_pdb(once + " \n\r\n")) == once
        assert parse_pdb("REMARK\n\nEND\n\n").headers == ["REMARK", ""]
        with pytest.raises(PdbParseError, match="content after END record$") as err:
            parse_pdb(once + "\nREMARK\n")
        assert err.value.line_number == len(once.splitlines()) + 2

    def test_one_model_parses_as_the_bare_file(self):
        # A deposited file wraps its one model in MODEL ... ENDMDL; ENDMDL used to read as END.
        assert parse_pdb(one_model(PACKAGED_TEMPLATE)) == parse_pdb(PACKAGED_TEMPLATE) == load_template()

    @settings(max_examples=300, deadline=None)
    @given(edited_templates(FIELD_EDITS + NUL_EDITS))
    def test_parse_rejects_or_round_trips(self, text):
        try:
            structure = parse_pdb(text)
        except PdbParseError:
            return
        assert np.all(np.isfinite(structure.coords))
        assert np.all(np.isfinite(structure.occupancy)) and np.all(np.isfinite(structure.temp_factor))
        try:
            once = write_pdb(structure)
        except PdbWriteError:
            return
        assert write_pdb(parse_pdb(once)) == once

    @pytest.mark.parametrize("edit", NUL_EDITS)
    @pytest.mark.parametrize("field", ["serial", "name", "res_name", "x", "element", "seg_id", "charge"])
    def test_nul_in_a_coordinate_record_names_its_line(self, edit, field):
        # A NumPy string drops trailing NULs, so a name or element ending in
        # one would not read back; the parser refuses the record instead.
        start, stop = RECORD_FIELDS[field]
        lines = list(TEMPLATE_LINES)
        k = ATOM_LINES[2]
        lines[k] = lines[k][:start] + edit[-(stop - start):].rjust(stop - start) + lines[k][stop:]
        text = "\n".join(lines) + "\n"
        for parse in (parse_pdb, reference_parse_pdb):
            with pytest.raises(PdbParseError, match=r"^line 6: NUL character in columns 1-80$") as err:
                parse(text)
            assert err.value.line_number == k + 1 == 6


class TestHeaders:
    @pytest.mark.parametrize("header", [
        "ENDMDL", "END", "TER junk", "TER", "ATOM  x", "HETATM", "REMARK a\nREMARK b", "REMARK a\x0cb",
        "REMARK a\r", "REMARK a\u2028b", "MODEL        1",
    ])
    def test_header_that_would_not_read_back_is_a_write_error(self, header):
        template = synthetic_template()
        s = Structure(template.chains, ["REMARK first", header])
        with pytest.raises(PdbWriteError, match=r"^header 1 "):
            write_pdb(s)

    def test_headers_that_read_back(self):
        headers = ["REMARK   1 NOTE", "", "   ", "ATOM", "HEADER  TER"]
        s = Structure(synthetic_template().chains, headers)
        assert parse_pdb(write_pdb(s)).headers == headers


def test_bytes_that_are_not_utf8_name_their_line():
    data = write_pdb(synthetic_template()).encode()
    assert decode_pdb(data) == data.decode()
    with pytest.raises(PdbParseError, match=r"^line 3: byte 0xe9 is not UTF-8") as err:
        decode_pdb(b"REMARK one\r\nREMARK two\rREMARK caf\xe9\n" + data)
    assert err.value.line_number == 3


def stacked_cells(model, cells, step):
    """A fibril of ``cells`` copies of a twelve-chain model, stacked by translation."""
    from stericzip import RigidTransform, transform_chain

    chains, ids = list(model.chains), iter("MNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz")
    for k in range(1, cells):
        shift = RigidTransform(np.eye(3), 3.0 * k * np.asarray(step))
        chains += [transform_chain(model, chain_id, shift, new_id).chain(new_id)
                   for chain_id, new_id in zip(model.chain_ids(), ids)]
    return Structure(chains, model.headers)


def test_canonical_files_take_no_per_cell_path(monkeypatch):
    from stericzip import FibrilSpec, OptimizerConfig, build_fibril_model

    spec = FibrilSpec(sequence="GAAAAG", optimizer=OptimizerConfig(max_evaluations=40_000, seed=0))
    model, _ = build_fibril_model(load_template(), spec)
    texts = [write_pdb(model), write_pdb(stacked_cells(model, 4, spec.lattice.intra_sheet_step))]
    calls = []

    def counted(function):
        def wrapper(*args, **kwargs):
            calls.append(function.__name__)
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(pdbio, "_number", counted(pdbio._number))
    for text in texts:
        assert write_pdb(parse_pdb(text)) == text
    assert parse_pdb(texts[1]).n_atoms() == 4 * model.n_atoms() and calls == []
    line = next(line for line in texts[0].splitlines() if line.startswith("ATOM"))
    structure = parse_pdb(line[:30] + "   1.5e1" + line[38:] + "\nEND\n")
    assert calls == ["_number"] and structure.coords[0, 0] == 15.0


def test_reads_and_writes_with_the_numpy_1_api(monkeypatch):
    template = load_template()
    text = write_pdb(template)
    monkeypatch.setattr(pdbio, "np", numpy_1)
    assert write_pdb(parse_pdb(text)) == text and write_pdb(Structure([])) == "END\n"
    assert Structure(template.chains, template.headers) == template


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
        row = atom_row(s, "A.MET129.SD")
        residue = s.atom_residues()[row]
        assert s.names[row] == "SD" and s.res_names[residue] == "MET" and s.res_seqs[residue] == 129
        assert atom_addresses(s, [row]) == ["A.MET129.SD"]
        chain = s.chain("A")
        assert np.array_equal(chain.coords[atom_row(chain, "A.MET129.SD")], s.coords[row])

    def test_missing_chain_not_found(self):
        with pytest.raises(AtomNotFoundError):
            atom_row(synthetic_template(), "Z.ALA1.CB")

    def test_residue_name_mismatch(self):
        with pytest.raises(ResidueMismatchError):
            atom_row(synthetic_template(), "A.ALA127.CA")

    def test_glycine_has_no_cb(self):
        with pytest.raises(AtomNotFoundError):
            atom_row(synthetic_template(), "A.GLY127.CB")


def empty_chains(*chain_ids):
    """Chains that hold no residues, straight from columns."""
    return Structure.from_columns(
        (), chain_ids, names=[], alt_locs=[], coords=[], occupancy=[], temp_factor=[], elements=[], hetatm=[],
        seg_ids=[], charges=[], res_starts=[0], res_seqs=[], res_names=[], chain_starts=[0] * (len(chain_ids) + 1),
    )


def one_chain(residues):
    """Chain A of one atom per (residue number, residue name, atom name), each atom its own residue."""
    n = len(residues)
    return Structure.from_columns(
        (), ["A"], names=[name for _, _, name in residues], alt_locs=[""] * n, coords=np.zeros((n, 3)),
        occupancy=np.ones(n), temp_factor=np.zeros(n), elements=[name[0] for _, _, name in residues],
        hetatm=np.zeros(n, dtype=bool), seg_ids=[""] * n, charges=[""] * n, res_starts=range(n + 1),
        res_seqs=[seq for seq, _, _ in residues],
        res_names=[res_name for _, res_name, _ in residues], chain_starts=[0, n],
    )


class TestStructureInvariants:
    def test_duplicate_chain_ids_rejected(self):
        with pytest.raises(StructureError):
            Structure([empty_chains("A"), empty_chains("A")])
        with pytest.raises(StructureError):
            empty_chains("A", "A")

    def test_residue_order_monotone(self):
        with pytest.raises(StructureError):
            one_chain([(2, "ALA", "CA"), (1, "ALA", "N")])

    def test_coordinate_block_is_read_only(self):
        s = single_atom_structure()
        assert not s.coords.flags.writeable and s.copy() is s
        for column in (s.coords, s.names, s.occupancy, s.res_seqs, s.chain_starts):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = column[0]
        with pytest.raises(AttributeError):
            s.coords = np.zeros((1, 3))
        assert next(s.atoms()).position[0] == 1.0

    def test_editing_after_construction_raises(self):
        # Renumbering a residue after construction used to be accepted and
        # wrote text that parse_pdb rejects (residue 127 renamed GLY -> TYR).
        s = synthetic_template()
        chain = s.chain("A")
        with pytest.raises(ValueError, match="read-only"):
            chain.res_seqs[1] = 127
        with pytest.raises(AttributeError):
            s.chains[1]._chain_ids = ("A",)
        with pytest.raises(ValueError, match="read-only"):
            chain.res_names[1] = "GLY"
        atom = next(chain.atoms())
        with pytest.raises(AttributeError):
            atom.occupancy = 0.5
        with pytest.raises(ValueError, match="read-only"):
            atom.position[0] = 99.0
        with pytest.raises(ValueError, match="read-only"):
            chain.res_starts[-1] = 0
        assert s == synthetic_template()
        assert write_pdb(parse_pdb(write_pdb(s))) == write_pdb(s)

    @pytest.mark.parametrize("second_name", ["GLY", "ALA"])
    def test_residue_number_may_not_repeat(self, second_name):
        # The file would not parse back (GLY) or would merge the residues (ALA).
        with pytest.raises(StructureError, match=r"^chain A: residue numbers must strictly increase, got 1 after 1$"):
            one_chain([(1, "ALA", "CA"), (1, second_name, "N")])

    def test_chain_renamed_onto_another_is_rejected(self):
        # Two chain-A blocks would write a file that parse_pdb rejects, and
        # the audits would merge the strands into one chain.
        s = synthetic_template()
        with pytest.raises(StructureError, match=r"^chain id 'A' is repeated in \['A', 'A'\]$"):
            Structure([s.chain("A"), s.with_chains([("A", "B")])], s.headers)
        with pytest.raises(StructureError, match="chain id 'A' is repeated"):
            Structure([empty_chains("A"), empty_chains("B"), empty_chains("A")])

    def test_a_part_that_is_not_a_structure_is_rejected(self):
        s = synthetic_template()
        with pytest.raises(StructureError, match=r"^a structure joins structures, not tuple$"):
            Structure([s.chain("A"), ("B", [])], s.headers)

    @settings(max_examples=60, deadline=None)
    @given(structures())
    def test_joining_the_chains_gives_the_structure(self, s):
        assert Structure(s.chains, s.headers) == s
        assert [chain.chain_ids() for chain in s.chains] == [[chain_id] for chain_id in s.chain_ids()]
        for chain, chain_id in zip(s.chains, s.chain_ids()):
            assert chain == s.chain(chain_id) == s.subset([chain_id])

    @settings(max_examples=60, deadline=None)
    @given(structures())
    def test_each_atoms_residue_and_chain_are_computed_once(self, s):
        for rows, starts in ((s.atom_residues, s.res_starts), (s.atom_chains, s.res_starts[s.chain_starts])):
            assert rows() is rows()
            assert not rows().flags.writeable
            assert np.array_equal(rows(), np.repeat(np.arange(len(starts) - 1), np.diff(starts)))

    def test_subset_keeps_the_headers(self):
        template = synthetic_template()
        unit = template.subset(("B",))
        assert unit.chain_ids() == ["B"]
        assert unit.headers == template.headers and len(unit.headers) == 3
        assert all(line.startswith("REMARK") for line in unit.headers)
        assert unit.headers is not template.headers


def test_stacked_cells_round_trip_and_audit_alike():
    # A two-cell fibril stacked as the benchmark's files workload stacks it:
    # chain copies, transform_chain(...).chain(new_id), Structure(chains,
    # headers) from the chains of two structures, then renumber_serials().
    from stericzip import (FibrilSpec, OptimizerConfig, RigidTransform, build_fibril_model, clash_audit,
                           detect_hbonds, transform_chain)

    spec = FibrilSpec(sequence="GAAAAG", optimizer=OptimizerConfig(max_evaluations=40_000, seed=0))
    model, _ = build_fibril_model(load_template(), spec)
    shift = RigidTransform(np.eye(3), 3.0 * spec.lattice.intra_sheet_step)
    chains = [chain.copy() for chain in model.chains]
    for chain_id, new_id in zip(model.chain_ids(), "MNOPQRSTUVWX"):
        chains.append(transform_chain(model, chain_id, shift, new_id).chain(new_id))
    stack = Structure(chains, list(model.headers))
    stack.renumber_serials()
    assert len(stack.chain_ids()) == 24 and stack.n_atoms() == 2 * model.n_atoms()
    text = write_pdb(stack)
    parsed = parse_pdb(text)
    assert write_pdb(parsed) == text
    hbonds = len(detect_hbonds(stack))
    assert hbonds > len(detect_hbonds(model)) > 0
    assert len(detect_hbonds(parsed)) == hbonds
    assert len(clash_audit(parsed, 2.0)) == len(clash_audit(stack, 2.0))
