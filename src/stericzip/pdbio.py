"""Bit-exact parsing and emission of fixed-column PDB coordinate files.

ATOM/HETATM records are read and written with the one column layout that
``RECORD`` holds, a row per field: 7-11 serial, 13-16 atom name, 17
altLoc, 18-20 resName, 22 chainID, 23-26 resSeq, 27 iCode (refused when
set), 31-54 x, y and z as F8.3, 55-60 occupancy and 61-66 B-factor as
F6.2, 73-76 segment id, 77-78 element and 79-80 charge, after the record
name in 1-6.  A record is written 78 columns long, or 80 when it has a
charge.  TER closes a chain and END the file, MODEL and ENDMDL bound the
one model a template holds, and every other line is an opaque header,
written back ahead of the coordinates.  Both directions work on columns,
not record by record (see ``parse_pdb`` and ``write_pdb``), and a parsed
file is written back byte for byte once it has passed through the writer.

A ``Structure`` is a frozen value: one (N, 3) coordinate block and one
column per atom field, with residues and chains as index ranges.  Nothing
in it can be written, so the layout checked at construction always holds,
and every edit returns a new structure.  It is the only structure type: a
chain is a one-chain structure, and structures are built from columns or
by joining the chains of other structures.  Serial numbers are not stored;
the writer numbers every record.
"""

from __future__ import annotations

import re
from collections import namedtuple
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .errors import (
    AtomNotFoundError,
    PdbParseError,
    PdbWriteError,
    ResidueMismatchError,
    SelectionError,
    StructureError,
)


# A read-only view of one atom record: its ATOM_COLUMNS fields and the serial the writer gives it.
Atom = namedtuple("Atom", "name alt_loc position occupancy temp_factor element is_hetatm seg_id charge serial")
# A structure's columns and their dtypes: the atom fields in the order of
# Atom's, then the residue rows and the chains' residue ranges.
ATOM_COLUMNS = ("names", "alt_locs", "coords", "occupancy", "temp_factor", "elements", "hetatm", "seg_ids", "charges")
_DTYPES = dict(zip(ATOM_COLUMNS + ("res_starts", "res_seqs", "res_names", "chain_starts"),
                   (str, str, np.float64, np.float64, np.float64, str, bool, str, str, np.int64, np.int64, str,
                    np.int64)))


def _starts(counts) -> np.ndarray:
    """Boundaries 0, c0, c0 + c1, ... of consecutive blocks of the given sizes."""
    return np.concatenate([[0], np.cumsum(counts, dtype=np.int64)])


def _ranges(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """The index ranges starts[k]:stops[k], concatenated."""
    lengths = stops - starts
    return np.repeat(starts - np.cumsum(lengths) + lengths, lengths) + np.arange(lengths.sum())


class Structure:
    """Ordered chains plus opaque header lines, as one frozen array value.

    ``ATOM_COLUMNS`` hold the atom fields in record order, ``coords`` being
    the (N, 3) block.  Residue r holds atoms ``res_starts[r]:res_starts[r+1]``
    and has number ``res_seqs[r]`` and name ``res_names[r]``; chain c, named
    ``chain_ids()[c]``, holds residues ``chain_starts[c]:chain_starts[c+1]``.
    A chain on its own is a one-chain structure.

    ``Structure(parts, headers)`` joins the chains of the structures in
    ``parts``, in order; ``from_columns`` takes the columns themselves.
    Either checks the value once: finite fields, non-empty atom names,
    unique chain ids, residue numbers strictly increasing within a chain
    and unique atom keys.  A blank element, which is what a blank element
    field reads as, is inferred from the atom name.  A structure
    derived from checked ones (``with_chains`` and the mutations) relies on
    their check: only its chain ids and new coordinates are checked.
    """

    __slots__ = ("_headers", "_chain_ids", "_atom_res", "_atom_chain", *_DTYPES)

    def __init__(self, parts=(), headers=()):
        parts = list(parts)
        if others := [type(part).__name__ for part in parts if not isinstance(part, Structure)]:
            raise StructureError(f"a structure joins structures, not {others[0]}")

        def joined(column):
            return np.concatenate([column(part) for part in parts] or [[]])

        self._set(headers, [chain_id for part in parts for chain_id in part._chain_ids], {
            **{name: joined(attrgetter(name)) for name in _DTYPES},
            "res_starts": _starts(joined(lambda part: np.diff(part.res_starts))),
            "chain_starts": _starts(joined(lambda part: np.diff(part.chain_starts))),
        })

    @classmethod
    def from_columns(cls, headers, chain_ids, **columns) -> "Structure":
        """Structure from the columns the class docstring names."""
        return cls._from_columns(headers, chain_ids, columns)

    @classmethod
    def _from_columns(cls, headers, chain_ids, columns, fresh=None) -> "Structure":
        """``from_columns``, or with ``fresh`` columns cut from checked ones: checks only ids and ``fresh`` rows."""
        return object.__new__(cls)._set(headers, chain_ids, columns, fresh)

    def _set(self, headers, chain_ids, columns, fresh=None) -> "Structure":
        if set(columns) != set(_DTYPES):
            raise StructureError(f"structure columns are {', '.join(_DTYPES)}, not {', '.join(columns)}")
        object.__setattr__(self, "_headers", tuple(headers))
        object.__setattr__(self, "_chain_ids", ids := tuple(chain_ids))
        for name, dtype in _DTYPES.items():
            array = np.array(columns[name], dtype=dtype).reshape((-1, 3) if name == "coords" else -1)
            array.flags.writeable = name == "elements"  # frozen once its blanks are filled, below
            object.__setattr__(self, name, array)
        names, alt_locs, seqs, n = self.names, self.alt_locs, self.res_seqs, len(self.names)
        res_chain, atom_res = self._rows(self.chain_starts), self._rows(self.res_starts)
        if (any(len(getattr(self, k)) != n for k in ATOM_COLUMNS) or len(atom_res) != n
                or self.res_starts[:1].tolist() != [0] or len(self.res_starts) != len(seqs) + 1
                or self.chain_starts[:1].tolist() != [0] or len(ids) + 1 != len(self.chain_starts)
                or len(res_chain) != len(seqs) or len(self.res_names) != len(seqs)):
            raise StructureError("structure columns do not describe one layout")
        if fresh is None:
            blank = np.flatnonzero(self.elements == "")
            self.elements[blank] = [_infer_element(name) for name in names[blank].tolist()]
        self.elements.flags.writeable = False
        for name, array in (("_atom_res", atom_res), ("_atom_chain", res_chain[atom_res])):
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        at = slice(None) if fresh is None else fresh
        finite = np.logical_and.reduce([np.isfinite(c[at]) for c in (*self.coords.T, self.occupancy, self.temp_factor)])
        if not finite.all():
            raise StructureError(f"atom {names[at][~finite][0]}: non-finite position, occupancy or B-factor")
        if fresh is None and (names == "").any():
            raise StructureError("atom name must be non-empty")
        for k, chain_id in enumerate(ids):
            if chain_id in ids[:k]:
                raise StructureError(f"chain id {chain_id!r} is repeated in {list(ids)}")
        if fresh is not None:
            return self
        # Residue numbers must increase within each chain.  Until the first
        # residue that breaks this, an atom key (chain, residue number, name,
        # alternate location) can only repeat within one residue.
        unordered = np.flatnonzero((res_chain[1:] == res_chain[:-1]) & (seqs[1:] <= seqs[:-1])) + 1
        order = np.lexsort((alt_locs, names, atom_res))  # stable: a repeat sorts after its first
        a, b = order[:-1], order[1:]
        repeats = b[(atom_res[a] == atom_res[b]) & (names[a] == names[b]) & (alt_locs[a] == alt_locs[b])]
        if unordered.size and not (repeats.size and atom_res[repeats.min()] < unordered[0]):
            r = unordered[0]
            raise StructureError(
                f"chain {ids[res_chain[r]]}: residue numbers must strictly increase, got {seqs[r]} after {seqs[r - 1]}"
            )
        if repeats.size:
            i = repeats.min()
            key = (ids[res_chain[atom_res[i]]], int(seqs[atom_res[i]]), str(names[i]), str(alt_locs[i]))
            raise StructureError(f"duplicate atom key {key}")
        return self

    @staticmethod
    def _rows(starts: np.ndarray) -> np.ndarray:
        """For each element of the blocks that ``starts`` bounds, the index of its block."""
        return np.repeat(np.arange(len(starts) - 1), np.diff(starts))

    def __setattr__(self, name, value):
        raise AttributeError(f"a Structure is immutable; {name!r} cannot be assigned")

    def __delattr__(self, name):
        raise AttributeError(f"a Structure is immutable; {name!r} cannot be deleted")

    def __eq__(self, other):
        if not isinstance(other, Structure):
            return NotImplemented
        return (self._headers, self._chain_ids) == (other._headers, other._chain_ids) and all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name in _DTYPES
        )

    __hash__ = None

    @property
    def headers(self) -> list[str]:
        """The header lines, as a new list."""
        return list(self._headers)

    @property
    def chains(self) -> list[Structure]:
        """Each chain as a one-chain structure with the headers, in order, as a new list."""
        return [self.subset([chain_id]) for chain_id in self._chain_ids]

    def chain_ids(self) -> list[str]:
        return list(self._chain_ids)

    def chain_index(self, chain_id: str) -> int:
        if chain_id not in self._chain_ids:
            raise StructureError(f"no chain {chain_id!r} (have {self.chain_ids()})")
        return self._chain_ids.index(chain_id)

    def chain(self, chain_id: str) -> Structure:
        """Chain ``chain_id`` as a one-chain structure with the headers."""
        return self.subset([chain_id])

    def has_chain(self, chain_id: str) -> bool:
        return chain_id in self._chain_ids

    def atoms(self):
        """Read-only ``Atom`` views of every atom, in record order."""
        # Kept because perfbench/workloads.py reads atom names from these views.
        # Each chain's TER record takes one serial, as in the writer.
        closed = np.diff(self.chain_starts) > 0
        serials = np.arange(1, self.n_atoms() + 1) + (np.cumsum(closed) - closed)[self._atom_chain]
        return map(Atom, *(getattr(self, k) if k == "coords" else getattr(self, k).tolist() for k in ATOM_COLUMNS),
                   serials.tolist())

    def n_atoms(self) -> int:
        return len(self.coords)

    def atom_slice(self, chain_id: str) -> slice:
        """Record indices of one chain's atoms."""
        c = self.chain_index(chain_id)
        return slice(*self.res_starts[self.chain_starts[c:c + 2]].tolist())

    def atom_residues(self) -> np.ndarray:
        """Residue row of each atom: one read-only array, computed once at construction."""
        return self._atom_res

    def atom_chains(self) -> np.ndarray:
        """Chain index of each atom: one read-only array, computed once at construction."""
        return self._atom_chain

    # Kept because perfbench/ calls copy() and renumber_serials() and traces copy().
    def copy(self) -> Structure:
        """The structure itself: a frozen value needs no copy, and the writer numbers every record."""
        return self

    renumber_serials = copy

    def subset(self, chain_ids) -> "Structure":
        """Structure of the named chains, in the given order, and the headers (itself when that is all of it)."""
        return self.with_chains([(chain_id, chain_id) for chain_id in chain_ids])

    def with_chains(self, chains, coords=None) -> "Structure":
        """Structure of this one's chains, by (new id, source id), and the headers.

        ``coords``, when given, replaces the gathered atoms' (N, 3) block.
        Asked for its own chains, in order and under their own ids, with no
        ``coords``, it returns the structure itself: a frozen value needs no copy.
        """
        if coords is None and list(chains) == [(chain_id, chain_id) for chain_id in self._chain_ids]:
            return self
        index = np.array([self.chain_index(source) for _, source in chains], dtype=np.int64)
        first, last = self.chain_starts[index], self.chain_starts[index + 1]
        residues, atoms = _ranges(first, last), _ranges(self.res_starts[first], self.res_starts[last])
        columns = {k: getattr(self, k)[atoms] for k in ATOM_COLUMNS}
        return Structure._from_columns(self._headers, [new_id for new_id, _ in chains], columns | dict(
            res_starts=_starts(np.diff(self.res_starts)[residues]), res_seqs=self.res_seqs[residues],
            res_names=self.res_names[residues], chain_starts=_starts(last - first),
        ) | ({} if coords is None else {"coords": coords}), fresh=slice(0 if coords is None else None))


# Kept because perfbench/tracing.py patches pdbio.Chain.copy.
Chain = Structure


_SELECTOR_RE = re.compile(r"^(?P<chain>[A-Za-z0-9])\.(?P<res>[A-Z]{1,3})(?P<seq>\d+)\.(?P<atom>[A-Z0-9']{1,4})$")


@dataclass(frozen=True)
class AtomSelector:
    """Textual atom address of the form ``CHAIN.RESNAMESEQ.ATOM``, e.g. ``A.ALA3.CB``."""

    chain_id: str
    res_name: str
    res_seq: int
    atom_name: str

    def __post_init__(self):
        if self.res_seq < 1:
            raise StructureError(f"selector {self}: residue number must be >= 1")

    @classmethod
    def parse(cls, text: str) -> "AtomSelector":
        m = _SELECTOR_RE.match(text.strip())
        if not m:
            raise SelectionError(f"malformed atom selector {text!r}; expected CHAIN.RESNAMESEQ.ATOM")
        return cls(m["chain"], m["res"], int(m["seq"]), m["atom"])

    def __str__(self):
        return f"{self.chain_id}.{self.res_name}{self.res_seq}.{self.atom_name}"


def atom_addresses(structure: Structure, rows) -> list[str]:
    """``CHAIN.RESNAMESEQ.ATOM`` of the atoms at record indices ``rows``, as writer errors and audits name them."""
    rows = np.asarray(rows, dtype=np.int64)
    residues = structure.atom_residues()[rows]
    ids = structure.chain_ids()
    return [f"{ids[c]}.{res_name}{res_seq}.{name}" for c, res_name, res_seq, name in zip(
        structure.atom_chains()[rows].tolist(), structure.res_names[residues].tolist(),
        structure.res_seqs[residues].tolist(), structure.names[rows].tolist(),
    )]


def atom_row(structure: Structure, selector: AtomSelector | str) -> int:
    """Record index of the unique atom addressed by ``selector``.

    Raises AtomNotFoundError when nothing matches and ResidueMismatchError
    when the residue at (chain, number) exists under a different name.
    """
    if isinstance(selector, str):
        selector = AtomSelector.parse(selector)
    if not structure.has_chain(selector.chain_id):
        raise AtomNotFoundError(f"no atom matches {selector}: chain not present")
    c = structure.chain_index(selector.chain_id)
    first, last = structure.chain_starts[c:c + 2]
    hits = np.flatnonzero(structure.res_seqs[first:last] == selector.res_seq)
    if not hits.size:
        raise AtomNotFoundError(f"no atom matches {selector}: residue not present")
    r = first + hits[0]
    if structure.res_names[r] != selector.res_name:
        raise ResidueMismatchError(f"{selector}: residue {selector.res_seq} in chain {selector.chain_id}"
                                   f" is {structure.res_names[r]}, not {selector.res_name}")
    start, stop = structure.res_starts[r:r + 2]
    hits = np.flatnonzero(structure.names[start:stop] == selector.atom_name)
    if not hits.size:
        raise AtomNotFoundError(f"no atom matches {selector}: atom not present in residue")
    return int(start + hits[0])


def _infer_element(name: str) -> str:
    stripped = re.sub(r"[^A-Za-z]", "", name)
    return stripped[0].upper() if stripped else "X"


def _codes(text: str) -> np.ndarray:
    """The text's code points: one byte each when all are ASCII, else one uint32 each."""
    if text.isascii():
        return np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    return np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype="<u4")


def _text(codes: np.ndarray) -> str:
    """The text of a block of code points, row after row."""
    if codes.dtype == np.uint8:
        return codes.tobytes().decode("ascii")
    return codes.astype("<u4").tobytes().decode("utf-32-le", "surrogatepass")


# The coordinate record, one field per row, in the order the writer checks
# the fields: the first four are those of a TER record too.  A field is
# columns start + 1 to stop, of kind "int", "fixed" (fraction_digits after
# the point) or "text".  A blank number reads as ``blank``, or is a fault
# when that is None.  A text is read as str.strip() leaves it and padded
# on the right ("<") or left (">"); with ``justify`` "" it is read as it
# is and must fill the field.  ``what`` names the field in parse errors and
# ``fault`` in write errors.  The insertion code is read only to refuse it.
Field = namedtuple("Field", "name start stop kind fraction_digits blank justify what fault")
RECORD = tuple(Field(*row) for row in (
    ("serial", 6, 11, "int", 0, None, ">", "serial", "serial"),
    ("chain", 21, 22, "text", 0, " ", "", "chain id", "chain id"),
    ("res_seq", 22, 26, "int", 0, None, ">", "residue number", "residue number"),
    ("res_name", 17, 20, "text", 0, "", ">", "residue name", "residue name"),
    ("name", 12, 16, "text", 0, "", "<", "atom name", "atom name"),
    ("alt_loc", 16, 17, "text", 0, "", "<", "alternate location", "alternate location"),
    ("element", 76, 78, "text", 0, "", ">", "element", "element"),
    ("x", 30, 38, "fixed", 3, None, ">", "x coordinate", "coordinate"),
    ("y", 38, 46, "fixed", 3, None, ">", "y coordinate", "coordinate"),
    ("z", 46, 54, "fixed", 3, None, ">", "z coordinate", "coordinate"),
    ("occupancy", 54, 60, "fixed", 2, 1.0, ">", "occupancy", "occupancy"),
    ("temp_factor", 60, 66, "fixed", 2, 0.0, ">", "temperature factor", "B-factor"),
    ("seg_id", 72, 76, "text", 0, "", "<", "segment id", "segment id"),
    ("charge", 78, 80, "text", 0, "", "<", "charge", "charge"),
    ("icode", 26, 27, "text", 0, " ", "", "insertion code", "insertion code"),
))
_FIELD = {f.name: f for f in RECORD}
_NUMBER_FIELDS = [f for f in RECORD if f.kind != "text"]
_WRITTEN = RECORD[:-1]  # the insertion code is written blank
_WIDTH = max(f.stop for f in RECORD)  # the columns the parser reads
_SHORTEST = max(f.stop for f in RECORD if f.blank is None)  # a record holds every field that cannot be blank
_PLACES = max(f.stop - f.start - bool(f.fraction_digits) for f in _NUMBER_FIELDS)  # digits of the widest number
# Byte tables of each code's class in number text (space 0, minus 1, digit
# 2, point 3, anything else 4) and of its digit value.  Codes from 127 up
# are looked up as 127, which is not number text.
_NUMBER_CLASS = bytes({32: 0, 45: 1, 46: 3}.get(c, 2 if 48 <= c < 58 else 4) for c in range(256))
_DIGIT = bytes(c - 48 if 48 <= c < 58 else 0 for c in range(256))


def _number_tables():
    """The weights that read the number fields, the signatures of canonical number text, and where digits are written.

    A cell's signature is its classes read as one base-5 number plus 5^8
    times the field's index, its value its digits read as one integer k.
    Canonical text is ``[ ]*-?d+`` filling the cell or, with d digits after
    the point, ``[ ]*-?d+.`` and d digits.  Every weighted sum is an
    integer below 10^7, which a double holds exactly.  The writer puts the
    code of each digit place, a row of ``_digit_codes``' (fields x places)
    block, into its record column, and a point into each point column.
    """
    columns, canonical, written, points = [], {}, [], []
    signature_weights, digit_weights = ([[0.0] * len(_NUMBER_FIELDS) for _ in range(_WIDTH)] for _ in range(2))
    for field, f in enumerate(_NUMBER_FIELDS):
        width, fraction_digits = f.stop - f.start, f.fraction_digits
        whole = width - fraction_digits - 1 if fraction_digits else width
        for place in range(width):
            signature_weights[len(columns) + place][field] = 5.0 ** (width - 1 - place)
        for power, place in enumerate(place for place in reversed(range(width)) if place != whole):
            digit_weights[len(columns) + place][field] = 10.0**power
            written.append((f.start + place, (field + 1) * _PLACES - 1 - power))
        columns += range(f.start, f.stop)
        points += [f.start + whole] * bool(fraction_digits)
        for minus in (0, 1):
            for digits in range(1, whole + 1 - minus):
                classes = [0] * (whole - minus - digits) + [1] * minus + [2] * digits
                classes += ([3] + [2] * fraction_digits) * bool(fraction_digits)
                canonical[sum(5.0 ** (width - 1 - j) * c for j, c in enumerate(classes)) + field * 5.0**8] = minus
    signatures = sorted(canonical)
    return (np.array(columns), np.array(signature_weights[:len(columns)]), np.array(digit_weights[:len(columns)]),
            np.array(signatures), np.array([canonical[s] for s in signatures], dtype=bool), *np.array(written).T,
            points)


(_NUMBER_COLUMNS, _SIGNATURE_WEIGHTS, _DIGIT_WEIGHTS, _CANONICAL, _NEGATIVE, _DIGIT_COLUMNS, _DIGIT_ROWS,
 _POINT_COLUMNS) = _number_tables()
# By field, as columns: the signature of a blank cell, whether the field
# has a default, the default, the width and the digits after the point.
_BLANK = np.array([[field * 5.0**8] for field in range(len(_NUMBER_FIELDS))])
_HAS_DEFAULT = np.array([[f.blank is not None] for f in _NUMBER_FIELDS])
_DEFAULTS = np.array([[f.blank or 0.0] for f in _NUMBER_FIELDS])
_NUMBER_WIDTHS = np.array([[f.stop - f.start] for f in _NUMBER_FIELDS])
_FRACTION_DIGITS = np.array([[f.fraction_digits] for f in _NUMBER_FIELDS])


def _number(text: str, fraction_digits: int, default: float | None):
    """One cell that is not canonical number text, through Python's int() or float()."""
    if default is not None and text.isspace():
        return default
    return float(text) if fraction_digits else int(text)


def _numbers(grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The number fields of every record, as (fields, records) values and a mask of the cells that do not parse.

    Canonical text is decoded by digit arithmetic: k / 10^d is the
    correctly rounded double, which is what float() gives.  A blank
    occupancy or B-factor takes its default; every other cell goes
    through ``_number`` on its own.
    """
    codes = grid[:, _NUMBER_COLUMNS]
    if codes.dtype != np.uint8:
        codes = np.minimum(codes, 127).astype(np.uint8)
    codes = codes.tobytes()
    classes, digits = (np.frombuffer(codes.translate(table), dtype=np.uint8).reshape(-1, len(_NUMBER_COLUMNS)).T
                       for table in (_NUMBER_CLASS, _DIGIT))
    signature = _SIGNATURE_WEIGHTS.T @ classes + _BLANK
    at = np.minimum(np.searchsorted(_CANONICAL, signature), len(_CANONICAL) - 1)
    k = _DIGIT_WEIGHTS.T @ digits
    blank = (signature == _BLANK) & _HAS_DEFAULT
    values = np.where(blank, _DEFAULTS, np.where(_NEGATIVE[at], -k, k) / 10.0**_FRACTION_DIGITS)
    bad = np.zeros(values.shape, dtype=bool)
    for f, r in zip(*np.nonzero((_CANONICAL[at] != signature) & ~blank)):
        field = _NUMBER_FIELDS[f]
        try:
            values[f, r] = _number(_text(grid[r, field.start:field.stop]), field.fraction_digits, field.blank)
        except ValueError:
            bad[f, r] = True
    return values, bad


def _texts(grid: np.ndarray, field: Field) -> np.ndarray:
    """One field of every row as str.strip() leaves it, for rows with no NUL (a NumPy string drops trailing NULs)."""
    if not grid[:, field.start:field.stop].tobytes().strip():  # ASCII whitespace in every row: skip the costly strip
        return np.full(len(grid), "")
    block = np.ascontiguousarray(grid[:, field.start:field.stop], dtype="<u4")
    return np.char.strip(block.view(f"U{field.stop - field.start}")[:, 0])


def decode_pdb(data: bytes) -> str:
    """The text of a PDB file's bytes, read as UTF-8.

    Bytes that are not UTF-8 raise PdbParseError with the number of the
    line they are on.
    """
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_number = len((data[:exc.start].decode("utf-8") + "x").splitlines())
        raise PdbParseError(f"byte 0x{data[exc.start]:02x} is not UTF-8 text ({exc.reason})", line_number) from None


def parse_pdb(text: str) -> Structure:
    """Parse PDB-format text into a Structure.

    LF and CRLF line endings are accepted.  ATOM/HETATM lines become atoms,
    TER and ENDMDL close the current chain, END terminates the file (blank
    lines after it are ignored), MODEL opens the one model (a second is a
    fault), and every other line is preserved verbatim as a header.  The
    coordinate records are read as one (records x 80) array of code
    points, each line padded with spaces: a field is a column slice,
    canonical numbers are decoded by digit arithmetic, and chain and
    residue boundaries come from comparing neighbouring rows.  The error
    raised names the first faulty line and its first fault, in the order
    of the checks below.  A NUL in columns 1-80 of a coordinate record is
    a fault, since a NumPy string drops the trailing NULs that a name,
    element, segment id or charge would need to read back.
    """
    lines = text.splitlines()
    lengths = np.fromiter(map(len, lines), dtype=np.int64, count=len(lines))
    # With each CRLF made one LF, every line break is one code.
    flat = text.replace("\r\n", "\n") if "\r" in text else text
    starts = np.cumsum(lengths + 1) - lengths - 1
    codes = _codes(flat + " " * _WIDTH)
    windows = np.ndarray((len(codes) - _WIDTH + 1, _WIDTH), codes.dtype, codes, strides=2 * codes.strides)
    head = windows[starts, :6].astype("<u4")
    head[np.arange(6) >= lengths[:, None]] = 0  # past the line's end: a NumPy string ends there
    record, opening = head.view("U6")[:, 0], np.ascontiguousarray(head[:, :3]).view("U3")[:, 0]
    hetatm = record == "HETATM"
    coordinate = hetatm | (record == "ATOM  ")
    model = np.ascontiguousarray(head[:, :5]).view("U5")[:, 0] == "MODEL"
    closing = (opening == "END") | (opening == "TER")  # END, ENDMDL and TER close the open chain
    ends = (opening == "END") & (record != "ENDMDL")
    end = int(ends.argmax()) if ends.any() else len(lines)
    late = next((k for k in range(end + 1, len(lines)) if lines[k].strip()), None)
    models = np.flatnonzero(model[:end])

    records = np.flatnonzero(coordinate[:end])
    grid = windows[starts[records]]
    # Pad the short lines with spaces: a record too short for every field that cannot be blank is a fault
    # of its own, so only the columns past that and past the shortest record need it.
    sizes = lengths[records]
    low, high = max(_SHORTEST, sizes.min(initial=_WIDTH)), min(sizes.max(initial=_WIDTH), _WIDTH)
    grid[:, max(low, high):] = 32
    if low < high:
        np.copyto(grid[:, low:high], 32, where=np.arange(low, high) >= sizes[:, None])
    numbers, bad = _numbers(grid)  # serial, residue number, x, y, z, occupancy and B-factor, as RECORD orders them
    serials, seqs, coords, (occupancy, temp_factor) = numbers[0], numbers[1], numbers[2:5].T, numbers[5:]
    text = {f.name: _texts(grid, f) for f in RECORD if f.kind == "text" and f.justify}
    names, alt_locs, res_names = text["name"], text["alt_loc"], text["res_name"]

    # A chain closes at TER and when another chain's records begin; a
    # residue, when its chain does or its number changes.
    chains, closed = grid[:, _FIELD["chain"].start], np.cumsum(closing)[records]
    new_chain, new_residue = np.ones((2, len(records)), dtype=bool)
    renamed, reopened = np.zeros((2, len(records)), dtype=bool)
    new_chain[1:] = (chains[1:] != chains[:-1]) | (closed[1:] != closed[:-1])
    new_residue[1:] = new_chain[1:] | (seqs[1:] != seqs[:-1])
    renamed[1:] = ~new_residue[1:] & (res_names[1:] != res_names[:-1])
    chain_rows = np.flatnonzero(new_chain)
    chain_ids = [chr(code) for code in chains[chain_rows].tolist()]
    first_seen = {}
    reopened[[row for row, chain_id in zip(chain_rows.tolist(), chain_ids)
              if first_seen.setdefault(chain_id, row) != row][:1]] = True

    icode = grid[:, _FIELD["icode"].start]
    faults = np.array([
        sizes < _SHORTEST, ~grid.all(1) if not grid.all() else np.zeros(len(grid), dtype=bool),
        (alt_locs != "") & (alt_locs != "A"), bad.any(0), names == "", ~np.isfinite(coords).all(1),
        ~np.isfinite(numbers[5:]).all(0), serials < 1, icode != 32, reopened, renamed,
    ])
    if models.size > 1 and not (faults.any() and records[faults.any(0).argmax()] < models[1]):
        raise PdbParseError("second MODEL record; a template is one model", int(models[1]) + 1)
    if faults.any():
        row = int(faults.any(0).argmax())
        field = _NUMBER_FIELDS[bad[:, row].argmax()]
        cell = _text(grid[row, field.start:field.stop])
        name, res_name = names[row], res_names[row]
        messages = (
            "truncated coordinate record", f"NUL character in columns 1-{_WIDTH}",
            f"unsupported alternate location {str(alt_locs[row])!r}",
            # A field that may be blank is named stripped.
            f"malformed {field.what} field {(cell if field.blank is None else cell.strip())!r}", "empty atom name",
            f"atom {name}: non-finite position", f"atom {name}: non-finite occupancy or temperature factor",
            f"atom {name}: serial must be >= 1", f"{_FIELD['icode'].what} {chr(icode[row])!r} is not supported",
            f"chain {chr(chains[row])!r} reopened after TER",
            f"residue {int(seqs[row])} renamed {res_names[row - 1]} -> {res_name}",
        )
        raise PdbParseError(messages[faults[:, row].argmax()], int(records[row]) + 1)
    if late is not None:
        raise PdbParseError("content after END record", late + 1)

    residue_rows = np.flatnonzero(new_residue)
    try:
        return Structure.from_columns(
            [lines[k] for k in np.flatnonzero(~(coordinate | closing | model)[:end]).tolist()], chain_ids, names=names,
            alt_locs=alt_locs, coords=coords, occupancy=occupancy, temp_factor=temp_factor,
            elements=text["element"], hetatm=hetatm[records], seg_ids=text["seg_id"], charges=text["charge"],
            res_starts=np.concatenate([residue_rows, [len(records)]]),
            res_seqs=seqs[residue_rows].astype(np.int64), res_names=res_names[residue_rows],
            chain_starts=np.concatenate([np.cumsum(new_residue)[chain_rows] - 1, [len(residue_rows)]]),
        )
    except StructureError as exc:
        raise PdbParseError(str(exc)) from exc


def _round_half_away(values: np.ndarray, width, fraction_digits) -> tuple[np.ndarray, np.ndarray]:
    """Round to F<width>.<d> (I<width> when d is 0) as signed counts of the last digit's unit; mask what does not fit.

    With d = ``fraction_digits``, |v| rounds up from k = floor(|v| 10^d)
    exactly when |v| >= (2k + 1) / (2 10^d).  That bound, the correctly
    rounded quotient of two exact integers, is the one double whose
    shortest repr is the tie, and every other double falls on the side of
    the tie that its shortest repr does; so each field is the shortest
    repr rounded half away from zero.  The mask holds the non-finite
    values and those too wide for the field.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        fraction_digits = np.asarray(fraction_digits)
        size, scale = np.abs(values), 10.0**fraction_digits
        k = np.floor(size * scale)
        k += size >= (2 * k + 1) / (2 * scale)
        negative = (values < 0) & (k > 0)
        unfit = ~(k < 10.0 ** (np.asarray(width) - (fraction_digits > 0) - negative))
    # k == 0 is never negative here, so -0.000 is never emitted.
    return np.where(negative, -k, k), unfit


def _digit_codes(k: np.ndarray, places: int, fraction_digits) -> np.ndarray:
    """Codes of the (fields, records) integers k as (fields, places, records) right-aligned digits.

    Field f is k / 10^fraction_digits[f] without its point; each k fits, sign
    included.  Left of the units, a place is blank while every digit up to
    it is zero, and a minus sign takes the last blank place.
    """
    size, quotients = np.abs(k).astype(np.int32), np.empty((len(k), places, k.shape[1]), dtype=np.int32)
    for place in range(places):  # one division by a constant per place, which NumPy vectorizes
        np.floor_divide(size, 10 ** (places - 1 - place), out=quotients[:, place])
    codes = quotients + 48
    codes[:, 1:] -= 10 * quotients[:, :-1]
    blank = (quotients == 0) & (np.arange(places)[:, None] < places - 1 - np.asarray(fraction_digits)[:, None, None])
    sign = blank & (k < 0)[:, None, :]
    sign[:, :-1] &= ~blank[:, 1:]
    codes[blank] = 32
    codes[sign] = 45
    return codes


def write_pdb(structure: Structure) -> str:
    """Emit a Structure as PDB text with LF line endings.

    Records are numbered sequentially, each chain is closed with a TER
    record, and the file ends with END.  Every field of ``RECORD`` but the
    insertion code is written, in place: columns 1-78 of each atom record,
    and 79-80 as well when its charge is set.  A value or name that does
    not fit its columns raises PdbWriteError naming the first such atom or
    TER record and the field, and a header that would not read back as
    itself raises one naming the header.  The records are written field by
    field into one array of code points and decoded once.
    """
    s = structure
    for index, header in enumerate(s.headers):
        # A line break splits a header; a record name makes it a record.
        if header.splitlines() not in ([header], []) or header.startswith(("ATOM  ", "HETATM", "TER", "END", "MODEL")):
            raise PdbWriteError(f"header {index} {header!r} would not read back as the same header line")
    ids, n = s.chain_ids(), s.n_atoms()
    # Each chain with residues ends in a TER record, which takes one serial.
    closed = s.chain_starts[1:] > s.chain_starts[:-1]
    serials = np.arange(1, n + 1) + (np.cumsum(closed) - closed)[s.atom_chains()]
    ter_serials = (s.res_starts[s.chain_starts[1:]] + np.cumsum(closed))[closed]
    # The records are the atoms, then the TER records, which hold the first
    # four fields, of their chain's last residue.  Each field is a column
    # and the index of each record's value in it.
    chains = np.concatenate([s.atom_chains(), np.flatnonzero(closed)])
    residues = np.concatenate([s.atom_residues(), s.chain_starts[1:][closed] - 1])
    every = slice(None)
    fields = dict(serial=(np.concatenate([serials, ter_serials]), every), chain=(np.array(ids, dtype=str), chains),
                  res_seq=(s.res_seqs, residues), res_name=(s.res_names, residues), name=(s.names, every),
                  alt_loc=(s.alt_locs, every), element=(s.elements, every), x=(s.coords[:, 0], every),
                  y=(s.coords[:, 1], every), z=(s.coords[:, 2], every), occupancy=(s.occupancy, every),
                  temp_factor=(s.temp_factor, every), seg_id=(s.seg_ids, every), charge=(s.charges, every))

    # The fault table: a row per field of _WRITTEN, in order, and a column per record.
    numbers = np.zeros((len(_NUMBER_FIELDS), len(chains)))
    for row, f in zip(numbers, _NUMBER_FIELDS):
        values = fields[f.name][0][fields[f.name][1]]
        row[:len(values)] = values
    counts, unfit = _round_half_away(numbers, _NUMBER_WIDTHS, _FRACTION_DIGITS)
    faults = np.zeros((len(_WRITTEN), len(chains)), dtype=bool)
    faults[[j for j, f in enumerate(_WRITTEN) if f.kind != "text"]] = unfit
    sizes, texts = {}, []  # each text's length, and the codes of each field not blank in every record
    for j, f in enumerate(_WRITTEN):
        if f.kind == "text":
            (column, at), width = fields[f.name], f.stop - f.start
            sizes[f.name] = size = np.char.str_len(column)
            fault = (size != width if not f.justify else size > width)[at]
            faults[j, :len(fault)] = fault
            if size.any():  # NumPy 2's ljust and rjust fail on an empty array
                padded = (np.char.rjust if f.justify == ">" else np.char.ljust)(column, width).astype(f"U{width}")
                texts.append((f, padded.view("<u4").reshape(-1, width)[at]))
    if faults.any():
        faulty = np.flatnonzero(faults.any(0))
        i = int(faulty[fields["serial"][0][faulty].argmin()])  # the first faulty record in the file
        f = _WRITTEN[int(faults[:, i].argmax())]
        column, at = fields[f.name]
        code = {"int": "I", "fixed": "F", "text": "A"}[f.kind] + str(f.stop - f.start)
        code += f".{f.fraction_digits}" * (f.kind == "fixed")
        where = f"atom {atom_addresses(s, [i])[0]}" if i < n else f"TER record of chain {ids[chains[i]]}"
        problem = f"does not fit in {code}" if f.justify else "is not one character"
        raise PdbWriteError(f"{where}: {f.fault} {column[at][i].item()!r} {problem}")

    # A record ends after its element, or after its charge when it has one;
    # a TER record, after its last field.
    charge, ter_end = _FIELD["charge"], max(f.stop for f in RECORD[:4])
    ends = np.concatenate([np.where(sizes["charge"] > 0, charge.stop, charge.start), np.full(len(chains) - n, ter_end)])
    # Field by field, then transposed to records: one byte per code when all are ASCII.
    wide = max((codes.max(initial=0) for _, codes in texts), default=0) > 127
    out = np.full((_WIDTH + 1, len(chains)), 32, dtype="<u4" if wide else np.uint8)
    out[:6, :n] = np.where(s.hetatm, _codes("HETATM")[:, None], _codes("ATOM  ")[:, None])
    out[:6, n:] = _codes("TER   ")[:, None]
    digits = _digit_codes(counts, _PLACES, _FRACTION_DIGITS[:, 0])
    out[_DIGIT_COLUMNS] = digits.reshape(len(digits) * _PLACES, len(chains))[_DIGIT_ROWS]
    out[_POINT_COLUMNS] = 46
    for f, codes in texts:
        out[f.start:f.stop, :len(codes)] = codes.T
    # A name shorter than the field starts one column in when its element has one letter.
    name = out[_FIELD["name"].start:_FIELD["name"].stop, :n]
    name[:] = np.where((sizes["name"] < len(name)) & (sizes["element"] == 1), name[np.arange(len(name)) - 1], name)
    out[ends, np.arange(len(ends))] = 10
    width = ends.max(initial=charge.start) + 1
    codes = np.ascontiguousarray(out[:width].T)
    atoms, bounds = codes[:n], width * s.res_starts[s.chain_starts]
    if (ends[:n] != width - 1).any():  # lines of two lengths: cut each after its line break
        atoms, bounds = atoms[np.arange(width) <= ends[:n, None]], _starts(ends[:n] + 1)[s.res_starts[s.chain_starts]]
    records, ter_records, bounds = _text(atoms), _text(codes[n:, :ter_end + 1]), bounds.tolist()

    parts = [header + "\n" for header in s.headers]
    for k, c in enumerate(np.flatnonzero(closed).tolist()):
        parts += (records[bounds[c]:bounds[c + 1]], ter_records[k * (ter_end + 1):(k + 1) * (ter_end + 1)])
    parts.append("END\n")
    return "".join(parts)
