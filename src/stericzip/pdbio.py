"""Bit-exact parsing and emission of fixed-column PDB coordinate files.

ATOM/HETATM records are read with the classic column layout (1-6 record
name, 7-11 serial, 13-16 atom name, 17 altLoc, 18-20 resName, 22 chainID,
23-26 resSeq, 27 iCode (blank), 31-38/39-46/47-54 x/y/z as F8.3, 55-60
occupancy, 61-66 tempFactor, 77-78 element).  TER closes the current
chain and END closes the file; only blank lines may follow it, and they
are dropped.  MODEL and ENDMDL bound the one model a template holds:
ENDMDL closes the chain as TER does, and a second MODEL is a fault.
Every other line before END is carried as an opaque header and
re-emitted verbatim ahead of the coordinates, so writing a parsed file
reproduces it byte for byte once it has passed through the writer; the
writer refuses a header that would read back as something else.

Both directions work on columns, not record by record.  The parser cuts
the coordinate records into one array of code points, a row of columns
1-78 per record, and takes every field as a column slice.  Canonical number text is decoded by
digit arithmetic, which gives what int() and float() give; any other cell
goes through int() or float() on its own.  Chain and residue boundaries
come from comparing neighbouring rows and the positions of TER and END.
A file with faults raises the error of its lowest faulty line, and of
that line's first fault in the order the checks are listed.

Coordinates are emitted as F8.3, and occupancy and B-factor as F6.2, with
ties rounded half away from zero in the value's shortest repr.  The
writer rounds all fields of a structure at once, and exactly: with d
digits after the point, |v| rounds up from k = floor(|v| 10^d) when
|v| >= (2k + 1) / (2 10^d), a bound that is the one double whose
shortest repr is the tie itself.  The serials, residue numbers and
rounded fields are written as digit codes into one code array of the
atom records, decoded to text once; a value or name that does not fit is
found in one table of every record's faults, in record order.

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
from dataclasses import dataclass
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .errors import (
    AtomNotFoundError,
    PdbParseError,
    PdbWriteError,
    ResidueMismatchError,
    SelectionError,
    StructureError,
)


class Atom(NamedTuple):
    """Read-only view of one atom record: its ``ATOM_COLUMNS`` fields and the serial the writer gives it."""

    name: str
    alt_loc: str
    position: np.ndarray
    occupancy: float
    temp_factor: float
    element: str
    is_hetatm: bool
    serial: int


# A structure's columns and their dtypes: the atom fields in the order of
# Atom's, then the residue rows and the chains' residue ranges.
ATOM_COLUMNS = ("names", "alt_locs", "coords", "occupancy", "temp_factor", "elements", "hetatm")
_DTYPES = dict(zip(ATOM_COLUMNS + ("res_starts", "res_seqs", "res_names", "chain_starts"),
                   (str, str, np.float64, np.float64, np.float64, str, bool, np.int64, np.int64, str, np.int64)))


def _starts(counts) -> np.ndarray:
    """Boundaries 0, c0, c0 + c1, ... of consecutive blocks of the given sizes."""
    return np.concatenate([[0], np.cumsum(np.fromiter(counts, dtype=np.int64))])


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
    and unique atom keys.  A blank element, which is what blank columns
    77-78 of a record read as, is inferred from the atom name.  A structure
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
            raise SelectionError(
                f"malformed atom selector {text!r}; expected CHAIN.RESNAMESEQ.ATOM"
            )
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
        raise ResidueMismatchError(
            f"{selector}: residue {selector.res_seq} in chain {selector.chain_id}"
            f" is {structure.res_names[r]}, not {selector.res_name}"
        )
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


# The number fields of a coordinate record, in the order their faults are
# checked: columns, digits after the point, the value of a blank field
# (None: a fault) and the field's name in errors.
_NUMBER_FIELDS = (
    (6, 11, 0, None, "serial"), (22, 26, 0, None, "residue number"), (30, 38, 3, None, "x coordinate"),
    (38, 46, 3, None, "y coordinate"), (46, 54, 3, None, "z coordinate"), (54, 60, 2, 1.0, "occupancy"),
    (60, 66, 2, 0.0, "temperature factor"),
)
# Byte tables of each code's class in number text (space 0, minus 1, digit
# 2, point 3, anything else 4) and of its digit value.  Codes from 127 up
# are looked up as 127, which is not number text.
_NUMBER_CLASS = bytes({32: 0, 45: 1, 46: 3}.get(c, 2 if 48 <= c < 58 else 4) for c in range(256))
_DIGIT = bytes(c - 48 if 48 <= c < 58 else 0 for c in range(256))


def _number_tables():
    """The weights that read the number fields, and the signatures of canonical number text.

    A cell's signature is its classes read as one base-5 number plus 5^8
    times the field's index, its value its digits read as one integer k.
    Canonical text is ``[ ]*-?d+`` filling the cell or, with d digits after
    the point, ``[ ]*-?d+.`` and d digits.  Every weighted sum is an
    integer below 10^7, which a double holds exactly.
    """
    columns, canonical = [], {}
    signature_weights, digit_weights = ([[0.0] * len(_NUMBER_FIELDS) for _ in range(45)] for _ in range(2))
    for field, (start, stop, fraction_digits, _, _) in enumerate(_NUMBER_FIELDS):
        width = stop - start
        whole = width - fraction_digits - 1 if fraction_digits else width
        for place in range(width):
            signature_weights[len(columns) + place][field] = 5.0 ** (width - 1 - place)
        for power, place in enumerate(place for place in reversed(range(width)) if place != whole):
            digit_weights[len(columns) + place][field] = 10.0**power
        columns += range(start, stop)
        for minus in (0, 1):
            for digits in range(1, whole + 1 - minus):
                classes = [0] * (whole - minus - digits) + [1] * minus + [2] * digits
                classes += ([3] + [2] * fraction_digits) * bool(fraction_digits)
                canonical[sum(5.0 ** (width - 1 - j) * c for j, c in enumerate(classes)) + field * 5.0**8] = minus
    signatures = sorted(canonical)
    return (np.array(columns), np.array(signature_weights), np.array(digit_weights), np.array(signatures),
            np.array([canonical[s] for s in signatures], dtype=bool))


_NUMBER_COLUMNS, _SIGNATURE_WEIGHTS, _DIGIT_WEIGHTS, _CANONICAL, _NEGATIVE = _number_tables()
# By field, as columns: the signature of a blank cell, whether the field
# has a default, the default and the divisor of k.
_BLANK = np.array([[field * 5.0**8] for field in range(len(_NUMBER_FIELDS))])
_HAS_DEFAULT = np.array([[f[3] is not None] for f in _NUMBER_FIELDS])
_DEFAULTS = np.array([[f[3] or 0.0] for f in _NUMBER_FIELDS])
_SCALES = np.array([[10.0 ** f[2]] for f in _NUMBER_FIELDS])


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
    values = np.where(blank, _DEFAULTS, np.where(_NEGATIVE[at], -k, k) / _SCALES)
    bad = np.zeros(values.shape, dtype=bool)
    for f, r in zip(*np.nonzero((_CANONICAL[at] != signature) & ~blank)):
        start, stop, fraction_digits, default, _ = _NUMBER_FIELDS[f]
        try:
            values[f, r] = _number(_text(grid[r, start:stop]), fraction_digits, default)
        except ValueError:
            bad[f, r] = True
    return values, bad


def _texts(grid: np.ndarray, start: int, stop: int) -> np.ndarray:
    """The text of columns start:stop of every row, as str.strip() leaves it, for the rows that hold no NUL.

    A NumPy string drops trailing NULs, which str.strip() keeps.
    """
    block = np.ascontiguousarray(grid[:, start:stop], dtype="<u4")
    return np.char.strip(block.view(f"U{stop - start}")[:, 0])


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
    coordinate records are read as one (records x 78) array of code
    points, each line padded with spaces: a field is a column slice,
    canonical numbers are decoded by digit arithmetic, and chain and
    residue boundaries come from comparing neighbouring rows.  The error
    raised names the first faulty line and its first fault, in the order
    of the checks below.  A NUL in columns 1-78 of a coordinate record is
    a fault, since a NumPy string drops the trailing NULs that a name or
    element would need to read back.
    """
    lines = text.splitlines()
    lengths = np.fromiter(map(len, lines), dtype=np.int64, count=len(lines))
    # With each CRLF made one LF, every line break is one code.
    flat = text.replace("\r\n", "\n") if "\r" in text else text
    starts = np.cumsum(lengths + 1) - lengths - 1
    codes = _codes(flat + " " * 78)
    windows = np.ndarray((len(codes) - 77, 78), codes.dtype, codes, strides=2 * codes.strides)  # row k: codes k to k+77
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
    # Pad the short lines with spaces.  A record shorter than 54 columns is
    # a fault of its own, so only the later columns need it.
    short = np.flatnonzero(lengths[records] < 78)
    grid[short, 54:] = np.where(np.arange(54, 78) < lengths[records[short], None], grid[short, 54:], 32)
    numbers, bad = _numbers(grid)
    serials, seqs, coords, extras = numbers[0], numbers[1], numbers[2:5], numbers[5:]
    names, alt_locs, res_names, elements = (
        _texts(grid, start, stop) for start, stop in ((12, 16), (16, 17), (17, 20), (76, 78))
    )

    # A chain closes at TER and when another chain's records begin; a
    # residue, when its chain does or its number changes.
    chains, closed = grid[:, 21], np.cumsum(closing)[records]
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

    faults = np.array([
        lengths[records] < 54, (grid == 0).any(1), (alt_locs != "") & (alt_locs != "A"), bad.any(0), names == "",
        ~np.isfinite(coords).all(0), ~np.isfinite(extras).all(0), serials < 1, grid[:, 26] != 32, reopened, renamed,
    ])
    if models.size > 1 and not (faults.any() and records[faults.any(0).argmax()] < models[1]):
        raise PdbParseError("second MODEL record; a template is one model", int(models[1]) + 1)
    if faults.any():
        row = int(faults.any(0).argmax())
        start, stop, _, _, what = _NUMBER_FIELDS[bad[:, row].argmax()]
        cell = _text(grid[row, start:stop])
        name, res_name = names[row], res_names[row]
        messages = (
            "truncated coordinate record", "NUL character in columns 1-78",
            f"unsupported alternate location {str(alt_locs[row])!r}",
            # A blank occupancy or B-factor takes its default.
            f"malformed {what} field {(cell.strip() if start >= 54 else cell)!r}", "empty atom name",
            f"atom {name}: non-finite position", f"atom {name}: non-finite occupancy or temperature factor",
            f"atom {name}: serial must be >= 1", f"insertion code {chr(grid[row, 26])!r} is not supported",
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
            alt_locs=alt_locs, coords=coords.T, occupancy=extras[0], temp_factor=extras[1],
            elements=elements, hetatm=hetatm[records], res_starts=np.concatenate([residue_rows, [len(records)]]),
            res_seqs=seqs[residue_rows].astype(np.int64), res_names=res_names[residue_rows],
            chain_starts=np.concatenate([np.cumsum(new_residue)[chain_rows] - 1, [len(residue_rows)]]),
        )
    except StructureError as exc:
        raise PdbParseError(str(exc)) from exc


def _round_half_away(values: np.ndarray, width, fraction_digits) -> tuple[np.ndarray, np.ndarray]:
    """Round to F<width>.<d> as signed counts of the last digit's unit, and mask what does not fit.

    With d = ``fraction_digits``, |v| rounds up from k = floor(|v| 10^d)
    exactly when |v| >= (2k + 1) / (2 10^d).  That bound, the correctly
    rounded quotient of two exact integers, is the one double whose
    shortest repr is the tie, and every other double falls on the side of
    the tie that its shortest repr does; so each field is the shortest
    repr rounded half away from zero.  The mask holds the non-finite
    values and those too wide for the field.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        size, scale = np.abs(values), 10.0 ** np.asarray(fraction_digits)
        k = np.floor(size * scale)
        k += size >= (2 * k + 1) / (2 * scale)
        negative = (values < 0) & (k > 0)
        unfit = ~(k < 10.0 ** (np.asarray(width) - 1 - negative))
    # k == 0 is never negative here, so -0.000 is never emitted.
    return np.where(negative, -k, k), unfit


# A record's faults in the order they are checked, each a text for its
# value: the first four for every record, the rest for atom records.
_FAULTS = (
    "serial {} does not fit in I5", "chain id {!r} is not one character", "residue number {} does not fit in I4",
    "residue name {!r} does not fit in A3", "atom name {!r} does not fit in A4",
    "alternate location {!r} does not fit in A1", "element {!r} does not fit in A2",
    *["coordinate {!r} does not fit in F8.3"] * 3, "occupancy {!r} does not fit in F6.2",
    "B-factor {!r} does not fit in F6.2",
)


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


def _justified(justify, texts: np.ndarray, width: int) -> np.ndarray:
    """Codes of each text padded with spaces to ``width`` by ``np.char.ljust`` or ``rjust``; each text fits."""
    if not texts.size:  # NumPy 2's ljust and rjust fail on an empty array
        return np.zeros((0, width), dtype="<u4")
    return justify(texts, width).astype(f"U{width}").view("<u4").reshape(-1, width)


def write_pdb(structure: Structure) -> str:
    """Emit a Structure as PDB text with LF line endings.

    Records are numbered sequentially, each chain is closed with a TER
    record, and the file ends with END.  Coordinates use F8.3 fields; a
    value or name that does not fit its columns raises PdbWriteError
    naming the first such atom or TER record, and a header that would not
    read back as itself raises one naming the header.  The atom records
    are written field by field into one array of code points, a line of
    79 per atom with numbers as digit codes, and decoded once; the headers
    and one TER line per chain are joined around them.
    """
    s = structure
    headers = s.headers
    for index, header in enumerate(headers):
        # A line break splits a header; a record name makes it a record.
        if header.splitlines() not in ([header], []) or header.startswith(("ATOM  ", "HETATM", "TER", "END", "MODEL")):
            raise PdbWriteError(f"header {index} {header!r} would not read back as the same header line")
    ids, atom_chain, atom_res = s.chain_ids(), s.atom_chains(), s.atom_residues()
    # Each chain with residues ends in a TER record, which takes one serial.
    closed = s.chain_starts[1:] > s.chain_starts[:-1]
    serials = np.arange(1, s.n_atoms() + 1) + (np.cumsum(closed) - closed)[atom_chain]
    ter_serials = s.res_starts[s.chain_starts[1:]] + np.cumsum(closed)
    last_residues = s.chain_starts[1:] - 1

    # x, y, z as F8.3, then occupancy and B-factor as F6.2.
    values = np.column_stack([s.coords, s.occupancy, s.temp_factor])
    fields, unfit = _round_half_away(values, np.array([8, 8, 8, 6, 6]), np.array([3, 3, 3, 2, 2]))
    # The fault table: a row per record in record order (its serial less
    # one) and a column per fault in _FAULTS; a TER record has the first four.
    length = np.char.str_len
    rows = np.concatenate([serials, ter_serials[closed]]) - 1
    chains = np.concatenate([atom_chain, np.flatnonzero(closed)])
    residues = np.concatenate([atom_res, last_residues[closed]])
    faults = np.zeros((len(rows), len(_FAULTS)), dtype=bool)
    faults[rows, :4] = np.column_stack([
        rows >= 99999, np.array([len(chain_id) != 1 for chain_id in ids], dtype=bool)[chains],
        ((s.res_seqs < -999) | (s.res_seqs > 9999))[residues], (length(s.res_names) > 3)[residues],
    ])
    faults[serials - 1, 4:] = np.column_stack([
        length(s.names) > 4, length(s.alt_locs) > 1, length(s.elements) > 2, unfit,
    ])
    if faults.any():
        row = int(faults.any(1).argmax())
        i = int(np.flatnonzero(rows == row)[0])
        c, res_seq, res_name = ids[chains[i]], int(s.res_seqs[residues[i]]), str(s.res_names[residues[i]])
        cells, where = (row + 1, c, res_seq, res_name), f"TER record of chain {c}"
        if i < s.n_atoms():
            cells += (str(s.names[i]), str(s.alt_locs[i]), str(s.elements[i]), *values[i].tolist())
            where = f"atom {atom_addresses(s, [i])[0]}"
        column = int(faults[row].argmax())
        raise PdbWriteError(f"{where}: {_FAULTS[column].format(cells[column])}")

    names, alt_locs = _justified(np.char.ljust, s.names, 4), _justified(np.char.ljust, s.alt_locs, 1)
    res_names, elements = _justified(np.char.rjust, s.res_names, 3), _justified(np.char.rjust, s.elements, 2)
    chain_ids = np.array([ord(chain_id[:1] or " ") for chain_id in ids], dtype=np.int64)  # one character where written
    # One-letter elements start in column 14, longer names fill from column 13.
    shifted = (length(s.names) < 4) & (length(s.elements) == 1)
    names = np.where(shifted[:, None], names[:, [3, 0, 1, 2]], names)  # the fourth column is blank
    texts = (names, alt_locs, elements, res_names, chain_ids)
    # Column by column, then transposed to records: one byte per code when all are ASCII.
    out = np.full((79, s.n_atoms()), 32, dtype="<u4" if max(t.max(initial=0) for t in texts) > 127 else np.uint8)
    out[:6] = np.where(s.hetatm, _codes("HETATM")[:, None], _codes("ATOM  ")[:, None])
    out[12:16], out[16:17], out[17:20], out[21] = names.T, alt_locs.T, res_names.T[:, atom_res], chain_ids[atom_chain]
    out[76:78], out[78] = elements.T, 10
    # Seven places hold I5, I4 and F8.3 and, in their last five, F6.2; the point goes in after.
    digits = _digit_codes(np.vstack([serials, s.res_seqs[atom_res], fields.T]), 7, [0, 0, 3, 3, 3, 2, 2])
    out[6:11], out[22:26] = digits[0, 2:], digits[1, 3:]
    xyz, extras = out[30:54].reshape(3, 8, -1), out[54:66].reshape(2, 6, -1)
    xyz[:, :4], xyz[:, 4], xyz[:, 5:] = digits[2:5, :4], 46, digits[2:5, 4:]
    extras[:, :3], extras[:, 3], extras[:, 4:] = digits[5:, 2:5], 46, digits[5:, 5:]
    records = _text(np.ascontiguousarray(out.T))

    parts = [header + "\n" for header in headers]
    bounds = (79 * s.res_starts[s.chain_starts]).tolist()
    for c, r in enumerate(last_residues.tolist()):
        if closed[c]:
            parts += (records[bounds[c]:bounds[c + 1]],
                      f"TER   {ter_serials[c]:5d}      {s.res_names[r]:>3} {ids[c]}{s.res_seqs[r]:4d}\n")
    parts.append("END\n")
    return "".join(parts)
