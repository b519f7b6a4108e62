"""Bit-exact parsing and emission of fixed-column PDB coordinate files.

ATOM/HETATM records are read with the classic column layout (1-6 record
name, 7-11 serial, 13-16 atom name, 17 altLoc, 18-20 resName, 22 chainID,
23-26 resSeq, 31-38/39-46/47-54 x/y/z as F8.3, 55-60 occupancy, 61-66
tempFactor, 77-78 element).  TER closes the current chain and END closes
the file.  Every other line is carried as an opaque header and re-emitted
verbatim ahead of the coordinates, so writing a parsed file reproduces it
byte for byte once it has passed through the writer.

Coordinates are emitted as F8.3, and occupancy and B-factor as F6.2, with
ties rounded half away from zero in the value's shortest decimal form
(``format_coordinate``).  The writer rounds all fields of a structure at
once: k = floor(|v| 10^d), plus one when the fraction is at least 0.5,
with the sign restored and -0.000 never emitted.  Below 1e4 that binary
arithmetic is within 4e-9 of the decimal value in units of the last
digit, so only values within 1e-7 of a tie, and values that do not fit,
go through ``format_coordinate``; the text is the same either way.

A ``Structure`` is a frozen value: one (N, 3) coordinate block and one
column per atom field, with residues and chains as index ranges.  Nothing
in it can be written, so the layout checked at construction always holds,
and every edit returns a new structure.  The frozen ``Atom``, ``Residue``
and ``Chain`` are its construction input and the read-only views it hands
out.  Serial numbers are not stored; the writer numbers every record.
"""

from __future__ import annotations

import math
import re
from operator import itemgetter
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal

import numpy as np

from .errors import (
    AtomNotFoundError,
    PdbParseError,
    PdbWriteError,
    ResidueMismatchError,
    SelectionError,
    StructureError,
)

_COORD_RECORDS = ("ATOM  ", "HETATM")


@dataclass(frozen=True, slots=True, eq=False)
class Atom:
    """One atom record, without the chain and residue identity its parents hold.

    ``name`` is stored with PDB column alignment stripped; the writer
    reconstructs the alignment from the element, which a structure infers
    from the name when it is blank.  ``position`` is a 3-vector in
    Angstroms.  ``serial`` is ignored on input; a view carries the number
    the writer gives its record.  Atoms are equal when all other fields are.
    """

    name: str
    alt_loc: str
    position: np.ndarray
    occupancy: float = 1.0
    temp_factor: float = 0.0
    element: str = ""
    is_hetatm: bool = False
    serial: int = 0

    def __eq__(self, other):
        if not isinstance(other, Atom):
            return NotImplemented
        fields = ("name", "alt_loc", "position", "occupancy", "temp_factor", "element", "is_hetatm")
        return all(np.array_equal(getattr(self, f), getattr(other, f)) for f in fields)

    def __repr__(self):
        x, y, z = self.position
        return f"<Atom {self.name} ({x:.3f}, {y:.3f}, {z:.3f})>"


@dataclass(frozen=True)
class Residue:
    res_seq: int
    res_name: str
    atoms: tuple[Atom, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple(self.atoms))

    def atom(self, name: str) -> Atom | None:
        return next((a for a in self.atoms if a.name == name), None)


@dataclass(frozen=True)
class Chain:
    chain_id: str
    residues: tuple[Residue, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "residues", tuple(self.residues))

    def residue(self, res_seq: int) -> Residue | None:
        return next((r for r in self.residues if r.res_seq == res_seq), None)

    def atoms(self):
        for r in self.residues:
            yield from r.atoms

    def n_atoms(self) -> int:
        return sum(len(r.atoms) for r in self.residues)

    def positions(self) -> np.ndarray:
        """All atom positions as an (N, 3) array, in record order."""
        return np.array([a.position for a in self.atoms()], dtype=np.float64).reshape(-1, 3)

    def copy(self) -> "Chain":
        """The chain itself: a frozen value needs no copy."""
        return self


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


def _atom_columns(rows: list[tuple]) -> dict:
    """Atom columns from one field tuple per atom, in ``ATOM_COLUMNS`` order."""
    return dict(zip(ATOM_COLUMNS, list(zip(*rows)) or [()] * len(ATOM_COLUMNS)))


class Structure:
    """Ordered chains plus opaque header lines, as one frozen array value.

    ``ATOM_COLUMNS`` hold the atom fields in record order, ``coords`` being
    the (N, 3) block.  Residue r holds atoms ``res_starts[r]:res_starts[r+1]``
    and has number ``res_seqs[r]`` and name ``res_names[r]``; chain c, named
    ``chain_ids()[c]``, holds residues ``chain_starts[c]:chain_starts[c+1]``.

    Construction, from ``Chain`` inputs or by ``from_columns``, checks the
    value once: finite fields, non-empty atom names, unique chain ids,
    residue numbers strictly increasing within a chain and unique atom keys.
    """

    __slots__ = ("_headers", "_chain_ids", "_atom_res", "_atom_chain", *_DTYPES)

    def __init__(self, chains=(), headers=()):
        chains = list(chains)
        residues = [r for c in chains for r in c.residues]
        self._set(headers, [c.chain_id for c in chains], dict(
            _atom_columns([(a.name, a.alt_loc, a.position, a.occupancy, a.temp_factor,
                            a.element or _infer_element(a.name), a.is_hetatm) for r in residues for a in r.atoms]),
            res_starts=_starts(len(r.atoms) for r in residues), res_seqs=[r.res_seq for r in residues],
            res_names=[r.res_name for r in residues], chain_starts=_starts(len(c.residues) for c in chains),
        ))

    @classmethod
    def from_columns(cls, headers, chain_ids, **columns) -> "Structure":
        """Structure from the columns the class docstring names."""
        structure = object.__new__(cls)
        structure._set(headers, chain_ids, columns)
        return structure

    def _set(self, headers, chain_ids, columns) -> None:
        if set(columns) != set(_DTYPES):
            raise StructureError(f"structure columns are {', '.join(_DTYPES)}, not {', '.join(columns)}")
        object.__setattr__(self, "_headers", tuple(headers))
        object.__setattr__(self, "_chain_ids", ids := tuple(chain_ids))
        for name, dtype in _DTYPES.items():
            array = np.array(columns[name], dtype=dtype).reshape((-1, 3) if name == "coords" else -1)
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        names, alt_locs, seqs, n = self.names, self.alt_locs, self.res_seqs, len(self.names)
        res_chain, atom_res = self._rows(self.chain_starts), self._rows(self.res_starts)
        if (any(len(getattr(self, k)) != n for k in ATOM_COLUMNS) or len(atom_res) != n
                or self.res_starts[:1].tolist() != [0] or len(self.res_starts) != len(seqs) + 1
                or self.chain_starts[:1].tolist() != [0] or len(ids) + 1 != len(self.chain_starts)
                or len(res_chain) != len(seqs) or len(self.res_names) != len(seqs)):
            raise StructureError("structure columns do not describe one layout")
        for name, array in (("_atom_res", atom_res), ("_atom_chain", res_chain[atom_res])):
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        finite = np.logical_and.reduce([np.isfinite(c) for c in (*self.coords.T, self.occupancy, self.temp_factor)])
        if not finite.all():
            raise StructureError(f"atom {names[~finite][0]}: non-finite position, occupancy or B-factor")
        if (names == "").any():
            raise StructureError("atom name must be non-empty")
        for k, chain_id in enumerate(ids):
            if chain_id in ids[:k]:
                raise StructureError(f"chain id {chain_id!r} is repeated in {list(ids)}")
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
    def chains(self) -> list[Chain]:
        """Read-only views of the chains, in order, as a new list."""
        return [self._chain(c) for c in range(len(self._chain_ids))]

    def chain_ids(self) -> list[str]:
        return list(self._chain_ids)

    def chain_index(self, chain_id: str) -> int:
        if chain_id not in self._chain_ids:
            raise StructureError(f"no chain {chain_id!r} (have {self.chain_ids()})")
        return self._chain_ids.index(chain_id)

    def chain(self, chain_id: str) -> Chain:
        return self._chain(self.chain_index(chain_id))

    def has_chain(self, chain_id: str) -> bool:
        return chain_id in self._chain_ids

    def atoms(self):
        """Read-only views of every atom, in record order."""
        yield from self._atoms(0, self.n_atoms())

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

    def copy(self) -> "Structure":
        """The structure itself: a frozen value needs no copy."""
        return self

    def renumber_serials(self) -> "Structure":
        """The structure itself: serials are not stored, the writer numbers every record."""
        return self

    def subset(self, chain_ids) -> "Structure":
        """New structure of the named chains, in the given order, and the headers."""
        return self.with_chains([(chain_id, chain_id) for chain_id in chain_ids])

    def with_chains(self, chains, coords=None) -> "Structure":
        """New structure of copies of this one's chains, by (new id, source id), and the headers.

        ``coords``, when given, replaces the gathered atoms' (N, 3) block.
        """
        index = np.array([self.chain_index(source) for _, source in chains], dtype=np.int64)
        first, last = self.chain_starts[index], self.chain_starts[index + 1]
        residues = _ranges(first, last)
        columns = {k: getattr(self, k)[_ranges(self.res_starts[first], self.res_starts[last])] for k in ATOM_COLUMNS}
        return Structure.from_columns(
            self._headers, [new_id for new_id, _ in chains], **columns | ({} if coords is None else {"coords": coords}),
            res_starts=_starts(np.diff(self.res_starts)[residues]), res_seqs=self.res_seqs[residues],
            res_names=self.res_names[residues], chain_starts=_starts(last - first),
        )

    def _atoms(self, start: int, stop: int) -> list[Atom]:
        # Each chain's TER record takes one serial, as in the writer.
        has_ter = np.diff(self.chain_starts) > 0
        serials = np.arange(start + 1, stop + 1) + (np.cumsum(has_ter) - has_ter)[self._atom_chain[start:stop]]
        fields = [getattr(self, k)[start:stop] for k in ATOM_COLUMNS] + [serials]
        return [Atom(*row) for row in zip(*(f if f.ndim > 1 else f.tolist() for f in fields))]

    def _chain(self, c: int) -> Chain:
        first, last = self.chain_starts[c:c + 2].tolist()
        starts = self.res_starts[first:last + 1].tolist()
        atoms = self._atoms(starts[0], starts[-1])
        return Chain(self._chain_ids[c], [
            Residue(seq, name, atoms[a - starts[0]:b - starts[0]])
            for seq, name, a, b in zip(self.res_seqs[first:last].tolist(), self.res_names[first:last].tolist(),
                                       starts, starts[1:])
        ])


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


def select_atom(structure: Structure, selector: AtomSelector | str) -> Atom:
    """Read-only view of the unique atom addressed by ``selector``; errors as ``atom_row``."""
    row = atom_row(structure, selector)
    return structure._atoms(row, row + 1)[0]


def _infer_element(name: str) -> str:
    stripped = re.sub(r"[^A-Za-z]", "", name)
    return stripped[0].upper() if stripped else "X"


# Columns of an ATOM/HETATM record: serial, name, altLoc, resName, chainID,
# resSeq, x, y, z, occupancy, tempFactor and element, cut in one call.
_RECORD_COLUMNS = itemgetter(
    slice(6, 11), slice(12, 16), 16, slice(17, 20), 21, slice(22, 26),
    slice(30, 38), slice(38, 46), slice(46, 54), slice(54, 60), slice(60, 66), slice(76, 78),
)
_NUMBER_COLUMNS = (
    (0, int, "serial"), (5, int, "residue number"), (6, float, "x coordinate"),
    (7, float, "y coordinate"), (8, float, "z coordinate"), (9, float, "occupancy"),
    (10, float, "temperature factor"),
)


def _malformed(columns, line_number: int) -> PdbParseError:
    """The error for the first number column, in record order, that does not parse."""
    for index, kind, what in _NUMBER_COLUMNS:
        # A blank occupancy or B-factor takes its default.
        text = columns[index].strip() if index >= 9 else columns[index]
        try:
            if text:
                kind(text)
        except ValueError:
            return PdbParseError(f"malformed {what} field {text!r}", line_number)
    raise AssertionError("every number column parses")


def parse_pdb(text: str) -> Structure:
    """Parse PDB-format text into a Structure.

    LF and CRLF line endings are accepted.  ATOM/HETATM lines become atoms,
    TER closes the current chain, END terminates the file, and every other
    line is preserved verbatim as a header.  The columns are collected
    record by record and the structure is built from them once.
    """
    headers: list[str] = []
    atoms: list[tuple] = []
    res_starts, res_seqs, res_names = [], [], []
    chain_ids, chain_starts = [], []
    open_chain: str | None = None
    ended = False

    for line_number, line in enumerate(text.splitlines(), start=1):
        record = line[:6]
        if ended and line.strip():
            raise PdbParseError("content after END record", line_number)
        if record in _COORD_RECORDS:
            padded = line.ljust(80)
            if len(line) < 54:
                raise PdbParseError("truncated coordinate record", line_number)
            columns = _RECORD_COLUMNS(padded)
            alt_loc = columns[2].strip()
            if alt_loc not in ("", "A"):
                raise PdbParseError(f"unsupported alternate location {alt_loc!r}", line_number)
            try:
                serial, res_seq = int(columns[0]), int(columns[5])
                x, y, z = float(columns[6]), float(columns[7]), float(columns[8])
                occupancy = 1.0 if columns[9].isspace() else float(columns[9])
                temp_factor = 0.0 if columns[10].isspace() else float(columns[10])
            except ValueError:
                raise _malformed(columns, line_number) from None
            name, res_name, chain_id, element = (
                columns[1].strip(), columns[3].strip(), columns[4], columns[11].strip()
            )
            if not name:
                raise PdbParseError("empty atom name", line_number)
            if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
                raise PdbParseError(f"atom {name}: non-finite position", line_number)
            if not (math.isfinite(occupancy) and math.isfinite(temp_factor)):
                raise PdbParseError(f"atom {name}: non-finite occupancy or temperature factor", line_number)
            if serial < 1:
                raise PdbParseError(f"atom {name}: serial must be >= 1", line_number)

            # A chain closes at TER and when another chain's records begin.
            if chain_id != open_chain:
                if chain_id in chain_ids:
                    raise PdbParseError(f"chain {chain_id!r} reopened after TER", line_number)
                open_chain = chain_id
                chain_ids.append(chain_id)
                chain_starts.append(len(res_seqs))
            if len(res_seqs) > chain_starts[-1] and res_seqs[-1] == res_seq:
                if res_names[-1] != res_name:
                    raise PdbParseError(
                        f"residue {res_seq} renamed {res_names[-1]} -> {res_name}", line_number
                    )
            else:
                res_starts.append(len(atoms))
                res_seqs.append(res_seq)
                res_names.append(res_name)
            atoms.append((name, alt_loc, (x, y, z), occupancy, temp_factor, element or _infer_element(name),
                          record == "HETATM"))
        elif record.startswith(("TER", "END")):
            open_chain = None
            ended = record.startswith("END")
        else:
            headers.append(line)

    try:
        return Structure.from_columns(
            headers, chain_ids, **_atom_columns(atoms), res_starts=res_starts + [len(atoms)], res_seqs=res_seqs,
            res_names=res_names, chain_starts=chain_starts + [len(res_seqs)],
        )
    except StructureError as exc:
        raise PdbParseError(str(exc)) from exc


def format_coordinate(value: float, width: int = 8, decimals: int = 3, field: str = "coordinate") -> str:
    """Fixed-width decimal field with ties rounded half away from zero.

    The value is quantized through its shortest decimal representation so
    that e.g. 4.7765 rounds to 4.777 regardless of binary representation.
    ``field`` names the value in the PdbWriteError raised when it does not fit.
    """
    value = float(value)  # so a message prints -1000.0, not np.float64(-1000.0)
    if not np.isfinite(value):
        raise PdbWriteError(f"non-finite {field} {value!r}")
    misfit = PdbWriteError(f"{field} {value!r} does not fit in F{width}.{decimals}")
    # Checked before quantizing, which overflows Decimal's 28-digit context
    # near 1e26; a value of 10**width or more never fits in ``width`` columns.
    if abs(value) >= 10.0**width:
        raise misfit
    quantum = Decimal(1).scaleb(-decimals)
    q = Decimal(repr(value)).quantize(quantum, rounding=ROUND_HALF_UP)
    if q == 0:
        q = abs(q)
    out = f"{q:.{decimals}f}"
    if len(out) > width:
        raise misfit
    return out.rjust(width)


def _round_half_away(values: np.ndarray, width, decimals) -> tuple[np.ndarray, np.ndarray]:
    """Round to F<width>.<decimals> in bulk; mask the values ``format_coordinate`` must settle."""
    scale = 10.0**decimals
    with np.errstate(invalid="ignore", over="ignore"):
        scaled = np.abs(values) * scale
        k = np.floor(scaled)
        frac = scaled - k
        k += frac >= 0.5
        negative = (values < 0) & (k > 0)
        limit = np.where(negative, 10.0 ** (width - 2), 10.0 ** (width - 1))
        settled = (np.abs(frac - 0.5) >= 1e-7) & (k < limit)
    # k == 0 is never negative here, so -0.000 is never emitted.
    return np.where(negative, -k, k) / scale, ~settled


def _checked_fields(structure: Structure, row: int, address: str, misfit: str | None) -> list[float]:
    """One atom's five fields through ``format_coordinate``; a PdbWriteError names the atom."""
    if misfit:
        raise PdbWriteError(f"atom {address}: {misfit}")
    values = [*structure.coords[row].tolist(), float(structure.occupancy[row]), float(structure.temp_factor[row])]
    columns = zip(values, (8, 8, 8, 6, 6), (3, 3, 3, 2, 2), ("coordinate",) * 3 + ("occupancy", "B-factor"))
    try:
        return [float(format_coordinate(*column)) for column in columns]
    except PdbWriteError as exc:
        raise PdbWriteError(f"atom {address}: {exc}") from None


def _misfit(serial, chain_id, res_seq, res_name, name="", alt_loc="", element="") -> str | None:
    """Describe the first text or integer field that does not fit its columns."""
    if serial > 99999:
        return f"serial {serial} does not fit in I5"
    if len(chain_id) != 1:
        return f"chain id {chain_id!r} is not one character"
    if not -999 <= res_seq <= 9999:
        return f"residue number {res_seq} does not fit in I4"
    if len(res_name) > 3:
        return f"residue name {res_name!r} does not fit in A3"
    if len(name) > 4:
        return f"atom name {name!r} does not fit in A4"
    if len(alt_loc) > 1:
        return f"alternate location {alt_loc!r} does not fit in A1"
    if len(element) > 2:
        return f"element {element!r} does not fit in A2"
    return None


def _aligned_name(name: str, element: str) -> str:
    # One-letter elements start in column 14, longer names fill from column 13.
    if len(name) == 4:
        return name
    if len(element) == 1:
        return f" {name:<3}"
    return f"{name:<4}"


def write_pdb(structure: Structure) -> str:
    """Emit a Structure as PDB text with LF line endings.

    Records are numbered sequentially, each chain is closed with a TER
    record, and the file ends with END.  Coordinates use F8.3 fields; a
    value or name that does not fit its columns raises PdbWriteError
    naming the first such atom in record order.  The columns are read
    directly, one list per column.
    """
    s = structure
    # x, y, z as F8.3, then occupancy and B-factor as F6.2.
    rounded, unsettled = _round_half_away(
        np.column_stack([s.coords, s.occupancy, s.temp_factor]),
        np.array([8, 8, 8, 6, 6]), np.array([3, 3, 3, 2, 2]),
    )
    fields = rounded.tolist()
    unsettled = np.logical_or.reduce(list(unsettled.T)).tolist()  # column-wise: any(axis=1) is slower
    names, alt_locs, elements = s.names.tolist(), s.alt_locs.tolist(), s.elements.tolist()
    records = np.where(s.hetatm, "HETATM", "ATOM  ").tolist()
    res_starts, res_seqs, res_names = s.res_starts.tolist(), s.res_seqs.tolist(), s.res_names.tolist()
    chain_starts = s.chain_starts.tolist()

    lines: list[str] = s.headers
    serial = 1
    for c, chain_id in enumerate(s.chain_ids()):
        first, last = chain_starts[c], chain_starts[c + 1]
        for r in range(first, last):
            res_seq, res_name = res_seqs[r], res_names[r]
            for i in range(res_starts[r], res_starts[r + 1]):
                name, alt_loc, element = names[i], alt_locs[i], elements[i]
                misfit = _misfit(serial, chain_id, res_seq, res_name, name, alt_loc, element)
                if misfit or unsettled[i]:
                    fields[i] = _checked_fields(s, i, f"{chain_id}.{res_name}{res_seq}.{name}", misfit)
                # %-formatting skips the per-field __format__ call of an f-string.
                lines.append("%s%5d %s%s%3s %s%4d    %8.3f%8.3f%8.3f%6.2f%6.2f          %2s" % (
                    records[i], serial, _aligned_name(name, element), alt_loc or " ", res_name,
                    chain_id, res_seq, *fields[i], element,
                ))
                serial += 1
        if last > first:
            res_seq, res_name = res_seqs[last - 1], res_names[last - 1]
            misfit = _misfit(serial, chain_id, res_seq, res_name)
            if misfit:
                raise PdbWriteError(f"TER record of chain {chain_id}: {misfit}")
            lines.append(f"TER   {serial:5d}      {res_name:>3} {chain_id}{res_seq:4d}")
            serial += 1
    lines.append("END")
    return "\n".join(lines) + "\n"
