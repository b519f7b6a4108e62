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
Parsing and writing are pure functions; structures are plain values and
should be copied before mutation.
"""

from __future__ import annotations

import math
import re
from operator import itemgetter
from dataclasses import dataclass, field
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


@dataclass(eq=False, slots=True)
class Atom:
    """One atom record.

    ``name`` is stored with PDB column alignment stripped; the writer
    reconstructs the alignment from the element.  ``position`` is a
    float64 vector in Angstroms.
    """

    serial: int
    name: str
    alt_loc: str
    res_name: str
    chain_id: str
    res_seq: int
    position: np.ndarray
    occupancy: float = 1.0
    temp_factor: float = 0.0
    element: str = ""
    is_hetatm: bool = False

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=np.float64)
        if self.position.shape != (3,):
            raise StructureError(f"atom {self.name}: position must be a 3-vector")
        if not all(map(math.isfinite, self.position.tolist())):
            raise StructureError(f"atom {self.name}: non-finite position")
        if not (math.isfinite(self.occupancy) and math.isfinite(self.temp_factor)):
            raise StructureError(f"atom {self.name}: non-finite occupancy or temperature factor")
        if not self.name:
            raise StructureError("atom name must be non-empty")
        if self.serial < 1:
            raise StructureError(f"atom {self.name}: serial must be >= 1")
        if not self.element:
            self.element = _infer_element(self.name)

    def copy(self) -> "Atom":
        return Atom(
            self.serial, self.name, self.alt_loc, self.res_name, self.chain_id, self.res_seq,
            self.position.copy(), self.occupancy, self.temp_factor, self.element, self.is_hetatm,
        )

    def __eq__(self, other):
        if not isinstance(other, Atom):
            return NotImplemented
        return (
            self.serial == other.serial
            and self.name == other.name
            and self.alt_loc == other.alt_loc
            and self.res_name == other.res_name
            and self.chain_id == other.chain_id
            and self.res_seq == other.res_seq
            and np.array_equal(self.position, other.position)
            and self.occupancy == other.occupancy
            and self.temp_factor == other.temp_factor
            and self.element == other.element
            and self.is_hetatm == other.is_hetatm
        )

    @property
    def address(self) -> str:
        """``CHAIN.RESNAMESEQ.ATOM``, as the audits and reports name the atom."""
        return f"{self.chain_id}.{self.res_name}{self.res_seq}.{self.name}"

    def __repr__(self):
        x, y, z = self.position
        return f"<Atom {self.address} ({x:.3f}, {y:.3f}, {z:.3f})>"


@dataclass
class Residue:
    res_seq: int
    res_name: str
    atoms: list[Atom] = field(default_factory=list)

    def atom(self, name: str) -> Atom | None:
        for a in self.atoms:
            if a.name == name:
                return a
        return None

    def copy(self) -> "Residue":
        return Residue(self.res_seq, self.res_name, [a.copy() for a in self.atoms])


@dataclass
class Chain:
    chain_id: str
    residues: list[Residue] = field(default_factory=list)

    def residue(self, res_seq: int) -> Residue | None:
        for r in self.residues:
            if r.res_seq == res_seq:
                return r
        return None

    def atoms(self):
        for r in self.residues:
            yield from r.atoms

    def n_atoms(self) -> int:
        return sum(len(r.atoms) for r in self.residues)

    def positions(self) -> np.ndarray:
        """All atom positions as an (N, 3) array, in record order."""
        atoms = list(self.atoms())
        if not atoms:
            return np.zeros((0, 3))
        return np.stack([a.position for a in atoms])

    def copy(self) -> "Chain":
        return Chain(self.chain_id, [r.copy() for r in self.residues])


@dataclass
class Structure:
    """Ordered chains plus opaque header lines carried through for re-emission."""

    chains: list[Chain] = field(default_factory=list)
    headers: list[str] = field(default_factory=list)

    def __post_init__(self):
        # Construction checks the layout only, so a structure may be put together
        # from shared or half-edited records.
        self._validate(records=False)

    def validate(self):
        """Check the layout, and that each atom's chain id, residue number and name match its parents."""
        self._validate(records=True)

    def _validate(self, records: bool):
        ids = [c.chain_id for c in self.chains]
        if len(set(ids)) != len(ids):
            raise StructureError(f"duplicate chain ids: {ids}")
        seen = set()
        for chain in self.chains:
            last_seq = None
            for residue in chain.residues:
                if last_seq is not None and residue.res_seq < last_seq:
                    raise StructureError(
                        f"chain {chain.chain_id}: residue order not monotone at {residue.res_seq}"
                    )
                last_seq = residue.res_seq
                for atom in residue.atoms:
                    if records and (atom.chain_id, atom.res_seq, atom.res_name) != (
                        chain.chain_id, residue.res_seq, residue.res_name
                    ):
                        raise StructureError(
                            f"atom {atom.address} sits in {chain.chain_id}.{residue.res_name}{residue.res_seq}"
                        )
                    key = (chain.chain_id, residue.res_seq, atom.name, atom.alt_loc)
                    if key in seen:
                        raise StructureError(f"duplicate atom key {key}")
                    seen.add(key)

    def chain_ids(self) -> list[str]:
        return [c.chain_id for c in self.chains]

    def chain(self, chain_id: str) -> Chain:
        for c in self.chains:
            if c.chain_id == chain_id:
                return c
        raise StructureError(f"no chain {chain_id!r} (have {self.chain_ids()})")

    def has_chain(self, chain_id: str) -> bool:
        return any(c.chain_id == chain_id for c in self.chains)

    def atoms(self):
        for c in self.chains:
            yield from c.atoms()

    def n_atoms(self) -> int:
        return sum(c.n_atoms() for c in self.chains)

    def copy(self) -> "Structure":
        return Structure([c.copy() for c in self.chains], list(self.headers))

    def subset(self, chain_ids) -> "Structure":
        """New structure containing copies of the named chains, in the given order."""
        return Structure([self.chain(cid).copy() for cid in chain_ids])

    def renumber_serials(self) -> None:
        # Mirrors the writer's numbering: each chain's TER record consumes
        # one serial, so re-emission reproduces these values exactly.
        serial = 1
        for chain in self.chains:
            for atom in chain.atoms():
                atom.serial = serial
                serial += 1
            if chain.n_atoms():
                serial += 1


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


def select_atom(structure: Structure, selector: AtomSelector | str) -> Atom:
    """Return the unique atom addressed by ``selector``.

    Raises AtomNotFoundError when nothing matches and ResidueMismatchError
    when the residue at (chain, number) exists under a different name.
    """
    if isinstance(selector, str):
        selector = AtomSelector.parse(selector)
    if not structure.has_chain(selector.chain_id):
        raise AtomNotFoundError(f"no atom matches {selector}: chain not present")
    residue = structure.chain(selector.chain_id).residue(selector.res_seq)
    if residue is None:
        raise AtomNotFoundError(f"no atom matches {selector}: residue not present")
    if residue.res_name != selector.res_name:
        raise ResidueMismatchError(
            f"{selector}: residue {selector.res_seq} in chain {selector.chain_id}"
            f" is {residue.res_name}, not {selector.res_name}"
        )
    atom = residue.atom(selector.atom_name)
    if atom is None:
        raise AtomNotFoundError(f"no atom matches {selector}: atom not present in residue")
    return atom


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
    line is preserved verbatim as a header.
    """
    chains: list[Chain] = []
    headers: list[str] = []
    open_chain: Chain | None = None
    closed_ids: set[str] = set()
    ended = False

    def close_chain():
        nonlocal open_chain
        if open_chain is not None:
            closed_ids.add(open_chain.chain_id)
            open_chain = None

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

            try:
                # Positional: eleven keyword arguments cost about 1 us more per atom.
                atom = Atom(
                    serial, name, alt_loc, res_name, chain_id, res_seq, np.array([x, y, z]),
                    occupancy, temp_factor, element, record == "HETATM",
                )
            except StructureError as exc:
                raise PdbParseError(str(exc), line_number) from exc

            if open_chain is not None and open_chain.chain_id != chain_id:
                close_chain()
            if open_chain is None:
                if chain_id in closed_ids:
                    raise PdbParseError(f"chain {chain_id!r} reopened after TER", line_number)
                open_chain = Chain(chain_id)
                chains.append(open_chain)
            residues = open_chain.residues
            if residues and residues[-1].res_seq == res_seq:
                residue = residues[-1]
                if residue.res_name != res_name:
                    raise PdbParseError(
                        f"residue {res_seq} renamed {residue.res_name} -> {res_name}", line_number
                    )
            else:
                residue = Residue(res_seq, res_name)
                residues.append(residue)
            residue.atoms.append(atom)
        elif record.startswith("TER"):
            close_chain()
        elif record.startswith("END"):
            close_chain()
            ended = True
        else:
            headers.append(line)

    try:
        return Structure(chains, headers)
    except StructureError as exc:
        raise PdbParseError(str(exc)) from exc


def format_coordinate(value: float, width: int = 8, decimals: int = 3, field: str = "coordinate") -> str:
    """Fixed-width decimal field with ties rounded half away from zero.

    The value is quantized through its shortest decimal representation so
    that e.g. 4.7765 rounds to 4.777 regardless of binary representation.
    ``field`` names the value in the PdbWriteError raised when it does not fit.
    """
    if not np.isfinite(value):
        raise PdbWriteError(f"non-finite {field} {value!r}")
    quantum = Decimal(1).scaleb(-decimals)
    q = Decimal(repr(float(value))).quantize(quantum, rounding=ROUND_HALF_UP)
    if q == 0:
        q = abs(q)
    out = f"{q:.{decimals}f}"
    if len(out) > width:
        raise PdbWriteError(f"{field} {value!r} does not fit in F{width}.{decimals}")
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


def _checked_fields(atom: Atom, address: str, misfit: str | None) -> list[float]:
    """One atom's five fields through ``format_coordinate``; raises its PdbWriteError."""
    if misfit:
        raise PdbWriteError(f"atom {address}: {misfit}")
    if abs(float(np.max(np.abs(atom.position)))) >= 10000.0:
        raise PdbWriteError(f"coordinate magnitude >= 10000 A in atom {atom!r}")
    values = [float(format_coordinate(v)) for v in atom.position]
    try:
        values.append(float(format_coordinate(atom.occupancy, 6, 2, "occupancy")))
        values.append(float(format_coordinate(atom.temp_factor, 6, 2, "B-factor")))
    except PdbWriteError as exc:
        raise PdbWriteError(f"atom {address}: {exc}") from None
    return values


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


def _aligned_name(atom: Atom) -> str:
    # One-letter elements start in column 14, longer names fill from column 13.
    if len(atom.name) == 4:
        return atom.name
    if len(atom.element) == 1:
        return f" {atom.name:<3}"
    return f"{atom.name:<4}"


def write_pdb(structure: Structure) -> str:
    """Emit a Structure as PDB text with LF line endings.

    Serial numbers are renumbered sequentially, each chain is closed with a
    TER record, and the file ends with END.  Coordinates use F8.3 fields;
    a value or name that does not fit its columns raises PdbWriteError
    naming the first such atom in record order.
    """
    # x, y, z as F8.3, then occupancy and B-factor as F6.2.
    values = [a.position.tolist() + [a.occupancy, a.temp_factor] for a in structure.atoms()]
    rounded, unsettled = _round_half_away(
        np.array(values).reshape(-1, 5), np.array([8, 8, 8, 6, 6]), np.array([3, 3, 3, 2, 2])
    )
    fields = rounded.tolist()
    unsettled = unsettled.any(axis=1).tolist()

    lines: list[str] = list(structure.headers)
    serial = 1
    index = 0
    for chain in structure.chains:
        chain_id = chain.chain_id
        last_residue = None
        for residue in chain.residues:
            res_seq = residue.res_seq
            for atom in residue.atoms:
                misfit = _misfit(
                    serial, chain_id, res_seq, atom.res_name, atom.name, atom.alt_loc, atom.element
                )
                if misfit or unsettled[index]:
                    address = f"{chain_id}.{atom.res_name}{res_seq}.{atom.name}"
                    fields[index] = _checked_fields(atom, address, misfit)
                # %-formatting skips the per-field __format__ call of an f-string.
                lines.append("%s%5d %s%s%3s %s%4d    %8.3f%8.3f%8.3f%6.2f%6.2f          %2s" % (
                    "HETATM" if atom.is_hetatm else "ATOM  ", serial, _aligned_name(atom),
                    atom.alt_loc or " ", atom.res_name, chain_id, res_seq, *fields[index], atom.element,
                ))
                serial += 1
                index += 1
            last_residue = residue
        if last_residue is not None:
            misfit = _misfit(serial, chain_id, last_residue.res_seq, last_residue.res_name)
            if misfit:
                raise PdbWriteError(f"TER record of chain {chain_id}: {misfit}")
            lines.append(
                f"TER   {serial:5d}      {last_residue.res_name:>3} "
                f"{chain_id}{last_residue.res_seq:4d}"
            )
            serial += 1
    lines.append("END")
    return "\n".join(lines) + "\n"
