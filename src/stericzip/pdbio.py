"""Bit-exact parsing and emission of fixed-column PDB coordinate files.

ATOM/HETATM records are read with the classic column layout (1-6 record
name, 7-11 serial, 13-16 atom name, 17 altLoc, 18-20 resName, 22 chainID,
23-26 resSeq, 31-38/39-46/47-54 x/y/z as F8.3, 55-60 occupancy, 61-66
tempFactor, 77-78 element).  TER closes the current chain and END closes
the file.  Every other line is carried as an opaque header and re-emitted
verbatim ahead of the coordinates, so writing a parsed file reproduces it
byte for byte once it has passed through the writer.

Coordinates are emitted as F8.3 with ties rounded half away from zero.
Parsing and writing are pure functions; structures are plain values and
should be copied before mutation.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace
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


@dataclass(eq=False)
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
        if not np.all(np.isfinite(self.position)):
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
        return replace(self, position=self.position.copy())

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

    def __repr__(self):
        x, y, z = self.position
        return (
            f"<Atom {self.chain_id}.{self.res_name}{self.res_seq}.{self.name}"
            f" ({x:.3f}, {y:.3f}, {z:.3f})>"
        )


@dataclass(eq=False)
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

    def __eq__(self, other):
        if not isinstance(other, Residue):
            return NotImplemented
        return (
            self.res_seq == other.res_seq
            and self.res_name == other.res_name
            and self.atoms == other.atoms
        )


@dataclass(eq=False)
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

    def __eq__(self, other):
        if not isinstance(other, Chain):
            return NotImplemented
        return self.chain_id == other.chain_id and self.residues == other.residues


@dataclass(eq=False)
class Structure:
    """Ordered chains plus opaque header lines carried through for re-emission."""

    chains: list[Chain] = field(default_factory=list)
    headers: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.validate()

    def validate(self):
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

    def __eq__(self, other):
        if not isinstance(other, Structure):
            return NotImplemented
        return self.chains == other.chains and self.headers == other.headers


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


def _parse_float(text: str, what: str, line_number: int) -> float:
    try:
        return float(text)
    except ValueError:
        raise PdbParseError(f"malformed {what} field {text!r}", line_number) from None


def _parse_int(text: str, what: str, line_number: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise PdbParseError(f"malformed {what} field {text!r}", line_number) from None


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

    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip("\r")
        record = line[:6]
        if ended and line.strip():
            raise PdbParseError("content after END record", line_number)
        if record in _COORD_RECORDS:
            padded = line.ljust(80)
            if len(line) < 54:
                raise PdbParseError("truncated coordinate record", line_number)
            serial = _parse_int(padded[6:11], "serial", line_number)
            name = padded[12:16].strip()
            alt_loc = padded[16].strip()
            if alt_loc not in ("", "A"):
                raise PdbParseError(f"unsupported alternate location {alt_loc!r}", line_number)
            res_name = padded[17:20].strip()
            chain_id = padded[21]
            res_seq = _parse_int(padded[22:26], "residue number", line_number)
            x = _parse_float(padded[30:38], "x coordinate", line_number)
            y = _parse_float(padded[38:46], "y coordinate", line_number)
            z = _parse_float(padded[46:54], "z coordinate", line_number)
            occ_text = padded[54:60].strip()
            occupancy = _parse_float(occ_text, "occupancy", line_number) if occ_text else 1.0
            tf_text = padded[60:66].strip()
            temp_factor = _parse_float(tf_text, "temperature factor", line_number) if tf_text else 0.0
            element = padded[76:78].strip()
            if not name:
                raise PdbParseError("empty atom name", line_number)

            try:
                atom = Atom(
                    serial=serial,
                    name=name,
                    alt_loc=alt_loc,
                    res_name=res_name,
                    chain_id=chain_id,
                    res_seq=res_seq,
                    position=np.array([x, y, z]),
                    occupancy=occupancy,
                    temp_factor=temp_factor,
                    element=element,
                    is_hetatm=record == "HETATM",
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


def _aligned_name(atom: Atom) -> str:
    # One-letter elements start in column 14, longer names fill from column 13.
    if len(atom.name) >= 4:
        return atom.name[:4]
    if len(atom.element) == 1 and len(atom.name) <= 3:
        return f" {atom.name:<3}"
    return f"{atom.name:<4}"


def write_pdb(structure: Structure) -> str:
    """Emit a Structure as PDB text with LF line endings.

    Serial numbers are renumbered sequentially, each chain is closed with a
    TER record, and the file ends with END.  Coordinates use F8.3 fields;
    values outside the representable range raise PdbWriteError.
    """
    lines: list[str] = list(structure.headers)
    serial = 1
    for chain in structure.chains:
        last_residue = None
        for residue in chain.residues:
            for atom in residue.atoms:
                if abs(float(np.max(np.abs(atom.position)))) >= 10000.0:
                    raise PdbWriteError(
                        f"coordinate magnitude >= 10000 A in atom {atom!r}"
                    )
                record = "HETATM" if atom.is_hetatm else "ATOM  "
                x, y, z = (format_coordinate(v) for v in atom.position)
                try:
                    occ = format_coordinate(atom.occupancy, 6, 2, "occupancy")
                    tf = format_coordinate(atom.temp_factor, 6, 2, "B-factor")
                except PdbWriteError as exc:
                    address = f"{chain.chain_id}.{atom.res_name}{residue.res_seq}.{atom.name}"
                    raise PdbWriteError(f"atom {address}: {exc}") from None
                lines.append(
                    f"{record}{serial:5d} {_aligned_name(atom)}{atom.alt_loc or ' '}"
                    f"{atom.res_name:>3} {chain.chain_id}{residue.res_seq:4d}    "
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
