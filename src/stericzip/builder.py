"""End-to-end fibril model construction.

Pipeline: mutate the template's chains A and B (the asymmetric unit) to
the target Ala/Gly hexapeptide, place the opposing sheet by a
translation-only update of the lattice screw, build the twelve-chain
cell from the unit in one pass, and audit hydrogen bonds and clashes.

Sheet 2 moves as a rigid body with its rotation fixed, so the placement
has three unknowns: the translation u added to the screw.  It puts free
atom j at free_j + u, so an anchor-free pair contributes V(|u - c|) with
centre c = anchor_i - free_j, and the energy is E(u) = sum V(|u - c|)
over the contact pairs (i, i), or over every anchor-free pair with
``full_sum`` (anchor-anchor and free-free terms do not change under a
rigid translation).

For the default two contacts the optimum set is a circle, so the model
is fixed by where the descent starts, not by a seed: gradient descent
from the template screw (u = 0) ends on the optimum nearest the
template.  The seeded annealed search, started from that answer, only
checks it over a box that holds every optimum; when it finds a lower
energy, its point is polished and used, and the report warns that the
model depends on the seed.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .energy import LJParams, clash_audit, detect_hbonds, lj_kernel, lj_pair_energy
from .errors import BuildError, MutationError, SelectionError, StericZipError
from .geometry import (
    RigidTransform,
    SheetLattice,
    SCREW_SOURCES,
    UNIT_CHAINS,
    cbeta_position,
    reconcile_translation,  # unused; perfbench/tracing.py patches it by this name
    replicate_lattice,
    transform_chain,  # unused; perfbench/tracing.py patches it by this name
)
from .optimize import Objective, OptimizerConfig, OptimizationResult, local_refine, minimize_saec, uniform_bounds
from .pdbio import AtomSelector, Structure, select_atom
from .template import (
    DEFAULT_ANCHOR_SELECTORS,
    DEFAULT_FREE_SELECTORS,
    TEMPLATE_CONTACT_SIGMA,
    default_lattice,
)

BACKBONE_ATOM_NAMES = ("N", "CA", "C", "O")
SEQUENCE_ALPHABET = {"A": "ALA", "G": "GLY"}
CLASH_CUTOFF = 2.0
CB_BOND_LENGTH = 1.521


def validate_sequence(sequence: str) -> str:
    sequence = sequence.strip().upper()
    if len(sequence) != 6:
        raise StericZipError(f"sequence must have exactly 6 residues, got {len(sequence)}")
    bad = sorted(set(sequence) - set(SEQUENCE_ALPHABET))
    if bad:
        raise StericZipError(f"sequence may only contain A and G, got {bad}")
    return sequence


def mutate_residue(structure: Structure, chain_id: str, res_seq: int, target: str) -> Structure:
    """Mutate one residue to ALA or GLY, preserving the backbone bit for bit.

    ALA keeps (or constructs) CB and drops everything further out; GLY
    drops the whole side chain.  A CB built for a source glycine sits at
    the standard tetrahedral position 1.521 A from CA.
    """
    target = target.strip().upper()
    if target not in ("ALA", "GLY"):
        raise MutationError(f"target residue must be ALA or GLY, got {target!r}")
    out = structure.copy()
    residue = out.chain(chain_id).residue(res_seq)
    if residue is None:
        raise MutationError(f"chain {chain_id} has no residue {res_seq}")
    _mutate_in_place(residue, chain_id, target)
    out.validate()
    out.renumber_serials()
    return out


def _mutate_in_place(residue, chain_id: str, target: str) -> None:
    """The body of ``mutate_residue``: the caller copies, validates and renumbers."""
    kept = [residue.atom(name) for name in BACKBONE_ATOM_NAMES]
    for name, atom in zip(BACKBONE_ATOM_NAMES, kept):
        if atom is None:
            raise MutationError(
                f"residue {chain_id}.{residue.res_name}{residue.res_seq} lacks backbone atom {name}"
            )
    if target == "ALA":
        cb = residue.atom("CB")
        if cb is None:
            n, ca, c, _ = kept
            position = cbeta_position(n.position, ca.position, c.position, bond=CB_BOND_LENGTH)
            cb = replace(ca, name="CB", element="C", position=position)
        kept.append(cb)

    residue.res_name = target
    residue.atoms = kept
    for atom in residue.atoms:
        atom.res_name = target


def apply_sequence(structure: Structure, chain_id: str, sequence: str) -> Structure:
    """Mutate a six-residue chain positionally and renumber it 1-6, in one copy."""
    sequence = validate_sequence(sequence)
    chain = structure.chain(chain_id)
    if len(chain.residues) != 6:
        raise MutationError(
            f"chain {chain_id} has {len(chain.residues)} residues; apply_sequence needs 6"
        )
    out = structure.copy()
    for index, (residue, letter) in enumerate(zip(out.chain(chain_id).residues, sequence), start=1):
        residue.res_seq = index
        for atom in residue.atoms:
            atom.res_seq = index
        _mutate_in_place(residue, chain_id, SEQUENCE_ALPHABET[letter])
    out.validate()
    out.renumber_serials()
    return out


@dataclass
class FibrilSpec:
    """Everything a build needs besides the template structure."""

    sequence: str
    model_name: str = "model"
    anchors: tuple[str, ...] = DEFAULT_ANCHOR_SELECTORS
    free_atoms: tuple[str, ...] = DEFAULT_FREE_SELECTORS
    lj: LJParams = field(default_factory=lambda: LJParams(1.0, TEMPLATE_CONTACT_SIGMA))
    lattice: SheetLattice = field(default_factory=default_lattice)
    optimizer: OptimizerConfig = field(default_factory=lambda: OptimizerConfig(max_evaluations=40_000))
    full_sum: bool = False

    def __post_init__(self):
        self.sequence = validate_sequence(self.sequence)
        if len(self.anchors) != len(self.free_atoms) or not self.anchors:
            raise StericZipError("anchors and free_atoms must have the same nonzero length")
        for kind, texts, chains in (
            ("anchor", self.anchors, UNIT_CHAINS), ("free atom", self.free_atoms, tuple(SCREW_SOURCES))
        ):
            for text in texts:
                sel = AtomSelector.parse(text)
                if sel.res_name != "ALA" or sel.atom_name != "CB":
                    raise StericZipError(f"contact selector {sel} must address an ALA CB atom")
                if sel.chain_id not in chains:
                    raise StericZipError(f"{kind} {sel} must lie in chain {' or '.join(chains)}")

    def anchor_selectors(self) -> list[AtomSelector]:
        return [AtomSelector.parse(t) for t in self.anchors]

    def free_selectors(self) -> list[AtomSelector]:
        return [AtomSelector.parse(t) for t in self.free_atoms]

    @classmethod
    def from_json(cls, text: str, **overrides) -> "FibrilSpec":
        """Spec from a JSON object; a malformed spec raises StericZipError naming the key."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise StericZipError(f"spec is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise StericZipError("spec must be a JSON object")
        data.update(overrides)
        try:
            lattice = data.get("lattice")
            if isinstance(lattice, dict) and "sheet2_transform" in lattice:
                lattice["sheet2_transform"] = RigidTransform.from_values(lattice["sheet2_transform"])
            for key, kind in (("lj", LJParams), ("optimizer", OptimizerConfig), ("lattice", SheetLattice)):
                if isinstance(data.get(key), dict):
                    data[key] = _from_known_keys(kind, data[key], key)
            for key in ("anchors", "free_atoms"):
                if key in data:
                    data[key] = tuple(data[key])
            return _from_known_keys(cls, data, "spec")
        except (TypeError, ValueError) as exc:
            raise StericZipError(f"bad spec value: {exc}") from exc


def _from_known_keys(kind, data: dict, where: str):
    unknown = sorted(set(data) - {f.name for f in fields(kind)})
    if unknown:
        raise StericZipError(f"unknown key(s) {', '.join(map(repr, unknown))} in {where}")
    return kind(**data)


@dataclass
class PlacementOutcome:
    transform: RigidTransform
    optimizer_result: OptimizationResult
    refined_energy: float
    contact_distances: np.ndarray
    contact_energies: np.ndarray
    warnings: list[str] = field(default_factory=list)


def placement_objective(
    anchors: np.ndarray, free0: np.ndarray, params: LJParams, full_sum: bool = False
) -> Objective:
    """Contact energy above its floor as a function of the sheet-2 translation u.

    The centres c are anchor_i - free_j over the contact pairs (i, i), or
    over every anchor-free pair with ``full_sum``.  Each pair adds the
    kernel's V(r) + eps >= 0: V itself rounds near r_min and would stall
    descent ~1e-8 A short.  The box |u_x|, |u_y|, |u_z| <= max|c| + r_min
    holds every optimum.
    """
    if full_sum:
        centres = (anchors[:, None, :] - free0[None, :, :]).reshape(-1, 3)
    else:
        centres = anchors - free0
    half = float(np.max(np.linalg.norm(centres, axis=1))) + params.r_min

    def evaluate_batch(points: np.ndarray, with_gradient: bool = False):
        diff = points[:, None, :] - centres
        r2 = (diff * diff).sum(axis=2)
        if not with_gradient:
            return lj_kernel(r2, params).sum(axis=1)
        terms, coeff = lj_kernel(r2, params, with_force=True)
        return terms.sum(axis=1), (coeff[:, :, None] * diff).sum(axis=1)

    def evaluate(u: np.ndarray) -> float:
        return float(evaluate_batch(u[None, :])[0])

    def gradient(u: np.ndarray) -> np.ndarray:
        return evaluate_batch(u[None, :], with_gradient=True)[1][0]

    return Objective(
        dimension=3,
        evaluate=evaluate,
        gradient=gradient,
        evaluate_batch=evaluate_batch,
        bounds=uniform_bounds(-half, half, 3),
    )


def solve_contact_placement(
    anchor_points,
    free_points,
    params: LJParams,
    base_transform: RigidTransform,
    config: OptimizerConfig,
    full_sum: bool = False,
) -> PlacementOutcome:
    """Translate the free atoms rigidly to minimize their contact energy.

    The answer is the end point of gradient descent from u = 0, the base
    transform itself.  The seeded annealed search, started from that
    point, checks it over the whole box; if the search reaches a lower
    energy, its best point is polished and used instead, and a warning
    says the result depends on the seed.
    """
    anchors = np.asarray(anchor_points, dtype=np.float64).reshape(-1, 3)
    free0 = np.asarray(free_points, dtype=np.float64).reshape(-1, 3)
    if anchors.shape != free0.shape:
        raise StericZipError("anchor and free point lists must have matching shapes")
    k = anchors.shape[0]
    floor = -params.epsilon * (k * k if full_sum else k)

    objective = placement_objective(anchors, free0, params, full_sum)
    cfg = config
    if cfg.target_value is not None:
        cfg = replace(cfg, target_value=cfg.target_value - floor)
    elif not full_sum:
        # Contact-restricted global minimum is exactly the floor, -k epsilon.
        cfg = replace(cfg, target_value=0.0, target_tolerance=1e-3)
    refined = local_refine(objective, np.zeros(3), tol=1e-10, max_iters=500)
    # Starting the search from the descent's end point ends it at once
    # when that point already meets the target.
    saec = minimize_saec(objective, cfg, x0=refined.best_point)
    evaluations = saec.evaluations_used + refined.evaluations_used
    warnings = []
    energy = refined.best_value + floor
    if saec.best_value < refined.best_value - 1e-9 * max(1.0, abs(energy)):
        warnings.append(
            f"the seeded search reached energy {saec.best_value + floor:.6g}, below the "
            f"{energy:.6g} of descent from the template screw; "
            "the sheet placement depends on the seed"
        )
        refined = local_refine(objective, saec.best_point, tol=1e-10, max_iters=500)
        evaluations += refined.evaluations_used
        energy = refined.best_value + floor

    u = refined.best_point
    distances = np.linalg.norm(free0 + u - anchors, axis=1)
    trace = [(e, v + floor) for e, v in saec.trace]
    return PlacementOutcome(
        transform=base_transform.with_translation(base_transform.translation + u),
        optimizer_result=replace(saec, best_point=u, best_value=energy, evaluations_used=evaluations, trace=trace),
        refined_energy=energy,
        contact_distances=distances,
        contact_energies=lj_pair_energy(distances, params),
        warnings=warnings,
    )


def place_opposing_sheet(unit: Structure, spec: FibrilSpec) -> PlacementOutcome:
    """Solve the sheet-2 placement for the mutated asymmetric unit.

    Anchors are read from ``unit``.  Each free atom is read as the image,
    under the lattice screw, of the same atom in its source chain, so
    ``G.ALA4.CB`` is the screw image of ``A.ALA4.CB``.
    """
    screw = spec.lattice.sheet2_transform
    anchors = np.array([select_atom(unit, s).position for s in spec.anchor_selectors()])
    free0 = []
    for sel in spec.free_selectors():
        source = replace(sel, chain_id=SCREW_SOURCES[sel.chain_id])
        try:
            free0.append(screw.apply(select_atom(unit, source).position))
        except SelectionError as exc:
            raise type(exc)(f"free atom {sel} is the screw image of {source}: {exc}") from None
    return solve_contact_placement(anchors, free0, spec.lj, screw, spec.optimizer, spec.full_sum)


@dataclass
class BuildReport:
    model_name: str
    sequence: str
    success: bool
    warnings: list[str]
    chain_ids: list[str]
    hbond_count_before: int
    hbond_count_after: int
    model_hbond_count: int
    contacts: list[dict]
    sheet_transform: list[float]
    lattice_step: list[float]
    optimizer: dict
    clashes: list[dict]
    parameters: dict

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def _stage(name: str):
    class _StageContext:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            if exc is not None and not isinstance(exc, BuildError):
                raise BuildError(name, str(exc)) from exc
            return False

    return _StageContext()


def build_fibril_model(template: Structure, spec: FibrilSpec) -> tuple[Structure, BuildReport]:
    """Run the whole pipeline and return the twelve-chain model plus report."""
    warnings: list[str] = []

    with _stage("template"):
        unit = template.subset(UNIT_CHAINS)
        unit.headers = list(template.headers)
        ignored = [cid for cid in template.chain_ids() if cid not in UNIT_CHAINS]
        if ignored:
            warnings.append(f"template chain(s) {', '.join(ignored)} ignored; the model is built from A and B")

    with _stage("hbond-before"):
        hb_before = len(detect_hbonds(unit))

    with _stage("mutate"):
        unit = apply_sequence(unit, "A", spec.sequence)
        unit = apply_sequence(unit, "B", spec.sequence)

    with _stage("hbond-after"):
        hb_after = len(detect_hbonds(unit))

    with _stage("placement"):
        placement = place_opposing_sheet(unit, spec)
        warnings.extend(placement.warnings)

    with _stage("replicate"):
        final = replicate_lattice(unit, replace(spec.lattice, sheet2_transform=placement.transform))

    with _stage("audit"):
        model_hbonds = detect_hbonds(final)
        clashes = clash_audit(final, CLASH_CUTOFF)
        success = not clashes
        if clashes:
            warnings.append(f"{len(clashes)} steric clash(es) below {CLASH_CUTOFF} A; build marked failed")

    contacts = [
        {"anchor": str(a), "free": str(f), "distance": float(r), "energy": float(e),
         "optimal_distance": spec.lj.r_min}
        for a, f, r, e in zip(
            spec.anchor_selectors(), spec.free_selectors(), placement.contact_distances, placement.contact_energies
        )
    ]
    report = BuildReport(
        model_name=spec.model_name,
        sequence=spec.sequence,
        success=success,
        warnings=warnings,
        chain_ids=final.chain_ids(),
        hbond_count_before=hb_before,
        hbond_count_after=hb_after,
        model_hbond_count=len(model_hbonds),
        contacts=contacts,
        sheet_transform=placement.transform.to_values(),
        lattice_step=spec.lattice.intra_sheet_step.tolist(),
        optimizer={
            "evaluations": placement.optimizer_result.evaluations_used,
            "best_value": placement.optimizer_result.best_value,
            "terminated_by": placement.optimizer_result.terminated_by,
            "seed": spec.optimizer.seed,
        },
        clashes=[
            {"first": a.address, "second": b.address, "distance": d}
            for a, b, d in clashes
        ],
        parameters={
            "epsilon": spec.lj.epsilon,
            "sigma": spec.lj.sigma,
            "full_sum": spec.full_sum,
            "clash_cutoff": CLASH_CUTOFF,
        },
    )
    return final, report
