"""End-to-end fibril model construction.

Pipeline: mutate the template's chains A and B (the asymmetric unit) to
the target Ala/Gly hexapeptide in one pass, place the opposing sheet by a
translation-only update of the lattice screw, build the twelve-chain
cell from the unit in one pass, and audit the model with
``structure_energy_report``, the audit ``stericzip energy`` runs: the
report's contacts, model H-bond count, clashes and parameters are its.

Sheet 2 moves as a rigid body with its rotation fixed, so the placement
has three unknowns: the translation u added to the screw.  It puts free
atom j at free_j + u, so an anchor-free pair contributes V(|u - c|) with
centre c = anchor_i - free_j, and the energy is E(u) = sum V(|u - c|)
over the contact pairs (i, i), or over every anchor-free pair with
``full_sum`` (anchor-anchor and free-free terms do not change under a
rigid translation).

The placement is settled once, by the geometry, on the unit-depth energy
(eps = 1), so every tolerance is in units of eps and the answer does not
depend on the energy unit.  With at most two contact centres whose floor,
-1 per pair, can be reached, the optima form a sphere (one centre) or a
circle about the axis of two, and the model is their point nearest the
template screw (u = 0), in closed form (``nearest_optimum``).  Otherwise
(a tie, an unreachable floor, three or more centres, as with ``full_sum``)
it is the end point of Newton descent on the analytic Hessian from u = 0.
The answer is certified when its energy is within CERTIFICATE_GAP = 1e-4
of the floor or of a lower bound, which a branch and bound over the axial
position s and radius rho of u proves when every centre lies on one line
(one or two contact pairs, and ``full_sum`` on the packaged template).
The certificate alone sets the target of the seeded annealed search,
which starts from the answer: a certified answer ends it after its first
population, and otherwise it checks the answer over a box that holds
every optimum; a lower energy found there is polished and used.  Each fallback (a tie, a
bound that does not close, a seed-dependent answer, a descent stopped on
its iteration budget) is a report warning.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, replace
from itertools import chain, repeat

import numpy as np

from .energy import CLASH_CUTOFF, ContactPair, LJParams, detect_hbonds, lj_kernel, structure_energy_report
from .energy import clash_audit  # unused; perfbench/tracing.py patches it by this name
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
from .pdbio import ATOM_COLUMNS, AtomSelector, Structure, atom_row
from .template import DEFAULT_ANCHOR_SELECTORS, DEFAULT_FREE_SELECTORS, default_lattice

BACKBONE_ATOM_NAMES = ("N", "CA", "C", "O")
SEQUENCE_ALPHABET = {"A": "ALA", "G": "GLY"}
# A placement within CERTIFICATE_GAP (in units of eps) of a proven lower bound is certified.
CERTIFICATE_GAP = 1e-4
_BOUND_BOX_CAP = 20_000  # boxes the (s, rho) branch and bound may bound before it gives up
_LINE_TOLERANCE = 1e-9  # distance off a line, relative to the points' spread, still counted as on it


def validate_sequence(sequence: str) -> str:
    sequence = sequence.strip().upper()
    if len(sequence) != 6:
        raise StericZipError(f"sequence must have exactly 6 residues, got {len(sequence)}")
    bad = sorted(set(sequence) - set(SEQUENCE_ALPHABET))
    if bad:
        raise StericZipError(f"sequence may only contain A and G, got {bad}")
    return sequence


def mutate_residue(structure: Structure, chain_id: str, res_seq: int, target: str) -> Structure:
    """Return a new structure with one residue mutated to ALA or GLY.

    The residue keeps the rows of its backbone atoms N, CA, C and O, in
    that order and bit for bit, and for ALA the row of its CB; its other
    rows are dropped.  A source glycine mutated to ALA gets a CB row built
    at the standard tetrahedral position 1.521 A from CA.
    """
    target = target.strip().upper()
    if target not in ("ALA", "GLY"):
        raise MutationError(f"target residue must be ALA or GLY, got {target!r}")
    c = structure.chain_index(chain_id)
    first, last = structure.chain_starts[c:c + 2]
    hits = np.flatnonzero(structure.res_seqs[first:last] == res_seq)
    if not hits.size:
        raise MutationError(f"chain {chain_id} has no residue {res_seq}")
    return _mutate(structure, [(chain_id, first + hits[0], target, res_seq)])


def apply_sequence(structure: Structure, chain_ids: str | tuple[str, ...], sequence: str) -> Structure:
    """Return a new structure with each named six-residue chain mutated positionally and renumbered 1-6.

    ``chain_ids`` is one chain id or several.  Each residue is cut as in
    ``mutate_residue``, and the new structure is built once, in one pass
    over the chains in order: a fault raises as the first of one call per
    chain would.
    """
    sequence = validate_sequence(sequence)
    targets = [SEQUENCE_ALPHABET[s] for s in sequence]

    def residues(chain_id):
        c = structure.chain_index(chain_id)
        first, last = structure.chain_starts[c:c + 2].tolist()
        if last - first != 6:
            raise MutationError(f"chain {chain_id} has {last - first} residues; apply_sequence needs 6")
        return zip(repeat(chain_id), range(first, last), targets, range(1, 7))

    chain_ids = [chain_ids] if isinstance(chain_ids, str) else chain_ids
    return _mutate(structure, chain.from_iterable(map(residues, chain_ids)))


def _mutate(structure: Structure, residues) -> Structure:
    """Each (chain id, residue row, target, number) renamed, renumbered and cut to its kept rows, checked in order."""
    s, starts = structure, structure.res_starts.tolist()
    seqs, res_names = s.res_seqs.tolist(), s.res_names.tolist()
    kept, built = {}, []  # rows each mutated residue keeps; (CA row, position) of each built CB
    for chain_id, r, target, res_seq in residues:
        names = s.names[starts[r]:starts[r + 1]].tolist()
        for name in BACKBONE_ATOM_NAMES:
            if name not in names:
                raise MutationError(f"residue {chain_id}.{res_names[r]}{res_seq} lacks backbone atom {name}")
        picked = [starts[r] + names.index(name) for name in BACKBONE_ATOM_NAMES]
        if target == "ALA" and "CB" in names:
            picked.append(starts[r] + names.index("CB"))
        elif target == "ALA":
            built.append((picked[1], cbeta_position(*s.coords[picked[:3]])))
            picked.append(s.n_atoms() + len(built) - 1)
        kept[r], seqs[r], res_names[r] = picked, res_seq, target
    # A built CB row copies its CA's fields and is appended after the existing rows.
    extra = {name: getattr(s, name)[[ca for ca, _ in built]] for name in ATOM_COLUMNS} | {
        "coords": np.reshape([p for _, p in built], (-1, 3)),
        "names": np.full(len(built), "CB"), "elements": np.full(len(built), "C"),
    }
    pieces = [np.asarray(kept.get(r, range(starts[r], starts[r + 1])), dtype=np.int64) for r in range(len(seqs))]
    return Structure.from_columns(
        s.headers, s.chain_ids(), chain_starts=s.chain_starts, res_starts=np.cumsum([0] + [len(p) for p in pieces]),
        res_seqs=seqs, res_names=res_names,
        **{name: np.concatenate([getattr(s, name), extra[name]])[np.concatenate(pieces)] for name in ATOM_COLUMNS},
    )


@dataclass
class FibrilSpec:
    """Everything a build needs besides the template structure."""

    sequence: str
    model_name: str = "model"
    anchors: tuple[str, ...] = DEFAULT_ANCHOR_SELECTORS
    free_atoms: tuple[str, ...] = DEFAULT_FREE_SELECTORS
    lj: LJParams = field(default_factory=LJParams)
    lattice: SheetLattice = field(default_factory=default_lattice)
    optimizer: OptimizerConfig = field(default_factory=lambda: OptimizerConfig(max_evaluations=40_000))
    full_sum: bool = False

    def __post_init__(self):
        self.sequence = validate_sequence(self.sequence)
        for name, kind in (("model_name", str), ("full_sum", bool)):
            if not isinstance(getattr(self, name), kind):
                raise StericZipError(f"{name} must be a {kind.__name__}, got {getattr(self, name)!r}")
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
        _check_no_search_target(self.optimizer)

    def contacts(self) -> list[ContactPair]:
        """The monitored contacts: each anchor (``first``) with its free atom (``second``)."""
        return [ContactPair(AtomSelector.parse(a), AtomSelector.parse(f)) for a, f in zip(self.anchors, self.free_atoms)]

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


def _check_no_search_target(config: OptimizerConfig) -> None:
    """Raise unless ``config`` leaves the search target to the placement's certificate."""
    if config.target_value is not None or config.target_tolerance:
        raise StericZipError("optimizer target_value and target_tolerance are set by the placement; leave both unset")


@dataclass
class PlacementOutcome:
    transform: RigidTransform
    optimizer_result: OptimizationResult
    warnings: list[str] = field(default_factory=list)


def placement_centres(anchors: np.ndarray, free0: np.ndarray, full_sum: bool = False) -> np.ndarray:
    """Centres c = anchor_i - free_j of the contact pairs (i, i), or of every pair with ``full_sum``."""
    if full_sum:
        return (anchors[:, None, :] - free0[None, :, :]).reshape(-1, 3)
    return anchors - free0


def placement_objective(
    anchors: np.ndarray, free0: np.ndarray, params: LJParams, full_sum: bool = False
) -> Objective:
    """Contact energy above its floor as a function of the sheet-2 translation u.

    The centres c are anchor_i - free_j over the contact pairs (i, i), or
    over every anchor-free pair with ``full_sum``.  Each pair adds the
    kernel's V(r) + eps >= 0: V itself rounds near r_min and would stall
    descent ~1e-8 A short.  Gradient and Hessian are analytic, both from
    the kernel.  The box |u_x|, |u_y|, |u_z| <= max|c| + r_min holds every
    optimum.
    """
    centres = placement_centres(anchors, free0, full_sum)
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

    def hessian(u: np.ndarray) -> np.ndarray:
        diff = u - centres
        _, coeff, curvature = lj_kernel((diff * diff).sum(axis=1), params, with_curvature=True)
        outer = diff[:, :, None] * diff[:, None, :]  # exactly symmetric, so the sum is too
        return coeff.sum() * np.eye(3) + (curvature[:, None, None] * outer).sum(axis=0)

    return Objective(
        dimension=3,
        evaluate=evaluate,
        gradient=gradient,
        evaluate_batch=evaluate_batch,
        bounds=uniform_bounds(-half, half, 3),
        hessian=hessian,
    )


def nearest_optimum(centres: np.ndarray, r_min: float) -> np.ndarray | None:
    """The point nearest u = 0 at distance r_min from each of one or two centres.

    Those points form a sphere about one centre (or two equal ones), or a
    circle about the axis of two centres at most 2 r_min apart.  Returns
    None on a tie, when u = 0 is the sphere's centre or lies on the
    circle's axis (to 1e-9 of the scale), so no point is nearest.
    """
    middle = centres.mean(axis=0)
    half = (centres[-1] - centres[0]) / 2.0
    if not half.any():
        radius, toward = r_min, -middle
    else:
        axis = half / np.linalg.norm(half)
        radius = np.sqrt(max(r_min**2 - half @ half, 0.0))
        toward = (middle @ axis) * axis - middle  # origin minus middle, in the circle's plane
    if radius == 0.0:
        return middle
    length = np.linalg.norm(toward)
    if length <= _LINE_TOLERANCE * (np.linalg.norm(middle) + r_min):
        return None
    return middle + radius * toward / length


def collinear_offsets(centres: np.ndarray) -> tuple[np.ndarray, float] | None:
    """Axial positions t of the centres along their best-fit line, and eta,
    the largest distance of a centre off it.

    Returns None when eta exceeds 1e-9 of the centres' spread about their mean.
    """
    offsets = centres - centres.mean(axis=0)
    axis = np.linalg.svd(offsets)[2][0]
    t = offsets @ axis
    eta = float(np.max(np.linalg.norm(offsets - t[:, None] * axis, axis=1)))
    if eta > _LINE_TOLERANCE * float(np.max(np.linalg.norm(offsets, axis=1))):
        return None
    return t, eta


def box_lower_bounds(t: np.ndarray, eta: float, params: LJParams, boxes: np.ndarray) -> np.ndarray:
    """A lower bound of sum g(|u - c_j|) over each box of (s, rho), g being ``lj_kernel``.

    ``boxes`` is (4, m): rows s_lo, s_hi, rho_lo, rho_hi.  A point at axial
    position s and distance rho from the line is sqrt((s - t_j)^2 + rho^2)
    from centre j's projection, which lies within eta of c_j, so over a box
    |u - c_j| fills at most [r_lo - eta, r_hi + eta].  g falls to its zero
    at r_min and rises after it, so its least value there is
    g(clip(r_min, r_lo - eta, r_hi + eta)): each term's bound is exact.
    """
    s_lo, s_hi, rho_lo, rho_hi = (row[:, None] for row in boxes)
    near = np.maximum(np.maximum(s_lo - t, t - s_hi), 0.0)
    far = np.maximum(np.abs(s_lo - t), np.abs(s_hi - t))
    r = np.clip(params.r_min, np.hypot(near, rho_lo) - eta, np.hypot(far, rho_hi) + eta)
    return lj_kernel(r * r, params).sum(axis=1)


def certify_lower_bound(t: np.ndarray, eta: float, params: LJParams, ceiling: float) -> bool:
    """Whether sum g(|u - c_j|) >= ``ceiling`` for every u, by branch and bound over (s, rho).

    Every term of a point farther than R + eta from each centre's projection
    is above g(R) = ceiling / n, so the boxes need only cover
    [min t - R - eta, max t + R + eta] x [0, R + eta].  They start about
    R + eta wide and are halved in both directions, one level at a time in
    NumPy, until every box's bound reaches the ceiling (True) or
    _BOUND_BOX_CAP boxes have been bounded (False).  ``params`` have unit
    depth (eps = 1), as ``solve_contact_placement`` passes them.
    """
    if ceiling <= 0.0:
        return True  # each term is >= 0
    level = ceiling / len(t)
    if level >= 1.0:
        return False  # g < 1 everywhere, so the far field is not ruled out
    reach = params.sigma * (2.0 / (1.0 - np.sqrt(level))) ** (1.0 / 6.0) + eta
    columns = int(np.ceil((np.ptp(t) + 2.0 * reach) / reach))
    edges = np.linspace(t.min() - reach, t.max() + reach, columns + 1)
    boxes = np.stack([edges[:-1], edges[1:], np.zeros(columns), np.full(columns, reach)])
    bounded = 0
    while boxes.shape[1]:
        bounded += boxes.shape[1]
        if bounded > _BOUND_BOX_CAP:
            return False
        s_lo, s_hi, rho_lo, rho_hi = boxes[:, box_lower_bounds(t, eta, params, boxes) < ceiling]
        s_mid, rho_mid = (s_lo + s_hi) / 2.0, (rho_lo + rho_hi) / 2.0
        boxes = np.concatenate([
            np.stack([s_a, s_b, rho_a, rho_b])
            for s_a, s_b in ((s_lo, s_mid), (s_mid, s_hi)) for rho_a, rho_b in ((rho_lo, rho_mid), (rho_mid, rho_hi))
        ], axis=1)
    return True


def solve_contact_placement(
    anchor_points,
    free_points,
    params: LJParams,
    base_transform: RigidTransform,
    config: OptimizerConfig,
    full_sum: bool = False,
) -> PlacementOutcome:
    """Translate the free atoms rigidly to minimize their contact energy.

    The answer is ``nearest_optimum`` for at most two centres whose floor
    can be reached, and otherwise the end point of Newton descent from
    u = 0, the base transform itself.  Its certificate (the floor, the
    (s, rho) bound for centres on one line to 1e-9 of their spread, or none)
    sets the target of the seeded search, so ``config`` may set none.  A tie,
    a bound that does not close, a search that finds a lower energy (its
    point is polished and used) and a descent that ends on its iteration
    budget (naming |g| there) each add a warning.  It solves the unit-depth
    energy, so the answer and its evaluation count do not depend on
    ``params.epsilon``, which scales only the energies it reports.
    """
    anchors = np.asarray(anchor_points, dtype=np.float64).reshape(-1, 3)
    free0 = np.asarray(free_points, dtype=np.float64).reshape(-1, 3)
    if anchors.shape != free0.shape:
        raise StericZipError("anchor and free point lists must have matching shapes")
    if not anchors.size:
        raise StericZipError("anchor and free point lists must not be empty")
    _check_no_search_target(config)
    k, eps, unit = anchors.shape[0], params.epsilon, replace(params, epsilon=1.0)
    floor = -(k * k if full_sum else k)

    objective = placement_objective(anchors, free0, unit, full_sum)
    centres = placement_centres(anchors, free0, full_sum)
    warnings = []

    def descend(start: np.ndarray) -> OptimizationResult:
        result = local_refine(objective, start, tol=1e-10, max_iters=500)
        # A line-search stop is the float floor of the energy (full_sum ends
        # there at |g| ~ 1e-8), so only a budget stop is news.
        if result.terminated_by == "budget":
            gnorm = float(np.linalg.norm(objective.gradient(result.best_point)))
            warnings.append(
                f"the placement descent stopped on its iteration budget at |g| = {gnorm * eps:.3g}, "
                "short of its tolerance; the sheet placement may not be at an optimum"
            )
        return result

    reachable = len(centres) <= 2 and np.linalg.norm(centres[-1] - centres[0]) <= 2.0 * params.r_min
    u = nearest_optimum(centres, params.r_min) if reachable else None
    if u is not None:
        value, evaluations = objective.evaluate(u), 0
    else:
        refined = descend(np.zeros(3))
        u, value, evaluations = refined.best_point, refined.best_value, refined.evaluations_used
        if reachable:
            warnings.append(
                "every optimum is equally near the template screw, so none is nearest; "
                "the sheet placement is the descent's end point"
            )

    line = None if reachable else collinear_offsets(centres)
    if value <= CERTIFICATE_GAP or (line is not None and certify_lower_bound(*line, unit, value - CERTIFICATE_GAP)):
        # The answer joins the search's first population, so it meets its own value.
        cfg = replace(config, target_value=value)
    else:
        if line is not None:
            warnings.append(
                f"no lower bound certifies the sheet placement (the branch and bound stops at "
                f"{_BOUND_BOX_CAP} boxes); the seeded search checks it over the whole box"
            )
        # The floor (value 0) ends the search early only when every contact can
        # reach r_min; it is no bound: adding A.ALA5.CB-G.ALA2.CB to the default
        # contacts gives a minimum of -2.242639 against a floor of -3.
        cfg = config if full_sum else replace(config, target_value=0.0, target_tolerance=1e-3)

    saec = minimize_saec(objective, cfg, x0=u)
    evaluations += saec.evaluations_used
    energy = value + floor
    if saec.best_value < value - 1e-9 * max(1.0, abs(energy)):
        warnings.append(
            f"the seeded search reached energy {(saec.best_value + floor) * eps:.6g}, below the "
            f"{energy * eps:.6g} of the placement from the template screw; "
            "the sheet placement depends on the seed"
        )
        refined = descend(saec.best_point)
        evaluations += refined.evaluations_used
        u, value = refined.best_point, refined.best_value
        energy = value + floor

    return PlacementOutcome(
        transform=base_transform.with_translation(base_transform.translation + u),
        optimizer_result=replace(saec, best_point=u, best_value=energy * eps, evaluations_used=evaluations),
        warnings=warnings,
    )


def place_opposing_sheet(unit: Structure, spec: FibrilSpec, contacts: list[ContactPair]) -> PlacementOutcome:
    """Solve the sheet-2 placement for the mutated asymmetric unit; ``contacts`` is ``spec.contacts()``.

    Anchors are read from the unit's coordinate block.  Each free atom is
    read as the image, under the lattice screw, of the same atom in its
    source chain, so ``G.ALA4.CB`` is the screw image of ``A.ALA4.CB``.
    """
    screw = spec.lattice.sheet2_transform
    anchors = unit.coords[[atom_row(unit, pair.first) for pair in contacts]]
    free0 = []
    for pair in contacts:
        source = replace(pair.second, chain_id=SCREW_SOURCES[pair.second.chain_id])
        try:
            free0.append(screw.apply(unit.coords[atom_row(unit, source)]))
        except SelectionError as exc:
            raise type(exc)(f"free atom {pair.second} is the screw image of {source}: {exc}") from None
    return solve_contact_placement(anchors, free0, spec.lj, screw, spec.optimizer, spec.full_sum)


@dataclass
class BuildReport:
    """The deterministic record of a build.

    ``contacts``, ``model_hbond_count``, ``clashes`` and ``parameters``
    (less ``full_sum``) are those of ``structure_energy_report(model,
    spec.lj, contacts=spec.contacts())``, so a contact row names its atoms
    ``first`` (the anchor) and ``second`` (the free atom).
    """

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


@contextmanager
def _stage(name: str):
    try:
        yield
    except BuildError:
        raise
    except Exception as exc:
        raise BuildError(name, str(exc)) from exc


def build_fibril_model(template: Structure, spec: FibrilSpec) -> tuple[Structure, BuildReport]:
    """Run the whole pipeline and return the twelve-chain model plus report."""
    warnings: list[str] = []
    contacts = spec.contacts()

    with _stage("template"):
        unit = template.subset(UNIT_CHAINS)
        ignored = [cid for cid in template.chain_ids() if cid not in UNIT_CHAINS]
        if ignored:
            warnings.append(f"template chain(s) {', '.join(ignored)} ignored; the model is built from A and B")

    with _stage("hbond-before"):
        hb_before = len(detect_hbonds(unit))

    with _stage("mutate"):
        unit = apply_sequence(unit, UNIT_CHAINS, spec.sequence)

    with _stage("hbond-after"):
        hb_after = len(detect_hbonds(unit))

    with _stage("placement"):
        placement = place_opposing_sheet(unit, spec, contacts)
        warnings.extend(placement.warnings)

    with _stage("replicate"):
        final = replicate_lattice(unit, replace(spec.lattice, sheet2_transform=placement.transform))

    with _stage("audit"):
        audit = structure_energy_report(final, spec.lj, contacts=contacts)
        if audit["clashes"]:
            warnings.append(f"{audit['clash_count']} steric clash(es) below {CLASH_CUTOFF} A; build marked failed")

    report = BuildReport(
        model_name=spec.model_name,
        sequence=spec.sequence,
        success=not audit["clashes"],
        warnings=warnings,
        chain_ids=final.chain_ids(),
        hbond_count_before=hb_before,
        hbond_count_after=hb_after,
        model_hbond_count=audit["hbond_count"],
        contacts=audit["contacts"],
        sheet_transform=placement.transform.to_values(),
        lattice_step=spec.lattice.intra_sheet_step.tolist(),
        optimizer={
            "evaluations": placement.optimizer_result.evaluations_used,
            "best_value": placement.optimizer_result.best_value,
            "terminated_by": placement.optimizer_result.terminated_by,
            "seed": spec.optimizer.seed,
        },
        clashes=audit["clashes"],
        parameters=audit["parameters"] | {"full_sum": spec.full_sum},
    )
    return final, report
