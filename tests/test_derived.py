"""Structures derived from checked ones: the checks they skip could not fail, and the ones they keep fail as in full.

``with_chains`` (and through it ``subset``, ``chain`` and
``transform_chain``), ``apply_sequence`` and ``mutate_residue`` build
their result from whole residues of a checked structure and check only
its chain ids and new coordinates.  Each derivation here is run twice:
as it is, and with every structure it makes checked in full, as
``from_columns`` checks one.  Both runs must give the same structure or
raise the same error, and a derived structure must be the one that
``from_columns`` makes of its own columns, bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atom_rows import rows_of, structure_from_rows
from stericzip import (
    MutationError,
    RigidTransform,
    StericZipError,
    Structure,
    StructureError,
    apply_sequence,
    mutate_residue,
    synthetic_template,
    transform_chain,
)
from stericzip.pdbio import _DTYPES
from stericzip.template import SHEET_FLIP_ROTATION

NON_FINITE = "non-finite position, occupancy or B-factor"
NO_CB = "N or C lies on CA, so CB has no direction"
HUGE_SHIFT = RigidTransform(np.eye(3), [0.0, 0.0, 1.7e308])  # twice over, it passes the largest double


def fully_checked(derive):
    """``derive()`` with every structure it makes given the full invariant check."""
    original = Structure._set
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Structure, "_set", lambda self, headers, chain_ids, columns, fresh=None: original(
            self, headers, chain_ids, columns))
        return derive()


def outcome(derive):
    """The structure ``derive()`` returns, or the type and message of the error it raises."""
    try:
        return derive()
    except StericZipError as exc:
        return type(exc), str(exc)


def assert_is_its_columns(s):
    """``s`` is ``from_columns`` of its own columns, in value, dtype, bits and read-only flags."""
    remade = Structure.from_columns(s.headers, s.chain_ids(), **{name: getattr(s, name) for name in _DTYPES})
    assert s == remade
    pairs = [(getattr(s, name), getattr(remade, name)) for name in _DTYPES]
    pairs += [(s.atom_residues(), remade.atom_residues()), (s.atom_chains(), remade.atom_chains())]
    for mine, theirs in pairs:
        assert mine.dtype == theirs.dtype and mine.shape == theirs.shape
        assert mine.tobytes() == theirs.tobytes()
        assert not mine.flags.writeable and not theirs.flags.writeable


def assert_derives_as_checked(derive):
    """``derive()`` gives what it gives with every check made, and a structure that is its own columns."""
    fast, full = outcome(derive), outcome(lambda: fully_checked(derive))
    if isinstance(full, tuple):
        assert fast == full
        return full
    assert isinstance(fast, Structure) and fast == full
    assert_is_its_columns(fast)
    return fast


coordinates = st.floats(-60.0, 60.0, allow_nan=False, width=32)
# A residue at the origin has coincident N, CA and C, so no CB can be built
# on it, and one near the largest double overflows when it is moved.
positions = st.one_of(st.sampled_from([(0.0, 0.0, 0.0), (1.7e308, 0.0, 0.0)]),
                      st.tuples(coordinates, coordinates, coordinates))
odd_values = st.sampled_from([np.nan, np.inf, -np.inf, 1e308])


@st.composite
def checked_structures(draw):
    """One to three chains of one to six residues, each with its backbone and some side-chain atoms."""
    ids = draw(st.lists(st.sampled_from("ABCDE"), min_size=1, max_size=3, unique=True))
    rows = []
    for chain_id in ids:
        numbers = draw(st.lists(st.integers(-9, 300), min_size=1, max_size=6, unique=True))
        for number in sorted(numbers):
            res_name = draw(st.sampled_from(["ALA", "GLY", "SER", "TYR"]))
            side = draw(st.lists(st.sampled_from(["CB", "CG", "OG"]), unique=True, max_size=3))
            at = draw(positions)
            rows += [(chain_id, number, res_name, name, at) for name in ["N", "CA", "C", "O", *side]]
    n = len(rows)
    floats = st.lists(st.floats(0.0, 99.0, width=32), min_size=n, max_size=n)
    return structure_from_rows(
        rows, [draw(st.sampled_from(["", "REMARK 1 DRAWN"]))],
        alt_locs=draw(st.lists(st.sampled_from(["", "A"]), min_size=n, max_size=n)),
        occupancy=draw(floats), temp_factor=draw(floats),
        elements=draw(st.lists(st.sampled_from(["", "C", "N"]), min_size=n, max_size=n)),
        hetatm=draw(st.lists(st.booleans(), min_size=n, max_size=n)),
        seg_ids=draw(st.lists(st.sampled_from(["", "SEGA"]), min_size=n, max_size=n)),
        charges=draw(st.lists(st.sampled_from(["", "1+"]), min_size=n, max_size=n)),
    )


@st.composite
def derivations(draw):
    """A checked structure and one derivation of it, as a function of no arguments."""
    s = draw(checked_structures())
    ids = s.chain_ids()
    kind = draw(st.sampled_from(["with_chains", "subset", "transform_chain", "apply_sequence", "mutate_residue"]))
    if kind in ("with_chains", "subset"):
        # New ids may repeat, and a source may appear under several of them.
        sources = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=4))
        if kind == "subset":
            return s, lambda: s.subset(sources)
        chains = [(draw(st.sampled_from("ABCDEFG")), source) for source in sources]
        n = sum(s.atom_slice(source).stop - s.atom_slice(source).start for source in sources)
        coords = draw(st.one_of(st.none(), st.lists(positions, min_size=n, max_size=n)))
        if coords is not None and draw(st.booleans()):
            coords[draw(st.integers(0, n - 1))] = (0.0, draw(odd_values), 0.0)
        return s, lambda: s.with_chains(chains, coords)
    if kind == "transform_chain":
        shift = draw(st.sampled_from([0.0, 3.5, 1.7e308]))
        transform = RigidTransform(draw(st.sampled_from([np.eye(3), SHEET_FLIP_ROTATION])), [shift, 0.0, 0.0])
        source, new_id = draw(st.sampled_from(ids)), draw(st.sampled_from("ABCDEFG"))
        return s, lambda: transform_chain(s, source, transform, new_id)
    if kind == "apply_sequence":
        chosen = tuple(draw(st.lists(st.sampled_from(ids), min_size=1, max_size=2)))
        sequence = draw(st.text(alphabet="AG", min_size=6, max_size=6))
        return s, lambda: apply_sequence(s, chosen, sequence)
    chain_id = draw(st.sampled_from(ids))
    res_seq, target = draw(st.sampled_from(s.chain(chain_id).res_seqs.tolist())), draw(st.sampled_from(["ALA", "GLY"]))
    return s, lambda: mutate_residue(s, chain_id, res_seq, target)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(derivations())
def test_a_derived_structure_is_the_checked_structure_of_its_columns(derivation):
    source, derive = derivation
    assert_is_its_columns(source)
    assert_derives_as_checked(derive)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("derive, error", [
    (lambda s: s.with_chains([("A", "A"), ("A", "B")]), "chain id 'A' is repeated in ['A', 'A']"),
    (lambda s: s.subset(["B", "A", "B"]), "chain id 'B' is repeated in ['B', 'A', 'B']"),
    (lambda s: transform_chain(s, "A", RigidTransform.identity(), "A"), "chain id 'A' is repeated in ['A', 'B', 'A']"),
    (lambda s: s.with_chains([("B", "B")], np.where(np.arange(s.chain("B").n_atoms() * 3) == 4, np.nan, 1.0)),
     f"atom CA: {NON_FINITE}"),
    (lambda s: s.with_chains([("A", "A"), ("C", "B")], np.full((s.n_atoms(), 3), np.inf)), f"atom N: {NON_FINITE}"),
    (lambda s: transform_chain(transform_chain(s, "B", HUGE_SHIFT, "C"), "C", HUGE_SHIFT, "D"), f"atom N: {NON_FINITE}"),
    (lambda s: apply_sequence(s, ("A", "B"), "AGAAAA"), f"residue A.GLY127: {NO_CB}"),
    (lambda s: mutate_residue(s, "B", 131, "ALA"), f"residue B.GLY131: {NO_CB}"),
], ids=["with-chains-duplicate-id", "subset-duplicate-id", "transform-onto-own-id", "nan-coordinate",
        "infinite-coordinates", "overflowing-transform", "apply-sequence-cb", "mutate-residue-cb"])
def test_each_fault_raises_as_the_full_check_raises_it(derive, error):
    s = synthetic_template()
    # Glycine 127 of chain A and 131 of chain B get coincident N, CA and C,
    # so the CB that making them ALA would build has no direction.
    collapsed = [(c, n, name, atom, (0.0, 0.0, 0.0) if (c, n) in (("A", 127), ("B", 131)) else at)
                 for c, n, name, atom, at in rows_of(s)]
    s = structure_from_rows(collapsed, s.headers)
    kind = MutationError if error.startswith("residue") else StructureError
    assert assert_derives_as_checked(lambda: derive(s)) == (kind, error)

