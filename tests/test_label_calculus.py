"""The raw rewriting body against the frozen object calculus.

`label_calculus_oracle` keeps the moves as they were on `NodeLabel` trees.
Here hypothesis draws system trees of up to 5 leaves (and the trivial
system) in BCT and CT, labels of them by basis index, and move sequences:
every single move at every path of the tree, walks of moves the tree's shape
admits, and arbitrary moves that may leave the label or not fit it.  Under
no fault and under each known fault, `apply_moves_raw` on the raw label,
`apply_moves_tracked` on the label object and the oracle give the same label
and flip, or the same refusal; and the moved raw label codes to the index
that the transport's probe once read off the oracle's label (its + twin in
CT).  One function built by `moves_raw` and run on a tree's whole basis
walk (`Coder.raws`, which is the decoding of each index in order) as one
block agrees with both label by label, and keeps the fault in force when
it was built; a block with one label a move does not fit is refused as
that label is.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bct import faults
from bct.labels import (
    Move,
    MoveKind,
    apply_moves_raw,
    apply_moves_tracked,
    basis_size,
    coder,
    label_of,
    move_system,
    moves_raw,
    raw_of,
)
from bct.systems import Node, SystemTree, TheoryMode, compose_systems, leaf, trivial

import label_calculus_oracle as oracle

FAULTS = (None,) + faults.KNOWN_FAULTS
KINDS = tuple(MoveKind)
ORACLE = settings(max_examples=100, deadline=None)


@st.composite
def systems(draw, leaves=(0, 5)):
    """A system tree of up to 5 leaves of dims 2 or 3, or the trivial system."""
    mode = draw(st.sampled_from(tuple(TheoryMode)))

    def build(k):
        if k == 1:
            return leaf(draw(st.sampled_from((2, 3))), mode)
        split = draw(st.integers(1, k - 1))
        return compose_systems(build(split), build(k - split))

    k = draw(st.integers(*leaves))
    return trivial(mode) if k == 0 else build(k)


def paths(system: SystemTree, prefix: str = "") -> list[str]:
    """Every subtree path of `system`, the whole tree first."""
    out = [prefix]
    if isinstance(system, Node):
        out += paths(system.left, prefix + "0") + paths(system.right, prefix + "1")
    return out


def fitting(system: SystemTree) -> list[Move]:
    """The moves the shape of `system` admits."""
    moves = []
    for path in paths(system):
        for kind in KINDS:
            try:
                move_system(system, Move(kind, path))
            except ValueError:
                continue
            moves.append(Move(kind, path))
    return moves


def outcome(run, *args):
    try:
        return run(*args)
    except ValueError as refused:
        return "refused", str(refused)


def assert_agree(system: SystemTree, index: int, moves: list[Move]) -> None:
    """The raw body, its label wrapper and the oracle agree on the label at
    `index` of `system` moved along `moves`, under every fault."""
    raw = coder(system).raw(index)
    label = coder(system).label(index)
    assert raw_of(label) == raw and label_of(raw) == label
    for fault in FAULTS:
        with faults.inject_fault(fault):
            expected = outcome(oracle.apply_moves_tracked, label, moves)
            moved = outcome(apply_moves_raw, raw, moves)
            tracked = outcome(apply_moves_tracked, label, moves)
        assert tracked == expected, (fault, moves)
        if expected[0] == "refused":
            assert moved == expected, (fault, moves)
            continue
        assert moved == (raw_of(expected[0]), expected[1]), (fault, moves)
        target = system
        for move in moves:
            target = move_system(target, move)
        twin = expected[0] if target.mode is TheoryMode.BCT else oracle.plus_twin(expected[0])
        assert coder(target).raw_index(moved[0]) == coder(target).index(twin)


@ORACLE
@given(system=systems(), pick=st.integers(0, 10 ** 6))
def test_every_single_move_at_every_path(system, pick):
    index = pick % coder(system).dim
    for path in paths(system) + ["0", "1", "00"]:
        for kind in KINDS:
            assert_agree(system, index, [Move(kind, path)])


@ORACLE
@given(system=systems(leaves=(2, 5)), data=st.data())
def test_walks_the_shape_admits(system, data):
    index = data.draw(st.integers(0, coder(system).dim - 1))
    moves, shape = [], system
    for _ in range(data.draw(st.integers(1, 8))):
        move = data.draw(st.sampled_from(fitting(shape)))
        moves.append(move)
        shape = move_system(shape, move)
    assert_agree(system, index, moves)


arbitrary_move = st.builds(Move, st.sampled_from(KINDS), st.text(alphabet="01", max_size=4))
arbitrary_moves = st.lists(arbitrary_move, max_size=6)


@ORACLE
@given(system=systems(), pick=st.integers(0, 10 ** 6), moves=arbitrary_moves)
def test_arbitrary_moves_agree_or_are_refused_alike(system, pick, moves):
    assert_agree(system, pick % coder(system).dim, moves)


@pytest.mark.parametrize("raw, kind, path, message", [
    (1, MoveKind.BRAID, "", "braid needs a node"),
    (0, MoveKind.ASSOC_L, "", "assoc left needs shape (x (y z))"),
    ((1, (2, 3, -1), 1), MoveKind.ASSOC_R, "", "assoc right needs shape ((x y) z)"),
    (((1, 2, -1), 3, 1), MoveKind.ASSOC_L, "", "assoc left needs shape (x (y z))"),
    (((1, 2, -1), 3, 1), MoveKind.BRAID, "10", "path '10' leaves the label"),
], ids=["braid-leaf", "assoc-unit", "assoc-r-flat-left", "assoc-l-flat-right", "path-off"])
def test_each_shape_error_is_kept(raw, kind, path, message):
    for run, arg in ((apply_moves_raw, raw), (apply_moves_tracked, label_of(raw)),
                     (oracle.apply_moves_tracked, label_of(raw))):
        with pytest.raises(ValueError) as refused:
            run(arg, [Move(kind, path)])
        assert str(refused.value) == message


@ORACLE
@given(system=systems())
def test_the_basis_walk_decodes_each_index_in_order(system):
    code = coder(system)
    assert list(code.raws()) == [code.raw(i) for i in range(basis_size(system))]


@ORACLE
@given(system=systems(leaves=(0, 4)), data=st.data())
def test_one_sequence_function_moves_a_whole_basis(system, data):
    """Built once per fault and run on the whole basis walk of the tree as
    one block, the function of a walk the shape admits (and an arbitrary
    tail, which may be refused) agrees label by label with
    `apply_moves_raw` and the oracle, or is refused alike."""
    moves, shape = [], system
    for _ in range(data.draw(st.integers(0, 6))):
        admitted = fitting(shape)
        if not admitted:
            break
        moves.append(data.draw(st.sampled_from(admitted)))
        shape = move_system(shape, moves[-1])
    moves += data.draw(st.lists(arbitrary_move, max_size=2))
    for fault in FAULTS:
        with faults.inject_fault(fault):
            raws = list(coder(system).raws())
            block = outcome(moves_raw(moves), raws)
            for k, raw in enumerate(raws):
                expected = outcome(oracle.apply_moves_tracked, label_of(raw), moves)
                if expected[0] == "refused":
                    assert block == expected, (fault, moves, raw)
                else:
                    expected = raw_of(expected[0]), expected[1]
                    assert (block[0][k], block[1][k]) == expected, (fault, moves, raw)
                assert outcome(apply_moves_raw, raw, moves) == expected, (fault, moves, raw)


def test_a_sequence_function_keeps_the_fault_it_was_built_under():
    """The fault is read when the function is built, not when it runs."""
    raw, moves = ((1, 2, -1), 1, 1), [Move(MoveKind.BRAID, "0")]
    with faults.inject_fault(faults.BRAID_SIGN):
        faulted = moves_raw(moves)
        label, flip = oracle.apply_moves_tracked(label_of(raw), moves)
        in_fault = [raw_of(label)], [flip]
    plain = moves_raw(moves)
    label, flip = oracle.apply_moves_tracked(label_of(raw), moves)
    no_fault = [raw_of(label)], [flip]
    assert in_fault != no_fault
    assert faulted([raw]) == in_fault
    with faults.inject_fault(faults.BRAID_SIGN):
        assert plain([raw]) == no_fault


def full(depth: int, sign: int = -1) -> object:
    """The raw label of the full binary tree of `depth`, its signs alternating."""
    return 1 if depth == 0 else (full(depth - 1, -sign), full(depth - 1, sign), sign)


# Raw labels of every shape a rule or a climb of up to two links tells apart,
# and one (the full tree of depth 4) that each move at each path below fits.
SHAPES = (0, 1, (1, 2, -1), ((1, 2, -1), 3, 1), (1, (2, 3, 1), -1), full(3), full(4))


@pytest.mark.parametrize("path", ["", "0", "1", "01"])
@pytest.mark.parametrize("kind", KINDS)
def test_a_block_is_refused_as_its_offending_label(kind, path):
    """A block that mixes labels one move fits with one label it does not
    fit (a leaf among nodes, or a node of another shape), wherever that
    label stands, raises the `ValueError` that the move raises on that
    label alone, from the rule or from the climb, and never a `TypeError`."""
    moves = [Move(kind, path)]
    alone = {raw: outcome(apply_moves_raw, raw, moves) for raw in SHAPES}
    fits = [raw for raw in SHAPES if alone[raw][0] != "refused"]
    assert fits
    for offender in (raw for raw in SHAPES if alone[raw][0] == "refused"):
        for at in range(len(fits) + 1):
            block = fits[:at] + [offender] + fits[at:]
            with pytest.raises(ValueError) as refused:
                moves_raw(moves)(block)
            assert ("refused", str(refused.value)) == alone[offender], (block, moves)
    moved, flips = moves_raw(moves)(fits)
    assert list(zip(moved, flips)) == [alone[raw] for raw in fits]
