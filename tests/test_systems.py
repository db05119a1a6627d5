import copy
import pickle
import sys
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bct import systems
from bct.kernels import apply, extend_at, identity_kernel
from bct.labels import (
    Move,
    MoveKind,
    apply_moves_raw,
    enumerate_pure_labels,
    invert_moves,
    move_system,
    move_system_sequence,
    regroup,
    transport,
)
from bct.states import (
    apply_effect_at,
    apply_moves_to_vector,
    is_separable,
    marginal,
    pure_state,
    unit_effect,
)
from bct.serial import parse_system, system_to_str
from bct.systems import (
    ElementarySystem,
    Leaf,
    Node,
    TheoryMode,
    Trivial,
    bibit,
    compose_systems,
    delete_at,
    dimension,
    leaf,
    left_comb,
    replace_at,
    subtree_at,
    trivial,
)


def test_dimension_rule_bct():
    assert dimension(compose_systems(bibit(), bibit())) == 8
    assert dimension(compose_systems(leaf(5), trivial())) == 5
    assert dimension(left_comb([2, 2, 2])) == 32


def test_dimension_rule_ct():
    a = leaf(2, TheoryMode.CT)
    b = leaf(3, TheoryMode.CT)
    assert dimension(compose_systems(a, b)) == 6


def test_trivial_children_are_stripped():
    assert compose_systems(bibit(), trivial()) == bibit()
    assert compose_systems(trivial(), bibit()) == bibit()


def test_explicit_node_with_trivial_child_is_refused():
    for path, children in (("1", (leaf(5), trivial())), ("0", (trivial(), leaf(5)))):
        with pytest.raises(ValueError, match="compose_systems"):
            Node(TheoryMode.BCT, *children)
        assert dimension(compose_systems(*children)) == 5
        with pytest.raises(ValueError, match="compose_systems"):
            replace_at(compose_systems(leaf(5), bibit()), path, trivial())


def test_structural_identity():
    assert compose_systems(bibit(), bibit()) == compose_systems(bibit(), bibit())
    assert left_comb([2, 2, 2]) != compose_systems(
        bibit(), compose_systems(bibit(), bibit()))


@st.composite
def shapes(draw):
    """(mode, shape): 0-5 leaves of dims 2 or 3, a shape being a leaf's dim,
    a pair of shapes, or None for the trivial system."""
    def build(k):
        if k == 1:
            return draw(st.sampled_from((2, 3)))
        split = draw(st.integers(1, k - 1))
        return build(split), build(k - split)

    k = draw(st.integers(0, 5))
    return draw(st.sampled_from(tuple(TheoryMode))), None if k == 0 else build(k)


def composed(shape, mode):
    if shape is None:
        return trivial(mode)
    if isinstance(shape, int):
        return leaf(shape, mode)
    return compose_systems(composed(shape[0], mode), composed(shape[1], mode))


def constructed(shape, mode):
    """The same tree through the classes' own constructors."""
    if shape is None:
        return Trivial(mode)
    if isinstance(shape, int):
        return Leaf(mode, ElementarySystem(shape))
    return Node(mode, constructed(shape[0], mode), constructed(shape[1], mode))


def all_paths(system, prefix=""):
    out = [prefix]
    if isinstance(system, Node):
        out += all_paths(system.left, prefix + "0") + all_paths(system.right, prefix + "1")
    return out


def flat(shape):
    return [] if shape is None else [shape] if isinstance(shape, int) else [
        *flat(shape[0]), *flat(shape[1])]


@given(shapes())
def test_every_builder_returns_the_shared_tree(mode_shape):
    mode, shape = mode_shape
    tree = composed(shape, mode)
    assert tree.mode is mode
    assert composed(shape, mode) is tree and constructed(shape, mode) is tree
    assert left_comb(flat(shape), mode) is left_comb(flat(shape), mode)
    assert parse_system(system_to_str(tree), mode) is tree
    assert copy.copy(tree) is tree and copy.deepcopy(tree) is tree
    assert pickle.loads(pickle.dumps(tree)) is tree
    for path in all_paths(tree):
        part = subtree_at(tree, path)
        assert replace_at(tree, path, part) is tree
        assert replace_at(tree, path, leaf(2, mode)) is replace_at(tree, path, leaf(2, mode))
        assert delete_at(tree, path) is delete_at(tree, path)
        if path:
            moves = regroup(tree, path)
            moved = move_system_sequence(tree, moves)
            assert move_system_sequence(tree, moves) is moved
            assert move_system_sequence(moved, invert_moves(moves)) is tree
    other = TheoryMode.CT if mode is TheoryMode.BCT else TheoryMode.BCT
    refused = (((tree, trivial(mode)), "compose_systems"), ((tree, None), "two children"),
               ((tree, leaf(2, other)), "theory mode"))
    size = len(systems._TREES)
    for children, message in refused:
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                Node(mode, *children)
    assert len(systems._TREES) == size


def test_leaves_of_two_names_are_two_systems():
    assert leaf(3, name="program") is not leaf(3)
    assert leaf(3, name="program") is leaf(3, name="program")


def test_threads_that_build_one_new_tree_get_one_object():
    """Eight threads race to build the same new trees; each gets the one."""
    barrier = threading.Barrier(8, timeout=30)

    def build(out):
        barrier.wait()
        out.extend(compose_systems(leaf(2, name=f"race{k}"), leaf(3)) for k in range(2000))

    outs = [[] for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(out,)) for out in outs]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(len(out) == 2000 for out in outs)
    assert all(tree is first for out in outs[1:] for tree, first in zip(out, outs[0]))


def test_trees_of_two_modes_are_two_trees():
    for build in (trivial, bibit):
        assert build(TheoryMode.CT) is not build(TheoryMode.BCT)
        assert build(TheoryMode.CT).mode is TheoryMode.CT


def test_mode_mismatch_rejected():
    with pytest.raises(ValueError):
        compose_systems(bibit(), bibit(TheoryMode.CT))


def test_elementary_dim_bound():
    with pytest.raises(ValueError):
        ElementarySystem(1)
    for dim in (2.0, 2.5, True):
        with pytest.raises(ValueError, match="need an int dim"):
            leaf(dim)


def test_paths():
    tree = left_comb([2, 3, 2])
    assert subtree_at(tree, "01") == leaf(3)
    assert delete_at(tree, "01") == compose_systems(bibit(), bibit())
    assert delete_at(tree, "1") == compose_systems(bibit(), leaf(3))


@pytest.mark.parametrize("mode", [TheoryMode.BCT, TheoryMode.CT])
def test_deleting_the_whole_tree_leaves_the_trivial_system(mode):
    assert delete_at(left_comb([2, 3], mode), "") == trivial(mode)
    assert delete_at(leaf(3, mode), "") == trivial(mode)


@pytest.mark.parametrize("path", ["000", "011", "10"])
def test_a_deletion_off_the_tree_names_the_whole_path(path):
    with pytest.raises(ValueError, match=f"^path '{path}' leaves the tree$"):
        delete_at(left_comb([2, 3, 2]), path)


def braid(path):
    return [Move(MoveKind.BRAID, path)]


@pytest.mark.parametrize("walk, text", [
    (lambda path: subtree_at(bibit(), path), "leaves the tree"),
    (lambda path: apply_moves_raw(1, braid(path)), "leaves the label"),
], ids=["tree", "label"])
def test_a_long_path_off_the_tree_is_echoed_cut(walk, text):
    with pytest.raises(ValueError, match=f"^path '0{{80}}'\\.\\.\\. {text}$") as caught:
        walk("0" * 5000)
    assert len(str(caught.value)) < 120


# Every function that takes a path, called on a tree of three bibits, a
# state on it and a kernel or effect on one bibit.
PATH_TAKERS = {
    "subtree_at": lambda tree, rho, path: subtree_at(tree, path),
    "replace_at": lambda tree, rho, path: replace_at(tree, path, bibit(tree.mode)),
    "delete_at": lambda tree, rho, path: delete_at(tree, path),
    "move_system": lambda tree, rho, path: move_system(tree, braid(path)[0]),
    "transport": lambda tree, rho, path: transport(tree, braid(path)),
    "apply_moves_raw": lambda tree, rho, path: apply_moves_raw(((1, 2, 1), 1, 1), braid(path)),
    "apply_moves_to_vector": lambda tree, rho, path: apply_moves_to_vector(rho, braid(path)),
    "regroup": lambda tree, rho, path: regroup(tree, path),
    "extend_at": lambda tree, rho, path: extend_at(identity_kernel(bibit(tree.mode)), tree, path),
    "apply": lambda tree, rho, path: apply(identity_kernel(bibit(tree.mode)), rho, path),
    "apply_effect_at": lambda tree, rho, path: apply_effect_at(unit_effect(bibit(tree.mode)),
                                                               rho, path),
    "marginal": lambda tree, rho, path: marginal(rho, path),
    "is_separable": lambda tree, rho, path: is_separable(rho, path),
}


@pytest.mark.parametrize("mode", [TheoryMode.BCT, TheoryMode.CT])
@pytest.mark.parametrize("path", ["2", "x", "0a"])
@pytest.mark.parametrize("taker", sorted(PATH_TAKERS))
def test_a_step_other_than_0_or_1_is_refused(taker, path, mode):
    """No path is read as another: "2" is not the right child, and no
    selector reaches the regrouping with a step it cannot follow."""
    tree = left_comb([2, 2, 2], mode)
    rho = pure_state(tree, enumerate_pure_labels(tree)[0])
    with pytest.raises(ValueError, match=f"^path '{path}' has a step other than 0 or 1$"):
        PATH_TAKERS[taker](tree, rho, path)


def test_a_long_bad_path_is_echoed_cut():
    with pytest.raises(ValueError, match=r"^path '0{80}'\.\.\. has a step other than 0 or 1$"):
        subtree_at(bibit(), "0" * 100 + "2")


@given(st.integers(2, 7), st.integers(2, 7))
def test_dimension_commutes(da, db):
    a, b = leaf(da), leaf(db)
    assert dimension(compose_systems(a, b)) == dimension(compose_systems(b, a))
    assert dimension(compose_systems(a, b)) == 2 * da * db
    assert dimension(compose_systems(a, b)) >= da * db


@given(st.integers(2, 5), st.integers(2, 5), st.integers(2, 5))
def test_dimension_associates(da, db, dc):
    a, b, c = leaf(da), leaf(db), leaf(dc)
    left = compose_systems(compose_systems(a, b), c)
    right = compose_systems(a, compose_systems(b, c))
    assert dimension(left) == dimension(right)
