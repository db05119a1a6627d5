import pytest
from hypothesis import given
from hypothesis import strategies as st

from bct.systems import (
    ElementarySystem,
    Node,
    TheoryMode,
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


def test_mode_mismatch_rejected():
    with pytest.raises(ValueError):
        compose_systems(bibit(), bibit(TheoryMode.CT))


def test_elementary_dim_bound():
    with pytest.raises(ValueError):
        ElementarySystem(1)


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
