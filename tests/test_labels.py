import copy
import pickle
import random
import re
import sys
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bct.kernels import Kernel
from bct.labels import (
    LeafLabel,
    Move,
    MoveKind,
    NodeLabel,
    UNIT,
    apply_moves_tracked,
    coder,
    enumerate_pure_labels,
    invert_moves,
    label_to_str,
    move_system,
    regroup,
)
from bct.serial import E_LABEL_RANGE, ParseError, parse_label
from bct.states import StateVector
from bct.systems import (
    Node,
    TheoryMode,
    bibit,
    compose_systems,
    leaf,
    left_comb,
    subtree_at,
    trivial,
)

from kernel_helpers import label_sort_key


def lab(i):
    return LeafLabel(i)


def node(l, r, s):
    return NodeLabel(l, r, s)


def test_enumerate_counts_and_order():
    assert enumerate_pure_labels(bibit()) == [lab(1), lab(2)]
    ab = compose_systems(bibit(), bibit())
    out = enumerate_pure_labels(ab)
    assert len(out) == 8
    assert out[:4] == [node(lab(1), lab(1), -1), node(lab(1), lab(1), 1),
                       node(lab(1), lab(2), -1), node(lab(1), lab(2), 1)]
    assert len(enumerate_pure_labels(left_comb([2, 2, 2]))) == 32


def test_enumerate_ct_has_no_signs():
    ab = compose_systems(bibit(TheoryMode.CT), bibit(TheoryMode.CT))
    out = enumerate_pure_labels(ab)
    assert len(out) == 4
    assert all(l.sign == 1 for l in out)


def test_enumerate_is_a_bijection():
    tree = left_comb([2, 3, 2])
    out = enumerate_pure_labels(tree)
    assert len(out) == len(set(out)) == 48
    assert [coder(tree).index(l) for l in out] == list(range(48))


def test_enumerate_bound():
    with pytest.raises(ValueError):
        enumerate_pure_labels(left_comb([2] * 7))
    assert len(enumerate_pure_labels(left_comb([2] * 7), bound=10 ** 6)) == 8192


def test_env_var_overrides_bound(monkeypatch):
    monkeypatch.setenv("BCT_MAX_DIM", "16")
    with pytest.raises(ValueError):
        enumerate_pure_labels(left_comb([2, 2, 2]))
    monkeypatch.setenv("BCT_MAX_DIM", "100000")
    assert len(enumerate_pure_labels(left_comb([2] * 7))) == 8192


def test_assoc_move_examples():
    right, left = Move(MoveKind.ASSOC_R), Move(MoveKind.ASSOC_L)
    # ((i j)+ k)-  ->  (i (j k)-)+
    before = node(node(lab(1), lab(2), 1), lab(1), -1)
    after = apply_moves_tracked(before, [right])[0]
    assert after == node(lab(1), node(lab(2), lab(1), -1), 1)
    # all-plus fixed point
    before = node(node(lab(1), lab(2), 1), lab(1), 1)
    assert apply_moves_tracked(before, [right])[0] == \
        node(lab(1), node(lab(2), lab(1), 1), 1)
    # round trip
    before = node(node(lab(1), lab(2), -1), lab(1), -1)
    there = apply_moves_tracked(before, [right])[0]
    assert there == node(lab(1), node(lab(2), lab(1), 1), -1)
    assert apply_moves_tracked(there, [left])[0] == before


def test_braid_move_examples():
    braid = Move(MoveKind.BRAID)
    assert apply_moves_tracked(node(lab(1), lab(2), -1), [braid])[0] == \
        node(lab(2), lab(1), -1)
    twice = apply_moves_tracked(node(lab(1), lab(2), -1), [braid, braid])[0]
    assert twice == node(lab(1), lab(2), -1)
    nested = node(node(lab(1), lab(2), 1), lab(1), -1)
    assert apply_moves_tracked(nested, [braid])[0] == \
        node(lab(1), node(lab(1), lab(2), 1), -1)


def test_braid_flip_propagation():
    # braiding an inner minus node flips the ancestor reached from the left
    label = node(node(lab(1), lab(1), -1), lab(1), 1)
    out, env = apply_moves_tracked(label, [Move(MoveKind.BRAID, "0")])
    assert out == node(node(lab(1), lab(1), -1), lab(1), -1)
    assert env == -1
    # braiding at a right child is absorbed at its parent
    label = node(lab(1), node(lab(1), lab(1), -1), 1)
    out, env = apply_moves_tracked(label, [Move(MoveKind.BRAID, "1")])
    assert out == node(lab(1), node(lab(1), lab(1), -1), -1)
    assert env == 1


def test_move_shape_errors():
    with pytest.raises(ValueError):
        apply_moves_tracked(lab(1), [Move(MoveKind.BRAID)])
    with pytest.raises(ValueError):
        apply_moves_tracked(node(lab(1), lab(2), 1), [Move(MoveKind.ASSOC_R)])


@pytest.mark.parametrize("kind, refusal", [
    (MoveKind.ASSOC_R, "assoc right needs shape ((x y) z)"),
    (MoveKind.ASSOC_L, "assoc left needs shape (x (y z))"),
    (MoveKind.BRAID, "braid needs a node"),
])
def test_labels_and_trees_refuse_a_move_alike(kind, refusal):
    """A label and a system tree too flat for a move get the same refusal."""
    if kind is MoveKind.BRAID:
        label, tree = lab(1), bibit()
    else:
        label, tree = node(lab(1), lab(2), 1), compose_systems(bibit(), bibit())
    with pytest.raises(ValueError, match=f"^{re.escape(refusal)}$"):
        apply_moves_tracked(label, [Move(kind)])
    with pytest.raises(ValueError, match=f"^{re.escape(refusal)}$"):
        move_system(tree, Move(kind))


def test_regroup_examples():
    two = compose_systems(bibit(), bibit())
    assert regroup(two, "0") == []
    assert regroup(two, "1") == [Move(MoveKind.BRAID, "")]
    tree = left_comb([2, 2, 2])
    moves = regroup(tree, "01")
    for label in enumerate_pure_labels(tree):
        out = apply_moves_tracked(label, moves)[0]
        assert isinstance(out, NodeLabel) and isinstance(out.left, LeafLabel)


def test_regroup_refuses_the_whole_tree():
    with pytest.raises(ValueError, match="cannot regroup the full tree against nothing"):
        regroup(compose_systems(bibit(), bibit()), "")


def test_regroup_exposes_any_subtree():
    tree = compose_systems(compose_systems(bibit(), leaf(3)),
                           compose_systems(bibit(), bibit()))
    for target in ("0", "1", "00", "01", "10", "11"):
        moves = regroup(tree, target)
        shaped = tree
        for m in moves:
            shaped = move_system(shaped, m)
        assert isinstance(shaped, Node)
        assert shaped.left == subtree_at(tree, target)


def test_move_sequences_invert():
    tree = left_comb([2, 2, 3])
    rng = random.Random(5)
    for _ in range(100):
        moves, shaped = _random_walk(rng, tree, rng.randrange(1, 6))
        inverse = invert_moves(moves)
        for label in enumerate_pure_labels(tree):
            there, f1 = apply_moves_tracked(label, moves)
            back, f2 = apply_moves_tracked(there, inverse)
            assert back == label and f1 * f2 == 1


def _random_walk(rng, tree, n):
    moves = []
    cur = tree
    for _ in range(n):
        candidates = []

        def collect(t, p):
            if isinstance(t, Node):
                candidates.append(Move(MoveKind.BRAID, p))
                if isinstance(t.left, Node):
                    candidates.append(Move(MoveKind.ASSOC_R, p))
                if isinstance(t.right, Node):
                    candidates.append(Move(MoveKind.ASSOC_L, p))
                collect(t.left, p + "0")
                collect(t.right, p + "1")

        collect(cur, "")
        m = rng.choice(candidates)
        moves.append(m)
        cur = move_system(cur, m)
    return moves, cur


def _leaf_count(tree):
    if not isinstance(tree, Node):
        return 1
    return _leaf_count(tree.left) + _leaf_count(tree.right)


def _leaf_permutation(tree, moves):
    perm = tuple(range(_leaf_count(tree)))
    cur = tree
    for m in moves:
        if m.kind is MoveKind.BRAID:
            node_at, offset = cur, 0
            for step in m.path:
                if step == "0":
                    node_at = node_at.left
                else:
                    offset += _leaf_count(node_at.left)
                    node_at = node_at.right
            nl = _leaf_count(node_at.left)
            nr = _leaf_count(node_at.right)
            perm = (perm[:offset] + perm[offset + nl:offset + nl + nr]
                    + perm[offset:offset + nl] + perm[offset + nl + nr:])
        cur = move_system(cur, m)
    return perm


def test_path_independence():
    """Sequences with the same shape and leaf permutation agree on labels."""
    tree = left_comb([2, 2, 3])
    rng = random.Random(11)
    compared = 0
    for _ in range(800):
        m1, t1 = _random_walk(rng, tree, rng.randrange(1, 7))
        m2, t2 = _random_walk(rng, tree, rng.randrange(1, 7))
        if t1 != t2 or _leaf_permutation(tree, m1) != _leaf_permutation(tree, m2):
            continue
        compared += 1
        for label in enumerate_pure_labels(tree):
            assert apply_moves_tracked(label, m1) == apply_moves_tracked(label, m2)
    assert compared >= 30


@given(st.integers(1, 2), st.integers(1, 2), st.sampled_from((-1, 1)),
       st.sampled_from((-1, 1)))
def test_assoc_round_trip_property(i, j, s1, s2):
    label = node(node(lab(i), lab(j), s1), lab(1), s2)
    round_trip = [Move(MoveKind.ASSOC_R), Move(MoveKind.ASSOC_L)]
    assert apply_moves_tracked(label, round_trip)[0] == label


def test_sort_key_orders_signs_minus_first():
    a = node(lab(1), lab(1), -1)
    b = node(lab(1), lab(1), 1)
    assert label_sort_key(a) < label_sort_key(b)


def test_non_canonical_trees_are_refused():
    """A Node never has a trivial child; compose_systems strips it instead."""
    for children in ((leaf(2), trivial()), (trivial(), leaf(2))):
        with pytest.raises(ValueError, match="compose_systems"):
            Node(TheoryMode.BCT, *children)
        tree = compose_systems(*children)
        assert enumerate_pure_labels(tree) == [lab(1), lab(2)]
        assert coder(tree).index(lab(1)) == 0
        assert coder(tree).index(node(lab(1), lab(1), 1)) is None


class TestNodeLabelContract:
    """`NodeLabel` keeps the frozen-dataclass contract, with its sign checked."""

    @pytest.fixture(params=[TheoryMode.BCT, TheoryMode.CT], ids=["BCT", "CT"])
    def parts(self, request):
        """(left, right, sign) of a label of ((2 3) 2) in the mode."""
        sign = -1 if request.param is TheoryMode.BCT else 1
        left = node(lab(2), lab(3), sign)
        assert coder(left_comb([2, 3, 2], request.param)).index(node(left, lab(1), 1)) \
            is not None
        return left, lab(1), 1

    @pytest.mark.parametrize("sign", [0, 2, -2])
    def test_a_sign_off_plus_or_minus_one_is_refused(self, parts, sign):
        left, right, _ = parts
        message = re.escape(f"sign must be -1 or +1, got {sign}")
        with pytest.raises(ValueError, match=message):
            NodeLabel(left, right, sign)
        with pytest.raises(ValueError, match=message):
            NodeLabel(left=left, right=right, sign=sign)

    def test_keyword_and_positional_construction_agree(self, parts):
        left, right, sign = parts
        label = NodeLabel(left, right, sign)
        assert (label.left, label.right, label.sign) == parts
        assert NodeLabel(left=left, right=right, sign=sign) == label
        assert NodeLabel(left, right=right, sign=sign) == label
        assert NodeLabel(left, right).sign == 1
        assert NodeLabel(right=right, left=left) == label

    def test_only_the_three_fields_are_parameters(self, parts):
        with pytest.raises(TypeError):
            NodeLabel(*parts, _hash=0)
        with pytest.raises(TypeError):
            NodeLabel(*parts, 0)

    @pytest.mark.parametrize("name", ["left", "right", "sign"])
    def test_fields_can_be_neither_set_nor_deleted(self, parts, name):
        label = NodeLabel(*parts)
        with pytest.raises(FrozenInstanceError):
            setattr(label, name, getattr(label, name))
        with pytest.raises(FrozenInstanceError):
            delattr(label, name)
        assert NodeLabel(*parts) == label

    def test_the_hash_is_the_hash_of_the_fields(self, parts):
        label = NodeLabel(*parts)
        assert hash(label) == hash(parts) == hash(NodeLabel(*parts))
        assert label.__slots__ == ("left", "right", "sign")

    @pytest.mark.parametrize("clone", [
        copy.copy, copy.deepcopy, lambda label: pickle.loads(pickle.dumps(label))],
        ids=["copy", "deepcopy", "pickle"])
    def test_copies_are_equal_and_hash_alike(self, parts, clone):
        label = NodeLabel(*parts)
        copied = clone(label)
        assert copied == label
        assert hash(copied) == hash(label)
        assert repr(copied) == repr(label)


def python_calls(fn, *args, **kwargs) -> list[str]:
    """The Python functions entered while `fn(*args, **kwargs)` runs, in order."""
    calls = []

    def profile(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        fn(*args, **kwargs)
    finally:
        sys.setprofile(None)
    return calls


@pytest.mark.parametrize("member", [TheoryMode.BCT, TheoryMode.CT, MoveKind.ASSOC_L,
                                    MoveKind.ASSOC_R, MoveKind.BRAID])
def test_mode_and_move_kind_hash_in_c(member):
    """Every tree node and every move lookup hashes one of these."""
    assert python_calls(hash, member) == []


BCT, CT = TheoryMode.BCT, TheoryMode.CT


def hash_frames(a, b):
    """The `__hash__` frames a warm `coder(compose_systems(a, b))` enters."""
    coder(compose_systems(a, b))
    return python_calls(lambda: coder(compose_systems(a, b))).count("__hash__")


def test_a_coder_lookup_hashes_no_frame_per_node():
    """A frame count: a shared tree hashes by identity, in C, so a lookup
    enters no `__hash__` frame, for a depth-6 tree as for depth 2."""
    shallow = hash_frames(left_comb([3, 2]), leaf(2))
    deep = hash_frames(left_comb([3, 2, 2, 2, 2, 2]), leaf(2))
    assert shallow == deep == 0


@pytest.mark.parametrize("mode", [BCT, CT], ids=["BCT", "CT"])
@pytest.mark.parametrize("dims, label", [
    ([3], lab(0)),
    ([3], lab(4)),
    ([3], UNIT),
    ([3], node(lab(1), lab(1), 1)),
    ([3, 2], lab(1)),
    ([3, 2], UNIT),
    ([3, 2], node(lab(4), lab(1), 1)),
    ([3, 2], node(lab(1), lab(0), 1)),
    ([3, 2], node(node(lab(1), lab(1), 1), lab(1), 1)),
    ([3, 2, 2], node(lab(1), node(lab(1), lab(1), 1), 1)),
    ([], lab(1)),
    ([], node(lab(1), lab(1), 1)),
    ([3], "1"), ([3], 1), ([3], None), ([3, 2], (lab(1), lab(1), 1)), ([], "*"),
], ids=["leaf-0", "leaf-dim+1", "unit-on-leaf", "node-on-leaf", "leaf-on-node",
        "unit-on-node", "left-past-dim", "right-0", "node-too-deep", "wrong-shape",
        "leaf-on-trivial", "node-on-trivial", "str", "int", "None", "tuple",
        "str-on-trivial"])
def test_index_refuses_what_is_not_a_label_of_the_system(mode, dims, label):
    assert coder(left_comb(dims, mode)).index(label) is None


@pytest.mark.parametrize("label", [
    node(lab(1), lab(2), -1),
    node(node(lab(1), lab(2), 1), lab(1), -1),
    node(node(lab(1), lab(2), -1), lab(1), 1),
], ids=["root", "outer", "inner"])
def test_index_refuses_a_minus_sign_in_ct_only(label):
    dims = [2, 2] if isinstance(label.left, LeafLabel) else [2, 2, 2]
    assert coder(left_comb(dims, CT)).index(label) is None
    bct = coder(left_comb(dims))
    assert bct.label(bct.index(label)) == label


A_BIT = bibit()


@pytest.mark.parametrize("build, message", [
    (lambda: Kernel(A_BIT, A_BIT, {lab(3): {}}), "bad input label 3"),
    (lambda: Kernel(A_BIT, A_BIT, {lab(1): {(node(lab(1), lab(1), 1), 1): 1}}),
     "bad output label (1 1)+"),
    (lambda: StateVector(A_BIT, {"1": 1}), "label '1' does not belong to the system"),
    (lambda: StateVector(A_BIT, {node(lab(1), 5, -1): 1}),
     "label NodeLabel(left=LeafLabel(index=1), right=5, sign=-1) does not belong to the system"),
], ids=["input", "output", "string", "non-label-child"])
def test_a_refused_label_is_echoed_as_its_text(build, message):
    """A label tree is echoed as `label_to_str` writes it, anything else by
    its repr, so that the string '1' does not read as label 1."""
    with pytest.raises(ValueError) as refused:
        build()
    assert str(refused.value) == message


def test_the_unit_label_is_written_as_a_star():
    assert label_to_str(UNIT) == "*"
    assert parse_label("*", trivial()) == UNIT


@pytest.mark.parametrize("mode, foreign", [
    (BCT, lab(1)), (CT, lab(1)), (BCT, node(lab(3), lab(1), 1)), (CT, node(lab(3), lab(1), 1)),
    (CT, node(lab(1), lab(1), -1)), (BCT, "(1 1)+"), (CT, "(1 1)+"),
], ids=["leaf-BCT", "leaf-CT", "past-dim-BCT", "past-dim-CT", "minus-CT", "str-BCT", "str-CT"])
def test_every_label_boundary_refuses_a_foreign_label(mode, foreign):
    """The constructors, the two readers and the parser each refuse a label
    of another system, with their own message."""
    system = left_comb([2, 2], mode)
    good = coder(system).label(0)
    with pytest.raises(ValueError, match="does not belong to the system"):
        StateVector(system, {foreign: 1})
    assert StateVector(system, {good: 1})[foreign] == 0
    with pytest.raises(ValueError, match="bad input label"):
        Kernel(system, system, {foreign: {(good, 1): 1}})
    with pytest.raises(ValueError, match="bad output label"):
        Kernel(system, system, {good: {(foreign, 1): 1}})
    with pytest.raises(KeyError):
        Kernel(system, system, {good: {(good, 1): 1}}).rows[foreign]
    if not isinstance(foreign, str):
        with pytest.raises(ParseError) as err:
            parse_label(label_to_str(foreign), system)
        assert err.value.code == E_LABEL_RANGE


@pytest.mark.parametrize("mode", [BCT, CT], ids=["BCT", "CT"])
@pytest.mark.parametrize("index, text", [
    (1.0, "LeafLabel(index=1.0)"), ("1", "LeafLabel(index='1')"), (True, "LeafLabel(index=True)"),
], ids=["float", "str", "bool"])
def test_a_leaf_index_that_is_not_an_int_is_a_foreign_label(mode, index, text):
    """1.0 and True compare equal to 1, and '1' compares with no int: the
    constructors refuse each as a label of another system, echoed by its
    repr, where 1.0 was stored as index 0.0, '1' raised a `TypeError` and
    True read as label 1."""
    system = leaf(2, mode)
    bad = lab(index)
    assert coder(system).index(bad) is None
    for build, message in [
        (lambda: StateVector(system, {bad: 1}), f"label {text} does not belong to the system"),
        (lambda: Kernel(system, system, {bad: {}}), f"bad input label {text}"),
        (lambda: Kernel(system, system, {lab(1): {(bad, 1): 1}}), f"bad output label {text}"),
    ]:
        with pytest.raises(ValueError) as refused:
            build()
        assert str(refused.value) == message
    pair = left_comb([2, 2], mode)
    with pytest.raises(ValueError, match="does not belong to the system"):
        StateVector(pair, {node(lab(1), bad, 1): 1})
    with pytest.raises(ValueError, match="bad input label"):
        Kernel(pair, pair, {node(bad, lab(2), 1): {}})
