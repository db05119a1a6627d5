"""Pure-state labels and the associator/braiding rewriting calculus.

A pure label mirrors its system tree: leaves carry a 1-based index, inner
nodes carry a sign in {-1, +1}.  The composite basis of a BCT system AB is
{(ij)_-, (ij)_+}, so label count equals system dimension.  CT labels use the
same shapes with every sign fixed +1.

Rewriting moves:

  assoc right   ((x y)_{s1} z)_{s2}  ->  (x (y z)_{s1*s2})_{s1}
  assoc left    (x (y z)_{v})_{w}    ->  ((x y)_{w} z)_{v*w}
  braid         (x y)_{s}            ->  (y x)_{s}

Associator moves rewrite a node in place.  A braid additionally emits the
braided node's sign as a flip that travels toward the root: every ancestor
reached through a left-child link is flipped and the climb continues; the
first ancestor reached through a right-child link is flipped and absorbs
the climb.  A flip that leaves the root altogether is returned as an
environment flip (it lands on whatever the label is later paired with).
The same propagation rule governs kernel sign flips; coherence of the whole
calculus (pentagon, hexagon, path independence) is enforced by tests.

Vectors and kernels are stored on basis indices: `Coder` numbers the pure
labels of a system in the canonical order by closed form, and
`enumerate_pure_labels` reads the basis off it.  `transport` carries basis
indices along a move sequence; it is read off the label-level moves, which
stay the reference semantics, on a few probe labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Sequence

from . import faults
from .config import max_dim
from .systems import (
    Leaf,
    Node,
    SystemTree,
    TheoryMode,
    dimension,
    replace_at,
    subtree_at,
)

MINUS = -1
PLUS = 1
SIGNS = (MINUS, PLUS)


@dataclass(frozen=True, slots=True)
class PureLabel:
    pass


@dataclass(frozen=True, slots=True)
class UnitLabel(PureLabel):
    pass


@dataclass(frozen=True, slots=True)
class LeafLabel(PureLabel):
    index: int


@dataclass(frozen=True, slots=True, init=False)
class NodeLabel(PureLabel):
    """A composite label; it hashes its tree once, on the first `hash`.

    The hash is made of ints only (leaf indices and signs), so a cached hash
    stays valid in a process with another PYTHONHASHSEED.  It is not computed
    at construction: the coherence checks build many labels they never hash.
    `__init__` is written by hand because the coherence sweeps build hundreds
    of thousands of labels: it sets the slots through their member
    descriptors, where the generated one makes an `object.__setattr__` call
    per field and then calls `__post_init__`.
    """

    left: PureLabel
    right: PureLabel
    sign: int = PLUS
    _hash: int | None = field(default=None, init=False, repr=False, compare=False)

    def __init__(self, left: PureLabel, right: PureLabel, sign: int = PLUS) -> None:
        if sign not in SIGNS:
            raise ValueError(f"sign must be -1 or +1, got {sign}")
        _set_left(self, left)
        _set_right(self, right)
        _set_sign(self, sign)
        _set_hash(self, None)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.left, self.right, self.sign))
            object.__setattr__(self, "_hash", h)
        return h


# The slots' own setters, which a frozen dataclass's `__setattr__` refuses.
_set_left = NodeLabel.left.__set__
_set_right = NodeLabel.right.__set__
_set_sign = NodeLabel.sign.__set__
_set_hash = NodeLabel._hash.__set__

UNIT = UnitLabel()


def node_signs(mode: TheoryMode) -> tuple[int, ...]:
    """The signs a composite node takes: both in BCT, only + in CT.

    A product |i>|j> spreads its weight evenly over them, which is the
    |i>|j> = 1/2 sum_s (ij)_s rule in BCT and |i>|j> = (ij)_+ in CT.
    """
    return (PLUS,) if mode is TheoryMode.CT else SIGNS


def label_to_str(label: PureLabel) -> str:
    if isinstance(label, UnitLabel):
        return "*"
    if isinstance(label, LeafLabel):
        return str(label.index)
    assert isinstance(label, NodeLabel)
    sign = "+" if label.sign == PLUS else "-"
    return f"({label_to_str(label.left)} {label_to_str(label.right)}){sign}"


def label_text(key: object) -> str:
    """A key given as a label, as a message echoes it: a well-formed label
    tree (its leaf indices ints) as `label_to_str` writes it, anything else
    by its repr, so that neither the string '1' nor a leaf `LeafLabel('1')`
    reads as label 1."""
    return label_to_str(key) if _is_label_tree(key) else repr(key)


def _is_label_tree(key: object) -> bool:
    if isinstance(key, NodeLabel):
        return _is_label_tree(key.left) and _is_label_tree(key.right)
    return isinstance(key, UnitLabel) or isinstance(key, LeafLabel) and type(key.index) is int


def enumerate_pure_labels(system: SystemTree, bound: int | None = None) -> list[PureLabel]:
    """All pure labels of `system` in canonical order: the labels of its
    coder's indices, in index order (see `Coder`).

    Canonical order sorts by the left-to-right tuple of leaf indices, then by
    the pre-order tuple of node signs with - before +.
    """
    return list(map(coder(system).label, range(basis_size(system, bound))))


def basis_size(system: SystemTree, bound: int | None = None) -> int:
    """The dimension of `system`, refused above the enumeration bound: the
    check made before anything walks a whole basis, by label or by index."""
    limit = max_dim() if bound is None else bound
    dim = dimension(system)
    if dim > limit:
        raise ValueError(f"dimension {dim} exceeds enumeration bound {limit}")
    return dim


# The ints 0, 1, ... up to the largest basis asked for, shared by every caller.
_INDICES: list[int] = []


def basis_indices(system: SystemTree, bound: int | None = None) -> list[int]:
    """The basis indices of `system` in order, refused above the bound as in
    `basis_size`.  The ints are shared by every caller, so a dict keyed by a
    whole basis (an effect kept in a result) holds no int of its own."""
    size = basis_size(system, bound)
    if len(_INDICES) < size:
        _INDICES.extend(range(len(_INDICES), size))
    return _INDICES[:size]


# ---------------------------------------------------------------------------
# Basis indices


class Coder:
    """The basis index of each pure label of one system, by closed form.

    A label's index is its position in the canonical order (by leaf-index
    tuple, then by pre-order sign tuple with - before +): its leaf rank
    times NS plus its sign rank, where
    NL is the system's number of leaf-index tuples and NS its number of sign
    patterns.  For a node (l r)_s the leaf rank is lr_l * NL_r + lr_r and the
    sign rank is (bit(s) * NS_l + sr_l) * NS_r + sr_r, with bit(-) = 0 and
    bit(+) = 1; in CT every sign is + and NS = 1.  Neither direction
    enumerates anything.  `left` and `right` are the children's coders (None
    below a node).  Coders are shared: get one through `coder`, or `joined`
    for the node of two coders.

    `index` is the one check that a label belongs to the system: it checks
    the label as it encodes it (shape, leaf indices ints in 1..dim, and
    only + signs in CT) and returns None for anything else.

    A coder keeps the labels it decodes: a label decoded again is the same
    object (its hash already cached, its subtrees shared).  Encoding keeps
    nothing.
    """

    __slots__ = ("dim", "nl", "ns", "left", "right", "bct", "_leaves", "_labels")

    def __init__(self, bct: bool, nl: int, left: Coder | None = None,
                 right: Coder | None = None, leaves: tuple[PureLabel, ...] = ()) -> None:
        self.bct, self.left, self.right = bct, left, right
        if left is not None:
            nl = left.nl * right.nl
        self.nl = nl
        self.ns = 2 * left.ns * right.ns if bct and left is not None else 1
        self.dim = self.nl * self.ns
        # the labels of a leaf are built on its first decode
        self._leaves = leaves
        self._labels: dict[int, PureLabel] = {}

    def index(self, label: object) -> int | None:
        """The basis index of `label`, or None if it is not a label of the system."""
        if self.left is None:
            if self.nl == 1:  # the trivial system
                return 0 if isinstance(label, UnitLabel) else None
            # an int index only: 1.0 and True compare equal to 1, "1" not at all
            if (isinstance(label, LeafLabel) and type(label.index) is int
                    and 1 <= label.index <= self.nl):
                return label.index - 1
            return None
        if not isinstance(label, NodeLabel) or not (self.bct or label.sign == PLUS):
            return None
        i = self.left.index(label.left)
        j = None if i is None else self.right.index(label.right)
        return None if j is None else self.join(i, j, label.sign)

    def label(self, index: int) -> PureLabel:
        """The pure label at a basis index of the system."""
        if self.left is None:
            return (self._leaves or self._leaf_labels())[index]
        found = self._labels.get(index)
        if found is None:
            i, j, sign = self.split(index)
            found = self._labels[index] = NodeLabel(self.left.label(i),
                                                    self.right.label(j), sign)
        return found

    def split(self, index: int) -> tuple[int, int, int]:
        """(left index, right index, sign) of the node label at `index`."""
        left, right = self.left, self.right
        rank, signs = divmod(index, self.ns)
        i, j = divmod(rank, right.nl)
        if not self.bct:
            return i, j, PLUS
        rest, sj = divmod(signs, right.ns)
        bit, si = divmod(rest, left.ns)
        return i * left.ns + si, j * right.ns + sj, PLUS if bit else MINUS

    def join(self, i: int, j: int, sign: int) -> int:
        """The index of the node label with children at indices i and j."""
        li, lj = self.left.ns, self.right.ns
        rank = (i // li * self.right.nl + j // lj) * self.ns
        if not self.bct:
            return rank
        return rank + ((sign > 0) * li + i % li) * lj + j % lj

    def _leaf_labels(self) -> tuple[PureLabel, ...]:
        self._leaves = tuple(LeafLabel(i) for i in range(1, self.nl + 1))
        return self._leaves


_CODERS: dict[SystemTree, Coder] = {}
_JOINED: dict[tuple[Coder, Coder], Coder] = {}


def coder(system: SystemTree) -> Coder:
    """The (shared) basis-index coder of `system`."""
    found = _CODERS.get(system)
    if found is None:
        bct = system.mode is TheoryMode.BCT
        if isinstance(system, Node):
            found = joined(coder(system.left), coder(system.right))
        elif isinstance(system, Leaf):
            found = Coder(bct, system.system.dim)
        else:
            found = Coder(bct, 1, leaves=(UNIT,))
        _CODERS[system] = found
    return found


def joined(left: Coder, right: Coder) -> Coder:
    """The (shared) coder of the node of two systems, from their coders."""
    found = _JOINED.get((left, right))
    if found is None:
        found = _JOINED[(left, right)] = Coder(left.bct, 0, left, right)
    return found


# ---------------------------------------------------------------------------
# Moves


class MoveKind(Enum):
    ASSOC_L = "assoc_l"
    ASSOC_R = "assoc_r"
    BRAID = "braid"

    # Members are singletons compared by identity, so they hash by identity
    # too: in C, where `Enum.__hash__` is a Python call per `_REWRITERS` lookup.
    __hash__ = object.__hash__


@dataclass(frozen=True)
class Move:
    kind: MoveKind
    path: str = ""


Rewriter = Callable[[PureLabel], tuple[PureLabel, int]]


def invert_move(move: Move) -> Move:
    if move.kind is MoveKind.ASSOC_L:
        return Move(MoveKind.ASSOC_R, move.path)
    if move.kind is MoveKind.ASSOC_R:
        return Move(MoveKind.ASSOC_L, move.path)
    return move


def invert_moves(moves: list[Move]) -> list[Move]:
    return [invert_move(m) for m in reversed(moves)]


def _shape_assoc_r(t: PureLabel | SystemTree, node: type) -> None:
    if not isinstance(t, node) or not isinstance(t.left, node):
        raise ValueError("assoc right needs shape ((x y) z)")


def _shape_assoc_l(t: PureLabel | SystemTree, node: type) -> None:
    if not isinstance(t, node) or not isinstance(t.right, node):
        raise ValueError("assoc left needs shape (x (y z))")


def _shape_braid(t: PureLabel | SystemTree, node: type) -> None:
    if not isinstance(t, node):
        raise ValueError("braid needs a node")


def _assoc_r(label: PureLabel) -> tuple[PureLabel, int]:
    _shape_assoc_r(label, NodeLabel)
    inner = label.left
    new_inner_sign = label.sign if faults.active_fault() == faults.ASSOC_SIGN \
        else inner.sign * label.sign
    return NodeLabel(inner.left, NodeLabel(inner.right, label.right, new_inner_sign),
                     inner.sign), PLUS


def _assoc_l(label: PureLabel) -> tuple[PureLabel, int]:
    _shape_assoc_l(label, NodeLabel)
    inner = label.right
    new_outer_sign = inner.sign if faults.active_fault() == faults.ASSOC_SIGN \
        else inner.sign * label.sign
    return NodeLabel(NodeLabel(label.left, inner.left, label.sign), inner.right,
                     new_outer_sign), PLUS


def _braid(label: PureLabel) -> tuple[PureLabel, int]:
    _shape_braid(label, NodeLabel)
    sign = label.sign
    new_sign = -sign if faults.active_fault() == faults.BRAID_SIGN else sign
    return NodeLabel(label.right, label.left, new_sign), sign


def _climb(label: PureLabel, path: str, rewrite: Rewriter,
           depth: int = 0) -> tuple[PureLabel, int]:
    """Rewrite the subtree at `path` and carry its flip toward the root.

    Ancestors reached through left-child links are flipped and the climb
    continues; the first right-child link flips its node and absorbs the
    flip.  Returns (new label, environment flip).
    """
    if depth == len(path):
        return rewrite(label)
    if not isinstance(label, NodeLabel):
        raise ValueError(f"path {path!r} leaves the label")
    if path[depth] == "0":
        child, escaping = _climb(label.left, path, rewrite, depth + 1)
        return NodeLabel(child, label.right, label.sign * escaping), escaping
    child, escaping = _climb(label.right, path, rewrite, depth + 1)
    return NodeLabel(label.left, child, label.sign * escaping), PLUS


_REWRITERS: dict[MoveKind, Rewriter] = {
    MoveKind.ASSOC_R: _assoc_r,
    MoveKind.ASSOC_L: _assoc_l,
    MoveKind.BRAID: _braid,
}


def apply_move_tracked(label: PureLabel, move: Move) -> tuple[PureLabel, int]:
    """Apply one move; returns (new label, environment flip in {-1,+1})."""
    return _climb(label, move.path, _REWRITERS[move.kind])


def apply_moves_tracked(label: PureLabel, moves: list[Move]) -> tuple[PureLabel, int]:
    flip = PLUS
    for move in moves:
        label, f = apply_move_tracked(label, move)
        flip *= f
    return label, flip


class _Transport:
    """index -> (moved index, flip) along one move sequence from one system.

    A move sequence carries each leaf of a label to a place that the
    sequence alone fixes, and it rewrites the signs and emits the flip
    whatever the leaf indices (see the moves above).  So the label at leaf
    rank r and sign rank s moves to the moved sign rank of s plus NS times
    r with each leaf's digit carried to its new place value.  Both parts
    are read off `apply_moves_tracked` on probe labels, decoded on first
    need and kept: the label at index s (every leaf at its first index)
    for each sign rank s met, and for each leaf the label with that leaf at
    its second index, every other leaf at its first and every sign -.

    In CT a faulted braid (BRAID_SIGN) writes a - sign, which no CT label
    carries.  The probe reads such a moved label as its + twin, by setting
    every sign to + before it codes the label: this is the one place where
    the index calculus reads a label that is not of its system.
    """

    __slots__ = ("_source", "_target", "_moves", "_signs", "_places")

    def __init__(self, source: Coder, target: Coder, moves: tuple[Move, ...]) -> None:
        self._source, self._target, self._moves = source, target, moves
        self._signs: dict[int, tuple[int, int]] = {}
        self._places: list[tuple[int, int, int]] | None = None

    def __getitem__(self, index: int) -> tuple[int, int]:
        ns = self._source.ns
        rank, s = divmod(index, ns)
        sign = self._signs.get(s)
        if sign is None:
            sign = self._signs[s] = self._probe(s)
        places = self._places
        if places is None:
            places = self._places = [(place, dim, self._probe(place * ns)[0] // ns)
                                     for place, dim in _leaf_places(self._source)]
        moved = 0
        for place, dim, to in places:
            moved += rank // place % dim * to
        return moved * ns + sign[0], sign[1]

    def _probe(self, index: int) -> tuple[int, int]:
        label, flip = apply_moves_tracked(self._source.label(index), self._moves)
        if not self._target.bct:
            label = _plus_twin(label)
        return self._target.index(label), flip


def _plus_twin(label: PureLabel) -> PureLabel:
    """`label` with every sign set to +."""
    if not isinstance(label, NodeLabel):
        return label
    return NodeLabel(_plus_twin(label.left), _plus_twin(label.right))


def _leaf_places(code: Coder) -> list[tuple[int, int]]:
    """(place value in the leaf rank, dimension) of each leaf, left to right."""
    if code.left is None:
        return [(1, code.nl)]
    right = code.right.nl
    return [(place * right, dim) for place, dim in _leaf_places(code.left)] + \
        _leaf_places(code.right)


_TRANSPORTS: dict[tuple[str | None, SystemTree, tuple[Move, ...]],
                  tuple[SystemTree, _Transport]] = {}


def transport(system: SystemTree, moves: Sequence[Move]) -> tuple[SystemTree, _Transport | None]:
    """The moved system, and the transport of the basis indices of `system`
    along `moves`: index -> (index of the moved label in the moved system,
    environment flip).

    One transport per active fault, system and move sequence, shared by
    every caller, and read off the label-level `apply_moves_tracked`, which
    stays the reference, on a few probe labels decoded on first need (see
    `_Transport`); nothing is enumerated, so a sparse vector on a system of
    any size is transported by the indices it holds.  Fetch it inside the
    operation that uses it, so the fault it is keyed on is the one in
    force.  The law checks of `coherence` test the calculus itself and call
    `apply_moves_tracked` directly.  The empty sequence is the identity
    under every fault and gets no transport (None).
    """
    if not moves:
        return system, None
    key = (faults.active_fault(), system, tuple(moves))
    found = _TRANSPORTS.get(key)
    if found is None:
        moved = move_system_sequence(system, moves)
        found = _TRANSPORTS[key] = (moved, _Transport(coder(system), coder(moved), key[2]))
    return found


def move_system(system: SystemTree, move: Move) -> SystemTree:
    """Shape transport: the system tree a move carries labels onto."""
    t = subtree_at(system, move.path)
    if move.kind is MoveKind.BRAID:
        _shape_braid(t, Node)
        moved = Node(t.mode, t.right, t.left)
    elif move.kind is MoveKind.ASSOC_R:
        _shape_assoc_r(t, Node)
        moved = Node(t.mode, t.left.left, Node(t.mode, t.left.right, t.right))
    else:
        _shape_assoc_l(t, Node)
        moved = Node(t.mode, Node(t.mode, t.left, t.right.left), t.right.right)
    return replace_at(system, move.path, moved)


def move_system_sequence(system: SystemTree, moves: list[Move]) -> SystemTree:
    for move in moves:
        system = move_system(system, move)
    return system


def regroup(system: SystemTree, target: str) -> list[Move]:
    """Moves bringing the subtree at `target` to the head of a bipartition.

    After the sequence every label of `system` has the two-factor shape
    (a e)_s with a on the target subtree and e on the complement, where the
    complement keeps the original arrangement with the target deleted.  The
    sequence depends only on tree shapes.
    """
    if target == "":
        raise ValueError("cannot regroup the full tree against nothing")
    subtree_at(system, target)  # raises on a selector that leaves the tree

    def _regroup(t: SystemTree, p: str, prefix: str) -> list[Move]:
        assert isinstance(t, Node), "selector must address a proper subtree"
        if p == "0":
            return []
        if p == "1":
            return [Move(MoveKind.BRAID, prefix)]
        if p[0] == "0":
            inner = _regroup(t.left, p[1:], prefix + "0")
            return inner + [Move(MoveKind.ASSOC_R, prefix)]
        inner = _regroup(t.right, p[1:], prefix + "1")
        return inner + [
            Move(MoveKind.ASSOC_L, prefix),
            Move(MoveKind.BRAID, prefix + "0"),
            Move(MoveKind.ASSOC_R, prefix),
        ]

    return _regroup(system, target, "")

