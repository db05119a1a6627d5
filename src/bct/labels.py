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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterator, Mapping, Sequence

from . import faults
from .config import max_dim
from .systems import (
    Leaf,
    Node,
    SystemTree,
    TheoryMode,
    Trivial,
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


@dataclass(frozen=True, slots=True)
class NodeLabel(PureLabel):
    """A composite label; it hashes its tree once, on the first `hash`.

    The hash is made of ints only (leaf indices and signs), so a cached hash
    stays valid in a process with another PYTHONHASHSEED.  It is not computed
    at construction: the coherence checks build many labels they never hash.
    """

    left: PureLabel = field(default=None)  # type: ignore[assignment]
    right: PureLabel = field(default=None)  # type: ignore[assignment]
    sign: int = PLUS
    _hash: int | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.sign not in SIGNS:
            raise ValueError(f"sign must be -1 or +1, got {self.sign}")

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.left, self.right, self.sign))
            object.__setattr__(self, "_hash", h)
        return h


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


def label_matches(system: SystemTree, label: PureLabel) -> bool:
    """Shape/index/sign validity of `label` for `system`."""
    if isinstance(system, Trivial):
        return isinstance(label, UnitLabel)
    if isinstance(system, Leaf):
        return isinstance(label, LeafLabel) and 1 <= label.index <= system.system.dim
    assert isinstance(system, Node)
    if not isinstance(label, NodeLabel):
        return False
    if system.mode is TheoryMode.CT and label.sign != PLUS:
        return False
    return label_matches(system.left, label.left) and label_matches(system.right, label.right)


def enumerate_pure_labels(system: SystemTree, bound: int | None = None) -> list[PureLabel]:
    """All pure labels of `system` in canonical order.

    Canonical order sorts by the left-to-right tuple of leaf indices, then by
    the pre-order tuple of node signs with - before +.
    """
    basis_size(system, bound)
    return list(_basis(system))


def basis_size(system: SystemTree, bound: int | None = None) -> int:
    """The dimension of `system`, refused above the enumeration bound: the
    check made before anything walks a whole basis, by label or by index."""
    limit = max_dim() if bound is None else bound
    dim = dimension(system)
    if dim > limit:
        raise ValueError(f"dimension {dim} exceeds enumeration bound {limit}")
    return dim


# Each system's sorted basis, enumerated once; callers get a fresh list.
_BASES: dict[SystemTree, tuple[PureLabel, ...]] = {}


def _basis(system: SystemTree) -> tuple[PureLabel, ...]:
    basis = _BASES.get(system)
    if basis is None:
        basis = _BASES[system] = tuple(sorted(_enumerate(system), key=label_sort_key))
    return basis


def _enumerate(system: SystemTree) -> Iterator[PureLabel]:
    """The labels of `system`, unsorted; composites pair the (shared) labels
    of their children's bases."""
    if isinstance(system, Trivial):
        yield UNIT
        return
    if isinstance(system, Leaf):
        for i in range(1, system.system.dim + 1):
            yield LeafLabel(i)
        return
    assert isinstance(system, Node)
    signs = node_signs(system.mode)
    rights = _basis(system.right)
    for l in _basis(system.left):
        for r in rights:
            for s in signs:
                yield NodeLabel(l, r, s)


def label_sort_key(label: PureLabel) -> tuple[tuple[int, ...], tuple[int, ...]]:
    leaves: list[int] = []
    signs: list[int] = []

    def walk(l: PureLabel) -> None:
        if isinstance(l, LeafLabel):
            leaves.append(l.index)
        elif isinstance(l, NodeLabel):
            signs.append(l.sign)
            walk(l.left)
            walk(l.right)

    walk(label)
    return tuple(leaves), tuple(signs)


# ---------------------------------------------------------------------------
# Basis indices


class Coder:
    """The basis index of each pure label of one system, by closed form.

    A label's index is its position in the canonical order of
    `enumerate_pure_labels`: its leaf rank times NS plus its sign rank, where
    NL is the system's number of leaf-index tuples and NS its number of sign
    patterns.  For a node (l r)_s the leaf rank is lr_l * NL_r + lr_r and the
    sign rank is (bit(s) * NS_l + sr_l) * NS_r + sr_r, with bit(-) = 0 and
    bit(+) = 1; in CT every sign is + and NS = 1.  Neither direction
    enumerates anything.  `left` and `right` are the children's coders (None
    below a node).  Coders are shared: get one through `coder`, or `joined`
    for the node of two coders.

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

    def index(self, label: PureLabel) -> int:
        """The basis index of a label of the system."""
        if self.left is None:
            return label.index - 1 if isinstance(label, LeafLabel) else 0
        return self.join(self.left.index(label.left), self.right.index(label.right),
                         label.sign)

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


def coder_around(system: SystemTree, at: str, part: Coder) -> Coder:
    """The coder of `system`, given `part`, the coder of its subtree at
    `at`: only the siblings along the path are looked up by system."""
    if not at:
        return part
    if at[0] == "0":
        return joined(coder_around(system.left, at[1:], part), coder(system.right))
    return joined(coder(system.left), coder_around(system.right, at[1:], part))


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


Transport = Mapping[PureLabel, tuple[PureLabel, int]]


class _MoveTable(dict):
    """label -> `apply_moves_tracked(label, moves)`, computed on first lookup."""

    __slots__ = ("moves",)

    def __init__(self, moves: tuple[Move, ...]) -> None:
        super().__init__()
        self.moves = moves

    def __missing__(self, label: PureLabel) -> tuple[PureLabel, int]:
        self[label] = entry = apply_moves_tracked(label, self.moves)
        return entry


class _IdentityTransport(dict):
    """label -> (label, +1): the empty move sequence, which stores nothing."""

    __slots__ = ()

    def __missing__(self, label: PureLabel) -> tuple[PureLabel, int]:
        return label, PLUS


_IDENTITY = _IdentityTransport()
_MOVE_TABLES: dict[tuple[str | None, tuple[Move, ...]], _MoveTable] = {}


def move_table(moves: Sequence[Move]) -> Transport:
    """The transport of labels along `moves`: label -> (moved label, flip).

    One table per move sequence and active fault, shared by every caller and
    filled by the label-level `apply_moves_tracked`, which stays the
    reference.  Fetch it inside the operation that uses it, so the fault it
    is keyed on is the one in force.  The law checks of `coherence` test the
    calculus itself and call `apply_moves_tracked` directly.  The empty
    sequence is the identity under every fault and is served without a table.
    """
    if not moves:
        return _IDENTITY
    key = (faults.active_fault(), tuple(moves))
    table = _MOVE_TABLES.get(key)
    if table is None:
        table = _MOVE_TABLES[key] = _MoveTable(key[1])
    return table


Compiled = tuple[SystemTree, "list[int] | None", "list[int] | None"]
_COMPILED: dict[tuple[str | None, SystemTree, tuple[Move, ...]], Compiled] = {}


def compiled_transport(system: SystemTree, moves: Sequence[Move]) -> Compiled:
    """`move_table(moves)` on the basis indices of `system`, as arrays.

    Returns (moved system, perm, flip): the label at index i of `system`
    moves to index perm[i] of the moved system with environment flip
    flip[i].  The arrays are filled from the move table once per move
    sequence, system and active fault; the empty sequence gets none (both
    None), as it gets no table.
    """
    if not moves:
        return system, None, None
    key = (faults.active_fault(), system, tuple(moves))
    found = _COMPILED.get(key)
    if found is None:
        moved = move_system_sequence(system, moves)
        table, index = move_table(moves), coder(moved).index
        entries = [table[label] for label in enumerate_pure_labels(system)]
        found = _COMPILED[key] = (moved, [index(label) for label, _flip in entries],
                                  [flip for _label, flip in entries])
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

