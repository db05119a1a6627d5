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

The calculus has one body, `moves_raw`, on raw labels: a leaf is its int
index, the unit is 0 and a node is a (left, right, sign) tuple.  It resolves
a move sequence once (the active fault and each move's rewrite) and returns
the function that moves a block (a list) of raw labels along it, each move
step one pass over the whole block; `apply_moves_raw(raw, moves)` runs it
on a block of one.  Label objects are built only at the boundary:
`apply_moves_tracked` moves a label tree through its raw form, and
`Coder.label` builds the label of a decoded raw label.

Vectors and kernels are stored on basis indices: `Coder` numbers the pure
labels of a system in the canonical order by closed form, `Coder.raws`
walks its whole basis in that order, and `enumerate_pure_labels` reads the
basis off that walk.  `transport` carries basis indices along a move
sequence; it is read off the calculus, which stays the reference semantics,
on a few raw probe labels.  `act_rows`, the one regroup-apply engine,
composes `regroup`, `transport` and `offsets`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Mapping, Sequence

from . import faults
from .config import max_dim, shown
from .systems import (
    Node,
    SystemTree,
    TheoryMode,
    Trivial,
    check_path,
    compose_systems,
    delete_at,
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
    """A composite label.  Its generated hash is made of ints only (leaf
    indices and signs), so a label hashes alike in a process with another
    PYTHONHASHSEED."""

    left: PureLabel
    right: PureLabel
    sign: int = PLUS

    def __post_init__(self) -> None:
        if self.sign not in SIGNS:
            raise ValueError(f"sign must be -1 or +1, got {self.sign}")


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


# A raw label: a leaf is its int index, the unit is 0 and a node is a
# (left, right, sign) tuple.  The calculus runs on this form, and reads
# anything that is not a triple as a leaf (`move_system` moves a tree's
# shape by it, its leaves system objects).
Raw = int | tuple


def raw_of(label: PureLabel) -> Raw:
    """The raw form of a label tree."""
    if isinstance(label, NodeLabel):
        return raw_of(label.left), raw_of(label.right), label.sign
    return label.index if isinstance(label, LeafLabel) else 0


def label_of(raw: Raw) -> PureLabel:
    """The label tree of a raw label."""
    if type(raw) is tuple:
        left, right, sign = raw
        return NodeLabel(label_of(left), label_of(right), sign)
    return LeafLabel(raw) if raw else UNIT


def enumerate_pure_labels(system: SystemTree, bound: int | None = None) -> list[PureLabel]:
    """All pure labels of `system` in canonical order: the labels of its
    coder's basis walk, in index order (see `Coder.raws`).

    Canonical order sorts by the left-to-right tuple of leaf indices, then by
    the pre-order tuple of node signs with - before +.
    """
    basis_size(system, bound)
    return list(map(label_of, coder(system).raws()))


def basis_size(system: SystemTree, bound: int | None = None) -> int:
    """The dimension of `system`, refused above the enumeration bound: the
    check made before anything walks a whole basis, by label or by index."""
    limit = max_dim() if bound is None else bound
    dim = dimension(system)
    if dim > limit:
        raise ValueError(f"dimension {shown(dim)} exceeds enumeration bound {limit}")
    return dim


# The ints 0, 1, ... up to the largest basis asked for, shared by every caller.
_INDICES: list[int] = []


def basis_indices(system: SystemTree, bound: int | None = None) -> list[int]:
    """The basis indices of `system` in order, refused above the bound as in
    `basis_size`.  The ints are shared by every caller, so a dict keyed by a
    whole basis (an effect kept in a result) holds no int of its own."""
    global _INDICES
    size = basis_size(system, bound)
    indices = _INDICES  # one read: a thread that grows the table rebinds it whole
    if len(indices) < size:
        indices = _INDICES = indices + list(range(len(indices), size))
    return indices[:size]


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
    below a node).  Coders are shared: get one through `coder`.

    That order is separable: the index of (i j)_s is the sum
    `left_offset(i) + right_offset(j) + bit(s) * step`, with `step` =
    NS_l * NS_r in BCT and 0 in CT, each offset worked out from its index
    by arithmetic (a coder exists for systems far above the enumeration
    bound, so it keeps no table of them).  `join` serves one-entry reads
    (`index`, `raw_index`); `offsets` hands the parts to every loop.

    `index` is the one check that a label belongs to the system: it checks
    the label as it encodes it (shape, leaf indices ints in 1..dim, and
    only + signs in CT) and returns None for anything else.  `raw` and
    `raw_index` code raw labels (see `Raw`) and check nothing; `label`
    decodes the raw label and builds its label tree.  `raws` walks the
    whole basis in index order, and like `raw` checks nothing: check
    `basis_size` first; so does `splits`, the same walk on the children's
    indices.  A coder keeps nothing it codes.
    """

    __slots__ = ("dim", "nl", "ns", "step", "left", "right", "bct")

    def __init__(self, bct: bool, nl: int, left: Coder | None = None,
                 right: Coder | None = None) -> None:
        self.bct, self.left, self.right = bct, left, right
        if left is not None:
            nl = left.nl * right.nl
        self.nl = nl
        self.ns = 2 * left.ns * right.ns if bct and left is not None else 1
        self.step = self.ns // 2  # the sign rank where + starts (0 if + is the one sign)
        self.dim = self.nl * self.ns

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
        return label_of(self.raw(index))

    def raw(self, index: int) -> Raw:
        """The raw label at a basis index of the system."""
        if self.left is None:
            return index + 1 if self.nl > 1 else 0
        i, j, sign = self.split(index)
        return self.left.raw(i), self.right.raw(j), sign

    def raws(self) -> Iterable[Raw]:
        """The raw label of every basis index of the system, in index order:
        the children's raw labels paired by `_pairs`.  Only the children's
        lists are built; the node's own level streams."""
        if self.left is None:
            return range(1, self.nl + 1) if self.nl > 1 else (0,)
        return self._pairs(list(self.left.raws()), list(self.right.raws()))

    def splits(self) -> Iterable[tuple[int, int, int]]:
        """`split` of every basis index of a node, in index order: the
        children's indices paired by `_pairs`."""
        return self._pairs(range(self.left.dim), range(self.right.dim))

    def _pairs(self, left: Sequence, right: Sequence) -> Iterable[tuple]:
        """(x, y, sign) for the entries x of `left` and y of `right`, one
        per basis index of the children in index order, in the order of the
        closed form: for each left leaf block (NS_l consecutive entries),
        each right leaf block, each sign (- then +; only + in CT), each x of
        the left block and each y of the right block."""
        ls, rs = self.left.ns, self.right.ns
        lefts = [left[k:k + ls] for k in range(0, len(left), ls)]
        rights = [right[k:k + rs] for k in range(0, len(right), rs)]
        signs = SIGNS if self.bct else (PLUS,)
        return ((x, y, s) for xs in lefts for ys in rights for s in signs
                for x in xs for y in ys)

    def raw_index(self, raw: Raw) -> int:
        """The basis index of a raw label of the system's shape.  In CT no
        sign is read, so a - sign reads as +."""
        if self.left is None:
            return raw - 1 if raw else 0
        left, right, sign = raw
        return self.join(self.left.raw_index(left), self.right.raw_index(right), sign)

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
        """The index of the node label with children at indices i and j:
        `left_offset(i) + right_offset(j) + bit(sign) * step`."""
        return self.left_offset(i) + self.right_offset(j) + (sign > 0) * self.step

    def left_offset(self, i: int) -> int:
        """The part of `join(i, j, sign)` that left index i adds."""
        li = self.left.ns
        return i // li * self.right.nl * self.ns + i % li * self.right.ns

    def right_offset(self, j: int) -> int:
        """The part of `join(i, j, sign)` that right index j adds."""
        lj = self.right.ns
        return j // lj * self.ns + j % lj


def offsets(x: SystemTree, y: SystemTree) -> tuple[Callable[[int], int],
                                                   Callable[[int], int], int]:
    """(left, right, step), the node coder's parts: the index of (i j)_s in
    x (x) y is left(i) + right(j) + bit(s) * step.  A trivial factor opens
    no node: each index is its own offset (`int`) and the step is 0."""
    if isinstance(x, Trivial) or isinstance(y, Trivial):
        return int, int, 0
    code = coder(compose_systems(x, y))
    return code.left_offset, code.right_offset, code.step


_CODERS: dict[SystemTree, Coder] = {}


def coder(system: SystemTree) -> Coder:
    """The (shared) basis-index coder of `system`."""
    found = _CODERS.get(system)
    if found is None:
        bct = system.mode is TheoryMode.BCT
        if isinstance(system, Node):
            found = Coder(bct, 0, coder(system.left), coder(system.right))
        else:  # a leaf, or the trivial system and its one label
            found = Coder(bct, dimension(system))
        # unlocked: a thread that races here stores an equal coder, which keeps nothing
        _CODERS[system] = found
    return found


# ---------------------------------------------------------------------------
# Moves


class MoveKind(Enum):
    ASSOC_L = "assoc_l"
    ASSOC_R = "assoc_r"
    BRAID = "braid"

    # Members are singletons compared by identity, so they hash by identity
    # too: in C, where `Enum.__hash__` is a Python call per hash of a `Move`,
    # which every `transport` key lookup makes.
    __hash__ = object.__hash__


@dataclass(frozen=True)
class Move:
    kind: MoveKind
    path: str = ""


def invert_move(move: Move) -> Move:
    if move.kind is MoveKind.ASSOC_L:
        return Move(MoveKind.ASSOC_R, move.path)
    if move.kind is MoveKind.ASSOC_R:
        return Move(MoveKind.ASSOC_L, move.path)
    return move


def invert_moves(moves: list[Move]) -> list[Move]:
    return [invert_move(m) for m in reversed(moves)]


def _assoc_r(raws: list[Raw], fault: str | None) -> tuple[list[Raw], None]:
    keep = fault == faults.ASSOC_SIGN
    try:
        return [(x, (y, z, s2 if keep else s1 * s2), s1) for (x, y, s1), z, s2 in raws], None
    except TypeError:
        raise ValueError("assoc right needs shape ((x y) z)") from None


def _assoc_l(raws: list[Raw], fault: str | None) -> tuple[list[Raw], None]:
    keep = fault == faults.ASSOC_SIGN
    try:
        return [((x, y, w), z, v if keep else v * w) for x, (y, z, v), w in raws], None
    except TypeError:
        raise ValueError("assoc left needs shape (x (y z))") from None


def _braid(raws: list[Raw], fault: str | None) -> tuple[list[Raw], list[int]]:
    negate = fault == faults.BRAID_SIGN
    try:
        return [(y, x, -s if negate else s) for x, y, s in raws], [s for _, _, s in raws]
    except TypeError:
        raise ValueError("braid needs a node") from None


# A rule rewrites a block of raw labels under a fault: (moved raw labels,
# their flips, or None where every flip is +).
Rule = Callable[[list[Raw], str | None], tuple[list[Raw], list[int] | None]]


def _climb(raws: list[Raw], path: str, depth: int, rewrite: Rule,
           fault: str | None) -> tuple[list[Raw], list[int] | None]:
    """Rewrite the subtree at `path` of each raw label of a block and carry
    its flip toward the root.

    Ancestors reached through left-child links are flipped and the climb
    continues; the first right-child link flips its node and absorbs the
    flip.  Returns (new raw labels, environment flips), the flips None
    where every one is +.
    """
    if depth == len(path):
        return rewrite(raws, fault)
    side = 0 if path[depth] == "0" else 1
    try:
        children = [raw[side] for raw in raws]
    except TypeError:
        raise ValueError(f"path {shown(path)} leaves the label") from None
    moved, flips = _climb(children, path, depth + 1, rewrite, fault)
    if flips is None:
        return ([(c, y, s) for c, (_, y, s) in zip(moved, raws)] if side == 0 else
                [(x, c, s) for c, (x, _, s) in zip(moved, raws)]), None
    if side == 0:
        return [(c, y, s * f) for c, (_, y, s), f in zip(moved, raws, flips)], flips
    return [(x, c, s * f) for c, (x, _, s), f in zip(moved, raws, flips)], None


def moves_raw(moves: Sequence[Move]) -> Callable[[list[Raw]], tuple[list[Raw], list[int]]]:
    """The calculus for one move sequence: a function that applies `moves`
    to a block (a list) of raw labels, in order, one move step over the
    whole block at a time, and returns (moved raw labels, environment flips
    in {-1,+1}), one of each per label.  The active fault and each move's
    rewrite are read once, here: the function keeps the fault in force when
    it was built."""
    fault = faults.active_fault()
    steps = [(check_path(move.path), _braid if move.kind is MoveKind.BRAID else
              _assoc_r if move.kind is MoveKind.ASSOC_R else _assoc_l) for move in moves]

    def run(raws: list[Raw]) -> tuple[list[Raw], list[int]]:
        flips = [PLUS] * len(raws)
        for path, rewrite in steps:
            raws, escaping = _climb(raws, path, 0, rewrite, fault)
            if escaping is not None:
                flips = [f * e for f, e in zip(flips, escaping)]
        return raws, flips
    return run


def apply_moves_raw(raw: Raw, moves: Sequence[Move]) -> tuple[Raw, int]:
    """The calculus on one raw label: `moves_raw` on a block of one, under
    the active fault.  Returns (moved raw label, environment flip in
    {-1,+1})."""
    (moved,), (flip,) = moves_raw(moves)([raw])
    return moved, flip


def apply_moves_tracked(label: PureLabel, moves: list[Move]) -> tuple[PureLabel, int]:
    """`moves` applied to a label tree: (moved label, environment flip), by
    `apply_moves_raw` on its raw form."""
    raw, flip = apply_moves_raw(raw_of(label), moves)
    return label_of(raw), flip


class _Transport:
    """index -> (moved index, flip) along one move sequence from one system.

    A move sequence carries each leaf of a label to a place that the
    sequence alone fixes, and it rewrites the signs and emits the flip
    whatever the leaf indices (see the moves above).  So the label at leaf
    rank r and sign rank s moves to the moved sign rank of s plus NS times
    r with each leaf's digit carried to its new place value.  Both parts
    are read off `apply_moves_raw` on raw probe labels, decoded on first
    need and kept: the label at index s (every leaf at its first index)
    for each sign rank s met, and for each leaf the label with that leaf at
    its second index, every other leaf at its first and every sign -.

    In CT a faulted braid (BRAID_SIGN) writes a - sign, which no CT label
    carries.  The CT coder reads no sign, so the probe codes such a moved
    label as its + twin.

    `table()` is that rule on the whole basis at once, with no flips: only
    a caller that walks the whole basis anyway, after `basis_size`, reads
    it, and none keeps it.  The probes fill with no lock: a thread that
    races here stores an equal value.
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

    def table(self) -> list[int]:
        """The moved index of every basis index, in order, with no flips."""
        ns = self._source.ns
        ranks = [self[s][0] for s in range(ns)]  # leaf rank 0: fills every probe
        moved = [0]
        for _, dim, to in self._places:
            moved = [m + d * to for m in moved for d in range(dim)]
        return [m * ns + r for m in moved for r in ranks]

    def _probe(self, index: int) -> tuple[int, int]:
        raw, flip = apply_moves_raw(self._source.raw(index), self._moves)
        return self._target.raw_index(raw), flip


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
    every caller, and read off the calculus (`apply_moves_raw`), which
    stays the reference, on a few probe labels decoded on first need (see
    `_Transport`); nothing is enumerated, so a sparse vector on a system of
    any size is transported by the indices it holds (`table()` serves a
    whole-basis walk, and is not kept).  Fetch it inside the operation that
    uses it, so the fault it is keyed on is the one in force.  The law
    checks of `coherence` test the calculus itself: they build one
    `moves_raw` function per move sequence and run it on the basis walk
    `Coder.raws`, a block of labels at a time; the probes here run it on
    blocks of one.  The empty sequence is the identity under every fault
    and gets no transport (None).
    """
    if not moves:
        return system, None
    key = (faults.active_fault(), system, tuple(moves))
    found = _TRANSPORTS.get(key)
    if found is None:
        moved = move_system_sequence(system, moves)
        # unlocked: a thread that races here stores an equal transport
        found = _TRANSPORTS[key] = (moved, _Transport(coder(system), coder(moved), key[2]))
    return found


def move_system(system: SystemTree, move: Move) -> SystemTree:
    """Shape transport: the system tree a move carries labels onto, moved by
    the calculus itself, so that each move's shape rule is stated once."""
    subtree_at(system, move.path)  # raises on a path that leaves the tree
    return _tree(system.mode, apply_moves_raw(_shape(system), [move])[0])


def _shape(system: SystemTree) -> object:
    """`system` as a raw label of its shape: a node is a (left, right, +)
    tuple, and a leaf or the trivial system is itself."""
    if isinstance(system, Node):
        return _shape(system.left), _shape(system.right), PLUS
    return system


def _tree(mode: TheoryMode, shape: object) -> SystemTree:
    """The system tree of a shape."""
    if type(shape) is tuple:
        return Node(mode, _tree(mode, shape[0]), _tree(mode, shape[1]))
    return shape


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
    subtree_at(system, target)  # raises on a bad step or a selector that leaves the tree

    def _regroup(t: SystemTree, p: str, prefix: str) -> list[Move]:
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


IntRow = dict[tuple[int, int], int]
IntRows = Mapping[int, IntRow]


def act_rows(rows: IntRows, out_system: SystemTree, system: SystemTree, at: str,
             inputs: Iterable[int]) -> tuple[SystemTree, IntRows]:
    """The one regroup-apply engine: a map with int `rows` from the subtree
    of `system` at `at` to `out_system`, acting there.  Returns the system
    it leaves, and its rows on the `inputs` indices of `system` (on the
    whole tree, its own), over its denominator, keyed (output index, flip).

    Each input is regrouped to (a e)_u (by `transport`), split, replaced by
    (b e)_{tau*u}, at left(b) + right(e) + (step if tau*u is +) by `offsets`,
    and regrouped back.  An effect (trivial output) opens no node: the sum
    is e, and the node sign u becomes the flip.
    """
    if at == "":
        return out_system, rows
    moves = regroup(system, at)
    regrouped, there = transport(system, moves)
    split = coder(regrouped).split
    bct = system.mode is TheoryMode.BCT
    effect = isinstance(out_system, Trivial)
    result = delete_at(system, at) if effect else replace_at(system, at, out_system)
    left, right, step = offsets(out_system, regrouped.right)
    back = None if effect or there is None else transport(
        compose_systems(out_system, regrouped.right), invert_moves(moves))[1]
    out_rows: dict[int, IntRow] = {}
    for x in inputs:
        y, flip = (x, PLUS) if there is None else there[x]
        a, e, u = split(y)
        row = rows.get(a)
        if not row:
            continue
        if effect:
            flip *= u
        base = right(e)
        out: IntRow = {}
        for (b, tau), n in row.items():
            z = left(b) + base + (step if tau * u > 0 else 0)
            if back is not None:
                z, back_flip = back[z]
                tau *= back_flip
            key = (z, flip * tau if bct else PLUS)
            out[key] = out[key] + n if key in out else n
        out_rows[x] = out
    return result, out_rows
