"""Systems: elementary carriers, binary composites, and the dimension rule.

A system is a binary tree over elementary carriers.  In BCT mode a composite
of two non-trivial systems has dimension 2*D_A*D_B; in the CT baseline it is
the ordinary product D_A*D_B.  Trees are compared structurally: two trees
with the same shape, leaf dimensions and mode are the same system.  A tree
is canonical: the trivial system is a whole tree or absent, never the child
of a `Node` (`compose_systems` strips it, IA = A = AI, and `Node` refuses it).

Trees are slotted, and a `Node` hashes once, at construction, from its
children's hashes: a coder lookup of a fresh composite costs one tuple hash,
whatever its depth.  The hash is made of ints only (leaf dimensions, shape
and a mode bit), not of the mode's identity hash or of a leaf's name, which
differ between processes, so a cached hash travels with a pickled tree and
still hits the dicts of the process that loads it, as a label's does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .config import shown


class TheoryMode(Enum):
    BCT = "BCT"
    CT = "CT"

    # Members are singletons compared by identity, so they hash by identity
    # too: in C, where `Enum.__hash__` is a Python call at every tree node.
    __hash__ = object.__hash__


@dataclass(frozen=True, slots=True)
class ElementarySystem:
    dim: int
    name: str | None = None

    def __post_init__(self) -> None:
        if self.dim < 2:
            raise ValueError(f"elementary systems need dim >= 2, got {shown(self.dim)}")


@dataclass(frozen=True, slots=True)
class SystemTree:
    mode: TheoryMode


@dataclass(frozen=True, slots=True)
class Trivial(SystemTree):
    pass


@dataclass(frozen=True, slots=True)
class Leaf(SystemTree):
    system: ElementarySystem = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.system is None:
            raise ValueError("Leaf requires an ElementarySystem")

    def __hash__(self) -> int:
        return hash((self.system.dim, self.mode is TheoryMode.BCT))


@dataclass(frozen=True, slots=True)
class Node(SystemTree):
    left: SystemTree = field(default=None)  # type: ignore[assignment]
    right: SystemTree = field(default=None)  # type: ignore[assignment]
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.left is None or self.right is None:
            raise ValueError("Node requires two children")
        if self.left.mode is not self.mode or self.right.mode is not self.mode:
            raise ValueError("children must share the parent's theory mode")
        if isinstance(self.left, Trivial) or isinstance(self.right, Trivial):
            raise ValueError("a Node has no trivial child; compose_systems strips it")
        object.__setattr__(self, "_hash", hash((self.left, self.right,
                                                self.mode is TheoryMode.BCT)))

    def __hash__(self) -> int:
        return self._hash


def trivial(mode: TheoryMode = TheoryMode.BCT) -> SystemTree:
    return Trivial(mode)


def leaf(dim: int, mode: TheoryMode = TheoryMode.BCT, name: str | None = None) -> SystemTree:
    return Leaf(mode, ElementarySystem(dim, name))


def bibit(mode: TheoryMode = TheoryMode.BCT) -> SystemTree:
    return leaf(2, mode)


def dimension(system: SystemTree) -> int:
    if isinstance(system, Trivial):
        return 1
    if isinstance(system, Leaf):
        return system.system.dim
    assert isinstance(system, Node)
    dl = dimension(system.left)
    dr = dimension(system.right)
    if system.mode is TheoryMode.BCT:
        return 2 * dl * dr
    return dl * dr


def compose_systems(a: SystemTree, b: SystemTree) -> SystemTree:
    """Composite of two systems, with trivial children stripped (IA = A = AI)."""
    if a.mode is not b.mode:
        raise ValueError("cannot compose systems from different theory modes")
    if isinstance(a, Trivial):
        return b
    if isinstance(b, Trivial):
        return a
    return Node(a.mode, a, b)


def subtree_at(system: SystemTree, path: str) -> SystemTree:
    node = system
    for step in path:
        if not isinstance(node, Node):
            raise ValueError(f"path {path!r} leaves the tree")
        node = node.left if step == "0" else node.right
    return node


def replace_at(system: SystemTree, path: str, new: SystemTree) -> SystemTree:
    if path == "":
        return new
    if not isinstance(system, Node):
        raise ValueError(f"path {path!r} leaves the tree")
    if path[0] == "0":
        return Node(system.mode, replace_at(system.left, path[1:], new), system.right)
    return Node(system.mode, system.left, replace_at(system.right, path[1:], new))


def delete_at(system: SystemTree, path: str) -> SystemTree:
    """Remove the subtree at `path`: its parent gives way to its sibling."""
    subtree_at(system, path)
    if path == "":
        return Trivial(system.mode)
    parent, sibling = path[:-1], path[:-1] + ("1" if path[-1] == "0" else "0")
    return replace_at(system, parent, subtree_at(system, sibling))


def left_comb(dims: list[int] | tuple[int, ...], mode: TheoryMode = TheoryMode.BCT) -> SystemTree:
    """(((L1 L2) L3) ...) over the given leaf dimensions."""
    if not dims:
        return Trivial(mode)
    tree = leaf(dims[0], mode)
    for d in dims[1:]:
        tree = compose_systems(tree, leaf(d, mode))
    return tree
