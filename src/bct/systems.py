"""Systems: elementary carriers, binary composites, and the dimension rule.

A system is a binary tree over elementary carriers.  In BCT mode a composite
of two non-trivial systems has dimension 2*D_A*D_B; in the CT baseline it is
the ordinary product D_A*D_B.  A tree is canonical: the trivial system is a
whole tree or absent, never the child of a `Node` (`compose_systems` strips
it, IA = A = AI, and `Node` refuses it).

Trees are shared: two trees with the same shape, leaf dimensions, leaf names
and mode are the same system, and so the same object.  Every constructor
(`Trivial`, `Leaf` and `Node`, and each builder below) returns the one tree
of its class and fields from one table, and a pickled or copied tree loads
as the shared one.  Trees therefore compare and hash by identity.  Each
tree keeps its dimension, worked out from its children's once, when the
table stores it; `dimension` reads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Any

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
        # an int only: shared trees are found by ==, and 2.0 == 2
        if type(self.dim) is not int:
            raise ValueError(f"elementary systems need an int dim, got {shown(self.dim)}")
        if self.dim < 2:
            raise ValueError(f"elementary systems need dim >= 2, got {shown(self.dim)}")


class _Shared(type):
    """Calling a tree class returns the one tree of that class and those
    fields (given in order), from one table, its dimension kept on it; a
    refused tree is never stored."""

    def __call__(cls, *values: object) -> Any:
        key = (cls, *values)
        found = _TREES.get(key)
        if found is None:
            tree = super().__call__(*values)
            object.__setattr__(tree, "_dim", tree._dimension())
            found = _TREES.setdefault(key, tree)
        return found


_TREES: dict[tuple, SystemTree] = {}


class _Kept(metaclass=_Shared):
    """The slot of the dimension a shared tree keeps: not a field, so that
    no pickle or copy rebuilds it."""

    __slots__ = ("_dim",)


@dataclass(frozen=True, slots=True, eq=False)
class SystemTree(_Kept):
    mode: TheoryMode

    def __reduce__(self) -> tuple:
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


@dataclass(frozen=True, slots=True, eq=False)
class Trivial(SystemTree):
    def _dimension(self) -> int:
        return 1


@dataclass(frozen=True, slots=True, eq=False)
class Leaf(SystemTree):
    system: ElementarySystem = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.system is None:
            raise ValueError("Leaf requires an ElementarySystem")

    def _dimension(self) -> int:
        return self.system.dim


@dataclass(frozen=True, slots=True, eq=False)
class Node(SystemTree):
    left: SystemTree = field(default=None)  # type: ignore[assignment]
    right: SystemTree = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.left is None or self.right is None:
            raise ValueError("Node requires two children")
        if self.left.mode is not self.mode or self.right.mode is not self.mode:
            raise ValueError("children must share the parent's theory mode")
        if isinstance(self.left, Trivial) or isinstance(self.right, Trivial):
            raise ValueError("a Node has no trivial child; compose_systems strips it")

    def _dimension(self) -> int:
        dl, dr = self.left._dim, self.right._dim
        return 2 * dl * dr if self.mode is TheoryMode.BCT else dl * dr


def trivial(mode: TheoryMode = TheoryMode.BCT) -> SystemTree:
    return Trivial(mode)


def leaf(dim: int, mode: TheoryMode = TheoryMode.BCT, name: str | None = None) -> SystemTree:
    return Leaf(mode, ElementarySystem(dim, name))


def bibit(mode: TheoryMode = TheoryMode.BCT) -> SystemTree:
    return leaf(2, mode)


def dimension(system: SystemTree) -> int:
    """The dimension `system` keeps (see the module docstring)."""
    return system._dim


def compose_systems(a: SystemTree, b: SystemTree) -> SystemTree:
    """Composite of two systems, with trivial children stripped (IA = A = AI)."""
    if a.mode is not b.mode:
        raise ValueError("cannot compose systems from different theory modes")
    if isinstance(a, Trivial):
        return b
    if isinstance(b, Trivial):
        return a
    return Node(a.mode, a, b)


def check_path(path: str) -> str:
    """`path`, refused unless each step is 0 (left) or 1 (right): `subtree_at`,
    which every selector meets first, and the calculus read no other."""
    if path.strip("01"):
        raise ValueError(f"path {shown(path)} has a step other than 0 or 1")
    return path


def subtree_at(system: SystemTree, path: str) -> SystemTree:
    node = system
    for step in check_path(path):
        if not isinstance(node, Node):
            raise ValueError(f"path {shown(path)} leaves the tree")
        node = node.left if step == "0" else node.right
    return node


def replace_at(system: SystemTree, path: str, new: SystemTree) -> SystemTree:
    subtree_at(system, path)
    if path == "":
        return new
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
