"""A frozen copy of the rewriting calculus on label objects.

Before the calculus ran on raw labels (a leaf its int index, the unit 0, a
node a (left, right, sign) tuple), its moves rewrote `NodeLabel` trees
directly, one label object per rewritten node, and read the active fault at
every move.  These bodies are kept here as the oracle the raw body
(`labels.apply_moves_raw`) is compared with, unchanged but in two ways:
each move states the shape check it shared with the system-tree moves, and
`plus_twin`, the body the transport used to code a CT label that a faulted
braid left with a - sign, is public.
"""

from __future__ import annotations

from typing import Callable

from bct import faults
from bct.labels import PLUS, Move, MoveKind, NodeLabel, PureLabel

Rewriter = Callable[[PureLabel], tuple[PureLabel, int]]


def _assoc_r(label: PureLabel) -> tuple[PureLabel, int]:
    if not isinstance(label, NodeLabel) or not isinstance(label.left, NodeLabel):
        raise ValueError("assoc right needs shape ((x y) z)")
    inner = label.left
    new_inner_sign = label.sign if faults.active_fault() == faults.ASSOC_SIGN \
        else inner.sign * label.sign
    return NodeLabel(inner.left, NodeLabel(inner.right, label.right, new_inner_sign),
                     inner.sign), PLUS


def _assoc_l(label: PureLabel) -> tuple[PureLabel, int]:
    if not isinstance(label, NodeLabel) or not isinstance(label.right, NodeLabel):
        raise ValueError("assoc left needs shape (x (y z))")
    inner = label.right
    new_outer_sign = inner.sign if faults.active_fault() == faults.ASSOC_SIGN \
        else inner.sign * label.sign
    return NodeLabel(NodeLabel(label.left, inner.left, label.sign), inner.right,
                     new_outer_sign), PLUS


def _braid(label: PureLabel) -> tuple[PureLabel, int]:
    if not isinstance(label, NodeLabel):
        raise ValueError("braid needs a node")
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


def plus_twin(label: PureLabel) -> PureLabel:
    """`label` with every sign set to +."""
    if not isinstance(label, NodeLabel):
        return label
    return NodeLabel(plus_twin(label.left), plus_twin(label.right))
