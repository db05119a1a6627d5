"""Fault-injection hooks for the consistency suite (test plumbing only).

Each documented mutation breaks one leg of the coherence structure so the
suite can demonstrate it has power, and each alters exactly one code path:

- ASSOC_SIGN: the associator moves in `labels` (`_assoc_r`, `_assoc_l`);
- BRAID_SIGN: the label-level BRAID move in `labels` (`_braid`); kernel-level
  braids (`braid_kernel`, the right factor of `parallel_compose`) do not
  use it;
- PARALLEL_DROP_TAU: the left factor k1 (x) I inside
  `kernels.parallel_compose`, never `extend_at` itself.

Faults are process-global; they are meant to be toggled around a single
suite run, never during normal use.
"""

from __future__ import annotations

from contextlib import contextmanager

ASSOC_SIGN = "assoc-sign"        # associator inner sign s1*s2 replaced by s2
BRAID_SIGN = "braid-sign"        # braid flips the swapped node's own sign
PARALLEL_DROP_TAU = "parallel-drop-tau"  # left extension drops tau from the node sign

KNOWN_FAULTS = (ASSOC_SIGN, BRAID_SIGN, PARALLEL_DROP_TAU)

_active: str | None = None


def active_fault() -> str | None:
    return _active


@contextmanager
def inject_fault(name: str | None):
    global _active
    if name is not None and name not in KNOWN_FAULTS:
        raise ValueError(f"unknown fault {name!r}; known: {KNOWN_FAULTS}")
    previous = _active
    _active = name
    try:
        yield
    finally:
        _active = previous
