"""Fault-injection hooks for the consistency suite (test plumbing only).

Each documented mutation breaks one leg of the coherence structure so the
suite can demonstrate it has power, and each alters exactly one code path:

- ASSOC_SIGN: the associator moves of the raw calculus (`labels._assoc_r`, `_assoc_l`);
- BRAID_SIGN: the BRAID move of the raw calculus (`labels._braid`); kernel-level
  braids (`braid_kernel`) do not use it;
- PARALLEL_DROP_TAU: tau1 left out of the node sign in
  `kernels.parallel_compose`, when A and B are non-trivial; never
  `extend_at`.

The active fault is a context variable: `inject_fault` scopes it to the
current context, so a thread started inside the block (which begins with a
fresh context) runs without it.  Faults are meant to be toggled around a
single suite run, never during normal use.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar

ASSOC_SIGN = "assoc-sign"        # associator inner sign s1*s2 replaced by s2
BRAID_SIGN = "braid-sign"        # braid flips the swapped node's own sign
PARALLEL_DROP_TAU = "parallel-drop-tau"  # k1's tau left out of the node sign

KNOWN_FAULTS = (ASSOC_SIGN, BRAID_SIGN, PARALLEL_DROP_TAU)

_active: ContextVar[str | None] = ContextVar("bct_fault", default=None)


def active_fault() -> str | None:
    return _active.get()


@contextmanager
def inject_fault(name: str | None):
    if name is not None and name not in KNOWN_FAULTS:
        raise ValueError(f"unknown fault {name!r}; known: {KNOWN_FAULTS}")
    token = _active.set(name)
    try:
        yield
    finally:
        _active.reset(token)
