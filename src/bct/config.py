"""Global configuration: dimension bounds for exhaustive basis enumeration.

One policy holds in every module: a basis is enumerated only when its
dimension is within `max_dim()`, and whatever is larger is reported from
the dimension rule or refused.  The universal processor has its own bound on
its domain (`DILATION_MAX_DIM`), checked by arithmetic before anything of it
is built; the processor's own systems are enumerated under that bound.

Parsed system and label strings are capped at `MAX_NESTING` levels of
parentheses, and the systems the CLI builds itself nest no deeper: `protocol
capacity` takes at most `MAX_NESTING + 1` carriers.
"""

from __future__ import annotations

import os

# Basis enumeration is refused above this composite dimension unless the
# caller passes an explicit bound.  Overridable via the BCT_MAX_DIM env var.
DEFAULT_MAX_DIM = 4096

# The universal-processor systems are much larger than anything a user
# enumerates by hand (dims (3,3) already need a 7776-label basis), so the
# dilation module carries its own default.
DILATION_MAX_DIM = 262144

# System and label strings nest at most this deep: every tree walker
# (parsing, label hashing, printing, label coding) recurses once per level, and
# the cap keeps them all well inside the interpreter's recursion limit.
MAX_NESTING = 200


def max_dim() -> int:
    env = os.environ.get("BCT_MAX_DIM")
    if env is not None:
        value = int(env)
        if value <= 0:
            raise ValueError("BCT_MAX_DIM must be positive")
        return value
    return DEFAULT_MAX_DIM
