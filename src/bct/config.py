"""Global configuration: dimension bounds for exhaustive basis enumeration.

One policy holds in every module: a basis is enumerated only when its
dimension is within `max_dim()`, and whatever is larger is reported from
the dimension rule or refused.  The universal processor has its own bound on
its domain (`DILATION_MAX_DIM`), checked by arithmetic before anything of it
is built; the processor's own systems are enumerated under that bound.

Parsed system and label strings are capped at `MAX_NESTING` levels of
parentheses, and the systems the CLI builds itself nest no deeper: `protocol
capacity` takes at most `MAX_NESTING + 1` carriers.

An error message echoes an input value through `shown`, so that it prints at
most `_SHOWN` characters of it, in every module.
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

# An error message echoes at most this many characters of the input.
_SHOWN = 80


def shown(value: object, quoted: bool = True) -> str:
    """`value` as an error message echoes it, cut after _SHOWN characters
    and marked "..." where cut: a string's repr (the string itself if not
    `quoted`), or any other value's repr.  A far longer int (which `repr`
    refuses past the interpreter's digit limit) has its digits cut by
    arithmetic first, keeping a few more than are shown."""
    if type(value) is int and value.bit_length() > 4 * _SHOWN:
        drop = value.bit_length() * 30103 // 100000 - _SHOWN - 3  # log10(2) = 0.30103
        text = "-" * (value < 0) + repr(abs(value) // 10 ** drop)
    else:
        text = value if isinstance(value, str) else repr(value)
    cut = repr(text[:_SHOWN]) if quoted and isinstance(value, str) else text[:_SHOWN]
    return cut + "..." if len(text) > _SHOWN else cut


def max_dim() -> int:
    """The enumeration bound: `BCT_MAX_DIM` if set, else `DEFAULT_MAX_DIM`.
    A value that is not a positive int (one `int` refuses, by its text or
    its digit limit, or one below 1) is refused with one message that
    echoes it through `shown`."""
    env = os.environ.get("BCT_MAX_DIM")
    if env is None:
        return DEFAULT_MAX_DIM
    try:
        value = int(env)
    except ValueError:
        value = 0
    if value <= 0:
        raise ValueError(f"BCT_MAX_DIM must be a positive integer, got {shown(env)}")
    return value
