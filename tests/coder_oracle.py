"""The closed-form `Coder.join` and `Coder.split` as they were before the
join became a sum of offsets, kept as the reference the offsets and the
index walk are held to.

A node label (l r)_s of a node coder is at leaf rank lr_l * NL_r + lr_r
times NS, plus the sign rank (bit(s) * NS_l + sr_l) * NS_r + sr_r, with
bit(-) = 0 and bit(+) = 1; in CT there is no sign rank and NS = 1.
"""

from __future__ import annotations

from bct.labels import MINUS, PLUS, Coder


def join(code: Coder, i: int, j: int, sign: int) -> int:
    """The index of the node label with children at indices i and j."""
    li, lj = code.left.ns, code.right.ns
    rank = (i // li * code.right.nl + j // lj) * code.ns
    if not code.bct:
        return rank
    return rank + ((sign > 0) * li + i % li) * lj + j % lj


def split(code: Coder, index: int) -> tuple[int, int, int]:
    """(left index, right index, sign) of the node label at `index`."""
    left, right = code.left, code.right
    rank, signs = divmod(index, code.ns)
    i, j = divmod(rank, right.nl)
    if not code.bct:
        return i, j, PLUS
    rest, sj = divmod(signs, right.ns)
    bit, si = divmod(rest, left.ns)
    return i * left.ns + si, j * right.ns + sj, PLUS if bit else MINUS
