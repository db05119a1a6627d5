"""Exact-rational rank computations and the dimension-excess quantities.

delta2(A,B) = D_AB - D_A*D_B measures how far product states fall short of
spanning the bipartite space; delta3 is the tripartite analogue relative to
the four biseparable classes.  Bilocal tomography holds iff delta3 vanishes
and the tripartite dimension identity balances.

The product families are read only for ranks and supports, so each is built
as int rows by the one product rule, `states.product_nums`, with no vector
object: |u>|v> = 1/2 sum_s (uv)_s is {(uv)_s: 1 for each s}.  The 1/2 (1/4
for a triple, 1 in CT) scales every row alike, so dropping it changes no
rank or support.  A transported family reads its moved indices from one
whole-basis table (`_Transport.table`), built for the family and dropped
with it.

`span_report` ranks the four biseparable families from that structure, with
no elimination.  No two rows of a family share a column, so a family's rank
is its row count: one count checks it (the columns used against the
entries), and a scan runs only to name the row at fault.  Every row of
`ab_c`, `a_bc` and `ac_b` holds two entries equal to 1 (one in CT), so
their union is an unsigned incidence matrix, of rank the columns used minus
the bipartite components.  Each `products` row is a sum of `ab_c` rows, so
it adds nothing to the union.  A family of any other structure is refused
with an `AssertionError`, never ranked another way.  `pair_report`, the
`tomography` report of one pair, counts its two families the same way (the
product states of AB, and its unit basis), so only the public `rank`
eliminates.  Each report is the JSON document the CLI writes, `span_report`
for one triple of `verify-dims`.  Both refuse a trivial factor up front,
since the families' moves need a node at each place of the product.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Iterator, Sequence

from .labels import (
    Move,
    MoveKind,
    basis_size,
    node_signs,
    transport,
)
from .states import (
    GeneralizedVector,
    Nums,
    product_nums,
)
from .systems import (
    SystemTree,
    TheoryMode,
    Trivial,
    compose_systems,
    dimension,
)


def _echelon(rows: list[dict[int, int]], pivots: dict[int, dict[int, int]]
             ) -> dict[int, dict[int, int]]:
    """`rows` (mutated) reduced into `pivots`, rows by leading column: a row
    against a pivot becomes row*p - pivot*q, p and q the leading entries over
    their gcd, then divided by its entries' gcd; a pivot row never changes."""
    for row in rows:
        while row:
            col = min(row)
            pivot = pivots.get(col)
            if pivot is None:
                pivots[col] = row
                break
            g = gcd(pivot[col], row[col])
            p, q = pivot[col] // g, row[col] // g
            for c in row:
                row[c] *= p
            for c, v in pivot.items():
                nv = row.get(c, 0) - q * v
                if nv:
                    row[c] = nv
                else:
                    del row[c]
            g = gcd(*row.values())
            if g > 1:
                for c in row:
                    row[c] //= g
    return pivots


def _independent_rows(name: str, rows: Sequence[Nums]) -> int:
    """The rank of a family whose rows have pairwise disjoint non-empty
    supports, which makes them independent: its row count.  Disjointness
    is one count, the columns used against the entries; any other family
    is refused, and only then a scan names the row and the column at fault."""
    if all(rows) and len(set().union(*rows)) == sum(map(len, rows)):
        return len(rows)
    seen: set[int] = set()
    for k, row in enumerate(rows):  # the count has failed, so this scan stops
        if not row or not seen.isdisjoint(row):
            break
        seen.update(row)
    fault = (f"shares column {min(seen.intersection(row))} with an earlier row" if row
             else "is empty")
    raise AssertionError(f"family {name!r}: row {k} {fault}")


def _incidence_rank(families: Iterable[tuple[str, Iterable[Nums]]], n: int) -> int:
    """The rank of rows of one or two entries equal to 1 on columns in
    range(n), named by family: an unsigned incidence matrix, the columns
    its vertices and a row an edge, or a half-edge when it has one entry.
    Over Q its rank is the number of columns used minus the number of
    bipartite components, found by union-find with parity: a half-edge or
    an odd cycle leaves a component non-bipartite.  A row of any other
    shape is refused with the entry at fault."""
    parent = list(range(n))
    parity = [0] * n  # a column's colour relative to its parent's
    size = [1] * n
    odd = [0] * n  # at a root: 1 if its component is not bipartite
    used = [0] * n
    for name, rows in families:
        for k, row in enumerate(rows):
            if not 0 < len(row) < 3:
                raise AssertionError(f"family {name!r}: row {k} has {len(row)} entries, "
                                     "not 1 or 2")
            roots = []
            for col, value in row.items():
                if value != 1 or not 0 <= col < n:
                    raise AssertionError(f"family {name!r}: row {k} has entry {value} "
                                         f"at column {col}, not 1 in range({n})")
                used[col] = 1
                colour = 0
                while parent[col] != col:
                    colour ^= parity[col]
                    col = parent[col]
                roots.append((col, colour))
            if len(roots) == 1:
                odd[roots[0][0]] = 1
                continue
            (r, cr), (t, ct) = roots
            if r == t:
                if cr == ct:  # both ends one colour: the row closes an odd cycle
                    odd[r] = 1
                continue
            if size[r] < size[t]:
                r, t = t, r
            # t joins r with the colour that gives the two ends different colours
            parent[t], parity[t] = r, cr ^ ct ^ 1
            size[r] += size[t]
            odd[r] |= odd[t]
        del rows  # let the family go before the next one is drawn
    bipartite = sum(1 for col in range(n) if parent[col] == col and used[col] and not odd[col])
    return sum(used) - bipartite


def rank(vectors: Sequence[GeneralizedVector]) -> int:
    """Rank of the coefficient matrix, by fraction-free sparse elimination."""
    for i, vector in enumerate(vectors):
        if vector.system is not vectors[0].system:
            raise ValueError(f"vectors must share a system: vector {i} differs from vector 0")
    return len(_echelon([dict(vector.nums) for vector in vectors], {}))


def _basis(system: SystemTree) -> list[Nums]:
    """The row {u: 1} of each basis index u of `system`, within the bound."""
    return [{u: 1} for u in range(basis_size(system))]


def _products(x: SystemTree, xs: list[Nums], y: SystemTree, ys: list[Nums],
              moves: Sequence[Move] = ()) -> list[Nums]:
    """The int rows of |r>|t> for every row r of `xs` on x (outer) and t of
    `ys` on y (`states.product_nums`), carried along `moves`."""
    xy = compose_systems(x, y)
    rows = product_nums(x, xs, y, ys, xy)
    if moves:
        table = transport(xy, moves)[1].table()
        rows = [{table[i]: n for i, n in row.items()} for row in rows]
    return rows


def product_states(x: SystemTree, y: SystemTree) -> list[Nums]:
    """|u>|v> for every basis index u of x (outer) and v of y, as int rows on
    x (x) y: the one family `pair_report` reads."""
    return _products(x, _basis(x), y, _basis(y))


def _excess(x: SystemTree, y: SystemTree) -> int:
    """Delta2 of x and y: D_xy - D_x*D_y."""
    return dimension(compose_systems(x, y)) - dimension(x) * dimension(y)


def _tripartite_families(a: SystemTree, b: SystemTree, c: SystemTree
                         ) -> Iterator[tuple[str, list[Nums]]]:
    """Spanning families for the four biseparable classes, on ((AB)C), by
    name; every bound is checked in this call, before the first family is
    built, and each family is built when the previous one has been taken."""
    ab, bc, ac = compose_systems(a, b), compose_systems(b, c), compose_systems(a, c)
    cs, as_, bs, abs_, bcs, acs = [_basis(system) for system in (c, a, b, ab, bc, ac)]
    # A x (BC) reassociated, and (AC) x B braided and reassociated, onto ((AB)C)
    to_abc = [Move(MoveKind.ASSOC_R, ""), Move(MoveKind.BRAID, "1"), Move(MoveKind.ASSOC_L, "")]

    def families():
        yield "products", _products(ab, _products(a, as_, b, bs), c, cs)
        yield "ab_c", _products(ab, abs_, c, cs)
        yield "a_bc", _products(a, as_, bc, bcs, [Move(MoveKind.ASSOC_L, "")])
        yield "ac_b", _products(ac, acs, b, bs, to_abc)

    return families()


def span_report(a: SystemTree, b: SystemTree, c: SystemTree) -> dict:
    """The `verify-dims` report of ((AB)C): delta3 and the biseparable class
    ranks, from the families' structure (see the module docstring), each
    family dropped once it is counted.  Bilocal discriminability holds iff
    `delta3` is 0 and `bilocal_identity_holds`, the dimension identity
    balancing.  Every bound, that of ((AB)C) too, is checked before the
    first family and the union-find arrays over ((AB)C) are made.  The
    union leaves `products` out: the product rule is bilinear and neither
    family is transported, so the row of |u>|v>|w> is the sum over s of
    the `ab_c` rows of ((uv)_s, w), under every fault."""
    if any(isinstance(system, Trivial) for system in (a, b, c)):
        raise ValueError("delta3 needs three non-trivial systems")
    families = _tripartite_families(a, b, c)
    d_abc = basis_size(compose_systems(compose_systems(a, b), c))
    class_ranks = {}

    def counted():
        for name, family in families:
            class_ranks[name] = _independent_rows(name, family)
            if name != "products":
                yield name, family
            del family  # the next family is built with no row of this one alive

    r = class_ranks["union"] = _incidence_rank(counted(), d_abc)
    da, db, dc = dimension(a), dimension(b), dimension(c)
    d2 = {"AB": _excess(a, b), "BC": _excess(b, c), "AC": _excess(a, c)}
    rhs = da * db * dc + d2["AB"] * dc + d2["BC"] * da + d2["AC"] * db
    return {
        "dims": [da, db, dc],
        "mode": a.mode.value,
        "d_systems": [da, db, dc],
        "d_composite": d_abc,
        "delta2": d2,
        "delta3": d_abc - r,
        "class_ranks": class_ranks,
        "bilocal_identity_holds": d_abc == rhs,
    }


def pair_report(a: SystemTree, b: SystemTree) -> dict:
    """The `tomography` report of A (x) B, from one product family.

    Delta2 is cross-checked against the rank of the products, which span
    the separable subspace; strict bilocality is delta2 > 0 (= 0 in CT)
    with the effects {<x|} of AB of full rank; the corollary is that every
    product spreads over n pure labels, as many as a node has signs, and
    that l = 0 labels are missed by all of them.  Both families have
    disjoint supports, so each rank is a row count.  Every bound is checked
    before any product is built.
    """
    if isinstance(a, Trivial) or isinstance(b, Trivial):
        raise ValueError("delta2 needs two non-trivial systems")
    ab = compose_systems(a, b)
    for system in (a, b, ab):
        basis_size(system)
    products = product_states(a, b)
    d_ab, delta2 = dimension(ab), _excess(a, b)
    effect_rank = _independent_rows("effects", _basis(ab))
    separable_rank = _independent_rows("products", products)
    if delta2 != d_ab - separable_rank:
        raise AssertionError(
            f"separable span rank {separable_rank} disagrees with the dimension rule")
    sizes = {len(row) for row in products}
    if len(sizes) != 1:
        raise AssertionError(f"non-uniform product supports: {sizes}")
    missed = d_ab - len(set().union(*products))
    strict = delta2 == 0 if a.mode is TheoryMode.CT else delta2 > 0
    return {
        "dims": [dimension(a), dimension(b)],
        "mode": a.mode.value,
        "d_ab": d_ab,
        "delta2": delta2,
        "strict_bilocality": strict and effect_rank == d_ab,
        "corollary_nab": sizes == {len(node_signs(a.mode))} and missed == 0,
    }
