"""Exact-rational rank computations and the dimension-excess quantities.

delta2(A,B) = D_AB - D_A*D_B measures how far product states fall short of
spanning the bipartite space; delta3 is the tripartite analogue relative to
the four biseparable classes.  Bilocal tomography holds iff delta3 vanishes
and the tripartite dimension identity balances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import Iterable, Iterator, Sequence

from .labels import (
    Move,
    MoveKind,
    basis_size,
)
from .states import (
    GeneralizedVector,
    StateVector,
    apply_moves_in_place,
    discriminating_instrument,
    shared_system,
    tensor_products,
)
from .systems import (
    SystemTree,
    TheoryMode,
    Trivial,
    compose_systems,
    dimension,
)


def _int_rows(vectors: Sequence[GeneralizedVector]) -> list[dict[int, int]]:
    """Each vector's numerators (the vector times its denominator, which
    leaves the rank as it is) as a fresh int row, its columns the basis
    indices of the one system of `vectors`."""
    shared_system(vectors)
    return [dict(vector.nums) for vector in vectors]


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


def _merged(echelons: Iterable[dict[int, dict[int, int]]]) -> dict[int, dict[int, int]]:
    """An echelon of all rows of `echelons` (over one column index): copies
    of the others' rows reduced into a copy of the largest one."""
    largest, *others = sorted(echelons, key=len, reverse=True)
    return _echelon([dict(row) for echelon in others for row in echelon.values()],
                    dict(largest))


def rank(vectors: Sequence[GeneralizedVector]) -> int:
    """Rank of the coefficient matrix, by fraction-free sparse elimination."""
    return len(_echelon(_int_rows(vectors), {}))


def _basis_states(system: SystemTree) -> list[GeneralizedVector]:
    """The pure state |u> of every basis index u, as the canonical ints
    ({u: 1}, 1), built unchecked."""
    return [StateVector._trusted(system, {u: 1}, 1) for u in range(basis_size(system))]


def product_states(x: SystemTree, y: SystemTree,
                   moves: Sequence[Move] = ()) -> list[GeneralizedVector]:
    """|u>|v> for every pure label u of x (outer) and v of y, carried along
    `moves` as one family.  `delta2` and `corollary_nab` take this family of
    A (x) B, so a caller that needs both builds it once."""
    family = tensor_products(_basis_states(x), _basis_states(y))
    if moves:
        apply_moves_in_place(family, moves)
    return family


def delta2(a: SystemTree, b: SystemTree,
           products: Sequence[GeneralizedVector] | None = None) -> int:
    """Dimension excess of AB over the span of the separable states.

    The arithmetic value D_AB - D_A*D_B is cross-checked against the rank of
    the product-state family (`product_states(a, b)` unless given), which
    spans the separable subspace.
    """
    if isinstance(a, Trivial) or isinstance(b, Trivial):
        raise ValueError("delta2 needs two non-trivial systems")
    ab = compose_systems(a, b)
    arithmetic = dimension(ab) - dimension(a) * dimension(b)
    separable_rank = rank(product_states(a, b) if products is None else products)
    by_rank = dimension(ab) - separable_rank
    if arithmetic != by_rank:
        raise AssertionError(
            f"separable span rank {separable_rank} disagrees with the dimension rule")
    return arithmetic


def verify_strict_bilocality(a: SystemTree, b: SystemTree,
                             products: Sequence[GeneralizedVector] | None = None
                             ) -> bool:
    """Local tomography fails (delta2 > 0) yet bipartite effects span the dual."""
    ab = compose_systems(a, b)
    effect_rank = rank(discriminating_instrument(ab))
    if a.mode is TheoryMode.CT:
        return delta2(a, b, products) == 0 and effect_rank == dimension(ab)
    return delta2(a, b, products) > 0 and effect_rank == dimension(ab)


def _tripartite_families(a: SystemTree, b: SystemTree, c: SystemTree
                         ) -> Iterator[tuple[str, list[GeneralizedVector]]]:
    """Spanning families for the four biseparable classes, on ((AB)C), by
    name; each is built when the previous one has been taken."""
    cs = _basis_states(c)
    # A x (BC) reassociated, and (AC) x B braided and reassociated, onto ((AB)C)
    to_abc = [Move(MoveKind.ASSOC_R, ""), Move(MoveKind.BRAID, "1"),
              Move(MoveKind.ASSOC_L, "")]
    yield "products", tensor_products(product_states(a, b), cs)
    yield "ab_c", product_states(compose_systems(a, b), c)
    yield "a_bc", product_states(a, compose_systems(b, c), [Move(MoveKind.ASSOC_L, "")])
    yield "ac_b", product_states(compose_systems(a, c), b, to_abc)


@dataclass(frozen=True)
class SpanReport:
    dims: tuple[int, ...]
    mode: str
    d_systems: tuple[int, ...]
    d_composite: int
    delta2_pairs: dict[str, int] = field(default_factory=dict)
    delta3: int = 0
    class_ranks: dict[str, int] = field(default_factory=dict)
    bilocal_identity_holds: bool = True

    def to_json(self) -> dict:
        return {
            "dims": list(self.dims),
            "mode": self.mode,
            "d_systems": list(self.d_systems),
            "d_composite": self.d_composite,
            "delta2": dict(self.delta2_pairs),
            "delta3": self.delta3,
            "class_ranks": dict(self.class_ranks),
            "bilocal_identity_holds": self.bilocal_identity_holds,
        }

    @property
    def bilocal(self) -> bool:
        """Bilocal discriminability: delta3 = 0 and the dimension identity balances."""
        return self.delta3 == 0 and self.bilocal_identity_holds


def span_report(a: SystemTree, b: SystemTree, c: SystemTree) -> SpanReport:
    abc = compose_systems(compose_systems(a, b), c)
    d_abc = dimension(abc)
    echelons, firsts = {}, []
    for name, family in _tripartite_families(a, b, c):
        firsts.append(family[0])
        echelons[name] = _echelon(_int_rows(family), {})
        del family  # the next family is built with no vector of this one alive
    shared_system(firsts)  # all on ((AB)C): one column numbering, so the rows merge
    class_ranks = {name: len(echelon) for name, echelon in echelons.items()}
    r = class_ranks["union"] = len(_merged(echelons.values()))
    da, db, dc = dimension(a), dimension(b), dimension(c)
    d2 = {
        "AB": dimension(compose_systems(a, b)) - da * db,
        "BC": dimension(compose_systems(b, c)) - db * dc,
        "AC": dimension(compose_systems(a, c)) - da * dc,
    }
    rhs = da * db * dc + d2["AB"] * dc + d2["BC"] * da + d2["AC"] * db
    return SpanReport(
        dims=(da, db, dc),
        mode=a.mode.value,
        d_systems=(da, db, dc),
        d_composite=d_abc,
        delta2_pairs=d2,
        delta3=d_abc - r,
        class_ranks=class_ranks,
        bilocal_identity_holds=(d_abc == rhs),
    )


def corollary_nab(a: SystemTree, b: SystemTree,
                  products: Sequence[GeneralizedVector] | None = None
                  ) -> tuple[int, int]:
    """(n, l): pure labels per product support, labels missed by all products.

    Strict bilocality corresponds to n = 2 and l = 0; local tomography (CT)
    to n = 1 and l = 0.  Raises if the support sizes are not uniform.
    """
    covered: set = set()
    sizes: set[int] = set()
    for product in product_states(a, b) if products is None else products:
        support = set(product.nums)
        sizes.add(len(support))
        covered |= support
    if len(sizes) != 1:
        raise AssertionError(f"non-uniform product supports: {sizes}")
    l = dimension(compose_systems(a, b)) - len(covered)
    return sizes.pop(), l


def verify_corollary_nab(a: SystemTree, b: SystemTree,
                         products: Sequence[GeneralizedVector] | None = None) -> bool:
    n, l = corollary_nab(a, b, products)
    if a.mode is TheoryMode.CT:
        return n == 1 and l == 0
    return n == 2 and l == 0
