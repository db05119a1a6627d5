"""States, effects and generalized vectors over the pure-label basis.

A vector is stored on basis indices (see `labels.Coder`: a label's index is
its place in the canonical basis order, worked out by closed form): `nums`
maps an index to an int numerator, all over one positive denominator `den`,
in canonical form (no numerator is zero, and the denominator shares no
factor with all the numerators), so equal vectors hold equal ints.  The
composition rule |i>|j> = 1/2 sum_s (ij)_s keeps every product dyadic, and
the calculus below works on the ints alone: `product_nums`, on
`labels.offsets`, is the one product rule, for `tensor_states` and the
tomography families; transports read `labels.transport`, marginals split
the regrouped index, and kernel images and steering are one rule, `image`,
on the regroup-apply engine `labels.act_rows`.  The constructors take
label-keyed coefficients, and `coeffs` and `v[label]` read them back as
exact `Fraction`s in lowest terms, built anew on each read, for the API,
`serial` and reports.

Nothing here ever renormalizes.  The null state is the empty coefficient
map.  Sub-normalized states are first-class (they are what instrument
branches produce).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Hashable, Mapping, Sequence

from .labels import (
    PLUS,
    IntRows,
    Move,
    PureLabel,
    act_rows,
    basis_indices,
    basis_size,
    coder,
    label_text,
    label_to_str,
    offsets,
    regroup,
    transport,
)
from .systems import (
    SystemTree,
    Trivial,
    compose_systems,
    dimension,
    subtree_at,
)

ONE = Fraction(1)

Coeffs = Mapping[PureLabel, Fraction | int]
Nums = dict[int, int]


def int_coeffs(coeffs: Mapping[Hashable, Fraction | int]) -> tuple[dict, int]:
    """Nonzero `coeffs` as int numerators over the LCM of their denominators
    (a zero's is 1), under the same keys.

    Each value in lowest terms leaves the LCM no factor common to all the
    numerators, so the result is in canonical form.
    """
    values = {key: value if isinstance(value, Fraction) else Fraction(value)
              for key, value in coeffs.items()}
    den = lcm(*(value.denominator for value in values.values()))
    return ({key: value.numerator * (den // value.denominator)
             for key, value in values.items() if value}, den)


def lowest_terms(nums: Nums, den: int) -> tuple[Nums, int]:
    """`nums` over the positive `den` in canonical form: zero numerators
    dropped, and the common factor of all the ints divided out."""
    if 0 in nums.values():
        nums = {x: n for x, n in nums.items() if n}
    g = gcd(den, *nums.values())
    if g == 1:
        return nums, den
    return {x: n // g for x, n in nums.items()}, den // g


@dataclass(frozen=True, init=False)
class GeneralizedVector:
    """A vector in the real span of the pure labels; no positivity constraint.

    The coefficient of the label at basis index x is `nums[x] / den`, in
    canonical form (see `lowest_terms`).
    """

    system: SystemTree
    nums: Nums
    den: int

    def __init__(self, system: SystemTree, coeffs: Coeffs | None = None) -> None:
        by_label, den = int_coeffs(coeffs or {})
        index = coder(system).index
        nums = {}
        for label, n in by_label.items():
            x = index(label)
            if x is None:
                raise ValueError(f"label {label_text(label)} does not belong to the system")
            nums[x] = n
        self.__dict__.update(system=system, nums=nums, den=den)  # past the frozen setattr
        self._check()

    def _check(self) -> None:
        """The constructor's checks of the stored weights (every index of a
        vector is a label of its system, by construction)."""

    @classmethod
    def _trusted(cls, system: SystemTree, nums: Nums, den: int) -> GeneralizedVector:
        """A vector of class `cls` that the calculus built from validated inputs.

        Products, transports, marginals and kernel images keep every
        invariant the constructors check, so nothing is checked here; `nums`
        over `den` must already be in canonical form.  Anything built from
        outside input goes through the constructor.
        """
        vector = object.__new__(cls)
        vector.__dict__.update(system=system, nums=nums, den=den)
        return vector

    @classmethod
    def _checked(cls, system: SystemTree, nums: Nums, den: int) -> GeneralizedVector:
        """A vector built as `_trusted` builds it, not through it, then given
        the constructor's checks: for a result some of whose inputs did not
        pass a constructor as strict as `cls`'s."""
        vector = object.__new__(cls)
        vector.__dict__.update(system=system, nums=nums, den=den)
        vector._check()
        return vector

    @property
    def coeffs(self) -> dict[PureLabel, Fraction]:
        """The coefficients by label, as `Fraction`s in lowest terms (a fresh dict)."""
        label = coder(self.system).label
        return {label(x): Fraction(n, self.den) for x, n in self.nums.items()}

    @property
    def weight(self) -> Fraction:
        return Fraction(sum(self.nums.values()), self.den)

    def __getitem__(self, label: PureLabel) -> Fraction:
        x = coder(self.system).index(label)
        return Fraction(0 if x is None else self.nums.get(x, 0), self.den)


class StateVector(GeneralizedVector):
    def _check(self) -> None:
        for x, n in self.nums.items():
            if n < 0:
                raise ValueError(f"negative weight {Fraction(n, self.den)} "
                                 f"at {label_to_str(coder(self.system).label(x))}")
        if sum(self.nums.values()) > self.den:
            raise ValueError(f"total weight {self.weight} exceeds 1")

    @property
    def is_deterministic(self) -> bool:
        return sum(self.nums.values()) == self.den


class EffectVector(GeneralizedVector):
    def _check(self) -> None:
        for x, n in self.nums.items():
            if not 0 <= n <= self.den:
                raise ValueError(f"effect coefficient {Fraction(n, self.den)} "
                                 f"outside [0,1] at {label_to_str(coder(self.system).label(x))}")


def pure_state(system: SystemTree, label: PureLabel) -> StateVector:
    return StateVector(system, {label: ONE})


def unit_effect(system: SystemTree) -> EffectVector:
    return EffectVector._trusted(system, dict.fromkeys(basis_indices(system), 1), 1)


def point_effect(system: SystemTree, label: PureLabel) -> EffectVector:
    return EffectVector(system, {label: ONE})


def product_nums(x: SystemTree, xs: Sequence[Nums], y: SystemTree,
                 ys: Sequence[Nums], xy: SystemTree) -> list[Nums]:
    """The one product rule, on numerators: the row of |r>|t> on xy = x (x) y
    for each row r of `xs` on x (outer) and t of `ys` on y, with na * nb on
    each sign s of (ij)_s, in the order i, j, then - before +; the 1/2 is
    the caller's.  Each row list is rewritten into `labels.offsets` once."""
    left, right, plus = offsets(x, y, xy)
    steps = (0, plus) if plus else (0,)
    lefts = [[(left(i), n) for i, n in r.items()] for r in xs]
    rights = [[(right(j), n) for j, n in t.items()] for t in ys]
    return [{base + offset + step: na * nb
             for base, na in r for offset, nb in t for step in steps}
            for r in lefts for t in rights]


def tensor_states(rho: GeneralizedVector, sigma: GeneralizedVector) -> GeneralizedVector:
    """Parallel composition; |i>|j> = (1/2) sum_s (ij)_s in BCT, (ij) in CT.

    Two states compose to a state and two vectors of the span to a vector,
    both valid by construction; mixed factors get the checks of the
    constructor of the first one's class.
    """
    x, y = rho.system, sigma.system
    if isinstance(rho, EffectVector) or isinstance(sigma, EffectVector):
        raise TypeError("tensor_states takes states and vectors of the span, not effects")
    system = compose_systems(x, y)
    # the denominator takes one more factor, the number of signs of the
    # node: D_xy / (D_x * D_y), 1 for a scalar factor and in CT
    (nums,) = product_nums(x, [rho.nums], y, [sigma.nums], system)
    out = lowest_terms(nums, rho.den * sigma.den
                       * (dimension(system) // (dimension(x) * dimension(y))))
    cls = type(rho)
    return cls._trusted(system, *out) if cls is type(sigma) else cls._checked(system, *out)


def pair(effect: GeneralizedVector, rho: GeneralizedVector) -> Fraction:
    """(effect | rho), summed over the smaller of the two index maps."""
    if effect.system != rho.system:
        raise ValueError("effect and state live on different systems")
    if len(effect.nums) < len(rho.nums):
        small, big = effect.nums, rho.nums
    else:
        small, big = rho.nums, effect.nums
    return Fraction(sum(n * big[x] for x, n in small.items() if x in big), effect.den * rho.den)


def apply_moves_to_vector(vector: GeneralizedVector, moves: list[Move]) -> GeneralizedVector:
    """Transport a vector along a move sequence (a bijective relabeling).
    The empty sequence leaves the vector as it is."""
    system, table = transport(vector.system, moves)
    if table is None:
        return vector
    return type(vector)._trusted(system, {table[x][0]: n for x, n in vector.nums.items()},
                                 vector.den)


def image(rows: IntRows, den: int, out_system: SystemTree, vector: GeneralizedVector,
          at: str) -> tuple[SystemTree, Nums, int]:
    """The system and canonical ints of the image of `vector` under a map
    with int `rows` over `den` into `out_system`, acting at the subtree at
    `at` (`labels.act_rows`).  Flips are unobservable on the whole image, so
    each entry's is summed out."""
    system, rows = act_rows(rows, out_system, vector.system, at, vector.nums)
    out: Nums = {}
    for x, n in vector.nums.items():
        row = rows.get(x)
        if row:
            for (b, _tau), w in row.items():
                out[b] = out[b] + w * n if b in out else w * n
    return (system, *lowest_terms(out, vector.den * den))


def apply_effect_at(effect: GeneralizedVector, rho: StateVector, at: str) -> StateVector:
    """Contract a local effect against the subtree at `at` (steering): the
    image of `rho` under the effect read as a map into the trivial system,
    whose pairing sign is discarded, as local effects are sign independent.
    With `at` the whole tree the result is a scalar, a trivial state."""
    if effect.system != subtree_at(rho.system, at):
        raise ValueError("effect system does not match the selected subtree")
    rows = {a: {(0, PLUS): n} for a, n in effect.nums.items()}
    out = image(rows, effect.den, Trivial(rho.system.mode), rho, at)
    if isinstance(effect, EffectVector) and isinstance(rho, StateVector):
        return StateVector._trusted(*out)
    return StateVector._checked(*out)


def marginal(rho: GeneralizedVector, keep: str) -> GeneralizedVector:
    """Unit effect on the complement of `keep`; unique by causality.  The
    marginal of a `StateVector` is a `StateVector`, and of any other vector
    a `GeneralizedVector`, as for `kernels.apply`."""
    part = subtree_at(rho.system, keep)
    if keep == "":
        return rho
    out: Nums = {}
    moved = apply_moves_to_vector(rho, regroup(rho.system, keep))
    split = coder(moved.system).split
    for y, n in moved.nums.items():
        a = split(y)[0]
        out[a] = out[a] + n if a in out else n
    cls = StateVector if isinstance(rho, StateVector) else GeneralizedVector
    return cls._trusted(part, *lowest_terms(out, rho.den))


def is_separable(rho: StateVector, part: str = "0") -> bool:
    """Separability across the bipartition (subtree at `part`, complement).

    A state is separable iff each regrouped entry (a e)_u equals its sign
    twin (a e)_{-u}, `u * step` below it by `labels.offsets`.  The CT step
    is 0: each CT index is its own twin, and every CT state is separable.
    """
    if part == "":
        raise ValueError("bipartition selector must pick a proper subtree")
    moved = apply_moves_to_vector(rho, regroup(rho.system, part))
    regrouped, table = moved.system, moved.nums
    split, step = coder(regrouped).split, offsets(regrouped.left, regrouped.right, regrouped)[2]
    return all(n == table.get(y - split(y)[2] * step, 0) for y, n in table.items())


def sparse_sum(vectors: Sequence[GeneralizedVector], den: int) -> Nums:
    """The numerators of the vectors' sum over `den`, a multiple of every
    denominator, on the union of their supports only."""
    total: Nums = {}
    for v in vectors:
        scale = den // v.den
        for x, n in v.nums.items():
            total[x] = total[x] + n * scale if x in total else n * scale
    return total


def sum_to_unit(effects: Sequence[EffectVector]) -> bool:
    """The effects sum to the unit effect: one on every index of their
    system.  The others are added into a sparse total over the common
    denominator; the first is copied, each index of the total is popped
    from the copy and checked there, what is left of the copy must be one
    everywhere, and the supports must cover the system.  No effect is
    assumed to be the dense one."""
    den = lcm(*(e.den for e in effects))
    total = sparse_sum(effects[1:], den)
    first = effects[0]
    scale = den // first.den
    rest = dict(first.nums)
    for x, t in total.items():
        if rest.pop(x, 0) * scale + t != den:
            return False
    return (len(total) + len(rest) == dimension(first.system)
            and set(rest.values()) <= {first.den})


def discriminating_instrument(system: SystemTree) -> list[EffectVector]:
    """The observation-instrument {<x|} jointly discriminating the pure states."""
    return [EffectVector._trusted(system, {x: 1}, 1) for x in range(basis_size(system))]


def vectors_equal(a: GeneralizedVector, b: GeneralizedVector) -> bool:
    return a.system == b.system and a.den == b.den and a.nums == b.nums
