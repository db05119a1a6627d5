"""States, effects and generalized vectors over the pure-label basis.

Coefficients are exact rationals; nothing here ever renormalizes.  The null
state is the empty coefficient map.  Sub-normalized states are first-class
(they are what instrument branches produce).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

from .labels import (
    Move,
    NodeLabel,
    PureLabel,
    UNIT,
    enumerate_pure_labels,
    label_matches,
    move_system_sequence,
    move_table,
    node_signs,
    regroup,
)
from .systems import Node as SysNode
from .systems import (
    SystemTree,
    TheoryMode,
    Trivial,
    compose_systems,
    delete_at,
    subtree_at,
)

ZERO = Fraction(0)
ONE = Fraction(1)

Coeffs = Mapping[PureLabel, Fraction]


def _clean(coeffs: Coeffs) -> dict[PureLabel, Fraction]:
    return {label: value if isinstance(value, Fraction) else Fraction(value)
            for label, value in coeffs.items() if value != 0}


@dataclass(frozen=True)
class GeneralizedVector:
    """A vector in the real span of the pure labels; no positivity constraint."""

    system: SystemTree
    coeffs: dict[PureLabel, Fraction] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", _clean(self.coeffs))
        for label in self.coeffs:
            if not label_matches(self.system, label):
                raise ValueError(f"label {label} does not belong to the system")

    @classmethod
    def _trusted(cls, system: SystemTree, coeffs: Coeffs) -> GeneralizedVector:
        """A vector of class `cls` that the calculus built from validated inputs.

        Products, transports, marginals and kernel images keep every
        invariant the constructors check, so only zero coefficients are
        dropped here.  Anything built from outside input goes through the
        constructor.
        """
        vector = object.__new__(cls)
        object.__setattr__(vector, "system", system)
        object.__setattr__(vector, "coeffs",
                           {label: value for label, value in coeffs.items() if value})
        return vector

    @property
    def weight(self) -> Fraction:
        return sum(self.coeffs.values(), ZERO)

    def __getitem__(self, label: PureLabel) -> Fraction:
        return self.coeffs.get(label, ZERO)


@dataclass(frozen=True)
class StateVector(GeneralizedVector):
    def __post_init__(self) -> None:
        super().__post_init__()
        for label, value in self.coeffs.items():
            if value < 0:
                raise ValueError(f"negative weight {value} at {label}")
        if self.weight > 1:
            raise ValueError(f"total weight {self.weight} exceeds 1")

    @property
    def is_deterministic(self) -> bool:
        return self.weight == 1


@dataclass(frozen=True)
class EffectVector(GeneralizedVector):
    def __post_init__(self) -> None:
        super().__post_init__()
        for label, value in self.coeffs.items():
            if not 0 <= value <= 1:
                raise ValueError(f"effect coefficient {value} outside [0,1] at {label}")


def pure_state(system: SystemTree, label: PureLabel) -> StateVector:
    return StateVector(system, {label: ONE})


def scalar_state(mode: TheoryMode, value: Fraction) -> StateVector:
    return StateVector(Trivial(mode), {UNIT: Fraction(value)})


def unit_effect(system: SystemTree) -> EffectVector:
    return EffectVector(system, {label: ONE for label in enumerate_pure_labels(system)})


def point_effect(system: SystemTree, label: PureLabel) -> EffectVector:
    return EffectVector(system, {label: ONE})


def _scalar_product(a: GeneralizedVector, b: GeneralizedVector) -> Coeffs | None:
    """The coefficients of a (x) b when a factor is trivial (a scalar), else None."""
    if isinstance(a.system, Trivial):
        scalar, vector = a[UNIT], b.coeffs
    elif isinstance(b.system, Trivial):
        scalar, vector = b[UNIT], a.coeffs
    else:
        return None
    return {label: value * scalar for label, value in vector.items()}


def sign_shares(mode: TheoryMode, value: Fraction) -> list[tuple[int, Fraction]]:
    """|i>|j> = (1/2) sum_s (ij)_s in BCT, (ij) in CT: `value` split over the signs s."""
    signs = node_signs(mode)
    share = value / len(signs)
    return [(s, share) for s in signs]


def tensor_states(rho: GeneralizedVector, sigma: GeneralizedVector) -> GeneralizedVector:
    """Parallel composition; |i>|j> = (1/2) sum_s (ij)_s in BCT, (ij) in CT.

    Two states compose to a state and two vectors of the span to a vector,
    both valid by construction; mixed factors go through the constructor of
    the first one's class.
    """
    return tensor_products([rho], [sigma])[0]


def tensor_products(rhos: Sequence[GeneralizedVector],
                    sigmas: Sequence[GeneralizedVector]) -> list[GeneralizedVector]:
    """`tensor_states(rho, sigma)` for every rho of `rhos` (outer) and sigma
    of `sigmas`, each family on one system; the system of the products is
    composed once, and every product holds that one object."""
    if not rhos or not sigmas:
        return []
    x, y = shared_system(rhos), shared_system(sigmas)
    if x.mode is not y.mode:
        raise ValueError("cannot compose states from different theory modes")
    system = compose_systems(x, y)
    products = []
    for rho in rhos:
        for sigma in sigmas:
            if isinstance(rho, EffectVector) or isinstance(sigma, EffectVector):
                raise TypeError("effects compose with tensor_effects, not tensor_states")
            out = _scalar_product(rho, sigma)
            if out is None:
                out = {NodeLabel(la, lb, s): share
                       for la, va in rho.coeffs.items() for lb, vb in sigma.coeffs.items()
                       for s, share in sign_shares(system.mode, va * vb)}
            products.append(type(rho)._trusted(system, out) if type(rho) is type(sigma)
                            else type(rho)(system, out))
    return products


def tensor_effects(a: EffectVector, b: EffectVector) -> EffectVector:
    """Product effect; <a|<b| pairs to a(i)*b(j) on every sign of (ij)."""
    if a.system.mode is not b.system.mode:
        raise ValueError("cannot compose effects from different theory modes")
    system = compose_systems(a.system, b.system)
    out = _scalar_product(a, b)
    if out is None:
        signs = node_signs(system.mode)
        out = {NodeLabel(la, lb, s): va * vb
               for la, va in a.coeffs.items() for lb, vb in b.coeffs.items()
               for s in signs}
    if isinstance(a, EffectVector) and isinstance(b, EffectVector):
        return EffectVector._trusted(system, out)
    return EffectVector(system, out)


def pair(effect: GeneralizedVector, rho: GeneralizedVector) -> Fraction:
    if effect.system != rho.system:
        raise ValueError("effect and state live on different systems")
    if len(effect.coeffs) < len(rho.coeffs):
        small, big = effect.coeffs, rho.coeffs
    else:
        small, big = rho.coeffs, effect.coeffs
    return sum((value * big[label] for label, value in small.items() if label in big), ZERO)


def shared_system(vectors: Sequence[GeneralizedVector]) -> SystemTree | None:
    """The one system of `vectors` (None for none); raises naming the first vector off it."""
    for i, vector in enumerate(vectors):
        if vector.system is not vectors[0].system and vector.system != vectors[0].system:
            raise ValueError(f"vectors must share a system: vector {i} differs from vector 0")
    return vectors[0].system if vectors else None


def apply_moves_to_vectors(vectors: Sequence[GeneralizedVector],
                           moves: Sequence[Move]) -> list[GeneralizedVector]:
    """Transport a family on one system along a move sequence (a bijective
    relabeling): one tree walk and one move table, one moved system object."""
    if not vectors:
        return []
    system = move_system_sequence(shared_system(vectors), moves)
    table = move_table(moves)
    return [type(v)._trusted(system, {table[label][0]: w for label, w in v.coeffs.items()})
            for v in vectors]


def apply_moves_to_vector(vector: GeneralizedVector, moves: list[Move]) -> GeneralizedVector:
    """Transport a vector along a move sequence (a bijective relabeling)."""
    return apply_moves_to_vectors([vector], moves)[0]


def apply_effect_at(effect: GeneralizedVector, rho: StateVector, at: str) -> StateVector:
    """Contract a local effect against the subtree at `at` (steering).

    The pairing sign of the regrouped two-factor form is discarded, matching
    the sign independence of local effects.  With `at` the whole tree the
    result is a scalar wrapped as a state of the trivial system.
    """
    part = subtree_at(rho.system, at)
    if effect.system != part:
        raise ValueError("effect system does not match the selected subtree")
    if at == "":
        return scalar_state(rho.system.mode, pair(effect, rho))
    remainder = delete_at(rho.system, at)
    out: dict[PureLabel, Fraction] = {}
    for moved, value in _regrouped(rho, at):
        weight = effect.coeffs.get(moved.left, ZERO)
        if weight != 0:
            rest = moved.right
            out[rest] = out[rest] + weight * value if rest in out else weight * value
    if isinstance(effect, EffectVector) and isinstance(rho, StateVector):
        return StateVector._trusted(remainder, out)
    return StateVector(remainder, out)


def marginal(rho: StateVector, keep: str) -> StateVector:
    """Unit effect on the complement of `keep`; unique by causality."""
    part = subtree_at(rho.system, keep)
    if keep == "":
        return rho
    out: dict[PureLabel, Fraction] = {}
    for moved, value in _regrouped(rho, keep):
        out[moved.left] = out[moved.left] + value if moved.left in out else value
    return StateVector._trusted(part, out)


def _regrouped(rho: GeneralizedVector, at: str) -> Iterator[tuple[NodeLabel, Fraction]]:
    """Each coefficient of `rho` under its label regrouped to the two-factor
    form (a e)_u, with a on the subtree at `at` and e on the complement."""
    table = move_table(regroup(rho.system, at))
    for label, value in rho.coeffs.items():
        moved = table[label][0]
        assert isinstance(moved, NodeLabel)
        yield moved, value


def partial_pair_state(effect: GeneralizedVector, rho: StateVector) -> GeneralizedVector:
    """Pair a bipartite effect with a state of the left factor.

    Returns the functional on the right factor b |-> (effect | rho x b).
    """
    if not isinstance(effect.system, SysNode):
        raise ValueError("effect must live on a composite system")
    left = effect.system.left
    right = effect.system.right
    if rho.system != left:
        raise ValueError("state does not match the left factor")
    out: dict[PureLabel, Fraction] = {}
    for label in enumerate_pure_labels(right):
        value = pair(effect, tensor_states(rho, pure_state(right, label)))
        if value != 0:
            out[label] = value
    return GeneralizedVector(right, out)


def is_separable(rho: StateVector, part: str = "0") -> bool:
    """Separability across the bipartition (subtree at `part`, complement).

    A state is separable iff its regrouped coefficient table is symmetric
    under the pairing sign; in CT every state is separable.
    """
    if rho.system.mode is TheoryMode.CT:
        return True
    subtree_at(rho.system, part)
    if part == "":
        raise ValueError("bipartition selector must pick a proper subtree")
    table = dict(_regrouped(rho, part))
    for moved, value in table.items():
        partner = NodeLabel(moved.left, moved.right, -moved.sign)
        if value != table.get(partner, ZERO):
            return False
    return True


def discriminating_instrument(system: SystemTree) -> list[EffectVector]:
    """The observation-instrument {<x|} jointly discriminating the pure states."""
    return [point_effect(system, label) for label in enumerate_pure_labels(system)]


def vectors_equal(a: GeneralizedVector, b: GeneralizedVector) -> bool:
    return a.system == b.system and a.coeffs == b.coeffs
