import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bct import faults
from bct.kernels import apply, random_kernel, random_state
from bct.labels import (
    UNIT,
    LeafLabel,
    Move,
    MoveKind,
    NodeLabel,
    apply_moves_tracked,
    enumerate_pure_labels,
    move_system,
    move_system_sequence,
    node_signs,
    regroup,
)
from bct.states import (
    EffectVector,
    GeneralizedVector,
    StateVector,
    apply_effect_at,
    apply_moves_to_vector,
    discriminating_instrument,
    is_separable,
    marginal,
    pair,
    point_effect,
    pure_state,
    tensor_states,
    unit_effect,
)
from bct.systems import (
    Node,
    TheoryMode,
    Trivial,
    bibit,
    compose_systems,
    delete_at,
    leaf,
    left_comb,
    subtree_at,
)

import fraction_kernels
from kernel_helpers import plus, scaled

F = Fraction
A = bibit()
B = bibit()
AB = compose_systems(A, B)


def lab(i):
    return LeafLabel(i)


def node(l, r, s):
    return NodeLabel(l, r, s)


def half_pair(i, j):
    return {node(lab(i), lab(j), -1): F(1, 2), node(lab(i), lab(j), 1): F(1, 2)}


class TestTensor:
    def test_pure_product(self):
        out = tensor_states(pure_state(A, lab(1)), pure_state(B, lab(1)))
        assert out.coeffs == half_pair(1, 1)

    def test_null_annihilates(self):
        out = tensor_states(StateVector(A, {}), pure_state(B, lab(1)))
        assert out.coeffs == {}

    def test_bilinearity(self):
        mixed = StateVector(A, {lab(1): F(1, 2), lab(2): F(1, 2)})
        out = tensor_states(mixed, pure_state(B, lab(1)))
        expected = {node(lab(i), lab(1), s): F(1, 4)
                    for i in (1, 2) for s in (-1, 1)}
        assert out.coeffs == expected

    def test_ct_product_is_atomic(self):
        a = bibit(TheoryMode.CT)
        out = tensor_states(pure_state(a, lab(1)), pure_state(a, lab(2)))
        assert out.coeffs == {node(lab(1), lab(2), 1): F(1)}

    def test_weight_multiplies(self):
        rho = StateVector(A, {lab(1): F(1, 3)})
        sigma = StateVector(B, {lab(2): F(1, 2)})
        assert tensor_states(rho, sigma).weight == F(1, 6)

    def test_braid_symmetry(self):
        rho = StateVector(A, {lab(1): F(1, 2), lab(2): F(1, 4)})
        sigma = pure_state(B, lab(2))
        lhs = apply_moves_to_vector(tensor_states(rho, sigma),
                                    [Move(MoveKind.BRAID, "")])
        rhs = tensor_states(sigma, rho)
        assert lhs.coeffs == rhs.coeffs

    def test_effects_have_no_tensor_product(self):
        with pytest.raises(TypeError, match="not effects"):
            tensor_states(pure_state(A, lab(1)), point_effect(B, lab(2)))


class TestPairing:
    def test_sign_effect_on_product(self):
        rho = StateVector(AB, half_pair(1, 1))
        assert pair(point_effect(AB, node(lab(1), lab(1), 1)), rho) == F(1, 2)

    def test_unit_effect_is_normalization(self):
        rho = StateVector(AB, half_pair(2, 1))
        assert pair(unit_effect(AB), rho) == 1

    def test_orthogonality(self):
        assert pair(point_effect(A, lab(1)), pure_state(A, lab(2))) == 0

    def test_unit_pairing_equals_weight(self):
        rng = random.Random(0)
        for _ in range(20):
            rho = random_state(rng, AB, deterministic=False)
            assert pair(unit_effect(AB), rho) == rho.weight


class TestSteering:
    def test_delta_match(self):
        st12 = pure_state(AB, node(lab(1), lab(2), 1))
        out = apply_effect_at(point_effect(A, lab(1)), st12, "0")
        assert out.coeffs == {lab(2): F(1)}

    def test_delta_vanishes(self):
        st12 = pure_state(AB, node(lab(1), lab(2), 1))
        out = apply_effect_at(point_effect(A, lab(2)), st12, "0")
        assert out.coeffs == {}

    def test_unit_effect_on_right_factor(self):
        st11 = pure_state(AB, node(lab(1), lab(1), -1))
        out = apply_effect_at(unit_effect(B), st11, "1")
        assert out.coeffs == {lab(1): F(1)}

    def test_full_tree_collapses_to_scalar(self):
        rho = StateVector(A, {lab(1): F(1, 3)})
        out = apply_effect_at(unit_effect(A), rho, "")
        assert isinstance(out.system, Trivial)
        assert out.weight == F(1, 3)


def partial_pair_state(effect, rho):
    """The functional b |-> (effect | rho x b) on the right factor of the
    effect's system, from `pair` and `tensor_states` label by label."""
    right = effect.system.right
    return GeneralizedVector(right, {b: pair(effect, tensor_states(rho, pure_state(right, b)))
                                     for b in enumerate_pure_labels(right)})


class TestPartialPair:
    """A bipartite effect paired with a state of its left factor: the
    steering weights of the product rule, label by label."""

    def test_steering_state_halves(self):
        eff = point_effect(AB, node(lab(1), lab(1), -1))
        out = partial_pair_state(eff, pure_state(A, lab(1)))
        assert out.coeffs == {lab(1): F(1, 2)}

    def test_delta_vanishes(self):
        eff = point_effect(AB, node(lab(2), lab(1), 1))
        out = partial_pair_state(eff, pure_state(A, lab(1)))
        assert out.coeffs == {}

    def test_unit_effect_reduces_to_unit(self):
        out = partial_pair_state(unit_effect(AB), pure_state(A, lab(1)))
        assert out.coeffs == unit_effect(B).coeffs


class TestMarginal:
    def test_pure_bipartite_marginal_is_pure(self):
        rho = pure_state(AB, node(lab(1), lab(2), 1))
        assert marginal(rho, "0").coeffs == {lab(1): F(1)}

    def test_product_marginal(self):
        rho = StateVector(AB, half_pair(1, 1))
        assert marginal(rho, "0").coeffs == {lab(1): F(1)}

    def test_pair_marginal_of_tripartite_is_entangled(self):
        tree = left_comb([2, 2, 2])
        rho = pure_state(tree, node(node(lab(1), lab(2), -1), lab(1), 1))
        kept = marginal(rho, "0")
        assert kept.coeffs == {node(lab(1), lab(2), -1): F(1)}
        assert not is_separable(kept)


class TestSeparability:
    def test_product_separable(self):
        assert is_separable(StateVector(AB, half_pair(1, 1)))

    def test_pure_composite_entangled(self):
        assert not is_separable(pure_state(AB, node(lab(1), lab(1), -1)))

    def test_sign_symmetric_mixture(self):
        rho = StateVector(AB, {node(lab(i), lab(1), s): F(1, 4)
                               for i in (1, 2) for s in (-1, 1)})
        assert is_separable(rho)

    def test_ct_always_separable(self):
        ct = compose_systems(bibit(TheoryMode.CT), bibit(TheoryMode.CT))
        assert is_separable(pure_state(ct, node(lab(1), lab(1), 1)))

    @pytest.mark.parametrize("mode", [TheoryMode.BCT, TheoryMode.CT])
    @pytest.mark.parametrize("leaves, part, message", [
        (2, "0101", "path '0101' leaves the tree"),
        (2, "", "bipartition selector must pick a proper subtree"),
        (1, "0", "path '0' leaves the tree"),
    ])
    def test_refuses_a_bad_selector_in_either_mode(self, mode, leaves, part, message):
        system = left_comb([2] * leaves, mode)
        rho = pure_state(system, enumerate_pure_labels(system)[0])
        with pytest.raises(ValueError, match=f"^{message}$"):
            is_separable(rho, part)

    def test_every_separable_state_mixes_entangled_labels(self):
        rng = random.Random(1)
        for _ in range(20):
            a = random_state(rng, A)
            b = random_state(rng, B)
            product = tensor_states(a, b)
            assert is_separable(StateVector(AB, product.coeffs))
            for component in product.coeffs:
                assert not is_separable(pure_state(AB, component))


class TestEffects:
    def test_unit_effect_valid(self):
        assert EffectVector(AB, unit_effect(AB).coeffs) == unit_effect(AB)

    def test_overweight_coefficient_invalid(self):
        for value in (F(3, 2), F(-1, 2)):
            with pytest.raises(ValueError, match=r"outside \[0,1\]"):
                EffectVector(A, {lab(1): value})

    def test_zero_vector_valid(self):
        assert EffectVector(A, {}).coeffs == {}

    def test_discriminating_instrument(self):
        effects = discriminating_instrument(AB)
        assert len(effects) == 8
        total = {}
        for e in effects:
            for label, value in e.coeffs.items():
                total[label] = total.get(label, F(0)) + value
        assert total == unit_effect(AB).coeffs
        basis = enumerate_pure_labels(AB)
        for i, e in enumerate(effects):
            for j, x in enumerate(basis):
                assert pair(e, pure_state(AB, x)) == (1 if i == j else 0)

    def test_effects_separate_states(self):
        rng = random.Random(2)
        for _ in range(30):
            rho = random_state(rng, AB)
            sigma = random_state(rng, AB)
            if rho.coeffs == sigma.coeffs:
                continue
            assert any(pair(e, rho) != pair(e, sigma)
                       for e in discriminating_instrument(AB))


class TestValidation:
    def test_state_weight_bound(self):
        with pytest.raises(ValueError):
            StateVector(A, {lab(1): F(3, 4), lab(2): F(1, 2)})

    def test_state_positivity(self):
        with pytest.raises(ValueError):
            StateVector(A, {lab(1): F(-1, 4)})

    def test_effect_range(self):
        with pytest.raises(ValueError):
            EffectVector(A, {lab(1): F(3, 2)})

    def test_messages_write_the_label_as_its_text(self):
        with pytest.raises(ValueError) as refused:
            EffectVector(AB, {node(lab(1), lab(2), 1): F(3, 2)})
        assert str(refused.value) == "effect coefficient 3/2 outside [0,1] at (1 2)+"
        with pytest.raises(ValueError) as refused:
            StateVector(AB, {node(lab(2), lab(1), -1): F(-1, 4)})
        assert str(refused.value) == "negative weight -1/4 at (2 1)-"

    def test_label_shape_checked(self):
        with pytest.raises(ValueError):
            StateVector(A, {node(lab(1), lab(1), 1): F(1)})

    def test_fractions_are_kept_and_other_numbers_converted(self):
        quarter = F(1, 4)
        rho = StateVector(A, {lab(1): quarter, lab(2): 0})
        assert rho.coeffs == {lab(1): quarter} and type(rho.coeffs[lab(1)]) is F
        assert (rho.nums, rho.den) == ({0: 1}, 4)
        assert type(StateVector(A, {lab(2): 1}).coeffs[lab(2)]) is F
        # a coefficient is zero when its Fraction is, whatever its type
        rho = StateVector(A, {lab(1): "0", lab(2): "1/2"})
        assert (rho.nums, rho.den) == ({1: 1}, 2)


@given(st.sampled_from((1, 2)), st.sampled_from((1, 2)))
def test_marginals_of_products_recover_factors(i, j):
    product = tensor_states(pure_state(A, lab(i)), pure_state(B, lab(j)))
    rho = StateVector(AB, product.coeffs)
    assert marginal(rho, "0").coeffs == {lab(i): F(1)}
    assert marginal(rho, "1").coeffs == {lab(j): F(1)}


def test_tensor_is_associative_through_the_associator():
    C = leaf(3)
    rho = StateVector(A, {lab(1): F(1, 2), lab(2): F(1, 2)})
    sigma = pure_state(B, lab(2))
    omega = pure_state(C, lab(3))
    left = tensor_states(tensor_states(rho, sigma), omega)
    right = tensor_states(rho, tensor_states(sigma, omega))
    moved = apply_moves_to_vector(left, [Move(MoveKind.ASSOC_R, "")])
    assert moved.system == right.system
    assert moved.coeffs == right.coeffs


def test_every_tripartite_pure_label_has_entangled_pair_marginals():
    tree = left_comb([2, 2, 2])
    cases = {
        "AB": ([], "0"),
        "BC": ([Move(MoveKind.ASSOC_R, "")], "1"),
        "AC": ([Move(MoveKind.BRAID, "0"), Move(MoveKind.ASSOC_R, "")], "1"),
    }
    for label in enumerate_pure_labels(tree):
        rho = pure_state(tree, label)
        for moves, keep in cases.values():
            moved = apply_moves_to_vector(rho, moves)
            reduced = marginal(StateVector(moved.system, moved.coeffs), keep)
            assert not is_separable(reduced)


class TestTrustedConstruction:
    """Products of validated factors are trusted; mixed inputs stay checked."""

    def test_state_with_a_negative_vector_is_refused(self):
        negative = GeneralizedVector(B, {lab(1): F(-1, 2)})
        with pytest.raises(ValueError, match="negative weight"):
            tensor_states(pure_state(A, lab(1)), negative)

    def test_negative_generalized_effect_is_refused(self, validated_builds):
        """Refused by steering's own check, not by the suite's check of
        every trusted construction (`validated_builds` turns that off)."""
        effect = GeneralizedVector(A, {lab(1): F(-1)})
        with pytest.raises(ValueError, match="negative weight"):
            apply_effect_at(effect, pure_state(AB, node(lab(1), lab(2), 1)), "0")

    def test_trusted_vectors_keep_their_class(self):
        rho = StateVector._trusted(A, {0: 1}, 2)
        assert type(rho) is StateVector and rho.coeffs == {lab(1): F(1, 2)}

    @pytest.mark.parametrize("cls, coeffs, expected", [
        (GeneralizedVector, {node(lab(1), lab(1), -1): F(-1, 2), node(lab(2), lab(1), 1): F(3, 2)},
         {lab(1): F(-1, 2), lab(2): F(3, 2)}),
        (EffectVector, {node(lab(1), lab(2), 1): F(1), node(lab(2), lab(2), -1): F(1, 2)},
         {lab(1): F(1), lab(2): F(1, 2)}),
    ], ids=["generalized", "effect"])
    def test_marginal_of_a_non_state_is_a_generalized_vector(self, cls, coeffs, expected):
        """Only a state's marginal is minted a `StateVector`, as by `kernels.apply`."""
        out = marginal(cls(AB, coeffs), "0")
        assert type(out) is GeneralizedVector and out.coeffs == expected
        state = marginal(StateVector(AB, half_pair(1, 2)), "0")
        assert type(state) is StateVector and state.coeffs == {lab(1): F(1)}

    def test_is_validated_under_the_test_suite(self):
        with pytest.raises(AssertionError, match="trusted StateVector .* exceeds 1"):
            StateVector._trusted(A, {0: 1, 1: 1}, 1)

    @pytest.mark.parametrize("nums, den", [({0: 1, 1: 0}, 2), ({0: 2, 1: 2}, 4), ({2: 1}, 2)],
                             ids=["zero", "common-factor", "off-the-basis"])
    def test_non_canonical_ints_fail_under_the_test_suite(self, nums, den):
        with pytest.raises(AssertionError):
            StateVector._trusted(A, nums, den)


class TestTrivialFactors:
    """A scalar factor scales; the whole tree as a subtree is the state."""

    def test_state_product_with_a_scalar_scales(self):
        rho = StateVector(AB, half_pair(1, 2))
        third = StateVector(Trivial(TheoryMode.BCT), {UNIT: F(1, 3)})
        scaled = StateVector(AB, {label: value / 3 for label, value in rho.coeffs.items()})
        assert tensor_states(rho, third) == scaled
        assert tensor_states(third, rho) == scaled

    @pytest.mark.parametrize("mode", [TheoryMode.BCT, TheoryMode.CT])
    @pytest.mark.parametrize("cls", [StateVector, GeneralizedVector])
    @pytest.mark.parametrize("weight", [F(0), F(1, 3), F(1)], ids=["0", "1/3", "1"])
    @pytest.mark.parametrize("dims", [(), (3,), (2, 3)], ids=["trivial", "3", "(2 3)"])
    def test_a_scalar_on_either_side_scales_the_other_factor(self, mode, cls, weight, dims):
        system = left_comb(dims, mode)
        labels = enumerate_pure_labels(system)
        coeffs = ({labels[0]: F(1, 4), labels[-1]: F(1, 2)} if cls is StateVector
                  else {labels[0]: F(-3, 4), labels[-1]: F(5, 2)})
        vector, scalar = cls(system, coeffs), cls(Trivial(mode), {UNIT: weight})
        scaled = cls(system, {label: weight * value for label, value in coeffs.items()})
        assert tensor_states(vector, scalar) == scaled
        assert tensor_states(scalar, vector) == scaled

    def test_marginal_on_the_whole_tree_is_the_state(self):
        rho = StateVector(AB, half_pair(2, 1))
        assert marginal(rho, "") is rho


# ---------------------------------------------------------------------------
# Differential tests: the int calculus against frozen copies of the
# `Fraction` bodies it replaced.  The copies read only `system` and the
# `coeffs` view, and regroup labels by the label-level calculus
# (`apply_moves_tracked`), not the move tables.

DENOMINATORS = st.sampled_from((1, 2, 3, 4, 6, 7, 16, 999961, 999979, 999983))
MODES = st.sampled_from((TheoryMode.BCT, TheoryMode.CT))


@st.composite
def trees(draw, mode, leaves=(1, 3)):
    def build(k):
        if k == 1:
            return leaf(draw(st.sampled_from((2, 3))), mode)
        split = draw(st.integers(1, k - 1))
        return compose_systems(build(split), build(k - split))
    return build(draw(st.integers(*leaves)))


@st.composite
def vectors(draw, system, cls):
    """A `cls` on `system` with up to five drawn coefficients, over
    denominators that include three primes near 10**6."""
    labels = draw(st.lists(st.sampled_from(enumerate_pure_labels(system)),
                           max_size=5, unique=True))
    dens = [draw(DENOMINATORS) for _ in labels]
    if cls is EffectVector:
        values = [F(draw(st.integers(0, d)), d) for d in dens]
    elif cls is StateVector:
        values = [F(draw(st.integers(0, 3 * d)), d) for d in dens]
        total = sum(values)
        values = [v / total for v in values] if total > 1 else values
    else:
        values = [F(draw(st.integers(-3 * d, 3 * d)), d) for d in dens]
    return cls(system, dict(zip(labels, values)))


def paths(system, path=""):
    """Every subtree path of `system`, the whole tree first."""
    yield path
    if isinstance(system, Node):
        yield from paths(system.left, path + "0")
        yield from paths(system.right, path + "1")


def assert_canonical(vector):
    assert type(vector.den) is int and vector.den > 0
    assert all(type(n) is int and n != 0 for n in vector.nums.values())
    assert gcd(vector.den, *vector.nums.values()) == 1


def assert_matches(vector, system, coeffs):
    assert_canonical(vector)
    assert vector.system == system
    assert vector.coeffs == {label: v for label, v in coeffs.items() if v}


def regrouped(rho, at):
    moves = regroup(rho.system, at)
    for label, value in rho.coeffs.items():
        yield apply_moves_tracked(label, moves)[0], value


def fraction_product(rho, sigma):
    system = compose_systems(rho.system, sigma.system)
    if isinstance(rho.system, Trivial):
        return system, {label: value * rho[UNIT] for label, value in sigma.coeffs.items()}
    if isinstance(sigma.system, Trivial):
        return system, {label: value * sigma[UNIT] for label, value in rho.coeffs.items()}
    signs = node_signs(system.mode)
    return system, {NodeLabel(la, lb, s): va * vb / len(signs)
                    for la, va in rho.coeffs.items() for lb, vb in sigma.coeffs.items()
                    for s in signs}


def fraction_pair(effect, rho):
    return sum((value * effect.coeffs.get(label, F(0))
                for label, value in rho.coeffs.items()), F(0))


def fraction_effect_at(effect, rho, at):
    if at == "":
        return Trivial(rho.system.mode), {UNIT: fraction_pair(effect, rho)}
    out = {}
    for moved, value in regrouped(rho, at):
        weight = effect.coeffs.get(moved.left, F(0))
        out[moved.right] = out.get(moved.right, F(0)) + weight * value
    return delete_at(rho.system, at), out


def fraction_marginal(rho, keep):
    out = {}
    for moved, value in regrouped(rho, keep):
        out[moved.left] = out.get(moved.left, F(0)) + value
    return subtree_at(rho.system, keep), out


def fraction_separable(rho, part):
    if rho.system.mode is TheoryMode.CT:
        return True
    table = dict(regrouped(rho, part))
    return all(value == table.get(NodeLabel(m.left, m.right, -m.sign), F(0))
               for m, value in table.items())


def fraction_apply(kernel, rho, at):
    return fraction_kernels.apply(kernel, rho, at)


def fraction_transport(vector, moves):
    return (move_system_sequence(vector.system, moves),
            {apply_moves_tracked(label, moves)[0]: value
             for label, value in vector.coeffs.items()})


DIFFERENTIAL = settings(max_examples=40, deadline=None)


@DIFFERENTIAL
@given(st.data(), MODES)
def test_tensor_products_match_the_fraction_body(data, mode):
    x, y = (data.draw(st.one_of(st.just(Trivial(mode)), trees(mode, (1, 2))))
            for _ in range(2))
    classes = st.sampled_from((StateVector, GeneralizedVector))
    rhos = data.draw(st.lists(classes.flatmap(lambda c: vectors(x, c)), min_size=1, max_size=3))
    sigmas = data.draw(st.lists(classes.flatmap(lambda c: vectors(y, c)),
                                min_size=1, max_size=3))
    try:
        products = [tensor_states(rho, sigma) for rho in rhos for sigma in sigmas]
    except ValueError:  # a state times a vector of the span that is not one
        return
    expected = [(rho, sigma) for rho in rhos for sigma in sigmas]
    for product, (rho, sigma) in zip(products, expected, strict=True):
        assert type(product) is type(rho)
        assert_matches(product, *fraction_product(rho, sigma))


@DIFFERENTIAL
@given(st.data(), MODES)
def test_pair_steering_and_marginals_match_the_fraction_bodies(data, mode):
    system = data.draw(trees(mode, (2, 3)))
    rho = data.draw(vectors(system, StateVector))
    effects = st.sampled_from((EffectVector, GeneralizedVector))
    whole = data.draw(effects.flatmap(lambda c: vectors(system, c)))
    assert pair(whole, rho) == fraction_pair(whole, rho)
    at = data.draw(st.sampled_from(list(paths(system))))
    effect = data.draw(effects.flatmap(lambda c: vectors(subtree_at(system, at), c)))
    expected = fraction_effect_at(effect, rho, at)
    values = expected[1].values()
    if all(v >= 0 for v in values) and sum(values) <= 1:
        assert_matches(apply_effect_at(effect, rho, at), *expected)
    else:  # only a vector of the span that is not an effect gets here
        assert type(effect) is GeneralizedVector
        with pytest.raises(ValueError, match="negative weight|exceeds 1"):
            apply_effect_at(effect, rho, at)
    if at:
        assert_matches(marginal(rho, at), *fraction_marginal(rho, at))
        assert is_separable(rho, at) == fraction_separable(rho, at)


@DIFFERENTIAL
@given(st.data(), MODES, st.sampled_from(("", "subtree")),
       st.sampled_from((StateVector, GeneralizedVector)))
def test_kernel_apply_matches_the_fraction_body(data, mode, where, cls):
    system = data.draw(trees(mode, (2, 3)))
    at = "" if where == "" else data.draw(st.sampled_from(list(paths(system))[1:]))
    part = subtree_at(system, at)
    out = data.draw(st.sampled_from((part, leaf(2, mode), Trivial(mode))))
    rng = random.Random(data.draw(st.integers(0, 2**16)))
    den = data.draw(DENOMINATORS)
    kernel = scaled(random_kernel(rng, part, out), F(data.draw(st.integers(0, den)), den))
    rho = data.draw(vectors(system, cls))
    image = apply(kernel, rho, at)
    assert type(image) is cls
    assert_matches(image, *fraction_apply(kernel, rho, at))


@st.composite
def move_sequences(draw, system, length=(1, 3)):
    moves = []
    for _ in range(draw(st.integers(*length))):
        candidates = []
        for kind in MoveKind:
            for path in paths(system):
                try:
                    moved = move_system(system, Move(kind, path))
                except ValueError:
                    continue
                candidates.append((Move(kind, path), moved))
        move, system = draw(st.sampled_from(candidates))
        moves.append(move)
    return moves


@pytest.mark.parametrize("fault", (None,) + faults.KNOWN_FAULTS)
@settings(max_examples=15, deadline=None)
@given(data=st.data(), mode=MODES)
def test_transports_match_the_fraction_body(fault, data, mode):
    system = data.draw(trees(mode, (2, 3)))
    family = data.draw(st.lists(st.sampled_from((StateVector, EffectVector, GeneralizedVector))
                                .flatmap(lambda c: vectors(system, c)), min_size=1, max_size=4))
    moves = data.draw(move_sequences(system))
    with faults.inject_fault(fault):
        moved = [apply_moves_to_vector(vector, moves) for vector in family]
        for image, vector in zip(moved, family, strict=True):
            assert type(image) is type(vector)
            system, coeffs = fraction_transport(vector, moves)
            if mode is TheoryMode.CT and fault:
                # a faulted move can write a - sign in CT, which leaves the
                # label set; the CT coder has no sign and reads its + twin
                coeffs = {plus(label): v for label, v in coeffs.items()}
            assert_matches(image, system, coeffs)
