import itertools
import random
from fractions import Fraction

import pytest

from bct.kernels import (
    Instrument,
    Kernel,
    add_kernels,
    apply,
    braid_kernel,
    coarse_grain,
    conditional_compose,
    discriminating_measurement,
    extend_at,
    identity_kernel,
    is_atomic,
    is_deterministic,
    is_reversible,
    kernels_equal,
    null_kernel,
    parallel_compose,
    random_instrument,
    random_kernel,
    random_state,
    reversible_kernel,
    scalar_kernel,
    sequential_compose,
    state_kernel,
    validate_instrument,
)
from bct.labels import (
    Coder,
    LeafLabel,
    Move,
    MoveKind,
    NodeLabel,
    UNIT,
    apply_moves_tracked,
    enumerate_pure_labels,
)
from kernel_helpers import (
    atomic_decomposition,
    effect_kernel,
    inverse,
    random_deterministic_kernel,
    random_reversible_kernel,
    scaled,
)
from bct.states import (
    EffectVector,
    StateVector,
    apply_effect_at,
    pair,
    point_effect,
    pure_state,
    tensor_states,
    vectors_equal,
)
from bct.systems import TheoryMode, Trivial, bibit, compose_systems, leaf, left_comb, subtree_at

F = Fraction
A = bibit()
B = bibit()
C3 = leaf(3)
AB = compose_systems(A, B)


def lab(i):
    return LeafLabel(i)


def node(l, r, s):
    return NodeLabel(l, r, s)


class TestApply:
    def test_identity_on_support(self):
        k = Kernel(A, A, {lab(1): {(lab(1), 1): 1}})
        rho = pure_state(AB, node(lab(1), lab(2), -1))
        assert apply(k, rho, "0").coeffs == {node(lab(1), lab(2), -1): F(1)}

    def test_tau_flips_the_shared_sign(self):
        k = Kernel(A, A, {lab(1): {(lab(1), -1): 1}})
        rho = pure_state(AB, node(lab(1), lab(2), -1))
        assert apply(k, rho, "0").coeffs == {node(lab(1), lab(2), 1): F(1)}

    def test_tau_unobservable_without_environment(self):
        k = Kernel(A, A, {lab(1): {(lab(1), -1): 1}})
        assert apply(k, pure_state(A, lab(1)), "").coeffs == {lab(1): F(1)}

    def test_apply_at_right_factor(self):
        k = Kernel(B, B, {lab(2): {(lab(1), -1): F(1, 2)}})
        rho = pure_state(AB, node(lab(1), lab(2), 1))
        assert apply(k, rho, "1").coeffs == {node(lab(1), lab(1), -1): F(1, 2)}

    def test_effect_kernel_discards_sign(self):
        eff = Kernel(A, Trivial(TheoryMode.BCT), {lab(1): {(UNIT, 1): F(1)}})
        rho = pure_state(AB, node(lab(1), lab(2), -1))
        out = apply(eff, rho, "0")
        assert out.system == B and out.coeffs == {lab(2): F(1)}

    def test_selector_mismatch(self):
        k = identity_kernel(C3)
        with pytest.raises(ValueError):
            apply(k, pure_state(AB, node(lab(1), lab(1), 1)), "0")

    def test_effect_kernel_agrees_with_apply_effect_at(self):
        rng = random.Random(16)
        tree = left_comb([2, 2, 2])
        for path in ("0", "1", "00", "01"):
            part = subtree_at(tree, path)
            for label in enumerate_pure_labels(part):
                eff = point_effect(part, label)
                for probe_label in enumerate_pure_labels(tree):
                    probe = pure_state(tree, probe_label)
                    assert vectors_equal(apply(effect_kernel(eff), probe, path),
                                         apply_effect_at(eff, probe, path))


class TestSequential:
    def test_signs_square_away(self):
        flip = reversible_kernel(A, A, {lab(1): lab(1), lab(2): lab(2)},
                                 {lab(1): -1, lab(2): -1})
        assert kernels_equal(sequential_compose(flip, flip), identity_kernel(A))

    def test_identity_laws(self):
        rng = random.Random(0)
        k = random_kernel(rng, A, C3)
        assert kernels_equal(sequential_compose(identity_kernel(C3), k), k)
        assert kernels_equal(sequential_compose(k, identity_kernel(A)), k)

    def test_weights_multiply(self):
        k1 = Kernel(A, A, {lab(1): {(lab(2), 1): F(1, 2)}})
        k2 = Kernel(A, A, {lab(2): {(lab(1), 1): F(1, 2)}})
        out = sequential_compose(k2, k1)
        assert is_atomic(out)
        assert out.rows.get(lab(1), {}) == {(lab(1), 1): F(1, 4)}


class TestParallel:
    def test_identities_compose_to_identity(self):
        assert kernels_equal(parallel_compose(identity_kernel(A), identity_kernel(B)),
                             identity_kernel(AB))

    def test_reversible_pair_is_reversible(self):
        rng = random.Random(1)
        for _ in range(25):
            k1 = random_reversible_kernel(rng, A)
            k2 = random_reversible_kernel(rng, B)
            assert is_reversible(parallel_compose(k1, k2))

    def test_atomic_pair_is_not_atomic(self):
        k1 = Kernel(A, A, {lab(1): {(lab(1), 1): 1}})
        k2 = Kernel(B, B, {lab(1): {(lab(2), -1): 1}})
        out = parallel_compose(k1, k2)
        assert not is_atomic(out)
        assert len(atomic_decomposition(out)) == 2

    def test_closed_form(self):
        for mode in (TheoryMode.BCT, TheoryMode.CT):
            for kinds in itertools.product(("channel", "prep", "effect"), repeat=2):
                self.check_closed_form(mode, kinds)

    def check_closed_form(self, mode, kinds):
        """Entries of k1 (x) k2 on ((x y)_s): ((b d)_{t1 t2 s}, t1) for channels.

        A preparation has no input node (s = +1); one on the right opens its
        node after k1's flip has left, so the node sign is its own t2.  An
        effect on the left passes its pairing sign s to the flip, unless the
        right is an effect too: a trivial output has tau +1.
        """
        rng = random.Random(2)
        a, b, c, d = leaf(2, mode), leaf(2, mode), leaf(3, mode), leaf(2, mode)

        def random_of(kind, x, y):
            if kind == "prep":
                return state_kernel(random_state(rng, y))
            if kind == "effect":
                return effect_kernel(EffectVector(x, {l: F(rng.randrange(17), 16)
                                                      for l in enumerate_pure_labels(x)}))
            return random_kernel(rng, x, y)

        for _ in range(15):
            k1 = random_of(kinds[0], a, b)
            k2 = random_of(kinds[1], c, d)
            par = parallel_compose(k1, k2)
            prep2 = isinstance(k2.in_system, Trivial)
            for label in enumerate_pure_labels(compose_systems(k1.in_system,
                                                               k2.in_system)):
                if isinstance(k1.in_system, Trivial):
                    x, y, s = UNIT, label, 1
                elif prep2:
                    x, y, s = label, UNIT, 1
                else:
                    x, y, s = label.left, label.right, label.sign
                expected = {}
                for (bl, t1), w1 in k1.rows.get(x, {}).items():
                    for (dl, t2), w2 in k2.rows.get(y, {}).items():
                        if bl == UNIT == dl:
                            key = (UNIT, 1)
                        elif bl == UNIT:
                            key = (dl, s * t2)
                        elif dl == UNIT:
                            key = (bl, t1)
                        else:
                            key = (node(bl, dl, t2 if prep2 else t1 * t2 * s), t1)
                        expected[key] = expected.get(key, F(0)) + w1 * w2
                assert par.rows.get(label, {}) == expected

    def test_effects_commute_with_extension(self):
        """extend_at(e o k) = extend_at(e) o extend_at(k), and e1 (x) e2 is
        e2 o (e1 (x) I): an effect after a kernel that flips its
        environment (tau -1) discards the pairing sign."""
        rng = random.Random(3)
        for mode in (TheoryMode.BCT, TheoryMode.CT):
            a, b, env = leaf(2, mode), leaf(3, mode), leaf(2, mode)
            for _ in range(10):
                k = random_kernel(rng, a, b)
                e = effect_kernel(EffectVector(b, {l: F(rng.randrange(17), 16)
                                                   for l in enumerate_pure_labels(b)}))
                e1 = effect_kernel(EffectVector(a, {l: F(rng.randrange(17), 16)
                                                    for l in enumerate_pure_labels(a)}))
                ae, be = compose_systems(a, env), compose_systems(b, env)
                assert kernels_equal(
                    extend_at(sequential_compose(e, k), ae, "0"),
                    sequential_compose(extend_at(e, be, "0"), extend_at(k, ae, "0")))
                ab = compose_systems(a, b)
                assert kernels_equal(
                    parallel_compose(e1, e),
                    sequential_compose(e, extend_at(e1, ab, "0")))
                abe = compose_systems(ab, env)
                assert kernels_equal(
                    extend_at(parallel_compose(e1, e), abe, "0"),
                    sequential_compose(extend_at(e, be, "0"),
                                       extend_at(extend_at(e1, ab, "0"), abe, "0")))

    def test_the_composite_input_is_refused_above_the_enumeration_bound(self, monkeypatch):
        # leaf(64) (x) leaf(64) has 8192 labels in BCT, above the default
        # bound of 4096: the bound refuses it before any input is split
        monkeypatch.delenv("BCT_MAX_DIM", raising=False)
        rng = random.Random(0)
        k1, k2 = (random_kernel(rng, leaf(64), leaf(64)) for _ in range(2))
        monkeypatch.setattr(Coder, "split", lambda *args: pytest.fail("an input was split"))
        with pytest.raises(ValueError, match="dimension 8192 exceeds enumeration bound 4096"):
            parallel_compose(k1, k2)

    def test_scalars_multiply(self):
        out = parallel_compose(scalar_kernel(TheoryMode.BCT, F(1, 2)),
                               scalar_kernel(TheoryMode.BCT, F(1, 3)))
        assert out.rows.get(UNIT, {}) == {(UNIT, 1): F(1, 6)}

    @pytest.mark.parametrize("mode", [TheoryMode.BCT, TheoryMode.CT])
    @pytest.mark.parametrize("weight", [F(0), F(1, 3), F(1)], ids=["0", "1/3", "1"])
    def test_a_scalar_state_prepares_the_scalar_kernel_of_its_weight(self, mode, weight):
        scalar = StateVector(Trivial(mode), {UNIT: weight})
        assert state_kernel(scalar) == scalar_kernel(mode, weight)

    def test_state_in_parallel_matches_tensor(self):
        rho = StateVector(A, {lab(1): F(1, 2), lab(2): F(1, 2)})
        prep = state_kernel(rho)
        out = parallel_compose(prep, identity_kernel(B))
        for x in enumerate_pure_labels(B):
            got = apply(out, pure_state(B, x), "")
            expected = tensor_states(rho, pure_state(B, x))
            assert got.coeffs == expected.coeffs


class TestPredicates:
    def test_identity_deterministic(self):
        assert is_deterministic(identity_kernel(AB))

    def test_partial_row_not_deterministic(self):
        k = Kernel(A, A, {lab(1): {(lab(1), 1): 1}})
        assert not is_deterministic(k)

    def test_uniform_rows_deterministic(self):
        rows = {lab(i): {(lab(1), 1): F(1, 4), (lab(1), -1): F(1, 4),
                         (lab(2), 1): F(1, 4), (lab(2), -1): F(1, 4)}
                for i in (1, 2)}
        assert is_deterministic(Kernel(A, A, rows))

    def test_swap_with_sign_is_reversible(self):
        k = reversible_kernel(A, A, {lab(1): lab(2), lab(2): lab(1)},
                              {lab(1): 1, lab(2): -1})
        assert is_reversible(k) and is_deterministic(k)

    def test_two_entry_kernel_not_atomic(self):
        k = Kernel(A, A, {lab(1): {(lab(1), 1): F(1, 2), (lab(2), 1): F(1, 2)}})
        assert not is_atomic(k)
        assert len(atomic_decomposition(k)) == 2

    def test_decomposition_resums(self):
        rng = random.Random(3)
        for _ in range(20):
            k = random_deterministic_kernel(rng, A, C3)
            total = null_kernel(A, C3)
            for part in atomic_decomposition(k):
                assert is_atomic(part)
                total = add_kernels(total, part)
            assert kernels_equal(total, k)

    def test_reversible_preserves_atomicity(self):
        rng = random.Random(4)
        for _ in range(20):
            r = random_reversible_kernel(rng, A)
            k = Kernel(A, A, {lab(1): {(lab(2), -1): F(1, 2)}})
            assert is_atomic(sequential_compose(r, k))
            assert is_atomic(sequential_compose(k, r))

    def test_a_preparation_is_atomic_when_it_prepares_one_label(self):
        """A pure preparation has an entry on each fresh sign, one label."""
        pure = state_kernel(pure_state(A, lab(1)))
        assert sum(map(len, pure.nums.values())) == 2 and is_atomic(pure)
        assert not is_atomic(state_kernel(StateVector(A, {lab(1): F(1, 2), lab(2): F(1, 2)})))

    def test_ct_reversible_kernel_ignores_the_signs_given(self):
        ct = bibit(TheoryMode.CT)
        swap = {lab(1): lab(2), lab(2): lab(1)}
        assert reversible_kernel(ct, ct, swap, {lab(1): -1, lab(2): -1}) == \
            reversible_kernel(ct, ct, swap)

    def test_a_non_bijection_is_not_a_reversible_kernel(self):
        with pytest.raises(ValueError, match="permutation table is not a reversible kernel"):
            reversible_kernel(A, A, {lab(1): lab(1), lab(2): lab(1)})

    def test_braid_kernel_reversible(self):
        k = braid_kernel(A, C3)
        assert is_reversible(k) and is_deterministic(k)


class TestDeterminismCharacterization:
    def test_row_sums_iff_extension_preserves_normalization(self):
        rng = random.Random(5)
        env = bibit()
        ae = compose_systems(A, env)
        for _ in range(50):
            k = random_kernel(rng, A, B)
            det = is_deterministic(k)
            ext = extend_at(k, ae, "0")
            preserved = all(
                apply(ext, pure_state(ae, x), "").is_deterministic
                for x in enumerate_pure_labels(ae))
            assert det == preserved


class TestInstruments:
    def test_identity_singleton(self):
        assert validate_instrument([identity_kernel(A)])

    def test_half_identity_alone_fails(self):
        assert not validate_instrument([scaled(identity_kernel(A), F(1, 2))])

    def test_identity_plus_flip_halves(self):
        flip = reversible_kernel(A, A, {lab(1): lab(1), lab(2): lab(2)},
                                 {lab(1): -1, lab(2): -1})
        halves = [scaled(identity_kernel(A), F(1, 2)),
                  scaled(flip, F(1, 2))]
        assert validate_instrument(halves)

    def test_random_instruments_validate(self):
        rng = random.Random(6)
        for _ in range(30):
            inst = random_instrument(rng, A, B, branches=rng.randrange(1, 5))
            assert validate_instrument(inst)

    def test_null_branch_is_welcome(self):
        rng = random.Random(7)
        inst = random_instrument(rng, A, B)
        assert validate_instrument(Instrument(inst.branches + (null_kernel(A, B),)))

    def test_coarse_grain_full_and_singleton(self):
        rng = random.Random(8)
        inst = random_instrument(rng, A, B, branches=3)
        full = coarse_grain(inst, [[0, 1, 2]])
        assert len(full.branches) == 1 and is_deterministic(full.branches[0])
        same = coarse_grain(inst, [[0], [1], [2]])
        assert all(kernels_equal(x, y)
                   for x, y in zip(same.branches, inst.branches))

    def test_coarse_grain_pairing_is_additive(self):
        rng = random.Random(9)
        inst = random_instrument(rng, A, B, branches=3)
        merged = coarse_grain(inst, [[0, 2], [1]])
        rho = random_state(rng, A)
        for x in enumerate_pure_labels(B):
            eff = point_effect(B, x)
            merged_value = pair(eff, apply(merged.branches[0], rho, ""))
            split_value = sum((pair(eff, apply(inst.branches[i], rho, ""))
                               for i in (0, 2)), F(0))
            assert merged_value == split_value

    def test_invalid_partition(self):
        rng = random.Random(10)
        inst = random_instrument(rng, A, B, branches=2)
        with pytest.raises(ValueError):
            coarse_grain(inst, [[0]])

    def test_repeated_outcomes_are_refused(self):
        inst = random_instrument(random.Random(10), A, B, branches=2)
        with pytest.raises(ValueError, match="outcome labels must be distinct"):
            Instrument(inst.branches, ("a", "a"))
        # two empty blocks would both be labelled ()
        with pytest.raises(ValueError, match="outcome labels must be distinct"):
            coarse_grain(inst, [[0, 1], [], []])


class TestConditional:
    def test_condition_on_identity_relabels(self):
        rng = random.Random(11)
        second = random_instrument(rng, A, B, branches=2)
        first = Instrument((identity_kernel(A),))
        out = conditional_compose(first, lambda _x: second)
        assert validate_instrument(out)
        assert all(kernels_equal(x, y)
                   for x, y in zip(out.branches, second.branches))

    def test_measure_and_reprepare_is_deterministic(self):
        measure = discriminating_measurement(A)

        def reprepare(outcome):
            return Instrument((state_kernel(pure_state(A, outcome)),))

        out = conditional_compose(measure, reprepare)
        assert validate_instrument(out)
        total = out.total()
        assert is_deterministic(total)
        rho = StateVector(A, {lab(1): F(1, 4), lab(2): F(3, 4)})
        assert apply(total, rho, "").coeffs == rho.coeffs

    def test_seeded_conditionals_validate(self):
        rng = random.Random(12)
        for _ in range(20):
            first = random_instrument(rng, A, B, branches=rng.randrange(1, 4))
            followers = {x: random_instrument(rng, B, A,
                                              branches=rng.randrange(1, 4))
                         for x in first.outcomes}
            out = conditional_compose(first, followers.__getitem__)
            assert validate_instrument(out)


class TestSlidingAndBifunctoriality:
    def test_sliding_through_the_braid(self):
        rng = random.Random(13)
        env = bibit()
        for _ in range(20):
            k1 = random_kernel(rng, A, B)
            k2 = random_kernel(rng, C3, A)
            lhs = sequential_compose(braid_kernel(B, A), parallel_compose(k1, k2))
            rhs = sequential_compose(parallel_compose(k2, k1), braid_kernel(A, C3))
            e1 = extend_at(lhs, compose_systems(lhs.in_system, env), "0")
            e2 = extend_at(rhs, compose_systems(rhs.in_system, env), "0")
            assert kernels_equal(e1, e2)

    def test_bifunctoriality(self):
        rng = random.Random(14)
        env = bibit()
        for _ in range(20):
            k1 = random_kernel(rng, A, B)
            k2 = random_kernel(rng, B, C3)
            k3 = random_kernel(rng, C3, A)
            k4 = random_kernel(rng, A, B)
            lhs = parallel_compose(sequential_compose(k2, k1),
                                   sequential_compose(k4, k3))
            rhs = sequential_compose(parallel_compose(k2, k4),
                                     parallel_compose(k1, k3))
            e1 = extend_at(lhs, compose_systems(lhs.in_system, env), "0")
            e2 = extend_at(rhs, compose_systems(rhs.in_system, env), "0")
            assert kernels_equal(e1, e2)


class TestExtension:
    def test_extend_matches_apply_at_every_position(self):
        rng = random.Random(20)
        tree = left_comb([2, 2, 2])

        for path in ("0", "1", "00", "01"):
            part = subtree_at(tree, path)
            for _ in range(5):
                k = random_kernel(rng, part, part)
                ext = extend_at(k, tree, path)
                for label in enumerate_pure_labels(tree):
                    probe = pure_state(tree, label)
                    assert vectors_equal(apply(ext, probe, ""),
                                         apply(k, probe, path))

    def test_extend_with_output_shape_change(self):
        rng = random.Random(21)
        tree = left_comb([2, 2, 2])
        k = random_kernel(rng, bibit(), C3)
        ext = extend_at(k, tree, "01")
        for label in enumerate_pure_labels(tree):
            probe = pure_state(tree, label)
            assert vectors_equal(apply(ext, probe, ""), apply(k, probe, "01"))

    def test_extension_respects_sequential_composition(self):
        rng = random.Random(22)
        tree = compose_systems(AB, bibit())
        for _ in range(10):
            k1 = random_kernel(rng, AB, AB)
            k2 = random_kernel(rng, AB, AB)
            lhs = extend_at(sequential_compose(k2, k1), tree, "0")
            rhs = sequential_compose(extend_at(k2, tree, "0"),
                                     extend_at(k1, tree, "0"))
            assert kernels_equal(lhs, rhs)

    def test_extended_braid_kernel_matches_braid_move(self):
        """Two routes to an inner braid: the label rewrite with its flip,
        and the braid kernel pushed through the extension machinery."""

        tree = compose_systems(
            compose_systems(compose_systems(bibit(), bibit()), leaf(3)),
            compose_systems(bibit(), bibit()))
        for path in ("0", "1", "00"):
            part = subtree_at(tree, path)
            swap = braid_kernel(part.left, part.right)
            via_extension = extend_at(swap, tree, path)
            move = Move(MoveKind.BRAID, path)
            for label in enumerate_pure_labels(tree):
                moved, flip = apply_moves_tracked(label, [move])
                assert via_extension.rows.get(label, {}) == {(moved, flip): Fraction(1)}

    def test_reversible_above_the_enumeration_bound(self):
        # reversibility is counted over the rows, not checked by enumerating
        # the 5000-label basis (above the default bound of 4096)
        n = 5000
        system = leaf(n)
        rows = {lab(i): {(lab(i % n + 1), -1 if i % 2 else 1): F(1)}
                for i in range(1, n + 1)}
        k = Kernel(system, system, rows)
        assert is_reversible(k)
        rows.pop(lab(1))
        assert not is_reversible(Kernel(system, system, rows))

    def test_invert_reversible_round_trip(self):
        rng = random.Random(23)
        for _ in range(10):
            r = random_reversible_kernel(rng, AB)
            inv = inverse(r)
            assert kernels_equal(sequential_compose(inv, r), identity_kernel(AB))
            assert kernels_equal(sequential_compose(r, inv), identity_kernel(AB))


class TestEquality:
    def test_kernels_are_equal_on_equal_systems_and_weights(self):
        k = Kernel(A, A, {lab(1): {(lab(2), -1): F(1, 2)}})
        assert k == Kernel(A, A, {lab(1): {(lab(2), -1): F(2, 4)}})
        assert k != Kernel(A, A, {lab(1): {(lab(2), 1): F(1, 2)}})
        assert k != Kernel(A, C3, {lab(1): {(lab(2), -1): F(1, 2)}})
        assert k.__eq__(k.rows) is NotImplemented and k != k.rows


class TestRowSumValidation:
    def test_row_sum_bound(self):
        with pytest.raises(ValueError):
            Kernel(A, A, {lab(1): {(lab(1), 1): F(3, 4), (lab(2), 1): F(1, 2)}})

    def test_negative_weight(self):
        with pytest.raises(ValueError):
            Kernel(A, A, {lab(1): {(lab(1), 1): F(-1, 2)}})

    def test_ct_mode_rejects_minus_tau(self):
        act = bibit(TheoryMode.CT)
        with pytest.raises(ValueError):
            Kernel(act, act, {lab(1): {(lab(1), -1): F(1)}})

    def test_effect_rejects_minus_tau(self):
        with pytest.raises(ValueError):
            Kernel(A, Trivial(TheoryMode.BCT), {lab(1): {(UNIT, -1): F(1)}})

    def test_fractions_are_kept_and_other_numbers_converted(self):
        half = F(1, 2)
        k = Kernel(A, A, {lab(1): {(lab(1), 1): half, (lab(2), -1): 0},
                          lab(2): {(lab(2), 1): 1}})
        assert k.rows == {lab(1): {(lab(1), 1): half}, lab(2): {(lab(2), 1): F(1)}}
        assert all(type(w) is F for row in k.rows.values() for w in row.values())
        # stored as int numerators over one denominator, keyed by basis index
        assert (k.nums, k.den) == ({0: {(0, 1): 1}, 1: {(1, 1): 2}}, 2)
        # a weight is zero when its Fraction is, whatever its type
        k = Kernel(A, A, {lab(1): {(lab(1), 1): "1/2", (lab(2), 1): "0"}})
        assert (k.nums, k.den) == ({0: {(0, 1): 1}}, 2)


class TestCTMode:
    def test_ct_kernels_compose(self):
        rng = random.Random(15)
        act = bibit(TheoryMode.CT)
        bct_ = leaf(3, TheoryMode.CT)
        k1 = random_kernel(rng, act, bct_)
        k2 = random_kernel(rng, act, act)
        par = parallel_compose(k1, k2)
        assert par.mode is TheoryMode.CT
        for row in par.rows.values():
            assert all(tau == 1 for (_b, tau) in row)

    def test_ct_apply(self):
        act = bibit(TheoryMode.CT)
        ab = compose_systems(act, act)
        k = Kernel(act, act, {lab(1): {(lab(2), 1): 1}})
        rho = pure_state(ab, node(lab(1), lab(1), 1))
        assert apply(k, rho, "0").coeffs == {node(lab(2), lab(1), 1): F(1)}


class TestTrustedConstruction:
    """`Kernel._trusted` serves the calculus; outside input stays checked."""

    def test_trusted_kernels_take_canonical_ints(self):
        k = Kernel._trusted(A, A, {0: {(0, -1): 1}}, 2)
        assert k.rows == {lab(1): {(lab(1), -1): F(1, 2)}}
        assert kernels_equal(k, Kernel(A, A, k.rows))

    @pytest.mark.parametrize("nums, den", [({0: {(0, 1): 0}}, 2), ({0: {}}, 2),
                                           ({0: {(0, 1): 2}}, 4)],
                             ids=["zero", "empty-row", "common-factor"])
    def test_non_canonical_ints_fail_under_the_test_suite(self, nums, den):
        with pytest.raises(AssertionError):
            Kernel._trusted(A, A, nums, den)

    def test_refuses_mixed_modes(self):
        with pytest.raises(ValueError, match="share a theory mode"):
            Kernel._trusted(A, bibit(TheoryMode.CT), {}, 1)

    def test_is_validated_under_the_test_suite(self):
        with pytest.raises(AssertionError, match="trusted Kernel .*non-negative"):
            Kernel._trusted(A, A, {0: {(0, 1): -1}}, 2)

    def test_compositions_build_no_validated_kernel(self, validated_builds):
        rng = random.Random(21)
        k1, k2 = random_kernel(rng, A, B), random_kernel(rng, B, A)
        rho = pure_state(AB, node(lab(1), lab(2), 1))
        validated_builds.clear()
        parallel_compose(k1, k2)
        sequential_compose(k2, k1)
        extend_at(k1, AB, "1")
        apply(k1, rho, "0")
        assert validated_builds == []

    @pytest.mark.parametrize("mode", tuple(TheoryMode))
    def test_built_weights_stay_fractions(self, mode):
        """An accumulation stores its first term as it is, so each weight
        the calculus builds from validated parts is still a `Fraction`."""
        rng = random.Random(22)
        a, c = bibit(mode), leaf(3, mode)
        ac = compose_systems(a, c)
        k1, k2 = random_kernel(rng, a, c), random_kernel(rng, c, a)
        rho = random_state(rng, ac)
        effect = EffectVector(a, {lab(1): F(1, 3), lab(2): F(1)})
        weights = [w for kernel in (sequential_compose(k2, k1), extend_at(k1, ac, "0"))
                   for row in kernel.rows.values() for w in row.values()]
        for vector in (apply(k1, rho, "0"), apply(extend_at(k1, ac, "0"), rho),
                       apply_effect_at(effect, rho, "0")):
            weights += vector.coeffs.values()
        assert weights and all(type(w) is Fraction for w in weights)

    def test_add_kernels_still_refuses_an_overweight_sum(self):
        half = Kernel(A, A, {lab(1): {(lab(1), 1): F(3, 4)}})
        with pytest.raises(ValueError, match="row sum 3/2 exceeds 1"):
            add_kernels(half, half)
        assert not validate_instrument([half, half])


class TestTrivialFactors:
    """A trivial factor scales or leaves the kernel as it is."""

    @pytest.mark.parametrize("mode", tuple(TheoryMode))
    def test_parallel_with_a_scalar_scales(self, mode):
        k = random_kernel(random.Random(30), bibit(mode), leaf(3, mode))
        half = scalar_kernel(mode, F(1, 2))
        halved = Kernel(k.in_system, k.out_system,
                        {a: {e: w / 2 for e, w in row.items()} for a, row in k.rows.items()})
        assert kernels_equal(parallel_compose(k, half), halved)
        assert kernels_equal(parallel_compose(half, k), halved)
        assert kernels_equal(parallel_compose(half, scalar_kernel(mode, F(1, 3))),
                             scalar_kernel(mode, F(1, 6)))
        assert kernels_equal(parallel_compose(scalar_kernel(mode, F(0)), half),
                             scalar_kernel(mode, F(0)))

    def test_extension_at_the_root_is_the_kernel(self):
        k = random_kernel(random.Random(31), AB, C3)
        assert extend_at(k, AB, "") is k

    @pytest.mark.parametrize("mode", tuple(TheoryMode))
    def test_braid_with_a_trivial_factor_is_the_identity(self, mode):
        a, t = leaf(3, mode), Trivial(mode)
        assert kernels_equal(braid_kernel(a, t), identity_kernel(a))
        assert kernels_equal(braid_kernel(t, a), identity_kernel(a))
