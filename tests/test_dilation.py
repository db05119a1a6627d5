import functools
import random
from fractions import Fraction

import pytest

from bct import dilation
from bct.dilation import (
    FunctionLabel,
    build_processor,
    decompose_channel,
    dilated_apply,
    enumerate_function_labels,
    program_sigma,
    realize_instrument,
)
from bct.kernels import (
    Instrument,
    Kernel,
    add_kernels,
    apply,
    identity_kernel,
    is_deterministic,
    is_reversible,
    kernels_equal,
    null_kernel,
    random_instrument,
    random_state,
    reversible_kernel,
    sequential_compose,
)
from bct.labels import (
    UNIT,
    Coder,
    LeafLabel,
    NodeLabel,
    coder,
    enumerate_pure_labels,
    node_signs,
)
from bct.states import EffectVector, marginal, pure_state, unit_effect, vectors_equal
from bct.systems import TheoryMode, bibit, compose_systems, dimension, leaf, trivial

import dilation_oracle
import fraction_kernels
from kernel_helpers import function_channel, inverse, random_deterministic_kernel, scaled

F = Fraction
A = bibit()
B = bibit()


def extract_kernel(processor, sigma, effect):
    """The kernel an arbitrary (sigma, R, effect) sandwich induces on A -> B,
    read off `dilated_apply` on the probes |i>|e0> of A (x) E, E a bibit,
    built through the validating constructor and held to the index-level
    check of `realize_instrument`."""
    a, b = processor.a_system, processor.b_system
    environment = bibit(processor.mode)
    ae = compose_systems(a, environment)
    e0 = enumerate_pure_labels(environment)[0]
    rows = {}
    for i_label in enumerate_pure_labels(a):
        out = dilated_apply(processor, sigma, effect, pure_state(ae, NodeLabel(i_label, e0, 1)))
        row = {}
        for label, value in out.coeffs.items():
            assert isinstance(label, NodeLabel) and label.right == e0
            key = (label.left, label.sign)
            row[key] = row.get(key, 0) + value
        if row:
            rows[i_label] = row
    kernel = Kernel(a, b, rows)
    assert dilation._reproduces(processor, sigma, [(effect, kernel)])
    return kernel


def lab(i):
    return LeafLabel(i)


class TestProcessor:
    def test_processor_kernel_is_built_trusted(self, validated_builds):
        proc = build_processor(A, B)
        assert validated_builds == [] and is_reversible(proc.kernel)

    def test_program_dimension_indexes_every_function_pair(self):
        proc = build_processor(A, B)
        # one program label per (h, xi) pair: (2*D_B)^D_A of them
        assert dimension(proc.program_system) == 16
        assert dimension(proc.input_ancilla) == 64
        assert len(proc.program_index) == 16
        assert len(set(proc.program_index.values())) == 16

    def test_kernel_is_reversible(self):
        proc = build_processor(A, B)
        assert is_reversible(proc.kernel)
        inverse = {next(iter(row))[0]: a for a, row in proc.kernel.rows.items()}
        assert len(inverse) == dimension(proc.kernel.in_system)

    def test_processor_with_its_inverse_is_the_identity(self):
        proc = build_processor(A, B)
        round_trip = sequential_compose(inverse(proc.kernel), proc.kernel)
        assert kernels_equal(round_trip, identity_kernel(proc.kernel.in_system))

    def test_identity_program_holds_offsets(self):
        proc = build_processor(A, B)
        fl = FunctionLabel((1, 2), (1, 1))
        sigma = proc.program_index[fl]
        # with k = 0 (first label) the output register holds h(i)
        for i in (1, 2):
            source = NodeLabel(NodeLabel(sigma, lab(1), 1), lab(i), 1)
            ((target, tau), weight), = proc.kernel.rows.get(source, {}).items()
            assert weight == 1 and tau == 1
            assert target == NodeLabel(NodeLabel(sigma, lab(i), 1), lab(i), 1)

    def test_trivial_endpoint_rejected(self):
        with pytest.raises(ValueError):
            build_processor(A, trivial())

    def test_mixed_modes_are_refused_by_compose_systems(self):
        with pytest.raises(ValueError,
                           match="cannot compose systems from different theory modes"):
            build_processor(A, bibit(TheoryMode.CT))

    @pytest.mark.parametrize("h, xi, refusal", [
        ((1, 2), (1,), "h and xi must have the same arity"),
        ((1, 2), (1, 0), "xi values must be -1 or \\+1"),
    ], ids=["arity", "sign"])
    def test_function_label_refusals(self, h, xi, refusal):
        with pytest.raises(ValueError, match=refusal):
            FunctionLabel(h, xi)

    @pytest.mark.parametrize("d_b, domain", [(5, 10 ** 7), (4, 2621440)])
    def test_bound_checked_before_building(self, monkeypatch, d_b, domain):
        # 5 -> 5 would need 10^5 function labels; 5 -> 4 needs 32768, but its
        # output ancilla of 327680 labels is above the bound realisation
        # enumerates it under: both are refused before any is enumerated
        def refuse(*args):
            raise AssertionError("function labels enumerated above the bound")

        monkeypatch.setattr(dilation, "enumerate_function_labels", refuse)
        with pytest.raises(ValueError,
                           match=f"dimension {domain} exceeds enumeration bound"):
            build_processor(leaf(5), leaf(d_b))


def reference_rows(proc):
    """The processor's rows tabulated whole: every (sigma, k, i, s1, s3) of
    the rule ((sigma k)_{s1} i)_{s3} -> (((sigma i)_{s1} h(i)+k)_{s3}, xi(i))."""
    signs = node_signs(proc.mode)
    a_labels = enumerate_pure_labels(proc.a_system)
    b_labels = enumerate_pure_labels(proc.b_system)
    d_b = len(b_labels)
    rows = {}
    for fl, sigma in proc.program_index.items():
        for k, k_label in enumerate(b_labels, 1):
            for i, i_label in enumerate(a_labels, 1):
                m = (fl.h[i - 1] - 1 + k - 1) % d_b + 1
                for s1 in signs:
                    for s3 in signs:
                        source = NodeLabel(NodeLabel(sigma, k_label, s1), i_label, s3)
                        target = NodeLabel(NodeLabel(sigma, i_label, s1),
                                           b_labels[m - 1], s3)
                        rows[source] = {(target, fl.xi[i - 1]): F(1)}
    return rows


RULE_CASES = [(dims, mode) for dims in [(2, 2), (2, 3), (3, 2), (3, 3)]
              for mode in TheoryMode]


class TestProcessorRule:
    """The rows the processor serves from its rule equal the whole table."""

    @pytest.mark.parametrize("dims, mode", RULE_CASES)
    def test_rows_read_one_by_one(self, dims, mode, validated_builds, monkeypatch):
        # with the unwrapped trusted constructor no validation reads the rows,
        # so building works out none of them; each is worked out here, in
        # shuffled order
        read, getitem = [], dilation._ProcessorRows.__getitem__
        monkeypatch.setattr(dilation._ProcessorRows, "__getitem__",
                            lambda self, x: read.append(x) or getitem(self, x))
        proc = build_processor(leaf(dims[0], mode), leaf(dims[1], mode))
        assert validated_builds == [] and read == []
        reference = reference_rows(proc)
        labels = list(reference)
        random.Random(sum(dims)).shuffle(labels)
        for label in labels:
            assert proc.kernel.rows.get(label, {}) == reference[label]

    @pytest.mark.parametrize("dims, mode", RULE_CASES)
    def test_rows_read_as_a_whole(self, dims, mode):
        proc = build_processor(leaf(dims[0], mode), leaf(dims[1], mode))
        reference = reference_rows(proc)
        rows = proc.kernel.rows
        assert len(rows) == len(reference) == dimension(proc.kernel.in_system)
        assert set(rows) == set(reference)
        assert dict(rows.items()) == reference
        assert is_reversible(proc.kernel)
        round_trip = sequential_compose(inverse(proc.kernel), proc.kernel)
        assert len(round_trip.rows) == len(reference)
        assert all(row == {(label, 1): F(1)} for label, row in round_trip.rows.items())

    @pytest.mark.parametrize("dims, mode", RULE_CASES)
    def test_each_row_is_the_join_of_its_rule_on_the_parts(self, dims, mode):
        """Row x is `rule` on the parts of the source, joined: x split into
        ((sigma k)_{s1} i)_{s3}, the rule's ancilla index and register value
        put into (A' B) as a label under the untouched s3, with its flip."""
        proc = build_processor(leaf(dims[0], mode), leaf(dims[1], mode))
        rows = proc.kernel.nums
        source, bprime = coder(proc.kernel.in_system), coder(proc.input_ancilla)
        ancilla, register = coder(proc.output_ancilla), coder(proc.b_system)
        image = coder(proc.kernel.out_system)
        for x in range(dimension(proc.kernel.in_system)):
            head, i, s3 = source.split(x)
            a, m, xi = rows.rule(bprime.split(head), i)
            target = NodeLabel(ancilla.label(a), register.label(m), s3)
            assert rows[x] == {(image.index(target), xi): 1}

    @pytest.mark.parametrize("mode", TheoryMode)
    def test_indices_outside_the_domain_have_no_row(self, mode):
        # an index is an int in range: a bool or a float equal to one is not
        proc = build_processor(leaf(2, mode), leaf(3, mode))
        rows = proc.kernel.nums
        for x in (dimension(proc.kernel.in_system), -1, True, 1.0):
            assert rows.get(x, "none") == "none"
            with pytest.raises(KeyError):
                rows[x]
            assert x not in rows

    @pytest.mark.parametrize("mode", TheoryMode)
    def test_labels_outside_the_domain_have_no_row(self, mode):
        proc = build_processor(leaf(2, mode), leaf(3, mode))
        sigma, k, i = LeafLabel(1), LeafLabel(1), LeafLabel(1)
        outside = [
            UNIT, i, NodeLabel(sigma, i),
            NodeLabel(NodeLabel(LeafLabel(1000), k), i),      # no such program
            NodeLabel(NodeLabel(sigma, LeafLabel(4)), i),     # k beyond D_B
            NodeLabel(NodeLabel(sigma, k), LeafLabel(3)),     # i beyond D_A
            NodeLabel(sigma, NodeLabel(k, i)),                # wrong shape
        ]
        if mode is TheoryMode.CT:
            outside += [NodeLabel(NodeLabel(sigma, k, -1), i),
                        NodeLabel(NodeLabel(sigma, k), i, -1)]
        for label in outside:
            assert proc.kernel.rows.get(label, {}) == {}
            assert label not in proc.kernel.rows

    @pytest.mark.parametrize("offset", [
        lambda m, k, d: m,
        lambda m, k, d: min(m + k - 1, d),
        lambda m, k, d: m + k - 1,
    ], ids=["constant", "saturating", "unreduced"])
    def test_a_rule_that_is_not_a_bijection_is_refused(self, monkeypatch, offset):
        monkeypatch.setattr(dilation, "_offset_add", offset)
        proc = None
        with pytest.raises(AssertionError, match="failed the bijection check"):
            proc = build_processor(leaf(2), leaf(3))
        assert proc is None


class TestDecomposition:
    def test_identity_channel(self):
        out = decompose_channel(identity_kernel(A))
        assert out == [(FunctionLabel((1, 2), (1, 1)), F(1))]

    def test_hand_run_half_half(self):
        rows = {lab(i): {(lab(1), 1): F(1, 2), (lab(2), 1): F(1, 2)}
                for i in (1, 2)}
        out = decompose_channel(Kernel(A, A, rows))
        assert sum(mu for _, mu in out) == 1
        assert len(out) == 2
        assert all(mu == F(1, 2) for _, mu in out)

    def test_non_deterministic_rejected(self):
        with pytest.raises(ValueError):
            decompose_channel(scaled(identity_kernel(A), F(1, 2)))

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_seeded_resum_oracle(self, dims):
        rng = random.Random(sum(dims))
        a, b = leaf(dims[0]), leaf(dims[1])
        for _ in range(25):
            channel = random_deterministic_kernel(rng, a, b)
            parts = decompose_channel(channel)
            assert sum(mu for _, mu in parts) == 1
            assert all(mu > 0 for _, mu in parts)
            assert len(parts) <= 2 * dimension(a) * dimension(b)
            resum = null_kernel(a, b)
            for fl, mu in parts:
                resum = add_kernels(resum, scaled(function_channel(fl, a, b), mu))
            assert kernels_equal(resum, channel)

    def test_function_label_enumeration_order(self):
        fls = enumerate_function_labels(1, 2, TheoryMode.BCT)
        assert fls == [FunctionLabel((1,), (-1,)), FunctionLabel((1,), (1,)),
                       FunctionLabel((2,), (-1,)), FunctionLabel((2,), (1,))]


ORACLE_CASES = [(dims, mode) for dims in [(2, 2), (2, 3), (3, 2), (3, 3)]
                for mode in TheoryMode]


class TestFractionOracle:
    """The decomposition and the ratio tables on int rows against their
    frozen `Fraction` bodies on cell tables (`fraction_kernels`)."""

    @pytest.mark.parametrize("dims, mode", ORACLE_CASES)
    def test_decomposition_matches_the_fraction_body(self, dims, mode):
        rng = random.Random(31 * sum(dims) + len(mode.value))
        a, b = leaf(dims[0], mode), leaf(dims[1], mode)
        for _ in range(25):
            channel = random_deterministic_kernel(rng, a, b)
            assert decompose_channel(channel) == fraction_kernels.decompose_channel(channel)

    @pytest.mark.parametrize("dims, mode", ORACLE_CASES)
    def test_ratio_tables_match_the_fraction_body(self, dims, mode):
        rng = random.Random(37 * sum(dims) + len(mode.value))
        a, b = leaf(dims[0], mode), leaf(dims[1], mode)
        proc = build_processor(a, b)
        for _ in range(10):
            inst = random_instrument(rng, a, b, branches=rng.randrange(1, 4))
            result = realize_instrument(inst, processor=proc, verify=False)
            mu = fraction_kernels.decompose_channel(inst.total())
            assert list(result.mu.items()) == mu
            assert result.zeta == dict(zip(inst.outcomes,
                                           fraction_kernels.ratio_tables(inst, mu)))

    def test_ties_across_rows_pick_the_least_row_first(self):
        # the minimum 1/4 sits at (i, m) = (1, 2) and at (2, 1): the anchor
        # is the first row's cell, which leaves h = (2, 1) then h = (1, 2);
        # anchoring the least output index first would give three parts
        rows = {lab(1): {(lab(2), 1): F(1, 4), (lab(1), 1): F(3, 4)},
                lab(2): {(lab(1), 1): F(1, 4), (lab(2), 1): F(3, 4)}}
        channel = Kernel(A, B, rows)
        out = decompose_channel(channel)
        assert out == [(FunctionLabel((1, 2), (1, 1)), F(3, 4)),
                       (FunctionLabel((2, 1), (1, 1)), F(1, 4))]
        assert out == fraction_kernels.decompose_channel(channel)


class TestRealization:
    def test_identity_singleton(self):
        proc = build_processor(A, A)
        inst = Instrument((identity_kernel(A),))
        result = realize_instrument(inst, processor=proc)
        assert result.verified
        assert result.sigma.is_deterministic
        assert len(result.mu) == 1
        # a single deterministic branch is observed with the unit effect
        assert result.observation[0].coeffs == \
            unit_effect(proc.output_ancilla).coeffs

    def test_an_unverified_realisation_is_not_reported_verified(self):
        proc = build_processor(A, A)
        inst = Instrument((identity_kernel(A),))
        assert realize_instrument(inst, processor=proc, verify=False).verified is False
        assert realize_instrument(inst, processor=proc).verified is True

    @pytest.mark.parametrize("dims, mode", [((2, 3), TheoryMode.BCT),
                                            ((3, 2), TheoryMode.BCT),
                                            ((2, 2), TheoryMode.CT)])
    def test_a_processor_for_other_systems_is_refused(self, dims, mode, monkeypatch):
        """A processor is programmed for its own A and B: on others it would
        realise the instrument on the wrong B', or fail to find a function
        label.  It is refused by name before the channel is decomposed."""
        inst = random_instrument(random.Random(29), A, A, branches=2)
        proc = shared_processor(dims, mode)
        monkeypatch.setattr(dilation, "decompose_channel", None)
        message = (f"the processor is for {dims[0]} -> {dims[1]} in {mode.name}, "
                   f"the instrument is 2 -> 2 in BCT")
        with pytest.raises(ValueError, match=message):
            realize_instrument(inst, processor=proc)

    def test_two_outcome_measurement_roundtrip(self):
        proc = build_processor(A, A)
        branches = tuple(Kernel(A, A, {lab(i): {(lab(i), 1): F(1)}})
                         for i in (1, 2))
        result = realize_instrument(Instrument(branches), processor=proc)
        assert result.verified
        total = {}
        for e in result.observation:
            for label, value in e.coeffs.items():
                total[label] = total.get(label, F(0)) + value
        assert total == unit_effect(proc.output_ancilla).coeffs

    def test_invalid_instrument_rejected(self):
        with pytest.raises(ValueError):
            realize_instrument(Instrument((scaled(identity_kernel(A), F(1, 2)),)))

    def test_weights_stay_fractions(self):
        proc = build_processor(A, B)
        result = realize_instrument(random_instrument(random.Random(19), A, B, 3), proc)
        weights = [*result.sigma.coeffs.values(), *result.mu.values(),
                   *(w for e in result.observation for w in e.coeffs.values()),
                   *(w for table in result.zeta.values() for w in table.values())]
        assert result.verified and all(type(w) is Fraction for w in weights)

    def test_seeded_roundtrips(self):
        rng = random.Random(17)
        proc = build_processor(A, B)
        for _ in range(10):
            inst = random_instrument(rng, A, B, branches=rng.randrange(1, 4))
            result = realize_instrument(inst, processor=proc)
            assert result.verified

    def test_composite_input_system(self):
        # composite labels are treated as flat indices; the BCT program system
        # grows as (2 D_B)^D_A, so the full round trip is exercised in CT mode
        rng = random.Random(18)
        a = bibit(TheoryMode.CT)
        ab = compose_systems(a, bibit(TheoryMode.CT))
        proc = build_processor(ab, a)
        inst = random_instrument(rng, ab, a, branches=2)
        result = realize_instrument(inst, processor=proc)
        assert result.verified

    def test_composite_input_decomposition_bct(self):
        rng = random.Random(20)
        ab = compose_systems(A, B)
        channel = random_deterministic_kernel(rng, ab, A)
        parts = decompose_channel(channel)
        assert sum(mu for _, mu in parts) == 1
        resum = null_kernel(ab, A)
        for fl, mu in parts:
            resum = add_kernels(resum, scaled(function_channel(fl, ab, A), mu))
        assert kernels_equal(resum, channel)

    def test_four_to_three_realizes(self):
        # the output ancilla (10368 labels) is above the user default bound;
        # the processor's systems are enumerated under the processor's bound
        rng = random.Random(43)
        inst = random_instrument(rng, leaf(4), leaf(3), branches=2)
        result = realize_instrument(inst)
        assert result.verified
        assert dimension(result.processor.output_ancilla) == 10368

    def test_ct_mode(self):
        rng = random.Random(19)
        a = bibit(TheoryMode.CT)
        proc = build_processor(a, a)
        inst = random_instrument(rng, a, a, branches=2)
        assert realize_instrument(inst, processor=proc).verified


def programmed(channel: Kernel):
    """The processor of a channel's systems and the program state that
    realises the channel on it."""
    proc = build_processor(channel.in_system, channel.out_system)
    return proc, program_sigma(proc, decompose_channel(channel))


class TestProgramming:
    def test_program_identity(self):
        proc, sigma = programmed(identity_kernel(A))
        env = compose_systems(A, bibit())
        for label in enumerate_pure_labels(env):
            probe = pure_state(env, label)
            direct = apply(identity_kernel(A), probe, "0")
            via = dilated_apply(proc, sigma, unit_effect(proc.output_ancilla), probe)
            assert vectors_equal(direct, via)

    def test_program_permutation_is_pure_program(self):
        channel = reversible_kernel(A, A, {lab(1): lab(2), lab(2): lab(1)},
                                    {lab(1): 1, lab(2): -1})
        proc, sigma = programmed(channel)
        assert len(decompose_channel(channel)) == 1
        # program marginal concentrates on a single program label
        program_part = marginal(sigma, "0")
        assert len(program_part.coeffs) == 1
        env = compose_systems(A, bibit())
        for label in enumerate_pure_labels(env):
            probe = pure_state(env, label)
            assert vectors_equal(
                apply(channel, probe, "0"),
                dilated_apply(proc, sigma, unit_effect(proc.output_ancilla), probe))

    def test_program_mixing_channel_is_mixed_program(self):
        rows = {lab(i): {(lab(1), 1): F(1, 4), (lab(1), -1): F(1, 4),
                         (lab(2), 1): F(1, 4), (lab(2), -1): F(1, 4)}
                for i in (1, 2)}
        channel = Kernel(A, A, rows)
        proc, sigma = programmed(channel)
        assert len(decompose_channel(channel)) > 1
        env = compose_systems(A, bibit())
        for label in enumerate_pure_labels(env):
            probe = pure_state(env, label)
            assert vectors_equal(
                apply(channel, probe, "0"),
                dilated_apply(proc, sigma, unit_effect(proc.output_ancilla), probe))


class TestProgrammedAtomics:
    """Sandwiching a pure program against ancilla effects cuts out the
    programmed function channel, at weight 1 for the both-sign product
    effect and weight 1/2 for a single-sign point effect."""

    def setup_method(self):
        self.proc = build_processor(A, B)
        self.fl = FunctionLabel((2, 1), (-1, 1))
        self.sigma = program_sigma(self.proc, [(self.fl, F(1))])

    def test_product_effect_cuts_out_the_atomic(self):
        for i_pick in (1, 2):
            coeffs = {NodeLabel(self.proc.program_index[self.fl],
                                lab(i_pick), s): F(1) for s in (-1, 1)}
            effect = EffectVector(self.proc.output_ancilla, coeffs)
            kernel = extract_kernel(self.proc, self.sigma, effect)
            assert kernel.rows == {lab(i_pick): {
                (lab(self.fl.h[i_pick - 1]), self.fl.xi[i_pick - 1]): F(1)}}

    def test_point_effect_halves_the_weight(self):
        for i_pick in (1, 2):
            for s1 in (-1, 1):
                effect = EffectVector(
                    self.proc.output_ancilla,
                    {NodeLabel(self.proc.program_index[self.fl],
                               lab(i_pick), s1): F(1)})
                kernel = extract_kernel(self.proc, self.sigma, effect)
                assert kernel.rows == {lab(i_pick): {
                    (lab(self.fl.h[i_pick - 1]), self.fl.xi[i_pick - 1]): F(1, 2)}}


class TestSandwichConverse:
    def test_arbitrary_sandwiches_yield_valid_kernels(self):
        """Any deterministic program state and any effect on the output
        ancilla cut a valid classified kernel out of the processor."""

        rng = random.Random(23)
        proc = build_processor(A, B)
        aprime_labels = enumerate_pure_labels(proc.output_ancilla)
        for _ in range(15):
            sigma = random_state(rng, proc.input_ancilla)
            coeffs = {x: F(rng.randrange(0, 17), 16) for x in aprime_labels
                      if rng.random() < 0.3}
            effect = EffectVector(proc.output_ancilla, coeffs)
            kernel = extract_kernel(proc, sigma, effect)
            assert all(sum(kernel.rows.get(x, {}).values()) <= 1
                       for x in enumerate_pure_labels(A))

    def test_unit_effect_sandwich_is_deterministic(self):
        rng = random.Random(24)
        proc = build_processor(A, B)
        for _ in range(10):
            sigma = random_state(rng, proc.input_ancilla)
            kernel = extract_kernel(proc, sigma, unit_effect(proc.output_ancilla))
            assert is_deterministic(kernel)

    def test_instrument_with_null_branch_realizes(self):
        rng = random.Random(25)
        proc = build_processor(A, B)
        inst = random_instrument(rng, A, B, branches=2)
        padded = Instrument(inst.branches + (null_kernel(A, B),))
        assert realize_instrument(padded, processor=proc).verified


class TestProbeLoop:
    def test_the_processor_runs_once_for_all_branches(self, monkeypatch):
        rng = random.Random(21)
        proc = build_processor(A, B)
        inst = random_instrument(rng, A, B, branches=3)
        read, rule = [], dilation._ProcessorRows.rule
        monkeypatch.setattr(dilation._ProcessorRows, "rule",
                            lambda self, program, i: read.append(i) or rule(self, program, i))
        result = realize_instrument(inst, processor=proc)
        assert result.verified
        # R's rule runs once per label of Sigma beside each input of A, whatever
        # the branch count
        assert len(read) == dimension(A) * len(result.sigma.nums)

    @pytest.mark.parametrize("mode", TheoryMode)
    def test_the_check_splits_each_label_of_sigma_once_and_joins_nothing(
            self, mode, validated_builds, monkeypatch):
        """Sigma (x) I_A is staged from the parts R's rule reads: each label
        of the program state is split once on B', and no index of (B' A) is
        joined to be split back.  The processor binds its coders'
        methods when it is built, so it is built under the counters; the
        trusted constructors are the originals, so the suite's own checks,
        which decode labels, count nothing."""
        calls = {"split": 0, "join": 0}

        def counted(name):
            real = getattr(Coder, name)

            def method(self, *args):
                calls[name] += 1
                return real(self, *args)
            return method
        for name in calls:
            monkeypatch.setattr(Coder, name, counted(name))
        a, b = leaf(2, mode), leaf(3, mode)
        proc = build_processor(a, b)
        inst = random_instrument(random.Random(28), a, b, branches=3)
        result = realize_instrument(inst, processor=proc, verify=False)
        pairs = list(zip(result.observation, inst.branches))
        calls.update(split=0, join=0)
        assert dilation._reproduces(proc, result.sigma, pairs)
        assert calls == {"split": len(result.sigma.nums), "join": 0}

    @pytest.mark.parametrize("mode", TheoryMode)
    def test_the_sandwich_acts_as_its_branch_on_every_probe(self, mode):
        rng = random.Random(26)
        a, b = leaf(2, mode), leaf(3, mode)
        proc = build_processor(a, b)
        inst = random_instrument(rng, a, b, branches=3)
        result = realize_instrument(inst, processor=proc)
        assert result.verified
        ae = compose_systems(a, bibit(mode))
        for label in enumerate_pure_labels(ae):
            probe = pure_state(ae, label)
            for effect, branch in zip(result.observation, inst.branches):
                assert vectors_equal(apply(branch, probe, "0"),
                                     dilated_apply(proc, result.sigma, effect, probe))

    def test_every_branch_is_compared(self):
        rng = random.Random(22)
        proc = build_processor(A, B)
        inst = random_instrument(rng, A, B, branches=3)
        result = realize_instrument(inst, processor=proc)
        pairs = list(zip(result.observation, inst.branches))
        assert dilation._reproduces(proc, result.sigma, pairs)
        for k in range(3):
            wrong = list(pairs)
            wrong[k] = (pairs[k][0], inst.branches[(k + 1) % 3])
            assert not dilation._reproduces(proc, result.sigma, wrong)

    def test_effects_short_of_the_unit_effect_are_not_verified(self, monkeypatch):
        """The observation must sum to the unit effect, which no sandwich
        shows where the program state puts no weight: drop, from the first
        effect, a point on a program label the channel does not use, and
        every branch is still reproduced, but the realisation is refused."""
        rng = random.Random(27)
        proc = build_processor(A, B)
        inst = random_instrument(rng, A, B, branches=2)
        assert realize_instrument(inst, processor=proc).verified
        used = {proc.program_index[fl] for fl, _mu in decompose_channel(inst.total())}
        unused = next(x for x in enumerate_pure_labels(proc.program_system) if x not in used)
        point = NodeLabel(unused, lab(1), 1)
        missing = coder(proc.output_ancilla).index(point)
        real = dilation.basis_indices
        monkeypatch.setattr(dilation, "basis_indices", lambda system, bound=None: [
            x for x in real(system, bound) if x != missing])
        result = realize_instrument(inst, processor=proc)
        assert result.observation[0][point] == 0
        assert dilation._reproduces(proc, result.sigma,
                                    list(zip(result.observation, inst.branches)))
        assert not result.verified


@functools.cache
def shared_processor(dims, mode):
    return build_processor(leaf(dims[0], mode), leaf(dims[1], mode))


class TestDenseOracle:
    """The observation and the verdict of `realize_instrument` are those of
    the dense construction it replaced (`dilation_oracle`): the first
    effect as the unit effect minus the others in lowest terms, the two-pass
    unit check and R's outputs split per branch."""

    DIMS = [(2, 2), (2, 3), (3, 2), (3, 3)]

    @staticmethod
    def assert_matches(proc, inst):
        result = realize_instrument(inst, processor=proc)
        expected = dilation_oracle.dense_observation(proc, inst)
        assert [(e.nums, e.den) for e in result.observation] == [
            (e.nums, e.den) for e in expected]
        # in the same key order too
        assert [list(e.nums) for e in result.observation] == [list(e.nums) for e in expected]
        assert result.verified == dilation_oracle.dense_verified(proc, inst)
        return result

    @pytest.mark.parametrize("mode", TheoryMode)
    @pytest.mark.parametrize("branches", (1, 2, 3))
    @pytest.mark.parametrize("dims", DIMS)
    def test_seeded_instruments(self, dims, branches, mode):
        rng = random.Random(f"{dims} {branches} {mode.name}")
        proc = shared_processor(dims, mode)
        a, b = proc.a_system, proc.b_system
        for _ in range(3):
            inst = random_instrument(rng, a, b, branches=branches)
            assert self.assert_matches(proc, inst).verified

    @staticmethod
    def assert_both_refuse(proc, sigma, pairs):
        assert not dilation._reproduces(proc, sigma, pairs)
        assert not dilation_oracle.per_branch_reproduces(proc, sigma, pairs)

    @pytest.mark.parametrize("mode", TheoryMode)
    @pytest.mark.parametrize("dims", DIMS)
    def test_branches_rotated_against_their_effects_are_refused(self, dims, mode):
        rng = random.Random(f"{dims} {mode.name} rotated")
        proc = shared_processor(dims, mode)
        inst = random_instrument(rng, proc.a_system, proc.b_system, branches=3)
        result = realize_instrument(inst, processor=proc)
        assert result.verified
        rotated = inst.branches[1:] + inst.branches[:1]
        self.assert_both_refuse(proc, result.sigma, list(zip(result.observation, rotated)))

    @pytest.mark.parametrize("mode", TheoryMode)
    @pytest.mark.parametrize("dims", DIMS)
    def test_an_effect_numerator_moved_to_another_index_is_refused(self, dims, mode):
        """The second effect's numerator at (sigma i)_{s1}, a program label
        the program state uses, moves to (sigma i')_{s1}, i' another label
        of A, where the effect stays at most one: the sandwich's row i loses
        weight, so the branch is no longer reproduced."""
        rng = random.Random(f"{dims} {mode.name} moved")
        proc = shared_processor(dims, mode)
        inst = random_instrument(rng, proc.a_system, proc.b_system, branches=2)
        result = realize_instrument(inst, processor=proc)
        assert result.verified
        effect = result.observation[1]
        ancilla = coder(proc.output_ancilla)
        targets = ((x, ancilla.index(NodeLabel(label.left, other, label.sign)))
                   for x in effect.nums for label in [ancilla.label(x)]
                   for other in enumerate_pure_labels(proc.a_system) if other != label.right)
        x, y = next((x, y) for x, y in targets
                    if effect.nums[x] + effect.nums.get(y, 0) <= effect.den)
        nums = dict(effect.nums)
        nums[y] = nums.get(y, 0) + nums.pop(x)
        moved = EffectVector._trusted(proc.output_ancilla, nums, effect.den)
        pairs = [(result.observation[0], inst.branches[0]), (moved, inst.branches[1])]
        self.assert_both_refuse(proc, result.sigma, pairs)

    @pytest.mark.parametrize("at", ("first", "last"))
    @pytest.mark.parametrize("mode", TheoryMode)
    @pytest.mark.parametrize("dims", DIMS)
    def test_instruments_padded_with_a_null_branch(self, dims, mode, at):
        """A null first branch leaves the first effect nothing on the used
        program labels and a common factor to divide out."""
        rng = random.Random(f"{dims} {mode.name} {at}")
        proc = shared_processor(dims, mode)
        a, b = proc.a_system, proc.b_system
        for branches in (1, 2, 3):
            inst = random_instrument(rng, a, b, branches=branches)
            null = (null_kernel(a, b),)
            padded = Instrument(null + inst.branches if at == "first" else inst.branches + null)
            assert self.assert_matches(proc, padded).verified
