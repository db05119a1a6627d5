import itertools
import json
import random
from fractions import Fraction

import pytest

from bct import protocols
from bct.cli import main
from bct.config import MAX_NESTING
from bct.kernels import apply, is_deterministic, reversible_kernel, sequential_compose
from bct.labels import LeafLabel, NodeLabel, enumerate_pure_labels
from bct.protocols import (
    capacity_report,
    clone_kernel,
    clone_state,
    dense_coding,
    entanglement_swapping,
    hypersignaling_report,
    monogamy_demo,
)
from bct.states import StateVector, pair, point_effect, pure_state
from bct.systems import TheoryMode, bibit, compose_systems, leaf, trivial
from kernel_helpers import random_reversible_kernel

F = Fraction
A = bibit()


def lab(i):
    return LeafLabel(i)


class TestDenseCoding:
    def test_four_messages_for_both_local_values(self):
        report = dense_coding()
        assert report.success
        assert len(report.outcomes) == 8
        for row in report.outcomes:
            assert row["decoded"] == row["message"]
            assert row["probability"] == "1"

    def test_ct_control_two_messages_per_bit(self):
        report = dense_coding(TheoryMode.CT)
        assert report.success
        assert sum(r["distinguishable"] for r in report.outcomes) == 2

    def test_success_invariant_under_shared_relabeling(self):
        """Composing every encoding with one reversible keeps messages
        deterministically distinguishable."""
        rng = random.Random(4)
        ab = compose_systems(A, A)
        identity = {lab(1): lab(1), lab(2): lab(2)}
        swap = {lab(1): lab(2), lab(2): lab(1)}
        plus = {lab(1): 1, lab(2): 1}
        minus = {lab(1): -1, lab(2): -1}
        encodings = [reversible_kernel(A, A, identity, plus),
                     reversible_kernel(A, A, identity, minus),
                     reversible_kernel(A, A, swap, plus),
                     reversible_kernel(A, A, swap, minus)]
        for _ in range(10):
            relabel = random_reversible_kernel(rng, A)
            shared = pure_state(ab, NodeLabel(lab(1), lab(2), -1))
            observed = []
            for encoding in encodings:
                sent = apply(sequential_compose(relabel, encoding), shared, "0")
                support = [x for x in enumerate_pure_labels(ab)
                           if pair(point_effect(ab, x), sent) == 1]
                assert len(support) == 1
                observed.append(support[0])
            assert len(set(observed)) == 4


class TestCapacity:
    @pytest.mark.parametrize("n,expected", [(1, 2), (2, 8), (3, 32)])
    def test_counts(self, n, expected):
        report = capacity_report(n)
        assert report.success
        assert report.outcomes[0]["messages"] == expected

    def test_ct_counts(self):
        assert capacity_report(3, TheoryMode.CT).outcomes[0]["messages"] == 8

    def test_bad_n(self):
        with pytest.raises(ValueError):
            capacity_report(0)

    def test_n_up_to_the_nesting_cap_runs(self, capsys):
        assert main(["protocol", "capacity", "--n", str(MAX_NESTING + 1), "--quiet"]) == 0
        report = json.loads(capsys.readouterr().out)
        messages = 2 ** (2 * MAX_NESTING + 1)
        assert report["outcomes"] == [{"n": MAX_NESTING + 1, "messages": messages,
                                       "expected": messages}]

    @pytest.mark.parametrize("n", [MAX_NESTING + 2, 10 ** 12])
    def test_n_beyond_the_nesting_cap_is_refused_before_building(self, n, monkeypatch,
                                                                 capsys):
        built = []

        def refuse(*args):
            built.append(args)
            raise RuntimeError("left_comb reached")

        monkeypatch.setattr(protocols, "left_comb", refuse)
        assert main(["protocol", "capacity", "--n", str(n), "--quiet"]) == 2
        assert built == []
        assert f"at most {MAX_NESTING + 1}" in capsys.readouterr().err


class TestSwapping:
    def test_reference_case(self):
        report = entanglement_swapping(1, 1, "+", 1, 1, "+")
        assert report.success
        states = {tuple(r["outcome"]): r["ad_state"] for r in report.outcomes}
        assert states[(1, 1, "-")] == "(1 1)-"
        assert states[(1, 1, "+")] == "(1 1)+"

    def test_sign_product(self):
        report = entanglement_swapping(1, 1, "-", 1, 2, "-")
        for row in report.outcomes:
            r = -1 if row["outcome"][2] == "-" else 1
            expected_sign = "+" if r * -1 * -1 == 1 else "-"
            assert row["ad_state"] == f"(1 2){expected_sign}"

    def test_all_64_combinations(self):
        for i, j, s, k, l, t in itertools.product((1, 2), (1, 2), "-+",
                                                  (1, 2), (1, 2), "-+"):
            report = entanglement_swapping(i, j, s, k, l, t)
            assert report.success
            assert sorted(r["probability"] for r in report.outcomes) == \
                ["1/2", "1/2"]

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            entanglement_swapping(3, 1, "+", 1, 1, "+")

    def test_a_sign_may_be_given_as_an_int(self):
        assert entanglement_swapping(1, 2, -1, 2, 1, 1) == \
            entanglement_swapping(1, 2, "-", 2, 1, "+")

    def test_a_bad_sign_is_refused(self):
        with pytest.raises(ValueError, match="^bad sign 'x'$"):
            entanglement_swapping(1, 1, "x", 1, 1, "+")


class TestCloning:
    def test_pure_state_clones_exactly(self):
        report = clone_state(pure_state(A, lab(1)))
        assert report.success
        assert {row["label"]: row["weight"] for row in report.outcomes} == \
            {"(1 1)-": "1/2", "(1 1)+": "1/2"}

    def test_mixed_state_broadcast(self):
        rho = StateVector(A, {lab(1): F(1, 2), lab(2): F(1, 2)})
        report = clone_state(rho)
        assert report.success
        weights = {row["label"]: row["weight"] for row in report.outcomes}
        assert weights == {"(1 1)-": "1/4", "(1 1)+": "1/4",
                           "(2 2)-": "1/4", "(2 2)+": "1/4"}

    def test_clone_channel_is_deterministic(self):
        assert is_deterministic(clone_kernel(A))
        assert is_deterministic(clone_kernel(leaf(3)))

    def test_subnormalized_rejected(self):
        with pytest.raises(ValueError):
            clone_state(StateVector(A, {lab(1): F(1, 2)}))

    def test_ct_clone(self):
        a = bibit(TheoryMode.CT)
        rho = StateVector(a, {lab(1): F(1, 4), lab(2): F(3, 4)})
        assert clone_state(rho).success


class TestMonogamy:
    def test_all_three_pair_marginals_entangled(self):
        report = monogamy_demo()
        assert report.success
        assert [row["entangled"] for row in report.outcomes] == [True] * 3
        by_pair = {row["pair"]: row["marginal"] for row in report.outcomes}
        assert by_pair["AB"] == {"(1 1)-": "1"}
        assert by_pair["BC"] == {"(1 1)-": "1"}
        assert by_pair["AC"] == {"(1 1)+": "1"}

    def test_ct_pair_marginals_separable(self):
        report = monogamy_demo(TheoryMode.CT)
        assert report.success
        assert all(not row["entangled"] for row in report.outcomes)


class TestHypersignaling:
    def test_bibit_pair(self):
        report = hypersignaling_report(bibit(), bibit())
        assert report.success
        assert report.outcomes[0] == {"d_ab": 8, "product": 4,
                                      "distinguishable": 8,
                                      "hypersignaling": True}

    def test_ct_pair(self):
        report = hypersignaling_report(bibit(TheoryMode.CT), bibit(TheoryMode.CT))
        assert report.success
        assert not report.outcomes[0]["hypersignaling"]

    def test_three_two(self):
        row = hypersignaling_report(leaf(3), bibit()).outcomes[0]
        assert (row["d_ab"], row["product"]) == (12, 6)

    def test_a_trivial_factor_is_refused(self):
        with pytest.raises(ValueError, match="hypersignaling needs two non-trivial systems"):
            hypersignaling_report(bibit(), trivial())


def test_probabilities_sum_to_one_per_run():
    report = entanglement_swapping(2, 1, "-", 1, 2, "+")
    total = sum(Fraction(r["probability"]) for r in report.outcomes)
    assert total == 1
    clone = clone_state(pure_state(A, lab(2)))
    assert sum(Fraction(r["weight"]) for r in clone.outcomes) == 1


class TestEnumerationBound:
    """Above BCT_MAX_DIM the protocols report from the dimension rule."""

    def test_hypersignal_reports_from_the_dimension_rule(self, monkeypatch):
        monkeypatch.setenv("BCT_MAX_DIM", "16")
        report = hypersignaling_report(leaf(3), leaf(3))
        assert report.success
        assert report.outcomes[0] == {"d_ab": 18, "product": 9,
                                      "distinguishable": 18,
                                      "hypersignaling": True}

    def test_capacity_reports_from_the_dimension_rule(self, monkeypatch):
        monkeypatch.setenv("BCT_MAX_DIM", "16")
        report = capacity_report(3)
        assert report.success
        assert report.outcomes[0] == {"n": 3, "messages": 32, "expected": 32}

    def test_cli_exits_zero(self, monkeypatch, capsys):
        monkeypatch.setenv("BCT_MAX_DIM", "16")
        assert main(["protocol", "hypersignal", "--dims", "3,3", "--quiet"]) == 0
        assert main(["protocol", "capacity", "--n", "3", "--quiet"]) == 0
