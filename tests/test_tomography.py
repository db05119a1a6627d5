import itertools
import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from bct import faults, tomography
from bct.labels import LeafLabel, Move, MoveKind, NodeLabel, enumerate_pure_labels, node_signs
from bct.states import GeneralizedVector, StateVector, pure_state, tensor_states
from bct.systems import TheoryMode, bibit, compose_systems, dimension, leaf, trivial
from bct.tomography import (
    _echelon,
    _incidence_rank,
    _independent_rows,
    _tripartite_families,
    pair_report,
    product_states,
    rank,
    span_report,
)

import label_calculus_oracle

F = Fraction
A = bibit()
B = bibit()


class TestRank:
    def test_basis_has_full_rank(self):
        vectors = [GeneralizedVector(A, {x: F(1)})
                   for x in enumerate_pure_labels(A)]
        assert rank(vectors) == 2

    def test_duplicates_do_not_raise_rank(self):
        v = GeneralizedVector(A, {LeafLabel(1): F(1)})
        assert rank([v, v, v]) == 1

    def test_products_of_two_bibits_span_four(self):
        vectors = [tensor_states(pure_state(A, x), pure_state(B, y))
                   for x in enumerate_pure_labels(A)
                   for y in enumerate_pure_labels(B)]
        assert rank(vectors) == 4

    def test_scaling_and_permutation_invariance(self):
        rng = random.Random(0)
        basis = enumerate_pure_labels(A)
        vectors = [GeneralizedVector(A, {basis[0]: F(1), basis[1]: F(2)}),
                   GeneralizedVector(A, {basis[1]: F(5)})]
        scaled = [GeneralizedVector(A, {k: v * F(7, 3) for k, v in vec.coeffs.items()})
                  for vec in vectors]
        shuffled = list(scaled)
        rng.shuffle(shuffled)
        assert rank(vectors) == rank(scaled) == rank(shuffled) == 2

    def test_empty(self):
        assert rank([]) == 0

    def test_names_the_vector_off_the_shared_system(self):
        v = GeneralizedVector(A, {LeafLabel(1): F(1)})
        w = GeneralizedVector(leaf(3), {LeafLabel(1): F(1)})
        with pytest.raises(ValueError, match="^vectors must share a system: "
                                             "vector 2 differs from vector 0$"):
            rank([v, v, w, w])


def sympy_rank(rows):
    """The rank over QQ of the matrix of `rows`, by sympy: vectors read by
    their coefficients, or int rows keyed by column."""
    rows = [row.coeffs if isinstance(row, GeneralizedVector) else row for row in rows]
    columns = {}
    for row in rows:
        for key in row:
            columns.setdefault(key, len(columns))
    matrix = sympy.zeros(len(rows), len(columns))
    for i, row in enumerate(rows):
        for key, value in row.items():
            value = F(value)
            matrix[i, columns[key]] = sympy.Rational(value.numerator, value.denominator)
    return matrix.rank()


def eliminated_rank(rows):
    """The rank of int rows by the elimination of `rank`, leaving them unchanged."""
    return len(_echelon([dict(row) for row in rows], {}))


SPARSE = leaf(5)
SPARSE_LABELS = enumerate_pure_labels(SPARSE)
sparse_rows = st.dictionaries(
    st.integers(0, len(SPARSE_LABELS) - 1),
    st.fractions(min_value=-3, max_value=3, max_denominator=4), max_size=3)


@st.composite
def incidence_families(draw):
    """(n, rows on range(n), cut points): edges and one-entry rows, a cycle
    (odd or even) and repeats of drawn rows, shuffled."""
    n = draw(st.integers(1, 8))
    column = st.integers(0, n - 1)
    ends = draw(st.lists(st.one_of(st.tuples(column),
                                   st.tuples(column, column).filter(lambda e: e[0] != e[1])),
                         max_size=10))
    cycle = draw(st.lists(column, unique=True, max_size=5))
    if len(cycle) >= 3:
        ends += zip(cycle, cycle[1:] + cycle[:1])
    if ends:
        ends += [ends[i % len(ends)] for i in draw(st.lists(st.integers(0, 9), max_size=4))]
    draw(st.randoms(use_true_random=False)).shuffle(ends)
    cuts = sorted(draw(st.lists(st.integers(0, len(ends)), max_size=2)))
    return n, [dict.fromkeys(e, 1) for e in ends], cuts


class TestRankOracle:
    @pytest.mark.parametrize("mode", [TheoryMode.BCT, TheoryMode.CT])
    @pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 2), (3, 2, 2), (2, 2, 3)])
    def test_families_and_union_match_sympy(self, dims, mode):
        rows = dict(_tripartite_families(*(leaf(d, mode) for d in dims)))
        union = [row for family in rows.values() for row in family]
        for family in (*rows.values(), union):
            assert eliminated_rank(family) == sympy_rank(family)
        report = span_report(*(leaf(d, mode) for d in dims))
        assert report["class_ranks"] == {
            **{name: sympy_rank(family) for name, family in rows.items()},
            "union": sympy_rank(union)}

    @given(st.lists(sparse_rows, max_size=6), st.lists(st.integers(0, 9), max_size=4),
           st.integers(0, 2), st.randoms(use_true_random=False))
    def test_sparse_rows_match_sympy(self, rows, repeats, zeros, rnd):
        vectors = [GeneralizedVector(SPARSE, {SPARSE_LABELS[i]: v for i, v in row.items()})
                   for row in rows]
        if vectors:
            vectors += [vectors[i % len(vectors)] for i in repeats]
        vectors += [GeneralizedVector(SPARSE, {})] * zeros
        rnd.shuffle(vectors)
        assert rank(vectors) == sympy_rank(vectors)

    @given(incidence_families())
    def test_incidence_rank_matches_sympy(self, drawn):
        """Rows of one or two entries equal to 1, with repeats, one-entry
        rows and cycles of three to five columns, split into up to three
        families: one union-find runs over all of them."""
        n, rows, cuts = drawn
        families = [(f"part{k}", rows[start:end])
                    for k, (start, end) in enumerate(zip([0, *cuts], [*cuts, len(rows)]))]
        assert _incidence_rank(families, n) == sympy_rank(rows) == eliminated_rank(rows)


class TestStructureRefusals:
    """A family that the structural ranks do not hold for is refused with
    its name, the row's position and the column or entry at fault."""

    @pytest.mark.parametrize("rows, message", [
        ([{0: 1, 1: 1}, {2: 1, 1: 1}], "row 1 shares column 1 with an earlier row"),
        ([{3: 1}, {0: 1, 3: 1}], "row 1 shares column 3 with an earlier row"),
        ([{0: 1}, {}], "row 1 is empty"),
    ], ids=["overlap", "overlap-at-its-first-column", "empty"])
    def test_a_family_is_counted_only_if_its_supports_are_disjoint(self, rows, message):
        with pytest.raises(AssertionError, match=f"^family 'a_bc': {message}$"):
            _independent_rows("a_bc", rows)

    @pytest.mark.parametrize("row, message", [
        ({}, "row 1 has 0 entries, not 1 or 2"),
        ({0: 1, 2: 1, 4: 1}, "row 1 has 3 entries, not 1 or 2"),
        ({0: 1, 3: 2}, "row 1 has entry 2 at column 3, not 1 in range(5)"),
        ({0: -1}, "row 1 has entry -1 at column 0, not 1 in range(5)"),
        ({5: 1}, "row 1 has entry 1 at column 5, not 1 in range(5)"),
        ({-1: 1, 0: 1}, "row 1 has entry 1 at column -1, not 1 in range(5)"),
    ], ids=["no-entry", "three-entries", "entry-of-two", "negative-entry", "column-n",
            "column-negative"])
    def test_a_union_row_of_another_shape_is_refused(self, row, message):
        families = [("ab_c", [{0: 1, 1: 1}]), ("ac_b", [{1: 1, 2: 1}, row])]
        with pytest.raises(AssertionError, match=f"^family 'ac_b': {re.escape(message)}$"):
            _incidence_rank(families, 5)

    def test_the_counts_are_exact_on_the_families_they_accept(self):
        assert _independent_rows("ab_c", [{0: 3, 1: -1}, {2: 1}, {5: 7}]) == 3
        assert _independent_rows("ab_c", []) == 0
        assert _incidence_rank([], 4) == 0
        triangle = [{0: 1, 1: 1}, {1: 1, 2: 1}, {0: 1, 2: 1}]
        square = [{0: 1, 1: 1}, {1: 1, 2: 1}, {2: 1, 3: 1}, {0: 1, 3: 1}]
        assert _incidence_rank([("odd", triangle)], 3) == 3
        assert _incidence_rank([("even", square)], 4) == 3
        assert _incidence_rank([("even", square), ("half", [{3: 1}])], 4) == 4


WIDE = leaf(8)
WIDE_LABELS = enumerate_pure_labels(WIDE)
# coprime and non-dyadic denominators up to 10^6, and negative entries
wide_values = st.builds(
    Fraction, st.integers(-10**6, 10**6).filter(bool),
    st.one_of(st.integers(1, 10**6), st.sampled_from([3, 7, 999_961, 999_979, 999_983])))
wide_rows = st.dictionaries(st.integers(0, len(WIDE_LABELS) - 1), wide_values,
                            min_size=1, max_size=6)


@st.composite
def wide_families(draw):
    """Rows of up to 6 entries, plus rational combinations of two of them,
    so that elimination cancels entries with large, unrelated denominators."""
    rows = draw(st.lists(wide_rows, min_size=1, max_size=6))
    for i, j, c in draw(st.lists(st.tuples(st.integers(0, len(rows) - 1),
                                           st.integers(0, len(rows) - 1), wide_values),
                                 max_size=3)):
        combined = dict(rows[i])
        for k, v in rows[j].items():
            combined[k] = combined.get(k, 0) + c * v
        rows.append(combined)
    vectors = [GeneralizedVector(WIDE, {WIDE_LABELS[k]: v for k, v in row.items()})
               for row in rows]
    draw(st.randoms(use_true_random=False)).shuffle(vectors)
    return vectors


class TestWideRankOracle:
    @settings(max_examples=60, deadline=None)
    @given(wide_families())
    def test_wide_rows_match_sympy(self, vectors):
        assert rank(vectors) == sympy_rank(vectors)

    @settings(max_examples=60, deadline=None)
    @given(wide_families())
    def test_rank_leaves_its_input_unchanged(self, vectors):
        before = [(vector.system, dict(vector.coeffs)) for vector in vectors]
        rank(vectors)
        assert [(vector.system, vector.coeffs) for vector in vectors] == before
        assert all(type(v) is Fraction for vector in vectors for v in vector.coeffs.values())


class TestSpanReportRanks:
    @pytest.mark.parametrize("fault", (None,) + faults.KNOWN_FAULTS)
    @pytest.mark.parametrize("mode", [TheoryMode.BCT, TheoryMode.CT])
    def test_class_ranks_match_rank_of_each_family_and_the_union(self, mode, fault):
        """`span_report` counts each family's rows and ranks the union of
        three families as an incidence matrix; `eliminated_rank` eliminates
        every row of each family and of all four, `products` included, on
        every triple of {2,3,4,5}^3."""
        for dims in itertools.product((2, 3, 4, 5), repeat=3):
            systems = [leaf(d, mode) for d in dims]
            with faults.inject_fault(fault):
                report = span_report(*systems)
                rows = dict(_tripartite_families(*systems))
            union = eliminated_rank(row for family in rows.values() for row in family)
            assert report["class_ranks"] == {
                **{name: eliminated_rank(family) for name, family in rows.items()},
                "union": union}, dims
            assert union == eliminated_rank(row for name, family in rows.items()
                                            if name != "products" for row in family), dims


def written_out(system, labels, weight, moves=()):
    """The state with `weight` on each of `labels`, each carried along
    `moves` by the frozen label calculus (in CT as its + twin, which a
    faulted braid's - sign codes as), through the validating constructor."""
    coeffs = {}
    for label in labels:
        moved = label_calculus_oracle.apply_moves_tracked(label, moves)[0]
        if system.mode is TheoryMode.CT:
            moved = label_calculus_oracle.plus_twin(moved)
        coeffs[moved] = coeffs.get(moved, 0) + weight
    return StateVector(system, coeffs)


def vector_families(a, b, c):
    """The four biseparable families of `_tripartite_families` on ((AB)C),
    each product written out label by label, not by the product rule:
    |x>|y> is 1/2 on each of (x y)_- and (x y)_+ (1 on (x y)_+ in CT), and
    |u>|v>|w> is 1/4 on each ((u v)_s1 w)_s2."""
    signs = node_signs(a.mode)
    half = F(1, len(signs))
    ab, bc, ac = compose_systems(a, b), compose_systems(b, c), compose_systems(a, c)
    abc = compose_systems(ab, c)
    to_abc = [Move(MoveKind.ASSOC_R, ""), Move(MoveKind.BRAID, "1"),
              Move(MoveKind.ASSOC_L, "")]

    def products(x, y, moves=()):
        return [written_out(abc, [NodeLabel(u, v, s) for s in signs], half, moves)
                for u in enumerate_pure_labels(x) for v in enumerate_pure_labels(y)]
    return {
        "products": [written_out(abc, [NodeLabel(NodeLabel(u, v, s1), w, s2)
                                       for s1 in signs for s2 in signs], half * half)
                     for u in enumerate_pure_labels(a) for v in enumerate_pure_labels(b)
                     for w in enumerate_pure_labels(c)],
        "ab_c": products(ab, c),
        "a_bc": products(a, bc, [Move(MoveKind.ASSOC_L, "")]),
        "ac_b": products(ac, b, to_abc),
    }


class TestIntRowFamilies:
    """Each int-row family is the numerators of the vector family it stands
    for: the product rule's 1/2 (1/4 for a triple; 1 in CT) is the whole
    denominator of every product of basis states, so the rows are the
    vectors' canonical ints as they are."""

    @pytest.mark.parametrize("fault", (None,) + faults.KNOWN_FAULTS)
    @pytest.mark.parametrize("mode", [TheoryMode.BCT, TheoryMode.CT])
    @pytest.mark.parametrize("dims", [(2, 3, 4), (3, 2, 2)])
    def test_families_are_the_vectors_numerators(self, dims, mode, fault):
        """Each family against its products written out label by label
        (`vector_families`), not by the product rule or the transport."""
        systems = [leaf(d, mode) for d in dims]
        with faults.inject_fault(fault):
            built = list(_tripartite_families(*systems))
            vectors = vector_families(*systems)
        abc = compose_systems(compose_systems(*systems[:2]), systems[2])
        assert [name for name, _rows in built] == list(vectors)
        for name, rows in built:
            family = vectors[name]
            assert all(vector.system == abc for vector in family), name
            assert rows == [vector.nums for vector in family], name
            half = 1 if mode is TheoryMode.CT else 4 if name == "products" else 2
            assert {vector.den for vector in family} == {half}, name

    @pytest.mark.parametrize("mode", [TheoryMode.BCT, TheoryMode.CT])
    @pytest.mark.parametrize("dims", [(2, 3), (3, 2), (4, 4)])
    def test_bipartite_products_are_the_vectors_numerators(self, dims, mode):
        """|u>|v> written out label by label, not by the product rule: 1/2 on
        each of (u v)_- and (u v)_+ in BCT, 1 on (u v)_+ in CT, through the
        validating constructor."""
        a, b = (leaf(d, mode) for d in dims)
        ab = compose_systems(a, b)
        weight = F(1) if mode is TheoryMode.CT else F(1, 2)
        vectors = [StateVector(ab, {NodeLabel(u, v, s): weight for s in node_signs(mode)})
                   for u in enumerate_pure_labels(a) for v in enumerate_pure_labels(b)]
        assert product_states(a, b) == [vector.nums for vector in vectors]


class TestDelta2:
    def test_bibit_pair(self):
        assert pair_report(A, B)["delta2"] == 4

    def test_two_three(self):
        assert pair_report(A, leaf(3))["delta2"] == 6

    def test_ct_vanishes(self):
        assert pair_report(bibit(TheoryMode.CT), leaf(3, TheoryMode.CT))["delta2"] == 0

    def test_trivial_rejected(self):
        with pytest.raises(ValueError, match="delta2 needs two non-trivial systems"):
            pair_report(A, trivial())

    def test_strict_bilocality(self):
        assert pair_report(A, B)["strict_bilocality"]
        assert pair_report(leaf(3), leaf(3))["strict_bilocality"]
        assert pair_report(bibit(TheoryMode.CT), bibit(TheoryMode.CT))["strict_bilocality"]

    @pytest.mark.parametrize("spoil, message", [
        (lambda rows: rows[1:], "separable span rank 3 disagrees with the dimension rule"),
        (lambda rows: [dict([min(rows[0].items())]), *rows[1:]],
         "non-uniform product supports: {1, 2}"),
    ], ids=["rank-off-the-rule", "non-uniform-supports"])
    def test_products_off_the_rule_are_refused(self, monkeypatch, spoil, message):
        """Each cross-check of the product family against the dimension rule
        refuses a family that fails it with its own message, and reports
        nothing."""
        real = tomography.product_states
        monkeypatch.setattr(tomography, "product_states", lambda a, b: spoil(real(a, b)))
        with pytest.raises(AssertionError, match=f"^{re.escape(message)}$"):
            pair_report(A, B)


TRIVIAL_PLACEMENTS = [places for n in (1, 2, 3)
                      for places in itertools.combinations(range(3), n)]


class TestDelta3:
    @pytest.mark.parametrize("mode", TheoryMode)
    @pytest.mark.parametrize("places", TRIVIAL_PLACEMENTS, ids=str)
    def test_trivial_factor_rejected(self, mode, places):
        systems = [trivial(mode) if k in places else leaf(k + 2, mode) for k in range(3)]
        with pytest.raises(ValueError, match="delta3 needs three non-trivial systems"):
            span_report(*systems)

    @pytest.mark.parametrize("dims", list(itertools.product((2, 3), repeat=3)))
    def test_all_small_triples_are_bilocal(self, dims):
        systems = [leaf(d) for d in dims]
        report = span_report(*systems)
        assert report["delta3"] == 0
        assert report["bilocal_identity_holds"]

    def test_rank_decomposes_additively(self):
        report = span_report(A, B, leaf(3))
        da, db, dc = report["d_systems"]
        expected = (da * db * dc + report["delta2"]["AB"] * dc
                    + report["delta2"]["BC"] * da
                    + report["delta2"]["AC"] * db)
        assert report["class_ranks"]["union"] == expected == report["d_composite"]

    def test_222_numbers(self):
        report = span_report(A, B, bibit())
        assert report["d_composite"] == 32
        assert report["class_ranks"]["union"] == 8 + 4 * 2 + 4 * 2 + 4 * 2

    def test_223_identity(self):
        report = span_report(A, B, leaf(3))
        assert report["d_composite"] == 48
        assert report["delta3"] == 0

    def test_ct_triple(self):
        systems = [leaf(2, TheoryMode.CT)] * 3
        report = span_report(*systems)
        assert report["d_composite"] == 8
        assert report["delta3"] == 0
        assert all(v == 0 for v in report["delta2"].values())


class TestCompositeFactors:
    def test_delta2_with_a_composite_factor(self):
        ab = compose_systems(A, B)
        # D_(AB)C = 2*8*2 = 32, product 8*2 = 16
        report = pair_report(ab, leaf(2))
        assert report["delta2"] == 16
        assert report["strict_bilocality"]

    def test_triple_with_dim_four(self):
        report = span_report(A, B, leaf(4))
        assert report["d_composite"] == 64
        assert report["delta3"] == 0 and report["bilocal_identity_holds"]


@pytest.mark.parametrize("mode", [TheoryMode.BCT, TheoryMode.CT])
def test_pair_report_is_the_golden_tomography_entry(mode):
    golden = Path(__file__).parent / "data" / f"golden_tomography_{mode.value.lower()}.json"
    [entry] = [doc for doc in json.loads(golden.read_text()) if doc["dims"] == [2, 3]]
    assert pair_report(leaf(2, mode), leaf(3, mode)) == entry


def corollary_nab(a, b):
    """(n, l) read off the product family: the support sizes of the products
    (one n when uniform), and the labels of AB that no product covers."""
    rows = product_states(a, b)
    return {len(row) for row in rows}, dimension(compose_systems(a, b)) - len(set().union(*rows))


class TestCorollary:
    def test_bibit_pair(self):
        assert corollary_nab(A, B) == ({2}, 0)
        assert pair_report(A, B)["corollary_nab"]

    def test_ct_pair(self):
        a = bibit(TheoryMode.CT)
        assert corollary_nab(a, a) == ({1}, 0)
        assert pair_report(a, a)["corollary_nab"]

    def test_three_two(self):
        assert corollary_nab(leaf(3), A) == ({2}, 0)
        assert pair_report(leaf(3), A)["corollary_nab"]
