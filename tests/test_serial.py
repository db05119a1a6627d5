import random
from fractions import Fraction

import pytest

from bct.coherence import check_pentagon
from bct.config import MAX_NESTING
from bct.kernels import (
    kernels_equal,
    random_instrument,
    random_kernel,
)
from bct.labels import LeafLabel, NodeLabel
from bct.protocols import dense_coding
from bct.serial import (
    E_LABEL_RANGE,
    E_LABEL_SYNTAX,
    E_MODE,
    E_RATIONAL,
    E_SCHEMA,
    E_SYSTEM_SYNTAX,
    ParseError,
    dumps,
    fraction_to_str,
    instrument_from_json,
    label_to_str,
    parse_fraction,
    parse_label,
    parse_system,
    schema,
    state_from_json,
    system_to_str,
    validate_document,
    vector_to_json,
)
from bct.states import StateVector
from bct.systems import TheoryMode, Trivial, bibit, compose_systems, dimension, leaf
from bct.tomography import span_report

from kernel_helpers import (
    instrument_to_json,
    kernel_from_json,
    kernel_to_json,
    random_deterministic_kernel,
)

F = Fraction
AB = compose_systems(bibit(), bibit())


def lab(i):
    return LeafLabel(i)


ECHO_CAP = 80


def assert_echo_capped(message, text):
    """A parse error echoes the input, cut to ECHO_CAP characters."""
    echoed = message.rsplit(" in ", 1)[1]
    if len(text) <= ECHO_CAP:
        assert echoed == repr(text)
    else:
        assert echoed == repr(text[:ECHO_CAP]) + "..."


class TestRationals:
    def test_round_trip(self):
        assert parse_fraction("1/2") == F(1, 2)
        assert fraction_to_str(F(1, 2)) == "1/2"
        assert fraction_to_str(F(3)) == "3"

    def test_normalizes_to_lowest_terms(self):
        assert fraction_to_str(parse_fraction("2/4")) == "1/2"
        assert parse_fraction(" +4/6 ") == F(2, 3) and parse_fraction("-3") == -3

    def test_malformed(self):
        for text in ("", "a/b", "1/0", "1.5.2", None, "0.5", "1e-3", "1_000",
                     "1/-2", "1/", "/2", "1" * 5000):
            with pytest.raises(ParseError) as err:
                parse_fraction(text)
            assert err.value.code == E_RATIONAL


class TestSystems:
    @pytest.mark.parametrize("text,dim", [("2", 2), ("(2*3)", 12),
                                          ("((2*2)*2)", 32), ("1", 1)])
    def test_parse_and_dimension(self, text, dim):
        assert dimension(parse_system(text)) == dim

    def test_round_trip(self):
        for text in ("2", "(2*3)", "((2*2)*2)", "(2*(3*2))"):
            assert system_to_str(parse_system(text)) == text

    @pytest.mark.parametrize("mode", [TheoryMode.BCT, TheoryMode.CT])
    def test_the_trivial_system_is_written_1(self, mode):
        assert system_to_str(Trivial(mode)) == "1"
        assert parse_system("1", mode) == Trivial(mode)

    def test_trivial_strips(self):
        assert parse_system("(2*1)") == bibit()

    def test_syntax_errors(self):
        for text in ("", "(2*3", "2*3", "(2 3)", "x"):
            with pytest.raises(ParseError) as err:
                parse_system(text)
            assert err.value.code == E_SYSTEM_SYNTAX

    @pytest.mark.parametrize("text, position, message", [
        ("0", 0, "elementary systems need dim >= 2, got 0"),
        ("(2*0)", 3, "elementary systems need dim >= 2, got 0"),
        ("9" * 5000, 0, "number too long (5000 digits)"),
        ("(2*" + "3" * 5000 + ")", 3, "number too long (5000 digits)")],
        ids=["0", "(2*0)", "long", "(2*long)"])
    def test_a_refused_leaf_is_a_syntax_error_at_its_token(self, text, position, message):
        with pytest.raises(ParseError) as err:
            parse_system(text)
        assert err.value.code == E_SYSTEM_SYNTAX
        assert str(err.value).startswith(
            f"{E_SYSTEM_SYNTAX}: {message} at position {position} in ")
        assert_echo_capped(str(err.value), text)


class TestLabels:
    def test_round_trip(self):
        label = NodeLabel(NodeLabel(lab(1), lab(2), -1), lab(1), 1)
        assert parse_label(label_to_str(label)) == label
        assert label_to_str(label) == "((1 2)- 1)+"

    def test_range_check(self):
        with pytest.raises(ParseError) as err:
            parse_label("3", bibit())
        assert err.value.code == E_LABEL_RANGE

    def test_range_check_nested(self):
        with pytest.raises(ParseError) as err:
            parse_label("(3 1)-", AB)
        assert err.value.code == E_LABEL_RANGE

    def test_syntax_errors(self):
        for text in ("", "(1 2)", "(1,2)+", "(1 2]+", "()+"):
            with pytest.raises(ParseError) as err:
                parse_label(text)
            assert err.value.code == E_LABEL_SYNTAX

    def test_an_index_too_long_to_read_is_a_syntax_error(self):
        text = "(1 " + "2" * 5000 + ")+"
        with pytest.raises(ParseError) as err:
            parse_label(text, AB)
        assert err.value.code == E_LABEL_SYNTAX
        assert str(err.value).startswith(
            f"{E_LABEL_SYNTAX}: number too long (5000 digits) at position 3 in ")
        assert_echo_capped(str(err.value), text)

    def test_the_longest_number_int_always_reads_is_accepted(self):
        digits = 640  # int's least digit limit: sys.int_info.str_digits_check_threshold
        assert parse_label("(1 " + "0" * (digits - 1) + "1)+") == \
            NodeLabel(lab(1), lab(1), 1)
        with pytest.raises(ParseError, match=rf"number too long \({digits + 1} digits\)"):
            parse_label("(1 " + "0" * digits + "1)+")


class TestNesting:
    @staticmethod
    def nested(depth):
        return ("(" * depth + "2" + "*2)" * depth,
                "(" * depth + "1" + " 1)+" * depth)

    @pytest.mark.parametrize("depth", [MAX_NESTING + 1, 2000])
    def test_too_deep_is_a_parse_error(self, depth):
        system_text, label_text = self.nested(depth)
        for parse, text, code in ((parse_system, system_text, E_SYSTEM_SYNTAX),
                                  (parse_label, label_text, E_LABEL_SYNTAX)):
            with pytest.raises(ParseError) as err:
                parse(text)
            assert err.value.code == code
            assert f"at position {MAX_NESTING} " in str(err.value)

    def test_deepest_allowed_round_trips(self):
        system_text, label_text = self.nested(MAX_NESTING)
        system = parse_system(system_text)
        label = parse_label(label_text, system)
        assert {label: 1}[label] == 1
        assert system_to_str(system) == system_text
        assert label_to_str(label) == label_text


class TestStates:
    def test_round_trip(self):
        rho = StateVector(AB, {NodeLabel(lab(1), lab(1), -1): F(1, 2),
                               NodeLabel(lab(1), lab(1), 1): F(1, 2)})
        doc = vector_to_json(rho)
        validate_document(doc, "state")
        assert state_from_json(doc).coeffs == rho.coeffs
        assert dumps(doc) == dumps(vector_to_json(state_from_json(doc)))

    def test_input_normalization(self):
        doc = {"system": "(2*2)", "coeffs": {"(1 1)-": "2/4"}}
        out = vector_to_json(state_from_json(doc))
        assert out["coeffs"] == {"(1 1)-": "1/2"}

    def test_mode_field(self):
        doc = {"mode": "CT", "system": "(2*2)", "coeffs": {"(1 1)+": "1"}}
        assert state_from_json(doc).system.mode is TheoryMode.CT
        with pytest.raises(ParseError) as err:
            state_from_json({**doc, "mode": "QX"})
        assert err.value.code == E_MODE

    @pytest.mark.parametrize("doc, code", [
        ({"system": "(2*0)", "coeffs": {}}, E_SYSTEM_SYNTAX),
        ({"system": "2", "coeffs": {"2" * 5000: "1"}}, E_LABEL_SYNTAX),
        ({"system": "2", "coeffs": {"1": "0.5"}}, E_RATIONAL),
        ({"system": "2", "coeffs": {"1": "1e-999"}}, E_RATIONAL),
    ], ids=["dimension-0", "long-index", "decimal", "exponent"])
    def test_bad_fields_are_parse_errors(self, doc, code):
        with pytest.raises(ParseError) as err:
            state_from_json(doc)
        assert err.value.code == code

    def test_overweight_rejected(self):
        doc = {"system": "2", "coeffs": {"1": "1", "2": "1"}}
        with pytest.raises(ParseError) as err:
            state_from_json(doc)
        assert err.value.code == E_SCHEMA

    def test_a_negative_weight_is_refused_at_its_label_text(self):
        doc = {"system": "(2*2)", "coeffs": {"(1 2)+": "-1/2"}}
        with pytest.raises(ParseError) as err:
            state_from_json(doc)
        assert str(err.value) == "E_SCHEMA: negative weight -1/2 at (1 2)+"

    def test_two_spellings_of_one_label_are_refused(self):
        doc = {"system": "2", "coeffs": {"1": "1", " 1": "1"}}
        with pytest.raises(ParseError, match="'1' and ' 1' name the same label") as err:
            state_from_json(doc)
        assert err.value.code == E_SCHEMA


class TestKernels:
    def test_round_trip_seeded(self):
        rng = random.Random(0)
        for _ in range(20):
            k = random_kernel(rng, bibit(), leaf(3))
            doc = kernel_to_json(k)
            validate_document(doc, "kernel")
            assert kernels_equal(kernel_from_json(doc), k)
            assert dumps(doc) == dumps(kernel_to_json(kernel_from_json(doc)))

    def test_effect_kernel_round_trip(self):
        doc = {"in": "2", "out": "1",
               "rows": {"1": [{"to": "*", "tau": 1, "w": "1/2"}]}}
        k = kernel_from_json(doc)
        assert isinstance(k.out_system, Trivial)

    def test_bad_tau(self):
        doc = {"in": "2", "out": "2",
               "rows": {"1": [{"to": "1", "tau": 2, "w": "1"}]}}
        with pytest.raises(ParseError) as err:
            kernel_from_json(doc)
        assert err.value.code == E_SCHEMA

    def test_two_spellings_of_one_row_label_are_refused(self):
        doc = {"in": "2", "out": "2",
               "rows": {"1": [{"to": "1", "tau": 1, "w": "1/2"}],
                        " 1": [{"to": "2", "tau": 1, "w": "1/2"}]}}
        with pytest.raises(ParseError, match="'1' and ' 1' name the same label") as err:
            kernel_from_json(doc)
        assert err.value.code == E_SCHEMA

    def test_repeated_entries_of_a_row_are_summed(self):
        doc = {"in": "2", "out": "2",
               "rows": {"1": [{"to": "1", "tau": 1, "w": "1/4"},
                              {"to": " 1", "tau": 1, "w": "1/4"}]}}
        assert kernel_from_json(doc).rows == {
            LeafLabel(1): {(LeafLabel(1), 1): F(1, 2)}}

    def test_row_sum_violation_surfaces_as_schema_error(self):
        doc = {"in": "2", "out": "2",
               "rows": {"1": [{"to": "1", "tau": 1, "w": "1"},
                              {"to": "2", "tau": 1, "w": "1/2"}]}}
        with pytest.raises(ParseError) as err:
            kernel_from_json(doc)
        assert str(err.value) == "E_SCHEMA: row sum 3/2 exceeds 1 at 1"


class TestInstruments:
    def test_round_trip(self):
        rng = random.Random(1)
        inst = random_instrument(rng, bibit(), bibit(), branches=3)
        doc = instrument_to_json(inst)
        validate_document(doc, "instrument")
        back = instrument_from_json(doc)
        assert all(kernels_equal(x, y)
                   for x, y in zip(back.branches, inst.branches))
        assert back.outcomes == inst.outcomes

    @pytest.mark.parametrize("where", ["instrument", "branch"])
    def test_unknown_mode_anywhere_is_a_mode_error(self, where):
        rng = random.Random(2)
        doc = instrument_to_json(random_instrument(rng, bibit(), bibit()))
        for branch in doc["branches"]:
            branch["mode"] = "BCT"
        (doc if where == "instrument" else doc["branches"][-1])["mode"] = "QX"
        with pytest.raises(ParseError) as err:
            instrument_from_json(doc)
        assert err.value.code == E_MODE

    def test_outcome_mismatch(self):
        rng = random.Random(2)
        doc = instrument_to_json(random_instrument(rng, bibit(), bibit()))
        doc["outcomes"] = ["only-one"]
        with pytest.raises(ParseError):
            instrument_from_json(doc)


class TestSchema:
    def test_every_published_kind_validates_its_artifacts(self):
        rng = random.Random(3)
        validate_document(kernel_to_json(random_deterministic_kernel(
            rng, bibit(), bibit())), "kernel")

        validate_document(check_pentagon((2, 2, 2, 2)).to_json(), "check_report")
        validate_document(dense_coding().to_json(), "protocol_report")
        validate_document(span_report(bibit(), bibit(), bibit()), "span_report")

    def test_unknown_kind(self):
        with pytest.raises(ParseError):
            validate_document({}, "mystery")

    def test_schema_is_json_serializable(self):
        dumps(schema())

    def test_schema_states_the_rational_grammar_the_parser_enforces(self):
        rational = schema()["state"]["properties"]["coeffs"]["values"]
        assert rational == {"type": "string",
                            "pattern": "rational: 'p' or 'p/q' in decimal digits, "
                                       "with an optional sign, q not 0 ('2/4' reads as 1/2)"}


class TestFieldTypes:
    """Every field is type-checked before use: a mistyped one is E_SCHEMA."""

    @pytest.mark.parametrize("doc", [
        {"system": 7, "coeffs": {"1": "1"}},
        {"system": ["2"], "coeffs": {"1": "1"}},
        {"mode": 7, "system": "2", "coeffs": {"1": "1"}},
        {"system": "2", "coeffs": "1"},
    ])
    def test_state(self, doc):
        with pytest.raises(ParseError) as err:
            state_from_json(doc)
        assert err.value.code == E_SCHEMA

    @pytest.mark.parametrize("change", [
        {"in": 2}, {"out": None}, {"mode": True}, {"rows": []},
        {"rows": {"1": [{"to": 1, "tau": 1, "w": "1"}]}},
        {"rows": {"1": [{"to": "1", "tau": True, "w": "1"}]}},
        {"rows": {"1": [{"to": "1", "tau": "1", "w": "1"}]}},
    ])
    def test_kernel(self, change):
        doc = {"in": "2", "out": "2",
               "rows": {"1": [{"to": "1", "tau": 1, "w": "1"}]}, **change}
        with pytest.raises(ParseError) as err:
            kernel_from_json(doc)
        assert err.value.code == E_SCHEMA

    @pytest.mark.parametrize("change", [
        {"branches": {}}, {"branches": [7]}, {"mode": 1},
        {"outcomes": "ab"}, {"outcomes": [[1], [2]]}, {"outcomes": [True, False]},
    ])
    def test_instrument(self, change):
        rng = random.Random(2)
        doc = {**instrument_to_json(random_instrument(rng, bibit(), bibit())), **change}
        with pytest.raises(ParseError) as err:
            instrument_from_json(doc)
        assert err.value.code == E_SCHEMA

    def test_library_parsers_refuse_non_strings(self):
        for parse, code in ((parse_system, E_SYSTEM_SYNTAX), (parse_label, E_LABEL_SYNTAX)):
            with pytest.raises(ParseError) as err:
                parse(7)
            assert err.value.code == code
