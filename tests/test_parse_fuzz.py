"""Mutation fuzz of the document parse boundary.

Valid state, kernel and instrument documents are mutated at any depth:
a value is retyped, a key or item is dropped, or one is added.  Whatever
the mutation, the `*_from_json` parsers raise nothing but `ParseError`,
and the commands that read such documents (`protocol clone --state` and
`dilate`) exit 0 or 2: a bad document is a usage error, never a crash
and never a failed check.  `main` reports any exception it has no rule
for as an internal error with exit 2, so the fuzz also reads stderr: a
crash fails here rather than passing as a usage error.
"""

import contextlib
import copy
import io
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bct.cli import main
from bct.kernels import random_instrument, random_kernel, random_state
from bct.serial import (
    ParseError,
    instrument_from_json,
    instrument_to_json,
    kernel_from_json,
    kernel_to_json,
    state_from_json,
    vector_to_json,
)
from bct.systems import TheoryMode, bibit, compose_systems

_RNG = random.Random(11)
_AB = compose_systems(bibit(), bibit())
STATE = vector_to_json(random_state(_RNG, _AB))
KERNEL = kernel_to_json(random_kernel(_RNG, bibit(), bibit()))
INSTRUMENT = instrument_to_json(random_instrument(_RNG, bibit(), bibit(), branches=2))
CT_STATE = vector_to_json(random_state(_RNG, compose_systems(bibit(TheoryMode.CT),
                                                              bibit(TheoryMode.CT))))

# values a field may be retyped to or added as: every JSON type, plus
# strings that parse as systems, labels, rationals and modes
VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 3),
    st.sampled_from(["", "1", "2", "-1", "1/2", "*", "(1 1)+", "(2*2)", "CT", "QX"]),
    st.just([]), st.just({}), st.just(["1"]), st.just({"1": "1"}),
)
KEYS = st.sampled_from(["mode", "system", "coeffs", "in", "out", "rows", "to",
                        "tau", "w", "branches", "outcomes", "1", "(1 1)-", "extra"])


def _slots(node, out):
    """Every (container, key) pair of a document, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in list(items):
        out.append((node, key))
        if isinstance(child, (dict, list)):
            _slots(child, out)
    return out


@st.composite
def mutated(draw, doc):
    """`doc` after one to three retype, drop or add mutations."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        slots = _slots(doc, [])
        containers = [doc] + [c[k] for c, k in slots if isinstance(c[k], (dict, list))]
        action = draw(st.sampled_from(["retype", "drop", "add"]))
        value = copy.deepcopy(draw(VALUES))  # `st.just` shares its object
        if action == "add" or not slots:
            target = draw(st.sampled_from(containers))
            if isinstance(target, dict):
                target[draw(KEYS)] = value
            else:
                target.append(value)
            continue
        container, key = draw(st.sampled_from(slots))
        if action == "retype":
            container[key] = value
        else:
            del container[key]
    return doc


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc.json"


@settings(max_examples=150, deadline=None)
@given(state=mutated(STATE), ct_state=mutated(CT_STATE), kernel=mutated(KERNEL),
       instrument=mutated(INSTRUMENT))
def test_parsers_raise_only_parse_errors(state, ct_state, kernel, instrument):
    for parse, doc in ((state_from_json, state), (state_from_json, ct_state),
                       (kernel_from_json, kernel), (instrument_from_json, instrument)):
        try:
            parse(doc)
        except ParseError:
            pass


def exit_code(argv):
    """`main(argv)`, which must not have reported an internal error."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    assert "internal error" not in err.getvalue()
    return code


@settings(max_examples=60, deadline=None)
@given(state=mutated(STATE))
def test_clone_exits_zero_or_two(doc_path, state):
    doc_path.write_text(json.dumps(state))
    assert exit_code(["protocol", "clone", "--state", str(doc_path), "--quiet"]) in (0, 2)


@settings(max_examples=40, deadline=None)
@given(instrument=mutated(INSTRUMENT))
def test_dilate_exits_zero_or_two(doc_path, instrument):
    doc_path.write_text(json.dumps(instrument))
    assert exit_code(["dilate", str(doc_path), "--quiet"]) in (0, 2)
