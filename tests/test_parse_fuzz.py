"""Mutation fuzz of the document parse boundary.

Valid state, kernel and instrument documents are mutated at any depth:
a value is retyped, a key or item is dropped, or one is added.  Whatever
the mutation, the `*_from_json` parsers raise nothing but `ParseError`,
and the commands that read such documents (`protocol clone --state` and
`dilate`) exit 0 or 2: a bad document is a usage error, never a crash
and never a failed check.  `main` reports any exception it has no rule
for as an internal error with exit 2, so the fuzz also reads stderr: a
crash fails here rather than passing as a usage error.  Some of the drawn
strings are thousands of characters long, and no error message, raised or
printed, may repeat them whole: each stays under LINE_LIMIT characters.
Nor may the message on a path that cannot be opened, given to `--config`,
`--state`, `--out` or `dilate`.

The command line is fuzzed the same way: every subcommand, with flags and
values drawn from all of them and a mutated `key=value` config file, exits
0 or 2, and 1 only when a fault is injected.
"""

import argparse
import contextlib
import copy
import io
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bct.cli import _PARSER_SHOWN, _Parser, main
from bct.faults import KNOWN_FAULTS
from bct.kernels import random_instrument, random_kernel, random_state
from bct.serial import (
    ParseError,
    instrument_from_json,
    state_from_json,
    vector_to_json,
)
from bct.systems import TheoryMode, bibit, compose_systems

from kernel_helpers import instrument_to_json, kernel_from_json, kernel_to_json

_RNG = random.Random(11)
_AB = compose_systems(bibit(), bibit())
STATE = vector_to_json(random_state(_RNG, _AB))
KERNEL = kernel_to_json(random_kernel(_RNG, bibit(), bibit()))
INSTRUMENT = instrument_to_json(random_instrument(_RNG, bibit(), bibit(), branches=2))
CT_STATE = vector_to_json(random_state(_RNG, compose_systems(bibit(TheoryMode.CT),
                                                              bibit(TheoryMode.CT))))

# no error message repeats its input whole: it stays under this length
LINE_LIMIT = 400
# long strings: a number past int's digit limit, a label and a system nested
# 150 deep (a label of no system here, a system of 151 leaves), and a mode
LONG = ["1" * 5000, "(" * 150 + "1" + " 1)+" * 150, "(" * 150 + "2" + "*2)" * 150,
        "Q" * 5000]

# values a field may be retyped to or added as: every JSON type, plus
# strings that parse as systems, labels, rationals and modes, strings that
# come close (a dimension below 2, a decimal), and long strings
VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 3),
    st.sampled_from(["", "0", "1", "2", "-1", "1/2", "0.5", "*", "(1 1)+", "(2*2)", "(2*0)",
                     "CT", "QX"]),
    st.just([]), st.just({}), st.just(["1"]), st.just({"1": "1"}),
    st.sampled_from(LONG), st.just([LONG[0]]), st.just({LONG[1]: LONG[0]}),
)
KEYS = st.sampled_from(["mode", "system", "coeffs", "in", "out", "rows", "to",
                        "tau", "w", "branches", "outcomes", "1", "(1 1)-", "extra",
                        *LONG])


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
        except ParseError as exc:
            assert len(str(exc)) < LINE_LIMIT


def stderr_of(argv):
    """(exit code, stderr) of `main(argv)`."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


def exit_code(argv):
    """`main(argv)`, which must not have reported an internal error, nor
    printed a line of LINE_LIMIT characters or more."""
    code, err = stderr_of(argv)
    assert "internal error" not in err
    assert all(len(line) < LINE_LIMIT for line in err.splitlines())
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


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("argv")
    (root / "state.json").write_text(json.dumps(STATE))
    (root / "instrument.json").write_text(json.dumps(INSTRUMENT))
    return root


# each subcommand with the arguments that keep one run cheap, and its own
# flags; the fuzzed tokens come after the base, so a drawn flag overrides it
BASES = [["coherence", "--pairs", "1", "--dims-matrix", "2,2,2"],
         ["verify-dims", "--triples", "2,2,2"], ["tomography", "--pairs", "2,2"],
         ["dilate", "{instrument}"], ["schema"],
         *(["protocol", name] for name in ("dense-coding", "swap", "clone",
                                            "monogamy", "hypersignal", "capacity"))]
COMMON = ["mode", "quiet"]  # and --out, left out: it writes where a value points
OWN = {"coherence": ["dims-matrix", "seed", "pairs", "fault"],
       "verify-dims": ["triples"], "tomography": ["pairs"], "dilate": [], "schema": [],
       "protocol": ["i", "j", "s", "k", "l", "t", "n", "dims", "state"]}
OTHER = ["config", "help", "bogus", "fault", "triples", "state"]
TOKENS = st.sampled_from([
    "", "0", "1", "2", "3", "-1", "1/2", "x", "+", "-", "--", "=", "BCT", "ct", "QX",
    "2,2", "3,2", "2,2,2", "2,3,2", "2,2,2,2", "2,2;", ";", "2,,2",
    "none", *KNOWN_FAULTS, "{state}", "{instrument}",
])


def flag_names(command):
    """A subcommand's own flag names two times in three, else another."""
    own = st.sampled_from(COMMON + OWN[command])
    return st.one_of(own, own, st.sampled_from(OTHER))


@st.composite
def fuzzed_tokens(draw, command):
    tokens = []
    for _ in range(draw(st.integers(0, 3))):
        flag, value = "--" + draw(flag_names(command)), draw(TOKENS)
        form = draw(st.sampled_from(["pair", "pair", "joined", "flag", "value"]))
        tokens += {"pair": [flag, value], "joined": [f"{flag}={value}"],
                   "flag": [flag], "value": [value]}[form]
    return tokens


@st.composite
def config_text(draw, command):
    lines = []
    for _ in range(draw(st.integers(0, 3))):
        form = draw(st.sampled_from(["entry", "entry", "entry", "comment", "blank", "bare"]))
        key, value = draw(flag_names(command)), draw(TOKENS)
        lines.append({"entry": f"{key}={value}", "comment": f"# {key}",
                      "blank": "", "bare": key}[form])
    return "\n".join(lines)


@st.composite
def command_lines(draw):
    """(argv, config text or None) for one subcommand."""
    base = draw(st.sampled_from(BASES))
    return ([*base, *draw(fuzzed_tokens(base[0]))],
            draw(st.none() | config_text(base[0])))


@settings(max_examples=200, deadline=None)
@given(line=command_lines())
def test_argv_and_config_exit_zero_or_two(cli_files, line):
    def placed(text):
        return (text.replace("{state}", str(cli_files / "state.json"))
                .replace("{instrument}", str(cli_files / "instrument.json")))

    argv, config = line
    argv = [placed(token) for token in argv]
    if config is not None:
        (cli_files / "run.cfg").write_text(placed(config))
        argv = ["--config", str(cli_files / "run.cfg"), *argv]
    code = exit_code(argv)
    faulted = any(f in token for f in KNOWN_FAULTS for token in [*argv, config or ""])
    assert code in ((0, 1, 2) if faulted else (0, 2))


# ---------------------------------------------------------------------------
# Long echoes pinned: a constructor's message on a huge weight, argparse's on
# a refused flag value, and a path that cannot be opened


@pytest.mark.parametrize(("weight", "message"), [
    ("1" * 4000, "total weight " + "1" * 67 + "..."),
    ("3/2", "total weight 3/2 exceeds 1"),
])
def test_a_constructor_message_is_passed_on_cut(doc_path, weight, message):
    """A 4 000-digit coefficient, which int reads, overweighs the state: the
    constructor's message quotes it whole, and E_SCHEMA passes on its first
    80 characters; a message of at most 80 is passed on as it is."""
    doc_path.write_text(json.dumps({"mode": "BCT", "system": "2", "coeffs": {"1": weight}}))
    code, err = stderr_of(["protocol", "clone", "--state", str(doc_path), "--quiet"])
    assert (code, err) == (2, f"error E_SCHEMA: {message}\n")
    kernel = {"mode": "BCT", "in": "2", "out": "2",
              "rows": {"1": [{"to": "1", "tau": 1, "w": weight}]}}
    with pytest.raises(ParseError) as refused:
        kernel_from_json(kernel)
    assert len(str(refused.value)) <= len("E_SCHEMA: ") + 83


# every flag whose value argparse itself checks, the subcommand and the
# protocol name, and an argument no parser takes; "{}" is the value
REFUSED = [["coherence", "--seed", "{}"], ["coherence", "--mode", "{}"],
           ["coherence", "--fault", "{}"], ["coherence", "--pairs", "{}"],
           ["protocol", "swap", "--i", "{}"], ["protocol", "{}"], ["{}"], ["schema", "{}"]]


@pytest.mark.parametrize("argv", REFUSED)
@pytest.mark.parametrize("value", ["1" * 5000, LONG[1], "Q" * 5000],
                         ids=["digits", "spaced", "letters"])
def test_argparse_refuses_a_long_value_with_a_bounded_line(argv, value):
    assert exit_code([value if token == "{}" else token for token in argv]) == 2


def test_a_long_negative_count_is_refused_with_a_bounded_line():
    # an int of 4 000 digits, which `_positive` reads and refuses, quoting it
    code, err = stderr_of(["coherence", "--pairs", "-" + "1" * 4000])
    message = "argument --pairs: must be at least 1, got -" + "1" * 4000
    assert code == 2 and err.endswith(f": error: {message[:_PARSER_SHOWN]}...\n")


@pytest.mark.parametrize("argv", REFUSED)
def test_argparse_messages_on_values_of_80_characters_are_its_own(argv, monkeypatch):
    argv = ["Q" * 80 if token == "{}" else token for token in argv]
    code, err = stderr_of(argv)
    monkeypatch.setattr(_Parser, "error", argparse.ArgumentParser.error)
    assert (code, err) == stderr_of(argv)
    assert code == 2 and "Q" * 80 in err


# every command that opens a path it is given; "{}" is the path
OPENED = [["--config", "{}", "schema"], ["protocol", "clone", "--state", "{}"],
          ["dilate", "{}"], ["schema", "--out", "{}"]]


@pytest.mark.parametrize("argv", OPENED)
def test_a_long_path_is_refused_with_a_bounded_line(argv):
    # a 5 000-character file name, which the system refuses as too long
    assert exit_code(["p" * 5000 if token == "{}" else token for token in argv]) == 2


@pytest.mark.parametrize("argv", OPENED)
def test_a_path_of_80_characters_is_echoed_as_python_writes_it(argv):
    path = "no-such-directory/" + "p" * 62
    assert len(path) == 80
    with pytest.raises(OSError) as refused:
        open(path)
    code, err = stderr_of([path if token == "{}" else token for token in argv])
    assert code == 2 and err.endswith(f"error: {refused.value}\n")
