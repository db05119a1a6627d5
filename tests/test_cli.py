import dataclasses
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import bct
import bct.cli
import bct.tomography
from bct.cli import main
from bct.coherence import DEFAULT_HEXAGON_DIMS
from bct.config import DILATION_MAX_DIM, shown
from bct.kernels import Instrument, identity_kernel, random_instrument
from bct.serial import dumps, vector_to_json
from bct.states import StateVector
from bct.labels import LeafLabel
from bct.systems import TheoryMode, bibit, leaf
from fractions import Fraction

from kernel_helpers import instrument_to_json


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_protocol_dense_coding(capsys):
    code, out = run(["protocol", "dense-coding", "--quiet"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["success"] is True
    assert len(doc["outcomes"]) == 8


def test_protocol_swap_flags(capsys):
    code, out = run(["protocol", "swap", "--i", "2", "--j", "1", "--s", "-",
                     "--k", "1", "--l", "2", "--t", "+", "--quiet"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["success"] is True


def test_protocol_capacity(capsys):
    code, out = run(["protocol", "capacity", "--n", "3", "--quiet"], capsys)
    assert code == 0
    assert json.loads(out)["outcomes"][0]["messages"] == 32


def test_coherence_pass_and_fault(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _ = run(["coherence", "--dims-matrix", "2,2,2;2,2,2,2", "--seed", "7",
                   "--pairs", "3", "--quiet", "--out", str(out_path)], capsys)
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["passed"] is True
    code, _ = run(["coherence", "--dims-matrix", "2,2,2", "--pairs", "2",
                   "--fault", "assoc-sign", "--quiet", "--out",
                   str(out_path)], capsys)
    assert code == 1
    doc = json.loads(out_path.read_text())
    failing = [r for r in doc["reports"] if not r["passed"]]
    assert failing and all(r["counterexample"] for r in failing)


def test_out_without_quiet_prints_the_summary_line(tmp_path, capsys):
    out_path = tmp_path / "schema.json"
    code, out = run(["schema", "--out", str(out_path)], capsys)
    assert (code, out) == (0, "schema written\n")
    assert "kernel" in json.loads(out_path.read_text())


def test_quadruples_alone_keep_the_default_hexagon_dims(monkeypatch, capsys):
    configs = []
    monkeypatch.setattr(bct.cli, "run_suite", lambda config: configs.append(config) or [])
    assert run(["coherence", "--dims-matrix", "2,3,2,2", "--quiet"], capsys)[0] == 0
    [config] = configs
    assert config.pentagon_dims == ((2, 3, 2, 2),)
    assert config.hexagon_dims == DEFAULT_HEXAGON_DIMS


def test_verify_dims(capsys):
    code, out = run(["verify-dims", "--triples", "2,2,2;2,2,3;3,3,2",
                     "--quiet"], capsys)
    assert code == 0
    reports = json.loads(out)
    assert [r["delta3"] for r in reports] == [0, 0, 0]


@pytest.mark.parametrize("mode", TheoryMode)
def test_verify_dims_writes_span_report_as_it_is(tmp_path, capsys, mode):
    """The written report is `span_report`'s document, no key renamed."""
    out = tmp_path / "spans.json"
    assert main(["verify-dims", "--triples", "2,3,4", "--mode", mode.value.lower(),
                 "--quiet", "--out", str(out)]) == 0
    expected = bct.tomography.span_report(leaf(2, mode), leaf(3, mode), leaf(4, mode))
    assert json.loads(out.read_text()) == [expected]


def test_tomography(capsys):
    code, out = run(["tomography", "--pairs", "2,2;2,3", "--quiet"], capsys)
    assert code == 0
    reports = json.loads(out)
    assert [r["delta2"] for r in reports] == [4, 6]
    assert all(r["strict_bilocality"] and r["corollary_nab"] for r in reports)


def test_dilate_round_trip(tmp_path, capsys):
    rng = random.Random(9)
    inst = random_instrument(rng, bibit(), bibit(), branches=2)
    src = tmp_path / "instrument.json"
    src.write_text(dumps(instrument_to_json(inst)))
    out_path = tmp_path / "dilation.json"
    code, _ = run(["dilate", str(src), "--quiet", "--out", str(out_path)], capsys)
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["verified"] is True
    assert doc["sigma"]["system"] == "(16*2)"


def test_dilate_largest_processor_inside_the_bound(tmp_path, capsys):
    # (4,4) gives a processor domain of exactly DILATION_MAX_DIM labels
    inst = random_instrument(random.Random(44), leaf(4), leaf(4), branches=2)
    src = tmp_path / "instrument.json"
    src.write_text(dumps(instrument_to_json(inst)))
    out_path = tmp_path / "dilation.json"
    code, _ = run(["dilate", str(src), "--quiet", "--out", str(out_path)], capsys)
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["verified"] is True
    assert doc["sigma"]["system"] == "(4096*4)"


def test_clone_via_cli(tmp_path, capsys):
    rho = StateVector(bibit(), {LeafLabel(1): Fraction(1, 2),
                                LeafLabel(2): Fraction(1, 2)})
    src = tmp_path / "state.json"
    src.write_text(dumps(vector_to_json(rho)))
    code, out = run(["protocol", "clone", "--state", str(src), "--quiet"], capsys)
    assert code == 0
    assert json.loads(out)["success"] is True


def test_schema_subcommand(capsys):
    code, out = run(["schema", "--quiet"], capsys)
    assert code == 0
    assert "kernel" in json.loads(out)


def test_unknown_subcommand_usage_error(capsys):
    assert main(["frobnicate"]) == 2
    assert main([]) == 2


@pytest.mark.parametrize("doc, message", [
    ({"branches": []}, "an instrument needs at least one branch"),
    ({**instrument_to_json(Instrument((identity_kernel(bibit()),))), "outcomes": [0, 1]},
     "one outcome label per branch"),
], ids=["no-branch", "two-outcomes"])
def test_bad_document_is_usage_error(tmp_path, capsys, doc, message):
    """The `Instrument` constructor's refusal, as a schema error."""
    src = tmp_path / "broken.json"
    src.write_text(json.dumps(doc))
    assert main(["dilate", str(src), "--quiet"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error E_SCHEMA: {message}\n")


@pytest.mark.parametrize("d, digits", [
    (300, str(4 * 600 ** 300 * 300 ** 2)),
    # 4 * 4000^2000 * 2000^2 = 2^4004 * 10^6006, past the 4300 digits `str` writes
    (2000, str(2 ** 4004)),
])
def test_dilate_echoes_the_processor_domain_cut(tmp_path, capsys, d, digits):
    """The processor domain ((B'' B) A) of D -> D has dimension
    4 (2 D)^D D^2, refused under `DILATION_MAX_DIM` by `basis_size`, which
    echoes it cut as every bound refusal does."""
    src = tmp_path / "instrument.json"
    src.write_text(dumps(instrument_to_json(Instrument((identity_kernel(leaf(d)),)))))
    assert main(["dilate", str(src), "--quiet"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", f"error: dimension {digits[:80]}... exceeds enumeration bound {DILATION_MAX_DIM}\n")


def test_config_file_defaults_and_overrides(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed=5\npairs=2\n")
    code, out = run(["--config", str(cfg), "coherence", "--dims-matrix", "2,2,2",
                     "--quiet"], capsys)
    assert code == 0
    assert json.loads(out)["config"]["seed"] == 5
    for seed in (["--seed", "8"], ["--seed=8"]):
        code, out = run(["--config", str(cfg), "coherence", *seed,
                         "--dims-matrix", "2,2,2", "--quiet"], capsys)
        assert json.loads(out)["config"]["seed"] == 8


def test_config_file_named_like_the_subcommand(tmp_path, monkeypatch, capsys):
    """Config flags land in the subcommand's scope, whatever the file's name."""
    monkeypatch.chdir(tmp_path)
    Path("coherence").write_text("seed=5\npairs=2\n")
    code, out = run(["--config", "coherence", "coherence", "--dims-matrix", "2,2,2",
                     "--quiet"], capsys)
    assert code == 0
    assert json.loads(out)["config"]["seed"] == 5


@pytest.mark.parametrize("command, key, value", [
    ("tomography", "pairs", "2,2;2,3"),
    ("verify-dims", "triples", "2,2,2"),
])
def test_a_config_file_supplies_a_subcommands_own_flag(tmp_path, capsys, command, key, value):
    """The config's keys are flags of the subcommand, the one it needs
    included: the config form writes the bytes the flag form writes."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key}={value}\n")
    code, out = run([command, f"--{key}", value, "--quiet"], capsys)
    assert code == 0 and out
    assert run(["--config", str(cfg), command, "--quiet"], capsys) == (code, out)


@pytest.mark.parametrize("command, flag", [
    ("tomography", "--pairs PAIRS"), ("verify-dims", "--triples TRIPLES"),
])
def test_a_flag_missing_from_argv_and_config_is_a_usage_error(tmp_path, capsys, command, flag):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mode=BCT\n")
    for config in ([], ["--config", str(cfg)]):
        assert main([*config, command, "--quiet"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error E_SCHEMA: {command} needs {flag}\n")


def test_cloning_a_trivial_state_is_refused_by_name(tmp_path, capsys):
    """The trivial system has no two halves to clone into: the input is
    refused as such, not by a marginal on a path the user never gave."""
    src = tmp_path / "state.json"
    src.write_text(json.dumps({"system": "1", "coeffs": {"*": "1"}}))
    assert main(["protocol", "clone", "--state", str(src), "--quiet"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: cloning needs a non-trivial system\n")


def test_a_config_file_that_is_not_utf8_is_a_usage_error(tmp_path):
    """Through `python -m bct`, as a user runs it: exit 2 and one line, no
    traceback (an undecodable file raises a `UnicodeDecodeError`)."""
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"seed=\xff\xfe\n")
    env = dict(os.environ, PYTHONPATH=str(Path(bct.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-m", "bct", "--config", str(cfg), "coherence",
                           "--pairs", "1", "--dims-matrix", "2,2,2"],
                          capture_output=True, text=True, env=env, timeout=60)
    lines = proc.stderr.splitlines()
    assert proc.returncode == 2 and proc.stdout == ""
    assert len(lines) == 1 and lines[0].startswith("config error:")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ["coherence", "--mode=--"],
    ["coherence", "--seed=--", "--dims-matrix", "2,2,2", "--pairs", "1"],
    ["verify-dims", "--triples=--"],
])
def test_a_double_dash_value_is_a_usage_error(argv, capsys):
    assert main(argv) == 2
    assert "internal error" not in capsys.readouterr().err


def test_ct_mode_flows(capsys):
    code, out = run(["coherence", "--mode", "CT", "--dims-matrix", "2,2,2",
                     "--pairs", "2", "--quiet"], capsys)
    assert code == 0 and json.loads(out)["passed"]
    code, out = run(["tomography", "--pairs", "2,2", "--mode", "CT",
                     "--quiet"], capsys)
    assert code == 0
    assert json.loads(out)[0]["delta2"] == 0
    assert run(["tomography", "--pairs", "2,2", "--mode", "ct", "--quiet"],
               capsys) == (0, out)
    code, out = run(["protocol", "monogamy", "--mode", "CT", "--quiet"], capsys)
    assert code == 0 and json.loads(out)["success"]


def test_byte_stable_output(tmp_path, capsys):
    args = ["coherence", "--dims-matrix", "2,2,2", "--seed", "4", "--pairs", "2",
            "--quiet"]
    _, first = run(args, capsys)
    _, second = run(args, capsys)
    assert first == second


GOLDEN = Path(__file__).parent / "data"


@pytest.mark.parametrize("name,args", [
    ("golden_coherence.json",
     ["coherence", "--dims-matrix", "2,2,2", "--seed", "4", "--pairs", "2",
      "--quiet"]),
    ("golden_swap.json",
     ["protocol", "swap", "--i", "1", "--j", "2", "--s", "-", "--k", "1",
      "--l", "1", "--t", "+", "--quiet"]),
    ("golden_spans.json", ["verify-dims", "--triples", "2,2,2", "--quiet"]),
    # unequal dims, so that the moves carrying the tripartite families onto
    # ((AB)C) permute leaves of different dimensions; and the bipartite
    # reports, in both modes
    ("golden_spans_unequal_bct.json",
     ["verify-dims", "--triples", "2,3,4;3,2,2", "--mode", "bct", "--quiet"]),
    ("golden_spans_unequal_ct.json",
     ["verify-dims", "--triples", "2,3,4;3,2,2", "--mode", "ct", "--quiet"]),
    ("golden_tomography_bct.json",
     ["tomography", "--pairs", "2,2;2,3;3,2", "--mode", "bct", "--quiet"]),
    ("golden_tomography_ct.json",
     ["tomography", "--pairs", "2,2;2,3;3,2", "--mode", "ct", "--quiet"]),
    # a 3-branch 2 -> 3 instrument in BCT (A' has 144 labels) and a
    # 2-branch 2 -> 2 instrument in CT, each read from the document beside it
    ("golden_dilate_bct.json",
     ["dilate", str(GOLDEN / "dilate_bct_instrument.json"), "--quiet"]),
    ("golden_dilate_ct.json",
     ["dilate", str(GOLDEN / "dilate_ct_instrument.json"), "--quiet"]),
    # the pair marginals of a moved tripartite state, in both modes
    ("golden_monogamy_bct.json", ["protocol", "monogamy", "--mode", "bct", "--quiet"]),
    ("golden_monogamy_ct.json", ["protocol", "monogamy", "--mode", "ct", "--quiet"]),
    # a mixed state on (2*2) in BCT and on (2*3) in CT, each read from the
    # document beside it, against its clone's expected products
    ("golden_clone_bct.json",
     ["protocol", "clone", "--state", str(GOLDEN / "clone_bct_state.json"), "--quiet"]),
    ("golden_clone_ct.json",
     ["protocol", "clone", "--state", str(GOLDEN / "clone_ct_state.json"), "--quiet"]),
    # the encodings applied at "0", the basis enumerations and the kernels
    # built from label rows, in both modes
    ("golden_dense_coding_bct.json",
     ["protocol", "dense-coding", "--mode", "bct", "--quiet"]),
    ("golden_dense_coding_ct.json",
     ["protocol", "dense-coding", "--mode", "ct", "--quiet"]),
    ("golden_capacity_bct.json",
     ["protocol", "capacity", "--n", "3", "--mode", "bct", "--quiet"]),
    ("golden_capacity_ct.json",
     ["protocol", "capacity", "--n", "3", "--mode", "ct", "--quiet"]),
    ("golden_hypersignal_bct.json",
     ["protocol", "hypersignal", "--dims", "3,2", "--mode", "bct", "--quiet"]),
    ("golden_hypersignal_ct.json",
     ["protocol", "hypersignal", "--dims", "3,2", "--mode", "ct", "--quiet"]),
    # a faulted CT run, which fails its checks (exit 1): the faulted braid
    # writes a - sign, which no CT label carries
    ("golden_coherence_ct_braid_sign.json",
     ["coherence", "--mode", "CT", "--fault", "braid-sign", "--pairs", "5", "--quiet"]),
])
def test_reports_match_golden_bytes(name, args, capsys):
    code, out = run(args, capsys)
    assert code == (1 if "--fault" in args else 0)
    assert out == (GOLDEN / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("system, label", [
    ("2", "(" * 2000 + "1" + " 1)+" * 2000),
    ("(" * 2000 + "2" + "*2)" * 2000, "1"),
], ids=["deep-label", "deep-system"])
def test_deep_nesting_is_usage_error(tmp_path, capsys, system, label):
    src = tmp_path / "state.json"
    src.write_text(json.dumps({"system": system, "coeffs": {label: "1"}}))
    assert main(["protocol", "clone", "--state", str(src), "--quiet"]) == 2


@pytest.mark.parametrize("system, weight, code", [
    ("(2*0)", "1/2", "E_SYSTEM_SYNTAX"), ("9" * 5000, "1/2", "E_SYSTEM_SYNTAX"),
    ("2", "0.5", "E_RATIONAL"), ("2", "5e-1", "E_RATIONAL"),
], ids=["dimension-0", "long-dimension", "decimal", "exponent"])
def test_state_document_fields_outside_the_grammar(tmp_path, capsys, system, weight, code):
    """A dimension below 2 or past the int digit limit, and a rational that is
    not p/q, are parse errors of the document: exit 2 with their code."""
    src = tmp_path / "state.json"
    src.write_text(json.dumps({"system": system, "coeffs": {"1": weight, "2": "1/2"}}))
    assert main(["protocol", "clone", "--state", str(src), "--quiet"]) == 2
    assert capsys.readouterr().err.startswith(f"error {code}: ")


def test_tomography_builds_each_product_once(monkeypatch, capsys):
    products = []
    real = bct.tomography._products

    def counted(*args):
        rows = real(*args)
        products.extend(rows)
        return rows

    monkeypatch.setattr(bct.tomography, "_products", counted)
    code, out = run(["tomography", "--pairs", "3,3", "--quiet"], capsys)
    assert code == 0
    assert len(products) == 9
    assert out == (
        '[\n  {\n    "corollary_nab": true,\n    "d_ab": 18,\n    "delta2": 9,\n'
        '    "dims": [\n      3,\n      3\n    ],\n    "mode": "BCT",\n'
        '    "strict_bilocality": true\n  }\n]\n')


def test_verify_dims_checks_every_bound_before_building_a_family(monkeypatch, capsys):
    """(AB) of 99,99,99 is over the bound: refused before the 970 299
    triple products are built, and before anything of the size of
    ((AB)C) (3 881 196) is allocated, with the message of the first check."""
    main(["verify-dims", "--triples", "2,2,2", "--quiet"])  # the parser, built once
    capsys.readouterr()
    built = []
    monkeypatch.setattr(bct.tomography, "_products", lambda *args: built.append(args))
    tracemalloc.start()
    try:
        code = main(["verify-dims", "--triples", "99,99,99", "--quiet"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "dimension 19602 exceeds enumeration bound 4096" in captured.err
    assert built == [] and peak < 2 ** 20


@pytest.mark.parametrize("pairs, dim", [("512,512", 524288), ("5000,2", 5000),
                                       ("2,5000", 5000)])
def test_tomography_checks_every_bound_before_building_the_products(
        monkeypatch, capsys, pairs, dim):
    """A (x) B of 512,512 is over the bound: refused before its 262 144
    products are built, with the message of the first check."""
    built = []

    def refused(*args):
        built.append(args)
        raise AssertionError("products built")

    monkeypatch.setattr(bct.tomography, "_products", refused)
    assert main(["tomography", "--pairs", pairs, "--quiet"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"dimension {dim} exceeds enumeration bound 4096" in captured.err
    assert built == []


@pytest.mark.parametrize("args, code", [
    (["verify-dims", "--triples", "8,8,16"], 0),
    (["verify-dims", "--triples", "16,16,16"], 2),
    (["tomography", "--pairs", "64,64"], 2),
])
def test_largest_tomography_inputs_keep_their_exit_codes(capsys, args, code):
    """((AB)C) of 8,8,16 has 4 096 labels, the default bound; of 16,16,16,
    16 384, refused although each of its parts is under the bound."""
    assert main([*args, "--quiet"]) == code


def test_verify_dims_refuses_a_composite_over_the_bound(monkeypatch, capsys):
    """Under a bound of 100, 5,5,5 passes every check on its parts (AB has
    50 labels) and its ((AB)C) of 500 is refused before a family is built."""
    built = []
    monkeypatch.setattr(bct.tomography, "_products", lambda *args: built.append(args))
    monkeypatch.setenv("BCT_MAX_DIM", "100")
    assert main(["verify-dims", "--triples", "5,5,5", "--quiet"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: dimension 500 exceeds enumeration bound 100\n"
    assert built == []


@pytest.mark.parametrize("field, value", [
    ("system", 7), ("mode", 7), ("coeffs", ["1"]),
], ids=["system-int", "mode-int", "coeffs-list"])
def test_mistyped_state_field_is_usage_error(tmp_path, capsys, field, value):
    src = tmp_path / "state.json"
    src.write_text(json.dumps({"system": "2", "coeffs": {"1": "1"}, field: value}))
    assert main(["protocol", "clone", "--state", str(src), "--quiet"]) == 2
    assert "E_SCHEMA" in capsys.readouterr().err


@pytest.mark.parametrize("pairs", ["0", "-1"])
def test_coherence_refuses_zero_trials(capsys, pairs):
    assert main(["coherence", "--dims-matrix", "2,2,2", "--pairs", pairs,
                 "--quiet"]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("matrix", ["2", "", ";", "2,2,2;2,2"])
def test_coherence_refuses_a_dims_matrix_no_check_uses(capsys, matrix):
    assert main(["coherence", "--dims-matrix", matrix, "--pairs", "1",
                 "--quiet"]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("triples", ["", ";", "2,2", "2,2,2;2,2,2,2"])
def test_verify_dims_refuses_triples_that_run_no_check(capsys, triples):
    assert main(["verify-dims", "--triples", triples, "--quiet"]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("pairs", ["", ";", "2", "2,2;2,2,2"])
def test_tomography_refuses_pairs_that_run_no_check(capsys, pairs):
    assert main(["tomography", "--pairs", pairs, "--quiet"]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("dims", ["", "2", "2,2,2", "2,2;3,3"])
def test_hypersignal_refuses_dims_that_are_not_one_pair(capsys, dims):
    assert main(["protocol", "hypersignal", "--dims", dims, "--quiet"]) == 2
    assert capsys.readouterr().out == ""


def test_hypersignal_says_it_takes_one_pair(capsys):
    assert main(["protocol", "hypersignal", "--dims", "2,2;3,3", "--quiet"]) == 2
    assert capsys.readouterr().err == (
        "error E_SCHEMA: hypersignal takes one pair of dims, got '2,2;3,3'\n")


@pytest.mark.parametrize(("code", "doc"), [
    ("E_RATIONAL", {"mode": "BCT", "system": "2", "coeffs": {"1": "x"}}),
    ("E_LABEL_SYNTAX", {"mode": "BCT", "system": "2", "coeffs": {"(1": "1"}}),
    ("E_LABEL_RANGE", {"mode": "BCT", "system": "2", "coeffs": {"3": "1"}}),
    ("E_SYSTEM_SYNTAX", {"mode": "BCT", "system": "(2", "coeffs": {"1": "1"}}),
    ("E_MODE", {"mode": "XX", "system": "2", "coeffs": {"1": "1"}}),
    ("E_SCHEMA", {"mode": "BCT", "system": "2", "coeffs": {"1": "3/2"}}),
])
def test_a_parse_refusal_names_its_code_once(tmp_path, capsys, code, doc):
    src = tmp_path / "state.json"
    src.write_text(json.dumps(doc))
    assert main(["protocol", "clone", "--state", str(src), "--quiet"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error {code}: ") and captured.err.count(code) == 1


DIGITS = "9" * 4000


@pytest.mark.parametrize("argv, message", [
    (["protocol", "swap", "--s", "x" * 5000], f"bad sign '{'x' * 80}'..."),
    (["protocol", "swap", "--i", DIGITS], f"index {DIGITS[:80]}... out of range for a bibit"),
    (["coherence", "--dims-matrix", f"2,2,{DIGITS}"],
     f"dimension {str(16 * int(DIGITS))[:80]}... exceeds enumeration bound 4096"),
    (["coherence", "--dims-matrix", f"2,2,-{DIGITS}"],
     f"elementary systems need dim >= 2, got -{DIGITS[:79]}..."),
    # the comb (2 D) D has dimension 8 D^2 = 8 * 10^8000 - 16 * 10^4000 + 8,
    # 8001 digits, past the 4300 that `str` writes: a 7, then nines
    (["coherence", "--dims-matrix", f"2,{DIGITS},{DIGITS}"],
     f"dimension 7{'9' * 79}... exceeds enumeration bound 4096"),
], ids=["sign", "index", "dimension", "elementary-dim", "dimension-past-the-digit-limit"])
def test_a_long_value_is_echoed_cut(capsys, argv, message):
    """A value the command line gives whole is echoed as `serial.shown`
    cuts it: its first 80 characters, then "..."."""
    assert main([*argv, "--quiet"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


@pytest.mark.parametrize("value", [
    0, 7, 10 ** 79, 10 ** 80 - 1, 10 ** 80, 3 ** 167, 2 ** 320, 2 ** 321, 10 ** 96, 10 ** 97,
    int("1234567890" * 400),
])
@pytest.mark.parametrize("sign", [1, -1])
def test_shown_echoes_an_int_as_its_repr_cut(value, sign):
    """An int is echoed as the first 80 characters of its repr, then "..."
    if cut, whichever way `shown` reaches its digits."""
    text = repr(sign * value)
    assert shown(sign * value) == text[:80] + ("..." if len(text) > 80 else "")


@pytest.mark.parametrize("value, echo", [
    (10 ** 5000, "1" + "0" * 79),
    (-(10 ** 5000 - 1), "-" + "9" * 79),
    (int("1234567890" * 400) * 10 ** 3000, "1234567890" * 8),
    (2 * (10 ** 4000 - 1) ** 2, "1" + "9" * 79),
], ids=["power-of-ten", "negative-nines", "digits-then-zeros", "bct-composite"])
def test_shown_echoes_an_int_past_the_digit_limit(value, echo):
    """An int too long for `str` to write whole is echoed all the same, as
    a shorter one is: its first 80 characters, then "..."."""
    assert shown(value) == echo + "..."


@pytest.mark.parametrize("argv", [
    ["tomography", "--pairs", f"2,{'x' * 5000}"],
    ["verify-dims", "--triples", f"2,2,{'9' * 5000}"],
], ids=["not-an-int", "past-the-digit-limit"])
def test_a_dimension_int_refuses_is_echoed_cut(capsys, argv):
    """A dimension `int` refuses is a schema error that echoes it as
    `serial.shown` cuts it, whether `int` would have echoed 200 characters
    of it or refused it by its digit limit."""
    assert main([*argv, "--quiet"]) == 2
    captured = capsys.readouterr()
    [line] = captured.err.splitlines()
    assert captured.out == ""
    assert line.startswith("error E_SCHEMA: bad dim '") and line.endswith("'...")
    assert len(line) <= 120 and "set_int_max_str_digits" not in line


@pytest.mark.parametrize("value", ["abc", "x" * 5000, "9" * 5000, "0", "-3"],
                         ids=["word", "long-word", "past-the-digit-limit", "zero", "negative"])
def test_a_bad_max_dim_is_refused_by_name(monkeypatch, capsys, value):
    """A `BCT_MAX_DIM` that is not a positive int exits 2 with one line that
    names the variable and echoes the value as `shown` cuts it, never with
    the text of `int` (which would echo 200 characters of a word, or name
    `sys.set_int_max_str_digits` for a number past the digit limit)."""
    monkeypatch.setenv("BCT_MAX_DIM", value)
    assert main(["verify-dims", "--triples", "2,2,2", "--quiet"]) == 2
    captured = capsys.readouterr()
    [line] = captured.err.splitlines()
    assert captured.out == ""
    assert line == f"error: BCT_MAX_DIM must be a positive integer, got {shown(value)}"
    # the message (44 characters) and an echo cut to 80 characters and "..."
    assert len(line) <= 140 and "set_int_max_str_digits" not in line


def count_parses(monkeypatch):
    """The `parse_known_args` calls made on the shared parser, by argv."""
    parser, calls = bct.cli.build_parser(), []
    real = parser.parse_known_args
    monkeypatch.setattr(parser, "parse_known_args",
                        lambda argv=None, namespace=None: calls.append(list(argv))
                        or real(argv, namespace))
    return calls


@pytest.mark.parametrize("config, flags, parses", [
    (None, ["--pairs", "2"], 1),
    ("pairs=2\n", ["--pairs", "2"], 1),
    ("pairs=2\n", [], 2),
], ids=["no-config", "config-already-given", "config-adds-a-flag"])
def test_a_command_line_is_parsed_once_unless_the_config_adds_flags(
        tmp_path, monkeypatch, capsys, config, flags, parses):
    """A second parse is made only for the flags a config adds, after argv."""
    path = tmp_path / "bct.cfg"
    path.write_text(config or "")
    given = [] if config is None else ["--config", str(path)]
    calls = count_parses(monkeypatch)
    assert main([*given, "coherence", "--dims-matrix", "2,2,2", "--quiet", *flags]) == 0
    assert len(calls) == parses
    assert calls[-1][-2:] == ["--pairs", "2"]


def test_an_unrecognized_flag_is_refused_as_parse_args_refuses_it(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    calls = count_parses(monkeypatch)
    assert main(["tomography", "--pairs", "2,2", "--bogus"]) == 2
    captured = capsys.readouterr()
    assert len(calls) == 1
    assert (captured.out, captured.err) == ("", (
        "usage: bct [-h] [--config CONFIG]\n"
        "           {coherence,verify-dims,tomography,dilate,protocol,schema} ...\n"
        "bct: error: unrecognized arguments: --bogus\n"))


def test_an_exception_without_a_rule_is_an_internal_error(monkeypatch, capsys):
    """Exit 1 means a failed check, so a crash exits 2 and says what it was."""
    def crash(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(bct.cli, "cmd_schema", crash)
    assert main(["schema", "--quiet"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "internal error: RuntimeError: boom" in captured.err


def assert_check_failed(argv, out_path, capsys):
    """Exit 1, the report written all the same, and no crash behind it."""
    assert main([*argv, "--quiet", "--out", str(out_path)]) == 1
    assert "internal error" not in capsys.readouterr().err
    return json.loads(out_path.read_text())


def test_verify_dims_exits_one_when_delta3_is_not_zero(tmp_path, monkeypatch, capsys):
    real = bct.cli.span_report
    monkeypatch.setattr(bct.cli, "span_report",
                        lambda *systems: {**real(*systems), "delta3": 1})
    reports = assert_check_failed(["verify-dims", "--triples", "2,2,2"],
                                  tmp_path / "spans.json", capsys)
    assert [r["delta3"] for r in reports] == [1]


def _shared_column(rows):
    return rows + rows[:1]


def _four_entries(rows):
    return [{**rows[0], **rows[1]}, *rows[2:]]


def _an_entry_of_two(rows):
    return [{col: 2 for col in rows[0]}, *rows[1:]]


def _an_empty_row(rows):
    return [{}, *rows[1:]]


@pytest.mark.parametrize("name, spoil, fault", [
    ("a_bc", _shared_column, "row 16 shares column 1 with an earlier row"),
    ("ac_b", _four_entries, "row 0 has 4 entries, not 1 or 2"),
    ("ab_c", _an_entry_of_two, "row 0 has entry 2 at column 0, not 1 in range(32)"),
    ("products", _an_empty_row, "row 0 is empty"),
], ids=["shared-column", "four-entries", "entry-of-two", "empty-row"])
def test_verify_dims_refuses_a_family_of_another_structure(monkeypatch, capsys,
                                                           name, spoil, fault):
    """A family the structural ranks do not hold for is a crash, exit 2 and
    never a failed check, and is not ranked by elimination instead."""
    real = bct.tomography._tripartite_families
    monkeypatch.setattr(bct.tomography, "_tripartite_families", lambda *systems: (
        (each, spoil(rows) if each == name else rows) for each, rows in real(*systems)))
    monkeypatch.setattr(bct.tomography, "_echelon", None)
    assert main(["verify-dims", "--triples", "2,2,2", "--quiet"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"internal error: AssertionError: family {name!r}: {fault}\n"


def test_tomography_exits_one_when_strict_bilocality_fails(tmp_path, monkeypatch, capsys):
    real = bct.cli.pair_report
    monkeypatch.setattr(bct.cli, "pair_report",
                        lambda a, b: {**real(a, b), "strict_bilocality": False})
    reports = assert_check_failed(["tomography", "--pairs", "2,2"],
                                  tmp_path / "tomography.json", capsys)
    assert [r["strict_bilocality"] for r in reports] == [False]


def test_dilate_exits_one_when_not_verified(tmp_path, monkeypatch, capsys):
    real = bct.cli.realize_instrument
    monkeypatch.setattr(bct.cli, "realize_instrument",
                        lambda inst: dataclasses.replace(real(inst), verified=False))
    inst = random_instrument(random.Random(9), bibit(), bibit(), branches=2)
    src = tmp_path / "instrument.json"
    src.write_text(dumps(instrument_to_json(inst)))
    doc = assert_check_failed(["dilate", str(src)], tmp_path / "dilation.json", capsys)
    assert doc["verified"] is False


def test_dilate_refuses_repeated_outcomes(tmp_path, capsys):
    doc = json.loads((GOLDEN / "dilate_ct_instrument.json").read_text())
    doc["outcomes"] = [0, 0]
    src = tmp_path / "instrument.json"
    src.write_text(json.dumps(doc))
    assert main(["dilate", str(src), "--quiet"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "error E_SCHEMA: outcome labels must be distinct\n")


def test_protocol_exits_one_when_it_does_not_succeed(tmp_path, monkeypatch, capsys):
    real = bct.cli.dense_coding
    monkeypatch.setattr(bct.cli, "dense_coding",
                        lambda mode: dataclasses.replace(real(mode), success=False))
    doc = assert_check_failed(["protocol", "dense-coding"], tmp_path / "protocol.json",
                              capsys)
    assert doc["success"] is False
