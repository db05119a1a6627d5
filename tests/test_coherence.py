import itertools
import json
import random
import threading
from fractions import Fraction

import pytest

import bct.coherence
from bct.cli import main
from bct.coherence import (
    CheckReport,
    SuiteConfig,
    check_bifunctoriality,
    check_hexagon,
    check_pentagon,
    check_probabilistic_compatibility,
    check_sliding,
    run_suite,
)
from bct.faults import (
    ASSOC_SIGN,
    BRAID_SIGN,
    PARALLEL_DROP_TAU,
    active_fault,
    inject_fault,
)
from bct.kernels import (
    coarse_grain,
    extend_at,
    kernels_equal,
    random_kernel,
    validate_instrument,
)
from bct.labels import coder, label_of, label_to_str
from bct.states import GeneralizedVector, lowest_terms
from bct.systems import TheoryMode, bibit, compose_systems, dimension, left_comb


@pytest.mark.parametrize("dims", list(itertools.product((2, 3), repeat=4)))
def test_pentagon_all_small_tuples(dims):
    report = check_pentagon(dims)
    assert report.passed
    assert report.params["labels_checked"] == dimension(left_comb(list(dims)))


@pytest.mark.parametrize("dims", list(itertools.product((2, 3), repeat=3)))
def test_hexagon_all_small_tuples(dims):
    assert check_hexagon(dims).passed


def test_pentagon_counts_labels():
    report = check_pentagon((2, 2, 2, 2))
    assert report.params["labels_checked"] == 128


def test_sliding_and_bifunctoriality_seeded():
    assert check_sliding(7, pairs=25).passed
    assert check_bifunctoriality(7, pairs=25).passed


def test_probabilistic_compatibility():
    assert check_probabilistic_compatibility(0).passed
    assert check_probabilistic_compatibility(1, dims=(2, 3)).passed


def test_suite_default_passes():
    reports = run_suite(SuiteConfig(kernel_pairs=5))
    assert reports and all(r.passed for r in reports)


def test_suite_ct_mode_passes():
    reports = run_suite(SuiteConfig(mode=TheoryMode.CT, kernel_pairs=5))
    assert reports and all(r.passed for r in reports)


@pytest.mark.parametrize("fault", [ASSOC_SIGN, BRAID_SIGN, PARALLEL_DROP_TAU])
def test_each_fault_fails_at_least_one_check(fault):
    reports = run_suite(SuiteConfig(fault=fault, kernel_pairs=5))
    failed = [r for r in reports if not r.passed]
    assert failed, f"fault {fault} went undetected"
    for report in failed:
        assert report.counterexample is not None


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fault_reach(seed):
    """Each fault alters one code path and fails only the checks built on it."""
    def failures(fault):
        reports = run_suite(SuiteConfig(fault=fault, seed=seed, kernel_pairs=5))
        return reports, [r for r in reports if not r.passed]

    # the dropped tau reaches parallel_compose's left factor, not extend_at
    _, failed = failures(PARALLEL_DROP_TAU)
    assert [(r.name, r.counterexample) for r in failed] == [("sliding", {"trial": 0})]
    # the label-level sign faults stay out of kernel composition
    for fault in (ASSOC_SIGN, BRAID_SIGN):
        reports, failed = failures(fault)
        assert {r.name for r in failed} == {"hexagon"}
        if seed == 0:
            assert (len(failed), len(reports)) == (8, 27)


def test_parallel_fault_leaves_extend_at_alone():
    rng = random.Random(0)
    system = compose_systems(bibit(), bibit())
    for _ in range(5):
        k = random_kernel(rng, bibit(), bibit())
        plain = extend_at(k, system, "0")
        with inject_fault(PARALLEL_DROP_TAU):
            assert kernels_equal(extend_at(k, system, "0"), plain)


def test_fault_counterexamples_replay():
    reports = run_suite(SuiteConfig(fault=BRAID_SIGN, kernel_pairs=5))
    failing = next(r for r in reports if not r.passed and r.name == "hexagon")
    # the same check passes without the fault and fails with it, replayably
    dims = tuple(failing.params["dims"])
    assert check_hexagon(dims).passed
    with inject_fault(BRAID_SIGN):
        again = check_hexagon(dims)
    assert not again.passed
    assert again.counterexample == failing.counterexample


def test_reports_deterministic():
    one = run_suite(SuiteConfig(seed=3, kernel_pairs=5))
    two = run_suite(SuiteConfig(seed=3, kernel_pairs=5))
    assert [r.to_json() for r in one] == [r.to_json() for r in two]


def test_fault_context_restores_cleanly():
    assert active_fault() is None
    with pytest.raises(RuntimeError):
        with inject_fault(BRAID_SIGN):
            assert active_fault() == BRAID_SIGN
            raise RuntimeError("boom")
    assert active_fault() is None
    with pytest.raises(ValueError):
        with inject_fault("no-such-fault"):
            pass


def test_fault_is_scoped_to_its_context():
    seen = []
    with inject_fault(BRAID_SIGN):
        thread = threading.Thread(target=lambda: seen.append(active_fault()))
        thread.start()
        thread.join(timeout=10)
        assert active_fault() == BRAID_SIGN
    assert not thread.is_alive()
    assert seen == [None]


def _report_bytes(report):
    # no sort_keys: the key order of params is part of the report
    return json.dumps(report.to_json())


def test_failing_path_reports(monkeypatch):
    monkeypatch.setattr(bct.coherence, "moves_raw",
                        lambda moves: lambda raws: (raws, [len(moves)] * len(raws)))
    assert _report_bytes(check_pentagon((2, 2, 2, 2))) == (
        '{"name": "pentagon", "params": {"dims": [2, 2, 2, 2], "mode": "BCT"}, '
        '"passed": false, "counterexample": {"label": "(((1 1)- 1)- 1)-", '
        '"path1": "(((1 1)- 1)- 1)-", "path2": "(((1 1)- 1)- 1)-"}}')
    assert _report_bytes(check_hexagon((2, 2, 2))) == (
        '{"name": "hexagon", "params": {"dims": [2, 2, 2], "mode": "BCT"}, '
        '"passed": false, "counterexample": {"label": "((1 1)- 1)-", '
        '"one_step": "((1 1)- 1)-", "two_step": "((1 1)- 1)-"}}')


def _second_path_differs_at(monkeypatch, target, moved, flip):
    """`coherence.moves_raw` patched so that both pentagon paths leave each
    raw label as it is with flip +, except that the second (three moves)
    sends `target` to `moved` with `flip`."""
    def moves_raw(moves):
        def run(raws):
            if len(moves) != 3:
                return list(raws), [1] * len(raws)
            return ([moved if raw == target else raw for raw in raws],
                    [flip if raw == target else 1 for raw in raws])
        return run
    monkeypatch.setattr(bct.coherence, "moves_raw", moves_raw)
    return moves_raw


def _scanned_report(dims, moves_raw):
    """The pentagon report of a scan that runs both patched paths on one
    label at a time, by index."""
    system = left_comb(dims)
    code = coder(system)
    params = {"dims": list(dims), "mode": "BCT"}
    one_of, two_of = moves_raw([None] * 2), moves_raw([None] * 3)
    for index in range(dimension(system)):
        raw = code.raw(index)
        one, two = one_of([raw]), two_of([raw])
        if one != two:
            return CheckReport("pentagon", params, False, {
                "label": label_to_str(label_of(raw)),
                "path1": label_to_str(label_of(one[0][0])),
                "path2": label_to_str(label_of(two[0][0]))})
    return CheckReport("pentagon", {**params, "labels_checked": dimension(system)}, True)


@pytest.mark.parametrize("index", [127, 128, 300, 647])
def test_the_first_counterexample_past_the_first_block(monkeypatch, index):
    """Paths that differ at one label only, in the first block or past it,
    report that label, with the bytes a label-at-a-time scan gives."""
    dims = (3, 3, 3, 3)
    code = coder(left_comb(dims))
    target = code.raw(index)
    patched = _second_path_differs_at(monkeypatch, target, code.raw(0), 1)
    report = check_pentagon(dims)
    assert not report.passed
    assert report.counterexample["label"] == label_to_str(code.label(index))
    assert _report_bytes(report) == _report_bytes(_scanned_report(dims, patched))


@pytest.mark.parametrize("index", [0, 5, 200])
def test_paths_that_differ_in_one_flip_fail(monkeypatch, index):
    """Two paths that agree on every raw label and differ in the flip of
    one fail at that label."""
    dims = (3, 3, 3, 3)
    code = coder(left_comb(dims))
    target = code.raw(index)
    patched = _second_path_differs_at(monkeypatch, target, target, -1)
    report = check_pentagon(dims)
    text = label_to_str(code.label(index))
    assert report.counterexample == {"label": text, "path1": text, "path2": text}
    assert _report_bytes(report) == _report_bytes(_scanned_report(dims, patched))


def test_failing_law_reports(monkeypatch):
    monkeypatch.setattr(bct.coherence, "kernels_equal", lambda k1, k2: False)
    assert _report_bytes(check_sliding(0, pairs=3)) == (
        '{"name": "sliding", "params": {"dims": [2, 2, 2, 2], "seed": 0, '
        '"mode": "BCT"}, "passed": false, "counterexample": {"trial": 0}}')
    assert _report_bytes(check_bifunctoriality(0, pairs=3)) == (
        '{"name": "bifunctoriality", "params": {"dims": [2, 2], "seed": 0, '
        '"mode": "BCT"}, "passed": false, "counterexample": {"trial": 0}}')


def _negated_apply(monkeypatch):
    """`coherence.apply` with its output negated, of the type apply returns."""
    real = bct.coherence.apply

    def negated(*args, **kwargs):
        out = real(*args, **kwargs)
        return type(out)(out.system, {label: -v for label, v in out.coeffs.items()})

    monkeypatch.setattr(bct.coherence, "apply", negated)


def test_negative_extension_outputs_fail_positivity(monkeypatch):
    _negated_apply(monkeypatch)
    assert _report_bytes(check_probabilistic_compatibility(0)) == (
        '{"name": "probabilistic", "params": {"dims": [2, 2], "seed": 0, '
        '"mode": "BCT"}, "passed": false, '
        '"counterexample": {"stage": "extension-positivity"}}')


def _failing_call(n):
    """`validate_instrument`, except that its `n`th call is False."""
    calls = itertools.count(1)
    return lambda inst: next(calls) != n and validate_instrument(inst)


IMAGE = bct.coherence._image


def _halved_image(kernel, rho):
    """`coherence._image` at half weight: still positive, and still additive."""
    out = IMAGE(kernel, rho)
    return GeneralizedVector._trusted(out.system, *lowest_terms(out.nums, 2 * out.den))


# stage -> (the name patched in `coherence`, a maker of its replacement)
STAGE_FAULTS = {
    "separation": ("pair", lambda: lambda effect, rho: Fraction(0)),
    "scalars": ("kernels_equal", lambda: lambda k1, k2: False),
    "trivial-instrument": ("validate_instrument", lambda: _failing_call(1)),
    "null": ("validate_instrument", lambda: _failing_call(2)),
    "coarse": ("validate_instrument", lambda: _failing_call(3)),
    # a valid instrument, merged as [[0, 1], [2]] where [[0, 2], [1]] was asked
    "coarse-additivity": ("coarse_grain",
                          lambda: lambda inst, partition: coarse_grain(inst, [[0, 1], [2]])),
    "extension-normalization": ("_image", lambda: _halved_image),
}


@pytest.mark.parametrize("stage", STAGE_FAULTS)
def test_each_probabilistic_stage_reports_its_failure(monkeypatch, stage):
    """Each stage of the probabilistic check, made to fail by patching the
    layer below it, is the stage the report names."""
    name, replacement = STAGE_FAULTS[stage]
    monkeypatch.setattr(bct.coherence, name, replacement())
    assert _report_bytes(check_probabilistic_compatibility(0)) == (
        '{"name": "probabilistic", "params": {"dims": [2, 2], "seed": 0, '
        '"mode": "BCT"}, "passed": false, '
        f'"counterexample": {{"stage": "{stage}"}}}}')


def test_positivity_failure_exits_one(monkeypatch, tmp_path, capsys):
    _negated_apply(monkeypatch)
    out = tmp_path / "report.json"
    assert main(["coherence", "--dims-matrix", "2,2,2", "--pairs", "1", "--quiet",
                 "--out", str(out)]) == 1
    failing = [r for r in json.loads(out.read_text())["reports"] if not r["passed"]]
    assert [(r["name"], r["counterexample"]) for r in failing] == [
        ("probabilistic", {"stage": "extension-positivity"})]
