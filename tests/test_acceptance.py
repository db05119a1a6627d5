"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines; every
tolerance is exact (rational equality) and the stated wall-clock budgets are
asserted where the criterion carries one.
"""

import itertools
import random
import sys
import time
from fractions import Fraction

from bct.coherence import SuiteConfig, run_suite
from bct.dilation import (
    build_processor,
    decompose_channel,
    realize_instrument,
)
from bct.faults import KNOWN_FAULTS
from bct.kernels import (
    Kernel,
    add_kernels,
    apply,
    conditional_compose,
    extend_at,
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
    sequential_compose,
    validate_instrument,
)
from bct.labels import LeafLabel, enumerate_pure_labels
from bct.protocols import dense_coding, entanglement_swapping, monogamy_demo
from bct.states import (
    StateVector,
    is_separable,
    pure_state,
    tensor_states,
    unit_effect,
)
from bct.systems import (
    TheoryMode,
    bibit,
    compose_systems,
    dimension,
    leaf,
    left_comb,
)
from bct.tomography import pair_report, span_report

from kernel_helpers import function_channel, random_deterministic_kernel, scaled

F = Fraction


def report(number: int, title: str, passed: bool, elapsed: float, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    extra = f" [{detail}]" if detail else ""
    print(f"[AC{number:02d}] {status} {title} ({elapsed:.2f}s){extra}",
          file=sys.stderr)
    assert passed, f"criterion {number} failed: {title}"


def test_ac01_dimension_rule():
    start = time.time()
    values = [dimension(left_comb([2] * n)) for n in range(1, 7)]
    expected = [2 ** (2 * n - 1) for n in range(1, 7)]
    elapsed = time.time() - start
    report(1, "n-fold bibit dimension equals 2^(2n-1) for n=1..6",
           values == expected == [2, 8, 32, 128, 512, 2048] and elapsed < 1.0,
           elapsed, f"dims={values}")


def test_ac02_delta3_vanishes_on_all_small_triples():
    start = time.time()
    ok = True
    for dims in itertools.product((2, 3), repeat=3):
        rep = span_report(*(leaf(d) for d in dims))
        ok &= rep["class_ranks"]["union"] == rep["d_composite"]
        ok &= rep["delta3"] == 0 and rep["bilocal_identity_holds"]
    elapsed = time.time() - start
    report(2, "delta3 = 0 and the bilocal identity balances on {2,3}^3",
           ok and elapsed < 60.0, elapsed)


def test_ac03_strict_bilocality():
    start = time.time()
    ok = True
    for da, db in itertools.product((2, 3, 4), repeat=2):
        a, b = leaf(da), leaf(db)
        ab = compose_systems(a, b)
        ok &= dimension(ab) - da * db > 0
        ok &= pair_report(a, b)["strict_bilocality"]
    elapsed = time.time() - start
    report(3, "delta2 > 0 while bipartite effects span the dual", ok, elapsed)


def test_ac04_coherence_suite_and_fault_power():
    start = time.time()
    reports = run_suite(SuiteConfig(seed=0, kernel_pairs=100))
    ok = all(r.passed for r in reports)
    pentagon_count = sum(r.name == "pentagon" for r in reports)
    hexagon_count = sum(r.name == "hexagon" for r in reports)
    ok &= pentagon_count == 16 and hexagon_count == 8
    detected = 0
    for fault in KNOWN_FAULTS:
        faulted = run_suite(SuiteConfig(seed=0, fault=fault, kernel_pairs=5))
        detected += any(not r.passed for r in faulted)
    ok &= detected == len(KNOWN_FAULTS)
    elapsed = time.time() - start
    report(4, "coherence suite passes; every documented fault is detected",
           ok and elapsed < 120.0, elapsed,
           f"checks={len(reports)}, faults_detected={detected}/3")


def test_ac05_dense_coding():
    start = time.time()
    bct_report = dense_coding()
    ok = bct_report.success and len(bct_report.outcomes) == 8
    ok &= all(r["probability"] == "1" and r["decoded"] == r["message"]
              for r in bct_report.outcomes)
    ct_report = dense_coding(TheoryMode.CT)
    ok &= ct_report.success
    ok &= sum(r["distinguishable"] for r in ct_report.outcomes) == 2
    elapsed = time.time() - start
    report(5, "dense coding: 4 messages at probability 1; CT control carries 2",
           ok, elapsed)


def test_ac06_entanglement_swapping_all_64():
    start = time.time()
    ok = True
    for i, j, s, k, l, t in itertools.product((1, 2), (1, 2), "-+",
                                              (1, 2), (1, 2), "-+"):
        rep = entanglement_swapping(i, j, s, k, l, t)
        ok &= rep.success
        ok &= sorted(r["probability"] for r in rep.outcomes) == ["1/2", "1/2"]
        sv = -1 if s == "-" else 1
        tv = -1 if t == "-" else 1
        for row in rep.outcomes:
            r = -1 if row["outcome"][2] == "-" else 1
            expected_sign = "+" if r * sv * tv == 1 else "-"
            ok &= row["ad_state"] == f"({i} {l}){expected_sign}"
    elapsed = time.time() - start
    report(6, "entanglement swapping matches (il)_{r s t} on all 64 inputs",
           ok, elapsed)


def test_ac07_dilation_round_trip_200_instruments():
    start = time.time()
    rng = random.Random(2026)
    processors = {}
    ok = True
    for _ in range(200):
        da, db = rng.choice([(2, 2), (2, 3), (3, 2), (3, 3)])
        key = (da, db)
        if key not in processors:
            processors[key] = build_processor(leaf(da), leaf(db))
        instrument = random_instrument(rng, leaf(da), leaf(db),
                                       branches=rng.randrange(1, 4))
        result = realize_instrument(instrument, processor=processors[key])
        ok &= result.verified and result.sigma.is_deterministic
        total = {}
        for effect in result.observation:
            for label, value in effect.coeffs.items():
                total[label] = total.get(label, F(0)) + value
        ok &= total == unit_effect(processors[key].output_ancilla).coeffs
    elapsed = time.time() - start
    report(7, "200 seeded instruments realized exactly on the processor",
           ok and elapsed < 300.0, elapsed)


def test_ac08_channel_decomposition_200_channels():
    start = time.time()
    rng = random.Random(77)
    ok = True
    for _ in range(200):
        da, db = rng.choice([(2, 2), (2, 3), (3, 2), (3, 3)])
        a, b = leaf(da), leaf(db)
        channel = random_deterministic_kernel(rng, a, b)
        parts = decompose_channel(channel)
        ok &= all(mu > 0 for _, mu in parts)
        ok &= sum(mu for _, mu in parts) == 1
        ok &= len(parts) <= 2 * da * db
        resum = null_kernel(a, b)
        for fl, mu in parts:
            resum = add_kernels(resum, scaled(function_channel(fl, a, b), mu))
        ok &= kernels_equal(resum, channel)
    elapsed = time.time() - start
    report(8, "200 greedy decompositions: positive weights, sum 1, exact re-sum",
           ok, elapsed)


def test_ac09_classification_predicates_exhaustive():
    start = time.time()
    a = bibit()
    lab = LeafLabel
    atomics = [Kernel(a, a, {lab(i): {(lab(l), t): 1}})
               for i in (1, 2) for l in (1, 2) for t in (-1, 1)]
    reversibles = []
    for perm in ({1: 1, 2: 2}, {1: 2, 2: 1}):
        for s1 in (-1, 1):
            for s2 in (-1, 1):
                reversibles.append(reversible_kernel(
                    a, a, {lab(i): lab(p) for i, p in perm.items()},
                    {lab(1): s1, lab(2): s2}))
    ok = True
    for k1 in atomics:
        for k2 in atomics:
            ok &= not is_atomic(parallel_compose(k1, k2))
    for r1 in reversibles:
        for r2 in reversibles:
            ok &= is_reversible(parallel_compose(r1, r2))
    for r in reversibles:
        for k in atomics:
            ok &= is_atomic(sequential_compose(r, k))
            ok &= is_atomic(sequential_compose(k, r))
    elapsed = time.time() - start
    report(9, "atomicity breaks in parallel, survives reversible composition",
           ok, elapsed, "64+64+128 exhaustive pairs")


def test_ac10_monogamy_violation():
    start = time.time()
    rep = monogamy_demo()
    entangled = [row for row in rep.outcomes if row["entangled"]]
    ok = rep.success and len(entangled) >= 2
    elapsed = time.time() - start
    report(10, "((11)- 1)+ has at least two entangled pair marginals",
           ok, elapsed, f"entangled_pairs={len(entangled)}/3")


def test_ac11_determinism_characterization_500_kernels():
    start = time.time()
    rng = random.Random(11)
    env = bibit()
    ok = True
    both_seen = set()
    for _ in range(500):
        da, db = rng.choice([(2, 2), (2, 3), (3, 2)])
        a, b = leaf(da), leaf(db)
        kernel = (random_deterministic_kernel(rng, a, b) if rng.random() < 0.5
                  else random_kernel(rng, a, b))
        det = is_deterministic(kernel)
        both_seen.add(det)
        ae = compose_systems(a, env)
        extended = extend_at(kernel, ae, "0")
        preserves = all(apply(extended, pure_state(ae, x), "").is_deterministic
                        for x in enumerate_pure_labels(ae))
        ok &= det == preserves
    ok &= both_seen == {True, False}
    elapsed = time.time() - start
    report(11, "row sums = 1 iff deterministic states stay deterministic "
               "under a bibit extension", ok, elapsed)


def test_ac12_separability_structure_exhaustive():
    start = time.time()
    rng = random.Random(12)
    ok = True
    pairs = [(da, db) for da in range(2, 19) for db in range(2, 19)
             if 2 * da * db <= 72]
    for da, db in pairs:
        a, b = leaf(da), leaf(db)
        ab = compose_systems(a, b)
        for label in enumerate_pure_labels(ab):
            ok &= not is_separable(pure_state(ab, label))
        for la in enumerate_pure_labels(a):
            for lb in enumerate_pure_labels(b):
                product = tensor_states(pure_state(a, la), pure_state(b, lb))
                product = StateVector(ab, product.coeffs)
                ok &= is_separable(product)
                ok &= all(not is_separable(pure_state(ab, x))
                          for x in product.coeffs)

        for _ in range(3):
            mixture = tensor_states(random_state(rng, a), random_state(rng, b))
            mixture = StateVector(ab, mixture.coeffs)
            ok &= is_separable(mixture)
            ok &= all(not is_separable(pure_state(ab, x)) for x in mixture.coeffs)
    elapsed = time.time() - start
    report(12, "products separable; every composite pure label entangled "
               "(pairs with D_AB <= 72)", ok, elapsed, f"pairs={len(pairs)}")


def test_ac13_conditional_instruments_100_compositions():
    start = time.time()
    rng = random.Random(13)
    ok = True
    for _ in range(100):
        da, db, dc = (rng.choice((2, 3)) for _ in range(3))
        first = random_instrument(rng, leaf(da), leaf(db),
                                  branches=rng.randrange(1, 4))
        followers = {x: random_instrument(rng, leaf(db), leaf(dc),
                                          branches=rng.randrange(1, 4))
                     for x in first.outcomes}
        composed = conditional_compose(first, followers.__getitem__)
        ok &= validate_instrument(composed)
    elapsed = time.time() - start
    report(13, "100 seeded conditional compositions validate as instruments",
           ok, elapsed)
