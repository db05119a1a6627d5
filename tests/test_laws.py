"""Laws of the kernel calculus on random trees.

Each law is a statement of the theory that any correct implementation of
extension, application and composition satisfies, so these tests catch an
error that a frozen copy of an older implementation would share:

- extension is functorial: extend(k2 o k1) = extend(k2) o extend(k1);
- extension nests: extending at q inside the subtree at o, then at o, is
  extending at o+q;
- application is extension: apply(k, rho, p) = apply(extend_at(k, X, p), rho);
- causality: a deterministic kernel, and the unit effect, keep the weight of
  every state at every subtree;
- interchange and sliding hold on random trees, not only on the suite's
  fixed dimensions;
- the parallel composite of two state kernels is the state kernel of their
  product;
- parallel composition in one pass over the input basis is the two-step
  form (I (x) k2) o (k1 (x) I) of `kernel_helpers.parallel_oracle`, int for
  int and in row and entry order, on a grid of systems with trivial
  factors, under each fault;
- a probe environment tells no two kernels apart that their ints do not:
  kernels are equal exactly when their extensions by a bibit are, which is
  why the coherence suite compares the law sides as they are.

Hypothesis draws canonical trees of 2-4 leaves of dimension 2 or 3 (under a
dimension cap), subtree paths and seeded kernels, in BCT and in CT.  The
last tests show that each known fault breaks at least one law in BCT, and
that in CT each fault is either caught by the coherence suite or changes
nothing.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bct import faults
from bct.coherence import SuiteConfig, run_suite
from bct.kernels import (
    Kernel,
    apply,
    braid_kernel,
    extend_at,
    kernels_equal,
    parallel_compose,
    random_kernel,
    random_state,
    sequential_compose,
    state_kernel,
)
from bct.labels import apply_moves_tracked, enumerate_pure_labels, regroup
from bct.states import (
    GeneralizedVector,
    apply_effect_at,
    tensor_states,
    unit_effect,
    vectors_equal,
)
from bct.systems import (
    Node,
    SystemTree,
    TheoryMode,
    Trivial,
    bibit,
    compose_systems,
    dimension,
    leaf,
    replace_at,
    subtree_at,
)

from kernel_helpers import (
    effect_kernel,
    faulted,
    parallel_oracle,
    random_deterministic_kernel,
)

MODES = st.sampled_from((TheoryMode.BCT, TheoryMode.CT))
LAWS = settings(max_examples=25, deadline=None)
CAP = 300


def build(shape, mode: TheoryMode) -> SystemTree:
    """A system tree from nested pairs of leaf dimensions."""
    if isinstance(shape, int):
        return leaf(shape, mode)
    return compose_systems(build(shape[0], mode), build(shape[1], mode))


@st.composite
def shapes(draw, leaves=(2, 4)):
    def grow(k):
        if k == 1:
            return draw(st.sampled_from((2, 3)))
        split = draw(st.integers(1, k - 1))
        return grow(split), grow(k - split)
    return grow(draw(st.integers(*leaves)))


@st.composite
def trees(draw, mode, leaves=(2, 4)):
    return build(draw(shapes(leaves).filter(lambda s: dimension(build(s, mode)) <= CAP)),
                 mode)


def paths(system: SystemTree, prefix: str = "") -> list[str]:
    """Every subtree path of `system`, the whole tree first."""
    out = [prefix]
    if isinstance(system, Node):
        out += paths(system.left, prefix + "0") + paths(system.right, prefix + "1")
    return out


def outputs(part: SystemTree) -> list[SystemTree]:
    """Output systems a kernel on `part` is drawn to: itself, a leaf, none."""
    return [part, leaf(2, part.mode), Trivial(part.mode)]


def seeds():
    return st.integers(0, 2**16)


# ---------------------------------------------------------------------------
# The laws, as functions of their draws (the fault-power test reuses them)


def functorial(system: SystemTree, at: str, seed: int, last: int) -> bool:
    """extend_at(k2 o k1, X, p) = extend_at(k2, X', p) o extend_at(k1, X, p)."""
    rng = random.Random(seed)
    part = subtree_at(system, at)
    mid = outputs(part)[seed % 2]
    k1 = random_kernel(rng, part, mid)
    k2 = random_kernel(rng, mid, outputs(mid)[last])
    moved = replace_at(system, at, mid)
    return kernels_equal(extend_at(sequential_compose(k2, k1), system, at),
                         sequential_compose(extend_at(k2, moved, at),
                                            extend_at(k1, system, at)))


def nests(system: SystemTree, outer: str, inner: str, seed: int, out: int) -> bool:
    """extend_at(extend_at(k, X_o, q), X, o) = extend_at(k, X, o+q)."""
    part = subtree_at(system, outer + inner)
    k = random_kernel(random.Random(seed), part, outputs(part)[out])
    nested = extend_at(extend_at(k, subtree_at(system, outer), inner), system, outer)
    return kernels_equal(nested, extend_at(k, system, outer + inner))


def application_is_extension(system: SystemTree, at: str, seed: int, out: int) -> bool:
    rng = random.Random(seed)
    part = subtree_at(system, at)
    k = random_kernel(rng, part, outputs(part)[out])
    rho = random_state(rng, system, deterministic=False)
    return vectors_equal(apply(k, rho, at), apply(extend_at(k, system, at), rho))


def causal(system: SystemTree, at: str, seed: int, out: int) -> bool:
    """Deterministic kernels and the unit effect keep rho's weight."""
    rng = random.Random(seed)
    part = subtree_at(system, at)
    rho = random_state(rng, system, deterministic=False)
    channel = random_deterministic_kernel(rng, part, outputs(part)[out])
    unit = unit_effect(part)
    return (apply(channel, rho, at).weight == rho.weight
            and apply(effect_kernel(unit), rho, at).weight == rho.weight
            and apply_effect_at(unit, rho, at).weight == rho.weight)


def probed(kernel: Kernel) -> Kernel:
    """`kernel` with a probe environment appended: equal transformations
    have equal extensions."""
    return extend_at(kernel, compose_systems(kernel.in_system, bibit(kernel.mode)), "0")


def tau_flipped(kernel: Kernel, rng: random.Random) -> Kernel:
    """`kernel` with the tau of one entry flipped, where its row has no
    entry at the flipped key; `kernel` itself when no entry can flip."""
    rows = {a: dict(row) for a, row in kernel.rows.items()}
    free = [(a, entry) for a, row in rows.items() for entry in row
            if (entry[0], -entry[1]) not in row]
    if kernel.mode is TheoryMode.CT or isinstance(kernel.out_system, Trivial) or not free:
        return kernel
    a, (b, tau) = rng.choice(free)
    rows[a][(b, -tau)] = rows[a].pop((b, tau))
    return Kernel(kernel.in_system, kernel.out_system, rows)


def probe_separates_as_ints(system: SystemTree, seed: int, out: int, variant: int) -> bool:
    """kernels_equal(k, k') == kernels_equal(probed(k), probed(k')), for k'
    an independent draw, a rebuild of k, or k with one tau flipped."""
    rng = random.Random(seed)
    k = random_kernel(rng, system, outputs(system)[out])
    other = (random_kernel(rng, system, k.out_system),
             Kernel(k.in_system, k.out_system, k.rows),
             tau_flipped(k, rng))[variant]
    return kernels_equal(k, other) == kernels_equal(probed(k), probed(other))


def interchange(a: SystemTree, b: SystemTree, seed: int) -> bool:
    """(k2 o k1) (x) (k4 o k3) = (k2 (x) k4) o (k1 (x) k3)."""
    rng = random.Random(seed)
    k1, k2 = random_kernel(rng, a, b), random_kernel(rng, b, a)
    k3, k4 = random_kernel(rng, b, a), random_kernel(rng, a, b)
    return kernels_equal(
        probed(parallel_compose(sequential_compose(k2, k1), sequential_compose(k4, k3))),
        probed(sequential_compose(parallel_compose(k2, k4), parallel_compose(k1, k3))))


def sliding(a: SystemTree, b: SystemTree, c: SystemTree, d: SystemTree,
            seed: int) -> bool:
    """S (k1 (x) k2) = (k2 (x) k1) S."""
    rng = random.Random(seed)
    k1, k2 = random_kernel(rng, a, b), random_kernel(rng, c, d)
    return kernels_equal(
        probed(sequential_compose(braid_kernel(b, d), parallel_compose(k1, k2))),
        probed(sequential_compose(parallel_compose(k2, k1), braid_kernel(a, c))))


def states_compose(x: SystemTree, y: SystemTree, seed: int) -> bool:
    rng = random.Random(seed)
    rho = random_state(rng, x, deterministic=False)
    sigma = random_state(rng, y, deterministic=False)
    return kernels_equal(parallel_compose(state_kernel(rho), state_kernel(sigma)),
                         state_kernel(tensor_states(rho, sigma)))


# ---------------------------------------------------------------------------
# The laws on hypothesis draws


@LAWS
@given(st.data(), MODES, seeds())
def test_extension_is_functorial(data, mode, seed):
    system = data.draw(trees(mode))
    at = data.draw(st.sampled_from(paths(system)))
    assert functorial(system, at, seed, data.draw(st.integers(0, 2)))


@LAWS
@given(st.data(), MODES, seeds())
def test_extension_nests(data, mode, seed):
    system = data.draw(trees(mode, (3, 4)))
    outer = data.draw(st.sampled_from(paths(system)))
    inner = data.draw(st.sampled_from(paths(subtree_at(system, outer))))
    assert nests(system, outer, inner, seed, data.draw(st.integers(0, 2)))


@LAWS
@given(st.data(), MODES, seeds())
def test_application_is_extension(data, mode, seed):
    system = data.draw(trees(mode))
    at = data.draw(st.sampled_from(paths(system)))
    assert application_is_extension(system, at, seed, data.draw(st.integers(0, 2)))


@LAWS
@given(st.data(), MODES, seeds())
def test_deterministic_kernels_and_the_unit_effect_keep_the_weight(data, mode, seed):
    system = data.draw(trees(mode))
    at = data.draw(st.sampled_from(paths(system)))
    assert causal(system, at, seed, data.draw(st.integers(0, 2)))


small = st.sampled_from((2, 3, (2, 2)))


@settings(max_examples=15, deadline=None)
@given(small, small, MODES, seeds())
def test_interchange_on_random_trees(a, b, mode, seed):
    assert interchange(build(a, mode), build(b, mode), seed)


@settings(max_examples=15, deadline=None)
@given(st.lists(st.sampled_from((2, 3)), min_size=4, max_size=4), MODES, seeds())
def test_sliding_on_random_trees(dims, mode, seed):
    assert sliding(*(leaf(d, mode) for d in dims), seed)


@LAWS
@given(st.data(), MODES, seeds())
def test_parallel_states_are_the_product_state(data, mode, seed):
    x = data.draw(trees(mode, (1, 2)))
    y = data.draw(trees(mode, (1, 2)))
    assert states_compose(x, y, seed)


def layout(kernel: Kernel) -> tuple[list, int]:
    """A kernel's ints, its rows and each row's entries in their order."""
    return [(x, list(row.items())) for x, row in kernel.nums.items()], kernel.den


@pytest.mark.parametrize("fault", (None,) + faults.KNOWN_FAULTS)
@pytest.mark.parametrize("mode", (TheoryMode.BCT, TheoryMode.CT))
def test_parallel_composition_is_its_two_step_form(fault, mode):
    """On every (A, B, C, D) in {trivial, 2, (2 2)}^4, so with scalar,
    preparation and effect factors and empty rows, k1 (x) k2 equals the
    oracle in its ints and in the order of its rows and entries."""
    systems = (Trivial(mode), build(2, mode), build((2, 2), mode))
    for seed, (a, b, c, d) in enumerate(itertools.product(systems, repeat=4)):
        rng = random.Random(seed)
        k1, k2 = random_kernel(rng, a, b), random_kernel(rng, c, d)
        with faulted(fault):
            one, two = parallel_compose(k1, k2), parallel_oracle(k1, k2)
        assert (one.in_system, one.out_system) == (two.in_system, two.out_system)
        assert layout(one) == layout(two), (a, b, c, d)


@pytest.mark.parametrize("fault", (None,) + faults.KNOWN_FAULTS)
@LAWS
@given(st.data(), MODES, seeds())
def test_kernels_are_equal_exactly_when_their_probed_extensions_are(fault, data, mode, seed):
    system = data.draw(trees(mode, (1, 3)))
    out, variant = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))
    with faulted(fault):
        assert probe_separates_as_ints(system, seed, out, variant)


def test_a_flipped_tau_is_seen_with_and_without_the_probe():
    k = random_kernel(random.Random(3), leaf(2), leaf(3))
    flipped = tau_flipped(k, random.Random(0))
    assert not kernels_equal(k, flipped)
    assert not kernels_equal(probed(k), probed(flipped))


# ---------------------------------------------------------------------------
# Fault power: each known fault breaks a law on a pinned draw.  The braid
# fault breaks functoriality, the associator fault nesting at a depth-two
# path, and the dropped tau of a parallel factor sliding (interchange holds
# under it: both sides drop the same taus).

BCT = TheoryMode.BCT


def deep_tree() -> SystemTree:
    return build(((2, (2, 2)), 2), BCT)


WITNESSES = {
    faults.BRAID_SIGN: lambda: not functorial(build((2, (2, 2)), BCT), "1", 1, 0),
    faults.ASSOC_SIGN: lambda: not nests(deep_tree(), "0", "11", 7, 0),
    faults.PARALLEL_DROP_TAU: lambda: not sliding(leaf(2), leaf(2), leaf(2), leaf(2), 0),
}


@pytest.mark.parametrize("fault", faults.KNOWN_FAULTS)
def test_each_fault_breaks_a_law(fault, monkeypatch):
    assert set(WITNESSES) == set(faults.KNOWN_FAULTS)
    assert not WITNESSES[fault]()  # the pinned draw obeys the law unfaulted
    # a faulted calculus builds what a validating constructor may refuse
    monkeypatch.setattr(Kernel, "_trusted", classmethod(Kernel._trusted.__func__.__wrapped__))
    monkeypatch.setattr(GeneralizedVector, "_trusted",
                        classmethod(GeneralizedVector._trusted.__func__.__wrapped__))
    with faults.inject_fault(fault):
        assert WITNESSES[fault]()


# Fault power in CT.  Every node sign is + in CT, so the associator fault
# (which keeps one sign of a product of two +'s) and the dropped tau of a
# parallel factor (every tau is +) rewrite nothing there, and no check can
# see them.  The braid fault writes a - sign, which no CT label carries (the
# index calculus reads such a label as its + twin); the suite's hexagon
# checks, which run the label moves themselves, must catch it.

CT = TheoryMode.CT


def unfaulted_in_ct(fault: str) -> bool:
    """Under `fault`, every regrouping of a CT tree moves every label as it
    does unfaulted, and parallel composites of random CT kernels are
    unchanged."""
    system = build(((2, (2, 2)), (2, 3)), CT)
    labels = enumerate_pure_labels(system)
    for at in paths(system)[1:]:
        moves = regroup(system, at)
        plain = [apply_moves_tracked(label, moves) for label in labels]
        with faults.inject_fault(fault):
            if [apply_moves_tracked(label, moves) for label in labels] != plain:
                return False
    for seed in range(5):
        rng = random.Random(seed)
        k1 = random_kernel(rng, leaf(2, CT), leaf(3, CT))
        k2 = random_kernel(rng, build((2, 2), CT), leaf(2, CT))
        plain = parallel_compose(k1, k2)
        with faults.inject_fault(fault):
            if not kernels_equal(parallel_compose(k1, k2), plain):
                return False
    return True


@pytest.mark.parametrize("fault", faults.KNOWN_FAULTS)
def test_each_fault_in_ct_is_caught_or_changes_nothing(fault, monkeypatch):
    monkeypatch.setattr(Kernel, "_trusted", classmethod(Kernel._trusted.__func__.__wrapped__))
    monkeypatch.setattr(GeneralizedVector, "_trusted",
                        classmethod(GeneralizedVector._trusted.__func__.__wrapped__))
    assert all(r.passed for r in run_suite(SuiteConfig(mode=CT, kernel_pairs=5)))
    reports = run_suite(SuiteConfig(mode=CT, fault=fault, kernel_pairs=5))
    caught = {r.name for r in reports if not r.passed}
    if fault == faults.BRAID_SIGN:
        assert "hexagon" in caught and not unfaulted_in_ct(fault)
    else:
        assert not caught and unfaulted_in_ct(fault)
