"""The int kernel calculus against the label-keyed `Fraction` calculus.

`fraction_kernels` is a frozen copy of the kernel calculus as it was before
kernels were stored on basis indices.  Here hypothesis draws trees, paths
and seeded kernels whose weights are scaled by non-dyadic factors (over
primes near 10**6), and every extension, composition and application is
compared entry for entry through the `rows` view, under no fault and under
each known fault, in BCT and in CT.  (In CT a faulted move can write a -
sign, off the label set; the index calculus reads it as its + twin, and the
comparison under a fault in CT does the same to the frozen rows.)  The
basis-index coder is held to the canonical basis order, sorted by
`kernel_helpers.label_sort_key`.  The seeded generators, which draw ints,
are held to the frozen `Fraction` generators: the same seed builds the same
ints and leaves the generator in the same state.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bct import faults
from bct.kernels import (
    Instrument,
    apply,
    extend_at,
    parallel_compose,
    random_instrument,
    random_kernel,
    random_state,
    scalar_kernel,
    sequential_compose,
    state_kernel,
)
from bct.labels import coder, enumerate_pure_labels
from bct.states import EffectVector, StateVector
from bct.systems import Node, SystemTree, TheoryMode, Trivial, compose_systems, leaf, subtree_at

import fraction_kernels
from fraction_kernels import kernel_rows
from kernel_helpers import (
    effect_kernel,
    faulted,
    plus,
    random_deterministic_kernel,
    scaled,
    sorted_basis,
)

FAULTS = (None,) + faults.KNOWN_FAULTS
MODES = st.sampled_from((TheoryMode.BCT, TheoryMode.CT))
DENOMINATORS = st.sampled_from((1, 3, 7, 999961, 999983))
ORACLE = settings(max_examples=20, deadline=None)


@st.composite
def trees(draw, mode, leaves=(1, 3)):
    def build(k):
        if k == 1:
            return leaf(draw(st.sampled_from((2, 3))), mode)
        split = draw(st.integers(1, k - 1))
        return compose_systems(build(split), build(k - split))
    return build(draw(st.integers(*leaves)))


def paths(system: SystemTree, prefix: str = "") -> list[str]:
    """Every subtree path of `system`, the whole tree first."""
    out = [prefix]
    if isinstance(system, Node):
        out += paths(system.left, prefix + "0") + paths(system.right, prefix + "1")
    return out


@st.composite
def kernels(draw, in_system, out_system):
    """A seeded random kernel scaled by a drawn, usually non-dyadic, factor."""
    base = random_kernel(random.Random(draw(st.integers(0, 2**16))), in_system, out_system)
    den = draw(DENOMINATORS)
    return scaled(base, Fraction(draw(st.integers(0, den)), den))


def summed(pairs):
    out = {}
    for key, value in pairs:
        out[key] = out.get(key, 0) + value
    return out


def read_by_index(rows):
    """Label-keyed rows as the index calculus reads them in CT: a faulted
    move can write a - sign in CT, which leaves the label set, and the CT
    coder has no sign, so such a label is read as its + twin."""
    out = {}
    for a, row in rows.items():
        merged = summed(((plus(b), tau), w) for (b, tau), w in row.items())
        out[plus(a)] = summed([*out.get(plus(a), {}).items(), *merged.items()])
    return out


def assert_same(kernel, old):
    assert kernel.in_system == old.in_system and kernel.out_system == old.out_system
    rows = old.rows
    if kernel.mode is TheoryMode.CT and faults.active_fault():
        rows = read_by_index(rows)
    assert kernel_rows(kernel) == rows


@pytest.mark.parametrize("fault", FAULTS)
@ORACLE
@given(data=st.data(), mode=MODES)
def test_extension_and_application_match_the_fraction_bodies(fault, data, mode):
    system = data.draw(trees(mode))
    at = data.draw(st.sampled_from(paths(system)))
    part = subtree_at(system, at)
    out = data.draw(st.sampled_from((part, leaf(2, mode), Trivial(mode))))
    kernel = data.draw(kernels(part, out))
    rho = random_state(random.Random(data.draw(st.integers(0, 2**16))), system,
                       deterministic=False)
    rho = scale_kernel_state(rho, data.draw(DENOMINATORS))
    with faulted(fault):
        assert_same(extend_at(kernel, system, at),
                    fraction_kernels.extend_at(kernel, system, at))
        image = apply(kernel, rho, at)
        system, coeffs = fraction_kernels.apply(kernel, rho, at)
        if mode is TheoryMode.CT and fault:
            coeffs = summed((plus(label), v) for label, v in coeffs.items())
        assert (image.system, image.coeffs) == (system, coeffs)


def scale_kernel_state(rho: StateVector, den: int) -> StateVector:
    """`rho` times (den - 1) / den: a state whose weights are not dyadic."""
    return StateVector(rho.system, {label: v * Fraction(den - 1, den) if den > 1 else v
                                    for label, v in rho.coeffs.items()})


@st.composite
def factors(draw, mode):
    """A kernel between small trees, a preparation, an effect or a scalar."""
    kind = draw(st.sampled_from(("kernel", "kernel", "prep", "effect", "scalar")))
    rng = random.Random(draw(st.integers(0, 2**16)))
    den = draw(DENOMINATORS)
    if kind == "scalar":
        return scalar_kernel(mode, Fraction(draw(st.integers(0, den)), den))
    x = draw(trees(mode, (1, 2)))
    if kind == "prep":
        return state_kernel(scale_kernel_state(random_state(rng, x, False), den))
    if kind == "effect":
        return effect_kernel(EffectVector(x, {label: Fraction(rng.randrange(den + 1), den)
                                              for label in enumerate_pure_labels(x)}))
    return draw(kernels(x, draw(trees(mode, (1, 2)))))


@pytest.mark.parametrize("fault", FAULTS)
@ORACLE
@given(data=st.data(), mode=MODES)
def test_compositions_match_the_fraction_bodies(fault, data, mode):
    k1, k2 = data.draw(factors(mode)), data.draw(factors(mode))
    a = k1.out_system
    then = data.draw(kernels(a, data.draw(st.sampled_from((a, leaf(2, mode))))))
    with faulted(fault):
        assert_same(parallel_compose(k1, k2), fraction_kernels.parallel_compose(k1, k2))
        if not isinstance(a, Trivial):
            assert_same(sequential_compose(then, k1),
                        fraction_kernels.sequential_compose(then, k1))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), mode=MODES)
def test_the_coder_follows_the_canonical_order(data, mode):
    """The coder's index order is the sorted order of `label_sort_key`, on a
    basis built without the coder; `enumerate_pure_labels` reads the coder."""
    system = data.draw(st.one_of(st.just(Trivial(mode)), trees(mode, (1, 4))))
    code = coder(system)
    basis = sorted_basis(system)
    assert enumerate_pure_labels(system) == basis
    assert code.dim == len(basis)
    assert [code.index(label) for label in basis] == list(range(len(basis)))
    assert [code.label(i) for i in range(len(basis))] == basis
    if isinstance(system, Node):
        for i in range(code.dim):
            assert code.join(*code.split(i)) == i


def drawn(built):
    """The ints of a kernel, a vector or each branch of an instrument, each
    dict in its order."""
    if isinstance(built, Instrument):
        return list(map(drawn, built.branches))
    return built.den, [(x, list(row.items()) if isinstance(row, dict) else row)
                       for x, row in built.nums.items()]


@pytest.mark.parametrize("mode", (TheoryMode.BCT, TheoryMode.CT), ids=lambda m: m.value)
def test_generators_draw_as_the_fraction_bodies(mode):
    """Seeds 0-49 on the trivial system, 2, 3, (2 2) and ((2 3) 2), each
    into the trivial system, into 2 and into itself for the kernels: the int
    generators build the ints of the `Fraction` bodies, and leave the
    generator in the same state, after every draw."""
    two, three = leaf(2, mode), leaf(3, mode)
    systems = (Trivial(mode), two, three, compose_systems(two, two),
               compose_systems(compose_systems(two, three), two))
    for seed in range(50):
        ours, theirs = random.Random(seed), random.Random(seed)

        def same(draw, old, *args):
            assert drawn(draw(ours, *args)) == drawn(old(theirs, *args)), (seed, args)
            assert ours.getstate() == theirs.getstate(), (seed, args)

        for system in systems:
            for deterministic in (True, False):
                same(random_state, fraction_kernels.random_state, system, deterministic)
            for out in dict.fromkeys((Trivial(mode), two, system)):
                same(random_kernel, fraction_kernels.random_kernel, system, out)
                same(random_deterministic_kernel,
                     fraction_kernels.random_deterministic_kernel, system, out)
                for branches in (1, 2, 3):
                    same(random_instrument, fraction_kernels.random_instrument,
                         system, out, branches)
