"""The kernel-law checks on index arithmetic, against the bodies they replace.

A node coder's closed-form join is a sum of offsets,
`left_offset(i) + right_offset(j) + bit(s) * step`, which `labels.offsets`
hands out (with a trivial factor, i + j), and its `split` of an index are
both held to the closed form of `coder_oracle` on trees of 0 to 5 leaves of
dims 2 and 3, of any shape, in BCT and CT.  `parallel_compose`, which reads
the offset form on both sides, is held to the frozen `Fraction` body with
trivial factors on any side.  Each tree keeps
the dimension of the recursive rule, and coding the deepest tree a
document may hold costs little memory: nothing is tabled per index.
`check_sliding` builds its two braid kernels once per check, under every
fault, and `sum_to_unit`, which copies the first effect and adds only the
others, gives the bool of the two-pass sum it replaced with the dense effect
at any position, sparse supports, and indices that only a later effect
covers.
"""

from __future__ import annotations

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bct import coherence, faults
from bct.config import MAX_NESTING
from bct.kernels import parallel_compose, random_kernel
from bct.labels import SIGNS, LeafLabel, NodeLabel, coder, offsets
from bct.states import EffectVector, lowest_terms, sum_to_unit
from bct.systems import (
    Node,
    SystemTree,
    TheoryMode,
    Trivial,
    compose_systems,
    dimension,
    leaf,
    trivial,
)

import coder_oracle as oracle
import fraction_kernels
from dilation_oracle import two_pass_sum_to_unit
from fraction_kernels import kernel_rows
from kernel_helpers import faulted

FAULTS = (None,) + faults.KNOWN_FAULTS
ORACLE = settings(max_examples=100, deadline=None)


@st.composite
def systems(draw, leaves=(0, 5), mode=None):
    """A system tree of up to 5 leaves of dims 2 or 3, or the trivial system."""
    if mode is None:
        mode = draw(st.sampled_from(tuple(TheoryMode)))

    def build(k):
        if k == 1:
            return leaf(draw(st.sampled_from((2, 3))), mode)
        split = draw(st.integers(1, k - 1))
        return compose_systems(build(split), build(k - split))

    k = draw(st.integers(*leaves))
    return trivial(mode) if k == 0 else build(k)


def nodes(system: SystemTree) -> list[Node]:
    """Every node of `system`, the whole tree first."""
    if not isinstance(system, Node):
        return []
    return [system, *nodes(system.left), *nodes(system.right)]


def rule(system: SystemTree) -> int:
    """The dimension rule, by recursion: 2 * D_l * D_r for a BCT node."""
    if isinstance(system, Node):
        product = rule(system.left) * rule(system.right)
        return 2 * product if system.mode is TheoryMode.BCT else product
    return 1 if isinstance(system, Trivial) else system.system.dim


@ORACLE
@given(system=systems(), data=st.data())
def test_offsets_sum_to_the_closed_form_join(system, data):
    """Every left index against one drawn right index and every right index
    against one drawn left index, each under both signs (a CT join reads
    no sign, so a - sign joins as +), for the coder's offsets, for
    `labels.offsets` and for `join`.  With a trivial factor drawn on either
    side there is no node, and `labels.offsets` sums to i + j."""
    for node in nodes(system):
        code = coder(node)
        left, right, step = offsets(node.left, node.right)
        i0 = data.draw(st.integers(0, code.left.dim - 1))
        j0 = data.draw(st.integers(0, code.right.dim - 1))
        pairs = [(i, j0) for i in range(code.left.dim)] + \
            [(i0, j) for j in range(code.right.dim)]
        for i, j in pairs:
            for s in SIGNS:
                expected = oracle.join(code, i, j, s)
                assert code.left_offset(i) + code.right_offset(j) + (s > 0) * code.step \
                    == expected, (i, j, s)
                assert left(i) + right(j) + (s > 0) * step == expected, (i, j, s)
                assert code.join(i, j, s) == expected, (i, j, s)
    scalar = trivial(system.mode)
    x, y = (scalar, system) if data.draw(st.booleans()) else (system, scalar)
    left, right, step = offsets(x, y)
    for i in range(dimension(x)):
        for j in range(dimension(y)):
            for s in SIGNS:
                assert left(i) + right(j) + (s > 0) * step == i + j, (i, j, s)


@ORACLE
@given(system=systems(leaves=(2, 5)))
def test_split_is_the_closed_form(system):
    code = coder(system)
    assert [code.split(x) for x in range(code.dim)] \
        == [oracle.split(code, x) for x in range(code.dim)]


@ORACLE
@given(system=systems())
def test_every_tree_keeps_the_dimension_of_the_rule(system):
    for tree in [system, *nodes(system)]:
        assert dimension(tree) == rule(tree) == coder(tree).dim


def test_the_deepest_tree_codes_in_little_memory():
    """`dimension`, `coder` and `Coder.index` on a tree as deep as a document
    may nest (its dimension has hundreds of digits) and one of its labels,
    the tree built here from leaves no other test names, so that every
    coder of it is built while traced."""
    tracemalloc.start()
    try:
        probe = leaf(2, name="deepest-probe")
        tree, label = probe, LeafLabel(2)
        for _ in range(MAX_NESTING):
            tree = compose_systems(probe, tree)
            label = NodeLabel(LeafLabel(1), label, 1)
        dim = dimension(tree)
        code = coder(tree)
        index = code.index(label)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak
    assert dim == code.dim == rule(tree) > 2**400
    assert index is not None and code.label(index) == label


@pytest.mark.parametrize("fault", FAULTS)
@settings(max_examples=40, deadline=None)
@given(data=st.data(), mode=st.sampled_from(tuple(TheoryMode)))
def test_parallel_compose_matches_the_fraction_body(fault, data, mode):
    """Random kernels between trees of 0 to 2 leaves, so that each of A, B,
    C and D may be trivial."""
    a, b, c, d = (data.draw(systems((0, 2), mode)) for _ in range(4))
    rng = random.Random(data.draw(st.integers(0, 2**16)))
    k1, k2 = random_kernel(rng, a, b), random_kernel(rng, c, d)
    with faulted(fault):
        kernel = parallel_compose(k1, k2)
        old = fraction_kernels.parallel_compose(k1, k2)
    assert (kernel.in_system, kernel.out_system) == (old.in_system, old.out_system)
    assert kernel_rows(kernel) == old.rows


@pytest.mark.parametrize("mode", tuple(TheoryMode))
@pytest.mark.parametrize("fault", FAULTS)
def test_sliding_builds_its_two_braids_once_per_check(fault, mode, monkeypatch):
    built = []

    def counted(a, b):
        built.append((a, b))
        return braid_kernel(a, b)

    braid_kernel = coherence.braid_kernel
    monkeypatch.setattr(coherence, "braid_kernel", counted)
    with faulted(fault):
        for seed in range(3):
            built.clear()
            coherence.check_sliding(seed, (2, 3, 3, 2), mode, pairs=4)
            assert len(built) == 2


@ORACLE
@given(system=systems((0, 2)), data=st.data())
def test_the_one_pass_unit_check_gives_the_two_pass_bool(system, data):
    """Effects that split the unit effect over a drawn denominator, or miss
    it by one on one index, or leave an index out.  The dense part, what
    the others leave, is at a drawn position; the others have sparse drawn
    supports, and one drawn index is covered by the last effect alone."""
    dim = coder(system).dim
    den = data.draw(st.sampled_from((1, 2, 3, 4)))
    count = data.draw(st.integers(1, 4))
    dense = data.draw(st.integers(0, count - 1))
    late = data.draw(st.integers(0, dim - 1))
    left = [den] * dim
    parts = [{} for _ in range(count)]
    for k, nums in enumerate(parts):
        if k == dense:
            continue
        for x in sorted(data.draw(st.sets(st.integers(0, dim - 1), max_size=dim))):
            if x != late:
                nums[x] = data.draw(st.integers(0, left[x]))
                left[x] -= nums[x]
    parts[dense] = {x: n for x, n in enumerate(left) if x != late}
    parts[-1][late] = den
    change = data.draw(st.sampled_from(("none", "less", "more", "drop")))
    x = data.draw(st.integers(0, dim - 1))
    nums = parts[data.draw(st.integers(0, count - 1))]
    if change == "less" and nums.get(x, 0) > 0:
        nums[x] -= 1
    elif change == "more" and nums.get(x, 0) < den:
        nums[x] = nums.get(x, 0) + 1
    elif change == "drop":
        for part in parts:
            part.pop(x, None)
    effects = [EffectVector._trusted(system, *lowest_terms(part, den)) for part in parts]
    assert sum_to_unit(effects) == two_pass_sum_to_unit(effects)
    if change == "none":
        assert sum_to_unit(effects)
