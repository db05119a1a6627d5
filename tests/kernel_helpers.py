"""Kernel builders, label orders and writers that only tests use.

`atomic_decomposition` splits a kernel into its atomic parts, and
`random_reversible_kernel` draws a seeded signed permutation; both are test
plumbing for the predicates and protocols, built on the public API, as are
`random_deterministic_kernel`, `scaled`, `effect_kernel` and `inverse`.
`faulted` puts a fault in force for the tests that run the calculus under one.
`function_channel` is the kernel of one (h, xi) pair, the oracle that the
parts of `dilation.decompose_channel` re-sum to their channel.
`parallel_oracle` is k1 (x) k2 built as (I (x) k2) o (k1 (x) I) on basis
indices, the index-level oracle of the one-pass `parallel_compose`.
`label_sort_key` states the canonical basis order on labels, and
`sorted_basis` enumerates a basis by it without the coder, so that the
coder's order can be held to it.  `kernel_to_json` and
`instrument_to_json` write the documents that `bct dilate` reads, and
`kernel_from_json` reads a kernel document as the one branch of an
instrument document, through the reader the CLI uses.
"""

import random
from contextlib import contextmanager
from fractions import Fraction

import pytest

from bct import faults
from bct.dilation import FunctionLabel
from bct.kernels import (
    Instrument,
    Kernel,
    _braid,
    _composed,
    _lowest,
    _random_rows,
    is_reversible,
    parallel_compose,
    reversible_kernel,
    scalar_kernel,
)
from bct.labels import (
    PLUS,
    UNIT,
    LeafLabel,
    NodeLabel,
    PureLabel,
    basis_size,
    coder,
    enumerate_pure_labels,
    node_signs,
    regroup,
)
from bct.serial import (
    fraction_to_str,
    instrument_from_json,
    label_to_str,
    outcomes_to_json,
    system_to_str,
)
from bct.states import GeneralizedVector
from bct.systems import (
    Leaf,
    Node,
    SystemTree,
    TheoryMode,
    Trivial,
    compose_systems,
    dimension,
)


def label_sort_key(label: PureLabel) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The canonical order: the left-to-right tuple of leaf indices, then
    the pre-order tuple of node signs with - before +."""
    leaves: list[int] = []
    signs: list[int] = []

    def walk(l: PureLabel) -> None:
        if isinstance(l, LeafLabel):
            leaves.append(l.index)
        elif isinstance(l, NodeLabel):
            signs.append(l.sign)
            walk(l.left)
            walk(l.right)

    walk(label)
    return tuple(leaves), tuple(signs)


def plus(label: PureLabel) -> PureLabel:
    """`label` with every node sign +."""
    if isinstance(label, NodeLabel):
        return NodeLabel(plus(label.left), plus(label.right), PLUS)
    return label


def sorted_basis(system: SystemTree) -> list[PureLabel]:
    """Every pure label of `system`, built from its shape and sorted by
    `label_sort_key`."""
    def labels(t: SystemTree) -> list[PureLabel]:
        if isinstance(t, Trivial):
            return [UNIT]
        if isinstance(t, Leaf):
            return [LeafLabel(i) for i in range(1, t.system.dim + 1)]
        assert isinstance(t, Node)
        return [NodeLabel(l, r, s) for l in labels(t.left) for r in labels(t.right)
                for s in node_signs(t.mode)]
    return sorted(labels(system), key=label_sort_key)


def atomic_decomposition(kernel: Kernel) -> list[Kernel]:
    """Split into one atomic kernel per nonzero entry; parts re-sum exactly."""
    if isinstance(kernel.in_system, Trivial):
        raise ValueError("preparations do not decompose entrywise")
    parts = []
    rows = kernel.rows
    for a in sorted(rows, key=label_sort_key):
        for (b, tau), w in sorted(rows[a].items(),
                                  key=lambda item: (label_sort_key(item[0][0]),
                                                    item[0][1])):
            parts.append(Kernel(kernel.in_system, kernel.out_system,
                                {a: {(b, tau): w}}))
    return parts


def random_reversible_kernel(rng: random.Random, system: SystemTree) -> Kernel:
    basis = enumerate_pure_labels(system)
    shuffled = list(basis)
    rng.shuffle(shuffled)
    signs = {a: (rng.choice((-1, 1)) if system.mode is TheoryMode.BCT else 1)
             for a in basis}
    return reversible_kernel(system, system, dict(zip(basis, shuffled)), signs)


def random_deterministic_kernel(rng: random.Random, in_system: SystemTree,
                                out_system: SystemTree) -> Kernel:
    """A deterministic kernel: on every input label a dyadic distribution
    over one to three (output label, tau) targets."""
    return Kernel._trusted(in_system, out_system,
                           *_lowest(_random_rows(rng, in_system, out_system), 16))


def scaled(kernel: Kernel, factor: Fraction) -> Kernel:
    """`kernel` with every weight times `factor`, at most one: its parallel
    composite with that scalar."""
    return parallel_compose(scalar_kernel(kernel.mode, factor), kernel)


def effect_kernel(effect: GeneralizedVector) -> Kernel:
    """An effect as a kernel to the trivial system, tau fixed +1; a vector of
    the span that is not an effect gets the constructor's weight checks."""
    return Kernel(effect.system, Trivial(effect.system.mode),
                  {x: {(UNIT, PLUS): w} for x, w in effect.coeffs.items()})


def inverse(kernel: Kernel) -> Kernel:
    """The inverse of a reversible kernel: the entry (b, tau) of row a
    becomes the entry (a, tau) of row b, and the flips cancel on composition."""
    assert is_reversible(kernel)
    return Kernel(kernel.out_system, kernel.in_system,
                  {b: {(a, tau): 1} for a, row in kernel.rows.items() for b, tau in row})


@contextmanager
def faulted(fault):
    """`fault` in force; a faulted calculus may build what a validating
    constructor refuses (a - sign in CT), so the trusted constructors go
    unchecked under a fault."""
    with faults.inject_fault(fault), pytest.MonkeyPatch.context() as patch:
        if fault:
            for cls in (Kernel, GeneralizedVector):
                patch.setattr(cls, "_trusted", classmethod(cls._trusted.__func__.__wrapped__))
        yield


def _head_rows(kernel: Kernel, system: SystemTree, drop_tau: bool) -> dict:
    """Int rows of `kernel` acting at the head "0" of `system`, whose
    regrouping is empty: (a e)_u -> (b e)_{tau*u} with flip tau, an effect
    giving (e, u); with `drop_tau` the new node keeps the sign u."""
    assert regroup(system, "0") == []
    split = coder(system).split
    bct = kernel.mode is TheoryMode.BCT
    effect = isinstance(kernel.out_system, Trivial)
    join = None if effect else coder(compose_systems(kernel.out_system, system.right)).join
    rows = {}
    for x in range(dimension(system)):
        a, e, u = split(x)
        row = kernel.nums.get(a)
        if not row:
            continue
        if effect:
            rows[x] = {(e, u if bct else PLUS): sum(row.values())}
            continue
        out = {}
        for (b, tau), n in row.items():
            key = (join(b, e, u if drop_tau else tau * u), tau if bct else PLUS)
            out[key] = out[key] + n if key in out else n
        rows[x] = out
    return rows


def _with_identity(kernel: Kernel, other: SystemTree, drop_tau: bool = False) -> dict:
    """Int rows of kernel (x) I_other, over the kernel's denominator."""
    if isinstance(other, Trivial):
        return kernel.nums
    if not isinstance(kernel.in_system, Trivial):
        return _head_rows(kernel, compose_systems(kernel.in_system, other), drop_tau)
    # a preparation opens a fresh node whose sign is the emitted flip
    join = coder(compose_systems(kernel.out_system, other)).join
    row = kernel.nums.get(0)
    if row is None:
        return {}
    return {o: {(join(b, o, tau), tau): n for (b, tau), n in row.items()}
            for o in range(basis_size(other))}


def _identity_with(other: SystemTree, kernel: Kernel) -> dict:
    """Int rows of I_other (x) kernel: kernel (x) I_other conjugated by the braids."""
    braid_in = not (isinstance(other, Trivial) or isinstance(kernel.in_system, Trivial))
    braid_out = not (isinstance(other, Trivial) or isinstance(kernel.out_system, Trivial))
    swap_in = _braid(kernel.in_system, other) if braid_in else None
    swap_out = _braid(kernel.out_system, other) if braid_out else None
    rows = {}
    for x, row in _with_identity(kernel, other).items():
        x, flip_in = swap_in(x) if swap_in else (x, PLUS)
        out = {}
        for (y, tau), n in row.items():
            y, flip_out = swap_out(y) if swap_out else (y, PLUS)
            out[(y, flip_in * tau * flip_out)] = n
        rows[x] = out
    return rows


def _scaled(kernel: Kernel, num: int, den: int) -> tuple[dict, int]:
    """The int rows of `kernel` times num/den (num > 0), in canonical form."""
    rows = {a: {e: n * num for e, n in row.items()} for a, row in kernel.nums.items()}
    return _lowest(rows, kernel.den * den)


def parallel_oracle(k1: Kernel, k2: Kernel) -> Kernel:
    """k1 (x) k2 as (I (x) k2) o (k1 (x) I), I (x) k2 the braid-conjugate
    of k2 (x) I; under PARALLEL_DROP_TAU the left factor's new node keeps
    the input sign."""
    assert k1.mode is k2.mode
    for scalar, kernel in ((k1, k2), (k2, k1)):
        if isinstance(scalar.in_system, Trivial) and isinstance(scalar.out_system, Trivial):
            s = scalar.nums.get(0, {}).get((0, PLUS), 0)
            return Kernel._trusted(kernel.in_system, kernel.out_system,
                                   *(_scaled(kernel, s, scalar.den) if s else ({}, 1)))
    a, b, c, d = k1.in_system, k1.out_system, k2.in_system, k2.out_system
    drop_tau = faults.active_fault() == faults.PARALLEL_DROP_TAU
    out = compose_systems(b, d)
    rows = _composed(_identity_with(b, k2), _with_identity(k1, c, drop_tau),
                     isinstance(out, Trivial))
    return Kernel._trusted(compose_systems(a, c), out, *_lowest(rows, k1.den * k2.den))


def function_channel(fl: FunctionLabel, in_system: SystemTree,
                     out_system: SystemTree) -> Kernel:
    """The deterministic kernel i -> (h(i), xi(i)) with weight one."""
    a_labels = enumerate_pure_labels(in_system)
    b_labels = enumerate_pure_labels(out_system)
    rows = {a: {(b_labels[fl.h[i] - 1], fl.xi[i]): 1}
            for i, a in enumerate(a_labels)}
    return Kernel(in_system, out_system, rows)


def kernel_to_json(kernel: Kernel) -> dict:
    rows: dict[str, list] = {}
    for a, row in kernel.rows.items():
        entries = [{"to": label_to_str(b), "tau": tau, "w": fraction_to_str(w)}
                   for (b, tau), w in row.items()]
        entries.sort(key=lambda e: (e["to"], e["tau"]))
        rows[label_to_str(a)] = entries
    return {
        "mode": kernel.mode.value,
        "in": system_to_str(kernel.in_system),
        "out": system_to_str(kernel.out_system),
        "rows": dict(sorted(rows.items())),
    }


def kernel_from_json(doc) -> Kernel:
    return instrument_from_json({"branches": [doc]}).branches[0]


def instrument_to_json(instrument: Instrument) -> dict:
    return {
        "mode": instrument.in_system.mode.value,
        "branches": [kernel_to_json(k) for k in instrument.branches],
        "outcomes": outcomes_to_json(instrument.outcomes),
    }
