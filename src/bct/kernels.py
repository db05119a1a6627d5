"""Transformations as sign-flip kernels, instruments, and their calculus.

A kernel maps each input pure label to weighted (output label, tau) pairs,
tau in {-1,+1} being the sign flip exerted on whatever the system is paired
with.  Rows are sub-stochastic; a kernel is deterministic when every row
sums to one, atomic when it has a single nonzero entry, reversible when it
is a weight-one signed bijection of pure labels.

A kernel is stored on basis indices (see `labels.Coder`: a label's index is
its place in the canonical basis order, worked out by closed form): `nums`
maps an input index to {(output index, tau): int numerator}, all over one
positive denominator `den`, in canonical form (no zero numerator, no empty
row, and no factor common to `den` and every numerator), so equal kernels
hold equal ints.  The calculus below runs on these ints alone.  `rows` is a
read-only view of the same kernel keyed by label, with `Fraction` weights in
lowest terms built on each read, for the API, `serial` and reports.

A kernel acts at a subtree through the one regroup-apply engine,
`labels.act_rows`, and its image of a vector is `states.image`, which
steering by an effect runs on too.  A preparation (trivial input) splits the
fresh sign evenly (a scalar has the one sign +), which is exactly the state
composition rule read as a kernel.
Parallel composition is one rule on indices: input (i j)_s pairs the
entries (y1, tau1) of row i of k1 and (y2, tau2) of row j of k2, and goes
to ((y1 y2)_{s*tau1*tau2}, tau1), so the flip of k1 escapes and that of k2
is absorbed by the node; it equals (I (x) k2) o (k1 (x) I) built from the
extension above, with I (x) k2 the braid-conjugate of k2 (x) I.  It and
`_braid` read each output index by `labels.offsets`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence

from . import faults
from .labels import (
    PLUS,
    IntRow,
    IntRows,
    PureLabel,
    UNIT,
    act_rows,
    basis_size,
    coder,
    enumerate_pure_labels,
    label_text,
    label_to_str,
    node_signs,
    offsets,
)
from .states import (
    GeneralizedVector,
    StateVector,
    ONE,
    discriminating_instrument,
    image,
    int_coeffs,
    lowest_terms,
)
from .systems import (
    SystemTree,
    TheoryMode,
    Trivial,
    compose_systems,
    dimension,
    subtree_at,
)

Entry = tuple[PureLabel, int]
Rows = dict[PureLabel, dict[Entry, Fraction]]


@dataclass(frozen=True, eq=False)
class Kernel:
    """A kernel from `in_system` to `out_system`.

    The constructor takes label-keyed rows of `Fraction` (or int) weights,
    checks them and stores them as `nums` over `den` (see the module
    docstring); `rows` then reads them back as labels and `Fraction`s.
    """

    in_system: SystemTree
    out_system: SystemTree
    rows: Mapping[PureLabel, Mapping[Entry, Fraction]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.in_system.mode is not self.out_system.mode:
            raise ValueError("kernel endpoints must share a theory mode")
        ct = self.in_system.mode is TheoryMode.CT
        out_trivial = isinstance(self.out_system, Trivial)
        a_index, b_index = coder(self.in_system).index, coder(self.out_system).index
        weights: dict[tuple[int, int, int], Fraction | int] = {}
        for row_label, entries in self.rows.items():
            a = a_index(row_label)
            if a is None:
                raise ValueError(f"bad input label {label_text(row_label)}")
            for (out_label, tau), weight in entries.items():
                if weight == 0:
                    continue
                if tau not in (-1, 1):
                    raise ValueError("tau must be -1 or +1")
                if (ct or out_trivial) and tau != 1:
                    raise ValueError("tau is fixed +1 for effects and in CT mode")
                b = b_index(out_label)
                if b is None:
                    raise ValueError(f"bad output label {label_text(out_label)}")
                weights[(a, b, tau)] = weight
        ints, den = int_coeffs(weights)
        nums: dict[int, IntRow] = {}
        for (a, b, tau), n in ints.items():
            nums.setdefault(a, {})[(b, tau)] = n
        _check_weights(self.in_system, nums, den)
        self._store(nums, den)

    def _store(self, nums: IntRows, den: int) -> None:
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "rows", _RowsView(nums, den, self.in_system,
                                                   self.out_system))

    @classmethod
    def _trusted(cls, in_system: SystemTree, out_system: SystemTree,
                 nums: IntRows, den: int) -> Kernel:
        """A kernel the calculus built from validated kernels, or a seeded
        generator from its draws.

        Composition, extension, transport and inversion keep every invariant
        the constructor checks, so nothing is checked here; `nums` over
        `den` must already be in canonical form.  Rows given as a read-only
        mapping other than a dict (a rule that computes each row, such as
        the universal processor's) owe those invariants themselves.
        Anything built from outside input goes through the constructor.
        """
        if in_system.mode is not out_system.mode:
            raise ValueError("kernel endpoints must share a theory mode")
        kernel = object.__new__(cls)
        object.__setattr__(kernel, "in_system", in_system)
        object.__setattr__(kernel, "out_system", out_system)
        kernel._store(nums, den)
        return kernel

    @classmethod
    def _checked(cls, in_system: SystemTree, out_system: SystemTree,
                 nums: IntRows, den: int) -> Kernel:
        """`_trusted` after the constructor's weight checks: for sums and
        scalings of valid kernels, whose labels are valid but whose weights
        may not be."""
        _check_weights(in_system, nums, den)
        return cls._trusted(in_system, out_system, nums, den)

    @property
    def mode(self) -> TheoryMode:
        return self.in_system.mode

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Kernel):
            return NotImplemented
        return kernels_equal(self, other)

    __hash__ = None  # type: ignore[assignment]


def _check_weights(in_system: SystemTree, nums: IntRows, den: int) -> None:
    """The constructor's weight rules, on int rows over `den`: no negative
    weight, and no row summing above one."""
    for a, row in nums.items():
        if any(n < 0 for n in row.values()):
            raise ValueError("kernel weights must be non-negative")
        total = sum(row.values())
        if total > den:
            raise ValueError(f"row sum {Fraction(total, den)} exceeds 1 "
                             f"at {label_to_str(coder(in_system).label(a))}")


class _RowsView(Mapping[PureLabel, dict[Entry, Fraction]]):
    """A kernel's rows keyed by label, as `Fraction`s built on each read.

    It holds the kernel's ints and systems, not the kernel, so that a kernel
    and its view form no reference cycle and are freed as soon as unused.
    """

    __slots__ = ("_nums", "_den", "_in", "_out")

    def __init__(self, nums: IntRows, den: int, in_system: SystemTree,
                 out_system: SystemTree) -> None:
        self._nums, self._den, self._in, self._out = nums, den, in_system, out_system

    def __getitem__(self, label: PureLabel) -> dict[Entry, Fraction]:
        a = coder(self._in).index(label)
        row = None if a is None else self._nums.get(a)
        if row is None:
            raise KeyError(label)
        target, den = coder(self._out), self._den
        return {(target.label(b), tau): Fraction(n, den) for (b, tau), n in row.items()}

    def __iter__(self) -> Iterator[PureLabel]:
        return map(coder(self._in).label, self._nums)

    def __len__(self) -> int:
        return len(self._nums)

    def __repr__(self) -> str:
        if len(self) > 64:
            return f"<{len(self)} rows>"
        return repr(dict(self.items()))


def _lowest(nums: dict[int, IntRow], den: int) -> tuple[dict[int, IntRow], int]:
    """Int rows over the positive `den` with the factor common to all the
    ints divided out (the rows hold no zero)."""
    g = gcd(den, *(n for row in nums.values() for n in row.values()))
    if g == 1:
        return nums, den
    return {a: {e: n // g for e, n in row.items()} for a, row in nums.items()}, den // g


def kernels_equal(a: Kernel, b: Kernel) -> bool:
    return (a.in_system == b.in_system and a.out_system == b.out_system
            and a.den == b.den and a.nums == b.nums)


def identity_kernel(system: SystemTree) -> Kernel:
    rows = {i: {(i, PLUS): 1} for i in range(basis_size(system))}
    return Kernel._trusted(system, system, rows, 1)


def null_kernel(in_system: SystemTree, out_system: SystemTree) -> Kernel:
    return Kernel(in_system, out_system, {})


def scalar_kernel(mode: TheoryMode, value: Fraction) -> Kernel:
    t = Trivial(mode)
    return Kernel(t, t, {UNIT: {(UNIT, 1): Fraction(value)}})


def reversible_kernel(system_in: SystemTree, system_out: SystemTree,
                      perm: Mapping[PureLabel, PureLabel],
                      signs: Mapping[PureLabel, int] | None = None) -> Kernel:
    """Signed permutation of pure labels (the reversible transformations)."""
    rows: Rows = {}
    for src, dst in perm.items():
        tau = 1 if signs is None else signs.get(src, 1)
        if system_in.mode is TheoryMode.CT:
            tau = 1
        rows[src] = {(dst, tau): ONE}
    kernel = Kernel(system_in, system_out, rows)
    if not is_reversible(kernel):
        raise ValueError("permutation table is not a reversible kernel")
    return kernel


def braid_kernel(a: SystemTree, b: SystemTree) -> Kernel:
    """The swap AB -> BA; flips the environment by the braided node's sign."""
    ab = compose_systems(a, b)
    if isinstance(a, Trivial) or isinstance(b, Trivial):
        return identity_kernel(ab)
    swap = _braid(a, b)
    rows = {i: {swap(i): 1} for i in range(basis_size(ab))}
    return Kernel._trusted(ab, compose_systems(b, a), rows, 1)


def _braid(a: SystemTree, b: SystemTree) -> Callable[[int], tuple[int, int]]:
    """The braid rule (x y)_s -> ((y x)_s, s) on the basis indices of the
    node AB of two non-trivial systems: index -> (index in BA, flip).

    Kernel-level braids use this rule directly, so the label-level BRAID
    move (and its fault) stays confined to the regrouping calculus.
    """
    split = coder(compose_systems(a, b)).split
    left, right, step = offsets(b, a)

    def swap(index: int) -> tuple[int, int]:
        i, j, sign = split(index)
        return left(j) + right(i) + (step if sign > 0 else 0), sign
    return swap


def state_kernel(rho: StateVector) -> Kernel:
    """A state as a kernel from the trivial system.

    The tau of each entry is the fresh pairing sign toward the environment;
    preparing a pure label splits it evenly, matching state composition (a
    scalar opens no node: one sign, +).
    """
    mode = rho.system.mode
    signs = (PLUS,) if isinstance(rho.system, Trivial) else node_signs(mode)
    row = {(x, tau): n for x, n in rho.nums.items() for tau in signs}
    return Kernel._checked(Trivial(mode), rho.system,
                           *_lowest({0: row} if row else {}, rho.den * len(signs)))


# ---------------------------------------------------------------------------
# Composition


def sequential_compose(second: Kernel, first: Kernel) -> Kernel:
    """(second o first); internal signs flip independently, taus multiply.

    An effect discards the pairing sign, so into a trivial output tau is +1.
    """
    if first.out_system != second.in_system:
        raise ValueError("systems do not chain")
    rows = _composed(second.nums, first.nums, isinstance(second.out_system, Trivial))
    return Kernel._trusted(first.in_system, second.out_system,
                           *_lowest(rows, first.den * second.den))


def _composed(second: IntRows, first: IntRows, effect: bool) -> dict[int, IntRow]:
    """The int rows of (second o first), over the product of their
    denominators; into a trivial output (`effect`) tau is +1."""
    rows: dict[int, IntRow] = {}
    for a, row1 in first.items():
        out: IntRow = {}
        for (b, tau1), n1 in row1.items():
            row2 = second.get(b)
            if row2 is None:
                continue
            for (c, tau2), n2 in row2.items():
                key = (c, PLUS if effect else tau1 * tau2)
                out[key] = out[key] + n1 * n2 if key in out else n1 * n2
        if out:
            rows[a] = out
    return rows


def parallel_compose(k1: Kernel, k2: Kernel) -> Kernel:
    """k1 (x) k2, in one pass over the basis of A (x) C.

    Input (i j)_s pairs each entry (y1, tau1): n1 of row i of k1 with each
    entry (y2, tau2): n2 of row j of k2, and the pair goes to
    ((y1 y2)_u, tau1) with u = s * tau1 * tau2 and weight n1 * n2: the flip
    of the left factor escapes and that of the right one is absorbed by the
    node.  A trivial factor has index 0 and no node, so with A trivial the
    input x is (0, x, +) and with C trivial (x, 0, +); into a trivial D the
    pair goes to (y1, tau1), and into a trivial B to (y2, u), summed.  With
    C trivial k2 prepares a fresh node, whose sign is tau2 alone (u leaves
    tau1 out), and so does k1 (x) I under PARALLEL_DROP_TAU when A and B are
    non-trivial.  In CT every sign and flip is +.  A scalar factor needs no
    case of its own: these rules send each entry of the other factor to
    itself, times the scalar.

    The inputs (i, j, s) come from the index walk `Coder.splits`, and each
    factor's rows are rewritten once into `labels.offsets` of B (x) D:
    (y1 y2)_u is at left(y1) + right(y2), plus step when u is +.
    """
    if k1.mode is not k2.mode:
        raise ValueError("cannot compose kernels from different theory modes")
    a, b, c, d = k1.in_system, k1.out_system, k2.in_system, k2.out_system
    ac, bd = compose_systems(a, c), compose_systems(b, d)
    size = basis_size(ac)
    if isinstance(a, Trivial):
        inputs: Iterable[tuple[int, int, int]] = zip(repeat(0), range(size), repeat(PLUS))
    elif isinstance(c, Trivial):
        inputs = zip(range(size), repeat(0), repeat(PLUS))
    else:
        inputs = coder(ac).splits()
    without_tau1 = isinstance(c, Trivial) or (
        faults.active_fault() == faults.PARALLEL_DROP_TAU
        and not (isinstance(a, Trivial) or isinstance(b, Trivial)))
    # with B trivial and D not, the output is D's and u its flip; else tau1 is
    only_d = isinstance(b, Trivial) and not isinstance(d, Trivial)
    left, right, step = offsets(b, d)
    rows1 = {i: [(left(y), tau, n) for (y, tau), n in row.items()]
             for i, row in k1.nums.items()}
    rows2 = {j: [(right(y), tau, n) for (y, tau), n in row.items()]
             for j, row in k2.nums.items()}
    rows: dict[int, IntRow] = {}
    for x, (i, j, s) in enumerate(inputs):
        row1, row2 = rows1.get(i), rows2.get(j)
        if not (row1 and row2):
            continue
        out: IntRow = {}
        for base, tau1, n1 in row1:
            sign = s if without_tau1 else s * tau1
            for r, tau2, n2 in row2:
                u = sign * tau2
                key = (base + r + (step if u > 0 else 0), u if only_d else tau1)
                n = n1 * n2
                out[key] = out[key] + n if key in out else n
        rows[x] = out
    return Kernel._trusted(ac, bd, *_lowest(rows, k1.den * k2.den))


def add_kernels(first: Kernel, *rest: Kernel) -> Kernel:
    """The entrywise sum of kernels on the same systems, checked once."""
    for kernel in rest:
        if kernel.in_system != first.in_system or kernel.out_system != first.out_system:
            raise ValueError("system mismatch")
    den = lcm(first.den, *(kernel.den for kernel in rest))
    rows: dict[int, IntRow] = {}
    for kernel in (first, *rest):
        scale = den // kernel.den
        for a, row in kernel.nums.items():
            target = rows.setdefault(a, {})
            for entry, n in row.items():
                n *= scale
                target[entry] = target[entry] + n if entry in target else n
    return Kernel._checked(first.in_system, first.out_system, *_lowest(rows, den))


# ---------------------------------------------------------------------------
# Application


def extend_at(kernel: Kernel, system: SystemTree, at: str) -> Kernel:
    """The kernel acting on the subtree of `system` at `at`, as a kernel.

    Environment flips contributed by the regrouping braids and by the kernel
    itself are tracked exactly, so the result composes correctly.
    """
    if kernel.in_system != subtree_at(system, at):
        raise ValueError("kernel input does not match the selected subtree")
    if at == "":
        return kernel
    out, rows = act_rows(kernel.nums, kernel.out_system, system, at,
                         range(basis_size(system)))
    return Kernel._trusted(system, out, *_lowest(rows, kernel.den))


def apply(kernel: Kernel, rho: GeneralizedVector, at: str = "") -> GeneralizedVector:
    """Apply a kernel at a subtree of the state's system: its image
    (`states.image`), with every flip summed out.  A state maps to a state,
    valid because the rows are sub-stochastic; any other vector of the span
    maps to a `GeneralizedVector`, whose positivity and weight are left to
    the caller to judge."""
    if kernel.in_system != subtree_at(rho.system, at):
        raise ValueError("kernel input does not match the selected subtree")
    cls = StateVector if isinstance(rho, StateVector) else GeneralizedVector
    return cls._trusted(*image(kernel.nums, kernel.den, kernel.out_system, rho, at))


# ---------------------------------------------------------------------------
# Classification predicates


def is_deterministic(kernel: Kernel) -> bool:
    """Row sums all equal one (occurs with certainty on every input).

    Row indices are distinct basis indices, so a row on every input is a
    count: as many rows as the input dimension.
    """
    den = kernel.den
    return (len(kernel.nums) == dimension(kernel.in_system)
            and all(sum(row.values()) == den for row in kernel.nums.values()))


def is_atomic(kernel: Kernel) -> bool:
    """A single nonzero entry; preparations count distinct target labels."""
    entries = [entry for row in kernel.nums.values() for entry in row]
    if isinstance(kernel.in_system, Trivial):
        return len({b for b, _tau in entries}) == 1
    return len(entries) == 1


def is_reversible(kernel: Kernel) -> bool:
    """Weight-one signed bijection of pure labels (the permutation form).

    Counted like `is_deterministic`: a row on every input (rows are never
    empty), d entries in all, each of weight one, and d distinct targets.
    """
    d = dimension(kernel.in_system)
    if dimension(kernel.out_system) != d or len(kernel.nums) != d:
        return False
    entries = [entry for row in kernel.nums.values() for entry in row.items()]
    return (len(entries) == d and all(n == kernel.den for _, n in entries)
            and len({b for (b, _tau), _n in entries}) == d)


# ---------------------------------------------------------------------------
# Instruments


@dataclass(frozen=True)
class Instrument:
    branches: tuple[Kernel, ...]
    outcomes: tuple[Hashable, ...] = ()

    def __post_init__(self) -> None:
        if not self.branches:
            raise ValueError("an instrument needs at least one branch")
        first = self.branches[0]
        for k in self.branches:
            if k.in_system != first.in_system or k.out_system != first.out_system:
                raise ValueError("branches must share input and output systems")
        if not self.outcomes:
            object.__setattr__(self, "outcomes", tuple(range(len(self.branches))))
        elif len(self.outcomes) != len(self.branches):
            raise ValueError("one outcome label per branch")
        elif len(set(self.outcomes)) != len(self.outcomes):
            raise ValueError("outcome labels must be distinct")

    @property
    def in_system(self) -> SystemTree:
        return self.branches[0].in_system

    @property
    def out_system(self) -> SystemTree:
        return self.branches[0].out_system

    def total(self) -> Kernel:
        return add_kernels(*self.branches)


def validate_instrument(branches: Sequence[Kernel] | Instrument) -> bool:
    """Branches are valid kernels whose sum is deterministic."""
    if isinstance(branches, Instrument):
        branches = branches.branches
    if not branches:
        return False
    try:
        return is_deterministic(add_kernels(*branches))
    except ValueError:
        return False


def coarse_grain(instrument: Instrument, partition: Sequence[Sequence[int]]) -> Instrument:
    """Merge outcome blocks by summing their kernels."""
    indices = [i for block in partition for i in block]
    if sorted(indices) != list(range(len(instrument.branches))):
        raise ValueError("partition must cover every outcome exactly once")
    branches = []
    outcomes = []
    for block in partition:
        branches.append(add_kernels(null_kernel(instrument.in_system,
                                                instrument.out_system),
                                    *(instrument.branches[i] for i in block)))
        outcomes.append(tuple(instrument.outcomes[i] for i in block))
    return Instrument(tuple(branches), tuple(outcomes))


def conditional_compose(first: Instrument,
                        chooser: Callable[[Hashable], Instrument]) -> Instrument:
    """Outcome-dependent sequel: branches {B^(x)_y o A_x} labelled (x, y)."""
    branches: list[Kernel] = []
    outcomes: list[Hashable] = []
    for x, kx in zip(first.outcomes, first.branches):
        follow = chooser(x)
        if follow is None:
            raise ValueError(f"chooser undefined on outcome {x!r}")
        if follow.in_system != first.out_system:
            raise ValueError("conditioned instrument does not chain")
        for y, ky in zip(follow.outcomes, follow.branches):
            branches.append(sequential_compose(ky, kx))
            outcomes.append((x, y))
    return Instrument(tuple(branches), tuple(outcomes))


def discriminating_measurement(system: SystemTree) -> Instrument:
    """Measure-and-forget: one effect branch per pure label, the effects of
    `states.discriminating_instrument` read as kernels into the trivial system."""
    trivial = Trivial(system.mode)
    branches = tuple(
        Kernel._trusted(system, trivial, {a: {(0, PLUS): n} for a, n in e.nums.items()}, e.den)
        for e in discriminating_instrument(system))
    return Instrument(branches, tuple(enumerate_pure_labels(system)))


# ---------------------------------------------------------------------------
# Seeded random generators (documented test plumbing; dyadic weights)
#
# Every draw is an int: a split is numerators over 16, a scaled one (a
# sub-normalized state, a `random_kernel` row, a branch's share) over 256.

_GRAIN = 16


def _dyadic_split(rng: random.Random, parts: int) -> list[int]:
    """A dyadic probability vector of the given length: numerators over
    16 summing to 16."""
    cuts = sorted(rng.randrange(_GRAIN + 1) for _ in range(parts - 1))
    return [c - previous for previous, c in zip([0, *cuts], [*cuts, _GRAIN])]


def random_state(rng: random.Random, system: SystemTree,
                 deterministic: bool = True) -> StateVector:
    weights = _dyadic_split(rng, basis_size(system))
    den = _GRAIN
    if not deterministic:
        weights = [w * rng.randrange(1, _GRAIN + 1) for w in weights]
        den *= _GRAIN
    return StateVector._trusted(system, *lowest_terms(dict(enumerate(weights)), den))


def _random_rows(rng: random.Random, in_system: SystemTree,
                 out_system: SystemTree) -> dict[int, IntRow]:
    """The int rows, over 16, of a random deterministic kernel: on every
    input index a dyadic distribution over one to three (output index, tau)
    targets."""
    inputs = basis_size(in_system)
    taus = (PLUS,) if isinstance(out_system, Trivial) else node_signs(in_system.mode)
    targets = [(b, t) for b in range(basis_size(out_system)) for t in taus]
    rows: dict[int, IntRow] = {}
    for a in range(inputs):
        support = rng.sample(targets, k=min(len(targets), rng.randrange(1, 4)))
        rows[a] = {e: n for e, n in zip(support, _dyadic_split(rng, len(support))) if n}
    return rows


def random_kernel(rng: random.Random, in_system: SystemTree,
                  out_system: SystemTree) -> Kernel:
    """Sub-stochastic in general; rows are scaled dyadic distributions."""
    rows = {}
    for a, row in _random_rows(rng, in_system, out_system).items():
        factor = rng.randrange(0, _GRAIN + 1)
        if factor:
            rows[a] = {entry: n * factor for entry, n in row.items()}
    return Kernel._trusted(in_system, out_system, *_lowest(rows, _GRAIN * _GRAIN))


def random_instrument(rng: random.Random, in_system: SystemTree,
                      out_system: SystemTree, branches: int = 2) -> Instrument:
    """Split a random channel's entries among branches; sum stays deterministic."""
    rows_per_branch: list[dict[int, IntRow]] = [{} for _ in range(branches)]
    for a, row in _random_rows(rng, in_system, out_system).items():
        for entry, n in row.items():
            for i, share in enumerate(_dyadic_split(rng, branches)):
                if share:
                    rows_per_branch[i].setdefault(a, {})[entry] = n * share
    return Instrument(tuple(Kernel._trusted(in_system, out_system,
                                            *_lowest(rows, _GRAIN * _GRAIN))
                            for rows in rows_per_branch))
