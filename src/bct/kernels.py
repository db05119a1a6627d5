"""Transformations as sign-flip kernels, instruments, and their calculus.

A kernel maps each input pure label to weighted (output label, tau) pairs,
tau in {-1,+1} being the sign flip exerted on whatever the system is paired
with.  Rows are sub-stochastic; a kernel is deterministic when every row
sums to one, atomic when it has a single nonzero entry, reversible when it
is a weight-one signed bijection of pure labels.

Applying a kernel at a subtree works through the regrouping calculus: bring
the subtree to the head of a bipartition, replace (a e)_u by (b e)_{tau*u},
and regroup back.  Effects (trivial output) discard the pairing sign;
preparations (trivial input) split it evenly, which is exactly the state
composition rule read as a kernel.  Parallel composition is derived from
the same extension: k1 (x) k2 = (I (x) k2) o (k1 (x) I), with I (x) k2 the
braid-conjugate of k2 (x) I.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Callable, Hashable, Iterator, Mapping, Sequence

from . import faults
from .labels import (
    NodeLabel,
    PLUS,
    PureLabel,
    UNIT,
    Transport,
    enumerate_pure_labels,
    invert_moves,
    label_matches,
    label_sort_key,
    move_table,
    node_signs,
    regroup,
)
from .states import GeneralizedVector, StateVector, ZERO, ONE, lowest_terms
from .systems import (
    SystemTree,
    TheoryMode,
    Trivial,
    compose_systems,
    delete_at,
    dimension,
    replace_at,
    subtree_at,
)

Entry = tuple[PureLabel, int]
Rows = dict[PureLabel, dict[Entry, Fraction]]


@dataclass(frozen=True)
class Kernel:
    in_system: SystemTree
    out_system: SystemTree
    rows: Mapping[PureLabel, dict[Entry, Fraction]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.in_system.mode is not self.out_system.mode:
            raise ValueError("kernel endpoints must share a theory mode")
        ct = self.in_system.mode is TheoryMode.CT
        out_trivial = isinstance(self.out_system, Trivial)
        clean: Rows = {}
        for row_label, entries in self.rows.items():
            if not label_matches(self.in_system, row_label):
                raise ValueError(f"bad input label {row_label}")
            row: dict[Entry, Fraction] = {}
            total = ZERO
            for (out_label, tau), weight in entries.items():
                if not isinstance(weight, Fraction):
                    weight = Fraction(weight)
                if weight < 0:
                    raise ValueError("kernel weights must be non-negative")
                if weight == 0:
                    continue
                if tau not in (-1, 1):
                    raise ValueError("tau must be -1 or +1")
                if (ct or out_trivial) and tau != 1:
                    raise ValueError("tau is fixed +1 for effects and in CT mode")
                if not label_matches(self.out_system, out_label):
                    raise ValueError(f"bad output label {out_label}")
                row[(out_label, tau)] = weight
                total += weight
            if total > 1:
                raise ValueError(f"row sum {total} exceeds 1 at {row_label}")
            if row:
                clean[row_label] = row
        object.__setattr__(self, "rows", clean)

    @classmethod
    def _trusted(cls, in_system: SystemTree, out_system: SystemTree,
                 rows: Mapping[PureLabel, dict[Entry, Fraction]]) -> Kernel:
        """A kernel the calculus built from validated kernels.

        Composition, extension, transport and inversion keep every invariant
        the constructor checks, so only zero weights and empty rows are
        dropped here.  Rows given as a read-only mapping other than a dict
        (a rule that computes each row, such as the universal processor's)
        owe those invariants themselves and are kept as they are.  Anything
        built from outside input goes through the constructor.
        """
        if in_system.mode is not out_system.mode:
            raise ValueError("kernel endpoints must share a theory mode")
        kernel = object.__new__(cls)
        object.__setattr__(kernel, "in_system", in_system)
        object.__setattr__(kernel, "out_system", out_system)
        object.__setattr__(kernel, "rows", rows if not isinstance(rows, dict) else {
            a: clean for a, row in rows.items()
            if (clean := {entry: w for entry, w in row.items() if w})})
        return kernel

    @property
    def mode(self) -> TheoryMode:
        return self.in_system.mode

    def row(self, label: PureLabel) -> dict[Entry, Fraction]:
        return self.rows.get(label, {})

    def row_sum(self, label: PureLabel) -> Fraction:
        return sum(self.row(label).values(), ZERO)


def kernels_equal(a: Kernel, b: Kernel) -> bool:
    return (a.in_system == b.in_system and a.out_system == b.out_system
            and a.rows == b.rows)


def identity_kernel(system: SystemTree) -> Kernel:
    rows = {label: {(label, 1): ONE} for label in enumerate_pure_labels(system)}
    return Kernel._trusted(system, system, rows)


def null_kernel(in_system: SystemTree, out_system: SystemTree) -> Kernel:
    return Kernel(in_system, out_system, {})


def scalar_kernel(mode: TheoryMode, value: Fraction) -> Kernel:
    t = Trivial(mode)
    return Kernel(t, t, {UNIT: {(UNIT, 1): Fraction(value)}})


def atomic_kernel(in_system: SystemTree, out_system: SystemTree, source: PureLabel,
                  target: PureLabel, tau: int = 1, weight: Fraction = ONE) -> Kernel:
    return Kernel(in_system, out_system, {source: {(target, tau): Fraction(weight)}})


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
    ba = compose_systems(b, a)
    if isinstance(a, Trivial) or isinstance(b, Trivial):
        return identity_kernel(ab)
    rows = {label: {_braid_entry(label): ONE} for label in enumerate_pure_labels(ab)}
    return Kernel._trusted(ab, ba, rows)


def _braid_entry(label: PureLabel) -> Entry:
    """The braid rule (x y)_s -> ((y x)_s, s).

    Kernel-level braids use this rule directly, so the label-level BRAID
    move (and its fault) stays confined to the regrouping calculus.
    """
    assert isinstance(label, NodeLabel)
    return NodeLabel(label.right, label.left, label.sign), label.sign


def state_kernel(rho: StateVector) -> Kernel:
    """A state as a kernel from the trivial system.

    The tau of each entry is the fresh pairing sign toward the environment;
    preparing a pure label splits it evenly, matching state composition.
    """
    mode = rho.system.mode
    if isinstance(rho.system, Trivial):
        return scalar_kernel(mode, rho[UNIT])
    signs = node_signs(mode)
    den = rho.den * len(signs)
    row = {(label, tau): Fraction(n, den) for label, n in rho.nums.items() for tau in signs}
    return Kernel(Trivial(mode), rho.system, {UNIT: row})


def effect_kernel(effect: GeneralizedVector) -> Kernel:
    """An effect as a kernel to the trivial system (tau fixed +1)."""
    rows = {label: {(UNIT, 1): value} for label, value in effect.coeffs.items()}
    return Kernel(effect.system, Trivial(effect.system.mode), rows)


# ---------------------------------------------------------------------------
# Composition


def sequential_compose(second: Kernel, first: Kernel) -> Kernel:
    """(second o first); internal signs flip independently, taus multiply.

    An effect discards the pairing sign, so into a trivial output tau is +1.
    """
    if first.out_system != second.in_system:
        raise ValueError("systems do not chain")
    effect = isinstance(second.out_system, Trivial)
    rows: Rows = {}
    for a, row1 in first.rows.items():
        out: dict[Entry, Fraction] = {}
        for (b, tau1), w1 in row1.items():
            for (c, tau2), w2 in second.row(b).items():
                key = (c, PLUS if effect else tau1 * tau2)
                out[key] = out[key] + w1 * w2 if key in out else w1 * w2
        if out:
            rows[a] = out
    return Kernel._trusted(first.in_system, second.out_system, rows)


def _with_identity(kernel: Kernel, other: SystemTree, drop_tau: bool = False) -> Rows:
    """Rows of kernel (x) I_other: the kernel extended at the head of (A other)."""
    if isinstance(other, Trivial):
        return kernel.rows
    if not isinstance(kernel.in_system, Trivial):
        return _extension_rows(kernel, compose_systems(kernel.in_system, other), "0",
                               drop_tau)
    # a preparation opens a fresh node whose sign is the emitted flip
    return {o: {(NodeLabel(b, o, tau), tau): w for (b, tau), w in kernel.row(UNIT).items()}
            for o in enumerate_pure_labels(other)}


def _identity_with(other: SystemTree, kernel: Kernel) -> Rows:
    """Rows of I_other (x) kernel: kernel (x) I_other conjugated by the braids."""
    braid_in = not (isinstance(other, Trivial) or isinstance(kernel.in_system, Trivial))
    braid_out = not (isinstance(other, Trivial) or isinstance(kernel.out_system, Trivial))
    rows: Rows = {}
    for x, row in _with_identity(kernel, other).items():
        label, flip_in = _braid_entry(x) if braid_in else (x, PLUS)
        out: dict[Entry, Fraction] = {}
        for (y, tau), w in row.items():
            y, flip_out = _braid_entry(y) if braid_out else (y, PLUS)
            out[(y, flip_in * tau * flip_out)] = w
        rows[label] = out
    return rows


def parallel_compose(k1: Kernel, k2: Kernel) -> Kernel:
    """k1 (x) k2, derived as (I (x) k2) o (k1 (x) I) through the braiding."""
    if k1.mode is not k2.mode:
        raise ValueError("cannot compose kernels from different theory modes")
    if isinstance(k1.in_system, Trivial) and isinstance(k1.out_system, Trivial):
        return scale_kernel(k2, k1.row(UNIT).get((UNIT, 1), ZERO))
    if isinstance(k2.in_system, Trivial) and isinstance(k2.out_system, Trivial):
        return scale_kernel(k1, k2.row(UNIT).get((UNIT, 1), ZERO))
    a, b, c, d = k1.in_system, k1.out_system, k2.in_system, k2.out_system
    drop_tau = faults.active_fault() == faults.PARALLEL_DROP_TAU
    left = Kernel._trusted(compose_systems(a, c), compose_systems(b, c),
                           _with_identity(k1, c, drop_tau))
    right = Kernel._trusted(compose_systems(b, c), compose_systems(b, d),
                            _identity_with(b, k2))
    return sequential_compose(right, left)


def scale_kernel(kernel: Kernel, factor: Fraction) -> Kernel:
    rows = {a: {entry: w * factor for entry, w in row.items()}
            for a, row in kernel.rows.items()}
    return Kernel(kernel.in_system, kernel.out_system, rows)


def add_kernels(first: Kernel, *rest: Kernel) -> Kernel:
    """The entrywise sum of kernels on the same systems, validated once."""
    rows: Rows = {label: dict(row) for label, row in first.rows.items()}
    for kernel in rest:
        if kernel.in_system != first.in_system or kernel.out_system != first.out_system:
            raise ValueError("system mismatch")
        for label, row in kernel.rows.items():
            target = rows.setdefault(label, {})
            for entry, w in row.items():
                target[entry] = target[entry] + w if entry in target else w
    return Kernel(first.in_system, first.out_system, rows)


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
    return Kernel._trusted(system, _result_system(kernel, system, at),
                           _extension_rows(kernel, system, at))


def _extension_rows(kernel: Kernel, system: SystemTree, at: str,
                    drop_tau: bool = False) -> Rows:
    moves = regroup(system, at)
    there, back = move_table(moves), move_table(invert_moves(moves))
    rows: Rows = {}
    for label in enumerate_pure_labels(system):
        out: dict[Entry, Fraction] = {}
        for key, w in _act_at(kernel, label, there, back, drop_tau):
            out[key] = out[key] + w if key in out else w
        if out:
            rows[label] = out
    return rows


def _result_system(kernel: Kernel, system: SystemTree, at: str) -> SystemTree:
    if isinstance(kernel.out_system, Trivial):
        return delete_at(system, at)
    return replace_at(system, at, kernel.out_system)


def _act_at(kernel: Kernel, label: PureLabel, there: Transport, back: Transport,
            drop_tau: bool = False) -> Iterator[tuple[Entry, Fraction]]:
    """One input label through `kernel` at the subtree that `there` regroups.

    Regroup the label to (a e)_u, replace it by (b e)_{tau*u}, and regroup
    back; yields ((output label, environment flip), weight).  An effect at
    the head leaves e, and the pairing sign u becomes the flip.  With
    `drop_tau` the new node keeps the sign u (the PARALLEL_DROP_TAU fault).
    """
    moved, flip = there[label]
    assert isinstance(moved, NodeLabel)
    a, rest, u = moved.left, moved.right, moved.sign
    bct = kernel.mode is TheoryMode.BCT
    if isinstance(kernel.out_system, Trivial):
        for w in kernel.row(a).values():
            yield (rest, flip * u if bct else PLUS), w
        return
    for (b, tau), w in kernel.row(a).items():
        final, flip_back = back[NodeLabel(b, rest, u if drop_tau else tau * u)]
        yield (final, flip * tau * flip_back if bct else PLUS), w


def apply(kernel: Kernel, rho: GeneralizedVector, at: str = "") -> GeneralizedVector:
    """Apply a kernel at a subtree of the state's system.

    On the full state environment flips are unobservable; when the output is
    trivial (an effect) the pairing sign is discarded, and when the whole
    tree is consumed tau is marginalized.  A state maps to a state, valid
    because the rows are sub-stochastic; any other vector of the span maps
    to a `GeneralizedVector`, whose positivity and weight are left to the
    caller to judge.
    """
    if kernel.in_system != subtree_at(rho.system, at):
        raise ValueError("kernel input does not match the selected subtree")
    image = StateVector if isinstance(rho, StateVector) else GeneralizedVector
    if at == "":
        system = kernel.out_system
        terms = [(b, w, n) for label, n in rho.nums.items()
                 for (b, _tau), w in kernel.row(label).items()]
    else:
        system = _result_system(kernel, rho.system, at)
        moves = regroup(rho.system, at)
        there, back = move_table(moves), move_table(invert_moves(moves))
        terms = [(b, w, n) for label, n in rho.nums.items()
                 for (b, _flip), w in _act_at(kernel, label, there, back)]
    # each weight's numerator scaled into one output denominator
    scale = lcm(*(w.denominator for _b, w, _n in terms))
    out: dict[PureLabel, int] = {}
    for b, w, n in terms:
        v = w.numerator * (scale // w.denominator) * n
        out[b] = out[b] + v if b in out else v
    return image._trusted(system, *lowest_terms(out, rho.den * scale))


# ---------------------------------------------------------------------------
# Classification predicates


def is_deterministic(kernel: Kernel) -> bool:
    """Row sums all equal one (occurs with certainty on every input).

    Row labels are validated and distinct, so a row on every input is a
    count: as many rows as the input dimension.
    """
    return (len(kernel.rows) == dimension(kernel.in_system)
            and all(sum(row.values()) == 1 for row in kernel.rows.values()))


def is_atomic(kernel: Kernel) -> bool:
    """A single nonzero entry; preparations count distinct target labels."""
    entries = [(a, e) for a, row in kernel.rows.items() for e in row]
    if isinstance(kernel.in_system, Trivial):
        return len({out_label for _, (out_label, _) in entries}) == 1
    return len(entries) == 1


def is_reversible(kernel: Kernel) -> bool:
    """Weight-one signed bijection of pure labels (the permutation form).

    Counted like `is_deterministic`: a row on every input (rows are never
    empty), d entries in all, each of weight one, and d distinct targets.
    """
    d = dimension(kernel.in_system)
    if dimension(kernel.out_system) != d or len(kernel.rows) != d:
        return False
    entries = [entry for row in kernel.rows.values() for entry in row.items()]
    return (len(entries) == d and all(w == 1 for _, w in entries)
            and len({b for (b, _tau), _w in entries}) == d)


def invert_reversible(kernel: Kernel) -> Kernel:
    """Inverse of a signed permutation; the same flips cancel on composition."""
    if not is_reversible(kernel):
        raise ValueError("only reversible kernels invert")
    rows: Rows = {}
    for a, row in kernel.rows.items():
        ((b, tau), _weight), = row.items()
        rows[b] = {(a, tau): ONE}
    return Kernel._trusted(kernel.out_system, kernel.in_system, rows)


def atomic_decomposition(kernel: Kernel) -> list[Kernel]:
    """Split into one atomic kernel per nonzero entry; parts re-sum exactly."""
    if isinstance(kernel.in_system, Trivial):
        raise ValueError("preparations do not decompose entrywise")
    parts = []
    for a in sorted(kernel.rows, key=label_sort_key):
        for (b, tau), w in sorted(kernel.rows[a].items(),
                                  key=lambda item: (label_sort_key(item[0][0]),
                                                    item[0][1])):
            parts.append(Kernel(kernel.in_system, kernel.out_system,
                                {a: {(b, tau): w}}))
    return parts


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
    """Measure-and-forget: one effect branch per pure label."""
    basis = enumerate_pure_labels(system)
    branches = tuple(Kernel(system, Trivial(system.mode), {label: {(UNIT, 1): ONE}})
                     for label in basis)
    return Instrument(branches, tuple(basis))


# ---------------------------------------------------------------------------
# Seeded random generators (documented test plumbing; dyadic weights)


def _dyadic_split(rng: random.Random, parts: int, grain: int = 16) -> list[Fraction]:
    """A dyadic probability vector of the given length summing to one."""
    cuts = sorted(rng.randrange(grain + 1) for _ in range(parts - 1))
    values = []
    previous = 0
    for c in cuts:
        values.append(Fraction(c - previous, grain))
        previous = c
    values.append(Fraction(grain - previous, grain))
    return values


def random_state(rng: random.Random, system: SystemTree,
                 deterministic: bool = True) -> StateVector:
    basis = enumerate_pure_labels(system)
    weights = _dyadic_split(rng, len(basis))
    if not deterministic:
        weights = [w * Fraction(rng.randrange(1, 17), 16) for w in weights]
    return StateVector(system, dict(zip(basis, weights)))


def random_deterministic_kernel(rng: random.Random, in_system: SystemTree,
                                out_system: SystemTree) -> Kernel:
    in_basis = enumerate_pure_labels(in_system)
    out_basis = enumerate_pure_labels(out_system)
    taus = (PLUS,) if isinstance(out_system, Trivial) else node_signs(in_system.mode)
    targets = [(b, t) for b in out_basis for t in taus]
    rows: Rows = {}
    for a in in_basis:
        support = rng.sample(targets, k=min(len(targets), rng.randrange(1, 4)))
        rows[a] = dict(zip(support, _dyadic_split(rng, len(support))))
    return Kernel(in_system, out_system, rows)


def random_kernel(rng: random.Random, in_system: SystemTree,
                  out_system: SystemTree) -> Kernel:
    """Sub-stochastic in general; rows are scaled dyadic distributions."""
    base = random_deterministic_kernel(rng, in_system, out_system)
    rows = {}
    for a, row in base.rows.items():
        factor = Fraction(rng.randrange(0, 17), 16)
        if factor:
            rows[a] = {entry: w * factor for entry, w in row.items()}
    return Kernel(in_system, out_system, rows)


def random_reversible_kernel(rng: random.Random, system: SystemTree) -> Kernel:
    basis = enumerate_pure_labels(system)
    shuffled = list(basis)
    rng.shuffle(shuffled)
    signs = {a: (rng.choice((-1, 1)) if system.mode is TheoryMode.BCT else 1)
             for a in basis}
    return reversible_kernel(system, system, dict(zip(basis, shuffled)), signs)


def random_instrument(rng: random.Random, in_system: SystemTree,
                      out_system: SystemTree, branches: int = 2) -> Instrument:
    """Split a random channel's entries among branches; sum stays deterministic."""
    channel = random_deterministic_kernel(rng, in_system, out_system)
    rows_per_branch: list[Rows] = [{} for _ in range(branches)]
    for a, row in channel.rows.items():
        for entry, w in row.items():
            shares = _dyadic_split(rng, branches)
            for i, share in enumerate(shares):
                if share:
                    rows_per_branch[i].setdefault(a, {})[entry] = w * share
    kernels = tuple(Kernel(in_system, out_system, rows) for rows in rows_per_branch)
    return Instrument(kernels)
