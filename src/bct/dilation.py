"""Universal processor, channel decomposition, and instrument realisation.

Every channel A -> B decomposes greedily into deterministic function
channels i |-> (h(i), xi(i)): repeatedly subtract the minimum nonvanishing
row coefficient along a function hitting a nonzero entry in every row.  The
weights mu_{h,xi} program a single fixed reversible processor

    R: (B'' B) A -> (B'' A) B,
    ((sigma_{h,xi} k)_{s1} i)_{s3} |-> (((sigma_{h,xi} i)_{s1} h(i)+k)_{s3}, tau = xi(i))

with addition modulo D_B on the output register.  The program system B''
indexes every (h, xi) pair, so D_B'' = (2 D_B)^{D_A} and R is a bijection
on pure labels.  R is never tabulated: its kernel works each row out from
the rule above, on basis indices, whenever the row is read, and the
bijection is checked by index arithmetic (k |-> h(i)+k is a permutation of
the output register).
The decomposition and the branch/channel weight ratios run on the
kernels' int rows.  Arbitrary instruments are realised by the same processor
and program state, with one observation effect per branch built from those
ratios.  The first branch's effect is the unit effect less the others'
sum, written from that shortfall: `den` off the others' supports, in lowest
terms without a pass over the whole of A'.  A realisation is verified by
composing each sandwich (program state, R, effect) as a kernel on basis
indices and comparing it with its branch, and by checking that the effects
sum to the unit effect.  R's rule runs once for all branches, on each label
of Sigma beside each input of A: Sigma is read as the state it is, since
the sign its preparation emits cancels R's outer sign.  The effect weighs
the head on A' and the branch keeps the rest.  A processor passed in must
be the one for the instrument's own A and B.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Iterator, Mapping, Sequence

from .config import DILATION_MAX_DIM
from .kernels import (
    Instrument,
    IntRow,
    Kernel,
    _lowest,
    apply,
    is_deterministic,
)
from .labels import (
    Move,
    MoveKind,
    PureLabel,
    basis_indices,
    basis_size,
    coder,
    enumerate_pure_labels,
    node_signs,
    offsets,
)
from .states import (
    EffectVector,
    StateVector,
    apply_effect_at,
    apply_moves_to_vector,
    int_coeffs,
    sparse_sum,
    sum_to_unit,
    tensor_states,
)
from .systems import (
    SystemTree,
    TheoryMode,
    Trivial,
    compose_systems,
    dimension,
    leaf,
)


@dataclass(frozen=True)
class FunctionLabel:
    """A deterministic function channel: input index i -> (h[i], xi[i])."""

    h: tuple[int, ...]
    xi: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.h) != len(self.xi):
            raise ValueError("h and xi must have the same arity")
        if any(s not in (-1, 1) for s in self.xi):
            raise ValueError("xi values must be -1 or +1")


def enumerate_function_labels(d_in: int, d_out: int,
                              mode: TheoryMode) -> list[FunctionLabel]:
    """All (h, xi) pairs, h lexicographic then xi with - before +."""
    return [FunctionLabel(h, xi)
            for h in itertools.product(range(1, d_out + 1), repeat=d_in)
            for xi in itertools.product(node_signs(mode), repeat=d_in)]


@dataclass(frozen=True)
class UniversalProcessor:
    a_system: SystemTree
    b_system: SystemTree
    program_system: SystemTree          # B''
    input_ancilla: SystemTree           # B' = B'' B
    output_ancilla: SystemTree          # A' = B'' A
    kernel: Kernel                      # reversible on (B'' B) A -> (B'' A) B
    program_index: dict[FunctionLabel, PureLabel] = field(default_factory=dict)

    @property
    def mode(self) -> TheoryMode:
        return self.a_system.mode


def _offset_add(m_index: int, k_index: int, d: int) -> int:
    return (m_index - 1 + k_index - 1) % d + 1


class _ProcessorRows(Mapping[int, IntRow]):
    """The int rows of R by domain index, each worked out from the rule on
    every read.

    The source at index x is ((sigma k)_{s1} i)_{s3}; its row is the single
    entry (((sigma i)_{s1} h(i)+k)_{s3}, xi(i)) with numerator one over the
    kernel's denominator one.  `rule` states it on the parts of the source,
    the outer sign s3 passing through; `__getitem__`, which `get` and `in`
    read through, splits x into those parts and joins the entry into (A' B)
    (see `labels.Coder`).  Nothing is enumerated, built as a label or kept.
    Every row is a single weight-one entry, so the rule keeps the invariants
    a kernel's rows owe.  An index outside the domain has no row.
    """

    def __init__(self, domain: SystemTree, image: SystemTree,
                 functions: Sequence[FunctionLabel], d_b: int) -> None:
        source, target = coder(domain), coder(image)
        self._split, self._split_program = source.split, source.left.split
        self._join = target.join
        aprime = image.left
        self._left, self._right, self._step = offsets(aprime.left, aprime.right, aprime)
        self._functions, self._d_b = functions, d_b
        self._dim = source.dim

    def __getitem__(self, x: int) -> IntRow:
        if not (type(x) is int and 0 <= x < self._dim):
            raise KeyError(x)
        head, i, s3 = self._split(x)
        a, m, xi = self.rule(self._split_program(head), i)
        return {(self._join(a, m, s3), xi): 1}

    def rule(self, program: tuple[int, int, int], i: int) -> tuple[int, int, int]:
        """R on the parts (sigma, k, s1) of an index of B' and an input i of
        A: (index of (sigma i)_{s1} in A', h(i)+k as an index of B, xi(i))."""
        sigma, k, s1 = program
        fl = self._functions[sigma]
        return (self._left(sigma) + self._right(i) + (self._step if s1 > 0 else 0),
                _offset_add(fl.h[i], k + 1, self._d_b) - 1, fl.xi[i])

    def __iter__(self) -> Iterator[int]:
        return iter(range(self._dim))

    def __len__(self) -> int:
        return self._dim


def build_processor(a: SystemTree, b: SystemTree) -> UniversalProcessor:
    """Construct and verify the universal processor for A -> B.

    The systems are sized by the dimension rule, and `basis_size` checks the
    domain under `DILATION_MAX_DIM` before any label is enumerated.  The
    kernel's rows come from the rule on demand (see `_ProcessorRows`); the
    bijection is checked on the indices: for every register value m, k |-> m+k
    must hit each output index exactly once (every h(i) is such an m).
    """
    if isinstance(a, Trivial) or isinstance(b, Trivial):
        raise ValueError("the processor needs non-trivial input and output systems")
    mode = a.mode
    d_a, d_b = dimension(a), dimension(b)
    program = leaf((len(node_signs(mode)) * d_b) ** d_a, mode, name="program")
    bprime = compose_systems(program, b)
    aprime = compose_systems(program, a)
    domain = compose_systems(bprime, a)
    basis_size(domain, DILATION_MAX_DIM)
    program_index = dict(zip(enumerate_function_labels(d_a, d_b, mode),
                             enumerate_pure_labels(program, DILATION_MAX_DIM)))
    # every register value is the h(i) of some program label
    register = list(range(1, d_b + 1))
    for m in register:
        if sorted(_offset_add(m, k, d_b) for k in register) != register:
            raise AssertionError("processor kernel failed the bijection check")
    image = compose_systems(aprime, b)
    rows = _ProcessorRows(domain, image, list(program_index), d_b)
    kernel = Kernel._trusted(domain, image, rows, 1)
    return UniversalProcessor(a, b, program, bprime, aprime, kernel, program_index)


def decompose_channel(channel: Kernel) -> list[tuple[FunctionLabel, Fraction]]:
    """Greedy split of a channel into weighted deterministic function channels.

    Each step takes the minimum nonvanishing coefficient over all rows,
    assembles a function hitting a nonzero entry in every row (the smallest
    such target per row, the minimum cell anchoring its own row), subtracts,
    and records the weight.  Ties pick the lexicographically least (i, m,
    tau).  The steps run on copies of the channel's int rows, cell (m, tau)
    keyed by the 0-based output index m, over its one denominator; only the
    returned weights are `Fraction`s.  The parts re-sum to the channel and
    the weights sum to one.
    """
    if not is_deterministic(channel):
        raise ValueError("decompose_channel needs a deterministic kernel")
    remaining = [dict(channel.nums[i]) for i in range(dimension(channel.in_system))]
    weights: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
    guard = 0
    # every step zeroes at least one cell
    limit = 2 * dimension(channel.in_system) * dimension(channel.out_system)
    while any(remaining):
        guard += 1
        if guard > limit:
            raise AssertionError("greedy decomposition failed to terminate")
        lam, i0, m0, tau0 = min((n, i, m, tau) for i, row in enumerate(remaining)
                                for (m, tau), n in row.items())
        cells = [(m0, tau0) if i == i0 else min(row) for i, row in enumerate(remaining)]
        for row, cell in zip(remaining, cells):
            if row[cell] == lam:
                del row[cell]
            else:
                row[cell] -= lam
        key = (tuple(m + 1 for m, _tau in cells), tuple(tau for _m, tau in cells))
        weights[key] = weights[key] + lam if key in weights else lam
    return [(FunctionLabel(h, xi), Fraction(n, channel.den))
            for (h, xi), n in sorted(weights.items())]


@dataclass(frozen=True)
class DilationResult:
    processor: UniversalProcessor
    sigma: StateVector                          # deterministic program state on B'
    observation: tuple[EffectVector, ...]       # one effect on A' per branch
    outcomes: tuple
    mu: dict[FunctionLabel, Fraction] = field(default_factory=dict)
    zeta: dict = field(default_factory=dict)
    verified: bool = False


def program_sigma(processor: UniversalProcessor,
                  mu: Sequence[tuple[FunctionLabel, Fraction]]) -> StateVector:
    """Sigma = sum mu_{h,xi} |sigma_{h,xi}> |0> = (sum mu_{h,xi} |sigma_{h,xi}>) |0>,
    with |0> the first B label."""
    program = StateVector(processor.program_system,
                          {processor.program_index[fl]: weight for fl, weight in mu})
    zero = StateVector._trusted(processor.b_system, {0: 1}, 1)
    return tensor_states(program, zero)


def dilated_apply(processor: UniversalProcessor, sigma: StateVector,
                  effect: EffectVector, rho: StateVector) -> StateVector:
    """Run the sandwich (Sigma, R, effect) on a state of A (x) E: R acts on
    (Sigma (x) rho) regrouped to ((B' A) E), and the effect observes A'."""
    full = apply_moves_to_vector(tensor_states(sigma, rho), [Move(MoveKind.ASSOC_L, "")])
    return apply_effect_at(effect, apply(processor.kernel, full, "0"), "00")


def realize_instrument(instrument: Instrument,
                       processor: UniversalProcessor | None = None,
                       verify: bool = True) -> DilationResult:
    """Realise an instrument as (program state, processor, observation).

    All branches share one program state (the one programming their sum);
    each branch gets an observation effect built from the branch/channel
    weight ratios; the first branch's effect is the unit effect minus the
    others, written from their shortfall, so it also absorbs whatever part
    of the program basis the channel never uses.
    """
    try:
        channel = instrument.total()
        if not is_deterministic(channel):
            raise ValueError
    except ValueError:
        raise ValueError(
            "not a valid instrument (branch sum must be deterministic)") from None
    a, b = instrument.in_system, instrument.out_system
    if processor is None:
        processor = build_processor(a, b)
    elif (processor.a_system, processor.b_system) != (a, b):
        p, q = processor.a_system, processor.b_system
        raise ValueError(
            f"the processor is for {dimension(p)} -> {dimension(q)} in {p.mode.name}, "
            f"the instrument is {dimension(a)} -> {dimension(b)} in {a.mode.name}")
    mu = decompose_channel(channel)
    sigma = program_sigma(processor, mu)

    # zeta of branch k at (h, xi, i) is its weight over the channel's at the
    # cell (h(i), xi(i)); a chosen function's cells are all nonzero channel
    # cells, and a branch cell is nonzero only where the channel's is
    tables: list[dict[tuple[FunctionLabel, int], Fraction]] = []
    for branch in instrument.branches:
        table: dict[tuple[FunctionLabel, int], Fraction] = {}
        for fl, _weight in mu:
            for i, (m, tau) in enumerate(zip(fl.h, fl.xi)):
                n = branch.nums.get(i, {}).get((m - 1, tau))
                if n:
                    table[(fl, i)] = Fraction(n * channel.den,
                                              branch.den * channel.nums[i][(m - 1, tau)])
        tables.append(table)
    # branch k > 0 observes its ratio on every sign of (sigma_{h,xi} i), at
    # the index (sigma_{h,xi} i)_{s1} of A' written as a sum of offsets
    program = coder(processor.program_system).index
    aprime = processor.output_ancilla
    left, right, step = offsets(processor.program_system, processor.a_system, aprime)
    shifts = [step if s1 > 0 else 0 for s1 in node_signs(processor.mode)]
    others = []
    for table in tables[1:]:
        ratios = {left(program(processor.program_index[fl])) + right(i) + shift: z
                  for (fl, i), z in table.items() for shift in shifts}
        others.append(EffectVector._trusted(aprime, *int_coeffs(ratios)))
    # the first branch observes what the others leave of the unit effect,
    # which also covers the program labels the channel never uses: `den` off
    # the support S of their sum `short`, so its common factor is that of den
    # and den - short on S, and it is written in lowest terms from the start
    den = lcm(*(e.den for e in others))
    short = sparse_sum(others, den)
    g = gcd(den, *(den - n for n in short.values()))
    first = dict.fromkeys(basis_indices(aprime, DILATION_MAX_DIM), den // g)
    for x, n in short.items():
        if n == den:
            del first[x]
        else:
            first[x] = (den - n) // g
    effects = [EffectVector._trusted(aprime, first, den // g), *others]

    verified = verify and (_reproduces(processor, sigma,
                                       list(zip(effects, instrument.branches)))
                           and sum_to_unit(effects)
                           and sigma.is_deterministic)

    return DilationResult(processor, sigma, tuple(effects), instrument.outcomes,
                          dict(mu), dict(zip(instrument.outcomes, tables)), verified)


def _reproduces(processor: UniversalProcessor, sigma: StateVector,
                pairs: Sequence[tuple[EffectVector, Kernel]]) -> bool:
    """Each sandwich (Sigma, R, effect) is its kernel.

    The sandwich is the kernel A -> B that prepares Sigma beside A, runs R
    on (B' A) and observes the effect on A', the head of (A' B): effect o R
    o (Sigma (x) I_A), composed here on basis indices.  R is read once for
    all pairs, by its rule: each label b of Sigma is split once on B', and
    beside each input i of A is R's source (b i)_{s3}, which goes to
    (a m)_{s3} with flip xi; the effect weighs it at a and leaves
    (m, s3 * xi * tau).  The preparation splits b's weight evenly over the
    signs s3 and emits tau = s3, so every share leaves the same (m, xi) and
    the shares add back to b's weight: each label of Sigma is staged as it
    stands, once per input, over Sigma's denominator.  Two kernels
    A -> B agree on every pure label of A (x) E, E a bibit, exactly when
    they are equal, since (b e)_{tau v} tells tau apart; so this is the
    check that `dilated_apply` and the kernel act alike on every such probe.
    """
    split, rule = coder(processor.input_ancilla).split, processor.kernel.nums.rule
    program = [(split(b), n) for b, n in sigma.nums.items()]
    staged = [(i, [(a, (m, xi), n) for head, n in program for a, m, xi in [rule(head, i)]])
              for i in range(dimension(processor.a_system))]
    for effect, branch in pairs:
        weights = effect.nums
        rows: dict[int, IntRow] = {}
        for o, entries in staged:
            out: IntRow = {}
            for a, key, n in entries:
                w = weights.get(a)
                if w:
                    out[key] = out[key] + n * w if key in out else n * w
            if out:
                rows[o] = out
        if _lowest(rows, sigma.den * effect.den) != (branch.nums, branch.den):
            return False
    return True
