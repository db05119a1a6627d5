"""The dilation check as it was, with its dense passes, kept as the
reference the sparse check is held to.

`dense_observation` builds the observation effects of `realize_instrument`
by the old body: each other branch's ratios joined entry by entry with
`Coder.join`, and the first effect the unit effect minus the others over
every index of A', then put in lowest terms by `lowest_terms`.
`two_pass_sum_to_unit` adds every effect into an empty total, and
`per_branch_reproduces` stages Sigma (x) I_A by `parallel_compose`, composes
it with R's rows read whole, and splits R's outputs again for each branch;
with the program state's determinism they give the old `verified` bool.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from bct.config import DILATION_MAX_DIM
from bct.dilation import decompose_channel, program_sigma
from bct.kernels import _composed, _lowest, identity_kernel, parallel_compose, state_kernel
from bct.labels import basis_indices, coder, node_signs
from bct.states import EffectVector, int_coeffs, lowest_terms
from bct.systems import dimension


def two_pass_sum_to_unit(effects) -> bool:
    """`sum_to_unit` as it was: every effect added into an empty total."""
    den = lcm(*(e.den for e in effects))
    total = {}
    for e in effects:
        scale = den // e.den
        for x, n in e.nums.items():
            total[x] = total[x] + n * scale if x in total else n * scale
    return len(total) == dimension(effects[0].system) and all(n == den for n in total.values())


def dense_observation(processor, instrument) -> list[EffectVector]:
    """One effect on A' per branch, the first built densely."""
    channel = instrument.total()
    mu = decompose_channel(channel)
    tables = []
    for branch in instrument.branches:
        table = {}
        for fl, _weight in mu:
            for i, (m, tau) in enumerate(zip(fl.h, fl.xi)):
                n = branch.nums.get(i, {}).get((m - 1, tau))
                if n:
                    table[(fl, i)] = Fraction(n * channel.den,
                                              branch.den * channel.nums[i][(m - 1, tau)])
        tables.append(table)
    signs = node_signs(processor.mode)
    program, join = coder(processor.program_system).index, coder(processor.output_ancilla).join
    others = [int_coeffs({join(program(processor.program_index[fl]), i, s1): z
                          for (fl, i), z in table.items() for s1 in signs})
              for table in tables[1:]]
    den = lcm(*(d for _nums, d in others))
    first = dict.fromkeys(basis_indices(processor.output_ancilla, DILATION_MAX_DIM), den)
    for nums, d in others:
        for x, n in nums.items():
            first[x] -= n * (den // d)
    return [EffectVector._trusted(processor.output_ancilla, *c)
            for c in (lowest_terms(first, den), *others)]


def per_branch_reproduces(processor, sigma, pairs) -> bool:
    """`dilation._reproduces` as it was: R's outputs split for each pair."""
    kernel = processor.kernel
    prepared = parallel_compose(state_kernel(sigma), identity_kernel(processor.a_system))
    staged = _composed(kernel.nums, prepared.nums, False)
    split = coder(kernel.out_system).split
    for effect, branch in pairs:
        observed = {}
        for row in staged.values():
            for y, _tau in row:
                if y not in observed:
                    a, b, s = split(y)
                    w = effect.nums.get(a)
                    observed[y] = {(b, s): w} if w else {}
        rows = _composed(observed, staged, False)
        if _lowest(rows, prepared.den * effect.den) != (branch.nums, branch.den):
            return False
    return True


def dense_verified(processor, instrument) -> bool:
    """The old verdict on the old observation."""
    sigma = program_sigma(processor, decompose_channel(instrument.total()))
    effects = dense_observation(processor, instrument)
    return (per_branch_reproduces(processor, sigma, list(zip(effects, instrument.branches)))
            and two_pass_sum_to_unit(effects)
            and sigma.is_deterministic)
