"""A frozen copy of the label-keyed `Fraction` kernel calculus.

Before kernels were int numerators keyed by basis index, their rows were
`{input label: {(output label, tau): Fraction}}` and the calculus below
worked on them directly.  These bodies are kept here as the oracle the int
calculus is compared with entry for entry, changed in three ways only: they
regroup labels through the label-level calculus (`apply_moves_tracked`)
instead of the move tables, they build a plain `FractionKernel` instead of
a `Kernel`, and they drop zero weights and empty rows where the trusted
constructor used to.  They read a `Kernel` only through its `rows` view,
so either kind of kernel is a valid input.

`decompose_channel` and `ratio_tables` are the `Fraction` bodies of
`dilation.decompose_channel` and of the branch/channel ratio tables of
`dilation.realize_instrument` from before those ran on int rows: both work on
cell tables, row i the i-th input label as {(m, tau): Fraction}, m the
1-based place of the output label in the basis order.  They return the
weights as sorted (FunctionLabel, Fraction) pairs and the tables as
{(FunctionLabel, i): Fraction} per branch, as the dilation module does.

The seeded generators at the end (`random_state`, `random_kernel`,
`random_instrument` and `random_deterministic_kernel`) are the bodies from
before the generators drew ints: they draw label-keyed `Fraction` rows and
build them through the validating constructors, so that what they build
can be compared int for int with what the int generators build from the
same draws.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from bct import faults
from bct.dilation import FunctionLabel
from bct.kernels import Instrument, Kernel
from bct.labels import (
    PLUS,
    UNIT,
    NodeLabel,
    apply_moves_tracked,
    enumerate_pure_labels,
    invert_moves,
    node_signs,
    regroup,
)
from bct.states import StateVector
from bct.systems import (
    SystemTree,
    TheoryMode,
    Trivial,
    compose_systems,
    delete_at,
    replace_at,
    subtree_at,
)

ZERO = Fraction(0)


@dataclass(frozen=True)
class FractionKernel:
    in_system: SystemTree
    out_system: SystemTree
    rows: dict

    @property
    def mode(self) -> TheoryMode:
        return self.in_system.mode


def kernel_rows(kernel) -> dict:
    """The rows of either kind of kernel as a plain dict."""
    return {a: dict(row) for a, row in kernel.rows.items()}


class Tracked:
    """A transport served by the label calculus, in place of a move table."""

    def __init__(self, moves):
        self.moves = moves

    def __getitem__(self, label):
        return apply_moves_tracked(label, self.moves)


def _braid_entry(label):
    return NodeLabel(label.right, label.left, label.sign), label.sign


def _clean(rows):
    return {a: clean for a, row in rows.items() if (clean := {e: w for e, w in row.items() if w})}


def sequential_compose(second, first):
    if first.out_system != second.in_system:
        raise ValueError("systems do not chain")
    effect = isinstance(second.out_system, Trivial)
    rows = {}
    for a, row1 in first.rows.items():
        out = {}
        for (b, tau1), w1 in row1.items():
            for (c, tau2), w2 in second.rows.get(b, {}).items():
                key = (c, PLUS if effect else tau1 * tau2)
                out[key] = out[key] + w1 * w2 if key in out else w1 * w2
        if out:
            rows[a] = out
    return FractionKernel(first.in_system, second.out_system, _clean(rows))


def _with_identity(kernel, other, drop_tau=False):
    if isinstance(other, Trivial):
        return dict(kernel.rows)
    if not isinstance(kernel.in_system, Trivial):
        return _extension_rows(kernel, compose_systems(kernel.in_system, other), "0",
                               drop_tau)
    row = kernel.rows.get(UNIT, {})
    return {o: {(NodeLabel(b, o, tau), tau): w for (b, tau), w in row.items()}
            for o in enumerate_pure_labels(other)}


def _identity_with(other, kernel):
    braid_in = not (isinstance(other, Trivial) or isinstance(kernel.in_system, Trivial))
    braid_out = not (isinstance(other, Trivial) or isinstance(kernel.out_system, Trivial))
    rows = {}
    for x, row in _with_identity(kernel, other).items():
        label, flip_in = _braid_entry(x) if braid_in else (x, PLUS)
        out = {}
        for (y, tau), w in row.items():
            y, flip_out = _braid_entry(y) if braid_out else (y, PLUS)
            out[(y, flip_in * tau * flip_out)] = w
        rows[label] = out
    return rows


def _scaled(kernel, factor):
    return FractionKernel(kernel.in_system, kernel.out_system, _clean(
        {a: {entry: w * factor for entry, w in row.items()} for a, row in kernel.rows.items()}))


def parallel_compose(k1, k2):
    if isinstance(k1.in_system, Trivial) and isinstance(k1.out_system, Trivial):
        return _scaled(k2, k1.rows.get(UNIT, {}).get((UNIT, 1), ZERO))
    if isinstance(k2.in_system, Trivial) and isinstance(k2.out_system, Trivial):
        return _scaled(k1, k2.rows.get(UNIT, {}).get((UNIT, 1), ZERO))
    a, b, c, d = k1.in_system, k1.out_system, k2.in_system, k2.out_system
    drop_tau = faults.active_fault() == faults.PARALLEL_DROP_TAU
    left = FractionKernel(compose_systems(a, c), compose_systems(b, c),
                          _clean(_with_identity(k1, c, drop_tau)))
    right = FractionKernel(compose_systems(b, c), compose_systems(b, d),
                           _clean(_identity_with(b, k2)))
    return sequential_compose(right, left)


def extend_at(kernel, system, at):
    if kernel.in_system != subtree_at(system, at):
        raise ValueError("kernel input does not match the selected subtree")
    if at == "":
        return FractionKernel(kernel.in_system, kernel.out_system, kernel_rows(kernel))
    return FractionKernel(system, _result_system(kernel, system, at),
                          _clean(_extension_rows(kernel, system, at)))


def _extension_rows(kernel, system, at, drop_tau=False):
    moves = regroup(system, at)
    there, back = Tracked(moves), Tracked(invert_moves(moves))
    rows = {}
    for label in enumerate_pure_labels(system):
        out = {}
        for key, w in _act_at(kernel, label, there, back, drop_tau):
            out[key] = out[key] + w if key in out else w
        if out:
            rows[label] = out
    return rows


def _result_system(kernel, system, at):
    if isinstance(kernel.out_system, Trivial):
        return delete_at(system, at)
    return replace_at(system, at, kernel.out_system)


def _act_at(kernel, label, there, back, drop_tau=False):
    moved, flip = there[label]
    a, rest, u = moved.left, moved.right, moved.sign
    bct = kernel.mode is TheoryMode.BCT
    if isinstance(kernel.out_system, Trivial):
        for w in kernel.rows.get(a, {}).values():
            yield (rest, flip * u if bct else PLUS), w
        return
    for (b, tau), w in kernel.rows.get(a, {}).items():
        final, flip_back = back[NodeLabel(b, rest, u if drop_tau else tau * u)]
        yield (final, flip * tau * flip_back if bct else PLUS), w


def apply(kernel, rho, at=""):
    """(output system, {output label: Fraction}) of `kernel` on `rho` at `at`."""
    out = {}
    if at == "":
        for label, value in rho.coeffs.items():
            for (b, _tau), w in kernel.rows.get(label, {}).items():
                out[b] = out.get(b, ZERO) + w * value
        return kernel.out_system, {b: v for b, v in out.items() if v}
    moves = regroup(rho.system, at)
    there, back = Tracked(moves), Tracked(invert_moves(moves))
    for label, value in rho.coeffs.items():
        for (b, _flip), w in _act_at(kernel, label, there, back):
            out[b] = out.get(b, ZERO) + w * value
    return _result_system(kernel, rho.system, at), {b: v for b, v in out.items() if v}


def _cell_table(kernel):
    """Row i of `kernel` (the i-th input label) as {(m, tau): w}, m the
    1-based place of the output label in the basis order."""
    place = {b: m for m, b in enumerate(enumerate_pure_labels(kernel.out_system), 1)}
    return [{(place[b], tau): w for (b, tau), w in kernel.rows.get(a, {}).items()}
            for a in enumerate_pure_labels(kernel.in_system)]


def decompose_channel(channel):
    """Greedy split of a deterministic channel; ties pick the least (i, m, tau)."""
    remaining = _cell_table(channel)
    if not all(sum(row.values()) == 1 for row in remaining):
        raise ValueError("decompose_channel needs a deterministic kernel")
    out = []
    guard = 0
    limit = 2 * len(remaining) * len(enumerate_pure_labels(channel.out_system))
    while any(remaining):
        guard += 1
        if guard > limit:
            raise AssertionError("greedy decomposition failed to terminate")
        cells = [(i, m, tau)
                 for i, row in enumerate(remaining) for (m, tau) in sorted(row)]
        anchor = min(cells, key=lambda c: (remaining[c[0]][(c[1], c[2])],
                                           c[0], c[1], c[2]))
        i0, m0, tau0 = anchor
        lam0 = remaining[i0][(m0, tau0)]
        h, xi = [], []
        for i, row in enumerate(remaining):
            if i == i0:
                m, tau = m0, tau0
            else:
                m, tau = min(row)
            h.append(m)
            xi.append(tau)
            new = row[(m, tau)] - lam0
            if new:
                row[(m, tau)] = new
            else:
                del row[(m, tau)]
        out.append((FunctionLabel(tuple(h), tuple(xi)), lam0))
    merged = {}
    for fl, mu in out:
        merged[fl] = merged[fl] + mu if fl in merged else mu
    return sorted(merged.items(), key=lambda item: (item[0].h, item[0].xi))


def ratio_tables(instrument, mu):
    """Per branch, zeta at (h, xi, i): the branch weight over the channel
    weight at the cell (h(i), xi(i)), kept where it is nonzero."""
    channel_cells = _cell_table(instrument.total())
    tables = []
    for branch in instrument.branches:
        branch_cells = _cell_table(branch)
        table = {}
        for fl, _weight in mu:
            for i in range(len(channel_cells)):
                cell = (fl.h[i], fl.xi[i])
                lam = channel_cells[i].get(cell, ZERO)
                z = branch_cells[i].get(cell, ZERO) / lam if lam else ZERO
                if z:
                    table[(fl, i)] = z
        tables.append(table)
    return tables


def _dyadic_split(rng: random.Random, parts: int) -> list[Fraction]:
    grain = 16
    cuts = sorted(rng.randrange(grain + 1) for _ in range(parts - 1))
    values = []
    previous = 0
    for c in cuts:
        values.append(Fraction(c - previous, grain))
        previous = c
    values.append(Fraction(grain - previous, grain))
    return values


def random_state(rng, system, deterministic=True):
    basis = enumerate_pure_labels(system)
    weights = _dyadic_split(rng, len(basis))
    if not deterministic:
        weights = [w * Fraction(rng.randrange(1, 17), 16) for w in weights]
    return StateVector(system, dict(zip(basis, weights)))


def _random_rows(rng, in_system, out_system):
    in_basis = enumerate_pure_labels(in_system)
    out_basis = enumerate_pure_labels(out_system)
    taus = (PLUS,) if isinstance(out_system, Trivial) else node_signs(in_system.mode)
    targets = [(b, t) for b in out_basis for t in taus]
    rows = {}
    for a in in_basis:
        support = rng.sample(targets, k=min(len(targets), rng.randrange(1, 4)))
        rows[a] = dict(zip(support, _dyadic_split(rng, len(support))))
    return rows


def random_deterministic_kernel(rng, in_system, out_system):
    return Kernel(in_system, out_system, _random_rows(rng, in_system, out_system))


def random_kernel(rng, in_system, out_system):
    rows = {}
    for a, row in _random_rows(rng, in_system, out_system).items():
        factor = Fraction(rng.randrange(0, 17), 16)
        if factor:
            rows[a] = {entry: w * factor for entry, w in row.items()}
    return Kernel(in_system, out_system, rows)


def random_instrument(rng, in_system, out_system, branches=2):
    rows_per_branch = [{} for _ in range(branches)]
    for a, row in _random_rows(rng, in_system, out_system).items():
        for entry, w in row.items():
            if not w:
                continue
            shares = _dyadic_split(rng, branches)
            for i, share in enumerate(shares):
                if share:
                    rows_per_branch[i].setdefault(a, {})[entry] = w * share
    kernels = tuple(Kernel(in_system, out_system, rows) for rows in rows_per_branch)
    return Instrument(kernels)
