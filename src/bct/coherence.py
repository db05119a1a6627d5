"""The construction-consistency checks as an executable suite.

Every check is deterministic given its dimensions and seed, and a failing
check carries a replayable counterexample.  Transformation equalities are
compared on the stored kernels, by `kernels_equal`: equality of
transformations is equality of all their extensions, and a sign-flip kernel
keeps the environment flip tau of every entry, so its ints already decide
it.  Extending by an environment E at the head of (X E) is an empty
regroup, and sends (a e)_u to ((b e)_{tau u}, tau) for each entry (b, tau)
of row a, which is injective: the extensions of two kernels are equal
exactly when the kernels are.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Callable

from . import faults
from .kernels import (
    Instrument,
    Kernel,
    apply,
    braid_kernel,
    coarse_grain,
    extend_at,
    kernels_equal,
    null_kernel,
    parallel_compose,
    random_instrument,
    random_kernel,
    random_state,
    scalar_kernel,
    sequential_compose,
    validate_instrument,
)
from .labels import (
    Move,
    MoveKind,
    basis_size,
    coder,
    enumerate_pure_labels,
    label_of,
    label_to_str,
    moves_raw,
)
from .states import (
    GeneralizedVector,
    StateVector,
    discriminating_instrument,
    pair,
    vectors_equal,
)
from .systems import (
    TheoryMode,
    bibit,
    compose_systems,
    leaf,
    left_comb,
)


@dataclass(frozen=True)
class CheckReport:
    name: str
    params: dict
    passed: bool
    counterexample: dict | None = None

    def to_json(self) -> dict:
        return asdict(self)


# The labels each sequence function of a path check rewrites at a time: a
# fixed block, so that a check's memory stays flat whatever the bound.
_BLOCK = 128


def _paths_agree(name: str, dims: tuple[int, ...], mode: TheoryMode,
                 first: list[Move], second: list[Move],
                 keys: tuple[str, str]) -> CheckReport:
    """Both move sequences send each raw label of the basis of the left comb
    of `dims` to the same label with the same flip; `keys` name the two
    results in a counterexample, the only labels built.  After the bound
    check, each sequence is resolved once, by `moves_raw`, under the fault
    the check runs in, and both functions run on the basis walk
    `Coder.raws` in blocks of `_BLOCK` labels, in index order.  A block
    whose results differ is scanned label by label, so the first label
    that differs is the counterexample."""
    params = {"dims": list(dims), "mode": mode.value}
    system = left_comb(dims, mode)
    size = basis_size(system)
    one_of, two_of = moves_raw(first), moves_raw(second)
    walk = iter(coder(system).raws())
    while block := list(itertools.islice(walk, _BLOCK)):
        ones, one_flips = one_of(block)
        twos, two_flips = two_of(block)
        if ones != twos or one_flips != two_flips:
            k = next(k for k in range(len(block))
                     if ones[k] != twos[k] or one_flips[k] != two_flips[k])
            return CheckReport(name, params, False,
                               {"label": label_to_str(label_of(block[k])),
                                keys[0]: label_to_str(label_of(ones[k])),
                                keys[1]: label_to_str(label_of(twos[k]))})
    return CheckReport(name, {**params, "labels_checked": size}, True)


def check_pentagon(dims: tuple[int, int, int, int],
                   mode: TheoryMode = TheoryMode.BCT) -> CheckReport:
    """((AB)C)D -> A(B(CD)) along the two reassociation paths."""
    return _paths_agree(
        "pentagon", dims, mode,
        [Move(MoveKind.ASSOC_R, ""), Move(MoveKind.ASSOC_R, "")],
        [Move(MoveKind.ASSOC_R, "0"), Move(MoveKind.ASSOC_R, ""),
         Move(MoveKind.ASSOC_R, "1")],
        ("path1", "path2"))


def check_hexagon(dims: tuple[int, int, int],
                  mode: TheoryMode = TheoryMode.BCT) -> CheckReport:
    """Single exchange of A past BC versus the two sequential exchanges."""
    return _paths_agree(
        "hexagon", dims, mode,
        [Move(MoveKind.ASSOC_R, ""), Move(MoveKind.BRAID, "")],
        [Move(MoveKind.BRAID, "0"), Move(MoveKind.ASSOC_R, ""),
         Move(MoveKind.BRAID, "1"), Move(MoveKind.ASSOC_L, "")],
        ("one_step", "two_step"))


def _law_holds(name: str, seed: int, dims: tuple[int, ...], mode: TheoryMode,
               pairs: int,
               sides: Callable[..., tuple[Kernel, Kernel]]) -> CheckReport:
    """`sides(rng, *leaves)` draws one trial's kernels on the leaves of `dims`
    and returns the two composites, which must be equal kernels on every
    trial (and so equal on every extension, see the module docstring)."""
    rng = random.Random(seed)
    leaves = [leaf(x, mode) for x in dims]
    params = {"dims": list(dims), "seed": seed, "mode": mode.value}
    for trial in range(pairs):
        lhs, rhs = sides(rng, *leaves)
        if not kernels_equal(lhs, rhs):
            return CheckReport(name, params, False, {"trial": trial})
    return CheckReport(name, {**params, "pairs": pairs}, True)


def check_sliding(seed: int, dims: tuple[int, int, int, int] = (2, 2, 2, 2),
                  mode: TheoryMode = TheoryMode.BCT, pairs: int = 10) -> CheckReport:
    """Braiding naturality: S(k1 x k2) = (k2 x k1)S, as kernels.  The two
    braids depend on the leaves alone and read no fault, so the first trial
    builds them for every trial."""
    braids: list[Kernel] = []

    def sides(rng, a, b, c, d):
        k1 = random_kernel(rng, a, b)
        k2 = random_kernel(rng, c, d)
        if not braids:
            braids.extend((braid_kernel(b, d), braid_kernel(a, c)))
        out_braid, in_braid = braids
        return (sequential_compose(out_braid, parallel_compose(k1, k2)),
                sequential_compose(parallel_compose(k2, k1), in_braid))

    return _law_holds("sliding", seed, dims, mode, pairs, sides)


def check_bifunctoriality(seed: int, dims: tuple[int, int] = (2, 2),
                          mode: TheoryMode = TheoryMode.BCT,
                          pairs: int = 10) -> CheckReport:
    """(k2 o k1) x (k4 o k3) = (k2 x k4) o (k1 x k3), as kernels."""
    def sides(rng, a, b):
        k1 = random_kernel(rng, a, b)
        k2 = random_kernel(rng, b, a)
        k3 = random_kernel(rng, b, a)
        k4 = random_kernel(rng, a, b)
        return (parallel_compose(sequential_compose(k2, k1), sequential_compose(k4, k3)),
                sequential_compose(parallel_compose(k2, k4), parallel_compose(k1, k3)))

    return _law_holds("bifunctoriality", seed, dims, mode, pairs, sides)


def _image(kernel: Kernel, rho: StateVector) -> GeneralizedVector:
    """`kernel` applied to `rho` as a vector of the span, so that the checks
    below, not the `StateVector` constructor, judge its positivity."""
    return apply(kernel, GeneralizedVector._trusted(rho.system, rho.nums, rho.den), "")


def check_probabilistic_compatibility(seed: int, dims: tuple[int, int] = (2, 2),
                                      mode: TheoryMode = TheoryMode.BCT
                                      ) -> CheckReport:
    """Probabilistic well-posedness: separation, scalars, null events,
    coarse-graining, and preservation of preparation-instruments."""
    rng = random.Random(seed)
    a = leaf(dims[0], mode)
    b = leaf(dims[1], mode)
    env = bibit(mode)
    params = {"dims": list(dims), "seed": seed, "mode": mode.value}

    # (i) effects separate states
    for _ in range(10):
        rho = random_state(rng, a)
        sigma = random_state(rng, a)
        if vectors_equal(rho, sigma):
            continue
        separated = any(pair(effect, rho) != pair(effect, sigma)
                        for effect in discriminating_instrument(a))
        if not separated:
            return CheckReport("probabilistic", params, False,
                               {"stage": "separation"})

    # (ii) scalars compose multiplicatively and trivial instruments are
    # probability distributions
    half = scalar_kernel(mode, Fraction(1, 2))
    third = scalar_kernel(mode, Fraction(1, 3))
    if not kernels_equal(parallel_compose(half, third), scalar_kernel(mode, Fraction(1, 6))):
        return CheckReport("probabilistic", params, False, {"stage": "scalars"})
    weights = [Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)]
    trivial_instrument = Instrument(tuple(scalar_kernel(mode, w) for w in weights))
    if not validate_instrument(trivial_instrument):
        return CheckReport("probabilistic", params, False,
                           {"stage": "trivial-instrument"})

    # (iii) the null transformation joins instruments freely
    inst = random_instrument(rng, a, b, branches=2)
    with_null = Instrument(inst.branches + (null_kernel(a, b),))
    if not validate_instrument(with_null):
        return CheckReport("probabilistic", params, False, {"stage": "null"})

    # (iv) coarse-graining is well-posed and pairing-additive
    inst3 = random_instrument(rng, a, b, branches=3)
    merged = coarse_grain(inst3, [[0, 2], [1]])
    if not validate_instrument(merged):
        return CheckReport("probabilistic", params, False, {"stage": "coarse"})
    rho = random_state(rng, a)
    *parts, joint = (_image(kernel, rho) for kernel in
                     (inst3.branches[0], inst3.branches[2], merged.branches[0]))
    for effect in discriminating_instrument(b):
        if sum(pair(effect, part) for part in parts) != pair(effect, joint):
            return CheckReport("probabilistic", params, False,
                               {"stage": "coarse-additivity"})

    # (v) extended instruments map preparation-instruments to
    # preparation-instruments
    ae = compose_systems(a, env)
    preparation = [random_state(rng, ae, deterministic=False) for _ in range(3)]
    deficit = Fraction(1) - sum((p.weight for p in preparation), Fraction(0))
    if deficit < 0:
        preparation = [StateVector(ae, {}) for _ in range(3)]
        deficit = Fraction(1)
    basis = enumerate_pure_labels(ae)
    preparation.append(StateVector(ae, {basis[0]: deficit}))
    outputs: list[GeneralizedVector] = []
    for branch in inst.branches:
        ext = extend_at(branch, ae, "0")
        outputs.extend(_image(ext, p) for p in preparation)
    if any(any(n < 0 for n in out.nums.values()) or sum(out.nums.values()) > out.den
           for out in outputs):
        return CheckReport("probabilistic", params, False,
                           {"stage": "extension-positivity"})
    if sum((out.weight for out in outputs), Fraction(0)) != 1:
        return CheckReport("probabilistic", params, False,
                           {"stage": "extension-normalization"})

    return CheckReport("probabilistic", params, True)


DEFAULT_PENTAGON_DIMS = tuple(itertools.product((2, 3), repeat=4))
DEFAULT_HEXAGON_DIMS = tuple(itertools.product((2, 3), repeat=3))


@dataclass(frozen=True)
class SuiteConfig:
    mode: TheoryMode = TheoryMode.BCT
    seed: int = 0
    fault: str | None = None
    pentagon_dims: tuple = DEFAULT_PENTAGON_DIMS
    hexagon_dims: tuple = DEFAULT_HEXAGON_DIMS
    kernel_pairs: int = 100


def run_suite(config: SuiteConfig = SuiteConfig()) -> list[CheckReport]:
    reports: list[CheckReport] = []
    with faults.inject_fault(config.fault):
        for dims in config.pentagon_dims:
            reports.append(check_pentagon(dims, config.mode))
        for dims in config.hexagon_dims:
            reports.append(check_hexagon(dims, config.mode))
        reports.append(check_sliding(config.seed, mode=config.mode,
                                     pairs=config.kernel_pairs))
        reports.append(check_bifunctoriality(config.seed, mode=config.mode,
                                             pairs=config.kernel_pairs))
        reports.append(check_probabilistic_compatibility(config.seed,
                                                         mode=config.mode))
    reports.sort(key=lambda r: (r.name, str(r.params)))
    return reports
