"""Executable information-theoretic protocols: dense coding, swapping,
cloning, monogamy, hypersignaling, capacity counting.

Every run is exact: outcome probabilities are rationals that sum to one and
resulting states are reported symbolically.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction

from .config import MAX_NESTING, max_dim, shown
from .kernels import (
    Instrument,
    Kernel,
    apply,
    conditional_compose,
    discriminating_measurement,
    is_deterministic,
    reversible_kernel,
    state_kernel,
)
from .labels import (
    LeafLabel,
    Move,
    MoveKind,
    NodeLabel,
    PureLabel,
    enumerate_pure_labels,
    label_to_str,
)
from .states import (
    ONE,
    StateVector,
    apply_effect_at,
    apply_moves_to_vector,
    is_separable,
    marginal,
    pair,
    point_effect,
    pure_state,
    sum_to_unit,
    tensor_states,
)
from .systems import (
    SystemTree,
    TheoryMode,
    Trivial,
    bibit,
    compose_systems,
    dimension,
    left_comb,
)


@dataclass(frozen=True)
class ProtocolReport:
    protocol: str
    inputs: dict
    outcomes: list
    success: bool
    notes: str = ""

    def to_json(self) -> dict:
        return asdict(self)


def _sign(ch: str | int) -> int:
    if ch in (-1, 1):
        return int(ch)
    if ch in ("-", "-1"):
        return -1
    if ch in ("+", "+1", "1"):
        return 1
    raise ValueError(f"bad sign {shown(ch)}")


def dense_coding(mode: TheoryMode = TheoryMode.BCT) -> ProtocolReport:
    """Two bits through one transmitted carrier, riding a shared sign.

    Alice flips her local index and the shared sign of (0b)_- by reversible
    local operations; Bob's joint measurement reads both.  The CT mode
    reports the baseline: one transmitted bit distinguishes two messages.
    """
    if mode is TheoryMode.CT:
        rows = [{"message": f"{m:02b}", "distinguishable": m < 2} for m in range(4)]
        return ProtocolReport(
            "dense-coding", {"mode": "CT"}, rows, True,
            "one classical bit with no shared state carries two messages; "
            "the four-message table is not achievable")
    a = bibit()
    b = bibit()
    ab = compose_systems(a, b)
    identity = {LeafLabel(1): LeafLabel(1), LeafLabel(2): LeafLabel(2)}
    swap = {LeafLabel(1): LeafLabel(2), LeafLabel(2): LeafLabel(1)}
    plus = {LeafLabel(1): 1, LeafLabel(2): 1}
    minus = {LeafLabel(1): -1, LeafLabel(2): -1}
    encodings = {
        "00": reversible_kernel(a, a, identity, plus),
        "01": reversible_kernel(a, a, identity, minus),
        "10": reversible_kernel(a, a, swap, plus),
        "11": reversible_kernel(a, a, swap, minus),
    }
    decode = {
        (1, -1): "00", (1, 1): "01",
        (2, -1): "10", (2, 1): "11",
    }
    outcomes = []
    success = True
    for b_value in (1, 2):
        shared = pure_state(ab, NodeLabel(LeafLabel(1), LeafLabel(b_value), -1))
        for message, encoding in encodings.items():
            sent = apply(encoding, shared, "0")
            table = {}
            for label in enumerate_pure_labels(ab):
                p = pair(point_effect(ab, label), sent)
                if p:
                    table[label] = p
            decoded = None
            for label, p in table.items():
                assert isinstance(label, NodeLabel)
                decoded = decode[(label.left.index, label.sign)]
                probability = p
            row_ok = len(table) == 1 and probability == 1 and decoded == message
            success &= row_ok
            outcomes.append({
                "bob_local": b_value,
                "message": message,
                "decoded": decoded,
                "probability": str(probability),
                "state": label_to_str(next(iter(table))),
            })
    return ProtocolReport(
        "dense-coding", {"mode": "BCT", "shared": "(1 b)-"}, outcomes, success,
        "decoding is independent of Bob's local value b")


def capacity_report(n: int, mode: TheoryMode = TheoryMode.BCT) -> ProtocolReport:
    """Distinguishable-message count of n carriers: 2^(2n-1) in BCT, 2^n in CT.

    The carriers form a left comb nested n - 1 deep, so n is refused above
    MAX_NESTING + 1 before anything is built.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > MAX_NESTING + 1:
        raise ValueError(f"n must be at most {MAX_NESTING + 1} "
                         f"(carriers nest at most {MAX_NESTING} deep)")
    system = left_comb([2] * n, mode)
    d = dimension(system)
    expected = 2 ** (2 * n - 1) if mode is TheoryMode.BCT else 2 ** n
    # the self-checks enumerate the basis only within the bound and within
    # their cost caps; otherwise the count is the dimension rule's alone
    structural = True
    if d <= min(512, max_dim()):
        basis = enumerate_pure_labels(system)
        structural = len(basis) == d and len(set(basis)) == d
        structural &= sum_to_unit([point_effect(system, x) for x in basis])
    if d <= min(64, max_dim()):
        for x in basis:
            for y in basis:
                p = pair(point_effect(system, x), pure_state(system, y))
                structural &= p == (1 if x == y else 0)
    success = (d == expected) and structural
    notes = ("the count of jointly perfectly discriminable pure states equals "
             "the dimension; asymptotically 2 bits per carrier" if
             mode is TheoryMode.BCT else "classical product rule")
    return ProtocolReport(
        "capacity", {"n": n, "mode": mode.value},
        [{"n": n, "messages": d, "expected": expected}], success, notes)


def entanglement_swapping(i: int, j: int, s: int | str, k: int, l: int,
                          t: int | str) -> ProtocolReport:
    """Joint measurement of BC transfers entanglement onto AD.

    On (ij)_s (x) (kl)_t the discriminating instrument on BC yields outcomes
    (j, k, r) with probability 1/2 for each sign r, steering AD to
    (il)_{r*s*t}.
    """
    s = _sign(s)
    t = _sign(t)
    for index in (i, j, k, l):
        if index not in (1, 2):
            raise ValueError(f"index {shown(index)} out of range for a bibit")
    ab = compose_systems(bibit(), bibit())
    cd = compose_systems(bibit(), bibit())
    state = tensor_states(
        pure_state(ab, NodeLabel(LeafLabel(i), LeafLabel(j), s)),
        pure_state(cd, NodeLabel(LeafLabel(k), LeafLabel(l), t)))
    # ((AB)(CD)) -> (A ((BC) D)) so the measured pair is contiguous
    regrouped = apply_moves_to_vector(
        state, [Move(MoveKind.ASSOC_R, ""), Move(MoveKind.ASSOC_L, "1")])
    bc = compose_systems(bibit(), bibit())
    outcomes = []
    success = True
    for eff_label in enumerate_pure_labels(bc):
        assert isinstance(eff_label, NodeLabel)
        branch = apply_effect_at(point_effect(bc, eff_label), regrouped, "10")
        probability = branch.weight
        if probability == 0:
            success &= (eff_label.left.index, eff_label.right.index) != (j, k)
            continue
        r = eff_label.sign
        expected = NodeLabel(LeafLabel(i), LeafLabel(l), r * s * t)
        row_ok = (probability == Fraction(1, 2)
                  and branch.coeffs == {expected: Fraction(1, 2)}
                  and not is_separable(StateVector(branch.system,
                                                   {expected: ONE})))
        success &= row_ok
        outcomes.append({
            "outcome": [eff_label.left.index, eff_label.right.index,
                        "+" if r == 1 else "-"],
            "probability": str(probability),
            "ad_state": label_to_str(expected),
        })
    return ProtocolReport(
        "entanglement-swapping",
        {"i": i, "j": j, "s": "+" if s == 1 else "-",
         "k": k, "l": l, "t": "+" if t == 1 else "-"},
        outcomes, success and len(outcomes) == 2,
        "the AD output (il)_{r s t} is entangled for both outcomes")


def clone_kernel(system: SystemTree) -> Kernel:
    """Measure-and-reprepare broadcast: rho -> sum_x rho(x) |x>|x>."""
    measure = discriminating_measurement(system)

    def reprepare(outcome) -> Instrument:
        copy = tensor_states(pure_state(system, outcome), pure_state(system, outcome))
        return Instrument((state_kernel(copy),))

    composed = conditional_compose(measure, reprepare)
    return composed.total()


def clone_state(rho: StateVector) -> ProtocolReport:
    """Broadcast an unknown state; both marginals equal the input."""
    if isinstance(rho.system, Trivial):
        raise ValueError("cloning needs a non-trivial system")
    if not rho.is_deterministic:
        raise ValueError("cloning expects a deterministic input state")
    cloner = clone_kernel(rho.system)
    out = apply(cloner, rho, "")
    expected: dict[PureLabel, Fraction] = {}
    for x, w in rho.coeffs.items():
        product = tensor_states(pure_state(rho.system, x), pure_state(rho.system, x))
        for label, value in product.coeffs.items():
            expected[label] = (expected[label] + w * value if label in expected
                               else w * value)
    left = marginal(out, "0")
    right = marginal(out, "1")
    success = (out.coeffs == expected and left.coeffs == rho.coeffs
               and right.coeffs == rho.coeffs and is_deterministic(cloner))
    rows = [{"label": label_to_str(label), "weight": str(value)}
            for label, value in sorted(out.coeffs.items(),
                                       key=lambda kv: label_to_str(kv[0]))]
    return ProtocolReport(
        "clone", {"input": {label_to_str(k): str(v) for k, v in rho.coeffs.items()},
                  "mode": rho.system.mode.value},
        rows, success,
        "conditional measure-and-reprepare; both marginals equal the input")


def monogamy_demo(mode: TheoryMode = TheoryMode.BCT) -> ProtocolReport:
    """Pair marginals of the tripartite pure state ((11)- 1)+.

    In BCT all three two-leaf marginals are entangled pure states, so
    entanglement is not monogamous; in CT every pair marginal is a product.
    """
    tree = left_comb([2, 2, 2], mode)
    sign_inner = 1 if mode is TheoryMode.CT else -1
    state = pure_state(tree, NodeLabel(NodeLabel(LeafLabel(1), LeafLabel(1),
                                                 sign_inner), LeafLabel(1), 1))
    rows = []
    entangled_count = 0
    # AB directly; BC and AC need a regrouping first
    cases = {
        "AB": ([], "0"),
        "BC": ([Move(MoveKind.ASSOC_R, "")], "1"),
        "AC": ([Move(MoveKind.BRAID, "0"), Move(MoveKind.ASSOC_R, "")], "1"),
    }
    for name, (moves, keep) in cases.items():
        moved = apply_moves_to_vector(state, moves)
        reduced = marginal(moved, keep)
        entangled = not is_separable(reduced)
        entangled_count += entangled
        rows.append({
            "pair": name,
            "marginal": {label_to_str(k): str(v) for k, v in reduced.coeffs.items()},
            "entangled": entangled,
        })
    success = entangled_count >= 2 if mode is TheoryMode.BCT else entangled_count == 0
    return ProtocolReport(
        "monogamy", {"state": "((1 1)- 1)+", "mode": mode.value}, rows, success,
        "pair marginals of a tripartite pure state")


def hypersignaling_report(a: SystemTree, b: SystemTree) -> ProtocolReport:
    """D_AB versus D_A*D_B; the excess is exactly the hypersignaling verdict."""
    if isinstance(a, Trivial) or isinstance(b, Trivial):
        raise ValueError("hypersignaling needs two non-trivial systems")
    ab = compose_systems(a, b)
    d_ab = dimension(ab)
    product = dimension(a) * dimension(b)
    distinguishable = len(enumerate_pure_labels(ab)) if d_ab <= max_dim() else d_ab
    verdict = d_ab > product
    expected = a.mode is TheoryMode.BCT
    return ProtocolReport(
        "hypersignaling",
        {"d_a": dimension(a), "d_b": dimension(b), "mode": a.mode.value},
        [{"d_ab": d_ab, "product": product, "distinguishable": distinguishable,
          "hypersignaling": verdict}],
        verdict == expected,
        "a simplicial theory hypersignals iff composites exceed the product "
        "dimension")
