"""The one transport and the decoded bases against the label-level calculus.

`labels.transport` serves (moved index, flip) for the basis indices of a
system, one transport per active fault, system and move sequence, read off
the calculus on a few raw probe labels; `enumerate_pure_labels` decodes a
system's basis with its coder.  These tests hold both to the reference: the
same entry as the frozen object calculus (`label_calculus_oracle`) for every
index under every fault, nothing enumerated to transport a sparse vector,
the same suite reports in one process as in fresh ones, bases that callers
cannot change, and hashes that survive pickling into a process with another
PYTHONHASHSEED.
"""

import json
import os
import pickle
import random
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bct import faults, labels
from bct.coherence import SuiteConfig, run_suite
from bct.config import max_dim
from bct.dilation import realize_instrument
from bct.kernels import random_instrument
from bct.labels import (
    LeafLabel,
    NodeLabel,
    apply_moves_tracked,
    basis_indices,
    coder,
    enumerate_pure_labels,
    invert_moves,
    move_system_sequence,
    regroup,
    transport,
)
from bct.states import apply_effect_at, apply_moves_to_vector, marginal, point_effect, pure_state
from bct.systems import (
    Node,
    SystemTree,
    TheoryMode,
    compose_systems,
    dimension,
    leaf,
    left_comb,
    subtree_at,
)

import label_calculus_oracle as oracle

SRC = str(Path(__file__).resolve().parent.parent / "src")
FAULTS = (None,) + faults.KNOWN_FAULTS


def build(shape, mode: TheoryMode) -> SystemTree:
    """A system tree from nested pairs of leaf dimensions."""
    if isinstance(shape, int):
        return leaf(shape, mode)
    return compose_systems(build(shape[0], mode), build(shape[1], mode))


def subtree_paths(system: SystemTree, prefix: str = "") -> list[str]:
    if not isinstance(system, Node):
        return []
    return [prefix + "0", prefix + "1",
            *subtree_paths(system.left, prefix + "0"),
            *subtree_paths(system.right, prefix + "1")]


shapes = st.recursive(st.sampled_from((2, 3)), lambda inner: st.tuples(inner, inner),
                      max_leaves=4)


@settings(max_examples=40, deadline=None)
@given(shape=shapes.filter(lambda s: not isinstance(s, int)),
       mode=st.sampled_from(tuple(TheoryMode)), pick=st.integers(0, 100))
def test_transports_match_the_calculus_under_every_fault(shape, mode, pick):
    """The entry at index i of a transport is the index and flip of the
    frozen object calculus on the label at index i, both ways of a regroup,
    and its whole-basis table is the moved index of every entry, in order.
    In CT a faulted braid writes a - sign, and the transport reads the moved
    label as its + twin."""
    system = build(shape, mode)
    paths = subtree_paths(system)
    moves = regroup(system, paths[pick % len(paths)])
    regrouped = move_system_sequence(system, moves)
    for fault in FAULTS:
        with faults.inject_fault(fault):
            for start, sequence in ((system, moves), (regrouped, invert_moves(moves))):
                moved, table = transport(start, sequence)
                assert moved == move_system_sequence(start, sequence)
                if not sequence:  # the identity, served without a table
                    assert table is None
                    continue
                assert table.table() == [table[i][0] for i in range(dimension(start))]
                index = coder(moved).index
                for i, label in enumerate(enumerate_pure_labels(start)):
                    tracked, flip = oracle.apply_moves_tracked(label, sequence)
                    if mode is TheoryMode.CT:
                        tracked = oracle.plus_twin(tracked)
                    assert table[i] == (index(tracked), flip)


@pytest.mark.parametrize("mode", TheoryMode)
def test_a_table_and_its_entries_probe_each_label_once(monkeypatch, mode):
    """The whole-basis table fills the probes the entries read, and reads
    the ones they filled: one label per sign pattern and one per leaf."""
    system = left_comb([2, 3, 2, 3], mode)
    moves = regroup(system, "01")
    moved, shared = transport(system, moves)
    table, entries = shared.table(), [shared[i] for i in range(dimension(system))]
    probes, probe = [], labels._Transport._probe
    monkeypatch.setattr(labels._Transport, "_probe",
                        lambda self, index: probes.append(index) or probe(self, index))
    for table_first in (True, False):
        fresh = labels._Transport(coder(system), coder(moved), tuple(moves))
        probes.clear()
        if table_first:
            assert fresh.table() == table
        assert [fresh[i] for i in range(dimension(system))] == entries
        assert fresh.table() == table
        assert sorted(probes) == sorted(set(probes))
        assert len(probes) == coder(system).ns + 4


def test_a_transport_belongs_to_its_fault():
    system = left_comb([2, 2, 2])
    moves = regroup(system, "01")
    tables = []
    for fault in FAULTS:
        with faults.inject_fault(fault):
            tables.append(transport(system, moves)[1])
            assert transport(system, list(moves))[1] is tables[-1]
    assert len({id(t) for t in tables}) == len(FAULTS)


def test_the_empty_sequence_gets_no_transport():
    rng = random.Random(5)
    for dims in ((2, 2), (2, 3)):
        realize_instrument(random_instrument(rng, leaf(dims[0]), leaf(dims[1])))
    system = left_comb([2, 3, 2])
    for fault in FAULTS:
        with faults.inject_fault(fault):
            assert transport(system, ()) == transport(system, []) == (system, None)
    assert not [key for key in labels._TRANSPORTS if not key[2]]


def test_a_pure_state_above_the_bound_regroups_and_steers(monkeypatch):
    """A transport enumerates nothing: a pure state on a system whose basis
    is refused is regrouped, steered and reduced, and the reference runs on
    a few probe labels only."""
    system = left_comb([3] * 6)
    assert dimension(system) == 23328 > max_dim()
    with pytest.raises(ValueError, match="exceeds enumeration bound"):
        enumerate_pure_labels(system)
    label = LeafLabel(2)
    for index, sign in ((3, -1), (1, 1), (3, -1), (2, 1), (1, -1)):
        label = NodeLabel(label, LeafLabel(index), sign)
    rho = pure_state(system, label)
    moves = regroup(system, "001")
    regrouped = apply_moves_tracked(label, moves)[0]
    probes, probe = [], labels._Transport._probe
    monkeypatch.setattr(labels._Transport, "_probe",
                        lambda table, index: probes.append(index) or probe(table, index))
    assert apply_moves_to_vector(rho, moves).coeffs == {regrouped: 1}
    effect = point_effect(subtree_at(system, "001"), regrouped.left)
    assert apply_effect_at(effect, rho, "001").coeffs == {regrouped.right: 1}
    assert marginal(rho, "001").coeffs == {regrouped.left: 1}
    assert 0 < len(probes) <= 8  # one sign pattern, and one label per leaf


SMALL_SUITE = dict(kernel_pairs=5)


def suite_json(fault):
    return json.dumps([r.to_json() for r in run_suite(SuiteConfig(fault=fault,
                                                                  **SMALL_SUITE))])


def fresh_suite_json(fault) -> str:
    code = ("import sys; sys.path.insert(0, sys.argv[1]);"
            "import json; from bct.coherence import SuiteConfig, run_suite;"
            "fault = None if sys.argv[2] == 'none' else sys.argv[2];"
            f"config = SuiteConfig(fault=fault, **{SMALL_SUITE!r});"
            "print(json.dumps([r.to_json() for r in run_suite(config)]))")
    proc = subprocess.run([sys.executable, "-c", code, SRC, fault or "none"],
                          capture_output=True, text=True, check=True)
    return proc.stdout.strip()


@pytest.fixture(scope="module")
def fresh_default():
    return fresh_suite_json(None)


@pytest.mark.parametrize("fault", faults.KNOWN_FAULTS)
def test_suite_reports_do_not_depend_on_what_ran_before(fault, fresh_default):
    before = suite_json(None)
    faulted = suite_json(fault)
    after = suite_json(None)
    assert before == after == fresh_default
    assert faulted == fresh_suite_json(fault)
    assert not all(r["passed"] for r in json.loads(faulted))


def test_callers_get_a_fresh_basis(monkeypatch):
    system = left_comb([2, 3])
    first = enumerate_pure_labels(system)
    expected = list(first)
    first.clear()
    second = enumerate_pure_labels(system)
    assert second == expected and second is not first
    second.reverse()
    assert enumerate_pure_labels(system) == expected
    with pytest.raises(ValueError, match="exceeds enumeration bound 11"):
        enumerate_pure_labels(system, bound=11)
    monkeypatch.setenv("BCT_MAX_DIM", "11")
    with pytest.raises(ValueError, match="exceeds enumeration bound 11"):
        enumerate_pure_labels(system)


def test_basis_indices_are_ints_shared_by_every_caller():
    big, small = left_comb([3, 3, 3, 3]), left_comb([3, 3, 2, 2])
    first = basis_indices(big)
    assert first == list(range(dimension(big))) and dimension(small) > 256
    assert all(a is b for a, b in zip(basis_indices(small), first))
    first.clear()
    assert len(basis_indices(big)) == dimension(big)
    with pytest.raises(ValueError, match="exceeds enumeration bound 11"):
        basis_indices(big, bound=11)


def test_threads_that_grow_the_shared_indices_get_every_index(monkeypatch):
    """Four threads race to grow the shared basis indices from empty, 100
    times over; every basis they get, and the one read after them, is its
    indices in order, with none repeated or missed."""
    systems = [leaf(n) for n in range(2, 402)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(100):
            monkeypatch.setattr(labels, "_INDICES", [])
            barrier = threading.Barrier(4, timeout=30)
            outs = [[] for _ in range(4)]

            def grow(k):
                barrier.wait()
                outs[k].extend(basis_indices(system) for system in systems[k::4])
            threads = [threading.Thread(target=grow, args=(k,)) for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert [len(out) for out in outs] == [100] * 4
            assert all(got == list(range(len(got))) for out in outs for got in out)
            assert basis_indices(leaf(450)) == list(range(450))
    finally:
        sys.setswitchinterval(interval)


def test_label_hash_is_structural():
    label = NodeLabel(LeafLabel(1), NodeLabel(LeafLabel(2), LeafLabel(1), -1), 1)
    assert hash(label) == hash((label.left, label.right, label.sign))
    twin = NodeLabel(LeafLabel(1), NodeLabel(LeafLabel(2), LeafLabel(1), -1), 1)
    assert twin == label and {label: 1}[twin] == 1
    assert repr(twin) == ("NodeLabel(left=LeafLabel(index=1), right=NodeLabel("
                          "left=LeafLabel(index=2), right=LeafLabel(index=1), "
                          "sign=-1), sign=1)")
    assert not hasattr(label, "__dict__") and not hasattr(left_comb([2, 3]), "__dict__")


PICKLE_WRITER = """
import pickle, sys
sys.path.insert(0, sys.argv[1])
from bct.labels import LeafLabel, NodeLabel
from bct.systems import compose_systems, leaf, left_comb
label = NodeLabel(NodeLabel(LeafLabel(1), LeafLabel(2), -1), LeafLabel(3), 1)
system = compose_systems(left_comb([2, 3]), leaf(3, name="program"))
hash(label), hash(system)
sys.stdout.buffer.write(pickle.dumps((label, system)))
"""

PICKLE_READER = """
import pickle, sys
sys.path.insert(0, sys.argv[1])
from bct.labels import LeafLabel, NodeLabel, enumerate_pure_labels
from bct.systems import compose_systems, leaf, left_comb
label, system = pickle.loads(sys.stdin.buffer.read())
fresh_label = NodeLabel(NodeLabel(LeafLabel(1), LeafLabel(2), -1), LeafLabel(3), 1)
fresh_system = compose_systems(left_comb([2, 3]), leaf(3, name="program"))
enumerate_pure_labels(fresh_system)
assert label == fresh_label and system == fresh_system
assert system is fresh_system
assert {fresh_label: "hit"}[label] == "hit" and {label: "hit"}[fresh_label] == "hit"
assert {fresh_system: "hit"}[system] == "hit" and {system: "hit"}[fresh_system] == "hit"
assert enumerate_pure_labels(system) == enumerate_pure_labels(fresh_system)
assert label in set(enumerate_pure_labels(system))
print("ok")
"""


def test_pickles_hit_a_dict_under_another_hash_seed():
    def run(script, seed, data=None):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        proc = subprocess.run([sys.executable, "-c", script, SRC], input=data,
                              capture_output=True, env=env)
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout

    data = run(PICKLE_WRITER, "1")
    label, system = pickle.loads(data)
    # the system loads as the one shared tree of its shape, not as a copy
    assert system is compose_systems(left_comb([2, 3]), leaf(3, name="program"))
    assert run(PICKLE_READER, "2", data).strip() == b"ok"
