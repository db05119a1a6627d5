"""A committed mutation catalogue: each mutant must fail the tests named for it.

    python -m pytest mutants -q

Each mutant is (name, file under `src/bct`, exact old text, new text, test
selection).  For each, `src/` and `tests/` are copied to a temporary
directory, the old text (which must occur exactly once, so that the
catalogue cannot rot quietly) is replaced, and the selection is run in one
subprocess, which must end with failed tests (exit 1): an import or
collection error does not count as a kill.  Each selection must first pass
once on the unmutated copy.  Subprocesses run one at a time, with a fixed
hypothesis seed.  This is not part of the tier-1 suite (`tests/`).

A change that claims "the tests catch X" adds X here as a mutant.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    selection: tuple[str, ...]


CATALOGUE = [
    Mutant("incidence-parity-without-xor-1", "tomography.py",
           "parent[t], parity[t] = r, cr ^ ct ^ 1",
           "parent[t], parity[t] = r, cr ^ ct",
           ("tests/test_tomography.py::TestRankOracle::test_incidence_rank_matches_sympy",)),
    Mutant("parallel-keeps-tau1-for-a-trivial-c", "kernels.py",
           "without_tau1 = isinstance(c, Trivial) or (",
           "without_tau1 = (",
           ("tests/test_laws.py::test_parallel_composition_is_its_two_step_form",)),
    Mutant("ct-probe-keeps-the-minus-sign", "labels.py",
           "return self.join(self.left.raw_index(left), self.right.raw_index(right), sign)",
           "return self.join(self.left.raw_index(left), self.right.raw_index(right), sign) "
           "if self.bct or sign == PLUS else None",
           ("tests/test_tables.py::test_transports_match_the_calculus_under_every_fault",)),
    Mutant("a-pickled-tree-loads-as-a-copy", "systems.py",
           "return type(self), tuple(getattr(self, f.name) for f in fields(self))",
           "return object.__new__, (type(self),), "
           "tuple(getattr(self, f.name) for f in fields(self))",
           ("tests/test_tables.py::test_pickles_hit_a_dict_under_another_hash_seed",)),
    Mutant("shared-tree-key-drops-the-mode", "systems.py",
           "key = (cls, *values)",
           "key = (cls, *values[1:])",
           ("tests/test_systems.py::test_trees_of_two_modes_are_two_trees",)),
    Mutant("transport-key-without-the-fault", "labels.py",
           "key = (faults.active_fault(), system, tuple(moves))",
           "key = (None, system, tuple(moves))",
           ("tests/test_tables.py::test_a_transport_belongs_to_its_fault",)),
    Mutant("effect-entry-without-u", "labels.py",
           "flip *= u",
           "flip *= 1",
           ("tests/test_kernels.py::TestParallel::test_effects_commute_with_extension",)),
    Mutant("separable-twin-on-the-wrong-side", "states.py",
           "y - split(y)[2] * step",
           "y + split(y)[2] * step",
           ("tests/test_states.py::TestSeparability",)),
    Mutant("steering-trusts-a-generalized-effect", "states.py",
           "    return StateVector._checked(*out)",
           "    return StateVector._trusted(*out)",
           ("tests/test_states.py::TestTrustedConstruction::"
            "test_negative_generalized_effect_is_refused",)),
    Mutant("tensor-states-trusts-mixed-classes", "states.py",
           "return cls._trusted(system, *out) if cls is type(sigma) else cls._checked(",
           "return cls._trusted(system, *out) if True else cls._checked(",
           ("tests/test_states.py::TestTrustedConstruction::"
            "test_state_with_a_negative_vector_is_refused",)),
    Mutant("scalar-with-two-signs", "labels.py",
           "return int, int, 0",
           "return int, int, 1",
           ("tests/test_states.py::TestTrivialFactors",)),
    Mutant("product-rule-drops-the-step", "states.py",
           "base + offset + step",
           "base + offset",
           ("tests/test_states.py::TestTensor::test_pure_product",
            "tests/test_tomography.py::TestCorollary::test_bibit_pair",
            "tests/test_tomography.py::TestIntRowFamilies::"
            "test_bipartite_products_are_the_vectors_numerators",
            "tests/test_tomography.py::TestIntRowFamilies::"
            "test_families_are_the_vectors_numerators")),
    Mutant("left-link-absorbs-the-flip", "labels.py",
           "for c, (_, y, s), f in zip(moved, raws, flips)], flips",
           "for c, (_, y, s), f in zip(moved, raws, flips)], None",
           ("tests/test_label_calculus.py",)),
    Mutant("associator-drops-s1-s2", "labels.py",
           "return [(x, (y, z, s2 if keep else s1 * s2), s1) for (x, y, s1), z, s2 in raws], None",
           "return [(x, (y, z, s2), s1) for (x, y, s1), z, s2 in raws], None",
           ("tests/test_label_calculus.py",)),
    Mutant("climb-left-link-drops-flips", "labels.py",
           "    if flips is None:\n",
           "    if flips is None or side == 0:\n",
           ("tests/test_label_calculus.py::test_every_single_move_at_every_path",)),
    Mutant("basis-walk-sign-inside-a-block", "labels.py",
           "for xs in lefts for ys in rights for s in signs",
           "for s in signs for ys in rights for xs in lefts",
           ("tests/test_label_calculus.py::test_the_basis_walk_decodes_each_index_in_order",)),
    Mutant("sequence-reads-no-fault", "labels.py",
           "fault = faults.active_fault()",
           "fault = None",
           ("tests/test_label_calculus.py::"
            "test_a_sequence_function_keeps_the_fault_it_was_built_under",)),
    Mutant("offset-step-in-ct", "labels.py",
           "self.step = self.ns // 2",
           "self.step = self.ns // 2 or 1",
           ("tests/test_index_arithmetic.py::test_offsets_sum_to_the_closed_form_join",)),
    Mutant("join-drops-the-step", "labels.py",
           "self.right_offset(j) + (sign > 0) * self.step",
           "self.right_offset(j) + 0",
           ("tests/test_index_arithmetic.py::test_offsets_sum_to_the_closed_form_join",)),
    Mutant("stored-dimension-drops-the-2", "systems.py",
           "return 2 * dl * dr if self.mode is TheoryMode.BCT else dl * dr",
           "return dl * dr if self.mode is TheoryMode.BCT else dl * dr",
           ("tests/test_index_arithmetic.py::test_every_tree_keeps_the_dimension_of_the_rule",)),
    Mutant("paths-compare-raws-only", "coherence.py",
           "if ones != twos or one_flips != two_flips:",
           "if ones != twos:",
           ("tests/test_coherence.py::test_paths_that_differ_in_one_flip_fail",)),
    Mutant("unit-check-skips-the-count", "states.py",
           "len(total) + len(rest) == dimension(first.system)",
           "True",
           ("tests/test_index_arithmetic.py::test_the_one_pass_unit_check_gives_the_two_pass_bool",
            "tests/test_dilation.py::TestProbeLoop::"
            "test_effects_short_of_the_unit_effect_are_not_verified")),
    Mutant("first-effect-keeps-its-common-factor", "dilation.py",
           "g = gcd(den, *(den - n for n in short.values()))",
           "g = 1",
           ("tests/test_dilation.py::TestDenseOracle::"
            "test_instruments_padded_with_a_null_branch",)),
    # in CT every sign and flip is +, so the killing selections run BCT
    Mutant("rule-drops-xi", "dilation.py",
           "- 1, fl.xi[i])",
           "- 1, 1)",
           ("tests/test_dilation.py::TestProbeLoop::"
            "test_the_sandwich_acts_as_its_branch_on_every_probe[TheoryMode.BCT]",
            "tests/test_dilation.py::TestProcessorRule::"
            "test_rows_read_as_a_whole[dims0-TheoryMode.BCT]")),
    Mutant("row-join-drops-s3", "dilation.py",
           "self._join(a, m, s3)",
           "self._join(a, m, 1)",
           ("tests/test_dilation.py::TestProcessorRule::"
            "test_rows_read_as_a_whole[dims0-TheoryMode.BCT]",
            "tests/test_dilation.py::TestProcessorRule::"
            "test_each_row_is_the_join_of_its_rule_on_the_parts[dims0-TheoryMode.BCT]")),
    Mutant("staged-flip-drops-xi", "dilation.py",
           "(a, (m, xi), n)",
           "(a, (m, 1), n)",
           ("tests/test_dilation.py::TestProbeLoop::"
            "test_the_sandwich_acts_as_its_branch_on_every_probe[TheoryMode.BCT]",
            "tests/test_dilation.py::TestProbeLoop::test_every_branch_is_compared")),
    Mutant("span-report-accepts-a-trivial-factor", "tomography.py",
           "if any(isinstance(system, Trivial) for system in (a, b, c)):",
           "if False:",
           ("tests/test_tomography.py::TestDelta3::test_trivial_factor_rejected",)),
    Mutant("span-report-skips-the-composite-bound", "tomography.py",
           "d_abc = basis_size(compose_systems(compose_systems(a, b), c))",
           "d_abc = dimension(compose_systems(compose_systems(a, b), c))",
           ("tests/test_cli.py::test_verify_dims_refuses_a_composite_over_the_bound",)),
    Mutant("verify-dims-ignores-delta3", "cli.py",
           'ok &= doc["delta3"] == 0 and doc["bilocal_identity_holds"]',
           'ok &= doc["bilocal_identity_holds"]',
           ("tests/test_cli.py::test_verify_dims_exits_one_when_delta3_is_not_zero",)),
    Mutant("marginal-mints-states", "states.py",
           "cls = StateVector if isinstance(rho, StateVector) else GeneralizedVector",
           "cls = StateVector",
           ("tests/test_states.py::TestTrustedConstruction::"
            "test_marginal_of_a_non_state_is_a_generalized_vector",)),
    Mutant("realize-accepts-any-processor", "dilation.py",
           "elif (processor.a_system, processor.b_system) != (a, b):",
           "elif False:",
           ("tests/test_dilation.py::TestRealization::"
            "test_a_processor_for_other_systems_is_refused",)),
    Mutant("instrument-accepts-repeated-outcomes", "kernels.py",
           "elif len(set(self.outcomes)) != len(self.outcomes):",
           "elif False:",
           ("tests/test_kernels.py::TestInstruments::test_repeated_outcomes_are_refused",
            "tests/test_cli.py::test_dilate_refuses_repeated_outcomes")),
    Mutant("transport-table-drops-the-sign-rank", "labels.py",
           "return [m * ns + r for m in moved for r in ranks]",
           "return [m * ns + r for m in moved for r in range(ns)]",
           ("tests/test_tomography.py",)),
    Mutant("independent-rows-skips-the-empty-check", "tomography.py",
           "if all(rows) and len(set().union(*rows)) == sum(map(len, rows)):",
           "if len(set().union(*rows)) == sum(map(len, rows)):",
           ("tests/test_cli.py::test_verify_dims_refuses_a_family_of_another_structure"
            "[empty-row]",)),
    # (2 2) factors walk their rows out of input index order
    Mutant("parallel-rows-out-of-order", "kernels.py",
           "*_lowest(dict(sorted(rows.items())), k1.den * k2.den)",
           "*_lowest(rows, k1.den * k2.den)",
           ("tests/test_laws.py::test_parallel_composition_is_its_two_step_form",)),
    Mutant("parallel-input-step-on-minus", "kernels.py",
           "rows[x1 + x2 + (in_step if s > 0 else 0)]",
           "rows[x1 + x2 + (in_step if s < 0 else 0)]",
           ("tests/test_laws.py::test_parallel_composition_is_its_two_step_form",)),
    # a kernel left over a common factor of 2: refused by the validation of
    # every trusted kernel (tests/conftest.py) in the first random draw
    Mutant("lowest-stops-at-gcd-2", "kernels.py",
           "        if g == 1:\n            return nums, den",
           "        if g <= 2:\n            return nums, den",
           ("tests/test_laws.py::test_parallel_composition_is_its_two_step_form",)),
    Mutant("basis-indices-extend-in-place", "labels.py",
           "indices = _INDICES = indices + list(range(len(indices), size))",
           "_INDICES.extend(range(len(_INDICES), size))",
           ("tests/test_tables.py::test_threads_that_grow_the_shared_indices_get_every_index",)),
    # without the bound the function labels are enumerated, which the
    # selected test patches to fail, so no large basis is ever built
    Mutant("processor-skips-the-domain-bound", "dilation.py",
           "basis_size(domain, DILATION_MAX_DIM)",
           "dimension(domain)",
           ("tests/test_dilation.py::TestProcessor::test_bound_checked_before_building",)),
    Mutant("compose-accepts-mixed-modes", "systems.py",
           "if a.mode is not b.mode:",
           "if False:",
           ("tests/test_kernels.py::TestArgumentGuards::test_parallel_compose_refuses_mixed_modes",
            "tests/test_states.py::TestTensor::test_mixed_modes_are_refused_by_compose_systems",
            "tests/test_dilation.py::TestProcessor::"
            "test_mixed_modes_are_refused_by_compose_systems")),
    Mutant("instrument-accepts-no-branch", "kernels.py",
           "if not self.branches:",
           "if False:",
           ("tests/test_kernels.py::TestArgumentGuards::test_instrument_refusals[no-branch]",
            "tests/test_cli.py::test_bad_document_is_usage_error[no-branch]")),
    *(Mutant(f"probabilistic-skips-{stage}", "coherence.py", old, "if False:",
             ("tests/test_coherence.py::"
              f"test_each_probabilistic_stage_reports_its_failure[{stage}]",))
      for stage, old in [
          ("separation", "if not separated:"),
          ("scalars", "if not kernels_equal(parallel_compose(half, third), "
                      "scalar_kernel(mode, Fraction(1, 6))):"),
          ("trivial-instrument", "if not validate_instrument(trivial_instrument):"),
          ("null", "if not validate_instrument(with_null):"),
          ("coarse", "if not validate_instrument(merged):"),
          ("coarse-additivity",
           "if sum(pair(effect, part) for part in parts) != pair(effect, joint):"),
          ("extension-normalization",
           "if sum((out.weight for out in outputs), Fraction(0)) != 1:"),
      ]),
]

IGNORED = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")


def copy_tree(into: Path) -> Path:
    """`src/` and `tests/` copied under `into`."""
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, into / part, ignore=IGNORED)
    return into


def run_selection(copy: Path, selection: tuple[str, ...]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--hypothesis-seed=0", *selection],
        cwd=copy, env=env, capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="session")
def passes_unmutated(tmp_path_factory):
    """The run of a selection on an unmutated copy, made once per selection."""
    copy = copy_tree(tmp_path_factory.mktemp("unmutated"))
    results: dict[tuple[str, ...], subprocess.CompletedProcess] = {}

    def check(selection: tuple[str, ...]) -> subprocess.CompletedProcess:
        if selection not in results:
            results[selection] = run_selection(copy, selection)
        return results[selection]
    return check


def test_mutant_names_are_unique():
    assert len({m.name for m in CATALOGUE}) == len(CATALOGUE)


@pytest.mark.parametrize("mutant", CATALOGUE, ids=[m.name for m in CATALOGUE])
def test_mutant_is_killed(mutant, passes_unmutated, tmp_path):
    unmutated = passes_unmutated(mutant.selection)
    assert unmutated.returncode == 0, unmutated.stdout[-2000:]
    copy = copy_tree(tmp_path)
    path = copy / "src" / "bct" / mutant.file
    text = path.read_text()
    assert text.count(mutant.old) == 1, f"{mutant.file}: the old text occurs " \
        f"{text.count(mutant.old)} times"
    path.write_text(text.replace(mutant.old, mutant.new))
    mutated = run_selection(copy, mutant.selection)
    assert mutated.returncode == 1, mutated.stdout[-2000:]
