"""Module layering: every import of the package and of the tests sits at
module level.

An import inside a function is how a module dodges an import cycle.  The
modules form layers (systems, config and faults; then labels, states,
kernels; then everything built on kernels), so none is needed, and this
check keeps it that way.  The one regroup-apply engine sits in `labels`,
beside the regroup and transport it composes, and only it, `marginal` and
`is_separable` regroup, and only `labels` reads the parts of a coder's
offset form.  The engine, `is_separable` and the kernel braid read each
index of a composite through `labels.offsets`, and `Coder.join` serves
only one-entry reads.  Only `cli` imports `serial`, the JSON boundary.

The enumeration bounds are stated once, in `config`; a module that writes
one of them as a literal has its own bound policy, which this check refuses,
and only the enumerations of `labels` take a bound as a parameter.
README states every bound as configured.
The coherence checks use the calculus itself, never the transport
that memoises it.  Every definition in the package is reached from the
package, the benchmark or the public API, or is kept for a stated reason,
and no module of the package or the tests imports a name it never reads.
"""

import ast
import re
from collections import Counter
from pathlib import Path
from typing import Iterator

import pytest

import bct
from bct import serial
from bct.config import DEFAULT_MAX_DIM, DILATION_MAX_DIM, MAX_NESTING

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "bct").glob("*.py"))
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


def function_local_imports(tree: ast.AST) -> list[int]:
    lines = []
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            lines += [node.lineno for node in ast.walk(func)
                      if isinstance(node, (ast.Import, ast.ImportFrom))]
    return sorted(set(lines))


def test_sources_found():
    assert len(SOURCES) > 10


@pytest.mark.parametrize("path", SOURCES + TESTS,
                         ids=lambda p: p.name if p in SOURCES else f"tests/{p.name}")
def test_no_function_local_imports(path):
    assert function_local_imports(ast.parse(path.read_text())) == []


def bound_literals(tree: ast.AST) -> list[int]:
    return sorted({node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Constant)
                   and type(node.value) is int
                   and node.value in (DEFAULT_MAX_DIM, DILATION_MAX_DIM)})


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "config.py"],
                         ids=lambda p: p.name)
def test_bounds_come_from_config(path):
    assert bound_literals(ast.parse(path.read_text())) == []


def bound_parameters() -> list[str]:
    """Every function of the package, nested or a method too, with a
    parameter named `bound`, as "module.name"."""
    return sorted(f"{path.stem}.{node.name}" for path in SOURCES
                  for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and any(arg.arg == "bound" for arg in ast.walk(node.args)
                          if isinstance(arg, ast.arg)))


def test_only_the_label_enumerations_take_a_bound():
    """One bound policy: a caller passes a bound to the enumeration it
    runs, and nothing else takes one, so no module sizes a structure under
    a bound that a later enumeration of it does not share."""
    assert bound_parameters() == ["labels.basis_indices", "labels.basis_size",
                                  "labels.enumerate_pure_labels"]


def test_only_the_cli_imports_the_format_layer():
    """`serial` is the JSON boundary: the package computes on its own
    values, and only `cli` turns them into documents and back."""
    importers = {path.stem for path in SOURCES
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.ImportFrom) and node.level == 1
                 and (node.module == "serial" or node.module is None
                      and any(alias.name == "serial" for alias in node.names))}
    assert importers == {"cli"}


def test_readme_states_each_bound_as_configured():
    text = " ".join((ROOT / "README.md").read_text().split())
    for statement in (f"default basis-enumeration bound ({DEFAULT_MAX_DIM})",
                      f"its own bound on its domain ({DILATION_MAX_DIM})",
                      f"nest at most {MAX_NESTING} levels",
                      f"`MAX_NESTING + 1` carriers ({MAX_NESTING + 1})",
                      f"more than {serial._MAX_DIGITS} digits"):
        assert statement in text


TABLE_NAMES = {"transport", "_Transport", "_TRANSPORTS"}


def names_used(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_coherence_checks_the_calculus_without_the_tables():
    """Pentagon and hexagon test the moves themselves (the calculus's one
    body, on raw labels), so the coherence module never reaches the
    transport that memoises them."""
    source = next(p for p in SOURCES if p.name == "coherence.py")
    used = names_used(ast.parse(source.read_text()))
    assert "moves_raw" in used
    assert used & TABLE_NAMES == set()



def _is_zero(node: ast.AST) -> bool:
    """`ZERO` or `Fraction(0)`."""
    if isinstance(node, ast.Name):
        return node.id == "ZERO"
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "Fraction" and len(node.args) == 1
            and isinstance(node.args[0], ast.Constant) and node.args[0].value == 0)


def _gets_zero(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get" and len(node.args) == 2
            and _is_zero(node.args[1]))


def accumulations_from_zero(tree: ast.AST) -> list[int]:
    """Lines of `d.get(k, ZERO) + x` (or `Fraction(0)`): on a first insert
    that addition builds a new `Fraction` only to copy x."""
    return sorted({node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
                   and (_gets_zero(node.left) or _gets_zero(node.right))})


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_accumulations_store_the_first_term(path):
    assert accumulations_from_zero(ast.parse(path.read_text())) == []


def elimination_functions(tree: ast.Module, roots: set[str]) -> list[ast.FunctionDef]:
    """The module's functions named in `roots` and every module function
    they call, directly or through one another."""
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    found, todo = {}, list(roots)
    while todo:
        name = todo.pop()
        if name in functions and name not in found:
            found[name] = functions[name]
            todo += [node.func.id for node in ast.walk(found[name])
                     if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]
    return list(found.values())


def test_rank_eliminates_without_fractions():
    """`tomography.rank`, `span_report` and `pair_report` work on integer
    rows: no function of the ranks (the families, the elimination, each
    family's count and the union's incidence rank) names a rational constant
    or constructor, or has a true division, which on ints gives a float."""
    source = next(p for p in SOURCES if p.name == "tomography.py")
    functions = elimination_functions(ast.parse(source.read_text()), {
        "rank", "span_report", "pair_report"})
    assert {f.name for f in functions} >= {"rank", "_echelon", "_independent_rows",
                                           "_incidence_rank", "span_report",
                                           "_tripartite_families", "_products", "_basis",
                                           "pair_report"}
    for function in functions:
        assert names_used(function) & {"Fraction", "ZERO", "ONE"} == set(), function.name
        assert not any(isinstance(node, ast.Div) for node in ast.walk(function)), function.name


INT_BODIES = {
    "states.py": {"tensor_states",
                  "product_nums", "apply_moves_to_vector", "image",
                  "apply_effect_at", "marginal", "pair",
                  "is_separable", "unit_effect", "discriminating_instrument",
                  "weight", "vectors_equal", "lowest_terms", "_trusted",
                  "sum_to_unit"},
    "kernels.py": {"apply", "state_kernel"},
    "tomography.py": {"rank", "_basis", "_products", "product_states",
                      "_tripartite_families", "pair_report"},
    "dilation.py": {"_reproduces", "decompose_channel", "rule"},
}


def int_body_functions(tree: ast.Module, roots: set[str]) -> list[ast.FunctionDef]:
    """`elimination_functions` that also finds the roots among methods."""
    methods = {node.name: node for cls in tree.body if isinstance(cls, ast.ClassDef)
               for node in cls.body if isinstance(node, ast.FunctionDef)
               and node.name in roots}
    return elimination_functions(tree, roots) + list(methods.values())


def fractions_outside_returns(function: ast.FunctionDef) -> list[int]:
    """Lines of the body, other than its top-level returns, that name `Fraction`."""
    return sorted({node.lineno for statement in function.body
                   if not isinstance(statement, ast.Return)
                   for node in ast.walk(statement)
                   if isinstance(node, ast.Name) and node.id == "Fraction"})


@pytest.mark.parametrize("module", sorted(INT_BODIES))
def test_vector_calculus_runs_on_ints(module):
    """A vector is int numerators keyed by basis index over one denominator,
    and the calculus on vectors keeps it so: no function of it (or module
    function it calls) reads the `coeffs` view, names `ZERO`, `ONE` or
    `NodeLabel` (labels are decoded by the coder, at the boundary) or has a
    true division.  A function whose result is a rational for the API
    (`pair`, `weight`) builds that one `Fraction` in its return statement,
    and no other."""
    source = next(p for p in SOURCES if p.name == module)
    functions = int_body_functions(ast.parse(source.read_text()), INT_BODIES[module])
    assert {f.name for f in functions} >= INT_BODIES[module]
    for function in functions:
        body = ast.Module(body=function.body, type_ignores=[])
        assert names_used(body) & {"coeffs", "ZERO", "ONE", "NodeLabel"} == set(), \
            function.name
        assert not any(isinstance(node, ast.Div) for node in ast.walk(body)), function.name
        assert fractions_outside_returns(function) == [], function.name


VECTOR_NAMES = {"StateVector", "GeneralizedVector", "EffectVector", "_trusted",
                "tensor_states", "apply_moves_to_vector", "discriminating_instrument"}


def test_tomography_families_build_no_vector():
    """The product families of tomography are int rows built from the basis
    indices: no function that builds, ranks or reads them (or module
    function it calls) names a vector class, the trusted constructor or a
    function that returns vectors."""
    source = next(p for p in SOURCES if p.name == "tomography.py")
    functions = elimination_functions(ast.parse(source.read_text()), {
        "product_states", "span_report", "pair_report"})
    assert {f.name for f in functions} >= {
        "product_states", "_products", "_basis", "_tripartite_families", "span_report",
        "pair_report", "_excess"}
    for function in functions:
        assert names_used(function) & VECTOR_NAMES == set(), function.name


KERNEL_BODIES = {"sequential_compose", "parallel_compose", "extend_at", "apply",
                 "identity_kernel", "braid_kernel", "kernels_equal", "add_kernels",
                 "is_deterministic", "is_atomic", "is_reversible", "_trusted", "_store",
                 "_dyadic_split", "random_state", "_random_rows", "random_kernel",
                 "random_instrument"}


def test_kernel_calculus_runs_on_ints():
    """A kernel is int numerators keyed by basis index over one denominator,
    and its calculus, the seeded generators and the regroup-apply engine
    they act through keep it so: no function of them (or module function
    they call) reads the label-keyed `rows` view or a vector's `coeffs`,
    names `Fraction`, `ZERO` or `ONE`, has a true division, or builds a
    `NodeLabel` (labels are decoded by the coder, at the boundary)."""
    source = next(p for p in SOURCES if p.name == "kernels.py")
    functions = int_body_functions(ast.parse(source.read_text()), KERNEL_BODIES)
    assert {f.name for f in functions} >= KERNEL_BODIES | {"_composed", "_braid", "_lowest"}
    labels = next(p for p in SOURCES if p.name == "labels.py")
    engine = int_body_functions(ast.parse(labels.read_text()), {"act_rows"})
    assert {f.name for f in engine} >= {"act_rows", "regroup", "transport", "coder"}
    for function in functions + engine:
        body = ast.Module(body=function.body, type_ignores=[])
        views = {node.attr for node in ast.walk(body) if isinstance(node, ast.Attribute)}
        assert views & {"rows", "coeffs"} == set(), function.name
        names = {node.id for node in ast.walk(body) if isinstance(node, ast.Name)}
        assert names & {"Fraction", "ZERO", "ONE", "NodeLabel"} == set(), function.name
        assert not any(isinstance(node, ast.Div) for node in ast.walk(body)), function.name


def test_probabilistic_check_runs_on_ints():
    """`coherence.check_probabilistic_compatibility` compares states, kernels
    and images by their ints: no function of it (or module function it
    calls) reads a label-keyed view (`coeffs`, `row`, `rows`) or builds an
    effect or a scalar entry by label (`point_effect`, `UNIT`)."""
    source = next(p for p in SOURCES if p.name == "coherence.py")
    functions = elimination_functions(ast.parse(source.read_text()),
                                      {"check_probabilistic_compatibility"})
    assert {f.name for f in functions} >= {"check_probabilistic_compatibility", "_image"}
    for function in functions:
        assert names_used(function) & {"coeffs", "row", "rows", "UNIT", "point_effect"} \
            == set(), function.name


def test_vectors_have_one_transport():
    """`apply_moves_to_vector` is the one function of `states` that reads
    the index transport: marginals and separability regroup a vector
    through it, and kernel images and steering act through the engine."""
    source = next(p for p in SOURCES if p.name == "states.py")
    readers = [name for name, node in definitions(ast.parse(source.read_text()))
               if isinstance(node, ast.FunctionDef) and "transport" in names_used(node)]
    assert readers == ["apply_moves_to_vector"]


def test_only_the_engine_marginal_and_separability_regroup():
    """`labels.act_rows` is the one regroup-apply engine: kernel extension
    and application and steering all act through it.  Besides it, only
    `marginal` and `is_separable` call `regroup`, to read the regrouped
    index of a vector itself."""
    callers = {f"{path.stem}.{qualname}" for path in SOURCES
               for qualname, node in definitions(ast.parse(path.read_text()))
               if isinstance(node, ast.FunctionDef) and "regroup" in called(node)}
    assert callers == {"labels.act_rows", "states.marginal", "states.is_separable"}


def called(tree: ast.AST) -> set[str]:
    """The names `tree` calls, as a plain name or as an attribute."""
    return {node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            for node in ast.walk(tree) if isinstance(node, ast.Call)
            and isinstance(node.func, (ast.Name, ast.Attribute))}


OFFSET_PARTS = {"left_offset", "right_offset", "step"}


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "labels.py"],
                         ids=lambda p: p.name)
def test_only_labels_reads_the_offset_form(path):
    """How an index of a composite is a sum is read through
    `labels.offsets`: no other module reads a coder's `left_offset`,
    `right_offset` or `step`."""
    reads = sorted({node.lineno for node in ast.walk(ast.parse(path.read_text()))
                    if isinstance(node, ast.Attribute) and node.attr in OFFSET_PARTS})
    assert reads == []


@pytest.mark.parametrize("reader", ["labels.act_rows", "states.is_separable",
                                    "kernels._braid"])
def test_row_loops_read_the_offset_form_not_join(reader):
    """The loops that build rows of a composite read each index as a sum
    through `labels.offsets`, the one statement of it and of its no-node
    case, and never join entry by entry through a coder's `join`."""
    module, name = reader.split(".")
    source = next(p for p in SOURCES if p.stem == module)
    function = dict(definitions(ast.parse(source.read_text())))[name]
    assert "offsets" in called(function)
    assert not any(isinstance(node, ast.Attribute) and node.attr == "join"
                   for node in ast.walk(function))


def test_join_serves_only_one_entry_reads():
    """A coder's `join` is read by the coder's own one-entry reads and by
    the universal processor's rows, one entry per read; a string's `join`
    is not counted."""
    readers = {f"{path.stem}.{qualname}" for path in SOURCES
               for qualname, node in definitions(ast.parse(path.read_text()))
               if isinstance(node, ast.FunctionDef)
               and any(isinstance(n, ast.Attribute) and n.attr == "join"
                       and not isinstance(n.value, ast.Constant) for n in ast.walk(node))}
    assert readers == {"labels.Coder.index", "labels.Coder.raw_index",
                       "dilation._ProcessorRows.__init__"}


def test_kernel_weights_become_ints_as_vector_weights_do():
    """The kernel constructor turns its weights into ints over one
    denominator with `states.int_coeffs`, not with an LCM of its own."""
    source = next(p for p in SOURCES if p.name == "kernels.py")
    post_init = dict(definitions(ast.parse(source.read_text())))["Kernel.__post_init__"]
    used = names_used(post_init)
    assert "int_coeffs" in used
    assert "lcm" not in used


# Definitions that nothing in the package or the benchmark names, kept for
# the paper statement their tests pin: "module.qualified_name" -> that reason.
KEPT: dict[str, str] = {}


def definitions(tree: ast.Module) -> Iterator[tuple[str, ast.FunctionDef | ast.ClassDef]]:
    """The module's top-level functions and classes, and its classes'
    methods, by qualified name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, ast.FunctionDef):
                    yield f"{node.name}.{method.name}", method


def references(tree: ast.AST) -> Counter:
    """How often `tree` names each identifier, as a `Name` or an `Attribute`."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))


def benchmark_words() -> set[str]:
    """Every identifier the benchmark names, and every word of its strings:
    it names the layers it traces as "module.function"."""
    words: set[str] = set()
    for path in PERFBENCH:
        tree = ast.parse(path.read_text())
        words |= set(references(tree))
        words |= {word for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and isinstance(node.value, str)
                  for word in re.findall(r"\w+", node.value)}
    return words


def unreached() -> list[str]:
    """The definitions of the package named nowhere in it but inside
    themselves, nor by the benchmark, nor in `bct.__all__`, nor in `KEPT`.
    Python calls the dunder methods itself, and `cli.main` looks the
    `cmd_*` functions up in its globals."""
    trees = {path.stem: ast.parse(path.read_text()) for path in SOURCES}
    everywhere = sum((references(tree) for tree in trees.values()), Counter())
    exempt = benchmark_words() | set(bct.__all__)
    found = []
    for module, tree in trees.items():
        for qualname, node in definitions(tree):
            name = node.name
            if (name.startswith("__") and name.endswith("__")
                    or module == "cli" and name.startswith("cmd_")):
                continue
            if (everywhere[name] > references(node)[name] or name in exempt
                    or f"{module}.{qualname}" in KEPT):
                continue
            found.append(f"{module}.{qualname}")
    return found


def test_every_definition_is_reached():
    defined = {f"{path.stem}.{qualname}" for path in SOURCES
               for qualname, _node in definitions(ast.parse(path.read_text()))}
    assert set(KEPT) <= defined
    assert unreached() == []


def unread_imports(tree: ast.Module) -> list[str]:
    """The names `tree` imports and never reads: a read is a `Name` anywhere
    in the module, or a string in its `__all__`."""
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read |= {item.value for item in ast.walk(node.value)
                     if isinstance(item, ast.Constant) and isinstance(item.value, str)}
    return sorted(imported - read)


@pytest.mark.parametrize("path", SOURCES + TESTS,
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_read(path):
    assert unread_imports(ast.parse(path.read_text())) == []
