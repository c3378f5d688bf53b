"""Source layout rules for the package, checked on its syntax trees.

Modules share code through public names only, and the lowest-set-bit
idiom ``x & -x`` lives in subsets.py alone (set_bits and map_bits), so
there is one set-bit iterator in the package, and no loop or comprehension
over a range tests bit i of a mask with ``>> i & 1``: that scan of every
ground position is the walk set_bits replaces, while a single bit test, as
in ElementSet.__contains__, walks nothing. The one exception to the idiom is
search.Search.propagate, which runs once per search node and takes the
lowest guard bit inline, as a generator there costs about 4 % of an
automorphism_group call. No module imports numpy, not even inside a
function: the collinearity graph is built and renumbered on Python ints
like every other bitset, so the package runs on the standard library
alone. The point roster's numbering (index_of, indices_of,
Clique.vertices) is used in geometry.py and cliques.py alone: everywhere
else points are bitmasks, so nothing else builds the roster. functools.lru_cache and
functools.cache appear only on build_geometry, the one shared geometry
of each dimension, and on fano._class_table, the one group and
class table of position permutations of every Fano plane, which takes no
argument and holds only immutable values: a module-level cache is global
mutable state, and what the search computes lazily stays on its own
instances. The designs sit on two layers: search.py holds the search on
incidence bitmasks, groups.py the permutation groups, and designs.py the
design values, their I/O and the design-level wrappers of both. groups.py
imports no sibling but subsets and errors, and search.py those and
groups, for its orbit helper, so neither layer reaches back into the
designs or the geometry. fano.py imports none of designs, search and
groups: the plane group and its classes come from the plane's lines, with
no design search.
Clique._proved, which skips the pair check, is called only by
enumerate_maximal_cliques and product_clique, whose outputs are proved
cliques by construction; every other clique goes through the full check.
Likewise CollinearityGraph._unchecked, which skips the edge check, is
called only by build_graph, whose rows are collinearity by construction.
Modules import their siblings at module level only, and those imports form
no cycle: an import inside a function hides a dependency, and runs on every
call. Every dataclass is frozen: a value that checks itself when built must
not change after the check, and cli.Report is complete when a command
returns it. object.__setattr__, which writes past the freeze, is called only
in a __post_init__, to set the fields a value derives from its inputs, and
in Clique._proved, which fills a clique without its check. designs.py,
search.py and groups.py neither import nor call map_bits: a whole design
moves through Incidence.relabeled, every block at once, and a single set
through apply. designs.py reads no attribute of the packed incidence
(_Fields and the Incidence fields that hold it): only search.py knows
that format, so a change to it stays inside the search.
Module-level functions of geometry.py that take a Geometry read point
bitmasks through Geometry.bits_of alone, never through a .bits attribute,
so a set that is not a point raises InvariantError instead of passing as one.
cliques.py has no yield from and no function that calls itself, apart from
build_graph's walk, which recurses once per element of a point (2m deep):
the maximal-clique search runs on an explicit stack, so it makes no
generator per search node and an emitted clique climbs no generator chain.
search.Search.branch_point has no loop and no comprehension: it runs once
per search node and counts every row of the state with a few big-int
operations, as a walk over the undecided rows there costs about a tenth of
an automorphism_group call. search._pair_signatures and search._refine
call no combinations: they treat every pair of indices at once, through
joined bytes, big ints and slices, as a loop over the pairs there took most
of the refinement's time. Every name that a module other than __init__.py
imports is read in that module, as no linter runs on the package and an
import left behind by a rewrite would go unseen.
"""

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "simplex_designs"
MODULES = sorted(PACKAGE.glob("*.py"))


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def private_sibling_imports(tree):
    """Underscore names imported from modules of this package."""
    return [
        f"line {node.lineno}: {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").startswith("simplex_designs"))
        for alias in node.names
        if alias.name.startswith("_")
    ]


def imported_siblings(node):
    """Names of the package modules an import statement loads."""
    if isinstance(node, ast.Import):
        return [
            alias.name.split(".")[1]
            for alias in node.names
            if alias.name.startswith("simplex_designs.")
        ]
    if not isinstance(node, ast.ImportFrom):
        return []
    if node.level == 1:
        module = node.module or ""
    elif node.level == 0 and (node.module or "").split(".")[0] == "simplex_designs":
        module = node.module.partition(".")[2]
    else:
        return []
    # from . import name loads the sibling module name
    return [module.split(".")[0]] if module else [alias.name for alias in node.names]


def sibling_imports(tree):
    """Imports of package modules as (line, module, inside a function) triples."""
    found = []

    def visit(node, in_function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            in_function = True
        for module in imported_siblings(node):
            found.append((node.lineno, module, in_function))
        for child in ast.iter_child_nodes(node):
            visit(child, in_function)

    visit(tree, False)
    return found


def import_cycle(graph):
    """A cycle of the module graph as a closed list of modules, or [] if it has none."""
    try:
        TopologicalSorter(graph).prepare()
    except CycleError as error:
        return error.args[1]
    return []


def module_import_graph():
    """Each package module and the siblings it imports at module level."""
    return {
        path.stem: {module for _, module, inside in sibling_imports(parse(path)) if not inside}
        for path in MODULES
    }


def function_lines(tree, qualname: str) -> range:
    """The lines of the function Class.function (or function) in tree."""
    scopes = [(tree, "")]
    while scopes:
        node, scope = scopes.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                name = f"{scope}{child.name}"
                if name == qualname:
                    return range(child.lineno, child.end_lineno + 1)
                scopes.append((child, f"{name}."))
    raise LookupError(qualname)


def lowest_bit_idioms(tree):
    """Expressions of the form x & -x or -x & x."""
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitAnd)):
            continue
        for plain, negated in ((node.left, node.right), (node.right, node.left)):
            if (
                isinstance(negated, ast.UnaryOp)
                and isinstance(negated.op, ast.USub)
                and ast.dump(negated.operand) == ast.dump(plain)
            ):
                found.append(f"line {node.lineno}: {ast.unparse(node)}")
    return found


def bit_tests_of(node, name: str) -> bool:
    """Whether node holds ``x >> e & 1`` (or ``1 & x >> e``) with name inside e."""
    for test in ast.walk(node):
        if isinstance(test, ast.BinOp) and isinstance(test.op, ast.BitAnd):
            for one, shift in ((test.right, test.left), (test.left, test.right)):
                if (
                    isinstance(one, ast.Constant) and one.value == 1
                    and isinstance(shift, ast.BinOp) and isinstance(shift.op, ast.RShift)
                    and any(isinstance(n, ast.Name) and n.id == name for n in ast.walk(shift.right))
                ):
                    return True
    return False


def range_bit_scans(tree):
    """Loops and comprehensions over a range that test ``>> i & 1`` for their variable i."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            loops = [(node.target, node.iter, node.body)]
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            loops = [(gen.target, gen.iter, [*gen.ifs, node.elt]) for gen in node.generators]
        elif isinstance(node, ast.DictComp):
            parts = [node.key, node.value]
            loops = [(gen.target, gen.iter, [*gen.ifs, *parts]) for gen in node.generators]
        else:
            continue
        for target, over, body in loops:
            if (
                isinstance(over, ast.Call)
                and ast.unparse(over.func) == "range"
                and isinstance(target, ast.Name)
                and any(bit_tests_of(part, target.id) for part in body)
            ):
                found.append((node.lineno, node.col_offset, type(node).__name__))
    return [f"line {line}: {kind}" for line, _, kind in sorted(found)]


ROSTER_NAMES = {"index_of", "indices_of", "vertices"}


def roster_numbering_uses(tree):
    """Attribute reads of index_of, indices_of or vertices."""
    return [
        f"line {node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ROSTER_NAMES
    ]


def imports_numpy(node):
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        names = [node.module or ""]
    else:
        return False
    return any(name.split(".")[0] == "numpy" for name in names)


def numpy_imports(tree):
    """Imports of numpy anywhere in the module, function bodies included."""
    found = [node for node in ast.walk(tree) if imports_numpy(node)]
    found.sort(key=lambda node: node.lineno)
    return [f"line {node.lineno}: {ast.unparse(node)}" for node in found]


def map_bits_uses(tree):
    """Imports of map_bits and references to it, as "line N: source", in line order."""
    found = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and any(a.name == "map_bits" for a in node.names)
        or isinstance(node, ast.Name) and node.id == "map_bits"
        or isinstance(node, ast.Attribute) and node.attr == "map_bits"
    ]
    found.sort(key=lambda node: (node.lineno, node.col_offset))
    return [f"line {node.lineno}: {ast.unparse(node)}" for node in found]


def geometry_functions(tree):
    """Module-level functions with a parameter annotated Geometry."""
    return [
        node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(
            arg.annotation is not None and ast.unparse(arg.annotation).strip("'\"") == "Geometry"
            for arg in node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        )
    ]


def point_bits_reads(tree):
    """Reads of a .bits attribute in geometry_functions, as "line N: expr in function"."""
    return [
        f"line {node.lineno}: {ast.unparse(node)} in {function.name}"
        for function in geometry_functions(tree)
        for node in ast.walk(function)
        if isinstance(node, ast.Attribute) and node.attr == "bits"
    ]


def yield_froms(tree):
    """yield from expressions, as "line N: source"."""
    return [
        f"line {node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(tree)
        if isinstance(node, ast.YieldFrom)
    ]


def self_calls(tree):
    """Calls of a function by its own name inside its body, as "line N: call in Class.function".

    A call counts whether the name stands alone or after a dot, as a method
    calls itself through self, and whether it sits in the function or in a
    function nested in it.
    """
    found = []

    def visit(node, scope, enclosing):
        if isinstance(node, ast.ClassDef):
            scope = f"{scope}{node.name}."
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            enclosing = [*enclosing, (node.name, f"{scope}{node.name}")]
            scope = f"{scope}{node.name}."
        elif isinstance(node, ast.Call):
            func = node.func
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            found.extend(
                f"line {node.lineno}: {ast.unparse(node.func)} in {where}"
                for name, where in enclosing
                if name == called
            )
        for child in ast.iter_child_nodes(node):
            visit(child, scope, enclosing)

    visit(tree, "", [])
    return found


LOOP_NODES = (
    ast.For, ast.AsyncFor, ast.While,
    ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp,
)


def loops_in(tree, qualname: str):
    """Loops and comprehensions in the function Class.function, as "line N: kind"."""
    lines = function_lines(tree, qualname)
    found = [
        node for node in ast.walk(tree) if isinstance(node, LOOP_NODES) and node.lineno in lines
    ]
    found.sort(key=lambda node: (node.lineno, node.col_offset))
    return [f"line {node.lineno}: {type(node).__name__}" for node in found]


def calls_in(tree, qualname: str, name: str):
    """Calls of name, bare or after a dot, in the function Class.function, as "line N: call"."""
    lines = function_lines(tree, qualname)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and node.lineno in lines:
            func = node.func
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if called == name:
                found.append((node.lineno, node.col_offset, ast.unparse(func)))
    return [f"line {line}: {call}" for line, _, call in sorted(found)]


# build_graph's walk recurses once per element of a point, 2m levels deep
SELF_CALLERS = {"build_graph.walk"}

# the search's propagation loop takes the lowest guard bit inline
LOWEST_BIT_TAKERS = {("search.py", "Search.propagate")}


def lowest_bits_outside_takers(path):
    """Lowest-set-bit idioms of a package module outside LOWEST_BIT_TAKERS."""
    tree = parse(path)
    spans = [
        function_lines(tree, name) for module, name in LOWEST_BIT_TAKERS if module == path.name
    ]
    return [
        idiom
        for idiom in lowest_bit_idioms(tree)
        if not any(int(idiom.split(":")[0].removeprefix("line ")) in span for span in spans)
    ]


CACHE_NAMES = {"lru_cache", "cache"}
CACHED_FUNCTIONS = {("geometry.py", "build_geometry"), ("fano.py", "_class_table")}


def functools_caches(tree):
    """References to functools.lru_cache or functools.cache.

    A decorator is reported with the function it decorates, as
    "line N: @decorator on name"; any other reference as "line N: expr".
    """
    local = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "functools"
        for alias in node.names
        if alias.name in CACHE_NAMES
    }
    modules = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "functools"
    }

    def is_cache(node):
        if isinstance(node, ast.Name):
            return node.id in local
        return (
            isinstance(node, ast.Attribute)
            and node.attr in CACHE_NAMES
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        )

    decorated = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for decorator in node.decorator_list:
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                decorated[id(target)] = f"@{ast.unparse(decorator)} on {node.name}"
    return [
        f"line {node.lineno}: {decorated.get(id(node), ast.unparse(node))}"
        for node in ast.walk(tree)
        if is_cache(node)
    ]


def unused_imports(tree):
    """Names an import statement binds and the module never reads, as "line N: name".

    import a.b binds a; from __future__ imports bind nothing.
    """
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    found = [
        (node.lineno, alias.asname or alias.name.split(".")[0])
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    return [f"line {line}: {name}" for line, name in sorted(found) if name not in read]


def mutable_dataclasses(tree):
    """Classes decorated with dataclass, bare or called, but not with frozen=True."""
    return [
        f"line {node.lineno}: {node.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for decorator in node.decorator_list
        if ast.unparse(getattr(decorator, "func", decorator)).split(".")[-1] == "dataclass"
        and not any(
            keyword.arg == "frozen" and getattr(keyword.value, "value", None) is True
            for keyword in getattr(decorator, "keywords", ())
        )
    ]


SETATTR_CALLERS = {("cliques.py", "Clique._proved")}


def object_setattr_uses(tree):
    """References to object.__setattr__, as "line N: object.__setattr__ in Class.function".

    "<module>" stands for code outside any function.
    """
    found = []

    def visit(node, where, scope):
        if isinstance(node, ast.ClassDef):
            scope = f"{scope}{node.name}."
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{scope}{node.name}"
            scope = f"{where}."
        if (
            isinstance(node, ast.Attribute) and node.attr == "__setattr__"
            and isinstance(node.value, ast.Name) and node.value.id == "object"
        ):
            found.append(f"line {node.lineno}: object.__setattr__ in {where}")
        for child in ast.iter_child_nodes(node):
            visit(child, where, scope)

    visit(tree, "<module>", "")
    return found


PROVED_CALLERS = {
    ("cliques.py", "enumerate_maximal_cliques"),
    ("constructions.py", "product_clique"),
}
UNCHECKED_GRAPH_CALLERS = {("cliques.py", "build_graph")}


def constructor_uses(tree, name):
    """References to an unchecked constructor, as "line N: expr in function".

    Attribute reads, bare names and the string name (as getattr would take
    it) all count; "<module>" stands for code outside any function.
    """
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if (
            isinstance(node, ast.Attribute) and node.attr == name
            or isinstance(node, ast.Name) and node.id == name
            or isinstance(node, ast.Constant) and node.value == name
        ):
            found.append(f"line {node.lineno}: {ast.unparse(node)} in {where}")
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "<module>")
    return found


def uses_outside(path, name, callers):
    """The uses of name in the module at path that are not inside an allowed caller."""
    return [
        use
        for use in constructor_uses(parse(path), name)
        if not any(
            module == path.name and use.endswith(f" in {caller}") for module, caller in callers
        )
    ]


def test_package_modules_found():
    assert PACKAGE / "subsets.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_names_imported_from_siblings(path):
    assert private_sibling_imports(parse(path)) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_sibling_imported_inside_a_function(path):
    assert [
        f"line {line}: {module}" for line, module, inside in sibling_imports(parse(path)) if inside
    ] == []


def test_module_level_sibling_imports_form_no_cycle():
    assert import_cycle(module_import_graph()) == []


def test_import_rules_catch_the_patterns():
    tree = ast.parse(
        "from .cliques import Clique\n"
        "from . import fano\n"
        "import simplex_designs.geometry as geometry\n"
        "from simplex_designs.subsets import ElementSet\n"
        "from collections import Counter\n"
        "def classify(c):\n"
        "    from .constructions import decompose\n"
        "class Lazy:\n"
        "    def load(self):\n"
        "        import simplex_designs.designs\n"
    )
    assert sibling_imports(tree) == [
        (1, "cliques", False),
        (2, "fano", False),
        (3, "geometry", False),
        (4, "subsets", False),
        (7, "constructions", True),
        (10, "designs", True),
    ]
    cycle = import_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}, "d": {"a"}})
    assert cycle[0] == cycle[-1] and sorted(cycle[1:]) == ["a", "b", "c"]
    assert import_cycle({"a": {"b", "c"}, "b": {"c"}, "c": set()}) == []
    # the package's modules do import each other, so the graph rule is not vacuous
    assert module_import_graph()["constructions"] >= {"cliques", "fano", "geometry"}


def test_fano_does_not_import_designs():
    # the plane group and its classes come from the lines, not from a design search
    graph = module_import_graph()
    assert "designs" not in graph["fano"]
    assert graph["fano"] >= {"errors", "subsets"}


# the only siblings a layer may import
LAYER_IMPORTS = {
    "groups": {"errors", "subsets"},
    "search": {"errors", "groups", "subsets"},
}
# siblings a module must not import
BANNED_IMPORTS = {"fano": {"designs", "groups", "search"}}


def every_sibling_import():
    """Each package module and the siblings it imports anywhere, functions included."""
    return {
        path.stem: {module for _, module, _ in sibling_imports(parse(path))} for path in MODULES
    }


def layering_breaches(graph):
    """Imports of graph that break the layering, as "module -> sibling", sorted."""
    return sorted(
        [f"{module} -> {sibling}" for module, allowed in LAYER_IMPORTS.items()
         for sibling in graph[module] - allowed]
        + [f"{module} -> {sibling}" for module, banned in BANNED_IMPORTS.items()
           for sibling in graph[module] & banned]
    )


def test_search_and_groups_sit_below_the_designs():
    assert layering_breaches(every_sibling_import()) == []


def test_layering_rule_catches_a_planted_import():
    graph = every_sibling_import()
    planted = ast.parse(
        (PACKAGE / "search.py").read_text() + "def lazy():\n    from .designs import Design\n"
    )
    graph["search"] = {module for _, module, _ in sibling_imports(planted)}
    graph["groups"] = graph["groups"] | {"geometry"}
    graph["fano"] = graph["fano"] | {"groups"}
    assert layering_breaches(graph) == [
        "fano -> groups", "groups -> geometry", "search -> designs",
    ]
    # the layers do import their allowed siblings, so the rule is not vacuous
    graph = every_sibling_import()
    assert graph["search"] == LAYER_IMPORTS["search"]
    assert graph["groups"] == LAYER_IMPORTS["groups"]
    assert graph["designs"] >= {"groups", "search"}


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_every_imported_name_is_read(path):
    assert unused_imports(parse(path)) == []


def test_unused_import_rule_catches_the_patterns():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "import xml.dom\n"
        "from collections import Counter, deque as dq\n"
        "from .designs import Design, automorphism_group\n"
        "import json\n"
        "def count(x) -> 'Design':\n"
        "    json = x\n"
        "    return Counter(x), osp.join, xml.dom, Design\n"
    )
    assert unused_imports(tree) == [
        "line 2: os",
        "line 5: dq",
        "line 6: automorphism_group",
        "line 7: json",
    ]
    # __init__.py imports names only to export them, so it is left out
    assert unused_imports(parse(PACKAGE / "__init__.py"))


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "subsets.py"], ids=lambda p: p.name
)
def test_lowest_set_bit_idiom_only_in_subsets(path):
    assert lowest_bits_outside_takers(path) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_range_scan_for_set_bits(path):
    assert range_bit_scans(parse(path)) == []


def test_range_scan_rule_catches_the_patterns():
    tree = ast.parse(
        "elements = tuple(i + 1 for i in range(n) if bits >> i & 1)\n"
        "for e in range(1, n + 1):\n"
        "    if 1 & mask >> (e - 1):\n"
        "        out.append(e)\n"
        "rows = {j: adj[j] for j in range(v) if (row >> j) & 1}\n"
        "present = bits >> (element - 1) & 1 == 1\n"
        "for e in range(n):\n"
        "    total += other >> k & 1\n"
        "low = [i for i in positions if bits >> i & 1]\n"
    )
    assert range_bit_scans(tree) == [
        "line 1: GeneratorExp",
        "line 2: For",
        "line 5: DictComp",
    ]
    # ElementSet.__contains__ tests one bit and walks nothing
    contains = ast.parse(
        "def __contains__(self, element):\n"
        "    return 1 <= element <= self.ground_size and self.bits >> (element - 1) & 1 == 1\n"
    )
    assert range_bit_scans(contains) == []


def test_package_declares_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((PACKAGE.parents[1] / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_level_numpy_import(path):
    # every module, and inside functions too: no module imports numpy at all
    assert numpy_imports(parse(path)) == []


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "cliques.py"], ids=lambda p: p.name
)
def test_numpy_only_in_cliques(path):
    # cliques.py was the last module to use numpy; the rest never may
    assert numpy_imports(parse(path)) == []


@pytest.mark.parametrize(
    "path",
    [p for p in MODULES if p.name not in ("geometry.py", "cliques.py")],
    ids=lambda p: p.name,
)
def test_roster_numbering_only_in_geometry_and_cliques(path):
    assert roster_numbering_uses(parse(path)) == []


def test_designs_maps_no_set_with_map_bits():
    # whole designs move through Incidence.relabeled, single sets through apply
    for name in ("designs.py", "search.py", "groups.py"):
        assert map_bits_uses(parse(PACKAGE / name)) == [], name


def test_map_bits_rule_catches_the_patterns():
    tree = ast.parse(
        "from .subsets import apply, map_bits as move_bits\n"
        "import simplex_designs.subsets as subsets\n"
        "def image(b, p):\n"
        "    return subsets.map_bits(b, p)\n"
        "rows = [map_bits(r, p) for r in rows]\n"
        "doc = 'map_bits maps one set'\n"
    )
    assert map_bits_uses(tree) == [
        "line 1: from .subsets import apply, map_bits as move_bits",
        "line 4: subsets.map_bits",
        "line 5: map_bits",
    ]
    # apply maps its set through map_bits, so the rule is not vacuous
    assert map_bits_uses(parse(PACKAGE / "subsets.py"))


# the packed incidence of search.py: the _Fields methods and the Incidence
# attributes that hold the _Fields and the packed int
PACKED_FORMAT_NAMES = {"fields", "incidence", "move", "rows", "row", "pack", "spread"}


def packed_format_reads(tree):
    """Attribute reads of PACKED_FORMAT_NAMES, as "line N: expr"."""
    return [
        f"line {node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in PACKED_FORMAT_NAMES
    ]


def test_designs_reads_no_packed_incidence():
    assert packed_format_reads(parse(PACKAGE / "designs.py")) == []


def test_packed_format_rule_catches_a_planted_read():
    planted = ast.parse(
        (PACKAGE / "designs.py").read_text()
        + "def moved(ctx, images):\n"
        + "    fields = ctx.fields\n"
        + "    return fields.rows(fields.move(ctx.incidence, images))\n"
    )
    end = len((PACKAGE / "designs.py").read_text().splitlines())
    assert packed_format_reads(planted) == [
        f"line {end + 2}: ctx.fields",
        f"line {end + 3}: fields.rows",
        f"line {end + 3}: fields.move",
        f"line {end + 3}: ctx.incidence",
    ]
    # the search reads its own format, so the rule is not vacuous
    reads = packed_format_reads(parse(PACKAGE / "search.py"))
    assert {read.rpartition(".")[2] for read in reads} == PACKED_FORMAT_NAMES


def test_geometry_functions_read_points_through_bits_of():
    assert point_bits_reads(parse(PACKAGE / "geometry.py")) == []


def test_point_reads_catch_the_patterns():
    tree = ast.parse(
        "def closed(g: Geometry, s):\n"
        "    return {p.bits for p in s}\n"
        "def span(g: 'Geometry', s):\n"
        "    return [g.bits_of(p) for p in s]\n"
        "def loose(s):\n"
        "    return [p.bits for p in s]\n"
    )
    assert point_bits_reads(tree) == ["line 2: p.bits in closed"]
    # the checks on point families take a Geometry, so the rule is not vacuous
    assert {f.name for f in geometry_functions(parse(PACKAGE / "geometry.py"))} >= {
        "is_collinear", "is_subspace", "is_singular_subspace", "singular_span",
    }


def test_clique_search_runs_on_an_explicit_stack():
    tree = parse(PACKAGE / "cliques.py")
    assert yield_froms(tree) == []
    assert [
        call for call in self_calls(tree) if call.split(" in ")[-1] not in SELF_CALLERS
    ] == []


def test_stack_rule_catches_the_patterns():
    tree = ast.parse(
        "def expand(r, p):\n"
        "    yield from expand(r + [0], p)\n"
        "def search(adj):\n"
        "    def descend(p):\n"
        "        return [descend(q) for q in p] + search(q)\n"
        "    return descend(adj)\n"
        "class Walker:\n"
        "    def walk(self, node):\n"
        "        return [self.walk(child) for child in node]\n"
        "def flat(adj):\n"
        "    return expand([], adj)\n"
    )
    assert yield_froms(tree) == ["line 2: (yield from expand(r + [0], p))"]
    assert self_calls(tree) == [
        "line 2: expand in expand",
        "line 5: descend in search.descend",
        "line 5: search in search",
        "line 9: self.walk in Walker.walk",
    ]
    # build_graph's walk calls itself, so the rule is not vacuous
    assert [call.split(" in ")[-1] for call in self_calls(parse(PACKAGE / "cliques.py"))] == [
        "build_graph.walk"
    ]


def test_branch_point_walks_no_rows():
    assert loops_in(parse(PACKAGE / "search.py"), "Search.branch_point") == []


def test_loop_rule_catches_the_patterns():
    tree = ast.parse(
        "class Search:\n"
        "    def branch_point(self, state):\n"
        "        counts = [r.bit_count() for r in state]\n"
        "        while counts:\n"
        "            counts.pop()\n"
        "        return min(c for c in {x: 1 for x in state})\n"
        "    def first_hit(self, state):\n"
        "        for x in state:\n"
        "            pass\n"
    )
    assert loops_in(tree, "Search.branch_point") == [
        "line 3: ListComp",
        "line 4: While",
        "line 6: GeneratorExp",
        "line 6: DictComp",
    ]
    assert loops_in(tree, "Search.first_hit") == ["line 8: For"]
    # the search loops over a row's candidates next door, so the rule is not vacuous
    assert loops_in(parse(PACKAGE / "search.py"), "Search.first_hit")


@pytest.mark.parametrize("function", ["_pair_signatures", "_refine"])
def test_refinement_visits_no_pairs(function):
    assert calls_in(parse(PACKAGE / "search.py"), function, "combinations") == []


def test_pair_rule_catches_the_patterns():
    tree = ast.parse(
        "def _refine(masks):\n"
        "    for x, y in combinations(range(len(masks)), 2):\n"
        "        pass\n"
        "    return [m for m in itertools.combinations(masks, 2)]\n"
        "def _pair_signatures(masks):\n"
        "    return combinations\n"
    )
    assert calls_in(tree, "_refine", "combinations") == [
        "line 2: combinations",
        "line 4: itertools.combinations",
    ]
    assert calls_in(tree, "_pair_signatures", "combinations") == []
    # the design check visits every pair of blocks, so the rule is not vacuous
    assert calls_in(parse(PACKAGE / "designs.py"), "Design.__post_init__", "combinations")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_functools_caches_only_on_the_shared_geometry(path):
    assert [
        use
        for use in functools_caches(parse(path))
        if not any(
            module == path.name and use.endswith(f" on {name}")
            for module, name in CACHED_FUNCTIONS
        )
    ] == []


def test_rules_catch_the_patterns():
    tree = ast.parse(
        "from .cliques import _lowest_bits, Clique\n"
        "low = rest & -rest\n"
        "top = -mask & mask\n"
        "keep = a & -b\n"
    )
    assert private_sibling_imports(tree) == ["line 1: _lowest_bits"]
    assert lowest_bit_idioms(tree) == ["line 2: rest & -rest", "line 3: -mask & mask"]
    assert lowest_bit_idioms(parse(PACKAGE / "subsets.py"))
    # the exemption covers propagate alone, and propagate does use it
    search_idioms = lowest_bit_idioms(parse(PACKAGE / "search.py"))
    assert len(search_idioms) == 2 and lowest_bits_outside_takers(PACKAGE / "search.py") == []
    method_tree = ast.parse(
        "class Search:\n"
        "    def propagate(self, m):\n"
        "        return m & -m\n"
        "def propagate(m):\n"
        "    return m & -m\n"
    )
    assert list(function_lines(method_tree, "Search.propagate")) == [2, 3]
    assert list(function_lines(method_tree, "propagate")) == [4, 5]
    roster_tree = ast.parse(
        "seen.add(clique.vertices)\n"
        "i = g.index_of(p)\n"
        "vertices = [0, 1]\n"
    )
    assert roster_numbering_uses(roster_tree) == [
        "line 1: clique.vertices",
        "line 2: g.index_of",
    ]
    assert roster_numbering_uses(parse(PACKAGE / "cliques.py"))
    numpy_tree = ast.parse(
        "import numpy as np\n"
        "class Matrix:\n"
        "    from numpy.linalg import det\n"
        "def build():\n"
        "    import numpy\n"
        "import numpyro\n"
    )
    assert numpy_imports(numpy_tree) == [
        "line 1: import numpy as np",
        "line 3: from numpy.linalg import det",
        "line 5: import numpy",
    ]
    cache_tree = ast.parse(
        "import functools\n"
        "from functools import cache as memo, cached_property, lru_cache\n"
        "@functools.lru_cache(maxsize=None)\n"
        "def a(): pass\n"
        "@memo\n"
        "def b(): pass\n"
        "c = lru_cache(8)(len)\n"
        "class D:\n"
        "    @cached_property\n"
        "    def e(self): pass\n"
    )
    assert sorted(functools_caches(cache_tree)) == [
        "line 3: @functools.lru_cache(maxsize=None) on a",
        "line 5: @memo on b",
        "line 7: lru_cache",
    ]
    (shared,) = functools_caches(parse(PACKAGE / "geometry.py"))
    assert shared.endswith(": @lru_cache(maxsize=None) on build_geometry")


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "cli.py"], ids=lambda p: p.name
)
def test_dataclasses_are_frozen_outside_the_cli(path):
    assert mutable_dataclasses(parse(path)) == []


def test_frozen_rule_catches_the_patterns():
    tree = ast.parse(
        "@dataclass\n"
        "class A: pass\n"
        "@dataclasses.dataclass(order=True)\n"
        "class B: pass\n"
        "@dataclass(frozen=False)\n"
        "class C: pass\n"
        "@dataclass(frozen=True)\n"
        "class D: pass\n"
        "@dataclasses.dataclass(eq=False, frozen=True)\n"
        "class E: pass\n"
        "@total_ordering\n"
        "class F: pass\n"
    )
    assert sorted(mutable_dataclasses(tree)) == ["line 2: A", "line 4: B", "line 6: C"]
    # the rule holds in every module, cli.py included
    assert mutable_dataclasses(parse(PACKAGE / "cli.py")) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_object_setattr_only_while_building(path):
    assert [
        use
        for use in object_setattr_uses(parse(path))
        if not use.endswith(".__post_init__")
        and (path.name, use.partition(" in ")[2]) not in SETATTR_CALLERS
    ] == []


def test_setattr_rule_catches_the_patterns():
    tree = ast.parse(
        "class A:\n"
        "    def __post_init__(self):\n"
        "        object.__setattr__(self, 'n', 1)\n"
        "    def grow(self):\n"
        "        object.__setattr__(self, 'n', 2)\n"
        "def build(a):\n"
        "    write = object.__setattr__\n"
        "setattr(A(), 'n', 3)\n"
        "object.__setattr__(A(), 'n', 4)\n"
    )
    assert object_setattr_uses(tree) == [
        "line 3: object.__setattr__ in A.__post_init__",
        "line 5: object.__setattr__ in A.grow",
        "line 7: object.__setattr__ in build",
        "line 9: object.__setattr__ in <module>",
    ]
    # the values that derive fields, and the unchecked clique, use it, so the rule is not vacuous
    assert {
        (path.name, use.partition(" in ")[2])
        for path in MODULES
        for use in object_setattr_uses(parse(path))
    } == SETATTR_CALLERS | {
        ("cliques.py", "Clique.__post_init__"),
        ("constructions.py", "CliqueClass.__post_init__"),
        ("designs.py", "Design.__post_init__"),
        ("designs.py", "HadamardMatrix.__post_init__"),
        ("fano.py", "FanoBijection.__post_init__"),
        ("fano.py", "FanoPlane.__post_init__"),
        ("geometry.py", "GeometryParams.__post_init__"),
        ("geometry.py", "Line.__post_init__"),
        ("groups.py", "PermGroup.__post_init__"),
        ("subsets.py", "Permutation.__post_init__"),
    }


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_unchecked_cliques_only_from_the_enumerator_and_the_product(path):
    assert uses_outside(path, "_proved", PROVED_CALLERS) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_unchecked_graphs_only_from_build_graph(path):
    assert uses_outside(path, "_unchecked", UNCHECKED_GRAPH_CALLERS) == []


def test_proved_rule_catches_the_patterns():
    tree = ast.parse(
        "c = Clique._proved(g, bits)\n"
        "def build(g, bits):\n"
        "    make = getattr(Clique, '_proved')\n"
        "    return [_proved(g, b) for b in bits]\n"
        "doc = 'Clique._proved skips the pair check'\n"
    )
    assert constructor_uses(tree, "_proved") == [
        "line 1: Clique._proved in <module>",
        "line 3: '_proved' in build",
        "line 4: _proved in build",
    ]
    # both allowed callers use it, so the rule is not vacuous
    for module, name in PROVED_CALLERS:
        uses = constructor_uses(parse(PACKAGE / module), "_proved")
        assert uses and all(use.endswith(f" in {name}") for use in uses)


def test_unchecked_graph_rule_catches_the_patterns(tmp_path):
    path = tmp_path / "cliques.py"
    path.write_text(
        "def build_graph(g):\n"
        "    return CollinearityGraph._unchecked(g, rows(g))\n"
        "def induced(g, rows):\n"
        "    return getattr(CollinearityGraph, '_unchecked')(g, rows)\n"
    )
    assert uses_outside(path, "_unchecked", UNCHECKED_GRAPH_CALLERS) == [
        "line 4: '_unchecked' in induced",
    ]
    # build_graph uses it, so the rule is not vacuous
    (use,) = constructor_uses(parse(PACKAGE / "cliques.py"), "_unchecked")
    assert use.endswith(" in build_graph")
