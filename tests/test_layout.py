"""Source layout rules for the package, checked on its syntax trees.

Modules share code through public names only, and the lowest-set-bit
idiom ``x & -x`` lives in subsets.py alone (set_bits and map_bits), so
there is one set-bit iterator in the package.
"""

import ast
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


def test_package_modules_found():
    assert PACKAGE / "subsets.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_names_imported_from_siblings(path):
    assert private_sibling_imports(parse(path)) == []


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "subsets.py"], ids=lambda p: p.name
)
def test_lowest_set_bit_idiom_only_in_subsets(path):
    assert lowest_bit_idioms(parse(path)) == []


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
