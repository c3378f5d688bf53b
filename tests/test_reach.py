"""Every function of the package is reached by a CLI command, or says why not.

A fresh interpreter, so that the caches of ``build_geometry`` and
``fano._class_table`` start empty, runs every command of test_golden.py
through ``cli.main`` in both formats, plus the commands the golden digests
skip, under ``sys.setprofile``. Each code object it enters is mapped to its
``def`` by file, first line and name; the first line of a decorated
function is that of its first decorator, as the syntax tree gives it. The
defs never entered must be exactly the keys of ``NOT_REACHED``, each with
why it stays:

- ``"bench <workload>"``: a one-second run of that bench workload enters it;
- ``"api"``: library API for a statement of the paper;
- ``"error"``: reached only on a rejection path;
- ``"debug"``: reached only with DEBUG logging.

So a new function that nothing reaches fails here until it is listed or
deleted, and a listed function that a command comes to reach fails until
its entry goes. ``PYTHONPATH=src python tests/test_reach.py`` prints the
defs the commands do not reach, one ``module.qualname`` a line.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from test_golden import CLI_DIGESTS

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "simplex_designs"

# a positive isomorphism, which reaches the search, and a census on a
# centre and z of its own, which parses both
EXTRA_COMMANDS = (
    ("isomorphic", "c2", "c2"),
    ("census", "--center", "{1,2,3,4,5,6,7,8}", "--z", "{1,2,3,4,5,6,7}", "--delta-limit", "50"),
)

COMMANDS = [
    ["--sorted", "--format", fmt, *argv]
    for fmt in ("kv", "text")
    for argv in (*sorted(CLI_DIGESTS), *EXTRA_COMMANDS)
]

# runs the commands read from stdin and prints their exit codes and the
# (file, first line, name) of every code object entered, the import included
PROBE = """
import contextlib, io, json, sys

entered = set()


def profile(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)


sys.setprofile(profile)
from simplex_designs.cli import main

exit_codes = []
for argv in json.load(sys.stdin):
    with contextlib.redirect_stdout(io.StringIO()):
        exit_codes.append(main(argv))
sys.setprofile(None)
codes = sorted({(c.co_filename, c.co_firstlineno, c.co_name) for c in entered})
print(json.dumps({"exit_codes": exit_codes, "entered": codes}))
"""

BENCH_WORKLOADS = ("classify", "slice", "census", "iso")

NOT_REACHED = {
    "cliques.Clique.__contains__": "api",
    "cliques.Clique.points": "api",
    "cliques.Clique.vertices": "bench slice",
    "cliques.CollinearityGraph.__init__": "bench slice",
    "cliques.CollinearityGraph._unchecked": "bench slice",
    "cliques._colex_columns": "bench slice",
    "cliques._renumber": "bench slice",
    "cliques.build_graph": "bench slice",
    "cliques.build_graph.<locals>.walk": "bench slice",
    "cliques.enumerate_maximal_cliques": "bench slice",
    "cliques.maximal_cliques": "bench slice",
    "cliques.maximal_cliques.<locals>.expand": "bench slice",
    "constructions.CenteredDecomposition._sets": "api",
    "constructions.CenteredDecomposition.delta": "api",
    "constructions.CenteredDecomposition.fano_bijection": "api",
    "constructions.CenteredDecomposition.x_points": "api",
    "constructions.CenteredDecomposition.y_points": "api",
    "constructions._check_half_clique": "api",
    "constructions.center_points": "api",
    "constructions.decompose": "api",
    "constructions.hyperplane_complement_clique": "api",
    "constructions.lines_inside": "api",
    "constructions.non_centered_clique": "api",
    "constructions.planes_inside": "bench slice",
    "constructions.split_non_centered": "api",
    "designs.Design.__getstate__": "api",
    "designs.Design.relabeled": "api",
    "designs.HadamardMatrix.is_normalized": "bench classify",
    "designs.design_from_clique": "api",
    "designs.from_hadamard": "bench classify",
    "designs.parse_hadamard": "api",
    "fano.FanoBijection.__call__": "api",
    "fano.FanoBijection.from_mapping": "api",
    "fano.FanoBijection.mapping": "api",
    "fano.FanoPlane.lines": "api",
    "fano.FanoPlane.position": "api",
    "fano.FanoPlane.simplices": "api",
    "fano._class_table": "api",
    "fano.are_equivalent": "api",
    "fano.automorphisms": "api",
    "fano.canonical_labeling": "api",
    "fano.equivalence_classes": "api",
    "fano.index_spectrum": "bench census",
    "fano.is_simplex": "api",
    "geometry.Geometry.__len__": "api",
    "geometry.Geometry._index": "bench slice",
    "geometry.Geometry.index_of": "bench slice",
    "geometry.Geometry.indices_of": "bench slice",
    "geometry.Geometry.points": "bench slice",
    "geometry.GeometryParams.point_size": "bench slice",
    "geometry.Line.__contains__": "api",
    "geometry.Line.__post_init__": "api",
    "geometry.Line.through": "api",
    "geometry.is_collinear": "api",
    "geometry.is_singular_subspace": "api",
    "geometry.is_subspace": "api",
    "geometry.line_through": "api",
    "geometry.singular_span": "api",
    "groups._ChainElements.__contains__": "api",
    "groups._ChainElements.__getitem__": "api",
    "search._Classes.rounds": "debug",
    "subsets.ElementSet.__and__": "api",
    "subsets.ElementSet.__contains__": "api",
    "subsets.ElementSet.__or__": "api",
    "subsets.ElementSet.empty": "error",
    "subsets.ElementSet.full": "bench slice",
    "subsets.Permutation.__mul__": "api",
    "subsets.Permutation.from_cycles": "api",
    "subsets.Permutation.from_mapping": "api",
    "subsets.Permutation.identity": "api",
    "subsets.Permutation.inverse": "api",
    "subsets.Permutation.random": "api",
    "subsets.compose": "api",
    "subsets.subsets_of": "bench slice",
}


def package_defs() -> dict:
    """Each def of the package, (file, first line, name) -> "module.qualname"."""
    defs = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                defs[str(path), first, child.name] = f"{path.stem}.{prefix}{child.name}"
                visit(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), path, "")
    return defs


def not_reached() -> list[str]:
    """The defs that no command of COMMANDS enters, sorted."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent), *filter(None, [env.get("PYTHONPATH")])]
    )
    run = subprocess.run(
        [sys.executable, "-c", PROBE], input=json.dumps(COMMANDS),
        capture_output=True, text=True, env=env, check=True, timeout=300,
    )
    result = json.loads(run.stdout)
    assert result["exit_codes"] == [0] * len(COMMANDS)
    entered = {(str(Path(f).resolve()), line, name) for f, line, name in result["entered"]}
    defs = package_defs()
    return sorted(name for key, name in defs.items() if key not in entered)


def test_the_defs_not_reached_are_listed():
    missed = not_reached()
    unlisted = [name for name in missed if name not in NOT_REACHED]
    assert unlisted == [], "reached by no command: list each in NOT_REACHED or delete it"
    reached = [name for name in NOT_REACHED if name not in missed]
    assert reached == [], "listed in NOT_REACHED, but a command reaches it or it is gone"


def test_every_reason_is_known():
    kinds = {"api", "error", "debug", *(f"bench {w}" for w in BENCH_WORKLOADS)}
    assert {name: why for name, why in NOT_REACHED.items() if why not in kinds} == {}


if __name__ == "__main__":
    print("\n".join(not_reached()))
