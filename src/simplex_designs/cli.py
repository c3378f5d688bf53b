"""Command-line front end.

Subcommands construct the reference cliques, classify incidence-matrix
files, search for design isomorphisms, and run a census of centered
products over a fixed center. Reports are plain text or key=value lines,
ending with the elapsed time unless --sorted; exit codes: 0 ok, 1 invariant
violation, 2 parse error, 3 internal inconsistency, 141 output closed early.
"""

import argparse
import os
import sys
import time
from dataclasses import dataclass
from importlib import resources
from itertools import permutations
from pathlib import Path

from .constructions import (
    INDEX_BY_TAG,
    TAG_BY_INDEX,
    canonical_centered_blocks,
    canonical_center,
    classify_clique,
    default_z,
    hyperplane_complement_blocks,
    non_centered_blocks,
    product_clique,
)
from .designs import (
    Design,
    automorphism_group,
    block_orbit_count,
    clique_from_design,
    find_isomorphism,
    flag_orbit_count,
    is_point_primitive,
    parse_incidence,
    point_block_systems,
    render_incidence,
    to_hadamard,
)
from .errors import InternalCheckError, InvariantError, ParseError
from .fano import FanoBijection, bijection_index, fano_planes_on
from .subsets import ElementSet, parse_set

CONSTRUCT_KINDS = ("c1", "c2", "c3", "c4", "non-centered", "hyperplane-complement")
KIND_TO_INDEX = {
    tag.value.lower(): idx
    for tag, idx in INDEX_BY_TAG.items()
}
FIXTURE_NAMES = {kind: kind.replace("-", "_") for kind in CONSTRUCT_KINDS[:5]}
# what a shell reports for a writer killed by SIGPIPE, 128 + 13
EXIT_BROKEN_PIPE = 141


@dataclass(frozen=True)
class Report:
    """What one command found, complete when the command returns it.

    The elapsed time is not part of it: main passes that to emit.
    """

    command: str
    parameters: dict
    results: dict

    def emit(self, fmt: str, timing: float | None) -> str:
        """The report as text or kv lines, ending with the timing unless it is None."""
        if fmt == "kv":
            return self._emit_kv(timing)
        return self._emit_text(timing)

    def _emit_kv(self, timing: float | None) -> str:
        lines = [f"command={self.command}"]
        for key, value in self.parameters.items():
            lines.append(f"param.{key}={_flat(value)}")
        for key, value in self.results.items():
            lines.append(f"{key}={_flat(value)}")
        if timing is not None:
            lines.append(f"timing_seconds={timing:.3f}")
        return "\n".join(lines)

    def _emit_text(self, timing: float | None) -> str:
        lines = [f"command: {self.command}"]
        if self.parameters:
            lines.append("parameters:")
            for key, value in self.parameters.items():
                lines.append(f"  {key} = {_flat(value)}")
        for key, value in self.results.items():
            if isinstance(value, list) and value and "\n" not in str(value[0]):
                lines.append(f"{key}:")
                for item in value:
                    lines.append(f"  {item}")
            else:
                lines.append(f"{key}: {_flat(value)}")
        if timing is not None:
            lines.append(f"elapsed: {timing:.3f}s")
        return "\n".join(lines)


def _flat(value) -> str:
    if isinstance(value, list):
        return "/".join(str(v) for v in value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _read_design(path_text: str, args) -> Design:
    """Resolve an argument as a file path or a fixture name and parse it."""
    path = Path(path_text)
    if not path.exists():
        name = FIXTURE_NAMES.get(path_text)
        if name is None:
            raise ParseError(f"no such file or fixture: {path_text!r}")
        folder = resources.files("simplex_designs.fixtures")
        if args.fixture_dir:
            folder = Path(args.fixture_dir)
            if not (folder / f"{name}.incidence.txt").exists():
                raise ParseError(f"fixture {path_text!r} not found in {folder}")
        path = folder / f"{name}.incidence.txt"
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path} is not a readable UTF-8 text file") from exc
    return parse_incidence(text)


def _write_out(args, stem: str, incidence: str, hadamard: str, style: str):
    if not args.out_dir:
        return
    out = Path(args.out_dir)
    suffix = "hadamard01" if style == "01" else "hadamardpm"
    try:
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{stem}.incidence.txt").write_text(incidence + "\n")
        (out / f"{stem}.{suffix}.txt").write_text(hadamard + "\n")
    except OSError as exc:
        raise ParseError(f"{out} is not a writable directory") from exc


def _verdict_fields(verdict, centers: bool) -> dict:
    """The classification fields of construct and classify; construct also lists centers."""
    results = {
        "class": verdict.tag.value,
        "bijection_index": verdict.index if verdict.index is not None else "none",
        "center_count": len(verdict.centers),
    }
    if centers:
        results["centers"] = [str(o) for o in verdict.centers]
    results["lines_inside"] = verdict.line_count
    results["planes_inside"] = verdict.plane_count
    return results


def cmd_construct(args) -> Report:
    kind = args.kind
    if kind == "hyperplane-complement":
        blocks = hyperplane_complement_blocks(4)
    elif kind == "non-centered":
        blocks = non_centered_blocks()
    else:
        blocks = canonical_centered_blocks(KIND_TO_INDEX[kind])
    design = Design.from_blocks(blocks)
    verdict = classify_clique(clique_from_design(design))
    hadamard = to_hadamard(design)

    incidence = render_incidence(design)
    rendered = hadamard.render(args.hadamard_style)
    _write_out(args, kind.replace("-", "_"), incidence, rendered, args.hadamard_style)
    return Report("construct", {"kind": kind}, {
        **_verdict_fields(verdict, centers=True),
        "blocks": [str(b) for b in design.blocks],
        "incidence": incidence.splitlines(),
        "hadamard": rendered.splitlines(),
    })


def cmd_classify(args) -> Report:
    design = _read_design(args.file, args)
    if design.v != 15:
        raise InvariantError(f"classify needs a 15-point design, got {design.v} points")
    verdict = classify_clique(clique_from_design(design))
    group = automorphism_group(design)
    return Report("classify", {"file": args.file}, {
        **_verdict_fields(verdict, centers=False),
        "automorphism_order": group.order,
        "block_orbits": block_orbit_count(design, group),
        "flag_orbits": flag_orbit_count(design, group),
        "point_primitive": is_point_primitive(group),
        "point_block_systems": len(point_block_systems(group)),
    })


def cmd_isomorphic(args) -> Report:
    d1 = _read_design(args.file_a, args)
    d2 = _read_design(args.file_b, args)
    witness = find_isomorphism(d1, d2)
    if witness is None:
        results = {"isomorphic": False, "witness": "none (search exhausted)"}
    else:
        results = {
            "isomorphic": True,
            "witness": witness.cycle_string(),
            "witness_images": list(witness.images),
        }
    return Report("isomorphic", {"a": args.file_a, "b": args.file_b}, results)


def cmd_census(args) -> Report:
    n = 15
    # a negative limit would slice from the end of the plane or bijection list
    for flag, limit in (("--x-limit", args.x_limit), ("--y-limit", args.y_limit),
                        ("--delta-limit", args.delta_limit)):
        if limit is not None and limit < 0:
            raise ParseError(f"{flag} must be non-negative, got {limit}")
    O = parse_set(args.center, n) if args.center else canonical_center()
    if len(O) != 8:
        raise InvariantError(f"center {O} must have 8 elements, got {len(O)}")
    Z = parse_set(args.z, n) if args.z else default_z(O)
    if not Z <= O or len(Z) != 7:
        raise InvariantError("z must be a 7-element subset of the center")
    o_complement = ElementSet(((1 << n) - 1) & ~O.bits, n)
    xs = fano_planes_on(o_complement)[: args.x_limit]
    ys = fano_planes_on(Z)[: args.y_limit]
    deltas = list(permutations(range(7)))
    if args.delta_limit is not None:
        deltas = deltas[: args.delta_limit]

    tallies = dict.fromkeys(TAG_BY_INDEX, 0)
    seen = set()
    checked = {}
    for X in xs:
        for Y in ys:
            for images in deltas:
                d = FanoBijection(X, Y, images)
                idx = bijection_index(d)
                clique = product_clique(O, X, Y, d)
                seen.add(clique.bits)
                tallies[idx] += 1
                if idx not in checked:
                    verdict = classify_clique(clique)
                    if verdict.tag is not TAG_BY_INDEX[idx]:
                        raise InternalCheckError(
                            f"index {idx} product classified as {verdict.tag.value}"
                        )
                    checked[idx] = verdict.tag.value
    expected = len(xs) * len(ys) * len(deltas)
    if len(seen) != expected:
        raise InternalCheckError(
            f"{expected} parameter triples produced {len(seen)} distinct cliques"
        )
    results = {"products": expected, "distinct_cliques": len(seen)}
    for idx in TAG_BY_INDEX:
        results[f"count_index_{idx}"] = tallies[idx]
        if idx in checked:
            results[f"class_of_index_{idx}"] = checked[idx]
    parameters = {
        "center": str(O),
        "z": str(Z),
        "x_choices": len(xs),
        "y_choices": len(ys),
        "bijections": len(deltas),
    }
    return Report("census", parameters, results)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simplex-designs",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--format", choices=("text", "kv"), default="text")
    parser.add_argument("--sorted", action="store_true", help="reproducible output (omits timing)")
    parser.add_argument("--fixture-dir", help="directory overriding the packaged fixtures")
    parser.add_argument("--out-dir", help="write matrices as standalone files here")
    sub = parser.add_subparsers(dest="command", required=True)

    p_construct = sub.add_parser("construct", help="build one of the reference cliques")
    p_construct.add_argument("kind", choices=CONSTRUCT_KINDS)
    p_construct.add_argument("--hadamard-style", choices=("01", "pm"), default="01")
    p_construct.set_defaults(func=cmd_construct)

    p_classify = sub.add_parser("classify", help="classify a 15x15 incidence matrix file")
    p_classify.add_argument("file")
    p_classify.set_defaults(func=cmd_classify)

    p_iso = sub.add_parser("isomorphic", help="search for a design isomorphism")
    p_iso.add_argument("file_a")
    p_iso.add_argument("file_b")
    p_iso.set_defaults(func=cmd_isomorphic)

    p_census = sub.add_parser("census", help="count centered products over a fixed center")
    p_census.add_argument("--center", help="center point, e.g. '{8,9,10,11,12,13,14,15}'")
    p_census.add_argument("--z", help="7-element subset of the center")
    p_census.add_argument("--x-limit", type=int, default=1)
    p_census.add_argument("--y-limit", type=int, default=1)
    p_census.add_argument("--delta-limit", type=int, default=None)
    p_census.set_defaults(func=cmd_census)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        report = args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 1
    except InternalCheckError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 3
    elapsed = None if args.sorted else time.perf_counter() - started
    try:
        print(report.emit(args.format, elapsed))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed early: stdout goes to devnull, so the flush at
        # interpreter exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return 0


if __name__ == "__main__":
    sys.exit(main())
