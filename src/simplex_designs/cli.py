"""Command-line front end.

Subcommands construct the reference cliques, classify incidence-matrix
files, search for design isomorphisms, and run a census of centered
products over a fixed center. Reports are plain text or key=value lines;
exit codes: 0 ok, 1 invariant violation, 2 parse error, 3 internal
inconsistency.
"""

import argparse
import sys
import time
from dataclasses import dataclass, field
from importlib import resources
from itertools import permutations
from pathlib import Path

from .cliques import INDEX_BY_TAG, TAG_BY_INDEX, classify_clique
from .constructions import (
    canonical_centered_blocks,
    canonical_center,
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


@dataclass
class Report:
    command: str
    parameters: dict = field(default_factory=dict)
    results: dict = field(default_factory=dict)
    timing: float = 0.0

    def emit(self, fmt: str, sorted_output: bool) -> str:
        if fmt == "kv":
            return self._emit_kv(sorted_output)
        return self._emit_text(sorted_output)

    def _emit_kv(self, sorted_output: bool) -> str:
        lines = [f"command={self.command}"]
        for key, value in self.parameters.items():
            lines.append(f"param.{key}={_flat(value)}")
        for key, value in self.results.items():
            lines.append(f"{key}={_flat(value)}")
        if not sorted_output:
            lines.append(f"timing_seconds={self.timing:.3f}")
        return "\n".join(lines)

    def _emit_text(self, sorted_output: bool) -> str:
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
        if not sorted_output:
            lines.append(f"elapsed: {self.timing:.3f}s")
        return "\n".join(lines)


def _flat(value) -> str:
    if isinstance(value, list):
        return "/".join(str(v) for v in value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _fixture_dir(args) -> Path | None:
    if args.fixture_dir:
        return Path(args.fixture_dir)
    return None


def _read_design(path_text: str, args) -> Design:
    """Resolve an argument as a file path or a packaged fixture name."""
    path = Path(path_text)
    if path.exists():
        return parse_incidence(path.read_text())
    name = FIXTURE_NAMES.get(path_text)
    override = _fixture_dir(args)
    if name is not None:
        if override is not None:
            candidate = override / f"{name}.incidence.txt"
            if not candidate.exists():
                raise ParseError(f"fixture {path_text!r} not found in {override}")
            return parse_incidence(candidate.read_text())
        text = (
            resources.files("simplex_designs.fixtures")
            .joinpath(f"{name}.incidence.txt")
            .read_text()
        )
        return parse_incidence(text)
    raise ParseError(f"no such file or fixture: {path_text!r}")


def _write_out(args, stem: str, incidence: str, hadamard: str, style: str):
    if not args.out_dir:
        return
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{stem}.incidence.txt").write_text(incidence + "\n")
    suffix = "hadamard01" if style == "01" else "hadamardpm"
    (out / f"{stem}.{suffix}.txt").write_text(hadamard + "\n")


def _write_verdict(results: dict, verdict, centers: bool):
    """The classification fields of construct and classify; construct also lists centers."""
    results["class"] = verdict.tag.value
    results["bijection_index"] = verdict.index if verdict.index is not None else "none"
    results["center_count"] = len(verdict.centers)
    if centers:
        results["centers"] = [str(o) for o in verdict.centers]
    results["lines_inside"] = verdict.line_count
    results["planes_inside"] = verdict.plane_count


def cmd_construct(args) -> Report:
    kind = args.kind
    started = time.perf_counter()
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
    report = Report("construct", {"kind": kind})
    _write_verdict(report.results, verdict, centers=True)
    report.results["blocks"] = [str(b) for b in design.blocks]
    report.results["incidence"] = incidence.splitlines()
    report.results["hadamard"] = rendered.splitlines()
    report.timing = time.perf_counter() - started
    _write_out(args, kind.replace("-", "_"), incidence, rendered, args.hadamard_style)
    return report


def cmd_classify(args) -> Report:
    started = time.perf_counter()
    design = _read_design(args.file, args)
    if design.v != 15:
        raise InvariantError(f"classify needs a 15-point design, got {design.v} points")
    verdict = classify_clique(clique_from_design(design))
    group = automorphism_group(design)
    report = Report("classify", {"file": args.file})
    _write_verdict(report.results, verdict, centers=False)
    report.results["automorphism_order"] = group.order
    report.results["block_orbits"] = block_orbit_count(design, group)
    report.results["flag_orbits"] = flag_orbit_count(design, group)
    report.results["point_primitive"] = is_point_primitive(group)
    report.results["point_block_systems"] = len(point_block_systems(group))
    report.timing = time.perf_counter() - started
    return report


def cmd_isomorphic(args) -> Report:
    started = time.perf_counter()
    d1 = _read_design(args.file_a, args)
    d2 = _read_design(args.file_b, args)
    witness = find_isomorphism(d1, d2)
    report = Report("isomorphic", {"a": args.file_a, "b": args.file_b})
    report.results["isomorphic"] = witness is not None
    if witness is not None:
        report.results["witness"] = witness.cycle_string()
        report.results["witness_images"] = list(witness.images)
    else:
        report.results["witness"] = "none (search exhausted)"
    report.timing = time.perf_counter() - started
    return report


def cmd_census(args) -> Report:
    started = time.perf_counter()
    n = 15
    # a negative limit would slice from the end of the plane or bijection list
    for flag, limit in (("--x-limit", args.x_limit), ("--y-limit", args.y_limit),
                        ("--delta-limit", args.delta_limit)):
        if limit is not None and limit < 0:
            raise ParseError(f"{flag} must be non-negative, got {limit}")
    O = parse_set(args.center, n) if args.center else canonical_center()
    Z = parse_set(args.z, n) if args.z else default_z(O)
    if not Z <= O or len(Z) != 7:
        raise InvariantError("z must be a 7-element subset of the center")
    o_complement = ElementSet(((1 << n) - 1) & ~O.bits, n)
    xs = fano_planes_on(o_complement)[: args.x_limit]
    ys = fano_planes_on(Z)[: args.y_limit]
    deltas = list(permutations(range(7)))
    if args.delta_limit is not None:
        deltas = deltas[: args.delta_limit]

    tallies = {0: 0, 1: 0, 3: 0, 7: 0}
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
    report = Report(
        "census",
        {
            "center": str(O),
            "z": str(Z),
            "x_choices": len(xs),
            "y_choices": len(ys),
            "bijections": len(deltas),
        },
    )
    report.results["products"] = expected
    report.results["distinct_cliques"] = len(seen)
    for idx in (7, 3, 1, 0):
        report.results[f"count_index_{idx}"] = tallies[idx]
        if idx in checked:
            report.results[f"class_of_index_{idx}"] = checked[idx]
    report.timing = time.perf_counter() - started
    return report


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
    print(report.emit(args.format, args.sorted))
    return 0


if __name__ == "__main__":
    sys.exit(main())
