import dataclasses
import errno
import io
import os
import subprocess
import sys

import pytest

from simplex_designs.cli import EXIT_BROKEN_PIPE, Report, main
from simplex_designs.constructions import hyperplane_complement_blocks
from simplex_designs.designs import Design, render_incidence

from conftest import fixture_text


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def kv_dict(stdout):
    pairs = {}
    for line in stdout.strip().splitlines():
        key, _, value = line.partition("=")
        pairs[key] = value
    return pairs


class TestConstruct:
    def test_c1_incidence_is_bit_identical_to_fixture(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "kv", "--sorted", "construct", "c1")
        assert code == 0
        got = kv_dict(out)
        assert got["class"] == "C1"
        expected = "/".join(fixture_text("c1").strip().splitlines())
        assert got["incidence"] == expected

    def test_hyperplane_complement_matches_c1(self, capsys):
        code, out, _ = run_cli(
            capsys, "--format", "kv", "--sorted", "construct", "hyperplane-complement"
        )
        assert code == 0
        got = kv_dict(out)
        expected = "/".join(fixture_text("c1").strip().splitlines())
        assert got["incidence"] == expected
        assert got["class"] == "C1"

    @pytest.mark.parametrize(
        "kind,tag,index,centers",
        [
            ("c1", "C1", "7", "15"),
            ("c2", "C2", "3", "3"),
            ("c3", "C3", "1", "1"),
            ("c4", "C4", "0", "1"),
            ("non-centered", "NON_CENTERED", "none", "0"),
        ],
    )
    def test_kinds_report_expected_class(self, capsys, kind, tag, index, centers):
        code, out, _ = run_cli(capsys, "--format", "kv", "--sorted", "construct", kind)
        assert code == 0
        got = kv_dict(out)
        assert got["class"] == tag
        assert got["bijection_index"] == index
        assert got["center_count"] == centers

    def test_hadamard_rendering_matches_fixture(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "kv", "--sorted", "construct", "c1")
        got = kv_dict(out)
        expected = "/".join(fixture_text("c1", "hadamard01").strip().splitlines())
        assert got["hadamard"] == expected

    def test_out_dir_writes_matrix_files(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "--out-dir", str(tmp_path), "--sorted", "construct", "c4"
        )
        assert code == 0
        assert (tmp_path / "c4.incidence.txt").exists()
        assert (tmp_path / "c4.hadamard01.txt").exists()

    @pytest.mark.parametrize(
        "parts", [("taken",), ("taken", "sub")], ids=["a-file", "below-a-file"]
    )
    def test_out_dir_on_a_file_is_a_parse_error(self, capsys, tmp_path, parts):
        (tmp_path / "taken").write_text("")
        out_dir = tmp_path.joinpath(*parts)
        code, out, err = run_cli(capsys, "--out-dir", str(out_dir), "construct", "c1")
        assert (code, out) == (2, "")
        assert err == f"parse error: {out_dir} is not a writable directory\n"

    def test_unknown_kind_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["construct", "c9"])
        assert info.value.code == 2

    def test_deterministic_output_under_sorted(self, capsys):
        _, first, _ = run_cli(capsys, "--format", "kv", "--sorted", "construct", "c2")
        _, second, _ = run_cli(capsys, "--format", "kv", "--sorted", "construct", "c2")
        assert first == second


class TestClassify:
    @pytest.mark.parametrize(
        "name,tag",
        [("c1", "C1"), ("c2", "C2"), ("c3", "C3"), ("c4", "C4"),
         ("non-centered", "NON_CENTERED")],
    )
    def test_fixtures_by_name(self, capsys, name, tag):
        code, out, _ = run_cli(capsys, "--format", "kv", "--sorted", "classify", name)
        assert code == 0
        assert kv_dict(out)["class"] == tag

    def test_classify_reports_group_data(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "kv", "--sorted", "classify", "c4")
        got = kv_dict(out)
        assert got["automorphism_order"] == "168"
        assert got["block_orbits"] == "2"
        assert got["flag_orbits"] == "4"
        assert got["point_primitive"] == "false"
        assert got["point_block_systems"] == "2"

    def test_classify_file_path(self, capsys, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text(fixture_text("c3"))
        code, out, _ = run_cli(capsys, "--format", "kv", "--sorted", "classify", str(path))
        assert code == 0
        assert kv_dict(out)["class"] == "C3"

    def test_all_zero_matrix_is_invariant_violation(self, capsys, tmp_path):
        path = tmp_path / "zero.txt"
        path.write_text("\n".join(["0" * 15] * 15))
        code, _, err = run_cli(capsys, "classify", str(path))
        assert code == 1
        assert "invariant" in err

    @pytest.mark.parametrize("k, v", [(3, 7), (5, 31)])
    def test_other_point_counts_are_named(self, capsys, tmp_path, k, v):
        path = tmp_path / f"pg{k - 1}2.txt"
        path.write_text(
            render_incidence(Design.from_blocks(hyperplane_complement_blocks(k)))
        )
        code, out, err = run_cli(capsys, "classify", str(path))
        assert code == 1
        assert out == ""
        assert err == (
            f"invariant violation: classify needs a 15-point design, got {v} points\n"
        )

    def test_garbage_is_parse_error(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not a matrix")
        code, _, err = run_cli(capsys, "classify", str(path))
        assert code == 2
        assert "parse" in err

    def test_too_many_rows_is_parse_error(self, capsys, tmp_path):
        path = tmp_path / "big.txt"
        path.write_text("\n".join(["0" * 64] * 64))
        code, out, err = run_cli(capsys, "classify", str(path))
        assert (code, out) == (2, "")
        assert err == "parse error: 64 rows: incidence matrices have at most 63\n"

    def test_missing_file_is_parse_error(self, capsys):
        code, _, err = run_cli(capsys, "classify", "/nonexistent/nowhere.txt")
        assert code == 2

    def test_fixture_dir_override(self, capsys, tmp_path):
        (tmp_path / "c2.incidence.txt").write_text(fixture_text("c2"))
        code, out, _ = run_cli(
            capsys,
            "--fixture-dir", str(tmp_path),
            "--format", "kv", "--sorted",
            "classify", "c2",
        )
        assert code == 0
        assert kv_dict(out)["class"] == "C2"


class TestIsomorphic:
    def test_planted_relabeling_found(self, capsys, tmp_path):
        import random

        from simplex_designs import parse_incidence
        from simplex_designs.designs import render_incidence
        from simplex_designs.subsets import Permutation

        d = parse_incidence(fixture_text("c1"))
        rel = d.relabeled(Permutation.random(15, random.Random(47)))
        path = tmp_path / "rel.txt"
        path.write_text(render_incidence(rel))
        code, out, _ = run_cli(
            capsys, "--format", "kv", "--sorted", "isomorphic", "c1", str(path)
        )
        assert code == 0
        got = kv_dict(out)
        assert got["isomorphic"] == "true"
        assert got["witness"] != "none (search exhausted)"

    def test_distinct_fixtures_report_exhaustion(self, capsys):
        code, out, _ = run_cli(
            capsys, "--format", "kv", "--sorted", "isomorphic", "c3", "c4"
        )
        assert code == 0
        got = kv_dict(out)
        assert got["isomorphic"] == "false"
        assert got["witness"] == "none (search exhausted)"

    def test_c1_vs_hyperplane_complement_output(self, capsys, tmp_path):
        from simplex_designs.constructions import hyperplane_complement_blocks
        from simplex_designs.designs import Design, render_incidence

        hc = Design.from_blocks(hyperplane_complement_blocks(4))
        path = tmp_path / "hc.txt"
        path.write_text(render_incidence(hc))
        code, out, _ = run_cli(
            capsys, "--format", "kv", "--sorted", "isomorphic", "c1", str(path)
        )
        assert code == 0
        assert kv_dict(out)["isomorphic"] == "true"


    def test_too_many_rows_is_parse_error(self, capsys, tmp_path):
        path = tmp_path / "big.txt"
        path.write_text("\n".join(["0" * 64] * 64))
        code, out, err = run_cli(capsys, "isomorphic", str(path), str(path))
        assert (code, out) == (2, "")
        assert err == "parse error: 64 rows: incidence matrices have at most 63\n"


def unreadable(path, kind):
    """A directory, or a file whose bytes are not UTF-8, at path."""
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"\xff\xfe" + b"0" * 15)
    return path


def argv_of(command, design):
    return [command, design] if command == "classify" else [command, design, design]


class TestUnreadableInput:
    @pytest.mark.parametrize("kind", ["directory", "not utf-8"])
    @pytest.mark.parametrize("command", ["classify", "isomorphic"])
    def test_path_is_a_parse_error(self, capsys, tmp_path, command, kind):
        path = unreadable(tmp_path / "design.txt", kind)
        code, out, err = run_cli(capsys, *argv_of(command, str(path)))
        assert (code, out) == (2, "")
        assert err == f"parse error: {path} is not a readable UTF-8 text file\n"

    @pytest.mark.parametrize("kind", ["directory", "not utf-8"])
    @pytest.mark.parametrize("command", ["classify", "isomorphic"])
    def test_fixture_dir_file_is_a_parse_error(self, capsys, tmp_path, command, kind):
        path = unreadable(tmp_path / "c2.incidence.txt", kind)
        code, out, err = run_cli(
            capsys, "--fixture-dir", str(tmp_path), *argv_of(command, "c2")
        )
        assert (code, out) == (2, "")
        assert err == f"parse error: {path} is not a readable UTF-8 text file\n"


class TestCensus:
    def test_restricted_census_spectrum(self, capsys):
        code, out, _ = run_cli(
            capsys, "--format", "kv", "--sorted", "census", "--delta-limit", "720"
        )
        assert code == 0
        got = kv_dict(out)
        assert got["products"] == "720"
        assert got["distinct_cliques"] == "720"
        total = sum(
            int(got[f"count_index_{i}"]) for i in (0, 1, 3, 7)
        )
        assert total == 720

    def test_census_trusts_its_planes(self, capsys, monkeypatch):
        # the planes prove themselves when built; a census op must not re-check them
        import simplex_designs.constructions as constructions
        from simplex_designs.fano import fano_planes_on
        from simplex_designs.subsets import ElementSet

        calls = []
        check = constructions._check_half_clique

        def spy(*args):
            calls.append(args[-1])
            return check(*args)

        monkeypatch.setattr(constructions, "_check_half_clique", spy)
        code, out, _ = run_cli(
            capsys, "--format", "kv", "--sorted", "census", "--delta-limit", "720"
        )
        assert code == 0 and kv_dict(out)["distinct_cliques"] == "720"
        assert calls == []
        O = constructions.canonical_center()
        X = fano_planes_on(ElementSet(0x7F, 15))[0]
        Y = fano_planes_on(constructions.default_z(O))[0]
        constructions.product_clique(O, X.points, Y.points, dict(zip(X.points, Y.points)))
        assert calls == ["X", "Y"]

    def test_full_delta_census_matches_spectrum(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "kv", "--sorted", "census")
        assert code == 0
        got = kv_dict(out)
        assert got["distinct_cliques"] == "5040"
        assert got["count_index_7"] == "168"
        assert got["count_index_3"] == "1176"
        assert got["count_index_1"] == "2352"
        assert got["count_index_0"] == "1344"
        for idx, tag in ((7, "C1"), (3, "C2"), (1, "C3"), (0, "C4")):
            assert got[f"class_of_index_{idx}"] == tag

    def test_census_with_two_planes_each(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "--format", "kv", "--sorted",
            "census", "--x-limit", "2", "--y-limit", "2", "--delta-limit", "24",
        )
        assert code == 0
        got = kv_dict(out)
        assert got["products"] == str(2 * 2 * 24)
        assert got["distinct_cliques"] == str(2 * 2 * 24)

    def test_census_rejects_bad_z(self, capsys):
        code, _, err = run_cli(capsys, "census", "--z", "{1,2,3}")
        assert code == 1
        assert "invariant" in err

    @pytest.mark.parametrize("center, z", [
        ("{1,2,3,4,5,6,7}", None),
        ("{1,2,3,4,5,6,7}", "{1,2,3,4,5,6,7}"),
        ("{1,2,3,4,5,6,7,8,9}", None),
        ("{1,2,3,4,5,6,7,8,9}", "{2,3,4,5,6,7,8}"),
    ], ids=["7", "7-with-z", "9", "9-with-z"])
    def test_census_names_a_center_of_the_wrong_size(self, capsys, center, z):
        argv = ["census", "--center", center] + (["--z", z] if z else [])
        code, out, err = run_cli(capsys, *argv)
        size = center.count(",") + 1
        assert (code, out) == (1, "")
        assert err == (
            f"invariant violation: center {center} must have 8 elements, got {size}\n"
        )

    @pytest.mark.parametrize("option,value", [("--center", "a,b"), ("--z", "{99}")])
    def test_census_unparsable_set_is_a_parse_error(self, capsys, option, value):
        code, _, err = run_cli(capsys, "census", option, value)
        assert code == 2
        assert err.startswith("parse error:")

    @pytest.mark.parametrize(
        "option,value",
        [("--x-limit", "-1"), ("--y-limit", "-2"), ("--delta-limit", "-5039")],
    )
    def test_negative_limit_is_a_parse_error(self, capsys, option, value):
        code, _, err = run_cli(capsys, "census", option, value)
        assert code == 2
        assert err.startswith(f"parse error: {option} must be non-negative")

    def test_global_limit_bounds_census(self, capsys):
        code, out, _ = run_cli(
            capsys, "--format", "kv", "--sorted", "census", "--delta-limit", "120"
        )
        assert code == 0
        assert kv_dict(out)["products"] == "120"

    def test_census_deterministic_under_sorted(self, capsys):
        _, first, _ = run_cli(
            capsys, "--format", "kv", "--sorted", "census", "--delta-limit", "120"
        )
        _, second, _ = run_cli(
            capsys, "--format", "kv", "--sorted", "census", "--delta-limit", "120"
        )
        assert first == second


class TestTextFormat:
    def test_text_report_mentions_class(self, capsys):
        code, out, _ = run_cli(capsys, "--sorted", "construct", "c3")
        assert code == 0
        assert "class: C3" in out
        assert "elapsed" not in out

    def test_timing_included_without_sorted(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "c3")
        assert code == 0
        assert "elapsed" in out

    def test_report_is_fixed_when_built(self):
        assert [f.name for f in dataclasses.fields(Report) if f.init] == [
            "command", "parameters", "results",
        ]
        report = Report("construct", {"kind": "c3"}, {"class": "C3"})
        with pytest.raises(dataclasses.FrozenInstanceError):
            report.results = {}
        assert report.emit("kv", None) == "command=construct\nparam.kind=c3\nclass=C3"
        assert report.emit("kv", 0.25).endswith("\nclass=C3\ntiming_seconds=0.250")
        assert report.emit("text", 1.5).endswith("\nclass: C3\nelapsed: 1.500s")


class TestClassifyAfterConstruct:
    @pytest.mark.parametrize(
        "kind,tag",
        [("c1", "C1"), ("c2", "C2"), ("c3", "C3"), ("c4", "C4"),
         ("non-centered", "NON_CENTERED")],
    )
    def test_round_trip_through_files(self, capsys, tmp_path, kind, tag):
        code, _, _ = run_cli(
            capsys, "--out-dir", str(tmp_path), "--sorted", "construct", kind
        )
        assert code == 0
        stem = kind.replace("-", "_")
        code, out, _ = run_cli(
            capsys,
            "--format", "kv", "--sorted",
            "classify", str(tmp_path / f"{stem}.incidence.txt"),
        )
        assert code == 0
        assert kv_dict(out)["class"] == tag


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "simplex_designs", "--sorted", "construct", "c1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "class: C1" in proc.stdout


class BrokenStdout(io.TextIOBase):
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def __init__(self, fd: int):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    def fileno(self) -> int:
        return self.fd


class TestClosedOutput:
    def test_broken_pipe_exits_quietly(self, capsys, monkeypatch, tmp_path):
        fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
        try:
            monkeypatch.setattr(sys, "stdout", BrokenStdout(fd))
            code = main(["--sorted", "classify", "c2"])
            # the descriptor now writes to devnull, so a later flush cannot fail
            assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
        finally:
            os.close(fd)
        assert code == EXIT_BROKEN_PIPE == 141
        assert capsys.readouterr().err == ""

    def test_closed_reader_ends_without_a_traceback(self):
        # the reading end is closed before the command writes, as when
        # `| head -2` has exited; the interpreter's own flush at exit must
        # not raise again
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "simplex_designs", "classify", "c2"],
                stdout=write, stderr=subprocess.PIPE, text=True,
            )
        finally:
            os.close(write)
        assert proc.returncode == EXIT_BROKEN_PIPE
        assert proc.stderr == ""


NUMPY_SCRIPT = """
import contextlib, io, sys
from simplex_designs.cli import CONSTRUCT_KINDS, main
from simplex_designs.cliques import build_graph, enumerate_maximal_cliques
from simplex_designs.geometry import geometry_for_dimension

print("import", "numpy" in sys.modules)
runs = [["construct", kind] for kind in CONSTRUCT_KINDS] + [
    ["classify", "c1"], ["isomorphic", "c1", "c3"], ["census", "--delta-limit", "50"],
]
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["--sorted", *argv])
    print(*argv, code, "numpy" in sys.modules)
graph = build_graph(geometry_for_dimension(4))
print("build_graph", len(graph.adjacency), "numpy" in sys.modules)
first = next(enumerate_maximal_cliques(graph, containing=0, min_size=15))
print("first clique", len(first), "numpy" in sys.modules)
"""


def test_cli_import_leaves_numpy_unloaded():
    # the package runs on the standard library: no import, command, graph or search loads numpy
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_SCRIPT], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["import False"] + [
        f"construct {kind} 0 False"
        for kind in ("c1", "c2", "c3", "c4", "non-centered", "hyperplane-complement")
    ] + [
        "classify c1 0 False",
        "isomorphic c1 c3 0 False",
        "census --delta-limit 50 0 False",
        "build_graph 6435 False",
        "first clique 15 False",
    ]


NO_ROSTER_SCRIPT = """
import contextlib, io
from simplex_designs import classify_clique, decompose, product_clique
from simplex_designs.cli import main
from simplex_designs.constructions import canonical_center, default_z
from simplex_designs.fano import fano_planes_on, representative_of_index
from simplex_designs.geometry import geometry_for_dimension
from simplex_designs.subsets import ElementSet

O = canonical_center()
X = fano_planes_on(ElementSet.full(15) ^ O)[0]
Y = fano_planes_on(default_z(O))[0]
c = product_clique(O, X, Y, representative_of_index(X, Y, 3))
classify_clique(c)
decompose(c, O)
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in (["construct", "c3"], ["classify", "c2"],
                                     ["census", "--delta-limit", "50"])]
print(codes, sorted(vars(geometry_for_dimension(4))))
"""


def test_cliques_and_cli_build_no_roster():
    # the shared k = 4 geometry keeps only its params until something numbers its points
    proc = subprocess.run(
        [sys.executable, "-c", NO_ROSTER_SCRIPT], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0, 0, 0] ['params']"
    control = NO_ROSTER_SCRIPT.replace("decompose(c, O)", "c.vertices")
    proc = subprocess.run([sys.executable, "-c", control], capture_output=True, text=True)
    assert proc.stdout.strip() == "[0, 0, 0] ['_index', 'params', 'points']"
