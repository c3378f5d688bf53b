import dataclasses
import hashlib
import logging
import random
import re
from itertools import accumulate, combinations, islice
from math import comb, factorial, prod

import pytest
from hypothesis import given, settings, strategies as st

from simplex_designs.cliques import (
    _colex_columns,
    _renumber,
    Clique,
    CollinearityGraph,
    build_graph,
    enumerate_maximal_cliques,
    maximal_cliques,
)
from simplex_designs.constructions import (
    CenteredDecomposition,
    CliqueClass,
    CliqueTag,
    TAG_BY_INDEX,
    _structural_tag,
    _structure,
    canonical_center,
    center_points,
    classify_clique,
    default_z,
    hyperplane_complement_clique,
    lines_inside,
    planes_inside,
    product_clique,
)
from simplex_designs.designs import automorphism_group
from simplex_designs.fano import FanoBijection, fano_planes_on
from simplex_designs.errors import InternalCheckError, InvariantError
from simplex_designs.geometry import geometry_for_dimension, is_collinear, is_singular_subspace
from simplex_designs.subsets import (
    ElementSet,
    Permutation,
    apply,
    complement_in,
    set_bits,
    subsets_of,
)

from conftest import FIXTURE_NAMES


K4_ADJACENCY_SHA256 = "8903f16b558bb2639378d1027b16b2fc72e2bca2089042e3306ef2e3bd32b5b4"


@pytest.fixture(scope="module")
def gr7(g7):
    return build_graph(g7)


@pytest.fixture(scope="module")
def gr15(g15):
    return build_graph(g15)


@pytest.fixture(scope="module")
def fixture_cliques(g15, fixture_designs):
    return {
        name: Clique.from_points(g15, d.blocks)
        for name, d in fixture_designs.items()
    }


class TestGraph:
    def test_vertex_count(self, gr7, g7):
        assert len(gr7) == len(g7)

    def test_degree_matches_brute_force(self, gr7, g7):
        # every 4-subset of [7] meets C(4,2)*C(3,2) = 18 others in 2 elements
        for u in range(len(g7)):
            brute = sum(
                1
                for w in g7.points
                if w != g7.points[u]
                and (w.bits & g7.points[u].bits).bit_count() == 2
            )
            assert brute == 18
            assert gr7.degree(u) == brute

    def test_adjacency_symmetric_irreflexive(self, gr7):
        for u in range(len(gr7)):
            assert gr7.adjacency[u] >> u & 1 == 0
            for v in range(u + 1, len(gr7)):
                assert (gr7.adjacency[u] >> v & 1) == (gr7.adjacency[v] >> u & 1)

    def test_adjacency_matches_predicate_exhaustive_n7(self, gr7, g7):
        # and at k = 2, where the three 2-subsets of [3] meet pairwise in m = 1: a triangle
        g3 = geometry_for_dimension(2)
        gr3 = build_graph(g3)
        assert gr3.adjacency == [0b110, 0b101, 0b011]
        for g, graph in ((g3, gr3), (g7, gr7)):
            for u, v in combinations(range(len(g)), 2):
                fast = graph.adjacency[u] >> v & 1 == 1
                slow = is_collinear(g, g.points[u], g.points[v])
                assert fast == slow

    def test_adjacency_matches_predicate_sampled_n15(self, g15, gr15):
        assert len(gr15) == 6435
        rng = random.Random(5)
        for _ in range(3000):
            u, v = rng.sample(range(6435), 2)
            fast = gr15.adjacency[u] >> v & 1 == 1
            slow = is_collinear(g15, g15.points[u], g15.points[v])
            assert fast == slow

    def test_every_k4_row_has_2450_neighbours_and_no_loop(self, gr15):
        # each 8-subset of [15] meets C(8,4) * C(7,4) = 2450 others in 4 elements
        for u, row in enumerate(gr15.adjacency):
            assert row.bit_count() == 2450 and not row >> u & 1

    @pytest.fixture
    def no_columns(self, monkeypatch):
        # a regression then fails with a report, not while it builds 3 * 10^8-bit columns
        def fail(n, t):
            raise AssertionError("columns built before the roster guard")

        monkeypatch.setattr("simplex_designs.cliques._colex_columns", fail)

    @pytest.mark.parametrize("k", [5, 6])
    def test_refuses_a_graph_without_a_roster(self, k, no_columns):
        # the roster guard fails before any column or counter is built
        with pytest.raises(InvariantError, match=f"k = {k} point roster"):
            build_graph(geometry_for_dimension(k))

    @pytest.mark.parametrize("k", [5, 6])
    def test_roster_guard_comes_before_the_columns(self, k, no_columns):
        with pytest.raises(InvariantError, match=f"k = {k} point roster"):
            build_graph(geometry_for_dimension(k))

    def test_colex_columns_match_their_definition(self):
        # bit j of column[e] is bit e of the j-th t-subset of range(n), ascending
        for n in range(10):
            for t in range(n + 1):
                masks = sorted(sum(1 << e for e in c) for c in combinations(range(n), t))
                expected = [
                    sum((mask >> e & 1) << j for j, mask in enumerate(masks))
                    for e in range(n)
                ]
                assert _colex_columns(n, t) == expected, (n, t)

    def test_k4_adjacency_is_pinned(self, gr15):
        # SHA-256 of the rows as 805-byte little-endian words, as first built
        # by adding the 8 element columns of each point into 4 counter planes
        digest = hashlib.sha256()
        for row in gr15.adjacency:
            digest.update(row.to_bytes(805, "little"))
        assert digest.hexdigest() == K4_ADJACENCY_SHA256

    def test_seeded_k4_rows_match_every_popcount(self, g15, gr15):
        bits = [p.bits for p in g15.points]
        for u in random.Random(18).sample(range(len(bits)), 64):
            expected = sum(1 << j for j, b in enumerate(bits) if (bits[u] & b).bit_count() == 4)
            assert gr15.adjacency[u] == expected, u

    def test_hand_built_rows_must_be_collinearity(self, g7):
        # points 0, 1, 2 of the k = 3 roster are 0b0001111, 0b0010111 and
        # 0b0011011, which meet pairwise in 3 elements, not m = 2
        rows = [0b110, 0b101, 0b011] + [0] * 32
        with pytest.raises(InvariantError, match="vertices 0 and 1 are not collinear"):
            CollinearityGraph(g7, rows)

    @pytest.mark.parametrize(
        "u, row, message",
        [
            (3, 1 << 3, "vertices 3 and 3 are not collinear"),
            (0, 1 << 35, r"row 0 has bits outside range\(35\)"),
            (4, -1, r"row 4 has bits outside range\(35\)"),
        ],
        ids=["loop", "wide", "negative"],
    )
    def test_rejects_malformed_rows(self, g7, gr7, u, row, message):
        rows = list(gr7.adjacency)
        rows[u] = row
        with pytest.raises(InvariantError, match=message):
            CollinearityGraph(g7, rows)

    def test_zero_rows_are_skipped_but_later_rows_checked(self, g15):
        zero = [0] * len(g15.points)
        assert CollinearityGraph(g15, zero).adjacency == zero
        bits = [p.bits for p in g15.points]
        stranger = next(j for j, b in enumerate(bits) if (bits[6000] & b).bit_count() != 4)
        for row, message in [
            (-1, r"row 6000 has bits outside range\(6435\)"),
            (1 << stranger, f"vertices 6000 and {stranger} are not collinear"),
        ]:
            rows = list(zero)
            rows[6000] = row
            with pytest.raises(InvariantError, match=message):
                CollinearityGraph(g15, rows)

    def test_needs_one_row_per_point(self, g7, gr7):
        with pytest.raises(InvariantError, match="34 rows, expected 35"):
            CollinearityGraph(g7, gr7.adjacency[:-1])

    def test_accepts_collinearity_and_its_subgraphs(self, g7, gr7, g15, gr15, fixture_cliques):
        assert CollinearityGraph(g7, gr7.adjacency).adjacency == gr7.adjacency
        _, graph = slice_graph(g15, gr15, planes_inside(fixture_cliques["c1"])[0])
        assert CollinearityGraph(g15, graph.adjacency).adjacency == graph.adjacency
        # an edge may be left out on one side only: every set bit is still collinear
        rows = list(gr7.adjacency)
        rows[0] &= rows[0] - 1
        assert CollinearityGraph(g7, rows).adjacency == rows

    def test_restricted_enumeration_respects_bound(self, gr15):
        sizes = set()
        for c in islice(enumerate_maximal_cliques(gr15, containing=0), 40):
            sizes.add(len(c))
            assert len(c) <= 15
        assert sizes

    def test_min_size_finds_design_sized_cliques(self, gr15):
        found = list(
            islice(
                enumerate_maximal_cliques(gr15, containing=0, min_size=15), 5
            )
        )
        assert found and all(len(c) == 15 for c in found)


class TestEnumeration:
    def test_polar_space_cliques_n7(self, gr7, g7):
        cliques = list(enumerate_maximal_cliques(gr7))
        assert len(cliques) == 30
        assert all(len(c) == 7 for c in cliques)
        assert all(is_singular_subspace(g7, c.points) for c in cliques)

    def test_no_duplicates_and_determinism(self, gr7):
        first = [c.vertices for c in enumerate_maximal_cliques(gr7)]
        second = [c.vertices for c in enumerate_maximal_cliques(gr7)]
        assert first == second
        assert len(set(first)) == len(first)

    def test_limit_and_sorted_output(self, gr7):
        # callers cut the stream with islice themselves
        stream = [c.vertices for c in enumerate_maximal_cliques(gr7)]
        limited = [c.vertices for c in islice(enumerate_maximal_cliques(gr7), 7)]
        assert len(limited) == 7 < len(stream)
        assert limited == stream[:7]


def random_adjacency(rng, n, density):
    adj = [0] * n
    for u, v in combinations(range(n), 2):
        if rng.random() < density:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return adj


class TestContaining:
    """maximal_cliques(adj, containing=v), which searches N[v] renumbered."""

    @pytest.mark.parametrize("bad", [-2, -1, 4, 6435])
    def test_rejects_a_vertex_outside_the_graph(self, bad):
        adj = [0b110, 0b101, 0b011, 0]
        with pytest.raises(InvariantError, match=rf"containing vertex {bad} .*range\(4\)"):
            list(maximal_cliques(adj, containing=bad))

    @pytest.mark.parametrize("width", [1, 5, 6435])
    def test_isolated_vertex(self, width):
        adj = [0] * width
        v = width - 1
        for min_size in (0, 1):
            assert list(maximal_cliques(adj, min_size, containing=v)) == [(v,)]
        assert list(maximal_cliques(adj, 2, containing=v)) == []

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_stream_survives_a_monotone_embedding(self, data):
        n = data.draw(st.integers(min_value=1, max_value=40), label="n")
        density = data.draw(st.floats(min_value=0.0, max_value=1.0), label="density")
        narrow = random_adjacency(data.draw(st.randoms(use_true_random=False)), n, density)
        # vertex u of the narrow graph becomes phi[u] = phi[u - 1] + 1 + gaps[u]
        gaps = data.draw(
            st.lists(st.integers(min_value=0, max_value=300), min_size=n, max_size=n),
            label="gaps",
        )
        phi = list(accumulate((gap + 1 for gap in gaps[1:]), initial=gaps[0]))
        width = max(6435, phi[-1] + 1) + data.draw(st.integers(min_value=0, max_value=64))
        # the narrow graph on the vertices phi, every other vertex isolated
        wide = [0] * width
        for u, row in enumerate(narrow):
            wide[phi[u]] = sum(1 << phi[w] for w in _bits_of(row))
        min_size = data.draw(st.integers(min_value=0, max_value=5), label="min_size")
        through = data.draw(
            st.lists(st.integers(min_value=0, max_value=n - 1), min_size=1, max_size=3, unique=True),
            label="through",
        )
        for v in through:
            expected = [
                tuple(phi[u] for u in c) for c in maximal_cliques(narrow, min_size, containing=v)
            ]
            assert list(maximal_cliques(wide, min_size, containing=phi[v])) == expected

    def test_renumber_matches_a_loop_gather(self, g15, gr15, fixture_cliques):
        rng = random.Random(7)
        graphs = [random_adjacency(rng, 30, density) for density in (0.0, 0.2, 0.6, 1.0)]
        vertices, plane_slice = slice_graph(g15, gr15, planes_inside(fixture_cliques["c1"])[0])
        cases = [(adj, v) for adj in graphs for v in rng.sample(range(30), 3)]
        # every width 1..70, multiples of 8 or not, at both ends and one vertex made isolated
        for width in range(1, 71):
            adj = random_adjacency(rng, width, rng.random())
            lone = rng.randrange(width)
            adj = [0 if u == lone else row & ~(1 << lone) for u, row in enumerate(adj)]
            cases += [(adj, 0), (adj, width - 1), (adj, lone), (adj, rng.randrange(width))]
        cases += [(plane_slice.adjacency, v) for v in (0, vertices[0], vertices[-1])]
        for adj, v in cases:
            outer = [u for u in range(len(adj)) if u == v or adj[v] >> u & 1]
            local = [sum(1 << i for i, w in enumerate(outer) if adj[u] >> w & 1) for u in outer]
            assert _renumber(adj, v) == (outer, local)

    def test_one_debug_record_when_exhausted(self, g15, gr15, fixture_cliques, caplog):
        vertices, graph = slice_graph(g15, gr15, planes_inside(fixture_cliques["c1"])[0])
        with caplog.at_level(logging.DEBUG, logger="simplex_designs.cliques"):
            stream = maximal_cliques(graph.adjacency, 15, containing=vertices[0])
            next(stream)
            assert caplog.records == []
            rest = list(stream)
        (record,) = caplog.records
        assert record.getMessage() == (
            f"maximal_cliques containing={vertices[0]} closed_neighbourhood=135 cliques=480"
        )
        assert len(rest) == 479

    def test_silent_when_disabled(self, caplog):
        adj = [0b110, 0b101, 0b011, 0]
        with caplog.at_level(logging.INFO, logger="simplex_designs.cliques"):
            assert list(maximal_cliques(adj, containing=0)) == [(0, 1, 2)]
        assert caplog.records == []


class TestCliqueType:
    def test_validates_collinearity(self, g15):
        a = ElementSet.of(range(1, 9), 15)
        b = ElementSet.of(list(range(1, 8)) + [9], 15)
        with pytest.raises(InvariantError):
            Clique.from_points(g15, [a, b])

    def test_rejects_oversized(self, gr7, g7):
        with pytest.raises(InvariantError):
            Clique(g7, tuple(range(8)))

    def test_from_points_names_a_non_point(self, g15):
        a = ElementSet.of(range(1, 9), 15)
        for bad in (ElementSet.of(range(1, 8), 15), ElementSet.of(range(2, 10), 31)):
            with pytest.raises(InvariantError, match=f"{bad} is not a point"):
                Clique.from_points(g15, [a, bad])

    def test_contains_is_false_for_anything_but_a_point(self, g15, fixture_cliques):
        c = fixture_cliques["c1"]
        point = c.points[0]
        assert point in c
        wider = ElementSet(point.bits, 31)
        # a point bitmask as an int or on a wider ground, and a 7-subset
        for other in (point.bits, 255, wider, ElementSet.of(range(1, 8), 15), None):
            assert other not in c
        assert 255 not in hyperplane_complement_clique(4)

    def test_point_round_trip(self, g15, fixture_cliques):
        c = fixture_cliques["c1"]
        assert Clique.from_points(g15, c.points) == c

    def test_vertices_are_roster_indices(self, g7, gr7, g15, gr15, fixture_cliques):
        from simplex_designs.constructions import canonical_center, default_z, product_clique
        from simplex_designs.fano import FanoBijection, fano_planes_on

        O = canonical_center()
        X = fano_planes_on(complement_in(O, ElementSet.full(15)))[0]
        Y = fano_planes_on(default_z(O))[0]
        cliques = [
            *((g7, c) for c in enumerate_maximal_cliques(gr7)),
            *((g15, c) for c in islice(enumerate_maximal_cliques(gr15, containing=0), 5)),
            *((g15, c) for c in fixture_cliques.values()),
            (g15, product_clique(O, X, Y, FanoBijection(X, Y, (3, 1, 4, 0, 6, 5, 2)))),
        ]
        for g, c in cliques:
            assert c.vertices == tuple(g.index_of(p) for p in c.points)
            assert list(c.vertices) == sorted(c.vertices)


class TestProvedPath:
    """Cliques built without the second pair check equal the fully checked ones.

    enumerate_maximal_cliques and product_clique wrap bitmasks they have
    proved collinear; Clique(...) and Clique.from_points still check every
    pair of user input.
    """

    def test_plane_slice_cliques_pass_the_full_check(self, g15, gr15, fixture_cliques):
        plane = planes_inside(fixture_cliques["c1"])[0]
        p = Permutation.random(15, random.Random(5))
        vertices, graph = slice_graph(g15, gr15, [apply(p, q) for q in plane])
        cliques = list(enumerate_maximal_cliques(graph, containing=vertices[0], min_size=15))
        assert len(cliques) == 480
        for c in cliques:
            assert c == Clique(g15, c.bits)

    def test_census_products_pass_the_full_check(self, g15):
        from itertools import permutations

        from simplex_designs.constructions import canonical_center, default_z, product_clique
        from simplex_designs.fano import FanoBijection, fano_planes_on

        rng = random.Random(2)
        O = canonical_center()
        X = rng.choice(fano_planes_on(complement_in(O, ElementSet.full(15))))
        Y = rng.choice(fano_planes_on(default_z(O)))
        products = {
            product_clique(O, X, Y, FanoBijection(X, Y, images), g15).bits
            for images in permutations(range(7))
        }
        assert len(products) == 5040
        for bits in products:
            Clique(g15, bits)

    def test_user_input_is_still_checked(self, g15, gr15, fixture_cliques):
        vertices, graph = slice_graph(g15, gr15, planes_inside(fixture_cliques["c1"])[0])
        c = next(enumerate_maximal_cliques(graph, containing=vertices[0], min_size=15))
        a, b = c.bits[:2]
        # swap an element that a shares with b for one in neither: still an
        # 8-subset, but it meets b in 3 elements
        shared = next(1 << e for e in range(15) if (a & b) >> e & 1)
        neither = next(1 << e for e in range(15) if not (a | b) >> e & 1)
        mutated = a ^ shared ^ neither
        assert (mutated & b).bit_count() == 3
        broken = tuple(sorted([mutated, *c.bits[1:]]))
        repeated = (c.bits[0], *c.bits[:-1])
        unsorted = (c.bits[1], c.bits[0], *c.bits[2:])
        for bits, message in (
            (broken, "not collinear"),
            (repeated, "sorted and distinct"),
            (unsorted, "sorted and distinct"),
        ):
            with pytest.raises(InvariantError, match=message):
                Clique(g15, bits)
        points = c.points
        for given_points, message in (
            ([ElementSet(mutated, 15), *points[1:]], "not collinear"),
            ([points[0], *points[:-1]], "sorted and distinct"),
        ):
            with pytest.raises(InvariantError, match=message):
                Clique.from_points(g15, given_points)
        # from_points sorts its input, so an unsorted list names the same clique
        assert Clique.from_points(g15, points[::-1]) == c

    @pytest.mark.parametrize("bits", [0b111, 0xFF << 8, -1], ids=["three", "wide", "negative"])
    def test_a_bitmask_that_is_no_point_is_refused(self, g15, bits):
        with pytest.raises(InvariantError, match=f"^{re.escape(bin(bits))} is not a point"):
            Clique(g15, (bits,))


class TestCenters:
    def test_fixture_center_counts(self, fixture_cliques):
        expected = {"c1": 15, "c2": 3, "c3": 1, "c4": 1, "non_centered": 0}
        for name, count in expected.items():
            assert len(center_points(fixture_cliques[name])) == count

    def test_c3_center_lies_in_its_plane(self, fixture_cliques):
        c = fixture_cliques["c3"]
        (center,) = center_points(c)
        (plane,) = planes_inside(c)
        assert center in plane


class TestLinesInside:
    def test_fixture_line_counts(self, fixture_cliques):
        expected = {"c1": 35, "c2": 19, "c3": 11, "c4": 7, "non_centered": 7}
        for name, count in expected.items():
            assert len(lines_inside(fixture_cliques[name])) == count

    def test_line_as_clique_contains_one_line(self, g15, fixture_cliques):
        rows = fixture_cliques["c1"].points
        line = [rows[0], rows[1], rows[0] ^ rows[1]]
        c = Clique.from_points(g15, line)
        assert len(lines_inside(c)) == 1

    def test_c4_lines_all_through_center(self, fixture_cliques):
        c = fixture_cliques["c4"]
        (center,) = center_points(c)
        for line in lines_inside(c):
            assert center in line.points


class TestPlanesInside:
    def test_fixture_plane_counts(self, fixture_cliques):
        expected = {"c1": 15, "c2": 3, "c3": 1, "c4": 0, "non_centered": 1}
        for name, count in expected.items():
            assert len(planes_inside(fixture_cliques[name])) == count

    def test_c2_planes_share_center_line(self, fixture_cliques):
        c = fixture_cliques["c2"]
        p1, p2, p3 = planes_inside(c)
        common = p1 & p2 & p3
        assert len(common) == 3
        assert common == frozenset(center_points(c))


class TestClassification:
    def test_fixture_tags(self, fixture_cliques):
        expected = {
            "c1": (CliqueTag.C1, 7),
            "c2": (CliqueTag.C2, 3),
            "c3": (CliqueTag.C3, 1),
            "c4": (CliqueTag.C4, 0),
            "non_centered": (CliqueTag.NON_CENTERED, None),
        }
        for name, (tag, index) in expected.items():
            verdict = classify_clique(fixture_cliques[name])
            assert verdict.tag is tag
            assert verdict.index == index

    def test_relabeling_invariance(self, g15, fixture_cliques):
        rng = random.Random(17)
        for name in FIXTURE_NAMES:
            base = classify_clique(fixture_cliques[name]).tag
            for _ in range(3):
                p = Permutation.random(15, rng)
                moved = Clique.from_points(
                    g15, [apply(p, q) for q in fixture_cliques[name].points]
                )
                assert classify_clique(moved).tag is base

    def test_centered_line_count_follows_the_index(self, g15, gr15, fixture_cliques):
        # 7 lines through the center, and 4 more for each X-line that delta keeps
        vertices, graph = slice_graph(g15, gr15, planes_inside(fixture_cliques["c1"])[0])
        rng = random.Random(11)
        O = canonical_center()
        xs = fano_planes_on(complement_in(O, ElementSet.full(15)))
        ys = fano_planes_on(default_z(O))
        products = []
        for _ in range(200):
            X, Y = rng.choice(xs), rng.choice(ys)
            delta = FanoBijection(X, Y, tuple(rng.sample(range(7), 7)))
            products.append(product_clique(O, X, Y, delta, g15))
        verdicts = [
            classify_clique(c)
            for c in (
                *fixture_cliques.values(),
                *enumerate_maximal_cliques(graph, containing=vertices[0], min_size=15),
                *products,
            )
        ]
        centered = [v for v in verdicts if v.tag is not CliqueTag.NON_CENTERED]
        # 4 centered fixtures, the 480 - 128 centered slice cliques, every product
        assert len(centered) == 4 + 352 + 200
        assert {v.index for v in centered} == {0, 1, 3, 7}
        assert [v.line_count for v in centered] == [7 + 4 * v.index for v in centered]

    def test_rejects_wrong_size(self, g15, fixture_cliques):
        c = fixture_cliques["c1"]
        small = Clique(g15, c.bits[:14])
        with pytest.raises(InvariantError):
            classify_clique(small)

    def test_rejects_wrong_dimension(self, g7, gr7):
        clique7 = next(enumerate_maximal_cliques(gr7))
        with pytest.raises(InvariantError):
            classify_clique(clique7)

    def test_classification_independent_of_center_choice(self, g15, fixture_cliques):
        from simplex_designs.constructions import decompose
        from simplex_designs.fano import bijection_index

        for name in ("c1", "c2"):
            c = fixture_cliques[name]
            indices = set()
            for center in center_points(c):
                dec = decompose(c, center)
                indices.add(bijection_index(dec.fano_bijection()))
            assert len(indices) == 1



def lowest(mask: int) -> int:
    return mask & -mask


def line_of_three(mask: int) -> int:
    """A 3-bit mask from the three lowest bits of mask."""
    line = 0
    for _ in range(3):
        line |= lowest(mask & ~line)
    return line


def _c1_part_central(c, centers, lines, planes):
    return centers ^ lowest(centers), lines, planes


def _c2_planes_repeat(c, centers, lines, planes):
    p, q, _ = planes
    return centers, lines, [p, q, p]


def _c2_center_off_the_line(c, centers, lines, planes):
    return lowest(centers), lines, planes


def _c2_shared_line_dropped(c, centers, lines, planes):
    common = planes[0] & planes[1] & planes[2]
    return centers, [line for line in lines if line != common], planes


def _c2_line_across_the_planes(c, centers, lines, planes):
    # one point of each plane off the shared line
    common = planes[0] & planes[1] & planes[2]
    across = sum(lowest(plane & ~common) for plane in planes)
    return centers, [*lines, across], planes


def _c2_two_planes(c, centers, lines, planes):
    return centers, lines, planes[:2]


def _c3_center_off_the_plane(c, centers, lines, planes):
    return lowest((1 << len(c)) - 1 & ~planes[0]), lines, planes


def _c3_line_off_the_plane_and_center(c, centers, lines, planes):
    return centers, [*lines, line_of_three((1 << len(c)) - 1 & ~planes[0])], planes


def _c4_two_centers(c, centers, lines, planes):
    return centers | lowest((1 << len(c)) - 1 & ~centers), lines, planes


def _c4_line_off_the_center(c, centers, lines, planes):
    return centers, [*lines, line_of_three((1 << len(c)) - 1 & ~centers)], planes


class TestVerdict:
    """A CliqueClass stores its evidence; its tag is read off the index."""

    def test_only_the_evidence_is_passed(self):
        fields = [f.name for f in dataclasses.fields(CliqueClass) if f.init]
        assert fields == ["centers", "index", "line_count", "plane_count"]

    @pytest.mark.parametrize("has_centers, index, message", [
        (True, None, "an index exactly when it has centers"),
        (False, 7, "an index exactly when it has centers"),
        (True, 5, "5 is not the index of a centered type"),
    ], ids=["centers-without-index", "index-without-centers", "index-5"])
    def test_rejects_inconsistent_evidence(self, has_centers, index, message):
        centers = (canonical_center(),) if has_centers else ()
        with pytest.raises(InvariantError, match=message):
            CliqueClass(centers, index, 19, 3)

    def test_tag_is_read_off_the_index(self, g15, fixture_cliques):
        rng = random.Random(23)
        for name in FIXTURE_NAMES:
            c = fixture_cliques[name]
            for _ in range(3):
                verdict = classify_clique(c)
                expected = (
                    CliqueTag.NON_CENTERED if verdict.index is None
                    else TAG_BY_INDEX[verdict.index]
                )
                assert verdict.tag is expected is CliqueTag[name.upper()]
                p = Permutation.random(15, rng)
                c = Clique.from_points(g15, [apply(p, q) for q in c.points])


class TestInternalChecks:
    """Every InternalCheckError of the classification, reached through
    evidence that contradicts itself: the position masks of a fixture with
    one perturbation, or an index route that disagrees with the structure."""

    @pytest.mark.parametrize("name, perturb, message", [
        ("c1", _c1_part_central, "singular clique without all points central"),
        ("c2", _c2_planes_repeat, "three planes do not share a single line"),
        ("c2", _c2_center_off_the_line, "shared line is not the set of center points"),
        ("c2", _c2_shared_line_dropped, "shared line is not the set of center points"),
        ("c2", _c2_line_across_the_planes, "line outside the three planes"),
        ("c2", _c2_two_planes, "unexpected number of internal planes: 2"),
        ("c3", _c3_center_off_the_plane, "expected one center inside the unique plane"),
        ("c3", _c3_line_off_the_plane_and_center, "line outside plane misses the center"),
        ("c4", _c4_two_centers, "plane-free clique must have a unique center"),
        ("c4", _c4_line_off_the_center, "line inside does not pass through the center"),
    ])
    def test_structural_tag_rejects_perturbed_evidence(
        self, fixture_cliques, name, perturb, message
    ):
        c = fixture_cliques[name]
        evidence = _structure(c.bits)
        # the unperturbed evidence gives the fixture's own tag
        assert _structural_tag(c, *evidence) is classify_clique(c).tag
        with pytest.raises(InternalCheckError, match=f"^{re.escape(message)}$"):
            _structural_tag(c, *perturb(c, *evidence))

    @pytest.mark.parametrize("index, message", [
        (5, "impossible bijection index 5"),
        (3, "index route gives C2 but structure gives C1"),
    ])
    def test_classify_rejects_an_index_route_that_disagrees(
        self, monkeypatch, fixture_cliques, index, message
    ):
        monkeypatch.setattr(CenteredDecomposition, "bijection_index", lambda self: index)
        with pytest.raises(InternalCheckError, match=f"^{re.escape(message)}$"):
            classify_clique(fixture_cliques["c1"])


# Brute-force oracles for the clique structure, each by its definition.


def oracle_centers(bits):
    inside = set(bits)
    return [o for o in sorted(bits) if all(o ^ b in inside for b in bits if b != o)]


def oracle_lines(bits):
    return [t for t in combinations(sorted(bits), 3) if t[0] ^ t[1] == t[2]]


def oracle_planes(bits):
    """Planes by closing every pair of lines that meet in one point."""
    inside = set(bits)
    lines = [frozenset(t) for t in oracle_lines(bits)]
    planes = set()
    for l1, l2 in combinations(lines, 2):
        if len(l1 & l2) != 1:
            continue
        closure = set(l1 | l2)
        grew = True
        ok = True
        while grew and ok:
            grew = False
            for a, b in combinations(sorted(closure), 2):
                third = a ^ b
                if third not in closure:
                    if third not in inside:
                        ok = False
                        break
                    closure.add(third)
                    grew = True
        if ok and len(closure) == 7:
            planes.add(frozenset(closure))
    return sorted(sorted(p) for p in planes)


def assert_structure_matches_oracles(c):
    bits = sorted(c.bits)
    assert [o.bits for o in center_points(c)] == oracle_centers(bits)
    assert [tuple(p.bits for p in line.points) for line in lines_inside(c)] == oracle_lines(bits)
    # the oracle list is sorted, so this also pins the order of planes_inside
    assert [sorted(p.bits for p in plane) for plane in planes_inside(c)] == oracle_planes(bits)


def relabeled_clique(g, c, images):
    p = Permutation(tuple(images))
    return Clique.from_points(g, [apply(p, q) for q in c.points])


class TestStructureAgainstOracles:
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_fixtures(self, name, fixture_cliques):
        c = fixture_cliques[name]
        assert_structure_matches_oracles(c)
        verdict = classify_clique(c)
        bits = sorted(c.bits)
        assert [o.bits for o in verdict.centers] == oracle_centers(bits)
        assert verdict.line_count == len(oracle_lines(bits))
        assert verdict.plane_count == len(oracle_planes(bits))

    @settings(max_examples=25, deadline=None)
    @given(
        st.sampled_from(FIXTURE_NAMES),
        st.permutations(list(range(1, 16))),
        st.integers(min_value=1, max_value=2**15 - 1),
    )
    def test_relabelings_and_their_subcliques(
        self, g15, fixture_cliques, name, images, keep
    ):
        c = relabeled_clique(g15, fixture_cliques[name], images)
        assert_structure_matches_oracles(c)
        assert classify_clique(c).tag is classify_clique(fixture_cliques[name]).tag
        # every subset of a clique is a clique, with its own (smaller) structure
        sub = Clique(g15, tuple(b for i, b in enumerate(c.bits) if keep >> i & 1))
        assert_structure_matches_oracles(sub)

    def test_k3_maximal_cliques(self, gr7):
        cliques = list(enumerate_maximal_cliques(gr7))
        assert len(cliques) == 30
        for c in cliques:
            assert_structure_matches_oracles(c)
            assert (len(center_points(c)), len(lines_inside(c)), len(planes_inside(c))) == (7, 7, 1)

    def test_planes_inside_order(self, fixture_cliques):
        planes = planes_inside(fixture_cliques["c1"])
        keys = [sorted(p.bits for p in plane) for plane in planes]
        assert len(planes) == 15
        assert keys == sorted(keys)


def _bits_of(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def induced_graph(graph, vertices):
    """The graph induced on a vertex set, keeping the roster numbering."""
    members = sum(1 << v for v in vertices)
    return CollinearityGraph(
        graph.geometry,
        [adj & members if members >> u & 1 else 0 for u, adj in enumerate(graph.adjacency)],
    )


def slice_graph(g15, gr15, points):
    """Roster indices of the points, and the graph induced on them and their common neighbours."""
    vertices = sorted(g15.index_of(q) for q in points)
    common = -1
    for v in vertices:
        common &= gr15.adjacency[v]
    return vertices, induced_graph(gr15, [*vertices, *_bits_of(common)])


class TestPlaneSlice:
    """Every maximal 15-clique through one plane, counted by orbit-stabilizer.

    Read the seven points of a plane as 0/1 rows over [15]: each element gets
    a column in GF(2)^3 (its membership in three spanning points). Points of
    size 8 that meet pairwise in 4 force every nonzero column to occur twice
    and the zero column once, in every plane. So S_15 is transitive on
    planes, and the stabilizer of one is GL(3,2) on the columns times the
    swaps inside the seven pairs: 168 * 2^7 = 21,504. The cliques of type i
    through a fixed plane then number 21,504 * planes_i / |Aut_i|.
    """

    STABILIZER_ORDER = 168 * 2**7
    EXPECTED = {
        CliqueTag.C1: 16,
        CliqueTag.C2: 112,
        CliqueTag.C3: 224,
        CliqueTag.C4: 0,
        CliqueTag.NON_CENTERED: 128,
    }
    TAGS = {
        "c1": CliqueTag.C1,
        "c2": CliqueTag.C2,
        "c3": CliqueTag.C3,
        "c4": CliqueTag.C4,
        "non_centered": CliqueTag.NON_CENTERED,
    }

    def test_prediction(self, fixture_cliques, fixture_designs):
        predicted = {}
        for name, tag in self.TAGS.items():
            planes = len(planes_inside(fixture_cliques[name]))
            count, rest = divmod(
                self.STABILIZER_ORDER * planes,
                automorphism_group(fixture_designs[name]).order,
            )
            assert rest == 0
            predicted[tag] = count
        assert predicted == self.EXPECTED

    def test_plane_columns(self, fixture_cliques):
        for c in fixture_cliques.values():
            for plane in planes_inside(c):
                a, b, *rest = sorted(p.bits for p in plane)
                d = next(p for p in rest if p != a ^ b)
                columns = [
                    (a >> e & 1) | (b >> e & 1) << 1 | (d >> e & 1) << 2 for e in range(15)
                ]
                assert sorted(columns.count(col) for col in range(8)) == [1] + [2] * 7

    @pytest.mark.parametrize("seed", [None, 3])
    def test_slice_tally(self, g15, gr15, fixture_cliques, seed):
        plane = planes_inside(fixture_cliques["c1"])[0]
        if seed is not None:
            p = Permutation.random(15, random.Random(seed))
            plane = frozenset(apply(p, q) for q in plane)
        vertices = sorted(g15.index_of(q) for q in plane)
        common = -1
        for v in vertices:
            common &= gr15.adjacency[v]
        assert common.bit_count() == 128
        graph = induced_graph(gr15, [*vertices, *_bits_of(common)])
        cliques = list(
            enumerate_maximal_cliques(graph, containing=vertices[0], min_size=15)
        )
        assert len(cliques) == 480
        assert len({c.vertices for c in cliques}) == 480
        assert all(len(c) == 15 and set(vertices) <= set(c.vertices) for c in cliques)
        tally = dict.fromkeys(self.EXPECTED, 0)
        for c in cliques:
            tally[classify_clique(c).tag] += 1
        assert tally == self.EXPECTED

    # the seedless plane slice's stream as the search on the roster numbering
    # emitted it: the first five cliques and a sha256 of all 480
    FIRST_CLIQUES = [
        (164, 901, 1165, 1742, 1890, 2228, 2326, 3003, 3298, 4355, 4665, 5356, 5530, 5864, 5948),
        (164, 901, 1165, 1742, 1890, 2228, 2326, 3003, 3298, 4355, 4665, 5401, 5485, 5819, 5993),
        (164, 901, 1165, 1742, 1890, 2228, 2326, 3003, 3298, 4431, 4605, 5280, 5590, 5864, 5948),
        (164, 901, 1165, 1742, 1890, 2228, 2326, 3003, 3298, 4431, 4605, 5401, 5485, 5743, 6053),
        (164, 901, 1165, 1742, 1890, 2228, 2326, 3003, 3298, 4476, 4560, 5280, 5590, 5819, 5993),
    ]
    STREAM_SHA256 = "b7af9aa866160b589a914366500e1114ebfb6321b7ea65d42d52435cae07b533"

    def test_stream_is_pinned(self, g15, gr15, fixture_cliques):
        vertices, graph = slice_graph(g15, gr15, planes_inside(fixture_cliques["c1"])[0])
        stream = list(maximal_cliques(graph.adjacency, 15, containing=vertices[0]))
        assert len(stream) == 480
        assert stream[:5] == self.FIRST_CLIQUES
        assert hashlib.sha256(repr(stream).encode()).hexdigest() == self.STREAM_SHA256


class TestLineSlice:
    """Every maximal 15-clique through one line, counted by orbit-stabilizer.

    The three points a, b, a ^ b of a line meet pairwise in 4 elements, so
    the columns (a_e, b_e) over [15] take the values 11, 10 and 01 four
    times each and 00 three times. S_15 is therefore transitive on lines,
    with stabilizer S_4 wr S_3 x S_3 of order 24^3 * 6 * 6 = 497,664, and the
    cliques of type i through a fixed line number 497,664 * lines_i / |Aut_i|.
    """

    STABILIZER_ORDER = 24**3 * 6 * 6
    EXPECTED = {
        CliqueTag.C1: 864,
        CliqueTag.C2: 16416,
        CliqueTag.C3: 57024,
        CliqueTag.C4: 20736,
        CliqueTag.NON_CENTERED: 20736,
    }

    def test_prediction(self, fixture_cliques, fixture_designs):
        predicted = {}
        for name, tag in TestPlaneSlice.TAGS.items():
            lines = len(lines_inside(fixture_cliques[name]))
            count, rest = divmod(
                self.STABILIZER_ORDER * lines,
                automorphism_group(fixture_designs[name]).order,
            )
            assert rest == 0
            predicted[tag] = count
        assert predicted == self.EXPECTED
        assert sum(predicted.values()) == 115776

    def test_line_columns(self, fixture_cliques):
        for c in fixture_cliques.values():
            for line in lines_inside(c):
                a, b, _ = (p.bits for p in line.points)
                columns = [(a >> e & 1) | (b >> e & 1) << 1 for e in range(15)]
                assert sorted(columns.count(col) for col in range(4)) == [3, 4, 4, 4]

    @pytest.mark.slow
    def test_slice_tally(self, g15, gr15, fixture_cliques):
        line = lines_inside(fixture_cliques["c1"])[0]
        vertices = sorted(g15.index_of(q) for q in line.points)
        common = -1
        for v in vertices:
            common &= gr15.adjacency[v]
        graph = induced_graph(gr15, [*vertices, *_bits_of(common)])
        tally = dict.fromkeys(self.EXPECTED, 0)
        seen = set()
        for c in enumerate_maximal_cliques(graph, containing=vertices[0], min_size=15):
            assert len(c) == 15 and set(vertices) <= set(c.vertices)
            seen.add(c.vertices)
            tally[classify_clique(c).tag] += 1
        assert len(seen) == sum(tally.values())
        assert tally == self.EXPECTED


class TestPairSlice:
    """Every maximal 15-clique through one collinear pair, counted by orbit-stabilizer.

    The columns (a_e, b_e) of a collinear pair a, b over [15] take the
    values 11, 10 and 01 four times each and 00 three times, so S_15 is
    transitive on collinear pairs, with stabilizer S_4 wr S_3 x S_3 x 2 (the
    last factor swaps a and b) of order 24^3 * 3! * 2 = 165,888. Any two
    points of a 15-clique are collinear, so the cliques of type i through a
    fixed pair number 165,888 * C(15, 2) / |Aut_i|. A sixth type would raise
    the total above their sum, so the exhaustive slice proves the five types
    complete.
    """

    STABILIZER_ORDER = 24**3 * factorial(3) * 2
    EXPECTED = {
        CliqueTag.C1: 864,
        CliqueTag.C2: 30240,
        CliqueTag.C3: 181440,
        CliqueTag.C4: 103680,
        CliqueTag.NON_CENTERED: 103680,
    }

    def test_prediction(self, fixture_cliques, fixture_designs):
        assert self.STABILIZER_ORDER == 165888
        predicted = {}
        for name, tag in TestPlaneSlice.TAGS.items():
            count, rest = divmod(
                self.STABILIZER_ORDER * comb(len(fixture_cliques[name]), 2),
                automorphism_group(fixture_designs[name]).order,
            )
            assert rest == 0
            predicted[tag] = count
        assert predicted == self.EXPECTED
        assert sum(predicted.values()) == 419904

    def test_pair_columns(self, fixture_cliques):
        for c in fixture_cliques.values():
            for a, b in combinations(c.bits, 2):
                columns = [(a >> e & 1) | (b >> e & 1) << 1 for e in range(15)]
                classes = [columns.count(col) for col in range(4)]
                # 00 three times; 01, 10 and 11 four times each
                assert classes == [3, 4, 4, 4]
                # permuting inside each class fixes a and b; trading the
                # classes 01 and 10 swaps a and b
                assert prod(map(factorial, classes)) * 2 == self.STABILIZER_ORDER

    @pytest.mark.slow
    def test_slice_tally(self, g15, gr15, fixture_cliques):
        a, b = fixture_cliques["c1"].points[:2]
        vertices, graph = slice_graph(g15, gr15, (a, b))
        third = a.bits ^ b.bits
        tally = dict.fromkeys(self.EXPECTED, 0)
        line_tally = dict.fromkeys(self.EXPECTED, 0)
        seen = set()
        for c in enumerate_maximal_cliques(graph, containing=vertices[0], min_size=15):
            assert len(c) == 15 and set(vertices) <= set(c.vertices)
            seen.add(c.vertices)
            tag = classify_clique(c).tag
            tally[tag] += 1
            if third in c.bits:
                line_tally[tag] += 1
        assert len(seen) == sum(tally.values())
        assert tally == self.EXPECTED
        # the cliques that also hold a ^ b are the slice through the line a, b, a ^ b
        assert line_tally == TestLineSlice.EXPECTED


@pytest.fixture(scope="module")
def nx():
    return pytest.importorskip("networkx")


def assert_matches_networkx(nx, graph):
    g = nx.Graph()
    g.add_nodes_from(range(len(graph)))
    g.add_edges_from(
        (u, v) for u, adj in enumerate(graph.adjacency) for v in _bits_of(adj) if u < v
    )
    ours = [c.vertices for c in enumerate_maximal_cliques(graph)]
    assert len(ours) == len(set(ours))
    assert {frozenset(c) for c in ours} == {frozenset(c) for c in nx.find_cliques(g)}


# four points of the C2 fixture clique, no three of them on a line
FOUR_POINTS = (11565, 21675, 24990, 26214)


class TestEntryStates:
    """The search from the root against the search through one vertex.

    Every vertex of a slice is collinear to the points it is cut through,
    so each maximal clique of the slice holds them all, and both entry
    states must give the same cliques.
    """

    @pytest.mark.parametrize(
        "through, width, count", [("plane", 135, 480), ("four points", 119, 176)]
    )
    def test_same_cliques_on_a_renumbered_slice(
        self, g15, gr15, fixture_cliques, through, width, count
    ):
        if through == "plane":
            points = planes_inside(fixture_cliques["c1"])[0]
        else:
            points = [ElementSet(b, 15) for b in FOUR_POINTS]
            assert all(p in fixture_cliques["c2"] for p in points)
        vertices, graph = slice_graph(g15, gr15, points)
        outer, local = _renumber(graph.adjacency, vertices[0])
        assert len(local) == width
        root = set(maximal_cliques(local))
        assert len(root) == count
        v = outer.index(vertices[0])
        for min_size in (0, 15):
            assert set(maximal_cliques(local, min_size)) == root
            assert set(maximal_cliques(local, min_size, containing=v)) == root

    def test_empty_graph_yields_nothing(self):
        for min_size in (0, 1, 3):
            assert list(maximal_cliques([], min_size)) == []

    def test_isolated_vertices_are_singletons(self):
        assert list(maximal_cliques([0] * 4)) == [(0,), (1,), (2,), (3,)]
        # 0 - 1 is an edge, 2 is isolated
        adj = [0b010, 0b001, 0b000]
        assert sorted(maximal_cliques(adj)) == [(0, 1), (2,)]
        assert list(maximal_cliques(adj, 2)) == [(0, 1)]

    @pytest.mark.parametrize("seed", range(6))
    def test_min_size_filters_the_unpruned_stream(self, seed):
        rng = random.Random(seed)
        adj = random_adjacency(rng, rng.randrange(1, 36), rng.choice((0.2, 0.5, 0.8)))
        unpruned = list(maximal_cliques(adj))
        for k in range(8):
            assert list(maximal_cliques(adj, k)) == [c for c in unpruned if len(c) >= k]


class TestEnumerationAgainstNetworkx:
    def test_full_k3_graph(self, nx, gr7):
        assert_matches_networkx(nx, gr7)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_induced_k4_subgraphs(self, nx, gr15, seed):
        rng = random.Random(seed)
        vertices = rng.sample(range(len(gr15)), 60)
        assert_matches_networkx(nx, induced_graph(gr15, vertices))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_containing_on_random_induced_k4_subgraphs(self, nx, gr15, seed):
        rng = random.Random(seed)
        vertices = rng.sample(range(len(gr15)), 60)
        adj = induced_graph(gr15, vertices).adjacency
        g = nx.Graph()
        g.add_nodes_from(vertices)
        g.add_edges_from((u, v) for u in vertices for v in _bits_of(adj[u]) if u < v)
        theirs = [frozenset(c) for c in nx.find_cliques(g)]
        for v in vertices:
            ours = list(maximal_cliques(adj, containing=v))
            assert all(list(c) == sorted(c) for c in ours)
            assert len(ours) == len(set(ours))
            assert {frozenset(c) for c in ours} == {c for c in theirs if v in c}

    def test_core_on_the_fano_plane_graph(self, nx):
        # 4-subsets of [7] meeting in 2 elements; the 30 Fano planes are its maximal cliques
        bits = [s.bits for s in subsets_of(ElementSet.full(7), 4)]
        adj = [
            sum(1 << j for j, b in enumerate(bits) if (a & b).bit_count() == 2)
            for a in bits
        ]
        g = nx.Graph()
        g.add_edges_from((u, v) for u in range(35) for v in _bits_of(adj[u]) if u < v)
        ours = list(maximal_cliques(adj))
        assert len(ours) == 30
        assert all(list(c) == sorted(c) for c in ours)
        assert {frozenset(c) for c in ours} == {frozenset(c) for c in nx.find_cliques(g)}


def reference_maximal_cliques(adj, min_size=0, containing=None):
    """The recursive Bron-Kerbosch that maximal_cliques replaced, as it was.

    One generator per search node, pruned by the popcount of P alone; its
    stream is the oracle for the explicit-stack search, order included.
    """

    def expand(adj: list[int], r: list[int], p: int, x: int):
        if p == 0 and x == 0:
            if len(r) >= min_size:
                yield tuple(sorted(r))
            return
        if len(r) + p.bit_count() < min_size:
            return
        pivot = -1
        best = -1
        for u in set_bits(p | x):
            score = (p & adj[u]).bit_count()
            if score > best:
                best = score
                pivot = u
        for v in set_bits(p & ~adj[pivot]):
            mask = 1 << v
            yield from expand(adj, r + [v], p & adj[v], x & adj[v])
            p &= ~mask
            x |= mask

    if containing is not None:
        outer, local = _renumber(adj, containing)
        v = outer.index(containing)
        for clique in expand(local, [v], local[v], 0):
            yield tuple([outer[u] for u in clique])
        return
    if adj:
        yield from expand(adj, [], (1 << len(adj)) - 1, 0)


class CountingRows(list):
    """Adjacency rows that count how often the search reads one."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


class TestExplicitStack:
    """The explicit-stack search against the recursive one it replaced.

    The degree bound drops only subtrees that emit no clique of min_size,
    and every surviving node keeps its branch order and its p/x updates, so
    the two streams agree clique for clique, in order.
    """

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_streams_agree_on_random_graphs(self, data):
        n = data.draw(st.integers(min_value=0, max_value=30), label="n")
        density = data.draw(st.floats(min_value=0.2, max_value=0.8), label="density")
        adj = random_adjacency(data.draw(st.randoms(use_true_random=False)), n, density)
        min_size = data.draw(st.integers(min_value=0, max_value=6), label="min_size")
        containing = data.draw(
            st.none() | st.integers(min_value=0, max_value=n - 1) if n else st.none(),
            label="containing",
        )
        assert list(maximal_cliques(adj, min_size, containing)) == list(
            reference_maximal_cliques(adj, min_size, containing)
        )

    @pytest.mark.parametrize("min_size", [0, 15])
    def test_streams_agree_on_the_plane_slice(self, g15, gr15, fixture_cliques, min_size):
        vertices, graph = slice_graph(g15, gr15, planes_inside(fixture_cliques["c1"])[0])
        _, local = _renumber(graph.adjacency, vertices[0])
        # through the plane's first vertex, and from the root of its renumbered N[v]
        for adj, containing in ((graph.adjacency, vertices[0]), (local, None)):
            ours = list(maximal_cliques(adj, min_size, containing))
            assert len(ours) == 480
            assert ours == list(reference_maximal_cliques(adj, min_size, containing))

    def test_degree_bound_saves_reads(self, g15, gr15, fixture_cliques):
        vertices, graph = slice_graph(g15, gr15, planes_inside(fixture_cliques["c1"])[0])
        _, local = _renumber(graph.adjacency, vertices[0])
        reads = {}
        for search in (maximal_cliques, reference_maximal_cliques):
            for min_size in (0, 15):
                rows = CountingRows(local)
                assert len(list(search(rows, min_size))) == 480
                reads[search.__name__, min_size] = rows.reads
        # the same tree at min_size 0; at 15 the bound cuts the reads by 30 % or more
        assert reads["maximal_cliques", 0] == reads["reference_maximal_cliques", 0]
        assert reads["maximal_cliques", 15] <= 0.7 * reads["reference_maximal_cliques", 15]
