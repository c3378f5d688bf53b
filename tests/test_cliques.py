import random
from itertools import combinations, islice

import pytest
from hypothesis import given, settings, strategies as st

from simplex_designs.cliques import (
    _degeneracy_order,
    Clique,
    CliqueTag,
    CollinearityGraph,
    build_graph,
    center_points,
    classify_clique,
    enumerate_maximal_cliques,
    lines_inside,
    maximal_cliques,
    planes_inside,
)
from simplex_designs.designs import automorphism_group
from simplex_designs.errors import InvariantError
from simplex_designs.geometry import is_collinear, is_singular_subspace
from simplex_designs.subsets import ElementSet, Permutation, apply, subsets_of

from conftest import FIXTURE_NAMES


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
        for u, v in combinations(range(len(g7)), 2):
            fast = gr7.adjacency[u] >> v & 1 == 1
            slow = is_collinear(g7, g7.points[u], g7.points[v])
            assert fast == slow

    def test_adjacency_matches_predicate_sampled_n15(self, g15, gr15):
        assert len(gr15) == 6435
        rng = random.Random(5)
        for _ in range(3000):
            u, v = rng.sample(range(6435), 2)
            fast = gr15.adjacency[u] >> v & 1 == 1
            slow = is_collinear(g15, g15.points[u], g15.points[v])
            assert fast == slow

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
        limited = list(enumerate_maximal_cliques(gr7, limit=7))
        assert len(limited) == 7
        ordered = [c.vertices for c in enumerate_maximal_cliques(gr7, sorted_output=True)]
        assert ordered == sorted(ordered)


class TestCliqueType:
    def test_validates_collinearity(self, g15):
        a = ElementSet.of(range(1, 9), 15)
        b = ElementSet.of(list(range(1, 8)) + [9], 15)
        with pytest.raises(InvariantError):
            Clique.from_points(g15, [a, b])

    def test_rejects_oversized(self, gr7, g7):
        with pytest.raises(InvariantError):
            Clique(g7, tuple(range(8)))

    def test_point_round_trip(self, g15, fixture_cliques):
        c = fixture_cliques["c1"]
        assert Clique.from_points(g15, c.points) == c


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

    def test_rejects_wrong_size(self, g15, fixture_cliques):
        c = fixture_cliques["c1"]
        small = Clique(g15, c.vertices[:14])
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
    bits = sorted(c.point_bits())
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
        bits = sorted(c.point_bits())
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
        sub = Clique(g15, tuple(v for i, v in enumerate(c.vertices) if keep >> i & 1))
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


def oracle_degeneracy_order(adj):
    remaining = set(range(len(adj)))
    order = []
    while remaining:
        v = min(remaining, key=lambda u: (sum(adj[u] >> w & 1 for w in remaining), u))
        order.append(v)
        remaining.remove(v)
    return order


class TestDegeneracyOrder:
    def test_k3_graph(self, gr7):
        assert _degeneracy_order(gr7.adjacency) == oracle_degeneracy_order(gr7.adjacency)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_graphs(self, seed):
        rng = random.Random(seed)
        n = 30
        adj = [0] * n
        for u, v in combinations(range(n), 2):
            if rng.random() < 0.3:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        assert _degeneracy_order(adj) == oracle_degeneracy_order(adj)


class TestEnumerationAgainstNetworkx:
    def test_full_k3_graph(self, nx, gr7):
        assert_matches_networkx(nx, gr7)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_induced_k4_subgraphs(self, nx, gr15, seed):
        rng = random.Random(seed)
        vertices = rng.sample(range(len(gr15)), 60)
        assert_matches_networkx(nx, induced_graph(gr15, vertices))

    def test_core_on_the_fano_plane_graph(self, nx):
        # 4-subsets of [7] meeting in 2 elements: the graph fano_planes_on searches
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
