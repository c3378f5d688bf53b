import random
import time
from dataclasses import fields
from itertools import combinations
from math import comb

import pytest

from simplex_designs.errors import InvariantError
from simplex_designs.geometry import (
    Geometry,
    GeometryParams,
    Line,
    build_geometry,
    geometry_for_dimension,
    geometry_for_ground,
    is_collinear,
    is_singular_bits,
    is_singular_subspace,
    is_subspace,
    line_through,
    singular_span,
)
from simplex_designs.subsets import ElementSet

from conftest import fixture_text
from simplex_designs import parse_incidence


def blocks_of(name):
    return parse_incidence(fixture_text(name)).blocks


class TestParams:
    @pytest.mark.parametrize("k,m,n", [(2, 1, 3), (3, 2, 7), (4, 4, 15), (5, 8, 31)])
    def test_valid_triples(self, k, m, n):
        p = GeometryParams.for_dimension(k)
        assert (p.k, p.m, p.n) == (k, m, n)
        assert n >= 3 * m

    def test_invalid_triples(self):
        with pytest.raises(InvariantError):
            GeometryParams.for_dimension(1)

    def test_ground_beyond_one_word_rejected(self):
        from simplex_designs.constructions import hyperplane_complement_blocks

        assert GeometryParams.for_dimension(6).n == 63
        for build in (GeometryParams.for_dimension, geometry_for_dimension,
                      hyperplane_complement_blocks):
            with pytest.raises(InvariantError, match="ground size 127 exceeds 63"):
                build(7)
        with pytest.raises(InvariantError, match="exceeds 63"):
            GeometryParams(7)

    def test_k_is_the_only_input(self):
        assert [f.name for f in fields(GeometryParams) if f.init] == ["k"]
        with pytest.raises(TypeError):
            GeometryParams(4, 4, 15)
        with pytest.raises(InvariantError, match="k must be at least 2"):
            GeometryParams(1)

    @pytest.mark.parametrize("k", [4.0, "4", None], ids=["float", "str", "none"])
    def test_refuses_a_non_integer_k(self, k):
        with pytest.raises(InvariantError, match="k must be an integer"):
            GeometryParams(k)

    def test_stores_an_index_object_as_an_int(self):
        class Four:
            def __index__(self):
                return 4

        p = GeometryParams(Four())
        assert type(p.k) is int and p == GeometryParams(4)
        assert (p.m, p.n) == (4, 15) and repr(p) == "GeometryParams(k=4)"

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_k_alone_equals_for_dimension(self, k):
        p, q = GeometryParams(k), GeometryParams.for_dimension(k)
        assert p == q and hash(p) == hash(q)
        assert (p.m, p.n, p.point_size) == (q.m, q.n, q.point_size)
        assert (p.m, p.n) == (2 ** (k - 2), 2**k - 1)
        assert repr(p) == f"GeometryParams(k={k})"


class TestRoster:
    @pytest.mark.parametrize("k", [5, 6])
    def test_large_dimensions_fail_fast(self, k):
        # the geometry itself is only its parameters; the roster is refused on first use
        params = GeometryParams.for_dimension(k)
        g = geometry_for_dimension(k)
        assert vars(g) == {"params": params}
        assert len(g) == comb(params.n, params.point_size)
        point = ElementSet((1 << params.point_size) - 1, params.n)
        assert g.contains(point)
        started = time.perf_counter()
        with pytest.raises(InvariantError, match=f"k = {k}"):
            g.points
        with pytest.raises(InvariantError, match=f"k = {k}"):
            g.index_of(point)
        with pytest.raises(InvariantError, match=f"k = {k}"):
            Geometry(params).points
        assert time.perf_counter() - started < 1.0

    def test_geometry_is_a_value_of_its_parameters(self, fixture_designs):
        from simplex_designs.cliques import Clique
        from simplex_designs.constructions import canonical_center, default_z, product_clique
        from simplex_designs.fano import FanoBijection, fano_planes_on

        params = GeometryParams.for_dimension(4)
        built, shared = build_geometry(params), geometry_for_dimension(4)
        assert built == shared and hash(built) == hash(shared)
        assert built != geometry_for_dimension(3)
        blocks = fixture_designs["c3"].blocks
        a, b = Clique.from_points(built, blocks), Clique.from_points(shared, blocks)
        assert a == b and hash(a) == hash(b)
        O = canonical_center()
        X = fano_planes_on(ElementSet.full(15) ^ O)[0]
        Y = fano_planes_on(default_z(O))[0]
        d = FanoBijection(X, Y, (3, 1, 4, 0, 6, 5, 2))
        assert product_clique(O, X, Y, d, build_geometry(params)) == product_clique(O, X, Y, d)

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_one_shared_geometry_per_dimension(self, k):
        class Index:
            def __index__(self):
                return k

        params = GeometryParams(k)
        shared = build_geometry(params)
        assert shared is geometry_for_dimension(k) is geometry_for_ground(params.n)
        assert shared is geometry_for_dimension(Index()) is build_geometry(GeometryParams(Index()))
        # a Geometry built by hand is a value equal to the shared one, not the same object
        assert Geometry(params) == shared and Geometry(params) is not shared

    def test_sizes(self, g7, g15):
        assert len(g7) == 35
        assert len(g15) == 6435
        g3 = build_geometry(GeometryParams.for_dimension(2))
        assert len(g3) == 3

    def test_smallest_geometry_is_a_line(self):
        g3 = build_geometry(GeometryParams.for_dimension(2))
        a, b, c = g3.points
        assert a ^ b == c

    def test_roster_sorted_ascending_with_index(self, g7):
        masks = [p.bits for p in g7.points]
        assert masks == sorted(masks)
        assert all(len(p) == 4 for p in g7.points)
        for i, p in enumerate(g7.points):
            assert g7.index_of(p) == i

    def test_point_count_formula(self, g15):
        assert len(g15) == comb(15, 8)

    def test_index_of_rejects_non_points(self, g15):
        with pytest.raises(InvariantError):
            g15.index_of(ElementSet.of([1], 15))

    def test_contains_is_false_for_anything_but_an_element_set(self, g15):
        # a predicate: a bitmask or a tuple of the right size is no point
        point = g15.points[0]
        assert g15.contains(point)
        for other in (point.bits, 255, (point.bits, 15), None):
            assert not g15.contains(other)
        with pytest.raises(InvariantError, match="255 is not a point"):
            g15.bits_of(255)

    def test_indices_of_names_the_bitmask_that_is_not_a_point(self, g7):
        points = [p.bits for p in g7.points[:3]]
        assert g7.indices_of(points) == (0, 1, 2)
        with pytest.raises(InvariantError, match="bitmask 0x7 is not a point"):
            g7.indices_of([*points, 0b111])


class TestCollinearity:
    def test_fixture_rows_collinear(self, g15):
        rows = blocks_of("c1")
        assert is_collinear(g15, rows[0], rows[1])

    def test_large_overlap_not_collinear(self, g15):
        a = ElementSet.of(range(1, 9), 15)
        b = ElementSet.of(list(range(1, 8)) + [9], 15)
        assert not is_collinear(g15, a, b)

    def test_same_point_rejected(self, g15):
        a = ElementSet.of(range(1, 9), 15)
        with pytest.raises(InvariantError):
            is_collinear(g15, a, a)

    def test_exhaustive_against_direct_count_n7(self, g7):
        for a, b in combinations(g7.points, 2):
            direct = (a.bits & b.bits).bit_count() == 2
            assert is_collinear(g7, a, b) == direct


class TestLines:
    def test_line_through_fixture_rows(self, g15):
        rows = blocks_of("c1")
        line = line_through(g15, rows[0], rows[1])
        assert rows[2] in line

    def test_line_from_signed_construction(self, g15):
        from simplex_designs.constructions import signed_set

        x1 = signed_set([1, -1, 2, -2, 3, -3, 4, -4])
        x2 = signed_set([1, -1, 2, -2, 5, -5, 6, -6])
        x3 = signed_set([3, -3, 4, -4, 5, -5, 6, -6])
        assert x3 in line_through(g15, x1, x2)

    def test_non_collinear_pair_rejected(self, g15):
        a = ElementSet.of(range(1, 9), 15)
        b = ElementSet.of(list(range(1, 8)) + [9], 15)
        with pytest.raises(InvariantError):
            line_through(g15, a, b)

    def test_all_lines_closed_at_n7(self, g7):
        count = 0
        for a, b in combinations(g7.points, 2):
            if is_collinear(g7, a, b):
                line = line_through(g7, a, b)
                count += 1
                for p, q in combinations(line.points, 2):
                    assert (p.bits & q.bits).bit_count() == 2
                assert len({p.bits for p in line.points}) == 3
        assert count > 0

    def test_canonical_order_enforced(self, g7):
        pts = sorted(g7.points[:5], key=lambda p: p.bits)
        with pytest.raises(InvariantError):
            Line((pts[0], pts[1], pts[2]))

    def test_a_closed_triple_out_of_order_is_refused(self, g7):
        x, y = next(pair for pair in combinations(g7.points, 2) if is_collinear(g7, *pair))
        a, b, c = line_through(g7, x, y).points
        for triple in ((b, a, c), (a, c, b), (c, b, a)):
            with pytest.raises(InvariantError, match="^line points must be in ascending"):
                Line(triple)

    @pytest.mark.parametrize(
        "a,b,n,message",
        [
            # meet in 3: the third member has 10 elements
            (range(1, 9), [1, 2, 3, 9, 10, 11, 12, 13], 15, "not a point"),
            ([1], [2], 15, "not a point"),
            # x ^ x is the empty set
            (range(1, 9), range(1, 9), 15, "not a point"),
            # closed under xor, but 11 is no 2^k - 1
            (range(1, 7), range(4, 10), 11, "not of the form 2\\^k - 1"),
        ],
    )
    def test_members_must_be_points(self, a, b, n, message):
        with pytest.raises(InvariantError, match=message):
            Line.through(ElementSet.of(a, n), ElementSet.of(b, n))

    def test_sampled_lines_at_n15_have_intersection_m(self, g15):
        rng = random.Random(13)
        checked = 0
        while checked < 200:
            a, b = rng.sample(g15.points, 2)
            if not is_collinear(g15, a, b):
                continue
            line = line_through(g15, a, b)
            for p, q in combinations(line.points, 2):
                assert (p.bits & q.bits).bit_count() == 4
            checked += 1


class TestSubspaces:
    def test_single_point_and_line(self, g15):
        rows = blocks_of("c1")
        assert is_subspace(g15, [rows[0]])
        line = line_through(g15, rows[0], rows[1])
        assert is_subspace(g15, line.points)
        assert is_singular_subspace(g15, line.points)

    def test_empty_is_singular(self, g15):
        assert is_singular_subspace(g15, [])

    @pytest.mark.parametrize(
        "point", [ElementSet.of([1, 2], 15), ElementSet.of([1, 2, 3, 4], 7)], ids=str
    )
    @pytest.mark.parametrize("check", [is_subspace, is_singular_subspace])
    def test_non_points_rejected(self, g15, check, point):
        with pytest.raises(InvariantError, match="not a point"):
            check(g15, [point])

    def test_c1_fixture_is_maximal_singular(self, g15):
        rows = blocks_of("c1")
        assert is_singular_subspace(g15, rows)

    def test_c4_fixture_is_not_singular(self, g15):
        rows = blocks_of("c4")
        assert not is_singular_subspace(g15, rows)
        assert not is_subspace(g15, rows)

    def test_bitmask_check_agrees_with_the_point_check(self, g15):
        for name in ("c1", "c2", "c3", "c4", "non_centered"):
            rows = blocks_of(name)
            for pts in (rows, rows[:3], [rows[0], rows[1], rows[0] ^ rows[1]]):
                bits = [p.bits for p in pts]
                assert is_singular_bits(4, bits) == is_singular_subspace(g15, pts)
        line = [p.bits for p in line_through(g15, *blocks_of("c1")[:2]).points]
        assert is_singular_bits(4, line)
        # a repeated point meets itself in 2m elements
        assert not is_singular_bits(4, [*line, line[0]])


class TestSingularSpan:
    def test_span_of_line_is_line(self, g15):
        rows = blocks_of("c1")
        line = line_through(g15, rows[0], rows[1])
        assert singular_span(g15, line.points) == frozenset(line.points)

    def test_span_of_three_c1_rows_is_plane(self, g15):
        rows = blocks_of("c1")
        span = singular_span(g15, [rows[0], rows[1], rows[3]])
        assert len(span) == 7
        assert is_singular_subspace(g15, span)

    def test_maximal_singular_subspaces_have_n_points(self, g7, g15):
        span7 = singular_span(g7, g7.points[:1])
        assert len(span7) == 1
        rows = blocks_of("c1")
        full = singular_span(g15, [rows[0], rows[1], rows[3], rows[7]])
        assert len(full) == 15
        assert is_singular_subspace(g15, full)

    def test_idempotent_and_monotone(self, g15):
        rows = blocks_of("c1")
        small = singular_span(g15, [rows[0], rows[1]])
        big = singular_span(g15, [rows[0], rows[1], rows[3]])
        assert small <= big
        assert singular_span(g15, big) == big

    def test_rejects_input_outside_all_singular_subspaces(self, g15):
        # pairwise collinear triple of a plane-free clique; its closure must
        # hit a non-collinear pair
        rows = blocks_of("c4")
        found = False
        for triple in combinations(rows, 3):
            a, b, c = triple
            if (a.bits ^ b.bits) == c.bits:
                continue
            try:
                singular_span(g15, triple)
            except InvariantError:
                found = True
                break
        assert found

    def test_rejects_non_roster_points(self, g15):
        with pytest.raises(InvariantError):
            singular_span(g15, [ElementSet.of([1, 2], 15)])
