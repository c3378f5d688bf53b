import random
import time
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
    is_collinear,
    is_singular_bits,
    is_singular_subspace,
    is_subspace,
    line_through,
    singular_span,
)
from simplex_designs.subsets import ElementSet, complement_in

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
            GeometryParams(4, 4, 16)
        with pytest.raises(InvariantError):
            GeometryParams(4, 3, 15)
        with pytest.raises(InvariantError):
            GeometryParams.for_dimension(1)


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
        X = fano_planes_on(complement_in(O, ElementSet.full(15)))[0]
        Y = fano_planes_on(default_z(O))[0]
        d = FanoBijection(X, Y, (3, 1, 4, 0, 6, 5, 2))
        assert product_clique(O, X, Y, d, build_geometry(params)) == product_clique(O, X, Y, d)

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
