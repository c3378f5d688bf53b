import random
import time
from itertools import combinations

import pytest

import simplex_designs.constructions as constructions
from simplex_designs.cliques import (
    Clique,
    CliqueTag,
    build_graph,
    center_points,
    classify_clique,
    lines_inside,
)
from simplex_designs.constructions import (
    canonical_centered_blocks,
    canonical_center,
    decompose,
    default_z,
    hyperplane_complement_blocks,
    hyperplane_complement_clique,
    non_centered_blocks,
    non_centered_clique,
    product_clique,
    signed_set,
    split_non_centered,
)
from simplex_designs.designs import Design, design_from_clique, find_isomorphism
from simplex_designs.errors import InternalCheckError, InvariantError
from simplex_designs.fano import (
    FanoBijection,
    fano_planes_on,
    representative_of_index,
)
from simplex_designs.geometry import is_singular_subspace
from simplex_designs.subsets import ElementSet

FULL15 = ElementSet.full(15)


FIXTURE_TAGS = {
    "c1": CliqueTag.C1,
    "c2": CliqueTag.C2,
    "c3": CliqueTag.C3,
    "c4": CliqueTag.C4,
    "non_centered": CliqueTag.NON_CENTERED,
}


def forbid_product_clique(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("product_clique was called")

    monkeypatch.setattr(constructions, "product_clique", refuse)


def random_parameters(rng):
    """A random (O, Z, X, Y, delta) tuple for the k = 4 product."""
    O = ElementSet.of(rng.sample(range(1, 16), 8), 15)
    oc = ElementSet(FULL15.bits & ~O.bits, 15)
    drop = rng.choice(O.elements())
    Z = ElementSet(O.bits & ~(1 << (drop - 1)), 15)
    X = rng.choice(fano_planes_on(oc))
    Y = rng.choice(fano_planes_on(Z))
    images = list(range(7))
    rng.shuffle(images)
    return O, Z, X, Y, FanoBijection(X, Y, tuple(images))


class TestProduct:
    def test_result_shape_and_center(self):
        rng = random.Random(1)
        O, Z, X, Y, delta = random_parameters(rng)
        c = product_clique(O, X, Y, delta)
        assert len(c) == 15
        assert O in center_points(c)

    def test_per_block_lines_through_center(self):
        rng = random.Random(2)
        O, Z, X, Y, delta = random_parameters(rng)
        c = product_clique(O, X, Y, delta)
        inside = c.bits
        for x in X.points:
            plus = x | delta(x)
            minus = x | ElementSet(O.bits & ~delta(x).bits, 15)
            assert plus.bits in inside and minus.bits in inside
            assert plus ^ minus == O

    def test_index_seven_product_is_singular(self, g15):
        O = canonical_center()
        oc = ElementSet(FULL15.bits & ~O.bits, 15)
        Z = ElementSet.of(range(9, 16), 15)
        X = fano_planes_on(oc)[0]
        Y = fano_planes_on(Z)[0]
        delta = representative_of_index(X, Y, 7)
        c = product_clique(O, X, Y, delta)
        assert is_singular_subspace(g15, c.points)

    def test_plus_half_line_count_equals_index(self):
        O = canonical_center()
        oc = ElementSet(FULL15.bits & ~O.bits, 15)
        Z = ElementSet.of(range(9, 16), 15)
        X = fano_planes_on(oc)[0]
        Y = fano_planes_on(Z)[0]
        for idx in (0, 1, 3, 7):
            delta = representative_of_index(X, Y, idx)
            c = product_clique(O, X, Y, delta)
            dec = decompose(c, O, Z)
            plus = {p.bits for p in dec.plus_half}
            internal = [
                line
                for line in lines_inside(c)
                if all(p.bits in plus for p in line.points)
            ]
            assert len(internal) == idx

    def test_rejects_bad_center_size(self):
        rng = random.Random(3)
        O, Z, X, Y, delta = random_parameters(rng)
        with pytest.raises(InvariantError):
            product_clique(ElementSet.of(range(1, 8), 15), X, Y, delta)

    def test_rejects_non_bijection(self):
        rng = random.Random(4)
        O, Z, X, Y, delta = random_parameters(rng)
        bad = {x: Y.points[0] for x in X.points}
        with pytest.raises(InvariantError):
            product_clique(O, X.points, Y.points, bad)

    def test_rejects_x_not_in_complement(self):
        rng = random.Random(5)
        O, Z, X, Y, delta = random_parameters(rng)
        with pytest.raises(InvariantError):
            product_clique(O, Y, X, {y: x for x, y in delta.mapping().items()})


class TestDecompose:
    def test_round_trip_from_random_parameters(self):
        rng = random.Random(6)
        for _ in range(25):
            O, Z, X, Y, delta = random_parameters(rng)
            c = product_clique(O, X, Y, delta)
            dec = decompose(c, O, Z)
            assert set(dec.x_points) == set(X.points)
            assert set(dec.y_points) == set(Y.points)
            assert dec.delta == delta.mapping()
            assert len(dec.x_points) == 7
            rebuilt = product_clique(O, dec.x_points, dec.y_points, dec.delta)
            assert rebuilt.vertices == c.vertices

    def test_minus_half_members_contain_spare_element(self):
        rng = random.Random(7)
        O, Z, X, Y, delta = random_parameters(rng)
        c = product_clique(O, X, Y, delta)
        dec = decompose(c, O, Z)
        (spare,) = (O ^ Z).elements()
        assert all(spare in p for p in dec.minus_half)
        assert len(dec.plus_half) == len(dec.minus_half) == 7

    def test_default_z_drops_largest_element(self, fixture_designs, g15):
        c = Clique.from_points(g15, fixture_designs["c1"].blocks)
        O = center_points(c)[0]
        dec = decompose(c, O)
        assert dec.z == ElementSet(O.bits & ~(1 << (max(O.elements()) - 1)), 15)

    def test_alternate_z_swaps_marked_y_parts(self):
        rng = random.Random(8)
        O, Z1, X, Y, delta = random_parameters(rng)
        c = product_clique(O, X, Y, delta)
        options = [e for e in O.elements() if (O.bits & ~(1 << (e - 1))) != Z1.bits]
        drop = rng.choice(options)
        Z2 = ElementSet(O.bits & ~(1 << (drop - 1)), 15)
        dec1 = decompose(c, O, Z1)
        dec2 = decompose(c, O, Z2)
        s = drop
        expected = {
            (O.bits & ~y.bits) if s in y else y.bits for y in dec1.y_points
        }
        assert {y.bits for y in dec2.y_points} == expected

    def test_rebuild_check_fires(self, monkeypatch, fixture_designs, g15):
        c = Clique.from_points(g15, fixture_designs["c2"].blocks)
        O = center_points(c)[0]
        product_bits = constructions._product_bits

        def one_member_off(o, xs, ys):
            bits = product_bits(o, xs, ys)
            return (bits[0] ^ 1, *bits[1:])

        monkeypatch.setattr(constructions, "_product_bits", one_member_off)
        with pytest.raises(InternalCheckError, match="does not rebuild"):
            decompose(c, O)
        with pytest.raises(InternalCheckError, match="does not rebuild"):
            classify_clique(c)

    def test_needs_no_product_clique(self, monkeypatch, fixture_designs, g15):
        rng = random.Random(9)
        cases = []
        for _ in range(10):
            O, Z, X, Y, delta = random_parameters(rng)
            cases.append((O, Z, X, Y, delta, product_clique(O, X, Y, delta)))
        forbid_product_clique(monkeypatch)
        for name, tag in FIXTURE_TAGS.items():
            c = Clique.from_points(g15, fixture_designs[name].blocks)
            assert classify_clique(c).tag is tag
        for O, Z, X, Y, delta, c in cases:
            dec = decompose(c, O, Z)
            assert set(dec.x_points) == set(X.points)
            assert set(dec.y_points) == set(Y.points)
            assert dec.delta == delta.mapping()

    def test_rejects_non_center(self, fixture_designs, g15):
        c = Clique.from_points(g15, fixture_designs["c4"].blocks)
        non_center = next(
            p for p in c.points if p not in center_points(c)
        )
        with pytest.raises(InvariantError):
            decompose(c, non_center)

    def test_rejects_bad_z(self, fixture_designs, g15):
        c = Clique.from_points(g15, fixture_designs["c1"].blocks)
        O = center_points(c)[0]
        with pytest.raises(InvariantError):
            decompose(c, O, ElementSet.of([1, 2, 3, 4, 5, 6, 7], 15))


class TestDefaultZ:
    def test_drops_largest_element(self):
        O = canonical_center()
        assert default_z(O) == ElementSet.of(range(8, 15), 15)
        assert default_z(ElementSet.of([2, 5, 9], 15)) == ElementSet.of([2, 5], 15)

    def test_decompose_uses_it(self, fixture_designs, g15):
        c = Clique.from_points(g15, fixture_designs["c2"].blocks)
        for O in center_points(c):
            assert decompose(c, O).z == default_z(O)

    def test_rejects_empty_set(self):
        with pytest.raises(InvariantError):
            default_z(ElementSet.empty(15))


class TestHyperplaneComplements:
    def test_dimension_four(self, g15):
        c = hyperplane_complement_clique(4)
        assert len(c) == 15
        assert all(len(p) == 8 for p in c.points)
        assert is_singular_subspace(g15, c.points)
        assert classify_clique(c).tag is CliqueTag.C1

    def test_blocks_match_reference_fixture(self, fixture_designs):
        blocks = hyperplane_complement_blocks(4)
        assert [b.bits for b in blocks] == [
            b.bits for b in fixture_designs["c1"].blocks
        ]

    def test_dimension_three_gives_fano_clique(self, g7):
        c = hyperplane_complement_clique(3)
        assert len(c) == 7
        assert all(len(p) == 4 for p in c.points)
        assert is_singular_subspace(g7, c.points)

    def test_pairwise_intersections(self):
        for k in (3, 4):
            blocks = hyperplane_complement_blocks(k)
            for a, b in combinations(blocks, 2):
                assert (a.bits & b.bits).bit_count() == 2 ** (k - 2)

    def test_rejects_small_k(self):
        with pytest.raises(InvariantError):
            hyperplane_complement_clique(2)


class TestDimensionFive:
    """The k = 5 centered product, built and split without a point roster."""

    @pytest.fixture(scope="class")
    def identity_product(self):
        # O = {1..16}, Z = O - {16}; Y the k = 4 hyperplane complements on Z,
        # X the same blocks shifted onto {17..31}, delta pairs them in order
        O = ElementSet.of(range(1, 17), 31)
        Z = ElementSet.of(range(1, 16), 31)
        Y = [ElementSet(b.bits, 31) for b in hyperplane_complement_blocks(4)]
        X = [ElementSet(y.bits << 16, 31) for y in Y]
        delta = dict(zip(X, Y))
        return O, Z, X, Y, delta, product_clique(O, X, Y, delta)

    def test_identity_c1_product_is_a_clique(self, identity_product):
        O, Z, X, Y, delta, c = identity_product
        assert len(c) == 31 and c.geometry.params.k == 5
        assert all(len(p) == 16 for p in c.points)
        assert O in c and O in center_points(c)

    def test_decompose_rebuilds_it(self, identity_product):
        O, Z, X, Y, delta, c = identity_product
        dec = decompose(c, O, Z)
        assert dec.delta == delta
        assert set(dec.x_points) == set(X) and set(dec.y_points) == set(Y)
        assert product_clique(O, dec.x_points, dec.y_points, dec.delta) == c

    def test_decompose_needs_no_product_clique(self, identity_product, monkeypatch):
        O, Z, X, Y, delta, c = identity_product
        forbid_product_clique(monkeypatch)
        dec = decompose(c, O, Z)
        assert dec.delta == delta
        assert set(dec.x_points) == set(X) and set(dec.y_points) == set(Y)

    def test_isomorphic_to_pg42_hyperplane_complements(self, identity_product):
        c = identity_product[-1]
        pg42 = Design.from_blocks(hyperplane_complement_blocks(5))
        assert find_isomorphism(design_from_clique(c), pg42) is not None
        assert len(hyperplane_complement_clique(5)) == 31

    def test_roster_numbering_is_refused_fast(self, identity_product):
        c = identity_product[-1]
        started = time.perf_counter()
        with pytest.raises(InvariantError, match="k = 5"):
            c.vertices
        with pytest.raises(InvariantError, match="k = 5"):
            build_graph(c.geometry)
        assert time.perf_counter() - started < 1.0


class TestNonCentered:
    def test_contains_named_points(self):
        blocks = non_centered_blocks()
        bits = {b.bits for b in blocks}
        x1 = signed_set([1, -1, 2, -2, 3, -3, 4, -4])
        y = signed_set([0, 1, 2, 3, 4, 5, 6, 7])
        assert x1.bits in bits and y.bits in bits

    def test_maximal_without_centers(self):
        c = non_centered_clique()
        assert len(c) == 15
        assert center_points(c) == ()
        assert classify_clique(c).tag is CliqueTag.NON_CENTERED

    def test_cross_point_collinearity_criteria(self, g15):
        from simplex_designs.constructions import _cross_point_m, _cross_point_n

        pairs = list(combinations(range(1, 7), 2))
        triples = list(combinations(range(1, 7), 3))
        for (i, j), (s, t) in combinations(pairs, 2):
            a, b = _cross_point_n(i, j), _cross_point_n(s, t)
            expect = len({i, j} & {s, t}) == 0
            assert ((a.bits & b.bits).bit_count() == 4) == expect
        for t1, t2 in combinations(triples, 2):
            a, b = _cross_point_m(*t1), _cross_point_m(*t2)
            expect = len(set(t1) & set(t2)) == 1
            assert ((a.bits & b.bits).bit_count() == 4) == expect
        for (i, j) in pairs:
            for trip in triples:
                a, b = _cross_point_n(i, j), _cross_point_m(*trip)
                expect = len({i, j} & set(trip)) == 1
                assert ((a.bits & b.bits).bit_count() == 4) == expect

    def test_symmetric_difference_chain(self):
        from simplex_designs.constructions import _cross_point_m, _cross_point_n

        y = signed_set([0, 1, 2, 3, 4, 5, 6, 7])
        n13 = _cross_point_n(1, 3)
        n25 = _cross_point_n(2, 5)
        n46 = _cross_point_n(4, 6)
        m124 = _cross_point_m(1, 2, 4)
        m156 = _cross_point_m(1, 5, 6)
        m236 = _cross_point_m(2, 3, 6)
        m345 = _cross_point_m(3, 4, 5)
        target = signed_set([2, -2, 4, -4, 5, -5, 6, -6])
        assert (y ^ n13) == target
        assert (n25 ^ n46) == target
        assert (m124 ^ m156) == target
        assert (m236 ^ m345) == target

    def test_split_shape(self, g15):
        c = non_centered_clique()
        parts = split_non_centered(c)
        assert len(parts.plane) == 7
        assert len(parts.subspace) == 15
        assert len(parts.removed_plane) == 7
        assert is_singular_subspace(g15, parts.subspace)
        assert parts.plane.isdisjoint(parts.subspace)
        rebuilt = (parts.subspace - parts.removed_plane) | parts.plane
        assert rebuilt == frozenset(c.points)

    def test_removed_plane_and_apex_span_the_subspace(self, g15):
        from simplex_designs.geometry import singular_span

        c = non_centered_clique()
        parts = split_non_centered(c)
        y = signed_set([0, 1, 2, 3, 4, 5, 6, 7])
        span = singular_span(g15, list(parts.removed_plane) + [y])
        assert span == parts.subspace
        assert len(span) == 15

    def test_no_internal_line_touches_subspace_part(self):
        c = non_centered_clique()
        parts = split_non_centered(c)
        spine = {p.bits for p in parts.subspace - parts.removed_plane}
        for line in lines_inside(c):
            assert all(p.bits not in spine for p in line.points)


class TestCanonicalBlocks:
    def test_index_seven_reproduces_reference(self, fixture_designs):
        blocks = canonical_centered_blocks(7)
        assert [b.bits for b in blocks] == [
            b.bits for b in fixture_designs["c1"].blocks
        ]

    @pytest.mark.parametrize(
        "idx,tag",
        [(7, CliqueTag.C1), (3, CliqueTag.C2), (1, CliqueTag.C3), (0, CliqueTag.C4)],
    )
    def test_each_index_classifies(self, g15, idx, tag):
        c = Clique.from_points(g15, canonical_centered_blocks(idx))
        verdict = classify_clique(c)
        assert verdict.tag is tag
        assert verdict.index == idx

    def test_rejects_bad_index(self):
        with pytest.raises(InvariantError):
            canonical_centered_blocks(5)


class TestEquivalentProductsArePermutationEquivalent:
    def test_equivalent_products_have_permutation_witness(self, g15):
        # two products over different centers built from equivalent maps of
        # singular parts must be carried to each other by some permutation
        from simplex_designs.designs import Design, find_isomorphism

        rng = random.Random(9)
        O1, Z1, X1, Y1, _ = random_parameters(rng)
        O2, Z2, X2, Y2, _ = random_parameters(rng)
        for idx in (7, 1):
            d1 = representative_of_index(X1, Y1, idx)
            d2 = representative_of_index(X2, Y2, idx)
            c1 = product_clique(O1, X1, Y1, d1)
            c2 = product_clique(O2, X2, Y2, d2)
            witness = find_isomorphism(
                Design.from_blocks(c1.points), Design.from_blocks(c2.points)
            )
            assert witness is not None
