import random
import re
import time
from collections import Counter
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

import simplex_designs.constructions as constructions
from simplex_designs.cliques import Clique, build_graph
from simplex_designs.constructions import (
    CenteredDecomposition,
    CliqueTag,
    canonical_centered_blocks,
    canonical_center,
    center_points,
    classify_clique,
    decompose,
    default_z,
    hyperplane_complement_blocks,
    hyperplane_complement_clique,
    lines_inside,
    non_centered_blocks,
    non_centered_clique,
    product_clique,
    signed_set,
    split_non_centered,
)
from simplex_designs.designs import Design, design_from_clique, find_isomorphism
from simplex_designs.errors import InternalCheckError, InvariantError
from simplex_designs.fano import (
    INDEX_VALUES,
    FanoBijection,
    _closed,
    bijection_index,
    fano_planes_on,
    pairing_index,
    representative_of_index,
)
from simplex_designs.geometry import geometry_for_dimension, is_singular_subspace
from simplex_designs.subsets import ElementSet, Permutation, apply

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

    @pytest.mark.parametrize("keep", [0, 6])
    def test_rejects_a_delta_missing_a_point(self, keep):
        O = canonical_center()
        X = fano_planes_on(ElementSet(FULL15.bits & ~O.bits, 15))[0]
        Y = fano_planes_on(default_z(O))[0]
        partial = dict(list(zip(X.points, Y.points))[:keep])
        missing = rf"delta has no image for .*bits={X.points[keep].bits},"
        with pytest.raises(InvariantError, match=missing):
            product_clique(O, X.points, Y.points, partial)
        # a FanoBijection passed with point-sequence halves is a callable delta, checked in full
        with pytest.raises(InvariantError, match="not a point of the plane"):
            product_clique(O, X.points, Y.points, FanoBijection(Y, Y, tuple(range(7))))

    @pytest.mark.parametrize(
        "case, message",
        [
            ("repeated", "X contains repeated points"),
            ("six-points", "X must have 7 points, got 6"),
            ("wider-ground", r"X point \{1,4,6,7\} is not a subset of \[15\] with 4 elements"),
            ("five-elements", r"X point \{1,4,6,7,15\} is not a subset of \[15\] with 4 elements"),
            ("inside-center", r"X point \{8,9,10,11\} leaves its support \{1,2,3,4,5,6,7\}"),
            ("disjoint-pair", r"X points \{1,3,5,7\}, \{2,3,5,7\} do not meet in 2"),
        ],
    )
    def test_rejects_a_point_sequence_half_that_is_no_clique(self, case, message):
        O = canonical_center()
        X = fano_planes_on(ElementSet(FULL15.bits & ~O.bits, 15))
        Y = fano_planes_on(default_z(O))[0]
        xs, last = list(X[0].points), X[0].points[6]
        other = next(p for p in X[1].points if p not in xs)
        half = {
            "repeated": xs[:6] + [xs[0]],
            "six-points": xs[:6],
            "wider-ground": xs[:6] + [ElementSet(last.bits, 31)],
            "five-elements": xs[:6] + [ElementSet(last.bits | 1 << 14, 15)],
            "inside-center": xs[:6] + [ElementSet.of([8, 9, 10, 11], 15)],
            "disjoint-pair": xs[:6] + [other],
        }[case]
        with pytest.raises(InvariantError, match=f"^{message}$"):
            product_clique(O, half, Y.points, dict(zip(half, Y.points)))

    def test_rejects_a_y_half_covering_the_whole_center(self):
        # the seven affine planes of AG(3,2) on O through one point meet
        # pairwise in 2 but cover all 8 elements of O, not 7
        O = canonical_center()
        X = fano_planes_on(ElementSet(FULL15.bits & ~O.bits, 15))[0]
        affine = [
            ElementSet.of(quad, 15)
            for quad in combinations(O.elements(), 4)
            if 8 in quad and (quad[0] - 8) ^ (quad[1] - 8) ^ (quad[2] - 8) ^ (quad[3] - 8) == 0
        ]
        assert len(affine) == 7
        message = r"^Y must cover 7 elements of \{8,9,10,11,12,13,14,15\}$"
        with pytest.raises(InvariantError, match=message):
            product_clique(O, X.points, affine, dict(zip(X.points, affine)))

    def test_rejects_x_not_in_complement(self):
        rng = random.Random(5)
        O, Z, X, Y, delta = random_parameters(rng)
        with pytest.raises(InvariantError):
            product_clique(O, Y, X, {y: x for x, y in delta.mapping().items()})



class TestTrustedProduct:
    """Plane halves with a FanoBijection take the trusted route of product_clique.

    The point-sequence route with a mapping checks every point and pair, so
    it is the reference the trusted route must match bit for bit.
    """

    @pytest.fixture(scope="class")
    def params(self):
        return random_parameters(random.Random(16))

    def test_matches_checked_route_on_every_index(self, g15):
        rng = random.Random(17)
        seen = set()
        for trial in range(40):
            O, Z, X, Y, delta = random_parameters(rng)
            for d in (delta, representative_of_index(X, Y, INDEX_VALUES[trial % 4])):
                seen.add(bijection_index(d))
                trusted = product_clique(O, X, Y, d)
                checked = product_clique(O, X.points, Y.points, d.mapping())
                assert trusted.bits == checked.bits
                assert Clique(g15, trusted.bits) == trusted
        assert seen == set(INDEX_VALUES)

    def test_rejects_x_meeting_the_center(self, params):
        O, Z, X, Y, delta = params
        with pytest.raises(InvariantError, match="X support"):
            product_clique(O, Y, X, FanoBijection(Y, X, delta.images))

    def test_rejects_y_leaving_the_center(self, params):
        O, Z, X, Y, delta = params
        other = fano_planes_on(X.support)[0]
        with pytest.raises(InvariantError, match="Y support"):
            product_clique(O, X, other, FanoBijection(X, other, delta.images))

    def test_rejects_a_bijection_between_other_planes(self, params):
        O, Z, X, Y, delta = params
        other_x = next(f for f in fano_planes_on(X.support) if f != X)
        other_y = next(f for f in fano_planes_on(Y.support) if f != Y)
        for d in (FanoBijection(other_x, Y, delta.images), FanoBijection(X, other_y, delta.images)):
            with pytest.raises(InvariantError, match="other planes"):
                product_clique(O, X, Y, d)

    def test_rejects_planes_on_another_ground(self, params):
        O, Z, X, Y, delta = params
        X7 = fano_planes_on(ElementSet.full(7))[0]
        with pytest.raises(InvariantError, match=r"k = 4 half on \[15\]"):
            product_clique(O, X7, Y, FanoBijection(X7, Y, delta.images))

    @pytest.mark.parametrize("k", [3, 5])
    def test_rejects_planes_in_another_dimension(self, k):
        g = geometry_for_dimension(k)
        n, m = g.params.n, g.params.m
        O = ElementSet((1 << 2 * m) - 1, n)
        X = fano_planes_on(ElementSet(0x7F << n - 7, n))[0]
        with pytest.raises(InvariantError, match=rf"k = 4 half on \[{n}\]"):
            product_clique(O, X, X, FanoBijection(X, X, tuple(range(7))), g)

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

    def test_rejects_a_clique_that_is_not_maximal(self, fixture_designs, g15):
        c = Clique.from_points(g15, fixture_designs["c1"].blocks)
        O = center_points(c)[0]
        drop = next(b for b in c.bits if b != O.bits)
        short = Clique(g15, tuple(b for b in c.bits if b != drop))
        with pytest.raises(InvariantError, match="^clique has 14 points, expected 15$"):
            decompose(short, O)

    def test_rejects_a_center_outside_the_clique(self, fixture_designs, g15):
        c = Clique.from_points(g15, fixture_designs["c1"].blocks)
        outside = next(p for p in g15.points if p.bits not in c.bits)
        with pytest.raises(InvariantError, match=rf"^{re.escape(str(outside))} is not a point"):
            decompose(c, outside)

    def test_rejects_a_center_on_another_ground(self, fixture_designs, g15):
        c = Clique.from_points(g15, fixture_designs["c1"].blocks)
        O = center_points(c)[0]
        with pytest.raises(InvariantError, match="center lies on ground 31"):
            decompose(c, ElementSet(O.bits, 31))

    def test_rejects_a_z_on_another_ground(self, fixture_designs, g15):
        c = Clique.from_points(g15, fixture_designs["c1"].blocks)
        O = center_points(c)[0]
        with pytest.raises(InvariantError, match="Z lies on ground 31"):
            decompose(c, O, ElementSet(default_z(O).bits, 31))


class TestBitmaskIndex:
    """CenteredDecomposition.bijection_index against the FanoPlane route."""

    def test_every_center_and_z_of_the_fixtures(self, fixture_designs, g15):
        for name, tag in FIXTURE_TAGS.items():
            c = Clique.from_points(g15, fixture_designs[name].blocks)
            centers = center_points(c)
            assert bool(centers) is (tag is not CliqueTag.NON_CENTERED)
            for O in centers:
                for drop in O.elements():
                    dec = decompose(c, O, ElementSet(O.bits & ~(1 << drop - 1), 15))
                    index = dec.bijection_index()
                    assert index == bijection_index(dec.fano_bijection())
                    assert index == classify_clique(c).index

    def test_every_product_of_one_census_pair(self, g15):
        rng = random.Random(11)
        O = canonical_center()
        X = rng.choice(fano_planes_on(ElementSet(FULL15.bits & ~O.bits, 15)))
        Y = rng.choice(fano_planes_on(default_z(O)))
        seen = set()
        for images in permutations(range(7)):
            delta = FanoBijection(X, Y, images)
            dec = decompose(product_clique(O, X, Y, delta, g15), O)
            index = dec.bijection_index()
            assert index == bijection_index(dec.fano_bijection()) == bijection_index(delta)
            seen.add(index)
        assert seen == {0, 1, 3, 7}

    @pytest.mark.parametrize("half", ["xs", "ys"])
    def test_a_half_that_is_not_closed(self, half):
        O = canonical_center()
        X = fano_planes_on(ElementSet(FULL15.bits & ~O.bits, 15))[0]
        Y = fano_planes_on(default_z(O))[0]
        dec = CenteredDecomposition(
            O, default_z(O), tuple(p.bits for p in X.points), tuple(p.bits for p in Y.points)
        )
        assert dec.bijection_index() == bijection_index(dec.fano_bijection())
        bits = list(getattr(dec, half))
        support = 0
        for b in bits:
            support |= b
        # another 4-subset of the plane's support; six points of a Fano
        # plane span it, so no such swap leaves it closed
        bits[0] = next(
            b for b in range(1 << 15)
            if b.bit_count() == 4 and not b & ~support and b not in bits
        )
        repeated = [bits[1], *bits[1:]]
        for swapped in (bits, repeated):
            broken = CenteredDecomposition(
                O, default_z(O), **{"xs": dec.xs, "ys": dec.ys, half: tuple(swapped)}
            )
            with pytest.raises(InternalCheckError, match="not a closed Fano plane"):
                broken.bijection_index()

    def test_needs_seven_point_halves(self):
        O = ElementSet.of(range(1, 17), 31)
        Y = [ElementSet(b.bits, 31) for b in hyperplane_complement_blocks(4)]
        X = [ElementSet(y.bits << 16, 31) for y in Y]
        dec = decompose(product_clique(O, X, Y, dict(zip(X, Y))), O)
        with pytest.raises(InvariantError, match="7 points, got 15"):
            dec.bijection_index()


def pair_count_index(xs, ys) -> int:
    """Oracle: the kept lines counted over the 21 pairs of points, each kept
    line once at each of its three pairs; InternalCheckError unless both
    halves are 7 distinct points holding the sum of every pair."""
    y_of, y_set = dict(zip(xs, ys)), set(ys)
    if len(y_of) != 7 or len(y_set) != 7:
        raise InternalCheckError("a half is not a closed Fano plane: it repeats a point")
    kept = 0
    for (x1, y1), (x2, y2) in combinations(zip(xs, ys), 2):
        y3 = y_of.get(x1 ^ x2)
        if y3 is None or y1 ^ y2 not in y_set:
            raise InternalCheckError("a half is not a closed Fano plane")
        kept += y3 == y1 ^ y2
    return kept // 3


def outcome(index, xs, ys):
    """The index, or "not closed" where the index raises InternalCheckError."""
    try:
        return index(xs, ys)
    except InternalCheckError:
        return "not closed"


def every_split(c):
    """The split of c at each center O and each 7-subset Z of O."""
    for O in center_points(c):
        for drop in O.elements():
            yield decompose(c, O, ElementSet(O.bits & ~(1 << drop - 1), 15))


def census_pair():
    rng = random.Random(11)
    O = canonical_center()
    X = rng.choice(fano_planes_on(ElementSet(FULL15.bits & ~O.bits, 15)))
    Y = rng.choice(fano_planes_on(default_z(O)))
    return X, Y


class TestPairingIndex:
    """fano.pairing_index against the 21-pair count (pair_count_index)."""

    def test_every_center_and_z_of_the_fixtures(self, fixture_designs, g15):
        seen = set()
        for name in FIXTURE_TAGS:
            c = Clique.from_points(g15, fixture_designs[name].blocks)
            for dec in every_split(c):
                index = pairing_index(dec.xs, dec.ys)
                assert index == pair_count_index(dec.xs, dec.ys) == dec.bijection_index()
                assert pairing_index(dec.xs[::-1], dec.ys[::-1]) == index
                seen.add(index)
        assert seen == set(INDEX_VALUES)

    def test_every_bijection_of_one_census_pair(self):
        X, Y = census_pair()
        counts = Counter()
        for images in permutations(range(7)):
            ys = [Y.bits[j] for j in images]
            index = pairing_index(X.bits, ys)
            assert index == pair_count_index(X.bits, ys)
            assert index == bijection_index(FanoBijection(X, Y, images))
            counts[index] += 1
        assert counts == {7: 168, 3: 1176, 1: 2352, 0: 1344}

    @settings(max_examples=30, deadline=None)
    @given(
        name=st.sampled_from(["c1", "c2", "c3", "c4"]),
        images=st.permutations(range(1, 16)),
        order=st.permutations(range(7)),
    )
    def test_relabeled_fixtures(self, fixture_designs, g15, name, images, order):
        p = Permutation(tuple(images))
        c = Clique.from_points(g15, [apply(p, b) for b in fixture_designs[name].blocks])
        for dec in every_split(c):
            xs, ys = [dec.xs[i] for i in order], [dec.ys[i] for i in order]
            index = constructions.INDEX_BY_TAG[FIXTURE_TAGS[name]]
            assert pairing_index(xs, ys) == pair_count_index(xs, ys) == index

    def test_the_line_sums_alone_pass_a_repeated_point(self):
        assert _closed([0, 3, 3, 5, 5, 6, 6])

    @pytest.mark.parametrize("half", [0, 1])
    def test_broken_halves(self, half):
        X, Y = census_pair()
        plane = list((X, Y)[half].bits)
        support = 0
        for b in plane:
            support |= b
        # another 4-subset of the support: six points of a plane span it, so
        # no such swap leaves the half closed
        other = next(
            b for b in range(1 << 15)
            if b.bit_count() == 4 and not b & ~support and b not in plane
        )
        for bits in (
            [0, 3, 3, 5, 5, 6, 6],
            [plane[1], *plane[1:]],
            [0, *plane[1:]],
            [*plane[:6], 0],
            [other, *plane[1:]],
        ):
            halves = [list(X.bits), list(Y.bits)]
            halves[half] = bits
            assert outcome(pairing_index, *halves) == "not closed"
            assert outcome(pair_count_index, *halves) == "not closed"

    def test_six_point_halves(self):
        X, Y = census_pair()
        xs, ys = X.bits[:6], Y.bits[:6]
        assert outcome(pairing_index, xs, ys) == outcome(pair_count_index, xs, ys) == "not closed"
        with pytest.raises(ValueError):
            pairing_index(X.bits, ys)


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

    @pytest.mark.parametrize("label", [-8, 8])
    def test_signed_labels_outside_the_range_are_refused(self, label):
        with pytest.raises(InvariantError, match=f"^signed label {label} outside -7..7$"):
            signed_set([0, label])

    @pytest.mark.parametrize(
        "index, found", [(7, 15), (3, 3), (0, 0)], ids=["C1", "C2", "C4"]
    )
    def test_split_refuses_a_clique_without_one_plane(self, g15, index, found):
        c = Clique.from_points(g15, canonical_centered_blocks(index))
        message = f"^expected exactly one plane inside the clique, found {found}$"
        with pytest.raises(InvariantError, match=message):
            split_non_centered(c)

    def test_split_refuses_a_rest_that_spans_less_than_a_maximal_subspace(self, g15):
        # the plane and one further point: that point spans only itself
        c = non_centered_clique()
        plane = {p.bits for p in split_non_centered(c).plane}
        kept = sorted(plane | {next(b for b in c.bits if b not in plane)})
        with pytest.raises(InvariantError, match="^remaining points do not span a maximal"):
            split_non_centered(Clique(g15, tuple(kept)))

    def test_split_refuses_a_centered_clique_with_one_plane(self, g15):
        # C3's one plane holds its center, and the other 8 points span a
        # subspace that does not meet the clique in them alone
        c = Clique.from_points(g15, canonical_centered_blocks(1))
        with pytest.raises(InvariantError, match="^subspace does not meet the clique"):
            split_non_centered(c)

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


class TestClassifySplit:
    def test_classify_splits_without_decompose(self, monkeypatch, fixture_designs, g15):
        # _structure proves the center, so classify_clique skips decompose's checks
        def refuse(*args, **kwargs):
            raise AssertionError("decompose was called")

        monkeypatch.setattr(constructions, "decompose", refuse)
        rng = random.Random(31)
        for name, tag in FIXTURE_TAGS.items():
            c = Clique.from_points(g15, fixture_designs[name].blocks)
            assert classify_clique(c).tag is tag
        for _ in range(10):
            O, _, X, Y, delta = random_parameters(rng)
            assert classify_clique(product_clique(O, X, Y, delta)).index == bijection_index(delta)
