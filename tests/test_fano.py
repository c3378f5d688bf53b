import random
import re
from collections import Counter
from itertools import combinations, permutations

import pytest

from simplex_designs import designs, fano, search
from simplex_designs.constructions import hyperplane_complement_blocks
from simplex_designs.designs import Design, automorphism_group
from simplex_designs.errors import InternalCheckError, InvariantError
from simplex_designs.fano import (
    INDEX_VALUES,
    FanoBijection,
    FanoPlane,
    are_equivalent,
    automorphisms,
    bijection_index,
    canonical_labeling,
    equivalence_classes,
    fano_planes_on,
    index_spectrum,
    is_simplex,
    representative_of_index,
)
from simplex_designs.geometry import is_singular_subspace
from simplex_designs.subsets import ElementSet, compose

# spectrum of bijection indices over all 7! maps between two planes,
# frozen from the exhaustive scan
SPECTRUM = {0: 1344, 1: 2352, 3: 1176, 7: 168}


def lifted_plane_images(support):
    """Oracle: the planes on a 7-set as the images of one plane under all of S7.

    The plane is the k = 3 hyperplane-complement design lifted onto the
    support; each plane is its ascending tuple of point bitmasks.
    """
    elements = support.elements()
    base = [
        [elements[e - 1] for e in block.elements()]
        for block in hyperplane_complement_blocks(3)
    ]
    images = set()
    for perm in permutations(elements):
        relabel = dict(zip(elements, perm))
        images.add(
            tuple(sorted(sum(1 << (relabel[e] - 1) for e in block) for block in base))
        )
    return sorted(images)


OTHER_SUPPORT = ElementSet.of([2, 3, 5, 7, 11, 13, 14], 15)


def line_keeping_permutations(f):
    """Oracle: the permutations of range(7) that map the plane's line set onto itself."""
    lines = set(f.lines())
    return tuple(
        perm for perm in permutations(range(7))
        if all(frozenset(perm[i] for i in line) in lines for line in lines)
    )


def xor_lines(f):
    """Oracle: the point-index triples of f whose bitmasks xor to zero, in order."""
    bits = [p.bits for p in f.points]
    return tuple(
        frozenset(t) for t in combinations(range(7), 3)
        if bits[t[0]] ^ bits[t[1]] ^ bits[t[2]] == 0
    )


def searched_group(f):
    """Oracle: the plane group as the automorphism_group search on its simplices.

    The simplices, the complements of the lines found by xor_lines, form a
    symmetric (7, 4, 2) design on positions 1..7, and a permutation keeps the
    lines exactly when it keeps their complements.
    """
    simplices = Design.from_blocks(
        ElementSet.of([i + 1 for i in range(7) if i not in line], 7) for line in xor_lines(f)
    )
    group = automorphism_group(simplices)
    assert group.order == 168
    return tuple(sorted(tuple(i - 1 for i in g.images) for g in group.elements))


def product_class(auts, images):
    """Oracle: the product set {g2 . images . g1} over g1, g2 in auts.

    auts is the group of both planes, so the set is closed under it on both
    sides, and it is the class of images.
    """
    return frozenset(
        compose(pre, g2)
        for pre in (compose(g1, images) for g1 in auts)
        for g2 in auts
    )


def product_classes(auts):
    """Oracle: the 5040 permutations as product sets, each from its least remaining member."""
    remaining = set(permutations(range(7)))
    classes = []
    while remaining:
        rep = min(remaining)
        members = product_class(auts, rep)
        remaining -= members
        classes.append((rep, members))
    return classes


@pytest.fixture
def fresh_table():
    """Forget the class table before and after a test that builds it under a patch."""
    fano._class_table.cache_clear()
    yield
    fano._class_table.cache_clear()


def pair_check(points):
    """Oracle: the plane check that tries all 21 pairs in lexicographic order.

    Returns the InvariantError message FanoPlane(points) should raise, or
    None when the points form a plane.
    """
    pts = tuple(points)
    bits = tuple(p.bits for p in pts)
    if len(bits) != 7 or list(bits) != sorted(set(bits)):
        return "a Fano plane needs 7 distinct points in ascending bitmask order"
    support, n = 0, pts[0].ground_size
    for p in pts:
        if p.ground_size != n or p.bits.bit_count() != 4:
            return f"plane points must be 4-element subsets of one ground [{n}]"
        support |= p.bits
    if support.bit_count() != 7:
        return "plane points must cover a 7-element support"
    for i, j in combinations(range(7), 2):
        if bits[i] ^ bits[j] not in bits:
            if (bits[i] & bits[j]).bit_count() != 2:
                return f"{pts[i]} and {pts[j]} are not collinear in the plane"
            return "plane is not closed under symmetric difference"
    return None


def construction_outcome(points):
    """The InvariantError message of FanoPlane(points), or None when it builds."""
    try:
        FanoPlane(tuple(points))
    except InvariantError as error:
        return str(error)
    return None


def failure_kind(message):
    """Which check a pair_check message comes from; None for a plane."""
    kinds = ("not collinear", "not closed", "7-element support")
    return message and next((kind for kind in kinds if kind in message), message)


def derived_labeling(f):
    """Oracle: the canonical labels derived from the plane's lines.

    1 and 2 are the first two points, 12 the third point on their line, 3
    the least point off that line, 13 and 23 the third points on the lines
    through 1, 3 and 2, 3, and 123 the point left over.
    """
    bits = f.bits
    p1, p2 = 0, 1
    p12 = f.index[bits[p1] ^ bits[p2]]
    p3 = min(i for i in range(7) if i not in (p1, p2, p12))
    p13 = f.index[bits[p1] ^ bits[p3]]
    p23 = f.index[bits[p2] ^ bits[p3]]
    p123 = next(i for i in range(7) if i not in (p1, p2, p3, p12, p13, p23))
    return {"1": p1, "2": p2, "3": p3, "12": p12, "13": p13, "23": p23, "123": p123}


@pytest.fixture(scope="module")
def planes():
    return fano_planes_on(ElementSet.full(7))


@pytest.fixture(scope="module")
def pair(planes):
    return planes[0], planes[1]


class TestPlaneEnumeration:
    def test_thirty_planes_on_seven(self, planes):
        assert len(planes) == 30

    def test_each_plane_is_singular(self, planes, g7):
        for f in planes:
            assert is_singular_subspace(g7, f.points)
            assert len(f.lines()) == 7

    def test_count_matches_orbit_size(self, planes):
        # S_7 acts transitively; the stabilizer of one plane has order 168
        assert len(planes) == 5040 // len(automorphisms(planes[0]))

    def test_relabeling_carries_planes_across_grounds(self, planes):
        other_ground = ElementSet.of([2, 3, 5, 7, 11, 13, 14], 15)
        transferred = fano_planes_on(other_ground)
        assert len(transferred) == 30
        table = dict(zip(range(1, 8), other_ground.elements()))
        images = {
            frozenset(
                frozenset(table[e] for e in p.elements()) for p in f.points
            )
            for f in planes
        }
        found = {
            frozenset(frozenset(p.elements()) for p in f.points)
            for f in transferred
        }
        assert images == found

    @pytest.mark.parametrize(
        "support",
        [ElementSet.full(7), OTHER_SUPPORT],
        ids=str,
    )
    def test_matches_images_of_one_plane(self, support):
        oracle = lifted_plane_images(support)
        assert len(oracle) == 30
        found = [tuple(p.bits for p in f.points) for f in fano_planes_on(support)]
        assert found == oracle

    @pytest.mark.parametrize("support", [ElementSet.full(7), OTHER_SUPPORT], ids=str)
    def test_stored_lines_and_index_match_xor_closure(self, support):
        for f in fano_planes_on(support):
            assert f.lines() == xor_lines(f)
            assert f.index == {p.bits: i for i, p in enumerate(f.points)}
            assert f.bits == tuple(p.bits for p in f.points)
            assert f.support == support

    def test_lines_kept_matches_a_count_of_line_masks(self):
        # oracle: a line's image is a line when its position mask is one of the 7 line masks
        plane = fano_planes_on(ElementSet.full(7))[0]
        masks = {sum(1 << i for i in line) for line in xor_lines(plane)}
        for perm in permutations(range(7)):
            kept = sum(sum(1 << perm[i] for i in line) in masks for line in fano._LINES)
            assert fano._lines_kept(perm) == kept

    @pytest.mark.parametrize("n", [15, 31, 63])
    def test_lines_match_xor_closure_on_wider_grounds(self, n):
        rng = random.Random(n)
        for _ in range(3):
            support = ElementSet.of(sorted(rng.sample(range(1, n + 1), 7)), n)
            planes = fano_planes_on(support)
            assert len(planes) == 30
            for f in planes:
                assert f.lines() == xor_lines(f)

    def test_closure_check_agrees_with_the_pair_check_on_one_point_replacements(self, planes):
        quads = [ElementSet.of(q, 7) for q in combinations(range(1, 8), 4)]
        outcomes = Counter()
        for f in planes:
            inputs = [f.points] + [
                tuple(sorted(f.points[:i] + (q,) + f.points[i + 1:], key=lambda p: p.bits))
                for i in range(7)
                for q in quads
                if q not in f.points
            ]
            for points in inputs:
                expected = pair_check(points)
                assert construction_outcome(points) == expected
                outcomes[failure_kind(expected)] += 1
        # every plane builds; each replacement fails, as not closed or not collinear
        assert outcomes[None] == 30
        assert outcomes["not collinear"] > 0 and outcomes["not closed"] > 0
        assert sum(outcomes.values()) == 30 * (1 + 7 * 28)

    def test_closure_check_agrees_with_the_pair_check_on_three_lines_through_a_point(self):
        # a point b with three of the pairs {x, x ^ b} of 4-subsets of [7]
        # holds three lines through b, so only the other lines can fail
        quads = [ElementSet.of(q, 7).bits for q in combinations(range(1, 8), 4)]
        kinds = Counter()
        for b in quads:
            joined = [x for x in quads if (x & b).bit_count() == 2]
            pairs = sorted({(min(x, x ^ b), max(x, x ^ b)) for x in joined})
            assert len(pairs) == 9
            for chosen in combinations(pairs, 3):
                points = [ElementSet(bits, 7) for bits in sorted({b}.union(*chosen))]
                expected = pair_check(points)
                assert construction_outcome(points) == expected
                kinds[failure_kind(expected)] += 1
        # each plane arises once per point
        assert kinds[None] == 30 * 7
        assert kinds["not collinear"] > 0 and kinds["not closed"] > 0

    @pytest.mark.parametrize("n", [7, 8])
    def test_closure_check_agrees_with_the_pair_check_on_random_sets(self, n):
        rng = random.Random(40 + n)
        quads = [ElementSet.of(q, n) for q in combinations(range(1, n + 1), 4)]
        kinds = Counter()
        for _ in range(3000):
            points = sorted(rng.sample(quads, 7), key=lambda p: p.bits)
            expected = pair_check(points)
            assert construction_outcome(points) == expected
            kinds[failure_kind(expected)] += 1
        assert kinds["not collinear"] > 0 and kinds["not closed"] > 0
        assert kinds["7-element support"] > 0

    def test_from_points_ignores_point_order(self, planes):
        rng = random.Random(5)
        for f in planes:
            shuffled = list(f.points)
            rng.shuffle(shuffled)
            g = FanoPlane.from_points(shuffled)
            assert g == f
            assert hash(g) == hash(f)
            assert g.lines() == f.lines()
            assert g.index == f.index

    def test_position_is_the_index_of_each_point(self, planes):
        for f in planes[:5]:
            assert [f.position(p) for p in f.points] == list(range(7))

    @pytest.mark.parametrize("p", [255, None, (1, 2, 4, 8)], ids=repr)
    def test_position_of_a_non_set_is_an_invariant_error(self, planes, p):
        f = planes[0]
        with pytest.raises(InvariantError, match=" is not a point of the plane$"):
            f.position(p)
        with pytest.raises(InvariantError, match=" is not a point of the plane$"):
            is_simplex(f, [p, *f.points[1:4]])

    def test_wrong_ground_size(self):
        with pytest.raises(InvariantError):
            fano_planes_on(ElementSet.full(6))

    def test_plane_validation(self, planes):
        good = planes[0]
        with pytest.raises(InvariantError):
            FanoPlane.from_points(good.points[:6])
        broken = list(good.points[:6]) + [ElementSet.of([1, 2, 3, 5], 7)]
        with pytest.raises(InvariantError):
            FanoPlane.from_points(broken)

    def test_direct_construction_validates(self, planes):
        good = planes[0]
        assert FanoPlane(good.points) == good
        assert FanoPlane(good.points).lines() == good.lines()
        outside = ElementSet.of([1, 2, 3, 7], 7)
        assert outside not in good.points
        bad = [
            (good.points[:3], "7 distinct"),
            (good.points[:6] + good.points[5:6], "7 distinct"),
            (good.points[::-1], "ascending"),
            (tuple(sorted(good.points[1:] + (outside,), key=lambda p: p.bits)), "not closed"),
        ]
        for points, message in bad:
            with pytest.raises(InvariantError, match=message):
                FanoPlane(points)
        with pytest.raises(TypeError):
            FanoPlane(good.points[:3], {}, ())

    def test_points_on_two_grounds_rejected(self, planes):
        points = [ElementSet(p.bits, 15) for p in planes[0].points]
        points[3] = planes[0].points[3]
        with pytest.raises(InvariantError, match="of one ground"):
            FanoPlane.from_points(points)

    @pytest.mark.parametrize(
        "extra,message", [((1, 2, 3, 5), "not collinear"), ((1, 2, 3, 7), "not closed")]
    )
    def test_validation_names_the_failure(self, planes, extra, message):
        broken = list(planes[0].points[1:]) + [ElementSet.of(extra, 7)]
        with pytest.raises(InvariantError, match=message):
            FanoPlane.from_points(broken)

    def test_complements_are_dual_lines(self, planes):
        f = planes[0]
        ground = f.support
        comps = [ground ^ p for p in f.points]
        assert all(len(c) == 3 for c in comps)
        for a, b in combinations(comps, 2):
            assert (a.bits & b.bits).bit_count() == 1


class TestCanonicalLabeling:
    @pytest.mark.parametrize("support", [ElementSet.full(7), OTHER_SUPPORT], ids=str)
    def test_matches_the_derivation_on_every_plane(self, support):
        planes = fano_planes_on(support)
        assert len(planes) == 30
        for f in planes:
            assert canonical_labeling(f) == derived_labeling(f)

    def test_returns_a_fresh_table(self, planes):
        canonical_labeling(planes[0])["1"] = 6
        assert canonical_labeling(planes[0])["1"] == 0


class TestSimplex:
    def test_canonical_simplex(self, planes):
        f = planes[0]
        lab = canonical_labeling(f)
        pts = [f.points[lab[name]] for name in ("1", "2", "3", "123")]
        assert is_simplex(f, pts)

    def test_line_plus_point_is_not(self, planes):
        f = planes[0]
        line = [f.points[i] for i in f.lines()[0]]
        extra = next(p for p in f.points if p not in line)
        assert not is_simplex(f, line + [extra])

    def test_equivalence_with_complement_definition(self, planes):
        f = planes[0]
        line_sets = {frozenset(i for i in line) for line in f.lines()}
        for quad in combinations(range(7), 4):
            pts = [f.points[i] for i in quad]
            comp = frozenset(range(7)) - set(quad)
            assert is_simplex(f, pts) == (comp in line_sets)

    def test_rejects_points_outside_the_plane(self, planes):
        f, other = planes[0], planes[1]
        stranger = next(p for p in other.points if p not in f.points)
        for outside in (stranger, ElementSet(f.points[0].bits, 15)):
            with pytest.raises(InvariantError, match="not a point of the plane"):
                is_simplex(f, [outside, *f.points[1:4]])


class TestAutomorphisms:
    def test_count_168(self, planes):
        assert len(automorphisms(planes[0])) == 168

    def test_group_of_another_order_aborts(self, planes, monkeypatch, fresh_table):
        # a filter that keeps the maps of index 3 or more keeps 168 + 1176 of them
        kept = fano._lines_kept
        monkeypatch.setattr(fano, "_lines_kept", lambda p: 7 if kept(p) >= 3 else kept(p))
        with pytest.raises(InternalCheckError, match="168 plane automorphisms, got 1344"):
            automorphisms(planes[0])

    def test_another_group_of_order_168_aborts(self, planes, monkeypatch, fresh_table):
        # the group conjugated by the transposition of positions 0 and 3 has
        # order 168 too, but the generators generate the plane group
        swap = (3, 1, 2, 0, 4, 5, 6)
        kept = fano._lines_kept
        monkeypatch.setattr(fano, "_lines_kept", lambda p: kept(compose(compose(swap, p), swap)))
        with pytest.raises(InternalCheckError, match="do not generate the plane group"):
            automorphisms(planes[0])
        d = FanoBijection(planes[0], planes[1], tuple(range(7)))
        for call in (lambda: equivalence_classes(*planes[:2]), lambda: are_equivalent(d, d)):
            with pytest.raises(InternalCheckError, match="do not generate the plane group"):
                call()

    def test_table_is_built_once_and_immutable(self, planes):
        table = fano._class_table()
        assert fano._class_table() is table
        assert automorphisms(planes[0]) is table.group is automorphisms(planes[7])
        assert isinstance(table.group, tuple) and isinstance(table.classes, tuple)
        assert all(isinstance(members, frozenset) for _, members in table.classes)
        with pytest.raises(TypeError):
            table.least[tuple(range(7))] = (0, 1, 2, 3, 4, 6, 5)
        assert len(table.least) == 5040

    def test_all_preserve_lines(self, planes):
        f = planes[0]
        lines = set(f.lines())
        for g in automorphisms(f):
            assert {frozenset(g[i] for i in line) for line in lines} == lines

    @pytest.mark.parametrize("support", [ElementSet.full(7), OTHER_SUPPORT], ids=str)
    def test_equal_the_line_keeping_permutations(self, support):
        planes = fano_planes_on(support)
        for f in (planes[0], planes[-1]):
            assert automorphisms(f) == line_keeping_permutations(f)


@pytest.mark.parametrize("support", [ElementSet.full(7), OTHER_SUPPORT], ids=str)
class TestAgainstTheSearchedGroup:
    """The class table against the design search and the product sets over its group."""

    def test_group_equals_the_searched_group(self, support):
        planes = fano_planes_on(support)
        for f in (planes[0], planes[12], planes[-1]):
            assert automorphisms(f) == searched_group(f)

    def test_classes_equal_the_product_sets(self, support):
        planes = fano_planes_on(support)
        f1, f2 = planes[4], planes[-3]
        oracle = product_classes(searched_group(f1))
        assert [len(members) for _, members in oracle] == [168, 1176, 2352, 1344]
        found = equivalence_classes(f1, f2)
        assert [(rep.images, members) for rep, members in found] == oracle
        assert all(rep.source == f1 and rep.target == f2 for rep, _ in found)
        # the least members, and their indices, as the paper reads the classes
        assert [rep for rep, _ in oracle] == [
            (0, 1, 2, 3, 4, 5, 6), (0, 1, 2, 3, 4, 6, 5), (0, 1, 2, 3, 5, 6, 4), (0, 1, 3, 2, 5, 6, 4)
        ]
        assert [bijection_index(rep) for rep, _ in found] == [7, 3, 1, 0]

    def test_equivalence_equals_product_set_membership(self, support):
        planes = fano_planes_on(support)
        f1, f2 = planes[7], planes[21]
        auts = searched_group(f1)
        rng = random.Random(len(support.elements()) + support.ground_size)
        for _ in range(12):
            d = tuple(rng.sample(range(7), 7))
            e = tuple(rng.sample(range(7), 7))
            members = product_class(auts, d)
            for other in (e, compose(compose(rng.choice(auts), d), rng.choice(auts))):
                found = are_equivalent(FanoBijection(f1, f2, d), FanoBijection(f1, f2, other))
                assert found == (other in members)


class TestIndex:
    def test_identity_has_index_seven(self, planes):
        f = planes[0]
        d = FanoBijection(f, f, tuple(range(7)))
        assert bijection_index(d) == 7

    def test_representatives(self, pair):
        f1, f2 = pair
        for idx in (0, 1, 3, 7):
            assert bijection_index(representative_of_index(f1, f2, idx)) == idx

    @pytest.mark.parametrize("i,j", [(0, 1), (5, 29)])
    def test_representatives_are_pinned(self, planes, i, j):
        # canonical labels sit at the same positions in every plane whose
        # points are sorted, so both pairs give the same images
        images = {
            0: (0, 1, 4, 3, 6, 2, 5),
            1: (0, 1, 4, 3, 5, 2, 6),
            3: (0, 1, 4, 3, 2, 5, 6),
            7: (0, 1, 2, 3, 4, 5, 6),
        }
        f1, f2 = planes[i], planes[j]
        assert {idx: representative_of_index(f1, f2, idx).images for idx in INDEX_VALUES} == images

    def test_representative_rejects_bad_index(self, pair):
        with pytest.raises(InvariantError):
            representative_of_index(*pair, 2)

    def test_spectrum_frozen(self, pair):
        assert index_spectrum(*pair) == SPECTRUM
        assert sum(SPECTRUM.values()) == 5040

    @pytest.mark.parametrize("i,j,other", [(0, 0, False), (0, 1, False), (5, 29, False), (11, 3, True)])
    def test_spectrum_is_histogram_of_bijection_index(self, planes, i, j, other):
        f1 = planes[i]
        f2 = fano_planes_on(OTHER_SUPPORT)[j] if other else planes[j]
        target = [p.bits for p in f2.points]
        histogram = Counter()
        for perm in permutations(range(7)):
            idx = bijection_index(FanoBijection(f1, f2, perm))
            # oracle: a line goes to a line when its image bitmasks xor to zero
            assert idx == sum(
                1 for a, b, c in xor_lines(f1)
                if target[perm[a]] ^ target[perm[b]] ^ target[perm[c]] == 0
            )
            histogram[idx] += 1
        assert index_spectrum(f1, f2) == histogram == SPECTRUM

    def test_index_is_class_invariant_random(self, pair):
        f1, f2 = pair
        auts1 = automorphisms(f1)
        auts2 = automorphisms(f2)
        rng = random.Random(23)
        for _ in range(1000):
            d = tuple(rng.sample(range(7), 7))
            g1 = rng.choice(auts1)
            g2 = rng.choice(auts2)
            composed = tuple(g2[d[g1[i]]] for i in range(7))
            assert bijection_index(
                FanoBijection(f1, f2, composed)
            ) == bijection_index(FanoBijection(f1, f2, d))

    def test_simplex_preserving_maps_have_odd_index(self, planes):
        f = planes[0]
        simplices = set(f.simplices())
        lines = set(f.lines())
        for perm in permutations(range(7)):
            sends_simplex = any(
                frozenset(perm[i] for i in s) in simplices for s in simplices
            )
            if sends_simplex:
                idx = sum(
                    1 for line in lines
                    if frozenset(perm[i] for i in line) in lines
                )
                assert idx in (1, 3, 7)


class TestEquivalence:
    def test_reflexive(self, pair):
        f1, f2 = pair
        d = representative_of_index(f1, f2, 3)
        assert are_equivalent(d, d)

    def test_distinct_indices_not_equivalent(self, pair):
        f1, f2 = pair
        d3 = representative_of_index(f1, f2, 3)
        d1 = representative_of_index(f1, f2, 1)
        assert not are_equivalent(d3, d1)

    def test_same_index_equivalent(self, pair):
        f1, f2 = pair
        d = representative_of_index(f1, f2, 1)
        lab = canonical_labeling(f1)
        # compose with the same 3-cycle again: still index 1, but a new map
        other = list(range(7))
        other[lab["12"]] = lab["13"]
        other[lab["13"]] = lab["23"]
        other[lab["23"]] = lab["12"]
        mapping = {f1.points[i]: d(f1.points[other[i]]) for i in range(7)}
        d_other = FanoBijection.from_mapping(f1, f2, mapping)
        assert bijection_index(d_other) == 1
        assert are_equivalent(d, d_other)

    def test_partition_into_four_classes(self, pair):
        classes = equivalence_classes(*pair)
        assert len(classes) == 4
        sizes = sorted(len(members) for _, members in classes)
        assert sizes == sorted(SPECTRUM.values())

    def test_classes_coincide_with_index_equality(self, pair):
        f1, f2 = pair
        classes = equivalence_classes(f1, f2)
        total = 0
        seen_indices = set()
        for rep, members in classes:
            idx = bijection_index(rep)
            assert idx not in seen_indices
            seen_indices.add(idx)
            assert len(members) == SPECTRUM[idx]
            total += len(members)
            sample = random.Random(idx).sample(sorted(members), 25)
            for images in sample:
                assert bijection_index(FanoBijection(f1, f2, images)) == idx
        assert total == 5040
        assert seen_indices == {0, 1, 3, 7}

    def test_representatives_are_the_least_bijection_of_each_index(self, pair):
        f1, f2 = pair
        least = {}
        for perm in permutations(range(7)):
            least.setdefault(bijection_index(FanoBijection(f1, f2, perm)), perm)
        assert {bijection_index(rep): rep.images for rep, _ in equivalence_classes(f1, f2)} == least

    def test_agrees_with_the_double_search_over_line_keeping_maps(self, planes):
        other = fano_planes_on(OTHER_SUPPORT)
        pairs = [(planes[0], planes[1]), (planes[5], planes[29]), (other[11], other[3])]
        groups = {f: line_keeping_permutations(f) for pair in pairs for f in pair}
        rng = random.Random(31)
        outcomes = Counter()
        for trial in range(100):
            f1, f2 = pairs[trial % len(pairs)]
            auts1, auts2 = groups[f1], groups[f2]
            d = tuple(rng.sample(range(7), 7))
            if trial % 2:
                g1, g2 = rng.choice(auts1), rng.choice(auts2)
                e = tuple(g2[d[g1[i]]] for i in range(7))
            else:
                e = tuple(rng.sample(range(7), 7))
            searched = any(
                tuple(g2[d[g1[i]]] for i in range(7)) == e for g1 in auts1 for g2 in auts2
            )
            assert are_equivalent(FanoBijection(f1, f2, d), FanoBijection(f1, f2, e)) == searched
            outcomes[searched] += 1
        assert outcomes[True] >= 50 and outcomes[False] > 0

    def test_index_disagreement_aborts(self, pair, monkeypatch):
        d3, d1 = (representative_of_index(*pair, idx) for idx in (3, 1))
        monkeypatch.setattr(fano, "bijection_index", lambda d: 0)
        with pytest.raises(InternalCheckError, match="index comparison disagree"):
            are_equivalent(d3, d1)

    def test_no_design_search(self, pair, planes, monkeypatch, fresh_table):
        # the group and the classes come from the lines alone, so no Fano
        # call reaches the design search, not even the first one
        def refuse(*args, **kwargs):
            raise AssertionError("the Fano layer ran a design search")

        for module, name in (
            (designs, "automorphism_group"),
            (designs, "find_isomorphism"),
            (search, "automorphism_search"),
            (search, "isomorphism_search"),
            (search, "Search"),
        ):
            monkeypatch.setattr(module, name, refuse)
        f1, f2 = pair
        assert len(automorphisms(f1)) == 168
        assert len(equivalence_classes(*pair)) == 4
        d3, d1 = (representative_of_index(*pair, idx) for idx in (3, 1))
        assert not are_equivalent(d3, d1)
        assert are_equivalent(d3, d3)
        assert len(equivalence_classes(planes[5], planes[9])) == 4
        assert index_spectrum(f1, f2) == SPECTRUM
        assert bijection_index(d3) == 3
        assert is_simplex(f1, f1.points[3:])
        assert canonical_labeling(f1) == derived_labeling(f1)
        assert len(fano_planes_on(OTHER_SUPPORT)) == 30
        assert fano.automorphisms(planes[0]) is fano.automorphisms(planes[7])

    def test_mismatched_planes_rejected(self, planes):
        d1 = FanoBijection(planes[0], planes[1], tuple(range(7)))
        d2 = FanoBijection(planes[0], planes[2], tuple(range(7)))
        with pytest.raises(InvariantError):
            are_equivalent(d1, d2)


class Position:
    """An integer position that is not an int, as operator.index reads it."""

    def __init__(self, i):
        self.i = i

    def __index__(self):
        return self.i


class TestBijectionType:
    def test_mapping_round_trip(self, pair):
        f1, f2 = pair
        d = representative_of_index(f1, f2, 7)
        rebuilt = FanoBijection.from_mapping(f1, f2, d.mapping())
        assert rebuilt == d

    def test_call_rejects_a_point_outside_the_source(self):
        X, Y = (fano_planes_on(ElementSet(bits, 15))[0] for bits in (0x7F, 0x7F00))
        d = FanoBijection(X, Y, tuple(range(7)))
        assert [d(x) for x in X.points] == list(Y.points)
        with pytest.raises(InvariantError, match="not a point of the plane"):
            d(Y.points[0])
        # the same bits on another ground are another set
        with pytest.raises(InvariantError, match="not a point of the plane"):
            d(ElementSet(X.points[0].bits, 7))

    def test_from_mapping_rejects_an_image_outside_the_target(self, planes):
        f1, f2, f3 = planes[:3]
        stray = dict(zip(f1.points, f3.points))
        with pytest.raises(InvariantError, match="not a point of the plane"):
            FanoBijection.from_mapping(f1, f2, stray)

    def test_from_mapping_names_a_missing_source_point(self, pair):
        f1, f2 = pair
        with pytest.raises(InvariantError, match=re.escape(f"no image for {f1.points[0]}")):
            FanoBijection.from_mapping(f1, f2, {})
        partial = dict(zip(f1.points[:-1], f2.points))
        with pytest.raises(InvariantError, match=re.escape(f"no image for {f1.points[-1]}")):
            FanoBijection.from_mapping(f1, f2, partial)

    def test_list_images_are_stored_as_a_tuple(self, planes):
        f = planes[0]
        listed = FanoBijection(f, f, list(range(7)))
        plain = FanoBijection(f, f, tuple(range(7)))
        assert type(listed.images) is tuple
        assert listed == plain
        assert hash(listed) == hash(plain)
        assert are_equivalent(plain, listed)

    def test_invalid_images(self, pair):
        with pytest.raises(InvariantError):
            FanoBijection(*pair, (0, 0, 1, 2, 3, 4, 5))

    @pytest.mark.parametrize(
        "images",
        [
            [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
            (0, 1, 2, 3, 4, 5, 6.0),
            ("0", "1", "2", "3", "4", "5", "6"),
            None,
        ],
        ids=["floats", "one-float", "strings", "none"],
    )
    def test_non_integer_images_are_refused(self, pair, images):
        with pytest.raises(InvariantError, match="permutation of 0..6"):
            FanoBijection(*pair, images)

    @pytest.mark.parametrize(
        "images",
        [(True, False, 2, 3, 4, 5, 6), [Position(i) for i in (1, 0, 2, 3, 4, 5, 6)]],
        ids=["bools", "index-objects"],
    )
    def test_integer_images_are_stored_as_ints(self, pair, images):
        # True and False are the ints 1 and 0; any object with __index__ is its int
        d = FanoBijection(*pair, images)
        assert d.images == (1, 0, 2, 3, 4, 5, 6)
        assert all(type(i) is int for i in d.images)
        assert d == FanoBijection(*pair, (1, 0, 2, 3, 4, 5, 6))
        assert bijection_index(d) == 3
        assert d(pair[0].points[0]) == pair[1].points[1]
