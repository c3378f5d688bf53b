import random
from collections import Counter
from itertools import combinations, permutations

import pytest

from simplex_designs.constructions import hyperplane_complement_blocks
from simplex_designs.errors import InvariantError
from simplex_designs.fano import (
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
from simplex_designs.subsets import ElementSet

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


def xor_lines(f):
    """Oracle: the point-index triples of f whose bitmasks xor to zero, in order."""
    bits = [p.bits for p in f.points]
    return tuple(
        frozenset(t) for t in combinations(range(7), 3)
        if bits[t[0]] ^ bits[t[1]] ^ bits[t[2]] == 0
    )


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


class TestAutomorphisms:
    def test_count_168(self, planes):
        assert len(automorphisms(planes[0])) == 168

    def test_all_preserve_lines(self, planes):
        f = planes[0]
        lines = set(f.lines())
        for g in automorphisms(f):
            assert {frozenset(g[i] for i in line) for line in lines} == lines


class TestIndex:
    def test_identity_has_index_seven(self, planes):
        f = planes[0]
        d = FanoBijection(f, f, tuple(range(7)))
        assert bijection_index(d) == 7

    def test_representatives(self, pair):
        f1, f2 = pair
        for idx in (0, 1, 3, 7):
            assert bijection_index(representative_of_index(f1, f2, idx)) == idx

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

    def test_mismatched_planes_rejected(self, planes):
        d1 = FanoBijection(planes[0], planes[1], tuple(range(7)))
        d2 = FanoBijection(planes[0], planes[2], tuple(range(7)))
        with pytest.raises(InvariantError):
            are_equivalent(d1, d2)


class TestBijectionType:
    def test_mapping_round_trip(self, pair):
        f1, f2 = pair
        d = representative_of_index(f1, f2, 7)
        rebuilt = FanoBijection.from_mapping(f1, f2, d.mapping())
        assert rebuilt == d

    def test_invalid_images(self, pair):
        with pytest.raises(InvariantError):
            FanoBijection(*pair, (0, 0, 1, 2, 3, 4, 5))
