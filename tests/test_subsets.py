import random
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from simplex_designs.errors import GroundMismatchError, ParseError
from simplex_designs.subsets import (
    ElementSet,
    Permutation,
    apply,
    compose,
    invert,
    map_bits,
    parse_set,
    set_bits,
    subsets_of,
)

sets15 = st.builds(ElementSet, st.integers(0, 2**15 - 1), st.just(15))


class IndexOnly:
    """An integer that is not an int, as operator.index reads it."""

    def __init__(self, i):
        self.i = i

    def __index__(self):
        return self.i


def elem(elements, n=15):
    return ElementSet.of(elements, n)


class TestElementSet:
    def test_rejects_out_of_range_bits(self):
        with pytest.raises(ValueError):
            ElementSet(1 << 15, 15)
        with pytest.raises(ValueError):
            ElementSet.of([16], 15)
        with pytest.raises(ValueError):
            ElementSet(1, 64)

    def test_roundtrip_elements(self):
        s = elem([1, 3, 15])
        assert s.elements() == (1, 3, 15)
        assert len(s) == 3
        assert 3 in s and 2 not in s and 99 not in s

    def test_str_notation(self):
        assert str(elem([1, 3, 5])) == "{1,3,5}"
        assert str(ElementSet.empty(7)) == "{}"
        assert parse_set("{1,3,5}", 15) == elem([1, 3, 5])
        assert parse_set("4", 7) == elem([4], 7)
        assert parse_set("{}", 7) == ElementSet.empty(7)
        with pytest.raises(ValueError):
            parse_set("{1,x}", 15)

    @pytest.mark.parametrize("text", ["{1,x}", "a,b", "{16}", "0,3"])
    def test_parse_set_rejects_with_parse_error(self, text):
        with pytest.raises(ParseError):
            parse_set(text, 15)


class TestSymdiff:
    def test_figure_rows(self):
        # rows 1, 2, 3 of the reference singular-clique matrix
        row1 = elem([1, 3, 5, 7, 9, 11, 13, 15])
        row2 = elem([2, 3, 6, 7, 10, 11, 14, 15])
        row3 = elem([1, 2, 5, 6, 9, 10, 13, 14])
        assert row1 ^ row2 == row3
        assert len(row1 & row2) == 4

    def test_self_and_empty(self):
        a = elem([2, 5, 9])
        assert a ^ a == ElementSet.empty(15)
        assert a ^ ElementSet.empty(15) == a

    def test_intersection_trivia(self):
        a = elem([2, 5, 9])
        assert len(a & a) == len(a)
        assert len(elem([1, 2]) & elem([3, 4])) == 0

    def test_intersection_set(self):
        assert elem([2, 5, 9]) & elem([5, 9, 12]) == elem([5, 9])
        assert elem([1, 2]) & elem([3, 4]) == ElementSet.empty(15)
        with pytest.raises(GroundMismatchError, match="^ground sizes differ: 7 vs 15$"):
            elem([1], 7) & elem([1], 15)

    def test_ground_mismatch(self):
        with pytest.raises(GroundMismatchError):
            elem([1], 7) ^ elem([1], 15)
        with pytest.raises(GroundMismatchError):
            len(elem([1], 7) & elem([1], 15))

    def test_group_laws_exhaustive_on_quadruples_of_seven(self):
        quads = subsets_of(ElementSet.full(7), 4)
        for a, b in combinations(quads, 2):
            assert a ^ b == b ^ a
        for a in quads:
            assert a ^ a == ElementSet.empty(7)
            assert a ^ ElementSet.empty(7) == a
        for a in quads:
            for b in quads:
                for c in quads:
                    assert (a ^ b) ^ c == a ^ (b ^ c)

    @given(sets15, sets15)
    def test_cardinality_identity(self, a, b):
        assert len(a ^ b) == len(a) + len(b) - 2 * len(a & b)

    @given(sets15, sets15, sets15)
    def test_associative(self, a, b, c):
        assert (a ^ b) ^ c == a ^ (b ^ c)


class TestComplement:
    def test_inside_universe(self):
        u = ElementSet.full(15)
        a = elem([1, 2, 3, 4, 5, 6, 7, 8])
        assert u ^ a == elem([9, 10, 11, 12, 13, 14, 15])
        assert len(u ^ a) == 7

    def test_degenerate(self):
        u = elem([2, 4, 6])
        assert u ^ u == ElementSet.empty(15)
        assert u ^ ElementSet.empty(15) == u


class TestSubsetsOf:
    @pytest.mark.parametrize(
        "elements, n",
        [((), 7), ((3,), 7), ((1, 2, 3, 4, 5, 6, 7), 7), ((2, 5, 9, 11, 15), 15),
         (tuple(range(1, 16)), 15), ((1, 63), 63)],
        ids=["empty", "one", "full7", "scattered", "full15", "wide"],
    )
    def test_matches_the_sum_of_each_combination(self, elements, n):
        support = ElementSet.of(elements, n)
        for size in range(len(elements) + 1):
            expected = sorted(
                sum(1 << (e - 1) for e in combo)
                for combo in combinations(support.elements(), size)
            )
            assert subsets_of(support, size) == tuple(ElementSet(b, n) for b in expected)
        # size 0 gives the empty set alone; a size beyond the support gives nothing
        assert subsets_of(support, 0) == (ElementSet.empty(n),)
        assert subsets_of(support, len(elements) + 1) == ()


class TestPermutation:
    def test_bijection_required(self):
        with pytest.raises(ValueError):
            Permutation((1, 1, 3))

    def test_identity_and_transposition(self):
        p = Permutation.identity(15)
        a = elem([4, 9])
        assert apply(p, a) == a
        t = Permutation.from_cycles(15, [(1, 2)])
        assert apply(t, elem([1, 3])) == elem([2, 3])

    def test_composition_convention_left_to_right(self):
        p = Permutation.from_cycles(5, [(1, 2)])
        q = Permutation.from_cycles(5, [(2, 3)])
        assert (p * q)(1) == 3
        assert (q * p)(1) == 2
        assert p * p.inverse() == Permutation.identity(5)

    def test_degree_mismatch(self):
        with pytest.raises(GroundMismatchError):
            apply(Permutation.identity(7), elem([1], 15))
        with pytest.raises(GroundMismatchError, match="^permutation degrees differ$"):
            Permutation.identity(7) * Permutation.identity(15)

    def test_cardinality_preserved_random(self):
        rng = random.Random(3)
        for _ in range(200):
            p = Permutation.random(15, rng)
            a = ElementSet(rng.getrandbits(15), 15)
            assert len(apply(p, a)) == len(a)

    @given(sets15, sets15, st.permutations(list(range(1, 16))))
    def test_apply_distributes_over_symdiff(self, a, b, images):
        p = Permutation(tuple(images))
        assert apply(p, a ^ b) == apply(p, a) ^ apply(p, b)

    @given(sets15, st.permutations(list(range(1, 16))))
    def test_apply_maps_each_element(self, a, images):
        p = Permutation(tuple(images))
        assert apply(p, a) == elem([p(e) for e in a.elements()])

    def test_cycle_string(self):
        p = Permutation.from_cycles(5, [(1, 2, 3)])
        assert p.cycle_string() == "(1 2 3)"
        assert Permutation.identity(4).cycle_string() == "()"

    @pytest.mark.parametrize("build, point", [
        (lambda: Permutation.from_mapping({0: 3}, 3), 0),
        (lambda: Permutation.from_mapping({5: 1}, 3), 5),
        (lambda: Permutation.from_mapping({1: 4}, 3), 4),
        (lambda: Permutation.from_cycles(3, [(3, 0)]), 0),
        (lambda: Permutation.from_cycles(3, [(1, -1, 2)]), -1),
    ])
    def test_a_point_outside_the_ground_is_named(self, build, point):
        # a point below 1 once indexed the images from the end
        with pytest.raises(ValueError, match=rf"^point {point} outside 1\.\.3$"):
            build()

    @pytest.mark.parametrize(
        "images",
        [(1.0, 2.0), (2, 3, 1.0), ("1", "2"), "12", None],
        ids=["floats", "one-float", "strings", "string", "none"],
    )
    def test_non_integer_images_are_refused(self, images):
        # (1.0, 2.0) once passed as the identity, and apply and * then raised TypeError
        with pytest.raises(ValueError, match="^images must be integers$"):
            Permutation(images)

    @pytest.mark.parametrize(
        "images",
        [(2, True, 3), [IndexOnly(i) for i in (2, 1, 3)], [2, 1, 3]],
        ids=["bool", "index-objects", "list"],
    )
    def test_integer_images_are_stored_as_ints(self, images):
        # True is the int 1, and any object with __index__ is its int; a list
        # becomes a tuple, so the permutation hashes
        p = Permutation(images)
        assert type(p.images) is tuple and p.images == (2, 1, 3)
        assert all(type(i) is int for i in p.images)
        assert p == Permutation((2, 1, 3)) and hash(p) == hash(Permutation((2, 1, 3)))
        assert p * p == Permutation.identity(3)
        assert apply(p, ElementSet.of([1], 3)) == ElementSet.of([2], 3)

    @given(st.permutations(list(range(1, 16))), st.permutations(list(range(1, 16))))
    def test_image_tuples_compose_and_invert_as_permutations(self, p_images, q_images):
        p, q = Permutation(tuple(p_images)), Permutation(tuple(q_images))
        zero_based = [tuple(i - 1 for i in r.images) for r in (p, q, p * q, p.inverse())]
        assert compose(zero_based[0], zero_based[1]) == zero_based[2]
        assert invert(zero_based[0]) == zero_based[3]


class TestBitIteration:
    @given(st.integers(0, 2**130))
    def test_set_bits_ascending(self, mask):
        assert list(set_bits(mask)) == [
            i for i in range(mask.bit_length()) if mask >> i & 1
        ]

    @given(
        st.integers(0, 2**15 - 1),
        st.lists(st.integers(0, 20), min_size=15, max_size=15),
    )
    def test_map_bits_is_the_union_of_the_images(self, mask, images):
        expected = 0
        for i in range(15):
            if mask >> i & 1:
                expected |= 1 << images[i]
        assert map_bits(mask, images) == expected
