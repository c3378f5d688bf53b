import random
import time
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from simplex_designs.cliques import Clique
from simplex_designs.constructions import hyperplane_complement_blocks
from simplex_designs.designs import (
    Design,
    HadamardMatrix,
    automorphism_group,
    block_orbit_count,
    clique_from_design,
    design_from_clique,
    find_isomorphism,
    flag_orbit_count,
    from_hadamard,
    is_point_primitive,
    parse_hadamard,
    parse_incidence,
    render_incidence,
    to_hadamard,
)
from simplex_designs.errors import InvariantError, ParseError
from simplex_designs.groups import PermGroup
from simplex_designs.subsets import ElementSet, Permutation, apply

from conftest import FIXTURE_NAMES, fixture_text

# automorphism group orders of the five reference designs, frozen from the
# enumeration cross-checked by the stabilizer chain
AUT_ORDERS = {"c1": 20160, "c2": 576, "c3": 96, "c4": 168, "non_centered": 168}
BLOCK_ORBITS = {"c1": 1, "c2": 2, "c3": 3, "c4": 2, "non_centered": 2}
FLAG_ORBITS = {"c1": 1, "c2": 3, "c3": 7, "c4": 4, "non_centered": 4}


@pytest.fixture(scope="module")
def groups(fixture_designs):
    return {
        name: automorphism_group(d) for name, d in fixture_designs.items()
    }


class TestDesignType:
    def test_from_clique(self, g15, fixture_designs):
        c = Clique.from_points(g15, fixture_designs["c1"].blocks)
        d = design_from_clique(c)
        assert d.v == 15 and d.block_size == 8 and d.lambda_ == 4
        assert d.block_set() == fixture_designs["c1"].block_set()

    def test_from_clique_rejects_small(self, g15, fixture_designs):
        c = Clique.from_points(g15, fixture_designs["c1"].blocks[:14])
        with pytest.raises(InvariantError):
            design_from_clique(c)

    def test_clique_round_trip(self, g15, fixture_designs):
        d = fixture_designs["c3"]
        c = clique_from_design(d)
        assert c.geometry is g15
        assert design_from_clique(c).block_set() == d.block_set()

    def test_clique_from_v31_design_fails_fast(self):
        # a clique needs no roster; its roster numbering, which would hold
        # C(31, 16) = 300,540,195 points, is refused at once
        d = Design.from_blocks(hyperplane_complement_blocks(5))
        c = clique_from_design(d)
        assert len(c) == 31 and c.geometry.params.k == 5
        assert design_from_clique(c).block_set() == d.block_set()
        started = time.perf_counter()
        with pytest.raises(InvariantError, match="k = 5"):
            c.vertices
        assert time.perf_counter() - started < 1.0

    def test_clique_from_design_names_a_bad_ground_size(self):
        # the quadratic-residue (11,6,3) design: 0 and the non-residues mod 11
        base = (0, 2, 6, 7, 8, 10)
        d = Design.from_blocks(
            [ElementSet.of([(x + i) % 11 + 1 for x in base], 11) for i in range(11)]
        )
        assert (d.v, d.block_size, d.lambda_) == (11, 6, 3)
        with pytest.raises(InvariantError, match="ground size 11 is not of the form 2\\^k - 1"):
            clique_from_design(d)

    def test_validation_reports_failing_pair(self, fixture_designs):
        blocks = list(fixture_designs["c1"].blocks)
        blocks[3] = ElementSet.of([1, 2, 3, 4, 5, 6, 7, 8], 15)
        with pytest.raises(InvariantError, match=r"blocks \d+ and \d+ meet"):
            Design.from_blocks(blocks)

    @pytest.mark.parametrize(
        "case, message",
        [
            ("empty", "0 points do not fit the 4t-1 pattern"),
            ("four-points", "4 points do not fit the 4t-1 pattern"),
            ("singletons", "block 1 has 1 points, expected 8"),
            ("wrong-ground", "block 6 lives on the wrong ground set"),
            ("near-miss", "blocks 4 and 8 meet in 1 points, expected 4"),
        ],
    )
    def test_construction_rejects_bad_blocks(self, fixture_designs, case, message):
        c1 = list(fixture_designs["c1"].blocks)
        eight = [1, 2, 3, 4, 5, 6, 7, 8]
        blocks = {
            "empty": [],
            "four-points": [ElementSet.of([1, 2], 4)] * 4,
            "singletons": [ElementSet.of([i], 15) for i in range(1, 16)],
            "wrong-ground": c1[:5] + [ElementSet.of(eight, 16)] + c1[6:],
            "near-miss": c1[:3] + [ElementSet.of(eight, 15)] + c1[4:],
        }[case]
        with pytest.raises(InvariantError) as raised:
            Design(tuple(blocks))
        assert str(raised.value) == message


def sylvester(order):
    """The Sylvester Hadamard matrix of a power-of-two order, as lists."""
    h = [[1]]
    while len(h) < order:
        h = [row + row for row in h] + [row + [-e for e in row] for row in h]
    return h


def first_non_orthogonal_pair(rows):
    """The lexicographically first pair of distinct rows with a nonzero dot product."""
    for i, j in combinations(range(len(rows)), 2):
        if sum(a * b for a, b in zip(rows[i], rows[j])):
            return i, j
    return None


def assert_matches_dot_product_oracle(rows):
    entries = tuple(tuple(row) for row in rows)
    bad = first_non_orthogonal_pair(rows)
    if bad is None:
        assert HadamardMatrix(entries).entries == entries
    else:
        with pytest.raises(InvariantError) as raised:
            HadamardMatrix(entries)
        assert str(raised.value) == f"rows {bad[0]} and {bad[1]} are not orthogonal"


@st.composite
def pm_matrices(draw):
    """Square +-1 matrices: uniform ones of order 1-8, and Sylvester matrices
    of order 1-16 with random row and column signs and 0-2 flipped entries."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 8))
        return draw(st.lists(
            st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n),
            min_size=n, max_size=n,
        ))
    n = draw(st.sampled_from([1, 2, 4, 8, 16]))
    rows_sign = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
    cols_sign = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
    rows = [
        [r * c * e for c, e in zip(cols_sign, row)]
        for r, row in zip(rows_sign, sylvester(n))
    ]
    cells = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    for i, j in draw(st.lists(cells, max_size=2, unique=True)):
        rows[i][j] = -rows[i][j]
    return rows


class TestHadamard:
    def test_reference_renderings_are_bit_exact(self, fixture_designs):
        for name in FIXTURE_NAMES:
            h = to_hadamard(fixture_designs[name])
            assert h.order == 16
            assert h.is_normalized()
            assert h.render("01") == fixture_text(name, "hadamard01").strip()

    def test_round_trip(self, fixture_designs):
        for name in FIXTURE_NAMES:
            d = fixture_designs[name]
            assert from_hadamard(to_hadamard(d)).blocks == d.blocks

    def test_row_orthogonality(self, fixture_designs):
        h = to_hadamard(fixture_designs["c2"])
        for i, j in combinations(range(16), 2):
            dot = sum(a * b for a, b in zip(h.entries[i], h.entries[j]))
            assert dot == 0
        assert all(
            sum(e * e for e in row) == 16 for row in h.entries
        )

    def test_order_four_hadamard_gives_line_design(self):
        text = "0000\n0101\n0011\n0110"
        h = parse_hadamard(text)
        d = from_hadamard(h)
        assert d.v == 3
        a, b, c = d.blocks
        assert a ^ b == c

    def test_pm_rendering_round_trip(self, fixture_designs):
        h = to_hadamard(fixture_designs["c4"])
        again = parse_hadamard(h.render("pm"), style="pm")
        assert again == h

    def test_rejects_non_normalized(self, fixture_designs):
        h = to_hadamard(fixture_designs["c1"])
        flipped = tuple(
            tuple(-e for e in row) for row in h.entries
        )
        with pytest.raises(InvariantError):
            from_hadamard(HadamardMatrix(flipped))

    def test_orders_up_to_64_fit_the_ground_cap(self):
        # the (63, 32, 16) design of a Sylvester matrix is the largest that fits
        d = from_hadamard(HadamardMatrix(tuple(map(tuple, sylvester(64)))))
        assert d.v == 63
        with pytest.raises(InvariantError, match=r"multiple of 4 in 4\.\.64"):
            from_hadamard(HadamardMatrix(tuple(map(tuple, sylvester(128)))))

    def test_rejects_non_orthogonal(self):
        with pytest.raises(InvariantError):
            HadamardMatrix(((1, 1), (1, 1)))

    @settings(max_examples=150, deadline=None)
    @given(pm_matrices())
    def test_orthogonality_matches_dot_products(self, rows):
        assert_matches_dot_product_oracle(rows)

    def test_flipped_fixture_entries_match_dot_products(self, fixture_designs):
        rng = random.Random(41)
        for name in FIXTURE_NAMES:
            rows = [list(row) for row in to_hadamard(fixture_designs[name]).entries]
            assert_matches_dot_product_oracle(rows)
            for trial in range(20):
                flipped = [row[:] for row in rows]
                for i, j in rng.sample(
                    [(i, j) for i in range(16) for j in range(16)], 1 + trial % 2
                ):
                    flipped[i][j] = -flipped[i][j]
                assert first_non_orthogonal_pair(flipped) is not None
                assert_matches_dot_product_oracle(flipped)

    @pytest.mark.parametrize(
        "entries",
        [
            ((1, 1), (1,)),
            ((1, 1, 1), (1, -1, 1)),
            ((1, 1), (1, 0)),
            ((1, 1), (1, -2)),
            (),
        ],
        ids=["ragged", "not-square", "zero-entry", "non-unit-entry", "empty"],
    )
    def test_rejects_malformed_entries(self, entries):
        with pytest.raises(InvariantError, match="square"):
            HadamardMatrix(entries)


class TestSerialization:
    def test_incidence_round_trip(self, fixture_designs):
        for name in FIXTURE_NAMES:
            d = fixture_designs[name]
            assert parse_incidence(render_incidence(d)).blocks == d.blocks

    def test_parse_rejects_garbage(self):
        with pytest.raises(ParseError):
            parse_incidence("abc\ndef\nghi")
        with pytest.raises(ParseError):
            parse_incidence("")
        with pytest.raises(ParseError):
            parse_incidence("01\n0")

    def test_parse_rejects_more_rows_than_the_ground_cap(self):
        # the count is checked before any row is read, so bad rows do not matter
        for row in ("0" * 64, "x"):
            with pytest.raises(ParseError, match="64 rows: .* at most 63"):
                parse_incidence("\n".join([row] * 64))

    def test_parse_hadamard_rejects_empty(self):
        for text in ("", "\n  \n"):
            with pytest.raises(ParseError, match="empty Hadamard matrix"):
                parse_hadamard(text)

    def test_parse_validates_design(self):
        rows = ["0" * 15] * 15
        with pytest.raises(InvariantError):
            parse_incidence("\n".join(rows))


class TestMutationsRejected:
    def test_near_miss_designs_fail_validation(self, fixture_designs):
        rng = random.Random(29)
        names = list(FIXTURE_NAMES)
        rejected = 0
        for trial in range(100):
            d = fixture_designs[names[trial % 5]]
            rows = [list(map(int, line)) for line in render_incidence(d).splitlines()]
            r = rng.randrange(15)
            ones = [j for j, e in enumerate(rows[r]) if e == 1]
            zeros = [j for j, e in enumerate(rows[r]) if e == 0]
            rows[r][rng.choice(ones)] = 0
            rows[r][rng.choice(zeros)] = 1
            text = "\n".join("".join(map(str, row)) for row in rows)
            try:
                parse_incidence(text)
            except InvariantError:
                rejected += 1
        assert rejected == 100


class TestIsomorphism:
    def test_identity(self, fixture_designs):
        d = fixture_designs["c1"]
        p = find_isomorphism(d, d)
        assert p is not None

    def test_relabelings_found_and_verified(self, fixture_designs):
        rng = random.Random(31)
        for name in FIXTURE_NAMES:
            d = fixture_designs[name]
            q = Permutation.random(15, rng)
            rel = d.relabeled(q)
            w = find_isomorphism(d, rel)
            assert w is not None
            assert {apply(w, b).bits for b in d.blocks} == rel.block_set()

    def test_hyperplane_complements_isomorphic_to_c1(self, fixture_designs):
        hc = Design.from_blocks(hyperplane_complement_blocks(4))
        assert find_isomorphism(fixture_designs["c1"], hc) is not None
        assert find_isomorphism(hc, fixture_designs["c1"]) is not None

    def test_pairwise_distinct(self, fixture_designs):
        for a, b in combinations(FIXTURE_NAMES, 2):
            assert find_isomorphism(fixture_designs[a], fixture_designs[b]) is None

    def test_symmetric_and_transitive_over_relabelings(self, fixture_designs):
        rng = random.Random(37)
        d = fixture_designs["c3"]
        e = d.relabeled(Permutation.random(15, rng))
        f = e.relabeled(Permutation.random(15, rng))
        assert find_isomorphism(d, e) is not None
        assert find_isomorphism(e, d) is not None
        assert find_isomorphism(d, f) is not None

    def test_size_mismatch(self, fixture_designs):
        small = Design.from_blocks(from_hadamard(
            parse_hadamard("0000\n0101\n0011\n0110")
        ).blocks)
        with pytest.raises(InvariantError):
            find_isomorphism(fixture_designs["c1"], small)


class TestAutomorphismGroups:
    def test_orders_frozen(self, groups):
        for name, g in groups.items():
            assert g.order == AUT_ORDERS[name]
            assert len(g.elements) == g.order

    def test_identity_present_and_group_closed_sample(self, groups):
        g = groups["c3"]
        ids = Permutation.identity(15)
        assert ids in g.elements
        rng = random.Random(41)
        members = set(g.elements)
        for _ in range(50):
            a, b = rng.choice(g.elements), rng.choice(g.elements)
            assert a * b in members
            assert a.inverse() in members

    def test_generators_preserve_design(self, fixture_designs, groups):
        for name, g in groups.items():
            blocks = fixture_designs[name].block_set()
            for p in g.generators:
                assert {
                    apply(p, b).bits for b in fixture_designs[name].blocks
                } == blocks

    def test_order_invariant_under_conjugation(self, fixture_designs):
        rng = random.Random(43)
        for name in FIXTURE_NAMES:
            d = fixture_designs[name]
            rel = d.relabeled(Permutation.random(15, rng))
            assert automorphism_group(rel).order == AUT_ORDERS[name]


class TestOrbitCounts:
    def test_block_orbits(self, fixture_designs, groups):
        for name in FIXTURE_NAMES:
            assert block_orbit_count(fixture_designs[name], groups[name]) == (
                BLOCK_ORBITS[name]
            )

    def test_only_the_singular_design_is_block_transitive(self, fixture_designs, groups):
        transitive = [
            name
            for name in FIXTURE_NAMES
            if block_orbit_count(fixture_designs[name], groups[name]) == 1
        ]
        assert transitive == ["c1"]

    def test_flag_orbits(self, fixture_designs, groups):
        for name in FIXTURE_NAMES:
            assert flag_orbit_count(fixture_designs[name], groups[name]) == (
                FLAG_ORBITS[name]
            )

    def test_trivial_group_orbit_counts(self, fixture_designs):
        trivial = PermGroup.trivial(15)
        d = fixture_designs["c1"]
        assert block_orbit_count(d, trivial) == 15
        assert flag_orbit_count(d, trivial) == 120

    def test_rejects_non_preserving_group(self, fixture_designs):
        alien = PermGroup(15, (Permutation.from_cycles(15, [(1, 2)]),))
        with pytest.raises(InvariantError):
            block_orbit_count(fixture_designs["c4"], alien)

    def test_point_primitivity_descriptive(self, groups):
        assert is_point_primitive(groups["c1"])
        assert not is_point_primitive(groups["c2"])
