"""The cover cut of the first-hit search: a state in which some block of
the second design is no block's candidate holds no isomorphism, so the
search returns at once. The search with the cut against a copy of the
search without it, and the k = 6 hyperplane complements, PG(5,2), which
the cut brings within a tier-1 budget."""

import random
from itertools import combinations

import pytest

from simplex_designs.designs import Design, automorphism_group, find_isomorphism
from simplex_designs.search import Search, _Fields, _is_isomorphism
from simplex_designs.subsets import Permutation, apply, set_bits

from test_propagation import hyperplane_complements, incidence, paley_design

GL62_ORDER = 63 * 62 * 60 * 56 * 48 * 32


class UncutSearch(Search):
    """The first-hit search without the cover cut, as it stood before it."""

    def first_hit(self, state):
        x = self.branch_point(state)
        if x is None:
            self.leaves += 1
            images = tuple([r.bit_length() - 1 for r in self.fields.rows(state[0])])
            if len(set(images)) == self.v and _is_isomorphism(
                self.ctx1, self.ctx2, images
            ):
                return images
            return None
        for y in set_bits(self.fields.row(state[0], x)):
            child = self.fix(state, x, y)
            if child is not None:
                images = self.first_hit(child)
                if images is not None:
                    return images
        return None


def searched(monkeypatch, search_class, call, *args):
    """call(*args) with search_class as the search, and the one search it made."""
    made = []

    class Recorded(search_class):
        def __init__(self, *search_args):
            super().__init__(*search_args)
            made.append(self)

    monkeypatch.setattr("simplex_designs.search.Search", Recorded)
    result = call(*args)
    monkeypatch.undo()
    (search,) = made
    return result, search


@pytest.fixture(scope="module")
def cases(fixture_designs):
    """The fixtures, PG(2,2), PG(4,2) and the Paley designs with q <= 23."""
    return {
        **fixture_designs,
        "pg22": hyperplane_complements(3),
        "pg42": hyperplane_complements(5),
        **{f"paley{q}": paley_design(q) for q in (3, 7, 11, 19, 23)},
    }


def relabelings(d: Design, seed: int, count: int = 3) -> list[Design]:
    rng = random.Random(seed)
    return [d.relabeled(Permutation.random(d.v, rng)) for _ in range(count)]


class TestAgainstUncutSearch:
    """The cut prunes only subtrees without an isomorphism, so the depth-first
    order, the first hits and the leaves stay those of the uncut search."""

    def compare_isomorphism(self, monkeypatch, d1, d2) -> int:
        # fresh designs, so both runs refine alike and nothing is cached
        d1, d2 = Design(d1.blocks), Design(d2.blocks)
        found, cut = searched(monkeypatch, Search, find_isomorphism, d1, d2)
        expected, uncut = searched(monkeypatch, UncutSearch, find_isomorphism, d1, d2)
        assert found == expected
        if found is not None:
            assert {apply(found, b).bits for b in d1.blocks} == d2.block_set()
        assert cut.leaves == uncut.leaves
        assert cut.propagations <= uncut.propagations
        return cut.cuts

    def compare_group(self, monkeypatch, d) -> int:
        d = Design(d.blocks)
        group, cut = searched(monkeypatch, Search, automorphism_group, d)
        expected, uncut = searched(monkeypatch, UncutSearch, automorphism_group, d)
        assert group.generators == expected.generators
        assert group.order == expected.order
        assert cut.leaves == uncut.leaves
        assert cut.propagations <= uncut.propagations
        return cut.cuts

    def test_relabelings_are_found_alike(self, monkeypatch, cases):
        cuts = 0
        for seed, d in enumerate(cases.values()):
            for e in relabelings(d, 200 + seed):
                cuts += self.compare_isomorphism(monkeypatch, d, e)
        # PG(4,2) gets cut, so the comparison is not between equal searches
        assert cuts > 0

    def test_pairs_of_one_size_agree(self, monkeypatch, cases):
        # pairs of different designs on as many points: fixture pairs of
        # two classes, and PG(2,2) against the Paley design on 7 points
        rng = random.Random(211)
        for (_, d1), (_, d2) in combinations(cases.items(), 2):
            if d1.v == d2.v:
                e = d2.relabeled(Permutation.random(d2.v, rng))
                self.compare_isomorphism(monkeypatch, d1, e)

    def test_groups_agree(self, monkeypatch, cases):
        cuts = 0
        for seed, d in enumerate(cases.values()):
            for e in [d, *relabelings(d, 300 + seed, 2)]:
                cuts += self.compare_group(monkeypatch, e)
        assert cuts > 0


class TestHandBuiltState:
    def test_an_uncovered_block_is_cut(self, fixture_designs):
        d = fixture_designs["c1"]
        e = d.relabeled(Permutation.random(15, random.Random(17)))
        ctx1, ctx2 = incidence(d), incidence(e)
        p, b, decided_p, decided_b = Search(ctx1, ctx2).root()
        search, uncut = Search(ctx1, ctx2), UncutSearch(ctx1, ctx2)
        fields = search.fields
        # C1 is one class on each side: every row is full and none decided
        assert b == fields.low and not decided_p and not decided_b
        # no block may go to block 5 of e: no row empties, none is decided
        b &= ~(fields.ones << 5)
        assert fields.decided(b) == 0
        state = (p, b, decided_p, decided_b)
        assert fields.union(b) == fields.full ^ 1 << 5

        assert search.first_hit(state) is None
        assert (search.cuts, search.leaves, search.propagations) == (1, 0, 0)
        # the uncut search below the same state finds nothing either
        assert uncut.first_hit(state) is None
        assert uncut.propagations > 0

    @pytest.mark.parametrize("v", [3, 7, 15, 31, 59, 63])
    def test_union_is_the_or_of_the_rows(self, v):
        fields = _Fields(v)
        rng = random.Random(v)
        for _ in range(20):
            rows = [rng.getrandbits(v) & rng.getrandbits(v) for _ in range(v)]
            expected = 0
            for r in rows:
                expected |= r
            assert fields.union(fields.pack(rows)) == expected


class TestPG52:
    """PG(5,2), the hyperplane complements of the k = 6 geometry at v = 63,
    the largest ground set; refinement leaves one class on each side."""

    @pytest.fixture(scope="class")
    def pg52(self):
        return hyperplane_complements(6)

    def test_group_is_gl62(self, monkeypatch, pg52):
        group, search = searched(monkeypatch, Search, automorphism_group, pg52)
        assert group.order == GL62_ORDER == 20_158_709_760
        # 309 when pinned (815 when it branched on the fewest candidates);
        # the uncut search made 147,068 then
        assert search.propagations <= 700

    def test_relabeling_is_found(self, monkeypatch, pg52):
        e = pg52.relabeled(Permutation.random(63, random.Random(63)))
        w, search = searched(monkeypatch, Search, find_isomorphism, pg52, e)
        assert w is not None
        assert {apply(w, b).bits for b in pg52.blocks} == e.block_set()
        # 221 when pinned (285 when it branched on the fewest candidates);
        # the uncut search made 1,056,560 then
        assert search.propagations <= 450
