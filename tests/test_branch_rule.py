"""The branch point of the first-hit search against the rule it replaced.

The search branches on the undecided point with most candidates. It used
to branch on the one with fewest, which fixed all 7 points of C4's
Fano-plane class before it touched the 8-point class, and walked each of
the 168 collineations of that plane to the bottom, though only 21 of them
extend to the design. The rule picks only the order in which a tree is
walked, so both rules must give the same groups, orbit counts, block
systems and found/None answers; only witnesses and work may differ.
"""

import random
from itertools import combinations

import pytest

from simplex_designs.designs import (
    Design,
    automorphism_group,
    block_orbit_count,
    find_isomorphism,
    flag_orbit_count,
    point_block_systems,
)
from simplex_designs.search import Search
from simplex_designs.subsets import apply

from conftest import FIXTURE_NAMES
from test_cover_cut import relabelings, searched
from test_propagation import hyperplane_complements, paley_design


class FewestFirstSearch(Search):
    """The search branching on the undecided point with fewest candidates,
    lowest first, as it stood before, read off a walk over the rows."""

    def branch_point(self, state):
        undecided = [
            (r.bit_count(), x)
            for x, r in enumerate(self.fields.rows(state[0]))
            if r.bit_count() > 1
        ]
        return min(undecided)[1] if undecided else None


@pytest.fixture(scope="module")
def cases(fixture_designs):
    """The fixtures, PG(2,2), PG(4,2) and the Paley designs with q <= 31."""
    return {
        **fixture_designs,
        "pg22": hyperplane_complements(3),
        "pg42": hyperplane_complements(5),
        **{f"paley{q}": paley_design(q) for q in (3, 7, 11, 19, 23, 31)},
    }


def group_of(monkeypatch, search_class, d):
    # a fresh design, so both rules refine alike and nothing is cached
    return searched(monkeypatch, search_class, automorphism_group, Design(d.blocks))


def isomorphism_of(monkeypatch, search_class, d1, d2):
    d1, d2 = Design(d1.blocks), Design(d2.blocks)
    found, search = searched(monkeypatch, search_class, find_isomorphism, d1, d2)
    if found is not None:
        assert {apply(found, b).bits for b in d1.blocks} == d2.block_set()
    return found, search


class TestAgainstFewestFirst:
    def test_groups_agree(self, monkeypatch, cases):
        for seed, d in enumerate(cases.values()):
            for e in [d, *relabelings(d, 500 + seed)]:
                group, _ = group_of(monkeypatch, Search, e)
                old, _ = group_of(monkeypatch, FewestFirstSearch, e)
                assert group.order == old.order
                assert all(g in old.elements for g in group.generators)
                assert all(g in group.elements for g in old.generators)
                assert block_orbit_count(e, group) == block_orbit_count(e, old)
                assert flag_orbit_count(e, group) == flag_orbit_count(e, old)
                assert point_block_systems(group) == point_block_systems(old)

    def test_relabelings_are_found_by_both(self, monkeypatch, cases):
        for seed, d in enumerate(cases.values()):
            for e in relabelings(d, 600 + seed):
                found, _ = isomorphism_of(monkeypatch, Search, d, e)
                old, _ = isomorphism_of(monkeypatch, FewestFirstSearch, d, e)
                assert found is not None and old is not None

    def test_pairs_of_one_size_agree(self, monkeypatch, cases):
        # different designs on as many points: the fixture classes against
        # each other, PG(2,2) against the Paley design on 7 points and
        # PG(4,2) against the one on 31
        rng = random.Random(613)
        pairs = 0
        for (_, d1), (_, d2) in combinations(cases.items(), 2):
            if d1.v == d2.v:
                (e,) = relabelings(d2, rng.randrange(2**32), 1)
                found, _ = isomorphism_of(monkeypatch, Search, d1, e)
                old, _ = isomorphism_of(monkeypatch, FewestFirstSearch, d1, e)
                assert (found is None) == (old is None)
                pairs += 1
        assert pairs == 12

    def test_fixture_groups_take_half_the_work(self, monkeypatch, fixture_designs):
        # 643 propagations against 2,723 when recorded; C4 alone 90 against
        # 1,791
        new = old = 0
        for seed, name in enumerate(FIXTURE_NAMES):
            d = fixture_designs[name]
            for e in [d, *relabelings(d, 700 + seed)]:
                new += group_of(monkeypatch, Search, e)[1].propagations
                old += group_of(monkeypatch, FewestFirstSearch, e)[1].propagations
        assert 2 * new <= old
