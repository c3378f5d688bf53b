"""The search layer on raw incidence bitmasks.

Every incidence here is a list of plain ints, built from the fixture texts
and from formulas, with no Design and no ElementSet on the way in. The two
drivers of ``search`` must give the witness, base, orbit sizes, generators
and work counts that find_isomorphism and automorphism_group give and log
on the Design of the same masks. Incidence is the entry point that
rectangular incidence structures will extend.
"""

import logging
import math
import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from simplex_designs.designs import Design, automorphism_group, find_isomorphism
from simplex_designs.search import Incidence, automorphism_search, isomorphism_search
from simplex_designs.subsets import ElementSet, Permutation, apply

from conftest import FIXTURE_NAMES, fixture_text
from test_propagation import hyperplane_complements, paley_design

LOGGER = "simplex_designs.designs"
PALEY_PRIMES = (7, 11, 19, 23)


def fixture_masks(name: str) -> list[int]:
    """Bit j of block i is character j of row i of the fixture's incidence text."""
    rows = [line.strip() for line in fixture_text(name).splitlines() if line.strip()]
    return [sum(1 << j for j, ch in enumerate(row) if ch == "1") for row in rows]


def paley_masks(q: int) -> list[int]:
    """The translates of the quadratic non-residues and 0 mod q."""
    residues = {x * x % q for x in range(1, q)}
    base = [d for d in range(q) if d not in residues]
    return [sum(1 << (d + a) % q for d in base) for a in range(q)]


def complement_masks(k: int) -> list[int]:
    """The hyperplane complements of F_2^k: block a holds the nonzero x with
    a.x = 1, and x is the point at bit x - 1."""
    return [
        sum(1 << x - 1 for x in range(1, 2**k) if (a & x).bit_count() % 2)
        for a in range(1, 2**k)
    ]


def pg42_masks() -> list[int]:
    return complement_masks(5)


CASES = {
    **{name: (lambda name=name: fixture_masks(name)) for name in FIXTURE_NAMES},
    "pg42": pg42_masks,
    **{f"paley{q}": (lambda q=q: paley_masks(q)) for q in PALEY_PRIMES},
}


def moved(mask: int, images) -> int:
    """mask with each bit x moved to bit images[x]."""
    return sum(1 << y for x, y in enumerate(images) if mask >> x & 1)


def as_design(masks: list[int]) -> Design:
    """A fresh Design of the masks, so it refines alike and nothing is cached."""
    return Design.from_blocks(ElementSet(m, len(masks)) for m in masks)


def the_record(caplog) -> str:
    (record,) = caplog.records
    return record.getMessage()


def test_masks_are_the_designs_of_the_other_tests(fixture_designs):
    for name in FIXTURE_NAMES:
        assert fixture_masks(name) == [b.bits for b in fixture_designs[name].blocks]
    for q in PALEY_PRIMES:
        assert paley_masks(q) == [b.bits for b in paley_design(q).blocks]
    assert set(pg42_masks()) == hyperplane_complements(5).block_set()
    assert all(type(m) is int for case in CASES.values() for m in case())


@pytest.mark.parametrize("name", sorted(CASES))
def test_group_search_matches_automorphism_group(name, caplog):
    masks = CASES[name]()
    base, orbit_sizes, generators, search = automorphism_search(Incidence(masks))
    # every generator keeps the block set, read off the masks alone
    assert all({moved(m, g) for m in masks} == set(masks) for g in generators)
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger=LOGGER):
        group = automorphism_group(as_design(masks))
    assert the_record(caplog) == (
        f"automorphism_group v={len(masks)} base={[x + 1 for x in base]}"
        f" orbits={orbit_sizes} generators={len(generators)} leaves={search.leaves}"
        f" propagations={search.propagations} cuts={search.cuts}"
    )
    assert [tuple(i - 1 for i in g.images) for g in group.generators] == generators
    assert group.order == math.prod(orbit_sizes)


@pytest.mark.parametrize("name", sorted(CASES))
def test_isomorphism_search_matches_find_isomorphism(name, caplog):
    masks = CASES[name]()
    v = len(masks)
    rng = random.Random(name)
    for _ in range(3):
        images = rng.sample(range(v), v)
        other = [moved(m, images) for m in masks]
        ctx1, ctx2 = Incidence(masks), Incidence(other)
        stage, found, search = isomorphism_search(ctx1, ctx2)
        assert stage == "search" and found is not None
        assert {moved(m, found) for m in masks} == set(other)
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger=LOGGER):
            witness = find_isomorphism(as_design(masks), as_design(other))
        assert witness.images == tuple(y + 1 for y in found)
        assert the_record(caplog) == (
            f"find_isomorphism v={v} stage=search"
            f" point_rounds={ctx1.points.rounds}/{ctx2.points.rounds}"
            f" leaves={search.leaves} propagations={search.propagations} cuts={search.cuts}"
        )


@pytest.mark.parametrize("a, b", list(combinations(FIXTURE_NAMES, 2)))
def test_distinct_fixtures_stop_at_the_same_stage(a, b, caplog):
    stage, found, search = isomorphism_search(
        Incidence(fixture_masks(a)), Incidence(fixture_masks(b))
    )
    assert found is None and stage in ("points", "search")
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger=LOGGER):
        assert find_isomorphism(as_design(fixture_masks(a)), as_design(fixture_masks(b))) is None
    message = the_record(caplog)
    assert f" stage={stage} " in message
    assert message.endswith(
        f" leaves={search.leaves} propagations={search.propagations} cuts={search.cuts}"
    )


# one incidence of each size the relabeling kernel must handle: v = 7, 15, 31
RELABEL_CASES = {
    7: lambda: complement_masks(3),
    15: lambda: fixture_masks("c4"),
    31: pg42_masks,
}


def assert_relabeled_like_apply(masks, images):
    """Incidence.relabeled against apply of the 1-based permutation, block by block."""
    v = len(masks)
    p = Permutation(tuple(y + 1 for y in images))
    expected = [apply(p, ElementSet(m, v)).bits for m in masks]
    assert Incidence(masks).relabeled(images) == expected == [moved(m, images) for m in masks]


@pytest.mark.parametrize("v", sorted(RELABEL_CASES))
def test_relabeled_moves_every_block_like_apply(v):
    masks = RELABEL_CASES[v]()
    rng = random.Random(v)
    assert Incidence(masks).relabeled(range(v)) == masks
    for _ in range(20):
        assert_relabeled_like_apply(masks, rng.sample(range(v), v))
    # the reversal moves every point, the top one to bit 0
    assert_relabeled_like_apply(masks, list(reversed(range(v))))


@pytest.mark.parametrize("v", sorted(RELABEL_CASES))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_relabeled_matches_apply_on_drawn_relabelings(v, data):
    images = data.draw(st.permutations(range(v)))
    assert_relabeled_like_apply(RELABEL_CASES[v](), images)
