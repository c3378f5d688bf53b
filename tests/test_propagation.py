"""The packed propagation kernel of the isomorphism search against the
row-by-row kernel it replaced: the same narrowed rows and the same wipe-out
verdicts from the root states and along random x -> y choices, with every
guard bit left zero, from v = 7 up to the largest ground set, v = 63."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from simplex_designs.constructions import hyperplane_complement_blocks
from simplex_designs.designs import Design
from simplex_designs.search import Incidence, Search, _Fields
from simplex_designs.subsets import ElementSet, Permutation

from conftest import FIXTURE_NAMES


def oracle_propagate(ctx1, ctx2, pcand, bcand, queue_p, queue_b) -> bool:
    """Row-by-row propagation on lists of candidate masks, in place.

    A decided point x -> y drops y from every other point and keeps each
    block's candidates inside or outside the blocks through y, as x lies in
    that block or not; a decided block does the same with the roles of
    points and blocks swapped. False when some candidate set empties.
    """
    v = ctx1.v
    sides = (
        (pcand, queue_p, ctx1.point_in_blocks, ctx2.point_in_blocks, bcand, queue_b),
        (bcand, queue_b, ctx1.block_bits, ctx2.block_bits, pcand, queue_p),
    )
    while queue_p or queue_b:
        for cand, queue, incidence1, incidence2, other, other_queue in sides:
            while queue:
                x = queue.pop()
                y = cand[x]
                for x2 in range(v):
                    before = cand[x2]
                    if before & y and x2 != x:
                        after = before ^ y
                        if after == 0:
                            return False
                        cand[x2] = after
                        if after.bit_count() == 1:
                            queue.append(x2)
                member = incidence1[x]
                image = incidence2[y.bit_length() - 1]
                outside = ~image
                for a in range(v):
                    before = other[a]
                    after = before & (image if member >> a & 1 else outside)
                    if after != before:
                        if after == 0:
                            return False
                        other[a] = after
                        if after.bit_count() == 1:
                            other_queue.append(a)
    return True


def oracle_root(ctx1, ctx2):
    """The class-carved candidate rows, propagated; None on a wipe-out."""
    rows = []
    for classes1, classes2 in ((ctx1.points, ctx2.points), (ctx1.blocks, ctx2.blocks)):
        images = {}
        for y, code in enumerate(classes2.codes):
            images[code] = images.get(code, 0) | 1 << y
        rows.append([images.get(code, 0) for code in classes1.codes])
    pcand, bcand = rows
    if 0 in pcand or 0 in bcand:
        return None
    seed_p = [x for x, c in enumerate(pcand) if c.bit_count() == 1]
    seed_b = [a for a, c in enumerate(bcand) if c.bit_count() == 1]
    if oracle_propagate(ctx1, ctx2, pcand, bcand, seed_p, seed_b):
        return pcand, bcand
    return None


def oracle_fix(ctx1, ctx2, rows, x, y):
    pcand, bcand = list(rows[0]), list(rows[1])
    pcand[x] = 1 << y
    if oracle_propagate(ctx1, ctx2, pcand, bcand, [x], []):
        return pcand, bcand
    return None


def unpacked(search, state):
    """The rows of a packed state, checked for zero guards and true decided marks."""
    if state is None:
        return None
    fields = search.fields
    v, w, high = fields.v, fields.w, fields.high
    p, b, decided_p, decided_b = state
    assert (p | b) & high == 0, "a guard bit is set"
    assert p >> v * w == 0 and b >> v * w == 0, "bits above the last field"
    sides = []
    for side, decided in ((p, decided_p), (b, decided_b)):
        rows = [fields.row(side, x) for x in range(v)]
        assert decided == sum(
            1 << x * w + v for x, r in enumerate(rows) if r.bit_count() == 1
        )
        sides.append(rows)
    return tuple(sides)


def agree(search, state, rows):
    assert unpacked(search, state) == (None if rows is None else tuple(rows))


def walk(search, rng: random.Random, steps: int) -> tuple[int, int]:
    """Random x -> y choices from the root, each checked against the oracle.

    A choice sends an undecided point to one of its candidates; a wipe-out or
    a leaf starts over from the root. Returns the wipe-outs and leaves seen.
    """
    ctx1, ctx2 = search.ctx1, search.ctx2
    root, root_rows = search.root(), oracle_root(ctx1, ctx2)
    agree(search, root, root_rows)
    wipe_outs = leaves = 0
    state, rows = root, root_rows
    for _ in range(steps if root is not None else 0):
        undecided = [x for x, c in enumerate(rows[0]) if c.bit_count() > 1]
        if not undecided:
            leaves += 1
            state, rows = root, root_rows
            continue
        x = rng.choice(undecided)
        y = rng.choice([y for y in range(ctx1.v) if rows[0][x] >> y & 1])
        state, rows = search.fix(state, x, y), oracle_fix(ctx1, ctx2, rows, x, y)
        agree(search, state, rows)
        if rows is None:
            wipe_outs += 1
            state, rows = root, root_rows
    return wipe_outs, leaves


def incidence(d: Design) -> Incidence:
    """The search's view of d, built fresh from its block bitmasks."""
    return Incidence([b.bits for b in d.blocks])


def search_for(d1: Design, d2: Design):
    return Search(incidence(d1), incidence(d2))


def hyperplane_complements(k: int) -> Design:
    return Design.from_blocks(hyperplane_complement_blocks(k))


def paley_design(q: int) -> Design:
    """The translates of the quadratic non-residues and 0 mod a prime q = 3 mod 4,
    a (q, (q+1)/2, (q+1)/4) design."""
    residues = {x * x % q for x in range(1, q)}
    base = [d for d in range(q) if d not in residues]
    return Design.from_blocks(
        ElementSet.of([(d + a) % q + 1 for d in base], q) for a in range(q)
    )


@pytest.fixture(scope="module")
def pg42():
    return hyperplane_complements(5)


class TestRootStates:
    def test_fixtures_and_pg42(self, fixture_designs, pg42):
        rng = random.Random(101)
        for d in [*fixture_designs.values(), pg42]:
            for e in (d, d.relabeled(Permutation.random(d.v, rng))):
                search = search_for(d, e)
                agree(search, search.root(), oracle_root(search.ctx1, search.ctx2))


class TestRandomChoices:
    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_relabelings(self, fixture_designs, pg42, data):
        name = data.draw(st.sampled_from([*FIXTURE_NAMES, "pg42"]))
        d = pg42 if name == "pg42" else fixture_designs[name]
        images = data.draw(st.permutations(range(1, d.v + 1)))
        rng = data.draw(st.randoms(use_true_random=False))
        walk(search_for(d, d.relabeled(Permutation(tuple(images)))), rng, 40)

    def test_walks_reach_wipe_outs_and_leaves(self, fixture_designs):
        # the comparison covers both verdicts, not just surviving states
        rng = random.Random(103)
        totals = [0, 0]
        for d in fixture_designs.values():
            e = d.relabeled(Permutation.random(15, rng))
            for i, count in enumerate(walk(search_for(d, e), rng, 60)):
                totals[i] += count
        assert totals[0] > 0 and totals[1] > 0


class TestGuardArithmetic:
    # v = 7 is the smallest hyperplane-complement design; v = 63 fills the
    # largest ground set, so its fields reach bit 63 * 64 - 1
    @pytest.mark.parametrize("k", [3, 6])
    def test_hyperplane_complements(self, k):
        d = hyperplane_complements(k)
        rng = random.Random(107 + k)
        for e in (d, d.relabeled(Permutation.random(d.v, rng))):
            walk(search_for(d, e), rng, 30)

    # their fields are 8 to 64 bits wide; Paley designs give other widths,
    # down to the smallest design, v = 3
    @pytest.mark.parametrize("q", [3, 11, 59])
    def test_paley_designs(self, q):
        d = paley_design(q)
        rng = random.Random(109 + q)
        for e in (d, d.relabeled(Permutation.random(q, rng))):
            walk(search_for(d, e), rng, 30)

    @pytest.mark.parametrize("v", [3, 7, 11, 15, 31, 59, 63])
    def test_decided_and_empty_rows(self, v):
        # every row weight from empty to full, in every field position
        fields = _Fields(v)
        rng = random.Random(v)
        for _ in range(50):
            rows = [
                rng.choice([0, 1 << rng.randrange(v), (1 << v) - 1,
                            rng.getrandbits(v)])
                for _ in range(v)
            ]
            packed = sum(r << x * fields.w for x, r in enumerate(rows))
            assert [fields.row(packed, x) for x in range(v)] == rows
            assert fields.decided(packed) == sum(
                1 << x * fields.w + v for x, r in enumerate(rows) if r.bit_count() <= 1
            )
            has_empty = (packed + fields.low) & fields.high != fields.high
            assert has_empty == (0 in rows)
