"""The tuple and bitset kernels of the group layer against plain oracles.

compose takes itemgetter's fast path from degree 2 on, so degrees 0 and 1,
where itemgetter returns a bare item or raises, are checked beside the
widest ground sets. A _Fields row fills w bits, v + 1 rounded up to whole
bytes, so w is v + 1 only for v = 7, 15, 23, 31, 63 and is 24 or 48 bits,
not a power of two, for v = 19, 23 or 43. _Fields.move maps every row of a
packed incidence at once; it must agree with map_bits row by row, also in
the top field at v = 63. Search.branch_point counts every row with a
byte-wise popcount; it must pick the row max((popcount, -x)) picks among
the rows with two or more bits.
"""

import random
from types import SimpleNamespace

import pytest

from simplex_designs.search import Search, _Fields
from simplex_designs.subsets import compose, map_bits

WIDTHS = [3, 7, 11, 15, 19, 23, 31, 43, 59, 63]


def random_images(v: int, rng) -> tuple[int, ...]:
    images = list(range(v))
    rng.shuffle(images)
    return tuple(images)


@pytest.mark.parametrize("degree", [0, 1, 2, 15, 31, 63])
def test_compose_matches_the_list_oracle(degree):
    rng = random.Random(degree)
    for _ in range(20):
        p, q = random_images(degree, rng), random_images(degree, rng)
        got = compose(p, q)
        assert type(got) is tuple
        assert got == tuple([q[i] for i in p])


@pytest.mark.parametrize("v", [3, 7, 11, 15, 19, 31, 59, 63])
def test_move_matches_map_bits_row_by_row(v):
    rng = random.Random(v)
    fields = _Fields(v)
    for _ in range(20):
        rows = [rng.getrandbits(v) for _ in range(v)]
        # a full top row reaches the last value bit of the top field
        rows[-1] = fields.full
        images = random_images(v, rng)
        moved = fields.move(fields.pack(rows), images)
        assert moved & fields.high == 0
        assert moved >> v * fields.w == 0
        assert fields.rows(moved) == [map_bits(r, images) for r in rows]


@pytest.mark.parametrize("v", WIDTHS)
def test_pack_and_rows_invert_each_other(v):
    rng = random.Random(100 + v)
    fields = _Fields(v)
    rows = [rng.getrandbits(v) for _ in range(v)]
    assert fields.rows(fields.pack(rows)) == rows
    assert fields.move(fields.pack(rows), range(v)) == fields.pack(rows)


@pytest.mark.parametrize("v", WIDTHS)
def test_fields_fill_whole_bytes(v):
    fields = _Fields(v)
    w = fields.w
    assert w % 8 == 0 and v < w <= v + 8
    assert fields.ones == sum(1 << x * w for x in range(v))
    assert fields.high == fields.ones << v
    assert fields.low == fields.ones * fields.full
    for i in range(v):
        assert fields.spread(1 << i) == 1 << i * w
    assert fields.spread(fields.full) == fields.ones


@pytest.mark.parametrize("v", WIDTHS)
def test_decided_marks_the_rows_with_at_most_one_bit(v):
    rng = random.Random(200 + v)
    fields = _Fields(v)
    for _ in range(20):
        rows = [
            rng.choice([0, 1 << rng.randrange(v), fields.full, rng.getrandbits(v)])
            for _ in range(v)
        ]
        assert fields.decided(fields.pack(rows)) == sum(
            1 << x * fields.w + v for x, r in enumerate(rows) if r.bit_count() <= 1
        )


def branch_point(fields, rows):
    """Search.branch_point of a state with these point rows.

    It reads nothing of the search but its fields, and nothing of the
    state but the point rows.
    """
    p = fields.pack(rows)
    return Search.branch_point(SimpleNamespace(fields=fields), (p, 0, fields.decided(p), 0))


def largest_oracle(rows):
    """max((popcount(row x), -x)) over the undecided rows; None if every row is decided."""
    undecided = [(r.bit_count(), -x) for x, r in enumerate(rows) if r.bit_count() > 1]
    return -max(undecided)[1] if undecided else None


def random_row(v, rng):
    """A nonempty row, often with one bit or few, so that counts tie."""
    kind = rng.randrange(4)
    if kind == 0:
        return 1 << rng.randrange(v)
    if kind == 1:
        return sum(1 << i for i in rng.sample(range(v), rng.randint(2, min(v, 4))))
    return rng.getrandbits(v) or 1


@pytest.mark.parametrize("v", WIDTHS)
def test_branch_point_matches_the_row_walk(v):
    rng = random.Random(300 + v)
    fields = _Fields(v)
    for _ in range(200):
        rows = [random_row(v, rng) for _ in range(v)]
        assert branch_point(fields, rows) == largest_oracle(rows)
        # a full top row fills the last value bits before the top byte
        rows[-1] = fields.full
        assert branch_point(fields, rows) == largest_oracle(rows)


@pytest.mark.parametrize("v", WIDTHS)
def test_branch_point_edges(v):
    fields = _Fields(v)
    singles = [1 << (x * 5 % v) for x in range(v)]
    # every row decided: a leaf
    assert branch_point(fields, singles) is None
    # one undecided row, at the top, full
    assert branch_point(fields, singles[:-1] + [fields.full]) == v - 1
    # one undecided row of two bits, at the top: it beats every decided row
    assert branch_point(fields, singles[:-1] + [3]) == v - 1
    # every row full: the lowest wins the tie
    assert branch_point(fields, [fields.full] * v) == 0
    # a full row beats rows of two bits, wherever it sits
    assert branch_point(fields, [3] * (v - 1) + [fields.full]) == v - 1
    # two full rows among rows of two bits: the lower one wins the tie
    assert branch_point(fields, [3] + [fields.full] + [3] * (v - 3) + [fields.full]) == 1
