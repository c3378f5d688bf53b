"""The tuple and bitset kernels of the group layer against plain oracles.

compose takes itemgetter's fast path from degree 2 on, so degrees 0 and 1,
where itemgetter returns a bare item or raises, are checked beside the
widest ground sets. _Fields.move maps every row of a packed incidence at
once; it must agree with map_bits row by row, also where the field width
v + 1 is not a power of two and in the top field at v = 63.
"""

import random

import pytest

from simplex_designs.designs import _Fields
from simplex_designs.subsets import compose, map_bits


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


@pytest.mark.parametrize("v", [3, 15, 63])
def test_pack_and_rows_invert_each_other(v):
    rng = random.Random(100 + v)
    fields = _Fields(v)
    rows = [rng.getrandbits(v) for _ in range(v)]
    assert fields.rows(fields.pack(rows)) == rows
    assert fields.move(fields.pack(rows), range(v)) == fields.pack(rows)
