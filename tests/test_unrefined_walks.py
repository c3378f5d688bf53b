"""The packed kernel against the four-rule oracle of test_propagation, from
the unrefined state: every row full and none decided. The refined roots
stop every non-isomorphic pair of fixtures at the point stage, so it takes
walks from here to reach states where two rows of one side share their only
candidate, which the incidence rules must wipe out as the all-different
rule of the oracle does."""

import random

import pytest

from simplex_designs.subsets import Permutation

from conftest import FIXTURE_NAMES
from test_propagation import agree, hyperplane_complements, oracle_fix, paley_design, search_for

PAIRS = [
    *((a, b) for a in FIXTURE_NAMES for b in FIXTURE_NAMES),
    ("pg42", "paley31"),
    ("paley31", "pg42"),
    ("paley11", "paley11"),
]


def walks(search, rng: random.Random, count: int) -> tuple[int, int, int]:
    """count walks of random x -> y choices from the unrefined state, each
    step checked against the oracle and each walk ended by a wipe-out or a
    leaf. Returns the steps, wipe-outs and leaves."""
    ctx1, ctx2, low = search.ctx1, search.ctx2, search.fields.low
    v = ctx1.v
    start, start_rows = (low, low, 0, 0), ([(1 << v) - 1] * v, [(1 << v) - 1] * v)
    agree(search, start, start_rows)
    steps = wipe_outs = leaves = 0
    for _ in range(count):
        state, rows = start, start_rows
        while rows is not None:
            undecided = [x for x, c in enumerate(rows[0]) if c.bit_count() > 1]
            if not undecided:
                leaves += 1
                break
            x = rng.choice(undecided)
            y = rng.choice([y for y in range(v) if rows[0][x] >> y & 1])
            state, rows = search.fix(state, x, y), oracle_fix(ctx1, ctx2, rows, x, y)
            agree(search, state, rows)
            steps += 1
        wipe_outs += rows is None
    return steps, wipe_outs, leaves


@pytest.fixture(scope="module")
def designs_by_name(fixture_designs):
    return {
        **fixture_designs,
        "pg42": hyperplane_complements(5),
        "paley31": paley_design(31),
        "paley11": paley_design(11),
    }


@pytest.mark.parametrize("a, b", PAIRS)
def test_walks_agree_with_the_oracle(designs_by_name, a, b):
    rng = random.Random(f"{a}/{b}")
    d, e = designs_by_name[a], designs_by_name[b]
    steps, wipe_outs, leaves = walks(
        search_for(d, e.relabeled(Permutation.random(e.v, rng))), rng, 40
    )
    assert steps >= 40 and wipe_outs + leaves == 40
    # a leaf is a bijection of the points that keeps every block row
    # nonempty, an isomorphism, so two distinct designs only wipe out
    if a != b:
        assert leaves == 0
