"""The refined point and block classes behind find_isomorphism: equal to the
three-round refinement they replace, equivariant under relabeling, and
staged so that non-isomorphic pairs are rejected on the point side; the
witnesses it returns and its DEBUG record."""

import logging
import random
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from simplex_designs import designs
from simplex_designs.constructions import hyperplane_complement_blocks
from simplex_designs.designs import Design, find_isomorphism
from simplex_designs.subsets import Permutation

from conftest import FIXTURE_NAMES

LOGGER = "simplex_designs.designs"


# Reference refinement for the partition tests: v popcounts per pair
# signature, every signature interned twice, always three rounds.
def oracle_pair_signatures(masks):
    v = len(masks)
    pair = [[()] * v for _ in range(v)]
    for x, y in combinations(range(v), 2):
        m = masks[x] & masks[y]
        pair[x][y] = pair[y][x] = tuple(
            sorted([(m & mz).bit_count() for mz in masks])
        )
    return pair


def oracle_classes_from(pair, labels):
    v = len(pair)

    def intern(obj):
        return labels.setdefault(obj, len(labels))

    pair_codes = [[intern(sig) for sig in row] for row in pair]
    codes = [intern(("seed",))] * v
    for _ in range(3):
        codes = [
            intern((
                codes[i],
                tuple(sorted([
                    (codes[j], pair_codes[i][j]) for j in range(v) if j != i
                ])),
            ))
            for i in range(v)
        ]
    return codes


def oracle_sides(d: Design, labels: dict):
    ctx = designs._DesignContext(d, {})
    return (
        oracle_classes_from(oracle_pair_signatures(ctx.point_in_blocks), labels),
        oracle_classes_from(oracle_pair_signatures(ctx.block_bits), labels),
    )


def partition(codes) -> set[frozenset[int]]:
    classes: dict[int, set[int]] = {}
    for i, code in enumerate(codes):
        classes.setdefault(code, set()).add(i)
    return {frozenset(c) for c in classes.values()}


def refined_sides(d: Design, labels: dict):
    ctx = designs._DesignContext(d, labels)
    return ctx.points.codes, ctx.blocks.codes


def assert_matches_oracle(d: Design):
    new = refined_sides(d, {})
    old = oracle_sides(d, {})
    assert [partition(codes) for codes in new] == [partition(codes) for codes in old]


def hyperplane_complements(k: int) -> Design:
    return Design.from_blocks(hyperplane_complement_blocks(k))


def relabeled(d: Design, seed: int) -> Design:
    return d.relabeled(Permutation.random(d.v, random.Random(seed)))


class TestPartitionOracle:
    def test_fixtures(self, fixture_designs):
        for d in fixture_designs.values():
            assert_matches_oracle(d)

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(FIXTURE_NAMES), st.permutations(list(range(1, 16))))
    def test_relabelings(self, fixture_designs, name, images):
        assert_matches_oracle(fixture_designs[name].relabeled(Permutation(tuple(images))))

    @pytest.mark.parametrize("k", [3, 5, 6])
    def test_hyperplane_complements(self, k):
        d = hyperplane_complements(k)
        assert_matches_oracle(d)
        assert_matches_oracle(relabeled(d, k))

    def test_random_incidences_split_in_later_rounds(self):
        # designs are stable after round 1; random 0/1 incidences also need
        # rounds 2 and 3, where the early stop has to agree with the oracle
        rng = random.Random(89)
        rounds = set()
        for _ in range(300):
            masks = [rng.getrandbits(10) for _ in range(10)]
            transpose = [
                sum(1 << z for z, m in enumerate(masks) if m >> i & 1)
                for i in range(10)
            ]
            classes = designs._refine(masks, transpose, {})
            oracle = oracle_classes_from(oracle_pair_signatures(masks), {})
            assert partition(classes.codes) == partition(oracle)
            rounds.add(classes.rounds)
        assert rounds == {2, 3}

    def test_shared_table_matches_the_same_classes(self, fixture_designs):
        # the search reads which classes of one design correspond to which of
        # the other through equal codes of the shared table
        rng = random.Random(61)
        for d in fixture_designs.values():
            e = d.relabeled(Permutation.random(15, rng))
            new_labels, old_labels = {}, {}
            new = zip(refined_sides(d, new_labels), refined_sides(e, new_labels))
            old = zip(oracle_sides(d, old_labels), oracle_sides(e, old_labels))
            for (new1, new2), (old1, old2) in zip(new, old):
                assert [[a == b for b in new2] for a in new1] == [
                    [a == b for b in old2] for a in old1
                ]

    def test_relabeling_relabels_the_partitions(self, fixture_designs):
        rng = random.Random(67)
        for d in [*fixture_designs.values(), hyperplane_complements(5)]:
            q = Permutation.random(d.v, rng)
            points, blocks = refined_sides(d, {})
            moved_points, moved_blocks = refined_sides(d.relabeled(q), {})
            # point x goes to q(x); relabeled keeps the block order
            assert partition(moved_points) == {
                frozenset(q(x + 1) - 1 for x in c) for c in partition(points)
            }
            assert partition(moved_blocks) == partition(blocks)

    def test_rounds_stop_at_the_stable_partition(self, fixture_designs):
        # one class after round 1 is stable; the other fixtures split in
        # round 1 and round 2 splits nothing
        rounds = {}
        for name, d in fixture_designs.items():
            ctx = designs._DesignContext(d, {})
            rounds[name] = (ctx.points.rounds, ctx.blocks.rounds)
        assert rounds == {
            "c1": (1, 1), "c2": (2, 2), "c3": (2, 2), "c4": (2, 2),
            "non_centered": (2, 2),
        }
        assert designs._DesignContext(hyperplane_complements(5), {}).points.rounds == 1

    def test_sides_are_refined_on_first_use(self, fixture_designs):
        ctx = designs._DesignContext(fixture_designs["c2"], {})
        assert "points" not in vars(ctx) and "blocks" not in vars(ctx)
        ctx.points
        assert "points" in vars(ctx) and "blocks" not in vars(ctx)


# Witness images of find_isomorphism from each fixture onto two relabelings
# and from the PG(4,2) hyperplane complements onto one, the relabelings drawn
# in this order from random.Random(1013). Recorded with the three-round
# refinement that the oracle above keeps.
WITNESSES = {
    ("c1", 0): (1, 2, 13, 3, 6, 15, 9, 4, 5, 11, 7, 8, 14, 10, 12),
    ("c1", 1): (1, 2, 10, 3, 7, 14, 8, 4, 13, 9, 15, 11, 6, 12, 5),
    ("c2", 0): (7, 1, 11, 2, 6, 4, 9, 8, 14, 13, 15, 3, 10, 12, 5),
    ("c2", 1): (6, 1, 11, 2, 15, 13, 9, 7, 10, 3, 12, 14, 8, 5, 4),
    ("c3", 0): (3, 10, 5, 1, 8, 11, 15, 7, 6, 13, 12, 2, 4, 9, 14),
    ("c3", 1): (1, 9, 14, 2, 15, 5, 8, 4, 7, 13, 11, 6, 10, 12, 3),
    ("c4", 0): (1, 7, 14, 15, 11, 4, 8, 2, 9, 6, 3, 5, 12, 13, 10),
    ("c4", 1): (3, 7, 8, 15, 10, 6, 14, 1, 4, 13, 9, 12, 2, 5, 11),
    ("non_centered", 0): (1, 3, 2, 14, 15, 8, 13, 4, 6, 11, 7, 9, 12, 10, 5),
    ("non_centered", 1): (1, 2, 6, 15, 4, 14, 7, 13, 9, 10, 11, 8, 5, 12, 3),
    ("pg42", 0): (
        1, 2, 14, 3, 31, 15, 11, 4, 29, 21, 10, 13, 22, 9, 26, 5, 17, 7, 18,
        20, 28, 8, 25, 30, 12, 6, 27, 23, 19, 24, 16,
    ),
}


def isomorphism_record(caplog, d1, d2):
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger=LOGGER):
        witness = find_isomorphism(d1, d2)
    (record,) = caplog.records
    return witness, record.getMessage()


class TestStagedIsomorphism:
    def test_witnesses_are_pinned(self, fixture_designs):
        rng = random.Random(1013)
        sources = [(name, fixture_designs[name], k) for name in FIXTURE_NAMES for k in range(2)]
        sources.append(("pg42", hyperplane_complements(5), 0))
        found = {
            (name, k): find_isomorphism(d, d.relabeled(Permutation.random(d.v, rng))).images
            for name, d, k in sources
        }
        assert found == WITNESSES

    def test_cross_types_are_rejected_on_the_point_side(self, fixture_designs, caplog):
        rng = random.Random(71)
        for a, b in permutations(FIXTURE_NAMES, 2):
            e = fixture_designs[b].relabeled(Permutation.random(15, rng))
            witness, message = isomorphism_record(caplog, fixture_designs[a], e)
            assert witness is None
            assert " stage=points " in message and " block_rounds=-/- " in message


class TestIsomorphismLogging:
    def test_one_record_with_the_settling_stage(self, fixture_designs, caplog):
        d = fixture_designs["c3"]
        e = relabeled(d, 73)
        witness, message = isomorphism_record(caplog, d, e)
        assert witness is not None
        assert message.startswith("find_isomorphism v=15 stage=search ")
        assert "point_rounds=2/2 block_rounds=2/2 " in message
        fields = dict(item.split("=") for item in message.split()[1:])
        assert int(fields["leaves"]) >= 1
        assert int(fields["propagations"]) >= 1

        witness, message = isomorphism_record(caplog, d, fixture_designs["c1"])
        assert witness is None
        assert message == (
            "find_isomorphism v=15 stage=points point_rounds=2/1"
            " block_rounds=-/- leaves=0 propagations=0"
        )

    def test_v31_record(self, caplog):
        d = hyperplane_complements(5)
        witness, message = isomorphism_record(caplog, d, relabeled(d, 79))
        assert witness is not None
        assert message.startswith(
            "find_isomorphism v=31 stage=search point_rounds=1/1 block_rounds=1/1 "
        )

    def test_silent_at_info(self, fixture_designs, caplog):
        with caplog.at_level(logging.INFO, logger=LOGGER):
            find_isomorphism(fixture_designs["c2"], relabeled(fixture_designs["c2"], 83))
            find_isomorphism(fixture_designs["c2"], fixture_designs["c4"])
        assert not caplog.records

    def test_refinement_does_not_log(self, fixture_designs, caplog):
        with caplog.at_level(logging.DEBUG, logger=LOGGER):
            ctx = designs._DesignContext(fixture_designs["c4"], {})
            ctx.points, ctx.blocks
        assert not caplog.records
