"""The refined point and block classes behind find_isomorphism: equal to the
three-round refinement they replace and, codes and tables, to the pair
matrix refinement that one pair signature now skips; the block classes,
one equitable step from the point classes, partition the blocks as their
own refinement does; all equivariant under relabeling, coded by the design
alone so that each design is refined once, and staged so that
non-isomorphic pairs are rejected on the point side; the witnesses it
returns and its DEBUG record."""

import copy
import logging
import pickle
import random
from itertools import combinations, permutations, product
from operator import or_

import pytest
from hypothesis import given, settings, strategies as st

from simplex_designs.constructions import hyperplane_complement_blocks
from simplex_designs.designs import Design, automorphism_group, find_isomorphism
from simplex_designs.search import _CODE_SHIFT, _Classes, _pair_signatures, _rank, _refine
from simplex_designs.subsets import Permutation

from conftest import FIXTURE_NAMES
from test_propagation import incidence, paley_design

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
    ctx = incidence(d)
    return (
        oracle_classes_from(oracle_pair_signatures(ctx.point_in_blocks), labels),
        oracle_classes_from(oracle_pair_signatures(ctx.block_bits), labels),
    )


def partition(codes) -> set[frozenset[int]]:
    classes: dict[int, set[int]] = {}
    for i, code in enumerate(codes):
        classes.setdefault(code, set()).add(i)
    return {frozenset(c) for c in classes.values()}


def refined_sides(d: Design):
    ctx = incidence(d)
    return ctx.points.codes, ctx.blocks.codes


def assert_blocks_as_refined(ctx):
    """The block classes taken from the point classes partition the blocks
    as the triple-count refinement of the blocks does, so the search starts
    from the same root state."""
    assert ctx.blocks.rounds == 0
    assert partition(ctx.blocks.codes) == partition(_refine(ctx.block_bits).codes)


def assert_matches_oracle(d: Design):
    new = refined_sides(d)
    old = oracle_sides(d, {})
    assert [partition(codes) for codes in new] == [partition(codes) for codes in old]
    ctx = incidence(d)
    for masks in (ctx.point_in_blocks, ctx.block_bits):
        assert _refine(masks) == reference_refine(masks)
    assert_blocks_as_refined(ctx)


def relabeled_masks(masks, rng):
    """masks with its indices and its bits each permuted at random."""
    n = len(masks)
    rows, bits = rng.sample(range(n), n), rng.sample(range(n), n)
    moved = [0] * n
    for z, m in enumerate(masks):
        moved[rows[z]] = sum(1 << bits[i] for i in range(n) if m >> i & 1)
    return moved


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

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
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
            classes = _refine(masks)
            oracle = oracle_classes_from(oracle_pair_signatures(masks), {})
            assert partition(classes.codes) == partition(oracle)
            assert classes == reference_refine(masks)
            rounds.add(classes.rounds)
        assert rounds == {2, 3}

    def test_shared_table_matches_the_same_classes(self, fixture_designs):
        # the search reads which classes of one design correspond to which of
        # the other through equal codes; contexts built apart give the codes
        # the oracle gives under one shared table
        rng = random.Random(61)
        for d in fixture_designs.values():
            e = d.relabeled(Permutation.random(15, rng))
            old_labels = {}
            new = zip(refined_sides(d), refined_sides(e))
            old = zip(oracle_sides(d, old_labels), oracle_sides(e, old_labels))
            for (new1, new2), (old1, old2) in zip(new, old):
                assert [[a == b for b in new2] for a in new1] == [
                    [a == b for b in old2] for a in old1
                ]

    def test_random_profiles_agree_with_the_shared_oracle(self):
        # classes refined apart compare as the oracle's do under one table:
        # equal profiles exactly when its sorted codes are equal, and then
        # equal codes exactly where its codes are equal
        rng = random.Random(97)
        outcomes = set()
        for i in range(300):
            masks = [rng.getrandbits(10) for _ in range(10)]
            if i % 3 == 2:
                other = [rng.getrandbits(10) for _ in range(10)]
            else:
                other = relabeled_masks(masks, rng)
                if i % 3 == 1:
                    other[rng.randrange(10)] ^= 1 << rng.randrange(10)
            new1 = _refine(masks)
            new2 = _refine(other)
            assert (new1, new2) == (reference_refine(masks), reference_refine(other))
            labels = {}
            old1 = oracle_classes_from(oracle_pair_signatures(masks), labels)
            old2 = oracle_classes_from(oracle_pair_signatures(other), labels)
            same = new1.profile == new2.profile
            assert same == (sorted(old1) == sorted(old2))
            if same:
                assert [[a == b for b in new2.codes] for a in new1.codes] == [
                    [a == b for b in old2] for a in old1
                ]
            outcomes.add((i % 3, same))
        assert outcomes >= {(0, True), (1, False), (2, False)}

    def test_relabeling_keeps_the_tables_and_moves_the_codes(self, fixture_designs):
        # the codes are canonical: a relabeled design has the same tables,
        # and point q(x) gets the code of point x
        rng = random.Random(103)
        for d in [*fixture_designs.values(), hyperplane_complements(5)]:
            q = Permutation.random(d.v, rng)
            ctx, moved = incidence(d), incidence(d.relabeled(q))
            assert moved.points.tables == ctx.points.tables
            assert moved.blocks.tables == ctx.blocks.tables
            assert [moved.points.codes[q(x + 1) - 1] for x in range(d.v)] == ctx.points.codes
            assert moved.blocks.codes == ctx.blocks.codes

    def test_relabeling_relabels_the_partitions(self, fixture_designs):
        rng = random.Random(67)
        for d in [*fixture_designs.values(), hyperplane_complements(5)]:
            q = Permutation.random(d.v, rng)
            points, blocks = refined_sides(d)
            moved_points, moved_blocks = refined_sides(d.relabeled(q))
            # point x goes to q(x); relabeled keeps the block order
            assert partition(moved_points) == {
                frozenset(q(x + 1) - 1 for x in c) for c in partition(points)
            }
            assert partition(moved_blocks) == partition(blocks)

    def test_rounds_stop_at_the_stable_partition(self, fixture_designs):
        # one class after round 1 is stable; the other fixtures split in
        # round 1 and round 2 splits nothing; the blocks take no round
        rounds = {}
        for name, d in fixture_designs.items():
            ctx = incidence(d)
            rounds[name] = (ctx.points.rounds, ctx.blocks.rounds)
        assert rounds == {
            "c1": (1, 0), "c2": (2, 0), "c3": (2, 0), "c4": (2, 0),
            "non_centered": (2, 0),
        }
        ctx = incidence(hyperplane_complements(5))
        assert (ctx.points.rounds, ctx.blocks.rounds) == (1, 0)

    def test_sides_are_refined_on_first_use(self, fixture_designs):
        ctx = incidence(fixture_designs["c2"])
        assert "points" not in vars(ctx) and "blocks" not in vars(ctx)
        ctx.points
        assert "points" in vars(ctx) and "blocks" not in vars(ctx)

    def test_reading_the_blocks_first_fills_the_points(self, fixture_designs):
        ctx = incidence(fixture_designs["c2"])
        blocks = ctx.blocks
        assert "points" in vars(ctx) and "blocks" in vars(ctx)
        fresh = incidence(fixture_designs["c2"])
        assert (ctx.points, blocks) == (fresh.points, fresh.blocks)

    # the key of the one equitable step; that its classes are the refined
    # ones is asserted with the oracle above and in TestOneSignatureExit
    def test_keys_count_the_points_in_each_point_class(self, fixture_designs):
        ctx = incidence(fixture_designs["c4"])
        points = ctx.points.codes
        keys = [
            tuple(sum(1 for x in range(15) if bits >> x & 1 and points[x] == c)
                  for c in range(max(points) + 1))
            for bits in ctx.block_bits
        ]
        assert ctx.blocks.tables == (tuple(sorted(set(keys))),)
        assert [ctx.blocks.tables[0][code] for code in ctx.blocks.codes] == keys


def sorted_counts(masks):
    """bytes(sorted(...)) of the v triple intersection sizes of each pair x < y."""
    return [
        bytes(sorted([(masks[x] & masks[y] & m).bit_count() for m in masks]))
        for x, y in combinations(range(len(masks)), 2)
    ]


def column_ranks(masks):
    return _rank(_pair_signatures(masks))[1]


class TestPairSignatures:
    """The column-wise signatures against the sorted counts they encode:
    equal ranks, so the same pair partition and the same pair codes."""

    @pytest.mark.parametrize("v", [3, 10, 15, 24, 31, 47, 63])
    def test_columns_rank_pairs_as_the_sorted_counts_do(self, v):
        rng = random.Random(400 + v)
        for density in (0.1, 0.5, 0.9, 1.0):
            masks = [
                sum(1 << i for i in range(v) if rng.random() < density) for _ in range(v)
            ]
            assert column_ranks(masks) == _rank(sorted_counts(masks))[1]

    def test_designs_rank_pairs_as_the_sorted_counts_do(self, fixture_designs):
        for d in [*fixture_designs.values(), hyperplane_complements(5)]:
            ctx = incidence(d)
            for masks in (ctx.point_in_blocks, ctx.block_bits):
                assert column_ranks(masks) == _rank(sorted_counts(masks))[1]

    def test_every_count_at_the_carry_boundary(self):
        # every triple count is 63, and 63 + (128 - 63) is exactly 128
        full = [(1 << 63) - 1] * 63
        signatures = _pair_signatures(full)
        assert signatures == [bytes([63] * 63)] * (63 * 62 // 2)
        # one bit less in one mask: counts of 62 and 63 side by side
        near = full[:]
        near[5] ^= 1 << 40
        assert column_ranks(near) == _rank(sorted_counts(near))[1]
        assert len(set(column_ranks(near))) == 2

    def test_no_count_reaches_one(self):
        empty = [0] * 15
        assert _pair_signatures(empty) == [b""] * (15 * 14 // 2)
        classes = _refine(empty)
        assert classes.codes == [0] * 15 and classes.rounds == 1


def subset_sums(items):
    """Entry b is the sum of items[j] over the bits j of b."""
    table = [0]
    for item in items:
        table += [t + item for t in table]
    return table


# entry b has a 1 in byte j for each bit j of the byte b
BYTE_LANES = tuple(subset_sums([1 << 8 * j for j in range(8)]))


def transposed(masks):
    """The incidence read the other way: bit z of entry i is bit i of masks[z]."""
    return [
        sum(1 << z for z, m in enumerate(masks) if m >> i & 1)
        for i in range(len(masks))
    ]


def reference_pair_signatures(masks, transpose):
    """The lane-sum pair signatures that the bit planes replaced, as they were.

    One table lookup per byte of masks[x] & masks[y] and one to_bytes per
    pair; for square incidences their bytes are the oracle for the planes.
    """
    v = len(masks)
    # lanes[i] has a 1 in byte z when masks[z] has bit i, so summing the
    # lanes over the bits of masks[x] & masks[y] counts the triple
    # intersection of x, y and z in byte z. A triple count is at most
    # lambda <= 16 in a design and at most v <= 63 for any masks, as
    # ElementSet caps ground sets at 63 points, so no byte overflows into
    # the next one, which would make the counts depend on the labeling.
    # lanes[i] is transpose[i] with its bits spread one to a byte.
    lanes = []
    for t in transpose:
        lane = 0
        for k in range(0, v, 8):
            lane |= BYTE_LANES[t >> k & 255] << 8 * k
        lanes.append(lane)
    # sums[k][b] is the sum of lanes[8k + j] over the bits j of the byte b,
    # so the lane sum of a mask is one lookup per byte
    sums = [subset_sums(lanes[k:k + 8]) for k in range(0, v, 8)]
    totals = []
    for x, y in combinations(range(v), 2):
        m = masks[x] & masks[y]
        total = 0
        for table in sums:
            total += table[m & 255]
            m >>= 8
        totals.append(total.to_bytes(v, "little"))
    # column z holds byte z of every pair's counts, one pair to a byte
    cube = b"".join(totals)
    pairs = len(totals)
    columns = [int.from_bytes(cube[z::v], "little") for z in range(v)]
    ones = int.from_bytes(b"\1" * pairs, "little")
    counts = []
    for c in range(1, v + 1):
        # a count plus 128 - c reaches bit 7 of its byte exactly when the
        # count reaches c, and is at most 63 + 127 < 256, so no byte
        # carries; the sum over the v columns stays below 64
        bias = (128 - c) * ones
        reached = sum([(column + bias) >> 7 & ones for column in columns])
        if not reached:
            # no pair reaches c, so none reaches a larger one
            break
        counts.append(reached.to_bytes(pairs, "little"))
    # byte c - 1 of pair i is byte i of counts[c - 1]
    grid = b"".join(counts)
    return [grid[i::pairs] for i in range(pairs)]


def random_masks(rows, width, density, rng):
    return [
        sum(1 << i for i in range(width) if rng.random() < density) for _ in range(rows)
    ]


class TestPlanesAgainstLanes:
    """The bit-plane signatures byte for byte against the lane sums."""

    @pytest.mark.parametrize("v", range(2, 64))
    def test_random_incidences(self, v):
        # widths 2..63 end in byte chunks of 1 to 8 bits and nibbles of 1 to 4
        rng = random.Random(500 + v)
        for density in (0.1, 0.5, 0.9, 1.0):
            masks = random_masks(v, v, density, rng)
            assert _pair_signatures(masks) == reference_pair_signatures(
                masks, transposed(masks)
            )

    def test_both_sides_of_designs(self, fixture_designs):
        ds = [
            *fixture_designs.values(), hyperplane_complements(5), hyperplane_complements(6),
            *[paley_design(q) for q in (7, 11, 19, 23, 31, 43, 47, 59)],
        ]
        for d in ds:
            ctx = incidence(d)
            for masks in (ctx.point_in_blocks, ctx.block_bits):
                assert _pair_signatures(masks) == reference_pair_signatures(
                    masks, transposed(masks)
                )

    @pytest.mark.parametrize("n", [1, 3, 5, 8, 9, 20, 31, 40, 63])
    def test_rectangular_incidences_rank_as_the_sorted_counts(self, n):
        # r masks of n bits: the counts reach up to n and the planes run to
        # bit n - 1 whether n is below r or above it
        rng = random.Random(600 + n)
        for r in range(2, 40):
            for density in (0.3, 0.7, 1.0):
                masks = random_masks(r, n, density, rng)
                assert column_ranks(masks) == _rank(sorted_counts(masks))[1]


def reference_refine(masks):
    """The refinement as it was before it stopped at one pair signature,
    on the lane-sum signatures: every side builds the pair matrix and ranks
    its sorted rows, whatever its number of signatures."""
    v = len(masks)
    signature_table, pair_codes = _rank(reference_pair_signatures(masks, transposed(masks)))
    pair_codes = [code + 1 for code in pair_codes]
    pair = [[0] * v for _ in range(v)]
    end = 0
    for x, row in enumerate(pair):
        start, end = end, end + v - x - 1
        row[x + 1:] = pair_codes[start:end]
    for x, column in enumerate(list(zip(*pair))):
        pair[x][:x] = column[:x]

    table, codes = _rank([tuple(sorted(row)) for row in pair])
    tables = [signature_table, table]
    while 1 < len(table) and len(tables) < 4:
        count = len(table)
        shifted = [code << _CODE_SHIFT for code in codes]
        table, codes = _rank([
            (code, tuple(sorted(map(or_, shifted, row))))
            for code, row in zip(codes, pair)
        ])
        tables.append(table)
        if len(table) == count:
            break
    return _Classes(codes, tuple(tables))


class TestOneSignatureExit:
    """The refinement that stops when every pair has one signature, against
    the reference that always builds the pair matrix, on the inputs the
    partition oracle above does not take: the same codes and tables. The
    fixtures, the hyperplane complements and the random incidences are
    checked against it there."""

    @pytest.mark.parametrize("q", [7, 11, 19, 23, 31, 43, 47, 59])
    def test_paley_designs(self, q):
        ctx = incidence(paley_design(q))
        for masks in (ctx.point_in_blocks, ctx.block_bits):
            assert _refine(masks) == reference_refine(masks)
        assert_blocks_as_refined(ctx)

    def test_every_incidence_up_to_three_indices(self):
        # v = 1 has no pair and keeps the general path; v = 2 has one pair,
        # so one signature; v = 3 has both kinds, the all-zero masks included
        for v in (1, 2, 3):
            for masks in product(range(1 << v), repeat=v):
                assert _refine(list(masks)) == reference_refine(list(masks))
        assert _refine([0] * 15) == reference_refine([0] * 15)

    def test_one_signature_ranks_no_row_keys(self, fixture_designs, monkeypatch):
        # on PG(4,2) only the pair signatures are ranked; on C2, with two
        # signatures, round 1 ranks the 15 sorted rows as before
        ranked = []
        rank = _rank

        def spying(keys):
            ranked.append(keys)
            return rank(keys)

        monkeypatch.setattr("simplex_designs.search._rank", spying)
        ctx = incidence(hyperplane_complements(5))
        for masks in (ctx.point_in_blocks, ctx.block_bits):
            ranked.clear()
            classes = _refine(masks)
            assert [len(keys) for keys in ranked] == [31 * 30 // 2]
            assert classes.rounds == 1 and len(classes.tables[0]) == 1
        ranked.clear()
        classes = _refine(incidence(fixture_designs["c2"]).point_in_blocks)
        assert classes.rounds == 2
        assert [len(keys) for keys in ranked] == [15 * 14 // 2, 15, 15]


class TestContextOnTheDesign:
    def test_triple_counts_are_taken_once_per_fresh_design(self, fixture_designs, monkeypatch):
        # one pair-signature pass per fresh design, on its points: the blocks
        # take their classes from the point classes
        calls = []
        signatures = _pair_signatures

        def counting(masks):
            calls.append(len(masks))
            return signatures(masks)

        monkeypatch.setattr("simplex_designs.search._pair_signatures", counting)
        rng = random.Random(113)
        for d in [*fixture_designs.values(), hyperplane_complements(5)]:
            calls.clear()
            d1 = Design(d.blocks)
            assert find_isomorphism(d1, d1.relabeled(Permutation.random(d.v, rng))) is not None
            assert calls == [d.v, d.v]
            calls.clear()
            automorphism_group(Design(d.blocks))
            assert calls == [d.v]

    def test_each_side_is_refined_once_per_design(self, fixture_designs, monkeypatch):
        d1 = Design(fixture_designs["c2"].blocks)
        refined = []
        refine = _refine

        def counting(masks):
            refined.append(masks)
            return refine(masks)

        monkeypatch.setattr("simplex_designs.search._refine", counting)
        rng = random.Random(107)
        for _ in range(10):
            assert find_isomorphism(d1, d1.relabeled(Permutation.random(15, rng))) is not None
        ctx = d1._context
        # the points alone: the blocks take their classes from the points
        assert sum(masks is ctx.point_in_blocks for masks in refined) == 1
        assert not any(masks is ctx.block_bits for masks in refined)
        # and each relabeling its points once
        assert len(refined) == 1 + 10

    def test_the_cache_is_not_part_of_the_value(self, fixture_designs):
        d = Design(fixture_designs["c3"].blocks)
        fresh = Design(d.blocks)
        d._context.points
        assert "_context" in vars(d) and "_context" not in vars(fresh)
        assert d == fresh and hash(d) == hash(fresh) and repr(d) == repr(fresh)

    def test_pickles_and_copies_leave_the_cache_behind(self):
        d = hyperplane_complements(5)
        before = pickle.dumps(d)
        automorphism_group(d)
        assert "_context" in vars(d)
        assert len(pickle.dumps(d)) == len(before)
        for copied in (pickle.loads(pickle.dumps(d)), copy.copy(d), copy.deepcopy(d)):
            assert copied == d and hash(copied) == hash(d)
            assert "_context" not in vars(copied)
            # refined again on first use, to the same classes
            assert copied._context is not d._context
            assert copied._context.points == d._context.points
            assert copied._context.blocks == d._context.blocks


# Witness images of find_isomorphism from each fixture onto two relabelings
# and from the PG(4,2) hyperplane complements onto one, the relabelings drawn
# in this order from random.Random(1013). Recorded with the three-round
# refinement that the oracle above keeps, branching on the undecided point
# with most candidates.
WITNESSES = {
    ("c1", 0): (1, 2, 13, 3, 6, 15, 9, 4, 5, 11, 7, 8, 14, 10, 12),
    ("c1", 1): (1, 2, 10, 3, 7, 14, 8, 4, 13, 9, 15, 11, 6, 12, 5),
    ("c2", 0): (7, 1, 11, 2, 6, 4, 9, 8, 14, 13, 15, 3, 10, 12, 5),
    ("c2", 1): (7, 1, 3, 2, 14, 5, 13, 10, 6, 12, 11, 8, 15, 9, 4),
    ("c3", 0): (6, 10, 12, 1, 4, 9, 15, 7, 3, 13, 5, 2, 8, 11, 14),
    ("c3", 1): (11, 1, 13, 2, 3, 10, 5, 4, 14, 7, 9, 6, 8, 15, 12),
    ("c4", 0): (1, 7, 14, 15, 11, 4, 8, 2, 9, 6, 3, 5, 12, 13, 10),
    ("c4", 1): (3, 10, 15, 6, 14, 8, 7, 1, 2, 13, 11, 9, 5, 4, 12),
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
            assert " stage=points " in message


class TestIsomorphismLogging:
    def test_one_record_with_the_settling_stage(self, fixture_designs, caplog):
        d = fixture_designs["c3"]
        e = relabeled(d, 73)
        witness, message = isomorphism_record(caplog, d, e)
        assert witness is not None
        assert message.startswith("find_isomorphism v=15 stage=search ")
        assert "point_rounds=2/2 " in message
        fields = dict(item.split("=") for item in message.split()[1:])
        assert int(fields["leaves"]) >= 1
        assert int(fields["propagations"]) >= 1

        witness, message = isomorphism_record(caplog, d, fixture_designs["c1"])
        assert witness is None
        assert message == (
            "find_isomorphism v=15 stage=points point_rounds=2/1"
            " leaves=0 propagations=0 cuts=0"
        )

    def test_rejected_record_ignores_earlier_calls(self, fixture_designs, caplog):
        # the classes of d1 stay on it after a search, and a call rejected
        # at the points prints the work of that call alone
        d1 = Design(fixture_designs["c2"].blocks)
        witness, message = isomorphism_record(caplog, d1, relabeled(d1, 109))
        assert witness is not None and " stage=search " in message
        witness, message = isomorphism_record(caplog, d1, relabeled(fixture_designs["c1"], 127))
        assert witness is None
        assert message == (
            "find_isomorphism v=15 stage=points point_rounds=2/1"
            " leaves=0 propagations=0 cuts=0"
        )

    def test_v31_record(self, caplog):
        d = hyperplane_complements(5)
        witness, message = isomorphism_record(caplog, d, relabeled(d, 79))
        assert witness is not None
        assert message.startswith(
            "find_isomorphism v=31 stage=search point_rounds=1/1 "
        )

    def test_silent_at_info(self, fixture_designs, caplog):
        with caplog.at_level(logging.INFO, logger=LOGGER):
            find_isomorphism(fixture_designs["c2"], relabeled(fixture_designs["c2"], 83))
            find_isomorphism(fixture_designs["c2"], fixture_designs["c4"])
        assert not caplog.records

    def test_refinement_does_not_log(self, fixture_designs, caplog):
        with caplog.at_level(logging.DEBUG, logger=LOGGER):
            ctx = incidence(fixture_designs["c4"])
            ctx.points, ctx.blocks
        assert not caplog.records
