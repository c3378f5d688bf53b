"""Individualisation-refinement search on the incidence bitmasks of a
symmetric design.

The search runs on an ``Incidence``: the v block bitmasks of a symmetric
design on the points 0..v-1, as plain ints. Its points are refined when
first asked for, at most once per Incidence: a class code is a rank among
the sorted keys of its round, so it depends on the design alone and stays
valid for every later comparison. The base invariant of a point triple is
the number of blocks containing all three. Pair signatures over it seed a
colour refinement that stops at the first round splitting no class, and
before any per-pair work when every pair has the same signature, as then
no class can split. The blocks take one equitable step from the point
classes: a block's key counts its points in each point class, which an
isomorphism keeps, as it maps each point class onto the class with the
same code, so the root lines the block codes of both sides up whenever an
isomorphism exists. isomorphism_search rejects most non-isomorphic pairs
on the point classes, and a design's triple counts are refined once, on its
points.
The classes carve the candidate sets, then a backtracking search assigns
point images, narrowing the candidates of every point and every block of
the bipartite incidence structure after each choice.

The candidates of one side live in one int (``_Fields``): row x in bits
x*w to x*w + v - 1, where w is v + 1 rounded up to a multiple of 8, under
a guard bit x*w + v that stays zero like the bits above it, so adding up
to 2**v - 1 to a row, or taking 1 from a row whose guard is set, never
carries into the next row. Three tests read every row at once:
(m + low) & high != high when some row is empty, as the sum reaches the
guard of every nonempty row; ~((((m | high) - ones) & m) + low) & high
marks the rows with at most one bit, as ((m | high) - ones) & m clears
the lowest bit of each row; and, as every row fills whole bytes, a
byte-wise popcount summed over each row's bytes counts every row, which
is how branch_point finds the row with most candidates without a loop.
The largest cell goes first: all 168 collineations of the Fano plane on
C4's 7-point class survive propagation, 21 extend, and fixing those 7
points first walked each to the bottom.
Each narrowing rule is one AND on the other side: a decided point x -> y
keeps every block on the blocks through y or off them, as x lies in it or
not, and a decided block does the same to the points. The rules only
clear bits and stay true in narrower states, so applying them in any
order until neither changes anything ends in the same state, the largest
below the start in which both hold; batches of decided rows give the
states and work counts of a row-by-row queue.
The all-different rule is applied once, as fix clears y from the other
point rows, and adds nothing elsewhere. A block row is its class cut by
the pattern of the decided points, so blocks a != a' that share a
candidate c have equal rows, are decided in one batch and send every
point of a ^ a', which is not empty, both into c and out of it: the same
call wipes out. Points that fix did not set go the same way, as some
block holds one of two points and not the other (k > lambda); a point
decided at the root is alone in its class when the profiles agree.

isomorphism_search and automorphism_search drive the search; each returns
the ``Search`` it ran, whose leaves, propagations and cuts count the work.
"""

from functools import cached_property
from operator import or_
from typing import NamedTuple

from .errors import InternalCheckError
from .groups import orbit_of
from .subsets import set_bits

# a class code is packed above a pair code in one int while refining; a
# pair code is at most v(v-1)/2 < 2**11, as v <= 63
_CODE_SHIFT = 16


def _subset_sums(items: list[int]) -> list[int]:
    """Entry b is the sum of items[j] over the bits j of b."""
    table = [0]
    for item in items:
        table += [t + item for t in table]
    return table


class _Classes(NamedTuple):
    """Refined classes of one side: a code per index, and the sorted tables
    the codes rank. For the points these are the distinct pair signatures
    and then the distinct keys of each round; for the blocks, the distinct
    point-class counts alone, with no round."""

    codes: list[int]
    tables: tuple[tuple, ...]

    @property
    def rounds(self) -> int:
        return len(self.tables) - 1

    @property
    def profile(self) -> tuple:
        return self.tables, sorted(self.codes)


def _rank(keys: list) -> tuple[tuple, list[int]]:
    """The distinct keys in sorted order, and the rank of each key among them."""
    table = sorted(set(keys))
    rank = dict(zip(table, range(len(table))))
    return tuple(table), [rank[key] for key in keys]


def _pair_signatures(masks: list[int]) -> list[bytes]:
    """The signature of each pair x < y, in combinations order: byte c - 1
    counts the z with |masks[x] & masks[y] & masks[z]| >= c, for c up to
    the largest such count. This encodes the multiset of the pair's triple
    counts, and orders signatures as the sorted counts would, as the
    smallest count whose multiplicity differs decides both orders. When
    every count is the same in every pair, every pair gets one bytes object.

    Each big int below holds one byte per pair, in combinations order. A
    triple count is at most the bit width of the masks, and the number of
    z whose count reaches c at most len(masks), so no byte carries into the
    next while the masks are at most 127 bits wide and at most 255 in
    number; ElementSet caps both at 63.
    """
    r = len(masks)
    width = max(masks, default=0).bit_length()
    pairs = r * (r - 1) // 2
    ones = int.from_bytes(b"\1" * pairs, "little")
    size = (width + 7) // 8
    flat = b"".join([m.to_bytes(size, "little") for m in masks])
    # planes[i] has a 1 in the byte of each pair whose masks share bit i:
    # byte k of the masks, written once per pair for its first member and
    # once for its second, ANDed, holds bits 8k to 8k + 7 of every pair
    planes = []
    for k in range(size):
        row = flat[k::size]
        first = b"".join([row[x:x + 1] * (r - x - 1) for x in range(r)])
        second = b"".join([row[x + 1:] for x in range(r)])
        both = int.from_bytes(first, "little") & int.from_bytes(second, "little")
        planes += [both >> j & ones for j in range(min(8, width - 8 * k))]
    # column z sums the planes of the bits of masks[z], which counts the
    # triple intersection of every pair with z, a nibble per lookup
    tables = [_subset_sums(planes[i:i + 4]) for i in range(0, width, 4)]
    columns = []
    for m in masks:
        column = 0
        for table in tables:
            column += table[m & 15]
            m >>= 4
        columns.append(column)
    counts = []
    # whether every pair has reached each c equally often so far
    uniform = True
    for c in range(1, width + 1):
        # a count plus 128 - c reaches bit 7 of its byte exactly when the
        # count reaches c, and stays below 256
        bias = (128 - c) * ones
        reached = sum([(column + bias) >> 7 & ones for column in columns])
        if not reached:
            # no pair reaches c, so none reaches a larger one
            break
        uniform = uniform and reached == (reached & 255) * ones
        counts.append(reached.to_bytes(pairs, "little"))
    if uniform:
        # every pair has the signature of pair 0: byte 0 of each count
        return [bytes([count[0] for count in counts])] * pairs
    # byte c - 1 of pair i is byte i of counts[c - 1]
    grid = b"".join(counts)
    return [grid[i::pairs] for i in range(pairs)]


def _refine(masks: list[int]) -> _Classes:
    """Classes of the indices of masks under their triple intersection
    counts; ``Incidence`` refines its points with it, and derives the
    blocks from the point classes without it.

    The pair signature of x and y stands for the sorted sizes of masks[x] &
    masks[y] & masks[z] over every z (``_pair_signatures``); z = x and z = y
    add lambda twice to every signature, the same constant everywhere. Round
    1 splits the indices by their multisets of pair signatures, and each
    later round by the multiset of (class, pair signature) over the other
    indices. The refinement stops after the first round that splits no
    class, after at most 3 rounds; one class after round 1 is already
    stable. When every pair has the same signature, every row of the pair
    matrix is one 0 and v - 1 equal codes, so round 1 gives one class: the
    refinement returns it at once, with no pair codes, pair matrix or row
    sorts. A pair code is 1 plus the rank of its signature among the
    distinct signatures in sorted order, and a class code the rank of its
    round's key among that round's distinct keys, so the codes depend on the
    structure alone: two sides with equal ``tables`` give equal codes
    exactly to equal structures.
    """
    v = len(masks)
    signature_table, pair_codes = _rank(_pair_signatures(masks))
    if len(signature_table) == 1:
        # the round-1 key of every index, and one class is stable
        return _Classes([0] * v, (signature_table, ((0,) + (1,) * (v - 1),)))
    pair_codes = [code + 1 for code in pair_codes]
    # pair codes count from 1, so the 0 at pair[x][x] adds to the key of x
    # an element set by the class of x alone, and keys compare as without it;
    # row x takes its pairs with larger indices from the combinations order,
    # and the rest from its column once every row has them
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


class _Fields:
    """v rows of v bits in one int, row x in the w bits from x*w, where w is
    v + 1 rounded up to whole bytes: bit v of a row is a guard that stays
    zero, and so do the bits above it."""

    __slots__ = (
        "v", "w", "full", "ones", "low", "high", "copies",
        "m55", "m33", "m0f", "row_sum", "length", "tops", "folds",
    )

    def __init__(self, v: int):
        w = (v + 8) // 8 * 8
        self.v, self.w, self.full = v, w, (1 << v) - 1
        # the lowest bit, the value bits and the guard bit of every field
        self.ones = ((1 << w * v) - 1) // ((1 << w) - 1)
        self.low, self.high = self.ones * self.full, self.ones << v
        # a 1 every w - 1 bits, so mask * copies holds copy i of a row at
        # i*(w - 1), and its bit i at i*w
        self.copies = ((1 << (w - 1) * v) - 1) // ((1 << w - 1) - 1)
        # the SWAR masks of a byte-wise popcount, and a 1 in each byte of a
        # row: times the byte counts, it sums each row into the top byte of
        # its field, the bytes tops picks out of the length bytes it fills
        bytes_ = ((1 << w * v) - 1) // 255
        self.m55, self.m33, self.m0f = bytes_ * 0x55, bytes_ * 0x33, bytes_ * 0x0F
        self.row_sum = ((1 << w) - 1) // 255
        stride = w // 8
        self.length, self.tops = (v + 1) * stride - 1, slice(stride - 1, None, stride)
        # after packed |= packed >> s for each s, field 0 ORs 2**len(folds) >= v rows
        self.folds = [w << j for j in range((v - 1).bit_length())]

    def spread(self, mask: int) -> int:
        """Bit i of mask moved to the lowest bit of field i (i*(w - 1) + i = i*w)."""
        return mask * self.copies & self.ones

    def row(self, packed: int, x: int) -> int:
        return packed >> x * self.w & self.full

    def rows(self, packed: int) -> list[int]:
        """Every row of packed, the inverse of pack."""
        w, full = self.w, self.full
        return [packed >> x * w & full for x in range(self.v)]

    def pack(self, rows) -> int:
        """One int with rows[x] in field x."""
        w = self.w
        return sum(r << x * w for x, r in enumerate(rows))

    def move(self, packed: int, images) -> int:
        """Every row with each bit i moved to bit images[i] (a 0-based point
        map): one column of all rows at a time, so v steps for v rows."""
        ones, out = self.ones, 0
        for i, y in enumerate(images):
            out |= (packed >> i & ones) << y
        return out

    def union(self, packed: int) -> int:
        """The OR of every row."""
        for shift in self.folds:
            packed |= packed >> shift
        return packed & self.full

    def decided(self, packed: int) -> int:
        """The guard bits of the rows with at most one bit."""
        return ~((((packed | self.high) - self.ones) & packed) + self.low) & self.high


class Incidence:
    """The v block bitmasks of a design on v points and, on first use, its
    classes. ``points`` are refined by their triple counts (``_refine``),
    which stops at its first round that splits no class and records how many
    rounds it ran. ``blocks`` take one equitable step from the point
    classes, with 0 rounds: a block's key is the number of its points in
    each point class, in point-code order, and its code the rank of that key
    among the distinct keys. Both are lazy, and reading ``blocks`` reads
    ``points``; isomorphism_search compares the points, and the block codes
    are read only by ``Search.root``. The codes of a side depend on the
    masks alone, so an incidence is classified once and compared with any
    other; ``Design._context`` keeps one per design.
    """

    def __init__(self, block_bits):
        v = len(block_bits)
        self.v = v
        self.fields = fields = _Fields(v)
        self.block_bits = list(block_bits)
        self.incidence = fields.pack(self.block_bits)
        # field x of the sum of the spread blocks a, each shifted by a,
        # holds the blocks through point x
        packed = 0
        for a, bits in enumerate(self.block_bits):
            packed |= fields.spread(bits) << a
        self.point_in_blocks = fields.rows(packed)

    def relabeled(self, images) -> list[int]:
        """The block masks in block order, each point x moved to images[x] (0-based):
        the one relabeling of the packed format, which only this module reads."""
        return self.fields.rows(self.fields.move(self.incidence, images))

    @cached_property
    def points(self) -> _Classes:
        return _refine(self.point_in_blocks)

    @cached_property
    def blocks(self) -> _Classes:
        points = self.points
        classes = [0] * len(points.tables[-1])
        for x, code in enumerate(points.codes):
            classes[code] |= 1 << x
        table, codes = _rank([
            tuple([(bits & members).bit_count() for members in classes])
            for bits in self.block_bits
        ])
        return _Classes(codes, (table,))


class Search:
    """First-hit backtracking from ctx1 onto ctx2 over packed candidate sets.

    A state is a tuple (p, b, decided_p, decided_b). Row x of p, read with
    ``fields.row``, is the bitmask of the points of ctx2 that point x of
    ctx1 may still map to; b holds the blocks the same way. decided_p and
    decided_b are the guard bits of the rows with one candidate.
    ``propagations``, ``leaves`` and ``cuts`` count the work.
    """

    def __init__(self, ctx1: Incidence, ctx2: Incidence):
        self.ctx1 = ctx1
        self.ctx2 = ctx2
        self.v = ctx1.v
        self.fields = ctx1.fields
        self.propagations = 0
        self.leaves = 0
        self.cuts = 0

    @cached_property
    def _tables(self):
        """The AND masks of the incidence rules, built on first use.

        For point x sent to y, in_points[x] fills the fields of the blocks
        through x with ones and rep_points[y] puts the blocks of ctx2
        missing y in every field, so their XOR keeps the blocks through x on
        blocks through y and the rest off them. The block tables do the same
        for a block sent to a block.
        """
        ctx1, ctx2, fields = self.ctx1, self.ctx2, self.fields
        full, ones = fields.full, fields.ones
        return (
            [fields.spread(blocks) * full for blocks in ctx1.point_in_blocks],
            [ones * (full ^ blocks) for blocks in ctx2.point_in_blocks],
            [fields.spread(points) * full for points in ctx1.block_bits],
            [ones * (full ^ points) for points in ctx2.block_bits],
        )

    def root(self):
        """The propagated state the refined classes allow; None if it is empty."""
        ctx1, ctx2 = self.ctx1, self.ctx2
        sides = []
        for classes1, classes2 in ((ctx1.points, ctx2.points), (ctx1.blocks, ctx2.blocks)):
            images = {}
            for y, code in enumerate(classes2.codes):
                images[code] = images.get(code, 0) | 1 << y
            rows = [images.get(code, 0) for code in classes1.codes]
            if 0 in rows:
                return None
            sides.append(self.fields.pack(rows))
        p, b = sides
        decided_p, decided_b = self.fields.decided(p), self.fields.decided(b)
        return self.propagate(p, b, decided_p, decided_b, decided_p, decided_b)

    def fix(self, state, x: int, y: int):
        """The state with point x sent to its candidate y, propagated; None on
        a wipe-out. One AND keeps y alone in row x and clears it elsewhere."""
        p, b, decided_p, decided_b = state
        f = self.fields
        shift = x * f.w
        guard = 1 << shift + f.v
        p &= f.low ^ f.ones << y ^ f.full << shift
        return self.propagate(p, b, decided_p | guard, decided_b, guard, 0)

    def branch_point(self, state) -> int | None:
        """The undecided point with most candidates, lowest first; None at a leaf.

        Three SWAR steps count the bits of each byte, and the product with
        row_sum adds each row's bytes up in its top byte, at most w <= 64,
        so nothing carries. A row of two or more is undecided.
        """
        f = self.fields
        p = state[0]
        p -= p >> 1 & f.m55
        p = (p & f.m33) + (p >> 2 & f.m33)
        p = (p + (p >> 4)) & f.m0f
        counts = (p * f.row_sum).to_bytes(f.length, "little")[f.tops]
        most = max(counts)
        return counts.index(most) if most > 1 else None

    def first_hit(self, state) -> tuple[int, ...] | None:
        """Point images (0-based) of the first isomorphism below state, largest cell first."""
        x = self.branch_point(state)
        if x is None:
            self.leaves += 1
            images = tuple([r.bit_length() - 1 for r in self.fields.rows(state[0])])
            if len(set(images)) == self.v and _is_isomorphism(self.ctx1, self.ctx2, images):
                return images
            return None
        # some block must go to each block of ctx2, which propagation misses as
        # no row empties; uncovered blocks were seen only before any block is decided
        if not state[3] and self.fields.union(state[1]) != self.fields.full:
            self.cuts += 1
            return None
        for y in set_bits(self.fields.row(state[0], x)):
            child = self.fix(state, x, y)
            if child is not None:
                images = self.first_hit(child)
                if images is not None:
                    return images
        return None

    def propagate(self, p: int, b: int, decided_p: int, decided_b: int,
                  new_p: int, new_b: int):
        """The narrowed state; None when some candidate set empties.

        new_p and new_b are the guard bits of the decided rows whose rules p
        and b do not carry yet. A decided point x -> y keeps each block's
        candidates inside or outside the blocks through y, as x lies in that
        block or not; a decided block does the same with the roles of points
        and blocks swapped. No rule narrows its own side.
        """
        self.propagations += 1
        f = self.fields
        v, w, full, ones, low, high = f.v, f.w, f.full, f.ones, f.low, f.high
        in_points, rep_points, in_blocks, rep_blocks = self._tables
        while new_p or new_b:
            # a point rule may empty a block decided in the same batch, so
            # the batch reads block images off the state it was found in
            b0 = b
            # the guard bits lowest first, inline: a set_bits generator here
            # resumes once per decided row of every call
            while new_p:
                guard = new_p & -new_p
                new_p ^= guard
                shift = guard.bit_length() - 1 - v
                y = (p >> shift & full).bit_length() - 1
                b &= rep_points[y] ^ in_points[shift // w]
            while new_b:
                guard = new_b & -new_b
                new_b ^= guard
                shift = guard.bit_length() - 1 - v
                c = (b0 >> shift & full).bit_length() - 1
                p &= rep_blocks[c] ^ in_blocks[shift // w]
            if (p + low) & high != high or (b + low) & high != high:
                return None
            # _Fields.decided of both sides, inline on the hot path
            now_p = ~((((p | high) - ones) & p) + low) & high
            now_b = ~((((b | high) - ones) & b) + low) & high
            new_p, new_b = now_p & ~decided_p, now_b & ~decided_b
            decided_p, decided_b = now_p, now_b
        return p, b, decided_p, decided_b


def _is_isomorphism(ctx1, ctx2, images) -> bool:
    """Whether the bijection images carries the blocks of ctx1 onto those of ctx2."""
    return set(ctx1.relabeled(images)) == set(ctx2.block_bits)


def isomorphism_search(ctx1: Incidence, ctx2: Incidence):
    """The stage that decided ("points" or "search"), the 0-based point
    images of the first isomorphism of ctx1 onto ctx2 or None, and the
    search. The point classes are compared first, and the search runs only
    when they agree. The block classes need no stage of their own: they
    are derived from the point classes, so when an isomorphism exists its
    sides have the same block keys and the root lines their codes up, and
    when none exists the search, which checks every leaf, finds none.
    """
    search = Search(ctx1, ctx2)
    if ctx1.points.profile != ctx2.points.profile:
        return "points", None, search
    state = search.root()
    images = None if state is None else search.first_hit(state)
    return "search", images, search


def automorphism_search(ctx: Incidence):
    """The base, orbit sizes and generators (0-based image tuples) of the
    automorphism group, found one coset of a point stabilizer at a time, and
    the search that ran.

    The identity path of the search gives a base b_0, ..., b_{r-1}: b_i is
    the branch point (the undecided point with most candidates; C4's base
    is [8, 1, 9] in 1-based points) once b_0, ..., b_{i-1} are fixed and
    propagated, and fixing them all decides every point. From the deepest
    level up, every candidate image y of b_i outside the orbit of b_i under
    the generators found so far gets one first-hit search with b_i -> y. A
    hit is an automorphism fixing b_0, ..., b_{i-1}, checked block by block,
    and becomes a generator. The order is the product of the orbit sizes
    (the individualisation scheme of McKay & Piperno, "Practical graph
    isomorphism II", 2014).
    """
    search = Search(ctx, ctx)
    state = search.root()
    path = []
    while state is not None and (x := search.branch_point(state)) is not None:
        path.append((x, state))
        state = search.fix(state, x, x)
    if state is None:
        raise InternalCheckError("automorphism search lost the identity")

    generators: list[tuple[int, ...]] = []
    orbit_sizes = []
    for x, state in reversed(path):
        deeper = tuple(generators)
        orbit = orbit_of(x, generators)
        rejected: set[int] = set()
        for y in set_bits(ctx.fields.row(state[0], x)):
            if y in orbit or y in rejected:
                continue
            child = search.fix(state, x, y)
            images = None if child is None else search.first_hit(child)
            if images is None:
                # the deeper generators fix x, so no image of y under them
                # is in the orbit of x either
                rejected |= orbit_of(y, deeper)
            else:
                generators.append(images)
                orbit = orbit_of(x, generators)
        orbit_sizes.append(len(orbit))
    orbit_sizes.reverse()
    return [x for x, _ in path], orbit_sizes, generators, search
