"""Symmetric (n, 2m, m)-designs from cliques, Hadamard matrices, and the
isomorphism / automorphism machinery.

A design here is an ordered list of n blocks over n points; validity means
every block has 2m points and two distinct blocks meet in exactly m points.
Design and HadamardMatrix check themselves when built, so every value of
either type is valid and nothing downstream checks it again. Incidence 1
corresponds to entry -1 of the associated normalized Hadamard matrix, so the
0/1 rendering of the matrix reproduces the incidence rows bit for bit
inside a border of zeros.
"""

import logging
import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import NamedTuple

from .cliques import Clique
from .errors import InternalCheckError, InvariantError, ParseError
from .geometry import geometry_for_ground
from .subsets import ElementSet, Permutation, apply, map_bits, set_bits


@dataclass(frozen=True)
class Design:
    blocks: tuple[ElementSet, ...]

    @classmethod
    def from_blocks(cls, blocks) -> "Design":
        return cls(tuple(blocks))

    @property
    def v(self) -> int:
        return len(self.blocks)

    @property
    def block_size(self) -> int:
        return (self.v + 1) // 2

    @property
    def lambda_(self) -> int:
        return (self.v + 1) // 4

    def __post_init__(self):
        v = self.v
        if v < 3 or (v + 1) % 4 != 0:
            raise InvariantError(f"{v} points do not fit the 4t-1 pattern")
        t = (v + 1) // 4
        for i, b in enumerate(self.blocks):
            if b.ground_size != v:
                raise InvariantError(f"block {i + 1} lives on the wrong ground set")
            if len(b) != 2 * t:
                raise InvariantError(
                    f"block {i + 1} has {len(b)} points, expected {2 * t}"
                )
        for i, j in combinations(range(v), 2):
            got = (self.blocks[i].bits & self.blocks[j].bits).bit_count()
            if got != t:
                raise InvariantError(
                    f"blocks {i + 1} and {j + 1} meet in {got} points, expected {t}"
                )

    def block_set(self) -> frozenset[int]:
        return frozenset(b.bits for b in self.blocks)

    def relabeled(self, p: Permutation) -> "Design":
        return Design(tuple(apply(p, b) for b in self.blocks))


def design_from_clique(c: Clique) -> Design:
    """The design whose blocks are the clique points, in ascending bitmask order."""
    n = c.geometry.params.n
    if len(c) != n:
        raise InvariantError(f"clique has {len(c)} points, expected {n}")
    return Design.from_blocks(c.points)


def clique_from_design(d: Design) -> Clique:
    return Clique.from_points(geometry_for_ground(d.v), d.blocks)


# entry -> character of each rendering style of a Hadamard matrix
_STYLES = {"01": {1: "0", -1: "1"}, "pm": {1: "+", -1: "-"}}


@dataclass(frozen=True)
class HadamardMatrix:
    entries: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return len(self.entries)

    def __post_init__(self):
        n = self.order
        if any(len(row) != n or not set(row) <= {1, -1} for row in self.entries):
            raise InvariantError("entries must form a square +-1 matrix")
        # bit j of a row's mask marks a -1 in column j; two +-1 rows of
        # order n are orthogonal exactly when they differ in n/2 places
        masks = [
            sum(1 << j for j, e in enumerate(row) if e == -1) for row in self.entries
        ]
        for i, j in combinations(range(n), 2):
            if 2 * (masks[i] ^ masks[j]).bit_count() != n:
                raise InvariantError(f"rows {i} and {j} are not orthogonal")

    def is_normalized(self) -> bool:
        return all(e == 1 for e in self.entries[0]) and all(
            row[0] == 1 for row in self.entries
        )

    def render(self, style: str = "01") -> str:
        if style not in _STYLES:
            raise InvariantError(f"unknown rendering style {style!r}")
        table = _STYLES[style]
        return "\n".join(
            "".join(table[e] for e in row) for row in self.entries
        )


def to_hadamard(d: Design) -> HadamardMatrix:
    """Normalized Hadamard matrix of order v+1 with -1 at incidences."""
    v = d.v
    first = tuple([1] * (v + 1))
    rows = [first]
    for b in d.blocks:
        rows.append(tuple([1] + [-1 if j in b else 1 for j in range(1, v + 1)]))
    return HadamardMatrix(tuple(rows))


def from_hadamard(h: HadamardMatrix) -> Design:
    """Design read off a normalized Hadamard matrix of order 4t."""
    if h.order % 4 != 0 or h.order < 4:
        raise InvariantError("order must be a positive multiple of 4")
    if not h.is_normalized():
        raise InvariantError("matrix must be normalized")
    v = h.order - 1
    blocks = [
        ElementSet.of([j for j in range(1, v + 1) if row[j] == -1], v)
        for row in h.entries[1:]
    ]
    return Design.from_blocks(blocks)


# ---------------------------------------------------------------------------
# serialization


def render_incidence(d: Design) -> str:
    v = d.v
    return "\n".join(
        "".join("1" if j in b else "0" for j in range(1, v + 1)) for b in d.blocks
    )


def parse_incidence(text: str) -> Design:
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines:
        raise ParseError("empty incidence matrix")
    v = len(lines)
    blocks = []
    for i, line in enumerate(lines):
        if len(line) != v or set(line) - {"0", "1"}:
            raise ParseError(
                f"row {i + 1} must be {v} characters of 0/1, got {line!r}"
            )
        blocks.append(ElementSet.of([j + 1 for j, ch in enumerate(line) if ch == "1"], v))
    return Design(tuple(blocks))


def parse_hadamard(text: str, style: str = "01") -> HadamardMatrix:
    if style not in _STYLES:
        raise ParseError(f"unknown rendering style {style!r}")
    table = {ch: e for e, ch in _STYLES[style].items()}
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines:
        raise ParseError("empty Hadamard matrix")
    rows = []
    for i, line in enumerate(lines):
        if len(line) != len(lines) or set(line) - set(table):
            raise ParseError(f"row {i + 1} is not a valid matrix row: {line!r}")
        rows.append(tuple(table[ch] for ch in line))
    return HadamardMatrix(tuple(rows))


# ---------------------------------------------------------------------------
# isomorphism and automorphism search
#
# Each side of a design, its points and its blocks, is refined on its own
# and only when first asked for. The base invariant of a point triple is
# the number of blocks containing all three, and dually the size of a
# triple block intersection. Pair signatures over these invariants seed a
# colour refinement that stops at the first round splitting no class, so
# find_isomorphism rejects most non-isomorphic pairs on the point side
# before it refines any blocks. The classes carve the candidate sets, then
# a backtracking search assigns point images, narrowing the candidates of
# every point and every block of the bipartite incidence structure after
# each choice.
#
# The candidates of one side live in one int (``_Fields``): row x in bits
# x*w to x*w + v - 1, w = v + 1, under a guard bit x*w + v that stays zero,
# so adding up to 2**v - 1 to a row, or taking 1 from a row whose guard
# is set, never carries into the next row. Two tests read every row at once:
# (m + low) & high != high when some row is empty, as the sum reaches the
# guard of every nonempty row; and ~((((m | high) - ones) & m) + low) & high
# marks the rows with at most one bit, as ((m | high) - ones) & m clears
# the lowest bit of each row. Each narrowing rule is one AND on a side.
# The rules only clear bits and stay true in narrower states, so applying
# them in any order until none changes anything ends in the same state,
# the largest below the start in which all of them hold. Batches of
# decided rows thus give the states, the search tree and the work counts
# of a row-by-row queue.

logger = logging.getLogger(__name__)

# a class code is packed above a pair code in one int while refining; both
# are codes of one label table, far below 2**32 entries
_CODE_SHIFT = 32


def _subset_sums(items: list[int]) -> list[int]:
    """Entry b is the sum of items[j] over the bits j of b."""
    table = [0]
    for item in items:
        table += [t + item for t in table]
    return table


# entry b has a 1 in byte j for each bit j of the byte b
_BYTE_LANES = tuple(_subset_sums([1 << 8 * j for j in range(8)]))


class _Classes(NamedTuple):
    """Refined classes of one side: a code per index and the rounds run."""

    codes: list[int]
    rounds: int

    @property
    def profile(self) -> list[int]:
        return sorted(self.codes)


def _refine(masks: list[int], transpose: list[int], labels: dict) -> _Classes:
    """Classes of the indices of masks under their triple intersection counts.

    The pair signature of x and y is the sorted list of the sizes of
    masks[x] & masks[y] & masks[z] over every z; z = x and z = y add lambda
    twice to every signature, the same constant everywhere. Round 1 splits
    the indices by their multisets of pair signatures, and each later round
    by the multiset of (class, pair signature) over the other indices. The
    refinement stops after the first round that splits no class, after at
    most 3 rounds; one class after round 1 is already stable. Codes come
    from ``labels`` by value, so contexts that share it give equal codes to
    equal structures, and codes of different rounds never coincide.
    ``transpose`` is the incidence read the other way: bit z of
    transpose[i] is bit i of masks[z].
    """
    v = len(masks)
    intern = labels.setdefault
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
            lane |= _BYTE_LANES[t >> k & 255] << 8 * k
        lanes.append(lane)
    # sums[k][b] is the sum of lanes[8k + j] over the bits j of the byte b,
    # so the lane sum of a mask is one lookup per byte
    sums = [_subset_sums(lanes[k:k + 8]) for k in range(0, v, 8)]
    pair = [[0] * v for _ in range(v)]
    for x, y in combinations(range(v), 2):
        m = masks[x] & masks[y]
        total = 0
        for table in sums:
            total += table[m & 255]
            m >>= 8
        signature = bytes(sorted(total.to_bytes(v, "little")))
        pair[x][y] = pair[y][x] = intern(signature, len(labels))

    codes = [
        intern(tuple(sorted(row[:x] + row[x + 1:])), len(labels))
        for x, row in enumerate(pair)
    ]
    rounds = 1
    count = len(set(codes))
    while 1 < count and rounds < 3:
        codes = [
            intern((codes[x], tuple(sorted([
                codes[y] << _CODE_SHIFT | row[y] for y in range(v) if y != x
            ]))), len(labels))
            for x, row in enumerate(pair)
        ]
        rounds += 1
        count, before = len(set(codes)), count
        if count == before:
            break
    return _Classes(codes, rounds)


class _Fields:
    """v rows of v bits in one int, row x in the w = v + 1 bits from x*w,
    the top one a guard that stays zero."""

    __slots__ = ("v", "w", "full", "ones", "low", "high", "copies")

    def __init__(self, v: int):
        self.v, self.w, self.full = v, v + 1, (1 << v) - 1
        # the lowest bit, the value bits and the guard bit of every field
        self.ones = ((1 << self.w * v) - 1) // ((1 << self.w) - 1)
        self.low, self.high = self.ones * self.full, self.ones << v
        # a 1 every v bits, so mask * copies holds copy i of a row at i*v
        self.copies = ((1 << v * v) - 1) // self.full

    def spread(self, mask: int) -> int:
        """Bit i of mask moved to the lowest bit of field i (i*v + i = i*w)."""
        return mask * self.copies & self.ones

    def row(self, packed: int, x: int) -> int:
        return packed >> x * self.w & self.full

    def decided(self, packed: int) -> int:
        """The guard bits of the rows with at most one bit."""
        return ~((((packed | self.high) - self.ones) & packed) + self.low) & self.high


class _DesignContext:
    """Incidence bitmasks of one design and, on first use, its refined classes.

    ``points`` and ``blocks`` are refined separately and lazily, so a caller
    that compares the point classes first pays for the blocks only when the
    points agree. Each side stops refining at its first round that splits
    no class, and records how many rounds it ran. Class codes come from
    ``labels``, a table owned by the caller: contexts that share it give
    equal codes to equal signature structures, so their classes can be
    compared.
    """

    def __init__(self, d: Design, labels: dict):
        v = d.v
        self.v = v
        self.labels = labels
        self.fields = fields = _Fields(v)
        self.block_bits = [b.bits for b in d.blocks]
        # field x of the sum of the spread blocks a, each shifted by a,
        # holds the blocks through point x
        packed = 0
        for a, bits in enumerate(self.block_bits):
            packed |= fields.spread(bits) << a
        self.point_in_blocks = [fields.row(packed, x) for x in range(v)]

    @cached_property
    def points(self) -> _Classes:
        return _refine(self.point_in_blocks, self.block_bits, self.labels)

    @cached_property
    def blocks(self) -> _Classes:
        return _refine(self.block_bits, self.point_in_blocks, self.labels)


class _Search:
    """First-hit backtracking from ctx1 onto ctx2 over packed candidate sets.

    A state is a tuple (p, b, decided_p, decided_b). Row x of p, read with
    ``fields.row``, is the bitmask of the points of ctx2 that point x of
    ctx1 may still map to; b holds the blocks the same way. decided_p and
    decided_b are the guard bits of the rows with one candidate.
    ``propagations`` and ``leaves`` count the work.
    """

    def __init__(self, ctx1: _DesignContext, ctx2: _DesignContext):
        self.ctx1 = ctx1
        self.ctx2 = ctx2
        self.v = ctx1.v
        self.fields = ctx1.fields
        self.propagations = 0
        self.leaves = 0

    @cached_property
    def _tables(self):
        """The AND masks of the narrowing rules, built on first use.

        clear[y] clears column y. For point x sent to y, in_points[x] fills
        the fields of the blocks through x with ones and rep_points[y] puts
        the blocks of ctx2 missing y in every field, so their XOR keeps the
        blocks through x on blocks through y and the rest off them. The
        block tables do the same for a block sent to a block.
        """
        ctx1, ctx2, fields = self.ctx1, self.ctx2, self.fields
        full, ones = fields.full, fields.ones
        return (
            [fields.low ^ ones << y for y in range(self.v)],
            [fields.spread(blocks) * full for blocks in ctx1.point_in_blocks],
            [ones * (full ^ blocks) for blocks in ctx2.point_in_blocks],
            [fields.spread(points) * full for points in ctx1.block_bits],
            [ones * (full ^ points) for points in ctx2.block_bits],
        )

    def root(self):
        """The propagated state the refined classes allow; None if it is empty."""
        ctx1, ctx2, w = self.ctx1, self.ctx2, self.fields.w
        sides = []
        for classes1, classes2 in ((ctx1.points, ctx2.points), (ctx1.blocks, ctx2.blocks)):
            images = {}
            for y, code in enumerate(classes2.codes):
                images[code] = images.get(code, 0) | 1 << y
            rows = [images.get(code, 0) for code in classes1.codes]
            if 0 in rows:
                return None
            sides.append(sum(c << x * w for x, c in enumerate(rows)))
        p, b = sides
        decided_p, decided_b = self.fields.decided(p), self.fields.decided(b)
        return self.propagate(p, b, decided_p, decided_b, decided_p, decided_b)

    def fix(self, state, x: int, y: int):
        """The state with point x sent to y, propagated; None on a wipe-out."""
        p, b, decided_p, decided_b = state
        shift = x * self.fields.w
        guard = 1 << shift + self.v
        p = p & ~(self.fields.full << shift) | 1 << shift + y
        return self.propagate(p, b, decided_p | guard, decided_b, guard, 0)

    def branch_point(self, state) -> int | None:
        """The undecided point with fewest candidates, lowest first; None at a leaf."""
        p, undecided = state[0], self.fields.high & ~state[2]
        if not undecided:
            return None
        v, w, row = self.v, self.fields.w, self.fields.row
        return min([
            (row(p, u).bit_count(), u) for u in range(v) if undecided >> u * w + v & 1
        ])[1]

    def first_hit(self, state) -> tuple[int, ...] | None:
        """Point images (0-based) of the first isomorphism below state."""
        x = self.branch_point(state)
        if x is None:
            self.leaves += 1
            row = self.fields.row
            images = tuple(row(state[0], u).bit_length() - 1 for u in range(self.v))
            if len(set(images)) == self.v and _is_isomorphism(self.ctx1, self.ctx2, images):
                return images
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
        and b do not carry yet. A decided point x -> y drops y from every
        other point and keeps each block's candidates inside or outside the
        blocks through y, as x lies in that block or not; a decided block
        does the same with the roles of points and blocks swapped.
        """
        self.propagations += 1
        f = self.fields
        v, w, full, ones, low, high = f.v, f.w, f.full, f.ones, f.low, f.high
        clear, in_points, rep_points, in_blocks, rep_blocks = self._tables
        while new_p or new_b:
            # a batch reads its images off the state it was found in, as a
            # rule of the batch may empty a row decided in the same batch
            p0, b0 = p, b
            if new_p:
                for guard in set_bits(new_p):
                    shift = guard - v
                    y = (p0 >> shift & full).bit_length() - 1
                    p &= clear[y] | 1 << shift + y
                    b &= rep_points[y] ^ in_points[shift // w]
            if new_b:
                for guard in set_bits(new_b):
                    shift = guard - v
                    c = (b0 >> shift & full).bit_length() - 1
                    b &= clear[c] | 1 << shift + c
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
    target = set(ctx2.block_bits)
    return all(map_bits(bits, images) in target for bits in ctx1.block_bits)


def _rounds(ctx1: _DesignContext, ctx2: _DesignContext, side: str) -> str:
    """Refinement rounds of one side in each context, "-" where it was not refined."""
    return "/".join(
        "-" if classes is None else str(classes.rounds)
        for classes in (vars(ctx1).get(side), vars(ctx2).get(side))
    )


def find_isomorphism(d1: Design, d2: Design) -> Permutation | None:
    """A point permutation carrying the blocks of d1 onto those of d2."""
    if d1.v != d2.v:
        raise InvariantError("designs have different point counts")
    labels: dict = {}
    ctx1, ctx2 = _DesignContext(d1, labels), _DesignContext(d2, labels)
    search = _Search(ctx1, ctx2)
    images = None
    # the cheapest invariant first: blocks are refined only when the point
    # classes agree, and the search runs only when the block classes do too
    if ctx1.points.profile != ctx2.points.profile:
        stage = "points"
    elif ctx1.blocks.profile != ctx2.blocks.profile:
        stage = "blocks"
    else:
        stage = "search"
        state = search.root()
        images = None if state is None else search.first_hit(state)
    if logger.isEnabledFor(logging.DEBUG):
        logger.debug(
            "find_isomorphism v=%d stage=%s point_rounds=%s block_rounds=%s"
            " leaves=%d propagations=%d",
            d1.v, stage, _rounds(ctx1, ctx2, "points"),
            _rounds(ctx1, ctx2, "blocks"), search.leaves, search.propagations,
        )
    if images is None:
        return None
    p = _permutation(images)
    if {apply(p, b).bits for b in d1.blocks} != d2.block_set():
        raise InternalCheckError("search returned a non-isomorphism")
    return p


# ---------------------------------------------------------------------------
# permutation groups


def _orbit(item: int, generators) -> set[int]:
    """Orbit of an item under generators given as image tuples indexed by item.

    Items are 0-based ints: points, block indices or flag codes.
    """
    orbit = {item}
    frontier = [item]
    while frontier:
        x = frontier.pop()
        for g in generators:
            y = g[x]
            if y not in orbit:
                orbit.add(y)
                frontier.append(y)
    return orbit


def _images(p: Permutation) -> tuple[int, ...]:
    """The 0-based image tuple the group layer works on."""
    return tuple(i - 1 for i in p.images)


def _permutation(images) -> Permutation:
    """The ``Permutation`` of a 0-based image tuple."""
    return Permutation(tuple(i + 1 for i in images))


def _mul(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """p then q on 0-based image tuples, as ``Permutation.__mul__``."""
    return tuple([q[i] for i in p])


def _inverse(p: tuple[int, ...]) -> tuple[int, ...]:
    inverse = [0] * len(p)
    for i, j in enumerate(p):
        inverse[j] = i
    return tuple(inverse)


def _sift(g: tuple[int, ...], base, transversals, level: int = 0):
    """Strip coset representatives off g from ``level`` down the chain.

    Returns the residue and the level where it dropped out, len(base) when
    it passed every level.
    """
    while level < len(base):
        entry = transversals[level].get(g[base[level]])
        if entry is None:
            break
        g = _mul(g, entry[1])
        level += 1
    return g, level


def _schreier_sims(generators, degree: int):
    """Base and transversals of a stabilizer chain of <generators>.

    Deterministic Schreier-Sims (Seress, *Permutation Group Algorithms*,
    2003, section 4.2): it stops only when every Schreier generator of every
    level sifts to the identity through the levels below, so the product of
    the transversal sizes is the group order. Its base is its own: each new
    base point is the lowest point moved by a residue that fixes the base
    so far. The generators and the chain are 0-based image tuples.
    transversals[i] maps each point of the orbit of base[i] under the
    stabilizer of base[:i] to (u, u^-1), where u carries base[i] there.
    """
    identity = tuple(range(degree))
    base: list[int] = []
    strong: list[list[tuple[int, ...]]] = []
    transversals: list[dict] = []

    def add_level(g):
        base.append(next(x for x in range(degree) if g[x] != x))
        strong.append([])
        transversals.append({})

    def rebuild(level):
        b = base[level]
        table = {b: (identity, identity)}
        frontier = [b]
        while frontier:
            x = frontier.pop()
            u = table[x][0]
            for s in strong[level]:
                y = s[x]
                if y not in table:
                    w = _mul(u, s)
                    table[y] = (w, _inverse(w))
                    frontier.append(y)
        transversals[level] = table

    for g in generators:
        if g != identity and all(g[b] == b for b in base):
            add_level(g)
    for level in range(len(base)):
        strong[level] = [
            g for g in generators if all(g[b] == b for b in base[:level])
        ]
        rebuild(level)

    def first_residue(level):
        # the first Schreier generator of the level that does not sift
        table = transversals[level]
        for x, (u, _) in table.items():
            for s in strong[level]:
                h = _mul(_mul(u, s), table[s[x]][1])
                residue, drop = _sift(h, base, transversals, level + 1)
                if residue != identity:
                    return residue, drop
        return None, level

    level = len(base) - 1
    while level >= 0:
        residue, drop = first_residue(level)
        if residue is None:
            level -= 1
            continue
        if drop == len(base):
            add_level(residue)
        for deeper in range(level + 1, drop + 1):
            strong[deeper].append(residue)
            rebuild(deeper)
        level = drop
    return base, transversals


class _ChainElements(Sequence):
    """The elements of a permutation group, read off a stabilizer chain.

    Element i is h_{r-1} * ... * h_0, where h_j is the coset representative
    at level j picked by digit j of i in the mixed radix of the transversal
    sizes; element 0 is the identity. Membership sifts down the chain.
    Nothing is stored beyond the chain itself, whose image tuples become
    ``Permutation``s only on the way out.
    """

    def __init__(self, degree: int, base, transversals):
        self._degree = degree
        self._identity = tuple(range(degree))
        self._base = tuple(base)
        self._transversals = tuple(transversals)
        self._reps = [[u for u, _ in table.values()] for table in transversals]
        self._len = math.prod(len(reps) for reps in self._reps)

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, index: int) -> Permutation:
        if index < 0:
            index += self._len
        if not 0 <= index < self._len:
            raise IndexError("group element index out of range")
        picked = []
        for reps in self._reps:
            index, digit = divmod(index, len(reps))
            picked.append(reps[digit])
        element = self._identity
        for u in reversed(picked):
            element = _mul(element, u)
        return _permutation(element)

    def __contains__(self, p) -> bool:
        if not isinstance(p, Permutation) or p.degree != self._degree:
            return False
        residue, level = _sift(_images(p), self._base, self._transversals)
        return level == len(self._base) and residue == self._identity


@dataclass(frozen=True)
class PermGroup:
    """A permutation group of the given degree: generators and order.

    ``elements``, when set, is a sequence of all group elements. For groups
    from ``automorphism_group`` it is a lazy view of the verified stabilizer
    chain: ``len`` is the order, and indexing or membership costs one pass
    down the chain, so no element list is ever built.
    """

    degree: int
    generators: tuple[Permutation, ...]
    order: int
    elements: Sequence[Permutation] | None = None

    @classmethod
    def trivial(cls, degree: int) -> "PermGroup":
        return cls(degree, (), 1, _ChainElements(degree, (), ()))


def automorphism_group(d: Design) -> PermGroup:
    """Automorphism group of d, found one coset of a point stabilizer at a time.

    The identity path of the search gives a base b_0, ..., b_{r-1}: b_i is
    the branch point once b_0, ..., b_{i-1} are fixed and propagated, and
    fixing them all decides every point. From the deepest level up, every
    candidate image y of b_i outside the orbit of b_i under the generators
    found so far gets one first-hit search with b_i -> y. A hit is an
    automorphism fixing b_0, ..., b_{i-1}, checked block by block, and
    becomes a generator. The order is the product of the orbit sizes (the
    individualisation scheme of McKay & Piperno, "Practical graph
    isomorphism II", 2014). An independent Schreier-Sims closure of the
    generators, with its own base, must give the same order; its chain
    backs the lazy ``elements`` sequence.
    """
    v = d.v
    ctx = _DesignContext(d, {})
    search = _Search(ctx, ctx)
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
        orbit = _orbit(x, generators)
        rejected: set[int] = set()
        for y in set_bits(ctx.fields.row(state[0], x)):
            if y in orbit or y in rejected:
                continue
            child = search.fix(state, x, y)
            images = None if child is None else search.first_hit(child)
            if images is None:
                # the deeper generators fix x, so no image of y under them
                # is in the orbit of x either
                rejected |= _orbit(y, deeper)
            else:
                generators.append(images)
                orbit = _orbit(x, generators)
        orbit_sizes.append(len(orbit))
    orbit_sizes.reverse()
    order = math.prod(orbit_sizes)

    elements = _ChainElements(v, *_schreier_sims(generators, v))
    if len(elements) != order:
        raise InternalCheckError(
            f"Schreier-Sims gives order {len(elements)}, the search {order}"
        )
    if logger.isEnabledFor(logging.DEBUG):
        logger.debug(
            "automorphism_group v=%d base=%s orbits=%s generators=%d"
            " leaves=%d propagations=%d",
            v, [x + 1 for x, _ in path], orbit_sizes, len(generators),
            search.leaves, search.propagations,
        )
    return PermGroup(v, tuple(map(_permutation, generators)), order, elements)


def _actions(d: Design, g: PermGroup) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Each generator of g as 0-based (point images, block-index images).

    Raises InvariantError when g does not act on the design's points or a
    generator does not map the blocks onto blocks.
    """
    for degree in (g.degree, *(p.degree for p in g.generators)):
        if degree != d.v:
            raise InvariantError(f"degree {degree} does not act on {d.v} points")
    index = {b.bits: i for i, b in enumerate(d.blocks)}
    actions = []
    for p in g.generators:
        points = _images(p)
        blocks = tuple(index.get(map_bits(b.bits, points)) for b in d.blocks)
        if None in blocks:
            raise InvariantError("group does not preserve the design")
        actions.append((points, blocks))
    return actions


def block_orbit_count(d: Design, g: PermGroup) -> int:
    """Number of orbits of the group on the block list; 1 = block-transitive."""
    return _orbit_count(range(d.v), [blocks for _, blocks in _actions(d, g)])


def flag_orbit_count(d: Design, g: PermGroup) -> int:
    """Orbits on incident (point, block) pairs; 1 = flag-transitive."""
    v = d.v
    # the flag (x, a) of point x and block index a is the int x * v + a
    flags = [x * v + a for a, b in enumerate(d.blocks) for x in set_bits(b.bits)]
    actions = [
        tuple(points[x] * v + blocks[a] for x in range(v) for a in range(v))
        for points, blocks in _actions(d, g)
    ]
    return _orbit_count(flags, actions)


def _orbit_count(items, generators) -> int:
    """Number of orbits on items, with generators as in ``_orbit``."""
    remaining = set(items)
    count = 0
    while remaining:
        remaining -= _orbit(remaining.pop(), generators)
        count += 1
    return count


def point_block_systems(g: PermGroup) -> list[tuple[frozenset[int], ...]]:
    """Nontrivial block systems of the point action, as partitions of 1..n.

    A block system here is the finest generator-invariant partition joining
    some pair of points, when it is neither discrete nor one class. It is
    invariant under the group, so a pair and its images give the same one:
    one point of each orbit, paired with every point, finds them all, and
    the count does not depend on the labeling. For a transitive group these
    are the minimal block systems; the trivial group gives the n(n-1)/2
    pair partitions.
    """
    n = g.degree
    generators = [_images(p) for p in g.generators]
    systems = set()
    remaining = set(range(n))
    while remaining:
        a = min(remaining)
        remaining -= _orbit(a, generators)
        for b in range(n):
            partition = _finest_invariant_partition(a, b, generators, n)
            if 1 < len(partition) < n:
                systems.add(partition)
    return sorted(systems, key=lambda s: (len(s), [sorted(b) for b in s]))


def _finest_invariant_partition(
    a: int, b: int, generators, n: int
) -> tuple[frozenset[int], ...]:
    """Classes of 1..n, by least point, of the finest invariant partition
    joining the 0-based points a and b.

    Atkinson's union-find (Math. Comp. 29, 1975): each merge is queued as
    the pair of roots it joined, the queued pairs generate the partition,
    so it is invariant once every generator maps every queued pair into one
    class.
    """
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    parent[max(a, b)] = min(a, b)
    pairs = [(a, b)]
    while pairs:
        x, y = pairs.pop()
        for s in generators:
            u, w = sorted((find(s[x]), find(s[y])))
            if u != w:
                parent[w] = u
                pairs.append((u, w))
    classes: dict[int, set[int]] = {}
    for x in range(n):
        classes.setdefault(find(x), set()).add(x + 1)
    return tuple(frozenset(c) for c in classes.values())


def is_point_primitive(g: PermGroup) -> bool:
    """True when the point action is transitive and has no nontrivial block system."""
    transitive = _orbit_count(
        range(g.degree), [_images(p) for p in g.generators]
    ) == 1
    return transitive and not point_block_systems(g)
