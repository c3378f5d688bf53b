"""Symmetric (n, 2m, m)-designs from cliques, Hadamard matrices, their
text forms, and the design-level entry points of the search and the group
layer.

A design here is an ordered list of n blocks over n points; validity means
every block has 2m points and two distinct blocks meet in exactly m points.
Design and HadamardMatrix check themselves when built, so every value of
these types is valid and nothing downstream checks it again.
Incidence 1 corresponds to entry -1 of the associated normalized Hadamard
matrix, so the 0/1 rendering of the matrix reproduces the incidence rows
bit for bit inside a border of zeros.
find_isomorphism and automorphism_group run ``search`` on the block
bitmasks and check what it returns.
"""

import logging
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations

from .cliques import Clique
from .errors import InternalCheckError, InvariantError, ParseError
from .geometry import geometry_for_ground
from .groups import PermGroup, as_permutation, orbit_count, orbit_of
from .search import Incidence, automorphism_search, isomorphism_search
from .subsets import MAX_GROUND_SIZE, ElementSet, Permutation, apply, set_bits


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
        object.__setattr__(self, "blocks", tuple(self.blocks))
        v = self.v
        if v < 3 or (v + 1) % 4 != 0:
            raise InvariantError(f"{v} points do not fit the 4t-1 pattern")
        size, lam = self.block_size, self.lambda_
        for i, b in enumerate(self.blocks):
            if not isinstance(b, ElementSet):
                raise InvariantError(f"block {i + 1} is not an ElementSet: {b!r}")
            if b.ground_size != v:
                raise InvariantError(f"block {i + 1} lives on the wrong ground set")
            if len(b) != size:
                raise InvariantError(f"block {i + 1} has {len(b)} points, expected {size}")
        for i, j in combinations(range(v), 2):
            got = (self.blocks[i].bits & self.blocks[j].bits).bit_count()
            if got != lam:
                raise InvariantError(
                    f"blocks {i + 1} and {j + 1} meet in {got} points, expected {lam}"
                )

    def block_set(self) -> frozenset[int]:
        return frozenset(b.bits for b in self.blocks)

    def relabeled(self, p: Permutation) -> "Design":
        return Design(tuple(apply(p, b) for b in self.blocks))

    @cached_property
    def _context(self) -> Incidence:
        """The search's view of the design, its classes refined on first use.

        It depends on the blocks alone, which never change, so it is built
        once per design and lives as long as the design; it is not a field,
        so equality, hashing and repr ignore it.
        """
        return Incidence([b.bits for b in self.blocks])

    def __getstate__(self):
        """The blocks alone: pickle, copy and deepcopy leave the cached
        ``_context`` behind, and the copy refines again on first use."""
        return {"blocks": self.blocks}


def design_from_clique(c: Clique) -> Design:
    """The design whose blocks are the clique points, in ascending bitmask order."""
    n = c.geometry.params.n
    if len(c) != n:
        raise InvariantError(f"clique has {len(c)} points, expected {n}")
    return Design.from_blocks(c.points)


def clique_from_design(d: Design) -> Clique:
    return Clique.from_points(geometry_for_ground(d.v), d.blocks)


# the characters of +1 and -1 in each rendering style; incidence text is "01"
_STYLES = {"01": "01", "pm": "+-"}


def _write_rows(masks, n: int, chars: str) -> str:
    """One line of n characters per mask: character j is chars[bit j]."""
    table = str.maketrans("01", chars)
    return "\n".join(format(m, f"0{n}b")[::-1].translate(table) for m in masks)


def _read_rows(lines: list[str], chars: str) -> list[int]:
    """The mask of each line, bit j set where character j is chars[1]."""
    # int() also takes signs, underscores, spaces and non-ASCII digits, so each
    # line must first be n characters of chars, which strip(chars) removes all of
    n = len(lines)
    for i, line in enumerate(lines):
        if len(line) != n or line.strip(chars):
            sep = "/".join(chars)
            raise ParseError(f"row {i + 1} must be {n} characters of {sep}, got {line!r}")
    table = str.maketrans(chars, "01")
    return [int(line.translate(table)[::-1], 2) for line in lines]


def _sign_rows(masks, n: int) -> tuple[tuple[int, ...], ...]:
    """The +-1 row of n entries of each mask, -1 where bit j is set."""
    powers = [1 << j for j in range(n)]
    return tuple([tuple([-1 if m & p else 1 for p in powers]) for m in masks])


@dataclass(frozen=True)
class HadamardMatrix:
    """A square +-1 matrix with orthogonal rows, its entries stored as ints.

    ``masks`` holds each row as the bitmask of its -1 entries, bit j for
    column j; it follows from the entries, so it takes no part in
    equality, hashing or repr.
    """

    entries: tuple[tuple[int, ...], ...]
    masks: tuple[int, ...] = field(init=False, compare=False, repr=False)

    @property
    def order(self) -> int:
        return len(self.entries)

    def __post_init__(self):
        try:
            entries = tuple(tuple(map(operator.index, row)) for row in self.entries)
        except TypeError:
            # a row that is not iterable, or an entry that is not an integer
            raise InvariantError("entries must form a nonempty square +-1 matrix") from None
        object.__setattr__(self, "entries", entries)
        n = self.order
        if not n or any(len(row) != n or not set(row) <= {1, -1} for row in entries):
            raise InvariantError("entries must form a nonempty square +-1 matrix")
        # two +-1 rows of order n are orthogonal exactly when they differ
        # in n/2 places
        masks = tuple(sum(1 << j for j, e in enumerate(row) if e == -1) for row in entries)
        for i, j in combinations(range(n), 2):
            if 2 * (masks[i] ^ masks[j]).bit_count() != n:
                raise InvariantError(f"rows {i} and {j} are not orthogonal")
        object.__setattr__(self, "masks", masks)

    def is_normalized(self) -> bool:
        return self.masks[0] == 0 and not any(m & 1 for m in self.masks)

    def render(self, style: str = "01") -> str:
        if style not in _STYLES:
            raise InvariantError(f"unknown rendering style {style!r}")
        return _write_rows(self.masks, self.order, _STYLES[style])


def to_hadamard(d: Design) -> HadamardMatrix:
    """Normalized Hadamard matrix of order v+1 with -1 at incidences, point j in column j."""
    return HadamardMatrix(_sign_rows([0, *[b.bits << 1 for b in d.blocks]], d.v + 1))


def from_hadamard(h: HadamardMatrix) -> Design:
    """Design read off a normalized Hadamard matrix of order 4t."""
    if h.order % 4 != 0 or not 4 <= h.order <= MAX_GROUND_SIZE + 1:
        raise InvariantError(f"order must be a multiple of 4 in 4..{MAX_GROUND_SIZE + 1}")
    if not h.is_normalized():
        raise InvariantError("matrix must be normalized")
    # column j of the matrix is point j, so each mask sits one bit too high
    v = h.order - 1
    return Design.from_blocks(ElementSet(m >> 1, v) for m in h.masks[1:])


# ---------------------------------------------------------------------------
# serialization


def render_incidence(d: Design) -> str:
    return _write_rows([b.bits for b in d.blocks], d.v, "01")


def parse_incidence(text: str) -> Design:
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines:
        raise ParseError("empty incidence matrix")
    v = len(lines)
    if v > MAX_GROUND_SIZE:
        raise ParseError(f"{v} rows: incidence matrices have at most {MAX_GROUND_SIZE}")
    return Design(tuple(ElementSet(m, v) for m in _read_rows(lines, "01")))


def parse_hadamard(text: str, style: str = "01") -> HadamardMatrix:
    if style not in _STYLES:
        raise ParseError(f"unknown rendering style {style!r}")
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines:
        raise ParseError("empty Hadamard matrix")
    return HadamardMatrix(_sign_rows(_read_rows(lines, _STYLES[style]), len(lines)))


# ---------------------------------------------------------------------------
# isomorphism and automorphism search

logger = logging.getLogger(__name__)


def find_isomorphism(d1: Design, d2: Design) -> Permutation | None:
    """A point permutation carrying the blocks of d1 onto those of d2."""
    if d1.v != d2.v:
        raise InvariantError("designs have different point counts")
    ctx1, ctx2 = d1._context, d2._context
    stage, images, search = isomorphism_search(ctx1, ctx2)
    if logger.isEnabledFor(logging.DEBUG):
        logger.debug(
            "find_isomorphism v=%d stage=%s point_rounds=%d/%d"
            " leaves=%d propagations=%d cuts=%d",
            d1.v, stage, ctx1.points.rounds, ctx2.points.rounds,
            search.leaves, search.propagations, search.cuts,
        )
    if images is None:
        return None
    p = as_permutation(images)
    if {apply(p, b).bits for b in d1.blocks} != d2.block_set():
        raise InternalCheckError("search returned a non-isomorphism")
    return p


def automorphism_group(d: Design) -> PermGroup:
    """Automorphism group of d from ``automorphism_search``: Schreier-Sims
    closes the generators with its own base and must give the same order."""
    v = d.v
    base, orbit_sizes, generators, search = automorphism_search(d._context)
    order = math.prod(orbit_sizes)
    group = PermGroup(v, tuple(map(as_permutation, generators)))
    if group.order != order:
        raise InternalCheckError(
            f"Schreier-Sims gives order {group.order}, the search {order}"
        )
    if logger.isEnabledFor(logging.DEBUG):
        logger.debug(
            "automorphism_group v=%d base=%s orbits=%s generators=%d"
            " leaves=%d propagations=%d cuts=%d",
            v, [x + 1 for x in base], orbit_sizes, len(generators),
            search.leaves, search.propagations, search.cuts,
        )
    return group


def _actions(d: Design, g: PermGroup) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Each generator of g as 0-based (point images, block-index images).

    Raises InvariantError when g does not act on the design's points or a
    generator does not map the blocks onto blocks.
    """
    if g.degree != d.v:
        raise InvariantError(f"degree {g.degree} does not act on {d.v} points")
    ctx = d._context
    index = {b: i for i, b in enumerate(ctx.block_bits)}
    actions = []
    for points in g.images:
        blocks = tuple([index.get(b) for b in ctx.relabeled(points)])
        if None in blocks:
            raise InvariantError("group does not preserve the design")
        actions.append((points, blocks))
    return actions


def block_orbit_count(d: Design, g: PermGroup) -> int:
    """Number of orbits of the group on the block list; 1 = block-transitive."""
    return orbit_count(range(d.v), [blocks for _, blocks in _actions(d, g)])


def flag_orbit_count(d: Design, g: PermGroup) -> int:
    """Orbits on incident (point, block) pairs; 1 = flag-transitive."""
    v = d.v
    # the flag (x, a) of point x and block index a is the int x * v + a
    flags = [x * v + a for a, b in enumerate(d.blocks) for x in set_bits(b.bits)]
    actions = [
        tuple([y + c for y in [x * v for x in points] for c in blocks])
        for points, blocks in _actions(d, g)
    ]
    return orbit_count(flags, actions)


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
    n, generators = g.degree, g.images
    systems = set()
    remaining = set(range(n))
    while remaining:
        a = min(remaining)
        remaining -= orbit_of(a, generators)
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
    transitive = orbit_count(range(g.degree), g.images) == 1
    return transitive and not point_block_systems(g)
