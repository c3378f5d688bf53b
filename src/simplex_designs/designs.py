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
from dataclasses import dataclass
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


# entry -> character of each rendering style of a Hadamard matrix
_STYLES = {"01": {1: "0", -1: "1"}, "pm": {1: "+", -1: "-"}}


@dataclass(frozen=True)
class HadamardMatrix:
    entries: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return len(self.entries)

    def __post_init__(self):
        try:
            object.__setattr__(self, "entries", tuple(map(tuple, self.entries)))
        except TypeError:
            raise InvariantError("entries must form a nonempty square +-1 matrix") from None
        n = self.order
        if not n or any(len(row) != n or not set(row) <= {1, -1} for row in self.entries):
            raise InvariantError("entries must form a nonempty square +-1 matrix")
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
    if h.order % 4 != 0 or not 4 <= h.order <= MAX_GROUND_SIZE + 1:
        raise InvariantError(f"order must be a multiple of 4 in 4..{MAX_GROUND_SIZE + 1}")
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
    if v > MAX_GROUND_SIZE:
        raise ParseError(f"{v} rows: incidence matrices have at most {MAX_GROUND_SIZE}")
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

logger = logging.getLogger(__name__)


def _rounds(ctx1: Incidence, ctx2: Incidence, side: str) -> str:
    """Refinement rounds of one side in each context."""
    return f"{getattr(ctx1, side).rounds}/{getattr(ctx2, side).rounds}"


def find_isomorphism(d1: Design, d2: Design) -> Permutation | None:
    """A point permutation carrying the blocks of d1 onto those of d2."""
    if d1.v != d2.v:
        raise InvariantError("designs have different point counts")
    ctx1, ctx2 = d1._context, d2._context
    stage, images, search = isomorphism_search(ctx1, ctx2)
    if logger.isEnabledFor(logging.DEBUG):
        # a side the call did not compare prints "-", whatever an earlier
        # call left refined on the designs
        logger.debug(
            "find_isomorphism v=%d stage=%s point_rounds=%s block_rounds=%s"
            " leaves=%d propagations=%d cuts=%d",
            d1.v, stage, _rounds(ctx1, ctx2, "points"),
            "-/-" if stage == "points" else _rounds(ctx1, ctx2, "blocks"),
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
