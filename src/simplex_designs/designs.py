"""Symmetric (n, 2m, m)-designs from cliques, Hadamard matrices, and the
isomorphism / automorphism machinery.

A design here is an ordered list of n blocks over n points; validity means
every block has 2m points and two distinct blocks meet in exactly m points.
Incidence 1 corresponds to entry -1 of the associated normalized Hadamard
matrix, so the 0/1 rendering of the matrix reproduces the incidence rows
bit for bit inside a border of zeros.
"""

import logging
import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .cliques import Clique
from .errors import InternalCheckError, InvariantError, ParseError
from .subsets import ElementSet, Permutation, apply, map_bits, set_bits


@dataclass(frozen=True)
class Design:
    blocks: tuple[ElementSet, ...]

    @classmethod
    def from_blocks(cls, blocks) -> "Design":
        d = cls(tuple(blocks))
        d.validate()
        return d

    @property
    def v(self) -> int:
        return len(self.blocks)

    @property
    def block_size(self) -> int:
        return (self.v + 1) // 2

    @property
    def lambda_(self) -> int:
        return (self.v + 1) // 4

    def validate(self):
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
    """The design whose blocks are the clique points, in roster order."""
    n = c.geometry.params.n
    if len(c) != n:
        raise InvariantError(f"clique has {len(c)} points, expected {n}")
    return Design.from_blocks(c.points)


def clique_from_design(d: Design, geometry=None) -> Clique:
    from .geometry import geometry_for_dimension

    g = geometry if geometry is not None else geometry_for_dimension(
        d.v.bit_length()
    )
    return Clique.from_points(g, d.blocks)


@dataclass(frozen=True)
class HadamardMatrix:
    entries: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return len(self.entries)

    def validate(self):
        n = self.order
        if any(len(row) != n for row in self.entries):
            raise InvariantError("entries must form a square +-1 matrix")
        h = np.array(self.entries).reshape(n, n)
        if not (abs(h) == 1).all():
            raise InvariantError("entries must form a square +-1 matrix")
        off = h @ h.T - n * np.eye(n, dtype=h.dtype)
        if off.any():
            i, j = np.argwhere(off)[0]
            raise InvariantError(f"rows {i} and {j} are not orthogonal")

    def is_normalized(self) -> bool:
        return all(e == 1 for e in self.entries[0]) and all(
            row[0] == 1 for row in self.entries
        )

    def render(self, style: str = "01") -> str:
        if style == "01":
            table = {1: "0", -1: "1"}
        elif style == "pm":
            table = {1: "+", -1: "-"}
        else:
            raise InvariantError(f"unknown rendering style {style!r}")
        return "\n".join(
            "".join(table[e] for e in row) for row in self.entries
        )


def to_hadamard(d: Design) -> HadamardMatrix:
    """Normalized Hadamard matrix of order v+1 with -1 at incidences."""
    d.validate()
    v = d.v
    first = tuple([1] * (v + 1))
    rows = [first]
    for b in d.blocks:
        rows.append(tuple([1] + [-1 if j in b else 1 for j in range(1, v + 1)]))
    h = HadamardMatrix(tuple(rows))
    h.validate()
    return h


def from_hadamard(h: HadamardMatrix) -> Design:
    """Design read off a normalized Hadamard matrix of order 4t."""
    h.validate()
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
    d = Design(tuple(blocks))
    d.validate()
    return d


def parse_hadamard(text: str, style: str = "01") -> HadamardMatrix:
    if style == "01":
        table = {"0": 1, "1": -1}
    elif style == "pm":
        table = {"+": 1, "-": -1}
    else:
        raise ParseError(f"unknown rendering style {style!r}")
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    rows = []
    for i, line in enumerate(lines):
        if len(line) != len(lines) or set(line) - set(table):
            raise ParseError(f"row {i + 1} is not a valid matrix row: {line!r}")
        rows.append(tuple(table[ch] for ch in line))
    h = HadamardMatrix(tuple(rows))
    h.validate()
    return h


# ---------------------------------------------------------------------------
# isomorphism and automorphism search
#
# Points and blocks are refined together: the base invariant of a point
# triple is the number of blocks containing all three, and dually the size
# of a triple block intersection. Signatures over these invariants carve
# the candidate sets, then a backtracking search with bitmask propagation
# over the bipartite incidence structure assigns point images.

logger = logging.getLogger(__name__)


class _DesignContext:
    """Incidence bitmasks and refined point/block classes of one design.

    Class labels are codes in ``labels``, a table owned by the caller:
    contexts that share it give equal codes to equal signature structures,
    so their classes can be compared.
    """

    def __init__(self, d: Design, labels: dict):
        self.design = d
        v = d.v
        self.v = v
        self.block_bits = [b.bits for b in d.blocks]
        self.point_in_blocks = [
            sum(1 << i for i, b in enumerate(d.blocks) if b.bits >> x & 1)
            for x in range(v)
        ]
        self.point_classes, self.block_classes = self._refine(labels)

    def _refine(self, labels: dict):
        v = self.v

        def pair_signatures(masks):
            # z runs over all v, so x and y add lambda twice to every
            # signature: the same constant everywhere, the same partition
            pair = [[()] * v for _ in range(v)]
            for x, y in combinations(range(v), 2):
                m = masks[x] & masks[y]
                pair[x][y] = pair[y][x] = tuple(
                    sorted([(m & mz).bit_count() for mz in masks])
                )
            return pair

        def intern(obj) -> int:
            return labels.setdefault(obj, len(labels))

        def classes_from(pair):
            pair_codes = [[intern(sig) for sig in row] for row in pair]
            codes = [intern(("seed",))] * v
            for _ in range(3):
                codes = [
                    intern((
                        codes[i],
                        tuple(sorted([
                            (codes[j], pair_codes[i][j])
                            for j in range(v) if j != i
                        ])),
                    ))
                    for i in range(v)
                ]
            return codes

        return (
            classes_from(pair_signatures(self.point_in_blocks)),
            classes_from(pair_signatures(self.block_bits)),
        )

    def class_profile(self):
        return (
            tuple(sorted(self.point_classes)),
            tuple(sorted(self.block_classes)),
        )


class _Search:
    """Bitmask propagation and first-hit backtracking from ctx1 onto ctx2.

    A state is a pair of lists (pcand, bcand): pcand[x] is the bitmask of
    the points of ctx2 that point x of ctx1 may still map to, and bcand[a]
    the same for blocks. ``propagations`` and ``leaves`` count the work.
    """

    def __init__(self, ctx1: _DesignContext, ctx2: _DesignContext):
        self.ctx1 = ctx1
        self.ctx2 = ctx2
        self.v = ctx1.v
        self.propagations = 0
        self.leaves = 0

    def root(self):
        """The propagated state the refined classes allow; None if it is empty."""
        ctx1, ctx2, v = self.ctx1, self.ctx2, self.v
        pclass2 = {}
        for y in range(v):
            pclass2.setdefault(ctx2.point_classes[y], 0)
            pclass2[ctx2.point_classes[y]] |= 1 << y
        bclass2 = {}
        for b in range(v):
            bclass2.setdefault(ctx2.block_classes[b], 0)
            bclass2[ctx2.block_classes[b]] |= 1 << b

        pcand = [pclass2.get(ctx1.point_classes[x], 0) for x in range(v)]
        bcand = [bclass2.get(ctx1.block_classes[a], 0) for a in range(v)]
        if any(c == 0 for c in pcand) or any(c == 0 for c in bcand):
            return None
        seed_p = [x for x in range(v) if pcand[x].bit_count() == 1]
        seed_b = [a for a in range(v) if bcand[a].bit_count() == 1]
        if self.propagate(pcand, bcand, seed_p, seed_b):
            return pcand, bcand
        return None

    def fix(self, state, x: int, y: int):
        """A copy of state with point x sent to y, propagated; None on a wipe-out."""
        pcand = list(state[0])
        bcand = list(state[1])
        pcand[x] = 1 << y
        if self.propagate(pcand, bcand, [x], []):
            return pcand, bcand
        return None

    def branch_point(self, state) -> int | None:
        """The undecided point with fewest candidates, lowest first; None at a leaf."""
        pcand = state[0]
        undecided = [x for x in range(self.v) if pcand[x].bit_count() > 1]
        if not undecided:
            return None
        return min(undecided, key=lambda u: (pcand[u].bit_count(), u))

    def first_hit(self, state) -> tuple[int, ...] | None:
        """Point images (0-based) of the first isomorphism below state."""
        x = self.branch_point(state)
        if x is None:
            self.leaves += 1
            images = tuple(c.bit_length() - 1 for c in state[0])
            if len(set(images)) == self.v and _is_isomorphism(self.ctx1, self.ctx2, images):
                return images
            return None
        for y in set_bits(state[0][x]):
            child = self.fix(state, x, y)
            if child is not None:
                images = self.first_hit(child)
                if images is not None:
                    return images
        return None

    def propagate(self, pcand, bcand, queue_p, queue_b) -> bool:
        """Narrow the state in place; False when some candidate set empties.

        A decided point x -> y drops y from every other point and keeps
        each block's candidates inside or outside the blocks through y, as
        x lies in that block or not; a decided block does the same with
        the roles of points and blocks swapped.
        """
        self.propagations += 1
        v = self.v
        sides = (
            (pcand, queue_p, self.ctx1.point_in_blocks, self.ctx2.point_in_blocks,
             bcand, queue_b),
            (bcand, queue_b, self.ctx1.block_bits, self.ctx2.block_bits,
             pcand, queue_p),
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


def _is_isomorphism(ctx1, ctx2, images) -> bool:
    target = set(ctx2.block_bits)
    return all(map_bits(bits, images) in target for bits in ctx1.block_bits)


def find_isomorphism(d1: Design, d2: Design) -> Permutation | None:
    """A point permutation carrying the blocks of d1 onto those of d2."""
    if d1.v != d2.v:
        raise InvariantError("designs have different point counts")
    labels: dict = {}
    ctx1, ctx2 = _DesignContext(d1, labels), _DesignContext(d2, labels)
    if ctx1.class_profile() != ctx2.class_profile():
        return None
    search = _Search(ctx1, ctx2)
    state = search.root()
    images = None if state is None else search.first_hit(state)
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
    so far. The generators are ``Permutation``s; the chain holds 0-based
    points and image tuples. transversals[i] maps each point of the orbit of
    base[i] under the stabilizer of base[:i] to (u, u^-1), where u carries
    base[i] there.
    """
    identity = tuple(range(degree))
    generators = [_images(g) for g in generators]
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
        for y in set_bits(state[0][x]):
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

    perms = tuple(_permutation(g) for g in generators)
    elements = _ChainElements(v, *_schreier_sims(perms, v))
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
    return PermGroup(v, perms, order, elements)


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
    """Nontrivial block systems of the point action (descriptive only).

    For every pair (1, b) the finest invariant partition gluing the pair is
    computed by closure; the distinct nontrivial results are returned. For
    a transitive group these are the minimal block systems. For an
    intransitive group the result depends on the labeling, because only
    partitions that glue point 1 to another point are found: relabel the
    design and the count may change. ``is_point_primitive`` does not rest
    on it alone.
    """
    n = g.degree
    if not g.generators:
        return []
    systems = set()
    for b in range(2, n + 1):
        parent = list(range(n + 1))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(x, y):
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[max(rx, ry)] = min(rx, ry)
                return True
            return False

        union(1, b)
        changed = True
        while changed:
            changed = False
            for p in g.generators:
                for x in range(1, n + 1):
                    for y in range(x + 1, n + 1):
                        if find(x) == find(y) and union(p(x), p(y)):
                            changed = True
        classes: dict[int, set[int]] = {}
        for x in range(1, n + 1):
            classes.setdefault(find(x), set()).add(x)
        if 1 < len(classes) < n:
            systems.add(tuple(sorted(
                (frozenset(c) for c in classes.values()), key=sorted
            )))
    return sorted(systems, key=lambda s: (len(s), [sorted(b) for b in s]))


def is_point_primitive(g: PermGroup) -> bool:
    """True when the point action is transitive and has no nontrivial block system."""
    transitive = _orbit_count(
        range(g.degree), [_images(p) for p in g.generators]
    ) == 1
    return transitive and not point_block_systems(g)
