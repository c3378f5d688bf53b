"""Fano planes as 7-point cliques of 4-subsets of a 7-element support.

A FanoPlane checks its points when built (7 distinct ascending 4-subsets of
one ground, closed under symmetric difference) and stores their bitmasks,
support and point index (bitmask -> position); equality and hashing depend
on the points alone. Sorted by bitmask, position p of every plane holds the
vector p + 1 of PG(2,2), so all planes share the 7 position lines _LINES.

A bijection between two planes carries an index: the number of lines it
maps to lines. The index takes only the values 0, 1, 3, 7 and is a complete
invariant for equivalence under composition with plane automorphisms.

A plane's group (the 168 position permutations that keep the lines) and its
double cosets, the classes, form one table built from _LINES once per
process. Canonical labels sit at the same positions in every plane, so the
representative of each index is one label cycle, read as a position permutation.
"""

import operator
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, permutations
from types import MappingProxyType
from typing import NamedTuple

from .errors import InternalCheckError, InvariantError
from .geometry import hyperplane_complement_blocks
from .subsets import ElementSet, compose, map_bits

# The lines of every plane as sorted position triples. A plane is the
# nonzero vectors of a 3-dimensional space of bitmasks with reduced echelon
# basis u1, u2, u3: only u_i holds its highest bit h_i, and h1 < h2 < h3.
# Points x, y compare at the highest bit of x ^ y, which is h_i for the last
# coordinate c_i where they differ, so the points sort as the binary numbers
# c3 c2 c1: position p holds the vector p + 1, and {a, b, c} is a line
# exactly when (a + 1) ^ (b + 1) == c + 1.
_LINES = ((0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5))

# generators of the plane group: the Singer cycle v -> av of GF(8) =
# F2[a]/(a^3 + a + 1) and the swap of e1 and e2 (checked in _class_table)
_GENERATORS = ((1, 3, 5, 2, 0, 6, 4), (1, 0, 2, 3, 5, 4, 6))

# the position of each canonical label in every plane: label 12 is the
# vector e1 + e2 = 3, at position 2, and so on
_CANONICAL_LABELS = {"1": 0, "2": 1, "12": 2, "3": 3, "13": 4, "23": 5, "123": 6}
# per index, the cycle of canonical labels of its representative:
# (a, b, ...) sends a to b, b to the next label, the last to a
_LABEL_CYCLES = {7: (), 3: ("12", "13"), 1: ("12", "13", "23"), 0: ("123", "23", "12", "13")}
INDEX_VALUES = tuple(sorted(_LABEL_CYCLES))


def _closed(bits) -> bool:
    """Whether 7 ascending bitmasks pass the 7 line sums of _LINES."""
    return all(bits[a] ^ bits[b] == bits[c] for a, b, c in _LINES)


@dataclass(frozen=True)
class FanoPlane:
    """Seven mutually collinear 4-subsets, closed under symmetric difference."""

    points: tuple[ElementSet, ...]
    bits: tuple[int, ...] = field(init=False, compare=False, repr=False)
    support: ElementSet = field(init=False, compare=False, repr=False)
    index: dict[int, int] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        pts = tuple(self.points)
        if not all(isinstance(p, ElementSet) for p in pts):
            raise InvariantError("plane points must be ElementSets")
        bits = tuple(p.bits for p in pts)
        if len(bits) != 7 or list(bits) != sorted(set(bits)):
            raise InvariantError("a Fano plane needs 7 distinct points in ascending bitmask order")
        support, n = 0, pts[0].ground_size
        for p in pts:
            if p.ground_size != n or p.bits.bit_count() != 4:
                raise InvariantError(f"plane points must be 4-element subsets of one ground [{n}]")
            support |= p.bits
        if support.bit_count() != 7:
            raise InvariantError("plane points must cover a 7-element support")
        index = {b: i for i, b in enumerate(bits)}
        # every pair lies on one line, so 7 sums decide closure; a ^ b is a
        # 4-subset only if |a & b| = 2, so a closed plane is collinear
        if not _closed(bits):
            pairs = combinations(range(7), 2)
            i, j = next((i, j) for i, j in pairs if bits[i] ^ bits[j] not in index)
            if (bits[i] & bits[j]).bit_count() != 2:
                raise InvariantError(f"{pts[i]} and {pts[j]} are not collinear in the plane")
            raise InvariantError("plane is not closed under symmetric difference")
        values = {"points": pts, "bits": bits, "support": ElementSet(support, n), "index": index}
        for name, value in values.items():
            object.__setattr__(self, name, value)

    @classmethod
    def from_points(cls, points) -> "FanoPlane":
        return cls(tuple(sorted(points, key=operator.attrgetter("bits"))))

    def position(self, p: ElementSet) -> int:
        """The index of p in .points; InvariantError unless p is a point of the plane."""
        if p.bits in self.index and p.ground_size == self.support.ground_size:
            return self.index[p.bits]
        raise InvariantError(f"{p} is not a point of the plane")

    def lines(self) -> tuple[frozenset[int], ...]:
        """The 7 lines as frozensets of point indices into .points, sorted."""
        return tuple(map(frozenset, _LINES))

    def simplices(self) -> tuple[frozenset[int], ...]:
        """The 7 simplices (4 points, no 3 on a line) = complements of lines."""
        return tuple(frozenset(range(7)).difference(line) for line in _LINES)


def fano_planes_on(ground: ElementSet) -> tuple[FanoPlane, ...]:
    """All Fano planes whose points are 4-subsets of the given 7-element set.

    S7 on the support is transitive on them, so they are the orbit of one
    plane, the k = 3 hyperplane-complement design lifted onto the support,
    under the transposition (s1 s2) and the 7-cycle (s1 s2 ... s7) of the
    ascending support elements, which generate S7. The planes come sorted
    by their ascending point bitmasks.
    """
    if len(ground) != 7:
        raise InvariantError("ground set must have exactly 7 elements")
    n = ground.ground_size
    support = [e - 1 for e in ground.elements()]
    swap = list(range(n))
    swap[support[0]], swap[support[1]] = support[1], support[0]
    cycle = list(range(n))
    for i, e in enumerate(support):
        cycle[e] = support[(i + 1) % 7]
    first = tuple(sorted(
        map_bits(b.bits, support) for b in hyperplane_complement_blocks(3)
    ))
    planes = {first}
    frontier = [first]
    while frontier:
        plane = frontier.pop()
        for images in (swap, cycle):
            image = tuple(sorted(map_bits(bits, images) for bits in plane))
            if image not in planes:
                planes.add(image)
                frontier.append(image)
    return tuple(
        FanoPlane.from_points([ElementSet(bits, n) for bits in plane])
        for plane in sorted(planes)
    )


def is_simplex(f: FanoPlane, s) -> bool:
    """Whether four plane points contain no full line.

    Equivalent to the complement being a line; the primary check is the
    no-line condition and tests assert the equivalence exhaustively.
    """
    idxs = {f.position(p) for p in s}
    if len(idxs) != 4:
        raise InvariantError("a simplex consists of 4 distinct plane points")
    return not any(line <= idxs for line in f.lines())


@dataclass(frozen=True)
class FanoBijection:
    """A bijection between the point sets of two Fano planes.

    images[i] is the index in target.points of the image of source.points[i];
    they are stored as a tuple of ints, and a float or other non-integer is refused.
    """

    source: FanoPlane
    target: FanoPlane
    images: tuple[int, ...]

    def __post_init__(self):
        try:
            images = tuple(map(operator.index, self.images))
        except TypeError:
            raise InvariantError("images must be a permutation of 0..6") from None
        if sorted(images) != list(range(7)):
            raise InvariantError("images must be a permutation of 0..6")
        object.__setattr__(self, "images", images)

    @classmethod
    def from_mapping(cls, source: FanoPlane, target: FanoPlane, mapping) -> "FanoBijection":
        try:
            images = tuple(target.position(mapping[p]) for p in source.points)
        except KeyError as missing:
            raise InvariantError(f"mapping has no image for {missing.args[0]}") from None
        return cls(source, target, images)

    def mapping(self) -> dict[ElementSet, ElementSet]:
        return {
            p: self.target.points[self.images[i]]
            for i, p in enumerate(self.source.points)
        }

    def __call__(self, p: ElementSet) -> ElementSet:
        return self.target.points[self.images[self.source.position(p)]]


def _lines_kept(images) -> int:
    """Number of lines whose image under the position permutation images is a line: position
    p holds the vector p + 1 (see _LINES), so (a, b, c) is kept when its image vectors XOR."""
    count = 0
    for a, b, c in _LINES:
        if (images[a] + 1) ^ (images[b] + 1) == images[c] + 1:
            count += 1
    return count


def bijection_index(d: FanoBijection) -> int:
    """Number of source lines whose image is a line of the target."""
    return _lines_kept(d.images)


def pairing_index(xs, ys) -> int:
    """The index of xs[i] -> ys[i] between two planes of point bitmasks, the lines whose first
    two images XOR to the third; InternalCheckError unless each half, sorted, is 7 distinct
    points passing FanoPlane's closure test, which alone passes [0, 3, 3, 5, 5, 6, 6]."""
    image = dict(zip(xs, ys, strict=True))
    xs = sorted(image)
    ys = [image[x] for x in xs]
    if len(xs) != 7 or len(set(ys)) != 7:
        raise InternalCheckError("a half is not a closed Fano plane: it needs 7 distinct points")
    if not (_closed(xs) and _closed(sorted(ys))):
        raise InternalCheckError("a half is not a closed Fano plane")
    return sum([ys[a] ^ ys[b] == ys[c] for a, b, c in _LINES])


class _ClassTable(NamedTuple):
    group: tuple  # the position permutations that keep the lines, ascending
    least: MappingProxyType  # each position permutation -> the least member of its class
    classes: tuple  # (least member, frozenset of members) per class, ascending


@lru_cache(maxsize=None)
def _class_table() -> _ClassTable:
    """Each class g2 . p . g1 is walked from its least member p by the generators
    on both sides, so the class of the identity is the group they generate."""
    group = tuple(p for p in permutations(range(7)) if _lines_kept(p) == 7)
    if len(group) != 168:
        raise InternalCheckError(f"expected 168 plane automorphisms, got {len(group)}")
    least, classes = {}, []
    for p in permutations(range(7)):
        if p not in least:
            least[p], members = p, [p]
            for q in members:  # grows as the walk reaches new members
                for g in _GENERATORS:
                    for r in (compose(q, g), compose(g, q)):
                        if r not in least:
                            least[r] = p
                            members.append(r)
            classes.append((p, frozenset(members)))
    if classes[0][1] != frozenset(group):
        raise InternalCheckError("the generators do not generate the plane group")
    return _ClassTable(group, MappingProxyType(least), tuple(classes))


def automorphisms(f: FanoPlane) -> tuple[tuple[int, ...], ...]:
    """All 168 automorphisms as index permutations of f.points, sorted; every plane's."""
    return _class_table().group


def canonical_labeling(f: FanoPlane) -> dict[str, int]:
    """Deterministic labels 1,2,3,12,13,23,123 as indices into f.points.

    Points 1, 2, 3 are not on a common plane line, ij marks the third point
    on the line through i and j, and 123 is the remaining point: 1 and 2 are
    positions 0 and 1, and 3 is the least position off their line.

    The positions are the same in every plane: position p holds the vector
    p + 1 (see _LINES), and the label names that vector's basis elements.
    """
    return dict(_CANONICAL_LABELS)


def are_equivalent(d1: FanoBijection, d2: FanoBijection) -> bool:
    """Whether d2 = g2 . d1 . g1 for automorphisms g1, g2 of the two planes.

    Looks both up in the class table and compares the outcome with index
    equality; a disagreement would falsify the index invariant and aborts
    loudly.
    """
    if d1.source != d2.source or d1.target != d2.target:
        raise InvariantError("bijections must share source and target planes")
    least = _class_table().least
    found = least[d1.images] == least[d2.images]
    if found != (bijection_index(d1) == bijection_index(d2)):
        raise InternalCheckError("class membership and index comparison disagree")
    return found


def equivalence_classes(f1: FanoPlane, f2: FanoPlane):
    """Partition of all 5040 bijections f1 -> f2 into equivalence classes.

    Each class is the class of its least member, its representative.
    Returns (representative, class-members) pairs ordered by representative.
    """
    return [(FanoBijection(f1, f2, rep), members) for rep, members in _class_table().classes]


def index_spectrum(f1: FanoPlane, f2: FanoPlane) -> dict[int, int]:
    """Index histogram over all 5040 bijections; every pair of planes has the same."""
    return dict(Counter(map(_lines_kept, permutations(range(7)))))


def representative_of_index(f1: FanoPlane, f2: FanoPlane, idx: int) -> FanoBijection:
    """A bijection of the requested index, built from the canonical labelings.

    Index 7 is the label-matching isomorphism; 3 composes it with the
    transposition of the off-simplex points 12 and 13; 1 with the 3-cycle on
    12, 13, 23; 0 with the 4-cycle 123 -> 23 -> 12 -> 13 that fixes 1, 2, 3.
    Both planes carry their labels at the same positions, so the
    label-matching isomorphism is the identity on positions.
    """
    if idx not in _LABEL_CYCLES:
        raise InvariantError(f"index must be one of {INDEX_VALUES}")
    cycle = [_CANONICAL_LABELS[name] for name in _LABEL_CYCLES[idx]]
    images = list(range(7))
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        images[a] = b
    d = FanoBijection(f1, f2, tuple(images))
    actual = bijection_index(d)
    if actual != idx:
        raise InternalCheckError(
            f"representative construction produced index {actual}, wanted {idx}"
        )
    return d
