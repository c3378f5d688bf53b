"""Fano planes as 7-point cliques of 4-subsets of a 7-element support.

A FanoPlane comes from FanoPlane.from_points or fano_planes_on, which
validate its points once and store on it the point index (point bitmask ->
position in points) and the 7 lines that every other function here reads;
equality and hashing depend on the points alone.

A bijection between two planes carries an index: the number of lines it
maps to lines. The index takes only the values 0, 1, 3, 7 and is a complete
invariant for equivalence under composition with plane automorphisms.
"""

from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations, permutations
from operator import attrgetter

from .constructions import hyperplane_complement_blocks
from .errors import InternalCheckError, InvariantError
from .subsets import ElementSet, map_bits

INDEX_VALUES = (0, 1, 3, 7)

# the 35 triples of point positions, shared by the lines of every plane
_TRIPLES = {t: frozenset(t) for t in combinations(range(7), 3)}


@dataclass(frozen=True)
class FanoPlane:
    """Seven mutually collinear 4-subsets, closed under symmetric difference."""

    points: tuple[ElementSet, ...]
    index: dict[int, int] = field(compare=False, repr=False)
    _lines: tuple[frozenset[int], ...] = field(compare=False, repr=False)

    @classmethod
    def from_points(cls, points) -> "FanoPlane":
        pts = tuple(sorted(points, key=attrgetter("bits")))
        bits = [p.bits for p in pts]
        index = {b: i for i, b in enumerate(bits)}
        if len(pts) != 7 or len(index) != 7:
            raise InvariantError("a Fano plane needs 7 distinct points")
        support = 0
        for b in bits:
            if b.bit_count() != 4:
                raise InvariantError("plane points must be 4-element subsets")
            support |= b
        if support.bit_count() != 7:
            raise InvariantError("plane points must cover a 7-element support")
        # a ^ b is a 4-subset only if |a & b| = 2, so a closed plane is collinear;
        # pairs in lexicographic order emit each line once, at its two smallest points
        lines = []
        for i, j in combinations(range(7), 2):
            third = index.get(bits[i] ^ bits[j])
            if third is None:
                if (bits[i] & bits[j]).bit_count() != 2:
                    raise InvariantError(f"{pts[i]} and {pts[j]} are not collinear in the plane")
                raise InvariantError("plane is not closed under symmetric difference")
            if j < third:
                lines.append(_TRIPLES[i, j, third])
        return cls(pts, index, tuple(lines))

    @property
    def support(self) -> ElementSet:
        bits = 0
        for p in self.points:
            bits |= p.bits
        return ElementSet(bits, self.points[0].ground_size)

    def lines(self) -> tuple[frozenset[int], ...]:
        """The 7 lines as frozensets of point indices into .points, sorted."""
        return self._lines

    def simplices(self) -> tuple[frozenset[int], ...]:
        """The 7 simplices (4 points, no 3 on a line) = complements of lines."""
        everything = frozenset(range(7))
        return tuple(everything - line for line in self.lines())


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
    idxs = set()
    for p in s:
        if p.bits not in f.index:
            raise InvariantError(f"{p} is not a point of the plane")
        idxs.add(f.index[p.bits])
    if len(idxs) != 4:
        raise InvariantError("a simplex consists of 4 distinct plane points")
    return not any(line <= idxs for line in f.lines())


@dataclass(frozen=True)
class FanoBijection:
    """A bijection between the point sets of two Fano planes.

    images[i] is the index in target.points of the image of source.points[i].
    """

    source: FanoPlane
    target: FanoPlane
    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(7)):
            raise InvariantError("images must be a permutation of 0..6")

    @classmethod
    def from_mapping(cls, source: FanoPlane, target: FanoPlane, mapping) -> "FanoBijection":
        return cls(
            source, target, tuple(target.index[mapping[p].bits] for p in source.points)
        )

    def mapping(self) -> dict[ElementSet, ElementSet]:
        return {
            p: self.target.points[self.images[i]]
            for i, p in enumerate(self.source.points)
        }

    def __call__(self, p: ElementSet) -> ElementSet:
        return self.target.points[self.images[self.source.index[p.bits]]]


def _lines_kept(images, source_lines, target_lines: set) -> int:
    """Number of source lines that images sends onto a member of target_lines."""
    count = 0
    for line in source_lines:
        if frozenset([images[i] for i in line]) in target_lines:
            count += 1
    return count


def bijection_index(d: FanoBijection) -> int:
    """Number of source lines whose image is a line of the target."""
    return _lines_kept(d.images, d.source.lines(), set(d.target.lines()))


def automorphisms(f: FanoPlane) -> tuple[tuple[int, ...], ...]:
    """All 168 automorphisms as index permutations of f.points.

    Each ordered simplex is the image of a fixed base simplex under exactly
    one automorphism; extending those correspondences generates the group.
    """
    labels = canonical_labeling(f)
    base = (labels["1"], labels["2"], labels["3"], labels["123"])
    bits = [p.bits for p in f.points]
    thirds = [f.index[bits[base[0]] ^ bits[b]] for b in base[1:]]
    out = []
    for simplex in f.simplices():
        for ordered in permutations(sorted(simplex)):
            images = [-1] * 7
            for src, dst in zip(base, ordered):
                images[src] = dst
            for src, t in zip(thirds, ordered[1:]):
                images[src] = f.index[bits[ordered[0]] ^ bits[t]]
            out.append(tuple(images))
    result = tuple(sorted(set(out)))
    if len(result) != 168:
        raise InternalCheckError(f"expected 168 plane automorphisms, got {len(result)}")
    return result


def canonical_labeling(f: FanoPlane) -> dict[str, int]:
    """Deterministic labels 1,2,3,12,13,23,123 as indices into f.points.

    Points 1, 2, 3 are not on a common plane line, ij marks the third point
    on the line through i and j, and 123 is the remaining point.
    """
    bits = [p.bits for p in f.points]
    p1, p2 = 0, 1
    p12 = f.index[bits[p1] ^ bits[p2]]
    p3 = min(i for i in range(7) if i not in (p1, p2, p12))
    p13 = f.index[bits[p1] ^ bits[p3]]
    p23 = f.index[bits[p2] ^ bits[p3]]
    p123 = next(
        i for i in range(7) if i not in (p1, p2, p3, p12, p13, p23)
    )
    return {
        "1": p1, "2": p2, "3": p3,
        "12": p12, "13": p13, "23": p23, "123": p123,
    }


def _compose(outer: tuple[int, ...], inner: tuple[int, ...]) -> tuple[int, ...]:
    # point i goes through inner first, then outer
    return tuple(outer[inner[i]] for i in range(7))


def are_equivalent(d1: FanoBijection, d2: FanoBijection) -> bool:
    """Whether d2 = g2 . d1 . g1 for automorphisms g1, g2 of the two planes.

    Runs the full 168 x 168 conjugation search and compares the outcome with
    index equality; a disagreement would falsify the index invariant and
    aborts loudly.
    """
    if d1.source != d2.source or d1.target != d2.target:
        raise InvariantError("bijections must share source and target planes")
    auts1 = automorphisms(d1.source)
    auts2 = automorphisms(d1.target)
    found = False
    for g1 in auts1:
        pre = _compose(d1.images, g1)
        for g2 in auts2:
            if _compose(g2, pre) == d2.images:
                found = True
                break
        if found:
            break
    same_index = bijection_index(d1) == bijection_index(d2)
    if found != same_index:
        raise InternalCheckError(
            "conjugation search and index comparison disagree"
        )
    return found


def equivalence_classes(f1: FanoPlane, f2: FanoPlane):
    """Partition of all 5040 bijections f1 -> f2 into equivalence classes.

    Each class is the orbit of a representative under composition with plane
    automorphisms on both sides. Returns (representative, class-members) pairs
    ordered by representative.
    """
    auts1 = automorphisms(f1)
    auts2 = automorphisms(f2)
    remaining = {perm for perm in permutations(range(7))}
    classes = []
    while remaining:
        rep = min(remaining)
        # the product set {g2 . rep . g1} is already closed, hence the orbit
        orbit = set()
        for g1 in auts1:
            pre = _compose(rep, g1)
            for g2 in auts2:
                orbit.add(_compose(g2, pre))
        remaining -= orbit
        classes.append(
            (FanoBijection(f1, f2, rep), frozenset(orbit))
        )
    return classes


def index_spectrum(f1: FanoPlane, f2: FanoPlane) -> dict[int, int]:
    """Index histogram over all 5040 bijections between two planes."""
    target_lines = set(f2.lines())
    return dict(Counter(
        _lines_kept(perm, f1.lines(), target_lines) for perm in permutations(range(7))
    ))


def representative_of_index(f1: FanoPlane, f2: FanoPlane, idx: int) -> FanoBijection:
    """A bijection of the requested index, built from the canonical labelings.

    Index 7 is the label-matching isomorphism; 3 composes it with the
    transposition of the off-simplex points 12 and 13; 1 with the 3-cycle on
    12, 13, 23; 0 with the 4-cycle 123 -> 23 -> 12 -> 13 that fixes 1, 2, 3.
    """
    if idx not in INDEX_VALUES:
        raise InvariantError(f"index must be one of {INDEX_VALUES}")
    lab1 = canonical_labeling(f1)
    lab2 = canonical_labeling(f2)
    iso = [-1] * 7
    for name, i in lab1.items():
        iso[i] = lab2[name]

    pre = list(range(7))
    if idx == 3:
        pre[lab1["12"]] = lab1["13"]
        pre[lab1["13"]] = lab1["12"]
    elif idx == 1:
        pre[lab1["12"]] = lab1["13"]
        pre[lab1["13"]] = lab1["23"]
        pre[lab1["23"]] = lab1["12"]
    elif idx == 0:
        pre[lab1["123"]] = lab1["23"]
        pre[lab1["23"]] = lab1["12"]
        pre[lab1["12"]] = lab1["13"]
        pre[lab1["13"]] = lab1["123"]

    images = tuple(iso[pre[i]] for i in range(7))
    d = FanoBijection(f1, f2, images)
    actual = bijection_index(d)
    if actual != idx:
        raise InternalCheckError(
            f"representative construction produced index {actual}, wanted {idx}"
        )
    return d
