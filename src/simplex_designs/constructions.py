"""Explicit constructions, and the classification of cliques that reads them.

* the centered product of two (2m-1)-element cliques glued by a bijection,
  and its inverse decomposition at a center point, which checks its split
  by rebuilding c.bits through the product's bitmask formula (_product_bits)
  and counts its index with fano.pairing_index on the paired halves;
* a clique's centers, lines and Fano planes as position masks (bit i for
  c.bits[i]) from one pass (_structure), and classify_clique, which types a
  k = 4 clique by the index of its split, cross-checked against those masks;
  its verdict, a CliqueClass, stores the index and reads its type off it;
* the clique of hyperplane complements of PG(k-1,2);
* a non-centered 15-element clique assembled from a singular subspace with
  a plane removed plus a disjoint plane.
"""

from dataclasses import dataclass
from enum import Enum
from itertools import combinations

from .cliques import Clique
from .errors import InternalCheckError, InvariantError
from .fano import FanoBijection, FanoPlane, pairing_index, representative_of_index
from .geometry import (
    Geometry,
    Line,
    geometry_for_dimension,
    geometry_for_ground,
    hyperplane_complement_blocks,
    is_singular_bits,
    is_singular_subspace,
    singular_span,
)
from .subsets import ElementSet, set_bits


def _check_half_clique(points, support: int, n: int, m: int, what: str) -> list[int]:
    pts = tuple(points)
    bits = [p.bits for p in pts]
    if len(bits) != len(set(bits)):
        raise InvariantError(f"{what} contains repeated points")
    if len(bits) != 2 * m - 1:
        raise InvariantError(f"{what} must have {2 * m - 1} points, got {len(bits)}")
    union = 0
    for p in pts:
        if p.ground_size != n or p.bits.bit_count() != m:
            raise InvariantError(f"{what} point {p} is not a subset of [{n}] with {m} elements")
        if p.bits & ~support:
            raise InvariantError(f"{what} point {p} leaves its support {ElementSet(support, n)}")
        union |= p.bits
    for a, b in combinations(pts, 2):
        if (a.bits & b.bits).bit_count() != m // 2:
            raise InvariantError(f"{what} points {a}, {b} do not meet in {m // 2}")
    if union.bit_count() != 2 * m - 1:
        raise InvariantError(f"{what} must cover {2 * m - 1} elements of {ElementSet(support, n)}")
    return bits


def _half_bits(half, support: int, n: int, m: int, what: str) -> list[int]:
    """Bitmasks of a half inside the mask support: a plane, proved when built, is only placed."""
    if not isinstance(half, FanoPlane):
        return _check_half_clique(half, support, n, m, what)
    if m != 4 or half.support.ground_size != n:
        raise InvariantError(f"{what} is a Fano plane, not a k = 4 half on [{n}]")
    if half.support.bits & ~support:
        raise InvariantError(f"{what} support {half.support} leaves {ElementSet(support, n)}")
    return half.bits


def product_clique(O: ElementSet, X, Y, delta, geometry: Geometry | None = None) -> Clique:
    """Centered clique {O} u {x u delta(x)} u {x u (O minus delta(x))}.

    X must be a maximal (2m-1)-clique of m-subsets of the complement of O,
    Y one of m-subsets of a (2m-1)-subset of O, delta a bijection X -> Y.
    The result has n points, is maximal by the n-element bound, and O is a
    center point. FanoPlane halves and a FanoBijection between them are
    proved when built, so only where the planes sit is checked; point
    sequences and other deltas (mappings, callables) are checked in full.
    """
    g = geometry if geometry is not None else geometry_for_ground(O.ground_size)
    n, m = g.params.n, g.params.m
    if len(O) != 2 * m or O.ground_size != n:
        raise InvariantError(f"center must be a {2 * m}-element set on [{n}]")
    o = O.bits
    xs = _half_bits(X, ((1 << n) - 1) & ~o, n, m, "X")
    ys = _half_bits(Y, o, n, m, "Y")
    if isinstance(delta, FanoBijection) and isinstance(X, FanoPlane) and isinstance(Y, FanoPlane):
        if (delta.source, delta.target) != (X, Y):
            raise InvariantError("delta is a bijection between other planes than X and Y")
        images = [ys[i] for i in delta.images]
    else:
        if not callable(delta):
            delta = dict(delta).__getitem__
        try:
            images = [delta(ElementSet(x, n)).bits for x in xs]
        except KeyError as missing:
            raise InvariantError(f"delta has no image for {missing}") from None
        if set(images) != set(ys):
            raise InvariantError("delta is not a bijection from X onto Y")

    # the halves prove the product a clique: two members meet in m/2 + m/2,
    # or in x alone, or in y or O minus y against O, so no pair is checked again
    return Clique._proved(g, _product_bits(o, xs, images))


def _product_bits(o: int, xs, ys) -> tuple[int, ...]:
    """Sorted members of the centered product: o, then x | y and x | (o & ~y) per pair."""
    members = [o]
    for x, y in zip(xs, ys):
        members += (x | y, x | (o & ~y))
    return tuple(sorted(members))


def default_z(O: ElementSet) -> ElementSet:
    """The default (2m-1)-subset of a center: O minus its largest element."""
    if not O.bits:
        raise InvariantError("the empty set has no largest element")
    return ElementSet(O.bits & ~(1 << (O.bits.bit_length() - 1)), O.ground_size)


@dataclass(frozen=True)
class CenteredDecomposition:
    """The unique (X, Y, delta) splitting of a centered clique at O and Z.

    The plus half, the clique points whose O-part lies inside Z, is
    {xs[i] | ys[i]}; the minus half is {xs[i] | (O - ys[i])}, and each of
    its members holds the element of O outside Z. The ElementSet views of
    xs and ys are built from these bitmasks on each read.
    """

    center: ElementSet
    z: ElementSet
    xs: tuple[int, ...]
    ys: tuple[int, ...]

    def _sets(self, bits) -> tuple[ElementSet, ...]:
        n = self.center.ground_size
        return tuple(ElementSet(b, n) for b in bits)

    @property
    def x_points(self) -> tuple[ElementSet, ...]:
        return self._sets(self.xs)

    @property
    def y_points(self) -> tuple[ElementSet, ...]:
        return self._sets(self.ys)

    @property
    def delta(self) -> dict[ElementSet, ElementSet]:
        return dict(zip(self.x_points, self.y_points))

    def fano_bijection(self) -> FanoBijection:
        src = FanoPlane.from_points(self.x_points)
        dst = FanoPlane.from_points(self.y_points)
        return FanoBijection.from_mapping(src, dst, self.delta)

    def bijection_index(self) -> int:
        """fano.pairing_index of the halves; InvariantError unless they have 7 points (k = 4)."""
        if len(self.xs) != 7:
            raise InvariantError(f"Fano halves need 7 points, got {len(self.xs)}")
        return pairing_index(self.xs, self.ys)


def decompose(c: Clique, O: ElementSet, Z: ElementSet | None = None) -> CenteredDecomposition:
    """Split a centered maximal n-clique at center O with respect to Z.

    Z defaults to default_z(O). X collects the intersections of the plus
    half with the complement of O; Y their O-parts; delta pairs them point
    by point; all stay bitmasks until read. InvariantError unless c has n
    points, O and Z lie on its ground [n], O is a center of c and Z a
    (2m-1)-subset of O; InternalCheckError unless _product_bits rebuilds
    c.bits. fano_bijection and bijection_index check the halves' planes.
    """
    n, m = c.geometry.params.n, c.geometry.params.m
    o = O.bits
    if len(c) != n:
        raise InvariantError(f"clique has {len(c)} points, expected {n}")
    if O.ground_size != n:
        raise InvariantError(f"center lies on ground {O.ground_size}, the clique on {n}")
    inside = set(c.bits)
    if o not in inside:
        raise InvariantError(f"{O} is not a point of the clique")
    if any(o ^ b not in inside for b in inside if b != o):
        raise InvariantError(f"{O} is not a center point of the clique")
    if Z is None:
        Z = default_z(O)
    elif Z.ground_size != n:
        raise InvariantError(f"Z lies on ground {Z.ground_size}, the clique on {n}")
    if not Z <= O or len(Z) != 2 * m - 1:
        raise InvariantError(f"Z must be a {2 * m - 1}-element subset of the center")
    return _split(c, O, Z)


def _split(c: Clique, O: ElementSet, Z: ElementSet) -> CenteredDecomposition:
    """The split of decompose at a center O of c and a (2m-1)-subset Z of O,
    which the caller has checked; the rebuild through _product_bits stays."""
    o = O.bits
    spare = o & ~Z.bits
    plus = [b for b in c.bits if b != o and not b & spare]
    xs, ys = tuple([b & ~o for b in plus]), tuple([b & o for b in plus])
    # equal tuples leave 2m-1 plus points and the minus half {p ^ o}, all holding spare
    if _product_bits(o, xs, ys) != c.bits:
        raise InternalCheckError("decomposition does not rebuild the clique")
    return CenteredDecomposition(center=O, z=Z, xs=xs, ys=ys)


class CliqueTag(Enum):
    C1 = "C1"
    C2 = "C2"
    C3 = "C3"
    C4 = "C4"
    NON_CENTERED = "NON_CENTERED"


TAG_BY_INDEX = {7: CliqueTag.C1, 3: CliqueTag.C2, 1: CliqueTag.C3, 0: CliqueTag.C4}
INDEX_BY_TAG = {tag: idx for idx, tag in TAG_BY_INDEX.items()}


@dataclass(frozen=True)
class CliqueClass:
    """Classification verdict with the evidence that produced it.

    The type is read off the bijection index: a clique with no center is
    NON_CENTERED, and a centered one has the tag TAG_BY_INDEX gives its index.
    """

    centers: tuple[ElementSet, ...]
    index: int | None
    line_count: int
    plane_count: int

    def __post_init__(self):
        object.__setattr__(self, "centers", tuple(self.centers))
        if bool(self.centers) != (self.index is not None):
            raise InvariantError("a verdict carries an index exactly when it has centers")
        if self.index is not None and self.index not in TAG_BY_INDEX:
            raise InvariantError(f"{self.index} is not the index of a centered type")

    @property
    def tag(self) -> CliqueTag:
        return CliqueTag.NON_CENTERED if self.index is None else TAG_BY_INDEX[self.index]


def _structure(bits: tuple[int, ...]):
    """Centers, lines and planes of a clique in one pass over its point bitmasks.

    Everything is a position mask, bit i standing for bits[i]: the centers
    as one mask, the lines as 3-bit masks ordered by their two smallest
    points, and the planes as 7-bit masks. Every pair of clique points is
    collinear, so a line is a pair whose sum is inside, a center is a point
    whose sum with every other point is inside (it lies on (|c| - 1) / 2
    lines), and a plane is a line plus one more point d whose three sums
    with the line points are inside. Each plane is built once, from the line
    through its two smallest points and the smallest point off that line.
    """
    at = {b: i for i, b in enumerate(bits)}
    on_lines = [0] * len(bits)
    lines = []
    planes = []
    for i, a in enumerate(bits):
        for j in range(i + 1, len(bits)):
            b = bits[j]
            third = a ^ b
            if third < b or third not in at:
                continue
            t = at[third]
            line = 1 << i | 1 << j | 1 << t
            lines.append(line)
            on_lines[i] += 1
            on_lines[j] += 1
            on_lines[t] += 1
            for d in bits[j + 1:]:
                # third > b puts the top bit of b above that of a, so ad > d
                # and bd > d already give third ^ d > d and rule out d == third
                ad, bd, td = a ^ d, b ^ d, third ^ d
                if ad > d and bd > d and ad in at and bd in at and td in at:
                    planes.append(line | 1 << at[d] | 1 << at[ad] | 1 << at[bd] | 1 << at[td])
    centers = sum(1 << i for i, count in enumerate(on_lines) if 2 * count == len(bits) - 1)
    return centers, lines, planes


def _at(bits: tuple[int, ...], mask: int) -> tuple[int, ...]:
    """The point bitmasks at the positions set in mask, ascending."""
    return tuple([bits[i] for i in set_bits(mask)])


def center_points(c: Clique) -> tuple[ElementSet, ...]:
    """All points O of the clique whose line to every other point stays inside."""
    n = c.geometry.params.n
    return tuple(ElementSet(b, n) for b in _at(c.bits, _structure(c.bits)[0]))


def lines_inside(c: Clique) -> tuple[Line, ...]:
    """All lines of the geometry with all three points in the clique.

    Ordered by their two smallest points; each line lists its points ascending.
    """
    n = c.geometry.params.n
    return tuple(
        Line(tuple(ElementSet(b, n) for b in _at(c.bits, line)))
        for line in _structure(c.bits)[1]
    )


def planes_inside(c: Clique) -> tuple[frozenset[ElementSet], ...]:
    """All 7-point singular subspaces (Fano-plane copies) inside the clique.

    Ordered by their sorted point bitmasks, i.e. sorted(planes, key=sorted)
    on the bitmask sets.
    """
    n = c.geometry.params.n
    planes = sorted(_at(c.bits, plane) for plane in _structure(c.bits)[2])
    return tuple(frozenset(ElementSet(b, n) for b in plane) for plane in planes)


def classify_clique(c: Clique) -> CliqueClass:
    """Classify a maximal n-element clique of the k = 4 geometry.

    The bijection index of the decomposition at the smallest center point
    is the primary route, counted on the split's bitmasks. The structural
    description (singularity, Fano planes and lines inside) is recomputed
    independently from the center, line and plane masks of one _structure
    pass, whose lines the index route never reads; any disagreement is a
    hard failure. Only the verdict's centers become ElementSets.
    """
    g = c.geometry
    if g.params.k != 4:
        raise InvariantError("classification is defined for the k = 4 geometry")
    if len(c) != g.params.n:
        raise InvariantError(f"clique has {len(c)} points, expected {g.params.n}")

    center_mask, lines, planes = _structure(c.bits)
    centers = tuple(ElementSet(b, g.params.n) for b in _at(c.bits, center_mask))

    index = None
    if centers:
        # _structure has just proved the center, so decompose's checks are skipped
        index = _split(c, centers[0], default_z(centers[0])).bijection_index()
        if index not in TAG_BY_INDEX:
            raise InternalCheckError(f"impossible bijection index {index}")
        tag_structural = _structural_tag(c, center_mask, lines, planes)
        if TAG_BY_INDEX[index] is not tag_structural:
            raise InternalCheckError(
                f"index route gives {TAG_BY_INDEX[index].value} but structure"
                f" gives {tag_structural.value}"
            )
    return CliqueClass(
        centers=centers,
        index=index,
        line_count=len(lines),
        plane_count=len(planes),
    )


def _structural_tag(c, centers, lines, planes) -> CliqueTag:
    """Type from the center, line and plane position masks that _structure returns."""
    if is_singular_bits(c.geometry.params.m, c.bits):
        if centers.bit_count() != len(c):
            raise InternalCheckError("singular clique without all points central")
        return CliqueTag.C1

    if len(planes) == 3:
        p, q, r = planes
        common = p & q & r
        if p & q != common or p & r != common or q & r != common or common.bit_count() != 3:
            raise InternalCheckError("three planes do not share a single line")
        if common not in lines or centers != common:
            raise InternalCheckError("shared line is not the set of center points")
        if any(line & ~p and line & ~q and line & ~r for line in lines):
            raise InternalCheckError("line outside the three planes")
        return CliqueTag.C2

    if len(planes) == 1:
        (plane,) = planes
        if centers.bit_count() != 1 or not centers & plane:
            raise InternalCheckError("expected one center inside the unique plane")
        if any(line & ~plane and not line & centers for line in lines):
            raise InternalCheckError("line outside plane misses the center")
        return CliqueTag.C3

    if not planes:
        if centers.bit_count() != 1:
            raise InternalCheckError("plane-free clique must have a unique center")
        if any(not line & centers for line in lines):
            raise InternalCheckError("line inside does not pass through the center")
        return CliqueTag.C4

    raise InternalCheckError(f"unexpected number of internal planes: {len(planes)}")


def hyperplane_complement_clique(k: int) -> Clique:
    blocks = hyperplane_complement_blocks(k)
    return Clique.from_points(geometry_for_dimension(k), blocks)


# Signed labels used by the non-centered construction: the 15-element ground
# set {-7..-1, 0, 1..7} maps to [15] via -i -> 8-i, 0 -> 8, i -> 8+i.
def signed_element(label: int) -> int:
    if not -7 <= label <= 7:
        raise InvariantError(f"signed label {label} outside -7..7")
    return 8 + label


def signed_set(labels) -> ElementSet:
    return ElementSet.of([signed_element(v) for v in labels], 15)


def _plus_minus(*values: int):
    out = []
    for v in values:
        out.extend((v, -v))
    return out


def _cross_point_n(i: int, j: int) -> ElementSet:
    labels = [0, i, j, 7] + [-t for t in range(1, 7) if t not in (i, j)]
    return signed_set(labels)


def _cross_point_m(i: int, j: int, t: int) -> ElementSet:
    labels = [-7, 0, i, j, t] + [-s for s in range(1, 7) if s not in (i, j, t)]
    return signed_set(labels)


def non_centered_blocks() -> tuple[ElementSet, ...]:
    """The fixed non-centered 15-clique, in construction order.

    Order: the attached plane (built from three collinear points and one
    further point spanning it), the all-positive point, then the seven
    cross points.
    """
    x1 = signed_set(_plus_minus(1, 2, 3, 4))
    x2 = signed_set(_plus_minus(1, 2, 5, 6))
    x3 = signed_set(_plus_minus(3, 4, 5, 6))
    x = signed_set(_plus_minus(1, 3, 5, 7))
    plane = [x1, x2, x3, x, x ^ x1, x ^ x2, x ^ x3]
    y = signed_set([0, 1, 2, 3, 4, 5, 6, 7])
    cross = [
        _cross_point_n(1, 3),
        _cross_point_n(2, 5),
        _cross_point_n(4, 6),
        _cross_point_m(1, 2, 4),
        _cross_point_m(1, 5, 6),
        _cross_point_m(2, 3, 6),
        _cross_point_m(3, 4, 5),
    ]
    return tuple(plane + [y] + cross)


def non_centered_clique() -> Clique:
    """A maximal 15-element clique without any center point."""
    c = Clique.from_points(geometry_for_dimension(4), non_centered_blocks())
    if _structure(c.bits)[0]:
        raise InternalCheckError("non-centered construction produced a center")
    return c


@dataclass(frozen=True)
class NonCenteredParts:
    """Shape witness: clique = (subspace minus removed_plane) union plane."""

    plane: frozenset[ElementSet]
    subspace: frozenset[ElementSet]
    removed_plane: frozenset[ElementSet]


def split_non_centered(c: Clique) -> NonCenteredParts:
    """Recover the subspace-plus-plane shape of a non-centered clique.

    Finds the unique plane inside the clique, spans the remaining 8 points
    to a 15-point singular subspace, and checks that the subspace meets the
    clique exactly in those 8 points while the leftover 7 subspace points
    form a plane disjoint from the clique.
    """
    g = c.geometry
    planes = _structure(c.bits)[2]
    if len(planes) != 1:
        raise InvariantError(
            f"expected exactly one plane inside the clique, found {len(planes)}"
        )
    plane = frozenset(ElementSet(b, g.params.n) for b in _at(c.bits, planes[0]))
    rest = [p for p in c.points if p not in plane]
    subspace = singular_span(g, rest)
    if len(subspace) != g.params.n:
        raise InvariantError("remaining points do not span a maximal subspace")
    removed = subspace - frozenset(rest)
    clique_points = set(c.points)
    if len(removed) != 7 or removed & clique_points:
        raise InvariantError("subspace does not meet the clique in the right shape")
    # the plane misses the subspace: the subspace is rest plus removed, the
    # plane lies in the clique outside rest, and removed misses the clique
    if not is_singular_subspace(g, removed):
        raise InvariantError("deleted part of the subspace is not a plane")
    return NonCenteredParts(
        plane=plane,
        subspace=frozenset(subspace),
        removed_plane=frozenset(removed),
    )


def canonical_center() -> ElementSet:
    return ElementSet.of(range(8, 16), 15)


def canonical_centered_blocks(index: int) -> tuple[ElementSet, ...]:
    """Reference centered clique for a given bijection index, ordered for output.

    Uses the center {8..15}, the hyperplane-complement plane on {1..7} in
    functional order, its shift by 8 as the second plane, and the index
    representative between them, read on positions. Blocks come out as the
    seven x u delta(x) points, the center, then the seven complements; with
    index 7 this reproduces the hyperplane-complement blocks of PG(3,2) exactly.
    """
    blocks = hyperplane_complement_blocks(3)
    plane = FanoPlane.from_points(blocks)
    images = representative_of_index(plane, plane, index).images
    # the second plane is the first shifted by 8, which keeps the point order
    image = {x: plane.bits[j] << 8 for x, j in zip(plane.bits, images)}
    xs, o = [x.bits for x in blocks], canonical_center().bits
    members = [x | image[x] for x in xs] + [o] + [x | (o & ~image[x]) for x in xs]
    return tuple(ElementSet(b, 15) for b in members)
