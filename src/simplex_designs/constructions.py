"""Explicit clique constructions.

* the centered product of two (2m-1)-element cliques glued by a bijection,
  and its inverse decomposition at a center point, which checks its split
  by rebuilding c.bits through the product's bitmask formula (_product_bits);
* the clique of hyperplane complements of PG(k-1,2);
* a non-centered 15-element clique assembled from a singular subspace with
  a plane removed plus a disjoint plane.
"""

from dataclasses import dataclass
from itertools import combinations

from .cliques import Clique, center_points, planes_inside
from .errors import InternalCheckError, InvariantError
from .fano import FanoBijection, FanoPlane, representative_of_index
from .geometry import (
    Geometry,
    GeometryParams,
    geometry_for_dimension,
    geometry_for_ground,
    is_singular_subspace,
    singular_span,
)
from .subsets import ElementSet


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
            raise InvariantError(f"{what} point {p} is not an {m}-element subset of [{n}]")
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
    xs[i] | ys[i] in ascending order; the minus half is xs[i] | (O - ys[i]),
    and each of its members holds the element of O outside Z. The ElementSet
    views are built from these bitmasks on each read.
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

    @property
    def plus_half(self) -> tuple[ElementSet, ...]:
        return self._sets(x | y for x, y in zip(self.xs, self.ys))

    @property
    def minus_half(self) -> tuple[ElementSet, ...]:
        o = self.center.bits
        return self._sets(sorted(x | (o & ~y) for x, y in zip(self.xs, self.ys)))

    def fano_bijection(self) -> FanoBijection:
        src = FanoPlane.from_points(self.x_points)
        dst = FanoPlane.from_points(self.y_points)
        return FanoBijection.from_mapping(src, dst, self.delta)

    def bijection_index(self) -> int:
        """Number of X-lines whose three y-images form a Y-line, on bitmasks.

        Equals fano.bijection_index(self.fano_bijection()). Both halves must
        be closed Fano planes (7 distinct points, every pairwise sum inside,
        so 7 lines), or InternalCheckError; InvariantError unless they have 7
        points (k = 4). A line is counted once at each of its three pairs.
        """
        xs, ys = self.xs, self.ys
        if len(xs) != 7:
            raise InvariantError(f"Fano halves need 7 points, got {len(xs)}")
        y_of, y_set = dict(zip(xs, ys)), set(ys)
        if len(y_of) != 7 or len(y_set) != 7:
            raise InternalCheckError("a half is not a closed Fano plane: it repeats a point")
        kept = 0
        for (x1, y1), (x2, y2) in combinations(zip(xs, ys), 2):
            y3 = y_of.get(x1 ^ x2)
            if y3 is None or y1 ^ y2 not in y_set:
                raise InternalCheckError("a half is not a closed Fano plane")
            kept += y3 == y1 ^ y2
        return kept // 3


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

    spare = o & ~Z.bits
    plus = [b for b in c.bits if b != o and not b & spare]
    xs, ys = tuple([b & ~o for b in plus]), tuple([b & o for b in plus])
    # equal tuples leave 2m-1 plus points and the minus half {p ^ o}, all holding spare
    if _product_bits(o, xs, ys) != c.bits:
        raise InternalCheckError("decomposition does not rebuild the clique")
    return CenteredDecomposition(center=O, z=Z, xs=xs, ys=ys)


def hyperplane_complement_blocks(k: int) -> tuple[ElementSet, ...]:
    """Hyperplane complements of PG(k-1,2), one per nonzero functional.

    Points of PG(k-1,2) are identified with the integers 1..2^k-1 read as
    coordinate vectors; block a consists of the points with odd inner
    product against a. Blocks are listed in functional order a = 1..n.
    """
    if k < 3:
        raise InvariantError("hyperplane complements need k >= 3")
    n = GeometryParams.for_dimension(k).n
    return tuple(
        ElementSet.of(
            [j for j in range(1, n + 1) if (a & j).bit_count() % 2 == 1], n
        )
        for a in range(1, n + 1)
    )


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
    if center_points(c):
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
    planes = planes_inside(c)
    if len(planes) != 1:
        raise InvariantError(
            f"expected exactly one plane inside the clique, found {len(planes)}"
        )
    plane = planes[0]
    rest = [p for p in c.points if p not in plane]
    subspace = singular_span(g, rest)
    if len(subspace) != g.params.n:
        raise InvariantError("remaining points do not span a maximal subspace")
    removed = subspace - frozenset(rest)
    clique_points = set(c.points)
    if len(removed) != 7 or removed & clique_points:
        raise InvariantError("subspace does not meet the clique in the right shape")
    if plane & subspace:
        raise InvariantError("attached plane is not disjoint from the subspace")
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
    representative between them. Blocks come out as the seven x u delta(x)
    points, the center, then the seven complements; with index 7 this
    reproduces the hyperplane-complement blocks of PG(3,2) exactly.
    """
    if index not in (0, 1, 3, 7):
        raise InvariantError("index must be one of 0, 1, 3, 7")
    O = canonical_center()
    x_ordered = [ElementSet(x.bits, 15) for x in hyperplane_complement_blocks(3)]
    shift = {x.bits: ElementSet(x.bits << 8, 15) for x in x_ordered}

    src = FanoPlane.from_points(x_ordered)
    dst = FanoPlane.from_points(shift.values())
    rep = representative_of_index(src, dst, index)
    mapping = rep.mapping()

    blocks = [x | mapping[x] for x in x_ordered]
    blocks.append(O)
    blocks.extend(
        x | ElementSet(O.bits & ~mapping[x].bits, 15) for x in x_ordered
    )
    return tuple(blocks)
