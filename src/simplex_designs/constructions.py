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
from .geometry import Geometry, geometry_for_dimension, geometry_for_ground, singular_span
from .subsets import ElementSet, complement_in


def _check_half_clique(points, support: ElementSet, m: int, what: str):
    pts = list(points)
    if len(pts) != len({p.bits for p in pts}):
        raise InvariantError(f"{what} contains repeated points")
    if len(pts) != 2 * m - 1:
        raise InvariantError(f"{what} must have {2 * m - 1} points, got {len(pts)}")
    for p in pts:
        if len(p) != m:
            raise InvariantError(f"{what} point {p} is not an {m}-element subset")
        if not p <= support:
            raise InvariantError(f"{what} point {p} leaves its support {support}")
    for a, b in combinations(pts, 2):
        if (a.bits & b.bits).bit_count() != m // 2:
            raise InvariantError(f"{what} points {a}, {b} do not meet in {m // 2}")


def product_clique(O: ElementSet, X, Y, delta, geometry: Geometry | None = None) -> Clique:
    """Centered clique {O} u {x u delta(x)} u {x u (O minus delta(x))}.

    X must be a maximal (2m-1)-clique of m-subsets of the complement of O,
    Y one of m-subsets of a (2m-1)-subset of O, delta a bijection X -> Y.
    The result has n points, is maximal by the n-element bound, and O is a
    center point.
    """
    g = geometry if geometry is not None else geometry_for_ground(O.ground_size)
    n, m = g.params.n, g.params.m
    if len(O) != 2 * m:
        raise InvariantError(f"center must be a {2 * m}-element set")
    x_points = tuple(getattr(X, "points", X))
    y_points = tuple(getattr(Y, "points", Y))
    if not callable(delta):
        mapping = dict(delta)
        delta = mapping.__getitem__
    o_complement = complement_in(O, ElementSet.full(n))
    _check_half_clique(x_points, o_complement, m, "X")
    bits = 0
    for y in y_points:
        bits |= y.bits
    z_support = ElementSet(bits, n)
    if not z_support <= O or len(z_support) != 2 * m - 1:
        raise InvariantError("Y must live inside a (2m-1)-element subset of the center")
    _check_half_clique(y_points, z_support, m, "Y")
    images = [delta(x) for x in x_points]
    if {q.bits for q in images} != {q.bits for q in y_points}:
        raise InvariantError("delta is not a bijection from X onto Y")

    # O and both halves share the ground [n]; Clique checks the points themselves
    return Clique(g, _product_bits(O.bits, [x.bits for x in x_points], [y.bits for y in images]))


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

    plus_half collects the clique points whose O-part lies inside Z,
    minus_half the rest; every minus_half member contains the single
    element of O outside Z.
    """

    center: ElementSet
    z: ElementSet
    x_points: tuple[ElementSet, ...]
    y_points: tuple[ElementSet, ...]
    delta: dict[ElementSet, ElementSet]
    plus_half: tuple[ElementSet, ...]
    minus_half: tuple[ElementSet, ...]

    def fano_bijection(self):
        from .fano import FanoBijection, FanoPlane

        src = FanoPlane.from_points(self.x_points)
        dst = FanoPlane.from_points(self.y_points)
        return FanoBijection.from_mapping(src, dst, self.delta)


def decompose(c: Clique, O: ElementSet, Z: ElementSet | None = None) -> CenteredDecomposition:
    """Split a centered maximal n-clique at center O with respect to Z.

    Z defaults to default_z(O). X collects the intersections
    with the complement of O; Y the O-parts contained in Z; delta pairs them
    block by block. InvariantError unless c has n points and O is a center
    of c and Z a (2m-1)-subset of O; InternalCheckError unless _product_bits
    rebuilds c.bits. fano_bijection validates the halves as Fano planes.
    """
    n, m = c.geometry.params.n, c.geometry.params.m
    o = O.bits
    if len(c) != n:
        raise InvariantError(f"clique has {len(c)} points, expected {n}")
    inside = set(c.bits)
    if o not in inside:
        raise InvariantError(f"{O} is not a point of the clique")
    if any(o ^ b not in inside for b in inside if b != o):
        raise InvariantError(f"{O} is not a center point of the clique")
    if Z is None:
        Z = default_z(O)
    if not Z <= O or len(Z) != 2 * m - 1:
        raise InvariantError(f"Z must be a {2 * m - 1}-element subset of the center")

    spare = o & ~Z.bits
    plus = [b for b in c.bits if b != o and not b & spare]
    xs, ys = [b & ~o for b in plus], [b & o for b in plus]
    # equal tuples leave 2m-1 plus points and the minus half {p ^ o}, all holding spare
    if _product_bits(o, xs, ys) != c.bits:
        raise InternalCheckError("decomposition does not rebuild the clique")
    x_points = tuple(ElementSet(x, n) for x in xs)
    y_points = tuple(ElementSet(y, n) for y in ys)
    return CenteredDecomposition(
        center=O,
        z=Z,
        x_points=x_points,
        y_points=y_points,
        delta=dict(zip(x_points, y_points)),
        plus_half=tuple(ElementSet(b, n) for b in plus),
        minus_half=tuple(ElementSet(b, n) for b in c.bits if b != o and b & spare),
    )


def hyperplane_complement_blocks(k: int) -> tuple[ElementSet, ...]:
    """Hyperplane complements of PG(k-1,2), one per nonzero functional.

    Points of PG(k-1,2) are identified with the integers 1..2^k-1 read as
    coordinate vectors; block a consists of the points with odd inner
    product against a. Blocks are listed in functional order a = 1..n.
    """
    if k < 3:
        raise InvariantError("hyperplane complements need k >= 3")
    n = 2**k - 1
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
    from .geometry import is_singular_subspace

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
    from .fano import FanoPlane, representative_of_index

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
