"""The point-line geometry of 2m-element subsets of [n] for n = 4m - 1 = 2^k - 1.

Points are all 2m-subsets of the ground set; two points are collinear when
their intersection has exactly m elements, and the third point on their line
is the symmetric difference. Maximal singular subspaces are copies of
PG(k-1,2) with 2^k - 1 points and correspond to binary simplex codes;
hyperplane_complement_blocks builds one from the hyperplanes of PG(k-1,2).

The dimension k alone fixes a geometry: GeometryParams(k) sets m and n
from it when built.
"""

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations
from math import comb
from operator import index

from .errors import InvariantError
from .subsets import MAX_GROUND_SIZE, ElementSet, subsets_of


@dataclass(frozen=True, slots=True)
class GeometryParams:
    """The dimension k, and the m = 2^(k-2) and n = 4m - 1 = 2^k - 1 it fixes.

    Only k is passed in, stored as an int (InvariantError for a non-integer);
    m and n are set when built, as stored fields so that reading them stays
    an attribute load. Parameters compare and hash by k alone.
    """

    k: int
    m: int = field(init=False, compare=False, repr=False)
    n: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        try:
            k = index(self.k)
        except TypeError:
            raise InvariantError(f"k must be an integer, got {self.k!r}") from None
        if k < 2:
            raise InvariantError("k must be at least 2")
        n = 2**k - 1
        if n > MAX_GROUND_SIZE:
            raise InvariantError(f"ground size {n} exceeds {MAX_GROUND_SIZE} (k <= 6)")
        for name, value in (("k", k), ("m", 2 ** (k - 2)), ("n", n)):
            object.__setattr__(self, name, value)

    @classmethod
    def for_dimension(cls, k: int) -> "GeometryParams":
        return cls(k)

    @property
    def point_size(self) -> int:
        return 2 * self.m


@dataclass(frozen=True, slots=True)
class Line:
    """Three distinct points, each the symmetric difference of the other two.

    Each member must be a point of the geometry on its ground.
    """

    points: tuple[ElementSet, ElementSet, ElementSet]

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        for p in self.points:
            geometry_for_ground(p.ground_size).bits_of(p)
        a, b, c = self.points
        if a ^ b != c:
            raise InvariantError("triple is not closed under symmetric difference")
        if not a.bits < b.bits < c.bits:
            raise InvariantError("line points must be in ascending canonical order")

    @classmethod
    def through(cls, a: ElementSet, b: ElementSet) -> "Line":
        pts = sorted((a, b, a ^ b), key=lambda p: p.bits)
        return cls(tuple(pts))

    def __contains__(self, point: ElementSet) -> bool:
        return point in self.points


# The roster holds C(2^k - 1, 2^(k-1)) points: 6435 at k = 4, 300,540,195 at k = 5.
MAX_ROSTER_DIMENSION = 4


@dataclass(frozen=True)
class Geometry:
    """One geometry: its parameters, and its point roster in ascending bitmask order.

    Geometries compare and hash by their parameters alone. The roster is
    built on the first call to points, index_of or indices_of;
    for k > MAX_ROSTER_DIMENSION that call raises InvariantError at once.
    """

    params: GeometryParams

    @cached_property
    def points(self) -> tuple[ElementSet, ...]:
        if self.params.k > MAX_ROSTER_DIMENSION:
            raise InvariantError(
                f"the k = {self.params.k} point roster would hold {len(self)} points;"
                f" rosters are built for k <= {MAX_ROSTER_DIMENSION} only"
            )
        return subsets_of(ElementSet.full(self.params.n), self.params.point_size)

    @cached_property
    def _index(self) -> dict[int, int]:
        return {p.bits: i for i, p in enumerate(self.points)}

    def __len__(self) -> int:
        return comb(self.params.n, self.params.point_size)

    def contains(self, p) -> bool:
        """Whether p is a point: an ElementSet of the right size on [n]."""
        return (
            isinstance(p, ElementSet)
            and p.ground_size == self.params.n
            and p.bits.bit_count() == 2 * self.params.m
        )

    def bits_of(self, p: ElementSet) -> int:
        """The bitmask of p; raises InvariantError unless p is a point."""
        if not self.contains(p):
            raise InvariantError(f"{p} is not a point of this geometry")
        return p.bits

    def index_of(self, p: ElementSet) -> int:
        return self._index[self.bits_of(p)]

    def indices_of(self, bits) -> tuple[int, ...]:
        """Roster indices of the given point bitmasks, which must be points."""
        try:
            return tuple(map(self._index.__getitem__, bits))
        except KeyError as exc:
            (missing,) = exc.args
            raise InvariantError(f"bitmask {missing:#x} is not a point of this geometry") from None


@lru_cache(maxsize=None)
def build_geometry(params: GeometryParams) -> Geometry:
    """The one shared geometry of params (keyed by k as an int), so one roster per dimension."""
    return Geometry(params)


def geometry_for_dimension(k: int) -> Geometry:
    """build_geometry(GeometryParams(k)): the shared geometry, for an int or __index__ k."""
    return build_geometry(GeometryParams(k))


def geometry_for_ground(n: int) -> Geometry:
    """The shared geometry on [n]; n must be 2^k - 1."""
    k = n.bit_length()
    if 2**k - 1 != n:
        raise InvariantError(f"ground size {n} is not of the form 2^k - 1")
    return geometry_for_dimension(k)


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


def is_collinear(g: Geometry, x: ElementSet, y: ElementSet) -> bool:
    """Whether two distinct points meet in exactly m elements."""
    a, b = g.bits_of(x), g.bits_of(y)
    if a == b:
        raise InvariantError("collinearity is defined for distinct points")
    return (a & b).bit_count() == g.params.m


def line_through(g: Geometry, x: ElementSet, y: ElementSet) -> Line:
    if not is_collinear(g, x, y):
        raise InvariantError(f"{x} and {y} are not collinear")
    return Line.through(x, y)


def is_subspace(g: Geometry, s) -> bool:
    """Whether s is closed: the third point of every internal collinear pair is in s."""
    bits = [g.bits_of(p) for p in s]
    inside = set(bits)
    m = g.params.m
    for a, b in combinations(bits, 2):
        if (a & b).bit_count() == m and a ^ b not in inside:
            return False
    return True


def is_singular_subspace(g: Geometry, s) -> bool:
    """A subspace whose points are pairwise collinear."""
    return is_singular_bits(g.params.m, [g.bits_of(p) for p in s])


def is_singular_bits(m: int, bits) -> bool:
    """Whether point bitmasks meet pairwise in m elements and hold every pair's sum.

    A repeated bitmask fails: it meets itself in 2m elements.
    """
    inside = set(bits)
    for a, b in combinations(bits, 2):
        if (a & b).bit_count() != m or a ^ b not in inside:
            return False
    return True


def singular_span(g: Geometry, s) -> frozenset[ElementSet]:
    """Smallest singular subspace containing s.

    Closes s under symmetric differences of collinear pairs. Raises
    InvariantError as soon as the closure contains a non-collinear pair,
    i.e. when s is not contained in any singular subspace.
    """
    m = g.params.m
    seen = {g.bits_of(p) for p in s}
    queue = list(seen)
    while queue:
        a = queue.pop()
        for b in list(seen):
            if a == b:
                continue
            if (a & b).bit_count() != m:
                raise InvariantError(
                    "input is not contained in any singular subspace"
                )
            c = a ^ b
            if c not in seen:
                seen.add(c)
                queue.append(c)
    return frozenset(ElementSet(bits, g.params.n) for bits in seen)
