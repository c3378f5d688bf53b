"""The point-line geometry of 2m-element subsets of [n] for n = 4m - 1 = 2^k - 1.

Points are all 2m-subsets of the ground set; two points are collinear when
their intersection has exactly m elements, and the third point on their line
is the symmetric difference. Maximal singular subspaces are copies of
PG(k-1,2) with 2^k - 1 points and correspond to binary simplex codes.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from math import comb

from .errors import InvariantError
from .subsets import ElementSet, subsets_of


@dataclass(frozen=True, slots=True)
class GeometryParams:
    """Parameter triple (k, m, n) with m = 2^(k-2) and n = 4m - 1 = 2^k - 1."""

    k: int
    m: int
    n: int

    def __post_init__(self):
        if self.k < 2:
            raise InvariantError("k must be at least 2")
        if self.m * 4 != 2**self.k or self.n != 4 * self.m - 1:
            raise InvariantError(
                f"({self.k}, {self.m}, {self.n}) is not a simplex-code triple"
            )

    @classmethod
    def for_dimension(cls, k: int) -> "GeometryParams":
        if k < 2:
            raise InvariantError("k must be at least 2")
        return cls(k, 2 ** (k - 2), 2**k - 1)

    @property
    def point_size(self) -> int:
        return 2 * self.m


@dataclass(frozen=True, slots=True)
class Line:
    """Three distinct points, each the symmetric difference of the other two."""

    points: tuple[ElementSet, ElementSet, ElementSet]

    def __post_init__(self):
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

    def contains(self, p: ElementSet) -> bool:
        return p.ground_size == self.params.n and p.bits.bit_count() == 2 * self.params.m

    def bits_of(self, p: ElementSet) -> int:
        """The bitmask of p; raises InvariantError unless p is a point."""
        if not self.contains(p):
            raise InvariantError(f"{p} is not a point of this geometry")
        return p.bits

    def index_of(self, p: ElementSet) -> int:
        return self._index[self.bits_of(p)]

    def indices_of(self, bits) -> tuple[int, ...]:
        """Roster indices of the given point bitmasks, which must be points."""
        return tuple(map(self._index.__getitem__, bits))


def build_geometry(params: GeometryParams) -> Geometry:
    return Geometry(params)


@lru_cache(maxsize=None)
def geometry_for_dimension(k: int) -> Geometry:
    """Shared, cached geometry instance for the given dimension."""
    return build_geometry(GeometryParams.for_dimension(k))


def geometry_for_ground(n: int) -> Geometry:
    """The shared geometry on [n]; n must be 2^k - 1."""
    k = n.bit_length()
    if 2**k - 1 != n:
        raise InvariantError(f"ground size {n} is not of the form 2^k - 1")
    return geometry_for_dimension(k)


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
    pts = list(s)
    bits = {p.bits for p in pts}
    m = g.params.m
    for a, b in combinations(pts, 2):
        if (a.bits & b.bits).bit_count() == m and a.bits ^ b.bits not in bits:
            return False
    return True


def is_singular_subspace(g: Geometry, s) -> bool:
    """A subspace whose points are pairwise collinear."""
    return is_singular_bits(g.params.m, [p.bits for p in s])


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
    current: list[int] = []
    for p in s:
        b = g.bits_of(p)
        if b not in current:
            current.append(b)
    seen = set(current)
    queue = list(current)
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
