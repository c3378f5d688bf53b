"""Collinearity graph, maximal-clique enumeration and clique classification.

The graph stores one adjacency bitset per vertex (bit j of adjacency[u] is
set when vertex j is collinear to vertex u). maximal_cliques is the
package's one Bron-Kerbosch: it works on any list of adjacency bitsets and
yields sorted vertex tuples under a fixed pivot rule, so the stream is
deterministic.
enumerate_maximal_cliques is the wrapper for a collinearity graph: it
applies the limit and the optional sort and wraps each tuple in a Clique.

A clique's centers, lines and Fano planes come from one pass over its point
bitmasks (_structure). classify_clique works on those ints directly;
center_points, lines_inside and planes_inside wrap them as ElementSet, Line
and frozenset values.
"""

import heapq
from dataclasses import dataclass
from enum import Enum
from itertools import combinations, islice

import numpy as np

from .errors import InternalCheckError, InvariantError
from .geometry import Geometry, Line, is_singular_subspace
from .subsets import ElementSet, set_bits


class CollinearityGraph:
    def __init__(self, geometry: Geometry, adjacency: list[int]):
        self.geometry = geometry
        self.adjacency = adjacency

    def __len__(self) -> int:
        return len(self.adjacency)

    def degree(self, u: int) -> int:
        return self.adjacency[u].bit_count()


def build_graph(g: Geometry) -> CollinearityGraph:
    """Adjacency bitsets for the whole point roster.

    Computed from the 0/1 point-element matrix: vertices are adjacent when
    the inner product of their rows is exactly m. The slow predicate
    is_collinear remains the semantic source of truth; tests compare both.
    """
    n = g.params.n
    m = g.params.m
    rows = np.zeros((len(g), n), dtype=np.int16)
    for i, p in enumerate(g.points):
        for e in p.elements():
            rows[i, e - 1] = 1
    adjacency: list[int] = []
    chunk = 1024
    for start in range(0, len(g), chunk):
        counts = rows[start:start + chunk] @ rows.T
        adjacent = counts == m
        for local, row in enumerate(adjacent):
            u = start + local
            row[u] = False
            packed = np.packbits(row, bitorder="little").tobytes()
            adjacency.append(int.from_bytes(packed, "little"))
    return CollinearityGraph(g, adjacency)


@dataclass(frozen=True)
class Clique:
    """Mutually collinear points, stored as sorted roster indices."""

    geometry: Geometry
    vertices: tuple[int, ...]

    def __post_init__(self):
        g = self.geometry
        if list(self.vertices) != sorted(set(self.vertices)):
            raise InvariantError("clique vertices must be sorted and distinct")
        if len(self.vertices) > g.params.n:
            raise InvariantError("clique exceeds the n-element bound")
        pts = [g.points[v].bits for v in self.vertices]
        m = g.params.m
        for a, b in combinations(pts, 2):
            if (a & b).bit_count() != m:
                raise InvariantError(
                    f"points {bin(a)} and {bin(b)} are not collinear"
                )

    @classmethod
    def from_points(cls, g: Geometry, points) -> "Clique":
        return cls(g, tuple(sorted(g.index_of(p) for p in points)))

    @property
    def points(self) -> tuple[ElementSet, ...]:
        return tuple(self.geometry.points[v] for v in self.vertices)

    def point_bits(self) -> frozenset[int]:
        return frozenset(self.geometry.points[v].bits for v in self.vertices)

    def __len__(self) -> int:
        return len(self.vertices)

    def __contains__(self, p: ElementSet) -> bool:
        return self.geometry.contains(p) and self.geometry.index_of(p) in set(self.vertices)


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
    """Classification verdict with the evidence that produced it."""

    tag: CliqueTag
    centers: tuple[ElementSet, ...]
    index: int | None
    line_count: int
    plane_count: int

    def __post_init__(self):
        if self.tag is CliqueTag.NON_CENTERED:
            if self.centers or self.index is not None:
                raise InvariantError("non-centered verdicts carry no center or index")
        else:
            if not self.centers or self.index != INDEX_BY_TAG[self.tag]:
                raise InvariantError(
                    f"tag {self.tag.value} requires a center and index"
                    f" {INDEX_BY_TAG[self.tag]}"
                )


def maximal_cliques(adj: list[int], min_size: int = 0, containing: int | None = None):
    """Stream the maximal cliques of a graph given by adjacency bitsets.

    Bit j of adj[u] is set when u and j are adjacent. Each clique is a
    tuple of vertices, ascending. Bron-Kerbosch with pivoting (Tomita,
    Tanaka & Takahashi 2006) under a fixed rule: the pivot maximizes
    |P & N(u)|, ties to the smallest vertex, and candidates are scanned in
    ascending order, so the stream is deterministic. Subtrees that cannot
    reach min_size are pruned. With containing=v only cliques through v are
    emitted; otherwise the top level runs in degeneracy order, which keeps
    the subproblems small.
    """

    def expand(r: list[int], p: int, x: int):
        if p == 0 and x == 0:
            if len(r) >= min_size:
                yield tuple(sorted(r))
            return
        if len(r) + p.bit_count() < min_size:
            return
        pivot = -1
        best = -1
        for u in set_bits(p | x):
            score = (p & adj[u]).bit_count()
            if score > best:
                best = score
                pivot = u
        for v in set_bits(p & ~adj[pivot]):
            mask = 1 << v
            yield from expand(r + [v], p & adj[v], x & adj[v])
            p &= ~mask
            x |= mask

    if containing is not None:
        yield from expand([containing], adj[containing], 0)
        return
    order = _degeneracy_order(adj)
    position = {v: i for i, v in enumerate(order)}
    for v in order:
        later = 0
        earlier = 0
        for u in set_bits(adj[v]):
            if position[u] > position[v]:
                later |= 1 << u
            else:
                earlier |= 1 << u
        yield from expand([v], later, earlier)


def enumerate_maximal_cliques(
    graph: CollinearityGraph,
    limit: int | None = None,
    min_size: int = 0,
    containing: int | None = None,
    sorted_output: bool = False,
):
    """Stream maximal cliques of the collinearity graph as Clique values.

    The stream of maximal_cliques on the graph's adjacency, cut after limit
    cliques. min_size prunes subtrees that cannot reach the requested size;
    the n-element bound caps every clique, so min_size = n searches exactly
    the design-sized ones. With containing=v only cliques through v are
    emitted. sorted_output materializes the stream and yields in sorted
    order, so it requires a finite search (use limit or a restricted scope).
    """
    found = islice(maximal_cliques(graph.adjacency, min_size, containing), limit)
    if sorted_output:
        found = sorted(found)
    for vertices in found:
        yield Clique(graph.geometry, vertices)


def _degeneracy_order(adj: list[int]) -> list[int]:
    """Repeatedly remove the vertex of least remaining degree, ties to the smallest.

    A heap of (degree, vertex) entries keeps this O((V + E) log V), so
    isolated vertices cost almost nothing. A vertex's current entry is its
    smallest, so it pops before any stale one, which then finds it removed.
    """
    degs = [a.bit_count() for a in adj]
    heap = [(d, v) for v, d in enumerate(degs)]
    heapq.heapify(heap)
    remaining = (1 << len(adj)) - 1
    order = []
    while heap:
        _, v = heapq.heappop(heap)
        if not remaining >> v & 1:
            continue
        order.append(v)
        remaining ^= 1 << v
        for u in set_bits(adj[v] & remaining):
            degs[u] -= 1
            heapq.heappush(heap, (degs[u], u))
    return order


def _structure(c: Clique):
    """Centers, lines and planes of a clique in one pass over its point bitmasks.

    Returns plain ints: the center bitmasks ascending, the lines as ascending
    triples (a, b, a ^ b) in lexicographic order, and the planes as ascending
    7-tuples in lexicographic order. Every pair of clique points is
    collinear, so a line is a pair whose sum is inside, a center is a point
    whose sum with every other point is inside (it lies on (|c| - 1) / 2
    lines), and a plane is a line plus one more point d whose three sums
    with the line points are inside. Each plane is built once, from the line
    through its two smallest points and the smallest point off that line.
    """
    bits = sorted(c.point_bits())
    inside = set(bits)
    on_lines = dict.fromkeys(bits, 0)
    lines = []
    planes = []
    for i, a in enumerate(bits):
        for j in range(i + 1, len(bits)):
            b = bits[j]
            third = a ^ b
            if third < b or third not in inside:
                continue
            lines.append((a, b, third))
            on_lines[a] += 1
            on_lines[b] += 1
            on_lines[third] += 1
            for d in bits[j + 1:]:
                if d == third:
                    continue
                # third > b puts the top bit of b above that of a, so
                # ad > d and bd > d already give third ^ d > d
                ad, bd, td = a ^ d, b ^ d, third ^ d
                if ad > d and bd > d and ad in inside and bd in inside and td in inside:
                    planes.append(tuple(sorted((a, b, third, d, ad, bd, td))))
    centers = tuple(o for o in bits if 2 * on_lines[o] == len(bits) - 1)
    planes.sort()
    return centers, tuple(lines), tuple(planes)


def center_points(c: Clique) -> tuple[ElementSet, ...]:
    """All points O of the clique whose line to every other point stays inside."""
    n = c.geometry.params.n
    return tuple(ElementSet(b, n) for b in _structure(c)[0])


def lines_inside(c: Clique) -> tuple[Line, ...]:
    """All lines of the geometry with all three points in the clique.

    Ordered by their two smallest points; each line lists its points ascending.
    """
    n = c.geometry.params.n
    return tuple(
        Line(tuple(ElementSet(b, n) for b in line)) for line in _structure(c)[1]
    )


def planes_inside(c: Clique) -> tuple[frozenset[ElementSet], ...]:
    """All 7-point singular subspaces (Fano-plane copies) inside the clique.

    Ordered by their sorted point bitmasks, i.e. sorted(planes, key=sorted)
    on the bitmask sets.
    """
    n = c.geometry.params.n
    return tuple(
        frozenset(ElementSet(b, n) for b in plane) for plane in _structure(c)[2]
    )


def classify_clique(c: Clique) -> CliqueClass:
    """Classify a maximal n-element clique of the k = 4 geometry.

    The bijection index of a decomposition at the smallest center point is
    the primary route; the structural description (singularity, Fano planes
    and lines inside) is recomputed independently and any disagreement is a
    hard failure. Both routes start from the center, line and plane bitmasks
    of one _structure pass; only the verdict's centers become ElementSets.
    """
    from .constructions import decompose
    from .fano import bijection_index

    g = c.geometry
    if g.params.k != 4:
        raise InvariantError("classification is defined for the k = 4 geometry")
    if len(c) != g.params.n:
        raise InvariantError(f"clique has {len(c)} points, expected {g.params.n}")

    center_bits, lines, planes = _structure(c)
    centers = tuple(ElementSet(b, g.params.n) for b in center_bits)

    if not centers:
        tag_structural = CliqueTag.NON_CENTERED
        index = None
    else:
        dec = decompose(c, centers[0])
        index = bijection_index(dec.fano_bijection())
        if index not in TAG_BY_INDEX:
            raise InternalCheckError(f"impossible bijection index {index}")
        tag_structural = _structural_tag(c, center_bits, lines, planes)
        if TAG_BY_INDEX[index] is not tag_structural:
            raise InternalCheckError(
                f"index route gives {TAG_BY_INDEX[index].value} but structure"
                f" gives {tag_structural.value}"
            )
    return CliqueClass(
        tag=tag_structural,
        centers=centers,
        index=index,
        line_count=len(lines),
        plane_count=len(planes),
    )


def _structural_tag(c, centers, lines, planes) -> CliqueTag:
    """Type from the center, line and plane bitmasks that _structure returns."""
    center_bits = set(centers)
    line_sets = [frozenset(line) for line in lines]
    plane_sets = [frozenset(plane) for plane in planes]

    if is_singular_subspace(c.geometry, c.points):
        if len(centers) != len(c):
            raise InternalCheckError("singular clique without all points central")
        return CliqueTag.C1

    if len(plane_sets) == 3:
        common = plane_sets[0] & plane_sets[1] & plane_sets[2]
        pairwise = [a & b for a, b in combinations(plane_sets, 2)]
        if any(pw != common for pw in pairwise) or len(common) != 3:
            raise InternalCheckError("three planes do not share a single line")
        if common not in line_sets or center_bits != set(common):
            raise InternalCheckError("shared line is not the set of center points")
        if any(not any(ls <= ps for ps in plane_sets) for ls in line_sets):
            raise InternalCheckError("line outside the three planes")
        return CliqueTag.C2

    if len(plane_sets) == 1:
        if len(centers) != 1 or centers[0] not in plane_sets[0]:
            raise InternalCheckError("expected one center inside the unique plane")
        o = centers[0]
        for ls in line_sets:
            if not (ls <= plane_sets[0] or o in ls):
                raise InternalCheckError("line outside plane misses the center")
        return CliqueTag.C3

    if len(plane_sets) == 0:
        if len(centers) != 1:
            raise InternalCheckError("plane-free clique must have a unique center")
        o = centers[0]
        if any(o not in ls for ls in line_sets):
            raise InternalCheckError("line inside does not pass through the center")
        return CliqueTag.C4

    raise InternalCheckError(f"unexpected number of internal planes: {len(plane_sets)}")
