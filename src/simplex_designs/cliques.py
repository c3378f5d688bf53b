"""Collinearity graph, cliques and maximal-clique enumeration.

The graph stores one adjacency bitset, a Python int, per vertex (bit j of
adjacency[u] is set when vertex j is collinear to vertex u). build_graph
makes all rows in one depth-first walk of the 2m-subsets in roster order,
adding element columns (_colex_columns) into bit-sliced counters handed
down the walk, so rows share the adds of their common larger elements
(12,869 adds for the 6435 k = 4 rows, not 8 each). maximal_cliques is the
package's one Bron-Kerbosch: it works on any list of adjacency bitsets and
yields sorted vertex tuples under a fixed pivot rule, so the stream is
deterministic. It runs as one loop over an explicit stack of open nodes, so
it makes no generator per search node, and it drops a node whose candidates
hold too few vertices of high enough degree among themselves to reach
min_size; that bound is read off the pivot scores and cuts only subtrees
that emit nothing, so the stream is the unpruned one less its cliques below
min_size. The whole graph is searched from the root; a search through
one vertex v starts at v on N[v] renumbered in ascending order (_renumber),
so a slice of the 6435-vertex k = 4 graph works on bitsets as wide as the
slice; the stream is the same. enumerate_maximal_cliques is the wrapper
for a collinearity graph, whose edges were checked when it was built: it
maps each tuple through the point roster to bitmasks, which the search has
proved collinear, and wraps them with Clique._proved, which (unlike
Clique(...) and Clique.from_points) checks no pair again. A clique's
structure and type are read in constructions, beside the split they use.
"""

import logging
from dataclasses import dataclass
from itertools import combinations
from math import comb
from operator import index, itemgetter

from .errors import InvariantError
from .geometry import Geometry
from .subsets import ElementSet, set_bits

logger = logging.getLogger(__name__)


class CollinearityGraph:
    """Adjacency bitsets on the point roster: bit j of adjacency[u] joins u and j.

    The constructor raises InvariantError unless there is one row per point
    and every edge (only set bits are walked) joins two collinear points, so
    a hand-built graph may drop edges but not invent them. build_graph's
    rows are collinearity by construction; it wraps them with _unchecked.
    """

    def __init__(self, geometry: Geometry, adjacency: list[int]):
        points, m = geometry.points, geometry.params.m
        if len(adjacency) != len(points):
            raise InvariantError(f"adjacency has {len(adjacency)} rows, expected {len(points)}")
        for u, row in enumerate(adjacency):
            if not row:
                continue
            if row >> len(points):  # also true of a negative row
                raise InvariantError(f"row {u} has bits outside range({len(points)})")
            # a point meets itself in 2m != m elements, so this also rejects j == u
            for j in set_bits(row):
                if (points[u].bits & points[j].bits).bit_count() != m:
                    raise InvariantError(f"vertices {u} and {j} are not collinear")
        self.geometry = geometry
        self.adjacency = adjacency

    @classmethod
    def _unchecked(cls, geometry: Geometry, adjacency: list[int]) -> "CollinearityGraph":
        """A graph on rows already known to be collinearity; no check."""
        graph = object.__new__(cls)
        graph.geometry = geometry
        graph.adjacency = adjacency
        return graph


def build_graph(g: Geometry) -> CollinearityGraph:
    """Adjacency bitsets for the whole point roster, numbered as g.points.

    Vertices are adjacent when their point bitmasks meet in exactly m
    elements. Bit j of column[e] is set when point j holds element e. One
    depth-first walk of the 2m-subsets, largest element first and smallest
    choice first, meets the points in roster (ascending bitmask) order; each
    tree edge adds one column into bit-sliced counters (plane i holds bit i
    of every count; Knuth, TAOCP 4A, 7.1.3) handed down the tree, and each
    leaf is the next row. Counts lie in 0..2m with m a power of two, so they
    are kept mod 2m, and count == m is the top plane without the others.
    The slow predicate is_collinear remains the semantic source of truth.
    """
    g.points  # the roster guard fails before any column is built
    m, n = g.params.m, g.params.n
    column = _colex_columns(n, 2 * m)
    adjacency: list[int] = []

    def walk(planes: list[int], below: int, left: int):
        # the next-largest element e leaves room for left - 1 smaller ones
        for e in range(left - 1, below):
            carry = column[e]
            sums = []
            for plane in planes:
                sums.append(plane ^ carry)
                carry &= plane
            if left > 1:
                walk(sums, e, left - 1)
            else:
                # a point meets itself in 2m != m elements, so no vertex is its own neighbour
                top = sums.pop()
                low = 0
                for plane in sums:
                    low |= plane
                adjacency.append(top ^ top & low)

    walk([0] * m.bit_length(), n, 2 * m)
    return CollinearityGraph._unchecked(g, adjacency)


def _colex_columns(n: int, t: int) -> list[int]:
    """column[e] for the t-subsets of range(n) in ascending bitmask order.

    Bit j of column[e] is set when the j-th subset holds e. In colex order
    (Knuth, TAOCP 4A, 7.2.1.3) the s-subsets of range(i + 1) are those of
    range(i), then those of size s - 1 with i added, so each column of size
    s is the column of size s OR the column of size s - 1 shifted past the
    C(i, s) subsets without i, and column i marks the C(i, s - 1) after them.
    """
    # columns[s] holds the columns of the s-subsets of range(i)
    columns = [[] for _ in range(t + 1)]
    for i in range(n):
        for s in range(t, 0, -1):
            shift = comb(i, s)
            columns[s] = [
                a | b << shift for a, b in zip(columns[s], columns[s - 1])
            ] + [((1 << comb(i, s - 1)) - 1) << shift]
        columns[0].append(0)
    return columns[t]


@dataclass(frozen=True)
class Clique:
    """Mutually collinear points, stored as ascending bitmasks and checked by popcount."""

    geometry: Geometry
    bits: tuple[int, ...]

    def __post_init__(self):
        try:
            object.__setattr__(self, "bits", tuple(map(index, self.bits)))
        except TypeError:
            raise InvariantError("clique points must be integer bitmasks") from None
        n, m = self.geometry.params.n, self.geometry.params.m
        if list(self.bits) != sorted(set(self.bits)):
            raise InvariantError("clique points must be sorted and distinct")
        if len(self.bits) > n:
            raise InvariantError("clique exceeds the n-element bound")
        for b in self.bits:
            if b >> n or b.bit_count() != 2 * m:
                raise InvariantError(f"{bin(b)} is not a point of this geometry")
        for a, b in combinations(self.bits, 2):
            if (a & b).bit_count() != m:
                raise InvariantError(
                    f"points {bin(a)} and {bin(b)} are not collinear"
                )

    @classmethod
    def _proved(cls, geometry: Geometry, bits: tuple[int, ...]) -> "Clique":
        """A clique from ascending bitmasks already proved collinear; no second check."""
        c = object.__new__(cls)
        object.__setattr__(c, "geometry", geometry)
        object.__setattr__(c, "bits", bits)
        return c

    @classmethod
    def from_points(cls, g: Geometry, points) -> "Clique":
        return cls(g, tuple(sorted(g.bits_of(p) for p in points)))

    @property
    def points(self) -> tuple[ElementSet, ...]:
        return tuple(ElementSet(b, self.geometry.params.n) for b in self.bits)

    @property
    def vertices(self) -> tuple[int, ...]:
        """Roster indices of the points, ascending; builds the roster on first use."""
        return self.geometry.indices_of(self.bits)

    def __len__(self) -> int:
        return len(self.bits)

    def __contains__(self, p) -> bool:
        """Whether p is a point of the clique; False for anything that is no point."""
        return self.geometry.contains(p) and p.bits in self.bits


def maximal_cliques(adj: list[int], min_size: int = 0, containing: int | None = None):
    """Stream the maximal cliques of a graph given by adjacency bitsets.

    Bit j of adj[u] is set when u and j are adjacent. Each clique is a
    tuple of vertices, ascending. Bron-Kerbosch with pivoting (Tomita,
    Tanaka & Takahashi 2006) under a fixed rule: the pivot maximizes
    |P & N(u)|, ties to the smallest vertex, and candidates are scanned in
    ascending order, so the stream is deterministic. Without containing,
    the search starts at the root with every vertex a candidate; the pivot
    rule alone is worst-case optimal, and on graphs as dense as these no
    vertex order helps.

    The search is one loop over an explicit stack. Each open node is
    [r, p, x, its branches], the set bits of P minus the pivot's
    neighbours. The loop takes the deepest node's next branch v, builds the
    child (r + [v], P & N(v), X & N(v)) and then moves v from the node's P
    to its X, so no generator is made per node and an emitted clique climbs
    no generator chain. Subtrees that cannot reach min_size are pruned. With
    need = min_size - |r|, a node needs |P| >= need, and, since a clique of
    size need inside P has need vertices each with need - 1 neighbours in
    P, it needs need vertices of P whose pivot score |P & N(u)| is at least
    need - 1; the vertices of X are scored only for a node that passes. Both
    bounds drop only subtrees that emit no clique of min_size, and a node
    that is kept has the pivot and branch order it has without them, so the
    stream is the unpruned stream less its cliques below min_size.

    With containing=v only cliques through v are emitted. The search then
    runs on N[v] (v and its neighbours) renumbered 0..|N[v]| - 1 in
    ascending order, so its bitsets are |N[v]| bits wide instead of
    len(adj), and each clique is mapped back through that list. The
    renumbering is monotone, so pivots, scan order and stream are exactly
    those of the search on adj itself. v must be in range(len(adj)).
    """

    def expand(adj: list[int], r: list[int], p: int, x: int):
        # enter the node (r, p, x), then take the next branch of the deepest open node
        stack = []
        while True:
            need = min_size - len(r)
            if p == 0 and x == 0:
                if need <= 0:
                    yield tuple(sorted(r))
            elif p.bit_count() >= need:
                # a score over P is a degree in P: a clique of size need in P
                # has need vertices of degree need - 1 or more there
                pivot = -1
                best = -1
                enough = 0
                for u in set_bits(p):
                    score = (p & adj[u]).bit_count()
                    if score > best:
                        best = score
                        pivot = u
                    if score >= need - 1:
                        enough += 1
                if enough >= need:
                    for u in set_bits(x):
                        score = (p & adj[u]).bit_count()
                        if score > best or score == best and u < pivot:
                            best = score
                            pivot = u
                    stack.append([r, p, x, set_bits(p & ~adj[pivot])])
            # close the exhausted nodes, then branch on the deepest open one
            while stack:
                node = stack[-1]
                for v in node[3]:
                    break
                else:
                    stack.pop()
                    continue
                r, p, x = node[0] + [v], node[1] & adj[v], node[2] & adj[v]
                mask = 1 << v
                node[1] &= ~mask
                node[2] |= mask
                break
            else:
                return

    if containing is not None:
        if not 0 <= containing < len(adj):
            raise InvariantError(
                f"containing vertex {containing} is not in range({len(adj)})"
            )
        outer, local = _renumber(adj, containing)
        v = outer.index(containing)
        emitted = 0
        for clique in expand(local, [v], local[v], 0):
            emitted += 1
            yield tuple([outer[u] for u in clique])
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug(
                "maximal_cliques containing=%d closed_neighbourhood=%d cliques=%d",
                containing, len(outer), emitted,
            )
        return
    if adj:
        for clique in expand(adj, [], (1 << len(adj)) - 1, 0):
            yield clique


def _renumber(adj: list[int], v: int) -> tuple[list[int], list[int]]:
    """N[v] ascending, and the graph it induces with outer[i] renumbered to i.

    Character -1 - w of bin(row | 1 << len(adj)) is bit w of the row, so one
    itemgetter picks the columns of N[v] from the highest down and int(_, 2)
    reads them back as a row |N[v]| bits wide.
    """
    outer = list(set_bits(adj[v] | 1 << v))
    pick = itemgetter(*[-1 - w for w in reversed(outer)])
    return outer, [int("".join(pick(bin(adj[u] | 1 << len(adj)))), 2) for u in outer]


def enumerate_maximal_cliques(
    graph: CollinearityGraph,
    min_size: int = 0,
    containing: int | None = None,
):
    """Stream maximal cliques of the collinearity graph as Clique values.

    The stream of maximal_cliques on the graph's adjacency. min_size prunes
    subtrees that cannot reach the requested size; the n-element bound caps
    every clique, so min_size = n searches exactly the design-sized ones.
    With containing=v only cliques through v are emitted. No pair is checked
    again: the graph's constructor has checked every edge.
    """
    points = graph.geometry.points
    for vertices in maximal_cliques(graph.adjacency, min_size, containing):
        # the roster ascends by bitmask, so ascending vertices give ascending bits
        yield Clique._proved(graph.geometry, tuple([points[v].bits for v in vertices]))
