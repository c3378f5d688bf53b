"""The four benchmark workloads: classify, slice, census and iso.

Each workload owns its seeded inputs, its set-up (the library calls a fresh
process makes before the first op), its rounds of ops and the checks on
their results. Checks run outside the timed ops and use code of their own
where a second, independent route is wanted. Library calls made inside
ops go through ``tracer.call`` so the traced run records a span per call;
untraced runs pass straight through.
"""

import random
from importlib import resources
from itertools import permutations, product
from math import factorial, prod

import simplex_designs as sd
from simplex_designs.constructions import canonical_center
from simplex_designs.designs import point_block_systems
from simplex_designs.geometry import GeometryParams

FIXTURES = ("c1", "c2", "c3", "c4", "non_centered")
TAGS = {"c1": "C1", "c2": "C2", "c3": "C3", "c4": "C4", "non_centered": "NON_CENTERED"}
TAG_OF_INDEX = {7: "C1", 3: "C2", 1: "C3", 0: "C4"}

# class, |Aut|, block orbits, flag orbits per fixture. Every entry is a
# property of the design, so it must not depend on the labeling.
CLASSIFY_TABLE = {
    "c1": ("C1", 20160, 1, 1),
    "c2": ("C2", 576, 2, 3),
    "c3": ("C3", 96, 3, 7),
    "c4": ("C4", 168, 2, 4),
    "non_centered": ("NON_CENTERED", 168, 2, 4),
}

# Index histogram over the 5040 bijections between two Fano planes.
INDEX_SPECTRUM = {7: 168, 3: 1176, 1: 2352, 0: 1344}

PERMS_7 = tuple(permutations(range(7)))


class OpFailed:
    """Marker for an op that raised; the phase has already counted it."""


FAILED = OpFailed()
# Returned by an op function when there was nothing left to do: not an op.
EXHAUSTED = object()


def permute_bits(bits: int, images) -> int:
    """Image of a bitmask under a 0-based point map (benchmark's own code)."""
    out = 0
    while bits:
        low = bits & -bits
        out |= 1 << images[low.bit_length() - 1]
        bits ^= low
    return out


def random_images(rng: random.Random, v: int) -> list[int]:
    images = list(range(v))
    rng.shuffle(images)
    return images


def relabeled(design, rng: random.Random):
    """The design under a seeded point relabeling, blocks in seeded order."""
    images = random_images(rng, design.v)
    blocks = [sd.ElementSet(permute_bits(b.bits, images), design.v) for b in design.blocks]
    rng.shuffle(blocks)
    return sd.Design(tuple(blocks))


def read_fixture_text(name: str) -> str:
    return resources.files("simplex_designs.fixtures").joinpath(f"{name}.incidence.txt").read_text()


def fixture_results(tracer, geometry, design):
    """The classify op on one design, in the order cmd_classify calls the library.

    ``point_block_systems`` is left out: its answer depends on the labeling,
    so it has no labeling-free value to check (bench/README.md, Checks).
    """
    call = tracer.call
    clique = call("cliques.from_points", sd.Clique.from_points, geometry, design.blocks)
    verdict = call("cliques.classify_clique", sd.classify_clique, clique)
    group = call("designs.automorphism_group", sd.automorphism_group, design)
    block_orbits = call("designs.orbits", sd.block_orbit_count, design, group)
    flag_orbits = call("designs.orbits", sd.flag_orbit_count, design, group)
    hadamard = call("designs.hadamard", sd.to_hadamard, design)
    back = call("designs.hadamard", sd.from_hadamard, hadamard)
    return verdict, group, block_orbits, flag_orbits, back


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.notes: list[str] = []

    def setup(self, step):
        """Library work done before the first op; step(name, fn, *args) times each call."""
        raise NotImplementedError

    def rounds(self):
        """Endless seeded stream of round inputs."""
        raise NotImplementedError

    def run_round(self, inputs, phase) -> list:
        raise NotImplementedError

    def check_round(self, inputs, results) -> tuple[int, dict]:
        """(ops that failed a check, work counts of the round)."""
        raise NotImplementedError

    def final_check(self) -> int:
        """Checks that need all rounds; returns the number of failed ops, adds to notes."""
        return 0


class Classify(Workload):
    """Seeded relabelings of the five fixtures, one op per design.

    A round holds one C1 relabeling, eleven of C2 and six each of C3, C4
    and NON_CENTERED: C1 still takes most of the time, and a run sees enough
    relabelings of the cheaper types, whose cost depends on the labeling,
    for steady medians. Op costs order as C3 < NON_CENTERED < C4 < C2 < C1,
    so with twelve ops on each side of the six C4 ops the median op falls
    inside the C4 cluster, not on the gap between two clusters.
    """

    name = "classify"
    per_round = {"c1": 1, "c2": 11, "c3": 6, "c4": 6, "non_centered": 6}

    def __init__(self, seed: int):
        super().__init__(seed)
        self.mismatches: dict[tuple, int] = {}

    def setup(self, step):
        self.geometry = step("geometry.build", sd.build_geometry, GeometryParams.for_dimension(4))
        self.designs = {
            name: step("designs.parse_incidence", sd.parse_incidence, read_fixture_text(name))
            for name in FIXTURES
        }

    def rounds(self):
        while True:
            yield [
                (name, relabeled(self.designs[name], self.rng))
                for name in FIXTURES
                for _ in range(self.per_round[name])
            ]

    def run_round(self, inputs, phase):
        tracer = phase.tracer
        return [
            phase.op(name, fixture_results, tracer, self.geometry, design)
            for name, design in inputs
        ]

    def check_round(self, inputs, results):
        failed = 0
        counts = {"cliques.classify_clique.calls": 0,
                  "designs.automorphism_group.elements": 0,
                  "designs.automorphism_group.generators": 0}
        for (name, design), result in zip(inputs, results):
            if result is FAILED:
                continue
            verdict, group, block_orbits, flag_orbits, back = result
            counts["cliques.classify_clique.calls"] += 1
            counts["designs.automorphism_group.elements"] += len(group.elements)
            counts["designs.automorphism_group.generators"] += len(group.generators)
            got = (verdict.tag.value, group.order, block_orbits, flag_orbits)
            got += (len(group.elements), back.blocks == design.blocks)
            expected = CLASSIFY_TABLE[name] + (group.order, True)
            if got != expected:
                failed += 1
                key = (name, got, expected)
                self.mismatches[key] = self.mismatches.get(key, 0) + 1
        return failed, counts

    def final_check(self):
        for (name, got, expected), count in sorted(self.mismatches.items()):
            self.notes.append(
                f"{count} {name} ops: (class, |Aut|, block orbits, flag orbits,"
                f" elements, Hadamard round trip) = {got}, expected {expected}"
            )
        return 0


def plane_stabilizer_order(plane_bits, n: int) -> int:
    """Order of the stabilizer in S_n of a plane of the geometry.

    Element e of [n] gets a column vector in GF(2)^3: its membership in three
    points spanning the plane. A permutation fixes the plane exactly when
    some invertible 3x3 matrix B maps the column of every e to the column of
    its image, so the order is the number of such B that keep column
    multiplicities, times the ways to permute elements within each column.
    """
    a, b = plane_bits[0], plane_bits[1]
    c = next(p for p in plane_bits if p not in (a, b, a ^ b))
    basis = (a, b, c)
    columns = [sum((basis[i] >> e & 1) << i for i in range(3)) for e in range(n)]
    multiplicity = [columns.count(col) for col in range(8)]
    within_columns = prod(factorial(m) for m in multiplicity)
    matrices = 0
    for rows in product(range(8), repeat=3):
        image = [
            sum((bin(row & col).count("1") & 1) << i for i, row in enumerate(rows))
            for col in range(8)
        ]
        if len(set(image)) == 8 and all(
            multiplicity[image[col]] == multiplicity[col] for col in range(8)
        ):
            matrices += 1
    return within_columns * matrices


class Slice(Workload):
    """All maximal 15-cliques through a seeded relabeling of a fixed C1 plane."""

    name = "slice"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.tallies: list[tuple[dict, int]] = []

    def setup(self, step):
        self.geometry = step("geometry.build", sd.build_geometry, GeometryParams.for_dimension(4))
        self.graph = step("cliques.build_graph", sd.build_graph, self.geometry)
        self.c1 = step("designs.parse_incidence", sd.parse_incidence, read_fixture_text("c1"))

    def base_plane(self) -> list[int]:
        c1_clique = sd.Clique.from_points(self.geometry, self.c1.blocks)
        return [p.bits for p in sd.planes_inside(c1_clique)[0]]

    def rounds(self):
        g = self.geometry
        n = g.params.n
        base_plane = self.base_plane()
        adjacency = self.graph.adjacency
        while True:
            images = random_images(self.rng, n)
            vertices = sorted(
                g.index_of(sd.ElementSet(permute_bits(bits, images), n)) for bits in base_plane
            )
            common = -1
            for v in vertices:
                common &= adjacency[v]
            members = common | sum(1 << v for v in vertices)
            # the graph induced on the plane and its common neighbours, on the
            # same vertex numbers; every other vertex is isolated
            induced = [0] * len(adjacency)
            rest = members
            while rest:
                low = rest & -rest
                u = low.bit_length() - 1
                induced[u] = adjacency[u] & members
                rest ^= low
            yield {
                "vertices": vertices,
                "common": common.bit_count(),
                "graph": sd.CollinearityGraph(g, induced),
            }

    def run_round(self, inputs, phase):
        cliques = sd.enumerate_maximal_cliques(
            inputs["graph"], containing=inputs["vertices"][0], min_size=15
        )
        results = []
        while True:
            result = phase.op("clique", self._next_classified, phase.tracer, cliques)
            if result is EXHAUSTED:
                return results
            results.append(result)
            if result is FAILED:
                return results

    @staticmethod
    def _next_classified(tracer, cliques):
        clique = tracer.call("cliques.enumerate", next, cliques, None)
        if clique is None:
            return EXHAUSTED
        return clique, tracer.call("cliques.classify_clique", sd.classify_clique, clique)

    def check_round(self, inputs, results):
        plane = set(inputs["vertices"])
        failed = 0
        seen = set()
        tally = {tag: 0 for tag in TAGS.values()}
        for result in results:
            if result is FAILED:
                continue
            clique, verdict = result
            ok = len(clique) == 15 and plane <= set(clique.vertices)
            ok = ok and clique.vertices not in seen and inputs["common"] == 128
            seen.add(clique.vertices)
            tally[verdict.tag.value] += 1
            failed += not ok
        passed = sum(result is not FAILED for result in results) - failed
        self.tallies.append((tally, passed))
        counts = {"cliques.enumerate.cliques": len(results),
                  "cliques.classify_clique.calls": len(results)}
        return failed, counts

    def prediction(self) -> dict:
        """Orbit-stabilizer count per type: |Stab(plane)| * planes_i / |Aut_i|.

        S_15 is transitive on planes, so each clique of type i through some
        plane is counted once per plane it holds, over the |Aut_i| relabelings
        that fix it.
        """
        g = self.geometry
        stabilizer = plane_stabilizer_order(self.base_plane(), g.params.n)
        expected = {}
        for name in FIXTURES:
            design = sd.parse_incidence(read_fixture_text(name))
            planes = len(sd.planes_inside(sd.Clique.from_points(g, design.blocks)))
            count, rest = divmod(stabilizer * planes, sd.automorphism_group(design).order)
            expected[TAGS[name]] = count if rest == 0 else None
        return expected

    def final_check(self):
        expected = self.prediction()
        matched = sum(tally == expected for tally, _ in self.tallies)
        self.notes.append(
            f"orbit-stabilizer prediction {expected}: {matched} of {len(self.tallies)} planes match"
        )
        return sum(passed for tally, passed in self.tallies if tally != expected)


class Census(Workload):
    """Centered products over a seeded centre, as cmd_census builds them.

    One round is one (X, Y) pair of planes with all 5040 bijections; one op
    is one bijection. The first product of each index in a round is
    classified, as the CLI does.
    """

    name = "census"

    def __init__(self, seed: int):
        super().__init__(seed)
        n = 15
        centre = sorted(self.rng.sample(range(1, n + 1), 8))
        self.O = sd.ElementSet.of(centre, n)
        self.Z = sd.ElementSet.of(sorted(self.rng.sample(centre, 7)), n)
        self.O_complement = sd.ElementSet(((1 << n) - 1) & ~self.O.bits, n)

    def setup(self, step):
        self.geometry = step("geometry.build", sd.build_geometry, GeometryParams.for_dimension(4))
        self.xs = step("fano.fano_planes_on", sd.fano_planes_on, self.O_complement)
        self.ys = step("fano.fano_planes_on", sd.fano_planes_on, self.Z)

    def rounds(self):
        pairs = list(product(self.xs, self.ys))
        while True:
            self.rng.shuffle(pairs)
            for X, Y in pairs:
                yield {"X": X, "Y": Y, "classified": {}}

    def run_round(self, inputs, phase):
        op, build, tracer = phase.op, self._product, phase.tracer
        args = (self.O, inputs["X"], inputs["Y"], self.geometry, inputs["classified"])
        return [op("product", build, tracer, images, *args) for images in PERMS_7]

    @staticmethod
    def _product(tracer, images, O, X, Y, geometry, classified):
        call = tracer.call
        d = call("fano.fano_bijection", sd.FanoBijection, X, Y, images)
        index = call("fano.bijection_index", sd.bijection_index, d)
        clique = call("constructions.product_clique", sd.product_clique, O, X, Y, d, geometry)
        if index not in classified:
            classified[index] = call("cliques.classify_clique", sd.classify_clique, clique)
        return index, clique.vertices

    def check_round(self, inputs, results):
        tally: dict[int, int] = {}
        distinct = set()
        for result in results:
            if result is not FAILED:
                index, vertices = result
                tally[index] = tally.get(index, 0) + 1
                distinct.add(vertices)
        classes = {index: v.tag.value for index, v in inputs["classified"].items()}
        ok = (
            tally == INDEX_SPECTRUM == sd.index_spectrum(inputs["X"], inputs["Y"])
            and len(distinct) == len(results) == len(PERMS_7)
            and classes == TAG_OF_INDEX
        )
        failed = 0 if ok else sum(result is not FAILED for result in results)
        counts = {"constructions.product_clique.calls": len(results),
                  "cliques.classify_clique.calls": len(classes)}
        return failed, counts


class Iso(Workload):
    """find_isomorphism on seeded relabelings: positives at v = 15 and 31, negatives.

    A round has one positive pair per v = 15 fixture, one PG(4,2)
    hyperplane-complement pair (v = 31) and five cross-type v = 15 pairs.
    """

    name = "iso"

    def setup(self, step):
        self.designs = {
            name: step("designs.parse_incidence", sd.parse_incidence, read_fixture_text(name))
            for name in FIXTURES
        }
        blocks = step("constructions.hyperplane_complement_blocks", sd.hyperplane_complement_blocks, 5)
        self.v31 = step("designs.design", sd.Design.from_blocks, blocks)

    def rounds(self):
        rng = self.rng
        while True:
            ops = [("v15_pos", self.designs[name], relabeled(self.designs[name], rng))
                   for name in FIXTURES]
            ops.append(("v31_pos", self.v31, relabeled(self.v31, rng)))
            for name in FIXTURES:
                other = rng.choice([f for f in FIXTURES if f != name])
                ops.append(("neg", self.designs[name], relabeled(self.designs[other], rng)))
            yield ops

    def run_round(self, inputs, phase):
        tracer = phase.tracer
        return [
            phase.op(kind, tracer.call, "designs.find_isomorphism", sd.find_isomorphism, d1, d2)
            for kind, d1, d2 in inputs
        ]

    def check_round(self, inputs, results):
        failed = 0
        for (kind, d1, d2), witness in zip(inputs, results):
            if witness is FAILED:
                continue
            if kind == "neg":
                failed += witness is not None
                continue
            if witness is None:
                failed += 1
                continue
            images = [i - 1 for i in witness.images]
            mapped = {permute_bits(b.bits, images) for b in d1.blocks}
            failed += mapped != {b.bits for b in d2.blocks}
        return failed, {"designs.find_isomorphism.calls": len(results)}


WORKLOADS = {w.name: w for w in (Classify, Slice, Census, Iso)}


def cli_expectations() -> dict:
    """kv fields the CLI calls of the traced run must print, from library calls."""
    g = sd.geometry_for_dimension(4)
    c1_blocks = sd.canonical_centered_blocks(7)
    verdict = sd.classify_clique(sd.Clique.from_points(g, c1_blocks))
    c2 = sd.parse_incidence(read_fixture_text("c2"))
    group = sd.automorphism_group(c2)
    c2_verdict = sd.classify_clique(sd.Clique.from_points(g, c2.blocks))
    witness = sd.find_isomorphism(
        sd.parse_incidence(read_fixture_text("c1")), sd.parse_incidence(read_fixture_text("c3"))
    )
    O = canonical_center()
    n = O.ground_size
    Z = sd.ElementSet(O.bits & ~(1 << (max(O.elements()) - 1)), n)
    X = sd.fano_planes_on(sd.ElementSet(((1 << n) - 1) & ~O.bits, n))[0]
    Y = sd.fano_planes_on(Z)[0]
    tally = {7: 0, 3: 0, 1: 0, 0: 0}
    for images in PERMS_7[:720]:
        tally[sd.bijection_index(sd.FanoBijection(X, Y, images))] += 1
    return {
        "construct": {
            "class": verdict.tag.value,
            "bijection_index": str(verdict.index),
            "center_count": str(len(verdict.centers)),
            "lines_inside": str(verdict.line_count),
            "planes_inside": str(verdict.plane_count),
            "blocks": "/".join(str(b) for b in c1_blocks),
        },
        "classify": {
            "class": c2_verdict.tag.value,
            "automorphism_order": str(group.order),
            "block_orbits": str(sd.block_orbit_count(c2, group)),
            "flag_orbits": str(sd.flag_orbit_count(c2, group)),
            "point_block_systems": str(len(point_block_systems(group))),
        },
        "isomorphic": {"isomorphic": "true" if witness is not None else "false"},
        "census": {
            "products": "720",
            "distinct_cliques": "720",
            **{f"count_index_{index}": str(count) for index, count in tally.items()},
        },
    }
