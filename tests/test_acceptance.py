"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS line and
measured runtime for every criterion; each stated runtime bound is asserted.
"""

import random
import time
from itertools import combinations, permutations


from simplex_designs.cliques import Clique, build_graph, enumerate_maximal_cliques
from simplex_designs.constructions import (
    CliqueTag,
    canonical_centered_blocks,
    canonical_center,
    center_points,
    classify_clique,
    hyperplane_complement_blocks,
    non_centered_blocks,
    non_centered_clique,
    product_clique,
    split_non_centered,
    _cross_point_m,
    _cross_point_n,
)
from simplex_designs.designs import (
    Design,
    automorphism_group,
    block_orbit_count,
    find_isomorphism,
    flag_orbit_count,
    from_hadamard,
    to_hadamard,
)
from simplex_designs.fano import (
    FanoBijection,
    bijection_index,
    equivalence_classes,
    fano_planes_on,
    representative_of_index,
)
from simplex_designs.geometry import is_singular_subspace
from simplex_designs.subsets import ElementSet, Permutation, apply

from conftest import FIXTURE_NAMES, fixture_text


class _Criterion:
    def __init__(self, number, name, bound=None):
        self.number = number
        self.name = name
        self.bound = bound

    def __enter__(self):
        self.started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.started
        status = "PASS" if exc_type is None else "FAIL"
        limit = f" (bound {self.bound}s)" if self.bound else ""
        print(f"criterion {self.number} [{self.name}]: {status} {elapsed:.2f}s{limit}")
        if exc_type is None and self.bound is not None:
            assert elapsed < self.bound, (
                f"criterion {self.number} exceeded its {self.bound}s bound"
            )
        return False


def test_criterion_1_polar_space_cliques(g7):
    with _Criterion(1, "polar-space cliques at n=7", bound=1.0):
        graph = build_graph(g7)
        cliques = list(enumerate_maximal_cliques(graph))
        assert len(cliques) == 30
        assert all(len(c) == 7 for c in cliques)
        assert all(is_singular_subspace(g7, c.points) for c in cliques)


def test_criterion_2_fano_index_spectrum():
    with _Criterion(2, "index spectrum and 4 classes", bound=10.0):
        planes = fano_planes_on(ElementSet.full(7))
        f1, f2 = planes[0], planes[1]
        indices = {}
        lines1, lines2 = f1.lines(), set(f2.lines())
        for perm in permutations(range(7)):
            idx = sum(
                1 for line in lines1
                if frozenset(perm[i] for i in line) in lines2
            )
            indices[perm] = idx
        assert set(indices.values()) <= {0, 1, 3, 7}
        assert sum(1 for v in indices.values() if v == 7) == 168

        classes = equivalence_classes(f1, f2)
        assert len(classes) == 4
        covered = 0
        for rep, members in classes:
            rep_index = bijection_index(rep)
            for images in members:
                assert indices[images] == rep_index
            covered += len(members)
        assert covered == 5040


def test_criterion_3_product_decompose_round_trip():
    with _Criterion(3, "product/decompose round trip", bound=30.0):
        full = ElementSet.full(15)
        O0 = canonical_center()
        oc0 = ElementSet(full.bits & ~O0.bits, 15)
        Z0 = ElementSet.of(range(9, 16), 15)
        X0 = fano_planes_on(oc0)[0]
        Y0 = fano_planes_on(Z0)[0]
        cases = [
            (O0, Z0, X0, Y0, representative_of_index(X0, Y0, idx))
            for idx in (7, 3, 1, 0)
        ]
        rng = random.Random(99)
        while len(cases) < 104:
            O = ElementSet.of(rng.sample(range(1, 16), 8), 15)
            oc = ElementSet(full.bits & ~O.bits, 15)
            drop = rng.choice(O.elements())
            Z = ElementSet(O.bits & ~(1 << (drop - 1)), 15)
            X = rng.choice(fano_planes_on(oc))
            Y = rng.choice(fano_planes_on(Z))
            images = list(range(7))
            rng.shuffle(images)
            cases.append((O, Z, X, Y, FanoBijection(X, Y, tuple(images))))

        from simplex_designs.constructions import decompose

        for O, Z, X, Y, delta in cases:
            c = product_clique(O, X, Y, delta)
            assert len(c) == 15
            assert O in center_points(c)
            dec = decompose(c, O, Z)
            assert set(dec.x_points) == set(X.points)
            assert set(dec.y_points) == set(Y.points)
            assert dec.delta == delta.mapping()


def test_criterion_4_centered_types_realized(g15):
    with _Criterion(4, "index 7/3/1/0 realize C1-C4"):
        expected = {7: CliqueTag.C1, 3: CliqueTag.C2, 1: CliqueTag.C3, 0: CliqueTag.C4}
        for idx, tag in expected.items():
            c = Clique.from_points(g15, canonical_centered_blocks(idx))
            # classify_clique cross-validates the index route against the
            # structural route and aborts on any disagreement
            verdict = classify_clique(c)
            assert verdict.tag is tag
            assert verdict.index == idx
            if tag is CliqueTag.C1:
                assert is_singular_subspace(g15, c.points)
            if tag is CliqueTag.C2:
                assert verdict.plane_count == 3 and len(verdict.centers) == 3
            if tag is CliqueTag.C3:
                assert verdict.plane_count == 1 and len(verdict.centers) == 1
            if tag is CliqueTag.C4:
                assert verdict.plane_count == 0 and len(verdict.centers) == 1


def test_criterion_5_non_centered_realized(g15):
    with _Criterion(5, "non-centered clique", bound=1.0):
        c = non_centered_clique()
        assert len(c) == 15
        assert center_points(c) == ()
        parts = split_non_centered(c)
        assert len(parts.plane) == 7
        assert len(parts.subspace) == 15
        assert is_singular_subspace(g15, parts.subspace)
        assert parts.plane.isdisjoint(parts.subspace)
        assert frozenset(c.points) == (
            parts.subspace - parts.removed_plane
        ) | parts.plane

        pairs = list(combinations(range(1, 7), 2))
        triples = list(combinations(range(1, 7), 3))
        for (i, j), (s, t) in combinations(pairs, 2):
            a, b = _cross_point_n(i, j), _cross_point_n(s, t)
            assert ((a.bits & b.bits).bit_count() == 4) == (
                len({i, j} & {s, t}) == 0
            )
        for t1, t2 in combinations(triples, 2):
            a, b = _cross_point_m(*t1), _cross_point_m(*t2)
            assert ((a.bits & b.bits).bit_count() == 4) == (
                len(set(t1) & set(t2)) == 1
            )
        for (i, j) in pairs:
            for trip in triples:
                a, b = _cross_point_n(i, j), _cross_point_m(*trip)
                assert ((a.bits & b.bits).bit_count() == 4) == (
                    len({i, j} & set(trip)) == 1
                )


def test_criterion_6_five_designs_pairwise_distinct(fixture_designs):
    with _Criterion(6, "pairwise non-isomorphic + relabelings", bound=120.0):
        constructed = {
            "c1": Design.from_blocks(canonical_centered_blocks(7)),
            "c2": Design.from_blocks(canonical_centered_blocks(3)),
            "c3": Design.from_blocks(canonical_centered_blocks(1)),
            "c4": Design.from_blocks(canonical_centered_blocks(0)),
            "non_centered": Design.from_blocks(non_centered_blocks()),
        }
        for a, b in combinations(constructed, 2):
            assert find_isomorphism(constructed[a], constructed[b]) is None
        rng = random.Random(101)
        for name in FIXTURE_NAMES:
            d = fixture_designs[name]
            for _ in range(20):
                rel = d.relabeled(Permutation.random(15, rng))
                w = find_isomorphism(d, rel)
                assert w is not None
                assert {apply(w, x).bits for x in d.blocks} == rel.block_set()


def test_criterion_7_product_matches_hyperplane_complements():
    with _Criterion(7, "product C1 isomorphic to hyperplane complements"):
        product_design = Design.from_blocks(canonical_centered_blocks(7))
        hc_design = Design.from_blocks(hyperplane_complement_blocks(4))
        assert find_isomorphism(product_design, hc_design) is not None

        # a second product over a different center must also match
        full = ElementSet.full(15)
        O = ElementSet.of(range(1, 9), 15)
        oc = ElementSet(full.bits & ~O.bits, 15)
        Z = ElementSet.of(range(1, 8), 15)
        X = fano_planes_on(oc)[3]
        Y = fano_planes_on(Z)[5]
        delta = representative_of_index(X, Y, 7)
        other = Design.from_blocks(product_clique(O, X, Y, delta).points)
        assert find_isomorphism(other, hc_design) is not None


def test_criterion_8_hadamard_round_trip(fixture_designs, g15):
    with _Criterion(8, "normalized Hadamard round trip"):
        for name in FIXTURE_NAMES:
            d = fixture_designs[name]
            h = to_hadamard(d)
            assert h.order == 16
            assert h.is_normalized()
            for i, j in combinations(range(16), 2):
                assert sum(a * b for a, b in zip(h.entries[i], h.entries[j])) == 0
            assert from_hadamard(h).blocks == d.blocks
            assert h.render("01") == fixture_text(name, "hadamard01").strip()

        constructed = {
            "c1": canonical_centered_blocks(7),
            "c2": canonical_centered_blocks(3),
            "c3": canonical_centered_blocks(1),
            "c4": canonical_centered_blocks(0),
            "non_centered": non_centered_blocks(),
        }
        for name, blocks in constructed.items():
            built = Design.from_blocks(blocks)
            assert find_isomorphism(built, fixture_designs[name]) is not None


def test_criterion_9_automorphism_groups(fixture_designs):
    with _Criterion(9, "automorphism groups and orbit counts", bound=300.0):
        groups = {
            name: automorphism_group(fixture_designs[name])
            for name in FIXTURE_NAMES
        }
        assert groups["c1"].order == 20160
        block_transitive = [
            name
            for name in FIXTURE_NAMES
            if block_orbit_count(fixture_designs[name], groups[name]) == 1
        ]
        assert block_transitive == ["c1"]
        assert flag_orbit_count(fixture_designs["c1"], groups["c1"]) == 1
