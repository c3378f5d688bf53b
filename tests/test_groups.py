"""The generators-only automorphism search, its Schreier-Sims cross-check,
PermGroup's own checks, the lazy element sequence, point block systems and
primitivity, and search-local state."""

import dataclasses
import logging
import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from simplex_designs import designs, search
from simplex_designs import groups as group_layer
from simplex_designs.cli import main
from simplex_designs.constructions import hyperplane_complement_blocks
from simplex_designs.designs import (
    Design,
    automorphism_group,
    block_orbit_count,
    find_isomorphism,
    flag_orbit_count,
    is_point_primitive,
    point_block_systems,
    render_incidence,
)
from simplex_designs.errors import InternalCheckError, InvariantError
from simplex_designs.groups import PermGroup, _ChainElements, _schreier_sims
from simplex_designs.subsets import Permutation, apply

from conftest import FIXTURE_NAMES
from test_propagation import paley_design

sympy_combinatorics = pytest.importorskip("sympy.combinatorics")

AUT_ORDERS = {"c1": 20160, "c2": 576, "c3": 96, "c4": 168, "non_centered": 168}
POINT_ORBITS = {
    "c1": [15],
    "c2": [3, 12],
    "c3": [1, 6, 8],
    "c4": [7, 8],
    "non_centered": [1, 14],
}
GL52_ORDER = 31 * 30 * 28 * 24 * 16
BLOCK_SYSTEMS = {"c1": 0, "c2": 3, "c3": 7, "c4": 2, "non_centered": 2}


@pytest.fixture(scope="module")
def groups(fixture_designs):
    return {name: automorphism_group(d) for name, d in fixture_designs.items()}


@pytest.fixture(scope="module")
def pg42():
    d = Design.from_blocks(hyperplane_complement_blocks(5))
    return d, automorphism_group(d)


def sympy_order(degree, generators) -> int:
    perms = [
        sympy_combinatorics.Permutation([i - 1 for i in g.images])
        for g in generators
    ] or [sympy_combinatorics.Permutation(list(range(degree)))]
    return sympy_combinatorics.PermutationGroup(perms).order()


def zero_based(p: Permutation) -> tuple[int, ...]:
    return tuple(i - 1 for i in p.images)


def preserves(d: Design, p: Permutation) -> bool:
    return {apply(p, b).bits for b in d.blocks} == d.block_set()


def point_orbit_sizes(g: PermGroup) -> list[int]:
    remaining = set(range(1, g.degree + 1))
    sizes = []
    while remaining:
        frontier = [remaining.pop()]
        size = 1
        while frontier:
            x = frontier.pop()
            for p in g.generators:
                if p(x) in remaining:
                    remaining.remove(p(x))
                    frontier.append(p(x))
                    size += 1
        sizes.append(size)
    return sorted(sizes)


class TestOrderOracle:
    def test_sympy_agrees_on_fixtures(self, groups):
        for name, g in groups.items():
            assert sympy_order(15, g.generators) == g.order == AUT_ORDERS[name]

    @settings(max_examples=10, deadline=None)
    @given(st.sampled_from(FIXTURE_NAMES), st.permutations(list(range(1, 16))))
    def test_sympy_agrees_on_relabelings(self, fixture_designs, name, images):
        d = fixture_designs[name].relabeled(Permutation(tuple(images)))
        g = automorphism_group(d)
        assert g.order == AUT_ORDERS[name]
        assert sympy_order(15, g.generators) == g.order
        assert all(preserves(d, p) for p in g.generators)

    def test_point_orbits(self, groups):
        for name, g in groups.items():
            assert point_orbit_sizes(g) == POINT_ORBITS[name]

    def test_schreier_sims_on_symmetric_and_alternating_groups(self):
        transposition = Permutation.from_cycles(5, [(1, 2)])
        five_cycle = Permutation.from_cycles(5, [(1, 2, 3, 4, 5)])
        base, transversals = _schreier_sims(
            [zero_based(transposition), zero_based(five_cycle)], 5
        )
        assert len(_ChainElements(5, base, transversals)) == 120
        three_cycles = [
            zero_based(Permutation.from_cycles(5, [cycle]))
            for cycle in ((1, 2, 3), (2, 3, 4), (3, 4, 5))
        ]
        base, transversals = _schreier_sims(three_cycles, 5)
        assert len(_ChainElements(5, base, transversals)) == 60
        assert _schreier_sims([], 5) == ([], [])

    def test_order_mismatch_raises(self, fixture_designs, monkeypatch):
        closure = _schreier_sims

        def drop_last_generator(generators, degree):
            return closure(generators[:-1], degree)

        monkeypatch.setattr("simplex_designs.groups._schreier_sims", drop_last_generator)
        with pytest.raises(InternalCheckError, match="Schreier-Sims"):
            automorphism_group(fixture_designs["c2"])


class TestLazyElements:
    def test_indexing_membership_and_iteration(self, fixture_designs, groups):
        d, g = fixture_designs["c3"], groups["c3"]
        listed = list(g.elements)
        assert len(set(listed)) == len(listed) == g.order
        assert g.elements[0] == Permutation.identity(15)
        assert g.elements[-1] == listed[-1]
        assert all(p in g.elements for p in listed)
        assert all(preserves(d, p) for p in listed)
        with pytest.raises(IndexError):
            g.elements[g.order]

    def test_non_members_rejected(self, fixture_designs, groups):
        d, g = fixture_designs["c4"], groups["c4"]
        rng = random.Random(47)
        for _ in range(20):
            p = Permutation.random(15, rng)
            assert (p in g.elements) == preserves(d, p)
        assert Permutation.identity(7) not in g.elements
        assert "identity" not in g.elements

    def test_trivial_group(self):
        trivial = PermGroup.trivial(15)
        assert list(trivial.elements) == [Permutation.identity(15)]
        assert Permutation.from_cycles(15, [(1, 2)]) not in trivial.elements


class TestPermGroup:
    def test_order_is_sympys_on_random_generators(self):
        rng = random.Random(89)
        for _ in range(40):
            n = rng.randint(3, 10)
            generators = [Permutation.random(n, rng) for _ in range(rng.randint(1, 3))]
            assert PermGroup(n, generators).order == sympy_order(n, generators)

    @pytest.mark.parametrize("degree, other", [(15, 7), (7, 15)])
    def test_generator_of_another_degree_fails_at_construction(self, degree, other):
        generators = (Permutation.identity(degree), Permutation.from_cycles(other, [(1, 2, 3)]))
        message = f"degree {other} in a group of degree {degree}"
        with pytest.raises(InvariantError, match=message):
            PermGroup(degree, generators)

    @pytest.mark.parametrize(
        "build, degree", [(lambda: PermGroup(-1, ()), -1), (lambda: PermGroup.trivial(-2), -2)]
    )
    def test_negative_degree_fails_at_construction(self, build, degree):
        with pytest.raises(InvariantError, match=f"negative degree {degree}$"):
            build()

    def test_a_float_generator_is_refused_before_the_group(self):
        # it once reached Schreier-Sims and raised TypeError there
        with pytest.raises(ValueError, match="^images must be integers$"):
            PermGroup(3, (Permutation((2.0, 3.0, 1.0)),))

    def test_degree_zero_is_the_trivial_group(self):
        g = PermGroup(0, ())
        assert g.order == 1
        assert g.elements[0] == Permutation(()) and g.elements[0] in g.elements

    def test_equal_generators_give_equal_hashable_groups(self):
        generators = [Permutation.from_cycles(15, [cycle]) for cycle in ((1, 2, 3), (4, 5))]
        a, b = PermGroup(15, tuple(generators)), PermGroup(15, generators)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert b.generators == tuple(generators) and b.order == 6
        assert a != PermGroup(15, generators[:1])

    def test_only_degree_and_generators_are_passed_and_nothing_changes(self):
        assert [f.name for f in dataclasses.fields(PermGroup) if f.init] == ["degree", "generators"]
        with pytest.raises(TypeError):
            PermGroup(15, (), 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            PermGroup.trivial(15).generators = (Permutation.from_cycles(15, [(1, 2)]),)


def explicit_orbit_counts(d: Design, g: PermGroup) -> tuple[int, int]:
    """Block and flag orbits, each orbit listed over every group element."""
    images = [(p, {b.bits: apply(p, b).bits for b in d.blocks}) for p in g.elements]
    block_orbits = {frozenset(moved[b.bits] for _, moved in images) for b in d.blocks}
    flag_orbits = {
        frozenset((p(x), moved[b.bits]) for p, moved in images)
        for b in d.blocks
        for x in b.elements()
    }
    return len(block_orbits), len(flag_orbits)


class TestGroupLayer:
    @settings(max_examples=8, deadline=None)
    @given(
        st.sampled_from(("c2", "c3", "c4", "non_centered")),
        st.permutations(list(range(1, 16))),
    )
    def test_orbit_counts_against_element_lists(self, fixture_designs, name, images):
        d = fixture_designs[name].relabeled(Permutation(tuple(images)))
        g = automorphism_group(d)
        assert explicit_orbit_counts(d, g) == (
            block_orbit_count(d, g),
            flag_orbit_count(d, g),
        )

    def test_elements_are_products_of_coset_representatives(self, groups):
        rng = random.Random(61)
        for g in groups.values():
            levels = [
                [Permutation(tuple(i + 1 for i in u)) for u, _ in table.values()]
                for table in g.elements._transversals
            ]
            for _ in range(10):
                index = rng.randrange(g.order)
                picked = []
                rest = index
                for reps in levels:
                    rest, digit = divmod(rest, len(reps))
                    picked.append(reps[digit])
                product = Permutation.identity(15)
                for u in reversed(picked):
                    product = product * u
                assert g.elements[index] == product

    def test_wrong_degree_is_an_invariant_error(self, fixture_designs):
        three_cycle = Permutation.from_cycles(7, [(1, 2, 3)])
        with pytest.raises(InvariantError, match="degree 7 in a group of degree 15"):
            PermGroup(15, (three_cycle,))
        for g in (PermGroup(7, (three_cycle,)), PermGroup.trivial(7)):
            for count in (block_orbit_count, flag_orbit_count):
                with pytest.raises(InvariantError, match="does not act on 15 points"):
                    count(fixture_designs["c1"], g)


class TestDimensionFive:
    def test_pg42_group(self, pg42):
        d, g = pg42
        assert d.v == 31
        assert g.order == GL52_ORDER
        assert len(g.elements) == g.order
        assert Permutation.identity(31) in g.elements
        for index in (1, 12345, g.order // 2, g.order - 1):
            assert preserves(d, g.elements[index])
        swap = Permutation.from_cycles(31, [(1, 2)])
        assert not preserves(d, swap)
        assert swap not in g.elements
        assert is_point_primitive(g)


# q: (automorphism order, flag orbits) of the Paley design on q points
PALEY_GROUPS = {7: (168, 1), 11: (660, 1), 19: (171, 2), 23: (253, 2)}


class TestPaleyDesigns:
    """Designs of size 4t - 1 that is not 2^k - 1 (q = 11, 19, 23), beside q = 7."""

    @pytest.mark.parametrize("q", sorted(PALEY_GROUPS))
    def test_group_orbits_and_primitivity(self, q):
        d = paley_design(q)
        g = automorphism_group(d)
        order, flag_orbits = PALEY_GROUPS[q]
        assert g.order == sympy_order(q, g.generators) == order
        assert all(preserves(d, p) for p in g.generators)
        assert block_orbit_count(d, g) == 1
        assert flag_orbit_count(d, g) == flag_orbits
        assert is_point_primitive(g)
        assert point_block_systems(g) == []

    @pytest.mark.parametrize("q", sorted(PALEY_GROUPS))
    def test_relabeling_is_found(self, q):
        d = paley_design(q)
        moved = d.relabeled(Permutation.random(q, random.Random(q)))
        w = find_isomorphism(d, moved)
        assert w is not None
        assert {apply(w, b).bits for b in d.blocks} == moved.block_set()


def closure_partition(g: PermGroup, a: int, b: int) -> frozenset[frozenset[int]]:
    """The finest invariant partition joining points a and b, found by
    rescanning every pair under every generator until nothing changes."""
    n = g.degree
    label = list(range(n + 1))

    def merge(x, y):
        old, new = label[y], label[x]
        if old == new:
            return False
        for z in range(1, n + 1):
            if label[z] == old:
                label[z] = new
        return True

    merge(a, b)
    changed = True
    while changed:
        changed = False
        for p in g.generators:
            for x, y in combinations(range(1, n + 1), 2):
                if label[x] == label[y] and merge(p(x), p(y)):
                    changed = True
    classes: dict[int, set[int]] = {}
    for x in range(1, n + 1):
        classes.setdefault(label[x], set()).add(x)
    return frozenset(frozenset(c) for c in classes.values())


def as_sets(systems) -> set[frozenset[frozenset[int]]]:
    return {frozenset(s) for s in systems}


class TestPointBlockSystems:
    def test_counts_on_fixtures(self, groups):
        assert {
            name: len(point_block_systems(g)) for name, g in groups.items()
        } == BLOCK_SYSTEMS

    @settings(max_examples=10, deadline=None)
    @given(st.sampled_from(FIXTURE_NAMES), st.permutations(list(range(1, 16))))
    def test_relabeled_systems_are_the_relabeled_systems(
        self, fixture_designs, groups, name, images
    ):
        p = Permutation(tuple(images))
        g = automorphism_group(fixture_designs[name].relabeled(p))
        systems = point_block_systems(g)
        assert len(systems) == BLOCK_SYSTEMS[name]
        assert as_sets(systems) == {
            frozenset(frozenset(p(x) for x in block) for block in s)
            for s in point_block_systems(groups[name])
        }

    def test_every_generator_maps_each_system_onto_itself(self, groups):
        for g in groups.values():
            for s in point_block_systems(g):
                assert 1 < len(s) < g.degree
                for p in g.generators:
                    assert {frozenset(p(x) for x in block) for block in s} == set(s)

    def test_agrees_with_the_closure_oracle(self, groups):
        for g in groups.values():
            closures = {
                closure_partition(g, a, b)
                for a, b in combinations(range(1, 16), 2)
            }
            nontrivial = {s for s in closures if 1 < len(s) < 15}
            systems = point_block_systems(g)
            assert len(systems) == len(nontrivial)
            assert as_sets(systems) == nontrivial

    def test_pg42_has_none(self, pg42):
        _, g = pg42
        assert point_block_systems(g) == []
        assert is_point_primitive(g)

    def test_trivial_group_gives_the_pair_partitions(self):
        systems = point_block_systems(PermGroup.trivial(15))
        assert len(systems) == 105
        assert systems == sorted(
            systems, key=lambda s: (len(s), [sorted(b) for b in s])
        )
        pairs = set()
        for s in systems:
            (pair,) = [block for block in s if len(block) == 2]
            assert sorted(len(block) for block in s) == [1] * 13 + [2]
            pairs.add(pair)
        assert pairs == {frozenset(q) for q in combinations(range(1, 16), 2)}


class TestPointPrimitivity:
    def test_only_c1_is_primitive_under_relabelings(self, fixture_designs):
        rng = random.Random(53)
        for name in FIXTURE_NAMES:
            for _ in range(3):
                d = fixture_designs[name].relabeled(Permutation.random(15, rng))
                assert is_point_primitive(automorphism_group(d)) == (name == "c1")

    def test_non_centered_fixed_point_at_one(
        self, fixture_designs, groups, tmp_path, capsys
    ):
        g = groups["non_centered"]
        (fixed,) = [
            x for x in range(1, 16) if all(p(x) == x for p in g.generators)
        ]
        d = fixture_designs["non_centered"].relabeled(
            Permutation.from_cycles(15, [(fixed, 1)])
        )
        h = automorphism_group(d)
        assert all(p(1) == 1 for p in h.generators)
        assert not is_point_primitive(h)

        path = tmp_path / "non_centered_fixed_at_1.txt"
        path.write_text(render_incidence(d))
        assert main(["--format", "kv", "--sorted", "classify", str(path)]) == 0
        assert "point_primitive=false" in capsys.readouterr().out.splitlines()

    def test_trivial_group_is_not_primitive(self):
        assert not is_point_primitive(PermGroup.trivial(15))


class TestNoGlobalState:
    def mutable_sizes(self):
        return {
            (module.__name__, name): len(value)
            for module in (designs, search, group_layer)
            for name, value in vars(module).items()
            if isinstance(value, (dict, list, set))
        }

    def test_repeated_calls_leave_no_state(self, fixture_designs):
        assert not hasattr(designs, "_LABEL_TABLE")
        rng = random.Random(59)
        pairs = [
            (fixture_designs[name], fixture_designs[name].relabeled(
                Permutation.random(15, rng)))
            for name in FIXTURE_NAMES
        ]
        before = self.mutable_sizes()
        first = [find_isomorphism(a, b) for a, b in pairs]
        groups = [automorphism_group(b).generators for _, b in pairs]
        assert self.mutable_sizes() == before
        assert [find_isomorphism(a, b) for a, b in pairs] == first
        assert [automorphism_group(b).generators for _, b in pairs] == groups
        assert self.mutable_sizes() == before
        assert find_isomorphism(fixture_designs["c1"], fixture_designs["c2"]) is None


class TestLogging:
    def test_one_debug_record_per_call(self, fixture_designs, caplog):
        with caplog.at_level(logging.DEBUG, logger="simplex_designs.designs"):
            automorphism_group(fixture_designs["c1"])
        (record,) = caplog.records
        message = record.getMessage()
        for field in ("base=", "orbits=", "generators=", "leaves=", "propagations=", "cuts="):
            assert field in message

    # The whole record pins the search tree: base, orbit sizes and the work
    # counts (generators, leaves, propagations, cover cuts) of the packaged
    # fixtures and of the v = 31 PG(4,2) hyperplane complements.
    SEARCH_RECORDS = {
        "c1": "v=15 base=[1, 2, 3, 4, 8] orbits=[15, 14, 1, 12, 8]"
              " generators=9 leaves=9 propagations=31 cuts=0",
        "c2": "v=15 base=[2, 4, 6, 1] orbits=[12, 8, 3, 2]"
              " generators=6 leaves=6 propagations=23 cuts=0",
        "c3": "v=15 base=[4, 5, 2] orbits=[8, 6, 2]"
              " generators=3 leaves=3 propagations=14 cuts=0",
        "c4": "v=15 base=[8, 1, 9] orbits=[8, 7, 3]"
              " generators=3 leaves=3 propagations=14 cuts=0",
        "non_centered": "v=15 base=[1, 2, 4, 3] orbits=[14, 6, 1, 2]"
                        " generators=3 leaves=3 propagations=76 cuts=0",
        "pg42": "v=31 base=[1, 2, 3, 4, 5, 6, 7, 8, 16]"
                " orbits=[31, 30, 1, 28, 1, 1, 1, 24, 16]"
                " generators=14 leaves=14 propagations=91 cuts=3",
    }

    def test_search_work_is_pinned(self, fixture_designs, pg42, caplog):
        designs_by_name = {**fixture_designs, "pg42": pg42[0]}
        found = {}
        for name, d in designs_by_name.items():
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="simplex_designs.designs"):
                automorphism_group(d)
            (record,) = caplog.records
            found[name] = record.getMessage().removeprefix("automorphism_group ")
        assert found == self.SEARCH_RECORDS

    def test_search_work_is_pinned_after_an_isomorphism_search(
        self, fixture_designs, pg42, caplog
    ):
        # find_isomorphism leaves both sides refined on the design, and the
        # group search that reuses them walks the same tree
        rng = random.Random(113)
        found = {}
        for name, d in {**fixture_designs, "pg42": pg42[0]}.items():
            d = Design(d.blocks)
            assert find_isomorphism(d, d.relabeled(Permutation.random(d.v, rng))) is not None
            assert {"points", "blocks"} <= vars(d._context).keys()
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="simplex_designs.designs"):
                automorphism_group(d)
            (record,) = caplog.records
            found[name] = record.getMessage().removeprefix("automorphism_group ")
        assert found == self.SEARCH_RECORDS

    def test_silent_when_disabled(self, fixture_designs, caplog):
        with caplog.at_level(logging.INFO, logger="simplex_designs.designs"):
            automorphism_group(fixture_designs["c4"])
        assert not caplog.records


@st.composite
def generator_sets(draw):
    """A degree in 1..10 and 0 to 4 permutations of that degree."""
    n = draw(st.integers(1, 10))
    images = st.permutations(range(1, n + 1)).map(lambda p: Permutation(tuple(p)))
    return n, draw(st.lists(images, max_size=4))


class TestGroupOrderOracle:
    """Schreier-Sims skips the Schreier generators that equal the identity
    and sifts the rest; sympy's own Schreier-Sims checks the orders that
    come out on groups well beyond the fixtures."""

    @given(generator_sets())
    @settings(max_examples=150, deadline=None)
    def test_order_and_membership_agree_with_sympy(self, case):
        n, generators = case
        g = PermGroup(n, generators)
        assert g.order == sympy_order(n, generators)
        assert all(p in g.elements for p in generators)
