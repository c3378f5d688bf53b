"""The generators-only automorphism search, its Schreier-Sims cross-check,
the lazy element sequence, point primitivity and search-local state."""

import logging
import random

import pytest
from hypothesis import given, settings, strategies as st

from simplex_designs import designs
from simplex_designs.cli import main
from simplex_designs.constructions import hyperplane_complement_blocks
from simplex_designs.designs import (
    Design,
    PermGroup,
    automorphism_group,
    block_orbit_count,
    find_isomorphism,
    flag_orbit_count,
    is_point_primitive,
    render_incidence,
)
from simplex_designs.errors import InternalCheckError, InvariantError
from simplex_designs.subsets import Permutation, apply

from conftest import FIXTURE_NAMES

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
        base, transversals = designs._schreier_sims([transposition, five_cycle], 5)
        assert len(designs._ChainElements(5, base, transversals)) == 120
        three_cycles = [
            Permutation.from_cycles(5, [cycle])
            for cycle in ((1, 2, 3), (2, 3, 4), (3, 4, 5))
        ]
        base, transversals = designs._schreier_sims(three_cycles, 5)
        assert len(designs._ChainElements(5, base, transversals)) == 60
        assert designs._schreier_sims([], 5) == ([], [])

    def test_order_mismatch_raises(self, fixture_designs, monkeypatch):
        closure = designs._schreier_sims

        def drop_last_generator(generators, degree):
            return closure(generators[:-1], degree)

        monkeypatch.setattr(designs, "_schreier_sims", drop_last_generator)
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
        wrong = (
            PermGroup(7, (three_cycle,), 3, None),
            PermGroup(15, (three_cycle,), 3, None),
            PermGroup.trivial(7),
        )
        for g in wrong:
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
            name: len(value)
            for name, value in vars(designs).items()
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
        for field in ("base=", "orbits=", "generators=", "leaves=", "propagations="):
            assert field in message

    # The whole record pins the search tree: base, orbit sizes and the work
    # counts (generators, leaves, propagations) of the packaged fixtures and
    # of the v = 31 PG(4,2) hyperplane complements.
    SEARCH_RECORDS = {
        "c1": "v=15 base=[1, 2, 3, 4, 5, 6, 8] orbits=[15, 14, 1, 12, 1, 1, 8]"
              " generators=9 leaves=9 propagations=53",
        "c2": "v=15 base=[1, 8, 2, 3, 10, 4] orbits=[3, 2, 12, 1, 1, 8]"
              " generators=7 leaves=7 propagations=35",
        "c3": "v=15 base=[1, 2, 3, 9, 10, 4] orbits=[6, 2, 1, 1, 1, 8]"
              " generators=5 leaves=5 propagations=89",
        "c4": "v=15 base=[1, 2, 3, 4, 5, 6, 8] orbits=[7, 3, 1, 1, 1, 1, 8]"
              " generators=5 leaves=5 propagations=371",
        "non_centered": "v=15 base=[1, 2, 3] orbits=[14, 6, 2]"
                        " generators=3 leaves=3 propagations=38",
        "pg42": "v=31 base=[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 16]"
                " orbits=[31, 30, 1, 28, 1, 1, 1, 24, 1, 1, 1, 1, 1, 1, 16]"
                " generators=14 leaves=14 propagations=297",
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

    def test_silent_when_disabled(self, fixture_designs, caplog):
        with caplog.at_level(logging.INFO, logger="simplex_designs.designs"):
            automorphism_group(fixture_designs["c4"])
        assert not caplog.records
