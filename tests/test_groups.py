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
    find_isomorphism,
    is_point_primitive,
    render_incidence,
)
from simplex_designs.errors import InternalCheckError
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

    def test_silent_when_disabled(self, fixture_designs, caplog):
        with caplog.at_level(logging.INFO, logger="simplex_designs.designs"):
            automorphism_group(fixture_designs["c4"])
        assert not caplog.records
