"""Values built from lists store tuples, so they equal and hash like the
values built from tuples.

Every frozen value that takes a sequence turns it into a tuple when built:
a list inside a frozen dataclass would compare unequal to the tuple-built
value and could not be hashed. A value built from elements of the wrong
kind raises InvariantError, not the bare Python error of the first
attribute or operator that the elements lack. ElementSet, the bitmask below
every value, raises the ValueError of its range checks for fields that are
not ints, and holds no element that is not an int.
"""

import pytest

from simplex_designs.cliques import Clique
from simplex_designs.constructions import CliqueClass, classify_clique
from simplex_designs.designs import Design, HadamardMatrix, to_hadamard
from simplex_designs.errors import InvariantError
from simplex_designs.fano import FanoPlane
from simplex_designs.geometry import Line
from simplex_designs.groups import PermGroup
from simplex_designs.subsets import ElementSet

TYPES = ["Design", "Clique", "HadamardMatrix", "Line", "CliqueClass"]


def built_both_ways(fixture_designs, g15):
    """Per value type: (the value built from tuples, its stored sequence's
    name, the same value built from lists)."""
    d = fixture_designs["c2"]
    c = Clique.from_points(g15, d.blocks)
    h = to_hadamard(d)
    a, b = ElementSet.of(range(1, 9), 15), ElementSet.of([1, 2, 3, 4, 9, 10, 11, 12], 15)
    line = Line.through(a, b)
    v = classify_clique(c)
    return {
        "Design": (d, "blocks", Design(list(d.blocks))),
        "Clique": (c, "bits", Clique(g15, list(c.bits))),
        "HadamardMatrix": (h, "entries", HadamardMatrix([list(row) for row in h.entries])),
        "Line": (line, "points", Line(list(line.points))),
        "CliqueClass": (v, "centers", CliqueClass(
            list(v.centers), v.index, v.line_count, v.plane_count
        )),
    }


@pytest.mark.parametrize("name", TYPES)
def test_list_built_value_equals_and_hashes_like_the_tuple_built(name, fixture_designs, g15):
    built, field, from_lists = built_both_ways(fixture_designs, g15)[name]
    assert type(getattr(from_lists, field)) is tuple
    assert from_lists == built
    assert hash(from_lists) == hash(built)
    assert len({built, from_lists}) == 1


def test_hadamard_rows_become_tuples(fixture_designs):
    h = to_hadamard(fixture_designs["c1"])
    from_lists = HadamardMatrix([list(row) for row in h.entries])
    assert all(type(row) is tuple for row in from_lists.entries)
    assert from_lists.entries == h.entries


WRONG_KINDS = {
    "design-of-ints": (lambda g: Design([1, 2, 3]), "block 1 is not an ElementSet: 1"),
    "hadamard-of-ints": (
        lambda g: HadamardMatrix([1, -1]), "entries must form a nonempty square +-1 matrix"
    ),
    "clique-of-floats": (lambda g: Clique(g, [255.0]), "clique points must be integer bitmasks"),
    "clique-from-ints": (
        lambda g: Clique.from_points(g, [255]), "255 is not a point of this geometry"
    ),
    "plane-of-ints": (
        lambda g: FanoPlane((1, 2, 3, 4, 5, 6, 7)), "plane points must be ElementSets"
    ),
    "group-of-float-degree": (
        lambda g: PermGroup(3.0, ()), "degree must be an integer, got 3.0"
    ),
    "group-of-ints": (lambda g: PermGroup(3, [1]), "generator 1 is not a Permutation: 1"),
    "group-of-a-non-iterable": (
        lambda g: PermGroup(3, 5), "generators must be iterable, got 5"
    ),
    "group-of-image-tuples": (
        lambda g: PermGroup(3, [(2, 3, 1)]), "generator 1 is not a Permutation: (2, 3, 1)"
    ),
}


@pytest.mark.parametrize("case", WRONG_KINDS)
def test_elements_of_the_wrong_kind_raise_invariant_error(case, g15):
    build, message = WRONG_KINDS[case]
    with pytest.raises(InvariantError) as raised:
        build(g15)
    assert str(raised.value) == message


def test_an_index_degree_is_stored_as_an_int():
    class Three:
        def __index__(self):
            return 3

    group = PermGroup(Three(), ())
    assert type(group.degree) is int and group == PermGroup(3, ())


@pytest.mark.parametrize("element", ["a", 2.0, None], ids=repr)
def test_an_element_set_holds_no_element_that_is_not_an_int(element):
    assert element not in ElementSet.of([1, 2], 4)


@pytest.mark.parametrize("fields", [(1.5, 4), (1, 4.0), ("1", 4)], ids=repr)
def test_an_element_set_of_fields_that_are_not_ints_raises_value_error(fields):
    with pytest.raises(ValueError, match="^bits and ground size must be integers$"):
        ElementSet(*fields)
