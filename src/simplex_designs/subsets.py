"""Subsets of a ground set [n] as single-word bitmasks, and permutations of [n].

Element i of the ground set occupies bit i-1. Ground sets are contiguous
1..n with n <= 63 so that every set fits in one machine word; named ground
sets (e.g. signed labels) are handled by explicit label maps at the caller.
"""

from dataclasses import dataclass
from itertools import combinations
from operator import index, itemgetter

from .errors import GroundMismatchError, ParseError

MAX_GROUND_SIZE = 63


@dataclass(frozen=True, slots=True)
class ElementSet:
    """An immutable subset of {1, ..., ground_size}."""

    bits: int
    ground_size: int

    def __post_init__(self):
        try:
            if not 1 <= self.ground_size <= MAX_GROUND_SIZE:
                raise ValueError(f"ground size must be in 1..{MAX_GROUND_SIZE}")
            if self.bits < 0 or self.bits >> self.ground_size:
                raise ValueError("set has elements outside the ground set")
        except TypeError:
            # a float or str field fails a comparison or the shift
            raise ValueError("bits and ground size must be integers") from None

    @classmethod
    def of(cls, elements, ground_size: int) -> "ElementSet":
        bits = 0
        for e in elements:
            if not 1 <= e <= ground_size:
                raise ValueError(f"element {e} outside 1..{ground_size}")
            bits |= 1 << (e - 1)
        return cls(bits, ground_size)

    @classmethod
    def empty(cls, ground_size: int) -> "ElementSet":
        return cls(0, ground_size)

    @classmethod
    def full(cls, ground_size: int) -> "ElementSet":
        return cls((1 << ground_size) - 1, ground_size)

    def elements(self) -> tuple[int, ...]:
        return tuple(i + 1 for i in set_bits(self.bits))

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __contains__(self, element: int) -> bool:
        try:
            return 1 <= element <= self.ground_size and self.bits >> (element - 1) & 1 == 1
        except TypeError:
            # not an int: a str or None fails the comparison, a float the shift
            return False

    def __le__(self, other: "ElementSet") -> bool:
        _check_same_ground(self, other)
        return self.bits & ~other.bits == 0

    def __or__(self, other: "ElementSet") -> "ElementSet":
        _check_same_ground(self, other)
        return ElementSet(self.bits | other.bits, self.ground_size)

    def __and__(self, other: "ElementSet") -> "ElementSet":
        _check_same_ground(self, other)
        return ElementSet(self.bits & other.bits, self.ground_size)

    def __xor__(self, other: "ElementSet") -> "ElementSet":
        _check_same_ground(self, other)
        return ElementSet(self.bits ^ other.bits, self.ground_size)

    def __str__(self) -> str:
        return "{" + ",".join(str(e) for e in self.elements()) + "}"


def _check_same_ground(a: ElementSet, b: ElementSet):
    if a.ground_size != b.ground_size:
        raise GroundMismatchError(
            f"ground sizes differ: {a.ground_size} vs {b.ground_size}"
        )


def subsets_of(support: ElementSet, size: int):
    """All size-element subsets of the given support, ascending by bitmask."""
    powers = [1 << (e - 1) for e in support.elements()]
    masks = sorted(map(sum, combinations(powers, size)))
    return tuple(ElementSet(m, support.ground_size) for m in masks)


@dataclass(frozen=True, slots=True)
class Permutation:
    """A bijection of {1, ..., n}; images[i-1] is the image of i.

    Composition is left-to-right everywhere in this package:
    (p * q)(i) == q(p(i)).  This is the single documented convention and
    all group code relies on it. Images are stored as ints; a float is refused.
    """

    images: tuple[int, ...]

    def __post_init__(self):
        try:
            images = tuple(map(index, self.images))
        except TypeError:
            raise ValueError("images must be integers") from None
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError("images do not form a bijection of 1..n")
        object.__setattr__(self, "images", images)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def from_mapping(cls, mapping: dict[int, int], n: int) -> "Permutation":
        images = list(range(1, n + 1))
        for src, dst in mapping.items():
            # a point below 1 would index images from the end
            for point in (src, dst):
                if not 1 <= point <= n:
                    raise ValueError(f"point {point} outside 1..{n}")
            images[src - 1] = dst
        return cls(tuple(images))

    @classmethod
    def from_cycles(cls, n: int, cycles) -> "Permutation":
        mapping = {}
        for cycle in cycles:
            mapping.update(zip(cycle, (*cycle[1:], *cycle[:1])))
        return cls.from_mapping(mapping, n)

    @classmethod
    def random(cls, n: int, rng) -> "Permutation":
        images = list(range(1, n + 1))
        rng.shuffle(images)
        return cls(tuple(images))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, element: int) -> int:
        return self.images[element - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if self.degree != other.degree:
            raise GroundMismatchError("permutation degrees differ")
        return Permutation(tuple(other.images[i - 1] for i in self.images))

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for i, j in enumerate(self.images, start=1):
            inv[j - 1] = i
        return Permutation(tuple(inv))

    def cycle_string(self) -> str:
        seen = set()
        parts = []
        for start in range(1, self.degree + 1):
            if start in seen or self(start) == start:
                continue
            cycle = [start]
            seen.add(start)
            j = self(start)
            while j != start:
                cycle.append(j)
                seen.add(j)
                j = self(j)
            parts.append("(" + " ".join(map(str, cycle)) + ")")
        return "".join(parts) if parts else "()"


def set_bits(mask: int):
    """The 0-based positions of the set bits of a non-negative mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def map_bits(mask: int, images) -> int:
    """The mask with each set bit i moved to bit images[i] (a 0-based point map)."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << images[low.bit_length() - 1]
        mask ^= low
    return out


def compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """p then q on 0-based image tuples, as ``Permutation.__mul__``."""
    if len(p) < 2:
        # itemgetter of one index returns a bare item, and of none raises
        return tuple([q[i] for i in p])
    return itemgetter(*p)(q)


def invert(p: tuple[int, ...]) -> tuple[int, ...]:
    inverse = [0] * len(p)
    for i, j in enumerate(p):
        inverse[j] = i
    return tuple(inverse)


def apply(p: Permutation, a: ElementSet) -> ElementSet:
    """Image of a set under a permutation of its ground set."""
    if p.degree != a.ground_size:
        raise GroundMismatchError(
            f"permutation degree {p.degree} != ground size {a.ground_size}"
        )
    # images are 1-based, so every mapped bit lands one place too high
    return ElementSet(map_bits(a.bits, p.images) >> 1, a.ground_size)


def parse_set(text: str, ground_size: int) -> ElementSet:
    """Parse textual set notation such as ``{1,3,5}`` or ``1,3,5``.

    A token that is not an integer, or an element outside 1..ground_size,
    raises ParseError.
    """
    body = text.strip()
    if body.startswith("{") and body.endswith("}"):
        body = body[1:-1]
    if not body.strip():
        return ElementSet.empty(ground_size)
    try:
        return ElementSet.of([int(tok) for tok in body.split(",")], ground_size)
    except ValueError as exc:
        raise ParseError(f"cannot parse set notation {text!r}: {exc}") from exc
