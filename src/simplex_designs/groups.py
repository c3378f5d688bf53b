"""Permutation groups: orbits, Schreier-Sims and ``PermGroup``, which checks
itself when built. The layer works on 0-based image tuples, composed as
``Permutation.__mul__``, and ``as_permutation`` turns one into a Permutation.
"""

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field

from .errors import InvariantError
from .subsets import Permutation, compose, invert


def orbit_of(item: int, generators) -> set[int]:
    """Orbit of an item under generators given as image tuples indexed by item.

    Items are 0-based ints: points, block indices or flag codes.
    """
    orbit = {item}
    frontier = [item]
    while frontier:
        x = frontier.pop()
        for g in generators:
            y = g[x]
            if y not in orbit:
                orbit.add(y)
                frontier.append(y)
    return orbit


def orbit_count(items, generators) -> int:
    """Number of orbits on items, with generators as in ``orbit_of``."""
    remaining = set(items)
    count = 0
    while remaining:
        remaining -= orbit_of(remaining.pop(), generators)
        count += 1
    return count


def _images(p: Permutation) -> tuple[int, ...]:
    """The 0-based image tuple the group layer works on."""
    return tuple(i - 1 for i in p.images)


def as_permutation(images) -> Permutation:
    """The ``Permutation`` of a 0-based image tuple."""
    return Permutation(tuple(i + 1 for i in images))


def _sift(g: tuple[int, ...], base, transversals, level: int = 0):
    """Strip coset representatives off g from ``level`` down the chain.

    Returns the residue and the level where it dropped out, len(base) when
    it passed every level.
    """
    while level < len(base):
        entry = transversals[level].get(g[base[level]])
        if entry is None:
            break
        g = compose(g, entry[1])
        level += 1
    return g, level


def _schreier_sims(generators, degree: int):
    """Base and transversals of a stabilizer chain of <generators>.

    Deterministic Schreier-Sims (Seress, *Permutation Group Algorithms*,
    2003, section 4.2): it stops only when every Schreier generator of every
    level sifts to the identity through the levels below, so the product of
    the transversal sizes is the group order. The Schreier generator
    u s (u')^-1 of a point x with representative u, a strong generator s and
    the representative u' of s(x) is the identity exactly when u s == u'.
    That holds on every edge of the transversal's tree, where u' was built
    as u s (Schreier's lemma), so such a generator is skipped: it would sift
    to the identity. Every other one is sifted, so the chain is still
    verified in full. Its base is its own: each new base point is the
    lowest point moved by a residue that fixes the base so far. The
    generators and the chain are 0-based image tuples. transversals[i]
    maps each point of the orbit of base[i] under the stabilizer of
    base[:i] to (u, u^-1), where u carries base[i] there.
    """
    identity = tuple(range(degree))
    base: list[int] = []
    strong: list[list[tuple[int, ...]]] = []
    transversals: list[dict] = []

    def add_level(g):
        base.append(next(x for x in range(degree) if g[x] != x))
        strong.append([])
        transversals.append({})

    def rebuild(level):
        b = base[level]
        table = {b: (identity, identity)}
        frontier = [b]
        while frontier:
            x = frontier.pop()
            u = table[x][0]
            for s in strong[level]:
                y = s[x]
                if y not in table:
                    w = compose(u, s)
                    table[y] = (w, invert(w))
                    frontier.append(y)
        transversals[level] = table

    for g in generators:
        if g != identity and all(g[b] == b for b in base):
            add_level(g)
    for level in range(len(base)):
        strong[level] = [
            g for g in generators if all(g[b] == b for b in base[:level])
        ]
        rebuild(level)

    def first_residue(level):
        # the first Schreier generator of the level that does not sift
        table = transversals[level]
        for x, (u, _) in table.items():
            for s in strong[level]:
                us, (rep, rep_inverse) = compose(u, s), table[s[x]]
                if us == rep:
                    continue
                residue, drop = _sift(compose(us, rep_inverse), base, transversals, level + 1)
                if residue != identity:
                    return residue, drop
        return None, level

    level = len(base) - 1
    while level >= 0:
        residue, drop = first_residue(level)
        if residue is None:
            level -= 1
            continue
        if drop == len(base):
            add_level(residue)
        for deeper in range(level + 1, drop + 1):
            strong[deeper].append(residue)
            rebuild(deeper)
        level = drop
    return base, transversals


class _ChainElements(Sequence):
    """The elements of a permutation group, read off a stabilizer chain.

    Element i is h_{r-1} * ... * h_0, where h_j is the coset representative
    at level j picked by digit j of i in the mixed radix of the transversal
    sizes; element 0 is the identity. Membership sifts down the chain.
    Nothing is stored beyond the chain itself, whose image tuples become
    ``Permutation``s only on the way out.
    """

    def __init__(self, degree: int, base, transversals):
        self._degree = degree
        self._identity = tuple(range(degree))
        self._base = tuple(base)
        self._transversals = tuple(transversals)
        self._reps = [[u for u, _ in table.values()] for table in transversals]
        self._len = math.prod(len(reps) for reps in self._reps)

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, index: int) -> Permutation:
        if index < 0:
            index += self._len
        if not 0 <= index < self._len:
            raise IndexError("group element index out of range")
        picked = []
        for reps in self._reps:
            index, digit = divmod(index, len(reps))
            picked.append(reps[digit])
        element = self._identity
        for u in reversed(picked):
            element = compose(element, u)
        return as_permutation(element)

    def __contains__(self, p) -> bool:
        if not isinstance(p, Permutation) or p.degree != self._degree:
            return False
        residue, level = _sift(_images(p), self._base, self._transversals)
        return level == len(self._base) and residue == self._identity


@dataclass(frozen=True)
class PermGroup:
    """The permutation group of the given degree that the generators generate.

    It checks itself when built: the degree must be an integer, stored as
    an int, and not negative, and the generators an iterable of
    Permutations of the group's degree. ``images`` holds the generators as
    0-based image tuples, and ``elements`` is a lazy view of their
    Schreier-Sims stabilizer chain: ``len`` is the order, and indexing or
    membership costs one pass down the chain, so no element list is ever
    built. Groups compare and hash by degree and generators.
    """

    degree: int
    generators: tuple[Permutation, ...]
    images: tuple[tuple[int, ...], ...] = field(init=False, compare=False, repr=False)
    elements: Sequence[Permutation] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        try:
            n = operator.index(self.degree)
        except TypeError:
            raise InvariantError(f"degree must be an integer, got {self.degree!r}") from None
        try:
            generators = tuple(self.generators)
        except TypeError:
            raise InvariantError(f"generators must be iterable, got {self.generators!r}") from None
        if n < 0:
            raise InvariantError(f"a group of negative degree {n}")
        for i, p in enumerate(generators):
            if not isinstance(p, Permutation):
                raise InvariantError(f"generator {i + 1} is not a Permutation: {p!r}")
            if p.degree != n:
                raise InvariantError(f"a generator of degree {p.degree} in a group of degree {n}")
        images = tuple(map(_images, generators))
        chain = _ChainElements(n, *_schreier_sims(images, n))
        values = {"degree": n, "generators": generators, "images": images, "elements": chain}
        for name, value in values.items():
            object.__setattr__(self, name, value)

    @property
    def order(self) -> int:
        return len(self.elements)

    @classmethod
    def trivial(cls, degree: int) -> "PermGroup":
        return cls(degree, ())
