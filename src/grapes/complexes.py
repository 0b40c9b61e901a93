"""Finite simplicial complexes over a named ground set, stored by facets.

A complex is a pair (faces, ground set).  We keep only the inclusion-maximal
faces (the facets); the face family is their downward closure.  Two complexes
with no vertices exist on every ground set and must be kept distinct:

* the void complex, with no faces at all (``facets == frozenset()``), and
* the irrelevant complex, whose only face is the empty face
  (``facets == {frozenset()}``).

The ground set matters: elements that appear in no face still influence the
Alexander dual, so every operation tracks the ground set explicitly.

All operations are pure; a Complex is immutable after construction.

Links, deletions and cone apexes are computed on int masks, the kernel that
recognition, certificate replay and collapse search run on: bit i stands for
element i of a ground tuple, so a face is an int and a complex a frozenset
of facet masks.  A ground restricted to the vertices keeps the ground order,
so its order is increasing bit order and the lowest apex of a cone is
``m & -m``.  Names come back only where a result leaves the kernel; the
name-level ``link``, ``deletion`` and ``cone_apexes`` are wrappers over it.
Faces are still ordered by ``face_key`` (size, then ground indices), which is
not integer order of masks: {0, 3} comes before {1, 2}.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from operator import and_, or_
from typing import Iterable, Iterator

Face = frozenset  # faces are frozensets of ground-element names


class InputError(ValueError):
    """Raised when caller-supplied data violates an operation's contract."""


EMPTY_FACE: Face = frozenset()


@dataclass(frozen=True)
class Complex:
    """A simplicial complex: ordered ground elements plus a facet antichain."""

    ground: tuple[str, ...]
    facets: frozenset

    def __post_init__(self) -> None:
        gset = set(self.ground)
        if len(gset) != len(self.ground):
            raise InputError("ground elements must be pairwise distinct")
        for name in self.ground:
            if not isinstance(name, str) or not name:
                raise InputError("ground elements must be nonempty strings")
        for facet in self.facets:
            if not facet <= gset:
                unknown = sorted(facet - gset)
                raise InputError(f"facet uses unknown ground elements: {unknown}")

    # -- basic queries ----------------------------------------------------

    @property
    def is_void(self) -> bool:
        return not self.facets

    @property
    def is_irrelevant(self) -> bool:
        return self.facets == frozenset({EMPTY_FACE})

    def dim(self) -> int:
        """Max facet cardinality minus one; -1 for irrelevant, -2 for void."""
        if self.is_void:
            return -2
        return max(len(f) for f in self.facets) - 1

    def vertices(self) -> frozenset:
        """Elements that occur in at least one face."""
        out: set = set()
        for facet in self.facets:
            out |= facet
        return frozenset(out)

    def has_face(self, face: Face) -> bool:
        """Face membership: contained in some facet."""
        return any(face <= facet for facet in self.facets)

    def faces(self) -> frozenset:
        """All faces, including the empty face unless the complex is void.

        Exponential in facet size; meant for desk-scale complexes only.
        """
        out: set = set()
        for facet in self.facets:
            items = sorted(facet, key=self.index)
            for k in range(len(items) + 1):
                for combo in combinations(items, k):
                    out.add(frozenset(combo))
        return frozenset(out)

    def index(self, element: str) -> int:
        try:
            return self.ground.index(element)
        except ValueError:
            raise InputError(f"{element!r} is not a ground element") from None

    def face_key(self, face: Face) -> tuple[int, ...]:
        """Deterministic sort key for a face (ground-order index tuple)."""
        return tuple(sorted(self.index(x) for x in face))

    def sorted_facets(self) -> list:
        return sorted(self.facets, key=lambda f: (len(f), self.face_key(f)))


def _maximal(faces: Iterable[Face]) -> frozenset:
    """Inclusion-maximal members of a face family (antichain normalization)."""
    pool = set(faces)
    return frozenset(
        f for f in pool if not any(f < g for g in pool)
    )


def new_complex(ground: Iterable[str], generators: Iterable[Face]) -> Complex:
    """Build a complex from generating faces; keeps only the maximal ones."""
    ground_t = tuple(ground)
    return Complex(ground_t, _maximal(frozenset(g) for g in generators))


def void_complex(ground: Iterable[str] = ()) -> Complex:
    return Complex(tuple(ground), frozenset())


def irrelevant_complex(ground: Iterable[str] = ()) -> Complex:
    return Complex(tuple(ground), frozenset({EMPTY_FACE}))


def full_simplex(ground: Iterable[str]) -> Complex:
    ground_t = tuple(ground)
    return Complex(ground_t, frozenset({frozenset(ground_t)}))


def simplex_boundary(ground: Iterable[str]) -> Complex:
    """All proper subsets of the ground set (boundary of the full simplex)."""
    ground_t = tuple(ground)
    if not ground_t:
        return void_complex(ground_t)
    full = frozenset(ground_t)
    return Complex(
        ground_t, frozenset(full - {x} for x in ground_t)
    )


def cross_polytope_boundary(n: int, prefix: str = "p") -> Complex:
    """Boundary of the n-dimensional cross-polytope: n-fold join of 0-spheres.

    n = 0 gives the irrelevant complex (the (-1)-sphere).
    """
    if n < 0:
        raise InputError("cross-polytope dimension must be >= 0")
    ground = tuple(f"{prefix}{i}{sign}" for i in range(1, n + 1) for sign in "ab")
    out = irrelevant_complex(())
    for i in range(1, n + 1):
        x, y = f"{prefix}{i}a", f"{prefix}{i}b"
        out = suspension(out, x, y)
    return extend_ground(out, ground)


# -- vertex operations ----------------------------------------------------


def deletion(c: Complex, x: str) -> Complex:
    """Faces avoiding x, on the ground set without x."""
    return _vertex_op(deletion_masks, c, x)


def link(c: Complex, x: str) -> Complex:
    """Faces sigma with x not in sigma and sigma + {x} a face, without x."""
    return _vertex_op(link_masks, c, x)


def _vertex_op(op, c: Complex, x: str) -> Complex:
    c.index(x)
    bit, masks = complex_masks(c)
    return complex_of(tuple(e for e in c.ground if e != x), op(masks, bit[x]), c.ground)


def join(c1: Complex, c2: Complex) -> Complex:
    """Join of two complexes sharing one ground set: unions of faces."""
    if set(c1.ground) != set(c2.ground):
        raise InputError("join requires equal ground sets; extend_ground first")
    gens = [f1 | f2 for f1 in c1.facets for f2 in c2.facets]
    return Complex(c1.ground, _maximal(gens))


def cone_over(c: Complex, apex: str) -> Complex:
    """Cone on c: every facet gains the apex.  The apex must be fresh.

    Extends the ground set when the apex is not already a ground element.
    Void stays void; the cone over the irrelevant complex is a single point.
    """
    if apex in c.vertices():
        raise InputError(f"cone apex {apex!r} is already a vertex")
    ground = c.ground if apex in c.ground else c.ground + (apex,)
    return Complex(ground, frozenset(facet | {apex} for facet in c.facets))


def suspension(c: Complex, x: str, y: str) -> Complex:
    """Join with the two-point complex on fresh elements x, y."""
    if x == y:
        raise InputError("suspension needs two distinct fresh elements")
    verts = c.vertices()
    for apex in (x, y):
        if apex in verts:
            raise InputError(f"suspension point {apex!r} is already a vertex")
    ground = c.ground + tuple(e for e in (x, y) if e not in c.ground)
    # already an antichain: x and y are fresh and distinct
    return Complex(ground, frozenset(facet | {p} for facet in c.facets for p in (x, y)))


def cone_apexes(c: Complex) -> frozenset:
    """Vertices lying in every facet; nonempty iff the complex is a cone.

    The void and irrelevant complexes have no vertices and are not cones.
    """
    return face_of(meet_mask(complex_masks(c)[1]), c.ground)


def is_cone(c: Complex) -> bool:
    return bool(cone_apexes(c))


# -- duality ---------------------------------------------------------------


def minimal_nonfaces(c: Complex) -> frozenset:
    """Inclusion-minimal subsets of the ground set that are not faces.

    These are the minimal transversals of the facet complements, found by
    Berge's algorithm, largest facet first: transversals meeting the next
    complement stay, each one missing it grows by one of its elements, and a
    grown set containing a kept one is dropped.  For the void complex this
    is {{}}; for the full simplex it is empty.
    """
    full = frozenset(c.ground)
    found = {EMPTY_FACE}
    for facet in sorted(c.facets, key=len, reverse=True):
        rest = full - facet
        kept = {t for t in found if t & rest}
        grown = {t | {x} for t in found - kept for x in rest}
        found = kept | {u for u in grown if not any(k <= u for k in kept)}
    return frozenset(found)


def alexander_dual(c: Complex) -> Complex:
    """Dual complex on the same ground set: F is a face iff X - F is not.

    Facets of the dual are the complements of the minimal non-faces, so the
    result depends on the ground set, not just on the face family.
    """
    full = frozenset(c.ground)
    gens = frozenset(full - m for m in minimal_nonfaces(c))
    return Complex(c.ground, gens)


# -- ground-set plumbing ---------------------------------------------------


def restrict_ground(c: Complex) -> Complex:
    """Drop ground elements that are not vertices; facets unchanged."""
    verts = c.vertices()
    return Complex(tuple(e for e in c.ground if e in verts), c.facets)


def extend_ground(c: Complex, extra: Iterable[str]) -> Complex:
    """Append new ground elements; elements already present are kept as-is."""
    ground = list(c.ground)
    seen = set(ground)
    for e in extra:
        if e not in seen:
            ground.append(e)
            seen.add(e)
    return Complex(tuple(ground), c.facets)


def equals(c1: Complex, c2: Complex) -> bool:
    """Same ground set (as a set) and same facet family."""
    return set(c1.ground) == set(c2.ground) and c1.facets == c2.facets


def is_subcomplex(c1: Complex, c2: Complex) -> bool:
    """Every face of c1 is a face of c2; requires equal ground sets."""
    if set(c1.ground) != set(c2.ground):
        raise InputError("subcomplex test requires equal ground sets")
    return all(c2.has_face(f) for f in c1.facets)


# -- the mask kernel -------------------------------------------------------


def bit_table(ground: Iterable[str]) -> dict:
    """Name -> bit: element i of the ground is 1 << i."""
    return {x: 1 << i for i, x in enumerate(ground)}


def mask_of(face: Iterable[str], bit: dict) -> int:
    m = 0
    for x in face:
        m |= bit[x]
    return m


def face_of(m: int, ground: tuple) -> Face:
    """The names of a mask's bits."""
    out = []
    while m:
        low = m & -m
        out.append(ground[low.bit_length() - 1])
        m ^= low
    return frozenset(out)


def mask_order(m: int) -> tuple:
    """Sort key, reversed, for face_key order: size, then bit string from bit 0."""
    return m.bit_count(), format(m, "b")[::-1]


def complex_masks(c: Complex) -> tuple:
    """(bit table, facet masks) over the whole ground of c."""
    bit = bit_table(c.ground)
    return bit, frozenset(mask_of(f, bit) for f in c.facets)


def vertex_masks(c: Complex) -> tuple:
    """(vertices in ground order, facet masks over them): c restricted."""
    cr = restrict_ground(c)
    return cr.ground, complex_masks(cr)[1]


def complex_of(ground: tuple, masks: Iterable[int], names: tuple) -> Complex:
    """The complex on ground whose facets are masks over names."""
    return Complex(ground, frozenset(face_of(m, names) for m in masks))


def join_mask(masks: Iterable[int]) -> int:
    """The vertices, as a mask."""
    return reduce(or_, masks, 0)


def meet_mask(masks: frozenset) -> int:
    """The cone apexes, as a mask: 0 for the void and irrelevant complexes."""
    return reduce(and_, masks) if masks else 0


def face_masks(masks: Iterable[int]) -> set:
    """Every face of the facet masks: all their submasks, 0 included."""
    faces = set()
    for f in masks:
        s = f
        while s:
            faces.add(s)
            s = (s - 1) & f
        faces.add(0)
    return faces


def has_face_mask(masks: Iterable[int], m: int) -> bool:
    return any(m & g == m for g in masks)


def link_masks(masks: frozenset, a: int) -> frozenset:
    """The link of bit a; already an antichain, since F - a <= G - a gives F <= G."""
    return frozenset(f ^ a for f in masks if f & a)


def deletion_masks(masks: frozenset, a: int) -> frozenset:
    """The deletion of bit a.

    Facets avoiding a stay facets.  F - a for a facet F through a is one
    unless it lies in a facet avoiding a: it cannot lie in G - a for another
    facet G through a, since then F would lie in G.
    """
    avoiding = [f for f in masks if not f & a]
    cut = [f ^ a for f in masks if f & a]
    return frozenset(avoiding).union(f for f in cut if not has_face_mask(avoiding, f))


def maximal_masks(masks: Iterable[int]) -> frozenset:
    """Inclusion-maximal members of a family of masks."""
    pool = set(masks)
    return frozenset(f for f in pool if not any(f & g == f != g for g in pool))


# -- JSON interchange ------------------------------------------------------


def complex_to_json(c: Complex) -> dict:
    return {
        "ground": list(c.ground),
        "facets": [
            sorted(facet, key=c.index) for facet in c.sorted_facets()
        ],
    }


def complex_from_json(data: object) -> Complex:
    if not isinstance(data, dict):
        raise InputError("complex JSON must be an object")
    ground = data.get("ground")
    facets = data.get("facets")
    if not isinstance(ground, list) or not all(isinstance(g, str) for g in ground):
        raise InputError('complex JSON needs a "ground" array of strings')
    if not isinstance(facets, list) or not all(isinstance(f, list) for f in facets):
        raise InputError('complex JSON needs a "facets" array of arrays')
    for f in facets:
        if not all(isinstance(x, str) for x in f):
            raise InputError("facet entries must be strings")
    return new_complex(ground, [frozenset(f) for f in facets])


def enumerate_complexes(ground: Iterable[str]) -> Iterator[Complex]:
    """All simplicial complexes on the given ground set (every antichain).

    Exponential in 2^|ground|; intended for |ground| <= 4.
    """
    ground_t = tuple(ground)
    subsets = [
        frozenset(combo)
        for k in range(len(ground_t) + 1)
        for combo in combinations(ground_t, k)
    ]

    def rec(i: int, chosen: list) -> Iterator[Complex]:
        if i == len(subsets):
            yield Complex(ground_t, frozenset(chosen))
            return
        yield from rec(i + 1, chosen)
        s = subsets[i]
        if not any(s <= t or t <= s for t in chosen):
            chosen.append(s)
            yield from rec(i + 1, chosen)
            chosen.pop()

    yield from rec(0, [])
