"""Finite simplicial complexes over a named ground set, stored by facets.

A complex is a pair (faces, ground set).  We keep only the inclusion-maximal
faces (the facets); the face family is their downward closure.  Two complexes
with no vertices exist on every ground set and must be kept distinct:

* the void complex, with no faces at all (no facets), and
* the irrelevant complex, whose only face is the empty face (one empty
  facet).

The ground set matters: elements that appear in no face still influence the
Alexander dual, so every operation tracks the ground set explicitly.

All operations are pure; a Complex is immutable after construction.  The
engine builds complexes from names (``new_complex``, ``void_complex``,
``irrelevant_complex``, ``complex_from_json``), from forbidden sets
(``avoiding``, which also gives a cross-polytope boundary from its pole
pairs) and by enumeration (``enumerate_complexes``); on them it takes
links, deletions, the restriction to the vertices, minimal non-faces and
the Alexander dual.

There is one face representation, an int mask: bit i stands for element i
of the ground tuple, and a Complex holds its facets as masks, which every
operation here and in recognition, replay, collapse search and homology
runs on.  Names appear only at the boundary: ``new_complex`` and
``complex_from_json`` turn names into masks and validate them, and
``Complex.facets``, ``complex_to_json`` and the name-level queries turn
masks back into names.  Certificates and collapse sequences hold masks
too; only their JSON writers and readers (``grape``, ``collapse``) name
them, the readers through ``bit_table`` and ``mask_of``.  A ground
restricted to the vertices keeps the ground order, so the lowest apex of a
cone is ``m & -m``.  The face order is by size, then by the ascending tuple
of ground indices, which is not integer order of masks: {0, 3} comes before
{1, 2}.

Input is validated once, where it enters (``new_complex``,
``complex_from_json``).  Every "does some facet hold this face?" test goes
through :func:`holders`: one set lookup per vertex outside the face, plus a
scan of the facets at least two elements larger, none in a pure complex.
The exception is ``collapse._free_faces``: one pass over the facets for
all of a facet's codimension-1 faces, asked at each collapse node and step
of a face set just changed, where a ``holders`` index would cost a sort.

Every dual, primal graph or path-free complex and list of minimal non-faces
comes from one kernel, :func:`_transversals` (Berge's algorithm).  Its plain
minimality loops run the benchmark's recorded calls 1.8-2.2 times as fast
as the generator loop kept as an oracle, list for list, by
``tests/test_duality_kernel.py::test_the_kernel_returns_the_oracles_list``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import combinations, groupby
from operator import and_, or_
from typing import Callable, Iterable, Iterator

Face = frozenset  # faces by name are frozensets of ground-element names

MAX_FACES = 1 << 20  # the most faces a complex may span, and the most sets a Berge family may hold


class InputError(ValueError):
    """Raised when caller-supplied data violates an operation's contract."""


@dataclass(frozen=True)
class Complex:
    """A simplicial complex: ordered ground elements plus a facet antichain
    of masks, bit i standing for ``ground[i]``.  Unchecked: build one from
    names with :func:`new_complex`, which validates them."""

    ground: tuple
    masks: frozenset

    @cached_property
    def facets(self) -> frozenset:
        """The facets as frozensets of names, for reports, JSON and tests."""
        return frozenset(face_of(m, self.ground) for m in self.masks)

    # -- basic queries ----------------------------------------------------

    @property
    def is_void(self) -> bool:
        return not self.masks

    @property
    def is_irrelevant(self) -> bool:
        return self.masks == {0}

    def dim(self) -> int:
        """Max facet cardinality minus one; -1 for irrelevant, -2 for void."""
        return max((m.bit_count() for m in self.masks), default=-1) - 1

    def index(self, element: str) -> int:
        try:
            return self.ground.index(element)
        except ValueError:
            raise InputError(f"{element!r} is not a ground element") from None


def new_complex(ground: Iterable[str], generators: Iterable[Face]) -> Complex:
    """Build a complex from generating faces; keeps only the maximal ones.
    Checks the names: distinct nonempty strings, generators in the ground."""
    ground_t = tuple(ground)
    if not all(isinstance(x, str) and x for x in ground_t):
        raise InputError("ground elements must be nonempty strings")
    bit = bit_table(ground_t)
    if len(bit) != len(ground_t):
        raise InputError("ground elements must be pairwise distinct")
    faces = [frozenset(g) for g in generators]
    unknown = set().union(*faces) - bit.keys()
    if unknown:
        raise InputError(f"facet uses unknown ground elements: {sorted(unknown, key=str)}")
    return Complex(ground_t, maximal_masks(mask_of(f, bit) for f in faces))


def void_complex(ground: Iterable[str] = ()) -> Complex:
    return new_complex(ground, ())


def irrelevant_complex(ground: Iterable[str] = ()) -> Complex:
    return new_complex(ground, (Face(),))


# -- vertex operations ----------------------------------------------------


def deletion(c: Complex, x: str) -> Complex:
    """Faces avoiding x, on the ground set without x."""
    return _vertex_op(deletion_masks, c, x)


def link(c: Complex, x: str) -> Complex:
    """Faces sigma with x not in sigma and sigma + {x} a face, without x."""
    return _vertex_op(link_masks, c, x)


def _vertex_op(op, c: Complex, x: str) -> Complex:
    i = c.index(x)
    return Complex(c.ground[:i] + c.ground[i + 1 :], _drop_bits(op(c.masks, 1 << i), 1 << i))


# -- duality ---------------------------------------------------------------


def _transversals(edges: Iterable[int], overflow: str) -> list:
    """Minimal transversals of a family of masks, by Berge's algorithm.

    Edges go smallest first, ties in integer order.  A found set meeting the
    edge is kept; one missing it, t, grows by each bit x of the edge, and
    t + x is dropped if it contains a kept k.  Such a k meets the edge in x
    alone, so kept sets are filed by that bit, without it, and t + x is
    tested by a plain loop against the file of x only.  The files are
    disjoint, so an edge costs one pass over the found sets plus, per missed
    set, one step per bit of the edge and at most one subset test per kept
    set.  Grown sets form an antichain, as the found sets did.  The list's
    order (kept sets, then each missed set grown by its bits in ascending
    order) is part of the contract: callers' frozensets iterate in it.  Past
    MAX_FACES sets, checked after each missed set, InputError with the
    caller's overflow message, its ``{}`` filled with MAX_FACES: it guards
    memory, so it holds for the intermediate families, which may outgrow the result.
    """
    found = [0]
    order = sorted(set(edges))
    order.sort(key=int.bit_count)
    for e in order:
        kept, missed = [], []
        for t in found:
            (kept if t & e else missed).append(t)
        if not missed:
            continue
        found = kept
        filed: dict = {}
        for k in kept:
            hit = k & e
            if not hit & (hit - 1):
                filed.setdefault(hit, []).append(k ^ hit)
        files = [(1 << i, filed.get(1 << i, ())) for i in range(e.bit_length()) if e >> i & 1]
        for t in missed:
            for x, file in files:
                for k in file:
                    if k & t == k:
                        break
                else:
                    found.append(t | x)
            if len(found) > MAX_FACES:
                raise InputError(overflow.format(MAX_FACES))
    return found


def avoiding(
    ground: tuple, forbidden: Iterable[int],
    overflow: str = "the complex's computation has an intermediate family of more than {} sets",
) -> Complex:
    """The ground subsets containing no forbidden set (masks over ground):
    F is one when X - F meets every forbidden set, so the facets are the
    complements of the minimal transversals.  InputError with the overflow
    message once a family of Berge's algorithm passes MAX_FACES sets."""
    full = (1 << len(ground)) - 1
    return Complex(ground, frozenset(full ^ t for t in _transversals(forbidden, overflow)))


def avoiding_dual(ground: tuple, forbidden: Iterable[int]) -> Complex:
    """``alexander_dual(avoiding(ground, forbidden))`` with no search: X - F holds
    a forbidden set s iff F lies in X - s, so the facets are the maximal X - s."""
    full = (1 << len(ground)) - 1
    return Complex(ground, maximal_masks(full ^ s for s in forbidden))


def minimal_nonfaces(c: Complex) -> frozenset:
    """Inclusion-minimal subsets of the ground set that are not faces.

    These are the minimal transversals of the facet complements.  For the
    void complex this is {{}}; for the full simplex it is empty.
    """
    full = (1 << len(c.ground)) - 1
    edges = (full ^ f for f in c.masks)
    found = _transversals(
        edges, "the minimal non-faces' computation has an intermediate family of more than {} sets")
    return frozenset(face_of(t, c.ground) for t in found)


def alexander_dual(c: Complex) -> Complex:
    """Dual complex on the same ground set: F is a face iff X - F is not.

    X - F is a face when it lies in a facet G, that is when F contains X - G;
    so the dual avoids the facet complements.  The result depends on the
    ground set, not just on the face family.
    """
    full = (1 << len(c.ground)) - 1
    return avoiding(c.ground, (full ^ f for f in c.masks),
                    "the dual's computation has an intermediate family of more than {} sets")


# -- ground-set plumbing ---------------------------------------------------


def restrict_ground(c: Complex) -> Complex:
    """Drop ground elements that are not vertices, facets unchanged; c if none is dropped."""
    verts = join_mask(c.masks)
    if verts == (1 << len(c.ground)) - 1:
        return c
    ground = tuple(x for i, x in enumerate(c.ground) if verts >> i & 1)
    return Complex(ground, _drop_bits(c.masks, ((1 << len(c.ground)) - 1) ^ verts))


def _drop_bits(masks: Iterable[int], drop: int) -> frozenset:
    """Masks that avoid the bits of drop, over the ground without them: the
    bits above each dropped one move down one place."""
    out = frozenset(masks)
    while drop:
        a = 1 << (drop.bit_length() - 1)  # highest first, so the lower ones stay put
        drop ^= a
        out = frozenset((m & (a - 1)) | ((m >> 1) & -a) for m in out)
    return out


# -- the mask kernel -------------------------------------------------------


def bit_table(ground: Iterable[str]) -> dict:
    """Name -> bit: element i of the ground is 1 << i."""
    return {x: 1 << i for i, x in enumerate(ground)}


def mask_of(face: Iterable[str], bit: dict) -> int:
    """A face's mask by the name table bit; a name outside it is entered
    with the next bit above the others, so tuple(bit) names every bit."""
    m = 0
    for x in face:
        m |= bit.setdefault(x, 1 << len(bit))
    return m


def face_of(m: int, ground: tuple) -> Face:
    """The names of a mask's bits."""
    out = []
    while m:
        low = m & -m
        out.append(ground[low.bit_length() - 1])
        m ^= low
    return frozenset(out)


def bit_indices(m: int) -> list:
    """The indices of a mask's bits, ascending."""
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return out


def mask_order(m: int) -> tuple:
    """Sort key, reversed, for face order: size, then bit string from bit 0."""
    return m.bit_count(), format(m, "b")[::-1]


def join_mask(masks: Iterable[int]) -> int:
    """The vertices, as a mask."""
    return reduce(or_, masks, 0)


def meet_mask(masks: frozenset) -> int:
    """The cone apexes, as a mask: 0 for the void and irrelevant complexes."""
    return reduce(and_, masks) if masks else 0


def bound_faces(count: int) -> None:
    """InputError when count faces are more than MAX_FACES."""
    if count > MAX_FACES:
        raise InputError(f"the facets span more than {MAX_FACES} faces")


def face_masks(masks: Iterable[int]) -> set:
    """Every face of the facet masks: all their submasks, 0 included.
    InputError once there are over MAX_FACES, before a facet's faces are
    built when that facet alone spans more."""
    faces = set()
    for f in masks:
        bound_faces(1 << f.bit_count())
        s = f
        while s:
            faces.add(s)
            s = (s - 1) & f
        faces.add(0)
        bound_faces(len(faces))
    return faces


def holders(family: Iterable[int]) -> Callable[[int], Iterator[int]]:
    """For a family of masks, a function from a mask m to the members that
    hold m, lazily.  m itself, and each member one bit larger as m | b for
    a vertex bit b of the family outside m, are found by lookup; only the
    members two or more bits larger are scanned, by size, sorted once."""
    members = frozenset(family)
    by_size = sorted(members, key=int.bit_count, reverse=True)
    verts = join_mask(by_size)

    def holding(m: int) -> Iterator[int]:
        if m in members:
            yield m
        rest = verts & ~m
        while rest:
            b = rest & -rest
            if m | b in members:
                yield m | b
            rest ^= b
        k = m.bit_count() + 1
        for g in by_size:
            if g.bit_count() <= k:
                return
            if g & m == m:
                yield g

    return holding


def link_masks(masks: frozenset, a: int) -> frozenset:
    """The link of bit a; already an antichain, since F - a <= G - a gives F <= G."""
    return frozenset(f ^ a for f in masks if f & a)


def deletion_masks(masks: frozenset, a: int) -> frozenset:
    """The deletion of bit a.

    Facets avoiding a stay facets.  F - a for a facet F through a is one
    unless it lies in a facet avoiding a: it cannot lie in G - a for another
    facet G through a, since then F would lie in G.
    """
    away = frozenset([f for f in masks if not f & a])
    cut = [f ^ a for f in masks if f & a]
    if not (away and cut):
        return away.union(cut)
    held = holders(away)
    return away.union(f for f in cut if not any(held(f)))


def maximal_masks(masks: Iterable[int]) -> frozenset:
    """Inclusion-maximal members of a family of masks, largest first: the
    largest size is kept whole, and a smaller mask is kept unless another
    member, necessarily larger, holds it."""
    family = sorted(set(masks), key=int.bit_count, reverse=True)
    groups = groupby(family, int.bit_count)
    kept = list(next(groups, (0, ()))[1])
    if len(kept) < len(family):
        held = holders(family)
        for _, same_size in groups:
            kept += [f for f in same_size if not any(g != f for g in held(f))]
    return frozenset(kept)


# -- JSON interchange ------------------------------------------------------


def complex_to_json(c: Complex) -> dict:
    rows = list(map(bit_indices, c.masks))
    rows.sort()
    rows.sort(key=len)  # stable: face order, by size and then by index row
    return {"ground": list(c.ground), "facets": [[c.ground[i] for i in row] for row in rows]}


def complex_from_json(data: object) -> Complex:
    """Decode in one pass, by name lookup; data that fails a lookup, or a
    ground with empty or repeated names, is checked name by name."""
    if not isinstance(data, dict):
        raise InputError("complex JSON must be an object")
    ground = data.get("ground")
    facets = data.get("facets")
    if not isinstance(ground, list) or not all(isinstance(g, str) for g in ground):
        raise InputError('complex JSON needs a "ground" array of strings')
    if not isinstance(facets, list) or not all(isinstance(f, list) for f in facets):
        raise InputError('complex JSON needs a "facets" array of arrays')
    bit = bit_table(ground)
    try:
        masks = [reduce(or_, map(bit.__getitem__, f), 0) for f in facets]
    except (KeyError, TypeError):  # an unknown name or a non-string entry
        masks = None
    if masks is None or len(bit) != len(ground) or "" in bit:
        for f in facets:
            if not all(isinstance(x, str) for x in f):
                raise InputError("facet entries must be strings")
        return new_complex(ground, facets)
    return Complex(tuple(ground), maximal_masks(masks))


def subset_masks(n: int) -> Iterator[int]:
    """Every subset of n bits as a mask: by size, then in the order of
    ``combinations`` of the bit positions."""
    bits = [1 << i for i in range(n)]
    return (sum(c) for k in range(n + 1) for c in combinations(bits, k))


def enumerate_complexes(ground: Iterable[str]) -> Iterator[Complex]:
    """All simplicial complexes on the given ground set (every antichain).

    Exponential in 2^|ground|; intended for |ground| <= 4.
    """
    ground_t = new_complex(ground, ()).ground
    subsets = list(subset_masks(len(ground_t)))
    stack = [(0, ())]  # (the next subset to decide, the antichain so far)
    while stack:
        i, chosen = stack.pop()
        if i == len(subsets):
            yield Complex(ground_t, frozenset(chosen))
            continue
        s = subsets[i]
        if not any(s & t in (s, t) for t in chosen):
            stack.append((i + 1, chosen + (s,)))
        stack.append((i + 1, chosen))  # taken first: every antichain without s comes first
