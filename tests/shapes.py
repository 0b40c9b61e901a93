"""Named faces and the standard complexes the tests build, from names.

No validation beyond ``new_complex``'s: the apex and suspension points are
taken to be fresh, and each helper appends them to the ground.
"""

from grapes.complexes import avoiding, face_masks, face_of, new_complex


def fs(*names):
    return frozenset(names)


def cx(ground, *facets):
    return new_complex(ground, [frozenset(f) for f in facets])


def equals(c1, c2):
    """Same ground set, in any order, and the same facets by name."""
    return set(c1.ground) == set(c2.ground) and c1.facets == c2.facets


def vertices(c):
    """The elements in some face, by name."""
    return frozenset().union(*c.facets)


def faces(c):
    """Every face by name, the empty face included unless c is void."""
    return frozenset(face_of(s, c.ground) for s in face_masks(c.masks))


def cone(c, apex):
    """Every facet gains the apex, appended to the ground."""
    return new_complex(c.ground + (apex,), [f | {apex} for f in c.facets])


def suspension(c, x, y):
    """The join with the two points x and y, appended to the ground."""
    return new_complex(c.ground + (x, y), [f | {p} for f in c.facets for p in (x, y)])


def full_simplex(ground):
    ground = tuple(ground)
    return new_complex(ground, [ground])


def simplex_boundary(ground):
    """Every proper subset of the ground."""
    ground = tuple(ground)
    return new_complex(ground, [set(ground) - {x} for x in ground])


def cross_polytope(n):
    """Boundary of the n-dimensional cross-polytope on p1a p1b ... pna pnb:
    the sets holding neither pole pair {pia, pib}; n = 0 is the irrelevant
    complex."""
    ground = tuple(f"p{i}{s}" for i in range(1, n + 1) for s in "ab")
    return avoiding(ground, [3 << 2 * i for i in range(n)])
