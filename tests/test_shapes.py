"""The shapes the duality, homology and collapse tests build are the complexes
they are named for, checked against their definitions by name."""

import itertools
import json
from itertools import combinations

import pytest

from grapes import (
    alexander_dual,
    complex_to_json,
    enumerate_complexes,
    irrelevant_complex,
    minimal_nonfaces,
    reduced_homology,
)
from grapes.complexes import meet_mask
from shapes import (
    cone, cross_polytope, cx, equals, faces, fs, full_simplex, simplex_boundary, suspension,
)


def subsets(ground):
    return {frozenset(s) for k in range(len(ground) + 1) for s in combinations(ground, k)}


# -- cone -------------------------------------------------------------------------


def test_cone_over_irrelevant_is_point():
    c = cone(irrelevant_complex(()), "v")
    assert c.facets == {fs("v")}
    assert c.ground == ("v",)


def test_cone_faces_are_the_base_faces_with_and_without_the_apex():
    for c in enumerate_complexes("abc"):
        base = faces(c)
        assert faces(cone(c, "z")) == base | {f | {"z"} for f in base}


def test_cone_apex_lies_in_every_facet():
    for c in enumerate_complexes("abc"):
        coned = cone(c, "z")
        assert coned.ground == ("a", "b", "c", "z")
        if not c.is_void:
            assert meet_mask(coned.masks) >> 3 & 1


# -- suspension ---------------------------------------------------------------------


def test_suspension_of_irrelevant_is_two_points():
    c = suspension(irrelevant_complex(()), "x", "y")
    assert c.facets == {fs("x"), fs("y")}


def test_suspension_of_two_points_is_four_cycle():
    result = suspension(cx("ab", "a", "b"), "x", "y")
    assert result.facets == {fs("a", "x"), fs("a", "y"), fs("b", "x"), fs("b", "y")}


def test_suspension_faces_are_the_join_with_two_points():
    for c in enumerate_complexes("abc"):
        base = faces(c)
        joined = {f | p for f in base for p in (fs(), fs("x"), fs("y"))}
        assert faces(suspension(c, "x", "y")) == joined


# -- simplices ------------------------------------------------------------------------


def test_full_simplex_every_element_is_an_apex_and_the_dual_is_void():
    for ground in ("a", "abc", "abcde"):
        c = full_simplex(ground)
        assert faces(c) == subsets(ground)
        assert meet_mask(c.masks) == (1 << len(ground)) - 1
        assert alexander_dual(c).is_void


def test_simplex_boundary_is_every_proper_subset():
    for ground in ("a", "ab", "abc", "abcd"):
        assert faces(simplex_boundary(ground)) == subsets(ground) - {frozenset(ground)}


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_simplex_boundary_is_a_sphere(k):
    assert reduced_homology(simplex_boundary("abcdef"[:k])).is_wedge({k - 2: 1})


# -- cross-polytopes --------------------------------------------------------------------


def test_cross_polytope_of_at_most_one_pole_pair():
    assert equals(cross_polytope(0), irrelevant_complex(()))
    assert cross_polytope(1).facets == {fs("p1a"), fs("p1b")}


def test_cross_polytope_of_two_pole_pairs_is_four_cycle():
    four_cycle = cx(("p1a", "p1b", "p2a", "p2b"),
                    ("p1a", "p2a"), ("p1a", "p2b"), ("p1b", "p2a"), ("p1b", "p2b"))
    assert equals(cross_polytope(2), four_cycle)


@pytest.mark.parametrize("n", range(7))
def test_cross_polytope_json_is_the_pole_pair_product(n):
    """The facets are the product of the pole pairs, written in the
    product's order: a file built as the product is cross_polytope(n)'s
    JSON byte for byte."""
    g = [f"p{i}{s}" for i in range(1, n + 1) for s in "ab"]
    product = {"ground": g, "facets": [list(f) for f in itertools.product(*zip(g[::2], g[1::2]))]}
    assert json.dumps(complex_to_json(cross_polytope(n))) == json.dumps(product)


def test_cross_polytope_minimal_nonfaces_are_the_pole_pairs():
    for n in range(1, 6):
        pairs = {fs(f"p{i}a", f"p{i}b") for i in range(1, n + 1)}
        assert minimal_nonfaces(cross_polytope(n)) == pairs


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_cross_polytope_is_a_sphere(n):
    assert reduced_homology(cross_polytope(n)).is_wedge({n - 1: 1})
