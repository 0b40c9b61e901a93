"""Core complex operations against brute-force subset oracles."""

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from grapes import (
    Complex,
    InputError,
    alexander_dual,
    complex_from_json,
    complex_to_json,
    deletion,
    enumerate_complexes,
    irrelevant_complex,
    link,
    minimal_nonfaces,
    new_complex,
    restrict_ground,
    void_complex,
)
from grapes.complexes import (
    deletion_masks,
    face_of,
    holders,
    maximal_masks,
    meet_mask,
)
from grapes.generators import cycle_complex
from shapes import cx, equals, faces, fs, full_simplex, simplex_boundary, vertices


def has_face(c, face):
    """Face membership by name: contained in some facet."""
    return any(face <= facet for facet in c.facets)


def all_subsets(ground):
    for k in range(len(ground) + 1):
        for combo in combinations(ground, k):
            yield frozenset(combo)


def frozenset_maximal(faces):
    """Oracle: inclusion-maximal members of a face family, on frozensets."""
    pool = set(faces)
    return frozenset(f for f in pool if not any(f < g for g in pool))


def is_subcomplex(c1, c2):
    """Every face of c1 is a face of c2; requires equal ground sets."""
    if set(c1.ground) != set(c2.ground):
        raise InputError("subcomplex test requires equal ground sets")
    return all(has_face(c2, f) for f in c1.facets)


def brute_faces(c):
    """Oracle: scan every subset of the ground set for facet containment."""
    return {s for s in all_subsets(c.ground) if any(s <= f for f in c.facets)}


def brute_dual_faces(c):
    full = frozenset(c.ground)
    faces = brute_faces(c)
    return {s for s in all_subsets(c.ground) if (full - s) not in faces}


def brute_minimal_nonfaces(c):
    faces = brute_faces(c)
    out = set()
    for s in all_subsets(c.ground):
        if s in faces:
            continue
        if all((s - {x}) in faces for x in s):
            out.add(s)
    return out


# -- construction ------------------------------------------------------------


def test_new_complex_absorbs_nonmaximal_faces():
    c = cx("ab", "a", "ab")
    assert c.facets == {fs("a", "b")}


def test_new_complex_void_and_irrelevant():
    assert cx("ab").is_void
    assert cx("ab", "").is_irrelevant
    assert cx("ab", "").facets == {frozenset()}


def test_new_complex_rejects_unknown_elements():
    with pytest.raises(InputError):
        cx("ab", "ac")


def test_ground_must_be_distinct_nonempty_names():
    for ground in (("a", "a"), ("",), ("a", 1)):
        with pytest.raises(InputError):
            new_complex(ground, ())
        with pytest.raises(InputError):
            complex_from_json({"ground": list(ground), "facets": []})


def test_complex_holds_facet_masks_and_derives_the_names():
    c = cx("abcd", "abc", "bd")
    assert c.masks == {0b0111, 0b1010}
    assert c.facets == {fs("a", "b", "c"), fs("b", "d")}
    assert c == Complex(("a", "b", "c", "d"), frozenset({0b0111, 0b1010}))
    assert hash(c) == hash(Complex(c.ground, frozenset({0b1010, 0b0111})))


# -- faces / vertices ----------------------------------------------------------


def test_faces_of_edge():
    c = cx("ab", "ab")
    assert faces(c) == {fs(), fs("a"), fs("b"), fs("a", "b")}


def test_faces_of_void_is_empty():
    assert faces(void_complex("ab")) == frozenset()


def test_faces_of_two_points():
    c = cx("ab", "a", "b")
    assert faces(c) == {fs(), fs("a"), fs("b")}


def test_faces_matches_subset_scan_oracle():
    c = cx("abcd", "abc", "bd")
    assert set(faces(c)) == brute_faces(c)


def test_vertices():
    c = cx("abcd", "ab", "c")
    assert vertices(c) == fs("a", "b", "c")
    assert vertices(irrelevant_complex("ab")) == frozenset()
    assert vertices(void_complex("ab")) == frozenset()


# -- deletion / link -------------------------------------------------------------


def test_deletion_and_link_of_path_complex():
    c = cx("abc", "ab", "bc")
    assert equals(deletion(c, "b"), cx("ac", "a", "c"))
    assert equals(link(c, "b"), cx("ac", "a", "c"))
    assert deletion(c, "b").ground == ("a", "c")


def test_link_of_independence_complex_center():
    # link at the middle vertex of {ac, b}: only the empty face survives
    c = cx("abc", "ac", "b")
    result = link(c, "b")
    assert result.is_irrelevant
    assert result.ground == ("a", "c")
    # oracle: faces sigma with b not in sigma and sigma + {b} a face
    faces = brute_faces(c)
    expected = {s for s in faces if "b" not in s and (s | {"b"}) in faces}
    assert brute_faces(result) == expected


def maximal_deletion(c, x):
    """Oracle: drop x from every facet, then keep the inclusion-maximal sets."""
    return new_complex(
        tuple(e for e in c.ground if e != x), frozenset_maximal(f - {x} for f in c.facets)
    )


def frozenset_link(c, x):
    """Oracle: the link on frozensets of names, as before the mask kernel."""
    c.index(x)
    ground = tuple(e for e in c.ground if e != x)
    return new_complex(ground, (facet - {x} for facet in c.facets if x in facet))


def cone_apexes(c):
    """Vertices lying in every facet; nonempty iff the complex is a cone.

    The void and irrelevant complexes have no vertices and are not cones.
    """
    return face_of(meet_mask(c.masks), c.ground)


def frozenset_cone_apexes(c):
    """Oracle: the intersection of the facets, on frozensets of names."""
    return frozenset.intersection(*c.facets) if c.facets else frozenset()


def every_kept_maximal_masks(masks):
    """Oracle: maximal_masks as it was, testing each mask against every kept one."""
    kept = []
    for f in sorted(set(masks), key=int.bit_count, reverse=True):
        if not any(f & g == f for g in kept):
            kept.append(f)
    return frozenset(kept)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**7 - 1), max_size=40))
def test_maximal_masks_matches_the_every_kept_oracle(masks):
    # duplicates and the empty mask included; the frozensets are built from the
    # same sequence, so they also iterate in the same order
    got, want = maximal_masks(masks), every_kept_maximal_masks(masks)
    assert got == want
    assert list(got) == list(want)


def scan_deletion_masks(masks, a):
    """Oracle: deletion_masks as it was, testing each cut face against every
    facet avoiding a."""
    away = [f for f in masks if not f & a]
    cut = [f ^ a for f in masks if f & a]
    return frozenset(away).union(f for f in cut if not any(f & g == f for g in away))


# up to 8 bits: non-pure, non-antichain, duplicates and the empty mask all occur
mask_lists = st.lists(st.integers(min_value=0, max_value=2**8 - 1), max_size=30)


@settings(max_examples=300, deadline=None)
@given(mask_lists, st.integers(min_value=0, max_value=2**8 - 1))
def test_holders_match_the_scan(family, m):
    held = holders(family)
    for x in family + [0, m]:
        assert sorted(held(x)) == sorted(g for g in set(family) if g & x == x)


@settings(max_examples=300, deadline=None)
@given(mask_lists, st.integers(min_value=0, max_value=7))
def test_deletion_masks_match_the_scan_in_iteration_order(masks, i):
    masks = frozenset(masks)
    got, want = deletion_masks(masks, 1 << i), scan_deletion_masks(masks, 1 << i)
    assert got == want
    assert list(got) == list(want)
    if masks == maximal_masks(masks):
        c = Complex(tuple("abcdefgh"), masks)
        assert deletion(c, "abcdefgh"[i]) == maximal_deletion(c, "abcdefgh"[i])


def test_only_a_holder_two_or_more_bits_larger_still_holds():
    # bcd is the only facet holding b, b's one-bit extensions bc and bd are
    # not facets, so only the scan of larger facets finds it
    assert deletion(cx("abcd", "ab", "bcd"), "a") == cx("bcd", "bcd")
    assert list(holders([0b1110, 0b0101])(0b0010)) == [0b1110]
    assert maximal_masks([0b0010, 0b1110]) == {0b1110}
    assert maximal_masks([0b0001, 0b1111, 0b0110]) == {0b1111}


def test_deletion_matches_the_maximal_oracle_on_every_small_complex():
    for c in enumerate_complexes("abcd"):
        for x in c.ground:
            assert deletion(c, x) == maximal_deletion(c, x)


def test_mask_kernel_matches_the_frozenset_oracles_on_every_small_complex():
    for c in list(enumerate_complexes("abcd")) + [cycle_complex(5), cx("dcba", "ab", "bcd")]:
        assert cone_apexes(c) == frozenset_cone_apexes(c)
        for x in c.ground:
            assert link(c, x) == frozenset_link(c, x)


def test_deletion_link_require_ground_element():
    c = cx("ab", "ab")
    with pytest.raises(InputError):
        deletion(c, "z")
    with pytest.raises(InputError):
        link(c, "z")


def test_link_of_nonvertex_is_void():
    c = cx("abc", "ab")
    assert link(c, "c").is_void


# -- cones -------------------------------------------------------------------------


def test_cone_apexes_simple():
    assert cone_apexes(cx("abc", "ab", "ac")) == fs("a")
    assert cone_apexes(cx("ab", "a")) == fs("a")


def test_five_cycle_is_not_a_cone():
    c5 = cycle_complex(5)
    # oracle: no vertex lies in all five edge facets
    assert not any(
        all(v in f for f in c5.facets) for v in vertices(c5)
    )
    assert cone_apexes(c5) == frozenset()


def test_void_and_irrelevant_are_not_cones():
    assert cone_apexes(void_complex("ab")) == frozenset()
    assert cone_apexes(irrelevant_complex("ab")) == frozenset()


# -- minimal non-faces and the dual --------------------------------------------------


def test_minimal_nonfaces_of_five_cycle_are_the_diagonals():
    c5 = cycle_complex(5)
    expected = {fs("a", "c"), fs("a", "d"), fs("b", "d"), fs("b", "e"), fs("c", "e")}
    assert minimal_nonfaces(c5) == expected
    assert brute_minimal_nonfaces(c5) == expected


def test_minimal_nonfaces_of_full_simplex_is_empty():
    assert minimal_nonfaces(full_simplex("abc")) == frozenset()


def test_minimal_nonfaces_of_void():
    assert minimal_nonfaces(void_complex("ab")) == {frozenset()}


def test_dual_of_void_is_full_simplex():
    assert equals(alexander_dual(void_complex("abc")), full_simplex("abc"))


def test_dual_of_irrelevant_is_simplex_boundary():
    assert equals(alexander_dual(irrelevant_complex("abc")), simplex_boundary("abc"))


def test_dual_of_two_points_on_two_elements_is_irrelevant():
    c = cx("ab", "a", "b")
    assert alexander_dual(c).is_irrelevant


def test_dual_matches_brute_force_face_test():
    for c in (
        cx("abcd", "abc", "bd"),
        cycle_complex(5),
        cx("abc", "a"),
        void_complex("abc"),
        irrelevant_complex("abc"),
    ):
        assert brute_faces(alexander_dual(c)) == brute_dual_faces(c)


def test_dual_depends_on_ground_set():
    small = alexander_dual(cx("ab", "a"))
    big = alexander_dual(cx("abc", "a"))
    assert small.facets != big.facets


# -- ground plumbing ------------------------------------------------------------------


def test_restrict_ground():
    c = cx("ab", "a")
    r = restrict_ground(c)
    assert r.ground == ("a",)
    assert r.facets == c.facets
    assert restrict_ground(void_complex("ab")).ground == ()
    # nothing to drop: the argument itself comes back
    for full in (cx("ab", "ab"), cx("abc", "ab", "bc"), void_complex(), cx("", "")):
        assert restrict_ground(full) is full
    # a non-vertex between vertices: the bits above it move down one place
    r = restrict_ground(cx("abcd", "ac", "d"))
    assert r.ground == ("a", "c", "d") and r.masks == frozenset({0b011, 0b100})


def test_is_subcomplex_link_in_deletion():
    for c in (cx("abc", "ab", "bc"), cycle_complex(4), cx("abc", "abc")):
        for a in c.ground:
            assert is_subcomplex(link(c, a), deletion(c, a))


def test_is_subcomplex_requires_equal_grounds():
    with pytest.raises(InputError):
        is_subcomplex(cx("ab", "a"), cx("abc", "a"))


def test_double_dual_on_all_small_complexes():
    for ground in ("", "a", "ab", "abc", "abcd"):
        for c in enumerate_complexes(ground):
            assert equals(alexander_dual(alexander_dual(c)), c)


# -- JSON ------------------------------------------------------------------------------


def test_json_round_trip():
    c = cx("abc", "ab", "c")
    data = complex_to_json(c)
    assert data == {"ground": ["a", "b", "c"], "facets": [["c"], ["a", "b"]]}
    assert equals(complex_from_json(data), c)


@settings(max_examples=200, deadline=None)
@given(st.frozensets(st.integers(min_value=0, max_value=2**15 - 1), max_size=40))
def test_sorted_rows_match_the_bit_scan(masks):
    scanned = [tuple(i for i in range(m.bit_length()) if m >> i & 1) for m in masks]
    ground = tuple(f"x{i}" for i in range(15))
    rows = [[ground[i] for i in row] for row in sorted(scanned, key=lambda row: (len(row), row))]
    assert complex_to_json(Complex(ground, masks))["facets"] == rows


def test_json_void_and_irrelevant_encoding():
    assert complex_to_json(void_complex("ab"))["facets"] == []
    assert complex_to_json(irrelevant_complex("ab"))["facets"] == [[]]
    assert complex_from_json({"ground": ["a"], "facets": []}).is_void
    assert complex_from_json({"ground": ["a"], "facets": [[]]}).is_irrelevant


OBJECT = "complex JSON must be an object"
GROUND = 'complex JSON needs a "ground" array of strings'
FACETS = 'complex JSON needs a "facets" array of arrays'
ENTRIES = "facet entries must be strings"
NONEMPTY = "ground elements must be nonempty strings"
DISTINCT = "ground elements must be pairwise distinct"


@pytest.mark.parametrize("data, message", [
    ([1, 2], OBJECT),
    ("ab", OBJECT),
    ({}, GROUND),
    ({"ground": "ab", "facets": []}, GROUND),
    ({"ground": ["a", 1], "facets": []}, GROUND),
    ({"ground": ["a", None], "facets": [[1]]}, GROUND),
    ({"ground": ["a", ""], "facets": []}, NONEMPTY),
    ({"ground": ["", ""], "facets": [["b"]]}, NONEMPTY),
    ({"ground": ["a", "a"], "facets": []}, DISTINCT),
    ({"ground": ["a", "a"], "facets": [["b"]]}, DISTINCT),
    ({"ground": ["a"]}, FACETS),
    ({"ground": ["a"], "facets": "a"}, FACETS),
    ({"ground": ["a"], "facets": ["a"]}, FACETS),
    ({"ground": ["a"], "facets": [["a"], "a"]}, FACETS),
    ({"ground": ["a", "a"], "facets": [["a"], ("a",)]}, FACETS),
    ({"ground": ["a"], "facets": [[1]]}, ENTRIES),
    ({"ground": ["a"], "facets": [["a", None]]}, ENTRIES),
    ({"ground": ["a"], "facets": [[True]]}, ENTRIES),
    ({"ground": ["a"], "facets": [[["a"]]]}, ENTRIES),
    ({"ground": ["a"], "facets": [[{"a": 1}]]}, ENTRIES),
    ({"ground": ["a", ""], "facets": [[1]]}, ENTRIES),
    ({"ground": ["a"], "facets": [["b"]]}, "facet uses unknown ground elements: ['b']"),
    ({"ground": ["a"], "facets": [["c", "a", "b"]]},
     "facet uses unknown ground elements: ['b', 'c']"),
    # a non-string anywhere wins over an unknown name
    ({"ground": ["a"], "facets": [["b", 1]]}, ENTRIES),
    ({"ground": ["a"], "facets": [["b"], [1]]}, ENTRIES),
])
def test_json_rejects_malformed_input(data, message):
    with pytest.raises(InputError) as raised:
        complex_from_json(data)
    assert str(raised.value) == message


def test_json_absorbs_repeated_and_smaller_faces():
    data = {"ground": ["a", "b", "c"], "facets": [["a"], ["b", "a", "a"], ["a", "b"], [], ["c"]]}
    assert complex_from_json(data) == Complex(("a", "b", "c"), frozenset({0b011, 0b100}))


# -- enumeration ------------------------------------------------------------------------


def test_enumerate_complexes_counts():
    # numbers of antichains in the boolean lattice (Dedekind numbers)
    expected = {0: 2, 1: 3, 2: 6, 3: 20, 4: 168}
    for n, count in expected.items():
        ground = "abcd"[:n]
        assert sum(1 for _ in enumerate_complexes(ground)) == count
