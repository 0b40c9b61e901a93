"""Elementary collapse machinery: free pairs, search, lifting, suspension."""

import inspect
import sys

import pytest

from grapes import (
    CollapsePair,
    ReplayError,
    apply_collapse,
    collapse_search,
    cone_over,
    free_pairs,
    full_simplex,
    irrelevant_complex,
    lifted_collapse,
    link,
    deletion,
    new_complex,
    reduced_homology,
    replay,
    simplex_boundary,
    suspension,
    suspension_transport,
    void_complex,
)
from grapes.collapse import cone_sequence, sequence_from_json, sequence_to_json
from grapes.generators import cycle_complex


def fs(*names):
    return frozenset(names)


def cx(ground, *facets):
    return new_complex(ground, [frozenset(f) for f in facets])


POINT = cx("v", "v")
TWO_POINTS = cx("ab", "a", "b")
EDGE = cx("ab", "ab")


def test_free_pairs_of_point_includes_empty_face():
    assert free_pairs(POINT) == [CollapsePair(fs("v"), fs())]


def test_two_points_have_no_free_pairs():
    # the empty face is contained in both vertices
    assert free_pairs(TWO_POINTS) == []


def test_free_pairs_of_edge():
    pairs = free_pairs(EDGE)
    assert set(pairs) == {
        CollapsePair(fs("a", "b"), fs("a")),
        CollapsePair(fs("a", "b"), fs("b")),
    }


def test_apply_collapse_edge_to_point():
    result = apply_collapse(EDGE, CollapsePair(fs("a", "b"), fs("b")))
    assert result.facets == {fs("a")}


def test_apply_collapse_point_to_void():
    assert apply_collapse(POINT, CollapsePair(fs("v"), fs())).is_void


def test_apply_collapse_path_step():
    path = cx("abc", "ab", "bc")
    result = apply_collapse(path, CollapsePair(fs("a", "b"), fs("a")))
    assert result.facets == {fs("b", "c")}


def test_apply_collapse_rejects_non_free_pair():
    with pytest.raises(ReplayError):
        apply_collapse(TWO_POINTS, CollapsePair(fs("a"), fs()))
    with pytest.raises(ReplayError):
        apply_collapse(EDGE, CollapsePair(fs("a"), fs()))


def test_collapse_pair_shape_is_validated():
    with pytest.raises(ReplayError):
        CollapsePair(fs("a", "b"), fs("c"))
    with pytest.raises(ReplayError):
        CollapsePair(fs("a", "b"), fs())


# -- search --------------------------------------------------------------------


def test_search_on_void_succeeds_immediately():
    result = collapse_search(void_complex("ab"))
    assert result.is_yes and result.sequence == ()


def test_point_collapses_to_void():
    result = collapse_search(POINT)
    assert result.is_yes
    assert replay(POINT, result.sequence).is_void


def test_two_points_definitively_not_collapsible():
    assert collapse_search(TWO_POINTS, exhaustive=True).verdict == "no"
    # greedy mode never claims "no"
    assert collapse_search(TWO_POINTS, exhaustive=False).verdict == "unknown"


def test_irrelevant_complex_not_collapsible():
    assert collapse_search(irrelevant_complex("a"), exhaustive=True).verdict == "no"


@pytest.mark.parametrize(
    "base",
    [
        irrelevant_complex(()),
        cx("ab", "a", "b"),
        cycle_complex(5),
        cx("abcd", "abc", "bd"),
        full_simplex("abcde"),
        simplex_boundary("abcdefg"),
    ],
)
def test_every_cone_collapses_within_small_budget(base):
    cone = cone_over(base, "zz")
    budget = 10 * max(1, len(cone.faces()))
    result = collapse_search(cone, budget=budget)
    assert result.is_yes
    assert replay(cone, result.sequence).is_void


def test_two_route_path_free_complex_collapses():
    pf = cx(
        "ABCDEF",
        "AECD",
        "FBCD",
        "AFD",
        "BEC",
    )
    result = collapse_search(pf, exhaustive=True)
    assert result.is_yes
    assert replay(pf, result.sequence).is_void


def test_budget_exhaustion_reports_unknown():
    # collapsible but not a cone, so the search must actually recurse
    pf = cx("ABCDEF", "AECD", "FBCD", "AFD", "BEC")
    result = collapse_search(pf, budget=1, exhaustive=True)
    assert result.verdict == "unknown"


def test_five_cycle_is_not_collapsible():
    assert collapse_search(cycle_complex(5), exhaustive=True).verdict == "no"


def test_collapsible_implies_trivial_homology():
    for c in (POINT, EDGE, cx("abc", "ab", "bc"), full_simplex("abcd")):
        result = collapse_search(c, exhaustive=True)
        assert result.is_yes
        assert reduced_homology(c).is_trivial()


def test_long_path_collapses_under_a_low_recursion_limit():
    names = [f"v{i}" for i in range(1, 251)]
    path = new_complex(names, [frozenset(p) for p in zip(names, names[1:])])
    limit = sys.getrecursionlimit()
    # well below the 247 nested calls a recursive search would need
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        result = collapse_search(path)
    finally:
        sys.setrecursionlimit(limit)
    assert result.is_yes
    assert replay(path, result.sequence).is_void


def test_search_is_deterministic():
    c = cx("abcd", "abc", "bd")
    first = collapse_search(c, exhaustive=True)
    second = collapse_search(c, exhaustive=True)
    assert first == second


def test_cone_sequence_requires_cone():
    with pytest.raises(ReplayError):
        cone_sequence(TWO_POINTS)


# -- lifted collapse --------------------------------------------------------------


def test_lifted_collapse_smallest_instance():
    c = cx("av", "av")
    lk = link(c, "a")
    assert lk.facets == {fs("v")}
    lifted = lifted_collapse(c, "a", [CollapsePair(fs("v"), fs())])
    assert lifted == (CollapsePair(fs("a", "v"), fs("a")),)
    assert replay(c, lifted).facets == {fs("v")}


def test_lifted_collapse_on_independence_complex():
    c = cx("abc", "ac", "b")
    result = collapse_search(link(c, "c"), exhaustive=True)
    assert result.is_yes
    lifted = lifted_collapse(c, "c", result.sequence)
    assert replay(c, lifted).facets == deletion(c, "c").facets == {fs("a"), fs("b")}


def test_lifted_collapse_on_full_triangle():
    c = full_simplex("abc")
    result = collapse_search(link(c, "a"), exhaustive=True)
    assert result.is_yes and len(result.sequence) == 2
    lifted = lifted_collapse(c, "a", result.sequence)
    assert replay(c, lifted).facets == {fs("b", "c")}


def test_lifted_collapse_rejects_invalid_link_sequence():
    c = cx("abc", "ab", "bc")
    with pytest.raises(ReplayError):
        lifted_collapse(c, "b", [CollapsePair(fs("a"), fs())])


# -- suspension transport -----------------------------------------------------------


@pytest.mark.parametrize(
    "base",
    [
        POINT,
        EDGE,
        cone_over(cycle_complex(5), "z"),
    ],
)
def test_suspension_transport(base):
    result = collapse_search(base, exhaustive=True)
    assert result.is_yes
    transported = suspension_transport(base, "s1", "s2", result)
    assert transported.is_yes
    susp = suspension(base, "s1", "s2")
    assert replay(susp, transported.sequence).is_void


def test_suspension_of_point_is_two_edge_path():
    susp = suspension(POINT, "x", "y")
    assert susp.facets == {fs("v", "x"), fs("v", "y")}
    result = collapse_search(susp, exhaustive=True)
    assert result.is_yes


def test_suspension_transport_needs_yes_verdict():
    bad = collapse_search(TWO_POINTS, exhaustive=True)
    with pytest.raises(ReplayError):
        suspension_transport(TWO_POINTS, "x", "y", bad)


# -- JSON -----------------------------------------------------------------------------


def test_sequence_json_round_trip():
    result = collapse_search(cx("abc", "ab", "bc"), exhaustive=True)
    data = sequence_to_json(result.sequence)
    assert sequence_from_json(data) == result.sequence
    assert all(set(step) == {"sigma", "tau"} for step in data["steps"])
