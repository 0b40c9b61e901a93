"""Elementary collapse machinery: free pairs, search, lifting, suspension.

The search and replay on names that the mask kernel replaced are kept here
as oracles; the kernel must give the same pairs, sequences, node counts and
replay errors.
"""

import inspect
import string
import sys

import pytest
from hypothesis import given, settings, strategies as st

from grapes import (
    CollapsePair,
    ReplayError,
    collapse_search,
    cone_over,
    full_simplex,
    irrelevant_complex,
    lifted_collapse,
    link,
    deletion,
    enumerate_complexes,
    new_complex,
    reduced_homology,
    replay,
    simplex_boundary,
    suspension,
    void_complex,
)
from grapes.collapse import (
    ShvResult,
    _free_pairs,
    cone_steps,
    named_steps,
    sequence_from_json,
    sequence_to_json,
)
from grapes.complexes import mask_order, meet_mask
from grapes.generators import cycle_complex
from test_complexes import frozenset_cone_apexes, maximal_deletion


def fs(*names):
    return frozenset(names)


def cx(ground, *facets):
    return new_complex(ground, [frozenset(f) for f in facets])


def free_pairs(c):
    """All free pairs by name, in the order the search tries them."""
    return list(named_steps([(s, t) for s, t, _ in _free_pairs(c.masks, mask_order)], c.ground))


def apply_collapse(c, pair):
    """Remove a free pair; raises ReplayError if the pair is not free in c."""
    return replay(c, (pair,))


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


# -- the frozenset oracles ------------------------------------------------------


def face_key(c, face):
    """Sort key for a face by name: its ground indices, ascending."""
    return tuple(sorted(c.index(x) for x in face))


def cone_sequence(c):
    """Canonical collapse of a cone to void (see cone_steps), by name."""
    apexes = meet_mask(c.masks)
    if not apexes:
        raise ReplayError("cone_sequence requires a cone")
    return list(named_steps(cone_steps(c.masks, apexes & -apexes), c.ground))


def frozenset_free_pairs(c):
    out = []
    for sigma in c.facets:
        if not sigma:
            continue
        for y in sigma:
            tau = sigma - {y}
            if not any(tau <= other for other in c.facets if other != sigma):
                out.append(CollapsePair(sigma, tau))
    out.sort(key=lambda p: (-len(p.sigma), face_key(c, p.sigma), face_key(c, p.tau)))
    return out


def frozenset_apply_collapse(c, pair):
    sigma, tau = pair.sigma, pair.tau
    if sigma not in c.facets:
        raise ReplayError(f"{sorted(sigma)} is not a facet")
    if any(tau <= other for other in c.facets if other != sigma):
        raise ReplayError(f"{sorted(tau)} is contained in another face")
    rest = [f for f in c.facets if f != sigma]
    new_facets = list(rest)
    for y in sigma:
        candidate = sigma - {y}
        if candidate != tau and not any(candidate <= f for f in rest):
            new_facets.append(candidate)
    return new_complex(c.ground, new_facets)


def frozenset_replay(c, sequence):
    for pair in sequence:
        c = frozenset_apply_collapse(c, pair)
    return c


def frozenset_cone_sequence(c):
    apexes = frozenset_cone_apexes(c)
    if not apexes:
        raise ReplayError("cone_sequence requires a cone")
    apex = min(apexes, key=c.index)
    base_faces = sorted(maximal_deletion(c, apex).faces(), key=lambda f: (-len(f), face_key(c, f)))
    return [CollapsePair(f | {apex}, f) for f in base_faces]


def frozenset_collapse_search(c, budget=10**6, exhaustive=False):
    nodes = 0
    failed = set()
    stack = []
    steps = []
    cur = c
    while cur is not None:
        nodes += 1
        if nodes > budget:
            return ShvResult("unknown", None, nodes)
        if cur.is_void or frozenset_cone_apexes(cur):
            if not cur.is_void:
                steps.extend(frozenset_cone_sequence(cur))
            if not frozenset_replay(c, steps).is_void:
                raise ReplayError("search produced a sequence that does not replay")
            return ShvResult("yes", tuple(steps), nodes)
        dead = exhaustive and cur.facets in failed
        stack.append((cur, iter(() if dead else frozenset_free_pairs(cur))))
        cur = None
        while stack and cur is None:
            top, pairs = stack[-1]
            pair = next(pairs, None)
            if pair is None:
                stack.pop()
                if exhaustive:
                    failed.add(top.facets)
                if stack:
                    steps.pop()
            else:
                steps.append(pair)
                cur = frozenset_apply_collapse(top, pair)
    return ShvResult("no", None, nodes)


def replay_outcome(replay_fn, c, sequence):
    """The replayed facets, or the ReplayError message."""
    try:
        return replay_fn(c, sequence).facets
    except ReplayError as exc:
        return str(exc)


def assert_search_matches_the_oracle(c, budget=10**6):
    for exhaustive in (False, True):
        for budget in (budget, 3):
            got = collapse_search(c, budget, exhaustive)
            assert got == frozenset_collapse_search(c, budget, exhaustive)
    assert free_pairs(c) == frozenset_free_pairs(c)
    if frozenset_cone_apexes(c):
        assert cone_sequence(c) == frozenset_cone_sequence(c)


def wrong_steps(c):
    """Collapse sequences that go wrong somewhere, by name."""
    ground = sorted(c.ground)
    yield [CollapsePair(fs("zz", ground[0]), fs(ground[0]))]
    yield [CollapsePair(fs(*ground[:2]), fs(ground[0]))] if len(ground) > 1 else []
    for pair in frozenset_free_pairs(c)[:3]:
        rest = frozenset_apply_collapse(c, pair)
        yield [pair, pair]
        yield [pair, CollapsePair(pair.sigma | {"zz"}, pair.sigma)]
        yield [pair] + frozenset_free_pairs(rest)[:1] + [CollapsePair(fs("zz"), fs())]


def test_search_and_replay_match_the_frozenset_oracle_on_every_small_complex():
    for c in list(enumerate_complexes("abcd")) + [cycle_complex(5), cx("dcba", "ab", "bcd")]:
        assert_search_matches_the_oracle(c)
        for sequence in wrong_steps(c):
            assert replay_outcome(replay, c, sequence) == replay_outcome(frozenset_replay, c, sequence)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=7).flatmap(
        lambda n: st.tuples(
            st.just(tuple(string.ascii_lowercase[:n])),
            st.lists(st.sets(st.integers(0, n - 1), max_size=4), max_size=6),
        )
    )
)
def test_search_matches_the_frozenset_oracle(case):
    ground, faces = case
    c = new_complex(ground, [frozenset(ground[i] for i in f) for f in faces])
    assert_search_matches_the_oracle(c, budget=2000)


def test_face_key_order_is_not_integer_order():
    # {a, d} (mask 9) comes before {b, c} (mask 6): lexicographic on indices
    c = cx("abcd", "ad", "bc")
    assert free_pairs(c)[0].sigma == fs("a", "d")


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
    # greedy mode searches the whole tree too, so it ends in "no" as well
    assert collapse_search(TWO_POINTS, exhaustive=False).verdict == "no"


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
    # the s2-cone onto the s1-cone, the s1-cone onto c, then c itself: the
    # sequence of c three times
    seq = collapse_search(base, exhaustive=True).sequence
    lifted_y = tuple(CollapsePair(p.sigma | {"s2"}, p.tau | {"s2"}) for p in seq)
    lifted_x = tuple(CollapsePair(p.sigma | {"s1"}, p.tau | {"s1"}) for p in seq)
    assert replay(suspension(base, "s1", "s2"), lifted_y + lifted_x + seq).is_void


def test_suspension_of_point_is_two_edge_path():
    susp = suspension(POINT, "x", "y")
    assert susp.facets == {fs("v", "x"), fs("v", "y")}
    result = collapse_search(susp, exhaustive=True)
    assert result.is_yes


# -- JSON -----------------------------------------------------------------------------


def test_sequence_json_round_trip():
    result = collapse_search(cx("abc", "ab", "bc"), exhaustive=True)
    data = sequence_to_json(result.sequence)
    assert sequence_from_json(data) == result.sequence
    assert all(set(step) == {"sigma", "tau"} for step in data["steps"])
