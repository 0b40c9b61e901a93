"""Elementary collapse machinery: free pairs, search, lifting, suspension.

The search and replay on names that the mask kernel replaced are kept here
as oracles; the kernel must give the same pairs, sequences, node counts,
obstructions and replay errors.  A sequence by name reaches the kernel as
the CLI's do: through its JSON reader, which refuses a malformed step, and
then replay on masks.  The oracle search without the homology
rule is kept too, to show that the rule refutes no collapsible complex, and
so is the search without the memo of failed face sets, to show that the
memo changes no conclusion and never costs a node.
"""

import inspect
import json
import string
import sys

import pytest
from hypothesis import assume, given, settings, strategies as st

import grapes.collapse
from grapes import (
    InputError,
    ReplayError,
    collapse_search,
    irrelevant_complex,
    lifted_collapse,
    link,
    deletion,
    enumerate_complexes,
    new_complex,
    reduced_homology,
    replay,
    void_complex,
)
from grapes.collapse import (
    ShvResult,
    _free_pairs,
    cone_steps,
    sequence_from_json,
    steps_to_json,
)
from grapes.complexes import Complex, bit_table, face_of, mask_order, meet_mask
from grapes.generators import cycle_complex
from shapes import cone, cx, faces, fs, full_simplex, simplex_boundary, suspension
from test_complexes import frozenset_cone_apexes, maximal_deletion
from test_homology import RP2, oracle_reduced_homology


def step(sigma, tau):
    """A collapse step by name, in its wire form."""
    return {"sigma": sorted(sigma), "tau": sorted(tau)}


def free_pairs(c):
    """All free pairs by name, in the order the search tries them."""
    return steps_to_json([(s, t) for s, t, _ in _free_pairs(c.masks, mask_order)], c.ground)["steps"]


def read(c, sequence):
    """A sequence by name read against c: c on its ground widened by the
    names outside it, as the reader numbers them, and the mask steps."""
    bit = bit_table(c.ground)
    steps = sequence_from_json(sequence, bit)
    return Complex(tuple(bit), c.masks), steps


def wire_replay(c, sequence):
    """Replay of a sequence by name: the reader, then replay on masks."""
    return Complex(c.ground, replay(*read(c, sequence)).masks)


def by_name(c, result):
    """A search result with its sequence written by name."""
    return result if result.sequence is None else result._replace(
        sequence=steps_to_json(result.sequence, c.ground))


def apply_collapse(c, pair):
    """Remove a free pair; raises ReplayError if the pair is not free in c."""
    return wire_replay(c, {"steps": [pair]})


POINT = cx("v", "v")
TWO_POINTS = cx("ab", "a", "b")
EDGE = cx("ab", "ab")


def test_free_pairs_of_point_includes_empty_face():
    assert free_pairs(POINT) == [step("v", "")]


def test_two_points_have_no_free_pairs():
    # the empty face is contained in both vertices
    assert free_pairs(TWO_POINTS) == []


def test_free_pairs_of_edge():
    pairs = free_pairs(EDGE)
    assert sorted(pairs, key=lambda p: p["tau"]) == [step("ab", "a"), step("ab", "b")]


def test_apply_collapse_edge_to_point():
    result = apply_collapse(EDGE, step("ab", "b"))
    assert result.facets == {fs("a")}


def test_apply_collapse_point_to_void():
    assert apply_collapse(POINT, step("v", "")).is_void


def test_apply_collapse_path_step():
    path = cx("abc", "ab", "bc")
    result = apply_collapse(path, step("ab", "a"))
    assert result.facets == {fs("b", "c")}


def test_apply_collapse_rejects_non_free_pair():
    with pytest.raises(ReplayError):
        apply_collapse(TWO_POINTS, step("a", ""))
    with pytest.raises(ReplayError):
        apply_collapse(EDGE, step("a", ""))


def test_collapse_pair_shape_is_validated():
    for tau in (["c"], []):
        with pytest.raises(InputError, match="codimension-1 subface"):
            sequence_from_json({"steps": [{"sigma": ["a", "b"], "tau": tau}]}, bit_table("ab"))


def test_replay_refuses_a_name_outside_the_ground_and_a_tau_off_sigma():
    # a name outside the ground reads as a bit above it, which replay finds
    # in no facet; a tau off sigma is refused by the reader, before any
    # step replays
    c = cx("abc", "ab", "c")
    with pytest.raises(ReplayError, match=r"^\['a', 'z'\] is not a facet$"):
        wire_replay(c, {"steps": [step("az", "a")]})
    for steps in ([step("ab", tau)] for tau in ("z", "c", "ab", "")):
        with pytest.raises(InputError, match="^collapse pair needs tau a codimension-1 subface"):
            wire_replay(c, {"steps": steps})
    with pytest.raises(InputError, match="^collapse pair needs tau a codimension-1 subface"):
        wire_replay(c, {"steps": [step("ab", "a"), step("c", "z")]})


# -- the frozenset oracles ------------------------------------------------------


def face_key(c, face):
    """Sort key for a face by name: its ground indices, ascending."""
    return tuple(sorted(c.index(x) for x in face))


def cone_sequence(c):
    """Canonical collapse of a cone to void (see cone_steps), by name."""
    apexes = meet_mask(c.masks)
    if not apexes:
        raise ReplayError("cone_sequence requires a cone")
    return steps_to_json(cone_steps(c.masks, apexes & -apexes), c.ground)["steps"]


def frozenset_free_pairs(c):
    out = []
    for sigma in c.facets:
        if not sigma:
            continue
        for y in sigma:
            tau = sigma - {y}
            if not any(tau <= other for other in c.facets if other != sigma):
                out.append((sigma, tau))
    out.sort(key=lambda p: (-len(p[0]), face_key(c, p[0]), face_key(c, p[1])))
    return [step(sigma, tau) for sigma, tau in out]


def frozenset_apply_collapse(c, pair):
    sigma, tau = frozenset(pair["sigma"]), frozenset(pair["tau"])
    if not sigma <= set(c.ground):
        raise ReplayError(f"{sorted(sigma)} is not a facet")
    if not (tau < sigma and len(tau) == len(sigma) - 1):
        raise ReplayError(f"{sorted(tau)} is not a codimension-1 face of {sorted(sigma)}")
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
    for pair in sequence["steps"]:
        c = frozenset_apply_collapse(c, pair)
    return c


def frozenset_cone_sequence(c):
    apexes = frozenset_cone_apexes(c)
    if not apexes:
        raise ReplayError("cone_sequence requires a cone")
    apex = min(apexes, key=c.index)
    base_faces = sorted(faces(maximal_deletion(c, apex)), key=lambda f: (-len(f), face_key(c, f)))
    return [step(f | {apex}, f) for f in base_faces]


def frozenset_collapse_search(c, budget=10**6, memo=True, obstruction=True):
    """collapse_search on frozensets; with obstruction off, the search alone,
    as search_masks runs it; with memo off, a search that expands a face set
    again each time a collapse order reaches it."""
    if obstruction and c.facets and not frozenset_cone_apexes(c):
        profile = oracle_reduced_homology(c)
        if not profile.is_trivial():
            return ShvResult("no", None, 1, profile)
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
            if not frozenset_replay(c, {"steps": steps}).is_void:
                raise ReplayError("search produced a sequence that does not replay")
            return ShvResult("yes", {"steps": steps}, nodes)
        dead = memo and cur.facets in failed
        stack.append((cur, iter(() if dead else frozenset_free_pairs(cur))))
        cur = None
        while stack and cur is None:
            top, pairs = stack[-1]
            pair = next(pairs, None)
            if pair is None:
                stack.pop()
                if memo:
                    failed.add(top.facets)
                if stack:
                    steps.pop()
            else:
                steps.append(pair)
                cur = frozenset_apply_collapse(top, pair)
    return ShvResult("no", None, nodes)


def replay_outcome(replay_fn, c, sequence):
    """The replayed facets, the ReplayError message, or the InputError by
    which the reader refuses a step."""
    try:
        return replay_fn(c, sequence).facets
    except ReplayError as exc:
        return str(exc)
    except InputError as exc:
        return ("refused", str(exc))


def assert_search_matches_the_oracle(c, budget=10**6):
    for nodes in (3, budget):
        got = by_name(c, collapse_search(c, nodes))
        assert got == frozenset_collapse_search(c, nodes)
        # wherever the search without the memo concludes, it concludes the
        # same, with the same sequence, and spends at least as many nodes
        plain = frozenset_collapse_search(c, nodes, memo=False)
        if plain.verdict != "unknown":
            assert (got.verdict, got.sequence) == (plain.verdict, plain.sequence)
            assert got.nodes <= plain.nodes
    # the search without the homology rule never collapses what the rule
    # refutes, and whatever it collapses is acyclic
    searched = frozenset_collapse_search(c, budget, obstruction=False)
    assert got.obstruction is None or not searched.is_yes
    assert not searched.is_yes or oracle_reduced_homology(c).is_trivial()
    assert free_pairs(c) == frozenset_free_pairs(c)
    if frozenset_cone_apexes(c):
        assert cone_sequence(c) == frozenset_cone_sequence(c)


def wrong_steps(c):
    """Collapse sequences that go wrong somewhere, by name."""
    ground = sorted(c.ground)
    yield [step(["zz", ground[0]], [ground[0]])]
    yield [step(ground[:2], ground[:1])] if len(ground) > 1 else []
    yield [step(ground[:1], ["zz"]), step(ground[:2], ground[1:2])]
    for pair in frozenset_free_pairs(c)[:3]:
        rest = frozenset_apply_collapse(c, pair)
        yield [pair, pair]
        yield [pair, step(pair["sigma"] + ["zz"], pair["sigma"])]
        yield [pair, step(pair["sigma"], pair["sigma"][:-2] + ["zz"])]
        yield [pair] + frozenset_free_pairs(rest)[:1] + [step(["zz"], [])]


def test_search_and_replay_match_the_frozenset_oracle_on_every_small_complex():
    for c in list(enumerate_complexes("abcd")) + [cycle_complex(5), cx("dcba", "ab", "bcd")]:
        assert_search_matches_the_oracle(c)
        for sequence in wrong_steps(c):
            sequence = {"steps": sequence}
            got, want = (replay_outcome(f, c, sequence) for f in (wire_replay, frozenset_replay))
            if got == ("refused", "collapse pair needs tau a codimension-1 subface of sigma"):
                # the reader refuses, up front, the step the oracle fails at
                assert "is not a codimension-1 face of" in want
            else:
                assert got == want


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=7).flatmap(
        lambda n: st.tuples(
            st.just(tuple(string.ascii_lowercase[:n])),
            st.lists(st.sets(st.integers(0, n - 1), min_size=1, max_size=4), min_size=2, max_size=6),
        )
    )
)
def test_search_matches_the_frozenset_oracle(case):
    # a cone ends the search at its first node, and most draws are cones;
    # the draw less its cone apexes is none, and one facet would leave only
    # the irrelevant complex
    ground, faces = case
    c = new_complex(ground, [frozenset(ground[i] for i in f) for f in faces])
    apexes = face_of(meet_mask(c.masks), c.ground)
    c = new_complex(ground, [f - apexes for f in c.facets])
    assume(len(c.facets) > 1)
    assert_search_matches_the_oracle(c, budget=2000)


def test_face_key_order_is_not_integer_order():
    # {a, d} (mask 9) comes before {b, c} (mask 6): lexicographic on indices
    c = cx("abcd", "ad", "bc")
    assert free_pairs(c)[0]["sigma"] == ["a", "d"]


# -- search --------------------------------------------------------------------


def test_search_on_void_succeeds_immediately():
    result = collapse_search(void_complex("ab"))
    assert result.is_yes and result.sequence == ()


def test_point_collapses_to_void():
    result = collapse_search(POINT)
    assert result.is_yes
    assert replay(POINT, result.sequence).is_void


def test_two_points_definitively_not_collapsible():
    assert collapse_search(TWO_POINTS).verdict == "no"


def test_irrelevant_complex_not_collapsible():
    assert collapse_search(irrelevant_complex("a")).verdict == "no"


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
    c = cone(base, "zz")
    budget = 10 * max(1, len(faces(c)))
    result = collapse_search(c, budget=budget)
    assert result.is_yes
    assert replay(c, result.sequence).is_void


def test_two_route_path_free_complex_collapses():
    pf = cx(
        "ABCDEF",
        "AECD",
        "FBCD",
        "AFD",
        "BEC",
    )
    result = collapse_search(pf)
    assert result.is_yes
    assert replay(pf, result.sequence).is_void


def test_budget_exhaustion_reports_unknown():
    # collapsible but not a cone, so the search must actually recurse
    pf = cx("ABCDEF", "AECD", "FBCD", "AFD", "BEC")
    result = collapse_search(pf, budget=1)
    assert result.verdict == "unknown"


def test_five_cycle_is_not_collapsible():
    assert collapse_search(cycle_complex(5)).verdict == "no"


def dunce_hat():
    """A triangle whose sides are glued along one edge path 1-2-3-1, twice
    forward and once backward: contractible, and every edge lies in two or
    three triangles, so no collapse can start.  Around the boundary 9-gon
    (labels 1 2 3 1 2 3 1 3 2) run a ring r0..r8 of interior vertices and a
    centre c."""
    rim = "123123132"
    ring = [f"r{i}" for i in range(9)]
    facets = []
    for i in range(9):
        j = (i + 1) % 9
        facets += [{rim[i], rim[j], ring[i]}, {rim[j], ring[i], ring[j]}, {ring[i], ring[j], "c"}]
    return new_complex(["1", "2", "3", *ring, "c"], [frozenset(f) for f in facets])


DUNCE_HAT = dunce_hat()


def test_projective_plane_is_refuted_by_its_torsion():
    # all Betti numbers vanish: only the Z/2 in degree 1 refutes RP2
    result = collapse_search(RP2, budget=1)
    assert (result.verdict, result.sequence, result.nodes) == ("no", None, 1)
    assert result.obstruction == reduced_homology(RP2)
    assert result.obstruction.to_json() == {
        "betti": {"-1": 0, "0": 0, "1": 0, "2": 0},
        "torsion": {"-1": [], "0": [], "1": [2], "2": []},
    }


def test_dunce_hat_is_refuted_by_the_exhausted_search():
    # acyclic, so no obstruction: the "no" is the search's, after one node
    assert reduced_homology(DUNCE_HAT).is_trivial() and len(DUNCE_HAT.facets) == 27
    assert not meet_mask(DUNCE_HAT.masks) and free_pairs(DUNCE_HAT) == []
    assert collapse_search(DUNCE_HAT) == ShvResult("no", None, 1)


def dunce_hat_with_star(leaves):
    """The dunce hat with edges from its centre c to new leaves s1, s2, ...:
    still acyclic and no cone, so the search runs.  Each leaf edge is a free
    pair, and no collapse order frees anything else, so the search meets
    every subset of the leaves, once with the memo and once per order
    without it."""
    star = [f"s{i}" for i in range(1, leaves + 1)]
    return new_complex([*DUNCE_HAT.ground, *star],
                       [*DUNCE_HAT.facets, *(frozenset({"c", s}) for s in star)])


def test_the_memo_meets_each_subset_of_the_star_once():
    # with the memo a subset of the 7 leaves is entered once per leaf it
    # lacks: 1 + 7 * 2^6 = 449 nodes; without it once per order of its
    # removed leaves: the sum over k of 7!/(7 - k)! = 13,700 nodes
    c = dunce_hat_with_star(7)
    assert reduced_homology(c).is_trivial() and not meet_mask(c.masks)
    assert collapse_search(c) == ShvResult("no", None, 449)
    assert frozenset_collapse_search(c, memo=False) == ShvResult("no", None, 13700)


@pytest.mark.parametrize(
    "c, verdict",
    [(cx("ABCDEF", "AECD", "FBCD", "AFD", "BEC"), "yes"), (dunce_hat_with_star(7), "no")],
)
def test_budget_edge_of_the_search_is_exactly_the_nodes_spent(c, verdict):
    # a budget below the need runs out after one node more; the need suffices
    n = collapse_search(c).nodes
    at_edge = collapse_search(c, n)
    assert (at_edge.verdict, at_edge.nodes) == (verdict, n)
    for b in range(1, min(n - 1, 40) + 1):
        assert collapse_search(c, b) == ShvResult("unknown", None, b + 1), b


def test_collapsible_implies_trivial_homology():
    for c in (POINT, EDGE, cx("abc", "ab", "bc"), full_simplex("abcd")):
        result = collapse_search(c)
        assert result.is_yes
        assert reduced_homology(c).is_trivial()


def path_complex(n):
    """The path v1 - v2 - ... - vn."""
    names = [f"v{i}" for i in range(1, n + 1)]
    return new_complex(names, [frozenset(p) for p in zip(names, names[1:])])


def stacked_ball(tetrahedra):
    """The stacked 3-ball of the tetrahedra {vi, ..., vi+3}."""
    names = [f"v{i}" for i in range(tetrahedra + 3)]
    return new_complex(names, [frozenset(names[i:i + 4]) for i in range(tetrahedra)])


def test_long_path_collapses_under_a_low_recursion_limit():
    path = path_complex(250)
    limit = sys.getrecursionlimit()
    # well below the 247 nested calls a recursive search would need
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        result = collapse_search(path)
    finally:
        sys.setrecursionlimit(limit)
    assert result.is_yes
    assert replay(path, result.sequence).is_void


@pytest.mark.parametrize("c, nodes", [(path_complex(200), 198), (stacked_ball(100), 401)])
def test_the_search_makes_only_the_free_pairs_it_tries(c, nodes, monkeypatch):
    # a "yes" takes the first free pair at nearly every node, so the search
    # and its replay check make about two facets' free faces per step;
    # making every facet's at every node would take 20,097 and 50,902 calls
    real, calls = grapes.collapse._free_faces, []
    monkeypatch.setattr(grapes.collapse, "_free_faces", lambda *a: calls.append(a) or real(*a))
    result = collapse_search(c)
    assert (result.verdict, result.nodes) == ("yes", nodes)
    assert len(calls) < 3 * len(result.sequence)
    assert replay(c, result.sequence).is_void


def test_the_search_replays_its_sequence_before_returning_it(monkeypatch):
    # a cone tail one pair short leaves the apex behind
    real = grapes.collapse.cone_steps
    monkeypatch.setattr(grapes.collapse, "cone_steps", lambda masks, apex: real(masks, apex)[:-1])
    with pytest.raises(ReplayError, match="^search produced a sequence that does not replay$"):
        collapse_search(full_simplex("abc"))


def test_search_is_deterministic():
    c = cx("abcd", "abc", "bd")
    first = collapse_search(c)
    second = collapse_search(c)
    assert first == second


def test_cone_sequence_requires_cone():
    with pytest.raises(ReplayError):
        cone_sequence(TWO_POINTS)


# -- lifted collapse --------------------------------------------------------------


def test_lifted_collapse_smallest_instance():
    c = cx("av", "av")
    lk = link(c, "a")
    assert lk.facets == {fs("v")}
    lifted = lifted_collapse(c, "a", read(lk, {"steps": [step("v", "")]})[1])
    assert steps_to_json(lifted, c.ground) == {"steps": [step("av", "a")]}
    assert replay(c, lifted).facets == {fs("v")}


def test_lifted_collapse_on_independence_complex():
    c = cx("abc", "ac", "b")
    result = collapse_search(link(c, "c"))
    assert result.is_yes
    lifted = lifted_collapse(c, "c", result.sequence)
    assert replay(c, lifted).facets == deletion(c, "c").facets == {fs("a"), fs("b")}


def test_lifted_collapse_on_full_triangle():
    c = full_simplex("abc")
    result = collapse_search(link(c, "a"))
    assert result.is_yes and len(result.sequence) == 2
    lifted = lifted_collapse(c, "a", result.sequence)
    assert replay(c, lifted).facets == {fs("b", "c")}


def test_lifted_collapse_rejects_invalid_link_sequence():
    c = cx("abc", "ab", "bc")
    with pytest.raises(ReplayError, match=r"^\[\] is contained in another face$"):
        lifted_collapse(c, "b", read(link(c, "b"), {"steps": [step("a", "")]})[1])


def test_lifted_collapse_rejects_a_link_sequence_that_stops_short():
    # legal but incomplete: no steps leave the link of a, the edge bc, standing
    c = full_simplex("abc")
    assert collapse_search(link(c, "a")).is_yes
    with pytest.raises(ReplayError, match="^link sequence does not reach the void complex$"):
        lifted_collapse(c, "a", ())


def test_lifted_collapse_rejects_a_lift_that_misses_the_deletion(monkeypatch):
    # the lift of a sound link collapse lands on the true deletion, so only
    # a corrupted lift reaches the last check: the replay from c loses the
    # lift's last pair, which leaves the edge ab standing
    c = cx("abc", "ab", "bc")
    steps = collapse_search(link(c, "a")).sequence
    real = grapes.collapse.replay
    monkeypatch.setattr(grapes.collapse, "replay",
                        lambda cpx, seq: real(cpx, seq[:-1] if cpx is c else seq))
    with pytest.raises(ReplayError, match="^lifted sequence did not land on the deletion$"):
        lifted_collapse(c, "a", steps)


# -- suspension transport -----------------------------------------------------------


@pytest.mark.parametrize(
    "base",
    [
        POINT,
        EDGE,
        cone(cycle_complex(5), "z"),
    ],
)
def test_suspension_transport(base):
    # the s2-cone onto the s1-cone, the s1-cone onto c, then c itself: the
    # sequence of c three times
    seq = steps_to_json(collapse_search(base).sequence, base.ground)["steps"]
    lifted_y = [step(p["sigma"] + ["s2"], p["tau"] + ["s2"]) for p in seq]
    lifted_x = [step(p["sigma"] + ["s1"], p["tau"] + ["s1"]) for p in seq]
    assert wire_replay(suspension(base, "s1", "s2"), {"steps": lifted_y + lifted_x + seq}).is_void


def test_suspension_of_point_is_two_edge_path():
    susp = suspension(POINT, "x", "y")
    assert susp.facets == {fs("v", "x"), fs("v", "y")}
    result = collapse_search(susp)
    assert result.is_yes


# -- JSON -----------------------------------------------------------------------------


def test_sequence_json_round_trip():
    c = cx("abc", "ab", "bc")
    result = collapse_search(c)
    data = steps_to_json(result.sequence, c.ground)
    assert read(c, json.loads(json.dumps(data))) == (c, result.sequence)
    assert all(set(s) == {"sigma", "tau"} for s in data["steps"])
