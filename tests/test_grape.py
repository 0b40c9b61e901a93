"""Grape recognition, certificates, classification, and dual invariance.

The recognition on frozensets of names that the mask kernel replaced is kept
here as an oracle: both must give the same verdict, certificate and nodes.
With its cone rule off it splits every cone down to points, and must still
give the same verdicts, strong classes and predicted wedges.  With its old
rule on it refutes nothing by homology and sweeps every intermediate complex
instead, as recognition once did on request; the homology rule may only
settle what that rule left "unknown".  The strong class, now read off the
predicted wedge, is also checked against the walk that follows one branch
of a strong certificate by its cone-leaf children.  The oracles hold
certificates by name, so a certificate on masks meets them in its wire
form: written by ``certificate_to_json``, or read back by
``certificate_from_json`` before it replays.
"""

import hashlib
import json
import string
import time

import pytest
from hypothesis import given, settings, strategies as st

import grapes.collapse
import grapes.grape
import grapes.homology
from grapes import (
    GrapeVariant,
    InputError,
    ReplayError,
    alexander_dual,
    certificate_from_json,
    certificate_to_json,
    check_grape,
    classify_strong,
    enumerate_complexes,
    irrelevant_complex,
    new_complex,
    predicted_wedge,
    reduced_homology,
    restrict_ground,
    verify_certificate,
    void_complex,
)
from grapes.collapse import collapse_search, obstruction, replay_masks
from grapes.complexes import Complex, deletion, face_of, join_mask, link, meet_mask
from grapes.grape import (
    TORSION_REASON,
    GrapeVerdict,
    _cone_points,
    certificate_variant,
)
from grapes.generators import cycle_complex
from grapes.verify import OutcomeTable, grape_duality_report, standard_complexes
from shapes import cone, cross_polytope, cx, faces, full_simplex, simplex_boundary, vertices
from test_collapse import (
    DUNCE_HAT,
    dunce_hat_with_star,
    frozenset_collapse_search,
    frozenset_cone_sequence,
)
from test_homology import oracle_reduced_homology
from test_complexes import (
    frozenset_cone_apexes,
    frozenset_link,
    frozenset_maximal,
    has_face,
    maximal_deletion,
)

ALL_VARIANTS = list(GrapeVariant)


RP2 = cx(
    "123456",
    "123", "124", "135", "146", "156", "236", "245", "256", "345", "346",
)

IND_P3 = cx("abc", "ac", "b")

# the 7-vertex torus: free homology Z^2 in degree 1, Z in degree 2
TORUS = cx("0123456", *({str(i), str((i + 1) % 7), str((i + 3) % 7)} for i in range(7)),
           *({str(i), str((i + 2) % 7), str((i + 3) % 7)} for i in range(7)))

# the 7-simplex with a handle v00-w-x-v01: contractible simplex, one loop
SIMPLEX_WITH_HANDLE = cx([f"v0{i}" for i in range(8)] + ["w", "x"],
                         [f"v0{i}" for i in range(8)], ("v00", "w"), ("w", "x"), ("x", "v01"))

# the cone over the dunce hat with apex a, plus the point x
DUNCE_CONE_AND_POINT = new_complex(("a", *DUNCE_HAT.ground, "x"),
                                   [f | {"a"} for f in DUNCE_HAT.facets] + [frozenset("x")])

# the suspension of the dunce hat, apexes n and s: contractible
SUSPENDED_DUNCE_HAT = new_complex(("n", "s", *DUNCE_HAT.ground),
                                  [f | {x} for f in DUNCE_HAT.facets for x in "ns"])


def wire(verdict):
    """A verdict's certificate in its wire form, None on no certificate."""
    return verdict.certificate and certificate_to_json(verdict.certificate)


def wire_verify(c, variant, data):
    """Replay of a certificate document: the reader, then replay on masks."""
    verify_certificate(c, variant, certificate_from_json(data, c))


# -- the frozenset oracle ------------------------------------------------------------


class OutOfBudget(Exception):
    pass


class Torsion(Exception):
    pass


OLD_SWEEP_MAX_GROUND = 6  # the old rule sweeps nodes on at most this many vertices


def frozenset_base_kind(c):
    if c.is_void:
        return "void"
    if c.is_irrelevant:
        return "irrelevant"
    return None


def frozenset_cone_fits(lk, dl, x):
    if lk.is_void:
        return has_face(dl, frozenset({x}))
    return all(has_face(dl, f | {x}) for f in lk.facets)


def frozenset_between_complexes(lk, dl):
    """All complexes G with lk <= G <= dl (face-wise), as families of faces
    by name, in the order the mask sweep lists them."""
    lk_faces = faces(lk)
    extra = sorted(faces(dl) - lk_faces, key=lambda f: (len(f), tuple(sorted(f))))

    def closed(face, have):
        return all((face - {y}) in lk_faces or (face - {y}) in have for y in face)

    def rec(i, have):
        if i == len(extra):
            yield frozenset(lk_faces | have)
            return
        yield from rec(i + 1, have)
        face = extra[i]
        if closed(face, have):
            have.add(face)
            yield from rec(i + 1, have)
            have.remove(face)

    yield from rec(0, set())


def weak_witness(gamma, sequence):
    return {"kind": "weak", "gamma_facets": sorted(sorted(f) for f in gamma.facets),
            "collapse": sequence}


def frozenset_check_grape(c, variant, budget=10**6, cone_leaf=True, old_rule=False):
    """check_grape on frozensets of names, solve on an explicit stack; with
    cone_leaf off a cone is split like any other complex down to points,
    which stay cone leaves.  A strong-weak pivot where neither side
    collapses fails, by the README's lemma.  With old_rule on, no homology
    is read: every collapse test is a search, and the weak variant's "no"
    comes from the searches of every intermediate complex of a node on at
    most OLD_SWEEP_MAX_GROUND vertices."""
    state = {"nodes": 0, "torsion_read": False}
    memo = {}

    def tick(n=1):
        state["nodes"] += n
        if state["nodes"] > budget:
            raise OutOfBudget

    def collapses(sub):
        r = frozenset_collapse_search(sub, budget - state["nodes"], obstruction=not old_rule)
        tick(r.nodes)
        return r

    def witness(cr, lk, dl):
        if variant is GrapeVariant.STRONG:
            if frozenset_cone_apexes(dl) or frozenset_cone_apexes(lk):
                return "yes", {"kind": "strong"}
            return "no", None
        if variant is GrapeVariant.COMBINATORIAL:
            for x in dl.ground:
                if frozenset_cone_fits(lk, dl, x):
                    return "yes", {"kind": "combinatorial", "cone_element": x}
            return "no", None
        if variant is GrapeVariant.STRONG_WEAK:
            for side, side_c in (("link", lk), ("deletion", dl)):
                r = collapses(side_c)
                if r.is_yes:
                    return "yes", {"kind": "strong-weak", "side": side, "collapse": r.sequence}
            return "no", None
        for candidate in (lk, dl):
            r = collapses(candidate)
            if r.is_yes:
                return "yes", weak_witness(candidate, r.sequence)
        for x in dl.ground:
            if frozenset_cone_fits(lk, dl, x):
                gamma = new_complex(lk.ground, frozenset_maximal(f | {x} for f in lk.facets))
                seq = frozenset_cone_sequence(gamma) if not gamma.is_void else []
                return "yes", weak_witness(gamma, {"steps": seq})
        if not old_rule or len(cr.ground) > OLD_SWEEP_MAX_GROUND:
            return "unknown", None
        for faces in frozenset_between_complexes(lk, dl):
            tick()
            gamma = new_complex(dl.ground, frozenset_maximal(faces))
            r = collapses(gamma)
            if r.is_yes:
                return "yes", weak_witness(gamma, r.sequence)
        return "no", None

    def read_torsion():
        """At the first inconclusive pivot test: Torsion if the root has it."""
        if old_rule or state["torsion_read"]:
            return
        state["torsion_read"] = True
        if any(oracle_reduced_homology(root).torsion.values()):
            raise Torsion

    nodes = []

    def solve(cr):
        tick()
        kind = frozenset_base_kind(cr)
        if kind is not None:
            nodes.append({"base": kind})
            return "yes", len(nodes) - 1
        apexes = frozenset_cone_apexes(cr)
        if apexes and (cone_leaf or len(vertices(cr)) == 1):
            nodes.append({"base": "cone", "apex": min(apexes, key=cr.index)})
            return "yes", len(nodes) - 1
        some_unknown = False
        for a in cr.ground:
            lk = frozenset_link(cr, a)
            dl = maximal_deletion(cr, a)
            status, payload = witness(cr, lk, dl)
            if status == "no":
                continue
            if status == "unknown":
                read_torsion()
            lk_status, lk_ref = yield restrict_ground(lk)
            if lk_status == "no":
                continue
            dl_status, dl_ref = yield restrict_ground(dl)
            if dl_status == "no":
                continue
            if status == lk_status == dl_status == "yes":
                nodes.append({"pivot": a, "witness": payload, "link": lk_ref, "deletion": dl_ref})
                return "yes", len(nodes) - 1
            some_unknown = True
        return ("unknown" if some_unknown else "no"), None

    root = restrict_ground(c)
    stack = [(root.facets, solve(root))]
    result = None
    try:
        while stack:
            key, frame = stack[-1]
            try:
                sub = frame.send(result)
            except StopIteration as done:
                stack.pop()
                result = memo[key] = done.value
                continue
            result = memo.get(sub.facets)
            if result is None:
                stack.append((sub.facets, solve(sub)))
    except OutOfBudget:
        return GrapeVerdict("unknown", reason="recognition budget exhausted", nodes=state["nodes"])
    except Torsion:
        return GrapeVerdict("no", reason=TORSION_REASON, nodes=state["nodes"])
    if result[0] != "yes":
        return GrapeVerdict(result[0], nodes=state["nodes"])
    keep = {len(nodes) - 1}
    for i in range(len(nodes) - 1, -1, -1):
        if i in keep and "base" not in nodes[i]:
            keep |= {nodes[i]["link"], nodes[i]["deletion"]}
    index = {i: k for k, i in enumerate(sorted(keep))}
    cert = [
        n if "base" in n else {**n, "link": index[n["link"]], "deletion": index[n["deletion"]]}
        for n in map(nodes.__getitem__, index)
    ]
    return GrapeVerdict("yes", certificate={"format": 3, "nodes": cert}, nodes=state["nodes"])


def folds(verdict, variant):
    """What a theorem check reads of a recognition: the verdict, and on yes
    the strong class (strong only) and the predicted wedge."""
    cert = verdict.certificate
    if cert is None:
        return verdict.verdict, None, None
    wedge = predicted_wedge(cert)
    strong = classify_strong(wedge) if variant is GrapeVariant.STRONG else None
    return verdict.verdict, strong, wedge


def assert_recognition_matches_the_oracle(c, variant, budget=10**6):
    got = check_grape(c, variant, budget)
    want = frozenset_check_grape(c, variant, budget)
    assert (got.verdict, wire(got), got.nodes) == (want.verdict, want.certificate, want.nodes)
    if want.reason:  # budget exhaustion or torsion; the oracle names no other origin
        assert got.reason == want.reason
    if budget == 10**6:  # splitting cones spends more nodes than a lower budget may allow
        split = frozenset_check_grape(c, variant, budget, cone_leaf=False)
        assert folds(got, variant) == folds(split, variant)


def assert_homology_settles_only_unknowns(c, variant):
    old = frozenset_check_grape(c, variant, old_rule=True).verdict
    assert old == "unknown" or check_grape(c, variant).verdict == old, old


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_recognition_matches_the_frozenset_oracle_on_every_small_complex(variant):
    for c in enumerate_complexes("abcd"):
        assert_recognition_matches_the_oracle(c, variant)


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_recognition_reads_masks_not_names(variant):
    # the premise of an outcome table keyed by facet masks: the same masks
    # under names sorting the other way give the same verdict, the same
    # nodes and the same predicted wedge
    for c in enumerate_complexes("abcd"):
        renamed = Complex(("z", "y", "x", "w"), c.masks)
        got, want = check_grape(renamed, variant), check_grape(c, variant)
        assert (got.verdict, got.nodes) == (want.verdict, want.nodes), c
        if want.is_yes:
            assert predicted_wedge(got.certificate) == predicted_wedge(want.certificate), c


@pytest.mark.parametrize("variant", [GrapeVariant.WEAK, GrapeVariant.STRONG_WEAK])
def test_homology_settles_only_what_the_old_rule_left_unknown_on_every_small_complex(variant):
    for c in enumerate_complexes("abcd"):
        assert_homology_settles_only_unknowns(c, variant)


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_recognition_matches_the_frozenset_oracle_on_named_instances(variant):
    for c in (RP2, cycle_complex(5), cross_polytope(3),
              cx("abcde", "abc", "bcd", "cde", "dea", "eab"), cx("dcba", "ad", "bc", "ca"),
              TORUS, rp2_with_path(2), DUNCE_CONE_AND_POINT):
        assert_recognition_matches_the_oracle(c, variant)
    assert_recognition_matches_the_oracle(rp2_with_path(2), variant, budget=40)
    # five nodes run out as the weak variant starts a collapse search
    assert_recognition_matches_the_oracle(cycle_complex(5), variant, budget=5)


small_complexes = st.integers(min_value=1, max_value=7).flatmap(
    lambda n: st.tuples(
        st.just(tuple(string.ascii_lowercase[:n])),
        st.lists(st.sets(st.integers(0, n - 1), max_size=4), max_size=6),
    )
)


@settings(max_examples=40, deadline=None)
@given(small_complexes, st.sampled_from(ALL_VARIANTS))
def test_recognition_matches_the_frozenset_oracle(case, variant):
    ground, faces = case
    c = new_complex(ground, [frozenset(ground[i] for i in f) for f in faces])
    assert_recognition_matches_the_oracle(c, variant)


@settings(max_examples=40, deadline=None)
@given(small_complexes, st.sampled_from([GrapeVariant.WEAK, GrapeVariant.STRONG_WEAK]))
def test_homology_settles_only_what_the_old_rule_left_unknown(case, variant):
    ground, faces = case
    c = new_complex(ground, [frozenset(ground[i] for i in f) for f in faces])
    assert_homology_settles_only_unknowns(c, variant)


def scan_cone_points(lk, dl):
    """Oracle: _cone_points as it was, scanning all of dl for each link facet."""
    out = join_mask(dl)
    for f in lk:
        out &= join_mask(g for g in dl if f & g == f)
    return out


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**8 - 1), max_size=30),
       st.lists(st.integers(min_value=0, max_value=2**8 - 1), max_size=30))
def test_cone_points_match_the_scan(lk, dl):
    # non-pure, non-antichain families with duplicates and the empty mask
    lk, dl = frozenset(lk), frozenset(dl)
    assert _cone_points(lk, dl) == scan_cone_points(lk, dl)


def test_cone_points_find_a_holder_two_or_more_bits_larger():
    # the only facet of dl through the link facet 0b0001 is 0b1101
    assert _cone_points(frozenset({0b0001}), frozenset({0b1101, 0b0110})) == 0b1101
    assert _cone_points(frozenset({0b0001, 0b0010}), frozenset({0b1101, 0b0110})) == 0b0100


# -- base cases and easy instances ------------------------------------------------


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_base_cases_are_grapes(variant):
    for c in (void_complex("ab"), irrelevant_complex("ab"), cx("ab", "a")):
        verdict = check_grape(c, variant)
        assert verdict.is_yes
        assert len(verdict.certificate["nodes"]) == 1 and "base" in verdict.certificate["nodes"][0]


def test_independence_complex_of_path_is_strong():
    verdict = check_grape(IND_P3, GrapeVariant.STRONG)
    assert verdict.is_yes
    verify_certificate(IND_P3, GrapeVariant.STRONG, verdict.certificate)


def test_two_points_are_strong():
    assert check_grape(cx("ab", "a", "b"), GrapeVariant.STRONG).is_yes


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_cones_are_strong_grapes(n):
    base = cx("abcdefg"[:n], *("abcdefg"[i] for i in range(n)))
    c = cone(base, "z")
    verdict = check_grape(c, GrapeVariant.STRONG)
    assert verdict.is_yes
    verify_certificate(c, GrapeVariant.STRONG, verdict.certificate)


def test_every_small_cone_is_one_leaf():
    cones = [c for c in enumerate_complexes("abcde") if meet_mask(c.masks)]
    assert len(cones) == 686  # 5 of them points, cones too
    for c in cones:
        leaf = {"base": "cone", "apex": min(frozenset_cone_apexes(c), key=c.index)}
        for variant in ALL_VARIANTS:
            verdict = check_grape(c, variant)
            cert = {"format": 3, "nodes": [leaf]}
            assert (verdict.verdict, wire(verdict), verdict.nodes) == ("yes", cert, 1)
            verify_certificate(c, variant, verdict.certificate)
        assert predicted_wedge(verdict.certificate) == verdict.wedge == {}
        assert classify_strong(verdict.wedge) == VOID


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
def test_simplex_boundary_is_strong_grape(n):
    c = simplex_boundary("abcdefgh"[:n])
    verdict = check_grape(c, GrapeVariant.STRONG)
    assert verdict.is_yes


# -- the 5-cycle ---------------------------------------------------------------------


def test_five_cycle_not_combinatorial_definitively():
    verdict = check_grape(cycle_complex(5), GrapeVariant.COMBINATORIAL)
    assert verdict.verdict == "no"


def test_five_cycle_weak_with_replayable_certificate():
    c5 = cycle_complex(5)
    verdict = check_grape(c5, GrapeVariant.WEAK)
    assert verdict.is_yes
    verify_certificate(c5, GrapeVariant.WEAK, verdict.certificate)
    assert predicted_wedge(verdict.certificate) == {1: 1}
    assert reduced_homology(c5).betti_at(1) == 1


def test_five_cycle_strong_weak():
    # deleting any vertex of the cycle leaves a collapsible path
    assert check_grape(cycle_complex(5), GrapeVariant.STRONG_WEAK).is_yes


# -- a non-grape: the projective plane -------------------------------------------------


def test_projective_plane_is_no_grape_at_all():
    assert check_grape(RP2, GrapeVariant.STRONG).verdict == "no"
    assert check_grape(RP2, GrapeVariant.COMBINATORIAL).verdict == "no"
    # every link is a 5-cycle and every deletion a Moebius band, circles
    # both: homology refutes both sides at each of the six pivots
    assert (check_grape(RP2, GrapeVariant.STRONG_WEAK).verdict,
            check_grape(RP2, GrapeVariant.STRONG_WEAK).nodes) == ("no", 13)
    # no weak pivot is refuted, but Z/2 in degree 1 is no grape's homology
    weak = check_grape(RP2, GrapeVariant.WEAK)
    assert (weak.verdict, weak.reason, weak.nodes) == ("no", TORSION_REASON, 3)


def test_torus_is_no_strong_weak_grape():
    # the torus's homology is free, so only the strong-weak pivots, whose
    # hexagon links and punctured-torus deletions homology refutes, say no
    verdict = check_grape(TORUS, GrapeVariant.STRONG_WEAK)
    assert (verdict.verdict, verdict.nodes) == ("no", 15)


def test_unknown_on_the_torus_names_its_origin():
    verdict = check_grape(TORUS, GrapeVariant.WEAK)
    reason = "no collapsible intermediate in the fast family (pivot 0, at the root)"
    assert (verdict.verdict, verdict.reason, verdict.nodes) == ("unknown", reason, 347)


@pytest.mark.parametrize("variant", [GrapeVariant.WEAK, GrapeVariant.STRONG_WEAK])
def test_a_refuted_side_is_not_searched(variant):
    # at v00 the link is the 6-simplex plus the point w, whose collapse
    # orders a search would enumerate; its H~_0 refutes it at one node
    start = time.perf_counter()
    verdict = check_grape(SIMPLEX_WITH_HANDLE, variant)
    assert time.perf_counter() - start < 1.0
    assert verdict.is_yes
    verify_certificate(SIMPLEX_WITH_HANDLE, variant, verdict.certificate)
    assert predicted_wedge(verdict.certificate) == {1: 1}


def test_every_weak_split_holds_its_witness_as_a_plain_value(monkeypatch):
    # the search makes each witness where it finds it, the weak cone
    # candidate's collapse steps included, so every split of the table,
    # reached from the root or not, holds a witness whose steps collapse
    # its intermediate complex
    made = []
    real = grapes.grape.cone_steps

    def counted(masks, apex):
        made.append(masks)
        return real(masks, apex)

    monkeypatch.setattr(grapes.grape, "cone_steps", counted)
    for c in enumerate_complexes("abcd"):
        cert = check_grape(c, GrapeVariant.WEAK).certificate
        witnesses = [n["witness"] for n in cert["nodes"] if "base" not in n]
        assert all(type(w) is dict and w["kind"] == "weak" for w in witnesses), c
        for w in witnesses:
            assert not replay_masks(w["gamma_facets"], w["collapse"], cert["ground"]), c
    assert made  # the cone candidate is among them


def test_a_strong_weak_pivot_where_no_side_collapses_fails_without_a_guess(monkeypatch):
    # at a, the first pivot, the link is the dunce hat, acyclic with no
    # collapse, and the deletion has H~_0: neither side collapses, so a
    # fails at once (the README's lemma: a witness side would collapse),
    # and a later pivot gives the yes
    tested = []
    real = grapes.grape.collapse_test

    def spied(masks, *rest):
        tested.append(real(masks, *rest))
        return tested[-1]

    monkeypatch.setattr(grapes.grape, "collapse_test", spied)
    verdict = check_grape(DUNCE_CONE_AND_POINT, GrapeVariant.STRONG_WEAK)
    assert [(refuted is None, steps is None) for refuted, steps in tested[:2]] == [
        (True, True), (False, True)]
    assert (verdict.verdict, verdict.nodes, verdict.wedge) == ("yes", 50, {0: 1})
    verify_certificate(DUNCE_CONE_AND_POINT, GrapeVariant.STRONG_WEAK, verdict.certificate)
    wire_verify(DUNCE_CONE_AND_POINT, GrapeVariant.STRONG_WEAK, json.loads(json.dumps(wire(verdict))))


@pytest.mark.parametrize("c, verdict, nodes", [
    (DUNCE_HAT, "no", 27),
    (DUNCE_CONE_AND_POINT, "yes", 50),
    (SUSPENDED_DUNCE_HAT, "no", 58),
    (dunce_hat_with_star(1), "no", 56),
    (dunce_hat_with_star(2), "no", 113),
    (dunce_hat_with_star(3), "no", 229),
])
def test_strong_weak_is_unknown_only_when_the_budget_runs_out(c, verdict, nodes):
    # complexes built on the dunce hat, which is contractible with no
    # collapse: the search ends "yes" or "no", and below its need it ends
    # "unknown" with the budget's reason only
    got = check_grape(c, GrapeVariant.STRONG_WEAK)
    assert (got.verdict, got.reason, got.nodes) == (verdict, None, nodes)
    for budget in (1, nodes // 2, nodes - 1):
        short = check_grape(c, GrapeVariant.STRONG_WEAK, budget)
        assert (short.verdict, short.reason, short.nodes) == (
            "unknown", "recognition budget exhausted", budget + 1)
    assert check_grape(c, GrapeVariant.STRONG_WEAK, nodes)[:4] == got[:4]
    if got.is_yes:
        verify_certificate(c, GrapeVariant.STRONG_WEAK, got.certificate)
        wire_verify(c, GrapeVariant.STRONG_WEAK, json.loads(json.dumps(wire(got))))


def test_an_acyclic_strong_weak_grape_collapses():
    # the README's lemma, by which a strong-weak pivot where no side
    # collapses fails: every acyclic strong-weak "yes" on at most four
    # elements and among the named instances collapses (the dunce hat, its
    # suspension and the star are acyclic "no"s; the acyclic "yes"s named
    # are the cone over the dunce hat, a collapsible 3-complex, and the
    # 7-simplex with a path of two edges)
    named = (RP2, cycle_complex(5), cross_polytope(3), TORUS, rp2_with_path(2),
             SIMPLEX_WITH_HANDLE, DUNCE_HAT, DUNCE_CONE_AND_POINT, SUSPENDED_DUNCE_HAT,
             dunce_hat_with_star(3), cone(DUNCE_HAT, "z"),
             cx("ABCDEF", "AECD", "FBCD", "AFD", "BEC"),
             cx([f"v0{i}" for i in range(8)] + ["w", "x"], [f"v0{i}" for i in range(8)],
                ("v00", "w"), ("w", "x")))
    acyclic = 0
    for c in (*enumerate_complexes("abcd"), *named):
        if check_grape(c, GrapeVariant.STRONG_WEAK).is_yes and reduced_homology(c).is_trivial():
            acyclic += 1
            assert collapse_search(c).is_yes, c
    assert acyclic == 66 + 3


@pytest.mark.parametrize("c, variant, verdict, nodes", [
    (TORUS, GrapeVariant.WEAK, "unknown", 347),
    (TORUS, GrapeVariant.STRONG_WEAK, "no", 15),
    (SIMPLEX_WITH_HANDLE, GrapeVariant.WEAK, "yes", 148),
    (SIMPLEX_WITH_HANDLE, GrapeVariant.STRONG_WEAK, "yes", 120),
])
def test_each_face_set_homology_is_read_once_per_recognition(monkeypatch, c, variant, verdict, nodes):
    reduced = []
    real = grapes.homology._star_quotient_homology

    def counted(cpx, v):
        reduced.append(cpx.masks)
        return real(cpx, v)

    monkeypatch.setattr(grapes.homology, "_star_quotient_homology", counted)
    result = check_grape(c, variant)
    assert (result.verdict, result.nodes) == (verdict, nodes)
    assert reduced and len(reduced) == len(set(reduced))
    # a memo passed to the search is read and filled, and a second search reduces nothing
    profiles = {}
    searched = check_grape(c, variant, profiles=profiles)
    assert searched == result
    assert set(reduced) <= set(profiles)
    reduced.clear()
    assert check_grape(c, variant, profiles=profiles) == searched
    assert reduced == []


@pytest.mark.parametrize(
    "c, origin",
    [
        # the suspension of the torus: the deletion of n is a cone, its link the torus
        (cx(["n", "s", *TORUS.ground], *(f | {x} for f in TORUS.facets for x in "ns")),
         "(pivots n > 0, link)"),
        # the torus and a point: the link of p is irrelevant, its deletion the torus
        (cx(["p", *TORUS.ground], *TORUS.facets, "p"), "(pivots p > 0, deletion)"),
    ],
)
def test_unknown_below_the_root_names_the_pivots_and_sides(c, origin):
    verdict = check_grape(c, GrapeVariant.WEAK)
    assert verdict.verdict == "unknown"
    assert verdict.reason == f"no collapsible intermediate in the fast family {origin}"


def test_budget_exhaustion_is_unknown():
    # needs recursion: the octahedron is no cone, and passes the witness
    # test at its first pivot
    c = cross_polytope(3)
    verdict = check_grape(c, GrapeVariant.STRONG, budget=1)
    assert verdict.verdict == "unknown"
    assert verdict.reason == "recognition budget exhausted"


def rp2_with_path(k):
    """RP2 with a path of k edges hanging from vertex 1."""
    chain = ["1"] + [f"p{i}" for i in range(1, k + 1)]
    return cx([*"123456", *chain[1:]], *RP2.facets, *zip(chain, chain[1:]))


@pytest.mark.parametrize("variant, nodes", [(GrapeVariant.WEAK, 3), (GrapeVariant.STRONG_WEAK, 325)])
def test_budget_bounds_collapse_searches_too(variant, nodes):
    # every side of RP2 plus a path whose collapse search would run long
    # is refuted at one node; within three nodes the weak variant reads the
    # torsion, and the strong-weak variant runs out
    start = time.perf_counter()
    verdict = check_grape(rp2_with_path(12), variant, budget=3)
    assert time.perf_counter() - start < 1.0
    if variant is GrapeVariant.WEAK:
        assert (verdict.verdict, verdict.reason, verdict.nodes) == ("no", TORSION_REASON, 3)
    else:
        assert (verdict.verdict, verdict.reason) == ("unknown", "recognition budget exhausted")
    verdict = check_grape(rp2_with_path(12), variant)
    assert (verdict.verdict, verdict.nodes) == ("no", nodes)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "c, variant, expected",
    [
        (cycle_complex(5), GrapeVariant.WEAK, "yes"),
        (TORUS, GrapeVariant.STRONG_WEAK, "no"),
        (TORUS, GrapeVariant.WEAK, "unknown"),
        (SIMPLEX_WITH_HANDLE, GrapeVariant.WEAK, "yes"),
        (SIMPLEX_WITH_HANDLE, GrapeVariant.STRONG_WEAK, "yes"),
        # the path c-a-d-b runs out in all three places below 16 nodes
        (cx("abcd", "ac", "ad", "bd"), GrapeVariant.WEAK, "yes"),
    ],
)
def test_budget_edge_is_exactly_the_nodes_spent(c, variant, expected):
    # one counter: a budget below the need runs out after one node more,
    # wherever that node falls (a subproblem, a refutation or a collapse
    # search), and a budget of exactly the need suffices
    n = check_grape(c, variant).nodes
    at_edge = check_grape(c, variant, budget=n)
    assert (at_edge.verdict, at_edge.nodes) == (expected, n)
    for b in range(1, min(n - 1, 40) + 1):
        below = check_grape(c, variant, budget=b)
        assert (below.verdict, below.reason, below.nodes) == (
            "unknown", "recognition budget exhausted", b + 1), b


@pytest.mark.parametrize("c, searches", [(cycle_complex(5), True), (RP2, False)])
def test_weak_nodes_include_every_collapse_search(monkeypatch, c, searches):
    # C5's links, two points, are refuted and its deletions, paths, are
    # searched; both sides of RP2's first pivot are refuted, and its torsion
    # ends the recognition before any search runs
    budgets, spent = set(), []
    search_masks = grapes.collapse.search_masks  # collapse_test's search

    def recording(masks, budget, names):
        before = budget.used
        result = search_masks(masks, budget, names)
        budgets.add(budget)
        spent.append(budget.used - before)
        return result

    monkeypatch.setattr(grapes.collapse, "search_masks", recording)
    verdict = check_grape(c, GrapeVariant.WEAK)
    assert bool(spent) is searches and all(spent)
    if searches:
        (budget,) = budgets  # every search spends from the recognition's one budget
        assert verdict.nodes == budget.used > sum(spent)
    else:
        assert (verdict.verdict, verdict.nodes) == ("no", 3)


@pytest.mark.parametrize(
    "c, nodes",
    [
        (RP2, 1),
        (cycle_complex(5), 1),
        (cross_polytope(3), 7),
        (simplex_boundary("abcde"), 9),
        (rp2_with_path(4), 9),
    ],
)
@pytest.mark.parametrize("variant", [GrapeVariant.STRONG, GrapeVariant.COMBINATORIAL])
def test_strong_and_combinatorial_nodes_are_recognition_nodes_only(c, nodes, variant):
    # neither variant starts a collapse search, so these are recognition
    # nodes alone, the same whether or not collapse nodes are charged
    assert check_grape(c, variant).nodes == nodes


@pytest.mark.parametrize("budget", [0, -5])
def test_nonpositive_budget_is_input_error(budget):
    with pytest.raises(InputError):
        check_grape(IND_P3, GrapeVariant.STRONG, budget=budget)


@pytest.mark.parametrize("variant", list(GrapeVariant))
def test_nonpositive_budget_is_input_error_at_a_cone_root(variant):
    # the path abc is a cone, answered in one node before any search is set up
    with pytest.raises(InputError):
        check_grape(cx("abc", "ab", "bc"), variant, budget=0)


# -- hierarchy -------------------------------------------------------------------------


def test_hierarchy_on_small_complexes():
    complexes = list(enumerate_complexes("abc")) + [
        cycle_complex(4),
        cycle_complex(5),
        IND_P3,
        cx("abcd", "abc", "bd"),
        cx("abcd", "ab", "cd"),
    ]
    for c in complexes:
        strong = check_grape(c, GrapeVariant.STRONG).verdict
        comb = check_grape(c, GrapeVariant.COMBINATORIAL).verdict
        weak = check_grape(c, GrapeVariant.WEAK).verdict
        strong_weak = check_grape(c, GrapeVariant.STRONG_WEAK).verdict
        if strong == "yes":
            assert comb == "yes"
            assert strong_weak in ("yes", "unknown")
        if comb == "yes":
            assert weak in ("yes", "unknown")


def test_disjoint_union_closure_for_combinatorial():
    pieces = [
        (cx("ab", "ab"), cx("cd", "c", "d")),
        (cycle_complex(4), cx("zw", "z")),
        (IND_P3, cx("xy", "x", "y")),
    ]
    for left, right in pieces:
        union = new_complex(
            left.ground + right.ground, set(left.facets) | set(right.facets)
        )
        assert check_grape(left, GrapeVariant.COMBINATORIAL).is_yes
        assert check_grape(right, GrapeVariant.COMBINATORIAL).is_yes
        assert check_grape(union, GrapeVariant.COMBINATORIAL).is_yes


def test_disjoint_union_breaks_strong_variants():
    # two 0-spheres side by side: each piece is a strong grape, the union
    # is not (neither link nor deletion is ever a cone, nor collapsible)
    union = cx("abcd", "a", "b", "c", "d")
    assert check_grape(cx("ab", "a", "b"), GrapeVariant.STRONG).is_yes
    assert check_grape(union, GrapeVariant.STRONG).verdict == "no"
    # every link is the irrelevant complex, refuted in degree -1, and every
    # deletion three points, refuted in degree 0
    assert check_grape(union, GrapeVariant.STRONG_WEAK).verdict == "no"
    # the combinatorial and weak variants do survive the union
    assert check_grape(union, GrapeVariant.COMBINATORIAL).is_yes
    assert check_grape(union, GrapeVariant.WEAK).is_yes


def test_ground_independence_of_verdicts():
    padded = cx("abcdef", "ac", "b")
    for variant in ALL_VARIANTS:
        assert (
            check_grape(padded, variant).verdict
            == check_grape(restrict_ground(padded), variant).verdict
        )


# -- classification ----------------------------------------------------------------------


VOID = {"class": "void"}


def boundary(n):
    """The class of the boundary of the n-dimensional cross-polytope, as
    ``grape classify`` writes it."""
    return {"class": "cross-polytope-boundary", "n": n}


def classify(c):
    verdict = check_grape(c, GrapeVariant.STRONG)
    assert verdict.is_yes
    return classify_strong(verdict.wedge)


def test_classify_base_cases():
    assert classify(void_complex("ab")) == VOID
    assert classify(irrelevant_complex("ab")) == boundary(0)
    assert classify(cx("ab", "a")) == VOID


def test_classify_zero_sphere():
    assert classify(cx("ab", "a", "b")) == boundary(1)


def test_classify_cross_polytopes():
    for n in (1, 2, 3):
        assert classify(cross_polytope(n)) == boundary(n)


def test_classify_path_independence_complex_is_void_class():
    ind_p4 = cx("abcd", "ac", "ad", "bd")
    cls = classify(ind_p4)
    assert cls == VOID
    assert reduced_homology(ind_p4).is_trivial()


def test_classify_simplex_boundary():
    # boundary of the simplex on n elements triangulates the (n-2)-sphere
    assert classify(simplex_boundary("abc")) == boundary(2)
    assert classify(simplex_boundary("abcd")) == boundary(3)


def test_classification_matches_homology_on_small_complexes():
    for c in enumerate_complexes("abcd"):
        verdict = check_grape(c, GrapeVariant.STRONG)
        if verdict.is_yes:
            wedge = predicted_wedge(verdict.certificate)
            assert reduced_homology(c).is_wedge(wedge)
            cls = boundary(min(wedge) + 1) if wedge else VOID
            assert classify_strong(verdict.wedge) == cls


def branch_classify_strong(cert):
    """The class of a strong grape by the walk that classify_strong once was:
    deletion-is-cone steps suspend the class of the link, link-is-cone steps
    keep the class of the deletion, so one branch is followed per level, by
    the children alone (the deletion where both are cone leaves)."""
    nodes = cert["nodes"]
    node = nodes[-1]
    suspensions = 0
    while "base" not in node:
        if nodes[node["deletion"]].get("base") == "cone":
            suspensions += 1
            node = nodes[node["link"]]
        else:
            node = nodes[node["deletion"]]
    return boundary(suspensions) if node["base"] == "irrelevant" else VOID


def classify_via_link_cones(c, cert):
    """branch_classify_strong, but taking the link as the cone wherever it is one,
    read off the complexes, not the children: (class, how many splits had
    both sides cones)."""
    nodes = cert["nodes"]
    node, cr, suspensions, both = nodes[-1], restrict_ground(c), 0, 0
    while "base" not in node:
        lk = restrict_ground(frozenset_link(cr, node["pivot"]))
        dl = restrict_ground(maximal_deletion(cr, node["pivot"]))
        if frozenset_cone_apexes(lk):
            both += nodes[node["deletion"]].get("base") == "cone"
            node, cr = nodes[node["deletion"]], dl
        else:
            suspensions += 1
            node, cr = nodes[node["link"]], lk
    return (boundary(suspensions) if node["base"] == "irrelevant" else VOID), both


def test_classification_branch_independence():
    both = 0
    for ground in ("abcd", "abcde"):
        for c in enumerate_complexes(ground):
            verdict = check_grape(c, GrapeVariant.STRONG)
            if not verdict.is_yes:
                continue
            left = classify_strong(verdict.wedge)
            right, n = classify_via_link_cones(c, wire(verdict))
            assert left == right == branch_classify_strong(verdict.certificate)
            both += n
    assert both > 0


# -- wedge predictions ----------------------------------------------------------------------


def test_predicted_wedge_examples():
    verdict = check_grape(IND_P3, GrapeVariant.COMBINATORIAL)
    assert predicted_wedge(verdict.certificate) == {0: 1}
    verdict = check_grape(cone(cycle_complex(5), "z"), GrapeVariant.COMBINATORIAL)
    assert predicted_wedge(verdict.certificate) == {}


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_every_yes_carries_its_certificates_wedge(variant):
    # the search folds its certificate into the wedge, on every yes, and
    # sets none otherwise
    yes = 0
    for n in range(5):
        for c in enumerate_complexes(string.ascii_lowercase[:n]):
            verdict = check_grape(c, variant)
            if verdict.is_yes:
                yes += 1
                assert verdict.wedge == predicted_wedge(verdict.certificate), c
            else:
                assert verdict.wedge is None, c
    assert yes > 100


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_predicted_wedge_matches_betti_on_small_complexes(variant):
    # the lemma behind the torsion rule: every variant's yes certificate
    # predicts a wedge of spheres, so its homology is free
    for c in enumerate_complexes("abcd"):
        verdict = check_grape(c, variant)
        if verdict.is_yes:
            assert reduced_homology(c).is_wedge(predicted_wedge(verdict.certificate))


def test_classify_strong_rejects_a_wedge_that_is_not_one_sphere():
    # hand-built strong certificates: node 0 is irrelevant, 1 void, and 2, 3
    # and 4 the 0-, 1- and 2-sphere, each the suspended node before it; the
    # root wedges the given deletion with the suspended given link
    def cert(link, deletion):
        splits = [(0, 1), (2, 1), (3, 1), (link, deletion)]
        return {"format": 3, "nodes": [{"base": "irrelevant"}, {"base": "void"}] + [
            {"pivot": f"v{i}", "witness": {"kind": "strong"}, "link": lk, "deletion": dl}
            for i, (lk, dl) in enumerate(splits)
        ]}

    assert classify_strong(predicted_wedge(cert(4, 1))) == boundary(4)
    for link, deletion, wedge in ((2, 3, {1: 2}), (2, 2, {0: 1, 1: 1}), (4, 0, {-1: 1, 3: 1})):
        assert predicted_wedge(cert(link, deletion)) == wedge
        with pytest.raises(InputError, match="not one sphere"):
            classify_strong(wedge)


def test_certificate_folds_visit_shared_nodes_once():
    # 60 split levels whose link and deletion children are one node: a tree
    # walk would take 2^60 steps.  The sides do not match the children (the
    # deletion is no cone), so the wedge is binomial, not one sphere, and
    # the certificate has no strong class
    from math import comb
    from time import perf_counter

    cert = {"format": 3, "nodes": [{"base": "irrelevant"}] + [
        {"pivot": f"v{i}", "witness": {"kind": "strong"}, "link": i, "deletion": i}
        for i in range(60)
    ]}
    start = perf_counter()
    assert predicted_wedge(cert) == {k - 1: comb(60, k) for k in range(61)}
    with pytest.raises(InputError, match="not one sphere"):
        classify_strong(predicted_wedge(cert))
    # read against the void complex, every pivot is a name outside its vertices
    assert certificate_to_json(certificate_from_json(json.loads(json.dumps(cert)), void_complex())) == cert
    assert perf_counter() - start < 1.0


# -- certificates -----------------------------------------------------------------------------


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_certificates_replay_for_all_variants(variant):
    for c in (IND_P3, cycle_complex(4), cx("abcd", "abc", "bd"), full_simplex("abc")):
        verdict = check_grape(c, variant)
        assert verdict.is_yes
        verify_certificate(c, variant, verdict.certificate)


def test_certificate_rejects_wrong_base():
    with pytest.raises(ReplayError):
        wire_verify(
            void_complex("ab"), GrapeVariant.STRONG, {"format": 3, "nodes": [{"base": "irrelevant"}]}
        )


def test_certificate_rejects_bad_pivot():
    cert = wire(check_grape(IND_P3, GrapeVariant.STRONG))
    tampered = {**cert, "nodes": cert["nodes"][:-1] + [{**cert["nodes"][-1], "pivot": "zz"}]}
    with pytest.raises(ReplayError, match="^pivot 'zz' is not a vertex$"):
        wire_verify(IND_P3, GrapeVariant.STRONG, tampered)


def test_certificate_rejects_a_cone_leaf_on_the_wrong_side():
    # at a, the link of two points is the irrelevant complex, no cone
    cert = wire(check_grape(cx("ab", "a", "b"), GrapeVariant.STRONG))
    assert cert["nodes"] == [{"base": "irrelevant"}, {"base": "cone", "apex": "b"},
                             {"pivot": "a", "witness": {"kind": "strong"}, "link": 0, "deletion": 1}]
    tampered = {**cert, "nodes": cert["nodes"][:-1] + [{**cert["nodes"][-1], "link": 1, "deletion": 0}]}
    with pytest.raises(ReplayError, match="apex 'b' is not in every facet"):
        wire_verify(cx("ab", "a", "b"), GrapeVariant.STRONG, tampered)


def test_certificate_rejects_noncontained_gamma():
    c5 = cycle_complex(5)
    cert = wire(check_grape(c5, GrapeVariant.WEAK))
    bad_witness = {"kind": "weak", "gamma_facets": [["a", "b", "c"]], "collapse": {"steps": []}}
    tampered = {**cert, "nodes": cert["nodes"][:-1] + [{**cert["nodes"][-1], "witness": bad_witness}]}
    with pytest.raises(ReplayError):
        wire_verify(c5, GrapeVariant.WEAK, tampered)


def test_certificate_variant_mismatch_is_rejected():
    verdict = check_grape(IND_P3, GrapeVariant.STRONG)
    with pytest.raises(ReplayError, match="^comb certificate has a 'strong' witness$"):
        verify_certificate(IND_P3, GrapeVariant.COMBINATORIAL, verdict.certificate)


def test_certificate_json_round_trip():
    for variant in ALL_VARIANTS:
        verdict = check_grape(cycle_complex(4), variant)
        restored = certificate_from_json(json.loads(json.dumps(wire(verdict))), cycle_complex(4))
        assert restored == verdict.certificate
        verify_certificate(cycle_complex(4), variant, restored)
        assert certificate_variant(restored) == variant


def test_certificate_bytes_are_pinned():
    # one sha256 over check_grape's verdict, nodes, reason and certificate
    # JSON, as certificate_to_json writes it, for every variant on a fixed
    # instance set (364 recognitions, with splits of every witness kind): how
    # the search records its nodes and when they are named must leave every
    # byte alone
    digest = hashlib.sha256()
    for c in standard_complexes(n_random=60, max_ground=5, exhaustive_max=3, seed=7):
        for variant in ALL_VARIANTS:
            verdict = check_grape(c, variant)
            digest.update(json.dumps([verdict.verdict, verdict.nodes, verdict.reason,
                                      wire(verdict)], sort_keys=True).encode())
    assert digest.hexdigest() == (
        "34c8a8b11557f6c7055b788ef2a3ce9e5ea0aa12146d52156d1be001f0dd90d7")


def test_combinatorial_witness_is_the_cone_element():
    verdict = check_grape(cycle_complex(4), GrapeVariant.COMBINATORIAL)
    root = wire(verdict)["nodes"][-1]
    assert root["witness"]["kind"] == "combinatorial"
    # replay by hand: every link facet plus the witness element is a face
    c = restrict_ground(cycle_complex(4))
    lk = link(c, root["pivot"])
    dl = deletion(c, root["pivot"])
    x = root["witness"]["cone_element"]
    assert all(has_face(dl, f | {x}) for f in lk.facets)


# -- the old rule's intermediate-complex enumeration --------------------------------------------


def test_between_complexes_matches_brute_force():
    from itertools import chain, combinations

    c5 = cycle_complex(5)
    lk = link(c5, "a")
    dl = deletion(c5, "a")
    listed = list(frozenset_between_complexes(lk, dl))
    assert len(listed) == len(set(listed))
    listed = set(listed)
    # oracle: filter every subset of the extra faces for downward closure
    lk_faces, dl_faces = faces(lk), faces(dl)
    extra = sorted(dl_faces - lk_faces, key=lambda f: (len(f), tuple(sorted(f))))
    brute = set()
    for choice in chain.from_iterable(
        combinations(extra, k) for k in range(len(extra) + 1)
    ):
        family = frozenset(lk_faces | set(choice))
        if all(all((f - {y}) in family for y in f) for f in family):
            brute.add(family)
    assert listed == brute
    assert frozenset(lk_faces) in listed and frozenset(dl_faces) in listed


# -- dual invariance -----------------------------------------------------------------------------


def dual_invariance(c, variant):
    """The dual-invariance report of c, on a table of its own."""
    return grape_duality_report(c, variant, OutcomeTable())


def test_dual_invariance_zero_sphere():
    report = dual_invariance(cx("ab", "a", "b"), GrapeVariant.STRONG)
    assert report.status == "pass" and report.details["pass"]
    assert report.details["wedge"] == {"0": 1}
    assert report.details["dual_wedge"] == report.details["expected_dual_wedge"] == {"-1": 1}


def test_dual_invariance_void_on_three():
    report = dual_invariance(void_complex("abc"), GrapeVariant.STRONG)
    assert report.status == "pass" and report.details["pass"]
    assert report.details["wedge"] == {}
    assert report.details["dual_wedge"] == report.details["expected_dual_wedge"] == {}


def test_dual_invariance_irrelevant_on_three():
    report = dual_invariance(irrelevant_complex("abc"), GrapeVariant.STRONG)
    assert report.status == "pass" and report.details["pass"]
    assert report.details["wedge"] == {"-1": 1}
    assert report.details["dual_wedge"] == report.details["expected_dual_wedge"] == {"1": 1}


def test_dual_invariance_needs_yes_instance():
    report = dual_invariance(cycle_complex(5), GrapeVariant.COMBINATORIAL)
    assert report.details["primal_verdict"] == "no"
    assert report.status == "fail" and report.details["pass"] is False
    assert "dual_verdict" not in report.details


def test_only_a_weak_family_dual_may_be_unknown():
    # the one status rule: a weak dual that comes back "unknown" is
    # tolerated, flagged, and makes the report unknown; a strong-weak or
    # strong one, which only the budget can leave unknown, fails.  No small
    # complex has such a dual, so the table is primed
    c5, two_points = cycle_complex(5), cx("ab", "a", "b")
    for c, variant, status in ((c5, GrapeVariant.WEAK, "unknown"),
                               (c5, GrapeVariant.STRONG_WEAK, "fail"),
                               (two_points, GrapeVariant.STRONG, "fail")):
        table = OutcomeTable()
        table.entries[(table.dual(c).masks, variant)] = GrapeVerdict("unknown", reason="primed")
        report = grape_duality_report(c, variant, table)
        assert report.details["dual_verdict"] == "unknown"
        assert report.status == status, variant
        assert report.details["unknown_tolerated"] is (status == "unknown")
        assert report.details["pass"] is (status == "unknown")


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_a_dual_wedge_off_the_shift_fails_for_every_variant(variant):
    # the two points are a yes of every variant, a 0-sphere on two elements,
    # so a yes dual must carry the (2 - 0 - 3)-sphere; the table is primed
    # with a dual yes carrying each wedge in turn
    two_points = cx("ab", "a", "b")
    for wedge, status in (({-1: 1}, "pass"), ({0: 1}, "fail"), ({}, "fail"), ({-1: 2}, "fail")):
        table = OutcomeTable()
        table.entries[(table.dual(two_points).masks, variant)] = GrapeVerdict("yes", wedge=wedge)
        report = grape_duality_report(two_points, variant, table)
        assert report.status == status, (variant, wedge)
        assert report.details["expected_dual_wedge"] == {"-1": 1}
        assert report.details["dual_wedge"] == {str(k): m for k, m in wedge.items()}


def test_dual_wedge_is_the_shifted_primal_wedge_for_every_variant():
    # a k-sphere of K is a (|X| - k - 3)-sphere of its Alexander dual, for
    # every variant's predicted wedge, wherever both sides are grapes
    pairs = 0
    for n in range(1, 5):
        for c in enumerate_complexes("abcd"[:n]):
            dual = alexander_dual(c)
            for variant in ALL_VARIANTS:
                primal, other = check_grape(c, variant), check_grape(dual, variant)
                if primal.is_yes and other.is_yes:
                    pairs += 1
                    assert predicted_wedge(other.certificate) == grapes.homology.dual_wedge(
                        predicted_wedge(primal.certificate), n)
    assert pairs == 734  # 170 strong, 197 comb, 197 weak, 170 strong-weak


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_dual_invariance_on_five_cycle_where_applicable(variant):
    c5 = cycle_complex(5)
    if not check_grape(c5, variant).is_yes:
        pytest.skip("five-cycle is not a yes instance for this variant")
    report = dual_invariance(c5, variant)
    assert report.status == "pass" and report.details["pass"]


# -- five-element census ----------------------------------------------------------


def test_five_element_census_of_non_combinatorial_grapes():
    """Exactly two shapes on five vertices fail the combinatorial variant.

    The labeled census finds 24 non-grapes: 12 copies of the 5-cycle (five
    edge facets) and 12 copies of the five-vertex Moebius band (five
    triangle facets, boundary a 5-cycle).  Both are still weak grapes.
    """
    from collections import Counter

    non_grapes = []
    for c in enumerate_complexes("abcde"):
        verdict = check_grape(c, GrapeVariant.COMBINATORIAL)
        assert verdict.verdict in ("yes", "no")
        if verdict.verdict == "no":
            non_grapes.append(restrict_ground(c))
    shapes = Counter(
        tuple(sorted(len(f) for f in c.facets)) for c in non_grapes
    )
    assert shapes == {(2, 2, 2, 2, 2): 12, (3, 3, 3, 3, 3): 12}


def test_moebius_band_verdicts():
    mb = cx("abcde", "abc", "bcd", "cde", "dea", "eab")
    assert reduced_homology(mb).betti_at(1) == 1
    assert check_grape(mb, GrapeVariant.STRONG).verdict == "no"
    assert check_grape(mb, GrapeVariant.COMBINATORIAL).verdict == "no"
    weak = check_grape(mb, GrapeVariant.WEAK)
    assert weak.is_yes
    verify_certificate(mb, GrapeVariant.WEAK, weak.certificate)
    sw = check_grape(mb, GrapeVariant.STRONG_WEAK)
    assert sw.is_yes
    verify_certificate(mb, GrapeVariant.STRONG_WEAK, sw.certificate)
