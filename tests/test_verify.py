"""Verification harnesses on pinned instances, and suite determinism."""

import gc
import hashlib
import json
import types
from collections import defaultdict

import pytest

import grapes.complexes as complexes
import grapes.generators as generators
import grapes.grape as grape
import grapes.graphs as graphs
import grapes.homology as homology
import grapes.verify as verify
from grapes import GrapeVariant, InputError, ReplayError, digraph, graph, new_complex
from grapes.cli import main
from grapes.collapse import ShvResult
from grapes.complexes import Complex, complex_to_json
from grapes.generators import cycle_complex, cyclic_no_useless_digraph, gen_digraph
from grapes.graphs import Digraph, Graph, digraph_from_json, digraph_to_json, graph_from_json, graph_to_json
from test_graphs import forest_corpus, path_graph, star_graph
from test_homology import RP2
from grapes.verify import (
    SIZES,
    OutcomeTable,
    VerificationReport,
    cad_report,
    duality_identity_reports,
    cyclic_no_useless_reports,
    deletion_contraction_reports,
    five_cycle_reports,
    grape_duality_report,
    ground_independence_reports,
    konig_reports,
    lifted_collapse_reports,
    run_suite,
    standard_complexes,
    verify_forest_theorem,
    verify_pfpm_theorem,
    wedge_reports,
)


def classes_of(reports):
    return {r.theorem: (r.status, r.observed) for r in reports}


def test_forest_theorem_on_edge():
    # the 0-sphere everywhere: independent domination and cover numbers are 1
    out = classes_of(verify_forest_theorem(path_graph(2), OutcomeTable()))
    assert out["forest-independence"] == ("pass", "cross-polytope-boundary(1)")
    assert out["forest-dominance"] == ("pass", "cross-polytope-boundary(1)")
    assert out["forest-edge-cover"] == ("pass", "cross-polytope-boundary(0)")
    assert out["forest-edge-dominance"] == ("pass", "cross-polytope-boundary(0)")


def test_forest_theorem_on_four_path():
    out = classes_of(verify_forest_theorem(path_graph(4), OutcomeTable()))
    # the independence complex of the 4-path is collapsible
    assert out["forest-independence"] == ("pass", "void")
    assert all(status == "pass" for status, _ in out.values())


def test_forest_theorem_on_star():
    out = classes_of(verify_forest_theorem(star_graph(3), OutcomeTable()))
    assert out["forest-dominance"] == ("pass", "cross-polytope-boundary(1)")
    assert all(status == "pass" for status, _ in out.values())


def test_forest_theorem_on_single_vertex():
    # empty edge set: the edge complexes live on an empty ground set
    out = classes_of(verify_forest_theorem(graph("v", []), OutcomeTable()))
    assert out["forest-edge-cover"] == ("pass", "void")
    assert out["forest-edge-cover-dual"] == ("pass", "cross-polytope-boundary(0)")
    assert out["forest-edge-dominance-dual"] == ("pass", "void")
    assert all(status == "pass" for status, _ in out.values())


def test_forest_theorem_forces_the_empty_ground_duals_from_the_graph(monkeypatch):
    # an edgeless graph with vertices has a void edge-cover complex, so an
    # irrelevant one (no forbidden sets) must fail its dual's report, which
    # reading the dual off the complex under test would let pass
    edge_cover = graphs.FORBIDDEN_SETS["ec"]
    monkeypatch.setitem(graphs.FORBIDDEN_SETS, "ec", lambda g: (edge_cover(g)[0], []))
    out = classes_of(verify_forest_theorem(graph("v", []), OutcomeTable()))
    assert out["forest-edge-cover"] == ("pass", "cross-polytope-boundary(0)")
    assert out["forest-edge-cover-dual"] == ("fail", "void")


def test_forest_theorem_rejects_cycles():
    with pytest.raises(InputError, match="needs a forest"):
        verify_forest_theorem(graph("abc", [("a", "b"), ("b", "c"), ("a", "c")]), OutcomeTable())


def test_pfpm_on_two_arc_path():
    d = digraph("sut", [("e1", "s", "u"), ("e2", "u", "t")], "s", "t")
    out = classes_of(verify_pfpm_theorem(d, OutcomeTable()))
    assert out["pfpm-path-free"] == ("pass", "cross-polytope-boundary(1)")
    assert out["pfpm-path-missing"] == ("pass", "cross-polytope-boundary(0)")


def test_pfpm_on_parallel_arcs():
    d = digraph("st", [("e1", "s", "t"), ("e2", "s", "t")], "s", "t")
    out = classes_of(verify_pfpm_theorem(d, OutcomeTable()))
    assert out["pfpm-path-free"] == ("pass", "cross-polytope-boundary(0)")
    assert out["pfpm-path-missing"] == ("pass", "cross-polytope-boundary(1)")


def test_pfpm_on_cyclic_no_useless_digraph():
    out = classes_of(verify_pfpm_theorem(cyclic_no_useless_digraph(), OutcomeTable()))
    assert out["pfpm-path-free"] == ("pass", "void")
    assert out["pfpm-path-missing"] == ("pass", "void")


def test_pfpm_empty_conventions():
    for s, t in (("s", "t"), ("s", "s")):
        d = digraph("st", [], s, t)
        reports = verify_pfpm_theorem(d, OutcomeTable())
        assert [r.status for r in reports] == ["pass"]


def counting(monkeypatch, module, name):
    """Patch module.name with a wrapper that counts its calls."""
    calls = []
    real = getattr(module, name)

    def wrapper(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def counting_path_lists(monkeypatch):
    """Patch the s-t path listing that fills Digraph.paths with one that
    records each digraph whose paths it lists."""
    listed = []
    real = graphs.st_paths

    def paths(d):
        listed.append(d)
        return real(d)

    monkeypatch.setattr(graphs, "st_paths", paths)
    return listed


def test_pfpm_lists_the_st_paths_once(monkeypatch):
    # a digraph keeps its path list, so each check starts from a fresh one
    before = verify_pfpm_theorem(cyclic_no_useless_digraph(), OutcomeTable())
    paths = counting_path_lists(monkeypatch)
    d = cyclic_no_useless_digraph()
    assert [r.to_json() for r in verify_pfpm_theorem(d, OutcomeTable())] == [r.to_json() for r in before]
    assert len(paths) == 1
    paths.clear()
    d = cyclic_no_useless_digraph()
    deletion_contraction_reports(d)
    assert sum(listed is d for listed in paths) == 1
    paths.clear()
    digraphs = verify.standard_digraphs(40, 2, 3, verify.DEFAULT_SEED)
    for d in digraphs:
        verify_pfpm_theorem(d, OutcomeTable())
        deletion_contraction_reports(d)
    # the deleted and contracted digraphs list theirs too, each once
    listed = list(map(id, paths))
    assert len(listed) == len(set(listed)) > len(digraphs)
    assert set(map(id, digraphs)) <= set(listed)


SMOKE_1729_DUALS = {
    # alexander_dual calls per stage; the graph builders and the forest duals,
    # built from their forbidden sets, call none, and PF/PM makes one per path
    # family with arcs, not two per digraph (an arcless digraph's report reads
    # no dual).  The run's table keeps each dual by (ground, masks): the
    # identities stage builds each distinct one once, 87 where it built 288,
    # and the Alexander-duality and grape-duality stages (36 and 38 before)
    # find all of theirs there
    "duality identities done": 87,
    "path-free/path-missing done (184 digraphs)": 28,
}


def test_alexander_dual_calls_per_stage_are_pinned(monkeypatch):
    calls = []
    real = complexes.alexander_dual

    def counted(c):
        calls.append(c)
        return real(c)

    monkeypatch.setattr(verify, "alexander_dual", counted)  # the one caller in a run
    # no suite input comes near the bound on the dual or on the s-t paths:
    # 2^6 against 2^20
    monkeypatch.setattr(complexes, "MAX_FACES", 2**6)
    monkeypatch.setattr(graphs, "MAX_FACES", 2**6)
    per_stage = {}

    def close_stage(line):
        if calls:
            per_stage[line] = len(calls)
        calls.clear()

    summary = run_suite("smoke", 1729, log=close_stage)
    assert (summary["pass"], summary["fail"], summary["unknown"]) == (2607, 0, 0)
    assert per_stage == SMOKE_1729_DUALS


def test_the_forest_stage_computes_the_invariants_once_per_distinct_forest(monkeypatch):
    computed = counting(monkeypatch, verify, "invariants")
    per_stage = {}

    def close_stage(line):
        if computed:
            per_stage[line] = len(computed)
        computed.clear()

    run_suite("smoke", 1729, log=close_stage)
    # per isomorphism class: 33 distinct labelled forests hold 25 classes
    forests = verify.standard_forests(SIZES["smoke"].n_forests, SIZES["smoke"].max_tree, 1729)
    classes = {(len(h.vertices), h.edges) for h in map(graphs.canonical_forest, forests)}
    assert (len(set(forests)), len(classes)) == (33, 25)
    assert per_stage == {"forest theorem done (44 forests)": len(classes)}


def labelled_forest_reports(g):
    """The forest harness as it ran on a forest's own labelling, with a
    table of its own, as (theorem, status, expected, observed): the oracle
    of the harness that runs on isomorphism classes."""
    table, inv = OutcomeTable(), graphs.invariants(g)
    out = []
    for label, cpx, allowed in verify._forest_formula_checks(g, inv):
        outcome = table.recognise(cpx, GrapeVariant.STRONG)
        if not outcome.is_yes:
            out.append((label, "fail", "strong grape", outcome.verdict))
            continue
        ok = outcome.wedge in allowed and table.homology(cpx).is_wedge(outcome.wedge)
        out.append((label, "pass" if ok else "fail", None, homology.class_name(outcome.wedge)))
    ok = inv.alpha0 == inv.beta1
    out.append(("konig-cover-matching", "pass" if ok else "fail", inv.beta1, inv.alpha0))
    return out


def test_forests_of_one_class_report_as_each_did_on_its_own_labelling():
    # one table for all: 622 forests, 389 classes
    table, forests = OutcomeTable(), forest_corpus()
    for g in forests:
        reports = verify_forest_theorem(g, table) + konig_reports(g, table)
        assert all(r.instance is g for r in reports)
        got = [(r.theorem, r.status, r.expected, r.observed) for r in reports]
        assert got == labelled_forest_reports(g), g
    classes = [key for key in table.stage if key[0] == "forest"]
    assert (len(forests), len(classes)) == (622, 389)


def test_a_suite_run_leaves_no_reference_cycle_behind():
    # a closure that calls itself through its cell is a reference cycle;
    # with the collector off, a run's cycles wait for the collection below,
    # which keeps them in gc.garbage.  The tree canonical form's and the
    # complex enumeration's recursive closures left 1,762 objects per run
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run_suite("full", 1729)
        gc.collect()
        garbage = len(gc.garbage)
        closures = {f.__name__ for f in gc.garbage if isinstance(f, types.FunctionType)}
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert not {"form", "rec"} & closures
    assert garbage == 0


def counting_star_quotients(monkeypatch):
    """Patch the one homology computation; returns the list of mask sets it reduces."""
    computed = []
    real = homology._star_quotient_homology

    def counted(c, v):
        computed.append(c.masks)
        return real(c, v)

    monkeypatch.setattr(homology, "_star_quotient_homology", counted)
    return computed


def test_homology_computations_per_run_are_pinned(monkeypatch):
    # every homology the run reads, in recognition, collapse searches, the
    # Alexander-duality check and the wedge checks, comes from the run's
    # table, which reduces each mask set once, in the stage that first needs
    # it: 118 at smoke/1729, where 204 were reduced.  The forest stage
    # builds its complexes once per isomorphism class, on one labelling, so
    # a mask set that another labelling of a forest gave it before is first
    # met by the lifted collapses.  The named instances run on their own
    # memos
    computed = counting_star_quotients(monkeypatch)
    per_stage = {}

    def close_stage(line):
        per_stage[line] = len(computed) - sum(per_stage.values())

    run_suite("smoke", 1729, log=close_stage)
    assert len(computed) == 118
    shared = computed[:-per_stage["named instances done"]]
    assert len(shared) == len(set(shared)) == 114
    assert {line: n for line, n in per_stage.items() if n} == {
        "alexander duality done": 27,
        "forest theorem done (44 forests)": 86,
        "lifted collapses done": 1,
        "named instances done": 4,
    }


def test_no_memo_outlives_its_call(monkeypatch, tmp_path, capsys):
    # the memos live in a call's own table or dict, not in the process
    computed = counting_star_quotients(monkeypatch)
    path = tmp_path / "c5.json"
    path.write_text(json.dumps(complex_to_json(cycle_complex(5))))
    outputs = []
    for _ in range(2):
        assert main(["homology", str(path)]) == 0
        outputs.append(capsys.readouterr().out)
    assert len(computed) == 2 and outputs[0] == outputs[1]
    runs = []
    for _ in range(2):
        computed.clear()
        runs.append((run_suite("smoke", 1729), len(computed)))
    assert runs[0] == runs[1] and runs[0][1] == 118


def test_pfpm_builds_once_per_path_family(monkeypatch):
    # two digraphs with one path family, {e1}, that differ off the path, and
    # a third that differs from the first in its arc ids alone
    first = digraph("stu", [("e1", "s", "t"), ("e2", "u", "s")], "s", "t")
    second = digraph("stu", [("e1", "s", "t"), ("e2", "t", "u")], "s", "t")
    renamed = digraph("stu", [("f1", "s", "t"), ("f2", "u", "s")], "s", "t")
    digraphs = (first, second, renamed)
    fresh = [[r.to_json() for r in verify_pfpm_theorem(d, OutcomeTable())] for d in digraphs]
    table = OutcomeTable()
    duals = counting(monkeypatch, verify, "alexander_dual")
    shared = [[r.to_json() for r in verify_pfpm_theorem(d, table)] for d in digraphs]
    assert len(duals) == 1 and [key[0] for key in table.stage].count("pfpm") == 1
    assert shared == fresh


def test_grape_duality_builds_the_dual_once(monkeypatch):
    c = new_complex("abc", [frozenset("ab"), frozenset("c")])
    expected = [grape_duality_report(c, variant, OutcomeTable()) for variant in GrapeVariant]
    assert sum(rep.details["primal_verdict"] == "yes" for rep in expected) > 1
    duals = counting(monkeypatch, verify, "alexander_dual")
    reports = verify.grape_duality_reports(c, 5, OutcomeTable())
    assert len(duals) == 1
    assert [r.to_json() for r in reports] == [
        rep.to_json() for rep in expected if rep.details["primal_verdict"] == "yes"
    ]
    # no yes, no dual: the projective plane is not a strong grape
    duals.clear()
    rp2 = new_complex("123456", [frozenset(f) for f in "123 124 135 146 156 236 245 256 345 346".split()])
    assert verify.grape_duality_reports(rp2, 5, OutcomeTable()) == []
    assert duals == []


def test_named_instance_harnesses():
    assert all(r.status == "pass" for r in five_cycle_reports())
    assert all(r.status == "pass" for r in cyclic_no_useless_reports())


def test_a_weak_certificate_that_fails_to_replay_gives_one_report(monkeypatch):
    def refuse(c, variant, certificate):
        raise ReplayError("refused")

    monkeypatch.setattr(verify, "verify_certificate", refuse)
    weak = [r for r in five_cycle_reports() if r.theorem == "five-cycle-weak"]
    assert [(r.status, r.observed) for r in weak] == [("fail", "refused")]


def reports_of(reports):
    return [(r.theorem, r.status, r.expected, r.observed, r.details) for r in reports]


def test_a_forest_complex_that_is_no_strong_grape_fails_its_report(monkeypatch):
    table = OutcomeTable()
    monkeypatch.setattr(table, "recognise", lambda c, variant: grape.GrapeVerdict("no"))
    names = ("independence", "dominance", "edge-cover", "edge-dominance")
    assert reports_of(verify_forest_theorem(path_graph(2), table)) == [
        (f"forest-{name}{dual}", "fail", "strong grape", "no", {})
        for dual in ("", "-dual") for name in names]


def test_a_path_complex_that_is_no_strong_grape_fails_its_report(monkeypatch):
    # path-free is recognised, path-missing comes back "no"
    d = digraph("sut", [("e1", "s", "u"), ("e2", "u", "t")], "s", "t")
    table = OutcomeTable()
    pm, real = graphs.pm_complex(d), table.recognise
    monkeypatch.setattr(table, "recognise", lambda c, variant: (
        grape.GrapeVerdict("no") if c == pm else real(c, variant)))
    assert reports_of(verify_pfpm_theorem(d, table)) == [
        ("pfpm-alexander-dual", "pass", None, None, {}),
        ("pfpm-path-free", "pass", "cross-polytope-boundary(1)", "cross-polytope-boundary(1)", {}),
        ("pfpm-path-missing", "fail", "strong grape", "no", {})]


def test_a_lifted_collapse_that_fails_to_replay_fails_its_report(monkeypatch):
    def refuse(c, a, steps):
        raise ReplayError("refused")

    monkeypatch.setattr(verify, "lifted_collapse", refuse)
    # the independence complex of the 3-path: the links of a and c are points
    ind_p3 = new_complex("abc", [frozenset("ac"), frozenset("b")])
    assert reports_of(lifted_collapse_reports(ind_p3, OutcomeTable())) == [
        ("lifted-collapse", "fail", None, "refused", {"element": a}) for a in "ac"]


def test_a_five_cycle_weak_recognition_that_ends_no_fails(monkeypatch):
    real = verify.check_grape
    monkeypatch.setattr(verify, "check_grape", lambda c, variant: (
        grape.GrapeVerdict("no") if variant is GrapeVariant.WEAK else real(c, variant)))
    assert [(r.theorem, r.status, r.observed) for r in five_cycle_reports()] == [
        ("five-cycle-not-combinatorial", "pass", "no"), ("five-cycle-weak", "fail", "no")]


def test_the_cyclic_digraphs_searches_fail_on_no(monkeypatch):
    monkeypatch.setattr(verify, "collapse_search", lambda c: ShvResult("no"))
    monkeypatch.setattr(verify, "check_grape", lambda c, variant: grape.GrapeVerdict("no"))
    statuses = {r.theorem: r.status for r in cyclic_no_useless_reports()}
    assert statuses["cyclic-no-useless-pf-collapsible"] == "fail"
    assert statuses["cyclic-no-useless-pf-void-class"] == "fail"
    assert statuses["cyclic-no-useless-pf-facets"] == "pass"


# -- no "unknown" fails, passes or vanishes ---------------------------------------------

# the harnesses of run_suite's stage table, each on instances where it
# reports today, as (instance, harness of the instance and a table)
C5 = cycle_complex(5)
IND_P3 = new_complex("abc", [frozenset("ac"), frozenset("b")])  # the links of a and c are points
EDGE_AND_POINT = new_complex("abc", [frozenset("ab"), frozenset("c")])
CONTRACT_CASES = {
    "duality_identity_reports": [(c, duality_identity_reports) for c in (C5, IND_P3)],
    "cad_report": [(c, lambda c, table: [cad_report(c, table)]) for c in (C5, IND_P3)],
    "grape_duality_reports": [(c, lambda c, table: verify.grape_duality_reports(c, 5, table))
                              for c in (C5, EDGE_AND_POINT)],
    "wedge_reports": [(c, lambda c, table, variant=variant: wedge_reports(c, variant, table))
                      for c in (IND_P3, EDGE_AND_POINT)
                      for variant in (GrapeVariant.STRONG, GrapeVariant.COMBINATORIAL)],
    "verify_forest_theorem": [(g, verify_forest_theorem) for g in (path_graph(2), path_graph(4), star_graph(3))],
    "konig_reports": [(path_graph(4), konig_reports)],
    "verify_pfpm_theorem": [(d, verify_pfpm_theorem) for d in (
        digraph("sut", [("e1", "s", "u"), ("e2", "u", "t")], "s", "t"), cyclic_no_useless_digraph(), digraph("st", [], "s", "t"))],
    "deletion_contraction_reports": [(cyclic_no_useless_digraph(), lambda d, _: deletion_contraction_reports(d))],
    "ground_independence_reports": [(c, ground_independence_reports) for c in (C5, IND_P3)],
    "lifted_collapse_reports": [(c, lifted_collapse_reports) for c in (IND_P3, EDGE_AND_POINT)],
    "five_cycle_reports": [(None, lambda _, __: five_cycle_reports())],
    "cyclic_no_useless_reports": [(None, lambda _, __: cyclic_no_useless_reports())],
}

# the theorems whose reports rest on no recognition or collapse search
SEARCH_FREE = {
    "duality-involution", "duality-deletion-link-swap", "combinatorial-alexander-duality",
    "konig-cover-matching", "pfpm-alexander-dual", "pfpm-empty-conventions",
    "pf-deletion-identity", "pf-contraction-identity", "pf-deletion-useless",
    "cyclic-no-useless-pf-facets", "cyclic-no-useless-pf-not-cone", "cyclic-no-useless-arc-check",
}


def searching_to_no_end(monkeypatch):
    """Every recognition and collapse search the harnesses run ends "unknown"."""
    monkeypatch.setattr(verify, "check_grape", lambda c, variant, *args, **memo: (
        grape.GrapeVerdict("unknown", reason="patched")))
    monkeypatch.setattr(verify, "collapse_search", lambda c, **memo: ShvResult("unknown"))


@pytest.mark.parametrize("name", CONTRACT_CASES)
def test_an_unknown_search_makes_its_report_unknown_in_every_harness(monkeypatch, name):
    assert set(CONTRACT_CASES) == set(HARNESSES)  # every harness of the stage table
    for instance, harness in CONTRACT_CASES[name]:
        real = harness(instance, OutcomeTable())
        assert real and all(r.status == "pass" for r in real), (name, instance)
        with monkeypatch.context() as patch:
            searching_to_no_end(patch)
            unknown = harness(instance, OutcomeTable())
        # no report fails, none that rests on a search passes, and none vanishes
        assert len(unknown) >= len(real), (name, instance)
        for r in unknown:
            if r.theorem in SEARCH_FREE:
                assert r.status == "pass", (name, r.theorem)
                continue
            assert r.status == "unknown", (name, r.theorem)
            assert r.observed in (None, "unknown"), (name, r.theorem)  # the verdict, if anything
            if r.theorem.startswith(("forest-", "pfpm-path-")):
                assert r.expected == "strong grape", (name, r.theorem)


@pytest.mark.parametrize("unknown_side", ["moved", "table"])
def test_ground_independence_is_unknown_when_either_side_is(monkeypatch, unknown_side):
    # the table holds C5's real verdicts and the moved copy comes back
    # unknown, or the table holds unknowns and the moved copy is searched
    table = OutcomeTable()
    for variant in GrapeVariant:
        if unknown_side == "moved":
            table.recognise(C5, variant)
        else:
            table.entries[(C5.masks, variant)] = grape.GrapeVerdict("unknown", reason="primed")
    if unknown_side == "moved":
        searching_to_no_end(monkeypatch)
    reports = ground_independence_reports(C5, table)
    assert [r.status for r in reports] == ["unknown"] * 4
    assert all("unknown" in (r.expected, r.observed) for r in reports)


def test_deletion_contraction_on_cyclic_digraph():
    reports = deletion_contraction_reports(cyclic_no_useless_digraph())
    assert reports and all(r.status == "pass" for r in reports)
    # both identity families must actually fire on this instance
    names = {r.theorem for r in reports}
    assert "pf-deletion-identity" in names
    assert "pf-contraction-identity" in names


def test_deletion_contraction_on_seeded_digraphs():
    for seed in range(25):
        d = gen_digraph(1 + seed % 4, seed % 6, seed)
        assert all(r.status == "pass" for r in deletion_contraction_reports(d))


def test_a_failing_arc_report_names_its_arc_by_id(monkeypatch):
    # with deletion and contraction that change nothing, every arc report
    # fails; as printed, each names its arc by id, not by its index, and its
    # instance reads back to the same digraph
    d = digraph("sut", [("x", "s", "u"), ("y", "u", "t"), ("z", "s", "t")], "s", "t")
    monkeypatch.setattr(verify, "delete_arc", lambda d, i: d)
    monkeypatch.setattr(verify, "contract_arc", lambda d, i: d)
    printed = [json.loads(json.dumps(r.to_json())) for r in deletion_contraction_reports(d)]
    assert [(p["theorem"], p["status"], p["details"]) for p in printed] == [
        ("pf-deletion-identity", "fail", {"arc": "x"}),
        ("pf-contraction-identity", "fail", {"arc": "x"}),
        ("pf-deletion-identity", "fail", {"arc": "y"}),
        ("pf-deletion-identity", "fail", {"arc": "z"}),
        ("pf-contraction-identity", "fail", {"arc": "z"}),
        ("pf-deletion-useless", "fail", {"arc": "x"}),
    ]
    assert all(digraph_from_json(p["instance"]) == d for p in printed)


def test_core_reports_on_a_mixed_bag():
    instances = standard_complexes(n_random=20, max_ground=5, exhaustive_max=2, seed=99)
    for c in instances:
        assert all(r.status == "pass" for r in duality_identity_reports(c, OutcomeTable()))
        assert all(r.status == "pass" for r in ground_independence_reports(c, OutcomeTable()))
        assert all(r.status == "pass" for r in lifted_collapse_reports(c, OutcomeTable()))
        for variant in (GrapeVariant.STRONG, GrapeVariant.COMBINATORIAL):
            assert all(r.status == "pass" for r in wedge_reports(c, variant, OutcomeTable()))
        if len(c.ground) >= 1:
            assert cad_report(c, OutcomeTable()).status == "pass"


def test_konig_on_forests():
    assert [r.status for r in konig_reports(path_graph(5), OutcomeTable())] == ["pass"]
    assert [r.status for r in konig_reports(star_graph(4), OutcomeTable())] == ["pass"]
    # it takes forests only, and refuses a cycle as the forest harness does
    with pytest.raises(InputError, match="^forest theorem harness needs a forest$"):
        konig_reports(graph("abc", [("a", "b"), ("b", "c"), ("a", "c")]), OutcomeTable())


def test_reports_embed_a_reproducible_instance():
    # a report holds its instance and writes it as JSON when printed; the
    # JSON parses back and reproduces the same statuses, for a complex, a
    # graph and a digraph
    from grapes import complex_from_json

    cases = [
        (new_complex("ab", [frozenset("a")]),
         lambda c: duality_identity_reports(c, OutcomeTable()), complex_from_json),
        (path_graph(4), lambda g: verify_forest_theorem(g, OutcomeTable()), graph_from_json),
        (cyclic_no_useless_digraph(), deletion_contraction_reports, digraph_from_json),
    ]
    for instance, harness, from_json in cases:
        reports = harness(instance)
        assert reports and all(r.instance is instance for r in reports)
        written = {json.dumps(r.to_json()["instance"]) for r in reports}
        assert len(written) == 1
        replayed = harness(from_json(json.loads(written.pop())))
        assert [x.to_json() for x in replayed] == [x.to_json() for x in reports]


def test_unprinted_reports_build_no_json(monkeypatch):
    # a passing run prints no report, so it writes no instance as JSON: the
    # one writer call left is the named digraph's PF facets, which are
    # report content
    calls = []

    def counted(real):
        def write(x):
            calls.append(x)
            return real(x)
        return write

    for kind, real in list(verify._INSTANCE_JSON.items()):
        write = counted(real)
        monkeypatch.setitem(verify._INSTANCE_JSON, kind, write)
        monkeypatch.setattr(verify, real.__name__, write, raising=False)  # where reports are made
    summary = run_suite("smoke", 7)
    assert summary["pass"] > 1000 and summary["fail"] == summary["unknown"] == 0
    assert calls == [graphs.pf_complex(cyclic_no_useless_digraph())]
    # a printed report does write its instance
    calls.clear()
    (report,) = konig_reports(path_graph(3), OutcomeTable())
    assert report.to_json()["instance"] == graph_to_json(path_graph(3))
    assert calls == [path_graph(3)]


def assert_same_summary(got, want):
    """Two suite summaries are equal: the counts first, then the report
    lists, where a failure names the first report out of place, then the
    rest, so that a difference is shown small."""
    counts = ("pass", "fail", "unknown")
    assert [got[k] for k in counts] == [want[k] for k in counts]
    assert got["reports"] == want["reports"]
    assert got == want


def test_suite_smoke_passes_and_is_deterministic():
    first = run_suite("smoke", seed=7)
    second = run_suite("smoke", seed=7)
    assert first["fail"] == 0
    assert first["unknown"] == 0
    assert first["pass"] > 1000
    assert_same_summary(first, second)


def test_suite_rejects_unknown_level():
    with pytest.raises(ValueError):
        run_suite("gigantic")


def test_ground_independence_fails_on_an_order_dependent_recognizer(monkeypatch):
    def by_first_element(c, variant, budget=grape.DEFAULT_BUDGET, *, profiles=None):
        verdict = "yes" if c.ground and c.ground[0] == "a" else "no"
        return grape.GrapeVerdict(verdict, wedge={} if verdict == "yes" else None)

    monkeypatch.setattr(verify, "check_grape", by_first_element)
    reports = ground_independence_reports(new_complex("ab", [frozenset("ab")]), OutcomeTable())
    assert len(reports) == 4
    assert all(r.status == "fail" for r in reports)


# -- the forest wedge lists, against the explicit formulas ---------------------


def explicit_forest_formulas(g, inv):
    """Each forest complex's formula written out by hand, by label, the duals'
    empty-ground cases forced as the harness forces them: the oracle for the
    wedge lists the harness builds, the duals' through ``dual_wedge``."""
    n_v, n_e = len(g.vertices), len(g.edges)

    def sphere_or_void(n):
        return lambda wedge: not wedge or (wedge == {n - 1: 1} and inv.i_dom == inv.gamma)

    def exactly(n):
        return lambda wedge: wedge == {n - 1: 1}

    def forced(wedge_of_the_empty_ground):
        return lambda wedge: wedge == wedge_of_the_empty_ground

    return {
        "forest-independence": sphere_or_void(inv.i_dom),
        "forest-dominance": exactly(inv.alpha0),
        "forest-edge-cover": sphere_or_void(n_e - n_v + inv.i_dom),
        "forest-edge-dominance": exactly(n_e - inv.alpha0),
        "forest-independence-dual": sphere_or_void(n_v - inv.i_dom - 1) if n_v else forced({}),
        "forest-dominance-dual": exactly(n_v - inv.alpha0 - 1) if n_v else forced({}),
        "forest-edge-cover-dual": (sphere_or_void(n_v - inv.i_dom - 1) if n_e
                                   else forced({-1: 1} if n_v else {})),
        "forest-edge-dominance-dual": exactly(inv.alpha0 - 1) if n_e else forced({}),
    }


CANDIDATE_WEDGES = [{}] + [{k: m} for k in range(-2, 25) for m in (1, 2)]


def test_forest_wedge_lists_match_the_explicit_formulas():
    full = SIZES["full"]
    forests = {
        *generators.all_trees(10),
        *(generators.gen_forest(n, seed, drop)
          for n in range(1, 17) for seed in range(6) for drop in range(3)),
        *verify.standard_forests(full.n_forests, full.max_tree, 1729),
    }
    cases = 0
    for g in forests:
        inv = graphs.invariants(g)
        explicit = explicit_forest_formulas(g, inv)
        checks = verify._forest_formula_checks(g, inv)
        assert [label for label, _, _ in checks] == list(explicit)
        for label, _, allowed in checks:
            assert all(wedge in CANDIDATE_WEDGES for wedge in allowed), (g, label)
            for wedge in CANDIDATE_WEDGES:
                assert (wedge in allowed) == explicit[label](wedge), (g, label, wedge)
                cases += 1
    assert len(forests) == 536  # 201 trees, 288 seeded forests and the suite's, less repeats
    assert cases == len(forests) * 8 * len(CANDIDATE_WEDGES)


def test_path_missing_reads_its_wedge_through_the_shift():
    # on every digraph of the full suite at 1729, PF's expected class and
    # PM's, its shift by duality on the arcs, are the explicit formulas'
    full, table, checked = SIZES["full"], OutcomeTable(), 0
    for d in verify.standard_digraphs(full.n_random_digraphs, *full.exhaustive_digraph, seed=1729):
        if not d.arcs:
            continue
        n_nonsinks = len(graphs.nonsinks(d))
        degenerate = graphs.useless_arcs(d) or graphs.has_cycle(d)
        dims = (None, None) if degenerate else (n_nonsinks - 1, len(d.arcs) - n_nonsinks)
        out = {r.theorem: r for r in verify_pfpm_theorem(d, table)}
        for name, n in zip(("path-free", "path-missing"), dims):
            explicit = {} if n is None else {n - 1: 1}
            assert out[f"pfpm-{name}"].expected == homology.class_name(explicit), (d, name)
        checked += 1
    assert checked == 6968  # the 7,020 digraphs less the 52 with no arc


# -- the suite against a naive runner -------------------------------------------


def reference_suite(level, seed, log=None):
    """The suite as one loop per stage, checking every occurrence of every
    instance from scratch; harnesses are looked up on the module at call
    time so that tests can replace them."""
    sizes = SIZES[level]
    say = log or (lambda msg: None)
    reports = []
    complexes = verify.standard_complexes(
        sizes.n_random_complexes, sizes.max_ground, sizes.exhaustive_ground, seed
    )
    say(f"instance set: {len(complexes)} complexes")
    for c in complexes:
        reports.extend(verify.duality_identity_reports(c, OutcomeTable()))
    say("duality identities done")
    for c in complexes:
        if len(c.ground) >= 1:
            reports.append(verify.cad_report(c, OutcomeTable()))
    say("alexander duality done")
    for c in complexes:
        reports.extend(verify.grape_duality_reports(c, sizes.small_variants_max_ground, OutcomeTable()))
    say("grape duality done")
    for c in complexes:
        reports.extend(verify.wedge_reports(c, GrapeVariant.STRONG, OutcomeTable()))
    say("strong/homology consistency done")
    forests = verify.standard_forests(sizes.n_forests, sizes.max_tree, seed)
    for g in forests:
        reports.extend(verify.verify_forest_theorem(g, OutcomeTable()))
        reports.extend(verify.konig_reports(g, OutcomeTable()))
    say(f"forest theorem done ({len(forests)} forests)")
    digraphs = verify.standard_digraphs(
        sizes.n_random_digraphs, *sizes.exhaustive_digraph, seed=seed
    )
    for d in digraphs:
        reports.extend(verify.verify_pfpm_theorem(d, OutcomeTable()))
    say(f"path-free/path-missing done ({len(digraphs)} digraphs)")
    for i in range(sizes.n_identity_digraphs):
        d = gen_digraph(1 + i % 5, i % 8, seed + 7000 + i)
        reports.extend(verify.deletion_contraction_reports(d))
    say("deletion/contraction identities done")
    for c in complexes:
        reports.extend(verify.ground_independence_reports(c, OutcomeTable()))
    say("ground independence done")
    for c in complexes:
        reports.extend(verify.lifted_collapse_reports(c, OutcomeTable()))
    say("lifted collapses done")
    for c in complexes:
        reports.extend(verify.wedge_reports(c, GrapeVariant.COMBINATORIAL, OutcomeTable()))
    say("wedge predictions done")
    reports.extend(verify.five_cycle_reports())
    reports.extend(verify.cyclic_no_useless_reports())
    say("named instances done")
    return {
        "level": level,
        "seed": seed,
        "pass": sum(1 for r in reports if r.status == "pass"),
        "fail": sum(1 for r in reports if r.status == "fail"),
        "unknown": sum(1 for r in reports if r.status == "unknown"),
        "notes": [
            "(co)homological duality checked on nonempty ground sets only: the "
            "index map i -> |X|-i-3 is degenerate for |X| = 0 and the identity "
            "provably fails there"
        ],
        "reports": [r.to_json() for r in reports if r.status != "pass"],
    }


SMOKE_7_STAGE_LINES = [
    "instance set: 91 complexes",
    "duality identities done",
    "alexander duality done",
    "grape duality done",
    "strong/homology consistency done",
    "forest theorem done (44 forests)",
    "path-free/path-missing done (184 digraphs)",
    "deletion/contraction identities done",
    "ground independence done",
    "lifted collapses done",
    "wedge predictions done",
    "named instances done",
]


@pytest.mark.parametrize("seed", [1, 7])
def test_suite_matches_the_naive_reference(seed):
    fast, naive = [], []
    got = run_suite("smoke", seed, log=fast.append)
    want = reference_suite("smoke", seed, log=naive.append)
    assert_same_summary(got, want)
    assert fast == naive


def test_suite_stage_lines_are_pinned():
    # perfbench names its verify.stage.* metrics after these exact lines
    lines = []
    run_suite("smoke", 7, log=lines.append)
    assert lines == SMOKE_7_STAGE_LINES


TO_JSON = {Complex: complex_to_json, Graph: graph_to_json, Digraph: digraph_to_json,
           GrapeVariant: lambda v: v.value}


HARNESSES = {
    # name: what the harness returns, a list of reports, one report, or a
    # list that may be empty
    "duality_identity_reports": "list",
    "cad_report": "one",
    "grape_duality_reports": "list",
    "verify_forest_theorem": "list",
    "konig_reports": "list",
    "verify_pfpm_theorem": "list",
    "deletion_contraction_reports": "list",
    "ground_independence_reports": "list",
    "lifted_collapse_reports": "list",
    "wedge_reports": "maybe",
    "five_cycle_reports": "list",
    "cyclic_no_useless_reports": "list",
}


# the statuses of a fake harness's reports when mixed, by its arguments' JSON
# length mod 3: all passing, passes around a failure and an unknown, no pass
MIXED = (("pass", "pass"), ("pass", "fail", "pass", "unknown"), ("unknown", "fail"))


def _recorded_run(monkeypatch, runner, seed=7, mixed=False):
    """Run a smoke suite with every harness replaced by one that records its
    arguments and returns a failing report on its instance, the first
    argument (the 5-cycle for the named-instance harnesses, which take
    none), naming them all (or no report, on some instances, where the
    real harness may).  When mixed, a harness that returns a list returns
    reports of the statuses MIXED picks, each naming its place too, and
    one that returns one report takes the last of them."""
    calls = defaultdict(list)

    def fake(name, returns):
        def harness(*args):
            # the suite also hands over the run's outcome table
            args = tuple(a for a in args if not isinstance(a, verify.OutcomeTable))
            calls[name].append(args)
            named = [TO_JSON.get(type(a), lambda v: v)(a) for a in args]
            key = len(json.dumps(named)) % 3
            if returns == "maybe" and key == 0:
                return []
            instance = args[0] if args else cycle_complex(5)
            statuses = MIXED[key] if mixed else ("fail",)
            out = [VerificationReport(name, instance, status, details={"args": named, "at": i})
                   for i, status in enumerate(statuses)]
            return out[-1] if returns == "one" else out

        return harness

    with monkeypatch.context() as patch:
        for name, returns in HARNESSES.items():
            patch.setattr(verify, name, fake(name, returns))
        summary = runner("smoke", seed)
    return summary, calls


def test_each_stage_runs_its_harness_once_per_distinct_instance(monkeypatch):
    fast, fast_calls = _recorded_run(monkeypatch, run_suite)
    naive, naive_calls = _recorded_run(monkeypatch, reference_suite)
    # same reports in the same order, repeats counted at every occurrence
    assert_same_summary(fast, naive)
    assert set(fast_calls) == set(naive_calls) == set(HARNESSES)
    for name, args in fast_calls.items():
        assert len(args) == len(set(args)), name
        assert set(args) == set(naive_calls[name]), name
    # the smoke instance sets do repeat instances, so the test has teeth
    assert len(naive_calls["duality_identity_reports"]) > len(fast_calls["duality_identity_reports"])
    assert len(naive_calls["verify_pfpm_theorem"]) > len(fast_calls["verify_pfpm_theorem"])


@pytest.mark.parametrize("seed", [1, 7])
def test_the_tally_counts_mixed_reports_as_the_reference_does(monkeypatch, seed):
    # the run holds only the non-passing reports of each distinct instance
    # and replays them, with its number of passes, at every occurrence
    fast, _ = _recorded_run(monkeypatch, run_suite, seed, mixed=True)
    naive, _ = _recorded_run(monkeypatch, reference_suite, seed, mixed=True)
    assert_same_summary(fast, naive)
    # every status counts, and some instance's pass, fail, pass, unknown is
    # held as its fail and its unknown, so the test has teeth
    assert min(naive["pass"], naive["fail"], naive["unknown"]) > 0
    assert any(r["details"]["at"] == 3 for r in naive["reports"])


def test_a_smoke_run_holds_little_memory():
    # the run tallies as it goes and holds only its non-passing reports, and
    # each stage's instances and private memo live for that stage alone.
    # After a first run, so that what the interpreter allocates once per
    # process is not counted, tracemalloc's peak for smoke/1729 reads
    # 386-451 KB on CPython 3.10-3.13, where runs that held every instance
    # set and private memo entry to the end read 541-668 KB, and a run that
    # also kept every report read 0.89-0.92 MB (CPython 3.11)
    import tracemalloc

    run_suite("smoke", 1729)
    tracemalloc.start()
    try:
        summary = run_suite("smoke", 1729)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (summary["pass"], summary["fail"], summary["unknown"]) == (2607, 0, 0)
    assert peak < 500_000


def test_each_stage_drops_its_instances_and_private_memo_as_it_ends(monkeypatch):
    # the forests, the digraphs and the identity digraphs are built as their
    # stage starts, and dropped, with the stage's memo, before its line is
    # logged; the table's recognitions, duals and profiles live for the run
    tables = []

    class Recorded(OutcomeTable):
        def __init__(self):
            super().__init__()
            tables.append(self)

    def instances():
        return [o for o in gc.get_objects() if type(o) in (Graph, Digraph)]

    def made_by_the_run():
        return [o for o in instances() if id(o) not in before]

    held = []  # per line: the run-wide keys, and the instances and stage entries left

    def log(line):
        table = tables[0] if tables else OutcomeTable()  # none yet at the first line
        held.append((line, set(table.entries), set(table.profiles), made_by_the_run(), dict(table.stage)))

    monkeypatch.setattr(verify, "OutcomeTable", Recorded)
    # the count can see both kinds of instance
    assert gc.is_tracked(path_graph(2)) and gc.is_tracked(cyclic_no_useless_digraph())
    gc.collect()
    kept = instances()  # alive through the run, so that no run-made instance takes an id of theirs
    before = set(map(id, kept))
    summary = run_suite("smoke", 7, log=log)
    assert summary["pass"] > 0 and summary["fail"] == 0
    assert [line for line, *_ in held] == SMOKE_7_STAGE_LINES
    for line, _, _, instances, stage in held:
        assert instances == [] and stage == {}, line
    # nothing run-wide is dropped, and the forest and path stages add to it
    grown = {}
    for (_, entries, profiles, _, _), (line, later_entries, later_profiles, _, _) in zip(held, held[1:]):
        assert entries <= later_entries and profiles <= later_profiles, line
        grown[line] = (len(later_entries) > len(entries), len(later_profiles) > len(profiles))
    assert grown["forest theorem done (44 forests)"] == (True, True)
    assert grown["path-free/path-missing done (184 digraphs)"][0]


# -- outcome tables -------------------------------------------------------------------


def counting_searches(monkeypatch):
    """Replace the one recognition function, which the outcome table, ground
    independence and the named instances call; returns the list of
    (complex, variant) keys it is called with."""
    keys = []
    real = grape.check_grape

    def counting(c, variant, *args, **memo):
        keys.append((c, variant))
        return real(c, variant, *args, **memo)

    monkeypatch.setattr(verify, "check_grape", counting)
    return keys


def searches_per_stage(monkeypatch, runner, seed):
    """The searched keys of each stage of a smoke suite, by stage line."""
    keys = counting_searches(monkeypatch)
    per_stage = {}

    def close_stage(line):
        per_stage[line] = keys[:]
        keys.clear()

    runner("smoke", seed, log=close_stage)
    return per_stage


@pytest.mark.parametrize("seed", [1, 7])
def test_no_suite_stage_searches_a_key_twice(monkeypatch, seed):
    for line, searched in searches_per_stage(monkeypatch, run_suite, seed).items():
        assert len(searched) == len(set(searched)), line
    # checking every occurrence on its own does repeat keys, so the test has teeth
    naive = searches_per_stage(monkeypatch, reference_suite, seed)
    assert any(len(searched) > len(set(searched)) for searched in naive.values())


def test_searches_per_smoke_run_are_pinned(monkeypatch):
    # one table per run: a mask set recognised in one stage is not searched
    # again in another, under any names, and a variant that a stronger
    # variant's "yes" settles is not searched at all; 278 searches at
    # smoke/1729, and 292 while the forest stage searched every labelling of
    # a forest, when a table per stage made 770 and a table without the
    # variant lattice 371.  Ground independence still searches every
    # distinct complex's moved copy afresh, for each variant.
    keys = counting_searches(monkeypatch)
    run_suite("smoke", 1729)
    assert len(keys) == 278
    moved = [(c, variant) for c, variant in keys if c.ground and c.ground[-1].startswith("_")]
    sizes = SIZES["smoke"]
    complexes = standard_complexes(sizes.n_random_complexes, sizes.max_ground,
                                   sizes.exhaustive_ground, 1729)
    assert len(moved) == len(set(moved)) == 4 * len(set(complexes)) == 152


@pytest.mark.parametrize("seed", [1, 7])
def test_the_run_table_agrees_with_fresh_computations(monkeypatch, seed):
    tables = []

    class Captured(verify.OutcomeTable):
        def __init__(self):
            super().__init__()
            tables.append(self)

    # every recognition of the run, the table's and ground independence's,
    # is a check_grape call, recorded with the memo it reads
    searches = []
    real = grape.check_grape

    def recorded(c, variant, budget=grape.DEFAULT_BUDGET, *, profiles=None):
        found = real(c, variant, budget, profiles=profiles)
        searches.append((c, variant, profiles, found))
        return found

    monkeypatch.setattr(verify, "OutcomeTable", Captured)
    monkeypatch.setattr(verify, "check_grape", recorded)
    run_suite("smoke", seed)
    monkeypatch.undo()
    (table,) = tables  # one for the whole run

    def on_masks(masks):
        names = tuple(f"x{i}" for i in range(complexes.join_mask(masks).bit_length()))
        return Complex(names, masks)

    outcomes = {key: v for key, v in table.entries.items() if isinstance(key[-1], GrapeVariant)}
    duals = {key[1]: v for key, v in table.entries.items() if key[0] == "dual"}
    assert len(table.profiles) > 100 and len(outcomes) > 200 and len(duals) > 100
    for masks, profile in table.profiles.items():
        assert profile == homology.reduced_homology(on_masks(masks)), masks
    # an entry is a lone check_grape's verdict, reason and wedge, less the
    # certificate; one read off a stronger variant's "yes" keeps that
    # search's node count, so nodes are compared on searched entries only
    for (masks, variant), outcome in outcomes.items():
        fresh = real(on_masks(masks), variant)
        wedge = grape.predicted_wedge(fresh.certificate) if fresh.is_yes else None
        assert outcome.certificate is None, (masks, variant)
        assert (outcome.verdict, outcome.reason, outcome.wedge) == (
            fresh.verdict, fresh.reason, wedge), (masks, variant)
    for c, dual in duals.items():
        assert dual.ground == c.ground and dual == complexes.alexander_dual(c), c
    # every search that read the run's profiles, the moved complexes'
    # included, is a lone check_grape's verdict, certificate included, and
    # a lone search on the run's profiles gives that verdict too
    shared = [r for r in searches if r[2] is table.profiles]
    assert len(shared) > 200
    # every table search files one outcome; the rest were read off a
    # stronger variant's "yes", and the loop above checked them too
    moved = [r for r in shared if r[0].ground and r[0].ground[-1].startswith("_")]
    assert len(outcomes) > len(shared) - len(moved)
    for c, variant, _, found in shared:
        lone = real(c, variant)
        assert found == lone, (c, variant)
        assert real(c, variant, profiles=table.profiles) == lone, (c, variant)


def test_ground_independence_searches_each_moved_copy_on_its_own_key(monkeypatch):
    keys = counting_searches(monkeypatch)
    c = new_complex("abc", [frozenset("ab"), frozenset("bc")])
    reports = ground_independence_reports(c, OutcomeTable())
    assert [r.status for r in reports] == ["pass"] * 4
    # the path abc is a cone: its strong "yes" settles the other three
    # variants on c, while the moved copy is searched for every variant
    assert len(keys) == 5 and len(set(keys)) == 5
    assert keys[0] == (c, GrapeVariant.STRONG)
    for variant in GrapeVariant:
        (moved, _), = [k for k in keys[1:] if k[1] is variant]
        assert moved != c and moved.facets == c.facets


def test_a_strong_yes_settles_every_weaker_variant_without_a_search(monkeypatch):
    keys = counting_searches(monkeypatch)
    table = OutcomeTable()
    c = new_complex("ab", [frozenset("a"), frozenset("b")])  # the 0-sphere
    strong = table.recognise(c, GrapeVariant.STRONG)
    assert (strong.verdict, strong.wedge) == ("yes", {0: 1})
    for variant in (GrapeVariant.COMBINATORIAL, GrapeVariant.STRONG_WEAK, GrapeVariant.WEAK):
        assert table.recognise(c, variant) is strong
    assert keys == [(c, GrapeVariant.STRONG)]


def test_a_comb_yes_settles_weak_but_not_strong_weak(monkeypatch):
    keys = counting_searches(monkeypatch)
    table = OutcomeTable()
    c = new_complex("abcd", [frozenset("ab"), frozenset("c"), frozenset("d")])
    assert table.recognise(c, GrapeVariant.STRONG).verdict == "no"
    comb = table.recognise(c, GrapeVariant.COMBINATORIAL)
    assert (comb.verdict, comb.wedge) == ("yes", {0: 2})
    assert table.recognise(c, GrapeVariant.WEAK) is comb
    assert table.recognise(c, GrapeVariant.STRONG_WEAK).verdict == "no"
    assert keys == [(c, GrapeVariant.STRONG), (c, GrapeVariant.COMBINATORIAL),
                    (c, GrapeVariant.STRONG_WEAK)]


def test_the_table_searches_no_variant_it_is_not_asked_for(monkeypatch):
    keys = counting_searches(monkeypatch)
    table = OutcomeTable()
    c = new_complex("ab", [frozenset("a"), frozenset("b")])
    # comb asked before strong is searched: no strong search runs first
    assert table.recognise(c, GrapeVariant.COMBINATORIAL).is_yes
    assert table.recognise(c, GrapeVariant.STRONG).is_yes
    assert table.recognise(c, GrapeVariant.WEAK).is_yes
    assert keys == [(c, GrapeVariant.COMBINATORIAL), (c, GrapeVariant.STRONG)]


@pytest.mark.parametrize("order", [list(GrapeVariant), list(reversed(GrapeVariant))])
def test_a_no_is_never_derived(monkeypatch, order):
    # RP2's torsion makes it no grape of any variant: each "no" is searched
    keys = counting_searches(monkeypatch)
    table = OutcomeTable()
    assert [table.recognise(RP2, variant).verdict for variant in order] == ["no"] * 4
    assert keys == [(RP2, variant) for variant in order]


def test_outcome_table_computes_each_key_once():
    table = OutcomeTable()
    calls = []

    def compute(value):
        calls.append(value)
        return value

    # an empty list or a False is a value like any other, not a miss
    for value in ([], False, None, [1], [], False, None, [1]):
        assert table.once(("k", repr(value)), lambda: compute(value)) == value
    assert calls == [[], False, None, [1]]


def test_outcome_table_entries_hold_no_certificate():
    table = OutcomeTable()
    for c in standard_complexes(n_random=10, max_ground=4, exhaustive_max=2, seed=3):
        for variant in GrapeVariant:
            table.recognise(c, variant)
    entries = table.entries.values()
    # each entry is the search's own verdict, with no certificate
    assert entries and all(type(e) is grape.GrapeVerdict for e in entries)
    assert all(e.certificate is None for e in entries)
    # the wedge is set exactly on every yes, of every variant
    assert all((e.wedge is not None) == e.is_yes for e in entries)
    assert {v for (_, v), e in table.entries.items() if e.is_yes} == set(GrapeVariant)


def test_every_yes_of_the_full_suite_carries_a_certificate_that_replays(monkeypatch):
    # every recognition of a suite run is a check_grape call, so every "yes"
    # that the run searches comes with a certificate, and each replays
    # against its complex without searching
    found = []
    real = grape.check_grape

    def spied(c, variant, *args, **memo):
        verdict = real(c, variant, *args, **memo)
        found.append((c, variant, verdict))
        return verdict

    monkeypatch.setattr(verify, "check_grape", spied)
    run_suite("full", 1729)
    monkeypatch.undo()
    yes = [(c, variant, verdict.certificate) for c, variant, verdict in found if verdict.is_yes]
    assert len(yes) == 1669  # 1,977 while the forest stage searched every labelling of a forest
    for c, variant, cert in yes:
        grape.verify_certificate(c, variant, cert)


# sha256 of `grapes suite --level full --seed 1729` stdout and stderr
FULL_SUITE_1729 = (
    "912ab1ad32d355bdfd0fa32424b881c690a80946993a7497e52186b6256f4ec5",
    "a76aceb3e30fdac21b474e25da8e0dca55d70d027914f5d6faad169c057be9e2",
)


def full_suite_digests(capsys, seed):
    assert main(["suite", "--level", "full", "--seed", seed]) == 0
    captured = capsys.readouterr()
    return tuple(hashlib.sha256(text.encode()).hexdigest() for text in (captured.out, captured.err))


def test_full_suite_output_is_byte_stable(capsys):
    assert full_suite_digests(capsys, "1729") == FULL_SUITE_1729


def test_two_full_suites_in_one_process_match_the_pin(capsys):
    # a suite run's memos live in its own table, so a second run in the same
    # process recomputes everything and prints the same bytes
    assert [full_suite_digests(capsys, "1729") for _ in range(2)] == [FULL_SUITE_1729] * 2


def test_full_suite_output_is_byte_stable_at_seed_7(capsys):
    # sha256 of `grapes suite --level full --seed 7` stdout and stderr, a
    # seed held out from tuning: what the run's outcome table holds depends
    # on which variant each stage asks for first, and these bytes do not
    assert full_suite_digests(capsys, "7") == (
        "cc00d9ca876707f78441f51c5cce213f00981d019e116edc808c1a74e4b6ef57",
        "a76aceb3e30fdac21b474e25da8e0dca55d70d027914f5d6faad169c057be9e2",
    )
