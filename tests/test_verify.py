"""Verification harnesses on pinned instances, and suite determinism."""

import dataclasses
import functools
import hashlib
import json
from collections import defaultdict
from types import SimpleNamespace

import pytest

import grapes.complexes as complexes
import grapes.grape as grape
import grapes.graphs as graphs
import grapes.homology as homology
import grapes.verify as verify
from grapes import GrapeVariant, InputError, ReplayError, digraph, graph, new_complex, verify_dual_invariance
from grapes.cli import main
from grapes.complexes import Complex, complex_to_json
from grapes.generators import cycle_complex, cyclic_no_useless_digraph, gen_digraph
from grapes.graphs import Digraph, Graph, digraph_to_json, graph_to_json
from test_graphs import path_graph, star_graph
from grapes.verify import (
    SIZES,
    VerificationReport,
    cad_report,
    duality_identity_reports,
    cyclic_no_useless_reports,
    deletion_contraction_reports,
    five_cycle_reports,
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
    out = classes_of(verify_forest_theorem(path_graph(2)))
    assert out["forest-independence"] == ("pass", "cross-polytope-boundary(1)")
    assert out["forest-dominance"] == ("pass", "cross-polytope-boundary(1)")
    assert out["forest-edge-cover"] == ("pass", "cross-polytope-boundary(0)")
    assert out["forest-edge-dominance"] == ("pass", "cross-polytope-boundary(0)")


def test_forest_theorem_on_four_path():
    out = classes_of(verify_forest_theorem(path_graph(4)))
    # the independence complex of the 4-path is collapsible
    assert out["forest-independence"] == ("pass", "void")
    assert all(status == "pass" for status, _ in out.values())


def test_forest_theorem_on_star():
    out = classes_of(verify_forest_theorem(star_graph(3)))
    assert out["forest-dominance"] == ("pass", "cross-polytope-boundary(1)")
    assert all(status == "pass" for status, _ in out.values())


def test_forest_theorem_on_single_vertex():
    # empty edge set: the edge complexes live on an empty ground set
    out = classes_of(verify_forest_theorem(graph("v", [])))
    assert out["forest-edge-cover"] == ("pass", "void")
    assert out["forest-edge-cover-dual"] == ("pass", "cross-polytope-boundary(0)")
    assert out["forest-edge-dominance-dual"] == ("pass", "void")
    assert all(status == "pass" for status, _ in out.values())


def test_forest_theorem_rejects_cycles():
    with pytest.raises(InputError, match="needs a forest"):
        verify_forest_theorem(graph("abc", [("a", "b"), ("b", "c"), ("a", "c")]))


def test_pfpm_on_two_arc_path():
    d = digraph("sut", [("e1", "s", "u"), ("e2", "u", "t")], "s", "t")
    out = classes_of(verify_pfpm_theorem(d))
    assert out["pfpm-path-free"] == ("pass", "cross-polytope-boundary(1)")
    assert out["pfpm-path-missing"] == ("pass", "cross-polytope-boundary(0)")


def test_pfpm_on_parallel_arcs():
    d = digraph("st", [("e1", "s", "t"), ("e2", "s", "t")], "s", "t")
    out = classes_of(verify_pfpm_theorem(d))
    assert out["pfpm-path-free"] == ("pass", "cross-polytope-boundary(0)")
    assert out["pfpm-path-missing"] == ("pass", "cross-polytope-boundary(1)")


def test_pfpm_on_cyclic_no_useless_digraph():
    out = classes_of(verify_pfpm_theorem(cyclic_no_useless_digraph()))
    assert out["pfpm-path-free"] == ("pass", "void")
    assert out["pfpm-path-missing"] == ("pass", "void")


def test_pfpm_empty_conventions():
    for s, t in (("s", "t"), ("s", "s")):
        d = digraph("st", [], s, t)
        reports = verify_pfpm_theorem(d)
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
    """Patch the Digraph.paths view with one that records each digraph whose
    s-t paths it lists."""
    listed = []
    real = graphs.Digraph.paths.func

    def paths(d):
        listed.append(d)
        return real(d)

    view = functools.cached_property(paths)
    view.__set_name__(graphs.Digraph, "paths")
    monkeypatch.setattr(graphs.Digraph, "paths", view)
    return listed


def test_pfpm_lists_the_st_paths_once(monkeypatch):
    # a digraph keeps its path list, so each check starts from a fresh one
    before = verify_pfpm_theorem(cyclic_no_useless_digraph())
    paths = counting_path_lists(monkeypatch)
    d = cyclic_no_useless_digraph()
    assert [r.to_json() for r in verify_pfpm_theorem(d)] == [r.to_json() for r in before]
    assert len(paths) == 1
    paths.clear()
    d = cyclic_no_useless_digraph()
    deletion_contraction_reports(d)
    assert sum(listed is d for listed in paths) == 1
    paths.clear()
    digraphs = verify.standard_digraphs(40, 2, 3)
    for d in digraphs:
        verify_pfpm_theorem(d)
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

    for module in (verify, grape, homology):
        monkeypatch.setattr(module, "alexander_dual", counted)
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
    forests = verify.standard_forests(SIZES["smoke"].n_forests, SIZES["smoke"].max_tree, 1729)
    assert per_stage == {"forest theorem done (44 forests)": len(set(forests))}


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
    # it: 131 at smoke/1729, where 204 were reduced.  The named instances
    # run on their own memos
    computed = counting_star_quotients(monkeypatch)
    per_stage = {}

    def close_stage(line):
        per_stage[line] = len(computed) - sum(per_stage.values())

    run_suite("smoke", 1729, log=close_stage)
    assert len(computed) == 131
    shared = computed[:-per_stage["named instances done"]]
    assert len(shared) == len(set(shared)) == 127
    assert {line: n for line, n in per_stage.items() if n} == {
        "alexander duality done": 27,
        "forest theorem done (44 forests)": 100,
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
    assert runs[0] == runs[1] and runs[0][1] == 131


def test_pfpm_builds_once_per_path_family(monkeypatch):
    # two digraphs with one path family, {e1}, that differ off the path, and
    # a third that differs from the first in its arc ids alone
    first = digraph("stu", [("e1", "s", "t"), ("e2", "u", "s")], "s", "t")
    second = digraph("stu", [("e1", "s", "t"), ("e2", "t", "u")], "s", "t")
    renamed = digraph("stu", [("f1", "s", "t"), ("f2", "u", "s")], "s", "t")
    digraphs = (first, second, renamed)
    fresh = [[r.to_json() for r in verify_pfpm_theorem(d)] for d in digraphs]
    table = grape.OutcomeTable()
    duals = counting(monkeypatch, verify, "alexander_dual")
    shared = [[r.to_json() for r in verify_pfpm_theorem(d, table)] for d in digraphs]
    assert len(duals) == 1 and [key[0] for key in table.entries].count("pfpm") == 1
    assert shared == fresh


def test_grape_duality_builds_the_dual_once(monkeypatch):
    c = new_complex("abc", [frozenset("ab"), frozenset("c")])
    expected = [verify_dual_invariance(c, variant) for variant in GrapeVariant]
    assert sum(rep["primal_verdict"] == "yes" for rep in expected) > 1
    duals = counting(monkeypatch, grape, "alexander_dual")
    reports = verify.grape_duality_reports(c)
    assert len(duals) == 1
    assert [r.details for r in reports] == [
        rep for rep in expected if rep["primal_verdict"] == "yes"
    ]
    # no yes, no dual: the projective plane is not a strong grape
    duals.clear()
    rp2 = new_complex("123456", [frozenset(f) for f in "123 124 135 146 156 236 245 256 345 346".split()])
    assert verify.grape_duality_reports(rp2) == []
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


def test_core_reports_on_a_mixed_bag():
    instances = standard_complexes(n_random=20, max_ground=5, exhaustive_max=2, seed=99)
    for c in instances:
        assert all(r.status == "pass" for r in duality_identity_reports(c))
        assert all(r.status == "pass" for r in ground_independence_reports(c))
        assert all(r.status == "pass" for r in lifted_collapse_reports(c))
        for variant in (GrapeVariant.STRONG, GrapeVariant.COMBINATORIAL):
            assert all(r.status == "pass" for r in wedge_reports(c, variant))
        if len(c.ground) >= 1:
            assert cad_report(c).status == "pass"


def test_konig_on_bipartite_graphs():
    assert [r.status for r in konig_reports(path_graph(5))] == ["pass"]
    assert [r.status for r in konig_reports(star_graph(4))] == ["pass"]
    assert konig_reports(graph("abc", [("a", "b"), ("b", "c"), ("a", "c")])) == []


def test_reports_embed_a_reproducible_instance():
    # the embedded instance parses back and reproduces the same statuses
    from grapes import complex_from_json

    c = new_complex("ab", [frozenset("a")])
    reports = duality_identity_reports(c)
    for r in reports:
        assert r.instance["ground"] == ["a", "b"]
    replayed = duality_identity_reports(complex_from_json(reports[0].instance))
    assert [x.status for x in replayed] == [x.status for x in reports]


def test_suite_smoke_passes_and_is_deterministic():
    first = run_suite("smoke", seed=7)
    second = run_suite("smoke", seed=7)
    assert first["fail"] == 0
    assert first["unknown"] == 0
    assert first["pass"] > 1000
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_suite_rejects_unknown_level():
    with pytest.raises(ValueError):
        run_suite("gigantic")


def test_ground_independence_fails_on_an_order_dependent_recognizer(monkeypatch):
    def by_first_element(c, variant, **memo):
        verdict = "yes" if c.ground and c.ground[0] == "a" else "no"
        return SimpleNamespace(verdict=verdict), None, None

    monkeypatch.setattr(verify, "search_grape", by_first_element)
    reports = ground_independence_reports(new_complex("ab", [frozenset("ab")]))
    assert len(reports) == 4
    assert all(r.status == "fail" for r in reports)


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
        reports.extend(verify.duality_identity_reports(c))
    say("duality identities done")
    for c in complexes:
        if len(c.ground) >= 1:
            reports.append(verify.cad_report(c))
    say("alexander duality done")
    for c in complexes:
        reports.extend(verify.grape_duality_reports(c, sizes.small_variants_max_ground))
    say("grape duality done")
    for c in complexes:
        reports.extend(verify.wedge_reports(c, GrapeVariant.STRONG))
    say("strong/homology consistency done")
    forests = verify.standard_forests(sizes.n_forests, sizes.max_tree, seed)
    for g in forests:
        reports.extend(verify.verify_forest_theorem(g))
        reports.extend(verify.konig_reports(g))
    say(f"forest theorem done ({len(forests)} forests)")
    digraphs = verify.standard_digraphs(
        sizes.n_random_digraphs, *sizes.exhaustive_digraph, seed=seed
    )
    for d in digraphs:
        reports.extend(verify.verify_pfpm_theorem(d))
    say(f"path-free/path-missing done ({len(digraphs)} digraphs)")
    for i in range(sizes.n_identity_digraphs):
        d = gen_digraph(1 + i % 5, i % 8, seed + 7000 + i)
        reports.extend(verify.deletion_contraction_reports(d))
    say("deletion/contraction identities done")
    for c in complexes:
        reports.extend(verify.ground_independence_reports(c))
    say("ground independence done")
    for c in complexes:
        reports.extend(verify.lifted_collapse_reports(c))
    say("lifted collapses done")
    for c in complexes:
        reports.extend(verify.wedge_reports(c, GrapeVariant.COMBINATORIAL))
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
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
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
    "konig_reports": "maybe",
    "verify_pfpm_theorem": "list",
    "deletion_contraction_reports": "list",
    "ground_independence_reports": "list",
    "lifted_collapse_reports": "list",
    "wedge_reports": "maybe",
    "five_cycle_reports": "list",
    "cyclic_no_useless_reports": "list",
}


def _recorded_run(monkeypatch, runner):
    """Run a suite with every harness replaced by one that records its
    arguments and returns a failing report naming them (or no report, on
    some instances, where the real harness may)."""
    calls = defaultdict(list)

    def fake(name, returns):
        def harness(*args):
            # the suite also hands over the run's outcome table
            args = tuple(a for a in args if not isinstance(a, grape.OutcomeTable))
            calls[name].append(args)
            instance = {"args": [TO_JSON.get(type(a), lambda v: v)(a) for a in args]}
            if returns == "maybe" and len(json.dumps(instance)) % 3 == 0:
                return []
            rep = VerificationReport(name, instance, "fail")
            return rep if returns == "one" else [rep]

        return harness

    with monkeypatch.context() as patch:
        for name, returns in HARNESSES.items():
            patch.setattr(verify, name, fake(name, returns))
        summary = runner("smoke", 7)
    return summary, calls


def test_each_stage_runs_its_harness_once_per_distinct_instance(monkeypatch):
    fast, fast_calls = _recorded_run(monkeypatch, run_suite)
    naive, naive_calls = _recorded_run(monkeypatch, reference_suite)
    # same reports in the same order, repeats counted at every occurrence
    assert json.dumps(fast, sort_keys=True) == json.dumps(naive, sort_keys=True)
    assert set(fast_calls) == set(naive_calls) == set(HARNESSES)
    for name, args in fast_calls.items():
        assert len(args) == len(set(args)), name
        assert set(args) == set(naive_calls[name]), name
    # the smoke instance sets do repeat instances, so the test has teeth
    assert len(naive_calls["duality_identity_reports"]) > len(fast_calls["duality_identity_reports"])
    assert len(naive_calls["verify_pfpm_theorem"]) > len(fast_calls["verify_pfpm_theorem"])


# -- outcome tables -------------------------------------------------------------------


def counting_searches(monkeypatch):
    """Replace the one recognition search, which check_grape, the outcome
    table and ground independence call; returns the list of (complex,
    variant) keys it is called with."""
    keys = []
    real = grape.search_grape

    def counting(c, variant, *args, **memo):
        keys.append((c, variant))
        return real(c, variant, *args, **memo)

    monkeypatch.setattr(grape, "search_grape", counting)
    monkeypatch.setattr(verify, "search_grape", counting)
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
    # again in another, under any names; 371 searches at smoke/1729, where a
    # table per stage made 770.  Ground independence still searches every
    # distinct complex's moved copy afresh, for each variant.
    keys = counting_searches(monkeypatch)
    run_suite("smoke", 1729)
    assert len(keys) == 371
    moved = [(c, variant) for c, variant in keys if c.ground and c.ground[-1].startswith("_")]
    sizes = SIZES["smoke"]
    complexes = standard_complexes(sizes.n_random_complexes, sizes.max_ground,
                                   sizes.exhaustive_ground, 1729)
    assert len(moved) == len(set(moved)) == 4 * len(set(complexes)) == 152


@pytest.mark.parametrize("seed", [1, 7])
def test_the_run_table_agrees_with_fresh_computations(monkeypatch, seed):
    tables = []

    class Captured(grape.OutcomeTable):
        def __init__(self):
            super().__init__()
            tables.append(self)

    # neither the table, which folds the search's records, nor ground
    # independence calls check_grape, so the search is what is recorded
    searches = []
    real_search, real = grape.search_grape, grape.check_grape

    def recorded(c, variant, budget=grape.DEFAULT_BUDGET, profiles=None):
        found = real_search(c, variant, budget, profiles)
        searches.append((c, variant, profiles, found))
        return found

    monkeypatch.setattr(verify, "OutcomeTable", Captured)
    monkeypatch.setattr(grape, "search_grape", recorded)
    monkeypatch.setattr(verify, "search_grape", recorded)
    run_suite("smoke", seed)
    monkeypatch.undo()
    (table,) = tables  # one for the whole run

    def on_masks(masks):
        names = tuple(f"x{i}" for i in range(complexes.join_mask(masks).bit_length()))
        return Complex(names, masks)

    outcomes = {key: v for key, v in table.entries.items() if isinstance(key[-1], GrapeVariant)}
    duals = {key[1]: v for key, v in table.entries.items() if key[0] == "dual"}
    instances = {key[1]: v for key, v in table.entries.items() if key[0] == "instance"}
    assert len(table.profiles) > 100 and len(outcomes) > 200
    assert len(duals) > 100 and len(instances) > 30
    for masks, profile in table.profiles.items():
        assert profile == homology.reduced_homology(on_masks(masks)), masks
    for (masks, variant), outcome in outcomes.items():
        fresh = real(on_masks(masks), variant)
        wedge = grape.predicted_wedge(fresh.certificate) if fresh.is_yes else None
        assert outcome == (fresh.verdict, wedge), (masks, variant)
    for c, dual in duals.items():
        assert dual.ground == c.ground and complexes.equals(dual, complexes.alexander_dual(c)), c
    for c, instance in instances.items():
        assert instance == complex_to_json(c), c
    # every search that read the run's profiles, the moved complexes'
    # included, has a lone check_grape's verdict, wedge, nodes and reason,
    # and named on the run's profiles it is that lone certificate
    shared = [r for r in searches if r[2] is table.profiles]
    assert len(shared) > 200
    for c, variant, _, (verdict, records, _) in shared:
        lone = real(c, variant)
        assert verdict == dataclasses.replace(lone, certificate=None), (c, variant)
        wedge = lone.certificate and grape.predicted_wedge(lone.certificate)
        assert (records and grape.predicted_wedge({"nodes": records})) == wedge, (c, variant)
        assert real(c, variant, profiles=table.profiles) == lone, (c, variant)


def test_ground_independence_runs_two_searches_on_two_keys(monkeypatch):
    keys = counting_searches(monkeypatch)
    c = new_complex("abc", [frozenset("ab"), frozenset("bc")])
    reports = ground_independence_reports(c)
    assert [r.status for r in reports] == ["pass"] * 4
    assert len(keys) == 8 and len(set(keys)) == 8
    for variant in GrapeVariant:
        (orig, _), (moved, _) = [k for k in keys if k[1] is variant]
        assert orig == c and moved != c and moved.facets == c.facets


def test_outcome_table_computes_each_key_once():
    table = grape.OutcomeTable()
    calls = []

    def compute(value):
        calls.append(value)
        return value

    # an empty list or a False is a value like any other, not a miss
    for value in ([], False, None, [1], [], False, None, [1]):
        assert table.once(("k", repr(value)), lambda: compute(value)) == value
    assert calls == [[], False, None, [1]]


def test_outcome_table_entries_hold_no_certificate():
    table = grape.OutcomeTable()
    for c in standard_complexes(n_random=10, max_ground=4, exhaustive_max=2, seed=3):
        for variant in GrapeVariant:
            table.recognise(c, variant)
    assert grape.Outcome._fields == ("verdict", "wedge")
    kinds = {type(v) for entry in table.entries.values() for v in entry}
    assert kinds <= {str, dict, type(None)}
    # the wedge is set on every yes, of every variant
    assert all((e.wedge is not None) == e.is_yes for e in table.entries.values())
    assert {v for (_, v), e in table.entries.items() if e.is_yes} == set(GrapeVariant)


def test_full_suite_output_is_byte_stable(capsys):
    # sha256 of `grapes suite --level full --seed 1729` stdout and stderr
    assert main(["suite", "--level", "full", "--seed", "1729"]) == 0
    captured = capsys.readouterr()
    assert hashlib.sha256(captured.out.encode()).hexdigest() == (
        "912ab1ad32d355bdfd0fa32424b881c690a80946993a7497e52186b6256f4ec5"
    )
    assert hashlib.sha256(captured.err.encode()).hexdigest() == (
        "a76aceb3e30fdac21b474e25da8e0dca55d70d027914f5d6faad169c057be9e2"
    )
