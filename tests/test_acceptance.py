"""Acceptance suite: one test per criterion, at full instance-set sizes.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``) and
enforces the stated wall-clock budget.  Instance sets are deterministic:
seeded random instances plus exhaustive enumerations of the small cases.
Every harness call checks its instance from scratch, on a table of its own.
"""

import time

import pytest

from grapes import GrapeVariant
from grapes.generators import gen_digraph
from grapes.verify import (
    DEFAULT_SEED,
    OutcomeTable,
    cad_report,
    duality_identity_reports,
    cyclic_no_useless_reports,
    deletion_contraction_reports,
    five_cycle_reports,
    grape_duality_reports,
    ground_independence_reports,
    konig_reports,
    lifted_collapse_reports,
    standard_complexes,
    standard_digraphs,
    standard_forests,
    verify_forest_theorem,
    verify_pfpm_theorem,
    wedge_reports,
)


@pytest.fixture(scope="session")
def instance_set():
    # 500 seeded random complexes with up to 6 ground elements, plus all
    # complexes on up to 4 ground elements
    return standard_complexes(
        n_random=500, max_ground=6, exhaustive_max=4, seed=DEFAULT_SEED
    )


@pytest.fixture(scope="session")
def forest_set():
    # every tree on up to 8 vertices (one per isomorphism class) plus 200
    # seeded forests obtained by deleting one random edge from a random tree
    return standard_forests(n_forests=200, max_tree=8, seed=DEFAULT_SEED)


@pytest.fixture(scope="session")
def digraph_set():
    # exhaustive shapes with up to 3 vertices and 4 arcs, plus 300 seeded
    # digraphs with up to 5 vertices and 7 arcs
    return standard_digraphs(n_random=300, exhaustive_v=3, exhaustive_e=4, seed=DEFAULT_SEED)


def finish(name, reports, started, limit):
    elapsed = time.time() - started
    fails = [r for r in reports if r.status == "fail"]
    unknowns = [r for r in reports if r.status == "unknown"]
    status = "FAIL" if fails else "PASS"
    print(
        f"{status} {name}: {len(reports)} checks, "
        f"{len(unknowns)} unknown, {elapsed:.1f}s"
    )
    assert not fails, f"{len(fails)} failing checks; first: {fails[0].to_json()}"
    assert elapsed < limit, f"{name} exceeded its {limit}s budget"


def test_criterion_01_duality_involution_and_identities(instance_set):
    started = time.time()
    reports = []
    for c in instance_set:
        reports.extend(duality_identity_reports(c, OutcomeTable()))
    finish("criterion 1 (duality involution and swap identities)", reports, started, 60)


def test_criterion_02_combinatorial_alexander_duality(instance_set):
    started = time.time()
    reports = [cad_report(c, OutcomeTable()) for c in instance_set if len(c.ground) >= 1]
    finish("criterion 2 (Alexander duality in (co)homology)", reports, started, 300)


@pytest.mark.xfail(
    strict=True,
    reason="on the empty ground set the duality index map has no target: the "
    "irrelevant complex keeps its degree -1 unit while its dual is void; "
    "the identity is provably false there under the void-has-zero-homology "
    "convention (see README, Acceptance suite, the empty ground set)",
)
def test_criterion_02_degenerate_empty_ground():
    for c in standard_complexes(n_random=0, max_ground=0, exhaustive_max=0, seed=DEFAULT_SEED):
        assert cad_report(c, OutcomeTable()).status == "pass"


def test_criterion_03_grape_duality_invariance(instance_set):
    started = time.time()
    reports = []
    for c in instance_set:
        reports.extend(grape_duality_reports(c, 5, OutcomeTable()))
    finish("criterion 3 (grape membership dual invariance)", reports, started, 300)


def test_criterion_04_strong_classes_match_homology(instance_set):
    started = time.time()
    reports = []
    for c in instance_set:
        reports.extend(wedge_reports(c, GrapeVariant.STRONG, OutcomeTable()))
    assert len(reports) > 300
    finish("criterion 4 (strong classes vs homology)", reports, started, 300)


def test_criterion_05_forest_theorem(forest_set):
    started = time.time()
    reports = []
    for g in forest_set:
        reports.extend(verify_forest_theorem(g, OutcomeTable()))
    assert len(reports) == 8 * len(forest_set)
    finish("criterion 5 (forest complexes and their duals)", reports, started, 600)


def test_criterion_06_pfpm_theorem(digraph_set):
    started = time.time()
    reports = []
    for d in digraph_set:
        reports.extend(verify_pfpm_theorem(d, OutcomeTable()))
    finish("criterion 6 (path-free/path-missing theorem)", reports, started, 600)


def test_criterion_07_cyclic_no_useless_instance():
    started = time.time()
    finish("criterion 7 (cyclic digraph with no useless arcs)",
           cyclic_no_useless_reports(), started, 60)


def test_criterion_08_five_cycle():
    started = time.time()
    finish("criterion 8 (five-cycle verdicts and wedge)",
           five_cycle_reports(), started, 60)


def test_criterion_09_deletion_contraction_identities():
    started = time.time()
    reports = []
    for i in range(200):
        d = gen_digraph(1 + i % 5, i % 8, DEFAULT_SEED + 7000 + i)
        reports.extend(deletion_contraction_reports(d))
    assert any(r.theorem == "pf-contraction-identity" for r in reports)
    assert any(r.theorem == "pf-deletion-useless" for r in reports)
    finish("criterion 9 (deletion/contraction identities)", reports, started, 300)


def test_criterion_10_ground_independence(instance_set):
    started = time.time()
    reports = []
    for c in instance_set:
        reports.extend(ground_independence_reports(c, OutcomeTable()))
    finish("criterion 10 (verdicts ignore unused ground elements and ground order)",
           reports, started, 300)


def test_criterion_11_lifted_collapses(instance_set):
    started = time.time()
    reports = []
    for c in instance_set:
        reports.extend(lifted_collapse_reports(c, OutcomeTable()))
    assert len(reports) > 500
    finish("criterion 11 (collapsible links lift to deletion collapses)",
           reports, started, 300)


def test_criterion_12_wedge_predictions(instance_set):
    started = time.time()
    reports = []
    for c in instance_set:
        reports.extend(wedge_reports(c, GrapeVariant.COMBINATORIAL, OutcomeTable()))
    assert len(reports) > 300
    finish("criterion 12 (certificate wedge predictions vs homology)",
           reports, started, 300)


def test_criterion_13_konig(forest_set):
    started = time.time()
    reports = []
    for g in forest_set:
        reports.extend(konig_reports(g, OutcomeTable()))
    assert len(reports) == len(forest_set)
    finish("criterion 13 (cover number equals matching number on forests)",
           reports, started, 60)
