"""Theorem-verification harnesses and the reproducible acceptance suite.

Each harness checks one statement on one instance and returns a list of
reports (``cad_report``, which the CLI also runs, returns one); a failing
report embeds the serialized instance so the failure can be replayed on its
own.  The suite runner wires the harnesses to deterministic instance sets
(fixed seeds, exhaustive small enumerations), and :func:`summarise` counts
pass / fail / unknown for the suite and the CLI alike.
"""

from __future__ import annotations

import string
from dataclasses import dataclass, field
from typing import Callable, Optional

from .collapse import ReplayError, collapse_search, lifted_collapse
from .complexes import (
    Complex,
    InputError,
    alexander_dual,
    avoiding,
    avoiding_dual,
    complex_to_json,
    deletion,
    enumerate_complexes,
    equals,
    link,
    meet_mask,
    new_complex,
)
from .generators import (
    all_digraphs,
    all_trees,
    cycle_complex,
    cyclic_no_useless_digraph,
    gen_complex,
    gen_digraph,
    gen_forest,
)
from .grape import (
    GrapeVariant,
    OutcomeTable,
    check_grape,
    predicted_wedge,
    search_grape,
    verify_certificate,
    verify_dual_invariance,
)
from .graphs import (
    FORBIDDEN_SETS,
    Digraph,
    Graph,
    contract_arc,
    delete_arc,
    digraph_to_json,
    graph_to_json,
    has_cycle,
    invariants,
    is_bipartite,
    is_forest,
    nonsinks,
    pf_complex,
    pm_complex,
    useless_arcs,
)
from .homology import SHClass, check_alexander_duality, reduced_homology

DEFAULT_SEED = 1729


@dataclass(slots=True)
class VerificationReport:
    theorem: str
    instance: dict
    status: str  # "pass" | "fail" | "unknown"
    expected: object = None
    observed: object = None
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        out = {
            "theorem": self.theorem,
            "instance": self.instance,
            "status": self.status,
        }
        if self.expected is not None:
            out["expected"] = self.expected
        if self.observed is not None:
            out["observed"] = self.observed
        if self.details:
            out["details"] = self.details
        return out


def _report(theorem, instance, ok, expected=None, observed=None, unknown=False, **details):
    status = "unknown" if unknown else ("pass" if ok else "fail")
    return VerificationReport(theorem, instance, status, expected, observed, details)


# -- instance sets ----------------------------------------------------------


def standard_complexes(
    n_random: int = 500,
    max_ground: int = 6,
    exhaustive_max: int = 4,
    seed: int = DEFAULT_SEED,
) -> list:
    """The shared complex instance set: exhaustive small + seeded random."""
    out = []
    for n in range(exhaustive_max + 1):
        out.extend(enumerate_complexes(string.ascii_lowercase[:n]))
    densities = (0.15, 0.3, 0.5)
    for i in range(n_random):
        out.append(
            gen_complex(i % (max_ground + 1), densities[i % 3], seed + i)
        )
    return out


def standard_forests(n_forests: int = 200, max_tree: int = 8, seed: int = DEFAULT_SEED):
    """All unlabeled trees up to max_tree vertices, then seeded one-edge-off forests."""
    out = list(all_trees(max_tree))
    for i in range(n_forests):
        out.append(gen_forest(2 + i % (max_tree - 1), seed + i, drop=1))
    return out


def standard_digraphs(
    n_random: int = 300,
    exhaustive_v: int = 3,
    exhaustive_e: int = 4,
    seed: int = DEFAULT_SEED,
):
    """Every digraph shape up to the exhaustive sizes, then seeded random
    digraphs on 1-5 vertices with 0-7 arcs."""
    out = list(all_digraphs(exhaustive_v, exhaustive_e))
    for i in range(n_random):
        out.append(gen_digraph(1 + i % 5, i % 8, seed + i))
    return out


# -- per-instance harnesses ---------------------------------------------------


def duality_identity_reports(c: Complex, outcomes: Optional[OutcomeTable] = None) -> list:
    """Double dual is the identity; deletion and link swap across duality.
    Every dual comes from the outcome table (a fresh one by default), which
    files a dual under its complex only, so the double dual is built anew."""
    outcomes = OutcomeTable() if outcomes is None else outcomes
    instance = outcomes.instance(c)
    dual = outcomes.dual(c)
    out = [_report("duality-involution", instance, equals(outcomes.dual(dual), c))]
    for a in c.ground:
        ok = equals(outcomes.dual(deletion(c, a)), link(dual, a)) and equals(
            outcomes.dual(link(c, a)), deletion(dual, a)
        )
        out.append(_report("duality-deletion-link-swap", instance, ok, element=a))
    return out


def cad_report(c: Complex, outcomes: Optional[OutcomeTable] = None) -> VerificationReport:
    """Alexander duality in (co)homology, with the dual and both profiles
    from the outcome table, a fresh one by default."""
    outcomes = OutcomeTable() if outcomes is None else outcomes
    result = check_alexander_duality(c, outcomes.profiles, outcomes.dual(c))
    return _report(
        "combinatorial-alexander-duality",
        outcomes.instance(c),
        result["pass"],
        observed=None if result["pass"] else result,
    )


def grape_duality_reports(
    c: Complex,
    small_variants_max_ground: int = 5,
    outcomes: Optional[OutcomeTable] = None,
) -> list:
    """Dual invariance of grape membership (and classes, for strong).

    Variants other than strong are checked up to small_variants_max_ground
    ground elements; each yes instance of a variant gives one report.
    """
    outcomes = OutcomeTable() if outcomes is None else outcomes
    instance = outcomes.instance(c)
    small = len(c.ground) <= small_variants_max_ground
    out = []
    for variant in GrapeVariant if small else (GrapeVariant.STRONG,):
        rep = verify_dual_invariance(c, variant, outcomes)
        if rep["primal_verdict"] == "yes":
            out.append(_report(f"grape-duality-{variant.value}", instance, rep["pass"],
                               unknown=rep["unknown_tolerated"], **rep))
    return out


def _forest_formula_checks(g: Graph, inv) -> list:
    """Expected classes for the eight forest complexes, from the invariants."""
    n_v = len(g.vertices)
    n_e = len(g.edges)

    def sphere_or_void(n: int):
        def check(cls: SHClass) -> bool:
            if cls.is_void_class:
                return True
            return cls == SHClass(n) and inv.i_dom == inv.gamma

        return check

    def exactly(n: int):
        return lambda cls: cls == SHClass(n)

    primal, dual = {}, {}
    for kind, forbidden_sets in FORBIDDEN_SETS.items():
        ground, forbidden = forbidden_sets(g)
        primal[kind], dual[kind] = avoiding(ground, forbidden), avoiding_dual(ground, forbidden)
    checks = [
        ("independence", primal["ind"], False, sphere_or_void(inv.i_dom)),
        ("dominance", primal["dom"], False, exactly(inv.alpha0)),
        ("edge-cover", primal["ec"], False, sphere_or_void(n_e - n_v + inv.i_dom)),
        ("edge-dominance", primal["ed"], False, exactly(n_e - inv.alpha0)),
        ("independence", dual["ind"], True, sphere_or_void(n_v - inv.i_dom - 1)),
        ("dominance", dual["dom"], True, exactly(n_v - inv.alpha0 - 1)),
    ]
    if n_e > 0:
        checks.append(("edge-cover", dual["ec"], True, sphere_or_void(n_v - inv.i_dom - 1)))
        checks.append(("edge-dominance", dual["ed"], True, exactly(inv.alpha0 - 1)))
    else:
        # empty edge set: the duals live on an empty ground set, where the
        # dimension formulas do not apply; the classes are forced directly
        # (dual of the void complex is irrelevant, and vice versa)
        checks.append(("edge-cover", dual["ec"], True, exactly(0)))
        checks.append(("edge-dominance", dual["ed"], True, lambda cls: cls.is_void_class))
    return checks


def verify_forest_theorem(g: Graph, outcomes: Optional[OutcomeTable] = None) -> list:
    """Check the forest theorem: the four graph complexes and their duals are
    strong grapes whose classes follow the invariant formulas."""
    if not is_forest(g):
        raise InputError("forest theorem harness needs a forest")
    outcomes = OutcomeTable() if outcomes is None else outcomes
    instance = graph_to_json(g)
    out = []
    inv = outcomes.once(("invariants", g), lambda: invariants(g))
    for name, cpx, dualize, class_ok in _forest_formula_checks(g, inv):
        label = f"forest-{name}{'-dual' if dualize else ''}"
        outcome = outcomes.recognise(cpx, GrapeVariant.STRONG)
        if not outcome.is_yes:
            out.append(
                _report(label, instance, False, expected="strong grape", observed=outcome.verdict)
            )
            continue
        cls = SHClass.of_wedge(outcome.wedge)
        ok = class_ok(cls) and outcomes.homology(cpx).is_wedge(cls.wedge)
        out.append(_report(label, instance, ok, observed=str(cls)))
    return out


def verify_pfpm_theorem(d: Digraph, outcomes: Optional[OutcomeTable] = None) -> list:
    """Path-free/path-missing: duality, strong grape status, and dimensions.

    PF and PM depend only on the arc count and the s-t paths as masks (the
    full suite at seed 1729 meets 108 path families in 7,020 digraphs), so
    the outcome table, a fresh one by default, keeps per path family whether
    PM is the dual of PF, whether some arc is useless, and both strong
    outcomes, none of which reads an arc id.
    """
    outcomes = OutcomeTable() if outcomes is None else outcomes
    instance = digraph_to_json(d)
    if not d.arcs:
        pf, pm = pf_complex(d), pm_complex(d)
        ok = (pf.is_irrelevant and pm.is_void) if d.s != d.t else (pf.is_void and pm.is_irrelevant)
        return [_report("pfpm-empty-conventions", instance, ok)]

    def family() -> tuple:  # each strong outcome as a class's dimension and string, or the verdict
        pf, pm = pf_complex(d), pm_complex(d)
        strong = [outcomes.recognise(cpx, GrapeVariant.STRONG) for cpx in (pf, pm)]
        classes = [SHClass.of_wedge(o.wedge) if o.is_yes else o.verdict for o in strong]
        return (equals(pm, alexander_dual(pf)), bool(useless_arcs(d)),
                *(c if isinstance(c, str) else (c.cross_dim, str(c)) for c in classes))

    dual_ok, useless, *found = outcomes.once(("pfpm", len(d.arcs), frozenset(d.paths)), family)
    out = [_report("pfpm-alexander-dual", instance, dual_ok)]
    degenerate = useless or has_cycle(d)
    n_nonsinks = len(nonsinks(d))
    dims = (None, None) if degenerate else (n_nonsinks - 1, len(d.arcs) - n_nonsinks)
    for name, n, side in zip(("path-free", "path-missing"), dims, found):
        if isinstance(side, str):  # the verdict
            out.append(_report(f"pfpm-{name}", instance, False, expected="strong grape",
                               observed=side))
            continue
        dim, observed = side
        expected = observed if dim == n else str(SHClass(n))  # a class only on a mismatch
        out.append(_report(f"pfpm-{name}", instance, dim == n, expected=expected,
                           observed=observed))
    return out


def deletion_contraction_reports(d: Digraph) -> list:
    """Deletion/contraction identities for the path-free complex, plus the
    guaranteed-useless-arc implication after deleting a source arc."""
    instance = digraph_to_json(d)
    pf = pf_complex(d)
    out = []
    for arc in d.arcs:
        ok = equals(deletion(pf, arc.id), pf_complex(delete_arc(d, arc.id)))
        out.append(_report("pf-deletion-identity", instance, ok, arc=arc.id))
        if arc.src == d.s:
            ok = equals(link(pf, arc.id), pf_complex(contract_arc(d, arc.id)))
            out.append(_report("pf-contraction-identity", instance, ok, arc=arc.id))
    useless = useless_arcs(d)
    for arc in d.arcs:
        if (
            arc.src == d.s
            and arc.id not in useless
            and len(d.arcs) > 1
            and not any(b.tgt == arc.tgt and b.id != arc.id for b in d.arcs)
        ):
            ok = bool(useless_arcs(delete_arc(d, arc.id)))
            out.append(_report("pf-deletion-useless", instance, ok, arc=arc.id))
    return out


def ground_independence_reports(c: Complex, outcomes: Optional[OutcomeTable] = None) -> list:
    """Verdicts must not change when the ground order is reversed and an
    unused ground element is added (this moves every pivot choice).  c's
    verdicts come from the outcome table, a fresh one by default, and the
    moved complex is searched afresh, reading homology from the table's
    profiles: that search is the check, and its records are never named."""
    outcomes = OutcomeTable() if outcomes is None else outcomes
    instance = outcomes.instance(c)
    fresh = "_" * (max(map(len, c.ground), default=0) + 1)  # longer than any element
    moved = new_complex(tuple(reversed(c.ground)) + (fresh,), c.facets)
    out = []
    for variant in GrapeVariant:
        a = outcomes.recognise(c, variant).verdict
        b = search_grape(moved, variant, profiles=outcomes.profiles)[0].verdict
        out.append(
            _report(
                f"ground-independence-{variant.value}",
                instance,
                a == b,
                expected=b,
                observed=a,
            )
        )
    return out


def lifted_collapse_reports(c: Complex, outcomes: Optional[OutcomeTable] = None) -> list:
    """Wherever a link collapses, the lifted sequence must collapse the
    complex onto the deletion.  Each link's search reads its homology from
    the outcome table's profiles (a fresh table by default)."""
    outcomes = OutcomeTable() if outcomes is None else outcomes
    instance = outcomes.instance(c)
    out = []
    for a in c.ground:
        result = collapse_search(link(c, a), profiles=outcomes.profiles)
        if not result.is_yes:
            continue
        try:
            lifted_collapse(c, a, result.sequence)
            out.append(_report("lifted-collapse", instance, True, element=a))
        except ReplayError as exc:
            out.append(
                _report("lifted-collapse", instance, False, observed=str(exc), element=a)
            )
    return out


def wedge_reports(c: Complex, variant: GrapeVariant,
                  outcomes: Optional[OutcomeTable] = None) -> list:
    """A yes certificate's predicted wedge must be the homology of c exactly,
    torsion included; a strong one's is reported as its class.  Both come
    from the outcome table, a fresh one by default."""
    outcomes = OutcomeTable() if outcomes is None else outcomes
    wedge = outcomes.recognise(c, variant).wedge
    if wedge is None:
        return []
    if variant is GrapeVariant.STRONG:
        theorem, expected = "strong-class-homology", str(SHClass.of_wedge(wedge))
    else:
        theorem, expected = "wedge-prediction", {str(k): v for k, v in sorted(wedge.items())}
    ok = outcomes.homology(c).is_wedge(wedge)
    return [_report(theorem, outcomes.instance(c), ok, expected=expected)]


def konig_reports(g: Graph, outcomes: Optional[OutcomeTable] = None) -> list:
    if not is_bipartite(g):
        return []
    outcomes = OutcomeTable() if outcomes is None else outcomes
    inv = outcomes.once(("invariants", g), lambda: invariants(g))
    return [_report("konig-cover-matching", graph_to_json(g), inv.alpha0 == inv.beta1,
                    expected=inv.beta1, observed=inv.alpha0)]


def five_cycle_reports() -> list:
    """The 5-cycle: smallest non-combinatorial grape, still a weak grape."""
    c5 = cycle_complex(5)
    instance = complex_to_json(c5)
    out = []
    comb = check_grape(c5, GrapeVariant.COMBINATORIAL)
    out.append(
        _report("five-cycle-not-combinatorial", instance, comb.verdict == "no", observed=comb.verdict)
    )
    weak = check_grape(c5, GrapeVariant.WEAK)
    if not weak.is_yes:
        return out + [_report("five-cycle-weak", instance, False, observed=weak.verdict)]
    try:
        verify_certificate(c5, GrapeVariant.WEAK, weak.certificate)
    except ReplayError as exc:
        return out + [_report("five-cycle-weak", instance, False, observed=str(exc))]
    predicted = predicted_wedge(weak.certificate)
    ok = predicted == {1: 1} and reduced_homology(c5).is_wedge({1: 1})
    out.append(_report("five-cycle-weak", instance, ok, expected={"1": 1},
                       observed={str(k): v for k, v in predicted.items()}))
    return out


def cyclic_no_useless_reports() -> list:
    """The cyclic-but-no-useless-arcs digraph: path-free complex facets,
    not a cone, collapsible, classified as simple-homotopy void."""
    d = cyclic_no_useless_digraph()
    instance = digraph_to_json(d)
    pf = pf_complex(d)
    expected_facets = frozenset(
        frozenset(f)
        for f in ({"A", "E", "C", "D"}, {"F", "B", "C", "D"}, {"A", "F", "D"}, {"B", "E", "C"})
    )
    out = [
        _report(
            "cyclic-no-useless-pf-facets",
            instance,
            pf.facets == expected_facets,
            observed=complex_to_json(pf)["facets"],
        ),
        _report("cyclic-no-useless-pf-not-cone", instance, not meet_mask(pf.masks)),
        _report(
            "cyclic-no-useless-pf-collapsible",
            instance,
            collapse_search(pf).is_yes,
        ),
        _report("cyclic-no-useless-arc-check", instance, not useless_arcs(d)),
    ]
    verdict = check_grape(pf, GrapeVariant.STRONG)
    cls_ok = verdict.is_yes and predicted_wedge(verdict.certificate) == {}
    out.append(_report("cyclic-no-useless-pf-void-class", instance, cls_ok))
    return out


# -- suite runner -----------------------------------------------------------


@dataclass
class SuiteSizes:
    n_random_complexes: int
    exhaustive_ground: int
    max_ground: int
    small_variants_max_ground: int
    max_tree: int
    n_forests: int
    exhaustive_digraph: tuple
    n_random_digraphs: int
    n_identity_digraphs: int


SIZES = {
    "smoke": SuiteSizes(
        n_random_complexes=60,
        exhaustive_ground=3,
        max_ground=5,
        small_variants_max_ground=4,
        max_tree=6,
        n_forests=30,
        exhaustive_digraph=(2, 3),
        n_random_digraphs=40,
        n_identity_digraphs=40,
    ),
    "full": SuiteSizes(
        n_random_complexes=500,
        exhaustive_ground=4,
        max_ground=6,
        small_variants_max_ground=5,
        max_tree=8,
        n_forests=200,
        exhaustive_digraph=(3, 4),
        n_random_digraphs=300,
        n_identity_digraphs=200,
    ),
}


def summarise(reports: list, shown: tuple) -> dict:
    """The pass, fail and unknown counts, and the reports with a status in shown, as JSON."""
    statuses = [r.status for r in reports]
    counts = {status: statuses.count(status) for status in ("pass", "fail", "unknown")}
    return {**counts, "reports": [r.to_json() for r in reports if r.status in shown]}


def run_suite(level: str = "smoke", seed: int = DEFAULT_SEED, log: Callable = None) -> dict:
    """Run the whole verification matrix; returns the aggregated summary.

    Deterministic for a fixed seed and level.  The run has one outcome
    table, dropped when it returns: a mask set met again anywhere in the run
    (in another stage, as a dual, under other names) is recognised once and
    its homology reduced once, for recognition, collapse searches, the
    Alexander-duality check and the wedge checks alike.  Each Alexander dual
    is built once per (ground, masks), each complex's instance JSON once,
    and PF/PM per path family and forest invariants are kept too.  Each
    stage checks each distinct instance once, and its reports count at
    every occurrence.  The summary lists every non-passing report with its
    instance.
    """
    if level not in SIZES:
        raise ValueError(f"unknown suite level {level!r}")
    sizes = SIZES[level]
    say = log or (lambda msg: None)
    reports: list = []

    complexes = standard_complexes(
        sizes.n_random_complexes, sizes.max_ground, sizes.exhaustive_ground, seed
    )
    forests = standard_forests(sizes.n_forests, sizes.max_tree, seed)
    digraphs = standard_digraphs(
        sizes.n_random_digraphs,
        sizes.exhaustive_digraph[0],
        sizes.exhaustive_digraph[1],
        seed=seed,
    )
    identity_digraphs = standard_digraphs(sizes.n_identity_digraphs, 0, 0, seed=seed + 7000)
    say(f"instance set: {len(complexes)} complexes")
    notes = [
        "(co)homological duality checked on nonempty ground sets only: the "
        "index map i -> |X|-i-3 is degenerate for |X| = 0 and the identity "
        "provably fails there"
    ]
    # each harness takes an instance and the run's outcome table
    stages = [
        ("duality identities done", complexes, duality_identity_reports),
        ("alexander duality done", complexes,
         lambda c, table: [cad_report(c, table)] if c.ground else []),
        (
            "grape duality done",
            complexes,
            lambda c, table: grape_duality_reports(c, sizes.small_variants_max_ground, table),
        ),
        ("strong/homology consistency done", complexes,
         lambda c, table: wedge_reports(c, GrapeVariant.STRONG, table)),
        (
            f"forest theorem done ({len(forests)} forests)",
            forests,
            lambda g, table: verify_forest_theorem(g, table) + konig_reports(g, table),
        ),
        (
            f"path-free/path-missing done ({len(digraphs)} digraphs)",
            digraphs,
            verify_pfpm_theorem,
        ),
        (
            "deletion/contraction identities done",
            identity_digraphs,
            lambda d, _: deletion_contraction_reports(d),
        ),
        ("ground independence done", complexes, ground_independence_reports),
        ("lifted collapses done", complexes, lifted_collapse_reports),
        ("wedge predictions done", complexes,
         lambda c, table: wedge_reports(c, GrapeVariant.COMBINATORIAL, table)),
        # the named-instance harnesses take no argument; each is its own instance
        ("named instances done", [five_cycle_reports, cyclic_no_useless_reports], lambda h, _: h()),
    ]
    outcomes = OutcomeTable()
    for line, instances, harness in stages:
        seen: dict = {}  # dropped after the stage
        for x in instances:  # one hash per occurrence
            found = seen.get(x)
            if found is None:
                seen[x] = found = harness(x, outcomes)
            reports.extend(found)
        say(line)
    return {"level": level, "seed": seed, "notes": notes,
            **summarise(reports, ("fail", "unknown"))}
