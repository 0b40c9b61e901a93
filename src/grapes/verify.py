"""Theorem-verification harnesses and the reproducible acceptance suite.

Every theorem check is a harness here: it checks one statement on one
instance and returns a list of reports (``cad_report`` and
``grape_duality_report``, which the CLI also runs, return one).  Each takes
the instance, then its parameters, then the run's :class:`OutcomeTable`,
which lives here and is required: the suite passes one table for the whole
run and each ``verify`` command a fresh one, so a harness computes nothing
that its table holds.  A report holds its instance, a complex, graph or
digraph, and writes it as JSON only when it is printed, so a failure can be
replayed on its own.  The suite runner wires the harnesses to deterministic
instance sets (fixed seeds, exhaustive small enumerations) of the sizes
``SIZES`` gives.  A :class:`Tally` counts pass / fail / unknown for the
suite and the CLI alike as the reports arrive, and holds only the reports
it prints: the suite's run keeps none that passed.
"""

from __future__ import annotations

import string
from dataclasses import dataclass, field
from typing import Callable

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
from .grape import GrapeVariant, GrapeVerdict, check_grape, verify_certificate
from .graphs import (
    FORBIDDEN_SETS,
    Digraph,
    Graph,
    canonical_forest,
    contract_arc,
    delete_arc,
    digraph_to_json,
    edge_ground,
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
from .homology import HomologyProfile, class_name, dual_wedge, memo_homology, reduced_homology

DEFAULT_SEED = 1729


# the writer of each instance type, called only for a report that is printed
_INSTANCE_JSON = {Complex: complex_to_json, Graph: graph_to_json, Digraph: digraph_to_json}


@dataclass(slots=True)
class VerificationReport:
    theorem: str
    instance: Complex | Graph | Digraph
    status: str  # "pass" | "fail" | "unknown"
    expected: object = None
    observed: object = None
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        out = {
            "theorem": self.theorem,
            "instance": _INSTANCE_JSON[type(self.instance)](self.instance),
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


def _wedge_json(wedge: dict) -> dict:
    """A wedge as a report writes it: dimension (a string) -> multiplicity."""
    return {str(k): v for k, v in sorted(wedge.items())}


# -- instance sets ----------------------------------------------------------


def standard_complexes(n_random: int, max_ground: int, exhaustive_max: int, seed: int) -> list:
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


def standard_forests(n_forests: int, max_tree: int, seed: int):
    """All unlabeled trees up to max_tree vertices, then seeded one-edge-off forests."""
    out = list(all_trees(max_tree))
    for i in range(n_forests):
        out.append(gen_forest(2 + i % (max_tree - 1), seed + i, drop=1))
    return out


def standard_digraphs(n_random: int, exhaustive_v: int, exhaustive_e: int, seed: int):
    """Every digraph shape up to the exhaustive sizes, then seeded random
    digraphs on 1-5 vertices with 0-7 arcs."""
    out = list(all_digraphs(exhaustive_v, exhaustive_e))
    for i in range(n_random):
        out.append(gen_digraph(1 + i % 5, i % 8, seed + i))
    return out


# -- the run's outcome table ---------------------------------------------------


# the variants whose "yes" settles each variant: strong => comb => weak and
# strong => strong-weak => weak, each arrow a rewrite of the witnesses alone
# at the same split (a cone side gives a cone element, and a cone side, a
# side that collapses or the cone x * lk an intermediate); every certificate
# folds to the one wedge
_IMPLIED_BY = {
    GrapeVariant.COMBINATORIAL: (GrapeVariant.STRONG,),
    GrapeVariant.STRONG_WEAK: (GrapeVariant.STRONG,),
    GrapeVariant.WEAK: (GrapeVariant.STRONG, GrapeVariant.COMBINATORIAL, GrapeVariant.STRONG_WEAK),
}


class OutcomeTable:
    """A memo that computes each key once; one per suite run or CLI command,
    dropped with it.

    Recognition and homology read facet masks only, so :meth:`recognise`
    keeps :func:`check_grape`'s verdicts by (masks, variant), each "yes"
    with its wedge and its certificate dropped, and ``profiles`` homology by
    masks, for :meth:`homology` and the table's recognitions and collapse
    searches.  :meth:`dual` keeps duals by (ground, masks);
    harnesses keep PF/PM per path family and a forest's invariants and
    complexes per isomorphism class too.

    A verdict may be read off a stronger variant's "yes" on the same masks
    (``_IMPLIED_BY``) instead of searched: the entry is then that stronger
    variant's verdict object itself, its node count included.  Only what the
    table already holds is read: a variant nobody asks for is never
    searched, and a "no" settles nothing.
    """

    def __init__(self) -> None:
        self.entries: dict = {}
        self.profiles: dict = {}

    def once(self, key, compute: Callable):
        """The value under key, calling compute() only if there is none yet
        (a falsy value, such as an empty list, counts as one)."""
        if key not in self.entries:
            self.entries[key] = compute()
        return self.entries[key]

    def recognise(self, c: Complex, variant: GrapeVariant) -> GrapeVerdict:
        def outcome() -> GrapeVerdict:
            for stronger in _IMPLIED_BY.get(variant, ()):
                held = self.entries.get((c.masks, stronger))
                if held is not None and held.is_yes:
                    return held  # the same wedge: any certificate folds to the homotopy type
            found = check_grape(c, variant, profiles=self.profiles)
            # not _replace, whose resized temporary tuple grows CPython's
            # 5-tuple free list by one per call (67 KB over a full suite)
            return GrapeVerdict(found.verdict, None, found.reason, found.nodes, found.wedge)

        return self.once((c.masks, variant), outcome)

    def homology(self, c: Complex) -> HomologyProfile:
        return memo_homology(c, self.profiles)

    def dual(self, c: Complex) -> Complex:
        """Forward only: c is never filed as the dual of its dual, which
        would make the involution check read back what it checks."""
        return self.once(("dual", c), lambda: alexander_dual(c))


# -- per-instance harnesses ---------------------------------------------------


def duality_identity_reports(c: Complex, table: OutcomeTable) -> list:
    """Double dual is the identity; deletion and link swap across duality.
    Every dual comes from the table, which files a dual under its complex
    only, so the double dual is built anew."""
    dual = table.dual(c)
    out = [_report("duality-involution", c, table.dual(dual) == c)]
    for a in c.ground:
        ok = (table.dual(deletion(c, a)) == link(dual, a)
              and table.dual(link(c, a)) == deletion(dual, a))
        out.append(_report("duality-deletion-link-swap", c, ok, element=a))
    return out


def cad_report(c: Complex, table: OutcomeTable) -> VerificationReport:
    """Combinatorial Alexander duality in (co)homology: betti_i(c) =
    cobetti_{|X|-i-3}(dual) with matching torsion, over every index where
    either side could be nonzero.  Each side's profile is reduced from its
    own complex through the table, and the dual comes from it too; neither
    profile is derived from the other.  The dual's cohomology follows from
    its homology by universal coefficients.  A failure observes the first
    index where the two sides differ."""
    n = len(c.ground)
    h_c = table.homology(c)
    ch_d = table.homology(table.dual(c)).cohomology()
    for i in range(-2, n + 1):
        j = n - i - 3
        for which, left, right in (
            ("homology vs dual cohomology", h_c.betti_at(i), ch_d.betti_at(j)),
            ("torsion vs dual torsion", sorted(h_c.torsion_at(i)), sorted(ch_d.torsion_at(j))),
        ):
            if left != right:
                observed = {"pass": False, "ground_size": n, "index": i, "dual_index": j,
                            "which": which, "left": left, "right": right}
                return _report("combinatorial-alexander-duality", c, False, observed=observed)
    return _report("combinatorial-alexander-duality", c, True)


def grape_duality_report(c: Complex, variant: GrapeVariant,
                         table: OutcomeTable) -> VerificationReport:
    """The Alexander dual of c is a grape of the same variant.

    The details always carry the primal verdict.  Unless it is "yes" the
    report does not pass and the dual is not built: it fails on a "no" and
    is unknown on an "unknown".  When both are "yes" on a nonempty ground,
    for every variant, the dual's wedge must be the primal's shifted by
    :func:`dual_wedge`, and the details carry the three wedges.  A weak dual
    that comes back "unknown" is tolerated, flagged, and the report is
    unknown: the weak search is the one that can end "unknown" short of its
    budget.  The dual and both recognitions go through the table.
    """
    primal = table.recognise(c, variant)
    details = {
        "variant": variant.value,
        "ground_size": len(c.ground),
        "primal_verdict": primal.verdict,
        "pass": primal.is_yes,
    }
    unknown = primal.verdict == "unknown"
    if primal.is_yes:
        dual = table.recognise(table.dual(c), variant)
        unknown = variant is GrapeVariant.WEAK and dual.verdict == "unknown"
        details["dual_verdict"] = dual.verdict
        details["unknown_tolerated"] = unknown
        details["pass"] = dual.is_yes or unknown
        if dual.is_yes and c.ground:
            expected = dual_wedge(primal.wedge, len(c.ground))
            details["wedge"] = _wedge_json(primal.wedge)
            details["dual_wedge"] = _wedge_json(dual.wedge)
            details["expected_dual_wedge"] = _wedge_json(expected)
            details["pass"] = dual.wedge == expected
    return _report(f"grape-duality-{variant.value}", c, details["pass"], unknown=unknown, **details)


def grape_duality_reports(c: Complex, small_variants_max_ground: int,
                          table: OutcomeTable) -> list:
    """:func:`grape_duality_report` for each variant that c is a grape of:
    strong always, the others up to small_variants_max_ground ground
    elements."""
    small = len(c.ground) <= small_variants_max_ground
    return [grape_duality_report(c, variant, table)
            for variant in (GrapeVariant if small else (GrapeVariant.STRONG,))
            if table.recognise(c, variant).is_yes]


def _forest_formula_checks(g: Graph, inv) -> list:
    """Expected wedges for the eight forest complexes, from the invariants:
    void, or the one sphere of a cross-polytope boundary of the dimension n
    a formula gives, which is the wedge {n - 1: 1}.  Each kind has one
    formula, its primal's, which a dual's wedge shifted back by
    :func:`dual_wedge` on its ground must meet (the shift is an involution)."""
    n_v = len(g.vertices)
    n_e = len(g.edges)

    def sphere_or_void(n: int):
        return lambda wedge: not wedge or (wedge == {n - 1: 1} and inv.i_dom == inv.gamma)

    def exactly(n: int):
        return lambda wedge: wedge == {n - 1: 1}

    def on_dual(kind: str, formula, n: int):
        if not n:
            # no formula applies on an empty ground: each primal is irrelevant, its
            # dual void, save the void edge-cover complex of a graph with vertices
            forced = {-1: 1} if kind == "ec" and n_v else {}
            return lambda wedge: wedge == forced
        return lambda wedge: formula(dual_wedge(wedge, n))

    formulas = {"ind": ("independence", sphere_or_void(inv.i_dom)),
                "dom": ("dominance", exactly(inv.alpha0)),
                "ec": ("edge-cover", sphere_or_void(n_e - n_v + inv.i_dom)),
                "ed": ("edge-dominance", exactly(n_e - inv.alpha0))}
    primal, dual = [], []
    for kind, forbidden_sets in FORBIDDEN_SETS.items():
        ground, forbidden = forbidden_sets(g)
        name, formula = formulas[kind]
        primal.append((name, avoiding(ground, forbidden), False, formula))
        dual.append((name, avoiding_dual(ground, forbidden), True, on_dual(kind, formula, len(ground))))
    return primal + dual


def _forest_class(g: Graph, table: OutcomeTable) -> tuple:
    """The invariants and the eight formula checks of g's isomorphism class,
    computed on the edges of g's canonical copy with the vertices v1..vn.
    The table keeps the copy per forest and the class per canonical key."""
    h = table.once(("canonical", g), lambda: canonical_forest(g))

    def compute() -> tuple:
        f = Graph(tuple(f"v{i}" for i in range(1, len(h.vertices) + 1)), h.edges)
        inv = invariants(f)
        return inv, _forest_formula_checks(f, inv)

    return table.once(("forest", len(h.vertices), h.edges), compute)


def verify_forest_theorem(g: Graph, table: OutcomeTable) -> list:
    """Check the forest theorem: the four graph complexes and their duals are
    strong grapes whose classes follow the invariant formulas.

    The checks run once per isomorphism class (:func:`_forest_class`), keyed
    by :func:`canonical_forest`'s vertex count and edges, and the reports
    name g.  Sharing is sound by construction: two forests share a key only
    when the canonical relabelling, an explicit isomorphism, maps one onto
    the other, and every quantity checked here is invariant under
    relabelling.  The class's complexes have the masks of the canonical
    copy's, so recognition and homology meet one mask-keyed entry per
    class.  g's own edge labels are still read, so that labels that collide
    are refused as when EC and ED are built on g."""
    if not is_forest(g):
        raise InputError("forest theorem harness needs a forest")
    inv, checks = _forest_class(g, table)
    edge_ground(g)  # refuses colliding labels
    out = []
    for name, cpx, dualize, wedge_ok in checks:
        label = f"forest-{name}{'-dual' if dualize else ''}"
        outcome = table.recognise(cpx, GrapeVariant.STRONG)
        if not outcome.is_yes:
            out.append(
                _report(label, g, False, expected="strong grape", observed=outcome.verdict)
            )
            continue
        ok = wedge_ok(outcome.wedge) and table.homology(cpx).is_wedge(outcome.wedge)
        out.append(_report(label, g, ok, observed=class_name(outcome.wedge)))
    return out


def verify_pfpm_theorem(d: Digraph, table: OutcomeTable) -> list:
    """Path-free/path-missing: duality, strong grape status, and dimensions.

    PF and PM depend only on the arc count and the s-t paths as masks (the
    full suite at seed 1729 meets 108 path families in 7,020 digraphs), so
    the table keeps per path family whether
    PM is the dual of PF, whether some arc is useless, and both strong
    outcomes with the names of their classes, none of which reads an arc id.
    """
    if not d.arcs:
        pf, pm = pf_complex(d), pm_complex(d)
        ok = (pf.is_irrelevant and pm.is_void) if d.s != d.t else (pf.is_void and pm.is_irrelevant)
        return [_report("pfpm-empty-conventions", d, ok)]

    def family() -> tuple:  # each strong outcome with its class's name, False unless "yes"
        pf, pm = pf_complex(d), pm_complex(d)
        strong = [table.recognise(cpx, GrapeVariant.STRONG) for cpx in (pf, pm)]
        return (pm == alexander_dual(pf), bool(useless_arcs(d)),
                *((o, o.is_yes and class_name(o.wedge)) for o in strong))

    dual_ok, useless, *found = table.once(("pfpm", len(d.arcs), frozenset(d.paths)), family)
    out = [_report("pfpm-alexander-dual", d, dual_ok)]
    # void on a degenerate digraph, else PF's one sphere; PM's is its shift on the arcs
    pf_wedge = {} if useless or has_cycle(d) else {len(nonsinks(d)) - 2: 1}
    wedges = (pf_wedge, dual_wedge(pf_wedge, len(d.arcs)))
    for name, expected, (strong, observed) in zip(("path-free", "path-missing"), wedges, found):
        if not strong.is_yes:
            out.append(_report(f"pfpm-{name}", d, False, expected="strong grape",
                               observed=strong.verdict))
            continue
        ok = strong.wedge == expected  # a class named per digraph only on a mismatch
        out.append(_report(f"pfpm-{name}", d, ok,
                           expected=observed if ok else class_name(expected), observed=observed))
    return out


def deletion_contraction_reports(d: Digraph) -> list:
    """Deletion/contraction identities for the path-free complex, plus the
    guaranteed-useless-arc implication after deleting a source arc."""
    pf = pf_complex(d)
    out = []
    for i, (arc, (src, _)) in enumerate(zip(d.ids, d.arcs)):
        ok = deletion(pf, arc) == pf_complex(delete_arc(d, i))
        out.append(_report("pf-deletion-identity", d, ok, arc=arc))
        if src == d.s:
            ok = link(pf, arc) == pf_complex(contract_arc(d, i))
            out.append(_report("pf-contraction-identity", d, ok, arc=arc))
    useless = useless_arcs(d)
    targets = [tgt for _, tgt in d.arcs]
    for i, (arc, (src, tgt)) in enumerate(zip(d.ids, d.arcs)):
        if src == d.s and arc not in useless and len(d.arcs) > 1 and targets.count(tgt) == 1:
            ok = bool(useless_arcs(delete_arc(d, i)))
            out.append(_report("pf-deletion-useless", d, ok, arc=arc))
    return out


def ground_independence_reports(c: Complex, table: OutcomeTable) -> list:
    """Verdicts must not change when the ground order is reversed and an
    unused ground element is added (this moves every pivot choice).  c's
    verdicts come from the table, and the moved complex is recognised
    afresh, reading homology from the table's profiles: that recognition is
    the check, and only its verdict is read."""
    fresh = "_" * (max(map(len, c.ground), default=0) + 1)  # longer than any element
    moved = new_complex(tuple(reversed(c.ground)) + (fresh,), c.facets)
    out = []
    for variant in GrapeVariant:
        a = table.recognise(c, variant).verdict
        b = check_grape(moved, variant, profiles=table.profiles).verdict
        out.append(
            _report(
                f"ground-independence-{variant.value}",
                c,
                a == b,
                expected=b,
                observed=a,
            )
        )
    return out


def lifted_collapse_reports(c: Complex, table: OutcomeTable) -> list:
    """Wherever a link collapses, the lifted sequence must collapse the
    complex onto the deletion.  Each link's search reads its homology from
    the table's profiles."""
    out = []
    for a in c.ground:
        result = collapse_search(link(c, a), profiles=table.profiles)
        if not result.is_yes:
            continue
        try:
            lifted_collapse(c, a, result.sequence)
            out.append(_report("lifted-collapse", c, True, element=a))
        except ReplayError as exc:
            out.append(
                _report("lifted-collapse", c, False, observed=str(exc), element=a)
            )
    return out


def wedge_reports(c: Complex, variant: GrapeVariant, table: OutcomeTable) -> list:
    """A yes certificate's predicted wedge must be the homology of c exactly,
    torsion included.  Both come from the table."""
    wedge = table.recognise(c, variant).wedge
    if wedge is None:
        return []
    return [_report("wedge-prediction", c, table.homology(c).is_wedge(wedge),
                    expected=_wedge_json(wedge))]


def konig_reports(g: Graph, table: OutcomeTable) -> list:
    if not is_bipartite(g):
        return []
    inv = _forest_class(g, table)[0] if is_forest(g) else invariants(g)
    return [_report("konig-cover-matching", g, inv.alpha0 == inv.beta1,
                    expected=inv.beta1, observed=inv.alpha0)]


def five_cycle_reports() -> list:
    """The 5-cycle: smallest non-combinatorial grape, still a weak grape."""
    c5 = cycle_complex(5)
    out = []
    comb = check_grape(c5, GrapeVariant.COMBINATORIAL)
    out.append(
        _report("five-cycle-not-combinatorial", c5, comb.verdict == "no", observed=comb.verdict)
    )
    weak = check_grape(c5, GrapeVariant.WEAK)
    if not weak.is_yes:
        return out + [_report("five-cycle-weak", c5, False, observed=weak.verdict)]
    try:
        verify_certificate(c5, GrapeVariant.WEAK, weak.certificate)
    except ReplayError as exc:
        return out + [_report("five-cycle-weak", c5, False, observed=str(exc))]
    ok = weak.wedge == {1: 1} and reduced_homology(c5).is_wedge({1: 1})
    out.append(_report("five-cycle-weak", c5, ok, expected=_wedge_json({1: 1}),
                       observed=_wedge_json(weak.wedge)))
    return out


def cyclic_no_useless_reports() -> list:
    """The cyclic-but-no-useless-arcs digraph: path-free complex facets,
    not a cone, collapsible, and a strong grape whose wedge is empty (void)."""
    d = cyclic_no_useless_digraph()
    pf = pf_complex(d)
    expected_facets = frozenset(
        frozenset(f)
        for f in ({"A", "E", "C", "D"}, {"F", "B", "C", "D"}, {"A", "F", "D"}, {"B", "E", "C"})
    )
    out = [
        _report(
            "cyclic-no-useless-pf-facets",
            d,
            pf.facets == expected_facets,
            observed=complex_to_json(pf)["facets"],
        ),
        _report("cyclic-no-useless-pf-not-cone", d, not meet_mask(pf.masks)),
        _report(
            "cyclic-no-useless-pf-collapsible",
            d,
            collapse_search(pf).is_yes,
        ),
        _report("cyclic-no-useless-arc-check", d, not useless_arcs(d)),
    ]
    verdict = check_grape(pf, GrapeVariant.STRONG)
    out.append(_report("cyclic-no-useless-pf-void-class", d, verdict.wedge == {}))
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


class Tally:
    """The pass, fail and unknown counts of the reports fed to it, in the
    order fed, holding only the reports it prints: those that did not pass,
    and the passing ones too when show_passes.  The suite and the CLI's
    ``verify forest`` and ``verify pfpm`` alike count here."""

    def __init__(self, show_passes: bool = False):
        self.show_passes = show_passes
        self.counts = dict.fromkeys(("pass", "fail", "unknown"), 0)
        self.reports: list = []

    def held(self, reports: list):
        """What the tally keeps of reports, to :meth:`add` at each
        occurrence: the number of passes alone when it prints none of them,
        else that number with the reports it prints."""
        shown = reports if self.show_passes else [r for r in reports if r.status != "pass"]
        passes = len(reports) - len(shown)
        return (passes, shown) if shown else passes

    def add(self, held) -> None:
        passes, shown = (held, ()) if type(held) is int else held
        self.counts["pass"] += passes
        for r in shown:
            self.counts[r.status] += 1
        self.reports.extend(shown)

    def summary(self) -> dict:
        """The counts, and the reports it holds as JSON, each writing its instance."""
        return {**self.counts, "reports": [r.to_json() for r in self.reports]}


def run_suite(level: str = "smoke", seed: int = DEFAULT_SEED, log: Callable = None) -> dict:
    """Run the whole verification matrix; returns the aggregated summary.

    Deterministic for a fixed seed and level.  The run has one outcome
    table, dropped when it returns: a mask set met again anywhere in the run
    (in another stage, as a dual, under other names) is recognised once and
    its homology reduced once, for recognition, collapse searches, the
    Alexander-duality check and the wedge checks alike.  An outcome is the
    search's own verdict, each "yes" with its wedge.  Each Alexander dual is
    built once per (ground, masks), and PF/PM per path family.  A forest's
    invariants and its eight complexes are kept per isomorphism class, keyed
    by its canonical relabelling (:func:`canonical_forest`): two forests
    share them only when an explicit isomorphism, the relabelling, maps one
    onto the other, and every quantity the forest stage checks is invariant
    under it.  Each stage checks each distinct instance once,
    and its reports count at every occurrence.  The run tallies as it goes:
    a stage keeps, per distinct instance, its number of passes and its
    non-passing reports (the number alone when all pass), and the run holds
    only the non-passing reports, in order.  The summary lists each with
    its instance, the only instances written as JSON.
    """
    if level not in SIZES:
        raise ValueError(f"unknown suite level {level!r}")
    sizes = SIZES[level]
    say = log or (lambda msg: None)

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
    table = OutcomeTable()
    tally = Tally()
    for line, instances, harness in stages:
        seen: dict = {}  # the tally's hold on each distinct instance's reports, for the stage
        for x in instances:  # one hash per occurrence
            found = seen.get(x)
            if found is None:
                seen[x] = found = tally.held(harness(x, table))
            tally.add(found)
        say(line)
    return {"level": level, "seed": seed, "notes": notes, **tally.summary()}
