"""The four benchmark workloads: seeded inputs, CLI queries and their oracles.

A workload's set-up writes its input files and returns the body: the list
of CLI queries one pass runs, in order.  Each query carries its own check,
which re-derives the expected answer with the benchmark's code in
``instances`` (never with grapes) and returns the problems it found.

Sizes are chosen so that one pass takes 7-10 s at reference speed, and so
that the seed changes the instances but hardly the amount of work.  Fixed
families (paths, simplex and cross-polytope boundaries) carry much of each
body.  Where the work depends strongly on an instance's structure (trees,
graphs, DAGs), the structure is fixed per size and the seed relabels it.
Small random complexes come straight from the seed.  ``tiny`` shrinks every
instance for the benchmark's own tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import instances as inst

SUITE_PINNED_PASS = {1729: 36312}  # full-level pass count known per seed
CANDIDATES = 5  # seeded candidates per instance; the median-sized one is used


@dataclass
class Query:
    """One CLI call: a unit of timed work and the check of its output."""

    name: str
    argv: list
    check: Callable  # (exit code, parsed stdout) -> list of problems
    stages: bool = False  # stderr carries stage lines that split the unit
    ready: Callable = field(default=lambda: True)  # False: skip this pass


@dataclass
class Body:
    queries: list
    instances: int  # distinct input instances, for provenance


def _load_degrees(section: dict) -> dict:
    return {int(k): v for k, v in section.items() if v}


def _expect_exit(rc: int, want: int) -> list:
    return [] if rc == want else [f"exit code {rc}, expected {want}"]


# -- suite-full ---------------------------------------------------------------


def suite_full(seed: int, work: Path, tiny: bool) -> Body:
    """The paper's whole verification matrix as one CLI call.

    Thousands of calls on tiny complexes: bound by per-call overhead in the
    face kernel and by small Smith normal forms.
    """
    level = "smoke" if tiny else "full"
    pinned = None if tiny else SUITE_PINNED_PASS.get(seed)
    first: dict = {}

    def check(rc: int, out: dict) -> list:
        problems = _expect_exit(rc, 0)
        if out["fail"] or out["unknown"]:
            problems.append(f"{out['fail']} failed, {out['unknown']} unknown checks")
        if pinned is not None and out["pass"] != pinned:
            problems.append(f"pass count {out['pass']}, expected {pinned}")
        if out["pass"] <= 0:
            problems.append("no check passed")
        counts = (out["pass"], out["fail"], out["unknown"])
        if first.setdefault("counts", counts) != counts:
            problems.append("summary differs between passes of the same seed")
        return problems

    argv = ["suite", "--level", level, "--seed", str(seed)]
    return Body([Query("suite", argv, check, stages=True)], instances=1)


# -- homology-large -----------------------------------------------------------


def _homology_check(masks: list, expected_degree, known: bool) -> Callable:
    """Reduced homology and cohomology against theory and the face counts.

    Always: the Euler characteristic from the face counts, and cohomology
    from homology by universal coefficients (equal ranks, torsion shifted up
    by one).  When ``known``: exactly one Z in ``expected_degree`` (none for
    None) and no torsion.
    """
    euler = inst.reduced_euler(masks)

    def check(rc: int, out: dict) -> list:
        problems = _expect_exit(rc, 0)
        betti = _load_degrees(out["betti"])
        torsion = _load_degrees(out["torsion"])
        cobetti = _load_degrees(out["cohomology"]["betti"])
        cotorsion = _load_degrees(out["cohomology"]["torsion"])
        if sum((-1) ** k * b for k, b in betti.items()) != euler:
            problems.append("Betti numbers disagree with the Euler characteristic")
        if cobetti != betti:
            problems.append("cohomology ranks differ from homology ranks")
        if cotorsion != {k + 1: t for k, t in torsion.items()}:
            problems.append("cohomology torsion is not homology torsion shifted by one")
        if known and (betti != ({} if expected_degree is None else {expected_degree: 1}) or torsion):
            problems.append(f"expected one Z in degree {expected_degree}, got {betti} {torsion}")
        return problems

    return check


def _cad_check(rc: int, out: dict) -> list:
    problems = _expect_exit(rc, 0)
    if out.get("status") != "pass":
        problems.append("combinatorial Alexander duality failed")
    return problems


def _forest_invariants(n: int, edges: list) -> tuple:
    """(gamma, i_dom, alpha0) of a graph, from its face tables."""
    ind = inst.ind_table(n, edges)
    dom = inst.dom_table(n, edges)
    full = (1 << n) - 1
    dominating = [full ^ m for m in range(1 << n) if dom[m]]
    gamma = min(bin(d).count("1") for d in dominating)
    i_dom = min(bin(d).count("1") for d in dominating if ind[d])
    alpha = max(bin(m).count("1") for m in range(1 << n) if ind[m])
    return gamma, i_dom, n - alpha


def _forest(n: int, i: int) -> list:
    """A fixed random tree of median Ind size among CANDIDATES, for the
    seed to relabel.  Random trees of one size differ severalfold in the
    work they bring (certificate size, boundary-matrix size), which would
    let the seed, not the program, move the figures."""
    shape = random.Random(f"tree{n}-{i}")
    return inst.typical([inst.random_tree(n, shape) for _ in range(CANDIDATES)],
                        lambda e: sum(inst.ind_table(n, e)))


def homology_large(seed: int, work: Path, tiny: bool) -> Body:
    """Mid-size complexes through ``homology`` and ``verify cad``.

    A few large boundary matrices instead of thousands of tiny ones: dense
    Smith normal form is almost all of the time.
    """
    rng = random.Random(seed)
    items = []  # (name, ground, masks, expected degree, expectation known)
    for n in (5, 6) if tiny else (12, 13):
        masks = inst.maximal_masks(inst.ind_table(n, [(i, i + 1) for i in range(n - 1)]))
        items.append((f"ind-path{n}", [f"v{i + 1}" for i in range(n)], masks,
                      inst.kozlov_path_degree(n), True))
    for i, n in enumerate((6, 7) if tiny else (12, 12, 13)):
        edges = inst.relabel(n, _forest(n, i), rng)
        table = inst.ind_table(n, edges)
        gamma, i_dom, _ = _forest_invariants(n, edges)
        masks = inst.maximal_masks(table)
        # Ind(forest) is contractible or a sphere of dimension i_dom - 1
        # (and then i_dom = gamma); the Euler characteristic tells which
        degree = None if inst.reduced_euler(masks) == 0 else i_dom - 1
        items.append((f"ind-forest{n}-{i}", [f"v{j + 1}" for j in range(n)], masks, degree, True))
    for n in (4, 5) if tiny else (9, 10):
        ground, masks = inst.simplex_boundary(n)
        items.append((f"simplex-boundary{n}", ground, masks, n - 2, True))
    for n in (2, 3) if tiny else (4, 5):
        ground, masks = inst.cross_polytope(n)
        items.append((f"cross{n}", ground, masks, n - 1, True))
    # random pure complexes: ten of dimension 3, with as many queries below
    # them as above, put the median query in the middle of their cluster
    for dim, copies, (ground_size, count) in ((2, 4, (6, 6) if tiny else (15, 90)),
                                              (3, 10, (6, 4) if tiny else (12, 60))):
        for i in range(copies):
            masks = inst.random_pure(ground_size, dim, count, rng)
            items.append((f"pure{dim}-{i}", [f"x{j}" for j in range(ground_size)], masks, None, False))

    queries = []
    for name, ground, masks, degree, known in items:
        path = work / f"{name}.json"
        inst.write_json(path, inst.complex_json(ground, masks))
        queries.append(Query(f"homology:{name}", ["homology", str(path)],
                             _homology_check(masks, degree, known)))
    # duality on instances whose duals stay small: a sparse complex on a
    # large ground set has a huge dual
    cad_names = [name for name, *_ in items if name.startswith("cross")]
    cad_names.append("simplex-boundary4" if tiny else "simplex-boundary9")
    for i in range(2):
        ground_size = 5 if tiny else 7
        masks = inst.random_pure(ground_size, 2, 4 if tiny else 9, rng)
        cad_names.append(f"small2-{i}")
        inst.write_json(work / f"small2-{i}.json",
                        inst.complex_json([f"x{j}" for j in range(ground_size)], masks))
    for name in cad_names:
        queries.append(Query(f"cad:{name}", ["verify", "cad", str(work / f"{name}.json")], _cad_check))
    return Body(queries, instances=len(items) + 2)


# -- certify-large ------------------------------------------------------------


def _class_of(out: dict):
    cls = out["class"]
    return None if cls["class"] == "void" else cls["n"]


class _Certificates:
    """Certificate files emitted by ``grape check``, replayed by verify-cert."""

    def __init__(self, work: Path):
        self.work = work
        self.present: set = set()

    def path(self, key: str) -> Path:
        return self.work / f"cert-{key}.json"

    def keep(self, key: str, out: dict) -> None:
        cert = out.get("certificate")
        if cert is None:
            self.present.discard(key)
            return
        inst.write_json(self.path(key), cert)
        self.present.add(key)


def _grape_check(certs: _Certificates, key: str, allowed: tuple) -> Callable:
    def check(rc: int, out: dict) -> list:
        verdict = out.get("verdict")
        problems = [] if verdict in allowed else [f"verdict {verdict!r}, expected {allowed}"]
        problems += _expect_exit(rc, {"yes": 0, "no": 1, "unknown": 3}.get(verdict, 0))
        if verdict == "yes" and "certificate" not in out:
            problems.append("yes verdict without a certificate")
        certs.keep(key, out)
        return problems

    return check


def _replay_check(variant: str) -> Callable:
    def check(rc: int, out: dict) -> list:
        problems = _expect_exit(rc, 0)
        if out.get("valid") is not True or out.get("variant") not in (variant, "any"):
            problems.append(f"certificate did not replay: {out}")
        return problems

    return check


def _classify_check(allowed: Callable) -> Callable:
    def check(rc: int, out: dict) -> list:
        problems = _expect_exit(rc, 0)
        if not out.get("strong"):
            return problems + ["classify found no strong grape"]
        if "certificate" not in out:
            problems.append("classification without a certificate")
        if not allowed(_class_of(out)):
            problems.append(f"class {out['class']} contradicts the formula")
        return problems

    return check


def _duality_check(rc: int, out: dict) -> list:
    problems = _expect_exit(rc, 0)
    if out.get("pass") is not True or out.get("dual_verdict") != "yes":
        problems.append(f"dual invariance failed: {out}")
    return problems


def _collapse_check(ground: list, masks: list) -> Callable:
    common = -1
    for m in masks:
        common &= m
    cone = bool(masks) and common != 0
    euler = inst.reduced_euler(masks)

    def check(rc: int, out: dict) -> list:
        verdict = out.get("verdict")
        problems = _expect_exit(rc, {"yes": 0, "no": 1, "unknown": 3}.get(verdict, 0))
        if verdict == "yes":
            if euler != 0:
                problems.append("collapsible verdict on a complex with nonzero Euler characteristic")
            if not inst.collapses_to_void(ground, masks, out.get("sequence", {}).get("steps", [])):
                problems.append("collapse sequence does not replay to the void complex")
        elif verdict == "no" and cone:
            problems.append("a cone was reported not collapsible")
        elif verdict not in ("no", "unknown"):
            problems.append(f"verdict {verdict!r}")
        return problems

    return check


def certify_large(seed: int, work: Path, tiny: bool) -> Body:
    """Recognition, certificate JSON, replay and collapse search.

    The complexes are built here, in set-up, so the timed body does no Smith
    normal form and builds no graph complexes.
    """
    rng = random.Random(seed)
    certs = _Certificates(work)
    queries: list = []
    n_instances = 0

    def complex_file(name: str, ground: list, masks: list) -> str:
        nonlocal n_instances
        n_instances += 1
        path = work / f"{name}.json"
        inst.write_json(path, inst.complex_json(ground, masks))
        return str(path)

    def strong_queries(name: str, path: str, allowed: Callable, comb: bool, duality: bool):
        key = f"{name}-strong"
        queries.append(Query(f"check-strong:{name}", ["grape", "check", path, "--variant", "strong"],
                             _grape_check(certs, key, ("yes",))))
        queries.append(Query(f"verify-cert-strong:{name}", ["grape", "verify-cert", path, str(certs.path(key))],
                             _replay_check("strong")))
        queries.append(Query(f"classify:{name}", ["grape", "classify", path], _classify_check(allowed)))
        if comb:
            key = f"{name}-comb"
            queries.append(Query(f"check-comb:{name}", ["grape", "check", path, "--variant", "comb"],
                                 _grape_check(certs, key, ("yes",))))
            queries.append(Query(f"verify-cert-comb:{name}", ["grape", "verify-cert", path, str(certs.path(key))],
                                 _replay_check("comb")))
        if duality:
            queries.append(Query(f"duality:{name}", ["verify", "duality", path, "--variant", "strong"],
                                 _duality_check))

    # forests: Ind and Dom, and their duals on the smallest size.  The duals
    # carry the largest certificates (about 3 MB each at 14 vertices); four
    # of them put sixteen queries in the slowest cluster, so the tail
    # percentile falls inside it rather than at its edge.
    for i, n in enumerate((6, 6, 7, 8) if tiny else (14, 14, 15, 16)):
        edges = inst.relabel(n, _forest(n, i), rng)
        gamma, i_dom, alpha0 = _forest_invariants(n, edges)
        ground = [f"v{j + 1}" for j in range(n)]
        sphere = i_dom == gamma
        ind = inst.ind_table(n, edges)
        dom = inst.dom_table(n, edges)
        forms = [
            ("ind", ind, lambda c, k=i_dom, ok=sphere: c is None or (ok and c == k)),
            ("dom", dom, lambda c, k=alpha0: c == k),
        ]
        with_duals = i < 2
        if with_duals:
            forms += [
                ("ind-dual", inst.dual_table(ind),
                 lambda c, k=n - i_dom - 1, ok=sphere: c is None or (ok and c == k)),
                ("dom-dual", inst.dual_table(dom), lambda c, k=n - alpha0 - 1: c == k),
            ]
        for kind, table, allowed in forms:
            name = f"{kind}-forest{n}-{i}"
            path = complex_file(name, ground, inst.maximal_masks(table))
            strong_queries(name, path, allowed, comb=i == 0, duality=with_duals)

    for n in (3, 4) if tiny else (6, 7, 8):
        ground, masks = inst.cross_polytope(n)
        name = f"cross{n}"
        strong_queries(name, complex_file(name, ground, masks), lambda c, k=n: c == k,
                       comb=True, duality=True)

    # path-free / path-missing of DAGs in which every arc is on an s-t path
    for v, arcs in ((4, 5), (4, 6)) if tiny else ((5, 9), (6, 10), (6, 11)):
        arc_list, s, t = inst.useful_dag(v, arcs, rng)
        pf = inst.pf_table(arc_list, s, t)
        nonsinks = len({a for a, _ in arc_list})
        ground = [f"e{i + 1}" for i in range(arcs)]
        for kind, table, want in (("pf", pf, nonsinks - 1), ("pm", inst.dual_table(pf), arcs - nonsinks)):
            name = f"{kind}-dag{v}x{arcs}"
            path = complex_file(name, ground, inst.maximal_masks(table))
            strong_queries(name, path, lambda c, k=want: c == k, comb=False, duality=False)

    # small 2-complexes: weak recognition and exhaustive collapse search
    for i in range(6):
        ground_size, count = (5, 4) if tiny else (6, 7)
        ground = [f"x{j}" for j in range(ground_size)]
        masks = inst.random_pure(ground_size, 2, count, rng)
        name = f"small2-{i}"
        path = complex_file(name, ground, masks)
        key = f"{name}-weak"
        queries.append(Query(f"check-weak:{name}", ["grape", "check", path, "--variant", "weak"],
                             _grape_check(certs, key, ("yes", "unknown"))))
        queries.append(Query(f"verify-cert-weak:{name}", ["grape", "verify-cert", path, str(certs.path(key))],
                             _replay_check("weak"), ready=lambda k=key: k in certs.present))
        queries.append(Query(f"collapse:{name}", ["collapse", path, "--exhaustive", "--budget", "4000"],
                             _collapse_check(ground, masks)))
    return Body(queries, instances=n_instances)


# -- graph-build --------------------------------------------------------------


class _Expected:
    """Expected facet sets, computed on first use and kept across passes."""

    def __init__(self, ground: list, make_table: Callable, dual: bool):
        self.ground = ground
        self.make_table = make_table
        self.dual = dual
        self.facets: Optional[frozenset] = None

    def get(self) -> frozenset:
        if self.facets is None:
            table = self.make_table()
            if self.dual:
                table = inst.dual_table(table)
            self.facets = frozenset(inst.maximal_masks(table))
        return self.facets


def _facets_check(expected: _Expected) -> Callable:
    def check(rc: int, out: dict) -> list:
        problems = _expect_exit(rc, 0)
        if sorted(out["ground"]) != sorted(expected.ground):
            return problems + ["ground set differs from the input"]
        got = inst.facet_set(out["facets"], expected.ground)
        if len(got) != len(out["facets"]):
            problems.append("repeated facets")
        want = expected.get()
        if got != want:
            problems.append(f"{len(got - want)} facets violate the definition, {len(want - got)} missing")
        return problems

    return check


def _pfpm_theorem_check(rc: int, out: dict) -> list:
    problems = _expect_exit(rc, 0)
    if out.get("fail") or out.get("unknown") or not out.get("pass"):
        problems.append(f"pfpm theorem checks: {out.get('pass')} pass, {out.get('fail')} fail")
    return problems


def graph_build(seed: int, work: Path, tiny: bool) -> Body:
    """Graph and digraph complexes built by scanning all 2^n subsets.

    The only workload where the predicate scans in ``graphs`` dominate.
    Their cost depends on the input far more than the other workloads'
    costs do: up to +-25% per query between random structures of one size,
    up to +-20% between orderings of one structure for the edge- and
    arc-indexed scans (EC, ED, PF, PM), and +-12% between relabellings for
    Ind on 17 vertices, which set the tail percentile.  So the inputs here
    are fixed per size and do not depend on the seed.
    """
    queries: list = []
    n_instances = 0

    def from_graph(name: str, path: str, kind: str, dual: bool, expected: _Expected) -> None:
        argv = ["from-graph", path, "--complex", kind] + (["--dual"] if dual else [])
        queries.append(Query(f"{kind}{'-dual' if dual else ''}:{name}", argv, _facets_check(expected)))

    def graph_file(name: str, n: int, edges: list) -> str:
        nonlocal n_instances
        n_instances += 1
        path = str(work / f"{name}.json")
        inst.write_json(path, inst.graph_json(n, edges))
        return path

    # The sizes put about six queries of similar cost (0.3-0.4 s at
    # reference speed) in the middle of the pass, so the median query falls
    # inside that cluster.
    # Ind on paths with random chords (Ind of random trees varies twice as
    # much in size) and Dom, with --dual on some sizes; a dominance scan
    # costs most, about 1 s at 15 vertices.
    for kind, make, sizes, dual_sizes in (
        ("ind", inst.ind_table, (6, 7, 8, 9) if tiny else (14, 15, 16, 17), (8, 9) if tiny else (16, 17)),
        ("dom", inst.dom_table, (6, 7) if tiny else (14, 15), (6, 7) if tiny else (14, 15)),
    ):
        for n in sizes:
            edges = inst.path_with_chords(n, random.Random(f"graph{n}-{kind}"))
            name = f"graph{n}-{kind}"
            path = graph_file(name, n, edges)
            ground = [f"v{i + 1}" for i in range(n)]
            for dual in (False, True) if n in dual_sizes else (False,):
                from_graph(name, path, kind, dual,
                           _Expected(ground, lambda n=n, e=edges, f=make: f(n, e), dual))

    # edge cover and edge dominance on trees (ground = 13-14 edges)
    for n, kinds in (((6, ("ed",)), (7, ("ec", "ec-dual", "ed", "ed-dual"))) if tiny else
                     ((14, ("ed",)), (15, ("ec", "ec-dual", "ed", "ed-dual")))):
        edges = inst.sorted_edges(inst.random_tree(n, random.Random(f"tree{n}")))
        name = f"tree{n}"
        path = graph_file(name, n, edges)
        ground = inst.edge_ground(n, edges)
        for kind in kinds:
            make = inst.ec_table if kind.startswith("ec") else inst.ed_table
            from_graph(name, path, kind[:2], kind.endswith("dual"),
                       _Expected(ground, lambda n=n, e=edges, f=make: f(n, e), kind.endswith("dual")))

    # PF and PM of DAGs with 12-15 arcs.  Building PF costs (time and
    # memory) about its face count and PM the rest of the 2^arcs subsets, so
    # of several fixed candidates the DAG whose path-free sets are nearest
    # half of all subsets is kept.  PF and PM are checked against one
    # path-free table, so the PM output must be the dual of the PF output.
    # PF at 15 arcs (1-2 s) is left out.
    dags = (((4, 6), ("verify-pfpm",)), ((5, 7), ("pf", "pm")), ((5, 8), ("pm",))) if tiny else (
        ((6, 12), ("verify-pfpm",)), ((7, 13), ("pf", "pm")), ((7, 14), ("pf", "pm")), ((8, 15), ("pm",)))
    for (v, arcs), kinds in dags:
        shape = random.Random(f"dag{v}x{arcs}")
        arc_list, s, t = min((inst.useful_dag(v, arcs, shape) for _ in range(5 * CANDIDATES)),
                             key=lambda dag: abs(sum(inst.pf_table(*dag)) - (1 << arcs) / 2))
        name = f"dag{v}x{arcs}"
        n_instances += 1
        path = str(work / f"{name}.json")
        inst.write_json(path, inst.digraph_json(v, arc_list, s, t))
        ground = [f"e{i + 1}" for i in range(arcs)]
        make = lambda a=arc_list, s=s, t=t: inst.pf_table(a, s, t)
        for kind in kinds:
            if kind == "verify-pfpm":
                queries.append(Query(f"verify-pfpm:{name}", ["verify", "pfpm", path], _pfpm_theorem_check))
            else:
                queries.append(Query(f"{kind}:{name}", ["from-digraph", path, "--complex", kind],
                                     _facets_check(_Expected(ground, make, dual=kind == "pm"))))
    return Body(queries, instances=n_instances)


WORKLOADS = {
    "suite-full": suite_full,
    "homology-large": homology_large,
    "certify-large": certify_large,
    "graph-build": graph_build,
}
