"""Graph/digraph models, invariants, and the derived complexes."""

from itertools import combinations

import pytest

from grapes import (
    Graph,
    InputError,
    alexander_dual,
    contract_arc,
    delete_arc,
    digraph,
    dominance_complex,
    edge_cover_complex,
    edge_dominance_complex,
    equals,
    full_simplex,
    graph,
    has_cycle,
    independence_complex,
    invariants,
    is_bipartite,
    is_forest,
    nonsinks,
    pf_complex,
    pm_complex,
    useless_arcs,
)
from grapes.graphs import (
    complement,
    edge_ground,
    digraph_from_json,
    digraph_to_json,
    graph_from_json,
    graph_to_json,
)
from grapes.generators import all_trees, cyclic_no_useless_digraph
from test_complexes import has_face


def fs(*names):
    return frozenset(names)


def path_graph(n):
    vertices = tuple(f"v{i}" for i in range(1, n + 1))
    return Graph(vertices, frozenset(frozenset(p) for p in zip(vertices, vertices[1:])))


def star_graph(leaves):
    center = "v1"
    vertices = (center,) + tuple(f"v{i}" for i in range(2, leaves + 2))
    return Graph(vertices, frozenset(frozenset((center, v)) for v in vertices[1:]))


def edge_label(g, e):
    """An edge's name in the EC/ED ground: its ends in vertex order."""
    u, v = sorted(e, key=g.index)
    return f"{u}-{v}"


def is_dominating(g, chosen):
    """Every vertex is chosen or next to a chosen one."""
    chosen = set(chosen)
    return chosen.union(*(e for e in g.edges if e & chosen)) == set(g.vertices)


def is_independent(g, chosen):
    chosen = set(chosen)
    return not any(e <= chosen for e in g.edges)


def is_vertex_cover(g, chosen):
    chosen = set(chosen)
    return all(e & chosen for e in g.edges)


def is_edge_cover(g, chosen):
    covered = set()
    for e in chosen:
        covered |= e
    return covered == set(g.vertices)


def test_path_and_star_fixtures():
    assert path_graph(4).edges == {fs("v1", "v2"), fs("v2", "v3"), fs("v3", "v4")}
    assert star_graph(3).edges == {fs("v1", "v2"), fs("v1", "v3"), fs("v1", "v4")}


P2 = path_graph(2)
P3 = path_graph(3)
P4 = path_graph(4)
TRIANGLE = graph("abc", [("a", "b"), ("b", "c"), ("a", "c")])
C4 = graph("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])


def all_subsets(items):
    items = list(items)
    for k in range(len(items) + 1):
        for combo in combinations(items, k):
            yield frozenset(combo)


# -- model validation -----------------------------------------------------------


def test_graph_rejects_loops_and_unknown_vertices():
    with pytest.raises(InputError):
        graph("ab", [("a", "a")])
    with pytest.raises(InputError):
        graph("ab", [("a", "c")])
    with pytest.raises(InputError):
        graph(("a", "a"), [])


def test_digraph_allows_loops_and_parallels():
    d = digraph("ab", [("e1", "a", "a"), ("e2", "a", "b"), ("e3", "a", "b")], "a", "b")
    assert len(d.arcs) == 3


def test_digraph_rejects_duplicate_ids_and_unknown_vertices():
    with pytest.raises(InputError):
        digraph("ab", [("e", "a", "b"), ("e", "b", "a")], "a", "b")
    with pytest.raises(InputError):
        digraph("ab", [("e", "a", "z")], "a", "b")
    with pytest.raises(InputError):
        digraph("ab", [], "a", "z")


# -- derived complexes -------------------------------------------------------------


def test_independence_complex_examples():
    assert independence_complex(P2).facets == {fs("v1"), fs("v2")}
    assert independence_complex(P3).facets == {fs("v1", "v3"), fs("v2")}
    edgeless = graph("abc", [])
    assert equals(independence_complex(edgeless), full_simplex("abc"))


def test_dominance_complex_examples():
    assert dominance_complex(P3).facets == {fs("v1", "v3"), fs("v2")}
    assert dominance_complex(P2).facets == {fs("v1"), fs("v2")}
    single = graph("v", [])
    assert dominance_complex(single).is_irrelevant


def test_edge_cover_complex_examples():
    assert edge_cover_complex(P2).is_irrelevant
    assert edge_cover_complex(P3).is_irrelevant
    isolated = graph("abc", [("a", "b")])
    assert edge_cover_complex(isolated).is_void


def test_edge_dominance_complex_of_path():
    ed = edge_dominance_complex(P3)
    assert ed.facets == {fs("v1-v2"), fs("v2-v3")}


def test_complex_predicates_match_brute_force():
    """Membership oracle: test every subset against the defining predicate."""
    g = graph("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("a", "c")])
    ind = independence_complex(g)
    dom = dominance_complex(g)
    vset = set(g.vertices)
    for s in all_subsets(g.vertices):
        assert has_face(ind, s) == is_independent(g, s)
        assert has_face(dom, s) == is_dominating(g, vset - s)


# -- dual face descriptions ----------------------------------------------------------


def test_independence_dual_faces_are_noncovers():
    for g in (P3, P4, TRIANGLE, star_graph(3), path_graph(6)):
        dual = alexander_dual(independence_complex(g))
        for s in all_subsets(g.vertices):
            assert has_face(dual, s) == (not is_vertex_cover(g, s))


def test_dominance_dual_faces_are_nondominating():
    for g in (P3, P4, TRIANGLE, star_graph(5)):
        dual = alexander_dual(dominance_complex(g))
        for s in all_subsets(g.vertices):
            assert has_face(dual, s) == (not is_dominating(g, s))


def test_edge_cover_dual_faces_are_noncovers():
    for g in (P3, P4, star_graph(3), path_graph(6)):
        dual = alexander_dual(edge_cover_complex(g))
        labels = {f"{u}-{v}": fs(u, v) for u, v in g.sorted_edges()}
        for s in all_subsets(labels):
            chosen = [labels[x] for x in s]
            assert has_face(dual, s) == (not is_edge_cover(g, chosen))


def test_edge_dominance_dual_description():
    # a face of the dual: some edge is disjoint from every chosen edge
    for g in (P3, P4, C4, path_graph(6)):
        dual = alexander_dual(edge_dominance_complex(g))
        labels = {f"{u}-{v}": fs(u, v) for u, v in g.sorted_edges()}
        for s in all_subsets(labels):
            chosen = [labels[x] for x in s]
            witness = any(
                all(not (e & f) for f in chosen) for e in g.edges
            )
            assert has_face(dual, s) == witness


def line_dual(g):
    """Oracle: the graph on the edge labels, two labels adjacent when the edges meet."""
    ground = edge_ground(g)
    by_label = {edge_label(g, e): e for e in g.edges}
    edges = [
        frozenset((a, b))
        for i, a in enumerate(ground)
        for b in ground[i + 1 :]
        if by_label[a] & by_label[b]
    ]
    return Graph(ground, frozenset(edges))


def test_edge_dominance_matches_dominance_of_line_dual():
    for g in (P3, P4, star_graph(3), C4, path_graph(6)):
        direct = edge_dominance_complex(g)
        via_line_dual = dominance_complex(line_dual(g))
        assert equals(direct, via_line_dual)
        assert equals(alexander_dual(direct), alexander_dual(via_line_dual))


def test_dominance_dual_is_neighborhood_complex_of_complement():
    for g in (P3, P4, TRIANGLE, C4, star_graph(5)):
        dual = alexander_dual(dominance_complex(g))
        comp = complement(g)
        for s in all_subsets(g.vertices):
            has_common_neighbor = any(
                all(comp.adjacent(v, w) for w in s)
                for v in g.vertices
                if v not in s
            )
            assert has_face(dual, s) == has_common_neighbor


# -- invariants --------------------------------------------------------------------------


def test_invariants_of_paths():
    inv = invariants(P4)
    assert (inv.gamma, inv.i_dom, inv.alpha0, inv.beta1) == (2, 2, 2, 2)
    inv = invariants(P3)
    assert (inv.gamma, inv.i_dom, inv.alpha0, inv.beta1) == (1, 1, 1, 1)


def test_invariants_of_edgeless_graph():
    inv = invariants(graph("abcd", []))
    assert (inv.gamma, inv.i_dom, inv.alpha0, inv.beta1) == (4, 4, 0, 0)


def test_invariants_of_star():
    inv = invariants(star_graph(3))
    assert (inv.gamma, inv.i_dom, inv.alpha0, inv.beta1) == (1, 1, 1, 1)


def scan_invariants(g):
    """The invariants from the name-level predicates: the smallest
    dominating, independent dominating and covering vertex sets, and the
    largest set of pairwise disjoint edges."""
    subsets = list(all_subsets(g.vertices))
    dominating = [s for s in subsets if is_dominating(g, s)]
    return (
        min(map(len, dominating)),
        min(len(s) for s in dominating if is_independent(g, s)),
        min(len(s) for s in subsets if is_vertex_cover(g, s)),
        max(len(m) for m in all_subsets(g.edges) if len(frozenset().union(*m)) == 2 * len(m)),
    )


def test_invariants_match_the_name_level_scan():
    four = list(combinations("abcd", 2))
    graphs = [
        *all_trees(8),
        *(graph("abcd", [p for i, p in enumerate(four) if mask >> i & 1]) for mask in range(64)),
        *(complement(t) for t in all_trees(6)),
        graph("", []),
    ]
    for g in graphs:
        inv = invariants(g)
        assert (inv.gamma, inv.i_dom, inv.alpha0, inv.beta1) == scan_invariants(g), g


def test_forest_and_bipartite_predicates():
    assert is_forest(P4) and is_bipartite(P4)
    assert not is_forest(TRIANGLE) and not is_bipartite(TRIANGLE)
    assert not is_forest(C4) and is_bipartite(C4)


# -- path-free / path-missing ----------------------------------------------------------------


def test_single_arc_conventions():
    d = digraph("st", [("e", "s", "t")], "s", "t")
    assert pf_complex(d).is_irrelevant
    assert pm_complex(d).is_irrelevant


def test_parallel_arcs():
    d = digraph("st", [("e1", "s", "t"), ("e2", "s", "t")], "s", "t")
    assert pf_complex(d).is_irrelevant
    assert pm_complex(d).facets == {fs("e1"), fs("e2")}


def test_no_arc_conventions():
    st = digraph("st", [], "s", "t")
    assert pf_complex(st).is_irrelevant
    assert pm_complex(st).is_void
    ss = digraph("s", [], "s", "s")
    assert pf_complex(ss).is_void
    assert pm_complex(ss).is_irrelevant


def test_equal_endpoints_with_arcs():
    d = digraph("sv", [("e", "s", "v")], "s", "s")
    assert pf_complex(d).is_void
    assert equals(pm_complex(d), full_simplex(["e"]))


def test_cyclic_no_useless_path_free_facets():
    pf = pf_complex(cyclic_no_useless_digraph())
    assert pf.facets == {
        fs("A", "E", "C", "D"),
        fs("F", "B", "C", "D"),
        fs("A", "F", "D"),
        fs("B", "E", "C"),
    }


def test_pm_is_dual_of_pf():
    for d in (
        cyclic_no_useless_digraph(),
        digraph("st", [("e1", "s", "t"), ("e2", "t", "s")], "s", "t"),
        digraph("suv", [("a", "s", "u"), ("b", "u", "v"), ("c", "v", "u")], "s", "u"),
    ):
        assert equals(pm_complex(d), alexander_dual(pf_complex(d)))


# -- useless arcs, cycles, nonsinks --------------------------------------------------------------


def test_useless_arcs_examples():
    assert useless_arcs(cyclic_no_useless_digraph()) == frozenset()
    backwards = digraph("st", [("e", "t", "s")], "s", "t")
    assert useless_arcs(backwards) == {"e"}
    loop_plus = digraph("st", [("l", "s", "s"), ("e", "s", "t")], "s", "t")
    assert useless_arcs(loop_plus) == {"l"}


def test_all_arcs_useless_when_endpoints_coincide():
    d = digraph("sv", [("e", "s", "v"), ("f", "v", "s")], "s", "s")
    assert useless_arcs(d) == {"e", "f"}


def test_has_cycle_examples():
    assert has_cycle(cyclic_no_useless_digraph())
    assert not has_cycle(digraph("st", [("e", "s", "t")], "s", "t"))
    assert has_cycle(digraph("v", [("l", "v", "v")], "v", "v"))
    antiparallel = digraph("uv", [("e", "u", "v"), ("f", "v", "u")], "u", "v")
    assert has_cycle(antiparallel)
    parallel = digraph("uv", [("e", "u", "v"), ("f", "u", "v")], "u", "v")
    assert not has_cycle(parallel)


def test_nonsinks_examples():
    assert nonsinks(cyclic_no_useless_digraph()) == {"s", "u", "v"}
    assert nonsinks(digraph("st", [("e", "s", "t")], "s", "t")) == {"s"}
    assert nonsinks(digraph("v", [("l", "v", "v")], "v", "v")) == {"v"}


# -- deletion and contraction ---------------------------------------------------------------------


def test_delete_arc():
    d = digraph("st", [("e1", "s", "t"), ("e2", "s", "t")], "s", "t")
    left = delete_arc(d, "e1")
    assert left.arc_ids() == ("e2",)
    with pytest.raises(InputError):
        delete_arc(d, "nope")


def test_contract_arc_on_cyclic_digraph():
    d = contract_arc(cyclic_no_useless_digraph(), "A")
    assert d.vertices == ("s", "v", "t")
    by_id = {a.id: (a.src, a.tgt) for a in d.arcs}
    assert by_id == {
        "E": ("s", "v"),
        "C": ("s", "v"),
        "D": ("v", "s"),
        "B": ("s", "t"),
        "F": ("v", "t"),
    }


def test_contract_single_arc_merges_s_and_t():
    d = digraph("st", [("e", "s", "t")], "s", "t")
    merged = contract_arc(d, "e")
    assert merged.vertices == ("s",)
    assert merged.arcs == ()
    assert merged.s == merged.t == "s"


def test_contract_requires_source_s():
    d = digraph("suv", [("a", "s", "u"), ("b", "u", "v")], "s", "v")
    with pytest.raises(InputError):
        contract_arc(d, "b")


def test_contract_loop_at_s_is_deletion():
    d = digraph("st", [("l", "s", "s"), ("e", "s", "t")], "s", "t")
    out = contract_arc(d, "l")
    assert out.arc_ids() == ("e",)
    assert out.vertices == ("s", "t")


# -- JSON ---------------------------------------------------------------------------------------------


def test_graph_json_round_trip():
    data = graph_to_json(P3)
    assert data == {"vertices": ["v1", "v2", "v3"], "edges": [["v1", "v2"], ["v2", "v3"]]}
    again = graph_from_json(data)
    assert again.vertices == P3.vertices and again.edges == P3.edges


def test_digraph_json_round_trip():
    d = cyclic_no_useless_digraph()
    again = digraph_from_json(digraph_to_json(d))
    assert again == d


def test_json_validation_errors():
    with pytest.raises(InputError):
        graph_from_json({"vertices": ["a"], "edges": [["a"]]})
    with pytest.raises(InputError):
        digraph_from_json({"vertices": ["a"], "arcs": [{"id": "e"}], "s": "a", "t": "a"})
