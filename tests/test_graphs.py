"""Graph/digraph models, invariants, and the derived complexes."""

import json
import os
import random
import subprocess
import sys
import types
from itertools import combinations
from pathlib import Path
from typing import NamedTuple

import pytest

import grapes
import grapes.verify as verify

from grapes import (
    InputError,
    alexander_dual,
    contract_arc,
    delete_arc,
    digraph,
    dominance_complex,
    edge_cover_complex,
    edge_dominance_complex,
    graph,
    has_cycle,
    independence_complex,
    invariants,
    nonsinks,
    pf_complex,
    pm_complex,
    useless_arcs,
)
from grapes.complexes import avoiding, bit_table, join_mask, mask_of
from grapes.graphs import (
    FORBIDDEN_SETS,
    Graph,
    GraphInvariants,
    canonical_forest,
    digraph_from_json,
    digraph_to_json,
    graph_from_json,
    graph_to_json,
)
from grapes.generators import all_trees, cyclic_no_useless_digraph, gen_forest
from shapes import equals, fs, full_simplex
from test_complexes import has_face
from test_generators import centre_canonical


def path_graph(n):
    vertices = tuple(f"v{i}" for i in range(1, n + 1))
    return graph(vertices, zip(vertices, vertices[1:]))


def star_graph(leaves):
    center = "v1"
    vertices = (center,) + tuple(f"v{i}" for i in range(2, leaves + 2))
    return graph(vertices, [(center, v) for v in vertices[1:]])


def name_edges(g):
    """The edges as frozensets of vertex names, read from the graph's JSON."""
    return frozenset(frozenset(e) for e in graph_to_json(g)["edges"])


def edge_label(g, e):
    """An edge's name in the EC/ED ground: its ends in vertex order."""
    u, v = sorted(e, key=g.vertices.index)
    return f"{u}-{v}"


def is_dominating(g, chosen):
    """Every vertex is chosen or next to a chosen one."""
    chosen = set(chosen)
    return chosen.union(*(e for e in name_edges(g) if e & chosen)) == set(g.vertices)


def is_independent(g, chosen):
    chosen = set(chosen)
    return not any(e <= chosen for e in name_edges(g))


def is_vertex_cover(g, chosen):
    chosen = set(chosen)
    return all(e & chosen for e in name_edges(g))


def is_edge_cover(g, chosen):
    covered = set()
    for e in chosen:
        covered |= e
    return covered == set(g.vertices)


def test_path_and_star_fixtures():
    assert name_edges(path_graph(4)) == {fs("v1", "v2"), fs("v2", "v3"), fs("v3", "v4")}
    assert name_edges(star_graph(3)) == {fs("v1", "v2"), fs("v1", "v3"), fs("v1", "v4")}


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


def test_names_that_become_ground_elements_must_be_nonempty():
    # graph vertices are the ground elements of Ind and Dom (and name the
    # edges of EC and ED), arc ids those of PF and PM; a complex refuses an
    # empty ground element, so graph() and digraph() refuse one as it enters
    with pytest.raises(InputError, match="nonempty"):
        graph(("", "x"), [])
    with pytest.raises(InputError, match="nonempty"):
        graph_from_json({"vertices": ["x", ""], "edges": [["x", ""]]})
    with pytest.raises(InputError, match="nonempty"):
        digraph("st", [("", "s", "t"), ("x", "s", "t")], "s", "t")
    with pytest.raises(InputError, match="nonempty"):
        digraph_from_json({"vertices": ["s", "t"], "arcs": [{"id": "", "src": "s", "tgt": "t"}],
                           "s": "s", "t": "t"})
    # a digraph vertex names no ground element, so an empty one is allowed
    assert pf_complex(digraph(("", "t"), [("a", "", "t")], "", "t")).ground == ("a",)


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
        labels = {edge_label(g, e): e for e in name_edges(g)}
        for s in all_subsets(labels):
            chosen = [labels[x] for x in s]
            assert has_face(dual, s) == (not is_edge_cover(g, chosen))


def test_edge_dominance_dual_description():
    # a face of the dual: some edge is disjoint from every chosen edge
    for g in (P3, P4, C4, path_graph(6)):
        dual = alexander_dual(edge_dominance_complex(g))
        labels = {edge_label(g, e): e for e in name_edges(g)}
        for s in all_subsets(labels):
            chosen = [labels[x] for x in s]
            witness = any(
                all(not (e & f) for f in chosen) for e in labels.values()
            )
            assert has_face(dual, s) == witness


def line_dual(g):
    """Oracle: the graph on the edge labels, two labels adjacent when the edges meet."""
    ground = g.edge_labels
    by_label = {edge_label(g, e): e for e in name_edges(g)}
    edges = [
        (a, b)
        for i, a in enumerate(ground)
        for b in ground[i + 1 :]
        if by_label[a] & by_label[b]
    ]
    return graph(ground, edges)


def test_edge_dominance_matches_dominance_of_line_dual():
    for g in (P3, P4, star_graph(3), C4, path_graph(6)):
        direct = edge_dominance_complex(g)
        via_line_dual = dominance_complex(line_dual(g))
        assert equals(direct, via_line_dual)
        assert equals(alexander_dual(direct), alexander_dual(via_line_dual))


def test_dominance_dual_is_neighborhood_complex_of_complement():
    for g in (P3, P4, TRIANGLE, C4, star_graph(5)):
        dual = alexander_dual(dominance_complex(g))
        for s in all_subsets(g.vertices):
            # v is a common neighbour of s in the complement of g
            has_common_neighbor = any(
                all(frozenset((v, w)) not in name_edges(g) for w in s)
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
        max(len(m) for m in all_subsets(name_edges(g)) if len(frozenset().union(*m)) == 2 * len(m)),
    )


def test_invariants_match_the_name_level_scan():
    four = list(combinations("abcd", 2))
    graphs = [
        *all_trees(8),
        *(graph("abcd", [p for i, p in enumerate(four) if mask >> i & 1]) for mask in range(64)),
        *(graph(t.vertices, [p for p in combinations(t.vertices, 2) if frozenset(p) not in name_edges(t)])
          for t in all_trees(6)),
        graph("", []),
    ]
    for g in graphs:
        inv = invariants(g)
        assert (inv.gamma, inv.i_dom, inv.alpha0, inv.beta1) == scan_invariants(g), g


# -- the canonical form of forests -------------------------------------------------------


def forest_corpus():
    """Every forest of the full suite at seeds 1729 and 7, the 201 trees on
    at most ten vertices and the seeded forests on 1-16 vertices, each once."""
    full = verify.SIZES["full"]
    return list(dict.fromkeys([
        *(g for seed in (1729, 7) for g in verify.standard_forests(full.n_forests, full.max_tree, seed)),
        *all_trees(10),
        *(gen_forest(n, seed, drop) for n in range(1, 17) for seed in range(6) for drop in range(3)),
    ]))


def relabelled(g, rng):
    """g with its vertices in a random order, each name and edge following its vertex."""
    order = list(range(len(g.vertices)))
    rng.shuffle(order)  # order[i] is the old index of the new vertex i
    new = {old: i for i, old in enumerate(order)}
    edges = sorted(tuple(sorted((new[a], new[b]))) for a, b in g.edges)
    return Graph(tuple(g.vertices[v] for v in order), tuple(edges))


def canonical_key(g):
    h = canonical_forest(g)
    return len(h.vertices), h.edges


def oracle_class(g):
    """g's isomorphism class by the tree oracle: the sorted centre-rooted
    forms of its components."""
    edges = graph_to_json(g)["edges"]
    component = {v: {v} for v in g.vertices}
    for a, b in edges:
        merged = component[a] | component[b]
        for v in merged:
            component[v] = merged
    forms = []
    for vertices in {frozenset(c) for c in component.values()}:
        index = {v: i for i, v in enumerate(sorted(vertices))}
        forms.append(centre_canonical(len(index), [(index[a], index[b]) for a, b in edges if a in index]))
    return tuple(sorted(forms))


def test_the_canonical_form_is_an_isomorphism_that_no_relabelling_moves():
    rng = random.Random(1729)
    forests = forest_corpus()
    assert len(forests) == 622
    for g in forests:
        h = canonical_forest(g)
        # the names move with their vertices: the same named edges
        assert sorted(h.vertices) == sorted(g.vertices) and name_edges(h) == name_edges(g)
        assert list(h.edges) == sorted(set(h.edges)) and all(a < b for a, b in h.edges)
        for _ in range(3):
            assert canonical_key(relabelled(g, rng)) == canonical_key(g), g


def test_forests_share_a_canonical_form_exactly_when_the_oracle_says_isomorphic():
    pairs = {(canonical_key(g), oracle_class(g)) for g in forest_corpus()}
    assert len(pairs) == len({k for k, _ in pairs}) == len({o for _, o in pairs}) == 389


def test_the_trees_on_ten_vertices_have_distinct_canonical_forms():
    # OEIS A000055: 1, 1, 1, 2, 3, 6, 11, 23, 47 and 106 trees on 1..10 vertices
    trees = list(all_trees(10))
    assert len({canonical_key(t) for t in trees}) == len(trees) == 201


def test_the_canonical_form_refuses_a_cycle():
    # None is the one forest test: an even cycle, an odd one, and a cycle
    # with a tree hanging from it, whose leaves are peeled before it stops
    assert canonical_forest(C4) is None and canonical_forest(TRIANGLE) is None
    assert canonical_forest(graph("abcde", [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d"), ("d", "e")])) is None


PEEL_BOUND = 6  # canonical_forest's time over the calibration's, on one graph

TIMED_CANONICAL_FORMS = """
import json, resource, sys, time
from grapes.generators import gen_forest
from grapes.graphs import Graph, canonical_forest

bound = float(sys.argv[1])  # PEEL_BOUND

def calibration(g):
    # the peel's first pass alone, a few list updates per edge end in g's own
    # order, so that cache misses slow it as they slow the peel; 16 times,
    # about as long as the peel, so that load slows both alike
    n = len(g.vertices)
    for _ in range(16):
        left, link = [0] * n, [0] * n
        for a, b in g.edges:
            left[a] += 1
            left[b] += 1
            link[a] ^= b
            link[b] ^= a

def timed(f, g):
    # CPU time of this process alone: another process on the same cores
    # takes none of it, so load cannot slow one of the two timings only
    start = time.process_time()
    f(g)
    return time.process_time() - start

def ratio(g):
    # the least time of each over up to three interleaved tries
    peel = calib = float("inf")
    for _ in range(3):
        peel, calib = min(peel, timed(canonical_forest, g)), min(calib, timed(calibration, g))
        if peel < bound * calib:
            break
    return peel / calib

def path(n):
    return Graph(tuple(f"v{i}" for i in range(1, n + 1)), tuple((i, i + 1) for i in range(n - 1)))

sys.setrecursionlimit(50)
ratios = {}
for n in (1 << 14, 1 << 16):  # a quadratic peel stops at the smaller size
    ratios[f"path {n}"] = ratio(path(n))
    ratios[f"gen forest {n}"] = ratio(gen_forest(n, 1))
    if max(ratios.values()) >= bound:
        break
print(json.dumps({"ratios": ratios, "peak_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))
"""


def test_the_canonical_form_keeps_pace_with_a_linear_pass_on_65536_vertices_without_recursion():
    # a child process, so that its peak resident set is its own; no
    # recursion, under a recursion limit of 50, on paths of depth 8,192 and
    # 32,768 from their centres, and on gen forest --n 16384 and 65536 with
    # --seed 1.  The peel takes under PEEL_BOUND times as long as 16 passes
    # that only count each vertex's neighbours, timed on the same graph in
    # the same process's CPU time: about 0.5 to 1.6 times on CPython 3.11,
    # and a peel that rescans every vertex per layer takes over 100 on the
    # path.  The child's peak resident set (ru_maxrss, in kilobytes on
    # Linux) stays under 200 MB, as edges held as index pairs take O(n)
    # memory
    env = {**os.environ, "PYTHONPATH": str(Path(grapes.__file__).parent.parent)}
    result = subprocess.run([sys.executable, "-c", TIMED_CANONICAL_FORMS, str(PEEL_BOUND)], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    measured = json.loads(result.stdout)
    assert all(r < PEEL_BOUND for r in measured["ratios"].values()), measured
    assert len(measured["ratios"]) == 4, measured
    assert measured["peak_kb"] < 200 * 1024, measured
    nested = [c for c in canonical_forest.__code__.co_consts if isinstance(c, types.CodeType)]
    assert all("canonical_forest" not in c.co_names for c in (canonical_forest.__code__, *nested))


# -- the name-level oracle ---------------------------------------------------------------
#
# The graph code on names, kept as the reference for the index code: the edge
# order by vertex index, the masks built from the names and the union-find
# forest test.  Each reads the graph's names from its JSON.


def oracle_names(g):
    data = graph_to_json(g)
    return tuple(data["vertices"]), frozenset(frozenset(e) for e in data["edges"])


def oracle_sorted_edges(vertices, edges):
    return sorted(
        (tuple(sorted(e, key=vertices.index)) for e in edges),
        key=lambda pair: (vertices.index(pair[0]), vertices.index(pair[1])),
    )


def oracle_masks(vertices, edges):
    """The edges, in the order of Graph.edge_labels, and the closed neighbourhoods, as vertex masks."""
    bit = bit_table(vertices)
    masks = sorted((mask_of(e, bit) for e in edges), key=lambda e: (e & -e, e))
    return masks, [b | join_mask(e for e in masks if e & b) for b in bit.values()]


def oracle_forbidden_sets(vertices, edges):
    masks, closed = oracle_masks(vertices, edges)
    labels = tuple(f"{u}-{v}" for u, v in oracle_sorted_edges(vertices, edges))

    def meeting(m):
        return sum(1 << i for i, e in enumerate(masks) if e & m)

    return {
        "ind": (vertices, masks),
        "dom": (vertices, closed),
        "ec": (labels, [meeting(1 << i) for i in range(len(vertices))]),
        "ed": (labels, [meeting(e) for e in masks]),
    }


def oracle_is_forest(vertices, edges):
    parent = {v: v for v in vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for e in edges:
        u, v = tuple(e)
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def oracle_invariants(n, edges, closed):
    """The smallest dominating, independent dominating and covering vertex
    masks, and the most pairwise disjoint edges."""
    dominating = [s for s in range(1 << n) if all(c & s for c in closed)]
    return GraphInvariants(
        min(s.bit_count() for s in dominating),
        min(s.bit_count() for s in dominating if not any(e & s == e for e in edges)),
        min(s.bit_count() for s in range(1 << n) if all(e & s for e in edges)),
        max(k for k in range(n // 2 + 1)
            if any(join_mask(m).bit_count() == 2 * k for m in combinations(edges, k))),
    )


def check_against_the_oracle(vertices, pairs):
    """graph() on names against the oracle; pairs may repeat an edge or give
    its upper end first."""
    g = graph(vertices, pairs)
    assert oracle_names(g) == (vertices, frozenset(frozenset(p) for p in pairs))
    vertices, edges = oracle_names(g)
    forbidden_sets = oracle_forbidden_sets(vertices, edges)
    assert graph_to_json(g) == {"vertices": list(vertices),
                                "edges": [list(p) for p in oracle_sorted_edges(vertices, edges)]}
    assert g.edge_labels == forbidden_sets["ec"][0]
    for kind, (ground, forbidden) in forbidden_sets.items():
        got_ground, got_forbidden = FORBIDDEN_SETS[kind](g)
        assert (tuple(got_ground), list(got_forbidden)) == (ground, forbidden), kind
    assert (canonical_forest(g) is None) == (not oracle_is_forest(vertices, edges))
    assert invariants(g) == oracle_invariants(len(vertices), *oracle_masks(vertices, edges))


NAME_POOL = ("a", "b", "v10", "v2", "x-y", "z")  # "x-y" reads as an edge label's hyphen


def shuffled_labelled_graph(n, chosen, rng):
    """The graph on n of the pool's names, in a shuffled order, whose edges
    are the pairs of positions chosen picks; each pair in a random
    orientation and the list shuffled, some pairs twice."""
    vertices = tuple(rng.sample(NAME_POOL, n))
    pairs = [p if rng.random() < 0.5 else p[::-1]
             for i, p in enumerate(combinations(vertices, 2)) if chosen >> i & 1]
    pairs += rng.sample(pairs, min(len(pairs), rng.randint(0, 2)))
    rng.shuffle(pairs)
    return vertices, pairs


def test_graph_code_matches_the_name_level_oracle_on_every_small_graph():
    rng = random.Random(5)
    count = 0
    for n in range(6):
        for chosen in range(1 << n * (n - 1) // 2):
            vertices, pairs = shuffled_labelled_graph(n, chosen, rng)
            check_against_the_oracle(vertices, pairs)
            count += 1
    assert count == 1100  # every labelled graph on at most 5 vertices


def test_graph_code_matches_the_name_level_oracle_on_seeded_graphs():
    rng = random.Random(6)
    for n in range(6, 10):
        vertices = tuple(f"v{i}" for i in range(1, n + 1))
        for _ in range(40):
            order, density = rng.sample(vertices, n), rng.choice((0.15, 0.3, 0.6))
            pairs = [p for p in combinations(order, 2) if rng.random() < density]
            check_against_the_oracle(tuple(order), pairs)


def seeded_named_graphs(rng):
    """graph() on 1-12 shuffled names: a random tree, the same less some
    edges, and a random graph, each pair in a random orientation."""
    for n in range(1, 13):
        for _ in range(8):
            vertices = tuple(rng.sample([f"v{i}" for i in range(1, n + 1)], n))
            tree = [(vertices[rng.randrange(i)], vertices[i]) for i in range(1, n)]
            dense = [p for p in combinations(vertices, 2) if rng.random() < 0.4]
            for pairs in (tree, rng.sample(tree, len(tree) // 2), dense):
                yield graph(vertices, [p if rng.random() < 0.5 else p[::-1] for p in pairs])


def test_edges_and_forbidden_sets_match_the_name_level_oracle_on_forests_and_their_forms():
    # the index pairs and the forbidden masks built from them, on every
    # forest of the corpus, on seeded graph() inputs and on each forest's
    # canonical form, whose edges canonical_forest writes itself
    graphs = [*forest_corpus(), *seeded_named_graphs(random.Random(53))]
    graphs += [h for h in map(canonical_forest, graphs) if h is not None]
    assert len(graphs) == 1757
    for g in graphs:
        vertices, edges = oracle_names(g)
        assert list(g.edges) == [tuple(map(vertices.index, p)) for p in oracle_sorted_edges(vertices, edges)]
        for kind, (ground, forbidden) in oracle_forbidden_sets(vertices, edges).items():
            got_ground, got_forbidden = FORBIDDEN_SETS[kind](g)
            assert (tuple(got_ground), list(got_forbidden)) == (ground, forbidden), (kind, g)


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


# -- the name-level digraph oracle ---------------------------------------------------------
#
# The digraph code on names, kept as the reference for the index code: arcs
# as (id, src, tgt) triples, the s-t paths and Kahn's peeling on dicts keyed
# by vertex name, and deletion and contraction by arc id.  Each reads the
# digraph's names from its JSON.


class Arc(NamedTuple):
    id: str
    src: str
    tgt: str


class Named(NamedTuple):
    vertices: tuple
    arcs: tuple
    s: str
    t: str


def oracle_digraph(d):
    data = digraph_to_json(d)
    arcs = tuple(Arc(a["id"], a["src"], a["tgt"]) for a in data["arcs"])
    return Named(tuple(data["vertices"]), arcs, data["s"], data["t"])


def oracle_paths(d):
    """The s-t paths, as masks over the arcs, by a depth-first search that
    keeps the visited vertices as a frozenset of names per step:
    Digraph.paths must list the same paths in the same order."""
    out_arcs = {v: [] for v in d.vertices}
    for i, a in enumerate(d.arcs):
        out_arcs[a.src].append((a.tgt, 1 << i))
    paths = []
    stack = [(d.s, frozenset({d.s}), 0)]
    while stack:
        v, visited, trail = stack.pop()
        if v == d.t:
            paths.append(trail)
            continue
        for tgt, a in out_arcs[v]:
            if tgt not in visited:
                stack.append((tgt, visited | {tgt}, trail | a))
    return tuple(paths)


def oracle_pf(d):
    return avoiding(tuple(a.id for a in d.arcs), oracle_paths(d))


def oracle_has_cycle(d):
    arcs_in = dict.fromkeys(d.vertices, 0)
    out_arcs = {v: [] for v in d.vertices}
    for a in d.arcs:
        arcs_in[a.tgt] += 1
        out_arcs[a.src].append(a.tgt)
    peeled = [v for v, k in arcs_in.items() if not k]
    for v in peeled:
        for w in out_arcs[v]:
            arcs_in[w] -= 1
            if not arcs_in[w]:
                peeled.append(w)
    return len(peeled) < len(d.vertices)


def oracle_nonsinks(d):
    return frozenset(a.src for a in d.arcs)


def oracle_delete_arc(d, arc_id):
    return d._replace(arcs=tuple(a for a in d.arcs if a.id != arc_id))


def oracle_contract_arc(d, arc_id):
    """Merge the target of the arc, which leaves s, into s."""
    (u,) = (a.tgt for a in d.arcs if a.id == arc_id)
    if u == d.s:
        return oracle_delete_arc(d, arc_id)

    def repoint(v):
        return d.s if v == u else v

    arcs = tuple(Arc(a.id, repoint(a.src), repoint(a.tgt)) for a in d.arcs if a.id != arc_id)
    return Named(tuple(v for v in d.vertices if v != u), arcs, d.s, repoint(d.t))


def check_digraph_against_the_oracle(d):
    """The index code on d against the oracle on d's names: the digraph reads
    back from its JSON, the paths match in order, so do the cycle test and
    the nonsinks, and every deletion and contraction is the oracle's, PF
    included."""
    named = oracle_digraph(d)
    assert digraph_from_json(digraph_to_json(d)) == d
    assert d.paths == oracle_paths(named), named
    assert has_cycle(d) == oracle_has_cycle(named)
    assert frozenset(d.vertices[v] for v in nonsinks(d)) == oracle_nonsinks(named)
    for i, arc in enumerate(named.arcs):
        changed = [(delete_arc(d, i), oracle_delete_arc(named, arc.id))]
        if arc.src == named.s:
            changed.append((contract_arc(d, i), oracle_contract_arc(named, arc.id)))
        for got, want in changed:
            assert oracle_digraph(got) == want, (named, arc)
            assert pf_complex(got) == oracle_pf(want)


def random_dag(seed):
    """A seeded DAG on 2-8 vertices with 0-16 forward arcs, parallels allowed,
    from its first vertex to its last in topological order; every fourth
    has s and t drawn at random (s may come after t, or equal it)."""
    rng = random.Random(seed)
    n = rng.randint(2, 8)
    order = [f"v{i}" for i in range(n)]
    rng.shuffle(order)
    arcs = []
    for i in range(rng.randint(0, 16)):
        a, b = sorted(rng.sample(range(n), 2))
        arcs.append((f"e{i}", order[a], order[b]))
    s, t = (rng.choice(order), rng.choice(order)) if seed % 4 == 0 else (order[0], order[-1])
    return digraph(order, arcs, s, t)


def test_digraph_code_matches_the_name_level_oracle():
    suite = [verify.standard_digraphs(sizes.n_random_digraphs, *sizes.exhaustive_digraph,
                                      verify.DEFAULT_SEED)
             for sizes in verify.SIZES.values()]
    identity = [verify.standard_digraphs(sizes.n_identity_digraphs, 0, 0, seed=verify.DEFAULT_SEED + 7000)
                for sizes in verify.SIZES.values()]
    dags = [random_dag(seed) for seed in range(400)]
    assert sum(len(d.paths) > 1 for d in dags) > 100  # many DAGs branch
    assert verify.SIZES["full"].exhaustive_digraph == (3, 4)  # every all_digraphs(3, 4) shape
    for family in suite + identity + [dags, [cyclic_no_useless_digraph()]]:
        for d in family:
            check_digraph_against_the_oracle(d)


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
    def names(d):
        return {d.vertices[v] for v in nonsinks(d)}

    assert names(cyclic_no_useless_digraph()) == {"s", "u", "v"}
    assert names(digraph("st", [("e", "s", "t")], "s", "t")) == {"s"}
    assert names(digraph("v", [("l", "v", "v")], "v", "v")) == {"v"}


# -- deletion and contraction ---------------------------------------------------------------------


def test_delete_arc():
    d = digraph("st", [("e1", "s", "t"), ("e2", "s", "t")], "s", "t")
    left = delete_arc(d, 0)
    assert (left.ids, left.arcs) == (("e2",), ((0, 1),))


def test_contract_arc_on_cyclic_digraph():
    d = contract_arc(cyclic_no_useless_digraph(), 0)  # A, from s to u
    assert d.vertices == ("s", "v", "t")
    by_id = {a["id"]: (a["src"], a["tgt"]) for a in digraph_to_json(d)["arcs"]}
    assert by_id == {
        "E": ("s", "v"),
        "C": ("s", "v"),
        "D": ("v", "s"),
        "B": ("s", "t"),
        "F": ("v", "t"),
    }


def test_contract_single_arc_merges_s_and_t():
    d = digraph("st", [("e", "s", "t")], "s", "t")
    merged = contract_arc(d, 0)
    assert merged.vertices == ("s",)
    assert merged.arcs == ()
    assert merged.s == merged.t == 0


def test_contract_loop_at_s_is_deletion():
    d = digraph("st", [("l", "s", "s"), ("e", "s", "t")], "s", "t")
    out = contract_arc(d, 0)
    assert out.ids == ("e",)
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
