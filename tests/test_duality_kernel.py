"""Minimal non-faces as minimal transversals, graph complexes as duals.

The code these replaced is kept here as oracles: the kernel's own earlier
loop, whose returned list the kernel must reproduce element for element,
Berge's algorithm on frozensets of names, the scan of the ground set for minimal non-faces, the
predicate scan over every vertex, edge or arc subset for the six graph
complexes, the recursive path search for useless arcs, the search from
each arc's target for cycles, and Berge's algorithm followed by the dual
for the duals of the graph complexes.
"""

import json
import random
import string
import time
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

import grapes.complexes as complexes
from grapes import (
    InputError,
    alexander_dual,
    complex_from_json,
    digraph,
    dominance_complex,
    edge_cover_complex,
    edge_dominance_complex,
    enumerate_complexes,
    graph,
    has_cycle,
    independence_complex,
    minimal_nonfaces,
    new_complex,
    pf_complex,
    pm_complex,
    useless_arcs,
)
from grapes.complexes import MAX_FACES, avoiding, avoiding_dual
from grapes.generators import all_digraphs, all_trees
from grapes.graphs import FORBIDDEN_SETS
from shapes import cross_polytope, full_simplex, simplex_boundary
from test_cli import run_module
from test_complexes import has_face
from test_graphs import edge_label, is_dominating, is_edge_cover, is_independent, name_edges, path_graph


def frozenset_minimal_nonfaces(c):
    """Berge's algorithm on frozensets of names, largest facet first: sets
    meeting the next complement stay, each one missing it grows by one of
    its elements, and a grown set containing a kept one is dropped."""
    full = frozenset(c.ground)
    found = {frozenset()}
    for facet in sorted(c.facets, key=len, reverse=True):
        rest = full - facet
        kept = {t for t in found if t & rest}
        grown = {t | {x} for t in found - kept for x in rest}
        found = kept | {u for u in grown if not any(k <= u for k in kept)}
    return frozenset(found)


def frozenset_alexander_dual(c):
    full = frozenset(c.ground)
    return new_complex(c.ground, (full - m for m in frozenset_minimal_nonfaces(c)))


def scan_minimal_nonfaces(c):
    """Subsets by size, skipping supersets of non-faces already found."""
    found = []
    for k in range(len(c.ground) + 1):
        for combo in combinations(c.ground, k):
            s = frozenset(combo)
            if not any(m <= s for m in found) and not has_face(c, s):
                found.append(s)
    return frozenset(found)


def scan_complex(ground, is_face):
    """The complex of every ground subset that passes the face predicate."""
    return new_complex(
        ground,
        [
            frozenset(combo)
            for k in range(len(ground) + 1)
            for combo in combinations(ground, k)
            if is_face(frozenset(combo))
        ],
    )


def scan_independence(g):
    return scan_complex(tuple(g.vertices), lambda f: is_independent(g, f))


def scan_dominance(g):
    vset = set(g.vertices)
    return scan_complex(tuple(g.vertices), lambda f: is_dominating(g, vset - f))


def scan_edge_cover(g):
    ground = g.edge_labels
    by_label = {edge_label(g, e): e for e in name_edges(g)}
    return scan_complex(
        ground,
        lambda f: is_edge_cover(g, [by_label[x] for x in ground if x not in f]),
    )


def scan_edge_dominance(g):
    ground = g.edge_labels
    by_label = {edge_label(g, e): e for e in name_edges(g)}

    def is_face(f):
        remaining = [by_label[x] for x in ground if x not in f]
        return all(any(e & r for r in remaining) for e in by_label.values())

    return scan_complex(ground, is_face)


def _reaches(d, allowed, start, goal):
    """Is vertex goal reachable from vertex start using only arcs with ids in allowed?"""
    if start == goal:
        return True
    seen = {start}
    queue = [start]
    while queue:
        v = queue.pop()
        for arc, (src, tgt) in zip(d.ids, d.arcs):
            if arc in allowed and src == v and tgt not in seen:
                if tgt == goal:
                    return True
                seen.add(tgt)
                queue.append(tgt)
    return False


def reaching_has_cycle(d):
    """Some arc whose source is reachable from its target."""
    everything = frozenset(d.ids)
    return any(_reaches(d, everything, tgt, src) for src, tgt in d.arcs)


def recursive_useless_arcs(d):
    used = set()
    if d.s != d.t:
        adjacency = [[] for _ in d.vertices]
        for arc, (src, tgt) in zip(d.ids, d.arcs):
            adjacency[src].append((arc, tgt))

        def dfs(v, visited, trail):
            if v == d.t:
                used.update(trail)
                return
            for arc, tgt in adjacency[v]:
                if tgt not in visited:
                    dfs(tgt, visited | {tgt}, trail + (arc,))

        dfs(d.s, frozenset({d.s}), ())
    return frozenset(d.ids) - used


# -- the transversal kernel ------------------------------------------------------


def generator_transversals(edges, overflow):
    """The kernel before its inner loops were flattened, verbatim: each grown
    set is tested by ``any()`` over a generator."""
    found = [0]
    for e in sorted(set(edges), key=lambda m: (m.bit_count(), m)):
        missed = [t for t in found if not t & e]
        if not missed:
            continue
        found = [t for t in found if t & e]
        filed: dict = {}
        for k in found:
            hit = k & e
            if not hit & (hit - 1):
                filed.setdefault(hit, []).append(k ^ hit)
        bits = [1 << i for i in range(e.bit_length()) if e >> i & 1]
        for t in missed:
            for x in bits:
                if not any(k & t == k for k in filed.get(x, ())):
                    found.append(t | x)
            if len(found) > MAX_FACES:
                raise InputError(overflow.format(MAX_FACES))
    return found


def kernel_outcome(kernel, edges):
    """The returned list, order included, or the overflow's text."""
    try:
        return kernel(list(edges), "more than {} sets")
    except InputError as error:
        return str(error)


def assert_kernel_matches_the_oracle(edges, max_faces=None):
    with pytest.MonkeyPatch.context() as patch:
        if max_faces is not None:
            patch.setattr(complexes, "MAX_FACES", max_faces)
            patch.setitem(globals(), "MAX_FACES", max_faces)
        got = kernel_outcome(complexes._transversals, edges)
        assert got == kernel_outcome(generator_transversals, edges)
    return got


@st.composite
def edge_families(draw):
    """Up to 16 edges on up to 10 bits, with duplicates, the empty edge and
    edges nested in one another mixed in."""
    n = draw(st.integers(min_value=0, max_value=10))
    edge = st.integers(min_value=0, max_value=(1 << n) - 1)
    edges = draw(st.lists(edge, max_size=16))
    extra = st.sampled_from(["duplicate", "empty", "meet", "join"])
    for kind in draw(st.lists(extra, max_size=4)):
        if kind == "empty":
            edges.append(0)
        elif edges:
            i, j = draw(st.integers(0, len(edges) - 1)), draw(st.integers(0, len(edges) - 1))
            edges.append({"duplicate": edges[i], "meet": edges[i] & edges[j],
                          "join": edges[i] | edges[j]}[kind])
    return edges


@settings(max_examples=400, deadline=None)
@given(edge_families())
@example([])
@example([0])
@example([0b1, 0b11, 0b111, 0b11, 0b110, 0])
def test_the_kernel_returns_the_oracles_list(edges):
    assert_kernel_matches_the_oracle(edges)
    assert_kernel_matches_the_oracle(edges, max_faces=8)


def facet_complements(c):
    full = (1 << len(c.ground)) - 1
    return [full ^ f for f in c.masks]


@pytest.mark.parametrize("n", range(1, 8))
def test_the_kernel_returns_the_oracles_list_on_cross_polytopes(n):
    # 2^n facet complements, and the dual's n facets, the pairs {p_i, q_i}
    assert len(assert_kernel_matches_the_oracle(facet_complements(cross_polytope(n)))) == n


@pytest.mark.parametrize("m", range(1, 9))
def test_the_kernel_returns_the_oracles_list_on_pairs(m):
    # m disjoint pairs, and the dual's 2^m facets
    pairs = facet_complements(complex_from_json(pairs_complex(m)))
    assert len(assert_kernel_matches_the_oracle(pairs)) == 2**m


def test_both_kernels_overflow_with_the_same_text():
    # the dual of four pairs has 16 facets; the dual of cross(5) has 5, but
    # Berge's intermediate families on its 32 complements reach 9 sets
    pairs = facet_complements(complex_from_json(pairs_complex(4)))
    assert assert_kernel_matches_the_oracle(pairs, max_faces=8) == "more than 8 sets"
    cross = facet_complements(cross_polytope(5))
    assert assert_kernel_matches_the_oracle(cross, max_faces=8) == "more than 8 sets"


# -- minimal non-faces -----------------------------------------------------------


def assert_berge_matches_the_oracles(c):
    found = minimal_nonfaces(c)
    assert found == frozenset_minimal_nonfaces(c) == scan_minimal_nonfaces(c)
    assert alexander_dual(c) == frozenset_alexander_dual(c)


def test_minimal_nonfaces_match_the_scan_on_all_small_complexes():
    for n in range(5):
        for c in enumerate_complexes(string.ascii_lowercase[:n]):
            assert_berge_matches_the_oracles(c)


@st.composite
def complexes_up_to_nine(draw):
    ground = string.ascii_lowercase[: draw(st.integers(min_value=0, max_value=9))]
    face = st.frozensets(st.sampled_from(ground)) if ground else st.just(frozenset())
    return new_complex(ground, draw(st.lists(face, max_size=12)))


@settings(max_examples=150, deadline=None)
@given(complexes_up_to_nine())
def test_minimal_nonfaces_match_the_scan(c):
    assert_berge_matches_the_oracles(c)


def pairs_complex(m):
    """2m elements and the m facets X - {a_i, b_i}: the dual has 2^m facets."""
    ground = [f"{s}{i}" for i in range(m) for s in "ab"]
    return {"ground": ground,
            "facets": [[x for x in ground if x[1:] != str(i)] for i in range(m)]}


def test_the_dual_is_bounded_by_max_faces(monkeypatch):
    monkeypatch.setattr(complexes, "MAX_FACES", 8)
    assert len(alexander_dual(complex_from_json(pairs_complex(3))).masks) == 8
    with pytest.raises(InputError, match="the dual's computation has an intermediate family of more than 8 sets"):
        alexander_dual(complex_from_json(pairs_complex(4)))
    with pytest.raises(InputError, match="the minimal non-faces' computation has an intermediate family of more than 8 sets"):
        minimal_nonfaces(complex_from_json(pairs_complex(4)))


def test_the_bound_names_an_intermediate_family(monkeypatch):
    # Berge's family on cross(8)'s 256 facet complements peaks at 15 sets,
    # though the dual has 8 facets: the refusal names the family, not the dual
    cross8 = cross_polytope(8)
    assert len(alexander_dual(cross8).masks) == 8
    monkeypatch.setattr(complexes, "MAX_FACES", 10)
    with pytest.raises(InputError) as refused:
        alexander_dual(cross8)
    assert str(refused.value) == (
        "the dual's computation has an intermediate family of more than 10 sets")


def test_sixteen_pairs_give_two_to_the_sixteen_dual_facets():
    dual = alexander_dual(complex_from_json(pairs_complex(16)))
    assert len(dual.masks) == 2**16
    assert all(m.bit_count() == 16 for m in dual.masks)


def test_twenty_five_pairs_exit_two_within_seconds(tmp_path):
    path = tmp_path / "pairs.json"
    path.write_text(json.dumps(pairs_complex(25)))
    started = time.perf_counter()
    result = run_module("dual", str(path))
    assert time.perf_counter() - started < 20
    assert result.returncode == 2
    assert result.stderr == f"input error: the dual's computation has an intermediate family of more than {2**20} sets\n"


def test_dual_of_a_large_simplex_boundary_is_irrelevant():
    names = [f"x{i}" for i in range(40)]
    dual = alexander_dual(simplex_boundary(names))
    assert dual.is_irrelevant
    assert dual.ground == tuple(names)


# -- graph complexes ---------------------------------------------------------------

BUILDERS = [
    (independence_complex, scan_independence),
    (dominance_complex, scan_dominance),
    (edge_cover_complex, scan_edge_cover),
    (edge_dominance_complex, scan_edge_dominance),
]


def labelled_graphs_on_four():
    pairs = list(combinations("abcd", 2))
    for mask in range(2 ** len(pairs)):
        yield graph("abcd", [p for i, p in enumerate(pairs) if mask >> i & 1])


def seeded_graphs(count=200, max_vertices=7, max_edges=9):
    for seed in range(count):
        rng = random.Random(seed)
        vertices = [f"v{i}" for i in range(1, rng.randint(1, max_vertices) + 1)]
        pairs = list(combinations(vertices, 2))
        yield graph(vertices, rng.sample(pairs, rng.randint(0, min(max_edges, len(pairs)))))


def test_graph_complexes_match_the_predicate_scan():
    graphs = [*all_trees(8), *labelled_graphs_on_four(), *seeded_graphs()]
    assert len(graphs) == 48 + 64 + 200
    for g in graphs:
        for build, scan in BUILDERS:
            assert build(g) == scan(g), (build.__name__, g)


def test_independence_complex_of_a_long_path():
    # facets of Ind(P_n): a(n) = a(n-2) + a(n-3), a(1..3) = 1, 2, 2
    counts = {1: 1, 2: 2, 3: 2}
    for n in range(4, 25):
        counts[n] = counts[n - 2] + counts[n - 3]
    for n in range(1, 11):
        c = independence_complex(path_graph(n))
        assert c == scan_independence(path_graph(n))
        assert len(c.facets) == counts[n]
    assert len(independence_complex(path_graph(24)).facets) == counts[24] == 816


# -- duals of avoiding complexes -----------------------------------------------------


def berge_then_dual(ground, forbidden):
    """Oracle: the avoiding complex by Berge's algorithm, then its dual."""
    return alexander_dual(avoiding(ground, forbidden))


def labelled_graphs(n):
    vertices = [f"v{i}" for i in range(1, n + 1)]
    pairs = list(combinations(vertices, 2))
    for mask in range(2 ** len(pairs)):
        yield graph(vertices, [p for i, p in enumerate(pairs) if mask >> i & 1])


def test_graph_duals_from_forbidden_sets_match_berge_then_dual():
    # every labelled graph on at most five vertices, isolated vertices and the
    # edgeless graphs included, and a seeded sample of those on six
    graphs = [g for n in range(6) for g in labelled_graphs(n)]
    six = list(labelled_graphs(6))
    graphs += random.Random(1729).sample(six, 400)
    assert len(graphs) == 1 + 1 + 2 + 8 + 64 + 1024 + 400
    for g in graphs:
        for kind, forbidden_sets in FORBIDDEN_SETS.items():
            ground, forbidden = forbidden_sets(g)
            assert avoiding_dual(ground, forbidden) == berge_then_dual(ground, forbidden), (kind, g)


def test_graph_duals_on_an_isolated_vertex_and_no_edges():
    # an isolated vertex makes EC void, so its dual is the full simplex
    isolated = graph("abc", [("a", "b")])
    assert avoiding_dual(*FORBIDDEN_SETS["ec"](isolated)) == full_simplex(["a-b"])
    # with no edges ED is irrelevant on an empty ground, so its dual is void
    dual = avoiding_dual(*FORBIDDEN_SETS["ed"](graph("ab", [])))
    assert dual.is_void and dual.ground == ()


@st.composite
def forbidden_families(draw):
    """A ground of up to 8 elements and forbidden masks over it, with the
    pairwise meets added, so some are nested and 0 often occurs."""
    n = draw(st.integers(min_value=0, max_value=8))
    masks = draw(st.lists(st.integers(min_value=0, max_value=(1 << n) - 1), max_size=10))
    return tuple(string.ascii_lowercase[:n]), masks + [f & g for f, g in zip(masks, masks[1:])]


@settings(max_examples=300, deadline=None)
@given(forbidden_families())
@example((("a", "b", "c"), [0]))
@example((("a", "b", "c"), [0b001, 0b011, 0b111, 0b110]))
@example(((), []))
def test_avoiding_dual_is_the_dual_of_avoiding(family):
    assert avoiding_dual(*family) == berge_then_dual(*family)


# -- digraph complexes -------------------------------------------------------------


def test_path_complexes_and_useless_arcs_match_their_definitions():
    for d in all_digraphs(3, 4):
        arcs = frozenset(d.ids)
        assert pf_complex(d) == scan_complex(
            d.ids, lambda f: not _reaches(d, f, d.s, d.t)
        )
        assert pm_complex(d) == scan_complex(
            d.ids, lambda f: _reaches(d, arcs - f, d.s, d.t)
        )
        assert useless_arcs(d) == recursive_useless_arcs(d)
        assert has_cycle(d) == reaching_has_cycle(d)


def complete_dag(n):
    """All arcs u_i -> u_j with i < j, plus a back arc t -> s and a loop, which
    lie on no simple s-t path."""
    names = [f"u{i}" for i in range(n)]
    arcs = [(a, b) for i, a in enumerate(names) for b in names[i + 1 :]]
    arcs += [(names[-1], names[0]), (names[1], names[1])]
    return digraph(names, [(f"a{i}", a, b) for i, (a, b) in enumerate(arcs)], names[0], names[-1])


def test_useless_arcs_stream_the_paths_of_a_complete_dag():
    import tracemalloc

    d = complete_dag(16)  # 2^14 simple s-t paths
    tracemalloc.start()
    try:
        useless = useless_arcs(d)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert useless == recursive_useless_arcs(d) == {"a120", "a121"}
