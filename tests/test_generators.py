"""Seeded generators: determinism and shape; exhaustive enumerations: counts."""

import pytest

from grapes import is_forest
from grapes.complexes import InputError, complex_to_json
from grapes.generators import (
    MAX_GENERATORS,
    all_digraphs,
    all_trees,
    cycle_complex,
    cyclic_no_useless_digraph,
    gen_complex,
    gen_digraph,
    gen_forest,
)
from grapes.graphs import Graph, digraph_to_json, graph_to_json


def test_gen_complex_is_deterministic():
    for seed in (0, 7, 123):
        a = gen_complex(5, 0.3, seed)
        b = gen_complex(5, 0.3, seed)
        assert complex_to_json(a) == complex_to_json(b)
    assert complex_to_json(gen_complex(5, 0.3, 1)) != complex_to_json(
        gen_complex(5, 0.3, 2)
    )


def test_gen_complex_empty_ground():
    for seed in range(10):
        c = gen_complex(0, 0.5, seed)
        assert c.is_void or c.is_irrelevant


def test_gen_complex_respects_ground_size():
    for seed in range(20):
        c = gen_complex(4, 0.4, seed)
        assert len(c.ground) == 4


def test_gen_forest_is_deterministic_and_a_forest():
    for seed in range(30):
        g = gen_forest(1 + seed % 8, seed)
        assert is_forest(g)
        assert graph_to_json(g) == graph_to_json(gen_forest(1 + seed % 8, seed))


def test_gen_forest_single_vertex():
    g = gen_forest(1, 42)
    assert g.vertices == ("v1",) and not g.edges


def test_gen_forest_drop_removes_edges():
    tree = gen_forest(6, 5)
    forest = gen_forest(6, 5, drop=1)
    assert len(forest.edges) == len(tree.edges) - 1
    assert is_forest(forest)


def test_gen_digraph_deterministic_and_sized():
    for seed in range(20):
        d = gen_digraph(2, 1, seed)
        assert len(d.arcs) == 1
        assert len(d.vertices) == 2
        assert digraph_to_json(d) == digraph_to_json(gen_digraph(2, 1, seed))


def test_generator_input_validation():
    with pytest.raises(ValueError):
        gen_complex(-1, 0.3, 0)
    with pytest.raises(ValueError):
        gen_forest(0, 0)
    with pytest.raises(ValueError):
        gen_digraph(0, 0, 0)
    # sizes are bounded by MAX_GENERATORS, which is itself accepted
    assert len(gen_forest(MAX_GENERATORS, 1).vertices) == MAX_GENERATORS
    assert len(gen_digraph(1, MAX_GENERATORS, 1).arcs) == MAX_GENERATORS
    for build in (lambda: gen_forest(MAX_GENERATORS + 1, 1),
                  lambda: gen_digraph(MAX_GENERATORS + 1, 0, 1),
                  lambda: gen_digraph(1, MAX_GENERATORS + 1, 1)):
        with pytest.raises(InputError):
            build()


def test_all_trees_census():
    counts = {}
    for g in all_trees(8):
        counts[len(g.vertices)] = counts.get(len(g.vertices), 0) + 1
        assert is_forest(g)
        assert len(g.edges) == len(g.vertices) - 1
    assert counts == {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23}
    assert list(all_trees(0)) == []


def centre_canonical(n, edges):
    """The former tree canonical form: strip leaves down to the one or two
    centres, and take the least sorted-children form rooted at a centre."""
    if n == 1:
        return ()
    adjacency = {v: set() for v in range(n)}
    for a, b in edges:
        adjacency[a].add(b)
        adjacency[b].add(a)
    degree = {v: len(adjacency[v]) for v in range(n)}
    layer = [v for v in range(n) if degree[v] <= 1]
    remaining = n
    alive = {v: True for v in range(n)}
    while remaining > 2:
        nxt = []
        for v in layer:
            alive[v] = False
            remaining -= 1
            for w in adjacency[v]:
                if alive[w]:
                    degree[w] -= 1
                    if degree[w] == 1:
                        nxt.append(w)
        layer = nxt

    def form(v, parent):
        return tuple(sorted(form(w, v) for w in adjacency[v] if w != parent))

    return min(form(c, -1) for c in range(n) if alive[c])


def test_all_trees_matches_the_centre_rooted_canonical_form():
    # the same growth, each level deduplicated by the oracle form: the same
    # trees, in the same order
    expected, level = [Graph(("v1",), ())], [[]]
    for n in range(2, 11):
        seen, nxt = set(), []
        for edges in level:
            for attach in range(n - 1):
                candidate = edges + [(attach, n - 1)]
                key = centre_canonical(n, candidate)
                if key not in seen:
                    seen.add(key)
                    nxt.append(candidate)
        vertices = tuple(f"v{i}" for i in range(1, n + 1))
        expected.extend(Graph(vertices, tuple(sorted(edges))) for edges in nxt)
        level = nxt
    assert list(all_trees(10)) == expected
    assert len(expected) == 1 + 1 + 1 + 2 + 3 + 6 + 11 + 23 + 47 + 106


def test_all_digraphs_count():
    # |V|=1: 3 arc multisets; |V|=2: 15 multisets x 4 (s,t) choices
    assert sum(1 for _ in all_digraphs(2, 2)) == 3 + 60


def test_all_digraphs_cover_loops_and_parallels():
    shapes = list(all_digraphs(2, 2))
    assert any(len(d.arcs) == 2 and d.arcs[0][0] == d.arcs[0][1] for d in shapes)
    assert any(
        len(d.arcs) == 2 and d.arcs[0] == d.arcs[1] and d.arcs[0][0] != d.arcs[0][1]
        for d in shapes
    )


def test_fixture_graphs():
    assert len(cycle_complex(6).facets) == 6
    with pytest.raises(InputError, match="^cycle needs at least three vertices$"):
        cycle_complex(2)
    d = cyclic_no_useless_digraph()
    assert d.vertices[d.s] == "s" and d.vertices[d.t] == "t" and len(d.arcs) == 6
