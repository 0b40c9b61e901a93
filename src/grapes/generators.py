"""Deterministic instance generators and small exhaustive enumerations.

Random generators take an integer seed and produce the same instance for the
same seed, so verification runs are reproducible.  Exhaustive enumerators
cover all complexes on a tiny ground set, all unlabeled trees up to a size,
and all labeled digraph shapes up to given vertex/arc counts.
"""

from __future__ import annotations

import random
import string
from itertools import combinations_with_replacement
from typing import Iterator

from .complexes import Complex, InputError, irrelevant_complex, new_complex, void_complex
from .graphs import Digraph, Graph, edge_order

MAX_GENERATORS = 2**16  # cap on gen_complex's generator faces and gen's vertex and arc counts


def gen_complex(ground_size: int, density: float, seed: int) -> Complex:
    """Seeded random complex: sample generator faces at the given density."""
    if ground_size < 0 or ground_size > 26:
        raise InputError("ground size must be between 0 and 26")
    if not 0 <= density * 2**ground_size <= MAX_GENERATORS:
        raise InputError(f"density * 2**ground must be in [0, {MAX_GENERATORS}]")
    rng = random.Random(seed)
    ground = tuple(string.ascii_lowercase[:ground_size])
    if ground_size == 0:
        return void_complex(()) if rng.random() < 0.5 else irrelevant_complex(())
    m = rng.randint(0, max(1, round(density * 2**ground_size)))
    gens = []
    for _ in range(m):
        k = rng.randint(0, ground_size)
        gens.append(frozenset(rng.sample(ground, k)))
    return new_complex(ground, gens)


def gen_forest(n: int, seed: int, drop: int = 0) -> Graph:
    """Seeded random tree by random attachment, minus ``drop`` random edges."""
    if not 1 <= n <= MAX_GENERATORS or drop < 0:
        raise InputError(f"forest needs 1 to {MAX_GENERATORS} vertices and a nonnegative drop")
    rng = random.Random(seed)
    vertices = tuple(f"v{i}" for i in range(1, n + 1))
    edges = [1 << rng.randrange(i) | 1 << i for i in range(1, n)]
    for _ in range(min(drop, len(edges))):
        edges.pop(rng.randrange(len(edges)))
    return Graph(vertices, tuple(sorted(edges, key=edge_order)))


def gen_digraph(n_vertices: int, n_arcs: int, seed: int) -> Digraph:
    """Seeded random multigraph with uniform arcs and distinguished s, t."""
    if not (1 <= n_vertices <= MAX_GENERATORS and 0 <= n_arcs <= MAX_GENERATORS):
        raise InputError(f"digraph needs 1 to {MAX_GENERATORS} vertices and at most as many arcs")
    rng = random.Random(seed)
    vertices = tuple(f"v{i}" for i in range(1, n_vertices + 1))
    ids = tuple(f"e{i}" for i in range(1, n_arcs + 1))
    index = range(n_vertices)
    arcs = tuple((rng.choice(index), rng.choice(index)) for _ in ids)
    return Digraph(vertices, ids, arcs, rng.choice(index), rng.choice(index))


def cycle_complex(n: int) -> Complex:
    """The n-cycle as a one-dimensional complex (edge facets)."""
    if n < 3:
        raise InputError("cycle needs at least three vertices")
    names = [string.ascii_lowercase[i] for i in range(n)]
    facets = [
        frozenset((names[i], names[(i + 1) % n])) for i in range(n)
    ]
    return new_complex(names, facets)


def cyclic_no_useless_digraph() -> Digraph:
    """Six-arc digraph with two s-t routes and a two-cycle in the middle.

    Every arc lies on a simple s-t path, yet the two middle arcs form a
    cycle; the path-free complex is collapsible but not a cone.
    """
    s, u, v, t = range(4)
    return Digraph(("s", "u", "v", "t"), ("A", "E", "C", "D", "B", "F"),
                   ((s, u), (s, v), (u, v), (v, u), (u, t), (v, t)), s, t)


# -- exhaustive enumerations ---------------------------------------------------


def _tree_canonical(n: int, edges: list) -> object:
    """Isomorphism-invariant form of a tree on vertices 0..n-1.

    The least, over all roots, of the recursive sorted-children form: that
    form is a complete invariant of rooted trees, so its least value over
    the roots is one of unrooted trees.
    """
    adjacency = [[] for _ in range(n)]
    for a, b in edges:
        adjacency[a].append(b)
        adjacency[b].append(a)

    def form(v: int, parent: int) -> tuple:
        return tuple(sorted(form(w, v) for w in adjacency[v] if w != parent))

    return min(form(root, -1) for root in range(n))


def all_trees(max_n: int) -> Iterator[Graph]:
    """One representative per isomorphism class of trees on 1..max_n vertices.

    Grows level by level: every tree on n vertices arises by attaching a new
    leaf to some tree on n - 1 vertices; duplicates are filtered by the
    canonical form.
    """
    if max_n < 1:
        return
    level: list = [[]]
    yield Graph(("v1",), ())
    for n in range(2, max_n + 1):
        seen = set()
        nxt = []
        for edges in level:
            for attach in range(n - 1):
                candidate = edges + [(attach, n - 1)]
                key = _tree_canonical(n, candidate)
                if key not in seen:
                    seen.add(key)
                    nxt.append(candidate)
        vertices = tuple(f"v{i}" for i in range(1, n + 1))
        for edges in nxt:
            yield Graph(vertices, tuple(sorted((1 << a | 1 << b for a, b in edges), key=edge_order)))
        level = nxt


def all_digraphs(max_vertices: int, max_arcs: int) -> Iterator[Digraph]:
    """Every digraph shape: arc multisets over V x V, as vertex-index pairs,
    with all (s, t) choices.  A digraph with k arcs has the arc ids
    "e1".."ek", in one tuple shared by the digraphs of its size."""
    for nv in range(1, max_vertices + 1):
        vertices = tuple(f"v{i}" for i in range(1, nv + 1))
        pairs = [(a, b) for a in range(nv) for b in range(nv)]
        for k in range(max_arcs + 1):
            ids = tuple(f"e{i}" for i in range(1, k + 1))
            for arcs in combinations_with_replacement(pairs, k):
                for s in range(nv):
                    for t in range(nv):
                        yield Digraph(vertices, ids, arcs, s, t)
