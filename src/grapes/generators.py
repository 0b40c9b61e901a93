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
from .graphs import Arc, Digraph, Graph, graph

MAX_GENERATORS = 2**16  # cap on the generator faces gen_complex draws


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
    if n < 1 or drop < 0:
        raise InputError("forest needs at least one vertex and a nonnegative drop")
    rng = random.Random(seed)
    vertices = tuple(f"v{i}" for i in range(1, n + 1))
    edges = [
        frozenset((vertices[rng.randrange(i)], vertices[i]))
        for i in range(1, n)
    ]
    for _ in range(min(drop, len(edges))):
        edges.pop(rng.randrange(len(edges)))
    return Graph(vertices, frozenset(edges))


def gen_digraph(n_vertices: int, n_arcs: int, seed: int) -> Digraph:
    """Seeded random multigraph with uniform arcs and distinguished s, t."""
    if n_vertices < 1 or n_arcs < 0:
        raise InputError("digraph needs at least one vertex and a nonnegative arc count")
    rng = random.Random(seed)
    vertices = tuple(f"v{i}" for i in range(1, n_vertices + 1))
    arcs = tuple(
        Arc(f"e{i}", rng.choice(vertices), rng.choice(vertices))
        for i in range(1, n_arcs + 1)
    )
    return Digraph(vertices, arcs, rng.choice(vertices), rng.choice(vertices))


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
    return Digraph(
        ("s", "u", "v", "t"),
        (
            Arc("A", "s", "u"),
            Arc("E", "s", "v"),
            Arc("C", "u", "v"),
            Arc("D", "v", "u"),
            Arc("B", "u", "t"),
            Arc("F", "v", "t"),
        ),
        "s",
        "t",
    )


# -- exhaustive enumerations ---------------------------------------------------


def _tree_canonical(n: int, edges: list) -> object:
    """Isomorphism-invariant form of a tree on vertices 0..n-1.

    Roots the tree at its center(s) and takes the lexicographically
    smallest recursive sorted-children form.
    """
    if n == 1:
        return ()
    adjacency = {v: set() for v in range(n)}
    for a, b in edges:
        adjacency[a].add(b)
        adjacency[b].add(a)
    # strip leaves until one or two centers remain
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
    centers = [v for v in range(n) if alive[v]]

    def form(v: int, parent: int) -> tuple:
        return tuple(sorted(form(w, v) for w in adjacency[v] if w != parent))

    return min(form(c, -1) for c in centers)


def all_trees(max_n: int) -> Iterator[Graph]:
    """One representative per isomorphism class of trees on 1..max_n vertices.

    Grows level by level: every tree on n vertices arises by attaching a new
    leaf to some tree on n - 1 vertices; duplicates are filtered by the
    canonical form.
    """
    if max_n < 1:
        return
    level: list = [[]]
    yield graph(("v1",), [])
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
        for edges in nxt:
            yield graph(
                tuple(f"v{i}" for i in range(1, n + 1)),
                [(f"v{a + 1}", f"v{b + 1}") for a, b in edges],
            )
        level = nxt


def all_digraphs(max_vertices: int, max_arcs: int) -> Iterator[Digraph]:
    """Every digraph shape: arc multisets over V x V with all (s, t) choices."""
    for nv in range(1, max_vertices + 1):
        vertices = tuple(f"v{i}" for i in range(1, nv + 1))
        pairs = [(a, b) for a in vertices for b in vertices]
        for k in range(max_arcs + 1):
            for multi in combinations_with_replacement(pairs, k):
                arcs = tuple(
                    Arc(f"e{i + 1}", a, b) for i, (a, b) in enumerate(multi)
                )
                for s in vertices:
                    for t in vertices:
                        yield Digraph(vertices, arcs, s, t)
