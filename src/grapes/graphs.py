"""Graphs, digraphs, their exact invariants, and derived simplicial complexes.

Undirected graphs are finite and simple.  Directed graphs are multigraphs
(parallel arcs and loops allowed) with two distinguished vertices s and t,
possibly equal; arcs carry identifiers, which become the ground elements of
the path-free and path-missing complexes.

Invariants (domination, independent domination, vertex cover, matching) are
computed by plain exhaustive search: exactness over speed, at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from typing import Iterable, Iterator

from .complexes import EMPTY_FACE, Complex, InputError, alexander_dual, new_complex


# -- undirected graphs -------------------------------------------------------


@dataclass(frozen=True)
class Graph:
    vertices: tuple[str, ...]
    edges: frozenset  # frozensets of two distinct vertex names

    def __post_init__(self) -> None:
        vset = set(self.vertices)
        if len(vset) != len(self.vertices):
            raise InputError("graph vertices must be distinct")
        for e in self.edges:
            if len(e) != 2:
                raise InputError("edges join two distinct vertices (no loops)")
            if not e <= vset:
                raise InputError(f"edge {sorted(e)} uses unknown vertices")

    def index(self, v: str) -> int:
        try:
            return self.vertices.index(v)
        except ValueError:
            raise InputError(f"{v!r} is not a vertex") from None

    def sorted_edges(self) -> list:
        return sorted(
            (tuple(sorted(e, key=self.index)) for e in self.edges),
            key=lambda pair: (self.index(pair[0]), self.index(pair[1])),
        )

    def adjacent(self, u: str, v: str) -> bool:
        return frozenset((u, v)) in self.edges


def graph(vertices: Iterable[str], edges: Iterable) -> Graph:
    return Graph(tuple(vertices), frozenset(frozenset(e) for e in edges))


def closed_neighborhood(g: Graph, s: Iterable[str]) -> frozenset:
    base = set(s)
    out = set(base)
    for e in g.edges:
        u, v = tuple(e)
        if u in base:
            out.add(v)
        if v in base:
            out.add(u)
    return frozenset(out)


def is_dominating(g: Graph, s: Iterable[str]) -> bool:
    return closed_neighborhood(g, s) == set(g.vertices)


def is_independent(g: Graph, s: Iterable[str]) -> bool:
    items = list(s)
    return all(
        not g.adjacent(items[i], items[j])
        for i in range(len(items))
        for j in range(i + 1, len(items))
    )


def is_vertex_cover(g: Graph, s: Iterable[str]) -> bool:
    sset = set(s)
    return all(e & sset for e in g.edges)


def is_edge_cover(g: Graph, chosen: Iterable) -> bool:
    covered: set = set()
    for e in chosen:
        covered |= e
    return covered == set(g.vertices)


def is_matching(edges: Iterable) -> bool:
    seen: set = set()
    for e in edges:
        if e & seen:
            return False
        seen |= e
    return True


@dataclass(frozen=True)
class GraphInvariants:
    gamma: int  # domination number
    i_dom: int  # independent domination number
    alpha0: int  # vertex cover number
    beta1: int  # matching number


def invariants(g: Graph) -> GraphInvariants:
    """Exact domination/cover/matching invariants by subset enumeration."""
    verts = g.vertices
    gamma = i_dom = None
    for k in range(len(verts) + 1):
        for combo in combinations(verts, k):
            if is_dominating(g, combo):
                if gamma is None:
                    gamma = k
                if i_dom is None and is_independent(g, combo):
                    i_dom = k
            if gamma is not None and i_dom is not None:
                break
        if gamma is not None and i_dom is not None:
            break
    alpha0 = next(
        k
        for k in range(len(verts) + 1)
        for combo in combinations(verts, k)
        if is_vertex_cover(g, combo)
    )
    edges = list(g.edges)
    beta1 = 0
    for k in range(len(verts) // 2, 0, -1):
        if any(is_matching(combo) for combo in combinations(edges, k)):
            beta1 = k
            break
    return GraphInvariants(gamma, i_dom, alpha0, beta1)


def is_forest(g: Graph) -> bool:
    parent = {v: v for v in g.vertices}

    def find(v: str) -> str:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for e in g.edges:
        u, v = tuple(e)
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def is_bipartite(g: Graph) -> bool:
    color: dict = {}
    for start in g.vertices:
        if start in color:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            v = queue.pop()
            for e in g.edges:
                if v in e:
                    (w,) = e - {v}
                    if w not in color:
                        color[w] = 1 - color[v]
                        queue.append(w)
                    elif color[w] == color[v]:
                        return False
    return True


def complement(g: Graph) -> Graph:
    edges = [
        frozenset((u, v))
        for i, u in enumerate(g.vertices)
        for v in g.vertices[i + 1 :]
        if not g.adjacent(u, v)
    ]
    return Graph(g.vertices, frozenset(edges))


def edge_label(g: Graph, e: frozenset) -> str:
    u, v = sorted(e, key=g.index)
    return f"{u}-{v}"


def edge_ground(g: Graph) -> tuple:
    """Edge labels in a deterministic order; the ground set for EC/ED."""
    labels = tuple(f"{u}-{v}" for u, v in g.sorted_edges())
    if len(set(labels)) != len(labels):
        raise InputError("edge labels collide; rename vertices")
    return labels


def _avoiding(ground: tuple, forbidden) -> Complex:
    """Sets containing no forbidden set: the Alexander dual of the complex
    generated by the forbidden sets' complements."""
    full = frozenset(ground)
    return alexander_dual(new_complex(ground, (full - s for s in forbidden)))


def independence_complex(g: Graph) -> Complex:
    """Faces are the independent vertex sets: those containing no edge."""
    return _avoiding(tuple(g.vertices), g.edges)


def dominance_complex(g: Graph) -> Complex:
    """Faces are the sets whose complement is dominating: those containing
    no closed neighbourhood."""
    nbhds = [closed_neighborhood(g, [v]) for v in g.vertices]
    return _avoiding(tuple(g.vertices), nbhds)


def edge_cover_complex(g: Graph) -> Complex:
    """Faces are edge sets whose complement still covers every vertex: those
    containing, for no vertex, all the edges at it.

    Void when the graph has an isolated vertex (then nothing covers it).
    """
    stars = [{edge_label(g, e) for e in g.edges if v in e} for v in g.vertices]
    return _avoiding(edge_ground(g), stars)


def edge_dominance_complex(g: Graph) -> Complex:
    """Faces are edge sets F where every edge meets some edge outside F:
    those containing, for no edge, all the edges meeting it (itself too)."""
    meets = [{edge_label(g, f) for f in g.edges if e & f} for e in g.edges]
    return _avoiding(edge_ground(g), meets)


def line_dual(g: Graph) -> Graph:
    """Graph on the edge labels; two labels adjacent when the edges meet."""
    ground = edge_ground(g)
    by_label = {edge_label(g, e): e for e in g.edges}
    edges = [
        frozenset((a, b))
        for i, a in enumerate(ground)
        for b in ground[i + 1 :]
        if by_label[a] & by_label[b]
    ]
    return Graph(ground, frozenset(edges))


# -- directed multigraphs ------------------------------------------------------


@dataclass(frozen=True)
class Arc:
    id: str
    src: str
    tgt: str


@dataclass(frozen=True)
class Digraph:
    vertices: tuple[str, ...]
    arcs: tuple[Arc, ...]
    s: str
    t: str

    def __post_init__(self) -> None:
        vset = set(self.vertices)
        if len(vset) != len(self.vertices):
            raise InputError("digraph vertices must be distinct")
        ids = [a.id for a in self.arcs]
        if len(set(ids)) != len(ids):
            raise InputError("arc ids must be distinct")
        for a in self.arcs:
            if a.src not in vset or a.tgt not in vset:
                raise InputError(f"arc {a.id!r} uses unknown vertices")
        if self.s not in vset or self.t not in vset:
            raise InputError("s and t must be vertices")

    def arc(self, arc_id: str) -> Arc:
        for a in self.arcs:
            if a.id == arc_id:
                return a
        raise InputError(f"no arc with id {arc_id!r}")

    def arc_ids(self) -> tuple:
        return tuple(a.id for a in self.arcs)


def digraph(vertices, arcs, s: str, t: str) -> Digraph:
    return Digraph(
        tuple(vertices),
        tuple(Arc(i, a, b) for i, a, b in arcs),
        s,
        t,
    )


def _reaches(d: Digraph, allowed: frozenset, start: str, goal: str) -> bool:
    """Is goal reachable from start using only arcs with ids in allowed?"""
    if start == goal:
        return True
    seen = {start}
    queue = [start]
    while queue:
        v = queue.pop()
        for a in d.arcs:
            if a.id in allowed and a.src == v and a.tgt not in seen:
                if a.tgt == goal:
                    return True
                seen.add(a.tgt)
                queue.append(a.tgt)
    return False


def st_paths(d: Digraph) -> Iterator[frozenset]:
    """Yield the arc-id sets of the simple s-t paths; {} alone if s = t."""
    out_arcs: dict = {v: [] for v in d.vertices}
    for a in d.arcs:
        out_arcs[a.src].append(a)
    stack = [(d.s, frozenset({d.s}), EMPTY_FACE)]
    while stack:
        v, visited, trail = stack.pop()
        if v == d.t:
            yield trail
            continue
        for a in out_arcs[v]:
            if a.tgt not in visited:
                stack.append((a.tgt, visited | {a.tgt}, trail | {a.id}))


def pf_complex(d: Digraph) -> Complex:
    """Path-free complex: arc sets containing no path from s to t.

    With s = t every set contains the trivial path, so the complex is void;
    with s != t and no arcs it is the irrelevant complex.
    """
    return _avoiding(d.arc_ids(), st_paths(d))


def pm_complex(d: Digraph) -> Complex:
    """Path-missing complex: arc sets whose complement still has an s-t path;
    the facets are the complements of the simple s-t paths."""
    return _path_missing(d, st_paths(d))


def useless_arcs(d: Digraph) -> frozenset:
    """Arcs lying on no simple path from s to t (loops always qualify)."""
    return _useless(d, st_paths(d))


def _path_missing(d: Digraph, paths: Iterable[frozenset]) -> Complex:
    full = frozenset(d.arc_ids())
    return new_complex(d.arc_ids(), (full - p for p in paths))


def _useless(d: Digraph, paths: Iterable[frozenset]) -> frozenset:
    return frozenset(d.arc_ids()).difference(chain.from_iterable(paths))


def has_cycle(d: Digraph) -> bool:
    """Any nontrivial closed walk: some arc whose source is reachable from
    its target (covers loops and anti-parallel pairs)."""
    everything = frozenset(d.arc_ids())
    return any(_reaches(d, everything, a.tgt, a.src) for a in d.arcs)


def nonsinks(d: Digraph) -> frozenset:
    return frozenset(a.src for a in d.arcs)


def delete_arc(d: Digraph, arc_id: str) -> Digraph:
    d.arc(arc_id)
    return Digraph(
        d.vertices, tuple(a for a in d.arcs if a.id != arc_id), d.s, d.t
    )


def contract_arc(d: Digraph, arc_id: str) -> Digraph:
    """Contract an arc out of s: merge its target into s, dropping the arc.

    Only defined when the arc's source is s.  Parallel arcs and loops that
    arise from the merge are kept; arc ids are preserved.  Contracting a
    loop at s just removes it.
    """
    e = d.arc(arc_id)
    if e.src != d.s:
        raise InputError("contraction requires an arc whose source is s")
    u = e.tgt
    if u == d.s:
        return delete_arc(d, arc_id)

    def repoint(v: str) -> str:
        return d.s if v == u else v

    return Digraph(
        tuple(v for v in d.vertices if v != u),
        tuple(
            Arc(a.id, repoint(a.src), repoint(a.tgt))
            for a in d.arcs
            if a.id != arc_id
        ),
        d.s,
        repoint(d.t),
    )


# -- JSON interchange -----------------------------------------------------------


def graph_to_json(g: Graph) -> dict:
    return {
        "vertices": list(g.vertices),
        "edges": [list(pair) for pair in g.sorted_edges()],
    }


def graph_from_json(data: object) -> Graph:
    if not isinstance(data, dict):
        raise InputError("graph JSON must be an object")
    vertices = data.get("vertices")
    edges = data.get("edges")
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise InputError('graph JSON needs a "vertices" array of strings')
    if not isinstance(edges, list):
        raise InputError('graph JSON needs an "edges" array')
    out = []
    for e in edges:
        if not isinstance(e, list) or len(e) != 2 or not all(isinstance(v, str) for v in e):
            raise InputError("each edge must be a two-element array of strings")
        out.append(frozenset(e))
    return Graph(tuple(vertices), frozenset(out))


def digraph_to_json(d: Digraph) -> dict:
    return {
        "vertices": list(d.vertices),
        "arcs": [{"id": a.id, "src": a.src, "tgt": a.tgt} for a in d.arcs],
        "s": d.s,
        "t": d.t,
    }


def digraph_from_json(data: object) -> Digraph:
    if not isinstance(data, dict):
        raise InputError("digraph JSON must be an object")
    vertices = data.get("vertices")
    arcs = data.get("arcs")
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise InputError('digraph JSON needs a "vertices" array of strings')
    if not isinstance(arcs, list):
        raise InputError('digraph JSON needs an "arcs" array')
    out = []
    for a in arcs:
        if not isinstance(a, dict) or not all(
            isinstance(a.get(k), str) for k in ("id", "src", "tgt")
        ):
            raise InputError('each arc needs string fields "id", "src", "tgt"')
        out.append(Arc(a["id"], a["src"], a["tgt"]))
    s, t = data.get("s"), data.get("t")
    if not isinstance(s, str) or not isinstance(t, str):
        raise InputError('digraph JSON needs string fields "s" and "t"')
    return Digraph(tuple(vertices), tuple(out), s, t)
