"""Graphs, digraphs, their exact invariants, and derived simplicial complexes.

Undirected graphs are finite and simple.  Directed graphs are multigraphs
(parallel arcs and loops allowed) with two distinguished vertices s and t,
possibly equal; arcs carry identifiers, which become the ground elements of
the path-free and path-missing complexes.

Invariants (domination, independent domination, vertex cover, matching) are
computed by exhaustive search over vertex masks (bit i for ``vertices[i]``):
a set dominates when it meets every closed neighbourhood, covers when it
meets every edge, and is independent when it contains none.  A digraph
lists its simple s-t paths once, as arc masks, in :attr:`Digraph.paths`;
the path-free and path-missing complexes and the useless arcs read that
list.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations
from typing import Iterable, Iterator

from .complexes import (
    MAX_FACES,
    Complex,
    InputError,
    avoiding,
    bit_table,
    face_of,
    join_mask,
    mask_of,
)


# -- undirected graphs -------------------------------------------------------


@dataclass(frozen=True)
class Graph:
    """Unchecked: build one from names with :func:`graph`, which validates them."""

    vertices: tuple[str, ...]
    edges: frozenset  # frozensets of two distinct vertex names

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

def graph(vertices: Iterable[str], edges: Iterable) -> Graph:
    """Build a graph; checks that the vertices are distinct and nonempty
    (they name ground elements) and that each edge joins two distinct
    vertices."""
    g = Graph(tuple(vertices), frozenset(frozenset(e) for e in edges))
    vset = set(g.vertices)
    if len(vset) != len(g.vertices):
        raise InputError("graph vertices must be distinct")
    if "" in vset:
        raise InputError("graph vertices must be nonempty")
    for e in g.edges:
        if len(e) != 2:
            raise InputError("edges join two distinct vertices (no loops)")
        if not e <= vset:
            raise InputError(f"edge {sorted(e)} uses unknown vertices")
    return g


def _masks(g: Graph) -> tuple:
    """The edges, in edge_ground's order, and the closed neighbourhoods, as vertex masks."""
    bit = bit_table(g.vertices)
    edges = sorted((mask_of(e, bit) for e in g.edges), key=lambda e: (e & -e, e))
    return edges, [b | join_mask(e for e in edges if e & b) for b in bit.values()]


def _subsets(n: int) -> Iterator[int]:
    """Every subset of n bits as a mask, smallest first."""
    bits = [1 << i for i in range(n)]
    return (sum(c) for k in range(n + 1) for c in combinations(bits, k))


@dataclass(frozen=True)
class GraphInvariants:
    gamma: int  # domination number
    i_dom: int  # independent domination number
    alpha0: int  # vertex cover number
    beta1: int  # matching number


def invariants(g: Graph) -> GraphInvariants:
    """Exact invariants by subset search, stopping at the first independent
    dominating set, the first vertex cover and the largest matching.
    InputError, before searching, when there are over MAX_FACES subsets."""
    n = len(g.vertices)
    if 1 << n > MAX_FACES:
        raise InputError(f"the invariants search 2^{n} vertex subsets, more than {MAX_FACES}")
    edges, closed = _masks(g)
    dominating = (s for s in _subsets(n) if all(c & s for c in closed))
    first = next(dominating)
    independent = next(s for s in chain([first], dominating) if not any(e & s == e for e in edges))
    cover = next(s for s in _subsets(n) if all(e & s for e in edges))
    beta1 = next((k for k in range(n // 2, 0, -1)
                  if any(join_mask(m).bit_count() == 2 * k for m in combinations(edges, k))), 0)
    return GraphInvariants(first.bit_count(), independent.bit_count(), cover.bit_count(), beta1)


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


def edge_ground(g: Graph) -> tuple:
    """Edge labels in a deterministic order; the ground set for EC/ED."""
    labels = tuple(f"{u}-{v}" for u, v in g.sorted_edges())
    if len(set(labels)) != len(labels):
        raise InputError("edge labels collide; rename vertices")
    return labels


def _meeting(edges: list, m: int) -> int:
    """The edges that meet the vertex mask m, as a mask over the edge list."""
    return sum(1 << i for i, e in enumerate(edges) if e & m)


def _edge_cover_sets(g: Graph) -> tuple:
    edges = _masks(g)[0]
    return edge_ground(g), [_meeting(edges, 1 << i) for i in range(len(g.vertices))]


def _edge_dominance_sets(g: Graph) -> tuple:
    edges = _masks(g)[0]
    return edge_ground(g), [_meeting(edges, e) for e in edges]


# a graph's ground and forbidden sets, by kind: avoiding builds the complex, avoiding_dual its dual
FORBIDDEN_SETS = {
    "ind": lambda g: (g.vertices, _masks(g)[0]),
    "dom": lambda g: (g.vertices, _masks(g)[1]),
    "ec": _edge_cover_sets,
    "ed": _edge_dominance_sets,
}


def independence_complex(g: Graph) -> Complex:
    """Faces are the independent vertex sets: those containing no edge."""
    return avoiding(*FORBIDDEN_SETS["ind"](g))


def dominance_complex(g: Graph) -> Complex:
    """Faces are the sets whose complement is dominating: those containing
    no closed neighbourhood."""
    return avoiding(*FORBIDDEN_SETS["dom"](g))


def edge_cover_complex(g: Graph) -> Complex:
    """Faces are edge sets whose complement still covers every vertex: those
    containing, for no vertex, all the edges at it.

    Void when the graph has an isolated vertex (then nothing covers it).
    """
    return avoiding(*FORBIDDEN_SETS["ec"](g))


def edge_dominance_complex(g: Graph) -> Complex:
    """Faces are edge sets F where every edge meets some edge outside F:
    those containing, for no edge, all the edges meeting it (itself too)."""
    return avoiding(*FORBIDDEN_SETS["ed"](g))


# -- directed multigraphs ------------------------------------------------------


@dataclass(frozen=True)
class Arc:
    id: str
    src: str
    tgt: str


@dataclass(frozen=True)
class Digraph:
    """Unchecked: build one from names with :func:`digraph`, which validates them."""

    vertices: tuple[str, ...]
    arcs: tuple[Arc, ...]
    s: str
    t: str

    def arc(self, arc_id: str) -> Arc:
        for a in self.arcs:
            if a.id == arc_id:
                return a
        raise InputError(f"no arc with id {arc_id!r}")

    def arc_ids(self) -> tuple:
        return tuple(a.id for a in self.arcs)

    @cached_property
    def paths(self) -> tuple:
        """The simple s-t paths as masks over the arcs (bit i for
        ``arcs[i]``), listed once per digraph, depth first; (0,) alone if
        s = t.  InputError once past MAX_FACES paths.  The visited vertices
        are a mask too, bit i for ``vertices[i]``."""
        out: dict = {v: (1 << i, []) for i, v in enumerate(self.vertices)}  # bit, arcs out
        for i, a in enumerate(self.arcs):
            out[a.src][1].append((a.tgt, out[a.tgt][0], 1 << i))
        paths = []
        stack = [(self.s, out[self.s][0], 0)]
        while stack:
            v, visited, trail = stack.pop()
            if v == self.t:
                paths.append(trail)
                if len(paths) > MAX_FACES:
                    raise InputError(f"the digraph has more than {MAX_FACES} s-t paths")
                continue
            for tgt, b, a in out[v][1]:
                if not visited & b:
                    stack.append((tgt, visited | b, trail | a))
        return tuple(paths)


def digraph(vertices, arcs, s: str, t: str) -> Digraph:
    """Build a digraph from (id, src, tgt) triples; checks that vertices and
    arc ids are distinct, that arc ids (the ground elements of PF and PM)
    are nonempty and that the arcs, s and t use known vertices."""
    d = Digraph(tuple(vertices), tuple(Arc(i, a, b) for i, a, b in arcs), s, t)
    vset = set(d.vertices)
    if len(vset) != len(d.vertices):
        raise InputError("digraph vertices must be distinct")
    ids = d.arc_ids()
    if len(set(ids)) != len(ids):
        raise InputError("arc ids must be distinct")
    if "" in ids:
        raise InputError("arc ids must be nonempty")
    for a in d.arcs:
        if a.src not in vset or a.tgt not in vset:
            raise InputError(f"arc {a.id!r} uses unknown vertices")
    if s not in vset or t not in vset:
        raise InputError("s and t must be vertices")
    return d


def pf_complex(d: Digraph) -> Complex:
    """Path-free complex: arc sets containing no path from s to t.

    With s = t every set contains the trivial path, so the complex is void;
    with s != t and no arcs it is the irrelevant complex.
    """
    return avoiding(d.arc_ids(), d.paths)


def pm_complex(d: Digraph) -> Complex:
    """Path-missing complex: arc sets whose complement still has an s-t path.

    The facets are the path complements, with no maximality test: a simple
    path leaves each of its vertices by one arc, so a path inside another
    follows it from s to t and is the same path.
    """
    full = (1 << len(d.arcs)) - 1
    return Complex(d.arc_ids(), frozenset(full ^ p for p in d.paths))


def useless_arcs(d: Digraph) -> frozenset:
    """Arcs lying on no simple path from s to t (loops always qualify)."""
    return face_of(((1 << len(d.arcs)) - 1) & ~join_mask(d.paths), d.arc_ids())


def has_cycle(d: Digraph) -> bool:
    """Any nontrivial closed walk (loops and anti-parallel pairs count): some
    vertex is left when those with no arc in are peeled off (Kahn's order)."""
    arcs_in = dict.fromkeys(d.vertices, 0)
    out_arcs: dict = {v: [] for v in d.vertices}
    for a in d.arcs:
        arcs_in[a.tgt] += 1
        out_arcs[a.src].append(a.tgt)
    peeled = [v for v, k in arcs_in.items() if not k]
    for v in peeled:  # grows while it is read
        for w in out_arcs[v]:
            arcs_in[w] -= 1
            if not arcs_in[w]:
                peeled.append(w)
    return len(peeled) < len(d.vertices)


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
        out.append(e)
    return graph(vertices, out)


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
        out.append((a["id"], a["src"], a["tgt"]))
    s, t = data.get("s"), data.get("t")
    if not isinstance(s, str) or not isinstance(t, str):
        raise InputError('digraph JSON needs string fields "s" and "t"')
    return digraph(vertices, out, s, t)
