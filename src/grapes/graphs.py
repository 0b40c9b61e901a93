"""Graphs, digraphs, their exact invariants, and derived simplicial complexes.

Undirected graphs are finite and simple.  A :class:`Graph` is its vertex
names plus its edges as (lower, higher) vertex-index pairs, distinct and
sorted.  :func:`graph` turns names into indices, checking them; the
generators build the pairs straight from indices.  Names come back only at
the boundary: :func:`edge_ground` labels the edges, once per graph as
:attr:`Graph.edge_labels`, for the edge-cover and edge-dominance
complexes, and :func:`graph_to_json` writes the graph.  Vertex sets are
masks (bit i for ``vertices[i]``): the closed neighbourhoods, and the edges
too where a search or a complex needs them as sets.

Directed graphs are multigraphs (parallel arcs and loops allowed) with two
distinguished vertices s and t, possibly equal; arcs carry identifiers,
which become the ground elements of the path-free and path-missing
complexes.  A :class:`Digraph` is its vertex names, its arc ids, and its
arcs as (source, target) vertex-index pairs in arc order, with s and t
vertex indices.  :func:`digraph` turns names into indices, checking them;
the generators build the pairs straight from indices.  Names come back only
at the boundary: :func:`digraph_to_json` writes the digraph, and the
complexes and reports name an arc by its id.

Invariants (domination, independent domination, vertex cover, matching) are
computed by exhaustive search over vertex masks: a set dominates when it
meets every closed neighbourhood (:attr:`Graph.closed`, computed once per
graph), covers when it meets every edge, and is independent when it
contains none.  A digraph lists its simple s-t paths once, as arc masks, in
:attr:`Digraph.paths`; the path-free and path-missing complexes and the
useless arcs read that list.
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
    bit_indices,
    face_of,
    join_mask,
    subset_masks,
)


# -- undirected graphs -------------------------------------------------------


@dataclass(frozen=True)
class Graph:
    """Vertex names plus the edges as (lower, higher) vertex-index pairs,
    distinct and sorted.  Unchecked: build one from names with
    :func:`graph`, which validates them."""

    vertices: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]

    @cached_property
    def closed(self) -> tuple:
        """The closed neighbourhoods as vertex masks, in vertex order."""
        closed = [1 << i for i in range(len(self.vertices))]
        for a, b in self.edges:
            closed[a] |= 1 << b
            closed[b] |= 1 << a
        return tuple(closed)

    @cached_property
    def edge_labels(self) -> tuple:
        """:func:`edge_ground`, once per graph: the ground set of both EC and ED."""
        return edge_ground(self)


def graph(vertices: Iterable[str], edges: Iterable) -> Graph:
    """Build a graph; checks that the vertices are distinct and nonempty
    (they name ground elements) and that each edge joins two distinct
    vertices."""
    vertices = tuple(vertices)
    index = {v: i for i, v in enumerate(vertices)}
    if len(index) != len(vertices):
        raise InputError("graph vertices must be distinct")
    if "" in index:
        raise InputError("graph vertices must be nonempty")
    pairs = set()
    for e in map(frozenset, edges):
        if len(e) != 2:
            raise InputError("edges join two distinct vertices (no loops)")
        if not e <= index.keys():
            raise InputError(f"edge {sorted(e)} uses unknown vertices")
        pairs.add(tuple(sorted(map(index.__getitem__, e))))
    return Graph(vertices, tuple(sorted(pairs)))


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
    edges, closed = [1 << a | 1 << b for a, b in g.edges], g.closed
    dominating = (s for s in subset_masks(n) if all(c & s for c in closed))
    first = next(dominating)
    independent = next(s for s in chain([first], dominating) if not any(e & s == e for e in edges))
    cover = next(s for s in subset_masks(n) if all(e & s for e in edges))
    beta1 = next((k for k in range(n // 2, 0, -1)
                  if any(join_mask(m).bit_count() == 2 * k for m in combinations(edges, k))), 0)
    return GraphInvariants(first.bit_count(), independent.bit_count(), cover.bit_count(), beta1)


def _components(g: Graph) -> Iterator[list]:
    """Each component's breadth-first layers, as vertex masks, from its lowest vertex."""
    unseen = (1 << len(g.vertices)) - 1
    while unseen:
        layers, seen, layer = [], 0, unseen & -unseen
        while layer:
            layers.append(layer)
            seen |= layer
            layer = join_mask(g.closed[i] for i in bit_indices(layer)) & ~seen
        unseen &= ~seen
        yield layers


def is_forest(g: Graph) -> bool:
    """No cycle: as many edges as vertices less components."""
    return len(g.edges) == len(g.vertices) - sum(1 for _ in _components(g))


def is_bipartite(g: Graph) -> bool:
    """No odd cycle: no edge lies within one breadth-first layer."""
    layers = [layer for component in _components(g) for layer in component]
    return not any(layer >> a & layer >> b & 1 for layer in layers for a, b in g.edges)


def canonical_forest(g: Graph) -> Graph:
    """g relabelled into its canonical form: two forests are isomorphic
    exactly when their forms have as many vertices and equal edges.  Each
    vertex keeps its name, so the form's vertex tuple is an isomorphism from
    g onto the form.  InputError when g has a cycle.

    Leaves are peeled layer by layer, and a vertex's layer is its height
    once each tree hangs from its centre, the vertex peeled last; a tree
    peeled last as an edge hangs from the end with the lower code, with the
    other end as its last child.  Codes go out height by height, each
    ranking the sorted codes of a vertex's children among those of every
    vertex of its height, so they compare the same in every labelling of g
    (Aho, Hopcroft and Ullman's tree isomorphism, 1974).  The trees follow
    one another by code, each in preorder, children by code.  No recursion;
    O(n log n) comparisons of codes.
    """
    n = len(g.vertices)
    left = [0] * n  # each vertex's neighbours not yet peeled
    link = [0] * n  # the XOR of their indices: the last one, once it is alone
    for a, b in g.edges:
        left[a] += 1
        left[b] += 1
        link[a] ^= b
        link[b] ^= a
    height, code, place = [-1] * n, [0] * n, [0] * n
    children: list = [[] for _ in range(n)]
    centres = []  # (a vertex peeled last, the other one peeled with it or None)
    ranked = 0  # the codes given out, to the layers below
    h, layer = 0, [v for v in range(n) if left[v] <= 1]
    while layer:
        rows = []
        for v in layer:
            height[v] = h
            children[v].sort(key=code.__getitem__)
            rows.append(tuple(map(code.__getitem__, children[v])))
        rank = {row: ranked + i for i, row in enumerate(sorted(set(rows)))}
        ranked += len(rank)
        nxt = []
        for v, row in zip(layer, rows):
            code[v], w = rank[row], link[v]
            if left[v] and height[w] < 0:  # the one neighbour left: v's parent
                children[w].append(v)
                left[w] -= 1
                link[w] ^= v
                if left[w] == 1:
                    nxt.append(w)
            else:
                centres.append((v, w if left[v] else None))
        h, layer = h + 1, nxt
    if -1 in height:
        raise InputError("the canonical form needs a forest")
    roots = []  # (the tree's code, its root)
    for v, w in centres:
        if w is None:
            roots.append(((code[v],), v))
        elif (code[v], v) < (code[w], w):
            children[v].append(w)
            roots.append(((code[v], code[w]), v))
    order = []
    for _, root in sorted(roots):
        stack = [root]
        while stack:
            v = stack.pop()
            place[v] = len(order)
            order.append(v)
            stack.extend(reversed(children[v]))
    # a vertex's children follow it in place order: the edges come out sorted
    edges = tuple((i, place[w]) for i, v in enumerate(order) for w in children[v])
    return Graph(tuple(g.vertices[v] for v in order), edges)


def edge_ground(g: Graph) -> tuple:
    """Edge labels in the order of g.edges, each its ends' names, lower
    first: the ground set for EC/ED."""
    labels = tuple(f"{g.vertices[a]}-{g.vertices[b]}" for a, b in g.edges)
    if len(set(labels)) != len(labels):
        raise InputError("edge labels collide; rename vertices")
    return labels


def _meeting(edges: tuple, m: int) -> int:
    """The edges with an end in the vertex mask m, as a mask over the edge tuple."""
    return sum(1 << i for i, (a, b) in enumerate(edges) if m & (1 << a | 1 << b))


# a graph's ground and forbidden sets, by kind: avoiding builds the complex, avoiding_dual its dual
FORBIDDEN_SETS = {
    "ind": lambda g: (g.vertices, [1 << a | 1 << b for a, b in g.edges]),
    "dom": lambda g: (g.vertices, g.closed),
    "ec": lambda g: (g.edge_labels, [_meeting(g.edges, 1 << i) for i in range(len(g.vertices))]),
    "ed": lambda g: (g.edge_labels, [_meeting(g.edges, 1 << a | 1 << b) for a, b in g.edges]),
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
class Digraph:
    """Vertex names, arc ids, and the arcs as (source, target) vertex-index
    pairs in arc order (``arcs[i]`` has id ``ids[i]``); s and t are vertex
    indices.  Unchecked: build one from names with :func:`digraph`, which
    validates them."""

    vertices: tuple[str, ...]
    ids: tuple[str, ...]
    arcs: tuple[tuple[int, int], ...]
    s: int
    t: int

    @cached_property
    def paths(self) -> tuple:
        """The simple s-t paths as masks over the arcs (bit i for
        ``arcs[i]``), listed once per digraph, depth first; (0,) alone if
        s = t.  InputError once past MAX_FACES paths.  The visited vertices
        are a mask too, bit i for vertex i."""
        out: list = [[] for _ in self.vertices]  # per vertex: target, its bit, the arc's bit
        for i, (a, b) in enumerate(self.arcs):
            out[a].append((b, 1 << b, 1 << i))
        paths = []
        stack = [(self.s, 1 << self.s, 0)]
        while stack:
            v, visited, trail = stack.pop()
            if v == self.t:
                paths.append(trail)
                if len(paths) > MAX_FACES:
                    raise InputError(f"the digraph has more than {MAX_FACES} s-t paths")
                continue
            for tgt, b, a in out[v]:
                if not visited & b:
                    stack.append((tgt, visited | b, trail | a))
        return tuple(paths)


def digraph(vertices, arcs, s: str, t: str) -> Digraph:
    """Build a digraph from (id, src, tgt) triples of names; checks that
    vertices and arc ids are distinct, that arc ids (the ground elements of
    PF and PM) are nonempty and that the arcs, s and t use known vertices."""
    vertices, arcs = tuple(vertices), tuple(arcs)
    index = {v: i for i, v in enumerate(vertices)}
    if len(index) != len(vertices):
        raise InputError("digraph vertices must be distinct")
    ids = tuple(i for i, _, _ in arcs)
    if len(set(ids)) != len(ids):
        raise InputError("arc ids must be distinct")
    if "" in ids:
        raise InputError("arc ids must be nonempty")
    for i, a, b in arcs:
        if a not in index or b not in index:
            raise InputError(f"arc {i!r} uses unknown vertices")
    if s not in index or t not in index:
        raise InputError("s and t must be vertices")
    pairs = tuple((index[a], index[b]) for _, a, b in arcs)
    return Digraph(vertices, ids, pairs, index[s], index[t])


def pf_complex(d: Digraph) -> Complex:
    """Path-free complex: arc sets containing no path from s to t.

    With s = t every set contains the trivial path, so the complex is void;
    with s != t and no arcs it is the irrelevant complex.
    """
    return avoiding(d.ids, d.paths)


def pm_complex(d: Digraph) -> Complex:
    """Path-missing complex: arc sets whose complement still has an s-t path.

    The facets are the path complements, with no maximality test: a simple
    path leaves each of its vertices by one arc, so a path inside another
    follows it from s to t and is the same path.
    """
    full = (1 << len(d.arcs)) - 1
    return Complex(d.ids, frozenset(full ^ p for p in d.paths))


def useless_arcs(d: Digraph) -> frozenset:
    """Arcs lying on no simple path from s to t (loops always qualify)."""
    return face_of(((1 << len(d.arcs)) - 1) & ~join_mask(d.paths), d.ids)


def has_cycle(d: Digraph) -> bool:
    """Any nontrivial closed walk (loops and anti-parallel pairs count): some
    vertex is left when those with no arc in are peeled off (Kahn's order)."""
    arcs_in = [0] * len(d.vertices)
    out_arcs: list = [[] for _ in d.vertices]
    for a, b in d.arcs:
        arcs_in[b] += 1
        out_arcs[a].append(b)
    peeled = [v for v, k in enumerate(arcs_in) if not k]
    for v in peeled:  # grows while it is read
        for w in out_arcs[v]:
            arcs_in[w] -= 1
            if not arcs_in[w]:
                peeled.append(w)
    return len(peeled) < len(d.vertices)


def nonsinks(d: Digraph) -> frozenset:
    """The vertices, as indices, that some arc leaves."""
    return frozenset(a for a, _ in d.arcs)


def delete_arc(d: Digraph, i: int) -> Digraph:
    """Drop arc i."""
    return Digraph(d.vertices, d.ids[:i] + d.ids[i + 1:], d.arcs[:i] + d.arcs[i + 1:], d.s, d.t)


def contract_arc(d: Digraph, i: int) -> Digraph:
    """Contract arc i, which must leave s: merge its target u into s, dropping
    the arc.  u leaves the vertices, and those after it shift down one.
    Parallel arcs and loops that arise from the merge are kept; arc ids are
    preserved.  Contracting a loop at s just removes it.
    """
    u, rest = d.arcs[i][1], delete_arc(d, i)
    if u == d.s:
        return rest

    def repoint(v: int) -> int:
        v = d.s if v == u else v
        return v - (v > u)

    arcs = tuple((repoint(a), repoint(b)) for a, b in rest.arcs)
    return Digraph(d.vertices[:u] + d.vertices[u + 1:], rest.ids, arcs, repoint(d.s), repoint(d.t))


# -- JSON interchange -----------------------------------------------------------


def graph_to_json(g: Graph) -> dict:
    return {
        "vertices": list(g.vertices),
        "edges": [[g.vertices[a], g.vertices[b]] for a, b in g.edges],
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
    v = d.vertices
    return {
        "vertices": list(v),
        "arcs": [{"id": i, "src": v[a], "tgt": v[b]} for i, (a, b) in zip(d.ids, d.arcs)],
        "s": v[d.s],
        "t": v[d.t],
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
