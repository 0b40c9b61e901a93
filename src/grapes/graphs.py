"""Graphs, digraphs, their exact invariants, and derived simplicial complexes.

Undirected graphs are finite and simple.  A :class:`Graph` is its vertex
names plus its edges as two-bit vertex masks (bit i for ``vertices[i]``),
listed once in the one edge order, lower end first, then by mask.
:func:`graph` turns names into masks, checking them; the generators build
the masks straight from vertex indices.  Names come back only at the
boundary: :func:`edge_ground` labels the edges, once per graph as
:attr:`Graph.edge_labels`, for the edge-cover and edge-dominance
complexes, and :func:`graph_to_json` writes the graph.

Directed graphs are multigraphs (parallel arcs and loops allowed) with two
distinguished vertices s and t, possibly equal; arcs carry identifiers,
which become the ground elements of the path-free and path-missing
complexes.

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
from typing import Iterable, Iterator, NamedTuple

from .complexes import (
    MAX_FACES,
    Complex,
    InputError,
    avoiding,
    bit_table,
    face_of,
    join_mask,
    mask_of,
    subset_masks,
)


# -- undirected graphs -------------------------------------------------------


def edge_order(e: int) -> tuple:
    """The one edge order: by lower end, then by mask, so {0, 3} (9) comes
    before {1, 2} (6)."""
    return e & -e, e


def ends(e: int) -> tuple:
    """An edge mask's two vertex indices, lower first."""
    return (e & -e).bit_length() - 1, e.bit_length() - 1


@dataclass(frozen=True)
class Graph:
    """Vertex names plus the edges as two-bit vertex masks (bit i for
    ``vertices[i]``), distinct and in :func:`edge_order`.  Unchecked: build
    one from names with :func:`graph`, which validates them."""

    vertices: tuple[str, ...]
    edges: tuple[int, ...]

    @cached_property
    def closed(self) -> tuple:
        """The closed neighbourhoods as vertex masks, in vertex order."""
        bits = (1 << i for i in range(len(self.vertices)))
        return tuple(b | join_mask(e for e in self.edges if e & b) for b in bits)

    @cached_property
    def edge_labels(self) -> tuple:
        """:func:`edge_ground`, once per graph: the ground set of both EC and ED."""
        return edge_ground(self)


def graph(vertices: Iterable[str], edges: Iterable) -> Graph:
    """Build a graph; checks that the vertices are distinct and nonempty
    (they name ground elements) and that each edge joins two distinct
    vertices."""
    vertices = tuple(vertices)
    bit = bit_table(vertices)
    if len(bit) != len(vertices):
        raise InputError("graph vertices must be distinct")
    if "" in bit:
        raise InputError("graph vertices must be nonempty")
    masks = set()
    for e in map(frozenset, edges):
        if len(e) != 2:
            raise InputError("edges join two distinct vertices (no loops)")
        if not e <= bit.keys():
            raise InputError(f"edge {sorted(e)} uses unknown vertices")
        masks.add(mask_of(e, bit))
    return Graph(vertices, tuple(sorted(masks, key=edge_order)))


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
    edges, closed = g.edges, g.closed
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
            layer = join_mask(c for i, c in enumerate(g.closed) if layer >> i & 1) & ~seen
        unseen &= ~seen
        yield layers


def is_forest(g: Graph) -> bool:
    """No cycle: as many edges as vertices less components."""
    return len(g.edges) == len(g.vertices) - sum(1 for _ in _components(g))


def is_bipartite(g: Graph) -> bool:
    """No odd cycle: no edge lies within one breadth-first layer."""
    layers = [layer for component in _components(g) for layer in component]
    return not any(e & layer == e for layer in layers for e in g.edges)


def edge_ground(g: Graph) -> tuple:
    """Edge labels in edge order, each its ends' names, lower first: the
    ground set for EC/ED."""
    labels = tuple("-".join(g.vertices[i] for i in ends(e)) for e in g.edges)
    if len(set(labels)) != len(labels):
        raise InputError("edge labels collide; rename vertices")
    return labels


def _meeting(edges: tuple, m: int) -> int:
    """The edges that meet the vertex mask m, as a mask over the edge tuple."""
    return sum(1 << i for i, e in enumerate(edges) if e & m)


# a graph's ground and forbidden sets, by kind: avoiding builds the complex, avoiding_dual its dual
FORBIDDEN_SETS = {
    "ind": lambda g: (g.vertices, g.edges),
    "dom": lambda g: (g.vertices, g.closed),
    "ec": lambda g: (g.edge_labels, [_meeting(g.edges, 1 << i) for i in range(len(g.vertices))]),
    "ed": lambda g: (g.edge_labels, [_meeting(g.edges, e) for e in g.edges]),
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


class Arc(NamedTuple):
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
        "edges": [[g.vertices[i] for i in ends(e)] for e in g.edges],
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
