"""Seeded inputs and independent oracles for the benchmark.

Everything here is the benchmark's own code: it builds the inputs handed to
the grapes CLI and re-derives the answers the CLI must give, without calling
grapes.  Complexes are facet lists over a named ground set; a face is an
integer bit mask over the ground index while it is computed here.

The ``*_table`` functions tabulate a face predicate over all 2^n subsets
(a bytearray, one dynamic-programming step per subset, or a few big-integer
operations for all subsets at once), so they stay fast enough at n <= 17 to
serve both as set-up generators and as exact output checks.
"""

from __future__ import annotations

import json
import random
from itertools import combinations


# -- bit-mask face tables ------------------------------------------------------


def union_table(vectors: list) -> list:
    """u[m] = OR of vectors[i] over the bits i of m."""
    u = [0] * (1 << len(vectors))
    for m in range(1, len(u)):
        low = m & -m
        u[m] = u[m ^ low] | vectors[low.bit_length() - 1]
    return u


_FLIP = bytes(range(256)).translate(bytes([1, 0]) + bytes(range(2, 256)))


def maximal_masks(table) -> list:
    """Inclusion-maximal masks m with table[m] true (the facets).

    The table is read as one big integer with a byte per subset; for each
    element i, shifting by 2^i bytes lines every m up with m + {i}, and the
    byte pattern keeps only the m without i.
    """
    size = len(table)
    faces = int.from_bytes(bytes(table), "little")
    extended = 0
    i = 0
    while 1 << i < size:
        block = 1 << i
        without_i = int.from_bytes((b"\1" * block + b"\0" * block) * (size // (2 * block)), "little")
        extended |= (faces >> (8 * block)) & without_i
        i += 1
    maximal = (faces & ~extended).to_bytes(size, "little")
    out, m = [], maximal.find(1)
    while m != -1:
        out.append(m)
        m = maximal.find(1, m + 1)
    return out


def dual_table(table) -> bytearray:
    """Alexander dual: D is a face iff the complement of D is not."""
    return bytearray(bytes(table)[::-1].translate(_FLIP))


def ind_table(n: int, edges: list) -> bytearray:
    """Independent vertex sets of a graph on vertices 0..n-1."""
    nbr = [0] * n
    for u, v in edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    u = union_table(nbr)
    return bytearray(0 if u[m] & m else 1 for m in range(1 << n))


def dom_table(n: int, edges: list) -> bytearray:
    """Sets whose complement dominates every vertex."""
    closed = [1 << v for v in range(n)]
    for u, v in edges:
        closed[u] |= 1 << v
        closed[v] |= 1 << u
    u = union_table(closed)
    full = (1 << n) - 1
    return bytearray(1 if u[full ^ m] == full else 0 for m in range(1 << n))


def ec_table(n: int, edges: list) -> bytearray:
    """Edge sets whose complement still covers every vertex (ground = edges)."""
    u = union_table([(1 << a) | (1 << b) for a, b in edges])
    full_v = (1 << n) - 1
    full_e = (1 << len(edges)) - 1
    return bytearray(1 if u[full_e ^ m] == full_v else 0 for m in range(1 << len(edges)))


def ed_table(n: int, edges: list) -> bytearray:
    """Edge sets F such that every edge meets some edge outside F."""
    ends = [(1 << a) | (1 << b) for a, b in edges]
    u = union_table(ends)
    full_e = (1 << len(edges)) - 1
    return bytearray(
        1 if all(e & u[full_e ^ m] for e in ends) else 0 for m in range(1 << len(edges))
    )


def pf_table(arcs: list, s: int, t: int) -> bytearray:
    """Arc sets containing no directed s-t path, for arcs that all go
    forward in vertex order (a DAG from ``useful_dag``).

    Works on all 2^arcs subsets at once: a big integer holds one byte per
    subset, and reach[v] marks the subsets in which v is reachable from s.
    Arcs are taken in order of their source, so reach[a] is final when the
    arc (a, b) extends it.
    """
    size = 1 << len(arcs)
    ones = int.from_bytes(b"\1" * size, "little")
    reach = {s: ones}
    for i, (a, b) in sorted(enumerate(arcs), key=lambda item: item[1][0]):
        block = 1 << i
        with_arc = int.from_bytes((b"\0" * block + b"\1" * block) * (size // (2 * block)), "little")
        reach[b] = reach.get(b, 0) | (reach.get(a, 0) & with_arc)
    return bytearray((ones ^ reach.get(t, 0)).to_bytes(size, "little"))


def facet_lists(masks: list, ground: list) -> list:
    return [[ground[i] for i in range(len(ground)) if m >> i & 1] for m in masks]


def facet_set(facets: list, ground: list) -> frozenset:
    """Facets given as name lists, as a set of bit masks over ``ground``."""
    index = {name: i for i, name in enumerate(ground)}
    return frozenset(sum(1 << index[x] for x in f) for f in facets)


def complex_json(ground: list, masks: list) -> dict:
    return {"ground": list(ground), "facets": facet_lists(masks, ground)}


# -- seeded instances ------------------------------------------------------------


def random_tree(n: int, rng: random.Random) -> list:
    """Edges of a random recursive tree on vertices 0..n-1."""
    return [(rng.randrange(i), i) for i in range(1, n)]


def path_with_chords(n: int, rng: random.Random) -> list:
    """The path 0-1-...-(n-1) plus about n/4 random chords, sorted."""
    edges = {(i, i + 1) for i in range(n - 1)}
    for _ in range(n // 4):
        a, b = sorted(rng.sample(range(n), 2))
        edges.add((a, b))
    return sorted(edges)


def relabel(n: int, edges: list, rng: random.Random) -> list:
    """The same graph with its vertices renumbered at random, edges sorted."""
    order = list(range(n))
    rng.shuffle(order)
    return sorted_edges([(order[a], order[b]) for a, b in edges])


def typical(candidates: list, measure) -> object:
    """The candidate whose measure is the median of all candidates'.

    Drawing several seeded candidates and keeping the median one keeps the
    work a seed brings close to its family's typical value.
    """
    ranked = sorted(range(len(candidates)), key=lambda i: measure(candidates[i]))
    return candidates[ranked[len(ranked) // 2]]


def graph_json(n: int, edges: list) -> dict:
    names = [f"v{i + 1}" for i in range(n)]
    return {"vertices": names, "edges": [[names[a], names[b]] for a, b in edges]}


def edge_ground(n: int, edges: list) -> list:
    """Edge labels in the order grapes uses for the EC/ED ground set."""
    return [f"v{min(a, b) + 1}-v{max(a, b) + 1}" for a, b in sorted(
        (min(a, b), max(a, b)) for a, b in edges)]


def sorted_edges(edges: list) -> list:
    return sorted((min(a, b), max(a, b)) for a, b in edges)


def useful_dag(n_vertices: int, n_arcs: int, rng: random.Random) -> tuple:
    """Acyclic multigraph in which every arc lies on a simple s-t path.

    A spine s = 0 -> 1 -> ... -> n-1 = t puts every vertex on a path; every
    further arc goes forward in that order, so it extends to a simple s-t
    path through the spine.  Returns (arcs, s, t).
    """
    arcs = [(i, i + 1) for i in range(n_vertices - 1)]
    while len(arcs) < n_arcs:
        a = rng.randrange(n_vertices - 1)
        arcs.append((a, rng.randrange(a + 1, n_vertices)))
    rng.shuffle(arcs)
    return arcs, 0, n_vertices - 1


def digraph_json(n: int, arcs: list, s: int, t: int) -> dict:
    names = [f"v{i + 1}" for i in range(n)]
    return {
        "vertices": names,
        "arcs": [{"id": f"e{i + 1}", "src": names[a], "tgt": names[b]} for i, (a, b) in enumerate(arcs)],
        "s": names[s],
        "t": names[t],
    }


def random_pure(ground_size: int, dim: int, n_facets: int, rng: random.Random) -> list:
    """Distinct random (dim+1)-subsets of range(ground_size), as masks."""
    seen: set = set()
    while len(seen) < n_facets:
        seen.add(sum(1 << i for i in rng.sample(range(ground_size), dim + 1)))
    return sorted(seen)


def cross_polytope(n: int) -> tuple:
    """Ground and facet masks of the boundary of the n-dim cross-polytope."""
    ground = [f"p{i}{side}" for i in range(1, n + 1) for side in "ab"]
    masks = []
    for choice in range(1 << n):
        masks.append(sum(1 << (2 * i + (choice >> i & 1)) for i in range(n)))
    return ground, masks


def simplex_boundary(n: int) -> tuple:
    ground = [f"x{i}" for i in range(n)]
    full = (1 << n) - 1
    return ground, [full ^ (1 << i) for i in range(n)]


# -- oracles --------------------------------------------------------------------


def all_faces(masks: list) -> set:
    """Every face of a facet family, the empty face included, as masks."""
    faces: set = set()
    for f in masks:
        bits = [1 << i for i in range(f.bit_length()) if f >> i & 1]
        for k in range(len(bits) + 1):
            for combo in combinations(bits, k):
                faces.add(sum(combo))
    return faces


def reduced_euler(masks: list) -> int:
    """Sum over faces of (-1)^dim, the empty face (dimension -1) included."""
    return sum(-((-1) ** bin(f).count("1")) for f in all_faces(masks))


def kozlov_path_degree(n: int):
    """Ind(P_n): S^{k-1} for n = 3k-1 or 3k, contractible for n = 3k+1."""
    if n % 3 == 1:
        return None
    return (n + 1) // 3 - 1


def collapses_to_void(ground: list, masks: list, steps: list) -> bool:
    """Replay a collapse sequence on the face set; True if it ends empty."""
    index = {name: i for i, name in enumerate(ground)}
    faces = all_faces(masks)
    for step in steps:
        sigma = sum(1 << index[x] for x in step["sigma"])
        tau = sum(1 << index[x] for x in step["tau"])
        if sigma not in faces or tau not in faces or tau & ~sigma or bin(sigma ^ tau).count("1") != 1:
            return False
        if any(f != sigma and f & tau == tau and f != tau for f in faces):
            return False
        faces.discard(sigma)
        faces.discard(tau)
    return not faces


def write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(payload))
