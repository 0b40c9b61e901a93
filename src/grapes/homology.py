"""Reduced integral simplicial homology and cohomology via Smith normal form.

The chain complex is augmented: the empty face spans the chain group in
dimension -1, so the irrelevant complex has one unit of homology there and
the void complex (no faces at all) has all groups zero.  Faces are int masks
over the ground, submasks of the facets.  Homology is taken of the quotient
by the star of one vertex, an acyclic cone, which leaves the cells of the
pair (deletion, link); its sparse boundary maps are reduced top down with
clearing, by low-pivot column reduction on unit pivots, and only the block
left over goes to a dense Smith reduction.
Cohomology follows from homology by universal coefficients.

All arithmetic is exact over Python integers.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from math import gcd
from typing import Optional

from .complexes import Complex, InputError, bound_faces, face_masks


# -- integer matrix reduction ----------------------------------------------


def smith_normal_form(matrix: list) -> list:
    """Invariant factors d1 | d2 | ... (positive) of an integer matrix.

    Euclidean pivoting: pivot on an entry of least magnitude, reduce its
    column by row operations and its row by column operations, and pivot
    again while a remainder (smaller than the pivot) is left.  A pivot that
    stands alone in its row and column is recorded and its row dropped; a
    gcd/lcm pass over the pivots gives the divisibility chain.
    """
    if not any(map(any, matrix)):
        return []
    m = [list(row) for row in matrix if any(row)]
    d = []
    while m:
        _, i, j = min((abs(v), i, j) for i, row in enumerate(m) for j, v in enumerate(row) if v)
        top, p = m[i], m[i][j]
        for row in m:
            if row[j] and row is not top:
                q = row[j] // p
                row[:] = [a - q * b for a, b in zip(row, top)]
        if not any(row[j] for row in m if row is not top):
            # column j holds p alone, so column operations touch only its row
            top[:] = [a % p for a in top]
            top[j] = p
            if top.count(0) == len(top) - 1:
                d.append(abs(p))
                del m[i]
        m = [row for row in m if any(row)]
    for a in range(len(d)):
        for b in range(a + 1, len(d)):
            g = gcd(d[a], d[b])
            d[a], d[b] = g, d[a] // g * d[b]
    return d


def _invariant_factors(columns: list) -> tuple:
    """Invariant factors, and the unit-pivot rows, of a sparse matrix of {row: value} columns.

    Low-pivot column reduction: while a column's lowest (largest) row owns a
    pivot, that pivot column is subtracted to clear it.  A column left with
    +-1 there becomes the pivot of its lowest row.  Unit-low columns are an
    echelon block with a unimodular pivot minor, so each adds a factor 1.
    Each other column is then cleared on every pivot row, highest first,
    which adds only lower rows, and the residual block, on rows that own no
    pivot, goes to :func:`smith_normal_form`.  Consumes ``columns``.
    """
    pivots, residual = {}, []
    for col in columns:
        while col:
            low = max(col)
            pivot = pivots.get(low)
            if pivot is None:
                if col[low] == 1 or col[low] == -1:
                    pivots[low] = col
                else:
                    residual.append(col)
                break
            _subtract(col, col[low] * pivot[low], pivot)
    for r in sorted(pivots, reverse=True):
        for col in residual:
            if r in col:
                _subtract(col, col[r] * pivots[r][r], pivots[r])
    rows = sorted({i for col in residual for i in col})
    block = [[col.get(i, 0) for col in residual] for i in rows]
    return [1] * len(pivots) + smith_normal_form(block), pivots.keys()


def _subtract(col: dict, q: int, pivot: dict) -> None:
    """col -= q * pivot, in place, dropping the zeros."""
    for i, v in pivot.items():
        w = col.get(i, 0) - q * v
        if w:
            col[i] = w
        else:
            del col[i]


# -- boundary maps on mask faces -----------------------------------------------


def _by_dim(faces) -> dict:
    """Faces by dimension, the empty face at -1."""
    by_dim = defaultdict(list)
    for s in faces:
        by_dim[s.bit_count() - 1].append(s)
    return by_dim


def _boundary(f: int) -> dict:
    """Face f's boundary as a {face: sign} column, signs alternating along ascending bits."""
    col, sign, rest = {}, 1, f
    while rest:
        low = rest & -rest
        col[f ^ low] = sign
        sign, rest = -sign, rest ^ low
    return col


# -- profiles ----------------------------------------------------------------


@dataclass(frozen=True)
class HomologyProfile:
    """Reduced Betti numbers and torsion coefficients per dimension.

    Indexed from -1 up to the complex dimension; queries outside the range
    return 0 / no torsion.  Torsion is stored as invariant factors > 1.
    """

    betti: dict
    torsion: dict

    def betti_at(self, k: int) -> int:
        return self.betti.get(k, 0)

    def torsion_at(self, k: int) -> tuple:
        return self.torsion.get(k, ())

    def is_trivial(self) -> bool:
        return all(v == 0 for v in self.betti.values()) and all(
            not t for t in self.torsion.values()
        )

    def is_wedge(self, wedge: dict) -> bool:
        """Is this the homology of a wedge of spheres exactly?  ``wedge`` maps
        a dimension to its multiplicity, as ``predicted_wedge`` gives it, and
        there must be no torsion; the empty wedge is the void class."""
        betti = {k: b for k, b in self.betti.items() if b}
        return betti == wedge and not any(self.torsion.values())

    def cohomology(self) -> "HomologyProfile":
        """Cohomology by universal coefficients: H^k = Hom(H_k, Z) + Ext(H_{k-1}, Z)."""
        torsion = {k: self.torsion_at(k - 1) for k in self.betti}
        return HomologyProfile(dict(self.betti), torsion)

    def to_json(self) -> dict:
        return {
            "betti": {str(k): self.betti[k] for k in sorted(self.betti)},
            "torsion": {str(k): list(self.torsion[k]) for k in sorted(self.torsion)},
        }


def dual_wedge(wedge: dict, ground_size: int) -> dict:
    """The wedge of the Alexander dual on a nonempty ground X of ground_size
    elements: a k-sphere becomes a (|X| - k - 3)-sphere, void stays void."""
    return {ground_size - k - 3: mult for k, mult in wedge.items()}


def cross_dim(wedge: dict) -> Optional[int]:
    """A strong grape's class: None for void, n for one (n-1)-sphere, the
    n-dimensional cross-polytope's boundary; InputError on another wedge."""
    if not wedge:
        return None
    if list(wedge.values()) != [1]:
        raise InputError(f"the wedge {wedge} is not one sphere")
    return min(wedge) + 1


def class_name(wedge: dict) -> str:
    """The report name of a strong grape's class, :func:`cross_dim` in words."""
    n = cross_dim(wedge)
    return "void" if n is None else f"cross-polytope-boundary({n})"


def _apex(c: Complex) -> int:
    """The vertex bit whose star is largest by the sum of 2^|F| over the
    facets F through it; the lowest bit on ties.  One pass over the facets."""
    weight = [0] * len(c.ground)
    for f in c.masks:
        w = 1 << f.bit_count()
        while f:
            low = f & -f
            weight[low.bit_length() - 1] += w
            f ^= low
    return 1 << weight.index(max(weight))


def _star_quotient_homology(c: Complex, v: int) -> HomologyProfile:
    """Reduced homology of c as that of the pair (del_v c, lk_v c), v a vertex bit.

    The cells are the faces s with v not in s and s + v not in c: the faces
    of the facets that miss v, less the faces of lk_v.  The complex spans
    |cells| + 2 |link faces| faces, refused past MAX_FACES as
    :func:`face_masks` refuses them.  A column is a cell's boundary less its
    rows in the star of v.  Top down, a cell that a unit pivot of the map
    above was taken on is no column of this map (clearing): those pivot
    columns are boundaries with +-1 on their low rows, triangular in pivot
    order, so a unimodular change of basis zeroes the cleared columns.
    """
    top = c.dim()
    bound_faces(1 << (top + 1))
    link = face_masks(f ^ v for f in c.masks if f & v)
    cells = face_masks(f for f in c.masks if not f & v)
    cells -= link
    bound_faces(len(cells) + 2 * len(link))
    by_dim = _by_dim(cells)
    factors = {top + 1: []}
    cleared = frozenset()
    for k in range(top, -1, -1):
        columns = [
            {t: e for t, e in _boundary(s).items() if t in cells}
            for s in by_dim[k]
            if s not in cleared
        ]
        factors[k], cleared = _invariant_factors(columns)
    betti, torsion = {}, {}
    for k in range(-1, top + 1):
        above = factors[k + 1]
        betti[k] = len(by_dim[k]) - len(factors.get(k, ())) - len(above)
        torsion[k] = tuple(d for d in above if d > 1)
    return HomologyProfile(betti, torsion)


def reduced_homology(c: Complex) -> HomologyProfile:
    """Reduced integral homology, dimensions -1 through dim(c).

    Computed on the quotient by the star of one vertex v, the one with the
    largest star (see :func:`_apex`): the star is a cone, so its augmented
    chain complex is acyclic, and the long exact sequence of the pair gives
    H~_k(c) = H_k(c, st v) = H_k(del_v c, lk_v c), torsion included.
    """
    if c.is_void:
        return HomologyProfile({}, {})
    if c.is_irrelevant:
        return HomologyProfile({-1: 1}, {-1: ()})
    return _star_quotient_homology(c, _apex(c))


def memo_homology(c: Complex, profiles: dict) -> HomologyProfile:
    """reduced_homology(c) read from, or filled into, profiles, a memo keyed
    by facet masks: homology reads only the faces, so a mask set is reduced
    once whatever its names.  A refusal of the size is kept and raised again."""
    if c.masks not in profiles:
        try:
            profiles[c.masks] = reduced_homology(c)
        except InputError as exc:
            profiles[c.masks] = exc
    if isinstance(profiles[c.masks], InputError):
        raise profiles[c.masks]
    return profiles[c.masks]


def reduced_cohomology(c: Complex) -> HomologyProfile:
    """Reduced integral cohomology, derived from homology by universal coefficients."""
    return reduced_homology(c).cohomology()
