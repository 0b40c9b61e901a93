"""Reduced integral simplicial homology and cohomology via Smith normal form.

The chain complex is augmented: the empty face spans the chain group in
dimension -1, so the irrelevant complex has one unit of homology there and
the void complex (no faces at all) has all groups zero.  Faces are int masks
over the ground, submasks of the facets.  Homology is taken of the quotient
by the star of one vertex, an acyclic cone, which leaves the cells of the
pair (deletion, link); its sparse boundary maps are reduced top down with
clearing, and on unit pivots before any dense Smith reduction.
Cohomology follows from homology by universal coefficients.

All arithmetic is exact over Python integers.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from math import gcd
from typing import Optional

from .complexes import Complex, InputError, alexander_dual, face_masks


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

    Pivots on entries of absolute value 1 (shortest column first, then the
    shortest row with a unit in it) are unimodular and each contribute a 1;
    the residual block goes to :func:`smith_normal_form`.  Consumes ``columns``.
    """
    rows = defaultdict(set)
    for j, col in enumerate(columns):
        for i in col:
            rows[i].add(j)
    heap = [(len(col), j) for j, col in enumerate(columns)]
    heapify(heap)
    pivots = set()
    while heap:
        size, p = heappop(heap)
        col = columns[p]
        if col is None or len(col) != size:
            continue  # eliminated, or changed since this entry was pushed
        unit_rows = [i for i, v in col.items() if v == 1 or v == -1]
        if not unit_rows:
            continue  # pushed again if a later pivot changes it
        r = min(unit_rows, key=lambda i: (len(rows[i]), i))
        columns[p] = None
        for i in col:
            rows[i].discard(p)
        a = col.pop(r)
        for j in rows.pop(r):
            other = columns[j]
            q = other.pop(r) * a  # a = 1/a for a unit
            for i, v in col.items():
                w = other.get(i, 0) - q * v
                if w:
                    other[i] = w
                    rows[i].add(j)
                else:
                    del other[i]
                    rows[i].discard(j)
            heappush(heap, (len(other), j))
        pivots.add(r)
    live = [col for col in columns if col]
    at = {i: n for n, i in enumerate({i for col in live for i in col})}
    residual = [[0] * len(live) for _ in at]
    for j, col in enumerate(live):
        for i, v in col.items():
            residual[at[i]][j] = v
    return [1] * len(pivots) + smith_normal_form(residual), pivots


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

    def cohomology(self) -> "HomologyProfile":
        """Cohomology by universal coefficients: H^k = Hom(H_k, Z) + Ext(H_{k-1}, Z)."""
        torsion = {k: self.torsion_at(k - 1) for k in self.betti}
        return HomologyProfile(dict(self.betti), torsion)

    def to_json(self) -> dict:
        return {
            "betti": {str(k): self.betti[k] for k in sorted(self.betti)},
            "torsion": {str(k): list(self.torsion[k]) for k in sorted(self.torsion)},
        }


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

    The cells are the faces s with v not in s and s + v not in c, and a
    column is s's boundary less its rows in the star of v.  Top down, a cell
    that a unit pivot of the map above was taken on is no column of this map
    (clearing): those pivot columns are boundaries with +-1 on their rows,
    triangular in pivot order, so a unimodular change of basis zeroes the
    cleared columns of this map.
    """
    faces = face_masks(c.masks)
    cells = {s for s in faces if not s & v and s | v not in faces}
    by_dim = _by_dim(cells)
    factors = {c.dim() + 1: []}
    cleared = frozenset()
    for k in range(c.dim(), -1, -1):
        columns = [
            {t: e for t, e in _boundary(s).items() if t in cells}
            for s in by_dim[k]
            if s not in cleared
        ]
        factors[k], cleared = _invariant_factors(columns)
    betti, torsion = {}, {}
    for k in range(-1, c.dim() + 1):
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


def reduced_cohomology(c: Complex) -> HomologyProfile:
    """Reduced integral cohomology, derived from homology by universal coefficients."""
    return reduced_homology(c).cohomology()


# -- simple-homotopy classes -------------------------------------------------


@dataclass(frozen=True)
class SHClass:
    """Simple-homotopy class: void, or the boundary of a cross-polytope.

    ``cross_dim`` is None for the void class; n >= 0 names the boundary of
    the n-dimensional cross-polytope (n = 0 is the irrelevant complex, the
    (-1)-sphere).
    """

    cross_dim: Optional[int] = None

    def __post_init__(self) -> None:
        if self.cross_dim is not None and self.cross_dim < 0:
            raise InputError("cross-polytope dimension must be >= 0")

    @property
    def is_void_class(self) -> bool:
        return self.cross_dim is None

    def dual_expected(self, ground_size: int) -> "SHClass":
        """Class of the Alexander dual predicted by duality (needs |X| > 0)."""
        if ground_size <= 0:
            raise InputError("dual class prediction needs a nonempty ground set")
        if self.cross_dim is None:
            return self
        return SHClass(ground_size - self.cross_dim - 1)

    def __str__(self) -> str:
        if self.cross_dim is None:
            return "void"
        return f"cross-polytope-boundary({self.cross_dim})"

    def to_json(self) -> dict:
        if self.cross_dim is None:
            return {"class": "void"}
        return {"class": "cross-polytope-boundary", "n": self.cross_dim}


VOID_CLASS = SHClass(None)


def matches_sphere(c: Complex, cls: SHClass) -> bool:
    """Does the reduced homology of c match the claimed class exactly?

    Void class: all groups zero.  Cross-polytope boundary of dimension n:
    one free unit in degree n - 1, nothing else, no torsion.
    """
    profile = reduced_homology(c)
    if cls.is_void_class:
        return profile.is_trivial()
    want = cls.cross_dim - 1
    for k, b in profile.betti.items():
        if b != (1 if k == want else 0):
            return False
    if profile.betti_at(want) != 1:
        return False
    return all(not t for t in profile.torsion.values())


# -- duality check -----------------------------------------------------------


def check_alexander_duality(c: Complex) -> dict:
    """Compare homology of c against cohomology of its Alexander dual.

    Verifies betti_i(c) = cobetti_{|X|-i-3}(dual) with matching torsion, over
    every index where either side could be nonzero.  The two sides come from
    separate reductions of two different complexes; the dual's cohomology is
    derived from its homology by universal coefficients.
    """
    dual = alexander_dual(c)
    n = len(c.ground)
    h_c = reduced_homology(c)
    ch_d = reduced_homology(dual).cohomology()
    for i in range(-2, n + 1):
        j = n - i - 3
        checks = [
            ("homology vs dual cohomology", h_c.betti_at(i), ch_d.betti_at(j)),
            (
                "torsion vs dual torsion",
                sorted(h_c.torsion_at(i)),
                sorted(ch_d.torsion_at(j)),
            ),
        ]
        for label, left, right in checks:
            if left != right:
                return {
                    "pass": False,
                    "ground_size": n,
                    "index": i,
                    "dual_index": j,
                    "which": label,
                    "left": left,
                    "right": right,
                }
    return {"pass": True, "ground_size": n}
