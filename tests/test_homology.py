"""Homology/cohomology via Smith normal form, and the Alexander-duality harness on it."""

from collections import defaultdict
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

import grapes.complexes
import grapes.homology as homology

from grapes import (
    InputError,
    alexander_dual,
    dominance_complex,
    edge_cover_complex,
    edge_dominance_complex,
    enumerate_complexes,
    independence_complex,
    irrelevant_complex,
    new_complex,
    reduced_cohomology,
    reduced_homology,
    smith_normal_form,
    void_complex,
)
from grapes.generators import cycle_complex
from grapes.complexes import Complex, face_masks, mask_order, maximal_masks
from grapes.homology import HomologyProfile, _boundary, _by_dim, _invariant_factors
from grapes.verify import DEFAULT_SEED, SIZES, OutcomeTable, cad_report, standard_complexes, standard_forests
from shapes import cone, cross_polytope, cx, full_simplex, suspension


# the 6-vertex projective plane: 10 triangles, every edge in exactly two
RP2 = cx(
    "123456",
    "123", "124", "135", "146", "156", "236", "245", "256", "345", "346",
)


def rational_rank(matrix):
    """Oracle: Gaussian elimination over exact rationals."""
    m = [[Fraction(v) for v in row] for row in matrix]
    rank = 0
    cols = len(m[0]) if m else 0
    for j in range(cols):
        pivot = next((i for i in range(rank, len(m)) if m[i][j]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][j]
        m[rank] = [v * inv for v in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][j]:
                factor = m[i][j]
                m[i] = [a - factor * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


# -- the oracle: dense three-phase Smith normal form ---------------------------


def oracle_smith_normal_form(matrix):
    """Invariant factors by the three-phase reduction that Euclidean pivoting
    replaced: a least-magnitude pivot moves to the diagonal, its column and
    then its row are cleared, and a row with an entry the pivot does not
    divide is added to the pivot row until none is left."""
    m = [list(row) for row in matrix]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    factors = []
    t = 0
    while t < rows and t < cols:
        pivot = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                v = abs(m[i][j])
                if v and (best is None or v < best):
                    best, pivot = v, (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        m[t], m[pi] = m[pi], m[t]
        for row in m:
            row[t], row[pj] = row[pj], row[t]
        while True:
            # clear the pivot column
            for i in range(t + 1, rows):
                if m[i][t]:
                    q = m[i][t] // m[t][t]
                    for j in range(t, cols):
                        m[i][j] -= q * m[t][j]
                    if m[i][t]:
                        m[t], m[i] = m[i], m[t]
            if any(m[i][t] for i in range(t + 1, rows)):
                continue
            # clear the pivot row
            for j in range(t + 1, cols):
                if m[t][j]:
                    q = m[t][j] // m[t][t]
                    for i in range(t, rows):
                        m[i][j] -= q * m[i][t]
                    if m[t][j]:
                        for row in m:
                            row[t], row[j] = row[j], row[t]
            if any(m[t][j] for j in range(t + 1, cols)):
                continue
            # force divisibility of the remaining block by the pivot
            culprit = None
            d = m[t][t]
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if m[i][j] % d:
                        culprit = i
                        break
                if culprit is not None:
                    break
            if culprit is None:
                break
            for j in range(t, cols):
                m[t][j] += m[culprit][j]
        factors.append(abs(m[t][t]))
        t += 1
    return factors


def dense(columns, rows):
    """Rows-by-columns list matrix of sparse {row: value} columns."""
    at = {i: n for n, i in enumerate(rows)}
    matrix = [[0] * len(columns) for _ in rows]
    for j, col in enumerate(columns):
        for i, v in col.items():
            matrix[at[i]][j] = v
    return matrix


# -- the oracle: heap-driven elimination on unit pivots ------------------------


def oracle_invariant_factors(columns):
    """Invariant factors, and the unit-pivot rows, of sparse {row: value}
    columns, by the elimination that low-pivot reduction replaced: pivot on
    a unit of the shortest column, in the shortest row holding one, and
    update every other column of that row (a Schur step); the residual block
    goes to the three-phase oracle above.  Consumes ``columns``."""
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
    residual = dense(live, {i for col in live for i in col})
    return [1] * len(pivots) + oracle_smith_normal_form(residual), pivots


# -- the oracle: tuple faces, every column of every boundary map -------------


def faces_by_dim(c):
    """Faces by dimension (the empty face at -1) as ascending ground positions, sorted."""
    pos = {x: i for i, x in enumerate(c.ground)}
    faces = set()
    for facet in c.facets:
        items = sorted(pos[x] for x in facet)
        for k in range(len(items) + 1):
            faces.update(combinations(items, k))
    out = {}
    for face in sorted(faces):
        out.setdefault(len(face) - 1, []).append(face)
    return out


def tuple_columns(by_dim, k):
    """The boundary map from k-faces as sparse {row: sign} columns, rows in ground-order lex."""
    row = {face: i for i, face in enumerate(by_dim.get(k - 1, []))}
    return [
        {row[f[:p] + f[p + 1:]]: -1 if p % 2 else 1 for p in range(len(f))}
        for f in by_dim.get(k, [])
    ]


def boundary_matrix(c, k):
    """Matrix of the boundary map from k-faces to (k-1)-faces, on the masks.

    Rows are indexed by (k-1)-faces, columns by k-faces, both in ground
    order; signs alternate along each face's ground-ordered vertex list.
    The k = 0 row is the augmentation onto the empty face.
    """
    if k < -1 or k > c.dim():
        raise InputError(f"dimension {k} out of range for this complex")
    by_dim = _by_dim(face_masks(c.masks))
    rows, cols = (sorted(by_dim[j], key=mask_order, reverse=True) for j in (k - 1, k))
    return dense([_boundary(f) for f in cols], rows)


def oracle_boundary_matrix(c, k):
    by_dim = faces_by_dim(c)
    return dense(tuple_columns(by_dim, k), range(len(by_dim.get(k - 1, []))))


def oracle_reduced_homology(c):
    """Reduced homology from every column of every boundary map, no clearing,
    by the oracle elimination."""
    if c.is_void:
        return HomologyProfile({}, {})
    by_dim = faces_by_dim(c)
    top = c.dim()
    factors = {k: oracle_invariant_factors(tuple_columns(by_dim, k))[0] for k in range(top + 1)}
    betti = {}
    torsion = {}
    for k in range(-1, top + 1):
        below, above = factors.get(k, []), factors.get(k + 1, [])
        betti[k] = len(by_dim[k]) - len(below) - len(above)
        torsion[k] = tuple(d for d in above if d > 1)
    return HomologyProfile(betti, torsion)


# -- Smith normal form ------------------------------------------------------


def test_snf_known_matrix():
    assert smith_normal_form([[2, 4], [6, 8]]) == [2, 4]
    assert smith_normal_form([[1, 0], [0, 1]]) == [1, 1]
    assert smith_normal_form([[0, 0], [0, 0]]) == []
    assert smith_normal_form([]) == []
    # diagonal pivots 4 and 6 are not a chain until the gcd/lcm pass
    assert smith_normal_form([[6, 0], [0, 4]]) == [2, 12]
    # the unit pivot's row holds a 2 until a column operation clears it
    assert smith_normal_form([[2, 1], [0, 2]]) == [1, 4]


def test_snf_divisibility_chain():
    factors = smith_normal_form([[2, 0, 0], [0, 3, 0], [0, 0, 5]])
    assert factors == [1, 1, 30]
    for a, b in zip(factors, factors[1:]):
        assert b % a == 0


def test_snf_rank_matches_rational_rank():
    matrices = [
        [[2, 4], [6, 8]],
        [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
        [[0, 1], [1, 0], [1, 1]],
    ]
    for m in matrices:
        assert sum(1 for d in smith_normal_form(m) if d) == rational_rank(m)


@st.composite
def integer_matrices(draw):
    """Up to 6 x 6, with zero rows and columns, negative entries, and a
    composite scale so that factors such as 4, 6 and 12 occur."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    entries = draw(st.lists(st.integers(-9, 9), min_size=rows * cols, max_size=rows * cols))
    zero_rows = draw(st.sets(st.integers(0, 5), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, 5), max_size=2))
    scale = draw(st.sampled_from([1, -1, 2, 4, 6, 12]))
    return [
        [0 if i in zero_rows or j in zero_cols else scale * entries[i * cols + j] for j in range(cols)]
        for i in range(rows)
    ]


@settings(max_examples=300, deadline=None)
@given(integer_matrices())
@example([[0, 0, 0], [0, 4, 6], [0, 6, 9]])
def test_snf_matches_the_three_phase_oracle(matrix):
    factors = smith_normal_form(matrix)
    assert factors == oracle_smith_normal_form(matrix)
    assert all(b % a == 0 for a, b in zip(factors, factors[1:]))


# -- boundary matrices ---------------------------------------------------------


def test_edge_boundary_is_signed_column():
    assert boundary_matrix(cx("ab", "ab"), 1) == [[-1], [1]]


def test_augmentation_row():
    assert boundary_matrix(cx("ab", "a", "b"), 0) == [[1, 1]]


def test_boundary_composition_vanishes():
    square = cross_polytope(2)
    for k in range(0, square.dim() + 1):
        upper = boundary_matrix(square, k + 1) if k + 1 <= square.dim() else None
        if not upper:
            continue
        lower = boundary_matrix(square, k)
        composed = [
            [sum(lower[i][r] * upper[r][j] for r in range(len(upper))) for j in range(len(upper[0]))]
            for i in range(len(lower))
        ]
        assert all(v == 0 for row in composed for v in row)


def test_boundary_matrix_range_errors():
    c = cx("ab", "ab")
    with pytest.raises(InputError):
        boundary_matrix(c, 2)
    with pytest.raises(InputError):
        boundary_matrix(c, -2)


# -- homology profiles ------------------------------------------------------------


def test_irrelevant_has_unit_in_degree_minus_one():
    profile = reduced_homology(irrelevant_complex("abc"))
    assert profile.betti == {-1: 1}
    assert profile.is_trivial() is False


def test_void_has_all_groups_zero():
    profile = reduced_homology(void_complex("abc"))
    assert profile.is_trivial()
    assert profile.betti_at(-1) == 0


def test_four_cycle_is_a_circle():
    profile = reduced_homology(cross_polytope(2))
    assert profile.betti_at(1) == 1
    assert all(b == 0 for k, b in profile.betti.items() if k != 1)


def test_full_simplex_is_trivial():
    assert reduced_homology(full_simplex("abcd")).is_trivial()


def test_five_cycle_circle():
    profile = reduced_homology(cycle_complex(5))
    assert profile.betti_at(1) == 1 and profile.betti_at(0) == 0


def test_projective_plane_torsion():
    profile = reduced_homology(RP2)
    assert profile.betti_at(0) == 0
    assert profile.betti_at(1) == 0
    assert profile.betti_at(2) == 0
    assert profile.torsion_at(1) == (2,)
    assert profile.torsion_at(2) == ()


def test_projective_plane_leaves_a_two_for_the_dense_block():
    # nine unit pivots on the triangle boundaries, then the 2 behind
    # torsion_1 = cotorsion_2 = (2,) comes from the residual block
    factors, pivots = _invariant_factors(tuple_columns(faces_by_dim(RP2), 2))
    assert factors == [1] * 9 + [2]
    assert len(pivots) == 9


def test_residual_columns_are_cleared_on_the_pivot_rows_first():
    # [[1, 1], [0, 2]]: the first column is the pivot of row 0; the second,
    # whose low entry is 2, is cleared on row 0 and leaves the block [[2]];
    # sent to the dense SNF with its row-0 entry, it would give a 1 instead
    factors, pivots = _invariant_factors([{0: 1}, {0: 1, 1: 2}])
    assert factors == [1, 2] == smith_normal_form([[1, 1], [0, 2]])
    assert set(pivots) == {0}


def test_the_suspended_projective_plane_keeps_its_two_in_degree_two():
    # only unit pivots clear the map below: the 2-face at the low row of
    # the residual column of the boundary of 3-faces stays a column of the
    # boundary of 2-faces, and the residual block's 2 is the torsion
    profile = reduced_homology(suspension(RP2, "s", "n"))
    assert profile.torsion == {-1: (), 0: (), 1: (), 2: (2,), 3: ()}
    assert not any(profile.betti.values())


def test_two_projective_planes_on_one_vertex_leave_a_two_by_two_block(monkeypatch):
    # the wedge point is the apex; each plane's half of the star quotient
    # leaves a 2, so the dense block is diag(2, 2) and torsion_1 is (2, 2)
    copy = dict(zip("123456", ["1", "7", "8", "9", "10", "11"]))
    wedge = new_complex(
        [str(i) for i in range(1, 12)],
        [*RP2.facets, *(frozenset(copy[x] for x in f) for f in RP2.facets)],
    )
    blocks = []
    reduce = homology.smith_normal_form
    monkeypatch.setattr(homology, "smith_normal_form", lambda m: blocks.append(m) or reduce(m))
    profile = reduced_homology(wedge)
    assert [(len(m), len(m[0])) for m in blocks if m] == [(2, 2)]
    assert profile.torsion_at(1) == (2, 2)
    assert profile.betti == {-1: 0, 0: 0, 1: 0, 2: 0}
    assert profile == oracle_reduced_homology(wedge)


def sparse_factors_match_dense(c):
    by_dim = faces_by_dim(c)
    for k in range(-1, c.dim() + 1):
        matrix = boundary_matrix(c, k)
        want = oracle_smith_normal_form(matrix)
        assert smith_normal_form(matrix) == want, (c, k)
        assert oracle_invariant_factors(tuple_columns(by_dim, k))[0] == want, (c, k)
        assert _invariant_factors(tuple_columns(by_dim, k))[0] == want, (c, k)


def test_sparse_factors_match_dense_on_acceptance_instances():
    instances = standard_complexes(
        n_random=500, max_ground=6, exhaustive_max=4, seed=DEFAULT_SEED
    )
    for c in instances + [RP2, suspension(RP2, "s", "n")]:
        sparse_factors_match_dense(c)


def test_homology_matches_the_oracle_on_every_complex_on_five_elements():
    # every complex on fewer elements is one of these on a wider ground; the
    # star quotient is checked at every vertex, not only the one
    # reduced_homology picks
    for c in enumerate_complexes("abcde"):
        want = oracle_reduced_homology(c)
        assert reduced_homology(c) == want, c
        for v in range(5):
            if any(f >> v & 1 for f in c.masks):
                assert homology._star_quotient_homology(c, 1 << v) == want, (c, v)


def test_homology_matches_the_oracle_on_the_full_suite_complexes():
    full = SIZES["full"]
    instances = standard_complexes(
        full.n_random_complexes, full.max_ground, full.exhaustive_ground, DEFAULT_SEED
    )
    for c in instances + [RP2, suspension(RP2, "s", "n")]:
        assert reduced_homology(c) == oracle_reduced_homology(c), c


def test_homology_matches_the_oracle_on_forest_complexes_and_their_duals():
    full = SIZES["full"]
    builders = (independence_complex, dominance_complex, edge_cover_complex, edge_dominance_complex)
    for g in standard_forests(full.n_forests, full.max_tree, DEFAULT_SEED):
        for build in builders:
            c = build(g)
            for x in (c, alexander_dual(c)):
                assert reduced_homology(x) == oracle_reduced_homology(x), (g, build)


def test_boundary_matrix_matches_the_oracle():
    for n in range(5):
        for c in enumerate_complexes("abcd"[:n]):
            for k in range(-1, c.dim() + 1):
                assert boundary_matrix(c, k) == oracle_boundary_matrix(c, k), (c, k)
    for k in range(-1, 3):
        assert boundary_matrix(RP2, k) == oracle_boundary_matrix(RP2, k)


def columns_eliminated(monkeypatch, c):
    """Columns reduced_homology hands to elimination, by call, top dimension first."""
    handed = []
    reduce = homology._invariant_factors

    def counting(columns):
        handed.append(len(columns))
        return reduce(columns)

    monkeypatch.setattr(homology, "_invariant_factors", counting)
    reduced_homology(c)
    return handed


def test_elimination_gets_only_the_star_quotients_uncleared_cells(monkeypatch):
    # the boundary of the simplex on 12 vertices: past the star of v0, the
    # one cell left is the facet opposite v0, whose boundary lies in the star
    simplex = new_complex(
        [f"v{i}" for i in range(12)],
        [frozenset(f"v{j}" for j in range(12) if j != i) for i in range(12)],
    )
    assert columns_eliminated(monkeypatch, simplex) == [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
    assert reduced_homology(simplex).is_wedge({10: 1})
    # the boundary of the 4-dimensional cross-polytope: past the star of one
    # vertex, 8, 12, 6, 1 cells of dimension 3, 2, 1, 0, and clearing drops
    # the 7, 5, 1 that the map above paired
    assert columns_eliminated(monkeypatch, cross_polytope(4)) == [8, 5, 1, 0]


def test_the_star_quotient_matches_the_oracle_at_every_vertex():
    # every choice of v, not only the one reduced_homology makes
    for c in [RP2, suspension(RP2, "s", "n"), cone(RP2, "a")]:
        want = oracle_reduced_homology(c)
        for v in range(len(c.ground)):
            if any(f >> v & 1 for f in c.masks):
                assert homology._star_quotient_homology(c, 1 << v) == want, (c, v)


def test_the_apex_has_the_largest_star_and_the_lowest_bit_on_ties():
    # a and c weigh 2^3 + 2^2, b 2^3 and d 2^2 + 2^2
    assert homology._apex(cx("abcd", "abc", "ad", "cd")) == 0b001
    assert homology._apex(cx("abcd", "b", "cd")) == 0b100
    assert homology._apex(cross_polytope(3)) == 0b1


def per_bit_apex(c):
    """Oracle: _apex as it was, one pass over the facets per ground bit."""
    weight = [sum(1 << f.bit_count() for f in c.masks if f >> i & 1) for i in range(len(c.ground))]
    return 1 << weight.index(max(weight))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=2**8 - 1), min_size=1, max_size=30))
def test_the_apex_matches_the_per_bit_scan(masks):
    c = Complex(tuple("abcdefgh"), maximal_masks(masks))
    assert homology._apex(c) == per_bit_apex(c)


def test_face_enumeration_is_bounded_before_it_starts(monkeypatch):
    huge = new_complex([f"x{i}" for i in range(40)], [frozenset(f"x{i}" for i in range(40))])
    with pytest.raises(InputError, match="faces"):
        reduced_homology(huge)
    with pytest.raises(InputError, match="faces"):
        boundary_matrix(huge, 1)
    # the bound counts distinct faces, the empty face included: a triangle
    # spans 8 faces, the triangles abc and bcd 12 (their shared edge bc, its
    # vertices and the empty face count once)
    monkeypatch.setattr(grapes.complexes, "MAX_FACES", 8)
    assert reduced_homology(full_simplex("abc")).is_trivial()
    with pytest.raises(InputError, match="faces"):
        reduced_homology(cx("abcd", "abc", "bcd"))
    monkeypatch.setattr(grapes.complexes, "MAX_FACES", 12)
    assert reduced_homology(cx("abcd", "abc", "bcd")).is_trivial()
    # abc, bcd and de around the apex b: the link's 6 faces (empty, a, c, d,
    # ac, cd) and the far facet de's 4 are each under the bound, but the
    # total, 2 cells (e, de) plus twice the link's faces, is 14
    three = cx("abcde", "abc", "bcd", "de")
    assert homology._apex(three) == 0b10
    for bound in (12, 13):
        monkeypatch.setattr(grapes.complexes, "MAX_FACES", bound)
        with pytest.raises(InputError, match="faces"):
            reduced_homology(three)
    monkeypatch.setattr(grapes.complexes, "MAX_FACES", 14)
    assert reduced_homology(three).is_trivial()
    # one facet over the bound is refused before any face is enumerated:
    # face_masks is never called
    monkeypatch.setattr(grapes.complexes, "MAX_FACES", 15)
    monkeypatch.setattr(homology, "face_masks", None)
    with pytest.raises(InputError, match="faces"):
        reduced_homology(cx("abcde", "abcd", "de"))


def test_cohomology_of_four_cycle():
    profile = reduced_cohomology(cross_polytope(2))
    assert profile.betti_at(1) == 1


def test_cohomology_of_irrelevant():
    assert reduced_cohomology(irrelevant_complex("ab")).betti_at(-1) == 1


def test_cohomology_equals_homology_without_torsion():
    for c in (cycle_complex(6), cross_polytope(2), cx("abcd", "abc", "bd")):
        h = reduced_homology(c)
        ch = reduced_cohomology(c)
        assert h.betti == ch.betti


def test_projective_plane_cohomology_torsion_shifts_up():
    # universal coefficients: torsion of H_1 shows up in H^2
    profile = reduced_cohomology(RP2)
    assert profile.betti_at(2) == 0
    assert profile.torsion_at(2) == (2,)
    assert profile.torsion_at(1) == ()


def test_suspension_shifts_betti():
    for c in (cycle_complex(5), cx("ab", "a", "b"), RP2):
        susp = suspension(c, "zz1", "zz2")
        before = reduced_homology(c)
        after = reduced_homology(susp)
        for k in range(-1, c.dim() + 1):
            assert after.betti_at(k + 1) == before.betti_at(k)


# -- wedge matching -----------------------------------------------------------------


def test_matches_wedge_examples():
    point = cx("v", "v")
    square = cross_polytope(2)
    two_triangles = cx("abcde", "ab", "bc", "ca", "cd", "de", "ec")  # sharing c
    assert reduced_homology(point).is_wedge({})
    assert reduced_homology(square).is_wedge({1: 1})
    assert reduced_homology(two_triangles).is_wedge({1: 2})
    assert reduced_homology(irrelevant_complex("ab")).is_wedge({-1: 1})
    # RP2 has no free homology, but Z/2 in degree 1
    assert not reduced_homology(RP2).is_wedge({})
    # an extra sphere, in the same degree or another
    assert not reduced_homology(square).is_wedge({1: 2})
    assert not reduced_homology(square).is_wedge({0: 1, 1: 1})
    assert not reduced_homology(two_triangles).is_wedge({1: 1})
    # the right sphere in a shifted degree
    assert not reduced_homology(square).is_wedge({0: 1})
    assert not reduced_homology(square).is_wedge({2: 1})
    # void against irrelevant, both ways
    assert not reduced_homology(irrelevant_complex("ab")).is_wedge({})
    assert not reduced_homology(void_complex("ab")).is_wedge({-1: 1})
    assert reduced_homology(void_complex("ab")).is_wedge({})


def suspend(wedge):
    """Suspension of a wedge of spheres: every sphere's dimension goes up by one."""
    return {k + 1: mult for k, mult in wedge.items()}


def test_suspension_suspends_the_class():
    assert suspend({}) == {}
    assert suspend({0: 1}) == {1: 1}
    cases = [(cx("v", "v"), {}), (irrelevant_complex("ab"), {-1: 1}),
             (cross_polytope(2), {1: 1}), (cx("abc", "a", "b", "c"), {0: 2})]
    for c, wedge in cases:
        susp = reduced_homology(suspension(c, "n", "s"))
        assert reduced_homology(c).is_wedge(wedge)
        assert susp.is_wedge(suspend(wedge))
        assert not wedge or not susp.is_wedge(wedge)


def test_class_name_is_void_or_a_cross_polytope_boundary():
    assert homology.class_name({}) == "void"
    assert homology.class_name({-1: 1}) == "cross-polytope-boundary(0)"
    assert homology.class_name({2: 1}) == "cross-polytope-boundary(3)"
    assert [homology.cross_dim(w) for w in ({}, {-1: 1}, {2: 1})] == [None, 0, 3]
    for wedge in ({1: 2}, {0: 1, 1: 1}, {-1: 1, 3: 1}):
        for name_or_dim in (homology.cross_dim, homology.class_name):
            with pytest.raises(InputError, match="not one sphere"):
                name_or_dim(wedge)


def test_dual_wedge_shifts_every_sphere():
    assert homology.dual_wedge({}, 3) == {}
    assert homology.dual_wedge({0: 1}, 2) == {-1: 1}
    assert homology.dual_wedge({-1: 1, 0: 2, 2: 1}, 7) == {5: 1, 4: 2, 2: 1}
    # against the dual's own homology: three points, a triangle's boundary
    # beside a point, and two circles sharing a vertex, the last two on a
    # ground with unused elements
    cases = [(cx("abc", "a", "b", "c"), {0: 2}),
             (cx("abcde", "ab", "bc", "ac", "d"), {0: 1, 1: 1}),
             (cx("abcdefg", "ab", "bc", "ac", "ad", "de", "ae"), {1: 2})]
    for c, wedge in cases:
        assert reduced_homology(c).is_wedge(wedge)
        shifted = homology.dual_wedge(wedge, len(c.ground))
        assert reduced_homology(alexander_dual(c)).is_wedge(shifted)


# -- Alexander duality in (co)homology ----------------------------------------------


def duality_check(c):
    """The Alexander-duality report of c, on a table of its own."""
    return cad_report(c, OutcomeTable())


def test_duality_check_two_points():
    # betti_0 of the 0-sphere pairs with cobetti_{-1} of the irrelevant dual
    assert duality_check(cx("ab", "a", "b")).status == "pass"


def test_duality_check_void_and_full():
    assert duality_check(void_complex("abc")).status == "pass"
    assert duality_check(full_simplex("abc")).status == "pass"


def test_duality_check_five_cycle():
    assert duality_check(cycle_complex(5)).status == "pass"


def test_duality_check_torsion_case():
    assert duality_check(RP2).status == "pass"


def test_duality_check_degenerate_empty_ground():
    # on the empty ground set the index map has nowhere to land: the
    # irrelevant complex has a unit in degree -1 but its dual is void,
    # and the mirrored failure shows up for the void complex at -2
    report = duality_check(irrelevant_complex(""))
    assert report.status == "fail" and not report.observed["pass"]
    assert report.observed["index"] == -1
    report = duality_check(void_complex(""))
    assert report.status == "fail" and not report.observed["pass"]
    assert report.observed["index"] == -2


def test_homology_invariant_under_ground_extension_and_relabel():
    c = cycle_complex(4)
    widened = Complex(c.ground + ("pad1", "pad2"), c.masks)
    assert reduced_homology(widened).betti == reduced_homology(c).betti
    relabeled = cx(
        "wxyz",
        *("".join("wxyz"["abcd".index(ch)] for ch in pair) for pair in ("ab", "bc", "cd", "da")),
    )
    assert reduced_homology(relabeled).betti == reduced_homology(c).betti
