"""Property-based tests for the engine's structural invariants."""

import string
from fractions import Fraction
from itertools import combinations

from hypothesis import given, settings, strategies as st

from grapes import (
    GrapeVariant,
    alexander_dual,
    check_grape,
    classify_strong,
    collapse_search,
    cone_over,
    deletion,
    equals,
    join,
    lifted_collapse,
    link,
    matches_wedge,
    minimal_nonfaces,
    new_complex,
    predicted_wedge,
    reduced_homology,
    replay,
    restrict_ground,
    smith_normal_form,
    suspension,
    verify_certificate,
)
from grapes.homology import _invariant_factors
from test_complexes import cone_apexes, has_face, is_subcomplex, maximal_deletion
from test_homology import boundary_matrix, faces_by_dim, oracle_reduced_homology, tuple_columns

SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def small_complexes(draw, max_ground=5):
    n = draw(st.integers(min_value=0, max_value=max_ground))
    ground = string.ascii_lowercase[:n]
    if n == 0:
        return new_complex(ground, draw(st.sampled_from([(), (frozenset(),)])))
    subsets = [
        frozenset(c) for k in range(n + 1) for c in combinations(ground, k)
    ]
    gens = draw(st.lists(st.sampled_from(subsets), max_size=8))
    return new_complex(ground, gens)


@st.composite
def complexes_with_element(draw, max_ground=5):
    c = draw(small_complexes(max_ground).filter(lambda c: len(c.ground) > 0))
    x = draw(st.sampled_from(c.ground))
    return c, x


def is_antichain(facets):
    return not any(a < b for a in facets for b in facets)


# -- complex invariants -------------------------------------------------------


@SETTINGS
@given(complexes_with_element())
def test_antichain_preserved_by_operations(pair):
    c, x = pair
    for result in (
        deletion(c, x),
        link(c, x),
        alexander_dual(c),
        restrict_ground(c),
        suspension(c, "X", "Y"),
    ):
        assert is_antichain(result.facets)


@SETTINGS
@given(complexes_with_element(max_ground=6))
def test_deletion_matches_the_maximal_oracle(pair):
    c, x = pair
    assert deletion(c, x) == maximal_deletion(c, x)


@SETTINGS
@given(complexes_with_element())
def test_cone_link_deletion_decomposition(pair):
    """The complex is the cone over its link glued to its deletion along the link."""
    c, x = pair
    lk, dl = link(c, x), deletion(c, x)
    cone_faces = {f | s for f in lk.faces() for s in ({x},)} | set(lk.faces())
    if lk.is_void:
        cone_faces = set()
    union = cone_faces | set(dl.faces())
    intersection = cone_faces & set(dl.faces())
    assert union == set(c.faces())
    assert intersection == set(lk.faces())


@SETTINGS
@given(small_complexes())
def test_double_dual_is_identity(c):
    assert equals(alexander_dual(alexander_dual(c)), c)


@SETTINGS
@given(small_complexes())
def test_dual_reverses_inclusions(c):
    # drop one facet to get a subcomplex, then compare duals
    if not c.facets:
        return
    smaller = new_complex(c.ground, list(c.facets)[1:])
    assert is_subcomplex(smaller, c)
    assert is_subcomplex(alexander_dual(c), alexander_dual(smaller))


@SETTINGS
@given(small_complexes(max_ground=4))
def test_dual_of_cone_is_cone_with_same_apex(c):
    apex = "z"
    cone = cone_over(c, apex)
    if cone.is_void:
        return
    dual = alexander_dual(cone)
    if equals(cone, new_complex(cone.ground, [frozenset(cone.ground)])):
        # the full simplex is the one cone whose dual (the void complex)
        # has no apex to inherit
        assert dual.is_void
    else:
        assert apex in cone_apexes(dual)


@SETTINGS
@given(complexes_with_element())
def test_deletion_link_duality(pair):
    c, a = pair
    dual = alexander_dual(c)
    assert equals(alexander_dual(deletion(c, a)), link(dual, a))
    assert equals(alexander_dual(link(c, a)), deletion(dual, a))


@SETTINGS
@given(complexes_with_element())
def test_nonvertex_detection_via_dual(pair):
    c, x = pair
    full_minus_x = frozenset(c.ground) - {x}
    assert (x not in c.vertices()) == has_face(alexander_dual(c), full_minus_x)


@SETTINGS
@given(small_complexes(max_ground=3), small_complexes(max_ground=3), small_complexes(max_ground=3))
def test_join_is_associative_and_commutative(a, b, c):
    ground = string.ascii_lowercase[:3]
    a, b, c = (
        new_complex(ground, x.facets) for x in (a, b, c)
    )
    assert equals(join(a, b), join(b, a))
    assert equals(join(join(a, b), c), join(a, join(b, c)))


@SETTINGS
@given(small_complexes())
def test_minimal_nonfaces_are_nonfaces_with_face_boundaries(c):
    for m in minimal_nonfaces(c):
        assert not has_face(c, m)
        assert all(has_face(c, m - {x}) for x in m)


# -- collapse invariants ----------------------------------------------------------


@SETTINGS
@given(small_complexes())
def test_yes_collapse_verdicts_replay(c):
    result = collapse_search(c)
    if result.is_yes:
        assert replay(c, result.sequence).is_void
        assert reduced_homology(c).is_trivial()


@SETTINGS
@given(complexes_with_element())
def test_collapsible_link_lifts_to_deletion_collapse(pair):
    c, a = pair
    result = collapse_search(link(c, a))
    if result.is_yes:
        lifted = lifted_collapse(c, a, result.sequence)
        assert replay(c, lifted).facets == deletion(c, a).facets


@SETTINGS
@given(small_complexes(max_ground=4))
def test_suspension_betti_shift(c):
    susp = suspension(c, "y1", "y2")
    before = reduced_homology(c)
    after = reduced_homology(susp)
    for k in range(-1, max(c.dim(), 0) + 1):
        assert after.betti_at(k + 1) == before.betti_at(k)


# -- homology invariants --------------------------------------------------------------


def rational_rank(matrix):
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
                m[i] = [p - factor * q for p, q in zip(m[i], m[rank])]
        rank += 1
    return rank


@SETTINGS
@given(small_complexes())
def test_boundary_squares_to_zero(c):
    for k in range(0, c.dim() + 1):
        lower = boundary_matrix(c, k)
        upper = boundary_matrix(c, k + 1) if k + 1 <= c.dim() else []
        if not upper or not lower:
            continue
        for i in range(len(lower)):
            for j in range(len(upper[0])):
                assert sum(lower[i][r] * upper[r][j] for r in range(len(upper))) == 0


@SETTINGS
@given(small_complexes(max_ground=6))
def test_sparse_factors_match_dense_on_boundaries(c):
    by_dim = faces_by_dim(c)
    for k in range(-1, c.dim() + 1):
        assert _invariant_factors(tuple_columns(by_dim, k))[0] == smith_normal_form(
            boundary_matrix(c, k)
        )


@SETTINGS
@given(st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4), max_size=5))
def test_sparse_factors_match_dense_on_integer_matrices(matrix):
    # entries beyond +-1 leave a residual block for the dense reduction
    columns = [{i: row[j] for i, row in enumerate(matrix) if row[j]} for j in range(4)]
    factors, pivots = _invariant_factors(columns)
    assert factors == smith_normal_form(matrix)
    # each unit pivot row contributes one of the 1s
    assert len(pivots) <= factors.count(1)
    assert all(0 <= r < len(matrix) for r in pivots)


@SETTINGS
@given(small_complexes(max_ground=7))
def test_homology_matches_the_oracle(c):
    # mask faces with clearing against tuple faces with every column
    assert reduced_homology(c) == oracle_reduced_homology(c)


@SETTINGS
@given(small_complexes())
def test_snf_rank_equals_rational_rank_on_boundaries(c):
    for k in range(-1, c.dim() + 1):
        m = boundary_matrix(c, k)
        if m and m[0]:
            assert sum(1 for d in smith_normal_form(m) if d) == rational_rank(m)


@SETTINGS
@given(small_complexes())
def test_homology_invariant_under_relabeling(c):
    mapping = {x: f"r{i}" for i, x in enumerate(reversed(c.ground))}
    relabeled = new_complex(
        [mapping[x] for x in c.ground],
        [frozenset(mapping[x] for x in f) for f in c.facets],
    )
    assert reduced_homology(relabeled).betti == reduced_homology(c).betti
    assert reduced_homology(restrict_ground(c)).betti == reduced_homology(c).betti


# -- grape invariants --------------------------------------------------------------------


@SETTINGS
@given(small_complexes(max_ground=4))
def test_certificates_replay_and_classes_match_homology(c):
    for variant in GrapeVariant:
        verdict = check_grape(c, variant)
        if verdict.is_yes:
            verify_certificate(c, variant, verdict.certificate)
    strong = check_grape(c, GrapeVariant.STRONG)
    if strong.is_yes:
        assert matches_wedge(c, classify_strong(strong.certificate).wedge)


@SETTINGS
@given(small_complexes(max_ground=4))
def test_grape_hierarchy(c):
    strong = check_grape(c, GrapeVariant.STRONG).verdict
    comb = check_grape(c, GrapeVariant.COMBINATORIAL).verdict
    weak = check_grape(c, GrapeVariant.WEAK).verdict
    strong_weak = check_grape(c, GrapeVariant.STRONG_WEAK).verdict
    if strong == "yes":
        assert comb == "yes"
        assert strong_weak in ("yes", "unknown")
    if comb == "yes":
        assert weak in ("yes", "unknown")


@SETTINGS
@given(small_complexes(max_ground=4))
def test_verdicts_survive_ground_restriction(c):
    r = restrict_ground(c)
    for variant in GrapeVariant:
        assert check_grape(c, variant).verdict == check_grape(r, variant).verdict


@SETTINGS
@given(small_complexes(max_ground=4))
def test_wedge_prediction_matches_betti(c):
    # every variant's witness makes the link null-homotopic in the deletion,
    # so the split gives the wedge and a grape's reduced homology is free
    for variant in GrapeVariant:
        verdict = check_grape(c, variant)
        if verdict.is_yes:
            assert matches_wedge(c, predicted_wedge(verdict.certificate)), variant
