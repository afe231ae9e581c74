"""Reduced homology: boundary matrices, integral vs field routes, scans."""

from itertools import combinations

import pytest
from hypothesis import assume, given, strategies as st

from oracles import (
    close_faces,
    oracle_boundary,
    oracle_field_betti,
    oracle_integral_homology,
)
from srcox import complex_core
from srcox.complex_core import (
    SimplicialComplex,
    face_closure,
    gen_boundary_simplex,
    gen_cross_polytope,
    gen_cycle,
    gen_random_flag,
    gen_rp2_six,
    gen_simplex,
    mask_of,
    bits_of,
)
from srcox import homology
from srcox.errors import DomainError, PropertyViolation, ResourceError
from srcox.exact_linalg import SnfResult
from srcox.homology import (
    _faces_by_dim,
    boundary_matrix,
    entry_coh_degrees,
    entry_field_dim,
    facet_nerve,
    integral_subset_scan,
    parse_coeff,
    profile_from_facets,
    reduced_homology,
    scan_torsion_primes,
)
from srcox.sr_invariants import link_candidates, regularity

random_flags = st.builds(
    gen_random_flag,
    st.integers(4, 7),
    st.floats(0.15, 0.9),
    st.integers(0, 10 ** 6))


def oracle_facets(cpx):
    return [tuple(bits_of(m)) for m in cpx.facets]


def test_parse_coeff():
    assert parse_coeff("q") == "q"
    assert parse_coeff("z") == "z"
    assert parse_coeff("f2") == 2
    assert parse_coeff("f97") == 97
    assert parse_coeff(5) == 5
    for bad in ("f4", "f1", "f0", "r", "f561"):
        with pytest.raises(DomainError):
            parse_coeff(bad)


@given(random_flags, st.integers(-1, 3))
def test_boundary_matches_reference(cpx, r):
    levels = _faces_by_dim(cpx.faces())
    got = boundary_matrix(levels, r)
    want = oracle_boundary(close_faces(oracle_facets(cpx)), r)
    assert got == want


@given(random_flags)
def test_boundary_squares_to_zero(cpx):
    levels = _faces_by_dim(cpx.faces())
    for r in range(0, (cpx.dim or 0) + 1):
        a = boundary_matrix(levels, r)
        b = boundary_matrix(levels, r + 1)
        for row in a:
            for col in zip(*b):
                assert sum(x * y for x, y in zip(row, col)) == 0


def test_circle_homology(pentagon):
    prof = reduced_homology(pentagon, "z")
    assert prof.rank_at(1) == 1 and prof.rank_at(0) == 0
    assert prof.torsion_primes() == ()
    assert reduced_homology(pentagon, "q").nonzero_degrees() == (1,)
    assert reduced_homology(pentagon, "f2").rank_at(1) == 1


def test_cohomology_degrees_take_coefficient_codes(rp2):
    integral = reduced_homology(rp2, "z")
    field = reduced_homology(rp2, "f2")
    for prof in (integral, field):
        assert prof.cohomology_nonzero_degrees("f2") == \
            prof.cohomology_nonzero_degrees(2) == (1, 2)
    # H^2(RP^2; Z) = Z/2, which Q does not see
    assert integral.cohomology_nonzero_degrees("Z") == \
        integral.cohomology_nonzero_degrees() == (2,)
    assert integral.cohomology_nonzero_degrees("q") == ()
    with pytest.raises(DomainError):
        field.cohomology_nonzero_degrees("f3")


def test_projective_plane_torsion(rp2):
    prof = reduced_homology(rp2, "z")
    assert prof.rank_at(1) == 0 and prof.torsion_at(1) == (2,)
    assert prof.rank_at(2) == 0 and prof.torsion_at(2) == ()
    assert prof.torsion_primes() == (2,)
    # over F_2 both H_1 and H_2 appear, over Q neither
    assert reduced_homology(rp2, "f2").nonzero_degrees() == (1, 2)
    assert reduced_homology(rp2, "q").is_trivial()
    # Z-cohomology sees the torsion one degree up
    assert prof.cohomology_nonzero_degrees("z") == (2,)


def test_sphere_homology(octahedron):
    prof = reduced_homology(octahedron, "z")
    assert prof.rank_at(2) == 1 and prof.torsion_primes() == ()
    assert reduced_homology(gen_simplex(4), "z").is_trivial()


def test_empty_face_only_profile():
    empt = SimplicialComplex(0, [0])
    prof = reduced_homology(empt, "z")
    assert prof.rank_at(-1) == 1
    assert prof.nonzero_degrees() == (-1,)
    void = SimplicialComplex(0, [])
    assert reduced_homology(void, "z").is_trivial()


@given(random_flags)
def test_integral_matches_reference(cpx):
    want = oracle_integral_homology(oracle_facets(cpx))
    prof = reduced_homology(cpx, "z")
    for d, (r, tors) in want.items():
        assert prof.rank_at(d) == r
        assert list(prof.torsion_at(d)) == tors


@given(random_flags, st.sampled_from(["q", "f2", "f3"]))
def test_field_route_matches_reference(cpx, coeff):
    p = 0 if coeff == "q" else int(coeff[1:])
    want = oracle_field_betti(oracle_facets(cpx), p)
    prof = reduced_homology(cpx, coeff)
    for d, dim in want.items():
        assert prof.rank_at(d) == dim


@given(random_flags, st.sampled_from([2, 3, 5]))
def test_universal_coefficients(cpx, p):
    # field dims are determined by integral ranks and p-torsion; the two
    # routes are computed independently so this cross-validates both
    zprof = reduced_homology(cpx, "z")
    fprof = reduced_homology(cpx, f"f{p}")
    for d in range(-1, (cpx.dim or 0) + 1):
        tp = sum(1 for t in zprof.torsion_at(d) if t % p == 0)
        tp_prev = sum(1 for t in zprof.torsion_at(d - 1) if t % p == 0)
        assert fprof.rank_at(d) == zprof.rank_at(d) + tp + tp_prev


def test_cone_is_acyclic():
    cone = SimplicialComplex.from_facets(
        [["x", "a", "b"], ["x", "b", "c"], ["x", "c", "a"]])
    assert reduced_homology(cone, "z").is_trivial()
    assert profile_from_facets(list(cone.facets)) == ()


def test_profile_entry_helpers(rp2):
    entry = profile_from_facets(list(rp2.facets))
    assert entry_coh_degrees(entry, "z") == (2,)
    assert entry_coh_degrees(entry, 2) == (1, 2)
    assert entry_coh_degrees(entry, "q") == ()
    assert entry_field_dim(entry, 1, 2) == 1
    assert entry_field_dim(entry, 1, "q") == 0


def test_nerve_route_agrees(rp2, pentagon):
    for cpx in (rp2, pentagon, gen_cross_polytope(3)):
        direct = profile_from_facets(list(cpx.facets))
        nerved = profile_from_facets(facet_nerve(list(cpx.facets)))
        assert direct == nerved


def test_profile_budget(monkeypatch):
    # two disjoint 22-simplices: far past the direct budget, but each
    # collapses to a point, so neither the nerve nor a budget is needed
    a = (1 << 23) - 1
    b = a << 23
    monkeypatch.setattr(complex_core, "FACE_BUDGET", 1 << 10)
    assert profile_from_facets([a, b]) == ((0, 1, ()),)
    # a lone big simplex is a cone, so no budget is ever needed
    monkeypatch.setattr(complex_core, "FACE_BUDGET", 1 << 4)
    assert profile_from_facets([a]) == ()
    monkeypatch.undo()
    # no vertex collapses here: vertex S (a 4-subset of {0..7}) lies in
    # facet i for i in S, and those four facets meet in S alone.  Eight
    # 35-vertex facets are past any budget, but the nerve is the full
    # 3-skeleton of the 7-simplex
    subsets = list(combinations(range(8), 4))
    facets = [sum(1 << j for j, S in enumerate(subsets) if i in S)
              for i in range(8)]
    assert profile_from_facets(facets) == ((3, 35, ()),)
    with pytest.raises(ResourceError):
        face_closure(facets)


@st.composite
def link_hosts(draw):
    """Random flags, their Alexander duals and face complexes of small
    flags of dimension at most 2 (so every link stays small uncollapsed)."""
    kind = draw(st.sampled_from(["flag", "dual", "faces"]))
    if kind == "faces":
        cpx = draw(st.builds(gen_random_flag, st.integers(3, 5),
                             st.floats(0.15, 0.6), st.integers(0, 10 ** 6)))
        assume(cpx.dim <= 2)
        return cpx.face_complex()
    cpx = draw(random_flags)
    return cpx.alexander_dual() if kind == "dual" else cpx


@given(link_hosts())
def test_collapsed_links_match_uncollapsed(cpx):
    for g in link_candidates(cpx):
        lf = [f & ~g for f in cpx.facets if g & ~f == 0]
        want = reduced_homology(cpx.link(bits_of(g)), "z").entries
        assert profile_from_facets(lf) == want


def test_links_of_rp2_face_complex_factor_small(monkeypatch):
    # the face complex of RP^2_6 has 31 vertices; uncollapsed, its links
    # hand Smith form matrices up to 335 x 350
    shapes = []
    real = homology.smith_normal_form

    def recording(M):
        shapes.append((len(M), len(M[0]) if M else 0))
        return real(M)

    monkeypatch.setattr(homology, "smith_normal_form", recording)
    fc = gen_rp2_six().face_complex()
    assert tuple(regularity(fc, c, "links").value
                 for c in ("q", "f2")) == (2, 3)
    assert shapes and max(r * c for r, c in shapes) <= 15 * 10


@given(random_flags)
def test_scan_agrees_with_direct(cpx):
    scan = integral_subset_scan(cpx)
    for A in range(1 << cpx.n):
        sub = cpx.induced(bits_of(A))
        prof = reduced_homology(sub, "z")
        entry = scan[A]
        got = {d: (r, tuple(t)) for d, r, t in entry}
        want = {d: (prof.rank_at(d), prof.torsion_at(d))
                for d in prof.nonzero_degrees()}
        for d in list(want):
            if want[d] == (0, ()):
                del want[d]
        assert got == want


def test_scan_torsion_primes_rp2(rp2):
    assert scan_torsion_primes(integral_subset_scan(rp2)) == (2,)


def test_scan_kept_per_complex_object(rp2):
    a = integral_subset_scan(rp2)
    assert integral_subset_scan(rp2) is a
    # an equal complex built separately computes its own, equal scan
    twin = SimplicialComplex(rp2.n, rp2.facets)
    b = integral_subset_scan(twin)
    assert b == a and b is not a


def test_boundary_rank_too_large_raises(monkeypatch, pentagon):
    # a Smith form that reports one rank too many leaves a negative
    # homology rank, which must raise even under python -O
    real = homology.smith_normal_form

    def one_too_many(M):
        return SnfResult((1,) + real(M).invariant_factors)

    monkeypatch.setattr(homology, "smith_normal_form", one_too_many)
    with pytest.raises(PropertyViolation):
        reduced_homology(pentagon, "z")


def test_scan_cap():
    with pytest.raises(ResourceError):
        integral_subset_scan(gen_random_flag(8, 0.4, 1), cap=1 << 6)


def test_profile_coeff_mismatch(pentagon):
    prof = reduced_homology(pentagon, "f2")
    with pytest.raises(DomainError):
        prof.cohomology_nonzero_degrees(3)
    # field profiles answer rank_at with the field dimension
    assert prof.rank_at(1) == 1 and prof.torsion_at(1) == ()


def _assert_scan_matches_direct(cpx):
    scan = integral_subset_scan(cpx)
    for A in range(1 << cpx.n):
        assert scan[A] == reduced_homology(cpx.induced(bits_of(A)), "z").entries
    return scan


def test_scan_agrees_with_direct_non_flag():
    # the hollow triangle is where a closed-neighbourhood test on the
    # 1-skeleton would wrongly collapse the full subset
    scan = _assert_scan_matches_direct(gen_boundary_simplex(2))
    assert scan[0b111] == ((1, 1, ()),)
    scan = _assert_scan_matches_direct(gen_boundary_simplex(3))
    assert scan[0b1111] == ((2, 1, ()),)
    scan = _assert_scan_matches_direct(gen_rp2_six())
    assert scan[(1 << 6) - 1] == ((1, 0, (2,)),)
    _assert_scan_matches_direct(gen_cross_polytope(3))
    # vertex 3 lies in no facet, so it is no vertex of any K_A
    lone = SimplicialComplex(4, [0b0011, 0b0110])
    scan = _assert_scan_matches_direct(lone)
    assert scan[0b1000] == ((-1, 1, ()),) and scan[0b1001] == ()


@given(random_flags)
def test_scan_agrees_with_direct_on_duals(cpx):
    _assert_scan_matches_direct(cpx.alexander_dual())


def test_scan_smith_only_on_undominated(monkeypatch, pentagon):
    calls = []
    real = homology._integral_entries

    def counting(face_masks):
        calls.append(1)
        return real(face_masks)

    monkeypatch.setattr(homology, "_integral_entries", counting)
    integral_subset_scan(pentagon)
    # the pentagon is flag, so v is dominated in K_A exactly when some
    # other w in A is adjacent to v and to every neighbour of v in A
    adj = pentagon.adjacency()
    closed = [adj[v] | 1 << v for v in range(pentagon.n)]
    undominated = sum(
        1 for A in range(1, 1 << pentagon.n)
        if not any(w != v and closed[v] & A & ~closed[w] == 0
                   for v in bits_of(A) for w in bits_of(A)))
    # 5 points, 5 non-adjacent pairs and the whole cycle
    assert undominated == 11
    assert len(calls) == undominated
