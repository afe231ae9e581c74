"""Betti tables, regularity, index, CM, vcd, claim check, exact bounds."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    close_faces,
    oracle_hochster_betti,
    oracle_link_candidates,
    oracle_regularity,
)
from srcox.complex_core import (
    INF,
    SimplicialComplex,
    bits_of,
    gen_boundary_simplex,
    gen_cross_polytope,
    gen_cycle,
    gen_random_flag,
    gen_rp2_six,
    gen_simplex,
    mask_of,
)
from srcox import sr_invariants
from srcox.errors import DomainError, ResourceError
from srcox.homology import (
    entry_coh_degrees,
    integral_subset_scan,
    profile_from_facets,
    reduced_homology,
)
from srcox.sr_invariants import (
    BettiTable,
    betti_table,
    cdreg_claim_check,
    cm_double_log_bound,
    dhs_bound,
    facet_bound,
    gl_index,
    is_cohen_macaulay,
    link_candidates,
    regularity,
    tower_N,
    vcd_nerve,
    verify_regularity_witness,
    verify_top_homology_bound,
    vertex_bound,
)

random_flags = st.builds(
    gen_random_flag,
    st.integers(4, 6),
    st.floats(0.2, 0.9),
    st.integers(0, 10 ** 6))


def oracle_facets(cpx):
    return [tuple(bits_of(m)) for m in cpx.facets]


# -- Betti tables --------------------------------------------------------

def test_pentagon_betti(pentagon):
    for field in ("q", "f2"):
        t = betti_table(pentagon, field)
        assert t.to_dict()["entries"] == \
            {"0,0": 1, "1,2": 5, "2,3": 5, "3,5": 1}
        assert t.reg == 2 and t.projdim == 3


def test_rp2_betti(rp2):
    t = betti_table(rp2, "q")
    assert t.to_dict()["entries"] == \
        {"0,0": 1, "1,3": 10, "2,4": 15, "3,5": 6}
    assert t.reg == 2 and t.projdim == 3
    t2 = betti_table(rp2, "f2")
    assert t2.to_dict()["entries"] == \
        {"0,0": 1, "1,3": 10, "2,4": 15, "3,5": 6, "3,6": 1, "4,6": 1}
    assert t2.reg == 3 and t2.projdim == 4


def test_octahedron_betti(octahedron):
    t = betti_table(octahedron, "q")
    assert t.to_dict()["entries"] == \
        {"0,0": 1, "1,2": 3, "2,4": 3, "3,6": 1}
    assert t.reg == 3
    assert t.linear_index() == 1


@given(random_flags, st.sampled_from(["q", "f2"]))
def test_betti_matches_hochster_oracle(cpx, field):
    p = 0 if field == "q" else 2
    want = oracle_hochster_betti(oracle_facets(cpx), cpx.n, p)
    got = {tuple(map(int, k.split(","))): v
           for k, v in betti_table(cpx, field).to_dict()["entries"].items()}
    assert got == {k: v for k, v in want.items() if v}


def test_betti_first_column_counts_nonfaces(pentagon, rp2):
    # beta_{1,j} = number of minimal nonfaces with j vertices
    for cpx in (pentagon, rp2, gen_cross_polytope(2)):
        sizes = [len(bits_of(m)) for m in cpx.minimal_nonfaces()]
        t = betti_table(cpx, "q")
        for j in set(sizes):
            assert t.beta(1, j) == sizes.count(j)


def test_betti_void_rejected():
    with pytest.raises(DomainError):
        betti_table(SimplicialComplex(0, []), "q")
    with pytest.raises(DomainError):
        betti_table(gen_cycle(5), "z")


def test_render_grid(pentagon):
    grid = betti_table(pentagon, "q").render_grid()
    lines = grid.splitlines()
    assert len(lines) >= 3  # header + three strands
    assert "5" in grid and "." in grid


# -- regularity ----------------------------------------------------------

def test_regularity_frozen(pentagon, octahedron, rp2, two_points):
    assert regularity(pentagon).value == 2
    assert regularity(octahedron).value == 3
    assert regularity(rp2, "q").value == 2
    assert regularity(rp2, "f2").value == 3
    assert regularity(two_points).value == 1
    assert regularity(gen_simplex(3)).value == 0


def test_regularity_void():
    rep = regularity(SimplicialComplex(0, []))
    assert rep.value == 0 and rep.void
    assert verify_regularity_witness(SimplicialComplex(0, []), rep)


@given(random_flags, st.sampled_from(["q", "f2"]))
def test_regularity_three_ways(cpx, field):
    p = 0 if field == "q" else 2
    want = oracle_regularity(oracle_facets(cpx), cpx.n, p)
    ind = regularity(cpx, field, "induced")
    lks = regularity(cpx, field, "links")
    assert ind.value == lks.value == want
    assert betti_table(cpx, field).reg == want
    assert verify_regularity_witness(cpx, ind)
    assert verify_regularity_witness(cpx, lks)


def test_witness_verification_rejects_tampering(pentagon):
    rep = regularity(pentagon)
    rep.witness["degree"] += 1
    assert not verify_regularity_witness(pentagon, rep)


def test_regularity_bad_method(pentagon):
    with pytest.raises(DomainError):
        regularity(pentagon, "q", "guess")


# -- Green-Lazarsfeld index ----------------------------------------------

def test_gl_index_frozen(pentagon, octahedron, rp2):
    assert gl_index(pentagon) == 2
    assert gl_index(octahedron) == 1
    assert gl_index(rp2) == 0
    assert gl_index(gen_simplex(3)) == INF
    assert gl_index(gen_cycle(6)) == 3


@given(random_flags)
def test_gl_index_modes_agree(cpx):
    comb = gl_index(cpx)
    assert comb == gl_index(cpx, "algebraic", "q")
    assert comb == gl_index(cpx, "algebraic", "f2")


# -- Cohen-Macaulay ------------------------------------------------------

def test_cm_frozen(pentagon, octahedron, rp2, two_points):
    assert is_cohen_macaulay(rp2, "q")
    assert not is_cohen_macaulay(rp2, "f2")
    assert is_cohen_macaulay(octahedron)
    assert is_cohen_macaulay(pentagon)
    assert is_cohen_macaulay(two_points)
    assert is_cohen_macaulay(gen_simplex(2))
    assert is_cohen_macaulay(SimplicialComplex(0, []))
    # pentagon plus a stray vertex is connected nowhere: not CM
    lopsided = SimplicialComplex.from_facets(
        [["a", "b"], ["b", "c"], ["c", "a"], ["d"]])
    assert not is_cohen_macaulay(lopsided)


# -- vcd -----------------------------------------------------------------

def test_vcd_frozen(pentagon, octahedron, rp2, two_points):
    rep = vcd_nerve(rp2)
    assert rep.value == 3
    assert rep.torsion_primes == (2,)
    assert rep.reg_by_char == {0: 2, 2: 3}
    assert rep.max_char_reg() == 3

    rep = vcd_nerve(pentagon)
    assert rep.value == 2 and rep.torsion_primes == ()
    assert rep.reg_by_char == {0: 2}

    assert vcd_nerve(octahedron).value == 3
    assert vcd_nerve(two_points).value == 1
    # a simplex nerve gives a finite group: vcd 0 via the empty-face entry
    assert vcd_nerve(gen_simplex(2)).value == 0
    with pytest.raises(DomainError):
        vcd_nerve(SimplicialComplex(0, []))


@given(random_flags)
def test_vcd_equals_max_char_regularity(cpx):
    rep = vcd_nerve(cpx)
    assert rep.value == rep.max_char_reg()


# -- subset vs face-complement cohomology claim --------------------------

def test_claim_frozen(pentagon, rp2):
    for coeff in ("z", "q", "f2"):
        rep = cdreg_claim_check(rp2, coeff)
        assert rep.equal, coeff
    rep = cdreg_claim_check(rp2, "z")
    assert rep.lhs == rep.rhs == 2
    # simplex: no nonnegative-degree cohomology anywhere, both sides -inf
    rep = cdreg_claim_check(gen_simplex(3), "z")
    assert rep.lhs is None and rep.rhs is None and rep.equal
    assert rep.to_dict()["lhs"] == "-inf"
    assert cdreg_claim_check(pentagon, "z").equal
    with pytest.raises(DomainError):
        cdreg_claim_check(SimplicialComplex(0, []), "z")


@given(random_flags, st.sampled_from(["z", "q", "f2"]))
def test_claim_on_corpus(cpx, coeff):
    assert cdreg_claim_check(cpx, coeff).equal


# -- witnesses are first maxima ------------------------------------------

def _first_max(pairs, kind):
    """Witness of the first key whose degree tuple ends highest, by a
    plain loop; None when every tuple is empty."""
    best = key = None
    for k, degs in pairs:
        if degs and (best is None or degs[-1] > best):
            best, key = degs[-1], k
    return None if key is None else {kind: bits_of(key), "degree": best}


@given(random_flags, st.sampled_from(["q", "f2"]))
def test_witnesses_are_first_maxima(cpx, field):
    scan = integral_subset_scan(cpx)
    full = (1 << cpx.n) - 1
    faces = cpx.faces()
    assert regularity(cpx, field).witness == _first_max(
        ((A, entry_coh_degrees(e, field)) for A, e in enumerate(scan)),
        "subset")
    link_degs = (
        (g, reduced_homology(cpx.link(bits_of(g)), "z")
         .cohomology_nonzero_degrees(field))
        for g in link_candidates(cpx))
    assert regularity(cpx, field, "links").witness == \
        _first_max(link_degs, "face")
    assert vcd_nerve(cpx).witness == _first_max(
        ((f, entry_coh_degrees(scan[full & ~f], "z")) for f in faces),
        "face")
    for coeff in ("z", field):
        def nonneg(entry):
            return tuple(d for d in entry_coh_degrees(entry, coeff)
                         if d >= 0)
        rep = cdreg_claim_check(cpx, coeff)
        assert rep.lhs_witness == _first_max(
            ((f, nonneg(scan[full & ~f])) for f in faces), "face")
        assert rep.rhs_witness == _first_max(
            ((A, nonneg(e)) for A, e in enumerate(scan)), "subset")


# -- link candidates -----------------------------------------------------

@st.composite
def mask_complexes(draw, max_n=9, max_face=None):
    """Complexes generated by up to 8 random masks on n <= max_n vertices,
    each mask of at most max_face vertices when that is given."""
    n = draw(st.integers(1, max_n))
    mask = st.integers(0, (1 << n) - 1)
    if max_face is not None:
        mask = mask.filter(lambda m: m.bit_count() <= max_face)
    masks = draw(st.lists(mask, min_size=1, max_size=8))
    return SimplicialComplex.from_masks(n, masks)


def _assert_link_candidates_match_oracle(cpx):
    facets = [frozenset(bits_of(f)) for f in cpx.facets]
    want = sorted(oracle_link_candidates(facets),
                  key=lambda g: (len(g), sorted(g)))
    assert [frozenset(bits_of(g)) for g in link_candidates(cpx)] == want
    # the link route skips every other face: its link is a cone
    for g in close_faces(facets) - set(want):
        link = [mask_of(f - g) for f in facets if g <= f]
        assert profile_from_facets(link) == ()


@given(st.one_of(
    mask_complexes(),
    random_flags.map(SimplicialComplex.alexander_dual),
    mask_complexes(max_n=6, max_face=3).map(SimplicialComplex.face_complex)))
@settings(max_examples=240)
def test_link_candidates_match_oracle(cpx):
    _assert_link_candidates_match_oracle(cpx)


def test_link_candidates_match_oracle_named():
    _assert_link_candidates_match_oracle(gen_rp2_six())
    _assert_link_candidates_match_oracle(SimplicialComplex(0, [0]))


# -- Eagon-Reiner --------------------------------------------------------

@given(random_flags)
@settings(max_examples=40)
def test_eagon_reiner(cpx):
    dual = cpx.alexander_dual()
    if dual.is_void():
        assert regularity(cpx).value == 0
        return
    assert betti_table(dual, "q").projdim - 1 == regularity(cpx).value
    assert betti_table(cpx, "q").projdim - 1 == regularity(dual).value


def _dual_strands(cpx, coeff):
    """The values of j - i over the entries with i >= 1 of the Betti
    table of the Alexander dual; none when the dual is void (K is a full
    simplex and the dual's ideal is the unit ideal)."""
    dual = cpx.alexander_dual()
    if dual.is_void():
        return set()
    return {j - i for i, j in betti_table(dual, coeff).entries if i >= 1}


def _assert_cm_iff_dual_linear(cpx, coeff):
    """Eagon-Reiner: K is CM over k exactly when the Stanley-Reisner ideal
    of the Alexander dual has a linear resolution over k, that is, one
    strand.  Reisner's link route on one side, the subset scan of a
    non-flag dual on the other."""
    assert is_cohen_macaulay(cpx, coeff) == (len(_dual_strands(cpx, coeff))
                                             <= 1)


CRITERION_6_NAMED = (
    [gen_cycle(k) for k in range(4, 10)]
    + [gen(d) for d in range(2, 5) for gen in (gen_simplex,
                                               gen_boundary_simplex)]
    + [gen_cross_polytope(d) for d in (2, 3)]
    + [SimplicialComplex.from_facets([], ["a", "b"])])


@pytest.mark.parametrize("coeff", ["q", "f2"])
def test_eagon_reiner_cm_named(rp2, coeff):
    for cpx in CRITERION_6_NAMED:
        _assert_cm_iff_dual_linear(cpx, coeff)
    _assert_cm_iff_dual_linear(rp2, coeff)
    # RP^2 is CM over Q but not over F2, so its dual is linear over Q only
    assert len(_dual_strands(rp2, coeff)) == (1 if coeff == "q" else 2)


@given(random_flags)
@settings(max_examples=60)
def test_eagon_reiner_cm_random_flags(cpx):
    for coeff in ("q", "f2"):
        _assert_cm_iff_dual_linear(cpx, coeff)


# -- exact bounds --------------------------------------------------------

def test_dhs_bound_frozen():
    b = dhs_bound(5, 2)
    assert b.holds_for(2) and not b.holds_for(3)
    assert abs(b.approx() - 2.7564) < 5e-4
    assert b.base == Fraction(5, 2) and b.arg == Fraction(4, 2)
    with pytest.raises(DomainError):
        dhs_bound(1, 2)
    with pytest.raises(DomainError):
        dhs_bound(5, 1)


def test_cm_double_log_bound():
    b = cm_double_log_bound(100, 2)
    # base 25/12, log_base(100) ~ 6.27, so ~ 3 + 2.65
    assert b.holds_for(3)
    assert not b.holds_for(6)
    assert b.holds_for(0)  # negative exponent branch, exact
    assert 5.6 < b.approx() < 5.7


def test_root_bounds_frozen():
    fb = facet_bound(1, 2)
    assert fb.describe() == "(25/12)^(2^-1)"
    assert fb.less_than(2) and not fb.less_than(1)
    assert not fb.less_than(0)
    vb = vertex_bound(2, 2)
    assert vb.exp2 == -1
    big = facet_bound(12, 2)
    assert big.exp2 == 10
    assert big.less_than(3 ** (1 << 10))
    assert not big.less_than(2 ** (1 << 10))


@given(st.integers(2, 6), st.integers(1, 40), st.integers(-6, 9),
       st.integers(1, 5))
def test_bounds_match_direct_powers(p, n, reg, d):
    # the early-exit comparison gives the answers of plain exponentiation
    base = Fraction((p + 3) ** 2, 12)
    if n >= 2:
        b = dhs_bound(n, p)
        assert b.holds_for(reg) == (b.base ** (reg - 2) <= b.arg)
    e = reg - 3
    want = base ** (1 << e) <= n if e >= 0 else \
        base <= Fraction(n) ** (1 << -e)
    assert cm_double_log_bound(n, p).holds_for(reg) == want
    for rb in (facet_bound(d, p), vertex_bound(d, p)):
        k = rb.exp2
        want = base ** (1 << k) < n if k >= 0 else \
            base < Fraction(n) ** (1 << -k)
        assert rb.less_than(n) == want


def test_tower_frozen():
    t = tower_N(2, 2)
    assert t.value == 5
    t = tower_N(2, 3)
    assert t.value == 5 ** 100
    assert "N(2,2)" in t.expr
    t = tower_N(2, 4)
    assert t.value is None   # past the bit budget, symbolic only
    assert "N(2,3)" in t.expr
    with pytest.raises(DomainError):
        tower_N(2, 1)


def test_tower_stops_at_first_dropped_level():
    # N(2, 4) already passes the bit budget, so the loop ends there
    # instead of running on to level 10^9
    t = tower_N(2, 10 ** 9)
    assert t.value is None
    assert t.expr == "(2*(2^^999999998)+1)^((2+2)*N(2,999999999)^2)"


def test_tower_bit_budget_read_when_called(monkeypatch):
    monkeypatch.setattr(sr_invariants, "TOWER_BIT_BUDGET", 100)
    t = tower_N(2, 3)  # 5^100 has 233 bits
    assert t.value is None and t.to_dict()["value"] is None


def test_candidate_cap_read_when_called(monkeypatch):
    cpx = gen_cross_polytope(3)  # 8 facets, 27 facet intersections
    monkeypatch.setattr(sr_invariants, "CANDIDATE_CAP", 10)
    with pytest.raises(ResourceError,
                       match="reached 11 intersections of 8 facets, cap 10"):
        link_candidates(cpx)


# -- top homology bound --------------------------------------------------

def test_top_homology_bound_gates(pentagon, octahedron, two_points):
    # p is the linearity index; the complex is (p+3)-large
    rep = verify_top_homology_bound(pentagon)
    assert rep["hypotheses_met"] and rep["p"] == 2
    assert rep["facet_bound_ok"] and rep["vertex_bound_ok"]

    rep = verify_top_homology_bound(gen_cycle(6))
    assert rep["hypotheses_met"] and rep["p"] == 3
    assert rep["facet_bound_ok"] and rep["vertex_bound_ok"]

    # the octahedron is only 4-large: index 1 misses the hypotheses
    rep = verify_top_homology_bound(octahedron)
    assert not rep["hypotheses_met"] and "below 2" in rep["reason"]

    # dimension 0 is outside the hypotheses: two points are infinitely
    # large yet have nonzero top homology
    rep = verify_top_homology_bound(two_points)
    assert not rep["hypotheses_met"] and "dimension" in rep["reason"]

    rep = verify_top_homology_bound(gen_simplex(3))
    assert not rep["hypotheses_met"]

    rep = verify_top_homology_bound(gen_cycle(5).alexander_dual())
    assert isinstance(rep["hypotheses_met"], bool)
