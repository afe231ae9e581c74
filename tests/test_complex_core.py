"""Complex construction, face enumeration, duals, flagness, girth."""

from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (
    close_faces,
    induced_facets,
    oracle_minimal_nonfaces,
    oracle_shortest_induced_cycle,
)
from srcox import complex_core
from srcox.complex_core import (
    INF,
    SimplicialComplex,
    _maximal,
    bits_of,
    face_closure,
    gen_boundary_simplex,
    gen_cross_polytope,
    gen_cycle,
    gen_random_flag,
    gen_rp2_six,
    gen_simplex,
    generate,
    mask_of,
    parse_cplx,
)
from srcox.errors import DomainError, InputError, ResourceError
from srcox.homology import profile_from_facets
from srcox.quotient_builder import image_group, quotient_complex, thicken
from srcox.racg import build_system


def facet_sets(cpx):
    return sorted(tuple(bits_of(f)) for f in cpx.facets)


random_flags = st.builds(
    gen_random_flag,
    st.integers(4, 7),
    st.floats(0.15, 0.9),
    st.integers(0, 10 ** 6))

# facet-mask lists on n <= 7 vertices, with repeats, nesting and the
# empty mask left in
mask_lists = st.integers(0, 7).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(0, (1 << n) - 1), max_size=10)))


def test_mask_round_trip():
    assert bits_of(mask_of([0, 2, 5])) == [0, 2, 5]
    assert mask_of([]) == 0 and bits_of(0) == []


@given(st.one_of(st.integers(min_value=0, max_value=1 << 70),
                 st.sets(st.integers(0, 2100), max_size=30).map(mask_of)))
@example((1 << 2050) | (1 << 2000) | 0b101)
def test_bits_of_matches_shift_loop(m):
    assert bits_of(m) == [v for v in range(m.bit_length()) if m >> v & 1]


def test_from_facets_assigns_ids_by_first_appearance():
    cpx = SimplicialComplex.from_facets([["b", "a"], ["a", "c"]])
    assert cpx.labels == ("b", "a", "c")
    assert facet_sets(cpx) == [(0, 1), (1, 2)]
    with pytest.raises(InputError):
        SimplicialComplex.from_facets([["a", "a"]])


def test_facet_antichain_enforced():
    # the raw constructor validates; from_facets reduces
    with pytest.raises(DomainError):
        SimplicialComplex(3, [0b111, 0b011])
    with pytest.raises(DomainError):
        SimplicialComplex(3, [0b011, 0b101, 0b011])  # a repeated facet
    cpx = SimplicialComplex.from_facets([["a", "b", "c"], ["a", "b"], ["c"]])
    assert facet_sets(cpx) == [(0, 1, 2)]
    with pytest.raises(InputError):
        SimplicialComplex(2, [0b100])  # vertex out of range


@given(mask_lists)
@example((0, [0, 0]))
@example((3, [0, 0b011, 0b011, 0b001, 0b110]))
def test_maximal_matches_pairwise(case):
    _, masks = case
    want = sorted({m for m in masks
                   if not any(m != f and m & ~f == 0 for f in masks)})
    assert _maximal(masks) == tuple(want)


def test_each_builder_reduces_once(monkeypatch):
    # the antichain is established once: by the builder's own _maximal
    # call, or by the constructor's check of a list already an antichain
    two = SimplicialComplex.from_facets([], ["a", "b"])
    rep = build_system(two)
    q = quotient_complex(rep, image_group(rep, 5))
    cpx = gen_rp2_six()
    real = complex_core._maximal
    calls = []

    def counting(masks):
        calls.append(masks)
        return real(masks)

    monkeypatch.setattr(complex_core, "_maximal", counting)
    for build in (lambda: parse_cplx("a b c\nb c\nc d\n"),
                  lambda: thicken(q),
                  lambda: gen_cycle(6),
                  cpx.face_complex,
                  lambda: cpx.induced([0, 1, 2, 3]),
                  lambda: cpx.link([0])):
        calls.clear()
        build()
        assert len(calls) == 1


def test_void_and_empty_distinction():
    void = SimplicialComplex(0, [])
    empt = SimplicialComplex(0, [0])
    assert void.is_void() and not empt.is_void()
    assert void.dim is None and empt.dim == -1
    assert void.faces() == () and empt.faces() == (0,)
    assert empt.f_vector() == (1,)


def test_dim_and_f_vector(pentagon, octahedron):
    assert pentagon.dim == 1
    assert pentagon.f_vector() == (1, 5, 5)
    assert octahedron.dim == 2
    assert octahedron.f_vector() == (1, 6, 12, 8)


@given(random_flags)
def test_faces_match_reference_closure(cpx):
    want = {mask_of(f) for f in close_faces(
        [tuple(bits_of(m)) for m in cpx.facets])}
    if not cpx.facets:
        want = set()
    assert set(cpx.faces()) == want


@st.composite
def mask_complexes(draw):
    """Complexes generated by random masks on n <= 9 vertices."""
    n = draw(st.integers(0, 9))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=10))
    return SimplicialComplex.from_masks(n, masks)


@given(mask_complexes())
@example(SimplicialComplex(0, []))
@example(SimplicialComplex(0, [0]))
def test_face_closure_matches_oracle(cpx):
    got = face_closure(cpx.facets)
    want = {mask_of(f) for f in close_faces(
        [tuple(bits_of(m)) for m in cpx.facets])}
    assert list(cpx.faces()) == got == complex_core.sort_faces(want)


def test_face_closure_budget_is_exact(monkeypatch, octahedron):
    count = len(face_closure(octahedron.facets))  # 27
    monkeypatch.setattr(complex_core, "FACE_BUDGET", count)
    assert len(face_closure(octahedron.facets)) == count
    monkeypatch.setattr(complex_core, "FACE_BUDGET", count - 1)
    with pytest.raises(ResourceError, match=f"reached {count} faces "
                                            f"from 8 of 8 facets"):
        face_closure(octahedron.facets)
    # a facet with more subsets than the budget raises before any
    # enumeration: a 40-simplex would need 2^40 steps to list
    monkeypatch.setattr(complex_core, "FACE_BUDGET", 1 << 10)
    with pytest.raises(ResourceError, match="reached 0 faces from 0 of 2"):
        face_closure([(1 << 40) - 1, 1 << 41])


def test_contains(pentagon):
    assert pentagon.contains(mask_of([0, 1]))
    assert pentagon.contains(0)
    assert not pentagon.contains(mask_of([0, 2]))


def test_cone_apex():
    # the link route collapses a cone to its apex: reduced homology 0
    cone = SimplicialComplex.from_facets([["x", "a", "b"], ["x", "b", "c"]])
    assert profile_from_facets(list(cone.facets)) == ()
    assert profile_from_facets(list(gen_cycle(5).facets)) == ((1, 1, ()),)
    assert profile_from_facets(list(gen_simplex(3).facets)) == ()


def test_link_and_induced(pentagon):
    lk = pentagon.link([0])
    assert sorted(len(bits_of(f)) for f in lk.facets) == [1, 1]
    with pytest.raises(DomainError):
        pentagon.link([0, 2])  # not a face
    ind = pentagon.induced([0, 1, 2])
    assert facet_sets(ind) == [(0, 1), (1, 2)]
    # restricting to nothing keeps the empty face, not the void complex
    nothing = pentagon.induced([])
    assert not nothing.is_void() and nothing.faces() == (0,)


@given(random_flags, st.data())
def test_induced_matches_reference(cpx, data):
    sub = data.draw(st.sets(st.integers(0, cpx.n - 1), max_size=cpx.n))
    got = cpx.induced(sorted(sub))
    want = induced_facets([tuple(bits_of(m)) for m in cpx.facets], sub)
    # the package reindexes onto the support in increasing original order
    support = sorted(set().union(*want)) if want else []
    want_masks = sorted(
        mask_of([support.index(v) for v in f]) for f in want)
    assert sorted(got.facets) == want_masks


def test_minimal_nonfaces(pentagon):
    chords = pentagon.minimal_nonfaces()
    assert len(chords) == 5
    assert all(len(bits_of(m)) == 2 for m in chords)
    assert gen_simplex(3).minimal_nonfaces() == ()
    empty_triangle = gen_cycle(3)
    sizes = sorted(len(bits_of(m)) for m in empty_triangle.minimal_nonfaces())
    assert sizes == [3]
    assert SimplicialComplex(0, []).minimal_nonfaces() == (0,)


@st.composite
def spare_vertex_complexes(draw):
    """Complexes from up to 8 masks on n <= 9 vertices, one drawn vertex
    cleared from every mask: a vertex in no facet is a minimal nonface."""
    n = draw(st.integers(1, 9))
    spare = draw(st.integers(0, n - 1))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=8))
    return SimplicialComplex.from_masks(n, [m & ~(1 << spare)
                                            for m in masks])


def _assert_minimal_nonfaces_match_oracle(cpx):
    got = cpx.minimal_nonfaces()
    assert list(got) == sorted(set(got))
    want = oracle_minimal_nonfaces([bits_of(f) for f in cpx.facets], cpx.n)
    assert {frozenset(bits_of(m)) for m in got} == want


@given(st.one_of(
    spare_vertex_complexes(),
    mask_lists.map(lambda case: SimplicialComplex.from_masks(*case)),
    random_flags,
    random_flags.map(SimplicialComplex.alexander_dual),
    st.builds(gen_random_flag, st.integers(1, 4), st.floats(0, 1),
              st.integers(0, 10 ** 6)).map(SimplicialComplex.face_complex)))
@settings(max_examples=240)
def test_minimal_nonfaces_match_oracle(cpx):
    _assert_minimal_nonfaces_match_oracle(cpx)


def test_minimal_nonfaces_match_oracle_named(rp2):
    fc = rp2.face_complex()
    for cpx in (rp2, fc, SimplicialComplex(3, [0]), SimplicialComplex(3, [])):
        _assert_minimal_nonfaces_match_oracle(cpx)
    assert len(fc.minimal_nonfaces()) == 325


def test_alexander_dual_pentagon(pentagon):
    dual = pentagon.alexander_dual()
    # complements of the five chords: five triangles
    assert sorted(len(bits_of(f)) for f in dual.facets) == [3] * 5


@given(random_flags)
def test_alexander_dual_is_involution(cpx):
    dd = cpx.alexander_dual().alexander_dual()
    assert dd.n == cpx.n and set(dd.facets) == set(cpx.facets)


def test_alexander_dual_extremes():
    assert gen_simplex(2).alexander_dual().is_void()
    void = SimplicialComplex(3, [])
    assert void.alexander_dual().facets == ((1 << 3) - 1,)


def test_face_complex(pentagon):
    fc = pentagon.face_complex()
    assert fc.n == 10          # 5 vertices + 5 edges
    assert len(fc.facets) == 5
    assert fc.dim == 2
    assert "{" in fc.labels[5] or "{" in fc.labels[0]


def test_is_flag():
    assert gen_cycle(5).is_flag()
    assert gen_simplex(3).is_flag()
    assert not gen_cycle(3).is_flag()      # empty triangle
    assert not gen_rp2_six().is_flag()


def _flag_by_faces(cpx):
    # flag: the faces are the cliques of the 1-skeleton on all n vertices
    faces = close_faces([bits_of(f) for f in cpx.facets])
    edges = {f for f in faces if len(f) == 2}
    cliques = {frozenset(c) for s in range(cpx.n + 1)
               for c in combinations(range(cpx.n), s)
               if all(frozenset(e) in edges for e in combinations(c, 2))}
    return faces == cliques


@given(mask_lists)
@example((0, [0]))       # {empty face}: flag
@example((0, []))        # void: not flag
@example((2, [0b01]))    # vertex 1 in no facet: not flag
def test_is_flag_matches_clique_faces(case):
    n, masks = case
    cpx = SimplicialComplex(n, _maximal(masks))
    assert cpx.is_flag() == _flag_by_faces(cpx)
    dual = cpx.alexander_dual()
    assert dual.is_flag() == _flag_by_faces(dual)


def test_largeness_frozen_values(pentagon, octahedron, rp2):
    rep = pentagon.largeness()
    assert (rep.flag, rep.shortest_induced_cycle, rep.max_k) == (True, 5, 5)
    assert rep.is_k_large(5) and not rep.is_k_large(6)
    assert rep.gl_index() == 2

    rep = octahedron.largeness()
    assert (rep.flag, rep.shortest_induced_cycle, rep.max_k) == (True, 4, 4)
    assert rep.gl_index() == 1

    rep = rp2.largeness()
    assert rep.flag is False and rep.max_k is None
    assert rep.gl_index() == 0

    rep = gen_simplex(3).largeness()
    assert rep.shortest_induced_cycle == INF and rep.max_k == INF
    assert rep.gl_index() == INF
    assert rep.is_k_large(10 ** 9)


def _min_nonface_by_enumeration(cpx):
    # the former flag route: the smallest minimal nonface of size <= 3
    return min((s for s in map(int.bit_count, cpx.minimal_nonfaces())
                if s <= 3), default=None)


@given(random_flags)
def test_flag_min_nonface_from_adjacency(cpx):
    rep = cpx.largeness()
    assert rep.flag
    assert rep.min_nonface_size == _min_nonface_by_enumeration(cpx)


def test_flag_min_nonface_extremes(two_points):
    for cpx, want in ((gen_simplex(3), None), (gen_simplex(0), None),
                      (two_points, 2), (SimplicialComplex(0, [0]), None)):
        rep = cpx.largeness()
        assert rep.flag
        assert rep.min_nonface_size == want == \
            _min_nonface_by_enumeration(cpx)


def test_non_flag_min_nonface_frozen(rp2):
    for cpx, want in ((rp2, 3), (gen_cycle(3), 3),
                      (gen_boundary_simplex(3), 4),
                      (gen_cycle(5).alexander_dual(), 3),
                      (gen_cross_polytope(3).alexander_dual(), 3),
                      (rp2.alexander_dual(), 3)):
        rep = cpx.largeness()
        assert rep.flag is False and rep.max_k is None
        assert rep.min_nonface_size == want


def test_minimal_nonfaces_budget(monkeypatch, rp2, pentagon):
    # each face of rp2 is extended by each vertex above its top one: 49
    # candidates from its 32 faces
    monkeypatch.setattr(complex_core, "FACE_BUDGET", 48)
    with pytest.raises(ResourceError, match="reached 49 candidates from "
                                            "29 of 32 faces, budget 48"):
        rp2.minimal_nonfaces()
    with pytest.raises(ResourceError):
        rp2.largeness()
    # the pentagon: 21 candidates from its 11 faces
    monkeypatch.setattr(complex_core, "FACE_BUDGET", 20)
    with pytest.raises(ResourceError, match="reached 21 candidates"):
        pentagon.alexander_dual()
    # flag largeness reads the adjacency and enumerates nothing
    assert pentagon.largeness().min_nonface_size == 2
    monkeypatch.setattr(complex_core, "FACE_BUDGET", 49)
    assert len(rp2.minimal_nonfaces()) == 10


def test_max_cliques_budget(monkeypatch):
    # the cocktail-party graph on 12 vertices has 64 maximal cliques; the
    # clique search visits 127 cliques, one per search node
    octa6 = gen_cross_polytope(6)
    monkeypatch.setattr(complex_core, "FACE_BUDGET", 100)
    with pytest.raises(ResourceError, match="visited 101 cliques"):
        octa6.largeness()
    with pytest.raises(ResourceError, match="visited 101 cliques"):
        octa6.is_flag()
    monkeypatch.setattr(complex_core, "FACE_BUDGET", 127)
    assert octa6.is_flag() and octa6.largeness().max_k == 4


# the clique complex keeps the drawn graph as its 1-skeleton
@given(st.builds(gen_random_flag, st.integers(1, 10), st.floats(0, 1),
                 st.integers(0, 10 ** 6)))
def test_shortest_induced_cycle_matches_bruteforce(cpx):
    adj = [set(bits_of(row)) for row in cpx.adjacency()]
    want = oracle_shortest_induced_cycle(adj, cpx.n)
    got = cpx.largeness().shortest_induced_cycle
    assert got == (INF if want is None else want)


def test_shortest_induced_cycle_long_hole():
    # one search level per vertex: no recursion depth to run out of
    assert gen_cycle(1500).largeness().shortest_induced_cycle == 1500


def test_generators():
    assert facet_sets(gen_cycle(4)) == [(0, 1), (0, 3), (1, 2), (2, 3)]
    assert gen_boundary_simplex(2).f_vector() == (1, 3, 3)
    oct_ = gen_cross_polytope(3)
    # antipodal pairs i, i+3 are the minimal nonfaces
    assert sorted(tuple(bits_of(m)) for m in oct_.minimal_nonfaces()) == \
        [(0, 3), (1, 4), (2, 5)]
    assert len(gen_rp2_six().facets) == 10
    with pytest.raises(DomainError):
        gen_cycle(2)
    with pytest.raises(DomainError):
        generate("mystery")


def test_random_flag_deterministic():
    a = gen_random_flag(7, 0.5, 123)
    b = gen_random_flag(7, 0.5, 123)
    c = gen_random_flag(7, 0.5, 124)
    assert a.facets == b.facets
    assert a.facets != c.facets  # one seed collision would be astonishing
    assert a.is_flag()


def test_cplx_round_trip(pentagon, two_points):
    for cpx in (pentagon, two_points, gen_rp2_six()):
        back = parse_cplx(cpx.to_cplx())
        assert back.n == cpx.n and back.facets == cpx.facets
        assert back.labels == cpx.labels


def test_parse_cplx_details():
    text = "# comment\n a b \nb c\nisolated: z\n"
    cpx = parse_cplx(text)
    assert cpx.labels == ("a", "b", "c", "z")
    assert facet_sets(cpx) == [(0, 1), (1, 2), (3,)]
    with pytest.raises(InputError):
        parse_cplx("a a b\n")
    assert parse_cplx("").is_void()
