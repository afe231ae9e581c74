"""Integer reflection representations, Cayley balls, kernel searches."""

import pytest
from hypothesis import given, settings, strategies as st

from oracles import oracle_ball, oracle_growth_series
from srcox import racg
from srcox.complex_core import (
    SimplicialComplex,
    bits_of,
    gen_cross_polytope,
    gen_cycle,
    gen_random_flag,
    gen_rp2_six,
)
from srcox.errors import DomainError, ResourceError
from srcox.exact_linalg import IntMatrix
from srcox.racg import (
    build_system,
    evaluate_word,
    kernel_displacement_search,
    spherical_elements,
    sufficient_modulus,
    word_ball,
)


@pytest.fixture
def pent_rep(pentagon):
    return build_system(pentagon)


@pytest.fixture
def free_rep(two_points):
    return build_system(two_points)


def test_infinite_dihedral_matrices(free_rep):
    s0, s1 = free_rep.generators
    assert s0.data == ((-1, 2), (0, 1))
    assert s1.data == ((1, 0), (2, -1))
    assert (s0 @ s0).is_identity()
    # s0 s1 is a translation: infinite order
    t = s0 @ s1
    assert not t.is_identity()
    assert not (t @ t).is_identity()


def test_generator_relations(pent_rep, pentagon):
    gens = pent_rep.generators
    for s in gens:
        assert (s @ s).is_identity()
    adj = pentagon.adjacency()
    for i in range(5):
        for j in range(i + 1, 5):
            ij = gens[i] @ gens[j]
            ji = gens[j] @ gens[i]
            if adj[i] >> j & 1:
                assert ij.data == ji.data      # edge: commute
            else:
                assert ij.data != ji.data      # no edge: infinite order


def test_build_system_requires_flag():
    with pytest.raises(DomainError):
        build_system(gen_rp2_six())
    with pytest.raises(DomainError):
        build_system(SimplicialComplex(0, []))


def test_spherical_elements(pent_rep, free_rep):
    sph = spherical_elements(pent_rep)
    # one involution per vertex, one rotation per edge
    assert [len(verts) for verts, _ in sph] == [1] * 5 + [2] * 5
    for verts, mat in sph:
        assert (mat @ mat).is_identity()
        word = tuple(verts)
        assert evaluate_word(pent_rep, word).data == mat.data
    assert len(spherical_elements(free_rep)) == 2


def test_evaluate_word_mod(free_rep):
    w = (0, 1) * 5
    full = evaluate_word(free_rep, w)
    red = evaluate_word(free_rep, w, mod=7)
    assert red.data == full.mod(7).data
    assert all(0 <= x < 7 for row in red.data for x in row)


def test_word_ball_growth_pentagon(pent_rep):
    ball = word_ball(pent_rep, 6)
    assert ball.complete
    assert list(ball.level_counts) == [1, 5, 15, 40, 105, 275, 720]
    assert list(ball.level_max_entry) == [1, 2, 4, 8, 18, 39, 84]


def test_word_ball_entry_growth_bound(pent_rep):
    # every entry of a length-t product is below (2d+3)^t
    ball = word_ball(pent_rep, 6)
    bound = 1
    for t, mx in enumerate(ball.level_max_entry):
        assert mx < max(bound, 2)
        bound *= 5
    assert ball.total() == sum(ball.level_counts)


def test_word_ball_geodesic_words(pent_rep):
    ball = word_ball(pent_rep, 4)
    for i, word in enumerate(ball.words):
        assert len(word) == ball.element_levels[i]
        assert evaluate_word(pent_rep, word).data == ball.elements[i]


def test_word_ball_elements_distinct(pent_rep):
    ball = word_ball(pent_rep, 5)
    assert len(set(ball.elements)) == ball.total()


def test_word_ball_infinite_dihedral(free_rep):
    ball = word_ball(free_rep, 4)
    assert list(ball.level_counts) == [1, 2, 2, 2, 2]


def test_word_ball_spherical_generating_set(pent_rep):
    ball = word_ball(pent_rep, 2, "spherical")
    assert ball.level_counts[1] == 10
    std = word_ball(pent_rep, 2)
    # one spherical step covers every standard ball-2 element
    assert set(std.elements) <= set(ball.elements)


def test_word_ball_budget(pent_rep):
    with pytest.raises(ResourceError) as exc:
        word_ball(pent_rep, 8, budget=100)
    partial = exc.value.partial
    assert partial is not None and not partial.complete


def _ball_fields(ball):
    return (ball.level_counts, ball.level_max_entry, ball.elements,
            ball.words, ball.element_levels)


BALL_CASES = [
    (gen_cycle(5), "standard", 6),
    (gen_cycle(5), "spherical", 3),
    (gen_cross_polytope(3), "standard", 6),
    (gen_random_flag(7, 0.4, 3), "standard", 5),
    (SimplicialComplex.from_facets([], ["a", "b"]), "standard", 6),
]


@pytest.mark.parametrize("nerve, gset, radius", BALL_CASES)
def test_word_ball_python_path_matches_numpy(monkeypatch, nerve, gset,
                                             radius):
    # _SAFE_PRODUCT = 0 widens the walk to python ints from the first
    # level; both walks run the descent rule, which
    # test_word_ball_matches_oracle_bfs checks against a plain BFS
    rep = build_system(nerve)
    fast = word_ball(rep, radius, gset)
    monkeypatch.setattr(racg, "_SAFE_PRODUCT", 0)
    slow = word_ball(rep, radius, gset)
    assert _ball_fields(slow) == _ball_fields(fast)


@pytest.mark.parametrize("safe_product", [racg._SAFE_PRODUCT, 0])
@pytest.mark.parametrize("nerve, gset, radius", BALL_CASES)
def test_word_ball_matches_oracle_bfs(monkeypatch, nerve, gset, radius,
                                      safe_product):
    rep = build_system(nerve)
    if gset == "standard":
        gens = [g.data for g in rep.generators]
    else:
        gens = [mat.data for _, mat in spherical_elements(rep)]
    want = oracle_ball(gens, radius)
    monkeypatch.setattr(racg, "_SAFE_PRODUCT", safe_product)
    ball = word_ball(rep, radius, gset)
    got = [set() for _ in ball.level_counts]
    for e, lv in zip(ball.elements, ball.element_levels):
        got[lv].add(e)
    assert ball.level_counts == [len(level) for level in want]
    assert got == want


@pytest.mark.parametrize("safe_product", [racg._SAFE_PRODUCT, 0])
def test_word_ball_budget_partial_max_entry(monkeypatch, pent_rep,
                                            safe_product):
    monkeypatch.setattr(racg, "_SAFE_PRODUCT", safe_product)
    with pytest.raises(ResourceError) as exc:
        word_ball(pent_rep, 8, budget=100)
    partial = exc.value.partial
    assert partial.total() == 101
    last = len(partial.level_counts) - 1
    cut = [e for e, lv in zip(partial.elements, partial.element_levels)
           if lv == last]
    assert len(cut) == partial.level_counts[-1]
    assert partial.level_max_entry[-1] == max(
        abs(x) for e in cut for row in e for x in row)


@pytest.mark.parametrize("m, hits", [(3, 31), (5, 1), (7, 1)])
def test_identity_mod_matches_int_matrix(pent_rep, m, hits):
    ball = word_ball(pent_rep, 8)
    got = [racg._is_identity_mod(e, m) for e in ball.elements]
    assert got == [IntMatrix(e).mod(m).is_identity() for e in ball.elements]
    assert got[0] and sum(got) == hits
    big = m * 2 ** 80
    assert racg._is_identity_mod(((big + 1, big), (-big, 1 - big)), m)
    assert not racg._is_identity_mod(((big + 1, big + 1), (0, 1)), m)


def test_search_preconditions(pent_rep):
    with pytest.raises(DomainError):
        kernel_displacement_search(pent_rep, 2, 5)
    with pytest.raises(DomainError):
        kernel_displacement_search(pent_rep, 5, 3)


def test_pentagon_mod5_counterexample(pent_rep):
    res = kernel_displacement_search(pent_rep, 5, 5)
    assert res.status == "COUNTEREXAMPLE"
    assert res.ball_length == 10
    word = res.witness
    assert len(word) == 10
    assert evaluate_word(pent_rep, word, mod=5).is_identity()
    assert not evaluate_word(pent_rep, word).is_identity()
    # the witness is the alternating product of two non-adjacent flips
    assert set(word) == {0, 2} or len(set(word)) == 2


def test_pentagon_mod7_certified(pent_rep):
    res = kernel_displacement_search(pent_rep, 7, 5)
    assert res.status == "CERTIFIED"
    assert res.ball_length == 10
    assert res.witness is None
    assert res.elements_seen == 54726


def test_two_points_mod5_certified(free_rep):
    res = kernel_displacement_search(free_rep, 5, 4)
    assert res.status == "CERTIFIED"
    assert res.ball_length == 4


def test_search_budget_undecided(pent_rep):
    res = kernel_displacement_search(pent_rep, 7, 5, budget=50)
    assert res.status == "UNDECIDED"
    assert res.witness is None


def test_heptagon_small_moduli():
    rep = build_system(gen_cycle(7))
    word = (0, 2, 0, 4) * 3
    # this word lies in the kernel mod 35, hence both mod 5 and mod 7;
    # mod 3 it survives
    assert evaluate_word(rep, word, mod=7).is_identity()
    assert evaluate_word(rep, word, mod=5).is_identity()
    assert not evaluate_word(rep, word, mod=3).is_identity()
    assert not evaluate_word(rep, word).is_identity()


def test_sufficient_modulus():
    assert sufficient_modulus(0, 4) == 27
    assert sufficient_modulus(1, 5) == 625
    assert sufficient_modulus(2, 4) == 343
    with pytest.raises(DomainError):
        sufficient_modulus(-1, 4)
    with pytest.raises(DomainError):
        sufficient_modulus(0, 3)


def _assert_ball_follows_growth_series(nerve, radius=7):
    """The standard ball's level counts are the power-series coefficients
    of the nerve's growth series (Steinberg): a third route besides the
    walker and oracle_ball, with exact integers only."""
    want = oracle_growth_series([tuple(bits_of(f)) for f in nerve.facets],
                                radius)
    got = word_ball(build_system(nerve), radius).level_counts
    # a finite group's walk stops at its first empty level
    assert got + [0] * (radius + 1 - len(got)) == want


# the series counts words in the standard generators only
@pytest.mark.parametrize(
    "nerve", [nerve for nerve, gset, _ in BALL_CASES if gset == "standard"])
def test_word_ball_matches_growth_series(nerve):
    _assert_ball_follows_growth_series(nerve)


@given(st.builds(gen_random_flag, st.integers(5, 7), st.floats(0.2, 0.8),
                 st.integers(0, 10 ** 6)))
@settings(max_examples=10)
def test_word_ball_matches_growth_series_random_flags(nerve):
    _assert_ball_follows_growth_series(nerve)
