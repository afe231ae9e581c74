"""The subset scan's domination test against its textbook definition."""

import pytest
from hypothesis import given, settings, strategies as st

from oracles import oracle_dominated
from srcox import homology
from srcox.complex_core import (
    SimplicialComplex,
    bits_of,
    gen_random_flag,
    gen_rp2_six,
)
from srcox.homology import _dominated_bit, _stars, integral_subset_scan

random_flags = st.builds(
    gen_random_flag,
    st.integers(4, 7),
    st.floats(0.15, 0.9),
    st.integers(0, 10 ** 6))


@st.composite
def masks_with_a_lone_vertex(draw):
    """Complexes generated by random masks on n <= 9 vertices, one of
    which lies in no facet; most of them are not flag."""
    n = draw(st.integers(2, 9))
    lone = 1 << draw(st.integers(0, n - 1))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1),
                          min_size=1, max_size=10))
    return SimplicialComplex.from_masks(n, [m & ~lone for m in masks])


def _assert_matches_oracle(cpx):
    """Every subset gets the oracle's lowest dominated vertex (which also
    fixes the collapse order of profile_from_facets), and the scan takes
    Smith form on exactly the subsets the oracle leaves undominated."""
    facets = [tuple(bits_of(f)) for f in cpx.facets]
    stars = _stars(cpx.facets)
    undominated = 0
    for A in range(1, 1 << cpx.n):
        dom = oracle_dominated(facets, bits_of(A))
        assert _dominated_bit(stars, A) == (1 << min(dom) if dom else 0)
        undominated += not dom
    calls = []
    real = homology._integral_entries

    def counting(face_masks):
        calls.append(1)
        return real(face_masks)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(homology, "_integral_entries", counting)
        integral_subset_scan(cpx)
    # the void complex (the dual of a simplex) has no subcomplex to scan
    assert len(calls) == (undominated if cpx.facets else 0)


@given(random_flags)
@settings(max_examples=50)
def test_domination_matches_oracle_on_flags_and_duals(cpx):
    _assert_matches_oracle(cpx)
    _assert_matches_oracle(cpx.alexander_dual())


@given(masks_with_a_lone_vertex())
@settings(max_examples=120)
def test_domination_matches_oracle_non_flag(cpx):
    _assert_matches_oracle(cpx)


def test_domination_matches_oracle_rp2():
    _assert_matches_oracle(gen_rp2_six())
