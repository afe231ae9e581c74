"""Finite quotients mod m, Davis-style cells, thickening, certificates."""

import hashlib
from itertools import combinations, product

import pytest

from srcox.complex_core import (
    SimplicialComplex,
    bits_of,
    gen_cycle,
    mask_of,
    parse_cplx,
)
from srcox import quotient_builder as qb
from srcox.errors import DomainError, ResourceError
from srcox.quotient_builder import (
    ConstructionRejected,
    image_group,
    quotient_complex,
    s_construction,
    thicken,
)
from srcox.racg import build_system, evaluate_word, sufficient_modulus


@pytest.fixture
def free_rep(two_points):
    return build_system(two_points)


def test_image_group_orders(free_rep):
    # D_infty surjects onto D_m for odd m: order 2m
    for m in (3, 5, 7, 9, 11):
        assert image_group(free_rep, m).order == 2 * m
    # mod 2 both generators die
    assert image_group(free_rep, 2).order == 1


def test_image_group_single_vertex():
    rep = build_system(SimplicialComplex.from_facets([], ["a"]))
    g = image_group(rep, 3)
    assert g.order == 2


def test_image_group_ops(free_rep):
    g = image_group(free_rep, 5)
    assert len(g.act) == g.order == 10
    for s in range(free_rep.n):
        column = [row[s] for row in g.act]
        # right multiplication by a generator permutes the elements ...
        assert sorted(column) == list(range(g.order))
        # ... and is an involution
        assert all(column[column[i]] == i for i in range(g.order))
    words = _words(free_rep.n, 4)
    for u in words:
        for v in words:
            assert g.times(g.word_image(u), v) == g.word_image(u + v)


def _words(n, length):
    """Every word of at most `length` letters on n generators."""
    return [w for r in range(length + 1)
            for w in product(range(n), repeat=r)]


@pytest.mark.parametrize("points, m", [("ab", 5), ("abc", 3)])
def test_image_group_matches_matrices(points, m):
    # two words name one element exactly when their matrices agree mod m
    rep = build_system(SimplicialComplex.from_facets([], list(points)))
    g = image_group(rep, m)
    words = _words(rep.n, 4)
    mats = [evaluate_word(rep, w, mod=m).data for w in words]
    idx = [g.word_image(w) for w in words]
    for i in range(len(words)):
        for j in range(i + 1, len(words)):
            assert (idx[i] == idx[j]) == (mats[i] == mats[j])


def test_image_group_budget(free_rep):
    with pytest.raises(ResourceError):
        image_group(free_rep, 101, budget=10)


def test_quotient_cells_ten_cycle(free_rep):
    g = image_group(free_rep, 5)
    q = quotient_complex(free_rep, g)
    assert q.coset_sizes_ok
    # only the nerve's facets, the two points, give cells: ten edges,
    # with every element in one edge per generator
    assert len(q.cells) == 10
    assert all(t != 0 and len(es) == 2 for t, es in q.cells)
    assert sorted(e for _, es in q.cells for e in es) == \
        sorted(list(range(10)) * 2)


def _cells_of_every_face(rep, group):
    """Cosets of every nerve face and whether none collapses."""
    cells, ok = set(), True
    for t in rep.nerve.faces():
        words = [w for r in range(t.bit_count() + 1)
                 for w in combinations(bits_of(t), r)]
        for g in range(group.order):
            coset = frozenset(group.times(g, w) for w in words)
            ok = ok and len(coset) == len(words)
            cells.add(coset)
    return cells, ok


@pytest.mark.parametrize("text", ["isolated: a b\n", "isolated: a b c\n",
                                  "a b\nb c\n", "a b c\nc d\n",
                                  "a b\nb c\nc d\nd a\n"])
@pytest.mark.parametrize("m", [2, 3, 5])
def test_facet_cells_thicken_like_every_face(text, m):
    # a face's coset lies in its facet's coset and collapses only with it
    rep = build_system(parse_cplx(text))
    group = image_group(rep, m)
    q = quotient_complex(rep, group)
    cells, ok = _cells_of_every_face(rep, group)
    assert q.coset_sizes_ok == ok
    assert thicken(q) == SimplicialComplex.from_masks(
        group.order, [mask_of(c) for c in cells])


def test_vertex_link_rejects_unreached_neighbour(free_rep):
    group = image_group(free_rep, 5)
    faces = qb._spherical_faces(free_rep, group)
    reached = {group.times(0, s) for s in faces}
    expected = {frozenset([s]) for s in faces}
    star = [1 | 1 << h for h in sorted(reached)]
    ok, digest = qb._check_vertex_link(star, expected, group, faces, 0)
    assert ok and digest is not None
    # a neighbour that no spherical face reaches from vertex 0
    far = min(set(range(1, group.order)) - reached)
    assert qb._check_vertex_link(star + [1 | 1 << far], expected, group,
                                 faces, 0) == (False, None)


def test_quotient_rejects_foreign_rep(free_rep):
    other = build_system(SimplicialComplex.from_facets([], ["x", "y"]))
    g = image_group(free_rep, 5)
    with pytest.raises(DomainError):
        quotient_complex(other, g)


def test_thicken_ten_cycle(free_rep):
    g = image_group(free_rep, 5)
    out = thicken(quotient_complex(free_rep, g))
    assert out.n == 10
    assert out.labels == tuple(f"g{i}" for i in range(10))
    rep = out.largeness()
    assert rep.flag and rep.shortest_induced_cycle == 10


def test_thicken_one_chamber():
    # trivial image group: a single chamber collapses to one vertex
    rep = build_system(SimplicialComplex.from_facets([], ["a"]))
    g = image_group(rep, 2)
    assert g.order == 1
    q = quotient_complex(rep, g)
    out = thicken(q)
    assert out.n == 1 and out.facets == (1,)


def test_s_construction_pilot(two_points):
    out, cert = s_construction(two_points, 4, m=5)
    assert cert.emitted and cert.displacement_status == "CERTIFIED"
    assert cert.torsion_free and cert.link_check and cert.largeness_ok
    assert cert.group_order == 10
    assert out.n == 10
    # every vertex link is the face complex of the input: two points
    for v in range(out.n):
        lk = out.link([v])
        assert sorted(len(bits_of(f)) for f in lk.facets) == [1, 1]
    hashes = set(cert.link_hashes.values())
    assert len(cert.link_hashes) == 10 and len(hashes) == 1


def test_s_construction_checks_every_link():
    # order 120, past the old 64-vertex cut-off for sampling 8 links
    three = SimplicialComplex.from_facets([], ["a", "b", "c"])
    out, cert = s_construction(three, 4, m=5)
    assert cert.emitted and cert.link_check and cert.group_order == 120
    assert cert.sampled_vertices == tuple(range(120))
    assert set(cert.link_hashes) == {str(g) for g in range(120)}
    assert len(set(cert.link_hashes.values())) == 1


def test_s_construction_default_modulus(two_points):
    out, cert = s_construction(two_points, 4)
    assert cert.m == 27 and cert.emitted
    assert out.n == 54
    assert out.largeness().shortest_induced_cycle == 54


def test_s_construction_rejects_mod2(two_points):
    with pytest.raises(ConstructionRejected) as exc:
        s_construction(two_points, 4, m=2)
    cert = exc.value.certificate
    assert cert.torsion_free is False
    assert cert.displacement_status == "COUNTEREXAMPLE"
    assert exc.value.exit_code == 4


def test_s_construction_rejects_pentagon_mod5(pentagon):
    with pytest.raises(ConstructionRejected) as exc:
        s_construction(pentagon, 5, m=5)
    cert = exc.value.certificate
    assert cert.displacement_status == "COUNTEREXAMPLE"
    assert cert.torsion_free is True  # the girth gate failed, not torsion
    word = cert.counterexample
    rep = build_system(pentagon)
    assert evaluate_word(rep, word, mod=5).is_identity()
    assert not evaluate_word(rep, word).is_identity()


def test_s_construction_rejects_non_large(octahedron, rp2):
    with pytest.raises(DomainError):
        s_construction(octahedron, 5)   # only 4-large
    with pytest.raises(DomainError):
        s_construction(rp2, 4)          # not flag
    with pytest.raises(DomainError):
        s_construction(gen_cycle(5), 4, m=1)


def test_s_construction_undecided_carries_certificate(two_points):
    with pytest.raises(ResourceError) as exc:
        s_construction(two_points, 4, m=5, ball_budget=5)
    cert = exc.value.certificate
    assert cert.displacement_status == "UNDECIDED"
    assert not cert.emitted


def test_certificate_serialization(two_points):
    _, cert = s_construction(two_points, 4, m=5)
    d = cert.to_dict()
    assert d["k"] == 4 and d["m"] == 5
    assert d["displacement_status"] == "CERTIFIED"
    assert set(d["link_hashes"]) == {str(i) for i in range(10)} or \
        set(d["link_hashes"]) == set(range(10))


# frozen link digests: every link of one nerve pulls back to the same
# face complex, so to the same digest, and a wrong pullback changes it
TWO_POINT_LINK = \
    "4d4ddfb4d0a9accba4ef44c8ff1846bd88eafb26edf80bc547364acf8e2020ac"
THREE_POINT_LINK = \
    "e162b702f68780abf9cc47094742a8a402256fc98e503391fcd63945dc7d713f"


@pytest.mark.parametrize("points, k, m, order, girth, digest", [
    ("ab", 4, 5, 10, 10, TWO_POINT_LINK),
    ("abc", 4, 3, 24, 6, THREE_POINT_LINK),
    ("abc", 4, 5, 120, 10, THREE_POINT_LINK),
    ("abc", 5, 7, 336, 12, THREE_POINT_LINK),
])
def test_s_construction_frozen_certificates(points, k, m, order, girth,
                                            digest):
    delta = SimplicialComplex.from_facets([], list(points))
    out, cert = s_construction(delta, k, m=m)
    assert cert.emitted and cert.group_order == order
    assert cert.link_hashes == {str(g): digest for g in range(order)}
    assert out.largeness().shortest_induced_cycle == girth


# frozen thickened outputs: vertex i is group element i, numbered
# breadth-first in generator order, so these pin the numbering too
@pytest.mark.parametrize("points, k, m, digest", [
    ("ab", 4, 5,
     "d57ba2e1a70b9ec10ae948563679b15a17e7f0c284e6079c42b54607e75b0b2f"),
    ("abc", 4, 3,
     "94f360ac98618ec61f16e73d30443ddbeb469aa0378ff23ef717ec4fb0a277bb"),
    ("abc", 4, 5,
     "c4d39b14ada0817d1af22bb236a1deab2cd76d8b8ec699f78f6c89ad4627b0e1"),
    ("abc", 5, 7,
     "4ae4c40af72f53cbe2d8343d5054ce2468d2a945adaceda7f74590d59bdab693"),
    ("ab", 7, None,
     "f6dcb36ba3d49aa436d3bd5b3891dec9d0a6324e929ca0663232bf5e3918907b"),
])
def test_thicken_frozen_numbering(points, k, m, digest):
    delta = SimplicialComplex.from_facets([], list(points))
    rep = build_system(delta)
    m = m or sufficient_modulus(delta.dim, k)
    out = thicken(quotient_complex(rep, image_group(rep, m)))
    assert hashlib.sha256(out.to_cplx().encode()).hexdigest() == digest


def _with_group_mod(monkeypatch, mod):
    # tampered group: the closure is taken mod `mod`, not the certified m
    real = qb.image_group
    monkeypatch.setattr(qb, "image_group",
                        lambda rep, m, budget: real(rep, mod, budget))


def test_s_construction_rejects_failed_largeness(monkeypatch, two_points):
    # mod 3 closes D_infty up into a 6-cycle, which is not 7-large; every
    # vertex link is still two points
    _with_group_mod(monkeypatch, 3)
    with pytest.raises(ConstructionRejected) as exc:
        s_construction(two_points, 7, m=5)
    cert = exc.value.certificate
    assert exc.value.exit_code == 4
    assert cert.displacement_status == "CERTIFIED"
    assert cert.link_check is True and cert.largeness_ok is False
    assert not cert.emitted and cert.group_order == 6
    assert "7-largeness" in cert.detail


def test_s_construction_rejects_collapsed_cosets(monkeypatch, two_points):
    # mod 2 both generators die: the spherical cosets collapse and the
    # generator images hit the identity, so the link check fails too
    _with_group_mod(monkeypatch, 2)
    with pytest.raises(ConstructionRejected) as exc:
        s_construction(two_points, 4, m=5)
    cert = exc.value.certificate
    assert cert.link_check is False and not cert.emitted
    assert "coset size" in cert.detail and "vertex link" in cert.detail


def test_s_construction_rejects_broken_link(monkeypatch, two_points):
    # tampered cell set: one edge cell of the 10-cycle goes missing, so
    # its two end vertices have a one-point link
    real = qb.quotient_complex

    def drop_last_cell(rep, group):
        q = real(rep, group)
        return qb.QuotientComplex(q.group, q.cells[:-1], q.coset_sizes_ok)

    monkeypatch.setattr(qb, "quotient_complex", drop_last_cell)
    with pytest.raises(ConstructionRejected) as exc:
        s_construction(two_points, 4, m=5)
    cert = exc.value.certificate
    assert cert.link_check is False and cert.largeness_ok is True
    assert not cert.emitted
    assert cert.detail.endswith("failed: vertex link check")
