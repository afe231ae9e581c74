"""Finite quotients of the thickened Davis complex.

Reduction mod m sends the reflection group onto a finite matrix group;
spherical cosets become cells, cells become simplices, and when the
kernel provably moves every chamber far enough the result inherits the
nerve's local structure.  Certificates carry every check outcome so a
rejected run is never silent.
"""

import hashlib
import json
from itertools import combinations

from .complex_core import SimplicialComplex, bits_of, mask_of
from .errors import DomainError, PropertyViolation, ResourceError
from .racg import (
    DEFAULT_BALL_BUDGET,
    build_system,
    evaluate_word,
    kernel_displacement_search,
    sufficient_modulus,
)

DEFAULT_GROUP_BUDGET = 1 << 20


class ConstructionRejected(PropertyViolation):
    """Pipeline declined to emit; the certificate says why."""

    def __init__(self, message, certificate):
        super().__init__(message)
        self.certificate = certificate


def _mul_mod(a, b, m):
    n = len(a)
    return tuple(
        tuple(sum(a[r][k] * b[k][c] for k in range(n)) % m
              for c in range(n))
        for r in range(n))


class ImageGroup:
    """Image of the integer representation in GL_n(Z/m), kept as its
    right action table: act[i][s] is the index of element i times
    generator s.  Elements are numbered breadth-first from the identity
    0, generators in order."""

    __slots__ = ("rep", "m", "act")

    def __init__(self, rep, m, act):
        self.rep = rep
        self.m = m
        self.act = act

    @property
    def order(self):
        return len(self.act)

    def times(self, i, word):
        """Index of element i times the product of the word's generators."""
        act = self.act
        for s in word:
            i = act[i][s]
        return i

    def word_image(self, word):
        return self.times(0, word)

    def __repr__(self):
        return f"ImageGroup(m={self.m}, order={self.order})"


def image_group(rep, m, budget=DEFAULT_GROUP_BUDGET):
    """Closure of the generator images mod m under multiplication."""
    if m < 2:
        raise DomainError("modulus must be >= 2")
    n = rep.n
    ident = tuple(tuple(1 if r == c else 0 for c in range(n))
                  for r in range(n))
    gen_images = [tuple(tuple(x % m for x in row) for row in g.data)
                  for g in rep.generators]
    index = {ident: 0}
    elements = [ident]
    act = []
    # the loop also visits the elements it appends: a breadth-first queue
    for el in elements:
        row = []
        for G in gen_images:
            prod = _mul_mod(el, G, m)
            j = index.get(prod)
            if j is None:
                if len(elements) >= budget:
                    raise ResourceError(
                        f"image group exceeded budget {budget} elements")
                j = index[prod] = len(elements)
                elements.append(prod)
            row.append(j)
        act.append(tuple(row))
    return ImageGroup(rep, m, tuple(act))


class QuotientComplex:
    """Cells g.image(W_T) of the quotient, one per nerve facet T and coset."""

    __slots__ = ("group", "cells", "coset_sizes_ok")

    def __init__(self, group, cells, coset_sizes_ok):
        self.group = group
        self.cells = cells
        self.coset_sizes_ok = coset_sizes_ok

    def __repr__(self):
        return (f"QuotientComplex(order={self.group.order}, "
                f"cells={len(self.cells)})")


def quotient_complex(rep, group):
    """Cells of the nerve's facets only: a face T lies in a facet T', so
    g.W_T lies in g.W_T' and collapses only if g.W_T' does."""
    if group.rep is not rep:
        raise DomainError("group was built from a different representation")
    cells = {}
    sizes_ok = True
    for t_mask in rep.nerve.facets:
        verts = bits_of(t_mask)
        words = [sub for r in range(len(verts) + 1)
                 for sub in combinations(verts, r)]
        for g in range(group.order):
            coset = frozenset(group.times(g, w) for w in words)
            if len(coset) != len(words):
                sizes_ok = False
            cells[(t_mask, coset)] = None
    ordered = sorted(cells,
                     key=lambda c: (c[0].bit_count(), c[0], sorted(c[1])))
    return QuotientComplex(group, tuple(ordered), sizes_ok)


def thicken(q):
    """Simplicial complex on the group elements: every cell becomes the
    simplex on its vertex set, and vertex i is element i."""
    order = q.group.order
    return SimplicialComplex.from_masks(
        order, (mask_of(es) for _, es in q.cells),
        tuple(f"g{i}" for i in range(order)))


class ConstructionCertificate:
    __slots__ = ("k", "m", "displacement_status", "torsion_free",
                 "link_check", "largeness_ok", "counterexample",
                 "sampled_vertices", "link_hashes", "group_order",
                 "detail", "emitted")

    def __init__(self, k, m, displacement_status, torsion_free,
                 link_check=None, largeness_ok=None, counterexample=None,
                 sampled_vertices=(), link_hashes=None, group_order=None,
                 detail=None, emitted=False):
        self.k = k
        self.m = m
        self.displacement_status = displacement_status
        self.torsion_free = torsion_free
        self.link_check = link_check
        self.largeness_ok = largeness_ok
        self.counterexample = counterexample
        self.sampled_vertices = tuple(sampled_vertices)
        self.link_hashes = link_hashes or {}
        self.group_order = group_order
        self.detail = detail
        self.emitted = emitted

    def to_dict(self):
        return {
            "k": self.k,
            "m": self.m,
            "displacement_status": self.displacement_status,
            "torsion_free": self.torsion_free,
            "link_check": self.link_check,
            "largeness_ok": self.largeness_ok,
            "counterexample": (list(self.counterexample)
                               if self.counterexample is not None else None),
            "sampled_vertices": list(self.sampled_vertices),
            "link_hashes": dict(self.link_hashes),
            "group_order": self.group_order,
            "detail": self.detail,
            "emitted": self.emitted,
        }


def _spherical_faces(rep, group):
    """Nonempty nerve faces as vertex tuples; None when two of their
    spherical elements collide mod m or one of them dies."""
    faces = [tuple(bits_of(t)) for t in rep.nerve.faces() if t]
    images = {group.word_image(s) for s in faces}
    return faces if len(images) == len(faces) and 0 not in images else None


def _check_vertex_link(star, expected, group, faces, g):
    """The link of vertex g, pulled back through h -> g^{-1}h, must be
    the expected face-complex link; star lists the facets through g.
    h = g s exactly when g^{-1}h = s, so the pullback needs no inverse."""
    near = {group.times(g, s): s for s in faces}
    link_facets = set()
    for f in star:
        rest = f & ~(1 << g)
        mapped = []
        for h in bits_of(rest):
            s = near.get(h)
            if s is None:
                return False, None
            mapped.append(s)
        link_facets.add(frozenset(mapped))
    canon = sorted(sorted(sorted(face) for face in fs) for fs in link_facets)
    digest = hashlib.sha256(
        json.dumps(canon, separators=(",", ":")).encode()).hexdigest()
    return link_facets == expected, digest


def s_construction(delta, k, m=None, ball_budget=DEFAULT_BALL_BUDGET,
                   group_budget=DEFAULT_GROUP_BUDGET):
    """Large-girth cover pipeline: certify that the mod-m kernel moves
    every chamber at least k steps, then return the thickened quotient
    with its certificate."""
    if k < 4:
        raise DomainError("target largeness k must be >= 4")
    largeness = delta.largeness()
    if not largeness.is_k_large(k):
        raise DomainError(
            f"input complex is not {k}-large "
            f"(flag={largeness.flag}, "
            f"shortest induced cycle={largeness.shortest_induced_cycle})")
    rep = build_system(delta)
    if m is None:
        m = sufficient_modulus(delta.dim, k)
    if m < 2:
        raise DomainError("modulus must be >= 2")

    if m <= 2:
        # generators already die mod 2, so the kernel moves nothing
        word = (0,)
        counter = word if evaluate_word(rep, word, mod=m).is_identity() \
            else None
        cert = ConstructionCertificate(
            k, m, "COUNTEREXAMPLE" if counter else "UNDECIDED",
            torsion_free=False, counterexample=counter,
            detail="torsion-free reduction needs m > 2")
        raise ConstructionRejected(
            f"mod {m} quotient is never torsion-free", cert)

    search = kernel_displacement_search(rep, m, k, ball_budget)
    if search.status == "COUNTEREXAMPLE":
        cert = ConstructionCertificate(
            k, m, search.status, torsion_free=True,
            counterexample=search.witness, detail=search.detail)
        raise ConstructionRejected(
            f"kernel element of small displacement mod {m}: "
            f"word {list(search.witness)}", cert)
    if search.status == "UNDECIDED":
        cert = ConstructionCertificate(
            k, m, search.status, torsion_free=True, detail=search.detail)
        err = ResourceError(
            f"displacement search undecided: {search.detail}")
        err.certificate = cert
        raise err

    group = image_group(rep, m, group_budget)
    quotient = quotient_complex(rep, group)
    out = thicken(quotient)

    order = group.order
    faces = _spherical_faces(rep, group)
    link_ok = faces is not None
    hashes = {}
    if link_ok:
        # every link must pull back to the face complex of the nerve
        expected = {frozenset(s for s in faces if mask_of(s) & ~tau == 0)
                    for tau in delta.facets}
        stars = [[] for _ in range(order)]
        for f in out.facets:
            for g in bits_of(f):
                stars[g].append(f)
        for g in range(order):
            ok, digest = _check_vertex_link(stars[g], expected, group,
                                            faces, g)
            if digest is not None:
                hashes[str(g)] = digest
            if not ok:
                link_ok = False
                break
    largeness_ok = out.largeness().is_k_large(k)
    failed = [name for name, ok in (("vertex link check", link_ok),
                                    (f"{k}-largeness check", largeness_ok),
                                    ("coset size check",
                                     quotient.coset_sizes_ok)) if not ok]
    cert = ConstructionCertificate(
        k, m, "CERTIFIED", torsion_free=True, link_check=link_ok,
        largeness_ok=largeness_ok, sampled_vertices=range(order),
        link_hashes=hashes, group_order=order,
        detail=search.detail, emitted=not failed)
    if failed:
        # the certificate has no coset field, so its detail names them all
        cert.detail = (cert.detail or "") + "; failed: " + ", ".join(failed)
        raise ConstructionRejected(
            f"mod {m} quotient failed the {', '.join(failed)}", cert)
    return out, cert
