"""Reduced simplicial (co)homology, exactly.

Two routes: field coefficients use boundary ranks only; integer
coefficients go through Smith normal form.  The two are compared in the
test suite through universal coefficients, so they are kept genuinely
independent.

Degrees are reduced: the empty face lives in degree -1, so the complex
{empty face} has homology of rank one there and the void complex has
none anywhere.
"""

from .complex_core import _maximal, bits_of, face_closure
from .errors import DomainError, PropertyViolation, ResourceError
from .exact_linalg import is_prime, rank, smith_normal_form

DEFAULT_SCAN_CAP = 1 << 22


def parse_coeff(text):
    """Coefficient code: 'q', 'z', or 'f<p>' with p prime."""
    if isinstance(text, int):
        if not is_prime(text):
            raise DomainError(f"{text} is not prime")
        return text
    s = str(text).strip().lower()
    if s in ("q", "z"):
        return s
    if s.startswith("f") and s[1:].isdigit():
        p = int(s[1:])
        if not is_prime(p):
            raise DomainError(f"f{p}: {p} is not prime")
        return p
    raise DomainError(f"unknown coefficient code {text!r}")


def coeff_name(coeff):
    return coeff if isinstance(coeff, str) else f"f{coeff}"


def _faces_by_dim(face_masks):
    """Group face masks, given in (size, vertex tuple) order, by
    dimension; the empty face is dropped."""
    levels = []
    for m in face_masks:
        r = m.bit_count() - 1
        if r < 0:
            continue
        while len(levels) <= r:
            levels.append([])
        levels[r].append(m)
    return levels


def boundary_matrix(levels, r):
    """Row lists of the boundary map from r-faces to (r-1)-faces.

    Degree 0 is augmented: the empty face is the single row.  Degree -1
    is the zero map out of the empty face, which has no rows.
    """
    if r == -1:
        return []
    cols = levels[r] if r < len(levels) else []
    if r == 0:
        return [[1] * len(cols)]
    if r - 1 >= len(levels):
        return []
    row_index = {m: i for i, m in enumerate(levels[r - 1])}
    A = [[0] * len(cols) for _ in row_index]
    for j, f in enumerate(cols):
        sign = 1
        rest = f
        while rest:
            b = rest & -rest
            A[row_index[f ^ b]][j] = sign
            sign = -sign
            rest ^= b
    return A


def _integral_entries(face_masks):
    """Reduced integral homology of the complex whose nonempty faces are
    given; returns ((degree, rank, torsion), ...) for nonzero degrees."""
    if not face_masks:
        return ((-1, 1, ()),)
    levels = _faces_by_dim(face_masks)
    d = len(levels) - 1
    fvec = [1] + [len(lv) for lv in levels]
    snfs = [smith_normal_form(boundary_matrix(levels, r))
            for r in range(d + 1)]
    bd_rank = [0] + [s.rank for s in snfs] + [0]  # index r+1 holds rank of d_r
    entries = []
    for r in range(-1, d + 1):
        rk = fvec[r + 1] - bd_rank[r + 1] - bd_rank[r + 2]
        # d_r d_{r+1} = 0 puts the image of d_{r+1} inside the kernel of
        # d_r, so no rank can come out negative
        if rk < 0:
            raise PropertyViolation(
                f"boundary ranks {bd_rank[r + 1]} and {bd_rank[r + 2]} "
                f"exceed the {fvec[r + 1]} faces of degree {r}")
        tors = snfs[r + 1].torsion() if r + 1 <= d else ()
        if rk or tors:
            entries.append((r, rk, tors))
    return tuple(entries)


def _field_entries(face_masks, coeff):
    """Reduced homology dimensions over Q (coeff 'q') or F_p (coeff p),
    computed from boundary ranks without Smith form."""
    if not face_masks:
        return ((-1, 1),)
    levels = _faces_by_dim(face_masks)
    d = len(levels) - 1
    fvec = [1] + [len(lv) for lv in levels]
    ranks = [0] + [rank(boundary_matrix(levels, r), coeff)
                   for r in range(d + 1)] + [0]
    out = []
    for r in range(-1, d + 1):
        dim = fvec[r + 1] - ranks[r + 1] - ranks[r + 2]
        if dim:
            out.append((r, dim))
    return tuple(out)


class HomologyProfile:
    """Reduced homology of one complex, over one coefficient choice."""

    __slots__ = ("coeff", "entries")

    def __init__(self, coeff, entries):
        self.coeff = coeff
        self.entries = tuple(entries)

    def rank_at(self, deg):
        return entry_rank(self.entries, deg)

    def torsion_at(self, deg):
        return entry_torsion(self.entries, deg) if self.coeff == "z" else ()

    def nonzero_degrees(self):
        return tuple(e[0] for e in self.entries)

    def cohomology_nonzero_degrees(self, coeff=None):
        coeff = self.coeff if coeff is None else parse_coeff(coeff)
        if self.coeff == "z":
            return entry_coh_degrees(self.entries, coeff)
        if coeff != self.coeff:
            raise DomainError("field profile queried over a different ring")
        return self.nonzero_degrees()

    def is_trivial(self):
        return not self.entries

    def torsion_primes(self):
        return entry_torsion_primes(self.entries) if self.coeff == "z" else ()

    def __repr__(self):
        return f"HomologyProfile({coeff_name(self.coeff)}, {self.entries})"


def reduced_homology(cpx, coeff="z"):
    """Reduced homology profile of a SimplicialComplex."""
    coeff = parse_coeff(coeff)
    if cpx.is_void():
        return HomologyProfile(coeff, ())
    masks = [f for f in cpx.faces() if f]
    if coeff == "z":
        return HomologyProfile("z", _integral_entries(masks))
    return HomologyProfile(coeff, _field_entries(masks, coeff))


# -- entry helpers (scan results are plain tuples, not profiles) ---------

def entry_rank(entry, deg):
    for e in entry:
        if e[0] == deg:
            return e[1]
    return 0


def entry_torsion(entry, deg):
    for d, _, tors in entry:
        if d == deg:
            return tors
    return ()


def entry_field_dim(entry, deg, coeff):
    """dim over Q or F_p from integral data via universal coefficients."""
    rk = entry_rank(entry, deg)
    if coeff == "q":
        return rk
    p = coeff
    below = sum(1 for t in entry_torsion(entry, deg) if t % p == 0)
    above = sum(1 for t in entry_torsion(entry, deg - 1) if t % p == 0)
    return rk + below + above


def entry_coh_degrees(entry, coeff):
    degs = set()
    if coeff == "z":
        for d, rk, tors in entry:
            if rk:
                degs.add(d)
            if tors:
                degs.add(d + 1)
        return tuple(sorted(degs))
    cand = set()
    for d, _, _ in entry:
        cand.add(d)
        cand.add(d + 1)  # p-torsion shows up one degree higher
    return tuple(sorted(d for d in cand if entry_field_dim(entry, d, coeff)))


def entry_torsion_primes(entry):
    primes = set()
    for _, _, tors in entry:
        for t in tors:
            primes.update(_prime_factors(t))
    return tuple(sorted(primes))


def _prime_factors(x):
    out = []
    d = 2
    while d * d <= x:
        if x % d == 0:
            out.append(d)
            while x % d == 0:
                x //= d
        d += 1
    if x > 1:
        out.append(x)
    return out


# -- homology straight from facet masks, with nerve hops -----------------

def profile_from_facets(facet_masks):
    """Integral homology entries for the complex generated by the given
    facet masks.  Dominated vertices are deleted first (strong
    collapses, see `_dominated_bit`), so a cone ends as one point.  A
    core of more than 4096 estimated faces moves to the nerve of its
    facet cover when the nerve's estimate is smaller (facet
    intersections are simplices, so the nerve has the same homotopy
    type); each such hop shrinks the estimate, so the hops end."""
    facet_masks = list(facet_masks)
    if not facet_masks:
        return ()
    nonzero = [m for m in facet_masks if m]
    if not nonzero:
        return ((-1, 1, ()),)
    core = 0
    for m in nonzero:
        core |= m
    stars = _stars(nonzero)
    while b := _dominated_bit(stars, core):
        core ^= b
    if core & (core - 1) == 0:
        return ()  # collapses to a point
    nonzero = [t for t in {m & core for m in nonzero} if t]
    est = sum(1 << m.bit_count() for m in nonzero)
    if est > 4096:
        # big top faces, few of them: the nerve is usually far smaller
        nerve = facet_nerve(nonzero)
        if sum(1 << t.bit_count() for t in nerve) < est:
            return profile_from_facets(nerve)
    # face_closure lists the empty face first
    return _integral_entries(face_closure(nonzero)[1:])


def facet_nerve(facet_masks):
    """Facets of the nerve of the cover by top faces: one nerve vertex
    per facet, a nerve face per set of facets meeting in a vertex."""
    uniq = sorted(set(facet_masks))
    membership = {}
    for i, f in enumerate(uniq):
        for v in bits_of(f):
            membership[v] = membership.get(v, 0) | (1 << i)
    return _maximal(membership.values())


# -- full scan over induced subcomplexes ---------------------------------

def _stars(facets):
    """For each vertex bit v of the given facets, the pair (N[v], the
    facets through v), where the closed neighbourhood N[v] is the union
    of the facets through v."""
    stars = {}
    for f in facets:
        rest = f
        while rest:
            b = rest & -rest
            rest ^= b
            star = stars.get(b)
            if star is None:
                stars[b] = [f, [f]]
            else:
                star[0] |= f
                star[1].append(f)
    return stars


def _dominated_bit(stars, A):
    """Lowest bit of a vertex of A that is dominated in the induced
    subcomplex K_A, or 0 when no vertex is; `stars` is `_stars` of the
    facets of K.

    b is dominated by u when u lies in every facet of K_A through b;
    deleting b is then a strong collapse (Barmak-Minian), so K_A and
    K_{A - b} have the same integral homology.  A vertex of A in no
    face of K_A counts as dominated by any other vertex of A.

    Every face of K_A through b lies in some f & A with f a facet of K
    through b, so u dominates b exactly when each (f & A) | u is a face,
    that is, lies in a facet through u.  Each w of N[b] & A then shares
    a facet with u, so N[b] & A inside N[u] is necessary: one AND rules
    out most candidates u before any facet is read."""
    rest = A
    while rest:
        b = rest & -rest
        rest ^= b
        star = stars.get(b)
        if star is None:
            if A != b:
                return b
            continue
        near, through_b = star
        near &= A
        cands = near ^ b
        while cands:
            u = cands & -cands
            cands ^= u
            near_u, through_u = stars[u]
            if near & ~near_u:
                continue
            for f in through_b:
                if f & u:
                    continue  # (f & A) | u lies in f itself
                r = f & A | u
                for g in through_u:
                    if not r & ~g:
                        break
                else:
                    break  # (f & A) | u is no face
            else:
                return b
    return 0


def integral_subset_scan(cpx, cap=DEFAULT_SCAN_CAP):
    """Integral homology entries of every induced subcomplex, indexed by
    the vertex-subset bitmask.  A subset with a dominated vertex copies
    the entry of the smaller subset without it; only the rest get a
    Smith pass.  The result is kept on the complex object and dies with
    it."""
    if cpx._scan is not None:
        return cpx._scan
    total = 1 << cpx.n
    if total > cap:
        raise ResourceError(
            f"subset scan needs {total} evaluations, cap is {cap}")
    facets = cpx.facets
    if not facets:
        cpx._scan = ((),) * total
        return cpx._scan
    faces = [f for f in cpx.faces() if f]
    stars = _stars(facets)
    out = [None] * total
    out[0] = ((-1, 1, ()),)
    shared = {}  # few distinct entries: hold each one once
    for A in range(1, total):
        v = _dominated_bit(stars, A)
        if v:
            # A ^ v < A, so the ascending loop has filled it already
            out[A] = out[A ^ v]
            continue
        entry = _integral_entries([f for f in faces if not f & ~A])
        out[A] = shared.setdefault(entry, entry)
    cpx._scan = tuple(out)
    return cpx._scan


def scan_torsion_primes(scan):
    primes = set()
    for entry in set(scan):
        primes.update(entry_torsion_primes(entry))
    return tuple(sorted(primes))
