"""Right-angled Coxeter systems presented by flag complexes.

The nerve's vertices become involutive generators; commuting pairs are
exactly the edges.  Each generator acts on Z^n as a reflection written
down from the cosine matrix, giving a faithful integer representation
whose mod-m reductions furnish the finite quotients used downstream.
"""

import numpy as np

from .complex_core import bits_of
from .errors import DomainError, ResourceError
from .exact_linalg import IntMatrix

DEFAULT_BALL_BUDGET = 2_000_000

# int64 matrix products stay exact below this; above it the ball walker
# widens its arrays to unbounded python integers
_SAFE_PRODUCT = 1 << 62


class RacgRepresentation:
    __slots__ = ("nerve", "generators", "n")

    def __init__(self, nerve, generators):
        self.nerve = nerve
        self.generators = generators
        self.n = nerve.n

    def __repr__(self):
        return f"RacgRepresentation(n={self.n})"


def build_system(nerve):
    """Canonical reflection representation of the right-angled system
    whose commuting pairs are the nerve's edges."""
    if not nerve.is_flag():
        raise DomainError(
            "the right-angled correspondence needs a flag complex")
    n = nerve.n
    adj = nerve.adjacency()
    cosine = tuple(tuple(
        1 if i == j else (0 if adj[i] >> j & 1 else -1)
        for j in range(n)) for i in range(n))
    gens = []
    for i in range(n):
        rows = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
        for j in range(n):
            # rho(s_i) = I - 2 e_i . row_i(cosine)
            rows[i][j] = (1 if i == j else 0) - 2 * cosine[i][j]
        gens.append(IntMatrix(rows))
    return RacgRepresentation(nerve, tuple(gens))


def spherical_elements(rep):
    """One group element per nonempty face: the product of its pairwise
    commuting generators (order immaterial)."""
    out = []
    # faces() already lists them in (size, vertex tuple) order
    for f in rep.nerve.faces():
        if not f:
            continue
        verts = tuple(bits_of(f))
        out.append((verts, evaluate_word(rep, verts)))
    return out


def evaluate_word(rep, word, mod=None):
    """Left-to-right product of generators; reduced mod m along the way
    when a modulus is given."""
    mat = IntMatrix.identity(rep.n)
    for i in word:
        if not 0 <= i < rep.n:
            raise DomainError(f"generator index {i} out of range")
        mat = mat @ rep.generators[i]
        if mod is not None:
            mat = mat.mod(mod)
    return mat


class BallReport:
    """Exact Cayley ball: distinct group elements by geodesic length."""

    __slots__ = ("generating_set", "max_length", "level_counts",
                 "level_max_entry", "complete", "elements", "words",
                 "element_levels")

    def __init__(self, generating_set, max_length, level_counts,
                 level_max_entry, complete, elements, words, element_levels):
        self.generating_set = generating_set
        self.max_length = max_length
        self.level_counts = level_counts
        self.level_max_entry = level_max_entry
        self.complete = complete
        self.elements = elements
        self.words = words
        self.element_levels = element_levels

    def total(self):
        return len(self.elements)

    def to_dict(self):
        return {
            "generating_set": self.generating_set,
            "max_length": self.max_length,
            "complete": self.complete,
            "levels": [
                {"length": l, "count": c, "max_entry": m}
                for l, (c, m) in enumerate(
                    zip(self.level_counts, self.level_max_entry))
            ],
            "total": self.total(),
        }


def _max_entry(elements, idxs):
    return max(max(abs(x) for row in elements[i] for x in row) for i in idxs)


def word_ball(rep, max_length, generating_set="standard",
              budget=DEFAULT_BALL_BUDGET):
    """Breadth-first enumeration of all distinct elements of geodesic
    length <= max_length under the chosen generating set.

    Standard generators give word length; spherical elements give
    displacement.  Deduplication is on exact entries, so levels are
    genuinely geodesic; standard levels first drop the products that
    right descents show are not new.  Budget overruns raise with the
    partial report attached (never usable for certification).
    """
    if max_length < 0:
        raise DomainError("ball radius must be >= 0")
    if generating_set == "standard":
        gen_words = [(i,) for i in range(rep.n)]
        gen_mats = [g for g in rep.generators]
    elif generating_set == "spherical":
        sph = spherical_elements(rep)
        gen_words = [verts for verts, _ in sph]
        gen_mats = [mat for _, mat in sph]
    else:
        raise DomainError(f"unknown generating set {generating_set!r}")

    ident = IntMatrix.identity(rep.n)
    index = {ident.data: 0}
    elements = [ident.data]
    words = [()]
    element_levels = [0]
    level_counts = [1]
    level_max_entry = [1]
    frontier = [0]
    max_gen_entry = max(g.max_abs() for g in gen_mats) if gen_mats else 1

    def report(complete):
        return BallReport(generating_set, max_length, level_counts,
                          level_max_entry, complete, elements, words,
                          element_levels)

    def add(key, word, length, found):
        index[key] = len(elements)
        found.append(len(elements))
        elements.append(key)
        words.append(word)
        element_levels.append(length)
        if len(elements) > budget:
            level_counts.append(len(found))
            level_max_entry.append(_max_entry(elements, found))
            raise ResourceError(
                f"ball budget {budget} exceeded at length {length}",
                partial=report(False))

    np_gens = [np.array(g.data, dtype=np.int64) for g in gen_mats]
    stack = np.array([ident.data], dtype=np.int64)
    for length in range(1, max_length + 1):
        if (stack.dtype != object and rep.n * max(level_max_entry)
                * max_gen_entry >= _SAFE_PRODUCT):
            # int64 products could overflow from here on: widen once to
            # exact python ints (object dtype)
            stack = stack.astype(object)
            np_gens = [G.astype(object) for G in np_gens]
        found = []
        peak = 0
        parts = []
        for gi, G in enumerate(np_gens):
            prods = stack @ G
            if generating_set == "standard":
                # column j of u is the root u(alpha_j), all <= 0 just
                # when s_j is a right descent of u (Humphreys 5.4);
                # u = w s_g is new, and met first here, just when g
                # is the smallest right descent of u
                neg = (prods <= 0).all(axis=1)
                rows = np.flatnonzero(
                    neg[:, gi] & ~neg[:, :gi].any(axis=1)).tolist()
            else:
                rows = range(len(prods))
            added = []
            for r in rows:
                # one row at a time: a whole level as nested lists
                # costs more memory than the ball itself
                key = tuple(map(tuple, prods[r].tolist()))
                if key not in index:
                    add(key, words[frontier[r]] + gen_words[gi], length,
                        found)
                    added.append(r)
            if added:
                # row-wise max and min: np.abs would copy the products
                peak = max(peak, int(prods.max(axis=(1, 2))[added].max()),
                           -int(prods.min(axis=(1, 2))[added].min()))
                if length < max_length:
                    parts.append(prods[added])
        if parts:
            stack = np.concatenate(parts)
        if not found:
            break
        level_counts.append(len(found))
        level_max_entry.append(peak)
        frontier = found
    return report(True)


def _is_identity_mod(rows, m):
    """Whether the integer matrix given by its rows is I mod m; stops at
    the first entry that says no."""
    for r, row in enumerate(rows):
        for c, x in enumerate(row):
            if (x - (r == c)) % m:
                return False
    return True


class DisplacementSearch:
    __slots__ = ("status", "m", "k", "ball_length", "witness",
                 "elements_seen", "detail")

    def __init__(self, status, m, k, ball_length, witness, elements_seen,
                 detail):
        self.status = status
        self.m = m
        self.k = k
        self.ball_length = ball_length
        self.witness = witness
        self.elements_seen = elements_seen
        self.detail = detail

    def to_dict(self):
        return {
            "status": self.status,
            "m": self.m,
            "k": self.k,
            "ball_length": self.ball_length,
            "witness": list(self.witness) if self.witness else None,
            "elements_seen": self.elements_seen,
            "detail": self.detail,
        }


def kernel_displacement_search(rep, m, k, budget=DEFAULT_BALL_BUDGET):
    """Look for a nontrivial element of the mod-m kernel at small
    displacement.  The standard-generator ball of radius (d+1)*k covers
    every product of at most k-1 spherical factors (each spherical
    element is a word of length <= d+1), so an empty intersection with
    the kernel certifies displacement >= k for the reduction mod m.
    """
    if m <= 2:
        raise DomainError("kernel search needs m > 2")
    if k < 4:
        raise DomainError("target largeness k must be >= 4")
    d = rep.nerve.dim
    if d is None:
        raise DomainError("nerve must be nonvoid")
    length = (d + 1) * k
    try:
        ball = word_ball(rep, length, "standard", budget)
    except ResourceError as e:
        partial = e.partial
        seen = partial.total() if partial else 0
        return DisplacementSearch(
            "UNDECIDED", m, k, length, None, seen,
            f"budget {budget} exhausted before radius {length}")
    for i in range(1, ball.total()):
        if _is_identity_mod(ball.elements[i], m):
            return DisplacementSearch(
                "COUNTEREXAMPLE", m, k, length, ball.words[i],
                ball.total(),
                f"word of length {ball.element_levels[i]} in the kernel")
    return DisplacementSearch(
        "CERTIFIED", m, k, length, None, ball.total(),
        f"no nontrivial kernel element within radius {length}")


def sufficient_modulus(d, k):
    """Modulus (2d+3)^(k-1) guaranteed to exceed every entry reachable
    in k-1 spherical factors, hence certifiable for target k."""
    if d < 0:
        raise DomainError("nerve dimension must be >= 0")
    if k < 4:
        raise DomainError("target largeness k must be >= 4")
    return (2 * d + 3) ** (k - 1)
