"""Invariants of Stanley-Reisner rings read off induced subcomplexes.

Betti numbers come from summing reduced cohomology dimensions of
induced subcomplexes; regularity from the same scan or from links;
Cohen-Macaulayness from links; the virtual cohomological dimension of
the associated reflection group from complements of faces.  All of it
rides on one cached integral scan per complex.

Bound checks compare exact rationals by cross-multiplication; floats
appear only in display fields.
"""

import math
from collections import Counter
from fractions import Fraction
from itertools import chain, repeat

from .complex_core import INF, bits_of, sort_faces
from .errors import DomainError, ResourceError
from .homology import (
    DEFAULT_SCAN_CAP,
    coeff_name,
    entry_coh_degrees,
    entry_field_dim,
    integral_subset_scan,
    parse_coeff,
    profile_from_facets,
    reduced_homology,
    scan_torsion_primes,
)

CANDIDATE_CAP = 1 << 18
TOWER_BIT_BUDGET = 200_000


def _first_top(items, coeff, nonneg=False):
    """(top, key) for the first (key, entry) pair whose entry has the
    largest top cohomology degree, counting only degrees >= 0 when
    nonneg; (None, None) when no entry has one.  Each distinct entry is
    read once."""
    tops = {}
    best = key = None
    for k, entry in items:
        if entry in tops:
            t = tops[entry]
        else:
            degs = entry_coh_degrees(entry, coeff)
            t = degs[-1] if degs and (degs[-1] >= 0 or not nonneg) else None
            tops[entry] = t
        if t is not None and (best is None or t > best):
            best, key = t, k
    return best, key


def _field(coeff):
    coeff = parse_coeff(coeff)
    if coeff == "z":
        raise DomainError("this invariant needs field coefficients (q or f<p>)")
    return coeff


# -- Betti tables --------------------------------------------------------

class BettiTable:
    """Sparse graded Betti numbers of the Stanley-Reisner ring."""

    __slots__ = ("field", "entries")

    def __init__(self, field, entries):
        self.field = field
        self.entries = {k: v for k, v in sorted(entries.items()) if v}

    def beta(self, i, j):
        return self.entries.get((i, j), 0)

    @property
    def reg(self):
        return max(j - i for i, j in self.entries)

    @property
    def projdim(self):
        return max(i for i, _ in self.entries)

    def linear_index(self):
        """Largest p with beta_{i,j} = 0 for 1 <= i <= p, j != i+1."""
        bad = [i for i, j in self.entries if i >= 1 and j != i + 1]
        return INF if not bad else min(bad) - 1

    def render_grid(self):
        """Strata rows: row t lists beta_{i, i+t} for i = 0..projdim."""
        pd = self.projdim
        rows = []
        width = max(len(str(v)) for v in self.entries.values())
        width = max(width, len(str(pd)), 1)
        head = "    " + " ".join(f"{i:>{width}}" for i in range(pd + 1))
        rows.append(head)
        for t in range(self.reg + 1):
            cells = []
            for i in range(pd + 1):
                v = self.beta(i, i + t)
                cells.append(f"{v:>{width}}" if v else f"{'.':>{width}}")
            rows.append(f"{t:>2}: " + " ".join(cells))
        return "\n".join(rows)

    def to_dict(self):
        return {
            "field": coeff_name(self.field),
            "entries": {f"{i},{j}": v for (i, j), v in self.entries.items()},
            "reg": self.reg,
            "projdim": self.projdim,
        }

    def __repr__(self):
        return f"BettiTable({coeff_name(self.field)}, {self.entries})"


def betti_table(cpx, coeff="q", cap=DEFAULT_SCAN_CAP):
    """Graded Betti numbers by summing cohomology dimensions of induced
    subcomplexes over all vertex subsets."""
    coeff = _field(coeff)
    if cpx.is_void():
        raise DomainError("the zero ring has no Betti table")
    scan = integral_subset_scan(cpx, cap)
    counts = Counter((entry, A.bit_count())
                     for A, entry in enumerate(scan) if entry)
    table = {}
    for (entry, j), count in counts.items():
        for d in entry_coh_degrees(entry, coeff):
            i = j - d - 1
            table[(i, j)] = (table.get((i, j), 0)
                             + count * entry_field_dim(entry, d, coeff))
    return BettiTable(coeff, table)


# -- regularity ----------------------------------------------------------

class RegularityReport:
    __slots__ = ("value", "method", "witness", "field", "void")

    def __init__(self, value, method, witness, field, void=False):
        self.value = value
        self.method = method
        self.witness = witness
        self.field = field
        self.void = void

    def to_dict(self):
        return {
            "value": self.value,
            "method": self.method,
            "witness": self.witness,
            "field": coeff_name(self.field),
            "void": self.void,
        }

    def __repr__(self):
        return (f"RegularityReport({self.value}, {self.method}, "
                f"{coeff_name(self.field)})")


def link_candidates(cpx):
    """Faces that can carry a non-cone link: the intersections of
    nonempty sets of facets.  Any face outside this list has a cone
    vertex in its link.  More than CANDIDATE_CAP intersections raise
    ResourceError."""
    cap = CANDIDATE_CAP
    facets = cpx.facets
    seen = set(facets)
    work = list(facets)
    while work:
        g = work.pop()
        for f in facets:
            h = g & f
            if h not in seen:
                seen.add(h)
                if len(seen) > cap:
                    raise ResourceError(
                        f"link candidate closure reached {len(seen)} "
                        f"intersections of {len(facets)} facets, cap {cap}")
                work.append(h)
    return sort_faces(seen)


def _link_facets(cpx, g):
    """Facet masks of the link of face g, on the vertex ids of cpx."""
    return [f & ~g for f in cpx.facets if g & ~f == 0]


def regularity(cpx, coeff="q", method="induced", cap=DEFAULT_SCAN_CAP):
    """Regularity as the largest i with nonzero (i-1)-st cohomology of
    an induced subcomplex (method induced) or of a face link (links)."""
    coeff = _field(coeff)
    if cpx.is_void():
        return RegularityReport(0, method, None, coeff, void=True)
    if method == "induced":
        top, A = _first_top(enumerate(integral_subset_scan(cpx, cap)), coeff)
        witness = {"subset": bits_of(A), "degree": top}
        return RegularityReport(top + 1, "induced", witness, coeff)
    if method != "links":
        raise DomainError(f"unknown regularity method {method!r}")
    top, g = _first_top(
        ((g, profile_from_facets(_link_facets(cpx, g)))
         for g in link_candidates(cpx)), coeff)
    witness = {"face": bits_of(g), "degree": top}
    return RegularityReport(top + 1, "links", witness, coeff)


def verify_regularity_witness(cpx, report):
    """Recompute the single homology profile named by a report witness."""
    if report.witness is None:
        return report.void and report.value == 0
    d = report.witness["degree"]
    if "subset" in report.witness:
        sub = cpx.induced([int(v) for v in report.witness["subset"]])
        prof = reduced_homology(sub, "z")
    else:
        lk = cpx.link([int(v) for v in report.witness["face"]])
        prof = reduced_homology(lk, "z")
    return (d in prof.cohomology_nonzero_degrees(report.field)
            and report.value == d + 1)


# -- Green-Lazarsfeld index ----------------------------------------------

def gl_index(cpx, mode="combinatorial", coeff="q", cap=DEFAULT_SCAN_CAP):
    """Largest p such that the resolution is linear through step p;
    infinity for a linear resolution, 0 when the first syzygies already
    break linearity (non-flag complexes)."""
    if mode == "combinatorial":
        return cpx.largeness().gl_index()
    if mode != "algebraic":
        raise DomainError(f"unknown gl_index mode {mode!r}")
    return betti_table(cpx, coeff, cap).linear_index()


# -- Cohen-Macaulayness --------------------------------------------------

def is_cohen_macaulay(cpx, coeff="q"):
    """Reisner's criterion: every face link has homology only in its top
    dimension.  Cone links are acyclic, so only the link candidates
    need checking."""
    coeff = _field(coeff)
    if cpx.is_void():
        return True
    for g in link_candidates(cpx):
        lf = _link_facets(cpx, g)
        link_dim = max(m.bit_count() for m in lf) - 1
        degs = entry_coh_degrees(profile_from_facets(lf), coeff)
        if any(d < link_dim for d in degs):
            return False
    return True


# -- vcd of the reflection group -----------------------------------------

class VcdReport:
    __slots__ = ("value", "witness", "torsion_primes", "reg_by_char")

    def __init__(self, value, witness, torsion_primes, reg_by_char):
        self.value = value
        self.witness = witness
        self.torsion_primes = torsion_primes
        self.reg_by_char = reg_by_char

    def max_char_reg(self):
        return max(self.reg_by_char.values())

    def to_dict(self):
        return {
            "value": self.value,
            "witness": self.witness,
            "torsion_primes": list(self.torsion_primes),
            "reg_by_char": {str(c): v for c, v in self.reg_by_char.items()},
        }

    def __repr__(self):
        return f"VcdReport({self.value}, reg_by_char={self.reg_by_char})"


def vcd_nerve(cpx, cap=DEFAULT_SCAN_CAP):
    """vcd of the right-angled reflection group whose nerve is the given
    complex: scan complements of faces for integral cohomology, and
    regularity in characteristic 0 and every detected torsion prime."""
    if cpx.is_void():
        raise DomainError("the void complex is not a nerve")
    scan = integral_subset_scan(cpx, cap)
    full = (1 << cpx.n) - 1
    top, sigma = _first_top(
        ((sigma, scan[full & ~sigma]) for sigma in cpx.faces()), "z")
    value = witness = None
    if top is not None:
        value = 1 + top
        witness = {"face": bits_of(sigma), "degree": top}
    primes = scan_torsion_primes(scan)
    reg_by_char = {
        char: _first_top(enumerate(scan), "q" if char == 0 else char)[0] + 1
        for char in (0,) + primes}
    return VcdReport(value, witness, primes, reg_by_char)


# -- cohomological-dimension vs regularity claim -------------------------

class ClaimReport:
    __slots__ = ("coeff", "lhs", "rhs", "lhs_witness", "rhs_witness")

    def __init__(self, coeff, lhs, rhs, lhs_witness, rhs_witness):
        self.coeff = coeff
        self.lhs = lhs
        self.rhs = rhs
        self.lhs_witness = lhs_witness
        self.rhs_witness = rhs_witness

    @property
    def equal(self):
        return self.lhs == self.rhs

    def to_dict(self):
        return {
            "coeff": coeff_name(self.coeff),
            "lhs": "-inf" if self.lhs is None else self.lhs,
            "rhs": "-inf" if self.rhs is None else self.rhs,
            "equal": self.equal,
            "lhs_witness": self.lhs_witness,
            "rhs_witness": self.rhs_witness,
        }


def cdreg_claim_check(cpx, coeff="z", cap=DEFAULT_SCAN_CAP):
    """Compare the top cohomology degree (in degrees >= 0) over
    complements of faces against the top over all vertex subsets."""
    coeff = parse_coeff(coeff)
    if cpx.is_void():
        raise DomainError("claim check needs a nonvoid complex")
    scan = integral_subset_scan(cpx, cap)
    full = (1 << cpx.n) - 1
    lhs, sigma = _first_top(
        ((sigma, scan[full & ~sigma]) for sigma in cpx.faces()), coeff, True)
    rhs, A = _first_top(enumerate(scan), coeff, True)
    lw = None if lhs is None else {"face": bits_of(sigma), "degree": lhs}
    rw = None if rhs is None else {"subset": bits_of(A), "degree": rhs}
    return ClaimReport(coeff, lhs, rhs, lw, rw)


# -- exact bounds --------------------------------------------------------

def _pow_cmp(x, e, y, k=0):
    """Sign of x^(e * 2^k) - y for rational x >= 1, integers e, k >= 0.
    Square-and-multiply from the top bit: a partial power never exceeds
    the full one, so the pass stops as soon as one exceeds y."""
    if x == 1:
        return (1 > y) - (1 < y)
    r = 1
    for bit in chain(bin(e)[2:], repeat("0", k)):
        r *= r
        if bit == "1":
            r *= x
        if r > y:
            return 1
    return -(r < y)


class LogBound:
    """reg <= log_base(arg) + shift, tested as base^(reg-shift) <= arg."""

    __slots__ = ("kind", "base", "arg", "shift", "params")

    def __init__(self, kind, base, arg, shift, params):
        self.kind = kind
        self.base = base
        self.arg = arg
        self.shift = shift
        self.params = params

    def holds_for(self, reg):
        e = reg - self.shift
        if e >= 0:
            return _pow_cmp(self.base, e, self.arg) <= 0
        # base^e <= arg exactly when base^-e >= 1/arg
        return self.arg > 0 and _pow_cmp(self.base, -e, 1 / self.arg) >= 0

    def approx(self):
        if self.arg <= 0:
            return -math.inf
        return self.shift + math.log(self.arg) / math.log(self.base)

    def to_dict(self):
        return {
            "kind": self.kind,
            **self.params,
            "base": str(self.base),
            "argument": str(self.arg),
            "shift": self.shift,
            "approx": self.approx(),
        }


class DoubleLogBound:
    """reg <= log2(log_base(n)) + 3, tested as base^(2^(reg-3)) <= n."""

    __slots__ = ("base", "n", "p")

    def __init__(self, base, n, p):
        self.base = base
        self.n = n
        self.p = p

    def holds_for(self, reg):
        e = reg - 3
        if e >= 0:
            return _pow_cmp(self.base, 1, self.n, e) <= 0
        return _pow_cmp(self.n, 1, self.base, -e) >= 0

    def approx(self):
        inner = math.log(self.n) / math.log(self.base) if self.n > 1 else 0.0
        if inner <= 0:
            return -math.inf
        return 3 + math.log2(inner)

    def to_dict(self):
        return {
            "kind": "cm_double_log",
            "n": self.n,
            "p": self.p,
            "base": str(self.base),
            "approx": self.approx(),
        }


class RootBound:
    """The number base^(2^exp2); exp2 may be negative, so comparisons
    raise both sides to a positive power instead of taking roots."""

    __slots__ = ("kind", "base", "exp2", "params")

    def __init__(self, kind, base, exp2, params):
        self.kind = kind
        self.base = base
        self.exp2 = exp2
        self.params = params

    def less_than(self, x):
        """bound < x for a nonnegative integer x, exactly."""
        if x <= 0:
            return False
        if self.exp2 >= 0:
            return _pow_cmp(self.base, 1, x, self.exp2) < 0
        return _pow_cmp(x, 1, self.base, -self.exp2) > 0

    def approx(self):
        try:
            return float(self.base) ** (2.0 ** self.exp2)
        except OverflowError:
            return math.inf

    def describe(self):
        return f"({self.base})^(2^{self.exp2})"

    def to_dict(self):
        return {
            "kind": self.kind,
            **self.params,
            "base": str(self.base),
            "exp2": self.exp2,
            "value": self.describe(),
            "approx": self.approx(),
        }


class TowerN:
    """Lower bound N(p, r) on vertex counts, given symbolically and, when
    it fits the bit budget, as an exact integer."""

    __slots__ = ("p", "r", "expr", "value")

    def __init__(self, p, r, expr, value):
        self.p = p
        self.r = r
        self.expr = expr
        self.value = value

    def to_dict(self):
        out = {"kind": "tower_N", "p": self.p, "r": self.r, "expr": self.expr}
        if self.value is not None:
            out["value"] = str(self.value)
            out["bits"] = self.value.bit_length()
        else:
            out["value"] = None
        return out


def dhs_bound(n, p):
    if p < 2:
        raise DomainError("dhs bound needs p >= 2")
    if n < 2:
        raise DomainError("dhs bound needs n >= 2")
    return LogBound("dhs", Fraction(p + 3, 2), Fraction(n - 1, p), 2,
                    {"n": n, "p": p})


def cm_double_log_bound(n, p):
    if p < 2:
        raise DomainError("double-log bound needs p >= 2")
    if n < 1:
        raise DomainError("double-log bound needs n >= 1")
    return DoubleLogBound(Fraction((p + 3) ** 2, 12), n, p)


def facet_bound(d, p):
    if d < 1 or p < 2:
        raise DomainError("facet bound needs d >= 1 and p >= 2")
    return RootBound("facet_bound", Fraction((p + 3) ** 2, 12), d - 2,
                     {"d": d, "p": p})


def vertex_bound(d, p):
    if d < 1 or p < 2:
        raise DomainError("vertex bound needs d >= 1 and p >= 2")
    return RootBound("vertex_bound", Fraction((p + 3) ** 2, 12), d - 3,
                     {"d": d, "p": p})


def _twr(b, bit_budget):
    """2 tower of height b, or None once it cannot fit the budget."""
    v = 1
    for _ in range(b):
        if v > bit_budget:
            return None
        v = 2 ** v
    return v


def tower_N(p, r):
    """Recursive vertex-count threshold: N(p,2) = p+3 and
    N(p,r) = (2*(2^^(r-2)) + 1)^((p+2) * N(p,r-1)^2); the exact value
    is dropped past TOWER_BIT_BUDGET bits."""
    bit_budget = TOWER_BIT_BUDGET
    if p < 2:
        raise DomainError("tower needs p >= 2")
    if r < 2:
        raise DomainError("tower is defined for r >= 2")
    expr = (f"{p}+3" if r == 2 else
            f"(2*(2^^{r - 2})+1)^(({p}+2)*N({p},{r - 1})^2)")
    value = p + 3
    for level in range(3, r + 1):
        t = _twr(level - 2, bit_budget)
        exponent = (p + 2) * value * value
        if t is None or exponent * (2 * t + 1).bit_length() > bit_budget:
            value = None  # and so at every later level
            break
        value = (2 * t + 1) ** exponent
    return TowerN(p, r, expr, value)


def verify_top_homology_bound(cpx, coeff="q"):
    """Check the facet and vertex count bounds forced by nontrivial top
    homology on a (p+3)-large complex of dimension >= 1."""
    coeff = _field(coeff)
    report = {
        "field": coeff_name(coeff),
        "hypotheses_met": False,
        "reason": None,
        "p": None,
        "dim": cpx.dim,
    }
    if cpx.is_void():
        report["reason"] = "void complex"
        return report
    p = cpx.largeness().gl_index()
    report["p"] = None if p == INF else p
    d = cpx.dim
    if d < 1:
        report["reason"] = "dimension below 1"
        return report
    if p == INF:
        report["reason"] = "no induced cycles: large for every p, bound vacuous"
        return report
    if p < 2:
        report["reason"] = f"index {p} below 2"
        return report
    top_dim = reduced_homology(cpx, coeff).rank_at(d)
    report["top_homology_dim"] = top_dim
    if top_dim == 0:
        report["reason"] = "trivial top homology"
        return report
    fvec = cpx.f_vector()
    fb = facet_bound(d, p)
    vb = vertex_bound(d, p)
    report.update({
        "hypotheses_met": True,
        "f_top": fvec[d + 1],
        "f_0": fvec[1],
        "facet_bound": fb.describe(),
        "vertex_bound": vb.describe(),
        "facet_bound_ok": fb.less_than(fvec[d + 1]),
        "vertex_bound_ok": vb.less_than(fvec[1]),
    })
    return report
