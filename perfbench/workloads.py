"""The three benchmark workloads and the checks on their answers.

A workload is a sequence of rounds.  Every round has the same
composition (the same kinds of op on inputs drawn from the same
strata), so whole rounds measure the same mix whatever the seed; the
seed draws the concrete inputs of each round and their order.  Each op
is timed on its own; its answer is checked afterwards, outside the
timed interval, by an independent route the library already has or
against a frozen fact.

- ``scan``: one CLI command on one fresh random flag complex per op, as
  a command-line user runs it.  Every op pays one full induced-subset
  scan with no cache reuse.  n = 10 is the most common size so that a
  round is short; n = 12 ops make the slow tail.
- ``props``: one library session per op, computing the criterion-6
  property set on one complex object.  This is the link route
  (``profile_from_facets`` with nerve substitution, face complexes)
  plus scan reuse within a session.  Named complexes are relabeled by
  a random vertex permutation so no two sessions share a cache key
  unless the complex has no other labelling.  Random flag complexes
  come from the (n, density) strata whose session times stay clear of
  the block that holds the percentiles (see PROPS_FLAGS).
- ``quotient``: the group side through the CLI: kernel searches on the
  5- and 6-cycle nerves, Cayley-ball tables, and certified
  constructions whose output largeness check is the dominant cost.

Times quoted below were measured on a 2-vCPU AMD EPYC virtual machine
with Python 3.11 and numpy 2.4, without numba.
"""

import contextlib
import io
import json
import os
import random

from srcox import cli
from srcox import sr_invariants as sr
from srcox.complex_core import (
    SimplicialComplex,
    bits_of,
    gen_boundary_simplex,
    gen_cross_polytope,
    gen_cycle,
    gen_random_flag,
    gen_rp2_six,
    gen_simplex,
    load_cplx,
)
from srcox.homology import reduced_homology
from srcox.racg import build_system, evaluate_word
from srcox.sr_invariants import (
    RegularityReport,
    regularity,
    verify_regularity_witness,
)

FIELDS = ("q", "f2")


class CheckFailed(Exception):
    """An op's answer disagrees with its independent check."""


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


class Op:
    """One timed unit of work: ``run`` is timed, ``check`` is not and
    returns the op's shape counts."""

    __slots__ = ("kind", "key", "run", "check")

    def __init__(self, kind, key, run, check):
        self.kind = kind
        self.key = key
        self.run = run
        self.check = check


def complex_key(cpx):
    return (cpx.n, cpx.facets)


def run_cli(argv):
    """srcox.cli.main in-process; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def cli_report(result):
    code, out = result
    require(code == 0, f"exit code {code!r}, expected 0")
    return json.loads(out)["report"]


def top_coh_degree(cpx, coeff, nonneg=False):
    degs = reduced_homology(cpx, "z").cohomology_nonzero_degrees(coeff)
    if nonneg:
        degs = [d for d in degs if d >= 0]
    return degs[-1] if degs else None


def k_polynomial(cpx):
    """Numerator of the Hilbert series from the face counts alone:
    sum over faces F of t^|F| (1 - t)^(n - |F|)."""
    n = cpx.n
    binom = [[1]]
    for r in range(1, n + 1):
        prev = binom[-1]
        binom.append([1] + [prev[i] + prev[i + 1] for i in range(r - 1)] + [1])
    poly = [0] * (n + 1)
    for f in cpx.faces():
        s = bin(f).count("1")
        for i, c in enumerate(binom[n - s]):
            poly[s + i] += c * (-1) ** i
    return poly


def betti_k_polynomial(entries, n):
    """The same numerator from a Betti table: sum (-1)^i beta_ij t^j."""
    poly = [0] * (n + 1)
    for key, v in entries.items():
        i, j = map(int, key.split(","))
        poly[j] += (-1) ** i * v
    return poly


def _round_rng(name, seed, r):
    return random.Random(f"{name}:{seed}:{r}")


def _fresh_flag(rng, n, density, seen):
    """A random flag complex with exactly round(density * C(n, 2)) edges
    whose key has not been used in this run.

    Fixing the edge count removes most of the spread of op times within
    a stratum, which would otherwise make one run's figures depend on a
    few draws."""
    edges = round(density * n * (n - 1) / 2)
    for _ in range(10_000):
        cpx = gen_random_flag(n, density, seed=rng.getrandbits(62))
        if len(cpx.edges()) == edges and complex_key(cpx) not in seen:
            break
    seen.add(complex_key(cpx))
    return cpx


def _relabeled(rng, cpx, seen):
    """A copy under a random vertex permutation, preferring one whose
    key has not been used in this run."""
    for _ in range(20):
        perm = list(range(cpx.n))
        rng.shuffle(perm)
        facets = [sum(1 << perm[v] for v in bits_of(f)) for f in cpx.facets]
        out = SimplicialComplex(cpx.n, facets,
                                tuple(str(i) for i in range(cpx.n)))
        if complex_key(out) not in seen:
            break
    seen.add(complex_key(out))
    return out


# -- scan ----------------------------------------------------------------

# (n, edge density) of the ops in one round, about 3 s of op time.
# Sorted by op time the strata form runs of equal size, and the median
# and the 90th percentile fall inside a run ((11, 0.35) and (12, 0.35)),
# not on the edge between two, for 10 or 11 rounds.
SCAN_SLOTS = (
    (10, 0.35), (10, 0.45), (10, 0.55), (10, 0.65), (10, 0.45), (10, 0.55),
    (11, 0.35), (11, 0.45), (11, 0.55), (11, 0.35),
    (12, 0.35), (12, 0.45),
)
SCAN_COMMANDS = (
    ("betti", ("--field", "q")),
    ("reg", ("--field", "f2")),
    ("vcd", ()),
    ("claim", ("--field", "z")),
)


class Scan:
    name = "scan"

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.seen = set()

    def round(self, r):
        rng = _round_rng(self.name, self.seed, r)
        ops = []
        for i, (n, density) in enumerate(SCAN_SLOTS):
            cpx = _fresh_flag(rng, n, density, self.seen)
            path = os.path.join(self.workdir, f"scan-{r}-{i}.cplx")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(cpx.to_cplx())
            command, flags = SCAN_COMMANDS[(i + r) % len(SCAN_COMMANDS)]
            argv = [command, path, *flags, "--format", "json"]
            ops.append(Op(command, complex_key(cpx),
                          lambda argv=argv: run_cli(argv),
                          lambda res, c=command, p=path: _check_scan(c, p, res)))
        rng.shuffle(ops)
        return ops


def _check_scan(command, path, result):
    cpx = load_cplx(path)
    if command == "claim":
        # judged by report.equal; the exit code must agree with it
        report = json.loads(result[1])["report"]
        require(report["equal"] is True, f"claim not equal: {report}")
        require(result[0] == 0, f"claim equal but exit code {result[0]!r}")
        for side, key in (("lhs", "face"), ("rhs", "subset")):
            wit = report[f"{side}_witness"]
            if wit is None:
                require(report[side] == "-inf", f"claim {side} has no witness")
                continue
            verts = wit[key]
            if key == "face":
                verts = [v for v in range(cpx.n) if v not in set(verts)]
            got = top_coh_degree(cpx.induced(verts), "z", nonneg=True)
            require(got == wit["degree"] == report[side],
                    f"claim {side} witness degree {got} vs {wit}")
        return {}
    report = cli_report(result)
    if command == "betti":
        require(report["reg"] == regularity(cpx, "q", "links").value,
                "betti reg differs from regularity by links")
        require(betti_k_polynomial(report["entries"], cpx.n)
                == k_polynomial(cpx),
                "Betti table fails the K-polynomial identity")
    elif command == "reg":
        require(report["value"] == regularity(cpx, 2, "links").value,
                "reg by scan differs from reg by links")
        wit = {"subset": report["witness"]["subset"],
               "degree": report["witness"]["degree"]}
        rep = RegularityReport(report["value"], "induced", wit, 2)
        require(verify_regularity_witness(cpx, rep), "reg witness rejected")
    elif command == "vcd":
        by_char = report["reg_by_char"]
        require(by_char["0"] == regularity(cpx, "q", "links").value,
                "vcd reg in char 0 differs from reg by links")
        for p in report["torsion_primes"]:
            require(by_char[str(p)] == regularity(cpx, p, "links").value,
                    f"vcd reg in char {p} differs from reg by links")
        face = set(report["witness"]["face"])
        rest = [v for v in range(cpx.n) if v not in face]
        got = top_coh_degree(cpx.induced(rest), "z")
        require(got == report["witness"]["degree"]
                and report["value"] == got + 1, "vcd witness rejected")
    return {}


# -- props ---------------------------------------------------------------

def _two_points():
    return SimplicialComplex.from_facets([], ["a", "b"])


# named complexes with their frozen regularity over (q, f2)
PROPS_NAMED = (
    ("cycle4", lambda: gen_cycle(4), (2, 2)),
    ("cycle5", lambda: gen_cycle(5), (2, 2)),
    ("cycle6", lambda: gen_cycle(6), (2, 2)),
    ("cycle7", lambda: gen_cycle(7), (2, 2)),
    ("cycle8", lambda: gen_cycle(8), (2, 2)),
    ("cycle9", lambda: gen_cycle(9), (2, 2)),
    ("simplex2", lambda: gen_simplex(2), (0, 0)),
    ("simplex3", lambda: gen_simplex(3), (0, 0)),
    ("simplex4", lambda: gen_simplex(4), (0, 0)),
    ("boundary_simplex2", lambda: gen_boundary_simplex(2), (2, 2)),
    ("boundary_simplex3", lambda: gen_boundary_simplex(3), (3, 3)),
    ("cross_polytope2", lambda: gen_cross_polytope(2), (2, 2)),
    # the only member with torsion: regularity differs over q and f2
    ("rp2_six", gen_rp2_six, (2, 3)),
    ("two_points", _two_points, (1, 1)),
)

# (n, edge density, members per round) of the random flag members.
# Sorted by session time, a round of 50 sessions has 20 below 0.16 s
# (the small named complexes, n = 5-7 and dense n = 8), a block of 22 at
# 0.18-0.26 s (sparser n = 8, and cycle8) holding the median,
# boundary_simplex3 at 0.7 s, a block of 6 at 1.1-1.2 s (n = 9, and
# cycle9) holding the 90th percentile, and rp2_six at 8 s.  Both
# percentiles stay inside their blocks for any number of whole rounds.
# Strata whose session times can land in another block (n = 6 or 7 above
# density 0.5, n = 8 at 0.7, n = 9 above 0.6: cheap cones next to face
# complexes of many vertices) are left out.
PROPS_FLAGS = (
    (5, 0.25, 1), (5, 0.4, 1), (5, 0.55, 1), (5, 0.7, 1), (5, 0.85, 1),
    (6, 0.25, 1), (6, 0.4, 1), (7, 0.25, 1), (7, 0.4, 1), (8, 0.85, 1),
    (8, 0.25, 7), (8, 0.4, 7), (8, 0.55, 7),
    (9, 0.25, 2), (9, 0.4, 2), (9, 0.55, 1),
)


def props_session(cpx):
    """The criterion-6 property set of one complex, by library calls.

    Calls go through the module attribute so that the traced run sees
    them."""
    out = {"largeness": cpx.largeness()}
    for c in FIELDS:
        out["links", c] = sr.regularity(cpx, c, "links")
        out["scan", c] = sr.regularity(cpx, c, "induced")
        out["betti", c] = sr.betti_table(cpx, c)
    dual = cpx.alexander_dual()
    out["dual_void"] = dual.is_void()
    if not out["dual_void"]:
        for c in FIELDS:
            out["dual_betti", c] = sr.betti_table(dual, c)
            out["dual_reg", c] = sr.regularity(dual, c)
    if cpx.n <= 7:
        fc = cpx.face_complex()
        for c in FIELDS:
            out["face_complex", c] = sr.regularity(fc, c, "links")
    for c in FIELDS:
        out["cm", c] = sr.is_cohen_macaulay(cpx, c)
    for c in ("z", "q", "f2"):
        out["claim", c] = sr.cdreg_claim_check(cpx, c)
    return out


def _check_props(cpx, frozen, out):
    p = out["largeness"].gl_index()
    for idx, c in enumerate(FIELDS):
        scan, links, table = out["scan", c], out["links", c], out["betti", c]
        require(scan.value == links.value == table.reg,
                f"{c}: regularity scan/links/betti "
                f"{scan.value}/{links.value}/{table.reg}")
        require(verify_regularity_witness(cpx, scan), f"{c}: scan witness")
        require(verify_regularity_witness(cpx, links), f"{c}: link witness")
        require(table.linear_index() == p,
                f"{c}: algebraic index {table.linear_index()} vs {p}")
        # Auslander-Buchsbaum: Cohen-Macaulay iff pd = n - dim - 1
        require(out["cm", c] == (table.projdim == cpx.n - cpx.dim - 1),
                f"{c}: Reisner's criterion disagrees with the projdim")
        if out["dual_void"]:
            require(scan.value == 0, f"{c}: void dual needs reg 0")
        else:
            require(out["dual_betti", c].projdim - 1 == scan.value,
                    f"{c}: dual projdim vs reg")
            require(table.projdim - 1 == out["dual_reg", c].value,
                    f"{c}: projdim vs dual reg")
        if ("face_complex", c) in out:
            require(out["face_complex", c].value == scan.value,
                    f"{c}: face-complex regularity")
        if frozen is not None:
            require(scan.value == frozen[idx], f"{c}: frozen regularity")
    for c in ("z", "q", "f2"):
        require(out["claim", c].equal, f"claim over {c}")
    return {}


class Props:
    name = "props"

    def __init__(self, seed, workdir):
        self.seed = seed
        self.seen = set()

    def round(self, r):
        rng = _round_rng(self.name, self.seed, r)
        members = [(_relabeled(rng, make(), self.seen), frozen)
                   for _, make, frozen in PROPS_NAMED]
        members += [(_fresh_flag(rng, n, d, self.seen), None)
                    for n, d, count in PROPS_FLAGS for _ in range(count)]
        rng.shuffle(members)
        return [Op("props", complex_key(cpx),
                   lambda cpx=cpx: props_session(cpx),
                   lambda out, cpx=cpx, fz=frozen: _check_props(cpx, fz, out))
                for cpx, frozen in members]


# -- quotient ------------------------------------------------------------

QUOTIENT_NERVES = {
    "c5": lambda: gen_cycle(5),
    "c6": lambda: gen_cycle(6),
    "two": _two_points,
    "three": lambda: SimplicialComplex.from_facets([], ["a", "b", "c"]),
}

# frozen kernel-search outcomes: (nerve, k, m) -> status, and the size of
# the standard ball of radius 2k each search walks
SEARCH_STATUS = {
    ("c5", 4, 3): "COUNTEREXAMPLE", ("c5", 4, 5): "CERTIFIED",
    ("c5", 4, 7): "CERTIFIED", ("c5", 4, 11): "CERTIFIED",
    ("c5", 5, 3): "COUNTEREXAMPLE", ("c5", 5, 5): "COUNTEREXAMPLE",
    ("c5", 5, 7): "CERTIFIED", ("c5", 5, 11): "CERTIFIED",
    ("c6", 4, 3): "COUNTEREXAMPLE", ("c6", 4, 5): "CERTIFIED",
    ("c6", 4, 7): "CERTIFIED", ("c6", 4, 11): "CERTIFIED",
}
SEARCH_BALL = {("c5", 4): 7981, ("c5", 5): 54726, ("c6", 4): 89041}

# frozen pentagon ball growth per generating set (level counts), and the
# entry growth of the standard ball (acceptance criterion 1)
TABLE_COUNTS = {
    "standard": (1, 5, 15, 40, 105, 275, 720, 1885, 4935, 12920, 33825),
    "spherical": (1, 10, 40, 150, 560, 2090, 7800, 29110),
}
TABLE_MAX_ENTRIES = (1, 2, 4, 8, 18, 39, 84, 180, 388, 836, 1801)
TABLE_RADII = {"standard": (8, 9, 10), "spherical": (5, 6, 7)}

# frozen image-group orders of the constructions on three points, k = 4
THREE_POINT_ORDER = {3: 24, 5: 120}

# (primes m, constructions per round) for two points.  Construct time grows
# about as m^4, so the seed picks m only among primes of similar cost.
# Sorted by op time a round of 38 ops has 15 below 0.075 s, then the six
# m = 23 constructions (0.08-0.09 s) holding the median, and near the top
# the kernel searches at 0.69-0.70 s (C5 at k = 5 with m = 7 or 11, C6 at
# m = 3) holding the 90th percentile, for any number of whole rounds.
TWO_POINT_STRATA = (((11, 13), 5), ((17, 19), 6), ((23,), 6), ((29, 31), 1),
                    ((37,), 1), ((41,), 1))


class Quotient:
    name = "quotient"

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.paths = {}
        for name, make in QUOTIENT_NERVES.items():
            path = os.path.join(workdir, f"{name}.cplx")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(make().to_cplx())
            self.paths[name] = path

    def round(self, r):
        rng = _round_rng(self.name, self.seed, r)
        ops = []
        searches = [("c5", 4, m) for m in (3, 5, 7, 11)]
        searches += [("c5", 5, m) for m in (3, 5, 7, 11)]
        searches += [("c6", 4, 3), ("c6", 4, rng.choice((5, 7, 11)))]
        for nerve, k, m in searches:
            argv = ["coxeter-search", self.paths[nerve], "--mod", str(m),
                    "--k", str(k), "--format", "json"]
            ops.append(Op("coxeter-search", nerve,
                          lambda argv=argv: run_cli(argv),
                          lambda res, key=(nerve, k, m): _check_search(
                              key, res)))
        for gset, radii in TABLE_RADII.items():
            for radius in radii:
                argv = ["coxeter-table", self.paths["c5"], "--max-len",
                        str(radius), "--set", gset, "--format", "json"]
                ops.append(Op("coxeter-table", "c5",
                              lambda argv=argv: run_cli(argv),
                              lambda res, g=gset, rad=radius: _check_table(
                                  g, rad, res)))
        constructs = [("two", rng.randint(4, 16), rng.choice(primes))
                      for primes, count in TWO_POINT_STRATA
                      for _ in range(count)]
        constructs += [("three", 4, 3), ("three", 4, 5)]
        for i, (nerve, k, m) in enumerate(constructs):
            out = os.path.join(self.workdir, f"out-{r}-{i}.cplx")
            argv = ["construct", self.paths[nerve], "--k", str(k), "--mod",
                    str(m), "--out", out, "--format", "json"]
            ops.append(Op("construct", nerve,
                          lambda argv=argv: run_cli(argv),
                          lambda res, a=(nerve, k, m, out): _check_construct(
                              *a, res)))
        rng.shuffle(ops)
        return ops


def _check_search(key, result):
    nerve, k, m = key
    report = cli_report(result)
    require(report["status"] == SEARCH_STATUS[key],
            f"search {key}: {report['status']}")
    require(report["ball_length"] == 2 * k, "search radius")
    require(report["elements_seen"] == SEARCH_BALL[nerve, k],
            f"search {key}: ball of {report['elements_seen']} elements")
    if report["status"] == "COUNTEREXAMPLE":
        rep = build_system(QUOTIENT_NERVES[nerve]())
        word = report["witness"]
        require(len(word) <= 2 * k, "counterexample longer than the radius")
        require(evaluate_word(rep, word, mod=m).is_identity()
                and not evaluate_word(rep, word).is_identity(),
                f"search {key}: witness is not a kernel element")
    return {"ball_elements": report["elements_seen"]}


def _check_table(gset, radius, result):
    report = cli_report(result)
    levels = report["levels"]
    counts = tuple(lv["count"] for lv in levels)
    require(report["complete"] and counts == TABLE_COUNTS[gset][:radius + 1],
            f"{gset} table to {radius}: level counts {counts}")
    require(report["total"] == sum(counts), "table total")
    if gset == "standard":
        entries = tuple(lv["max_entry"] for lv in levels)
        require(entries == TABLE_MAX_ENTRIES[:radius + 1],
                f"standard table entry growth {entries}")
    return {"ball_elements": report["total"]}


def _check_construct(nerve, k, m, out_path, result):
    report = cli_report(result)
    cert = report["certificate"]
    order = 2 * m if nerve == "two" else THREE_POINT_ORDER[m]
    require(cert["displacement_status"] == "CERTIFIED" and cert["emitted"]
            and cert["torsion_free"] and cert["link_check"]
            and cert["largeness_ok"], f"construct {nerve} k={k} m={m}: {cert}")
    require(cert["k"] == k and cert["m"] == m, "certificate parameters")
    require(cert["group_order"] == order,
            f"group order {cert['group_order']}, expected {order}")
    out = load_cplx(out_path)
    require(out.n == order == report["complex"]["n"],
            f"output has {out.n} vertices, expected {order}")
    with open(out_path[:-5] + ".cert.json", encoding="utf-8") as fh:
        require(json.load(fh) == cert, "certificate sidecar differs")
    if nerve == "two":
        # the quotient of the infinite dihedral group is a 2m-cycle, whose
        # girth 2m > k is the largeness the certificate claims
        adj = out.adjacency()
        require(all(len(f) == 2 for f in out.facet_lists())
                and all(bin(a).count("1") == 2 for a in adj),
                "two-point output is not 2-regular")
        reach, frontier = 1, 1
        while frontier:
            nxt = 0
            for v in bits_of(frontier):
                nxt |= adj[v]
            frontier = nxt & ~reach
            reach |= nxt
        require(reach == (1 << out.n) - 1, "two-point output is not a cycle")
        require(out.n >= k, f"girth {out.n} below k = {k}")
    return {"image_group_order": order, "construct_vertices": out.n}


WORKLOADS = {w.name: w for w in (Scan, Props, Quotient)}

