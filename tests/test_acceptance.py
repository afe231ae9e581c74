"""Acceptance gate: one test per shipped criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines and
the measured runtimes next to their budgets.
"""

import json
import time
from itertools import combinations

import oracles

from srcox.cli import main
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
)
from srcox.exact_linalg import IntMatrix
from srcox.quotient_builder import s_construction
from srcox.racg import build_system, evaluate_word, kernel_displacement_search, word_ball
from srcox.sr_invariants import (
    betti_table,
    cdreg_claim_check,
    cm_double_log_bound,
    dhs_bound,
    gl_index,
    is_cohen_macaulay,
    regularity,
    tower_N,
    vcd_nerve,
    verify_regularity_witness,
    verify_top_homology_bound,
)

TABLE_MAX_ENTRIES = [2, 4, 8, 18, 39, 84, 180, 388, 836, 1801]


def _finish(num, name, t0, budget=None):
    dt = time.perf_counter() - t0
    if budget is not None:
        assert dt < budget, f"criterion {num} took {dt:.1f}s, budget {budget}s"
    extra = f" [{dt:.1f}s < {budget}s]" if budget else f" [{dt:.1f}s]"
    print(f"criterion {num} ({name}): PASS{extra}")


def _two_points():
    return SimplicialComplex.from_facets([], ["a", "b"])


def test_criterion_1_growth_table(tmp_path, capsys):
    """Pentagon ball growth to length 10 through the command line."""
    t0 = time.perf_counter()
    path = str(tmp_path / "pentagon.cplx")
    assert main(["gen", "cycle", "--k", "5", "--out", path]) == 0
    capsys.readouterr()
    code = main(["coxeter-table", path, "--max-len", "10",
                 "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    levels = json.loads(out)["report"]["levels"]
    assert [lv["length"] for lv in levels] == list(range(11))
    assert [lv["max_entry"] for lv in levels][1:] == TABLE_MAX_ENTRIES
    _finish(1, "growth table", t0, budget=60)


def test_criterion_2_modulus_experiments():
    """Kernel searches mod 5 and mod 7 on the pentagon, heptagon word."""
    t0 = time.perf_counter()
    rep = build_system(gen_cycle(5))

    hit = kernel_displacement_search(rep, 5, 5)
    assert hit.status == "COUNTEREXAMPLE"
    word = (0, 2) * 5
    assert evaluate_word(rep, word, mod=5).is_identity()
    assert not evaluate_word(rep, word).is_identity()

    clean = kernel_displacement_search(rep, 7, 5)
    assert clean.status == "CERTIFIED" and clean.ball_length == 10
    # same fact checked directly on the full ball, element by element
    ball = word_ball(rep, 10)
    assert ball.complete and ball.total() == clean.elements_seen
    for i in range(1, ball.total()):
        assert not IntMatrix(ball.elements[i]).mod(7).is_identity()

    rep7 = build_system(gen_cycle(7))
    w7 = (0, 2, 0, 4) * 3
    assert evaluate_word(rep7, w7, mod=7).is_identity()
    assert not evaluate_word(rep7, w7).is_identity()
    assert not evaluate_word(rep7, w7, mod=3).is_identity()
    _finish(2, "modulus experiments", t0, budget=300)


def test_criterion_3_pilot_pipeline():
    """Two points, k=4, m=5: certified 10-cycle with the right links."""
    t0 = time.perf_counter()
    two = _two_points()
    out, cert = s_construction(two, 4, m=5)

    assert cert.displacement_status == "CERTIFIED" and cert.emitted
    assert cert.group_order == 10 and cert.torsion_free
    assert cert.link_check and cert.largeness_ok
    assert len(cert.link_hashes) == 10
    assert len(set(cert.link_hashes.values())) == 1

    lg = out.largeness()
    assert out.n == 10 and lg.shortest_induced_cycle == 10
    assert lg.is_k_large(4)

    assert regularity(two, "q").value == 1
    assert regularity(out, "q").value == 2

    fc = two.face_complex()
    assert fc.n == 2 and fc.facets == (1, 2)
    for v in range(out.n):
        lk = out.link([v])
        assert lk.n == fc.n and lk.facets == fc.facets
    _finish(3, "pilot pipeline", t0, budget=10)


def test_criterion_4_pentagon_suite():
    t0 = time.perf_counter()
    pent = gen_cycle(5)
    expected = {(0, 0): 1, (1, 2): 5, (2, 3): 5, (3, 5): 1}
    facet_tuples = [tuple(bits_of(f)) for f in pent.facets]
    assert oracles.oracle_hochster_betti(facet_tuples, 5, 0) == expected
    for coeff in ("q", "f2"):
        table = betti_table(pent, coeff)
        entries = {tuple(map(int, k.split(","))): v
                   for k, v in table.to_dict()["entries"].items()}
        assert entries == expected
        assert table.reg == 2 and table.projdim == 3
        assert regularity(pent, coeff).value == 2
        assert gl_index(pent, "algebraic", coeff) == 2
    assert gl_index(pent, "combinatorial") == 2
    rep = vcd_nerve(pent)
    assert rep.value == 2 and rep.max_char_reg() == 2
    _finish(4, "pentagon suite", t0)


def test_criterion_5_projective_plane():
    """Six-vertex projective plane: the torsion case."""
    t0 = time.perf_counter()
    rp2 = gen_rp2_six()
    faces = oracles.close_faces([tuple(bits_of(f)) for f in rp2.facets])
    snf = oracles.oracle_snf(oracles.oracle_boundary(faces, 2))
    assert snf == [1] * 9 + [2]

    assert regularity(rp2, "f2").value == 3
    assert regularity(rp2, "q").value == 2
    rep = vcd_nerve(rp2)
    assert rep.value == 3
    assert rep.torsion_primes == (2,)
    assert rep.reg_by_char == {0: 2, 2: 3}
    assert rep.max_char_reg() == 3 == rep.value
    _finish(5, "projective plane", t0)


def _corpus():
    members = []
    for k in range(4, 10):
        members.append((f"cycle({k})", gen_cycle(k)))
    for d in range(2, 5):
        members.append((f"simplex({d})", gen_simplex(d)))
        members.append((f"boundary_simplex({d})", gen_boundary_simplex(d)))
    for d in (2, 3):
        members.append((f"cross_polytope({d})", gen_cross_polytope(d)))
    members.append(("rp2_six", gen_rp2_six()))
    members.append(("two_points", _two_points()))
    densities = (0.25, 0.4, 0.55, 0.7, 0.85)
    for seed in range(200):
        n = 5 + seed % 5
        density = densities[(seed // 5) % 5]
        members.append((f"flag(n={n}, d={density}, seed={seed})",
                        gen_random_flag(n, density, seed)))
    return members


def _check_member(tag, cpx, bad):
    def req(cond, prop, detail=""):
        if not cond:
            bad.append(f"{tag}: {prop} {detail}".rstrip())

    lg = cpx.largeness()
    p = lg.gl_index()
    regs = {}
    for coeff in ("q", "f2"):
        by_links = regularity(cpx, coeff, "links")
        by_scan = regularity(cpx, coeff, "induced")
        table = betti_table(cpx, coeff)
        req(by_scan.value == by_links.value == table.reg,
            "three-way regularity",
            f"{by_scan.value}/{by_links.value}/{table.reg}")
        req(verify_regularity_witness(cpx, by_scan), "scan witness")
        req(verify_regularity_witness(cpx, by_links), "link witness")
        req(table.linear_index() == p, "index agreement",
            f"algebraic {table.linear_index()} vs {p}")
        regs[coeff] = by_scan.value

    dual = cpx.alexander_dual()
    if dual.is_void():
        req(regs["q"] == 0 and regs["f2"] == 0, "void dual needs reg 0")
    else:
        for coeff in ("q", "f2"):
            req(betti_table(dual, coeff).projdim - 1 == regs[coeff],
                "dual projdim vs reg", coeff)
            req(betti_table(cpx, coeff).projdim - 1
                == regularity(dual, coeff).value,
                "projdim vs dual reg", coeff)

    for coeff in ("q", "f2"):
        if regs[coeff] < 1 or cpx.n == 0:
            continue
        req(any(regularity(cpx.link([v]), coeff).value >= regs[coeff] - 1
                for v in range(cpx.n)),
            "no vertex link within one of reg", coeff)

    for coeff in ("z", "q", "f2"):
        req(cdreg_claim_check(cpx, coeff).equal, "claim", coeff)

    if cpx.n <= 7:
        fc = cpx.face_complex()
        for coeff in ("q", "f2"):
            req(regularity(fc, coeff, "links").value == regs[coeff],
                "face-complex regularity", coeff)

    if p == INF:
        req(regs["q"] <= 1 and regs["f2"] <= 1,
            "linear resolution needs reg <= 1")
    elif p >= 2:
        for coeff in ("q", "f2"):
            req(dhs_bound(cpx.n, p).holds_for(regs[coeff]),
                "log bound", coeff)
            if is_cohen_macaulay(cpx, coeff):
                req(cm_double_log_bound(cpx.n, p).holds_for(regs[coeff]),
                    "double-log bound", coeff)

    for coeff in ("q", "f2"):
        rep = verify_top_homology_bound(cpx, coeff)
        if rep["hypotheses_met"]:
            req(rep["facet_bound_ok"], "facet count bound", coeff)
            req(rep["vertex_bound_ok"], "vertex count bound", coeff)


def test_criterion_6_property_corpus():
    t0 = time.perf_counter()
    members = _corpus()
    assert sum(1 for tag, _ in members if tag.startswith("flag")) >= 200
    bad = []
    for tag, cpx in members:
        _check_member(tag, cpx, bad)
    assert not bad, "violations:\n" + "\n".join(bad)
    _finish(6, "property corpus", t0, budget=1800)


def test_criterion_7_scale_limits():
    """Full-size runs stay out of scope; the tower evaluator and the
    certification-only searches stand in for them."""
    t0 = time.perf_counter()
    for p in range(2, 9):
        base = tower_N(p, 2)
        assert base.value == p + 3
        assert base.expr == f"{p}+3"
    step = tower_N(2, 3)
    assert step.value == 5 ** 100
    assert "N(2,2)" in step.expr
    deep = tower_N(2, 4)
    assert deep.value is None
    assert "N(2,3)" in deep.expr
    _finish(7, "scale limits", t0)
