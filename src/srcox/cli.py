"""Command-line front end.

Every run prints either plain text or a JSON envelope carrying the
invocation it came from, so a report can always be reproduced by
feeding the echoed argument list back in.  Exit codes: 0 success,
2 bad input, 3 budget exhausted, 4 a checked property failed, 1 crash.
"""

import argparse
import functools
import json
import math
import sys
import traceback
from fractions import Fraction

from . import quotient_builder as qb
from . import racg
from . import sr_invariants as sr
from .complex_core import bits_of, generate, load_cplx
from .errors import DomainError, ResourceError, SrcoxError
from .homology import DEFAULT_SCAN_CAP, coeff_name, parse_coeff

SCHEMA = 1


def jsonify(x):
    if x is None or isinstance(x, (bool, int, str)):
        return x
    if isinstance(x, float):
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return x
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, dict):
        return {str(k): jsonify(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonify(v) for v in x]
    return str(x)


def fmt_value(x):
    if x is None:
        return "none"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, float) and math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return str(x)


@functools.cache  # one parser per process: building it costs ~2 ms
def build_parser():
    p = argparse.ArgumentParser(
        prog="srcox",
        description="Exact Stanley-Reisner invariants and right-angled "
                    "Coxeter quotients of simplicial complexes.",
        epilog="Exit codes: 0 success, 2 input or domain error, "
               "3 resource budget exhausted, 4 property violation, 1 crash.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, field=False, method=False, scan=False, out=False,
               coeff_default="q"):
        sp.add_argument("--format", choices=("text", "json"), default="text")
        if field:
            sp.add_argument("--field", default=coeff_default,
                            help="coefficients: q, z, or f<p> (p prime)")
        if method:
            sp.add_argument("--method", choices=("induced", "links"),
                            default="induced")
        if scan:
            sp.add_argument("--cap", type=int, default=DEFAULT_SCAN_CAP,
                            help="max subset evaluations for scans")
        if out:
            sp.add_argument("--out", default=None,
                            help="write the complex here instead of stdout")
        return sp

    g = common(sub.add_parser("gen", help="generate a named complex"),
               out=True)
    g.add_argument("kind", choices=("cycle", "simplex", "boundary_simplex",
                                    "cross_polytope", "rp2_six",
                                    "random_flag"))
    g.add_argument("--k", type=int, help="cycle length")
    g.add_argument("--d", type=int, help="dimension parameter")
    g.add_argument("--n", type=int, help="vertex count (random_flag)")
    g.add_argument("--density", type=float, help="edge density (random_flag)")
    g.add_argument("--seed", type=int, default=0)

    r = common(sub.add_parser("reg", help="Castelnuovo-Mumford regularity"),
               field=True, method=True, scan=True)
    r.add_argument("input")

    b = common(sub.add_parser("betti", help="graded Betti table"),
               field=True, scan=True)
    b.add_argument("input")

    i = common(sub.add_parser("index", help="Green-Lazarsfeld index"),
               field=True, scan=True)
    i.add_argument("input")
    i.add_argument("--mode", choices=("combinatorial", "algebraic"),
                   default="combinatorial")

    c = common(sub.add_parser("cm", help="Cohen-Macaulay test"), field=True)
    c.add_argument("input")

    v = common(sub.add_parser("vcd", help="virtual cohomological dimension "
                                          "of the nerve's reflection group"),
               scan=True)
    v.add_argument("input")

    cl = common(sub.add_parser("claim", help="compare face-complement vs "
                                             "subset cohomology maxima"),
                field=True, scan=True, coeff_default="z")
    cl.add_argument("input")

    d = common(sub.add_parser("dual", help="Alexander dual"), out=True)
    d.add_argument("input")

    f = common(sub.add_parser("facecomplex", help="complex on the nonempty "
                                                  "faces"), out=True)
    f.add_argument("input")

    lg = common(sub.add_parser("largeness", help="flag/girth report"))
    lg.add_argument("input")

    bd = common(sub.add_parser("bounds", help="exact bound evaluators"))
    bd.add_argument("kind", choices=("dhs", "cm_double_log", "facet",
                                     "vertex", "tower"))
    bd.add_argument("--n", type=int)
    bd.add_argument("--p", type=int)
    bd.add_argument("--d", type=int)
    bd.add_argument("--r", type=int)
    bd.add_argument("--reg", type=int,
                    help="also test whether this regularity satisfies the "
                         "bound")

    ct = common(sub.add_parser("coxeter-table", help="Cayley ball growth "
                                                     "and entry sizes"))
    ct.add_argument("input")
    ct.add_argument("--max-len", type=int, default=10)
    ct.add_argument("--set", dest="generating_set",
                    choices=("standard", "spherical"), default="standard")
    ct.add_argument("--budget", type=int, default=racg.DEFAULT_BALL_BUDGET)

    cs = common(sub.add_parser("coxeter-search", help="mod-m kernel "
                                                      "displacement search"))
    cs.add_argument("input")
    cs.add_argument("--mod", type=int, required=True)
    cs.add_argument("--k", type=int, required=True)
    cs.add_argument("--budget", type=int, default=racg.DEFAULT_BALL_BUDGET)

    co = common(sub.add_parser("construct", help="certified large-girth "
                                                 "quotient"), out=True)
    co.add_argument("input")
    co.add_argument("--k", type=int, required=True)
    co.add_argument("--mod", type=int, default=None)
    co.add_argument("--ball-budget", type=int,
                    default=racg.DEFAULT_BALL_BUDGET)
    co.add_argument("--group-budget", type=int,
                    default=qb.DEFAULT_GROUP_BUDGET)

    return p


def _labels(cpx, ids):
    return [cpx.label_of(v) for v in ids]


def _witness_with_labels(cpx, witness):
    if witness is None:
        return None
    out = dict(witness)
    for key in ("subset", "face"):
        if key in out:
            out[key + "_labels"] = _labels(cpx, out[key])
    return out


def _emit(args, argv, report, lines):
    if args.format == "json":
        envelope = {
            "schema": SCHEMA,
            "command": args.command,
            "invocation": list(argv),
            "report": jsonify(report),
        }
        print(json.dumps(envelope, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _write_complex(cpx, path):
    text = cpx.to_cplx()
    if not text and not cpx.is_void():
        text = "# complex consisting of the empty face only; " \
               "the facet-line format cannot express it\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _complex_report(cpx):
    return {
        "n": cpx.n,
        "dim": None if cpx.dim is None else cpx.dim,
        "facets": [_labels(cpx, bits_of(f)) for f in cpx.facets],
        "labels": list(cpx.labels) if cpx.labels else None,
    }


def _print_complex(args, argv, cpx, extra, note=None):
    """The JSON report (with extra keys) or the complex itself as text;
    --out sends the complex to a file, and the note goes to stderr."""
    if args.format == "json":
        _emit(args, argv, {**_complex_report(cpx), **extra}, [])
    if args.out or args.format == "text":
        _write_complex(cpx, args.out)
    if note:
        print(note, file=sys.stderr)
    if args.out and args.format == "text":
        print(f"wrote {args.out}: n={cpx.n}, {len(cpx.facets)} facets")
    return 0


def cmd_gen(args, argv):
    kind = args.kind
    if kind == "cycle" and args.k is None:
        raise DomainError("gen cycle needs --k")
    if kind in ("simplex", "boundary_simplex", "cross_polytope") \
            and args.d is None:
        raise DomainError(f"gen {kind} needs --d")
    if kind == "random_flag" and (args.n is None or args.density is None):
        raise DomainError("gen random_flag needs --n and --density")
    cpx = generate(kind, k=args.k, d=args.d, n=args.n, density=args.density,
                   seed=args.seed)
    return _print_complex(args, argv, cpx, {"cplx": cpx.to_cplx()})


def cmd_reg(args, argv):
    cpx = load_cplx(args.input)
    rep = sr.regularity(cpx, parse_coeff(args.field), args.method,
                        cap=args.cap)
    report = rep.to_dict()
    report["witness"] = _witness_with_labels(cpx, rep.witness)
    lines = [f"regularity: {rep.value}",
             f"field: {report['field']}",
             f"method: {rep.method}"]
    if rep.void:
        lines.append("void: true")
    if rep.witness:
        kind = "subset" if "subset" in rep.witness else "face"
        toks = ",".join(report["witness"][kind + "_labels"])
        lines.append(f"witness: {kind} {{{toks}}} degree "
                     f"{rep.witness['degree']}")
    _emit(args, argv, report, lines)
    return 0


def cmd_betti(args, argv):
    cpx = load_cplx(args.input)
    table = sr.betti_table(cpx, parse_coeff(args.field), cap=args.cap)
    lines = [f"field: {table.to_dict()['field']}",
             f"reg: {table.reg}",
             f"projdim: {table.projdim}",
             table.render_grid()]
    _emit(args, argv, table.to_dict(), lines)
    return 0


def cmd_index(args, argv):
    cpx = load_cplx(args.input)
    report = {"mode": args.mode}
    if args.mode == "combinatorial":
        value = sr.gl_index(cpx)
    else:
        coeff = parse_coeff(args.field)
        value = sr.gl_index(cpx, "algebraic", coeff, cap=args.cap)
        report["field"] = coeff_name(coeff)
    report["value"] = value
    lines = [f"index: {fmt_value(value)}", f"mode: {args.mode}"]
    if "field" in report:
        lines.append(f"field: {report['field']}")
    _emit(args, argv, report, lines)
    return 0


def cmd_cm(args, argv):
    cpx = load_cplx(args.input)
    coeff = parse_coeff(args.field)
    value = sr.is_cohen_macaulay(cpx, coeff)
    field = coeff_name(coeff)
    _emit(args, argv, {"cohen_macaulay": value, "field": field},
          [f"cohen_macaulay: {fmt_value(value)}", f"field: {field}"])
    return 0


def cmd_vcd(args, argv):
    cpx = load_cplx(args.input)
    rep = sr.vcd_nerve(cpx, cap=args.cap)
    report = rep.to_dict()
    report["witness"] = _witness_with_labels(cpx, rep.witness)
    lines = [f"vcd: {rep.value}"]
    if rep.witness:
        toks = ",".join(report["witness"]["face_labels"])
        lines.append(f"witness: face {{{toks}}} degree "
                     f"{rep.witness['degree']}")
    lines.append("torsion_primes: "
                 + (",".join(map(str, rep.torsion_primes)) or "none"))
    for char in sorted(rep.reg_by_char):
        lines.append(f"reg[char {char}]: {rep.reg_by_char[char]}")
    lines.append(f"max_char_reg: {rep.max_char_reg()}")
    _emit(args, argv, report, lines)
    return 0


def cmd_claim(args, argv):
    cpx = load_cplx(args.input)
    rep = sr.cdreg_claim_check(cpx, parse_coeff(args.field), cap=args.cap)
    report = rep.to_dict()
    report["lhs_witness"] = _witness_with_labels(cpx, rep.lhs_witness)
    report["rhs_witness"] = _witness_with_labels(cpx, rep.rhs_witness)
    lines = [f"lhs: {'-inf' if rep.lhs is None else rep.lhs}",
             f"rhs: {'-inf' if rep.rhs is None else rep.rhs}",
             f"equal: {fmt_value(rep.equal)}",
             f"coeff: {report['coeff']}"]
    _emit(args, argv, report, lines)
    return 0 if rep.equal else 4


def cmd_dual(args, argv):
    cpx = load_cplx(args.input)
    dual = cpx.alexander_dual()
    note = None
    if dual.is_void():
        note = "note: the dual is the void complex (input was a full simplex)"
    elif dual.facets == (0,):
        note = "note: the dual has only the empty face; the output file " \
               "cannot encode it as facet lines"
    return _print_complex(args, argv, dual, {"void": dual.is_void()}, note)


def cmd_facecomplex(args, argv):
    cpx = load_cplx(args.input)
    return _print_complex(args, argv, cpx.face_complex(), {})


def cmd_largeness(args, argv):
    cpx = load_cplx(args.input)
    rep = cpx.largeness()
    report = rep.to_dict()
    lines = [f"flag: {fmt_value(rep.flag)}",
             f"min_nonface_size: {fmt_value(rep.min_nonface_size)}",
             f"shortest_induced_cycle: {fmt_value(rep.shortest_induced_cycle)}",
             f"max_k: {fmt_value(rep.max_k)}"]
    _emit(args, argv, report, lines)
    return 0


def cmd_bounds(args, argv):
    kind = args.kind

    def need(**kw):
        for name, val in kw.items():
            if val is None:
                raise DomainError(f"bounds {kind} needs --{name}")

    if kind == "dhs":
        need(n=args.n, p=args.p)
        bound = sr.dhs_bound(args.n, args.p)
    elif kind == "cm_double_log":
        need(n=args.n, p=args.p)
        bound = sr.cm_double_log_bound(args.n, args.p)
    elif kind == "facet":
        need(d=args.d, p=args.p)
        bound = sr.facet_bound(args.d, args.p)
    elif kind == "vertex":
        need(d=args.d, p=args.p)
        bound = sr.vertex_bound(args.d, args.p)
    else:
        need(p=args.p, r=args.r)
        bound = sr.tower_N(args.p, args.r)
    report = bound.to_dict()
    if args.reg is not None and hasattr(bound, "holds_for"):
        report["reg"] = args.reg
        report["holds"] = bound.holds_for(args.reg)
    lines = [f"{k}: {fmt_value(v)}" for k, v in report.items()]
    _emit(args, argv, report, lines)
    return 0


def cmd_coxeter_table(args, argv):
    cpx = load_cplx(args.input)
    rep = racg.build_system(cpx)
    ball = racg.word_ball(rep, args.max_len, args.generating_set,
                          args.budget)
    report = ball.to_dict()
    lines = ["length  count  max_entry"]
    for l, (cnt, mx) in enumerate(zip(ball.level_counts,
                                      ball.level_max_entry)):
        lines.append(f"{l:<7} {cnt:<6} {mx}")
    lines.append(f"total: {ball.total()}")
    _emit(args, argv, report, lines)
    return 0


def cmd_coxeter_search(args, argv):
    cpx = load_cplx(args.input)
    rep = racg.build_system(cpx)
    res = racg.kernel_displacement_search(rep, args.mod, args.k, args.budget)
    report = res.to_dict()
    lines = [f"status: {res.status}",
             f"m: {res.m}", f"k: {res.k}",
             f"ball_length: {res.ball_length}",
             f"detail: {res.detail}"]
    if res.witness is not None:
        lines.append("witness: " + " ".join(
            cpx.label_of(i) for i in res.witness))
    _emit(args, argv, report, lines)
    return 3 if res.status == "UNDECIDED" else 0


def cmd_construct(args, argv):
    cpx = load_cplx(args.input)
    try:
        out, cert = qb.s_construction(cpx, args.k, m=args.mod,
                                      ball_budget=args.ball_budget,
                                      group_budget=args.group_budget)
    except qb.ConstructionRejected as e:
        report = {"rejected": str(e), "certificate": e.certificate.to_dict()}
        lines = [f"rejected: {e}"] + _cert_lines(e.certificate)
        _emit(args, argv, report, lines)
        return 4
    except ResourceError as e:
        cert = getattr(e, "certificate", None)
        if cert is None:
            raise
        report = {"undecided": str(e), "certificate": cert.to_dict()}
        lines = [f"undecided: {e}"] + _cert_lines(cert)
        _emit(args, argv, report, lines)
        return 3
    report = None  # text mode prints the lines only
    if args.format == "json":
        report = {
            "certificate": cert.to_dict(),
            "complex": _complex_report(out),
        }
    lines = _cert_lines(cert) + [
        f"output: n={out.n}, {len(out.facets)} facets, dim {out.dim}"]
    _emit(args, argv, report, lines)
    if args.out:
        _write_complex(out, args.out)
        side = args.out[:-5] + ".cert.json" \
            if args.out.endswith(".cplx") else args.out + ".cert.json"
        with open(side, "w", encoding="utf-8") as fh:
            json.dump(jsonify(cert.to_dict()), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out} and {side}", file=sys.stderr)
    return 0


def _cert_lines(cert):
    d = cert.to_dict()
    lines = []
    for key in ("k", "m", "displacement_status", "torsion_free",
                "link_check", "largeness_ok", "group_order", "emitted"):
        lines.append(f"{key}: {fmt_value(d[key])}")
    if d["counterexample"] is not None:
        lines.append("counterexample: "
                     + " ".join(map(str, d["counterexample"])))
    return lines


HANDLERS = {
    "gen": cmd_gen,
    "reg": cmd_reg,
    "betti": cmd_betti,
    "index": cmd_index,
    "cm": cmd_cm,
    "vcd": cmd_vcd,
    "claim": cmd_claim,
    "dual": cmd_dual,
    "facecomplex": cmd_facecomplex,
    "largeness": cmd_largeness,
    "bounds": cmd_bounds,
    "coxeter-table": cmd_coxeter_table,
    "coxeter-search": cmd_coxeter_search,
    "construct": cmd_construct,
}


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on bad flags, 0 on --help; keep its choice
        return int(e.code or 0)
    try:
        return HANDLERS[args.command](args, argv)
    except SrcoxError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
