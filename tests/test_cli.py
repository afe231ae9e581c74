"""Command-line behavior: formats, exit codes, reproducibility."""

import json

import pytest

from srcox import complex_core
from srcox import quotient_builder as qb
from srcox.cli import main


@pytest.fixture
def pent_file(tmp_path):
    path = tmp_path / "pentagon.cplx"
    assert main(["gen", "cycle", "--k", "5", "--out", str(path)]) == 0
    return str(path)


@pytest.fixture
def rp2_file(tmp_path):
    path = tmp_path / "rp2.cplx"
    assert main(["gen", "rp2_six", "--out", str(path)]) == 0
    return str(path)


@pytest.fixture
def two_file(tmp_path):
    path = tmp_path / "two.cplx"
    path.write_text("isolated: a b\n")
    return str(path)


def run(capsys, argv):
    capsys.readouterr()  # drop fixture output
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def jrun(capsys, argv):
    code, out, err = run(capsys, argv)
    env = json.loads(out)
    assert env["schema"] == 1
    assert env["invocation"] == argv
    return code, env, out


def test_gen_stdout(capsys):
    code, out, err = run(capsys, ["gen", "cycle", "--k", "4"])
    assert code == 0
    assert len(out.strip().splitlines()) == 4


def test_gen_missing_parameter(capsys):
    code, _, err = run(capsys, ["gen", "cycle"])
    assert code == 2 and "error:" in err


def test_json_round_trip_byte_identical(capsys, rp2_file):
    argv = ["reg", rp2_file, "--field", "f2", "--format", "json"]
    code, env, out1 = jrun(capsys, argv)
    assert code == 0 and env["report"]["value"] == 3
    code, _, out2 = jrun(capsys, list(env["invocation"]))
    assert out1 == out2


def test_reg_text(capsys, pent_file):
    code, out, _ = run(capsys, ["reg", pent_file])
    assert code == 0
    assert "regularity: 2" in out and "witness:" in out
    code, out, _ = run(capsys, ["reg", pent_file, "--method", "links"])
    assert code == 0 and "regularity: 2" in out


def test_betti_grid(capsys, pent_file):
    code, out, _ = run(capsys, ["betti", pent_file])
    assert code == 0 and "projdim: 3" in out


def test_index_modes(capsys, pent_file):
    code, out, _ = run(capsys, ["index", pent_file])
    assert code == 0 and "index: 2" in out
    code, out, _ = run(capsys,
                       ["index", pent_file, "--mode", "algebraic"])
    assert code == 0 and "index: 2" in out


def test_cm_fields(capsys, rp2_file):
    assert "cohen_macaulay: true" in run(capsys, ["cm", rp2_file])[1]
    assert "cohen_macaulay: false" in \
        run(capsys, ["cm", rp2_file, "--field", "f2"])[1]


def test_vcd(capsys, rp2_file):
    code, env, _ = jrun(capsys, ["vcd", rp2_file, "--format", "json"])
    assert code == 0
    assert env["report"]["value"] == 3
    assert env["report"]["reg_by_char"] == {"0": 2, "2": 3}


def test_claim_sentinel(capsys, tmp_path):
    simp = tmp_path / "simp.cplx"
    assert main(["gen", "simplex", "--d", "3", "--out", str(simp)]) == 0
    simp = str(simp)
    code, env, _ = jrun(capsys, ["claim", simp, "--format", "json"])
    assert code == 0
    assert env["report"]["lhs"] == env["report"]["rhs"] == "-inf"


def test_dual_void_note(capsys, tmp_path):
    simp = tmp_path / "simp.cplx"
    assert main(["gen", "simplex", "--d", "2", "--out", str(simp)]) == 0
    code, out, err = run(capsys, ["dual", str(simp)])
    assert code == 0 and "void" in err


def test_dual_and_facecomplex_files(capsys, pent_file, tmp_path):
    dual = tmp_path / "dual.cplx"
    code, _, _ = run(capsys, ["dual", pent_file, "--out", str(dual)])
    assert code == 0
    code, out, _ = run(capsys, ["largeness", str(dual)])
    assert "flag: false" in out
    fc = tmp_path / "fc.cplx"
    assert main(["facecomplex", pent_file, "--out", str(fc)]) == 0
    code, out, _ = run(capsys, ["reg", str(fc)])
    assert "regularity: 2" in out


def test_nonface_budget_exits_3(capsys, monkeypatch, rp2_file, pent_file):
    monkeypatch.setattr(complex_core, "NONFACE_SUBSET_BUDGET", 10)
    for command, path in (("largeness", rp2_file), ("dual", rp2_file),
                          ("dual", pent_file)):
        code, out, err = run(capsys, [command, path])
        assert code == 3 and not out
        assert "examined 10 of" in err
    code, out, _ = run(capsys, ["largeness", pent_file])
    assert code == 0 and "min_nonface_size: 2" in out


def test_largeness(capsys, pent_file):
    code, out, _ = run(capsys, ["largeness", pent_file])
    assert code == 0
    assert "max_k: 5" in out and "shortest_induced_cycle: 5" in out


def test_bounds(capsys):
    code, out, _ = run(
        capsys, ["bounds", "dhs", "--n", "5", "--p", "2", "--reg", "2"])
    assert code == 0 and "holds: true" in out
    code, env, _ = jrun(capsys, ["bounds", "tower", "--p", "2", "--r", "3",
                                 "--format", "json"])
    assert env["report"]["value"] == str(5 ** 100)
    code, _, err = run(capsys, ["bounds", "dhs", "--n", "5"])
    assert code == 2 and "needs" in err


def test_coxeter_table(capsys, two_file):
    code, out, _ = run(capsys, ["coxeter-table", two_file, "--max-len", "4"])
    assert code == 0 and "total: 9" in out


def test_coxeter_search_exit_codes(capsys, pent_file):
    code, out, _ = run(
        capsys, ["coxeter-search", pent_file, "--mod", "7", "--k", "5"])
    assert code == 0 and "status: CERTIFIED" in out
    code, out, _ = run(
        capsys, ["coxeter-search", pent_file, "--mod", "5", "--k", "5"])
    assert code == 0 and "status: COUNTEREXAMPLE" in out
    code, out, _ = run(
        capsys, ["coxeter-search", pent_file, "--mod", "7", "--k", "5",
                 "--budget", "50"])
    assert code == 3 and "status: UNDECIDED" in out


def test_construct_writes_output_and_sidecar(capsys, two_file, tmp_path):
    out_path = tmp_path / "scx.cplx"
    code, out, err = run(
        capsys, ["construct", two_file, "--k", "4", "--mod", "5",
                 "--out", str(out_path)])
    assert code == 0
    side = tmp_path / "scx.cert.json"
    cert = json.loads(side.read_text())
    assert cert["emitted"] is True and cert["group_order"] == 10
    code, out, _ = run(capsys, ["largeness", str(out_path)])
    assert "shortest_induced_cycle: 10" in out


def test_construct_rejection_and_budget(capsys, pent_file, two_file):
    code, env, _ = jrun(capsys, ["construct", pent_file, "--k", "5",
                                 "--mod", "5", "--format", "json"])
    assert code == 4
    assert env["report"]["certificate"]["displacement_status"] == \
        "COUNTEREXAMPLE"
    code, _, _ = run(capsys, ["construct", two_file, "--k", "4",
                              "--mod", "2"])
    assert code == 4
    code, env, _ = jrun(capsys, ["construct", two_file, "--k", "4",
                                 "--mod", "5", "--ball-budget", "5",
                                 "--format", "json"])
    assert code == 3
    assert env["report"]["certificate"]["displacement_status"] == "UNDECIDED"


def test_construct_default_modulus_long_girth(capsys, two_file):
    # modulus 3^6 = 729: a 1458-cycle, whose hole search once overflowed
    # the recursion limit
    code, env, _ = jrun(capsys, ["construct", two_file, "--k", "7",
                                 "--format", "json"])
    assert code == 0
    cert = env["report"]["certificate"]
    assert cert["emitted"] is True and cert["group_order"] == 1458


def test_input_error_codes(capsys, pent_file):
    assert run(capsys, ["reg", "/no/such/file.cplx"])[0] == 2
    assert run(capsys, ["reg", pent_file, "--field", "f6"])[0] == 2
    assert run(capsys, ["betti", pent_file, "--field", "z"])[0] == 2
    assert run(capsys, ["construct", pent_file, "--k", "3"])[0] == 2


def test_argparse_behavior(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main(["reg"]) == 2
    capsys.readouterr()


def test_construct_failed_check_exits_4(capsys, monkeypatch, two_file):
    real = qb.quotient_complex

    def drop_last_cell(rep, group):
        q = real(rep, group)
        return qb.QuotientComplex(q.group, q.cells[:-1], q.coset_sizes_ok)

    monkeypatch.setattr(qb, "quotient_complex", drop_last_cell)
    code, env, _ = jrun(capsys, ["construct", two_file, "--k", "4",
                                 "--mod", "5", "--format", "json"])
    assert code == 4
    cert = env["report"]["certificate"]
    assert cert["link_check"] is False and cert["emitted"] is False
