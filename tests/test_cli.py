"""Command-line behavior: formats, exit codes, reproducibility."""

import hashlib
import json

import pytest

from srcox import complex_core
from srcox import quotient_builder as qb
from srcox.cli import build_parser, main


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


def test_reg_text_void(capsys, tmp_path):
    path = tmp_path / "void.cplx"
    path.write_text("")
    code, out, _ = run(capsys, ["reg", str(path)])
    assert code == 0
    assert out == "regularity: 0\nfield: q\nmethod: induced\nvoid: true\n"


def test_betti_grid(capsys, pent_file):
    code, out, _ = run(capsys, ["betti", pent_file])
    assert code == 0 and "projdim: 3" in out


def test_index_modes(capsys, pent_file):
    code, out, _ = run(capsys, ["index", pent_file])
    assert code == 0 and "index: 2" in out and "field:" not in out
    code, out, _ = run(capsys,
                       ["index", pent_file, "--mode", "algebraic"])
    assert code == 0 and out == "index: 2\nmode: algebraic\nfield: q\n"


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
    # rp2 has 32 faces and 49 nonface candidates, the pentagon 11 and 21:
    # one candidate past the budget stops the pass
    for budget, command, path, want in (
            (48, "largeness", rp2_file, "49 candidates from 29 of 32"),
            (48, "dual", rp2_file, "49 candidates from 29 of 32"),
            (20, "dual", pent_file, "21 candidates from 10 of 11")):
        monkeypatch.setattr(complex_core, "FACE_BUDGET", budget)
        code, out, err = run(capsys, [command, path])
        assert code == 3 and not out
        assert f"reached {want} faces, budget {budget}" in err
    code, out, _ = run(capsys, ["largeness", pent_file])
    assert code == 0 and "min_nonface_size: 2" in out


def test_rp2_face_complex_dual_and_largeness(capsys, rp2_file, tmp_path):
    fc = str(tmp_path / "fc.cplx")
    assert main(["facecomplex", rp2_file, "--out", fc]) == 0
    code, env, _ = jrun(capsys, ["dual", fc, "--format", "json"])
    assert code == 0
    assert env["report"]["n"] == 31 and len(env["report"]["facets"]) == 325
    code, out, _ = run(capsys, ["largeness", fc])
    assert code == 0 and "min_nonface_size: 2" in out


def test_clique_budget_exits_3(capsys, monkeypatch, tmp_path):
    path = str(tmp_path / "octa6.cplx")
    assert main(["gen", "cross_polytope", "--d", "6", "--out", path]) == 0
    monkeypatch.setattr(complex_core, "FACE_BUDGET", 100)
    code, out, err = run(capsys, ["largeness", path])
    assert code == 3 and not out
    assert "visited 101 cliques" in err


@pytest.mark.parametrize("argv", [["reg", "--method", "links"], ["cm"],
                                  ["betti"], ["vcd"]])
def test_face_budget_exits_3(capsys, monkeypatch, pent_file, argv):
    # the pentagon has 11 faces; the second of its 5 edges passes 5
    monkeypatch.setattr(complex_core, "FACE_BUDGET", 5)
    code, out, err = run(capsys, argv + [pent_file])
    assert code == 3 and not out
    assert "reached 6 faces from 2 of 5 facets, budget 5" in err


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


@pytest.mark.parametrize("opts, holds", [
    (["cm_double_log", "--n", "100", "--p", "2", "--reg", "40"], False),
    (["cm_double_log", "--n", "100", "--p", "2", "--reg", "-40"], True),
    (["dhs", "--n", "10", "--p", "2", "--reg", "100000000"], False),
    (["dhs", "--n", "10", "--p", "2", "--reg", "-100000000"], True),
])
def test_bounds_decide_huge_exponents(capsys, opts, holds):
    # powers of 2^37, 2^43 and 10^8: decided once a partial power passes
    code, env, _ = jrun(capsys, ["bounds", *opts, "--format", "json"])
    assert code == 0 and env["report"]["holds"] is holds


def test_coxeter_table(capsys, two_file):
    code, out, _ = run(capsys, ["coxeter-table", two_file, "--max-len", "4"])
    assert code == 0 and "total: 9" in out


def test_coxeter_table_stops_when_group_is_used_up(capsys, tmp_path):
    # a 2-simplex nerve: the group is (Z/2)^3, eight elements, and the
    # ball stops growing before --max-len
    path = tmp_path / "tri.cplx"
    path.write_text("a b c\n")
    for opts, counts in (([], [1, 3, 3, 1]), (["--set", "spherical"], [1, 7])):
        code, env, _ = jrun(capsys, ["coxeter-table", str(path), *opts,
                                     "--format", "json"])
        assert code == 0 and env["report"]["complete"]
        assert [lv["count"] for lv in env["report"]["levels"]] == counts
        code, out, _ = run(capsys, ["coxeter-table", str(path), *opts])
        assert code == 0 and out.endswith("total: 8\n")


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


def test_construct_group_budget_exits_3(capsys, two_file):
    # the image group has no certificate to report: a plain budget error
    code, out, err = run(capsys, ["construct", two_file, "--k", "4",
                                  "--mod", "5", "--group-budget", "3"])
    assert code == 3 and not out
    assert err == "error: image group exceeded budget 3 elements\n"


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


def test_undecodable_input_exits_2(capsys, tmp_path):
    path = tmp_path / "bytes.cplx"
    path.write_bytes(b"\xff\xfefacets: a b\n")
    for argv in (["reg", str(path)], ["betti", str(path), "--format", "json"],
                 ["dual", str(path)]):
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert err.startswith("error: cannot read") and "Traceback" not in err


@pytest.mark.parametrize("spelling,name", [("Q", "q"), ("F2", "f2"),
                                           (" f3 ", "f3")])
def test_field_names_normalised(capsys, rp2_file, spelling, name):
    for argv in (["cm", rp2_file], ["index", rp2_file, "--mode", "algebraic"]):
        code, env, _ = jrun(capsys, argv + ["--field", spelling,
                                            "--format", "json"])
        assert code == 0 and env["report"]["field"] == name
    code, out, _ = run(capsys, ["cm", rp2_file, "--field", spelling])
    assert code == 0 and f"field: {name}\n" in out


def test_argparse_behavior(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main(["reg"]) == 2
    capsys.readouterr()
    # one parser per process serves every call, failed parses included
    assert build_parser() is build_parser()


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


FROZEN_INPUTS = {
    "pentagon": ["cycle", "--k", "5"],
    "rp2_six": ["rp2_six"],
    "octahedron": ["cross_polytope", "--d", "3"],
    "flag_9_1": ["random_flag", "--n", "9", "--density", "0.5",
                 "--seed", "1"],
    "flag_10_2": ["random_flag", "--n", "10", "--density", "0.4",
                  "--seed", "2"],
    "flag_11_3": ["random_flag", "--n", "11", "--density", "0.6",
                  "--seed", "3"],
}
FROZEN_RUNS = (
    ["betti", "--field", "q"],
    ["betti", "--field", "f2"],
    ["reg", "--field", "q"],
    ["reg", "--field", "f2"],
    ["reg", "--field", "q", "--method", "links"],
    ["reg", "--field", "f2", "--method", "links"],
    ["vcd"],
    ["claim", "--field", "z"],
    ["claim", "--field", "f2"],
)
# sha256 of each JSON report, in FROZEN_RUNS order: reports must stay
# byte-identical, witnesses included, while the code behind them changes
FROZEN_REPORTS = {
    "pentagon": (
        "f2c5e70a577cfe4f454e3f541acf106ccb187f4cda7142017fe786353f9833de",
        "c54c6e284ded1bc46e9c1bdf6936ded7290a65cc3b260d89a10cd60abc54fa7b",
        "91c7a1773b1c099f82c2cda6a89e39e01b241ae3a0340dd34595bc2fd18eed12",
        "a21860d7e4f993a3dce340a45b0711918b3ca7d082413abdbd107c86c7367de0",
        "c76d1026503807f87b10a5b95fec52835e6ec951eaccb0e35ddc7b44e861c45e",
        "be2c8b7e6045bdc639d52e847c01211d6c949e97b1799ff991e01b4249064b10",
        "847e4e93675bbc7b972a7357aa46c360c3aa11103ed6a66455241941c68284f4",
        "367d0ccfb5f560840475a3af6f96818f2645ad482071ff80b1d600093820cf73",
        "4536a8d3980cf7e0a1b24908c5c23c7078f67016d40df5f23cb6d55015307511",
    ),
    "rp2_six": (
        "79b42fbff91dcb3c18a3f981c57da5e3f5c484ee61c1936634961c52743d6311",
        "0328bf44de9e6a9b751e9e1718cd0fd8f9beee18339d269c04c8a806138c56a9",
        "a22f17ecec5abfb946b6888987135d155c1f1187b5a1f79272f8a5c5dd47754f",
        "54172a5f60bb95dfe2e868b88f1ca3a0e987491622aec6e0419c4d2117e0a9ac",
        "d8841b0fc3558892d12c33c0e6e8f6b0704daef22b88503f40b3625e4dcb5746",
        "341e45c670213893fc7af5361652fd52abeec8f991ab616f4f5b987887039140",
        "55af7a26dff4475aa5a53c9ba155e8e237d1ad74eeb40947be0a9cd10957e726",
        "695ca409662ccbe932b3d37cad1f5a6b0ebe1574d6cde34064a45459a6ec1fa2",
        "3c9ead487f1b75a3b9e9553995f7887f00ce45d837218c335992db3e8d4e7d46",
    ),
    "octahedron": (
        "f29449ee9ad7c854431ac6c4081490d290ab1bc2d412bff8ae3a8a4dda84d60c",
        "f795b9c97b773ce9a80d808575e38df4d4d3a204350b79df2dcab32c1968818d",
        "18caa4f8b2b3c085985af7b8a03439f95765692749541171497005b402cef670",
        "54172a5f60bb95dfe2e868b88f1ca3a0e987491622aec6e0419c4d2117e0a9ac",
        "99d7eaaaa75ef0cafe7b1dcc9f788aee4e61d509e386644de77a040e9f5a1a4f",
        "341e45c670213893fc7af5361652fd52abeec8f991ab616f4f5b987887039140",
        "8cae06e6cce9f349d415b2ab2115c96afed7cc6981462f5d40eb4818c8f8481c",
        "695ca409662ccbe932b3d37cad1f5a6b0ebe1574d6cde34064a45459a6ec1fa2",
        "3c9ead487f1b75a3b9e9553995f7887f00ce45d837218c335992db3e8d4e7d46",
    ),
    "flag_9_1": (
        "e932e6a665d36403d26432918ab5712ac85a36dd9f259931dfaed66e6d2033c7",
        "368441498f1a78a640316c32eb1433d71abc269d9f6dadf4625861c8feb84b32",
        "4d7d9c63da2a262d2c5df46d5cf5f307cfd1798bf8bb30c00c33dcf57c4eb7a4",
        "5b0c9ce2485d3e9d513b9ccabbf75a62ad0024952933217c91326d0f0bfe550c",
        "bd696ba2888571af73349da860daf6af9f11bfeb9b26d6aa3ed23f9043d5fa37",
        "5c7be855271a3013d2cf1ebae8c209207d60e330c0bb92865eab0a950bc2c2cd",
        "d999664305ed2c916495d0ae3930f973e69b9d8bfaf6a70af84a4e25c62a2883",
        "02f74d115e37c7c4a10cb65e7213998e39d41c5a27b2a5c5fb8a63f9ffc43f95",
        "7da08511ca6c5beb1188b724b0c2e5bb772f9a4750ae8e5080b5cd43089b7813",
    ),
    "flag_10_2": (
        "d3adcd0656eba98fed2d0bcdd88b0ed61358e7f275fb917fc4fe4676cb693ffc",
        "e6f7d27efaab21a8421810c9cfbc2a405162c1c2e556ff0be510457d2ed9c9e1",
        "474a42d75f3b9e1a6a94d6d0c427600f06e627d3fc34591f3483250adf1da48e",
        "5bbdc89b7c0cd9f955f71f5e1b0fb5a65e0c49481f0e3a60e09620eb843f7126",
        "c76d1026503807f87b10a5b95fec52835e6ec951eaccb0e35ddc7b44e861c45e",
        "be2c8b7e6045bdc639d52e847c01211d6c949e97b1799ff991e01b4249064b10",
        "847e4e93675bbc7b972a7357aa46c360c3aa11103ed6a66455241941c68284f4",
        "7f7158435ffb769097e699a6358c83ad4e3f723337549afd7b51a43b7a7b4b69",
        "631c84430f1c83623b37060a61d23caa2e5913f512b8c59150ca5c4e6344e857",
    ),
    "flag_11_3": (
        "a832cd4ad0a8f4a6c4ddb815f317f6e78097a4f952309d0ea71f4f57a02c4644",
        "bd285f1cc15e1e6440a70f2ba443ca0f7a4880814f2d2c17e8c426d2c8fe7068",
        "094e7dcd1c3717ce7e6cfeac1bcfdfd2b1fd4cf979735720f3f324de84b6bd89",
        "c788f7138528a66a74193d66dcef618cffb77a49a5a0a5ff5eb9d8b4ae82b755",
        "643c90d85e433a9f0aaeb8228718041f11990ce8a06218cf147689ff31b30f38",
        "c500f842b34233632495f929f2d720a3bcfa0ea606631f502668a888a072c356",
        "805aa5a6078a0f330a68475c7b0806ca00ceb1a8230199759585f2f0015cc3f6",
        "859fcf3fe92a715de9e81f358c77c0342a89bf54a01dd1da40264f4ebee08b5d",
        "0f788e3a43e2a82327ccd8369eea8b5ef063e0998be11ed1d5a979ba6a874233",
    ),
}


@pytest.mark.parametrize("name", sorted(FROZEN_INPUTS))
def test_json_reports_frozen(capsys, tmp_path, name):
    path = str(tmp_path / f"{name}.cplx")
    assert main(["gen", *FROZEN_INPUTS[name], "--out", path]) == 0
    digests = []
    for command, *opts in FROZEN_RUNS:
        code, env, _ = jrun(
            capsys, [command, path, *opts, "--format", "json"])
        assert code == 0
        text = json.dumps(env["report"], indent=2, sort_keys=True)
        digests.append(hashlib.sha256(text.encode()).hexdigest())
    assert tuple(digests) == FROZEN_REPORTS[name]


# inputs of the other commands: generated ones and literal .cplx texts
COMMAND_INPUTS = {
    "pentagon": ["cycle", "--k", "5"],
    "rp2_six": ["rp2_six"],
    "octahedron": ["cross_polytope", "--d", "3"],
    "two": "isolated: a b\n",
    "three": "isolated: a b c\n",
    "path": "a b\nb c\n",
    "tri": "a b c\nc d\n",
}
# (command, input, options, exit code, sha256 of the JSON report); taken
# before the code behind these commands changed
COMMAND_RUNS = (
    ("largeness", "pentagon", [], 0,
     "a20580030d905b7c3456fd00a1595ce4a1f870b059f0b242d316c2162f45a3fe"),
    ("largeness", "rp2_six", [], 0,
     "571e2d4b5b521fcdfe298533927ff2fbf937022ea5732f89594e4e7ab14bc5a9"),
    ("largeness", "octahedron", [], 0,
     "a6aa853d7f4bb7ae1e7f5dafc4b3b9d50315d6314ecf87a786ea7ff54604b605"),
    ("index", "pentagon", ["--mode", "combinatorial"], 0,
     "1ed7130faefe5880040754e1b37414ea9985a63a394571ba87ee660880dda930"),
    ("index", "rp2_six", ["--mode", "combinatorial"], 0,
     "700d1477f11eee671f4ce390250e54d734fc4eadc699a8a3a1aa2de3b9c4470c"),
    ("index", "pentagon", ["--mode", "algebraic", "--field", "q"], 0,
     "094a4078f24231ad3187b31df4a60fb7db43d4849baf0bdc93fb4be150f48e23"),
    ("index", "rp2_six", ["--mode", "algebraic", "--field", "f2"], 0,
     "c82d8f40d8ecbd945aaa6b95d7a509624adfa9e158ddf0ad379b445ed242147f"),
    ("cm", "rp2_six", ["--field", "q"], 0,
     "19264cbc5822f0dfab164f193634af84e478520493e9b2d858ec55c644972514"),
    ("cm", "rp2_six", ["--field", "f2"], 0,
     "e9e55769289ea99cfc6fed30a0127fef7bbc8b1f85f337681900f5e5b8676378"),
    ("dual", "pentagon", [], 0,
     "451f581502f442f8600e78130d5b62caf23ebf958a194bf58b94c873fc74a572"),
    ("dual", "rp2_six", [], 0,
     "27f46955199d0b77d418109ef6efed4229ae941a1af366c6b4c1f6ef20e8369a"),
    ("facecomplex", "pentagon", [], 0,
     "5e26272d085c0034656fdb3e5b4fe5ad61d235934142082f215ce81562cde87d"),
    ("facecomplex", "rp2_six", [], 0,
     "969bcb9c87fb8621e6b36fbe7cb9cdc8c35e794fa90db31f0be78c03bb4c0736"),
    ("coxeter-table", "two", ["--max-len", "6"], 0,
     "ee20b1b0e9d3a2be5a0b7d2ffd251e4e688602ad0709a2a6ef2cb445b1304b50"),
    ("coxeter-table", "two", ["--max-len", "6", "--set", "spherical"], 0,
     "5f05df4bfa4f3b6e787b9dfcc6474efb9099ed0f498d90fcb04a17209d105212"),
    ("coxeter-table", "pentagon", ["--max-len", "4"], 0,
     "5754f36f83a07c3dea7abd68cec1f55ee161b9b40442e73a0ab1abd5630e5d2f"),
    ("coxeter-table", "pentagon", ["--max-len", "4", "--set", "spherical"],
     0, "4b8517ae3bc79b6d03a2b7ea710651460efe68f0309c64805a0e63d3269b7ce8"),
    ("coxeter-search", "pentagon", ["--mod", "7", "--k", "5"], 0,
     "90e4032d4bc25a68c8c89cf76dd0f8816118b2ef72ee6da16ee9690e6358e8e4"),
    ("coxeter-search", "pentagon", ["--mod", "5", "--k", "5"], 0,
     "f3847852a67539506c59351cf2cfe080c5ce15373875860c93c90b274e8dc3e5"),
    ("coxeter-search", "pentagon",
     ["--mod", "7", "--k", "5", "--budget", "50"], 3,
     "4000ea59daefef7edf22d9a7f6aaaf1cf9f374cdd8d0c1c5cf2886a5453181ee"),
    ("construct", "pentagon", ["--k", "5", "--mod", "5"], 4,
     "1fbbdfeec8eb8640d155fdc6f489ac115754d24f0a21c8d10345664de78058ed"),
)
# bounds options, with and without --reg (ignored by the kinds that have
# no holds_for), and the sha256 of each JSON report
BOUNDS_RUNS = (
    (["dhs", "--n", "10", "--p", "2"],
     "23f90b0f49d4722eba49ab0106cb2f9bfbe9f488efe181e80ca1baab6b979c26"),
    (["dhs", "--n", "10", "--p", "2", "--reg", "3"],
     "aff5887473796e440b68f02fedde58e1247e41d3ea69421182b630c6359d9108"),
    (["dhs", "--n", "10", "--p", "2", "--reg", "4"],
     "910c686810c0345af2a595e159c961f8a679f3c2d23ac229141cc31ce84e00a1"),
    (["dhs", "--n", "10", "--p", "2", "--reg", "-3"],
     "2557a6451add219aba98a3ac5224297372241dae55ffa22d74adfd047c6277aa"),
    (["cm_double_log", "--n", "100", "--p", "2"],
     "90bf05335ff998de1983cdc3f85c68ca6f08d4c449c886590b29f4e5d5945e63"),
    (["cm_double_log", "--n", "100", "--p", "2", "--reg", "4"],
     "c5e7fec11f4fb9800f6c222eeaa757e6ba873cecad40206f5bc9d66540a497f8"),
    (["cm_double_log", "--n", "100", "--p", "2", "--reg", "5"],
     "a4fe8a3ed94ae0279e59bf9d477f227f5be21978975b07f4d665911255348fd2"),
    (["cm_double_log", "--n", "100", "--p", "2", "--reg", "1"],
     "1d0db355e08ce89aea0eb2855a9448307a10d83be02eb97a8dab01995a614ba4"),
    (["facet", "--d", "3", "--p", "2"],
     "6d7b859a606d77946843a335231061836c27825d7ff6e8a7bc3ce2969b9cf751"),
    (["facet", "--d", "3", "--p", "2", "--reg", "3"],
     "6d7b859a606d77946843a335231061836c27825d7ff6e8a7bc3ce2969b9cf751"),
    (["vertex", "--d", "1", "--p", "2"],
     "c6c2cb187ca5e51185b077432b9f7c2edbca7efbce82e518021a2b7e02702552"),
    (["vertex", "--d", "1", "--p", "2", "--reg", "3"],
     "c6c2cb187ca5e51185b077432b9f7c2edbca7efbce82e518021a2b7e02702552"),
    (["tower", "--p", "2", "--r", "3"],
     "4997b5981cc0287697a4fe041b9bb6b1c8b0fa1ea351e3ba66fdabe38cb9300f"),
    (["tower", "--p", "2", "--r", "3", "--reg", "3"],
     "4997b5981cc0287697a4fe041b9bb6b1c8b0fa1ea351e3ba66fdabe38cb9300f"),
)
# emitted constructions: sha256 of the report, the .cplx and the
# .cert.json sidecar
CONSTRUCT_RUNS = (
    ("two", ["--k", "4", "--mod", "5"], (
        "727d53eea722a62e0abbaf6656f595767527d56e9f5231ccf3b8bdc2f7933c32",
        "d57ba2e1a70b9ec10ae948563679b15a17e7f0c284e6079c42b54607e75b0b2f",
        "085b77533e0182f9f708fe8b32cdea6914213e5e5ecfc3a3eb56d9489c086ee7")),
    ("three", ["--k", "4", "--mod", "3"], (
        "5f885a70825f88b72fe6715f515288841894f11a53bbced5697829d582c91be2",
        "94f360ac98618ec61f16e73d30443ddbeb469aa0378ff23ef717ec4fb0a277bb",
        "53f977bec4bf16c36913bea7bdbc8f319956b6abba7c97445e22c4dd14b65767")),
    ("two", ["--k", "6"], (
        "77f6651e04d08c09697f8afe8772eb05dd18527e4db26735cee6686eeeb37b01",
        "85afbea9044ec0715bfce044667217abf6086c3a78b0b59390198fafec02b8b5",
        "6bcbb749871d6570a5b56c82dc3c5693413743129ea903b64189ee26f904556a")),
    ("path", ["--k", "4", "--mod", "5"], (
        "1ce2935d42506cd57b619fccda1ac2342245017d310e18045ed03c01158448d8",
        "dfd90f4ecb9c5bbf53bd6a52c0040613c3348a9d7cdc0c0f075e5df3e8a29a1a",
        "bc5259787097e38d4169d016d49b69ab282ed45f41482a799f2186fe20e1803b")),
    ("tri", ["--k", "4", "--mod", "7"], (
        "1d34454d03aef151b79363d7a0f0b3dc3beb62fa4cacd524d10e94d58f0c0f7a",
        "6a40205b910ff8aa622895341a5ffd460d94f4d2bc3e540184ec8184d9dbec88",
        "944ef5ebc78793172aa3712b3e777d85258f043ad3d19bcecddc69b6d9de32b3")),
)


def _command_input(tmp_path, name, inputs=COMMAND_INPUTS):
    path = tmp_path / f"{name}.cplx"
    spec = inputs[name]
    if isinstance(spec, str):
        path.write_text(spec)
    else:
        assert main(["gen", *spec, "--out", str(path)]) == 0
    return str(path)


def _report_digest(env):
    text = json.dumps(env["report"], indent=2, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _file_digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize(
    "command, name, opts, code, digest", COMMAND_RUNS,
    ids=[f"{r[0]}-{r[1]}-{i}" for i, r in enumerate(COMMAND_RUNS)])
def test_command_reports_frozen(capsys, tmp_path, command, name, opts, code,
                                digest):
    path = _command_input(tmp_path, name)
    got, env, _ = jrun(capsys, [command, path, *opts, "--format", "json"])
    assert (got, _report_digest(env)) == (code, digest)


def test_bounds_reports_frozen(capsys):
    for opts, digest in BOUNDS_RUNS:
        code, env, _ = jrun(capsys, ["bounds", *opts, "--format", "json"])
        assert (code, _report_digest(env)) == (0, digest), opts


@pytest.mark.parametrize(
    "name, opts, digests", CONSTRUCT_RUNS,
    ids=[f"{r[0]}-{i}" for i, r in enumerate(CONSTRUCT_RUNS)])
def test_construct_outputs_frozen(capsys, tmp_path, name, opts, digests):
    path = _command_input(tmp_path, name)
    out = tmp_path / "out.cplx"
    code, env, _ = jrun(capsys, ["construct", path, *opts, "--out", str(out),
                                 "--format", "json"])
    assert code == 0
    got = (_report_digest(env), _file_digest(out),
           _file_digest(tmp_path / "out.cert.json"))
    assert got == digests


# text output: every run of test_json_reports_frozen and COMMAND_RUNS, plus
# gen, dual and facecomplex with and without --out (stderr and the written
# file included); the temporary directory reads as <tmp>
TEXT_INPUTS = {**FROZEN_INPUTS, **COMMAND_INPUTS,
               "simplex": "a b c\n",         # its dual is void
               "boundary": "a b\nb c\nc a\n"}  # its dual is {empty face}
TEXT_RUNS = tuple(dict.fromkeys(  # COMMAND_RUNS has dual and facecomplex
    [(command, name, *opts) for name in sorted(FROZEN_INPUTS)
     for command, *opts in FROZEN_RUNS]
    + [(command, name, *opts) for command, name, opts, _, _ in COMMAND_RUNS]
    + [("gen", *spec, *out)
       for spec in (("cycle", "--k", "5"),
                    ("random_flag", "--n", "6", "--density", "0.5",
                     "--seed", "3"),
                    ("simplex", "--d", "0"))
       for out in ((), ("--out",))]
    + [(command, name, *out) for command in ("dual", "facecomplex")
       for name in ("pentagon", "rp2_six", "simplex", "boundary")
       for out in ((), ("--out",))]))
# sha256 of exit code, stdout, stderr and written file, by " ".join(run)
TEXT_DIGESTS = {
    "betti flag_10_2 --field q":
        "4033e0c8ddeab579bd8268975405bd0e61133d8602d49364acea59574c20306f",
    "betti flag_10_2 --field f2":
        "f241dcabca7f68d877da6f03420cc838cc6eb36a6fbb152ec6c65c23bf5b475d",
    "reg flag_10_2 --field q":
        "d68ca1874e1037029e4ae7ea272626960aac12d30070cec766629366b7d2511f",
    "reg flag_10_2 --field f2":
        "205f69991553064dcc837e53dcc285055378ac3307a2a3555ddadf959161594a",
    "reg flag_10_2 --field q --method links":
        "f687737406fccfbc9cab3a3ed627375899cde19c21bfc5ec0f988159f6ce7944",
    "reg flag_10_2 --field f2 --method links":
        "befe1ad2bda260eff86197ca01878f279aaf8eea2b8f4443d386e4b645acbdc3",
    "vcd flag_10_2":
        "61e13dae24eaa2daa1fa1d4c46083fc806ca0c23c33970be9d3a64247bff624b",
    "claim flag_10_2 --field z":
        "3cb6f07995e2fd300963ccfa1f0b0f8bbb1a9f0f10bab2d0e3dd9d8cabab794e",
    "claim flag_10_2 --field f2":
        "436eaa1435e88fdbc0f9670e2cd5bacfae8ab7865cef0cf882aaa81f8052007a",
    "betti flag_11_3 --field q":
        "4c50ce45458867389ad8258c6cbfb31d36a0564dcc74619e619a182e48c0f3b2",
    "betti flag_11_3 --field f2":
        "672367fda37425b9695af387e9a4a77188b75190022f49029673487863134f7e",
    "reg flag_11_3 --field q":
        "bfa851f6b05b0d70de7db7c2ddaacac160352bb95ef094c145368bf54c57be29",
    "reg flag_11_3 --field f2":
        "1ab7b50c06a40b8703bb174fc19b24e092e789e60a9b0e576d93da72079d1ef5",
    "reg flag_11_3 --field q --method links":
        "d53e970d97169d38878e276c3a59b9ac3b5d967e162e0de2808fd5d15d3308ec",
    "reg flag_11_3 --field f2 --method links":
        "670e4bd820a671163a9c81848bad8961be781ea17e9ecd9f36adbf94a8978eba",
    "vcd flag_11_3":
        "e4b1fa76220d2bbe095996b45cdec6bffdf0330d07d56f0259ccad101bdf7a44",
    "claim flag_11_3 --field z":
        "3cb6f07995e2fd300963ccfa1f0b0f8bbb1a9f0f10bab2d0e3dd9d8cabab794e",
    "claim flag_11_3 --field f2":
        "436eaa1435e88fdbc0f9670e2cd5bacfae8ab7865cef0cf882aaa81f8052007a",
    "betti flag_9_1 --field q":
        "2593496e475324c4e0fafa119d985ad6cf212d56384da2dbf6b717a30fc85495",
    "betti flag_9_1 --field f2":
        "c355bcc84f8f418022bacf1ed1e9c27bc0de91bea809193e50f287d7814ffb45",
    "reg flag_9_1 --field q":
        "ccb9d2a0c16136e762482d579a9ec333bf378259285b53d27c536667b8375dd2",
    "reg flag_9_1 --field f2":
        "d0fcb7dd04c4edc1a6a4dc5ddf49d2456719c1359c21d3bf1e377a89a2ae4cd2",
    "reg flag_9_1 --field q --method links":
        "81beb652948ddd80d59f48110745c9b51b1d66dd1a02f937868602b5ddc1c2c7",
    "reg flag_9_1 --field f2 --method links":
        "41462ab952a6101c870fbdcfb45a1e18ccfc4b6ad5116b2520008d8f52c0233b",
    "vcd flag_9_1":
        "e95e1c300b4318c2c0c3c18e351b25f27bd22ecfe8c8109deaab7590a6933384",
    "claim flag_9_1 --field z":
        "3cb6f07995e2fd300963ccfa1f0b0f8bbb1a9f0f10bab2d0e3dd9d8cabab794e",
    "claim flag_9_1 --field f2":
        "436eaa1435e88fdbc0f9670e2cd5bacfae8ab7865cef0cf882aaa81f8052007a",
    "betti octahedron --field q":
        "57c79ab81065bd71892c66ba31c93365d7b2998c2b042a2489be77e013dfb5b2",
    "betti octahedron --field f2":
        "c295e8769b3088c58cdd7624ebc631d51e45a3241ac86fe482d680fe1f86eb6e",
    "reg octahedron --field q":
        "b2f90b7ab5262988674e2409bd7ae3c664f5f4f3e592d7c13a821b44eaab0a20",
    "reg octahedron --field f2":
        "75133ffee53c84d2b9411bd5c31e564686a06b9f8d2c9d52e4b4fc82f2213bda",
    "reg octahedron --field q --method links":
        "a8ea82f5ddfbbdf4533756287ff217ea2a780fce90e883b767e17c6af9eb406e",
    "reg octahedron --field f2 --method links":
        "b1911fe13ee6fb435aa991a9ef52c79ec93b086488b507f2c8592c8c8346a79b",
    "vcd octahedron":
        "39cd0846f1a396539c01a011d6b004db2b53a0daf8b586c6a9e731221823883b",
    "claim octahedron --field z":
        "b15cf0276ea2424f596dad68e2ea98dceb52521ec4cf10627e99c74032880a9f",
    "claim octahedron --field f2":
        "ccdbaa5dff60db9459c0bc72696c1254028650ccb03e008059c20a502a588e18",
    "betti pentagon --field q":
        "8e21c7667b2cc36d31f23f0021a19992c64495d1d2bf1f24149c74c9f4012e47",
    "betti pentagon --field f2":
        "1b71157ef51b6a6a2730b20c62d100a502101f8a3484325f9e4c8f5d8bc5784e",
    "reg pentagon --field q":
        "77fe0a36a8590b78f63aa9619d784e1509d5a96f1f1a77e9504b133b82464e10",
    "reg pentagon --field f2":
        "0d9f20c08ea41acaaf5f61fb9a2abd588600c3f7000bc479a54bf0b3f73500b1",
    "reg pentagon --field q --method links":
        "f687737406fccfbc9cab3a3ed627375899cde19c21bfc5ec0f988159f6ce7944",
    "reg pentagon --field f2 --method links":
        "befe1ad2bda260eff86197ca01878f279aaf8eea2b8f4443d386e4b645acbdc3",
    "vcd pentagon":
        "61e13dae24eaa2daa1fa1d4c46083fc806ca0c23c33970be9d3a64247bff624b",
    "claim pentagon --field z":
        "3cb6f07995e2fd300963ccfa1f0b0f8bbb1a9f0f10bab2d0e3dd9d8cabab794e",
    "claim pentagon --field f2":
        "436eaa1435e88fdbc0f9670e2cd5bacfae8ab7865cef0cf882aaa81f8052007a",
    "betti rp2_six --field q":
        "1afbb31c6fba46259d75578707948b4ebf5a4615efbef2331a6f8495218e3ff1",
    "betti rp2_six --field f2":
        "0a5c078e3512554dbd9ffa0c9c509bcba56a10f5351f1eb007cb8c693c3967d9",
    "reg rp2_six --field q":
        "27fbb3deb724ced1b6d70398638e0b81cae30af320e7c530cc657c8cce1afe4b",
    "reg rp2_six --field f2":
        "75133ffee53c84d2b9411bd5c31e564686a06b9f8d2c9d52e4b4fc82f2213bda",
    "reg rp2_six --field q --method links":
        "e08576999aefa882c90e494ff1f3f6a7831078e5250ef9499b4dd197c1983dcb",
    "reg rp2_six --field f2 --method links":
        "b1911fe13ee6fb435aa991a9ef52c79ec93b086488b507f2c8592c8c8346a79b",
    "vcd rp2_six":
        "cf44173d2313e14d784806c22c19a1f3f394d2212fb43a5dbeb105d28c64897d",
    "claim rp2_six --field z":
        "b15cf0276ea2424f596dad68e2ea98dceb52521ec4cf10627e99c74032880a9f",
    "claim rp2_six --field f2":
        "ccdbaa5dff60db9459c0bc72696c1254028650ccb03e008059c20a502a588e18",
    "largeness pentagon":
        "00c32c1768f9848f40e8961a47010ad65cc1b6a43b3ef059cac38555b49e3ce4",
    "largeness rp2_six":
        "bd6fde92c7d441c98d58358858f5309a13bdb940c2857ab817083ca80ea8114a",
    "largeness octahedron":
        "68c10ba9769dbe342b3d46502f7147d5f099e5d032d7fe1ca738520b9b01b2a2",
    "index pentagon --mode combinatorial":
        "cc5d3c2fabaa6341c304f252ee322feb0cf94aec498f5568b1af1109f4bbd9db",
    "index rp2_six --mode combinatorial":
        "e055ac1e0ad9e7f1382cd14b190a48f0937cb8ae71a2cee0d9d1e6ded97f2d75",
    "index pentagon --mode algebraic --field q":
        "8f76d2d3f0b3ca1bd62cde3ef00901025aa06ba782d5cbc6e735b46630446534",
    "index rp2_six --mode algebraic --field f2":
        "b5a77d6dafa36b53710e47a1d03d7d4d8b2a68c56ac0daf9b01c515873b8f785",
    "cm rp2_six --field q":
        "e0bfb382f6c2df5a4d83d20720ed72358486a52c605bc445b64ff8fa9711e99f",
    "cm rp2_six --field f2":
        "cc2e1026615cd1434fa789cebd3396745d6efec2e1183da5a63848e51e8570db",
    "dual pentagon":
        "b4638e3759b8405a3921ce9516e6ebedf62934033e95ecf7bb78d2c8816c87a4",
    "dual rp2_six":
        "e1e0f4b7d27765765c755c7f280bf078aa82373b419a137f7b5502c28a8708c2",
    "facecomplex pentagon":
        "8cc08f877cb53e4d1ee4a10c45b9f769ecc9524560f8f0d5e2a076e6b1574fac",
    "facecomplex rp2_six":
        "150b7756ec0bff29427224710ad7adb3aa24a0dd0e472bc45c728163ba3b48aa",
    "coxeter-table two --max-len 6":
        "9fc47b2477a549ea686b148f6a380c75694f09d07e385a7bc59cd1af34add9a4",
    "coxeter-table two --max-len 6 --set spherical":
        "9fc47b2477a549ea686b148f6a380c75694f09d07e385a7bc59cd1af34add9a4",
    "coxeter-table pentagon --max-len 4":
        "4453801c2e2baf8a5beff2321398af5890015761152e99a4cf9a0d61d4ab66f5",
    "coxeter-table pentagon --max-len 4 --set spherical":
        "2123a4a7d651d0a6206aee060c7036f8dd760d0157adadf3004b916ee248e6d8",
    "coxeter-search pentagon --mod 7 --k 5":
        "629cf78e05908b75b41c90f3578f8c7615bf6f541169a813e7f254cef8bcbe3d",
    "coxeter-search pentagon --mod 5 --k 5":
        "97c89d1a49a0f56f022c6c99fc67f2149a9e42c356ad76d79fb0fa4a796ec1c0",
    "coxeter-search pentagon --mod 7 --k 5 --budget 50":
        "efc8df759b44d98f2b1540764bb5532099bcb317ae0a331fbe19a7a2548cff67",
    "construct pentagon --k 5 --mod 5":
        "765188292afd00b3b4295859a6364da03e177a48ec7c9320e767b3a4ef5873c6",
    "gen cycle --k 5":
        "4d6883e6f52c0661ccf3d30b37310b3fc6f7327e80f88e182ac2841020c28ce4",
    "gen cycle --k 5 --out":
        "3770c3026c5afe2e234d735a977fc4caa1852f1c60da4a4b675c4a0775068e05",
    "gen random_flag --n 6 --density 0.5 --seed 3":
        "c8b1ebf67207322a89189291e8f963e4ab69de5dabbd509b5e12ed38e4a6ced2",
    "gen random_flag --n 6 --density 0.5 --seed 3 --out":
        "0c8c435ad5f034110fd0c39fd4630aeab9e248fa65a035bb89e750184b0d14e1",
    "gen simplex --d 0":
        "1b9ddabb3e946610a492d64188e8305447add6231e3666ba6e17e5eccf6d4a1d",
    "gen simplex --d 0 --out":
        "6fb449295fbb8e6027db37dd6ba322d53836c844d991bc9636ec91cd2b860d40",
    "dual pentagon --out":
        "1cba719792fcd26a316aa39a7da30504a0ac21116bafc24d66283aa532b32765",
    "dual rp2_six --out":
        "da8c88939a77570c58bfcf382de5555b77fced82cd371ed26e4a2b3c53c1fb5c",
    "dual simplex":
        "80dbf9794c7fc897dc2611c79ab4079abaf56b2c136a8e177bf37590014304b8",
    "dual simplex --out":
        "10f4bff165dd63cb09be80bc0c5f032580c5a5d4b4d66cb646a05e781c6ad17b",
    "dual boundary":
        "b470c6a97b4e8f057a15c03ae2eeaf9f22297211ff400101f9ebccbc12443274",
    "dual boundary --out":
        "bece95e90685137033394966a22b8ac1966a86cf24da829ad7eeb621940b9f18",
    "facecomplex pentagon --out":
        "1df162ceebe18c8df560aea4c061e1e006dce73e2b2345975cbe9ea8f4cc6b94",
    "facecomplex rp2_six --out":
        "56454ab96a146f5737f5e0d28b6bd9b7ec71bddf45bf0464c11397277ec20cdc",
    "facecomplex simplex":
        "66ae1ab643a519e7d3e274920e6b92192f6c4d71fabcc0e33ea954bc6e8593b3",
    "facecomplex simplex --out":
        "c9986c813728ffcfb6d80b4748c8db188cc504c3b8d5b8977a8c7d9f9103b629",
    "facecomplex boundary":
        "18ccd7982007a2799b681043275bc172f2806aa61fc3505821baee83c57d8dde",
    "facecomplex boundary --out":
        "fb65493db258064b1e35ec6d42efae55fca648b97735184af5ddae5c82ce2bf4",
}


def _text_digest(capsys, tmp_path, run_):
    command, *rest = run_
    argv = [command]
    if command != "gen":
        name, *rest = rest
        argv.append(_command_input(tmp_path, name, TEXT_INPUTS))
    out = tmp_path / "out.cplx"
    for tok in rest:
        argv += ["--out", str(out)] if tok == "--out" else [tok]
    code, stdout, stderr = run(capsys, argv + ["--format", "text"])
    written = out.read_text() if out.exists() else ""
    text = f"exit {code}\n{stdout}\0{stderr}\0{written}"
    text = text.replace(str(tmp_path), "<tmp>")
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("run_", TEXT_RUNS, ids=" ".join)
def test_text_reports_frozen(capsys, tmp_path, run_):
    digest = _text_digest(capsys, tmp_path, run_)
    assert digest == TEXT_DIGESTS[" ".join(run_)]
