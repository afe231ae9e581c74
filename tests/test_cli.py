"""Command-line behavior: formats, exit codes, reproducibility."""

import hashlib
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


def test_clique_budget_exits_3(capsys, monkeypatch, tmp_path):
    path = str(tmp_path / "octa6.cplx")
    assert main(["gen", "cross_polytope", "--d", "6", "--out", path]) == 0
    monkeypatch.setattr(complex_core, "FACE_BUDGET", 100)
    code, out, err = run(capsys, ["largeness", path])
    assert code == 3 and not out
    assert "visited 101 cliques" in err


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
