"""Command line interface, exercised through real subprocesses."""

import json
import subprocess
import sys
from pathlib import Path

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
NILSQUARE = str(FIXTURES / "nilsquare.json")
NILCUBE = str(FIXTURES / "nilcube.json")
BROKEN = str(FIXTURES / "broken_action.json")
BROKEN_Z4 = str(FIXTURES / "broken_z4.json")
NOT_RUN = "not run: the input failed validation"


def cli(*args):
    return subprocess.run([sys.executable, "-m", "idealbar", *args],
                          capture_output=True, text=True)


def test_check_xmod_passes_on_nilsquare():
    res = cli("-w", NILSQUARE, "check-xmod", "main")
    assert res.returncode == 0, res.stdout + res.stderr
    assert "PASS" in res.stdout


def test_check_xmod_fails_on_broken_action():
    res = cli("-w", BROKEN, "check-xmod", "main")
    assert res.returncode == 1
    assert "FAIL" in res.stdout
    assert "cm2" in res.stdout


def test_check_algebra():
    res = cli("-w", NILSQUARE, "check-algebra", "S")
    assert res.returncode == 0


def test_bar_verify_roundtrip_and_depth_flag():
    res = cli("-w", NILSQUARE, "bar-verify", "main", "--depth", "2")
    assert res.returncode == 0
    res = cli("-w", NILSQUARE, "roundtrip", "main", "--depth", "2")
    assert res.returncode == 0


def test_roundtrip_fails_on_broken_input():
    res = cli("-w", BROKEN, "roundtrip", "main")
    assert res.returncode == 1
    assert "d0-multiplicative @ 1" in res.stdout


def test_ideal_check_good_and_bad():
    assert cli("-w", NILCUBE, "ideal-check", "good").returncode == 0
    res = cli("-w", NILCUBE, "ideal-check", "bad")
    assert res.returncode == 1
    assert "eta-maps-sub-into-sub" in res.stdout


def test_cim_check():
    res = cli("-w", NILCUBE, "cim-check", "incl_cim")
    assert res.returncode == 0
    assert "image-crossed-ideal" in res.stdout


def test_consequences_of_an_invalid_crossed_module_are_not_run():
    # cm1 fails, so the THEOREM checks would only report the failed
    # axiom again, with the exit code of an implementation bug
    res = cli("-w", BROKEN_Z4, "check-xmod", "main", "--consequences")
    assert res.returncode == 1, res.stdout + res.stderr
    assert f"SKIP consequence-checks main: {NOT_RUN}" in res.stdout
    assert "[THEOREM]" not in res.stdout
    res = cli("-w", NILSQUARE, "check-xmod", "main", "--consequences")
    assert res.returncode == 0 and "[THEOREM]" in res.stdout


def test_image_check_of_an_invalid_crossed_ideal_map_is_not_run(tmp_path):
    # nu moved off the ideal it included: it is no longer multiplicative,
    # so the map fails validation and its image is not checked
    ws = json.loads(Path(NILCUBE).read_text())
    ws["homs"]["nu"]["images"] = [[0, 1, 0]]
    path = tmp_path / "bad_nu.json"
    path.write_text(json.dumps(ws))
    res = cli("-w", str(path), "cim-check", "incl_cim")
    assert res.returncode == 1, res.stdout + res.stderr
    assert f"SKIP image-crossed-ideal incl_cim: {NOT_RUN}" in res.stdout
    assert "[THEOREM]" not in res.stdout


def test_bibar_verify_and_corruption_control():
    res = cli("-w", NILCUBE, "bibar-verify", "incl", "--rows", "2",
              "--cols", "2")
    assert res.returncode == 0
    res = cli("-w", NILCUBE, "bibar-verify", "incl", "--corrupt-phi", "1:0")
    assert res.returncode == 1
    assert "dv0 dh0 = dh0 dv0 @ (1,1)" in res.stdout


def test_bibar_of_an_invalid_crossed_module_fails_as_an_axiom(tmp_path):
    # x acts as the identity, so the target fails validation; the vertical
    # operators that then fail to be multiplicative blame the input, not
    # the implementation
    ws = json.loads(Path(NILCUBE).read_text())
    ws["actions"]["act"]["tensor"][1] = [[1, 0], [0, 1]]
    path = tmp_path / "twisted.json"
    path.write_text(json.dumps(ws))
    res = cli("-w", str(path), "check-xmod", "main")
    assert res.returncode == 1, res.stdout + res.stderr
    for name in ("actor-composition", "cm1", "cm2"):
        assert f"FAIL [AXIOM] {name}:" in res.stdout
    res = cli("-w", str(path), "bibar-verify", "incl")
    assert res.returncode == 1, res.stdout + res.stderr
    assert "FAIL [AXIOM] dv0@(1,0) multiplicative" in res.stdout
    assert "FAIL [THEOREM]" not in res.stdout


def test_dangling_name_is_a_structural_error():
    res = cli("-w", NILCUBE, "ideal-check", "nope")
    assert res.returncode == 3
    assert "no subxmods entry named 'nope'" in res.stderr
    assert res.stdout == ""


def test_missing_workspace_file():
    res = cli("-w", "/no/such/file.json", "check-xmod", "main")
    assert res.returncode == 3
    assert "error:" in res.stderr


def test_json_output_is_byte_identical_across_runs():
    a = cli("-w", NILSQUARE, "--format", "json", "bar-verify", "main",
            "--depth", "2")
    b = cli("-w", NILSQUARE, "--format", "json", "bar-verify", "main",
            "--depth", "2")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    json.loads(a.stdout)


def test_sampled_json_is_reproducible_for_a_seed():
    args = ("-w", NILSQUARE, "--format", "json", "--policy", "sample",
            "--samples", "64", "--seed", "9", "check-xmod", "main")
    a, b = cli(*args), cli(*args)
    assert a.stdout == b.stdout
    doc = json.loads(a.stdout)
    assert doc["name"] == "check-xmod main"


def test_global_flags_accepted_on_both_sides_of_the_subcommand():
    before = cli("--seed", "7", "fuzz", "--count", "3")
    after = cli("fuzz", "--count", "3", "--seed", "7")
    assert before.returncode == after.returncode == 0
    assert before.stdout == after.stdout


def test_enumerate_counts():
    res = cli("--format", "json", "enumerate", "--modulus", "2",
              "--max-rank", "1")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    cand = next(c for c in doc["checks"] if c["name"] == "xmod-candidates")
    assert cand["meta"] == {"total": 17, "valid": 9, "invalid": 8}


def test_perturb_mode_reports_survivors():
    res = cli("-w", NILSQUARE, "roundtrip", "main", "--depth", "2",
              "--perturb", "--budget", "50", "--seed", "0")
    assert res.returncode == 0
    assert "survivors" in res.stdout


def test_unknown_subcommand_is_a_usage_error():
    res = cli("frobnicate")
    assert res.returncode == 2
    assert "invalid choice" in res.stderr


def _one_line_error(res, *needles):
    assert res.returncode == 3, res.stdout + res.stderr
    assert res.stdout == ""
    assert "Traceback" not in res.stderr
    assert res.stderr.count("\n") == 1 and res.stderr.startswith("error: ")
    for needle in needles:
        assert needle in res.stderr


def test_sample_count_below_one_is_refused():
    # a sampled sweep with no draws used to report PASS with checked=0
    for samples in ("0", "-1"):
        res = cli("-w", BROKEN, "check-xmod", "main", "--policy", "sample",
                  "--samples", samples)
        _one_line_error(res, "--samples")


def test_count_and_budget_below_one_are_refused():
    _one_line_error(cli("fuzz", "--count", "-5"), "--count")
    _one_line_error(cli("-w", NILSQUARE, "roundtrip", "main", "--perturb",
                        "--budget", "-3"), "--budget")


def test_malformed_depth_option_names_its_json_path(tmp_path):
    doc = json.loads(Path(NILSQUARE).read_text())
    doc["options"] = {"depth": "deep"}
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(doc))
    _one_line_error(cli("-w", str(path), "bar-verify", "main"),
                    "options.depth")


def _fail_witnesses(node, path=()):
    path = path + (node["name"],)
    out = {}
    if node["status"] == "FAIL" and not node["checks"]:
        out[path] = node["witness"]
    for child in node["checks"]:
        out.update(_fail_witnesses(child, path))
    return out


def test_sampled_policy_still_finds_the_least_witness_after_a_mismatch():
    args = ("-w", NILCUBE, "--format", "json", "bibar-verify", "incl",
            "--corrupt-phi", "1:0")
    default = _fail_witnesses(json.loads(cli(*args).stdout))
    sampled = _fail_witnesses(json.loads(cli(
        *args, "--policy", "sample", "--samples", "1", "--seed", "0").stdout))
    assert default and sampled == default
    assert all(w is not None for w in sampled.values())


def test_modulus_and_rank_out_of_range_are_refused():
    # fuzz --modulus 0 used to end in ValueError from randrange
    for modulus in ("0", "1", "-4"):
        _one_line_error(cli("fuzz", "--modulus", modulus, "--count", "1"),
                        "--modulus")
        _one_line_error(cli("enumerate", "--modulus", modulus), "--modulus")
    _one_line_error(cli("fuzz", "--max-rank", "0", "--count", "1"),
                    "--max-rank")
    _one_line_error(cli("enumerate", "--max-rank", "-1"), "--max-rank")


def test_enumerate_beyond_the_tensor_bound_is_refused():
    # rank-3 algebras over Z/2 have 8^6 symmetric tensors per carrier
    _one_line_error(cli("enumerate", "--modulus", "2", "--max-rank", "3"),
                    "tensor space too large")


def test_corrupt_phi_outside_the_built_letters_is_refused():
    # 9:0 names a row beyond --rows and used to corrupt nothing, so the
    # negative control passed with exit 0
    for spec in ("9:0", "3:0", "1:1", "2:2", "-1:0", "1:-1"):
        _one_line_error(cli("-w", NILCUBE, "bibar-verify", "incl",
                            f"--corrupt-phi={spec}"), "--corrupt-phi")
    res = cli("-w", NILCUBE, "bibar-verify", "incl", "--rows", "3",
              "--corrupt-phi", "3:2")
    assert res.returncode == 1


def test_perturb_follows_an_explicit_depth_and_defaults_to_two():
    def candidates(*extra):
        res = cli("-w", NILCUBE, "--format", "json", "roundtrip", "main",
                  "--perturb", "--budget", "5", *extra)
        assert res.returncode == 0, res.stderr
        rep = json.loads(res.stdout)
        perturb = next(c for c in rep["checks"]
                       if c["name"].startswith("perturb-and-filter"))
        return next(c for c in perturb["checks"]
                    if c["name"] == "candidates")["meta"]

    assert candidates("--depth", "1")["depth"] == 1
    assert candidates("--depth", "3")["depth"] == 3
    # without the flag the harness keeps depth 2, whatever options.depth
    assert candidates()["depth"] == 2
