"""Command line interface, exercised through real subprocesses, and
in process where hypothesis draws the workspaces."""

import json
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from idealbar.cli import main

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


def zero_algebra(order):
    return {"orders": [order], "mul": [[[0]]]}


def rank_one_hom(dom, cod, image):
    return {"dom": dom, "cod": cod, "images": [[image]]}


def zero_action(actor, acted):
    return {"actor": actor, "acted": acted, "tensor": [[[0]]]}


def test_inclusions_that_are_not_maps_fail_the_crossed_ideal(tmp_path):
    # over Z/4, a sub Z/2 -> Z/2 of S = Z/4 -> Z/4 whose mu and nu send
    # the generator of Z/2 to 1: no map, though 0 and 1 have the distinct
    # images 0 and 1 and every clause holds on representatives
    path = tmp_path / "decl.json"
    path.write_text(json.dumps({
        "modulus": 4,
        "algebras": {"S": zero_algebra(4), "T": zero_algebra(2)},
        "homs": {"id": rank_one_hom("S", "S", 1),
                 "idT": rank_one_hom("T", "T", 1),
                 "mu": rank_one_hom("T", "S", 1),
                 "nu": rank_one_hom("T", "S", 1)},
        "actions": {"act": zero_action("S", "S"),
                    "actT": zero_action("T", "T")},
        "xmods": {"main": {"eta": "id", "action": "act"},
                  "sub": {"eta": "idT", "action": "actT"}},
        "morphisms": {"incl": {"source": "sub", "target": "main",
                               "alpha1": "mu", "alpha2": "nu"}},
        "subxmods": {"decl": {"morphism": "incl"}}}))
    res = cli("-w", str(path), "ideal-check", "decl")
    assert res.returncode == 3, res.stdout + res.stderr
    assert "FAIL [STRUCTURAL] inclusions-injective" in res.stdout


def test_h_that_is_not_bilinear_fails_the_crossed_ideal_map(tmp_path):
    # over Z/4, R1 = Z/4, S1 = Z/2, R2 = Z/2 and S2 = Z/4 with every map
    # zero: h(g, g) = 1 is no bilinear map, as 2 h(g, g) = 2 != 0 in R1,
    # though every h identity reads 0 = 0 on representatives
    path = tmp_path / "h.json"
    path.write_text(json.dumps({
        "modulus": 4,
        "algebras": {"R1": zero_algebra(4), "S1": zero_algebra(2),
                     "R2": zero_algebra(2), "S2": zero_algebra(4)},
        "homs": {"eta1": rank_one_hom("R1", "S1", 0),
                 "eta2": rank_one_hom("R2", "S2", 0),
                 "alpha1": rank_one_hom("R1", "R2", 0),
                 "alpha2": rank_one_hom("S1", "S2", 0)},
        "actions": {"act": zero_action("S1", "R1"),
                    "actp": zero_action("S2", "R2"),
                    "act1": zero_action("R2", "R1"),
                    "act2": zero_action("S2", "S1")},
        "xmods": {"src": {"eta": "eta1", "action": "act"},
                  "tgt": {"eta": "eta2", "action": "actp"}},
        "morphisms": {"f": {"source": "src", "target": "tgt",
                            "alpha1": "alpha1", "alpha2": "alpha2"}},
        "cims": {"c": {"morphism": "f", "act1": "act1", "act2": "act2",
                       "h": [[[1]]]}}}))
    res = cli("-w", str(path), "cim-check", "c")
    assert res.returncode == 3, res.stdout + res.stderr
    assert ("FAIL [STRUCTURAL] h-bilinearity: not torsion-compatible\n"
            "      witness: (0, 0, 0)\n") in res.stdout


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
    # the implementation.  Every map is still well defined, so the bibar
    # is built, not refused
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


def bibar_workspace(source, target, alpha1, alpha2, algebras=None,
                    homs=None, actions=None):
    """A workspace over Z/4 with the morphism f from the crossed module
    source to target, each given as (eta, action); by default the
    algebras are S = Z/4 and T = Z/2 with zero products, and every
    action is zero."""
    return {
        "modulus": 4,
        "algebras": algebras or {"S": zero_algebra(4), "T": zero_algebra(2)},
        "homs": homs,
        "actions": actions or {"actS": zero_action("S", "S"),
                               "actT": zero_action("T", "T"),
                               "actST": zero_action("S", "T")},
        "xmods": {"src": dict(zip(("eta", "action"), source)),
                  "tgt": dict(zip(("eta", "action"), target))},
        "morphisms": {"f": {"source": "src", "target": "tgt",
                            "alpha1": alpha1, "alpha2": alpha2}}}


# each names the first map the bibar finds not well defined, and every
# one of them used to print PASS on every leaf, or exit 1 on swept
# representatives, for a bibar that does not exist
NOT_MAPS = {
    # alpha1 and alpha2 send the generator of Z/2 to 1 in Z/4, between
    # the identities of Z/2 and of Z/4
    "alpha1": bibar_workspace(
        ("idT", "actT"), ("idS", "actS"), "legT", "legT",
        homs={"idT": rank_one_hom("T", "T", 1),
              "idS": rank_one_hom("S", "S", 1),
              "legT": rank_one_hom("T", "S", 1)}),
    # the source eta sends the generator of Z/2 to 1 in Z/4; the legs
    # send generators to 2
    "source eta": bibar_workspace(
        ("eta1", "actST"), ("idS", "actS"), "alpha1", "alpha2",
        homs={"eta1": rank_one_hom("T", "S", 1),
              "idS": rank_one_hom("S", "S", 1),
              "alpha1": rank_one_hom("T", "S", 2),
              "alpha2": rank_one_hom("S", "S", 2)}),
    # R of orders (2, 4) with e0 e0 = e1, whose product breaks torsion,
    # under the identity morphism
    "source R product": bibar_workspace(
        ("eta", "act"), ("eta", "act"), "idR", "idS",
        algebras={"R": {"orders": [2, 4],
                        "mul": [[[0, 1], [0, 0]], [[0, 0], [0, 0]]]},
                  "S": zero_algebra(4)},
        homs={"eta": {"dom": "R", "cod": "S", "images": [[0], [0]]},
              "idR": {"dom": "R", "cod": "R", "images": [[1, 0], [0, 1]]},
              "idS": rank_one_hom("S", "S", 1)},
        actions={"act": {"actor": "S", "acted": "R",
                         "tensor": [[[0, 0], [0, 0]]]}}),
}


def test_a_bibar_of_maps_that_are_not_maps_is_refused(tmp_path):
    for bad, ws in NOT_MAPS.items():
        path = tmp_path / "not_map.json"
        path.write_text(json.dumps(ws))
        _one_line_error(cli("-w", str(path), "bibar-verify", "f", "--rows",
                            "2", "--cols", "1"),
                        f"the {bad} is not a well-defined map")


# over Z/4, S = Z/2 and R = Z/4 with zero products, eta sends g to 1 and
# the action cell is 1, no map as 2 * 1 != 0 in Z/4: the crossed ideal
# on {0, 2} and {0} printed PASS on every leaf, while check-xmod main
# failed torsion compatibility
IDEAL_ACTION = {
    "modulus": 4,
    "algebras": {"S": zero_algebra(2), "R": zero_algebra(4)},
    "homs": {"eta": rank_one_hom("R", "S", 1)},
    "actions": {"act": {"actor": "S", "acted": "R", "tensor": [[[1]]]}},
    "xmods": {"main": {"eta": "eta", "action": "act"}},
    "subsets": {"rp": {"ambient": "R", "elements": [[0], [2]]},
                "sp": {"ambient": "S", "elements": [[0]]}},
    "subxmods": {"ci": {"ambient": "main", "r_subset": "rp",
                        "s_subset": "sp"}}}

# over Z/4, R1 = S1 = R2 = Z/2 and S2 = Z/4 with zero products, eta2
# sends g to 3, no map as 2 * 3 != 0 in Z/4, and alpha2 sends g to 2:
# the crossed ideal map printed 80 PASS leaves and exited 0
CIM_ETA = {
    "modulus": 4,
    "algebras": {"R1": zero_algebra(2), "S1": zero_algebra(2),
                 "R2": zero_algebra(2), "S2": zero_algebra(4)},
    "homs": {"eta1": rank_one_hom("R1", "S1", 0),
             "eta2": rank_one_hom("R2", "S2", 3),
             "alpha1": rank_one_hom("R1", "R2", 0),
             "alpha2": rank_one_hom("S1", "S2", 2)},
    "actions": {"act": zero_action("S1", "R1"),
                "actp": zero_action("S2", "R2"),
                "act1": zero_action("R2", "R1"),
                "act2": zero_action("S2", "S1")},
    "xmods": {"src": {"eta": "eta1", "action": "act"},
              "tgt": {"eta": "eta2", "action": "actp"}},
    "morphisms": {"f": {"source": "src", "target": "tgt",
                        "alpha1": "alpha1", "alpha2": "alpha2"}},
    "cims": {"c": {"morphism": "f", "act1": "act1", "act2": "act2",
                   "h": [[[0]]]}}}


def nilcube_not_closed():
    # R' = {0, (0,1), (1,0)} lacks (1,1); ideal-check printed a
    # STRUCTURAL FAIL, and check-xmod on the same file exited 0
    ws = json.loads(Path(NILCUBE).read_text())
    ws["subsets"]["rp"]["elements"] = [[0, 0], [0, 1], [1, 0]]
    return ws


def test_maps_that_are_not_maps_and_subsets_not_closed_are_refused(tmp_path):
    not_closed = ("subsets.rp.elements: not closed under addition, "
                  "[0, 1] + [1, 0] is not listed")
    for ws, args, needle in (
            (IDEAL_ACTION, ("ideal-check", "ci"),
             "the ambient action is not a well-defined map"),
            (CIM_ETA, ("cim-check", "c"),
             "the target eta is not a well-defined map"),
            (nilcube_not_closed(), ("ideal-check", "good"), not_closed),
            (nilcube_not_closed(), ("check-xmod", "main"), not_closed)):
        path = tmp_path / "refused.json"
        path.write_text(json.dumps(ws))
        _one_line_error(cli("-w", str(path), *args), needle)


def slot_workspace(m, lo, hi, slot=None, v=0):
    """Over Z/m, crossed modules src and tgt on algebras of orders
    (lo, hi) with every map zero, the crossed ideal ci of the zero
    subsets of src and the crossed ideal map c from src to tgt.  slot,
    when given, is then the one map with (0, v) at generator 0, no map
    when lo * v != 0 mod hi; an ambient slot is one of src."""
    def zero():
        return [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]

    ws = {"modulus": m,
          "algebras": {n: {"orders": [lo, hi], "mul": zero()}
                       for n in ("R1", "S1", "R2", "S2")},
          "homs": {n: {"dom": d, "cod": c, "images": zero()[0]}
                   for n, d, c in (("eta1", "R1", "S1"), ("eta2", "R2", "S2"),
                                   ("alpha1", "R1", "R2"),
                                   ("alpha2", "S1", "S2"))},
          "actions": {n: {"actor": a, "acted": b, "tensor": zero()}
                      for n, a, b in (("act_1", "S1", "R1"),
                                      ("act_2", "S2", "R2"),
                                      ("act1", "R2", "R1"),
                                      ("act2", "S2", "S1"))},
          "xmods": {"src": {"eta": "eta1", "action": "act_1"},
                    "tgt": {"eta": "eta2", "action": "act_2"}},
          "subsets": {"r0": {"ambient": "R1", "elements": [[0, 0]]},
                      "s0": {"ambient": "S1", "elements": [[0, 0]]}},
          "subxmods": {"ci": {"ambient": "src", "r_subset": "r0",
                              "s_subset": "s0"}},
          "morphisms": {"f": {"source": "src", "target": "tgt",
                              "alpha1": "alpha1", "alpha2": "alpha2"}},
          "cims": {"c": {"morphism": "f", "act1": "act1", "act2": "act2",
                         "h": zero()}}}
    if slot is not None:
        side, piece = slot.split(" ", 1)
        k = "2" if side == "target" else "1"
        row = {"eta": ws["homs"][f"eta{k}"]["images"],
               "action": ws["actions"][f"act_{k}"]["tensor"][0],
               "R product": ws["algebras"][f"R{k}"]["mul"][0],
               "S product": ws["algebras"][f"S{k}"]["mul"][0]}[piece]
        row[0] = [0, v]
    return ws


def run_in_process(ws, *args):
    """(exit code, stdout, stderr) of the command line on the workspace ws."""
    out, err = StringIO(), StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ws.json"
        path.write_text(json.dumps(ws))
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["-w", str(path), *args])
    return code, out.getvalue(), err.getvalue()


SLOTS = {"ambient": ("ideal-check", "ci"), "source": ("cim-check", "c"),
         "target": ("cim-check", "c")}
PIECES = {"ambient": ("eta", "action", "R product", "S product"),
          "source": ("eta", "action"), "target": ("eta", "action")}


def test_the_slot_workspace_passes_with_every_map_zero():
    for args in set(SLOTS.values()):
        assert run_in_process(slot_workspace(4, 2, 4), *args)[0] == 0


@st.composite
def broken_slots(draw):
    """m, the orders (lo, hi) with hi not dividing lo, a slot, and a v
    with lo * v != 0 mod hi."""
    m = draw(st.sampled_from([4, 8, 12]))
    divisors = [d for d in range(2, m + 1) if m % d == 0]
    lo, hi = draw(st.sampled_from([(a, b) for a in divisors
                                   for b in divisors if a % b]))
    side = draw(st.sampled_from(sorted(SLOTS)))
    slot = f"{side} {draw(st.sampled_from(PIECES[side]))}"
    v = draw(st.sampled_from([v for v in range(1, hi) if lo * v % hi]))
    return m, lo, hi, slot, v


@given(broken_slots())
@settings(max_examples=64, deadline=None)
def test_a_crossed_ideal_or_map_of_a_map_that_is_not_a_map_is_refused(case):
    m, lo, hi, slot, v = case
    code, out, err = run_in_process(slot_workspace(m, lo, hi, slot, v),
                                    *SLOTS[slot.split(" ")[0]])
    assert (code, out) == (3, "")
    assert err == f"error: the {slot} is not a well-defined map\n"


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
    # negative control passed with exit 0; BiBar refuses such a pair
    for spec in ("9:0", "3:0", "1:1", "2:2", "-1:0", "1:-1"):
        _one_line_error(cli("-w", NILCUBE, "bibar-verify", "incl",
                            f"--corrupt-phi={spec}"), "names no built letter")
    _one_line_error(cli("-w", NILCUBE, "bibar-verify", "incl",
                        "--corrupt-phi=1:x"), "--corrupt-phi")
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
