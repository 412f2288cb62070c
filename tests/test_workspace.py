"""Workspace JSON parsing against the shipped fixture files."""

import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import idealbar.core as core_mod
import idealbar.crossed_ideal as crossed_ideal_mod
from idealbar.core import FiniteModule, Submodule
from idealbar.crossed_ideal import inclusion_cim
from idealbar.workspace import Workspace, WorkspaceError
from oracles import addition_violation_oracle

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
NILSQUARE = str(FIXTURES / "nilsquare.json")
NILCUBE = str(FIXTURES / "nilcube.json")
BROKEN = str(FIXTURES / "broken_action.json")


def small_doc(**overrides):
    doc = {
        "modulus": 2,
        "algebras": {
            "A": {"orders": [2], "mul": [[[0]]]},
        },
    }
    doc.update(overrides)
    return doc


def xmod_constants(xm):
    """A crossed module as the numbers its file writes down: the orders
    and product constants of R and of S, eta's generator images and the
    action tensor."""
    return (xm.r_alg.orders, xm.r_alg.mul.constants,
            xm.s_alg.orders, xm.s_alg.mul.constants,
            xm.eta.images, xm.action.constants)


# k[x]/(x^2) on the basis (1, x) and its ideal (x) on the basis (x)
NILSQUARE_ALGEBRAS = ((2,), (((0,),),),
                      (2, 2), (((1, 0), (0, 1)), ((0, 1), (0, 0))))


def test_nilsquare_file_parses_to_its_structure_constants():
    ws = Workspace.load(NILSQUARE)
    # eta(x) = x, and x acts as zero on (x)
    assert xmod_constants(ws.xmod("main")) \
        == NILSQUARE_ALGEBRAS + (((0, 1),), (((1,),), ((0,),)))
    assert ws.options.get("depth") == 4


def test_broken_file_parses_to_its_structure_constants():
    ws = Workspace.load(BROKEN)
    # the nilsquare data with x acting as the identity on (x)
    assert xmod_constants(ws.xmod("main")) \
        == NILSQUARE_ALGEBRAS + (((0, 1),), (((1,),), ((1,),)))


def test_nilcube_file_parses_to_its_structure_constants():
    ws = Workspace.load(NILCUBE)
    # k[x]/(x^3) on (1, x, x^2) and its ideal (x) on (x, x^2), with
    # eta the inclusion and S acting by multiplication
    assert xmod_constants(ws.xmod("main")) == (
        (2, 2), (((0, 1), (0, 0)), ((0, 0), (0, 0))),
        (2, 2, 2), (((1, 0, 0), (0, 1, 0), (0, 0, 1)),
                    ((0, 1, 0), (0, 0, 1), (0, 0, 0)),
                    ((0, 0, 1), (0, 0, 0), (0, 0, 0))),
        ((0, 1, 0), (0, 0, 1)),
        (((1, 0), (0, 1)), ((0, 1), (0, 0)), ((0, 0), (0, 0))))
    # (x^2) in both layers: Z/2 with the zero product, eta' the
    # identity, x^2 acting as zero, mu and nu sending the generator to x^2
    good = ws.subxmod("good")
    assert xmod_constants(good.sub) \
        == ((2,), (((0,),),), (2,), (((0,),),), ((1,),), (((0,),),))
    assert (good.mu.images, good.nu.images) == (((0, 1),), ((0, 0, 1),))
    assert ws.subxmod("bad").sub is None


def test_declared_inclusion_map_is_the_canonical_one():
    ws = Workspace.load(NILCUBE)
    cim, want = ws.cim("incl_cim"), inclusion_cim(ws.subxmod("good"))
    assert (cim.alpha1_xmod.action, cim.alpha2_xmod.action, cim.h) \
        == (want.alpha1_xmod.action, want.alpha2_xmod.action, want.h)
    assert cim.h.constants == (((0,),), ((0,),))


def test_subxmod_morphism_form_equals_subset_form():
    ws = Workspace.load(NILCUBE)
    assert ws.subxmod("good_decl") == ws.subxmod("good")


def test_lookup_error_names_the_section():
    ws = Workspace.load(NILCUBE)
    with pytest.raises(WorkspaceError, match="no subxmods entry named 'nope'"):
        ws.subxmod("nope")
    with pytest.raises(WorkspaceError, match="no algebras entry named"):
        ws.algebra("missing")


def test_load_rejects_invalid_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(WorkspaceError, match="not valid JSON"):
        Workspace.load(str(p))


def test_modulus_is_required():
    with pytest.raises(WorkspaceError, match="modulus"):
        Workspace({"algebras": {}})


def test_unit_summands_are_rejected():
    doc = small_doc()
    doc["algebras"]["A"]["orders"] = [1, 2]
    doc["algebras"]["A"]["mul"] = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
    with pytest.raises(WorkspaceError, match="drop unit summands"):
        Workspace(doc)


def test_orders_must_divide_the_modulus():
    doc = small_doc()
    doc["algebras"]["A"]["orders"] = [3]
    with pytest.raises(WorkspaceError, match="does not divide modulus"):
        Workspace(doc)


def test_out_of_range_coordinates_are_rejected():
    doc = small_doc()
    doc["algebras"]["A"]["mul"] = [[[2]]]
    with pytest.raises(WorkspaceError, match="out of range"):
        Workspace(doc)


@pytest.mark.parametrize("key, value, path", [
    ("orders", [True], r"^algebras\.A\.orders: expected a non-empty list"),
    ("mul", [[[True]]], r"^algebras\.A\.mul\[0\]\[0\]: expected a list"),
])
def test_boolean_integers_are_rejected(key, value, path):
    # JSON true loads as a bool, which is an int in Python
    doc = small_doc()
    doc["algebras"]["A"][key] = value
    with pytest.raises(WorkspaceError, match=path):
        Workspace(doc)


def test_boolean_subset_coordinates_exit_3_with_the_key_path(tmp_path):
    # read as integers, [true, false] gave the witness ((True, False),)
    # and ideal-check exited 1, as if an axiom had failed
    with open(NILCUBE) as fh:
        doc = json.load(fh)
    subset = doc["subsets"]["r_all"]
    subset["elements"] = [[bool(c) for c in e] for e in subset["elements"]]
    path = tmp_path / "bools.json"
    path.write_text(json.dumps(doc))
    res = subprocess.run([sys.executable, "-m", "idealbar", "-w", str(path),
                          "ideal-check", "bad"], capture_output=True, text=True)
    assert res.returncode == 3
    assert res.stderr.splitlines() == [
        "error: subsets.r_all.elements[0]: expected a list of 2 integers"]


def test_tensor_shape_is_checked_with_a_path():
    doc = small_doc()
    doc["algebras"]["A"]["mul"] = [[[0], [0]]]
    with pytest.raises(WorkspaceError, match=r"algebras\.A\.mul\[0\]"):
        Workspace(doc)


def test_dangling_reference_inside_a_section():
    doc = small_doc(homs={"f": {"dom": "A", "cod": "ghost",
                                "images": [[0]]}})
    with pytest.raises(WorkspaceError, match="no algebras entry named 'ghost'"):
        Workspace(doc)


def test_subsets_must_contain_zero():
    doc = small_doc(subsets={"s": {"ambient": "A", "elements": [[1]]}})
    with pytest.raises(WorkspaceError, match="zero element must be listed"):
        Workspace(doc)


# nilcube subsets listed without the sum of two of their elements: R' is
# missing (1,1) = (0,1) + (1,0), and S' = {0, x, x^2} is missing x + x^2.
# Each used to load, and the sweep over its elements found the hole
NOT_CLOSED = {
    "r-two-generators": ("rp", [[0, 0], [0, 1], [1, 0]], "[0, 1] + [1, 0]"),
    "s-two-generators": ("sp", [[0, 0, 0], [0, 1, 0], [0, 0, 1]],
                         "[0, 0, 1] + [0, 1, 0]"),
    "r-listed-out-of-order": ("r_all", [[0, 0], [1, 0], [0, 1]],
                              "[0, 1] + [1, 0]"),
}


@pytest.mark.parametrize("name, elements, pair", NOT_CLOSED.values(),
                         ids=NOT_CLOSED)
def test_a_subset_not_closed_under_addition_is_refused(name, elements, pair):
    doc = json.loads(Path(NILCUBE).read_text())
    doc["subsets"][name]["elements"] = elements
    message = (f"subsets.{name}.elements: not closed under addition, "
               f"{pair} is not listed")
    with pytest.raises(WorkspaceError) as info:
        Workspace(doc)
    assert str(info.value) == message


MIXED = [FiniteModule(4, [2, 4]), FiniteModule(6, [2, 3]),
         FiniteModule(6, [6, 2]), FiniteModule(12, [2, 3, 4])]


@st.composite
def listings(draw):
    """A module and a shuffled listing of elements with zero among them:
    a span's elements, a span's elements with strays added, or any set."""
    mod = draw(st.sampled_from(MIXED))
    elems = st.sampled_from(mod.elements())
    span = set(Submodule.from_generators(
        mod, draw(st.lists(elems, max_size=3))).elements)
    listed = draw(st.sampled_from([
        span, span | draw(st.sets(elems, max_size=2)),
        draw(st.sets(elems, max_size=12))])) | {mod.zero}
    return mod, draw(st.permutations(sorted(listed)))


@given(listings())
def test_loading_refuses_exactly_the_subsets_not_closed(case):
    # the span of a listing is compared with it by size; a larger span is
    # refused with the least pair the scan of every listed pair finds
    mod, listed = case
    doc = {"modulus": mod.modulus,
           "algebras": {"A": {"orders": list(mod.orders),
                              "mul": [[[0] * mod.rank] * mod.rank] * mod.rank}},
           "subsets": {"s": {"ambient": "A",
                             "elements": [list(x) for x in listed]}}}
    bad = addition_violation_oracle(mod, listed)
    if bad is None:
        assert Workspace(doc).subsets["s"].elements == tuple(sorted(listed))
        return
    x, y = bad
    with pytest.raises(WorkspaceError) as info:
        Workspace(doc)
    assert str(info.value) == (f"subsets.s.elements: not closed under "
                               f"addition, {list(x)} + {list(y)} is not listed")


def test_xmod_shape_mismatch_is_reported():
    ws_doc = {
        "modulus": 2,
        "algebras": {
            "A": {"orders": [2], "mul": [[[0]]]},
            "B": {"orders": [2, 2],
                  "mul": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]},
        },
        "homs": {"f": {"dom": "A", "cod": "B", "images": [[0, 0]]}},
        "actions": {"a": {"actor": "A", "acted": "A", "tensor": [[[0]]]}},
        "xmods": {"x": {"eta": "f", "action": "a"}},
    }
    with pytest.raises(WorkspaceError, match="action does not match eta"):
        Workspace(ws_doc)


@pytest.mark.parametrize("act1, act2, message", [
    ("act2", "act2", "cims.incl_cim.act1: must let the target R act on the "
                     "source R"),
    ("act1", "act1", "cims.incl_cim.act2: must let the target S act on the "
                     "source S")])
def test_cim_action_mismatch_is_reported_with_its_path(act1, act2, message):
    with open(NILCUBE) as fh:
        doc = json.load(fh)
    doc["cims"]["incl_cim"].update(act1=act1, act2=act2)
    with pytest.raises(WorkspaceError) as exc:
        Workspace(doc)
    assert str(exc.value) == message


def test_fixture_files_are_valid_json_documents():
    for path in (NILSQUARE, NILCUBE, BROKEN):
        with open(path) as fh:
            json.load(fh)


@pytest.mark.parametrize("section", ["algebras", "homs", "actions", "xmods",
                                     "subsets", "morphisms", "subxmods",
                                     "cims"])
@pytest.mark.parametrize("value", [[], "S", 3, None])
def test_section_of_the_wrong_type_is_named(section, value):
    # a list used to reach .items() and end in AttributeError
    with pytest.raises(WorkspaceError, match=f"^{section}: must be an object$"):
        Workspace(small_doc(**{section: value}))


def test_nilcube_subsets_are_checked_for_closure_once(monkeypatch):
    # sub_crossed_module checks the closure of each of its two subsets,
    # then presents them without checking them again
    calls = []
    closed = core_mod.multiplicatively_closed

    def counted(*args, **kwargs):
        calls.append(args)
        return closed(*args, **kwargs)

    for mod in (core_mod, crossed_ideal_mod):
        monkeypatch.setattr(mod, "multiplicatively_closed", counted)
    Workspace.load(NILCUBE)
    assert len(calls) == 4
