"""Report tree behaviour: grouping, exit codes, rendering, JSON stability."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idealbar.cli import build_parser, run
from idealbar.enumeration import classify_xmods, fuzz_report
from idealbar.report import (
    AXIOM,
    FAIL,
    NOTE,
    PASS,
    SKIP,
    STRUCTURAL,
    THEOREM,
    Report,
    exit_code,
    group,
    leaf,
    worst_failure_kind,
)
from oracles import workspace
from test_golden import GOLDEN, _ident


def test_group_status_follows_children():
    ok = leaf("a", PASS, AXIOM)
    bad = leaf("b", FAIL, AXIOM)
    assert group("g", [ok]).status == PASS
    assert group("g", [ok, bad]).status == FAIL
    assert group("g", []).status == PASS


def test_group_of_only_skips_is_skip():
    g = group("g", [leaf("a", SKIP, AXIOM), leaf("b", SKIP, AXIOM)])
    assert g.status == SKIP
    # a single pass rescues the group
    g2 = group("g", [leaf("a", SKIP, AXIOM), leaf("b", PASS, AXIOM)])
    assert g2.status == PASS


def test_notes_do_not_fail_a_group():
    g = group("g", [leaf("n", NOTE, None, detail="informational")])
    assert g.status == PASS
    assert g.passed


def test_exit_code_precedence():
    assert exit_code(group("g", [leaf("a", PASS, AXIOM)])) == 0
    assert exit_code(group("g", [leaf("a", FAIL, AXIOM)])) == 1
    assert exit_code(group("g", [leaf("a", FAIL, THEOREM)])) == 2
    assert exit_code(group("g", [leaf("a", FAIL, STRUCTURAL)])) == 3
    mixed = group("g", [
        leaf("a", FAIL, AXIOM),
        leaf("b", FAIL, THEOREM),
        leaf("c", FAIL, STRUCTURAL),
    ])
    assert worst_failure_kind(mixed) == STRUCTURAL
    assert exit_code(mixed) == 3


def test_worst_kind_looks_through_nesting():
    inner = group("inner", [leaf("deep", FAIL, THEOREM)])
    outer = group("outer", [leaf("shallow", FAIL, AXIOM), inner])
    assert worst_failure_kind(outer) == THEOREM


def test_find_and_failures():
    tree = group("root", [
        group("mid", [leaf("x", FAIL, AXIOM, witness=((1,), (0,)))]),
        leaf("y", PASS, AXIOM),
    ])
    hit = tree.find("x")
    assert hit is not None and hit.witness == ((1,), (0,))
    assert tree.find("missing") is None
    assert [n.name for n in tree.failures()] == ["root", "mid", "x"]


def test_json_is_deterministic_and_sorted():
    tree = group("root", [
        leaf("x", FAIL, AXIOM, detail="d", witness=((1, 0), (0, 1)),
             meta={"zeta": 1, "alpha": 2}),
    ])
    a = tree.to_json()
    b = tree.to_json()
    assert a == b
    # keys come out sorted so diffs of two runs are meaningful
    assert a.index('"alpha"') < a.index('"zeta"')
    assert '"witness": null' not in a.split('"name": "x"')[0] or True


def test_witness_serializes_tuples_as_lists():
    d = leaf("x", FAIL, AXIOM, witness=((1, 0), (0, 1))).to_dict()
    assert d["witness"] == [[1, 0], [0, 1]]
    assert leaf("y", PASS, AXIOM).to_dict()["witness"] is None


def test_render_shows_status_kind_and_witness():
    tree = group("root", [
        leaf("x", FAIL, AXIOM, detail="broke", witness=((1,), (1,)),
             meta={"mode": "exhaustive", "checked": 4}),
    ])
    text = tree.render()
    assert "FAIL root" in text.splitlines()[0]
    assert "FAIL [AXIOM] x: broke (checked=4 mode=exhaustive)" in text
    assert "witness: ((1,), (1,))" in text


def test_walk_is_preorder():
    tree = group("r", [leaf("a", PASS, AXIOM), group("b", [leaf("c", PASS, AXIOM)])])
    assert [n.name for n in tree.walk()] == ["r", "a", "b", "c"]


def test_report_passed_property():
    assert Report(name="n", status=PASS).passed
    assert Report(name="n", status=NOTE).passed
    assert Report(name="n", status=SKIP).passed
    assert not Report(name="n", status=FAIL).passed


# ---------------------------------------------------------------------------
# to_json writes the document itself; the stdlib's indent=2, sort_keys
# encoding of to_dict is its oracle, byte for byte


def stdlib_json(rep):
    return json.dumps(rep.to_dict(), indent=2, sort_keys=True)


# quotes, backslashes and control characters, escaped by name or as \u00XX;
# non-ASCII, escaped as \uXXXX or as a surrogate pair; and lone surrogates
texts = st.text(st.one_of(
    st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u2028'),
    st.characters(),
    st.integers(0x80, 0x10FFFF).map(chr),
    st.integers(0xD800, 0xDFFF).map(chr)), max_size=8)
ints = st.one_of(st.integers(), st.integers(2 ** 64, 2 ** 200),
                 st.integers(-2 ** 200, -2 ** 64))
scalars = st.one_of(st.none(), st.booleans(), ints, texts,
                    st.floats(allow_nan=True, allow_infinity=True),
                    st.sampled_from([float("nan"), float("inf"), -float("inf")]))
# nested lists, tuples and dicts; a dict keyed by ints takes the stdlib's
# own path, which sorts the keys as ints before writing them as strings
values = st.recursive(scalars, lambda kids: st.one_of(
    st.lists(kids, max_size=4),
    st.lists(kids, max_size=4).map(tuple),
    st.dictionaries(texts, kids, max_size=4),
    st.dictionaries(ints, kids, max_size=4)), max_leaves=12)
metas = st.one_of(st.dictionaries(texts, values, max_size=5),
                  st.dictionaries(ints, values, max_size=3))
witnesses = st.one_of(
    st.none(), st.just(()),
    st.lists(st.one_of(ints, st.recursive(
        st.lists(ints, max_size=3).map(tuple),
        lambda kids: st.lists(kids, max_size=3).map(tuple), max_leaves=6)),
        max_size=4).map(tuple))
nodes = st.builds(
    Report, name=texts,
    status=st.one_of(st.sampled_from([PASS, FAIL, NOTE, SKIP]), texts),
    kind=st.one_of(st.none(), st.sampled_from([AXIOM, THEOREM, STRUCTURAL]),
                   texts),
    detail=texts, witness=witnesses, meta=metas, checks=st.builds(list))
trees = st.recursive(nodes, lambda kids: st.builds(
    lambda node, checks: Report(node.name, node.status, node.kind,
                                node.detail, node.witness, node.meta, checks),
    nodes, st.lists(kids, max_size=4)), max_leaves=10)


@settings(max_examples=100, deadline=None)
@given(trees)
def test_to_json_matches_the_stdlib_encoder(rep):
    assert rep.to_json() == stdlib_json(rep)


def test_to_json_matches_the_stdlib_encoder_on_edge_values():
    tree = group("ro\"ot\\", [
        leaf("\x00\u00e9\U0001f600\ud800", FAIL, AXIOM, detail="\n\t",
             witness=((0, 1), 3, ()),
             meta={"z": [], "a": {}, "m": (True, False, None, 2 ** 70),
                   "f": [1.5, float("nan"), float("inf"), -float("inf")],
                   "k": {3: "x", 10: ["y"]}}),
        leaf("empty", SKIP, None, witness=()),
        group("no-checks", []),
    ])
    assert tree.to_json() == stdlib_json(tree)


@pytest.mark.parametrize("value", [{1}, {1: 0, "a": 0}], ids=["set", "mixed-keys"])
def test_to_json_refuses_what_the_stdlib_refuses(value):
    rep = leaf("x", PASS, AXIOM, meta={"value": value})
    for write in (Report.to_json, stdlib_json):
        with pytest.raises(TypeError):
            write(rep)


@pytest.mark.parametrize("entry", GOLDEN, ids=[_ident(e) for e in GOLDEN])
def test_to_json_matches_the_stdlib_encoder_on_golden_reports(entry):
    rep = run(build_parser().parse_args(["--format", "json", *entry[0]]))
    assert rep.to_json() == stdlib_json(rep)


def test_to_json_matches_the_stdlib_encoder_on_fuzz_and_reject_reports():
    rep = fuzz_report(3, 2, 50, 1)
    assert rep.to_json() == stdlib_json(rep)
    ws = workspace("nilsquare")
    _, invalid = classify_xmods(ws.algebra("R"), ws.algebra("S"))
    assert len(invalid) == 5
    for _, rej in invalid:
        assert any(node.witness is not None for node in rej.walk())
        assert rej.to_json() == stdlib_json(rej)
