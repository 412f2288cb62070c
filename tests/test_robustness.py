"""Malformed input never crashes the command line.

Hypothesis mutates the shipped fixture JSON: it changes the JSON type of
a value (whole sections included), drops keys and list entries, and
rewrites integers, which puts coordinates, orders and the modulus out of
range.  It also draws the numeric arguments of fuzz, enumerate and
bibar-verify --corrupt-phi from ranges that reach past their bounds.
Whatever the damage, the CLI must exit with one of the codes 0-3 the
README defines, and a refusal (exit 3) must be a one-line error on
stderr, never a traceback.
"""

import contextlib
import copy
import io
import json
import os
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from idealbar import cli
from idealbar.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# cheap commands that read every kind of section between them
COMMANDS = {
    "nilsquare.json": [["check-algebra", "S"], ["check-xmod", "main"],
                       ["bar-verify", "main", "--depth", "1"],
                       ["roundtrip", "main", "--depth", "1"]],
    "broken_action.json": [["check-xmod", "main"],
                           ["bar-verify", "main", "--depth", "1"]],
    "nilcube.json": [["ideal-check", "good"], ["ideal-check", "bad"],
                     ["cim-check", "incl_cim"],
                     ["bibar-verify", "incl", "--rows", "1", "--cols", "1"]],
}
DOCS = {name: json.loads((FIXTURES / name).read_text()) for name in COMMANDS}
OTHER_TYPES = [[], {}, "S", 7, None, True, 2.5]


def _paths(node, prefix=()):
    yield prefix
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _paths(child, prefix + (key,))


def _parent(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


@st.composite
def mutated(draw):
    name = draw(st.sampled_from(sorted(COMMANDS)))
    doc = copy.deepcopy(DOCS[name])
    for _ in range(draw(st.integers(1, 3))):
        top = draw(st.booleans())
        # whole sections are drawn as often as any nested value
        paths = [p for p in _paths(doc) if p and (len(p) == 1) == top]
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent, key = _parent(doc, path), path[-1]
        how = draw(st.sampled_from(["retype", "drop", "integer"]))
        if how == "drop":
            del parent[key]
        elif how == "integer":
            parent[key] = draw(st.integers(-2, 9))
        else:
            parent[key] = draw(st.sampled_from(
                [v for v in OTHER_TYPES if type(v) is not type(parent[key])]))
    command = draw(st.sampled_from(COMMANDS[name]))
    return doc, command


def _main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _run(doc, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ws.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return _main(["-w", path, *command])


def _assert_defined_exit(code, err):
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if code == 3:
        assert err.startswith("error: ") and err.count("\n") == 1, err


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutated())
def test_mutated_workspace_exits_with_a_defined_code(case):
    doc, command = case
    _assert_defined_exit(*_run(doc, command))


small = st.integers(-2, 4).map(str)


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    st.tuples(st.just("fuzz"), st.just("--modulus"), small,
              st.just("--max-rank"), st.integers(-1, 1).map(str),
              st.just("--count"), st.integers(-1, 2).map(str)),
    st.tuples(st.just("enumerate"), st.just("--modulus"), small,
              st.just("--max-rank"), st.integers(-1, 1).map(str))))
def test_out_of_range_arguments_exit_with_a_defined_code(argv):
    _assert_defined_exit(*_main(list(argv)))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2), st.integers(-1, 3), st.integers(-1, 3))
def test_corrupt_phi_never_passes_silently(rows, n, j):
    code, err = _main(["-w", str(FIXTURES / "nilcube.json"), "bibar-verify",
                       "incl", "--rows", str(rows), "--cols", "1",
                       f"--corrupt-phi={n}:{j}"])
    _assert_defined_exit(code, err)
    # a negative control that corrupts nothing must not pass
    assert code != 0


def test_unmutated_fixtures_run_clean():
    # every listed command reaches its checks on intact input, so the
    # mutations above are what any refusal is about
    for name, commands in COMMANDS.items():
        for command in commands:
            code, err = _run(DOCS[name], command)
            assert err == "" and code in (0, 1), (name, command)


def test_running_out_of_memory_is_a_one_line_refusal(monkeypatch):
    # exit 1 means a failed axiom, so an exhausted address space must not
    # end in a MemoryError traceback
    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(cli, "run", exhausted)
    code, err = _main(["-w", str(FIXTURES / "nilcube.json"), "bar-verify",
                       "main", "--depth", "8"])
    assert (code, err) == (3, "error: out of memory\n")
