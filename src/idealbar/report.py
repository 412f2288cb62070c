"""Check reports.

Every verification routine in this package returns a Report: a tree whose
leaves are individual checks and whose internal nodes group them.  A leaf
carries a status, a class (axiom / theorem / structural), an optional
witness, and bookkeeping about how far the sweep went.  Reports render to
a stable JSON document and to indented text; both renderings are
byte-deterministic for a fixed input and seed.

The JSON document is written directly, node by node, as the bytes that
json.dumps(report.to_dict(), indent=2, sort_keys=True) gives.  That call
is the oracle of the differential tests, not the writer: indent turns
off CPython's C encoder, so it spends a Python call on every token.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _encode_str

PASS = "PASS"
FAIL = "FAIL"
NOTE = "NOTE"
SKIP = "SKIP"

AXIOM = "AXIOM"
THEOREM = "THEOREM"
STRUCTURAL = "STRUCTURAL"


@dataclass(slots=True)
class Report:
    name: str
    status: str = PASS
    kind: str | None = None
    detail: str = ""
    witness: tuple | None = None
    meta: dict = field(default_factory=dict)
    checks: list["Report"] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.status != FAIL

    def walk(self):
        yield self
        for child in self.checks:
            yield from child.walk()

    def find(self, name: str) -> "Report | None":
        for node in self.walk():
            if node.name == name:
                return node
        return None

    def failures(self) -> list["Report"]:
        return [node for node in self.walk() if node.status == FAIL]

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "kind": self.kind,
            "detail": self.detail,
            "witness": _witness_json(self.witness),
            "meta": dict(sorted(self.meta.items())),
            "checks": [c.to_dict() for c in self.checks],
        }

    def to_json(self) -> str:
        """to_dict() as json.dumps(..., indent=2, sort_keys=True) writes
        it, byte for byte, without building the dicts.  Each node is one
        template over its seven keys in sorted order; strings go through
        the stdlib's C escaper, and containers follow its indent rules
        (see _json_value)."""
        return _json_node(self, "\n")

    def render(self) -> str:
        lines: list[str] = []
        self._render_into(lines, 0)
        return "\n".join(lines)

    def _render_into(self, lines: list[str], depth: int) -> None:
        pad = "  " * depth
        tag = f" [{self.kind}]" if self.kind else ""
        line = f"{pad}{self.status}{tag} {self.name}"
        if self.detail:
            line += f": {self.detail}"
        if self.meta:
            bits = " ".join(f"{k}={v}" for k, v in sorted(self.meta.items()))
            line += f" ({bits})"
        lines.append(line)
        if self.witness is not None:
            lines.append(f"{pad}  witness: {format_witness(self.witness)}")
        for child in self.checks:
            child._render_into(lines, depth + 1)


# leaf and group pass the fields in order: keyword construction of the
# dataclass costs about twice as much, and the census builds a node per
# candidate
def leaf(name, status, kind, detail="", witness=None, meta=None) -> Report:
    return Report(name, status, kind, detail, witness, dict(meta or {}), [])


def group(name: str, checks: list[Report], detail: str = "", meta=None) -> Report:
    """Internal node; its status is FAIL iff any descendant failed."""
    statuses = {c.status for c in checks}
    status = (FAIL if FAIL in statuses else SKIP if statuses == {SKIP}
              else PASS)
    return Report(name, status, None, detail, None, dict(meta or {}),
                  list(checks))


def relabel(report: Report, kind: str) -> Report:
    """Move every AXIOM leaf under report to class kind, for a check whose
    failure on validated input can only mean an implementation bug."""
    for node in report.walk():
        if node.kind == AXIOM:
            node.kind = kind
    return report


def format_witness(witness) -> str:
    if witness is None:
        return "-"
    return repr(witness)


def _witness_json(witness):
    if witness is None:
        return None
    return [list(w) if isinstance(w, tuple) else w for w in witness]


def _json_node(node: Report, nl: str) -> str:
    # nl is the newline and indentation of the line the node closes on
    inner = nl + "  "
    if node.checks:
        item = inner + "  "
        checks = ("[" + item
                  + ("," + item).join([_json_node(c, item) for c in node.checks])
                  + inner + "]")
    else:
        checks = "[]"
    return (f'{{{inner}"checks": {checks},'
            f'{inner}"detail": {_json_value(node.detail, inner)},'
            f'{inner}"kind": {_json_value(node.kind, inner)},'
            f'{inner}"meta": {_json_value(node.meta, inner)},'
            f'{inner}"name": {_json_value(node.name, inner)},'
            f'{inner}"status": {_json_value(node.status, inner)},'
            f'{inner}"witness": {_json_value(_witness_json(node.witness), inner)}'
            f'{nl}}}')


def _json_value(value, nl: str) -> str:
    """value as the stdlib's indent=2, sort_keys encoder writes it at the
    nesting whose closing line starts with nl.  bool is tested before
    int, as there; a float, a dict with a key that is not a str, and
    anything unserializable go to json.dumps itself, reindented."""
    if isinstance(value, str):
        return _encode_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = nl + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return ("[" + inner
                + ("," + inner).join([_json_value(v, inner) for v in value])
                + nl + "]")
    if isinstance(value, dict):
        if not value:
            return "{}"
        try:  # _encode_str refuses a key that is not a str
            return ("{" + inner
                    + ("," + inner).join([f"{_encode_str(k)}: {_json_value(v, inner)}"
                                          for k, v in sorted(value.items())])
                    + nl + "}")
        except TypeError:
            pass
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", nl)


def worst_failure_kind(report: Report) -> str | None:
    """Most severe class among failed leaves: STRUCTURAL > THEOREM > AXIOM."""
    kinds = {node.kind for node in report.walk() if node.status == FAIL}
    for k in (STRUCTURAL, THEOREM, AXIOM):
        if k in kinds:
            return k
    if kinds:
        return AXIOM
    return None


def exit_code(report: Report) -> int:
    worst = worst_failure_kind(report)
    if worst is None:
        return 0
    return {AXIOM: 1, THEOREM: 2, STRUCTURAL: 3}[worst]
