"""Check reports.

Every verification routine in this package returns a Report: a tree whose
leaves are individual checks and whose internal nodes group them.  A leaf
carries a status, a class (axiom / theorem / structural), an optional
witness, and bookkeeping about how far the sweep went.  Reports render to
a stable JSON document and to indented text; both renderings are
byte-deterministic for a fixed input and seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

PASS = "PASS"
FAIL = "FAIL"
NOTE = "NOTE"
SKIP = "SKIP"

AXIOM = "AXIOM"
THEOREM = "THEOREM"
STRUCTURAL = "STRUCTURAL"


@dataclass
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
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

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


def leaf(name, status, kind, detail="", witness=None, meta=None) -> Report:
    return Report(name=name, status=status, kind=kind, detail=detail,
                  witness=witness, meta=dict(meta or {}))


def group(name: str, checks: list[Report], detail: str = "", meta=None) -> Report:
    """Internal node; its status is FAIL iff any descendant failed."""
    statuses = {c.status for c in checks}
    status = (FAIL if FAIL in statuses else SKIP if statuses == {SKIP}
              else PASS)
    return Report(name=name, status=status, detail=detail,
                  meta=dict(meta or {}), checks=list(checks))


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
