"""Verdict signatures and the frozen reference they are checked against.

An operation's verdict signature is its exit code plus, for every leaf
of its report, the leaf's path, status, kind, witness and the counts in
its meta.  Sweep bookkeeping (how a check was decided and how many
tuples it visited) is left out, so work that changes coverage or adds
counters keeps the same signature while a flipped status or a moved
witness changes it.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from idealbar.report import FAIL, PASS, exit_code

BOOKKEEPING = frozenset({"mode", "checked", "seed", "generator_pairs"})
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def _plain(value):
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    return value


def leaves(report, path=()):
    """(path, node) for every node without children, in report order."""
    path = path + (report.name,)
    if not report.checks:
        yield path, report
    for child in report.checks:
        yield from leaves(child, path)


def decided_leaves(report) -> int:
    return sum(1 for _, node in leaves(report) if node.status in (PASS, FAIL))


def signature(report) -> dict:
    return {
        "exit": exit_code(report),
        "leaves": [[list(path), node.status, node.kind, _plain(node.witness),
                    {k: _plain(v) for k, v in sorted(node.meta.items())
                     if k not in BOOKKEEPING}]
                   for path, node in leaves(report)],
    }


def classification_signature(valid, invalid) -> dict:
    """Signature of one classify_xmods call: which candidates are valid,
    and the verdict signature of every reject."""
    return {"valid": [xm.name for xm in valid],
            "invalid": [[xm.name, signature(rep)] for xm, rep in invalid]}


def digest(sig) -> str:
    text = json.dumps(sig, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def load_reference(workload: str) -> dict:
    with open(REFERENCE_DIR / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)
