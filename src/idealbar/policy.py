"""Verification policy: exhaustive sweeps at desk scale, seeded sampling above.

A sweep runs a predicate over the cartesian product of finite element
lists.  When the product has at most `exhaustive_bound` tuples the sweep
walks it in lexicographic order, so the reported witness of a failure is
the lexicographically least violating tuple.  Above the bound it draws
`sample_count` uniform tuples from a seeded generator; the seed is echoed
in the result so runs are reproducible.  A policy refuses a sample count
below 1, so a sampled PASS always rests on at least one draw.

`check` is the one way element identities become report leaves: it
sweeps the predicate and returns a PASS or FAIL leaf of the given class
carrying the witness and the sweep's coverage (mode, tuples checked and,
when sampled, the seed) in its meta.  `checked` counts the element tuples
the verdict covers.  Within the exhaustive bound a bilinear clause is
decided on generator tuples: a caller whose predicate compares two maps
that are additive in every argument (or asks that such a map land in a
submodule) passes one generator list per space, and when every generator
tuple passes so does every element tuple, so the leaf is the one the
full sweep would give.  A failing generator tuple falls back to the
sweep, which finds the least witness.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from math import prod

from .report import FAIL, PASS, Report, leaf

EXHAUSTIVE_BOUND = 1_000_000
SAMPLE_COUNT = 10_000

AUTO = "auto"
EXHAUSTIVE = "exhaustive"
SAMPLE = "sample"


@dataclass(frozen=True)
class Policy:
    mode: str = AUTO
    seed: int = 0
    sample_count: int = SAMPLE_COUNT
    exhaustive_bound: int = EXHAUSTIVE_BOUND

    def __post_init__(self):
        if self.sample_count < 1:
            raise ValueError(
                f"sample count must be at least 1, got {self.sample_count}")

    def use_exhaustive(self, total: int) -> bool:
        if self.mode == EXHAUSTIVE:
            return True
        if self.mode == SAMPLE:
            return total <= self.sample_count
        return total <= self.exhaustive_bound


@dataclass
class SweepResult:
    ok: bool
    witness: tuple | None
    mode: str
    checked: int
    seed: int | None = None

    def meta(self) -> dict:
        m = {"mode": self.mode, "checked": self.checked}
        if self.seed is not None:
            m["seed"] = self.seed
        return m


def sweep(spaces, pred, policy: Policy | None = None) -> SweepResult:
    """Run pred over the product of spaces; pred returns True when the
    tuple satisfies the property being checked."""
    policy = policy or Policy()
    spaces = [list(s) for s in spaces]
    total = 1
    for s in spaces:
        total *= len(s)
    if total == 0:
        return SweepResult(True, None, "exhaustive", 0)
    if policy.use_exhaustive(total):
        for tup in product(*spaces):
            if not pred(*tup):
                return SweepResult(False, tup, "exhaustive", total)
        return SweepResult(True, None, "exhaustive", total)
    rng = random.Random(policy.seed)
    draws = policy.sample_count
    for _ in range(draws):
        tup = tuple(s[rng.randrange(len(s))] for s in spaces)
        if not pred(*tup):
            return SweepResult(False, tup, "sampled", draws, policy.seed)
    return SweepResult(True, None, "sampled", draws, policy.seed)


def check(name, kind, spaces, pred, policy: Policy | None = None,
          detail: str = "", generators=None) -> Report:
    """Sweep pred over the product of spaces and report it as one leaf.

    generators, when given, holds one generator list per space and
    vouches that pred is decided by generator tuples (see the module
    docstring); spaces must then be sized sequences."""
    policy = policy or Policy()
    if generators is not None:
        total = prod(len(s) for s in spaces)
        if total and policy.use_exhaustive(total) \
                and all(pred(*tup) for tup in product(*generators)):
            return leaf(name, PASS, kind, detail=detail,
                        meta={"mode": EXHAUSTIVE, "checked": total})
    res = sweep(spaces, pred, policy)
    return leaf(name, PASS if res.ok else FAIL, kind, detail=detail,
                witness=res.witness, meta=res.meta())
