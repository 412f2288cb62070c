"""Verification policy: generator tuples decide every clause, and an
element sweep, exhaustive at desk scale and seeded sampling above, finds
the least witness of a failure on a span.

A sweep runs a predicate over the cartesian product of finite element
lists.  When the product has at most `exhaustive_bound` tuples the sweep
walks it in lexicographic order, so the reported witness of a failure is
the lexicographically least violating tuple.  Above the bound it draws
`sample_count` uniform tuples from a seeded generator; the seed is echoed
in the result so runs are reproducible.  A policy refuses a sample count
below 1, so a sampled PASS always rests on at least one draw, and a mode
other than auto, exhaustive and sample, so a misspelt mode cannot run
as auto.  The bound, the mode and the sample count govern element
sweeps only.

`check` is the one way element identities become report leaves: it
returns a PASS or FAIL leaf of the given class carrying the witness and
the coverage (mode, tuples checked and, when sampled, the seed) in its
meta.  `checked` counts the element tuples the verdict covers.  A space
is one of two kinds:

- a module (anything with `size`, `elements()` and `generators()`),
  standing for all its elements in lexicographic order;
- a span (a Submodule, which keeps its generators as `gens`), standing
  for its sorted elements.

Every clause is multilinear and is decided on generator tuples at every
size and under every policy.  A caller passes `maps`, the tensors and
homs the predicate reads, and so vouches that the predicate compares
two maps built from them that are additive in every argument, or asks
such a map to land in a span being swept.  When every map is well
defined (tensors torsion-compatible, homs order-compatible) `check`
takes the generator tuples: a module gives its standard generators, a
span its generating list.  When every generator tuple passes so does
every element tuple, so the leaf is the one the full sweep would give:
mode exhaustive, every element tuple counted.  A map that is not well
defined is no map, and a verdict read off its representatives would be
about no structure, so the clause is not run: its leaf is
`non_map_leaf`, a FAIL of class STRUCTURAL with no witness.

When a generator tuple fails, the least witness comes from generators
too if every space is a module.  For each argument the values that
pass, whatever the later arguments, form a subgroup, and the least
element of Z/d_1 + .. + Z/d_n outside a subgroup is e_i for the largest
i with e_i outside it.  Taking the generators in element order
(e_n < .. < e_1), the first failing generator tuple is therefore the
lexicographically least failing element tuple, by induction on the
arity, and the FAIL leaf is the sweep's: that witness, mode exhaustive,
every tuple counted.  A span gives no such witness, and a failure there
is swept for it; that sweep is the only one the policy governs.  A
failing generator tuple is an element tuple, so when a sampled sweep
misses every failure the leaf still fails, with that tuple as its
witness.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from math import prod

from .report import FAIL, PASS, STRUCTURAL, Report, leaf

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
        if self.mode not in (AUTO, EXHAUSTIVE, SAMPLE):
            raise ValueError(f"unknown policy mode {self.mode!r}")
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


def _is_module(space) -> bool:
    return callable(getattr(space, "generators", None))


def _generators(space):
    """The generators standing for a module or a span."""
    if _is_module(space):
        # sorted standard generators are always e_n < .. < e_1
        return space.generators()[::-1]
    return space.gens


def non_map_leaf(name) -> Report:
    """The leaf of a clause that reads a map that is not well defined."""
    return leaf(name, FAIL, STRUCTURAL,
                detail="not run: a map it reads is not well defined")


def check(name, kind, spaces, pred, maps, detail: str = "",
          policy: Policy | None = None) -> Report:
    """pred over the product of spaces, modules or spans, as one leaf.

    maps holds the tensors and homs pred reads and vouches that
    generator tuples decide pred (see the module docstring)."""
    if not all(m.well_defined() for m in maps):
        return non_map_leaf(name)
    bad = next((tup for tup in product(*map(_generators, spaces))
                if not pred(*tup)), None)
    if bad is None or all(_is_module(s) for s in spaces):
        total = prod(s.size for s in spaces)
        return leaf(name, PASS if bad is None else FAIL, kind, detail=detail,
                    witness=bad, meta={"mode": EXHAUSTIVE, "checked": total})
    res = sweep([s.elements() if _is_module(s) else s for s in spaces],
                pred, policy)
    return leaf(name, FAIL, kind, detail=detail, witness=res.witness or bad,
                meta=res.meta())
