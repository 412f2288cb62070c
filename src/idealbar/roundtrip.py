"""Round trip between crossed modules and ideal structures on the bar.

A structure stores its whole crossed module: S at level 0, the action
and the product of R in the level-1 cells (s,0)(0,r) = (0, s.r) and
(0,a)(0,b) = (0, ab), and eta in d_0.  extract_crossed_module reads it
off the structure's own levels, and both directions work on what it
reads: rebuilding must reproduce every level tensor exactly.  A seeded
perturbation harness mutates the canonical level tensors, filters
candidates through the ideal-structure definition, and round-trips
every survivor.
"""

from __future__ import annotations

import random
from itertools import chain

from .core import (Algebra, AlgebraHom, BilinearMap, ModuleHom,
                   PreconditionError, StructuralError, axiom_witnesses,
                   cellwise_axioms, direct_sum, multiplicativity_report,
                   semidirect_power)
from .bar import (TruncatedBarAlgebra, build_bar_algebra,
                  level_homomorphism_clauses, tail_absorption_clauses)
from .policy import Policy, check
from .report import (AXIOM, FAIL, NOTE, PASS, SKIP, STRUCTURAL, THEOREM,
                     Report, group, leaf)
from .xmod import (CrossedModule, cm1_report, cm2_report,
                   validate_algebra_action, validate_crossed_module)


class MalformedStructureError(StructuralError):
    """A level-1 product of (s,0) or (0,a) with (0,r) left the tail
    ideal."""


def extract_crossed_module(bar: TruncatedBarAlgebra) -> CrossedModule:
    """The crossed module a bar structure stores, read off its own
    levels: S is level 0, the action and the product of R are the letter
    coordinates of the level-1 cells (s,0)(0,r) = (0, s.r) and
    (0,a)(0,b) = (0, ab), and eta(r) = d_0(0, r) at level 1.  The action
    cells are read first; a cell with a base coordinate raises, naming
    the cell by label and its generator pair."""
    lvl = bar.levels[1]
    x_mod, r_mod = lvl.blocks
    tensors = []
    for label, blk, rows in zip(("(s,0)(0,r)", "(0,a)(0,b)"), lvl.blocks,
                                lvl.split(bar.algebras[1].mul.constants)):
        constants = []
        for gp, row in zip(blk.generators(), rows):
            constants.append([])
            for gr, cell in zip(r_mod.generators(), lvl.split(row)[1]):
                s_part, letter = lvl.split(cell)
                if s_part != x_mod.zero:
                    raise MalformedStructureError(
                        f"{label} has base coordinate {s_part} at {(gp, gr)}")
                constants[-1].append(letter)
        tensors.append(BilinearMap(blk, r_mod, r_mod, constants))
    act, r_mul = tensors
    s_alg, r_alg = bar.algebras[0], Algebra(r_mod, r_mul)
    eta = ModuleHom(r_mod, s_alg.carrier,
                    lvl.split(bar.face(1, 0).images)[1], name="eta")
    return CrossedModule(AlgebraHom(r_alg, s_alg, eta, name="eta"), act,
                         name="extracted")


def _tail_face_multiplicativity(bar: TruncatedBarAlgebra) -> Report:
    """d_0 restricted to the level-2 tail ideal (0,a,b) -> (eta(a), b);
    multiplicative exactly when CM2 holds."""
    if bar.depth < 2:
        return leaf("d0-on-tail-multiplicative @ 2", SKIP, None,
                    detail="needs depth at least 2")
    d0 = bar.face(2, 0)

    def ok(a, b):  # the letter pairs (a1, a2) and (b1, b2)
        u, v = bar.embed_r(2, [a]), bar.embed_r(2, [b])
        return d0.apply(bar.multiply(2, u, v)) \
            == bar.multiply(1, d0.apply(u), d0.apply(v))

    tail = direct_sum([bar.r_mod] * 2)
    rep = check("d0-on-tail-multiplicative @ 2", AXIOM, [tail, tail], ok,
                (d0,) + bar.tensors, detail="fails exactly on CM2 violations")
    if rep.witness is not None:
        rep.witness = tuple(w for t in rep.witness for w in tail.split(t))
    return rep


def verify_extracted(bar: TruncatedBarAlgebra) -> Report:
    """Validate the crossed module read off a bar structure, its own S
    and R included, routing the CM axioms through the face maps that
    detect them."""
    try:
        xm = extract_crossed_module(bar)
    except MalformedStructureError as exc:
        return group("verify-extracted", [leaf(
            "extraction", FAIL, STRUCTURAL, detail=str(exc))])
    return group("verify-extracted", [
        validate_algebra_action(xm),
        cm1_report(xm),
        cm2_report(xm),
        multiplicativity_report(
            "d0-multiplicative @ 1", bar.face(1, 0), bar.algebras[1],
            bar.algebras[0]),
        _tail_face_multiplicativity(bar)])


def roundtrip_from_structure(bar: TruncatedBarAlgebra) -> Report:
    """Direction from a structure: rebuild every level product from the
    S, R and action of extract_crossed_module, compare tensors.  No
    product is taken from bar.xm, whose products a structure need not
    share.  The level products do not read eta, so no second bar object
    is built."""
    try:
        xm = extract_crossed_module(bar)
    except MalformedStructureError as exc:
        return group("roundtrip-from-structure", [leaf(
            "extraction", FAIL, STRUCTURAL, detail=str(exc))])
    rebuilt = (semidirect_power(xm.s_alg, xm.r_alg, xm.action, k,
                                carrier=lvl).mul
               for k, lvl in enumerate(bar.levels))
    bad = next(((k, i, j) for k, (ta, tb) in
                enumerate(zip(bar.level_tensors(), rebuilt))
                for i, (ra, rb) in enumerate(zip(ta.constants, tb.constants))
                for j, (va, vb) in enumerate(zip(ra, rb)) if va != vb), None)
    return group("roundtrip-from-structure", [leaf(
        "rebuild-products-exact", PASS if bad is None else FAIL, THEOREM,
        detail="level tensors of the rebuilt bar match the input",
        witness=bad, meta={"levels": bar.depth})])


def roundtrip_check(xm: CrossedModule, depth: int = 4) -> Report:
    bar = build_bar_algebra(xm, depth)
    ext = extract_crossed_module(bar)
    checks = [
        validate_crossed_module(xm),
        leaf("action-extraction-exact",
             PASS if ext.action == xm.action else FAIL, THEOREM,
             detail="(s,0)(0,r) = (0, s.r) recovers the action tensor"),
        leaf("eta-readback-exact",
             PASS if ext.eta.hom == xm.eta.hom else FAIL, THEOREM,
             detail="d_0 at level 1 recovers eta"),
        roundtrip_from_structure(bar),
        verify_extracted(bar),
    ]
    name = xm.name or "xmod"
    return group(f"roundtrip {name} depth {depth}", checks)


# ---------------------------------------------------------------------------
# perturbation harness


def _mutate_tensors(bar: TruncatedBarAlgebra, rng: random.Random):
    """A level k of bar and the cells (i, j) -> coefficient list that a
    mutant of its tensor changes, in symmetric pairs."""
    k = rng.randrange(1, bar.depth + 1)
    lvl = bar.levels[k]
    n = lvl.rank
    base = bar.algebras[k].mul.constants
    cells = {}  # (i, j) -> the changed coefficient list of that cell
    for _ in range(rng.randrange(1, 4)):
        i = rng.randrange(n)
        j = rng.randrange(n)
        l = rng.randrange(n)
        cur = cells.setdefault((i, j), list(base[i][j]))[l]
        # always move to a different value, no-op mutants tell us nothing
        v = (cur + 1 + rng.randrange(lvl.orders[l] - 1)) % lvl.orders[l]
        cells[i, j][l] = v
        # keep the tensor symmetric
        cells.setdefault((j, i), list(base[j][i]))[l] = v
    return k, cells


def _definition_filter(canonical: TruncatedBarAlgebra):
    """Whether the canonical bar passes the definition filter, and a
    function of a level k and the cells that a mutant changes in its
    tensor, giving the mutant bar and whether it passes.  A mutant
    rejected before its level axioms pass is not built, and the bar
    given is None.

    Each clause runs once on the canonical bar, with the levels it
    reads.  A clause that skips level k keeps its canonical verdict on
    a mutant of level k, so the mutant fails when such a clause failed,
    and is otherwise decided on the clauses that read k: the level-k
    axioms (core.cellwise_axioms when the canonical level passed them),
    then the faces, degeneracies and absorption clauses whose levels
    include k.  The kept verdict is the one the mutant would compute.  A
    mutant that passes its level axioms is torsion-compatible, and a
    level tensor of build_bar_algebra is torsion-compatible exactly when
    S, R and the action are, so the mutant's tensors are all
    torsion-compatible exactly when the canonical ones are: no clause
    that skips k switches between the generator decision and the
    STRUCTURAL leaf of a map that is not well defined."""
    axioms = [None if any(axiom_witnesses(alg)) else cellwise_axioms(alg)
              for alg in canonical.algebras]
    failed = [(n,) for n, passes in enumerate(axioms) if passes is None]
    failed += [levels for levels, run in chain(
        level_homomorphism_clauses(canonical),
        tail_absorption_clauses(canonical)) if not run().passed]

    def decide(k, cells):
        if any(k not in levels for levels in failed) or not (
                axioms[k] is None or axioms[k](cells)):
            return None, False
        tensor = canonical.algebras[k].mul.with_cells(cells)
        if axioms[k] is None and any(axiom_witnesses(
                Algebra(canonical.levels[k], tensor))):
            return None, False
        mutant = canonical.with_level_tensor(k, tensor)
        clauses = chain(level_homomorphism_clauses(mutant),
                        tail_absorption_clauses(mutant))
        return mutant, all(run().passed for levels, run in clauses
                           if k in levels)

    return not failed, decide


def perturb_and_filter(xm: CrossedModule, depth: int = 2, seed: int = 0,
                       budget: int = 1000,
                       policy: Policy | None = None) -> Report:
    """Candidate 0 is the canonical structure; the rest mutate one level
    tensor at random and share the canonical bar module and every other
    level.  The definition filter runs each clause once on the canonical
    bar and decides a mutant on the clauses that read its level (see
    _definition_filter).  Survivors must round-trip exactly; when none
    survives, that leaf is a SKIP.  No clause here sweeps elements, so
    policy is not read; it stays for the benchmark workloads
    (perfbench/workloads.py), which pass one."""
    if budget < 1:
        raise PreconditionError(f"budget must be at least 1, got {budget}")
    if not xm.s_alg.carrier.rank + xm.r_alg.carrier.rank:
        raise PreconditionError("no tensor cell to perturb")
    rng = random.Random(seed)
    canonical = build_bar_algebra(xm, depth)
    passed, decide = _definition_filter(canonical)
    survivors = 0
    failures = []
    for t in range(budget):
        cand = canonical  # candidate 0 has the canonical verdict
        if t:
            cand, passed = decide(*_mutate_tensors(canonical, rng))
        if not passed:
            continue
        survivors += 1
        rep = roundtrip_from_structure(cand)
        if not rep.passed:
            failures.append(t)
    if survivors:
        exact = leaf("survivors-roundtrip-exact",
                     PASS if not failures else FAIL, THEOREM,
                     detail="every survivor of the definition filter round-trips",
                     witness=tuple(failures[:4]) or None,
                     meta={"survivors": survivors})
    else:
        exact = leaf("survivors-roundtrip-exact", SKIP, None,
                     detail="no candidate survived the definition filter",
                     meta={"survivors": 0})
    checks = [
        leaf("candidates", NOTE, None,
             meta={"budget": budget, "seed": seed, "depth": depth}),
        leaf("survivors", NOTE, None, meta={"count": survivors}),
        exact,
    ]
    name = xm.name or "xmod"
    return group(f"perturb-and-filter {name}", checks)
