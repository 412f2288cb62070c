"""Exhaustive enumeration at desk scale, and the seeded fuzz pipeline.

Everything here is deterministic: order tuples, tensors and images are
produced in lexicographic order, and the fuzzer draws from a seeded
generator, so two runs with the same arguments list the same objects.
"""

from __future__ import annotations

import random
from itertools import combinations_with_replacement, product

from .core import (Algebra, AlgebraHom, BilinearMap, FiniteModule, ModuleHom,
                   Submodule, UnsupportedScaleError, algebra_axioms,
                   multiplicativity_report, validate_algebra, validate_hom)
from .crossed_ideal import (image_crossed_ideal_check, inclusion_cim,
                            sub_crossed_module, validate_crossed_ideal_map)
from .policy import EXHAUSTIVE, Policy
from .report import FAIL, NOTE, PASS, THEOREM, Report, group, leaf
from .xmod import (AlgebraAction, CrossedModule, crossed_module_report,
                   inclusion_xmod, validate_algebra_action)

MAX_PAIR_ENUM = 200_000


def enumerate_order_tuples(modulus: int, rank: int) -> list[tuple]:
    """Non-decreasing tuples of summand orders dividing the modulus.  At
    rank 0 no divisor is listed."""
    if rank == 0:
        return [()]
    divisors = [d for d in range(2, modulus + 1) if modulus % d == 0]
    return [tuple(t) for t in combinations_with_replacement(divisors, rank)]


def _tensors(left: FiniteModule, right: FiniteModule, target: FiniteModule,
             symmetric: bool):
    """All torsion-compatible tensors left x right -> target, in
    lexicographic order of their cells (i, j) taken row by row.  A
    symmetric tensor on a carrier fills the cells with i <= j and
    mirrors them.  A space of more than MAX_PAIR_ENUM tensors is refused
    before any is built."""
    cells = [(i, j) for i in range(left.rank)
             for j in range(i if symmetric else 0, right.rank)]
    if target.size ** len(cells) > MAX_PAIR_ENUM:
        raise UnsupportedScaleError(
            "tensor space too large to enumerate at this rank")
    for combo in product(target.elements(), repeat=len(cells)):
        constants = [[None] * right.rank for _ in range(left.rank)]
        for (i, j), val in zip(cells, combo):
            constants[i][j] = val
            if symmetric:
                constants[j][i] = val
        tensor = BilinearMap(left, right, target, constants)
        if tensor.well_defined():
            yield tensor


def enumerate_algebras(modulus: int, rank: int) -> list[Algebra]:
    """Every commutative associative algebra structure on every module of
    the given rank, one entry per structure-constant tensor.  Above rank
    0 a modulus over MAX_PAIR_ENUM is refused before its divisors are
    listed: the tensors on (Z/m)^rank alone are more than that."""
    if rank and modulus > MAX_PAIR_ENUM:
        raise UnsupportedScaleError(
            "tensor space too large to enumerate at this rank")
    out = []
    for orders in enumerate_order_tuples(modulus, rank):
        carrier = FiniteModule(modulus, orders)
        for tensor in _tensors(carrier, carrier, carrier, symmetric=True):
            alg = Algebra(carrier, tensor)
            if algebra_axioms(alg).passed:
                alg.name = f"m{modulus}o{'x'.join(map(str, orders)) or '1'}#{len(out)}"
                out.append(alg)
    return out


def enumerate_homs(dom: Algebra, cod: Algebra) -> list[AlgebraHom]:
    """All multiplicative module homs between two algebras.
    multiplicativity_report decides each candidate, so the list is exact
    also when a product is not torsion-compatible."""
    choices = []
    for d in dom.carrier.orders:
        choices.append([y for y in cod.carrier.elements()
                        if cod.carrier.scale(d, y) == cod.carrier.zero])
    out = []
    for images in product(*choices):
        f = ModuleHom(dom.carrier, cod.carrier, list(images))
        if multiplicativity_report("multiplicativity", f, dom, cod,
                                   Policy(mode=EXHAUSTIVE)).passed:
            out.append(AlgebraHom(dom, cod, f))
    return out


def enumerate_action_tensors(s_alg: Algebra, r_alg: Algebra) -> list[BilinearMap]:
    """All torsion-compatible bilinear tensors S x R -> R.  These are
    action candidates, not validated actions."""
    return list(_tensors(s_alg.carrier, r_alg.carrier, r_alg.carrier,
                         symmetric=False))


def enumerate_xmods(r_alg: Algebra, s_alg: Algebra) -> list[CrossedModule]:
    """Every (eta, action tensor) candidate on a fixed pair of algebras."""
    tensors = enumerate_action_tensors(s_alg, r_alg)
    out = []
    for eta in enumerate_homs(r_alg, s_alg):
        for tensor in tensors:
            out.append(CrossedModule(
                eta, AlgebraAction(s_alg, r_alg, tensor),
                name=f"cand{len(out)}"))
    return out


def classify_xmods(r_alg: Algebra, s_alg: Algebra,
                   policy: Policy | None = None):
    """Split the candidates of enumerate_xmods, in its order and with its
    names, into valid crossed modules and rejects, each reject paired
    with the report validate_crossed_module gives it.

    Each factor of a candidate is validated once: validate_algebra of R
    and of S once per call, validate_hom once per hom eta and
    validate_algebra_action once per action tensor.  Only CM1 and CM2
    run per candidate.  The rejects share those factor reports as nodes
    of their trees, so every returned report is read-only."""
    algebra_reps = [validate_algebra(r_alg), validate_algebra(s_alg)]
    actions = []
    for tensor in enumerate_action_tensors(s_alg, r_alg):
        act = AlgebraAction(s_alg, r_alg, tensor)
        actions.append((act, validate_algebra_action(act, policy)))
    valid, invalid = [], []
    for eta in enumerate_homs(r_alg, s_alg):
        hom_rep = validate_hom(eta, policy)
        for act, act_rep in actions:
            xm = CrossedModule(eta, act,
                               name=f"cand{len(valid) + len(invalid)}")
            rep = crossed_module_report(
                xm, [*algebra_reps, hom_rep, act_rep], policy)
            if rep.passed:
                valid.append(xm)
            else:
                invalid.append((xm, rep))
    return valid, invalid


def all_valid_xmods(modulus: int, max_rank: int,
                    policy: Policy | None = None) -> list[CrossedModule]:
    """Valid crossed modules over every pair of algebras of rank at most
    max_rank."""
    algebras = [a for r in range(max_rank + 1)
                for a in enumerate_algebras(modulus, r)]
    out = []
    for r_alg in algebras:
        for s_alg in algebras:
            valid, _ = classify_xmods(r_alg, s_alg, policy)
            out.extend(valid)
    return out


def _ideal_closure(alg: Algebra, gens) -> Submodule:
    """The least ideal holding gens: their span, grown by each product
    a*x that escapes it.  When alg.mul is torsion-compatible, absorption
    is bilinear and the products of algebra and span generators decide
    it; otherwise every pair of elements is tried."""
    carrier = alg.carrier
    span = Submodule.from_generators(carrier, gens)
    bilinear = alg.mul.well_defined()
    while True:
        pairs = (product(alg.generators(), span.gens) if bilinear
                 else product(alg.elements(), span))
        escaped = next((p for p in (alg.multiply(a, x) for a, x in pairs)
                        if not span.contains(p)), None)
        if escaped is None:
            return span
        span = Submodule.from_generators(carrier, span.gens + (escaped,))


def enumerate_ideals(alg: Algebra) -> list[Submodule]:
    """All ideals, found by closing ideals one generator at a time: every
    ideal is reached from the zero ideal by adding its elements one by
    one.  Sorted by size then by element list, so the order is
    reproducible."""
    carrier = alg.carrier
    zero_ideal = _ideal_closure(alg, [])
    seen = {zero_ideal.form: zero_ideal}
    frontier = [zero_ideal]
    while frontier:
        base = frontier.pop()
        for e in carrier.elements():
            if base.contains(e):
                continue
            grown = _ideal_closure(alg, base.gens + (e,))
            if grown.form not in seen:
                seen[grown.form] = grown
                frontier.append(grown)
    return sorted(seen.values(), key=lambda s: (s.size, s.elements))


def fuzz_cims(modulus: int, max_rank: int, count: int, seed: int = 0):
    """Seeded stream of crossed ideals and their inclusion maps.

    Each draw picks an algebra S, an ideal I, and an ideal J inside I;
    the inclusion J -> I -> S then carries a canonical crossed ideal map.
    The construction lands on valid instances by design.  The ideals of
    an algebra are listed once per run, and the ambient crossed module
    inclusion_xmod(S, I), the ideals inside I and the coordinates of I
    are built once per drawn (algebra, ideal) pair, so every draw on a
    pair shares one ambient.  No draw is validated here: fuzz_report
    validates each one once, so a draw that fails is reported, not drawn
    again.  J is an ideal of S inside I, so every closure that
    sub_crossed_module checks holds and each drawn sub assembles; one
    that did not would reach inclusion_cim and be refused there."""
    rng = random.Random(seed)
    algebras = [a for r in range(1, max_rank + 1)
                for a in enumerate_algebras(modulus, r)]
    ideal_cache: dict[int, list[Submodule]] = {}
    pair_cache: dict[tuple[int, int], tuple] = {}
    out = []
    for n in range(count):
        idx = rng.randrange(len(algebras))
        s_alg = algebras[idx]
        if idx not in ideal_cache:
            ideal_cache[idx] = enumerate_ideals(s_alg)
        ideals = ideal_cache[idx]
        jdx = rng.randrange(len(ideals))
        if (idx, jdx) not in pair_cache:
            big = ideals[jdx]
            ambient = inclusion_xmod(s_alg, big)
            pair_cache[idx, jdx] = (
                ambient, [j for j in ideals if all(map(big.contains, j.gens))],
                {ambient.eta.apply(x): x for x in ambient.r_alg.elements()})
        ambient, inside, coords = pair_cache[idx, jdx]
        small = inside[rng.randrange(len(inside))]

        r_subset = Submodule.from_generators(ambient.r_alg.carrier,
                                             [coords[g] for g in small.gens])
        sx = sub_crossed_module(ambient, r_subset, small, name=f"fuzz{n}")
        out.append((sx, inclusion_cim(sx)))
    return out


def fuzz_report(modulus: int, max_rank: int, count: int, seed: int = 0,
                policy: Policy | None = None) -> Report:
    """Validate every fuzzed instance and its image construction, rolled
    up to one leaf per instance.  This is the one validation of a draw:
    the image of its inclusion map spans the same two subsets as the
    drawn sub crossed module, so the image check is handed that sub and,
    once it has compared the spans, validates it instead of assembling
    the image again."""
    rows = []
    failures = 0
    for sx, cim in fuzz_cims(modulus, max_rank, count, seed):
        ok = (validate_crossed_ideal_map(cim, policy).passed
              and image_crossed_ideal_check(cim, policy, sub=sx).passed)
        failures += 0 if ok else 1
        rows.append(leaf(cim.name, PASS if ok else FAIL, THEOREM,
                         meta={"r_size": cim.morphism.source.r_alg.carrier.size,
                               "s_size": cim.morphism.target.s_alg.carrier.size}))
    summary = leaf("fuzz-summary", PASS if failures == 0 else FAIL, THEOREM,
                   detail="inclusion maps of fuzzed ideal chains, validated "
                          "and pushed through the image construction",
                   meta={"modulus": modulus, "max_rank": max_rank,
                         "count": count, "seed": seed, "failures": failures})
    return group(f"cim-fuzz m={modulus} rank<={max_rank}", [summary] + rows)


def enumeration_report(modulus: int, max_rank: int,
                       policy: Policy | None = None) -> Report:
    """Counting report: algebras per rank, then crossed module candidates
    over every algebra pair, split into valid and invalid."""
    checks = []
    per_rank = {}
    for r in range(max_rank + 1):
        algs = enumerate_algebras(modulus, r)
        per_rank[r] = algs
        checks.append(leaf(f"algebras @ rank {r}", NOTE, None,
                           meta={"count": len(algs)}))
    total = valid_count = 0
    for r_alg in (a for algs in per_rank.values() for a in algs):
        for s_alg in (a for algs in per_rank.values() for a in algs):
            valid, invalid = classify_xmods(r_alg, s_alg, policy)
            total += len(valid) + len(invalid)
            valid_count += len(valid)
    checks.append(leaf("xmod-candidates", NOTE, None,
                       meta={"total": total, "valid": valid_count,
                             "invalid": total - valid_count}))
    return group(f"enumerate m={modulus} rank<={max_rank}", checks)
