"""Exhaustive enumeration at desk scale, and the seeded fuzz pipeline.

Everything here is deterministic: order tuples, tensors and images are
produced in lexicographic order, and the fuzzer draws from a seeded
generator, so two runs with the same arguments list the same objects.
"""

from __future__ import annotations

import random
from itertools import combinations_with_replacement, product
from math import gcd, prod

from .core import (Algebra, AlgebraHom, BilinearMap, FiniteModule, ModuleHom,
                   PreconditionError, Submodule, UnsupportedScaleError,
                   axiom_witnesses, multiplicativity_report, solve,
                   validate_algebra, validate_hom)
from .crossed_ideal import (CrossedIdealMap, SubXMod, XModMorphism,
                            image_crossed_ideal_check, inclusion_cim,
                            sub_crossed_module, validate_crossed_ideal_map)
from .policy import Policy
from .report import FAIL, NOTE, PASS, THEOREM, Report, group, leaf
from .xmod import (CrossedModule, algebra_action_validator,
                   crossed_module_clauses, crossed_module_report,
                   inclusion_xmod)

# the action tensors of one pair of carriers, and the rows of one fuzz
# report: 200,000 rows at m = 4, rank <= 2 peak near 330 MB
MAX_PAIR_ENUM = 200_000
# the crossed module candidates of one pair of algebras: 3^12 = 531,441
# on (Z/3)^2 with itself fits, while the 16.8 M of (Z/4)^2 with itself
# would keep tens of GB of reports
MAX_PAIR_CANDIDATES = 1 << 20


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
    before any is built.  The cells are elements of target, already
    reduced, so each tensor is set from them without the conversion of
    BilinearMap's constructor."""
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
        tensor = object.__new__(BilinearMap)
        tensor._set(left, right, target, tuple(map(tuple, constants)))
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
            if not any(axiom_witnesses(alg)):
                alg.name = f"m{modulus}o{'x'.join(map(str, orders)) or '1'}#{len(out)}"
                out.append(alg)
    return out


def enumerate_homs(dom: Algebra, cod: Algebra) -> list[AlgebraHom]:
    """All multiplicative module homs between two algebras, each
    candidate decided by multiplicativity_report.  A product that is not
    torsion-compatible is no bilinear map, so no hom is multiplicative
    for it, and the list is empty."""
    choices = []
    for d in dom.carrier.orders:
        choices.append([y for y in cod.carrier.elements()
                        if cod.carrier.scale(d, y) == cod.carrier.zero])
    out = []
    for images in product(*choices):
        f = ModuleHom(dom.carrier, cod.carrier, list(images))
        if multiplicativity_report("multiplicativity", f, dom, cod).passed:
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
            out.append(CrossedModule(eta, tensor, name=f"cand{len(out)}"))
    return out


def _check_pair_scale(r_mod: FiniteModule, s_mod: FiniteModule) -> None:
    """Refuse a pair of carriers with more than MAX_PAIR_CANDIDATES
    candidates, bounded with nothing listed: prod gcd(d_i, f_l) module
    homs R -> S, over the orders d_i of R and f_l of S, times
    |R|^(rank S * rank R) tensors S x R -> R."""
    homs = prod(gcd(d, f) for d in r_mod.orders for f in s_mod.orders)
    if homs * r_mod.size ** (s_mod.rank * r_mod.rank) > MAX_PAIR_CANDIDATES:
        raise UnsupportedScaleError(
            "crossed module candidates of a pair exceed the enumeration "
            f"bound of {MAX_PAIR_CANDIDATES}")


def classify_xmods(r_alg: Algebra, s_alg: Algebra,
                   policy: Policy | None = None):
    """Split the candidates of enumerate_xmods, in its order and with its
    names, into valid crossed modules and rejects, each reject paired
    with the report validate_crossed_module gives it.  A pair whose
    carriers allow more than MAX_PAIR_CANDIDATES candidates is refused
    before anything is listed (see _check_pair_scale).

    Each factor of a candidate is validated once: validate_algebra of R
    and of S once per call, validate_hom once per hom eta and the action
    validator once per action tensor, all through the same clauses as
    validate_crossed_module.  The action clauses are built once per call
    and CM1 and CM2 once per eta, so what an eta fixes, such as the
    right sides of CM1, is read once for all its tensors; only CM1 and
    CM2 are then decided per candidate, by reading the tables that their
    eta fills on first use where the maps are well defined.  The rejects
    share the factor reports as nodes of their trees, and, per eta, the
    cm1 and cm2 leaves of one witness, so every returned report is
    read-only; only its root is the candidate's own.  No clause here
    sweeps elements, so policy is not read; it stays for the benchmark
    workloads (perfbench/workloads.py), which pass one."""
    _check_pair_scale(r_alg.carrier, s_alg.carrier)
    return _classify(r_alg, s_alg, enumerate_action_tensors(s_alg, r_alg))


def _classify(r_alg: Algebra, s_alg: Algebra, tensors):
    """classify_xmods on the action tensors of the pair, listed by the
    caller, so that pairs over the same carriers share one list."""
    algebra_reps = [validate_algebra(r_alg), validate_algebra(s_alg)]
    validate_action = algebra_action_validator(s_alg, r_alg)
    actions = [(tensor, validate_action(tensor)) for tensor in tensors]
    valid, invalid = [], []
    for eta in enumerate_homs(r_alg, s_alg):
        hom_rep = validate_hom(eta)
        cm = crossed_module_clauses(eta)
        for act, act_rep in actions:
            xm = CrossedModule(eta, act,
                               name=f"cand{len(valid) + len(invalid)}")
            rep = crossed_module_report(
                xm, [*algebra_reps, hom_rep, act_rep, *cm(act)])
            if rep.passed:
                valid.append(xm)
            else:
                invalid.append((xm, rep))
    return valid, invalid


def all_valid_xmods(modulus: int, max_rank: int) -> list[CrossedModule]:
    """Valid crossed modules over every pair of algebras of rank at most
    max_rank."""
    algebras = [a for r in range(max_rank + 1)
                for a in enumerate_algebras(modulus, r)]
    out = []
    for r_alg in algebras:
        for s_alg in algebras:
            valid, _ = classify_xmods(r_alg, s_alg)
            out.extend(valid)
    return out


def _ideal_closure(alg: Algebra, gens) -> Submodule:
    """The least ideal holding gens: their span, grown by each product
    a*x that escapes it.  alg.mul is torsion-compatible, so absorption
    is bilinear and the products of algebra and span generators decide
    it."""
    carrier = alg.carrier
    span = Submodule.from_generators(carrier, gens)
    while True:
        pairs = product(alg.generators(), span.gens)
        escaped = next((p for p in (alg.multiply(a, x) for a, x in pairs)
                        if not span.contains(p)), None)
        if escaped is None:
            return span
        span = Submodule.from_generators(carrier, span.gens + (escaped,))


def enumerate_ideals(alg: Algebra) -> list[Submodule]:
    """All ideals, found by closing ideals one generator at a time: every
    ideal is reached from the zero ideal by adding its elements one by
    one.  The closure of base + e depends only on the coset of e, so it
    is taken once per nonzero coset, at its least element.  Sorted by
    size then by element list, so the order is reproducible.  A product
    that is not torsion-compatible is refused, as kernel refuses a map
    that is not well defined."""
    if not alg.mul.well_defined():
        raise PreconditionError(
            "enumerate_ideals needs a well-defined product")
    carrier = alg.carrier
    zero_ideal = _ideal_closure(alg, [])
    seen = {zero_ideal.form: zero_ideal}
    frontier = [zero_ideal]
    while frontier:
        base = frontier.pop()
        for e in carrier.elements():
            if e == carrier.zero or base.least_in_coset(e) != e:
                continue
            grown = _ideal_closure(alg, base.gens + (e,))
            if grown.form not in seen:
                seen[grown.form] = grown
                frontier.append(grown)
    return sorted(seen.values(), key=lambda s: (s.size, s.elements))


def _fuzz_chains(modulus: int, max_rank: int, count: int, seed: int):
    """The draws of fuzz_cims, each as (key, sx, cim), where key is the
    drawn index triple of the chain J <= I <= S and sx and cim are the
    chain's own sub crossed module and inclusion map, the same objects
    for every draw of the chain.

    The ideals of an algebra are listed once per call; the ambient
    inclusion_xmod(S, I) and the ideals inside I once per drawn
    (algebra, ideal) pair; and sub_crossed_module and inclusion_cim once
    per drawn chain, J's generators solved through the embedding of I.
    Every cache is keyed on draw indices."""
    rng = random.Random(seed)
    algebras = [a for r in range(1, max_rank + 1)
                for a in enumerate_algebras(modulus, r)]
    ideal_cache: dict[int, list[Submodule]] = {}
    pair_cache: dict[tuple[int, int], tuple] = {}
    chain_cache: dict[tuple[int, int, int], tuple] = {}
    for _ in range(count):
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
                ambient, [j for j in ideals if all(map(big.contains, j.gens))])
        ambient, inside = pair_cache[idx, jdx]
        key = (idx, jdx, rng.randrange(len(inside)))
        if key not in chain_cache:
            small = inside[key[2]]
            r_subset = Submodule.from_generators(
                ambient.r_alg.carrier,
                [solve(ambient.eta.hom, g) for g in small.gens])
            base = sub_crossed_module(ambient, r_subset, small)
            chain_cache[key] = base, inclusion_cim(base)
        yield key, *chain_cache[key]


def fuzz_cims(modulus: int, max_rank: int, count: int, seed: int = 0):
    """Seeded stream of crossed ideals and their inclusion maps, as a
    list of (sx, cim) pairs.

    Each draw picks an algebra S, an ideal I, and an ideal J inside I;
    the inclusion J -> I -> S then carries a canonical crossed ideal map.
    The construction lands on valid instances by design.  Draws of one
    chain share its ambient crossed module, its assembled sub and its
    inclusion map (see _fuzz_chains); draw n gets its own sx and cim
    named fuzz{n} and incl-fuzz{n}, thin shells over the parts of its
    chain: eta, the action, mu, nu and the spans of the sub, and the two
    action tensors and h of the map.  No draw is validated here:
    fuzz_report validates each chain once, so a draw that fails is
    reported, not drawn again.  J is an ideal of S inside I, so every
    closure that sub_crossed_module checks holds and each drawn sub
    assembles; one that did not would reach inclusion_cim and be refused
    there."""
    out = []
    for n, (_, base, incl) in enumerate(
            _fuzz_chains(modulus, max_rank, count, seed)):
        name = f"fuzz{n}"
        sub = CrossedModule(base.sub.eta, base.sub.action, name=name)
        sx = SubXMod(base.ambient, sub, base.mu, base.nu, base.r_subset,
                     base.s_subset, name=name)
        mor = XModMorphism(sub, base.ambient, base.mu, base.nu,
                           name=f"incl-{name}")
        out.append((sx, CrossedIdealMap(
            mor, incl.alpha1_xmod.action, incl.alpha2_xmod.action, incl.h,
            name=f"incl-{name}")))
    return out


def fuzz_report(modulus: int, max_rank: int, count: int, seed: int = 0,
                policy: Policy | None = None) -> Report:
    """Validate every fuzzed instance and its image construction, rolled
    up to one leaf per instance.

    Each distinct drawn chain is decided once, on its first draw, on the
    chain's own sub and inclusion map: every check is deterministic for
    a fixed input and policy, each sampled sweep seeding its own
    Random(policy.seed), and names only label the nodes of a report, so
    every draw n of the chain takes the verdict in its row
    incl-fuzz{n}, the name fuzz_cims gives its map.  The image of an
    inclusion map spans the same two subsets as the drawn sub crossed
    module, so the image check is handed that sub and, once it has
    compared the spans, validates it instead of assembling the image
    again.  A count over MAX_PAIR_ENUM is refused before the first
    draw."""
    if count > MAX_PAIR_ENUM:
        raise UnsupportedScaleError(
            f"fuzz count {count} exceeds the row bound of {MAX_PAIR_ENUM}")
    rows = []
    failures = 0
    verdicts: dict[tuple[int, int, int], bool] = {}
    for n, (key, sx, cim) in enumerate(
            _fuzz_chains(modulus, max_rank, count, seed)):
        if key not in verdicts:
            verdicts[key] = (
                validate_crossed_ideal_map(cim).passed
                and image_crossed_ideal_check(cim, policy, sub=sx).passed)
        ok = verdicts[key]
        failures += 0 if ok else 1
        rows.append(leaf(f"incl-fuzz{n}", PASS if ok else FAIL, THEOREM,
                         meta={"r_size": cim.morphism.source.r_alg.carrier.size,
                               "s_size": cim.morphism.target.s_alg.carrier.size}))
    summary = leaf("fuzz-summary", PASS if failures == 0 else FAIL, THEOREM,
                   detail="inclusion maps of fuzzed ideal chains, validated "
                          "and pushed through the image construction",
                   meta={"modulus": modulus, "max_rank": max_rank,
                         "count": count, "seed": seed, "failures": failures})
    return group(f"cim-fuzz m={modulus} rank<={max_rank}", [summary] + rows)


def enumeration_report(modulus: int, max_rank: int) -> Report:
    """Counting report: algebras per rank, then crossed module candidates
    over every algebra pair, split into valid and invalid.  Every pair
    of carriers is checked against MAX_PAIR_CANDIDATES before the first
    pair is classified, and the action tensors are listed once per pair
    of carriers."""
    checks = []
    by_carrier: dict[FiniteModule, list[Algebra]] = {}
    for r in range(max_rank + 1):
        algs = enumerate_algebras(modulus, r)
        for alg in algs:
            by_carrier.setdefault(alg.carrier, []).append(alg)
        checks.append(leaf(f"algebras @ rank {r}", NOTE, None,
                           meta={"count": len(algs)}))
    for r_mod, s_mod in product(by_carrier, repeat=2):
        _check_pair_scale(r_mod, s_mod)
    total = valid_count = 0
    for (r_mod, r_algs), (s_mod, s_algs) in product(by_carrier.items(),
                                                    repeat=2):
        tensors = enumerate_action_tensors(s_algs[0], r_algs[0])
        for r_alg, s_alg in product(r_algs, s_algs):
            valid, invalid = _classify(r_alg, s_alg, tensors)
            total += len(valid) + len(invalid)
            valid_count += len(valid)
    checks.append(leaf("xmod-candidates", NOTE, None,
                       meta={"total": total, "valid": valid_count,
                             "invalid": total - valid_count}))
    return group(f"enumerate m={modulus} rank<={max_rank}", checks)
