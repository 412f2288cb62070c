"""Element-arithmetic oracles for the products and maps that the package
assembles from structure constants and image matrices.

product_formula is the closed form of the bar level product, which
core.semidirect_power assembles as a tensor, and bibar_multiply the
componentwise bilevel product, which BiBar.algebra assembles
block-diagonally.  The maps between bar levels (faces, degeneracies,
eta_k, the embedding of S, the comparison maps phi_n, the bibar
vertical operators and the two semidirect-criterion homs) are element
functions evaluated on every generator, which core.block_hom replaces
by block routes.  Only the differential tests call them.

The oracles cut flat tuples into blocks with their own rank offsets
(split and join below), never with the FiniteModule.split and inject
whose layout they check.

span_oracle closes a generator list under addition breadth first and
kernel_oracle applies a hom to every element of its domain; both return
the sorted elements of a subgroup that core.Submodule holds as a Howell
form instead.  swept_leaf is the element sweep that policy.check decides
on generator tuples, and the oracle of every clause it decides on maps:
the leaf of policy.sweep over every element tuple.  counted_sweeps
records the sweeps the package makes, so that a test can show that a
clause on a map that is not well defined sweeps nothing.  absorption_oracle
sweeps the absorption clause of core.is_ideal over the elements of a
subset, and addition_violation_oracle scans the pairs
of a listed subset for the least one whose sum is not listed, where a
workspace compares the size of the span with the listing.  howell_oracle computes that form rewriting every earlier row
at each new pivot, where core.howell_form skips the rows a pivot leaves
unchanged.  coordinates_oracle lists the coordinates of a subgroup in
cyclic generators, which core.solve finds through the embedding, and
presentation_oracle presents a subalgebra by that table.

ideals_oracle lists the ideals of an algebra closing base + e for every
e outside each ideal found, where enumeration.enumerate_ideals closes
one e per coset.

fuzz_report_oracle decides every draw of the fuzzer on its own, each
draw built anew, where enumeration.fuzz_report decides each distinct
ideal chain once.

workspace loads a shipped file under fixtures/, the one definition of
the worked examples that the command line reads too, and fixture_xmods
lists the valid crossed modules among them.
"""

import random
from contextlib import contextmanager
from itertools import product
from unittest import mock
from math import gcd
from pathlib import Path

import idealbar.crossed_ideal as crossed_ideal
import idealbar.policy as policy_mod
from idealbar.core import (Algebra, AlgebraHom, BilinearMap, FiniteModule,
                           ModuleHom, Submodule, decompose_abelian,
                           direct_sum, image)
from idealbar.policy import sweep
from idealbar.enumeration import (_ideal_closure, enumerate_algebras,
                                  enumerate_ideals)
from idealbar.report import AXIOM, FAIL, PASS, THEOREM, group, leaf
from idealbar.workspace import Workspace
from idealbar.xmod import inclusion_xmod

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def workspace(name):
    """fixtures/<name>.json parsed anew on every call, so that no two
    tests share the lazily cached forms and verdicts of its objects."""
    return Workspace.load(str(FIXTURES / f"{name}.json"))


def fixture_xmods():
    """nilsquare and nilcube, and nilcube again as the inclusion crossed
    module of its ideal (x), built by the generic constructor."""
    nilcube = workspace("nilcube")
    return [workspace("nilsquare").xmod("main"), nilcube.xmod("main"),
            inclusion_xmod(nilcube.algebra("S"),
                           image(nilcube.xmod("main").eta.hom))]


def split(bm, t, n):
    """Level-n element of a TruncatedBarModule as its base and letters."""
    px, pr = bm.x_mod.rank, bm.r_mod.rank
    return t[:px], [t[px + j * pr: px + (j + 1) * pr] for j in range(n)]


def join(x, blocks):
    out = tuple(x)
    for b in blocks:
        out += tuple(b)
    return out


def product_formula(bar, n, u, v):
    """Closed form of the level-n product of a TruncatedBarAlgebra:
    base ss' and j-th letter
    s.b_j + s'.a_j + (a_1+..+a_{j-1}) b_j + a_j (b_1+..+b_j)."""
    xm = bar.xm
    smul = xm.s_alg.multiply
    radd, rmul = xm.r_alg.carrier.add, xm.r_alg.multiply
    act = xm.action.evaluate
    rzero = xm.r_alg.zero
    s, a = split(bar, u, n)
    s2, b = split(bar, v, n)
    out = [smul(s, s2)]
    pa, pb = rzero, rzero
    for j in range(n):
        coord = radd(radd(act(s, b[j]), act(s2, a[j])),
                     radd(rmul(pa, b[j]), rmul(a[j], radd(pb, b[j]))))
        out.append(coord)
        pa, pb = radd(pa, a[j]), radd(pb, b[j])
    return join(out[0], out[1:])


def bibar_split(bb, t, n, m):
    """Bilevel (n, m) element as its base block and m letter blocks."""
    return split(bb.rows[n], t, m)


def bibar_multiply(bb, n, m, u, v):
    """Componentwise product at bilevel (n, m): the level-n product of
    the target bar on the base block and that of the source bar on
    every letter block."""
    xu, wu = bibar_split(bb, u, n, m)
    xv, wv = bibar_split(bb, v, n, m)
    x = bb.bar2.multiply(n, xu, xv)
    ws = [bb.bar1.multiply(n, a, b) for a, b in zip(wu, wv)]
    return join(x, ws)


# ---------------------------------------------------------------------------
# maps between bar levels, one element function each, evaluated on every
# generator of the domain: core.block_hom assembles the same image
# matrices block by block


def _by_elements(dom, cod, fn, name=""):
    return ModuleHom(dom, cod, [fn(g) for g in dom.generators()], name=name)


def face_oracle(bm, n, i):
    """d_i leaving level n of a TruncatedBarModule: d_0 translates the
    base by the first letter, d_n drops the last letter, and the others
    add letter i to letter i - 1."""
    radd = bm.r_mod.add

    def fn(t):
        x, b = split(bm, t, n)
        if i == 0:
            return join(bm.x_mod.add(x, bm.translation.apply(b[0])), b[1:])
        if i == n:
            return join(x, b[:n - 1])
        return join(x, b[:i - 1] + [radd(b[i - 1], b[i])] + b[i + 1:])

    return _by_elements(bm.levels[n], bm.levels[n - 1], fn, f"d{i}@{n}")


def degen_oracle(bm, n, i):
    """s_i leaving level n: a zero letter inserted before letter i."""
    def fn(t):
        x, b = split(bm, t, n)
        return join(x, b[:i] + [bm.r_mod.zero] + b[i:])

    return _by_elements(bm.levels[n], bm.levels[n + 1], fn, f"s{i}@{n}")


def eta_k_oracle(bar, k):
    """(s, a_1..a_k) -> s + eta(a_1 + .. + a_k)."""
    xm = bar.xm
    s_mod = xm.s_alg.carrier

    def fn(t):
        s, blocks = split(bar, t, k)
        acc = xm.r_alg.zero
        for b in blocks:
            acc = xm.r_alg.carrier.add(acc, b)
        return s_mod.add(s, xm.eta.apply(acc))

    return _by_elements(bar.levels[k], s_mod, fn, f"eta{k}")


def embed_s_oracle(bar, k):
    s_mod = bar.xm.s_alg.carrier
    zeros = [bar.r_mod.zero] * k
    return _by_elements(s_mod, bar.levels[k], lambda s: join(s, zeros),
                        "embed-s")


def tail_generators_oracle(bar, k):
    """The generators of R_k: (0, r) for r a generator of R^k."""
    r_tail = direct_sum([bar.r_mod] * k)
    pr = bar.r_mod.rank
    return [bar.embed_r(k, [g[j * pr:(j + 1) * pr] for j in range(k)])
            for g in r_tail.generators()]


def phi_oracle(morphism, n, drop=()):
    """phi_n = alpha2 on the base and alpha1 on every letter, with the
    letters j of the (n, j) in drop sent to zero."""
    src, tgt = morphism.source, morphism.target
    s1m, r1m = src.s_alg.carrier, src.r_alg.carrier
    s2m, r2m = tgt.s_alg.carrier, tgt.r_alg.carrier
    a1, a2 = morphism.alpha1.apply, morphism.alpha2.apply

    def fn(t):
        img = list(a2(t[:s1m.rank]))
        for j in range(n):
            blk = t[s1m.rank + j * r1m.rank: s1m.rank + (j + 1) * r1m.rank]
            img.extend(r2m.zero if (n, j) in drop else a1(blk))
        return tuple(img)

    return _by_elements(direct_sum([s1m] + [r1m] * n),
                        direct_sum([s2m] + [r2m] * n), fn, f"phi@{n}")


def vertical_oracle(bb, n, m, base_op, letter_op, n_out, name):
    """A vertical operator of a BiBar: base_op on the base block and
    letter_op on every letter block of bilevel (n, m)."""
    def fn(t):
        x, ws = split(bb.rows[n], t, m)
        return join(base_op.apply(x), [letter_op.apply(w) for w in ws])

    return _by_elements(bb.level(n, m), bb.rows[n_out].levels[m], fn, name)


def cm1_criterion_oracle(xm):
    """(s, r) -> s + eta(r) from the carrier of S |x R to that of S."""
    s_mod, pr = xm.s_alg.carrier, xm.s_alg.carrier.rank
    dom = direct_sum([s_mod, xm.r_alg.carrier])
    return _by_elements(dom, s_mod,
                        lambda t: s_mod.add(t[:pr], xm.eta.apply(t[pr:])))


def cm2_criterion_oracle(xm):
    """(a, b) -> (eta(a), b) from the carrier of R |x R to that of S |x R."""
    r_mod, pr = xm.r_alg.carrier, xm.r_alg.carrier.rank
    return _by_elements(direct_sum([r_mod, r_mod]),
                        direct_sum([xm.s_alg.carrier, r_mod]),
                        lambda t: xm.eta.apply(t[:pr]) + t[pr:])


# ---------------------------------------------------------------------------
# submodules by their elements: core.Submodule reads membership, size,
# kernels and coset representatives off a Howell form


def ideals_oracle(alg):
    """enumeration.enumerate_ideals closing base + e for every element e
    outside each ideal found."""
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


def span_oracle(ambient, gens):
    """The span of gens, closed under addition breadth first."""
    gens = [ambient.reduce(tuple(g)) for g in gens]
    seen = {ambient.zero, *gens}
    frontier = list(gens)
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = ambient.add(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return tuple(sorted(seen))


def howell_oracle(mod, vectors):
    """core.howell_form by rewriting every form row at each new pivot
    and carrying zero rows to the end of the column."""
    m, width = mod.modulus, mod.rank
    scales = [m // d for d in mod.orders]
    work, form = [[a * s for a, s in zip(v, scales)] for v in vectors], []
    for c in range(width):
        piv, rest = [0] * width, []
        for r in work:  # Euclid gathers the gcd of column c in piv
            while r[c]:
                q = piv[c] // r[c]
                piv, r = r, [(a - q * b) % m for a, b in zip(piv, r)]
            rest.append(r)
        if piv[c]:  # a unit makes the pivot p divide m
            g = gcd(piv[c], m)
            u = pow(piv[c] // g, -1, m // g)
            while gcd(u, m) > 1:
                u += m // g
            piv = [u * a % m for a in piv]
            # rows below then span the elements that are zero up to c
            rest.append([m // g * a % m for a in piv])
            # the entries above the pivot reduced below it
            form = [(j, [(a - row[c] // g * b) % m for a, b in zip(row, piv)])
                    for j, row in form] + [(c, piv)]
        work = [r for r in rest if any(r)]
    return tuple((c, tuple(a // s for a, s in zip(row, scales)))
                 for c, row in form)


def kernel_oracle(f):
    """The elements of the domain that f sends to zero."""
    zero = f.codomain.zero
    return tuple(x for x in f.domain.elements() if f.apply(x) == zero)


def swept_leaf(name, kind, spaces, pred, policy=None, detail=""):
    """The leaf of policy.sweep of pred over the element tuples of
    spaces: a module stands for its elements, a span or a list for the
    elements it lists."""
    res = sweep([s.elements() if callable(getattr(s, "generators", None))
                 else list(s) for s in spaces], pred, policy)
    return leaf(name, PASS if res.ok else FAIL, kind, detail=detail,
                witness=res.witness, meta=res.meta())


@contextmanager
def counted_sweeps():
    """policy.sweep wrapped for the block, which gets the list of the
    spaces of every sweep the package makes; swept_leaf's are not
    counted."""
    calls = []

    def counting(spaces, *args, **kwargs):
        calls.append(spaces)
        return sweep(spaces, *args, **kwargs)

    with mock.patch.object(policy_mod, "sweep", counting):
        yield calls


def absorption_oracle(alg, elements, policy=None):
    """The absorption leaf of core.is_ideal, swept over the elements of
    the subset as a plain list."""
    members = set(elements)
    return swept_leaf("absorption", AXIOM, [alg, list(elements)],
                      lambda a, x: alg.multiply(a, x) in members, policy,
                      detail="a*x stays in the subset for a in the algebra")


def addition_violation_oracle(mod, elements):
    """The least pair (x, y) of the listed elements, both in sorted
    order, whose sum is not listed, or None when the listing is closed
    under addition."""
    listed = sorted(set(elements))
    return next(((x, y) for x in listed for y in listed
                 if mod.add(x, y) not in listed), None)


def coordinates_oracle(orders, gens, add, zero, elements):
    """The coordinates of every element of a subgroup in the cyclic
    generators gens of the given orders, by listing every combination;
    core.solve finds them through the embedding instead."""
    coords = {}
    for tup in product(*(range(d) for d in orders)):
        v = zero
        for c, gen in zip(tup, gens):
            for _ in range(c):
                v = add(v, gen)
        if v in coords:
            raise AssertionError("decomposition is not direct")
        coords[v] = tup
    if len(coords) != len(set(elements)):
        raise AssertionError("decomposition does not span")
    return coords


def presentation_oracle(alg, sub):
    """sub as an algebra of its own, by decompose_abelian and the
    coordinates table: (sub_algebra, embedding, coords)."""
    amb = alg.carrier
    orders, gens = decompose_abelian(list(sub.elements), amb.add, amb.zero)
    carrier = FiniteModule(amb.modulus, orders)
    coords = coordinates_oracle(orders, gens, amb.add, amb.zero, sub.elements)
    constants = [[coords[alg.multiply(gi, gj)] for gj in gens] for gi in gens]
    sub_alg = Algebra(carrier, BilinearMap(carrier, carrier, carrier, constants),
                      name=f"{alg.name}-sub" if alg.name else "sub")
    embed = AlgebraHom(sub_alg, alg, ModuleHom(carrier, amb, gens),
                       name="embed")
    return sub_alg, embed, coords


# ---------------------------------------------------------------------------
# the fuzzer draw by draw: enumeration.fuzz_cims shares the parts of each
# drawn ideal chain between its draws, and fuzz_report decides each chain
# once


def fuzz_cims_oracle(modulus, max_rank, count, seed=0):
    """The draws of enumeration.fuzz_cims, with the fuzzer's random calls
    in its order, each built anew: the ideals of S listed, the ambient
    inclusion_xmod(S, I), the sub spanned by J and its inclusion map."""
    rng = random.Random(seed)
    algebras = [a for r in range(1, max_rank + 1)
                for a in enumerate_algebras(modulus, r)]
    out = []
    for n in range(count):
        s_alg = algebras[rng.randrange(len(algebras))]
        ideals = enumerate_ideals(s_alg)
        big = ideals[rng.randrange(len(ideals))]
        inside = [j for j in ideals if all(map(big.contains, j.gens))]
        small = inside[rng.randrange(len(inside))]
        ambient = inclusion_xmod(s_alg, big)
        coords = {ambient.eta.apply(x): x for x in ambient.r_alg.elements()}
        r_subset = Submodule.from_generators(
            ambient.r_alg.carrier, [coords[g] for g in small.gens])
        sx = crossed_ideal.sub_crossed_module(ambient, r_subset, small,
                                              name=f"fuzz{n}")
        out.append((sx, crossed_ideal.inclusion_cim(sx)))
    return out


def fuzz_chain(cim):
    """The ideal chain J <= I <= S a fuzzed inclusion map comes from, by
    content: the name of S and the Howell forms of I and J in it."""
    mor = cim.morphism
    return (mor.target.s_alg.name, image(mor.target.eta.hom).form,
            image(mor.alpha2.hom).form)


def fuzz_report_oracle(modulus, max_rank, count, seed=0, policy=None):
    """enumeration.fuzz_report validating every draw of fuzz_cims_oracle
    on its own, through the attributes of idealbar.crossed_ideal."""
    rows = []
    failures = 0
    for sx, cim in fuzz_cims_oracle(modulus, max_rank, count, seed):
        ok = (crossed_ideal.validate_crossed_ideal_map(cim).passed
              and crossed_ideal.image_crossed_ideal_check(
                  cim, policy, sub=sx).passed)
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
