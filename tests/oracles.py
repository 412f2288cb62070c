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
the subset by its elements, which core.Submodule holds as a Howell form
instead.  quotient_oracle takes each coset representative as the least
sum x + i over the elements i of the ideal.
"""

from idealbar.core import (Algebra, AlgebraHom, BilinearMap, FiniteModule,
                           ModuleHom, Submodule, _coordinates,
                           decompose_abelian, direct_sum)


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
    act = xm.action.apply
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
    return Submodule(ambient, seen)


def kernel_oracle(f):
    """The elements of the domain that f sends to zero."""
    zero = f.codomain.zero
    return Submodule(f.domain,
                     [x for x in f.domain.elements() if f.apply(x) == zero])


def quotient_oracle(alg, ideal):
    """The quotient of alg by an ideal, each class represented by the
    least x + i over the elements i of the ideal."""
    amb = alg.carrier
    rep = {x: min(amb.add(x, i) for i in ideal.elements)
           for x in amb.elements()}
    reps = sorted(set(rep.values()))

    def add_q(a, b):
        return rep[amb.add(a, b)]

    orders, gens = decompose_abelian(reps, add_q, rep[amb.zero])
    carrier = FiniteModule(amb.modulus, orders)
    coords = _coordinates(orders, gens, add_q, rep[amb.zero], reps)
    constants = [[coords[rep[alg.multiply(gi, gj)]] for gj in gens]
                 for gi in gens]
    quot = Algebra(carrier, BilinearMap(carrier, carrier, carrier, constants),
                   name=f"{alg.name}/I" if alg.name else "quotient")
    images = [coords[rep[g]] for g in amb.generators()]
    return quot, AlgebraHom(alg, quot, ModuleHom(amb, carrier, images),
                            name="projection")
