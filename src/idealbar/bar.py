"""Truncated bar construction Bar(S, R) and its level algebras.

Level k of the bar object on an action of R on X is the direct sum of
the base X and k letters R.  The action is a translation, held as its
hom t: R -> X.  Faces act by the action (d_0), by merging neighbouring
letters, or by dropping the last one; degeneracies insert a zero
letter.  Each is the block matrix (core.block_hom) of its letter
index map.  With letters numbered from 0, d_i sends letter j to j when
j < i and to j - 1 otherwise, and s_i sends it to j or to j + 1 the
same way; index -1 is the base, reached through the translation, and an
index past the last letter of the target level drops the letter.

When the action is translation through an algebra hom eta: R -> S,
each level also carries a multiplication

    (s, a_1..a_k)(s', b_1..b_k)
      = (ss', ..., s.b_j + s'.a_j + (a_1+..+a_{j-1}) b_j
                   + a_j (b_1+..+b_j), ...)

realised as the structure-constant tensor of S |x R^k that
core.block_tensor assembles from the constants of S, R and the action.
The closed formula is its oracle in the test suite.  A
TruncatedBarAlgebra is the bar module of that translation together with
these level products.  The simplicial identities and the level
homomorphism clauses read only depth, levels, the operators and the
level algebras, so they also check the columns of a bibar.
"""

from __future__ import annotations

import copy
from functools import partial
from itertools import chain

from .core import (MAX_ENUM, Algebra, AlgebraHom, ModuleHom,
                   PreconditionError, Submodule, UnsupportedScaleError,
                   block_hom, direct_sum, identity_hom, image, is_ideal,
                   kernel, maps_equal_report, multiplicativity_report,
                   semidirect_power, validate_algebra, validate_hom)
from .policy import Policy, check
from .report import (AXIOM, FAIL, PASS, STRUCTURAL, THEOREM, Report, group,
                     leaf, relabel)
from .xmod import CrossedModule, translation_action

DEFAULT_DEPTH = 4


def level_size(x_size: int, r_size: int, n: int) -> int:
    """|X x R^n|, refused above the enumeration bound.  The exponent is
    capped, so a huge n costs nothing: when R has two elements or more,
    R^n is over the bound once n passes the bound's bit length."""
    size = x_size * r_size ** min(n, MAX_ENUM.bit_length())
    if size > MAX_ENUM:
        raise UnsupportedScaleError(
            "bar levels exceed the enumeration bound at this depth")
    return size


class TruncatedBarModule:
    """Levels 0..depth of the bar object of the action of R on X by
    translation through the module hom translation: R -> X, with every
    face and degeneracy inside the truncation, each built as the block
    matrix of its letter index map.  The rows of a bibar are built here
    too, on the translation phi_n."""

    def __init__(self, translation: ModuleHom, depth: int):
        if depth < 1:
            raise PreconditionError("bar truncation depth must be at least 1")
        self.translation = translation
        self.depth = depth
        self.x_mod = translation.codomain
        self.r_mod = translation.domain
        level_size(self.x_mod.size, self.r_mod.size, depth)
        self.levels = [direct_sum([self.x_mod] + [self.r_mod] * n)
                       for n in range(depth + 1)]
        self._faces, self._degens = {}, {}
        for n in range(depth + 1):
            for i in range(n + 1):
                if n:
                    self._faces[n, i] = self._operator(
                        n, n - 1, lambda j: j if j < i else j - 1, f"d{i}@{n}")
                if n < depth:
                    self._degens[n, i] = self._operator(
                        n, n + 1, lambda j: j if j < i else j + 1, f"s{i}@{n}")

    def face(self, n, i) -> ModuleHom:
        return self._faces[(n, i)]

    def degen(self, n, i) -> ModuleHom:
        return self._degens[(n, i)]

    def _operator(self, n, n_out, letter, name) -> ModuleHom:
        """The map from level n to level n_out that keeps the base and
        sends letter j to letter letter(j): into the base through the
        translation when that is -1, and killed when it is n_out or
        more."""
        route = [(0, None)] + [
            (0, self.translation) if t < 0
            else None if t >= n_out else (t + 1, None)
            for t in map(letter, range(n))]
        return block_hom(self.levels[n], self.levels[n_out], route, name)


class TruncatedBarAlgebra(TruncatedBarModule):
    """Bar module of the translation through eta of a crossed-module
    candidate, with level products.

    Level n is semidirect_power(S, R, action, n) on the level carrier of
    the bar module, so its build costs only its cells.  with_level_tensor
    gives the same bar object with one other level product.

    tensors holds every tensor the level products and the closed product
    formulas read: each level tensor, the products of S and R and the
    action tensor.  The bar's product identities hand it to policy.check
    as their maps, so they are decided on generator tuples exactly when
    all of these are torsion-compatible.
    """

    def __init__(self, xm: CrossedModule, depth: int):
        super().__init__(translation_action(xm.eta), depth)
        self.xm = xm
        name = xm.s_alg.name or "S"
        self.algebras = [
            semidirect_power(xm.s_alg, xm.r_alg, xm.action, n,
                             carrier=lvl, name=f"B{n}({name})")
            for n, lvl in enumerate(self.levels)]
        self.tensors = tuple(self.level_tensors()) + (
            xm.s_alg.mul, xm.r_alg.mul, xm.action)

    def with_level_tensor(self, k, tensor) -> "TruncatedBarAlgebra":
        """This bar object with the level-k product replaced by tensor.
        The levels, faces and degeneracies and every other level algebra
        are shared, not rebuilt."""
        other = copy.copy(self)
        other.algebras = list(self.algebras)
        other.algebras[k] = Algebra(self.levels[k], tensor,
                                    name=self.algebras[k].name)
        other.tensors = self.tensors[:k] + (tensor,) + self.tensors[k + 1:]
        return other

    def multiply(self, n, u, v):
        return self.algebras[n].multiply(u, v)

    def embed_s(self, n, s):
        return self.levels[n].inject(0, s)

    def embed_r(self, n, blocks):
        return self.x_mod.zero + tuple(chain.from_iterable(blocks))

    def level_tensors(self):
        return [alg.mul for alg in self.algebras]


def build_bar_algebra(xm: CrossedModule,
                      depth: int = DEFAULT_DEPTH) -> TruncatedBarAlgebra:
    """No validity gate: broken candidates must still build so that the
    verifiers can show where they fail."""
    return TruncatedBarAlgebra(xm, depth)


def verify_simplicial_identities(bar, names=("d", "s", "{}")) -> Report:
    """Face-face, degeneracy-degeneracy and face-degeneracy identities of
    a truncated simplicial module: anything with depth, levels and the
    operators face(n, i) and degen(n, i) leaving level n, such as a bar
    or a bibar row or column.  names holds the face letter, the
    degeneracy letter and the format of the level in the leaf names."""
    n_max = bar.depth
    face, degen = bar.face, bar.degen
    d, s, level = names

    ff = []
    for n in range(2, n_max + 1):
        for j in range(n + 1):
            for i in range(j):
                ff.append(maps_equal_report(
                    f"{d}{i} {d}{j} = {d}{j - 1} {d}{i} @ {level.format(n)}",
                    face(n - 1, i).compose(face(n, j)),
                    face(n - 1, j - 1).compose(face(n, i))))

    ss = []
    for n in range(n_max - 1):
        for j in range(n + 1):
            for i in range(j + 1):
                ss.append(maps_equal_report(
                    f"{s}{i} {s}{j} = {s}{j + 1} {s}{i} @ {level.format(n)}",
                    degen(n + 1, i).compose(degen(n, j)),
                    degen(n + 1, j + 1).compose(degen(n, i))))

    ds = []
    for n in range(n_max):
        at, ident = level.format(n), identity_hom(bar.levels[n])
        for j in range(n + 1):
            for i in range(n + 2):
                lhs = face(n + 1, i).compose(degen(n, j))
                if i in (j, j + 1):
                    ds.append(maps_equal_report(
                        f"{d}{i} {s}{j} = id @ {at}", lhs, ident))
                elif i < j:
                    ds.append(maps_equal_report(
                        f"{d}{i} {s}{j} = {s}{j - 1} {d}{i} @ {at}", lhs,
                        degen(n - 1, j - 1).compose(face(n, i))))
                else:
                    ds.append(maps_equal_report(
                        f"{d}{i} {s}{j} = {s}{j} {d}{i - 1} @ {at}", lhs,
                        degen(n - 1, j).compose(face(n, i - 1))))

    return group("simplicial-identities", [
        group("face-face", ff),
        group("degeneracy-degeneracy", ss),
        group("face-degeneracy", ds),
    ])


def level_homomorphism_clauses(bar, policy: Policy | None = None):
    """Multiplicativity of every face and degeneracy of a truncated
    simplicial algebra (a bar, or a bibar column), in report order, each
    as the levels of its domain and codomain and a callable that checks
    it.  A leaf is named after its operator."""
    algs = bar.algebras
    ops = [(bar.face(n, i), n, n - 1) for n in range(1, bar.depth + 1)
           for i in range(n + 1)]
    ops += [(bar.degen(n, i), n, n + 1) for n in range(bar.depth)
            for i in range(n + 1)]
    for op, n, out in ops:
        yield (n, out), partial(
            multiplicativity_report, f"{op.name} multiplicative", op,
            algs[n], algs[out], policy)


def verify_level_homomorphisms(bar: TruncatedBarAlgebra,
                               policy: Policy | None = None) -> Report:
    return group("level-homomorphisms", [
        run() for _, run in level_homomorphism_clauses(bar, policy)])


def tail_absorption_clauses(bar: TruncatedBarAlgebra,
                            policy: Policy | None = None):
    """The clauses of verify_ideal_axiom in report order, each as the
    levels whose products it reads and a callable that checks it."""
    s_alg = bar.xm.s_alg
    r_mod = bar.r_mod
    x_zero = bar.x_mod.zero
    lvl1 = bar.levels[1]

    def mixed(s, b):  # (s,0)(0,b) at level 1, as its base and its letter
        return lvl1.split(
            bar.multiply(1, lvl1.inject(0, s), lvl1.inject(1, b)))

    yield (1,), partial(check, "mixed-into-tail @ 1", AXIOM, [s_alg, r_mod],
                        lambda s, b: mixed(s, b)[0] == x_zero, policy,
                        detail="(s,0)(0,b) has base coordinate 0",
                        maps=bar.tensors)

    for n in range(1, bar.depth + 1):
        yield (n,), partial(
            check, f"base-subalgebra @ {n}", AXIOM, [s_alg, s_alg],
            lambda a, b, n=n:
            bar.multiply(n, bar.embed_s(n, a), bar.embed_s(n, b))
            == bar.embed_s(n, s_alg.multiply(a, b)), policy,
            maps=bar.tensors)

        tail = direct_sum([r_mod] * n)

        def letterwise(s, t, n=n, tail=tail):
            return bar.multiply(n, bar.embed_s(n, s), bar.embed_r(n, [t])) \
                == bar.embed_r(n, [mixed(s, b)[1] for b in tail.split(t)])

        yield (1, n), partial(
            check, f"mixed-letterwise @ {n}", AXIOM, [s_alg, tail],
            letterwise, policy,
            detail="base times tail is the level-1 letter rule in every letter",
            maps=bar.tensors)


def verify_ideal_axiom(bar: TruncatedBarAlgebra,
                       policy: Policy | None = None) -> Report:
    """The clauses that exhibit the tail as an ideal acted on by the base:

    base-subalgebra   (s,0)(s',0) = (ss',0)
    mixed-into-tail   (s,0)(0,b) has base coordinate 0
    mixed-letterwise  (s,0)(0,b_1..b_n) = (0, s*b_1, .., s*b_n), where
                      s*b is the letter of the level-1 product (s,0)(0,b)

    The letterwise clause ties every level of the tensor family to the
    single bilinear map read off at level 1."""
    return group("tail-absorption", [
        run() for _, run in tail_absorption_clauses(bar, policy)])


def verify_decomposition(bar: TruncatedBarAlgebra, k: int,
                         policy: Policy | None = None) -> Report:
    """Level k splits as the subalgebra S_k = {(s,0)}, a copy of S, plus
    the tail ideal R_k = {(0,r)}: |S_k + R_k| = |S_k| |R_k| = |level|.
    R_k is also the kernel of the chain of top faces down to level 0."""
    s_alg = bar.xm.s_alg
    lvl = bar.levels[k]
    _, *letters = lvl.split(lvl.generators())
    rk = Submodule.from_generators(lvl, [g for gens in letters for g in gens])
    embed = block_hom(s_alg.carrier, lvl, [(0, None)], "embed-s")
    sk = image(embed)

    checks = []
    checks.append(relabel(multiplicativity_report(
        f"sk-subalgebra-isomorphic-to-s @ {k}", embed, s_alg,
        bar.algebras[k], policy), THEOREM))

    rep = relabel(is_ideal(bar.algebras[k], rk, policy), THEOREM)
    rep.name = f"rk-is-ideal @ {k}"
    checks.append(rep)

    # top face at every level, applied from level k down to 0
    comp = bar.face(k, k)
    for j in range(k - 1, 0, -1):
        comp = bar.face(j, j).compose(comp)
    ker = kernel(comp)
    checks.append(leaf(
        f"rk-is-kernel-of-top-face-chain @ {k}",
        PASS if ker == rk else FAIL, THEOREM,
        meta={"kernel_size": ker.size, "tail_size": rk.size}))

    both = Submodule.from_generators(lvl, sk.gens + rk.gens)
    direct = both.size == sk.size * rk.size == lvl.size
    checks.append(leaf(f"direct-sum @ {k}", PASS if direct else FAIL,
                       STRUCTURAL,
                       detail="S_k + R_k spans, S_k meet R_k = 0",
                       meta={"sk": sk.size, "rk": rk.size, "level": lvl.size}))
    return group(f"decomposition @ {k}", checks)


def rk_closed_formulas(bar: TruncatedBarAlgebra, k: int,
                       policy: Policy | None = None) -> Report:
    """Products touching the tail ideal have closed forms; compare them
    with the generic level product."""
    xm = bar.xm
    radd, rmul = xm.r_alg.carrier.add, xm.r_alg.multiply
    act = xm.action.evaluate
    r_tail = direct_sum([xm.r_alg.carrier] * k)

    def tail_product_ok(ta, tb):
        a, b = r_tail.split(ta), r_tail.split(tb)
        expect = []
        pa, pb = xm.r_alg.zero, xm.r_alg.zero
        for j in range(k):
            expect.append(radd(rmul(pa, b[j]), rmul(a[j], radd(pb, b[j]))))
            pa, pb = radd(pa, a[j]), radd(pb, b[j])
        return bar.multiply(k, bar.embed_r(k, a), bar.embed_r(k, b)) \
            == bar.embed_r(k, expect)

    checks = [check(
        f"tail-tail-product @ {k}", THEOREM,
        [r_tail, r_tail], tail_product_ok, policy,
        detail="(0,a)(0,b) has j-th letter (a_1+..+a_{j-1})b_j + a_j(b_1+..+b_j)",
        maps=bar.tensors)]

    def mixed_product_ok(ta, s):
        expect = [act(s, a) for a in r_tail.split(ta)]
        return bar.multiply(k, bar.embed_r(k, [ta]), bar.embed_s(k, s)) \
            == bar.embed_r(k, expect)

    checks.append(check(
        f"tail-base-product @ {k}", THEOREM,
        [r_tail, xm.s_alg], mixed_product_ok, policy,
        detail="(0,a)(s,0) = (0, s.a_1, .., s.a_k)",
        maps=bar.tensors))
    return group(f"tail-ideal-products @ {k}", checks)


def eta_k(bar: TruncatedBarAlgebra, k: int, policy: Policy | None = None):
    """The level-k hom (s, a_1..a_k) -> s + eta(a_1 + .. + a_k) back to S,
    returned together with its validation report."""
    xm = bar.xm
    hom = AlgebraHom(bar.algebras[k], xm.s_alg,
                     block_hom(bar.levels[k], xm.s_alg.carrier,
                               [(0, None)] + [(0, xm.eta.hom)] * k, f"eta{k}"),
                     name=f"eta{k}")
    rep = validate_hom(hom, policy)
    rep.name = f"eta-k @ {k}"
    return hom, rep


def definition_checks(bar: TruncatedBarAlgebra,
                      policy: Policy | None = None) -> Report:
    """The clauses that make a level-product family an ideal simplicial
    structure: valid level algebras, faces and degeneracies that are
    algebra maps, and the absorption axiom.  The perturbation harness
    filters through roundtrip._definition_filter, which runs the same
    clauses, without the unit NOTE, once on the canonical bar and on a
    mutant only those that read the level it changes."""
    algs = [validate_algebra(alg) for alg in bar.algebras]
    for n, rep in enumerate(algs):
        rep.name = f"level-{n}-algebra"
    return group("ideal-structure-definition", [
        group("level-algebras", algs),
        verify_level_homomorphisms(bar, policy),
        verify_ideal_axiom(bar, policy),
    ])


def verify_bar(bar: TruncatedBarAlgebra, policy: Policy | None = None) -> Report:
    checks = [
        verify_simplicial_identities(bar),
        definition_checks(bar, policy),
    ]
    for k in range(1, bar.depth + 1):
        checks.append(verify_decomposition(bar, k, policy))
    for k in range(1, bar.depth + 1):
        checks.append(rk_closed_formulas(bar, k, policy))
    eta_reps = []
    for k in range(1, bar.depth + 1):
        _, rep = eta_k(bar, k, policy)
        eta_reps.append(rep)
    checks.append(group("eta-k-family", eta_reps))
    name = bar.xm.name or "xmod"
    return group(f"bar-verify {name} depth {bar.depth}", checks)
