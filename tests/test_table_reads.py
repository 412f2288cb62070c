"""Checks read off tables, against the walks they replace.

core.combine is the one linear combination: a hom's apply is the
combination of its image rows, and compose keeps the images apply
gives.  multiplicativity_report reads f(c[i][j]) once per distinct cell
value and f(g_i)f(g_j) as combinations of image rows with the columns of
the codomain's product, instead of evaluating a predicate on generator
pairs; so do the four clauses of a crossed module (product
compatibility, actor composition, CM1 and CM2), which also table what
they compute from a cell, column or row and keep one leaf per witness.
torsion_violations and order_violations read only the cells whose
orders allow a violation, and the perturbation harness derives each
mutant from the canonical tensor's changed cells.
The slow forms are kept here as oracles: the coordinate double sum, the
generator-tuple predicate through policy.check, the element sweep of
oracles.swept_leaf, the full (i, j, l) walk, and the rebuild of a
mutant from raw lists.  A clause that reads a map that is not well
defined is the STRUCTURAL policy.non_map_leaf on both paths.  multiplicativity_report is
compared with its oracle on the operators the bar and bibar verifiers
check, on the mutants of the perturbation harness and on drawn algebras.
"""

import random
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import idealbar.core as core_mod
from idealbar.bar import build_bar_algebra, level_homomorphism_clauses
from idealbar.bibar import build_bibar
from idealbar.core import (Algebra, AlgebraHom, BilinearMap, FiniteModule,
                           ModuleHom, identity_hom, multiplicativity_report)
from idealbar.enumeration import (enumerate_action_tensors, enumerate_algebras,
                                  enumerate_homs)
from idealbar.policy import EXHAUSTIVE, Policy, check, non_map_leaf
from idealbar.report import AXIOM
from idealbar.roundtrip import _mutate_tensors
from idealbar.xmod import (CrossedModule, algebra_action_validator,
                           cm1_report, cm2_report, crossed_module_clauses,
                           validate_algebra_action)
from oracles import FIXTURES, counted_sweeps, swept_leaf, workspace

MODULI = [4, 6, 8, 9]
CASES = settings(max_examples=150, deadline=None)


# ---------------------------------------------------------------------------
# oracles


def double_sum(x, images, cod):
    """sum_i x[i] images[i], coordinate by coordinate, reduced once."""
    return tuple(sum(c * img[l] for c, img in zip(x, images)) % f
                 for l, f in enumerate(cod.orders))


def predicate_multiplicativity(name, hom, dom, cod, kind=AXIOM):
    """multiplicativity_report as it was: the predicate f(uv) = f(u)f(v)
    handed to check with the three maps, so a closed gate gives the
    STRUCTURAL leaf and an open one takes the generator pairs.  f is
    applied as the coordinate double sum, so that no combine is shared
    with the path under test."""
    def f(x):
        return double_sum(x, hom.images, hom.codomain)

    rep = check(name, kind, [dom.carrier] * 2,
                lambda u, v: f(dom.multiply(u, v))
                == cod.multiply(f(u), f(v)), (hom, dom.mul, cod.mul),
                detail="f(uv) != f(u)f(v)")
    if rep.passed:
        rep.detail = "f(uv) = f(u)f(v), generator pairs, complete by bilinearity"
        rep.meta["generator_pairs"] = dom.carrier.rank ** 2
    return rep


def predicate_clauses(eta, tensor):
    """The four clauses of the crossed module (eta, tensor) as they were:
    product compatibility, actor composition, cm1 and cm2, each the
    predicate handed to check with the maps it reads."""
    s_alg, r_alg = eta.cod, eta.dom
    act, smul, rmul = tensor.evaluate, s_alg.multiply, r_alg.multiply

    def compat(s, r1, r2):
        lhs = act(s, rmul(r1, r2))
        return lhs == rmul(act(s, r1), r2) and lhs == rmul(r1, act(s, r2))

    return [
        check("product-compatibility", AXIOM, [s_alg, r_alg, r_alg], compat,
              (tensor, r_alg.mul), detail="s.(r1 r2) = (s.r1) r2 = r1 (s.r2)"),
        check("actor-composition", AXIOM, [s_alg, s_alg, r_alg],
              lambda s1, s2, r: act(smul(s1, s2), r) == act(s1, act(s2, r)),
              (tensor, s_alg.mul), detail="(s1 s2).r = s1.(s2.r)"),
        check("cm1", AXIOM, [s_alg, r_alg],
              lambda s, r: eta.apply(act(s, r)) == smul(s, eta.apply(r)),
              (eta.hom, tensor, s_alg.mul), detail="eta(s.r) = s eta(r)"),
        check("cm2", AXIOM, [r_alg, r_alg],
              lambda r1, r2: act(eta.apply(r1), r2) == rmul(r1, r2),
              (eta.hom, tensor, r_alg.mul), detail="eta(r1).r2 = r1 r2"),
    ]


def walked_torsion_violations(tensor):
    d, e, f = tensor.left.orders, tensor.right.orders, tensor.target.orders
    return [(i, j, l)
            for i in range(len(d)) for j in range(len(e))
            for l in range(len(f))
            if d[i] * tensor.constants[i][j][l] % f[l]
            or e[j] * tensor.constants[i][j][l] % f[l]]


def walked_order_violations(hom):
    cod = hom.codomain
    return [i for i, (d, img) in enumerate(zip(hom.domain.orders, hom.images))
            if cod.scale(d, img) != cod.zero]


def rebuilt_mutants(bar, rng):
    """_mutate_tensors as it was: the mutated level rebuilt from raw
    lists of every cell."""
    tensors = bar.level_tensors()
    k = rng.randrange(1, bar.depth + 1)
    lvl = bar.levels[k]
    n = lvl.rank
    raw = [[list(vec) for vec in row] for row in tensors[k].constants]
    for _ in range(rng.randrange(1, 4)):
        i = rng.randrange(n)
        j = rng.randrange(n)
        l = rng.randrange(n)
        cur = raw[i][j][l]
        v = (cur + 1 + rng.randrange(lvl.orders[l] - 1)) % lvl.orders[l]
        raw[i][j][l] = v
        raw[j][i][l] = v
    tensors[k] = BilinearMap(lvl, lvl, lvl, raw)
    return tensors


# ---------------------------------------------------------------------------
# strategies


def module(data, m, max_size, min_rank=1):
    divisors = [d for d in range(2, m + 1) if m % d == 0]
    orders = data.draw(st.lists(st.sampled_from(divisors), min_size=min_rank,
                                max_size=3)
                       .filter(lambda o: prod(o) <= max_size))
    return FiniteModule(m, orders)


def coefficient(data, f, *sources, compatible=True):
    """A coefficient mod f; when compatible, one that every source order
    kills, so the map it sits in stays well defined."""
    step = f // gcd(f, *sources) if compatible else 1
    return step * data.draw(st.integers(0, f // step - 1))


def product_tensor(data, mod, compatible):
    return BilinearMap(mod, mod, mod, [
        [[coefficient(data, f, d, e, compatible=compatible)
          for f in mod.orders] for e in mod.orders] for d in mod.orders])


def redrawn_hom(data, base, compatible):
    """base with up to two image coefficients redrawn, so that a
    multiplicative hom turns into one failing on a few generator pairs."""
    images = [list(img) for img in base.images]
    dom, cod = base.domain, base.codomain
    for _ in range(data.draw(st.integers(0, 2))):
        i = data.draw(st.integers(0, dom.rank - 1))
        l = data.draw(st.integers(0, cod.rank - 1))
        images[i][l] = coefficient(data, cod.orders[l], dom.orders[i],
                                   compatible=compatible)
    return ModuleHom(dom, cod, images)


# ---------------------------------------------------------------------------
# multiplicativity


@given(st.data(), st.sampled_from(MODULI), st.booleans(), st.booleans(),
       st.booleans(), st.booleans())
@CASES
def test_multiplicativity_matches_the_predicate_path(data, m, endo, dom_ok,
                                                     cod_ok, hom_ok):
    # an endomorphism starts from the identity, so passes and failures on
    # a few generator pairs both occur; otherwise both algebras and the
    # hom are drawn outright.  A hom or product that is not well defined
    # closes the gate, and no element is swept
    dom = module(data, m, 36)
    a = Algebra(dom, product_tensor(data, dom, dom_ok))
    if endo:
        b, base = a, identity_hom(dom)
    else:
        cod = module(data, m, 36)
        b = Algebra(cod, product_tensor(data, cod, cod_ok))
        base = ModuleHom(dom, cod, [[0] * cod.rank] * dom.rank)
    f = redrawn_hom(data, base, hom_ok)
    with counted_sweeps() as calls:
        assert multiplicativity_report("mult", f, a, b).to_json() \
            == predicate_multiplicativity("mult", f, a, b).to_json()
    assert calls == []


def test_a_forward_scan_would_give_another_witness():
    # the identity of Z/4 + Z/2 from the zero product to the one where
    # both generators square to themselves fails on (e_1, e_1) and on
    # (e_2, e_2), and the least element witness is the pair of e_2
    mod = FiniteModule(4, [4, 2])
    dom = Algebra(mod, BilinearMap(mod, mod, mod, [[(0, 0)] * 2] * 2))
    cod = Algebra(mod, BilinearMap(mod, mod, mod, [[(1, 0), (0, 0)],
                                                   [(0, 0), (0, 1)]]))
    f = identity_hom(mod)
    rep = multiplicativity_report("mult", f, dom, cod)
    assert rep.witness == ((0, 1), (0, 1))
    assert rep.to_json() == predicate_multiplicativity(
        "mult", f, dom, cod).to_json()


def counting(monkeypatch, cls, attr):
    calls = []
    original = getattr(cls, attr)

    def counted(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(cls, attr, counted)
    return calls


def test_a_passing_hom_costs_one_apply_per_cell_value_and_no_evaluate(
        monkeypatch):
    # f(c[i][j]) is tabled per distinct cell value of dom's product, and
    # f(g_i)f(g_j) is combined from image rows and the columns of cod's
    # product, so no product of elements is evaluated
    bar = build_bar_algebra(workspace("nilcube").xmod("main"), 2)
    face = bar.face(2, 1)
    dom, cod = bar.algebras[2], bar.algebras[1]
    for m in (face, dom.mul, cod.mul):
        assert m.well_defined()
    applies = counting(monkeypatch, core_mod.ModuleHom, "apply")
    evaluates = counting(monkeypatch, core_mod.BilinearMap, "evaluate")
    rep = multiplicativity_report("d1@2", face, dom, cod)
    assert rep.passed
    values = set().union(*dom.mul.constants)
    assert len(values) < dom.carrier.rank ** 2
    assert sorted(args[0] for args in applies) == sorted(values)
    assert evaluates == []


def bar_operators(bar, algebras):
    """The faces and degeneracies whose multiplicativity the bar verifier
    checks, as (name, hom, domain algebra, codomain algebra), the levels'
    algebras taken from algebras."""
    for (n, m), clause in level_homomorphism_clauses(bar):
        name, hom = clause.args[:2]
        yield name, hom, algebras[n], algebras[m]


def assert_multiplicativity_matches(operators):
    """multiplicativity_report equals the predicate path on every
    operator; the statuses seen are returned."""
    statuses = set()
    for name, hom, dom, cod in operators:
        rep = multiplicativity_report(name, hom, dom, cod)
        assert rep.to_json() == predicate_multiplicativity(
            name, hom, dom, cod).to_json()
        statuses.add(rep.status)
    return statuses


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.json")),
                         ids=lambda path: path.stem)
def test_multiplicativity_matches_on_every_bar_operator(path, depth):
    bar = build_bar_algebra(workspace(path.stem).xmod("main"), depth)
    assert assert_multiplicativity_matches(
        bar_operators(bar, bar.algebras))


def test_multiplicativity_matches_on_every_vertical_bibar_operator():
    bb = build_bibar(workspace("nilcube").morphism("incl"), 3, 2)
    operators = []
    for m in range(bb.m_depth + 1):
        for n in range(1, bb.n_depth + 1):
            operators += [(f"dv{i}@({n},{m})", bb.v_face(n, m, i),
                           bb.algebra(n, m), bb.algebra(n - 1, m))
                          for i in range(n + 1)]
        for n in range(bb.n_depth):
            operators += [(f"sv{i}@({n},{m})", bb.v_degen(n, m, i),
                           bb.algebra(n, m), bb.algebra(n + 1, m))
                          for i in range(n + 1)]
    assert len(operators) == 3 * (9 + 6)
    assert assert_multiplicativity_matches(operators) == {"PASS"}


@pytest.mark.parametrize("fixture,depth", [("nilcube", 3), ("broken_z4", 2)])
def test_multiplicativity_matches_on_mutated_levels(fixture, depth):
    # each mutant replaces one level's product, so the operators into
    # and out of that level read it; mutants over Z/4 may break torsion,
    # and then both paths give the STRUCTURAL leaf
    bar = build_bar_algebra(workspace(fixture).xmod("main"), depth)
    statuses = set()
    for seed in range(20):
        k, cells = _mutate_tensors(bar, random.Random(seed))
        algebras = list(bar.algebras)
        algebras[k] = Algebra(bar.levels[k],
                              algebras[k].mul.with_cells(cells))
        statuses |= assert_multiplicativity_matches(
            op for op in bar_operators(bar, algebras)
            if algebras[k] in (op[2], op[3]))
    assert statuses == {"PASS", "FAIL"}


def test_a_noncommutative_codomain_is_multiplied_in_order():
    # in the codomain g_1 g_2 = g_1 while g_2 g_1 = 0, so the identity
    # from the zero product fails at (g_1, g_2) alone, whose element
    # witness is (e_1, e_2); multiplying in the other order would fail
    # at (e_2, e_1)
    mod = FiniteModule(2, [2, 2])
    dom = Algebra(mod, zero_tensor(mod, mod, mod))
    cod = Algebra(mod, BilinearMap(mod, mod, mod, [[(0, 0), (1, 0)],
                                                   [(0, 0), (0, 0)]]))
    f = identity_hom(mod)
    rep = multiplicativity_report("mult", f, dom, cod)
    assert rep.witness == ((1, 0), (0, 1))
    assert rep.to_json() == predicate_multiplicativity(
        "mult", f, dom, cod).to_json()


# ---------------------------------------------------------------------------
# apply and compose


def coefficients(data, m, count):
    """count integers, drawn also outside [0, m) and below zero."""
    return [data.draw(st.integers(-2 * m, 2 * m)) for _ in range(count)]


@given(st.data(), st.sampled_from(MODULI))
@CASES
def test_apply_is_the_coordinate_double_sum(data, m):
    dom, cod = module(data, m, 72, 0), module(data, m, 72, 0)
    hom = ModuleHom(dom, cod, [coefficients(data, m, cod.rank)
                               for _ in dom.orders])
    x = coefficients(data, m, dom.rank)
    out = hom.apply(x)
    assert type(out) is tuple and cod.contains(out)
    assert out == double_sum(x, hom.images, cod)
    if not dom.rank or not cod.rank:
        assert out == cod.zero


@given(st.data(), st.sampled_from(MODULI))
@CASES
def test_compose_equals_the_reducing_constructor(data, m):
    dom, mid, cod = (module(data, m, 72, 0) for _ in range(3))
    inner = ModuleHom(dom, mid, [coefficients(data, m, mid.rank)
                                 for _ in dom.orders])
    outer = ModuleHom(mid, cod, [coefficients(data, m, cod.rank)
                                 for _ in mid.orders])
    composite = outer.compose(inner)
    rebuilt = ModuleHom(dom, cod, [
        [sum(c * img[l] for c, img in zip(x, outer.images))
         for l in range(cod.rank)] for x in inner.images])
    assert composite.images == rebuilt.images
    assert composite == rebuilt and hash(composite) == hash(rebuilt)
    assert all(type(img) is tuple for img in composite.images)
    if outer.well_defined():  # then reducing inner's image first is free
        x = coefficients(data, m, dom.rank)
        assert composite.apply(x) == outer.apply(inner.apply(x))


# ---------------------------------------------------------------------------
# crossed-module clauses


def json_leaves(reports):
    return [rep.to_json() for rep in reports]


def assert_clauses_match(eta, tensors):
    """Every route to the four clauses of (eta, tensor) gives the leaves
    of the predicate path: validate_algebra_action with cm1_report and
    cm2_report, and the functions classify_xmods builds once per pair of
    algebras and once per eta."""
    s_alg, r_alg = eta.cod, eta.dom
    validate = algebra_action_validator(s_alg, r_alg)
    cm = crossed_module_clauses(eta)
    for tensor in tensors:
        oracle = json_leaves(predicate_clauses(eta, tensor))
        xm = CrossedModule(eta, tensor)
        act = validate_algebra_action(xm)
        assert json_leaves(act.checks[2:] + [cm1_report(xm),
                                             cm2_report(xm)]) == oracle
        assert json_leaves(validate(tensor).checks[2:] + cm(tensor)) == oracle


def assert_candidates_match(r_alg, s_alg):
    tensors = enumerate_action_tensors(s_alg, r_alg)
    for eta in enumerate_homs(r_alg, s_alg):
        assert_clauses_match(eta, tensors)


@pytest.mark.parametrize("modulus", [3, 4, 6, 8, 9])
def test_clauses_match_on_every_candidate_of_rank_at_most_one(modulus):
    # rank-0 factors included: their clauses pass with checked the
    # product of the sizes
    algs = [a for rank in (0, 1) for a in enumerate_algebras(modulus, rank)]
    for r_alg in algs:
        for s_alg in algs:
            assert_candidates_match(r_alg, s_alg)


RANK_TWO = enumerate_algebras(2, 2)


@pytest.mark.parametrize("pair", random.Random(23).sample(
    [(r, s) for r in range(len(RANK_TWO)) for s in range(len(RANK_TWO))], 12),
    ids=str)
def test_clauses_match_on_the_candidates_of_rank_two_pairs(pair):
    assert_candidates_match(RANK_TWO[pair[0]], RANK_TWO[pair[1]])


def zero_tensor(left, right, target):
    return BilinearMap(left, right, target,
                       [[target.zero] * right.rank] * left.rank)


def drawn_algebra(data, mod, compatible):
    mul = (product_tensor(data, mod, compatible) if data.draw(st.booleans())
           else zero_tensor(mod, mod, mod))
    return Algebra(mod, mul)


def redrawn_tensor(data, base, compatible):
    """base with up to two cell coefficients redrawn."""
    rows = [[list(cell) for cell in row] for row in base.constants]
    left, right, target = base.left, base.right, base.target
    for _ in range(data.draw(st.integers(0, 2))):
        i = data.draw(st.integers(0, left.rank - 1))
        j = data.draw(st.integers(0, right.rank - 1))
        l = data.draw(st.integers(0, target.rank - 1))
        rows[i][j][l] = coefficient(data, target.orders[l], left.orders[i],
                                    right.orders[j], compatible=compatible)
    return BilinearMap(left, right, target, rows)


@given(st.data(), st.sampled_from(MODULI), st.booleans(), st.booleans(),
       st.booleans(), st.booleans())
@CASES
def test_crossed_module_clauses_match_the_predicate_path(
        data, m, endo, mul_ok, eta_ok, act_ok):
    # the identity crossed module of an algebra, acting on itself by its
    # product, passes every clause when the product is a zero or a
    # commutative associative one, and fails a few generator tuples once
    # eta or the tensor is redrawn; otherwise S, R, eta and the tensor
    # are drawn outright.  A product, hom or tensor that is not well
    # defined closes the gate, and the clauses that read it are the
    # STRUCTURAL leaf
    s_mod = module(data, m, 12)
    s_alg = drawn_algebra(data, s_mod, mul_ok)
    if endo:
        r_alg, base_eta, base_act = s_alg, identity_hom(s_mod), s_alg.mul
    else:
        r_mod = module(data, m, 12)
        r_alg = drawn_algebra(data, r_mod, mul_ok)
        base_eta = ModuleHom(r_mod, s_mod, [s_mod.zero] * r_mod.rank)
        base_act = zero_tensor(s_mod, r_mod, r_mod)
    eta = AlgebraHom(r_alg, s_alg, redrawn_hom(data, base_eta, eta_ok))
    tensor = redrawn_tensor(data, base_act, act_ok)
    assert_clauses_match(eta, [tensor])


def test_a_failing_clause_takes_the_least_element_witness():
    # S = R = Z/2 + Z/2 with the zero product and eta the identity: the
    # tensor with c[0][1] = e_1 and c[1][0] = e_2 fails cm1 at (s_1, r_2)
    # and at (s_2, r_1), and e_2 < e_1, so the witness is (e_2, e_1)
    mod = FiniteModule(2, [2, 2])
    alg = Algebra(mod, zero_tensor(mod, mod, mod))
    eta = AlgebraHom(alg, alg, identity_hom(mod))
    tensor = BilinearMap(mod, mod, mod, [[(0, 0), (1, 0)], [(0, 1), (0, 0)]])
    cm1, cm2 = crossed_module_clauses(eta)(tensor)
    assert (cm1.status, cm1.witness) == ("FAIL", ((0, 1), (1, 0)))
    assert cm1.meta == {"mode": EXHAUSTIVE, "checked": 16}
    assert json_leaves([cm1, cm2]) == json_leaves(
        predicate_clauses(eta, tensor)[2:])


def test_a_candidate_decided_on_tables_makes_no_element_call(monkeypatch):
    # with every map well defined, the clauses read cells and make no
    # evaluate or apply call, whatever the verdicts
    r_alg, s_alg = RANK_TWO[3], RANK_TWO[5]
    etas = enumerate_homs(r_alg, s_alg)
    tensors = enumerate_action_tensors(s_alg, r_alg)
    validate = algebra_action_validator(s_alg, r_alg)
    clauses = [crossed_module_clauses(eta) for eta in etas]
    applies = counting(monkeypatch, core_mod.ModuleHom, "apply")
    evaluates = counting(monkeypatch, core_mod.BilinearMap, "evaluate")
    verdicts = {rep.status for tensor in tensors
                for rep in [*validate(tensor).checks,
                            *(leaf for cm in clauses for leaf in cm(tensor))]}
    assert verdicts == {"PASS", "FAIL"}
    assert (applies, evaluates) == ([], [])


@pytest.mark.parametrize("r_rank,s_rank", [(0, 0), (0, 1), (1, 0), (0, 2),
                                           (2, 0)])
def test_clauses_match_on_rank_zero_factors(r_rank, s_rank):
    # a rank-0 S gives a tensor with no rows, yet one empty column per
    # generator of R; a rank-0 R gives no column and no generator pair
    r_algs, s_algs = (enumerate_algebras(4, rank) for rank in (r_rank, s_rank))
    for r_alg in r_algs:
        for s_alg in s_algs:
            tensors = enumerate_action_tensors(s_alg, r_alg)
            for tensor in tensors:
                assert len(tensor.columns()) == r_rank
                assert all(len(col) == s_rank for col in tensor.columns())
            for eta in enumerate_homs(r_alg, s_alg):
                assert_clauses_match(eta, tensors)


def test_clause_tables_are_kept_per_eta():
    # S = R = Z/2 + Z/2 with the zero product, so every module hom is an
    # algebra hom; the identity, the swap of the generators and the
    # projection onto e_1 read the same cells and columns of one tensor
    # list, yet give other cm1 and cm2 witnesses
    mod = FiniteModule(2, [2, 2])
    alg = Algebra(mod, zero_tensor(mod, mod, mod))
    etas = [AlgebraHom(alg, alg, ModuleHom(mod, mod, images))
            for images in ([(1, 0), (0, 1)], [(0, 1), (1, 0)],
                           [(1, 0), (0, 0)])]
    tensors = enumerate_action_tensors(alg, alg)
    for eta in etas:
        assert_clauses_match(eta, tensors)
    witnesses = [[[leaf.witness for leaf in crossed_module_clauses(eta)(t)]
                  for t in tensors] for eta in etas]
    for clause in (0, 1):
        assert any(len({w[clause] for w in per_eta}) > 1
                   for per_eta in zip(*witnesses))


def swept_action_leaves(s_alg, r_alg, tensor):
    """The torsion, product-compatibility and actor-composition leaves
    of an action as the full walk and an exhaustive element sweep of
    each predicate give them, with no generator decision; a clause whose
    tensor or product is not well defined is the STRUCTURAL leaf."""
    exact = Policy(mode=EXHAUSTIVE)
    act, smul, rmul = tensor.evaluate, s_alg.multiply, r_alg.multiply

    def compat(s, r1, r2):
        lhs = act(s, rmul(r1, r2))
        return lhs == rmul(act(s, r1), r2) and lhs == rmul(r1, act(s, r2))

    def swept(name, spaces, pred, mul):
        if tensor.well_defined() and mul.well_defined():
            return swept_leaf(name, AXIOM, spaces, pred, exact)
        return non_map_leaf(name)

    walked = walked_torsion_violations(tensor)
    return [
        ("torsion-compatibility", "FAIL" if walked else "PASS",
         walked[0] if walked else None, {}),
        *((rep.name, rep.status, rep.witness, rep.meta) for rep in (
            swept("product-compatibility", [s_alg, r_alg, r_alg], compat,
                  r_alg.mul),
            swept("actor-composition", [s_alg, s_alg, r_alg],
                  lambda s1, s2, r: act(smul(s1, s2), r)
                  == act(s1, act(s2, r)), s_alg.mul)))]


def drawn_action(data, m, mul_ok):
    """S and R, drawn outright or R = S, and a tensor S x R -> R to
    redraw: the zero tensor, or the product of S when R = S, which is an
    action whenever that product is commutative and associative."""
    s_alg = drawn_algebra(data, module(data, m, 12), mul_ok)
    if data.draw(st.booleans()):
        return s_alg, s_alg, s_alg.mul
    r_alg = drawn_algebra(data, module(data, m, 12), mul_ok)
    return s_alg, r_alg, zero_tensor(s_alg.carrier, r_alg.carrier,
                                     r_alg.carrier)


@given(st.data(), st.sampled_from(MODULI), st.booleans(), st.booleans())
@CASES
def test_tabled_action_leaves_match_the_exhaustive_element_sweep(
        data, m, mul_ok, act_ok):
    # one validator over a few redrawn tensors, some breaking torsion
    # when act_ok is false: the shared torsion leaf and the tabled
    # product-compatibility and actor-composition leaves carry the
    # status, witness and meta of the full walk and of the exhaustive
    # sweep of the element predicates, or are the STRUCTURAL leaf of a
    # tensor or product that is not well defined, with nothing swept
    s_alg, r_alg, base = drawn_action(data, m, mul_ok)
    validate = algebra_action_validator(s_alg, r_alg)
    for _ in range(3):
        tensor = redrawn_tensor(data, base, act_ok)
        with counted_sweeps() as calls:
            got = validate(tensor).checks
        assert calls == []
        assert got[1].name == "k-bilinearity"
        assert [(c.name, c.status, c.witness, c.meta)
                for c in got[:1] + got[2:]] \
            == swept_action_leaves(s_alg, r_alg, tensor)


@given(st.data(), st.sampled_from(MODULI), st.booleans(), st.booleans())
@CASES
def test_one_validator_agrees_with_a_fresh_one_per_tensor(data, m, mul_ok,
                                                          act_ok):
    # a validator fed a stream of tensors, repeats included, keeps its
    # tables and leaves across them, yet reports each tensor as a
    # validator built for it alone does
    s_alg, r_alg, base = drawn_action(data, m, mul_ok)
    pool = [redrawn_tensor(data, base, act_ok) for _ in range(3)]
    stream = [pool[i] for i in data.draw(
        st.lists(st.integers(0, 2), min_size=1, max_size=8))]
    shared = algebra_action_validator(s_alg, r_alg)
    assert [shared(t).to_json() for t in stream] == [
        algebra_action_validator(s_alg, r_alg)(t).to_json() for t in stream]


def transpose(tensor):
    return tuple(tuple(row[j] for row in tensor.constants)
                 for j in range(tensor.right.rank))


@given(st.data(), st.sampled_from(MODULI))
@CASES
def test_columns_are_the_nested_transpose(data, m):
    # either side may have rank 0: no row still gives one empty column
    # per right generator, and no right generator gives no column.  A
    # mutant starts from its own cells, not from its parent's columns
    left, right, target = (module(data, m, 72, min_rank=0)
                           for _ in range(3))
    tensor = BilinearMap(left, right, target, [
        [[coefficient(data, f, compatible=False) for f in target.orders]
         for _ in right.orders] for _ in left.orders])
    assert tensor.columns() == transpose(tensor)
    assert len(tensor.columns()) == right.rank
    if not (left.rank and right.rank):
        return
    cells = {(data.draw(st.integers(0, left.rank - 1)),
              data.draw(st.integers(0, right.rank - 1))):
             [coefficient(data, f, compatible=False) for f in target.orders]}
    mutant = tensor.with_cells(cells)
    assert mutant.columns() == transpose(mutant)
    assert tensor.columns() == transpose(tensor)


def test_torsion_breaking_tensors_fail_structural_and_share_one_leaf():
    # over Z/4 + Z/2, a cell of order 4 in a Z/2 row breaks torsion, so
    # each clause is the STRUCTURAL leaf, kept once per clause, as a
    # table-decided leaf is kept once per witness
    mod = FiniteModule(4, [4, 2])
    alg = Algebra(mod, zero_tensor(mod, mod, mod))
    eta = AlgebraHom(alg, alg, identity_hom(mod))
    broken = BilinearMap(mod, mod, mod, [[(0, 0), (0, 0)], [(1, 0), (0, 0)]])
    sound = BilinearMap(mod, mod, mod, [[(0, 0), (0, 0)], [(2, 0), (0, 0)]])
    assert sound.well_defined() and not broken.well_defined()
    assert_clauses_match(eta, [broken, sound, broken, sound])
    validate = algebra_action_validator(alg, alg)
    cm = crossed_module_clauses(eta)
    for tensor in (broken, sound):
        with counted_sweeps() as calls:
            first = validate(tensor).checks[2:] + cm(tensor)
            again = validate(tensor).checks[2:] + cm(tensor)
        assert calls == []
        assert json_leaves(first) == json_leaves(again)
        assert all(a is b for a, b in zip(first, again))
    assert json_leaves(validate(broken).checks[2:] + cm(broken)) \
        == json_leaves(map(non_map_leaf, ("product-compatibility",
                                          "actor-composition", "cm1", "cm2")))


# ---------------------------------------------------------------------------
# torsion and order compatibility


@given(st.data(), st.sampled_from(MODULI), st.booleans())
@CASES
def test_torsion_violations_match_the_full_walk(data, m, compatible):
    left, right, target = (module(data, m, 72) for _ in range(3))
    tensor = BilinearMap(left, right, target, [
        [[coefficient(data, f, d, e, compatible=compatible)
          for f in target.orders] for e in right.orders] for d in left.orders])
    walked = walked_torsion_violations(tensor)
    assert list(tensor.torsion_violations()) == walked
    assert next(tensor.torsion_violations(), None) \
        == (walked[0] if walked else None)
    assert tensor.well_defined() == (not walked)
    if compatible:
        assert not walked


@given(st.data(), st.sampled_from(MODULI))
@CASES
def test_order_violations_match_the_full_walk(data, m):
    dom, cod = module(data, m, 72), module(data, m, 72)
    hom = ModuleHom(dom, cod, [[data.draw(st.integers(0, f - 1))
                                for f in cod.orders] for _ in dom.orders])
    walked = walked_order_violations(hom)
    assert hom.order_violations() == walked
    assert hom.well_defined() == (not walked)


class Unreadable:
    def __getitem__(self, index):
        raise AssertionError(f"cell {index} was read")

    def __iter__(self):
        raise AssertionError("the cells were read")


@pytest.mark.parametrize("modulus,orders", [(2, [2, 2, 2]), (4, [4, 4]),
                                            (9, [9, 9, 9])])
def test_equal_orders_decide_without_reading_a_cell(modulus, orders):
    mod = FiniteModule(modulus, orders)
    ones = [1] * mod.rank
    tensor = BilinearMap(mod, mod, mod, [[ones] * mod.rank] * mod.rank)
    tensor.constants = Unreadable()
    assert tensor.well_defined()
    assert next(tensor.torsion_violations(), None) is None
    hom = ModuleHom(mod, mod, [ones] * mod.rank)
    hom.images = Unreadable()
    assert hom.well_defined()


def test_only_the_cells_an_order_allows_are_read():
    # over Z/4 + Z/2 with target Z/4 + Z/2, a violation needs gcd(d_i,
    # e_j) = 2 and l = 0, so the cells (i, j) with i = j = 0 are not read
    mod = FiniteModule(4, [4, 2])
    read = []

    class Row(tuple):
        def __getitem__(self, j):
            read.append((self.i, j))
            return tuple.__getitem__(self, j)

    tensor = BilinearMap(mod, mod, mod, [[(2, 1)] * 2] * 2)
    rows = []
    for i, row in enumerate(tensor.constants):
        rows.append(Row(row))
        rows[-1].i = i
    tensor.constants = tuple(rows)
    assert list(tensor.torsion_violations()) == []
    assert read == [(0, 1), (1, 0), (1, 1)]


# ---------------------------------------------------------------------------
# mutants from changed cells


@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("fixture", ["nilcube", "broken_z4"])
def test_derived_mutants_equal_the_rebuild(fixture, depth):
    xm = workspace(fixture).xmod("main")
    canonical = build_bar_algebra(xm, depth)
    base = canonical.level_tensors()
    for seed in range(200):
        rng_new, rng_old = random.Random(seed), random.Random(seed)
        k, cells = _mutate_tensors(canonical, rng_new)
        tensor = base[k].with_cells(cells)
        old = rebuilt_mutants(canonical, rng_old)
        assert rng_new.getstate() == rng_old.getstate()
        new = base[:k] + [tensor] + base[k + 1:]
        for t_new, t_old, t_base in zip(new, old, base):
            assert t_new.constants == t_old.constants
            assert t_new == t_old and hash(t_new) == hash(t_old)
            if t_new is not t_base:
                assert sum(r is not b for r, b in zip(
                    t_new.constants, t_base.constants)) <= 6
        assert sum(t is not b for t, b in zip(new, base)) == 1


def test_a_mutant_reads_its_own_columns():
    # the transpose is built on first use and with_cells starts a mutant
    # without one, so a mutant of a tensor whose columns were read shows
    # its changed cell in its columns
    mod = FiniteModule(4, [4, 2])
    tensor = BilinearMap(mod, mod, mod, [[(1, 1), (2, 0)], [(3, 1), (0, 0)]])
    assert tensor.columns() == (((1, 1), (3, 1)), ((2, 0), (0, 0)))
    mutant = tensor.with_cells({(1, 0): (6, 1)})
    assert mutant.columns() == (((1, 1), (2, 1)), ((2, 0), (0, 0)))
    assert tensor.columns() == (((1, 1), (3, 1)), ((2, 0), (0, 0)))


def test_with_cells_reduces_only_the_changed_cells():
    mod = FiniteModule(4, [4, 2])
    tensor = BilinearMap(mod, mod, mod, [[(1, 1), (2, 0)], [(3, 1), (0, 0)]])
    other = tensor.with_cells({(1, 0): [7, 3]})
    assert other.constants == (((1, 1), (2, 0)), ((3, 1), (0, 0)))
    assert other.constants[0] is tensor.constants[0]
    assert other == tensor and hash(other) == hash(tensor)
    changed = tensor.with_cells({(0, 1): (5, 5)})
    assert changed == BilinearMap(mod, mod, mod,
                                  [[(1, 1), (1, 1)], [(3, 1), (0, 0)]])
    assert changed.constants[1] is tensor.constants[1]
    with pytest.raises(core_mod.StructuralError):
        tensor.with_cells({(0, 0): (1,)})
