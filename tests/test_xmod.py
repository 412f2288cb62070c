"""Crossed module axioms on the fixture pairs and small enumerated families."""

from itertools import product
from math import prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

import idealbar.core as core_mod
from idealbar.core import (Algebra, AlgebraHom, BilinearMap, FiniteModule,
                           ModuleHom, StructuralError, Submodule,
                           order_compatibility, validate_hom)
from idealbar.enumeration import enumerate_xmods
from idealbar.policy import check
from idealbar.report import AXIOM, group
from idealbar.xmod import (
    CrossedModule,
    cm1_report,
    cm2_report,
    consequence_checks,
    inclusion_xmod,
    phi_cm1_criterion,
    phi_cm2_criterion,
    translation_action,
    validate_algebra_action,
    validate_crossed_module,
)
from oracles import fixture_xmods, workspace


def test_fixture_crossed_modules_validate():
    for xm in fixture_xmods():
        rep = validate_crossed_module(xm)
        assert rep.passed, rep.render()


def test_broken_action_fails_where_expected():
    xm = workspace("broken_action").xmod("main")
    rep = validate_crossed_module(xm)
    assert not rep.passed

    comp = rep.find("actor-composition")
    assert comp.status == "FAIL"
    assert comp.witness == ((0, 1), (0, 1), (1,))

    cm1 = rep.find("cm1")
    assert cm1.status == "FAIL"
    assert cm1.witness == ((0, 1), (1,))

    cm2 = rep.find("cm2")
    assert cm2.status == "FAIL"
    assert cm2.witness == ((1,), (1,))


def test_broken_action_unit_clause_is_the_culprit():
    # x.r = r is fine additively; it is the composite (x*x).r = x.(x.r)
    # that breaks, since x*x = 0 must act as zero
    xm = workspace("broken_action").xmod("main")
    assert xm.action.evaluate((0, 1), (1,)) == (1,)
    assert xm.action.evaluate(xm.s_alg.multiply((0, 1), (0, 1)), (1,)) == (0,)


def test_validate_checks_are_layered_not_gated():
    """Even with a broken action the CM1/CM2 leaves still get verdicts."""
    rep = validate_crossed_module(workspace("broken_action").xmod("main"))
    names = {n.name for n in rep.walk()}
    assert {"actor-composition", "cm1", "cm2"} <= names


def test_action_tensor_shape_enforced():
    xm = workspace("nilsquare").xmod("main")
    s = xm.s_alg
    wrong = BilinearMap(s.carrier, s.carrier, s.carrier,
                        [[(0, 0), (0, 0)], [(0, 0), (0, 0)]])
    with pytest.raises(StructuralError,
                       match="action tensor must map S x R into R"):
        CrossedModule(xm.eta, wrong)


def test_crossed_module_requires_matching_shapes():
    xm = workspace("nilsquare").xmod("main")
    other = workspace("nilcube").xmod("main")
    with pytest.raises(StructuralError):
        CrossedModule(xm.eta, other.action)


def _idempotent(alg):
    """alg's module with g_i g_i = g_i and g_i g_j = 0 for i != j; on the
    nilsquare algebras this differs from alg's product at g g = g for R
    and at x x = x for S."""
    mod, gens = alg.carrier, alg.generators()
    return Algebra(mod, BilinearMap(mod, mod, mod, [
        [g if i == j else mod.zero for j in range(mod.rank)]
        for i, g in enumerate(gens)]))


def test_algebra_homs_on_different_products_differ():
    # one image matrix from R and from R' = R's module with g g = g:
    # eta is multiplicative on the first only, so the two must not be equal
    xm = workspace("nilsquare").xmod("main")
    other = AlgebraHom(_idempotent(xm.r_alg), xm.s_alg, xm.eta.hom)
    assert other.hom == xm.eta.hom
    assert validate_hom(xm.eta).passed and not validate_hom(other).passed
    assert other != xm.eta and xm.eta == AlgebraHom(xm.r_alg, xm.s_alg,
                                                    xm.eta.hom)


def test_crossed_modules_on_different_products_differ():
    # eta's matrix and the action tensor are shared; only R's or S's
    # product changes, and that alone tells the crossed modules apart
    xm = workspace("nilsquare").xmod("main")
    for r_alg, s_alg in ((_idempotent(xm.r_alg), xm.s_alg),
                         (xm.r_alg, _idempotent(xm.s_alg))):
        other = CrossedModule(AlgebraHom(r_alg, s_alg, xm.eta.hom),
                              xm.action)
        assert other.action == xm.action and other.eta.hom == xm.eta.hom
        assert other != xm
    assert xm == CrossedModule(AlgebraHom(xm.r_alg, xm.s_alg, xm.eta.hom),
                               xm.action)


def test_translation_action_is_valid_module_action():
    xm = workspace("nilsquare").xmod("main")
    t = translation_action(xm.eta)
    assert t is xm.eta.hom
    rep = order_compatibility(t)
    assert rep.passed, rep.render()
    # x^r = x + eta(r)
    assert xm.s_alg.carrier.add((1, 0), t.apply((1,))) == (1, 1)


def swept_module_action(t):
    """The four translation axioms of x^r = x + t(r) swept element by
    element.  They hold exactly when t is a well-defined map, so this is
    the oracle of order_compatibility on a translation."""
    r_mod, sp = t.domain, t.codomain
    xs, rs = sp.elements(), r_mod.elements()

    def act(x, r):
        return sp.add(x, t.apply(r))

    return group("module-action-axioms", [
        check("actor-sum-composes", AXIOM, [xs, rs, rs],
              lambda x, r1, r2: act(x, r_mod.add(r1, r2))
              == act(act(x, r1), r2)),
        check("zero-acts-trivially", AXIOM, [xs],
              lambda x: act(x, r_mod.zero) == x),
        check("additivity", AXIOM, [xs, xs, rs, rs],
              lambda x1, x2, r1, r2:
              act(sp.add(x1, x2), r_mod.add(r1, r2))
              == sp.add(act(x1, r1), act(x2, r2))),
        check("scalar-compatibility", AXIOM, [range(r_mod.modulus), xs, rs],
              lambda k, x, r: sp.scale(k, act(x, r))
              == act(sp.scale(k, x), r_mod.scale(k, r))),
    ])


def small_modules(modulus, size):
    """Every module over Z/m of rank at most 2 with at most size elements."""
    divisors = [d for d in range(2, modulus + 1) if modulus % d == 0]
    shapes = [(d,) for d in divisors] + [
        (d, e) for d in divisors for e in divisors]
    return [FiniteModule(modulus, shape) for shape in shapes
            if prod(shape) <= size]


@pytest.mark.parametrize("modulus", [2, 3, 4, 6])
def test_module_action_verdict_matches_the_axiom_sweep(modulus):
    verdicts = set()
    for r_mod in small_modules(modulus, 4):
        for x_mod in small_modules(modulus, 8):
            for images in product(x_mod.elements(), repeat=r_mod.rank):
                t = ModuleHom(r_mod, x_mod, images)
                passed = order_compatibility(t).passed
                assert passed == swept_module_action(t).passed, (
                    r_mod, x_mod, images)
                verdicts.add(passed)
    # over a prime modulus every hom is well defined
    assert verdicts == ({True} if modulus in (2, 3) else {True, False})


@given(st.sampled_from(workspace("nilsquare").algebra("S").elements()),
       st.sampled_from(workspace("nilsquare").algebra("R").elements()))
def test_nilsquare_action_is_scalar_restriction(s, r):
    """S = k[x]/(x^2) acts on (x) through the quotient to k: the x part
    of s cannot see r because x * x = 0."""
    xm = workspace("nilsquare").xmod("main")
    assert xm.action.evaluate(s, r) == ((s[0] * r[0]) % 2,)


def test_phi_criteria_match_cm_reports_on_every_candidate():
    """The semidirect reformulations agree with the direct axiom sweeps
    across the full candidate family for the nilsquare pair, broken
    inputs included."""
    ws = workspace("nilsquare")
    s, r = ws.algebra("S"), ws.algebra("R")
    cands = enumerate_xmods(r, s)
    assert len(cands) == 8
    seen_fail = 0
    for xm in cands:
        if not validate_algebra_action(xm).passed:
            continue
        direct1 = cm1_report(xm).passed
        direct2 = cm2_report(xm).passed
        assert phi_cm1_criterion(xm).passed == direct1
        assert phi_cm2_criterion(xm).passed == direct2
        if not (direct1 and direct2):
            seen_fail += 1
    assert seen_fail > 0


def test_inclusion_xmod_of_nilcube_ideal():
    alg = workspace("nilcube").algebra("S")
    ideal = Submodule.from_generators(alg.carrier, [(0, 1, 0), (0, 0, 1)])
    xm = inclusion_xmod(alg, ideal)
    rep = validate_crossed_module(xm)
    assert rep.passed, rep.render()
    assert validate_hom(xm.eta).passed
    # eta is the inclusion, so its image is the ideal again
    assert {xm.eta.apply(x) for x in xm.r_alg.elements()} == set(ideal.elements)


def test_inclusion_xmod_checks_closure_once(monkeypatch):
    # is_ideal is the one precondition check: an ideal is closed under
    # multiplication by absorption, so no separate closure check runs
    calls = []
    closed = core_mod.multiplicatively_closed
    monkeypatch.setattr(core_mod, "multiplicatively_closed",
                        lambda *a, **k: calls.append(a) or closed(*a, **k))
    alg = workspace("nilcube").algebra("S")
    ideal = Submodule.from_generators(alg.carrier, [(0, 1, 0), (0, 0, 1)])
    assert validate_crossed_module(inclusion_xmod(alg, ideal)).passed
    assert calls == []


def test_action_torsion_failure_is_pinned():
    # g1 of S has order 2 but acts on the order-4 generator of R by 1:
    # the first violation is (i, j, l) = (1, 0, 0)
    s_mod, r_mod = FiniteModule(4, [4, 2]), FiniteModule(4, [4])
    s_alg = Algebra(s_mod, BilinearMap(s_mod, s_mod, s_mod,
                                       [[(0, 0), (0, 0)], [(0, 0), (0, 0)]]))
    r_alg = Algebra(r_mod, BilinearMap(r_mod, r_mod, r_mod, [[(0,)]]))
    eta = AlgebraHom(r_alg, s_alg, ModuleHom(r_mod, s_mod, [(0, 0)]))
    act = BilinearMap(s_mod, r_mod, r_mod, [[(0,)], [(1,)]])
    node = validate_algebra_action(CrossedModule(eta, act)).find(
        "torsion-compatibility")
    assert (node.status, node.kind, node.witness, node.detail, node.meta) == (
        "FAIL", "STRUCTURAL", (1, 0, 0), "", {})


def test_inclusion_xmod_rejects_non_ideal():
    alg = workspace("nilcube").algebra("S")
    units = Submodule.from_generators(alg.carrier, [(1, 0, 0)])
    from idealbar.core import PreconditionError
    with pytest.raises(PreconditionError):
        inclusion_xmod(alg, units)


def test_consequence_checks_pass_on_fixtures():
    for xm in fixture_xmods():
        rep = consequence_checks(xm)
        assert rep.passed, rep.render()


def test_consequence_checks_cover_kernel_and_image():
    rep = consequence_checks(workspace("nilcube").xmod("main"))
    names = {n.name for n in rep.walk()}
    assert {"image-is-ideal", "kernel-is-ideal", "kernel-annihilates",
            "quotient-action-well-defined"} <= names
    # a failure here would be an implementation bug, not a bad input
    for node in rep.walk():
        if node.kind is not None and node.status != "NOTE":
            assert node.kind in ("THEOREM", "STRUCTURAL")


def test_nilcube_eta_kernel_is_trivial():
    xm = workspace("nilcube").xmod("main")
    from idealbar.core import kernel
    assert kernel(xm.eta.hom).size == 1
