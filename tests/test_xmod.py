"""Crossed module axioms on the fixture pairs and small enumerated families."""

from itertools import product
from math import prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

import idealbar.core as core_mod
from idealbar.core import (Algebra, BilinearMap, FiniteModule, ModuleHom,
                           StructuralError, Submodule, validate_hom)
from idealbar.enumeration import enumerate_xmods
from idealbar.fixtures import (
    broken_action_xmod,
    nilcube_algebra,
    nilcube_inclusion_xmod,
    nilcube_xmod,
    nilsquare_algebra,
    nilsquare_ideal_algebra,
    nilsquare_xmod,
)
from idealbar.policy import check
from idealbar.report import AXIOM, group
from idealbar.xmod import (
    AlgebraAction,
    CrossedModule,
    ModuleAction,
    cm1_report,
    cm2_report,
    consequence_checks,
    inclusion_xmod,
    phi_cm1_criterion,
    phi_cm2_criterion,
    translation_action,
    validate_algebra_action,
    validate_crossed_module,
    validate_module_action,
)


def test_fixture_crossed_modules_validate():
    for xm in (nilsquare_xmod(), nilcube_xmod(), nilcube_inclusion_xmod()):
        rep = validate_crossed_module(xm)
        assert rep.passed, rep.render()


def test_broken_action_fails_where_expected():
    xm = broken_action_xmod()
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
    xm = broken_action_xmod()
    assert xm.action.apply((0, 1), (1,)) == (1,)
    assert xm.action.apply(xm.s_alg.multiply((0, 1), (0, 1)), (1,)) == (0,)


def test_validate_checks_are_layered_not_gated():
    """Even with a broken action the CM1/CM2 leaves still get verdicts."""
    rep = validate_crossed_module(broken_action_xmod())
    names = {n.name for n in rep.walk()}
    assert {"actor-composition", "cm1", "cm2"} <= names


def test_action_tensor_shape_enforced():
    s = nilsquare_algebra()
    r = nilsquare_ideal_algebra()
    wrong = BilinearMap(s.carrier, s.carrier, s.carrier,
                        [[(0, 0), (0, 0)], [(0, 0), (0, 0)]])
    with pytest.raises(StructuralError):
        AlgebraAction(s, r, wrong)


def test_crossed_module_requires_matching_shapes():
    xm = nilsquare_xmod()
    other = nilcube_xmod()
    with pytest.raises(StructuralError):
        CrossedModule(xm.eta, other.action)


def test_translation_action_is_valid_module_action():
    xm = nilsquare_xmod()
    act = translation_action(xm.eta)
    rep = validate_module_action(act)
    assert rep.passed, rep.render()
    # x^r = x + eta(r)
    assert act.apply((1, 0), (1,)) == (1, 1)


def test_module_action_table_must_be_total():
    s = nilsquare_algebra()
    with pytest.raises(StructuralError):
        ModuleAction(s, s.carrier, {})


def swept_module_action(act):
    """The four translation axioms swept element by element: the check
    validate_module_action replaced, kept as its oracle."""
    alg, sp = act.algebra, act.space
    xs, rs = sp.elements(), alg.elements()
    return group("validate-module-action", [
        check("actor-sum-composes", AXIOM, [xs, rs, rs],
              lambda x, r1, r2: act.apply(x, alg.carrier.add(r1, r2))
              == act.apply(act.apply(x, r1), r2)),
        check("zero-acts-trivially", AXIOM, [xs],
              lambda x: act.apply(x, alg.zero) == x),
        check("additivity", AXIOM, [xs, xs, rs, rs],
              lambda x1, x2, r1, r2:
              act.apply(sp.add(x1, x2), alg.carrier.add(r1, r2))
              == sp.add(act.apply(x1, r1), act.apply(x2, r2))),
        check("scalar-compatibility", AXIOM, [range(alg.modulus), xs, rs],
              lambda k, x, r: sp.scale(k, act.apply(x, r))
              == act.apply(sp.scale(k, x), alg.carrier.scale(k, r))),
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
        zero = [[r_mod.zero] * r_mod.rank] * r_mod.rank
        r_alg = Algebra(r_mod, BilinearMap(r_mod, r_mod, r_mod, zero))
        for x_mod in small_modules(modulus, 8):
            for images in product(x_mod.elements(), repeat=r_mod.rank):
                act = ModuleAction(r_alg, x_mod,
                                   ModuleHom(r_mod, x_mod, images))
                passed = validate_module_action(act).passed
                assert passed == swept_module_action(act).passed, (
                    r_mod, x_mod, images)
                verdicts.add(passed)
    # over a prime modulus every hom is well defined
    assert verdicts == ({True} if modulus in (2, 3) else {True, False})


@given(st.sampled_from(nilsquare_algebra().elements()),
       st.sampled_from(nilsquare_ideal_algebra().elements()))
def test_nilsquare_action_is_scalar_restriction(s, r):
    """S = k[x]/(x^2) acts on (x) through the quotient to k: the x part
    of s cannot see r because x * x = 0."""
    xm = nilsquare_xmod()
    assert xm.action.apply(s, r) == ((s[0] * r[0]) % 2,)


def test_phi_criteria_match_cm_reports_on_every_candidate():
    """The semidirect reformulations agree with the direct axiom sweeps
    across the full candidate family for the nilsquare pair, broken
    inputs included."""
    s = nilsquare_algebra()
    r = nilsquare_ideal_algebra()
    cands = enumerate_xmods(r, s)
    assert len(cands) == 8
    seen_fail = 0
    for xm in cands:
        if not validate_algebra_action(xm.action).passed:
            continue
        direct1 = cm1_report(xm).passed
        direct2 = cm2_report(xm).passed
        assert phi_cm1_criterion(xm).passed == direct1
        assert phi_cm2_criterion(xm).passed == direct2
        if not (direct1 and direct2):
            seen_fail += 1
    assert seen_fail > 0


def test_inclusion_xmod_of_nilcube_ideal():
    alg = nilcube_algebra()
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
    alg = nilcube_algebra()
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
    act = AlgebraAction(s_alg, r_alg,
                        BilinearMap(s_mod, r_mod, r_mod, [[(0,)], [(1,)]]))
    node = validate_algebra_action(act).find("torsion-compatibility")
    assert (node.status, node.kind, node.witness, node.detail, node.meta) == (
        "FAIL", "STRUCTURAL", (1, 0, 0), "", {})


def test_inclusion_xmod_rejects_non_ideal():
    alg = nilcube_algebra()
    units = Submodule.from_generators(alg.carrier, [(1, 0, 0)])
    from idealbar.core import PreconditionError
    with pytest.raises(PreconditionError):
        inclusion_xmod(alg, units)


def test_consequence_checks_pass_on_fixtures():
    for xm in (nilsquare_xmod(), nilcube_xmod(), nilcube_inclusion_xmod()):
        rep = consequence_checks(xm)
        assert rep.passed, rep.render()


def test_consequence_checks_cover_kernel_and_image():
    rep = consequence_checks(nilcube_xmod())
    names = {n.name for n in rep.walk()}
    assert {"image-is-ideal", "kernel-is-ideal", "kernel-annihilates",
            "quotient-action-well-defined"} <= names
    # a failure here would be an implementation bug, not a bad input
    for node in rep.walk():
        if node.kind is not None and node.status != "NOTE":
            assert node.kind in ("THEOREM", "STRUCTURAL")


def test_nilcube_eta_kernel_is_trivial():
    xm = nilcube_xmod()
    from idealbar.core import kernel
    assert kernel(xm.eta.hom).size == 1
