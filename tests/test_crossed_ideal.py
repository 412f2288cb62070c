"""Sub crossed modules, crossed ideals and crossed ideal maps."""

import pytest

from idealbar.core import (
    Algebra,
    AlgebraHom,
    BilinearMap,
    FiniteModule,
    ModuleHom,
    PreconditionError,
    StructuralError,
    Submodule,
    identity_hom,
)
from idealbar.crossed_ideal import (
    CrossedIdealMap,
    SubXMod,
    XModMorphism,
    image_crossed_ideal_check,
    image_sub_xmod,
    inclusion_cim,
    sub_crossed_module,
    validate_crossed_ideal,
    validate_crossed_ideal_map,
    validate_morphism,
)
from idealbar.xmod import CrossedModule, inclusion_xmod
from oracles import workspace


def test_fixture_morphism_validates():
    rep = validate_morphism(workspace("nilcube").morphism("incl"))
    assert rep.passed, rep.render()


def test_morphism_square_detects_wrong_base_leg():
    mor = workspace("nilcube").morphism("incl")
    # send the sub generator x^2 to x instead
    wrong_nu = type(mor.alpha2)(
        mor.alpha2.dom, mor.alpha2.cod,
        ModuleHom(mor.alpha2.dom.carrier, mor.alpha2.cod.carrier, [(0, 1, 0)]),
        name="nu")
    rep = validate_morphism(XModMorphism(mor.source, mor.target,
                                         mor.alpha1, wrong_nu))
    assert rep.find("square-commutes").status == "FAIL"


def test_morphism_shape_errors():
    mor = workspace("nilcube").morphism("incl")
    with pytest.raises(StructuralError):
        XModMorphism(mor.source, mor.target, mor.alpha2, mor.alpha2)


def test_sub_assembles_from_subsets():
    sx = workspace("nilcube").subxmod("good")
    assert sx.sub is not None
    assert sx.problems == ()
    assert sx.sub.r_alg.carrier.orders == (2,)
    assert sx.sub.s_alg.carrier.orders == (2,)
    # x^2 * x^2 = 0 in both layers
    assert sx.sub.r_alg.multiply((1,), (1,)) == (0,)
    assert sx.sub.s_alg.multiply((1,), (1,)) == (0,)


def test_two_construction_paths_agree():
    ws = workspace("nilcube")
    sx, mor = ws.subxmod("good"), ws.morphism("incl")
    declared = SubXMod.from_inclusions(mor.target, mor.source,
                                       mor.alpha1, mor.alpha2,
                                       name="declared")
    assert declared == sx


def test_crossed_ideal_passes_on_the_good_sub():
    rep = validate_crossed_ideal(workspace("nilcube").subxmod("good"))
    assert rep.passed, rep.render()
    names = {n.name for n in rep.walk()}
    assert {"ci1-sub-crossed-module", "ci2-ideals",
            "ci3-sub-base-acts-into-sub", "ci4-base-acts-into-sub"} <= names


def test_bad_sub_fails_eta_containment():
    sx = workspace("nilcube").subxmod("bad")
    assert sx.sub is None
    rep = validate_crossed_ideal(sx)
    assert not rep.passed
    node = rep.find("eta-maps-sub-into-sub")
    assert node.status == "FAIL"
    # eta(x) = x lies outside the span of x^2
    assert node.witness == ((1, 0),)
    # with no assembled sub the dependent checks are skipped, not failed
    assert rep.find("sub-structure").status == "SKIP"


def test_non_ideal_base_subset_fails_ci2():
    xm = workspace("nilcube").xmod("main")
    zero_r = Submodule.from_generators(xm.r_alg.carrier, [])
    span_one = Submodule.from_generators(xm.s_alg.carrier, [(1, 0, 0)])
    sx = sub_crossed_module(xm, zero_r, span_one, name="unit-span")
    # the sub assembles fine; what breaks is the ideal clause
    assert sx.sub is not None
    rep = validate_crossed_ideal(sx)
    assert rep.find("s-sub-is-ideal").status == "FAIL"
    # and the canonical map cannot be built over a non-ideal
    with pytest.raises(PreconditionError):
        inclusion_cim(sx)


def test_inclusion_cim_tensors():
    cim = inclusion_cim(workspace("nilcube").subxmod("good"))
    # x^2 annihilates R, so h is identically zero here
    assert cim.h.constants == (((0,),), ((0,),))
    # S acts on the span of x^2 through its constant term
    assert cim.alpha2_xmod.action.constants == (((1,),), ((0,),), ((0,),))


def test_inclusion_cim_validates():
    rep = validate_crossed_ideal_map(
        inclusion_cim(workspace("nilcube").subxmod("good")))
    assert rep.passed, rep.render()
    assert rep.find("h-base-balance").status == "PASS"


def test_balance_flag_skips_the_interpreted_clause():
    rep = validate_crossed_ideal_map(
        inclusion_cim(workspace("nilcube").subxmod("good")),
        check_balance=False)
    node = rep.find("h-base-balance")
    assert node.status == "SKIP"
    assert rep.passed


def test_mutated_h_is_caught():
    cim = inclusion_cim(workspace("nilcube").subxmod("good"))
    bad_h = BilinearMap(cim.h.left, cim.h.right, cim.h.target,
                        [[(1,)], [(0,)]])
    mutated = CrossedIdealMap(cim.morphism, cim.alpha1_xmod.action,
                              cim.alpha2_xmod.action, bad_h, name="mutated")
    rep = validate_crossed_ideal_map(mutated)
    assert not rep.passed
    node = rep.find("alpha1-of-h")
    assert node.status == "FAIL"
    assert node.witness == ((1, 0), (1,))


def test_cim_shape_errors():
    cim = inclusion_cim(workspace("nilcube").subxmod("good"))
    with pytest.raises(StructuralError):
        CrossedIdealMap(cim.morphism, cim.alpha2_xmod.action,
                        cim.alpha2_xmod.action, cim.h)


def test_image_is_a_crossed_ideal():
    cim = inclusion_cim(workspace("nilcube").subxmod("good"))
    sx = image_sub_xmod(cim)
    assert sx.sub is not None
    rep = image_crossed_ideal_check(cim)
    assert rep.passed, rep.render()
    for node in rep.walk():
        if node.kind is not None:
            assert node.kind in ("THEOREM", "STRUCTURAL")


def test_image_of_inclusion_recovers_the_subsets():
    cim = inclusion_cim(workspace("nilcube").subxmod("good"))
    sx = image_sub_xmod(cim)
    assert set(sx.r_subset.elements) == {(0, 0), (0, 1)}
    assert set(sx.s_subset.elements) == {(0, 0, 0), (0, 0, 1)}


# The failing leaves below are pinned whole: status, kind, witness,
# detail and meta.  Each sub is declared through SubXMod.from_inclusions
# over the inclusions of (x^2) into nilcube, so only the leaf under test
# is changed by the mutation.

def _wrong_nu():
    # send the sub generator x^2 to x instead
    nu = workspace("nilcube").morphism("incl").alpha2
    return AlgebraHom(nu.dom, nu.cod,
                      ModuleHom(nu.dom.carrier, nu.cod.carrier, [(0, 1, 0)]),
                      name="nu")


def _leaf(node):
    return (node.status, node.kind, node.witness, node.detail, node.meta)


SQUARE_FAIL = ("FAIL", "AXIOM", ((1,),))
SWEPT_2 = {"mode": "exhaustive", "checked": 2}


def test_inclusion_square_failure_is_pinned():
    mor = workspace("nilcube").morphism("incl")
    sx = SubXMod.from_inclusions(mor.target, mor.source, mor.alpha1,
                                 _wrong_nu(), name="wrong-nu")
    rep = validate_crossed_ideal(sx)
    # nu eta'(g) = x, but eta mu(g) = x^2
    assert _leaf(rep.find("inclusion-square")) == (
        *SQUARE_FAIL, "nu eta' = eta mu", SWEPT_2)
    assert rep.find("action-is-induced").status == "PASS"


def test_action_is_induced_failure_is_pinned():
    mor = workspace("nilcube").morphism("incl")
    sub = mor.source
    loud = BilinearMap(sub.s_alg.carrier, sub.r_alg.carrier,
                       sub.r_alg.carrier, [[(1,)]])
    sx = SubXMod.from_inclusions(
        mor.target, CrossedModule(sub.eta, loud, name="loud"),
        mor.alpha1, mor.alpha2, name="loud-action")
    rep = validate_crossed_ideal(sx)
    # x^2 . x^2 is x^2 in the sub, but x^2 acts on R by zero
    assert _leaf(rep.find("action-is-induced")) == (
        "FAIL", "AXIOM", ((1,), (1,)), "mu(s'.r') = nu(s').mu(r')",
        {"mode": "exhaustive", "checked": 4})
    assert rep.find("inclusion-square").status == "PASS"


def test_morphism_square_failure_is_pinned():
    mor = workspace("nilcube").morphism("incl")
    rep = validate_morphism(XModMorphism(mor.source, mor.target,
                                         mor.alpha1, _wrong_nu()))
    assert _leaf(rep.find("square-commutes")) == (
        *SQUARE_FAIL, "alpha2 eta1 = eta2 alpha1", SWEPT_2)


def test_cim_square_failure_is_pinned():
    cim = inclusion_cim(workspace("nilcube").subxmod("good"))
    mor = cim.morphism
    wrong = XModMorphism(mor.source, mor.target, mor.alpha1, _wrong_nu())
    rep = validate_crossed_ideal_map(
        CrossedIdealMap(wrong, cim.alpha1_xmod.action, cim.alpha2_xmod.action,
                        cim.h, name="wrong-nu"))
    assert _leaf(rep.find("square-commutes")) == (
        *SQUARE_FAIL, "eta2 alpha1 = alpha2 eta1", SWEPT_2)


# inclusions-injective, pinned on the declared path: the fixture's own
# inclusions, a zero nu, and an alpha1 that is not well defined.  The
# last is a map Z/2 + Z/2 -> Z/4 + Z/2 sending both generators to the
# same element of order 4: it kills no nonzero representative, yet two
# of them share an image, so the leaf fails.

def _zero_nu():
    nu = workspace("nilcube").morphism("incl").alpha2
    return AlgebraHom(nu.dom, nu.cod,
                      ModuleHom(nu.dom.carrier, nu.cod.carrier, [(0, 0, 0)]),
                      name="nu")


def _zero_nu_sub(name=""):
    mor = workspace("nilcube").morphism("incl")
    return SubXMod.from_inclusions(mor.target, mor.source, mor.alpha1,
                                   _zero_nu(), name=name)


def _zero_algebra(mod):
    return Algebra(mod, BilinearMap(mod, mod, mod,
                                    [[mod.zero] * mod.rank] * mod.rank))


def _ill_defined_mu_sub():
    s = _zero_algebra(FiniteModule(4, [4, 2]))
    ambient = inclusion_xmod(s, Submodule.from_generators(s.carrier,
                                                          s.generators()))
    small = _zero_algebra(FiniteModule(4, [2, 2]))
    sub = CrossedModule(AlgebraHom(small, small, identity_hom(small.carrier)),
                        small.mul)
    mu = AlgebraHom(small, ambient.r_alg,
                    ModuleHom(small.carrier, ambient.r_alg.carrier,
                              [(1, 0), (1, 0)]), name="mu")
    nu = AlgebraHom(small, s, ModuleHom(small.carrier, s.carrier,
                                        [(2, 0), (0, 1)]), name="nu")
    assert not mu.hom.well_defined() and nu.hom.well_defined()
    return SubXMod.from_inclusions(ambient, sub, mu, nu, name="ill-mu")


INJECTIVE_PASS = ("PASS", "STRUCTURAL", None, "", {})
INJECTIVE_FAIL = ("FAIL", "STRUCTURAL", None, "", {})


@pytest.mark.parametrize("build,want", [
    (lambda: workspace("nilcube").subxmod("good_decl"), INJECTIVE_PASS),
    (lambda: _zero_nu_sub(name="zero-nu"), INJECTIVE_FAIL),
    (_ill_defined_mu_sub, INJECTIVE_FAIL),
], ids=["good_decl", "zero-nu", "ill-defined-mu"])
def test_inclusions_injective_is_pinned(build, want):
    rep = validate_crossed_ideal(build())
    assert _leaf(rep.find("inclusions-injective")) == want


@pytest.mark.parametrize("build", [_zero_nu_sub, _ill_defined_mu_sub],
                         ids=["zero-nu", "ill-defined-mu"])
def test_inclusion_cim_refuses_inclusions_that_are_not_injective(build):
    # a preimage through such a map is not the only one, or not defined
    with pytest.raises(PreconditionError, match="well-defined injective"):
        inclusion_cim(build())


def test_inclusion_cim_on_the_declared_sub_matches_the_assembled_one():
    ws = workspace("nilcube")
    cim = inclusion_cim(ws.subxmod("good_decl"))
    want = inclusion_cim(ws.subxmod("good"))
    assert (cim.alpha1_xmod.action, cim.alpha2_xmod.action, cim.h) \
        == (want.alpha1_xmod.action, want.alpha2_xmod.action, want.h)
