"""Actions and crossed modules of commutative Z/m-algebras.

Two kinds of action live here.  A module action of R on X is a
translation x^r = x + t(r) through a module hom t: R -> X and is held
as that ModuleHom alone; these are exactly the actions the bar
construction is built from.  An AlgebraAction is a bilinear tensor
S x R -> R; together with an algebra hom eta: R -> S and the two
crossed-module axioms

    CM1:  eta(s.r)    = s * eta(r)
    CM2:  eta(r).r'   = r * r'

it forms a crossed module.
"""

from __future__ import annotations

from .core import (Algebra, AlgebraHom, BilinearMap, ModuleHom,
                   PreconditionError, StructuralError, Submodule,
                   _present_subalgebra, block_hom, image, is_ideal, kernel,
                   order_compatibility, semidirect_product,
                   torsion_compatibility, validate_algebra, validate_hom)
from .policy import EXHAUSTIVE, Policy, check, sweep  # noqa: F401 (see core)
from .report import (AXIOM, NOTE, PASS, STRUCTURAL, THEOREM, Report,
                     group, leaf, relabel)


def translation_action(eta: AlgebraHom) -> ModuleHom:
    """Action of R on the module of S by x^r = x + eta(r), held as its
    translation hom eta from the carrier of R to that of S."""
    return eta.hom


def validate_module_action(translation: ModuleHom) -> Report:
    """The translation axioms x^(r1+r2) = (x^r1)^r2, x^0 = x,
    (x1+x2)^(r1+r2) = x1^r1 + x2^r2 and k(x^r) = (kx)^(kr) all hold
    exactly when the translation hom is well defined, d_i * t(g_i) = 0,
    so that is the one thing checked."""
    return group("validate-module-action", [order_compatibility(translation)])


class AlgebraAction:
    """Bilinear action tensor of an algebra S on an algebra R."""

    def __init__(self, actor: Algebra, acted: Algebra, tensor: BilinearMap):
        if tensor.left != actor.carrier or tensor.right != acted.carrier \
                or tensor.target != acted.carrier:
            raise StructuralError("action tensor must map S x R into R")
        self.actor = actor
        self.acted = acted
        self.tensor = tensor

    def apply(self, s, r):
        return self.tensor.evaluate(s, r)

    def __eq__(self, other):
        return (isinstance(other, AlgebraAction) and self.actor == other.actor
                and self.acted == other.acted and self.tensor == other.tensor)

    def __hash__(self):
        return hash((self.actor, self.acted, self.tensor))


def validate_algebra_action(act: AlgebraAction, policy: Policy | None = None) -> Report:
    """k-bilinearity is carried by the tensor encoding; what can fail is
    torsion, compatibility with the product of R, and composition of
    actors."""
    s_alg, r_alg = act.actor, act.acted
    checks = [torsion_compatibility(act.tensor),
              leaf("k-bilinearity", PASS, STRUCTURAL,
                   detail="holds by the tensor encoding")]

    def compat(s, r1, r2):
        lhs = act.apply(s, r_alg.multiply(r1, r2))
        return (lhs == r_alg.multiply(act.apply(s, r1), r2)
                and lhs == r_alg.multiply(r1, act.apply(s, r2)))

    checks.append(check("product-compatibility", AXIOM, [s_alg, r_alg, r_alg],
                        compat, policy,
                        detail="s.(r1 r2) = (s.r1) r2 = r1 (s.r2)",
                        maps=(act.tensor, r_alg.mul)))
    checks.append(check("actor-composition", AXIOM, [s_alg, s_alg, r_alg],
                        lambda s1, s2, r: act.apply(s_alg.multiply(s1, s2), r)
                        == act.apply(s1, act.apply(s2, r)), policy,
                        detail="(s1 s2).r = s1.(s2.r)",
                        maps=(act.tensor, s_alg.mul)))
    return group("validate-algebra-action", checks)


class CrossedModule:
    def __init__(self, eta: AlgebraHom, action: AlgebraAction, name: str = ""):
        if action.actor != eta.cod or action.acted != eta.dom:
            raise StructuralError("action does not match the hom eta: R -> S")
        self.eta = eta
        self.action = action
        self.name = name

    @property
    def r_alg(self) -> Algebra:
        return self.eta.dom

    @property
    def s_alg(self) -> Algebra:
        return self.eta.cod

    def __eq__(self, other):
        return (isinstance(other, CrossedModule) and self.eta == other.eta
                and self.action == other.action)

    def __hash__(self):
        return hash((self.eta, self.action))

    def __repr__(self):
        return f"CrossedModule({self.name or 'unnamed'})"


def cm1_report(xm: CrossedModule, policy: Policy | None = None) -> Report:
    s_alg = xm.s_alg
    return check("cm1", AXIOM, [s_alg, xm.r_alg],
                 lambda s, r: xm.eta.apply(xm.action.apply(s, r))
                 == s_alg.multiply(s, xm.eta.apply(r)), policy,
                 detail="eta(s.r) = s eta(r)",
                 maps=(xm.eta.hom, xm.action.tensor, s_alg.mul))


def cm2_report(xm: CrossedModule, policy: Policy | None = None) -> Report:
    r_alg = xm.r_alg
    return check("cm2", AXIOM, [r_alg, r_alg],
                 lambda r1, r2: xm.action.apply(xm.eta.apply(r1), r2)
                 == r_alg.multiply(r1, r2), policy,
                 detail="eta(r1).r2 = r1 r2",
                 maps=(xm.eta.hom, xm.action.tensor, r_alg.mul))


def validate_crossed_module(xm: CrossedModule, policy: Policy | None = None) -> Report:
    """Full stack of checks.  Reported in layers rather than gated, so an
    input that is not even an action still gets CM1/CM2 verdicts."""
    return crossed_module_report(xm, [
        validate_algebra(xm.r_alg),
        validate_algebra(xm.s_alg),
        validate_hom(xm.eta, policy),
        validate_algebra_action(xm.action, policy),
    ], policy)


def crossed_module_report(xm: CrossedModule, factors: list[Report],
                          policy: Policy | None = None) -> Report:
    """The report of validate_crossed_module from the reports of its
    factors, which depend on less than the whole candidate: validate_algebra
    of R and of S, validate_hom of eta and validate_algebra_action, in that
    order.  CM1 and CM2 read all of it and are run here.  The factor
    reports become nodes of the returned tree."""
    name = xm.name or "xmod"
    return group(f"validate-crossed-module {name}",
                 factors + [cm1_report(xm, policy), cm2_report(xm, policy)])


def inclusion_xmod(alg: Algebra, ideal: Submodule, name: str = "") -> CrossedModule:
    """The inclusion of an ideal, with S acting on I by multiplication.
    An ideal is closed under addition and, by absorption, under
    multiplication, so is_ideal is the one precondition check; it is
    exhaustive, so no sample can stand in for the closure."""
    if not is_ideal(alg, ideal, Policy(mode=EXHAUSTIVE)).passed:
        raise PreconditionError("inclusion_xmod requires an ideal")
    sub_alg, embed, coords = _present_subalgebra(alg, ideal)
    s_gens = alg.generators()
    constants = [[coords[alg.multiply(sg, emb)] for emb in embed.images]
                 for sg in s_gens]
    tensor = BilinearMap(alg.carrier, sub_alg.carrier, sub_alg.carrier, constants)
    return CrossedModule(embed, AlgebraAction(alg, sub_alg, tensor),
                         name=name or f"incl-{alg.name or 'ideal'}")


def consequence_checks(xm: CrossedModule, policy: Policy | None = None) -> Report:
    """Statements that follow from CM1/CM2; a failure on a validated
    crossed module is an implementation bug, so these are THEOREM class."""
    s_alg, r_alg = xm.s_alg, xm.r_alg
    im = image(xm.eta.hom)
    ker = kernel(xm.eta.hom)
    checks = []

    for name, alg, sub in (("image-is-ideal", s_alg, im),
                           ("kernel-is-ideal", r_alg, ker)):
        rep = relabel(is_ideal(alg, sub, policy), THEOREM)
        rep.name = name
        checks.append(rep)

    checks.append(check("kernel-annihilates", THEOREM, [ker, r_alg],
                        lambda x, r: r_alg.multiply(x, r) == r_alg.zero,
                        policy, detail="x r = 0 for x in ker(eta)",
                        maps=(r_alg.mul,)))

    checks.append(group("quotient-action-well-defined", [
        check("kernel-closed-under-action", THEOREM, [s_alg, ker],
              lambda s, x: ker.contains(xm.action.apply(s, x)), policy,
              maps=(xm.action.tensor,)),
        check("image-acts-trivially-on-kernel", THEOREM, [im, ker],
              lambda t, x: xm.action.apply(t, x) == r_alg.zero, policy,
              detail="makes the action of S/im(eta) well defined",
              maps=(xm.action.tensor,)),
        check("induced-action-composes", THEOREM, [s_alg, s_alg, ker],
              lambda s1, s2, x: xm.action.apply(s_alg.multiply(s1, s2), x)
              == xm.action.apply(s1, xm.action.apply(s2, x)), policy,
              maps=(xm.action.tensor, s_alg.mul)),
        leaf("induced-action-reading", NOTE, None,
             detail="checked as a k-bilinear module action; translation-"
                    "style axioms are not imposed, they fail for linear "
                    "actions"),
    ]))

    name = xm.name or "xmod"
    return group(f"consequence-checks {name}", checks)


def _four_letter_check(name, detail, dom, cod, phi, policy):
    """Multiplicativity of the hom phi from dom to cod, over pairs of
    elements of the semidirect product dom; the witness is split back
    into its four letters."""
    rep = check(name, AXIOM, [dom, dom],
                lambda x, y: phi.apply(dom.multiply(x, y))
                == cod.multiply(phi.apply(x), phi.apply(y)), policy, detail,
                maps=(phi, dom.mul, cod.mul))
    if rep.witness is not None:
        rep.witness = tuple(half for x in rep.witness
                            for half in dom.carrier.split(x))
    return rep


def phi_cm1_criterion(xm: CrossedModule, policy: Policy | None = None) -> Report:
    """(s, r) -> s + eta(r) from S |x R to S is multiplicative exactly
    when CM1 holds."""
    dom = semidirect_product(xm.s_alg, xm.r_alg, xm.action.tensor)
    return _four_letter_check(
        "cm1-phi-criterion",
        "s + eta(r) multiplicative on S|xR, equivalent to CM1", dom, xm.s_alg,
        block_hom(dom.carrier, xm.s_alg.carrier, [(0, None), (0, xm.eta.hom)]),
        policy)


def phi_cm2_criterion(xm: CrossedModule, policy: Policy | None = None) -> Report:
    """(a, b) -> (eta(a), b) from R |x R (multiplication action) to S |x R
    is multiplicative exactly when CM2 holds."""
    dom = semidirect_product(xm.r_alg, xm.r_alg, xm.r_alg.mul)
    cod = semidirect_product(xm.s_alg, xm.r_alg, xm.action.tensor)
    return _four_letter_check(
        "cm2-phi-criterion",
        "(a, b) -> (eta(a), b) multiplicative into S|xR, equivalent to CM2",
        dom, cod,
        block_hom(dom.carrier, cod.carrier, [(0, xm.eta.hom), (1, None)]),
        policy)
