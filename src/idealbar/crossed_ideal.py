"""Morphisms of crossed modules, crossed ideals, and crossed ideal maps.

A crossed ideal is a sub crossed module (R' -> S') of (R -> S) whose
pieces are ideals and whose action closures hold:

    CI1  R', S' are subalgebras, the action of S' on R' is induced,
         the sub is itself a crossed module and the inclusion square
         commutes
    CI2  R'R is contained in R', S'S in S'
    CI3  S'.R is contained in R'
    CI4  S.R' is contained in R'

A crossed ideal map over a morphism (alpha1, alpha2) consists of crossed
module structures on alpha1 and alpha2 plus a bilinear h: R2 x S1 -> R1
compatible with everything in sight.  The image of a valid crossed ideal
map is a crossed ideal; inclusions of crossed ideals conversely carry a
canonical crossed ideal map.
"""

from __future__ import annotations

from .core import (AlgebraHom, BilinearMap, ModuleHom, PreconditionError,
                   StructuralError, Submodule, _present_subalgebra, image,
                   injective, maps_equal_report, multiplicatively_closed,
                   multiplicativity_report, refuse_non_maps, solve,
                   torsion_witness)
from .policy import EXHAUSTIVE, Policy, check
from .report import (AXIOM, FAIL, PASS, SKIP, STRUCTURAL, THEOREM,
                     Report, group, leaf, relabel)
from .xmod import CrossedModule, validate_crossed_module, validate_hom


class XModMorphism:
    """Pair of algebra homs alpha1: R1 -> R2, alpha2: S1 -> S2 between
    crossed modules."""

    def __init__(self, source: CrossedModule, target: CrossedModule,
                 alpha1: AlgebraHom, alpha2: AlgebraHom, name: str = ""):
        if alpha1.dom != source.r_alg or alpha1.cod != target.r_alg:
            raise StructuralError("alpha1 must map R1 to R2")
        if alpha2.dom != source.s_alg or alpha2.cod != target.s_alg:
            raise StructuralError("alpha2 must map S1 to S2")
        self.source = source
        self.target = target
        self.alpha1 = alpha1
        self.alpha2 = alpha2
        self.name = name


def validate_morphism(mor: XModMorphism) -> Report:
    checks = []
    rep = validate_hom(mor.alpha1)
    rep.name = "alpha1-hom"
    checks.append(rep)
    rep = validate_hom(mor.alpha2)
    rep.name = "alpha2-hom"
    checks.append(rep)

    checks.append(square_report(mor, "square-commutes",
                                "alpha2 eta1 = eta2 alpha1"))

    checks.append(equivariance_report(
        mor, "equivariance", AXIOM, "alpha1(s1.r1) = alpha2(s1).alpha1(r1)"))
    name = mor.name or "morphism"
    return group(f"validate-morphism {name}", checks)


def equivariance_report(mor: XModMorphism, name: str, kind: str,
                        detail: str) -> Report:
    """alpha1(s1.r1) = alpha2(s1).alpha1(r1) over S1 x R1."""
    src, tgt = mor.source, mor.target
    return check(name, kind, [src.s_alg, src.r_alg],
                 lambda s1, r1: mor.alpha1.apply(src.action.evaluate(s1, r1))
                 == tgt.action.evaluate(mor.alpha2.apply(s1),
                                        mor.alpha1.apply(r1)),
                 (mor.alpha1.hom, mor.alpha2.hom, src.action, tgt.action),
                 detail=detail)


def square_report(mor: XModMorphism, name: str, detail: str) -> Report:
    """alpha2 eta1 = eta2 alpha1 as maps R1 -> S2."""
    return maps_equal_report(
        name, mor.alpha2.hom.compose(mor.source.eta.hom),
        mor.target.eta.hom.compose(mor.alpha1.hom), detail=detail)


class SubXMod:
    """Sub crossed module candidate, kept together with the subsets it
    spans inside the ambient carriers.  sub may be None when the subsets
    do not support a crossed module at all; the obstructions found during
    construction are kept in problems and surface in the CI1 report.
    The coordinates of an ambient element in sub are solved through mu
    or nu (core.solve); no table of them is kept."""

    def __init__(self, ambient: CrossedModule, sub: CrossedModule | None,
                 mu: AlgebraHom | None, nu: AlgebraHom | None,
                 r_subset: Submodule, s_subset: Submodule,
                 problems=(), name: str = ""):
        self.ambient = ambient
        self.sub = sub
        self.mu = mu
        self.nu = nu
        self.r_subset = r_subset
        self.s_subset = s_subset
        self.problems = tuple(problems)
        self.name = name

    @classmethod
    def from_inclusions(cls, ambient: CrossedModule, sub: CrossedModule,
                        mu: AlgebraHom, nu: AlgebraHom, name: str = "") -> "SubXMod":
        if mu.dom != sub.r_alg or mu.cod != ambient.r_alg:
            raise StructuralError("mu must map the sub R into the ambient R")
        if nu.dom != sub.s_alg or nu.cod != ambient.s_alg:
            raise StructuralError("nu must map the sub S into the ambient S")
        return cls(ambient, sub, mu, nu, image(mu.hom), image(nu.hom), name=name)

    def __eq__(self, other):
        return (isinstance(other, SubXMod)
                and self.ambient == other.ambient and self.sub == other.sub
                and self.mu == other.mu and self.nu == other.nu)


def sub_crossed_module(ambient: CrossedModule, r_subset: Submodule,
                       s_subset: Submodule, name: str = "") -> SubXMod:
    """Assemble the sub crossed module spanned by two subsets, inducing
    eta and the action from the ambient structure.  Obstructions are
    recorded instead of raised so the CI report can show them.  Each
    closure lands in a span, so its generators decide a PASS; a failure
    is swept exhaustively for the least witness."""
    r_amb, s_amb = ambient.r_alg, ambient.s_alg
    checks = [multiplicatively_closed(alg, sub, f"{tag}-multiplicatively-closed")
              for tag, alg, sub in (("r-subset", r_amb, r_subset),
                                    ("s-subset", s_amb, s_subset))]
    checks.append(check(
        "eta-maps-sub-into-sub", AXIOM, [r_subset],
        lambda x: s_subset.contains(ambient.eta.apply(x)),
        (ambient.eta.hom,), detail="eta(R') must land in S'",
        policy=Policy(mode=EXHAUSTIVE)))
    checks.append(check(
        "induced-action-closed", AXIOM, [s_subset, r_subset],
        lambda s, x: r_subset.contains(ambient.action.evaluate(s, x)),
        (ambient.action,), policy=Policy(mode=EXHAUSTIVE)))
    problems = [rep for rep in checks if not rep.passed]
    if problems:
        return SubXMod(ambient, None, None, None, r_subset, s_subset,
                       problems, name=name)

    r_alg, mu = _present_subalgebra(r_amb, r_subset)
    s_alg, nu = _present_subalgebra(s_amb, s_subset)
    eta_images = [solve(nu.hom, ambient.eta.apply(img)) for img in mu.images]
    eta = AlgebraHom(r_alg, s_alg,
                     ModuleHom(r_alg.carrier, s_alg.carrier, eta_images),
                     name="eta-sub")
    constants = [[solve(mu.hom, ambient.action.evaluate(si, rj))
                  for rj in mu.images] for si in nu.images]
    act = BilinearMap(s_alg.carrier, r_alg.carrier, r_alg.carrier, constants)
    sub = CrossedModule(eta, act, name=name or "sub")
    mu = AlgebraHom(r_alg, r_amb, mu.hom, name="mu")
    nu = AlgebraHom(s_alg, s_amb, nu.hom, name="nu")
    return SubXMod(ambient, sub, mu, nu, r_subset, s_subset, name=name)


def _embeds(*legs: AlgebraHom) -> bool:
    """Whether every leg is a well-defined injective map: a leg that is
    not well defined is no map, whatever its representatives do."""
    return all(leg.hom.well_defined() and injective(leg.hom) for leg in legs)


def validate_crossed_ideal(sx: SubXMod, policy: Policy | None = None) -> Report:
    """The CI1-CI4 report of sx.  An ambient map that is not well
    defined is refused before any clause reads it."""
    amb = sx.ambient
    refuse_non_maps(amb.maps("ambient"))
    r_amb, s_amb = amb.r_alg, amb.s_alg
    ci1 = list(sx.problems)

    if sx.sub is not None:
        incl = XModMorphism(sx.sub, amb, sx.mu, sx.nu)
        ci1.append(leaf("inclusions-injective",
                        PASS if _embeds(sx.mu, sx.nu) else FAIL, STRUCTURAL))
        ci1.append(multiplicativity_report(
            "mu-multiplicative", sx.mu.hom, sx.sub.r_alg, r_amb))
        ci1.append(multiplicativity_report(
            "nu-multiplicative", sx.nu.hom, sx.sub.s_alg, s_amb))

        ci1.append(equivariance_report(
            incl, "action-is-induced", AXIOM, "mu(s'.r') = nu(s').mu(r')"))

        sub_rep = validate_crossed_module(sx.sub)
        sub_rep.name = "sub-is-crossed-module"
        ci1.append(sub_rep)

        ci1.append(square_report(incl, "inclusion-square",
                                 "nu eta' = eta mu"))
    else:
        ci1.append(leaf("sub-structure", SKIP, None,
                        detail="sub crossed module could not be assembled"))

    checks = [group("ci1-sub-crossed-module", ci1)]

    checks.append(group("ci2-ideals", [
        check("r-sub-is-ideal", AXIOM, [sx.r_subset, r_amb],
              lambda x, r: sx.r_subset.contains(r_amb.multiply(x, r)),
              (r_amb.mul,), policy=policy),
        check("s-sub-is-ideal", AXIOM, [sx.s_subset, s_amb],
              lambda x, s: sx.s_subset.contains(s_amb.multiply(x, s)),
              (s_amb.mul,), policy=policy),
    ]))
    checks.append(check(
        "ci3-sub-base-acts-into-sub", AXIOM, [sx.s_subset, r_amb],
        lambda s, r: sx.r_subset.contains(amb.action.evaluate(s, r)),
        (amb.action,), detail="S'.R lands in R'", policy=policy))
    checks.append(check(
        "ci4-base-acts-into-sub", AXIOM, [s_amb, sx.r_subset],
        lambda s, x: sx.r_subset.contains(amb.action.evaluate(s, x)),
        (amb.action,), detail="S.R' lands in R'", policy=policy))
    name = sx.name or "sub"
    return group(f"validate-crossed-ideal {name}", checks)


class CrossedIdealMap:
    """A morphism, crossed module structures on both legs, and the mixed
    bilinear map h: R2 x S1 -> R1.  The legs alpha1_xmod and alpha2_xmod
    are built once, here, from the action tensors act1: R2 x R1 -> R1
    and act2: S2 x S1 -> S1."""

    def __init__(self, morphism: XModMorphism, act1: BilinearMap,
                 act2: BilinearMap, h: BilinearMap, name: str = ""):
        src, tgt = morphism.source, morphism.target
        self.alpha1_xmod = CrossedModule(morphism.alpha1, act1, name="alpha1")
        self.alpha2_xmod = CrossedModule(morphism.alpha2, act2, name="alpha2")
        if h.left != tgt.r_alg.carrier or h.right != src.s_alg.carrier \
                or h.target != src.r_alg.carrier:
            raise StructuralError("h must map R2 x S1 into R1")
        self.morphism = morphism
        self.h = h
        self.name = name


def validate_crossed_ideal_map(cim: CrossedIdealMap,
                               check_balance: bool = True) -> Report:
    """The report of cim.  An eta or action of the source or target that
    is not well defined is refused first; the leg reports cover the rest."""
    mor = cim.morphism
    src, tgt = mor.source, mor.target
    refuse_non_maps(src.maps("source")[:2] + tgt.maps("target")[:2])
    r1, s1 = src.r_alg, src.s_alg
    r2, s2 = tgt.r_alg, tgt.s_alg
    act1, act2 = cim.alpha1_xmod.action, cim.alpha2_xmod.action

    rep1 = validate_crossed_module(cim.alpha1_xmod)
    rep1.name = "alpha1-crossed-module"
    rep2 = validate_crossed_module(cim.alpha2_xmod)
    rep2.name = "alpha2-crossed-module"
    checks = [rep1, rep2]

    checks.append(square_report(mor, "square-commutes",
                                "eta2 alpha1 = alpha2 eta1"))

    # a tensor is bilinear exactly when it is torsion-compatible
    bad = torsion_witness(cim.h)
    checks.append(leaf("h-bilinearity", FAIL if bad else PASS, STRUCTURAL,
                       detail="not torsion-compatible" if bad
                       else "holds by the tensor encoding", witness=bad))

    def h_check(name, spaces, pred, detail, *maps):
        return check(name, AXIOM, spaces, pred, (cim.h,) + maps,
                     detail=detail)

    checks.append(h_check("alpha1-of-h", [r2, s1],
                          lambda x, s: mor.alpha1.apply(cim.h.evaluate(x, s))
                          == tgt.action.evaluate(mor.alpha2.apply(s), x),
                          "alpha1 h(r2, s1) = alpha2(s1).r2",
                          mor.alpha1.hom, mor.alpha2.hom, tgt.action))
    checks.append(h_check("eta1-of-h", [r2, s1],
                          lambda x, s: src.eta.apply(cim.h.evaluate(x, s))
                          == act2.evaluate(tgt.eta.apply(x), s),
                          "eta1 h(r2, s1) = eta2(r2).s1",
                          src.eta.hom, tgt.eta.hom, act2))
    checks.append(h_check("h-on-alpha1-image", [r1, s1],
                          lambda r, s: cim.h.evaluate(mor.alpha1.apply(r), s)
                          == src.action.evaluate(s, r),
                          "h(alpha1 r1, s1) = s1.r1",
                          mor.alpha1.hom, src.action))
    checks.append(h_check("h-on-eta1-image", [r2, r1],
                          lambda x, r: cim.h.evaluate(x, src.eta.apply(r))
                          == act1.evaluate(x, r),
                          "h(r2, eta1 r1) = r2.r1",
                          src.eta.hom, act1))

    if check_balance:
        checks.append(h_check(
            "h-base-balance", [s2, r2, s1],
            lambda t, x, s: cim.h.evaluate(tgt.action.evaluate(t, x), s)
            == cim.h.evaluate(x, act2.evaluate(t, s)),
            "h(s2.r2, s1) = h(r2, s2.s1); interpreted reading, no "
            "action of S2 on R1 is given",
            tgt.action, act2))
    else:
        checks.append(leaf("h-base-balance", SKIP, None,
                           detail="disabled by flag"))
    name = cim.name or "cim"
    return group(f"validate-crossed-ideal-map {name}", checks)


def image_sub_xmod(cim: CrossedIdealMap, sub: SubXMod | None = None) -> SubXMod:
    """The image of the morphism underlying a crossed ideal map, presented
    as a sub crossed module of the target.

    sub, when given, is a sub crossed module the caller already holds.
    If it lies in the target and its two subsets equal the image spans
    (spans compare by Howell form), its assembled structure is taken
    with the image spans and name: sub_crossed_module reads only the two
    spans, the sorted elements for the presentation and the generators
    for closures they decide, so assembling the image would rebuild sub
    under another name.  Otherwise the image is assembled."""
    mor = cim.morphism
    r_img, s_img = image(mor.alpha1.hom), image(mor.alpha2.hom)
    name = f"image-{cim.name or 'cim'}"
    if (sub is not None and sub.ambient is mor.target
            and sub.r_subset == r_img and sub.s_subset == s_img):
        return SubXMod(mor.target, sub.sub, sub.mu, sub.nu, r_img, s_img,
                       sub.problems, name=name)
    return sub_crossed_module(mor.target, r_img, s_img, name=name)


def image_crossed_ideal_check(cim: CrossedIdealMap,
                              policy: Policy | None = None,
                              sub: SubXMod | None = None) -> Report:
    """The image of a validated crossed ideal map is a crossed ideal.
    Any failure here on validated input is an implementation bug.  A sub
    that spans the image (see image_sub_xmod) is validated in place of
    the image assembled anew, and the report is the same either way."""
    rep = relabel(validate_crossed_ideal(image_sub_xmod(cim, sub), policy),
                  THEOREM)
    push = equivariance_report(
        cim.morphism, "pushforward-action-agrees", THEOREM,
        "the induced action on the image is the restricted ambient action, "
        "independent of preimage choices")
    return group(f"image-crossed-ideal {cim.name or 'cim'}", [rep, push])


def inclusion_cim(sx: SubXMod, name: str = "") -> CrossedIdealMap:
    """The canonical crossed ideal map carried by a crossed ideal
    inclusion: both legs act by multiplication, h(r, s') = s'.r, each
    product solved back through mu or nu, which must be well defined and
    injective so that the preimage is the only one."""
    if sx.sub is None:
        raise PreconditionError("inclusion_cim needs an assembled sub")
    if not _embeds(sx.mu, sx.nu):
        raise PreconditionError(
            "inclusion_cim needs mu and nu to be well-defined injective maps")
    amb = sx.ambient
    r_amb, s_amb = amb.r_alg, amb.s_alg
    mor = XModMorphism(sx.sub, amb, sx.mu, sx.nu,
                       name=name or f"incl-{sx.name or 'sub'}")
    c1 = [[solve(sx.mu.hom, r_amb.multiply(g, img)) for img in sx.mu.images]
          for g in r_amb.generators()]
    c2 = [[solve(sx.nu.hom, s_amb.multiply(g, img)) for img in sx.nu.images]
          for g in s_amb.generators()]
    ch = [[solve(sx.mu.hom, amb.action.evaluate(nimg, g))
           for nimg in sx.nu.images] for g in r_amb.generators()]
    if any(None in row for rows in (c1, c2, ch) for row in rows):
        raise PreconditionError(
            "subsets are not closed the way CI2/CI3 require")

    act1 = BilinearMap(r_amb.carrier, sx.sub.r_alg.carrier,
                       sx.sub.r_alg.carrier, c1)
    act2 = BilinearMap(s_amb.carrier, sx.sub.s_alg.carrier,
                       sx.sub.s_alg.carrier, c2)
    h = BilinearMap(r_amb.carrier, sx.sub.s_alg.carrier,
                    sx.sub.r_alg.carrier, ch)
    return CrossedIdealMap(mor, act1, act2, h,
                           name=name or f"incl-{sx.name or 'sub'}")
