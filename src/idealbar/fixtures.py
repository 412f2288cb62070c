"""Worked examples shared by the test suite and the shipped workspaces.

nilsquare: k[x]/(x^2) over Z/2 with its ideal (x).
nilcube:   k[x]/(x^3) over Z/2 with its ideal (x), which in turn
           contains the smaller ideal (x^2).
broken_action: the nilsquare data with the action twisted to x.g = g,
           the standard counterexample that every negative test uses.
"""

from __future__ import annotations

from .core import (Algebra, AlgebraHom, BilinearMap, FiniteModule, ModuleHom,
                   Submodule)
from .crossed_ideal import (CrossedIdealMap, SubXMod, XModMorphism,
                            inclusion_cim, sub_crossed_module)
from .xmod import CrossedModule, inclusion_xmod


def nilsquare_algebra() -> Algebra:
    mod = FiniteModule(2, [2, 2])
    mul = BilinearMap(mod, mod, mod,
                      [[(1, 0), (0, 1)],
                       [(0, 1), (0, 0)]])
    return Algebra(mod, mul, name="k[x]/(x2)")


def nilsquare_ideal_algebra() -> Algebra:
    """(x) inside k[x]/(x^2), presented on the basis (x)."""
    mod = FiniteModule(2, [2])
    mul = BilinearMap(mod, mod, mod, [[(0,)]])
    return Algebra(mod, mul, name="(x)/(x2)")


def nilsquare_xmod() -> CrossedModule:
    r_alg, s_alg = nilsquare_ideal_algebra(), nilsquare_algebra()
    eta = AlgebraHom(r_alg, s_alg,
                     ModuleHom(r_alg.carrier, s_alg.carrier, [(0, 1)]),
                     name="eta")
    act = BilinearMap(s_alg.carrier, r_alg.carrier, r_alg.carrier,
                      [[(1,)], [(0,)]])
    return CrossedModule(eta, act, name="nilsquare")


def broken_action_xmod() -> CrossedModule:
    """Same algebras and eta as nilsquare, but x acts as the identity on
    the generator.  Fails actor composition, CM1 and CM2."""
    r_alg, s_alg = nilsquare_ideal_algebra(), nilsquare_algebra()
    eta = AlgebraHom(r_alg, s_alg,
                     ModuleHom(r_alg.carrier, s_alg.carrier, [(0, 1)]),
                     name="eta")
    act = BilinearMap(s_alg.carrier, r_alg.carrier, r_alg.carrier,
                      [[(1,)], [(1,)]])
    return CrossedModule(eta, act, name="broken-action")


def nilcube_algebra() -> Algebra:
    mod = FiniteModule(2, [2, 2, 2])
    mul = BilinearMap(mod, mod, mod,
                      [[(1, 0, 0), (0, 1, 0), (0, 0, 1)],
                       [(0, 1, 0), (0, 0, 1), (0, 0, 0)],
                       [(0, 0, 1), (0, 0, 0), (0, 0, 0)]])
    return Algebra(mod, mul, name="k[x]/(x3)")


def nilcube_ideal_algebra() -> Algebra:
    """(x) inside k[x]/(x^3) on the basis (x, x^2)."""
    mod = FiniteModule(2, [2, 2])
    mul = BilinearMap(mod, mod, mod,
                      [[(0, 1), (0, 0)],
                       [(0, 0), (0, 0)]])
    return Algebra(mod, mul, name="(x)/(x3)")


def nilcube_xmod() -> CrossedModule:
    r_alg, s_alg = nilcube_ideal_algebra(), nilcube_algebra()
    eta = AlgebraHom(r_alg, s_alg,
                     ModuleHom(r_alg.carrier, s_alg.carrier,
                               [(0, 1, 0), (0, 0, 1)]),
                     name="eta")
    act = BilinearMap(s_alg.carrier, r_alg.carrier, r_alg.carrier,
                      [[(1, 0), (0, 1)],
                       [(0, 1), (0, 0)],
                       [(0, 0), (0, 0)]])
    return CrossedModule(eta, act, name="nilcube")


def nilcube_inclusion_xmod() -> CrossedModule:
    """The same crossed module built by the generic ideal-inclusion
    constructor instead of by hand."""
    s_alg = nilcube_algebra()
    ideal = Submodule(s_alg.carrier,
                      [(0, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1)])
    return inclusion_xmod(s_alg, ideal, name="nilcube-incl")


def nilcube_sub() -> SubXMod:
    """The crossed ideal spanned by (x^2) in both layers."""
    xm = nilcube_xmod()
    r_subset = Submodule(xm.r_alg.carrier, [(0, 0), (0, 1)])
    s_subset = Submodule(xm.s_alg.carrier, [(0, 0, 0), (0, 0, 1)])
    return sub_crossed_module(xm, r_subset, s_subset, name="x2-in-nilcube")


def nilcube_bad_sub() -> SubXMod:
    """R' = (x) together with S' = (x^2): eta does not map R' into S',
    so this is not a sub crossed module."""
    xm = nilcube_xmod()
    r_subset = Submodule(xm.r_alg.carrier, list(xm.r_alg.carrier.elements()))
    s_subset = Submodule(xm.s_alg.carrier, [(0, 0, 0), (0, 0, 1)])
    return sub_crossed_module(xm, r_subset, s_subset, name="bad-sub")


def nilcube_cim() -> CrossedIdealMap:
    return inclusion_cim(nilcube_sub())


def nilcube_morphism() -> XModMorphism:
    sx = nilcube_sub()
    return XModMorphism(sx.sub, sx.ambient, sx.mu, sx.nu, name="x2-into-nilcube")
